"""Bayes classification of two shift-symmetric rotation classes.

Class i draws P = R M_i with a shared centred conjugation-invariant R
and equal priors.  The Bayes rule assigns class 1 exactly when
tr(P M1^T (I - M1 M2^T)) > 0, and its accuracy depends on the modal
rotations only through their separation angle alpha (the rotation angle
of M1 M2^T).  The accuracy has a closed integral form in

    h(x) = sqrt(x / (1 - x)) f_X(x),

which for the Cayley-LMR family with modal identity reduces to
x^kappa / B(kappa + 1/2, 3/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import so3
from .distributions import DistributionSpec, fx_density_fn, sample_rotations
from .errors import DomainError
from .moments import QuadratureSpec, integrate

TIE_TOL = 1e-14
MC_CHUNK = 1 << 17
# f_X peaks within about 1/kappa of x = 1.  Up to this concentration the
# adaptive quadrature of the h-form resolves that peak (to 1e-9 against an
# incomplete-beta oracle); above it the first panels can miss the peak
# and the integrals lose their mass.
PSI_KAPPA_MAX = 1e5


@dataclass(frozen=True)
class ClassPair:
    """Two modal rotations plus the shared centred law; the separation
    angle is recomputed from the matrices, never trusted from input."""

    m1: np.ndarray
    m2: np.ndarray
    common: DistributionSpec
    alpha: float = None

    def __post_init__(self):
        m1 = so3.require_rotation(self.m1)
        m2 = so3.require_rotation(self.m2)
        if not np.all(np.abs(self.common.modal - np.eye(3)) <= 1e-12):
            raise DomainError("the common law must be centred (modal = identity)")
        alpha = so3.rotation_angle_between(m1, m2)
        if not 1e-12 < alpha < math.pi - 1e-12:
            raise DomainError("modal rotations must be separated by an angle in (0, pi)")
        m1.flags.writeable = False
        m2.flags.writeable = False
        object.__setattr__(self, "m1", m1)
        object.__setattr__(self, "m2", m2)
        object.__setattr__(self, "alpha", alpha)


def make_h(spec: DistributionSpec):
    """The weight h(x) = sqrt(x / (1 - x)) f_X(x) on (0, 1)."""
    fx = fx_density_fn(spec)

    def h(x: float) -> float:
        return math.sqrt(x / (1.0 - x)) * fx(x)

    return h


def _h_integrals(spec: DistributionSpec, alpha: float, quad):
    """The split points lo = (1 - w)/2 and hi = (1 + w)/2, w = cos(alpha/2),
    and the integrals of h over [lo, hi] and [0, lo].  lo and hi are
    computed as sin^2(alpha/4) and cos^2(alpha/4): 1 - w rounds to 0.0
    for alpha below about 2e-8.  Raises DomainError above PSI_KAPPA_MAX."""
    if spec.kappa > PSI_KAPPA_MAX:
        raise DomainError("the closed-form accuracy supports kappa <= %g, got %g"
                          % (PSI_KAPPA_MAX, spec.kappa))
    lo = math.sin(0.25 * alpha) ** 2
    hi = math.cos(0.25 * alpha) ** 2
    h = make_h(spec)
    return lo, hi, integrate(h, lo, hi, quad), integrate(h, 0.0, lo, quad)


def psi_closed(pair: ClassPair, quad: QuadratureSpec | None = None) -> float:
    """Probability of a correct assignment, via the four-integral h-form
    with w = cos(alpha/2):

        psi = int_{(1+w)/2}^{1} sqrt((1-x)/x) h
              + (1/2) int_{(1-w)/2}^{(1+w)/2} sqrt((1-x)/x) h
              + (tan(alpha/4)/2) int_{(1-w)/2}^{(1+w)/2} h
              + (1/sin(alpha/2)) int_{0}^{(1-w)/2} h,

    where sqrt((1-x)/x) h is f_X itself.
    """
    alpha = pair.alpha
    spec = pair.common
    lo, hi, h_mid, h_tail = _h_integrals(spec, alpha, quad)
    fx = fx_density_fn(spec)
    return (
        integrate(fx, hi, 1.0, quad)
        + 0.5 * integrate(fx, lo, hi, quad)
        + 0.5 * math.tan(0.25 * alpha) * h_mid
        + h_tail / math.sin(0.5 * alpha)
    )


def psi_derivative(pair: ClassPair, quad: QuadratureSpec | None = None) -> float:
    """d psi / d alpha as a weighted difference of two integral means of
    h, with w = cos(alpha/2), lo = (1 - w)/2 and hi = (1 + w)/2:

        psi'(alpha) = (int_{lo}^{hi} h - (w / lo) int_{0}^{lo} h) / (4 (1 + w)).

    Identically zero under the uniform law, where h is constant.
    """
    w = math.cos(0.5 * pair.alpha)
    lo, _, h_mid, h_tail = _h_integrals(pair.common, pair.alpha, quad)
    return (h_mid - w * h_tail / lo) / (4.0 * (1.0 + w))


def mc_accuracy(
    pair: ClassPair,
    n: int,
    rng: np.random.Generator,
    return_by_class: bool = False,
):
    """Monte Carlo estimate of the classification accuracy.

    Draws class labels uniformly, samples each observation as
    P = R M_label from the common centred law, applies the Bayes rule,
    and returns the fraction of correct assignments.  The draws come in
    chunks of MC_CHUNK, each drawing its labels first and its rotations
    second, so memory does not grow with n.  The rule's statistic is
    tr(R S_label), with S_1 = I - M1 M2^T and S_2 = M2 M1^T S_1; per
    chunk both come from one (m, 9) @ (9, 2) matrix product.  With
    ``return_by_class`` the tuple (overall, class1 accuracy, class2
    accuracy) is returned.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    contrast = np.eye(3) - pair.m1 @ pair.m2.T
    stat1 = contrast  # P M1^T = R for class-1 draws
    stat2 = pair.m2 @ pair.m1.T @ contrast
    # tr(R S) = <vec(R), vec(S^T)>
    W = np.column_stack((stat1.T.reshape(9), stat2.T.reshape(9)))
    correct = 0
    correct1 = 0
    n1 = 0
    done = 0
    while done < n:
        m = min(MC_CHUNK, n - done)
        is1 = rng.integers(1, 3, size=m) == 1
        S = sample_rotations(pair.common, m, rng).reshape(m, 9) @ W
        stat = np.where(is1, S[:, 0], S[:, 1])
        assign1 = (stat > 0.0) | (np.abs(stat) < TIE_TOL)
        hit = assign1 == is1
        correct += int(np.count_nonzero(hit))
        correct1 += int(np.count_nonzero(hit & is1))
        n1 += int(np.count_nonzero(is1))
        done += m
    overall = correct / n
    if not return_by_class:
        return overall
    acc1 = correct1 / n1 if n1 else math.nan
    n2 = n - n1
    acc2 = (correct - correct1) / n2 if n2 else math.nan
    return overall, acc1, acc2
