"""Bayes classification of two shift-symmetric rotation classes.

Class i draws P = R M_i with a shared centred conjugation-invariant R
and equal priors.  The Bayes rule assigns class 1 exactly when
tr(P M1^T (I - M1 M2^T)) > 0, and its accuracy depends on the modal
rotations only through their separation angle alpha (the rotation angle
of M1 M2^T).  The accuracy and its derivative are closed forms in the
tail P(X > t) and the integrals H(a, b) over [a, b] of

    h(x) = sqrt(x / (1 - x)) f_X(x),

which is x^kappa / B(kappa + 1/2, 3/2) for Haar and Cayley-LMR and
c e^(-4 kappa (1 - x)) for Fisher-von Mises, c the normaliser of f_X.
Every finite kappa is supported.  ``mc_accuracy`` checks psi by
simulation, from class-1 draws alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import so3
from .distributions import DistributionSpec, _sample_quaternions, log_beta_cayley, mc_sum
from .errors import DomainError
from .moments import h_integral

TIE_TOL = 1e-14
_LOG_TINY = -708.0  # e^x is a normal float above this


@dataclass(frozen=True)
class ClassPair:
    """Two modal rotations, stored as read-only copies, plus the shared
    centred law; the separation angle is recomputed from the matrices,
    never trusted from input."""

    m1: np.ndarray
    m2: np.ndarray
    common: DistributionSpec
    alpha: float = field(init=False)

    def __post_init__(self):
        m1 = so3.require_rotation(np.array(self.m1, dtype=float))
        m2 = so3.require_rotation(np.array(self.m2, dtype=float))
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


def _beta_tail(p: float, t: float, t_c: float) -> float:
    """P(X > t) for X ~ Beta(p, 3/2), given t and t_c = 1 - t: the regularised
    incomplete beta I_x(a, b) = x^a (1 - x)^b F(a + b, 1; a + 1; x) / (a B(a, b))
    (DLMF 8.17(ii)) at x = min(t, t_c) <= 1/2, I_{t_c}(3/2, p) or 1 - I_t(p, 3/2).
    Its terms are positive and shrink like (1/2)^n once n > p x, so nothing
    cancels at any p (a Lentz continued fraction in t near 1 loses about
    log10(1 / t_c) digits).  Where the prefactor underflows the tail is 0 or 1."""
    upper = t_c <= 0.5
    a, b, x = (1.5, p, t_c) if upper else (p, 1.5, t)
    log_front = a * math.log(x) + b * math.log1p(-x) - math.log(a) - log_beta_cayley(p - 0.5)
    if log_front < _LOG_TINY:
        return 1.0 if not upper or b * x > a else 0.0
    term = total = math.exp(log_front)
    n = 0
    while term > 1e-17 * total:
        term *= (a + b + n) * x / (a + 1.0 + n)
        total += term
        n += 1
    return total if upper else 1.0 - total


def _tail(spec: DistributionSpec, t: float, t_c: float) -> float:
    """P(X > t), given t and t_c = 1 - t."""
    if spec.beta_p is not None:
        return _beta_tail(spec.beta_p, t, t_c)
    return h_integral(spec, lambda x, w: 1.0, t, t_c)


def _h_integrals(spec: DistributionSpec, alpha: float):
    """lo = sin^2(alpha/4), hi = cos^2(alpha/4) = 1 - lo, w = cos(alpha/2)
    = hi - lo, and the closed forms of H(lo, hi) and H(0, lo).  hi rounds
    to 1.0 for alpha below about 4e-8, so every quantity near x = 1 is
    formed from its complement lo."""
    lo = math.sin(0.25 * alpha) ** 2
    hi = math.cos(0.25 * alpha) ** 2
    w = math.cos(0.5 * alpha)
    k = spec.kappa
    log_norm, _ = spec.log_h
    if spec.beta_p is None:
        def h_int(width, gap):  # H(1 - gap - width, 1 - gap)
            u = 4.0 * (k * width)
            return width * (-math.expm1(-u) / u if u > 0.0 else 1.0) * math.exp(log_norm - 4.0 * (k * gap))

        return lo, hi, w, h_int(w, lo), h_int(lo, hi)
    log_c = log_norm - math.log1p(k)  # H(0, x) = e^log_c x^(k + 1)
    log_lo, log_hi = math.log(lo), math.log1p(-lo)
    h_mid = -math.exp((k + 1.0) * log_hi + log_c) * math.expm1((k + 1.0) * (log_lo - log_hi))
    return lo, hi, w, h_mid, math.exp((k + 1.0) * log_lo + log_c)


def psi_closed(pair: ClassPair) -> float:
    """Probability of a correct assignment, with lo = sin^2(alpha/4) and
    hi = cos^2(alpha/4):

        psi = (P(X > lo) + P(X > hi)) / 2 + (tan(alpha/4)/2) H(lo, hi)
              + H(0, lo) / sin(alpha/2),

    clamped to [0, 1] against rounding.
    """
    alpha = pair.alpha
    lo, hi, _, h_mid, h_low = _h_integrals(pair.common, alpha)
    psi = (0.5 * (_tail(pair.common, lo, hi) + _tail(pair.common, hi, lo))
           + 0.5 * math.tan(0.25 * alpha) * h_mid + h_low / math.sin(0.5 * alpha))
    return min(max(psi, 0.0), 1.0)


def psi_derivative(pair: ClassPair) -> float:
    """d psi / d alpha in closed form, with w = cos(alpha/2), lo = (1 - w)/2
    and hi = (1 + w)/2:

        psi'(alpha) = (H(lo, hi) - (w / lo) H(0, lo)) / (4 (1 + w)).

    Zero up to rounding under the uniform law, where h is constant.
    """
    lo, _, w, h_mid, h_low = _h_integrals(pair.common, pair.alpha)
    return (h_mid - w * h_low / lo) / (4.0 * (1.0 + w))


def _davenport_k(S: np.ndarray) -> np.ndarray:
    """Davenport's K-matrix of the q-method for Wahba's problem (Markley
    and Crassidis, Fundamentals of Spacecraft Attitude Determination and
    Control, 2014, section 5.5): the symmetric 4 x 4 matrix

        K = [[tr S, z^T], [z, S + S^T - tr S I]],
        z = (S_23 - S_32, S_31 - S_13, S_12 - S_21),

    for which tr(R S) = q^T K q, R the rotation of the unit quaternion
    q = (w, v) whose rows ``so3.rotation_row`` gives."""
    t = np.trace(S)
    K = np.empty((4, 4))
    K[0, 0] = t
    K[0, 1:] = K[1:, 0] = (S[1, 2] - S[2, 1], S[2, 0] - S[0, 2], S[0, 1] - S[1, 0])
    K[1:, 1:] = S + S.T - t * np.eye(3)
    return K


def mc_accuracy(pair: ClassPair, n: int, rng: np.random.Generator, threads: int = 1) -> float:
    """Monte Carlo estimate of the classification accuracy psi: the
    fraction of n class-1 observations P = R M1 that the Bayes rule
    assigns to class 1.

    Every family's density depends on tr R alone, so R -> R^T keeps the
    law, and tr(R^T D^T) = tr(R D) for D = M1 M2^T: a class-2 draw is
    classified correctly with the class-1 probability, up to the tie band
    |tr(R S)| < TIE_TOL, so the count has the Binomial(n, psi) law of a
    uniformly labelled sample's.  The statistic tr(R S), S = I - D, is
    linear in R, so it is the quadratic form q^T K q in the unit
    quaternion q of R (``_davenport_k``); no rotation matrix is formed.
    Above -TIE_TOL, that is, above 0 or within TIE_TOL of it, it assigns
    class 1.  A chunk makes only the sampler's draws and works in 9 rows
    (``distributions.mc_sum``): the quaternions (4), K q (4), whose first
    two rows are the sampler's scratch and whose first row's bytes then
    hold the verdicts, and the statistic (1); nothing is allocated per
    draw.
    """
    K = _davenport_k(np.eye(3) - pair.m1 @ pair.m2.T)  # P M1^T = R

    def kernel(work, chunk_rng):
        q, Kq, stat = work[:4], work[4:8], work[8]
        _sample_quaternions(pair.common, chunk_rng, work[:6])
        np.matmul(K, q, out=Kq)
        np.einsum("in,in->n", Kq, q, out=stat)
        assign1 = np.greater(stat, -TIE_TOL, out=Kq[0].view(bool)[:work.shape[1]])
        return (np.count_nonzero(assign1),)

    correct, = mc_sum(kernel, 9, n, rng, threads)
    return int(correct) / n
