"""Projected-Gram pipeline for randomly rotated landmark sets.

A 3 x k landmark matrix V is observed only through planar projections
H A V of its random rotations A, with H = diag(1, 1, 0).  For a
shift-symmetric rotation law (centred law conjugation-invariant, modal
rotation M) the law enters the expected projected Gram matrix only
through e = tau2 - 1/3 (``moments.tau2_excess``), tau2 = E[Z^2] the
second zonal moment, and w, the third row of M V:

    E[Gram(H A V)] = (2/3) (Gram(V) + B),
    B = 1.5 E - Gram(V) = (3/4) e Gram(V) - (9/4) e w w^T.

B is the bias of naive recovery under the uniform law.  e = 0, as for
Cayley-LMR at kappa = 1, makes B exactly 0 and the expectation Haar's
(fake uniformity), which is what breaks naive recovery.
"""

from __future__ import annotations

import numpy as np

from . import moments, so3
from .distributions import DistributionSpec, _sample_quaternions, mc_sum
from .errors import DomainError


def gram(V) -> np.ndarray:
    """Gram(V) = V^T V, invariant under left rotation of the landmarks."""
    V = np.asarray(V, dtype=float)
    return V.T @ V


def naive_recovery_bias(spec: DistributionSpec, V) -> np.ndarray:
    """1.5 E[Gram(H A V)] - Gram(V) = (3/4) e Gram(V) - (9/4) e w w^T, e from
    ``moments.tau2_excess``, w = (M V)_3; exactly 0 where e is (Haar, Cayley-LMR at
    kappa = 1).  e scales each term alone: 3 w w^T overflows before 2 Gram(V).
    The final + 0.0 turns the -0.0 of e = 0 times a negative entry into 0.0."""
    V = np.asarray(V, dtype=float)
    e = moments.tau2_excess(spec)
    w = (spec.modal @ V)[2]
    return (0.75 * e) * gram(V) - (2.25 * e) * np.outer(w, w) + 0.0


def expected_projected_gram(spec: DistributionSpec, V) -> np.ndarray:
    """Closed-form E[Gram(H A V)] = (2/3) (Gram(V) + ``naive_recovery_bias``)."""
    return (2.0 / 3.0) * (gram(V) + naive_recovery_bias(spec, V))


def mc_projected_gram(
    spec: DistributionSpec,
    V,
    n: int,
    rng: np.random.Generator,
    threads: int = 1,
):
    """Monte Carlo mean of Gram(H A V) over n rotation draws, and its
    entrywise standard error, as the pair (mean, stderr).

    Gram(H A V) = Gram(V) - g g^T with g the third row of A V.  For a
    draw A = R M that row is g = W^T r, with W = M V and r the third row
    of R, and r is quadratic in the unit quaternion of R, so a draw enters
    only through the six products p = (r_i r_j, i <= j): no rotation
    matrix is formed.  Each chunk adds sum p and sum p p^T, a 6-vector and
    a 6 x 6 matrix whatever the number k of landmarks, in a workspace of
    14 rows (``distributions.mc_sum``): the quaternions (4), the sampler's
    scratch (2), then r with its scratch row (4) from row 4 on, and p (6).
    Once per call, with S the 3 x 3 matrix of the mean of r r^T and C the
    6 x k matrix of the W_ia W_ja (doubled where i != j), the mean of
    g g^T is W^T S W and the mean of g_a^2 g_b^2 is entry (a, b) of
    C^T (mean of p p^T) C; both are symmetrised as (B + B^T) / 2.  The
    sums are formed on V with each landmark a scaled by 2^-e_a, its largest
    entry below 2^e_a in size, and entry (a, b) is scaled back exactly by
    2^(e_a + e_b), so that the fourth powers stay finite for every finite V,
    and those of small landmarks do not underflow beside large ones.

    The variance is the mean of g_a^2 g_b^2 less the square of the mean of
    g_a g_b, so the standard error has a rounding floor near
    sqrt(eps E[g_a^2 g_b^2] / n): an entry whose true value lies below it,
    as where g tends to w = (M V)_3 at large kappa, is rounding noise and
    may read 0 (entry (3, 3) for V = I at Cayley-LMR kappa = 1e12).
    """
    V = np.asarray(V, dtype=float)
    e = np.frexp(np.max(np.abs(V), axis=0))[1]
    U = np.ldexp(V, -e)
    e_ab = e[:, None] + e
    pairs = np.triu_indices(3)  # the (i, j) of p, i <= j, row by row

    def kernel(work, chunk_rng):
        _sample_quaternions(spec, chunk_rng, work[:6])
        r = so3.rotation_row(work[:4], 2, work[4:7], work[7])
        p = work[8:]
        for row, i, j in zip(p, *pairs):
            np.multiply(r[i], r[j], out=row)
        return p.sum(axis=1), p @ p.T

    sum_p, sum_pp = mc_sum(kernel, 14, n, rng, threads)
    i, j = pairs
    S = np.empty((3, 3))
    S[i, j] = S[j, i] = sum_p / n
    W = spec.modal @ U
    C = W[i] * W[j]
    C[i != j] *= 2.0
    outer, fourth = (0.5 * (B + B.T) for B in (W.T @ S @ W, C.T @ (sum_pp / n) @ C))
    mean = np.ldexp(gram(U) - outer, e_ab)
    var = np.maximum(fourth - outer * outer, 0.0)
    if n > 1:
        var *= n / (n - 1.0)
    return mean, np.ldexp(np.sqrt(var / n), e_ab)


def recover_gram(E, tau2: float, w) -> np.ndarray:
    """Invert the expected projected Gram.

    With W = M V and w its third row, the forward map reads
    E = ((1 + tau2)/2) Gram(V) + ((1 - 3 tau2)/2) w w^T, so

        Gram(V) = (2 / (1 + tau2)) * (E - ((1 - 3 tau2)/2) w w^T).

    At tau2 = 1/3 the w-term vanishes and recovery degenerates to
    (3/2) E for every w: the fake-uniformity pitfall.  tau2 = 1, which
    Cayley-LMR tau2 rounds to from kappa near 1e17, gives E + w w^T.
    """
    if not 0.0 < tau2 <= 1.0:
        raise DomainError("tau2 must lie in (0, 1]")
    E = np.asarray(E, dtype=float)
    w = np.asarray(w, dtype=float)
    return (2.0 / (1.0 + tau2)) * (E - 0.5 * (1.0 - 3.0 * tau2) * np.outer(w, w))
