"""Shared helpers for the test suite."""

import functools
import math

import mpmath
import numpy as np
from hypothesis import settings

from rotgram import distributions as dist
from rotgram import classifier, moments, radon, so3
from rotgram.errors import DomainError

SQRT2 = math.sqrt(2.0)

# Property tests draw the same examples on every run, and a slow example
# on a busy machine is not a failure.
settings.register_profile("rotgram", derandomize=True, deadline=None)
settings.load_profile("rotgram")


def sample_uniform_axes(n, rng):
    """n uniform points on the unit sphere as an (n, 3) array.

    Built from a uniform third component on [-1, 1] and a uniform
    azimuth, so the U3 marginal is uniform by construction.  Draw order
    is fixed (all third components, then all azimuths) so a seeded
    generator reproduces the same axes.
    """
    u3 = rng.uniform(-1.0, 1.0, size=n)
    phi = rng.uniform(0.0, 2.0 * math.pi, size=n)
    r = np.sqrt(np.clip(1.0 - u3 * u3, 0.0, None))
    return np.column_stack((r * np.cos(phi), r * np.sin(phi), u3))


def random_rotation(rng):
    """A generic rotation away from the chart's degenerate set."""
    axis = sample_uniform_axes(1, rng)[0]
    angle = rng.uniform(0.05, math.pi - 0.05)
    return so3.from_axis_angle(axis, angle)


def rotations_from_quaternions(q):
    """The (n, 3, 3) rotations of the unit quaternions in the columns of the
    (4, n) array q, each row i from ``so3.rotation_row``, assembled as
    ``distributions.sample_rotations`` assembles them."""
    R = np.empty((3, 3, q.shape[1]))
    w2 = np.empty(q.shape[1])
    for i, row in enumerate(R):
        so3.rotation_row(q, i, row, w2)
    return R.transpose(2, 0, 1)


def from_axis_angle_batch(axes, angles):
    """Oracle for the rotations of unit quaternions that ``so3.rotation_row``
    builds row by row: the vectorised axis-angle chart, (n,3) axes and (n,)
    angles -> (n,3,3)."""
    u = np.asarray(axes, dtype=float)
    t = np.asarray(angles, dtype=float)
    c = np.cos(t)[:, None, None]
    s = np.sin(t)[:, None, None]
    n = u.shape[0]
    S = np.zeros((n, 3, 3))
    S[:, 0, 1] = -u[:, 2]
    S[:, 0, 2] = u[:, 1]
    S[:, 1, 0] = u[:, 2]
    S[:, 1, 2] = -u[:, 0]
    S[:, 2, 0] = -u[:, 1]
    S[:, 2, 1] = u[:, 0]
    outer = u[:, :, None] * u[:, None, :]
    return c * np.eye(3) + s * S + (1.0 - c) * outer


def quaternion_draws(spec, n, rng):
    """n draws of ``distributions._sample_quaternions`` as the tuple
    (q, x, x_c, z), the normal triples kept apart from q."""
    work = np.empty((6, n))
    z = dist._sample_quaternions(spec, rng, work, np.empty((3, n)))
    return work[:4], work[5], work[4], z


class RecordingGenerator:
    """A numpy Generator proxy that records every call it forwards as
    (method name, positional arguments, keyword arguments)."""

    def __init__(self, rng):
        self._rng = rng
        self.calls = []

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def recorded(*args, **kwargs):
            self.calls.append((name, args, kwargs))
            return method(*args, **kwargs)

        return recorded


def fvm_x_beta_rejection(kappa, n, rng):
    """Oracle for the Fisher-von Mises X draws of ``_sample_quaternions``
    at kappa > 0: rejection from the Beta(1/2, 3/2) law, accepting with
    probability exp(4 kappa (x - 1)).  Exact, but its acceptance falls
    like kappa^-3/2, so it is only usable for small kappa."""
    out = np.empty(n)
    filled = 0
    while filled < n:
        m = n - filled
        g1 = rng.standard_gamma(0.5, size=m)
        g2 = rng.standard_gamma(1.5, size=m)
        x = g1 / (g1 + g2)
        accept = rng.uniform(size=m) <= np.exp(4.0 * kappa * (x - 1.0))
        num = int(np.count_nonzero(accept))
        out[filled:filled + num] = x[accept]
        filled += num
    return out


def ks_statistic(a, b):
    """Two-sample Kolmogorov-Smirnov statistic."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    both = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, both, side="right") / a.size
    cdf_b = np.searchsorted(b, both, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def ks_critical(n, m, alpha=0.001):
    """Large-sample two-sample KS critical value at level ``alpha``."""
    c = math.sqrt(-0.5 * math.log(alpha / 2.0))
    return c * math.sqrt((n + m) / (n * m))


def rotation_with_third_row(p):
    """A rotation whose third row equals the unit vector p."""
    p = np.asarray(p, dtype=float)
    p = p / np.linalg.norm(p)
    seed = np.array([1.0, 0.0, 0.0])
    if abs(seed @ p) > 0.9:
        seed = np.array([0.0, 1.0, 0.0])
    r1 = seed - (seed @ p) * p
    r1 = r1 / np.linalg.norm(r1)
    r2 = np.cross(p, r1)
    return np.vstack([r1, r2, p])


# ---------------------------------------------------------------------------
# Second routes kept as oracles for the production code


def two_class_accuracy(pair, n, rng):
    """The former two-class ``classifier.mc_accuracy``, an oracle for the
    swap symmetry that lets the production MC draw class 1 alone.  A chunk
    of m draws first draws its class-1 count n1 ~ Binomial(m, 1/2), then m
    quaternions from ``distributions._sample_quaternions``; the first n1
    are class 1 and the rest class 2, each classified by the statistic
    tr(R S_label) = q^T K(S_label) q, with S_1 = I - M1 M2^T and
    S_2 = M2 M1^T S_1, and assigned class 1 above -TIE_TOL.  Returns the
    accuracies (overall, class 1, class 2), nan for a class with no draws."""
    s1 = np.eye(3) - pair.m1 @ pair.m2.T
    K1, K2 = classifier._davenport_k(s1), classifier._davenport_k(pair.m2 @ pair.m1.T @ s1)

    def kernel(work, chunk_rng):
        m = work.shape[1]
        n1 = chunk_rng.binomial(m, 0.5)
        q, Kq, stat = work[:4], work[4:8], work[8]
        dist._sample_quaternions(pair.common, chunk_rng, work[:6])
        np.matmul(K1, q[:, :n1], out=Kq[:, :n1])
        np.matmul(K2, q[:, n1:], out=Kq[:, n1:])
        np.einsum("in,in->n", Kq, q, out=stat)
        assign1 = stat > -classifier.TIE_TOL
        hit1 = np.count_nonzero(assign1[:n1])
        hit2 = m - n1 - np.count_nonzero(assign1[n1:])
        return hit1 + hit2, hit1, n1

    correct, correct1, n1 = dist.mc_sum(kernel, 9, n, rng)
    n2 = n - n1
    return (correct / n, correct1 / n1 if n1 else math.nan,
            (correct - correct1) / n2 if n2 else math.nan)


def g_kernel_projected_gram(spec, V, n, rng, threads=1):
    """The former kernel of ``radon.mc_projected_gram``, an oracle for the
    fixed-size one: each chunk forms g = (M U)^T r, U = V 2^-e, for its m
    draws in a workspace of 8 + k rows and adds g g^T and (g*g)(g*g)^T.
    Returns the same (mean, stderr) pair."""
    V = np.asarray(V, dtype=float)
    e = int(np.frexp(np.max(np.abs(V), initial=0.0))[1])
    U = np.ldexp(V, -e)
    MU_T = (spec.modal @ U).T

    def kernel(work, chunk_rng):
        dist._sample_quaternions(spec, chunk_rng, work[:6])
        g = np.matmul(MU_T, so3.rotation_row(work[:4], 2, work[4:7], work[7]), out=work[8:])
        outer = g @ g.T
        g *= g
        return outer, g @ g.T

    total, total_sq = dist.mc_sum(kernel, 8 + len(MU_T), n, rng, threads)
    outer = total / n
    mean = np.ldexp(radon.gram(U) - outer, 2 * e)
    var = np.maximum(total_sq / n - outer * outer, 0.0)
    if n > 1:
        var *= n / (n - 1.0)
    return mean, np.ldexp(np.sqrt(var / n), 2 * e)


def tau_from_rho(rho1, rho2):
    """(tau_1, tau_2) from the first two X-moments:
    tau_1 = -1/3 + (4/3) rho_1,  tau_2 = 7/15 - (8/5) rho_1 + (32/15) rho_2.
    """
    tau1 = -1.0 / 3.0 + (4.0 / 3.0) * rho1
    tau2 = 7.0 / 15.0 - (8.0 / 5.0) * rho1 + (32.0 / 15.0) * rho2
    return tau1, tau2


@functools.lru_cache(maxsize=None)
def g0_coefficients(k):
    """Ascending polynomial coefficients of G0_k(x) = G_k(x) / sqrt(1-x).

    G_k(x) = integral_{2x-1}^{1} t^{k-1} sqrt(1 + t - 2x) dt satisfies
    G_k = a_k + b_k G_{k-1} with a_k = (4 sqrt2 / (2k+1)) (1-x)^{3/2} and
    b_k = (2(k-1)/(2k+1)) (2x-1).  Writing G_k = (1-x)^{3/2} P_k(x), the
    polynomial recursion for P_k is carried exactly in coefficient space,
    so no division by sqrt(1-x) ever happens numerically.
    """
    if not 1 <= k <= 20:
        raise DomainError("g0 is supported for 1 <= k <= 20")
    p = np.array([4.0 * SQRT2 / 3.0])
    for j in range(2, k + 1):
        shifted = np.convolve(p, [-1.0, 2.0])  # (2x - 1) * P, ascending
        p = (2.0 * (j - 1) / (2.0 * j + 1.0)) * shifted
        p[0] += 4.0 * SQRT2 / (2.0 * j + 1.0)
    return tuple(np.convolve(p, [1.0, -1.0]))  # (1 - x) * P_k


def g0(k, x):
    """G0_k(x) for x in [-1, 1]; the (1-x) factor is kept analytic so the
    value is exactly 0 at x = 1."""
    if not -1.0 <= x <= 1.0:
        raise DomainError("g0 expects x in [-1, 1]")
    if x == 1.0:
        return 0.0
    out = 0.0
    for c in reversed(g0_coefficients(k)):
        out = out * x + c
    return out


def tau_k_g0(spec, k):
    """Oracle for ``moments.tau_k`` through the G0 recursion:
    tau_k = 1 - (k / sqrt2) * integral_0^1 f_X(x) G0_k(x) dx."""
    fx = functools.partial(dist.fx_density, spec)
    value = moments.integrate(lambda x: fx(x) * g0(k, x), 0.0, 1.0)
    return 1.0 - (k / SQRT2) * value


def log_bessel_gap_loop(n, kappa):
    """Oracle for ``distributions.log_bessel_gap`` at one float kappa: the
    same series and expansion, summed one term at a time in a loop that
    stops at the first term below 1e-17 of the sum or, in the expansion,
    before the first ratio of size >= 1."""
    if kappa < 10.0:
        term = total = 1.0 / math.factorial(n)
        j = 0
        while abs(term) > 1e-17 * total:  # also stops once the terms underflow
            j += 1
            term *= -kappa / (j // 2 if j % 2 == 0 else j // 2 + 1 + n)
            total += term
        return math.log(total) - 2.0 * kappa + (n * math.log(kappa) if n else 0.0)
    u = total = (2.0 * n + 1.0) / 4.0
    j = 1
    while abs(u) > 1e-17 * total:
        j += 1
        step = (2 * n + 2 * j - 1) * (2 * j - 2 * n - 3) / (16.0 * (j - 1) * kappa)
        if abs(step) >= 1.0:  # the divergent tail starts: stop at the smallest term
            break
        u *= step
        total += u
    return math.log(total) - 0.5 * math.log(4.0 * math.pi) - 1.5 * math.log(kappa)


def tau2_excess_loop(family, kappa):
    """Oracle for ``moments.tau2_excess_at`` at one float kappa, with the
    Bessel gaps of ``log_bessel_gap_loop``."""
    k = kappa
    if k == 0.0:
        return 0.0
    if dist.Family(family) is dist.Family.FVM:
        return (2.0 / 15.0) * math.exp(log_bessel_gap_loop(2, k) - log_bessel_gap_loop(0, k))
    return 2.0 * (k / (k + 2.0)) * ((k - 1.0) / (k + 3.0) / 3.0)


def scan_curve_loop(family, kappa_max, n_points):
    """Oracle for ``fake_uniformity.scan_curve``: the grid built and
    evaluated one point at a time, each through ``tau2_excess`` of its own
    ``DistributionSpec``."""
    points = np.empty((n_points, 2))
    for i, point in enumerate(points):
        kappa = kappa_max * i / (n_points - 1)
        if kappa == math.inf:
            kappa = kappa_max * (i / (n_points - 1))
        point[:] = kappa, moments.tau2_excess(dist.DistributionSpec(family, kappa=kappa))
    return points


def shape_dispersion_matrix(spec):
    """The diagonal matrix D with D^2 = diag((1-tau2)/2, (1-tau2)/2, tau2),
    with tau2 from the closed form ``moments.tau2``."""
    tau2 = moments.tau2(spec)
    d = math.sqrt(max((1.0 - tau2) / 2.0, 0.0))
    return np.diag([d, d, math.sqrt(max(tau2, 0.0))])


def projected_gram_dispersion_route(spec, V):
    """Oracle for ``radon.expected_projected_gram``: Gram(V) - Gram(D M V),
    since E[g g^T] = Gram(D M V) for g the third row of R M V."""
    V = np.asarray(V, dtype=float)
    return radon.gram(V) - radon.gram(shape_dispersion_matrix(spec) @ spec.modal @ V)


def same_bits(a, b):
    """True when the floats or float arrays a and b have the same shape and
    bit patterns (so 0.0 and -0.0 differ and equal NaNs agree)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def tau2_of_kappa(family, kappa):
    """tau2 for the centred family at concentration kappa, from the
    closed form ``moments.tau2``."""
    return moments.tau2(dist.DistributionSpec(family, kappa=kappa))


def quad_coeffs(alpha, x):
    """Coefficients (a, b, c) of the quadratic in U3 whose sign decides
    the Bayes assignment, at separation alpha and angle variate x:

        a = -2 (1 - cos a)(1 - x) < 0,
        b = 4 sin(a) sqrt(x (1 - x)),
        c = 2 (1 - cos a) x.

    Its roots are -tan(a/4) cot(t/2) and cot(a/4) cot(t/2) with
    t = arccos(2x - 1).
    """
    one_minus_cos = 1.0 - math.cos(alpha)
    a = -2.0 * one_minus_cos * (1.0 - x)
    b = 4.0 * math.sin(alpha) * math.sqrt(x * (1.0 - x))
    c = 2.0 * one_minus_cos * x
    return a, b, c


def planar_block(alpha):
    """The 3x3 block A(alpha) whose top-left 2x2 corner is
    [[1-cos a, sin a], [-sin a, 1-cos a]] and which is zero elsewhere."""
    c = math.cos(alpha)
    s = math.sin(alpha)
    return np.array([
        [1.0 - c, s, 0.0],
        [-s, 1.0 - c, 0.0],
        [0.0, 0.0, 0.0],
    ])


def rotation_density(spec, P):
    """Density of P with respect to Haar probability measure on SO(3)."""
    P = np.asarray(P, dtype=float)
    k = spec.kappa
    if spec.family is dist.Family.HAAR:
        return 1.0
    t = float(np.trace(P @ spec.modal.T))
    if spec.family is dist.Family.FVM:
        log_density = k * (t - 3.0) - dist.log_bessel_gap(0, k)
    elif 1.0 + t <= 0.0:
        return 0.0 if k > 0.0 else 1.0
    else:  # Cayley-LMR: the ratio of the X-densities at x = (1 + t)/4 to Haar's
        log_density = k * math.log1p(0.25 * (t - 3.0)) + math.log(0.5 * math.pi) - dist.log_beta_cayley(k)
    try:
        return math.exp(log_density)
    except OverflowError:  # beyond the float range near the mode, from kappa ~ 1e205
        return math.inf


def fz_closed_cayley(kappa, s):
    """Closed-form zonal density of Z = (R e3)_3 for the Cayley-LMR
    family: (kappa + 1) ((1 + s) / 2)^kappa on [-1, 1].

    Normalised so that (1/2) * integral over [-1, 1] equals 1.  The base
    (1 + s) / 2 is at most 1, so the power cannot overflow at any finite
    kappa.
    """
    if not 0.0 <= kappa < math.inf:
        raise DomainError("concentration kappa must be finite and >= 0")
    if not -1.0 <= s <= 1.0:
        raise DomainError("s must lie in [-1, 1]")
    return (kappa + 1.0) * (0.5 * (1.0 + s)) ** kappa


def fz_fvm_oracle(kappa, s):
    """Zonal density of the Fisher-von Mises family at kappa > 0, at 40
    digits: with u = (1 + s) / 2 and z = 2 kappa u,

        f_Z(s) = e^(-4 kappa (1 - u)) e^(-z) I_0(z) / (e^(-2 kappa) (I_0 - I_1)(2 kappa)),

    the integral over phi in [0, pi/2] of h(u cos^2 phi) = c e^(-4 kappa
    (1 - u cos^2 phi)) in closed form (DLMF 10.32.1)."""
    with mpmath.workdps(40):
        k = mpmath.mpf(kappa)
        u = (1 + mpmath.mpf(s)) / 2
        z = 2 * k * u
        return float(mpmath.exp(2 * k - 4 * k * (1 - u) - z) * mpmath.besseli(0, z)
                     / (mpmath.besseli(0, 2 * k) - mpmath.besseli(1, 2 * k)))


def project(A, V):
    """Planar projection H A V of the rotated landmarks, H = diag(1, 1, 0);
    the third row is exactly zero."""
    A = np.asarray(A, dtype=float)
    V = np.asarray(V, dtype=float)
    return np.diag([1.0, 1.0, 0.0]) @ A @ V


def is_gram(G):
    """Symmetric within 1e-12 and positive semidefinite up to
    -1e-10 * ||G|| on the smallest eigenvalue."""
    G = np.asarray(G, dtype=float)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        return False
    if not np.all(np.abs(G - G.T) <= 1e-12):
        return False
    scale = np.linalg.norm(G, ord=2) if G.size else 0.0
    if scale == 0.0:
        return True
    return float(np.linalg.eigvalsh(G)[0]) >= -1e-10 * scale


def limit_gram_kappa_infinity(M, V):
    """kappa -> infinity limit of the expected projected Gram.

    As the law concentrates at M, D^2 -> diag(0, 0, 1) and the
    expectation tends to Gram((I - p p^T) V) with p = M^T e3 (the third
    row of M): only the projection orthogonal to that direction
    survives.
    """
    M = np.asarray(M, dtype=float)
    V = np.asarray(V, dtype=float)
    p = M.T @ np.array([0.0, 0.0, 1.0])
    return radon.gram((np.eye(3) - np.outer(p, p)) @ V)


def write_csv_rows(stream, header, rows):
    """The CLI's former CSV writer, an oracle for ``cli._write_csv``: each
    float of each row as ``format(float(v), ".17g")``, any other value by
    ``str``, one ``write`` per row."""
    stream.write(",".join(header) + "\n")
    for row in rows:
        stream.write(",".join(format(float(v), ".17g") if isinstance(v, float) else str(v)
                              for v in row) + "\n")
