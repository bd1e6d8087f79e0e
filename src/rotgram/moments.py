"""Quadrature engine and the moment/density transforms linking the angle
variate X = (1 + cos Theta)/2 and the zonal variate Z = (R e3)_3.

``tau2`` is the closed-form second zonal moment used in production, and
``tau2_excess`` is tau2 - 1/3 with an exact sign, from ``tau2_excess_at``,
which takes a whole array of kappa;
``rho_moment``, ``tau_k`` and ``moment_vector`` are the general-order
moment bridge: tau_k is the mean of a Bernstein polynomial in X with
nonnegative weights, exact for the Beta laws of Haar and Cayley-LMR and
one quadrature for Fisher-von Mises.

``integrate`` has one setting, ``rel_tol``, relative to the integral of
|f| (default 1e-10; 0 asks for the roundoff floor).  ``h_integral``,
E[g(X, 1 - X); X > t] under the Fisher-von Mises angle law, gives its
tails and moments to that floor.  The zonal density
``fz_from_fx`` is a closed form for every family, inverted by
``fx_from_fz`` as one regularised Abel integral.

The zonal density f_Z is normalised so that (1/2) * integral_{-1}^{1}
f_Z(s) ds = 1, matching the sphere-density convention of the closed
Cayley-LMR form (Haar gives f_Z identically 1).
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .distributions import DistributionSpec, Family, log_bessel_gap, log_i0e
from .errors import DomainError, NoConvergence

# 15-point Kronrod nodes (positive half, descending) with the embedded
# 7-point Gauss rule at indices 1, 3, 5 and the centre.
_XGK = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993945,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
)
_WGK = (
    0.0229353220105292,
    0.0630920926299786,
    0.1047900103222502,
    0.1406532597155259,
    0.1690047266392679,
    0.1903505780647854,
    0.2044329400752989,
    0.2094821410847278,
)
_WG = (
    0.1294849661688697,
    0.2797053914892766,
    0.3818300505051189,
    0.4179591836734694,
)

_EPS = np.finfo(float).eps
_UFLOW = np.finfo(float).tiny


def _qk15(g, a: float, b: float):
    """One Gauss-Kronrod 15/7 panel; returns (integral, error estimate,
    integral of |g|)."""
    centre = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = g(centre)
    resk = _WGK[7] * fc
    resg = _WG[3] * fc
    resabs = _WGK[7] * abs(fc)
    values = []
    for i, x in enumerate(_XGK):
        f1 = g(centre - half * x)
        f2 = g(centre + half * x)
        values.append((f1, f2, _WGK[i]))
        resk += _WGK[i] * (f1 + f2)
        resabs += _WGK[i] * (abs(f1) + abs(f2))
        if i % 2 == 1:
            resg += _WG[i // 2] * (f1 + f2)
    mean = 0.5 * resk
    resasc = _WGK[7] * abs(fc - mean)
    for f1, f2, w in values:
        resasc += w * (abs(f1 - mean) + abs(f2 - mean))
    integral = resk * half
    resabs *= abs(half)
    resasc *= abs(half)
    err = abs((resk - resg) * half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPS):
        err = max(err, 50.0 * _EPS * resabs)
    return integral, err, resabs


def integrate(f, a: float, b: float, rel_tol: float = 1e-10) -> float:
    """Adaptive Gauss-Kronrod integral of f over [a, b].

    The substitution x = a + (b - a) sin^2(t) is applied first, which
    removes endpoint singularities up to inverse-square-root type; the
    transformed integrand is then bisected adaptively until the summed
    error estimate is at most max(tiny, max(rel_tol, 50 eps) * integral(|f|)),
    tiny the smallest normal float: ``rel_tol`` relative to integral(|f|),
    never finer than the roundoff floor 50 eps, which rel_tol = 0 asks for.

    Raises ValueError unless rel_tol >= 0, and NoConvergence, naming
    [a, b], the target missed, the panel count and the depth reached,
    when the bisection budget (4000 panels, depth 60) is exhausted.
    """
    if not rel_tol >= 0.0:
        raise ValueError("rel_tol must be >= 0")
    a = float(a)
    b = float(b)
    if a == b:
        return 0.0
    if a > b:
        raise ValueError("integration bounds must satisfy a <= b")
    span = b - a

    def transformed(t: float) -> float:
        s = math.sin(t)
        x = a + span * s * s
        if x <= a:
            x = math.nextafter(a, b)
        elif x >= b:
            x = math.nextafter(b, a)
        return f(x) * span * math.sin(2.0 * t)

    val, err, resabs = _qk15(transformed, 0.0, 0.5 * math.pi)
    heap = [(-err, 0, 0.0, 0.5 * math.pi, val, err, resabs)]
    total_err = err
    total_resabs = resabs
    max_panels = 4000
    max_depth = 60
    while total_err > (target := max(_UFLOW, max(rel_tol, 50.0 * _EPS) * total_resabs)):
        neg_err, depth, lo, hi, val, err, resabs = heapq.heappop(heap)
        if err <= 55.0 * _EPS * resabs:
            # The worst panel is already at its roundoff floor; splitting
            # cannot improve the estimate, so the result is converged to
            # machine precision even though rel_tol was not reachable.
            heapq.heappush(heap, (neg_err, depth, lo, hi, val, err, resabs))
            break
        if depth >= max_depth or len(heap) + 2 > max_panels:
            deepest = max([depth] + [item[1] for item in heap])
            raise NoConvergence(
                "quadrature on [%.17g, %.17g] stalled at error %.3e (target %.3e) "
                "after %d panels, depth %d" % (a, b, total_err, target, len(heap) + 1, deepest)
            )
        mid = 0.5 * (lo + hi)
        v1, e1, r1 = _qk15(transformed, lo, mid)
        v2, e2, r2 = _qk15(transformed, mid, hi)
        heapq.heappush(heap, (-e1, depth + 1, lo, mid, v1, e1, r1))
        heapq.heappush(heap, (-e2, depth + 1, mid, hi, v2, e2, r2))
        total_err += e1 + e2 - err
        total_resabs += r1 + r2 - resabs
    return float(sum(item[4] for item in sorted(heap, key=lambda it: it[2])))


# ---------------------------------------------------------------------------
# Moments


def h_integral(spec: DistributionSpec, g, t: float = 0.0, t_c: float = 1.0) -> float:
    """E[g(X, 1 - X); X > t] for the Fisher-von Mises law of ``spec`` at
    kappa > 0, given t in [0, 1] and t_c = 1 - t, g a function of (x, w)
    with w = 1 - x.  The integral runs over x = cos^2 phi, w = sin^2 phi, in
    which f_X dx = 2 w h dphi, h = c e^(-4 kappa w) of
    ``DistributionSpec.log_h``, has no singular end, from phi = 0 to
    atan2(sqrt(t_c), sqrt(t)).

    h(cos^2 phi) peaks at phi = 0, about m^1.5 high and 1/sqrt(m) wide,
    m = max(kappa, 1), so the integral runs in u = sqrt(m) phi, where
    h dphi = m (h / m^1.5) du: m^-1.5 is taken in the exponent and m
    multiplies the integrand.  It stops once h has fallen by at least e^-745,
    at sin^2 phi = 745 / (4 kappa), and runs to the roundoff floor.
    """
    k = spec.kappa
    m = max(k, 1.0)
    r = math.sqrt(m)
    log_norm, tilt = spec.log_h
    lead = log_norm - 1.5 * math.log(m)
    end = min(math.atan2(math.sqrt(t_c), math.sqrt(t)), math.asin(math.sqrt(min(186.25 / k, 1.0))))

    def integrand(u: float) -> float:
        s, c = math.sin(u / r), math.cos(u / r)
        x, w = c * c, s * s
        return 2.0 * w * g(x, w) * m * math.exp(lead + tilt(x, w))

    return integrate(integrand, 0.0, r * end, 0.0)


def _bernstein_mean(spec: DistributionSpec, n: int, weights) -> float:
    """sum_j weights[j] E[X^(n-j) (1-X)^j] over j = 0 .. len(weights) - 1.

    Haar and Cayley-LMR have X ~ Beta(p, 3/2) with p = kappa + 1/2, so
    each mean is a product of ratios, exact to rounding:
    E[X^a (1-X)^b] = prod_{i<a} (p+i)/(p+3/2+i) * prod_{i<b} (3/2+i)/(p+3/2+a+i).
    Fisher-von Mises takes the weighted sum through ``h_integral``.
    """
    p = spec.beta_p
    if p is None:
        return h_integral(spec, lambda x, v: sum(w * x ** (n - j) * v ** j
                                                 for j, w in enumerate(weights)))
    total = 0.0
    for b, w in enumerate(weights):
        a = n - b
        out = w
        for i in range(a):
            out *= (p + i) / (p + 1.5 + i)
        for i in range(b):
            out *= (1.5 + i) / (p + 1.5 + a + i)
        total += out
    return total


def rho_moment(spec: DistributionSpec, r: int) -> float:
    """E[X^r].  Haar and Cayley-LMR use the Beta-moment Pochhammer ratio
    with p = kappa + 1/2, q = 3/2; Fisher-von Mises integrates x^r f_X,
    whose rounding can pass 1 at huge kappa, so the result is clamped to 1."""
    if not 0 <= r <= 20:
        raise DomainError("moment order must lie in 0..20")
    if r == 0:
        return 1.0
    return min(_bernstein_mean(spec, r, (1.0,)), 1.0)


def tau2_excess_at(family, kappa):
    """tau2 - 1/3 of the centred ``family`` in closed form, without
    quadrature, at a float or at each kappa of an array (finite and >= 0):
    a float (or a 0-d array) gives a float, an array an array of its shape.
    No 1/3 is subtracted, so the sign is exact in floating point.

    Haar and Cayley-LMR: 2k (k - 1) / (3 (k + 2)(k + 3)), from
    tau2 = (2 + k + k^2) / (6 + 5k + k^2); 0 at k = 0 and at k = 1.
    Fisher-von Mises: (2/15) (I2 - I3) / (I0 - I1) at argument 2k, from
    the normaliser c(k) = e^k (I0 - I1), tr R = 4X - 1 and
    I_{n-1} - I_{n+1} = (2n/z) I_n, taken as (2/15) exp(L_2 - L_0) from
    one ``log_bessel_gap`` call per n over all k > 0, with ``math.exp``
    of each value; no terms cancel as k -> 0 or overflow as k grows.
    The value, about k^2/15 at small k, is positive for k above about
    5.9e-162, subnormal (with fewer digits) below about 5.8e-154, and
    +0.0 below 5.9e-162, where k^2/15 is under the smallest subnormal.

    The Cayley-LMR form is taken as 2 (k / (k + 2)) ((k - 1) / (k + 3) / 3),
    whose factors are bounded, so no finite k overflows it; it is within
    2 eps relative wherever the value is a normal float, with the exact
    sign, exactly 0 at k = 1 and tending to 2/3, so tau2 tends to 1.
    k = 0 gives +0.0, set apart, as 2 * 0 * (0 - 1) is -0.0.  DomainError
    for Haar at any k > 0.
    """
    family = Family(family)
    k = np.asarray(kappa, dtype=float)
    if not np.all((0.0 <= k) & (k < math.inf)):
        raise DomainError("concentration kappa must be finite and >= 0")
    out = np.zeros(k.shape)
    positive = k > 0.0
    if family is Family.HAAR and positive.any():
        raise DomainError("the Haar family has kappa = 0 by definition")
    if family is Family.FVM:
        kp = k[positive]
        gap = log_bessel_gap(2, kp) - log_bessel_gap(0, kp)
        out[positive] = (2.0 / 15.0) * np.fromiter(map(math.exp, gap.tolist()), float, gap.size)
    else:
        kp = k[positive]
        out[positive] = 2.0 * (kp / (kp + 2.0)) * ((kp - 1.0) / (kp + 3.0) / 3.0)
    return float(out) if out.ndim == 0 else out


def tau2_excess(spec: DistributionSpec) -> float:
    """tau2 - 1/3 of ``spec``: ``tau2_excess_at`` at its family and kappa."""
    return tau2_excess_at(spec.family, spec.kappa)


def tau2(spec: DistributionSpec) -> float:
    """E[Z^2] = 1/3 + ``tau2_excess(spec)``."""
    return 1.0 / 3.0 + tau2_excess(spec)


def tau_k(spec: DistributionSpec, k: int) -> float:
    """E[Z^k], the mean of a Bernstein polynomial in X with nonnegative
    weights.  Rodrigues' formula gives Z = X + (1 - X) W, with W = 2 U^2 - 1
    for the uniform axis component U independent of X, so
    tau_k = 1 - sum_{j=1}^{k} C(k, j) d_j E[X^(k-j) (1 - X)^j] with
    d_j = 1 - E[W^j] in [0, 2].  By parts (2j + 1) E[W^j] + 2j E[W^(j-1)] = 1,
    so d_0 = 0 and d_j = 2j (2 - d_{j-1}) / (2j + 1), which damps rounding."""
    if not 1 <= k <= 20:
        raise DomainError("tau_k is supported for 1 <= k <= 20")
    weights = [0.0]
    d = 0.0
    for j in range(1, k + 1):
        d = 2.0 * j * (2.0 - d) / (2.0 * j + 1.0)
        weights.append(math.comb(k, j) * d)
    return 1.0 - _bernstein_mean(spec, k, weights)


def moment_vector(spec: DistributionSpec, order: int):
    """The pair (rho, tau) of tuples rho_r = E[X^r] and tau_j = E[Z^j] for
    r, j = 0 .. ``order`` in 0..20 (tau via the Bernstein kernel of ``tau_k``)."""
    if not 0 <= order <= 20:
        raise DomainError("moment order must lie in 0..20")
    rho = tuple(rho_moment(spec, r) for r in range(order + 1))
    return rho, (1.0,) + tuple(tau_k(spec, j) for j in range(1, order + 1))


# ---------------------------------------------------------------------------
# Density transforms


def fz_from_fx(spec: DistributionSpec, s: float) -> float:
    """Zonal density of Z at s in (-1, 1), from the angle law:

        f_Z(s) = integral_0^{pi/2} h(u cos^2 phi) dphi,  u = (1 + s)/2,

    the Abel transform (1/2) integral_0^u f_X(x) / sqrt((u - x)(1 - x)) dx
    after x = u cos^2 phi, in closed form for h of ``DistributionSpec.log_h``:
    (kappa + 1) u^kappa for Haar and Cayley-LMR, and c e^(-4 kappa (1 - u))
    (pi/2) e^-z I_0(z) at z = 2 kappa u for Fisher-von Mises (DLMF 10.32.1,
    ``log_i0e``).  Every finite kappa is supported; f_Z >= 0 and (1/2) integral f_Z = 1.
    """
    if not -1.0 < s < 1.0:
        raise DomainError("s must lie in the open interval (-1, 1)")
    u, u_c = 0.5 * (1.0 + s), 0.5 * (1.0 - s)
    log_norm, tilt = spec.log_h
    if spec.beta_p is not None:
        return (spec.kappa + 1.0) * math.exp(tilt(u, u_c))
    return math.exp(log_norm + math.log(0.5 * math.pi) + tilt(u, u_c) + log_i0e(2.0 * spec.kappa * u))


def fx_from_fz(fz, s: float) -> float:
    """Recover the angle density at s in (0, 1) from a zonal density.

    The forward transform is an Abel equation, inverted with the derivative
    moved inside the integral (Gorenflo and Vessella, Abel Integral
    Equations, 1991) so that f_Z is never differentiated; with y_s = 2s - 1

        f_X(s) = (sqrt2/pi) sqrt(1 - s) integral_0^{1 + y_s}
                 (a - (f_Z(y_s - d) - f_Z(y_s)) / d) d^(-1/2) dd,

    where a = f_Z(y_s) / sqrt(2s (1 + y_s)), so a d^(-1/2) integrates to
    sqrt2 f_Z(y_s) / sqrt(s): one ``integrate`` call, whose sin^2
    substitution absorbs the d^(-1/2) end, to rel_tol 1e-9 of an integral of
    |integrand| about the size of the answer, or eps / s where the doubles f_Z is
    read at, eps/2 apart on (-1, y_s) of length 2s, are coarser.  ``fz`` may be
    any callable on (-1, 1) in the zonal normalisation, read only inside it.
    DomainError below s ~ 8.3e-17, where 2s - 1 rounds to -1 or the next double.
    """
    if not 0.0 < s < 1.0:
        raise DomainError("s must lie in the open interval (0, 1)")
    y_s = 2.0 * s - 1.0
    if y_s <= math.nextafter(-1.0, 1.0):
        raise DomainError("s = %r is too small: 2s - 1 rounds to within one double of -1" % s)
    f_s = fz(y_s)
    a = f_s / math.sqrt(2.0 * s * (1.0 + y_s))
    top, bottom = math.nextafter(y_s, -1.0), math.nextafter(-1.0, 1.0)

    def integrand(d: float) -> float:
        # difference quotient of f_Z over the exact y_s - y, y the double nearest y_s - d
        y = min(max(y_s - d, bottom), top)
        return (a - (fz(y) - f_s) / (y_s - y)) / math.sqrt(d)

    tail = integrate(integrand, 0.0, 1.0 + y_s, max(1e-9, _EPS / s))
    return math.sqrt(2.0) / math.pi * math.sqrt(1.0 - s) * tail
