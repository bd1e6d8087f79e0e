"""Fake-uniformity analysis of tau2 as a function of concentration.

A family has the fake uniformity property when some kappa > 0 gives the
same second zonal moment tau2 = 1/3 as the uniform law, so its expected
projected Gram cannot be told apart from Haar's.  The Cayley-LMR family
crosses at kappa = 1; Fisher-von Mises does not cross at all, its tau2
exceeding 1/3 for every kappa > 0.  The curve tau2 - 1/3 comes from the
closed form ``moments.tau2_excess``, whose sign is exact, and
``curve_roots`` finds the crossings of a scanned curve.
"""

from __future__ import annotations

from dataclasses import dataclass

from .distributions import DistributionSpec
from .errors import DomainError
from .moments import tau2, tau2_excess

SCAN_POINTS = 64


@dataclass(frozen=True)
class CurvePoint:
    kappa: float
    tau2_minus_third: float


def tau2_of_kappa(family, kappa: float) -> float:
    """tau2 for the centred family at concentration kappa, from the
    closed form ``moments.tau2``."""
    return tau2(DistributionSpec(family, kappa=kappa))


def _excess(family, kappa: float) -> float:
    return tau2_excess(DistributionSpec(family, kappa=kappa))


def _scan(family, kappa_lo: float, kappa_hi: float, n_points: int) -> list:
    points = []
    for i in range(n_points):
        kappa = kappa_lo + (kappa_hi - kappa_lo) * i / (n_points - 1)
        points.append(CurvePoint(kappa, _excess(family, kappa)))
    return points


def scan_curve(family, kappa_max: float, n_points: int):
    """tau2(kappa) - 1/3 on a uniform grid over [0, kappa_max]."""
    if kappa_max <= 0.0:
        raise DomainError("kappa_max must be positive")
    if n_points < 2:
        raise DomainError("n_points must be >= 2")
    return _scan(family, 0.0, kappa_max, n_points)


def curve_roots(family, points, tol: float = 1e-10) -> list:
    """Every root of tau2(kappa) - 1/3 that a scanned curve shows, in
    increasing kappa: each point where the curve is exactly 0, and each
    sign change between neighbouring points, bisected to ``tol`` in
    kappa (or to adjacent floats, if ``tol`` is finer than that)."""
    if not tol > 0.0:
        raise DomainError("tol must be positive")
    roots = []
    for left, right in zip(points, points[1:]):
        if left.tau2_minus_third == 0.0:
            roots.append(left.kappa)
        elif left.tau2_minus_third * right.tau2_minus_third < 0.0:
            roots.append(_bisect(family, left, right, tol))
    if points and points[-1].tau2_minus_third == 0.0:
        roots.append(points[-1].kappa)
    return roots


def _bisect(family, left: CurvePoint, right: CurvePoint, tol: float) -> float:
    lo, hi, glo = left.kappa, right.kappa, left.tau2_minus_third
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        gm = _excess(family, mid)
        if gm == 0.0:
            return mid
        if glo * gm < 0.0:
            hi = mid
        else:
            lo, glo = mid, gm
    return 0.5 * (lo + hi)


def find_fake_uniformity(family, kappa_lo: float, kappa_hi: float, tol: float = 1e-10):
    """First root of tau2(kappa) - 1/3 in [kappa_lo, kappa_hi], or None:
    ``curve_roots`` over a 64-point scan of the interval."""
    if not 0.0 < kappa_lo < kappa_hi:
        raise DomainError("need 0 < kappa_lo < kappa_hi")
    roots = curve_roots(family, _scan(family, kappa_lo, kappa_hi, SCAN_POINTS), tol)
    return roots[0] if roots else None


def initial_slope(family, h: float = 1e-3) -> float:
    """One-sided derivative of tau2(kappa) at kappa = 0+, Richardson
    extrapolated over steps h and h/2.

    A negative slope means the curve dips below the uniform value 1/3,
    which forces a return crossing (fake uniformity) once tau2 tends to
    1 for large kappa.  The sign is invariant under smooth monotone
    reparametrisations of kappa fixing 0.
    """
    if not 0.0 < h <= 1e-3:
        raise DomainError("h must lie in (0, 1e-3]")
    base = tau2_of_kappa(family, 0.0)
    d_full = (tau2_of_kappa(family, h) - base) / h
    d_half = (tau2_of_kappa(family, 0.5 * h) - base) / (0.5 * h)
    return 2.0 * d_half - d_full
