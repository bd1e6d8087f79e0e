"""Fake-uniformity analysis of tau2 as a function of concentration.

A family has the fake uniformity property when some kappa > 0 gives the
same second zonal moment tau2 = 1/3 as the uniform law, so its expected
projected Gram is indistinguishable from Haar's.  Everything here comes
from the closed form ``moments.tau2_excess`` of tau2 - 1/3:

- Cayley-LMR: 2 kappa (kappa - 1) / (3 (kappa + 2)(kappa + 3)), whose one
  root with kappa > 0 is kappa = 1 and whose slope at kappa = 0 is -1/9.
- Fisher-von Mises: (2/15) (I2 - I3) / (I0 - I1) at 2 kappa, positive for
  every kappa > 0 because I_n(z) strictly decreases in n for z > 0, so it
  has no root; it is kappa^2/15 + O(kappa^3), so its slope at 0 is 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .distributions import DistributionSpec, Family
from .errors import DomainError
from .moments import tau2_excess


@dataclass(frozen=True)
class CurvePoint:
    kappa: float
    tau2_minus_third: float


def scan_curve(family, kappa_max: float, n_points: int):
    """tau2(kappa) - 1/3 from ``moments.tau2_excess`` on the uniform grid
    kappa_max * i / (n_points - 1), i = 0 .. n_points - 1.  Where
    kappa_max * i overflows, the grid point is kappa_max * (i / (n_points - 1))."""
    if not 0.0 < kappa_max < math.inf:
        raise DomainError("kappa_max must be positive and finite")
    if n_points < 2:
        raise DomainError("n_points must be >= 2")
    points = []
    for i in range(n_points):
        kappa = kappa_max * i / (n_points - 1)
        if kappa == math.inf:
            kappa = kappa_max * (i / (n_points - 1))
        points.append(CurvePoint(kappa, tau2_excess(DistributionSpec(family, kappa=kappa))))
    return points


def _concentrated(family) -> Family:
    family = Family(family)
    if family is Family.HAAR:
        raise DomainError("the Haar family has kappa = 0 by definition")
    return family


def find_fake_uniformity(family, kappa_lo: float, kappa_hi: float):
    """The root kappa > 0 of tau2(kappa) - 1/3 in [kappa_lo, kappa_hi], or
    None, from ``moments.tau2_excess``: kappa = 1 for Cayley-LMR, none for
    Fisher-von Mises.  kappa = 0 is the uniform law itself, not a root."""
    if not 0.0 <= kappa_lo < kappa_hi < math.inf:
        raise DomainError("need 0 <= kappa_lo < kappa_hi < inf, got [%r, %r]"
                          % (kappa_lo, kappa_hi))
    if _concentrated(family) is Family.CAYLEY and kappa_lo <= 1.0 <= kappa_hi:
        return 1.0
    return None


def initial_slope(family) -> float:
    """d tau2 / d kappa at kappa = 0+, exactly, from ``moments.tau2_excess``:
    -1/9 for Cayley-LMR and 0 for Fisher-von Mises.

    A negative slope means the curve dips below the uniform value 1/3,
    which forces a return crossing (fake uniformity) once tau2 tends to
    1 for large kappa.  The sign is invariant under smooth monotone
    reparametrisations of kappa fixing 0.
    """
    return -1.0 / 9.0 if _concentrated(family) is Family.CAYLEY else 0.0
