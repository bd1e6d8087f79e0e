"""Fake-uniformity analysis of tau2 as a function of concentration.

A family has the fake uniformity property when some kappa > 0 gives the
same second zonal moment tau2 = 1/3 as the uniform law, so its expected
projected Gram is indistinguishable from Haar's.  Everything here comes
from the closed form ``moments.tau2_excess_at`` of tau2 - 1/3:

- Cayley-LMR: 2 kappa (kappa - 1) / (3 (kappa + 2)(kappa + 3)), whose one
  root with kappa > 0 is kappa = 1 and whose slope at kappa = 0 is -1/9.
- Fisher-von Mises: (2/15) (I2 - I3) / (I0 - I1) at 2 kappa, positive for
  every kappa > 0 because I_n(z) strictly decreases in n for z > 0, so it
  has no root; it is kappa^2/15 + O(kappa^3), so its slope at 0 is 0.
  In floating point it is positive from kappa about 5.9e-162 on, and
  underflows to +0.0 below that (subnormal below about 5.8e-154).
"""

from __future__ import annotations

import math

import numpy as np

from .distributions import Family
from .errors import DomainError
from .moments import tau2_excess_at


def scan_curve(family, kappa_max: float, n_points: int) -> np.ndarray:
    """The (n_points, 2) array of rows (kappa, tau2(kappa) - 1/3) on the
    grid kappa_max * i / (n_points - 1), or kappa_max * (i / (n_points - 1))
    where kappa_max * i overflows, from one ``moments.tau2_excess_at`` call
    over the whole grid.  DomainError for Haar, whose kappa is 0."""
    if not 0.0 < kappa_max < math.inf:
        raise DomainError("kappa_max must be positive and finite")
    if n_points < 2:
        raise DomainError("n_points must be >= 2")
    i = np.arange(n_points, dtype=float)
    with np.errstate(over="ignore"):  # the overflowing products take the fallback
        kappa = kappa_max * i / (n_points - 1)
    overflow = kappa == math.inf
    kappa[overflow] = kappa_max * (i[overflow] / (n_points - 1))
    return np.column_stack((kappa, tau2_excess_at(family, kappa)))


def _concentrated(family) -> Family:
    family = Family(family)
    if family is Family.HAAR:
        raise DomainError("the Haar family has kappa = 0 by definition")
    return family


def find_fake_uniformity(family, kappa_max: float):
    """The root kappa > 0 of tau2(kappa) - 1/3 in (0, kappa_max], or None,
    from ``moments.tau2_excess``: kappa = 1 for Cayley-LMR, none for
    Fisher-von Mises.  kappa = 0 is the uniform law itself, not a root."""
    if not 0.0 < kappa_max < math.inf:
        raise DomainError("kappa_max must be positive and finite, got %r" % kappa_max)
    if _concentrated(family) is Family.CAYLEY and kappa_max >= 1.0:
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
