"""Conjugation-invariant random rotations: zonal density transforms,
projected-Gram inversion, fake-uniformity detection, and the two-class
Bayes classification accuracy, each backed by an independent Monte Carlo
or quadrature cross-check in the test suite."""

from . import classifier, distributions, fake_uniformity, moments, radon, so3
from .errors import DomainError, NoConvergence

__version__ = "0.1.0"

__all__ = [
    "classifier",
    "distributions",
    "fake_uniformity",
    "moments",
    "radon",
    "so3",
    "DomainError",
    "NoConvergence",
    "__version__",
]
