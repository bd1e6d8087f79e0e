"""Exception types shared across the package."""


class DegenerateRotation(ValueError):
    """Rotation is too close to the identity or to a half-turn for the
    axis-angle chart to be well defined."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of the operation."""


class NoConvergence(RuntimeError):
    """Adaptive quadrature exhausted its subdivision budget before its
    target, max(rel_tol, 50 eps) times the integral of |f|; the message
    names the interval, that target, the panel count and the depth
    reached.  Also raised if a Bessel sum does not stop in its table."""
