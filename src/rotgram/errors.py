"""Exception types shared across the package."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of the operation, such as
    a rotation too close to the identity or to a half-turn for
    ``so3.to_axis_angle``."""


class NoConvergence(RuntimeError):
    """Adaptive quadrature exhausted its subdivision budget before its
    target, max(rel_tol, 50 eps) times the integral of |f|; the message
    names the interval, that target, the panel count and the depth
    reached.  Also raised if a Bessel sum does not stop in its table."""
