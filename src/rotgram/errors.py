"""Exception types shared across the package."""


class DegenerateRotation(ValueError):
    """Rotation is too close to the identity or to a half-turn for the
    axis-angle chart to be well defined."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of the operation."""


class NoConvergence(RuntimeError):
    """Adaptive quadrature exhausted its subdivision budget before
    reaching the requested tolerance; the message names the interval,
    the panel count and the depth reached."""
