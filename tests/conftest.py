"""Shared helpers for the test suite."""

import math

import numpy as np

from rotgram import so3


def random_rotation(rng):
    """A generic rotation away from the chart's degenerate set."""
    axis = so3.sample_uniform_axes(1, rng)[0]
    angle = rng.uniform(0.05, math.pi - 0.05)
    return so3.from_axis_angle(axis, angle)


def from_axis_angle_batch(axes, angles):
    """Oracle for ``so3.from_quaternion_batch``: the vectorised
    axis-angle chart, (n,3) axes and (n,) angles -> (n,3,3)."""
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


def fvm_x_beta_rejection(kappa, n, rng):
    """Oracle for the Fisher-von Mises ``sample_x_values`` at kappa > 0:
    rejection from the Beta(1/2, 3/2) law, accepting with probability
    exp(4 kappa (x - 1)).  Exact, but its acceptance falls like
    kappa^-3/2, so it is only usable for small kappa."""
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
