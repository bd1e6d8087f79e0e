"""Deterministic SO(3) algebra: the axis-angle chart, the rows of the
rotations of unit quaternions, skew operator and angles between rotations.

Conventions:
- Rotations are plain 3x3 numpy arrays acting on column vectors, with
  R^T R = I and det R = +1 (within ``ROTATION_TOL``).
- The axis-angle chart is R = cos(t) I + sin(t) S(u) + (1 - cos(t)) u u^T
  with unit axis u and angle t in [0, pi).  Its inverse ``to_axis_angle``
  returns the plain pair (u, t) and raises DomainError at the identity and
  at half-turns (t within ``DEGENERATE_ANGLE`` of 0 or pi).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

ROTATION_TOL = 1e-12
DEGENERATE_ANGLE = 1e-9

_EYE3 = np.eye(3)


def skew(a) -> np.ndarray:
    """Skew-symmetric matrix S(a) with S(a) @ x = a x x (cross product)."""
    a = np.asarray(a, dtype=float)
    return np.array([
        [0.0, -a[2], a[1]],
        [a[2], 0.0, -a[0]],
        [-a[1], a[0], 0.0],
    ])


def vee(W) -> np.ndarray:
    """Inverse of ``skew`` on antisymmetric matrices."""
    W = np.asarray(W, dtype=float)
    return np.array([W[2, 1], W[0, 2], W[1, 0]])


def is_rotation(R) -> bool:
    """True when R^T R = I entrywise and det R = 1 within ``ROTATION_TOL``."""
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3):
        return False
    if not np.all(np.abs(R.T @ R - _EYE3) <= ROTATION_TOL):
        return False
    return abs(np.linalg.det(R) - 1.0) <= ROTATION_TOL


def require_rotation(R) -> np.ndarray:
    R = np.asarray(R, dtype=float)
    if not is_rotation(R):
        raise ValueError("matrix is not a rotation within tolerance %g" % ROTATION_TOL)
    return R


def from_axis_angle(axis, angle: float) -> np.ndarray:
    """Rotation about the unit vector ``axis`` by ``angle`` radians."""
    u = np.asarray(axis, dtype=float)
    c = math.cos(angle)
    s = math.sin(angle)
    return c * _EYE3 + s * skew(u) + (1.0 - c) * np.outer(u, u)


def rotation_row(q: np.ndarray, i: int, out: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """Row i of the rotations of the unit quaternions (w, v) in the
    columns of the (4, m) array q, written to the (3, m) array out and
    returned; w2 is a length-m scratch array.  The rotation is
    R = (2 w^2 - 1) I + 2 v v^T + 2 w S(v): with w = cos(t/2) and
    v = sin(t/2) u it is the axis-angle chart at angle t, but it needs no
    trigonometry, and it stays accurate near t = pi, where w is small.
    With (i, j, k) a cyclic order of (0, 1, 2):

        R_ii = (2w w - 1) + (2v_i) v_i,
        R_ij = (2v_j) v_i - (2w) v_k,
        R_ik = (2v_k) v_i + (2w) v_j.
    """
    w, v = q[0], q[1:]
    j, k = (i + 1) % 3, (i + 2) % 3
    np.multiply(w, 2.0, out=w2)
    np.multiply(w2, v[k], out=out[i])  # out[i] holds 2w v_k, then 2w v_j
    np.multiply(v[j], 2.0, out=out[j])
    out[j] *= v[i]
    out[j] -= out[i]
    np.multiply(w2, v[j], out=out[i])
    np.multiply(v[k], 2.0, out=out[k])
    out[k] *= v[i]
    out[k] += out[i]
    np.multiply(w2, w, out=out[i])
    out[i] -= 1.0
    np.multiply(v[i], 2.0, out=w2)  # w2 now holds 2v_i v_i
    w2 *= v[i]
    out[i] += w2
    return out


def _angle_parts(D: np.ndarray):
    """(v, c, t) for a rotation D: v = vee((D - D^T)/2) = sin(t) u,
    c = (tr D - 1)/2 = cos(t) and its angle t = atan2(|v|, c) in [0, pi],
    accurate over the whole range, near 0 and pi too."""
    v = vee((D - D.T) / 2.0)
    c = (float(np.trace(D)) - 1.0) / 2.0
    return v, c, math.atan2(float(np.linalg.norm(v)), c)


def to_axis_angle(R):
    """Invert the axis-angle chart: the pair (axis, angle) of the
    rotation R, a unit 3-vector and an angle in (0, pi).

    Raises ValueError when R is not a rotation (``require_rotation``) and
    DomainError when its angle is within ``DEGENERATE_ANGLE`` of 0 or pi,
    where the chart is not defined.  The axis is taken from the skew part
    away from pi and from the symmetric part near pi, where the skew part
    degenerates.
    """
    R = require_rotation(R)
    s_vec, c, angle = _angle_parts(R)
    if angle < DEGENERATE_ANGLE or angle > math.pi - DEGENERATE_ANGLE:
        raise DomainError(
            "rotation angle %.3e is within %.0e of 0 or pi" % (angle, DEGENERATE_ANGLE)
        )
    if angle <= 0.75 * math.pi:
        axis = s_vec / np.linalg.norm(s_vec)
    else:
        # Near pi the skew part is O(pi - angle); the symmetric part gives
        # u u^T with condition number O(1).
        B = ((R + R.T) / 2.0 - c * _EYE3) / (1.0 - c)
        j = int(np.argmax(np.diag(B)))
        axis = B[:, j] / math.sqrt(B[j, j])
        axis = axis / np.linalg.norm(axis)
        i = int(np.argmax(np.abs(s_vec)))
        if axis[i] * s_vec[i] < 0.0:
            axis = -axis
    return axis, angle


def rotation_angle_between(m1, m2) -> float:
    """Riemannian distance on SO(3): the rotation angle of M1 M2^T, in [0, pi],
    from ``_angle_parts``; it agrees with arccos((tr(M1 M2^T) - 1)/2)."""
    return _angle_parts(np.asarray(m1, dtype=float) @ np.asarray(m2, dtype=float).T)[2]
