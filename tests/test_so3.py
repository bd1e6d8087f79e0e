import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (from_axis_angle_batch, planar_block, random_rotation,
                      rotations_from_quaternions, sample_uniform_axes)
from rotgram import so3
from rotgram.errors import DomainError

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])


class TestSkew:
    def test_e1_layout(self):
        expected = np.array([[0, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=float)
        np.testing.assert_array_equal(so3.skew(E1), expected)

    def test_zero_vector(self):
        np.testing.assert_array_equal(so3.skew(np.zeros(3)), np.zeros((3, 3)))

    def test_self_product_vanishes(self):
        a = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(so3.skew(a) @ a, np.zeros(3))

    def test_matches_cross_product(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a, x = rng.normal(size=3), rng.normal(size=3)
            np.testing.assert_allclose(so3.skew(a) @ x, np.cross(a, x), atol=1e-14)

    def test_vee_inverts(self):
        a = np.array([0.3, -1.2, 2.0])
        np.testing.assert_array_equal(so3.vee(so3.skew(a)), a)


class TestFromAxisAngle:
    def test_z_quarter_turn_maps_e1_to_e2(self):
        R = so3.from_axis_angle(E3, math.pi / 2)
        np.testing.assert_allclose(R @ E1, E2, atol=1e-15)

    def test_zero_angle_is_identity(self):
        R = so3.from_axis_angle(np.array([0.6, 0.8, 0.0]), 0.0)
        np.testing.assert_array_equal(R, np.eye(3))

    def test_trace_identity_at_pi_third(self):
        R = so3.from_axis_angle(E3, math.pi / 3)
        assert abs(np.trace(R) - 2.0) < 1e-12  # 1 + 2 cos(pi/3)

    def test_sampled_rotation_invariants(self):
        rng = np.random.default_rng(2)
        for _ in range(2000):
            u = sample_uniform_axes(1, rng)[0]
            t = rng.uniform(0.0, math.pi)
            R = so3.from_axis_angle(u, t)
            assert np.max(np.abs(R.T @ R - np.eye(3))) < 1e-12
            assert abs(np.linalg.det(R) - 1.0) < 1e-12
            assert np.max(np.abs(R @ u - u)) < 1e-12
            assert abs(np.trace(R) - (1.0 + 2.0 * math.cos(t))) < 1e-12
            # law of spherical cosines on the (3,3) entry
            assert abs(R[2, 2] - (u[2] ** 2 + (1.0 - u[2] ** 2) * math.cos(t))) < 1e-12

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        axes = sample_uniform_axes(10, rng)
        angles = rng.uniform(0.0, math.pi, size=10)
        batch = from_axis_angle_batch(axes, angles)
        for i in range(10):
            np.testing.assert_array_equal(batch[i], so3.from_axis_angle(axes[i], angles[i]))


def quaternion_and_oracle(x, axes):
    """R from the quaternion w = sqrt(x), v = sqrt(1 - x) u, and from the
    axis-angle oracle at theta = 2 atan2(sqrt(1 - x), sqrt(x)), which,
    unlike arccos(2x - 1), keeps its digits near theta = pi."""
    x = np.asarray(x, dtype=float)
    w = np.sqrt(x)
    s = np.sqrt(1.0 - x)
    R = rotations_from_quaternions(np.vstack((w, s * axes.T)))
    return R, from_axis_angle_batch(axes, 2.0 * np.arctan2(s, w))


unit_axes = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda a: 1e-3 < math.hypot(*a)).map(lambda a: np.array(a) / math.hypot(*a))


class TestFromQuaternionBatch:
    """Whole rotations of a batch of unit quaternions, assembled from the
    three rows of ``so3.rotation_row``."""

    @given(st.floats(0.0, 1.0), unit_axes)
    def test_matches_axis_angle_oracle(self, x, u):
        R, oracle = quaternion_and_oracle([x], u[None, :])
        assert so3.is_rotation(R[0])
        assert np.max(np.abs(R - oracle)) <= 1e-14

    @pytest.mark.parametrize("x", [0.0, 5e-324, 1e-20, 0.5, 1.0 - 2.0 ** -53, 1.0])
    def test_edge_angles(self, x):
        axes = sample_uniform_axes(64, np.random.default_rng(11))
        R, oracle = quaternion_and_oracle(np.full(64, x), axes)
        assert all(so3.is_rotation(r) for r in R)
        assert np.max(np.abs(R - oracle)) <= 1e-14

    def test_haar_draws(self):
        rng = np.random.default_rng(12)
        x = rng.beta(0.5, 1.5, size=20000)
        R, oracle = quaternion_and_oracle(x, sample_uniform_axes(20000, rng))
        assert np.max(np.abs(R - oracle)) <= 1e-14

    def test_half_turn_layout(self):
        # w = 0: R = -I + 2 u u^T
        R = rotations_from_quaternions(np.r_[0.0, E1][:, None])[0]
        np.testing.assert_array_equal(R, np.diag([1.0, -1.0, -1.0]))


def row_and_oracle(i, w, s, axes):
    """Row i of R from the quaternion w, v = s u through ``rotation_row``,
    and the same row of the axis-angle oracle at theta = 2 atan2(s, w)."""
    q = np.vstack((w, s * axes.T))
    row = so3.rotation_row(q, i, np.empty((3, w.size)), np.empty(w.size))
    return row.T, from_axis_angle_batch(axes, 2.0 * np.arctan2(s, w))[:, i, :]


@pytest.mark.parametrize("i", [0, 1, 2])
class TestRotationRow:
    def test_matches_axis_angle_oracle(self, i):
        rng = np.random.default_rng(13)
        x = rng.uniform(size=5000)
        row, oracle = row_and_oracle(i, np.sqrt(x), np.sqrt(1.0 - x),
                                     sample_uniform_axes(5000, rng))
        assert np.max(np.abs(row - oracle)) <= 1e-14

    def test_half_turns(self, i):
        # w = 0: row i of -I + 2 u u^T
        row, oracle = row_and_oracle(i, np.zeros(64), np.ones(64),
                                     sample_uniform_axes(64, np.random.default_rng(14)))
        assert np.max(np.abs(row - oracle)) <= 1e-14

    def test_near_identity(self, i):
        # |v| = 1e-160: the off-diagonal entries 2 w v keep their relative
        # accuracy although the products v_i v_j underflow
        row, oracle = row_and_oracle(i, np.ones(64), np.full(64, 1e-160),
                                     sample_uniform_axes(64, np.random.default_rng(15)))
        np.testing.assert_allclose(row, oracle, rtol=1e-14, atol=1e-300)


class TestToAxisAngle:
    def test_z_quarter_turn(self):
        out = so3.to_axis_angle(so3.from_axis_angle(E3, math.pi / 2))
        assert type(out) is tuple and len(out) == 2
        axis, angle = out
        assert axis.shape == (3,) and type(angle) is float
        np.testing.assert_allclose(axis, E3, atol=1e-12)
        assert abs(angle - math.pi / 2) < 1e-12

    def test_identity_is_degenerate(self):
        with pytest.raises(DomainError, match="within 1e-09 of 0 or pi"):
            so3.to_axis_angle(np.eye(3))

    def test_half_turn_is_degenerate(self):
        R = so3.from_axis_angle(E1, math.pi - 1e-12)
        with pytest.raises(DomainError, match="within 1e-09 of 0 or pi"):
            so3.to_axis_angle(R)

    def test_rejects_non_rotations(self):
        R = so3.from_axis_angle(np.array([0.6, 0.8, 0.0]), 1.0)
        shear = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        for M in (1.001 * R, shear, R[[1, 0, 2]], np.diag([1.0, 1.0, -1.0])):
            with pytest.raises(ValueError, match="not a rotation"):
                so3.to_axis_angle(M)

    def test_round_trip_random(self):
        rng = np.random.default_rng(4)
        for _ in range(10000):
            u = sample_uniform_axes(1, rng)[0]
            t = rng.uniform(1e-6, math.pi - 1e-6)
            R = so3.from_axis_angle(u, t)
            axis, angle = so3.to_axis_angle(R)
            back = so3.from_axis_angle(axis, angle)
            assert np.max(np.abs(back - R)) < 1e-10

    def test_round_trip_near_degenerate_edges(self):
        rng = np.random.default_rng(5)
        for t in [3e-9, 1e-7, 1e-4, math.pi - 1e-4, math.pi - 1e-7, math.pi - 3e-9]:
            u = sample_uniform_axes(1, rng)[0]
            R = so3.from_axis_angle(u, t)
            axis, angle = so3.to_axis_angle(R)
            rebuilt = so3.from_axis_angle(axis, angle)
            assert np.max(np.abs(rebuilt - R)) < 1e-10

    def test_angle_matches_arccos_of_trace(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            R = random_rotation(rng)
            _, angle = so3.to_axis_angle(R)
            expected = math.acos(min(1.0, max(-1.0, (np.trace(R) - 1.0) / 2.0)))
            assert abs(angle - expected) < 1e-9

    def test_validators(self):
        assert so3.is_rotation(np.eye(3))
        assert not so3.is_rotation(np.eye(3) * 1.001)
        assert not so3.is_rotation(np.diag([1.0, 1.0, -1.0]))
        with pytest.raises(ValueError):
            so3.require_rotation(np.zeros((3, 3)))

    @pytest.mark.parametrize("M", [np.eye(2), np.eye(4), np.ones(3)], ids=["2x2", "4x4", "3"])
    def test_other_shapes_are_not_rotations(self, M):
        assert not so3.is_rotation(M)
        with pytest.raises(ValueError, match="not a rotation"):
            so3.require_rotation(M)


class TestRotationAngleBetween:
    def test_identical_rotations(self):
        R = so3.from_axis_angle(E2, 0.9)
        assert so3.rotation_angle_between(R, R) == 0.0

    def test_z_rotation_angle(self):
        assert abs(so3.rotation_angle_between(np.eye(3), so3.from_axis_angle(E3, 0.7)) - 0.7) < 1e-12

    def test_consistent_with_chart(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            m1, m2 = random_rotation(rng), random_rotation(rng)
            alpha = so3.rotation_angle_between(m1, m2)
            try:
                _, chart = so3.to_axis_angle(m1 @ m2.T)
            except DomainError:
                continue
            assert abs(alpha - chart) < 1e-10

    def test_left_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            m1, m2, q = (random_rotation(rng) for _ in range(3))
            a = so3.rotation_angle_between(m1, m2)
            b = so3.rotation_angle_between(q @ m1, q @ m2)
            assert abs(a - b) < 1e-10

    def test_trace_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            m1, m2 = random_rotation(rng), random_rotation(rng)
            alpha = so3.rotation_angle_between(m1, m2)
            lhs = np.trace(np.eye(3) - m1 @ m2.T)
            assert abs(lhs - 2.0 * (1.0 - math.cos(alpha))) < 1e-12


class TestPlanarBlock:
    def test_quarter_turn_layout(self):
        expected = np.array([[1, 1, 0], [-1, 1, 0], [0, 0, 0]], dtype=float)
        np.testing.assert_allclose(planar_block(math.pi / 2), expected, atol=1e-15)

    def test_small_angle_limit(self):
        assert np.max(np.abs(planar_block(1e-9))) < 1e-8

    def test_trace_value(self):
        # 2 (1 - cos 1)
        assert abs(np.trace(planar_block(1.0)) - 0.91939538826372045) < 1e-15


class TestSampleUniformAxis:
    def test_moments_and_norms(self):
        rng = np.random.default_rng(10)
        axes = sample_uniform_axes(10 ** 6, rng)
        norms = np.linalg.norm(axes, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12
        assert abs(axes[:, 2].mean()) < 4e-3
        assert abs((axes[:, 2] ** 2).mean() - 1.0 / 3.0) < 4e-3

    def test_scalar_form(self):
        rng = np.random.default_rng(11)
        u = sample_uniform_axes(1, rng)[0]
        assert u.shape == (3,)
        assert abs(np.linalg.norm(u) - 1.0) < 1e-12
