import math

import numpy as np
import pytest

from rotgram import fake_uniformity as fu
from rotgram.errors import DomainError


def cayley_tau2_closed(kappa):
    return (2.0 + kappa + kappa * kappa) / (6.0 + 5.0 * kappa + kappa * kappa)


class TestTau2OfKappa:
    def test_zero_is_uniform(self):
        assert abs(fu.tau2_of_kappa("cayley", 0.0) - 1.0 / 3.0) < 1e-15

    def test_cayley_unit_kappa(self):
        assert abs(fu.tau2_of_kappa("cayley", 1.0) - 1.0 / 3.0) < 1e-12

    def test_cayley_two(self):
        assert abs(fu.tau2_of_kappa("cayley", 2.0) - 0.4) < 1e-12

    def test_matches_closed_form_on_grid(self):
        for kappa in np.arange(0.0, 5.01, 0.25):
            mine = fu.tau2_of_kappa("cayley", float(kappa))
            assert abs(mine - cayley_tau2_closed(kappa)) < 1e-12

    def test_fvm_zero(self):
        assert abs(fu.tau2_of_kappa("fvm", 0.0) - 1.0 / 3.0) < 1e-9

    def test_negative_kappa(self):
        with pytest.raises(DomainError):
            fu.tau2_of_kappa("cayley", -1.0)


class TestScanCurve:
    def test_cayley_endpoints_vanish(self):
        points = fu.scan_curve("cayley", 1.0, 11)
        assert abs(points[0].tau2_minus_third) < 1e-12
        assert abs(points[-1].tau2_minus_third) < 1e-12

    def test_cayley_interior_strictly_negative(self):
        points = fu.scan_curve("cayley", 1.0, 21)
        for p in points[1:-1]:
            assert p.tau2_minus_third < 0.0

    def test_fvm_zero_at_origin(self):
        points = fu.scan_curve("fvm", 1.0, 5)
        assert abs(points[0].tau2_minus_third) < 1e-9

    def test_grid_layout(self):
        points = fu.scan_curve("cayley", 2.0, 5)
        np.testing.assert_allclose([p.kappa for p in points], [0.0, 0.5, 1.0, 1.5, 2.0])
        assert all(math.isfinite(p.tau2_minus_third) for p in points)

    def test_bad_arguments(self):
        with pytest.raises(DomainError):
            fu.scan_curve("cayley", 0.0, 5)
        with pytest.raises(DomainError):
            fu.scan_curve("cayley", 1.0, 1)


class TestFindFakeUniformity:
    def test_cayley_root_at_one(self):
        root = fu.find_fake_uniformity("cayley", 0.1, 5.0, tol=1e-10)
        assert root is not None
        assert abs(root - 1.0) < 1e-8

    def test_single_root_in_window(self):
        points = fu.scan_curve("cayley", 5.0, 201)[1:]
        crossings = sum(
            1 for a, b in zip(points, points[1:])
            if a.tau2_minus_third * b.tau2_minus_third < 0.0
        )
        # kappa = 1 lies on this grid and the closed form is exactly 0
        # there, so the one crossing is that grid point, between
        # neighbours of opposite sign, and no pair of neighbours changes sign.
        zeros = [i for i, p in enumerate(points) if p.tau2_minus_third == 0.0]
        assert crossings == 0 and [points[i].kappa for i in zeros] == [1.0]
        i = zeros[0]
        assert points[i - 1].tau2_minus_third < 0.0 < points[i + 1].tau2_minus_third

    def test_no_spurious_roots_near_zero(self):
        # tau2 - 1/3 is far below the spacing of doubles near 1/3 here
        assert fu.curve_roots("fvm", fu.scan_curve("fvm", 1e-7, 25)[1:]) == []
        assert fu.curve_roots("cayley", fu.scan_curve("cayley", 1e-17, 25)[1:]) == []

    def test_curve_roots_of_a_scan(self):
        roots = fu.curve_roots("cayley", fu.scan_curve("cayley", 5.0, 129)[1:])
        assert len(roots) == 1 and abs(roots[0] - 1.0) < 1e-8
        # a grid point exactly on the root is reported as it is
        assert fu.curve_roots("cayley", fu.scan_curve("cayley", 2.0, 3)[1:]) == [1.0]
        assert fu.curve_roots("fvm", fu.scan_curve("fvm", 5.0, 129)[1:]) == []

    def test_tolerance_finer_than_float_spacing_terminates(self):
        root = fu.find_fake_uniformity("cayley", 0.1, 5.0, tol=1e-300)
        assert abs(root - 1.0) < 1e-12
        with pytest.raises(DomainError):
            fu.find_fake_uniformity("cayley", 0.1, 5.0, tol=0.0)

    def test_fvm_has_no_root(self):
        assert fu.find_fake_uniformity("fvm", 0.1, 5.0, tol=1e-8) is None

    def test_cayley_no_root_beyond_one(self):
        assert fu.find_fake_uniformity("cayley", 1.5, 5.0) is None

    def test_bad_bracket(self):
        with pytest.raises(DomainError):
            fu.find_fake_uniformity("cayley", 1.0, 0.5)


class TestInitialSlope:
    def test_cayley_value(self):
        slope = fu.initial_slope("cayley")
        assert abs(slope - (-1.0 / 9.0)) < 1e-6

    def test_cayley_sign_predicts_fake_uniformity(self):
        assert fu.initial_slope("cayley") < 0.0

    def test_sign_invariant_under_doubling_reparametrisation(self):
        # with kappa~ = 2 kappa the curve is kappa~ -> tau2(kappa~ / 2)
        h = 1e-3
        base = fu.tau2_of_kappa("cayley", 0.0)
        d_full = (fu.tau2_of_kappa("cayley", 0.5 * h) - base) / h
        d_half = (fu.tau2_of_kappa("cayley", 0.25 * h) - base) / (0.5 * h)
        reparam_slope = 2.0 * d_half - d_full
        assert reparam_slope < 0.0
        assert math.copysign(1.0, reparam_slope) == math.copysign(1.0, fu.initial_slope("cayley"))

    def test_step_domain(self):
        with pytest.raises(DomainError):
            fu.initial_slope("cayley", h=1e-2)
        with pytest.raises(DomainError):
            fu.initial_slope("cayley", h=0.0)
