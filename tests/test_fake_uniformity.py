import math
import warnings

import numpy as np
import pytest

from conftest import same_bits, scan_curve_loop, tau2_excess_loop, tau2_of_kappa
from rotgram import distributions as dist
from rotgram import fake_uniformity as fu
from rotgram import moments
from rotgram.errors import DomainError


def cayley_tau2_closed(kappa):
    return (2.0 + kappa + kappa * kappa) / (6.0 + 5.0 * kappa + kappa * kappa)


def excess(family, kappa):
    return moments.tau2_excess(dist.DistributionSpec(family, kappa=kappa))


class TestTau2OfKappa:
    def test_zero_is_uniform(self):
        assert abs(tau2_of_kappa("cayley", 0.0) - 1.0 / 3.0) < 1e-15

    def test_cayley_unit_kappa(self):
        assert abs(tau2_of_kappa("cayley", 1.0) - 1.0 / 3.0) < 1e-12

    def test_cayley_two(self):
        assert abs(tau2_of_kappa("cayley", 2.0) - 0.4) < 1e-12

    def test_matches_closed_form_on_grid(self):
        for kappa in np.arange(0.0, 5.01, 0.25):
            mine = tau2_of_kappa("cayley", float(kappa))
            assert abs(mine - cayley_tau2_closed(kappa)) < 1e-12

    def test_fvm_zero(self):
        assert abs(tau2_of_kappa("fvm", 0.0) - 1.0 / 3.0) < 1e-9

    def test_negative_kappa(self):
        with pytest.raises(DomainError):
            tau2_of_kappa("cayley", -1.0)


class TestScanCurve:
    def test_cayley_endpoints_vanish(self):
        points = fu.scan_curve("cayley", 1.0, 11)
        assert abs(points[0, 1]) < 1e-12
        assert abs(points[-1, 1]) < 1e-12

    def test_cayley_interior_strictly_negative(self):
        points = fu.scan_curve("cayley", 1.0, 21)
        for p in points[1:-1]:
            assert p[1] < 0.0

    def test_fvm_zero_at_origin(self):
        points = fu.scan_curve("fvm", 1.0, 5)
        assert abs(points[0, 1]) < 1e-9

    def test_grid_layout(self):
        points = fu.scan_curve("cayley", 2.0, 5)
        np.testing.assert_allclose(points[:, 0], [0.0, 0.5, 1.0, 1.5, 2.0])
        assert all(math.isfinite(p[1]) for p in points)

    def test_non_finite_kappa_max(self):
        for kappa_max in (math.nan, math.inf):
            with pytest.raises(DomainError):
                fu.scan_curve("cayley", kappa_max, 5)

    def test_bad_arguments(self):
        with pytest.raises(DomainError):
            fu.scan_curve("cayley", 0.0, 5)
        with pytest.raises(DomainError):
            fu.scan_curve("cayley", 1.0, 1)


    @pytest.mark.parametrize("family", ["cayley", "fvm"])
    @pytest.mark.parametrize("kappa_max, n_points", [
        (10.0, 201), (1.7976931348623157e308, 7), (1e-107, 3), (1.0, 101), (5.0, 257)])
    def test_is_the_per_point_scan(self, family, kappa_max, n_points):
        # the largest kappa_max takes the overflow fallback, and the
        # Cayley-LMR form is divided through by k^2 above
        # CAYLEY_SCALED_KAPPA: neither may warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            points = fu.scan_curve(family, kappa_max, n_points)
        assert same_bits(points, scan_curve_loop(family, kappa_max, n_points))
        assert same_bits(points[:, 1], [tau2_excess_loop(family, k) for k in points[:, 0].tolist()])

    def test_haar_rejected(self):
        with pytest.raises(DomainError):
            fu.scan_curve("haar", 1.0, 5)

    def test_excess_of_an_array(self):
        kappa = np.array([[0.0, 1.0, 1e200], [3.0, 0.5, 20.0]])
        for family in ("cayley", "fvm"):
            out = moments.tau2_excess_at(family, kappa)
            assert same_bits(out, [[tau2_excess_loop(family, k) for k in row]
                                   for row in kappa.tolist()])
            assert type(moments.tau2_excess_at(family, 2.0)) is float
        assert same_bits(moments.tau2_excess_at("haar", np.zeros(3)), np.zeros(3))
        for bad in ([-1.0], [math.nan], [math.inf]):
            with pytest.raises(DomainError):
                moments.tau2_excess_at("fvm", np.array(bad))
        with pytest.raises(DomainError):
            moments.tau2_excess_at("haar", np.array([0.0, 1.0]))


class TestFindFakeUniformity:
    def test_cayley_root_at_one(self):
        root = fu.find_fake_uniformity("cayley", 0.1, 5.0)
        assert root == 1.0

    def test_single_root_in_window(self):
        points = fu.scan_curve("cayley", 5.0, 201)[1:]
        crossings = sum(
            1 for a, b in zip(points, points[1:])
            if a[1] * b[1] < 0.0
        )
        # kappa = 1 lies on this grid and the closed form is exactly 0
        # there, so the one crossing is that grid point, between
        # neighbours of opposite sign, and no pair of neighbours changes sign.
        zeros = [i for i, p in enumerate(points) if p[1] == 0.0]
        assert crossings == 0 and [points[i, 0] for i in zeros] == [1.0]
        i = zeros[0]
        assert points[i - 1, 1] < 0.0 < points[i + 1, 1]

    def test_no_spurious_roots_near_zero(self):
        # tau2 - 1/3 is far below the spacing of doubles near 1/3 here
        assert fu.find_fake_uniformity("fvm", 0.0, 1e-7) is None
        assert fu.find_fake_uniformity("cayley", 0.0, 1e-17) is None

    def test_curve_roots_of_a_scan(self):
        root = fu.find_fake_uniformity("cayley", 0.0, 5.0)
        assert root is not None and abs(root - 1.0) < 1e-8
        assert fu.find_fake_uniformity("cayley", 0.0, 2.0) == 1.0
        assert fu.find_fake_uniformity("fvm", 0.0, 5.0) is None

    def test_fvm_has_no_root(self):
        assert fu.find_fake_uniformity("fvm", 0.1, 5.0) is None

    def test_cayley_no_root_beyond_one(self):
        assert fu.find_fake_uniformity("cayley", 1.5, 5.0) is None

    def test_bad_bracket(self):
        with pytest.raises(DomainError):
            fu.find_fake_uniformity("cayley", 1.0, 0.5)

    def test_domain(self):
        assert fu.find_fake_uniformity("cayley", 0.0, 1.0) == 1.0
        assert fu.find_fake_uniformity("cayley", 1.0, 1.5) == 1.0
        for lo, hi in ((-1.0, 2.0), (1.0, 1.0), (math.nan, 2.0), (0.5, math.nan),
                       (0.0, math.inf)):
            with pytest.raises(DomainError):
                fu.find_fake_uniformity("cayley", lo, hi)
        with pytest.raises(DomainError):
            fu.find_fake_uniformity("haar", 0.0, 2.0)
        with pytest.raises(ValueError):
            fu.find_fake_uniformity("nosuch", 0.0, 2.0)

    def test_root_is_the_closed_form_zero(self):
        # the excess is exactly 0 at kappa = 1 and changes sign there;
        # fvm stays positive (I_n strictly decreasing in n)
        assert excess("cayley", 1.0) == 0.0
        assert excess("cayley", math.nextafter(1.0, 0.0)) < 0.0
        assert excess("cayley", math.nextafter(1.0, 2.0)) > 0.0
        assert all(excess("cayley", k) < 0.0 for k in np.linspace(0.01, 0.99, 50))
        assert all(excess("cayley", k) > 0.0 for k in np.linspace(1.01, 49.0, 50))
        assert all(excess("fvm", k) > 0.0 for k in np.geomspace(1e-12, 49.0, 60))


class TestInitialSlope:
    def test_cayley_value(self):
        slope = fu.initial_slope("cayley")
        assert abs(slope - (-1.0 / 9.0)) < 1e-6

    def test_cayley_sign_predicts_fake_uniformity(self):
        assert fu.initial_slope("cayley") < 0.0

    def test_sign_invariant_under_doubling_reparametrisation(self):
        # with kappa~ = 2 kappa the curve is kappa~ -> tau2(kappa~ / 2)
        h = 1e-3
        base = tau2_of_kappa("cayley", 0.0)
        d_full = (tau2_of_kappa("cayley", 0.5 * h) - base) / h
        d_half = (tau2_of_kappa("cayley", 0.25 * h) - base) / (0.5 * h)
        reparam_slope = 2.0 * d_half - d_full
        assert reparam_slope < 0.0
        assert math.copysign(1.0, reparam_slope) == math.copysign(1.0, fu.initial_slope("cayley"))

    @pytest.mark.parametrize("family", ["cayley", "fvm"])
    def test_is_the_closed_form_derivative(self, family):
        # excess(kappa) / kappa tends to the slope with an O(kappa) error
        slope = fu.initial_slope(family)
        for kappa in (1e-3, 1e-5, 1e-8):
            assert abs(excess(family, kappa) / kappa - slope) < kappa
        if family == "cayley":
            assert slope == -1.0 / 9.0

    def test_haar_rejected(self):
        with pytest.raises(DomainError):
            fu.initial_slope("haar")

    def test_fvm_value(self):
        # tau2 - 1/3 = kappa^2/15 + O(kappa^3): flat at kappa = 0, no dip
        assert fu.initial_slope("fvm") == 0.0
