import math
import re
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.integrate
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import fz_closed_cayley, fz_fvm_oracle, g0, g0_coefficients, tau_from_rho, tau_k_g0
from rotgram import classifier as cls
from rotgram import distributions as dist
from rotgram import moments, so3
from rotgram.errors import DomainError, NoConvergence

SQRT2 = math.sqrt(2.0)
LARGEST = 1.7976931348623157e308


def g0_double_sum_oracle(k, x):
    """Closed double-sum form of G0_k, independent of the recursion."""
    pref = 2.0 * SQRT2 * math.factorial(k - 1) / math.gamma(k + 1.5) * (1.0 - x)
    outer = 0.0
    for s in range(k):
        inner = 0.0
        for t in range(k - s):
            inner += (
                (-1.0) ** t
                * math.factorial(t + s) / math.factorial(t)
                * math.gamma(k - t - s + 0.5) / math.factorial(k - t - s - 1)
            )
        outer += (2.0 * x) ** s / math.factorial(s) * inner
    return pref * outer


def g0_direct_integral_oracle(k, x):
    """G_k / sqrt(1-x) by quadrature of the defining integral; the
    substitution t = 2x - 1 + 2(1-x) v^2 makes the integrand polynomial
    so scipy.quad is exact."""
    val, _ = scipy.integrate.quad(
        lambda v: (2.0 * x - 1.0 + 2.0 * (1.0 - x) * v * v) ** (k - 1) * v * v,
        0.0, 1.0, limit=200,
    )
    return 4.0 * SQRT2 * (1.0 - x) * val


def tau_k_mpmath_oracle(spec, k):
    """E[Z^k] at 60 digits from Z = 1 - 2 (1 - X)(1 - U^2), U uniform on
    [0, 1] and independent of X, expanded in powers of (1 - X):
    E[(1 - U^2)^m] = sqrt(pi) m! / (2 Gamma(m + 3/2)); E[(1 - X)^m] is a
    Beta ratio for Haar and Cayley-LMR and a ratio of Kummer functions
    1F1(3/2 + m; 2 + m; -4 kappa) for Fisher-von Mises."""
    with mpmath.workdps(60):
        if spec.family is dist.Family.FVM and spec.kappa > 0.0:
            c = -4 * mpmath.mpf(spec.kappa)

            def one_minus_x(m):
                return (mpmath.beta(0.5, 1.5 + m) * mpmath.hyp1f1(1.5 + m, 2 + m, c)
                        / (mpmath.beta(0.5, 1.5) * mpmath.hyp1f1(1.5, 2, c)))
        else:
            p = mpmath.mpf(spec.kappa) + mpmath.mpf(0.5)

            def one_minus_x(m):
                return mpmath.beta(p, 1.5 + m) / mpmath.beta(p, 1.5)
        total = mpmath.fsum(
            mpmath.binomial(k, m) * (-2) ** m * mpmath.sqrt(mpmath.pi) * mpmath.factorial(m)
            / (2 * mpmath.gamma(m + 1.5)) * one_minus_x(m)
            for m in range(k + 1))
        return float(total)


def cayley_zonal_oracle(kappa, k):
    """E[Z^k] from the exact Cayley-LMR zonal law of ``fz_closed_cayley``:
    Z = 2Y - 1 = 1 - 2(1 - Y) with Y ~ Beta(kappa + 1, 1), so
    E[(1 - Y)^m] = m! / prod_{i=1}^{m} (kappa + 1 + i)."""
    with mpmath.workdps(50):
        kp = mpmath.mpf(kappa)
        total = mpmath.fsum(
            mpmath.binomial(k, m) * (-2) ** m * mpmath.factorial(m)
            / mpmath.fprod(kp + 1 + i for i in range(1, m + 1))
            for m in range(k + 1))
        return float(total)


class TestIntegrate:
    def test_constant(self):
        assert abs(moments.integrate(lambda x: 1.0, 0.0, 1.0) - 1.0) < 1e-12

    def test_inverse_sqrt_singularity(self):
        assert abs(moments.integrate(lambda x: x ** -0.5, 0.0, 1.0) - 2.0) < 1e-9

    def test_density_normalisation(self):
        spec = dist.cayley(2.0)
        total = moments.integrate(lambda x: dist.fx_density(spec, x), 0.0, 1.0)
        assert abs(total - 1.0) < 1e-9

    def test_against_scipy_oracle(self):
        cases = [
            (lambda x: math.sin(7.0 * x) * math.exp(x), 0.0, 1.0),
            (lambda x: 1.0 / math.sqrt((1.2 - x) * (x + 0.1)), -0.1, 1.2),
            (lambda x: x ** 3 - 2.0 * x + 0.25, -2.0, 3.0),
        ]
        for f, a, b in cases:
            ref, _ = scipy.integrate.quad(f, a, b, limit=300)
            assert abs(moments.integrate(f, a, b) - ref) < 1e-9

    def test_empty_interval(self):
        assert moments.integrate(lambda x: 1.0, 2.0, 2.0) == 0.0

    def test_reversed_bounds(self):
        with pytest.raises(ValueError):
            moments.integrate(lambda x: 1.0, 1.0, 0.0)

    def test_non_integrable_raises(self):
        with pytest.raises(NoConvergence, match=r"on \[0, 1\] .* after \d+ panels, depth \d+"):
            moments.integrate(lambda x: 1.0 / x, 0.0, 1.0)

    def test_abs_tol_validation(self):
        # the one setting is rel_tol, relative to integral |f|; 0 asks for the
        # roundoff floor, where an absolute 0 used to be rejected
        assert abs(moments.integrate(lambda x: 1.0, 0.0, 1.0, 0.0) - 1.0) < 1e-15
        for rel_tol in (-1e-10, math.nan):
            with pytest.raises(ValueError):
                moments.integrate(lambda x: 1.0, 0.0, 1.0, rel_tol)

    @pytest.mark.parametrize("f, a, b, clamped", [
        (lambda x: -math.log1p(-x), 0.0, 1.0, math.nextafter(1.0, 0.0)),
        (lambda x: -math.log(x - 1.0), 1.0, 2.0, math.nextafter(1.0, 2.0)),
    ], ids=["upper", "lower"])
    def test_endpoint_is_never_evaluated(self, f, a, b, clamped):
        # sin^2 rounds to the endpoint at some nodes, where f raises; those
        # nodes are moved to the nearest double inside [a, b]
        seen = []
        value = moments.integrate(lambda x: seen.append(x) or f(x), a, b, 0.0)
        assert clamped in seen and a < min(seen) and max(seen) < b
        assert abs(value - 1.0) <= 50.0 * np.finfo(float).eps

    @pytest.mark.parametrize("rel_tol", [0.0, 1e-10, 1e-6])
    def test_no_convergence_names_the_target_missed(self, rel_tol):
        # the target is max(tiny, max(rel_tol, 50 eps) * integral |f|), here
        # with integral |f| >= 1e6; a run to the floor printed the tiny
        # sentinel, "target 2.225e-308", and others the tolerance passed
        with pytest.raises(NoConvergence) as info:
            moments.integrate(lambda x: 1e6 / x, 0.0, 1.0, rel_tol)
        target = float(re.search(r"\(target ([^)]+)\)", str(info.value)).group(1))
        floor = max(rel_tol, 50.0 * np.finfo(float).eps)
        assert 1e6 * floor <= target <= 1e9 * floor, str(info.value)


class TestRhoMoment:
    def test_cayley_zero_first(self):
        assert abs(moments.rho_moment(dist.cayley(0.0), 1) - 0.25) < 1e-15

    def test_cayley_one_second(self):
        assert abs(moments.rho_moment(dist.cayley(1.0), 2) - 5.0 / 16.0) < 1e-15

    def test_zeroth_is_one(self):
        for spec in (dist.haar(), dist.cayley(3.0), dist.fisher_von_mises(2.0)):
            assert moments.rho_moment(spec, 0) == 1.0

    def test_fvm_against_scipy_oracle(self):
        spec = dist.fisher_von_mises(1.0)
        mine = moments.rho_moment(spec, 1)
        ref, _ = scipy.integrate.quad(lambda x: x * dist.fx_density(spec, x), 0.0, 1.0)
        assert abs(mine - ref) < 1e-9

    @pytest.mark.parametrize("kappa", [1e3, 1e6, 1e12])
    def test_fvm_at_huge_kappa_against_mpmath(self, kappa):
        # an x-space quadrature missed the peak within 1/kappa of x = 1:
        # rho_1 read 8.5e-75 at kappa = 1e6
        with mpmath.workdps(60):
            c = -4 * mpmath.mpf(kappa)

            def one_minus_x(m):
                return (mpmath.beta(0.5, 1.5 + m) * mpmath.hyp1f1(1.5 + m, 2 + m, c)
                        / (mpmath.beta(0.5, 1.5) * mpmath.hyp1f1(1.5, 2, c)))

            for r in (1, 2, 5):
                ref = mpmath.fsum(mpmath.binomial(r, m) * (-1) ** m * one_minus_x(m)
                                  for m in range(r + 1))
                assert abs(moments.rho_moment(dist.fisher_von_mises(kappa), r) - float(ref)) < 1e-13

    def test_order_cap(self):
        with pytest.raises(DomainError):
            moments.rho_moment(dist.haar(), 21)

    @pytest.mark.parametrize("kappa", [1e50, 1e100, 1e200, 1e300, 1e308, 1.7976931348623157e308])
    def test_fvm_never_exceeds_one(self, kappa):
        # the rounding of the log-scale normaliser read 1.0000000000000571
        rho = [moments.rho_moment(dist.fisher_von_mises(kappa), r) for r in (1, 2, 20)]
        assert all(0.0 <= v <= 1.0 for v in rho), rho
        assert rho[0] >= rho[1] >= rho[2], rho


class TestTauFromRho:
    def test_haar_values(self):
        tau1, tau2 = tau_from_rho(0.25, 0.125)
        assert abs(tau1) < 1e-15
        assert abs(tau2 - 1.0 / 3.0) < 1e-15

    def test_cayley_one(self):
        tau1, tau2 = tau_from_rho(0.5, 5.0 / 16.0)
        assert abs(tau1 - 1.0 / 3.0) < 1e-15
        assert abs(tau2 - 1.0 / 3.0) < 1e-15

    def test_cayley_two(self):
        _, tau2 = tau_from_rho(5.0 / 8.0, 7.0 / 16.0)
        assert abs(tau2 - 0.4) < 1e-15


class TestG0:
    def test_first_order_closed_form(self):
        for x in np.linspace(-1.0, 1.0, 21):
            assert abs(g0(1, x) - (4.0 * SQRT2 / 3.0) * (1.0 - x)) < 1e-14

    def test_second_order_at_zero(self):
        assert abs(g0(2, 0.0) - 4.0 * SQRT2 / 15.0) < 1e-14

    def test_second_order_closed_form(self):
        for x in np.linspace(-1.0, 1.0, 21):
            expected = 4 * SQRT2 / 15 + (4 * SQRT2 / 5) * x - (16 * SQRT2 / 15) * x * x
            assert abs(g0(2, x) - expected) < 1e-13

    def test_vanishes_at_one(self):
        for k in range(1, 6):
            assert g0(k, 1.0) == 0.0

    def test_against_direct_integral_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            k = int(rng.integers(1, 9))
            x = float(rng.uniform(-0.95, 0.95))
            assert abs(g0(k, x) - g0_direct_integral_oracle(k, x)) < 1e-10

    def test_against_double_sum_oracle(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            k = int(rng.integers(1, 9))
            x = float(rng.uniform(-1.0, 1.0))
            assert abs(g0(k, x) - g0_double_sum_oracle(k, x)) < 1e-10

    def test_leading_coefficient_identity(self):
        # coefficient of rho_k inside tau_k equals k! 2^{k-1} sqrt(pi) / Gamma(k + 3/2)
        for k in range(1, 7):
            coeffs = g0_coefficients(k)
            extracted = -(k / SQRT2) * coeffs[k]
            expected = math.factorial(k) * 2.0 ** (k - 1) * math.sqrt(math.pi) / math.gamma(k + 1.5)
            assert abs(extracted - expected) < 1e-8

    def test_domain(self):
        with pytest.raises(DomainError):
            g0(0, 0.5)
        with pytest.raises(DomainError):
            g0(21, 0.5)
        with pytest.raises(DomainError):
            g0(2, 1.5)


class TestTauK:
    def test_haar_first_vanishes(self):
        assert abs(moments.tau_k(dist.haar(), 1)) < 1e-9

    def test_cayley_one_second(self):
        assert abs(moments.tau_k(dist.cayley(1.0), 2) - 1.0 / 3.0) < 1e-9

    def test_cayley_two_second(self):
        assert abs(moments.tau_k(dist.cayley(2.0), 2) - 0.4) < 1e-9

    @pytest.mark.parametrize("family", [dist.cayley, dist.fisher_von_mises])
    @pytest.mark.parametrize("kappa", [0.0, 0.5, 1.0, 2.0, 5.0])
    def test_bridge_to_moment_route(self, family, kappa):
        spec = family(kappa)
        rho1 = moments.rho_moment(spec, 1)
        rho2 = moments.rho_moment(spec, 2)
        tau1, tau2 = tau_from_rho(rho1, rho2)
        assert abs(moments.tau_k(spec, 1) - tau1) < 1e-9
        assert abs(moments.tau_k(spec, 2) - tau2) < 1e-9

    def test_monte_carlo_bridge(self):
        spec = dist.fisher_von_mises(1.0)
        rng = np.random.default_rng(99)
        R = dist.sample_rotations(spec, 10 ** 6, rng)[0]
        z = R[:, 2, 2]
        for k in (1, 2, 3):
            zk = z ** k
            se = zk.std(ddof=1) / math.sqrt(zk.size)
            assert abs(zk.mean() - moments.tau_k(spec, k)) < 4.0 * se

    def test_order_cap(self):
        with pytest.raises(DomainError):
            moments.tau_k(dist.haar(), 0)
        with pytest.raises(DomainError):
            moments.tau_k(dist.haar(), 21)

    @pytest.mark.parametrize("spec", [
        dist.haar(),
        *[dist.cayley(kappa) for kappa in (0.0, 0.5, 2.0, 50.0, 1e3, 1e6)],
        *[dist.fisher_von_mises(kappa) for kappa in (0.5, 2.0, 20.0, 49.9, 1e3, 1e6, 1e12)],
    ], ids=lambda spec: "%s-%g" % (spec.family.value, spec.kappa))
    def test_matches_mpmath_oracle(self, spec):
        # exact Beta means for Haar and Cayley-LMR; one quadrature for fvm
        tol = 1e-13 if spec.family is dist.Family.FVM else 1e-14
        for k in range(1, 21):
            assert abs(moments.tau_k(spec, k) - tau_k_mpmath_oracle(spec, k)) <= tol, k

    def test_cayley_matches_exact_zonal_law_at_huge_kappa(self):
        # the G0 route missed the f_X peak here: 4.0e-5 off at kappa = 1e6
        for kappa in (1e6, 1e12, 1e300):
            for k in range(1, 21):
                exact = cayley_zonal_oracle(kappa, k)
                assert abs(moments.tau_k(dist.cayley(kappa), k) - exact) <= 1e-14, (kappa, k)

    @pytest.mark.parametrize("spec", [
        dist.haar(),
        *[family(kappa) for family in (dist.cayley, dist.fisher_von_mises)
          for kappa in (0.0, 0.5, 2.0, 20.0)],
    ], ids=lambda spec: "%s-%g" % (spec.family.value, spec.kappa))
    def test_matches_g0_route(self, spec):
        for k in range(1, 9):
            assert abs(moments.tau_k(spec, k) - tau_k_g0(spec, k)) <= 1e-12, k


class TestTau2:
    def test_closed_form_matches_tau_k_oracle(self):
        specs = [dist.haar()]
        for kappa in (0.0, 5e-4, 1e-3, 0.01, 0.1, 1.0, 2.0, 5.0, 10.0, 20.0, 49.9):
            specs += [dist.cayley(kappa), dist.fisher_von_mises(kappa)]
        for spec in specs:
            closed = moments.tau2(spec)
            assert abs(closed - moments.tau_k(spec, 2)) <= 1e-11, (spec.family, spec.kappa)
            if spec.family is dist.Family.FVM and spec.kappa > 0.0:
                assert closed > 1.0 / 3.0, spec.kappa

    def test_excess_has_the_exact_sign(self):
        for kappa in (1e-12, 1e-8, 1e-3):
            assert moments.tau2_excess(dist.fisher_von_mises(kappa)) > 0.0
            assert moments.tau2_excess(dist.cayley(kappa)) < 0.0
        assert moments.tau2_excess(dist.cayley(1.0)) == 0.0
        assert moments.tau2_excess(dist.cayley(1.5)) > 0.0
        assert moments.tau2_excess(dist.haar()) == 0.0

    def test_fvm_excess_underflows_only_below_the_smallest_subnormal(self):
        # the excess is about kappa^2/15, under 5e-324 below kappa ~ 5.9e-162
        for kappa in (5.9e-162, 1e-154, 1e-12):
            assert moments.tau2_excess_at("fvm", kappa) > 0.0, kappa
        for kappa in (5.8e-162, 1e-200):
            excess = moments.tau2_excess_at("fvm", kappa)
            assert excess == 0.0 and math.copysign(1.0, excess) == 1.0, kappa

    def test_zero_concentration_is_positive_zero(self):
        for spec in (dist.haar(), dist.cayley(0.0), dist.fisher_von_mises(0.0)):
            assert math.copysign(1.0, moments.tau2_excess(spec)) == 1.0

    @pytest.mark.parametrize("kappa", [1e200, 1e308, 1.7976931348623157e308])
    def test_huge_cayley_concentration_stays_finite(self, kappa):
        # the excess tends to 2/3, so tau2 tends to 1
        assert abs(moments.tau2_excess(dist.cayley(kappa)) - 2.0 / 3.0) <= 1e-15
        assert abs(moments.tau2(dist.cayley(kappa)) - 1.0) <= 2e-16

    def test_cayley_excess_against_exact_rationals(self):
        # 2k (k - 1) / (3 (k + 2)(k + 3)) in exact rationals: within 2 eps
        # relative wherever it is a normal float, from kappa = 1e-300 to the
        # largest float, both sides of 1 and of 1e150 included, with the
        # exact sign everywhere and +0.0 at kappa = 1
        near = [math.nextafter(c, d) for c in (1.0, 1e150) for d in (0.0, math.inf)]
        kappa = np.concatenate((np.logspace(-300.0, 308.0, 6000),
                                1.0 + np.logspace(-15.0, 0.0, 1000),
                                1.0 - np.logspace(-16.0, -0.5, 1000), near,
                                [1.0, 1e150, 2.0, 3.0, np.finfo(float).max]))
        got = moments.tau2_excess_at("cayley", kappa)
        tiny, eps = Fraction(2) ** -1022, Fraction(2) ** -52
        for k, value in zip(kappa.tolist(), got.tolist()):
            K = Fraction(k)
            exact = 2 * K * (K - 1) / (3 * (K + 2) * (K + 3))
            assert math.copysign(1.0, value) == (-1.0 if exact < 0 else 1.0), k
            if abs(exact) >= tiny:
                assert abs(Fraction(value) - exact) <= 2 * eps * abs(exact), k
            else:
                assert exact == 0 and value == 0.0, k


class TestMomentVector:
    def test_build_and_invariants(self):
        rho, tau = moments.moment_vector(dist.cayley(1.0), 3)
        assert type(rho) is tuple and type(tau) is tuple
        assert len(rho) == len(tau) == 4
        assert rho[0] == tau[0] == 1.0
        assert all(rho[i + 1] <= rho[i] + 1e-12 for i in range(3))
        assert all(abs(t) <= 1.0 + 1e-12 for t in tau)

    @pytest.mark.parametrize("spec", [dist.cayley(1e300), dist.cayley(1e-300),
                                      dist.fisher_von_mises(1e300), dist.fisher_von_mises(1e-300)],
                             ids=["cayley-1e300", "cayley-1e-300", "fvm-1e300", "fvm-1e-300"])
    def test_invariants_at_extreme_kappa(self, spec):
        rho, tau = moments.moment_vector(spec, 20)
        assert rho[0] == tau[0] == 1.0
        assert all(rho[i + 1] <= rho[i] + 1e-12 for i in range(20))
        assert all(abs(t) <= 1.0 + 1e-12 for t in tau)

    @pytest.mark.parametrize("order", [-1, -5, 21])
    def test_rejects_order_outside_range(self, order):
        # order -1 returned rho = () and tau = (1.0,)
        with pytest.raises(DomainError):
            moments.moment_vector(dist.cayley(1.0), order)


class TestFzFromFx:
    def test_cayley_two_at_origin(self):
        assert abs(moments.fz_from_fx(dist.cayley(2.0), 0.0) - 0.75) < 1e-8

    def test_haar_is_flat(self):
        for s in (-0.5, 0.5):
            assert abs(moments.fz_from_fx(dist.haar(), s) - 1.0) < 1e-8

    def test_matches_closed_cayley_grid(self):
        for kappa in (0.0, 1.0, 2.0, 3.0):
            spec = dist.cayley(kappa)
            for s in (-0.9, -0.5, 0.0, 0.5, 0.9):
                closed = fz_closed_cayley(kappa, s)
                assert abs(moments.fz_from_fx(spec, s) - closed) < 1e-8

    @pytest.mark.parametrize("kappa", [1e3, 1e6, 1e12, 1e100, 1e300])
    def test_cayley_near_the_mode_at_huge_kappa(self, kappa):
        # a quadrature in x stalled near the peak from kappa ~ 1e3 and read
        # 3.4e-13 for 606531 at kappa = 1e6.  From kappa ~ 1e16 on, 1 - c /
        # kappa rounds to 1, and at the largest double below 1 f_Z is 0
        for c in (0.1, 1.0, 3.0):
            s = min(1.0 - c / kappa, math.nextafter(1.0, 0.0))
            with mpmath.workdps(50):
                k = mpmath.mpf(kappa)
                ref = float((k + 1) * ((1 + mpmath.mpf(s)) / 2) ** k)
            assert abs(moments.fz_from_fx(dist.cayley(kappa), s) - ref) <= 1e-13 * ref, c

    @pytest.mark.parametrize("kappa", [1e-300, 0.3, 2.0, 20.0, 49.9, 1e3, 1e5])
    def test_fvm_against_bessel_oracle(self, kappa):
        for s in (-0.9, -0.3, 0.0, 0.5, *(1.0 - c / kappa for c in (0.1, 1.0, 3.0) if c < kappa)):
            ref = fz_fvm_oracle(kappa, s)
            assert abs(moments.fz_from_fx(dist.fisher_von_mises(kappa), s) - ref) <= 1e-13 * ref, s

    def test_fvm_zonal_normalisation(self):
        spec = dist.fisher_von_mises(1.0)
        total = 0.5 * moments.integrate(lambda s: moments.fz_from_fx(spec, s), -1.0, 1.0, 1e-8)
        assert abs(total - 1.0) < 1e-7

    def test_nonnegative(self):
        spec = dist.fisher_von_mises(2.0)
        for s in np.linspace(-0.99, 0.99, 15):
            assert moments.fz_from_fx(spec, s) >= 0.0

    @pytest.mark.parametrize("family", ["haar", "cayley", "fvm"])
    def test_finite_and_nonnegative_at_every_kappa(self, family):
        kappas = [0.0] if family == "haar" else [0.0, 5e-324, 1e-300, 1e-8, 0.3, 1.0, 2.0, 20.0,
                                                 1e3, 1e6, 1e16, 1e100, 1e300, 9e307, LARGEST]
        edge = 2.0 ** -53
        grid = [-1.0 + edge, -0.999, -0.9, -0.5, 0.0, 0.5, 0.9, 0.999, 1.0 - 1e-9, 1.0 - edge]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kappa in kappas:
                spec = dist.DistributionSpec(family, kappa=kappa)
                for s in grid:
                    value = moments.fz_from_fx(spec, s)
                    assert math.isfinite(value) and value >= 0.0, (kappa, s)

    @pytest.mark.parametrize("kappa", [9e307, LARGEST])
    def test_fvm_is_zero_where_its_bessel_argument_overflows(self, kappa):
        # 2 kappa, and so z = 2 kappa u, is inf from kappa ~ 8.99e307 and
        # log_i0e(z) is -inf; e^(-4 kappa (1 - u)) has underflowed at every
        # s < 1 there, and f_Z must read 0, not nan
        assert 2.0 * kappa == math.inf
        for s in (-0.5, 0.5, 0.999, 1.0 - 2.0 ** -53):
            assert moments.fz_from_fx(dist.fisher_von_mises(kappa), s) == 0.0, s

    @pytest.mark.parametrize("spec", [dist.haar()] + [family(kappa) for family in (
        dist.cayley, dist.fisher_von_mises) for kappa in (0.5, 2.0, 20.0)],
        ids=lambda spec: "%s-%g" % (spec.family.value, spec.kappa))
    def test_moments_match_tau_k(self, spec):
        # (1/2) integral s^j f_Z(s) ds = E[Z^j]: the closed forms of f_Z
        # against tau_k's Bernstein route in X, which shares nothing with them
        for j in range(1, 5):
            zonal = 0.5 * moments.integrate(lambda s: s ** j * moments.fz_from_fx(spec, s),
                                            -1.0, 1.0, 1e-13)
            assert abs(zonal - moments.tau_k(spec, j)) < 1e-13, j

    def test_domain(self):
        with pytest.raises(DomainError):
            moments.fz_from_fx(dist.haar(), 1.0)


class TestFxFromFz:
    def test_uniform_zonal_gives_haar_value(self):
        value = moments.fx_from_fz(lambda s: 1.0, 0.5)
        assert abs(value - 2.0 / math.pi) < 1e-8

    def test_uniform_zonal_normalises(self):
        total = moments.integrate(
            lambda s: moments.fx_from_fz(lambda t: 1.0, s), 0.0, 1.0, 1e-8
        )
        assert abs(total - 1.0) < 1e-7

    def test_closed_cayley_inverts_exactly(self):
        for kappa in (1.0, 2.0, 3.0):
            spec = dist.cayley(kappa)
            for s in (0.2, 0.5, 0.8):
                value = moments.fx_from_fz(lambda t, k=kappa: fz_closed_cayley(k, t), s)
                assert abs(value - dist.fx_density(spec, s)) < 1e-9

    def test_round_trip_through_numeric_fz(self):
        spec = dist.cayley(1.0)
        for s in (0.2, 0.5, 0.8):
            value = moments.fx_from_fz(lambda t: moments.fz_from_fx(spec, t), s)
            assert abs(value - dist.fx_density(spec, s)) < 1e-6

    def test_domain(self):
        with pytest.raises(DomainError):
            moments.fx_from_fz(lambda t: 1.0, 0.0)

    @pytest.mark.parametrize("kappa, bound", [(0.0, 1e-12), (0.5, 1e-12), (1.0, 1e-12), (3.0, 1e-12),
                                              (10.0, 1e-12), (30.0, 1e-10), (100.0, 1e-10),
                                              (1000.0, 1e-10)])
    def test_closed_cayley_pair_across_kappa(self, kappa, bound):
        # a derivative stencil of fixed width 1e-3 left 3.1e-5 at kappa = 0.5,
        # 5.1e-9 at 10, 7.3e-4 at 100 and 4.4e-2 at 1000; an absolute
        # tolerance of 1e-9 left 1.3e-8 at 30, 2.2e-5 at 100 and 1.1e-3 at 1000
        spec = dist.cayley(kappa)
        for s in (0.2, 0.5, 0.8, 0.95, 0.99):
            ref = dist.fx_density(spec, s)
            if ref > 0.0:
                value = moments.fx_from_fz(lambda t: fz_closed_cayley(kappa, t), s)
                assert abs(value - ref) <= bound * ref, s

    @pytest.mark.parametrize("kappa", [300.0, 1000.0, 1e4])
    def test_near_the_mode_of_a_concentrated_law(self, kappa):
        # f_Z there is 1e2 to 1e5 and f_Z(y_s - d) - f_Z(y_s) carries its
        # rounding; an absolute tolerance of 1e-9 raised NoConvergence or
        # returned values up to 7e-2 off
        spec = dist.cayley(kappa)
        for gap in (c * 10.0 ** -e for e in range(1, 13) for c in (1.0, 3.0)):
            s = 1.0 - gap
            ref = dist.fx_density(spec, s)
            value = moments.fx_from_fz(lambda t: fz_closed_cayley(kappa, t), s)
            assert abs(value - ref) <= 1e-9 * ref, gap

    @pytest.mark.parametrize("kappa", [0.01, 0.1, 0.5, 1.0, 2.0, 3.0, 10.0])
    def test_small_s_to_the_spacing_of_the_doubles(self, kappa):
        # (-1, y_s) holds about 2s / (eps/2) doubles; f_Z ~ (1 + y)^kappa is
        # read at them, so a target below eps / s relative cannot be met (a
        # relative 1e-9 alone raises NoConvergence here from kappa = 1.5)
        spec, eps = dist.cayley(kappa), np.finfo(float).eps
        for s in (1e-13, 3e-12, 1e-11, 1e-10, 1e-9, 1e-8):
            ref = dist.fx_density(spec, s)
            value = moments.fx_from_fz(lambda t: fz_closed_cayley(kappa, t), s)
            assert abs(value - ref) <= max(1e-9, max(1.0, kappa) * eps / s) * ref, s

    @pytest.mark.parametrize("kappa", [0.5, 2.0, 10.0])
    def test_fvm_round_trip(self, kappa):
        spec = dist.fisher_von_mises(kappa)
        for s in (0.2, 0.5, 0.8, 0.95, 0.99):
            ref = dist.fx_density(spec, s)
            value = moments.fx_from_fz(lambda t: moments.fz_from_fx(spec, t), s)
            assert abs(value - ref) <= 1e-10 * ref, s

    @given(s=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           law=st.sampled_from([dist.haar(), dist.cayley(0.5), dist.fisher_von_mises(2.0),
                                0.0, 0.5, 3.0]))
    @example(s=5e-324, law=dist.haar())
    @example(s=2.0 ** -55, law=dist.cayley(0.5))
    @example(s=1e-17, law=dist.fisher_von_mises(2.0))
    @example(s=2.0 ** -53, law=dist.haar())
    @example(s=2.0 ** -53, law=3.0)
    @example(s=1.0 - 2.0 ** -53, law=dist.fisher_von_mises(2.0))
    @example(s=1.0 - 2.0 ** -53, law=0.5)
    def test_reads_fz_only_inside_its_domain(self, s, law):
        # law is a spec read through fz_from_fx, or a Cayley kappa read
        # through the closed pair; an error of strict itself names y, not s
        seen = []

        def strict(y):
            seen.append(y)
            if not -1.0 < y < 1.0:
                raise DomainError("fz read at %r" % y)
            if isinstance(law, float):
                return fz_closed_cayley(law, y)
            return moments.fz_from_fx(law, y)

        try:
            value = moments.fx_from_fz(strict, s)
        except DomainError as err:
            assert repr(s) in str(err)
        else:
            assert math.isfinite(value)
        assert all(-1.0 < y < 1.0 for y in seen)


class TestBetaLawsUseNoQuadrature:
    """Haar and Cayley-LMR, whose X is Beta(kappa + 1/2, 3/2), and every
    zonal density are closed forms: none reaches ``integrate``."""

    def test_no_integrate_call(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("integrate was called")

        monkeypatch.setattr(moments, "integrate", refuse)
        with pytest.raises(AssertionError):  # the patch does catch quadrature
            moments.rho_moment(dist.fisher_von_mises(2.0), 1)
        for spec in (dist.haar(), *(dist.cayley(k) for k in (1e-300, 0.5, 1.0, 2.0, 1e3, 1e300))):
            for s in (-0.5, 0.3, 0.99):
                moments.fz_from_fx(spec, s)
                dist.fx_density(spec, 0.5 * (1.0 + s))
            for k in (1, 2, 5):
                moments.rho_moment(spec, k)
                moments.tau_k(spec, k)
            for alpha in (1e-6, 1.0, 3.0):
                pair = cls.ClassPair(np.eye(3), so3.from_axis_angle(np.array([0.0, 0.0, 1.0]), alpha),
                                     spec)
                cls.psi_closed(pair)
                cls.psi_derivative(pair)
        for kappa in (1e-300, 2.0, 1e3, LARGEST):
            moments.fz_from_fx(dist.fisher_von_mises(kappa), 0.3)
