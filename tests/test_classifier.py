import functools
import math

import mpmath
import numpy as np
import pytest

from conftest import (RecordingGenerator, planar_block, quad_coeffs, random_rotation,
                      rotations_from_quaternions, same_bits, sample_uniform_axes,
                      two_class_accuracy)
from rotgram import classifier as cls
from rotgram import distributions as dist
from rotgram import moments, radon, so3
from rotgram.errors import DomainError

E3 = np.array([0.0, 0.0, 1.0])


def z_pair(alpha, common):
    return cls.ClassPair(np.eye(3), so3.from_axis_angle(E3, alpha), common)


def spectral_rotation(m1, m2):
    """Q with Q^T A(alpha) Q = I - M1 M2^T: any rotation taking the axis
    of M1 M2^T to e3."""
    u, _ = so3.to_axis_angle(m1 @ m2.T)
    cross = np.cross(u, E3)
    norm = np.linalg.norm(cross)
    if norm < 1e-12:
        return np.eye(3) if u[2] > 0 else so3.from_axis_angle(np.array([1.0, 0, 0]), math.pi / 2) @ so3.from_axis_angle(np.array([1.0, 0, 0]), math.pi / 2)
    return so3.from_axis_angle(cross / norm, math.acos(np.clip(u @ E3, -1.0, 1.0)))


def bayes_assign(P, pair):
    """Oracle for the batch rule in ``mc_accuracy``: the Bayes-optimal
    class of one observed rotation; ties (statistic within TIE_TOL of
    zero) go to class 1 for reproducibility."""
    P = np.asarray(P, dtype=float)
    contrast = np.eye(3) - pair.m1 @ pair.m2.T
    stat = float(np.trace(P @ pair.m1.T @ contrast))
    return 1 if (stat > 0.0 or abs(stat) < cls.TIE_TOL) else 2


def one_einsum_accuracy(pair, n, rng):
    """Oracle for ``mc_accuracy``: the same class-1 draws, chunk by chunk,
    chunk i from the i-th spawned child of ``rng``, drawn as rotation
    matrices by ``sample_rotations``.  The statistic tr(R (I - M1 M2^T))
    comes from one full-matrix einsum, and class 1 is assigned when it is
    positive or within TIE_TOL of 0."""
    contrast = np.eye(3) - pair.m1 @ pair.m2.T
    hits = 0
    starts = range(0, n, dist.MC_CHUNK)
    for start, child in zip(starts, rng.spawn(len(starts))):
        R = dist.sample_rotations(pair.common, min(dist.MC_CHUNK, n - start), child)[0]
        stat = np.einsum("nij,ji->n", R, contrast)
        hits += np.count_nonzero((stat > 0.0) | (np.abs(stat) < cls.TIE_TOL))
    return hits / n


def psi_theta_form(pair):
    """Oracle for ``psi_closed``: the same accuracy through the
    rotation-angle law, as region probabilities of Theta plus
    cot(Theta/2) partial expectations, integrated in the angle variable."""
    alpha = pair.alpha
    spec = pair.common

    def f_theta(theta):
        x = 0.5 * (1.0 + math.cos(theta))
        if x >= 1.0:
            x = math.nextafter(1.0, 0.0)
        elif x <= 0.0:
            x = math.nextafter(0.0, 1.0)
        return 0.5 * dist.fx_density(spec, x) * math.sin(theta)

    def cot_weighted(theta):
        return f_theta(theta) / math.tan(0.5 * theta)

    p_low = moments.integrate(f_theta, 0.0, 0.5 * alpha)
    p_mid = moments.integrate(f_theta, 0.5 * alpha, math.pi - 0.5 * alpha)
    e_mid = moments.integrate(cot_weighted, 0.5 * alpha, math.pi - 0.5 * alpha)
    e_tail = moments.integrate(cot_weighted, math.pi - 0.5 * alpha, math.pi)
    return (
        p_low
        + 0.5 * p_mid
        + 0.5 * math.tan(0.25 * alpha) * e_mid
        + e_tail / math.sin(0.5 * alpha)
    )


class TestClassPair:
    def test_alpha_is_recomputed(self):
        pair = z_pair(1.0, dist.haar())
        assert abs(pair.alpha - 1.0) < 1e-12

    def test_alpha_is_not_an_argument(self):
        # alpha is derived from m1 and m2, never taken as input
        with pytest.raises(TypeError):
            cls.ClassPair(np.eye(3), so3.from_axis_angle(E3, 1.0), dist.haar(), 0.3)
        with pytest.raises(TypeError):
            cls.ClassPair(np.eye(3), so3.from_axis_angle(E3, 1.0), dist.haar(), alpha=0.3)

    def test_rejects_offcentre_common_law(self):
        M = so3.from_axis_angle(E3, 0.4)
        with pytest.raises(DomainError):
            cls.ClassPair(np.eye(3), so3.from_axis_angle(E3, 1.0), dist.cayley(1.0, modal=M))

    def test_rejects_coincident_modals(self):
        with pytest.raises(DomainError):
            cls.ClassPair(np.eye(3), np.eye(3), dist.haar())

    def test_rejects_half_turn_separation(self):
        with pytest.raises(DomainError):
            cls.ClassPair(np.eye(3), np.diag([-1.0, -1.0, 1.0]), dist.haar())

    def test_keeps_copies_of_the_callers_matrices(self):
        m1, m2 = np.eye(3), so3.from_axis_angle(E3, 1.0)
        pair = cls.ClassPair(m1, m2, dist.cayley(2.0))
        assert not pair.m1.flags.writeable and not pair.m2.flags.writeable
        m1[0, 0] = m2[0, 0] = 5.0  # the caller's arrays stay writeable
        np.testing.assert_array_equal(pair.m1, np.eye(3))
        np.testing.assert_array_equal(pair.m2, so3.from_axis_angle(E3, 1.0))
        assert abs(pair.alpha - 1.0) < 1e-12


def closed_parts(spec, alpha):
    """(lo, w, P(X > lo), P(X > hi), H(lo, hi), H(0, lo)) of ``psi_closed``."""
    lo, hi, w, h_mid, h_low = cls._h_integrals(spec, alpha)
    return lo, w, cls._tail(spec, lo, hi), cls._tail(spec, hi, lo), h_mid, h_low


class TestHFunction:
    """The tails P(X > t) and the integrals H(a, b) of h = sqrt(x/(1-x)) f_X."""

    @pytest.mark.parametrize("kappa", [0.0, 1.0, 2.0])
    def test_normalisation_invariant(self, kappa):
        # P(X > lo) + integral_0^lo f_X = 1 and P(X > hi) = integral_hi^1 f_X,
        # to integrate's default rel_tol: at alpha = 1e-3 the second integral
        # spans 6.25e-8, 1 - x rounds there in steps of 1.1e-16, and the error
        # estimate stalls near 1.5e-10 of it, so rel_tol 1e-12 cannot be met
        spec = dist.cayley(kappa)
        fx = functools.partial(dist.fx_density, spec)
        for alpha in (1e-3, 0.5, 2.0, 3.0):
            lo, _, tail_lo, tail_hi, _, _ = closed_parts(spec, alpha)
            hi = math.cos(0.25 * alpha) ** 2
            assert abs(tail_lo + moments.integrate(fx, 0.0, lo) - 1.0) < 1e-13
            assert abs(tail_hi - moments.integrate(fx, hi, 1.0)) < 1e-13

    def test_cayley_closed_form(self):
        kappa = 2.0
        B = math.gamma(kappa + 0.5) * math.gamma(1.5) / math.gamma(kappa + 2.0)
        for alpha in np.linspace(0.05, 3.0, 9):
            lo, _, _, _, h_mid, h_low = closed_parts(dist.cayley(kappa), alpha)
            hi = math.cos(0.25 * alpha) ** 2
            assert abs(h_mid - (hi ** 3 - lo ** 3) / (3.0 * B)) < 1e-12
            assert abs(h_low - lo ** 3 / (3.0 * B)) < 1e-12

    def test_haar_is_constant(self):
        # h = 2/pi, so H is 2/pi times the interval length, and w = hi - lo
        for alpha in (0.1, 1.0, 2.5):
            lo, w, _, _, h_mid, h_low = closed_parts(dist.haar(), alpha)
            assert abs(h_mid - 2.0 / math.pi * w) < 1e-14
            assert abs(h_low - 2.0 / math.pi * lo) < 1e-14

    def test_nonnegative(self):
        # and H equals the quadrature of h = c e^(-4 kappa (1 - x)) for fvm
        spec = dist.fisher_von_mises(1.5)
        fx = functools.partial(dist.fx_density, spec)

        def h(x):
            return math.sqrt(x / (1.0 - x)) * fx(x)

        for alpha in np.linspace(0.05, 3.0, 20):
            lo, w, tail_lo, tail_hi, h_mid, h_low = closed_parts(spec, alpha)
            assert min(tail_lo, tail_hi, h_mid, h_low) >= 0.0
            assert abs(h_mid - moments.integrate(h, lo, lo + w)) < 1e-12
            assert abs(h_low - moments.integrate(h, 0.0, lo)) < 1e-12


class TestBayesAssign:
    def test_modal_one_goes_to_class_one(self):
        pair = z_pair(1.2, dist.cayley(1.0))
        assert bayes_assign(pair.m1, pair) == 1

    def test_modal_two_goes_to_class_two(self):
        pair = z_pair(1.2, dist.cayley(1.0))
        assert bayes_assign(pair.m2, pair) == 2
        # decision statistic at M2 is -2 (1 - cos alpha)
        contrast = np.eye(3) - pair.m1 @ pair.m2.T
        stat = np.trace(pair.m2 @ pair.m1.T @ contrast)
        assert abs(stat + 2.0 * (1.0 - math.cos(pair.alpha))) < 1e-12

    def test_tie_goes_to_class_one(self):
        # with M1 M2^T = R_z(pi/2) the statistic is the U3-quadratic at
        # x = 1/2; its root u3 = 1 - sqrt(2) makes the statistic vanish
        pair = cls.ClassPair(np.eye(3), so3.from_axis_angle(E3, -0.5 * math.pi), dist.haar())
        u3 = 1.0 - math.sqrt(2.0)
        axis = np.array([math.sqrt(1.0 - u3 * u3), 0.0, u3])
        P = so3.from_axis_angle(axis, 0.5 * math.pi)
        contrast = np.eye(3) - pair.m1 @ pair.m2.T
        assert abs(np.trace(P @ pair.m1.T @ contrast)) < 1e-14
        assert bayes_assign(P, pair) == 1

    def test_decision_statistic_conjugation_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            m1, m2 = random_rotation(rng), random_rotation(rng)
            alpha = so3.rotation_angle_between(m1, m2)
            if not 1e-3 < alpha < math.pi - 1e-3:
                continue
            Q = spectral_rotation(m1, m2)
            np.testing.assert_allclose(
                Q.T @ planar_block(alpha) @ Q, np.eye(3) - m1 @ m2.T, atol=1e-12
            )
            P = random_rotation(rng)
            lhs = np.trace(P @ m1.T @ (np.eye(3) - m1 @ m2.T))
            rhs = np.trace(Q @ P @ m1.T @ Q.T @ planar_block(alpha))
            assert abs(lhs - rhs) < 1e-12


class TestQuadCoeffs:
    def test_reference_point(self):
        a, b, c = quad_coeffs(math.pi / 2, 0.5)
        assert (abs(a + 1.0) < 1e-15 and abs(b - 2.0) < 1e-15 and abs(c - 1.0) < 1e-15)
        roots = np.sort(np.roots([a, b, c]))
        np.testing.assert_allclose(roots, [1.0 - math.sqrt(2.0), 1.0 + math.sqrt(2.0)], atol=1e-12)
        np.testing.assert_allclose(
            roots, [-math.tan(math.pi / 8.0), 1.0 / math.tan(math.pi / 8.0)], atol=1e-12
        )

    def test_leading_coefficient_negative(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            alpha = rng.uniform(1e-3, math.pi - 1e-3)
            x = rng.uniform(1e-6, 1.0 - 1e-6)
            a, _, _ = quad_coeffs(alpha, x)
            assert a < 0.0

    def test_root_closed_forms(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            alpha = rng.uniform(0.1, math.pi - 0.1)
            x = rng.uniform(0.05, 0.95)
            theta = math.acos(2.0 * x - 1.0)
            a, b, c = quad_coeffs(alpha, x)
            disc = math.sqrt(b * b - 4.0 * a * c)
            r1 = (-b + disc) / (2.0 * a)  # smaller root since a < 0
            r2 = (-b - disc) / (2.0 * a)
            cot_half = 1.0 / math.tan(0.5 * theta)
            expected1 = -math.tan(0.25 * alpha) * cot_half
            expected2 = cot_half / math.tan(0.25 * alpha)
            scale = max(1.0, abs(expected1), abs(expected2))
            assert abs(r1 - expected1) < 1e-12 * scale
            assert abs(r2 - expected2) < 1e-12 * scale
            assert abs((r2 - r1) - 2.0 * cot_half / math.sin(0.5 * alpha)) < 1e-12 * scale

    def test_region_boundaries(self):
        for alpha in np.linspace(0.1, math.pi - 0.1, 21):
            for theta in np.linspace(0.05, math.pi - 0.05, 25):
                if abs(theta - 0.5 * alpha) < 1e-9 or abs(theta - (math.pi - 0.5 * alpha)) < 1e-9:
                    continue
                cot_half = 1.0 / math.tan(0.5 * theta)
                u1 = -math.tan(0.25 * alpha) * cot_half
                u2 = cot_half / math.tan(0.25 * alpha)
                assert (u1 <= -1.0) == (theta <= 0.5 * alpha)
                assert (u2 >= 1.0) == (theta <= math.pi - 0.5 * alpha)


class TestPsiClosed:
    def test_small_angle_limit_is_half(self):
        for common in (dist.haar(), dist.cayley(2.0), dist.cayley(5.0),
                       dist.fisher_von_mises(1.0)):
            pair = z_pair(1e-9, common)
            assert abs(cls.psi_closed(pair) - 0.5) < 1e-8

    @pytest.mark.parametrize("alpha", [0.5, 1.5, 3.0])
    def test_haar_is_coin_flip(self, alpha):
        pair = z_pair(alpha, dist.haar())
        assert abs(cls.psi_closed(pair) - 0.5) < 1e-8

    def test_theta_form_agrees_on_grid(self):
        for kappa in (0.0, 0.5, 1.0, 2.0, 5.0):
            common = dist.haar() if kappa == 0.0 else dist.cayley(kappa)
            for alpha in (0.3, 0.9, 1.5, 2.2, 2.9):
                pair = z_pair(alpha, common)
                a = cls.psi_closed(pair)
                b = psi_theta_form(pair)
                assert abs(a - b) < 1e-8, (kappa, alpha)

    @pytest.mark.parametrize("family, kappas", [
        ("cayley", [0.0, 0.5, 2.0, 29.9, 30.0, 37.0, 1e3, 1e5]),
        ("fvm", [0.5, 2.0, 20.0, 49.9, 50.0, 1e3, 1e5, 1e8]),
    ])
    def test_matches_mpmath_oracle_on_grid(self, family, kappas):
        # the quadrature h-form was off by 1.6e-7 (Haar, alpha = 1e-6) and
        # printed psi > 1 at Cayley-LMR kappa = 1e5
        for kappa in kappas:
            common = dist.haar() if kappa == 0.0 else dist.DistributionSpec(family, kappa=kappa)
            for alpha in (1e-6, 1e-3, 0.1, 1.0, 3.0):
                pair = z_pair(alpha, common)
                psi, dpsi = psi_quadrature_oracle(family, kappa, alpha)
                assert abs(cls.psi_closed(pair) - psi) < 1e-13, (kappa, alpha)
                assert abs(cls.psi_derivative(pair) - dpsi) < 1e-13 * max(1.0, dpsi), (kappa, alpha)

    def test_fvm_at_small_separations(self):
        # the fvm tail missed the sqrt(t) mass near x = t, so psi read about
        # 1/2 + alpha / (2 pi) at kappa = 1e-300 and was 1.1e-10 off at 0.3
        common = dist.fisher_von_mises(1e-300)
        for alpha in np.geomspace(1.0001e-12, 1e-4, 75):
            assert abs(cls.psi_closed(z_pair(alpha, common)) - 0.5) < 1e-13, alpha
        for kappa in (0.3, 2.0):
            psi, _ = psi_quadrature_oracle("fvm", kappa, 1e-9)
            assert abs(cls.psi_closed(z_pair(1e-9, dist.fisher_von_mises(kappa))) - psi) < 1e-13, kappa

    def test_increasing_in_concentration(self):
        values = [cls.psi_closed(z_pair(1.0, dist.cayley(k))) for k in (0.5, 1.0, 2.0, 5.0)]
        assert all(b > a for a, b in zip(values, values[1:]))


def psi_cayley_oracle(kappa, alpha):
    """psi for the Cayley-LMR family from the h-form, with every integral
    in closed form: f_X is the Beta(kappa + 1/2, 3/2) density (mpmath's
    regularised incomplete beta) and h(x) = x^kappa / B(kappa + 1/2, 3/2)."""
    with mpmath.workdps(30):
        k, a = mpmath.mpf(kappa), mpmath.mpf(alpha)
        lo, hi = mpmath.sin(a / 4) ** 2, mpmath.cos(a / 4) ** 2
        p = k + mpmath.mpf(1) / 2

        def f_int(x1, x2):
            return mpmath.betainc(p, 1.5, x1, x2, regularized=True)

        def h_int(x1, x2):
            return (x2 ** (k + 1) - x1 ** (k + 1)) / ((k + 1) * mpmath.beta(p, 1.5))

        return float(f_int(hi, 1) + f_int(lo, hi) / 2 + mpmath.tan(a / 4) / 2 * h_int(lo, hi)
                     + h_int(0, lo) / mpmath.sin(a / 2))


def psi_quadrature_oracle(family, kappa, alpha):
    """(psi, psi') at 40 digits from the h-form with every H in closed form
    and the tails P(X > t) = P(V < 1 - t), V = 1 - X, by mpmath
    quadrature of the unnormalised density of V, split where its mass
    concentrates within 1/kappa of v = 0."""
    with mpmath.workdps(40):
        k, a = mpmath.mpf(kappa), mpmath.mpf(alpha)
        lo, hi, w = mpmath.sin(a / 4) ** 2, mpmath.cos(a / 4) ** 2, mpmath.cos(a / 2)
        if family == "fvm":
            def dens(v):
                return mpmath.sqrt(v / (1 - v)) * mpmath.exp(-4 * k * v)
        else:
            def dens(v):
                return mpmath.sqrt(v) * (1 - v) ** (k - mpmath.mpf(1) / 2)
        scale = max(k, 1)

        def mass(s):
            cuts = [c / scale for c in (mpmath.mpf(1) / 64, mpmath.mpf(1) / 8, 1, 10, 100, 1000)]
            return mpmath.quad(dens, [0] + [c for c in cuts if c < s] + [s])

        total = mass(1)
        if family == "fvm":
            def H(x1, x2):
                return (mpmath.exp(-4 * k * (1 - x2)) - mpmath.exp(-4 * k * (1 - x1))) / (4 * k * total)
        else:
            def H(x1, x2):
                return (x2 ** (k + 1) - x1 ** (k + 1)) / ((k + 1) * total)
        psi = ((mass(hi) + mass(lo)) / (2 * total) + mpmath.tan(a / 4) / 2 * H(lo, hi)
               + H(0, lo) / mpmath.sin(a / 2))
        return float(psi), float((H(lo, hi) - w / lo * H(0, lo)) / (4 * (1 + w)))


class TestPsiKappaRange:
    """psi at concentrations where the quadrature h-form used to stop."""

    @pytest.mark.parametrize("alpha", [1e-6, 1e-3, 0.01, 0.03, 0.1])
    def test_largest_supported_kappa_against_oracle(self, alpha):
        kappa = 1e5
        psi = cls.psi_closed(z_pair(alpha, dist.cayley(kappa)))
        assert abs(psi - psi_cayley_oracle(kappa, alpha)) < 1e-9

    @pytest.mark.parametrize("alpha", [1.0, 3.0])
    def test_largest_supported_kappa_is_certain(self, alpha):
        # P(X < cos^2(alpha/4)) is below 1e-2000 here, so psi is 1 in
        # double precision
        assert abs(cls.psi_closed(z_pair(alpha, dist.cayley(1e5))) - 1.0) < 1e-9

    @pytest.mark.parametrize("kappa", [2e5, 1e8, 1e16, 1e308])
    def test_huge_kappa_against_oracle(self, kappa):
        # where 1 - hi = lo is about 1/kappa psi is neither 1/2 nor 1; at
        # kappa = 1e308 the smallest separation already gives psi = 1
        for family in ("cayley", "fvm"):
            spec = dist.DistributionSpec(family, kappa=kappa)
            for scaled in (0.1, 1.0, 10.0):
                alpha = max(4.0 * math.asin(math.sqrt(scaled / kappa)), 1.0001e-12)
                pair = z_pair(alpha, spec)
                psi, dpsi = cls.psi_closed(pair), cls.psi_derivative(pair)
                if kappa > 1e100:
                    assert psi == 1.0 and math.isfinite(dpsi) and dpsi >= 0.0
                    continue
                ref_psi, ref_dpsi = psi_quadrature_oracle(family, kappa, alpha)
                assert abs(psi - ref_psi) < 1e-13, (family, scaled)
                assert abs(dpsi - ref_dpsi) < 1e-13 * ref_dpsi, (family, scaled)

    def test_bessel_gap_calls_per_psi(self, monkeypatch):
        calls = []
        kernel = dist.log_bessel_gap

        def counting(n, kappa):
            calls.append(n)
            return kernel(n, kappa)

        for module in (dist, moments):
            monkeypatch.setattr(module, "log_bessel_gap", counting)
        pair = z_pair(1.0, dist.fisher_von_mises(2.0))
        cls.psi_closed(pair)
        # L_0 once, for the h of the spec that H and both tails read
        assert calls == [0]
        cls.psi_derivative(pair)  # the same spec, so no second L_0
        assert calls == [0]


class TestPsiDerivative:
    @pytest.mark.parametrize("alpha", [0.5, 1.5, 3.0])
    def test_haar_derivative_vanishes(self, alpha):
        assert abs(cls.psi_derivative(z_pair(alpha, dist.haar()))) < 1e-9

    @pytest.mark.parametrize("alpha", [2e-12, 1e-6, 1.0, math.pi - 2e-12])
    @pytest.mark.parametrize("common", [dist.haar(), dist.cayley(1e-300)])
    def test_uniform_law_is_zero_up_to_rounding(self, alpha, common):
        # h is constant, so psi' is the rounding of H(lo, hi) - (w / lo) H(0, lo)
        assert abs(cls.psi_derivative(z_pair(alpha, common))) <= 1e-15

    def test_positive_for_concentrated_cayley(self):
        assert cls.psi_derivative(z_pair(1.0, dist.cayley(1.0))) > 0.0

    @pytest.mark.parametrize("alpha", [0.4, 1.2, 2.4])
    def test_finite_difference_agreement(self, alpha):
        common = dist.cayley(2.0)
        step = 1e-4
        fd = (
            cls.psi_closed(z_pair(alpha + step, common))
            - cls.psi_closed(z_pair(alpha - step, common))
        ) / (2.0 * step)
        assert abs(cls.psi_derivative(z_pair(alpha, common)) - fd) < 1e-6

    @pytest.mark.parametrize("alpha", [1e-11, 1e-10, 2e-9, 1e-8])
    def test_tiny_separation_limit(self, alpha):
        # psi'(0+) = (int_0^1 h - h(0+)) / 8, which is 2 / (3 pi) for
        # Cayley kappa = 2, where h(x) = 16 x^2 / pi; 1 - cos(alpha/2)
        # rounds to 0.0 for the three smaller angles
        dpsi = cls.psi_derivative(z_pair(alpha, dist.cayley(2.0)))
        assert abs(dpsi - 2.0 / (3.0 * math.pi)) < 1e-12
        assert abs(cls.psi_derivative(z_pair(alpha, dist.haar()))) < 1e-12

    def test_never_meaningfully_negative(self):
        for kappa in (0.0, 0.5, 2.0):
            for family in (dist.cayley, dist.fisher_von_mises):
                common = family(kappa)
                for alpha in (0.3, 1.0, 2.0, 2.9):
                    assert cls.psi_derivative(z_pair(alpha, common)) >= -1e-9


class TestMcAccuracy:
    def test_haar_is_half(self):
        pair = z_pair(1.0, dist.haar())
        acc = cls.mc_accuracy(pair, 2 * 10 ** 5, np.random.default_rng(3))
        assert abs(acc - 0.5) < 4.0 * math.sqrt(0.25 / (2 * 10 ** 5))

    def test_highly_concentrated_is_almost_perfect(self):
        pair = z_pair(math.pi / 2, dist.cayley(200.0))
        acc = cls.mc_accuracy(pair, 10 ** 5, np.random.default_rng(4))
        assert acc >= 0.99

    def test_matches_closed_form(self):
        pair = z_pair(1.0, dist.cayley(1.0))
        psi = cls.psi_closed(pair)
        acc = cls.mc_accuracy(pair, 2 * 10 ** 5, np.random.default_rng(5))
        assert abs(acc - psi) < 4.0 * math.sqrt(psi * (1.0 - psi) / (2 * 10 ** 5))

    def test_class_conditional_symmetry(self):
        # the two-class oracle's per-class accuracies agree, and both its
        # overall accuracy and the class-1-only estimate match psi, by the
        # swap symmetry of the rule
        m1, m2 = so3.from_axis_angle(E3, 0.4), so3.from_axis_angle(E3, 1.3)
        n = 4 * 10 ** 5
        for common in (dist.haar(), dist.cayley(2.0), dist.fisher_von_mises(2.0),
                       dist.fisher_von_mises(20.0)):
            pair = cls.ClassPair(m1, m2, common)
            psi = cls.psi_closed(pair)
            se = math.sqrt(psi * (1.0 - psi) / n)
            overall, acc1, acc2 = two_class_accuracy(pair, n, np.random.default_rng(6))
            assert abs(acc1 - acc2) < 4.0 * (2.0 * se), common  # each class holds about n/2
            assert abs(overall - psi) < 4.0 * se, common
            assert abs(cls.mc_accuracy(pair, n, np.random.default_rng(6)) - psi) < 4.0 * se, common

    def test_modal_axis_only_enters_through_alpha(self):
        rng = np.random.default_rng(7)
        common = dist.cayley(1.5)
        psi_z = cls.psi_closed(z_pair(1.1, common))
        m1 = random_rotation(rng)
        axis = sample_uniform_axes(1, rng)[0]
        m2 = so3.from_axis_angle(axis, 1.1) @ m1
        pair = cls.ClassPair(m1, m2, common)
        assert abs(pair.alpha - 1.1) < 1e-12
        assert abs(cls.psi_closed(pair) - psi_z) < 1e-10

    def test_rejects_zero_draws(self):
        with pytest.raises(ValueError):
            cls.mc_accuracy(z_pair(1.0, dist.haar()), 0, np.random.default_rng(8))

    @pytest.mark.parametrize("n", [1000, dist.MC_CHUNK + 1, 2 * dist.MC_CHUNK + 4321])
    def test_matches_one_einsum_oracle(self, n):
        rng = np.random.default_rng(17)
        m1 = random_rotation(rng)
        pair = cls.ClassPair(m1, so3.from_axis_angle(E3, 0.8) @ m1, dist.cayley(1.5))
        got = cls.mc_accuracy(pair, n, np.random.default_rng(18))
        assert type(got) is float
        assert same_bits(got, one_einsum_accuracy(pair, n, np.random.default_rng(18)))

    @pytest.mark.parametrize("stat, assigned", [(0.5 * cls.TIE_TOL, 1), (-0.5 * cls.TIE_TOL, 1),
                                                (-2.0 * cls.TIE_TOL, 2)])
    @pytest.mark.parametrize("label", [1, 2])
    def test_ties_go_to_class_one(self, stat, assigned, label, monkeypatch):
        # every draw is the unit quaternion q whose class-`label` statistic
        # q^T K q is `stat`, found by bisection between the eigenvectors
        # of K's largest and smallest eigenvalues; class 2 is only drawn
        # by the two-class oracle
        pair = z_pair(1.0, dist.haar())
        s1 = np.eye(3) - pair.m1 @ pair.m2.T
        K = cls._davenport_k(s1 if label == 1 else pair.m2 @ pair.m1.T @ s1)
        _, vectors = np.linalg.eigh(K)
        lo, hi = 0.0, 0.5 * math.pi
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            q = math.cos(mid) * vectors[:, -1] + math.sin(mid) * vectors[:, 0]
            lo, hi = (mid, hi) if q @ K @ q > stat else (lo, mid)
        assert abs(q @ K @ q - stat) < 1e-15  # far inside the 5e-15 to the nearest threshold

        def constant(spec, rng, work):
            work[:4] = q[:, None]

        monkeypatch.setattr(cls, "_sample_quaternions", constant)
        monkeypatch.setattr(dist, "_sample_quaternions", constant)
        if label == 1:
            accuracy = cls.mc_accuracy(pair, 200, np.random.default_rng(9))
        else:
            accuracy = two_class_accuracy(pair, 200, np.random.default_rng(9))[2]
        assert accuracy == (1.0 if assigned == label else 0.0)

    def test_one_draw_is_all_or_nothing(self):
        pair = z_pair(1.0, dist.cayley(2.0))
        accs = [cls.mc_accuracy(pair, 1, np.random.default_rng(seed)) for seed in range(10)]
        assert set(accs) == {0.0, 1.0}, accs

    @pytest.mark.parametrize("common", [dist.cayley(2.0), dist.fisher_von_mises(20.0)],
                             ids=["cayley", "fvm"])
    def test_chunk_makes_only_the_samplers_draws(self, common, monkeypatch):
        recorders = []
        chunks = dist.mc_chunks

        def recorded_chunks(n, rng):
            for m, child in chunks(n, rng):
                recorders.append(RecordingGenerator(child))
                yield m, recorders[-1]

        def calls(recorder):  # out arrays by their shape
            return [(name, args, {key: getattr(value, "shape", value) for key, value in kw.items()})
                    for name, args, kw in recorder.calls]

        monkeypatch.setattr(dist, "mc_chunks", recorded_chunks)
        sizes = (dist.MC_CHUNK, 1000)
        cls.mc_accuracy(z_pair(1.0, common), sum(sizes), np.random.default_rng(40))
        children = np.random.default_rng(40).spawn(len(sizes))
        for recorder, child, m in zip(recorders, children, sizes, strict=True):
            # exactly the sampler's calls for m draws: no label count
            replay = RecordingGenerator(child)
            dist._sample_quaternions(common, replay, np.empty((6, m)))
            assert calls(recorder) == calls(replay)


class TestDavenportK:
    def test_quadratic_form_is_the_trace(self):
        # pins the sign convention of z against the rotation of the same
        # quaternion: tr(R(q) S) = q^T K(S) q
        rng = np.random.default_rng(21)
        q = rng.normal(size=(4, 1000))
        q /= np.linalg.norm(q, axis=0)
        R = rotations_from_quaternions(q)
        for _ in range(5):
            S = rng.normal(size=(3, 3))
            form = np.einsum("in,in->n", cls._davenport_k(S) @ q, q)
            trace = np.einsum("nij,ji->n", R, S)
            assert np.max(np.abs(form - trace)) <= 1e-15 * np.linalg.norm(S)

    def test_is_symmetric(self):
        K = cls._davenport_k(np.random.default_rng(22).normal(size=(3, 3)))
        np.testing.assert_array_equal(K, K.T)


class TestGramIsNotAClassificationFeature:
    def test_equal_projected_shapes_yet_separable(self):
        # modal rotations differing by a z-rotation share the projected
        # Gram expectation for every landmark set, yet the Bayes rule
        # separates them strictly when the law is concentrated
        rng = np.random.default_rng(9)
        m1 = random_rotation(rng)
        beta = 1.0
        m2 = so3.from_axis_angle(E3, beta) @ m1
        common = dist.cayley(2.0)
        V = rng.normal(size=(3, 4))
        g1 = radon.expected_projected_gram(dist.cayley(2.0, modal=m1), V)
        g2 = radon.expected_projected_gram(dist.cayley(2.0, modal=m2), V)
        assert np.max(np.abs(g1 - g2)) < 1e-10
        pair = cls.ClassPair(m1, m2, common)
        assert abs(pair.alpha - beta) < 1e-12
        assert cls.psi_closed(pair) > 0.55
