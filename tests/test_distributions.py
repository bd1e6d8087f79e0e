import math
import os
import sys
import threading

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (RecordingGenerator, fvm_x_beta_rejection, fz_closed_cayley, ks_critical,
                      ks_statistic, log_bessel_gap_loop, quaternion_draws, random_rotation,
                      rotation_density, same_bits, tau_from_rho)
from rotgram import classifier as cls
from rotgram import distributions as dist
from rotgram import moments, so3
from rotgram.errors import DomainError

mpmath.mp.dps = 40


def bessel_series_oracle(order, z, tol=1e-16):
    """Independent oracle: the defining power series, term by factorial."""
    total = 0.0
    m = 0
    while True:
        term = (z / 2.0) ** (2 * m + order) / (math.factorial(m) * math.factorial(m + order))
        total += term
        if term < tol * max(total, 1.0):
            return total
        m += 1


def log_bessel_gap_oracle(n, kappa):
    """log(e^-z (I_n(z) - I_{n+1}(z))) at z = 2 kappa from mpmath, with
    enough digits that the difference keeps 40 of them."""
    with mpmath.workdps(40 + max(0, int(math.log10(kappa)))):
        z = 2 * mpmath.mpf(kappa)
        return float(mpmath.log(mpmath.exp(-z) * (mpmath.besseli(n, z) - mpmath.besseli(n + 1, z))))


KAPPA_GRID = ([1e-107, 1e-30, 1e-8, 0.01, 0.3, 1.0, 3.7, 7.5, 9.5, 9.99, 10.0, 10.01, 11.0,
               15.0, 25.0, 50.0, 51.0]
              + [10.0 ** e for e in range(2, 309, 17)] + [1.7976931348623157e308])


class TestBessel:
    """L_n(kappa) = log(e^-2k (I_n - I_{n+1})(2k)), the only Bessel kernel."""

    def test_at_zero(self):
        assert dist.log_bessel_gap(0, 0.0) == 0.0
        # L_2 ~ 2 log kappa - log 2 once the kappa^3 term is below rounding
        assert abs(dist.log_bessel_gap(2, 1e-20) - (2.0 * math.log(1e-20) - math.log(2.0))) < 1e-15

    def test_i0_at_one_vs_series_oracle(self):
        # z = 1: I0(1) = 1.2660658777520084
        gap = bessel_series_oracle(0, 1.0) - bessel_series_oracle(1, 1.0)
        assert abs(dist.log_bessel_gap(0, 0.5) - (math.log(gap) - 1.0)) < 1e-14
        assert abs(bessel_series_oracle(0, 1.0) - 1.2660658777520084) < 1e-14

    def test_relative_error_against_mpmath(self):
        for kappa in KAPPA_GRID:
            for n in (0, 2):
                ref = log_bessel_gap_oracle(n, kappa)
                err = abs(dist.log_bessel_gap(n, kappa) - ref) / max(1.0, abs(ref))
                assert err < 1e-13, (n, kappa, err)

    def test_relative_error_against_scipy(self):
        # scipy's exponentially scaled ive; its difference loses about
        # log10(4z) digits, so z stays moderate here
        for z in [0.3, 2.0, 7.7, 14.5, 15.5, 19.9, 20.1, 42.0, 99.0, 150.0]:
            for n in (0, 2):
                ref = math.log(scipy.special.ive(n, z) - scipy.special.ive(n + 1, z))
                assert abs(dist.log_bessel_gap(n, 0.5 * z) - ref) < 1e-12, (n, z)

    @pytest.mark.parametrize("z", [5e-324, 1e-300, 1e-107])
    def test_underflowing_series_terminates(self, z):
        # once the series terms underflow to 0 the stopping test must still hold
        for n in (0, 2):
            value = dist.log_bessel_gap(n, z)
            ref = log_bessel_gap_oracle(n, mpmath.mpf(z))
            assert math.isfinite(value) and abs(value - ref) <= 1e-13 * abs(ref) + 1e-15, n

    def test_branch_agreement_at_cutoff(self):
        # the power series runs below kappa = 10, the asymptotic sum from it
        below = math.nextafter(10.0, 0.0)
        for n in (0, 2):
            assert abs(dist.log_bessel_gap(n, below) - dist.log_bessel_gap(n, 10.0)) < 1e-14

    def test_finite_at_every_kappa(self):
        # I_n itself overflows from z ~ 713 on; the scaled gap never does, and
        # (I2 - I3) / (I0 - I1) tends to 5 (tau2 - 1/3 to 2/3), up to the
        # rounding of L_n ~ -1066 there
        for kappa in (5e-324, 1e-300, 1e154, 4.5e307, 1.7976931348623157e308):
            assert all(math.isfinite(dist.log_bessel_gap(n, kappa)) for n in (0, 2))
        top = 1.7976931348623157e308
        assert abs(math.exp(dist.log_bessel_gap(2, top) - dist.log_bessel_gap(0, top)) - 5.0) < 1e-12


LARGEST = 1.7976931348623157e308
# Both branches, their shared edge at kappa = 10, underflowing series terms,
# and expansions whose 16 (j - 1) kappa overflows; then kappas at which
# numpy's SIMD np.log rounds the series sum (n = 0, then n = 2) or kappa
# itself differently from math.log, on x86-64.
BITWISE_KAPPAS = [0.0, 5e-324, 1e-300, 1e-20, 0.5, 2.0, math.nextafter(10.0, 0.0), 10.0,
                  math.nextafter(10.0, 20.0), 20.0, 1e4, 1e300, LARGEST,
                  1.5540128371982476, 6.857109384559829, 2.2361837455460423]


class TestBesselArray:
    """``log_bessel_gap`` over an array of kappa is bitwise the loop that
    sums the terms one at a time (``log_bessel_gap_loop``)."""

    @pytest.mark.parametrize("n", [0, 2])
    def test_grid_in_one_call(self, n):
        kappas = [k for k in BITWISE_KAPPAS if n == 0 or k > 0.0]
        values = dist.log_bessel_gap(n, np.array(kappas))
        assert same_bits(values, [log_bessel_gap_loop(n, k) for k in kappas])

    @pytest.mark.parametrize("n", [0, 2])
    @pytest.mark.parametrize("kappa", BITWISE_KAPPAS)
    def test_float_0d_and_one_element(self, n, kappa):
        if n == 2 and kappa == 0.0:  # L_2 is log 0 there, as in the loop
            for value in (kappa, np.array(kappa), np.array([kappa])):
                with pytest.raises(ValueError):
                    dist.log_bessel_gap(n, value)
            return
        ref = log_bessel_gap_loop(n, kappa)
        for value in (kappa, np.array(kappa)):
            out = dist.log_bessel_gap(n, value)
            assert type(out) is float and same_bits(out, ref)
        out = dist.log_bessel_gap(n, np.array([kappa]))
        assert isinstance(out, np.ndarray) and same_bits(out, [ref])

    @pytest.mark.parametrize("n", [0, 2])
    def test_grid_across_blocks(self, n, monkeypatch):
        # blocks of 3 split the grid between the two branches and mid-branch
        monkeypatch.setattr(dist, "BESSEL_BLOCK", 3)
        kappas = [k for k in BITWISE_KAPPAS if n == 0 or k > 0.0]
        values = dist.log_bessel_gap(n, np.array(kappas))
        assert same_bits(values, [log_bessel_gap_loop(n, k) for k in kappas])

    def test_keeps_the_shape(self):
        kappas = np.array([[0.5, 10.0, 3.0], [1e300, 7.0, 20.0]])
        out = dist.log_bessel_gap(2, kappas)
        assert same_bits(out, [[log_bessel_gap_loop(2, k) for k in row] for row in kappas.tolist()])

    @given(st.lists(st.floats(0.0, LARGEST) | st.floats(0.0, 20.0), min_size=1, max_size=8))
    @example([math.nextafter(10.0, 0.0)] * 3 + [9.999, 10.0, 5e-324])
    def test_sweep(self, kappas):
        for n in (0, 2):
            ks = [k for k in kappas if n == 0 or k > 0.0]
            if ks:
                assert same_bits(dist.log_bessel_gap(n, np.array(ks)),
                                 [log_bessel_gap_loop(n, k) for k in ks])


def log_i0e_oracle(z):
    """log(e^-z I_0(z)) from mpmath at 40 digits: log I_0(z) - z up to
    z = 1, where e^-z I_0(z) lies within z of 1, and the log of the
    product above, so that neither form cancels."""
    with mpmath.workdps(40):
        z = mpmath.mpf(z)
        if z <= 1:
            return mpmath.log(mpmath.besseli(0, z)) - z
        return mpmath.log(mpmath.exp(-z) * mpmath.besseli(0, z))


# Underflowing series terms, both sides of the branch at z = 20, and
# expansions up to the largest float.
I0E_GRID = [0.0, 5e-324, 1e-300, 1e-160, 1e-20, 1e-8, 1e-3, 0.1, 1.0, 2.0, 7.5, 15.0, 18.4,
            math.nextafter(20.0, 0.0), 20.0, math.nextafter(20.0, 40.0), 25.0, 50.0, 1e3, 1e6,
            1e16, 1e100, 1e300, 9e307, LARGEST]


class TestLogI0e:
    """log(e^-z I_0(z)), the kernel of the Fisher-von Mises zonal density."""

    def test_against_mpmath(self):
        for z in I0E_GRID:
            ref = log_i0e_oracle(z)
            assert abs(dist.log_i0e(z) - ref) <= 2e-15 * max(1.0, abs(ref)), z

    @given(z=st.one_of(st.floats(0.0, 40.0), st.floats(0.0, LARGEST)))
    def test_sweep_against_mpmath(self, z):
        ref = log_i0e_oracle(z)
        assert abs(dist.log_i0e(z) - ref) <= 2e-15 * max(1.0, abs(ref))

    def test_exact_values(self):
        # log(e^-z I_0(z)) = -z + z^2/4 - ... rounds to -z at z = 1e-300,
        # and -log(2 pi z)/2 + O(1/z) is -inf at z = inf
        assert dist.log_i0e(0.0) == 0.0
        assert dist.log_i0e(1e-300) == -1e-300
        assert dist.log_i0e(math.inf) == -math.inf


class TestSpecValidation:
    def test_haar_forces_zero_kappa(self):
        with pytest.raises(DomainError):
            dist.DistributionSpec(dist.Family.HAAR, kappa=1.0)

    def test_negative_kappa(self):
        with pytest.raises(DomainError):
            dist.cayley(-0.5)

    @pytest.mark.parametrize("family", [dist.Family.CAYLEY, dist.Family.FVM])
    @pytest.mark.parametrize("kappa", [math.nan, math.inf])
    def test_non_finite_kappa(self, family, kappa):
        # checked here, not through the CLI: fvm sampling at kappa = inf
        # would never accept a draw
        with pytest.raises(DomainError):
            dist.DistributionSpec(family, kappa=kappa)

    def test_modal_must_be_rotation(self):
        with pytest.raises(ValueError):
            dist.cayley(1.0, modal=np.eye(3) * 1.01)

    def test_modal_is_read_only(self):
        spec = dist.cayley(1.0)
        with pytest.raises(ValueError):
            spec.modal[0, 0] = 2.0

    def test_specs_without_a_modal_share_the_identity(self, monkeypatch):
        def refuse(R):
            raise AssertionError("the identity modal was validated")

        monkeypatch.setattr(so3, "require_rotation", refuse)
        specs = [dist.haar(), dist.cayley(2.0), dist.DistributionSpec("fvm", kappa=0.5)]
        assert all(spec.modal is specs[0].modal for spec in specs)
        assert np.array_equal(specs[0].modal, np.eye(3)) and not specs[0].modal.flags.writeable
        monkeypatch.undo()
        # a given modal is still validated: a reflection is rejected
        with pytest.raises(ValueError):
            dist.fisher_von_mises(1.0, modal=np.diag([1.0, 1.0, -1.0]))


class TestFxDensity:
    def test_cayley_zero_at_half(self):
        value = dist.fx_density(dist.cayley(0.0), 0.5)
        assert abs(value - 2.0 / math.pi) < 1e-14

    def test_fvm_zero_matches_cayley_zero(self):
        c0, f0 = dist.cayley(0.0), dist.fisher_von_mises(0.0)
        for x in np.linspace(0.01, 0.99, 25):
            assert abs(dist.fx_density(c0, x) - dist.fx_density(f0, x)) < 1e-12

    @pytest.mark.parametrize("family", [dist.cayley, dist.fisher_von_mises])
    @pytest.mark.parametrize("kappa", [0.0, 0.5, 1.0, 2.0, 5.0])
    def test_normalisation(self, family, kappa):
        spec = family(kappa)
        total = moments.integrate(lambda x: dist.fx_density(spec, x), 0.0, 1.0)
        assert abs(total - 1.0) < 1e-9

    @pytest.mark.parametrize("kappa", [1e6, 1e8, 1e10, 1e12])
    def test_cayley_near_the_mode_at_huge_kappa(self, kappa):
        # a difference of lgammas for log B(kappa + 1/2, 3/2) was off by 1e-9
        # relative at kappa = 1e6 and 9e-4 at 1e12
        x = 1.0 - 1.5 / kappa
        with mpmath.workdps(60):
            k, xm = mpmath.mpf(kappa), mpmath.mpf(x)
            ref = xm ** (k - 0.5) * mpmath.sqrt(1 - xm) / mpmath.beta(k + 0.5, 1.5)
        assert abs(dist.fx_density(dist.cayley(kappa), x) / float(ref) - 1.0) < 1e-13

    def test_log_beta_against_mpmath(self):
        # lgammas below kappa = 30, the large-kappa expansion from there
        for kappa in (0.0, 0.5, 2.0, 29.9, math.nextafter(30.0, 0.0), 30.0, 37.0, 1e3, 1e6,
                      1e12, 1e100, 1e300, 1.7976931348623157e308):
            with mpmath.workdps(40 + max(0, int(math.log10(max(kappa, 1.0))))):
                ref = float(mpmath.log(mpmath.beta(mpmath.mpf(kappa) + 0.5, 1.5)))
            assert abs(dist.log_beta_cayley(kappa) - ref) <= 1e-15 * max(1.0, abs(ref)), kappa

    @pytest.mark.parametrize("x", [5e-309, 1e-310, 5e-324])
    def test_finite_near_zero(self, x):
        # sqrt((1 - x) / x) overflowed below x ~ 5.6e-309
        haar = dist.fx_density(dist.haar(), x)
        assert abs(haar / ((2.0 / math.pi) * math.sqrt(1.0 - x) / math.sqrt(x)) - 1.0) <= 1e-15
        for spec in (dist.cayley(2.0), dist.fisher_von_mises(2.0)):
            assert math.isfinite(dist.fx_density(spec, x))

    def test_domain_errors(self):
        spec = dist.haar()
        for x in (0.0, 1.0, -0.2, 1.4):
            with pytest.raises(DomainError):
                dist.fx_density(spec, x)


class TestRotationDensity:
    def test_haar_is_one(self):
        rng = np.random.default_rng(0)
        assert rotation_density(dist.haar(), random_rotation(rng)) == 1.0

    def test_cayley_zero_constant_one(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            value = rotation_density(dist.cayley(0.0), random_rotation(rng))
            assert abs(value - 1.0) < 1e-12

    def test_cayley_one_at_mode(self):
        M = so3.from_axis_angle(np.array([0.0, 1.0, 0.0]), 1.2)
        value = rotation_density(dist.cayley(1.0, modal=M), M)
        assert abs(value - 4.0) < 1e-12

    @pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0, 5.0, 20.0])
    def test_fvm_normaliser_against_quadrature(self, kappa):
        # integral of exp(kappa tr(P)) over SO(3) equals the claimed
        # normaliser e^kappa (I0(2k) - I1(2k)); the trace under Haar is
        # 4X - 1 with X ~ Beta(1/2, 3/2).
        haar = dist.haar()
        lhs = moments.integrate(
            lambda x: math.exp(kappa * (4.0 * x - 1.0)) * dist.fx_density(haar, x),
            0.0, 1.0,
        )
        rhs = math.exp(3.0 * kappa + dist.log_bessel_gap(0, kappa))
        assert abs(lhs - rhs) < 1e-9 * rhs

    @pytest.mark.parametrize("family", [dist.cayley, dist.fisher_von_mises])
    @pytest.mark.parametrize("kappa", [0.5, 2.0, 5.0])
    def test_density_integrates_to_one_over_group(self, family, kappa):
        spec = family(kappa)
        haar = dist.haar()

        def by_trace(x):
            R = so3.from_axis_angle(np.array([0.0, 0.0, 1.0]), math.acos(2.0 * x - 1.0))
            return rotation_density(spec, R) * dist.fx_density(haar, x)

        # rotation_density depends on P only through tr(P M^T); with
        # modal = I and the z-axis rotation the trace is 4x - 1.
        total = moments.integrate(by_trace, 0.0, 1.0)
        assert abs(total - 1.0) < 1e-9


    @pytest.mark.parametrize("family", [dist.cayley, dist.fisher_von_mises])
    @pytest.mark.parametrize("kappa", [1e206, 1e300])
    def test_beyond_the_float_range_is_inf(self, family, kappa):
        # both raised OverflowError ("math range error") at the mode
        spec = family(kappa)
        assert rotation_density(spec, np.eye(3)) == math.inf
        off_mode = so3.from_axis_angle(np.array([0.0, 0.0, 1.0]), 0.5 * math.pi)
        assert rotation_density(spec, off_mode) == 0.0

    def test_largest_finite_values_keep_their_bits(self):
        assert rotation_density(dist.cayley(1e200), np.eye(3)) == 1.772453850905588e+300
        assert rotation_density(dist.fisher_von_mises(1e200), np.eye(3)) == 1.4179630807245589e+301


class TestFzClosedCayley:
    def test_uniform_case(self):
        for s in (-1.0, -0.3, 0.0, 0.8, 1.0):
            assert fz_closed_cayley(0.0, s) == 1.0

    def test_value_at_zero(self):
        assert abs(fz_closed_cayley(2.0, 0.0) - 0.75) < 1e-15

    def test_zonal_normalisation(self):
        total = 0.5 * moments.integrate(lambda s: fz_closed_cayley(3.0, s), -1.0, 1.0, 1e-13)
        assert abs(total - 1.0) < 1e-12

    def test_domain_error(self):
        with pytest.raises(DomainError):
            fz_closed_cayley(1.0, 1.5)
        with pytest.raises(DomainError):
            fz_closed_cayley(-1.0, 0.0)

    @pytest.mark.parametrize("kappa", [math.nan, math.inf])
    def test_rejects_non_finite_kappa(self, kappa):
        with pytest.raises(DomainError):
            fz_closed_cayley(kappa, 0.5)

    def test_large_kappa_does_not_overflow(self):
        # finite densities where (1 + s)^kappa alone overflows
        assert fz_closed_cayley(1e6, 1.0) == 1e6 + 1.0
        ref = mpmath.mpf(1801) * mpmath.mpf(0.75) ** 1800
        assert abs(fz_closed_cayley(1800.0, 0.5) / ref - 1) < 1e-12
        assert fz_closed_cayley(1e300, 0.0) == 0.0


class TestSampleX:
    def test_cayley_zero_mean(self):
        rng = np.random.default_rng(12)
        x = quaternion_draws(dist.cayley(0.0), 10 ** 6, rng)[1]
        assert abs(x.mean() - 0.25) < 2e-3

    def test_cayley_one_mean(self):
        rng = np.random.default_rng(13)
        x = quaternion_draws(dist.cayley(1.0), 10 ** 6, rng)[1]
        assert abs(x.mean() - 0.5) < 2e-3

    def test_fvm_mean_matches_quadrature(self):
        spec = dist.fisher_von_mises(1.0)
        rng = np.random.default_rng(14)
        x = quaternion_draws(spec, 10 ** 6, rng)[1]
        target = moments.integrate(lambda t: t * dist.fx_density(spec, t), 0.0, 1.0)
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean() - target) < 3.0 * se

    def test_range_and_scalar(self):
        rng = np.random.default_rng(15)
        x = quaternion_draws(dist.fisher_von_mises(3.0), 2000, rng)[1]
        assert np.all((x >= 0.0) & (x <= 1.0))
        assert 0.0 <= quaternion_draws(dist.cayley(2.0), 1, rng)[1][0] <= 1.0

    def test_fvm_zero_is_the_haar_stream(self):
        a = quaternion_draws(dist.fisher_von_mises(0.0), 1000, np.random.default_rng(3))[1]
        b = quaternion_draws(dist.haar(), 1000, np.random.default_rng(3))[1]
        assert np.array_equal(a, b)


class CountingGenerator:
    """A numpy Generator proxy that records the ``size`` of every
    ``uniform`` call, one uniform per rejection proposal."""

    def __init__(self, rng):
        self._rng = rng
        self.uniform_sizes = []

    def uniform(self, *args, size=None, **kwargs):
        self.uniform_sizes.append(size)
        return self._rng.uniform(*args, size=size, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def fvm_mean_x_oracle(kappa):
    """E[X] of the Fisher-von Mises angle variate by mpmath tanh-sinh
    quadrature of the unnormalised density sqrt((1-x)/x) e^{4 kappa (x-1)},
    split where the mass concentrates near x = 1."""
    k = mpmath.mpf(kappa)

    def weight(x):
        return mpmath.sqrt((1 - x) / x) * mpmath.exp(4 * k * (x - 1))

    points = [0, mpmath.mpf(1) / 2, 1 - 1 / k, 1]
    return float(mpmath.quad(lambda x: x * weight(x), points) / mpmath.quad(weight, points))


class TestFvmSampler:
    @pytest.mark.parametrize("kappa", [1e-6, 0.1, 0.5, 0.7, 2.0, 20.0, 1e3, 1e6, 1e300])
    def test_envelope_dominates_target(self, kappa):
        # log(f / (M g)) <= 0 on a grid of 1 - X dense near X = 1: the
        # rejection step is exact only if the envelope bound holds.
        inv_omega, slope, log_m = dist._fvm_envelope(kappa)
        y = np.concatenate([[0.0], np.geomspace(1e-300, 1.0, 20001)])
        log_ratio = -slope * y / inv_omega + 2.0 * np.log(1.0 - y + y / inv_omega) - log_m
        assert np.max(log_ratio) <= 1e-12

    @pytest.mark.parametrize("kappa", [0.01, 0.1, 0.5, 0.7, 2.0, 20.0, 1e3, 1e6, 1e300])
    def test_envelope_parameter_solves_its_equation(self, kappa):
        # every b > 0 gives a valid envelope; the root of
        # 1/b + 3/(b + 8 kappa) = 1 is the one that maximises acceptance
        inv_omega = dist._fvm_envelope(kappa)[0]
        b = 8.0 * kappa * inv_omega / (1.0 - inv_omega)
        assert abs(1.0 / b + 3.0 / (b + 8.0 * kappa) - 1.0) < 1e-12

    @pytest.mark.parametrize("kappa", [1.0, 50.0, 1000.0])
    def test_acceptance_is_bounded(self, kappa):
        n = 20000
        rng = CountingGenerator(np.random.default_rng(16))
        x = quaternion_draws(dist.fisher_von_mises(kappa), n, rng)[1]
        assert x.size == n
        assert n / sum(rng.uniform_sizes) >= 0.40

    @pytest.mark.parametrize("kappa", [0.5, 2.0, 5.0])
    def test_matches_beta_rejection_oracle(self, kappa):
        n = 20000
        x = quaternion_draws(dist.fisher_von_mises(kappa), n, np.random.default_rng(25))[1]
        ref = fvm_x_beta_rejection(kappa, n, np.random.default_rng(26))
        assert ks_statistic(x, ref) < ks_critical(n, n, alpha=0.001)

    @pytest.mark.parametrize("kappa", [20.0, 200.0, 1000.0])
    def test_mean_matches_quadrature_oracle(self, kappa):
        x = quaternion_draws(dist.fisher_von_mises(kappa), 200000, np.random.default_rng(27))[1]
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean() - fvm_mean_x_oracle(kappa)) < 4.0 * se

    @settings(max_examples=40, deadline=None)
    @given(kappa=st.integers(-12, 12).map(lambda e: 10.0 ** (e / 2)),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(kappa=0.5, seed=0)
    @example(kappa=sys.float_info.max, seed=0)
    def test_draws_are_valid_for_every_kappa(self, kappa, seed):
        modal = so3.from_axis_angle(np.array([0.0, 0.6, 0.8]), 2.0)
        spec = dist.fisher_von_mises(kappa, modal=modal)
        P, _, _, x = dist.sample_rotations(spec, 64, np.random.default_rng(seed))
        assert np.all(np.isfinite(x)) and np.all((x >= 0.0) & (x <= 1.0))
        assert all(so3.is_rotation(R) for R in P)


def replayed_gammas(spec, n, seed, z):
    """g1 of each of the n draws of ``_sample_quaternions`` at ``seed``,
    whose normal triples are the columns of z: the documented draw order
    is replayed on a fresh generator, and each kept proposal is found by
    its normal triple (nan where none matches within 1000 rounds)."""
    rng = np.random.default_rng(seed)
    beta = spec.family is not dist.Family.FVM or spec.kappa == 0.0
    where = {tuple(column): i for i, column in enumerate(z.T)}
    g1 = np.full(n, np.nan)
    filled = 0
    for _ in range(1000):
        m = n - filled
        if not m:
            break
        proposed = rng.standard_gamma(spec.kappa + 0.5 if beta else 0.5, m)
        normals = rng.standard_normal((3, m))
        if not beta:
            rng.uniform(size=m)
        for j in range(m):
            i = where.get(tuple(normals[:, j]))
            if i is not None:
                g1[i] = proposed[j]
                filled += 1
    return g1


def ks_one_sample(cdf, ranks, n):
    """One-sample KS distance at the order statistics of the 1-based
    ``ranks`` of a sample of n, given the exact CDF there."""
    return max(np.max(ranks / n - cdf), np.max(cdf - (ranks - 1) / n))


KS_N = 10 ** 5
KS_CRITICAL = math.sqrt(-0.5 * math.log(0.001 / 2.0)) / math.sqrt(KS_N)  # level 0.001
EXTREME_KAPPAS = [0.0, 0.5, 20.0, 1e6, 1e12, 1e100]


class TestQuaternionSampler:
    @pytest.mark.parametrize("spec", [dist.haar(), dist.cayley(2.0), dist.fisher_von_mises(0.0)],
                             ids=["haar", "cayley", "fvm-zero"])
    def test_beta_families_draw_one_gamma_then_normals(self, spec):
        rng = RecordingGenerator(np.random.default_rng(30))
        quaternion_draws(spec, 1000, rng)
        (gamma, gamma_args, gamma_out), *normals = rng.calls
        assert (gamma, gamma_args, list(gamma_out)) == ("standard_gamma", (spec.kappa + 0.5,),
                                                        ["out"])
        assert gamma_out["out"].shape == (1000,) and len(normals) == 3
        for normal, normal_args, normal_out in normals:  # one call per row of z, no uniform
            assert (normal, normal_args, list(normal_out)) == ("standard_normal", (), ["out"])
            assert normal_out["out"].shape == (1000,)

    def test_fvm_rounds_draw_gamma_normals_then_uniform(self):
        rng = RecordingGenerator(np.random.default_rng(31))
        quaternion_draws(dist.fisher_von_mises(20.0), 1000, rng)
        rounds = [rng.calls[i:i + 5] for i in range(0, len(rng.calls), 5)]
        assert len(rounds) >= 2 and 5 * len(rounds) == len(rng.calls)
        sizes = []
        for (gamma, gamma_args, gamma_out), *normals, uniform in rounds:
            m = gamma_out["out"].size
            assert (gamma, gamma_args, list(gamma_out)) == ("standard_gamma", (0.5,), ["out"])
            for normal, normal_args, normal_out in normals:
                assert (normal, normal_args, list(normal_out)) == ("standard_normal", (), ["out"])
                assert normal_out["out"].shape == (m,)
            assert uniform == ("uniform", (), {"size": m})
            sizes.append(m)
        assert sizes[0] == 1000 and sizes == sorted(sizes, reverse=True)

    @pytest.mark.parametrize("spec", [dist.cayley(2.0), dist.fisher_von_mises(20.0)],
                             ids=["cayley", "fvm"])
    def test_draws_into_the_given_z(self, spec):
        work, z = np.empty((6, 1000)), np.empty((3, 1000))
        assert dist._sample_quaternions(spec, np.random.default_rng(34), work, z) is z

    @pytest.mark.parametrize("spec", [dist.haar(), dist.cayley(2.0), dist.fisher_von_mises(0.0)],
                             ids=["haar", "cayley", "fvm-zero"])
    def test_one_draw_sums_the_triple_in_the_documented_order(self, spec):
        # x_c of a one-draw call, bit for bit, replayed from the documented
        # draw order with |z|^2 / 2 summed as (z0^2 + z1^2) + z2^2
        for seed in range(40):
            x_c = quaternion_draws(spec, 1, np.random.default_rng(seed))[2][0]
            rng = np.random.default_rng(seed)
            g1 = float(rng.standard_gamma(spec.kappa + 0.5))
            z0, z1, z2 = (float(v) for v in rng.standard_normal(3))
            t = ((z0 * z0 + z1 * z1) + z2 * z2) * 0.5
            assert x_c == t / (g1 + t), seed

    def test_fvm_angle_keeps_its_scaling_up_to_the_largest_kappa(self):
        # theta ~ c / sqrt(kappa) at large kappa, the same c for the same
        # seed: no product with kappa in the envelope may overflow to inf
        def scaled_theta(kappa):
            theta = dist.sample_rotations(dist.fisher_von_mises(kappa), 200,
                                          np.random.default_rng(33))[2]
            assert np.all(theta > 0.0), kappa
            return theta * math.sqrt(kappa)

        reference = scaled_theta(1e300)
        for kappa in (1e306, 1e307, 1e308, sys.float_info.max):
            assert np.max(np.abs(scaled_theta(kappa) / reference - 1.0)) <= 1e-11, kappa

    @pytest.mark.parametrize("family", ["cayley", "fvm"])
    @pytest.mark.parametrize("kappa", [1e6, 1e10, 1e14, 1e100])
    def test_angle_against_mpmath(self, family, kappa):
        # theta = 2 atan(sqrt(t / g1)), t = |z|^2 / (2 omega), at 50 digits
        # from the very g1 and z the draw was built from
        spec = dist.DistributionSpec(family, kappa=kappa)
        n, seed = 200, 32
        theta = dist.sample_rotations(spec, n, np.random.default_rng(seed))[2]
        z = quaternion_draws(spec, n, np.random.default_rng(seed))[3]
        g1 = replayed_gammas(spec, n, seed, z)
        assert not np.any(np.isnan(g1))
        inv_omega = 1.0 if family == "cayley" else dist._fvm_envelope(kappa)[0]
        with mpmath.workdps(50):
            for i in range(n):
                t = mpmath.mpf(inv_omega) * mpmath.fsum(mpmath.mpf(v) ** 2 for v in z[:, i]) / 2
                exact = 2 * mpmath.atan(mpmath.sqrt(t / mpmath.mpf(g1[i])))
                assert abs(theta[i] / exact - 1) <= 1e-15, (i, theta[i], exact)

    @pytest.mark.parametrize("spec", [dist.haar()]
                             + [dist.cayley(k) for k in EXTREME_KAPPAS]
                             + [dist.fisher_von_mises(k) for k in EXTREME_KAPPAS],
                             ids=["haar"] + ["cayley-%g" % k for k in EXTREME_KAPPAS]
                             + ["fvm-%g" % k for k in EXTREME_KAPPAS])
    def test_complement_follows_the_exact_law(self, spec):
        # P(1 - X <= c) = P(X > 1 - c), taken at 500 evenly spaced order
        # statistics: a lower bound of the full KS distance, since the fvm
        # tail costs one quadrature per point
        x_c = np.sort(quaternion_draws(spec, KS_N, np.random.default_rng(40))[2])
        ranks = np.linspace(1, KS_N, 500).round().astype(int)
        cdf = np.array([cls._tail(spec, 1.0 - c, c) for c in x_c[ranks - 1]])
        assert ks_one_sample(cdf, ranks, KS_N) < KS_CRITICAL

    @pytest.mark.parametrize("spec", [dist.cayley(2.0), dist.fisher_von_mises(20.0)],
                             ids=["cayley", "fvm"])
    def test_axis_third_component_is_uniform(self, spec):
        axes = dist.sample_rotations(spec, KS_N, np.random.default_rng(41))[1]
        ranks = np.arange(1, KS_N + 1)
        cdf = (np.sort(axes[:, 2]) + 1.0) / 2.0
        assert ks_one_sample(cdf, ranks, KS_N) < KS_CRITICAL


class TestSampleRotation:
    def test_haar_mean_trace(self):
        rng = np.random.default_rng(17)
        P = dist.sample_rotations(dist.haar(), 10 ** 6, rng)[0]
        traces = np.einsum("nii->n", P)
        assert abs(traces.mean()) < 0.01

    def test_cayley_mean_z_entry_matches_tau1(self):
        spec = dist.cayley(2.0)
        rng = np.random.default_rng(18)
        P = dist.sample_rotations(spec, 10 ** 6, rng)[0]
        z = P[:, 2, 2]
        tau1 = tau_from_rho(moments.rho_moment(spec, 1), moments.rho_moment(spec, 2))[0]
        se = z.std(ddof=1) / math.sqrt(z.size)
        assert abs(z.mean() - tau1) < 3.0 * se

    def test_samples_are_rotations(self):
        rng = np.random.default_rng(19)
        M = random_rotation(rng)
        P = dist.sample_rotations(dist.fisher_von_mises(2.0, modal=M), 200, rng)[0]
        for R in P:
            assert so3.is_rotation(R)

    def test_spherical_cosine_law_per_sample(self):
        rng = np.random.default_rng(20)
        R, axes, angles, _ = dist.sample_rotations(dist.cayley(1.0), 5000, rng)
        predicted = axes[:, 2] ** 2 + (1.0 - axes[:, 2] ** 2) * np.cos(angles)
        assert np.max(np.abs(R[:, 2, 2] - predicted)) < 1e-12

    def test_scalar_form(self):
        rng = np.random.default_rng(21)
        assert so3.is_rotation(dist.sample_rotations(dist.cayley(1.0), 1, rng)[0][0])


class TestConjugationInvariance:
    def test_conjugated_z_entry_distribution(self):
        spec = dist.cayley(1.5)
        rng = np.random.default_rng(22)
        n = 10 ** 5
        Ra = dist.sample_rotations(spec, n, rng)[0]
        Rb = dist.sample_rotations(spec, n, rng)[0]
        Q = random_rotation(rng)
        conj = np.einsum("ji,njk,kl->nil", Q, Ra, Q)
        stat = ks_statistic(conj[:, 2, 2], Rb[:, 2, 2])
        assert stat < ks_critical(n, n, alpha=0.001)

    def test_trace_distribution_stable(self):
        spec = dist.cayley(1.5)
        rng = np.random.default_rng(23)
        n = 10 ** 5
        ta = np.einsum("nii->n", dist.sample_rotations(spec, n, rng)[0])
        tb = np.einsum("nii->n", dist.sample_rotations(spec, n, rng)[0])
        assert ks_statistic(ta, tb) < ks_critical(n, n, alpha=0.001)

    def test_transpose_symmetry_moments(self):
        spec = dist.fisher_von_mises(1.0)
        rng = np.random.default_rng(24)
        n = 2 * 10 ** 5
        Ra = dist.sample_rotations(spec, n, rng)[0]
        Rb = dist.sample_rotations(spec, n, rng)[0]
        za, zb = Ra[:, 2, 2], np.transpose(Rb, (0, 2, 1))[:, 2, 2]
        se = math.hypot(za.std(ddof=1), zb.std(ddof=1)) / math.sqrt(n)
        assert abs(za.mean() - zb.mean()) < 3.0 * se
        # the genuinely off-diagonal transpose pair
        oa, ob = Ra[:, 0, 2], np.transpose(Rb, (0, 2, 1))[:, 0, 2]
        se = math.hypot(oa.std(ddof=1), ob.std(ddof=1)) / math.sqrt(n)
        assert abs(oa.mean() - ob.mean()) < 4.0 * se


class SpawnLog:
    """A numpy Generator proxy that records the size of every ``spawn``."""

    def __init__(self, rng):
        self._rng = rng
        self.sizes = []

    def spawn(self, n_children):
        self.sizes.append(n_children)
        return self._rng.spawn(n_children)


def uniform_sums(work, rng):
    m = work.shape[1]
    x = rng.uniform(size=m)
    return m, x.sum(), x @ x


class TestMcSum:
    def test_chunk_i_draws_from_child_i(self, monkeypatch):
        monkeypatch.setattr(dist, "MC_CHUNK", 3)
        children = np.random.default_rng(5).spawn(4)
        parts = [uniform_sums(np.empty((1, m)), child) for m, child in zip((3, 3, 3, 1), children)]
        want = parts[0]
        for part in parts[1:]:
            want = tuple(a + b for a, b in zip(want, part))
        assert dist.mc_sum(uniform_sums, 1, 10, np.random.default_rng(5)) == want

    @pytest.mark.parametrize("threads", [2, 3, 8])
    def test_same_bits_for_every_thread_count(self, threads, monkeypatch):
        monkeypatch.setattr(dist, "MC_CHUNK", 1000)
        one = dist.mc_sum(uniform_sums, 1, 100003, np.random.default_rng(6))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # a lost or reordered chunk would change the sums
        try:
            many = dist.mc_sum(uniform_sums, 1, 100003, np.random.default_rng(6), threads)
        finally:
            sys.setswitchinterval(interval)
        assert many == one

    def test_spawn_batches_are_bounded(self, monkeypatch):
        monkeypatch.setattr(dist, "MC_CHUNK", 10)
        rng = SpawnLog(np.random.default_rng(7))
        total = dist.mc_sum(uniform_sums, 1, 95, rng, threads=3)
        assert total[0] == 95
        assert sum(rng.sizes) == 10
        assert all(size <= min(3, os.cpu_count() or 1) for size in rng.sizes), rng.sizes

    def test_one_workspace_per_worker_never_shared(self, monkeypatch):
        monkeypatch.setattr(dist, "MC_CHUNK", 1000)
        lock = threading.Lock()
        busy, seen, overlaps, layouts = set(), set(), [], []

        def kernel(work, rng):
            address = work.ctypes.data
            with lock:
                if address in busy:
                    overlaps.append(address)
                busy.add(address)
                seen.add(address)
                layouts.append((work.shape, work.flags.c_contiguous))
            try:
                for _ in range(50):  # Python work the switch interval can cut
                    pass
                return uniform_sums(work, rng)
            finally:
                with lock:
                    busy.discard(address)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            total = dist.mc_sum(kernel, 2, 100003, np.random.default_rng(8), threads=3)
        finally:
            sys.setswitchinterval(interval)
        assert total[0] == 100003
        assert len(seen) == min(3, os.cpu_count() or 1)
        assert overlaps == []
        assert sorted(layouts) == [((2, 3), True)] + [((2, 1000), True)] * 100
        seen.clear()
        assert dist.mc_sum(kernel, 2, 1000, np.random.default_rng(9), threads=3)[0] == 1000
        assert len(seen) == 1  # one chunk needs one workspace

    def test_domain(self, monkeypatch):
        monkeypatch.setattr(dist, "MC_CHUNK", 3)
        with pytest.raises(DomainError):
            dist.mc_sum(uniform_sums, 1, 10, np.random.default_rng(0), threads=0)
        with pytest.raises(ValueError):
            dist.mc_sum(uniform_sums, 1, 0, np.random.default_rng(0))
