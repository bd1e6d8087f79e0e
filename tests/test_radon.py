import math
import warnings

import mpmath
import numpy as np
import pytest

from conftest import (from_axis_angle_batch, g_kernel_projected_gram, is_gram, ks_statistic,
                      limit_gram_kappa_infinity, project, projected_gram_dispersion_route,
                      quaternion_draws, random_rotation, rotation_with_third_row, same_bits,
                      shape_dispersion_matrix)
from rotgram import distributions as dist
from rotgram import moments, radon, so3
from rotgram.errors import DomainError

E3 = np.array([0.0, 0.0, 1.0])
EPS = np.finfo(float).eps
CROSS_ROUTE_GRID = [dist.haar(), dist.cayley(0.5), dist.cayley(1.0), dist.cayley(2.0),
                    dist.cayley(1e6), dist.fisher_von_mises(1e-4), dist.fisher_von_mises(2.0),
                    dist.fisher_von_mises(20.0)]


def random_landmarks(rng):
    """A 3 x k landmark matrix, k in 1..4, at a scale from 1e-150 to 1e150,
    with some zero entries and zero columns."""
    V = rng.normal(size=(3, int(rng.integers(1, 5)))) * 10.0 ** rng.uniform(-150.0, 150.0)
    V[rng.random(V.shape) < 0.15] = 0.0
    V[:, rng.random(V.shape[1]) < 0.15] = 0.0
    return V


def landmark_scale(V):
    """|v_i||v_j|, the scale of entry (i, j) of Gram(V)."""
    norms = np.linalg.norm(V, axis=0)
    return np.outer(norms, norms)


class TestGram:
    def test_orthonormal_columns(self):
        V = np.column_stack([np.array([1.0, 0, 0]), np.array([0.0, 1, 0])])
        np.testing.assert_array_equal(radon.gram(V), np.eye(2))

    def test_zero(self):
        np.testing.assert_array_equal(radon.gram(np.zeros((3, 4))), np.zeros((4, 4)))

    def test_rotation_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            V = rng.normal(size=(3, 4))
            A = random_rotation(rng)
            assert np.max(np.abs(radon.gram(A @ V) - radon.gram(V))) < 1e-12

    def test_is_gram(self):
        assert is_gram(np.eye(2))
        assert is_gram(np.zeros((3, 3)))
        assert not is_gram(np.array([[1.0, 2.0], [2.0, 1.0]]))  # negative eigenvalue
        assert not is_gram(np.array([[1.0, 0.1], [0.0, 1.0]]))  # asymmetric


class TestProject:
    def test_annihilates_e3(self):
        V = E3.reshape(3, 1)
        np.testing.assert_array_equal(project(np.eye(3), V), np.zeros((3, 1)))

    def test_keeps_e1(self):
        V = np.array([1.0, 0.0, 0.0]).reshape(3, 1)
        np.testing.assert_array_equal(project(np.eye(3), V), V)

    def test_loewner_contraction(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            V = rng.normal(size=(3, 3))
            A = random_rotation(rng)
            gap = radon.gram(V) - radon.gram(project(A, V))
            assert np.linalg.eigvalsh(gap)[0] >= -1e-10


class TestExpectedProjectedGram:
    def test_haar_identity_landmarks(self):
        E = radon.expected_projected_gram(dist.haar(), np.eye(3))
        np.testing.assert_allclose(E, (2.0 / 3.0) * np.eye(3), atol=1e-9)

    def test_cayley_one_any_modal_matches_haar_value(self):
        M = random_rotation(np.random.default_rng(2))
        E = radon.expected_projected_gram(dist.cayley(1.0, modal=M), np.eye(3))
        np.testing.assert_allclose(E, (2.0 / 3.0) * np.eye(3), atol=1e-9)

    def test_cayley_two_modal_identity(self):
        E = radon.expected_projected_gram(dist.cayley(2.0), np.eye(3))
        np.testing.assert_allclose(E, np.diag([0.7, 0.7, 0.6]), atol=1e-9)

    @pytest.mark.parametrize("spec", [
        dist.haar(),
        dist.cayley(0.7),
        dist.cayley(3.0),
        dist.fisher_von_mises(1.3),
    ])
    def test_dispersion_trace_is_one(self, spec):
        D = shape_dispersion_matrix(spec)
        assert abs(np.trace(D @ D) - 1.0) < 1e-12

    def test_fake_uniformity_indistinguishable(self):
        # tau2 - 1/3 is exactly 0 at Cayley-LMR kappa = 1, so the modal
        # rotation drops out bit for bit, from landmarks at 1e-150 to 1e150
        rng = np.random.default_rng(3)
        for _ in range(2000):
            V = random_landmarks(rng)
            spec = dist.cayley(1.0, modal=random_rotation(rng))
            Ec = radon.expected_projected_gram(spec, V)
            assert same_bits(Ec, radon.expected_projected_gram(dist.haar(), V))
            bias = radon.naive_recovery_bias(spec, V)
            assert np.all(bias == 0.0) and not np.signbit(bias).any()

    @pytest.mark.parametrize("centred", CROSS_ROUTE_GRID)
    def test_matches_the_dispersion_route(self, centred):
        # within 4 eps |v_i||v_j| of Gram(V) - Gram(D M V), and the bias of
        # 1.5 E - Gram(V) as recover_gram forms it at tau2 = 1/3
        rng = np.random.default_rng(17)
        for _ in range(200):
            V = random_landmarks(rng)
            spec = dist.DistributionSpec(centred.family, modal=random_rotation(rng),
                                         kappa=centred.kappa)
            E = radon.expected_projected_gram(spec, V)
            bound = 4.0 * EPS * landmark_scale(V)
            assert np.all(np.abs(E - projected_gram_dispersion_route(spec, V)) <= bound)
            routed = radon.recover_gram(E, 1.0 / 3.0, (spec.modal @ V)[2]) - radon.gram(V)
            assert np.all(np.abs(radon.naive_recovery_bias(spec, V) - routed) <= bound)

    @pytest.mark.parametrize("centred", CROSS_ROUTE_GRID)
    def test_matches_mpmath(self, centred):
        # the same forms in e = tau2 - 1/3, taken as given, at 40 digits
        rng = np.random.default_rng(18)
        for _ in range(3):
            V = rng.normal(size=(3, 4))
            spec = dist.DistributionSpec(centred.family, modal=random_rotation(rng),
                                         kappa=centred.kappa)
            with mpmath.workdps(40):
                e = mpmath.mpf(moments.tau2_excess(spec))
                Vm = mpmath.matrix(V.tolist())
                G = Vm.T * Vm
                w = (mpmath.matrix(spec.modal.tolist()) * Vm)[2, :]
                bias = [[e * (3 * G[i, j] - 9 * w[i] * w[j]) / 4 for j in range(4)]
                        for i in range(4)]
                exact_bias = np.array(bias, dtype=float)
                exact_E = np.array([[2 * (G[i, j] + bias[i][j]) / 3 for j in range(4)]
                                    for i in range(4)], dtype=float)
            bound = 4.0 * EPS * landmark_scale(V)
            assert np.all(np.abs(radon.naive_recovery_bias(spec, V) - exact_bias) <= bound)
            assert np.all(np.abs(radon.expected_projected_gram(spec, V) - exact_E) <= bound)


class TestMcProjectedGram:
    def test_matches_closed_form(self):
        rng = np.random.default_rng(4)
        V = rng.normal(size=(3, 3))
        V /= np.linalg.norm(V, axis=0)
        M = random_rotation(rng)
        for spec in (dist.haar(), dist.cayley(1.0, modal=M),
                     dist.cayley(2.0, modal=M), dist.fisher_von_mises(1.0, modal=M),
                     dist.fisher_von_mises(2.0, modal=M)):
            G, se = radon.mc_projected_gram(spec, V, 2 * 10 ** 5, rng)
            E = radon.expected_projected_gram(spec, V)
            assert np.all(np.abs(G - E) <= 4.0 * se + 1e-12)
            assert np.max(np.abs(G - E)) < 0.02

    def test_single_draw_is_psd(self):
        rng = np.random.default_rng(5)
        G, _ = radon.mc_projected_gram(dist.haar(), np.eye(3), 1, rng)
        assert is_gram(G)

    def test_seeded_reproducibility(self):
        V = np.eye(3)
        a = radon.mc_projected_gram(dist.cayley(1.0), V, 10 ** 5, np.random.default_rng(9))
        b = radon.mc_projected_gram(dist.cayley(1.0), V, 10 ** 5, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)

    def test_rejects_zero_draws(self):
        with pytest.raises(ValueError):
            radon.mc_projected_gram(dist.haar(), np.eye(3), 0, np.random.default_rng(0))

    @pytest.mark.parametrize("n", [1000, dist.MC_CHUNK, 2 * dist.MC_CHUNK + 12345])
    def test_matches_per_draw_oracle(self, n):
        # the same chunked draws, chunk i from the i-th spawned child,
        # reduced draw by draw as Gram(H A V)
        rng = np.random.default_rng(13)
        V = rng.normal(size=(3, 4))
        spec = dist.cayley(2.0, modal=random_rotation(rng))
        mean, se = radon.mc_projected_gram(spec, V, n, np.random.default_rng(14))
        starts = range(0, n, dist.MC_CHUNK)
        children = np.random.default_rng(14).spawn(len(starts))
        grams = []
        for start, child in zip(starts, children):
            A = dist.sample_rotations(spec, min(dist.MC_CHUNK, n - start), child)[0]
            B = A[:, :2, :] @ V
            grams.append(np.einsum("ndj,ndl->njl", B, B))
        G = np.concatenate(grams)
        np.testing.assert_allclose(mean, G.mean(axis=0), rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(se, G.std(axis=0, ddof=1) / math.sqrt(n), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n", [1000, dist.MC_CHUNK + 1])
    @pytest.mark.parametrize("k", [1, 4, 32])
    @pytest.mark.parametrize("centred", [dist.haar(), dist.cayley(2.0), dist.fisher_von_mises(20.0)],
                             ids=["haar", "cayley-2", "fvm-20"])
    def test_matches_the_g_kernel_oracle(self, centred, k, n):
        # the same draws reduced through g = (M V)^T r in a workspace of
        # 8 + k rows: the mean within 8 eps |v_a||v_b|, and the variance
        # n se^2 within 16 eps |v_a|^2 |v_b|^2, the scale of its fourth
        # moment (up to 3.6 and 6.6 eps over 12 seeds, at fvm kappa = 20)
        rng = np.random.default_rng(22)
        V = rng.normal(size=(3, k))
        spec = dist.DistributionSpec(centred.family, modal=random_rotation(rng),
                                     kappa=centred.kappa)
        mean, se = radon.mc_projected_gram(spec, V, n, np.random.default_rng(23))
        oracle_mean, oracle_se = g_kernel_projected_gram(spec, V, n, np.random.default_rng(23))
        scale = landmark_scale(V)
        assert np.all(np.abs(mean - oracle_mean) <= 8.0 * EPS * scale)
        assert np.all(np.abs(se * se - oracle_se * oracle_se) * n <= 16.0 * EPS * scale * scale)
        np.testing.assert_array_equal(se, se.T)

    @pytest.mark.parametrize("spec", [dist.cayley(2.0, modal=so3.from_axis_angle(E3, 0.7)),
                                      dist.fisher_von_mises(20.0, modal=random_rotation(
                                          np.random.default_rng(19)))])
    def test_kernel_rows_are_third_rows_of_the_draws(self, spec):
        # the same child stream gives the kernel's rows and the full draws
        m = 5000
        q, x, x_c, z = quaternion_draws(spec, m, np.random.default_rng(20).spawn(1)[0])
        rows = so3.rotation_row(q, 2, np.empty((3, m)), np.empty(m))
        axes = (z / np.linalg.norm(z, axis=0)).T
        oracle = from_axis_angle_batch(axes, 2.0 * np.arctan2(np.sqrt(x_c), np.sqrt(x)))
        assert np.max(np.abs(rows.T - oracle[:, 2, :])) <= 1e-14
        P = dist.sample_rotations(spec, m, np.random.default_rng(20).spawn(1)[0])[0]
        np.testing.assert_allclose(rows.T @ spec.modal, P[:, 2, :], rtol=0.0, atol=1e-15)

    def test_large_landmarks_scale_exactly(self):
        # the fourth powers in the stderr overflowed to nan at 1e80
        V = np.array([[1e80, 0.0, 3e79], [0.0, 1e80, -2e79], [5e79, 2.5e79, 1e80]])
        spec = dist.cayley(2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mean, se = radon.mc_projected_gram(spec, V, 1000, np.random.default_rng(4))
        assert np.all(np.isfinite(mean)) and np.all(np.isfinite(se))
        # powers of two are exact: the same sums as for V / 2^266
        small_mean, small_se = radon.mc_projected_gram(spec, np.ldexp(V, -266), 1000,
                                                       np.random.default_rng(4))
        np.testing.assert_array_equal(se, np.ldexp(small_se, 532))
        np.testing.assert_array_equal(mean, np.ldexp(small_mean, 532))

    def test_mixed_landmark_scales_keep_their_standard_errors(self):
        # with one power of two for all of V, the fourth powers of the unit
        # landmarks underflowed beside 1e100 and their standard errors read 0;
        # scaled landmark by landmark, their entries are those of V = I
        n = 20000
        mean, se = radon.mc_projected_gram(dist.haar(), np.diag([1e100, 1.0, 1.0]), n,
                                           np.random.default_rng(17))
        unit_mean, unit_se = radon.mc_projected_gram(dist.haar(), np.eye(3), n,
                                                     np.random.default_rng(17))
        assert np.all(se[1:, 1:] > 1e-3)
        np.testing.assert_array_equal(se[1:, 1:], unit_se[1:, 1:])
        np.testing.assert_array_equal(mean[1:, 1:], unit_mean[1:, 1:])

    def test_mean_is_symmetric(self):
        V = np.random.default_rng(15).normal(size=(3, 5))
        G, _ = radon.mc_projected_gram(dist.cayley(1.0), V, 5000, np.random.default_rng(16))
        np.testing.assert_array_equal(G, G.T)


class TestRecoverGram:
    def test_fake_uniform_point_ignores_w(self):
        rng = np.random.default_rng(6)
        E = radon.gram(rng.normal(size=(3, 3)))
        for _ in range(3):
            w = rng.normal(size=3)
            np.testing.assert_allclose(radon.recover_gram(E, 1.0 / 3.0, w), 1.5 * E, atol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            V = rng.normal(size=(3, 4))
            M = random_rotation(rng)
            spec = dist.cayley(2.0, modal=M)
            E = radon.expected_projected_gram(spec, V)
            tau2 = moments.tau_k(spec, 2)
            w = (M @ V)[2, :]
            recovered = radon.recover_gram(E, tau2, w)
            assert np.max(np.abs(recovered - radon.gram(V))) < 1e-10

    def test_naive_recovery_bias_formula(self):
        rng = np.random.default_rng(8)
        V = rng.normal(size=(3, 3))
        M = random_rotation(rng)
        spec = dist.cayley(2.0, modal=M)
        E = radon.expected_projected_gram(spec, V)
        tau2 = moments.tau_k(spec, 2)
        w = (M @ V)[2, :]
        bias = 1.5 * E - radon.gram(V)
        predicted = ((3.0 * tau2 - 1.0) / 4.0) * (radon.gram(V) - 3.0 * np.outer(w, w))
        np.testing.assert_allclose(bias, predicted, atol=1e-9)
        assert np.max(np.abs(bias)) > 0.01

    def test_fake_uniform_recovery_is_the_naive_formula_bitwise(self):
        # recovery under the uniform law, recover_gram(E, 1/3, w) - Gram(V),
        # is 1.5 E - Gram(V) bit for bit, signs of zero included, from
        # landmarks at 1e-150 to 1e150
        rng = np.random.default_rng(10)
        for _ in range(2000):
            V = random_landmarks(rng)
            family = ("haar", "cayley", "fvm")[int(rng.integers(3))]
            kappa = 0.0 if family == "haar" else float(rng.uniform(0.0, 5.0))
            spec = dist.DistributionSpec(family, modal=random_rotation(rng), kappa=kappa)
            E = radon.expected_projected_gram(spec, V)
            routed = radon.recover_gram(E, 1.0 / 3.0, (spec.modal @ V)[2]) - radon.gram(V)
            naive = 1.5 * E - radon.gram(V)
            np.testing.assert_array_equal(routed, naive)
            np.testing.assert_array_equal(np.signbit(routed), np.signbit(naive))

    @pytest.mark.parametrize("kappa", [1e17, 1e300])
    def test_round_trip_where_tau2_rounds_to_one(self, kappa):
        rng = np.random.default_rng(12)
        for _ in range(50):
            V = rng.normal(size=(3, 4))
            spec = dist.cayley(kappa, modal=random_rotation(rng))
            tau2 = moments.tau2(spec)
            assert tau2 == 1.0
            E = radon.expected_projected_gram(spec, V)
            recovered = radon.recover_gram(E, tau2, (spec.modal @ V)[2])
            assert np.all(np.abs(recovered - radon.gram(V)) <= 1e-15 * landmark_scale(V))

    def test_domain(self):
        np.testing.assert_array_equal(radon.recover_gram(np.eye(2), 1.0, np.ones(2)),
                                      np.eye(2) + 1.0)
        for tau2 in (0.0, -0.5, math.nextafter(1.0, 2.0), math.nan):
            with pytest.raises(DomainError):
                radon.recover_gram(np.eye(2), tau2, np.zeros(2))


class TestKappaInfinityLimit:
    def test_identity_configuration(self):
        np.testing.assert_array_equal(
            limit_gram_kappa_infinity(np.eye(3), np.eye(3)), np.diag([1.0, 1.0, 0.0])
        )

    def test_e3_landmark_vanishes(self):
        limit = limit_gram_kappa_infinity(np.eye(3), E3.reshape(3, 1))
        np.testing.assert_allclose(limit, np.zeros((1, 1)), atol=1e-15)

    def test_consistent_with_recover_algebra(self):
        # the limit equals Gram(V) - w w^T with w the third row of M V
        rng = np.random.default_rng(9)
        V = rng.normal(size=(3, 4))
        M = random_rotation(rng)
        w = (M @ V)[2, :]
        np.testing.assert_allclose(
            limit_gram_kappa_infinity(M, V),
            radon.gram(V) - np.outer(w, w), atol=1e-12,
        )

    def test_large_kappa_convergence_rate(self):
        # deviation from the limit shrinks like 1/kappa
        M = rotation_with_third_row([0.6, -0.6, math.sqrt(1.0 - 0.72)])
        V = np.column_stack([np.eye(3), np.ones(3) / math.sqrt(3.0)])
        lim = limit_gram_kappa_infinity(M, V)
        devs = []
        for kappa in (250.0, 500.0, 1000.0):
            E = radon.expected_projected_gram(dist.cayley(kappa, modal=M), V)
            devs.append(np.max(np.abs(E - lim)))
        assert 1.6 < devs[0] / devs[1] < 2.4
        assert 1.6 < devs[1] / devs[2] < 2.4


class TestGramDistributionComparison:
    def test_expectation_equal_full_distribution_reported(self):
        # Expectations provably coincide at the fake-uniformity point; the
        # KS distance of tr Gram(H A V) between the two laws is reported
        # without an assertion because equality in distribution is not
        # established by the expectation identity alone.
        rng = np.random.default_rng(10)
        V = np.eye(3)
        M = random_rotation(rng)
        n = 10 ** 5
        A_c = dist.sample_rotations(dist.cayley(1.0, modal=M), n, rng)[0]
        A_h = dist.sample_rotations(dist.haar(), n, rng)[0]
        B_c = A_c[:, :2, :] @ V
        B_h = A_h[:, :2, :] @ V
        tr_c = np.einsum("ndj,ndj->n", B_c, B_c)
        tr_h = np.einsum("ndj,ndj->n", B_h, B_h)
        assert abs(tr_c.mean() - tr_h.mean()) < 0.02
        stat = ks_statistic(tr_c, tr_h)
        assert 0.0 <= stat <= 1.0
        print("\nKS(tr Gram(HAV); Cayley kappa=1 vs Haar) = %.5f "
              "(reported, not asserted)" % stat)
