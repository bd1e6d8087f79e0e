import math
import warnings

import numpy as np
import pytest

from conftest import (is_gram, ks_statistic, limit_gram_kappa_infinity, project, random_rotation,
                      rotation_with_third_row)
from rotgram import distributions as dist
from rotgram import moments, radon, so3
from rotgram.errors import DomainError

E3 = np.array([0.0, 0.0, 1.0])


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
        D = radon.shape_dispersion_matrix(spec)
        assert abs(np.trace(D @ D) - 1.0) < 1e-12

    def test_fake_uniformity_indistinguishable(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            V = rng.normal(size=(3, 4))
            M = random_rotation(rng)
            Ec = radon.expected_projected_gram(dist.cayley(1.0, modal=M), V)
            Eh = radon.expected_projected_gram(dist.haar(), V)
            assert np.max(np.abs(Ec - Eh)) < 1e-10


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

    @pytest.mark.parametrize("n", [1000, radon.MC_CHUNK, 2 * radon.MC_CHUNK + 12345])
    def test_matches_per_draw_oracle(self, n):
        # the same chunked draws, chunk i from the i-th spawned child,
        # reduced draw by draw as Gram(H A V)
        rng = np.random.default_rng(13)
        V = rng.normal(size=(3, 4))
        spec = dist.cayley(2.0, modal=random_rotation(rng))
        mean, se = radon.mc_projected_gram(spec, V, n, np.random.default_rng(14))
        starts = range(0, n, radon.MC_CHUNK)
        children = np.random.default_rng(14).spawn(len(starts))
        grams = []
        for start, child in zip(starts, children):
            A = dist.sample_rotations(spec, min(radon.MC_CHUNK, n - start), child)
            B = A[:, :2, :] @ V
            grams.append(np.einsum("ndj,ndl->njl", B, B))
        G = np.concatenate(grams)
        np.testing.assert_allclose(mean, G.mean(axis=0), rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(se, G.std(axis=0, ddof=1) / math.sqrt(n), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("spec", [dist.cayley(2.0, modal=so3.from_axis_angle(E3, 0.7)),
                                      dist.fisher_von_mises(20.0, modal=random_rotation(
                                          np.random.default_rng(19)))])
    def test_kernel_rows_are_third_rows_of_the_draws(self, spec):
        # the same child stream gives the kernel's rows and the full draws
        m = 5000
        q = dist._sample_quaternions(spec, m, np.random.default_rng(20).spawn(1)[0])[0]
        rows = radon._third_rows(q)
        np.testing.assert_array_equal(rows.T, so3.from_quaternion_batch(q[0], q[1:].T)[:, 2, :])
        P = dist.sample_rotations(spec, m, np.random.default_rng(20).spawn(1)[0])
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
        # ``rotgram gram`` prints recover_gram(E, 1/3, w) - Gram(V) as its
        # naive-bias block; it is 1.5 E - Gram(V) bit for bit, signs of zero
        # included, from landmarks at 1e-150 to 1e150
        rng = np.random.default_rng(10)
        for _ in range(2000):
            V = rng.normal(size=(3, int(rng.integers(1, 5)))) * 10.0 ** rng.uniform(-150.0, 150.0)
            V[rng.random(V.shape) < 0.15] = 0.0
            V[:, rng.random(V.shape[1]) < 0.15] = 0.0
            family = ("haar", "cayley", "fvm")[int(rng.integers(3))]
            kappa = 0.0 if family == "haar" else float(rng.uniform(0.0, 5.0))
            spec = dist.DistributionSpec(family, modal=random_rotation(rng), kappa=kappa)
            E = radon.expected_projected_gram(spec, V)
            routed = radon.recover_gram(E, 1.0 / 3.0, (spec.modal @ V)[2]) - radon.gram(V)
            naive = 1.5 * E - radon.gram(V)
            np.testing.assert_array_equal(routed, naive)
            np.testing.assert_array_equal(np.signbit(routed), np.signbit(naive))

    def test_domain(self):
        with pytest.raises(DomainError):
            radon.recover_gram(np.eye(2), 0.0, np.zeros(2))
        with pytest.raises(DomainError):
            radon.recover_gram(np.eye(2), 1.0, np.zeros(2))


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
        A_c = dist.sample_rotations(dist.cayley(1.0, modal=M), n, rng)
        A_h = dist.sample_rotations(dist.haar(), n, rng)
        B_c = A_c[:, :2, :] @ V
        B_h = A_h[:, :2, :] @ V
        tr_c = np.einsum("ndj,ndj->n", B_c, B_c)
        tr_h = np.einsum("ndj,ndj->n", B_h, B_h)
        assert abs(tr_c.mean() - tr_h.mean()) < 0.02
        stat = ks_statistic(tr_c, tr_h)
        assert 0.0 <= stat <= 1.0
        print("\nKS(tr Gram(HAV); Cayley kappa=1 vs Haar) = %.5f "
              "(reported, not asserted)" % stat)
