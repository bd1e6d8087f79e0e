"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -v -s tests/test_acceptance.py``)."""

import math
import time

import numpy as np

from conftest import (fz_closed_cayley, limit_gram_kappa_infinity, rotation_with_third_row,
                      shape_dispersion_matrix, tau2_of_kappa, tau_from_rho)
from rotgram import classifier as cls
from rotgram import cli
from rotgram import distributions as dist
from rotgram import fake_uniformity as fu
from rotgram import moments, radon, so3

E3 = np.array([0.0, 0.0, 1.0])


def report(num, name, ok, detail=""):
    line = "criterion %02d [%s]: %s" % (num, name, "PASS" if ok else "FAIL")
    if detail:
        line += "  (%s)" % detail
    print("\n" + line)
    assert ok, line


def generic_modal():
    return rotation_with_third_row([0.6, -0.6, math.sqrt(1.0 - 0.72)])


def test_criterion_01_fake_uniformity_root():
    t0 = time.perf_counter()
    root = fu.find_fake_uniformity("cayley", 5.0)
    tau2_at_one = tau2_of_kappa("cayley", 1.0)
    elapsed = time.perf_counter() - t0
    ok = (
        root is not None
        and abs(root - 1.0) <= 1e-8
        and abs(tau2_at_one - 1.0 / 3.0) <= 1e-12
        and elapsed < 1.0
    )
    report(1, "fake-uniformity root", ok,
           "root=%.12f tau2(1)-1/3=%.2e %.3fs" % (root, tau2_at_one - 1.0 / 3.0, elapsed))


def test_criterion_02_figure1_reproduction(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "figure1.csv"
    code = cli.main(["figure1", "--kappa-max", "1.0", "--n-points", "101",
                     "--out", str(out)])
    table = np.loadtxt(out, delimiter=",", skiprows=1)
    elapsed = time.perf_counter() - t0
    kappa, cay, fvm = table[:, 0], table[:, 1], table[:, 2]
    closed = 2.0 * (kappa ** 2 - kappa) / (3.0 * (6.0 + 5.0 * kappa + kappa ** 2))
    argmin = kappa[int(np.argmin(cay))]
    ok = (
        code == 0
        and table.shape == (101, 3)
        and abs(cay[0]) <= 1e-9 and abs(cay[-1]) <= 1e-9
        and bool(np.all(cay[1:-1] < 0.0))
        and abs(argmin - (math.sqrt(2.0) - 1.0)) <= 0.01
        and bool(np.all(np.abs(cay - closed) <= 1e-9))
        and abs(fvm[0]) <= 1e-9
        and bool(np.all(np.abs(fvm[1:]) > 1e-9))
        and elapsed < 30.0
    )
    report(2, "figure-1 reproduction", ok,
           "argmin=%.2f min=%.6f %.1fs" % (argmin, float(np.min(cay)), elapsed))


def test_criterion_03_dispersion_matrix_fixture():
    worst_diag = 0.0
    worst_trace = 0.0
    for kappa in (0.0, 1.0, 2.0, 5.0):
        D = shape_dispersion_matrix(dist.cayley(kappa))
        denom = 6.0 + 5.0 * kappa + kappa * kappa
        closed = np.diag([
            math.sqrt(2.0 * (kappa + 1.0) / denom),
            math.sqrt(2.0 * (kappa + 1.0) / denom),
            math.sqrt((2.0 + kappa + kappa * kappa) / denom),
        ])
        worst_diag = max(worst_diag, float(np.max(np.abs(D - closed))))
        worst_trace = max(worst_trace, abs(float(np.trace(D @ D)) - 1.0))
    ok = worst_diag <= 1e-9 and worst_trace <= 1e-12
    report(3, "dispersion-matrix fixture", ok,
           "max|D-closed|=%.2e max|tr D^2 - 1|=%.2e" % (worst_diag, worst_trace))


def test_criterion_04_gram_oracle_equivalence():
    t0 = time.perf_counter()
    rng_v = np.random.default_rng(2024)
    V = rng_v.normal(size=(3, 3))
    V /= np.linalg.norm(V, axis=0)
    M = generic_modal()
    configs = [
        dist.haar(),
        dist.cayley(1.0, modal=M),
        dist.cayley(2.0, modal=M),
        dist.fisher_von_mises(1.0, modal=M),
    ]
    worst_sigma = 0.0
    worst_abs = 0.0
    rng = np.random.default_rng(55)
    for spec in configs:
        G, se = radon.mc_projected_gram(spec, V, 10 ** 6, rng)
        E = radon.expected_projected_gram(spec, V)
        worst_sigma = max(worst_sigma, float(np.max(np.abs(G - E) / np.maximum(se, 1e-12))))
        worst_abs = max(worst_abs, float(np.max(np.abs(G - E))))
    elapsed = time.perf_counter() - t0
    ok = worst_sigma <= 4.0 and worst_abs <= 0.01 and elapsed < 60.0
    report(4, "Gram closed form vs MC", ok,
           "worst=%.2f sigma, %.4f abs, %.1fs" % (worst_sigma, worst_abs, elapsed))


def test_criterion_05_transform_pair_fidelity():
    worst_closed = 0.0
    for kappa in (0.0, 1.0, 2.0, 3.0):
        spec = dist.cayley(kappa)
        for s in (-0.9, -0.5, 0.0, 0.5, 0.9):
            gap = abs(moments.fz_from_fx(spec, s) - fz_closed_cayley(kappa, s))
            worst_closed = max(worst_closed, gap)
    worst_round = 0.0
    for kappa in (0.0, 1.0, 2.0, 3.0):
        spec = dist.cayley(kappa)
        for s in (0.15, 0.3, 0.5, 0.7, 0.85):
            value = moments.fx_from_fz(lambda t, sp=spec: moments.fz_from_fx(sp, t), s)
            worst_round = max(worst_round, abs(value - dist.fx_density(spec, s)))
    ok = worst_closed <= 1e-8 and worst_round <= 1e-6
    report(5, "zonal transform pair", ok,
           "closed gap=%.2e round trip=%.2e" % (worst_closed, worst_round))


def test_criterion_06_moment_bridge():
    worst = 0.0
    for family in (dist.cayley, dist.fisher_von_mises):
        for kappa in (0.0, 0.5, 1.0, 2.0, 5.0):
            spec = family(kappa)
            tau1, tau2 = tau_from_rho(
                moments.rho_moment(spec, 1), moments.rho_moment(spec, 2)
            )
            worst = max(worst, abs(moments.tau_k(spec, 1) - tau1),
                        abs(moments.tau_k(spec, 2) - tau2))
    spec = dist.cayley(2.0)
    rng = np.random.default_rng(66)
    z = dist.sample_rotations(spec, 10 ** 6, rng)[0][:, 2, 2]
    worst_mc_sigma = 0.0
    for k in (1, 2):
        zk = z ** k
        se = zk.std(ddof=1) / math.sqrt(zk.size)
        worst_mc_sigma = max(worst_mc_sigma, abs(zk.mean() - moments.tau_k(spec, k)) / se)
    ok = worst <= 1e-9 and worst_mc_sigma <= 4.0
    report(6, "moment bridge", ok,
           "route gap=%.2e, MC worst=%.2f sigma" % (worst, worst_mc_sigma))


def _classifier_grid():
    for kappa in (0.0, 1.0, 2.0, 5.0):
        for alpha in (0.5, 1.0, 2.0):
            common = dist.cayley(kappa)
            m2 = so3.from_axis_angle(E3, alpha)
            yield kappa, alpha, cls.ClassPair(np.eye(3), m2, common)


def test_criterion_07_classifier_closed_form_vs_mc():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    worst = 0.0
    for kappa, alpha, pair in _classifier_grid():
        psi = cls.psi_closed(pair)
        acc = cls.mc_accuracy(pair, 10 ** 6, rng)
        bound = 4.0 * math.sqrt(psi * (1.0 - psi) / 10 ** 6)
        worst = max(worst, abs(psi - acc) / bound)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1.0 and elapsed < 90.0
    report(7, "classifier closed form vs MC", ok,
           "worst gap=%.2f of bound, %.1fs" % (worst, elapsed))


def test_criterion_08_derivative_consistency():
    step = 1e-4
    worst_fd = 0.0
    for kappa, alpha, pair in _classifier_grid():
        common = pair.common
        up = cls.psi_closed(cls.ClassPair(np.eye(3), so3.from_axis_angle(E3, alpha + step), common))
        dn = cls.psi_closed(cls.ClassPair(np.eye(3), so3.from_axis_angle(E3, alpha - step), common))
        fd = (up - dn) / (2.0 * step)
        worst_fd = max(worst_fd, abs(cls.psi_derivative(pair) - fd))
    worst_haar = 0.0
    for alpha in (0.5, 1.0, 2.0):
        pair = cls.ClassPair(np.eye(3), so3.from_axis_angle(E3, alpha), dist.haar())
        worst_haar = max(worst_haar, abs(cls.psi_closed(pair) - 0.5),
                         abs(cls.psi_derivative(pair)))
    ok = worst_fd <= 1e-6 and worst_haar <= 1e-8
    report(8, "accuracy derivative consistency", ok,
           "fd gap=%.2e, uniform gap=%.2e" % (worst_fd, worst_haar))


def test_criterion_09_slope_criterion():
    slope = fu.initial_slope("cayley")
    h = 1e-3
    base = tau2_of_kappa("cayley", 0.0)
    d_full = (tau2_of_kappa("cayley", 0.5 * h) - base) / h
    d_half = (tau2_of_kappa("cayley", 0.25 * h) - base) / (0.5 * h)
    reparam = 2.0 * d_half - d_full  # slope under kappa~ = 2 kappa
    ok = abs(slope - (-1.0 / 9.0)) <= 1e-6 and reparam < 0.0 and slope < 0.0
    report(9, "initial slope criterion", ok,
           "slope=%.8f reparam=%.8f" % (slope, reparam))


def test_criterion_10_kappa_infinity_limit():
    M = generic_modal()
    V = np.column_stack([np.eye(3), np.ones(3) / math.sqrt(3.0)])
    E = radon.expected_projected_gram(dist.cayley(500.0, modal=M), V)
    limit = limit_gram_kappa_infinity(M, V)
    gap = float(np.max(np.abs(E - limit)))
    ok = gap <= 5e-3
    report(10, "kappa to infinity limit", ok, "entrywise gap=%.2e" % gap)
