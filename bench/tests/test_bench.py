"""Tests of the benchmark itself: each output check rejects a corrupted
output, every workload passes its checks on a seed the proof runs do not
use, and the tracer wraps every binding of the traced functions.

    python3 -m pytest -q bench/tests
"""

import contextlib
import io
import itertools
import types

import numpy as np
import pytest

import checks
import run
import spans

CLI = run._import_cli()


def invoke(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert CLI.main(argv) == 0
    return buf.getvalue()


def replace_line(text, prefix, new):
    lines = [new if line.startswith(prefix) else line for line in text.splitlines()]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def gram_case(tmp_path_factory):
    V = np.random.default_rng(5).standard_normal((3, 4))
    path = tmp_path_factory.mktemp("gram") / "landmarks.csv"
    path.write_text("".join(",".join("%.17g" % v for v in row) + "\n" for row in V))
    text = invoke(["gram", "--family", "cayley", "--kappa", "2", "--modal-axis", "0,0,1",
                   "--modal-angle", "0.7", "--landmarks", str(path), "--n-mc", "4000",
                   "--seed", "9", "--threads", "1"])
    return text, V


def check_gram(text, V):
    checks.check_gram(text, V, 2.0, (0, 0, 1), 0.7, 4000)


def perturb_block(text, label, delta):
    lines = text.splitlines()
    i = next(k for k, line in enumerate(lines) if line.startswith(label)) + 1
    values = [float(v) for v in lines[i].split()]
    values[1] += delta
    lines[i] = "  " + "  ".join(repr(v) for v in values)
    return "\n".join(lines) + "\n"


def test_gram_check_accepts_real_output(gram_case):
    check_gram(*gram_case)


def test_gram_check_rejects_perturbed_closed_form(gram_case):
    text, V = gram_case
    with pytest.raises(checks.CheckFailed, match="closed-form"):
        check_gram(perturb_block(text, "closed-form", 1e-7), V)


def test_gram_check_rejects_mc_outside_error_bound(gram_case):
    text, V = gram_case
    with pytest.raises(checks.CheckFailed, match="MC entry"):
        check_gram(perturb_block(text, "monte-carlo", 1.0), V)


def test_gram_check_rejects_missing_block(gram_case):
    text, V = gram_case
    with pytest.raises(checks.CheckFailed, match="monte-carlo"):
        check_gram(text.replace("monte-carlo", "estimate"), V)


def test_classify_check():
    text = invoke(["classify", "--family", "cayley", "--kappa", "2", "--modal-axis", "0,0,1",
                   "--modal-angle", "0", "--modal2-axis", "0,0,1", "--modal2-angle", "1.0",
                   "--n-mc", "20000", "--seed", "3", "--threads", "1"])
    checks.check_classify(text)
    stderr = float(checks.parse_assignments(text)["mc_stderr"])
    with pytest.raises(checks.CheckFailed, match="standard errors"):
        checks.check_classify(replace_line(text, "gap", "gap |closed - mc| = %r" % (7 * stderr)))
    with pytest.raises(checks.CheckFailed, match="mc_stderr"):
        checks.check_classify(replace_line(text, "mc_stderr", ""))


@pytest.fixture(scope="module", params=[("cayley", 1.0), ("fvm", 20.0)])
def sample_case(request, tmp_path_factory):
    family, kappa = request.param
    path = tmp_path_factory.mktemp("sample") / "s.csv"
    invoke(["sample", "--family", family, "--kappa", "%g" % kappa, "--n", "400",
            "--seed", "4", "--out", str(path)])
    return path, family, kappa


def rewrite_rows(path, target, edit):
    lines = path.read_text().splitlines()
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    edit(rows)
    target.write_text("\n".join([lines[0]] + [",".join(repr(v) for v in r) for r in rows]) + "\n")
    return target


def test_sample_check_accepts_real_output(sample_case):
    path, family, kappa = sample_case
    checks.check_sample(path, 400, family, kappa, chunk=64)


def test_sample_check_rejects_non_rotation_row(sample_case, tmp_path):
    path, family, kappa = sample_case

    def scale(rows):
        rows[123][0] *= 1.0 + 1e-6

    bad = rewrite_rows(path, tmp_path / "bad.csv", scale)
    with pytest.raises(checks.CheckFailed, match="row 124 is not a rotation"):
        checks.check_sample(bad, 400, family, kappa, chunk=64)


def test_sample_check_rejects_x_outside_unit_interval(sample_case, tmp_path):
    path, family, kappa = sample_case

    def push(rows):
        rows[7][13] = 1.0

    bad = rewrite_rows(path, tmp_path / "bad.csv", push)
    with pytest.raises(checks.CheckFailed, match="row 8 has x outside"):
        checks.check_sample(bad, 400, family, kappa)


def test_sample_check_rejects_shifted_mean(sample_case, tmp_path):
    path, family, kappa = sample_case

    def shift(rows):
        for r in rows:
            r[13] *= 0.7

    bad = rewrite_rows(path, tmp_path / "bad.csv", shift)
    with pytest.raises(checks.CheckFailed, match="mean x"):
        checks.check_sample(bad, 400, family, kappa)


def test_sample_check_rejects_missing_rows(sample_case):
    path, family, kappa = sample_case
    with pytest.raises(checks.CheckFailed, match="400 rows, expected 401"):
        checks.check_sample(path, 401, family, kappa)


@pytest.fixture(scope="module")
def figure1_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("figure1") / "f.csv"
    invoke(["figure1", "--kappa-max", "10", "--n-points", "201", "--out", str(path)])
    return path


@pytest.mark.parametrize("column", [1, 2])
def test_figure1_check_rejects_perturbed_value(figure1_csv, tmp_path, column):
    reference = checks.load_fvm_reference()["values"]
    checks.check_figure1(figure1_csv, 10.0, 201, reference)
    lines = figure1_csv.read_text().splitlines()
    row = [float(v) for v in lines[57].split(",")]
    row[column] += 1e-8
    lines[57] = ",".join(repr(v) for v in row)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckFailed, match=["cayley", "fvm"][column - 1]):
        checks.check_figure1(bad, 10.0, 201, reference)


def test_fvm_reference_matches_independent_quadrature():
    reference = checks.load_fvm_reference()
    kappa = reference["kappa_max"] * np.arange(reference["n_points"]) / (reference["n_points"] - 1)
    oracle = [checks.fvm_tau2(k) - 1.0 / 3.0 for k in kappa]
    assert np.max(np.abs(np.array(reference["values"]) - oracle)) <= 1e-10


def test_fakeuni_check():
    cayley = invoke(["fakeuni", "--family", "cayley", "--kappa-max", "5"])
    fvm = invoke(["fakeuni", "--family", "fvm", "--kappa-max", "2", "--n-points", "17"])
    checks.check_fakeuni(cayley, "cayley")
    checks.check_fakeuni(fvm, "fvm")
    missing = replace_line(cayley, "fake-uniformity roots", "fake-uniformity roots: none in (0, 5]")
    with pytest.raises(checks.CheckFailed, match="no root"):
        checks.check_fakeuni(missing, "cayley")
    moved = replace_line(cayley, "fake-uniformity roots", "fake-uniformity roots: 1.0000001")
    with pytest.raises(checks.CheckFailed, match="single root"):
        checks.check_fakeuni(moved, "cayley")
    with pytest.raises(checks.CheckFailed, match="fvm reported"):
        checks.check_fakeuni(replace_line(fvm, "fake-uniformity roots",
                                          "fake-uniformity roots: 3.5"), "fvm")
    with pytest.raises(checks.CheckFailed, match="no roots line"):
        checks.check_fakeuni(replace_line(cayley, "fake-uniformity roots", ""), "cayley")


def test_inputs_follow_the_workload_seed(tmp_path):
    for name in "abc":
        (tmp_path / name).mkdir()
    a = run.build_commands("mc-cayley", 3, tmp_path / "a")
    landmarks_a = (tmp_path / "a" / "landmarks.csv").read_text()
    b = run.build_commands("mc-cayley", 3, tmp_path / "b")
    assert [c.argv[-3] for c in a] == [c.argv[-3] for c in b]
    assert landmarks_a == (tmp_path / "b" / "landmarks.csv").read_text()
    c = run.build_commands("mc-cayley", 4, tmp_path / "c")
    assert [x.argv[-3] for x in a] != [x.argv[-3] for x in c]
    assert landmarks_a != (tmp_path / "c" / "landmarks.csv").read_text()


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_unused_seed_passes_every_check(workload, tmp_path):
    (tmp_path / "w").mkdir()
    commands = run.build_commands(workload, 987654321, tmp_path / "w")
    times, failed = run.run_pass(CLI, commands)
    assert failed == 0 and len(times) == len(commands)


def test_tracer_wraps_every_binding_and_restores():
    modules = {name: getattr(CLI, name) for name in ("so3", "distributions", "moments",
                                                        "radon", "classifier", "fake_uniformity")}
    modules["cli"] = CLI
    classifier, moments = modules["classifier"], modules["moments"]
    original = moments.integrate
    assert classifier.integrate is original
    tracer = spans.Tracer()
    restore = tracer.patch(modules)
    try:
        assert classifier.integrate is moments.integrate is not original
        invoke(["fakeuni", "--family", "fvm", "--kappa-max", "1", "--n-points", "5"])
        first = tracer.take_pass()
        invoke(["fakeuni", "--family", "fvm", "--kappa-max", "1", "--n-points", "5"])
        second = tracer.take_pass()
    finally:
        restore()
    assert classifier.integrate is moments.integrate is original
    counts = {k: v for k, v in first.items() if not k.endswith("_s")}
    assert counts == {k: v for k, v in second.items() if not k.endswith("_s")}
    assert first["cli.main.calls"] == 1
    assert first["moments.integrate.evals"] == first["distributions.fx_density.calls"] > 0
    assert first["distributions.bessel_i.calls"] == 2 * first["distributions.fvm_x_normaliser.calls"]
    for name in ("cli.main", "moments.integrate", "distributions.bessel_i"):
        assert 0.0 <= first[name + ".self_s"] <= first[name + ".total_s"]
    assert first["cli.main.total_s"] >= first["fake_uniformity.scan_curve.total_s"]


def test_calibrate_measures_the_tracer_work_outside_the_clocks():
    tracer = spans.Tracer()
    tracer.calibrate()
    assert tracer.nested_cost > 0.0 and tracer.eval_cost > 0.0


def test_self_time_leaves_out_tracer_work(monkeypatch):
    # A clock that advances one tick per read makes every span exact:
    # each wrapper reads it four times (entry, start, end, exit).
    ticks = itertools.count()
    monkeypatch.setattr(spans.time, "perf_counter", lambda: float(next(ticks)))
    monkeypatch.setitem(spans.EVALS_ARGUMENT, "nest.integrate", "f")
    module = types.ModuleType("nest")
    exec("def child():\n"
         "    pass\n"
         "\n"
         "def parent(n):\n"
         "    for _ in range(n):\n"
         "        child()\n"
         "\n"
         "def integrate(f, n):\n"
         "    for i in range(n):\n"
         "        f(i)\n", vars(module))
    tracer = spans.Tracer()
    tracer.nested_cost, tracer.eval_cost = 0.5, 0.25
    restore = tracer.patch({"nest": module})
    try:
        module.parent(10)
        module.integrate(lambda x: spans.time.perf_counter(), 10)
    finally:
        restore()
    layers = tracer.take_pass()
    assert layers["nest.child.calls"] == layers["nest.integrate.evals"] == 10
    assert layers["nest.child.total_s"] == 10 * 1.0
    # parent: 4 ticks per child plus its own end; each child's 3 ticks
    # from wrapper entry to exit and the nested cost are not its own.
    assert layers["nest.parent.total_s"] == 10 * 4 + 1
    assert layers["nest.parent.self_s"] == pytest.approx(10 * 4 + 1 - 10 * (3 + 0.5))
    # integrate: one tick per integrand call plus its end, less the
    # evals counter's cost per call.
    assert layers["nest.integrate.total_s"] == 10 + 1
    assert layers["nest.integrate.self_s"] == pytest.approx(10 + 1 - 10 * 0.25)
