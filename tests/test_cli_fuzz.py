"""Fuzzing of the numeric flags of every subcommand.

Whatever the numbers, a command exits 0, 2, 3 or 4, never raises, and
on exit 0 prints and writes only finite numbers.  Sizes stay small so
each call is quick; every output goes to a temporary directory.
"""

import contextlib
import io
import math
import pathlib
import re
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from rotgram import cli

EDGE_FLOATS = [0.0, -0.0, -1.0, 5e-324, 1e-300, 1e-107, 1e-8, 0.5, 1.0, 2.0, 49.9, 50.0,
               1e5, 1e6, 1e300, 1e308, 1.7976931348623157e308, math.inf, -math.inf, math.nan]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(0.0, 60.0), st.floats(width=64))
ANGLES = st.one_of(st.sampled_from([0.0, 1e-12, 1.0, math.pi, 4.0, math.nan]),
                   st.floats(-10.0, 10.0))
SEEDS = st.integers(0, 2**32 - 1)
THREADS = st.sampled_from([1, 2])
LANDMARKS = [[1.0, 0.0, 0.3], [0.0, 1.0, -0.2], [0.5, 0.25, 1.0]]


def flag(name, value):
    return [name, repr(value)]


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["sample", "figure1", "gram", "classify", "fakeuni"]))
    if command == "figure1":
        return (["figure1", "--out", "{tmp}/figure1.csv"]
                + flag("--kappa-max", draw(FLOATS)) + flag("--n-points", draw(st.integers(-1, 9))))
    if command == "fakeuni":
        return (["fakeuni", "--family", draw(st.sampled_from(["cayley", "fvm"])),
                 "--out", "{tmp}/fakeuni.csv"]
                + flag("--kappa-max", draw(FLOATS)) + flag("--n-points", draw(st.integers(-1, 9))))
    argv = [command, "--family", draw(st.sampled_from(["haar", "cayley", "fvm"]))]
    argv += flag("--kappa", draw(FLOATS)) + flag("--seed", draw(SEEDS))
    if draw(st.booleans()):
        argv += ["--modal-axis", "0.6,0,0.8"] + flag("--modal-angle", draw(ANGLES))
    if command == "sample":
        return argv + flag("--n", draw(st.integers(-2, 50))) + ["--out", "{tmp}/sample.csv"]
    argv += flag("--n-mc", draw(st.integers(-2, 200))) + flag("--threads", draw(THREADS))
    if command == "gram":
        return argv + ["--landmarks", "{tmp}/landmarks.csv", "--out", "{tmp}/gram.csv"]
    return argv + ["--modal2-axis", "0,0,1"] + flag("--modal2-angle", draw(ANGLES))


def numbers(text):
    """Every token of ``text`` that parses as a float."""
    for token in re.split(r"[\s,()\[\]|=:]+", text):
        try:
            yield float(token)
        except ValueError:
            pass


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
@example(["fakeuni", "--family", "fvm", "--kappa-max", "1e-107", "--n-points", "3"])
@example(["figure1", "--kappa-max", "1e-107", "--n-points", "3", "--out", "{tmp}/figure1.csv"])
@example(["gram", "--family", "fvm", "--kappa", "1e-300", "--n-mc", "10",
          "--landmarks", "{tmp}/landmarks.csv"])
@example(["fakeuni", "--family", "fvm", "--kappa-max", "1e-300", "--n-points", "3"])
@example(["fakeuni", "--family", "cayley", "--kappa-max", "1e308", "--n-points", "3",
          "--out", "{tmp}/fakeuni.csv"])
def test_numeric_flags_exit_cleanly(argv):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        (tmp / "landmarks.csv").write_text(
            "".join(",".join(repr(v) for v in row) + "\n" for row in LANDMARKS))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main([a.replace("{tmp}", str(tmp)) for a in argv])
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
        assert code in (0, 2, 3, 4), (code, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code == 0:
            texts = [out.getvalue()] + [p.read_text(encoding="utf-8") for p in tmp.glob("*.csv")
                                        if p.name != "landmarks.csv"]
            for text in texts:
                assert all(math.isfinite(v) for v in numbers(text)), text
