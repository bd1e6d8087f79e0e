"""Fuzzing of the numeric flags of every subcommand, of the modal
rotation strings and of the landmark file contents.

Whatever the input, a command exits 0, 2, 3 or 4, never raises or
warns, and on exit 0 prints and writes only finite numbers.  Sizes stay small so
each call is quick; every output goes to a temporary directory.
"""

import contextlib
import io
import math
import pathlib
import re
import tempfile
import warnings

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
ENTRIES = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "1e-320", "0", "-0", "1", "x", "",
                     "1e400", "0x1p3", " 2 "]),
    st.floats(width=64).map(repr))
MAGNITUDES = st.one_of(st.sampled_from([0.0, 1e-320, 1e-200, 1e-160, 1e80, 1e150, 1e154,
                                        1e200, 1e308]),
                       st.floats(1e-320, 1e308))


@st.composite
def modal_strings(draw):
    """A comma-separated list of 0, 2, 3, 4, 9 or 10 entries."""
    count = draw(st.sampled_from([0, 2, 3, 4, 9, 10]))
    return ",".join(draw(st.lists(ENTRIES, min_size=count, max_size=count)))


@st.composite
def landmark_files(draw):
    """Bytes of a landmark file: well-formed at some magnitude, or empty,
    ragged, non-numeric or not UTF-8."""
    kind = draw(st.sampled_from(["scaled", "scaled", "empty", "ragged", "text", "binary"]))
    if kind == "empty":
        return b""
    if kind == "binary":
        return draw(st.binary(min_size=1, max_size=40))
    rows = [[draw(MAGNITUDES) * v for v in row] for row in LANDMARKS]
    if kind == "ragged":
        rows[draw(st.integers(0, 2))].pop()
    text = "".join(",".join(repr(v) for v in row) + "\n" for row in rows)
    if kind == "text":
        text = text.replace(",", ",%s," % draw(ENTRIES), 1)
    return text.encode("utf-8")


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


def run_cli(argv, landmarks=None):
    """Run ``argv`` in a temporary directory holding the landmark file and
    check the exit code and, on exit 0, that every number is finite."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        if landmarks is None:
            landmarks = "".join(",".join(repr(v) for v in row) + "\n"
                                for row in LANDMARKS).encode("utf-8")
        (tmp / "landmarks.csv").write_bytes(landmarks)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # none may reach stderr
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
        return code


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
@example(["fakeuni", "--family", "fvm", "--kappa-max", "1e-107", "--n-points", "3",
          "--out", "{tmp}/fakeuni.csv"])
@example(["figure1", "--kappa-max", "1e-107", "--n-points", "3", "--out", "{tmp}/figure1.csv"])
@example(["gram", "--family", "fvm", "--kappa", "1e-300", "--n-mc", "10",
          "--landmarks", "{tmp}/landmarks.csv"])
@example(["fakeuni", "--family", "fvm", "--kappa-max", "1e-300", "--n-points", "3",
          "--out", "{tmp}/fakeuni.csv"])
@example(["fakeuni", "--family", "cayley", "--kappa-max", "1e308", "--n-points", "3",
          "--out", "{tmp}/fakeuni.csv"])
def test_numeric_flags_exit_cleanly(argv):
    run_cli(argv)


@st.composite
def string_argvs(draw):
    command = draw(st.sampled_from(["sample", "gram", "classify"]))
    argv = [command, "--family", draw(st.sampled_from(["haar", "cayley", "fvm"])),
            "--kappa", draw(st.sampled_from(["0", "2", "1e8"]))]
    if draw(st.booleans()):
        argv += ["--modal-axis", draw(modal_strings()), "--modal-angle", "0.5"]
    if command == "sample":
        return argv + ["--n", "3", "--out", "{tmp}/sample.csv"], None
    argv += ["--n-mc", "50"]
    if command == "gram":
        return argv + ["--landmarks", "{tmp}/landmarks.csv", "--out", "{tmp}/gram.csv"], \
            draw(landmark_files())
    return argv + ["--modal2-axis", draw(modal_strings()), "--modal2-angle", "1"], None


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(string_argvs())
@example((["sample", "--n", "3", "--modal-axis", "1e-170,0,0", "--modal-angle", "1"], None))
@example((["sample", "--n", "3", "--modal-axis", "3e-200,4e-200,0", "--modal-angle", "1"], None))
@example((["classify", "--modal2-axis", "1e155,1e155,0", "--modal2-angle", "1", "--n-mc", "9"],
          None))
@example((["gram", "--landmarks", "{tmp}/landmarks.csv", "--n-mc", "9"],
          b"1e80,0,3e79\n0,1e80,-2e79\n5e79,2.5e79,1e80\n"))
@example((["gram", "--landmarks", "{tmp}/landmarks.csv", "--n-mc", "9"],
          b"1e200,0,3e199\n0,1e200,-2e199\n5e199,2.5e199,1e200\n"))
def test_string_flags_and_landmarks_exit_cleanly(case):
    argv, landmarks = case
    code = run_cli(argv, landmarks)
    if "e-200" in " ".join(argv) or "e155" in " ".join(argv) or "e-170" in " ".join(argv):
        assert code == 0  # valid directions at any finite scale
