"""End-to-end benchmark of the rotgram CLI.

    python3 bench/run.py --workload mc-cayley --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  One run is one Python process that drives ``rotgram.cli.main``
in process with ``--threads 1``.  It repeats the workload's commands
until ``--seconds`` is spent, checks every command's output, and prints
as its last line a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones (medians over passes, tracing off); with ``--trace 1``
untraced and traced passes alternate and the metrics are per-layer
numbers from spans around every public function of the package.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
N_MC = 1_000_000

# Metric names and units, and each workload's reason, are those of
# BENCHMARK.json; the README says which end-to-end metric each layer
# metric should move.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}
# Per-subcommand figures, printed on every run but zero on workloads
# without that subcommand, so they are not gated.
SUBCOMMANDS = ("gram", "classify", "sample", "figure1", "fakeuni")
THROUGHPUT = {
    "mc_draws_per_s": ("gram", "classify"),
    "sample_rows_per_s": ("sample",),
    "curve_points_per_s": ("figure1", "fakeuni"),
}
DETAIL = {**{sub + "_s": "s" for sub in SUBCOMMANDS}, **{name: "1/s" for name in THROUGHPUT},
          "fail_ratio": "ratio"}
TRACED_MODULES = ("so3", "distributions", "moments", "radon", "classifier",
                  "fake_uniformity", "cli")


@dataclass
class Command:
    argv: list
    group: str                       # "a" or "b"
    items: int                       # MC draws, CSV rows or curve points
    check: Callable[[str], None]     # raises checks.CheckFailed on bad output
    out: Path | None = None          # CSV written by the command, if any


def _seed(rng) -> str:
    return str(int(rng.integers(0, 2**32)))


def _mc_cayley(rng, tmp: Path) -> list:
    V = rng.standard_normal((3, 4))
    landmarks = tmp / "landmarks.csv"
    landmarks.write_text("".join(",".join("%.17g" % v for v in row) + "\n" for row in V))
    gram = ["gram", "--family", "cayley", "--kappa", "2", "--modal-axis", "0,0,1",
            "--modal-angle", "0.7", "--landmarks", str(landmarks), "--n-mc", str(N_MC),
            "--seed", _seed(rng), "--threads", "1"]
    classify = ["classify", "--family", "cayley", "--kappa", "2",
                "--modal-axis", "0,0,1", "--modal-angle", "0",
                "--modal2-axis", "0,0,1", "--modal2-angle", "1.0",
                "--n-mc", str(N_MC), "--seed", _seed(rng), "--threads", "1"]
    return [
        Command(gram, "a", N_MC,
                lambda text: checks.check_gram(text, V, 2.0, (0.0, 0.0, 1.0), 0.7, N_MC)),
        Command(classify, "b", N_MC, checks.check_classify),
    ]


def _sample(rng, tmp: Path) -> list:
    out = []
    # A pass of about 2 s gives a 40 s run some 20 passes to take the
    # median of; CSV formatting still dominates the cayley command and
    # rejection sampling the fvm one.
    for group, family, kappa, n in (("a", "cayley", 1.0, 25_000), ("b", "fvm", 20.0, 5_000)):
        path = tmp / ("sample-%s.csv" % family)
        argv = ["sample", "--family", family, "--kappa", "%g" % kappa, "--n", str(n),
                "--seed", _seed(rng), "--out", str(path)]
        out.append(Command(argv, group, n,
                           lambda text, p=path, f=family, k=kappa, m=n: checks.check_sample(p, m, f, k),
                           out=path))
    return out


def _closed_form(rng, tmp: Path) -> list:
    # figure1 and fakeuni take no seed, so every workload seed gives the
    # same three commands.
    reference = checks.load_fvm_reference()
    curve = tmp / "figure1.csv"
    return [
        Command(["figure1", "--kappa-max", "10", "--n-points", "201", "--out", str(curve)], "a", 2 * 201,
                lambda text: checks.check_figure1(curve, 10.0, 201, reference["values"])),
        Command(["fakeuni", "--family", "fvm", "--kappa-max", "10", "--n-points", "257"], "b", 257,
                lambda text: checks.check_fakeuni(text, "fvm")),
        Command(["fakeuni", "--family", "cayley", "--kappa-max", "5"], "b", 129,
                lambda text: checks.check_fakeuni(text, "cayley")),
    ]


# The commands of each workload, built from the workload seed.
WORKLOADS = {"mc-cayley": _mc_cayley, "sample": _sample, "closed-form": _closed_form}


def build_commands(workload: str, seed: int, tmp: Path) -> list:
    """The workload's commands; every input is generated from ``seed``."""
    return WORKLOADS[workload](np.random.default_rng(seed), Path(tmp))


def run_pass(cli, commands: list) -> tuple[list, int]:
    """Run each command once through ``cli.main``.  Returns the wall time
    of each call and the number that failed (nonzero exit, exception or
    failed output check)."""
    times, failed = [], 0
    for cmd in commands:
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(list(cmd.argv))
        except (Exception, SystemExit):
            traceback.print_exc()
            code = None
        times.append(time.perf_counter() - t0)
        try:
            if code != 0:
                raise checks.CheckFailed("exit code %r" % code)
            cmd.check(buf.getvalue())
        except (checks.CheckFailed, OSError, ValueError) as exc:
            print("FAILED %s: %s" % (" ".join(cmd.argv[:3]), exc), file=sys.stderr)
            failed += 1
    return times, failed


def _passes(seconds: float, one_pass):
    """Call ``one_pass`` until the next call would end after the deadline."""
    deadline = time.perf_counter() + seconds
    results = []
    while True:
        t0 = time.perf_counter()
        results.append(one_pass())
        now = time.perf_counter()
        if now + (now - t0) > deadline:
            return results


def _setup_once() -> float:
    code = ("import sys, time\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "t = time.perf_counter()\n"
            "import rotgram.cli\n"
            "rotgram.cli.build_parser()\n"
            "print(repr(time.perf_counter() - t), rotgram.cli.__file__)\n")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)], cwd=ROOT, capture_output=True,
                          text=True, timeout=60, check=True)
    value, where = done.stdout.split()
    if not Path(where).resolve().is_relative_to(SRC):
        raise RuntimeError("setup imported rotgram from %s" % where)
    return float(value)


def end_to_end(commands: list, passes: list, setup: list) -> tuple[dict, dict]:
    """Gated metrics and per-subcommand figures, medians over passes."""
    med = statistics.median
    walls = [sum(t) for t in passes]
    metrics = {
        "wall_s": med(walls),
        "cmd_a_s": med([sum(x for x, c in zip(t, commands) if c.group == "a") for t in passes]),
        "cmd_b_s": med([sum(x for x, c in zip(t, commands) if c.group == "b") for t in passes]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": med(setup),
    }
    detail = {}
    for sub in SUBCOMMANDS:
        detail[sub + "_s"] = med([sum(x for x, c in zip(t, commands) if c.argv[0] == sub)
                                  for t in passes])
    for name, subs in THROUGHPUT.items():
        chosen = [i for i, c in enumerate(commands) if c.argv[0] in subs]
        work = sum(commands[i].items for i in chosen)
        detail[name] = med([work / sum(t[i] for i in chosen) for t in passes]) if chosen else 0.0
    return metrics, detail


def per_layer(cli, commands: list, seconds: float, modules: dict, meta: dict,
              spans_path: Path) -> tuple[dict, int, int]:
    """Alternate untraced and traced passes.  Times are medians over the
    traced passes, and ``trace_overhead_s`` is the median over pairs of
    traced minus untraced pass wall.  Counts come from the first traced
    pass; ``meta`` records whether they repeated.  The last traced pass's spans are
    written to ``spans_path``."""
    tracer = spans.Tracer()
    tracer.calibrate()
    meta.update(nested_cost_s=tracer.nested_cost, eval_cost_s=tracer.eval_cost)
    failures = []

    def pair():
        plain, failed = run_pass(cli, commands)
        restore = tracer.patch(modules)
        try:
            traced, failed_traced = run_pass(cli, commands)
        finally:
            restore()
        layers = tracer.take_pass()
        layers["cli.bytes_written"] = sum(c.out.stat().st_size for c in commands
                                          if c.argv[0] == "sample" and c.out.exists())
        failures.append(failed + failed_traced)
        return sum(plain), sum(traced), layers

    pairs = _passes(seconds, pair)
    metrics = {}
    repeat = True
    for name, unit in PER_LAYER.items():
        if name == "trace_overhead_s":
            metrics[name] = statistics.median(p[1] - p[0] for p in pairs)
        elif unit == "s":
            metrics[name] = statistics.median(p[2].get(name, 0.0) for p in pairs)
        else:
            values = [p[2].get(name, 0) for p in pairs]
            repeat = repeat and len(set(values)) == 1
            metrics[name] = values[0]
    meta.update(passes=len(pairs), counts_repeat=repeat)
    tracer.save(spans_path, meta)
    return metrics, 2 * len(commands) * len(pairs), sum(failures)


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(args) -> dict:
    return {
        "workload": args.workload,
        "why": WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _git_commit(),
    }


def _import_cli():
    if not (SRC / "rotgram" / "cli.py").is_file():
        raise SystemExit("error: %s/rotgram not found; run from the root of a rotgram checkout"
                         % SRC)
    sys.path.insert(0, str(SRC))
    import rotgram.cli

    if not Path(rotgram.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit("error: rotgram was imported from %s, not %s" % (rotgram.cli.__file__, SRC))
    return rotgram.cli


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cli = _import_cli()
    modules = {name: sys.modules["rotgram." + name] for name in TRACED_MODULES}
    meta = metadata(args)

    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        commands = build_commands(args.workload, args.seed, tmp)
        if args.trace:
            metrics, attempted, failed = per_layer(cli, commands, args.seconds, modules, meta,
                                                   OUT / ("spans-%s.npz" % args.workload))
            detail, units = {}, PER_LAYER
        else:
            # One set-up sample before each pass: samples taken back to
            # back share the machine's state of the moment, so spreading
            # them over the run steadies their median.
            setup = []

            def one_pass():
                setup.append(_setup_once())
                return run_pass(cli, commands)

            outcome = _passes(args.seconds, one_pass)
            passes = [t for t, _ in outcome]
            failed = sum(f for _, f in outcome)
            attempted = len(commands) * len(passes)
            metrics, detail = end_to_end(commands, passes, setup)
            detail["fail_ratio"] = failed / attempted
            meta["passes"] = len(passes)
            units = {**END_TO_END, **DETAIL}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print("meta " + json.dumps(meta, sort_keys=True))
    for name, value in list(metrics.items()) + list(detail.items()):
        print("%-48s %.6g %s" % (name, value, units[name]))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
