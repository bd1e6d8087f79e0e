"""Repeat the benchmark over several seeds and summarise its spread.

    python3 bench/prove.py --seeds 1-10 [--out FILE]

For each workload in BENCHMARK.json, runs its command once per seed with
tracing off, then with tracing on for the first two seeds, and names the
layer counts that differ between those two.  Prints, for each
end-to-end metric, the median, the quartiles and the spread
(q3 - q1) / median next to a third of the metric's bound, and writes
everything, with every run's values, to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    argv = spec["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError("%s failed:\n%s" % (" ".join(argv), done.stderr))
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["meta"] = json.loads(lines[0][len("meta "):])
    # every printed "name value unit" line, including figures not gated
    result["printed"] = {parts[0]: float(parts[1])
                         for parts in (line.split() for line in lines[1:-1]) if len(parts) == 3}
    return result


def summary(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", help="JSON file for the full record")
    args = parser.parse_args(argv)
    seeds = _seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"seeds": seeds, "run_seconds": spec["run_seconds"], "workloads": {}}
    steady = True
    for workload in names:
        runs = [run_once(spec, workload, seed, 0) for seed in seeds]
        entry = {
            "meta": runs[0]["meta"],
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {},
            "printed": {k: statistics.median(r["printed"][k] for r in runs)
                        for k in runs[0]["printed"]},
        }
        print("%s: correct=%s attempted=%d failed=%d" % (workload, entry["correct"],
                                                         entry["attempted"], entry["failed"]))
        for name, bound in bounds.items():
            s = summary([r["metrics"][name]["value"] for r in runs])
            s["bound"] = bound
            entry["end_to_end"][name] = s
            ok = s["spread"] < bound / 3.0
            steady = steady and ok
            print("  %-14s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f  bound/3 %.4f %s"
                  % (name, s["median"], s["q1"], s["q3"], s["spread"], bound / 3.0,
                     "ok" if ok else "WIDE"))
        traced = [run_once(spec, workload, seed, 1) for seed in seeds[:2]]
        layers = [{k: v["value"] for k, v in t["metrics"].items()} for t in traced]
        counts = [{k: v for k, v in layer.items() if not k.endswith("_s")} for layer in layers]
        entry["per_layer"] = layers[0]
        entry["per_layer_meta"] = traced[0]["meta"]
        entry["counts_repeat_within_runs"] = all(t["meta"]["counts_repeat"] for t in traced)
        entry["counts_differing_across_seeds"] = sorted(
            k for k in counts[0] if any(c[k] != counts[0][k] for c in counts))
        entry["correct"] = entry["correct"] and all(t["correct"] for t in traced)
        wall = entry["end_to_end"]["wall_s"]["median"]
        share = entry["per_layer"]["so3.from_axis_angle_batch.self_s"] / wall
        print("  from_axis_angle_batch self share of wall_s %.3f, bessel_i calls %d, "
              "cmd_sample self %.4g s, trace overhead %.4g s, counts repeat within runs %s, "
              "differ across seeds: %s"
              % (share, entry["per_layer"]["distributions.bessel_i.calls"],
                 entry["per_layer"]["cli.cmd_sample.self_s"],
                 entry["per_layer"]["trace_overhead_s"], entry["counts_repeat_within_runs"],
                 entry["counts_differing_across_seeds"] or "none"))
        record["workloads"][workload] = entry
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print("steady" if steady else "not steady: a spread is at or above a third of its bound")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
