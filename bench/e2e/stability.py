#!/usr/bin/env python3
"""Check that the end-to-end benchmark is steady enough to gate on.

    python3 bench/e2e/stability.py [--sets 2] [--runs 5]

Runs every workload in BENCHMARK.json `--runs` times per set, each run
with its own seed (1, 2, ... across all sets), using the command and run
length in BENCHMARK.json. For every
end-to-end metric it prints, per set, the median, the quartiles and the
spread (interquartile distance over the median), then fails when

  - a spread other than setup_s's exceeds the metric's bound, or
  - a later set's median is worse than the first set's by more than the
    bound.

Spreads above a third of the bound are marked, as a warning that the
metric is close to its bound. Run from the root of a checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(spec, workload, seed):
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} failed ops")
    return {name: m["value"] for name, m in result["metrics"].items()}


def worse_by(metric, first, later):
    """Relative worsening of `later` against `first` (negative = better)."""
    change = (later - first) / first
    return -change if metric["better"] == "higher" else change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)

    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        medians = []
        print(f"== {workload}")
        for s in range(args.sets):
            runs = []
            for r in range(args.runs):
                seed = 1 + s * args.runs + r
                runs.append(run_once(spec, workload, seed))
                print(f"  set {s} seed {seed}: " + ", ".join(
                    f"{k}={v:.6g}" for k, v in runs[-1].items()),
                    flush=True)
            set_medians = {}
            for metric in spec["end_to_end"]:
                name, bound = metric["name"], metric["bound"]
                values = [run[name] for run in runs]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                set_medians[name] = med
                mark = ""
                if spread > bound and name != "setup_s":
                    mark = "  FAIL: spread above bound"
                    failures.append(f"{workload} set {s} {name} spread "
                                    f"{spread:.3f} > {bound}")
                elif spread > bound / 3:
                    mark = "  (spread above a third of the bound)"
                print(f"  set {s} {name:16s} median {med:12.6g}  "
                      f"q1 {q1:12.6g}  q3 {q3:12.6g}  spread "
                      f"{spread:6.3f} / bound {bound}{mark}")
            medians.append(set_medians)
        for s in range(1, len(medians)):
            for metric in spec["end_to_end"]:
                name = metric["name"]
                worse = worse_by(metric, medians[0][name], medians[s][name])
                if worse > metric["bound"]:
                    failures.append(f"{workload} set {s} {name} median "
                                    f"worse by {worse:.3f} > "
                                    f"{metric['bound']}")
                print(f"  set {s} vs set 0 {name:16s} worse by "
                      f"{worse:+.3f} (bound {metric['bound']})")

    for failure in failures:
        print("FAIL:", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
