#!/usr/bin/env python3
"""Build and run one workload of the end-to-end benchmark.

    python3 bench/e2e/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a checkout. The first run configures and builds the
benchmark program e2e_bench (and the library sources it compiles) under
.bench_build/e2e; later runs only rebuild what changed. Build output goes
to stderr, so the result JSON of e2e_bench stays the last line of stdout.

--seconds defaults to run_seconds in BENCHMARK.json. With --trace 0,
setup_s is the median cold setup of SETUPS fresh processes: the run's
own and SETUPS - 1 that only set up. A --trace 1 run also writes its
spans to .bench_build/e2e/traces/<workload>.json (Chrome trace-event
format).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SOURCE = os.path.join(ROOT, "bench", "e2e")
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
BINARY = os.path.join(BUILD, "e2e_bench")

# Cold setups per --trace 0 run, each in its own process.
SETUPS = 5

# A run measures for --seconds; set-up, checks and a traced replay come
# on top. Past this e2e_bench is stuck, not slow.
RUN_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 30


def build():
    configure = ["cmake", "-S", SOURCE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD, "Makefile")):
        configure += ["-G", "Ninja"]
    subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4"], check=True,
                   stdout=sys.stderr)


def run_seconds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return float(json.load(f)["run_seconds"])


def cold_setup(args):
    """setup_s of one fresh process that only sets the workload up."""
    proc = subprocess.run(
        [BINARY, "--workload", args.workload, "--seed", str(args.seed),
         "--setup-only"],
        stdout=subprocess.PIPE, text=True, timeout=SETUP_TIMEOUT_S,
        check=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
        seconds = (run_seconds() if args.seconds is None
                   else args.seconds)
        setups = ([] if args.trace
                  else [cold_setup(args) for _ in range(SETUPS - 1)])
    except (OSError, ValueError, KeyError, subprocess.SubprocessError) as err:
        print(f"{args.workload}: {err}", file=sys.stderr)
        return 1

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(traces, f"{args.workload}.json")]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{args.workload}: no result within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or args.trace:
        sys.stdout.write(proc.stdout)
        return proc.returncode

    result = json.loads(lines[-1])
    setup = result["metrics"]["setup_s"]
    setups.append(setup["value"])
    setup["value"] = statistics.median(setups)
    print("\n".join(lines[:-1]))
    print(f"setup_s of {len(setups)} cold processes: "
          + " ".join(f"{s:.4f}" for s in setups))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
