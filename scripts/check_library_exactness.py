#!/usr/bin/env python3
"""Fail when the subcircuit library changes what the compiler emits.

A library splice must be an exact replay of what a miss would emit, so
a workload's output sizes may depend neither on the library nor on what
ran before in the process.  Two checks, run from the repository root:

  1. perfbench/run.py twice per workload with the same arguments; it
     records the T-count and CNOT sums of the first run and reports
     `outputs_repeat: drift` when a later run differs.  This also builds
     the perfbench binary.
  2. That binary directly, once with the library disabled
     (QDA_LIBRARY_CAPACITY=0) and once with the default library; the
     `t_count_sum` and `cnot_count_sum` details must match.

Usage:
    scripts/check_library_exactness.py [--seed 1000003] [--seconds 3]

Exit status: 0 = exact, 1 = a check failed, 2 = a run produced no result.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

WORKLOADS = ("compile-cold", "serve-zipf")
SUMS = ("t_count_sum", "cnot_count_sum")


class NoResult(Exception):
    pass


def details_of(stdout):
    """The `details` object perfbench prints on its second-to-last line."""
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-2])["details"]
    except (IndexError, KeyError, ValueError):
        raise NoResult(stdout[-2000:])


def run_script(workload, seed, seconds):
    run = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         stdout=subprocess.PIPE, text=True)
    return details_of(run.stdout)


def run_binary(binary, workload, seed, seconds, library_on):
    environment = {key: value for key, value in os.environ.items()
                   if not key.startswith("QDA_")}
    if not library_on:
        environment["QDA_LIBRARY_CAPACITY"] = "0"
    run = subprocess.run([str(binary), "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", "0"],
                         env=environment, stdout=subprocess.PIPE, text=True)
    return details_of(run.stdout)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1000003)
    parser.add_argument("--seconds", type=int, default=3)
    args = parser.parse_args()
    out_root = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = out_root / "perfbench" / "perfbench_e2e"

    failures = []
    try:
        for workload in WORKLOADS:
            for attempt in (1, 2):
                repeat = run_script(workload, args.seed, args.seconds)["outputs_repeat"]
                print(f"{workload}: run.py attempt {attempt}: outputs_repeat {repeat}")
                if repeat == "drift":
                    failures.append(f"{workload}: outputs_repeat drift")

            off = run_binary(binary, workload, args.seed, args.seconds, library_on=False)
            on = run_binary(binary, workload, args.seed, args.seconds, library_on=True)
            for key in SUMS:
                print(f"{workload}: {key} library off {off.get(key)}, default {on.get(key)}")
                if off.get(key) is None or off.get(key) != on.get(key):
                    failures.append(f"{workload}: {key} differs with the library "
                                    f"({off.get(key)} off, {on.get(key)} default)")
    except NoResult as error:
        print(f"check_library_exactness: a run printed no result:\n{error}", file=sys.stderr)
        return 2

    for failure in failures:
        print(f"FAIL {failure}")
    print("library exactness: " + ("FAILED" if failures else "exact"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
