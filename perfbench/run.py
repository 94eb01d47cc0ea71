#!/usr/bin/env python3
"""End-to-end benchmark of the qda compiler (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  It builds perfbench/ together with the
library sources it links into .bench_build/perfbench (under
$CARGO_TARGET_DIR instead when that is set), runs the workload in a fresh
process with every QDA_* environment variable unset, and prints the
result as one JSON object on the last line of standard output.  Traced
runs also write their spans to .bench_build/perfbench-traces/.

Output sizes (T-count and CNOT sums) and the failure count of every
(workload, seed, seconds) are recorded under .bench_build/ and compared
on the next run with the same arguments; the outcome is printed, not
enforced (README.md explains why they can drift).
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

WORKLOADS = ("compile-cold", "serve-zipf", "execute-hidden-shift")
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def build(bench_dir, build_dir):
    """Configures once, then builds incrementally; returns the binary."""
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "perfbench_e2e",
                    "-j", BUILD_JOBS], check=True, stdout=sys.stderr)
    return build_dir / "perfbench_e2e"


def repeat_check(record_dir, args, details):
    """Compares this run's output sizes with the first run of the same
    arguments; returns "first", "exact" or "drift"."""
    observed = {key: details.get(key) for key in
                ("requests", "t_count_sum", "cnot_count_sum", "fail_ratio")}
    record = record_dir / f"{args.workload}-seed{args.seed}-s{args.seconds}.json"
    if not record.is_file():
        record_dir.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps(observed))
        return "first"
    expected = json.loads(record.read_text())
    if expected == observed:
        return "exact"
    print(f"perfbench: output sizes drifted from the first run with this seed: "
          f"{expected} -> {observed}", file=sys.stderr)
    return "drift"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        return fail("--seed must be >= 0 and --seconds within 1..60")

    bench_dir = pathlib.Path(__file__).resolve().parent
    if not (bench_dir.parent / "CMakeLists.txt").is_file() or \
            not (bench_dir.parent / "src").is_dir():
        return fail("the qda sources are not next to perfbench/")
    out_root = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    try:
        binary = build(bench_dir, out_root / "perfbench")
    except (OSError, subprocess.CalledProcessError) as error:
        return fail(f"build failed: {error}")

    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = out_root / "perfbench-traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        command += ["--trace-out", str(trace_dir / f"{args.workload}-seed{args.seed}.json")]
    environment = {key: value for key, value in os.environ.items()
                   if not key.startswith("QDA_")}
    try:
        run = subprocess.run(command, env=environment, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"run exceeded {RUN_TIMEOUT_S} s")

    lines = run.stdout.strip().splitlines()
    try:
        details = json.loads(lines[-2])["details"]
        result = json.loads(lines[-1])
    except (IndexError, KeyError, ValueError):
        sys.stdout.write(run.stdout)
        return fail(f"no result (exit code {run.returncode})")

    details["outputs_repeat"] = repeat_check(out_root / "perfbench-repeat", args, details)
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0 if run.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
