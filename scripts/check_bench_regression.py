#!/usr/bin/env python3
"""Guard the benchmark floors: fail when a freshly produced BENCH_*.json
regresses an enforced ratio metric by more than the tolerance relative to
the committed baseline.

Only machine-comparable *ratio* metrics are compared against the
baseline (speedups and the swap-reduction percentage) -- absolute
wall-clock numbers shift with the host.  A small set of absolute floors
(ABSOLUTE_FLOORS) is additionally enforced on the current run only.
Circuit sizes are deterministic, so BENCH_tpar.json is compared
exactly: any T, CNOT or gate count above the baseline's fails, with no
tolerance.  The same holds for bench_serve's work counters
(WORK_CEILINGS): one-shot traffic must leave no result entries, and the
prefix cache's and the zipf mix's result cache's bytes per held gate
may not rise more than 1% above the baseline nor above an absolute
ceiling.  Routing
output is pinned gate for gate, so every BENCH_map.json routing row
(workload, device, router) must repeat its swaps, direction fixes,
CNOT count, T count and depth exactly: a change in either direction
fails until the baseline is re-taken.

Usage:
    scripts/check_bench_regression.py \
        --baseline-dir . --current-dir build [--tolerance 0.20]

Exit status: 0 = no regression, 1 = regression, 2 = usage/setup error.
"""

import argparse
import json
import os
import sys


def load(path):
    try:
        with open(path) as handle:
            return json.load(handle)
    except FileNotFoundError:
        return None
    except json.JSONDecodeError as err:
        print(f"error: {path} is not valid JSON: {err}")
        sys.exit(2)


# hard floors on the current run, independent of the baseline ratio gate
ABSOLUTE_FLOORS = {
    # 2x the pre-SIMD committed brickwork-20q fused throughput (624.8)
    "sim.end_to_end.brickwork-20q.fused_gates_per_s": 1249.6,
    # generic 2x2 kernel must beat the naive scalar path clearly
    "sim.kernels.generic-2x2.speedup": 1.5,
    # the fault-tolerance plumbing (cancel tokens, rollback snapshots,
    # degrade bookkeeping) must stay invisible on a healthy workload
    "serve.degrade_healthy_ratio": 0.80,
    # the subcircuit library must splice the second sighting of the
    # hwb-8 rptm+tpar segment >= 1.5x faster than the first, and a
    # process restart over the on-disk store must keep a clear win
    "library.second_sighting_speedup": 1.5,
    "library.warm_restart_speedup": 1.1,
}


# hard ceilings on deterministic work counters of the current run
WORK_CEILINGS = {
    # distinct specs never repeat, so the result cache admits none of
    # them (admission waits for a key's second sighting)
    "serve.one_shot.result_entries": 0,
    # frozen prefix snapshots: byte-packed circuits, no tombstones
    # (a live Clifford+T row costs ~25 bytes)
    "serve.one_shot.prefix_bytes_per_gate": 3.0,
    # live results of the repeating mix: columns plus one tombstone
    # byte per row, no per-gate ids (~40 bytes per gate with them)
    "serve.result_bytes_per_gate": 32.0,
}

# deterministic work counters compared to the baseline within 1%
WORK_TOLERANCE = 0.01


def collect_work(directory):
    """Maps work-counter name -> value (smaller is better)."""
    work = {}
    serve = load(os.path.join(directory, "BENCH_serve.json"))
    if serve is not None and not serve.get("smoke", False):
        one_shot = serve.get("one_shot", {})
        for key in ("result_entries", "prefix_bytes_per_gate"):
            if key in one_shot:
                work[f"serve.one_shot.{key}"] = one_shot[key]
        summary = serve.get("summary", {})
        if "result_bytes_per_gate" in summary:
            work["serve.result_bytes_per_gate"] = summary["result_bytes_per_gate"]
    return work


def collect_metrics(directory):
    """Maps metric-path -> value for every enforced ratio metric found.

    Only the workloads whose floors the benches themselves enforce are
    gated; small micro-workloads (layered-12q and friends) swing well
    over 20% run-to-run and would make the gate flaky.
    """
    metrics = {}

    def section_rows(data, key):
        """Sections are `{..., "results": [...]}` objects since the SIMD
        rework (per-section threads/isa metadata); older baselines used
        bare lists."""
        section = data.get(key, [])
        if isinstance(section, dict):
            return section.get("results", [])
        return section

    sim = load(os.path.join(directory, "BENCH_sim.json"))
    if sim is not None:
        for row in section_rows(sim, "end_to_end"):
            if row["name"] in ("layered-20q", "hidden-shift-14q"):
                # hidden-shift-14q: the lowered Fig. 7/8 circuit, the
                # sparse-dense-block regime of execute-hidden-shift
                metrics[f"sim.end_to_end.{row['name']}.speedup"] = row["speedup"]
            if row["name"] == "brickwork-20q":
                metrics[f"sim.end_to_end.{row['name']}.speedup"] = row["speedup"]
                # gated by ABSOLUTE_FLOORS only, not by the ratio loop
                metrics[f"sim.end_to_end.{row['name']}.fused_gates_per_s"] = \
                    row["fused_gates_per_s"]
        for row in section_rows(sim, "kernels"):
            if row["name"].startswith("h "):
                metrics["sim.kernels.generic-2x2.speedup"] = row["speedup"]
        for row in section_rows(sim, "sampling"):
            if row["name"].startswith("stabilizer"):
                metrics[f"sim.sampling.{row['name']}.speedup"] = row["speedup"]

    mapping = load(os.path.join(directory, "BENCH_map.json"))
    if mapping is not None:
        summary = mapping.get("summary", {})
        if "swap_reduction_percent" in summary:
            metrics["map.swap_reduction_percent"] = summary["swap_reduction_percent"]

    eq5 = load(os.path.join(directory, "BENCH_eq5.json"))
    if eq5 is not None:
        micro = eq5.get("revsimp_microbench", {})
        if "speedup" in micro:
            metrics["eq5.revsimp_microbench.speedup"] = micro["speedup"]

    library = load(os.path.join(directory, "BENCH_library.json"))
    if library is not None and not library.get("smoke", False):
        summary = library.get("summary", {})
        if "second_sighting_speedup" in summary:
            metrics["library.second_sighting_speedup"] = \
                summary["second_sighting_speedup"]
        if "warm_restart_speedup" in summary:
            metrics["library.warm_restart_speedup"] = \
                summary["warm_restart_speedup"]

    serve = load(os.path.join(directory, "BENCH_serve.json"))
    if serve is not None and not serve.get("smoke", False):
        summary = serve.get("summary", {})
        if "speedup_8_workers_vs_serial_baseline" in summary:
            metrics["serve.speedup_8_workers_vs_serial_baseline"] = \
                summary["speedup_8_workers_vs_serial_baseline"]
        if "structural_hit_rate" in summary:
            metrics["serve.structural_hit_rate"] = summary["structural_hit_rate"]
        if "degrade_healthy_ratio" in summary:
            metrics["serve.degrade_healthy_ratio"] = summary["degrade_healthy_ratio"]

    return metrics


def tpar_count_checks(baseline_dir, current_dir):
    """Yields (name, baseline, current) for every T/CNOT/gate count of
    every BENCH_tpar.json case and variant present in both runs."""
    baseline = load(os.path.join(baseline_dir, "BENCH_tpar.json"))
    current = load(os.path.join(current_dir, "BENCH_tpar.json"))
    if baseline is None or current is None:
        return
    current_cases = {case["name"]: case for case in current.get("cases", [])}
    for case in baseline.get("cases", []):
        fresh = current_cases.get(case["name"])
        if fresh is None:
            print(f"skip  tpar.{case['name']}: not in current run")
            continue
        for variant, counts in case.items():
            if not isinstance(counts, dict) or not isinstance(fresh.get(variant), dict):
                continue
            for count in ("t", "cnot", "gates"):
                if count in counts and count in fresh[variant]:
                    yield (f"tpar.{case['name']}.{variant}.{count}",
                           counts[count], fresh[variant][count])


def routing_count_checks(baseline_dir, current_dir):
    """Yields (name, baseline, current) for every count of every
    BENCH_map.json routing row present in both runs."""
    baseline = load(os.path.join(baseline_dir, "BENCH_map.json"))
    current = load(os.path.join(current_dir, "BENCH_map.json"))
    if baseline is None or current is None:
        return

    def key(row):
        return (row["workload"], row["device"], row["router"])

    current_rows = {key(row): row for row in current.get("routing", [])}
    for row in baseline.get("routing", []):
        name = "map.routing." + ".".join(key(row))
        fresh = current_rows.get(key(row))
        if fresh is None:
            print(f"skip  {name}: not in current run")
            continue
        for count in ("swaps", "direction_fixes", "cnot", "t", "depth"):
            yield (f"{name}.{count}", row[count], fresh.get(count))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline-dir", default=".",
                        help="directory with the committed BENCH_*.json files")
    parser.add_argument("--current-dir", default="build",
                        help="directory with the freshly produced BENCH_*.json files")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed relative drop before failing (default 0.20)")
    args = parser.parse_args()

    baseline = collect_metrics(args.baseline_dir)
    current = collect_metrics(args.current_dir)

    if not baseline:
        print(f"error: no baseline BENCH_*.json found in {args.baseline_dir}")
        return 2
    if not current:
        print(f"error: no fresh BENCH_*.json found in {args.current_dir}")
        return 2

    failures = []
    checked = 0
    for name, base_value in sorted(baseline.items()):
        if name.endswith("gates_per_s"):
            continue  # absolute metric: floor-gated only, hosts differ
        if name.startswith("library."):
            # floor-gated only: the warm segments are a few ms, so the
            # measured speedup swings well over 20% on loaded runners
            continue
        if name not in current:
            print(f"skip  {name}: not in current run (workload set differs)")
            continue
        checked += 1
        cur_value = current[name]
        floor = base_value * (1.0 - args.tolerance)
        status = "ok   "
        if cur_value < floor:
            status = "FAIL "
            failures.append(name)
        print(f"{status}{name}: baseline {base_value:.2f} -> current {cur_value:.2f} "
              f"(floor {floor:.2f})")

    for name, floor in sorted(ABSOLUTE_FLOORS.items()):
        if name not in current:
            print(f"skip  {name}: not in current run (absolute floor)")
            continue
        checked += 1
        cur_value = current[name]
        status = "ok   "
        if cur_value < floor:
            status = "FAIL "
            failures.append(name)
        print(f"{status}{name}: current {cur_value:.2f} (absolute floor {floor:.2f})")

    base_work = collect_work(args.baseline_dir)
    for name, cur_value in sorted(collect_work(args.current_dir).items()):
        checked += 1
        ceiling = WORK_CEILINGS[name]
        if name in base_work:
            ceiling = min(ceiling, base_work[name] * (1.0 + WORK_TOLERANCE))
        status = "ok   "
        if cur_value > ceiling:
            status = "FAIL "
            failures.append(name)
        print(f"{status}{name}: current {cur_value} (ceiling {ceiling:g})")

    for name, base_value, cur_value in tpar_count_checks(args.baseline_dir,
                                                         args.current_dir):
        checked += 1
        status = "ok   "
        if cur_value > base_value:
            status = "FAIL "
            failures.append(name)
        print(f"{status}{name}: baseline {base_value} -> current {cur_value} (must not rise)")

    for name, base_value, cur_value in routing_count_checks(args.baseline_dir,
                                                            args.current_dir):
        checked += 1
        status = "ok   "
        if cur_value != base_value:
            status = "FAIL "
            failures.append(name)
        print(f"{status}{name}: baseline {base_value} -> current {cur_value} (must not move)")

    if checked == 0:
        print("error: baseline and current runs share no metrics")
        return 2
    if failures:
        print(f"\n{len(failures)} metric(s) regressed (ratios by more than "
              f"{args.tolerance:.0%}, tpar counts at all, routing counts in either direction, "
              f"work counters past their ceilings): "
              f"{', '.join(failures)}")
        return 1
    print(f"\nall {checked} enforced metric(s) hold (ratios within {args.tolerance:.0%}, "
          f"tpar counts not above baseline, routing counts exact, work counters under "
          f"their ceilings)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
