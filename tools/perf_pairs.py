#!/usr/bin/env python3
"""Compare two checkouts on one perfbench workload by alternating pairs.

Usage (from anywhere):

    python3 tools/perf_pairs.py PARENT_DIR CHANGE_DIR WORKLOAD SEED... [--dry-run]

For each seed, both checkouts run

    python3 perfbench/run.py --workload WORKLOAD --seed SEED --seconds S --trace 0

with S the run_seconds of BENCHMARK.json, in their own directory (each
builds its own .bench_build/), one after the other. The side that runs
first alternates with the seed's parity: the parent on even seeds, the
change on odd ones, so a host that drifts over the runs favours neither
side. Every run's end-to-end metrics are printed as it finishes; at the
end, each metric gets both medians with their quartiles and the number of
pairs the change won. The run length, the
metric names and their direction come from BENCHMARK.json next to this
script's tools/ directory. --dry-run prints the run order and runs nothing.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def benchmark_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["better"]) for m in spec["end_to_end"]]
    return spec["run_seconds"], metrics


def run_order(seed):
    return ("parent", "change") if seed % 2 == 0 else ("change", "parent")


def run_side(directory, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=directory, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.stderr.write(proc.stderr[-4000:])
        sys.exit(f"perf_pairs: no result from {directory} (exit {proc.returncode})")
    result = json.loads(lines[-1])
    result["exit"] = proc.returncode
    return result


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_dir", type=Path)
    ap.add_argument("change_dir", type=Path)
    ap.add_argument("workload")
    ap.add_argument("seeds", type=int, nargs="+")
    ap.add_argument("--dry-run", action="store_true")
    args = ap.parse_args()
    dirs = {"parent": args.parent_dir, "change": args.change_dir}

    if args.dry_run:
        for seed in args.seeds:
            for side in run_order(seed):
                print(f"seed {seed}: {side} ({dirs[side]})")
        return 0

    seconds, metrics = benchmark_spec()
    values = {side: {name: [] for name, _ in metrics} for side in dirs}
    won = {name: 0 for name, _ in metrics}
    failed = {side: 0 for side in dirs}
    for seed in args.seeds:
        pair = {}
        for side in run_order(seed):
            result = run_side(dirs[side], args.workload, seed, seconds)
            pair[side] = result
            failed[side] += result.get("failed", 0)
            shown = " ".join(
                f"{name}={result['metrics'][name]['value']:.4g}"
                for name, _ in metrics if name in result["metrics"])
            print(f"seed {seed} {side}: correct={result.get('correct')} "
                  f"failed={result.get('failed', 0)} exit={result['exit']} "
                  f"{shown}", flush=True)
        for name, better in metrics:
            if not all(name in pair[s]["metrics"] for s in dirs):
                continue
            p = pair["parent"]["metrics"][name]["value"]
            c = pair["change"]["metrics"][name]["value"]
            values["parent"][name].append(p)
            values["change"][name].append(c)
            if (c < p) if better == "lower" else (c > p):
                won[name] += 1

    print(f"\n{args.workload}: {len(args.seeds)} pairs, failed parent "
          f"{failed['parent']} / change {failed['change']}")
    print(f"{'metric':<14} {'parent median [q1, q3]':<30} "
          f"{'change median [q1, q3]':<30} change won")
    for name, _ in metrics:
        if not values["parent"][name]:
            continue
        cols = []
        for side in ("parent", "change"):
            q1, q2, q3 = quartiles(values[side][name])
            cols.append(f"{q2:.4g} [{q1:.4g}, {q3:.4g}]")
        print(f"{name:<14} {cols[0]:<30} {cols[1]:<30} "
              f"{won[name]}/{len(values['parent'][name])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
