#!/usr/bin/env python3
"""Repeatability check: two sets of runs of every workload on the same code.

Reads the command, the workloads, the end-to-end metrics and their bounds
from BENCHMARK.json and runs each workload `--runs` times per set. Run `r`
of either set uses seed `r`: within a set every run has another seed, as
in the driver's check, so the spread holds input variance and machine
noise; between the sets the seeds are the same, so the gap between the two
medians is machine noise alone. Prints per (workload, metric) each set's
median and quartiles, the spread (quartile distance over median), the gap
between the two set medians in the worse direction, and the bound. Exits
non-zero when a gap or a spread (setup_s excepted for the spread) exceeds
its bound. The serve-layer timings that every run measures but that carry
no bound are tabulated too, so the table shows why they carry none.

    python3 benchmark/repeat.py --runs 10 --markdown benchmark/REPEATABILITY.md

Run it from the root of the repository. A table is the record of one
session: after a bound or the benchmark has changed, run it again.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.time()
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
    # The full row (the line before the result) also carries the metrics
    # every run measures but that have no bound.
    row = json.loads(lines[-2])
    values = {k: v for k, v in row["end_to_end"].items()}
    values.update(row["per_layer"])
    return values, time.time() - started


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=5, help="runs per set (>= 5)")
    ap.add_argument("--markdown", help="also write the table here")
    ap.add_argument("--workload", action="append", help="only these workloads")
    args = ap.parse_args()
    if args.runs < 5:
        sys.exit("a set is at least 5 runs")

    spec = json.load(open("BENCHMARK.json"))
    workloads = [w["name"] for w in spec["workloads"]
                 if not args.workload or w["name"] in args.workload]
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    # sets[s][workload][metric] -> values; metrics in the order rows print them
    sets = [{w: {} for w in workloads} for _ in range(2)]
    units = {}
    walls = []
    for s in range(2):
        for workload in workloads:
            for seed in range(1, args.runs + 1):
                values, wall = run_once(spec["command"], workload, seed, spec["run_seconds"])
                walls.append(wall)
                for name, v in values.items():
                    sets[s][workload].setdefault(name, []).append(v["value"])
                    units[name] = v["unit"]
                print(f"set {s + 1} {workload} seed {seed}: {wall:.1f}s", file=sys.stderr)

    lines = [
        f"Two sets of {args.runs} runs per workload; run r of either set has seed r "
        f"(1-{args.runs}); `--seconds {spec['run_seconds']}`; one run took "
        f"{statistics.median(walls):.1f} s (median), {max(walls):.1f} s (longest).",
        "",
        "`spread` is the distance between the first and third quartile over the median; "
        "`gap` is how much worse the second set's median is than the first's "
        "(negative: better). Both are shares, to be compared with `bound`; a metric "
        "without a bound is one every run measures and none may be judged by.",
        "",
        "| workload | metric | set 1 q1 / median / q3 | spread | set 2 q1 / median / q3 "
        "| spread | gap | bound | ok |",
        "| --- | --- | --- | --- | --- | --- | --- | --- | --- |",
    ]
    failed = False
    for workload in workloads:
        for name in sets[0][workload]:
            a = summary(sets[0][workload][name])
            b = summary(sets[1][workload][name])
            gap = (b[1] - a[1]) / a[1]
            if better[name] == "higher":
                gap = -gap
            if name in bounded:
                bound = bounded[name]["bound"]
                spread_matters = name != "setup_s"
                ok = gap <= bound and (not spread_matters or max(a[3], b[3]) <= bound)
                verdict = "yes" if ok else "NO"
                failed |= not ok
            else:
                bound, verdict = "-", "-"
            lines.append(
                f"| {workload} | {name} ({units[name]}) "
                f"| {a[0]:.5g} / {a[1]:.5g} / {a[2]:.5g} | {a[3]:.4f} "
                f"| {b[0]:.5g} / {b[1]:.5g} / {b[2]:.5g} | {b[3]:.4f} "
                f"| {gap:+.4f} | {bound} | {verdict} |")
    table = "\n".join(lines)
    print(table)
    if args.markdown:
        with open(args.markdown, "w") as f:
            f.write("# Repeatability\n\n"
                    "Output of `python3 benchmark/repeat.py`, committed as measured. "
                    "The bounds in `BENCHMARK.json` are taken from tables like this "
                    "one; see `README.md`, \"Bounds\".\n\n" + table + "\n")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
