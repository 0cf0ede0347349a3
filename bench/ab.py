#!/usr/bin/env python3
"""Alternating parent/change runs of the pipeline benchmark.

Run from the root of a checkout (or through `make ab`):

    python3 bench/ab.py --base REV --workload monitor [--pairs 10] [--seeds 1,2]

`git archive`s REV into a temporary directory, then runs
`pipebench/run.py` there (the parent) and in this working tree (the
change) in turn, once each per pair and seed, swapping which side goes
first from one pair to the next so that drift in host speed falls on both
alike.  Every run lasts BENCHMARK.json's `run_seconds`, the benchmark's
own run length.  Each run builds its own checkout.  At the end it prints, for each
end-to-end metric BENCHMARK.json gates, the parent's and the change's
median and quartiles over all their runs, the change's median relative
to the parent's, the pairs the change won, the parent's quartile spread
and a verdict (see `verdict`), and it lists every run that did not report
`correct: true` with 0 failed.  The exit code is 1 when there is such a
run.  Nothing under pipebench/ is changed; the temporary directory is
removed on exit.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def relative(delta, base):
    if base:
        return delta / abs(base)
    return 0.0 if delta == 0 else float("inf")


def verdict(parent, change, won, pairs, better, bound):
    """One metric's reading, from its runs on each side and its pairs.

    `gain`: the change won at least 9/10 of the pairs and its median is
    better than the parent's by more than the parent's quartile spread.
    `worse`: the change's median is worse than the parent's by more than
    `bound`, a fraction of the parent's median.  `unresolved`: either
    side's quartile spread is wider than `bound` of its median, unless
    every change run reads better than every parent run.  `same`:
    otherwise."""
    sign = 1 if better == "lower" else -1
    pq, cq = quartiles(parent), quartiles(change)
    gain_by = sign * (pq[1] - cq[1])
    if pairs and 10 * won >= 9 * pairs and gain_by > pq[2] - pq[0]:
        return "gain"
    if relative(-gain_by, pq[1]) > bound:
        return "worse"
    spread = max(relative(q[2] - q[0], q[1]) for q in (pq, cq))
    if spread > bound and not all(sign * (p - c) > 0 for p in parent for c in change):
        return "unresolved"
    return "same"


def run(checkout, workload, seed, seconds):
    """The result object a run prints last, or None when it printed none."""
    proc = subprocess.run(
        [sys.executable, os.path.join("pipebench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the parent revision")
    parser.add_argument("--workload", required=True, help="monitor, bulk or clinic")
    parser.add_argument("--pairs", type=int, default=10, help="parent/change pairs per seed")
    parser.add_argument("--seeds", default="1", help="comma-separated seeds")
    args = parser.parse_args()
    if not (os.path.isfile("BENCHMARK.json") and os.path.isdir("pipebench")):
        sys.exit("ab: run from the root of a checkout")
    with open("BENCHMARK.json") as f:
        benchmark = json.load(f)
    gated = {m["name"]: m for m in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]
    seeds = [int(s) for s in args.seeds.split(",")]
    base_dir = tempfile.mkdtemp(prefix="prima-ab-")
    try:
        archive = subprocess.run(["git", "archive", args.base], stdout=subprocess.PIPE, check=True)
        subprocess.run(["tar", "-x", "-C", base_dir], input=archive.stdout, check=True)
        sides = {"parent": base_dir, "change": os.getcwd()}
        pairs = []  # per pair, each side's {metric: value}
        bad = []
        for seed in seeds:
            for _ in range(args.pairs):
                order = ["parent", "change"] if len(pairs) % 2 == 0 else ["change", "parent"]
                pairs.append({side: {} for side in sides})
                for side in order:
                    result = run(sides[side], args.workload, seed, seconds)
                    label = f"{side} seed {seed} pair {len(pairs)}"
                    if result is None:
                        bad.append(f"{label}: no result")
                        continue
                    if not result.get("correct") or result.get("failed", 1) != 0:
                        bad.append(f"{label}: correct={result.get('correct')} failed={result.get('failed')}")
                    metrics = result.get("metrics", {})
                    for m in gated:
                        if m in metrics:
                            pairs[-1][side][m] = metrics[m]["value"]
                    print(label + ": " + ", ".join(
                        f"{m}={metrics[m]['value']:.6g}" for m in gated if m in metrics), flush=True)
    finally:
        shutil.rmtree(base_dir, ignore_errors=True)
    print(f"\n{args.workload}, seeds {args.seeds}, {len(pairs)} pairs of {seconds:g} s runs, "
          f"parent {args.base} vs this working tree")
    print(f"{'metric':<14} {'parent median [q1, q3]':<36} {'change median [q1, q3]':<36} "
          f"{'change/parent':<14} {'won':<6} {'parent q3-q1':<13} verdict")
    for m, spec in gated.items():
        p = [pair["parent"][m] for pair in pairs if m in pair["parent"]]
        c = [pair["change"][m] for pair in pairs if m in pair["change"]]
        if not p or not c:
            print(f"{m:<14} (no values)")
            continue
        both = [pair for pair in pairs if m in pair["parent"] and m in pair["change"]]
        sign = 1 if spec["better"] == "lower" else -1
        won = sum(1 for pair in both if sign * (pair["parent"][m] - pair["change"][m]) > 0)
        pq, cq = quartiles(p), quartiles(c)
        cell = lambda q: f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"
        print(f"{m:<14} {cell(pq):<36} {cell(cq):<36} {relative(cq[1] - pq[1], pq[1]):<+14.1%} "
              f"{f'{won}/{len(both)}':<6} {pq[2] - pq[0]:<13.6g} "
              f"{verdict(p, c, won, len(both), spec['better'], spec['bound'])}")
    if bad:
        print("\nruns not correct:")
        for line in bad:
            print("  " + line)
        return 1
    print("\nevery run correct, 0 failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
