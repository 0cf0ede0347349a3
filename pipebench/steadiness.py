#!/usr/bin/env python3
"""Steadiness of the pipeline benchmark across runs.

Run a sweep, saving each run's standard output as one file:

    python3 pipebench/steadiness.py run --seeds 1-10 [--workloads monitor,bulk,clinic]
        [--seconds N] [--trace 0|1] [--out pipebench/results]

Summarize result files (any mix of workloads and seeds):

    python3 pipebench/steadiness.py summary pipebench/results/*.out

For untraced results the summary prints, per workload and end-to-end metric,
the median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median against the metric's bound in BENCHMARK.json.  A spread
wider than the bound is flagged UNRESOLVED; one wider than a third of it is
flagged wide.  For traced results it checks that every count-valued
per-layer metric repeats exactly across runs of the same workload and seed.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HEADER = re.compile(r"pipebench workload=(\S+) seed=(\d+) trace=(\d)")
# Units of per-layer metrics read off a clock; every other one is a count.
TIMED_UNITS = {"ms", "%"}


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse(path):
    with open(path) as f:
        lines = [line.rstrip("\n") for line in f if line.strip()]
    header = next((HEADER.match(line) for line in lines if HEADER.match(line)), None)
    if header is None or not lines[-1].startswith("{"):
        return None
    result = json.loads(lines[-1])
    return {
        "path": path,
        "workload": header.group(1),
        "seed": int(header.group(2)),
        "trace": int(header.group(3)),
        "result": result,
    }


def seeds_of(spec):
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(args):
    bench = load_benchmark()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    os.makedirs(args.out, exist_ok=True)
    for workload in workloads:
        for seed in seeds_of(args.seeds):
            path = os.path.join(args.out, f"{workload}-seed{seed}-trace{args.trace}.out")
            command = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(args.trace),
            ]
            with open(path, "w") as out:
                code = subprocess.run(command, cwd=ROOT, stdout=out).returncode
            print(f"{path}: exit {code}", flush=True)
    return 0


def summary(args):
    bench = load_benchmark()
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    runs = [r for r in map(parse, args.files) if r is not None]
    status = 0
    for workload in sorted({r["workload"] for r in runs if r["trace"] == 0}):
        group = [r for r in runs if r["workload"] == workload and r["trace"] == 0]
        failed = sum(r["result"]["failed"] for r in group)
        print(f"{workload}: {len(group)} runs, seeds {sorted(r['seed'] for r in group)}, "
              f"{failed} failed of {sum(r['result']['attempted'] for r in group)} attempted")
        print(f"  {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, spec in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in group if name in r["result"]["metrics"]]
            if len(values) < 2:
                print(f"  {name:<18} fewer than two values")
                status = 1
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = ""
            if spread > spec["bound"]:
                flag = "UNRESOLVED"
                if name != "setup_s":
                    status = 1
            elif spread > spec["bound"] / 3:
                flag = "wide"
            print(f"  {name:<18} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.3f} {spec['bound']:>6} {flag}")
    traced = [r for r in runs if r["trace"] == 1]
    for key in sorted({(r["workload"], r["seed"]) for r in traced}):
        group = [r for r in traced if (r["workload"], r["seed"]) == key]
        if len(group) < 2:
            continue
        counts = [{k: v["value"] for k, v in r["result"]["metrics"].items() if v["unit"] not in TIMED_UNITS}
                  for r in group]
        differing = sorted(k for k in counts[0] if any(c.get(k) != counts[0][k] for c in counts[1:]))
        verdict = "counts repeat exactly" if not differing else "counts DIFFER: " + ", ".join(differing)
        print(f"traced {key[0]} seed {key[1]}: {len(group)} runs, {verdict}")
        if differing:
            status = 1
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run", help="run a sweep of seeds")
    r.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,7")
    r.add_argument("--workloads", default="")
    r.add_argument("--seconds", type=int, default=0, help="default: BENCHMARK.json run_seconds")
    r.add_argument("--trace", type=int, default=0)
    r.add_argument("--out", default=os.path.join(ROOT, "pipebench", "results"))
    s = sub.add_parser("summary", help="summarize result files")
    s.add_argument("files", nargs="+")
    args = parser.parse_args()
    return run(args) if args.command == "run" else summary(args)


if __name__ == "__main__":
    sys.exit(main())
