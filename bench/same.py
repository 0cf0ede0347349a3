#!/usr/bin/env python3
"""Byte-for-byte behaviour check of this working tree against a revision.

Run from the root of a checkout (or through `make same`):

    python3 bench/same.py --base REV

`git archive`s REV and copies this working tree (tracked files and
untracked ones that are not ignored, without build outputs) into two
temporary directories, builds both, and runs the same checks in each:

- the deterministic sweeps `bench/chaos_sweep.exe`, `bench/tamper_sweep.exe`,
  `bench/fuzz.exe` and `bench/overload_sweep.exe`;
- `bench/shrink_sweep.exe`, with the trailing wall-clock seconds of each
  per-repro line masked (the only part of its output that is not
  deterministic);
- `prima generate --accesses 600 --seed 5` into the copy, then `prima
  federation-health` over that trail twice, with budget classes and
  without: the only checks that print an admission rejection and its
  retry hint (the sweeps print counts);
- `prima recover` and `prima verify` over the WAL that `generate` wrote
  beside the trail: the CLI's durable commands, and the only checks that
  open a log through `Audit_store.open_durable`;
- `prima chaos --replay FILE` for every committed repro under
  `test/chaos_corpus/`, so a reworded violation message shows.

Each check's standard output must match byte for byte, and its exit code
too; every output difference is printed as a unified diff.  The exit code
is 1 when any check differs, 0 otherwise.
The checks run inside the copies, so the `BENCH_*.json` files the sweeps
rewrite are the copies', never this checkout's.  The temporary directories
are removed on exit.
"""

import argparse
import difflib
import glob
import os
import re
import shutil
import subprocess
import sys
import tempfile

SWEEPS = ["chaos_sweep", "tamper_sweep", "fuzz", "overload_sweep", "shrink_sweep"]
CORPUS = os.path.join("test", "chaos_corpus")
CLI = os.path.join("bin", "prima_cli.exe")
# The wall-clock seconds that end each shrink-sweep row ("<n> candidates, 1.4s").
SHRINK_SECONDS = re.compile(r"(candidates, )\d+\.\ds")
# One generated trail per copy, also written as a WAL, then its federation
# health report with the tenant admission gate in front of the sites and
# without it, and the WAL read back by the durable commands.
TRAIL = ["generate", "--accesses", "600", "--seed", "5",
         "--audit-out", "same-audit.csv", "--policy-out", "same-policy.txt",
         "--wal-out", "same.wal"]
GATE = ["--class", "gold=50:5:3", "--class", "standard=20:2:1", "--tenant", "mark=gold"]
FAULTS = ["--archive", "--heal", "--corrupt", "0.05", "--flaky", "0.3"]
HEALTH = ["federation-health", "--audit", "same-audit.csv"]


def copy_working_tree(dest):
    """Copy every tracked or unignored untracked file that exists."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        stdout=subprocess.PIPE, check=True,
    ).stdout.decode().split("\0")
    for path in filter(None, listed):
        if not os.path.isfile(path):
            continue  # deleted in the working tree
        target = os.path.join(dest, path)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        shutil.copy2(path, target)


def build(checkout):
    targets = [os.path.join("bench", s + ".exe") for s in SWEEPS] + [CLI]
    subprocess.run(["dune", "build", "--root", "."] + targets, cwd=checkout, check=True)


def run(checkout, exe, *args):
    """(exit code, stdout) of one built executable run inside [checkout],
    with the shrink sweep's seconds masked."""
    proc = subprocess.run([os.path.join(checkout, "_build", "default", exe), *args],
                          cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    return proc.returncode, SHRINK_SECONDS.sub(r"\1<s>s", proc.stdout)


def checks(sides):
    """(name, executable, arguments) of every check: each sweep, the
    generated trail, its two health reports and its WAL's recovery and
    verification, then a replay of each repro either copy commits."""
    for sweep in SWEEPS:
        yield sweep, os.path.join("bench", sweep + ".exe"), []
    yield "generate", CLI, TRAIL
    yield "federation-health --class", CLI, HEALTH + GATE + FAULTS
    yield "federation-health", CLI, HEALTH + FAULTS
    yield "recover", CLI, ["recover", "--wal", "same.wal"]
    yield "verify", CLI, ["verify", "--wal", "same.wal"]
    repros = sorted({os.path.relpath(path, side)
                     for side in sides.values()
                     for path in glob.glob(os.path.join(side, CORPUS, "*.repro"))})
    for repro in repros:
        yield os.path.basename(repro), CLI, ["chaos", "--replay", repro]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the revision to compare against")
    args = parser.parse_args()
    if not (os.path.isfile("dune-project") and os.path.isdir("bench")):
        sys.exit("same: run from the root of a checkout")
    root = tempfile.mkdtemp(prefix="prima-same-")
    try:
        sides = {"base": os.path.join(root, "base"), "change": os.path.join(root, "change")}
        for path in sides.values():
            os.makedirs(path)
        archive = subprocess.run(["git", "archive", args.base], stdout=subprocess.PIPE, check=True)
        subprocess.run(["tar", "-x", "-C", sides["base"]], input=archive.stdout, check=True)
        copy_working_tree(sides["change"])
        for path in sides.values():
            build(path)
        different = []
        for name, exe, exe_args in checks(sides):
            (base_code, base_out), (change_code, change_out) = (
                run(sides["base"], exe, *exe_args), run(sides["change"], exe, *exe_args))
            same = base_out == change_out and base_code == change_code
            print(f"{name:<40} {'same' if same else 'DIFFERENT'}"
                  f" ({len(base_out.splitlines())} lines; exit {base_code} at {args.base},"
                  f" {change_code} here)")
            if not same:
                different.append(name)
                sys.stdout.writelines(difflib.unified_diff(
                    base_out.splitlines(keepends=True), change_out.splitlines(keepends=True),
                    fromfile=f"{name} at {args.base}", tofile=f"{name} here"))
        if different:
            print("different: " + ", ".join(different))
            sys.exit(1)
        print("every check prints the same bytes")
    finally:
        shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    main()
