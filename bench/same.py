#!/usr/bin/env python3
"""Byte-for-byte behaviour check of this working tree against a revision.

Run from the root of a checkout (or through `make same`):

    python3 bench/same.py --base REV

`git archive`s REV and copies this working tree (tracked files and
untracked ones that are not ignored, without build outputs) into two
temporary directories, builds both, and runs the deterministic sweeps in
each: `bench/chaos_sweep.exe`, `bench/tamper_sweep.exe`, `bench/fuzz.exe`
and `bench/overload_sweep.exe`.  Each sweep's standard output must match
byte for byte, and its exit code too; every output difference is printed
as a unified diff.  The exit code is 1 when any sweep differs, 0
otherwise.
The sweeps run inside the copies, so the `BENCH_*.json` files they rewrite
are the copies', never this checkout's.  The temporary directories are
removed on exit.
"""

import argparse
import difflib
import os
import shutil
import subprocess
import sys
import tempfile

SWEEPS = ["chaos_sweep", "tamper_sweep", "fuzz", "overload_sweep"]


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
    targets = [os.path.join("bench", s + ".exe") for s in SWEEPS]
    subprocess.run(["dune", "build", "--root", "."] + targets, cwd=checkout, check=True)


def run(checkout, sweep):
    """(exit code, stdout) of one sweep run inside [checkout]."""
    exe = os.path.join(checkout, "_build", "default", "bench", sweep + ".exe")
    proc = subprocess.run([exe], cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    return proc.returncode, proc.stdout


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
        for sweep in SWEEPS:
            (base_code, base_out), (change_code, change_out) = (
                run(sides["base"], sweep), run(sides["change"], sweep))
            same = base_out == change_out and base_code == change_code
            print(f"{sweep:<16} {'same' if same else 'DIFFERENT'}"
                  f" ({len(base_out.splitlines())} lines; exit {base_code} at {args.base},"
                  f" {change_code} here)")
            if not same:
                different.append(sweep)
                sys.stdout.writelines(difflib.unified_diff(
                    base_out.splitlines(keepends=True), change_out.splitlines(keepends=True),
                    fromfile=f"{sweep} at {args.base}", tofile=f"{sweep} here"))
        if different:
            print("different: " + ", ".join(different))
            sys.exit(1)
        print("all sweeps print the same bytes")
    finally:
        shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    main()
