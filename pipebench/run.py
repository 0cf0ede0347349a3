#!/usr/bin/env python3
"""Build the PRIMA pipeline benchmark from source and run one workload.

Run from the root of a checkout:

    python3 pipebench/run.py --workload monitor|bulk|clinic --seed N --seconds S --trace 0|1

The benchmark executable is built with dune (the shared dune cache is
disabled, so the build writes only under _build/) and then replaces this
process; its last line of standard output is the result as one JSON object.
Without the repository's sources beside it, the build fails and the
command exits non-zero without printing a result.
"""

import os
import subprocess
import sys

TARGET = os.path.join("pipebench", "pipebench.exe")


def main() -> int:
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("pipebench: run from the root of a PRIMA checkout", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./" + TARGET],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("pipebench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join("_build", "default", TARGET)
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
