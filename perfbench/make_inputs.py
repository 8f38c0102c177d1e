"""Write one run's inputs and report when they exist.

    python3 perfbench/make_inputs.py --workload NAME --seed N --out DIR [--smoke]

The runner starts this script several times per run to measure set-up
time: interpreter start, ``import cmrf`` and the ``cmrf complex generate``
and ``cmrf model build`` commands.  The last stdout line is the value of
``time.monotonic()`` once every input file is written; the exit code is
the number of input commands that failed.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time
from pathlib import Path

import workloads


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    w = workloads.WORKLOADS[args.workload]
    if args.smoke:
        w = workloads.smoke(w)

    workloads.use_source_tree()
    from cmrf import cli

    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        codes = workloads.make_inputs(w, args.seed, Path(args.out), cli.main)
    ready = time.monotonic()
    print(ready)
    return sum(1 for c in codes if c != 0)


if __name__ == "__main__":
    sys.exit(main())
