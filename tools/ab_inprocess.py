#!/usr/bin/env python3
"""Time two source trees against each other in one interpreter.

Run from anywhere:

    python tools/ab_inprocess.py PARENT CHANGE [--rounds N]

PARENT and CHANGE are checkouts of this repository.  Each tree's
``src/hardy_means`` is copied into a scratch directory as its own package,
``hm_parent`` or ``hm_change`` (the package imports itself only
relatively), and both are imported into this interpreter, so the two
share one numpy, one allocator and one warm CPU.  Timings of fresh
processes also carry start-up and the layout of each copy on disk and in
memory, which can part two byte-identical copies of one tree by more than
a change of the code does.

Each round runs the calls of the ``hardy-prefix`` workload of
``perfbench/workloads.py`` through ``cli.main``, output discarded, then
``run_verification(quick=True)``, first for one tree and then for the
other; the tree that goes first alternates from round to round.  The
script prints, per call and for the sum of the calls, the median seconds
of each tree, the median minor page faults of each tree (the growth of
``getrusage(RUSAGE_SELF).ru_minflt`` across the call) and in how many
rounds the change took less time.  Two forms of one computation can part
by their faults where their arithmetic is the same, for instance when a
temporary sits near glibc's mmap threshold.  The trees share one
allocator, so one tree's faults also depend on what the other allocated
and freed before.  It exits 1 if a call fails.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

# The calls of the hardy-prefix workload (perfbench/workloads.py).
CALLS = {
    "estimate-constant": ("estimate-constant", "--mean", "cmn:2,1,0", "-N", "1000000", "--format", "json"),
    "hardy-sum power": (
        "hardy-sum", "--mean", "power:0.5", "--family", "powertail:2", "-N", "1000000", "--format", "json",
    ),
    "hardy-sum e_k": (
        "hardy-sum", "--mean", "cmn:3,2,0", "--family", "harmonic-truncated:1000", "-N", "100000", "--format", "json",
    ),
}
VERIFY = "verify --quick"
TREES = ("parent", "change")
MODULES = ("cli", "cmn_means", "hardy", "prefix", "routes", "verification")


def load(tree: Path, name: str, scratch: Path) -> dict:
    """Copy the package of ``tree`` to ``scratch/name`` and import all of it."""
    shutil.copytree(tree / "src" / "hardy_means", scratch / name, ignore=shutil.ignore_patterns("__pycache__"))
    return {module: importlib.import_module(f"{name}.{module}") for module in MODULES}


def run(package: dict, call: str) -> tuple[float, int]:
    """Seconds one call takes in ``package``, and its minor page faults."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    if call == VERIFY:
        package["verification"].run_verification(quick=True)
    else:
        with contextlib.redirect_stdout(io.StringIO()):
            code = package["cli"].main(list(CALLS[call]))
        if code != 0:
            raise SystemExit(f"hardy-means {' '.join(CALLS[call])} exited {code}")
    return time.perf_counter() - start, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--rounds", type=int, default=12)
    args = parser.parse_args(argv)
    # as the command line does before numpy loads: one BLAS thread
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.dont_write_bytecode = True
    calls = [*CALLS, VERIFY]
    times = {tree: {call: [] for call in calls} for tree in TREES}
    faults = {tree: {call: [] for call in calls} for tree in TREES}
    with tempfile.TemporaryDirectory() as scratch:
        sys.path.insert(0, scratch)
        packages = {tree: load(getattr(args, tree), f"hm_{tree}", Path(scratch)) for tree in TREES}
        for r in range(args.rounds):
            for tree in TREES if r % 2 == 0 else TREES[::-1]:
                for call in calls:
                    seconds, minflt = run(packages[tree], call)
                    times[tree][call].append(seconds)
                    faults[tree][call].append(minflt)
    for table in (times, faults):
        for tree in TREES:
            table[tree]["total"] = [sum(each) for each in zip(*table[tree].values())]
    print(f"{'call':<20}  {'parent_s':>9}  {'change_s':>9}  {'parent_minflt':>13}  {'change_minflt':>13}  change lower")
    for call in [*calls, "total"]:
        parent, change = times["parent"][call], times["change"][call]
        lower = sum(c < p for p, c in zip(parent, change))
        print(f"{call:<20}  {statistics.median(parent):9.4f}  {statistics.median(change):9.4f}  "
              f"{statistics.median(faults['parent'][call]):13.0f}  {statistics.median(faults['change'][call]):13.0f}  "
              f"{lower}/{len(parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
