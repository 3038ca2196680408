#!/usr/bin/env python3
"""Self-check of the benchmark's checkers.

Runs a few real ``hardy-means`` invocations, requires their checks to
accept the outputs, then requires each check to reject a deliberately
perturbed copy: a ratio off by 1e-9, a swapped verdict, a Monte Carlo
value 10 standard errors away, and a JSON document with one byte added.
Run from the root of a checkout:

    python3 perfbench/selfcheck.py

Exits 0 when every output is accepted and every perturbation rejected.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
from dataclasses import replace

import numpy as np

import oracles as O
from oracles import CheckError
from run import DEADLINE_S, ROOT, SRC, Launcher
from workloads import (
    classify_points_op, hardy_sum_op, judge, log_uniform, monte_carlo_op, write_vector,
)


def _edit_json(outcome, edit):
    doc = json.loads(outcome.stdout)
    edit(doc)
    return replace(outcome, stdout=O.reserialise(doc) + "\n")


def _ratio_off(outcome):
    def edit(doc):
        doc["rows"][-1]["ratio"] *= 1 + 1e-9

    return _edit_json(outcome, edit)


def _verdict_swapped(outcome):
    return replace(outcome, stdout=outcome.stdout.replace(": Open (", ": Hardy ("))


def _monte_carlo_off(outcome):
    def edit(doc):
        row = doc["rows"][0]
        row["value"] += 10 * row["stderr"]

    return _edit_json(outcome, edit)


def _json_byte_added(outcome):
    return replace(outcome, stdout=outcome.stdout.replace('":', '": ', 1))


def main() -> int:
    if not (SRC / "hardy_means" / "cli.py").is_file():
        print(f"no hardy_means package under {SRC}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work" / f"selfcheck-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        narrow = log_uniform(np.random.default_rng(0), 2000, 1.0)
        pair_sum = hardy_sum_op("cmn:2,1,0", "powertail:2", 1000, "json", O.HARDY_CONSTANT_4)
        cases = [
            ("ratio off by 1e-9", pair_sum, _ratio_off),
            ("swapped verdict", classify_points_op((3, "2", "0")), _verdict_swapped),
            ("Monte Carlo value 10 standard errors away",
             monte_carlo_op(5, write_vector(workdir / "narrow.txt", narrow), narrow, 100_000, 1), _monte_carlo_off),
            ("JSON byte added", pair_sum, _json_byte_added),
        ]
        with Launcher(workdir, time.monotonic() + DEADLINE_S) as invoke:
            outcomes = [invoke(op.argv)[3] for _, op, _ in cases]
        ok = True
        for (what, op, perturb), outcome in zip(cases, outcomes):
            try:
                judge(op, outcome)
            except CheckError as exc:
                print(f"FAIL {what}: the unperturbed output was rejected: {exc}")
                ok = False
                continue
            try:
                judge(op, perturb(outcome))
            except CheckError as exc:
                print(f"ok   {what}: rejected ({exc})")
            else:
                print(f"FAIL {what}: the perturbed output was accepted")
                ok = False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
