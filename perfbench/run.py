#!/usr/bin/env python3
"""Benchmark of the hardy-means CLI, end to end (--trace 0) and per layer (--trace 1).

Run from the root of a checkout; the program is the package under src/,
run from source:

    python3 perfbench/run.py --workload hardy-prefix --seed 1 --seconds 25 --trace 0

--trace 0 runs every invocation of the workload in a fresh interpreter
(``python3 -m hardy_means ...``), one at a time from a single small
launcher process (launch.py) with no extra threads, with
HARDY_MEANS_THREADS unset: a closed loop with one client.  It repeats
whole passes over the workload until the passes have taken --seconds,
checks every output (oracles.py) and prints the end-to-end metrics.
--trace 1 drives the workload in-process, two untraced passes and one with
spans around each layer, and prints the per-layer metrics (layers.py).  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from oracles import CheckError
from workloads import WORKLOADS, Op, Outcome, build, judge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# `hardy-means --help` runs in a fresh interpreter this many times per run;
# setup_s is their median.
SETUP_REPEATS = 15
# Every run ends within 180 s; an invocation still running at this point
# is killed and the run fails.
DEADLINE_S = 170.0


class Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise Timeout


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("HARDY_MEANS_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Launcher:
    """Runs ``python3 -m hardy_means <argv>`` through launch.py, one
    invocation at a time, and returns (wall_s, cpu_s, rss_kb, Outcome)."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        signal.signal(signal.SIGALRM, _on_alarm)
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launch.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True,
        )

    def __call__(self, argv):
        out_path = self.workdir / "stdout"
        err_path = self.workdir / "stderr"
        request = {"argv": list(argv), "out": str(out_path), "err": str(err_path)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise Timeout
        signal.setitimer(signal.ITIMER_REAL, remaining)
        try:
            line = self.proc.stdout.readline()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if not line:
            raise CheckError("the launcher process stopped")
        reply = json.loads(line)
        outcome = Outcome(
            reply["returncode"],
            out_path.read_text(encoding="utf-8"),
            err_path.read_text(encoding="utf-8"),
        )
        return reply["wall_s"], reply["cpu_s"], reply["rss_kb"], outcome

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.proc.stdin.close()
        if exc_info[0] is not None:
            self.proc.terminate()
        self.proc.wait()
        self.proc.stdout.close()


def measure(ops: list[Op], seconds: float, invoke: Launcher) -> tuple[int, int, dict]:
    """Whole passes over ``ops`` until they have taken ``seconds``."""
    help_walls = []
    for _ in range(SETUP_REPEATS + 1):  # the first call byte-compiles and warms caches
        wall, _, _, outcome = invoke(("--help",))
        if outcome.returncode != 0 or not outcome.stdout.startswith("usage: hardy-means"):
            raise CheckError(f"--help: exit {outcome.returncode}: {outcome.stderr.strip()[-300:]}")
        help_walls.append(wall)

    passes = []
    reference = None
    elapsed = 0.0
    while not passes or elapsed < seconds:
        start = time.perf_counter()
        results = [invoke(op.argv) for op in ops]
        pass_wall = time.perf_counter() - start
        elapsed += pass_wall
        outcomes = [r[3] for r in results]
        if reference is None:
            reference = outcomes
            verdicts = [judge(op, outcome) for op, outcome in zip(ops, outcomes)]
        for op, outcome, first in zip(ops, outcomes, reference):
            if outcome != first:
                raise CheckError(f"{op.label}: output differs between passes")
        passes.append((pass_wall, results))

    walls = [[r[0] for r in results] for _, results in passes]
    metrics = {
        "wall_s": (statistics.median(p[0] for p in passes), "s"),
        "cmd_p50_s": (statistics.median(statistics.median(w) for w in walls), "s"),
        "setup_s": (statistics.median(help_walls[1:]), "s"),
        "cpu_s": (statistics.median(sum(r[1] for r in results) for _, results in passes), "s"),
        "peak_rss_mb": (statistics.median(max(r[2] for r in results) / 1024 for _, results in passes), "MB"),
    }
    failed_per_pass = verdicts.count(False)
    return len(passes) * len(ops), len(passes) * failed_per_pass, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (SRC / "hardy_means" / "cli.py").is_file():
        print(f"no hardy_means package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    attempted = failed = 0
    try:
        ops = build(args.workload, args.seed, workdir)
        for op in ops:
            if op.known_fault is not None:
                print(f"known fault, counted as failed while it lasts: hardy-means {op.label}: {op.known_fault}")
        if args.trace:
            import layers

            attempted, failed, metrics = layers.run(ops, SRC, child_env())
        else:
            with Launcher(workdir, started + DEADLINE_S) as invoke:
                attempted, failed, metrics = measure(ops, args.seconds, invoke)
    except (CheckError, Timeout) as exc:
        print(f"benchmark failed: {exc or 'deadline reached'}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(attempted, 1), "failed": failed, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
