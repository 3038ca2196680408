"""The benchmark's workloads: seeded inputs, invocations and their checks.

A workload is a list of :class:`Op`, one ``hardy-means`` invocation each.
Inputs are generated from the benchmark seed and written as vector files;
the program sees only those files and the command-line arguments, never
the seed.  Each op carries the check its output must pass and the work
its result covers, counted from the arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles as O
from oracles import CheckError, require

WORKLOADS = ("hardy-prefix", "subset-means", "interactive")


@dataclass(frozen=True)
class Outcome:
    returncode: int
    stdout: str
    stderr: str


@dataclass(frozen=True)
class Op:
    """One invocation: ``hardy-means <argv>``."""

    argv: tuple
    check: Callable[[Outcome], None]
    prefix_terms: int = 0  # prefix terms the result covers: N per sequence
    subset_means: int = 0  # C(n,k) for enumeration, the draws for Monte Carlo
    known_fault: str | None = None  # why this op fails at this commit

    @property
    def label(self) -> str:
        text = " ".join(self.argv)
        return text if len(text) <= 100 else text[:97] + "..."


def judge(op: Op, outcome: Outcome) -> bool:
    """True when the op succeeded and its output passed its check, False
    when it failed with its known fault; raises CheckError otherwise."""
    if op.known_fault is not None and outcome.returncode != 0:
        require(
            outcome.returncode == 3 and "n=31" in outcome.stderr,
            f"{op.label}: expected the known capacity fault, got exit {outcome.returncode}: "
            f"{outcome.stderr.strip()[-300:]}",
        )
        return False
    require(
        outcome.returncode == 0,
        f"{op.label}: exit {outcome.returncode}: {outcome.stderr.strip()[-300:]}",
    )
    try:
        op.check(outcome)
    except CheckError as exc:
        raise CheckError(f"{op.label}: {exc}") from None
    return True


def log_uniform(rng: np.random.Generator, n: int, decades: float) -> list[float]:
    """n entries spread log-uniformly over [10**-decades, 10**decades]."""
    return [float(x) for x in np.exp(rng.uniform(-decades, decades, n) * math.log(10.0))]


def write_vector(path: Path, values: list[float]) -> str:
    path.write_text("".join(f"{v!r}\n" for v in values), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# Output parsers shared by the checks


def json_rows(outcome: Outcome) -> tuple[dict, list[dict]]:
    doc = O.parse_json_output(outcome.stdout)
    return doc["meta"], doc["rows"]


def hardy_rows_from_output(outcome: Outcome, fmt: str) -> list[tuple]:
    if fmt == "json":
        _, rows = json_rows(outcome)
    elif fmt == "csv":
        rows = O.parse_csv_output(outcome.stdout)
    else:
        lines = outcome.stdout.splitlines()
        require(lines[0].split() == ["n", "partial_sum", "partial_norm", "ratio"], "bad plain header")
        rows = [dict(zip(("n", "partial_sum", "partial_norm", "ratio"), line.split())) for line in lines[1:-1]]
        last = (int(rows[-1]["n"]), float(rows[-1]["ratio"]))
        require(lines[-1] == f"final ratio at N={last[0]}: {last[1]!r}", f"bad final line {lines[-1]!r}")
    return [
        (int(r["n"]), float(r["partial_sum"]), float(r["partial_norm"]), float(r["ratio"]))
        for r in rows
    ]


def mean_value(outcome: Outcome, fmt: str) -> tuple[float, str, dict]:
    """(value, method, row) of a ``mean`` output."""
    if fmt == "json":
        _, rows = json_rows(outcome)
        require(len(rows) == 1, "mean must print one row")
        row = rows[0]
    elif fmt == "csv":
        rows = O.parse_csv_output(outcome.stdout)
        require(len(rows) == 1, "mean must print one row")
        row = rows[0]
    else:
        first = outcome.stdout.splitlines()[0]
        value, _, method = first.partition(" (")
        require(method.endswith(")"), f"bad mean line {first!r}")
        row = {"value": value, "method": method[:-1]}
    return float(row["value"]), row["method"], row


# ---------------------------------------------------------------------------
# Check builders


def hardy_sum_op(mean: str, family: str, n: int, fmt: str, bound: float | None, known_fault=None) -> Op:
    want = O.hardy_rows(mean, family, n, O.checkpoint_ladder(n))

    def check(outcome: Outcome) -> None:
        got = hardy_rows_from_output(outcome, fmt)
        O.check_hardy_rows(got, want, f"{mean} over {family}")
        if bound is not None:
            O.check_ratio_below([row[3] for row in got], bound, mean)

    argv = ("hardy-sum", "--mean", mean, "--family", family, "-N", str(n))
    if fmt != "plain":
        argv += ("--format", fmt)
    return Op(argv, check, prefix_terms=n, known_fault=known_fault)


def estimate_constant_op(n: int) -> Op:
    crossovers = [10**e for e in range(1, len(str(n))) if 10**e < n] + [n]
    want = {n0: O.hardy_rows("cmn:2,1,0", f"harmonic-truncated:{n0}", n, [n])[0] for n0 in crossovers}

    def check(outcome: Outcome) -> None:
        meta, rows = json_rows(outcome)
        require([r["n0"] for r in rows] == crossovers, f"crossovers {[r['n0'] for r in rows]}")
        got = [(r["n"], r["partial_sum"], r["partial_norm"], r["ratio"]) for r in rows]
        for n0, row in zip(crossovers, got):
            O.check_hardy_rows([row], [want[n0]], f"crossover {n0}")
        ratios = [r["ratio"] for r in rows]
        O.check_ratio_below(ratios, O.HARDY_CONSTANT_4, "cmn:2,1,0")
        best = max(rows, key=lambda r: r["ratio"])
        require(meta["max_ratio"] == best["ratio"] and meta["best_n0"] == best["n0"], "meta max_ratio/best_n0")

    argv = ("estimate-constant", "--mean", "cmn:2,1,0", "-N", str(n), "--format", "json")
    return Op(argv, check, prefix_terms=n * len(crossovers))


def mean_op(k: int, s: str, q: str, source: tuple, fmt: str, method: str, want: float, **extra) -> Op:
    def check(outcome: Outcome) -> None:
        value, got_method, _ = mean_value(outcome, fmt)
        require(got_method == method, f"route {got_method}, expected {method}")
        O.check_close(value, want, f"M({k},{s},{q})")

    argv = ("mean", "-k", str(k), "-s", s, "-q", q) + source
    if fmt != "plain":
        argv += ("--format", fmt)
    return Op(argv, check, **extra)


def monte_carlo_op(k: int, path: str, values: list[float], samples: int, sampler_seed: int) -> Op:
    exact = O.second_moment_mean(values, k)

    def check(outcome: Outcome) -> None:
        value, method, row = mean_value(outcome, "json")
        require(method == "MonteCarlo" and row["samples"] == samples, "not a Monte Carlo row")
        O.check_monte_carlo(value, row["stderr"], exact)

    argv = ("mean", "-k", str(k), "-s", "2", "-q", "1", "--file", path,
            "--samples", str(samples), "--seed", str(sampler_seed), "--format", "json")
    return Op(argv, check, subset_means=samples)


def classify_points_op(point: tuple) -> Op:
    k, s, q = point

    def check(outcome: Outcome) -> None:
        O.check_verdicts(O.parse_classify_plain(outcome.stdout), [(k, float(s), float(q))], "classify")

    return Op(("classify", "--point", f"{k},{s},{q}"), check)


def classify_grid_op(ks: list[int], s_tokens: list[str], q_tokens: list[str], fmt: str) -> Op:
    points = [(k, float(s), float(q)) for k in ks for s in s_tokens for q in q_tokens]

    def check(outcome: Outcome) -> None:
        if fmt == "plain":
            rows = O.parse_classify_plain(outcome.stdout)
        else:
            if fmt == "json":
                meta, records = json_rows(outcome)
                require(meta["rows"] == len(points), "meta row count")
            else:
                records = O.parse_csv_output(outcome.stdout)
            rows = [(int(r["k"]), float(r["s"]), float(r["q"]), r["verdict"]) for r in records]
        O.check_verdicts(rows, points, f"classify grid ({fmt})")

    argv = ("classify", "--grid-k", f"{ks[0]}..{ks[-1]}", "--grid-s", ",".join(s_tokens),
            "--grid-q", ",".join(q_tokens))
    if fmt != "plain":
        argv += ("--format", fmt)
    return Op(argv, check)


def verify_op() -> Op:
    def check(outcome: Outcome) -> None:
        lines = outcome.stdout.splitlines()
        require(lines[-1] == "all properties passed", f"verify ended with {lines[-1]!r}")
        require(all(line.startswith("[PASS] ") for line in lines[:-1]), "a property did not pass")

    return Op(("verify", "--quick"), check)


# ---------------------------------------------------------------------------
# Workloads

# Exponent tokens as a user types them, spanning every verdict region.
EXPONENT_TOKENS = ("-inf", "-2", "-1", "-0.5", "0", "0.5", "1", "1.5", "2", "3", "inf")
# Classifier points every interactive pass includes: Theorem 1, the Open
# region, Prop. item 1 and the k = 1 row.
ANCHOR_POINTS = ((2, "1", "0"), (3, "2", "0"), (2, "2", "1"), (1, "0.5", "1"))


def hardy_prefix(rng: np.random.Generator, workdir: Path) -> list[Op]:
    """The three long prefix experiments; their inputs are fixed, so the
    seed does not enter."""
    return [
        estimate_constant_op(10**6),
        hardy_sum_op("power:0.5", "powertail:2", 10**6, "json", O.power_mean_constant(0.5)),
        hardy_sum_op("cmn:3,2,0", "harmonic-truncated:1000", 10**5, "json", None),
    ]


def subset_means(rng: np.random.Generator, workdir: Path) -> list[Op]:
    small = log_uniform(rng, 22, 3.0)
    wide = log_uniform(rng, 2000, 3.0)
    # One decade each way: over three, the squared subset means are so
    # heavy-tailed that the jackknife error under-covers on some seeds.
    narrow = log_uniform(rng, 2000, 1.0)
    small_path = write_vector(workdir / "exact22.txt", small)
    wide_path = write_vector(workdir / "wide2000.txt", wide)
    narrow_path = write_vector(workdir / "narrow2000.txt", narrow)
    sampler_seed = int(rng.integers(0, 2**31))
    return [
        mean_op(11, "2", "1", ("--file", small_path), "json", "Exact",
                O.second_moment_mean(small, 11), subset_means=math.comb(22, 11)),
        monte_carlo_op(5, narrow_path, narrow, 100_000, sampler_seed),
        mean_op(50, "1", "0", ("--file", wide_path), "json", "FastSymmetric", O.symmetric_mean(wide, 50, 1.0)),
        mean_op(50, "-2", "0", ("--file", wide_path), "json", "FastSymmetric", O.symmetric_mean(wide, 50, -2.0)),
    ]


def _data_arg(values: list[float]) -> tuple:
    return ("--data", ",".join(repr(v) for v in values))


def interactive(rng: np.random.Generator, workdir: Path) -> list[Op]:
    def pick(count: int) -> list[str]:
        chosen = set(rng.choice(len(EXPONENT_TOKENS), size=count, replace=False).tolist())
        return [EXPONENT_TOKENS[i] for i in sorted(chosen)]

    def token() -> str:
        return EXPONENT_TOKENS[int(rng.integers(len(EXPONENT_TOKENS)))]

    points = list(ANCHOR_POINTS)
    while len(points) < 12:
        points.append((int(rng.integers(1, 6)), token(), token()))
    ops = [classify_points_op(p) for p in points]

    for fmt in ("plain", "csv", "json"):
        k_lo = int(rng.integers(1, 3))
        ks = list(range(k_lo, k_lo + int(rng.integers(2, 5))))
        ops.append(classify_grid_op(ks, pick(int(rng.integers(3, 6))), pick(int(rng.integers(3, 6))), fmt))

    ops.append(mean_op(2, "1", "0", ("--data", "1,4,9"), "plain", "FastSymmetric", 11 / 3))
    n = int(rng.integers(5, 10))
    v = log_uniform(rng, n, 2.0)
    ops.append(mean_op(n, "2", "1", _data_arg(v), "json", "Degenerate", O.second_moment_mean(v, n)))
    v = log_uniform(rng, int(rng.integers(5, 10)), 2.0)
    ops.append(mean_op(3, "1", "1", _data_arg(v), "plain", "Degenerate", O.arithmetic_mean(v)))
    for fmt in ("plain", "json"):
        n = int(rng.integers(6, 13))
        k = int(rng.integers(2, n))
        s = ("-2", "-1", "0.5", "2", "3")[int(rng.integers(5))]
        v = log_uniform(rng, n, 2.0)
        ops.append(mean_op(k, s, "0", _data_arg(v), fmt, "FastSymmetric", O.symmetric_mean(v, k, float(s))))
    for fmt in ("plain", "csv"):
        n = int(rng.integers(8, 15))
        k = int(rng.integers(2, n))
        v = log_uniform(rng, n, 2.0)
        ops.append(mean_op(k, "2", "1", _data_arg(v), fmt, "Exact", O.second_moment_mean(v, k),
                           subset_means=math.comb(n, k)))

    alpha = ("1.5", "2", "3")[int(rng.integers(3))]
    ops.append(hardy_sum_op("cmn:2,1,0", f"powertail:{alpha}", int(rng.integers(200, 1001)), "csv",
                            O.HARDY_CONSTANT_4))
    ops.append(hardy_sum_op("power:0.5", "geometric:0.5", int(rng.integers(100, 1001)), "plain",
                            O.power_mean_constant(0.5)))
    crossover = (10, 100)[int(rng.integers(2))]
    ops.append(hardy_sum_op("cmn:3,2,0", f"harmonic-truncated:{crossover}", int(rng.integers(200, 1001)),
                            "json", None))
    ops.append(hardy_sum_op(
        "cmn:2,2,1", "powertail:2", 1000, "json", None,
        known_fault="exits 3 at n=31: make_prefix_evaluator falls back to BufferedPrefix, which "
        "re-enumerates every prefix, and enumeration refuses n > 30 although C(31,2) = 465, so "
        "the documented 2000-term cap is never reached; the hint names --samples, which "
        "hardy-sum does not have",
    ))
    ops.append(verify_op())
    return ops


_BUILDERS = {"hardy-prefix": hardy_prefix, "subset-means": subset_means, "interactive": interactive}


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    """The ops of one pass over ``workload``; vector files go to ``workdir``."""
    return _BUILDERS[workload](np.random.default_rng(seed), workdir)
