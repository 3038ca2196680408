"""Self-check suite behind the ``verify`` command.

Each property runs over freshly drawn random inputs (deterministic for a
given seed), reports its worst residual, and passes or fails as a whole.
The suite is the runtime counterpart of the test suite: it exercises the
same invariants but is callable from the installed tool, with sizes picked
by flags rather than by the test harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cmn_means import (
    MeanParams,
    cmn_mean_fast,
    cmn_mean_naive,
    compare_k_monotonicity,
    compare_qs_monotonicity,
    compare_theorem1_identity,
)
from .hardy import sharpness_limit_curve
from .power_means import power_mean

__all__ = ["PropertyResult", "run_verification", "EXPONENT_GRID"]

EXPONENT_GRID = (-math.inf, -2.0, -1.0, 0.0, 0.5, 1.0, 2.0, math.inf)


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    worst: float
    detail: str


def _random_vector(rng: np.random.Generator, n: int) -> list[float]:
    # Log-uniform over [1e-3, 1e3]: wide enough to stress the log-domain
    # paths, narrow enough that the stated tolerances are meaningful.
    return list(np.exp(rng.uniform(-3.0, 3.0, n) * math.log(10.0)))


def _check_oracle_equivalence(rng: np.random.Generator, vectors: int) -> PropertyResult:
    worst = 0.0
    worst_case = ""
    for _ in range(vectors):
        n = int(rng.integers(2, 11))
        v = _random_vector(rng, n)
        k = int(rng.integers(1, n + 1))
        for _ in range(4):
            s = float(rng.choice(EXPONENT_GRID))
            q = float(rng.choice(EXPONENT_GRID))
            params = MeanParams(k, s, q)
            fast = cmn_mean_fast(params, v).value
            naive = cmn_mean_naive(params, v)
            rel = abs(fast - naive) / naive
            if rel > worst:
                worst = rel
                worst_case = f"k={k}, s={s}, q={q}, n={n}"
    return PropertyResult(
        "oracle-equivalence",
        worst <= 1e-10,
        worst,
        f"max |fast - naive|/naive over random draws (worst at {worst_case})",
    )


def _qs_draw(rng: np.random.Generator, n: int, v: list[float]) -> tuple[bool, float, float]:
    k = int(rng.integers(1, n + 1))
    s, t = sorted(rng.choice(EXPONENT_GRID, 2))
    q, p = sorted(rng.choice(EXPONENT_GRID, 2))
    return compare_qs_monotonicity(k, s, t, q, p, v)


def _k_draw(rng: np.random.Generator, n: int, v: list[float]) -> tuple[bool, float, float]:
    k = int(rng.integers(2, n + 1))
    while True:
        s, q = rng.choice(EXPONENT_GRID, 2)
        if s > q:
            break
    return compare_k_monotonicity(k, float(s), float(q), v)


def _check_monotonicity(name: str, draw, rng: np.random.Generator, draws: int) -> PropertyResult:
    """Run ``draw(rng, n, v)``, an (ok, lhs, rhs) comparison, on ``draws``
    random vectors."""
    worst = -math.inf
    failures = 0
    for _ in range(draws):
        n = int(rng.integers(2, 11))
        v = _random_vector(rng, n)
        ok, lhs, rhs = draw(rng, n, v)
        if not ok:
            failures += 1
        worst = max(worst, (lhs - rhs) / rhs)
    return PropertyResult(
        name,
        failures == 0,
        worst,
        f"{failures} violations in {draws} draws; worst (lhs-rhs)/rhs margin",
    )


def _check_theorem1_identity(rng: np.random.Generator, vectors: int) -> PropertyResult:
    worst = 0.0
    ok = True
    for _ in range(vectors):
        n = int(rng.integers(2, 51))
        identity_ok, gap = compare_theorem1_identity(_random_vector(rng, n))
        worst = max(worst, gap)
        ok = ok and identity_ok
    return PropertyResult(
        "theorem1-identity",
        ok and worst <= 1e-11,
        worst,
        "max relative gap between M(2,1,0) and n/(n-1)(P_1/2 - P_1/n)",
    )


def _check_internality(rng: np.random.Generator, vectors: int) -> PropertyResult:
    worst = 0.0
    for _ in range(vectors):
        n = int(rng.integers(1, 13))
        v = _random_vector(rng, n)
        lo, hi = min(v), max(v)
        p = float(rng.choice(EXPONENT_GRID))
        m = power_mean(p, v)
        worst = max(worst, (lo - m) / lo, (m - hi) / hi)
        if n >= 2:
            k = int(rng.integers(1, n))
            s = float(rng.choice(EXPONENT_GRID))
            q = float(rng.choice(EXPONENT_GRID))
            mk = cmn_mean_fast(MeanParams(k, s, q), v).value
            worst = max(worst, (lo - mk) / lo, (mk - hi) / hi)
    return PropertyResult(
        "internality",
        worst <= 1e-12,
        worst,
        "max relative excursion of any mean outside [min(v), max(v)]",
    )


def _check_homogeneity(rng: np.random.Generator, vectors: int) -> PropertyResult:
    worst = 0.0
    for _ in range(vectors):
        n = int(rng.integers(2, 13))
        v = _random_vector(rng, n)
        c = float(np.exp(rng.uniform(-2.0, 2.0) * math.log(10.0)))
        scaled = [c * x for x in v]
        p = float(rng.choice(EXPONENT_GRID))
        worst = max(worst, abs(power_mean(p, scaled) - c * power_mean(p, v)) / (c * power_mean(p, v)))
        k = int(rng.integers(1, n))
        s = float(rng.choice(EXPONENT_GRID))
        q = float(rng.choice(EXPONENT_GRID))
        params = MeanParams(k, s, q)
        base = cmn_mean_fast(params, v).value
        worst = max(worst, abs(cmn_mean_fast(params, scaled).value - c * base) / (c * base))
    return PropertyResult(
        "homogeneity",
        worst <= 1e-12,
        worst,
        "max relative gap between M(c*v) and c*M(v)",
    )


def _check_limit_experiment(n_limit: int) -> PropertyResult:
    marks = [100]
    while marks[-1] * 10 <= n_limit:
        marks.append(marks[-1] * 10)
    if marks[-1] != n_limit:
        marks.append(n_limit)
    curve = sharpness_limit_curve(marks)
    values = [v for _, v in curve]
    monotone = all(a < b for a, b in zip(values, values[1:]))
    below = all(v < 4.0 for v in values)
    # The deviation from the limit shrinks like 1/sqrt(N); 7/sqrt(N) holds
    # the observed leading constant (about 5.85) with room to spare.
    final_gap = 4.0 - values[-1]
    close = final_gap <= 7.0 / math.sqrt(n_limit)
    return PropertyResult(
        "limit-experiment",
        monotone and below and close,
        final_gap,
        f"gap to the limit 4 at N={n_limit} (monotone={monotone}, below 4={below})",
    )


def run_verification(
    *,
    quick: bool = False,
    n_limit: int | None = None,
    vectors: int | None = None,
    seed: int = 0,
) -> list[PropertyResult]:
    """Run every property; sizes default by tier (quick or full)."""
    if vectors is None:
        vectors = 100 if quick else 300
    if n_limit is None:
        n_limit = 10**4 if quick else 10**6
    draws = 4 * vectors
    rng = np.random.default_rng(seed)
    return [
        _check_oracle_equivalence(rng, vectors),
        _check_monotonicity("qs-monotonicity", _qs_draw, rng, draws),
        _check_monotonicity("k-monotonicity", _k_draw, rng, draws),
        _check_theorem1_identity(rng, vectors),
        _check_internality(rng, vectors),
        _check_homogeneity(rng, vectors),
        _check_limit_experiment(n_limit),
    ]
