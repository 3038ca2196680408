"""Self-check suite behind the ``verify`` command.

Each property runs over freshly drawn random inputs (deterministic for a
given seed), reports its worst residual, and passes or fails as a whole.
The suite is the runtime counterpart of the test suite: it exercises the
same invariants but is callable from the installed tool, with sizes picked
by flags rather than by the test harness.
"""

from __future__ import annotations

import math
import random

from .cmn_means import (
    cmn_mean_naive,
    compare_k_monotonicity,
    compare_qs_monotonicity,
    compare_theorem1_identity,
)
from .hardy import sharpness_limit_curve
from .params import MeanParams, Record, require_int
from .prefix import _decades
from .routes import cmn_mean_fast, power_mean

__all__ = ["PropertyResult", "run_verification", "EXPONENT_GRID"]

EXPONENT_GRID = (-math.inf, -2.0, -1.0, 0.0, 0.5, 1.0, 2.0, math.inf)


class PropertyResult(Record):
    """One property's outcome: whether it passed, its worst residual and
    what that residual measures."""

    __slots__ = ("name", "passed", "worst", "detail")

    def __init__(self, name: str, passed: bool, worst: float, detail: str):
        super().__init__(name, passed, worst, detail)


def _random_vector(rng: random.Random, lo: int, hi: int) -> list[float]:
    # A length in [lo, hi), then entries log-uniform over [1e-3, 1e3]: wide
    # enough to stress the log-domain paths, narrow enough that the stated
    # tolerances are meaningful.
    return [10.0 ** rng.uniform(-3.0, 3.0) for _ in range(rng.randrange(lo, hi))]


def _exponent(rng: random.Random) -> float:
    return rng.choice(EXPONENT_GRID)


def _gap(got: float, want: float) -> float:
    return abs(got - want) / want


# Each draw takes one random input from the generator and yields a
# (residual, ok, where) triple for each comparison it makes on that input.


def _oracle_draw(rng: random.Random):
    v = _random_vector(rng, 2, 11)
    k = rng.randint(1, len(v))
    for _ in range(4):
        params = MeanParams(k, _exponent(rng), _exponent(rng))
        where = f"k={k}, s={params.s}, q={params.q}, n={len(v)}"
        yield _gap(cmn_mean_fast(params, v).value, cmn_mean_naive(params, v)), True, where


def _qs_draw(rng: random.Random):
    v = _random_vector(rng, 2, 11)
    k = rng.randint(1, len(v))
    s, t = sorted(rng.choices(EXPONENT_GRID, k=2))
    q, p = sorted(rng.choices(EXPONENT_GRID, k=2))
    ok, lhs, rhs = compare_qs_monotonicity(k, s, t, q, p, v)
    yield (lhs - rhs) / rhs, ok, ""


def _k_draw(rng: random.Random):
    v = _random_vector(rng, 2, 11)
    k = rng.randint(2, len(v))
    while True:
        s, q = rng.choices(EXPONENT_GRID, k=2)
        if s > q:
            break
    ok, lhs, rhs = compare_k_monotonicity(k, s, q, v)
    yield (lhs - rhs) / rhs, ok, ""


def _theorem1_draw(rng: random.Random):
    ok, gap = compare_theorem1_identity(_random_vector(rng, 2, 51))
    yield gap, ok, ""


def _internality_draw(rng: random.Random):
    # the residuals are negative while a mean stays inside the range
    v = _random_vector(rng, 1, 13)
    lo, hi = min(v), max(v)
    means = [power_mean(_exponent(rng), v)]
    if len(v) >= 2:
        k = rng.randrange(1, len(v))
        means.append(cmn_mean_fast(MeanParams(k, _exponent(rng), _exponent(rng)), v).value)
    for m in means:
        yield (lo - m) / lo, True, ""
        yield (m - hi) / hi, True, ""


def _homogeneity_draw(rng: random.Random):
    v = _random_vector(rng, 2, 13)
    c = 10.0 ** rng.uniform(-2.0, 2.0)
    scaled = [c * x for x in v]
    p = _exponent(rng)
    yield _gap(power_mean(p, scaled), c * power_mean(p, v)), True, ""
    params = MeanParams(rng.randrange(1, len(v)), _exponent(rng), _exponent(rng))
    yield _gap(cmn_mean_fast(params, scaled).value, c * cmn_mean_fast(params, v).value), True, ""


def _witness_draw(rng: random.Random):
    # For s >= k >= 2 the subset of the first k entries alone bounds the
    # mean: M_{k,s,q}(v) >= P_q(v_1..v_k) * C(n,k)^(-1/s), so its sum over
    # n diverges.  The residuals are negative while the bound holds.
    v = _random_vector(rng, 3, 13)
    n, k, q = len(v), rng.randrange(2, len(v)), _exponent(rng)
    head = power_mean(q, v[:k])
    for s in [x for x in EXPONENT_GRID if x >= k] + [rng.uniform(k, 3 * k)]:
        bound = head * math.comb(n, k) ** (-1.0 / s)
        where = f"k={k}, s={s}, q={q}, n={n}"
        yield (bound - cmn_mean_fast(MeanParams(k, s, q), v).value) / bound, True, where


def _run_property(name: str, draw, rng, count: int, bound: float, detail: str, worst=0.0) -> PropertyResult:
    """Call ``draw(rng)`` ``count`` times; keep the largest residual above
    ``worst`` and where it first occurred.  The property passes when every
    comparison is ok and that residual is within ``bound``.  ``detail`` is
    formatted with ``failures``, ``count`` and ``where``."""
    where, failures = "", 0
    for _ in range(count):
        for residual, ok, at in draw(rng):
            failures += not ok
            if residual > worst:
                worst, where = residual, at
    detail = detail.format(failures=failures, count=count, where=where)
    return PropertyResult(name, failures == 0 and worst <= bound, worst, detail)


def _check_limit_experiment(n_limit: int) -> PropertyResult:
    curve = sharpness_limit_curve(_decades(100, n_limit))
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
    vectors = require_int(vectors, "vectors", 1)
    n_limit = require_int(n_limit, "N", 2)
    seed = require_int(seed, "seed", 0)
    rng = random.Random(seed)
    margin = "{failures} violations in {count} draws; worst (lhs-rhs)/rhs margin"
    oracle = "max |fast - naive|/naive over random draws (worst at {where})"
    theorem1 = "max relative gap between M(2,1,0) and n/(n-1)(P_1/2 - P_1/n)"
    internality = "max relative excursion of any mean outside [min(v), max(v)]"
    homogeneity = "max relative gap between M(c*v) and c*M(v)"
    witness = "max relative shortfall of M(k,s,q) below P_q(v_1..v_k)*C(n,k)^(-1/s), s >= k (worst at {where})"
    return [
        _run_property("oracle-equivalence", _oracle_draw, rng, vectors, 1e-10, oracle),
        _run_property("qs-monotonicity", _qs_draw, rng, 4 * vectors, math.inf, margin, worst=-math.inf),
        _run_property("k-monotonicity", _k_draw, rng, 4 * vectors, math.inf, margin, worst=-math.inf),
        _run_property("theorem1-identity", _theorem1_draw, rng, vectors, 1e-11, theorem1),
        _run_property("internality", _internality_draw, rng, vectors, 1e-12, internality),
        _run_property("homogeneity", _homogeneity_draw, rng, vectors, 1e-12, homogeneity),
        _run_property("divergence-witness", _witness_draw, rng, vectors, 1e-12, witness, worst=-math.inf),
        _check_limit_experiment(n_limit),
    ]
