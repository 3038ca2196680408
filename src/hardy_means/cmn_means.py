"""Subset-composed power means M_{k,s,q} (Carlson-Meany-Nelson means).

For a positive vector v of length n and parameters (k, s, q):

    k <  n:  the power mean of order s of the values P_q(v_A), where A
             ranges over all k-element subsets of {1..n},
    k >= n:  P_q(v) itself.

Three evaluators are provided.  ``cmn_mean_naive`` enumerates every
subset (the oracle; refuses beyond a fixed budget).  ``cmn_mean_fast``
dispatches to closed forms where they exist, most notably

    M_{k,s,0}(v) = ( e_k(b) / C(n,k) ) ** (1/s),   b_i = v_i ** (s/k),

with e_k the k-th elementary symmetric polynomial evaluated by the O(n*k)
recurrence e_j(b_1..b_m) = sum_{i<=m} b_i e_{j-1}(b_1..b_{i-1}): one
compensated cumulative sum of positive terms per level, each level under
its own power-of-two scale (:class:`ElementarySymmetric`), and C(n,k)
likewise scaled.  ``cmn_mean_sampled`` is a Monte Carlo
estimator over uniform random k-subsets for inputs beyond the enumeration
budget.

The comparison helpers at the bottom turn the family's monotonicity
inequalities (in the inner/outer exponents and in the subset size k) and
the pairwise-mean identity

    M_{2,1,0}(v) = n/(n-1) * ( P_{1/2}(v) - P_1(v)/n )

into executable checks.
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
import random
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ._parallel import map_ordered
from ._summation import KahanSum
from .errors import CapacityError, DomainError
from .extreal import ensure_exponent
from .power_means import ZERO_EXPONENT_THRESHOLD, check_positive_vector, power_mean

__all__ = [
    "MAX_ENUMERATION_N",
    "MAX_ENUMERATION_SUBSETS",
    "MIN_SAMPLES",
    "MeanParams",
    "EvalMethod",
    "CmnEvalReport",
    "subset_log_means",
    "power_mean_of_logs",
    "cmn_mean_naive",
    "cmn_mean_fast",
    "cmn_mean_sampled",
    "check_qs_monotonicity",
    "check_k_monotonicity",
    "compare_qs_monotonicity",
    "compare_k_monotonicity",
    "theorem1_identity_check",
    "ElementarySymmetric",
]

# Enumeration refuses beyond this many subsets (2**22) or entries; the
# worst admissible case stays comfortably interactive and anything larger
# belongs to the closed-form or Monte Carlo paths.
MAX_ENUMERATION_N = 30
MAX_ENUMERATION_SUBSETS = 1 << 22

MIN_SAMPLES = 100

# Rows per enumeration chunk.  Smaller chunks keep a chunk's temporaries in
# cache: C(22,11) at q = 1 peaks at 11 MiB and runs faster than with 65536.
_CHUNK_ROWS = 8192
# Cap on the indices held by one :func:`_tail_table` (1 MiB).
_TAIL_ELEMENTS = 1 << 17
_SAMPLE_BLOCK = 8192
# :func:`_floyd_rows` copies its drawn indices into the block's array every
# this many, so the Python ints it holds stay near 2 MiB for any k.
_FLUSH_INDICES = 1 << 16
# Distinct (seed, block) pairs must map to distinct PRNG states; a prime
# stride larger than 2**32 keeps the mapping injective for any block count
# a sane sample budget can produce.
_SEED_STRIDE = 4294967311


@dataclass(frozen=True)
class MeanParams:
    """Parameter triple (k, s, q) of a subset-composed mean."""

    k: int
    s: float
    q: float

    def __post_init__(self):
        if isinstance(self.k, bool) or not isinstance(self.k, int):
            raise DomainError(f"k must be an integer, got {self.k!r}")
        if self.k < 1:
            raise DomainError(f"k must be >= 1, got {self.k}")
        object.__setattr__(self, "s", ensure_exponent(self.s, "s"))
        object.__setattr__(self, "q", ensure_exponent(self.q, "q"))


class EvalMethod(enum.Enum):
    EXACT = "Exact"
    FAST_SYMMETRIC = "FastSymmetric"
    DEGENERATE = "Degenerate"
    MONTE_CARLO = "MonteCarlo"


@dataclass(frozen=True)
class CmnEvalReport:
    """Evaluation result plus how it was obtained.

    ``samples`` and ``stderr_estimate`` are present exactly when the value
    came from the Monte Carlo estimator.
    """

    value: float
    method: EvalMethod
    samples: int | None = None
    stderr_estimate: float | None = None
    note: str | None = None

    def __post_init__(self):
        if not (self.value > 0.0):
            raise DomainError(f"mean value must be positive, got {self.value!r}")
        is_mc = self.method is EvalMethod.MONTE_CARLO
        if is_mc != (self.stderr_estimate is not None) or is_mc != (self.samples is not None):
            raise DomainError("samples/stderr_estimate are reported iff method is MonteCarlo")
        if self.stderr_estimate is not None and not self.stderr_estimate >= 0.0:
            raise DomainError("stderr_estimate must be nonnegative")


def _is_zero_exponent(p: float) -> bool:
    return abs(p) < ZERO_EXPONENT_THRESHOLD


def _ensure_enumerable(n: int, k: int) -> int:
    if n > MAX_ENUMERATION_N:
        raise CapacityError(
            f"refusing to enumerate subsets of an n={n} vector (limit {MAX_ENUMERATION_N}); "
            "use the fast path or the Monte Carlo sampler"
        )
    count = math.comb(n, k)
    if count > MAX_ENUMERATION_SUBSETS:
        raise CapacityError(
            f"C({n},{k}) = {count} exceeds the enumeration budget of {MAX_ENUMERATION_SUBSETS}; "
            "use the fast path or the Monte Carlo sampler"
        )
    return count


def _tail_table(n: int, k: int) -> np.ndarray:
    """The last r indices of every k-subset of range(n), lexicographic: all
    r-subsets of range(k - r, n), for the largest r <= k whose table holds
    at most ``_TAIL_ELEMENTS`` indices.

    Built a column at a time: the j-subsets of range(r - j, m) that start
    with f are f followed by the last C(m - 1 - f, j - 1) rows of the
    (j - 1)-subsets (Knuth, TAOCP 4A, 7.2.1.3).
    """
    r = k
    while r > 1 and math.comb(n - k + r, r) * r > _TAIL_ELEMENTS:
        r -= 1
    m = n - k + r
    table = np.arange(r - 1, m, dtype=np.intp)[:, None]
    for j in range(2, r + 1):
        firsts = range(r - j, m - j + 1)
        counts = [math.comb(m - 1 - f, j - 1) for f in firsts]
        rests = np.concatenate([table[len(table) - c :] for c in counts])
        table = np.hstack((np.repeat(np.array(firsts, dtype=np.intp), counts)[:, None], rests))
    table += k - r
    return table


def _iter_subset_index_chunks(n: int, k: int, chunk_rows: int) -> Iterator[np.ndarray]:
    """Stream (m, k) index arrays covering all k-subsets in lexicographic order.

    Every chunk but the last holds ``chunk_rows`` rows.  A row is a head,
    its first k - r indices from ``itertools.combinations``, followed by a
    tail from :func:`_tail_table`; the tails after a head that ends at a
    are the last C(n - 1 - a, r) rows of the table.
    """
    tail = _tail_table(n, k)
    size, r = tail.shape
    h = k - r
    left = math.comb(n, k)
    chunk = np.empty((min(chunk_rows, left), k), dtype=np.intp)
    fill = 0
    for head in itertools.combinations(range(n - r), h):
        start = size - math.comb(n - 1 - head[-1], r) if head else 0
        while start < size:
            stop = min(size, start + len(chunk) - fill)
            rows = slice(fill, fill + stop - start)
            if head:
                chunk[rows, :h] = head
            chunk[rows, h:] = tail[start:stop]
            fill += stop - start
            start = stop
            if fill == len(chunk):
                yield chunk
                left -= fill
                if left:
                    chunk = np.empty((min(chunk_rows, left), k), dtype=np.intp)
                fill = 0


def _log_power_mean_rows(q: float, log_rows: np.ndarray) -> np.ndarray:
    """log P_q along axis 1 of an (m, k) array of log-values."""
    k = log_rows.shape[1]
    if q == math.inf:
        return log_rows.max(axis=1)
    if q == -math.inf:
        return log_rows.min(axis=1)
    if _is_zero_exponent(q):
        return log_rows.mean(axis=1)
    z = q * log_rows
    zmax = z.max(axis=1)
    total = np.exp(z - zmax[:, None]).sum(axis=1)
    return (zmax + np.log(total) - math.log(k)) / q


def power_mean_of_logs(s: float, log_values: np.ndarray) -> float:
    """Power mean of order ``s`` of exp(log_values), computed from the logs.

    Accuracy degrades as |s| approaches the geometric switch point
    (exponents below 1e-12 collapse to the geometric branch), which is far
    outside the exponent grids used anywhere in the package.
    """
    s = ensure_exponent(s, "s")
    logs = np.asarray(log_values, dtype=np.float64)
    if logs.size == 0:
        raise DomainError("cannot average an empty collection of subset means")
    if s == math.inf:
        return float(np.exp(logs.max()))
    if s == -math.inf:
        return float(np.exp(logs.min()))
    if _is_zero_exponent(s):
        return float(np.exp(logs.mean()))
    z = s * logs
    zmax = float(z.max())
    total = float(np.exp(z - zmax).sum())
    return float(np.exp((zmax + math.log(total) - math.log(logs.size)) / s))


def subset_log_means(values, k: int, q: float) -> np.ndarray:
    """log P_q over every k-subset of the (sorted) input vector.

    Subsets are visited in lexicographic index order, so the output is a
    deterministic function of the input multiset.  Raises
    :class:`CapacityError` beyond the enumeration budget.
    """
    vals = check_positive_vector(values)
    n = len(vals)
    if not (1 <= k < n):
        raise DomainError(f"subset size k={k} must satisfy 1 <= k < n={n}")
    q = ensure_exponent(q, "q")
    _ensure_enumerable(n, k)
    logs = np.log(np.sort(np.asarray(vals, dtype=np.float64)))
    rows = map_ordered(
        lambda idx: _log_power_mean_rows(q, logs[idx]),
        _iter_subset_index_chunks(n, k, _CHUNK_ROWS),
    )
    return np.concatenate(rows)


def cmn_mean_naive(params: MeanParams, values) -> float:
    """Oracle evaluation of M_{k,s,q} by full subset enumeration.

    Falls back to the plain power mean P_q when k >= n, per the
    definition.  Refuses inputs beyond the enumeration budget with a
    :class:`CapacityError`.
    """
    vals = check_positive_vector(values)
    if params.k >= len(vals):
        return power_mean(params.q, vals)
    return power_mean_of_logs(params.s, subset_log_means(vals, params.k, params.q))


# ---------------------------------------------------------------------------
# Fast paths


def _libm(fn, values: np.ndarray, *args) -> np.ndarray:
    """``fn(v, *args)`` for every element, through the same C library
    call the per-term code makes.

    numpy's SIMD pow, log and exp round differently from the C library on
    a share of inputs (about 5% of ``i ** -2.0`` over i <= 10^6 on an
    AVX-512 machine), so array code calls ``math``/``operator`` element by
    element to stay bit-identical to scalar code.
    """
    args = [itertools.repeat(a) for a in args]
    return np.fromiter(map(fn, values.tolist(), *args), np.float64, values.size)


def _valid_prefix(ok: np.ndarray) -> int:
    """Length of the leading run of True in ``ok``."""
    return ok.size if ok.all() else int(ok.argmin())


def _pow_or_inf(a: float, p: float) -> float:
    """``math.pow``, with inf where the result leaves the double range
    (``math.pow`` raises OverflowError there), so range checks see it."""
    try:
        return math.pow(a, p)
    except OverflowError:
        return math.inf


def _pows(values: np.ndarray, p: float) -> np.ndarray:
    """:func:`_pow_or_inf` of every element through :func:`_libm`."""
    try:
        return _libm(operator.pow, values, p)
    except OverflowError:
        return _libm(_pow_or_inf, values, p)


# Smallest positive normal double.
_MIN_NORMAL = 2.0**-1022
# A level of :class:`ElementarySymmetric` is rescaled before it takes a
# term above this, so that the term lands in [0.5, 1).  Levels then stay in
# [0.5, 2**(512 + 53)], far from both ends of the double range, and so do
# the products of the next level.
_LEVEL_CEILING = 2.0**512
# :func:`_elementary_symmetric` takes the scalar route while each level has
# fewer terms than this (near the measured break-even with ``extend``, for
# any k), and only within the range bound of
# :func:`_unscaled_elementary_symmetric`.
_UNSCALED_TERMS = 256
_UNSCALED_RANGE = 900


def _scaled_pow(a: float, p: float) -> tuple[float, int]:
    """a**p as (m, e) with m in [0.5, 1), also where a**p leaves the double range.

    In range this is ``math.frexp`` of the C library's ``pow``.  Outside
    it, a**p = 2**x with x = p*e_a + p*log2(m_a) for a = m_a * 2**e_a; the
    first part is exact, so the relative error of m stays near
    |p*log2(m_a)| ulps.
    """
    x = _pow_or_inf(a, p)
    if _MIN_NORMAL <= x < math.inf:
        return math.frexp(x)
    from fractions import Fraction  # only here: it adds to every start-up otherwise

    m, e = math.frexp(a)
    x = Fraction(p) * e + Fraction(p * math.log2(m))
    whole = math.floor(x)
    m, e = math.frexp(2.0 ** float(x - whole))
    return m, e + whole


def _scaled_pows(values: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_scaled_pow` of every element, as a mantissa and an exponent array."""
    x = values if p == 1.0 else _pows(values, p)
    mantissa, exponent = np.frexp(x)
    exponent = exponent.astype(np.int64)
    for i in np.flatnonzero(~((x >= _MIN_NORMAL) & (x < math.inf))).tolist():
        mantissa[i], exponent[i] = _scaled_pow(float(values[i]), p)
    return mantissa, exponent


def _ldexp_or_inf(x: float, e: int) -> float:
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.inf


class ElementarySymmetric:
    """Running e_1 .. e_order of b_i = a_i**power, in the linear domain.

    Level j holds e_j(b_1..b_m) = sum_{i<=m} b_i * e_{j-1}(b_1..b_{i-1}) as
    a compensated sum of positive terms, so nothing cancels, times a
    power-of-two scale 2**scale_j that keeps it inside the double range.
    The scale is set by the first term a level takes and is raised
    whenever a term would exceed ``_LEVEL_CEILING``; scaling by a power of
    two is exact, so neither huge binomial counts nor extreme entries cost
    accuracy.  b_i is kept as a mantissa and an exponent
    (:func:`_scaled_pow`), so it may lie outside the double range too.

    Entries must be positive and finite.  ``push(a)`` returns e_order of
    the terms so far as (value, exponent), meaning value * 2**exponent,
    and (0.0, 0) while there are fewer than ``order`` terms.
    ``extend(block)`` returns the same pair as two arrays, one element per
    term, bit-identical to pushing the terms one by one.
    """

    def __init__(self, order: int, power: float):
        if order < 1:
            raise DomainError(f"order must be >= 1, got {order}")
        self.order = order
        self.power = power
        self.count = 0
        self._levels = [KahanSum() for _ in range(order)]
        self._scales = [0] * order

    def push(self, a: float) -> tuple[float, int]:
        mantissa, exponent = _scaled_pow(a, self.power)
        self.count += 1
        # High levels first: level j takes b_i times level j-1 before b_i.
        for j in range(min(self.count, self.order), 0, -1):
            if j == 1:
                u, shift = mantissa, exponent
            else:
                u, shift = mantissa * self._levels[j - 2].value, exponent + self._scales[j - 2]
            if j == self.count:  # the level opens; its first term sets the scale
                self._scales[j - 1] = math.frexp(u)[1] + shift
            shift -= self._scales[j - 1]
            level = self._levels[j - 1]
            term = _ldexp_or_inf(u, shift)
            if term > _LEVEL_CEILING:  # rescale so that the term lands in [0.5, 1)
                drop = math.frexp(u)[1] + shift
                self._scales[j - 1] += drop
                level.ldexp(-drop)
                term = math.ldexp(u, shift - drop)
            level.add(term)
        if self.count < self.order:
            return 0.0, 0
        return self._levels[-1].value, self._scales[-1]

    def extend(self, block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        size = block.size
        done = self.count
        mantissa, exponent = _scaled_pows(block, self.power)
        for j in range(1, min(done + size, self.order) + 1):
            if j == 1:
                u, shift = mantissa, exponent
            else:
                # level j - 1 before each term: its carried value, then its
                # value after the term before
                u = mantissa * np.concatenate(([previous], values[:-1]))
                shift = exponent + np.concatenate(([previous_scale], scales[:-1]))
            level = self._levels[j - 1]
            previous, previous_scale = level.value, self._scales[j - 1]
            start = max(j - done - 1, 0)  # the level's first term in this block
            if done + start + 1 == j:
                self._scales[j - 1] = math.frexp(float(u[start]))[1] + int(shift[start])
            values = np.zeros(size)
            scales = np.zeros(size, dtype=np.int64)
            # Each rescale puts the term at stop in [0.5, 1), so every pass
            # takes at least one term.
            while start < size:
                with np.errstate(over="ignore"):  # inf terms are caught as too large
                    terms = np.ldexp(u[start:], shift[start:] - self._scales[j - 1])
                stop = start + _valid_prefix(terms <= _LEVEL_CEILING)
                values[start:stop] = level.extend(terms[: stop - start])
                scales[start:stop] = self._scales[j - 1]
                if stop < size:  # rescale so that the term at stop lands in [0.5, 1)
                    drop = math.frexp(float(u[stop]))[1] + int(shift[stop]) - self._scales[j - 1]
                    self._scales[j - 1] += drop
                    level.ldexp(-drop)
                start = stop
        self.count += size
        if self.count < self.order:
            return np.zeros(size), np.zeros(size, dtype=np.int64)
        return values, scales


def _binomial(n: int, k: int) -> tuple[float, int]:
    """C(n, k) as (m, e): the float product of (n - t) / (t + 1), rescaled
    by ``frexp`` after every factor."""
    mantissa, exponent = 1.0, 0
    for t in range(k):
        mantissa, e = math.frexp(mantissa * (n - t) / (t + 1))
        exponent += e
    return mantissa, exponent


def _binomials(n: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_binomial` of every element of the float array ``n``."""
    mantissa = np.ones(n.size)
    exponent = np.zeros(n.size, dtype=np.int64)
    for t in range(k):
        mantissa, e = np.frexp(mantissa * (n - t) / (t + 1))
        exponent += e
    return mantissa, exponent


def _scaled_root(x: float, e: int, s: float) -> float:
    """(x * 2**e) ** (1/s) where x * 2**e lies outside the double range;
    e/s is split exactly into whole and fractional parts."""
    from fractions import Fraction  # only here: it adds to every start-up otherwise

    power = Fraction(e) / Fraction(s)
    whole = math.floor(power)
    return math.ldexp(x ** (1.0 / s) * 2.0 ** float(power - whole), whole)


def _symmetric_mean(ek: float, ek_exponent: int, n: int, k: int, s: float) -> float:
    """(e_k / C(n, k)) ** (1/s) from e_k = ek * 2**ek_exponent.

    The root is the C library's ``pow``, or for s = 2 the correctly
    rounded ``sqrt``, which numpy and ``math`` share.
    """
    c, c_exponent = _binomial(n, k)
    ratio, exponent = ek / c, ek_exponent - c_exponent
    if -1021 <= math.frexp(ratio)[1] + exponent <= 1024:
        x = math.ldexp(ratio, exponent)
        return math.sqrt(x) if s == 2.0 else x ** (1.0 / s)
    return _scaled_root(ratio, exponent, s)


def _symmetric_means(ek: np.ndarray, ek_exponent: np.ndarray, n: np.ndarray, k: int, s: float) -> np.ndarray:
    """:func:`_symmetric_mean` of every element; ``n`` is a float array."""
    c, c_exponent = _binomials(n, k)
    ratio, exponent = ek / c, ek_exponent - c_exponent
    top = np.frexp(ratio)[1] + exponent
    normal = (top >= -1021) & (top <= 1024)
    out = np.empty(ratio.size)
    x = np.ldexp(ratio[normal], exponent[normal])
    out[normal] = np.sqrt(x) if s == 2.0 else _libm(operator.pow, x, 1.0 / s)
    for i in np.flatnonzero(~normal).tolist():
        out[i] = _scaled_root(float(ratio[i]), int(exponent[i]), s)
    return out


def _unscaled_elementary_symmetric(values: list[float], k: int, p: float) -> tuple[float, int] | None:
    """e_k of values**p as (m, e) by the recurrence of
    :class:`ElementarySymmetric` without its scales, or None where that
    could differ from the scaled result.

    Scaling by a power of two commutes with every rounding while all
    values stay normal.  With every b = a**p and 1/b below 2**L, the
    level values, products and Kahan errors of both computations lie
    within 2**(+-(2*k*L + n + 53)), a level's scale being the exponent of
    one of its terms; so for 2*k*L + n <= ``_UNSCALED_RANGE`` the result
    is bit-identical to ``extend``'s.
    """
    try:
        b = [math.pow(a, p) for a in values]
    except OverflowError:
        return None
    n = len(b)
    lo, hi = min(b), max(b)
    if lo < _MIN_NORMAL or 2 * k * max(math.frexp(hi)[1], 1 - math.frexp(lo)[1]) + n > _UNSCALED_RANGE:
        return None
    level = [1.0] * (n - k + 1)  # e_0 before each term that e_k depends on
    for j in range(k):
        total = compensation = 0.0
        sums = []
        for b_i, before in zip(b[j : n - k + j + 1], level):
            term = b_i * before
            previous, total = total, total + term
            if previous >= term:
                compensation += (previous - total) + term
            else:
                compensation += (term - total) + previous
            sums.append(total + compensation)
        level = sums
    return math.frexp(level[-1])


def _elementary_symmetric(values, k: int, p: float) -> tuple[float, int]:
    """e_k of values**p as (m, e), meaning m * 2**e; needs at least k values.

    Short inputs whose powers stay in range take the scalar recurrence,
    where numpy's per-call cost would outweigh its vector work.
    """
    if len(values) < k:
        raise DomainError(f"e_{k} of {len(values)} terms is zero; need at least k terms")
    values = np.asarray(values, dtype=np.float64)
    if values.size - k + 1 < _UNSCALED_TERMS:
        result = _unscaled_elementary_symmetric(values.tolist(), k, p)
        if result is not None:
            return result
    ek, exponent = ElementarySymmetric(k, p).extend(values)
    return float(ek[-1]), int(exponent[-1])


def _fast_symmetric_value(vals: list[float], k: int, s: float) -> float:
    ek, exponent = _elementary_symmetric(np.sort(np.asarray(vals, dtype=np.float64)), k, s / k)
    return _symmetric_mean(ek, exponent, len(vals), k, s)


def cmn_mean_fast(params: MeanParams, values) -> CmnEvalReport:
    """Evaluate M_{k,s,q} through the cheapest applicable route.

    Dispatch order: (a) k >= n collapses to P_q; (b) s == q collapses to
    P_q (averaging order-q means of fixed-size subsets with the same outer
    order reproduces P_q exactly); (c) q == 0 with finite nonzero s uses
    the elementary-symmetric closed form, any sign of s; (d) everything
    else enumerates, raising :class:`CapacityError` past the budget, at
    which point the Monte Carlo sampler is the intended fallback.
    """
    vals = check_positive_vector(values)
    n = len(vals)
    k, s, q = params.k, params.s, params.q
    if k >= n:
        return CmnEvalReport(power_mean(q, vals), EvalMethod.DEGENERATE)
    if s == q:
        return CmnEvalReport(power_mean(q, vals), EvalMethod.DEGENERATE)
    if _is_zero_exponent(q) and math.isfinite(s) and not _is_zero_exponent(s):
        return CmnEvalReport(_fast_symmetric_value(vals, k, s), EvalMethod.FAST_SYMMETRIC)
    return CmnEvalReport(cmn_mean_naive(params, vals), EvalMethod.EXACT)


# ---------------------------------------------------------------------------
# Monte Carlo estimator


def _floyd_sample(rng: random.Random, n: int, k: int) -> list[int]:
    """Uniform k-subset of range(n) in O(k) draws (Floyd's algorithm)."""
    chosen: set[int] = set()
    for j in range(n - k, n):
        t = rng.randrange(j + 1)
        chosen.add(j if t in chosen else t)
    return sorted(chosen)


def _floyd_rows(rng: random.Random, n: int, k: int, size: int) -> np.ndarray:
    """``size`` Floyd samples as a (size, k) array of sorted index rows.

    Consumes ``rng`` exactly as ``size`` calls of :func:`_floyd_sample`
    do: ``randrange(j + 1)`` is CPython's ``getrandbits`` of the bound's
    bit length, retried while the value is out of range.
    """
    getrandbits = rng.getrandbits
    bounds = [(j, j + 1, (j + 1).bit_length()) for j in range(n - k, n)]
    rows = np.empty((size, k), dtype=np.intp)
    step = max(1, _FLUSH_INDICES // k)
    for start in range(0, size, step):
        flat: list[int] = []
        for _ in range(min(step, size - start)):
            chosen: set[int] = set()
            for j, bound, bits in bounds:
                t = getrandbits(bits)
                while t >= bound:
                    t = getrandbits(bits)
                chosen.add(j if t in chosen else t)
            flat.extend(chosen)
        rows[start : start + len(flat) // k] = np.array(flat, dtype=np.intp).reshape(-1, k)
    rows.sort(axis=1)
    return rows


def _sample_block(logs: np.ndarray, k: int, q: float, seed: int, block_index: int, size: int) -> np.ndarray:
    rng = random.Random(seed * _SEED_STRIDE + block_index)
    return _log_power_mean_rows(q, logs[_floyd_rows(rng, logs.size, k, size)])


def _jackknife_aggregate(s: float, log_means: np.ndarray) -> tuple[float, float]:
    """Value and leave-one-out jackknife standard error of the estimator.

    The estimator is the order-s power mean of the sampled subset means;
    the jackknife is taken over individual samples of its s-th-power
    aggregate and reported on the value scale.
    """
    m = log_means.size
    if np.all(log_means == log_means[0]):
        # identical samples: zero spread, and float centering noise must
        # not manufacture a phantom standard error
        return math.exp(float(log_means[0])), 0.0
    if _is_zero_exponent(s):
        total = float(log_means.sum())
        value = math.exp(total / m)
        estimates = np.exp((total - log_means) / (m - 1))
    else:
        u = s * log_means
        umax = float(u.max())
        w = np.exp(u - umax)
        total = float(w.sum())
        value = math.exp((umax + math.log(total / m)) / s)
        with np.errstate(divide="ignore"):
            estimates = np.exp((umax + np.log((total - w) / (m - 1))) / s)
    centered = estimates - estimates.mean()
    se = math.sqrt((m - 1) / m * float((centered * centered).sum()))
    return value, se


def cmn_mean_sampled(params: MeanParams, values, samples: int, seed: int) -> CmnEvalReport:
    """Monte Carlo estimate of M_{k,s,q} from uniform random k-subsets.

    Subsets are drawn with Floyd's algorithm (no repetition inside a
    subset; distinct draws may repeat).  Samples come in blocks of
    ``_SAMPLE_BLOCK``, block b drawn from ``random.Random(seed *
    _SEED_STRIDE + b)``, so the result is a deterministic function of the
    seed and the input multiset.

    The standard error is the leave-one-out jackknife of the s-th-power
    aggregate.  On heavy-tailed subset means it under-covers: for n = 2000
    entries log-uniform over [1e-3, 1e3], k = 5, s = 2, q = 1 and 10**5
    draws, 1 seed in 100 put the estimate 4.16 standard errors from the
    exact value (the largest of 100 was 3.1 over one decade).
    """
    vals = check_positive_vector(values)
    n = len(vals)
    k, s, q = params.k, params.s, params.q
    if isinstance(samples, bool) or not isinstance(samples, int):
        raise DomainError(f"samples must be an integer, got {samples!r}")
    if samples < MIN_SAMPLES:
        raise DomainError(f"samples must be >= {MIN_SAMPLES}, got {samples}")
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise DomainError(f"seed must be an integer, got {seed!r}")
    if k >= n:
        raise DomainError(f"sampling needs k < n, got k={k}, n={n}")
    if min(vals) == max(vals):
        # every subset mean equals the common entry; exact, no draws needed
        return CmnEvalReport(
            vals[0], EvalMethod.MONTE_CARLO, samples=samples, stderr_estimate=0.0
        )

    logs = np.log(np.sort(np.asarray(vals, dtype=np.float64)))
    blocks = [
        (b, min(_SAMPLE_BLOCK, samples - b * _SAMPLE_BLOCK))
        for b in range((samples + _SAMPLE_BLOCK - 1) // _SAMPLE_BLOCK)
    ]
    rows = map_ordered(lambda spec: _sample_block(logs, k, q, seed, spec[0], spec[1]), blocks)
    log_means = np.concatenate(rows)

    if s == math.inf or s == -math.inf:
        extremum = float(log_means.max() if s == math.inf else log_means.min())
        return CmnEvalReport(
            math.exp(extremum),
            EvalMethod.MONTE_CARLO,
            samples=samples,
            stderr_estimate=0.0,
            note="infinite outer exponent: value is the extremum of the sampled "
            "subset means and no standard error is estimable",
        )
    value, se = _jackknife_aggregate(s, log_means)
    return CmnEvalReport(value, EvalMethod.MONTE_CARLO, samples=samples, stderr_estimate=se)


# ---------------------------------------------------------------------------
# Inequalities and identities as executable checks

# Strict inequalities in exact arithmetic become non-strict under float
# noise; every boolean check uses this slack.
def _tolerance(x: float) -> float:
    return max(1e-10 * abs(x), 1e-300)


def _below(lhs: float, rhs: float) -> bool:
    """lhs <= rhs up to the slack every boolean check allows."""
    return lhs <= rhs + _tolerance(rhs)


def compare_qs_monotonicity(k: int, s, t, q, p, values) -> tuple[bool, float, float]:
    """(ok, lhs, rhs) for lhs = M_{k,s,q}(v) <= rhs = M_{k,t,p}(v), q <= p, s <= t."""
    s = ensure_exponent(s, "s")
    t = ensure_exponent(t, "t")
    q = ensure_exponent(q, "q")
    p = ensure_exponent(p, "p")
    if q > p or s > t:
        raise DomainError(f"monotonicity requires q <= p and s <= t, got q={q}, p={p}, s={s}, t={t}")
    lhs = cmn_mean_fast(MeanParams(k, s, q), values).value
    rhs = cmn_mean_fast(MeanParams(k, t, p), values).value
    return _below(lhs, rhs), lhs, rhs


def compare_k_monotonicity(k: int, s, q, values) -> tuple[bool, float, float]:
    """(ok, lhs, rhs) for lhs = M_{k,s,q}(v) <= rhs = M_{k-1,s,q}(v), s > q, 2 <= k <= n."""
    s = ensure_exponent(s, "s")
    q = ensure_exponent(q, "q")
    if not s > q:
        raise DomainError(f"subset-size monotonicity requires s > q, got s={s}, q={q}")
    vals = check_positive_vector(values)
    if not 2 <= k <= len(vals):
        raise DomainError(f"k={k} must satisfy 2 <= k <= n={len(vals)}")
    lhs = cmn_mean_fast(MeanParams(k, s, q), vals).value
    rhs = cmn_mean_fast(MeanParams(k - 1, s, q), vals).value
    return _below(lhs, rhs), lhs, rhs


def check_qs_monotonicity(k: int, s, t, q, p, values) -> bool:
    """Check M_{k,s,q}(v) <= M_{k,t,p}(v) for q <= p and s <= t."""
    return compare_qs_monotonicity(k, s, t, q, p, values)[0]


def check_k_monotonicity(k: int, s, q, values) -> bool:
    """Check M_{k,s,q}(v) <= M_{k-1,s,q}(v) for s > q and 2 <= k <= n."""
    return compare_k_monotonicity(k, s, q, values)[0]


def theorem1_identity_check(values) -> bool:
    """Verify the pairwise-mean identity and its majorization consequence.

    Checks, to 1e-11 relative, that the mean of sqrt(a_i a_j) over pairs
    equals n/(n-1) * (P_{1/2}(v) - P_1(v)/n), and that it never exceeds
    P_{1/2}(v).
    """
    vals = check_positive_vector(values)
    n = len(vals)
    if n < 2:
        raise DomainError(f"the pairwise identity needs n >= 2, got n={n}")
    lhs = cmn_mean_fast(MeanParams(2, 1.0, 0.0), vals).value
    p_half = power_mean(0.5, vals)
    p_one = power_mean(1.0, vals)
    rhs = n / (n - 1) * (p_half - p_one / n)
    identity_ok = abs(lhs - rhs) <= 1e-11 * lhs
    majorized = _below(lhs, p_half)
    return identity_ok and majorized
