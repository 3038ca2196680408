"""Subset-composed power means M_{k,s,q} (Carlson-Meany-Nelson means).

For a positive vector v of length n and parameters (k, s, q):

    k <  n:  the power mean of order s of the values P_q(v_A), where A
             ranges over all k-element subsets of {1..n},
    k >= n:  P_q(v) itself.

Three evaluators are provided.  ``cmn_mean_naive`` enumerates every
subset (the oracle; refuses beyond a fixed budget), a chunk at a time,
and streams the subset means into a running max-shifted outer sum, so it
holds none of them.  ``cmn_mean_fast`` dispatches to closed forms where
they exist, most notably

    M_{k,s,0}(v) = ( e_k(b) / C(n,k) ) ** (1/s),   b_i = v_i ** (s/k),

with e_k the k-th elementary symmetric polynomial evaluated by the O(n*k)
recurrence e_j(b_1..b_m) = sum_{i<=m} b_i e_{j-1}(b_1..b_{i-1}): one
compensated cumulative sum of positive terms per level, each level under
its own power-of-two scale (:class:`ElementarySymmetric`), and C(n,k)
likewise scaled.  ``cmn_mean_sampled`` is a Monte Carlo
estimator over uniform random k-subsets for inputs beyond the enumeration
budget.

Enumeration and sampling take the inner means P_q a block of subsets at a
time, one subset per column of a C-contiguous (k, m) block of log-values:
numpy reduces such a block one row after another, so each column's sum is
its entries added in order, and a subset's mean does not depend on the
block it came in.

The dispatch of ``cmn_mean_fast`` and its scalar routes (the power means
and the e_k recurrence within its range bound) live in the numpy-free
:mod:`~hardy_means.routes`, which calls back into this module only for
enumeration and the vector e_k engine.  This module imports from it only
the names it uses itself.

The comparison helpers at the bottom turn the family's monotonicity
inequalities (in the inner/outer exponents and in the subset size k) and
the pairwise-mean identity

    M_{2,1,0}(v) = n/(n-1) * ( P_{1/2}(v) - P_1(v)/n )

into executable checks.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Iterator

import numpy as np

from ._parallel import map_ordered
from ._summation import KahanSum
from .errors import CapacityError, DomainError
from .params import MeanParams, ensure_exponent, require_int
from .routes import (
    _LEVEL_CEILING,
    _MIN_NORMAL,
    MAX_ENUMERATION_N,
    MAX_ENUMERATION_SUBSETS,
    CmnEvalReport,
    EvalMethod,
    _root,
    _scaled_pow,
    check_positive_vector,
    cmn_mean_fast,
    is_zero_exponent,
    power_mean,
)

__all__ = [
    "MIN_SAMPLES",
    "subset_log_means",
    "power_mean_of_logs",
    "cmn_mean_naive",
    "cmn_mean_sampled",
    "check_qs_monotonicity",
    "check_k_monotonicity",
    "compare_qs_monotonicity",
    "compare_k_monotonicity",
    "compare_theorem1_identity",
    "theorem1_identity_check",
    "ElementarySymmetric",
]

MIN_SAMPLES = 100

# Subsets (columns) per enumeration chunk.  Smaller chunks keep a chunk's
# temporaries in cache: C(22,11) at q = 1 runs faster than with 65536, and
# its Exact mean peaks at 2.7 MiB traced.
_CHUNK_COLUMNS = 8192
# Cap on the indices held by one :func:`_tail_table` (1 MiB).
_TAIL_ELEMENTS = 1 << 17
_SAMPLE_BLOCK = 8192
# :func:`_floyd_rows` draws at most this many words at a time and resolves
# collisions on at most this many indices at a time, so each of its
# temporaries stays near 128 KiB for any k.
_DRAW_CHUNK = 1 << 14
# Distinct (seed, block) pairs must map to distinct PRNG states; a prime
# stride larger than 2**32 keeps the mapping injective for any block count
# a sane sample budget can produce.
_SEED_STRIDE = 4294967311


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
    """The last r indices of every k-subset of range(n), one subset per
    column, in lexicographic order: all r-subsets of range(k - r, n), for
    the largest r <= k whose table holds at most ``_TAIL_ELEMENTS`` indices.

    Built a row at a time: the j-subsets of range(r - j, m) that start
    with f are f above the last C(m - 1 - f, j - 1) columns of the
    (j - 1)-subsets (Knuth, TAOCP 4A, 7.2.1.3).
    """
    r = k
    while r > 1 and math.comb(n - k + r, r) * r > _TAIL_ELEMENTS:
        r -= 1
    m = n - k + r
    table = np.arange(r - 1, m, dtype=np.intp)[None, :]
    for j in range(2, r + 1):
        firsts = range(r - j, m - j + 1)
        counts = [math.comb(m - 1 - f, j - 1) for f in firsts]
        rests = np.hstack([table[:, table.shape[1] - c :] for c in counts])
        table = np.vstack((np.repeat(np.array(firsts, dtype=np.intp), counts), rests))
    table += k - r
    return table


def _iter_subset_index_chunks(n: int, k: int, chunk_columns: int) -> Iterator[np.ndarray]:
    """Stream C-contiguous (k, m) index arrays, one subset per column,
    covering all k-subsets in lexicographic order.

    Every chunk but the last holds ``chunk_columns`` columns.  A column is
    a head, its first k - r indices from ``itertools.combinations``, above
    a tail from :func:`_tail_table`; the tails below a head that ends at a
    are the last C(n - 1 - a, r) columns of the table.
    """
    tail = _tail_table(n, k)
    r, size = tail.shape
    h = k - r
    left = math.comb(n, k)
    chunk = np.empty((k, min(chunk_columns, left)), dtype=np.intp)
    fill = 0
    for head in itertools.combinations(range(n - r), h):
        start = size - math.comb(n - 1 - head[-1], r) if head else 0
        while start < size:
            stop = min(size, start + chunk.shape[1] - fill)
            columns = slice(fill, fill + stop - start)
            if head:
                chunk.T[columns, :h] = head
            chunk[h:, columns] = tail[:, start:stop]
            fill += stop - start
            start = stop
            if fill == chunk.shape[1]:
                yield chunk
                left -= fill
                if left:
                    chunk = np.empty((k, min(chunk_columns, left)), dtype=np.intp)
                fill = 0


def _power_sums(q: float, log_columns: np.ndarray, overwrite: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """The parts of log P_q along axis 0 of log-values x, as (c, t) per
    column, that :func:`_log_power_mean` finishes: for a finite nonzero q,
    c = max qx and t = sum exp(qx - c); otherwise t is None and c is max x,
    min x (q = -inf) or sum x (q = 0).

    ``log_columns`` is a C-contiguous (k, m) block, one subset per column,
    or a 1-D group of the outer mean.  numpy sums pairwise only along an
    array's fast axis, so it reduces a block one row after another: each
    column's sum is its entries added in order from +0.0, and its max or
    min keeps the later of tied +0.0 and -0.0.  A column's parts then do
    not depend on the block it came in.  A lone column, which numpy would
    reduce as one contiguous run, is reduced beside a copy of itself.  A
    1-D group is summed pairwise.

    A finite nonzero q takes one work array the size of ``log_columns``:
    a new one, or under ``overwrite`` ``log_columns`` itself where that is
    a contiguous float64 array, left undefined.  The other orders allocate
    and write nothing of that size.
    """
    if log_columns.ndim == 2 and log_columns.shape[1] == 1:
        c, t = _power_sums(q, np.hstack((log_columns, log_columns)), overwrite=True)
        return c[:1], None if t is None else t[:1]
    if q == math.inf:
        return np.maximum.reduce(log_columns), None
    if q == -math.inf:
        return np.minimum.reduce(log_columns), None
    if is_zero_exponent(q):
        return np.add.reduce(log_columns), None
    z = np.multiply(log_columns, q, out=log_columns if overwrite else None)  # the one work array
    zmax = np.maximum.reduce(z)
    z -= zmax
    np.exp(z, out=z)
    return zmax, np.add.reduce(z)


def _log_power_mean(q: float, c, t, count: int):
    """log P_q of ``count`` values from the parts (c, t) of :func:`_power_sums`,
    arrays or floats."""
    if t is None:
        return c / count if is_zero_exponent(q) else c
    return (c + np.log(t) - math.log(count)) / q


def _log_power_mean_columns(q: float, log_columns: np.ndarray, overwrite: bool = False):
    """log P_q along axis 0 of log-values, as in :func:`_power_sums`."""
    c, t = _power_sums(q, log_columns, overwrite)
    return _log_power_mean(q, c, t, len(log_columns))


def power_mean_of_logs(s: float, log_values: np.ndarray, overwrite: bool = False) -> float:
    """Power mean of order ``s`` of exp(log_values), computed from the logs
    by :func:`_log_power_mean_columns` as one 1-D group; ``overwrite`` as
    in :func:`_power_sums`.

    Accuracy degrades as |s| approaches the geometric switch point
    (exponents below 1e-12 collapse to the geometric branch), which is far
    outside the exponent grids used anywhere in the package.
    """
    s = ensure_exponent(s, "s")
    logs = np.asarray(log_values, dtype=np.float64)
    if logs.size == 0:
        raise DomainError("cannot average an empty collection of subset means")
    return float(np.exp(_log_power_mean_columns(s, logs.reshape(-1), overwrite)))


# Log-values per group of :class:`_StreamedPowerMean`.
_GROUP_SIZE = 4096


class _StreamedPowerMean:
    """The power mean of order ``s`` of exp(x) over a stream of log-values
    x, without holding the stream.

    The stream is cut into groups of ``_GROUP_SIZE`` values by position,
    however ``extend`` receives it.  Each group is reduced to its parts
    (c, t) by :func:`_power_sums`, as a 1-D group, and :meth:`log_value` sums
    the groups' parts max-shifted with ``math.fsum``: c = max c_g and
    t = fsum(t_g * exp(c_g - c)), or c = fsum(c_g) at s = 0.  Up to one
    group this is :func:`power_mean_of_logs`' arithmetic, bit for bit.
    """

    def __init__(self, s: float):
        self.s = s
        self._pending = np.empty(_GROUP_SIZE)
        self._fill = 0
        self._parts: list[tuple[float, float | None]] = []  # (c, t) of each full group

    def extend(self, x: np.ndarray) -> None:
        """Take the next log-values."""
        while self._fill + x.size >= _GROUP_SIZE:
            take = _GROUP_SIZE - self._fill
            self._pending[self._fill :] = x[:take]
            self._parts.append(self._reduce(self._pending, overwrite=True))
            self._fill = 0
            x = x[take:]
        self._pending[self._fill : self._fill + x.size] = x
        self._fill += x.size

    def _reduce(self, group: np.ndarray, overwrite: bool) -> tuple[float, float | None]:
        c, t = _power_sums(self.s, group, overwrite)
        return float(c), None if t is None else float(t)

    def log_value(self) -> float:
        """log P_s of the values so far; the stream may go on after it."""
        parts = self._parts
        if not parts:  # one group, open: the power mean of its values as one group
            return float(_log_power_mean_columns(self.s, self._pending[: self._fill]))
        count = len(parts) * _GROUP_SIZE + self._fill
        if self._fill:
            parts = parts + [self._reduce(self._pending[: self._fill], overwrite=False)]
        cs = [c for c, _ in parts]
        s = self.s
        if s == math.inf or s == -math.inf or is_zero_exponent(s):
            c = max(cs) if s == math.inf else min(cs) if s == -math.inf else math.fsum(cs)
            return float(_log_power_mean(s, c, None, count))
        c = max(cs)
        t = math.fsum(t_g * math.exp(c_g - c) for c_g, t_g in parts)
        return float(_log_power_mean(s, c, t, count))


def _stream_log_means(logs: np.ndarray, q: float, index_blocks: Iterator[np.ndarray], sink) -> None:
    """Call ``sink`` with log P_q of the subsets of each (k, m) index
    block, one subset per column, in stream order: one ``map_ordered``
    item per block.  ``np.take`` gathers a C-contiguous block of logs
    whatever the order of the index block, as :func:`_power_sums` needs.
    Only one block's temporaries are alive at a time."""
    map_ordered(lambda idx: sink(_log_power_mean_columns(q, np.take(logs, idx), overwrite=True)), index_blocks)


def _log_means(logs: np.ndarray, q: float, index_blocks: Iterator[np.ndarray], count: int) -> np.ndarray:
    """:func:`_stream_log_means` into one array of ``count`` log-means.

    A stream of any other length raises :class:`RuntimeError`, so no
    unwritten entry of the result can reach a mean.
    """
    out = np.empty(count)
    filled = 0

    def fill(means: np.ndarray) -> None:
        nonlocal filled
        stop = filled + means.size
        if stop > count:
            raise RuntimeError(f"the index stream holds more than the {count} subsets expected")
        out[filled:stop] = means
        filled = stop

    _stream_log_means(logs, q, index_blocks, fill)
    if filled != count:
        raise RuntimeError(f"the index stream holds {filled} subsets, {count} expected")
    return out


def _enumeration(vals: list[float], k: int, q: float) -> tuple[np.ndarray, float, Iterator[np.ndarray], int]:
    """(the logs of the sorted entries, q, their k-subsets as a stream of
    index chunks in lexicographic order, the subset count); raises
    :class:`CapacityError` beyond the enumeration budget."""
    n = len(vals)
    k = require_int(k, "k", 1)
    if k >= n:
        raise DomainError(f"subset size k={k} must satisfy 1 <= k < n={n}")
    q = ensure_exponent(q, "q")
    count = _ensure_enumerable(n, k)
    logs = np.log(np.sort(np.asarray(vals, dtype=np.float64)))
    return logs, q, _iter_subset_index_chunks(n, k, _CHUNK_COLUMNS), count


def subset_log_means(values, k: int, q: float) -> np.ndarray:
    """log P_q over every k-subset of the (sorted) input vector.

    Subsets are visited in lexicographic index order, so the output is a
    deterministic function of the input multiset.  Raises
    :class:`CapacityError` beyond the enumeration budget.
    """
    return _log_means(*_enumeration(check_positive_vector(values), k, q))


def cmn_mean_naive(params: MeanParams, values) -> float:
    """Oracle evaluation of M_{k,s,q} by full subset enumeration.

    The subset log-means stream, a chunk at a time, into the outer mean
    (:class:`_StreamedPowerMean`), so no array of them is held.  Falls
    back to the plain power mean P_q when k >= n, per the definition.
    Refuses inputs beyond the enumeration budget with a
    :class:`CapacityError`.
    """
    vals = check_positive_vector(values)
    if params.k >= len(vals):
        return power_mean(params.q, vals)
    logs, q, chunks, _ = _enumeration(vals, params.k, params.q)
    outer = _StreamedPowerMean(params.s)
    _stream_log_means(logs, q, chunks, outer.extend)
    return float(np.exp(outer.log_value()))


# ---------------------------------------------------------------------------
# The vector e_k engine, for the prefix experiments and for the e_k inputs
# the scalar route of :mod:`~hardy_means.routes` leaves


def _libm(fn, values: np.ndarray) -> np.ndarray:
    """``fn(v)`` for every element, through the same C library call the
    per-term code makes.

    numpy's SIMD log and exp round differently from the C library on a
    share of inputs, so array code calls ``math.log``/``math.exp`` element
    by element to stay bit-identical to scalar code.  ``pow`` needs no
    such loop: see :func:`_pows`.
    """
    return np.fromiter(map(fn, values.tolist()), np.float64, values.size)


def _valid_prefix(ok: np.ndarray) -> int:
    """Length of the leading run of True in ``ok``."""
    return ok.size if ok.all() else int(ok.argmin())


def _pows(values: np.ndarray, p: float) -> np.ndarray:
    """:func:`~hardy_means.routes._pow_or_inf` of every element, in one call.

    ``np.float_power`` has no SIMD loop: it calls the C library's ``pow``
    once per element, as ``math.pow`` does, and so gives the same bits.
    ``np.power`` does not (about 5% of ``i ** -2.0`` over i <= 10^6 differ
    by an ulp on an AVX-512 machine).  A result past the double range is
    inf, as in :func:`~hardy_means.routes._pow_or_inf`.
    """
    with np.errstate(over="ignore"):
        return np.float_power(values, p)


def _scaled_pows(values: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_scaled_pow` of every element, as a mantissa and an exponent array."""
    x = values if p == 1.0 else _pows(values, p)
    mantissa, exponent = np.frexp(x)
    exponent = exponent.astype(np.int64)
    for i in np.flatnonzero(~((x >= _MIN_NORMAL) & (x < math.inf))).tolist():
        mantissa[i], exponent[i] = _scaled_pow(float(values[i]), p)
    return mantissa, exponent


class ElementarySymmetric:
    """Running e_1 .. e_order of positive terms b_i, in the linear domain.

    Level j holds e_j(b_1..b_m) = sum_{i<=m} b_i * e_{j-1}(b_1..b_{i-1}) as
    a compensated sum of positive terms, so nothing cancels, times a
    power-of-two scale 2**scale_j that keeps it inside the double range.
    The scale is set by the first term a level takes and is raised
    whenever a term would exceed ``_LEVEL_CEILING``; scaling by a power of
    two is exact, so neither huge binomial counts nor extreme entries cost
    accuracy.  ``extend(mantissa, exponent)`` takes a block of b_i as a
    mantissa and an exponent array (b_i = a_i**p from :func:`_scaled_pows`),
    so b_i may lie outside the double range too.

    ``extend`` returns e_order of the terms so far after each term of the
    block as (values, exponents), meaning values * 2**exponents, and
    (0.0, 0) while there are fewer than ``order`` terms.  The results do
    not depend on how the terms are split into blocks.
    """

    def __init__(self, order: int):
        self.order = order = require_int(order, "order", 1)
        self.count = 0
        self._levels = [KahanSum() for _ in range(order)]
        self._scales = [0] * order

    def extend(self, mantissa: np.ndarray, exponent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        size = mantissa.size
        done = self.count
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


def _binomials(n: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_binomial` of every element of the float array ``n``."""
    mantissa = np.ones(n.size)
    exponent = np.zeros(n.size, dtype=np.int64)
    for t in range(k):
        mantissa, e = np.frexp(mantissa * (n - t) / (t + 1))
        exponent += e
    return mantissa, exponent


def _roots(x: np.ndarray, e: np.ndarray, s: float) -> np.ndarray:
    """:func:`~hardy_means.routes._root` of every element."""
    top = np.frexp(x)[1] + e
    normal = (top >= -1021) & (top <= 1024)
    out = np.empty(x.size)
    y = np.ldexp(x[normal], e[normal])
    out[normal] = np.sqrt(y) if s == 2.0 else _pows(y, 1.0 / s)
    for i in np.flatnonzero(~normal).tolist():
        out[i] = _root(float(x[i]), int(e[i]), s)
    return out


def _symmetric_means(ek: np.ndarray, ek_exponent: np.ndarray, n: np.ndarray, k: int, s: float) -> np.ndarray:
    """:func:`_symmetric_mean` of every element; ``n`` is a float array."""
    c, c_exponent = _binomials(n, k)
    return _roots(ek / c, ek_exponent - c_exponent, s)


# ---------------------------------------------------------------------------
# Monte Carlo estimator


def _floyd_rows(rng: random.Random, n: int, k: int, size: int) -> np.ndarray:
    """``size`` (at least 1) uniform k-subsets of range(n), n < 2**31, by
    Floyd's algorithm, as a (size, k) array of sorted index rows.

    Consumes ``rng`` exactly as ``size`` runs of Floyd's algorithm with
    ``rng.randrange(j + 1)`` for j = n-k..n-1 do, and leaves it in the
    same state.  ``randrange(j + 1)`` is CPython's ``getrandbits`` of the
    bound's bit length b, retried while the value is out of range, and
    ``getrandbits(b)`` is the generator's next 32-bit word shifted right
    by 32 - b.  So column j takes a word w iff w < (j + 1) << (32 - b).
    ``rng.randbytes(4 * count)``, ``getrandbits(32 * count)`` in little
    endian, yields the next ``count`` words a chunk at a time; at the end
    ``rng`` rewinds to the last chunk and redraws up to the last word
    taken.  A word every column takes or every column refuses needs no
    column; only the words some columns take and others refuse are
    walked in Python.
    """
    shifts = np.array([32 - (j + 1).bit_length() for j in range(n - k, n)], dtype=np.uint64)
    limits = np.arange(n - k + 1, n + 1, dtype=np.uint64) << shifts
    lo, hi = int(limits.min()), int(limits.max())
    words_per_row = float((2.0**32 / limits).sum())
    # The walk compares words shifted right by the least shift, as small
    # ints: each limit is a multiple of 2**low, so w < limit iff
    # w >> low < limit >> low.
    low = shifts.min()
    rows = np.empty((size, k), dtype=np.int64)
    flat = rows.reshape(-1)  # row-major, so flat[i] is in column i % k
    taken = 0
    while taken < flat.size:
        before = rng.getstate()
        count = min(_DRAW_CHUNK, int((flat.size - taken) / k * words_per_row) + 64)
        words = np.frombuffer(rng.randbytes(4 * count), "<u4").astype(np.uint64)
        kept = np.flatnonzero(words < hi)  # words some column takes
        kept_words = words[kept]
        split = np.flatnonzero(kept_words >= lo)  # ... and some column refuses
        # Each refusal moves the later words one column back.  The limits,
        # repeated, are indexed by column + laps * k - refusals so far, which
        # stays in range without a modulo.
        laps = split.size // k + 1
        wrapped = (limits >> low).tolist() * (laps + 1)
        refusals = 0
        refused = [
            i
            for i, c, w in zip(
                range(split.size),
                ((split + taken) % k + laps * k).tolist(),
                (kept_words[split] >> low).tolist(),
            )
            if w >= wrapped[c - refusals] and (refusals := refusals + 1)
        ]
        taken_at = np.delete(kept, split[refused])[: flat.size - taken]
        flat[taken : taken + taken_at.size] = words[taken_at]
        taken += taken_at.size
    rng.setstate(before)
    rng.getrandbits(32 * (int(taken_at[-1]) + 1))
    rows >>= shifts.astype(np.int64)
    step = max(1, _DRAW_CHUNK // k)
    for start in range(0, size, step):
        _floyd_collisions(rows[start : start + step], n, k)
    return rows


def _floyd_collisions(rows: np.ndarray, n: int, k: int) -> None:
    """Floyd's collision step on rows of drawn values t_0..t_{k-1}, in
    place, then each row sorted.

    Column c (j = n-k+c) takes j instead of t_c if t_c was chosen before.
    The values chosen before column c are t_0..t_{c-1} (each was either
    taken or already chosen) and the j of each earlier column that
    collided.  So column c collides iff t_c repeats an earlier t, or t_c is
    the j of an earlier column that collided.
    """
    js = np.arange(n - k, n)
    keys = rows * k + np.arange(k)
    keys.sort(axis=1)  # by value, then by column
    keys = keys.reshape(-1)
    values = keys // k
    # the later of two equal values in a sorted row
    later = np.flatnonzero(values[1:] == values[:-1]) + 1
    later = later[later % k != 0]
    collided = np.zeros(rows.size, dtype=bool)
    collided[later - later % k + keys[later] % k] = True
    # t_c = j of an earlier column: follow each chain of such links to its
    # end by pointer doubling, or-ing the flags on the way
    link = np.arange(rows.size)
    target = np.flatnonzero((rows >= n - k) & (rows != js))
    link[target] = target - target % k + rows.reshape(-1)[target] - (n - k)
    while True:
        collided |= collided[link]
        further = link[link]
        if np.array_equal(further, link):
            break
        link = further
    np.copyto(rows, js, where=collided.reshape(rows.shape))
    rows.sort(axis=1)


def _sample_index_blocks(n: int, k: int, samples: int, seed: int) -> Iterator[np.ndarray]:
    """``samples`` Floyd draws in blocks of ``_SAMPLE_BLOCK``, block b drawn
    from ``random.Random(seed * _SEED_STRIDE + b)``, each a (k, m) index
    block with one draw per column: :func:`_floyd_rows`' rows, transposed."""
    for b, start in enumerate(range(0, samples, _SAMPLE_BLOCK)):
        rng = random.Random(seed * _SEED_STRIDE + b)
        yield _floyd_rows(rng, n, k, min(_SAMPLE_BLOCK, samples - start)).T


def _jackknife_aggregate(s: float, log_means: np.ndarray) -> tuple[float, float]:
    """Value and leave-one-out jackknife standard error of the estimator.

    The estimator is the order-s power mean of the sampled subset means;
    the jackknife is taken over individual samples of its s-th-power
    aggregate and reported on the value scale.

    ``log_means`` is never written: every step runs in place on one work
    array of its size.  Where one draw holds more than half the rounded
    s-th-power total, its leave-one-out estimate is the power mean of the
    others, taken in place on one more array of that size.
    """
    m = log_means.size
    if np.all(log_means == log_means[0]):
        # identical samples: zero spread, and float centering noise must
        # not manufacture a phantom standard error
        return math.exp(float(log_means[0])), 0.0
    estimates = np.empty_like(log_means)
    top = None
    if is_zero_exponent(s):
        total = float(log_means.sum())
        value = math.exp(total / m)
        np.subtract(total, log_means, out=estimates)
        estimates /= m - 1
    else:
        w = np.multiply(s, log_means, out=estimates)
        umax = float(w.max())
        w -= umax
        np.exp(w, out=w)
        total = float(w.sum())
        value = math.exp((umax + math.log(total / m)) / s)
        if total < 2.0:
            # the largest weight, 1.0, holds more than half the rounded
            # total, so total - w keeps few or none of the others' bits
            # where that draw is left out: its estimate is taken from the
            # others below
            top = int(w.argmax())
        np.subtract(total, w, out=estimates)
        estimates /= m - 1
        with np.errstate(divide="ignore"):
            np.log(estimates, out=estimates)
        estimates += umax
        estimates /= s
    np.exp(estimates, out=estimates)
    if top is not None:
        estimates[top] = power_mean_of_logs(s, np.delete(log_means, top), overwrite=True)
    estimates -= estimates.mean()
    # squares of deviations this far from 1 overflow or underflow: square
    # them divided by the largest
    scale = max(float(estimates.max()), -float(estimates.min()))
    scaled = 0.0 < scale < 2.0**-450 or scale > 2.0**450
    if scaled:
        estimates /= scale
    estimates *= estimates
    se = math.sqrt((m - 1) / m * float(estimates.sum()))
    return value, se * scale if scaled else se


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
    samples = require_int(samples, "samples", MIN_SAMPLES)
    # random.Random seeds from |seed|, so a negative seed would repeat a positive one's draws
    seed = require_int(seed, "seed", 0)
    if k >= n:
        raise DomainError(f"sampling needs k < n, got k={k}, n={n}")
    if n >= 1 << 31:
        raise DomainError(f"sampling needs n < 2**31, got n={n}")
    if min(vals) == max(vals):
        # every subset mean equals the common entry; exact, no draws needed
        return CmnEvalReport(
            vals[0], EvalMethod.MONTE_CARLO, samples=samples, stderr_estimate=0.0
        )

    logs = np.log(np.sort(np.asarray(vals, dtype=np.float64)))
    log_means = _log_means(logs, q, _sample_index_blocks(n, k, samples, seed), samples)

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
    k = require_int(k, "k", 2)
    if k > len(vals):
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


def compare_theorem1_identity(values) -> tuple[bool, float]:
    """(ok, gap) for the pairwise-mean identity and its majorization consequence.

    ok says, to 1e-11 relative, that the mean lhs of sqrt(a_i a_j) over
    pairs equals rhs = n/(n-1) * (P_{1/2}(v) - P_1(v)/n), and that it never
    exceeds P_{1/2}(v); gap is |lhs - rhs| / lhs.
    """
    vals = check_positive_vector(values)
    n = len(vals)
    if n < 2:
        raise DomainError(f"the pairwise identity needs n >= 2, got n={n}")
    lhs = cmn_mean_fast(MeanParams(2, 1.0, 0.0), vals).value
    p_half = power_mean(0.5, vals)
    p_one = power_mean(1.0, vals)
    rhs = n / (n - 1) * (p_half - p_one / n)
    gap = abs(lhs - rhs)
    return gap <= 1e-11 * lhs and _below(lhs, p_half), gap / lhs


def theorem1_identity_check(values) -> bool:
    """Check the pairwise-mean identity and its majorization consequence
    (see :func:`compare_theorem1_identity`)."""
    return compare_theorem1_identity(values)[0]
