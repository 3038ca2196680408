"""Hardy partial-sum experiments.

A mean A is a Hardy mean when sum_n A(a_1..a_n) <= C * ||a||_1 holds with
one finite constant C for every summable positive sequence a.  This module
measures the truncated ratio

    sum_{n<=N} A(a_1..a_n)  /  sum_{n<=N} a_n

for the standard sequence families, exposes the sharp power-mean constant
(1-p)**(-1/p), and runs the sharpness experiments around the pairwise
mean M_{2,1,0}, whose empirical constant approaches 4 from below.

Prefix means are computed incrementally.  Which incremental form applies
is decided once, by :func:`~hardy_means.prefix.prefix_form` on top of
:func:`~hardy_means.routes.closed_form`, for this module, for the
one-term engine of :mod:`~hardy_means.prefix` and for ``cmn_mean_fast``
alike: a power mean (P_s at k = 1, P_q at s = q)
keeps one running sum, and M_{k,s,0} keeps the elementary-symmetric levels
e_1..e_k of b_i = a_i**(s/k) in the linear domain, each a compensated sum
of positive terms under its own power-of-two scale, at O(k) per step.  Two
forms belong to the prefix experiments alone.  M_{2,1,0} uses the O(1)-per-step recurrence

    M_{2,1,0}(a_1..a_n) = 2 E_n / (n * (n - 1)),
    E_n = sum_{i<=n} r_i * S_{i-1},  S_i = r_1 + .. + r_i,  r_i = sqrt(a_i),

whose terms are all positive, so nothing cancels however wide the range
of the prefix, and truncations up to 10^7 stay cheap; M_{k,2q,q} keeps
two levels of the same engine, p2 = e_1(b**2) and e2 = e_2(b) of
b_i = a_i**q, for the second-moment identity

    M_{k,2q,q}(a_1..a_n)**(2q) = p2 / (k n) + 2 (k - 1) e2 / (k n (n - 1)),

which cancels nothing and keeps every square under a power-of-two scale,
so it refuses no entry once n > k.  Both e_k forms read P_r of the
prefix while n <= k, and share that step.

This module is the block engine.  The sequence families, the checkpoint
ladder and the one-term engine, which runs the short closed-form
experiments without numpy and with the same bits, live in
:mod:`~hardy_means.prefix`.  The experiments here run block at a time:
families produce their terms as arrays of a fixed number of elements
(``blocks``), and each evaluator's ``extend`` turns
a block into the running means after each element, with the compensated
sums of :meth:`KahanSum.extend`.  No result depends on the block size:
every running mean rounds as the one-term recurrence over the same terms
does, and ``KahanSum.extend`` as ``KahanSum.add``.  Two things make that
hold: the running sums use ``np.cumsum``, which adds strictly in order,
and every ``pow``, ``log`` and ``exp`` is the C library's.  The sum of the
means and the sum of the terms are the two lanes of one
``KahanSum(2)``, one pass over each block for both; each lane rounds as
its own one-lane sum would, since complex addition and subtraction act
on each part alone (see :mod:`~hardy_means._summation`), and the
experiments read each lane back as a Python float.  ``pow`` is
``np.float_power`` (:func:`_pows`), which calls the C library once per
element; ``log`` and ``exp`` go element by element through ``math``
(:func:`_libm`), because numpy's vectorised versions differ from it by an
ulp on a share of inputs.  ``push`` is ``extend`` of one term.
Memory stays at a few blocks whatever N is.
The crossover sweep walks the indices once for all its crossovers, so each
term 1/i or i**-2 is computed once.

``extend`` returns the running means of the leading run of terms it
takes and the error of the next term, which it refuses, or None.
:func:`_advance` alone picks the earliest failure of a block (a
non-positive term, a term the evaluator refuses or sums that leave the
double range), so the experiments report every row before it.  The one
exception is :class:`BufferedPrefix`: it raises its cap and
enumeration-budget errors for a whole block before enumerating any of
it, and since a block holds more terms than its 30-term cap, a refused
run reports no row at all.  Reporting them would cost seconds of
enumeration on an error path whose command prints no row.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence, Union

import numpy as np

from ._summation import KahanSum
from .cmn_means import (
    ElementarySymmetric,
    _ensure_enumerable,
    _libm,
    _pows,
    _roots,
    _scaled_pows,
    _symmetric_means,
    _valid_prefix,
)
from .errors import DomainError
from .params import MeanLike, MeanParams, Record, ensure_exponent, format_mean, require_int
from .prefix import (
    CustomTerms, Geometric, Harmonic, HarmonicTruncated, PowerTail, _block_ranges, _checkpoint_marks, _decades,
    _power_range_error, prefix_form,
)
from .routes import MAX_ENUMERATION_N, cmn_mean_fast, is_zero_exponent

__all__ = [
    "SequenceFamily",
    "make_prefix_evaluator",
    "HardyEstimate",
    "hardy_partial_sum",
    "iter_hardy_checkpoints",
    "landau_constant",
    "sharpness_sequence",
    "sharpness_limit_experiment",
    "sharpness_limit_curve",
    "sharpness_constant_sweep",
]

SequenceFamily = Union[Harmonic, HarmonicTruncated, PowerTail, Geometric, CustomTerms]


# ---------------------------------------------------------------------------
# Incremental prefix evaluators
#
# ``extend(block)`` takes the elements of a float array up to the first one
# the evaluator refuses and returns (values, error): the running means after
# each element taken, and the DomainError of the refused element, or None
# when it took the whole block.  An evaluator that returned an error takes
# no further terms.  ``BufferedPrefix`` alone raises its error instead, for
# the whole block, before it takes any element of it.  ``push(a)`` is
# ``extend`` of the one element a: it returns the mean of the prefix so far
# or raises the error, and a term it refuses leaves the evaluator as it was.


def _counts(done: int, size: int) -> np.ndarray:
    """The prefix lengths done+1 .. done+size as floats (exact below 2**53)."""
    return np.arange(done + 1, done + size + 1, dtype=np.float64)


class _Prefix:
    """``push``: ``extend`` of one term, for every evaluator."""

    def push(self, a: float) -> float:
        values, error = self.extend(np.array([a], dtype=np.float64))
        if error is not None:
            raise error
        return float(values[0])


class PowerMeanPrefix(_Prefix):
    """Running power mean P_p of every term taken so far."""

    def __init__(self, p: float):
        self.p = ensure_exponent(p, "p")
        self._count = 0
        self._acc = KahanSum()
        self._extreme = None

    def extend(self, block: np.ndarray) -> tuple[np.ndarray, DomainError | None]:
        p = self.p
        if math.isinf(p):
            pick = np.maximum if p > 0 else np.minimum
            values = pick.accumulate(block)
            if self._extreme is not None:
                values = pick(values, self._extreme)
            if values.size:
                self._extreme = float(values[-1])
            self._count += block.size
            return values, None
        if is_zero_exponent(p):
            logs = _libm(math.log, block)
            means = self._acc.extend(logs) / _counts(self._count, block.size)
            values = _libm(math.exp, means)
            size = block.size
        else:
            terms = _pows(block, p)
            size = _valid_prefix(np.isfinite(terms) & (terms > 0.0))
            means = self._acc.extend(terms[:size]) / _counts(self._count, size)
            values = _pows(means, 1.0 / p)
        if self._count == 0 and size:
            values[0] = block[0]
        self._count += size
        return values, _power_range_error(float(block[size]), p) if size < block.size else None


class PairGeometricMeanPrefix(_Prefix):
    """Running M_{2,1,0}: the average of sqrt(a_i a_j) over index pairs.

    With r_i = sqrt(a_i) and S_i = r_1 + .. + r_i, the sum over pairs is
    E_n = sum_{i<=n} r_i * S_{i-1}, and the mean is 2 E_n / (n (n-1)).
    S and E are compensated sums of positive terms, so nothing cancels and
    each step costs O(1).
    """

    def __init__(self):
        self._count = 0
        self._roots = KahanSum()
        self._pairs = KahanSum()

    def extend(self, block: np.ndarray) -> tuple[np.ndarray, None]:
        # sqrt is correctly rounded in numpy and in the C library alike.
        r = np.sqrt(block)
        before = np.empty(block.size)  # S_{i-1}: the carried sum, then the sum after each root
        before[:1] = self._roots.value
        before[1:] = self._roots.extend(r)[:-1]
        n = _counts(self._count, block.size)
        # n = 1 divides by 1 instead of 0; its value is replaced by a below.
        values = 2.0 * self._pairs.extend(r * before) / np.maximum(n * (n - 1.0), 1.0)
        if self._count == 0 and block.size:
            values[0] = block[0]
        self._count += block.size
        return values, None


class _ClosedFormPrefix(_Prefix):
    """The step the closed-form prefixes share.

    While n <= k the mean is P_r of the prefix (the k >= n branch of the
    definition), read from a :class:`PowerMeanPrefix`; its refusals are
    the only ones.  Afterwards it is the closed form of running levels of
    b = a**power.  ``_levels(m, e)`` feeds b, as mantissa and exponent
    arrays, to the subclass's engines through
    ``ElementarySymmetric.extend`` and returns one (values, exponents)
    pair per level, which ``_means`` combines.
    """

    def __init__(self, k: int, r: float, power: float):
        self.k = k
        self._power = power
        self._head = PowerMeanPrefix(r)
        self._count = 0

    def extend(self, block: np.ndarray) -> tuple[np.ndarray, DomainError | None]:
        done = self._count
        head = min(max(self.k - done, 0), block.size)  # elements with n <= k
        first, error = self._head.extend(block[:head])
        if error is not None:
            return first, error
        levels = self._levels(*_scaled_pows(block, self._power))
        self._count += block.size
        values = np.empty(block.size)
        values[:head] = first
        values[head:] = self._means(_counts(done, block.size)[head:], *[(v[head:], e[head:]) for v, e in levels])
        return values, None


class SecondMomentPrefix(_ClosedFormPrefix):
    """Running M_{k,2q,q} through the second-moment identity.

    With b_i = a_i**q the inner mean of a k-subset S is (sum_S b / k)**(1/q),
    so its s-th power (s = 2q) is (sum_S b)**2 / k**2.  Averaged over the
    C(n,k) subsets,

        M**s = p2 / (k n) + 2 (k-1) e2 / (k n (n-1)),
        p2 = e_1(b**2),  e2 = e_2(b),

    both levels of an :class:`~hardy_means.cmn_means.ElementarySymmetric`
    engine, each a compensated sum of positive terms under its own
    power-of-two scale; b**2 is taken from the mantissa and exponent of
    b, so it needs no second power.  Nothing cancels and no square leaves
    the double range, so no entry is refused past the P_q head; each step
    costs O(1).
    """

    def __init__(self, k: int, q: float):
        k = require_int(k, "k", 2)
        q = ensure_exponent(q, "q")
        if not math.isfinite(q) or is_zero_exponent(q):
            raise DomainError(f"the second-moment form needs finite nonzero q, got {q!r}")
        super().__init__(k, q, q)
        self.q = q
        self.s = 2.0 * q
        self._p2 = ElementarySymmetric(1)
        self._e2 = ElementarySymmetric(2)

    def _levels(self, m, e):
        return self._p2.extend(m * m, 2 * e), self._e2.extend(m, e)

    def _means(self, n: np.ndarray, p2, e2) -> np.ndarray:
        (p, p_exponent), (e, e_exponent) = p2, e2
        top = np.maximum(p_exponent, e_exponent)  # both sums on the larger scale
        weight = 2.0 * (self.k - 1) / (n - 1.0)
        x = (np.ldexp(p, p_exponent - top) + weight * np.ldexp(e, e_exponent - top)) / (self.k * n)
        return _roots(x, top, self.s)


class SymmetricFunctionPrefix(_ClosedFormPrefix):
    """Running M_{k,s,0} through the elementary-symmetric closed form.

    While at most k terms have arrived the mean is the plain geometric
    mean of the prefix (the k >= n branch of the definition with q = 0);
    afterwards it is (e_k(b)/C(n,k))**(1/s) with b_i = a_i**(s/k), with
    e_k kept by the scaled linear-domain recurrence of
    :class:`~hardy_means.cmn_means.ElementarySymmetric` at O(k) per term.
    """

    def __init__(self, k: int, s: float):
        k = require_int(k, "k", 2)
        s = ensure_exponent(s, "s")
        if not math.isfinite(s) or is_zero_exponent(s):
            raise DomainError(f"the symmetric-function form needs finite nonzero s, got {s!r}")
        super().__init__(k, 0.0, s / k)
        self.s = s
        self._esp = ElementarySymmetric(k)

    def _levels(self, m, e):
        return (self._esp.extend(m, e),)

    def _means(self, n: np.ndarray, ek) -> np.ndarray:
        return _symmetric_means(*ek, n, self.k, self.s)


class BufferedPrefix(_Prefix):
    """Fallback: keep the prefix and re-evaluate the mean at every step.

    Every step enumerates the subsets of the prefix, so the cap is the
    longest vector enumeration accepts (``MAX_ENUMERATION_N``).
    ``extend`` first looks for the error a term of the block would hit,
    the cap or the enumeration budget of C(n,k) subsets, and raises it
    before enumerating anything: these depend on the prefix length alone.
    """

    def __init__(self, params: MeanParams):
        self.params = params
        self._buffer: list[float] = []

    def _cap_error(self) -> DomainError:
        return DomainError(
            f"no incremental form for {format_mean(self.params)}; the buffered "
            f"evaluator re-enumerates every prefix and is capped at {MAX_ENUMERATION_N} terms, "
            f"so N must be at most {MAX_ENUMERATION_N}"
        )

    def extend(self, block: np.ndarray) -> tuple[np.ndarray, None]:
        k = self.params.k
        for n in range(len(self._buffer) + 1, len(self._buffer) + block.size + 1):
            if n > MAX_ENUMERATION_N:
                raise self._cap_error()
            if n > k:  # k < n enumerates
                _ensure_enumerable(n, k)
        means = []
        for a in block.tolist():
            self._buffer.append(a)
            means.append(cmn_mean_fast(self.params, self._buffer).value)
        return np.array(means, dtype=np.float64), None


_EVALUATORS = {
    "power": PowerMeanPrefix,
    "pair": PairGeometricMeanPrefix,
    "symmetric": SymmetricFunctionPrefix,
    "second-moment": SecondMomentPrefix,
    "buffered": BufferedPrefix,
}


def make_prefix_evaluator(mean: MeanLike):
    """Build the block evaluator of the incremental form that
    :func:`~hardy_means.prefix.prefix_form` gives the mean."""
    kind, *args = prefix_form(mean)
    return _EVALUATORS[kind](*args)


# ---------------------------------------------------------------------------
# Partial-sum experiments


class HardyEstimate(Record):
    """Outcome of a truncated Hardy-constant experiment."""

    __slots__ = ("ratio", "n", "family", "mean", "mean_sum", "term_sum")

    def __init__(self, ratio: float, n: int, family: SequenceFamily, mean: MeanLike, mean_sum: float, term_sum: float):
        super().__init__(ratio, n, family, mean, mean_sum, term_sum)

    def as_row(self) -> tuple[str, str, int, float, float]:
        """Canonical table row (family, mean, N, sum of means, ratio)."""
        return (self.family.label(), format_mean(self.mean), self.n, self.mean_sum, self.ratio)


def _checkpoint_blocks(blocks: Iterator[np.ndarray], marks: list[int]):
    """Walk ``blocks`` up to the last of the sorted ``marks``.

    Yields (done, block, inside): the number of terms before the block,
    the block itself (the last one cut at the last mark) and the marks
    that fall inside it.
    """
    done = 0
    pending = 0
    for block in blocks:
        end = done + block.size
        first = pending
        while pending < len(marks) and marks[pending] <= end:
            pending += 1
        inside = marks[first:pending]
        if pending == len(marks):
            yield done, block[: marks[-1] - done], inside
            return
        yield done, block, inside
        done = end


def _advance(evaluator, sums: KahanSum, block: np.ndarray, done: int, family):
    """Feed ``block``, the terms done+1.. of ``family``, to the evaluator
    and to ``sums``, up to the earliest failure.

    ``sums`` is a two-lane :class:`KahanSum`: the sum of the means in the
    real lane and the sum of the terms in the imaginary one.  Returns the
    running sums of the means and of the terms after each term taken, and
    the DomainError of the earliest failure or None.  A failure is a
    non-positive term, a term the evaluator refuses, or a mean or term that
    takes a sum out of the double range.
    """
    size = _valid_prefix((block > 0.0) & np.isfinite(block))
    # an overflow is reported at its first index, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        values, error = evaluator.extend(block[:size])
        # each (mean, term) pair of doubles read as one complex number
        running = sums.extend(np.column_stack((values, block[: values.size])).view(np.complex128)[:, 0])
    if error is None and size < block.size:
        error = DomainError(f"family {family.label()} produced a non-positive term at index {done + size + 1}")
    finite = _valid_prefix(np.isfinite(running))
    if finite < running.size:
        error = DomainError(f"the partial sum or norm left the double range at n={done + finite + 1}")
    return running.real[:finite], running.imag[:finite], error


def iter_hardy_checkpoints(
    mean: MeanLike,
    family: SequenceFamily,
    n: int,
    checkpoints: Sequence[int] | None = None,
    *,
    allow_nonsummable: bool = False,
) -> Iterator[tuple[int, float, float, float]]:
    """Yield (i, mean_sum, term_sum, ratio) at each checkpoint up to n.

    Terms are consumed in forward order with compensated running sums, a
    block at a time; the rows of a block are yielded once it is done.  At
    the earliest failure (see :func:`_advance`) every row before it is
    yielded and then its DomainError raised, except where a
    :class:`BufferedPrefix` refuses: its error comes before any row of the
    block that holds the refused term, and so before any row at all.  Non-summable families are
    rejected unless explicitly allowed, since a ratio against a divergent
    norm estimates nothing.
    """
    n, marks = _checkpoint_marks(family, n, checkpoints, allow_nonsummable)
    evaluator = make_prefix_evaluator(mean)
    running = KahanSum(2)
    for done, block, inside in _checkpoint_blocks(family.blocks(n), marks):
        sums, norms, error = _advance(evaluator, running, block, done, family)
        for i in inside:
            if i > done + sums.size:
                break
            j = i - done - 1
            yield i, float(sums[j]), float(norms[j]), float(sums[j] / norms[j])
        if error is not None:
            raise error


def hardy_partial_sum(
    mean: MeanLike,
    family: SequenceFamily,
    n: int,
    *,
    allow_nonsummable: bool = False,
) -> HardyEstimate:
    """Truncated Hardy ratio sum_{i<=n} A(a_1..a_i) / sum_{i<=n} a_i."""
    rows = list(
        iter_hardy_checkpoints(mean, family, n, [n], allow_nonsummable=allow_nonsummable)
    )
    i, mean_sum, term_sum, ratio = rows[-1]
    return HardyEstimate(ratio=ratio, n=i, family=family, mean=mean, mean_sum=mean_sum, term_sum=term_sum)


def landau_constant(p) -> float:
    """The sharp Hardy constant (1-p)**(-1/p) for the power mean P_p.

    Defined for 0 < p < 1.  Equals 4 at p = 1/2; tends to e (Carleman's
    constant) as p -> 0+ and diverges as p -> 1-.
    """
    p = ensure_exponent(p, "p")
    if not (math.isfinite(p) and 0.0 < p < 1.0):
        raise DomainError(f"the constant is defined for 0 < p < 1, got {p!r}")
    return (1.0 - p) ** (-1.0 / p)


def sharpness_sequence(n0: int, n: int) -> list[float]:
    """The witness prefix (1, 1/2, .., 1/n0, (n0+1)**-2, .., n**-2).

    A long harmonic head pushes the empirical constant of M_{2,1,0} toward
    4 while the inverse-square tail keeps the sequence summable; no
    constant below 4 survives all such sequences.
    """
    n0 = require_int(n0, "n0", 1)
    n = require_int(n, "N", 1)
    if n0 > n:
        raise DomainError(f"need n0 <= n, got n0={n0}, n={n}")
    return list(HarmonicTruncated(n0).terms(n))


def sharpness_limit_experiment(n: int) -> float:
    """n * M_{2,1,0}(1, 1/2, ..., 1/n); increases to the limit 4."""
    return sharpness_limit_curve([n])[-1][1]


def sharpness_limit_curve(checkpoints: Sequence[int]) -> list[tuple[int, float]]:
    """The limit experiment at several truncations in one forward pass."""
    marks = sorted({require_int(m, "checkpoint") for m in checkpoints})
    if not marks:
        raise DomainError("need at least one checkpoint")
    require_int(marks[0], "checkpoint", 2)
    evaluator = PairGeometricMeanPrefix()
    out = []
    for done, block, inside in _checkpoint_blocks(Harmonic().blocks(marks[-1]), marks):
        values, error = evaluator.extend(block)
        if error is not None:
            raise error
        out.extend((i, i * float(values[i - done - 1])) for i in inside)
    return out


def sharpness_constant_sweep(
    mean: MeanLike,
    n: int,
    n0_values: Sequence[int] | None = None,
) -> list[HardyEstimate]:
    """Hardy ratios over the witness family for a ladder of crossovers.

    The default ladder is the powers of ten up to n plus n itself (a pure
    harmonic prefix).  The maximum ratio over the sweep is the empirical
    lower estimate of the best possible Hardy constant.

    All crossovers walk the indices in one pass: 1/i and the C library's
    i**-2 are computed once per index, and each crossover takes its terms
    from them with its own evaluator and sums.  Each estimate equals
    :func:`hardy_partial_sum` over its family bit for bit.  Every crossover
    is checked before any of them runs.
    """
    n = require_int(n, "N", 1)
    if n0_values is None:
        n0_values = _decades(10, n)
    crossovers = sorted({require_int(n0, "n0") for n0 in n0_values})
    families = [HarmonicTruncated(require_int(n0, "n0", 1)) for n0 in crossovers]
    if not families:
        return []
    runs = [(family, make_prefix_evaluator(mean), KahanSum(2)) for family in families]
    for lo, hi in _block_ranges(n):
        i = np.arange(lo, hi, dtype=np.float64)
        inverse = 1.0 / i
        square = np.empty_like(i)
        first = min(max(families[0].crossover - lo + 1, 0), i.size)  # the earliest tail
        square[first:] = _pows(i[first:], -2.0)
        for family, evaluator, sums in runs:
            cut = min(max(family.crossover - lo + 1, 0), i.size)
            block = np.concatenate((inverse[:cut], square[cut:]))
            error = _advance(evaluator, sums, block, lo - 1, family)[2]
            if error is not None:
                raise error
    totals = [(family, sums.value) for family, _, sums in runs]
    return [
        HardyEstimate(ratio=t.real / t.imag, n=n, family=family, mean=mean, mean_sum=t.real, term_sum=t.imag)
        for family, t in totals
    ]
