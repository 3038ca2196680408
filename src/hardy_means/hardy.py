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
:func:`~hardy_means.routes.closed_form`, for both engines and for
``cmn_mean_fast`` alike: a power mean (P_s at k = 1, P_q at s = q)
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

The closed forms are the classes of :mod:`~hardy_means.prefix`, each with
a one-term ``push`` and a block-wise ``extend`` on one state, and are
re-exported here; the sequence families, the checkpoint ladder,
:func:`~hardy_means.prefix.iter_hardy_checkpoints`, which picks the
engine, and the scalar engine, which runs the short closed-form
experiments without numpy, live there too.  This module is the block
engine.  Its experiments run a block at a time: families produce their
terms as arrays of a fixed number of elements (``blocks``), and each
evaluator's ``extend`` turns a block into the running means after each
element, with the compensated sums of :meth:`KahanSum.extend`.  No result
depends on the block size: every running mean rounds as ``push`` over the
same terms does, and ``KahanSum.extend`` as ``KahanSum.add``.  Two things
make that hold: the running sums use ``np.cumsum``, which adds strictly
in order, and every ``pow``, ``log`` and ``exp`` is the C library's.  The
sum of the means and the sum of the terms are kept in two
:class:`KahanSum` accumulators, as in the scalar engine.  ``pow`` is
``np.float_power`` (:func:`~hardy_means.cmn_means._pows`), which calls
the C library once per element; ``log`` and ``exp`` go element by
element through ``math`` (:func:`~hardy_means.cmn_means._libm`), because
numpy's vectorised versions differ from it by an ulp on a share of
inputs.  Memory stays at a few blocks whatever N is.
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
from .cmn_means import _ensure_enumerable, _pows, _valid_prefix
from .errors import DomainError
from .params import MeanLike, MeanParams, Record, ensure_exponent, format_mean, require_int
# The closed-form evaluators and iter_hardy_checkpoints are re-exported here.
from .prefix import (
    _FORMS, CustomTerms, Geometric, Harmonic, HarmonicTruncated, PairGeometricMeanPrefix, PowerMeanPrefix, PowerTail,
    SecondMomentPrefix, SymmetricFunctionPrefix, _block_ranges, _checkpoint_marks, _decades, iter_hardy_checkpoints,
    prefix_form,
)
from .routes import MAX_ENUMERATION_N, cmn_mean_fast

__all__ = [
    "SequenceFamily",
    "make_prefix_evaluator",
    "HardyEstimate",
    "hardy_partial_sum",
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
# The closed forms are the classes of :mod:`~hardy_means.prefix`, with their
# ``push`` and ``extend``.  ``BufferedPrefix`` is the one form that needs
# arrays at every step, so it lives here.


class BufferedPrefix:
    """Fallback: keep the prefix and re-evaluate the mean at every step.

    Every step enumerates the subsets of the prefix, so the cap is the
    longest vector enumeration accepts (``MAX_ENUMERATION_N``).
    ``extend`` first looks for the error a term of the block would hit,
    the cap or the enumeration budget of C(n,k) subsets, and raises it
    before enumerating anything: these depend on the prefix length alone.
    Unlike the closed forms, it raises its error instead of returning it,
    and ``push(a)`` is ``extend`` of the one term a.
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

    def push(self, a: float) -> float:
        return float(self.extend(np.array([a], dtype=np.float64))[0][0])


def make_prefix_evaluator(mean: MeanLike):
    """Build the evaluator of the incremental form that
    :func:`~hardy_means.prefix.prefix_form` gives the mean."""
    kind, *args = prefix_form(mean)
    return BufferedPrefix(*args) if kind == "buffered" else _FORMS[kind][0](*args)


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


def _advance(evaluator, means: KahanSum, norms: KahanSum, block: np.ndarray, done: int, family):
    """Feed ``block``, the terms done+1.. of ``family``, to the evaluator,
    its means to ``means`` and its terms to ``norms``, up to the earliest
    failure.

    Returns the running sums of the means and of the terms after each term
    taken, and the DomainError of the earliest failure or None.  A failure
    is a non-positive term, a term the evaluator refuses, or a mean or term
    that takes a sum out of the double range.
    """
    size = _valid_prefix((block > 0.0) & np.isfinite(block))
    # an overflow is reported at its first index, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        values, error = evaluator.extend(block[:size])
        mean_sums = means.extend(values)
        term_sums = norms.extend(block[: values.size])
    if error is None and size < block.size:
        error = DomainError(f"family {family.label()} produced a non-positive term at index {done + size + 1}")
    finite = _valid_prefix(np.isfinite(mean_sums) & np.isfinite(term_sums))
    if finite < mean_sums.size:
        error = DomainError(f"the partial sum or norm left the double range at n={done + finite + 1}")
    return mean_sums[:finite], term_sums[:finite], error


def _block_checkpoints(
    mean: MeanLike,
    family: SequenceFamily,
    n: int,
    checkpoints: Sequence[int] | None = None,
    *,
    allow_nonsummable: bool = False,
) -> Iterator[tuple[int, float, float, float]]:
    """The rows of :func:`~hardy_means.prefix.iter_hardy_checkpoints` by
    the block engine, at any N.

    Terms are consumed a block at a time; the rows of a block are yielded
    once it is done.  At the earliest failure (see :func:`_advance`) every
    row before it is yielded and then its DomainError raised, except where
    a :class:`BufferedPrefix` refuses: its error comes before any row of
    the block that holds the refused term, and so before any row at all.
    """
    n, marks = _checkpoint_marks(family, n, checkpoints, allow_nonsummable)
    evaluator = make_prefix_evaluator(mean)
    means, norms = KahanSum(), KahanSum()
    for done, block, inside in _checkpoint_blocks(family.blocks(n), marks):
        mean_sums, term_sums, error = _advance(evaluator, means, norms, block, done, family)
        for i in inside:
            if i > done + mean_sums.size:
                break
            j = i - done - 1
            yield i, float(mean_sums[j]), float(term_sums[j]), float(mean_sums[j] / term_sums[j])
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
    runs = [(family, make_prefix_evaluator(mean), KahanSum(), KahanSum()) for family in families]
    for lo, hi in _block_ranges(n):
        i = np.arange(lo, hi, dtype=np.float64)
        inverse = 1.0 / i
        square = np.empty_like(i)
        first = min(max(families[0].crossover - lo + 1, 0), i.size)  # the earliest tail
        square[first:] = _pows(i[first:], -2.0)
        for family, evaluator, means, norms in runs:
            cut = min(max(family.crossover - lo + 1, 0), i.size)
            block = np.concatenate((inverse[:cut], square[cut:]))
            error = _advance(evaluator, means, norms, block, lo - 1, family)[2]
            if error is not None:
                raise error
    totals = [(family, means.value, norms.value) for family, _, means, norms in runs]
    return [HardyEstimate(s / t, n, family, mean, mean_sum=s, term_sum=t) for family, s, t in totals]
