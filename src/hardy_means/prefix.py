"""The prefix experiments: the sequence families, the checkpoint ladder,
the incremental form each mean takes, and the scalar engine that runs
those forms one term at a time.

:func:`prefix_form` decides once, for both engines, which incremental form
a mean takes: a running power mean, the pair recurrence of M_{2,1,0}, the
elementary-symmetric levels of M_{k,s,0}, the second moment of
M_{k,2q,q}, or re-enumeration of every prefix (``buffered``).  Each closed
form is one class here with one state and two steps: ``push`` takes one
term on ``math`` and :meth:`KahanSum.add` alone, and ``extend`` takes a
block of terms on arrays, importing numpy when it is called.  ``extend``
rounds as ``push`` does, so the two engines give the same rows and the
same errors, bit for bit.

:func:`iter_hardy_checkpoints` picks the engine from the mean and N alone,
before any term is computed: the scalar engine, which pushes, takes every
closed form whose work, N terms at the steps per term of its form, is at
most ``_PREFIX_STEPS``, and the block engine of :mod:`~hardy_means.hardy`,
which extends, the rest, along with every buffered mean.  So a short
``hardy-sum`` never imports numpy, and a long one pays for numpy once and
then runs on arrays.

The families yield their terms one at a time (``terms``) for the scalar
engine and as arrays (``blocks``) for the block engine, with the same
bits: 1/i and ``math.pow`` are what numpy's division and
``np.float_power`` compute, and the geometric terms are the same iterated
products.
"""

from __future__ import annotations

import math

from ._summation import KahanSum
from .errors import DomainError
from .params import (
    MeanLike, MeanParams, Record, ensure_exponent, format_exponent, parse_exponent, read_vector_file, require_int,
)
from .routes import (
    _LEVEL_CEILING, _ldexp_or_inf, _pow_or_inf, _root, _scaled_pow, _symmetric_mean, check_positive_vector,
    closed_form, is_zero_exponent,
)

__all__ = [
    "Harmonic",
    "HarmonicTruncated",
    "PowerTail",
    "Geometric",
    "CustomTerms",
    "parse_family",
    "default_checkpoints",
    "prefix_form",
    "iter_hardy_checkpoints",
    "ElementarySymmetric",
]

# Smallest positive double; used for the geometric representability horizon.
_TINY = 5e-324

# Terms per block of the block engine.  Results do not depend on it; the
# working set does (a few arrays of this length), so peak memory stays
# flat in N.
_BLOCK = 8192


def _block_ranges(count: int):
    """Index ranges [lo, hi) covering 1..count, _BLOCK indices each."""
    for lo in range(1, count + 1, _BLOCK):
        yield lo, min(lo + _BLOCK, count + 1)


def _index_blocks(count: int):
    """The indices 1..count as float arrays, one per block."""
    import numpy as np  # the block engine's: ``terms`` needs no numpy

    return (np.arange(lo, hi, dtype=np.float64) for lo, hi in _block_ranges(count))


# ---------------------------------------------------------------------------
# Sequence families
#
# ``terms(count)`` yields the first ``count`` terms as floats and
# ``blocks(count)`` as consecutive float arrays, with the same bits.  Both
# validate ``count`` when called, not when first iterated.  Only ``blocks``
# imports numpy, and the block engine's ``pow`` from ``cmn_means``.


class Harmonic(Record):
    """a_n = 1/n.  Not summable; quarantined behind an explicit opt-in.

    Ratio experiments against a divergent ||a||_1 are meaningless, so
    :func:`iter_hardy_checkpoints` rejects this family
    unless the caller sets ``allow_nonsummable``.  The limit experiment
    (:func:`~hardy_means.hardy.sharpness_limit_curve`) needs no ratio and
    reads the terms from :meth:`blocks` itself.
    """

    __slots__ = ()
    summable = False

    def __init__(self):
        super().__init__()

    def terms(self, count: int):
        return (1.0 / i for i in range(1, require_int(count, "count", 1) + 1))

    def blocks(self, count: int):
        return (1.0 / i for i in _index_blocks(require_int(count, "count", 1)))

    def label(self) -> str:
        return "harmonic"


class HarmonicTruncated(Record):
    """a_n = 1/n up to the crossover, then the inverse-square tail n**-2.

    This is the witness family for the sharpness of the constant 4: with a
    long harmonic prefix the empirical ratio climbs arbitrarily close to 4
    while the sequence stays summable.
    """

    __slots__ = ("crossover",)
    summable = True

    def __init__(self, crossover: int):
        super().__init__(require_int(crossover, "crossover", 1))

    def terms(self, count: int):
        crossover = self.crossover
        return (1.0 / i if i <= crossover else math.pow(i, -2.0) for i in range(1, require_int(count, "count", 1) + 1))

    def blocks(self, count: int):
        return (self._block(i) for i in _index_blocks(require_int(count, "count", 1)))

    def _block(self, i):
        from .cmn_means import _pows

        out = 1.0 / i
        tail = i > self.crossover
        out[tail] = _pows(i[tail], -2.0)
        return out

    def label(self) -> str:
        return f"harmonic-truncated:{self.crossover}"


class PowerTail(Record):
    """a_n = n**-alpha with alpha > 1 (summable)."""

    __slots__ = ("exponent",)
    summable = True

    def __init__(self, exponent: float):
        alpha = ensure_exponent(exponent, "exponent")
        if not (math.isfinite(alpha) and alpha > 1.0):
            raise DomainError(f"power tail needs a finite exponent > 1, got {alpha!r}")
        super().__init__(alpha)

    def terms(self, count: int):
        power = -self.exponent
        return (math.pow(i, power) for i in range(1, require_int(count, "count", 1) + 1))

    def blocks(self, count: int):
        from .cmn_means import _pows

        return (_pows(i, -self.exponent) for i in _index_blocks(require_int(count, "count", 1)))

    def label(self) -> str:
        return f"powertail:{format_exponent(self.exponent)}"


class Geometric(Record):
    """a_n = r**n with 0 < r < 1.

    Terms are produced by iterated multiplication (the term before times
    r; ``np.multiply.accumulate`` within a block, the last term carried
    into the next) and are only available while r**n stays inside the
    positive double range; ``max_length`` gives that horizon (618 terms
    already for r = 0.3).  Requests past it raise a :class:`DomainError`
    instead of quietly emitting zeros or a stalled subnormal tail.
    """

    __slots__ = ("ratio",)
    summable = True

    def __init__(self, ratio: float):
        r = ensure_exponent(ratio, "ratio")
        if not (0.0 < r < 1.0):
            raise DomainError(f"geometric ratio must lie in (0, 1), got {r!r}")
        super().__init__(r)

    def max_length(self) -> int:
        return int(math.floor(math.log(_TINY) / math.log(self.ratio)))

    def _length(self, count: int) -> int:
        count = require_int(count, "count", 1)
        if count > self.max_length():
            raise DomainError(
                f"geometric ratio {self.ratio} underflows after {self.max_length()} terms; "
                f"requested {count}"
            )
        return count

    def terms(self, count: int):
        count, r = self._length(count), self.ratio

        def generate():
            x = 1.0
            for _ in range(count):
                x *= r
                yield x

        return generate()

    def blocks(self, count: int):
        count = self._length(count)
        import numpy as np

        def generate():
            x = 1.0
            for lo, hi in _block_ranges(count):
                block = np.full(hi - lo, self.ratio)
                block[0] = x * self.ratio
                np.multiply.accumulate(block, out=block)
                x = float(block[-1])
                yield block

        return generate()

    def label(self) -> str:
        return f"geometric:{format_exponent(self.ratio)}"


class CustomTerms(Record):
    """An explicit finite prefix.  There is no positive extension past it,
    so any request for more terms than given is a positivity violation.

    ``source`` names the file :func:`parse_family` read.  It shows in the
    repr and survives copy and pickle, but equality and hash ignore it.
    """

    __slots__ = ("values", "source")
    summable = True

    def __init__(self, values: tuple, source: str | None = None):
        super().__init__(tuple(check_positive_vector(values)), source)

    def _key(self) -> tuple:
        return (self.values,)

    def _length(self, count: int) -> int:
        count = require_int(count, "count", 1)
        if count > len(self.values):
            raise DomainError(
                f"custom family has {len(self.values)} strictly positive terms; "
                f"term {len(self.values) + 1} would be zero"
            )
        return count

    def terms(self, count: int):
        return iter(self.values[: self._length(count)])

    def blocks(self, count: int):
        count = self._length(count)
        import numpy as np

        values = np.array(self.values[:count], dtype=np.float64)
        return (values[lo - 1 : hi - 1] for lo, hi in _block_ranges(count))

    def label(self) -> str:
        return f"custom:{len(self.values) if self.source is None else self.source}"


def parse_family(text: str):
    """Parse a family spec: ``harmonic``, ``harmonic-truncated:<N0>``,
    ``powertail:<alpha>``, ``geometric:<r>`` or ``custom:<file>`` (the terms
    in the file, one decimal per line, read by
    :func:`~hardy_means.params.read_vector_file`).  The kind is
    case-insensitive."""
    kind, _, arg = text.strip().partition(":")
    kind = kind.lower()
    if kind == "harmonic" and not arg:
        return Harmonic()
    if kind == "harmonic-truncated":
        try:
            crossover = int(arg)
        except ValueError:
            raise DomainError(f"harmonic-truncated needs an integer crossover, got {arg!r}")
        return HarmonicTruncated(crossover)
    if kind == "powertail":
        return PowerTail(parse_exponent(arg, "powertail exponent"))
    if kind == "geometric":
        return Geometric(parse_exponent(arg, "geometric ratio"))
    if kind == "custom":
        return CustomTerms(tuple(read_vector_file(arg)), source=arg)
    raise DomainError(
        f"unknown family {text!r}; expected harmonic, harmonic-truncated:<N0>, "
        "powertail:<alpha>, geometric:<r> or custom:<file>"
    )


# ---------------------------------------------------------------------------
# Checkpoints


def default_checkpoints(n: int) -> list[int]:
    """Logarithmic checkpoint ladder 1, 2, 5, 10, ... capped by (and
    always including) n."""
    n = require_int(n, "N", 1)
    points = {n}
    scale = 1
    while scale <= n:
        for lead in (1, 2, 5):
            if lead * scale <= n:
                points.add(lead * scale)
        scale *= 10
    return sorted(points)


def _decades(first: int, n: int) -> list[int]:
    """first, 10 * first, ... below n, then n."""
    marks = []
    while first < n:
        marks.append(first)
        first *= 10
    return marks + [n]


def _checkpoint_marks(family, n: int, checkpoints, allow_nonsummable: bool) -> tuple[int, list[int]]:
    """N and the sorted checkpoints of an experiment, checked in the order
    both engines report their errors.  Non-summable families are rejected
    unless explicitly allowed, since a ratio against a divergent norm
    estimates nothing."""
    n = require_int(n, "N", 1)
    if not family.summable and not allow_nonsummable:
        raise DomainError(
            f"family {family.label()} is not summable; pass allow_nonsummable=True "
            "only for limit experiments"
        )
    if checkpoints is None:
        return n, default_checkpoints(n)
    marks = sorted({require_int(m, "checkpoint") for m in checkpoints})
    if not marks or marks[0] < 1 or marks[-1] > n:
        raise DomainError(f"checkpoints must lie in 1..{n}")
    return n, marks


# ---------------------------------------------------------------------------
# The incremental forms
#
# Each form keeps one state and takes terms by either of two steps, in any
# mix.  ``push(a)`` takes one positive finite term, on ``math`` alone, and
# returns the mean of the prefix so far, or raises the DomainError of a
# term the form refuses, with the state as it was.  ``extend(block)`` takes
# the elements of a float array up to the first one the form refuses and
# returns (values, error): the running means after each element taken, and
# the DomainError of the refused element, or None when it took the whole
# block; a form that returned an error takes no further terms.  ``extend``
# imports numpy and the block helpers of :mod:`~hardy_means.cmn_means` when
# it is called, and rounds as ``push`` does over the same terms.


def _counts(done: int, size: int) -> np.ndarray:
    """The prefix lengths done+1 .. done+size as floats (exact below 2**53)."""
    import numpy as np

    return np.arange(done + 1, done + size + 1, dtype=np.float64)


def _power_range_error(a: float, p: float) -> DomainError:
    return DomainError(
        f"a**p left the double range for a={a!r}, p={p!r}; "
        "the incremental evaluator needs representable powers"
    )


class PowerMeanPrefix:
    """Running power mean P_p of every term taken so far."""

    def __init__(self, p: float):
        self.p = ensure_exponent(p, "p")
        self._count = 0
        self._acc = KahanSum()
        self._extreme = None

    def push(self, a: float) -> float:
        p = self.p
        if math.isinf(p):
            pick = max if p > 0 else min
            self._extreme = a if self._extreme is None else pick(self._extreme, a)
            return self._extreme
        if is_zero_exponent(p):
            self._acc.add(math.log(a))
            self._count += 1
            return a if self._count == 1 else math.exp(self._acc.value / self._count)
        term = _pow_or_inf(a, p)
        if not (0.0 < term < math.inf):
            raise _power_range_error(a, p)
        self._acc.add(term)
        self._count += 1
        return a if self._count == 1 else _pow_or_inf(self._acc.value / self._count, 1.0 / p)

    def extend(self, block: np.ndarray) -> tuple[np.ndarray, DomainError | None]:
        import numpy as np

        from .cmn_means import _libm, _pows, _valid_prefix

        p = self.p
        if math.isinf(p):
            pick = np.maximum if p > 0 else np.minimum
            values = pick.accumulate(block)
            if self._extreme is not None:
                values = pick(values, self._extreme)
            if values.size:
                self._extreme = float(values[-1])
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


class PairGeometricMeanPrefix:
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

    def push(self, a: float) -> float:
        r = math.sqrt(a)
        self._pairs.add(r * self._roots.value)
        self._roots.add(r)
        self._count += 1
        n = self._count
        return a if n == 1 else 2.0 * self._pairs.value / (n * (n - 1))

    def extend(self, block: np.ndarray) -> tuple[np.ndarray, None]:
        import numpy as np

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


class ElementarySymmetric:
    """Running e_1 .. e_order of positive terms b_i, in the linear domain.

    Level j holds e_j(b_1..b_m) = sum_{i<=m} b_i * e_{j-1}(b_1..b_{i-1}) as
    a compensated sum of positive terms, so nothing cancels, times a
    power-of-two scale 2**scale_j that keeps it inside the double range.
    The scale is set by the first term a level takes and is raised
    whenever a term would exceed ``_LEVEL_CEILING``; scaling by a power of
    two is exact, so neither huge binomial counts nor extreme entries cost
    accuracy.  Each b_i comes as a mantissa and an exponent (b_i = a_i**p
    from :func:`~hardy_means.routes._scaled_pow`), so b_i may lie outside
    the double range too: ``push(mantissa, exponent)`` takes one term and
    ``extend(mantissa, exponent)`` a block, as arrays
    (:func:`~hardy_means.cmn_means._scaled_pows`).

    Each returns e_order of the terms so far, after the term or after
    each term of the block, as values and exponents, meaning
    values * 2**exponents, and (0.0, 0) while there are fewer than
    ``order`` terms.  The results do not depend on how the terms are
    split into pushes and blocks.
    """

    def __init__(self, order: int):
        self.order = order = require_int(order, "order", 1)
        self.count = 0
        self._levels = [KahanSum() for _ in range(order)]
        self._scales = [0] * order

    def push(self, mantissa: float, exponent: int) -> tuple[float, int]:
        self.count += 1
        # High levels first: level j takes b_i times level j-1 before b_i.
        for j in range(min(self.count, self.order), 0, -1):
            level = self._levels[j - 1]
            if j == 1:
                u, shift = mantissa, exponent
            else:
                u, shift = mantissa * self._levels[j - 2].value, exponent + self._scales[j - 2]
            if j == self.count:  # the level opens; its first term sets the scale
                self._scales[j - 1] = math.frexp(u)[1] + shift
            shift -= self._scales[j - 1]
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

    def extend(self, mantissa: np.ndarray, exponent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        import numpy as np

        from .cmn_means import _valid_prefix

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


class _ClosedFormPrefix:
    """The steps the closed-form prefixes share.

    While n <= k the mean is P_r of the prefix (the k >= n branch of the
    definition), read from a :class:`PowerMeanPrefix`; its refusals are
    the only ones.  Afterwards it is the closed form of running levels of
    b = a**power.  ``_levels(step, m, e)`` feeds b, as a mantissa and an
    exponent (arrays under ``extend``), to the subclass's
    :class:`ElementarySymmetric` levels by their ``step``, ``"push"`` or
    ``"extend"``, and returns one (value, exponent) pair per level, which
    ``_mean`` combines for one term and ``_means`` for arrays.
    """

    def __init__(self, k: int, r: float, power: float):
        self.k = k
        self._power = power
        self._head = PowerMeanPrefix(r)
        self._count = 0

    def push(self, a: float) -> float:
        head = self._head.push(a) if self._count < self.k else None
        levels = self._levels("push", *_scaled_pow(a, self._power))
        self._count += 1
        return self._mean(self._count, *levels) if head is None else head

    def extend(self, block: np.ndarray) -> tuple[np.ndarray, DomainError | None]:
        import numpy as np

        from .cmn_means import _scaled_pows

        done = self._count
        head = min(max(self.k - done, 0), block.size)  # elements with n <= k
        first, error = self._head.extend(block[:head])
        if error is not None:
            return first, error
        levels = self._levels("extend", *_scaled_pows(block, self._power))
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

    both levels of an :class:`ElementarySymmetric` engine, each a
    compensated sum of positive terms under its own power-of-two scale;
    b**2 is taken from the mantissa and exponent of b, so it needs no
    second power.  Nothing cancels and no square leaves the double range,
    so no entry is refused past the P_q head; each step costs O(1).
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

    def _levels(self, step, m, e):
        return getattr(self._p2, step)(m * m, 2 * e), getattr(self._e2, step)(m, e)

    def _mean(self, n: int, p2, e2) -> float:
        (p, p_exponent), (e, e_exponent) = p2, e2
        top = max(p_exponent, e_exponent)  # both sums on the larger scale
        weight = 2.0 * (self.k - 1) / (n - 1.0)
        x = (math.ldexp(p, p_exponent - top) + weight * math.ldexp(e, e_exponent - top)) / (self.k * n)
        return _root(x, top, self.s)

    def _means(self, n: np.ndarray, p2, e2) -> np.ndarray:
        import numpy as np

        from .cmn_means import _roots

        (p, p_exponent), (e, e_exponent) = p2, e2
        top = np.maximum(p_exponent, e_exponent)
        weight = 2.0 * (self.k - 1) / (n - 1.0)
        x = (np.ldexp(p, p_exponent - top) + weight * np.ldexp(e, e_exponent - top)) / (self.k * n)
        return _roots(x, top, self.s)


class SymmetricFunctionPrefix(_ClosedFormPrefix):
    """Running M_{k,s,0} through the elementary-symmetric closed form.

    While at most k terms have arrived the mean is the plain geometric
    mean of the prefix (the k >= n branch of the definition with q = 0);
    afterwards it is (e_k(b)/C(n,k))**(1/s) with b_i = a_i**(s/k), with
    e_k kept by the scaled linear-domain recurrence of
    :class:`ElementarySymmetric` at O(k) per term.
    """

    def __init__(self, k: int, s: float):
        k = require_int(k, "k", 2)
        s = ensure_exponent(s, "s")
        if not math.isfinite(s) or is_zero_exponent(s):
            raise DomainError(f"the symmetric-function form needs finite nonzero s, got {s!r}")
        super().__init__(k, 0.0, s / k)
        self.s = s
        self._esp = ElementarySymmetric(k)

    def _levels(self, step, m, e):
        return (getattr(self._esp, step)(m, e),)

    def _mean(self, n: int, ek) -> float:
        return _symmetric_mean(*ek, n, self.k, self.s)

    def _means(self, n: np.ndarray, ek) -> np.ndarray:
        from .cmn_means import _symmetric_means

        return _symmetric_means(*ek, n, self.k, self.s)


def prefix_form(mean: MeanLike) -> tuple:
    """The incremental form of ``mean`` with its arguments, one decision
    for both engines.

    The closed forms of :func:`~hardy_means.routes.closed_form` come
    first: ``("power", p)`` and, for q = 0, ``("pair",)`` at (2, 1, 0) or
    ``("symmetric", k, s)``; then ``("second-moment", k, q)`` at s = 2q
    with q finite and nonzero; every other mean is
    ``("buffered", mean)``, which re-enumerates each prefix.
    """
    if not isinstance(mean, MeanParams):
        return "power", ensure_exponent(mean, "p")
    k, s, q = mean.k, mean.s, mean.q
    order, symmetric = closed_form(mean)
    if order is not None:
        return "power", order
    if symmetric:
        return ("pair",) if (k, s, q) == (2, 1.0, 0.0) else ("symmetric", k, s)
    if math.isfinite(q) and not is_zero_exponent(q) and s == 2.0 * q:
        return "second-moment", k, q
    return "buffered", mean


# ---------------------------------------------------------------------------
# The scalar engine and the choice of engine

# Each closed form with the cost of its ``push`` in steps, a step being
# about 0.6 us of one product and one compensated addition (in process,
# Python 3.11 on a 2-vCPU VM): a power mean or the pair recurrence takes 2,
# an e_k form one per level and 6 for its power, C(n,k) and root, and the
# second moment, with three levels, 9.
_FORMS = {
    "power": (PowerMeanPrefix, lambda p: 2),
    "pair": (PairGeometricMeanPrefix, lambda: 2),
    "symmetric": (SymmetricFunctionPrefix, lambda k, s: k + 6),
    "second-moment": (SecondMomentPrefix, lambda k, q: 9),
}
# The work cap of the scalar engine.  A `hardy-sum` on the block engine,
# which imports numpy, took as long as on the scalar engine at about 1.2e5
# to 1.4e5 steps for every form (power:0.5 near 60000 terms, cmn:3,2,0,
# cmn:10,2,0 and cmn:2,2,1 near 15000, 8000 and 15000; medians of
# alternating fresh processes on a 2-vCPU VM, Python 3.11, numpy 2.4), and
# the pair recurrence as low as 8.8e4 steps in a slower period.  The cap
# sits 2.7x below that least break-even.
_PREFIX_STEPS = 1 << 15


def _make_scalar_evaluator(mean: MeanLike, n: int | None = None):
    """The evaluator of the incremental form of ``mean``, for ``push``, or
    None where that form is buffered or, given n, where its work over n
    terms is more than ``_PREFIX_STEPS``."""
    kind, *args = prefix_form(mean)
    if kind not in _FORMS:
        return None
    form, steps = _FORMS[kind]
    if n is not None and n * steps(*args) > _PREFIX_STEPS:
        return None
    return form(*args)


def _scalar_checkpoints(evaluator, family, n: int, marks: list[int]):
    """The rows of :func:`iter_hardy_checkpoints`, one term at a time:
    each term is checked, pushed and added to the two sums, and the
    earliest failure raised after the rows before it."""
    means, norms = KahanSum(), KahanSum()
    pending = iter(marks)
    mark = next(pending)
    for i, a in enumerate(family.terms(n), 1):
        if not 0.0 < a < math.inf:
            raise DomainError(f"family {family.label()} produced a non-positive term at index {i}")
        means.add(evaluator.push(a))
        norms.add(a)
        mean_sum, term_sum = means.value, norms.value
        if not (math.isfinite(mean_sum) and math.isfinite(term_sum)):
            raise DomainError(f"the partial sum or norm left the double range at n={i}")
        if i == mark:
            yield i, mean_sum, term_sum, mean_sum / term_sum
            mark = next(pending, None)
        if mark is None:
            return


def iter_hardy_checkpoints(mean: MeanLike, family, n: int, checkpoints=None, *, allow_nonsummable: bool = False):
    """Yield (i, mean_sum, term_sum, ratio) at each checkpoint up to n.

    Terms are consumed in forward order with compensated running sums.  At
    the earliest failure (a non-positive term, a term the mean's form
    refuses, or a sum that leaves the double range) every row before it is
    yielded and then its DomainError raised; the buffered form alone
    refuses before any row (see :mod:`~hardy_means.hardy`).  Non-summable
    families are rejected unless explicitly allowed, since a ratio against
    a divergent norm estimates nothing.

    The scalar engine runs the experiment where the mean has a closed form
    and its work is at most ``_PREFIX_STEPS``; the block engine, which
    imports numpy, runs the rest.  The choice reads the mean and N alone,
    and both engines give the same bits and errors.
    """
    n, marks = _checkpoint_marks(family, n, checkpoints, allow_nonsummable)
    evaluator = _make_scalar_evaluator(mean, n)
    if evaluator is None:
        from . import hardy

        yield from hardy._block_checkpoints(mean, family, n, marks, allow_nonsummable=allow_nonsummable)
        return
    yield from _scalar_checkpoints(evaluator, family, n, marks)
