"""The means themselves, without arrays: their domain, the power means
P_p, and the one-shot evaluation of M_{k,s,q} with the routes that need
no arrays.

For a strictly positive vector v of length n the power mean of order p,
p an extended real, is

    p finite, p != 0:   ((1/n) * sum(v_i**p)) ** (1/p)
    p == 0:             (v_1 * ... * v_n) ** (1/n)     (geometric mean)
    p == -inf:          min(v)
    p == +inf:          max(v)

:func:`cmn_mean_fast` is the package's one dispatch.  Two of its routes
are scalar code on ``math`` alone: a power mean (k >= n, k = 1 or s = q:
Degenerate) and the q = 0 closed form

    M_{k,s,0}(v) = ( e_k(b) / C(n,k) ) ** (1/s),   b_i = v_i ** (s/k),

by a scalar recurrence (FastSymmetric) wherever its range test holds (the
powers stay well inside the double range) and its work, (n - k + 1) * k
steps, stays under a cap of 2**17.  This module imports no numpy,
so a command that takes only those routes never loads it.  Other e_k
inputs go to the vector engine
(:class:`~hardy_means.prefix.ElementarySymmetric`) and every other
mean to enumeration; both import :mod:`~hardy_means.cmn_means` when they
run.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterable, Sequence

from ._summation import KahanSum
from .errors import DomainError
from .params import MeanParams, Record, ensure_exponent

__all__ = [
    "ZERO_EXPONENT_THRESHOLD",
    "is_zero_exponent",
    "check_positive_vector",
    "power_mean",
    "power_mean_lower_bound_check",
    "MAX_ENUMERATION_N",
    "MAX_ENUMERATION_SUBSETS",
    "EvalMethod",
    "closed_form",
    "CmnEvalReport",
    "cmn_mean_fast",
]

# ---------------------------------------------------------------------------
# The power means

# Exponents closer to zero than this are evaluated as the geometric mean.
# The mean is continuous in p and the switch point sits far below any
# resolution the experiments care about; it also dodges the catastrophic
# loss of significance in ((1/n) sum v**p)**(1/p) as p -> 0.
ZERO_EXPONENT_THRESHOLD = 1e-12


def is_zero_exponent(p: float) -> bool:
    """Whether every evaluator treats the order ``p`` as 0."""
    return abs(p) < ZERO_EXPONENT_THRESHOLD


# Above |p| * log(max/min) = 50 the reference shift is taken at an
# endpoint of the data instead of the log midpoint; exp() arguments in the
# centered variant stay below 50 either way.
_CENTERED_SPAN_LIMIT = 50.0


def check_positive_vector(values: Iterable[float] | Sequence[float]) -> list[float]:
    """Validate a mean argument: nonempty, every entry finite and > 0.

    Returns the entries as a fresh list of floats.  Raises
    :class:`DomainError` otherwise; positivity is never extended by
    continuity because the means are only defined on strictly positive
    input.
    """
    try:
        vals = [float(x) for x in values]
    except (TypeError, ValueError):
        raise DomainError("vector entries must be real numbers")
    if not vals:
        raise DomainError("vector must contain at least one entry")
    for i, x in enumerate(vals):
        if not math.isfinite(x):
            raise DomainError(f"entry {i} is not finite: {x!r}")
        if x <= 0.0:
            raise DomainError(f"entry {i} is not strictly positive: {x!r}")
    return vals


def power_mean(p, values) -> float:
    """Power mean of order ``p`` (an extended real) of a positive vector.

    Entries spanning [1e-300, 1e300] and exponents up to |p| = 1e3 neither
    overflow nor underflow: the sum is taken in a shifted log domain,
    factoring out max(v) for p > 0 and min(v) for p < 0.  For mild
    exponents a variant centered at the geometric mean is used instead,
    because it keeps full accuracy as p approaches 0.  Every reduction goes
    through ``math.fsum`` (exactly rounded), so the result is bit-for-bit
    independent of the order of the entries.
    """
    p = ensure_exponent(p, "p")
    vals = check_positive_vector(values)
    n = len(vals)
    lo = min(vals)
    hi = max(vals)
    if lo == hi:
        # Constant vectors (and singletons) short-circuit: every mean
        # equals the common value, exactly.
        return lo
    if p == math.inf:
        return hi
    if p == -math.inf:
        return lo

    logs = [math.log(x) for x in vals]
    if is_zero_exponent(p):
        return math.exp(math.fsum(logs) / n)

    span = math.log(hi) - math.log(lo)
    if abs(p) * span <= _CENTERED_SPAN_LIMIT:
        # Centered form: with d_i = log(v_i) - mean(log v),
        #   P_p = G * (1 + (1/n) sum expm1(p * d_i)) ** (1/p)
        # where G is the geometric mean.  fsum makes the mixed-sign
        # expm1 series exact, so accuracy is uniform in p down to the
        # geometric-mean switch point.
        center = math.fsum(logs) / n
        shifted = math.fsum(math.expm1(p * (x - center)) for x in logs)
        return math.exp(center + math.log1p(shifted / n) / p)

    # Endpoint-shifted form for harsh exponent/range combinations: every
    # exp() argument is <= 0, so nothing overflows, and the final value is
    # the exact endpoint times a representable correction factor.
    if p > 0:
        ref_log, ref = math.log(hi), hi
    else:
        ref_log, ref = math.log(lo), lo
    total = math.fsum(math.exp(p * (x - ref_log)) for x in logs)
    return ref * math.exp((math.log(total) - math.log(n)) / p)


def power_mean_lower_bound_check(q1, values) -> bool:
    """Check the elementary lower bound P_q1(v) > k**(-1/q1) * max(v).

    ``q1`` must be a finite positive exponent and ``values`` a positive
    vector of length k.  The comparison is strict, so a single-entry
    vector (where both sides coincide) returns False, while every vector
    of length k >= 2 satisfies the bound, constant vectors included.

    Caveat: the strict margin shrinks like (max/min)**-q1, so for large
    q1 on a wide dynamic range the two sides agree to the last double bit
    and the comparison saturates to the rounding of the tie.
    """
    q1 = ensure_exponent(q1, "q1")
    if not math.isfinite(q1) or q1 <= 0.0:
        raise DomainError(f"q1 must be finite and > 0, got {q1!r}")
    vals = check_positive_vector(values)
    k = len(vals)
    return power_mean(q1, vals) > k ** (-1.0 / q1) * max(vals)


# ---------------------------------------------------------------------------
# The one-shot evaluation of M_{k,s,q}

# Enumeration refuses beyond this many subsets (2**22) or entries; the
# worst admissible case stays comfortably interactive and anything larger
# belongs to the closed-form or Monte Carlo paths.  The Exact route streams
# its subset means into the outer mean and holds no array of them: the
# largest admissible count, C(25,15) = 3268760, peaks at 3.0 MiB traced,
# and `mean` then at 31.4 MB resident after 0.6 s on a 2-vCPU VM.
MAX_ENUMERATION_N = 30
MAX_ENUMERATION_SUBSETS = 1 << 22

# Smallest positive normal double.
_MIN_NORMAL = 2.0**-1022
# The range test of the scalar e_k recurrence (:func:`_unscaled_range_holds`):
# its values stay within 2**(+-(_UNSCALED_RANGE + 53)), well inside the
# normal doubles.
_UNSCALED_RANGE = 900
# The work cap of the scalar e_k route: at most this many steps, a product
# and a compensated addition each, (n - k + 1) * k for e_k of n terms.  A
# `mean` command on the vector engine, which imports numpy, took as long
# as on the scalar route at about 3.1e5 steps for k = 2, 4.1e5 for k = 5,
# 4.5e5 for k = 20 and past 5.2e5 for k = 50 (medians of fresh processes
# on a 2-vCPU VM, Python 3.11, numpy 2.4); the cap sits 2.3x below the
# least of them, where the scalar route saved 34-36 ms on each shape.
_SCALAR_STEPS = 1 << 17


class EvalMethod(enum.Enum):
    EXACT = "Exact"
    FAST_SYMMETRIC = "FastSymmetric"
    DEGENERATE = "Degenerate"
    MONTE_CARLO = "MonteCarlo"


def closed_form(params: MeanParams) -> tuple[float | None, bool]:
    """The closed forms of M_{k,s,q} that hold for every n > k, as (p, symmetric).

    p is the order with M_{k,s,q} = P_p (s when k = 1, q when s = q), or
    None; symmetric says whether the e_k form applies (q = 0, s finite
    and nonzero).
    """
    k, s, q = params.k, params.s, params.q
    if k == 1:
        return s, False
    if s == q:
        return q, False
    return None, is_zero_exponent(q) and math.isfinite(s) and not is_zero_exponent(s)


class CmnEvalReport(Record):
    """Evaluation result plus how it was obtained.

    ``samples`` and ``stderr_estimate`` are present exactly when the value
    came from the Monte Carlo estimator.
    """

    __slots__ = ("value", "method", "samples", "stderr_estimate", "note")

    def __init__(
        self,
        value: float,
        method: EvalMethod,
        samples: int | None = None,
        stderr_estimate: float | None = None,
        note: str | None = None,
    ):
        if not (value > 0.0):
            raise DomainError(f"mean value must be positive, got {value!r}")
        if value == math.inf:
            raise DomainError("the computed mean left the double range")
        is_mc = method is EvalMethod.MONTE_CARLO
        if is_mc != (stderr_estimate is not None) or is_mc != (samples is not None):
            raise DomainError("samples/stderr_estimate are reported iff method is MonteCarlo")
        if stderr_estimate is not None and not stderr_estimate >= 0.0:
            raise DomainError("stderr_estimate must be nonnegative")
        super().__init__(value, method, samples, stderr_estimate, note)


def _pow_or_inf(a: float, p: float) -> float:
    """``math.pow``, with inf where the result leaves the double range
    (``math.pow`` raises OverflowError there), so range checks see it."""
    try:
        return math.pow(a, p)
    except OverflowError:
        return math.inf


def _ldexp_or_inf(x: float, e: int) -> float:
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.inf


# A level of the e_k engine (:class:`~hardy_means.prefix.ElementarySymmetric`,
# by ``push`` and by ``extend`` alike) is rescaled before it takes a term above this, so that the term lands in [0.5, 1).  Levels then
# stay in [0.5, 2**(512 + 53)], far from both ends of the double range, and
# so do the products of the next level.
_LEVEL_CEILING = 2.0**512


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
    m, e = math.frexp(a)
    numerator, denominator = p.as_integer_ratio()
    fraction, whole = _exp2(numerator * e, denominator, p * math.log2(m))
    m, e = math.frexp(fraction)
    return m, e + whole


def _exp2(numerator: int, denominator: int, offset: float = 0.0) -> tuple[float, int]:
    """2**y for y = numerator / denominator + offset, taken exactly, split
    into its whole and fractional parts: (2**(y - w), w) with w = floor(y)."""
    from fractions import Fraction  # only here: it adds to every start-up otherwise

    y = Fraction(numerator, denominator) + Fraction(offset)
    whole = math.floor(y)
    return 2.0 ** float(y - whole), whole


def _binomial(n: int, k: int) -> tuple[float, int]:
    """C(n, k) as (m, e): the float product of (n - t) / (t + 1), rescaled
    by ``frexp`` after every factor."""
    mantissa, exponent = 1.0, 0
    for t in range(k):
        mantissa, e = math.frexp(mantissa * (n - t) / (t + 1))
        exponent += e
    return mantissa, exponent


def _root(x: float, e: int, s: float) -> float:
    """(x * 2**e) ** (1/s), for x > 0.

    In the double range the root is the C library's ``pow``, or for s = 2
    the correctly rounded ``sqrt``, which numpy and ``math`` share.
    Outside it e/s is split exactly into whole and fractional parts.
    """
    if -1021 <= math.frexp(x)[1] + e <= 1024:
        x = math.ldexp(x, e)
        return math.sqrt(x) if s == 2.0 else _pow_or_inf(x, 1.0 / s)
    numerator, denominator = s.as_integer_ratio()
    fraction, whole = _exp2(e * denominator, numerator)
    return _ldexp_or_inf(x ** (1.0 / s) * fraction, whole)


def _symmetric_mean(ek: float, ek_exponent: int, n: int, k: int, s: float) -> float:
    """(e_k / C(n, k)) ** (1/s) from e_k = ek * 2**ek_exponent."""
    c, c_exponent = _binomial(n, k)
    return _root(ek / c, ek_exponent - c_exponent, s)


def _unscaled_range_holds(n: int, k: int, spread: int) -> bool:
    """Whether e_k of n terms, each term b with b and 1/b at most
    2**spread, meets the range test of the unscaled recurrence
    (:func:`_unscaled_elementary_symmetric`):
    2*k*spread + min(n, k*ceil(log2 n)) <= ``_UNSCALED_RANGE``."""
    return 2 * k * spread + min(n, k * (n - 1).bit_length()) <= _UNSCALED_RANGE


def _unscaled_elementary_symmetric(values: list[float], k: int, p: float) -> tuple[float, int] | None:
    """e_k of values**p as (m, e) by the recurrence of
    :class:`~hardy_means.prefix.ElementarySymmetric` without its
    scales, or None where that could differ from the scaled result.

    Scaling by a power of two commutes with every rounding while all
    values stay normal.  Let every b = a**p and 1/b be at most 2**L.  A
    level j <= k holds sums of at most C(n, j) products of j powers, each
    product within 2**(+-j*L), and C(n, j) <= min(2**n, n**j) <= 2**B with
    B = min(n, k*ceil(log2 n)).  So the level values, products and Kahan
    errors of both computations lie within 2**(+-(2*k*L + B + 53)), a
    level's scale being the exponent of one of its terms (a nonzero
    rounding error of a sum of positive terms is at least 2**-53 of the
    smaller one).  Where 2*k*L + B <= ``_UNSCALED_RANGE``
    (:func:`_unscaled_range_holds`) every one of them is normal, and the
    result is bit-identical to ``extend``'s.
    """
    try:
        b = [math.pow(a, p) for a in values]
    except OverflowError:
        return None
    n = len(b)
    lo, hi = min(b), max(b)
    if lo < _MIN_NORMAL or not _unscaled_range_holds(n, k, max(math.frexp(hi)[1], 1 - math.frexp(lo)[1])):
        return None
    level = [1.0] * (n - k + 1)  # e_0 before each term that e_k depends on
    for j in range(k):
        level = KahanSum().add_each([b_i * before for b_i, before in zip(b[j : n - k + j + 1], level)])
    return math.frexp(level[-1])


def _elementary_symmetric(values, k: int, p: float) -> tuple[float, int]:
    """e_k of values**p as (m, e), meaning m * 2**e; needs at least k values.

    Inputs under the work cap ``_SCALAR_STEPS`` that meet the range test
    take the scalar recurrence, with the same bits as the vector engine;
    only the others load numpy.
    """
    n = len(values)
    if n < k:
        raise DomainError(f"e_{k} of {n} terms is zero; need at least k terms")
    if (n - k + 1) * k <= _SCALAR_STEPS:
        result = _unscaled_elementary_symmetric([float(a) for a in values], k, p)
        if result is not None:
            return result
    import numpy as np

    from .cmn_means import _scaled_pows
    from .prefix import ElementarySymmetric

    ek, exponent = ElementarySymmetric(k).extend(*_scaled_pows(np.asarray(values, dtype=np.float64), p))
    return float(ek[-1]), int(exponent[-1])


def cmn_mean_fast(params: MeanParams, values) -> CmnEvalReport:
    """Evaluate M_{k,s,q} through the cheapest applicable route.

    Dispatch order: (a) k >= n collapses to P_q; (b) a power mean P_p by
    :func:`closed_form` (P_s when k = 1, P_q when s = q) is Degenerate;
    (c) q == 0 with finite nonzero s uses the elementary-symmetric closed
    form, any sign of s, on the entries in ascending order; (d) everything
    else enumerates, raising :class:`CapacityError` past the budget, at
    which point the Monte Carlo sampler is the intended fallback.  Every
    result is clamped to [min v, max v], which holds each M_{k,s,q}(v);
    a result already inside keeps its bits.
    """
    vals = check_positive_vector(values)
    order, symmetric = (params.q, False) if params.k >= len(vals) else closed_form(params)
    if order is not None:
        value, method = power_mean(order, vals), EvalMethod.DEGENERATE
    elif symmetric:
        k, s = params.k, params.s
        ek, exponent = _elementary_symmetric(sorted(vals), k, s / k)
        value, method = _symmetric_mean(ek, exponent, len(vals), k, s), EvalMethod.FAST_SYMMETRIC
    else:
        from .cmn_means import cmn_mean_naive

        value, method = cmn_mean_naive(params, vals), EvalMethod.EXACT
    if 0.0 < value < math.inf:
        # every M_{k,s,q}(v) lies in [min v, max v]; a value a route lost
        # to the double range (0 or inf) is left for the report to refuse
        value = min(max(value, min(vals)), max(vals))
    return CmnEvalReport(value, method)
