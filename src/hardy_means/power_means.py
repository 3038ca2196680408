"""Classical power means over the full extended-real exponent range.

For a strictly positive vector v of length n the power mean of order p is

    p finite, p != 0:   ((1/n) * sum(v_i**p)) ** (1/p)
    p == 0:             (v_1 * ... * v_n) ** (1/n)     (geometric mean)
    p == -inf:          min(v)
    p == +inf:          max(v)

Evaluation is organised so that entries spanning [1e-300, 1e300] and
exponents up to |p| = 1e3 neither overflow nor underflow: the sum is taken
in a shifted log domain, factoring out max(v) for p > 0 and min(v) for
p < 0.  For mild exponents a variant centered at the geometric mean is
used instead because it keeps full accuracy as p approaches 0.

All reductions go through ``math.fsum`` (exactly rounded), so results are
bit-for-bit independent of the order of the input entries.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

from .errors import DomainError
from .extreal import ensure_exponent

__all__ = [
    "ZERO_EXPONENT_THRESHOLD",
    "check_positive_vector",
    "is_zero_exponent",
    "power_mean",
    "power_mean_lower_bound_check",
]

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
    """Power mean of order ``p`` (an extended real) of a positive vector."""
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
