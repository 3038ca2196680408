"""Total classification of the (k, s, q) parameter space.

Every parameter triple gets exactly one verdict:

    Hardy     -- a finite constant C with sum_n M(a_1..a_n) <= C ||a||_1
                 is known to exist,
    NotHardy  -- no such constant exists,
    Open      -- unresolved (q <= 0 with s > 1, for k >= 2).

For k >= 2 the known results partition the plane as follows: s >= 1 with
q > 0 is never Hardy (the mean dominates a constant multiple of the
arithmetic mean); s = 1 with q <= 0 is Hardy (majorized by the pairwise
mean M_{2,1,0}, which carries the constant 4); s < 1 is Hardy for every
extended-real q (comparable to the power mean P_s).  The k = 1 row is an
implementer extension: singleton subsets collapse the mean to P_s, which
is Hardy exactly when s < 1.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Sequence

from .errors import DomainError
from .params import MeanParams, Record, ensure_exponent, require_int

__all__ = ["Verdict", "Reason", "Classification", "classify", "classification_table"]


class Verdict(enum.Enum):
    HARDY = "Hardy"
    NOT_HARDY = "NotHardy"
    OPEN = "Open"


class Reason(enum.Enum):
    THEOREM1 = "Theorem1"
    PROP_ITEM1 = "PropItem1"
    PROP_ITEM2 = "PropItem2"
    PROP_ITEM3 = "PropItem3"
    DEGENERATE_POWER_MEAN = "DegeneratePowerMean"
    HAMY_COROLLARY = "HamyCorollary"
    HAYASHI_COROLLARY = "HayashiCorollary"
    OPEN_PROBLEM = "OpenProblem"


_CITATIONS = {
    Reason.THEOREM1: (
        "the pairwise mean M(2,1,0) satisfies sum M(a_1..a_n) < 4 ||a||_1, "
        "and 4 is sharp"
    ),
    Reason.PROP_ITEM1: (
        "for s >= 1 and q > 0 the mean dominates a constant multiple of the "
        "arithmetic mean M(k,1,1), which is not Hardy"
    ),
    Reason.PROP_ITEM2: (
        "for s = 1 and q <= 0 the mean is majorized by M(2,1,0) via the "
        "exponent and subset-size monotonicity inequalities"
    ),
    Reason.PROP_ITEM3: (
        "for s < 1 the mean is bounded by a constant multiple of the power "
        "mean P_s, which is a Hardy mean"
    ),
    Reason.DEGENERATE_POWER_MEAN: (
        "k = 1 collapses every subset mean to a single entry, so the composed "
        "mean equals the power mean P_s, Hardy exactly when s < 1 (this row "
        "lies outside the stated k >= 2 results)"
    ),
    Reason.HAMY_COROLLARY: (
        "the Hamy mean M(k,1,0), the arithmetic mean of k-subset geometric "
        "means, is a Hardy mean for every k >= 2"
    ),
    Reason.HAYASHI_COROLLARY: (
        "the Hayashi mean M(k,0,1), the geometric mean of k-subset arithmetic "
        "means, is a Hardy mean for every k >= 2"
    ),
    Reason.OPEN_PROBLEM: (
        "no verdict is known for s > 1 with q <= 0; whether the Hardy property "
        "holds here is unresolved and may depend on k"
    ),
}


class Classification(Record):
    __slots__ = ("verdict", "reason", "citation")

    def __init__(self, verdict: Verdict, reason: Reason, citation: str):
        super().__init__(verdict, reason, citation)


def _result(verdict: Verdict, reason: Reason) -> Classification:
    return Classification(verdict, reason, _CITATIONS[reason])


def classify(params: MeanParams) -> Classification:
    """Verdict for one parameter triple.  Total on valid parameters."""
    k, s, q = params.k, params.s, params.q
    if k == 1:
        verdict = Verdict.HARDY if s < 1.0 else Verdict.NOT_HARDY
        return _result(verdict, Reason.DEGENERATE_POWER_MEAN)
    if s >= 1.0 and q > 0.0:
        return _result(Verdict.NOT_HARDY, Reason.PROP_ITEM1)
    if s == 1.0:
        # q <= 0 here; the q = 0 column carries the named special cases.
        if q == 0.0:
            reason = Reason.THEOREM1 if k == 2 else Reason.HAMY_COROLLARY
            return _result(Verdict.HARDY, reason)
        return _result(Verdict.HARDY, Reason.PROP_ITEM2)
    if s < 1.0:
        if s == 0.0 and q == 1.0:
            return _result(Verdict.HARDY, Reason.HAYASHI_COROLLARY)
        return _result(Verdict.HARDY, Reason.PROP_ITEM3)
    return _result(Verdict.OPEN, Reason.OPEN_PROBLEM)


def classification_table(
    ks: int | Iterable[int],
    s_values: Sequence,
    q_values: Sequence,
) -> list[tuple[MeanParams, Classification]]:
    """Classify a parameter grid, ordered by k, then s, then q.

    ``ks`` is either an iterable of subset sizes or a single integer k_max
    meaning 1..k_max.
    """
    if not isinstance(ks, Iterable):
        ks = range(1, require_int(ks, "k_max", 1) + 1)
    k_list = sorted(set(ks))
    s_list = sorted({ensure_exponent(s, "s") for s in s_values})
    q_list = sorted({ensure_exponent(q, "q") for q in q_values})
    if not k_list or not s_list or not q_list:
        raise DomainError("classification grids must be nonempty")
    rows = []
    for k in k_list:
        for s in s_list:
            for q in q_list:
                params = MeanParams(k, s, q)
                rows.append((params, classify(params)))
    return rows
