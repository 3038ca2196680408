"""Compensated running sums for long prefix experiments.

One-shot reductions elsewhere in the package use ``math.fsum``, which is
exactly rounded.  The partial-sum experiments need an *incremental* sum
that stays accurate across 10^7 additions, hence this accumulator.
"""

from __future__ import annotations

import math

__all__ = ["KahanSum"]


class KahanSum:
    """Kahan-Neumaier compensated accumulator.

    Tracks the running sum and a correction term so the result is accurate
    to a couple of ulps regardless of how many terms were added (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., ch. 4).
    """

    __slots__ = ("_sum", "_compensation")

    def __init__(self):
        self._sum = 0.0
        self._compensation = 0.0

    def add(self, term: float) -> None:
        self.add_each((term,))

    def add_each(self, terms) -> list[float]:
        """Add every element of ``terms`` in order, as :meth:`add` does;
        return the compensated value after each one.

        The state lives in locals for the loop, so the scalar e_k route
        pays no method call per term.
        """
        total, compensation = self._sum, self._compensation
        values = []
        for term in terms:
            new = total + term
            if abs(total) >= abs(term):
                compensation += (total - new) + term
            else:
                compensation += (term - new) + total
            total = new
            values.append(total + compensation)
        self._sum, self._compensation = total, compensation
        return values

    def extend(self, terms) -> "np.ndarray":
        """Add every element of ``terms`` in order; return the compensated
        value after each one.

        Bit-identical to calling :meth:`add` once per element.  One
        ``np.cumsum`` seeded with the carried sum adds strictly left to
        right, so each running sum rounds as the scalar update does.  Each
        error is Knuth's TwoSum (TAOCP vol. 2, sec. 4.2.2), which gives the
        exact rounding error of ``prev + x`` without a branch, as
        Neumaier's branch in :meth:`add` does for finite sums (a sum that
        overflows is nan at the same positions under both).  A second
        ``np.cumsum``, seeded with the carried compensation, adds the
        errors in the same order as :meth:`add`.
        """
        import numpy as np  # here, not at the top: :meth:`add` needs no numpy

        x = np.asarray(terms, dtype=np.float64)
        if x.size == 0:
            return np.empty(0)
        sums = np.empty(x.size + 1)
        sums[0] = self._sum
        sums[1:] = x
        np.cumsum(sums, out=sums)
        prev, totals = sums[:-1], sums[1:]
        back = totals - prev
        compensation = np.empty_like(sums)
        compensation[0] = self._compensation
        errors = compensation[1:]
        np.subtract(totals, back, out=errors)
        np.subtract(prev, errors, out=errors)
        np.subtract(x, back, out=back)
        np.add(errors, back, out=errors)
        np.cumsum(compensation, out=compensation)
        self._sum = float(sums[-1])
        self._compensation = float(compensation[-1])
        return np.add(totals, errors, out=back)

    def ldexp(self, exponent: int) -> None:
        """Multiply the running state by 2**exponent; exact while it stays
        in the normal range."""
        self._sum = math.ldexp(self._sum, exponent)
        self._compensation = math.ldexp(self._compensation, exponent)

    @property
    def value(self) -> float:
        return self._sum + self._compensation
