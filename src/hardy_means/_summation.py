"""Compensated running sums for long prefix experiments.

One-shot reductions elsewhere in the package use ``math.fsum``, which is
exactly rounded.  The partial-sum experiments need an *incremental* sum
that stays accurate across 10^7 additions, hence this accumulator.

A sum has one lane or two.  Two lanes are two independent sums kept as
the real and imaginary parts of complex numbers, so that
:meth:`KahanSum.extend` runs both in one pass.  That keeps every bit:
complex addition and subtraction act on each part alone, with the double
operation of that part, and ``np.cumsum`` adds strictly in order in each
part as in a real array, so each lane rounds exactly as a one-lane sum
over the same terms, and an inf or nan in one lane never reaches the
other.
"""

from __future__ import annotations

import math

__all__ = ["KahanSum"]


class KahanSum:
    """Kahan-Neumaier compensated accumulator.

    Tracks the running sum and a correction term so the result is accurate
    to a couple of ulps regardless of how many terms were added (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., ch. 4).

    ``KahanSum(2)`` keeps two lanes: its state, the terms :meth:`extend`
    takes, what it returns and :attr:`value` are complex, one lane in each
    part.  :meth:`add`, :meth:`add_each` and :meth:`ldexp` take one lane.
    """

    __slots__ = ("_sum", "_compensation")

    def __init__(self, lanes: int = 1):
        self._sum = self._compensation = 0.0 if lanes == 1 else 0j

    def add(self, term: float) -> None:
        """Add one term: Neumaier's update, with the error of the rounded
        sum kept in the compensation."""
        total = self._sum
        new = total + term
        if abs(total) >= abs(term):
            self._compensation += (total - new) + term
        else:
            self._compensation += (term - new) + total
        self._sum = new

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
        errors in the same order as :meth:`add`.  Two lanes take complex
        terms and run through the same steps, each part as one lane would.
        """
        import numpy as np  # here, not at the top: :meth:`add` needs no numpy

        x = np.asarray(terms, dtype=type(self._sum))  # float64, or complex128 for two lanes
        if x.size == 0:
            return np.empty(0, x.dtype)
        sums = np.empty(x.size + 1, x.dtype)
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
        self._sum = sums[-1].item()
        self._compensation = compensation[-1].item()
        return np.add(totals, errors, out=back)

    def ldexp(self, exponent: int) -> None:
        """Multiply the running state by 2**exponent; exact while it stays
        in the normal range."""
        self._sum = math.ldexp(self._sum, exponent)
        self._compensation = math.ldexp(self._compensation, exponent)

    @property
    def value(self) -> float:
        return self._sum + self._compensation
