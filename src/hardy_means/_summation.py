"""Compensated running sums for long prefix experiments.

One-shot reductions elsewhere in the package use ``math.fsum``, which is
exactly rounded.  The partial-sum experiments need an *incremental* sum
that stays accurate across 10^7 additions, hence this accumulator.
"""

from __future__ import annotations

import math

import numpy as np

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
        total = self._sum + term
        if abs(self._sum) >= abs(term):
            self._compensation += (self._sum - total) + term
        else:
            self._compensation += (term - total) + self._sum
        self._sum = total

    def extend(self, terms) -> np.ndarray:
        """Add every element of ``terms`` in order; return the compensated
        value after each one.

        Bit-identical to calling :meth:`add` once per element:
        ``np.add.accumulate`` adds strictly left to right, so the running
        sum and the running compensation (with the carried state folded
        into element 0) round exactly as the scalar updates do.
        """
        x = np.asarray(terms, dtype=np.float64)
        if x.size == 0:
            return np.empty(0)
        carried = x.copy()
        carried[0] = self._sum + x[0]
        totals = np.cumsum(carried)
        prev = np.empty_like(totals)
        prev[0] = self._sum
        prev[1:] = totals[:-1]
        errors = np.where(np.abs(prev) >= np.abs(x), (prev - totals) + x, (x - totals) + prev)
        errors[0] = self._compensation + errors[0]
        compensation = np.cumsum(errors)
        self._sum = float(totals[-1])
        self._compensation = float(compensation[-1])
        return totals + compensation

    def ldexp(self, exponent: int) -> None:
        """Multiply the running state by 2**exponent; exact while it stays
        in the normal range."""
        self._sum = math.ldexp(self._sum, exponent)
        self._compensation = math.ldexp(self._compensation, exponent)

    @property
    def value(self) -> float:
        return self._sum + self._compensation
