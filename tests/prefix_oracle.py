"""One-term reference recurrences for the prefix evaluators.

Each class takes one term at a time, in scalar code, by the recurrence
that the block-wise ``extend`` of its evaluator in :mod:`hardy_means.hardy`
vectorises; the tests compare the two by ``float.hex``.  Only the scalar
primitives come from the package: :meth:`KahanSum.add`, the range-safe
``pow`` and ``ldexp``, the scaled power :func:`_scaled_pow` and the roots
of :mod:`hardy_means.routes`.
"""

import math

from hardy_means._summation import KahanSum
from hardy_means.cmn_means import _LEVEL_CEILING, _scaled_pow
from hardy_means.hardy import PairGeometricMeanPrefix, PowerMeanPrefix, SecondMomentPrefix, SymmetricFunctionPrefix
from hardy_means.routes import _ldexp_or_inf, _pow_or_inf, _root, _symmetric_mean, is_zero_exponent


class PowerMean:
    """Running P_p.  A term whose p-th power leaves the double range raises
    ValueError and leaves the state as it was."""

    def __init__(self, p: float):
        self.p = p
        self.count = 0
        self.acc = KahanSum()
        self.extreme = None

    def push(self, a: float) -> float:
        p = self.p
        if math.isinf(p):
            pick = max if p > 0 else min
            self.extreme = a if self.extreme is None else pick(self.extreme, a)
            self.count += 1
            return self.extreme
        if is_zero_exponent(p):
            self.acc.add(math.log(a))
            self.count += 1
            return a if self.count == 1 else math.exp(self.acc.value / self.count)
        term = _pow_or_inf(a, p)
        if not math.isfinite(term) or term <= 0.0:
            raise ValueError(f"a**p left the double range for a={a!r}, p={p!r}")
        self.acc.add(term)
        self.count += 1
        return a if self.count == 1 else _pow_or_inf(self.acc.value / self.count, 1.0 / p)


class PairMean:
    """Running M_{2,1,0} = 2 E_n / (n (n-1)), E_n = sum_i r_i S_{i-1}."""

    def __init__(self):
        self.count = 0
        self.roots = KahanSum()
        self.pairs = KahanSum()

    def push(self, a: float) -> float:
        r = math.sqrt(a)
        self.pairs.add(r * self.roots.value)
        self.roots.add(r)
        self.count += 1
        n = self.count
        return a if n == 1 else 2.0 * self.pairs.value / (n * (n - 1))


class ElementarySymmetric:
    """Running e_1 .. e_order of terms given as (mantissa, exponent), each
    level a compensated sum under its own power-of-two scale."""

    def __init__(self, order: int):
        self.order = order
        self.count = 0
        self.levels = [KahanSum() for _ in range(order)]
        self.scales = [0] * order

    def push_scaled(self, mantissa: float, exponent: int) -> tuple[float, int]:
        self.count += 1
        # High levels first: level j takes b_i times level j-1 before b_i.
        for j in range(min(self.count, self.order), 0, -1):
            if j == 1:
                u, shift = mantissa, exponent
            else:
                u, shift = mantissa * self.levels[j - 2].value, exponent + self.scales[j - 2]
            if j == self.count:  # the level opens; its first term sets the scale
                self.scales[j - 1] = math.frexp(u)[1] + shift
            shift -= self.scales[j - 1]
            term = _ldexp_or_inf(u, shift)
            if term > _LEVEL_CEILING:  # rescale so that the term lands in [0.5, 1)
                drop = math.frexp(u)[1] + shift
                self.scales[j - 1] += drop
                self.levels[j - 1].ldexp(-drop)
                term = math.ldexp(u, shift - drop)
            self.levels[j - 1].add(term)
        if self.count < self.order:
            return 0.0, 0
        return self.levels[-1].value, self.scales[-1]


class _ClosedForm:
    """P_r of the prefix while n <= k, then ``mean(n, *levels)`` of the
    levels that ``levels(m, e)`` pushes b = a**power into."""

    def __init__(self, k: int, r: float, power: float):
        self.k = k
        self.power = power
        self.head = PowerMean(r)
        self.count = 0

    def push(self, a: float) -> float:
        head = self.head.push(a) if self.count < self.k else None
        levels = self.levels(*_scaled_pow(a, self.power))
        self.count += 1
        return self.mean(self.count, *levels) if head is None else head


class SymmetricFunction(_ClosedForm):
    """Running M_{k,s,0} = (e_k(b) / C(n,k))**(1/s), b = a**(s/k)."""

    def __init__(self, k: int, s: float):
        super().__init__(k, 0.0, s / k)
        self.s = s
        self.esp = ElementarySymmetric(k)

    def levels(self, m, e):
        return (self.esp.push_scaled(m, e),)

    def mean(self, n, ek):
        return _symmetric_mean(*ek, n, self.k, self.s)


class SecondMoment(_ClosedForm):
    """Running M_{k,2q,q}: M**(2q) = p2 / (k n) + 2 (k-1) e2 / (k n (n-1)),
    p2 = e_1(b**2), e2 = e_2(b), b = a**q."""

    def __init__(self, k: int, q: float):
        super().__init__(k, q, q)
        self.s = 2.0 * q
        self.p2 = ElementarySymmetric(1)
        self.e2 = ElementarySymmetric(2)

    def levels(self, m, e):
        return self.p2.push_scaled(m * m, 2 * e), self.e2.push_scaled(m, e)

    def mean(self, n, p2, e2):
        (p, p_exponent), (e, e_exponent) = p2, e2
        top = max(p_exponent, e_exponent)  # both sums on the larger scale
        weight = 2.0 * (self.k - 1) / (n - 1.0)
        x = (math.ldexp(p, p_exponent - top) + weight * math.ldexp(e, e_exponent - top)) / (self.k * n)
        return _root(x, top, self.s)


def reference(evaluator):
    """A fresh one-term reference for an evaluator of the same kind and
    parameters."""
    if isinstance(evaluator, PowerMeanPrefix):
        return PowerMean(evaluator.p)
    if isinstance(evaluator, PairGeometricMeanPrefix):
        return PairMean()
    if isinstance(evaluator, SymmetricFunctionPrefix):
        return SymmetricFunction(evaluator.k, evaluator.s)
    if isinstance(evaluator, SecondMomentPrefix):
        return SecondMoment(evaluator.k, evaluator.q)
    raise TypeError(f"no one-term reference for {type(evaluator).__name__}")
