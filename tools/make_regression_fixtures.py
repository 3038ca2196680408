#!/usr/bin/env python3
"""Regenerate tests/regression_fixtures.py.

The partial-sum experiments only have a known limit (4), not known
finite-N values, so the finite-N regression numbers are frozen from an
independent high-precision oracle: end-to-end numpy longdouble (80-bit
extended on x86 Linux; the script refuses to run with anything narrower)
plus mpmath for the one scalar constant.  The production pipeline works in
compensated double precision, so agreement to ~1e-13 relative is expected
and the tests compare at 1e-12.

Run from the repository root:

    python tools/make_regression_fixtures.py > tests/regression_fixtures.py
"""

from __future__ import annotations

import sys

import mpmath
import numpy as np

LD = np.longdouble

SHARPNESS_CHECKPOINTS = (100, 1000, 10**4, 10**5, 10**6)

# (mean label, family label, truncation)
RATIO_CASES = [
    ("power:0.5", "powertail:2", 10**5),
    ("cmn:2,1,0", "powertail:1.5", 10**5),
    ("cmn:2,1,0", "powertail:2", 10**5),
    ("cmn:2,1,0", "powertail:3", 10**5),
    ("cmn:2,1,0", "geometric:0.3", 600),
    ("cmn:2,1,0", "geometric:0.9", 7000),
    ("cmn:2,1,0", "harmonic-truncated:10", 10**5),
    ("cmn:2,1,0", "harmonic-truncated:1000", 10**5),
    ("cmn:2,1,1", "powertail:1.1", 10**3),
    ("cmn:2,1,1", "powertail:1.1", 10**5),
    ("cmn:2,2,0", "harmonic-truncated:1000", 10**6),
    ("cmn:3,2,0", "harmonic-truncated:1000", 10**6),
    ("cmn:2,2,1", "powertail:2", 10**5),
    ("cmn:3,-2,-1", "powertail:1.7", 10**5),
]

SWEEP_MEAN = "cmn:2,1,0"
SWEEP_NS = (10**5, 10**6)


def family_terms(label: str, n: int) -> np.ndarray:
    kind, _, arg = label.partition(":")
    i = np.arange(1, n + 1, dtype=LD)
    if kind == "powertail":
        return i ** (-LD(arg))
    if kind == "geometric":
        return LD(arg) ** i
    if kind == "harmonic-truncated":
        crossover = int(arg)
        return np.where(i <= crossover, 1 / i, i**-2)
    raise ValueError(label)


def symmetric_prefix_means(terms: np.ndarray, k: int, s: float) -> np.ndarray:
    """M_{k,s,0} of every prefix, (e_k(b)/C(n,k))**(1/s) with b = terms**(s/k).

    e_j(b_1..b_i) = cumsum over i of b_i * e_{j-1}(b_1..b_{i-1}), one level
    at a time; while n <= k the mean is the geometric mean of the prefix.
    """
    n = np.arange(1, terms.size + 1, dtype=LD)
    b = terms ** (LD(s) / LD(k))
    e = np.cumsum(b)
    for _ in range(2, k + 1):
        e = np.cumsum(b * np.concatenate(([LD(0)], e[:-1])))
    binom = np.ones_like(n)
    for t in range(k):
        binom = binom * (n - t) / (t + 1)
    means = np.exp(np.cumsum(np.log(terms)) / n)
    means[k:] = (e[k:] / binom[k:]) ** (1 / LD(s))
    return means


def second_moment_prefix_means(terms: np.ndarray, k: int, q: float) -> np.ndarray:
    """M_{k,2q,q} of every prefix from the moments of a k-sample drawn
    without replacement.

    With b = terms**q, p1 = sum b and p2 = sum b**2, the mean over the
    k-subsets of (sum_S b / k)**2 is ((k-1) p1**2 + (n-k) p2) / (k n (n-1)),
    a sum of positive terms; while n <= k the mean is P_q, (p1/n)**(1/q).
    """
    n = np.arange(1, terms.size + 1, dtype=LD)
    b = terms ** LD(q)
    p1, p2 = np.cumsum(b), np.cumsum(b * b)
    means = (p1 / n) ** (1 / LD(q))
    m = n[k:]
    moments = ((k - 1) * p1[k:] ** 2 + (m - k) * p2[k:]) / (k * m * (m - 1))
    means[k:] = moments ** (1 / (2 * LD(q)))
    return means


def prefix_means(mean_label: str, terms: np.ndarray) -> np.ndarray:
    n = np.arange(1, terms.size + 1, dtype=LD)
    if mean_label == "power:0.5":
        return (np.cumsum(np.sqrt(terms)) / n) ** 2
    if mean_label == "cmn:2,1,1":  # collapses to the arithmetic mean
        return np.cumsum(terms) / n
    if mean_label == "cmn:2,1,0":
        s = np.cumsum(np.sqrt(terms))
        t = np.cumsum(terms)
        means = np.empty_like(terms)
        means[0] = terms[0]
        means[1:] = (s[1:] ** 2 - t[1:]) / (n[1:] * (n[1:] - 1))
        return means
    kind, _, arg = mean_label.partition(":")
    if kind == "cmn":
        k, s, q = arg.split(",")
        if float(q) == 0.0:
            return symmetric_prefix_means(terms, int(k), float(s))
        if float(s) == 2.0 * float(q):
            return second_moment_prefix_means(terms, int(k), float(q))
    raise ValueError(mean_label)


def ratio_fixture(mean_label: str, family_label: str, n: int) -> dict:
    terms = family_terms(family_label, n)
    means = prefix_means(mean_label, terms)
    mean_sum = np.cumsum(means)[-1]
    term_sum = np.cumsum(terms)[-1]
    return {
        "ratio": float(mean_sum / term_sum),
        "mean_sum": float(mean_sum),
        "term_sum": float(term_sum),
    }


def main() -> int:
    if np.finfo(LD).machep > -63:
        print("longdouble is not at least 80-bit here; refusing", file=sys.stderr)
        return 1

    i = np.arange(1, max(SHARPNESS_CHECKPOINTS) + 1, dtype=LD)
    s = np.cumsum(1 / np.sqrt(i))
    t = np.cumsum(1 / i)
    limit_values = {
        n: float((s[n - 1] ** 2 - t[n - 1]) / LD(n - 1)) for n in SHARPNESS_CHECKPOINTS
    }

    ratios = {case: ratio_fixture(*case) for case in RATIO_CASES}

    sweeps = {}
    for n in SWEEP_NS:
        crossovers = []
        scale = 10
        while scale < n:
            crossovers.append(scale)
            scale *= 10
        crossovers.append(n)
        sweeps[n] = {
            n0: ratio_fixture(SWEEP_MEAN, f"harmonic-truncated:{n0}", n)["ratio"]
            for n0 in crossovers
        }

    mpmath.mp.dps = 50
    p = mpmath.mpf(0.99)  # the exact double nearest 0.99, as the library sees it
    landau_099 = float((1 - p) ** (-1 / p))

    out = sys.stdout
    out.write('"""Frozen regression values.\n\n')
    out.write("Generated by tools/make_regression_fixtures.py with an independent\n")
    out.write("80-bit longdouble / mpmath oracle; do not edit by hand.\n")
    out.write('"""\n\n')
    out.write("SHARPNESS_LIMIT = {\n")
    for n, value in limit_values.items():
        out.write(f"    {n}: {value!r},\n")
    out.write("}\n\n")
    out.write("HARDY_RATIOS = {\n")
    for (mean_label, family_label, n), payload in ratios.items():
        out.write(f"    ({mean_label!r}, {family_label!r}, {n}): {payload!r},\n")
    out.write("}\n\n")
    out.write("# Hardy ratios of cmn:2,1,0 over harmonic-truncated:n0 at truncation N,\n")
    out.write("# keyed as SWEEP_RATIOS[N][n0].\n")
    out.write("SWEEP_RATIOS = {\n")
    for n, sweep in sweeps.items():
        out.write(f"    {n}: {{\n")
        for n0, value in sweep.items():
            out.write(f"        {n0}: {value!r},\n")
        out.write("    },\n")
    out.write("}\n\n")
    out.write(f"LANDAU_099 = {landau_099!r}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
