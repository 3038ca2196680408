"""Correctness checkers for the benchmark, independent of ``hardy_means``.

Nothing here imports the package under test.  Every expected value is
recomputed from the definitions in a different way than the program
computes it:

* Hardy partial sums: an 80-bit ``np.longdouble`` pipeline over whole
  arrays (cumulative sums, the pair identity, the e_k cumsum recurrence,
  the second-moment identity), the same approach as
  ``tools/make_regression_fixtures.py``.
* ``M_{k,2,1}``: the exact second-moment identity in rational arithmetic,
  k^2 M^2 = (k/n) sum a_i^2 + k(k-1)/(n(n-1)) sum_{i != j} a_i a_j.
* ``M_{k,s,0}``: the elementary symmetric polynomial e_k in 40-digit
  mpmath.
* ``classify``: the Hardy / NotHardy / Open partition restated from the
  paper.
* JSON output: re-serialised byte for byte from the documented canonical
  form (sorted keys, no spaces, '%.17g' floats, "inf"/"-inf" strings).

Every checker raises :class:`CheckError` with a message naming the
first disagreement.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from fractions import Fraction

import mpmath
import numpy as np

LD = np.longdouble

# Agreement demanded of every deterministic floating-point output.
REL_TOL = 1e-12
# A Monte Carlo estimate must lie this many jackknife standard errors from
# the exact value.
MC_SIGMAS = 4.0
# Sharp Hardy constant of M_{2,1,0} and of the power mean P_{1/2}:
# (1 - 1/2)**(-2) = 4.
HARDY_CONSTANT_4 = 4.0


class CheckError(Exception):
    """An output disagrees with its independent check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def check_close(got: float, want: float, what: str, rel: float = REL_TOL) -> None:
    want = float(want)
    gap = abs(got - want) / abs(want)
    require(gap <= rel, f"{what}: got {got!r}, oracle {want!r} (rel gap {gap:.3g} > {rel:g})")


# ---------------------------------------------------------------------------
# Canonical JSON


def reserialise(obj) -> str:
    """Canonical JSON text of a parsed document."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=True)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format(obj, ".17g")
    if isinstance(obj, dict):
        return "{" + ",".join(json.dumps(key) + ":" + reserialise(obj[key]) for key in sorted(obj)) + "}"
    if isinstance(obj, list):
        return "[" + ",".join(reserialise(item) for item in obj) + "]"
    raise CheckError(f"unexpected JSON value {obj!r}")


def parse_json_output(text: str) -> dict:
    """Parse one JSON document and require that re-serialising it
    reproduces the output byte for byte."""
    require(text.endswith("\n") and text.count("\n") == 1, "JSON output is not one line")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckError(f"output is not JSON: {exc}")
    again = reserialise(doc) + "\n"
    if again != text:
        at = next(i for i, (a, b) in enumerate(zip(again, text + "\0")) if a != b)
        raise CheckError(f"JSON output is not canonical at byte {at}: {text[max(0, at - 20):at + 20]!r}")
    return doc


def parse_csv_output(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


# ---------------------------------------------------------------------------
# Hardy partial sums in 80-bit arithmetic


def require_extended_precision() -> None:
    if np.finfo(LD).machep > -63:
        raise CheckError("np.longdouble is narrower than 80 bits here; the prefix oracle needs it")


def checkpoint_ladder(n: int) -> list[int]:
    """1, 2, 5, 10, 20, 50, ... up to n, plus n."""
    marks = {n}
    scale = 1
    while scale <= n:
        marks.update(m * scale for m in (1, 2, 5) if m * scale <= n)
        scale *= 10
    return sorted(marks)


def family_terms(label: str, n: int) -> np.ndarray:
    kind, _, arg = label.partition(":")
    i = np.arange(1, n + 1, dtype=LD)
    if kind == "powertail":
        return i ** (-LD(arg))
    if kind == "geometric":
        return LD(float(arg)) ** i
    if kind == "harmonic-truncated":
        return np.where(i <= int(arg), 1 / i, i**-2)
    raise ValueError(f"no oracle for family {label}")


def _esp_prefix_means(terms: np.ndarray, k: int, s: float) -> np.ndarray:
    """M_{k,s,0} of every prefix via e_j(b_1..b_i) = cumsum(b_i e_{j-1}(b_1..b_{i-1}))."""
    n = np.arange(1, terms.size + 1, dtype=LD)
    b = terms ** (LD(s) / LD(k))
    e = np.cumsum(b)
    for _ in range(2, k + 1):
        shifted = np.concatenate(([LD(0)], e[:-1]))
        e = np.cumsum(b * shifted)
    binom = np.ones_like(n)
    for j in range(k):
        binom = binom * (n - j) / (j + 1)
    means = np.exp(np.cumsum(np.log(terms)) / n)  # k >= n: geometric mean of the prefix
    means[k:] = (e[k:] / binom[k:]) ** (1 / LD(s))
    return means


def _second_moment_prefix_means(terms: np.ndarray, k: int) -> np.ndarray:
    """M_{k,2,1} of every prefix from the second-moment identity."""
    n = np.arange(1, terms.size + 1, dtype=LD)
    t = np.cumsum(terms)
    t2 = np.cumsum(terms * terms)
    means = t / n  # k >= n: the arithmetic mean of the prefix
    m = n[k:]
    square = (LD(k) / m * t2[k:] + LD(k * (k - 1)) / (m * (m - 1)) * (t[k:] ** 2 - t2[k:])) / LD(k * k)
    means[k:] = np.sqrt(square)
    return means


def prefix_means(mean_label: str, terms: np.ndarray) -> np.ndarray:
    kind, _, arg = mean_label.partition(":")
    n = np.arange(1, terms.size + 1, dtype=LD)
    if kind == "power":
        p = LD(arg)
        return (np.cumsum(terms**p) / n) ** (1 / p)
    k, s, q = (float(part) for part in arg.split(","))
    k = int(k)
    if (k, s, q) == (2, 1.0, 0.0):
        root_sum = np.cumsum(np.sqrt(terms))
        total = np.cumsum(terms)
        means = terms.copy()
        means[1:] = (root_sum[1:] ** 2 - total[1:]) / (n[1:] * (n[1:] - 1))
        return means
    if q == 0.0 and s != 0.0:
        return _esp_prefix_means(terms, k, s)
    if (s, q) == (2.0, 1.0):
        return _second_moment_prefix_means(terms, k)
    raise ValueError(f"no oracle for mean {mean_label}")


def hardy_rows(mean_label: str, family_label: str, n: int, marks: list[int]) -> list[tuple]:
    """(n, partial_sum, partial_norm, ratio) at each checkpoint, in longdouble."""
    require_extended_precision()
    terms = family_terms(family_label, n)
    mean_sum = np.cumsum(prefix_means(mean_label, terms))
    term_sum = np.cumsum(terms)
    return [(m, mean_sum[m - 1], term_sum[m - 1], mean_sum[m - 1] / term_sum[m - 1]) for m in marks]


def check_hardy_rows(got: list[tuple], want: list[tuple], what: str) -> None:
    require(len(got) == len(want), f"{what}: {len(got)} rows, expected {len(want)}")
    for row, oracle in zip(got, want):
        require(row[0] == oracle[0], f"{what}: checkpoint {row[0]}, expected {oracle[0]}")
        for name, value, ref in zip(("partial_sum", "partial_norm", "ratio"), row[1:], oracle[1:]):
            check_close(value, ref, f"{what} n={row[0]} {name}")


def check_ratio_below(ratios, bound: float, what: str) -> None:
    for ratio in ratios:
        require(ratio < bound, f"{what}: ratio {ratio!r} is not below the Hardy constant {bound!r}")


def power_mean_constant(p: float) -> float:
    """Sharp Hardy constant (1-p)**(-1/p) of the power mean P_p, 0 < p < 1."""
    return (1.0 - p) ** (-1.0 / p)


# ---------------------------------------------------------------------------
# One-shot means


def arithmetic_mean(values) -> float:
    return float(sum(Fraction(v) for v in values) / len(values))


def second_moment_mean(values, k: int) -> float:
    """M_{k,2,1}(values) from the identity in exact rationals; only the final
    square root is taken in floating point."""
    n = len(values)
    if k >= n:
        return arithmetic_mean(values)
    exact = [Fraction(v) for v in values]
    total = sum(exact)
    squares = sum(x * x for x in exact)
    cross = total * total - squares
    k_squared_m_squared = Fraction(k, n) * squares + Fraction(k * (k - 1), n * (n - 1)) * cross
    return math.sqrt(k_squared_m_squared / (k * k))


def symmetric_mean(values, k: int, s: float) -> float:
    """M_{k,s,0}(values) = (e_k(b) / C(n,k))**(1/s), b_i = v_i**(s/k), in 40-digit mpmath."""
    with mpmath.workdps(40):
        exponent = mpmath.mpf(s) / k
        row = [mpmath.mpf(1)] + [mpmath.mpf(0)] * k
        for v in values:
            b = mpmath.mpf(v) ** exponent
            for j in range(k, 0, -1):
                row[j] += b * row[j - 1]
        return float((row[k] / math.comb(len(values), k)) ** (1 / mpmath.mpf(s)))


def check_monte_carlo(value: float, stderr: float, exact: float) -> None:
    require(stderr > 0.0, f"Monte Carlo standard error {stderr!r} is not positive")
    distance = abs(value - exact) / stderr
    require(
        distance <= MC_SIGMAS,
        f"Monte Carlo value {value!r} lies {distance:.2f} standard errors from the exact {exact!r}",
    )


# ---------------------------------------------------------------------------
# Classification


def paper_verdict(k: int, s: float, q: float) -> str:
    """The Hardy / NotHardy / Open partition of (k, s, q).

    s < 1 is Hardy (bounded by the power mean P_s; for k = 1 the mean is
    P_s itself); otherwise k = 1 is P_s with s >= 1 and not Hardy; for
    k >= 2, q > 0 dominates the arithmetic mean (not Hardy), s = 1 with
    q <= 0 is majorised by M_{2,1,0} (Hardy, constant 4), and s > 1 with
    q <= 0 is open.
    """
    if s < 1.0:
        return "Hardy"
    if k == 1 or q > 0.0:
        return "NotHardy"
    if s == 1.0:
        return "Hardy"
    return "Open"


_POINT_LINE = re.compile(r"^k=(\d+), s=(\S+), q=(\S+): (Hardy|NotHardy|Open) \((\w+)\): .+$")


def parse_classify_plain(text: str) -> list[tuple[int, float, float, str]]:
    rows = []
    for line in text.splitlines():
        match = _POINT_LINE.match(line)
        require(match is not None, f"unexpected classify line {line!r}")
        k, s, q, verdict, _reason = match.groups()
        rows.append((int(k), float(s), float(q), verdict))
    return rows


def check_verdicts(rows, expected_points, what: str) -> None:
    require(len(rows) == len(expected_points), f"{what}: {len(rows)} rows, expected {len(expected_points)}")
    for (k, s, q, verdict), point in zip(rows, expected_points):
        require((k, s, q) == point, f"{what}: row {(k, s, q)} where {point} was expected")
        want = paper_verdict(k, s, q)
        require(verdict == want, f"{what}: k={k}, s={s}, q={q} classified {verdict}, expected {want}")
