import functools
import itertools
import math
import operator
import random
import sys
import tracemalloc
import warnings
from collections import Counter

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import log_uniform_vector
from hardy_means import (
    CapacityError,
    CmnEvalReport,
    DomainError,
    EvalMethod,
    MeanParams,
    check_k_monotonicity,
    check_qs_monotonicity,
    cmn_mean_fast,
    cmn_mean_naive,
    cmn_mean_sampled,
    power_mean,
    theorem1_identity_check,
)
from hardy_means import cmn_means, routes
from hardy_means.cmn_means import (
    _floyd_rows,
    _iter_subset_index_chunks,
    _jackknife_aggregate,
    _log_means,
    _log_power_mean_columns,
    _pows,
    _scaled_pows,
    compare_k_monotonicity,
    compare_qs_monotonicity,
    compare_theorem1_identity,
    power_mean_of_logs,
    subset_log_means,
)
from hardy_means.prefix import ElementarySymmetric
from hardy_means.routes import _elementary_symmetric, _pow_or_inf, _unscaled_elementary_symmetric, is_zero_exponent

INF = math.inf
GRID = (-INF, -2.0, -1.0, 0.0, 0.5, 1.0, 2.0, INF)


# --- independent oracles -----------------------------------------------------


def esp_bruteforce(terms, k):
    """e_k by direct enumeration of all k-products; exact reduction."""
    return math.fsum(math.prod(combo) for combo in itertools.combinations(terms, k))


def _floyd_sample(rng, n, k):
    """Uniform k-subset of range(n) in O(k) draws (Floyd's algorithm), one
    ``randrange`` per draw."""
    chosen = set()
    for j in range(n - k, n):
        t = rng.randrange(j + 1)
        chosen.add(j if t in chosen else t)
    return sorted(chosen)


def reference_log_power_mean_columns(q, log_columns):
    """The column kernel as it was before it worked in place, along axis 0
    of a C-contiguous (k, m) block or of a 1-D group: a new array for the
    shifted values and another for their exponentials."""
    k = len(log_columns)
    if q == math.inf:
        return log_columns.max(axis=0)
    if q == -math.inf:
        return log_columns.min(axis=0)
    if is_zero_exponent(q):
        return log_columns.mean(axis=0)
    z = q * log_columns
    zmax = z.max(axis=0)
    total = np.exp(z - zmax).sum(axis=0)
    return (zmax + np.log(total) - math.log(k)) / q


def reference_jackknife_aggregate(s, log_means):
    """The jackknife as it was before it worked in place: a new array for
    each step.  Where the largest weight holds more than half the rounded
    total, its leave-one-out estimate is the power mean of the others."""
    m = log_means.size
    if np.all(log_means == log_means[0]):
        return math.exp(float(log_means[0])), 0.0
    if is_zero_exponent(s):
        total = float(log_means.sum())
        value = math.exp(total / m)
        estimates = np.exp((total - log_means) / (m - 1))
    else:
        u = s * log_means
        umax = float(u.max())
        w = np.exp(u - umax)
        total = float(w.sum())
        value = math.exp((umax + math.log(total / m)) / s)
        with np.errstate(divide="ignore"):
            estimates = np.exp((umax + np.log((total - w) / (m - 1))) / s)
        if total < 2.0:
            top = int(w.argmax())
            estimates[top] = np.exp(reference_log_power_mean_columns(s, np.delete(log_means, top)))
    centered = estimates - estimates.mean()
    se = math.sqrt((m - 1) / m * float((centered * centered).sum()))
    return value, se


def cmn_bruteforce(params, v):
    """Definition transcribed literally on top of power_mean only."""
    n = len(v)
    if params.k >= n:
        return power_mean(params.q, v)
    inner = [power_mean(params.q, combo) for combo in itertools.combinations(v, params.k)]
    return power_mean(params.s, inner)


# --- elementary symmetric polynomials ----------------------------------------


def esp_value(values, k):
    """e_k of the values through the scaled kernel, as a plain float."""
    ek, exponent = _elementary_symmetric(values, k, 1.0)
    return math.ldexp(ek, exponent)


class TestElementarySymmetric:
    def test_small_exact(self):
        # e_2(1, 2, 3) = 2 + 3 + 6 = 11
        assert esp_value([1.0, 2.0, 3.0], 2) == pytest.approx(11.0, rel=1e-13)

    def test_against_bruteforce(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 11))
            k = int(rng.integers(1, n + 1))
            terms = log_uniform_vector(rng, n, decades=2.0)
            expected = esp_bruteforce(terms, k)
            got = esp_value(terms, k)
            assert got == pytest.approx(expected, rel=1e-12)

    def test_extreme_magnitudes(self):
        logs = [-600.0, -300.0, 0.0, 300.0, 600.0]
        # terms exp(logs), reached as (exp(logs/4))**4; e_2 is far past the
        # double range, dominated by the two largest: log ~ 600 + 300
        ek, exponent = _elementary_symmetric([math.exp(x / 4) for x in logs], 2, 4.0)
        got = math.log(ek) + exponent * math.log(2.0)
        assert got == pytest.approx(900.0, rel=1e-12)
        assert math.isfinite(got)

    def test_too_few_terms(self):
        with pytest.raises(DomainError):
            _elementary_symmetric([1.0], 2, 1.0)

    def test_unscaled_route_matches_extend_bit_for_bit(self, rng):
        # Dropping the level scales must not move a bit wherever the range
        # bound lets the unscaled route run; wide inputs reach the bound.
        taken = refused = 0
        for _ in range(600):
            n = int(rng.integers(1, 40))
            k = int(rng.integers(1, n + 1))
            v = log_uniform_vector(rng, n, decades=float(rng.choice([1.0, 30.0, 100.0, 300.0])))
            p = float(rng.choice([-3.0, -1.0, 0.2, 1.0, 2.5, 8.0]))
            got = _unscaled_elementary_symmetric(v, k, p)
            if got is None:
                refused += 1
                continue
            taken += 1
            ek, exponent = ElementarySymmetric(k).extend(*_scaled_pows(np.asarray(v), p))
            mantissa, shift = math.frexp(float(ek[-1]))
            assert got == (mantissa, shift + int(exponent[-1]))
        assert taken >= 200 and refused >= 100
        # e_20 of 24 entries near 2**-900 or 2**900 leaves the double range
        # unscaled (0 and nan without the bound)
        for e in (-900, 900):
            assert _unscaled_elementary_symmetric([math.ldexp(0.75, e)] * 24, 20, 1.0) is None
        # a corner of the range test at L = 1, 2*k*L + n = 300 + 600, and a
        # corner of the bound it replaced, 2*k*L + n = 20 + 880
        for n, k in [(600, 150), (880, 10)]:
            v = list(rng.uniform(0.5, 1.0, n))
            got = _unscaled_elementary_symmetric(v, k, 1.0)
            ek, exponent = ElementarySymmetric(k).extend(*_scaled_pows(np.asarray(v), 1.0))
            mantissa, shift = math.frexp(float(ek[-1]))
            assert got == (mantissa, shift + int(exponent[-1]))
        # entries at both ends of the widest range the bound admits
        for n, k in [(30, 2), (30, 5), (60, 12), (500, 2)]:
            top = (routes._UNSCALED_RANGE - n) // (2 * k) - 1
            exponents = rng.choice([-top, top - 1, 0], n)
            v = [math.ldexp(float(m), int(e)) for m, e in zip(rng.uniform(0.5, 1.0, n), exponents)]
            got = _unscaled_elementary_symmetric(v, k, 1.0)
            ek, exponent = ElementarySymmetric(k).extend(*_scaled_pows(np.asarray(v), 1.0))
            mantissa, shift = math.frexp(float(ek[-1]))
            assert got == (mantissa, shift + int(exponent[-1]))

    def test_the_bound_alone_picks_the_scalar_route(self, monkeypatch, rng):
        # The work cap and then the range test alone decide the route: each
        # admits at its limit and refuses one past it.  Past the cap the
        # scalar route takes no power at all.
        genuine, tried = routes._unscaled_elementary_symmetric, []

        def recorded(values, k, p):
            result = genuine(values, k, p)
            tried.append((len(values), k, result is not None))
            return result

        monkeypatch.setattr(routes, "_unscaled_elementary_symmetric", recorded)
        cap = routes._SCALAR_STEPS
        # powers in [0.5, 1), so L = 1: (n - k + 1) * k = cap at k = 2 and
        # k = 64; 2*k*L + min(n, k*ceil(log2 n)) = 150 + 750 = 900 at
        # n = 1024, k = 75, and 150 + 825 at n = 1025
        corners = [(cap // 2 + 1, 2), (cap // 2 + 2, 2), (cap // 64 + 63, 64), (cap // 64 + 64, 64),
                   (1024, 75), (1025, 75)]
        v = sorted(rng.uniform(0.5, 1.0, cap // 2 + 2))
        for n, k in corners:
            ek, exponent = ElementarySymmetric(k).extend(*_scaled_pows(np.asarray(v[:n]), 1.0))
            want = math.ldexp(float(ek[-1]), int(exponent[-1])).hex()
            assert math.ldexp(*_elementary_symmetric(v[:n], k, 1.0)).hex() == want
        assert (cap // 2) * 2 == (cap // 64) * 64 == cap
        assert tried == [(cap // 2 + 1, 2, True), (cap // 64 + 63, 64, True), (1024, 75, True), (1025, 75, False)]

    def test_range_test_corners(self):
        # each term of 2*k*L + min(n, k*ceil(log2 n)) <= 900 at its limit
        # and one past it: the 2*k*L term (n = 4, k = 2: 4*L + 4), the n
        # term (k = 100, L = 1: 200 + n), and the k*ceil(log2 n) term
        # (L = 1: 2*k + k*10 up to 1024 entries, 2*k + k*11 past)
        holds = routes._unscaled_range_holds
        assert routes._UNSCALED_RANGE == 900
        assert holds(4, 2, 224) and not holds(4, 2, 225)
        assert holds(700, 100, 1) and not holds(701, 100, 1)
        assert holds(1024, 75, 1) and not holds(1025, 75, 1) and not holds(1024, 76, 1)
        # the first two through the recurrence, against the vector engine
        # (the last one is in the test above): entries about 0.75 * 2**e
        # with e from -(L - 1) to L
        cases = [
            ([-223, 224, 0, 1], 2, True), ([-223, 225, 0, 1], 2, False), ([-224, 5, 0, 1], 2, False),
            ([0] * 700, 100, True), ([0] * 701, 100, False),
        ]
        for exponents, k, admitted in cases:
            v = [math.ldexp(0.75 + i / 4096 % 0.25, e) for i, e in enumerate(exponents)]
            got = _unscaled_elementary_symmetric(v, k, 1.0)
            assert (got is not None) == admitted, (len(v), k)
            if admitted:
                ek, exponent = ElementarySymmetric(k).extend(*_scaled_pows(np.asarray(v), 1.0))
                assert math.ldexp(*got).hex() == math.ldexp(float(ek[-1]), int(exponent[-1])).hex()

    @given(st.integers(1, 449).flatmap(
        lambda spread: st.integers(1, 900 // (2 * spread + 1)).flatmap(
            lambda k: st.tuples(st.integers(k, 900 - 2 * k * spread), st.just(k), st.just(spread)))))
    @example((600, 150, 1))  # the most steps the old rule admitted: 451 * 150
    @example((898, 1, 1))
    @example((4, 1, 448))
    def test_every_input_the_old_rule_admitted_is_admitted(self, case):
        # the old rule: at most 900 entries and 2*k*L + n <= 900
        n, k, spread = case
        assert n <= 900 and 2 * k * spread + n <= 900
        assert (n - k + 1) * k <= routes._SCALAR_STEPS
        assert routes._unscaled_range_holds(n, k, spread)

    def test_scalar_route_past_900_entries_matches_the_vector_engine(self):
        # seeded draws across the region the range test opened: n from 50
        # to 4000, k up to 120, entries spread over 0.5 to 100 decades
        draws = random.Random(30)
        taken = long = 0
        for _ in range(80):
            n = int(math.exp(draws.uniform(math.log(50), math.log(4000))))
            k = min(int(math.exp(draws.uniform(math.log(2), math.log(121)))), n - 1)
            if (n - k + 1) * k > routes._SCALAR_STEPS:
                continue
            decades = draws.choice([0.5, 3.0, 30.0, 100.0])
            v = sorted(10.0 ** draws.uniform(-decades, decades) for _ in range(n))
            p = draws.choice([-2.0, -1.0, 1.0, 2.0, 3.0]) / k
            got = _unscaled_elementary_symmetric(v, k, p)
            if got is None:
                continue
            taken += 1
            long += n > 900
            ek, exponent = ElementarySymmetric(k).extend(*_scaled_pows(np.asarray(v), p))
            assert math.ldexp(*got).hex() == math.ldexp(float(ek[-1]), int(exponent[-1])).hex(), (n, k, p)
        assert taken >= 20 and long >= 10


# --- naive evaluator ----------------------------------------------------------


class TestNaive:
    def test_hand_enumeration(self):
        # subsets of (1,4,9) at q=0: sqrt(1*4)=2, sqrt(1*9)=3, sqrt(4*9)=6
        value = cmn_mean_naive(MeanParams(2, 1.0, 0.0), (1, 4, 9))
        assert value == pytest.approx(11 / 3, rel=1e-13)

    def test_degenerate_branch(self):
        value = cmn_mean_naive(MeanParams(5, 7.0, 2.0), (1, 2, 3))
        assert value == power_mean(2, (1, 2, 3))
        assert value == pytest.approx(math.sqrt(14 / 3), rel=1e-14)

    def test_constant_vector(self, rng):
        for k, s, q in [(1, 2.0, -1.0), (2, 0.0, 0.0), (3, -INF, INF)]:
            assert cmn_mean_naive(MeanParams(k, s, q), [2.5] * 6) == pytest.approx(2.5, rel=1e-14)

    def test_matches_definition_bruteforce(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 9))
            v = log_uniform_vector(rng, n, decades=2.0)
            k = int(rng.integers(1, n + 1))
            s = float(rng.choice(GRID))
            q = float(rng.choice(GRID))
            params = MeanParams(k, s, q)
            assert cmn_mean_naive(params, v) == pytest.approx(cmn_bruteforce(params, v), rel=1e-11)

    def test_budget_refusals(self):
        with pytest.raises(CapacityError):
            cmn_mean_naive(MeanParams(2, 1.0, 2.0), list(range(1, 32)))  # n = 31 > 30
        with pytest.raises(CapacityError):
            cmn_mean_naive(MeanParams(14, 1.0, 2.0), list(range(1, 29)))  # C(28,14) > 2**22

    def test_permutation_invariance_bitwise(self, rng):
        v = log_uniform_vector(rng, 8)
        params = MeanParams(3, 2.0, -1.0)
        reference = cmn_mean_naive(params, v)
        for _ in range(5):
            rng.shuffle(v)
            assert cmn_mean_naive(params, v) == reference


# --- fast evaluator -----------------------------------------------------------

# (n, k, s, q) at which the e_k route refuses n copies of the largest double:
# its result rounds past the double range on the way (ROADMAP item 11)
REFUSED_AT_THE_LARGEST_DOUBLE = {
    (n, k, s, 0.0) for n, k, s in itertools.chain(
        itertools.product((3, 5), (2,), (-2.0, -1.0, 0.5)), itertools.product((5,), (4,), (-2.0, -1.0, 0.5, 1.0))
    )
}


class TestFast:
    def test_symmetric_path_matches_hand_value(self):
        report = cmn_mean_fast(MeanParams(2, 1.0, 0.0), (1, 4, 9))
        assert report.method is EvalMethod.FAST_SYMMETRIC
        assert report.value == pytest.approx(11 / 3, rel=1e-12)

    def test_outer_inner_collapse(self, rng):
        v = log_uniform_vector(rng, 7)
        report = cmn_mean_fast(MeanParams(3, 4.0, 4.0), v)
        assert report.method is EvalMethod.DEGENERATE
        assert report.value == power_mean(4, v)

    def test_geometric_of_geometric(self):
        report = cmn_mean_fast(MeanParams(2, 0.0, 0.0), (1, 4, 16))
        assert report.method is EvalMethod.DEGENERATE
        assert report.value == pytest.approx(4.0, rel=1e-13)
        assert report.value == pytest.approx(cmn_mean_naive(MeanParams(2, 0.0, 0.0), (1, 4, 16)), rel=1e-12)

    def test_k_at_least_n(self, rng):
        v = log_uniform_vector(rng, 4)
        report = cmn_mean_fast(MeanParams(9, 2.0, 0.5), v)
        assert report.method is EvalMethod.DEGENERATE
        assert report.value == power_mean(0.5, v)

    def test_negative_outer_exponent_symmetric_path(self, rng):
        v = log_uniform_vector(rng, 8)
        params = MeanParams(3, -2.5, 0.0)
        report = cmn_mean_fast(params, v)
        assert report.method is EvalMethod.FAST_SYMMETRIC
        assert report.value == pytest.approx(cmn_mean_naive(params, v), rel=1e-10)

    @pytest.mark.parametrize(
        "k,s,scale",
        [
            (60, 60.0, 1e5),  # e_60 ~ C(300,60) * 1e300: past the double range
            (2, 2.0, 1e200),  # e_2 and M**s ~ 1e400
            (5, -3.0, 1e-250),  # b = a**-0.6 ~ 1e150: e_5 and M**s ~ 1e750
        ],
    )
    def test_symmetric_path_past_the_double_range(self, rng, k, s, scale):
        v = [scale * x for x in log_uniform_vector(rng, 300, decades=1.0)]
        with mpmath.workdps(40):
            e = [mpmath.mpf(1)] + [mpmath.mpf(0)] * k
            for x in v:
                b = mpmath.mpf(x) ** mpmath.mpf(s / k)  # the exponent the kernel is given
                for j in range(k, 0, -1):
                    e[j] += b * e[j - 1]
            ek, exponent = _elementary_symmetric(v, k, s / k)
            assert float(mpmath.mpf(ek) * mpmath.mpf(2) ** exponent / e[k]) == pytest.approx(1.0, rel=1e-12)
            want = float((e[k] / mpmath.binomial(len(v), k)) ** (1 / mpmath.mpf(s)))
        report = cmn_mean_fast(MeanParams(k, s, 0.0), v)
        assert report.method is EvalMethod.FAST_SYMMETRIC
        assert report.value == pytest.approx(want, rel=1e-12)

    def test_infinite_outer_routes_to_exact(self, rng):
        v = log_uniform_vector(rng, 6)
        report = cmn_mean_fast(MeanParams(2, INF, 0.0), v)
        assert report.method is EvalMethod.EXACT
        assert report.value == cmn_mean_naive(MeanParams(2, INF, 0.0), v)

    def test_capacity_error_propagates(self):
        with pytest.raises(CapacityError):
            cmn_mean_fast(MeanParams(2, 2.0, 1.0), list(range(1, 40)))

    def test_oracle_equivalence_sample(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 10))
            v = log_uniform_vector(rng, n)
            k = int(rng.integers(1, n + 1))
            s = float(rng.choice(GRID))
            q = float(rng.choice(GRID))
            params = MeanParams(k, s, q)
            assert cmn_mean_fast(params, v).value == pytest.approx(
                cmn_mean_naive(params, v), rel=1e-10
            )

    def test_internality_and_homogeneity(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 9))
            v = log_uniform_vector(rng, n)
            params = MeanParams(int(rng.integers(1, n)), float(rng.choice(GRID)), float(rng.choice(GRID)))
            value = cmn_mean_fast(params, v).value
            assert min(v) * (1 - 1e-12) <= value <= max(v) * (1 + 1e-12)
            c = float(rng.uniform(0.1, 10.0))
            assert cmn_mean_fast(params, [c * x for x in v]).value == pytest.approx(c * value, rel=1e-12)

    def test_every_route_stays_in_the_hull(self, rng):
        # entries over 1e-300 .. 1e300 through every route of the dispatch
        routes_seen = set()
        for _ in range(300):
            n = int(rng.integers(2, 9))
            decades = float(rng.choice([1.0, 30.0, 300.0]))
            v = log_uniform_vector(rng, n, decades=decades)
            params = MeanParams(int(rng.integers(1, n + 1)), float(rng.choice(GRID)), float(rng.choice(GRID)))
            report = cmn_mean_fast(params, v)
            routes_seen.add(report.method)
            assert min(v) <= report.value <= max(v), (params, v)
        assert routes_seen == {EvalMethod.DEGENERATE, EvalMethod.FAST_SYMMETRIC, EvalMethod.EXACT}

    @pytest.mark.parametrize(
        "c", [sys.float_info.max, 1e300, 1.0000000000000002, 0.9999999999999999, 1e-300, sys.float_info.min, 5e-324]
    )
    def test_constant_vectors_at_the_edges_keep_their_entry(self, c):
        # the e_k route at (2, -1, 0) returned 1.0 on 0.9999999999999999, and
        # Exact at (2, 2, 1) 1.7976931348622732e+308 on the largest double
        for n in (3, 5):
            for k in range(1, n):
                for s, q in itertools.product(GRID, GRID):
                    params = MeanParams(k, s, q)
                    if c == sys.float_info.max and (n, k, s, q) in REFUSED_AT_THE_LARGEST_DOUBLE:
                        with pytest.raises(DomainError, match="left the double range"):
                            cmn_mean_fast(params, [c] * n)
                        continue
                    assert cmn_mean_fast(params, [c] * n).value == c, params

    def test_powers_that_underflow_take_the_vector_engine(self):
        # 1e-300**2 underflows to 0.0, which passes the range test (frexp(0.0)
        # has exponent 0): the scalar e_k route must refuse it by its check
        # of normal powers, or e_2 reads 0 and the mean is refused
        v = [1e-300, 1e-300, 1.0]
        report = cmn_mean_fast(MeanParams(2, 4.0, 0.0), v)
        assert report.method is EvalMethod.FAST_SYMMETRIC
        ek, exponent = ElementarySymmetric(2).extend(*_scaled_pows(np.asarray(v), 2.0))
        want = routes._symmetric_mean(float(ek[-1]), int(exponent[-1]), 3, 2, 4.0)
        assert report.value.hex() == want.hex()
        assert repr(report.value) == "9.036020036098449e-151"

    @pytest.mark.parametrize("lost, message", [(0.0, "must be positive"), (INF, "left the double range")])
    def test_a_result_lost_to_the_double_range_is_refused_not_clamped(self, monkeypatch, lost, message):
        # the clamp to [min v, max v] leaves 0 and inf to the report, which
        # refuses them; clamped, they would read min v and max v
        monkeypatch.setattr(routes, "power_mean", lambda p, values: lost)
        with pytest.raises(DomainError, match=message):
            cmn_mean_fast(MeanParams(1, 2.0, 1.0), [1.0, 2.0, 3.0])


# --- Monte Carlo sampler -------------------------------------------------------


class TestSampled:
    def test_three_sigma_of_hand_value(self):
        report = cmn_mean_sampled(MeanParams(2, 1.0, 0.0), (1, 4, 9), 10**5, seed=7)
        assert report.method is EvalMethod.MONTE_CARLO
        assert report.samples == 10**5
        assert abs(report.value - 11 / 3) <= 3 * report.stderr_estimate

    def test_three_sigma_of_naive(self, rng):
        v = log_uniform_vector(rng, 10, decades=1.0)
        params = MeanParams(2, 1.0, 1.0)
        report = cmn_mean_sampled(params, v, 10**5, seed=7)
        assert abs(report.value - cmn_mean_naive(params, v)) <= 3 * report.stderr_estimate

    def test_constant_vector_exact(self):
        report = cmn_mean_sampled(MeanParams(3, 2.0, -1.0), [4.2] * 9, 500, seed=1)
        assert report.value == 4.2
        assert report.stderr_estimate == 0.0

    def test_deterministic_for_seed(self, rng):
        v = log_uniform_vector(rng, 9)
        params = MeanParams(3, 0.5, -1.0)
        first = cmn_mean_sampled(params, v, 2000, seed=11)
        second = cmn_mean_sampled(params, v, 2000, seed=11)
        assert first == second
        third = cmn_mean_sampled(params, v, 2000, seed=12)
        assert third.value != first.value

    def test_sorted_input_invariance(self, rng):
        v = log_uniform_vector(rng, 8)
        params = MeanParams(2, 1.0, 0.0)
        reference = cmn_mean_sampled(params, sorted(v), 1000, seed=3)
        rng.shuffle(v)
        assert cmn_mean_sampled(params, v, 1000, seed=3) == reference

    def test_infinite_outer_exponent_flagged(self, rng):
        v = log_uniform_vector(rng, 8, decades=1.0)
        params = MeanParams(3, INF, 1.0)
        report = cmn_mean_sampled(params, v, 10**4, seed=2)
        assert report.stderr_estimate == 0.0
        assert report.note is not None
        # 1e4 draws over C(8,3) = 56 subsets hit every subset almost surely
        assert report.value == pytest.approx(cmn_mean_naive(params, v), rel=1e-12)

    def test_preconditions(self):
        with pytest.raises(DomainError):
            cmn_mean_sampled(MeanParams(2, 1.0, 0.0), (1, 2, 3), 99, seed=0)
        with pytest.raises(DomainError):
            cmn_mean_sampled(MeanParams(3, 1.0, 0.0), (1, 2, 3), 1000, seed=0)

    def test_floyd_uniformity(self):
        r = random.Random(0)
        counts = Counter(tuple(_floyd_sample(r, 5, 2)) for _ in range(20000))
        assert len(counts) == 10
        for frequency in counts.values():
            assert 1600 <= frequency <= 2400

    @pytest.mark.parametrize(
        "n,k,size",
        [
            (n, k, size)
            for n, k in [(5, 2), (12, 4), (9, 8), (33, 3), (50, 40), (2000, 5), (1030, 10), (70000, 3)]
            for size in (1, 17, 8192)
        ]
        + [(2000, 1000, 512)],
    )
    def test_block_draws_match_floyd_sample(self, n, k, size):
        # In (33, 3) the bounds 31..33 straddle 2**5, so about half the
        # draws are retried; in (1030, 10) the bounds 1021..1030 straddle
        # 2**10, so the columns shift their words by 22 and 21 bits.  (70000,
        # 3) draws 17-bit words, and in (2000, 1000) most rows collide.
        block, reference = random.Random(n * k + size), random.Random(n * k + size)
        rows = _floyd_rows(block, n, k, size)
        assert rows.tolist() == [_floyd_sample(reference, n, k) for _ in range(size)]
        assert block.getstate() == reference.getstate()

    def test_block_draw_memory(self):
        # Words are drawn, and collisions resolved, a chunk at a time, so a
        # large k holds few temporaries at once: about 7 MiB here, of which
        # the rows take 3.9 MiB.
        tracemalloc.start()
        try:
            rows = _floyd_rows(random.Random(5), 2000, 1000, 512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rows.nbytes + 4 * 2**20

    def test_pinned_multi_block_value(self):
        # 20000 draws come in three blocks (8192, 8192 and 3616), each from
        # its own seeded stream; value and stderr are pinned bit for bit.
        assert -(-20000 // cmn_means._SAMPLE_BLOCK) == 3
        v = [1.0 + (i * 7919 % 97) / 10 for i in range(60)]
        report = cmn_mean_sampled(MeanParams(4, 1.5, -0.5), v, 20000, seed=2026)
        assert report.value.hex() == "0x1.3c2e5aa949fd4p+2"
        assert report.stderr_estimate.hex() == "0x1.76c639c09e64ap-7"

    def test_draws_are_uniform_over_all_subsets(self, monkeypatch):
        # Exact chi-square over all C(8,3) = 56 subsets, 300 expected draws
        # each, across three sample blocks.  With entries e**i the sampled
        # log-columns are the index columns.  The threshold, the 0.999
        # quantile of chi-square with 55 degrees of freedom (93.17), was
        # fixed before the test first ran.
        drawn = []
        genuine = cmn_means._log_power_mean_columns

        def record(q, log_columns, overwrite=False):
            drawn.extend(map(tuple, np.rint(log_columns.T).astype(int).tolist()))
            return genuine(q, log_columns, overwrite)

        monkeypatch.setattr(cmn_means, "_log_power_mean_columns", record)
        cmn_mean_sampled(MeanParams(3, 1.0, 0.0), [math.exp(i) for i in range(8)], 56 * 300, seed=1)
        counts = Counter(drawn)
        assert set(counts) == set(itertools.combinations(range(8), 3))
        chi_square = sum((counts[c] - 300) ** 2 / 300 for c in counts)
        assert chi_square < 93.17

    @pytest.mark.parametrize("k, q", [(8, 1.0), (9, 0.0), (11, -2.0), (13, 0.5)])
    def test_draws_take_the_exact_routes_bytes(self, k, q):
        # Each draw's log-mean is its subset's log-mean from the Exact
        # route's index chunks, byte for byte.  The sampler's index blocks
        # are column-major views; a gather that kept their order
        # (logs[rows.T]) would hand numpy an F-ordered block, whose columns
        # it sums pairwise, and move bits from k = 8 on.
        n, samples = 16, 3000
        draw = random.Random(k)
        logs = np.log(np.sort([10.0 ** draw.uniform(-3.0, 3.0) for _ in range(n)]))
        chunks = list(_iter_subset_index_chunks(n, k, cmn_means._CHUNK_COLUMNS))
        exact = _log_means(logs, q, iter(chunks), math.comb(n, k))
        by_subset = dict(zip(map(tuple, np.hstack(chunks).T.tolist()), exact.tolist()))
        blocks = list(cmn_means._sample_index_blocks(n, k, samples, seed=k))
        assert not blocks[0].flags.c_contiguous
        drawn = _log_means(logs, q, iter(blocks), samples)
        subsets = map(tuple, np.hstack(blocks).T.tolist())
        assert [by_subset[s].hex() for s in subsets] == [x.hex() for x in drawn.tolist()]


# --- report invariants ----------------------------------------------------------


class TestPows:
    """``_pows`` must give the C library's bits, as ``math.pow`` does.  Any
    warning fails, so a numpy that vectorised ``float_power`` shows here
    instead of quietly moving outputs."""

    @staticmethod
    def check(bases, p):
        bases = np.asarray(bases, dtype=np.float64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _pows(bases, p).tolist()
        want = [_pow_or_inf(a, p) for a in bases.tolist()]
        assert [x.hex() for x in got] == [x.hex() for x in want]
        return got

    @pytest.mark.parametrize("p", [-2.0, -1.7])
    def test_index_powers(self, p):
        self.check(np.arange(1, 2 * 10**5 + 1), p)

    def test_random_pairs(self):
        # 10^5 pairs: 1000 exponents, |p| in [1e-3, 1e3], each on 100 bases in [1e-300, 1e300]
        rng = np.random.default_rng(20130427)
        exponents = rng.choice([-1.0, 1.0], 1000) * 10.0 ** rng.uniform(-3.0, 3.0, 1000)
        for p in exponents.tolist():
            self.check(10.0 ** rng.uniform(-300.0, 300.0, 100), p)

    def test_range_edges(self):
        assert self.check([3.0, 1e300], 1000.0) == [math.inf, math.inf]
        assert self.check([2.0], -1074.0) == [5e-324]  # the least subnormal
        assert 0.0 < self.check([2.0], -1060.5)[0] < 2.0**-1022  # a subnormal
        assert self.check([1e-300], 4.0 / 3.0) == [0.0]  # underflow to zero


class TestReport:
    def test_stderr_requires_monte_carlo(self):
        with pytest.raises(DomainError):
            CmnEvalReport(1.0, EvalMethod.EXACT, samples=10, stderr_estimate=0.1)
        with pytest.raises(DomainError):
            CmnEvalReport(1.0, EvalMethod.MONTE_CARLO)

    def test_value_positive(self):
        with pytest.raises(DomainError):
            CmnEvalReport(0.0, EvalMethod.EXACT)

    def test_params_validation(self):
        with pytest.raises(DomainError):
            MeanParams(0, 1.0, 0.0)
        with pytest.raises(DomainError):
            MeanParams(2, math.nan, 0.0)
        with pytest.raises(DomainError):
            MeanParams(2.5, 1.0, 0.0)


# --- comparison inequalities -----------------------------------------------------


class TestMonotonicityChecks:
    def test_hand_example(self):
        assert check_qs_monotonicity(2, 0.0, 1.0, 0.0, 0.0, (1, 4, 9)) is True
        # M_{2,0,0}(1,4,9) = P_0 = 36**(1/3) <= M_{2,1,0}(1,4,9) = 11/3
        ok, lhs, rhs = compare_qs_monotonicity(2, 0.0, 1.0, 0.0, 0.0, (1, 4, 9))
        assert ok is True
        assert lhs == pytest.approx(36 ** (1 / 3), rel=1e-13)
        assert rhs == pytest.approx(11 / 3, rel=1e-13)

    def test_equal_parameters(self, rng):
        v = log_uniform_vector(rng, 6)
        assert check_qs_monotonicity(2, 1.0, 1.0, 0.5, 0.5, v) is True

    def test_precondition(self):
        with pytest.raises(DomainError):
            check_qs_monotonicity(2, 2.0, 1.0, 0.0, 0.0, (1, 2, 3))
        with pytest.raises(DomainError):
            check_qs_monotonicity(2, 0.0, 1.0, 1.0, 0.0, (1, 2, 3))

    def test_random_sweep(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 9))
            v = log_uniform_vector(rng, n)
            k = int(rng.integers(1, n + 1))
            s, t = sorted(rng.choice(GRID, 2))
            q, p = sorted(rng.choice(GRID, 2))
            assert check_qs_monotonicity(k, float(s), float(t), float(q), float(p), v) is True

    def test_k_hand_example(self):
        # M_{2,1,0}(1,4,9) = 11/3 <= M_{1,1,0}(1,4,9) = P_1 = 14/3
        assert check_k_monotonicity(2, 1.0, 0.0, (1, 4, 9)) is True
        ok, lhs, rhs = compare_k_monotonicity(2, 1.0, 0.0, (1, 4, 9))
        assert ok is True
        assert lhs == pytest.approx(11 / 3, rel=1e-13)
        assert rhs == pytest.approx(14 / 3, rel=1e-13)
        assert cmn_mean_fast(MeanParams(1, 1.0, 0.0), (1, 4, 9)).value == pytest.approx(14 / 3, rel=1e-13)

    def test_k_equals_n(self, rng):
        v = log_uniform_vector(rng, 5)
        assert check_k_monotonicity(5, 2.0, 0.0, v) is True

    def test_k_constant_vector(self):
        assert check_k_monotonicity(3, 1.0, 0.0, [2.0] * 6) is True

    def test_k_preconditions(self):
        with pytest.raises(DomainError):
            check_k_monotonicity(2, 0.0, 1.0, (1, 2, 3))  # s <= q
        with pytest.raises(DomainError):
            check_k_monotonicity(1, 1.0, 0.0, (1, 2, 3))  # k < 2
        with pytest.raises(DomainError):
            check_k_monotonicity(4, 1.0, 0.0, (1, 2, 3))  # k > n

    def test_k_random_sweep(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 9))
            v = log_uniform_vector(rng, n)
            k = int(rng.integers(2, n + 1))
            while True:
                s, q = rng.choice(GRID, 2)
                if s > q:
                    break
            assert check_k_monotonicity(k, float(s), float(q), v) is True


class TestTheorem1Identity:
    def test_hand_example(self):
        # lhs = 11/3, rhs = (3/2) * (4 - 14/9)
        assert theorem1_identity_check((1, 4, 9)) is True

    def test_constant(self):
        assert theorem1_identity_check([3.3] * 7) is True

    def test_needs_two_entries(self):
        with pytest.raises(DomainError):
            theorem1_identity_check((1.0,))

    def test_random_sweep(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 51))
            assert theorem1_identity_check(log_uniform_vector(rng, n)) is True

    def test_compare_reports_the_gap(self, rng):
        v = log_uniform_vector(rng, 12)
        ok, gap = compare_theorem1_identity(v)
        lhs = cmn_mean_fast(MeanParams(2, 1.0, 0.0), v).value
        rhs = 12 / 11 * (power_mean(0.5, v) - power_mean(1.0, v) / 12)
        assert ok is True
        assert gap == abs(lhs - rhs) / lhs <= 1e-11

    def test_strict_majorization_when_not_constant(self, rng):
        for _ in range(50):
            v = log_uniform_vector(rng, int(rng.integers(2, 20)))
            lhs = cmn_mean_fast(MeanParams(2, 1.0, 0.0), v).value
            assert lhs < power_mean(0.5, v)


# --- power mean of logs -------------------------------------------------------------


class TestPowerMeanOfLogs:
    def test_preconditions(self):
        with pytest.raises(DomainError):
            power_mean_of_logs(1.0, [])
        with pytest.raises(DomainError):
            power_mean_of_logs(math.nan, [0.0, 1.0])

    def test_extremes_and_geometric(self):
        logs = np.array([-3.5, 0.25, 2.0, 7.0])
        assert power_mean_of_logs(INF, logs) == math.exp(7.0)
        assert power_mean_of_logs(-INF, logs) == math.exp(-3.5)
        for s in (0.0, 1e-13, -5e-13):
            assert power_mean_of_logs(s, logs) == float(np.exp(logs.mean()))

    def test_agrees_with_power_mean(self, rng):
        for _ in range(2000):
            logs = rng.uniform(-690.0, 690.0, int(rng.integers(1, 40))) * rng.choice([1.0, 0.1, 1e-3])
            s = float(rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-2.0, 3.0))
            assert power_mean_of_logs(s, logs) == pytest.approx(power_mean(s, np.exp(logs)), rel=1e-12)


# --- collapse identities ----------------------------------------------------------


@pytest.mark.parametrize("s", [-INF, -1.0, 0.0, 0.5, 2.0, INF])
def test_collapse_equals_power_mean(rng, s):
    v = log_uniform_vector(rng, 9)
    for k in (2, 4, 8):
        collapsed = cmn_mean_fast(MeanParams(k, s, s), v).value
        assert collapsed == power_mean(s, v)
        assert cmn_mean_naive(MeanParams(k, s, s), v) == pytest.approx(collapsed, rel=1e-12)


def test_subset_log_means_budget():
    with pytest.raises(CapacityError):
        subset_log_means(list(range(1, 32)), 2, 0.0)


@pytest.mark.parametrize("tail_elements", [1, 24, cmn_means._TAIL_ELEMENTS])
def test_subset_chunks_are_lexicographic(monkeypatch, tail_elements):
    # Small table caps force many heads and narrow tails.
    monkeypatch.setattr(cmn_means, "_TAIL_ELEMENTS", tail_elements)
    for n in range(2, 13):
        for k in range(1, n):
            want = [list(c) for c in itertools.combinations(range(n), k)]
            for chunk_columns in (1, 7, 65536):
                chunks = list(_iter_subset_index_chunks(n, k, chunk_columns))
                assert all(c.shape == (k, chunk_columns) for c in chunks[:-1])
                assert len(chunks[-1]) == k and 1 <= chunks[-1].shape[1] <= chunk_columns
                assert all(c.flags.c_contiguous for c in chunks)
                assert np.hstack(chunks).T.tolist() == want


def test_naive_does_not_depend_on_chunk_size(rng, monkeypatch):
    v = log_uniform_vector(rng, 24)
    params = MeanParams(7, 2.0, -1.0)  # C(24,7) = 346104 spans several chunks
    values = set()
    for chunk_columns in (1, 7, 65536):
        monkeypatch.setattr(cmn_means, "_CHUNK_COLUMNS", chunk_columns)
        values.add(cmn_mean_naive(params, v).hex())
    assert len(values) == 1


def traced_peak(fn):
    """(fn(), the peak of memory traced while it ran)."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_enumeration_memory(rng):
    # The result, 5.4 MiB, plus one chunk's temporaries and the tail table:
    # about 7.5 MiB.  Concatenating a list of blocks read 10.8 MiB, and a
    # kernel with its own work array 8.2 MiB.
    v = log_uniform_vector(rng, 22)
    logs, peak = traced_peak(lambda: subset_log_means(v, 11, 1.0))  # C(22,11) = 705432 subsets
    assert logs.size == 705432
    assert peak < logs.nbytes + 3 * 2**20


def test_naive_memory(rng):
    # The subset log-means stream into the outer mean, so only one chunk's
    # temporaries and the tail table are alive: about 2.7 MiB.  Holding the
    # 5.4 MiB of log-means read 7.5 MiB, an outer work array as well 10.8
    # MiB, and four copies at once 21.5 MiB.
    v = log_uniform_vector(rng, 22)
    value, peak = traced_peak(lambda: cmn_mean_naive(MeanParams(11, 2.0, 1.0), v))
    assert math.isfinite(value)
    assert peak < 3 * 2**20


@pytest.mark.parametrize("s", [2.0, 0.0, -1.0])
def test_jackknife_memory(s):
    # One work array the size of the input: about 7.6 MiB over 10**6
    # log-means.  A new array per step read 38.1 MiB (s = 2) and 22.9 MiB
    # (s = 0).
    log_means = np.random.default_rng(3).uniform(-3.0, 3.0, 10**6)
    _, peak = traced_peak(lambda: _jackknife_aggregate(s, log_means))
    assert peak < log_means.nbytes + 2**20


@pytest.mark.parametrize(
    "s, top, value, se",
    [
        (2.0, 10.0, "0x1.6c72d5309bc09p+4", "0x1.0f9a19610de07p+4"),
        (-1.0, -20.0, "0x1.0c50c3ed6e3dcp-9", "0x1.3101f7f4b2dcap-2"),
    ],
)
def test_jackknife_dominant_draw_memory(s, top, value, se):
    # The weight of draw 17 is 1.0 and the rounded total 1.07 (s = 2) or
    # 1.007 (s = -1), so its leave-one-out estimate is the power mean of the
    # others, taken in place on a copy without it: two arrays the size of
    # the input, about 15.3 MiB.  A work array for that mean as well read
    # 22.9 MiB.
    log_means = np.random.default_rng(3).uniform(-3.0, 3.0, 10**6)
    log_means[17] = top
    got, peak = traced_peak(lambda: _jackknife_aggregate(s, log_means))
    assert (got[0].hex(), got[1].hex()) == (value, se)
    assert peak < 2 * log_means.nbytes + 2**20


# --- the in-place kernels against the allocating ones, bit for bit ----------------


def as_bytes(values):
    return np.asarray(values, dtype=np.float64).tobytes()


EXPONENTS = (*GRID, 1e-13, -1e-13, 3.7, -0.3)


@pytest.mark.parametrize("k", range(1, 30))
def test_row_kernel_matches_reference_bytes(k):
    # tobytes also tells -0.0 from 0.0: subsets of ones have log-means of +-0
    rng = np.random.default_rng(k)
    columns = rng.uniform(-5.0, 5.0, (k, 257))
    columns[:, ::5] = 0.0  # entries 1
    columns[: (k + 1) // 2, 1::7] = 0.0
    columns[:, 2::11] *= 100.0
    before = columns.tobytes()
    for q in EXPONENTS:
        want = as_bytes(reference_log_power_mean_columns(q, columns))
        assert as_bytes(_log_power_mean_columns(q, columns)) == want
        assert as_bytes(_log_power_mean_columns(q, columns.copy(), overwrite=True)) == want
    assert columns.tobytes() == before


def last_max(column):
    """The max of a list, the last of tied entries: of +0.0 and -0.0
    whichever comes later."""
    return max(reversed(column))  # max keeps the first of ties


def last_min(column):
    return min(reversed(column))


def ordered_sum(column):
    """The entries of a list added in order from +0.0."""
    return functools.reduce(operator.add, column, 0.0)


def as_columns(block):
    """The columns of a 2-D array as lists."""
    return block.T.copy().tolist()


def column_parts(q, block):
    """The parts (c, t) of log P_q of each column of ``block`` in plain
    Python, 256 columns at a time.  For a finite nonzero q, c is the max of
    q*x and t the sum of exp(q*x - c), the two elementwise steps taken by
    numpy on a new array."""
    c, t = [], []
    for start in range(0, block.shape[1], 256):
        part = block[:, start : start + 256]
        if q == math.inf:
            c += map(last_max, as_columns(part))
        elif q == -math.inf:
            c += map(last_min, as_columns(part))
        elif is_zero_exponent(q):
            c += map(ordered_sum, as_columns(part))
        else:
            z = q * part
            shift = list(map(last_max, as_columns(z)))
            c += shift
            t += map(ordered_sum, as_columns(np.exp(z - np.array(shift))))
    return c, t or None


@pytest.mark.parametrize("m", [1, 63, 1024, 8192])
@pytest.mark.parametrize("k", [*range(1, 31), 1000])
def test_column_kernel_matches_plain_python(k, m):
    # A column's parts must not depend on the block around it, so numpy
    # must reduce a (k, m) block one row after another at every shape: a
    # lone column, which numpy would sum pairwise as one run, included.
    rng = np.random.default_rng(k * 10000 + m)
    block = rng.uniform(-5.0, 5.0, (k, m)) * rng.choice([1.0, 1e-9, 30.0], (k, m))
    block[:, ::3] = rng.choice([0.0, -0.0], (k, block[:, ::3].shape[1]))  # ties of signed zeros
    block[: (k + 1) // 2, 1::5] = -0.0
    def parts_bytes(parts):
        return [None if x is None else as_bytes(x) for x in parts]

    before = block.tobytes()
    for q in (INF, -INF, 0.0, -0.3):
        want = parts_bytes(column_parts(q, block))
        assert parts_bytes(cmn_means._power_sums(q, block)) == want, q
        assert parts_bytes(cmn_means._power_sums(q, block.copy(), overwrite=True)) == want, q
    assert block.tobytes() == before


# one exponent per branch of the column kernel
KERNEL_BRANCHES = (INF, -INF, 0.0, 1e-13, 2.0, -0.3)


@pytest.mark.parametrize("k", range(1, 131))
def test_folded_kernel_matches_numpy_bytes(k):
    # numpy folds a C-contiguous (k, m) block one row after another, and
    # the kernel must give numpy's own axis-0 reductions byte for byte, for
    # every height up to the 128 entries of numpy's pairwise leaf.  Each
    # column must also read the same alone, in 63 columns and in 64: a lone
    # column, which numpy would sum pairwise as one run, fails here from
    # k = 8 on if the kernel hands it to numpy as it is.
    rng = np.random.default_rng(1000 + k)
    block = rng.uniform(-5.0, 5.0, (k, 64)) * rng.choice([1.0, 1e-9, 30.0], (k, 64))
    block[:, ::5] = 0.0  # entries 1
    block[: (k + 1) // 2, 1::7] = 0.0
    block[::2, 2::9] = -0.0
    before = block.tobytes()
    assert as_bytes(cmn_means._power_sums(0.0, block)[0]) == as_bytes(block.sum(axis=0))
    for q in KERNEL_BRANCHES:
        want = as_bytes(reference_log_power_mean_columns(q, block))
        assert as_bytes(_log_power_mean_columns(q, block)) == want, q
        assert as_bytes(_log_power_mean_columns(q, block.copy(), overwrite=True)) == want, q
        narrow = np.ascontiguousarray(block[:, :63])
        assert as_bytes(_log_power_mean_columns(q, narrow)) == want[: 63 * 8], q
        alone = [as_bytes(_log_power_mean_columns(q, block[:, j : j + 1].copy())) for j in range(64)]
        assert b"".join(alone) == want, q
    assert block.tobytes() == before


@pytest.mark.parametrize("s", EXPONENTS)
def test_power_mean_of_logs_matches_reference_bytes(s):
    rng = np.random.default_rng(5)
    for logs in (rng.uniform(-3.0, 3.0, 10**5), np.zeros(40), rng.uniform(-700.0, 700.0, 1000)):
        before = logs.tobytes()
        want = as_bytes(float(np.exp(reference_log_power_mean_columns(s, logs))))
        assert as_bytes(power_mean_of_logs(s, logs)) == want
        assert logs.tobytes() == before  # callers reuse one array for several s
        assert as_bytes(power_mean_of_logs(s, logs.copy(), overwrite=True)) == want


@pytest.mark.parametrize("s", [s for s in EXPONENTS if math.isfinite(s)])
def test_jackknife_matches_reference_bytes(s):
    rng = np.random.default_rng(7)
    cases = [
        rng.uniform(-3.0, 3.0, 100),
        rng.uniform(-3.0, 3.0, 8193),
        rng.uniform(-30.0, 30.0, 10**5),
        rng.choice([0.0, -0.0, 1.0], 1000),  # log-means of +-0 and 1
        np.full(300, 0.25),  # identical samples
    ]
    if not is_zero_exponent(s):
        cases.append(dominant_log_means(s))
    for log_means in cases:
        before = log_means.tobytes()
        got, want = _jackknife_aggregate(s, log_means), reference_jackknife_aggregate(s, log_means)
        assert as_bytes(got) == as_bytes(want)
        assert log_means.tobytes() == before


def dominant_log_means(s):
    """Log-means where one weight exp(s * x - max) holds the whole rounded
    total, so that the jackknife takes log(total - w) = log(0)."""
    log_means = np.zeros(500)
    log_means[17] = 60.0 / s  # s * x = 60; every other weight is exp(-60)
    return log_means


def jackknife_oracle(s, log_means):
    """Value and jackknife standard error by their definitions, on the
    value scale, in 40-digit arithmetic."""
    with mpmath.workdps(40):
        x = [mpmath.exp(mpmath.mpf(v)) for v in log_means.tolist()]
        m = len(x)
        if is_zero_exponent(s):
            total = mpmath.fsum(mpmath.log(v) for v in x)
            value = mpmath.exp(total / m)
            estimates = [mpmath.exp((total - mpmath.log(v)) / (m - 1)) for v in x]
        else:
            powers = [v**s for v in x]
            total = mpmath.fsum(powers)
            value = (total / m) ** (1 / mpmath.mpf(s))
            # each leave-one-out sum on its own: total - p cancels under a dominant p
            estimates = [
                (mpmath.fsum(powers[:i] + powers[i + 1 :]) / (m - 1)) ** (1 / mpmath.mpf(s)) for i in range(m)
            ]
        centre = mpmath.fsum(estimates) / m
        se = mpmath.sqrt(mpmath.mpf(m - 1) / m * mpmath.fsum((e - centre) ** 2 for e in estimates))
        return float(value), float(se)


@pytest.mark.parametrize("s", [2.0, 1.0, 0.0, -1.0, -2.0])
@pytest.mark.parametrize("c", [1.0, 1e200, 1e-200, 1e300, 1e-300])
def test_jackknife_standard_error_scales_with_the_data(s, c):
    # deviations of about c / 40: their squares left the double range at
    # c = 1e+-200, and the standard error read inf or 0.0
    log_means = np.log([(1.0 + i / 100) * c for i in range(200)])
    value, se = _jackknife_aggregate(s, log_means)
    want_value, want_se = jackknife_oracle(s, log_means)
    assert value == pytest.approx(want_value, rel=1e-12, abs=0.0)
    assert se == pytest.approx(want_se, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("s", [-1.0, -2.0, 1.0])
def test_jackknife_dominant_draw_leaves_the_other_weights(s):
    # at s < 0 the smallest subset mean holds the whole rounded total, and
    # leaving it out took log(total - w) = log(0): an inf estimate and a nan
    # standard error
    log_means = np.log([1.0 + i / 1000 for i in range(199)] + [1e-300 if s < 0 else 1e300])
    value, se = _jackknife_aggregate(s, log_means)
    want_value, want_se = jackknife_oracle(s, log_means)
    assert value == pytest.approx(want_value, rel=1e-12, abs=0.0)
    assert se == pytest.approx(want_se, rel=1e-10, abs=0.0)


def test_sampled_mean_with_a_dominant_draw():
    # the 1e-300 entry is drawn once in 100 at seed 0; the 40-digit
    # jackknife of the drawn means reads 1.0848059674429924
    values = [1.0 + i / 1000 for i in range(199)] + [1e-300]
    report = cmn_mean_sampled(MeanParams(1, -1.0, 1.0), values, 100, 0)
    assert report.value == 1.0000000000000046e-298
    assert report.stderr_estimate == pytest.approx(1.0848059674429924, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("x", [5e-18, 1e-17, 1e-16, 1e-15])
def test_sampled_mean_with_a_near_dominant_draw(x):
    # the x entry, drawn once in 100 at seed 0, holds more than half the
    # rounded total of the weights but not all of it: total - w kept a bit
    # or two of the others, and the standard error read 2.207 at x = 5e-18
    values = [1.0 + i / 1000 for i in range(199)] + [x]
    report = cmn_mean_sampled(MeanParams(1, -1.0, 1.0), values, 100, 0)
    logs = np.log(np.sort(values))
    log_means = _log_means(logs, 1.0, cmn_means._sample_index_blocks(200, 1, 100, 0), 100)
    want_value, want_se = jackknife_oracle(-1.0, log_means)
    assert report.value == pytest.approx(want_value, rel=1e-12, abs=0.0)
    assert report.stderr_estimate == pytest.approx(want_se, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("s", [s for s in EXPONENTS if math.isfinite(s) and not is_zero_exponent(s)])
def test_dominant_weight_takes_the_log_of_zero(s):
    u = s * dominant_log_means(s)
    w = np.exp(u - u.max())
    assert (float(w.sum()) - w == 0.0).sum() == 1


@pytest.mark.parametrize("subsets", [9, 11])
def test_log_means_refuses_a_stream_of_the_wrong_length(subsets):
    # C(5,2) = 10 subsets are expected; a stream one short would leave an
    # unwritten entry in the result, one long would overrun it
    logs = np.log(np.arange(1.0, 6.0))
    index_columns = np.array(list(itertools.combinations(range(5), 2)) + [(0, 4)])[:subsets].T.copy()
    blocks = iter([index_columns[:, :4], index_columns[:, 4:]])
    with pytest.raises(RuntimeError, match="subsets"):
        _log_means(logs, 1.0, blocks, 10)


def test_log_means_fills_every_row_of_a_stream_of_the_right_length():
    logs = np.log(np.arange(1.0, 6.0))
    index_columns = np.array(list(itertools.combinations(range(5), 2))).T.copy()
    got = _log_means(logs, 1.0, iter([index_columns[:, :4], index_columns[:, 4:]]), 10)
    assert as_bytes(got) == as_bytes(reference_log_power_mean_columns(1.0, logs[index_columns]))


# --- the streamed outer mean of the Exact route ------------------------------------


def streamed(s, chunks):
    """exp of :class:`_StreamedPowerMean`'s value over the chunks, fed copies."""
    outer = cmn_means._StreamedPowerMean(s)
    for chunk in chunks:
        outer.extend(chunk.copy())
    return float(np.exp(outer.log_value()))


@pytest.mark.parametrize("s", EXPONENTS)
def test_streamed_mean_of_one_group_is_power_mean_of_logs(s):
    group = cmn_means._GROUP_SIZE
    logs = np.random.default_rng(11).uniform(-30.0, 30.0, group)
    for size in (1, 1000, group):
        want = power_mean_of_logs(s, logs[:size])
        assert as_bytes(streamed(s, [logs[:size]])) == as_bytes(want)
        assert as_bytes(streamed(s, np.array_split(logs[:size], 7))) == as_bytes(want)


@pytest.mark.parametrize("s", EXPONENTS)
def test_streamed_mean_does_not_depend_on_the_chunks(s):
    group = cmn_means._GROUP_SIZE
    logs = np.random.default_rng(12).uniform(-30.0, 30.0, 3 * group + 1)  # one past a group
    for values in (logs, logs[: 3 * group]):  # and ending on one
        want = streamed(s, [values])
        cuts = np.random.default_rng(13).integers(0, values.size, 40)
        assert as_bytes(streamed(s, np.split(values, np.sort(cuts)))) == as_bytes(want)
        assert as_bytes(streamed(s, np.array_split(values, 3 * group // 5))) == as_bytes(want)
        outer = cmn_means._StreamedPowerMean(s)
        for chunk in np.array_split(values, 9):
            outer.extend(chunk.copy())
            outer.log_value()  # a reading leaves the stream as it was
        assert as_bytes(float(np.exp(outer.log_value()))) == as_bytes(want)
        assert want == pytest.approx(power_mean_of_logs(s, values), rel=1e-14, abs=0.0)


def mp_cmn_means(v, k, q):
    """M_{k,s,q}(v) by the definition in 40-digit arithmetic, for s in
    (2, 0, -1, inf, -inf)."""
    with mpmath.workdps(40):
        inner = []
        for subset in itertools.combinations([mpmath.mpf(a) for a in v], k):
            if q == 0.0:
                inner.append(mpmath.exp(mpmath.fsum(mpmath.log(a) for a in subset) / k))
            else:
                inner.append((mpmath.fsum(a**q for a in subset) / k) ** (1 / mpmath.mpf(q)))
        m = len(inner)
        return {
            2.0: mpmath.sqrt(mpmath.fsum(a * a for a in inner) / m),
            0.0: mpmath.exp(mpmath.fsum(mpmath.log(a) for a in inner) / m),
            -1.0: m / mpmath.fsum(1 / a for a in inner),
            INF: max(inner),
            -INF: min(inner),
        }


def assert_naive_matches_mpmath(v, k, q):
    want = mp_cmn_means(v, k, q)
    for s, value in want.items():
        got = cmn_mean_naive(MeanParams(k, s, q), v)
        with mpmath.workdps(40):
            assert abs(mpmath.mpf(got) / value - 1) < 4e-15, (k, s, q)


@pytest.mark.parametrize("n, k, q", [(16, 6, 1.0), (18, 5, -1.0), (24, 4, 0.0)])
def test_naive_over_several_groups_matches_mpmath(n, k, q):
    # C(n, k) = 8008, 8568 and 10626: two, three and three groups
    assert math.comb(n, k) > cmn_means._GROUP_SIZE
    draw = random.Random(n)
    assert_naive_matches_mpmath([10.0 ** draw.uniform(-3.0, 3.0) for _ in range(n)], k, q)


@pytest.mark.parametrize("group", [5, 3, 1])
def test_naive_across_group_boundaries_matches_mpmath(monkeypatch, group):
    # C(7, 3) = 35 subsets: seven groups of 5, eleven of 3 and one past
    # them, one subset per group
    monkeypatch.setattr(cmn_means, "_GROUP_SIZE", group)
    for q in (1.0, 0.0, -2.0):
        assert_naive_matches_mpmath([0.3, 2.0, 5.5, 1e-3, 40.0, 7.0, 1e3], 3, q)
