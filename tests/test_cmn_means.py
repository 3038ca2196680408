import itertools
import math
import random
import tracemalloc
from collections import Counter

import mpmath
import numpy as np
import pytest

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
from hardy_means import cmn_means
from hardy_means.cmn_means import (
    ElementarySymmetric,
    _elementary_symmetric,
    _floyd_rows,
    _floyd_sample,
    _iter_subset_index_chunks,
    _unscaled_elementary_symmetric,
    compare_k_monotonicity,
    compare_qs_monotonicity,
    subset_log_means,
)

INF = math.inf
GRID = (-INF, -2.0, -1.0, 0.0, 0.5, 1.0, 2.0, INF)


# --- independent oracles -----------------------------------------------------


def esp_bruteforce(terms, k):
    """e_k by direct enumeration of all k-products; exact reduction."""
    return math.fsum(math.prod(combo) for combo in itertools.combinations(terms, k))


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
            ek, exponent = ElementarySymmetric(k, p).extend(np.asarray(v))
            mantissa, shift = math.frexp(float(ek[-1]))
            assert got == (mantissa, shift + int(exponent[-1]))
        assert taken >= 200 and refused >= 100
        # e_20 of 24 entries near 2**-900 or 2**900 leaves the double range
        # unscaled (0 and nan without the bound)
        for e in (-900, 900):
            assert _unscaled_elementary_symmetric([math.ldexp(0.75, e)] * 24, 20, 1.0) is None
        # entries at both ends of the widest range the bound admits
        for n, k in [(30, 2), (30, 5), (60, 12), (500, 2)]:
            top = (cmn_means._UNSCALED_RANGE - n) // (2 * k) - 1
            exponents = rng.choice([-top, top - 1, 0], n)
            v = [math.ldexp(float(m), int(e)) for m, e in zip(rng.uniform(0.5, 1.0, n), exponents)]
            got = _unscaled_elementary_symmetric(v, k, 1.0)
            ek, exponent = ElementarySymmetric(k, 1.0).extend(np.asarray(v))
            mantissa, shift = math.frexp(float(ek[-1]))
            assert got == (mantissa, shift + int(exponent[-1]))


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

    @pytest.mark.parametrize("size", [1, 17, 8192])
    @pytest.mark.parametrize("n,k", [(5, 2), (12, 4), (9, 8), (33, 3), (50, 40), (2000, 5)])
    def test_block_draws_match_floyd_sample(self, n, k, size):
        # In (33, 3) the bounds 31..33 straddle 2**5, so about half the
        # draws are retried.
        block, reference = random.Random(n * k + size), random.Random(n * k + size)
        rows = _floyd_rows(block, n, k, size)
        assert rows.tolist() == [_floyd_sample(reference, n, k) for _ in range(size)]
        assert block.getstate() == reference.getstate()

    def test_block_draw_memory(self):
        # The drawn indices reach the block's array in batches, so a large k
        # holds few Python ints at once: about 6 MiB here, against 16 MiB
        # for one flat list of the whole block.
        tracemalloc.start()
        try:
            rows = _floyd_rows(random.Random(5), 2000, 1000, 512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rows.nbytes + 4 * 2**20

    def test_draws_are_uniform_over_all_subsets(self, monkeypatch):
        # Exact chi-square over all C(8,3) = 56 subsets, 300 expected draws
        # each, across three sample blocks.  With entries e**i the sampled
        # log-rows are the index rows.  The threshold, the 0.999 quantile of
        # chi-square with 55 degrees of freedom (93.17), was fixed before
        # the test first ran.
        drawn = []
        genuine = cmn_means._log_power_mean_rows

        def record(q, log_rows):
            drawn.extend(map(tuple, np.rint(log_rows).astype(int).tolist()))
            return genuine(q, log_rows)

        monkeypatch.setattr(cmn_means, "_log_power_mean_rows", record)
        cmn_mean_sampled(MeanParams(3, 1.0, 0.0), [math.exp(i) for i in range(8)], 56 * 300, seed=1)
        counts = Counter(drawn)
        assert set(counts) == set(itertools.combinations(range(8), 3))
        chi_square = sum((counts[c] - 300) ** 2 / 300 for c in counts)
        assert chi_square < 93.17


# --- report invariants ----------------------------------------------------------


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

    def test_strict_majorization_when_not_constant(self, rng):
        for _ in range(50):
            v = log_uniform_vector(rng, int(rng.integers(2, 20)))
            lhs = cmn_mean_fast(MeanParams(2, 1.0, 0.0), v).value
            assert lhs < power_mean(0.5, v)


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
            for chunk_rows in (1, 7, 65536):
                chunks = list(_iter_subset_index_chunks(n, k, chunk_rows))
                assert all(len(c) == chunk_rows for c in chunks[:-1])
                assert 1 <= len(chunks[-1]) <= chunk_rows
                assert np.concatenate(chunks).tolist() == want


def test_naive_does_not_depend_on_chunk_size(rng, monkeypatch):
    v = log_uniform_vector(rng, 24)
    params = MeanParams(7, 2.0, -1.0)  # C(24,7) = 346104 spans several chunks
    values = set()
    for chunk_rows in (1, 7, 65536):
        monkeypatch.setattr(cmn_means, "_CHUNK_ROWS", chunk_rows)
        values.add(cmn_mean_naive(params, v).hex())
    assert len(values) == 1


def test_enumeration_memory(rng):
    v = log_uniform_vector(rng, 22)
    tracemalloc.start()
    try:
        subset_log_means(v, 11, 1.0)  # C(22,11) = 705432 subsets
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20
