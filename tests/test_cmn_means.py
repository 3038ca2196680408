import itertools
import math
import random
from collections import Counter

import mpmath
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
from hardy_means.cmn_means import (
    _elementary_symmetric,
    _floyd_sample,
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

    def test_thread_count_does_not_change_bits(self, rng, monkeypatch):
        v = log_uniform_vector(rng, 11)
        params = MeanParams(4, 2.0, 0.5)
        monkeypatch.setenv("HARDY_MEANS_THREADS", "1")
        serial = cmn_mean_sampled(params, v, 3 * 8192 + 17, seed=5)
        monkeypatch.setenv("HARDY_MEANS_THREADS", "3")
        threaded = cmn_mean_sampled(params, v, 3 * 8192 + 17, seed=5)
        assert serial == threaded

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


def test_naive_thread_count_does_not_change_bits(rng, monkeypatch):
    v = log_uniform_vector(rng, 24)
    params = MeanParams(7, 2.0, -1.0)  # C(24,7) = 346104 spans several chunks
    monkeypatch.setenv("HARDY_MEANS_THREADS", "1")
    serial = cmn_mean_naive(params, v)
    monkeypatch.setenv("HARDY_MEANS_THREADS", "4")
    threaded = cmn_mean_naive(params, v)
    assert serial == threaded


def test_thread_env_validation(monkeypatch):
    from hardy_means._parallel import thread_count

    monkeypatch.setenv("HARDY_MEANS_THREADS", "2")
    assert thread_count() == 2
    monkeypatch.setenv("HARDY_MEANS_THREADS", "0")
    assert thread_count() >= 1
    monkeypatch.delenv("HARDY_MEANS_THREADS")
    assert thread_count() >= 1
    for bad in ("-1", "many"):
        monkeypatch.setenv("HARDY_MEANS_THREADS", bad)
        with pytest.raises(DomainError):
            thread_count()
