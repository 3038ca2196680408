import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import log_uniform_vector
from hardy_means import DomainError, power_mean, power_mean_lower_bound_check
from hardy_means.routes import check_positive_vector

INF = math.inf
EXPONENTS = [-INF, -1000.0, -2.0, -1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 2.0, 1000.0, INF]

positive_entries = st.floats(min_value=1e-3, max_value=1e3)
vectors = st.lists(positive_entries, min_size=1, max_size=20)


class TestExamples:
    def test_arithmetic(self):
        assert power_mean(1, (1, 2, 3)) == pytest.approx(2.0, rel=1e-14)

    def test_geometric(self):
        assert power_mean(0, (1, 4)) == pytest.approx(2.0, rel=1e-14)

    def test_half(self):
        # ((1 + 2) / 2)**2
        assert power_mean(0.5, (1, 4)) == pytest.approx(2.25, rel=1e-14)

    def test_extremes(self):
        assert power_mean(-INF, (3, 1, 2)) == 1.0
        assert power_mean(INF, (3, 1, 2)) == 3.0

    def test_quadratic(self):
        assert power_mean(2, (3, 4)) == pytest.approx(math.sqrt(12.5), rel=1e-14)


class TestDomainErrors:
    def test_empty(self):
        with pytest.raises(DomainError):
            power_mean(1, ())

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, INF, -INF])
    def test_bad_entry(self, bad):
        with pytest.raises(DomainError):
            power_mean(1, (1.0, bad))

    def test_nan_exponent(self):
        with pytest.raises(DomainError):
            power_mean(math.nan, (1.0, 2.0))

    def test_non_numeric(self):
        with pytest.raises(DomainError):
            power_mean(1, ("one", "two"))

    def test_check_positive_vector_returns_floats(self):
        assert check_positive_vector((1, 2)) == [1.0, 2.0]


@given(vectors, st.sampled_from(EXPONENTS))
def test_internality(v, p):
    m = power_mean(p, v)
    assert min(v) * (1 - 1e-12) <= m <= max(v) * (1 + 1e-12)


@given(vectors)
def test_monotone_in_exponent(v):
    values = [power_mean(p, v) for p in EXPONENTS]
    for lower, higher in zip(values, values[1:]):
        assert lower <= higher * (1 + 1e-12)


@given(vectors, st.sampled_from(EXPONENTS), st.floats(min_value=1e-2, max_value=1e2))
def test_homogeneity(v, p, c):
    scaled = power_mean(p, [c * x for x in v])
    assert scaled == pytest.approx(c * power_mean(p, v), rel=1e-12)


@pytest.mark.parametrize("p", EXPONENTS)
@pytest.mark.parametrize("c", [1e-300, 1e-7, 0.1, 1.0, 3.7, 1e300])
def test_constant_vector_exact(p, c):
    assert power_mean(p, [c] * 5) == c


def test_continuity_at_zero(rng):
    for _ in range(50):
        v = log_uniform_vector(rng, int(rng.integers(1, 15)))
        geometric = power_mean(0.0, v)
        assert power_mean(1e-8, v) == pytest.approx(geometric, rel=1e-6)
        assert power_mean(-1e-8, v) == pytest.approx(geometric, rel=1e-6)


def test_zero_threshold_branch(rng):
    v = log_uniform_vector(rng, 9)
    assert power_mean(1e-13, v) == power_mean(0.0, v)


def test_permutation_invariance_bitwise(rng):
    v = log_uniform_vector(rng, 12)
    shuffled = list(v)
    for p in EXPONENTS:
        reference = power_mean(p, v)
        for _ in range(5):
            rng.shuffle(shuffled)
            assert power_mean(p, shuffled) == reference


@pytest.mark.parametrize("p", [-1000.0, -3.0, -1e-9, 1e-9, 3.0, 1000.0])
def test_extreme_range_no_overflow(p):
    v = [1e-300, 1e-180, 1.0, 1e180, 1e300]
    m = power_mean(p, v)
    assert math.isfinite(m) and m > 0.0
    assert min(v) * (1 - 1e-9) <= m <= max(v) * (1 + 1e-9)


class TestLowerBoundCheck:
    def test_constant_pair(self):
        # P_1 = 1 > (1/2) * 1
        assert power_mean_lower_bound_check(1, (1, 1)) is True

    def test_derived_pair(self):
        # P_2(3,4) = sqrt(12.5) ~ 3.5355 > 4/sqrt(2) ~ 2.8284
        assert power_mean_lower_bound_check(2, (3, 4)) is True
        assert power_mean(2, (3, 4)) > 2 ** (-1 / 2) * 4

    def test_singleton_is_equality(self):
        assert power_mean_lower_bound_check(1, (1.7,)) is False

    def test_saturated_tie(self):
        # P_2(1, 1e-300) = sqrt(1/2) rounds to 2**(-1/2) * 1: the strict
        # margin of 1e-600 is lost, and the comparison reads the tie
        assert power_mean(2.0, (1.0, 1e-300)) == 2.0 ** (-1 / 2.0)
        assert power_mean_lower_bound_check(2.0, [1.0, 1e-300]) is False

    def test_random_vectors_always_pass(self, rng):
        # q1 and the dynamic range are kept where the strict margin,
        # roughly (k-1) * (max/min)**-q1 / q1, stays resolvable in doubles
        for _ in range(200):
            n = int(rng.integers(2, 12))
            v = log_uniform_vector(rng, n, decades=1.0)
            q1 = float(rng.uniform(0.05, 4.0))
            assert power_mean_lower_bound_check(q1, v) is True

    @pytest.mark.parametrize("q1", [0.0, -1.0, math.inf, math.nan])
    def test_invalid_exponent(self, q1):
        with pytest.raises(DomainError):
            power_mean_lower_bound_check(q1, (1, 2))
