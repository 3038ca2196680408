import math
import re
import sys
import tracemalloc
import warnings
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import regression_fixtures as fixtures
from conftest import log_uniform_vector
from hardy_means import (
    CapacityError,
    CustomTerms,
    DomainError,
    Geometric,
    Harmonic,
    HarmonicTruncated,
    MeanParams,
    PowerTail,
    cmn_mean_naive,
    format_mean,
    hardy_partial_sum,
    iter_hardy_checkpoints,
    landau_constant,
    parse_family,
    parse_mean,
    power_mean,
    sharpness_constant_sweep,
    sharpness_limit_curve,
    sharpness_limit_experiment,
    sharpness_sequence,
)
from hardy_means import hardy, prefix
from hardy_means._summation import KahanSum
from hardy_means.cmn_means import MAX_ENUMERATION_N, EvalMethod, cmn_mean_fast
from hardy_means.hardy import (
    BufferedPrefix,
    PairGeometricMeanPrefix,
    PowerMeanPrefix,
    SecondMomentPrefix,
    SymmetricFunctionPrefix,
    make_prefix_evaluator,
)
from hardy_means.prefix import default_checkpoints

INF = math.inf


class TestLandauConstant:
    def test_half_is_exactly_four(self):
        assert landau_constant(0.5) == 4.0

    def test_third(self):
        # (2/3)**-3 = 27/8
        assert landau_constant(1 / 3) == pytest.approx(3.375, rel=1e-14)

    def test_regression_099(self):
        assert landau_constant(0.99) == pytest.approx(fixtures.LANDAU_099, rel=1e-14)

    def test_carleman_limit(self):
        assert abs(landau_constant(1e-6) - 2.718282) < 1e-5

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.5, 2.0, INF, math.nan])
    def test_domain(self, p):
        with pytest.raises(DomainError):
            landau_constant(p)


class TestFamilies:
    def test_sharpness_sequence_example(self):
        assert sharpness_sequence(2, 4) == [1.0, 0.5, 1 / 9, 1 / 16]

    def test_sharpness_sequence_pure_harmonic(self):
        assert sharpness_sequence(3, 3) == [1.0, 0.5, 1 / 3]

    def test_sharpness_sequence_preconditions(self):
        with pytest.raises(DomainError):
            sharpness_sequence(5, 4)
        with pytest.raises(DomainError):
            sharpness_sequence(0, 4)

    @pytest.mark.parametrize("alpha", [1.0, 0.5, -2.0, INF])
    def test_power_tail_validation(self, alpha):
        with pytest.raises(DomainError):
            PowerTail(alpha)

    @pytest.mark.parametrize("r", [0.0, 1.0, 1.5, -0.3])
    def test_geometric_validation(self, r):
        with pytest.raises(DomainError):
            Geometric(r)

    def test_geometric_horizon(self):
        family = Geometric(0.3)
        assert family.max_length() == 618
        terms = list(family.terms(600))
        assert len(terms) == 600 and all(t > 0 for t in terms)
        with pytest.raises(DomainError):
            family.terms(1000)

    def test_custom_rejects_requests_past_the_list(self):
        family = CustomTerms((1.0, 0.5, 0.25))
        assert list(family.terms(3)) == [1.0, 0.5, 0.25]
        with pytest.raises(DomainError):
            family.terms(4)

    def test_custom_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            CustomTerms((1.0, 0.0))

    def test_harmonic_not_summable(self):
        assert Harmonic().summable is False
        with pytest.raises(DomainError, match="allow_nonsummable=True"):
            hardy_partial_sum(0.5, Harmonic(), 100)
        est = hardy_partial_sum(0.5, Harmonic(), 100, allow_nonsummable=True)
        assert est.ratio > 0

    def test_parse_family(self):
        assert parse_family("powertail:2") == PowerTail(2.0)
        assert parse_family("geometric:0.5") == Geometric(0.5)
        assert parse_family("harmonic-truncated:100") == HarmonicTruncated(100)
        assert parse_family("harmonic") == Harmonic()
        for bad in ("powertail", "geometric:2", "nope:1", "harmonic:3"):
            with pytest.raises(DomainError):
                parse_family(bad)

    def test_labels_round_trip(self, tmp_path):
        path = tmp_path / "terms.txt"
        path.write_text("1.0\n0.5\n", encoding="utf-8")
        read = parse_family(f"CUSTOM:{path}")
        for family in (PowerTail(1.5), Geometric(0.9), HarmonicTruncated(10), Harmonic(), read):
            assert parse_family(family.label()) == family
        # a family read from a file is named by it, one built from values by its length
        assert read.label() == f"custom:{path}"
        assert read == CustomTerms((1.0, 0.5)) and CustomTerms((1.0, 0.5)).label() == "custom:2"

    def test_unknown_family_names_every_kind(self):
        with pytest.raises(DomainError, match=r"geometric:<r> or custom:<file>$"):
            parse_family("foo")

    def test_parse_custom_family_reads_the_file(self, tmp_path):
        path = tmp_path / "terms.txt"
        path.write_text("1.0\n# a comment\n0.5  # trailing\n\n0.25\n", encoding="utf-8")
        assert parse_family(f"custom:{path}") == CustomTerms((1.0, 0.5, 0.25))
        assert parse_family(f"CUSTOM:{path}") == CustomTerms((1.0, 0.5, 0.25))

    def test_parse_custom_family_names_the_bad_line(self, tmp_path):
        # the same message mean --file gives
        path = tmp_path / "terms.txt"
        path.write_text("1.0\n0.5\nabc\n", encoding="utf-8")
        with pytest.raises(DomainError, match=re.escape(f"{path}:3: not a decimal number: 'abc'")):
            parse_family(f"custom:{path}")
        with pytest.raises(DomainError, match="cannot read"):
            parse_family(f"custom:{tmp_path / 'missing.txt'}")

    @pytest.mark.parametrize("crossover", ["0", "-3"])
    def test_crossover_out_of_range_is_a_range_error(self, crossover):
        # an integer below 1 is a range error, not a parse error
        with pytest.raises(DomainError, match=f"^crossover must be >= 1, got {crossover}$"):
            parse_family(f"harmonic-truncated:{crossover}")
        with pytest.raises(DomainError, match="needs an integer crossover"):
            parse_family("harmonic-truncated:1.5")


class TestMeanGrammar:
    def test_parse_power(self):
        assert parse_mean("power:0.5") == 0.5
        assert parse_mean("power:-inf") == -INF

    def test_parse_cmn(self):
        assert parse_mean("cmn:2,1,0") == MeanParams(2, 1.0, 0.0)
        assert parse_mean("cmn:3,inf,-2") == MeanParams(3, INF, -2.0)

    def test_format_round_trip(self):
        for text in ("power:0.5", "power:-inf", "cmn:2,1,0", "cmn:4,0.25,-inf"):
            assert format_mean(parse_mean(text)) == text

    @pytest.mark.parametrize("bad", ["cmn:2,1", "cmn:x,1,0", "power:abc", "gini:1,2"])
    def test_parse_errors(self, bad):
        with pytest.raises(DomainError):
            parse_mean(bad)


# The prefix evaluators a one-shot route may pair with: both dispatchers
# take their closed forms from one decision, so the route of a vector
# longer than k fixes the family of the prefix evaluator.
_PREFIX_CLASSES = {
    EvalMethod.DEGENERATE: (PowerMeanPrefix,),
    EvalMethod.FAST_SYMMETRIC: (SymmetricFunctionPrefix, PairGeometricMeanPrefix),
    EvalMethod.EXACT: (SecondMomentPrefix, BufferedPrefix),
}
_ROUTE_EXPONENTS = (-INF, -2.0, -1.0, 0.0, 0.5, 1.0, 2.0, INF)


@pytest.mark.parametrize(
    "k, s, q",
    [(k, s, q) for k in (1, 2, 3, 5) for s in _ROUTE_EXPONENTS for q in _ROUTE_EXPONENTS]
    + [(3, 3.0, 1.5), (5, -4.0, -2.0), (2, -1.0, -0.5), (5, 0.5, 0.25)],
)
def test_one_shot_and_prefix_routes_agree(k, s, q):
    params = MeanParams(k, s, q)
    v = log_uniform_vector(np.random.default_rng(k), 8, decades=1.0)
    report = cmn_mean_fast(params, v)
    evaluator = make_prefix_evaluator(params)
    assert isinstance(evaluator, _PREFIX_CLASSES[report.method]), (report.method, type(evaluator))
    values, error = evaluator.extend(np.array(v))
    assert error is None
    assert values[-1] == pytest.approx(report.value, rel=1e-12)


class TestPrefixEvaluators:
    def test_dispatch(self):
        assert isinstance(make_prefix_evaluator(0.5), PowerMeanPrefix)
        assert isinstance(make_prefix_evaluator(MeanParams(1, 2.0, 0.0)), PowerMeanPrefix)
        assert isinstance(make_prefix_evaluator(MeanParams(2, 1.0, 0.0)), PairGeometricMeanPrefix)
        assert isinstance(make_prefix_evaluator(MeanParams(3, 2.0, 2.0)), PowerMeanPrefix)
        assert isinstance(make_prefix_evaluator(MeanParams(3, 1.0, 0.0)), SymmetricFunctionPrefix)
        assert isinstance(make_prefix_evaluator(MeanParams(2, 2.0, 1.0)), SecondMomentPrefix)
        assert isinstance(make_prefix_evaluator(MeanParams(3, -1.0, -0.5)), SecondMomentPrefix)
        assert isinstance(make_prefix_evaluator(MeanParams(3, 2.0, -1.0)), BufferedPrefix)

    @pytest.mark.parametrize(
        "mean",
        [
            0.5,
            1.0,
            0.0,
            -1.0,
            INF,
            -INF,
            MeanParams(2, 1.0, 0.0),
            MeanParams(3, 1.0, 0.0),
            MeanParams(2, -0.5, 0.0),
            MeanParams(2, 1.0, 1.0),
            MeanParams(1, 0.5, 2.0),
            MeanParams(3, 2.0, -1.0),
            MeanParams(2, 2.0, 1.0),
            MeanParams(3, -2.0, -1.0),
            MeanParams(4, 1.0, 0.5),
        ],
    )
    def test_prefixes_match_naive_oracle(self, rng, mean):
        v = log_uniform_vector(rng, 12, decades=1.5)
        evaluator = make_prefix_evaluator(mean)
        for i in range(1, 13):
            got = evaluator.push(v[i - 1])
            prefix = v[:i]
            if isinstance(mean, MeanParams):
                expected = cmn_mean_naive(mean, prefix)
            else:
                expected = power_mean(mean, prefix)
            assert got == pytest.approx(expected, rel=1e-10), (mean, i)

    def test_buffered_default_cap_is_the_enumeration_limit(self):
        evaluator = make_prefix_evaluator(MeanParams(3, 2.0, -1.0))
        for i in range(1, MAX_ENUMERATION_N + 1):
            evaluator.push(1.0 / i)
        with pytest.raises(DomainError, match=f"capped at {MAX_ENUMERATION_N} terms"):
            evaluator.push(0.5)

    @pytest.mark.parametrize(
        "mean",
        [
            0.5,
            0.0,
            INF,
            -INF,
            -1.5,
            MeanParams(2, 1.0, 0.0),
            MeanParams(2, 2.0, 1.0),
            MeanParams(3, -2.0, -1.0),
            MeanParams(3, 1.0, 0.0),
            MeanParams(2, 2.0, 0.0),
            MeanParams(3, -2.0, 0.0),
            # b = a**10: the e_j levels open at products b_1..b_j far outside
            # the double range and rescale as they grow
            MeanParams(60, 600.0, 0.0),
        ],
    )
    def test_extend_matches_push_bit_for_bit(self, rng, mean):
        # extend over any split into blocks, and any mix of push and extend
        # on one state, give the bits of pushing every term
        v = log_uniform_vector(rng, 400, decades=4.0)
        pushed = make_prefix_evaluator(mean)
        want = [pushed.push(a).hex() for a in v]
        for _ in range(3):
            # one-element and empty blocks among random ones
            cuts = sorted([1, 1, 2, *rng.integers(2, 400, 6).tolist()])
            blocked = make_prefix_evaluator(mean)
            got = []
            for lo, hi in zip([0, *cuts], [*cuts, 399]):
                values, error = blocked.extend(np.array(v[lo:hi]))
                assert error is None
                got.extend(values.tolist())
            got.append(blocked.push(v[399]))  # the state carried by extend serves push too
            assert [x.hex() for x in got] == want
        # push first, extend on the pushed state, then push again: inside and
        # across the P_r head (n <= k, for k = 2, 3 and 60), and past it
        for lo, hi in ((1, 2), (1, 399), (2, 4), (3, 62), (59, 61), (200, 201)):
            mixed = make_prefix_evaluator(mean)
            got = [mixed.push(a) for a in v[:lo]]
            values, error = mixed.extend(np.array(v[lo:hi]))
            assert error is None
            got += values.tolist() + [mixed.push(a) for a in v[hi:]]
            assert [x.hex() for x in got] == want, (lo, hi)

    @pytest.mark.parametrize(
        "evaluator, args, size",
        [
            (PowerMeanPrefix, (0.3,), 4),
            (PowerMeanPrefix, (-1.0,), 4),
            # M_{2,0.5,0.25}: the root of the P_q head and of the moment
            (SecondMomentPrefix, (2, 0.25), 5),
        ],
    )
    def test_push_matches_extend_past_the_largest_double(self, evaluator, args, size):
        # the running mean of entries at the largest double rounds past it:
        # inf from extend and push alike, rather than OverflowError
        v = [sys.float_info.max] * size
        pushed = evaluator(*args)
        want = [pushed.push(a).hex() for a in v]
        values, error = evaluator(*args).extend(np.array(v))
        assert error is None
        assert [x.hex() for x in values.tolist()] == want
        assert math.inf.hex() in want

    def test_extend_keeps_the_per_term_checks(self):
        # extend takes the terms before the refused one and returns the
        # error push raises on it, message and all
        for a in (1e-200, 1e200):
            message = re.escape(f"a**p left the double range for a={a!r}")
            values, error = PowerMeanPrefix(2.0).extend(np.array([1.0, 2.0, a, 3.0]))
            assert values.tolist() == [1.0, math.sqrt(2.5)]
            reference = PowerMeanPrefix(2.0)
            with pytest.raises(DomainError, match=message) as pushed:
                reference.push(a)
            assert isinstance(error, DomainError) and str(error) == str(pushed.value)
            # a refused push changes nothing
            assert reference.push(3.0) == PowerMeanPrefix(2.0).push(3.0)
        # the second moment refuses only in its P_q head (n <= k), with the
        # head's own error: a**q leaves the double range
        for k, q, v in ((2, -3.0, [1e-300]), (3, 3.0, [1.0, 2.0, 1e200])):
            values, error = SecondMomentPrefix(k, q).extend(np.array(v))
            reference = SecondMomentPrefix(k, q)
            assert values.tolist() == [reference.push(a) for a in v[:-1]]
            message = re.escape(f"a**p left the double range for a={v[-1]!r}, p={q!r}")
            with pytest.raises(DomainError, match=message) as pushed:
                reference.push(v[-1])
            assert isinstance(error, DomainError) and str(error) == str(pushed.value)
            # a refused push changes nothing: the rows go on as if the entry
            # had never come
            fresh = SecondMomentPrefix(k, q)
            rest = v[:-1] + [3.0] * (k + 1)
            assert [reference.push(a) for a in rest[len(v) - 1 :]] == [fresh.push(a) for a in rest][len(v) - 1 :]
        # the pair recurrence adds positive terms only, so a dominant head
        # loses nothing: the value is the one-shot route's
        v = [1e300, 1e-300, 1e-300]
        values, error = PairGeometricMeanPrefix().extend(np.array(v))
        assert error is None
        assert values[-1] == pytest.approx(cmn_mean_fast(MeanParams(2, 1.0, 0.0), v).value, rel=1e-15)

    def test_nonpositive_term_ends_the_stream_after_earlier_rows(self):
        class Stub:
            summable = True

            def label(self):
                return "stub"

            def blocks(self, count):
                return iter([np.array([1.0, 0.5, 0.0, 2.0])])

        rows = hardy._block_checkpoints(0.5, Stub(), 4, [1, 2, 4])
        assert [next(rows)[0], next(rows)[0]] == [1, 2]
        with pytest.raises(DomainError, match="non-positive term at index 3"):
            next(rows)
        # terms past the last checkpoint are never consumed
        assert len(list(hardy._block_checkpoints(0.5, Stub(), 4, [1, 2]))) == 2

    def test_overflowing_sums_end_the_stream_after_earlier_rows(self):
        # both sums pass the largest double at n = 4, and nothing before
        family = CustomTerms((1e308, 1e307, 1e307, 1e308))
        for engine in (hardy._block_checkpoints, iter_hardy_checkpoints):
            rows = engine(0.5, family, 4, [1, 2, 3, 4])
            assert [next(rows)[0] for _ in range(3)] == [1, 2, 3]
            with pytest.raises(DomainError, match=r"left the double range at n=4$"):
                next(rows)

    @pytest.mark.parametrize(
        "mean, terms, taken",
        [
            # only the sum of the means passes the largest double, at n = 2
            ("power:inf", (1.7e308, 1e-300, 1e-300), 1),
            # only the sum of the terms does, at n = 3
            ("power:-inf", (1e308, 1e-300, 1e308), 2),
        ],
    )
    def test_one_overflowing_sum_ends_the_stream_on_both_engines(self, mean, terms, taken):
        mean = parse_mean(mean)
        assert prefix._make_scalar_evaluator(mean, 3) is not None  # iter_hardy_checkpoints runs the scalar engine
        got = []
        for engine in (hardy._block_checkpoints, iter_hardy_checkpoints):
            rows = engine(mean, CustomTerms(terms), 3, [1, 2, 3])
            got.append([(i, *map(float.hex, rest)) for i, *rest in (next(rows) for _ in range(taken))])
            with pytest.raises(DomainError, match=f"left the double range at n={taken + 1}$"):
                next(rows)
        assert [row[0] for row in got[0]] == list(range(1, taken + 1))
        assert got[0] == got[1]

    @pytest.mark.parametrize(
        "mean, terms, message",
        [
            ("power:2", (1.0, 2.0, 1e200, 3.0), "a**p left the double range for a=1e+200"),
            # the second moment's P_3 head refuses a**3 at n = 3 <= k
            ("cmn:3,6,3", (1.0, 2.0, 1e200, 3.0), "a**p left the double range for a=1e+200"),
        ],
    )
    def test_refused_term_ends_the_stream_after_earlier_rows(self, mean, terms, message):
        for engine in (hardy._block_checkpoints, iter_hardy_checkpoints):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # the overflow is an error, not a warning
                rows = engine(parse_mean(mean), CustomTerms(terms), 4, [1, 2, 3, 4])
                got = [next(rows), next(rows)]
                with pytest.raises(DomainError, match=f"^{re.escape(message)}"):
                    next(rows)
            assert got == list(engine(parse_mean(mean), CustomTerms(terms[:2]), 2, [1, 2]))

    @pytest.mark.parametrize(
        "terms",
        [
            (1e200, 2e200, 3e200),  # each (a**q)**2 leaves the double range
            (1.0, 2.0, 1e200, 3.0),
            (1.0, 2.0, 1e-200, 3.0),
            (1e154,) * 4,  # equal entries near the square root of the largest double
        ],
        ids=["three-1e200", "1e200-mid", "1e-200-mid", "four-1e154"],
    )
    def test_second_moment_answers_the_terms_it_refused(self, terms):
        # p2 and e2 are levels of the e_k engine: no square leaves the
        # double range and nothing cancels, so every row is answered
        want = second_moment_oracle(terms, 2, 1.0)
        values, error = SecondMomentPrefix(2, 1.0).extend(np.array(terms))
        assert error is None
        assert values.tolist() == pytest.approx(want, rel=1e-15)
        pushed = SecondMomentPrefix(2, 1.0)
        assert [x.hex() for x in values.tolist()] == [pushed.push(a).hex() for a in terms]
        if len(set(terms)) == 1:
            assert values.tolist() == list(terms)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            marks = list(range(1, len(terms) + 1))
            rows = list(hardy._block_checkpoints(parse_mean("cmn:2,2,1"), CustomTerms(terms), len(terms), marks))
        assert [row[0] for row in rows] == marks
        assert [row[1] for row in rows] == pytest.approx(np.cumsum(np.array(want, dtype=float)), rel=1e-15)

    def test_buffered_extend_fails_before_enumerating(self, monkeypatch):
        enumerated = []
        monkeypatch.setattr(hardy, "cmn_mean_fast", lambda *args: enumerated.append(args))
        with pytest.raises(CapacityError, match=re.escape("C(25,12) = 5200300 exceeds")):
            make_prefix_evaluator(MeanParams(12, 2.0, -1.0)).extend(np.ones(100))
        with pytest.raises(DomainError, match=f"capped at {MAX_ENUMERATION_N} terms"):
            make_prefix_evaluator(MeanParams(3, 2.0, -1.0)).extend(np.ones(MAX_ENUMERATION_N + 1))
        assert enumerated == []

    def test_buffered_refusal_reports_no_row(self, monkeypatch):
        # The buffered evaluator's cap and budget errors come before any
        # row, though rows 1, 2, 5, 10 and 20 precede the refused term:
        # reporting them would enumerate C(24,12) subsets first.
        enumerated = []
        monkeypatch.setattr(hardy, "cmn_mean_fast", lambda *args: enumerated.append(args))
        rows = []
        with pytest.raises(DomainError, match=f"capped at {MAX_ENUMERATION_N} terms"):
            rows.extend(hardy._block_checkpoints(MeanParams(2, 3.0, 1.0), PowerTail(2.0), MAX_ENUMERATION_N + 1))
        with pytest.raises(CapacityError, match=re.escape("C(25,12) = 5200300 exceeds")):
            rows.extend(hardy._block_checkpoints(MeanParams(12, 2.0, -1.0), PowerTail(2.0), 100))
        assert rows == [] and enumerated == []

    def test_buffered_push_keeps_no_refused_term(self, monkeypatch):
        monkeypatch.setattr(hardy, "cmn_mean_fast", lambda params, values: SimpleNamespace(value=1.0))
        evaluator = make_prefix_evaluator(MeanParams(12, 2.0, -1.0))
        for _ in range(24):
            evaluator.push(1.0)
        # the refused 25th term is not kept, so the next push meets C(25,12) again
        for _ in range(2):
            with pytest.raises(CapacityError, match=re.escape("C(25,12) = 5200300 exceeds")):
                evaluator.push(1.0)

    def test_second_moment_preconditions(self):
        for k, q in ((1, 1.0), (2, 0.0), (2, INF)):
            with pytest.raises(DomainError):
                SecondMomentPrefix(k, q)


def second_moment_oracle(v, k, q):
    """Running M_{k,2q,q} of ``v`` in 50-digit arithmetic, from the moments
    of a k-sample drawn without replacement.

    With b = a**q, mu = p1/n and var = p2/n - mu**2, the mean of
    (sum_S b / k)**2 over the k-subsets S is mu**2 + var (n-k) / (k (n-1));
    while n <= k the mean is P_q, the same root of mu**2.
    """
    with mpmath.workdps(50):
        out, p1, p2 = [], mpmath.mpf(0), mpmath.mpf(0)
        for n, a in enumerate(v, 1):
            b = mpmath.mpf(a) ** q
            p1 += b
            p2 += b * b
            mu = p1 / n
            moment = mu**2 if n <= k else mu**2 + (p2 / n - mu**2) * (n - k) / (k * (n - 1))
            out.append(moment ** (1 / (2 * mpmath.mpf(q))))
        return out


@pytest.mark.parametrize("seed", range(4))
def test_second_moment_at_the_edges_of_the_range(seed):
    # entries from 1e-300 to 1e300, and powers a**q and a**(2q) far past
    # both ends of the double range; the first k entries keep a**q in range
    # for the P_q head
    rng = np.random.default_rng(seed)
    for _ in range(50):
        k = int(rng.integers(2, 7))
        q = float(rng.choice([1.0, -1.0, 0.5, -0.5, 0.25, 2.0, 3.0]))
        decades = float(rng.choice([1.0, 10.0, 150.0, 300.0]))
        logs = rng.uniform(-decades, decades, 12)
        head = min(decades, 300.0 / abs(q))
        logs[:k] = rng.uniform(-head, head, k)
        v = (10.0**logs).tolist()
        values, error = SecondMomentPrefix(k, q).extend(np.array(v))
        assert error is None
        want = second_moment_oracle(v, k, q)
        for n in range(k + 1, len(v) + 1):
            assert values[n - 1] == pytest.approx(want[n - 1], rel=1e-14), (k, q, v, n)


def pair_oracle(v):
    """Running M_{2,1,0} of ``v`` by its definition, the mean of sqrt(a_i a_j)
    over the pairs of each prefix, in 40-digit arithmetic."""
    with mpmath.workdps(40):
        out, pairs = [], mpmath.mpf(0)
        for j, a in enumerate(v):
            pairs += mpmath.fsum(mpmath.sqrt(mpmath.mpf(b) * a) for b in v[:j])
            out.append(mpmath.mpf(a) if j == 0 else pairs / (j * (j + 1) // 2))
        return out


def _wide_prefix(decades, order):
    v = log_uniform_vector(np.random.default_rng(decades), 80, decades=decades)
    return {"drawn": v, "falling": sorted(v, reverse=True), "rising": sorted(v)}[order]


# prefixes spanning 10 to 600 decades, in three orders, and prefixes led by
# one dominant term: the identity (S**2 - T) / (n (n-1)) cancelled wherever
# one term dominated S
_PAIR_PREFIXES = {
    **{f"{order}-{2 * d}-decades": _wide_prefix(d, order) for d in (5, 50, 150, 300)
       for order in ("drawn", "falling", "rising")},
    "one-then-1e-20": [1.0, 1e-20, 1e-20, 1e-20],
    "1e300-first": [1e300, 1e-300, 1e-300],
    "1e300-second": [1e-300, 1e300, 1e-300],
}


@pytest.mark.parametrize("prefix", _PAIR_PREFIXES)
def test_pair_recurrence_matches_the_definition(prefix):
    v = _PAIR_PREFIXES[prefix]
    values, error = PairGeometricMeanPrefix().extend(np.array(v))
    assert error is None
    for got, want in zip(values.tolist(), pair_oracle(v)):
        assert got == pytest.approx(float(want), rel=1e-14, abs=0.0)


finite_magnitudes = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300),
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=-1e-300, max_value=1e-300),
)


@given(
    head=st.lists(finite_magnitudes, max_size=8),
    tail=st.lists(finite_magnitudes, max_size=60),
    cuts=st.lists(st.integers(min_value=0, max_value=60), max_size=4),
)
# |x| > |prev| at 1e100, then -1e100 cancels it and leaves the compensation's 2.0
@example(head=[], tail=[1.0, 1e100, 1.0, -1e100], cuts=[])
@example(head=[], tail=[1.0, 1e100, 1.0, -1e100], cuts=[1, 2, 3])
@example(head=[1.0], tail=[1e100, 1.0, -1e100], cuts=[2])
# a compensation of 1.0 carried across every cut
@example(head=[2.0**53, 1.0], tail=[1.0, 1.0, -(2.0**53), 1.0], cuts=[0, 1, 2, 3])
@example(head=[], tail=[2.0**53, 1.0, 1.0, 1.0, -(2.0**53), 1.0], cuts=[2, 4])
# a sum that overflows: nan from the overflow on, under both
@example(head=[], tail=[1e308, 1e308, 1.0, -1e308], cuts=[])
@example(head=[1e308], tail=[1e308, 1.0, -1e308], cuts=[1, 2])
def test_kahan_extend_matches_add(head, tail, cuts):
    reference = KahanSum()
    blocked = KahanSum()
    listed = KahanSum()
    for x in head:  # a carried start state, compensation included
        reference.add(x)
        blocked.add(x)
    listed.add_each(head)
    want = []
    for x in tail:
        reference.add(x)
        want.append(reference.value)
    got = []
    bounds = [0, *sorted(min(c, len(tail)) for c in cuts), len(tail)]
    # the overflow examples compute inf - inf, as in the program's blocks
    with np.errstate(invalid="ignore", over="ignore"):
        for lo, hi in zip(bounds, bounds[1:]):
            got.extend(blocked.extend(tail[lo:hi]).tolist())
    assert [x.hex() for x in got] == [x.hex() for x in want]
    assert blocked.value.hex() == reference.value.hex()
    listed_values = [v for lo, hi in zip(bounds, bounds[1:]) for v in listed.add_each(tail[lo:hi])]
    assert [x.hex() for x in listed_values] == [x.hex() for x in want]
    assert listed.value.hex() == reference.value.hex()


class TestBlockEngine:
    def test_block_terms_match_per_term_formulas(self, monkeypatch):
        monkeypatch.setattr(prefix, "_BLOCK", 7)
        n = 200
        x, iterated = 1.0, []
        for _ in range(n):
            x *= 0.9
            iterated.append(x)
        expected = {
            Harmonic(): [1.0 / i for i in range(1, n + 1)],
            HarmonicTruncated(50): [1.0 / i if i <= 50 else float(i) ** -2.0 for i in range(1, n + 1)],
            PowerTail(1.7): [float(i) ** -1.7 for i in range(1, n + 1)],
            Geometric(0.9): iterated,
            CustomTerms(tuple(iterated)): iterated,
        }
        for family, want in expected.items():
            assert [t.hex() for t in family.terms(n)] == [t.hex() for t in want], family
            blocks = list(family.blocks(n))
            assert [b.size for b in blocks] == [7] * 28 + [4]
            assert np.concatenate(blocks).tolist() == want

    @pytest.mark.parametrize(
        "mean,family",
        [
            ("cmn:2,1,0", "harmonic-truncated:100"),
            ("power:0.5", "powertail:2"),
            ("power:0", "powertail:1.5"),
            ("power:-inf", "geometric:0.99"),
            ("cmn:2,2,1", "powertail:2"),
            ("cmn:3,2,0", "harmonic-truncated:10"),
            ("cmn:2,2,0", "harmonic-truncated:100"),
            # b = 0.75**(-2n/3) grows past 2**512: every e_k level rescales,
            # and M**s leaves the double range
            ("cmn:3,-2,0", "geometric:0.75"),
        ],
    )
    def test_rows_do_not_depend_on_block_size(self, monkeypatch, mean, family):
        n = 2000
        marks = [1, 2, 6, 7, 8, 13, 14, 15, 1000, 1999, n]
        runs = []
        for block in (1, 7, 8192):
            monkeypatch.setattr(prefix, "_BLOCK", block)
            rows = list(hardy._block_checkpoints(parse_mean(mean), parse_family(family), n))
            rows += list(hardy._block_checkpoints(parse_mean(mean), parse_family(family), n, marks))
            runs.append(rows)
        assert runs[0] == runs[1] == runs[2]

    def test_limit_curve_does_not_depend_on_block_size(self, monkeypatch):
        marks = [2, 3, 7, 8, 500, 2000]
        curves = []
        for block in (1, 7, 8192):
            monkeypatch.setattr(prefix, "_BLOCK", block)
            curves.append(sharpness_limit_curve(marks))
        assert curves[0] == curves[1] == curves[2]

    def test_memory_stays_flat_in_n(self):
        # Blocks, not the whole sequence, are held: 10^6 terms would take
        # 8 MB per float array if materialised.  The sweep runs its
        # crossovers in lock step, a few blocks each.
        def traced_peak(run):
            tracemalloc.start()
            try:
                return run(), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        rows, peak = traced_peak(
            lambda: list(iter_hardy_checkpoints(MeanParams(2, 1.0, 0.0), HarmonicTruncated(1000), 10**6))
        )
        assert rows[-1][0] == 10**6
        assert peak < 2 * 2**20, f"peak {peak / 2**20:.2f} MiB"
        estimates, peak = traced_peak(
            lambda: sharpness_constant_sweep(MeanParams(2, 1.0, 0.0), 10**6, [10, 1000, 10**6])
        )
        assert len(estimates) == 3
        assert peak < 2 * 2**20, f"sweep peak {peak / 2**20:.2f} MiB"

    @pytest.mark.parametrize("make", [lambda: PowerMeanPrefix(0.5), PairGeometricMeanPrefix], ids=["power", "pair"])
    def test_block_step_memory(self, make):
        # One full block step holds a few float blocks at once: the
        # evaluator's temporaries and each sum's running totals and
        # compensations, about 320 KiB and 450 KiB here.
        evaluator, means, norms, size = make(), KahanSum(), KahanSum(), prefix._BLOCK
        warm, block = (1.0 / np.arange(lo, lo + size, dtype=np.float64) for lo in (1, size + 1))
        hardy._advance(evaluator, means, norms, warm, 0, Harmonic())
        tracemalloc.start()
        try:
            hardy._advance(evaluator, means, norms, block, size, Harmonic())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * size * 8, f"peak {peak / 2**10:.0f} KiB"


class TestPartialSums:
    def test_ratio_regression_power_half(self):
        expected = fixtures.HARDY_RATIOS[("power:0.5", "powertail:2", 10**5)]
        est = hardy_partial_sum(0.5, PowerTail(2.0), 10**5)
        assert est.ratio == pytest.approx(expected["ratio"], rel=1e-12)
        assert est.mean_sum == pytest.approx(expected["mean_sum"], rel=1e-12)
        assert est.ratio < 4.0

    def test_ratio_regression_pair_mean(self):
        expected = fixtures.HARDY_RATIOS[("cmn:2,1,0", "powertail:2", 10**5)]
        est = hardy_partial_sum(MeanParams(2, 1.0, 0.0), PowerTail(2.0), 10**5)
        assert est.ratio == pytest.approx(expected["ratio"], rel=1e-12)
        assert est.ratio < 4.0

    @pytest.mark.parametrize(
        "mean, family, n",
        [
            pytest.param(mean, family, n, id=mean)
            for mean, family, n in [
                ("cmn:2,2,0", "harmonic-truncated:1000", 10**6),
                ("cmn:3,2,0", "harmonic-truncated:1000", 10**6),
                # the second-moment form
                ("cmn:2,2,1", "powertail:2", 10**5),
                ("cmn:3,-2,-1", "powertail:1.7", 10**5),
            ]
        ],
    )
    def test_ratio_regression_symmetric_mean(self, mean, family, n):
        expected = fixtures.HARDY_RATIOS[(mean, family, n)]
        est = hardy_partial_sum(parse_mean(mean), parse_family(family), n)
        assert est.ratio == pytest.approx(expected["ratio"], rel=1e-12)
        assert est.mean_sum == pytest.approx(expected["mean_sum"], rel=1e-12)
        assert est.term_sum == pytest.approx(expected["term_sum"], rel=1e-12)

    def test_checkpoint_stream(self):
        rows = list(iter_hardy_checkpoints(0.5, PowerTail(2.0), 1000, [1, 10, 1000]))
        assert [row[0] for row in rows] == [1, 10, 1000]
        # ratios are cumulative, so the final row must match the one-shot call
        est = hardy_partial_sum(0.5, PowerTail(2.0), 1000)
        assert rows[-1][3] == est.ratio

    def test_checkpoint_validation(self):
        with pytest.raises(DomainError):
            list(iter_hardy_checkpoints(0.5, PowerTail(2.0), 100, [0, 10]))
        with pytest.raises(DomainError):
            list(iter_hardy_checkpoints(0.5, PowerTail(2.0), 100, [200]))

    def test_default_checkpoints(self):
        assert default_checkpoints(7) == [1, 2, 5, 7]
        assert default_checkpoints(100)[-1] == 100
        assert 50 in default_checkpoints(100)

    def test_ratio_scale_invariance(self, rng):
        terms = log_uniform_vector(rng, 60, decades=1.0)
        base = hardy_partial_sum(MeanParams(2, 1.0, 0.0), CustomTerms(tuple(terms)), 60)
        scaled = hardy_partial_sum(
            MeanParams(2, 1.0, 0.0), CustomTerms(tuple(7.5 * t for t in terms)), 60
        )
        assert scaled.ratio == pytest.approx(base.ratio, rel=1e-12)

    def test_estimate_fields(self):
        est = hardy_partial_sum(0.5, Geometric(0.5), 50)
        assert est.n == 50
        assert est.family == Geometric(0.5)
        assert est.mean == 0.5
        assert est.ratio == pytest.approx(est.mean_sum / est.term_sum)
        family, mean, n, mean_sum, ratio = est.as_row()
        assert (family, mean, n) == ("geometric:0.5", "power:0.5", 50)
        assert (mean_sum, ratio) == (est.mean_sum, est.ratio)


class TestSharpnessExperiments:
    def test_two_terms(self):
        # M_{2,1,0}(1, 1/2) = sqrt(1/2); times n = 2
        assert sharpness_limit_experiment(2) == pytest.approx(math.sqrt(2), rel=1e-14)

    def test_curve_matches_fixture(self):
        marks = [100, 1000, 10**4]
        curve = sharpness_limit_curve(marks)
        for (n, value), mark in zip(curve, marks):
            assert n == mark
            assert value == pytest.approx(fixtures.SHARPNESS_LIMIT[mark], rel=1e-12)

    def test_curve_monotone_below_four(self):
        values = [v for _, v in sharpness_limit_curve([100, 1000, 10**4])]
        assert values == sorted(values)
        assert all(v < 4.0 for v in values)

    def test_checkpoint_validation(self):
        with pytest.raises(DomainError):
            sharpness_limit_curve([1])

    def test_sweep_matches_fixture(self):
        estimates = sharpness_constant_sweep(MeanParams(2, 1.0, 0.0), 10**5)
        expected = fixtures.SWEEP_RATIOS[10**5]
        assert [est.family.crossover for est in estimates] == sorted(expected)
        for est in estimates:
            assert est.ratio == pytest.approx(expected[est.family.crossover], rel=1e-12)
        best = max(estimates, key=lambda est: est.ratio)
        assert best.family.crossover == max(expected, key=expected.get)
        assert best.ratio < 4.0

    @pytest.mark.parametrize("mean", ["cmn:2,1,0", "cmn:3,2,0", "power:0.5"])
    def test_sweep_matches_partial_sums_bit_for_bit(self, monkeypatch, mean):
        n = 120
        ladder = [17, 1, n, 40, 17, n - 1, 1000]
        for block in (1, 7, 8192):
            monkeypatch.setattr(prefix, "_BLOCK", block)
            got = sharpness_constant_sweep(parse_mean(mean), n, ladder)
            want = [hardy_partial_sum(parse_mean(mean), HarmonicTruncated(n0), n) for n0 in sorted(set(ladder))]
            assert [(e.family, e.n) for e in got] == [(e.family, e.n) for e in want]
            assert [(e.mean_sum.hex(), e.term_sum.hex(), e.ratio.hex()) for e in got] == [
                (e.mean_sum.hex(), e.term_sum.hex(), e.ratio.hex()) for e in want
            ]

    def test_sweep_raises_the_first_crossovers_error(self):
        with pytest.raises(DomainError, match="n0 must be >= 1"):
            sharpness_constant_sweep(0.5, 100, [50, 0, 10])
        # every crossover is checked before any runs: the bad crossover 20.5
        # is reported although crossover 10 would overflow first
        with pytest.raises(DomainError, match="n0 must be an integer, got 20.5"):
            sharpness_constant_sweep(-200.0, 100, [20.5, 10])
        # a**p overflows at a = 11**-2 for crossover 10
        with pytest.raises(DomainError, match=re.escape(f"a**p left the double range for a={11.0 ** -2!r}")):
            sharpness_constant_sweep(-200.0, 100, [10])


# ---------------------------------------------------------------------------
# A divergence witness for s >= k.  For s > 0 every subset term P_q(A)**s is
# positive, so M_{k,s,q}(a_1..a_n) >= P_q(a_1..a_k) * C(n,k)**(-1/s): the
# term of the first k entries alone.  For s >= k the right side is at least
# a constant times n**(-k/s), whose sum over n diverges for every positive
# sequence, so no Hardy constant exists there.


# Each ladder the library sorts, with the name its integer check uses and
# the range error it keeps for a ladder of integers.
_LADDERS = {
    "iter_hardy_checkpoints": (
        lambda ladder: list(iter_hardy_checkpoints(0.5, PowerTail(2.0), 10, ladder)),
        "checkpoint", [0, 10], "checkpoints must lie in 1..10",
    ),
    "sharpness_limit_curve": (sharpness_limit_curve, "checkpoint", [5, 1], "checkpoint must be >= 2, got 1"),
    "sharpness_constant_sweep": (
        lambda ladder: sharpness_constant_sweep(0.5, 100, ladder), "n0", [10, 0], "n0 must be >= 1, got 0",
    ),
}


@pytest.mark.parametrize("ladder", _LADDERS)
def test_ladder_entries_are_integers_before_they_are_sorted(ladder):
    call, name, out_of_range, message = _LADDERS[ladder]
    with pytest.raises(DomainError, match=f"^{name} must be an integer, got '3'$"):
        call(["3", 10])
    # the integer error wins over the range error
    with pytest.raises(DomainError, match=f"^{name} must be an integer, got 2.5$"):
        call([2.5, 0])
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call(out_of_range)


@pytest.mark.parametrize("k, s, q", [(2, 2.0, 0.0), (2, 2.0, -1.0), (3, 3.0, -1.0), (2, 3.0, 1.0)])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_divergence_witness_for_s_at_least_k(k, s, q, seed):
    params = MeanParams(k, s, q)
    evaluator = make_prefix_evaluator(params)
    # the buffered evaluator enumerates every prefix and stops at its cap
    n = MAX_ENUMERATION_N if isinstance(evaluator, BufferedPrefix) else 2000
    rng = np.random.default_rng(seed)
    terms = np.array(log_uniform_vector(rng, n)) / np.arange(1, n + 1) ** 2
    values, error = evaluator.extend(terms)
    assert error is None
    head = power_mean(q, terms[:k].tolist())
    for m in range(k, n + 1):
        bound = head * math.comb(m, k) ** (-1.0 / s)
        assert values[m - 1] >= bound * (1.0 - 1e-12), (m, values[m - 1], bound)
    if n <= MAX_ENUMERATION_N:
        assert values[-1] == pytest.approx(cmn_mean_naive(params, terms.tolist()), rel=1e-12)
