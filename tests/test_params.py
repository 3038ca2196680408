import re

import numpy as np
import pytest

from hardy_means import (
    CustomTerms,
    DomainError,
    Geometric,
    Harmonic,
    HarmonicTruncated,
    MeanParams,
    PowerTail,
    cmn_mean_sampled,
    hardy_partial_sum,
    iter_hardy_checkpoints,
    sharpness_constant_sweep,
    sharpness_limit_curve,
    sharpness_sequence,
)
from hardy_means import cli
from hardy_means.classify import classification_table
from hardy_means.cmn_means import (
    _scaled_pows,
    compare_k_monotonicity,
    compare_qs_monotonicity,
    subset_log_means,
)
from hardy_means.hardy import SecondMomentPrefix, SymmetricFunctionPrefix
from hardy_means.params import require_int
from hardy_means.prefix import ElementarySymmetric, default_checkpoints
from hardy_means.verification import run_verification

BLOCK = np.array([1.0, 2.0, 3.0, 5.0, 8.0])


class TestRequireInt:
    @pytest.mark.parametrize("value", [0, 7, 2**70, np.int64(7), np.uint8(7), np.intp(0)])
    def test_returns_a_python_int(self, value):
        got = require_int(value, "n", 0)
        assert type(got) is int and got == int(value)

    @pytest.mark.parametrize("value", [2.5, 3.0, True, False, np.True_, "3", None, np.float64(3.0)])
    def test_refuses_what_is_not_an_integer(self, value):
        with pytest.raises(DomainError, match=f"^n must be an integer, got {re.escape(repr(value))}$"):
            require_int(value, "n", 0)

    def test_range_error_prints_the_int(self):
        with pytest.raises(DomainError, match=r"^seed must be >= 0, got -3$"):
            require_int(np.int64(-3), "seed", 0)
        assert require_int(-3, "shift", -3) == -3


def _bench_values(seed):
    # every bench column but the wall time
    rows, _ = cli.run_bench(samples=200, seed=seed)
    return [row[:3] + row[4:] for row in rows]


def _verify(**sizes):
    options = {"quick": True, "n_limit": 100, "vectors": 1, "seed": 1, **sizes}
    return [(r.name, r.passed, r.worst, r.detail) for r in run_verification(**options)]


def _esp(order):
    ek, exponent = ElementarySymmetric(order).extend(*_scaled_pows(BLOCK, 0.5))
    return ek.tolist(), exponent.tolist()


def _prefix_values(evaluator):
    values, error = evaluator.extend(BLOCK)
    assert error is None
    return values.tolist()


def _sweep(**kwargs):
    return [(e.family, e.mean_sum, e.term_sum) for e in sharpness_constant_sweep(0.5, **kwargs)]


ALL = (2.5, True, "3")

# (argument, a valid value, the call, the wrong values it must refuse)
ENTRY_POINTS = {
    "MeanParams": ("k", 3, lambda v: MeanParams(v, 1.0, 0.0), ALL),
    "ElementarySymmetric": ("order", 2, _esp, ALL),
    "SecondMomentPrefix": ("k", 2, lambda v: _prefix_values(SecondMomentPrefix(v, 1.0)), ALL),
    "SymmetricFunctionPrefix": ("k", 3, lambda v: _prefix_values(SymmetricFunctionPrefix(v, 1.0)), ALL),
    "Harmonic.terms": ("count", 5, lambda v: list(Harmonic().terms(v)), ALL),
    "HarmonicTruncated.terms": ("count", 5, lambda v: list(HarmonicTruncated(2).terms(v)), ALL),
    "HarmonicTruncated": ("crossover", 2, lambda v: list(HarmonicTruncated(v).terms(5)), ALL),
    "PowerTail.terms": ("count", 5, lambda v: list(PowerTail(2.0).terms(v)), ALL),
    "Geometric.terms": ("count", 5, lambda v: list(Geometric(0.5).terms(v)), ALL),
    "CustomTerms.terms": ("count", 3, lambda v: list(CustomTerms((1.0, 0.5, 0.25)).terms(v)), ALL),
    "default_checkpoints": ("N", 50, default_checkpoints, ALL),
    "iter_hardy_checkpoints": ("N", 20, lambda v: list(iter_hardy_checkpoints(0.5, PowerTail(2.0), v)), ALL),
    "iter_hardy_checkpoints.checkpoints": (
        "checkpoint", 3, lambda v: list(iter_hardy_checkpoints(0.5, PowerTail(2.0), 10, [v, 10])), ALL,
    ),
    "hardy_partial_sum": ("N", 20, lambda v: hardy_partial_sum(0.5, PowerTail(2.0), v).ratio, ALL),
    "sharpness_sequence.n0": ("n0", 3, lambda v: sharpness_sequence(v, 10), ALL),
    "sharpness_sequence.n": ("N", 10, lambda v: sharpness_sequence(3, v), ALL),
    "sharpness_limit_curve": ("checkpoint", 50, lambda v: sharpness_limit_curve([v]), ALL),
    "sharpness_constant_sweep.n": ("N", 100, lambda v: _sweep(n=v), ALL),
    "sharpness_constant_sweep.n0_values": ("n0", 10, lambda v: _sweep(n=100, n0_values=[v]), ALL),
    "subset_log_means": ("k", 2, lambda v: subset_log_means([1.0, 2.0, 3.0, 4.0], v, 1.0).tolist(), ALL),
    "compare_qs_monotonicity": ("k", 2, lambda v: compare_qs_monotonicity(v, 1.0, 2.0, 0.0, 1.0, BLOCK), ALL),
    "compare_k_monotonicity": ("k", 3, lambda v: compare_k_monotonicity(v, 2.0, 1.0, BLOCK), ALL),
    # a str is a grid of k values, each of which MeanParams refuses as k
    "classification_table": ("k_max", 3, lambda v: classification_table(v, [0.5], [0.0]), (2.5, True)),
    "cmn_mean_sampled.samples": (
        "samples", 200, lambda v: cmn_mean_sampled(MeanParams(2, 1.0, 1.0), range(1, 30), v, 7), ALL,
    ),
    # the seed times the block stride leaves int64: only a Python int keeps the stream
    "cmn_mean_sampled.seed": (
        "seed", 2**40, lambda v: cmn_mean_sampled(MeanParams(2, 1.0, 1.0), range(1, 30), 200, v), ALL,
    ),
    "run_verification.vectors": ("vectors", 2, lambda v: _verify(vectors=v), ALL),
    "run_verification.n_limit": ("N", 100, lambda v: _verify(n_limit=v), ALL),
    "run_verification.seed": ("seed", 3, lambda v: _verify(seed=v), ALL),
    "run_bench": ("seed", 3, _bench_values, ALL),
}


@pytest.fixture(autouse=True)
def small_bench(monkeypatch):
    monkeypatch.setattr(cli, "_BENCH_SIZES", (10,))


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_integer_arguments(entry):
    name, good, call, wrong = ENTRY_POINTS[entry]
    for value in wrong:
        with pytest.raises(DomainError, match=f"^{name} must be an integer, got {re.escape(repr(value))}$"):
            call(value)
    assert call(np.int64(good)) == call(good)


def test_numpy_integers_are_stored_as_ints():
    assert type(MeanParams(np.int64(3), 1.0, 0.0).k) is int
    assert type(HarmonicTruncated(np.int64(3)).crossover) is int
    assert type(cmn_mean_sampled(MeanParams(2, 1.0, 1.0), range(1, 30), np.int64(200), 7).samples) is int


# ---------------------------------------------------------------------------
# The records keep what their frozen dataclasses gave: the values pinned
# here are the ones the dataclass versions printed.

from hardy_means import CmnEvalReport, EvalMethod, Reason, Verdict, classify  # noqa: E402
from hardy_means.classify import Classification  # noqa: E402
from hardy_means.hardy import HardyEstimate  # noqa: E402
from hardy_means.verification import PropertyResult  # noqa: E402

_THEOREM1 = "the pairwise mean M(2,1,0) satisfies sum M(a_1..a_n) < 4 ||a||_1, and 4 is sharp"
_RECORDS = {
    "MeanParams": (MeanParams(2, 1, 0), "MeanParams(k=2, s=1.0, q=0.0)", (2, 1.0, 0.0)),
    "MeanParams-inf": (MeanParams(3, float("inf"), -0.5), "MeanParams(k=3, s=inf, q=-0.5)", (3, float("inf"), -0.5)),
    "Classification": (
        classify(MeanParams(2, 1, 0)),
        "Classification(verdict=<Verdict.HARDY: 'Hardy'>, reason=<Reason.THEOREM1: 'Theorem1'>, "
        f"citation='{_THEOREM1}')",
        (Verdict.HARDY, Reason.THEOREM1, _THEOREM1),
    ),
    "CmnEvalReport": (
        CmnEvalReport(1.5, EvalMethod.EXACT),
        "CmnEvalReport(value=1.5, method=<EvalMethod.EXACT: 'Exact'>, samples=None, stderr_estimate=None, "
        "note=None)",
        (1.5, EvalMethod.EXACT, None, None, None),
    ),
    "CmnEvalReport-MonteCarlo": (
        CmnEvalReport(2.0, EvalMethod.MONTE_CARLO, 100, 0.25, note="x"),
        "CmnEvalReport(value=2.0, method=<EvalMethod.MONTE_CARLO: 'MonteCarlo'>, samples=100, "
        "stderr_estimate=0.25, note='x')",
        (2.0, EvalMethod.MONTE_CARLO, 100, 0.25, "x"),
    ),
    "Harmonic": (Harmonic(), "Harmonic()", ()),
    "HarmonicTruncated": (HarmonicTruncated(10), "HarmonicTruncated(crossover=10)", (10,)),
    "PowerTail": (PowerTail(2.5), "PowerTail(exponent=2.5)", (2.5,)),
    "Geometric": (Geometric(0.5), "Geometric(ratio=0.5)", (0.5,)),
    "CustomTerms": (CustomTerms((1.0, 0.5)), "CustomTerms(values=(1.0, 0.5), source=None)", ((1.0, 0.5), None)),
    "CustomTerms-source": (
        CustomTerms((1.0, 0.5), source="t.txt"), "CustomTerms(values=(1.0, 0.5), source='t.txt')",
        ((1.0, 0.5), "t.txt"),
    ),
    "HardyEstimate": (
        hardy_partial_sum(0.5, Geometric(0.5), 3),
        "HardyEstimate(ratio=1.297034975168197, n=3, family=Geometric(ratio=0.5), mean=0.5, "
        "mean_sum=1.1349056032721725, term_sum=0.875)",
        (1.297034975168197, 3, Geometric(0.5), 0.5, 1.1349056032721725, 0.875),
    ),
    "HardyEstimate-cmn": (
        hardy_partial_sum(MeanParams(2, 1, 0), PowerTail(2), 3),
        "HardyEstimate(ratio=1.346938775510204, n=3, family=PowerTail(exponent=2.0), "
        "mean=MeanParams(k=2, s=1.0, q=0.0), mean_sum=1.8333333333333333, term_sum=1.3611111111111112)",
        (1.346938775510204, 3, PowerTail(2.0), MeanParams(2, 1.0, 0.0), 1.8333333333333333, 1.3611111111111112),
    ),
    "PropertyResult": (
        PropertyResult("limit-experiment", True, 0.25, "gap"),
        "PropertyResult(name='limit-experiment', passed=True, worst=0.25, detail='gap')",
        ("limit-experiment", True, 0.25, "gap"),
    ),
}
# the fields equality and hash compare: CustomTerms leaves out its source,
# as field(compare=False) did
_COMPARED = {CustomTerms: slice(0, 1)}


@pytest.mark.parametrize("record, text, fields", _RECORDS.values(), ids=_RECORDS)
def test_records_behave_as_frozen_dataclasses(record, text, fields):
    import copy
    import pickle

    cls = type(record)
    assert repr(record) == text
    key = fields[_COMPARED.get(cls, slice(None))]
    assert record == cls(*fields) and hash(record) == hash(cls(*fields)) == hash(key)
    assert record != fields and record.__eq__(fields) is NotImplemented
    assert {record, cls(*fields)} == {record}
    with pytest.raises(AttributeError, match="^cannot assign to field 'extra'$"):
        record.extra = 1
    if fields:
        name = text.partition("(")[2].partition("=")[0]  # the first field
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(record, name, fields[0])
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(record, name)
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls and twin == record and repr(twin) == text


def test_record_constructors_keep_their_signatures():
    assert MeanParams(k=2, s=1, q=0) == MeanParams(2, 1.0, 0.0)
    assert Classification(verdict=Verdict.OPEN, reason=Reason.OPEN_PROBLEM, citation="c").citation == "c"
    report = CmnEvalReport(value=1.5, method=EvalMethod.DEGENERATE)
    assert (report.samples, report.stderr_estimate, report.note) == (None, None, None)
    with pytest.raises(TypeError):
        MeanParams(2, 1.0)
    with pytest.raises(TypeError):
        MeanParams(2, 1.0, 0.0, x=1)
    # the normalisation and the checks run on every construction
    params = MeanParams(np.int64(3), np.float64(2.5), 1)
    assert (type(params.k), type(params.s), type(params.q)) == (int, float, float)
    assert repr(params) == "MeanParams(k=3, s=2.5, q=1.0)"
    with pytest.raises(DomainError, match="k must be >= 1"):
        MeanParams(0, 1.0, 0.0)
    with pytest.raises(DomainError, match="reported iff method is MonteCarlo"):
        CmnEvalReport(1.0, EvalMethod.MONTE_CARLO)
    with pytest.raises(DomainError, match="must be positive"):
        CmnEvalReport(0.0, EvalMethod.EXACT)


def test_converted_record_constructors_keep_their_signatures():
    assert HarmonicTruncated(crossover=np.int64(4)) == HarmonicTruncated(4)
    assert repr(PowerTail(exponent=np.int64(2))) == "PowerTail(exponent=2.0)"
    assert repr(Geometric(ratio=np.float32(0.5))) == "Geometric(ratio=0.5)"
    custom = CustomTerms(values=[1, np.float64(0.5)], source="t.txt")
    assert repr(custom) == "CustomTerms(values=(1.0, 0.5), source='t.txt')"
    estimate = HardyEstimate(ratio=1.5, n=2, family=Harmonic(), mean=MeanParams(2, 1, 0), mean_sum=3.0, term_sum=2.0)
    assert repr(estimate) == (
        "HardyEstimate(ratio=1.5, n=2, family=Harmonic(), mean=MeanParams(k=2, s=1.0, q=0.0), mean_sum=3.0, "
        "term_sum=2.0)"
    )
    result = PropertyResult(name="limit-experiment", passed=True, worst=0.25, detail="gap")
    assert result == PropertyResult("limit-experiment", True, 0.25, "gap")
    for call in (
        lambda: Harmonic(1), lambda: HarmonicTruncated(), lambda: PowerTail(2.0, 3.0), lambda: Geometric(x=0.5),
        lambda: CustomTerms(), lambda: HardyEstimate(1.5, 2), lambda: PropertyResult("x", True, 0.0),
    ):
        with pytest.raises(TypeError):
            call()
    # the checks run on every construction
    with pytest.raises(DomainError, match="finite exponent > 1"):
        PowerTail(exponent=1.0)
    with pytest.raises(DomainError, match=r"must lie in \(0, 1\)"):
        Geometric(ratio=1.0)
    with pytest.raises(DomainError):
        CustomTerms(values=(1.0, 0.0), source="t.txt")


def test_custom_terms_equality_ignores_the_source():
    named, bare = CustomTerms((1.0, 0.5), source="t.txt"), CustomTerms((1.0, 0.5))
    assert named == bare and hash(named) == hash(bare) and repr(named) != repr(bare)
    assert named != CustomTerms((1.0, 0.25), source="t.txt")
    assert {named, bare} == {named}
