"""The scalar prefix engine against the block engine.

:func:`hardy_means.prefix.iter_checkpoints` runs every closed-form prefix
experiment under its work cap one term at a time, without numpy; the
block engine, :func:`hardy_means.hardy.iter_hardy_checkpoints`, runs the
same recurrences on arrays.  Both must give the same rows by
``float.hex``, and the same error after the same rows.
"""

import math
import random

import numpy as np
import pytest

import regression_fixtures as fixtures
from hardy_means import CustomTerms, DomainError, Geometric, Harmonic, HarmonicTruncated, MeanParams, PowerTail
from hardy_means import parse_family, parse_mean, prefix
from hardy_means.hardy import iter_hardy_checkpoints


def hex_rows(rows):
    """The rows an iterator yields, floats as ``float.hex``, then the type
    and message of the error it raised, or None."""
    got = []
    try:
        for i, mean_sum, term_sum, ratio in rows:
            got.append((i, mean_sum.hex(), term_sum.hex(), ratio.hex()))
    except DomainError as exc:
        return got, (type(exc), str(exc))
    return got, None


def both_routes(mean, family, n, checkpoints=None):
    """(scalar, block) outcomes of one experiment; the scalar engine must
    be the one :func:`prefix.iter_checkpoints` picks."""
    assert prefix._make_scalar_evaluator(mean, n) is not None
    scalar = hex_rows(prefix.iter_checkpoints(mean, family, n, checkpoints))
    return scalar, hex_rows(iter_hardy_checkpoints(mean, family, n, checkpoints))


def steps_per_term(mean) -> int:
    kind, *args = prefix.prefix_form(mean)
    return prefix._SCALAR_FORMS[kind][1](*args)


# ---------------------------------------------------------------------------
# The families


_FAMILIES = [
    Harmonic(),
    HarmonicTruncated(1),
    HarmonicTruncated(100),
    HarmonicTruncated(8192),
    PowerTail(1.5),
    PowerTail(2.0),
    PowerTail(3.7),
    PowerTail(400.0),  # n**-400 underflows to 0 from n = 7
    Geometric(0.5),
    Geometric(0.999),
    CustomTerms(tuple(math.exp(math.sin(0.37 * i) * 40.0) for i in range(8193))),
]


@pytest.mark.parametrize("count", [8191, 8192, 8193])
def test_terms_equal_the_blocks(count):
    # terms, for the scalar engine, and blocks, for the block engine, are
    # two generators of the same sequence; 8192 is the block length
    for family in _FAMILIES:
        if isinstance(family, Geometric) and count > family.max_length():
            continue
        blocks = np.concatenate(list(family.blocks(count))).tolist()
        assert [t.hex() for t in family.terms(count)] == [t.hex() for t in blocks], family


@pytest.mark.parametrize("ratio", [0.05, 0.3, 0.5, 0.9, 0.99])
def test_geometric_terms_at_the_horizon(ratio):
    family = Geometric(ratio)
    horizon = family.max_length()
    terms = list(family.terms(horizon))
    assert [t.hex() for t in terms] == [t.hex() for t in np.concatenate(list(family.blocks(horizon))).tolist()]
    assert len(terms) == horizon and terms[-1] > 0.0
    for make in (family.terms, family.blocks):
        with pytest.raises(DomainError, match=f"underflows after {horizon} terms; requested {horizon + 1}$"):
            make(horizon + 1)


def test_terms_validate_the_count_when_called():
    for family in _FAMILIES:
        with pytest.raises(DomainError, match="count must be >= 1"):
            family.terms(0)
    with pytest.raises(DomainError, match="term 8194 would be zero"):
        _FAMILIES[-1].terms(8194)


# ---------------------------------------------------------------------------
# The choice of engine


def test_the_cap_reads_the_mean_and_n():
    cap = prefix._PREFIX_STEPS
    for spec, steps in (("power:0.5", 2), ("cmn:2,1,0", 2), ("cmn:3,2,0", 9), ("cmn:7,-1,0", 13),
                        ("cmn:2,2,1", 9), ("cmn:4,1,1", 2)):
        mean = parse_mean(spec)
        assert steps_per_term(mean) == steps
        assert prefix._make_scalar_evaluator(mean, cap // steps) is not None
        assert prefix._make_scalar_evaluator(mean, cap // steps + 1) is None
    # a mean with no closed form always runs on the block engine
    assert prefix._make_scalar_evaluator(parse_mean("cmn:3,2,-1"), 1) is None


def test_both_engines_read_one_decision():
    from hardy_means.hardy import make_prefix_evaluator

    for spec in ("power:0.5", "power:-inf", "cmn:1,2,1", "cmn:3,1.5,1.5", "cmn:2,1,0", "cmn:2,2,0", "cmn:4,-2,0",
                 "cmn:2,2,1", "cmn:3,-1,-0.5"):
        mean = parse_mean(spec)
        kind = prefix.prefix_form(mean)[0]
        assert type(prefix._make_scalar_evaluator(mean)) is prefix._SCALAR_FORMS[kind][0], spec
        assert type(make_prefix_evaluator(mean)).__name__ == {
            "power": "PowerMeanPrefix", "pair": "PairGeometricMeanPrefix",
            "symmetric": "SymmetricFunctionPrefix", "second-moment": "SecondMomentPrefix",
        }[kind], spec


# ---------------------------------------------------------------------------
# Rows and errors by both engines


def _draw_mean(draw: random.Random):
    exponent = lambda: draw.choice([-math.inf, -1000.0, -3.0, -1.0, -0.5, 0.0, 1e-13, 0.5, 1.0, 2.0, 1000.0,
                                    math.inf, round(draw.uniform(-4.0, 4.0), 3)])
    kind = draw.choice(["power", "k=1", "s=q", "pair", "symmetric", "second-moment"])
    if kind == "power":
        return exponent()
    if kind == "k=1":
        return MeanParams(1, exponent(), exponent())
    if kind == "s=q":
        q = exponent()
        return MeanParams(draw.randint(2, 6), q, q)
    if kind == "pair":
        return MeanParams(2, 1.0, 0.0)
    if kind == "symmetric":
        return MeanParams(draw.randint(2, 8), draw.choice([-1.0, 1.0]) * 10.0 ** draw.uniform(-1.0, 1.3), 0.0)
    q = draw.choice([-1.0, 1.0]) * 10.0 ** draw.uniform(-1.0, 1.0)
    return MeanParams(draw.randint(2, 6), 2.0 * q, q)


def _draw_family(draw: random.Random, n: int):
    kind = draw.choice(["harmonic-truncated", "powertail", "geometric", "custom"])
    if kind == "harmonic-truncated":
        return HarmonicTruncated(draw.randint(1, n + 1))
    if kind == "powertail":
        return PowerTail(draw.choice([1.1, 1.5, 2.0, 3.0, 50.0, round(draw.uniform(1.01, 6.0), 2)]))
    if kind == "geometric":
        return Geometric(draw.choice([0.3, 0.9, 0.999, round(draw.uniform(0.01, 0.99), 3)]))
    decades = draw.choice([1.0, 10.0, 150.0, 300.0])
    length = n if draw.random() < 0.8 else draw.randint(1, n)  # sometimes shorter than N
    return CustomTerms(tuple(10.0 ** draw.uniform(-decades, decades) for _ in range(length)))


@pytest.mark.parametrize("seed", range(60))
def test_seeded_experiments_match_the_block_engine(seed):
    draw = random.Random(seed)
    mean = _draw_mean(draw)
    n = max(1, int(math.exp(draw.uniform(0.0, math.log(prefix._PREFIX_STEPS // steps_per_term(mean))))))
    family = _draw_family(draw, n)
    checkpoints = None if seed % 2 else range(1, n + 1)
    scalar, block = both_routes(mean, family, n, checkpoints)
    assert scalar == block, (mean, family, n)


@pytest.mark.parametrize(
    "mean, family, n",
    [
        # a**p leaves the double range at n = 2
        ("power:-1000", "powertail:2", 100),
        # 7**-400 underflows to 0: a non-positive term at n = 7, after the
        # subnormal 6**-400
        ("cmn:2,1,0", "powertail:400", 10),
        ("cmn:3,2,0", "powertail:400", 10),
        # the geometric horizon: 1074 terms of 0.5**n, and one more is refused before any row
        ("cmn:2,1,0", "geometric:0.5", 1074),
        ("power:0.5", "geometric:0.5", 1075),
        ("cmn:3,-2,0", "geometric:0.75", 2000),
    ],
)
def test_failures_match_the_block_engine(mean, family, n):
    scalar, block = both_routes(parse_mean(mean), parse_family(family), n)
    assert scalar == block


@pytest.mark.parametrize(
    "mean",
    ["power:2", "power:0.5", "power:0", "power:-inf", "power:-1", "cmn:2,1,0", "cmn:3,2,0", "cmn:3,-2,0",
     "cmn:2,2,1", "cmn:3,-1,-0.5", "cmn:2,0.5,0.25"],
)
@pytest.mark.parametrize(
    "entries",
    [
        [1.7e308] * 4,  # the norm passes the largest double at n = 2
        [1.0, 1.7e308, 2.0, 1.7e308],
        [5e-324] * 3,  # the smallest subnormal: powers underflow, or leave the normal range
        [1.0, 5e-324, 0.5, 5e-324, 3.0],
        [1e300, 1e-300, 5e-324, 1.7e308],
    ],
    ids=["largest", "largest-mid", "smallest", "smallest-mid", "both-ends"],
)
def test_edge_entries_match_the_block_engine(tmp_path, mean, entries):
    path = tmp_path / "terms.txt"
    path.write_text("".join(f"{x!r}\n" for x in entries), encoding="utf-8")
    family = parse_family(f"custom:{path}")
    for checkpoints in (None, range(1, len(entries) + 1)):
        scalar, block = both_routes(parse_mean(mean), family, len(entries), checkpoints)
        assert scalar == block


# The fixtures' experiments that have a one-term form, at N <= 10**5: the
# scalar engine runs each whatever its cap, and the 10**6-term ones are
# left to the block engine.
_FIXTURES = [
    key for key in fixtures.HARDY_RATIOS
    if key[2] <= 10**5 and prefix._make_scalar_evaluator(parse_mean(key[0])) is not None
]


@pytest.mark.parametrize("key", _FIXTURES, ids=[",".join(map(str, key)) for key in _FIXTURES])
def test_regression_fixtures_through_both_engines(key):
    spec, family_spec, n = key
    mean, family = parse_mean(spec), parse_family(family_spec)
    scalar = list(prefix._scalar_checkpoints(prefix._make_scalar_evaluator(mean), family, n, [n]))
    block = list(iter_hardy_checkpoints(mean, family, n, [n]))
    assert [tuple(map(float.hex, row[1:])) for row in scalar] == [tuple(map(float.hex, row[1:])) for row in block]
    want = fixtures.HARDY_RATIOS[key]
    _, mean_sum, term_sum, ratio = scalar[-1]
    assert (mean_sum, term_sum, ratio) == pytest.approx((want["mean_sum"], want["term_sum"], want["ratio"]), rel=1e-12)
