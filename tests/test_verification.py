import math
from types import SimpleNamespace

import pytest

from hardy_means import run_verification
from hardy_means import routes, verification


def test_suite_passes_at_small_sizes():
    results = run_verification(vectors=40, n_limit=10**3, seed=3)
    names = [r.name for r in results]
    assert names == [
        "oracle-equivalence",
        "qs-monotonicity",
        "k-monotonicity",
        "theorem1-identity",
        "internality",
        "homogeneity",
        "divergence-witness",
        "limit-experiment",
    ]
    for result in results:
        assert result.passed, (result.name, result.worst, result.detail)
        assert math.isfinite(result.worst)


def test_quick_tier_defaults():
    results = run_verification(quick=True, vectors=20, n_limit=10**3, seed=1)
    assert all(r.passed for r in results)


def test_injected_fault_is_named(monkeypatch):
    # negative control: corrupt the symmetric-function recurrence and the
    # oracle-equivalence property must fail by name
    genuine = routes._elementary_symmetric

    def broken(values, k, p):
        ek, exponent = genuine(values, k, p)
        return ek * math.exp(0.05), exponent

    monkeypatch.setattr(routes, "_elementary_symmetric", broken)
    results = run_verification(vectors=25, n_limit=10**3, seed=3)
    by_name = {r.name: r for r in results}
    assert not by_name["oracle-equivalence"].passed
    assert by_name["oracle-equivalence"].worst > 1e-10


@pytest.mark.parametrize("seed", range(20))
def test_every_property_passes_at_seed(seed):
    for result in run_verification(vectors=25, n_limit=1000, seed=seed):
        assert result.passed, (result.name, result.worst, result.detail)


def test_same_seed_same_results():
    sizes = {"vectors": 25, "n_limit": 1000}
    assert run_verification(**sizes, seed=7) == run_verification(**sizes, seed=7)


def test_witness_shortfall_is_named(monkeypatch):
    # negative control: a mean 10% below its value falls short of the
    # divergence witness's lower bound, and the property fails by name
    genuine = verification.cmn_mean_fast
    monkeypatch.setattr(
        verification, "cmn_mean_fast", lambda params, v: SimpleNamespace(value=0.9 * genuine(params, v).value)
    )
    by_name = {r.name: r for r in run_verification(vectors=25, n_limit=10**3, seed=3)}
    assert not by_name["divergence-witness"].passed
    assert by_name["divergence-witness"].worst > 1e-12
