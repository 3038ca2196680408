import math

from hardy_means import run_verification
from hardy_means import routes


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
