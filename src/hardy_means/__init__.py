"""Subset-composed power means, Hardy-constant experiments, classification.

The package evaluates the two-level means M_{k,s,q} (order-s power mean of
the order-q power means of all k-element sub-tuples), measures truncated
Hardy ratios sum_n M(a_1..a_n) / sum_n a_n for standard sequence families,
and classifies the (k, s, q) parameter space into Hardy / NotHardy / Open
regions.  See the ``hardy-means`` CLI for the command-line surface.

Importing the package loads only the numpy-free modules (the classifier,
the parameter specs and the error types).  Every other export is imported
from its module on first access (PEP 562), so ``hardy-means classify`` and
``hardy-means --help`` never load numpy, and neither do the exports of
the numpy-free ``routes`` (``power_mean`` and ``cmn_mean_fast`` with its
``EvalMethod`` and ``CmnEvalReport``) and ``prefix`` (the sequence
families, ``parse_family`` and ``iter_hardy_checkpoints``, which runs
short prefix experiments without arrays).
"""

import importlib

# ``classify`` is bound here, after its submodule is imported, so the
# package attribute is the function and not the submodule of that name.
from .classify import Classification, Reason, Verdict, classification_table, classify
from .errors import CapacityError, DomainError
from .params import MeanParams, format_mean, parse_mean

__version__ = "0.1.0"

# Exports imported on first access, by defining module.
_LAZY_EXPORTS = {
    "cmn_means": (
        "check_k_monotonicity",
        "check_qs_monotonicity",
        "cmn_mean_naive",
        "cmn_mean_sampled",
        "theorem1_identity_check",
    ),
    "hardy": (
        "HardyEstimate",
        "hardy_partial_sum",
        "landau_constant",
        "sharpness_constant_sweep",
        "sharpness_limit_curve",
        "sharpness_limit_experiment",
        "sharpness_sequence",
    ),
    "prefix": ("CustomTerms", "Geometric", "Harmonic", "HarmonicTruncated", "PowerTail", "iter_hardy_checkpoints",
               "parse_family"),
    "routes": ("CmnEvalReport", "EvalMethod", "check_positive_vector", "cmn_mean_fast", "power_mean",
               "power_mean_lower_bound_check"),
    "verification": ("PropertyResult", "run_verification"),
}
_LAZY_MODULE = {name: module for module, names in _LAZY_EXPORTS.items() for name in names}

# The eager imports above, then every lazy export, each named once.
__all__ = [
    "CapacityError", "Classification", "DomainError", "MeanParams", "Reason", "Verdict",
    "classification_table", "classify", "format_mean", "parse_mean",
    *_LAZY_MODULE,
    "__version__",
]


def __getattr__(name):
    module = _LAZY_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
