"""Extended-real exponents.

Mean exponents live in R extended by +inf and -inf.  Plain Python floats
already model that set with the right total order (-inf < x < +inf for
every finite x), so exponents are ordinary floats throughout the package.
The only value that must never leak in is NaN, which would silently break
every comparison; these helpers reject it at the boundaries.
"""

from __future__ import annotations

import math

from .errors import DomainError

__all__ = ["ensure_exponent", "parse_exponent", "format_exponent"]


def ensure_exponent(value, name: str = "exponent") -> float:
    """Validate an extended-real exponent and return it as a float."""
    try:
        p = float(value)
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be a real number or +/-inf, got {value!r}")
    if math.isnan(p):
        raise DomainError(f"{name} must not be NaN")
    return p


def parse_exponent(text: str, name: str = "exponent") -> float:
    """Parse an exponent token: a decimal literal, ``inf`` or ``-inf``."""
    try:
        p = float(text.strip())
    except ValueError:
        raise DomainError(f"cannot parse {name} from {text!r}")
    return ensure_exponent(p, name)


def format_exponent(p: float) -> str:
    """Render an exponent the way :func:`parse_exponent` reads it.

    Integer-valued exponents drop the trailing ``.0`` so that mean labels
    read ``cmn:2,1,0`` rather than ``cmn:2,1.0,0.0``.
    """
    if p == math.inf:
        return "inf"
    if p == -math.inf:
        return "-inf"
    if p == int(p):
        return str(int(p))
    return repr(p)
