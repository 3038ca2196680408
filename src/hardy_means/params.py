"""Mean parameters and their text form.

A mean spec is either a plain float, the order p of the power mean P_p,
or a :class:`MeanParams` triple (k, s, q) naming the subset-composed mean
M_{k,s,q}.  This module also reads vector files, one decimal per line,
for the ``mean --file`` and ``custom:<file>`` inputs.  It needs no numpy,
so the classifier and the command line can parse and print specs and read
vectors without loading the numerical kernels.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Union

from .errors import DomainError
from .extreal import ensure_exponent, format_exponent, parse_exponent

__all__ = [
    "MeanParams", "MeanLike", "require_int", "read_vector_file", "parse_params", "parse_mean", "format_mean",
]


def require_int(value, name: str, minimum: int | None = None) -> int:
    """``value`` as a Python int of at least ``minimum`` (of any size when
    ``minimum`` is None).

    Accepts what ``operator.index`` accepts (ints and numpy integers) except
    ``bool``; every count, size and seed the package takes goes through here.
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        number = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and number < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {number}")
    return number


def read_vector_file(path: str) -> list[float]:
    """The decimals in ``path``, one per line; '#' starts a comment.  A line
    that is not a decimal raises a DomainError naming ``<path>:<line>``."""
    values = []
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                text = raw.split("#", 1)[0].strip()
                if not text:
                    continue
                try:
                    values.append(float(text))
                except ValueError:
                    raise DomainError(f"{path}:{lineno}: not a decimal number: {text!r}")
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read {path}: {exc}")
    return values


@dataclass(frozen=True)
class MeanParams:
    """Parameter triple (k, s, q) of a subset-composed mean."""

    k: int
    s: float
    q: float

    def __post_init__(self):
        object.__setattr__(self, "k", require_int(self.k, "k", 1))
        object.__setattr__(self, "s", ensure_exponent(self.s, "s"))
        object.__setattr__(self, "q", ensure_exponent(self.q, "q"))


# A plain float means the power mean of that order, a MeanParams triple
# means the subset-composed mean.
MeanLike = Union[float, int, MeanParams]


def parse_params(text: str, needs: str) -> MeanParams:
    """Parse ``<k>,<s>,<q>``; a wrong part count raises ``"<needs>, got <text>"``."""
    parts = text.split(",")
    if len(parts) != 3:
        raise DomainError(f"{needs}, got {text!r}")
    try:
        k = int(parts[0])
    except ValueError:
        raise DomainError(f"k must be an integer, got {parts[0]!r}")
    return MeanParams(k, parse_exponent(parts[1], "s"), parse_exponent(parts[2], "q"))


def parse_mean(text: str) -> MeanLike:
    """Parse ``power:<p>`` or ``cmn:<k>,<s>,<q>`` (inf/-inf tokens allowed)."""
    kind, _, arg = text.strip().partition(":")
    kind = kind.lower()
    if kind == "power":
        return parse_exponent(arg, "power-mean order")
    if kind == "cmn":
        return parse_params(arg, "cmn mean needs three parameters k,s,q")
    raise DomainError(f"unknown mean {text!r}; expected power:<p> or cmn:<k>,<s>,<q>")


def format_mean(mean: MeanLike) -> str:
    if isinstance(mean, MeanParams):
        return f"cmn:{mean.k},{format_exponent(mean.s)},{format_exponent(mean.q)}"
    return f"power:{format_exponent(ensure_exponent(mean, 'p'))}"
