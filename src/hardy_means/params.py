"""What the user writes: exponents, integers, vector files, mean specs.

Mean exponents live in R extended by +inf and -inf.  Plain Python floats
already model that set with the right total order (-inf < x < +inf for
every finite x), so exponents are ordinary floats throughout the package.
The only value that must never leak in is NaN, which would silently break
every comparison; :func:`ensure_exponent` rejects it at the boundaries.

A mean spec is either a plain float, the order p of the power mean P_p,
or a :class:`MeanParams` triple (k, s, q) naming the subset-composed mean
M_{k,s,q}.  This module also reads vector files, one decimal per line,
for the ``mean --file`` and ``custom:<file>`` inputs.  It needs no numpy,
so the classifier and the command line can parse and print specs and read
vectors without loading the numerical kernels.  It also holds
:class:`Record`, the base of every immutable record of the package, which
spares every command the import of ``dataclasses`` and, on the numpy-free
path, of ``inspect`` and ``ast``.
"""

from __future__ import annotations

import math
import operator

from .errors import DomainError

__all__ = [
    "ensure_exponent", "parse_exponent", "format_exponent",
    "Record", "MeanParams", "MeanLike", "require_int", "read_vector_file", "parse_params", "parse_mean", "format_mean",
]


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


class Record:
    """An immutable record: what ``@dataclass(frozen=True)`` gives the
    package's records, field by field from ``__slots__``.

    A subclass names its fields in ``__slots__`` and passes their values,
    normalised, to ``Record.__init__`` in that order.  Records have the
    dataclass ``repr``, compare equal to records of the same class with
    equal keys, hash as their key, refuse assignment and deletion, and
    copy and pickle by calling the class again with every field.  The key
    is the tuple of the fields; a subclass whose equality ignores a field,
    as ``field(compare=False)`` does, overrides :meth:`_key`.
    """

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    _key = _fields  # what equality and hash compare

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()


class MeanParams(Record):
    """Parameter triple (k, s, q) of a subset-composed mean."""

    __slots__ = ("k", "s", "q")

    def __init__(self, k: int, s: float, q: float):
        super().__init__(require_int(k, "k", 1), ensure_exponent(s, "s"), ensure_exponent(q, "q"))


# A plain float means the power mean of that order, a MeanParams triple
# means the subset-composed mean.
MeanLike = float | int | MeanParams


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
