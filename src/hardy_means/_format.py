"""Deterministic machine output.

CSV and JSON render floats with 17 significant digits ('%.17g'), which is
enough to round-trip a double exactly, and the JSON encoder writes keys in
sorted order with fixed separators.  Parsing emitted JSON and re-encoding
it therefore reproduces the original bytes.  Infinities become the strings
"inf"/"-inf" (JSON has no literal for them; the CLI exponent grammar reads
the same tokens back).  ``json`` and ``csv`` are imported by the encoder
that needs them, so plain output loads neither.
"""

from __future__ import annotations

import math

__all__ = ["machine_repr", "canonical_json", "rows_to_csv"]


def machine_repr(value):
    """Value as it should appear in a CSV cell or JSON document."""
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return format(value, ".17g")
    return value


def _encode(obj, out: list, quote) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(quote(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        if math.isnan(obj):
            raise ValueError("canonical JSON cannot carry NaN")
        if math.isinf(obj):
            out.append('"inf"' if obj > 0 else '"-inf"')
        else:
            out.append(format(obj, ".17g"))
    elif isinstance(obj, dict):
        out.append("{")
        first = True
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            if not first:
                out.append(",")
            out.append(quote(key))
            out.append(":")
            _encode(obj[key], out, quote)
            first = False
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _encode(item, out, quote)
        out.append("]")
    else:
        raise TypeError(f"cannot serialise {type(obj).__name__} canonically")


def canonical_json(obj) -> str:
    # what json.dumps(text, ensure_ascii=True) returns for a string
    from json.encoder import encode_basestring_ascii

    out: list = []
    _encode(obj, out, encode_basestring_ascii)
    return "".join(out)


def rows_to_csv(header: list[str], rows: list[tuple]) -> str:
    import csv
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([machine_repr(cell) for cell in row])
    return buffer.getvalue()
