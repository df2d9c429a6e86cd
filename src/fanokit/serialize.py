"""Deterministic JSON/CSV emission.

Floats are printed with 17 significant digits (round-trip exact), keys are
sorted, and separators are fixed, so re-running a job on the same inputs
yields byte-identical artifacts regardless of dict order.
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring

from .errors import NonFiniteResult
from .rational import format_rat


def _format_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise NonFiniteResult(f"non-finite float in output: {x}")
    text = format(x, ".17g")
    # normalize -0 and bare integers for stability across platforms
    if text == "-0":
        text = "0"
    return text


def dumps_canonical(obj, indent: int = 0) -> str:
    """Canonical JSON text: sorted keys, two-space indent, strings escaped as
    ``json`` escapes them (non-ASCII kept), Fractions as "p/q" strings."""
    pad = " " * indent
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return encode_basestring(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _format_float(obj)
    if isinstance(obj, Fraction):
        return '"' + format_rat(obj) + '"'
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj, key=str):
            items.append(
                pad + "  " + encode_basestring(str(key)) + ": "
                + dumps_canonical(obj[key], indent + 2)
            )
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [pad + "  " + dumps_canonical(v, indent + 2) for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def csv_table(header, rows) -> str:
    def cell(v):
        if isinstance(v, float):
            return _format_float(v)
        if isinstance(v, Fraction):
            return format_rat(v)
        return str(v)

    lines = [",".join(header)]
    lines.extend(",".join(cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"
