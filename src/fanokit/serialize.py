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
    out: list[str] = []
    _emit(obj, "\n" + " " * indent, out)
    return "".join(out)


def _emit(obj, newline: str, out: list) -> None:
    """Append the text of ``obj`` to ``out``; ``newline`` is a line break and the
    indent of the line ``obj`` starts on.

    Dispatch is on the exact type, a string member is written with its key
    or separator, and any other type, a subclass included, takes
    ``_scalar``.  A list is joined before it is appended, so the parts alive
    at once are those of the lists being written, not of the whole text.
    """
    kind = type(obj)
    if kind is dict:
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(obj, key=str):
            value = obj[key]
            head = sep + encode_basestring(str(key)) + ": "
            if type(value) is str:
                out.append(head + encode_basestring(value))
            else:
                out.append(head)
                _emit(value, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif kind is list or kind is tuple:
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "," + inner
        parts = ["[" + inner]
        for value in obj:
            if type(value) is str:
                parts.append(encode_basestring(value))
            else:
                _emit(value, inner, parts)
            parts.append(sep)
        parts[-1] = newline + "]"
        out.append("".join(parts))
    elif kind is str:
        out.append(encode_basestring(obj))
    elif kind is float:
        out.append(_format_float(obj))
    elif kind is int:
        out.append(str(obj))
    else:
        out.append(_scalar(obj, newline))


def _scalar(obj, newline: str) -> str:
    """The text of any other value, by the first of these tests it passes."""
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
    if isinstance(obj, (dict, list, tuple)):
        # a subclass of a container: written as the container
        out: list[str] = []
        _emit(dict(obj) if isinstance(obj, dict) else list(obj), newline, out)
        return "".join(out)
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
