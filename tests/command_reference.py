"""The rational parser, the W1 loop, the serializer and the initial-term
degeneration as the package computed them on ``Fraction`` rows and one call
per JSON node or W1 interval, and ``row_echelon``, the pivot-1 echelon form
that degeneration read (and the other references still read).

``rational._exact`` now reads integer and 'p/q' strings with ``int``,
``measure.wasserstein1`` runs a scalar loop when every CDF piece is constant
or linear, ``serialize.dumps_canonical`` appends to one list, and
``filtration.initial_term_degeneration`` hands integer echelon rows to
``from_flags``.  These copies are the references they are tested against:
the same values or errors, the same bits, the same bytes, the same tables.
"""

import math
from fractions import Fraction
from itertools import zip_longest
from json.encoder import encode_basestring

from fanokit.errors import InputError, NonFiniteResult
from fanokit.expint import _horner, _taylor_shift
from fanokit.filtration import FiltrationLevel, GradedFiltration
from fanokit.rational import (
    _bareiss,
    format_rat,
    independent_rows,
    integer_rows,
    matrix_rank,
    rat,
    rat_vector,
)

# ---------------------------------------------------------------------------
# rational parsing


def exact(x):
    """``rat(x)``, except that an int or an integer string stays an ``int``."""
    if isinstance(x, str):
        digits = x[1:] if x[:1] == "-" else x
        if digits.isascii() and digits.isdecimal() and len(digits) <= 308:
            return int(x)  # below 10^308: inside double range
        try:
            q = Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"unparsable rational string {x!r}") from exc
    elif isinstance(x, Fraction):
        return x
    elif isinstance(x, bool):
        raise InputError(f"not a rational: {x!r}")
    elif isinstance(x, int):
        q = int(x)
    elif isinstance(x, float):
        return exact(repr(float(x)))
    elif isinstance(x, (list, tuple)) and len(x) == 2:
        try:
            q = Fraction(int(x[0]), int(x[1]))
        except (ValueError, ZeroDivisionError, TypeError) as exc:
            raise InputError(f"unparsable rational pair {x!r}") from exc
    else:
        raise InputError(f"not a rational: {x!r}")
    if q.numerator.bit_length() - q.denominator.bit_length() >= 1023:
        try:
            float(q)
        except OverflowError as exc:
            raise InputError(f"{x!r} is outside double range") from exc
    return q


# ---------------------------------------------------------------------------
# Wasserstein-1


def wasserstein1(mu, nu) -> float:
    """int |F_mu - F_nu| dt, one polynomial per interval of the merged knots."""
    (x1, p1), (x2, p2) = mu._cdf, nu._cdf
    breaks = sorted(set(x1) | set(x2))
    i1 = i2 = -1
    parts = []
    for a, b in zip(breaks, breaks[1:]):
        while i1 + 1 < len(x1) and x1[i1 + 1] <= a:
            i1 += 1
        while i2 + 1 < len(x2) and x2[i2 + 1] <= a:
            i2 += 1
        diff = [f - g for f, g in zip_longest(_local(x1, p1, i1, a), _local(x2, p2, i2, a),
                                               fillvalue=0.0)]
        parts.append(_abs_integral(diff, b - a))
    return math.fsum(parts)


def _local(knots, pieces, i, a) -> list:
    if i < 0:
        return [0.0]
    return _taylor_shift(pieces[i], a - knots[i]) if a != knots[i] else list(pieces[i])


def _abs_integral(coeffs, width: float) -> float:
    anti = [0.0] + [c / (j + 1) for j, c in enumerate(coeffs)]
    cuts = [0.0, *_sign_changes(coeffs, 0.0, width), width]
    return sum(abs(_horner(anti, hi) - _horner(anti, lo)) for lo, hi in zip(cuts, cuts[1:]))


def _sign_changes(coeffs, lo: float, hi: float) -> list:
    deg = len(coeffs) - 1
    while deg > 0 and coeffs[deg] == 0:
        deg -= 1
    if deg == 0:
        return []
    if deg == 1:
        root = -coeffs[0] / coeffs[1]
        return [root] if lo < root < hi else []
    turns = _sign_changes([j * coeffs[j] for j in range(1, deg + 1)], lo, hi)
    roots = []
    for a, b in zip([lo, *turns], [*turns, hi]):
        fa = _horner(coeffs, a)
        if fa * _horner(coeffs, b) < 0:
            for _ in range(60):
                mid = 0.5 * (a + b)
                if not a < mid < b:
                    break
                if (_horner(coeffs, mid) < 0) == (fa < 0):
                    a = mid
                else:
                    b = mid
            roots.append(0.5 * (a + b))
    return roots


# ---------------------------------------------------------------------------
# canonical JSON


def _format_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise NonFiniteResult(f"non-finite float in output: {x}")
    text = format(x, ".17g")
    if text == "-0":
        text = "0"
    return text


def dumps_canonical(obj, indent: int = 0) -> str:
    """One recursive call per JSON node, each returning its text."""
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


# ---------------------------------------------------------------------------
# initial-term degeneration on Fraction rows


def row_echelon(rows, reduced: bool):
    """Pivot columns and pivot rows of an echelon form, each scaled to pivot 1.

    Row k is the k-th pivot row as elimination reaches it: zero in the
    earlier pivot columns, its later entries unreduced.  With ``reduced``
    each pivot column is zero outside its pivot row as well, which gives the
    reduced row echelon form of the row space.
    """
    a = integer_rows(rows)
    if not a:
        return [], []
    pivots, _, _ = _bareiss(a, len(a[0]), reduced)
    return pivots, [tuple(Fraction(x, a[k][c]) for x in a[k]) for k, c in enumerate(pivots)]


def from_flags(degree, dim, flags, ambient_weights=None):
    """``FiltrationLevel.from_flags``: every row a ``Fraction`` row, re-scaled by
    each rank test, and the kept basis rank-checked again by the constructor."""
    items = sorted(((rat(v), [rat_vector(r) for r in rows]) for v, rows in flags),
                   key=lambda t: -t[0])
    if any(len(r) != dim for _, rows in items for r in rows):
        raise InputError("flag rows of wrong ambient dimension")
    wts = [rat_vector(w) for w in ambient_weights] if ambient_weights is not None else None
    candidates = []
    ends = []
    for value, rows in items:
        if wts is None:
            candidates += [(tuple(row), value, None) for row in rows]
            space_rank = matrix_rank(rows)
        else:
            pieces, space_rank = weight_decompose(rows, wts)
            candidates += [(row, value, alpha) for alpha, part in pieces for row in part]
        ends.append((len(candidates), space_rank, value))
    kept = independent_rows([row for row, _, _ in candidates])
    for end, space_rank, value in ends:
        if sum(1 for k in kept if k < end) != space_rank:
            raise InputError(
                f"flag at value {value} of level {degree} is not nested/decomposable"
            )
    if len(kept) != dim:
        raise InputError(f"flags of level {degree} do not span the level")
    chosen = [candidates[k] for k in kept]
    basis = tuple(r for r, _, _ in chosen)
    values = tuple(v for _, v, _ in chosen)
    weights = tuple(w for _, _, w in chosen) if wts is not None else None
    return FiltrationLevel(degree, basis, values, weights)


def weight_decompose(rows, ambient_weights):
    """Weight pieces by coordinate projection, on ``Fraction`` rows."""
    by_weight = {}
    for j, w in enumerate(ambient_weights):
        by_weight.setdefault(w, []).append(j)
    pieces = []
    found = 0
    for alpha in sorted(by_weight):
        cols = by_weight[alpha]
        part = []
        for row in rows:
            if any(row[j] for j in cols):
                vec = [Fraction(0)] * len(row)
                for j in cols:
                    vec[j] = row[j]
                part.append(tuple(vec))
        if part:
            pieces.append((alpha, part))
            found += matrix_rank(part)
    dim_total = matrix_rank(rows)
    if found != dim_total:
        raise InputError("flag subspace is not spanned by torus-weight vectors")
    return pieces, dim_total


def initial_term_degeneration(model, w, F1, m):
    """The degeneration from ``row_echelon``'s pivot-1 ``Fraction`` rows."""
    lv = F1.level(m)
    cw = model.monomial_weights(w, m)
    col_order = sorted(range(len(cw)), key=lambda j: (cw[j], j))
    jumps = sorted(set(lv.values), reverse=True)
    flags = []
    for lam in jumps:
        reordered = [[row[j] for j in col_order] for row in lv.subspace_rows(lam)]
        reduced = row_echelon(reordered, reduced=False)[1]
        initial_rows = []
        for row in reduced:
            piv = next(j for j, x in enumerate(row) if x != 0)
            block = cw[col_order[piv]]
            vec = [Fraction(0)] * len(cw)
            for j, x in enumerate(row):
                if x != 0 and cw[col_order[j]] == block:
                    vec[col_order[j]] = x
            initial_rows.append(tuple(vec))
        flags.append((lam, initial_rows))
    level = from_flags(m, lv.dim, flags, ambient_weights=[(c,) for c in cw])
    return GradedFiltration({m: level}, label=f"in_w({F1.label or 'F'})")
