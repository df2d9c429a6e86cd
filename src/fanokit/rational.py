"""Exact rational scalars, vectors and small dense linear algebra.

Everything combinatorial in the geometry and filtration layers is exact
rational arithmetic, in ``fractions.Fraction`` or in integers over a common
denominator, so that degeneracy decisions (facet incidence, flag nesting,
ties between successive minima) are exact.  Floats appear only when a value
is handed to the numeric integration kernel.

Every elimination (rank, determinant, solves, echelon forms, coordinates)
scales each row to integers once and runs one fraction-free core, Bareiss's
integer-preserving elimination (Math. Comp. 1968): Python ``int`` arithmetic
with one exact division per update and no gcd per step.

Exact tables elsewhere (polytopes, simplices, affine forms, filtration
levels, atomic measures) are rows of integers over one positive denominator,
as a rule the least: ``_over`` makes one from rows of rationals, ``_reduced``
from integer rows over any nonzero denominator, and ``_fractions`` and
``_format_row`` are a row's ``Fraction`` and JSON views.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm, prod

from .errors import InputError

Vector = tuple[Fraction, ...]
Matrix = list[list[Fraction]]


def rat(x) -> Fraction:
    """Parse a rational from int, Fraction, 'p/q' or decimal string, or [p, q] pair.

    A string accepts exactly what ``Fraction(str)`` accepts, with the same
    value.  An integer string is read by one ``int`` and a 'p/q' string by
    two, without the ``Fraction`` regex, wherever ``Fraction(str)`` would read
    the same digits; any other string goes to ``Fraction(str)``.
    A value outside double range is an input error: every rational a
    document holds is rounded to a double somewhere downstream.
    """
    q = _exact(x)
    return Fraction(q) if type(q) is int else q


#: past this magnitude an integer may round beyond the largest double
_BIG = 2**1023


def _exact(x) -> int | Fraction:
    """``rat(x)``, except that an int or an integer string stays an ``int``."""
    # a JSON string first, read by int(): an integer string with one call, 'p/q' with two
    if type(x) is str and "_" not in x:  # Fraction(str) takes '_' only from Python 3.11
        try:
            if "/" not in x:
                q = int(x)
                if -_BIG < q < _BIG:
                    return q
            else:
                num, _, den = x.partition("/")
                # int() takes a sign and spaces that Fraction takes only at the ends of 'p/q'
                if not (num[-1:].isdecimal() and den[:1].isdecimal()):
                    return _parsed(x)
                q = Fraction(int(num), int(den))
        except ValueError:  # a decimal, an exponent or no number: Fraction's regex decides
            return _parsed(x)
        except ZeroDivisionError as exc:
            raise InputError(f"unparsable rational string {x!r}") from exc
    elif isinstance(x, str):
        return _parsed(x)
    elif isinstance(x, Fraction):
        return x
    elif isinstance(x, bool):
        raise InputError(f"not a rational: {x!r}")
    elif isinstance(x, int):
        q = int(x)
    elif isinstance(x, float):
        # floats only arrive from JSON constants (NaN, Infinity) or solver iterates;
        # read as decimals (cast first: numpy scalars repr differently)
        return _exact(repr(float(x)))
    elif isinstance(x, (list, tuple)) and len(x) == 2:
        try:
            q = Fraction(int(x[0]), int(x[1]))
        except (ValueError, ZeroDivisionError, TypeError) as exc:
            raise InputError(f"unparsable rational pair {x!r}") from exc
    else:
        raise InputError(f"not a rational: {x!r}")
    return _in_range(q, x)


def _parsed(x: str) -> Fraction:
    """``Fraction(x)`` inside double range; anything else is an InputError."""
    try:
        q = Fraction(x)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"unparsable rational string {x!r}") from exc
    return _in_range(q, x)


def _in_range(q, x):
    """``q``, parsed from ``x``, if it rounds to a finite double; else an InputError."""
    # |q| < 2^(bits of numerator - bits of denominator + 1): only a long
    # numerator can reach 2^1024, and only that one pays for the exact test
    if q.numerator.bit_length() - q.denominator.bit_length() >= 1023:
        try:
            float(q)
        except OverflowError as exc:
            raise InputError(f"{x!r} is outside double range") from exc
    return q


def parse_number(value, name: str, kind=int, minimum=None):
    """``int(value)``, or ``float(rat(value))`` for ``kind=float``, at least ``minimum``
    when one is given; anything else, a boolean included, is an input error."""
    if isinstance(value, bool):
        raise InputError(f"{name} {value!r} is not a number")
    try:
        number = float(rat(value)) if kind is float else kind(value)
    except (InputError, TypeError, ValueError, OverflowError) as exc:
        noun = "an integer" if kind is int else "a rational number in double range"
        raise InputError(f"{name} {value!r} is not {noun}") from exc
    if minimum is not None and number < minimum:
        raise InputError(f"{name} must be at least {minimum}, got {value!r}")
    return number


def need(doc, name: str, *keys, kind=None):
    """The values of ``keys`` in ``doc``, which must be a JSON object holding them all.

    One key gives its value and several give a tuple, as ``operator.itemgetter``
    does; no key only checks that ``doc`` is an object.  With ``kind`` (``list``)
    each value must be of that type.  ``name`` names ``doc`` in the error.
    """
    fields = " and ".join(f"'{k}'" for k in keys) + (" fields" if len(keys) > 1 else " field")
    if not isinstance(doc, dict):
        wanted = f" with the {fields}" if keys else ""
        raise InputError(f"{name} must be a JSON object{wanted}, got {type(doc).__name__}")
    if not all(k in doc for k in keys):
        raise InputError(f"{name} needs the {fields}")
    values = tuple(doc[k] for k in keys)
    for key, value in zip(keys, values):
        if kind is not None and not isinstance(value, kind):
            raise InputError(f"{key} of {name} must be a JSON {kind.__name__}, "
                             f"got {type(value).__name__}")
    return values[0] if len(keys) == 1 else values


def _sequence(value, name: str, what: str):
    """``value`` if it iterates as a sequence; a string, bytes, an object or a scalar does not."""
    if isinstance(value, (str, bytes, dict)) or not hasattr(value, "__iter__"):
        raise InputError(f"{name} must be a JSON list of {what}, got {type(value).__name__}")
    return value


def rat_vector(value, name: str = "vector", length: int | None = None) -> Vector:
    """Rationals from a list, tuple, generator or array, ``length`` of them when one is
    given; anything else is an InputError naming ``name``."""
    return _vector(rat, value, name, length)


def rat_rows(value, name: str, width: int | None = None) -> tuple[Vector, ...]:
    """A list of ``rat_vector`` rows, each ``width`` long when one is given."""
    return _rows(rat, value, name, width)


def exact_vector(value, name: str, length: int | None = None) -> tuple:
    """``rat_vector`` with each integer entry left an ``int``: no ``Fraction`` per
    entry for tables that scale their rows to integers anyway."""
    return _vector(_exact, value, name, length)


def exact_rows(value, name: str, width: int | None = None) -> tuple:
    """``rat_rows`` with each integer entry left an ``int``, as ``exact_vector``."""
    return _rows(_exact, value, name, width)


def _vector(parse, value, name: str, length: int | None) -> tuple:
    vec = tuple(map(parse, value if type(value) is list else _sequence(value, name, "rationals")))
    if length is not None and len(vec) != length:
        raise InputError(f"{name} has {len(vec)} entries, not {length}")
    return vec


def _rows(parse, value, name: str, width: int | None) -> tuple:
    """``_vector`` over each row of ``value``; a JSON list row takes no call of its own."""
    rows = []
    for row in _sequence(value, name, "vectors"):
        vec = tuple(map(parse, row if type(row) is list
                        else _sequence(row, f"each row of the {name}", "rationals")))
        if width is not None and len(vec) != width:
            raise InputError(f"each row of the {name} has {len(vec)} entries, not {width}")
        rows.append(vec)
    return tuple(rows)


def format_rat(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _over(rows) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(d, each row times d) for rows of ints and Fractions, d the lcm of their
    entries' denominators: the least positive common denominator."""
    rows = tuple(map(tuple, rows))
    if set(map(type, chain.from_iterable(rows))) <= {int}:
        return 1, rows
    d = lcm(*(x.denominator for r in rows for x in r))
    return d, tuple(tuple(x.numerator * (d // x.denominator) for x in r) for r in rows)


def _reduced(den: int, rows) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """``_over`` of the rational rows ``rows / den`` (integer rows, nonzero den):
    den and the rows divided by their gcd, negated with a negative den."""
    rows = tuple(map(tuple, rows))
    g = gcd(den, *chain.from_iterable(rows))
    if den < 0:
        g = -g
    if g == 1:
        return den, rows
    return den // g, tuple(tuple(x // g for x in r) for r in rows)


def _weight_table(den: int, rows) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """``_reduced`` of the torus weights ``rows / den``, which must all have one rank."""
    if len(set(map(len, rows))) > 1:
        raise InputError("torus weights of mixed rank")
    return _reduced(den, rows)


def _integer_row(row) -> tuple[int, tuple[int, ...]]:
    """``_over`` of the one row ``row``: (d, the row times d)."""
    d, (ints,) = _over((row,))
    return d, ints


def _fractions(nums, d: int) -> tuple[Fraction, ...]:
    """The ``Fraction`` view of the integer row ``nums`` over the denominator ``d``."""
    return tuple(map(Fraction, nums)) if d == 1 else tuple(Fraction(n, d) for n in nums)


def _format_row(nums, d: int) -> list[str]:
    """``format_rat(Fraction(n, d))`` for each n, d > 0, without the ``Fraction``s."""
    if d == 1:
        return list(map(str, nums))
    out = []
    for n in nums:
        g = gcd(n, d)
        out.append(str(n // g) if g == d else f"{n // g}/{d // g}")
    return out


def _format_over(n: int, d: int) -> str:
    """``_format_row`` of the one entry ``n``."""
    return _format_row((n,), d)[0]


def integer_rows(rows) -> list[tuple[int, ...]]:
    """Each row scaled by the lcm of its denominators: same row space, integer entries."""
    return [_integer_row(row)[1] for row in rows]


def _bareiss(a: list[list[int]], ncols: int, reduced: bool) -> tuple[list[int], int, int]:
    """Fraction-free elimination of the integer rows ``a``, in place.

    Bareiss's integer-preserving elimination: pivots are taken top row first in
    the first ``ncols`` columns (later columns are carried along), and each
    update ``(p * x - f * y) / prev`` divides exactly by the previous pivot, so
    every entry stays an integer minor of the input.  With ``reduced`` the
    pivot columns are cleared above their pivot row too (fraction-free
    Gauss-Jordan), and every pivot entry ends equal to the last pivot ``d``.

    Returns the pivot columns (row k holds the pivot of column pivots[k]), the
    last pivot ``d`` (1 if there is none) and the sign of the row permutation.
    """
    nrows = len(a)
    pivots: list[int] = []
    prev, sign = 1, 1
    for col in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if a[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        prow = a[r]
        p = prow[col]
        for i in range(0 if reduced else r + 1, nrows):
            if i == r:
                continue
            row = a[i]
            f = row[col]
            if f:
                a[i] = [(p * x - f * y) // prev for x, y in zip(row, prow)]
            elif p != prev:
                a[i] = [p * x // prev for x in row]
        pivots.append(col)
        prev = p
    return pivots, prev, sign


def det(rows: Matrix) -> Fraction:
    """Exact determinant of a square matrix (Bareiss elimination on integer rows)."""
    n = len(rows)
    scaled = [_integer_row(row) for row in rows]
    pivots, d, sign = _bareiss([r for _, r in scaled], n, reduced=False)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * d, prod(s for s, _ in scaled))


def matrix_rank(rows) -> int:
    a = integer_rows(rows)
    return len(_bareiss(a, len(a[0]), reduced=False)[0]) if a else 0


def solve_square(rows, rhs) -> Vector | None:
    """Solve A x = rhs exactly: the coordinates of rhs in A's columns; None if A is singular."""
    solved = coordinates(list(zip(*rows)), [rhs])
    return None if solved is None else tuple(Fraction(x, solved[0]) for x in solved[1][0])


def independent_rows(rows) -> list[int]:
    """Indices of the rows that are independent of all rows before them."""
    a = integer_rows(rows)
    return _bareiss([list(c) for c in zip(*a)], len(a), reduced=False)[0] if a else []


def coordinates(basis, vectors) -> tuple[int, list[list[int]]] | None:
    """Coordinates of each vector in the rows of a square basis, in integers.

    Returns ``(d, coords)`` with coords[k][j] / d the j-th coordinate of
    vectors[k]; None if the basis is singular.
    """
    n = len(basis)
    a = integer_rows(zip(*basis, *vectors))
    pivots, d, _ = _bareiss(a, n, reduced=True)
    if len(pivots) < n:
        return None
    return d, [[a[j][n + k] for j in range(n)] for k in range(len(vectors))]
