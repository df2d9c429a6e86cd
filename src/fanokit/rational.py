"""Exact rational scalars, vectors and small dense linear algebra.

Everything combinatorial in the geometry and filtration layers runs on
``fractions.Fraction`` so that degeneracy decisions (facet incidence, flag
nesting, ties between successive minima) are exact.  Floats appear only when
a value is handed to the numeric integration kernel.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import InputError

Vector = tuple[Fraction, ...]
Matrix = list[list[Fraction]]


def rat(x) -> Fraction:
    """Parse a rational from int, Fraction, 'p/q' or decimal string, or [p, q] pair."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise InputError(f"not a rational: {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        # floats only arrive from literal JSON numbers or solver iterates;
        # treat them as decimals (cast first: numpy scalars repr differently)
        return Fraction(repr(float(x)))
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"unparsable rational string {x!r}") from exc
    if isinstance(x, (list, tuple)) and len(x) == 2:
        try:
            return Fraction(int(x[0]), int(x[1]))
        except (ValueError, ZeroDivisionError, TypeError) as exc:
            raise InputError(f"unparsable rational pair {x!r}") from exc
    raise InputError(f"not a rational: {x!r}")


def rat_vector(seq) -> Vector:
    return tuple(rat(x) for x in seq)


def format_rat(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v, strict=True)), Fraction(0))


def vsub(u, v) -> Vector:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def smul(c: Fraction, u) -> Vector:
    return tuple(c * a for a in u)


def det(rows: Matrix) -> Fraction:
    """Determinant by fraction-free-ish Gaussian elimination with pivoting."""
    n = len(rows)
    a = [list(r) for r in rows]
    sign = 1
    result = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        pivot = a[col][col]
        result *= pivot
        for r in range(col + 1, n):
            if a[r][col] != 0:
                factor = a[r][col] / pivot
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return sign * result


def matrix_rank(rows) -> int:
    a = [list(r) for r in rows]
    if not a:
        return 0
    ncols = len(a[0])
    rank = 0
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, len(a)) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        pivot = a[row][col]
        for r in range(len(a)):
            if r != row and a[r][col] != 0:
                factor = a[r][col] / pivot
                a[r] = [x - factor * y for x, y in zip(a[r], a[row])]
        row += 1
        rank += 1
        if row == len(a):
            break
    return rank


def solve_square(rows, rhs) -> Vector | None:
    """Solve A x = rhs exactly; None if A is singular."""
    n = len(rows)
    a = [list(r) + [b] for r, b in zip(rows, rhs, strict=True)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        pivot = a[col][col]
        a[col] = [x / pivot for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return tuple(a[r][n] for r in range(n))


def invert(rows) -> Matrix | None:
    """Exact inverse of a square matrix; None if singular."""
    n = len(rows)
    a = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        pivot = a[col][col]
        a[col] = [x / pivot for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def primitive(vec_and_offset) -> tuple:
    """Scale a rational tuple by a positive scalar to a primitive integer tuple.

    Used to canonicalize facet data (normal, offset) so duplicates compare equal.
    """
    denoms = [q.denominator for q in vec_and_offset]
    lcm = 1
    for d in denoms:
        lcm = lcm * d // gcd(lcm, d)
    ints = [int(q * lcm) for q in vec_and_offset]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(Fraction(x) for x in ints)


def affine_rank(points) -> int:
    """Dimension of the affine hull of a point set."""
    pts = list(points)
    if len(pts) <= 1:
        return 0
    base = pts[0]
    return matrix_rank([list(vsub(p, base)) for p in pts[1:]])
