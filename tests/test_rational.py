"""The fraction-free elimination core against Fraction Gauss-Jordan references.

The references are the eliminations the package used before it moved to
integer rows: they divide in ``Fraction`` at every step.  Every result of the
core is exact and unique (a rank, a determinant, a solution, an echelon form
with pivots 1), so the two must agree with ``==``.
"""

import copy
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fanokit.errors import InputError
from fanokit.filtration import FiltrationLevel
from fanokit.rational import (
    _bareiss,
    _integer_row,
    _over,
    _reduced,
    coordinates,
    det,
    independent_rows,
    matrix_rank,
    need,
    parse_number,
    rat,
    rat_rows,
    rat_vector,
    solve_square,
)

from command_reference import row_echelon
from weight_reference import matmul

# ---------------------------------------------------------------------------
# Fraction Gauss-Jordan references


def ref_det(rows):
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


def ref_rank(rows):
    a = [list(r) for r in rows]
    if not a:
        return 0
    rank = 0
    for col in range(len(a[0])):
        piv = next((r for r in range(rank, len(a)) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        pivot = a[rank][col]
        for r in range(len(a)):
            if r != rank and a[r][col] != 0:
                factor = a[r][col] / pivot
                a[r] = [x - factor * y for x, y in zip(a[r], a[rank])]
        rank += 1
        if rank == len(a):
            break
    return rank


def ref_solve(rows, rhs):
    n = len(rows)
    a = [list(r) + [b] for r, b in zip(rows, rhs)]
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


def ref_echelon(rows):
    """Each pivot row normalized to 1 as elimination reaches it (later columns unreduced)."""
    a = [list(r) for r in rows]
    pivots, out = [], []
    for col in range(len(a[0]) if a else 0):
        row = len(out)
        piv = next((r for r in range(row, len(a)) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        pivot = a[row][col]
        a[row] = [x / pivot for x in a[row]]
        for r in range(len(a)):
            if r != row and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[row])]
        pivots.append(col)
        out.append(tuple(a[row]))
        if len(out) == len(a):
            break
    return pivots, out


# ---------------------------------------------------------------------------
# strategies

entries = st.one_of(
    st.just(Fraction(0)),
    st.integers(min_value=-9, max_value=9).map(Fraction),
    st.fractions(min_value=-50, max_value=50, max_denominator=10**6),
)


@st.composite
def matrices(draw, square=False):
    """Rational matrices up to 8 x 8; some rows zero, some combinations of earlier rows."""
    nrows = draw(st.integers(min_value=1, max_value=8))
    ncols = nrows if square else draw(st.integers(min_value=1, max_value=8))
    rows = []
    for i in range(nrows):
        kind = draw(st.sampled_from(("free", "free", "zero", "combination")))
        if kind == "zero":
            rows.append([Fraction(0)] * ncols)
        elif kind == "combination" and i >= 1:
            a, b = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            c = draw(entries)
            rows.append([x + c * y for x, y in zip(rows[a], rows[b])])
        else:
            rows.append([draw(entries) for _ in range(ncols)])
    return rows


# ---------------------------------------------------------------------------
# tests


@settings(max_examples=100, deadline=None)
@given(matrices())
@example([[Fraction(0)] * 3, [Fraction(0)] * 3])
@example([[Fraction(1, 10**6), Fraction(-999_999, 10**6)], [Fraction(2), Fraction(-1999998)]])
def test_rank_and_echelon_match_reference(rows):
    assert matrix_rank(rows) == ref_rank(rows)
    assert row_echelon(rows, reduced=False) == ref_echelon(rows)
    pivots, reduced = row_echelon(rows, reduced=True)
    assert pivots == ref_echelon(rows)[0]
    for k, col in enumerate(pivots):
        assert [r[col] for r in reduced] == [int(j == k) for j in range(len(pivots))]
    assert ref_rank(rows + [list(r) for r in reduced]) == len(pivots)  # same row space


@settings(max_examples=100, deadline=None)
@given(matrices(square=True), st.data())
def test_det_and_solve_match_reference(rows, data):
    n = len(rows)
    assert det(rows) == ref_det(rows)
    rhs = data.draw(st.lists(entries, min_size=n, max_size=n))
    assert solve_square(rows, rhs) == ref_solve(rows, rhs)


@settings(max_examples=80, deadline=None)
@given(matrices(square=True), st.data())
def test_coordinates_solve_every_vector(basis, data):
    n = len(basis)
    vectors = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), max_size=4))
    solved = coordinates(basis, vectors)
    if ref_rank(basis) < n:
        assert solved is None
        return
    d, coords = solved
    for v, c in zip(vectors, coords, strict=True):
        # the coordinates reproduce the vector from the basis rows exactly
        x = [Fraction(cj, d) for cj in c]
        assert [sum(xj * row[i] for xj, row in zip(x, basis)) for i in range(n)] == v
        # and they are the reference solution of B^T x = v
        transposed = [list(col) for col in zip(*basis)]
        assert tuple(x) == ref_solve(transposed, v)


@settings(max_examples=80, deadline=None)
@given(matrices())
def test_independent_rows_are_the_greedy_basis(rows):
    kept = []
    for i, row in enumerate(rows):
        if ref_rank([rows[k] for k in kept] + [row]) > len(kept):
            kept.append(i)
    assert independent_rows(rows) == kept


@settings(max_examples=50, deadline=None)
@given(matrices(), st.data())
def test_matmul_exact(b, data):
    a = data.draw(st.lists(st.lists(entries, min_size=len(b), max_size=len(b)), max_size=4))
    want = [tuple(sum((x * row[j] for x, row in zip(r, b)), Fraction(0))
                  for j in range(len(b[0]))) for r in a]
    assert matmul(a, b) == want


# ---------------------------------------------------------------------------
# integer tables: rows of integers over the least positive common denominator


def _integers(rows):
    return [[int(x) for x in r] for r in rows]


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_over_takes_the_least_positive_denominator(rows):
    d, table = _over(rows)
    assert d == math.lcm(*(x.denominator for r in rows for x in r))
    assert [[Fraction(n, d) for n in r] for r in table] == rows
    for row in rows:  # the one-row form, each row over its own least denominator
        e, ints = _integer_row(row)
        assert e == math.lcm(*(x.denominator for x in row))
        assert [Fraction(n, e) for n in ints] == row
    # rows of ints are their own table over 1, entries kept as ints
    ints = _integers(rows)
    assert _over(ints) == (1, tuple(map(tuple, ints)))
    assert all(type(x) is int for r in _over(ints)[1] for x in r)


@settings(max_examples=100, deadline=None)
@given(matrices(), st.integers(min_value=-30, max_value=30).filter(bool))
def test_reduced_is_the_table_of_the_same_rationals(rows, den):
    """Integer rows over any nonzero den, a negative one included, reduce to the table
    ``_over`` gives for the rationals they stand for: a positive least denominator."""
    ints = _integers(rows)
    d, table = _reduced(den, ints)
    assert (d, table) == _over([[Fraction(x, den) for x in r] for r in ints])
    assert d > 0


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_eliminations_leave_their_input_rows_unchanged(rows):
    """The public eliminations copy the rows they scale; ``_bareiss`` works in place."""
    for a in (rows, _integers(rows)):
        before = copy.deepcopy(a)
        assert matrix_rank(a) == ref_rank([list(map(Fraction, r)) for r in before])
        independent_rows(a)
        assert a == before
    a = _integers(rows)
    ncols = len(a[0])
    pivots, _, _ = _bareiss(a, ncols, reduced=False)
    # the list now holds the echelon form: each pivot clears its column below it
    for k, c in enumerate(pivots):
        assert a[k][c] != 0 and all(row[c] == 0 for row in a[k + 1:])
    assert all(not any(row[:ncols]) for row in a[len(pivots):])


@settings(max_examples=80, deadline=None)
@given(matrices(), st.data())
def test_from_flag_rows_stores_the_rows_it_ranks(rows, data):
    """A flag of integer rows r / s keeps the rows ``independent_rows`` picks, each stored
    as the table ``_reduced(s, [r])``, and leaves its rows unchanged."""
    ints = _integers(rows)
    dim = len(ints[0])
    scales = data.draw(st.lists(st.integers(-5, 5).filter(bool), min_size=len(ints),
                                max_size=len(ints)))
    flag = list(zip(scales, ints))
    before = copy.deepcopy(flag)
    kept = independent_rows(ints)
    if len(kept) < dim:
        with pytest.raises(InputError, match="do not span"):
            FiltrationLevel._from_flag_rows(1, dim, 1, [(0, flag)], None, 1)
    else:
        lv = FiltrationLevel._from_flag_rows(1, dim, 1, [(0, flag)], None, 1)
        tables = [_reduced(s, [r]) for s, r in (flag[k] for k in kept)]
        want = tuple((d, r) for d, (r,) in tables)
        unit = all(d == 1 and r == tuple(int(i == j) for j in range(dim))
                   for i, (d, r) in enumerate(want))
        assert lv._rows == (None if unit else want)
    assert flag == before


# ---------------------------------------------------------------------------
# string parsing: rat(s) agrees with Fraction(s) where that rounds to a finite
# double, and raises InputError where Fraction(s) raises or lies past double range


def _check_rat_string(s):
    try:
        want = Fraction(s)
        float(want)
    except (ValueError, ZeroDivisionError, OverflowError):
        with pytest.raises(InputError):
            rat(s)
        return
    got = rat(s)
    assert type(got) is Fraction and got == want


@pytest.mark.parametrize("s", [
    "--1", "+-1", "1-", "", " 7 ", "+3", "-0", "1_000", "_1", "\u0663", "3/0", "1e3", "0.5",
    "-", "+", "0", "-12", "007", "-007", " -5", "1__0", "\u00b2", "\u0663/\u0664", "7\x1c",
    # beyond int's default 4300-digit string limit: Fraction raises ValueError
    "1" * 5000, "-" + "1" * 5000,
    # past double range, or tiny and rounding to 0
    "1e400", "-1e309", "9" * 309, "1e308", "1e-400", "9e999", "1/3e2",
])
def test_rat_string_matches_fraction(s):
    _check_rat_string(s)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789+-_ ./e", max_size=8))
@example("-")
@example("--1")
@example("-_1")
def test_rat_string_property(s):
    _check_rat_string(s)


def test_rat_rejects_values_outside_double_range():
    """An int, pair or float that no finite double rounds to is an input error."""
    top = int(sys.float_info.max)
    half_ulp = 2**970  # half the spacing of the doubles just below 2^1024
    assert rat(top) == top and rat(-top) == -top
    assert rat(top + half_ulp - 1) == top + half_ulp - 1  # still rounds down to the top
    assert rat([2**1100, 2**77]) == Fraction(2**1023)
    for bad in (top + half_ulp, -(top + half_ulp), 2**1024, 10**400, [10**400, 3],
                float("nan"), float("inf"), float("-inf")):
        with pytest.raises(InputError):
            rat(bad)
    assert parse_number("1/4", "p", float) == 0.25
    for bad in ("nan", "inf", "1e400", float("nan"), [1, 0]):
        with pytest.raises(InputError, match="^p .* is not a rational number in double range"):
            parse_number(bad, "p", float)


# ---------------------------------------------------------------------------
# the typed readers of document fields


def test_readers_take_any_iterable_and_check_shape():
    import numpy as np

    want = (Fraction(1), Fraction(-1, 2))
    for value in ([1, "-1/2"], (1, Fraction(-1, 2)), (x for x in [1, "-1/2"]),
                  np.array([1.0, -0.5])):
        assert rat_vector(value, "v", 2) == want
    assert rat_rows([[1, "-1/2"]], "rows", 2) == (want,)
    for bad in ("10", b"10", {"a": 1}, 5, True, None):
        with pytest.raises(InputError, match="^v "):
            rat_vector(bad, "v")
    with pytest.raises(InputError, match="v has 2 entries, not 3"):
        rat_vector(want, "v", 3)
    with pytest.raises(InputError, match="each row of the rows has 1 entries, not 2"):
        rat_rows([[1, 0], [1]], "rows", 2)
    doc = {"a": 1, "b": [2], "extra": None}
    assert need(doc, "doc", "a") == 1 and need(doc, "doc", "a", "b") == (1, [2])
    with pytest.raises(InputError, match="doc needs the 'a' and 'c' fields"):
        need(doc, "doc", "a", "c")
    with pytest.raises(InputError, match="a of doc must be a JSON list, got int"):
        need(doc, "doc", "a", kind=list)
    with pytest.raises(InputError, match="doc must be a JSON object, got list"):
        need([doc], "doc")
