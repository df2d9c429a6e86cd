"""The parser, the W1 loop, the serializer and the degeneration against ``command_reference``.

Each package version must reproduce its reference exactly: ``_exact`` the
value or the ``InputError`` of the per-string ``Fraction`` parser (which
agrees with ``Fraction(str)`` on the running Python), ``wasserstein1`` the
same bits on atomic, 1-D, 2-D and weighted pushforward pairs,
``dumps_canonical`` the same bytes, and ``initial_term_degeneration``,
``from_flags``, ``twist`` and ``rescale_shift`` the same level tables.
"""

import itertools
import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import command_reference as ref
from fanokit.errors import FanokitError, InputError, NonFiniteResult
from fanokit.expint import PLConcaveFunction
from fanokit.filtration import (
    FiltrationLevel,
    GradedFiltration,
    MonomialModel,
    initial_term_degeneration,
    rescale_shift,
    twist,
    weight_filtration,
)
from fanokit.geometry import AffineForm, RationalPolytope, Simplex
from fanokit.measure import DHMeasure, _w1_linear, wasserstein1
from fanokit.rational import _exact
from fanokit.serialize import dumps_canonical

# ---------------------------------------------------------------------------
# rational strings


def _outcome(parse, s):
    try:
        return "value", parse(s)
    except InputError as exc:
        return "error", str(exc)


def _check_string(s):
    got = _outcome(_exact, s)
    assert got == _outcome(ref.exact, s)
    try:
        want = Fraction(s)
        float(want)
    except (ValueError, ZeroDivisionError, OverflowError):
        assert got[0] == "error"
        return
    assert got == ("value", want)


DIGITS = "0123456789"
# Arabic-Indic and fullwidth digits are decimal digits, superscript two is not
ODD = "٣٤１²"
SPACES = " \t\n\x1c　 "


@st.composite
def rational_strings(draw):
    """A signed digit string, optionally over another, with spaces, underscores,
    non-ASCII digits and lengths up to past int's 4300-digit string limit."""
    def digits():
        n = draw(st.sampled_from([1, 2, 3, 17, 308, 309, 310, 400, 4300, 4301, 5000]))
        head = draw(st.text(alphabet=DIGITS + ODD + "_", min_size=1, max_size=4))
        return head + "7" * (n - 1) if n > 4 else draw(st.text(alphabet=DIGITS + "_",
                                                                 min_size=1, max_size=n))
    text = draw(st.text(alphabet=SPACES, max_size=2)) + draw(st.sampled_from(["", "-", "+"]))
    text += digits()
    if draw(st.booleans()):
        text += (draw(st.sampled_from(["", " ", "\t"])) + "/"
                 + draw(st.sampled_from(["", " ", "+", "-"])) + digits())
    return text + draw(st.text(alphabet=SPACES, max_size=2))


@pytest.mark.parametrize("s", [
    "1_0", "-1_0/3", "1/1_0", "1__0", "_1", "1_", "3/-4", "3/+4", "3 /4", "3/ 4", " 3/4 ",
    "+3/4", "-3/4", "- 3", "٣/٤", "１２", "²", "²/3", "3/²",
    "7\x1c", "　7", "1/0", "0/5", "-0", "/3", "3/", "1/2/3", "1.5/2", "1e3", "0.5",
    "9" * 308, "9" * 309, "1" * 5000, "1/" + "1" * 5000, "1" * 400 + "/" + "1" * 100,
])
def test_exact_matches_reference_and_fraction(s):
    _check_string(s)


@settings(max_examples=400, deadline=None)
@given(st.one_of(rational_strings(), st.text(alphabet=DIGITS + ODD + SPACES + "+-_/.eE",
                                             max_size=10)))
def test_exact_string_property(s):
    _check_string(s)


# ---------------------------------------------------------------------------
# Wasserstein-1

SMALL = st.fractions(min_value=-5, max_value=5, max_denominator=12)


@st.composite
def atomic_measures(draw):
    pool = draw(st.lists(SMALL, min_size=1, max_size=4))
    n = draw(st.integers(min_value=1, max_value=12))
    positions = [draw(st.one_of(st.sampled_from(pool), SMALL)) for _ in range(n)]
    masses = [draw(st.fractions(min_value=Fraction(1, 9), max_value=5, max_denominator=9))
              for _ in range(n)]
    return DHMeasure.atomic(list(zip(positions, masses)))


@st.composite
def interval_pushforwards(draw):
    """A piecewise-linear function on a partition of an interval: linear CDF pieces."""
    nodes = sorted(set(draw(st.lists(SMALL, min_size=2, max_size=5))))
    if len(nodes) < 2:
        nodes = [nodes[0], nodes[0] + 1]
    values = [draw(SMALL) for _ in nodes]
    cells = []
    for (x0, v0), (x1, v1) in zip(zip(nodes, values), zip(nodes[1:], values[1:])):
        slope = (v1 - v0) / (x1 - x0)
        cells.append((Simplex.make([[x0], [x1]]), AffineForm.make([slope], v0 - slope * x0)))
    dom = RationalPolytope.interval(nodes[0], nodes[-1])
    return DHMeasure.pushforward(PLConcaveFunction.make(dom, cells))


@st.composite
def square_pushforwards(draw):
    """A piecewise-linear function on the two Kuhn triangles of a rectangle:
    quadratic CDF pieces, so W1 takes the general loop."""
    w, h = draw(st.sampled_from([1, 2, Fraction(1, 2)])), draw(st.sampled_from([1, 3]))
    corners = [(0, 0), (w, 0), (w, h), (0, h)]
    value = {c: draw(SMALL) for c in corners}
    cells = []
    for tri in ((corners[0], corners[1], corners[2]), (corners[0], corners[3], corners[2])):
        (x0, y0), (x1, y1), (x2, y2) = tri
        v0, v1, v2 = (value[c] for c in tri)
        d = Fraction((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0))
        gx = ((v1 - v0) * (y2 - y0) - (v2 - v0) * (y1 - y0)) / d
        gy = ((x1 - x0) * (v2 - v0) - (x2 - x0) * (v1 - v0)) / d
        cells.append((Simplex.make(tri), AffineForm.make([gx, gy], v0 - gx * x0 - gy * y0)))
    transform = PLConcaveFunction.make(RationalPolytope.from_vertices(corners), cells)
    return DHMeasure.pushforward(transform)


MEASURES = st.one_of(atomic_measures(), interval_pushforwards(), square_pushforwards())


@settings(max_examples=150, deadline=None)
@given(MEASURES, MEASURES)
def test_wasserstein1_bit_equal_to_reference(mu, nu):
    got, want = wasserstein1(mu, nu), ref.wasserstein1(mu, nu)
    assert math.copysign(1, got) == math.copysign(1, want)
    assert got == want or (got != got and want != want)


def test_wasserstein1_weighted_pushforward_bit_equal():
    # a weighted pushforward's CDF is a step function on a grid: the scalar loop
    square = RationalPolytope.from_vertices([(0, 0), (1, 0), (0, 1), (1, 1)])
    weighted = DHMeasure.pushforward(PLConcaveFunction.linear(square, [1, 1], 0),
                                     [Fraction(1, 2), 0])
    for other in (DHMeasure.dirac(1), DHMeasure.uniform(0, 2),
                  DHMeasure.atomic([(0, 1), (Fraction(3, 2), 2)])):
        assert wasserstein1(weighted, other) == ref.wasserstein1(weighted, other)


def test_scalar_loop_takes_mixed_and_leading_pieces():
    # constant and linear pieces mixed in one CDF, knots outside the other's support,
    # and the same loop on raw tables, against the general loop's arithmetic
    x1, p1 = [-1.0, 0.0, 0.5, 2.0], [(0.25,), (0.25, 0.5), (0.5, -0.0), (1.0,)]
    x2, p2 = [0.25, 1.0, 3.0], [(0.0, 0.75), (0.5625,), (1.0,)]

    class Table:
        def __init__(self, knots, pieces):
            self._cdf = (knots, pieces)

    for a, b in ((Table(x1, p1), Table(x2, p2)), (Table(x2, p2), Table(x1, p1))):
        assert _w1_linear(*a._cdf, *b._cdf) == ref.wasserstein1(a, b) == wasserstein1(a, b)


# ---------------------------------------------------------------------------
# canonical JSON

SCALARS = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.integers(min_value=-10**40, max_value=10**40),
    st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([0.0, -0.0, 1e-320]),
    st.text(), st.text(alphabet='"\\/\b\f\n\r\t\x00\x1f\x7f é\U0001f600'),
    st.fractions(),
)
KEYS = st.one_of(st.text(max_size=5), st.integers(min_value=-5, max_value=20))
TREES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=3).map(tuple),
                            st.dictionaries(KEYS, inner, max_size=4)),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(TREES, st.integers(min_value=0, max_value=4))
@example({"a": [], "b": {}, "c": [{}], 1: "x", "1": "y"}, 0)
def test_dumps_canonical_byte_equal_to_reference(tree, indent):
    assert dumps_canonical(tree, indent) == ref.dumps_canonical(tree, indent)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_dumps_canonical_rejects_non_finite_floats(bad):
    for tree in (bad, [1, bad], {"x": {"y": (bad,)}}):
        with pytest.raises(NonFiniteResult):
            dumps_canonical(tree)
        with pytest.raises(NonFiniteResult):
            ref.dumps_canonical(tree)


def test_dumps_canonical_subclasses_and_unknown_types():
    import collections
    import enum

    class Level(enum.IntEnum):
        LOW = 3

    tree = {"n": collections.OrderedDict(b=1, a=[True, None]), "t": collections.namedtuple(
        "P", "x y")(1.5, Fraction(-2, 3)), "e": Level.LOW, "s": collections.UserString("u")}
    del tree["s"]  # a UserString is no str: both raise TypeError
    assert dumps_canonical(tree) == ref.dumps_canonical(tree)
    for bad in (object(), {1, 2}, b"x"):
        with pytest.raises(TypeError):
            dumps_canonical([bad])


# ---------------------------------------------------------------------------
# initial-term degeneration, flags, twists and shifts

VALUES = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def degeneration_cases(draw):
    num_vars = draw(st.integers(min_value=2, max_value=3))
    m = draw(st.integers(min_value=1, max_value=4 if num_vars == 2 else 3))
    model = MonomialModel(num_vars)
    n = model.dim(m)
    pool = draw(st.lists(VALUES, min_size=1, max_size=3))
    values = [draw(st.one_of(st.sampled_from(pool), VALUES)) for _ in range(n)]
    basis = None
    if draw(st.booleans()):
        # a sparse unit lower-triangular matrix with rows scaled and shuffled
        basis = [[Fraction(1) if j == i else draw(VALUES) if j < i and draw(st.booleans())
                  else Fraction(0) for j in range(n)] for i in range(n)]
        scales = [draw(VALUES.filter(bool)) for _ in range(n)]
        basis = draw(st.permutations([[x * s for x in row] for row, s in zip(basis, scales)]))
    w = [draw(st.fractions(min_value=-3, max_value=3, max_denominator=3))
         for _ in range(num_vars)]
    return model, w, FiltrationLevel(m, basis, values), m


def _tables(lv):
    return lv.degree, lv._den, lv._nums, lv._rows, lv._wden, lv._wnums


@settings(max_examples=120, deadline=None)
@given(degeneration_cases())
@example((MonomialModel(2), [Fraction(3), Fraction(1)], FiltrationLevel(
    3, [[1, Fraction(1, 2), 0, 0], [0, 1, -1, 0], [Fraction(2, 3), 0, 1, 1], [0, 0, 0, 5]],
    [Fraction(1, 2), -2, Fraction(1, 2), Fraction(4, 3)]), 3))
def test_degenerated_levels_match_reference(case):
    model, w, lv, m = case
    F1 = GradedFiltration({m: lv}, label="F")
    got = initial_term_degeneration(model, w, F1, m)
    want = ref.initial_term_degeneration(model, w, F1, m)
    assert got.label == want.label
    assert _tables(got.level(m)) == _tables(want.level(m))
    # the twist and the weight filtration the degenerate command reads
    old = want.level(m)
    twisted = FiltrationLevel(m, old.basis, [v - a for v, (a,) in zip(old.values, old.weights)],
                              old.weights)
    assert _tables(twist(got, (-1,)).level(m)) == _tables(twisted)
    cw = model.monomial_weights(w, m)
    assert _tables(weight_filtration(model, w, m).level(m)) == _tables(
        FiltrationLevel(m, None, cw, [(c,) for c in cw]))


@st.composite
def flag_cases(draw):
    """Nested flags over random rows, with and without ambient weights: most
    nest and decompose, some do not."""
    dim = draw(st.integers(min_value=1, max_value=5))
    rows = [[draw(st.integers(-2, 2).map(Fraction)) * draw(VALUES.filter(bool))
             for _ in range(dim)] for _ in range(draw(st.integers(dim, dim + 2)))]
    cuts = sorted(draw(st.lists(st.integers(1, len(rows)), min_size=1, max_size=3)))
    values = sorted(draw(st.lists(VALUES, min_size=len(cuts), max_size=len(cuts))),
                    reverse=True)
    flags = [(v, rows[:k]) for v, k in zip(values, cuts)]
    weights = None
    if draw(st.booleans()):
        weights = [tuple(draw(st.integers(0, 2).map(Fraction)) for _ in range(draw(
            st.sampled_from([1, 1, 2])))) for _ in range(dim)]
        if draw(st.booleans()):
            # prefixes of one list of scaled unit rows: nested and decomposable
            unit = draw(st.permutations([[draw(VALUES.filter(bool)) if j == i else Fraction(0)
                                          for j in range(dim)] for i in range(dim)]))
            flags = [(v, unit[:min(k, dim)]) for v, k in zip(values[:-1], cuts)]
            flags.append((values[-1], unit))
    return dim, draw(st.permutations(flags)), weights


@settings(max_examples=200, deadline=None)
@given(flag_cases())
def test_from_flags_matches_reference(case):
    dim, flags, weights = case
    try:
        want = ref.from_flags(2, dim, flags, weights)
    except FanokitError as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            FiltrationLevel.from_flags(2, dim, flags, weights)
        return
    got = FiltrationLevel.from_flags(2, dim, flags, weights)
    assert _tables(got) == _tables(want)
    F = GradedFiltration({2: got})
    a, b = Fraction(3, 2), Fraction(-1, 3)
    assert _tables(rescale_shift(F, a, b).level(2)) == _tables(
        FiltrationLevel(2, want.basis, [a * v + b * 2 for v in want.values], want.weights))


def test_degenerate_rows_are_pivot_one_rows_over_gcd():
    # a stored row is (|p| / g, sign(p) r / g) for the echelon row r with pivot p
    model = MonomialModel(2)
    lv = FiltrationLevel(2, [[-4, 6, 2], [0, 2, 4], [0, 0, 3]], [1, 0, 0])
    got = initial_term_degeneration(model, [0, 0], GradedFiltration({2: lv}), 2).level(2)
    assert got._rows == ((2, (2, -3, -1)), (1, (0, 1, 2)), (1, (0, 0, 1)))
    assert list(itertools.chain(*got.basis)) == [1, Fraction(-3, 2), Fraction(-1, 2), 0, 1, 2,
                                                 0, 0, 1]
