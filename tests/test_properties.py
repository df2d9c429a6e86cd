"""Property-based tests of the exact algebraic invariants."""

import math
from fractions import Fraction

from hypothesis import assume, example, given, settings, strategies as st

from fanokit.expint import (
    PLConcaveFunction,
    _superlevel_share,
    _survival_spline,
    simplex_exp_integral,
    superlevel_gvolume,
)
from fanokit.filtration import (
    FiltrationLevel,
    GradedFiltration,
    rescale_shift,
    successive_minima,
    twist,
)
from fanokit.functionals import LPolicy, na_report
from fanokit.geometry import AffineForm, RationalPolytope, Simplex, halfspace_slice, pairing_form
from fanokit.measure import DHMeasure
from fanokit.rational import det

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=8)
positive_rationals = st.fractions(min_value=Fraction(1, 8), max_value=8, max_denominator=8)


@st.composite
def levels(draw, with_weights=False):
    dim = draw(st.integers(min_value=1, max_value=5))
    values = draw(st.lists(rationals, min_size=dim, max_size=dim))
    weights = None
    if with_weights:
        weights = [(draw(rationals),) for _ in range(dim)]
    m = draw(st.integers(min_value=1, max_value=6))
    return FiltrationLevel.from_values(m, values, weights)


@settings(max_examples=60, deadline=None)
@given(levels(), positive_rationals, rationals)
def test_rescale_shift_round_trip_exact(lv, a, b):
    F = GradedFiltration({lv.degree: lv})
    back = rescale_shift(rescale_shift(F, a, b), 1 / a, -b / a)
    assert back.level(lv.degree).values == lv.values


@settings(max_examples=60, deadline=None)
@given(levels(with_weights=True), rationals)
def test_twist_involution_exact(lv, xi):
    F = GradedFiltration({lv.degree: lv})
    back = twist(twist(F, (xi,)), (-xi,))
    assert back.level(lv.degree).values == lv.values


@settings(max_examples=60, deadline=None)
@given(levels(with_weights=True), positive_rationals, rationals, rationals)
def test_rescale_commutes_with_minima(lv, a, b, xi):
    F = GradedFiltration({lv.degree: lv})
    m = lv.degree
    direct = successive_minima(rescale_shift(F, a, b).level(m))
    expected = sorted((a * v + b * m for v in lv.values), reverse=True)
    assert direct == expected


@st.composite
def atomic_measures(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    atoms = [(draw(rationals), draw(positive_rationals), None) for _ in range(n)]
    return DHMeasure.atomic(atoms)


@settings(max_examples=60, deadline=None)
@given(atomic_measures(), positive_rationals, rationals)
def test_affine_transform_identities(mu, a, b):
    moved = mu.affine_transform(a, b)
    # composition against the inverse is the identity on atoms
    back = moved.affine_transform(1 / a, -b / a)
    assert back.atoms == mu.atoms
    # first moment is equivariant: E(aX + b) = aE + b
    assert abs(moved.moment(1) - (float(a) * mu.moment(1) + float(b))) < 1e-10
    # exponential moment identity
    lhs = moved.exp_moment(1)
    rhs = mu.exp_moment(a) * math.exp(-float(b))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


@settings(max_examples=60, deadline=None)
@given(atomic_measures(), positive_rationals)
# equality cases: a single atom, and two atoms at one position
@example(DHMeasure.dirac(-7, Fraction(5, 8)), Fraction(11, 7))
@example(DHMeasure.dirac(Fraction(-23, 3), Fraction(3, 8)), Fraction(23, 8))
@example(DHMeasure.atomic([(-7, Fraction(1, 3), None), (-7, Fraction(2, 3), None)]),
         Fraction(11, 7))
def test_jensen_property(mu, a):
    assert mu.exp_moment(a) >= math.exp(-float(a) * mu.moment(1)) - 1e-12


@st.composite
def pushforward_measures(draw):
    """Two affine pieces, joined continuously, on an interval, with a weight xi."""
    lo = draw(rationals)
    mid = lo + draw(positive_rationals) / 2
    hi = mid + draw(positive_rationals) / 2
    g1, g2 = draw(rationals), draw(rationals)
    cells = [(Simplex.make([[lo], [mid]]), AffineForm.make([g1], 0)),
             (Simplex.make([[mid], [hi]]), AffineForm.make([g2], (g1 - g2) * mid))]
    G = PLConcaveFunction.make(RationalPolytope.interval(lo, hi), cells)
    return DHMeasure.pushforward(G, [draw(rationals)])


@settings(max_examples=60, deadline=None)
@given(st.one_of(atomic_measures(), pushforward_measures()),
       st.fractions(min_value=-10**4, max_value=10**4, max_denominator=64))
@example(DHMeasure.dirac(1), Fraction(-10**4))
@example(DHMeasure.uniform(0, 1), Fraction(10**4))
def test_shift_rule_property(mu, b):
    """S_tilde(mu + b) = S_tilde(mu) + b and H is unchanged, for far shifts too."""
    L = LPolicy.weight_twist()
    base = na_report(mu, L)
    moved = na_report(mu.affine_transform(1, b), L.transformed(1, b))
    tol = 1e-12 * max(1.0, abs(float(b)))
    assert abs(moved.S_tilde - (base.S_tilde + float(b))) <= tol
    assert abs(moved.H - base.H) <= tol


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def simplices_2d(draw):
    base = (draw(small_rationals), draw(small_rationals))
    e1 = (draw(small_rationals), draw(small_rationals))
    e2 = (draw(small_rationals), draw(small_rationals))
    assume(e1[0] * e2[1] - e1[1] * e2[0] != 0)
    return Simplex.make([
        base,
        (base[0] + e1[0], base[1] + e1[1]),
        (base[0] + e2[0], base[1] + e2[1]),
    ])


@settings(max_examples=40, deadline=None)
@given(simplices_2d(), rationals, rationals, rationals)
@example(Simplex.make([(0, 0), (1, 0), (0, 1)]), Fraction(0), Fraction(0), Fraction(0))
def test_slice_and_complement_tile_the_simplex(s, g1, g2, level):
    h = AffineForm.make([g1, g2])
    up = sum((p.volume() for p in halfspace_slice(s, h, level)), Fraction(0))
    down = sum((p.volume() for p in halfspace_slice(s, h.scaled(-1), -level)),
               Fraction(0))
    total = s.volume()
    if all(h(v) == level for v in s.vertices):
        # h is constant at the level: both closed slices are the whole simplex
        assert up == down == total
    else:
        # the two closed slices overlap on {h = level}, a null set, so volumes add exactly
        assert up + down == total


@st.composite
def lattice_slices(draw):
    """A lattice simplex in 1-4 D, an affine h on it (zero gradient entries
    tie vertex values) and a level: a vertex value, below the minimum, above
    the maximum or anywhere."""
    n = draw(st.integers(min_value=1, max_value=4))
    coords = st.integers(min_value=-2, max_value=2)
    vertices = [tuple(draw(coords) for _ in range(n)) for _ in range(n + 1)]
    edges = [[Fraction(x - y) for x, y in zip(v, vertices[0])] for v in vertices[1:]]
    assume(det(edges) != 0)
    s = Simplex.make(vertices)
    h = AffineForm.make([draw(st.integers(min_value=-2, max_value=2)) for _ in range(n)],
                        draw(rationals))
    values = [h(v) for v in s.vertices]
    level = draw(st.one_of(st.sampled_from(values),
                           st.just(min(values) - 1), st.just(max(values) + 1),
                           st.fractions(min_value=min(values) - 1, max_value=max(values) + 1,
                                        max_denominator=12)))
    return s, h, level


@settings(max_examples=120, deadline=None)
@given(lattice_slices())
@example((Simplex.make([[0, 0], [1, 0], [0, 1]]), AffineForm.make([0, 0], 1), Fraction(1)))
@example((Simplex.make([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]),
          AffineForm.make([1, 1, 0], 0), Fraction(0)))
def test_superlevel_share_matches_exact_slice(case):
    """The B-spline share P(h >= t) equals the sliced volume share, exactly."""
    s, h, level = case
    sliced = sum((p.volume() for p in halfspace_slice(s, h, level)), Fraction(0))
    share = _superlevel_share([h(v) for v in s.vertices], level)
    assert share == sliced / s.volume()
    # superlevel_gvolume against the weighted path at xi = 0 (slice, then integrate)
    n = s.dim
    G = PLConcaveFunction.make(RationalPolytope.from_vertices(s.vertices), [(s, h)])
    zero = pairing_form((0,) * n, n)
    weighted = [math.factorial(n) * simplex_exp_integral(p, zero).value
                for p in halfspace_slice(s, h, level)]
    want = math.fsum(weighted) if weighted else 0.0
    assert abs(superlevel_gvolume(G, level) - want) <= 1e-14 * want


@settings(max_examples=30, deadline=None)
@given(simplices_2d(), rationals, rationals, rationals, rationals)
def test_integral_shift_identity(s, g1, g2, c, shift):
    """int e^{-(l + shift)} = e^{-shift} int e^{-l} for constant shifts."""
    l = AffineForm.make([g1, g2], c)
    base = simplex_exp_integral(s, l).value
    moved = simplex_exp_integral(s, l.shifted(shift)).value
    expected = base * math.exp(-float(shift))
    assert abs(moved - expected) <= 1e-11 * max(abs(expected), 1e-30)

@st.composite
def cell_tables(draw):
    """(table, n): n + 1 vertex values and an n! vol per cell, drawn from a small pool
    of values so that tied and flat cells are common."""
    n = draw(st.integers(min_value=1, max_value=4))
    pool = draw(st.lists(rationals, min_size=1, max_size=n + 2, unique=True))
    cells = draw(st.lists(st.tuples(st.lists(st.sampled_from(pool), min_size=n + 1, max_size=n + 1),
                                    st.integers(min_value=1, max_value=6)),
                          min_size=1, max_size=4))
    return tuple((tuple(values), Fraction(det)) for values, det in cells), n


@settings(max_examples=80, deadline=None)
@given(cell_tables(), st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=24),
                               min_size=1, max_size=6))
@example((((tuple(map(Fraction, (0, 0, 0))), Fraction(1)),
           (tuple(map(Fraction, (0, 1, 1))), Fraction(2))), 2),
         [Fraction(1, 2)])  # a flat cell (an atom) at a knot of a tied cell
@example(((((Fraction(-1), Fraction(2), Fraction(2), Fraction(2), Fraction(5)), Fraction(3)),), 4),
         [Fraction(2), Fraction(3)])
# residues of order 2 at two knots, then of orders 4 and 1 with the tie below or above
@example(((((Fraction(0), Fraction(0), Fraction(1), Fraction(1), Fraction(3)), Fraction(2)),), 4),
         [Fraction(1), Fraction(1, 2)])
@example(((((Fraction(0), Fraction(0), Fraction(0), Fraction(0), Fraction(1)), Fraction(1)),), 4),
         [Fraction(0), Fraction(1, 3)])
@example(((((Fraction(-1), Fraction(2), Fraction(2), Fraction(2), Fraction(2)), Fraction(5)),), 4),
         [Fraction(2), Fraction(1, 2)])
def test_survival_spline_matches_shares(case, levels):
    """The spline equals sum det * P_s(G >= t) exactly, at its knots and in between."""
    table, n = case
    d = math.lcm(*(v.denominator for values, _ in table for v in values))
    spline = _survival_spline(d, [[int(v * d) for v in values] for values, _ in table],
                              [det for _, det in table], n)
    for t in [*levels, *spline.knots, spline.knots[0] - 1, spline.knots[-1] + 1]:
        assert spline(t) == sum((det * _superlevel_share(values, t) for values, det in table),
                                Fraction(0))
