"""Property-based tests of the exact algebraic invariants."""

import math
from fractions import Fraction

from hypothesis import assume, example, given, settings, strategies as st

from fanokit.expint import simplex_exp_integral
from fanokit.filtration import (
    FiltrationLevel,
    GradedFiltration,
    rescale_shift,
    successive_minima,
    twist,
)
from fanokit.geometry import AffineForm, Simplex, halfspace_slice
from fanokit.measure import DHMeasure

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
def test_slice_and_complement_tile_the_simplex(s, g1, g2, level):
    h = AffineForm.make([g1, g2])
    up = sum((p.volume() for p in halfspace_slice(s, h, level)), Fraction(0))
    down = sum((p.volume() for p in halfspace_slice(s, h.scaled(-1), -level)),
               Fraction(0))
    total = s.volume()
    # the two closed slices overlap on a null set, so volumes add exactly
    assert up + down == total or (up == total and down == 0) or (down == total and up == 0)


@settings(max_examples=30, deadline=None)
@given(simplices_2d(), rationals, rationals, rationals, rationals)
def test_integral_shift_identity(s, g1, g2, c, shift):
    """int e^{-(l + shift)} = e^{-shift} int e^{-l} for constant shifts."""
    l = AffineForm.make([g1, g2], c)
    base = simplex_exp_integral(s, l).value
    moved = simplex_exp_integral(s, l.shifted(shift)).value
    expected = base * math.exp(-float(shift))
    assert abs(moved - expected) <= 1e-11 * max(abs(expected), 1e-30)