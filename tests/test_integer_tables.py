"""Filtration levels and atomic measures on integer tables equal the ``Fraction`` reference.

Levels carry values with denominators up to 10^6, ties, negative values, rank
1 or 2 torus weights and explicit bases, at degrees 1 to 50.  Every query
must give exactly (``==``) what the ``Fraction`` code in ``table_reference``
gives: the same rationals, and the same doubles bit for bit.
"""

import json
import math
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

import table_reference as ref
from fanokit.filtration import (
    CommonBasis,
    FiltrationLevel,
    GradedFiltration,
    common_adapted_basis,
    empirical_dh,
    filtration_from_json,
    multiplicativity_warnings,
    q_m,
    successive_minima,
)
from fanokit.functionals import ek_from_minima_polynomial
from fanokit.serialize import dumps_canonical

RATIONALS = st.fractions(min_value=-40, max_value=40, max_denominator=10**6)
TILTS = [Fraction(-3), Fraction(-1, 2), Fraction(1), Fraction(5, 2), 0.75]


@st.composite
def level_data(draw, dim=None):
    """(degree, values, basis rows or None, weights or None) in Fractions."""
    dim = dim or draw(st.integers(min_value=1, max_value=8))
    pool = draw(st.lists(RATIONALS, min_size=1, max_size=3))  # repeated values make ties
    values = [draw(st.one_of(st.sampled_from(pool), RATIONALS)) for _ in range(dim)]
    rank = draw(st.sampled_from([None, 1, 2]))
    weights = None if rank is None else [tuple(draw(RATIONALS) for _ in range(rank))
                                         for _ in range(dim)]
    rows = None
    if draw(st.booleans()):
        # unit lower-triangular, rows scaled and shuffled: invertible, not the identity
        rows = [[Fraction(1) if j == i else draw(RATIONALS) if j < i else Fraction(0)
                 for j in range(dim)] for i in range(dim)]
        rows = draw(st.permutations([[x * draw(RATIONALS.filter(bool)) for x in row]
                                     for row in rows]))
    return draw(st.integers(min_value=1, max_value=50)), values, rows, weights


def _is_identity(rows) -> bool:
    return all(x == (i == j) for i, row in enumerate(rows) for j, x in enumerate(row))


@settings(max_examples=80, deadline=None)
@given(level_data(), st.integers(min_value=0, max_value=3))
@example(data=(1, [Fraction(0)], [[Fraction(1)]], None), ambient_dim=0)  # an identity basis
def test_level_and_measure_queries_match_reference(data, ambient_dim):
    m, values, rows, weights = data
    lv = FiltrationLevel(m, rows, values, weights)
    assert lv.values == tuple(values) and lv.dim == len(values)
    # an explicit identity basis is the standard basis, stored as none
    assert lv.basis == (None if rows is None or _is_identity(rows) else tuple(map(tuple, rows)))
    assert lv.weights == (None if weights is None else tuple(weights))
    F = GradedFiltration({m: lv})
    # the JSON reader builds the same table
    assert filtration_from_json(json.loads(json.dumps(F.to_json()))).level(m) == lv

    assert successive_minima(lv) == ref.successive_minima(values)
    assert q_m(F, m) == ref.q_m(values, m)
    nu = empirical_dh(F, m, ambient_dim)
    atoms = ref.empirical_atoms(values, weights, m, ambient_dim)
    assert nu.atoms == atoms
    assert nu.to_json() == ref.to_json(atoms)
    assert nu._cdf == ref.cdf(atoms)
    assert [nu.moment(k) for k in range(5)] == [ref.moment(atoms, k) for k in range(5)]
    assert nu.log_exp_moments(TILTS) == ref.log_exp_moments(atoms, TILTS)


def _least_row(row):
    """(d, the row times d) for the least positive common denominator d, by hand."""
    d = math.lcm(*(x.denominator for x in row))
    return d, [int(x * d) for x in row]


@settings(max_examples=80, deadline=None)
@given(level_data(), st.integers(min_value=-6, max_value=6).filter(bool))
def test_level_table_entry_point_is_canonical(data, k):
    """A level built from rationals equals the one ``_from_tables`` builds from k times the
    least tables, k < 0 included: the same ``==``, hash and JSON bytes."""
    m, values, rows, weights = data
    lv = FiltrationLevel(m, rows, values, weights)
    den, nums = _least_row(values)
    basis = None if rows is None else [_least_row(r) for r in rows]
    wden = math.lcm(*(x.denominator for w in weights or () for x in w))
    wnums = None if weights is None else [[int(x * wden) for x in w] for w in weights]
    tables = FiltrationLevel._from_tables(
        m, k * den, [k * n for n in nums],
        None if basis is None else [(k * s, [k * x for x in r]) for s, r in basis],
        k * wden, None if wnums is None else [[k * x for x in w] for w in wnums])
    assert tables == lv and hash(tables) == hash(lv)
    assert (dumps_canonical(GradedFiltration({m: tables}).to_json())
            == dumps_canonical(GradedFiltration({m: lv}).to_json()))


@st.composite
def filtrations(draw):
    degrees = draw(st.lists(st.integers(min_value=1, max_value=50), min_size=6, max_size=8,
                            unique=True))
    return {m: draw(level_data())[1] for m in degrees}


@settings(max_examples=60, deadline=None)
@given(filtrations(), st.integers(min_value=0, max_value=2), st.integers(min_value=1, max_value=3),
       st.fractions(min_value=Fraction(1, 10**6), max_value=40, max_denominator=10**6))
def test_filtration_queries_match_reference(values_by_degree, ambient_dim, k, volume):
    F = GradedFiltration({m: FiltrationLevel(m, None, vals)
                          for m, vals in values_by_degree.items()})
    assert multiplicativity_warnings(F) == ref.multiplicativity_warnings(values_by_degree)
    degrees = sorted(values_by_degree)
    assert (ek_from_minima_polynomial(F, degrees, k, ambient_dim, volume)
            == ref.ek_from_minima_polynomial(values_by_degree, degrees, k, ambient_dim, volume))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.tuples(level_data(dim=n), level_data(dim=n))))
def test_common_adapted_basis_matches_reference(pair):
    (_, values0, rows0, _), (_, values1, rows1, _) = pair
    got = common_adapted_basis(FiltrationLevel(1, rows0, values0),
                               FiltrationLevel(1, rows1, values1))
    assert got == CommonBasis(*ref.common_adapted_basis(values0, rows0, values1, rows1))
