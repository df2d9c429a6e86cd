import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fanokit.errors import (
    DimensionMismatch,
    InputError,
    MissingLevel,
    MissingTorusWeights,
    NonpositiveScale,
    NotABasis,
)
from fanokit.filtration import (
    FiltrationLevel,
    GradedFiltration,
    MonomialModel,
    _weight_decompose,
    common_adapted_basis,
    d_p_level,
    empirical_dh,
    filtration_from_json,
    initial_term_degeneration,
    multiplicativity_warnings,
    psi_m,
    q_m,
    q_of_basis,
    relative_minima,
    rescale_shift,
    successive_minima,
    twist,
    weight_filtration,
)
from fanokit.measure import DHMeasure
from fanokit.rational import matrix_rank
from fanokit.serialize import dumps_canonical

from conftest import p1_filtration, random_level
from weight_reference import weight_decompose


def trivial_filtration(dim, m=1, weights=None):
    return GradedFiltration({m: FiltrationLevel.from_values(m, [0] * dim, weights)})


def test_successive_minima_p1():
    F = p1_filtration([2, 3])
    assert successive_minima(F.level(2)) == [0, -1, -2]
    assert sum(successive_minima(F.level(3))) == -6  # -(m^2 + m)/2 at m = 3


def test_successive_minima_trivial():
    F = trivial_filtration(5, m=3)
    assert successive_minima(F.level(3)) == [0] * 5


def test_rescale_shift_rules():
    F = p1_filtration([1])
    same = rescale_shift(F, 1, 0)
    assert same.level(1).values == F.level(1).values
    moved = rescale_shift(F, 2, 1)
    assert sorted(moved.level(1).values, reverse=True) == [1, -1]
    back = rescale_shift(moved, Fraction(1, 2), Fraction(-1, 2))
    assert back.level(1).values == F.level(1).values
    with pytest.raises(NonpositiveScale):
        rescale_shift(F, 0, 0)


def test_twist_rules(rng):
    single = GradedFiltration({1: FiltrationLevel.from_values(1, [1], weights=[(2,)])})
    twisted = twist(single, (Fraction(1, 2),))
    assert twisted.level(1).values == (2,)
    F = GradedFiltration({2: random_level(rng, 4, m=2, with_weights=True, rank=2)})
    xi = (Fraction(3, 2), Fraction(-1, 3))
    assert twist(F, (0, 0)).level(2).values == F.level(2).values
    round_trip = twist(twist(F, xi), tuple(-x for x in xi))
    assert round_trip.level(2).values == F.level(2).values
    with pytest.raises(MissingTorusWeights):
        twist(trivial_filtration(2), (1,))


def test_empirical_dh_p1():
    F = p1_filtration([4])
    nu = empirical_dh(F, 4, ambient_dim=1)
    positions = sorted(pos for pos, _, _ in nu.atoms)
    assert positions == [Fraction(-1), Fraction(-3, 4), Fraction(-1, 2), Fraction(-1, 4), 0]
    assert all(m == Fraction(1, 4) for _, m, _ in nu.atoms)
    assert abs(nu.mass() - Fraction(5, 4)) == 0  # (m+1)/m at m=4
    with pytest.raises(MissingLevel):
        empirical_dh(F, 7, ambient_dim=1)


def test_empirical_dh_carries_weights():
    F = p1_filtration([2])
    nu = empirical_dh(F, 2, ambient_dim=1)
    weights = sorted(w[0] for _, _, w in nu.atoms)
    assert weights == [Fraction(-1), Fraction(-1, 2), 0]


def test_common_adapted_basis_identical(rng):
    lv = random_level(rng, 4)
    cb = common_adapted_basis(lv, lv)
    assert all(a == b for a, b in cb.pairs)
    assert sorted(a for a, _ in cb.pairs) == sorted(lv.values)


def test_common_adapted_basis_hand_example():
    # F0 diagonal values {1, 0} on (e1, e2); F1 has F1^1 = span(e1 + e2).
    # By hand: e1 + e2 must be in the basis with v0 = min(1, 0) = 0, and the
    # complement vector e1 has (v0, v1) = (1, 0), so the pairs are (0,1), (1,0).
    lv0 = FiltrationLevel.from_values(1, [1, 0])
    lv1 = FiltrationLevel(1, ((Fraction(1), Fraction(1)), (Fraction(1), Fraction(0))),
                          (Fraction(1), Fraction(0)))
    cb = common_adapted_basis(lv0, lv1)
    assert sorted(cb.pairs) == [(Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))]
    # variant where F1 assigns 1 to everything: pairs (1,1) and (0,1)
    lv1b = FiltrationLevel(1, ((Fraction(1), Fraction(1)), (Fraction(1), Fraction(0))),
                           (Fraction(1), Fraction(1)))
    cb2 = common_adapted_basis(lv0, lv1b)
    assert sorted(cb2.pairs) == [(Fraction(0), Fraction(1)), (Fraction(1), Fraction(1))]
    assert sorted(m0 for m0, _ in cb2.pairs) == [0, 1]
    assert sorted(m1 for _, m1 in cb2.pairs) == [1, 1]


def test_common_adapted_basis_random_reproduces_minima(rng):
    for _ in range(12):
        dim = rng.randint(2, 6)
        lv0, lv1 = random_level(rng, dim), random_level(rng, dim)
        cb = common_adapted_basis(lv0, lv1)
        assert sorted(m0 for m0, _ in cb.pairs) == sorted(lv0.values)
        assert sorted(m1 for _, m1 in cb.pairs) == sorted(lv1.values)
        # returned rows are genuinely adapted to both flags
        for lv, idx in ((lv0, 0), (lv1, 1)):
            for lam in set(lv.values):
                sub = [r for r, pair in zip(cb.rows, cb.pairs) if pair[idx] >= lam]
                assert len(sub) == sum(v >= lam for v in lv.values)
                assert matrix_rank(list(sub) + lv.subspace_rows(lam)) == len(sub)


def test_relative_minima_examples(rng):
    F0 = GradedFiltration({1: FiltrationLevel.from_values(1, [0, 1])})
    F1 = GradedFiltration({1: FiltrationLevel.from_values(1, [0, 3])})
    assert relative_minima(F0, F0, 1) == [0, 0]
    assert relative_minima(F0, F1, 1) == [2, 0]
    # pure shift: F1 = F0(b) differs by b*m in every slot
    F = GradedFiltration({3: random_level(rng, 4, m=3)})
    shifted = rescale_shift(F, 1, Fraction(5, 2))
    assert relative_minima(F, shifted, 3) == [Fraction(15, 2)] * 4


def test_relative_minima_independent_of_adapted_basis(rng):
    for _ in range(6):
        dim = rng.randint(2, 5)
        lv0, lv1 = random_level(rng, dim), random_level(rng, dim)
        F0 = GradedFiltration({1: lv0})
        F1 = GradedFiltration({1: lv1})
        base = relative_minima(F0, F1, 1)
        # re-express lv1 in a different adapted basis: add to each row a
        # random combination of rows with strictly larger value
        order = sorted(range(dim), key=lambda i: -lv1.values[i])
        rows = [list(lv1.basis[i]) for i in order]
        vals = [lv1.values[i] for i in order]
        for i in range(dim):
            for j in range(i):
                if vals[j] > vals[i]:
                    c = Fraction(rng.randint(-2, 2))
                    rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        lv1b = FiltrationLevel(1, tuple(tuple(r) for r in rows), tuple(vals))
        assert relative_minima(F0, GradedFiltration({1: lv1b}), 1) == base


def test_d_p_level(rng):
    F0 = GradedFiltration({1: FiltrationLevel.from_values(1, [0, 1])})
    F1 = GradedFiltration({1: FiltrationLevel.from_values(1, [0, 3])})
    assert d_p_level(F0, F0, 1) == 0.0
    assert abs(d_p_level(F0, F1, 1, p=2) - math.sqrt(2)) < 1e-15
    # (x^p / 2)^(1/p) = x * 2^(-1/p): 2^20000 and 2^-20000 leave double range
    F2 = GradedFiltration({1: FiltrationLevel.from_values(1, [0, "1/2"])})
    assert abs(d_p_level(F0, F1, 1, p=20000) - 2 * 2 ** (-1 / 20000)) < 1e-15
    assert abs(d_p_level(F0, F2, 1, p=20000) - 2 ** (-1 / 20000) / 2) < 1e-15
    with pytest.raises(DimensionMismatch):
        common_adapted_basis(F0.level(1), FiltrationLevel.from_values(1, [0, 0, 0]))


def test_d2_metric_axioms_exact(rng):
    """Symmetry, identity and the triangle inequality checked in exact arithmetic."""
    m = 2
    for _ in range(8):
        dim = rng.randint(2, 5)
        Fs = [GradedFiltration({m: random_level(rng, dim, m=m)}) for _ in range(3)]

        def d2_squared(a, b):
            diffs = relative_minima(a, b, m)
            return sum((d / m) ** 2 for d in diffs) / dim

        for a in Fs:
            assert relative_minima(a, a, m) == [0] * dim
        for a in Fs:
            for b in Fs:
                assert d2_squared(a, b) == d2_squared(b, a)
        dab, dbc, dac = (d2_squared(Fs[0], Fs[1]), d2_squared(Fs[1], Fs[2]),
                         d2_squared(Fs[0], Fs[2]))
        # d(ac) <= d(ab) + d(bc) iff (dac - dab - dbc)/2 <= sqrt(dab*dbc)
        lhs = (dac - dab - dbc) / 2
        assert lhs <= 0 or lhs * lhs <= dab * dbc


def test_q_m_psi_m():
    F = trivial_filtration(4, m=2)
    assert q_m(F, 2) == 1.0
    assert psi_m(F, 2) == 0.0
    P1 = p1_filtration([1, 200])
    assert abs(q_m(P1, 1) - (1 + math.e) / 2) < 1e-14
    assert abs(q_m(P1, 200) - (math.e - 1)) < 1e-2


def test_q_of_basis(rng):
    P1 = p1_filtration([1])
    adapted = [(1, 0), (0, 1)]
    assert abs(q_of_basis(P1, 1, adapted) - q_m(P1, 1)) < 1e-15
    # mixing in the lower piece can only raise the value
    mixed = [(1, 1), (0, 1)]
    assert q_of_basis(P1, 1, mixed) >= q_m(P1, 1) - 1e-12
    for _ in range(6):
        dim = rng.randint(2, 5)
        F = GradedFiltration({1: random_level(rng, dim)})
        base = q_m(F, 1)
        for _ in range(40):
            rows = [[Fraction(rng.randint(-3, 3)) for _ in range(dim)] for _ in range(dim)]
            if matrix_rank(rows) != dim:
                continue
            assert q_of_basis(F, 1, rows) >= base - 1e-12
    with pytest.raises(NotABasis):
        q_of_basis(P1, 1, [(1, 0), (2, 0)])


def test_psi_monotone_under_nesting(rng):
    """F^lam inside G^lam for all lam forces Psi_m(F) <= Psi_m(G), strictly if proper."""
    for _ in range(10):
        dim = rng.randint(2, 6)
        m = rng.choice([1, 2, 5])
        lv = random_level(rng, dim, m=m)
        bumps = [Fraction(rng.randint(0, 3)) for _ in range(dim)]
        if all(b == 0 for b in bumps):
            bumps[0] = Fraction(1)
        bigger = FiltrationLevel(m, lv.basis, tuple(v + b for v, b in zip(lv.values, bumps)))
        F = GradedFiltration({m: lv})
        G = GradedFiltration({m: bigger})
        assert psi_m(F, m) < psi_m(G, m)


def test_weight_filtration_and_identity_degeneration():
    model = MonomialModel(2)
    F0 = weight_filtration(model, (1, 0), 2)
    # monomials x^2, xy, y^2 have weights 2, 1, 0
    assert successive_minima(F0.level(2)) == [2, 1, 0]
    prime = initial_term_degeneration(model, (1, 0), F0, 2)
    assert successive_minima(prime.level(2)) == [2, 1, 0]
    # degenerating the weight filtration itself reproduces it on the graded
    assert sorted(prime.level(2).values) == sorted(F0.level(2).values)


def test_initial_term_hand_example():
    # R_1 = span{x, y}, w = (1, 0); F1 gives value 1 to x + y and 0 to a complement
    model = MonomialModel(2)
    lv1 = FiltrationLevel(1, ((Fraction(1), Fraction(1)), (Fraction(1), Fraction(0))),
                          (Fraction(1), Fraction(0)))
    F1 = GradedFiltration({1: lv1})
    prime = initial_term_degeneration(model, (1, 0), F1, 1)
    lv = prime.level(1)
    # in(x + y) = y under the min-weight convention: the value-1 subspace is the y-line
    top = [r for r, v in zip(lv.basis, lv.values) if v == 1]
    assert len(top) == 1
    assert top[0][0] == 0 and top[0][1] != 0
    assert successive_minima(lv) == [1, 0]


def test_initial_term_preserves_minima_and_relative_minima(rng):
    model = MonomialModel(2)
    m = 3
    dim = model.dim(m)
    for _ in range(10):
        w = (Fraction(rng.randint(0, 3)), Fraction(rng.randint(0, 3)))
        F0 = weight_filtration(model, w, m)
        lv1 = random_level(rng, dim, m=m)
        F1 = GradedFiltration({m: lv1})
        prime = initial_term_degeneration(model, w, F1, m)
        assert successive_minima(prime.level(m)) == successive_minima(lv1)
        lhs = relative_minima(F0, F1, m)
        untwisted = twist(prime, (-1,))
        rhs = successive_minima(untwisted.level(m))
        assert lhs == rhs


def test_twist_then_empirical_shifts_atoms(rng):
    """Atoms of the twisted spectrum move by <alpha/m, xi>, exactly."""
    lv = random_level(rng, 5, m=4, with_weights=True, rank=2)
    F = GradedFiltration({4: lv})
    xi = (Fraction(3, 2), Fraction(-1, 3))
    base = empirical_dh(F, 4, ambient_dim=2)
    moved = empirical_dh(twist(F, xi), 4, ambient_dim=2)
    got = sorted(pos for pos, _, _ in moved.atoms)
    # base atoms carry weights alpha/m, so each moves by <alpha/m, xi>
    shifted = sorted(pos + sum(a * x for a, x in zip(w, xi)) for pos, _, w in base.atoms)
    assert got == shifted


def test_rescale_then_empirical_is_affine_on_atoms(rng):
    """a-rescale/b-shift moves each atom by lambda -> a lambda + b, exactly."""
    lv = random_level(rng, 4, m=3)
    F = GradedFiltration({3: lv})
    a, b = Fraction(5, 2), Fraction(-2, 3)
    base = empirical_dh(F, 3, ambient_dim=1)
    moved = empirical_dh(rescale_shift(F, a, b), 3, ambient_dim=1)
    assert sorted(p for p, _, _ in moved.atoms) == sorted(
        a * p + b for p, _, _ in base.atoms)


def test_multiplicativity_warning():
    good = p1_filtration([1, 2, 3])
    assert multiplicativity_warnings(good) == []
    levels = {
        1: FiltrationLevel.from_values(1, [1, 1]),
        2: FiltrationLevel.from_values(2, [0, 0, 0]),
    }
    bad = GradedFiltration(levels)
    warnings = multiplicativity_warnings(bad)
    assert len(warnings) == 1 and "lambda_max(2)" in warnings[0]


def test_filtration_json_round_trip():
    F = p1_filtration([1, 2])
    doc = F.to_json()
    back = filtration_from_json(doc)
    for m in (1, 2):
        assert back.level(m).values == F.level(m).values
        assert back.level(m).weights == F.level(m).weights
    flags_doc = {
        "levels": {
            "1": {
                "dim": 2,
                "flags": [
                    {"value": 1, "rows": [[1, 1]]},
                    {"value": 0, "rows": [[1, 1], [1, 0]]},
                ],
            }
        }
    }
    G = filtration_from_json(flags_doc)
    assert successive_minima(G.level(1)) == [1, 0]
    with pytest.raises(InputError):
        filtration_from_json({"levels": {"1": {"dim": 2}}})


def test_flag_nesting_validated():
    with pytest.raises(InputError):
        FiltrationLevel.from_flags(1, 2, [(1, [[1, 0]]), (0, [[0, 1]])])


# ---------------------------------------------------------------------------
# standard-basis levels and the integer common adapted basis


def _ref_inverse(rows):
    """Fraction Gauss-Jordan inverse (the elimination common_adapted_basis used before)."""
    n = len(rows)
    a = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(rows)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        pivot = a[col][col]
        a[col] = [x / pivot for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def _explicit_rows(lv):
    n = lv.dim
    if lv.basis is None:
        return [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]
    return list(lv.basis)


def _ref_pairs(lv0, lv1):
    """Value pairs of the common adapted basis by the Fraction algorithm (dense inverse)."""
    n = lv0.dim
    order0 = sorted(range(n), key=lambda i: (-lv0.values[i], i))
    e_rows = [_explicit_rows(lv0)[i] for i in order0]
    e_inv = _ref_inverse(e_rows)
    f_rows = _explicit_rows(lv1)
    pivots, pairs = {}, []
    for idx in sorted(range(n), key=lambda i: (-lv1.values[i], i)):
        f = f_rows[idx]
        c = [sum(f[i] * e_inv[i][j] for i in range(n)) for j in range(n)]
        while True:
            piv = next(j for j in range(n - 1, -1, -1) if c[j] != 0)
            if piv not in pivots:
                break
            other = pivots[piv]
            factor = c[piv] / other[piv]
            c = [x - factor * y for x, y in zip(c, other)]
        pivots[piv] = c
        pairs.append((lv0.values[order0[piv]], lv1.values[idx]))
    return tuple(pairs)


def _level_variants(rng, dim):
    """The same kinds of level on one dimension: random explicit basis, the
    standard basis stored as None, and the standard basis stored explicitly;
    values drawn from a small range so that ties are common."""
    values = [Fraction(rng.randint(-2, 2)) for _ in range(dim)]
    identity = tuple(tuple(Fraction(int(i == j)) for j in range(dim)) for i in range(dim))
    return [random_level(rng, dim),
            FiltrationLevel.from_values(1, values),
            FiltrationLevel(1, identity, tuple(reversed(values)))]


def test_common_adapted_basis_pairs_match_reference(rng):
    for _ in range(25):
        dim = rng.randint(1, 6)
        levels = _level_variants(rng, dim) + _level_variants(rng, dim)
        for lv0 in levels:
            for lv1 in levels:
                cb = common_adapted_basis(lv0, lv1)
                assert cb.pairs == _ref_pairs(lv0, lv1)
                # each returned row has exactly its pair's values
                for row, (m0, m1) in zip(cb.rows, cb.pairs):
                    assert (lv0.value_of(row), lv1.value_of(row)) == (m0, m1)


def test_from_values_level_stores_no_basis():
    lv = FiltrationLevel.from_values(3, [0, -1, -1, -3], weights=[(0,), (-1,), (-2,), (-3,)])
    assert lv.basis is None
    assert rescale_shift(GradedFiltration({3: lv}), 2, 1).level(3).basis is None
    assert twist(GradedFiltration({3: lv}), (1,)).level(3).basis is None
    assert weight_filtration(MonomialModel(2), (1, 0), 3).level(3).basis is None
    assert filtration_from_json({"levels": {"1": {"dim": 2, "values": [0, 1]}}}).level(1).basis \
        is None
    # the standard basis is read directly: coordinates are the vector itself
    assert lv.value_of((0, 0, 5, 0)) == -1
    assert lv.value_of((1, 0, 0, Fraction(1, 2))) == -3
    assert lv.subspace_rows(-1) == [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]
    with pytest.raises(InputError):
        lv.value_of((0, 0, 0, 0))
    with pytest.raises(DimensionMismatch):
        lv.value_of((1, 0))


def test_to_json_omits_standard_basis_and_round_trips_bytes():
    identity = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    swapped = ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))
    F = GradedFiltration({
        1: FiltrationLevel.from_values(1, [Fraction(1, 2), 0], weights=[(1,), (0,)]),
        2: FiltrationLevel(2, identity, (Fraction(3), Fraction(-1))),
        3: FiltrationLevel(3, swapped, (Fraction(0), Fraction(2, 3))),
    }, label="mixed")
    doc = F.to_json()
    assert "basis" not in doc["levels"]["1"] and "basis" not in doc["levels"]["2"]
    assert doc["levels"]["3"]["basis"] == [["0", "1"], ["1", "0"]]
    text = dumps_canonical(doc)
    assert dumps_canonical(filtration_from_json(json.loads(text)).to_json()) == text


def test_singular_explicit_basis_raises():
    rows = ((Fraction(1), Fraction(2)), (Fraction(1, 2), Fraction(1)))
    with pytest.raises(NotABasis):
        FiltrationLevel(1, rows, (Fraction(0), Fraction(1)))
    doc = {"levels": {"1": {"dim": 2, "values": [0, 1], "basis": [[1, 2], ["1/2", 1]]}}}
    with pytest.raises(NotABasis):
        filtration_from_json(doc)


def test_values_of_matches_one_row_reference(rng):
    for _ in range(10):
        dim = rng.randint(1, 5)
        rows = [[Fraction(rng.randint(-2, 2), rng.choice([1, 3])) for _ in range(dim)]
                for _ in range(dim)]
        rows = [r for r in rows if any(r)]
        for lv in _level_variants(rng, dim):
            inv = _ref_inverse(_explicit_rows(lv))
            want = [min(v for v, c in zip(lv.values, (
                sum(x * inv[i][j] for i, x in enumerate(r)) for j in range(dim))) if c != 0)
                for r in rows]
            assert lv.values_of(rows) == want
            assert [lv.value_of(r) for r in rows] == want


def test_initial_term_basis_pinned():
    # the degenerated basis is written to `degenerate` artifacts: it is read off
    # the echelon rows as elimination reaches them (not the fully reduced form)
    # and must stay what the Fraction elimination gave
    rows = [[1, 1, 0, 0, 2, 0], [0, 1, -1, 0, 0, 1], [2, 0, 1, 1, 0, 0],
            [0, 0, 0, 1, 1, 1], [1, 0, 0, 0, 0, 3], [0, 2, 0, 1, 0, 0]]
    F1 = filtration_from_json({"levels": {"2": {"dim": 6, "values": [1, 0, 2, 0, 1, 3],
                                                "basis": rows}}})
    lv = initial_term_degeneration(MonomialModel(3), (0, 1, 2), F1, 2).level(2)
    assert lv.basis == ((0, 1, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0),
                        (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1))
    assert lv.values == (3, 2, 1, 1, 0, 0)
    assert lv.weights == ((1,), (0,), (2,), (2,), (3,), (4,))


# ---------------------------------------------------------------------------
# weight pieces by projection against the left-nullspace reference

small = st.integers(min_value=-3, max_value=3).map(Fraction)


@st.composite
def weighted_flags(draw):
    """(rows, ambient weights): homogeneous rows, sums of homogeneous vectors
    (decomposable, rarely homogeneous) or free rows (rarely decomposable)."""
    n = draw(st.integers(min_value=1, max_value=6))
    rank = draw(st.integers(min_value=1, max_value=2))
    weights = draw(st.lists(st.tuples(*[st.integers(0, 2).map(Fraction)] * rank),
                            min_size=n, max_size=n))
    blocks = {}
    for j, w in enumerate(weights):
        blocks.setdefault(w, []).append(j)
    blocks = list(blocks.values())

    def homogeneous():
        cols = draw(st.sampled_from(blocks))
        return [draw(small) if j in cols else Fraction(0) for j in range(n)]

    kind = draw(st.sampled_from(("homogeneous", "sums", "free")))
    nrows = draw(st.integers(min_value=0, max_value=n + 1))
    if kind == "homogeneous":
        rows = [homogeneous() for _ in range(nrows)]
    elif kind == "sums":
        gens = [homogeneous() for _ in range(draw(st.integers(0, n)))]
        rows = [[sum((c * g[j] for c, g in zip(coeffs, gens)), Fraction(0)) for j in range(n)]
                for coeffs in (draw(st.lists(small, min_size=len(gens), max_size=len(gens)))
                               for _ in range(nrows))]
    else:
        rows = [draw(st.lists(small, min_size=n, max_size=n)) for _ in range(nrows)]
    return [tuple(r) for r in rows], weights


def _same_row_space(a, b):
    r = matrix_rank(a) if a else 0
    return r == (matrix_rank(b) if b else 0) == (matrix_rank(a + b) if a + b else 0)


@settings(max_examples=300, deadline=None)
@given(weighted_flags())
@example(([(Fraction(1), Fraction(1))], [(Fraction(0),), (Fraction(1),)]))  # not decomposable
@example(([(Fraction(1), Fraction(1)), (Fraction(1), Fraction(-1))],
          [(Fraction(0),), (Fraction(1),)]))  # decomposable, no row homogeneous
@example(([(Fraction(1), Fraction(0)), (Fraction(2), Fraction(0))],
          [(Fraction(0),), (Fraction(1),)]))  # dependent homogeneous rows
def test_weight_pieces_match_nullspace_reference(flag):
    rows, weights = flag
    try:
        want_pieces, want_rank = weight_decompose(rows, weights)
    except InputError:
        with pytest.raises(InputError):
            _weight_decompose(rows, weights)
        return
    got_pieces, got_rank = _weight_decompose(rows, weights)
    assert got_rank == want_rank
    want = dict(want_pieces)
    got = {alpha: [row for _, row in part] for alpha, part in got_pieces}
    assert sorted(got) == sorted(want)
    for alpha, part in got.items():
        assert _same_row_space(part, want[alpha])
        assert all(row[j] == 0 for row in part for j, w in enumerate(weights) if w != alpha)


def test_weight_pieces_of_homogeneous_rows_are_the_rows():
    # the rows `initial_term_degeneration` hands over are homogeneous; their
    # pieces, and so the degenerated basis, are the rows themselves, as before
    F = Fraction
    weights = [(F(1),), (F(0),), (F(1),), (F(2),)]
    rows = [(F(0), F(3), F(0), F(0)), (F(1), F(0), F(-2), F(0)), (F(0), F(0), F(0), F(5)),
            (F(2), F(0), F(-4), F(0))]
    pieces, rank = _weight_decompose(rows, weights)
    assert rank == 3
    assert pieces == [((F(0),), [(0, rows[0])]), ((F(1),), [(1, rows[1]), (3, rows[3])]),
                      ((F(2),), [(2, rows[2])])]
    assert [(alpha, [row for _, row in part]) for alpha, part in pieces] == weight_decompose(
        rows, weights)[0]


def test_flag_basis_of_non_homogeneous_rows():
    # decomposable but not homogeneous: the projections span the same pieces as
    # the nullspace combinations, yet the kept basis vectors differ
    F = Fraction
    weights = [(0,), (1,)]
    rows = [(F(1), F(1)), (F(1), F(-1))]
    lv = FiltrationLevel.from_flags(1, 2, [(1, rows)], ambient_weights=weights)
    assert lv.basis is None  # the kept rows are the standard basis
    assert lv.weights == ((F(0),), (F(1),))
    assert [p for _, p in weight_decompose(rows, [(F(0),), (F(1),)])[0]] == [
        [(F(2), F(0))], [(F(0), F(-2))]]


def test_empirical_dh_matches_atomic_constructor(rng):
    """The direct build equals DHMeasure.atomic over the same atoms, ties and weights included."""
    for with_weights in (False, True):
        for m in (1, 3, 5):
            lv = random_level(rng, 7, m=m, with_weights=with_weights, rank=2)
            values = [Fraction(rng.randint(-2, 2), rng.choice([1, 3])) for _ in range(7)]
            values[4] = values[1]  # a tie: the stable order decides
            lv = FiltrationLevel(m, lv.basis, tuple(values), lv.weights)
            F = GradedFiltration({m: lv})
            for n in (0, 1, 3):
                mass = Fraction(math.factorial(n), m**n)
                want = DHMeasure.atomic(
                    [(v / m, mass, None if lv.weights is None else tuple(a / m for a in w))
                     for v, w in zip(lv.values, lv.weights or [None] * lv.dim)])
                assert empirical_dh(F, m, n).atoms == want.atoms
    with pytest.raises(InputError):
        empirical_dh(F, m, -1)
