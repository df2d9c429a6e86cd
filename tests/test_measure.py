import math
from fractions import Fraction

import pytest

from fanokit._kernel import compensated_tree_sum
from fanokit.errors import InputError, NonFiniteResult, NonpositiveScale, UnsupportedOrder
from fanokit.expint import PLConcaveFunction, _exp_integrals, simplex_exp_integral
from fanokit.geometry import AffineForm, RationalPolytope, Simplex, pairing_form
from fanokit.measure import DHMeasure, cdf_samples, measure_from_json, wasserstein1
from fanokit.rational import rat

from conftest import p1_filtration, p1_limit_measure
from fanokit.filtration import empirical_dh


def test_mass_examples():
    assert abs(p1_limit_measure().mass() - 1.0) < 1e-14
    assert DHMeasure.atomic([(0, 2, None)]).mass() == 2.0
    dom = RationalPolytope.interval(-1, 1)
    mu = DHMeasure.pushforward(PLConcaveFunction.linear(dom, [Fraction(1, 3)], 0))
    assert abs(mu.mass() - 2.0) < 1e-14


def test_moments_uniform():
    mu = p1_limit_measure()
    assert mu.moment(0) == 1.0
    assert abs(mu.moment(1) - (-0.5)) < 1e-13
    assert abs(mu.moment(2) - (1.0 / 3.0)) < 1e-13
    with pytest.raises(UnsupportedOrder):
        mu.moment(5)


def test_moments_dirac():
    mu = DHMeasure.dirac(Fraction(-3, 2))
    for k in range(5):
        assert mu.moment(k) == float(Fraction(-3, 2) ** k)


def test_exp_moment():
    assert DHMeasure.dirac(0).exp_moment(1) == 1.0
    mu = p1_limit_measure()
    assert abs(mu.exp_moment(1) - (math.e - 1)) < 1e-12
    # empirical levels converge to the same value (Riemann sums)
    for m, tol in ((10, 0.05), (100, 5e-3), (200, 3e-3)):
        nu = empirical_dh(p1_filtration([m]), m, ambient_dim=1)
        assert abs(nu.exp_moment(1) - (math.e - 1)) < tol


def test_affine_transform_atoms_and_pushforward():
    mu = p1_limit_measure()
    nu = mu.affine_transform(2, 1)  # uniform on [-1, 1]
    assert abs(nu.moment(1)) < 1e-13
    assert abs(nu.mass() - mu.mass()) < 1e-14
    assert nu.support().lambda_min == -1.0 and nu.support().lambda_max == 1.0
    same = mu.affine_transform(1, 0)
    assert abs(same.moment(1) - mu.moment(1)) < 1e-15
    with pytest.raises(NonpositiveScale):
        mu.affine_transform(0, 0)


def test_affine_transform_exp_identity(rng):
    """exp_moment(transform(a,b), 1) = exp_moment(mu, a) * e^{-b}."""
    for _ in range(8):
        atoms = [(Fraction(rng.randint(-8, 8), 4), Fraction(rng.randint(1, 5)), None)
                 for _ in range(rng.randint(1, 6))]
        mu = DHMeasure.atomic(atoms)
        a = Fraction(rng.randint(1, 8), 2)
        b = Fraction(rng.randint(-4, 4), 3)
        lhs = mu.affine_transform(a, b).exp_moment(1)
        rhs = mu.exp_moment(a) * math.exp(-float(b))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_affine_transform_composition_exact(rng):
    atoms = [(Fraction(1, 2), 1, None), (Fraction(-2), 2, None)]
    mu = DHMeasure.atomic(atoms)
    a1, b1 = Fraction(3, 2), Fraction(-1, 3)
    a2, b2 = Fraction(2), Fraction(5, 4)
    two_steps = mu.affine_transform(a1, b1).affine_transform(a2, b2)
    one_step = mu.affine_transform(a2 * a1, a2 * b1 + b2)
    assert two_steps.atoms == one_step.atoms


def test_support():
    assert p1_limit_measure().support() == type(p1_limit_measure().support())(-1.0, 0.0, False)
    s = DHMeasure.dirac(3).support()
    assert (s.lambda_min, s.lambda_max, s.atom_at_max) == (3.0, 3.0, True)
    dom = RationalPolytope.from_vertices([[0, 0], [2, 0], [0, 1]])
    mu = DHMeasure.pushforward(PLConcaveFunction.linear(dom, [1, 3], 0))
    assert mu.support().lambda_max == 3.0  # linear max over the vertices
    assert mu.support().atom_at_max is False


def test_jensen_inequality(rng):
    """exp_moment(mu, a) >= e^{-a E}, equality only for Dirac measures."""
    for _ in range(30):
        atoms = [(Fraction(rng.randint(-6, 6), 2), Fraction(rng.randint(1, 4)), None)
                 for _ in range(rng.randint(1, 6))]
        mu = DHMeasure.atomic(atoms)
        a = rng.choice([Fraction(1, 2), 1, 2])
        lhs = mu.exp_moment(a)
        rhs = math.exp(-float(a) * mu.moment(1))
        assert lhs >= rhs - 1e-12
        if len({p for p, _, _ in atoms}) > 1:
            assert lhs > rhs
    assert abs(DHMeasure.dirac(2).exp_moment(1) - math.exp(-2)) < 1e-15


def test_wasserstein_p1_bound():
    limit = p1_limit_measure()
    for m in (10, 50, 200):
        nu = empirical_dh(p1_filtration([m]), m, ambient_dim=1)
        dist = wasserstein1(nu, limit)
        assert dist <= 2.0 / m
        assert dist > 0
    nu = empirical_dh(p1_filtration([10]), 10, ambient_dim=1)
    assert wasserstein1(nu, nu) == 0.0


def test_wasserstein_grid_fallback_flat_cell():
    """A flat transform cell (point mass) forces the discretized-CDF path."""
    from fanokit.expint import PLConcaveFunction
    from fanokit.geometry import AffineForm, Simplex

    dom = RationalPolytope.interval(0, 2)
    half_uniform_plus_atom = DHMeasure.pushforward(PLConcaveFunction.make(dom, [
        (Simplex.make([[0], [1]]), AffineForm.make([1], 0)),
        (Simplex.make([[1], [2]]), AffineForm.make([0], 1)),
    ]))
    uniform02 = DHMeasure.uniform(0, 2)
    # closed form: CDFs agree on [0,1], differ by (1 - t/2) on [1,2]: W1 = 1/4
    dist = wasserstein1(uniform02, half_uniform_plus_atom, grid=512)
    assert abs(dist - 0.25) < 5e-3


def test_wasserstein_zero_span_pushforward():
    """A constant transform pushes all mass to one point: W1 to a Dirac is the gap."""
    segment = DHMeasure.pushforward(PLConcaveFunction.constant(RationalPolytope.interval(0, 1), 1))
    assert wasserstein1(segment, DHMeasure.dirac(2)) == 1.0
    assert wasserstein1(DHMeasure.dirac(2), segment) == 1.0
    square = RationalPolytope.from_vertices([(0, 0), (1, 0), (0, 1), (1, 1)])
    flat = DHMeasure.pushforward(PLConcaveFunction.constant(square, 1))
    assert wasserstein1(flat, DHMeasure.dirac(3)) == 2.0


def _affine_through(vertices, values):
    """The affine form on a triangle taking the given vertex values."""
    (x0, y0), (x1, y1), (x2, y2) = vertices
    v0, v1, v2 = values
    d = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
    gx = ((v1 - v0) * (y2 - y0) - (v2 - v0) * (y1 - y0)) / d
    gy = ((x1 - x0) * (v2 - v0) - (x2 - x0) * (v1 - v0)) / d
    return AffineForm.make([gx, gy], v0 - gx * x0 - gy * y0)


def _clustered_transform():
    """Four triangles on [0, 2] x [0, 1]; G is nearly constant on the first one."""
    value = {(0, 0): Fraction(1), (1, 0): 1 + Fraction(1, 10**5), (1, 1): 1 + Fraction(2, 10**5),
             (0, 1): Fraction(3), (2, 0): Fraction(2), (2, 1): Fraction(1, 2)}
    triangles = [((0, 0), (1, 0), (1, 1)), ((0, 0), (0, 1), (1, 1)),
                 ((1, 0), (2, 0), (2, 1)), ((1, 0), (1, 1), (2, 1))]
    cells = [(Simplex.make(t), _affine_through(t, [value[v] for v in t])) for t in triangles]
    return PLConcaveFunction.make(RationalPolytope.from_vertices(list(value)), cells)


@pytest.mark.parametrize("weight_xi", [(), (Fraction(1, 3), 0)])
def test_batched_cell_sums_bit_identical(weight_xi):
    """Every pushforward query equals its per-cell log-domain sum, bit for bit."""
    G = _clustered_transform()
    mu = DHMeasure.pushforward(G, weight_xi)
    ell = pairing_form(weight_xi, 2)
    a = Fraction(3, 2)

    def per_cell(form_of, k=0):
        """(top, s): 2! * sum over the cells of int f^k e^{-form} = s e^top, one cell per call."""
        nodes = [[-float(form_of(f)(v)) for v in s.vertices] for s, f in G.cells]
        top = max(max(z) for z in nodes)
        leaves = [_exp_integrals([z], [float(abs(s.edge_determinant()))],
                                 [[float(f(v)) for v in s.vertices]] if k else None, k, top)[0].value
                  for z, (s, f) in zip(nodes, G.cells)]
        return top, 2 * compensated_tree_sum(leaves)

    if not weight_xi:  # one query mixes the series fallback with the matrix path
        methods = {simplex_exp_integral(s, f.scaled(a)).method for s, f in G.cells}
        assert methods == {"series_fallback", "divided_difference"}
    top0, mass = per_cell(lambda f: ell)
    assert mu.mass() == mass * math.exp(top0)
    for k in (1, 2, 3, 4):
        top, s = per_cell(lambda f: ell, k)
        assert mu.moment(k) == s / mass * math.exp(top - top0)
    top, s = per_cell(lambda f: f.scaled(a).plus(ell))
    assert mu.log_exp_moment(a) == (top - top0) + math.log(s / mass)
    assert mu.exp_moment(a) == math.exp(mu.log_exp_moment(a))
    for tilt in (a, 0.7):
        at = rat(tilt)
        tilted0 = per_cell(lambda f: f.scaled(at).plus(ell))
        for k in (1, 2):
            top, s = per_cell(lambda f: f.scaled(at).plus(ell), k)
            assert mu.tilted_moment(tilt, k) == s / tilted0[1] * math.exp(top - tilted0[0])


def test_tilts_sharing_a_transform():
    """Each tilt of one transform reads its own cached pairings, bit for bit
    what a transform queried under that tilt alone gives."""
    G = _clustered_transform()
    tilts = [(Fraction(1, 3), 0), (0, Fraction(-2, 5)), (Fraction(1, 3),), (1, 1)]
    shared = [DHMeasure.pushforward(G, xi) for xi in tilts]
    alone = [DHMeasure.pushforward(_clustered_transform(), xi) for xi in tilts]
    for _ in range(2):
        assert [mu.moment(2) for mu in shared] == [mu.moment(2) for mu in alone]
        assert ([mu.tilted_moment(Fraction(1, 2), 1) for mu in shared]
                == [mu.tilted_moment(Fraction(1, 2), 1) for mu in alone])


def test_empirical_dh_trivial_filtration():
    from fanokit.filtration import FiltrationLevel, GradedFiltration

    F = GradedFiltration({3: FiltrationLevel.from_values(3, [0, 0, 0, 0])})
    nu = empirical_dh(F, 3, ambient_dim=1)
    assert all(pos == 0 for pos, _, _ in nu.atoms)
    assert abs(nu.mass() - 4.0 / 3.0) < 1e-15  # N_m * n!/m^n


def test_mass_above():
    mu = p1_limit_measure()
    assert abs(mu.mass_above(Fraction(-1, 2)) - 0.5) < 1e-14
    nu = DHMeasure.atomic([(0, 1, None), (1, 2, None)])
    assert nu.mass_above(Fraction(1, 2)) == 2.0
    assert nu.mass_above(0) == 3.0


def test_cdf_samples_monotone():
    samples = cdf_samples(p1_limit_measure(), count=50)
    vals = [v for _, v in samples]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[0] <= 1e-9 and abs(vals[-1] - 1.0) < 1e-9


def test_measure_json_round_trip():
    mu = DHMeasure.atomic([(Fraction(1, 2), 1, (Fraction(-1),)), (2, Fraction(3, 4), None)])
    back = measure_from_json(mu.to_json())
    assert back.atoms == mu.atoms
    push = p1_limit_measure()
    back2 = measure_from_json(push.to_json())
    assert abs(back2.mass() - push.mass()) < 1e-14
    assert "projection" not in push.to_json()
    # documents written before the key was dropped still load
    legacy = dict(push.to_json(), projection=0)
    assert measure_from_json(legacy) == push
    with pytest.raises(InputError):
        measure_from_json({"nope": 1})
    with pytest.raises(InputError):
        DHMeasure.atomic([(0, 0, None)])


@pytest.mark.parametrize("doc", [{"atoms": [{"mass": 1}]}, {"atoms": [{"pos": 1}]},
                                 {"atoms": {"pos": 1, "mass": 1}}, {"atoms": [[1, 1]]},
                                 {"transform": {}}, {"transform": {"cells": 5}},
                                 {"transform": {"cells": [{"simplex": [[0], [1]]}]}}])
def test_malformed_measure_documents(doc):
    with pytest.raises(InputError):
        measure_from_json(doc)


def test_values_outside_double_range():
    """Log values stay exact where the values themselves leave double range."""
    far = DHMeasure.dirac(-800)
    assert far.log_exp_moment(2) == 1600.0
    with pytest.raises(NonFiniteResult):
        far.exp_moment(2)  # e^1600 overflows
    with pytest.raises(NonFiniteResult):
        DHMeasure.dirac(800).exp_moment(1)  # e^-800 underflows to 0
    # density e^{1000 y} on [0, 1]: the mass e^1000/1000 overflows, its moments do not
    tilted = DHMeasure.pushforward(
        PLConcaveFunction.linear(RationalPolytope.interval(0, 1), [1], 0), [-1000])
    with pytest.raises(NonFiniteResult):
        tilted.mass()
    assert abs(tilted.moment(1) - (1 - 1 / 1000)) <= 1e-12
    assert abs(tilted.log_exp_moment(1) - (-1 + math.log(1000 / 999))) <= 1e-12
