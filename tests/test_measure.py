import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fanokit.expint as expint
from fanokit.errors import (
    DenominatorVanishes,
    InputError,
    NonFiniteResult,
    NonpositiveScale,
    UnsupportedOrder,
)
from fanokit.expint import (
    PLConcaveFunction,
    _exp_integrals,
    pl_cell_integrals,
    simplex_exp_integral,
)
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


def test_atomic_tilted_query_log_is_log_exp_moment():
    """The rescaling objective's log normalizer is log_exp_moment, bit for bit; 0 at a = 0."""
    mu = DHMeasure.atomic([(Fraction(-3, 2), 2, None), (0, Fraction(1, 3), None),
                           (Fraction(7, 4), 5, None), (Fraction(7, 4), 1, None)])
    assert mu._tilted(0, 2) == (0.0, [mu.moment(j) for j in range(3)])
    for a in (Fraction(1, 3), -2, 7.5, 900):
        assert mu._tilted(a, 2)[0] == mu.log_exp_moment(a)


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
    """A flat transform cell is an atom, a jump in the survival spline."""
    from fanokit.expint import PLConcaveFunction
    from fanokit.geometry import AffineForm, Simplex

    dom = RationalPolytope.interval(0, 2)
    half_uniform_plus_atom = DHMeasure.pushforward(PLConcaveFunction.make(dom, [
        (Simplex.make([[0], [1]]), AffineForm.make([1], 0)),
        (Simplex.make([[1], [2]]), AffineForm.make([0], 1)),
    ]))
    uniform02 = DHMeasure.uniform(0, 2)
    # closed form: CDFs agree on [0,1], differ by (1 - t/2) on [1,2]: W1 = 1/4
    dist = wasserstein1(uniform02, half_uniform_plus_atom)
    assert abs(dist - 0.25) <= 1e-14 * 0.25


def _triangle_cdf(a, b, c, t) -> Fraction:
    """CDF at t of G(y), y uniform on a triangle whose vertex values of G are a <= b <= c."""
    if t <= a:
        return Fraction(0)
    if t >= c:
        return Fraction(1)
    if t <= b:
        return (t - a) ** 2 / ((c - a) * (b - a))
    return 1 - (c - t) ** 2 / ((c - a) * (c - b))


def _w1_atoms_vs_triangles(atoms, triangles):
    """W1 between atoms [(x, m)] and a mixture of triangle pushforwards [(weight, (a, b, c))].

    On each interval between breakpoints the CDF difference is a quadratic,
    fixed exactly by its values at three points; |quadratic| is integrated
    between its real roots.
    """
    total_m = sum(m for _, m in atoms)
    total_w = sum(w for w, _ in triangles)
    breaks = sorted({x for x, _ in atoms} | {v for _, abc in triangles for v in abc})

    def diff(t, step):
        return step - sum(w * _triangle_cdf(*abc, t) for w, abc in triangles) / total_w

    result = 0.0
    for lo, hi in zip(breaks, breaks[1:]):
        step = sum(m for x, m in atoms if x <= lo) / total_m
        mid = (lo + hi) / 2
        # D(lo + u) = d0 + d1 u + d2 u^2, from D at u = 0, h/2, h
        h = hi - lo
        f0, fm, f1 = diff(lo, step), diff(mid, step), diff(hi, step)
        d2 = 2 * (f1 - 2 * fm + f0) / h ** 2
        d1 = (f1 - f0) / h - d2 * h
        cuts = [0.0, float(h)]
        if d2:
            disc = float(d1 * d1 - 4 * d2 * f0)
            if disc > 0:
                r = math.sqrt(disc)
                cuts += [(-float(d1) - r) / float(2 * d2), (-float(d1) + r) / float(2 * d2)]
        elif d1:
            cuts.append(float(-f0 / d1))
        cuts = sorted(u for u in cuts if 0 <= u <= h)

        def anti(u):
            return float(f0) * u + float(d1) * u * u / 2 + float(d2) * u ** 3 / 3

        result += sum(abs(anti(v) - anti(u)) for u, v in zip(cuts, cuts[1:]))
    return result


def test_wasserstein_atoms_vs_triangles():
    """W1 against a 2-D pushforward is exact: its CDF is piecewise quadratic."""
    # y uniform on the triangle (0,0), (1,0), (0,1) and G = x + y: CDF t^2 on [0, 1];
    # against atoms 1/2 at 0 and 1, W1 = int_0^1 |t^2 - 1/2| dt = sqrt(2)/3 - 1/6
    tri = RationalPolytope.from_vertices([(0, 0), (1, 0), (0, 1)])
    mu = DHMeasure.pushforward(PLConcaveFunction.linear(tri, [1, 1], 0))
    atoms = DHMeasure.atomic([(0, 1, None), (1, 1, None)])
    assert abs(wasserstein1(atoms, mu) - (math.sqrt(2) / 3 - 1 / 6)) <= 1e-15
    # two triangles of a square with different shapes, against three atoms
    value = {(0, 0): Fraction(0), (1, 0): Fraction(1), (0, 1): Fraction(1, 2), (1, 1): Fraction(2)}
    triangles = [((0, 0), (1, 0), (1, 1)), ((0, 0), (0, 1), (1, 1))]
    G = PLConcaveFunction.make(
        RationalPolytope.from_vertices(list(value)),
        [(Simplex.make(t), _affine_through(t, [value[v] for v in t])) for t in triangles])
    points = [(Fraction(1, 4), 1), (Fraction(1), 2), (Fraction(3, 2), 1)]
    want = _w1_atoms_vs_triangles(points, [(1, sorted(value[v] for v in t)) for t in triangles])
    got = wasserstein1(DHMeasure.atomic([(x, m, None) for x, m in points]),
                       DHMeasure.pushforward(G))
    assert abs(got - want) <= 1e-15
    assert wasserstein1(DHMeasure.pushforward(G), DHMeasure.pushforward(G)) == 0.0


def test_wasserstein_between_pushforwards():
    """Two splines: the difference of uniform [0, 2] and the triangle law on [0, 2]."""
    square = RationalPolytope.from_vertices([(0, 0), (1, 0), (0, 1), (1, 1)])
    tent = DHMeasure.pushforward(PLConcaveFunction.linear(square, [1, 1], 0))
    # CDFs t^2/2 and t/2 on [0, 1], symmetric about 1: W1 = 2 int_0^1 (t - t^2)/2 dt = 1/6
    assert abs(wasserstein1(DHMeasure.uniform(0, 2), tent) - 1 / 6) <= 1e-15


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
    """Every pushforward query equals its per-cell log-domain sum, bit for bit; a moment
    is normalized by the j = 0 corner of its own derivative batch."""
    G = _clustered_transform()
    mu = DHMeasure.pushforward(G, weight_xi)
    ell = pairing_form(weight_xi, 2)
    a = Fraction(3, 2)

    def per_cell(form_of, k=0):
        """(top, [s_0, ..., s_k]): 2! * sum over the cells of int f^j e^{-form} = s_j e^top,
        one cell per call."""
        nodes = [[-float(form_of(f)(v)) for v in s.vertices] for s, f in G.cells]
        top = max(max(z) for z in nodes)
        leaves = [_exp_integrals([z], [float(abs(s.edge_determinant()))],
                                 [[float(f(v)) for v in s.vertices]] if k else None, k, [top])[0][0]
                  for z, (s, f) in zip(nodes, G.cells)]
        return top, [2 * math.fsum(list(corner)) for corner in zip(*leaves)]

    if not weight_xi:  # one query mixes the series fallback with the matrix path
        methods = {simplex_exp_integral(s, f.scaled(a)).method for s, f in G.cells}
        assert methods == {"series_fallback", "divided_difference"}
    top0, (mass,) = per_cell(lambda f: ell)
    assert mu.mass() == mass * math.exp(top0)
    for k in (1, 2, 3, 4):
        _, s = per_cell(lambda f: ell, k)
        assert mu.moment(k) == s[k] / s[0]
    top, (s,) = per_cell(lambda f: f.scaled(a).plus(ell))
    assert mu.log_exp_moment(a) == (top - top0) + math.log(s / mass)
    assert mu.exp_moment(a) == math.exp(mu.log_exp_moment(a))
    for tilt in (a, 0.7):
        at = rat(tilt)
        for k in (1, 2):
            _, s = per_cell(lambda f: f.scaled(at).plus(ell), k)
            assert mu.tilted_moment(tilt, k) == s[k] / s[0]
    # the rescaling objective's query: its log normalizer divides the j = 0 corner
    # at a by the j = 0 corner at 0 of the same k = 2 batch
    top0, s0 = per_cell(lambda f: ell, 2)
    assert mu._tilted(0, 2) == (0.0, [x / s0[0] for x in s0])
    for tilt in (a, 0.7):
        at = rat(tilt)
        top, s = per_cell(lambda f: f.scaled(at).plus(ell), 2)
        assert mu._tilted(tilt, 2) == ((top - top0) + math.log(s[0] / s0[0]),
                                       [x / s[0] for x in s])


def test_stacked_log_exp_moments_match_single_queries():
    """One stacked batch gives each log_exp_moment bit for bit, series and matrix rows mixed."""
    tilts = [Fraction(3, 2), 0.7, Fraction(-1, 3)]
    for weight_xi in [(), (Fraction(1, 3), 0)]:
        stacked = DHMeasure.pushforward(_clustered_transform(), weight_xi).log_exp_moments(tilts)
        assert stacked == [DHMeasure.pushforward(_clustered_transform(), weight_xi)
                           .log_exp_moment(a) for a in tilts]


def test_cell_order_does_not_change_pushforward_queries():
    """Cell sums are order-free: cells listed in reverse, past ``make``'s sort, give
    every query bit for bit what the canonical order gives."""
    G = _clustered_transform()
    backwards = PLConcaveFunction(G.domain, G.cells[::-1])
    tilts = [Fraction(3, 2), 0.7, Fraction(-1, 3)]
    for weight_xi in [(), (Fraction(1, 3), 0)]:
        mu, nu = (DHMeasure.pushforward(T, weight_xi) for T in (G, backwards))
        assert nu.mass() == mu.mass()
        assert nu.log_exp_moments(tilts) == mu.log_exp_moments(tilts)
        for a in [0, *tilts]:
            assert nu.tilted_moments(a, 4) == mu.tilted_moments(a, 4)


@pytest.mark.parametrize("atoms, a", [
    ([(50, 2), (Fraction(124, 7), 2), (Fraction(71, 4), 4), (Fraction(293, 2), 3)], 3),
    ([(Fraction(-249, 5), 5), (Fraction(85, 3), 2), (Fraction(-301, 6), 4),
      (Fraction(-73, 7), 5)], Fraction(8, 3)),
    ([(Fraction(152, 3), 5), (Fraction(-225, 7), 1), (-32, 3), (290, 3), (59, 5)],
     Fraction(3, 2)),
])
def test_atomic_tilted_sums_are_correctly_rounded(atoms, a):
    """Each sum of the ``_tilt`` terms x^j w e^{-a x - top} is the exact sum rounded once;
    at these atoms a double-double tree missed the moment j = 2 (or 1) by one ulp."""
    mu = DHMeasure.atomic(atoms)
    _, terms = mu._tilt(a)  # one term per distinct position, in increasing order
    positions = sorted({x for x, _, _ in mu.atoms})
    sums = [float(sum((Fraction(float(x)**j * t) for x, t in zip(positions, terms)),
                      Fraction(0))) for j in range(3)]
    assert mu.tilted_moments(a, 2) == [s / sums[0] for s in sums]


HUGE = st.fractions(min_value=-100, max_value=100, max_denominator=10**30)


@st.composite
def parallelogram_transforms(draw):
    """Two cells of a parallelogram whose coordinates and values have denominators up to 1e30."""
    p0, u, w = ([draw(HUGE), draw(HUGE)] for _ in range(3))
    assume(u[0] * w[1] - u[1] * w[0] != 0)
    corners = [tuple(p0), tuple(p + x for p, x in zip(p0, u)),
               tuple(p + x + y for p, x, y in zip(p0, u, w)), tuple(p + y for p, y in zip(p0, w))]
    value = {c: draw(HUGE) for c in corners}
    cells = [(Simplex.make(t), _affine_through(t, [value[v] for v in t]))
             for t in ((corners[0], corners[1], corners[2]), (corners[0], corners[3], corners[2]))]
    return PLConcaveFunction.make(RationalPolytope.from_vertices(corners), cells)


@settings(max_examples=60, deadline=None)
@given(parallelogram_transforms(),
       st.one_of(st.floats(min_value=-1e6, max_value=1e6), HUGE.map(str)),
       st.one_of(st.just(()), st.lists(HUGE, min_size=1, max_size=2)))
def test_integer_nodes_are_the_exact_values_rounded_once(G, a, xi):
    """A node from the integer tables equals -float(a v + e) of the exact value, sign included."""
    nodes = []
    real = expint._exp_integrals

    def recording(z, *args):
        nodes.extend(z)
        return real(z, *args)

    with mock.patch.object(expint, "_exp_integrals", recording):
        pl_cell_integrals(G, [(xi, [a])], 0)
    ell = pairing_form(xi, 2)
    want = [[-float(rat(a) * f(v) + ell(v)) for v in s.vertices] for s, f in G.cells]
    assert nodes == want
    assert [list(map(float.hex, z)) for z in nodes] == [list(map(float.hex, z)) for z in want]


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


def _counted_batches(monkeypatch) -> list:
    """The row count of every ``dd_exp_batch`` call that ``expint`` makes from now on."""
    rows, real = [], expint.dd_exp_batch

    def counted(z, *args, **kwargs):
        rows.append(len(z))
        return real(z, *args, **kwargs)

    monkeypatch.setattr(expint, "dd_exp_batch", counted)
    return rows


def test_cell_sums_memoized_on_the_transform(monkeypatch):
    """A second query of one (xi, a, k), from pl_cell_integrals or from any pushforward of
    the transform, makes no kernel call; a call batches only the entries it lacks, once."""
    G = _clustered_transform()
    xi, a = (Fraction(1, 3), 0), Fraction(1, 2)
    rows = _counted_batches(monkeypatch)
    first = pl_cell_integrals(G, [(xi, [a, 0])], 2)
    assert rows == [2 * len(G.cells)]
    assert pl_cell_integrals(G, [(list(xi), [0.5, 0]), (xi, [a])], 2) == [*first, first[0]]
    mu = DHMeasure.pushforward(G, xi)
    assert mu._tilted(a, 2) == mu._tilted(0.5, 2)
    assert mu.moment(2) == first[1][1][2] / first[1][1][0]
    assert rows == [2 * len(G.cells)]
    pl_cell_integrals(G, [(xi, [0, 2, 2]), (xi, [2, a])], 2)
    assert rows == [2 * len(G.cells), len(G.cells)]


def test_rescaled_transform_keeps_its_own_cell_sums(monkeypatch):
    """G.rescaled(a, b) shares G's pairings but reads none of G's cell sums: its mean and
    exponential moment are those of 2G + 1, and its first query batches."""
    G = _clustered_transform()
    mu = DHMeasure.pushforward(G, (Fraction(1, 3), 0))
    mean, log_q = mu.moment(1), mu.log_exp_moment(3)
    H = G.rescaled(2, 1)
    assert H._pairing_table is G._pairing_table
    rows = _counted_batches(monkeypatch)
    nu = DHMeasure.pushforward(H, (Fraction(1, 3), 0))
    assert nu.moment(1) == pytest.approx(2 * mean + 1, rel=1e-13)
    assert rows == [len(G.cells)]  # the order-1 rows at a = 0, of H's own values
    assert nu.log_exp_moment(Fraction(3, 2)) == pytest.approx(log_q - Fraction(3, 2), rel=1e-13)
    assert nu.moment(1) != mean


def test_moments_past_double_range_are_nonfinite():
    """A moment, a tilted moment or an inverse power mean past double range is a
    NonFiniteResult, never an OverflowError."""
    G = PLConcaveFunction.linear(RationalPolytope.interval(0, 1), [1], 10**80)
    with np.errstate(over="ignore", invalid="ignore"):  # as the CLI runs
        # the error bound |w|_max^k * I_0 of this row is past double range: inf, no raise
        [(_, err, _)] = _exp_integrals([[0.0, -1.0]], [1.0], [[1e80, 1e80 + 1e64]], 4, [0.0])
    assert err == math.inf or math.isnan(err)
    atoms = DHMeasure.atomic([(10**80, 1, None), (-10**80, 1, None)])
    assert atoms.moment(2) == 1e160
    light = DHMeasure.atomic([(0, 1, None), (10**155, Fraction(1, 10**10), None)])
    tiny = Fraction(1, 10**300)
    with np.errstate(over="ignore", invalid="ignore"):  # as the CLI runs
        for query in (lambda: DHMeasure.pushforward(G).tilted_moments(0, 4),
                      lambda: atoms.moment(4), lambda: light.tilted_moments(1e-160, 2),
                      lambda: atoms.inverse_power_mean(0, tiny, 2),
                      lambda: DHMeasure.pushforward(G).inverse_power_mean(0, tiny, 2),
                      lambda: DHMeasure.pushforward(G).log_exp_moment(10**300)):
            with pytest.raises(NonFiniteResult):
                query()
    with pytest.raises(NonFiniteResult):
        DHMeasure.atomic([(0, 1, None), (Fraction(10**310), 1, None)])


@pytest.mark.parametrize("kind", ["weighted", "unweighted", "atoms"])
def test_inverse_power_mean_vanishing_denominator(kind):
    """b x + c = x - 1/2 vanishes inside the support [0, 1]: DenominatorVanishes for
    every measure kind; the weighted pushforward once raised a raw ZeroDivisionError."""
    G = PLConcaveFunction.linear(RationalPolytope.interval(0, 1), [1], 0)
    mu = {"weighted": DHMeasure.pushforward(G, [1]), "unweighted": DHMeasure.pushforward(G, []),
          "atoms": DHMeasure.atomic([(0, 1, None), (1, 1, None)])}[kind]
    for c in (Fraction(-1, 2), 0, -1):
        with pytest.raises(DenominatorVanishes, match="vanishes on the support"):
            mu.inverse_power_mean(1, c, 2)
    assert mu.inverse_power_mean(1, Fraction(1, 2), 2) > 0


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


def test_atomic_cdf_bit_identical():
    """The integer cumulative sums round exactly as the Fraction quotients did."""
    import random

    rng = random.Random(5)
    atoms = [(Fraction(rng.randint(-20, 20), rng.randint(1, 6)),
              Fraction(rng.randint(1, 10**6), rng.randint(1, 10**4)), None) for _ in range(50)]
    mu = DHMeasure.atomic(atoms)
    knots, pieces = mu._cdf
    total = sum(m for _, m, _ in atoms)
    running = Fraction(0)
    for x, (value,) in zip(sorted({x for x, _, _ in atoms}), pieces):
        running += sum(m for y, m, _ in atoms if y == x)
        assert value == float(running / total)
    assert pieces[-1] == (1.0,)


def test_weighted_superlevel_far_weight():
    """Density e^{1000 y} on [0, 1]: the normalized survival and the cone stay finite."""
    from fanokit.optimize import cone_family

    tilted = DHMeasure.pushforward(
        PLConcaveFunction.linear(RationalPolytope.interval(0, 1), [1], 0), [-1000])
    with pytest.raises(NonFiniteResult):
        tilted.mass_above(Fraction(1, 2))  # e^1000 (1 - e^-500) / 1000 overflows
    for t in (Fraction(1, 2), Fraction(999, 1000), Fraction(9999, 10000)):
        # mu{y >= t} / mass = (1 - e^{-1000 (1 - t)}) / (1 - e^{-1000})
        want = math.expm1(-1000 * (1 - t)) / math.expm1(-1000)
        assert abs(tilted._share_above(t) - want) <= 1e-13 * want
    # f(s) = 3^2 E[(s y + 3 (1 - s))^{-2}]; with 1 - y ~ Exp(1000), Laplace's series
    # E[phi(y)] = sum_j (-1)^j phi^(j)(1) / 1000^j = sum_j (j + 1)! (1/4000)^j / 4 at s = 1/2
    scan = cone_family(3, tilted, [0, 0.5])
    series = sum(math.factorial(j + 1) * (1 / 4000) ** j for j in range(12)) / 4
    assert scan.values[0] == 1.0
    assert abs(scan.values[1] - 9 * series) <= 1e-9 * 9 * series


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
