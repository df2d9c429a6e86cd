import inspect
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanokit.errors import (
    DenominatorVanishes,
    InvalidVolumeFunction,
    NegativeSupport,
    NonConvergence,
    OriginNotInterior,
)
from fanokit.expint import PLConcaveFunction
from fanokit.functionals import LPolicy, beta_g
from fanokit.geometry import RationalPolytope
from fanokit.measure import DHMeasure, measure_from_json
from fanokit.optimize import (
    ConvexScan,
    cone_family,
    interpolation_derivative,
    newton_minimize,
    rescale_opt,
    soliton_vector,
    twist_opt,
    vol_g_tau,
)

import soliton_reference
from conftest import p1_filtration, random_level
from fanokit.filtration import FiltrationLevel, GradedFiltration
from oracles import bisect_root, central_diff
from test_golden import CONE, T3


# -- shared solver -----------------------------------------------------------


def test_newton_quadratic_one_step():
    c = np.array([1.5, -2.0])
    calls = []

    def f(x):
        calls.append(np.array(x))
        return 0.5 * float((x - c) @ (x - c))

    res = newton_minimize(f, lambda x: x - c, lambda x: np.eye(2), [0.0, 0.0])
    assert res.iterations == 1 and res.converged
    assert np.allclose(res.argmin, c, atol=1e-12)
    assert res.hessian_min_eig >= 0
    # f at x0 and at the accepted full step; the accepted value is not recomputed
    assert len(calls) == 2


def test_newton_minimize_takes_the_three_callbacks_first():
    # fanobench/tracing.py counts f, grad and hess evaluations by wrapping the
    # first three positional arguments of newton_minimize: keep them there.
    assert list(inspect.signature(newton_minimize).parameters)[:3] == ["f", "grad", "hess"]


def test_newton_starting_at_minimum():
    res = newton_minimize(lambda x: float(x @ x), lambda x: 2 * x, lambda x: 2 * np.eye(1), [0.0])
    assert res.iterations == 0 and res.converged


def test_newton_log_sum_exp_matches_bisection():
    # minimize log(e^{-x} + e^{2x}): stationary point solves 2 e^{2x} = e^{-x}
    def f(x):
        return math.log(math.exp(-x[0]) + math.exp(2 * x[0]))

    def g(x):
        d = math.exp(-x[0]) + math.exp(2 * x[0])
        return np.array([(-math.exp(-x[0]) + 2 * math.exp(2 * x[0])) / d])

    def h(x):
        d = math.exp(-x[0]) + math.exp(2 * x[0])
        num = math.exp(-x[0]) + 4 * math.exp(2 * x[0])
        return np.array([[num / d - (g(x)[0]) ** 2]])

    res = newton_minimize(f, g, h, [0.7])
    root = bisect_root(lambda x: -math.exp(-x) + 2 * math.exp(2 * x), -2, 2)
    assert abs(res.argmin[0] - root) < 1e-10


@pytest.mark.parametrize("A, atoms", [
    (1e-300, [(0, 1), (1, 1)]),
    (1e-301, [(0, 1), (Fraction(1, 10**300), 1)]),
], ids=["root-beyond-the-iteration-limit", "gradient-norm-underflows"])
def test_newton_ends_only_on_a_newton_step_that_passes_the_stop(A, atoms):
    """A solve that never passes the stop test raises instead of reporting convergence.

    The first root, a ~ 690.8, lies beyond the iteration limit of damped steps; the
    solve once ended at a = 101.2 marked converged.  In the second, ||g|| of the
    gradient -4e-301 underflows to 0 and so does the Hessian: the gradient fallback's
    step once stopped the solve at a = 0.
    """
    with pytest.raises(NonConvergence):
        rescale_opt(A, DHMeasure.atomic(atoms))


# -- soliton direction -------------------------------------------------------


def test_soliton_symmetric_interval():
    res = soliton_vector(RationalPolytope.interval(-1, 1))
    assert abs(res.argmin[0]) <= 1e-10
    assert abs(res.value) <= 1e-12
    assert res.grad_norm <= 1e-10


def test_soliton_interval_matches_bisection():
    poly = RationalPolytope.interval(-1, 2)
    res = soliton_vector(poly)
    # the optimum is the root of the tilted mean int y e^{-y xi} dy = 0
    root = bisect_root(lambda t: _interval_mean(-1, 2, t), 0.0, 2.0, tol=1e-14)
    assert root > 0
    assert abs(res.argmin[0] - root) <= 1e-8
    assert res.grad_norm <= 1e-10
    assert res.hessian_min_eig > 0


def _interval_mean(a, b, xi):
    """E[y] under e^{-y xi} dy on [a, b] (for the bisection oracle)."""
    if xi == 0:
        return (a + b) / 2
    za, zb = math.exp(-a * xi), math.exp(-b * xi)
    num = (a * za - b * zb) / xi + (za - zb) / xi**2
    den = (za - zb) / xi
    return num / den


def test_soliton_centrally_symmetric_2d():
    poly = RationalPolytope.from_vertices([[2, 1], [-2, -1], [1, 2], [-1, -2]])
    res = soliton_vector(poly)
    assert max(abs(v) for v in res.argmin) <= 1e-10


def test_soliton_translation_and_scaling_invariance():
    base = RationalPolytope.from_vertices([[-1, -1], [2, -1], [0, 2]])
    res = soliton_vector(base, rank=2)
    scaled = RationalPolytope.from_vertices([[c * Fraction(2) for c in v] for v in base.vertices])
    res2 = soliton_vector(scaled, rank=2)
    assert np.allclose(np.asarray(res2.argmin), np.asarray(res.argmin) / 2, atol=1e-8)
    # translating along a direction with zero projection: pad to 3-D
    lifted = RationalPolytope.from_vertices(
        [list(v) + [w] for v in base.vertices for w in (0, 1)]
    )
    moved = RationalPolytope.from_vertices(
        [list(v) + [w + 5] for v in base.vertices for w in (0, 1)]
    )
    r1 = soliton_vector(lifted, rank=2)
    r2 = soliton_vector(moved, rank=2)
    assert np.allclose(r1.argmin, r2.argmin, atol=1e-9)


def test_soliton_requires_interior_origin():
    with pytest.raises(OriginNotInterior):
        soliton_vector(RationalPolytope.interval(1, 2))


def test_soliton_value_is_entropy_at_optimum():
    poly = RationalPolytope.interval(-1, 2)
    res = soliton_vector(poly)
    xi = res.argmin[0]
    total = _interval_exp_mass(-1, 2, xi)
    assert abs(res.value - math.log(total / 3.0)) < 1e-12


def _interval_exp_mass(a, b, xi):
    if xi == 0:
        return b - a
    return (math.exp(-a * xi) - math.exp(-b * xi)) / xi


@pytest.mark.parametrize("lo, hi, bracket", [
    (Fraction(-1, 1000), 900, (1.0, 2000.0)),
    (Fraction(-1, 100000), 50, (1.0, 2e5)),
    # the Hessian at the argmin is about lo^2: a small gradient alone stops
    # these up to 3e-5 relative off
    (Fraction(-1, 100000), 80, (1.0, 2e5)),
    (Fraction(-1, 1000000), 20, (1.0, 2e6)),
    (Fraction(-1, 10000000), 30, (1.0, 2e7)),
])
def test_soliton_far_tilted_interval_converges(lo, hi, bracket):
    # 0 is interior, but the minimizer sits at xi ~ 1/|lo|, where the vertex
    # values spread over ~1e6: the objective must be summed in the log domain
    res = soliton_vector(RationalPolytope.interval(lo, hi))
    a, b = float(lo), float(hi)
    root = bisect_root(lambda t: _interval_mean(a, b, t), *bracket, tol=1e-16)
    assert abs(res.argmin[0] - root) <= 1e-8 * root
    xi = res.argmin[0]
    closed = math.log(_interval_exp_mass(a, b, xi) / (b - a))
    assert abs(res.value - closed) <= 1e-12 * abs(closed)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("k", [7, 9, 12, 15])
def test_soliton_thin_box_converges(dim, k):
    # the box [-10^-k, 1] x [-1, 1]^(dim-1): the Hessian's diagonal spans about
    # 10^-2k to 1/3, so cond(H) alone once refused every Newton step for k >= 7
    sides = [(Fraction(-1, 10**k), 1)] + [(-1, 1)] * (dim - 1)
    res = soliton_vector(RationalPolytope.from_vertices(
        [list(v) for v in itertools.product(*sides)]))
    (a, b), *_ = sides
    root = bisect_root(lambda t: _interval_mean(float(a), b, t), 1.0, 2.0 * 10**k, tol=1e-16)
    assert abs(res.argmin[0] - root) <= 1e-8 * root
    # each unit side is symmetric: its tilted-mean root is 0
    assert all(abs(x) <= 1e-8 for x in res.argmin[1:])


def test_soliton_solve_one_kernel_batch_per_point(monkeypatch):
    import fanokit.optimize as optimize

    batches, points = [], set()
    real_batch, real_newton = optimize.dd_exp_batch, optimize.newton_minimize

    def counted_batch(*args, **kwargs):
        batches.append(1)
        return real_batch(*args, **kwargs)

    def recorded(fn):
        def inner(x):
            points.add(tuple(float(v) for v in x))
            return fn(x)
        return inner

    def recording_newton(f, grad, hess, *rest, **kwargs):
        return real_newton(recorded(f), recorded(grad), recorded(hess), *rest, **kwargs)

    monkeypatch.setattr(optimize, "dd_exp_batch", counted_batch)
    monkeypatch.setattr(optimize, "newton_minimize", recording_newton)
    res = soliton_vector(RationalPolytope.from_vertices([[-1, -1], [3, 0], [0, 2], [1, -1]]))
    assert res.converged and res.iterations >= 2
    assert len(batches) == len(points)


def test_rescale_one_kernel_batch_per_iterate(monkeypatch):
    """rescale_opt pays one kernel batch per Newton point, plus the mean at 0."""
    import fanokit.expint as expint
    from fanokit import optimize

    calls = []
    points = set()
    real_batch = expint.dd_exp_batch
    real_newton = optimize.newton_minimize

    def counted_batch(*args, **kwargs):
        calls.append(1)
        return real_batch(*args, **kwargs)

    def recording_newton(f, grad, hess, *rest, **kwargs):
        def recorded(fn):
            def inner(x):
                points.add(tuple(float(v) for v in x))
                return fn(x)
            return inner
        return real_newton(recorded(f), recorded(grad), recorded(hess), *rest, **kwargs)

    monkeypatch.setattr(expint, "dd_exp_batch", counted_batch)
    monkeypatch.setattr(optimize, "newton_minimize", recording_newton)
    res = rescale_opt(1.3, DHMeasure.uniform(Fraction(1, 2), Fraction(5, 2)))
    assert res.converged and res.iterations >= 3
    assert len(calls) == len(points) + 1
    # no backtracking here: the start and one point per iteration
    assert len(calls) == res.iterations + 2


def test_rescale_newton_point_batch_holds_one_row_per_cell(monkeypatch):
    """The a = 0 mass rows are cached per moment order, so each batch of a rescale
    solve, at a = 0 or at a Newton point a > 0, holds one row per cell."""
    import fanokit.expint as expint

    rows = []
    real_batch = expint.dd_exp_batch

    def counted_batch(z, *args, **kwargs):
        rows.append(len(z))
        return real_batch(z, *args, **kwargs)

    monkeypatch.setattr(expint, "dd_exp_batch", counted_batch)
    square = RationalPolytope.from_vertices([[0, 0], [2, 0], [2, 1], [0, 1]])
    G = PLConcaveFunction.linear(square, [Fraction(1, 2), 1], Fraction(1, 2))
    res = rescale_opt(1.0, DHMeasure.pushforward(G))
    assert res.converged and res.iterations >= 3
    assert len(rows) == res.iterations + 2
    assert rows == [len(G.cells)] * len(rows)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(0, 10**6),
       st.lists(st.floats(-4, 4), min_size=3, max_size=3))
def test_soliton_evaluate_matches_separate_batches(n, seed, xi):
    """One moments batch gives the value of the plain batch and the same g and H."""
    from fanokit.optimize import _SolitonObjective

    objective = _SolitonObjective(_lattice_polytope(random.Random(seed), n), n)
    value, g, H = objective.evaluate(xi[:n])
    want_g, want_H = soliton_reference.grad_hess(objective, xi[:n])
    assert value == soliton_reference.value(objective, xi[:n])
    assert np.array_equal(g, want_g) and np.array_equal(H, want_H)


def _lattice_polytope(rng, n):
    while True:
        pts = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n + 3)]
        poly = RationalPolytope.from_vertices(pts)
        if poly.full_dimensional:
            return poly


def _xi_with_spread(rng, poly, spread):
    """A rational xi whose pairings with the vertices spread over ``spread``."""
    n = poly.dim
    if spread == 0:
        return [Fraction(0)] * n
    direction = [Fraction(rng.randint(-9, 9), 7) for _ in range(n)]
    vals = [sum(d * x for d, x in zip(direction, v)) for v in poly.vertices]
    if max(vals) == min(vals):
        direction[0] += 1
        vals = [sum(d * x for d, x in zip(direction, v)) for v in poly.vertices]
    factor = Fraction(spread).limit_denominator(10**12) / (max(vals) - min(vals))
    return [factor * d for d in direction]


@pytest.mark.parametrize("spread", [0, 1e-8, 10.0])
def test_soliton_derivatives_match_weighted_integrals(rng, spread):
    """Repeated-node derivatives equal the k=1 moments and the polarized k=2 moments."""
    from simplex_integrals import simplex_weighted_exp_integral
    from fanokit.geometry import pairing_form
    from fanokit.optimize import _SolitonObjective

    for n in (2, 3, 4):
        poly = _lattice_polytope(rng, n)
        xi = _xi_with_spread(rng, poly, spread)
        top, _, grad, second = _SolitonObjective(poly, n).moments([float(x) for x in xi])
        scale = math.exp(top)
        ell = pairing_form(xi, n)
        cells = poly.triangulate()

        def moment(coeffs, k):
            w = pairing_form(coeffs, n)
            return math.fsum(simplex_weighted_exp_integral(s, ell, w, k).value for s in cells)

        unit = [[int(i == j) for i in range(n)] for j in range(n)]
        want_grad = np.array([-moment(unit[a], 1) for a in range(n)])
        want_second = np.array([
            [(moment([x + y for x, y in zip(unit[a], unit[b])], 2)
              - moment([x - y for x, y in zip(unit[a], unit[b])], 2)) / 4
             for b in range(n)] for a in range(n)])
        assert np.max(np.abs(scale * grad - want_grad)) <= 1e-12 * np.max(np.abs(want_grad))
        assert (np.max(np.abs(scale * second - want_second))
                <= 1e-12 * np.max(np.abs(want_second)))


# -- rescaling optimum -------------------------------------------------------


def test_rescale_opt_nonnegative_beta():
    res = rescale_opt(3, DHMeasure.uniform(0, 4))
    assert res.argmin == 0.0 and res.value == 0.0 and res.converged


def test_rescale_opt_interior_optimum():
    mu = DHMeasure.uniform(0, 4)
    assert beta_g(1, mu) < 0
    res = rescale_opt(1, mu)
    # oracle: f'(a) = 1 - E_tilted[a] root by bisection
    root = bisect_root(lambda a: 1 - _tilted_mean_uniform04(a), 1e-6, 8.0, tol=1e-14)
    assert abs(res.argmin - root) <= 1e-8
    assert res.value < 0
    assert res.hessian_min_eig >= 0
    # optimal value beats 50 probes
    for i in range(1, 51):
        a = 8.0 * i / 50
        probe = a * 1 + math.log(mu.exp_moment(a))
        assert res.value <= probe + 1e-12


def _tilted_mean_uniform04(a):
    q = (1 - math.exp(-4 * a)) / (4 * a)
    m1 = (1 / a - 4 * math.exp(-4 * a) / (1 - math.exp(-4 * a)))
    return m1 if q else 0.0


def test_rescale_opt_dirac_guard():
    assert rescale_opt(3, DHMeasure.dirac(2)).argmin == 0.0
    with pytest.raises(NonConvergence):
        rescale_opt(1, DHMeasure.dirac(2))
    with pytest.raises(NegativeSupport):
        rescale_opt(1, DHMeasure.uniform(-1, 2))


@pytest.mark.parametrize("mu", [
    DHMeasure.pushforward(PLConcaveFunction.linear(RationalPolytope.interval(0, 3), [0], 2)),
    DHMeasure.pushforward(PLConcaveFunction.linear(
        RationalPolytope.from_vertices([[0, 0], [2, 0], [0, 1]]), [0, 0], 2), [1, -1]),
    DHMeasure.atomic([(2, 1, None), (2, Fraction(1, 3), None), (Fraction(4, 2), 5, None)]),
], ids=["constant-transform", "weighted-constant-transform", "atoms-at-one-position"])
def test_rescale_dirac_branch_is_exact(mu):
    """A measure whose support is one point T: argmin 0 for A >= T, no minimizer below T."""
    assert mu.support().lambda_min == mu.support().lambda_max == 2.0
    for A in (2, 2.5, 7):
        res = rescale_opt(A, mu)
        assert res.argmin == 0.0 and res.value == 0.0 and res.converged
    for A in (1, 1.999999999):
        with pytest.raises(NonConvergence):
            rescale_opt(A, mu)


def _narrow_uniform_root():
    """u_* with 1/u - 1/(e^u - 1) = 1/4, by float bisection to adjacent doubles."""
    def excess(u):
        return 1 / u - 1 / math.expm1(u) - 0.25  # decreasing in u

    lo, hi = 1.0, 10.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return lo if abs(excess(lo)) <= abs(excess(hi)) else hi
        if excess(mid) > 0:
            lo = mid
        else:
            hi = mid


@pytest.mark.parametrize("c", [Fraction(0), Fraction(1), Fraction(3, 2)], ids=str)
@pytest.mark.parametrize("exponent", [3, 10, 20, 24])
def test_rescale_narrow_support_matches_closed_form(c, exponent):
    """On uniform [c, c + w] with A = c + w/4 the optimum is a_* = u_* / w.

    The tilted mean of uniform [0, w] at a is w (1/u - 1/(e^u - 1)) with u = a w,
    so f'(a) = 0 reads 1/u - 1/(e^u - 1) = 1/4 for every width; A is exact in binary.
    """
    w = Fraction(1, 2**exponent)
    res = rescale_opt(float(c + w / 4), DHMeasure.uniform(c, c + w))
    want = _narrow_uniform_root() / float(w)
    assert res.converged
    assert abs(res.argmin - want) <= 1e-12 * want


def test_rescale_shifts_by_the_exact_minimum(monkeypatch):
    """The spectrum is shifted by its exact minimum, 16711/14400 on T3, where a float
    round trip once shifted by 725303819434/624999999991."""
    shifts = []
    original = DHMeasure.affine_transform

    def record(self, a, b):
        shifts.append((a, b))
        return original(self, a, b)

    monkeypatch.setattr(DHMeasure, "affine_transform", record)
    mu = measure_from_json({"transform": T3})
    assert mu.support().lambda_min == Fraction(16711, 14400)
    res = rescale_opt(Fraction(3, 2), mu)
    assert shifts == [(1, Fraction(-16711, 14400))]
    assert res.converged and res.argmin > 0


def test_rescale_second_derivative_nonnegative(rng):
    mu = DHMeasure.atomic([(Fraction(i, 2), Fraction(rng.randint(1, 4)), None)
                           for i in range(5)])

    def fpp(a):
        m1 = mu.tilted_moment(a, 1)
        return mu.tilted_moment(a, 2) - m1 * m1

    for _ in range(20):
        assert fpp(rng.uniform(0.01, 5)) >= -1e-13


# -- twist optimum -----------------------------------------------------------


def test_twist_opt_symmetric_weights():
    lv = FiltrationLevel.from_values(2, [0, 0, 0], weights=[(-1,), (0,), (1,)])
    F = GradedFiltration({2: lv})
    res = twist_opt(F, [2], LPolicy.weight_twist())
    assert abs(res.argmin[0]) <= 1e-10


def test_twist_opt_untwists_linear_values():
    # atoms with lambda_i = <alpha_i, zeta> and mean-zero weights: the optimal
    # twist is exactly -zeta (stationarity needs the weight barycenter at 0,
    # the vanishing-moment normalization)
    zeta = Fraction(3, 4)
    weights = [(-1,), (0,), (1,)]
    values = [w[0] * zeta for w in weights]
    lv = FiltrationLevel.from_values(1, values, weights=weights)
    F = GradedFiltration({1: lv})
    res = twist_opt(F, [1], LPolicy.weight_twist())
    assert abs(res.argmin[0] - float(-zeta)) <= 1e-8
    # at the optimum all shifted atoms coincide: S-tilde term is the zero-variance value
    assert abs(res.value) <= 1e-10


def test_twist_opt_two_starts_agree(rng):
    lv = random_level(rng, 6, m=3, with_weights=True, rank=2)
    # force 0 into the interior of the weight hull
    weights = list(lv.weights)
    weights[0] = (Fraction(2), Fraction(0))
    weights[1] = (Fraction(-2), Fraction(1))
    weights[2] = (Fraction(0), Fraction(-2))
    lv = FiltrationLevel(lv.degree, lv.basis, lv.values, tuple(weights))
    F = GradedFiltration({3: lv})
    r1 = twist_opt(F, [3], LPolicy.weight_twist(), x0=[1.5, -0.5])
    r2 = twist_opt(F, [3], LPolicy.weight_twist(), x0=[-2.0, 2.0])
    assert np.allclose(r1.argmin, r2.argmin, atol=1e-8)


def test_twist_opt_equivariant_under_weight_rescaling():
    # dividing the first weight coordinate by 10^k multiplies that argmin
    # coordinate by 10^k; for k >= 7 the solver once ran out of iterations
    values = [0, Fraction(1, 2), 3, -1, Fraction(5, 2), 2]
    weights = [(2, 1), (-2, 1), (0, -2), (1, 1), (-1, 0), (1, -1)]

    def argmin(k):
        lv = FiltrationLevel.from_values(
            2, values, weights=[(Fraction(u, 10**k), Fraction(v)) for u, v in weights])
        return twist_opt(GradedFiltration({2: lv}), [2], LPolicy.weight_twist()).argmin

    x0, y0 = argmin(0)
    for k in range(1, 11):
        x, y = argmin(k)
        assert abs(x / 10**k - x0) <= 1e-12 * abs(x0)
        assert abs(y - y0) <= 1e-12 * abs(y0)


def test_twist_opt_requires_weights_and_properness():
    from fanokit.errors import MissingTorusWeights

    F = GradedFiltration({1: FiltrationLevel.from_values(1, [0, 1])})
    with pytest.raises(MissingTorusWeights):
        twist_opt(F, [1], LPolicy.weight_twist())
    lv = FiltrationLevel.from_values(1, [0, 1], weights=[(1,), (2,)])
    with pytest.raises(OriginNotInterior):
        twist_opt(GradedFiltration({1: lv}), [1], LPolicy.weight_twist())


def test_twist_objective_midpoint_convex(rng):
    lv = FiltrationLevel.from_values(
        1, [0, 1, -1], weights=[(-1,), (0,), (1,)])
    F = GradedFiltration({1: lv})
    atoms_lam = np.array([0.0, 1.0, -1.0])
    atoms_w = np.array([-1.0, 0.0, 1.0])

    def neg_s(xi):
        return math.log(np.mean(np.exp(-(atoms_lam + atoms_w * xi))))

    for _ in range(20):
        x1, x2 = rng.uniform(-2, 2), rng.uniform(-2, 2)
        mid = 0.5 * (x1 + x2)
        assert neg_s(mid) <= 0.5 * (neg_s(x1) + neg_s(x2)) + 1e-12


def test_objectives_midpoint_convex_on_100_segments(rng):
    """Soliton, rescaling and twist objectives are midpoint-convex along segments."""
    from fanokit.optimize import _SolitonObjective

    checked = 0
    poly = RationalPolytope.from_vertices([[-1, -1], [2, 0], [0, 2], [1, -1]])
    soliton = _SolitonObjective(poly, 2)

    def soliton_obj(xi):
        return soliton.evaluate(xi)[0]

    mu = DHMeasure.uniform(0, 4)

    def rescale_obj(a):
        return a * 1.0 + math.log(mu.exp_moment(a))

    lam = [0.0, 1.0, -0.5]
    wts = [-1.0, 0.0, 1.0]

    def twist_obj(x):
        return math.log(sum(math.exp(-(l + w * x)) for l, w in zip(lam, wts)) / 3)

    while checked < 100:
        kind = checked % 3
        if kind == 0:
            p = np.array([rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)])
            q = np.array([rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)])
            f = lambda t: soliton_obj(p + t * (q - p))
        elif kind == 1:
            a0, a1 = sorted((rng.uniform(0.05, 4), rng.uniform(0.05, 4)))
            f = lambda t: rescale_obj(a0 + t * (a1 - a0))
        else:
            x0, x1 = rng.uniform(-2, 2), rng.uniform(-2, 2)
            f = lambda t: twist_obj(x0 + t * (x1 - x0))
        assert f(0.5) <= 0.5 * (f(0.0) + f(1.0)) + 1e-10
        checked += 1


# -- interpolation family ----------------------------------------------------


def test_interpolation_derivative_affine_case():
    # G = <y, xi>: the family is constant, derivative 0
    dom = RationalPolytope.interval(-1, 1)
    G = PLConcaveFunction.linear(dom, [Fraction(1, 2)], 0)
    analytic, fd = interpolation_derivative(G, (Fraction(1, 2),), L_hat=0.0)
    assert abs(analytic) < 1e-12
    assert abs(fd) < 1e-8


def test_interpolation_derivative_closed_form():
    # Delta = [-1, 1], xi = 1, G = 2y, L_hat = 0:
    # analytic = -(int y e^{-y}) / (int e^{-y}) over [-1, 1]
    dom = RationalPolytope.interval(-1, 1)
    G = PLConcaveFunction.linear(dom, [2], 0)
    analytic, fd = interpolation_derivative(G, (1,), L_hat=0.0)
    # int y e^{-y} dy = -(y+1) e^{-y}: evaluate on [-1, 1]
    int_ye = (-(1 + 1) * math.exp(-1)) - (-(-1 + 1) * math.exp(1))
    int_e = math.e - math.exp(-1)
    expected = -int_ye / int_e
    assert abs(analytic - expected) < 1e-12
    assert abs(fd - expected) < 1e-6


def test_interpolation_derivative_fd_agreement_random(rng):
    from fanokit.geometry import AffineForm, Simplex

    dom = RationalPolytope.interval(-1, 1)
    for _ in range(5):
        # random genuinely piecewise-linear concave tent on [-1, 1]
        mid = Fraction(rng.randint(-1, 1), 2)
        left = Fraction(rng.randint(0, 3), 2)
        right = Fraction(rng.randint(-3, 0), 2)
        peak = Fraction(rng.randint(0, 2))
        G = PLConcaveFunction.make(dom, [
            (Simplex.make([[-1], [mid]]), AffineForm.make([left], peak - left * mid)),
            (Simplex.make([[mid], [1]]), AffineForm.make([right], peak - right * mid)),
        ])
        xi = (Fraction(rng.randint(-2, 2), 2),)
        lhat = rng.uniform(-1, 1)
        analytic, fd = interpolation_derivative(G, xi, L_hat=lhat)
        assert abs(analytic - fd) <= 1e-5 * max(1.0, abs(analytic))


def test_interpolation_derivative_filtration_input():
    F = p1_filtration([6])
    analytic, fd = interpolation_derivative(F, (Fraction(1, 2),), L_hat=0.25, degree=6)
    assert abs(analytic - fd) <= 1e-5 * max(1.0, abs(analytic))


def test_interpolation_derivative_far_support():
    """Data far from 0: h_hat's log integrals come from log offsets, not logs of underflows."""
    # G = <y, xi> on [800, 801]: the family is constant in s, so both derivatives are L_hat
    G = PLConcaveFunction.linear(RationalPolytope.interval(800, 801), [1], 0)
    analytic, fd = interpolation_derivative(G, (1,), L_hat=0.75)
    assert abs(analytic - 0.75) <= 1e-12
    assert abs(fd - 0.75) <= 1e-8
    # a level whose values equal its weight pairings, all near 800: same closed form
    m = 4
    values = [800 * m + i for i in range(m + 1)]
    lv = FiltrationLevel.from_values(m, values, weights=[(v,) for v in values])
    analytic, fd = interpolation_derivative(GradedFiltration({m: lv}), (1,), L_hat=0.75)
    assert abs(analytic - 0.75) <= 1e-12
    assert abs(fd - 0.75) <= 1e-8


# -- cone family -------------------------------------------------------------


def test_cone_family_dirac_constant():
    scan = cone_family(2.0, DHMeasure.dirac(2), dim=2)
    assert all(abs(v - 1.0) < 1e-12 for v in scan.values)
    assert abs(scan.derivative_at_zero) < 1e-12
    assert scan.midpoint_convex()


def test_convex_scan_on_an_uneven_grid():
    """sqrt on (0, 1/10, 9/10) is concave, although its middle sample lies below the
    mean of its neighbours; the chord through them, weighted by spacing, shows it."""
    points = (0.0, 0.1, 0.9)
    assert not ConvexScan(points, tuple(map(math.sqrt, points))).midpoint_convex()
    assert ConvexScan(points, tuple(s * s for s in points)).midpoint_convex()


def test_cone_family_uniform_derivative():
    mu = DHMeasure.atomic([(Fraction(i, 8) * 4, Fraction(1), None) for i in range(9)])
    scan = cone_family(1.0, mu, dim=1)
    e_g = mu.moment(1)
    assert abs(scan.derivative_at_zero - 2 * (1 - e_g)) < 1e-12
    assert scan.midpoint_convex()


def _cone_val(mu, A, s, n):
    total = float(sum(float(m) for _, m, _ in mu.atoms))
    return A ** (n + 1) * sum(
        float(m) * (s * float(p) + (1 - s) * A) ** (-(n + 1)) for p, m, _ in mu.atoms
    ) / total


def test_cone_family_pushforward_matches_atomic():
    push = DHMeasure.uniform(0, 4)
    atoms = DHMeasure.atomic([(Fraction(i, 200) * 4 + Fraction(1, 100), Fraction(1), None)
                              for i in range(200)])
    s_grid = [0.0, 0.2, 0.4]
    a = cone_family(1.0, push, s_grid=s_grid, dim=1)
    b = cone_family(1.0, atoms, s_grid=s_grid, dim=1)
    for x, y in zip(a.values, b.values):
        assert abs(x - y) < 5e-3


def test_cone_family_denominator_guard():
    with pytest.raises(DenominatorVanishes):
        cone_family(1.0, DHMeasure.atomic([(-2, 1, None)]), s_grid=[0.0, 0.9], dim=1)


def _cone_exact(s, A, p, lo, hi, density):
    """A^p E[(s x + (1 - s) A)^{-p}] for a piecewise-linear density on [lo, hi].

    ``density`` lists (t0, t1, alpha, beta) with density alpha + beta t on
    [t0, t1]; with u = s t + c, (alpha + beta t) dt = (alpha + beta (u - c)/s) du/s,
    so each piece is int (k0 + k1 u) u^{-p} du.  Returns (rational part, log part).
    """
    b = Fraction(repr(s))
    A = Fraction(A)
    c = (1 - b) * A
    exact, logs = Fraction(0), 0.0
    for t0, t1, alpha, beta in density:
        u0, u1 = b * t0 + c, b * t1 + c
        k0, k1 = (alpha - beta * c / b) / b, beta / b ** 2
        for k, e in ((k0, 1 - p), (k1, 2 - p)):  # int u^{e - 1} du
            if e == 0:
                logs += float(k) * math.log(u1 / u0)
            else:
                exact += k * (u1 ** e - u0 ** e) / e
    mass = sum(((alpha + beta * (t0 + t1) / 2) * (t1 - t0) for t0, t1, alpha, beta in density),
               Fraction(0))
    return A ** p * exact / mass, float(A ** p) * logs / float(mass)


def test_cone_family_exact_values():
    """Cone values of pushforwards are closed forms, exact up to one rounding."""
    # uniform on [-2, 1], A = 1: s x + (1 - s) vanishes at x = -2 for s = 1/3
    uniform = DHMeasure.uniform(-2, 1)
    grid = [0.0, 0.2, 0.33333, 0.3333333333]
    scan = cone_family(1.0, uniform, s_grid=grid, dim=1)
    for s, got in zip(grid, scan.values):
        if s == 0:
            assert got == 1.0
            continue
        exact, logs = _cone_exact(s, 1, 2, -2, 1, [(-2, 1, Fraction(1), Fraction(0))])
        assert logs == 0.0
        assert abs(got - float(exact)) <= 2e-16 * float(exact)
    assert scan.values[-1] > 1e9  # u_min = 1e-10: large, finite and exact
    with pytest.raises(DenominatorVanishes):
        cone_family(1.0, uniform, s_grid=[0.34], dim=1)
    with pytest.raises(DenominatorVanishes):  # the exact check: u = 0 at x = -2
        uniform.inverse_power_mean(Fraction(1, 3), Fraction(2, 3), 2)
    # G = x + y - 2 on the unit square: the triangle law on [-2, 0]
    square = RationalPolytope.from_vertices([(0, 0), (1, 0), (0, 1), (1, 1)])
    tent = DHMeasure.pushforward(PLConcaveFunction.linear(square, [1, 1], -2))
    density = [(-2, -1, Fraction(2), Fraction(1)), (-1, 0, Fraction(0), Fraction(-1))]
    for dim in (2, 1):  # dim 1: the transform's dimension reaches p - 1, a log term
        scan = cone_family(1.0, tent, s_grid=[0.0, 0.15, 0.3333], dim=dim)
        for s, got in zip(scan.points[1:], scan.values[1:]):
            exact, logs = _cone_exact(s, 1, dim + 1, -2, 0, density)
            want = float(exact) + logs
            assert (logs != 0.0) == (dim == 1)
            assert abs(got - want) <= 1e-13 * want


def test_cone_value_is_its_exact_rational_rounded_once():
    """An unweighted 2-D transform with dim = 2 has no log term, so f(s) is one exact
    rational, rounded once: 100/51 at s = 3/10, A = 3 on the cone fixture."""
    mu = measure_from_json(CONE["measure"])
    scan = cone_family(Fraction(3), mu, [Fraction(3, 10)], dim=2)
    assert scan.values == (float(Fraction(100, 51)),)
    assert cone_family("3", mu, ["3/10"], dim=2).values == scan.values


def test_cone_family_derivative_vs_fd(rng):
    for _ in range(5):
        atoms = [(Fraction(rng.randint(0, 12), 2), Fraction(rng.randint(1, 3)), None)
                 for _ in range(rng.randint(2, 6))]
        mu = DHMeasure.atomic(atoms)
        A = rng.uniform(0.5, 3.0)
        scan = cone_family(A, mu, dim=1)
        h = 1e-4
        fd = (_cone_val(mu, A, h, 1) - _cone_val(mu, A, 0.0, 1)) / h
        fd2 = (-3 * _cone_val(mu, A, 0, 1) + 4 * _cone_val(mu, A, h, 1)
               - _cone_val(mu, A, 2 * h, 1)) / (2 * h)
        assert abs(scan.derivative_at_zero - fd2) <= 1e-5 * max(1.0, abs(fd2))


# -- cone volume formula -----------------------------------------------------


def test_vol_g_tau_trivial():
    assert abs(vol_g_tau(1.0, lambda x: 0.0, tau=2.0, n=1) - 1.0 / 4.0) < 1e-12
    assert abs(vol_g_tau(3.0, lambda x: 0.0, tau=1.0, n=2) - 3.0) < 1e-12


def test_vol_g_tau_step_profile():
    # n=1, V_g=1, profile 1 on [0,1] then 0, tau=1 -> 1 - 2 int_0^1 (x+1)^{-3} = 1/4
    val = vol_g_tau(1.0, lambda x: 1.0 if x <= 1.0 else 0.0, tau=1.0, n=1)
    assert abs(val - 0.25) < 1e-9


def test_vol_g_tau_positivity(rng):
    for _ in range(5):
        T = rng.uniform(0.5, 3.0)
        V = rng.uniform(0.5, 2.0)
        prof = lambda x, T=T, V=V: V * max(0.0, 1.0 - x / T) ** 2
        for tau in (0.5, 1.0, 2.5):
            assert vol_g_tau(V, prof, tau=tau, n=2) > 0


def test_vol_g_tau_rejects_bad_profiles():
    with pytest.raises(InvalidVolumeFunction):
        vol_g_tau(1.0, lambda x: x, tau=1.0, n=1)
    with pytest.raises(InvalidVolumeFunction):
        vol_g_tau(1.0, lambda x: 2.0 if x < 0.1 else 0.0, tau=1.0, n=1)
