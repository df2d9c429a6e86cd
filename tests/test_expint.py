import itertools
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import numpy as np

from fanokit import _kernel
from fanokit._kernel import dd_exp_batch, dd_exp_series
from fanokit.errors import InputError, NonFiniteResult, UnsupportedOrder
from fanokit.expint import (
    MAX_MOMENT_ORDER,
    PLConcaveFunction,
    pl_exp_integral,
    simplex_exp_integral,
    superlevel_gvolume,
)
from fanokit.geometry import AffineForm, RationalPolytope, Simplex

from oracles import quad_exp_integral
from simplex_integrals import dd_exp, simplex_weighted_exp_integral

SEG01 = Simplex.make([[0], [1]])
TRI = Simplex.make([[0, 0], [1, 0], [0, 1]])


def float_verts(s):
    return [[float(x) for x in v] for v in s.vertices]


def test_simplex_exp_integral_trivial():
    r = simplex_exp_integral(TRI, AffineForm.make([0, 0]))
    assert abs(r.value - 0.5) < 1e-15


def test_simplex_exp_integral_segment():
    r = simplex_exp_integral(SEG01, AffineForm.make([1]))
    assert abs(r.value - (1 - math.exp(-1))) < 1e-14
    assert r.est_rel_error <= 1e-12


def test_simplex_exp_integral_2d_oracle():
    # 1-D reduction gives int_0^1 s e^{-s} ds = 1 - 2/e
    r = simplex_exp_integral(TRI, AffineForm.make([1, 1]))
    exact = 1 - 2 * math.exp(-1)
    assert abs(r.value - exact) < 1e-14
    oracle = quad_exp_integral(float_verts(TRI), [1.0, 1.0], 0.0)
    assert abs(r.value - oracle) <= 1e-11 * abs(oracle)


def test_weighted_k0_matches_plain():
    l = AffineForm.make([2, -1], Fraction(1, 3))
    w = AffineForm.make([1, 1])
    a = simplex_weighted_exp_integral(TRI, l, w, 0)
    b = simplex_exp_integral(TRI, l)
    assert a.value == b.value and a.method == b.method


def test_weighted_odd_symmetry():
    seg = Simplex.make([[-1], [1]])
    r = simplex_weighted_exp_integral(seg, AffineForm.make([0]), AffineForm.make([1]), 1)
    assert abs(r.value) < 1e-15


def test_weighted_segment_oracle():
    # int_0^4 y e^{-y} dy = 1 - 5 e^{-4} = 0.908421805556329...
    seg = Simplex.make([[0], [4]])
    r = simplex_weighted_exp_integral(seg, AffineForm.make([1]), AffineForm.make([1]), 1)
    closed = 1 - 5 * math.exp(-4)
    assert abs(r.value - closed) < 1e-13
    oracle = quad_exp_integral([[0.0], [4.0]], [1.0], 0.0, wgrad=[1.0], wconst=0.0, k=1)
    assert abs(r.value - oracle) <= 1e-11 * abs(oracle)
    assert abs(r.value - 0.9084218055563291) < 1e-12


def test_weighted_order_capped():
    with pytest.raises(UnsupportedOrder):
        simplex_weighted_exp_integral(SEG01, AffineForm.make([1]), AffineForm.make([1]), 5)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_weighted_random_vs_oracle(k, rng):
    for _ in range(3):
        n = rng.randint(1, 3)
        s = _random_simplex(rng, n)
        lg = [rng.uniform(-2, 2) for _ in range(n)]
        wg = [rng.uniform(-2, 2) for _ in range(n)]
        lc, wc = rng.uniform(-1, 1), rng.uniform(-1, 1)
        r = simplex_weighted_exp_integral(
            s, AffineForm.make([Fraction(g).limit_denominator(512) for g in lg], Fraction(lc).limit_denominator(512)),
            AffineForm.make([Fraction(g).limit_denominator(512) for g in wg], Fraction(wc).limit_denominator(512)), k
        )
        fl = [[float(x) for x in v] for v in s.vertices]
        lgq = [float(Fraction(g).limit_denominator(512)) for g in lg]
        wgq = [float(Fraction(g).limit_denominator(512)) for g in wg]
        oracle = quad_exp_integral(fl, lgq, float(Fraction(lc).limit_denominator(512)),
                                   wgrad=wgq, wconst=float(Fraction(wc).limit_denominator(512)), k=k)
        scale = max(abs(oracle), 1e-3)
        assert abs(r.value - oracle) <= 1e-10 * scale


def _random_simplex(rng, n, spread_scale=1):
    while True:
        pts = [tuple(Fraction(rng.randint(-8, 8), rng.choice([1, 2, 4])) for _ in range(n))
               for _ in range(n + 1)]
        try:
            return Simplex.make(pts)
        except Exception:
            continue


def _simplex_with_value_spread(rng, n, spread):
    """Simplex plus affine form whose vertex values have the given spread."""
    s = _random_simplex(rng, n)
    while True:
        direction = [rng.uniform(-1, 1) for _ in range(n)]
        vals = [sum(d * float(x) for d, x in zip(direction, v)) for v in s.vertices]
        raw = max(vals) - min(vals)
        if raw > 1e-9:
            break
    factor = Fraction(spread / raw).limit_denominator(10**12)
    grad = [factor * Fraction(d).limit_denominator(10**6) for d in direction]
    return s, AffineForm.make(grad, Fraction(rng.randint(-2, 2)))


def test_dual_path_agreement_window(rng):
    """Divided-difference and series paths both match the oracle on [1e-8, 1e-3]."""
    for n in (1, 2, 3, 4):
        for spread in (1e-8, 1e-6, 1e-4, 1e-3):
            s, l = _simplex_with_value_spread(rng, n, spread)
            z = [-float(l(v)) for v in s.vertices]
            via_dd, _ = dd_exp(z)
            value, offset, _ = dd_exp_series(z)
            via_series = math.exp(offset) * value
            scale = float(abs(s.edge_determinant()))
            oracle = quad_exp_integral(
                [[float(x) for x in v] for v in s.vertices],
                [float(g) for g in l.gradient], float(l.constant))
            assert abs(scale * via_dd - oracle) <= 1e-10 * abs(oracle)
            assert abs(scale * via_series - oracle) <= 1e-10 * abs(oracle)
            assert abs(via_dd - via_series) <= 1e-10 * abs(via_dd)


def test_batch_row_independent_of_neighbours():
    """A node list gives bit-identical results alone and beside a list of spread 1e3."""
    cell = [0.25, -1.5, 0.75, -0.125]
    wide = [3.0, -997.0, 0.5, 2.0]
    alone = dd_exp_batch([cell])
    batched = dd_exp_batch([wide, cell, cell[::-1]])
    for got, want in zip(batched, alone):
        assert np.array_equal(got[1], want[0])
    rows, offset, _ = alone
    value, _ = dd_exp(cell)
    assert value == rows[0, -1] * math.exp(offset[0])
    # node spreads 1e-3 to 1e7 give squaring exponents q from 2 or 3 to 24; the
    # kernel sorts rows by q, and each row, shuffled among the others, is the row alone
    rng = np.random.default_rng(31)
    spreads = 10.0 ** np.linspace(-3, 7, 40)
    z = (rng.uniform(-1, 1, (len(spreads), 4)) * spreads[:, None]
         + rng.uniform(-5, 5, (len(spreads), 1)))
    b = rng.uniform(-2, 2, z.shape)
    for k in (0, 2, 4):
        order = rng.permutation(len(z))
        rows, offset, err = dd_exp_batch(z[order], b[order], k)
        for i, j in enumerate(order):
            one = dd_exp_batch(z[j:j + 1], b[j:j + 1], k)
            assert np.array_equal(rows[i], one[0][0])
            assert offset[i] == one[1][0] and err[i] == one[2][0]
        assert len(set(err.tolist())) >= 18  # err is a function of q alone


def _expm_taylor_reference(a):
    """The adaptive Taylor loop the fixed-degree kernel replaced, kept as a reference.

    Each matrix accumulates terms until its own first term below 1e-24.
    """
    m, d, _ = a.shape
    e = a + np.eye(d)
    term = a
    live = np.abs(a).max(axis=(1, 2)) >= 1e-24
    n_live = int(live.sum())
    for j in range(2, 62):
        if n_live == 0:
            break
        term = term @ a
        term *= 1.0 / j
        e += term if n_live == m else term * live[:, None, None]
        done = live & (np.abs(term).max(axis=(1, 2)) < 1e-24)
        if done.any():
            live &= ~done
            n_live = int(live.sum())
    return e


def _dd_decimal(nodes):
    """Divided difference of exp at Decimal nodes; tied nodes take e^x/j!."""
    x = sorted(nodes)
    table = [v.exp() for v in x]
    for j in range(1, len(x)):
        table = [x[i].exp() / math.factorial(j) if x[i + j] == x[i]
                 else (table[i + 1] - table[i]) / (x[i + j] - x[i])
                 for i in range(len(x) - j)]
    return table[0]


def _corners_decimal(z, b, k):
    """[D_0, ..., D_k] at 120 digits: D_j sums b^alpha * DD(z, z_alpha) over
    multisets alpha of j node indices (Hermite-Genocchi, expanded)."""
    with localcontext() as ctx:
        ctx.prec = 120
        zd = [Decimal(v) for v in z]
        out = [_dd_decimal(zd)]
        for j in range(1, k + 1):
            total = Decimal(0)
            for alpha in itertools.combinations_with_replacement(range(len(z)), j):
                total += (math.prod(Decimal(b[i]) for i in alpha)
                          * _dd_decimal(zd + [zd[i] for i in alpha]))
            out.append(total)
        return out


def _corners(z, b, k):
    """Corner entries [D_0, ..., D_k] of ``dd_exp_batch`` for one node list, with its offset."""
    rows, offset, _ = dd_exp_batch([z], [b] if k else None, k)
    n1 = len(z)
    return [float(rows[0, j * n1 + n1 - 1]) for j in range(k + 1)], float(offset[0])


@st.composite
def node_lists(draw):
    """Up to 8 nodes of spread 1e-5 to 1e3 on a grid of 1000 steps (ties
    included), a deformation direction and a derivative order k <= 4."""
    n1 = draw(st.integers(min_value=2, max_value=8))
    k = draw(st.integers(min_value=0, max_value=MAX_MOMENT_ORDER))
    spread = 10.0 ** draw(st.floats(min_value=-5, max_value=3))
    center = draw(st.floats(min_value=-50, max_value=50))
    z = [center + spread * draw(st.integers(0, 1000)) / 1000 for _ in range(n1)]
    b = [draw(st.integers(-300, 300)) / 100 for _ in range(n1)]
    return z, b, k


@settings(max_examples=60, deadline=None)
@given(node_lists())
def test_kernel_matches_adaptive_and_decimal_references(case):
    """D_j agrees with a 120-digit reference and with the adaptive Taylor loop.

    Errors are relative to |b|max^j * D_0, the cancellation-free bound that
    ``expint._exp_integrals`` measures moment errors against.
    """
    z, b, k = case
    got, offset = _corners(z, b, k)
    with mock.patch.object(_kernel, "_expm_taylor", _expm_taylor_reference):
        adaptive, _ = _corners(z, b, k)
    exact = [float(v / Decimal(offset).exp()) for v in _corners_decimal(z, b, k)]
    bmax = max(abs(v) for v in b)
    for j in range(k + 1):
        scale = max(abs(exact[j]), bmax ** j * exact[0])
        assert abs(got[j] - exact[j]) <= 1e-12 * scale
        assert abs(got[j] - adaptive[j]) <= 1e-12 * scale


def test_kernel_twenty_nodes():
    """The plain divided difference at 20 nodes i/128 to 1e-12 relative.

    Equispaced nodes have the closed form DD = (e^h - 1)^n / (n! h^n); the
    adaptive Taylor loop's absolute stopping test left 6e-10 here.
    """
    n = 19
    value, _ = dd_exp([i / 128 for i in range(n + 1)])
    with localcontext() as ctx:
        ctx.prec = 60
        h = Decimal(1) / 128
        exact = (h.exp() - 1) ** n / (math.factorial(n) * h ** n)
    assert abs(value - float(exact)) <= 1e-12 * float(exact)


def test_stability_sweep_methods(rng):
    """Method switch happens at the clustering threshold and stays accurate."""
    s, l = _simplex_with_value_spread(rng, 2, 1e-6)
    assert simplex_exp_integral(s, l).method == "series_fallback"
    s, l = _simplex_with_value_spread(rng, 2, 10.0)
    assert simplex_exp_integral(s, l).method == "divided_difference"


def interval_pl(lo, hi, pieces):
    dom = RationalPolytope.interval(lo, hi)
    return PLConcaveFunction.make(dom, pieces)


def test_pl_exp_integral_constant():
    dom = RationalPolytope.interval(-1, 1)
    G = PLConcaveFunction.constant(dom, 0)
    r = pl_exp_integral(G)
    assert abs(r.value - 2.0) < 1e-14


@pytest.mark.parametrize("domain", [
    RationalPolytope.interval(0, 4),
    RationalPolytope.from_vertices([[0, 0], [2, 0], [0, 2], [2, 2]]),
], ids=["cell-overflows", "cell-sum-overflows"])
def test_pl_exp_integral_outside_double_range(domain):
    """int e^{709} over the domain exceeds the doubles: NonFiniteResult, whether one cell's
    integral overflows or only the sum of two finite ones does."""
    with pytest.raises(NonFiniteResult):
        pl_exp_integral(PLConcaveFunction.constant(domain, -709))


@pytest.mark.parametrize("c", [-800, -709], ids=["offset-overflows", "volume-product-overflows"])
@pytest.mark.parametrize("integral", [
    lambda s, l: simplex_exp_integral(s, l),
    lambda s, l: simplex_weighted_exp_integral(s, l, AffineForm.make([1], 0), 1),
], ids=["plain", "weighted-k1"])
def test_simplex_integrals_outside_double_range(c, integral):
    """e^{-c} on [0, 4]: a raw OverflowError from the kernel offset at c = -800, an inf value
    at c = -709; both are NonFiniteResult."""
    with pytest.raises(NonFiniteResult):
        integral(Simplex.make([[0], [4]]), AffineForm.make([0], c))
    # just inside double range the value is finite
    assert math.isfinite(integral(Simplex.make([[0], [4]]), AffineForm.make([0], -700)).value)


def test_pl_exp_integral_linear_shift():
    dom = RationalPolytope.interval(-1, 1)
    G = PLConcaveFunction.constant(dom, 0)
    r = pl_exp_integral(G, shift=AffineForm.make([1]))
    exact = 2 * math.sinh(1)
    assert abs(r.value - exact) < 1e-13
    oracle = quad_exp_integral([[-1.0], [1.0]], [1.0], 0.0)
    assert abs(r.value - oracle) < 1e-12


def test_pl_exp_integral_abs_value():
    G = interval_pl(-1, 1, [
        (Simplex.make([[-1], [0]]), AffineForm.make([-1])),
        (Simplex.make([[0], [1]]), AffineForm.make([1])),
    ])
    r = pl_exp_integral(G)
    assert abs(r.value - 2 * (1 - math.exp(-1))) < 1e-14
    assert r.method == "subdivision"


def test_pl_subdivision_invariance(rng):
    dom = RationalPolytope.interval(0, 2)
    G1 = PLConcaveFunction.linear(dom, [Fraction(1, 2)], 1)
    cells = [
        (Simplex.make([[0], [Fraction(3, 4)]]), AffineForm.make([Fraction(1, 2)], 1)),
        (Simplex.make([[Fraction(3, 4)], [2]]), AffineForm.make([Fraction(1, 2)], 1)),
    ]
    G2 = PLConcaveFunction.make(dom, cells)
    a, b = pl_exp_integral(G1).value, pl_exp_integral(G2).value
    assert abs(a - b) <= 1e-12 * abs(a)


def test_pl_gradient_matches_weighted_integral():
    """d/dxi of int e^{-G - <y,xi>} equals -(int y e^{-G - <y,xi>})."""
    dom = RationalPolytope.from_vertices([[0, 0], [2, 0], [0, 2], [2, 2]])
    G = PLConcaveFunction.linear(dom, [Fraction(1, 3), Fraction(-1, 5)], 0)
    xi = [Fraction(1, 2), Fraction(1, 4)]
    h = 1e-6
    for j in range(2):
        def at(t, j=j):
            shift = list(xi)
            shift[j] = xi[j] + Fraction(t).limit_denominator(10**12)
            return pl_exp_integral(G, shift=AffineForm.make(shift)).value

        fd = (at(h) - at(-h)) / (2 * h)
        wsum = 0.0
        grad = [0, 0]
        grad[j] = 1
        for s, f in G.cells:
            li = f.plus(AffineForm.make(xi))
            wsum += simplex_weighted_exp_integral(s, li, AffineForm.make(grad), 1).value
        assert abs(fd - (-wsum)) <= 1e-6 * max(1.0, abs(wsum))


def test_pl_cell_order_bitstable():
    # math.fsum rounds the cell sum once and is order-free, so the order cells are given in
    # cannot change a bit
    dom = RationalPolytope.from_vertices(
        [[x, y, z] for x in (0, 3) for y in (0, 2) for z in (0, 1)])
    G = PLConcaveFunction.linear(dom, [1, -1, 2], 0)
    expected = pl_exp_integral(G).value
    cells = list(G.cells)
    rng = random.Random(5)
    for _ in range(5):
        rng.shuffle(cells)
        assert pl_exp_integral(PLConcaveFunction.make(dom, cells)).value == expected


def test_superlevel_gvolume_cases():
    dom = RationalPolytope.interval(-1, 0)
    G = PLConcaveFunction.linear(dom, [-1], 0)  # G(y) = -y on [-1, 0]
    # below min G: full weighted volume
    assert abs(superlevel_gvolume(G, -5) - 1.0) < 1e-14
    # above max G: zero
    assert superlevel_gvolume(G, 2) == 0.0
    # G >= 1/2 means y <= -1/2
    assert abs(superlevel_gvolume(G, Fraction(1, 2)) - 0.5) < 1e-14


def test_superlevel_weighted_closed_form():
    # G(y) = y on [0,2], xi = 1/2, level 1/2:
    # 1! * int_{1/2}^{2} e^{-y/2} dy = 2 (e^{-1/4} - e^{-1})
    dom = RationalPolytope.interval(0, 2)
    G = PLConcaveFunction.linear(dom, [1], 0)
    got = superlevel_gvolume(G, Fraction(1, 2), [Fraction(1, 2)])
    expected = 2 * (math.exp(-0.25) - math.exp(-1.0))
    assert abs(got - expected) < 1e-13


def test_superlevel_monotone(rng):
    dom = RationalPolytope.from_vertices([[0, 0], [1, 0], [0, 1], [1, 1]])
    G = PLConcaveFunction.linear(dom, [1, 2], 0)
    xs = sorted(rng.uniform(-0.5, 3.5) for _ in range(8))
    vols = [superlevel_gvolume(G, Fraction(x).limit_denominator(512), [Fraction(1, 3), 0]) for x in xs]
    for a, b in zip(vols, vols[1:]):
        assert a >= b - 1e-13


def test_pl_validation_errors():
    dom = RationalPolytope.interval(0, 2)
    with pytest.raises(InputError):
        PLConcaveFunction.make(dom, [(Simplex.make([[0], [1]]), AffineForm.make([1]))])
    with pytest.raises(InputError):
        PLConcaveFunction.make(dom, [
            (Simplex.make([[0], [1]]), AffineForm.make([1])),
            (Simplex.make([[1], [2]]), AffineForm.make([1], 5)),
        ])
    # |y| as min of pieces is not concave: certificate must fail
    with pytest.raises(InputError):
        PLConcaveFunction.make(RationalPolytope.interval(-1, 1), [
            (Simplex.make([[-1], [0]]), AffineForm.make([-1])),
            (Simplex.make([[0], [1]]), AffineForm.make([1])),
        ], certify_concave=True)
    # min(1 - y, 1 + y) is concave: certificate passes
    PLConcaveFunction.make(RationalPolytope.interval(-1, 1), [
        (Simplex.make([[-1], [0]]), AffineForm.make([1], 1)),
        (Simplex.make([[0], [1]]), AffineForm.make([-1], 1)),
    ], certify_concave=True)


def test_pl_json_round_trip():
    G = interval_pl(-1, 1, [
        (Simplex.make([[-1], [0]]), AffineForm.make([-1])),
        (Simplex.make([[0], [1]]), AffineForm.make([1])),
    ])
    doc = G.to_json()
    back = PLConcaveFunction.from_json(doc)
    assert back.cells == G.cells
    assert back.domain.vertices == G.domain.vertices
