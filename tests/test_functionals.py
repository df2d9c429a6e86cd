import math
from fractions import Fraction

import pytest

from fanokit.errors import (
    InconsistentDecomposition,
    InputError,
    InsufficientDegrees,
    NegativeSupport,
)
from fanokit.functionals import (
    LPolicy,
    ds_tilde_S,
    ek_from_minima_polynomial,
    fut,
    na_report,
    tilde_beta,
    beta_g,
)
from fanokit.geometry import RationalPolytope
from fanokit.measure import DHMeasure

from conftest import p1_filtration, p1_limit_measure
from oracles import central_diff


def test_na_report_p1():
    rep = na_report(p1_limit_measure(), LPolicy.weight_twist())
    assert abs(rep.E - (-0.5)) < 1e-12
    assert abs(rep.S_tilde - (-math.log(math.e - 1))) < 1e-12
    assert abs(rep.H - math.log(math.e - 1)) < 1e-12
    assert abs(rep.D - 0.5) < 1e-12
    assert rep.S_tilde <= rep.E + 1e-12
    assert rep.normalized


def test_na_report_wide_uniform_finite():
    # nodes 0 and -2000: shifting by the mean node overflowed exp and gave nan
    rep = na_report(DHMeasure.uniform(0, 2000), LPolicy.supplied(0))
    expected = math.log(2000) - math.log1p(-math.exp(-2000))
    assert abs(rep.S_tilde - expected) <= 1e-12 * expected
    fields = [rep.V, rep.E, rep.S_tilde, rep.L, rep.H, rep.D, *rep.E_k.values()]
    assert all(math.isfinite(x) for x in fields)


def test_na_report_dirac():
    rep = na_report(DHMeasure.dirac(0), LPolicy.supplied(0))
    for v in (rep.E, rep.S_tilde, rep.H, rep.D):
        assert abs(v) < 1e-14


def test_na_report_shift_rule():
    """S_tilde gains exactly b under a b-shift; H is untouched."""
    mu = p1_limit_measure()
    L = LPolicy.supplied(Fraction(1, 3))
    b = Fraction(7, 5)
    base = na_report(mu, L)
    shifted = na_report(mu.affine_transform(1, b), L.transformed(1, b))
    assert abs(shifted.S_tilde - (base.S_tilde + float(b))) < 1e-12
    assert abs(shifted.H - base.H) < 1e-12
    assert abs(shifted.L - (base.L + float(b))) < 1e-15


def test_lpolicy_rules():
    assert LPolicy.weight_twist().value == 0.0
    L = LPolicy.special_valuation(2.0)
    assert L.transformed(3, 1).value == 7.0  # L(aF(b)) = aL + b
    assert L.twisted() is L
    with pytest.raises(InputError):
        LPolicy.special_valuation(-1)
    assert LPolicy.from_json({"kind": "supplied", "value": "1/2"}).value == 0.5


def test_tilde_beta():
    assert tilde_beta(0, DHMeasure.dirac(0)) == 0.0
    uniform04 = DHMeasure.uniform(0, 4)
    val = tilde_beta(1, uniform04)
    closed = 1 + math.log((1 - math.exp(-4)) / 4)
    assert abs(val - closed) < 1e-12
    assert abs(val - (-0.40477980794577717)) < 1e-12
    # beta-tilde dominates H whenever the declared L does not exceed A
    for L in (0.0, 0.5, 1.0):
        rep = na_report(uniform04, LPolicy.supplied(L))
        assert val >= rep.H - 1e-12
    # under the special-valuation policy they agree
    rep = na_report(uniform04, LPolicy.special_valuation(1))
    assert abs(val - rep.H) < 1e-12


def test_tilde_beta_of_rescaled_measure_is_rescaling_objective(rng):
    """tilde_beta(a A, mu rescaled by a) = a A + log exp_moment(mu, a)."""
    mu = DHMeasure.uniform(0, 4)
    A = 1.0
    for _ in range(6):
        a = Fraction(rng.randint(1, 10), 3)
        lhs = tilde_beta(float(a) * A, mu.affine_transform(a, 0))
        rhs = float(a) * A + math.log(mu.exp_moment(a))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_beta_g():
    uniform04 = DHMeasure.uniform(0, 4)
    assert abs(beta_g(1, uniform04) - (-1.0)) < 1e-12  # 1 - mean = 1 - 2
    assert abs(beta_g(3, uniform04) - 1.0) < 1e-12
    with pytest.raises(NegativeSupport):
        beta_g(1, DHMeasure.uniform(-1, 0))


def test_fut_examples():
    sym = RationalPolytope.interval(-1, 1)
    assert abs(fut(sym, (0,), (1,))) < 1e-14
    skew = RationalPolytope.interval(-1, 2)
    assert abs(fut(skew, (0,), (1,)) - (-0.5)) < 1e-13


def test_fut_is_derivative_of_H():
    """fut(xi, eta) = d/ds H(wt_{xi+s eta}) at s=0, H = log int e^{-<y,xi>} (normalized)."""
    poly = RationalPolytope.from_vertices([[-1, 0], [2, 0], [0, 1], [0, -2]])
    xi = (0.25, -0.5)
    eta = (1.0, 0.75)

    def H(s):
        from fanokit.expint import PLConcaveFunction, pl_exp_integral
        from fanokit.geometry import pairing_form

        shift = [Fraction(x + s * e).limit_denominator(10**12) for x, e in zip(xi, eta)]
        G = PLConcaveFunction.constant(poly, 0)
        total = pl_exp_integral(G, shift=pairing_form(shift, 2)).value
        return math.log(total / float(poly.volume()))

    analytic = fut(poly, [Fraction(x).limit_denominator(10**12) for x in xi],
                   [Fraction(x).limit_denominator(10**12) for x in eta])
    fd = central_diff(H, 0.0, 1e-4)
    assert abs(analytic - fd) <= 1e-6 * max(1.0, abs(analytic))


def test_fut_linear_in_eta(rng):
    poly = RationalPolytope.from_vertices([[-1, -1], [2, 0], [0, 2], [1, 1]])
    xi = (Fraction(1, 4), Fraction(-1, 3))
    e1, e2 = (1, 0), (0, 1)
    f1, f2 = fut(poly, xi, e1), fut(poly, xi, e2)
    for _ in range(5):
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        combo = fut(poly, xi, (a, b))
        assert abs(combo - (a * f1 + b * f2)) < 1e-11


def test_fut_at_zero_is_negative_barycenter_pairing():
    poly = RationalPolytope.from_vertices([[-1, 0], [3, 0], [0, 2], [-1, 2]])
    bc = poly.barycenter()
    for eta in ((1, 0), (0, 1), (2, -1)):
        expected = -float(sum(b * e for b, e in zip(bc, eta)))
        assert abs(fut(poly, (0, 0), eta) - expected) < 1e-12


def test_ds_tilde_S():
    assert abs(ds_tilde_S([(1, 0.3), (1, 0.7)], 2.0, 1.0) - 2.0) < 1e-14
    assert abs(ds_tilde_S([(5, 0.4)], 3.0, 0.4) - 15.0) < 1e-14
    assert abs(ds_tilde_S([(0, 0.5), (1, 0.5)], 2.0, 1.0) - 1.0) < 1e-14
    with pytest.raises(InconsistentDecomposition):
        ds_tilde_S([(1, 0.3)], 1.0, 1.0)
    with pytest.raises(InconsistentDecomposition):
        ds_tilde_S([(1, -0.5), (1, 1.5)], 1.0, 1.0)


def test_ek_fit_p1():
    degrees = range(10, 51, 5)
    F = p1_filtration(degrees)
    fit = ek_from_minima_polynomial(F, degrees, k=1, ambient_dim=1, volume=1)
    assert fit.leading_coefficient == Fraction(-1, 2)  # the m^2 coefficient, exactly
    assert fit.estimate == -0.5
    # sum of squares grows like m^3/3: E_2 = 1/3 matches moment(uniform[-1,0], 2)
    fit2 = ek_from_minima_polynomial(F, degrees, k=2, ambient_dim=1, volume=1)
    assert fit2.leading_coefficient == Fraction(1, 3)
    assert abs(fit2.estimate - p1_limit_measure().moment(2)) < 1e-12


def test_ek_fit_trivial_and_errors():
    from fanokit.filtration import FiltrationLevel, GradedFiltration

    levels = {m: FiltrationLevel.from_values(m, [0] * (m + 1)) for m in (2, 4, 6, 8)}
    F = GradedFiltration(levels)
    fit = ek_from_minima_polynomial(F, [2, 4, 6, 8], k=1, ambient_dim=1, volume=1)
    assert fit.estimate == 0.0
    with pytest.raises(InsufficientDegrees):
        ek_from_minima_polynomial(F, [2, 4], k=1, ambient_dim=1, volume=1)


def _uniform_case(lo):
    """uniform on [lo, lo + 1]: V = 1, E_k = int x^k, S_tilde = lo - log(1 - 1/e)."""
    E_k = {k: Fraction((lo + 1) ** (k + 1) - lo ** (k + 1), k + 1) for k in (1, 2, 3, 4)}
    return DHMeasure.uniform(lo, lo + 1), 1, E_k, lo - math.log(-math.expm1(-1))


def _pair_case(lo):
    """unit atoms at lo and lo + 1: V = 2, S_tilde = lo - log((1 + 1/e) / 2)."""
    E_k = {k: Fraction(lo**k + (lo + 1) ** k, 2) for k in (1, 2, 3, 4)}
    return DHMeasure.atomic([(lo, 1), (lo + 1, 1)]), 2, E_k, lo - math.log((1 + math.exp(-1)) / 2)


@pytest.mark.parametrize("case", [_uniform_case(800), _uniform_case(-800),
                                  _pair_case(-800), _pair_case(800)],
                         ids=["uniform[800,801]", "uniform[-800,-799]",
                              "atoms{-800,-799}", "atoms{800,801}"])
def test_na_report_far_support(case):
    """e^{-lambda} over these supports leaves double range; its log does not."""
    mu, V, E_k, S = case
    rep = na_report(mu, LPolicy.weight_twist())
    assert abs(rep.V - V) <= 1e-12 * V
    for k, want in E_k.items():
        assert abs(rep.E_k[k] - float(want)) <= 1e-12 * abs(float(want))
    assert abs(rep.S_tilde - S) <= 1e-12 * abs(S)
    assert rep.S_tilde <= rep.E
    assert abs(tilde_beta(0, mu) + S) <= 1e-12 * abs(S)
