"""Non-Archimedean functionals evaluated on spectral measures.

The energy E, higher moments E_k, the log-exponential entropy-type value
S_tilde, the Berman-Ding value D and the entropy functional H = L - S_tilde
are all computed from a DHMeasure plus a caller-supplied L-policy.  L values
are never derived from valuations here: log-canonical-threshold machinery is
out of scope, so the caller must state the assumption explicitly (a supplied
number, the weight-twist vanishing rule, or A(v) for special valuations).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

from .errors import (
    FanokitError,
    InconsistentDecomposition,
    InputError,
    InsufficientDegrees,
    NegativeSupport,
)
from .expint import PLConcaveFunction, exp_scaled
from .filtration import GradedFiltration
from .geometry import RationalPolytope, pairing_form
from .measure import DHMeasure
from .rational import need, rat, solve_square

CONSISTENCY_TOL = 1e-10


@dataclass(frozen=True)
class LPolicy:
    """Caller-declared source of the L value entering H = L - S_tilde."""

    kind: str  # "supplied" | "weight_twist" | "special_valuation"
    value: float = 0.0

    @classmethod
    def supplied(cls, value) -> "LPolicy":
        return cls("supplied", float(value))

    @classmethod
    def weight_twist(cls) -> "LPolicy":
        """L vanishes identically for weight filtrations of torus one-parameter groups."""
        return cls("weight_twist", 0.0)

    @classmethod
    def special_valuation(cls, log_discrepancy) -> "LPolicy":
        a = float(log_discrepancy)
        if a < 0:
            raise InputError(f"log discrepancy must be >= 0, got {a}")
        return cls("special_valuation", a)

    def transformed(self, a, b) -> "LPolicy":
        """L(aF(b)) = a L(F) + b; the result is a plain supplied value."""
        return LPolicy.supplied(float(a) * self.value + float(b))

    def twisted(self) -> "LPolicy":
        """L is invariant under torus twists."""
        return self

    @classmethod
    def from_json(cls, doc) -> "LPolicy":
        if doc is None:
            return cls.weight_twist()
        if not isinstance(doc, dict):
            return cls.supplied(float(rat(doc)))
        kind = doc.get("kind")
        if kind == "weight_twist":
            return cls.weight_twist()
        if kind == "special_valuation":
            return cls.special_valuation(float(rat(need(doc, "L policy", "value"))))
        if kind == "supplied":
            return cls.supplied(float(rat(need(doc, "L policy", "value"))))
        raise InputError(f"unknown L policy {doc!r}")


@dataclass(frozen=True)
class NAReport:
    V: float
    E: float
    E_k: dict
    S_tilde: float
    L: float
    H: float
    D: float
    Q: dict = field(default_factory=dict)
    normalized: bool = False

    def to_json(self) -> dict:
        return {
            "V": self.V,
            "E": self.E,
            "E_k": {str(k): v for k, v in sorted(self.E_k.items())},
            "S_tilde": self.S_tilde,
            "L": self.L,
            "H": self.H,
            "D": self.D,
            "Q": {str(a): v for a, v in sorted(self.Q.items())},
            "normalized": self.normalized,
            "tolerance": CONSISTENCY_TOL,
        }


def na_report(mu: DHMeasure, L: LPolicy, a_list=()) -> NAReport:
    """All functionals of one measure: E_k, S_tilde, H, D and requested Q^(a)."""
    # before mass: a pushforward sums its mass in the same kernel batch
    log_q = mu.log_exp_moments([1, *a_list])
    V = mu.mass()
    moments = mu.tilted_moments(0, 4)
    E_k = {k: moments[k] for k in (1, 2, 3, 4)}
    E = E_k[1]
    S = -log_q[0]
    if S > E + CONSISTENCY_TOL:
        raise FanokitError(f"S_tilde = {S} exceeds E = {E}: integrator inconsistency")
    Q = {float(a): exp_scaled(q) for a, q in zip(a_list, log_q[1:])}
    return NAReport(
        V=V, E=E, E_k=E_k, S_tilde=S, L=L.value, H=L.value - S, D=L.value - E,
        Q=Q, normalized=abs(L.value) <= CONSISTENCY_TOL,
    )


def tilde_beta(A, mu: DHMeasure) -> float:
    """A + log((1/V) int e^{-lambda} dmu); equals H under the special-valuation policy."""
    A = float(A)
    if A < 0:
        raise InputError(f"log discrepancy must be >= 0, got {A}")
    return A + mu.log_exp_moment(1)


def beta_g(A_or_L, mu_g: DHMeasure) -> float:
    """A - E_g for valuation-type measures supported in [0, inf).

    By parts, (1/V_g) int_0^inf vol_g(F^(t)) dt equals the mean E_g whenever
    the support sits in [0, inf), which is exactly the valuation case; the
    support's exact minimum decides it.
    """
    lam0 = mu_g.support().lambda_min
    if lam0 < 0:
        raise NegativeSupport(f"measure support starts at {float(lam0)} < 0")
    return float(A_or_L) - mu_g.moment(1)


def fut(polytope: RationalPolytope, xi, eta) -> float:
    """Modified Futaki pairing: -(n!/V_xi) int <y', eta> e^{-<y', xi>} dy.

    Equals the s-derivative at 0 of H along the weight family xi + s*eta: minus
    the mean of the pushforward of e^{-<y', xi>} dy under y -> <y', eta>.
    """
    pairing = PLConcaveFunction.linear(polytope, pairing_form(eta, polytope.dim).gradient)
    return -DHMeasure.pushforward(pairing, xi).moment(1)


def ds_tilde_S(component_data, a, Q) -> float:
    """a * sum(e_i Q_i) / Q for a decomposition Q = sum Q_i with positive parts."""
    a = float(a)
    Q = float(Q)
    parts = [(float(e), float(q)) for e, q in component_data]
    if any(q <= 0 for _, q in parts):
        raise InconsistentDecomposition("component masses must be positive")
    total = math.fsum(q for _, q in parts)
    if abs(total - Q) > CONSISTENCY_TOL * max(1.0, abs(Q)):
        raise InconsistentDecomposition(
            f"sum of components {total} does not match Q = {Q}"
        )
    return a * math.fsum(e * q for e, q in parts) / Q


@dataclass(frozen=True)
class EkFit:
    """Leading-coefficient estimate of E_k from the growth of minima sums."""

    estimate: float
    leading_coefficient: Fraction
    coefficients: tuple
    degree: int


def ek_from_minima_polynomial(F: GradedFiltration, degrees, k: int,
                              ambient_dim: int, volume) -> EkFit:
    """Fit sum_i (lambda_i^(m))^k to a degree n+k polynomial in m, exactly.

    The least-squares fit runs in rational arithmetic, so polynomial data is
    recovered with exact coefficients; the E_k estimate is n! c_top / V.
    """
    degrees = sorted(set(int(m) for m in degrees))
    deg = ambient_dim + k
    if len(degrees) < max(3, deg + 1):
        raise InsufficientDegrees(
            f"need at least {max(3, deg + 1)} stored degrees for k={k}, n={ambient_dim}"
        )
    # sum_i (n_i / d)^k over each level's integer table
    ys = [Fraction(sum(n**k for n in lv._nums), lv._den**k) for lv in map(F.level, degrees)]
    # normal equations for the Vandermonde fit: sums of powers of m, all exact
    cols = deg + 1
    ata = [[sum(m ** (i + j) for m in degrees) for j in range(cols)] for i in range(cols)]
    aty = [sum((m**i * y for m, y in zip(degrees, ys)), Fraction(0)) for i in range(cols)]
    coeffs = solve_square(ata, aty)
    if coeffs is None:
        raise InsufficientDegrees("degenerate degree set for the fit")
    top = coeffs[deg]
    vol = rat(volume)
    return EkFit(
        estimate=float(Fraction(factorial(ambient_dim)) * top / vol),
        leading_coefficient=top,
        coefficients=tuple(coeffs),
        degree=deg,
    )
