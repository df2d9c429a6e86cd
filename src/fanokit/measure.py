"""Spectral (Duistermaat-Heckman type) measures behind the functionals.

``AtomicMeasure`` (finite-level empirical spectra) and ``PushforwardMeasure``
(a weighted Lebesgue measure on a polytope pushed forward under a
piecewise-linear transform) answer one query protocol, the methods of
``DHMeasure``.  Pushforward densities are never materialized; every query is
an integral over the polytope, and the queries take lists:
``log_exp_moments`` stacks every a, and a = 0 for the mass, in one kernel
batch, and ``_tilted`` reads log_exp_moment(a) and all moments up to k from
one derivative batch.  Every cell sum is memoized on the transform per
(xi, a, k) by ``pl_cell_integrals``, and ``prefetch_sums`` fills that memo for
a report sweep's tilts in one batch per moment order.  Exponential moments
are summed in the log domain, relative to the largest exponent or kernel log
offset, so log Q and S_tilde stay finite however far the support sits from 0.

Distribution functions are exact where they can be.  An unweighted
pushforward (xi = 0) reads the transform's survival spline: ``mass_above`` is
one Horner evaluation, its CDF is piecewise polynomial, and the inverse
power means behind the cone family are closed forms in u = b t + c.  A
weighted pushforward slices at each level, relative to one log offset; its
CDF is sampled on ``SUPERLEVEL_GRID`` equal steps and its inverse power
means take adaptive quadrature.  ``wasserstein1`` integrates |F - G| in
closed form on each interval between the two CDFs' knots.

An atomic measure is an integer table: sorted position numerators over one
denominator, mass numerators over another, weights over a third.  Its
moments, tilted sums, CDF and JSON read the table, and every float is one
int / int, correctly rounded, so it equals the ``Fraction`` value rounded once.

All functional formulas downstream divide by ``mass`` explicitly, so measures
here carry raw (possibly non-probability) mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, zip_longest

from .errors import (
    DenominatorVanishes,
    DimensionMismatch,
    InputError,
    NonFiniteResult,
    NonpositiveScale,
    UnsupportedOrder,
)
from .expint import (
    MAX_MOMENT_ORDER,
    PLConcaveFunction,
    _horner,
    _taylor_shift,
    exp_scaled,
    pl_cell_integrals,
    superlevel_gvolume,
    superlevel_log_gvolume,
)
from .geometry import RationalPolytope, polytope_from_json
from .rational import (
    _format_over,
    _format_row,
    _fractions,
    _integer_row,
    _over,
    _weight_table,
    format_rat,
    need,
    rat,
    rat_vector,
)

#: equal steps on which a weighted pushforward's CDF is sampled for ``wasserstein1``
SUPERLEVEL_GRID = 2048


def _quotient(num, den, what: str) -> float:
    """float(num / den) for ints or Fractions; NonFiniteResult naming ``what`` past it."""
    try:
        return float(num / den)
    except OverflowError:
        raise NonFiniteResult(f"{what} is outside double range") from None


@dataclass(frozen=True)
class SupportInfo:
    lambda_min: float
    lambda_max: float
    atom_at_max: bool


class DHMeasure:
    """A finite measure on the line; subclasses supply ``mass``, ``log_exp_moments``,
    ``_tilted``, ``_mass_above``, ``_share_above`` (mu{lambda >= t} / mass), ``support``,
    ``_affine``, ``twisted``, ``inverse_power_mean``, ``to_json`` and ``_cdf`` (the
    normalized CDF that ``wasserstein1`` reads); the scalar queries read the list ones."""

    @staticmethod
    def atomic(atoms) -> "AtomicMeasure":
        packed = []
        for entry in atoms:
            pos, mass, weight = entry if len(entry) == 3 else (*entry, None)
            mass = rat(mass)
            if mass <= 0:
                raise InputError(f"atom mass must be positive, got {mass}")
            packed.append((rat(pos), mass, rat_vector(weight) if weight is not None else None))
        if not packed:
            raise InputError("atomic measure needs at least one atom")
        packed.sort(key=lambda a: a[0])
        _quotient(max(-packed[0][0], packed[-1][0]), 1, "an atom position")  # largest |x| fits
        positions, masses, weights = zip(*packed)
        wden, rows = _weight_table(*_over([w for w in weights if w is not None]))
        rows = iter(rows)
        (pden, pos), (mden, mass) = _integer_row(positions), _integer_row(masses)
        return AtomicMeasure(pden, pos, mden, mass, wden,
                             tuple(None if w is None else next(rows) for w in weights))

    @staticmethod
    def dirac(position, mass=1) -> "AtomicMeasure":
        return DHMeasure.atomic([(position, mass, None)])

    @staticmethod
    def pushforward(transform: PLConcaveFunction, weight_xi=None) -> "PushforwardMeasure":
        xi = rat_vector(weight_xi, "weight_xi") if weight_xi is not None else ()
        if len(xi) > transform.dim:
            raise InputError("weight vector longer than the ambient dimension")
        return PushforwardMeasure(transform, xi)

    @staticmethod
    def uniform(lo, hi) -> "PushforwardMeasure":
        """Pushforward giving the uniform (Lebesgue) measure on [lo, hi]."""
        dom = RationalPolytope.interval(lo, hi)
        return DHMeasure.pushforward(PLConcaveFunction.linear(dom, [1], 0))

    def moment(self, k: int) -> float:
        """(1/mass) int lambda^k dmu for 0 <= k <= 4; moment(0) = 1."""
        return self.tilted_moments(0, k)[k]

    def log_exp_moment(self, a) -> float:
        """log (1/mass) int e^{-a lambda} dmu."""
        return self.log_exp_moments([a])[0]

    def exp_moment(self, a) -> float:
        """(1/mass) int e^{-a lambda} dmu for a > 0."""
        return exp_scaled(self.log_exp_moment(a))

    def tilted_moments(self, a, k: int) -> list[float]:
        """int lambda^j e^{-a lambda} dmu / int e^{-a lambda} dmu for j = 0..k <= 4."""
        return self._tilted(a, k)[1]

    def tilted_moment(self, a, k: int) -> float:
        """int lambda^k e^{-a lambda} dmu / int e^{-a lambda} dmu."""
        return self.tilted_moments(a, k)[k]

    def mass_above(self, t) -> float:
        """mu({lambda >= t}); for pushforwards this is the weighted superlevel volume."""
        return self._mass_above(rat(t))

    def affine_transform(self, a, b) -> "DHMeasure":
        """Pushforward under lambda -> a*lambda + b (a > 0)."""
        a, b = rat(a), rat(b)
        if a <= 0:
            raise NonpositiveScale(f"scale must be positive, got {a}")
        return self._affine(a, b)


@dataclass(frozen=True, eq=False)
class AtomicMeasure(DHMeasure):
    """sum_i m_i delta_{x_i}: positions x_i = pos[i] / pden, increasing, masses
    m_i = mass[i] / mden and torus weights weights[i] / wden (None for an atom
    without one).  ``atoms`` is the ``Fraction`` view ((x_i, m_i, weight | None),
    ...), built on each access; equality reads it.
    """

    _pden: int
    _pos: tuple[int, ...]
    _mden: int
    _mass: tuple[int, ...]
    _wden: int
    _weights: tuple

    @property
    def atoms(self) -> tuple:
        return tuple(zip(_fractions(self._pos, self._pden), _fractions(self._mass, self._mden),
                         (w and _fractions(w, self._wden) for w in self._weights)))

    def __eq__(self, other):
        return isinstance(other, AtomicMeasure) and self.atoms == other.atoms

    def __hash__(self):
        return hash(self.atoms)

    @cached_property
    def _total(self) -> int:
        """The total mass over ``_mden``."""
        return sum(self._mass)

    @cached_property
    def _merged(self) -> tuple[list[int], list[int]]:
        """The distinct position numerators, increasing, and the mass numerators at each."""
        xs, ms = [], []
        for x, m in zip(self._pos, self._mass):
            if xs and xs[-1] == x:
                ms[-1] += m
            else:
                xs.append(x)
                ms.append(m)
        return xs, ms

    def _tilt(self, a) -> tuple[float, list[float]]:
        """(top, w_i e^{-a x_i - top}) per distinct x_i, with top the largest exponent
        -a x_i and w_i the mass at x_i normalized exactly, so a Dirac has w = 1."""
        af, d, total = float(a), self._pden, self._total
        xs, ms = self._merged
        exponents = [-af * (x / d) for x in xs]
        top = max(exponents)
        return top, [m / total * math.exp(e - top) for m, e in zip(ms, exponents)]

    def mass(self) -> float:
        return self._total / self._mden

    def moment(self, k: int) -> float:
        """(1/mass) int lambda^k dmu, exactly rounded; moment(0) = 1."""
        if k < 0 or k > MAX_MOMENT_ORDER:
            raise UnsupportedOrder(f"moment order {k} not in 0..{MAX_MOMENT_ORDER}")
        xs, ms = self._merged
        return _quotient(sum(m * x**k for x, m in zip(xs, ms)), self._total * self._pden**k,
                         f"moment {k}")

    def log_exp_moments(self, a_list) -> list[float]:
        """log (1/mass) int e^{-a lambda} dmu per a; exactly -a x for a Dirac at x."""
        return [top + math.log(math.fsum(terms))
                for top, terms in map(self._tilt, a_list)]

    def _tilted(self, a, k: int) -> tuple[float, list[float]]:
        """``log_exp_moment(a)`` and the tilted moments j = 0..k from one ``_tilt`` sum;
        at a = 0, 0 and the exact moments, exactly rounded."""
        if a == 0:
            return 0.0, [self.moment(j) for j in range(k + 1)]
        top, terms = self._tilt(a)
        total = math.fsum(terms)
        xs = [x / self._pden for x in self._merged[0]]
        try:
            return top + math.log(total), [
                math.fsum(x**j * t for x, t in zip(xs, terms)) / total for j in range(k + 1)]
        except OverflowError:
            raise NonFiniteResult(f"tilted moment {k} is outside double range") from None

    def _mass_above(self, t: Fraction) -> float:
        return sum(m for x, m in zip(self._pos, self._mass)
                   if x * t.denominator >= t.numerator * self._pden) / self._mden

    def _share_above(self, t: Fraction) -> float:
        return self._mass_above(t) / self.mass()

    def support(self) -> SupportInfo:
        return SupportInfo(self._pos[0] / self._pden, self._pos[-1] / self._pden, True)

    def _affine(self, a: Fraction, b: Fraction) -> "AtomicMeasure":
        return DHMeasure.atomic([(a * pos + b, m, w) for pos, m, w in self.atoms])

    def twisted(self, xi) -> "AtomicMeasure":
        """Each atom moved by <w, xi>, w its torus weight."""
        if any(w is None for w in self._weights):
            raise InputError("xi sweep needs torus weights on every atom")
        if len(xi) != len(self._weights[0]):
            raise DimensionMismatch("twist vector rank does not match torus weights")
        return DHMeasure.atomic([(pos + sum(a * x for a, x in zip(w, xi)), m, w)
                                 for pos, m, w in self.atoms])

    def inverse_power_mean(self, b, c, p: int) -> float:
        """(1/mass) int (b lambda + c)^{-p} dmu, summed exactly over the atoms."""
        b, c = rat(b), rat(c)
        xs, ms = self._merged
        u = [b * Fraction(x, self._pden) + c for x in xs]
        if min(u) <= 0:
            raise DenominatorVanishes(f"{b} x + {c} vanishes on the support")
        return _quotient(sum((m * ui ** -p for m, ui in zip(ms, u)), Fraction(0)), self._total,
                         "an inverse power mean")

    @cached_property
    def _cdf(self):
        """(knots, pieces) of the normalized CDF: a step function, one constant per atom.

        The cumulative masses are integers over one common denominator, and
        int / int is correctly rounded, so each value is exactly float(c / total).
        """
        xs, ms = self._merged
        cumulative = list(accumulate(ms))
        return ([x / self._pden for x in xs], [(c / cumulative[-1],) for c in cumulative])

    def to_json(self) -> dict:
        masses = {m: _format_over(m, self._mden) for m in set(self._mass)}
        out = []
        for pos, m, w in zip(_format_row(self._pos, self._pden), self._mass, self._weights):
            entry = {"pos": pos, "mass": masses[m]}
            if w is not None:
                entry["weight"] = _format_row(w, self._wden)
            out.append(entry)
        return {"atoms": out}


@dataclass(frozen=True)
class PushforwardMeasure(DHMeasure):
    """G_*(e^{-<y', xi>} dy): the transform's pushforward of the weighted polytope."""

    transform: PLConcaveFunction
    weight_xi: tuple = ()

    def _exp_sums(self, a_list) -> list[tuple[float, float]]:
        """(top, n! s) for a = 0, the mass, and each a, from ``pl_cell_integrals``'s (top, (s,))."""
        scale = math.factorial(self.transform.dim)
        return [(top, scale * s) for top, (s,) in
                pl_cell_integrals(self.transform, [(self.weight_xi, [0, *a_list])], 0)]

    def mass(self) -> float:
        return exp_scaled(*self._exp_sums(())[0])

    def log_exp_moments(self, a_list) -> list[float]:
        """log (1/mass) int e^{-a lambda} dmu per a, from the kernel's log offsets."""
        (top0, s0), *sums = self._exp_sums(a_list)
        return [(top - top0) + math.log(s / s0) for top, s in sums]

    def _tilted(self, a, k: int) -> tuple[float, list[float]]:
        """``log_exp_moment(a)`` and the tilted moments j = 0..k, each sum divided by the j = 0
        sum of its own order-k rows, from one call for a = 0 (the mass) and a; 0 at a = 0."""
        (top0, sums0), (top, sums) = pl_cell_integrals(self.transform,
                                                       [(self.weight_xi, [0, a])], k)
        return (top - top0) + math.log(sums[0] / sums0[0]), [s / sums[0] for s in sums]

    def _mass_above(self, t: Fraction) -> float:
        return superlevel_gvolume(self.transform, t, self.weight_xi or None)

    def _share_above(self, t: Fraction) -> float:
        """mu{lambda >= t} / mass: exact for xi = 0, else a ratio of log-domain sums."""
        if not any(self.weight_xi):
            spline = self.transform._survival_spline
            return float(spline(t) / spline.total)
        top, v = superlevel_log_gvolume(self.transform, t, self.weight_xi)
        top0, v0 = self._exp_sums(())[0]
        return v / v0 * math.exp(top - top0) if v else 0.0

    def support(self) -> SupportInfo:
        return SupportInfo(float(self.transform.min_value()),
                           float(self.transform.max_value()), False)

    def _affine(self, a: Fraction, b: Fraction) -> "PushforwardMeasure":
        return DHMeasure.pushforward(self.transform.rescaled(a, b), self.weight_xi)

    def twisted(self, xi) -> "PushforwardMeasure":
        """The density weight e^{-<y', xi>} multiplied in: xi adds to weight_xi."""
        return DHMeasure.pushforward(
            self.transform, [u + v for u, v in zip_longest(self.weight_xi, xi, fillvalue=0)])

    def inverse_power_mean(self, b, c, p: int) -> float:
        """(1/mass) int (b lambda + c)^{-p} dmu for b >= 0 and b lambda + c > 0 on the support.

        With xi = 0 this is a closed form on the survival spline S: the atoms
        add jump * u^{-p}, and on each knot interval the density -S'(t) dt,
        rewritten as a polynomial sum_l q_l u^l du in u = b t + c, integrates
        term by term.  The powers u^{l-p} give exact rationals; only u^{-1}
        (when the transform's dimension is at least p) takes a log(u_hi / u_lo).
        Weighted, it is phi(lo) + int phi'(t) mu{lambda >= t} / mass dt by
        adaptive quadrature.
        """
        b, c = rat(b), rat(c)
        G = self.transform
        if min(b * G.min_value() + c, b * G.max_value() + c) <= 0:  # affine: the ends decide
            raise DenominatorVanishes(f"{b} x + {c} vanishes on the support")
        if any(self.weight_xi):
            bf, cf = float(b), float(c)
            info = self.support()
            lo, hi = info.lambda_min, info.lambda_max
            integral = adaptive_simpson(
                lambda t: -p * bf * (bf * t + cf) ** (-p - 1) * self._share_above(rat(t)),
                lo, hi, 1e-11)
            return (bf * lo + cf) ** -p + integral
        spline = G._survival_spline
        u = [b * t + c for t in spline.knots]
        if b == 0:
            return _quotient(c ** -p, 1, "an inverse power mean")
        n = len(spline.coeffs[0]) - 1
        exponents = [l - p + 1 for l in range(n)]  # int u^{l-p} du = u^e / e
        # per knot, u^e / e for each exponent e != 0 (e = 0 is the log term)
        anti = [[ui ** e / e if e else 0 for e in exponents] for ui in u]
        exact = sum((j * ui ** -p for j, ui in zip(spline.jumps, u)), Fraction(0))
        logs = []
        for i, coeffs in enumerate(spline.coeffs[:-1]):
            # -S'(t) dt = sum_k -(k+1) c_{k+1} ((u - u_i) / b)^k du / b
            q = _taylor_shift([-(k + 1) * coeffs[k + 1] / b ** (k + 1) for k in range(n)], -u[i])
            for ql, e, hi, lo in zip(q, exponents, anti[i + 1], anti[i]):
                if e:
                    exact += ql * (hi - lo)
                elif ql:
                    logs.append((ql, u[i + 1] / u[i]))
        total = spline.total
        return _quotient(exact, total, "an inverse power mean") + math.fsum(
            float(ql / total) * math.log(ratio) for ql, ratio in logs)

    @cached_property
    def _cdf(self):
        """(knots, pieces) of the normalized CDF.

        With xi = 0, the survival spline's knots and 1 - S / total per piece,
        rounded from the exact coefficients; weighted, a step function on
        ``SUPERLEVEL_GRID`` equal steps of the support.
        """
        if not any(self.weight_xi):
            spline = self.transform._survival_spline
            total = spline.total
            return ([float(t) for t in spline.knots],
                    [(float(1 - coeffs[0] / total), *(float(-x / total) for x in coeffs[1:]))
                     for coeffs in spline.coeffs])
        info = self.support()
        if info.lambda_max == info.lambda_min:
            # all mass sits at one point: a single jump, not 1 - mu{lambda >= t} = 0
            return [info.lambda_min], [(1.0,)]
        knots, values = zip(*_cdf_grid(self, info.lambda_min, info.lambda_max, SUPERLEVEL_GRID))
        return list(knots), [(v,) for v in values[:-1]] + [(1.0,)]

    def to_json(self) -> dict:
        return {
            "domain": self.transform.domain.to_json(),
            "transform": self.transform.to_json(),
            "weight_xi": [format_rat(x) for x in self.weight_xi],
        }


def measure_from_json(doc: dict) -> DHMeasure:
    need(doc, "measure document")
    if "atoms" in doc:
        atoms = []
        for entry in need(doc, "measure document", "atoms", kind=list):
            pos, mass = need(entry, "atom", "pos", "mass")
            weight = rat_vector(entry["weight"], "atom weight") if "weight" in entry else None
            atoms.append((rat(pos), rat(mass), weight))
        return DHMeasure.atomic(atoms)
    if "transform" in doc:
        domain = polytope_from_json(doc["domain"]) if "domain" in doc else None
        transform = PLConcaveFunction.from_json(doc["transform"], domain)
        return DHMeasure.pushforward(transform, doc.get("weight_xi"))
    raise InputError("measure document needs 'atoms' or 'transform'")


def prefetch_sums(measures, a_list, k: int) -> None:
    """Fill the transform memos behind ``log_exp_moments(a_list)``, ``mass`` and
    ``tilted_moments(0, k)`` of every pushforward among ``measures``: per transform, one
    order-0 batch for a = 0 and each a and one order-k batch for a = 0.  A kernel row does
    not depend on its batch, so every later query returns what the measure computes alone."""
    tilts, a_list = {}, [0, *map(rat, a_list)]
    for mu in measures:
        if isinstance(mu, PushforwardMeasure):
            tilts.setdefault(id(mu.transform), (mu.transform, []))[1].append(mu.weight_xi)
    for G, xis in tilts.values():
        pl_cell_integrals(G, [(xi, a_list) for xi in xis], 0)
        pl_cell_integrals(G, [(xi, [0]) for xi in xis], k)


# ---------------------------------------------------------------------------
# distribution functions and Wasserstein-1 distance


def wasserstein1(mu: DHMeasure, nu: DHMeasure) -> float:
    """W1 distance between the normalized measures: int |F_mu - F_nu| dt.

    Each CDF is (knots, pieces), piece i the polynomial on [knot_i, knot_{i+1})
    in t - knot_i, 0 below the first knot.  On each interval of the merged
    knots the difference is one polynomial, re-centred in doubles, whose
    |.| is integrated in closed form between its sign changes.  Exact up to
    rounding except for weighted pushforwards, whose CDF is sampled.  When
    every piece is constant or linear (atomic measures, 1-D and weighted
    pushforwards) the loop runs on scalars, ``_w1_linear``, bit for bit.
    """
    (x1, p1), (x2, p2) = mu._cdf, nu._cdf
    if max(map(len, p1)) <= 2 and max(map(len, p2)) <= 2:
        return _w1_linear(x1, p1, x2, p2)
    breaks = sorted(set(x1) | set(x2))
    i1 = i2 = -1
    parts = []
    for a, b in zip(breaks, breaks[1:]):
        while i1 + 1 < len(x1) and x1[i1 + 1] <= a:
            i1 += 1
        while i2 + 1 < len(x2) and x2[i2 + 1] <= a:
            i2 += 1
        diff = [f - g for f, g in zip_longest(_local(x1, p1, i1, a), _local(x2, p2, i2, a),
                                               fillvalue=0.0)]
        parts.append(_abs_integral(diff, b - a))
    return math.fsum(parts)


def _w1_linear(x1, p1, x2, p2) -> float:
    """The merged-knot loop of ``wasserstein1`` for pieces of at most two coefficients.

    The same float operations in the same order as the general loop: each
    CDF's piece is Taylor-shifted to the interval's left end, the difference
    is c0 + c1 u (c0 alone where both pieces are constant, 0.0 standing in
    for one missing slope), its root splits the interval, and each part is
    |H(hi) - H(lo)| with H the antiderivative [0, c0, c1 / 2] by Horner's
    rule.
    """
    c10, c11 = [p[0] for p in p1], [p[1] if len(p) == 2 else None for p in p1]
    c20, c21 = [p[0] for p in p2], [p[1] if len(p) == 2 else None for p in p2]
    n1, n2 = len(x1), len(x2)
    breaks = sorted(set(x1) | set(x2))
    i1 = i2 = -1
    parts = []
    for a, b in zip(breaks, breaks[1:]):
        while i1 + 1 < n1 and x1[i1 + 1] <= a:
            i1 += 1
        while i2 + 1 < n2 and x2[i2 + 1] <= a:
            i2 += 1
        if i1 < 0:
            f0, f1 = 0.0, None
        else:
            f0, f1 = c10[i1], c11[i1]
            if f1 is not None and a != x1[i1]:
                f0 += (a - x1[i1]) * f1
        if i2 < 0:
            g0, g1 = 0.0, None
        else:
            g0, g1 = c20[i2], c21[i2]
            if g1 is not None and a != x2[i2]:
                g0 += (a - x2[i2]) * g1
        c0 = f0 - g0
        width = b - a
        if f1 is None and g1 is None:
            # H(u) = (0 u + c0) u + 0
            lo = (0.0 * 0.0 + c0) * 0.0 + 0.0
            parts.append(abs((0.0 * width + c0) * width + 0.0 - lo))
            continue
        c1 = (0.0 if f1 is None else f1) - (0.0 if g1 is None else g1)
        h = c1 / 2
        # H(u) = ((0 u + c1 / 2) u + c0) u + 0
        lo = ((0.0 * 0.0 + h) * 0.0 + c0) * 0.0 + 0.0
        hi = ((0.0 * width + h) * width + c0) * width + 0.0
        if c1 != 0:
            root = -c0 / c1
            if 0.0 < root < width:
                mid = ((0.0 * root + h) * root + c0) * root + 0.0
                parts.append(abs(mid - lo) + abs(hi - mid))
                continue
        parts.append(abs(hi - lo))
    return math.fsum(parts)


def _local(knots, pieces, i, a) -> list:
    """Coefficients of piece i of a CDF in t - a (the zero polynomial for i < 0)."""
    if i < 0:
        return [0.0]
    return _taylor_shift(pieces[i], a - knots[i]) if a != knots[i] else list(pieces[i])


def _abs_integral(coeffs, width: float) -> float:
    """int_0^width |sum_j coeffs[j] u^j| du."""
    anti = [0.0] + [c / (j + 1) for j, c in enumerate(coeffs)]
    cuts = [0.0, *_sign_changes(coeffs, 0.0, width), width]
    return sum(abs(_horner(anti, hi) - _horner(anti, lo)) for lo, hi in zip(cuts, cuts[1:]))


def _sign_changes(coeffs, lo: float, hi: float) -> list:
    """The points in (lo, hi) where the polynomial changes sign, in increasing order.

    Between consecutive sign changes of the derivative the polynomial is
    monotone, so each such stretch holds at most one, found by bisection.
    """
    deg = len(coeffs) - 1
    while deg > 0 and coeffs[deg] == 0:
        deg -= 1
    if deg == 0:
        return []
    if deg == 1:
        root = -coeffs[0] / coeffs[1]
        return [root] if lo < root < hi else []
    turns = _sign_changes([j * coeffs[j] for j in range(1, deg + 1)], lo, hi)
    roots = []
    for a, b in zip([lo, *turns], [*turns, hi]):
        fa = _horner(coeffs, a)
        if fa * _horner(coeffs, b) < 0:
            for _ in range(60):
                mid = 0.5 * (a + b)
                if not a < mid < b:
                    break
                if (_horner(coeffs, mid) < 0) == (fa < 0):
                    a = mid
                else:
                    b = mid
            roots.append(0.5 * (a + b))
    return roots


def _cdf_grid(measure: DHMeasure, lo: float, hi: float, count: int):
    """(t, 1 - mu{lambda >= t} / mass) at count + 1 equally spaced t in [lo, hi]."""
    return [(t, 1.0 - measure._share_above(Fraction(t).limit_denominator(10**12)))
            for t in (lo + (hi - lo) * i / count for i in range(count + 1))]


def cdf_samples(measure: DHMeasure, count: int = 200):
    """(t, CDF(t)) pairs across the support, for CSV export and plotting."""
    info = measure.support()
    return _cdf_grid(measure, info.lambda_min - 1e-9, info.lambda_max + 1e-9, count)


def adaptive_simpson(g, a, b, tol, depth: int = 24):
    """int_a^b g by adaptive Simpson with Richardson correction, to about ``tol``."""
    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def recurse(x0, x2, f0, f1, f2, whole, d):
        xm = 0.5 * (x0 + x2)
        lm, rm = 0.5 * (x0 + xm), 0.5 * (xm + x2)
        flm, frm = g(lm), g(rm)
        left = simpson(x0, xm, f0, flm, f1)
        right = simpson(xm, x2, f1, frm, f2)
        if d <= 0 or abs(left + right - whole) < 15 * tol:
            return left + right + (left + right - whole) / 15.0
        return (recurse(x0, xm, f0, flm, f1, left, d - 1)
                + recurse(xm, x2, f1, frm, f2, right, d - 1))

    fa, fm, fb = g(a), g(0.5 * (a + b)), g(b)
    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, depth)
