"""Spectral (Duistermaat-Heckman type) measures behind the functionals.

``AtomicMeasure`` (finite-level empirical spectra) and ``PushforwardMeasure``
(a weighted Lebesgue measure on a polytope pushed forward under a
piecewise-linear transform) answer one query protocol, the methods of
``DHMeasure``.  Pushforward densities are never materialized; every query is
an integral over the polytope.  Exponential moments are summed in the log
domain, relative to the largest exponent or kernel log offset, so log Q and
S_tilde stay finite however far the support sits from 0.

All functional formulas downstream divide by ``mass`` explicitly, so measures
here carry raw (possibly non-probability) mass.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import accumulate, groupby, zip_longest
from operator import add

from ._kernel import compensated_tree_sum
from .errors import InputError, NonFiniteResult, NonpositiveScale, UnsupportedOrder
from .expint import MAX_MOMENT_ORDER, PLConcaveFunction, pl_cell_integrals, superlevel_gvolume
from .geometry import RationalPolytope, polytope_from_json
from .rational import format_rat, rat, rat_vector


@dataclass(frozen=True)
class SupportInfo:
    lambda_min: float
    lambda_max: float
    atom_at_max: bool


def _scaled(log_scale: float, mantissa: float = 1.0) -> float:
    """mantissa * e^{log_scale}; NonFiniteResult unless that is a positive double."""
    try:
        value = mantissa * math.exp(log_scale)
    except OverflowError:
        value = math.inf
    if not 0.0 < value < math.inf:
        raise NonFiniteResult(f"{mantissa!r} * e^{log_scale!r} is outside double range")
    return value


class DHMeasure:
    """A finite measure on the line; subclasses supply ``mass``, ``moment``, ``log_exp_moment``,
    ``tilted_moment``, ``_mass_above``, ``support``, ``_affine``, ``twisted``,
    ``expectation``, ``to_json`` and ``_cdf`` (the normalized CDF that ``wasserstein1`` reads)."""

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
        return AtomicMeasure(tuple(sorted(packed, key=lambda a: a[0])))

    @staticmethod
    def dirac(position, mass=1) -> "AtomicMeasure":
        return DHMeasure.atomic([(position, mass, None)])

    @staticmethod
    def pushforward(transform: PLConcaveFunction, weight_xi=None) -> "PushforwardMeasure":
        xi = rat_vector(weight_xi) if weight_xi is not None else ()
        if len(xi) > transform.dim:
            raise InputError("weight vector longer than the ambient dimension")
        return PushforwardMeasure(transform, xi)

    @staticmethod
    def uniform(lo, hi) -> "PushforwardMeasure":
        """Pushforward giving the uniform (Lebesgue) measure on [lo, hi]."""
        dom = RationalPolytope.interval(lo, hi)
        return DHMeasure.pushforward(PLConcaveFunction.linear(dom, [1], 0))

    def exp_moment(self, a) -> float:
        """(1/mass) int e^{-a lambda} dmu for a > 0."""
        return _scaled(self.log_exp_moment(a))

    def mass_above(self, t) -> float:
        """mu({lambda >= t}); for pushforwards this is the weighted superlevel volume."""
        return self._mass_above(rat(t))

    def affine_transform(self, a, b) -> "DHMeasure":
        """Pushforward under lambda -> a*lambda + b (a > 0)."""
        a, b = rat(a), rat(b)
        if a <= 0:
            raise NonpositiveScale(f"scale must be positive, got {a}")
        return self._affine(a, b)


@dataclass(frozen=True)
class AtomicMeasure(DHMeasure):
    """sum_i m_i delta_{x_i}, atoms ((x_i, m_i, torus weight | None), ...) sorted by x_i."""

    atoms: tuple

    @cached_property
    def _total(self) -> Fraction:
        return sum((m for _, m, _ in self.atoms), Fraction(0))

    @cached_property
    def _merged(self) -> tuple:
        """(x, mass at x) per distinct position x, in increasing order."""
        runs = groupby(self.atoms, key=lambda atom: atom[0])
        return tuple((pos, reduce(add, (m for _, m, _ in run))) for pos, run in runs)

    def _tilt(self, a) -> tuple[float, list[float]]:
        """(top, w_i e^{-a x_i - top}) with top the largest exponent -a x_i and
        w_i the mass at x_i normalized exactly, so a Dirac has w = 1."""
        af = float(a)
        top = max(-af * float(x) for x, _ in self._merged)
        return top, [float(m / self._total) * math.exp(-af * float(x) - top)
                     for x, m in self._merged]

    def mass(self) -> float:
        return float(self._total)

    def moment(self, k: int) -> float:
        """(1/mass) int lambda^k dmu, exactly rounded; moment(0) = 1."""
        if k < 0 or k > MAX_MOMENT_ORDER:
            raise UnsupportedOrder(f"moment order {k} not in 0..{MAX_MOMENT_ORDER}")
        return float(sum((m * pos**k for pos, m, _ in self.atoms), Fraction(0)) / self._total)

    def log_exp_moment(self, a) -> float:
        """log (1/mass) int e^{-a lambda} dmu; exactly -a x for a Dirac at x."""
        top, terms = self._tilt(a)
        return top + math.log(compensated_tree_sum(terms))

    def tilted_moment(self, a, k: int) -> float:
        """int lambda^k e^{-a lambda} dmu / int e^{-a lambda} dmu."""
        _, terms = self._tilt(a)
        return (compensated_tree_sum([float(x)**k * t for (x, _), t in zip(self._merged, terms)])
                / compensated_tree_sum(terms))

    def _mass_above(self, t: Fraction) -> float:
        return float(sum((m for pos, m, _ in self.atoms if pos >= t), Fraction(0)))

    def support(self) -> SupportInfo:
        return SupportInfo(float(self.atoms[0][0]), float(self.atoms[-1][0]), True)

    def _affine(self, a: Fraction, b: Fraction) -> "AtomicMeasure":
        return DHMeasure.atomic([(a * pos + b, m, w) for pos, m, w in self.atoms])

    def twisted(self, xi) -> "AtomicMeasure":
        """Each atom moved by <w, xi>, w its torus weight."""
        if any(w is None for _, _, w in self.atoms):
            raise InputError("xi sweep needs torus weights on every atom")
        return DHMeasure.atomic([(pos + sum(a * x for a, x in zip(w, xi)), m, w)
                                 for pos, m, w in self.atoms])

    def expectation(self, phi, phi_prime) -> float:
        """(1/mass) int phi dmu, summed over the atoms."""
        return math.fsum(float(m) * phi(float(p)) for p, m, _ in self.atoms) / self.mass()

    def _cdf(self, grid: int):
        """('step', breakpoints, cumulative values) of the normalized CDF."""
        return ("step", [float(x) for x, _ in self._merged],
                [float(c / self._total) for c in accumulate(m for _, m in self._merged)])

    def to_json(self) -> dict:
        out = []
        for pos, m, w in self.atoms:
            entry = {"pos": format_rat(pos), "mass": format_rat(m)}
            if w is not None:
                entry["weight"] = [format_rat(x) for x in w]
            out.append(entry)
        return {"atoms": out}


@dataclass(frozen=True)
class PushforwardMeasure(DHMeasure):
    """G_*(e^{-<y', xi>} dy): the transform's pushforward of the weighted polytope."""

    transform: PLConcaveFunction
    weight_xi: tuple = ()

    @cached_property
    def _sums(self) -> dict:
        """Cell sums per (a, k) queried: reports and rescaling ask for some twice."""
        return {}

    def _cell_sum(self, a, k: int) -> tuple[float, float]:
        """(top, s) with s e^{top} = n! * sum over the cells of int G^k e^{-(a G + <y', xi>)} dy."""
        key = (rat(a), k)
        if key not in self._sums:
            top, leaves = pl_cell_integrals(self.transform, key[0], self.weight_xi, k)
            self._sums[key] = top, math.factorial(self.transform.dim) * compensated_tree_sum(leaves)
        return self._sums[key]

    def mass(self) -> float:
        return _scaled(*self._cell_sum(0, 0))

    def moment(self, k: int) -> float:
        """(1/mass) int lambda^k dmu for 0 <= k <= 4; moment(0) = 1."""
        return self.tilted_moment(0, k)

    def log_exp_moment(self, a) -> float:
        """log (1/mass) int e^{-a lambda} dmu, from the kernel's log offsets."""
        top, s = self._cell_sum(a, 0)
        top0, s0 = self._cell_sum(0, 0)
        return (top - top0) + math.log(s / s0)

    def tilted_moment(self, a, k: int) -> float:
        """int lambda^k e^{-a lambda} dmu / int e^{-a lambda} dmu."""
        top, s = self._cell_sum(a, k)
        top0, s0 = self._cell_sum(a, 0)
        return s / s0 * math.exp(top - top0)

    def _mass_above(self, t: Fraction) -> float:
        return superlevel_gvolume(self.transform, t, self.weight_xi or None)

    def support(self) -> SupportInfo:
        return SupportInfo(float(self.transform.min_value()),
                           float(self.transform.max_value()), False)

    def _affine(self, a: Fraction, b: Fraction) -> "PushforwardMeasure":
        return DHMeasure.pushforward(self.transform.rescaled(a, b), self.weight_xi)

    def twisted(self, xi) -> "PushforwardMeasure":
        """The density weight e^{-<y', xi>} multiplied in: xi adds to weight_xi."""
        return DHMeasure.pushforward(
            self.transform, [u + v for u, v in zip_longest(self.weight_xi, xi, fillvalue=0)])

    def expectation(self, phi, phi_prime) -> float:
        """(1/mass) int phi dmu = phi(lo) + (1/mass) int_lo^hi phi'(t) mass_above(t) dt."""
        info = self.support()
        lo, hi = info.lambda_min, info.lambda_max
        integral = adaptive_simpson(lambda t: phi_prime(t) * self.mass_above(t), lo, hi, 1e-11)
        return phi(lo) + integral / self.mass()

    def _cdf(self, grid: int):
        """('linear', ...) in closed form for a 1-D transform with xi = 0 and
        sloped cells, else ('step', ...) on ``grid`` superlevel evaluations."""
        linear = _linear_cdf_1d(self)
        if linear is not None:
            return "linear", *linear
        info = self.support()
        if info.lambda_max == info.lambda_min:
            # all mass sits at one point: a single jump, not 1 - mu{lambda >= t} = 0
            return "step", [info.lambda_min], [1.0]
        return ("step", *zip(*_cdf_grid(self, info.lambda_min, info.lambda_max, grid)))

    def to_json(self) -> dict:
        return {
            "domain": self.transform.domain.to_json(),
            "transform": self.transform.to_json(),
            "weight_xi": [format_rat(x) for x in self.weight_xi],
        }


def measure_from_json(doc: dict) -> DHMeasure:
    if not isinstance(doc, dict):
        raise InputError("measure document must be an object")
    if "atoms" in doc:
        if not isinstance(doc["atoms"], list):
            raise InputError("measure 'atoms' must be a list")
        atoms = []
        for entry in doc["atoms"]:
            if not isinstance(entry, dict) or "pos" not in entry or "mass" not in entry:
                raise InputError(f"atom {entry!r} needs 'pos' and 'mass'")
            atoms.append((rat(entry["pos"]), rat(entry["mass"]),
                          rat_vector(entry["weight"]) if "weight" in entry else None))
        return DHMeasure.atomic(atoms)
    if "transform" in doc:
        domain = polytope_from_json(doc["domain"]) if "domain" in doc else None
        transform = PLConcaveFunction.from_json(doc["transform"], domain)
        return DHMeasure.pushforward(transform, doc.get("weight_xi"))
    raise InputError("measure document needs 'atoms' or 'transform'")


# ---------------------------------------------------------------------------
# distribution functions and Wasserstein-1 distance


def _linear_cdf_1d(measure: PushforwardMeasure):
    """Piecewise-linear CDF of a 1-D pushforward with xi = 0 and sloped cells.

    Returns (breakpoints, values) or None when the closed form does not apply.
    """
    if measure.transform.dim != 1 or any(x != 0 for x in measure.weight_xi):
        return None
    segments = []
    for s, f in measure.transform.cells:
        if f.gradient[0] == 0:
            return None
        (u,), (v,) = s.vertices
        a, b = f((u,)), f((v,))
        lo, hi = (a, b) if a <= b else (b, a)
        segments.append((lo, hi, abs(v - u) / (hi - lo)))  # constant density
    breaks = sorted({x for lo, hi, _ in segments for x in (lo, hi)})
    total = sum((d * (hi - lo) for lo, hi, d in segments), Fraction(0))
    values = []
    for t in breaks:
        acc = sum((d * (min(max(t, lo), hi) - lo) for lo, hi, d in segments), Fraction(0))
        values.append(acc / total)
    return [float(x) for x in breaks], [float(v) for v in values]


def _eval_linear(xs, cs, t):
    if t <= xs[0]:
        return 0.0
    if t >= xs[-1]:
        return 1.0
    i = bisect.bisect_right(xs, t) - 1
    x0, x1 = xs[i], xs[i + 1]
    c0, c1 = cs[i], cs[i + 1]
    return c0 + (c1 - c0) * (t - x0) / (x1 - x0)


def wasserstein1(mu: DHMeasure, nu: DHMeasure, grid: int = 2048) -> float:
    """W1 distance between the normalized measures (1-D positions).

    Exact for atomic vs atomic and atomic vs sloped 1-D pushforward; general
    pushforwards are discretized on ``grid`` superlevel evaluations first.
    """
    (k1, x1, c1), (k2, x2, c2) = mu._cdf(grid), nu._cdf(grid)
    breaks = sorted(set(x1) | set(x2))
    total = 0.0
    for a, b in zip(breaks, breaks[1:]):
        fa1, fb1 = _piece_values(k1, x1, c1, a, b)
        fa2, fb2 = _piece_values(k2, x2, c2, a, b)
        da, db = fa1 - fa2, fb1 - fb2
        if da * db >= 0:
            total += 0.5 * abs(da + db) * (b - a)
        else:
            t = da / (da - db)
            total += 0.5 * (b - a) * (abs(da) * t + abs(db) * (1 - t))
    return total


def _piece_values(kind, xs, cs, a, b):
    if kind == "step":
        i = bisect.bisect_right(xs, a)
        v = cs[i - 1] if i else 0.0
        return v, v  # constant on [a, b): both breakpoints are in the union
    return _eval_linear(xs, cs, a), _eval_linear(xs, cs, b)


def _cdf_grid(measure: DHMeasure, lo: float, hi: float, count: int):
    """(t, 1 - mu{lambda >= t} / mass) at count + 1 equally spaced t in [lo, hi]."""
    total = measure.mass()
    out = []
    for i in range(count + 1):
        t = lo + (hi - lo) * i / count
        out.append((t, 1.0 - measure.mass_above(Fraction(t).limit_denominator(10**12)) / total))
    return out


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
