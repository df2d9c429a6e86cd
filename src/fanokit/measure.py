"""Spectral (Duistermaat-Heckman type) measures behind the functionals.

Two variants sit behind one query interface: atomic measures (finite-level
empirical spectra) and pushforwards of a weighted Lebesgue measure on a
polytope under a piecewise-linear transform.  Pushforward densities are never
materialized; every query is an integral over the polytope.

All functional formulas downstream divide by ``mass`` explicitly, so measures
here carry raw (possibly non-probability) mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from ._kernel import compensated_tree_sum
from .errors import InputError, NonpositiveScale, UnsupportedOrder
from .expint import MAX_MOMENT_ORDER, PLConcaveFunction, pl_cell_integrals, superlevel_gvolume
from .geometry import RationalPolytope
from .rational import format_rat, rat, rat_vector


@dataclass(frozen=True)
class SupportInfo:
    lambda_min: float
    lambda_max: float
    atom_at_max: bool


@dataclass(frozen=True)
class DHMeasure:
    variant: str  # "atomic" | "pushforward"
    atoms: tuple | None = None  # ((position, mass, weight|None), ...)
    domain: RationalPolytope | None = None
    transform: PLConcaveFunction | None = None
    weight_xi: tuple | None = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def atomic(cls, atoms) -> "DHMeasure":
        packed = []
        for entry in atoms:
            pos, mass, weight = entry if len(entry) == 3 else (*entry, None)
            mass = rat(mass)
            if mass <= 0:
                raise InputError(f"atom mass must be positive, got {mass}")
            packed.append((rat(pos), mass, rat_vector(weight) if weight is not None else None))
        if not packed:
            raise InputError("atomic measure needs at least one atom")
        return cls("atomic", atoms=tuple(sorted(packed, key=lambda a: a[0])))

    @classmethod
    def dirac(cls, position, mass=1) -> "DHMeasure":
        return cls.atomic([(position, mass, None)])

    @classmethod
    def pushforward(cls, transform: PLConcaveFunction, weight_xi=None) -> "DHMeasure":
        xi = rat_vector(weight_xi) if weight_xi is not None else ()
        if len(xi) > transform.dim:
            raise InputError("weight vector longer than the ambient dimension")
        return cls("pushforward", domain=transform.domain, transform=transform, weight_xi=xi)

    @classmethod
    def uniform(cls, lo, hi) -> "DHMeasure":
        """Pushforward giving the uniform (Lebesgue) measure on [lo, hi]."""
        dom = RationalPolytope.interval(lo, hi)
        return cls.pushforward(PLConcaveFunction.linear(dom, [1], 0))

    # -- queries -------------------------------------------------------------

    def _cell_sum(self, a, k: int) -> float:
        """n! * sum over the cells of int G^k e^{-(a G + <y', xi>)} dy."""
        vals = pl_cell_integrals(self.transform, a, self.weight_xi, k)
        return math.factorial(self.transform.dim) * compensated_tree_sum(vals)

    def mass(self) -> float:
        return self._mass

    @cached_property
    def _mass(self) -> float:
        if self.variant == "atomic":
            return float(sum((m for _, m, _ in self.atoms), Fraction(0)))
        return self._cell_sum(0, 0)

    def moment(self, k: int) -> float:
        """(1/mass) int lambda^k dmu; moment(0) = 1."""
        if k < 0 or k > MAX_MOMENT_ORDER:
            raise UnsupportedOrder(f"moment order {k} not in 0..{MAX_MOMENT_ORDER}")
        if k == 0:
            return 1.0
        if self.variant == "atomic":
            total = sum((m for _, m, _ in self.atoms), Fraction(0))
            acc = sum((m * pos**k for pos, m, _ in self.atoms), Fraction(0))
            return float(acc / total)
        return self._cell_sum(0, k) / self.mass()

    def exp_moment(self, a) -> float:
        """(1/mass) int e^{-a lambda} dmu for a > 0."""
        af = float(a)
        if self.variant == "atomic":
            # merge and normalize exactly, so a Dirac gives exactly e^{-a x}
            masses: dict[Fraction, Fraction] = {}
            for pos, m, _ in self.atoms:
                masses[pos] = masses.get(pos, Fraction(0)) + m
            total = sum(masses.values(), Fraction(0))
            vals = sorted(float(m / total) * math.exp(-af * float(pos))
                          for pos, m in masses.items())
            return compensated_tree_sum(vals)
        return self._cell_sum(a, 0) / self.mass()

    def affine_transform(self, a, b) -> "DHMeasure":
        """Pushforward under lambda -> a*lambda + b (a > 0)."""
        a, b = rat(a), rat(b)
        if a <= 0:
            raise NonpositiveScale(f"scale must be positive, got {a}")
        if self.variant == "atomic":
            return DHMeasure.atomic([(a * pos + b, m, w) for pos, m, w in self.atoms])
        return DHMeasure.pushforward(self.transform.rescaled(a, b), self.weight_xi)

    def support(self) -> SupportInfo:
        if self.variant == "atomic":
            positions = [pos for pos, _, _ in self.atoms]
            return SupportInfo(float(min(positions)), float(max(positions)), True)
        return SupportInfo(float(self.transform.min_value()),
                           float(self.transform.max_value()), False)

    def mass_above(self, t) -> float:
        """mu({lambda >= t}); for pushforwards this is the weighted superlevel volume."""
        if self.variant == "atomic":
            t = rat(t)
            return float(sum((m for pos, m, _ in self.atoms if pos >= t), Fraction(0)))
        return superlevel_gvolume(self.transform, t, self.weight_xi or None)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        if self.variant == "atomic":
            out = []
            for pos, m, w in self.atoms:
                entry = {"pos": format_rat(pos), "mass": format_rat(m)}
                if w is not None:
                    entry["weight"] = [format_rat(x) for x in w]
                out.append(entry)
            return {"atoms": out}
        return {
            "domain": self.domain.to_json(),
            "transform": self.transform.to_json(),
            "weight_xi": [format_rat(x) for x in self.weight_xi],
        }


def measure_from_json(doc: dict) -> DHMeasure:
    if not isinstance(doc, dict):
        raise InputError("measure document must be an object")
    if "atoms" in doc:
        atoms = []
        for entry in doc["atoms"]:
            atoms.append((rat(entry["pos"]), rat(entry["mass"]),
                          rat_vector(entry["weight"]) if "weight" in entry else None))
        return DHMeasure.atomic(atoms)
    if "transform" in doc:
        from .geometry import polytope_from_json

        domain = polytope_from_json(doc["domain"]) if "domain" in doc else None
        transform = PLConcaveFunction.from_json(doc["transform"], domain)
        return DHMeasure.pushforward(transform, doc.get("weight_xi"))
    raise InputError("measure document needs 'atoms' or 'transform'")


# ---------------------------------------------------------------------------
# distribution functions and Wasserstein-1 distance


def _normalized_step_cdf(measure: DHMeasure):
    """Breakpoints and cumulative values of an atomic measure's CDF."""
    total = sum((m for _, m, _ in measure.atoms), Fraction(0))
    xs, cum = [], []
    acc = Fraction(0)
    for pos, m, _ in measure.atoms:
        acc += m
        if xs and xs[-1] == pos:
            cum[-1] = acc / total
        else:
            xs.append(pos)
            cum.append(acc / total)
    return [float(x) for x in xs], [float(c) for c in cum]


def _linear_cdf_1d(measure: DHMeasure):
    """Piecewise-linear CDF of a 1-D pushforward with xi = 0 and sloped cells.

    Returns (breakpoints, values) or None when the closed form does not apply.
    """
    if measure.variant != "pushforward" or measure.transform.dim != 1:
        return None
    if measure.weight_xi and any(x != 0 for x in measure.weight_xi):
        return None
    segments = []
    for s, f in measure.transform.cells:
        slope = f.gradient[0]
        if slope == 0:
            return None
        (u,), (v,) = s.vertices
        a, b = f((u,)), f((v,))
        lo, hi = (a, b) if a <= b else (b, a)
        segments.append((lo, hi, abs(v - u) / (hi - lo)))  # constant density
    breaks = sorted({x for lo, hi, _ in segments for x in (lo, hi)})
    total = sum((d * (hi - lo) for lo, hi, d in segments), Fraction(0))
    values = []
    for t in breaks:
        acc = Fraction(0)
        for lo, hi, d in segments:
            if t >= hi:
                acc += d * (hi - lo)
            elif t > lo:
                acc += d * (t - lo)
        values.append(acc / total)
    return [float(x) for x in breaks], [float(v) for v in values]


def _eval_step(xs, cs, t):
    lo, hi = 0, len(xs)
    while lo < hi:
        mid = (lo + hi) // 2
        if xs[mid] <= t:
            lo = mid + 1
        else:
            hi = mid
    return cs[lo - 1] if lo else 0.0


def _eval_linear(xs, cs, t):
    if t <= xs[0]:
        return 0.0
    if t >= xs[-1]:
        return 1.0
    import bisect

    i = bisect.bisect_right(xs, t) - 1
    x0, x1 = xs[i], xs[i + 1]
    c0, c1 = cs[i], cs[i + 1]
    return c0 + (c1 - c0) * (t - x0) / (x1 - x0)


def wasserstein1(mu: DHMeasure, nu: DHMeasure, grid: int = 2048) -> float:
    """W1 distance between the normalized measures (1-D positions).

    Exact for atomic vs atomic and atomic vs sloped 1-D pushforward; general
    pushforwards are discretized on ``grid`` superlevel evaluations first.
    """
    kinds = []
    for m in (mu, nu):
        if m.variant == "atomic":
            kinds.append(("step", _normalized_step_cdf(m)))
        else:
            lin = _linear_cdf_1d(m)
            if lin is not None:
                kinds.append(("linear", lin))
            else:
                kinds.append(("step", _discretize_cdf(m, grid)))
    (k1, (x1, c1)), (k2, (x2, c2)) = kinds
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
        v = _eval_step(xs, cs, a)
        return v, v  # constant on [a, b): both breakpoints are in the union
    return _eval_linear(xs, cs, a), _eval_linear(xs, cs, b)


def _discretize_cdf(measure: DHMeasure, grid: int):
    info = measure.support()
    if info.lambda_max == info.lambda_min:
        # all mass sits at one point: a single jump, not 1 - mu{lambda >= t} = 0
        return [info.lambda_min], [1.0]
    total = measure.mass()
    span = info.lambda_max - info.lambda_min
    xs, cs = [], []
    for i in range(grid + 1):
        t = info.lambda_min + span * i / grid
        xs.append(t)
        cs.append(1.0 - measure.mass_above(Fraction(t).limit_denominator(10**12)) / total)
    return xs, cs


def cdf_samples(measure: DHMeasure, count: int = 200):
    """(t, CDF(t)) pairs across the support, for CSV export and plotting."""
    info = measure.support()
    total = measure.mass()
    lo = info.lambda_min - 1e-9
    hi = info.lambda_max + 1e-9
    out = []
    for i in range(count + 1):
        t = lo + (hi - lo) * i / count
        above = measure.mass_above(Fraction(t).limit_denominator(10**12))
        out.append((t, 1.0 - above / total))
    return out
