"""Exponential-of-affine integrals over simplices and piecewise-linear transforms.

This is the computational layer behind every entropy/energy functional in the
package: values of int w(y)^k e^{-l(y)} dy over exact rational simplices, and
their sums over the cells of a piecewise-linear concave transform.

Geometry stays rational until the last moment.  A transform keeps its vertex
values, and each tilt's pairings, as integers over one common denominator, so
a kernel node is one correctly rounded int/int division: the exact value
rounded once.  ``pl_cell_integrals`` stacks the rows of many tilts (xi, a) of
one transform in one kernel batch, reads the moments j = 0..k off the corners
of one derivative batch and returns each moment summed over the cells, so no
caller sees a cell.  It memoizes each sum on the transform per (xi, a, k), the
package's only store of cell sums, and batches only what it lacks.  Every cell
sum is a ``math.fsum``: correctly rounded and order-free, so results do not
depend on the order of the cells.  The sums are relative to one log offset per
tilt, so they stay in double range for any tilt.

Superlevel volumes come two ways.  Unweighted (xi = 0), t -> n! vol{G >= t}
is an exact spline of degree n whose knots are the cell vertex values
(``SurvivalSpline``, built once per transform on first query, from the
integers of its node table).  Each cell's share is a divided difference of
(x - t)_+^n over its vertex values, and the spline adds up its residues,
knot by knot.  Weighted, each cell is sliced at the level and the pieces are
summed relative to one log offset (``superlevel_log_gvolume``).
"""

from __future__ import annotations

import bisect
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from operator import mul

from ._kernel import dd_exp_batch, dd_exp_series
from .errors import InputError, NonFiniteResult, UnsupportedOrder
from .geometry import (
    AffineForm,
    RationalPolytope,
    Simplex,
    halfspace_slice,
    pairing_form,
)
from .rational import (
    _exact,
    _format_over,
    _format_row,
    _fractions,
    _integer_row,
    _over,
    exact_rows,
    exact_vector,
    need,
    rat,
    rat_vector,
)

#: node spread below which the series is used; absolute, since DD[exp](z + c) = e^c DD[exp](z)
CLUSTER_SPREAD = 1e-4

MAX_MOMENT_ORDER = 4


def exp_scaled(log_scale: float, mantissa: float = 1.0) -> float:
    """mantissa * e^{log_scale}; NonFiniteResult unless that is a positive double."""
    try:
        value = mantissa * math.exp(log_scale)
    except OverflowError:
        value = math.inf
    if not 0.0 < value < math.inf:
        raise NonFiniteResult(f"{mantissa!r} * e^{log_scale!r} is outside double range")
    return value


@dataclass(frozen=True)
class ExpIntegralResult:
    value: float
    est_rel_error: float
    method: str  # "divided_difference" | "series_fallback" | "subdivision"


def _factorial_volume(s: Simplex) -> float:
    # n! * vol(s) = |det of edge matrix|, exact before rounding
    return abs(s._det) / s._den ** s.dim


def _vertex_values(s: Simplex, form: AffineForm) -> list[float]:
    den = form._den * s._den
    return [form._at(s._den, v) / den for v in s._rows]


def _exp_integrals(z, volumes, b, k: int, tops) -> list:
    """([int_s w^j e^{-l} / e^{tops[i]} = j! n!vol(s) D_j / e^{tops[i]}, j = 0..k], error of
    j = k, method) for each simplex s = i.

    ``z[i]`` holds the negated vertex values of l on simplex i (all rows of
    one length), ``volumes[i]`` its n! vol and, for k > 0, ``b[i]`` the
    vertex values of w.  For k = 0 a row whose spread is below
    ``CLUSTER_SPREAD`` takes the series; the other rows share one
    ``dd_exp_batch`` call.  Each row's kernel value comes with its own log
    offset and is scaled by e^{offset - tops[i]}, at most 1 when ``tops[i]``
    is at least that offset, before it is multiplied by its volume.
    """
    out: list = [None] * len(z)
    batch = []
    for i, zi in enumerate(z):
        if k == 0 and max(zi) - min(zi) < CLUSTER_SPREAD:
            dd, offset, err = dd_exp_series(zi)
            out[i] = [volumes[i] * (dd * math.exp(offset - tops[i]))], err, "series_fallback"
            continue
        batch.append(i)
    if not batch:
        return out
    n1 = len(z[batch[0]])
    rows, offset, errs = dd_exp_batch([z[i] for i in batch],
                                      [b[i] for i in batch] if k else None, k)
    factorials = [math.factorial(j) for j in range(k + 1)]
    for i, corners, off, err in zip(batch, rows[:, n1 - 1::n1].tolist(), offset.tolist(),
                                    errs.tolist()):
        scale = math.exp(off - tops[i])
        values = [volumes[i] * f * (c * scale) for f, c in zip(factorials, corners)]
        if k:
            # error relative to the cancellation-free bound |w|_max^k * I_0 (inf past range)
            bound = math.prod([max(map(abs, b[i]))] * k) * abs(corners[0] * scale) * volumes[i]
            abs_err = err * max(bound, abs(values[k]))
            err = abs_err / abs(values[k]) if values[k] != 0.0 else abs_err
        out[i] = values, err, "divided_difference"
    return out


def simplex_exp_integral(s: Simplex, l: AffineForm) -> ExpIntegralResult:
    """int_s e^{-l(y)} dy = n! vol(s) * (divided difference of exp at -l(vertices)).

    NonFiniteResult outside double range.
    """
    z = [-v for v in _vertex_values(s, l)]
    try:
        (value,), err, method = _exp_integrals([z], [_factorial_volume(s)], None, 0, [0.0])[0]
        if math.isfinite(value):
            return ExpIntegralResult(value, err, method)
    except OverflowError:  # the kernel's offset e^{-l} itself
        pass
    raise NonFiniteResult("the exponential integral is outside double range")


def _superlevel_share(values, level: Fraction) -> Fraction:
    """Exact share of a simplex on which an affine h with these vertex values is >= level.

    For y uniform on the simplex, P(h(y) >= t) = [a_0, ..., a_n] (x - t)_+^n,
    the divided difference over the vertex values a_i (the B-spline identity
    of Curry & Schoenberg 1966).  A run of j + 1 tied values takes the
    confluent entry C(n, j) (a - t)_+^(n-j); a constant h never reaches the
    table, so j < n there.  The tests hold the survival spline to this table.
    """
    if min(values) >= level:
        return Fraction(1)
    if max(values) <= level:
        return Fraction(0)
    n = len(values) - 1
    a = sorted(values)
    table = [max(x - level, 0) ** n for x in a]
    for j in range(1, n + 1):
        table = [(table[i + 1] - table[i]) / (a[i + j] - a[i]) if a[i + j] != a[i]
                 else math.comb(n, j) * max(a[i] - level, 0) ** (n - j)
                 for i in range(n + 1 - j)]
    return table[0]


def _taylor_shift(coeffs, d) -> list:
    """Coefficients of p(u + d) from those of p(u), lowest degree first."""
    c = list(coeffs)
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += d * c[j + 1]
    return c


def _horner(coeffs, u):
    """sum_j coeffs[j] u^j."""
    value = 0
    for c in reversed(coeffs):
        value = value * u + c
    return value


@dataclass(frozen=True)
class SurvivalSpline:
    """t -> n! vol{G >= t} of a transform, an exact piecewise polynomial of degree n.

    ``knots`` t_0 < ... < t_K are the distinct cell vertex values.  On the
    open interval (t_i, t_{i+1}), and above t_K for i = K, the value is
    sum_j coeffs[i][j] (t - t_i)^j.  ``jumps[i]`` is the n! vol of the flat
    cells at t_i, the pushforward's atom there, counted at t = t_i itself;
    below t_0 the value is ``total``.
    """

    knots: tuple
    coeffs: tuple
    jumps: tuple
    total: Fraction

    def __call__(self, t: Fraction) -> Fraction:
        if t < self.knots[0]:
            return self.total
        i = bisect.bisect_right(self.knots, t) - 1
        u = t - self.knots[i]
        value = _horner(self.coeffs[i], u)
        return value + self.jumps[i] if u == 0 else value


def _inverse_series(deltas, r: int) -> list:
    """Taylor coefficients c_0, ..., c_{r-1} at w = 0 of 1 / prod_d (w + d), for nonzero d."""
    c = [Fraction(1, math.prod(deltas))] + [0] * (r - 1)
    for d in deltas:  # times 1 / (1 + w / d)
        for j in range(1, r):
            c[j] -= c[j - 1] / d
    return c


def _survival_spline(d: int, values, dets, n: int) -> SurvivalSpline:
    """Sum of the cells' n!vol * P_s(G >= t), one sweep over the knots.

    ``values`` holds each cell's vertex values times their common denominator
    ``d`` (a node table's integers), and ``dets`` each cell's exact n! vol.
    A non-flat cell's share [a_0..a_n](x - t)_+^n is the sum of the residues
    of (z - t)^n / prod_i (z - a_i) at its values a > t.  The residues at all
    values add up to 1, so the share is 1 below the cell and drops, as t
    passes a value a of multiplicity r, by the residue there:
    sum_{s < r} C(n, s) (a - t)^(n - s) c_{r-1-s}, with c_j the Taylor
    coefficients at a of 1 / prod_{b != a} (z - b), ties included.  Scaling
    the values and t by d leaves the share unchanged, so c_j comes from
    integer differences, and the drop is sum_s C(n, s) c_{r-1-s}
    (-d (t - a))^(n - s).  A flat cell contributes an atom.  Each knot's
    drops and atoms, keyed by its integer value, are summed as one polynomial
    in t - t_i; the running polynomial is re-centred from knot to knot.
    """
    zero = [Fraction(0)] * (n + 1)
    drops = defaultdict(lambda: list(zero))
    jumps = defaultdict(Fraction)
    scales = [math.comb(n, s) * (-d) ** (n - s) for s in range(n + 1)]
    for ints, det in zip(values, dets):
        if len(set(ints)) == 1:
            jumps[ints[0]] += det
            continue
        for a, r in Counter(ints).items():
            c = _inverse_series([a - b for b in ints if b != a], r)
            drop = drops[a]
            for s in range(r):
                drop[n - s] += det * scales[s] * c[r - 1 - s]
    knots = sorted({v for ints in values for v in ints})
    total = sum(dets, Fraction(0))
    running = [total] + zero[1:]
    coeffs = []
    for prev, t in zip(knots[:1] + knots, knots):
        running = [r - x for r, x in zip(_taylor_shift(running, Fraction(t - prev, d)), drops[t])]
        running[0] -= jumps[t]
        coeffs.append(tuple(running))
    return SurvivalSpline(tuple(Fraction(t, d) for t in knots), tuple(coeffs),
                          tuple(jumps[t] for t in knots), total)


def _common_grid(simplices) -> tuple[int, list]:
    """(C, per simplex its vertex rows times C): every vertex over one common denominator."""
    c = math.lcm(*(s._den for s in simplices))
    return c, [s._rows if s._den == c else tuple(tuple(x * (c // s._den) for x in r) for r in s._rows)
               for s in simplices]


def _nodes(d: int, values, volumes) -> tuple:
    """The node table (D, values, floats, volumes) of vertex value numerators over D."""
    return d, values, tuple(tuple(v / d for v in vals) for vals in values), volumes


@dataclass(frozen=True)
class PLConcaveFunction:
    """Piecewise-affine function given by affine pieces over a triangulated domain.

    Its exact tables are integers, built once: ``_grid`` holds every cell
    vertex over one common denominator and ``_node_table`` every vertex value
    over another.  ``rescaled`` shares the domain, the grid and the pairings,
    and maps only the value numerators.
    """

    domain: RationalPolytope
    cells: tuple[tuple[Simplex, AffineForm], ...]
    concavity_certified: bool = False

    @classmethod
    def make(cls, domain: RationalPolytope, cells, certify_concave: bool = False) -> "PLConcaveFunction":
        """The function with its cells in canonical order (by their vertices), validated."""
        cells = tuple(cells)
        c, rows = _common_grid([s for s, _ in cells])
        order = sorted(range(len(cells)), key=rows.__getitem__)
        obj = cls(domain, tuple(cells[i] for i in order), certify_concave)
        obj.__dict__["_grid"] = c, tuple(rows[i] for i in order)
        obj._validate()
        return obj

    @classmethod
    def constant(cls, domain: RationalPolytope, value=0) -> "PLConcaveFunction":
        return cls.linear(domain, (0,) * domain.dim, value)

    @classmethod
    def linear(cls, domain: RationalPolytope, gradient, constant=0) -> "PLConcaveFunction":
        form = AffineForm.make(gradient, constant)
        return cls.make(domain, [(s, form) for s in domain.triangulate()])

    def _validate(self):
        """Each distinct vertex is tested for containment once, each cell vertex evaluated once."""
        if not self.cells:
            raise InputError("piecewise function needs at least one cell")
        n, domain = self.dim, self.domain
        if any(s.dim != n for s, _ in self.cells):
            raise InputError(f"cells of another dimension than the domain's {n}")
        c, rows = self._grid
        d, values = self._node_table[:2]
        # n! vol of the cells over c^n against the domain's over its denominator^n
        cells = sum(abs(s._det) * (c // s._den) ** n for s, _ in self.cells)
        if not domain.full_dimensional or (
                cells * domain._den ** n != domain._factorial_volume() * c ** n):
            raise InputError("cells do not triangulate the domain (volume mismatch)")
        seen = {}
        for pts, vals in zip(rows, values):
            for v, val in zip(pts, vals):
                if seen.setdefault(v, val) != val:
                    raise InputError(f"adjacent pieces disagree at shared vertex {_fractions(v, c)}")
        if not domain._contains_all(c, seen):
            raise InputError("cell vertex outside the domain")
        if self.concavity_certified and any(f._at(c, v) * (d // (f._den * c)) < val
                                            for v, val in seen.items() for _, f in self.cells):
            raise InputError("concavity certificate fails: piece exceeds the minimum")

    @property
    def dim(self) -> int:
        return self.domain.dim

    @cached_property
    def _grid(self) -> tuple:
        """(C, per cell its vertex rows times C), every cell vertex over one denominator."""
        return _common_grid([s for s, _ in self.cells])

    @cached_property
    def _node_table(self) -> tuple:
        """(D, values, floats, volumes): per cell, the vertex values times their common
        denominator D as integers and as floats, and n! vol as a float."""
        c, rows = self._grid
        e = math.lcm(*(f._den for _, f in self.cells))
        values = tuple(tuple(f._at(c, v) * (e // f._den) for v in pts)
                       for (_, f), pts in zip(self.cells, rows))
        return _nodes(e * c, values, tuple(_factorial_volume(s) for s, _ in self.cells))

    @cached_property
    def _survival_spline(self) -> SurvivalSpline:
        """t -> n! vol{G >= t} as an exact spline, built on first query from the node table."""
        d, values = self._node_table[:2]
        return _survival_spline(d, values, [abs(s.edge_determinant()) for s, _ in self.cells],
                                self.dim)

    @cached_property
    def _pairing_table(self) -> dict:
        """Per xi tuple, filled on first query: (E, per cell the integers E <y', xi> at its
        vertices), from the grid's vertex rows."""
        return {}

    @cached_property
    def _cell_sums(self) -> dict:
        """Per xi tuple, (p, q, k) -> ``pl_cell_integrals``'s result for a = p/q (of G's values)."""
        return {}

    def _pairings(self, xi) -> tuple:
        key = rat_vector(xi)
        if key not in self._pairing_table:
            pairing_form(key, self.dim)  # InputError for a vector longer than the dimension
            c, rows = self._grid
            e, xs = _integer_row(key)
            self._pairing_table[key] = c * e, tuple(
                tuple(sum(map(mul, xs, p)) for p in pts) for pts in rows)
        return self._pairing_table[key]

    def min_value(self) -> Fraction:
        d, values = self._node_table[:2]
        return Fraction(min(map(min, values)), d)

    def max_value(self) -> Fraction:
        d, values = self._node_table[:2]
        return Fraction(max(map(max, values)), d)

    def rescaled(self, a, b) -> "PLConcaveFunction":
        """a*G + b for a > 0: the same cells, domain, grid, pairings and volumes.

        For a = p/q and b = r/s a value v / D becomes (p s v + r q D) / (q s D).
        """
        a, b = rat(a), rat(b)
        obj = PLConcaveFunction(self.domain, tuple((s, f.scaled(a).shifted(b))
                                                   for s, f in self.cells),
                                self.concavity_certified)
        d, values, _, volumes = self._node_table
        p, q, r, s = a.numerator, a.denominator, b.numerator, b.denominator
        obj.__dict__.update(_grid=self._grid, _pairing_table=self._pairing_table, _node_table=_nodes(
            d * q * s, tuple(tuple(p * s * v + r * q * d for v in vals) for vals in values), volumes))
        return obj

    def to_json(self) -> dict:
        return {
            "cells": [
                {
                    "simplex": [_format_row(v, s._den) for v in s._rows],
                    "affine": {
                        "gradient": _format_row(f._grad, f._den),
                        "constant": _format_over(f._const, f._den),
                    },
                }
                for s, f in self.cells
            ]
        }

    @classmethod
    def from_json(cls, doc: dict, domain: RationalPolytope | None = None) -> "PLConcaveFunction":
        # the dimension is the domain's, else the first cell's
        n = None if domain is None else domain.dim
        cells = []
        for cell in need(doc, "piecewise-function document", "cells", kind=list):
            vertices, affine = need(cell, "cell", "simplex", "affine")
            gradient, constant = need(affine, "cell affine form", "gradient", "constant")
            simplex = Simplex(*_over(exact_rows(vertices, "cell simplex", n)))
            n = simplex.dim
            cells.append((simplex, AffineForm.make(exact_vector(gradient, "cell gradient", n),
                                                   constant)))
        if not cells:
            raise InputError("piecewise function needs at least one cell")
        if domain is None:
            c, rows = _common_grid([s for s, _ in cells])
            domain = RationalPolytope._from_points(c, [v for pts in rows for v in pts])
        return cls.make(domain, cells, certify_concave=bool(doc.get("concave_certificate")))


def pl_exp_integral(G: PLConcaveFunction, shift: AffineForm | None = None) -> ExpIntegralResult:
    """int_domain e^{-(G(y) + shift(y))} dy, summed cell-wise.

    ``math.fsum`` rounds the sum of the cell integrals once, whatever their
    order, so the output is bit-identical however the cells were listed.  The
    sum is not scaled: NonFiniteResult when it leaves double range.
    """
    try:
        results = [simplex_exp_integral(s, f if shift is None else f.plus(shift))
                   for s, f in G.cells]
        total = math.fsum(r.value for r in results)
    except OverflowError:
        total = math.inf
    if total == math.inf:
        raise NonFiniteResult("the exponential integral is outside double range")
    if total != 0.0:
        err = sum(r.est_rel_error * abs(r.value) for r in results) / abs(total)
    else:
        err = max((r.est_rel_error for r in results), default=0.0)
    method = results[0].method if len(results) == 1 else "subdivision"
    return ExpIntegralResult(total, err, method)


def pl_cell_integrals(G: PLConcaveFunction, tilts, k: int) -> list:
    """int G^j e^{-(a G + <y', xi>)} dy, summed over the cells of G, for j = 0..k and each
    (xi, a) of ``tilts`` = [(xi, a_list), ...]: every a of the list given with its xi.

    A node is -(p E v + q D e) / (q D E) for a = p/q, with v D and e E the integer vertex
    value and pairing cached on G: one correctly rounded int/int division, so it equals the
    exact value rounded once.  Returns per (xi, a), in order, ``(top, (s_0, ..., s_k))``,
    s_j the ``math.fsum`` over the cells of their integrals relative to e^{top}, top that
    tilt's largest node, so the sums and their logarithms stay finite for any tilt, else
    NonFiniteResult.  Each result is memoized on G per (xi, a, k); the (xi, a) not yet
    there share one kernel call.  A kernel row does not depend on the other rows of its
    batch, so each result is the one its tilt gets alone.
    """
    if k < 0 or k > MAX_MOMENT_ORDER:
        raise UnsupportedOrder(f"moment order {k} not in 0..{MAX_MOMENT_ORDER}")
    d, values, floats, volumes = G._node_table
    wanted, todo, z, tops = [], {}, [], []
    for xi, a_list in tilts:
        xi = tuple(xi)  # hashable, and read twice
        memo, pairings = G._cell_sums.setdefault(xi, {}), None
        for a in map(_exact, a_list):
            key = a.numerator, a.denominator, k
            wanted.append((memo, key))
            if key in memo or (id(memo), key) in todo:
                continue
            todo[id(memo), key] = memo
            if pairings is None:
                e, pairings = G._pairings(xi)
            gv, ge, den = key[0] * e, key[1] * d, key[1] * d * e
            try:
                nodes = [[-((gv * v + ge * p) / den) for v, p in zip(vals, pairs)]
                         for vals, pairs in zip(values, pairings)]
            except OverflowError:
                raise NonFiniteResult("a tilted node is outside double range") from None
            z += nodes
            tops += [max(map(max, nodes))] * len(nodes)
    c = len(volumes)
    rows = _exp_integrals(z, volumes * len(todo), floats * len(todo) if k else None, k, tops)
    for ((_, key), memo), i in zip(todo.items(), range(0, len(rows), c)):
        try:  # fsum raises on an intermediate overflow and on inf - inf
            sums = tuple([math.fsum(row[0][j] for row in rows[i:i + c]) for j in range(k + 1)])
        except (OverflowError, ValueError):
            sums = (math.inf,)
        if not all(map(math.isfinite, sums)):
            raise NonFiniteResult(f"a cell sum of moment order {k} is outside double range")
        memo[key] = tops[i], sums
    return [memo[key] for memo, key in wanted]


def superlevel_log_gvolume(G: PLConcaveFunction, x, xi) -> tuple[float, float]:
    """(top, v) with v e^{top} = n! * int_{G >= x} e^{-<y', xi>} dy.

    Each cell is sliced at the level; the pieces share one kernel call,
    relative to top, their largest node, so v stays in double range for any
    weight.  v = 0 when the superlevel set has no volume.
    """
    x = rat(x)
    n = G.dim
    ell = pairing_form(xi, n)
    pieces = [piece for s, f in G.cells for piece in halfspace_slice(s, f, x)]
    if not pieces:
        return 0.0, 0.0
    z = [[-v for v in _vertex_values(piece, ell)] for piece in pieces]
    top = max(max(zi) for zi in z)
    rows = _exp_integrals(z, [_factorial_volume(p) for p in pieces], None, 0, [top] * len(z))
    return top, math.factorial(n) * math.fsum(values[0] for values, _, _ in rows)


def superlevel_gvolume(G: PLConcaveFunction, x, xi=None) -> float:
    """n! * int_{G >= x} e^{-<y', xi>} dy (the weighted volume of a superlevel set).

    Unweighted, this is the exact spline value, rounded once; weighted, the
    sliced sum, with NonFiniteResult when it leaves double range.
    """
    x = rat(x)
    if xi is None or not any(rat_vector(xi)):
        return float(G._survival_spline(x))
    top, v = superlevel_log_gvolume(G, x, xi)
    return exp_scaled(top, v) if v else 0.0
