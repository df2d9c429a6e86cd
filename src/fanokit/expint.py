"""Exponential-of-affine integrals over simplices and piecewise-linear transforms.

This is the computational layer behind every entropy/energy functional in the
package: values of int w(y)^k e^{-l(y)} dy over exact rational simplices, and
their sums over the cells of a piecewise-linear concave transform.

Geometry stays rational until the last moment: vertex values of the affine
forms are evaluated in Q and rounded once to double before entering the
divided-difference kernel.  Cell sums use a deterministic double-double tree
reduction over the canonical cell order, so results do not depend on the order
in which cells were given, and ``pl_cell_integrals`` returns them relative to
one log offset, so they stay in double range for any tilt.

Superlevel volumes come two ways.  Unweighted (xi = 0), t -> n! vol{G >= t}
is an exact spline of degree n whose knots are the cell vertex values
(``SurvivalSpline``, built once per transform on first query).  Weighted, each
cell is sliced at the level and the pieces are summed relative to one log
offset (``superlevel_log_gvolume``).
"""

from __future__ import annotations

import bisect
import math
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from ._kernel import compensated_tree_sum, dd_exp_batch, dd_exp_series
from .errors import InputError, NonFiniteResult, UnsupportedOrder
from .geometry import (
    AffineForm,
    RationalPolytope,
    Simplex,
    halfspace_slice,
    pairing_form,
)
from .rational import format_rat, rat, rat_vector

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
    return float(abs(s.edge_determinant()))


def _vertex_values(s: Simplex, form: AffineForm) -> list[float]:
    return [float(form(v)) for v in s.vertices]


def _exp_integrals(z, volumes, b, k: int, top: float) -> list[ExpIntegralResult]:
    """int_s w^k e^{-l} / e^{top} = k! * n!vol(s) * D_k / e^{top} for each simplex s.

    ``z[i]`` holds the negated vertex values of l on simplex i (all rows of
    one length), ``volumes[i]`` its n! vol and, for k > 0, ``b[i]`` the
    vertex values of w.  For k = 0 a row whose spread is below
    ``CLUSTER_SPREAD`` takes the series; the other rows share one
    ``dd_exp_batch`` call.  Each row's kernel value comes with its own log
    offset and is scaled by e^{offset - top} before it is multiplied by its
    volume, so with ``top`` at least every offset no row leaves double range.
    """
    out: list = [None] * len(z)
    batch = []
    for i, zi in enumerate(z):
        if k == 0 and max(zi) - min(zi) < CLUSTER_SPREAD:
            dd, offset, err = dd_exp_series(zi)
            out[i] = ExpIntegralResult(volumes[i] * (dd * math.exp(offset - top)), err,
                                       "series_fallback")
            continue
        batch.append(i)
    if not batch:
        return out
    n1 = len(z[batch[0]])
    rows, offset, errs = dd_exp_batch([z[i] for i in batch],
                                      [b[i] for i in batch] if k else None, k)
    for r, i in enumerate(batch):
        scale = math.exp(offset[r] - top)
        corner_k = float(rows[r, k * n1 + n1 - 1]) * scale
        if k == 0:
            out[i] = ExpIntegralResult(volumes[i] * corner_k, float(errs[r]), "divided_difference")
            continue
        value = volumes[i] * math.factorial(k) * corner_k
        # error relative to the cancellation-free magnitude bound |w|_max^k * I_0
        corner_0 = float(rows[r, n1 - 1]) * scale
        bound = (max(abs(x) for x in b[i]) ** k) * abs(corner_0) * volumes[i]
        abs_err = float(errs[r]) * max(bound, abs(value))
        rel = abs_err / abs(value) if value != 0.0 else abs_err
        out[i] = ExpIntegralResult(value, rel, "divided_difference")
    return out


def simplex_exp_integral(s: Simplex, l: AffineForm) -> ExpIntegralResult:
    """int_s e^{-l(y)} dy = n! vol(s) * (divided difference of exp at -l(vertices))."""
    z = [-v for v in _vertex_values(s, l)]
    return _exp_integrals([z], [_factorial_volume(s)], None, 0, 0.0)[0]


def simplex_weighted_exp_integral(s: Simplex, l: AffineForm, w: AffineForm, k: int) -> ExpIntegralResult:
    """int_s w(y)^k e^{-l(y)} dy for k <= 4.

    Realized as the k-th derivative of the divided-difference representation
    along the deformation l -> l - t*w, so the clustering safeguards of the
    plain kernel carry over.
    """
    if k < 0 or k > MAX_MOMENT_ORDER:
        raise UnsupportedOrder(f"moment order {k} not in 0..{MAX_MOMENT_ORDER}")
    z = [-v for v in _vertex_values(s, l)]
    b = [_vertex_values(s, w)] if k else None
    return _exp_integrals([z], [_factorial_volume(s)], b, k, 0.0)[0]


def _superlevel_share(values, level: Fraction) -> Fraction:
    """Exact share of a simplex on which an affine h with these vertex values is >= level.

    For y uniform on the simplex, P(h(y) >= t) = [a_0, ..., a_n] (x - t)_+^n,
    the divided difference over the vertex values a_i (the B-spline identity
    of Curry & Schoenberg 1966).  A run of j + 1 tied values takes the
    confluent entry C(n, j) (a - t)_+^(n-j); a constant h never reaches the
    table, so j < n there.
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


def _share_piece(values, lo: Fraction, hi: Fraction, origin: Fraction) -> list:
    """P(h >= t) on (lo, hi), between consecutive vertex values, as a polynomial in t - origin.

    The share is a polynomial of degree <= n there, so ``_superlevel_share``
    at n + 1 points strictly inside fixes it (Newton interpolation); inner
    points keep tied values and the endpoints' jumps out of the way.
    """
    n1 = len(values)
    nodes = [lo + (hi - lo) * (k + 1) / (n1 + 1) - origin for k in range(n1)]
    dd = [_superlevel_share(values, x + origin) for x in nodes]
    for j in range(1, n1):
        for i in range(n1 - 1, j - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (nodes[i] - nodes[i - j])
    poly = [dd[-1]]
    for k in range(n1 - 2, -1, -1):  # poly * (t - nodes[k]) + dd[k]
        x = nodes[k]
        poly = [dd[k] - x * poly[0], *(a - x * b for a, b in zip(poly, poly[1:])), poly[-1]]
    return poly


def _survival_spline(cell_table, n: int) -> SurvivalSpline:
    """Sum of the cells' n!vol * P_s(G >= t), one sweep over the knots.

    Each cell contributes its n!vol below its smallest vertex value, a
    polynomial between consecutive vertex values and 0 above; a flat cell
    contributes an atom.  The changes at each knot, in t - t_0, are summed
    in one running polynomial, which is re-centred at every knot.
    """
    knots = sorted({v for values, _ in cell_table for v in values})
    origin = knots[0]
    zero = [Fraction(0)] * (n + 1)
    delta = defaultdict(lambda: list(zero))
    jumps = defaultdict(Fraction)
    running = list(zero)
    for values, det in cell_table:
        cuts = sorted(set(values))
        running[0] += det
        if len(cuts) == 1:
            jumps[cuts[0]] += det
            continue
        prev = [det] + zero[1:]
        for lo, hi in zip(cuts, cuts[1:]):
            piece = [det * c for c in _share_piece(values, lo, hi, origin)]
            delta[lo] = [d + a - b for d, a, b in zip(delta[lo], piece, prev)]
            prev = piece
        delta[cuts[-1]] = [d - b for d, b in zip(delta[cuts[-1]], prev)]
    coeffs = []
    for t in knots:
        running = [r + d for r, d in zip(running, delta[t])]
        running[0] -= jumps[t]
        coeffs.append(tuple(_taylor_shift(running, t - origin)))
    return SurvivalSpline(tuple(knots), tuple(coeffs), tuple(jumps[t] for t in knots),
                          sum((det for _, det in cell_table), Fraction(0)))


@dataclass(frozen=True)
class PLConcaveFunction:
    """Piecewise-affine function given by affine pieces over a triangulated domain."""

    domain: RationalPolytope
    cells: tuple[tuple[Simplex, AffineForm], ...]
    concavity_certified: bool = False

    @classmethod
    def make(cls, domain: RationalPolytope, cells, certify_concave: bool = False) -> "PLConcaveFunction":
        ordered = tuple(sorted(((s, f) for s, f in cells), key=lambda c: c[0].vertices))
        obj = cls(domain, ordered, certify_concave)
        obj._validate()
        return obj

    @classmethod
    def constant(cls, domain: RationalPolytope, value=0) -> "PLConcaveFunction":
        form = AffineForm(tuple(Fraction(0) for _ in range(domain.dim)), rat(value))
        return cls.make(domain, [(s, form) for s in domain.triangulate()])

    @classmethod
    def linear(cls, domain: RationalPolytope, gradient, constant=0) -> "PLConcaveFunction":
        form = AffineForm.make(gradient, constant)
        return cls.make(domain, [(s, form) for s in domain.triangulate()])

    def _validate(self):
        if not self.cells:
            raise InputError("piecewise function needs at least one cell")
        total = sum((s.volume() for s, _ in self.cells), Fraction(0))
        if total != self.domain.volume():
            raise InputError("cells do not triangulate the domain (volume mismatch)")
        for s, _ in self.cells:
            for v in s.vertices:
                if not self.domain.contains(v):
                    raise InputError("cell vertex outside the domain")
        values = {}
        for s, f in self.cells:
            for v in s.vertices:
                val = f(v)
                if values.setdefault(v, val) != val:
                    raise InputError(f"adjacent pieces disagree at shared vertex {v}")
        if self.concavity_certified:
            for s, f in self.cells:
                for v in s.vertices:
                    for _, g in self.cells:
                        if g(v) < f(v):
                            raise InputError(
                                "concavity certificate fails: piece exceeds the minimum"
                            )

    @property
    def dim(self) -> int:
        return self.domain.dim

    @cached_property
    def _cell_table(self) -> tuple:
        """Per cell, in canonical order: exact vertex values and exact n! vol."""
        return tuple((tuple(f(v) for v in s.vertices), abs(s.edge_determinant()))
                     for s, f in self.cells)

    @cached_property
    def _survival_spline(self) -> SurvivalSpline:
        """t -> n! vol{G >= t} as an exact spline, built on first query."""
        return _survival_spline(self._cell_table, self.dim)

    @cached_property
    def _pairing_table(self) -> dict:
        """Per xi tuple, filled on first query: the exact <y', xi> at every
        cell vertex, in canonical cell order."""
        return {}

    def _pairings(self, xi) -> tuple:
        key = rat_vector(xi)
        table = self._pairing_table.get(key)
        if table is None:
            ell = pairing_form(key, self.dim)
            table = tuple(tuple(ell(p) for p in s.vertices) for s, _ in self.cells)
            self._pairing_table[key] = table
        return table

    def vertex_values(self) -> dict:
        out = {}
        for s, f in self.cells:
            for v in s.vertices:
                out[v] = f(v)
        return out

    def min_value(self) -> Fraction:
        return min(self.vertex_values().values())

    def max_value(self) -> Fraction:
        return max(self.vertex_values().values())

    def rescaled(self, a, b) -> "PLConcaveFunction":
        """a*G + b for a > 0 (cells unchanged)."""
        a = rat(a)
        cells = [(s, f.scaled(a).shifted(b)) for s, f in self.cells]
        return PLConcaveFunction(self.domain, tuple(cells), self.concavity_certified)

    def to_json(self) -> dict:
        return {
            "cells": [
                {
                    "simplex": [[format_rat(x) for x in v] for v in s.vertices],
                    "affine": {
                        "gradient": [format_rat(x) for x in f.gradient],
                        "constant": format_rat(f.constant),
                    },
                }
                for s, f in self.cells
            ]
        }

    @classmethod
    def from_json(cls, doc: dict, domain: RationalPolytope | None = None) -> "PLConcaveFunction":
        if not isinstance(doc, dict) or not isinstance(doc.get("cells"), list):
            raise InputError("piecewise-function document needs a 'cells' list")
        cells = []
        for cell in doc["cells"]:
            aff = cell.get("affine") if isinstance(cell, dict) else None
            if (not isinstance(aff, dict) or "simplex" not in cell
                    or not {"gradient", "constant"} <= aff.keys()):
                raise InputError(f"cell {cell!r} needs 'simplex' and 'affine' fields")
            simplex = Simplex.make(cell["simplex"])
            cells.append((simplex, AffineForm(rat_vector(aff["gradient"]), rat(aff["constant"]))))
        if domain is None:
            domain = RationalPolytope.from_vertices(
                [v for s, _ in cells for v in s.vertices]
            )
        return cls.make(domain, cells, certify_concave=bool(doc.get("concave_certificate")))


def pl_exp_integral(G: PLConcaveFunction, shift: AffineForm | None = None) -> ExpIntegralResult:
    """int_domain e^{-(G(y) + shift(y))} dy, summed cell-wise.

    The reduction is a fixed-order double-double tree over the canonical cell
    ordering, so the output is bit-identical however the cells were listed.
    """
    results = [simplex_exp_integral(s, f if shift is None else f.plus(shift))
               for s, f in G.cells]
    total = compensated_tree_sum([r.value for r in results])
    if total != 0.0:
        err = sum(r.est_rel_error * abs(r.value) for r in results) / abs(total)
    else:
        err = max((r.est_rel_error for r in results), default=0.0)
    method = results[0].method if len(results) == 1 else "subdivision"
    return ExpIntegralResult(total, err, method)


def pl_cell_integrals(G: PLConcaveFunction, a, xi, k: int) -> tuple[float, list[float]]:
    """int_s G^k e^{-(a G + <y', xi>)} dy for each cell s of G, in canonical order.

    The nodes come from the exact vertex values and pairings cached on G,
    rounded once; all cells share one kernel call.  Returns ``(top, leaves)``
    with each cell's integral equal to leaf * e^{top}, top the largest node,
    so sums of the leaves and their logarithms stay finite for any tilt.
    """
    if k < 0 or k > MAX_MOMENT_ORDER:
        raise UnsupportedOrder(f"moment order {k} not in 0..{MAX_MOMENT_ORDER}")
    a = rat(a)
    if any(xi):
        z = [[-float(a * v + e) for v, e in zip(vals, pairs)]
             for (vals, _), pairs in zip(G._cell_table, G._pairings(xi))]
    else:
        z = [[-float(a * v) for v in vals] for vals, _ in G._cell_table]
    volumes = [float(det) for _, det in G._cell_table]
    b = [[float(v) for v in vals] for vals, _ in G._cell_table] if k else None
    top = max(max(zi) for zi in z)
    return top, [r.value for r in _exp_integrals(z, volumes, b, k, top)]


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
    z = [[-float(ell(v)) for v in piece.vertices] for piece in pieces]
    top = max(max(zi) for zi in z)
    leaves = _exp_integrals(z, [_factorial_volume(piece) for piece in pieces], None, 0, top)
    return top, math.factorial(n) * compensated_tree_sum([r.value for r in leaves])


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
