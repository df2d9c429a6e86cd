"""Reference computations made apart from fanokit.

Every job output is checked against one of these: collapsed Gauss-Legendre
quadrature over simplices (no divided differences), scalar bisection, exact
piecewise formulas, or closed forms.  Nothing here imports fanokit.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

QUAD_NODES = 20


@lru_cache(maxsize=None)
def _simplex_rule(n: int, q: int):
    """Conical-product Gauss rule on the reference n-simplex.

    Returns barycentric coordinates B (points x (n+1)) and weights summing to
    1/n!.  An affine function with vertex values v takes the values B @ v.
    """
    x, w = np.polynomial.legendre.leggauss(q)
    u, wu = 0.5 * (x + 1.0), 0.5 * w
    grids = np.meshgrid(*([u] * n), indexing="ij")
    wgrids = np.meshgrid(*([wu] * n), indexing="ij")
    us = [g.ravel() for g in grids]
    weight = np.ones_like(us[0])
    for i in range(n):
        weight = weight * wgrids[i].ravel() * us[i] ** (n - 1 - i)
    # y = V0 + sum_i (u_1...u_i) (V_i - V_{i-1}): barycentric c_i = p_i - p_{i+1}
    prods = [np.ones_like(us[0])]
    for i in range(n):
        prods.append(prods[-1] * us[i])
    prods.append(np.zeros_like(us[0]))
    bary = np.stack([prods[i] - prods[i + 1] for i in range(n + 1)], axis=1)
    return bary, weight


def det(rows) -> Fraction:
    a = [list(r) for r in rows]
    n = len(a)
    out = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            out = -out
        out *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return out


class Cells:
    """Simplices with affine pieces, prepared for quadrature.

    ``cells`` holds (vertices, gradient, constant) with Fraction entries.
    ``integrate(fn)`` returns sum over cells of int fn(G, y) dy where G and
    the coordinates y are given at the quadrature points.
    """

    def __init__(self, cells, q: int = QUAD_NODES):
        self.n = len(cells[0][0][0])
        bary, weight = _simplex_rule(self.n, q)
        self.G, self.Y, self.W = [], [], []
        for verts, grad, const in cells:
            verts = [tuple(Fraction(x) for x in v) for v in verts]
            V = np.array([[float(x) for x in v] for v in verts])
            g = np.array([float(sum(a * x for a, x in zip(grad, v)) + const) for v in verts])
            vol = abs(det([[x - y for x, y in zip(v, verts[0])] for v in verts[1:]]))
            self.G.append(bary @ g)
            self.Y.append(bary @ V)
            self.W.append(weight * float(vol))
        self.G = np.concatenate(self.G)
        self.Y = np.concatenate(self.Y)
        self.W = np.concatenate(self.W)

    def integrate(self, fn) -> float:
        return float(self.W @ fn(self.G, self.Y))


class Pushforward:
    """The measure G_*(e^{-<y', xi>} dy) on the line, queried by quadrature."""

    def __init__(self, cells: Cells, xi=()):
        self.cells = cells
        xi = np.array([float(x) for x in xi] + [0.0] * (cells.n - len(xi)))
        self.base = cells.Y @ xi  # <y, xi> at the quadrature points

    def integral(self, fn) -> float:
        """int fn(x) e^{-<y', xi>} dy with x = G(y), shifted for range safety."""
        shift = float(self.base.min())
        return self.cells.integrate(lambda G, Y: fn(G) * np.exp(-(self.base - shift)))

    def mean_of(self, fn) -> float:
        return self.integral(fn) / self.integral(np.ones_like)

    def mass(self) -> float:
        shift = float(self.base.min())
        return math.factorial(self.cells.n) * self.integral(np.ones_like) * math.exp(-shift)

    def log_exp_moment(self, a: float) -> float:
        """log (1/mass) int e^{-a x} dmu."""
        top = float((a * self.cells.G).min())
        return math.log(self.mean_of(lambda x: np.exp(-(a * x - top)))) - top

    def tilted_mean(self, a: float) -> float:
        top = float((a * self.cells.G).min())
        num = self.integral(lambda x: x * np.exp(-(a * x - top)))
        return num / self.integral(lambda x: np.exp(-(a * x - top)))


class Atoms:
    """A finite measure sum m_i delta_{x_i} on the line."""

    def __init__(self, atoms):
        self.x = [float(p) for p, _ in atoms]
        self.m = [float(m) for _, m in atoms]

    def log_exp_moment(self, a: float) -> float:
        top = min(a * x for x in self.x)
        s = math.fsum(m * math.exp(-(a * x - top)) for x, m in zip(self.x, self.m))
        return math.log(s / math.fsum(self.m)) - top

    def tilted_mean(self, a: float) -> float:
        top = min(a * x for x in self.x)
        e = [m * math.exp(-(a * x - top)) for x, m in zip(self.x, self.m)]
        return math.fsum(x * w for x, w in zip(self.x, e)) / math.fsum(e)


def bisect(fn, lo: float, hi: float, iters: int = 200) -> float:
    """Root of a function that changes sign once on [lo, hi]."""
    flo = fn(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        fm = fn(mid)
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def rescale_root(measure, A: float) -> float:
    """a > 0 with tilted_mean(a) = A; the tilted mean decreases in a."""
    hi = 1.0
    while measure.tilted_mean(hi) > A:
        hi *= 2.0
    return bisect(lambda a: measure.tilted_mean(a) - A, 0.0, hi)


def _interval_shape(t: float) -> float:
    """Mean of e^{-t s} ds on [0, 1]: 1/t - 1/(e^t - 1)."""
    if abs(t) < 1e-3:
        return 0.5 - t / 12.0 + t**3 / 720.0
    if t > 700.0:
        return 1.0 / t
    return 1.0 / t - 1.0 / math.expm1(t)


def interval_soliton(lo: Fraction, hi: Fraction) -> float:
    """xi with int_lo^hi y e^{-xi y} dy = 0, by bisection on the tilted mean."""
    lo_f, width = float(lo), float(hi - lo)

    def mean(xi):
        return lo_f + width * _interval_shape(xi * width)

    bound = 1.0
    while mean(bound) > 0 or mean(-bound) < 0:
        bound *= 2.0
    return bisect(mean, -bound, bound)


def interval_log_mean_exp(lo: Fraction, hi: Fraction, xi: float) -> float:
    """log of (1/(hi-lo)) int_lo^hi e^{-xi y} dy."""
    lo_f, width = float(lo), float(hi - lo)
    t = xi * width
    if abs(t) < 1e-8:
        return -xi * lo_f - t / 2.0
    if t > 0:
        return -xi * lo_f + math.log(-math.expm1(-t) / t)
    return -xi * float(hi) + math.log(math.expm1(t) / t)


def triangle_cdf_pieces(cells):
    """Per triangle (weight, a, b, c): G is distributed on [a, c] with mode b."""
    out = []
    for verts, grad, const in cells:
        vals = sorted(sum(g * x for g, x in zip(grad, v)) + const for v in verts)
        area = abs(det([[x - y for x, y in zip(v, verts[0])] for v in verts[1:]]))
        out.append((area, *vals))
    total = sum(p[0] for p in out)
    return [(w / total, a, b, c) for w, a, b, c in out]


def _triangle_cdf_poly(a, b, c, lo, hi):
    """Coefficients (p0, p1, p2) of the CDF on [lo, hi] within one of its pieces."""
    if hi <= a:
        return (Fraction(0),) * 3
    if lo >= c:
        return (Fraction(1), Fraction(0), Fraction(0))
    if hi <= b:  # (t - a)^2 / ((c - a)(b - a))
        d = (c - a) * (b - a)
        return (a * a / d, -2 * a / d, 1 / d)
    d = (c - a) * (c - b)  # 1 - (c - t)^2 / ((c - a)(c - b))
    return (1 - c * c / d, 2 * c / d, -1 / d)


def w1_atoms_vs_triangles(atoms, cells) -> float:
    """Exact W1 between normalized atoms and a 2-D pushforward with xi = 0.

    The pushforward CDF is a mixture of triangular-distribution CDFs, so on
    each interval between breakpoints the CDF difference is a quadratic with
    rational coefficients; |difference| is integrated in closed form.
    """
    pieces = triangle_cdf_pieces(cells)
    total = sum(m for _, m in atoms)
    breaks = sorted({p for p, _ in atoms} | {v for _, a, b, c in pieces for v in (a, b, c)})
    result = 0.0
    for lo, hi in zip(breaks, breaks[1:]):
        step = sum(m for p, m in atoms if p <= lo) / total
        coeff = [step, Fraction(0), Fraction(0)]
        for w, a, b, c in pieces:
            for k, x in enumerate(_triangle_cdf_poly(a, b, c, lo, hi)):
                coeff[k] -= w * x
        result += _abs_quadratic_integral([float(x) for x in coeff], float(lo), float(hi))
    return result


def _abs_quadratic_integral(coeff, lo, hi) -> float:
    p0, p1, p2 = coeff

    def antider(t):
        return p0 * t + p1 * t * t / 2.0 + p2 * t**3 / 3.0

    cuts = [lo, hi]
    if p2 != 0.0:
        disc = p1 * p1 - 4.0 * p2 * p0
        if disc > 0:
            r = math.sqrt(disc)
            cuts += [(-p1 - r) / (2 * p2), (-p1 + r) / (2 * p2)]
    elif p1 != 0.0:
        cuts.append(-p0 / p1)
    cuts = sorted(t for t in cuts if lo <= t <= hi)
    return sum(abs(antider(b) - antider(a)) for a, b in zip(cuts, cuts[1:]))


def p1_w1(m: int) -> Fraction:
    """W1 between m+1 equal atoms at -i/m and the uniform law on [-1, 0]."""
    return Fraction(2 * m + 1, 6 * m * (m + 1))


def p1_q_m(m: int) -> float:
    """(1/(m+1)) sum_{i=0}^m e^{i/m}, as a geometric sum."""
    return math.expm1((m + 1) / m) / ((m + 1) * math.expm1(1.0 / m))


def uniform_report(lo: int, hi: int) -> dict:
    """E_k and S_tilde of the Lebesgue measure on [lo, hi], hi - lo = 1 or large."""
    width = hi - lo
    E_k = {k: (Fraction(hi) ** (k + 1) - Fraction(lo) ** (k + 1)) / ((k + 1) * width)
           for k in (1, 2, 3, 4)}
    # S_tilde = -log((1/width) int e^{-x}) = lo - log((1 - e^{-width}) / width)
    S = lo - math.log(-math.expm1(-width) / width)
    return {"V": float(width), "E_k": {k: float(v) for k, v in E_k.items()}, "S_tilde": S}


def log_sum_exp(values) -> float:
    top = max(values)
    return top + math.log(math.fsum(math.exp(v - top) for v in values))
