"""Independent oracles used across the test suite.

These deliberately avoid the code paths they check: polytope volumes come
from a boundary (divergence-theorem) recursion rather than triangulation,
exponential integrals from adaptive tensor Gauss-Legendre quadrature with
simplex bisection rather than divided differences.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from fanokit.rational import det


def dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v, strict=True)), Fraction(0))


def vsub(u, v) -> tuple:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def primitive(vec_and_offset) -> tuple:
    """Scale a rational tuple by a positive scalar to a primitive integer tuple."""
    scale = lcm(*(Fraction(x).denominator for x in vec_and_offset))
    ints = [int(x * scale) for x in vec_and_offset]
    g = gcd(*ints) or 1  # the zero vector stays zero
    return tuple(Fraction(x // g) for x in ints)


# ---------------------------------------------------------------------------
# exact boundary-recursion volume (independent of triangulation)


def _facet_hyperplanes(points):
    n = len(points[0])
    if n == 1:
        lo = min(p[0] for p in points)
        hi = max(p[0] for p in points)
        return [((Fraction(1),), hi), ((Fraction(-1),), -lo)]
    seen = set()
    out = []
    for subset in itertools.combinations(points, n):
        base = subset[0]
        edges = [list(vsub(p, base)) for p in subset[1:]]
        normal = []
        for k in range(n):
            minor = [[row[c] for c in range(n) if c != k] for row in edges]
            normal.append(det(minor) if k % 2 == 0 else -det(minor))
        normal = tuple(normal)
        if all(x == 0 for x in normal):
            continue
        offset = dot(normal, base)
        sides = [dot(normal, p) - offset for p in points]
        if any(s > 0 for s in sides) and any(s < 0 for s in sides):
            continue
        if any(s > 0 for s in sides):
            normal = tuple(-x for x in normal)
            offset = -offset
        key = primitive(normal + (offset,))
        if key in seen:
            continue
        seen.add(key)
        out.append((key[:-1], key[-1]))
    return out


def hull_volume_boundary(points) -> Fraction:
    """Exact volume of conv(points) via vol = (1/n) * sum_i b_i * vol(proj facet_i) / |a_ik|."""
    points = [tuple(Fraction(x) for x in p) for p in points]
    n = len(points[0])
    if n == 1:
        return max(p[0] for p in points) - min(p[0] for p in points)
    total = Fraction(0)
    for normal, offset in _facet_hyperplanes(points):
        incident = [p for p in points if dot(normal, p) == offset]
        k = next(i for i, x in enumerate(normal) if x != 0)
        projected = [p[:k] + p[k + 1 :] for p in incident]
        total += offset * hull_volume_boundary(projected) / abs(normal[k])
    return total / n


# ---------------------------------------------------------------------------
# adaptive quadrature for integrals of w(y)^k e^{-l(y)} over simplices


def _leggauss(order):
    return np.polynomial.legendre.leggauss(order)


def _simplex_nodes(verts: np.ndarray, order: int):
    """Duffy-transform tensor Gauss-Legendre nodes/weights on a simplex."""
    n = verts.shape[0] - 1
    x, w = _leggauss(order)
    u = 0.5 * (x + 1.0)
    uw = 0.5 * w
    grids = np.meshgrid(*([u] * n), indexing="ij")
    wgrids = np.meshgrid(*([uw] * n), indexing="ij")
    us = [g.ravel() for g in grids]
    weight = np.ones_like(us[0])
    for g in wgrids:
        weight = weight * g.ravel()
    # barycentric coordinates t_i and the Duffy jacobian
    t = []
    remaining = np.ones_like(us[0])
    for i in range(n):
        t_i = us[i] * remaining
        jacobian_factor = remaining
        remaining = remaining - t_i
        t.append(t_i)
        weight = weight * jacobian_factor
    t0 = remaining
    coords = np.outer(t0, verts[0])
    for i in range(n):
        coords += np.outer(t[i], verts[i + 1])
    # weight currently integrates over the parameter simplex; the geometric
    # jacobian is n! vol(s) ... / ... = |det(edges)|
    edge = verts[1:] - verts[0]
    jac = abs(np.linalg.det(edge))
    return coords, weight * jac


def _quad_once(verts, lgrad, lconst, order, wgrad=None, wconst=0.0, k=0):
    coords, weight = _simplex_nodes(np.asarray(verts, dtype=float), order)
    ell = coords @ np.asarray(lgrad, dtype=float) + lconst
    vals = np.exp(-ell)
    if k:
        wv = coords @ np.asarray(wgrad, dtype=float) + wconst
        vals = vals * wv**k
    return float(np.dot(weight, vals))


def _bisect_by_range(verts, lgrad, lconst, cap=6.0, drop_above=60.0):
    """Split simplices along their widest l-edge until the l-range is <= cap.

    Pieces whose minimum exponent exceeds the global minimum by ``drop_above``
    contribute below e^-60 of the total and are discarded: the integrand is a
    positive exponential, so this cannot disturb the 1e-12 oracle target.
    """
    g = np.asarray(lgrad, dtype=float)
    v0 = np.asarray(verts, dtype=float)
    global_min = float((v0 @ g + lconst).min())
    stack = [v0]
    out = []
    while stack:
        v = stack.pop()
        vals = v @ g + lconst
        if vals.min() > global_min + drop_above:
            continue
        if vals.max() - vals.min() <= cap:
            out.append(v)
            continue
        pairs = [(abs(vals[i] - vals[j]), i, j) for i in range(len(v)) for j in range(i)]
        _, i, j = max(pairs)
        mid = 0.5 * (v[i] + v[j])
        a = v.copy()
        a[i] = mid
        b = v.copy()
        b[j] = mid
        stack.extend([a, b])
    return out


def quad_exp_integral(verts, lgrad, lconst, wgrad=None, wconst=0.0, k=0) -> float:
    """Adaptive oracle for int_s w^k e^{-l}; escalates order until stable."""
    pieces = _bisect_by_range(verts, lgrad, lconst)
    prev = None
    for order in (16, 24, 32, 40):
        val = sum(_quad_once(p, lgrad, lconst, order, wgrad, wconst, k) for p in pieces)
        if prev is not None:
            scale = max(abs(val), 1e-300)
            if abs(val - prev) <= 1e-12 * scale:
                return val
        prev = val
    return prev


# ---------------------------------------------------------------------------
# exact 1-D reduction oracle for int_s e^{-l} (fast for very spread-out l)
#
# Between consecutive vertex values of l the slab volume V(u) = vol{l <= u}
# is a polynomial of degree <= n; its pieces are interpolated exactly from
# slab volumes computed with the independent boundary-recursion formula, and
# int A(u) e^{-u} du with A = V' is evaluated in closed form at 50 digits.


def _slab_volume(verts, grad, const, u) -> Fraction:
    """Exact volume of {y in s : l(y) <= u} via the boundary-recursion oracle."""
    vals = [dot(grad, v) + const for v in verts]
    below = [v for v, x in zip(verts, vals) if x <= u]
    points = set(below)
    for i in range(len(verts)):
        for j in range(i):
            a, b = vals[i], vals[j]
            if (a > u > b) or (b > u > a):
                t = (a - u) / (a - b)
                points.add(tuple(
                    x + t * (y - x) for x, y in zip(verts[i], verts[j])
                ))
    return hull_volume_boundary(sorted(points))


def _newton_poly_coeffs(nodes, values):
    """Exact monomial coefficients of the interpolating polynomial."""
    k = len(nodes)
    table = list(values)
    coeffs_dd = [table[0]]
    for level in range(1, k):
        table = [
            (table[i + 1] - table[i]) / (nodes[i + level] - nodes[i])
            for i in range(k - level)
        ]
        coeffs_dd.append(table[0])
    # expand the Newton form into monomials
    poly = [Fraction(0)] * k
    basis = [Fraction(1)] + [Fraction(0)] * (k - 1)  # running product (u-x0)...(u-x_{i-1})
    for i, c in enumerate(coeffs_dd):
        for j in range(k):
            poly[j] += c * basis[j]
        if i + 1 < k:
            shifted = [Fraction(0)] * k
            for j in range(k - 1):
                shifted[j + 1] += basis[j]
                shifted[j] -= nodes[i] * basis[j]
            basis = shifted
    return poly


def sliced_exp_integral(vertices, grad, const) -> float:
    """int_s e^{-l(y)} dy by exact slab-volume reduction (rational inputs)."""
    from mpmath import exp as mpexp, mp, mpf

    verts = [tuple(Fraction(x) for x in v) for v in vertices]
    grad = [Fraction(x) for x in grad]
    const = Fraction(const)
    n = len(verts) - 1
    vals = sorted({dot(grad, v) + const for v in verts})
    if len(vals) == 1:
        vol = hull_volume_boundary(verts)
        return float(mpf(float(vol)) * mpexp(-mpf(str(float(vals[0])))))
    old_dps = mp.dps
    mp.dps = 50
    try:
        total = mpf(0)
        for a, b in zip(vals, vals[1:]):
            length = b - a
            nodes = [a + length * Fraction(2 * i + 1, 2 * (n + 1)) for i in range(n + 1)]
            volumes = [_slab_volume(verts, grad, const, u) for u in nodes]
            # work in the shifted variable t = u - a for conditioning
            poly = _newton_poly_coeffs([u - a for u in nodes], volumes)
            deriv = [(j + 1) * poly[j + 1] for j in range(n)]
            # H_j = int_0^L t^j e^{-t} dt by the stable upward recurrence
            L = mpf(Fraction(length).numerator) / mpf(Fraction(length).denominator)
            eL = mpexp(-L)
            H = [1 - eL]
            for j in range(1, n):
                H.append(-(L**j) * eL + j * H[j - 1])
            ea = mpexp(-(mpf(a.numerator) / mpf(a.denominator)))
            piece = mpf(0)
            for j, c in enumerate(deriv):
                piece += (mpf(c.numerator) / mpf(c.denominator)) * H[j]
            total += ea * piece
        return float(total)
    finally:
        mp.dps = old_dps


def exp_integral_oracle(simplex, form) -> float:
    """Route to the right oracle by node spread; both are DD-free."""
    verts = simplex.vertices
    vals = [float(form(v)) for v in verts]
    spread = max(vals) - min(vals)
    if spread > 8.0:
        return sliced_exp_integral(verts, form.gradient, form.constant)
    return quad_exp_integral(
        [[float(x) for x in v] for v in verts],
        [float(g) for g in form.gradient], float(form.constant))


# ---------------------------------------------------------------------------
# generic numeric helpers


def bisect_root(f, lo, hi, tol=1e-12, max_iter=200):
    flo, fhi = f(lo), f(hi)
    assert flo * fhi <= 0, "root not bracketed"
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0 or hi - lo < tol:
            return mid
        if flo * fm <= 0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def central_diff(f, x, h=1e-4):
    return (f(x + h) - f(x - h)) / (2 * h)
