"""Polytope, simplex and piecewise-linear tables as the package computed them in ``Fraction``.

A polytope held its vertices and halfspaces as ``Fraction`` tuples, a
simplex its vertices and a ``Fraction`` edge determinant, an affine form a
``Fraction`` gradient and constant; facets, incidences, triangulations,
volumes, containment and the cell tables of a transform were built from
``Fraction`` dot products and differences.  ``geometry`` and ``expint`` now
keep integer tables over common denominators; these copies are the
references they are tested against, with ``==``.  The double description
core ``_extreme_rays`` is shared: it always ran on integer rows.
"""

import itertools
import math
from fractions import Fraction

from fanokit.geometry import _extreme_rays
from fanokit.rational import det, integer_rows, matrix_rank

from command_reference import row_echelon


def dot(u, v):
    return sum((a * b for a, b in zip(u, v, strict=True)), Fraction(0))


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v, strict=True))


def affine_rank(points):
    pts = list(points)
    if len(pts) <= 1:
        return 0
    return matrix_rank([list(vsub(p, pts[0])) for p in pts[1:]])


# ---------------------------------------------------------------------------
# hulls


def facets_from_points(points):
    """[(normal, offset, incident)] of conv(points), sorted; [] if lower-dimensional."""
    n = len(points[0])
    if n == 1:
        lo = min(p[0] for p in points)
        hi = max(p[0] for p in points)
        if lo == hi:
            return []
        return [((Fraction(1),), hi, tuple(i for i, p in enumerate(points) if p[0] == hi)),
                ((Fraction(-1),), -lo, tuple(i for i, p in enumerate(points) if p[0] == lo))]
    cone = _extreme_rays(integer_rows((Fraction(1), *p) for p in points))
    if cone is None:
        return []
    facets = [(tuple(Fraction(-x) for x in ray[1:]), Fraction(ray[0]), tuple(sorted(zero)))
              for ray, zero in zip(*cone)]
    return sorted(facets, key=lambda f: (f[0], f[1]))


def extreme_points(points, facets):
    n = len(points[0])
    out = []
    for i, p in enumerate(points):
        active = [normal for normal, _, incident in facets if i in incident]
        if len(active) >= n and matrix_rank(active) == n:
            out.append(p)
    return sorted(set(out))


def vertices_from_halfspaces(halfspaces, n):
    """(sorted vertices, bounded) of {y : <a, y> <= b}."""
    rows = [(b, *(-x for x in a)) for a, b in halfspaces]
    cone = _extreme_rays(integer_rows(rows + [(Fraction(1),) + (Fraction(0),) * n]))
    if cone is None:
        return [], False
    rays = cone[0]
    vertices = sorted(tuple(Fraction(x, r[0]) for x in r[1:]) for r in rays if r[0] > 0)
    return vertices, all(r[0] > 0 for r in rays)


def from_vertices(vertices):
    """(dim, vertices, halfspaces, full_dimensional, facets indexing the vertices)."""
    pts = sorted({tuple(Fraction(x) for x in v) for v in vertices})
    n = len(pts[0])
    facets = facets_from_points(pts)
    if not facets:
        return n, tuple(pts), (), False, ()
    extreme = extreme_points(pts, facets)
    index = {p: i for i, p in enumerate(extreme)}
    kept = tuple((normal, offset, tuple(index[pts[i]] for i in incident if pts[i] in index))
                 for normal, offset, incident in facets)
    return n, tuple(extreme), tuple((a, b) for a, b, _ in facets), True, kept


def agrees(vertices, halfspaces, n):
    """The constructor's cross-check: the vertices are the halfspaces' extreme points."""
    return sorted(vertices) == vertices_from_halfspaces(halfspaces, n)[0]


# ---------------------------------------------------------------------------
# triangulation, volume, barycenter


def cone_triangulation(points, facets):
    apex_idx = min(range(len(points)), key=lambda i: points[i])
    apex = points[apex_idx]
    pieces = []
    for normal, _, incident in facets:
        if apex_idx in incident:
            continue
        sub = triangulate_facet([points[i] for i in incident], normal)
        pieces.extend((apex,) + simplex for simplex in sub)
    return pieces


def triangulate_facet(facet_points, normal):
    n = len(facet_points[0])
    if n == 1:
        return [(facet_points[0],)]
    k = next(k for k, x in enumerate(normal) if x != 0)
    proj = {}
    for p in facet_points:
        proj[p[:k] + p[k + 1:]] = p
    flat = sorted(proj)
    if len(flat) == n:
        return [tuple(proj[q] for q in flat)]
    pieces = cone_triangulation(flat, facets_from_points(flat))
    return [tuple(proj[q] for q in piece) for piece in pieces]


def edge_determinant(vertices):
    base = vertices[0]
    return det([list(vsub(v, base)) for v in vertices[1:]])


def simplex_volume(vertices):
    vol = abs(edge_determinant(vertices))
    for k in range(2, len(vertices)):
        vol /= k
    return vol


def volume(pieces):
    return sum((simplex_volume(p) for p in pieces), Fraction(0))


def barycenter(pieces, n):
    total = Fraction(0)
    acc = [Fraction(0)] * n
    for piece in pieces:
        v = simplex_volume(piece)
        total += v
        for i in range(n):
            acc[i] += v * sum(p[i] for p in piece) / len(piece)
    return tuple(x / total for x in acc)


# ---------------------------------------------------------------------------
# containment


def _in_hull(p, points):
    base = points[0]
    pivots, _ = row_echelon([vsub(v, base) for v in points[1:]], reduced=False)
    if not pivots:
        return p == base
    flat = [tuple(v[c] for c in pivots) for v in points]
    q = tuple(p[c] for c in pivots)
    return all(dot(normal, q) <= offset for normal, offset, _ in facets_from_points(flat))


def contains(vertices, halfspaces, full_dimensional, point, strict=False):
    p = tuple(Fraction(x) for x in point)
    if strict:
        return all(dot(a, p) < b for a, b in halfspaces)
    if full_dimensional:
        return all(dot(a, p) <= b for a, b in halfspaces)
    return (affine_rank(list(vertices) + [p]) == affine_rank(vertices)
            and _in_hull(p, vertices))


def origin_in_interior(points):
    pts = sorted({tuple(Fraction(x) for x in p) for p in points})
    facets = facets_from_points(pts) if pts else []
    return bool(facets) and all(offset > 0 for _, offset, _ in facets)


# ---------------------------------------------------------------------------
# slicing and the tables of a piecewise-linear transform; a cell is
# (vertices, gradient, constant) in Fractions


def halfspace_slice(vertices, gradient, constant, level):
    """Vertex tuples of the pieces of the simplex where the affine form is >= level."""
    vals = [dot(gradient, v) + constant for v in vertices]
    if min(vals) >= level:
        return [tuple(vertices)]
    if max(vals) <= level:
        return []
    points = {v for v, val in zip(vertices, vals) if val >= level}
    for (i, u), (j, w) in itertools.combinations(enumerate(vertices), 2):
        a, b = vals[i], vals[j]
        if (a > level > b) or (b > level > a):
            t = (a - level) / (a - b)
            points.add(tuple(ux + t * (wx - ux) for ux, wx in zip(u, w)))
    pts = sorted(points)
    return cone_triangulation(pts, facets_from_points(pts))


def canonical_cells(cells):
    return sorted(cells, key=lambda c: c[0])


def cell_table(cells):
    """Per cell: the exact vertex values and the exact n! vol."""
    return tuple((tuple(dot(g, v) + c for v in verts), abs(edge_determinant(verts)))
                 for verts, g, c in cells)


def node_floats(cells):
    """Per cell: the vertex values and the n! vol, each rounded once."""
    return (tuple(tuple(float(v) for v in vals) for vals, _ in cell_table(cells)),
            tuple(float(d) for _, d in cell_table(cells)))


def pairing_floats(cells, xi):
    """Per cell: <y', xi> at its vertices, rounded once."""
    return tuple(tuple(float(sum((x * y for x, y in zip(xi, v)), Fraction(0))) for v in verts)
                 for verts, _, _ in cells)


def rescaled(cells, a, b):
    return [(verts, tuple(a * x for x in g), a * c + b) for verts, g, c in cells]


def validate(cells, domain_vertices, domain_halfspaces, domain_volume, certified):
    """The message of the first check a transform fails, None if it passes."""
    table = cell_table(cells)
    n = len(cells[0][0][0])
    if sum(d for _, d in table) != math.factorial(n) * domain_volume:
        return "volume mismatch"
    values = {}
    for (verts, _, _), (vals, _) in zip(cells, table):
        for v, val in zip(verts, vals):
            if values.setdefault(v, val) != val:
                return "disagree"
    if not all(contains(domain_vertices, domain_halfspaces, True, v) for v in values):
        return "outside the domain"
    if certified and any(dot(g, v) + c < val for v, val in values.items() for _, g, c in cells):
        return "concavity certificate fails"
    return None
