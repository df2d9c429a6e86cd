"""Exact rational convex polytope engine.

Polytopes, simplices and affine forms are stored once, when they are built,
as integer tables:

- a polytope's vertices as integer rows over one positive common
  denominator, and each halfspace <a, y> <= b as the integer row (b, -a)
  over another;
- a simplex's vertices as integer rows over one denominator, with its edge
  determinant from one fraction-free elimination;
- an affine form's gradient and constant over one denominator.

Every denominator is the least one, so equal objects have equal tables.
Every question (hull, cross-validation, extreme points, containment,
triangulation, volume, slicing) reads the integers; ``vertices``,
``halfspaces``, ``Facet``, ``gradient``, ``constant``,
``edge_determinant()``, ``volume()``, ``barycenter()`` and ``to_json()`` are
exact ``Fraction`` views built from the tables.  Floats never enter this
module.

Every polytope question runs on one core, the double-description method on
integer rows (``_extreme_rays``, one elimination per cone), which is self-dual:

- facets of points p / d are the extreme rays of the cone of rows (d, p),
  and a point is a vertex when the facets through it share no other point;
- vertices and boundedness of a halfspace system are the extreme rays of the
  cone of rows (b, -a) and (1, 0, ..., 0); a polytope stated with both
  descriptions is checked this way, while one built from points takes both
  from its one hull;
- 0 is strictly inside a hull when every facet offset is positive;
- membership in a lower-dimensional hull is a facet test after projecting
  onto coordinates of its affine hull;
- a slice of a simplex by a halfspace is triangulated over the hull of its
  vertices.

Triangulations fan out from the lexicographically smallest vertex over a
facet decomposition, so the output is deterministic and independent of the
order of the input data.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import factorial, gcd, lcm
from operator import mul

from .errors import DegeneratePolytope, DegenerateSimplex, InputError
from .rational import (
    Vector,
    _bareiss,
    _exact,
    _format_over,
    _format_row,
    _fractions,
    _integer_row,
    _over,
    _reduced,
    exact_rows,
    exact_vector,
    integer_rows,
    need,
    parse_number,
    rat,
    rat_vector,
)


@dataclass(frozen=True, init=False)
class AffineForm:
    """y -> <gradient, y> + constant with exact rational coefficients.

    Stored as the integers ``_grad`` and ``_const`` over the least common
    denominator ``_den``; ``gradient`` and ``constant`` are ``Fraction`` views.
    """

    _den: int
    _grad: tuple[int, ...]
    _const: int

    def __init__(self, den: int, grad, const: int):
        """The form (<grad, y> + const) / den, for integers and a nonzero den."""
        den, ((*grad, const),) = _reduced(den, [(*grad, const)])
        vars(self).update(_den=den, _grad=tuple(grad), _const=const)

    @property
    def gradient(self) -> Vector:
        return _fractions(self._grad, self._den)

    @property
    def constant(self) -> Fraction:
        return Fraction(self._const, self._den)

    def _at(self, den: int, point) -> int:
        """The value at the integer point ``point / den``, times ``self._den * den``."""
        return sum(map(mul, self._grad, point)) + self._const * den

    def __call__(self, point) -> Fraction:
        den, p = _integer_row(rat_vector(point, "point", len(self._grad)))
        return Fraction(self._at(den, p), self._den * den)

    @classmethod
    def make(cls, gradient, constant=0) -> "AffineForm":
        d, ((*grad, const),) = _over([(*exact_vector(gradient, "vector"), _exact(constant))])
        return cls(d, grad, const)

    def scaled(self, a) -> "AffineForm":
        a = rat(a)
        return AffineForm(self._den * a.denominator,
                          [g * a.numerator for g in self._grad], self._const * a.numerator)

    def plus(self, other: "AffineForm") -> "AffineForm":
        d = lcm(self._den, other._den)
        s, t = d // self._den, d // other._den
        return AffineForm(d, [g * s + h * t for g, h in zip(self._grad, other._grad, strict=True)],
                          self._const * s + other._const * t)

    def shifted(self, c) -> "AffineForm":
        c = rat(c)
        q = c.denominator
        return AffineForm(self._den * q, [g * q for g in self._grad],
                          self._const * q + c.numerator * self._den)


def pairing_form(xi, dim: int) -> AffineForm:
    """The linear form y -> <y', xi> pairing the first len(xi) coordinates."""
    xi = rat_vector(xi)
    if len(xi) > dim:
        raise InputError(f"pairing vector of length {len(xi)} in ambient dimension {dim}")
    d, row = _integer_row(xi)
    return AffineForm(d, [*row] + [0] * (dim - len(xi)), 0)


@dataclass(frozen=True, init=False)
class Simplex:
    """n+1 affinely independent points in Q^n.

    Stored as the integer vertex rows ``_rows`` over the least common
    denominator ``_den``, and the edge determinant's numerator ``_det`` over
    ``_den ** n``; ``vertices`` is the ``Fraction`` view.
    """

    _den: int
    _rows: tuple[tuple[int, ...], ...]
    _det: int = field(repr=False, compare=False)

    def __init__(self, den: int, rows):
        """The simplex with the vertices ``rows / den``, for integer rows and a nonzero den."""
        den, rows = _reduced(den, rows)
        n = len(rows) - 1
        if n < 1 or any(len(r) != n for r in rows):
            raise DegenerateSimplex(f"need n+1 vertices in Q^n, got {len(rows)}")
        base = rows[0]
        edges = [[x - y for x, y in zip(r, base)] for r in rows[1:]]
        pivots, d, sign = _bareiss(edges, n, reduced=False)
        if len(pivots) < n:
            raise DegenerateSimplex("vertices are affinely dependent")
        vars(self).update(_den=den, _rows=rows, _det=sign * d)

    @classmethod
    def make(cls, vertices) -> "Simplex":
        return cls(*_over(exact_vector(v, "vector") for v in vertices))

    @property
    def vertices(self) -> tuple[Vector, ...]:
        return tuple(_fractions(r, self._den) for r in self._rows)

    @property
    def dim(self) -> int:
        return len(self._rows) - 1

    def edge_determinant(self) -> Fraction:
        """det(v_1 - v_0, ..., v_n - v_0), computed once on construction."""
        return Fraction(self._det, self._den ** self.dim)

    def volume(self) -> Fraction:
        return Fraction(abs(self._det), self._den ** self.dim * factorial(self.dim))


@dataclass(frozen=True)
class Facet:
    """Outward halfspace <normal, y> <= offset together with incident vertex indices."""

    normal: Vector
    offset: Fraction
    incident: tuple[int, ...]


def _facet(scale: int, ray, incident) -> Facet:
    """The ``Facet`` view of the halfspace row ray = (b, -a) over ``scale``."""
    return Facet(tuple(Fraction(-x, scale) for x in ray[1:]), Fraction(ray[0], scale), incident)


def _lex_min_index(points) -> int:
    return min(range(len(points)), key=lambda i: points[i])


def _primitive_ray(ray) -> list[int]:
    g = gcd(*ray)
    return [x // g for x in ray] if g > 1 else ray


def _extreme_rays(rows) -> tuple[list[list[int]], list[frozenset[int]]] | None:
    """Extreme rays of the cone {r : <row, r> >= 0 for every row}, with zero sets.

    Double description (Motzkin et al. 1953; Fukuda & Prodon 1996) on
    integer rows.  The cone of the first m independent rows has the columns
    of their inverse as rays; every further row keeps the rays on its
    nonnegative side and adds one ray on the row's hyperplane for each
    adjacent pair across it.  A ray carries its zero set, the indices of the
    rows it lies on; two rays are adjacent exactly when their zero sets share
    at least m - 2 rows and no third ray's zero set contains that
    intersection.  Rays are primitive integer vectors.  Returns None when the
    rows do not span Q^m, so that the cone contains a line; the cone {0} has
    no rays.
    """
    m, width = len(rows[0]), len(rows)
    # one Gauss-Jordan pass on the rows as columns beside the identity: the pivots are
    # the first independent rows, and row j's identity block ends as d times column j
    # of their inverse, zero on every seed row but the j-th, where it has d's sign
    a = [[*col, *(int(i == j) for j in range(m))] for i, col in enumerate(zip(*rows))]
    seed, d, _ = _bareiss(a, width, reduced=True)
    if len(seed) < m:
        return None
    rays = [_primitive_ray([x if d > 0 else -x for x in row[width:]]) for row in a]
    zeros = [frozenset(seed[:j] + seed[j + 1 :]) for j in range(m)]
    seeded = set(seed)
    for k, row in enumerate(rows):
        if k in seeded:
            continue
        values = [sum(map(mul, row, ray)) for ray in rays]
        positive = [i for i, v in enumerate(values) if v > 0]
        negative = [i for i, v in enumerate(values) if v < 0]
        new_rays, new_zeros = [], []
        for i in positive:
            for j in negative:
                common = zeros[i] & zeros[j]
                if len(common) < m - 2 or any(
                    common <= z for t, z in enumerate(zeros) if t != i and t != j
                ):
                    continue
                vi, vj = values[i], values[j]
                new_rays.append(_primitive_ray([vi * y - vj * x for x, y in zip(rays[i], rays[j])]))
                new_zeros.append(common | {k})
        kept = [i for i, v in enumerate(values) if v >= 0]
        rays = [rays[i] for i in kept] + new_rays
        zeros = [zeros[i] | {k} if values[i] == 0 else zeros[i] for i in kept] + new_zeros
    return rays, zeros


def _hull(den: int, points) -> tuple[int, list[tuple[tuple[int, ...], tuple[int, ...]]]]:
    """The facets of conv(p / den for the integer points p), as (scale, facets).

    Each facet is (ray, incident): the halfspace <a, y> <= b whose row
    (b, -a) is ray / scale, and the indices of the points on it; [] if the
    hull is lower-dimensional.  <a, y> <= b holds on every point exactly when
    r = (b, -a) has <r, (den, p)> >= 0 for every point p, so the facets are
    the extreme rays of that cone (primitive, scale 1), sorted by (normal,
    offset), and a ray's zero set is its facet's incidence set.  On a line
    the facets are y <= hi and -y <= -lo, in that order, over scale den.
    """
    if len(points[0]) == 1:
        lo = min(p[0] for p in points)
        hi = max(p[0] for p in points)
        if lo == hi:
            return 1, []
        return den, [((hi, -den), tuple(i for i, p in enumerate(points) if p[0] == hi)),
                     ((-lo, den), tuple(i for i, p in enumerate(points) if p[0] == lo))]
    cone = _extreme_rays([(den, *p) for p in points])
    if cone is None:
        return 1, []
    facets = [(tuple(ray), tuple(sorted(zero))) for ray, zero in zip(*cone)]
    facets.sort(key=lambda f: ([-x for x in f[0][1:]], f[0][0]))
    return 1, facets


def _extreme_points(points, facets) -> list[tuple[int, ...]]:
    """The vertices among the distinct ``points``: those on at least n facets that
    share no other point (the facets through a point meet in its smallest face)."""
    n = len(points[0])
    active = [[] for _ in points]
    for _, incident in facets:
        for i in incident:
            active[i].append(incident)
    return sorted(p for p, sets in zip(points, active)
                  if len(sets) >= n and len(set(sets[0]).intersection(*sets)) == 1)


def _vertices_from_halfspaces(rows, n: int) -> tuple[int, list[tuple[int, ...]], bool]:
    """(d, vertex rows over d, bounded) for the halfspace rows (b, -a) of {y : <a, y> <= b}.

    The facet search run backwards: (x0, x) lies in the cone x0 >= 0,
    b x0 - <a, x> >= 0 exactly when x / x0 satisfies every halfspace
    (x0 > 0) or x is a recession direction (x0 = 0).  So each extreme ray
    with x0 > 0 is the vertex x / x0, and the set is unbounded when a ray has
    x0 = 0 or the rows do not span (the normals miss a direction); these are
    the systems whose normals do not positively span Q^n.  No ray at all
    means the set is empty.  The rays are primitive, so d, the lcm of their
    x0, is the vertices' least common denominator; the rows come sorted.
    """
    cone = _extreme_rays([*rows, (1,) + (0,) * n])
    if cone is None:
        return 1, [], False
    rays = cone[0]
    tops = [r for r in rays if r[0] > 0]
    d = lcm(*(r[0] for r in tops))
    return (d, sorted(tuple(x * (d // r[0]) for x in r[1:]) for r in tops),
            len(tops) == len(rays))


@dataclass(frozen=True, init=False)
class RationalPolytope:
    """Bounded convex polytope {y : <normal_i, y> <= offset_i} = conv(vertices).

    Stored as integer tables: the vertex rows ``_verts`` over ``_den``, and
    each halfspace <a, y> <= b as the row (b, -a) of ``_rays`` over
    ``_hden``, both least denominators; ``vertices`` and ``halfspaces`` are
    the ``Fraction`` views.  The constructor takes rationals and checks that a
    full-dimensional polytope's stated vertices are exactly the extreme points
    of its stated halfspaces; ``_from_tables`` takes integer tables as stated.
    """

    dim: int
    full_dimensional: bool
    _den: int
    _verts: tuple[tuple[int, ...], ...]
    _hden: int
    _rays: tuple[tuple[int, ...], ...]

    def __init__(self, dim: int, vertices, halfspaces, full_dimensional: bool):
        poly = RationalPolytope._from_tables(dim, full_dimensional, *_over(vertices),
                                             *_over((b, *(-x for x in a)) for a, b in halfspaces))
        # the stated vertices must be exactly the extreme points of the stated halfspaces
        if full_dimensional and poly._rays and (_vertices_from_halfspaces(poly._rays, dim)[:2]
                                                != (poly._den, sorted(poly._verts))):
            raise InputError("vertex and halfspace descriptions disagree")
        vars(self).update(vars(poly))

    @classmethod
    def _from_tables(cls, dim, full_dimensional, den, verts, hden, rays) -> "RationalPolytope":
        """The polytope with the vertex rows ``verts / den`` and the halfspace rows
        ``rays / hden``: integer rows over nonzero denominators, taken as stated."""
        (den, verts), (hden, rays) = _reduced(den, verts), _reduced(hden, rays)
        poly = object.__new__(cls)
        vars(poly).update(dim=dim, full_dimensional=full_dimensional, _den=den, _verts=verts,
                          _hden=hden, _rays=rays)
        return poly

    @classmethod
    def _from_points(cls, den: int, rows) -> "RationalPolytope":
        """conv(p / den for the integer rows p): vertices, halfspaces and facets
        from one hull."""
        pts = sorted(set(rows))
        n = len(pts[0])
        scale, facets = _hull(den, pts)
        if not facets:
            return cls._from_tables(n, False, den, pts, 1, ())
        extreme = _extreme_points(pts, facets)
        index = {p: i for i, p in enumerate(extreme)}
        poly = cls._from_tables(n, True, den, extreme, scale, [ray for ray, _ in facets])
        poly.__dict__["_facets"] = poly._hden, tuple(
            (ray, tuple(index[pts[i]] for i in incident if pts[i] in index))
            for ray, (_, incident) in zip(poly._rays, facets))
        return poly

    @classmethod
    def from_vertices(cls, vertices) -> "RationalPolytope":
        pts = [exact_vector(v, "vector") for v in vertices]
        if not pts:
            raise InputError("empty vertex list")
        n = len(pts[0])
        if any(len(p) != n for p in pts):
            raise InputError("vertices of mixed dimension")
        return cls._from_points(*_over(pts))

    @classmethod
    def from_halfspaces(cls, halfspaces, dim: int) -> "RationalPolytope":
        spaces = [(exact_vector(a, "vector"), _exact(b)) for a, b in halfspaces]
        if not spaces or any(len(a) != dim for a, _ in spaces):
            raise InputError("halfspaces missing or of wrong dimension")
        den, verts, bounded = _vertices_from_halfspaces(
            integer_rows((b, *(-x for x in a)) for a, b in spaces), dim)
        if not bounded:
            raise InputError("halfspace intersection is unbounded")
        if not verts:
            raise InputError("halfspace intersection is empty")
        return cls._from_points(den, verts)

    @classmethod
    def interval(cls, lo, hi) -> "RationalPolytope":
        return cls.from_vertices([[lo], [hi]])

    @property
    def vertices(self) -> tuple[Vector, ...]:
        return tuple(_fractions(v, self._den) for v in self._verts)

    @property
    def halfspaces(self) -> tuple[tuple[Vector, Fraction], ...]:
        return tuple((f.normal, f.offset) for f in (_facet(self._hden, r, ()) for r in self._rays))

    def facets(self) -> list[Facet]:
        scale, facets = self._facets
        return [_facet(scale, ray, incident) for ray, incident in facets]

    @cached_property
    def _facets(self) -> tuple:
        """(scale, facets) as ``_hull`` gives them, the incidences indexing ``_verts``."""
        self._require_full_dim()
        return _hull(self._den, self._verts)

    @cached_property
    def _cells(self) -> tuple[Simplex, ...]:
        return tuple(Simplex(self._den, p)
                     for p in _cone_triangulation(self._den, list(self._verts), self._facets[1]))

    def _require_full_dim(self):
        if not self.full_dimensional:
            raise DegeneratePolytope(f"polytope is not full-dimensional in Q^{self.dim}")

    def contains(self, point, strict: bool = False) -> bool:
        den, p = _integer_row(rat_vector(point, "point", self.dim))
        if strict:
            self._require_full_dim()
            return all(r[0] * den + sum(map(mul, r[1:], p)) > 0 for r in self._rays)
        return self._contains_all(den, [p])

    def _contains_all(self, den: int, points) -> bool:
        """Whether every integer point p / den lies in the polytope."""
        if not self.full_dimensional:
            return all(self._flat_contains(den, p) for p in points)
        return all(r[0] * den + sum(map(mul, r[1:], p)) >= 0 for p in points for r in self._rays)

    def _flat_contains(self, den: int, p) -> bool:
        """Membership of p / den in a lower-dimensional hull.

        p must lie on the vertices' affine hull: adding p - v_0 to the
        difference rows v_i - v_0 must not raise their rank.  The pivot
        columns of those rows are then coordinates on that affine hull, so
        projecting onto them keeps membership and makes the hull
        full-dimensional; p is tested against the projection's facets.
        """
        d = lcm(self._den, den)
        verts = [tuple(x * (d // self._den) for x in v) for v in self._verts]
        q = [x * (d // den) for x in p]
        base = verts[0]
        edges = [[x - y for x, y in zip(v, base)] for v in verts[1:]]
        pivots = _bareiss([list(e) for e in edges], self.dim, reduced=False)[0]
        rank = len(_bareiss(edges + [[x - y for x, y in zip(q, base)]], self.dim, reduced=False)[0])
        if rank != len(pivots):
            return False
        if not pivots:
            return True
        flat = [tuple(v[c] for c in pivots) for v in verts]
        q = [q[c] for c in pivots]
        return all(ray[0] * d + sum(map(mul, ray[1:], q)) >= 0 for ray, _ in _hull(d, flat)[1])

    def project(self, r: int) -> "RationalPolytope":
        """Image under projection to the first r coordinates."""
        if not 1 <= r <= self.dim:
            raise InputError(f"projection rank {r} out of range")
        if r == self.dim:
            return self
        return RationalPolytope._from_points(self._den, [v[:r] for v in self._verts])

    def _factorial_volume(self) -> int:
        """n! vol times ``_den ** n``: the cells' |edge determinants| over one denominator."""
        n = self.dim
        return sum(abs(s._det) * (self._den // s._den) ** n for s in self._cells)

    def volume(self) -> Fraction:
        if not self.full_dimensional:
            return Fraction(0)
        return Fraction(self._factorial_volume(), self._den ** self.dim * factorial(self.dim))

    def triangulate(self) -> list[Simplex]:
        return list(self._cells)

    def barycenter(self) -> Vector:
        """The cells' centroids weighted by their volumes, summed in integers."""
        self._require_full_dim()
        n, d = self.dim, self._den
        total, acc = 0, [0] * n
        for s in self._cells:
            m = d // s._den
            w = abs(s._det) * m ** n
            total += w
            acc = [a + w * m * sum(c) for a, c in zip(acc, zip(*s._rows))]
        return tuple(Fraction(a, total * (n + 1) * d) for a in acc)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "vertices": [_format_row(v, self._den) for v in self._verts],
            "halfspaces": [
                {"normal": _format_row([-x for x in r[1:]], self._hden),
                 "offset": _format_over(r[0], self._hden)}
                for r in self._rays
            ],
        }


def polytope_from_json(doc: dict) -> RationalPolytope:
    need(doc, "polytope document")
    dim = doc.get("dim")
    dim = None if dim is None else parse_number(dim, "polytope dim", minimum=1)
    poly = None
    if doc.get("vertices"):
        poly = RationalPolytope.from_vertices(exact_rows(doc["vertices"], "polytope vertices", dim))
        dim = poly.dim
    spaces = []
    if doc.get("halfspaces"):
        if dim is None:
            raise InputError("halfspace-only polytope document needs a dim field")
        for h in need(doc, "polytope document", "halfspaces", kind=list):
            normal, offset = need(h, "halfspace", "normal", "offset")
            spaces.append((exact_vector(normal, "halfspace normal", dim), _exact(offset)))
    if poly is None:
        if not spaces:
            raise InputError("polytope document needs vertices or halfspaces")
        return RationalPolytope.from_halfspaces(spaces, dim)
    # <a, v / d> <= b for each vertex v exactly when <(b, -a), (d, v)> >= 0
    for ray in integer_rows((b, *(-x for x in a)) for a, b in spaces):
        if any(ray[0] * poly._den + sum(map(mul, ray[1:], v)) < 0 for v in poly._verts):
            raise InputError("halfspace in document cuts off a listed vertex")
    return poly


# ---------------------------------------------------------------------------
# triangulation internals


def _drop_axis(normal) -> int:
    return next(k for k, x in enumerate(normal) if x != 0)


def _cone_triangulation(den: int, points, facets) -> list[tuple[tuple[int, ...], ...]]:
    """Fan from the lex-min point over all facets not containing it.

    ``points`` are integer rows over ``den`` and ``facets`` the complete
    facet list of their hull, as ``_hull`` gives it; each returned tuple is a
    full-dimensional simplex (n+1 rows over ``den``).
    """
    apex_idx = _lex_min_index(points)
    apex = points[apex_idx]
    pieces = []
    for ray, incident in facets:
        if apex_idx in incident:
            continue
        sub = _triangulate_facet(den, [points[i] for i in incident], ray)
        pieces.extend((apex,) + simplex for simplex in sub)
    return pieces


def _triangulate_facet(den: int, facet_points, ray) -> list[tuple[tuple[int, ...], ...]]:
    """Triangulate an (n-1)-dimensional face embedded in Q^n.

    The face is projected along a coordinate axis transverse to its hyperplane
    (an affine bijection on the face), triangulated in Q^{n-1}, and lifted.
    """
    n = len(facet_points[0])
    if n == 1:
        return [(facet_points[0],)]
    k = _drop_axis(ray[1:])
    proj = {p[:k] + p[k + 1 :]: p for p in facet_points}
    flat = sorted(proj)
    if len(flat) == n:  # the face is itself a simplex
        return [tuple(proj[q] for q in flat)]
    pieces = _cone_triangulation(den, flat, _hull(den, flat)[1])
    return [tuple(proj[q] for q in piece) for piece in pieces]


# ---------------------------------------------------------------------------
# public operations


def triangulate(p: RationalPolytope) -> list[Simplex]:
    """Disjoint-interior simplices whose union is p; volumes add up exactly."""
    return p.triangulate()


def volume(p: RationalPolytope) -> Fraction:
    """Exact Lebesgue volume; 0 for lower-dimensional input."""
    return p.volume()


def barycenter(p: RationalPolytope) -> Vector:
    return p.barycenter()


def halfspace_slice(s: Simplex, h: AffineForm, level) -> list[Simplex]:
    """Triangulation of s ∩ {y : h(y) >= level}; [] if that region is lower-dimensional.

    The region's vertices are the vertices of s on the kept side and the
    points where the cut plane crosses an edge of s; its facets come from
    the hull of those points.  The vertex values and the level are integers
    over one denominator, and a crossing of the edge u w is
    (u (level - h(w)) + w (h(u) - level)) / (h(u) - h(w)).
    """
    level = rat(level)
    den, q = s._den, level.denominator
    vals = [h._at(den, v) * q for v in s._rows]
    cut = level.numerator * h._den * den
    if min(vals) >= cut:
        return [s]
    if max(vals) <= cut:
        return []
    crossings = [(a - b, [x * (cut - b) + y * (a - cut) for x, y in zip(u, w)])
                 for (a, u), (b, w) in itertools.combinations(zip(vals, s._rows), 2)
                 if a > cut > b or b > cut > a]
    m = lcm(*(abs(t) for t, _ in crossings))
    points = {tuple(x * m for x in v) for v, a in zip(s._rows, vals) if a >= cut}
    points.update(tuple(x * (m // t) for x in p) for t, p in crossings)
    pts = sorted(points)
    return [Simplex(den * m, piece)
            for piece in _cone_triangulation(den * m, pts, _hull(den * m, pts)[1])]


def origin_in_interior(points) -> bool:
    """Exact test that 0 lies strictly inside conv(points).

    That holds exactly when the hull is full-dimensional and every outward
    facet <a, y> <= b has b > 0.
    """
    pts = [exact_vector(p, "vector") for p in points]
    if not pts:
        return False
    den, rows = _over(pts)
    facets = _hull(den, sorted(set(rows)))[1]
    return bool(facets) and all(ray[0] > 0 for ray, _ in facets)
