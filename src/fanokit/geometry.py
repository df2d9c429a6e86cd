"""Exact rational convex polytope engine.

Polytopes carry both a vertex and a halfspace description; whichever one the
caller supplies, the other is derived and the two are cross-validated.  All
combinatorics (facet incidence, slicing, triangulation) is exact over Q;
floats never enter this module.

Every polytope question runs on one core, the double-description method on
integer rows (``_extreme_rays``), which is self-dual:

- facets of a point set are the extreme rays of the cone of rows (1, p);
- vertices and boundedness of a halfspace system are the extreme rays of the
  cone of rows (b, -a) and (1, 0, ..., 0); every full-dimensional polytope
  recomputes its vertices this way from its halfspaces on construction and
  compares them with the stated ones;
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
from math import gcd
from operator import mul

from .errors import DegeneratePolytope, DegenerateSimplex, InputError
from .rational import (
    Vector,
    affine_rank,
    coordinates,
    det,
    dot,
    format_rat,
    independent_rows,
    integer_rows,
    matrix_rank,
    need,
    parse_number,
    primitive,
    rat,
    rat_rows,
    rat_vector,
    row_echelon,
    smul,
    vsub,
)


@dataclass(frozen=True)
class AffineForm:
    """y -> <gradient, y> + constant with exact rational coefficients."""

    gradient: Vector
    constant: Fraction

    def __call__(self, point) -> Fraction:
        return dot(self.gradient, point) + self.constant

    @classmethod
    def make(cls, gradient, constant=0) -> "AffineForm":
        return cls(rat_vector(gradient), rat(constant))

    def scaled(self, a) -> "AffineForm":
        a = rat(a)
        return AffineForm(smul(a, self.gradient), a * self.constant)

    def plus(self, other: "AffineForm") -> "AffineForm":
        return AffineForm(
            tuple(a + b for a, b in zip(self.gradient, other.gradient, strict=True)),
            self.constant + other.constant,
        )

    def shifted(self, c) -> "AffineForm":
        return AffineForm(self.gradient, self.constant + rat(c))


def pairing_form(xi, dim: int) -> AffineForm:
    """The linear form y -> <y', xi> pairing the first len(xi) coordinates."""
    xi = rat_vector(xi)
    if len(xi) > dim:
        raise InputError(f"pairing vector of length {len(xi)} in ambient dimension {dim}")
    grad = tuple(xi) + tuple(Fraction(0) for _ in range(dim - len(xi)))
    return AffineForm(grad, Fraction(0))


@dataclass(frozen=True)
class Simplex:
    """n+1 affinely independent points in Q^n."""

    vertices: tuple[Vector, ...]
    _det: Fraction = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.vertices) - 1
        if n < 1 or any(len(v) != n for v in self.vertices):
            raise DegenerateSimplex(f"need n+1 vertices in Q^n, got {len(self.vertices)}")
        base = self.vertices[0]
        object.__setattr__(self, "_det", det([list(vsub(v, base)) for v in self.vertices[1:]]))
        if self._det == 0:
            raise DegenerateSimplex("vertices are affinely dependent")

    @classmethod
    def make(cls, vertices) -> "Simplex":
        return cls(tuple(rat_vector(v) for v in vertices))

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    def edge_determinant(self) -> Fraction:
        """det(v_1 - v_0, ..., v_n - v_0), computed once on construction."""
        return self._det

    def volume(self) -> Fraction:
        vol = abs(self.edge_determinant())
        for k in range(2, self.dim + 1):
            vol /= k
        return vol

    def centroid(self) -> Vector:
        n1 = len(self.vertices)
        return tuple(sum(v[i] for v in self.vertices) / n1 for i in range(len(self.vertices[0])))


@dataclass(frozen=True)
class Facet:
    """Outward halfspace <normal, y> <= offset together with incident vertex indices."""

    normal: Vector
    offset: Fraction
    incident: tuple[int, ...]


def _lex_min_index(points) -> int:
    return min(range(len(points)), key=lambda i: points[i])


def _primitive_ray(ray) -> list[int]:
    g = gcd(*ray)
    return [x // g for x in ray] if g > 1 else ray


def _extreme_rays(rows) -> tuple[list[list[int]], list[frozenset[int]]] | None:
    """Extreme rays of the cone {r : <row, r> >= 0 for every row}, with zero sets.

    Double description (Motzkin et al. 1953; Fukuda & Prodon 1996) on
    integer rows.  The cone of m independent rows has the columns of their
    inverse as rays; every further row keeps the rays on its nonnegative side
    and adds one ray on the row's hyperplane for each adjacent pair across
    it.  A ray carries its zero set, the indices of the rows it lies on; two
    rays are adjacent exactly when their zero sets share at least m - 2 rows
    and no third ray's zero set contains that intersection.  Rays are
    primitive integer vectors.  Returns None when the rows do not span Q^m,
    so that the cone contains a line; the cone {0} has no rays.
    """
    m = len(rows[0])
    seed = independent_rows(rows)
    if len(seed) < m:
        return None
    # the unit vectors in the seed rows' columns: row j is d times column j
    # of the inverse, zero on every seed row but the j-th, where it has d's sign
    unit = [[int(i == j) for j in range(m)] for i in range(m)]
    d, inverse = coordinates(list(zip(*(rows[i] for i in seed))), unit)
    rays = [_primitive_ray([x if d > 0 else -x for x in row]) for row in inverse]
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


def _facets_from_points(points) -> list[Facet]:
    """All facets of conv(points), sorted; [] if the hull is lower-dimensional.

    <a, y> <= b holds on every point exactly when r = (b, -a) has
    <r, (1, p)> >= 0 for every point p, so the facets are the extreme rays
    of that cone, and a ray's zero set is its facet's incidence set.  Each
    row (1, p) is scaled to integers, which leaves the cone unchanged.
    """
    n = len(points[0])
    if n == 1:
        lo = min(p[0] for p in points)
        hi = max(p[0] for p in points)
        if lo == hi:
            return []
        return [
            Facet((Fraction(1),), hi, tuple(i for i, p in enumerate(points) if p[0] == hi)),
            Facet((Fraction(-1),), -lo, tuple(i for i, p in enumerate(points) if p[0] == lo)),
        ]
    cone = _extreme_rays(integer_rows((Fraction(1), *p) for p in points))
    if cone is None:
        return []
    facets = []
    for ray, zero in zip(*cone):
        # the ray is primitive, and so is its key
        facets.append(Facet(tuple(Fraction(-x) for x in ray[1:]), Fraction(ray[0]),
                            tuple(sorted(zero))))
    return sorted(facets, key=lambda f: (f.normal, f.offset))


def _extreme_points(points, facets) -> list[Vector]:
    """Points whose active facet normals have full rank (the true vertices)."""
    n = len(points[0])
    out = []
    for i, p in enumerate(points):
        active = [f.normal for f in facets if i in f.incident]
        if len(active) >= n and matrix_rank(active) == n:
            out.append(p)
    return sorted(set(out))


def _vertices_from_halfspaces(halfspaces, n: int) -> tuple[list[Vector], bool]:
    """Vertices of {y : <a, y> <= b} and whether that set is bounded.

    The facet search run backwards: (x0, x) lies in the cone x0 >= 0,
    b x0 - <a, x> >= 0 exactly when x / x0 satisfies every halfspace
    (x0 > 0) or x is a recession direction (x0 = 0).  So each extreme ray
    with x0 > 0 is the vertex x / x0, and the set is unbounded when a ray has
    x0 = 0 or the rows do not span (the normals miss a direction); these are
    the systems whose normals do not positively span Q^n.  No ray at all
    means the set is empty.
    """
    rows = [(b, *(-x for x in a)) for a, b in halfspaces]
    cone = _extreme_rays(integer_rows(rows + [(Fraction(1),) + (Fraction(0),) * n]))
    if cone is None:
        return [], False
    rays = cone[0]
    vertices = sorted(tuple(Fraction(x, r[0]) for x in r[1:]) for r in rays if r[0] > 0)
    return vertices, all(r[0] > 0 for r in rays)


@dataclass(frozen=True)
class RationalPolytope:
    """Bounded convex polytope {y : <normal_i, y> <= offset_i} = conv(vertices)."""

    dim: int
    vertices: tuple[Vector, ...]
    halfspaces: tuple[tuple[Vector, Fraction], ...]
    full_dimensional: bool
    # derived once per instance: facets (incidences index ``vertices``) and cells
    _facets: tuple[Facet, ...] | None = field(default=None, init=False, repr=False, compare=False)
    _cells: tuple[Simplex, ...] | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def from_vertices(cls, vertices) -> "RationalPolytope":
        pts = sorted({rat_vector(v) for v in vertices})
        if not pts:
            raise InputError("empty vertex list")
        n = len(pts[0])
        if any(len(p) != n for p in pts):
            raise InputError("vertices of mixed dimension")
        facets = _facets_from_points(pts)
        if not facets:
            return cls(n, tuple(pts), (), False)
        extreme = _extreme_points(pts, facets)
        halfspaces = tuple((f.normal, f.offset) for f in facets)
        poly = cls(n, tuple(extreme), halfspaces, True)
        index = {p: i for i, p in enumerate(extreme)}
        kept = tuple(
            Facet(f.normal, f.offset, tuple(index[pts[i]] for i in f.incident if pts[i] in index))
            for f in facets
        )
        object.__setattr__(poly, "_facets", kept)
        return poly

    @classmethod
    def from_halfspaces(cls, halfspaces, dim: int) -> "RationalPolytope":
        spaces = [(rat_vector(a), rat(b)) for a, b in halfspaces]
        if not spaces or any(len(a) != dim for a, _ in spaces):
            raise InputError("halfspaces missing or of wrong dimension")
        verts, bounded = _vertices_from_halfspaces(spaces, dim)
        if not bounded:
            raise InputError("halfspace intersection is unbounded")
        if not verts:
            raise InputError("halfspace intersection is empty")
        return cls.from_vertices(verts)

    @classmethod
    def interval(cls, lo, hi) -> "RationalPolytope":
        return cls.from_vertices([[lo], [hi]])

    def __post_init__(self):
        if self.full_dimensional and self.halfspaces:
            # cross-validation: the stated vertices must be exactly the
            # extreme points of the stated halfspace intersection
            recomputed, _ = _vertices_from_halfspaces(self.halfspaces, self.dim)
            if sorted(self.vertices) != recomputed:
                raise InputError("vertex and halfspace descriptions disagree")

    def facets(self) -> list[Facet]:
        return list(self._facet_list())

    def _facet_list(self) -> tuple[Facet, ...]:
        self._require_full_dim()
        if self._facets is None:
            object.__setattr__(self, "_facets", tuple(_facets_from_points(list(self.vertices))))
        return self._facets

    def _cell_list(self) -> tuple[Simplex, ...]:
        if self._cells is None:
            pieces = _cone_triangulation(list(self.vertices), self._facet_list())
            object.__setattr__(self, "_cells", tuple(Simplex(p) for p in pieces))
        return self._cells

    def _require_full_dim(self):
        if not self.full_dimensional:
            raise DegeneratePolytope(f"polytope is not full-dimensional in Q^{self.dim}")

    def contains(self, point, strict: bool = False) -> bool:
        p = rat_vector(point)
        if strict:
            self._require_full_dim()
            return all(dot(a, p) < b for a, b in self.halfspaces)
        if self.full_dimensional:
            return all(dot(a, p) <= b for a, b in self.halfspaces)
        return affine_rank(list(self.vertices) + [p]) == affine_rank(self.vertices) and _in_hull(
            p, self.vertices
        )

    def project(self, r: int) -> "RationalPolytope":
        """Image under projection to the first r coordinates."""
        if not 1 <= r <= self.dim:
            raise InputError(f"projection rank {r} out of range")
        if r == self.dim:
            return self
        return RationalPolytope.from_vertices([v[:r] for v in self.vertices])

    def volume(self) -> Fraction:
        if not self.full_dimensional:
            return Fraction(0)
        return sum((s.volume() for s in self._cell_list()), Fraction(0))

    def triangulate(self) -> list[Simplex]:
        return list(self._cell_list())

    def barycenter(self) -> Vector:
        self._require_full_dim()
        total = Fraction(0)
        acc = [Fraction(0)] * self.dim
        for s in self._cell_list():
            v = s.volume()
            c = s.centroid()
            total += v
            for i in range(self.dim):
                acc[i] += v * c[i]
        return tuple(x / total for x in acc)

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "vertices": [[format_rat(x) for x in v] for v in self.vertices],
            "halfspaces": [
                {"normal": [format_rat(x) for x in a], "offset": format_rat(b)}
                for a, b in self.halfspaces
            ],
        }


def _in_hull(p, points) -> bool:
    """Membership of p, a point on the affine hull of ``points``, in their hull.

    The pivot columns of the points' difference rows are coordinates on that
    affine hull, so projecting onto them keeps membership and makes the hull
    full-dimensional; p is then tested against the projection's facets.
    """
    base = points[0]
    pivots, _ = row_echelon([vsub(v, base) for v in points[1:]], reduced=False)
    if not pivots:
        return p == base
    flat = [tuple(v[c] for c in pivots) for v in points]
    q = tuple(p[c] for c in pivots)
    return all(dot(f.normal, q) <= f.offset for f in _facets_from_points(flat))


def polytope_from_json(doc: dict) -> RationalPolytope:
    need(doc, "polytope document")
    dim = doc.get("dim")
    dim = None if dim is None else parse_number(dim, "polytope dim", minimum=1)
    poly = None
    if doc.get("vertices"):
        poly = RationalPolytope.from_vertices(rat_rows(doc["vertices"], "polytope vertices", dim))
        dim = poly.dim
    spaces = []
    if doc.get("halfspaces"):
        if dim is None:
            raise InputError("halfspace-only polytope document needs a dim field")
        for h in need(doc, "polytope document", "halfspaces", kind=list):
            normal, offset = need(h, "halfspace", "normal", "offset")
            spaces.append((rat_vector(normal, "halfspace normal", dim), rat(offset)))
    if poly is None:
        if not spaces:
            raise InputError("polytope document needs vertices or halfspaces")
        return RationalPolytope.from_halfspaces(spaces, dim)
    for key in {primitive(a + (b,)) for a, b in spaces}:
        a, b = key[:-1], key[-1]
        if any(dot(a, v) > b for v in poly.vertices):
            raise InputError("halfspace in document cuts off a listed vertex")
    return poly


# ---------------------------------------------------------------------------
# triangulation internals


def _drop_axis(normal) -> int:
    return next(k for k, x in enumerate(normal) if x != 0)


def _cone_triangulation(points, facets) -> list[tuple[Vector, ...]]:
    """Fan from the lex-min point over all facets not containing it.

    ``facets`` must be the complete facet list of conv(points); each returned
    tuple is a full-dimensional simplex (n+1 points).
    """
    apex_idx = _lex_min_index(points)
    apex = points[apex_idx]
    pieces = []
    for f in facets:
        if apex_idx in f.incident:
            continue
        sub = _triangulate_facet([points[i] for i in f.incident], f.normal)
        pieces.extend((apex,) + simplex for simplex in sub)
    return pieces


def _triangulate_facet(facet_points, normal) -> list[tuple[Vector, ...]]:
    """Triangulate an (n-1)-dimensional face embedded in Q^n.

    The face is projected along a coordinate axis transverse to its hyperplane
    (an affine bijection on the face), triangulated in Q^{n-1}, and lifted.
    """
    n = len(facet_points[0])
    if n == 1:
        return [(facet_points[0],)]
    k = _drop_axis(normal)
    proj = {}
    for p in facet_points:
        q = p[:k] + p[k + 1 :]
        proj[q] = p
    flat = sorted(proj)
    if len(flat) == n:  # the face is itself a simplex
        return [tuple(proj[q] for q in flat)]
    facets = _facets_from_points(flat)
    pieces = _cone_triangulation(flat, facets)
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
    the hull of those points.
    """
    level = rat(level)
    vals = [h(v) for v in s.vertices]
    if min(vals) >= level:
        return [s]
    if max(vals) <= level:
        return []

    points = {v for v, val in zip(s.vertices, vals) if val >= level}
    for (i, u), (j, w) in itertools.combinations(enumerate(s.vertices), 2):
        a, b = vals[i], vals[j]
        if (a > level > b) or (b > level > a):
            t = (a - level) / (a - b)
            points.add(tuple(ux + t * (wx - ux) for ux, wx in zip(u, w)))
    pts = sorted(points)
    return [Simplex(piece) for piece in _cone_triangulation(pts, _facets_from_points(pts))]


def origin_in_interior(points) -> bool:
    """Exact test that 0 lies strictly inside conv(points).

    That holds exactly when the hull is full-dimensional and every outward
    facet <a, y> <= b has b > 0.
    """
    pts = sorted({rat_vector(p) for p in points})
    facets = _facets_from_points(pts) if pts else []
    return bool(facets) and all(f.offset > 0 for f in facets)
