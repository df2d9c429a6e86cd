import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fanokit import geometry, rational
from fanokit.errors import DegeneratePolytope, DegenerateSimplex, InputError
from fanokit.geometry import (
    AffineForm,
    Facet,
    RationalPolytope,
    Simplex,
    barycenter,
    halfspace_slice,
    origin_in_interior,
    polytope_from_json,
    triangulate,
    volume,
)

from fanokit.cli import _fixture_path
from fanokit.rational import integer_rows, rat, rat_vector, solve_square

from conftest import random_full_polytope
from geometry_reference import affine_rank
from oracles import _facet_hyperplanes, dot, hull_volume_boundary

F = Fraction


def _facets_from_points(points):
    """The facets of conv(points) as ``Facet`` views, the incidences indexing ``points``."""
    scale, facets = geometry._hull(*geometry._over(points))
    return [geometry._facet(scale, ray, incident) for ray, incident in facets]


UNIT_SQUARE = RationalPolytope.from_vertices([[0, 0], [1, 0], [0, 1], [1, 1]])
UNIT_TRIANGLE = RationalPolytope.from_vertices([[0, 0], [1, 0], [0, 1]])


def test_triangulate_unit_square():
    pieces = triangulate(UNIT_SQUARE)
    assert len(pieces) == 2
    assert all(s.volume() == Fraction(1, 2) for s in pieces)
    assert sum(s.volume() for s in pieces) == volume(UNIT_SQUARE)


def test_triangulate_segment():
    seg = RationalPolytope.interval(-1, 0)
    pieces = triangulate(seg)
    assert len(pieces) == 1
    assert pieces[0].volume() == 1


def test_triangulation_volume_additivity_random_3d(rng):
    for _ in range(4):
        poly = random_full_polytope(rng, 3)
        tri_total = sum(s.volume() for s in triangulate(poly))
        assert tri_total == volume(poly)
        assert tri_total == hull_volume_boundary(poly.vertices)


def test_triangulation_deterministic(rng):
    poly = random_full_polytope(rng, 3)
    first = [s.vertices for s in triangulate(poly)]
    shuffled = list(poly.vertices)
    rng.shuffle(shuffled)
    again = [s.vertices for s in RationalPolytope.from_vertices(shuffled).triangulate()]
    assert first == again


def test_volume_examples():
    assert volume(RationalPolytope.interval(-1, 1)) == 2
    assert volume(UNIT_TRIANGLE) == Fraction(1, 2)
    # V = n! * vol = 1 for the one-dimensional fixture used throughout
    assert volume(RationalPolytope.interval(-1, 0)) == 1


def test_volume_lower_dimensional_is_zero():
    flat = RationalPolytope.from_vertices([[0, 0], [1, 1]])
    assert not flat.full_dimensional
    assert volume(flat) == 0
    with pytest.raises(DegeneratePolytope):
        triangulate(flat)
    with pytest.raises(DegeneratePolytope):
        barycenter(flat)


def test_volume_4d_cube_matches_oracle():
    cube = RationalPolytope.from_vertices(
        [tuple(Fraction(b) for b in bits) for bits in
         [(i >> 3 & 1, i >> 2 & 1, i >> 1 & 1, i & 1) for i in range(16)]]
    )
    assert volume(cube) == 1
    assert hull_volume_boundary(cube.vertices) == 1


def test_halfspace_slice_trivial_cases():
    s = Simplex.make([[0, 0], [1, 0], [0, 1]])
    h = AffineForm.make([1, 1])
    assert halfspace_slice(s, h, -5) == [s]
    assert halfspace_slice(s, h, 5) == []
    # touching only at the max vertex: lower-dimensional
    assert halfspace_slice(s, h, 1) == []


def test_halfspace_slice_area():
    s = Simplex.make([[0, 0], [1, 0], [0, 1]])
    h = AffineForm.make([1, 1])
    pieces = halfspace_slice(s, h, Fraction(1, 2))
    # direct area formula: 1/2 - (1/2)(1/2)^2
    assert sum(p.volume() for p in pieces) == Fraction(3, 8)


def test_halfspace_slice_monotone_and_continuous(rng):
    s = Simplex.make([[0, 0, 0], [2, 0, 0], [0, 3, 0], [1, 1, 2]])
    h = AffineForm.make([1, -1, 2], Fraction(1, 3))
    levels = sorted(Fraction(rng.randint(-40, 60), 8) for _ in range(12))
    vols = [sum(p.volume() for p in halfspace_slice(s, h, lv)) for lv in levels]
    for a, b in zip(vols, vols[1:]):
        assert a >= b
    # continuity probe: nearby levels give nearby volumes
    for lv in (Fraction(1, 7), Fraction(5, 7)):
        v1 = sum(p.volume() for p in halfspace_slice(s, h, lv))
        v2 = sum(p.volume() for p in halfspace_slice(s, h, lv + Fraction(1, 10**8)))
        assert abs(float(v1 - v2)) < 1e-6


def test_slice_volumes_match_boundary_oracle(rng):
    s = Simplex.make([[0, 0], [2, 0], [0, 2]])
    h = AffineForm.make([1, 2], 0)
    for lv in (Fraction(1, 2), 1, 2, Fraction(7, 3)):
        pieces = halfspace_slice(s, h, lv)
        if not pieces:
            continue
        pts = sorted({v for p in pieces for v in p.vertices})
        assert sum(p.volume() for p in pieces) == hull_volume_boundary(pts)


def test_slice_and_complement_tile_higher_dims(rng):
    """vol(slice up) + vol(slice down) = vol(simplex), exactly, in 3-D and 4-D."""
    for n in (3, 4):
        for _ in range(3):
            while True:
                pts = [tuple(Fraction(rng.randint(-4, 4), 2) for _ in range(n))
                       for _ in range(n + 1)]
                try:
                    s = Simplex.make(pts)
                    break
                except DegenerateSimplex:
                    continue
            h = AffineForm.make([Fraction(rng.randint(-3, 3), 2) for _ in range(n)],
                                Fraction(rng.randint(-2, 2)))
            vals = [h(v) for v in s.vertices]
            level = sorted(vals)[len(vals) // 2] + Fraction(1, 7)
            up = sum((p.volume() for p in halfspace_slice(s, h, level)), Fraction(0))
            down = sum((p.volume() for p in halfspace_slice(s, h.scaled(-1), -level)),
                       Fraction(0))
            assert up + down == s.volume()


def test_barycenter_examples():
    assert barycenter(RationalPolytope.interval(-1, 1)) == (0,)
    assert barycenter(RationalPolytope.interval(-1, 0)) == (Fraction(-1, 2),)
    assert barycenter(UNIT_TRIANGLE) == (Fraction(1, 3), Fraction(1, 3))


def test_barycenter_containment(rng):
    for n in (2, 3):
        poly = random_full_polytope(rng, n)
        assert poly.contains(poly.barycenter(), strict=True)


def test_halfspace_construction_round_trip():
    cube = RationalPolytope.from_halfspaces(
        [([1, 0], 1), ([-1, 0], 0), ([0, 1], 1), ([0, -1], 0)], dim=2
    )
    assert sorted(cube.vertices) == sorted(
        [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
         (Fraction(0), Fraction(1)), (Fraction(1), Fraction(1))]
    )
    again = RationalPolytope.from_vertices(cube.vertices)
    assert set(again.halfspaces) == set(cube.halfspaces)


def test_unbounded_halfspaces_rejected():
    with pytest.raises(InputError):
        RationalPolytope.from_halfspaces([([1, 0], 1), ([0, 1], 1)], dim=2)


def test_interior_points_filtered():
    poly = RationalPolytope.from_vertices([[0, 0], [1, 0], [0, 1], [1, 1],
                                           [Fraction(1, 2), Fraction(1, 2)]])
    assert len(poly.vertices) == 4


def test_degenerate_simplex_rejected():
    with pytest.raises(DegenerateSimplex):
        Simplex.make([[0, 0], [1, 1], [2, 2]])


def test_json_rational_forms():
    doc = {
        "dim": 2,
        "vertices": [["-1/2", 0], [1, 0], [0, "0.25"]],
    }
    poly = polytope_from_json(doc)
    assert (Fraction(-1, 2), Fraction(0)) in poly.vertices
    assert (Fraction(0), Fraction(1, 4)) in poly.vertices
    back = poly.to_json()
    assert polytope_from_json(back).vertices == poly.vertices


def test_origin_interior():
    assert origin_in_interior([(-1,), (2,)])
    assert not origin_in_interior([(1,), (2,)])
    assert origin_in_interior([(-1, -1), (1, -1), (0, 2)])
    assert not origin_in_interior([(0, 0), (1, 0), (0, 1)])


def _origin_inside_hull(points):
    """Brute force: build every facet of the hull; 0 is strictly inside a
    full-dimensional hull exactly when every outward facet offset is positive."""
    pts = sorted({tuple(Fraction(x) for x in p) for p in points})
    if affine_rank(pts) < len(pts[0]):
        return False
    return all(offset > 0 for _, offset in _facet_hyperplanes(pts))


@st.composite
def point_sets(draw):
    """1-8 rational points in 1-4 D: free, with 0 among them, with 0 on a
    segment between two of them, or all on a hyperplane (through 0 or not)."""
    n = draw(st.integers(min_value=1, max_value=4))
    coord = st.one_of(st.integers(min_value=-3, max_value=3).map(Fraction),
                      st.fractions(min_value=-3, max_value=3, max_denominator=4))
    pts = draw(st.lists(st.tuples(*[coord] * n), min_size=1, max_size=8))
    kind = draw(st.sampled_from(("free", "origin", "segment", "linear-flat", "affine-flat")))
    if kind == "origin":
        pts.append((Fraction(0),) * n)
    elif kind == "segment":
        c = draw(st.sampled_from((Fraction(1), Fraction(1, 3), Fraction(5, 2))))
        pts += [pts[0], tuple(-c * x for x in pts[0])]
    elif kind == "linear-flat":
        pts = [p[:-1] + (Fraction(0),) for p in pts]
    elif kind == "affine-flat":
        pts = [p[:-1] + (Fraction(1),) for p in pts]
    return pts


@settings(max_examples=150, deadline=None)
@given(point_sets())
@example([(1, 0), (-1, 0), (0, 1)])  # 0 on an edge
@example([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1)])  # 0 on an edge in 3-D
@example([(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1)])  # 0 inside a facet
@example([(1, 1, 0), (-1, 0, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)])  # 0 interior
@example([(0, 0), (1, 1), (-2, -2)])  # rank one, 0 among the points
@example([(-1, -1), (1, -1), (0, 2), (0, 0)])  # interior, 0 among the points
@example([(0,)])
@example([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, -1, -1, -1)])
@example([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, -1, -1, 0)])
def test_origin_interior_matches_hull(points):
    assert origin_in_interior(points) == _origin_inside_hull(points)


def _subset_vertices(halfspaces, n):
    """Reference vertex enumeration: solve every n-subset of the halfspaces as
    equations and keep the solutions that satisfy all of them."""
    verts = set()
    for subset in itertools.combinations(range(len(halfspaces)), n):
        sol = solve_square([list(halfspaces[i][0]) for i in subset],
                           [halfspaces[i][1] for i in subset])
        if sol is not None and all(dot(a, sol) <= b for a, b in halfspaces):
            verts.add(sol)
    return sorted(verts)


@st.composite
def halfspace_systems(draw):
    """Up to four free halfspaces in 1-4 D, often inside a box, plus up to two of:
    the reverse of one (an equality pair, so the set is lower-dimensional), a
    duplicate, a loosened copy (redundant) and a reverse moved past it (empty)."""
    n = draw(st.integers(min_value=1, max_value=4))
    coord = st.one_of(st.integers(min_value=-3, max_value=3).map(Fraction),
                      st.fractions(min_value=-3, max_value=3, max_denominator=4))
    spaces = draw(st.lists(st.tuples(st.tuples(*[coord] * n), coord), min_size=1, max_size=4))
    if draw(st.booleans()):
        side = st.integers(min_value=1, max_value=3).map(Fraction)
        for i in range(n):
            unit = tuple(Fraction(int(i == j)) for j in range(n))
            spaces += [(unit, draw(side)), (tuple(-x for x in unit), draw(side))]
    for extra in draw(st.lists(st.sampled_from(("equality", "duplicate", "redundant", "empty")),
                               max_size=2)):
        a, b = spaces[draw(st.integers(min_value=0, max_value=len(spaces) - 1))]
        minus = tuple(-x for x in a)
        spaces.append({"equality": (minus, -b), "duplicate": (a, b), "redundant": (a, b + 1),
                       "empty": (minus, -b - 1)}[extra])
    return n, spaces


@settings(max_examples=200, deadline=None)
@given(halfspace_systems())
@example((2, [((F(1), F(0)), F(1)), ((F(-1), F(0)), F(0)), ((F(0), F(1)), F(1)),
              ((F(0), F(-1)), F(0))]))  # the unit square
@example((2, [((F(1), F(0)), F(1)), ((F(-1), F(0)), F(-1)), ((F(0), F(1)), F(1)),
              ((F(0), F(-1)), F(0)), ((F(-1), F(-1)), F(0))]))  # a segment, by an equality pair
@example((2, [((F(1), F(0)), F(0)), ((F(-1), F(0)), F(-1)), ((F(0), F(1)), F(1)),
              ((F(0), F(-1)), F(1))]))  # empty
@example((2, [((F(0), F(-1)), F(0)), ((F(-1), F(0)), F(0)), ((F(-1), F(-2)), F(-2)),
              ((F(-2), F(-1)), F(-2))]))  # unbounded, three vertices spanning Q^2
@example((3, [((F(1), F(0), F(0)), F(1)), ((F(-1), F(0), F(0)), F(1))]))  # normals of rank 1
def test_polar_vertices_match_subset_reference(system):
    n, spaces = system
    den, rows, bounded = geometry._vertices_from_halfspaces(
        integer_rows((b, *(-x for x in a)) for a, b in spaces), n)
    vertices = [tuple(Fraction(x, den) for x in row) for row in rows]
    assert vertices == _subset_vertices(spaces, n)
    assert bounded == origin_in_interior([a for a, _ in spaces])
    if not bounded:
        with pytest.raises(InputError, match="unbounded"):
            RationalPolytope.from_halfspaces(spaces, n)
    elif not vertices:
        with pytest.raises(InputError, match="empty"):
            RationalPolytope.from_halfspaces(spaces, n)
    else:
        assert list(RationalPolytope.from_halfspaces(spaces, n).vertices) == vertices


BOX3 = RationalPolytope.from_vertices(
    [[x, y, z] for x in (0, 2) for y in (-1, 1) for z in (0, 3)])


def test_hull_and_triangulation_computed_once(monkeypatch):
    box = RationalPolytope.from_vertices(BOX3.vertices)
    calls = []
    search = geometry._hull

    def counted(den, points):
        calls.append(len(points))
        return search(den, points)

    monkeypatch.setattr(geometry, "_hull", counted)
    box.triangulate()
    after_first = len(calls)
    for _ in range(3):
        box.facets()
        box.triangulate()
        box.volume()
        box.barycenter()
        assert box.project(3) is box
    assert len(calls) == after_first


def test_polytope_from_points_runs_one_double_description(monkeypatch):
    """A hull built from points is not checked against itself by a second _extreme_rays."""
    calls = []
    search = geometry._extreme_rays

    def counted(rows):
        calls.append(len(rows))
        return search(rows)

    monkeypatch.setattr(geometry, "_extreme_rays", counted)
    box = RationalPolytope.from_vertices(BOX3.vertices)
    assert calls == [8] and box == BOX3


@pytest.mark.parametrize("points", [
    list(itertools.product([-1, 2], repeat=4)),
    [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)],
], ids=["box4", "hexagon"])
def test_polytope_from_points_runs_one_elimination(monkeypatch, points):
    """One hull from points is one elimination, the seed cone's: the vertices come
    from the facets' zero sets, with no rank test per point."""
    calls = []
    eliminate = rational._bareiss

    def counted(*args, **kwargs):
        calls.append(len(args[0]))
        return eliminate(*args, **kwargs)

    # geometry imports the name, so both bindings are counted
    monkeypatch.setattr(rational, "_bareiss", counted)
    monkeypatch.setattr(geometry, "_bareiss", counted)
    poly = RationalPolytope.from_vertices(points)
    assert len(calls) == 1 and sorted(poly.vertices) == sorted(map(rat_vector, points))


def test_cached_lists_are_copies():
    box = RationalPolytope.from_vertices(BOX3.vertices)
    facets, cells = box.facets(), box.triangulate()
    want_facets, want_cells = list(facets), list(cells)
    facets.clear()
    cells.pop()
    assert box.facets() == want_facets and box.triangulate() == want_cells
    assert volume(box) == 12 and box.barycenter() == (1, 0, Fraction(3, 2))


def test_cached_facets_index_kept_vertices(rng):
    # interior and non-extreme input points must not shift the incidences
    for n in (2, 3):
        for _ in range(4):
            poly = random_full_polytope(rng, n, npts=n + 6)
            assert poly.facets() == _facets_from_points(list(poly.vertices))


def _oracle_facets(points):
    """Hyperplanes from the independent subset search of tests/oracles.py, each
    with the indices of the points lying on it."""
    return sorted((normal, offset, tuple(i for i, p in enumerate(points)
                                         if dot(normal, p) == offset))
                  for normal, offset in _facet_hyperplanes(points))


@st.composite
def hull_inputs(draw):
    """2-9 rational points in 1-4 D spanning Q^n, plus up to three repeats,
    midpoints (on an edge or inside) and the centroid."""
    n = draw(st.integers(min_value=1, max_value=4))
    coord = st.one_of(st.integers(min_value=-3, max_value=3).map(Fraction),
                      st.fractions(min_value=-3, max_value=3, max_denominator=4))
    pts = draw(st.lists(st.tuples(*[coord] * n), min_size=n + 1, max_size=9))
    assume(affine_rank(pts) == n)
    for extra in draw(st.lists(st.sampled_from(("repeat", "midpoint", "centroid")), max_size=3)):
        i, j = draw(st.integers(0, len(pts) - 1)), draw(st.integers(0, len(pts) - 1))
        if extra == "repeat":
            pts.append(pts[i])
        elif extra == "midpoint":
            pts.append(tuple((a + b) / 2 for a, b in zip(pts[i], pts[j])))
        else:
            pts.append(tuple(sum(c) / len(pts) for c in zip(*pts)))
    return pts


def _grid(*axes):
    return [tuple(Fraction(c) for c in v) for v in itertools.product(*axes)]


@settings(max_examples=200, deadline=None)
@given(hull_inputs())
@example(_grid(*[(0, 2)] * 4) + _grid(*[(1,)] * 4))  # the 4-cube with its centre
@example(_grid((0, 1, 2), (0, 1), (0, 1)))  # 2x1x1 grid of cubes: non-simplicial facets
@example([tuple(Fraction(s * (i == j)) for j in range(4))  # the 4-D cross-polytope
          for i in range(4) for s in (1, -1)])
@example(_grid((0, 2), (0, 2)) + _grid((0, 1, 2), (0,)) + _grid((2,), (2,)))  # collinear, repeated
@example(_grid((0, 1, 2, 3)) + _grid((1, 3)))  # 1-D, repeated
def test_facets_match_subset_oracle(points):
    facets = _facets_from_points(points)
    assert sorted((f.normal, f.offset, f.incident) for f in facets) == _oracle_facets(points)


L = F(-1)  # every side of the pinned box starts at -1
X, Y, Z, W = F(21, 20), F(26, 25), F(51, 50), F(101, 100)
BOX4 = RationalPolytope.from_vertices(itertools.product((L, X), (L, Y), (L, Z), (L, W)))

BOX4_JSON = {
    "dim": 4,
    "vertices": [[x, y, z, w] for x in ("-1", "21/20") for y in ("-1", "26/25")
                 for z in ("-1", "51/50") for w in ("-1", "101/100")],
    "halfspaces": [
        {"normal": ["-1", "0", "0", "0"], "offset": "1"},
        {"normal": ["0", "-1", "0", "0"], "offset": "1"},
        {"normal": ["0", "0", "-1", "0"], "offset": "1"},
        {"normal": ["0", "0", "0", "-1"], "offset": "1"},
        {"normal": ["0", "0", "0", "100"], "offset": "101"},
        {"normal": ["0", "0", "50", "0"], "offset": "51"},
        {"normal": ["0", "25", "0", "0"], "offset": "26"},
        {"normal": ["20", "0", "0", "0"], "offset": "21"},
    ],
}

BOX4_FACETS = [
    Facet((F(-1), F(0), F(0), F(0)), F(1), (0, 1, 2, 3, 4, 5, 6, 7)),
    Facet((F(0), F(-1), F(0), F(0)), F(1), (0, 1, 2, 3, 8, 9, 10, 11)),
    Facet((F(0), F(0), F(-1), F(0)), F(1), (0, 1, 4, 5, 8, 9, 12, 13)),
    Facet((F(0), F(0), F(0), F(-1)), F(1), (0, 2, 4, 6, 8, 10, 12, 14)),
    Facet((F(0), F(0), F(0), F(100)), F(101), (1, 3, 5, 7, 9, 11, 13, 15)),
    Facet((F(0), F(0), F(50), F(0)), F(51), (2, 3, 6, 7, 10, 11, 14, 15)),
    Facet((F(0), F(25), F(0), F(0)), F(26), (4, 5, 6, 7, 12, 13, 14, 15)),
    Facet((F(20), F(0), F(0), F(0)), F(21), (8, 9, 10, 11, 12, 13, 14, 15)),
]

BOX4_CELLS = [
    ((L, L, L, L), (L, L, L, W), (L, L, Z, W), (L, Y, Z, W), (X, Y, Z, W)),
    ((L, L, L, L), (L, L, L, W), (L, L, Z, W), (X, L, Z, W), (X, Y, Z, W)),
    ((L, L, L, L), (L, L, L, W), (L, Y, L, W), (L, Y, Z, W), (X, Y, Z, W)),
    ((L, L, L, L), (L, L, L, W), (L, Y, L, W), (X, Y, L, W), (X, Y, Z, W)),
    ((L, L, L, L), (L, L, L, W), (X, L, L, W), (X, L, Z, W), (X, Y, Z, W)),
    ((L, L, L, L), (L, L, L, W), (X, L, L, W), (X, Y, L, W), (X, Y, Z, W)),
    ((L, L, L, L), (L, L, Z, L), (L, L, Z, W), (L, Y, Z, W), (X, Y, Z, W)),
    ((L, L, L, L), (L, L, Z, L), (L, L, Z, W), (X, L, Z, W), (X, Y, Z, W)),
    ((L, L, L, L), (L, L, Z, L), (L, Y, Z, L), (L, Y, Z, W), (X, Y, Z, W)),
    ((L, L, L, L), (L, L, Z, L), (L, Y, Z, L), (X, Y, Z, L), (X, Y, Z, W)),
    ((L, L, L, L), (L, L, Z, L), (X, L, Z, L), (X, L, Z, W), (X, Y, Z, W)),
    ((L, L, L, L), (L, L, Z, L), (X, L, Z, L), (X, Y, Z, L), (X, Y, Z, W)),
    ((L, L, L, L), (L, Y, L, L), (L, Y, L, W), (L, Y, Z, W), (X, Y, Z, W)),
    ((L, L, L, L), (L, Y, L, L), (L, Y, L, W), (X, Y, L, W), (X, Y, Z, W)),
    ((L, L, L, L), (L, Y, L, L), (L, Y, Z, L), (L, Y, Z, W), (X, Y, Z, W)),
    ((L, L, L, L), (L, Y, L, L), (L, Y, Z, L), (X, Y, Z, L), (X, Y, Z, W)),
    ((L, L, L, L), (L, Y, L, L), (X, Y, L, L), (X, Y, L, W), (X, Y, Z, W)),
    ((L, L, L, L), (L, Y, L, L), (X, Y, L, L), (X, Y, Z, L), (X, Y, Z, W)),
    ((L, L, L, L), (X, L, L, L), (X, L, L, W), (X, L, Z, W), (X, Y, Z, W)),
    ((L, L, L, L), (X, L, L, L), (X, L, L, W), (X, Y, L, W), (X, Y, Z, W)),
    ((L, L, L, L), (X, L, L, L), (X, L, Z, L), (X, L, Z, W), (X, Y, Z, W)),
    ((L, L, L, L), (X, L, L, L), (X, L, Z, L), (X, Y, Z, L), (X, Y, Z, W)),
    ((L, L, L, L), (X, L, L, L), (X, Y, L, L), (X, Y, L, W), (X, Y, Z, W)),
    ((L, L, L, L), (X, L, L, L), (X, Y, L, L), (X, Y, Z, L), (X, Y, Z, W)),
]


def test_box4d_pinned():
    """The benchmark's 4-D box as the subset-search hull built it: document,
    facets with incidences, and the 24 cells in canonical order."""
    assert BOX4.to_json() == BOX4_JSON
    assert BOX4.facets() == BOX4_FACETS
    assert _facets_from_points(list(BOX4.vertices)) == BOX4_FACETS
    assert [s.vertices for s in BOX4.triangulate()] == BOX4_CELLS


def _stated(doc):
    return ([rat_vector(v) for v in doc["vertices"]],
            [(rat_vector(h["normal"]), rat(h["offset"])) for h in doc["halfspaces"]])


# the benchmark's symmetric3d-1 polytope (seed 1, round 0) as from_vertices stores it
SYMMETRIC3_JSON = {
    "dim": 3,
    "vertices": [["-2", "1", "1"], ["-2", "2", "-2"], ["-1", "2", "-2"], ["0", "-2", "1"],
                 ["0", "2", "-1"], ["1", "-2", "2"], ["2", "-2", "2"], ["2", "-1", "-1"]],
    "halfspaces": [{"normal": a, "offset": b} for a, b in [
        (["-9", "-6", "-2"], "10"), (["-3", "-2", "3"], "7"), (["-1", "-2", "-2"], "2"),
        (["-1", "6", "2"], "10"), (["0", "-1", "-3"], "4"), (["0", "-1", "0"], "2"),
        (["0", "1", "0"], "2"), (["0", "1", "3"], "4"), (["1", "-6", "-2"], "10"),
        (["1", "2", "2"], "2"), (["3", "2", "-3"], "7"), (["9", "6", "2"], "10")]],
}


# the lattice hexagon of the bundled fixture
HEXAGON_JSON = json.loads(Path(_fixture_path("symmetric_polytopes.json")).read_text())["polytope"]


@pytest.mark.parametrize("doc", [BOX4_JSON, SYMMETRIC3_JSON, HEXAGON_JSON],
                         ids=["box4d", "symmetric3d", "hexagon"])
def test_cross_check_mutations_match_subset_reference(doc):
    """The constructor's cross-check rejects a mutated description exactly when
    the subset enumeration of the stated halfspaces misses the stated vertices."""
    n = doc["dim"]
    verts, spaces = _stated(doc)
    assert RationalPolytope.from_vertices(verts).to_json() == doc
    half = Fraction(1, 2)
    cases = [(verts, spaces)]
    for i, (a, b) in enumerate(spaces):
        rest = spaces[:i] + spaces[i + 1:]
        a2, b2 = spaces[i - 1]
        # drop the facet, shift it in or out, add a loosened copy or the sum with a neighbour
        cases += [(verts, rest), (verts, rest + [(a, b - half)]), (verts, rest + [(a, b + half)]),
                  (verts, spaces + [(a, b + 1)]),
                  (verts, spaces + [(tuple(x + y for x, y in zip(a, a2)), b + b2)])]
    for j, v in enumerate(verts):
        rest = verts[:j] + verts[j + 1:]
        w = verts[j - 1]
        # drop the vertex, move it, add the midpoint of an edge or a diagonal
        cases += [(rest, spaces), (rest + [(v[0] + Fraction(1, 3),) + v[1:]], spaces),
                  (verts + [tuple((x + y) / 2 for x, y in zip(v, w))], spaces)]
    cases.append((verts + [tuple(sum(c) / len(verts) for c in zip(*verts))], spaces))
    verdicts = []
    for vs, hs in cases:
        agree = sorted(vs) == _subset_vertices(hs, n)
        verdicts.append(agree)
        if agree:
            RationalPolytope(n, tuple(vs), tuple(hs), True)
        else:
            with pytest.raises(InputError, match="disagree"):
                RationalPolytope(n, tuple(vs), tuple(hs), True)
    # only the stated description and its two redundant additions per facet agree
    assert verdicts.count(True) == 1 + 2 * len(spaces) and verdicts.count(False) > 0


def _subset_in_hull(p, points):
    """Reference membership of p in conv(points), the points spanning a flat of
    dimension d: solve sum t_i v_i = p, sum t_i = 1 on every (d + 1)-subset of
    the points and every square choice of equations, and look for t >= 0."""
    pts = list(points)
    if len(pts) == 1:
        return p == pts[0]
    d = affine_rank(pts)
    for subset in itertools.combinations(pts, d + 1):
        rows = [[v[i] for v in subset] for i in range(len(p))] + [[Fraction(1)] * len(subset)]
        rhs = list(p) + [Fraction(1)]
        sq = len(subset)
        for rsel in itertools.combinations(range(len(rows)), sq):
            sol = solve_square([rows[i] for i in rsel], [rhs[i] for i in rsel])
            if sol is None or any(t < 0 for t in sol):
                continue
            combo = [sum(sol[j] * subset[j][i] for j in range(sq)) for i in range(len(p))]
            if tuple(combo) == p and sum(sol) == 1:
                return True
    return False


@st.composite
def flat_hulls(draw):
    """A segment, triangle or tetrahedron in 2-4 D, sometimes with an extra point
    of its flat, and a query point: a vertex, a convex or an affine combination
    of the vertices (on the flat), or a free point (mostly off it)."""
    n = draw(st.integers(min_value=2, max_value=4))
    k = draw(st.integers(min_value=1, max_value=min(3, n - 1)))
    coord = st.one_of(st.integers(min_value=-3, max_value=3).map(Fraction),
                      st.fractions(min_value=-3, max_value=3, max_denominator=4))
    pts = draw(st.lists(st.tuples(*[coord] * n), min_size=k + 1, max_size=k + 1))
    assume(affine_rank(pts) == k)

    def combination(weights):
        total = sum(weights)
        return tuple(sum(w * p[i] for w, p in zip(weights, pts)) / total for i in range(n))

    nonneg = st.lists(st.integers(min_value=0, max_value=3).map(Fraction),
                      min_size=k + 1, max_size=k + 1).filter(any)
    signed = st.lists(st.integers(min_value=-3, max_value=3).map(Fraction),
                      min_size=k + 1, max_size=k + 1).filter(sum)
    if draw(st.booleans()):
        pts.append(combination(draw(signed)))
    kind = draw(st.sampled_from(("vertex", "convex", "affine", "free")))
    if kind == "vertex":
        query = draw(st.sampled_from(pts))
    elif kind == "convex":
        query = combination(draw(nonneg))
    elif kind == "affine":
        query = combination(draw(signed))
    else:
        query = draw(st.tuples(*[coord] * n))
    return pts, query


@settings(max_examples=200, deadline=None)
@given(flat_hulls())
@example(([(F(0), F(0)), (F(2), F(2))], (F(1), F(1))))  # segment midpoint
@example(([(F(0), F(0)), (F(2), F(2))], (F(3), F(3))))  # on the line, past the end
@example(([(F(0), F(0), F(0)), (F(1), F(0), F(0)), (F(0), F(1), F(0))],
          (F(1, 2), F(1, 2), F(0))))  # on an edge of a triangle in 3-D
@example(([(F(0), F(0), F(0)), (F(1), F(0), F(0)), (F(0), F(1), F(0))],
          (F(1, 4), F(1, 4), F(1))))  # above the triangle
def test_flat_contains_matches_subset_reference(case):
    pts, query = case
    poly = RationalPolytope.from_vertices(pts)
    assert not poly.full_dimensional
    on_flat = affine_rank(list(poly.vertices) + [query]) == affine_rank(poly.vertices)
    assert poly.contains(query) == (on_flat and _subset_in_hull(query, poly.vertices))


def test_halfspace_slice_pinned_3d():
    """Two vertices kept, four edges cut: the hull of six points, in three
    pieces, exactly as the hand-built facet list of the cut gave them."""
    s = Simplex.make([[0, 0, 0], [2, 0, 0], [0, 3, 0], [1, 1, 2]])
    h = AffineForm.make([1, -1, 2], Fraction(1, 3))
    a, b = (F(1, 24), F(1, 24), F(1, 12)), (F(1, 6), F(0), F(0))
    c, d = (F(19, 15), F(11, 10), F(0)), (F(2), F(0), F(0))
    e, f = (F(19, 42), F(44, 21), F(19, 21)), (F(1), F(1), F(2))
    pieces = halfspace_slice(s, h, Fraction(1, 2))
    assert [p.vertices for p in pieces] == [(a, b, c, d), (a, d, e, f), (a, d, c, e)]
