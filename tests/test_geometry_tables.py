"""Polytopes, simplices and affine pieces on integer tables equal the ``Fraction`` reference.

Random rational point clouds in 1-4 dimensions (repeats, non-vertex points
and lower-dimensional clouds included) and random piecewise-linear
transforms over Kuhn-triangulated boxes must give exactly (``==``) what the
``Fraction`` code in ``geometry_reference`` gives: the same rationals, and
the same doubles bit for bit.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import geometry_reference as ref
from fanokit.errors import InputError
from fanokit.expint import PLConcaveFunction
from fanokit.geometry import (
    AffineForm,
    RationalPolytope,
    Simplex,
    halfspace_slice,
    origin_in_interior,
)
from fanokit.optimize import _SolitonObjective
from fanokit.serialize import dumps_canonical

F = Fraction
COORD = st.fractions(min_value=-3, max_value=3, max_denominator=6)
SCALE = st.fractions(min_value=F(1, 5), max_value=5, max_denominator=7)


def _combination(points, weights):
    total = sum(weights)
    return tuple(sum(w * p[i] for w, p in zip(weights, points)) / total
                 for i in range(len(points[0])))


@st.composite
def clouds(draw):
    """(points, queries): a cloud in 1-4 D, spanning or on a flat, and points to test
    for membership: the cloud's points, convex and affine combinations of them and
    free points."""
    n = draw(st.integers(min_value=1, max_value=4))
    k = n if draw(st.integers(min_value=0, max_value=3)) else draw(
        st.integers(min_value=0, max_value=n - 1))
    base = draw(st.lists(st.tuples(*[COORD] * n), min_size=k + 1, max_size=k + 1))
    assume(ref.affine_rank(base) == k)
    extra = draw(st.integers(min_value=0, max_value=8 - n))
    weights = st.lists(st.integers(min_value=-2, max_value=3).map(F), min_size=k + 1,
                       max_size=k + 1).filter(sum)
    points = base + [_combination(base, draw(weights)) for _ in range(extra)]
    if draw(st.booleans()):
        points.append(draw(st.sampled_from(points)))  # a repeat
    points = draw(st.permutations(points))
    convex = st.lists(st.integers(min_value=0, max_value=3).map(F), min_size=len(points),
                      max_size=len(points)).filter(any)
    queries = [draw(st.sampled_from(points)), _combination(points, draw(convex)),
               _combination(base, draw(weights)), draw(st.tuples(*[COORD] * n))]
    return points, queries


def _check_cross_validation(n, verts, spaces):
    """The constructor accepts a description exactly when the reference cross-check does."""
    half = F(1, 2)
    spaces = list(spaces)
    (a, b), rest = spaces[0], spaces[1:]
    for hs in (spaces, rest, rest + [(a, b + half)], rest + [(a, b - half)],
               spaces + [(tuple(2 * x for x in a), 2 * b + 1)]):
        if ref.agrees(verts, hs, n):
            RationalPolytope(n, verts, hs, True)
        else:
            with pytest.raises(InputError, match="disagree"):
                RationalPolytope(n, verts, hs, True)


@settings(max_examples=150, deadline=None)
@given(clouds())
@example(([(F(0),), (F(1, 2),), (F(1, 3),)], [(F(1, 2),), (F(2, 3),), (F(0),), (F(-1),)]))
@example(([(F(0), F(0)), (F(2), F(0)), (F(0), F(2)), (F(2), F(2)), (F(1), F(1)), (F(2), F(1))],
          [(F(1), F(1)), (F(2), F(1)), (F(0), F(3)), (F(1, 2), F(0))]))
@example(([(F(0), F(0), F(0)), (F(1), F(0), F(0)), (F(0), F(1), F(0))],
          [(F(1, 2), F(1, 2), F(0)), (F(1, 4), F(1, 4), F(1)), (F(1), F(1), F(0)),
           (F(0), F(0), F(0))]))
def test_polytope_tables_match_reference(case):
    points, queries = case
    poly = RationalPolytope.from_vertices(points)
    n, verts, spaces, full, facets = ref.from_vertices(points)
    assert (poly.dim, poly.vertices, poly.halfspaces, poly.full_dimensional) == (
        n, verts, spaces, full)
    assert origin_in_interior(points) == ref.origin_in_interior(points)
    for q in queries:
        assert poly.contains(q) == ref.contains(verts, spaces, full, q)
    assert RationalPolytope(n, verts, spaces, full) == poly
    if not full:
        assert poly.volume() == 0
        return
    for q in queries:
        assert poly.contains(q, strict=True) == ref.contains(verts, spaces, full, q, strict=True)
    assert [(f.normal, f.offset, f.incident) for f in poly.facets()] == list(facets)
    pieces = ref.cone_triangulation(list(verts), facets)
    cells = poly.triangulate()
    assert [s.vertices for s in cells] == pieces
    assert [s.edge_determinant() for s in cells] == [ref.edge_determinant(p) for p in pieces]
    assert [s.volume() for s in cells] == [ref.simplex_volume(p) for p in pieces]
    assert poly.volume() == ref.volume(pieces)
    assert poly.barycenter() == ref.barycenter(pieces, n)
    assert poly.to_json() == {
        "dim": n, "vertices": [[str(x) for x in v] for v in verts],
        "halfspaces": [{"normal": [str(x) for x in a], "offset": str(b)} for a, b in spaces]}
    # the soliton objective's floats, each the exact value rounded once
    objective = _SolitonObjective(poly, n)
    assert objective.points.tolist() == [[[float(x) for x in v] for v in p] for p in pieces]
    assert objective.log_scale.tolist() == np.log(
        [float(abs(ref.edge_determinant(p))) for p in pieces]).tolist()
    assert objective.log_vol == math.log(float(ref.volume(pieces)))
    # the halfspace description, stated scaled and in another order, gives the same hull
    scaled = [(tuple(x * (i + 2) for x in a), b * (i + 2)) for i, (a, b) in enumerate(spaces)]
    assert RationalPolytope.from_halfspaces(scaled[::-1], n) == poly
    assert ref.vertices_from_halfspaces(scaled, n) == (list(verts), True)
    _check_cross_validation(n, verts, spaces)


@st.composite
def transforms(draw):
    """(cells, xi, level, (a, b)): a piecewise-linear function with random rational
    vertex values on a Kuhn-triangulated box of side h moved by an offset, as
    (vertices, gradient, constant) cells in Fractions."""
    n = draw(st.integers(min_value=1, max_value=4))
    shape = draw(st.tuples(*[st.integers(min_value=1, max_value=3 if n == 1 else 2)] * n)
                 .filter(lambda s: math.prod(s) * math.factorial(len(s)) <= 24))
    h, offset = draw(SCALE), draw(st.tuples(*[COORD] * n))
    values = {}
    cells = []
    for corner in itertools.product(*(range(k) for k in shape)):
        for perm in itertools.permutations(range(n)):
            walk = [list(corner)]
            for axis in perm:
                walk.append(list(walk[-1]))
                walk[-1][axis] += 1
            verts = tuple(tuple(o + h * x for o, x in zip(offset, p)) for p in walk)
            for v in verts:
                if v not in values:
                    values[v] = draw(COORD)
            grad = [F(0)] * n
            for j, axis in enumerate(perm):
                grad[axis] = (values[verts[j + 1]] - values[verts[j]]) / h
            cells.append((verts, tuple(grad), values[verts[0]] - ref.dot(grad, verts[0])))
    cells = draw(st.permutations(cells))
    xi = draw(st.lists(COORD, min_size=0, max_size=n))
    lo, hi = min(values.values()), max(values.values())
    level = draw(st.sampled_from(sorted(values.values())) | st.just((lo + hi) / 2) | COORD)
    return cells, xi, level, (draw(SCALE), draw(COORD))


def _doc(cells, certified=False):
    return {"concave_certificate": certified, "cells": [
        {"simplex": [[str(x) for x in v] for v in verts],
         "affine": {"gradient": [str(g) for g in grad], "constant": str(const)}}
        for verts, grad, const in cells]}


def _exact_cells(G):
    """Per cell: the node table's vertex values read as Fractions, and the exact n! vol."""
    d, values = G._node_table[:2]
    return tuple((tuple(Fraction(v, d) for v in vals), abs(s.edge_determinant()))
                 for (s, _), vals in zip(G.cells, values))


@settings(max_examples=100, deadline=None)
@given(transforms())
def test_pl_tables_match_reference(case):
    cells, xi, level, (a, b) = case
    G = PLConcaveFunction.from_json(_doc(cells))
    cells = ref.canonical_cells(cells)
    assert [(s.vertices, f.gradient, f.constant) for s, f in G.cells] == cells
    assert _exact_cells(G) == ref.cell_table(cells)
    assert G._node_table[2:] == ref.node_floats(cells)
    values = [v for vals, _ in ref.cell_table(cells) for v in vals]
    assert (G.min_value(), G.max_value()) == (min(values), max(values))
    e, pairs = G._pairings(xi)
    assert tuple(tuple(p / e for p in row) for row in pairs) == ref.pairing_floats(cells, xi)
    assert PLConcaveFunction.from_json(G.to_json()) == G
    # the rescaled transform maps only the value numerators
    R = G.rescaled(a, b)
    moved = ref.rescaled(cells, a, b)
    assert [(s.vertices, f.gradient, f.constant) for s, f in R.cells] == moved
    assert _exact_cells(R) == ref.cell_table(moved)
    assert R._node_table[2:] == ref.node_floats(moved)
    assert R._pairings(xi) == (e, pairs)
    for (s, f), (verts, grad, const) in zip(G.cells, cells):
        assert ([p.vertices for p in halfspace_slice(s, f, level)]
                == ref.halfspace_slice(verts, grad, const, level))


@settings(max_examples=60, deadline=None)
@given(transforms(), st.integers(min_value=0, max_value=3), COORD, st.booleans(),
       st.sampled_from([F(0), F(1, 7)]))
def test_pl_validation_matches_reference(case, which, bump, certified, shift):
    """A transform with one piece moved or none, on its domain or on the domain moved
    by ``shift`` along the first axis: accepted exactly when the reference checks
    pass, and rejected by the same check."""
    cells, _, _, _ = case
    domain = RationalPolytope.from_vertices([(v[0] + shift, *v[1:])
                                             for verts, _, _ in cells for v in verts])
    verts, grad, const = cells[which % len(cells)]
    moved = list(cells)
    moved[which % len(cells)] = (verts, grad, const + bump)
    want = ref.validate(moved, domain.vertices, domain.halfspaces, domain.volume(), certified)
    if want is None:
        PLConcaveFunction.from_json(_doc(moved, certified), domain)
    else:
        with pytest.raises(InputError, match=want):
            PLConcaveFunction.from_json(_doc(moved, certified), domain)


def _least_table(rows):
    """(d, each row times d) for the least positive common denominator d, by hand."""
    d = math.lcm(*(F(x).denominator for r in rows for x in r))
    return d, [[int(x * d) for x in r] for r in rows]


def _same_object(a, b, doc):
    assert a == b and hash(a) == hash(b)
    assert dumps_canonical(doc(a)) == dumps_canonical(doc(b))


@settings(max_examples=80, deadline=None)
@given(clouds(), st.lists(COORD, min_size=5, max_size=5),
       st.integers(min_value=-6, max_value=6).filter(bool))
def test_table_entry_points_are_canonical(case, coefficients, k):
    """A polytope, a simplex and an affine form built from rationals equal the ones their
    table entry points build from k times the least tables (k < 0 included): the same
    ``==``, hash and JSON bytes."""
    points, _ = case
    poly = RationalPolytope.from_vertices(points)
    n, verts, spaces, full = poly.dim, poly.vertices, poly.halfspaces, poly.full_dimensional
    den, rows = _least_table(verts)
    hden, rays = _least_table([(b, *(-x for x in a)) for a, b in spaces])
    tables = RationalPolytope._from_tables(n, full, k * den, [[k * x for x in r] for r in rows],
                                           k * hden, [[k * x for x in r] for r in rays])
    _same_object(RationalPolytope(n, verts, spaces, full), tables, RationalPolytope.to_json)
    if not full:
        return
    simplex = poly.triangulate()[0]
    gradient, constant = coefficients[:n], coefficients[n]
    den, rows = _least_table(simplex.vertices)
    fden, ((*grad, const),) = _least_table([(*gradient, constant)])
    s1, f1 = Simplex.make(simplex.vertices), AffineForm.make(gradient, constant)
    s2 = Simplex(k * den, [[k * x for x in r] for r in rows])
    f2 = AffineForm(k * fden, [k * g for g in grad], k * const)
    # a simplex and a form serialize as a cell of a transform
    _same_object(s1, s2, lambda s: PLConcaveFunction(poly, ((s, f1),)).to_json())
    _same_object(f1, f2, lambda f: PLConcaveFunction(poly, ((s1, f),)).to_json())
