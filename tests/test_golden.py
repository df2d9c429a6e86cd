"""Golden bytes: the sha256 of whole CLI artifacts, pinned.

Each document runs through ``cli.main`` and its output file is hashed.  The
filtration hashes were taken at 08fd011, before filtration levels and atomic
measures moved to integer tables; the geometry hashes (soliton, report on
transforms, rescale, cone) at d2658ff, before polytopes, simplices and affine
pieces moved to integer tables; the three benchmark-sized documents (a
``distance`` over dims 17-27, a ``degenerate`` in degree 5 of three variables,
a ``dh`` against a 2-D pushforward) at 80e2a41, before the filtration
commands dropped their ``Fraction`` rows.  The rescale and cone hashes were re-pinned
when both began to read the support's exact ends and the document's exact A and s:
rescale shifts T3 by its exact minimum 16711/14400, and cone rounds each value once
(at s = 3/10 its value is 100/51).  So any drift in a value, an ordering or a
rational's formatting fails here.
"""

import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from fanokit.cli import _fixture_path, main

P1 = _fixture_path("p1_example.json")

# explicit, non-identity adapted bases with mixed denominators
DISTANCE = {
    "filtration_a": {"levels": {
        "2": {"dim": 3, "values": ["1/2", "-3", "7/3"],
              "basis": [["1", "2", "0"], ["0", "1/3", "1"], ["-1", "0", "5/2"]]},
        "3": {"dim": 4, "values": ["0", "9/4", "-1", "9/4"],
              "basis": [["2", "0", "0", "1"], ["1", "1", "0", "0"],
                        ["0", "-1/2", "1", "0"], ["0", "0", "3", "1/7"]]},
    }},
    "filtration_b": {"levels": {
        "2": {"dim": 3, "values": ["5/6", "-1", "2"],
              "basis": [["0", "1", "1"], ["1", "0", "-2/5"], ["1", "1", "0"]]},
        "3": {"dim": 4, "values": ["1/3", "1", "-2", "1"],
              "basis": [["1", "0", "1", "0"], ["0", "3/2", "0", "1"],
                        ["1", "0", "0", "-1"], ["0", "1", "1", "1"]]},
    }},
    "p": 3,
}

DEGENERATE = {
    "model": {"num_vars": 2}, "w": ["3", "1"], "degree": 3,
    "filtration": {"levels": {"3": {
        "dim": 4, "values": ["1/2", "-2", "1/2", "4/3"],
        "basis": [["1", "1/2", "0", "0"], ["0", "1", "-1", "0"],
                  ["2/3", "0", "1", "1"], ["0", "0", "0", "5"]]}}},
}

# fractional values and rank-2 weights: atoms whose positions and weights need reducing
DH = {
    "ambient_dim": 2,
    "filtration": {"levels": {
        "2": {"dim": 3, "values": ["3/2", "-1/4", "3/2"],
              "weights": [["1", "-1/3"], ["0", "2"], ["-1", "1/2"]]},
        "4": {"dim": 3, "values": ["6", "-2/3", "2"],
              "weights": [["2", "0"], ["-4/5", "1"], ["0", "-2"]]},
    }},
}



def _s(x) -> str:
    q = Fraction(x)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _points(points) -> list:
    return [[_s(x) for x in p] for p in points]


def _box(*sides) -> dict:
    return {"polytope": {"vertices": _points(itertools.product(*sides))}}


def _kuhn_transform(shape, h, centre, curvature, top) -> dict:
    """The piecewise-linear interpolant of top - sum_i c_i (y_i - m_i)^2 on the Kuhn
    triangulation of a grid of cubes of side h: n! cells per cube."""
    h = Fraction(h)

    def value(p):
        return top - sum(c * (x - m) ** 2 for c, x, m in zip(curvature, p, centre))

    cells = []
    for base in itertools.product(*(range(k) for k in shape)):
        for perm in itertools.permutations(range(len(shape))):
            corner = list(base)
            pts = [tuple(h * x for x in corner)]
            for axis in perm:
                corner[axis] += 1
                pts.append(tuple(h * x for x in corner))
            grad = [Fraction(0)] * len(shape)
            for k, axis in enumerate(perm):
                grad[axis] = (value(pts[k + 1]) - value(pts[k])) / h
            const = value(pts[0]) - sum(g * x for g, x in zip(grad, pts[0]))
            cells.append({"simplex": _points(pts),
                          "affine": {"gradient": [_s(g) for g in grad], "constant": _s(const)}})
    return {"cells": cells}


F = Fraction
# 12 cells on [0, 3/2] x [0, 3/4]^2, values in about [1.2, 2]
T3 = _kuhn_transform((2, 1, 1), F(3, 4), (F(1, 3), F(1, 2), F(1, 5)),
                     (F(1, 2), F(1, 3), F(1, 4)), F(2))
# 8 cells on [0, 1]^2
T2 = _kuhn_transform((2, 2), F(1, 2), (F(3, 4), F(1, 3)), (F(1, 3), F(1, 2)), F(5, 2))
T1 = _kuhn_transform((3,), F(1, 3), (F(2, 5),), (F(1, 2),), F(1))


# benchmark-sized documents: sparse explicit bases whose entries have mixed denominators
def _sparse_level(rng, dim, span, dens):
    """(values, basis rows) with ties among the values and a shuffled unit
    lower-triangular basis, rows scaled, about a fifth of its entries off the diagonal."""
    pool = [Fraction(rng.randint(-span, span), rng.choice(dens)) for _ in range(dim // 3 + 1)]
    values = [rng.choice(pool) if rng.random() < 0.4
              else Fraction(rng.randint(-span, span), rng.choice(dens)) for _ in range(dim)]
    rows = []
    for i in range(dim):
        scale = Fraction(rng.choice([1, -1]) * rng.randint(1, 4), rng.choice(dens))
        rows.append([scale if j == i
                     else scale * Fraction(rng.randint(-3, 3), rng.choice(dens))
                     if j < i and rng.random() < 0.2 else Fraction(0) for j in range(dim)])
    rng.shuffle(rows)
    return [_s(v) for v in values], [[_s(x) for x in row] for row in rows]


def _distance_doc(seed):
    rng = random.Random(seed)
    filtrations = []
    for _ in range(2):
        levels = {}
        for m in (16, 20, 26):
            values, basis = _sparse_level(rng, m + 1, 3 * m, [1, 2, 3, 5, 7])
            levels[str(m)] = {"dim": m + 1, "values": values, "basis": basis}
        filtrations.append({"levels": levels})
    return {"filtration_a": filtrations[0], "filtration_b": filtrations[1], "p": 2}


def _degenerate_doc(seed):
    rng = random.Random(seed)
    values, basis = _sparse_level(rng, 21, 10, [1, 2, 3])
    return {"model": {"num_vars": 3}, "w": ["3/2", "3/2", "1"], "degree": 5,
            "filtration": {"levels": {"5": {"dim": 21, "values": values, "basis": basis}}}}


DISTANCE_LARGE = _distance_doc(2604)
DEGENERATE_LARGE = _degenerate_doc(3005)
# degrees 2..7 of a p1-like filtration against a 2-D pushforward: quadratic CDF pieces
DH_PUSHFORWARD = {"ambient_dim": 2, "limit": {"transform": T2}, "filtration": {"levels": {
    str(m): {"dim": m + 1, "values": [_s(F(5 * m, 2) - F(i * m, 2 * m - 1)) for i in range(m + 1)]}
    for m in range(2, 8)}}}

SOLITON_BOX4 = _box(("-1", "21/20"), ("-1", "26/25"), ("-1", "51/50"), ("-1", "101/100"))
SOLITON_BOX3 = _box(("-1", "4/3"), ("-3/2", "9/5"), ("-1", "9/8"))
# a lattice hexagon, listed with two non-vertex lattice points
SOLITON_HEXAGON = {"polytope": {"vertices": _points(
    [(2, 0), (0, 0), (1, 2), (-1, 1), (-2, -1), (1, 0), (0, -2), (2, -1)])}}
REPORT_SWEEP3 = {"measure": {"transform": T3, "weight_xi": ["1/4", "-1/2", "0"]},
                 "xi_list": [["0", "0", "0"], ["1/2", "-1/4", "3/4"], ["-1", "1/2", "1/4"]],
                 "a": ["1/2", "3"], "L": "1/2"}
REPORT_CANDIDATES = {"candidates": [
    {"label": "t1", "A": "7/8", "measure": {"transform": T1}},
    {"label": "t2", "A": "9/4", "measure": {"transform": T2}},
    {"label": "atoms", "A": "1", "measure": {"atoms": [
        {"pos": "1/2", "mass": "1"}, {"pos": "3/2", "mass": "2"}, {"pos": "2", "mass": "1"}]}},
]}
RESCALE3 = {"measure": {"transform": T3}, "A": "3/2"}
CONE = {"measure": {"transform": {"cells": [
    {"simplex": _points([(0, 0), (1, 0), (1, 1)]),
     "affine": {"gradient": ["1", "-1/4"], "constant": "1/2"}},
    {"simplex": _points([(0, 0), (0, 1), (1, 1)]),
     "affine": {"gradient": ["1/4", "1/2"], "constant": "1/2"}}]}},
    "A": "3", "dim": 2, "s_grid": ["0", "3/20", "3/10", "9/20", "3/5", "3/4"]}
# the domain stated twice, by its vertices and by scaled and redundant halfspaces
REPORT_DOMAIN = {"measure": {"transform": T2, "domain": {
    "dim": 2, "vertices": _points([(0, 0), (1, 0), (0, 1), (1, 1), (F(1, 2), F(1, 2))]),
    "halfspaces": [{"normal": ["2", "0"], "offset": "2"}, {"normal": ["-1", "0"], "offset": "0"},
                   {"normal": ["0", "1/3"], "offset": "1/3"}, {"normal": ["0", "-1"], "offset": "0"},
                   {"normal": ["1", "1"], "offset": "5/2"}]}},
    "a": ["1", "5/2"], "L": {"kind": "supplied", "value": "3"}}


def _artifact_sha256(tmp_path, command, doc_or_path):
    if isinstance(doc_or_path, dict):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc_or_path))
        doc_or_path = str(path)
    out = tmp_path / "out.json"
    assert main([command, "--input", doc_or_path, "--output", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("command, doc, digest", [
    ("dh", P1,
     "7620732b549d07366b111a790387248e9ba2b8eaded591c017a3fa967be2e2b7"),
    ("check", P1,
     "1cb72cddb0ef8ddd6082af28c3792f0bcc9268ad16fd5bbc56e7a7c27545b595"),
    ("distance", DISTANCE,
     "c2ce865bd772887d9498beec788813654afdc4bd67ccc0b25708f264328aadb8"),
    ("degenerate", DEGENERATE,
     "d6905a3353e2b891bd5630d92e21c9f188ea2c7dc7b6decceffe1e487133b54a"),
    ("dh", DH,
     "908b081cb2aed068e0e9c09cdae7be780caf9228237c864efd76a43aaad3fce0"),
    ("soliton", SOLITON_BOX4,
     "558b69411d480b7c4636ec92d82cf815bd819bd223877a8d6d9eb806c2478541"),
    ("soliton", SOLITON_BOX3,
     "dade3df775d3506837fcbbbd671cfeba7480003dfa17e4157637fce516f7d96d"),
    ("soliton", SOLITON_HEXAGON,
     "3f7d4e1c3b8f4bd60e462b31464531e45def81924b4a36cfef6d6b473d64920f"),
    ("report", REPORT_SWEEP3,
     "17c6d5550b3bd5edcff1379bcdf479842a5b85964f2e1c5b78b6a9dcc2a34d99"),
    ("report", REPORT_CANDIDATES,
     "83ada4909aaf9abf8c0b1c86ce45dac0c7e1564404f944f537455ebf11d77f0c"),
    ("rescale", RESCALE3,
     "c57865fc129cbfd2643f2ddd97e4cad91f67c57f1fcf59597a972dcc1b170a8d"),
    ("cone", CONE,
     "b582bc4c119939e35e9ce15c491fa3b43d10c8dac83da2382f9a769c868ce9dc"),
    ("report", REPORT_DOMAIN,
     "48dfebbd10564360aa3fb1cef2eec0b325cf4f4aa029ffe0e1e3d6bbd8a2b11b"),
    ("distance", DISTANCE_LARGE,
     "9e6afe68bb7c52287f468b4dc15b8ac690f2766207c42175443f8c9f46210a3a"),
    ("degenerate", DEGENERATE_LARGE,
     "49d01655adf64bbe88693b252cb9ee3c3b92f9ef063e52edc423e6ee7df16839"),
    ("dh", DH_PUSHFORWARD,
     "e4485ba45c3953bade429223458d56dee0547e3db30e57e369edddadaa6e21aa"),
], ids=["dh-p1", "check-p1", "distance", "degenerate", "dh-weighted", "soliton-box4d",
        "soliton-box3d", "soliton-hexagon", "report-sweep3d", "report-candidates",
        "rescale-3d", "cone", "report-domain", "distance-large", "degenerate-large",
        "dh-pushforward"])
def test_artifact_bytes_pinned(tmp_path, command, doc, digest):
    assert _artifact_sha256(tmp_path, command, doc) == digest
