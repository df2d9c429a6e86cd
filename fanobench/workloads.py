"""Seeded job lists for the three workloads, each job with its output check.

A job is one ``fanokit <command> --input doc.json --output out.json`` call.
Each job slot has a base shape drawn once from a fixed generator.  Round
``r`` of seed ``s`` moves it by a lattice isometry (a signed permutation of
coordinates, sometimes with a translation) or permutes its rows, drawn from
``Random("<workload>:s:r")``.  So no two jobs of a run share a document,
while every round poses the same problems up to symmetry and costs the same
work: the spread between seeds is machine noise, not input cost.

The six known-failure documents are fixed: they fail on every run until the
log-domain integrals land, and their checks hold the closed forms that the
fix must then reproduce.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction as Q
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref


class CheckFailed(Exception):
    """An output disagrees with the reference computation."""


@dataclass
class Job:
    name: str
    command: str
    doc: dict
    check: Callable[[dict], None]
    known_failure: str | None = None


def _close(what, got, want, rel=1e-9, abs_=1e-12):
    if not abs(float(got) - float(want)) <= max(abs_, rel * abs(float(want))):
        raise CheckFailed(f"{what}: got {got!r}, want {want!r}")


def _require(cond, what):
    if not cond:
        raise CheckFailed(what)


def _s(x) -> str:
    return str(Q(x))


def _vec(v):
    return [_s(x) for x in v]


def _base(name: str) -> random.Random:
    """The fixed generator of one job slot's base shape."""
    return random.Random(f"fanobench base {name}")


class Isometry:
    """A signed permutation of coordinates plus a lattice translation.

    It maps lattice points to lattice points and keeps volumes and pairings
    <point, vector>, so a moved shape poses the same problem.
    """

    def __init__(self, rng, n, shift=0):
        self.perm = rng.sample(range(n), n)
        self.sign = [rng.choice((-1, 1)) for _ in range(n)]
        self.offset = [rng.randint(-shift, shift) for _ in range(n)]

    def vector(self, v):
        return tuple(s * Q(v[i]) for s, i in zip(self.sign, self.perm))

    def point(self, p):
        return tuple(x + o for x, o in zip(self.vector(p), self.offset))


# ---------------------------------------------------------------------------
# piecewise-linear transforms (cells with affine pieces), built exactly


def _solve(rows, rhs):
    n = len(rows)
    a = [list(r) + [b] for r, b in zip(rows, rhs)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[p] = a[p], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [a[r][n] for r in range(n)]


def _affine_cell(verts, value):
    """(vertices, gradient, constant) of the affine interpolant of ``value``."""
    v0 = verts[0]
    grad = _solve([[x - y for x, y in zip(v, v0)] for v in verts[1:]],
                  [value[v] - value[v0] for v in verts[1:]])
    return (tuple(verts), tuple(grad), value[v0] - sum(g * x for g, x in zip(grad, v0)))


def _kuhn_cells(shape, h):
    """Kuhn triangulation of a grid of cubes with side h: n! simplices per cube."""
    n = len(shape)
    out = []
    for base in itertools.product(*(range(k) for k in shape)):
        for perm in itertools.permutations(range(n)):
            cur = list(base)
            pts = [tuple(base)]
            for ax in perm:
                cur[ax] += 1
                pts.append(tuple(cur))
            out.append([tuple(Q(x) * h for x in p) for p in pts])
    return out


def _concave_values(rng, simplices, low):
    """Vertex values of a random concave quadratic, shifted to have minimum ``low``."""
    verts = sorted({v for s in simplices for v in s})
    n = len(verts[0])
    centre = [Q(rng.randint(0, 8), 4) for _ in range(n)]
    curv = [Q(1, rng.choice([2, 3, 4])) for _ in range(n)]
    slope = [Q(rng.randint(-2, 2), 4) for _ in range(n)]
    cross = Q(rng.randint(-2, 2), 8)  # makes the pieces of one square differ
    raw = {v: sum(s * x - c * (x - m) ** 2 for s, c, x, m in zip(slope, curv, v, centre))
           + cross * v[0] * v[-1] for v in verts}
    shift = Q(low) - min(raw.values())
    return {v: x + shift for v, x in raw.items()}


def _pl_cells(rng, shape, h, low=0):
    simplices = _kuhn_cells(shape, h)
    while True:
        values = _concave_values(rng, simplices, low)
        cells = [_affine_cell(s, values) for s in simplices]
        if all(any(g != 0 for g in grad) for _, grad, _ in cells):
            return cells


def _move_cells(cells, iso):
    """The same piecewise-linear function carried over to the moved domain."""
    values = {}
    for verts, grad, const in cells:
        for v in verts:
            values[iso.point(v)] = sum(g * x for g, x in zip(grad, v)) + const
    return [_affine_cell([iso.point(v) for v in verts], values) for verts, _, _ in cells]


def _vertex_values(cells):
    return [{sum(g * x for g, x in zip(grad, v)) + c for v in verts} for verts, grad, c in cells]


def _transform_doc(cells, weight_xi=()):
    doc = {"transform": {"cells": [
        {"simplex": [_vec(v) for v in verts],
         "affine": {"gradient": _vec(grad), "constant": _s(const)}}
        for verts, grad, const in cells]}}
    if weight_xi:
        doc["weight_xi"] = _vec(weight_xi)
    return doc


def _atoms_doc(atoms):
    return {"atoms": [{"pos": _s(p), "mass": _s(m)} for p, m in atoms]}


# ---------------------------------------------------------------------------
# soliton

# Newton steps per coordinate: 2 for ratios hi/lo in [101/100, 21/20], 3 in
# [9/8, 3/2], 4 at 2.  The 4-D box is near symmetric to keep its solve short.
BOX4 = ((-1, Q(21, 20)), (-1, Q(26, 25)), (-1, Q(51, 50)), (-1, Q(101, 100)))
BOX3 = (((-1, Q(4, 3)), (Q(-3, 2), Q(9, 5)), (-1, Q(9, 8))),
        ((-2, Q(5, 2)), (-1, Q(6, 5)), (-1, Q(5, 4))))
INTERVALS = ((Q(-7, 3), Q(5, 2)), (Q(-1, 2), 3), (-4, Q(11, 4)))


def _check_box(sides):
    def check(out):
        res = out["result"]
        _require(res["certificates"]["converged"], "solver did not report convergence")
        value = 0.0
        for i, ((lo, hi), xi) in enumerate(zip(sides, res["argmin"])):
            want = ref.interval_soliton(lo, hi)
            _close(f"xi[{i}]", xi, want, rel=1e-8, abs_=1e-8)
            value += ref.interval_log_mean_exp(lo, hi, xi)
        _close("value", res["value"], value, rel=1e-9, abs_=1e-9)
    return check


def _box_job(name, sides, rng=None, known_failure=None):
    """Soliton on a box, its coordinates permuted and mirrored by ``rng``."""
    sides = [(Q(lo), Q(hi)) for lo, hi in sides]
    if rng is not None:
        iso = Isometry(rng, len(sides))
        sides = [(lo, hi) if s > 0 else (-hi, -lo)
                 for s, (lo, hi) in zip(iso.sign, (sides[i] for i in iso.perm))]
    verts = [list(v) for v in itertools.product(*sides)]
    return Job(name, "soliton", {"polytope": {"vertices": [_vec(v) for v in verts]}},
               _check_box(sides), known_failure)


def _hull2(points):
    """Counter-clockwise convex hull (monotone chain) of lattice points."""
    pts = sorted(set(points))

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _polygon(rng):
    """A lattice hexagon, not centrally symmetric, with 0 at distance >= 1/2 from its edges."""
    while True:
        hull = _hull2([(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(9)])
        if len(hull) != 6 or set(hull) == {(-x, -y) for x, y in hull}:
            continue
        edges = list(zip(hull, hull[1:] + hull[:1]))
        # 0 is inside iff it lies left of every edge; distance = cross / |edge|
        if all((a[0] * b[1] - a[1] * b[0]) >= 0.5 * math.dist(a, b) for a, b in edges):
            return hull


def _check_polygon(hull):
    fan = [((hull[0], hull[i], hull[i + 1]), (0, 0), Q(0)) for i in range(1, len(hull) - 1)]
    area = abs(sum(a[0] * b[1] - a[1] * b[0] for a, b in zip(hull, hull[1:] + hull[:1]))) / 2

    def check(out):
        cells = ref.Cells(fan)
        res = out["result"]
        _require(res["certificates"]["converged"], "solver did not report convergence")
        xi = np.array(res["argmin"], dtype=float)
        expo = cells.Y @ xi
        top = float(expo.min())
        weight = np.exp(-(expo - top))
        total = float(cells.W @ weight)
        for j in range(2):
            # tilted barycenter: vanishes exactly at the soliton vector
            bary = float(cells.W @ (weight * cells.Y[:, j])) / total
            _close(f"tilted barycenter[{j}]", bary, 0.0, abs_=1e-8)
        _close("value", res["value"], math.log(total / float(area)) - top, rel=1e-9, abs_=1e-9)
    return check


def _symmetric3(rng):
    """+-v for four lattice vectors, three of them independent."""
    while True:
        vs = [tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(4)]
        if ref.det([[Q(x) for x in v] for v in vs[:3]]) != 0:
            return vs + [tuple(-x for x in v) for v in vs]


def _check_symmetric(out):
    res = out["result"]
    _require(max(abs(x) for x in res["argmin"]) <= 1e-9, f"xi = {res['argmin']} is not 0")
    _close("value", res["value"], 0.0, abs_=1e-12)


def soliton_jobs(rng):
    jobs = [_box_job("box4d", BOX4, rng)]
    jobs += [_box_job(f"box3d-{i}", sides, rng) for i, sides in enumerate(BOX3)]
    for i in range(2):
        iso = Isometry(rng, 3)
        verts = [iso.vector(v) for v in _symmetric3(_base(f"symmetric3d-{i}"))]
        jobs.append(Job(f"symmetric3d-{i}", "soliton",
                        {"polytope": {"vertices": [_vec(v) for v in verts]}}, _check_symmetric))
    pool = _base("polygons")
    for i in range(10):
        iso = Isometry(rng, 2)
        hull = [iso.vector(v) for v in _polygon(pool)]
        jobs.append(Job(f"polygon-{i}", "soliton",
                        {"polytope": {"vertices": [_vec(v) for v in hull]}},
                        _check_polygon(hull)))
    jobs += [_box_job(f"interval-{i}", [side], rng) for i, side in enumerate(INTERVALS)]
    fault = "NonConvergence: line search stalled although 0 is interior"
    jobs.append(_box_job("interval-wide", [(Q(-1, 1000), 900)], known_failure=fault))
    jobs.append(_box_job("interval-thin", [(Q(-1, 100000), 50)], known_failure=fault))
    return jobs


# ---------------------------------------------------------------------------
# spectra


def _check_report(rep, measure, L, a_list):
    _close("V", rep["V"], measure.mass())
    for k in (1, 2, 3, 4):
        _close(f"E_{k}", rep["E_k"][str(k)], measure.mean_of(lambda x, k=k: x**k))
    _require(rep["E"] == rep["E_k"]["1"], "E differs from E_1")
    _close("S_tilde", rep["S_tilde"], -measure.log_exp_moment(1.0), abs_=1e-9)
    _require(rep["S_tilde"] <= rep["E"] + 1e-12, "S_tilde exceeds E")
    _close("H", rep["H"], L - rep["S_tilde"], rel=1e-15)
    _close("D", rep["D"], L - rep["E"], rel=1e-15)
    for a in a_list:
        _close(f"Q^({a})", rep["Q"][str(float(a))], math.exp(measure.log_exp_moment(float(a))))


def _sweep_job(name, rng, shape, h, ntilts):
    """report with an xi_list sweep and an a list over a moved PL transform."""
    base = _base(name)
    n = len(shape)
    cells = _pl_cells(base, shape, h)
    weight_xi = [Q(base.randint(-2, 2), 4) for _ in range(n)]
    tilts = [[Q(base.randint(-4, 4), 4) for _ in range(n)] for _ in range(ntilts)]
    a_list = [Q(1, 2), Q(base.randint(3, 8), 2)]
    L = Q(base.randint(0, 8), 4)
    iso = Isometry(rng, n)
    cells = _move_cells(cells, iso)
    weight_xi = iso.vector(weight_xi)
    tilts = [iso.vector(t) for t in tilts]
    doc = {"measure": _transform_doc(cells, weight_xi), "xi_list": [_vec(t) for t in tilts],
           "a": [_s(a) for a in a_list], "L": _s(L)}

    def check(out):
        _require(len(out["sweep"]) == ntilts, "sweep row count")
        qcells = ref.Cells(cells)
        for row, tilt in zip(out["sweep"], tilts):
            measure = ref.Pushforward(qcells, [b + t for b, t in zip(weight_xi, tilt)])
            _check_report(row["report"], measure, float(L), a_list)
    return Job(name, "report", doc, check)


def _rescale_case(name, rng, kind):
    """(document, reference maker, A) for a measure on [1/2, oo) and an interior optimum."""
    base = _base(name)
    if kind == "atoms":
        atoms = [(Q(base.randint(2, 16), 4), Q(base.randint(1, 4))) for _ in range(6)]
        lo = min(p for p, _ in atoms)
        rng.shuffle(atoms)
        doc = _atoms_doc(atoms)

        def reference():
            return ref.Atoms(atoms)
    else:
        shape = {"pl1": (2,), "pl2": (2, 1), "pl3": (1, 1, 1)}[kind]
        cells = _move_cells(_pl_cells(base, shape, Q(1), low=Q(1, 2)),
                            Isometry(rng, len(shape)))
        lo = Q(1, 2)
        doc = _transform_doc(cells)

        def reference():
            return ref.Pushforward(ref.Cells(cells))
    # A strictly between the support minimum and the mean
    mean = Q(reference().tilted_mean(0.0)).limit_denominator(1000)
    A = (lo + (mean - lo) * Q(base.randint(3, 7), 10)).limit_denominator(1000)
    return doc, reference, A


def _check_rescale(res, A, reference):
    measure = reference()
    a = res["argmin"]
    _close("a_*", a, ref.rescale_root(measure, float(A)), rel=1e-7, abs_=1e-9)
    _close("value", res["value"], a * float(A) + measure.log_exp_moment(a), abs_=1e-9)


def _rescale_job(name, rng, kind):
    doc, reference, A = _rescale_case(name, rng, kind)
    return Job(name, "rescale", {"measure": doc, "A": _s(A)},
               lambda out: _check_rescale(out["result"], A, reference))


def _candidates_job(rng):
    cands = [(f"c{i}", *_rescale_case(f"candidate-{i}", rng, kind))
             for i, kind in enumerate(("pl1", "pl2", "atoms"))]

    def check(out):
        rows = out["candidates"]
        _require([r["label"] for r in rows] == [c[0] for c in cands], "candidate labels")
        for row, (_, _, reference, A) in zip(rows, cands):
            _check_rescale({"argmin": row["a_star"], "value": row["value"]}, A, reference)
        _require(out["h_upper_bound"] == min(r["value"] for r in rows), "h_upper_bound")

    doc = {"candidates": [{"label": lab, "A": _s(A), "measure": d} for lab, d, _, A in cands]}
    return Job("candidates", "report", doc, check)


CONE_CORNERS = {(0, 0): Q(1, 2), (1, 0): Q(3, 2), (0, 1): Q(1), (1, 1): Q(5, 4)}
CONE_GRID = [Q(3 * i, 20) for i in range(6)]  # s = 0, 0.15, ..., 0.75


def _cone_job(rng):
    """Cone scan of a fixed 2-D pushforward: the adaptive quadrature path, hence
    the cost, depends on the measure, which the isometry leaves unchanged."""
    iso = Isometry(rng, 2, shift=3)
    values = {iso.point(p): v for p, v in CONE_CORNERS.items()}
    cells = [_affine_cell([iso.point(p) for p in s], values)
             for s in ([(0, 0), (1, 0), (1, 1)], [(0, 0), (0, 1), (1, 1)])]
    A, dim = Q(3), 2

    def check(out):
        measure = ref.Pushforward(ref.Cells(cells))
        scan = out["scan"]
        s, f = scan["points"], scan["values"]
        _require(s == [float(x) for x in CONE_GRID], "scan grid")
        _close("f(0)", f[0], 1.0, abs_=1e-12)
        convex = all(f[i + 1] <= 0.5 * (f[i] + f[i + 2]) + 1e-10 for i in range(len(f) - 2))
        _require(convex and out["midpoint_convex"], "scan is not midpoint convex")
        E = measure.mean_of(lambda x: x)
        _close("f'(0)", scan["derivative_at_zero"], (dim + 1) * (float(A) - E) / float(A))
        for si, fi in zip(s, f):
            want = float(A) ** (dim + 1) * measure.mean_of(
                lambda x: (si * x + (1 - si) * float(A)) ** (-(dim + 1)))
            _close(f"f({si})", fi, want, rel=1e-7)

    doc = {"measure": _transform_doc(cells), "A": _s(A), "dim": dim,
           "s_grid": [_s(x) for x in CONE_GRID]}
    return Job("cone", "cone", doc, check)


def _w1_job(rng):
    """dh against a 2-D pushforward limit: W1 takes the discretized superlevel path."""
    base = _base("dh-w1")
    m = 8
    while True:
        cells = _pl_cells(base, (1, 1), Q(1), low=-Q(base.randint(0, 4), 2))
        vertex_values = _vertex_values(cells)
        if all(len(vals) > 1 for vals in vertex_values):  # no atom in the limit
            break
    lo, hi = min(map(min, vertex_values)), max(map(max, vertex_values))
    values = sorted(Q(round(m * (lo + (hi - lo) * base.random()))) for _ in range(m + 1))
    cells = _move_cells(cells, Isometry(rng, 2, shift=3))
    filtration = {"levels": {str(m): {"dim": m + 1, "values": _vec(values)}}}

    def check(out):
        limit = ref.Pushforward(ref.Cells(cells))
        (row,) = out["convergence"]["rows"]
        exact = ref.w1_atoms_vs_triangles([(v / m, Q(1)) for v in values], cells)
        _close("W1", row["wasserstein1"], exact, rel=0, abs_=(hi - lo) / 2048)
        q_limit = math.exp(limit.log_exp_moment(1.0))
        _close("q_limit", out["convergence"]["q_limit"], q_limit)
        q_m = math.fsum(math.exp(-float(v) / m) for v in values) / (m + 1)
        _close("q_gap", row["q_gap"], abs(q_m - q_limit), abs_=1e-12)
        _close("psi_gap", row["psi_gap"], abs(q_m - q_limit), abs_=1e-12)

    doc = {"filtration": filtration, "ambient_dim": 1, "limit": _transform_doc(cells)}
    return Job("dh-w1", "dh", doc, check)


def _check_closed_form(want):
    def check(out):
        rep = out["report"]
        _close("V", rep["V"], want["V"], rel=1e-12)
        for k, v in want["E_k"].items():
            _close(f"E_{k}", rep["E_k"][str(k)], v, rel=1e-12)
        _close("S_tilde", rep["S_tilde"], want["S_tilde"], rel=1e-12, abs_=1e-12)
        _require(rep["S_tilde"] <= rep["E"], "S_tilde exceeds E")
    return check


def _failing_reports():
    jobs = []
    for lo, hi, fault in ((800, 801, "ValueError: math domain error in na_report"),
                          (-800, -799, "OverflowError in the pushforward integrals"),
                          (0, 2000, "ValueError: non-finite float in output: nan")):
        cells = [(((Q(lo),), (Q(hi),)), (Q(1),), Q(0))]
        jobs.append(Job(f"uniform[{lo},{hi}]", "report", {"measure": _transform_doc(cells)},
                        _check_closed_form(ref.uniform_report(lo, hi)), fault))
    atoms = {"V": 2.0, "E_k": {k: float((Q(-800) ** k + Q(-799) ** k) / 2) for k in (1, 2, 3, 4)},
             "S_tilde": -(800 + math.log((1 + math.exp(-1)) / 2))}
    jobs.append(Job("atoms{-800,-799}", "report",
                    {"measure": _atoms_doc([(-800, 1), (-799, 1)])},
                    _check_closed_form(atoms), "OverflowError in DHMeasure.exp_moment"))
    return jobs


def spectra_jobs(rng):
    jobs = [_sweep_job(f"sweep2d-{i}", rng, (2, 2), Q(2 + i % 2, 4), 6) for i in range(3)]
    jobs += [_sweep_job(f"sweep3d-{i}", rng, (2, 1, 1), Q(2 + i % 2, 4), 4) for i in range(2)]
    jobs.append(_candidates_job(rng))
    jobs.append(_rescale_job("rescale-pl2", rng, "pl2"))
    jobs.append(_rescale_job("rescale-pl3", rng, "pl3"))
    jobs.append(_cone_job(rng))
    jobs.append(_w1_job(rng))
    return jobs + _failing_reports()


# ---------------------------------------------------------------------------
# filtration


def _p1_fixture(src: Path) -> dict:
    doc = json.loads((src / "fanokit" / "fixtures" / "p1_example.json").read_text())
    for key, level in doc["filtration"]["levels"].items():
        m = int(key)
        if sorted(Q(v) for v in level["values"]) != [Q(-i) for i in range(m, -1, -1)]:
            raise ValueError(f"bundled p1 fixture: level {m} is not {{0, ..., -{m}}}")
    return doc


def _check_p1_check(out):
    _require(out["passed"] and all(r["passed"] for r in out["results"]),
             "bundled verification suite failed")


def _check_p1_dh(out):
    conv = out["convergence"]
    q_limit = math.e - 1
    _close("q_limit", conv["q_limit"], q_limit, rel=1e-14)
    _require(conv["q_gap_monotone"], "q_gap is not monotone")
    for row in conv["rows"]:
        m = row["degree"]
        _close(f"W1[{m}]", row["wasserstein1"], ref.p1_w1(m), abs_=1e-12)
        gap = abs(ref.p1_q_m(m) - q_limit)
        _close(f"q_gap[{m}]", row["q_gap"], gap, abs_=1e-12)
        _close(f"psi_gap[{m}]", row["psi_gap"], gap, abs_=1e-12)


def _random_basis(rng, n):
    """Rows of a permuted unit lower-triangular matrix: invertible, not the identity."""
    rows = [[Q(1) if j == i else Q(rng.randint(-2, 2)) if j < i and rng.random() < 0.3
             else Q(0) for j in range(n)] for i in range(n)]
    rng.shuffle(rows)
    return rows


def _shuffled_level(rng, values, basis):
    """The same level with its adapted basis listed in another order."""
    order = list(range(len(values)))
    rng.shuffle(order)
    return [values[i] for i in order], [basis[i] for i in order]


def _distance_job(name, rng, degrees):
    base = _base(name)
    b = Q(rng.choice([-1, 1]) * rng.randint(1, 6), 3)
    p = rng.choice([1, 2, 3])
    fa, fb = {}, {}
    for m in degrees:
        values = [Q(base.randint(-3 * m, 3 * m), base.choice([1, 2, 3])) for _ in range(m + 1)]
        values, basis = _shuffled_level(rng, values, _random_basis(base, m + 1))
        basis = [_vec(r) for r in basis]
        fa[str(m)] = {"dim": m + 1, "values": _vec(values), "basis": basis}
        fb[str(m)] = {"dim": m + 1, "values": _vec(v + b * m for v in values), "basis": basis}

    def check(out):
        _require([r["degree"] for r in out["rows"]] == sorted(degrees), "distance degrees")
        for row in out["rows"]:
            # the copy's values are shifted by b*m in every degree: d_p = |b|
            _close(f"d_p[{row['degree']}]", row["d_p"], abs(b), rel=1e-12)
        _close("extrapolated_estimate", out["extrapolated_estimate"], abs(b), abs_=1e-9)

    doc = {"filtration_a": {"levels": fa}, "filtration_b": {"levels": fb}, "p": p}
    return Job(name, "distance", doc, check)


def _monomials(num_vars, m):
    """Graded lex order, first exponent descending: fanokit's monomial basis order."""
    if num_vars == 1:
        return [(m,)]
    return [(h,) + t for h in range(m, -1, -1) for t in _monomials(num_vars - 1, m - h)]


def _degenerate_job(name, rng, num_vars, m):
    base = _base(name)
    monos = _monomials(num_vars, m)
    n = len(monos)
    while True:
        w = [base.randint(0, 3) for _ in range(num_vars)]
        if len(set(w)) > 1:
            break
    cw = [sum(a * e for a, e in zip(w, mono)) for mono in monos]
    values = [Q(base.randint(-2 * m, 2 * m)) for _ in range(n)]
    values, basis = _shuffled_level(rng, values, _random_basis(base, n))
    level = {"dim": n, "values": _vec(values), "basis": [_vec(r) for r in basis]}

    def check(out):
        _require(out["minima_preserved"] and out["relative_minima_preserved"],
                 "degeneration reports a multiset mismatch")
        lv = out["degenerated"]["levels"][str(m)]
        got = [Q(v) for v in lv["values"]]
        weights = [Q(w_[0]) for w_ in lv["weights"]]
        _require(sorted(got) == sorted(values), "successive minima not preserved")
        _require(sorted(Q(v) for v in out["relative_minima"])
                 == sorted(v - c for v, c in zip(got, weights)), "relative minima mismatch")
        rows = lv.get("basis") or [[int(i == j) for j in range(n)] for i in range(n)]
        for row, c in zip(rows, weights):
            _require(all(cw[j] == c for j, x in enumerate(row) if Q(x) != 0),
                     "degenerated basis vector is not w-homogeneous")

    doc = {"model": {"num_vars": num_vars}, "w": w, "degree": m,
           "filtration": {"levels": {str(m): level}}}
    return Job(name, "degenerate", doc, check)


def _twist_job(name, rng, degrees):
    """twist-opt on weighted levels whose weight hull has 0 inside (the axis weights)."""
    base = _base(name)
    iso = Isometry(rng, 2)
    levels, atoms = {}, []
    for m in degrees:
        weights = [(m, 0), (-m, 0), (0, m), (0, -m)]
        weights += [(base.randint(-m, m), base.randint(-m, m)) for _ in range(8)]
        values = [Q(base.randint(-2 * m, 2 * m)) for _ in weights]
        weights = [iso.vector(w) for w in weights]
        values, weights = _shuffled_level(rng, values, weights)
        levels[str(m)] = {"dim": len(weights), "values": _vec(values),
                          "weights": [_vec(w) for w in weights]}
        mass = 1.0 / len(degrees) / len(weights)
        atoms += [(float(v) / m, mass, (float(w[0]) / m, float(w[1]) / m))
                  for v, w in zip(values, weights)]
    L = Q(rng.randint(-4, 4), 4)

    def check(out):
        res = out["result"]
        xi = res["argmin"]
        expo = [math.log(mass) - (p + w[0] * xi[0] + w[1] * xi[1]) for p, mass, w in atoms]
        lse = ref.log_sum_exp(expo)
        prob = [math.exp(e - lse) for e in expo]
        for j in range(2):
            # first-order condition: the tilted mean weight vanishes
            _close(f"tilted weight[{j}]", math.fsum(p * w[j] for p, (_, _, w) in zip(prob, atoms)),
                   0.0, abs_=1e-9)
        _close("value", res["value"], float(L) + lse, abs_=1e-10)

    return Job(name, "twist-opt", {"filtration": {"levels": levels}, "L": _s(L)}, check)


def filtration_jobs(rng, round_, src: Path):
    fixture = _p1_fixture(src)
    fixture["filtration"]["label"] = f"p1-product round {round_}"
    return [
        Job("check-p1", "check", fixture, _check_p1_check),
        Job("dh-p1", "dh", fixture, _check_p1_dh),
        _distance_job("distance-a", rng, [18, 22, 26]),
        _distance_job("distance-b", rng, [16, 20, 24]),
        _degenerate_job("degenerate-a", rng, 3, 4),
        _degenerate_job("degenerate-b", rng, 3, 5),
        _twist_job("twist-a", rng, [3, 4, 5]),
        _twist_job("twist-b", rng, [4, 5, 6]),
    ]


def make_jobs(workload: str, seed: int, round_: int, src: Path) -> list[Job]:
    rng = random.Random(f"{workload}:{seed}:{round_}")
    if workload == "soliton":
        return soliton_jobs(rng)
    if workload == "spectra":
        return spectra_jobs(rng)
    return filtration_jobs(rng, round_, src)
