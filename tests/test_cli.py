import copy
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import fanokit
from fanokit.cli import _fixture_path, convergence_report, main
from fanokit.errors import NonFiniteResult
from fanokit.filtration import filtration_from_json
from fanokit.measure import measure_from_json
from fanokit.rational import rat
from fanokit.serialize import csv_table, dumps_canonical

from conftest import p1_filtration, p1_limit_measure
from test_golden import T2, T3


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_bundled_fixture(capsys):
    code, out, err = run_cli(["check"], capsys)
    assert code == 0
    assert "[PASS]" in out and "[FAIL]" not in out
    assert '"passed": true' in out


def test_check_symmetric_polytopes(capsys):
    code, out, _ = run_cli(["check", "--input", _fixture_path("symmetric_polytopes.json")],
                           capsys)
    assert code == 0
    assert "soliton-symmetric" in out


def test_soliton_symmetric_reports_zero(tmp_path, capsys):
    out_path = tmp_path / "res.json"
    code, _, _ = run_cli(["soliton", "--input", _fixture_path("symmetric_polytopes.json"),
                          "--output", str(out_path)], capsys)
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert abs(doc["result"]["argmin"][0]) <= 1e-10
    assert doc["result"]["grad_norm"] <= 1e-10
    assert doc["result"]["certificates"]["converged"] is True


def test_soliton_unstable_interval(tmp_path, capsys):
    out_path = tmp_path / "res.json"
    code, _, _ = run_cli(["soliton", "--input", _fixture_path("unstable_interval.json"),
                          "--output", str(out_path)], capsys)
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["result"]["argmin"][0] > 0.1


def test_rescale_command(tmp_path, capsys):
    out_path = tmp_path / "res.json"
    code, _, _ = run_cli(["rescale", "--input", _fixture_path("unstable_interval.json"),
                          "--output", str(out_path)], capsys)
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["result"]["argmin"] > 0
    assert doc["result"]["value"] < 0


def test_report_candidates_upper_bound(tmp_path, capsys):
    out_path = tmp_path / "res.json"
    code, _, _ = run_cli(["report", "--input", _fixture_path("unstable_interval.json"),
                          "--output", str(out_path)], capsys)
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["h_upper_bound"] < 0
    assert "upper bound" in doc["note"]


def test_report_single_measure(tmp_path, capsys):
    job = {
        "measure": p1_limit_measure().to_json(),
        "L": {"kind": "weight_twist"},
    }
    path = tmp_path / "job.json"
    path.write_text(dumps_canonical(job))
    out_path = tmp_path / "res.json"
    code, _, _ = run_cli(["report", "--input", str(path), "--a", "1", "--a", "2",
                          "--output", str(out_path)], capsys)
    assert code == 0
    doc = json.loads(out_path.read_text())
    rep = doc["report"]
    assert abs(rep["E"] + 0.5) < 1e-10
    assert "1.0" in rep["Q"] and "2.0" in rep["Q"]
    assert rep["normalized"] is True


def test_dh_convergence_csv(tmp_path, capsys):
    out_path = tmp_path / "conv.csv"
    code, _, _ = run_cli(["dh", "--input", _fixture_path("p1_example.json"),
                          "--degrees", "10..12", "--format", "csv",
                          "--output", str(out_path)], capsys)
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "degree,wasserstein1,q_gap,psi_gap"
    for line in lines[1:]:
        m, w1, qg, pg = line.split(",")
        assert float(w1) <= 2.0 / int(m)


def test_convergence_report_zero_row():
    F = p1_filtration([10])
    from fanokit.filtration import empirical_dh

    nu = empirical_dh(F, 10, 1)
    measures = {}
    report = convergence_report(F, nu, [10], 1, measures)
    assert measures == {"10": nu.to_json()}
    assert report["rows"][0]["wasserstein1"] == 0.0
    # |Q_m - Q| gap vanishes when the limit is the level itself
    assert report["rows"][0]["q_gap"] < 1e-15


def test_distance_command(tmp_path, capsys):
    Fa = p1_filtration([2, 4, 6]).to_json()
    from fanokit.filtration import rescale_shift

    Fb = rescale_shift(p1_filtration([2, 4, 6]), 1, Fraction(1, 2)).to_json()
    path = tmp_path / "job.json"
    path.write_text(dumps_canonical({"filtration_a": Fa, "filtration_b": Fb, "p": 2}))
    out_path = tmp_path / "res.json"
    code, _, _ = run_cli(["distance", "--input", str(path), "--output", str(out_path)], capsys)
    assert code == 0
    doc = json.loads(out_path.read_text())
    # a pure b-shift has every relative minimum equal b*m: d_2 = b exactly
    for row in doc["rows"]:
        assert abs(row["d_p"] - 0.5) < 1e-12
    assert "extrapolated_estimate" in doc


def test_distance_p1_fixture_against_itself(tmp_path, capsys):
    # all 31 stored degrees, up to dimension 201: both sides are standard-basis
    # levels, so no identity matrix is built or inverted
    fixture = json.loads(Path(_fixture_path("p1_example.json")).read_text())["filtration"]
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"filtration_a": fixture, "filtration_b": fixture}))
    out_path = tmp_path / "res.json"
    code, _, _ = run_cli(["distance", "--input", str(path), "--output", str(out_path)], capsys)
    assert code == 0
    rows = json.loads(out_path.read_text())["rows"]
    assert [r["degree"] for r in rows] == sorted(int(m) for m in fixture["levels"])
    assert len(rows) == 31
    assert all(r["d_p"] == 0.0 for r in rows)


def test_distance_singular_basis_exit_1(tmp_path, capsys):
    good = {"levels": {"1": {"dim": 2, "values": [0, 1]}}}
    bad = {"levels": {"1": {"dim": 2, "values": [0, 1], "basis": [[1, 2], ["1/2", 1]]}}}
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"filtration_a": good, "filtration_b": bad}))
    code, out, err = run_cli(["distance", "--input", str(path)], capsys)
    assert code == 1
    assert "NotABasis" in err and out == ""


def test_degenerate_command(tmp_path, capsys):
    from fanokit.filtration import FiltrationLevel, GradedFiltration

    lv1 = FiltrationLevel(1, ((Fraction(1), Fraction(1)), (Fraction(1), Fraction(0))),
                          (Fraction(1), Fraction(0)))
    job = {
        "model": {"num_vars": 2},
        "w": [1, 0],
        "degree": 1,
        "filtration": GradedFiltration({1: lv1}).to_json(),
    }
    path = tmp_path / "job.json"
    path.write_text(dumps_canonical(job))
    out_path = tmp_path / "res.json"
    code, _, _ = run_cli(["degenerate", "--input", str(path), "--output", str(out_path)], capsys)
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["minima_preserved"] is True
    assert doc["relative_minima_preserved"] is True


def test_twist_opt_command(tmp_path, capsys):
    from fanokit.filtration import FiltrationLevel, GradedFiltration

    lv = FiltrationLevel.from_values(2, [0, 0, 0], weights=[(-1,), (0,), (1,)])
    job = {"filtration": GradedFiltration({2: lv}).to_json(), "degrees": [2]}
    path = tmp_path / "job.json"
    path.write_text(dumps_canonical(job))
    out_path = tmp_path / "res.json"
    code, _, _ = run_cli(["twist-opt", "--input", str(path), "--output", str(out_path)], capsys)
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert abs(doc["result"]["argmin"][0]) <= 1e-10


def test_cone_command(tmp_path, capsys):
    job = {"A": 1, "measure": {"atoms": [{"pos": "1", "mass": "1"}]},
           "s_grid": [0, "0.25", "0.5"], "dim": 1}
    path = tmp_path / "job.json"
    path.write_text(dumps_canonical(job))
    out_path = tmp_path / "res.json"
    code, _, _ = run_cli(["cone", "--input", str(path), "--output", str(out_path)], capsys)
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["midpoint_convex"] is True


def test_cone_convexity_on_an_uneven_grid(tmp_path, capsys):
    """Each inner sample is tested against the chord of its neighbours, weighted by
    spacing: f(s) = (1 + 2s)^-2 is convex, though f(1/10) lies above (f(0) + f(9/10)) / 2;
    a repeated s exits 2."""
    job = {"measure": {"atoms": [{"pos": "3", "mass": "1"}]}, "A": "1", "dim": 1,
           "s_grid": ["0", "1/10", "9/10"]}
    path = tmp_path / "job.json"
    path.write_text(dumps_canonical(job))
    out_path = tmp_path / "res.json"
    assert run_cli(["cone", "--input", str(path), "--output", str(out_path)], capsys)[0] == 0
    doc = json.loads(out_path.read_text())
    f = doc["scan"]["values"]
    assert f[1] > (f[0] + f[2]) / 2 and doc["midpoint_convex"] is True
    job["s_grid"] = ["0", "1/2", "1/2", "9/10"]
    path.write_text(dumps_canonical(job))
    code, _, err = run_cli(["cone", "--input", str(path), "--output", str(out_path)], capsys)
    assert code == 2 and "repeats" in err


def _run_job(job, command, tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(dumps_canonical(job))
    out_path = tmp_path / "res.json"
    code, _, _ = run_cli([command, "--input", str(path), "--output", str(out_path)], capsys)
    assert code == 0
    return json.loads(out_path.read_text())


X_PLUS_Y = {"gradient": ["1", "1"], "constant": "0"}
SQUARE_TENT = {"cells": [{"simplex": [["0", "0"], ["1", "0"], ["1", "1"]], "affine": X_PLUS_Y},
                         {"simplex": [["0", "0"], ["0", "1"], ["1", "1"]], "affine": X_PLUS_Y}]}


def test_dh_pushforward_limit_command(tmp_path, capsys):
    """dh against a 2-D pushforward limit: W1 and Q of the limit in closed form."""
    # y uniform on the triangle (0,0), (1,0), (0,1), G = x + y: CDF t^2 on [0, 1]
    triangle = {"cells": [{"simplex": [["0", "0"], ["1", "0"], ["0", "1"]], "affine": X_PLUS_Y}]}
    job = {"filtration": {"levels": {"1": {"dim": 2, "values": ["0", "1"]}}},
           "ambient_dim": 1, "limit": {"transform": triangle}}
    conv = _run_job(job, "dh", tmp_path, capsys)["convergence"]
    (row,) = conv["rows"]
    # atoms 1/2 at 0 and 1: W1 = int_0^1 |t^2 - 1/2| dt = sqrt(2)/3 - 1/6
    assert abs(row["wasserstein1"] - (math.sqrt(2) / 3 - 1 / 6)) <= 1e-15
    # Q = int_0^1 2t e^{-t} dt = 2 - 4/e
    assert abs(conv["q_limit"] - (2 - 4 / math.e)) <= 1e-14


def test_cone_pushforward_command(tmp_path, capsys):
    """cone on a 2-D pushforward: the triangle law of x + y on the unit square."""
    job = {"A": 3, "dim": 2, "measure": {"transform": SQUARE_TENT},
           "s_grid": [0, "3/20", "1/2"]}
    scan = _run_job(job, "cone", tmp_path, capsys)["scan"]
    assert scan["values"][0] == 1.0
    for s, got in zip((Fraction(3, 20), Fraction(1, 2)), scan["values"][1:]):
        # E[u^-3], u = s t + c, density t on [0, 1] and 2 - t on [1, 2]
        c = 3 * (1 - s)
        u0, u1, u2 = c, s + c, 2 * s + c
        rise = (-1 / u1 + c / (2 * u1**2) + 1 / u0 - c / (2 * u0**2)) / s**2
        fall = ((2 + c / s) / (2 * s) * (1 / u1**2 - 1 / u2**2) + (1 / u2 - 1 / u1) / s**2)
        want = float(27 * (rise + fall))
        assert abs(got - want) <= 1e-15 * want
    assert abs(scan["derivative_at_zero"] - 3 * (3 - 1) / 3) <= 1e-14


def test_malformed_json_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    code, _, err = run_cli(["soliton", "--input", str(path)], capsys)
    assert code == 2
    assert "line 1" in err and "column" in err


def test_missing_field_exit_2(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text("{}")
    code, _, err = run_cli(["soliton", "--input", str(path)], capsys)
    assert code == 2
    assert "polytope" in err


def test_domain_error_exit_1_names_precondition(tmp_path, capsys):
    # soliton on an interval not containing 0: properness violated
    job = {"polytope": {"dim": 1, "vertices": [["1"], ["2"]]}}
    path = tmp_path / "job.json"
    path.write_text(dumps_canonical(job))
    code, _, err = run_cli(["soliton", "--input", str(path)], capsys)
    assert code == 1
    assert "OriginNotInterior" in err


def _run_report(tmp_path, capsys, doc):
    path, out_path = tmp_path / "job.json", tmp_path / "res.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(["report", "--input", str(path), "--output", str(out_path)], capsys)
    return code, err, out_path


def test_report_far_atoms_exit_0(tmp_path, capsys):
    doc = {"measure": {"atoms": [{"pos": "-800", "mass": 1}, {"pos": "-799", "mass": 1}]}}
    code, _, out_path = _run_report(tmp_path, capsys, doc)
    assert code == 0
    want = -800 - math.log((1 + math.exp(-1)) / 2)
    assert abs(json.loads(out_path.read_text())["report"]["S_tilde"] - want) <= 1e-12 * 800


def test_report_unrepresentable_q_exit_1(tmp_path, capsys):
    # Q^(2) = e^1600 is past the largest double
    doc = {"measure": {"atoms": [{"pos": "-800", "mass": 1}]}, "a": [2]}
    code, err, out_path = _run_report(tmp_path, capsys, doc)
    assert code == 1
    assert "error [NonFiniteResult]" in err
    assert not out_path.exists()
    with pytest.raises(NonFiniteResult):
        dumps_canonical({"x": float("nan")})


def test_report_atoms_of_mixed_weight_rank_exit_2(tmp_path, capsys):
    # as for filtration levels, all torus weights of one measure share one rank
    doc = {"measure": {"atoms": [{"pos": "0", "mass": 1, "weight": ["1"]},
                                 {"pos": "1", "mass": 1, "weight": ["1", "2"]}]},
           "xi_list": [["1"]]}
    code, err, out_path = _run_report(tmp_path, capsys, doc)
    assert code == 2
    assert err.startswith("input error") and "torus weights of mixed rank" in err
    assert not out_path.exists()


def test_report_sweep_of_wrong_rank_exit_1(tmp_path, capsys):
    # a rank-1 xi against rank-2 weights is not truncated to the shorter vector
    doc = {"measure": {"atoms": [{"pos": "0", "mass": 1, "weight": ["1", "0"]},
                                 {"pos": "1", "mass": 1, "weight": ["0", "1"]}]},
           "xi_list": [["1"]]}
    code, err, out_path = _run_report(tmp_path, capsys, doc)
    assert code == 1
    assert "error [DimensionMismatch]" in err
    assert not out_path.exists()


@pytest.mark.parametrize("measure", [{"atoms": [{"mass": 1}]}, {"atoms": "none"},
                                     {"atoms": [1]}, {"transform": {}}])
def test_malformed_measure_exit_2(tmp_path, capsys, measure):
    code, err, _ = _run_report(tmp_path, capsys, {"measure": measure})
    assert code == 2
    assert err.startswith("input error")


TRIANGLE = {"vertices": [["-1", "-1"], ["1", "0"], ["0", "1"]]}
INTERVAL_SPACES = [{"normal": ["1"], "offset": "1"}, {"normal": ["-1"], "offset": "1"}]


@pytest.mark.parametrize("command, doc", [
    ("soliton", {"polytope": {"dim": "two", **TRIANGLE}}),
    ("soliton", {"polytope": {"dim": 1.5, "halfspaces": INTERVAL_SPACES}}),
    ("soliton", {"polytope": {"dim": 1, "halfspaces": [{"normal": ["1"]}, INTERVAL_SPACES[1]]}}),
    ("soliton", {"polytope": {"dim": 1, "halfspaces": [{"offset": "1"}, INTERVAL_SPACES[1]]}}),
    ("soliton", {"polytope": {"dim": 1, "halfspaces": [[["1"], "1"], [["-1"], "1"]]}}),
    ("soliton", {"polytope": {"vertices": [0, 1]}}),
    ("soliton", {"polytope": TRIANGLE, "projection_rank": "x"}),
    ("check", {"polytope": TRIANGLE, "projection_rank": "x"}),
], ids=["dim-word", "dim-fraction", "no-offset", "no-normal", "halfspace-list",
        "vertex-scalars", "rank-word", "check-rank-word"])
def test_malformed_polytope_exit_2(tmp_path, capsys, command, doc):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli([command, "--input", str(path), "--output", str(tmp_path / "o")],
                           capsys)
    assert code == 2
    assert err.startswith("input error: ")


LEVELS = {"levels": {"4": {"dim": 5, "values": ["1", "2", "2", "3", "4"]}}}
DIRAC = {"atoms": [{"pos": "0", "mass": 1}]}
DEGENERATE = {"model": {"num_vars": 2}, "w": [1, 0], "degree": 2,
              "filtration": {"levels": {"2": {"dim": 3, "values": [1, 0, 2]}}}}


@pytest.mark.parametrize("command, doc, extra", [
    ("dh", {"filtration": LEVELS, "ambient_dim": "x"}, []),
    ("check", {"filtration": LEVELS, "limit": DIRAC, "ambient_dim": "x"}, []),
    ("report", {"filtration": LEVELS, "degree": "x", "ambient_dim": 1}, []),
    ("cone", {"measure": DIRAC, "A": "1/2", "dim": "x"}, []),
    ("degenerate", dict(DEGENERATE, model={"num_vars": "x"}), []),
    ("degenerate", dict(DEGENERATE, degree="x"), []),
    ("distance", {"filtration_a": LEVELS, "filtration_b": LEVELS, "p": "x"}, []),
    ("distance", {"filtration_a": LEVELS, "filtration_b": LEVELS, "degrees": "a..3"}, []),
    ("dh", {"filtration": LEVELS, "ambient_dim": 1}, ["--degrees", "x"]),
], ids=["dh-ambient-dim", "check-ambient-dim", "report-degree", "cone-dim",
        "degenerate-num-vars", "degenerate-degree", "distance-p", "distance-degrees",
        "degrees-flag"])
def test_malformed_number_exit_2(tmp_path, capsys, command, doc, extra):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli([command, "--input", str(path), "--output", str(tmp_path / "o")]
                           + extra, capsys)
    assert code == 2
    assert err.startswith("input error: ") and " is not a" in err
    assert not (tmp_path / "o").exists()


def _levels(key="4", **entry):
    return {"levels": {key: dict({"dim": 5, "values": ["1", "2", "2", "3", "4"]}, **entry)}}


def _level_doc(**entry):
    return {"filtration": {"levels": {"4": dict({"dim": 2}, **entry)}}, "ambient_dim": 1}


def _cell_doc(simplex=(["0", "0"], ["1", "0"], ["0", "1"]), gradient=("1", "0")):
    cell = {"simplex": simplex, "affine": {"gradient": gradient, "constant": "0"}}
    return {"measure": {"transform": {"cells": [cell]}}}


@pytest.mark.parametrize("command, doc, extra, fragment", [
    ("dh", {"filtration": _levels("x"), "ambient_dim": 1}, [], "level degree 'x'"),
    ("dh", {"filtration": _levels(dim="y"), "ambient_dim": 1}, [], "dim of level 4 'y'"),
    ("dh", {"filtration": {"levels": {"4": {"values": ["1"]}}}, "ambient_dim": 1}, [],
     "'dim' field"),
    ("dh", {"filtration": {"levels": [1]}, "ambient_dim": 1}, [], "'levels' map"),
    ("dh", {"filtration": {"levels": {"4": 7}}, "ambient_dim": 1}, [], "'dim' field"),
    ("dh", {"filtration": _levels("0"), "ambient_dim": 1}, [], "at least 1"),
    ("dh", {"filtration": _levels("-2"), "ambient_dim": 1}, [], "at least 1"),
    ("dh", {"filtration": LEVELS, "ambient_dim": -1}, [], "at least 0"),
    ("report", {"filtration": LEVELS, "degree": 4, "ambient_dim": -1}, [], "at least 0"),
    ("dh", {"filtration": LEVELS, "ambient_dim": 1}, ["--degrees", "0"], "at least 1"),
    ("distance", {"filtration_a": LEVELS, "filtration_b": LEVELS, "degrees": [-4]}, [],
     "at least 1"),
    ("dh", {"filtration": {"levels": {"1": {"dim": 2, "flags": [{"value": "0"}]}}},
            "ambient_dim": 1}, [], "'value' and 'rows'"),
    ("report", {"candidates": [{"measure": DIRAC}]}, [], "'A' field"),
    ("report", {"candidates": [{"A": "1/2"}]}, [], "'measure' field"),
    ("degenerate", dict(DEGENERATE, model=5), [], "got int"),
    ("degenerate", dict(DEGENERATE, model={"num_vars": 0}, w=[]), [], "at least 1"),
    ("report", 5, [], "not a job object"),
    ("dh", _level_doc(values=5), [], "values of level 4"),
    ("dh", _level_doc(flags=5), [], "flags of level 4"),
    ("dh", _level_doc(values=["0", "1"], weights=5), [], "weights of level 4"),
    ("dh", _level_doc(values=["0", "1"], basis=5), [], "basis of level 4"),
    ("dh", _level_doc(values=["0", "1"], weights=[1, -1]), [], "each row of the weights"),
    ("dh", _level_doc(values=["0", "1"], basis=["10", "01"]), [], "each row of the basis"),
    ("dh", _level_doc(flags=[{"value": "0", "rows": 5}]), [], "flag rows of level 4"),
    ("report", _cell_doc(simplex=5), [], "cell simplex"),
    ("report", _cell_doc(simplex=True), [], "cell simplex"),
    ("report", _cell_doc(simplex=None), [], "cell simplex"),
    ("report", _cell_doc(simplex={}), [], "cell simplex"),
    ("report", _cell_doc(gradient=["1"]), [], "cell gradient has 1 entries, not 2"),
    ("soliton", {"polytope": dict(TRIANGLE, halfspaces=[{"normal": ["1"], "offset": "1"}])},
     [], "halfspace normal has 1 entries, not 2"),
    ("report", {"measure": DIRAC, "L": []}, [], "not a rational"),
    ("report", {"measure": DIRAC, "L": {"kind": "supplied"}}, [], "'value' field"),
    ("check", {"filtration": {"levels": {}}, "limit": DIRAC, "ambient_dim": 1}, [],
     "at least one level"),
    ("twist-opt", {"filtration": {"levels": {}}}, [], "at least one level"),
    ("cone", {"measure": DIRAC, "A": "1/2", "dim": -1}, [], "at least 1"),
], ids=["degree-word", "dim-word", "no-dim", "levels-list", "level-scalar", "degree-zero",
        "degree-negative", "ambient-dim-negative", "report-ambient-dim-negative",
        "degrees-flag-zero", "degrees-negative", "flag-no-rows", "candidate-no-A",
        "candidate-no-measure", "model-scalar", "num-vars-zero", "document-scalar",
        "values-scalar", "flags-scalar", "weights-scalar", "basis-scalar",
        "weight-row-scalar", "basis-row-string", "flag-rows-scalar", "simplex-number",
        "simplex-true", "simplex-null", "simplex-object", "gradient-length", "normal-length",
        "L-list", "L-no-value", "check-no-levels", "twist-opt-no-levels", "cone-dim-negative"])
def test_malformed_document_exit_2(tmp_path, capsys, command, doc, extra, fragment):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli([command, "--input", str(path), "--output", str(tmp_path / "o")]
                           + extra, capsys)
    assert code == 2
    assert err.startswith("input error: ") and fragment in err
    assert not (tmp_path / "o").exists()


REVERSED = "degree range '5..3' is empty: 3 < 5"


@pytest.mark.parametrize("command, doc, extra, message", [
    ("dh", _fixture_path("p1_example.json"), ["--degrees", "5..3"], REVERSED),
    ("dh", {"filtration": LEVELS, "ambient_dim": 1, "degrees": "5..3"}, [], REVERSED),
    ("distance", {"filtration_a": LEVELS, "filtration_b": LEVELS}, ["--degrees", "5..3"],
     REVERSED),
    ("distance", {"filtration_a": LEVELS, "filtration_b": LEVELS, "degrees": "5..3"}, [],
     REVERSED),
    ("twist-opt", {"filtration": LEVELS}, ["--degrees", "5..3"], REVERSED),
    ("dh", {"filtration": LEVELS, "ambient_dim": 1, "degrees": []}, [], "degree list is empty"),
    ("distance", {"filtration_a": LEVELS, "filtration_b": LEVELS, "degrees": []}, [],
     "degree list is empty"),
    ("twist-opt", {"filtration": LEVELS, "degrees": []}, [], "degree list is empty"),
], ids=["dh-p1-flag", "dh-field", "distance-flag", "distance-field", "twist-opt-flag",
        "dh-empty-list", "distance-empty-list", "twist-opt-empty-list"])
def test_reversed_degree_range_exit_2(tmp_path, capsys, command, doc, extra, message):
    # an empty range or an explicit empty list once fell back to every stored
    # degree and exited 0
    if isinstance(doc, dict):
        path = tmp_path / "job.json"
        path.write_text(json.dumps(doc))
        doc = str(path)
    code, _, err = run_cli([command, "--input", doc, "--output", str(tmp_path / "o")] + extra,
                           capsys)
    assert code == 2
    assert err == f"input error: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, doc, message", [
    ("report", {"candidates": []}, "the candidate list is empty"),
    ("distance", {"filtration_a": LEVELS, "filtration_b": {"levels": {
        "2": {"dim": 1, "values": ["0"]}}}}, "the two filtrations share no degree"),
    ("cone", {"measure": DIRAC, "A": "1/2", "s_grid": []}, "s_grid is empty"),
], ids=["report-no-candidates", "distance-no-shared-degree", "cone-empty-s-grid"])
def test_empty_job_exit_2(tmp_path, capsys, command, doc, message):
    # each once exited 0: report and distance with an empty result ("h_upper_bound":
    # null, "rows": []), cone with the scan of its default grid
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli([command, "--input", str(path), "--output", str(tmp_path / "o")],
                           capsys)
    assert code == 2
    assert err == f"input error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_twist_opt_weights_of_mixed_rank_exit_1(tmp_path, capsys):
    # pooled levels whose torus weights differ in rank once raised a raw ValueError
    levels = {"1": {"dim": 2, "values": ["0", "1"], "weights": [["1"], ["-1"]]},
              "2": {"dim": 2, "values": ["0", "1"], "weights": [["1", "0"], ["-1", "0"]]}}
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"filtration": {"levels": levels}}))
    code, _, err = run_cli(["twist-opt", "--input", str(path), "--output", str(tmp_path / "o")],
                           capsys)
    assert code == 1
    assert err == ("error [DimensionMismatch]: torus weights of degree 2 have rank 2, "
                   "those of degree 1 rank 1\n")
    assert not (tmp_path / "o").exists()


def test_flag_weights_one_per_coordinate_exit_2(tmp_path, capsys):
    # more weights than coordinates once raised a raw IndexError
    flags = [{"value": "1", "rows": [["1", "0"]]}, {"value": "0", "rows": [["1", "0"], ["0", "1"]]}]
    for weights in ([["0"], ["1"], ["2"]], [["0"]]):
        path = tmp_path / "job.json"
        path.write_text(json.dumps(_level_doc(flags=flags, weights=weights)))
        code, _, err = run_cli(["dh", "--input", str(path)], capsys)
        assert code == 2
        assert f"needs one torus weight per coordinate, got {len(weights)} for dim 2" in err


def test_main_calls_in_one_process_share_no_options(tmp_path, capsys):
    # the parser is built once per process; each call still starts from the defaults
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"measure": {"atoms": [{"pos": "0", "mass": "1"},
                                                      {"pos": "1", "mass": "3"}]}, "a": ["1"]}))
    plain = ["report", "--input", str(path)]
    flagged = plain + ["--a", "2", "--a", "1/2", "--tol", "1e-6", "--format", "csv"]
    first = run_cli(plain, capsys)
    other = run_cli(flagged, capsys)
    assert run_cli(flagged, capsys) == other
    assert run_cli(plain, capsys) == first
    assert first[0] == other[0] == 0 and first[1] != other[1]
    assert json.loads(first[1])["tolerance"] == 1e-10


@pytest.mark.parametrize("to_file", [True, False], ids=["output-file", "stdout"])
@pytest.mark.parametrize("raw", [
    json.dumps(dict(DEGENERATE, filtration=dict(DEGENERATE["filtration"], label="\ud800"))
               ).encode(),
    json.dumps(DEGENERATE).encode().replace(b'"w"', b'"\xff"'),
], ids=["lone-surrogate", "invalid-utf8"])
def test_input_that_is_not_text_exit_2(tmp_path, capsys, raw, to_file):
    path, out_path = tmp_path / "job.json", tmp_path / "out.json"
    path.write_bytes(raw)
    code, out, err = run_cli(["degenerate", "--input", str(path)]
                             + (["--output", str(out_path)] if to_file else []), capsys)
    assert code == 2 and err.startswith("input error: ")
    assert out == "" and not out_path.exists()


@pytest.mark.parametrize("command, doc", [
    ("soliton", {"polytope": {"vertices": [["-1"], ["2"]]}}),
    ("rescale", {"measure": {"atoms": [{"pos": "0", "mass": 1}, {"pos": "4", "mass": 1}]},
                 "A": "1"}),
    ("rescale", {"measure": {"atoms": [{"pos": "0", "mass": 1}, {"pos": "4", "mass": 1}]},
                 "A": "3"}),
    ("rescale", {"measure": {"atoms": [{"pos": "2", "mass": 1}]}, "A": "3"}),
    ("twist-opt", {"filtration": {"levels": {"2": {"dim": 3, "values": [0, 1, 0],
                                                   "weights": [[-1], [0], [1]]}}}}),
], ids=["soliton", "rescale-interior", "rescale-boundary", "rescale-dirac", "twist-opt"])
def test_certificate_tolerance_is_the_solve_tolerance(tmp_path, capsys, command, doc):
    path, out_path = tmp_path / "job.json", tmp_path / "out.json"
    path.write_text(json.dumps(doc))
    code, _, _ = run_cli([command, "--input", str(path), "--output", str(out_path),
                          "--tol", "1e-6"], capsys)
    assert code == 0
    out = json.loads(out_path.read_text())
    assert out["tolerance"] == out["result"]["certificates"]["tolerance"] == 1e-6


def test_control_characters_in_labels_stay_valid_json(tmp_path, capsys):
    label = "a\nb\u0001\t\"q\"\\ \u00e9"
    doc = dict(DEGENERATE, filtration=dict(DEGENERATE["filtration"], label=label))
    path, out_path = tmp_path / "job.json", tmp_path / "out.json"
    path.write_text(json.dumps(doc))
    code, _, _ = run_cli(["degenerate", "--input", str(path), "--output", str(out_path)], capsys)
    assert code == 0
    text = out_path.read_text()
    assert json.loads(text)["degenerated"]["label"] == f"in_w({label})"
    assert "\u00e9" in text  # non-ASCII is written as is, like every earlier artifact
    for s in ("", "plain", "\x00\x1f\x7f", "\u2028", "\\\"", "\ud7ff"):
        assert json.loads(dumps_canonical({s: [s]})) == {s: [s]}


def test_dh_builds_each_degree_once(tmp_path, capsys, monkeypatch):
    import fanokit.cli as cli

    built = []

    def counting(F, m, n):
        built.append(m)
        return empirical_dh(F, m, n)

    empirical_dh = cli.empirical_dh
    monkeypatch.setattr(cli, "empirical_dh", counting)
    F = p1_filtration([2, 3, 5])
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"filtration": F.to_json(), "ambient_dim": 1,
                                "limit": measure_from_json(DIRAC).to_json()}))
    code, _, _ = run_cli(["dh", "--input", str(path), "--output", str(tmp_path / "o")], capsys)
    assert code == 0
    assert built == [2, 3, 5]
    out = json.loads((tmp_path / "o").read_text())
    assert sorted(out["measures"]) == ["2", "3", "5"]
    assert [r["degree"] for r in out["convergence"]["rows"]] == [2, 3, 5]


def test_reruns_byte_identical(tmp_path, capsys):
    outs = []
    for name in ("a.json", "b.json", "c.json"):
        out_path = tmp_path / name
        code, _, _ = run_cli(["soliton", "--input", _fixture_path("unstable_interval.json"),
                              "--output", str(out_path)], capsys)
        assert code == 0
        outs.append(out_path.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def _square_transform_doc():
    """A concave PL function on two triangles of the unit square, as a document."""
    return {"transform": {"cells": [
        {"simplex": [[0, 0], [1, 0], [1, 1]],
         "affine": {"gradient": ["-1/2", "1/4"], "constant": "1"}},
        {"simplex": [[0, 0], [0, 1], [1, 1]],
         "affine": {"gradient": ["1/4", "-1/2"], "constant": "1"}},
    ]}}


def _job(name, tmp_path):
    """(command, input path) of a bundled soliton fixture or of a job built here."""
    if name.endswith(".json"):
        return "soliton", _fixture_path(name)
    if name == "report-xi-sweep":
        measure = dict(_square_transform_doc(), weight_xi=["1/4", "0"])
        doc = {"measure": measure, "xi_list": [["0", "0"], ["-1/2", "1/4"], ["1", "-3/4"]],
               "a": ["1/2", "3"], "L": "1/4"}
        command = "report"
    elif name == "dh-pushforward-limit":  # the discretized W1 path
        levels = {"4": {"dim": 5, "values": ["1", "2", "2", "3", "4"]}}
        doc = {"filtration": {"levels": levels}, "ambient_dim": 1,
               "limit": _square_transform_doc()}
        command = "dh"
    elif name == "distance":  # explicit bases on one side, standard bases on the other
        basis = [["1", "0", "0"], ["-2", "1", "0"], ["1/2", "3", "1"]]
        doc = {"filtration_a": {"levels": {
                   "2": {"dim": 3, "values": ["2", "-1", "1/3"], "basis": basis},
                   "3": {"dim": 3, "values": ["0", "0", "4"], "basis": basis[::-1]}}},
               "filtration_b": {"levels": {
                   "2": {"dim": 3, "values": ["1", "1", "-2"]},
                   "3": {"dim": 3, "values": ["5/2", "0", "1"]}}},
               "p": 3}
        command = "distance"
    else:  # initial-term degeneration of a level with an explicit basis
        rows = [[1, 1, 0], [0, 1, -1], [2, 0, 1]]
        doc = {"model": {"num_vars": 2}, "w": [1, 0], "degree": 2,
               "filtration": {"levels": {"2": {"dim": 3, "values": [1, 0, 2], "basis": rows}}}}
        command = "degenerate"
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    return command, str(path)


@pytest.mark.parametrize("fixture", ["symmetric_polytopes.json", "unstable_interval.json",
                                     "report-xi-sweep", "dh-pushforward-limit",
                                     "distance", "degenerate"])
def test_soliton_subprocess_byte_identical(tmp_path, fixture):
    # the batched kernel goes through BLAS: its thread count must not change a bit
    src = str(Path(fanokit.__file__).resolve().parents[1])
    command, input_path = _job(fixture, tmp_path)
    outs = []
    for i, threads in enumerate((None, "1")):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        env.pop("OPENBLAS_NUM_THREADS", None)
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        out_path = tmp_path / f"{i}.json"
        subprocess.run([sys.executable, "-m", "fanokit.cli", command,
                        "--input", input_path, "--output", str(out_path)],
                       env=env, check=True, timeout=120)
        outs.append(out_path.read_bytes())
    assert outs[0] == outs[1]


def test_float_output_17_digits(tmp_path, capsys):
    out_path = tmp_path / "res.json"
    run_cli(["rescale", "--input", _fixture_path("unstable_interval.json"),
             "--output", str(out_path)], capsys)
    text = out_path.read_text()
    # round-trip exactness: parsing and re-serializing is the identity
    doc = json.loads(text)
    assert f'{doc["result"]["value"]:.17g}' in text


def test_csv_table_format():
    table = csv_table(("a", "b"), [(1, 0.5), (2, 1.0 / 3.0)])
    lines = table.strip().splitlines()
    assert lines[0] == "a,b"
    assert lines[2].startswith("2,0.33333333333333331")


LEVEL_PAIR = {"filtration_a": {"levels": {"2": {"dim": 2, "values": ["0", "1"]}}},
              "filtration_b": {"levels": {"2": {"dim": 2, "values": ["1", "1"]}}}}


@pytest.mark.parametrize("command, doc", [
    ("report", {"measure": DIRAC, "a": "10"}),
    ("report", {"measure": dict(_square_transform_doc(), weight_xi="10")}),
    ("report", {"measure": _square_transform_doc(), "xi_list": ["10"]}),
    ("distance", dict(LEVEL_PAIR, p=True)),
    ("report", {"measure": DIRAC, "a": 5}),
    ("report", {"measure": _square_transform_doc(), "xi_list": [5]}),
    ("degenerate", dict(DEGENERATE, w=5)),
    ("cone", {"measure": _square_transform_doc(), "A": "3", "s_grid": "10"}),
    ("report", {"measure": _square_transform_doc(), "xi_list": 5}),
    ("report", {"candidates": 5}),
    ("cone", {"measure": _square_transform_doc(), "A": "3", "s_grid": 5}),
], ids=["a-string", "weight-xi-string", "xi-string", "p-boolean", "a-scalar", "xi-scalar",
        "w-scalar", "s-grid-string", "xi-list-scalar", "candidates-scalar", "s-grid-scalar"])
def test_string_scalar_or_boolean_for_a_list_exit_2(tmp_path, capsys, command, doc):
    """A string is not read as its digits, nor a boolean as 1, nor a scalar iterated."""
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli([command, "--input", str(path), "--output", str(tmp_path / "o")],
                           capsys)
    assert code == 2 and err.startswith("input error: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, doc", [
    ("dh", {"filtration": {"levels": {"1": {"dim": 2, "values": ["-800", "-799"]}}},
            "ambient_dim": 1, "limit": {"atoms": [{"pos": "0", "mass": 1}]}}),
    ("check", {"filtration": {"levels": {"10": {"dim": 2, "values": ["-8000", "-7990"]}}},
               "ambient_dim": 1, "limit": {"atoms": [{"pos": "0", "mass": 1}]}}),
], ids=["dh-limit", "check"])
def test_q_m_past_double_range_exit_1(tmp_path, capsys, command, doc):
    # e^{-v/m} = e^800 at the lowest value: Q_m is past the largest double
    path, out_path = tmp_path / "job.json", tmp_path / "res.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli([command, "--input", str(path), "--output", str(out_path)], capsys)
    assert code == 1
    assert "error [NonFiniteResult]" in err
    assert not out_path.exists()


@pytest.mark.parametrize("command, doc", [
    ("cone", {"measure": DIRAC, "A": "1e400"}),
    ("report", {"measure": DIRAC, "a": ["1e400"]}),
    ("rescale", {"measure": DIRAC, "A": "1e400"}),
    ("cone", {"measure": {"atoms": [{"pos": "1e400", "mass": 1}]}, "A": "1/2"}),
    ("distance", dict(LEVEL_PAIR, p="nan")),
    ("distance", dict(LEVEL_PAIR, p="inf")),
], ids=["cone-A", "report-a", "rescale-A", "cone-atom-pos", "distance-p-nan",
        "distance-p-inf"])
def test_number_outside_double_range_exit_2(tmp_path, capsys, command, doc):
    """A number that does not round to a finite double is an input error."""
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli([command, "--input", str(path), "--output", str(tmp_path / "o")],
                           capsys)
    assert code == 2 and err.startswith("input error: ")
    assert not (tmp_path / "o").exists()


def _atoms(*atoms):
    """An atomic measure document from (pos, mass) or (pos, mass, weight) entries."""
    return {"atoms": [dict(zip(("pos", "mass", "weight"), atom)) for atom in atoms]}


def _shifted_square(constant):
    doc = _square_transform_doc()
    for cell in doc["transform"]["cells"]:
        cell["affine"]["constant"] = constant
    return doc


@pytest.mark.parametrize("command, doc", [
    ("report", {"measure": _atoms(("1e80", "1"), ("-1e80", "1"))}),
    ("report", {"measure": _atoms(("0", "1", ["1"]), ("1", "1", ["-1"])),
                "xi_list": [["1e300"]]}),
    ("report", {"measure": _atoms(("0", "1", ["1e10"]), ("1", "1", ["-1"])),
                "xi_list": [["1e300"]]}),
    ("rescale", {"measure": _atoms(("0", "1"), ("1e300", "1")), "A": "1"}),
    ("rescale", {"measure": _atoms(("0", "1"), ("1e155", "1e-10")), "A": "1"}),
    ("report", {"measure": {"domain": {"vertices": [["0"], ["1"]]}, "transform": {"cells": [
        {"simplex": [["0"], ["1"]], "affine": {"gradient": ["1"], "constant": "1e80"}}]}}}),
    ("report", {"measure": _shifted_square("1e10"), "a": ["1e300"]}),
    # on the default grid f(s) = mean of (s x / 3 + 1 - s)^-100001 over x = 1, 2 itself
    # leaves double range from s = 1/20 on
    ("cone", {"measure": _atoms(("1", "1"), ("2", "1")), "A": "3", "dim": 100000}),
], ids=["report-atom-E4", "sweep-atom-E2", "sweep-atom-position", "rescale-atom-E2",
        "rescale-tilted-E2", "report-pushforward-E4", "report-pushforward-node", "cone-A-power"])
def test_result_outside_double_range_exit_1(tmp_path, capsys, command, doc):
    """A value past double range is a named NonFiniteResult, not a raw OverflowError."""
    path, out_path = tmp_path / "job.json", tmp_path / "o"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warnings included
        code, _, err = run_cli([command, "--input", str(path), "--output", str(out_path)], capsys)
    assert code == 1 and err.startswith("error [NonFiniteResult]: ")
    assert "Traceback" not in err
    assert not out_path.exists()


def _inverse_square_mean(b, c, pieces):
    """E[(b t + c)^-2] for b > 0 and the probability density alpha + beta t on each
    piece (t0, t1, alpha, beta): with u = b t + c, (alpha + beta t) dt is
    ((alpha - beta c / b) + beta u / b) du / b, whose u^-2 part integrates to a
    rational and whose u^-1 part to a log."""
    exact, logs = Fraction(0), 0.0
    for t0, t1, alpha, beta in pieces:
        u0, u1 = b * t0 + c, b * t1 + c
        exact += (alpha - beta * c / b) / b * (1 / u0 - 1 / u1)
        logs += float(beta / b**2) * math.log(u1 / u0)
    return float(exact) + logs


def _atom_cone(A, s, p):
    """f(s) on atoms {1, 2} of equal mass, exactly: the mean of (s x / A + 1 - s)^-p."""
    return float(sum((s * x / A + 1 - s) ** -p for x in (1, 2)) / 2)


# on each triangle of _square_transform_doc the values are 1, 1/2 and 3/4: density
# 16 (t - 1/2) on [1/2, 3/4] and 16 (1 - t) on [3/4, 1]
_SQUARE_TENT = [(Fraction(1, 2), Fraction(3, 4), -8, 16), (Fraction(3, 4), 1, 16, -16)]
_DEFAULT_GRID = [Fraction(i, 20) for i in range(20)]
_TINY = Fraction(1, 10**300)


@pytest.mark.parametrize("doc, want", [
    ({"measure": _square_transform_doc(), "A": "1e-300"},
     [1.0] + [_inverse_square_mean(s / _TINY, 1 - s, _SQUARE_TENT) for s in _DEFAULT_GRID[1:]]),
    ({"measure": _atoms(("1", "1"), ("2", "1")), "A": "1e-300"},
     [_atom_cone(_TINY, s, 2) for s in _DEFAULT_GRID]),
    ({"measure": _atoms(("1", "1"), ("2", "1")), "A": "3", "dim": 100000,
      "s_grid": ["0", "1/100000"]},
     [1.0, 1.6716846034366963]),
], ids=["cone-pushforward-mean", "cone-atom-mean", "cone-dim-100000"])
def test_cone_values_whose_factors_leave_double_range(tmp_path, capsys, doc, want):
    """f(s) = E[(s x / A + 1 - s)^-(n+1)] is finite where A^(n+1) or the mean of
    (s x + (1 - s) A)^-(n+1) is not: each value is its closed form rounded once, and
    f(0) = 1.  With A = 1e-300 the values for s > 0 are about (A / s x)^2, below the
    least double."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scan = _run_job(doc, "cone", tmp_path, capsys)["scan"]
    assert scan["values"] == want
    A, n1 = rat(doc["A"]), doc.get("dim", 1) + 1
    mean = 1.5 if "atoms" in doc["measure"] else 3 / 4  # E_g of each measure
    assert scan["derivative_at_zero"] == n1 * (float(A) - mean) / float(A)


def test_rescale_compares_the_exact_support(tmp_path, capsys):
    """A support that starts 10^-13 below 0 is negative, and A at a Dirac's position is
    a boundary minimum: float slack once read the first as 0, and a float A could miss
    the second."""
    doc = {"measure": _atoms(("-1/10000000000000", "1"), ("2", "1")), "A": "1/2"}
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(["rescale", "--input", str(path)], capsys)
    assert code == 1 and err.startswith("error [NegativeSupport]: ")
    result = _run_job({"measure": _atoms(("1/3", "1")), "A": "1/3"}, "rescale", tmp_path,
                      capsys)["result"]
    assert result["argmin"] == 0 and result["value"] == 0 and result["certificates"]["converged"]


def test_report_sweep_two_kernel_batches(tmp_path, capsys, monkeypatch):
    """A sweep fills every tilt's sums in two batches, whatever the tilt count: one
    stacks the mass and every exponential moment of all tilts, one derivative batch
    gives E_1 ... E_4 of all tilts."""
    import fanokit.expint as expint

    calls = []
    real_batch = expint.dd_exp_batch

    def counted_batch(*args, **kwargs):
        calls.append(1)
        return real_batch(*args, **kwargs)

    monkeypatch.setattr(expint, "dd_exp_batch", counted_batch)
    tilts = [["0", "0"], ["-1/2", "1/4"], ["1", "-3/4"], ["1/3", "1/3"], ["-1", "0"]]
    for count in (1, 2, 5):
        calls.clear()
        doc = {"measure": _square_transform_doc(), "xi_list": tilts[:count], "a": ["1/2", "3"]}
        path = tmp_path / "job.json"
        path.write_text(json.dumps(doc))
        code, _, _ = run_cli(["report", "--input", str(path), "--output", str(tmp_path / "o")],
                             capsys)
        assert code == 0
        assert len(calls) == 2


@pytest.mark.parametrize("count", [1, 2, 5])
@pytest.mark.parametrize("transform", [T2, T3], ids=["2d", "3d"])
def test_report_sweep_rows_equal_reports_alone(tmp_path, capsys, transform, count):
    """Each tilt's report in a sweep equals, exactly, the report of the measure with
    weight_xi = base + tilt run alone: prefilled sums are the ones a lone query makes."""
    n = len(transform["cells"][0]["simplex"][0])
    base = [Fraction(1, 4), Fraction(-1, 2), Fraction(1, 3)][:n]
    tilts = [[Fraction((3 * i + 2 * j) % 7 - 3, 4) for j in range(n)] for i in range(count)]

    def report(doc):
        path = tmp_path / "job.json"
        path.write_text(json.dumps(dict(doc, a=["1/2", "3"], L="1/4")))
        code, _, _ = run_cli(["report", "--input", str(path), "--output", str(tmp_path / "o")],
                             capsys)
        assert code == 0
        return json.loads((tmp_path / "o").read_text())

    sweep = report({"measure": {"transform": transform, "weight_xi": [str(x) for x in base]},
                    "xi_list": [[str(x) for x in t] for t in tilts]})["sweep"]
    assert len(sweep) == count
    for row, tilt in zip(sweep, tilts):
        alone = report({"measure": {"transform": transform,
                                    "weight_xi": [str(b + t) for b, t in zip(base, tilt)]}})
        assert row["report"] == alone["report"]


# One small document per command, covering every reader of the JSON boundary:
# flags, values with a basis and weights, cells with a domain, vertices with
# halfspaces, atoms with weights, candidates and each optional list.
_SQUARE = [["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]]
_MIXED_LEVELS = {"label": "mixed", "levels": {
    "1": {"dim": 2, "weights": [["1"], ["-1"]],
          "flags": [{"value": "1", "rows": [["1", "0"]]},
                    {"value": "0", "rows": [["1", "0"], ["0", "1"]]}]},
    "2": {"dim": 3, "values": ["0", "1", "2"], "weights": [["-1"], ["0"], ["1"]],
          "basis": [["1", "0", "0"], ["0", "1", "0"], ["1", "1", "1"]]},
}}
_TWO_ATOMS = {"atoms": [{"pos": "0", "mass": 1, "weight": ["1"]}, {"pos": "1", "mass": "1/2"}]}
_MUTATED = {
    "dh": {"filtration": _MIXED_LEVELS, "ambient_dim": 1, "limit": DIRAC, "degrees": [1, 2]},
    "report": {"measure": dict(_square_transform_doc(), domain={"vertices": _SQUARE},
                               weight_xi=["1/4", "0"]),
               "a": ["1/2"], "L": {"kind": "supplied", "value": "1/4"},
               "xi_list": [["0", "0"], ["1/2", "0"]]},
    "report-candidates": {"candidates": [{"measure": _TWO_ATOMS, "A": "1", "label": "c"}],
                          "L": "0"},
    "soliton": {"polytope": dict(TRIANGLE, dim=2, halfspaces=[
        {"normal": ["1", "-2"], "offset": "1"}, {"normal": ["1", "1"], "offset": "1"}]),
        "projection_rank": 2},
    "rescale": {"measure": _TWO_ATOMS, "A": "1"},
    "twist-opt": {"filtration": {"levels": {"2": {"dim": 3, "values": [0, 1, 0],
                                                  "weights": [[-1], [0], [1]]}}},
                  "degrees": [2], "L": "0"},
    "degenerate": DEGENERATE,
    "distance": {"filtration_a": _MIXED_LEVELS,
                 "filtration_b": {"levels": {"2": {"dim": 3, "values": ["1", "1", "0"]}}},
                 "p": 2, "degrees": [2]},
    "cone": {"measure": _TWO_ATOMS, "A": "1/2", "s_grid": ["0", "1/2"], "dim": 1},
    "check": {"filtration": _MIXED_LEVELS, "limit": DIRAC, "ambient_dim": 1, "volume": "1",
              "polytope": {"vertices": [["-1"], ["1"]]}},
}
_MUTATIONS = [5, "x", [], {}, None, True, "10", -1, "1/0", "1e400", "nan"]


def _field_paths(value, path=()):
    """Each field path: every key of an object, the first two elements of a list."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value[:2])
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _field_paths(child, path + (key,))


@pytest.mark.parametrize("job", sorted(_MUTATED))
def test_mutated_documents_exit_0_1_or_2(tmp_path, capsys, job):
    """Every field, at every depth, replaced by each of nine values: each run
    exits 0, 1 or 2 and none raises."""
    doc, command = _MUTATED[job], job.partition("-candidates")[0]
    path, out_path = tmp_path / "job.json", tmp_path / "out.json"
    bad = []
    for fields in _field_paths(doc):
        for value in _MUTATIONS:
            mutated = copy.deepcopy(doc)
            parent = mutated
            for key in fields[:-1]:
                parent = parent[key]
            parent[fields[-1]] = value
            path.write_text(json.dumps(mutated))
            try:
                code = main([command, "--input", str(path), "--output", str(out_path)])
            except Exception as exc:  # a raw exception is the failure this test looks for
                code = f"{type(exc).__name__}: {exc}"
            if code not in (0, 1, 2):
                bad.append((fields, value, code))
    capsys.readouterr()
    assert bad == []
