"""Command-line front end: one self-describing JSON job per invocation.

Exit codes: 0 success, 1 domain error (a named precondition was violated),
2 input error (unreadable file, malformed JSON, schema violation).
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import FanokitError, InputError
from .filtration import (
    GradedFiltration,
    MonomialModel,
    d_p_level,
    empirical_dh,
    filtration_from_json,
    initial_term_degeneration,
    multiplicativity_warnings,
    q_m,
    relative_minima,
    successive_minima,
    twist,
    weight_filtration,
)
from .functionals import LPolicy, na_report
from .geometry import polytope_from_json
from .measure import DHMeasure, cdf_samples, measure_from_json, prefetch_sums, wasserstein1
from .optimize import cone_family, rescale_opt, soliton_vector, twist_opt
from .rational import format_rat, need, parse_number, rat, rat_rows, rat_vector
from .serialize import csv_table, dumps_canonical

COMMANDS = ("dh", "report", "soliton", "rescale", "twist-opt", "degenerate",
            "distance", "cone", "check")
_DOC = "input document"


def _load_document(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read input file {path}: {exc}") from exc
    try:
        # decimals are parsed as strings so rational parsing stays exact
        doc = json.loads(text, parse_float=str)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path} holds a JSON {type(doc).__name__}, not a job object")
    if "\\u" in text:
        # only an escape can make a lone surrogate, which UTF-8 cannot write
        try:
            json.dumps(doc, ensure_ascii=False).encode()
        except UnicodeEncodeError as exc:
            raise InputError(f"{path} holds a lone surrogate escape, which is not text") from exc
    return doc


def _fixture_path(name: str) -> str:
    return str(resources.files("fanokit").joinpath(f"fixtures/{name}"))


def _parse_degrees(arg) -> list[int]:
    """Degrees from ``m``, ``m1..m2`` (m1 <= m2) or a nonempty list; [] when absent."""
    if arg is None:
        return []
    if isinstance(arg, list):
        if not arg:
            raise InputError("degree list is empty")
        return [parse_number(x, "degree", minimum=1) for x in arg]
    lo, dots, hi = str(arg).partition("..")
    lo = parse_number(lo, "degree", minimum=1)
    hi = parse_number(hi, "degree", minimum=1) if dots else lo
    if hi < lo:
        raise InputError(f"degree range {arg!r} is empty: {hi} < {lo}")
    return list(range(lo, hi + 1))


def _measure_from_doc(doc: dict) -> DHMeasure:
    if "measure" in doc:
        return measure_from_json(doc["measure"])
    if "filtration" in doc and "degree" in doc:
        F = filtration_from_json(doc["filtration"])
        return empirical_dh(F, parse_number(doc["degree"], "degree", minimum=1),
                            parse_number(need(doc, _DOC, "ambient_dim"), "ambient_dim", minimum=0))
    raise InputError("document needs 'measure' or 'filtration' + 'degree'")


# ---------------------------------------------------------------------------
# command handlers (each returns a JSON-serializable result dict + optional CSV)


def _cmd_dh(doc, options):
    F = filtration_from_json(need(doc, _DOC, "filtration"))
    n = parse_number(need(doc, _DOC, "ambient_dim"), "ambient_dim", minimum=0)
    degrees = _parse_degrees(options.degrees) or _parse_degrees(doc.get("degrees")) or F.degrees()
    out = {"command": "dh", "ambient_dim": n, "measures": {}}
    csv = None
    if "limit" in doc:
        limit = measure_from_json(doc["limit"])
        out["convergence"] = convergence_report(F, limit, degrees, n, out["measures"])
        csv = _convergence_csv(out["convergence"])
    else:
        rows = []
        for m in degrees:
            nu = empirical_dh(F, m, n)
            out["measures"][str(m)] = nu.to_json()
            if options.format == "csv":
                rows.extend((m, t, c) for t, c in cdf_samples(nu))
        if options.format == "csv":
            csv = csv_table(("degree", "t", "cdf"), rows)
    warnings = multiplicativity_warnings(F)
    if warnings:
        out["warnings"] = warnings
        print("warning: " + "; ".join(warnings), file=sys.stderr)
    return out, csv


def convergence_report(F: GradedFiltration, limit: DHMeasure, degrees, ambient_dim: int,
                       measures: dict):
    """Per-degree W1 / Q_m / Psi_m gaps against the limiting measure.

    Each degree's empirical measure is built once, its JSON stored in
    ``measures`` under the degree, and dropped before the next.
    """
    q_limit = limit.exp_moment(1)
    rows = []
    for m in sorted(degrees):
        nu = empirical_dh(F, m, ambient_dim)
        measures[str(m)] = nu.to_json()
        q = q_m(F, m)
        rows.append({
            "degree": m,
            "wasserstein1": wasserstein1(nu, limit),
            "q_gap": abs(q - q_limit),
            "psi_gap": abs((1.0 - q) - (1.0 - q_limit)),  # psi_m = 1 - q_m
        })
    gaps = [r["q_gap"] for r in rows]
    monotone = all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:]))
    return {"rows": rows, "q_gap_monotone": monotone, "q_limit": q_limit}


def _convergence_csv(report) -> str:
    rows = [(r["degree"], r["wasserstein1"], r["q_gap"], r["psi_gap"])
            for r in report["rows"]]
    return csv_table(("degree", "wasserstein1", "q_gap", "psi_gap"), rows)


def _cmd_report(doc, options):
    L = LPolicy.from_json(doc.get("L"))
    a_list = [float(a) for a in rat_vector(options.a or doc.get("a", ()), "'a'")]
    out = {"command": "report"}
    csv = None
    if "candidates" in doc:
        rows = []
        best = None
        candidates = need(doc, _DOC, "candidates", kind=list)
        if not candidates:
            raise InputError("the candidate list is empty")
        for cand in candidates:
            mu = measure_from_json(need(cand, "candidate", "measure"))
            A = float(rat(need(cand, "candidate", "A")))
            res = rescale_opt(A, mu)
            rows.append({"label": cand.get("label", ""), "A": A,
                         "a_star": res.argmin, "value": res.value})
            best = res.value if best is None else min(best, res.value)
        out["candidates"] = rows
        out["h_upper_bound"] = best
        out["note"] = "minimum over the supplied candidate family; an upper bound only"
        return out, csv
    mu = _measure_from_doc(doc)
    if "xi_list" in doc:
        rows = []
        csv_rows = []
        vecs = rat_rows(doc["xi_list"], "xi_list")
        nus = [mu.twisted(vec) for vec in vecs]
        # every sum na_report reads, for all tilts in one batch per moment order
        prefetch_sums(nus, [1, *a_list], 4)
        for vec, nu in zip(vecs, nus):
            rep = na_report(nu, L.twisted(), a_list)
            rows.append({"xi": [format_rat(x) for x in vec], "report": rep.to_json()})
            for name, val in (("E", rep.E), ("S_tilde", rep.S_tilde),
                              ("H", rep.H), ("D", rep.D)):
                csv_rows.append(("[" + " ".join(format_rat(x) for x in vec) + "]",
                                 name, val))
        out["sweep"] = rows
        csv = csv_table(("xi", "functional", "value"), csv_rows)
    else:
        out["report"] = na_report(mu, L, a_list).to_json()
    return out, csv


def _cmd_soliton(doc, options):
    poly = polytope_from_json(need(doc, _DOC, "polytope"))
    rank = parse_number(doc.get("projection_rank", poly.dim), "projection_rank")
    res = soliton_vector(poly, rank, tol=options.tol)
    return {"command": "soliton", "result": res.to_json()}, None


def _cmd_rescale(doc, options):
    mu = _measure_from_doc(doc)
    res = rescale_opt(float(rat(need(doc, _DOC, "A"))), mu, tol=options.tol)
    return {"command": "rescale", "result": res.to_json()}, None


def _cmd_twist_opt(doc, options):
    F = filtration_from_json(need(doc, _DOC, "filtration"))
    degrees = _parse_degrees(options.degrees) or _parse_degrees(doc.get("degrees")) or F.degrees()
    L = LPolicy.from_json(doc.get("L"))
    res = twist_opt(F, degrees, L, tol=options.tol)
    return {"command": "twist-opt", "degrees": degrees, "result": res.to_json()}, None


def _cmd_degenerate(doc, options):
    model = MonomialModel(parse_number(need(need(doc, _DOC, "model"), "model", "num_vars"),
                                       "num_vars", minimum=1))
    w = rat_vector(need(doc, _DOC, "w"), "w", model.num_vars)
    F1 = filtration_from_json(need(doc, _DOC, "filtration"))
    m = parse_number(need(doc, _DOC, "degree"), "degree", minimum=1)
    prime = initial_term_degeneration(model, w, F1, m)
    F0 = weight_filtration(model, w, m)
    lhs = relative_minima(F0, F1, m)
    rhs = successive_minima(twist(prime, (-1,)).level(m))
    out = {
        "command": "degenerate",
        "degenerated": prime.to_json(),
        "minima_preserved": successive_minima(prime.level(m)) == successive_minima(F1.level(m)),
        "relative_minima_preserved": lhs == rhs,
        "relative_minima": [format_rat(v) for v in lhs],
    }
    return out, None


def _cmd_distance(doc, options):
    Fa = filtration_from_json(need(doc, _DOC, "filtration_a"))
    Fb = filtration_from_json(need(doc, _DOC, "filtration_b"))
    degrees = _parse_degrees(options.degrees) or _parse_degrees(doc.get("degrees"))
    if not degrees:
        degrees = sorted(set(Fa.degrees()) & set(Fb.degrees()))
        if not degrees:
            raise InputError("the two filtrations share no degree")
    p = parse_number(doc.get("p", 2), "p", float)
    rows = [{"degree": m, "d_p": d_p_level(Fa, Fb, m, p)} for m in degrees]
    out = {"command": "distance", "p": p, "rows": rows}
    if len(rows) >= 2:
        # least-squares fit d_m ~ d_inf + c/m; no convergence rate is asserted
        xs = [1.0 / r["degree"] for r in rows]
        ys = [r["d_p"] for r in rows]
        n = len(xs)
        sx, sy = sum(xs), sum(ys)
        sxx, sxy = sum(x * x for x in xs), sum(x * y for x, y in zip(xs, ys))
        denom = n * sxx - sx * sx
        if abs(denom) > 1e-30:
            slope = (n * sxy - sx * sy) / denom
            out["extrapolated_estimate"] = (sy - slope * sx) / n
            out["extrapolation_note"] = "1/m least-squares fit; no rate guarantee"
    csv = csv_table(("degree", "d_p"), [(r["degree"], r["d_p"]) for r in rows])
    return out, csv


def _cmd_cone(doc, options):
    mu = _measure_from_doc(doc)
    A = float(rat(need(doc, _DOC, "A")))
    s_grid = [float(s) for s in rat_vector(doc.get("s_grid", ()), "s_grid")] or None
    scan = cone_family(A, mu, s_grid, dim=parse_number(doc.get("dim", 1), "dim", minimum=1))
    out = {
        "command": "cone",
        "scan": scan.to_json(),
        "midpoint_convex": scan.midpoint_convex(options.tol),
    }
    csv = csv_table(("s", "f"), list(zip(scan.points, scan.values)))
    return out, csv


def _cmd_check(doc, options):
    from .checks import run_p1_checks, run_soliton_checks

    results = []
    if "filtration" in doc:
        F = filtration_from_json(doc["filtration"])
        limit = measure_from_json(need(doc, _DOC, "limit"))
        n = parse_number(need(doc, _DOC, "ambient_dim"), "ambient_dim", minimum=0)
        volume = rat(doc.get("volume", 1))
        results.extend(run_p1_checks(F, limit, n, volume))
    if "polytope" in doc:
        poly = polytope_from_json(doc["polytope"])
        rank = parse_number(doc.get("projection_rank", poly.dim), "projection_rank")
        results.extend(run_soliton_checks(poly, rank))
    if not results:
        raise InputError("check document needs 'filtration' (+'limit') or 'polytope'")
    for name, ok, detail in results:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    out = {
        "command": "check",
        "passed": all(ok for _, ok, _ in results),
        "results": [{"name": n_, "passed": ok, "detail": d} for n_, ok, d in results],
    }
    if not out["passed"]:
        raise FanokitError("verification suite failed")
    return out, None


_HANDLERS = {
    "dh": _cmd_dh,
    "report": _cmd_report,
    "soliton": _cmd_soliton,
    "rescale": _cmd_rescale,
    "twist-opt": _cmd_twist_opt,
    "degenerate": _cmd_degenerate,
    "distance": _cmd_distance,
    "cone": _cmd_cone,
    "check": _cmd_check,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fanokit",
        description="Functionals and optimal-degeneration solvers on polytope/filtration data",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--input", help="job document (JSON); `check` defaults to the bundled fixture")
    parser.add_argument("--output", help="write the report here (default: stdout)")
    parser.add_argument("--a", action="append", help="exponential-moment parameter (repeatable)")
    parser.add_argument("--degrees", help="degree list m1..m2 or a single m")
    parser.add_argument("--tol", type=float, default=None, help="solver tolerance override")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


# built once: parse_args leaves the parser unchanged and returns a fresh namespace
_PARSER = build_parser()


def main(argv=None) -> int:
    options = _PARSER.parse_args(argv)
    options.tol = options.tol if options.tol is not None else 1e-10
    try:
        if options.input is None:
            if options.command != "check":
                raise InputError("--input is required for this command")
            options.input = _fixture_path("p1_example.json")
        doc = _load_document(options.input)
        with np.errstate(over="ignore", invalid="ignore"):  # NonFiniteResult says it once
            result, csv = _HANDLERS[options.command](doc, options)
        result["tolerance"] = options.tol
        text = dumps_canonical(result) + "\n"
        if options.format == "csv" and csv is not None:
            text = csv
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except FanokitError as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1
    if options.output:
        Path(options.output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
