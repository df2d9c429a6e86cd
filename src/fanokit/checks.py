"""Bundled verification suites for the shipped worked-example fixtures.

Each check returns (name, passed, detail); the CLI ``check`` command prints
one line per check and exits nonzero on any failure.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .filtration import (
    GradedFiltration,
    empirical_dh,
    multiplicativity_warnings,
    q_m,
)
from .functionals import LPolicy, ek_from_minima_polynomial, na_report
from .measure import DHMeasure, wasserstein1
from .optimize import soliton_vector


def run_p1_checks(F: GradedFiltration, limit: DHMeasure, ambient_dim: int,
                  volume) -> list[tuple[str, bool, str]]:
    results = []
    degrees = F.degrees()

    # the values 0, -1, ..., -m sum to -(m^2 + m)/2; compared on the level's
    # integer table, values over one denominator
    ok = all(sorted(lv._nums, reverse=True) == [-i * lv._den for i in range(m + 1)]
             for m, lv in zip(degrees, map(F.level, degrees)))
    results.append(("successive-minima", ok,
                    f"values -m..0 and sum -(m^2+m)/2 on degrees {degrees[0]}..{degrees[-1]}"))

    watched = [m for m in (10, 50, 200) if m in degrees]
    dists = {m: wasserstein1(empirical_dh(F, m, ambient_dim), limit) for m in watched}
    ok = all(d <= 2.0 / m for m, d in dists.items())
    results.append(("dh-convergence", ok,
                    "; ".join(f"W1(nu_{m}) = {d:.3e} <= {2.0 / m:.3e}" for m, d in dists.items())))

    rep = na_report(limit, LPolicy.weight_twist())
    ok = abs(rep.E + 0.5) <= 1e-10 and abs(rep.S_tilde + math.log(math.e - 1)) <= 1e-10
    results.append(("limit-functionals", ok,
                    f"E = {rep.E:.12f}, S_tilde = {rep.S_tilde:.12f}"))

    fit_degrees = [m for m in degrees if m >= 10]
    if len(fit_degrees) >= 3:
        fit = ek_from_minima_polynomial(F, fit_degrees, k=1,
                                        ambient_dim=ambient_dim, volume=volume)
        ok = fit.leading_coefficient == Fraction(-1, 2)
        results.append(("minima-growth-fit", ok,
                        f"leading coefficient = {fit.leading_coefficient} (want -1/2)"))

    ok = True
    for m in degrees[:12]:
        nu = empirical_dh(F, m, ambient_dim)
        r = na_report(nu, LPolicy.weight_twist())
        if r.S_tilde > r.E + 1e-12:
            ok = False
    results.append(("jensen", ok, "S_tilde <= E on empirical levels"))

    b = Fraction(3, 7)
    base = na_report(limit, LPolicy.weight_twist())
    shifted = na_report(limit.affine_transform(1, b),
                        LPolicy.weight_twist().transformed(1, b))
    ok = (abs(shifted.S_tilde - base.S_tilde - float(b)) <= 1e-12
          and abs(shifted.H - base.H) <= 1e-12)
    results.append(("shift-rules", ok,
                    f"S_tilde(+{b}) - S_tilde = {shifted.S_tilde - base.S_tilde:.15f}"))

    qs = [(m, q_m(F, m)) for m in degrees if m >= 10]
    target = limit.exp_moment(1)
    gaps = [abs(q - target) for _, q in qs]
    ok = all(a >= b_ - 1e-12 for a, b_ in zip(gaps, gaps[1:]))
    results.append(("qm-convergence", ok,
                    f"|Q_m - Q| decreasing over {len(qs)} degrees"
                    + (f", last = {gaps[-1]:.3e}" if gaps else "")))

    warnings = multiplicativity_warnings(F)
    results.append(("superadditivity", not warnings,
                    warnings[0] if warnings else "lambda_max superadditive on stored degrees"))
    return results


def run_soliton_checks(polytope, rank) -> list[tuple[str, bool, str]]:
    res = soliton_vector(polytope, rank)
    off = max(abs(v) for v in res.argmin)
    return [
        ("soliton-symmetric", off <= 1e-10,
         f"|xi*| = {off:.3e}, grad = {res.grad_norm:.3e}"),
        ("soliton-certificate", res.converged and res.hessian_min_eig >= 0,
         f"min Hessian eigenvalue {res.hessian_min_eig:.3e}"),
    ]
