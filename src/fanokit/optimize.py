"""Strictly convex minimization: soliton direction, rescaling and twist optima.

All objectives here are smooth log-exponential integrals whose gradients are
tilted means and whose Hessians are tilted covariances, hence positive
semidefinite; a damped Newton iteration with backtracking is enough.  The
soliton, rescaling and twist optima all run ``newton_minimize`` on one
``evaluate(x) -> (f, g, H)`` each, one kernel batch per Newton point where a
kernel is involved.  Each result carries a convexity certificate (smallest
Hessian eigenvalue at the reported argmin) alongside the gradient norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._kernel import dd_exp_batch
from .errors import (
    DenominatorVanishes,
    DimensionMismatch,
    InputError,
    InvalidVolumeFunction,
    MissingTorusWeights,
    NegativeSupport,
    NonConvergence,
    NonFiniteResult,
    OriginNotInterior,
)
from .expint import PLConcaveFunction, _factorial_volume, pl_cell_integrals
from .functionals import LPolicy
from .geometry import RationalPolytope, origin_in_interior, pairing_form
from .measure import DHMeasure, adaptive_simpson
from .rational import rat, rat_vector

NEWTON_TOL = 1e-10
MAX_ITER = 100
ARMIJO = 1e-4
BACKTRACK = 0.5
COND_LIMIT = 1e12


@dataclass(frozen=True)
class OptResult:
    argmin: tuple | float
    value: float
    grad_norm: float
    hessian_min_eig: float
    iterations: int
    converged: bool
    tolerance: float

    def to_json(self) -> dict:
        arg = list(self.argmin) if isinstance(self.argmin, tuple) else self.argmin
        return {
            "argmin": arg,
            "value": self.value,
            "grad_norm": self.grad_norm,
            "iterations": self.iterations,
            "certificates": {
                "hessian_min_eig": self.hessian_min_eig,
                "converged": self.converged,
                "tolerance": self.tolerance,
            },
        }


@dataclass(frozen=True)
class ConvexScan:
    points: tuple
    values: tuple
    derivative_at_zero: float | None = None

    def midpoint_convex(self, tol: float = 1e-10) -> bool:
        """Each inner sample is at most tol above the chord of its two (distinct) neighbours."""
        s, f = self.points, self.values
        return all(f[i] <= ((s[i + 1] - s[i]) * f[i - 1] + (s[i] - s[i - 1]) * f[i + 1])
                   / (s[i + 1] - s[i - 1]) + tol for i in range(1, len(s) - 1))

    def to_json(self) -> dict:
        return {
            "points": list(self.points),
            "values": list(self.values),
            "derivative_at_zero": self.derivative_at_zero,
        }


# The first three positional parameters stay the callbacks f, grad and hess:
# the benchmark's tracer wraps exactly those to count their calls.
def newton_minimize(f, grad, hess, x0, tol: float = NEWTON_TOL) -> OptResult:
    """Damped Newton with backtracking; gradient fallback for bad conditioning.

    The Newton step solves H s = -g when the Jacobi-scaled Hessian
    D^-1/2 H D^-1/2 (D = diag|H|) has condition at most ``COND_LIMIT``, so a
    thin polytope or a rescaled coordinate does not force the fallback; a zero
    or non-finite diagonal, or a singular H, takes the gradient step.

    Stops when ||g|| <= tol and the Newton step is at most tol * max(1, ||x||):
    with a small Hessian a small gradient alone does not bound the argmin error.
    Only a Newton step can pass that test, not the gradient fallback, whose
    length says nothing about the distance to the argmin.  NonConvergence when
    no step has passed it after ``MAX_ITER`` iterations.
    """
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    fx = f(x)
    iters = 0
    g = np.atleast_1d(grad(x))
    while True:
        gnorm = float(np.linalg.norm(g))
        H = np.atleast_2d(hess(x))
        newton = False
        d = np.sqrt(np.abs(np.diag(H)))
        try:
            # the condition of D^-1/2 H D^-1/2, D = diag|H|, is blind to the scale of
            # each coordinate; it is 1 for a 1 x 1 Hessian
            if d.all() and np.isfinite(d).all() and (
                    len(d) == 1 or np.linalg.cond(H / d[:, None] / d) <= COND_LIMIT):
                step, newton = np.linalg.solve(H, -g), True
        except np.linalg.LinAlgError:
            pass
        if newton and gnorm <= tol and (float(np.linalg.norm(step))
                                        <= tol * max(1.0, float(np.linalg.norm(x)))):
            break
        if iters >= MAX_ITER:
            raise NonConvergence(f"no Newton step met the stop test in {iters} iterations "
                                 f"(gradient norm {gnorm})")
        if not newton:
            step = -g
        slope = float(g @ step)
        if slope >= 0:  # not a descent direction; fall back to steepest descent
            step = -g
            slope = -gnorm**2
        if -slope <= 1e-15 * max(1.0, abs(fx)):
            # predicted decrease is below evaluation noise: trust the model step
            x = x + step
            fx = f(x)
        else:
            t = 1.0
            while t > 1e-14:
                candidate = x + t * step
                fc = f(candidate)
                if fc <= fx + ARMIJO * t * slope:
                    break
                t *= BACKTRACK
            else:
                raise NonConvergence("line search stalled")
            x, fx = candidate, fc
        g = np.atleast_1d(grad(x))
        iters += 1
    min_eig = float(np.linalg.eigvalsh(0.5 * (H + H.T))[0])
    if min_eig < 0 and min_eig > -1e-12 * max(1.0, float(np.linalg.norm(H))):
        min_eig = 0.0
    return OptResult(tuple(float(v) for v in x), fx, gnorm, min_eig, iters, True, tol)


def _shared_callbacks(evaluate):
    """The f, grad and hess of ``newton_minimize`` from one ``evaluate(x) -> (f, g, H)``.

    The last point's result is kept, so each point is evaluated once however
    many of the three callbacks ask for it.
    """
    last = [None, None]

    def at(x):
        if last[0] is None or not np.array_equal(last[0], x):
            last[1] = evaluate(x)
            last[0] = np.array(x, dtype=float)
        return last[1]

    return (lambda x: at(x)[0]), (lambda x: at(x)[1]), (lambda x: at(x)[2])


# ---------------------------------------------------------------------------
# tilted-moment helpers over a polytope


class _SolitonObjective:
    """xi -> log((1/vol) int_P e^{-<y', xi>} dy), its gradient and Hessian.

    A cell's integral is |det| * DD[exp](z) at the nodes z_v = -<y'_v, xi>,
    and its derivatives are repeated-node divided differences:
    dDD/dz_v = DD(z, z_v) and d2DD/dz_u dz_v = (1 + [u = v]) DD(z, z_u, z_v).
    One kernel batch over the node lists z + (z_u, z_v), u <= v, of every cell
    yields all three as prefix divided differences.  Cell sums are taken in
    the log domain, relative to the largest cell's log offset.
    The value is the prefix DD(z) of the same rows, so a Newton point costs
    one batch.
    """

    def __init__(self, polytope: RationalPolytope, rank: int):
        cells = polytope.triangulate()
        # (C, n+1, r) vertex coordinates paired with xi, and log |det| = log(n! vol),
        # each float one correctly rounded int / int
        self.points = np.array([[[x / s._den for x in v[:rank]] for v in s._rows]
                                for s in cells])
        self.log_scale = np.log([_factorial_volume(s) for s in cells])
        self.log_vol = math.log(float(polytope.volume()))
        self.pairs = np.triu_indices(self.points.shape[1])

    def moments(self, xi):
        """(top, I, dI, d2I): e^top * (I, dI, d2I) are the integral and its xi-derivatives."""
        z = -(self.points @ np.asarray(xi, dtype=float))
        c, n1 = z.shape
        u, v = self.pairs
        npairs = len(u)
        ext = np.concatenate([np.repeat(z[:, None, :], npairs, axis=1),
                              z[:, u, None], z[:, v, None]], axis=2)
        rows, offset, _ = dd_exp_batch(ext.reshape(c * npairs, n1 + 2))
        rows = rows.reshape(c, npairs, n1 + 2)
        # cell weights relative to the largest: int = e^top * sum_c w_c DD_c(z)
        log_w = self.log_scale + offset[::npairs]
        top = float(log_w.max())
        w = np.exp(log_w - top)
        total = math.fsum(w * rows[:, 0, n1 - 1])
        diag = np.flatnonzero(u == v)
        dd1 = rows[:, diag, n1]  # DD(z, z_u), u = 0..n
        dd2 = rows[:, :, n1 + 1]  # DD(z, z_u, z_v), u <= v
        y = self.points
        grad = -np.einsum("c,cu,cua->a", w, dd1, y)
        half = np.einsum("c,cp,cpa,cpb->ab", w, dd2, y[:, u], y[:, v])
        return top, total, grad, half + half.T

    def evaluate(self, xi):
        """(f, g, H) at xi from one kernel batch."""
        top, total, grad, second = self.moments(xi)
        g = grad / total
        return top + math.log(total) - self.log_vol, g, second / total - np.outer(g, g)


def soliton_vector(polytope: RationalPolytope, rank: int | None = None,
                   tol: float = NEWTON_TOL) -> OptResult:
    """Unique minimizer of xi -> log int e^{-<y', xi>} dy over the first ``rank`` coords.

    The properness precondition (0 strictly inside the projected polytope) is
    checked exactly before iterating.  The reported value is the entropy
    functional at the optimum: log of the mass-normalized tilted volume.
    """
    r = rank if rank is not None else polytope.dim
    projected = polytope.project(r)
    if not projected.full_dimensional or not projected.contains([0] * r, strict=True):
        raise OriginNotInterior(
            "0 must lie strictly inside the projected polytope for properness"
        )
    objective = _SolitonObjective(polytope, r)
    return newton_minimize(*_shared_callbacks(objective.evaluate), np.zeros(r), tol=tol)


def rescale_opt(A, mu: DHMeasure, tol: float = NEWTON_TOL) -> OptResult:
    """Minimize f(a) = a*A + log((1/V) int e^{-a x} dmu) over a >= 0.

    Returns a_* = 0 with value 0 when the slope at zero beta = A - E is
    nonnegative; otherwise the unique interior optimum with f(a_*) < 0, by
    ``newton_minimize`` with f' = A - (tilted mean) and f'' = (tilted variance).
    """
    A = float(A)
    if A <= 0:
        raise InputError(f"log discrepancy must be positive, got {A}")
    support = mu.support()
    if support.lambda_min < -1e-12:
        raise NegativeSupport(f"support starts at {support.lambda_min} < 0")
    if support.lambda_min == support.lambda_max:
        # Dirac spectrum at T: the objective is affine a*(A - T)
        if A >= support.lambda_min:
            # affine increasing objective: boundary minimum, projected gradient 0
            return OptResult(0.0, 0.0, 0.0, 0.0, 0, True, tol)
        raise NonConvergence(
            "objective is affine for a Dirac spectral measure with position above A; "
            "no minimizer exists (infimum at a -> infinity)"
        )

    beta = A - mu.moment(1)
    if beta >= 0:
        # f'(0) = beta >= 0 and f is convex: the boundary a = 0 is the minimum
        return OptResult(0.0, 0.0, 0.0, 0.0, 0, True, tol)

    # shift the spectrum to start at 0: f is unchanged up to replacing A by
    # A - lambda_min, and the tilted variance m2 - m1^2 does not cancel
    lam0 = rat(support.lambda_min).limit_denominator(10**12)
    mu_w = mu.affine_transform(1, -lam0) if lam0 != 0 else mu
    A_w = A - float(lam0)
    if A_w <= 0:
        # the tilted mean stays above lambda_min >= A: f decreases forever
        raise NonConvergence(
            f"A = {A} does not exceed the spectrum minimum {float(lam0)}: "
            "the rescaling objective has no interior minimum"
        )

    def evaluate(x):
        # f, f' and f'' from the shifted measure's one tilted query
        a = float(x[0])
        log_q, (_, m1, m2) = mu_w._tilted(a, 2)
        return a * A_w + log_q, np.array([A_w - m1]), np.array([[max(m2 - m1 * m1, 0.0)]])

    res = newton_minimize(*_shared_callbacks(evaluate), np.zeros(1), tol=tol)
    return replace(res, argmin=res.argmin[0])


def _tilted_moment(mu: DHMeasure, a, k: int) -> float:
    """(1/mass) int x^k e^{-a x} dmu, the unnormalized tilted moment."""
    return mu.tilted_moment(a, k) * mu.exp_moment(a)


def twist_opt(F, m_list, L: LPolicy, x0=None, tol: float = NEWTON_TOL) -> OptResult:
    """Minimize xi -> L - S_tilde(twist(F, xi)) on pooled empirical atoms.

    For a single degree this is exactly L + log Q_m of the twisted filtration.
    Strict convexity gives a unique argmin; the properness test (0 interior to
    the hull of the torus weights) runs exactly first.
    """
    if isinstance(m_list, int):
        m_list = [m_list]
    atoms = []
    weight_points = []
    rank = None
    for m in m_list:
        lv = F.level(m)
        if lv.weights is None:
            raise MissingTorusWeights(f"level {m} has no torus weights")
        if rank is None:
            rank, first = len(lv._wnums[0]), m
        elif len(lv._wnums[0]) != rank:
            raise DimensionMismatch(f"torus weights of degree {m} have rank "
                                    f"{len(lv._wnums[0])}, those of degree {first} rank {rank}")
        weight_points += lv.weights
        for val, w in zip(lv._nums, lv._wnums):
            atoms.append((val / lv._den / m, 1.0 / len(m_list) / lv.dim,
                          tuple(x / lv._wden / m for x in w)))
    # 0 is interior to the hull of the w / m exactly when it is interior to
    # the hull of the w: scaling each point by 1/m > 0 keeps every sign <a, w>
    if not origin_in_interior(weight_points):
        raise OriginNotInterior(
            "0 must lie strictly inside the hull of the torus weights"
        )
    positions = np.array([p for p, _, _ in atoms])
    masses = np.array([m for _, m, _ in atoms])
    weights = np.array([w for _, _, w in atoms])

    def evaluate(xi):
        # -S_tilde, its gradient -E[w] and Hessian Cov[w] under the tilted atoms
        shifted = positions + weights @ np.asarray(xi)
        zmax = np.max(-shifted)
        p = masses * np.exp(-shifted - zmax)
        total = p.sum()
        p /= total
        mean = weights.T @ p
        return (zmax + math.log(float(total)), -mean,
                (weights.T * p) @ weights - np.outer(mean, mean))

    start = np.zeros(rank) if x0 is None else np.asarray(x0, dtype=float)
    inner = newton_minimize(*_shared_callbacks(evaluate), start, tol=tol)
    # L - S_tilde, with -S_tilde the inner value
    return replace(inner, value=L.twisted().value + inner.value)


def interpolation_derivative(transform_or_filtration, xi, L_hat,
                             h: float = 1e-4, degree: int | None = None):
    """Analytic and finite-difference s-derivatives at 0 of the rescaled-twist family.

    The family interpolates the weight filtration of xi (s = 0) and the given
    data (s = 1); its value function is s*L_hat - S_tilde at the interpolated
    transform.  Returns (analytic, finite_difference).
    """
    if isinstance(transform_or_filtration, PLConcaveFunction):
        G = transform_or_filtration
        n = G.dim
        xi_r = rat_vector(xi)
        ell = pairing_form(xi_r, n)

        def h_hat(s):
            # log int e^{-(s G + (1 - s) <y, xi>)}, from log-offset cell integrals
            s_r = rat(s).limit_denominator(10**15)
            ((top, (total,)),) = pl_cell_integrals(G, [([(1 - s_r) * x for x in xi_r], [s_r])], 0)
            return float(s) * L_hat + top + math.log(total)

        # analytic: L_hat - (int (G - <y, xi>) e^{-<y, xi>}) / (int e^{-<y, xi>})
        gap = PLConcaveFunction(G.domain, tuple((s, f.plus(ell.scaled(-1))) for s, f in G.cells))
        analytic = L_hat - DHMeasure.pushforward(gap, xi_r).moment(1)
    else:
        F = transform_or_filtration
        m = degree if degree is not None else max(F.degrees())
        lv = F.level(m)
        if lv.weights is None:
            raise MissingTorusWeights(f"level {m} has no torus weights")
        lam = np.array([v / lv._den / m for v in lv._nums])
        wts = np.array([[x / lv._wden / m for x in w] for w in lv._wnums])
        pairing = wts @ np.asarray([float(x) for x in xi])

        def h_hat(s):
            # log mean e^{-vals} as a log-sum-exp
            z = -(s * lam + (1 - s) * pairing)
            top = float(z.max())
            return s * L_hat + top + math.log(float(np.mean(np.exp(z - top))))

        p = np.exp(-(pairing - pairing.min()))
        p /= p.sum()
        analytic = L_hat - float(np.sum((lam - pairing) * p))

    fd = (-3.0 * h_hat(0.0) + 4.0 * h_hat(h) - h_hat(2 * h)) / (2 * h)
    return analytic, fd


def cone_family(A, mu_g: DHMeasure, s_grid=None, dim: int = 1) -> ConvexScan:
    """Normalized cone-volume family f(s) = A^{n+1} E[(s x + (1-s) A)^{-(n+1)}].

    f(0) = 1 and f'(0) = (n+1) * (A - E_g) / A; the scan tests convexity on the
    sampled grid, whose values must be distinct.
    """
    A = float(A)
    if A <= 0:
        raise InputError(f"cone apex parameter must be positive, got {A}")
    if s_grid is None:
        s_grid = [i * 0.05 for i in range(20)]  # {0, 0.05, ..., 0.95}
    s_grid = sorted(float(s) for s in s_grid)
    if any(a == b for a, b in zip(s_grid, s_grid[1:])):
        raise InputError("s_grid repeats a value")
    support = mu_g.support()
    n1 = dim + 1
    try:
        scale = A**n1
    except OverflowError:
        raise NonFiniteResult(f"A^{n1} is outside double range") from None
    for s in s_grid:
        for endpoint in (support.lambda_min, support.lambda_max):
            if s * endpoint + (1 - s) * A <= 0:
                raise DenominatorVanishes(
                    f"s x + (1-s) A vanishes at s = {s}, x = {endpoint}"
                )

    def f(s):
        b = rat(s)
        return scale * mu_g.inverse_power_mean(b, (1 - b) * rat(A), n1)

    values = tuple(f(s) for s in s_grid)
    e_g = mu_g.moment(1)
    deriv0 = n1 * (A - e_g) / A
    return ConvexScan(tuple(s_grid), values, deriv0)


def vol_g_tau(V_g, volg_fn, tau, n: int, tol: float = 1e-11) -> float:
    """V_g / tau^{n+1} - (n+1) int_0^inf volg_fn(x) dx / (x + tau)^{n+2}.

    ``volg_fn`` must be non-increasing with volg_fn(0) <= V_g and compactly
    supported decrease; the tail where it vanishes is integrated in closed form.
    """
    V_g = float(V_g)
    tau = float(tau)
    if tau <= 0 or V_g <= 0:
        raise InputError("tau and V_g must be positive")
    probes = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
    vals = [float(volg_fn(x)) for x in probes]
    if vals[0] > V_g * (1 + 1e-12):
        raise InvalidVolumeFunction(f"volg_fn(0) = {vals[0]} exceeds V_g = {V_g}")
    for a, b in zip(vals, vals[1:]):
        if b > a + 1e-12 * max(1.0, abs(a)):
            raise InvalidVolumeFunction("volume profile is not non-increasing")
    # find T with volg_fn ~ 0 beyond it
    T = 1.0
    for _ in range(80):
        if float(volg_fn(T)) <= 1e-300:
            break
        T *= 2.0
    else:
        raise InvalidVolumeFunction("volume profile does not decay on [0, 2^80]")
    # profiles may drop to 0 with a jump; locate the support end by bisection
    # (monotonicity) so the discontinuity sits at an integration endpoint
    lo, hi = 0.0, T
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if float(volg_fn(mid)) > 1e-300:
            lo = mid
        else:
            hi = mid
    # integrate up to the inner bound: the profile is positive throughout, and
    # the skipped sliver [lo, hi] is ~2^-80 wide
    integral = adaptive_simpson(
        lambda x: float(volg_fn(x)) / (x + tau) ** (n + 2), 0.0, lo, tol
    )
    return V_g / tau ** (n + 1) - (n + 1) * integral

