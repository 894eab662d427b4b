"""Electrostatic potential solves with frozen quasi-Fermi arguments.

The discrete problem is K(phi) = 0 with

    K(phi) = P phi - load - V . [F1(omega1 - phi) - F2(omega2 + phi)],

where P is the Robin-Poisson operator, V the cell volumes weighting the
density terms, and omega the pair of carrier arguments held fixed during
the solve.  Damped Newton is the only solver on a production path (the
potential map, the decoupling loop and the equilibrium state); it
converges quadratically and fails with a typed error, never silently.

The cut-off gradient iteration is the reference the ``poisson-newton``
property suite checks Newton against.  Clamping the potential to
[-K, K] inside the density terms gives K_cut, whose Jacobian
P + V diag((F1' + F2') 1[|phi| < K]) is symmetric: K_cut is the gradient
of a convex function that is 1-strongly convex (m = 1) and L-smooth in
the metric of P, with L = 1 + sup F' lammax(P^{-1} V) over the clamped
argument range.  Gradient descent in that metric with step 2/(m + L)
therefore has the provable contraction factor (L - 1)/(L + 1) per
iteration (Nesterov, Introductory Lectures on Convex Optimization,
Thm 2.1.15).

The potential map is nonexpansive in the sup norm with respect to omega,
a consequence of the M-matrix structure of P and the monotonicity of the
statistics, and the solution of the load-free problem is bounded by
``apriori_bound``, the contraction reference's default cut-off.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .device import bulk_doping, contact_values
from .errors import DomainError, NonConvergenceError
from .operators import (FactorSlot, SparseOperator, poisson_data_load,
                        solve_linear)
from .statistics import StatisticsModel, carrier_arguments, eval_carriers

__all__ = [
    "NonlinearPoissonProblem", "SolveReport", "apriori_bound", "cutoff",
    "newton_solve", "contraction_iterate", "solve_operator_S",
    "neutral_potential", "equilibrium_state",
]

_NEWTON_MAX_ITER = 100
_CONTRACTION_MAX_ITER = 200000
_EQUILIBRIUM_TOL = 1e-12
_NEUTRAL_RTOL = 1e-12  # relative residual of the neutral-potential iteration
# Relative residual a Newton direction must meet (the forcing term of
# inexact Newton; Dembo, Eisenstat and Steihaug, 1982).  Newton's own
# dual-norm test decides convergence, so the direction needs no more.
# On perfbench/decks/pn_junction_2d.yaml (64x64) every one of the 52
# transient directions met 1e-3 on its first triangular solve from the
# run's held factor (worst 1.7e-4), where the 1e-12 contract took 4-5
# solves each: 80 direction solves instead of 210, for 56 directions
# instead of 51, and outputs within 1.5e-15 of their scale.  A direction
# from a drifted factor stops refining once it meets the forcing term: the
# 64x64 equilibrium takes 2 factors and 15 triangular solves, against 33
# with refinement to the rounding floor.  A 1D (gttrs) direction meets
# 1e-12 on its first solve, so 1D is unchanged.
_NEWTON_FORCING = 1e-3


@dataclass(frozen=True)
class NonlinearPoissonProblem:
    """One potential solve: operator, load, statistics pair, frozen omega.

    The density terms are weighted by the cell volumes of the operator's
    mesh."""
    poisson: SparseOperator
    load: np.ndarray
    stats: tuple[StatisticsModel, StatisticsModel]
    omega: np.ndarray

    def __post_init__(self):
        n = self.poisson.dimension
        load = np.asarray(self.load, dtype=float)
        omega = np.asarray(self.omega, dtype=float)
        if load.shape != (n,):
            raise DomainError("load must match the operator size")
        if omega.shape != (2, n):
            raise DomainError("omega must be a (2, n) pair field")
        if not np.all(np.isfinite(omega)):
            raise DomainError("omega must be bounded")
        object.__setattr__(self, "load", load)
        object.__setattr__(self, "omega", omega)

    @property
    def volumes(self) -> np.ndarray:
        return self.poisson.disc.mesh.cell_volumes

    def linearize(self, phi: np.ndarray):
        """Residual at ``phi``, the diagonal V (F1' + F2') that the density
        terms add to P there (always positive), and the densities (F, F')
        of both carriers there, each (2, n), that they were computed from:
        one statistics evaluation of both carriers."""
        u, du = eval_carriers(self.stats, carrier_arguments(self.omega, phi))
        residual = self.poisson @ phi - self.load \
            - self.volumes * (u[0] - u[1])
        return residual, self.volumes * (du[0] + du[1]), (u, du)

    def dual_norm(self, r: np.ndarray) -> float:
        """sqrt(r^T P^{-1} r), the discrete dual norm of a residual; inf
        when the product overflows."""
        w = self.poisson.factor().solve(r)
        with np.errstate(over="ignore"):
            val = float(r @ w)
        return math.sqrt(max(val, 0.0))


@dataclass
class SolveReport:
    """Iterations and final dual residual of a potential solve.

    Newton's report also carries ``densities``: both carriers' (F, F'),
    each (2, n), at the potential it returns, from the residual
    evaluation that accepted that potential, so a caller needs no second
    statistics pass there.  They are not part of the report's equality.
    """
    iterations: int
    residual: float
    densities: tuple | None = field(default=None, repr=False, compare=False)


def apriori_bound(omega, stats) -> float:
    """Sup-norm bound M + K0 on the solution of the load-free problem.

    M is the bound on omega; K0 = max(|k1|, |k2|) comes from the zero
    pair k1 = 0, k2 = F2^{-1}(F1(0)), the arguments at which the density
    difference vanishes identically.  Identical statistics give K0 = 0.
    """
    omega = np.asarray(omega, dtype=float)
    M = float(np.max(np.abs(omega))) if omega.size else 0.0
    s1, s2 = stats
    if s1.kind == s2.kind:
        return M
    k2 = float(s2.invert(s1.eval(0.0)))
    return M + abs(k2)


def cutoff(s, K: float):
    """Clamp to [-K, K] (the truncation making the fixed-point map global)."""
    if K < 0.0:
        raise DomainError("cutoff bound must be nonnegative")
    out = np.clip(s, -K, K)
    if np.ndim(s) == 0:
        return float(out)
    return out


def newton_solve(problem: NonlinearPoissonProblem, tol: float = 1e-12,
                 x0: np.ndarray | None = None,
                 slot: FactorSlot | None = None,
                 ) -> tuple[np.ndarray, SolveReport]:
    """Damped Newton on K(phi) = 0, measured in the discrete dual norm.

    The Jacobian P + V diag(F1' + F2') is symmetric positive definite, so
    the Newton direction always exists; step halving enforces monotone
    residual decrease.  Trial points that overflow the statistics produce
    an infinite residual and are rejected by the same test.

    Each direction is solved by ``solve_linear`` from ``slot`` (a fresh
    slot when none is given), so a Jacobian close to the last one
    factored, in this solve or in an earlier one that shared the slot,
    takes no new factor.  The direction meets the forcing term
    ``_NEWTON_FORCING`` relative to the residual (inexact Newton), not
    the 1e-12 contract: convergence is the dual-norm test at ``tol``,
    which stays Newton's own.  A singular Jacobian raises ``SolverError``
    from its factorization.
    """
    if tol <= 0.0:
        raise DomainError("tol must be positive")
    slot = FactorSlot() if slot is None else slot
    n = problem.poisson.dimension
    phi = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    r, diagonal, densities = problem.linearize(phi)
    res = problem.dual_norm(r)
    for it in range(_NEWTON_MAX_ITER):
        if res <= tol:
            return phi, SolveReport(it, res, densities)
        delta, _ = solve_linear(problem.poisson.shifted(diagonal), r, slot,
                                rtol=_NEWTON_FORCING)
        if not np.isfinite(delta).all():
            # an overflowed Jacobian diagonal poisons the direction; no
            # amount of damping recovers from a non-finite step
            raise NonConvergenceError("Newton direction is not finite",
                                      iterations=it, residual=res)
        step = 1.0
        while True:
            trial = phi - step * delta
            with np.errstate(invalid="ignore"):
                r_trial, diagonal_trial, densities_trial = \
                    problem.linearize(trial)
            res_trial = (problem.dual_norm(r_trial)
                         if np.isfinite(r_trial).all() else math.inf)
            if res_trial < res:
                break
            step *= 0.5
            if step < 2.0 ** -40:
                raise NonConvergenceError(
                    "Newton line search stalled", iterations=it, residual=res)
        phi, r, diagonal, res = trial, r_trial, diagonal_trial, res_trial
        densities = densities_trial
    if res <= tol:
        return phi, SolveReport(_NEWTON_MAX_ITER, res, densities)
    raise NonConvergenceError("Newton did not reach tolerance",
                              iterations=_NEWTON_MAX_ITER, residual=res)


def _optimal_step(problem: NonlinearPoissonProblem, K: float) -> float:
    """lambda = 2 / (m + L) with m = 1 and L = 1 + sup F' * lammax(P^{-1} V).

    The extremal eigenvalue of P^{-1}V is estimated by power iteration in
    the energy inner product; sup F' is taken over the cut-off range
    [-K - M, K + M] of the statistics arguments, M the sup norm of omega
    (both carriers see arguments bounded by that interval).
    """
    M = float(np.max(np.abs(problem.omega))) if problem.omega.size else 0.0
    smax = K + M
    sup_fp = max(float(problem.stats[0].eval_derivative(smax)),
                 float(problem.stats[1].eval_derivative(smax)))
    lu = problem.poisson.factor()
    v = np.ones(problem.poisson.dimension)
    rho = 0.0
    for _ in range(200):
        w = lu.solve(problem.volumes * v)
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            break
        w /= nw
        rho_new = float(w @ lu.solve(problem.volumes * w)
                        / max(w @ w, np.finfo(float).tiny))
        if abs(rho_new - rho) <= 1e-6 * max(rho_new, 1e-300):
            rho = rho_new
            break
        rho, v = rho_new, w
    L = 1.0 + sup_fp * rho
    return 2.0 / (1.0 + L)


def contraction_iterate(problem: NonlinearPoissonProblem, tol: float = 1e-10,
                        cutoff_bound: float | None = None,
                        ) -> tuple[np.ndarray, SolveReport]:
    """Gradient iteration with cut-off, the reference potential solver.

    Iterates phi <- phi - lambda P^{-1} K_cut(phi) from phi = 0, where
    K_cut evaluates the densities at the clamped potential.  The P-solve
    is the Riesz map of the discrete energy space, so this is gradient
    descent on a 1-strongly convex, L-smooth function in the P-metric;
    the step lambda = 2/(1 + L) makes it a contraction with factor
    (L - 1)/(L + 1).  Stops when the energy-norm update is below tol and
    the dual residual below 10 tol, so both the increment and the
    equation contract are honored.
    """
    if tol <= 0.0:
        raise DomainError("tol must be positive")
    K = apriori_bound(problem.omega, problem.stats) \
        if cutoff_bound is None else float(cutoff_bound)
    lam = _optimal_step(problem, K)
    if not lam > 0.0:
        # sup F' overflowed on an extreme omega; the step that makes the
        # iteration a contraction is not representable in float arithmetic
        raise NonConvergenceError(
            "contraction constant is not representable for this data",
            iterations=0, residual=math.inf)
    lu = problem.poisson.factor()
    phi = np.zeros(problem.poisson.dimension)
    window = deque(maxlen=1001)  # the last 1001 update norms
    for it in range(_CONTRACTION_MAX_ITER):
        args = carrier_arguments(problem.omega, cutoff(phi, K))
        u1 = problem.stats[0].eval(args[0])
        u2 = problem.stats[1].eval(args[1])
        r = problem.poisson @ phi - problem.load \
            - problem.volumes * (u1 - u2)
        w = lu.solve(r)
        dual = math.sqrt(max(float(r @ w), 0.0))
        if lam * dual <= tol and dual <= 10.0 * tol:
            return phi, SolveReport(it, dual)
        phi = phi - lam * w
        window.append(lam * dual)
        # a window with under 1% total progress cannot reach tol within
        # any sane budget; bail out instead of burning the full budget
        # (happens when L is so large on extreme data that lam is tiny)
        if it >= 2000 and window[-1] >= 0.99 * window[0]:
            raise NonConvergenceError(
                f"contraction stalled (window ratio "
                f"{window[-1] / window[0]:.6f})",
                iterations=it + 1, residual=dual)
    rate = window[-1] / window[-2] if window[-2] > 0 else math.nan
    raise NonConvergenceError(
        f"contraction stalled (update ratio {rate:.6f})",
        iterations=_CONTRACTION_MAX_ITER, residual=window[-1])


def solve_operator_S(problem: NonlinearPoissonProblem, tol: float = 1e-12,
                     x0: np.ndarray | None = None,
                     slot: FactorSlot | None = None):
    """The potential map omega -> phi, by damped Newton.

    Returns phi and both carriers' (F, F') there (``SolveReport.densities``),
    which the decoupling loop's continuity kernel reads instead of
    evaluating the statistics again.

    ``x0`` warm-starts the iteration and ``slot`` holds the last Jacobian
    factor; callers stepping through a family of nearby omega (the
    decoupling loop) pass the previous potential and the same slot.
    A Newton failure raises ``SolverError``, a ``NonConvergenceError``
    when Newton ran out; the caller decides whether to retry with a
    smaller step.
    """
    phi, report = newton_solve(problem, tol=tol, x0=x0, slot=slot)
    return phi, report.densities


def neutral_potential(stats, doping):
    """Chargewise-neutral potential: solve d + F1(-phi) - F2(phi) = 0.

    Newton on the strictly decreasing scalar map, started from asinh(d/2),
    the Boltzmann closed form; for a Boltzmann pair the start passes the
    first residual check, so the loop exits at once.  Vectorized over the
    doping array.
    """
    d = np.asarray(doping, dtype=float)
    flat = np.atleast_1d(d)
    phi = np.arcsinh(flat / 2.0)
    scale = np.abs(flat) + 1.0
    for _ in range(100):
        u, du = eval_carriers(stats, carrier_arguments(0.0, phi))
        g = flat + u[0] - u[1]
        if np.all(np.abs(g) <= _NEUTRAL_RTOL * scale):
            break
        phi = phi - g / (-du[0] - du[1])
    else:
        raise NonConvergenceError("neutral potential iteration stalled",
                                  iterations=100,
                                  residual=float(np.max(np.abs(g))))
    out = phi.reshape(d.shape)
    return float(out) if d.ndim == 0 else out


def equilibrium_state(poisson: SparseOperator, stats):
    """Thermal equilibrium on ``poisson``'s device and mesh: zero
    quasi-Fermi levels, self-consistent phi, at t = 0.

    Contacts must agree with equilibrium at t = 0 (both carrier boundary
    levels zero).  Returns (phi, u); the densities u (2, n_cells) are the
    ones Newton's last residual evaluation computed at phi, so the
    consistency residual is zero by construction.  A Newton failure
    raises ``SolverError``, a ``NonConvergenceError`` when Newton ran out.
    """
    device, mesh = poisson.disc.device, poisson.disc.mesh
    if np.any(np.abs(contact_values(device, 0.0)[1:]) > 1e-14):
        raise DomainError(
            "equilibrium requires zero carrier levels on every contact")
    problem = NonlinearPoissonProblem(
        poisson=poisson, load=poisson_data_load(poisson, 0.0),
        stats=tuple(stats), omega=np.zeros((2, mesh.n_cells)))
    start = neutral_potential(stats, bulk_doping(device, mesh))
    phi, report = newton_solve(problem, tol=_EQUILIBRIUM_TOL, x0=start)
    return phi, report.densities[0]
