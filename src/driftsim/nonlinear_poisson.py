"""Electrostatic potential solves with frozen quasi-Fermi arguments.

The discrete problem is K(phi) = 0 with

    K(phi) = P phi - load - V . [F1(omega1 - phi) - F2(omega2 + phi)],

where P is the Robin-Poisson operator, V the cell volumes weighting the
density terms, and omega the pair of carrier arguments held fixed during
the solve.  Two solvers are provided: damped Newton (the production
path, quadratic convergence) and a relaxed Riesz-preconditioned fixed
point iteration with a cut-off (linear convergence, but with a provable
contraction factor derived from the monotonicity/Lipschitz moduli of the
operator; kept as the cross-check the property suite compares against).

The potential map is nonexpansive in the sup norm with respect to omega,
a consequence of the M-matrix structure of P and the monotonicity of the
statistics, and the solution of the load-free problem is bounded by
``apriori_bound``; callers wanting that guarantee for loaded problems
should split off the linear part first (``split_load`` below) and solve
the homogenized remainder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .device import DeviceSpec, Mesh, build_mesh, bulk_doping
from .errors import DomainError, NonConvergenceError, SolverError
from .operators import SparseOperator, assemble_poisson, poisson_data_load
from .statistics import StatisticsModel

__all__ = [
    "NonlinearPoissonProblem", "SolveReport", "apriori_bound", "cutoff",
    "newton_solve", "contraction_iterate", "solve_operator_S",
    "neutral_potential", "split_load", "equilibrium_state",
]


@dataclass(frozen=True)
class NonlinearPoissonProblem:
    """One potential solve: operator, load, statistics pair, frozen omega."""
    poisson: SparseOperator
    volumes: np.ndarray
    load: np.ndarray
    stats: tuple[StatisticsModel, StatisticsModel]
    omega: np.ndarray

    def __post_init__(self):
        n = self.poisson.dimension
        volumes = np.asarray(self.volumes, dtype=float)
        load = np.asarray(self.load, dtype=float)
        omega = np.asarray(self.omega, dtype=float)
        if volumes.shape != (n,) or load.shape != (n,):
            raise DomainError("volumes and load must match the operator size")
        if omega.shape != (2, n):
            raise DomainError("omega must be a (2, n) pair field")
        if not np.all(np.isfinite(omega)):
            raise DomainError("omega must be bounded")
        if np.any(volumes <= 0.0):
            raise DomainError("cell volumes must be positive")
        object.__setattr__(self, "volumes", volumes)
        object.__setattr__(self, "load", load)
        object.__setattr__(self, "omega", omega)

    @property
    def omega_bound(self) -> float:
        """M = sup-norm of the frozen pair field."""
        return float(np.max(np.abs(self.omega))) if self.omega.size else 0.0

    def densities(self, phi: np.ndarray):
        u1 = self.stats[0].eval(self.omega[0] - phi)
        u2 = self.stats[1].eval(self.omega[1] + phi)
        return u1, u2

    def residual(self, phi: np.ndarray) -> np.ndarray:
        u1, u2 = self.densities(phi)
        return self.poisson.matrix @ phi - self.load - self.volumes * (u1 - u2)

    def jacobian_diagonal(self, phi: np.ndarray) -> np.ndarray:
        """Diagonal added to P by the density terms (always positive)."""
        d1 = self.stats[0].eval_derivative(self.omega[0] - phi)
        d2 = self.stats[1].eval_derivative(self.omega[1] + phi)
        return self.volumes * (d1 + d2)

    def dual_norm(self, r: np.ndarray) -> float:
        """sqrt(r^T P^{-1} r), the discrete dual norm of a residual."""
        w = self.poisson.factor().solve(r)
        val = float(r @ w)
        return math.sqrt(max(val, 0.0))


@dataclass
class SolveReport:
    method: str
    iterations: int
    residual: float
    cutoff_bound: float | None = None
    update_history: list = None

    def __post_init__(self):
        if self.update_history is None:
            self.update_history = []


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
                 max_iter: int = 100,
                 x0: np.ndarray | None = None) -> tuple[np.ndarray, SolveReport]:
    """Damped Newton on K(phi) = 0, measured in the discrete dual norm.

    The Jacobian P + V diag(F1' + F2') is symmetric positive definite, so
    the Newton direction always exists; step halving enforces monotone
    residual decrease.  Trial points that overflow the statistics produce
    an infinite residual and are rejected by the same test.
    """
    if tol <= 0.0:
        raise DomainError("tol must be positive")
    n = problem.poisson.dimension
    phi = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    history = []
    r = problem.residual(phi)
    res = problem.dual_norm(r)
    for it in range(max_iter):
        if res <= tol:
            return phi, SolveReport("newton", it, res, None, history)
        J = SparseOperator(problem.poisson.shifted(
            problem.jacobian_diagonal(phi)), problem.poisson.disc)
        try:
            delta = J.factor().solve(r)
        except RuntimeError as exc:
            raise SolverError(f"Newton matrix factorization failed: {exc}",
                              residual=res) from exc
        if not np.all(np.isfinite(delta)):
            # an overflowed Jacobian diagonal poisons the direction; no
            # amount of damping recovers from a non-finite step
            raise NonConvergenceError("Newton direction is not finite",
                                      iterations=it, residual=res)
        step = 1.0
        while True:
            trial = phi - step * delta
            with np.errstate(invalid="ignore"):
                r_trial = problem.residual(trial)
            res_trial = (problem.dual_norm(r_trial)
                         if np.all(np.isfinite(r_trial)) else math.inf)
            if res_trial < res:
                break
            step *= 0.5
            if step < 2.0 ** -40:
                raise NonConvergenceError(
                    "Newton line search stalled", iterations=it, residual=res)
        phi, r, res = trial, r_trial, res_trial
        history.append(res)
    if res <= tol:
        return phi, SolveReport("newton", max_iter, res, None, history)
    raise NonConvergenceError("Newton did not reach tolerance",
                              iterations=max_iter, residual=res)


def _relaxation_default(problem: NonlinearPoissonProblem, K: float) -> float:
    """lambda = m / L^2 with m = 1 and L = 1 + sup F' * lammax(P^{-1} V).

    The extremal eigenvalue of P^{-1}V is estimated by power iteration in
    the energy inner product; sup F' is taken over the cut-off range
    [-K - M, K + M] of the statistics arguments (both carriers see
    arguments bounded by that interval).
    """
    M = problem.omega_bound
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
    return 1.0 / (L * L)


def contraction_iterate(problem: NonlinearPoissonProblem,
                        relaxation: float | None = None, tol: float = 1e-10,
                        max_iter: int = 200000,
                        cutoff_bound: float | None = None,
                        x0: np.ndarray | None = None,
                        ) -> tuple[np.ndarray, SolveReport]:
    """Relaxed fixed-point iteration with cut-off.

    Iterates phi <- phi - lambda P^{-1} K_cut(phi), where K_cut evaluates
    the densities at the clamped potential; the P-solve is the Riesz map
    of the discrete energy space, making the map a contraction for
    0 < lambda < 2m/L^2.  Stops when the energy-norm update is below tol
    and the dual residual below 10 tol, so both the increment and the
    equation contract are honored.
    """
    if tol <= 0.0:
        raise DomainError("tol must be positive")
    K = apriori_bound(problem.omega, problem.stats) \
        if cutoff_bound is None else float(cutoff_bound)
    if relaxation is None:
        lam = _relaxation_default(problem, K)
        if not lam > 0.0:
            # sup F' overflowed on an extreme omega; the scheme's
            # admissible relaxation window is empty in float arithmetic
            raise NonConvergenceError(
                "contraction constant is not representable for this data",
                iterations=0, residual=math.inf)
    else:
        lam = relaxation
        if lam <= 0.0:
            raise DomainError("relaxation must be positive")
    lu = problem.poisson.factor()
    n = problem.poisson.dimension
    phi = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    history = []
    for it in range(max_iter):
        clamped = cutoff(phi, K)
        u1 = problem.stats[0].eval(problem.omega[0] - clamped)
        u2 = problem.stats[1].eval(problem.omega[1] + clamped)
        r = problem.poisson.matrix @ phi - problem.load \
            - problem.volumes * (u1 - u2)
        w = lu.solve(r)
        dual = math.sqrt(max(float(r @ w), 0.0))
        if lam * dual <= tol and dual <= 10.0 * tol:
            return phi, SolveReport("contraction", it, dual, K, history)
        phi = phi - lam * w
        history.append(lam * dual)
        # a window with under 1% total progress cannot reach tol within
        # any sane budget; bail out instead of burning the full budget
        # (happens when lam is denormal-small on extreme data)
        if it >= 2000 and history[-1] >= 0.99 * history[-1001]:
            raise NonConvergenceError(
                f"contraction stalled (window ratio "
                f"{history[-1] / history[-1001]:.6f})",
                iterations=it + 1, residual=dual)
    rate = (history[-1] / history[-2]
            if len(history) >= 2 and history[-2] > 0 else math.nan)
    raise NonConvergenceError(
        f"contraction stalled (update ratio {rate:.6f})",
        iterations=max_iter, residual=history[-1] if history else math.nan)


def solve_operator_S(problem: NonlinearPoissonProblem,
                     omega: np.ndarray | None = None, tol: float = 1e-12,
                     x0: np.ndarray | None = None) -> np.ndarray:
    """The potential map omega -> phi, by damped Newton.

    ``x0`` warm-starts the iteration; callers stepping through a family
    of nearby omega (the decoupling loop) pass the previous potential.
    A Newton failure surfaces as ``SolverError``; the caller decides
    whether to retry with a smaller step.
    """
    if omega is not None:
        problem = replace(problem, omega=np.asarray(omega, dtype=float))
    try:
        phi, _ = newton_solve(problem, tol=tol, x0=x0)
    except NonConvergenceError as exc:
        raise SolverError(str(exc), residual=exc.residual) from exc
    return phi


def neutral_potential(stats, doping, rtol: float = 1e-12):
    """Chargewise-neutral potential: solve d + F1(-phi) - F2(phi) = 0.

    Closed form asinh(d/2) when both carriers are Boltzmann, otherwise a
    safeguarded Newton on the strictly decreasing scalar map.  Vectorized
    over the doping array.
    """
    s1, s2 = stats
    d = np.asarray(doping, dtype=float)
    if s1.kind == "boltzmann" and s2.kind == "boltzmann":
        out = np.arcsinh(d / 2.0)
        return float(out) if out.ndim == 0 else out
    flat = np.atleast_1d(d).astype(float)
    phi = np.arcsinh(flat / 2.0)  # Boltzmann guess
    scale = np.abs(flat) + 1.0
    for _ in range(100):
        g = flat + s1.eval(-phi) - s2.eval(phi)
        if np.all(np.abs(g) <= rtol * scale):
            break
        gp = -s1.eval_derivative(-phi) - s2.eval_derivative(phi)
        phi = phi - g / gp
    else:
        raise NonConvergenceError("neutral potential iteration stalled",
                                  iterations=100,
                                  residual=float(np.max(np.abs(g))))
    out = phi.reshape(d.shape)
    return float(out) if d.ndim == 0 else out


def split_load(problem: NonlinearPoissonProblem,
               ) -> tuple[np.ndarray, NonlinearPoissonProblem]:
    """Homogenize: phi_d = P^{-1} load, omega shifted by (-phi_d, +phi_d).

    The full solution is phi_d plus the solution of the returned
    load-free problem, whose omega bound now licenses the a-priori
    estimate and hence the contraction cut-off.
    """
    phi_d = problem.poisson.factor().solve(problem.load)
    omega = np.vstack([problem.omega[0] - phi_d, problem.omega[1] + phi_d])
    reduced = replace(problem, load=np.zeros_like(problem.load), omega=omega)
    return phi_d, reduced


def equilibrium_state(device: DeviceSpec, stats, t: float = 0.0,
                      mesh: Mesh | None = None, tol: float = 1e-12,
                      poisson: SparseOperator | None = None):
    """Thermal equilibrium: zero quasi-Fermi levels, self-consistent phi.

    Contacts must agree with equilibrium at the evaluation time (both
    carrier boundary levels zero).  Returns (mesh, phi, (u1, u2)); the
    densities are evaluated from the same arguments the solve used, so
    the consistency residual is zero by construction.  A given
    ``poisson`` operator is reused, with its mesh, not assembled again.
    """
    s1, s2 = stats
    for c in device.contacts:
        _, P1, P2 = c.values(t)
        if abs(P1) > 1e-14 or abs(P2) > 1e-14:
            raise DomainError(
                "equilibrium requires zero carrier levels on every contact")
    poisson = poisson or assemble_poisson(device, mesh or build_mesh(device))
    mesh = poisson.disc.mesh
    load = poisson_data_load(device, mesh, poisson, t)
    problem = NonlinearPoissonProblem(
        poisson=poisson, volumes=mesh.cell_volumes, load=load,
        stats=(s1, s2), omega=np.zeros((2, mesh.n_cells)))
    phi_d, reduced = split_load(problem)
    start = neutral_potential(stats, bulk_doping(device, mesh)) - phi_d
    try:
        phi_t, _ = newton_solve(reduced, tol=tol, x0=start)
    except (NonConvergenceError, SolverError):
        phi_t, _ = contraction_iterate(reduced, tol=tol)
    phi = phi_d + phi_t
    u1 = s1.eval(-phi)
    u2 = s2.eval(phi)
    return mesh, phi, (u1, u2)
