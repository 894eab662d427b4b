"""Transient integration of the coupled carrier system.

Backward Euler in time.  Each step freezes the time level and decouples
the equations: the potential is solved for the current quasi-Fermi
iterate (through the homogenized nonlinear Poisson problem), fields and
currents are reconstructed, the reaction loads are evaluated at the
iterate (frozen coefficients), and the two continuity equations are
solved as linear systems in the densities.  The quasi-Fermi levels are
read back through the inverse statistics and the sweep repeats until
their sup-norm increment drops below the step tolerance.

Plain sweeps stall on long devices: a long-wavelength shift of the two
quasi-Fermi levels in opposite directions is screened almost perfectly
by the potential solve, so the sweep map keeps eigenvalues of about
1 - O(1/L^2) however small the time step.  The loop therefore
preconditions its increments.  The screening feedback maps a
quasi-Fermi perturbation to (+w, -w) with (P + V F') w = V (F1' r1 -
F2' r2), and inverting that feedback exactly collapses, by the
Woodbury-style cancellation (I - (P + VF')^{-1} VF') = (P + VF')^{-1}P,
to a single solve with the already-factored Poisson matrix:
w = P^{-1} V (F1' r1 - F2' r2), after which the iterate moves by the
residual plus (+w, -w).  The few transport modes the preconditioner
leaves (they strengthen with the step size) are collapsed by Anderson
mixing over a short history of the corrected residuals.  If an
accelerated iterate breaks a solve, the loop falls back to the plain
sweep image and continues.  The accepted state is the sweep image that
passes the increment test, with the balance of its density solves; its
reaction loads were taken at an iterate within the step tolerance of it,
so the step is implicit in the recombination terms to that tolerance.

A step that produces a nonpositive density or fails to converge raises
StepRejected; the driver halves the step and retries, growing it again
after acceptances.  Blow-up is reported, not fought: when the carrier
norm proxy rises monotonically past the configured threshold, or the
step size underflows, integration stops and the result carries a
BlowUpReport (the continuous problem only guarantees local existence,
so this is an answer, not a failure).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .device import DeviceSpec, Mesh, build_mesh
from .errors import DomainError, SolverError, StepRejected
from .nonlinear_poisson import (NonlinearPoissonProblem, equilibrium_state,
                                solve_operator_S)
from .operators import (Discretization, FaceCoefficients, FluxScheme,
                        SparseOperator, apply_surface_load, assemble_poisson,
                        cell_average_faces, face_coefficients, face_gradient,
                        poisson_data_load, solve_linear)
from .recombination import SurfaceSRH, bulk_production
from .statistics import StatisticsModel

__all__ = [
    "CarrierState", "TimeStepperConfig", "SimulationModels", "StepReport",
    "BlowUpReport", "SimulationResult", "contact_data", "initial_state",
    "gummel_step", "run", "detect_blowup", "terminal_currents",
]


@dataclass
class CarrierState:
    """Fields at one accepted time level."""
    t: float
    phi: np.ndarray
    Phi: np.ndarray
    u: np.ndarray

    def copy(self) -> "CarrierState":
        return CarrierState(self.t, self.phi.copy(), self.Phi.copy(),
                            self.u.copy())


@dataclass(frozen=True)
class TimeStepperConfig:
    dt_init: float
    t_end: float
    dt_min: float = 1e-12
    dt_max: float = np.inf
    growth: float = 1.2
    shrink: float = 0.5
    gummel_tol: float = 1e-10
    gummel_max_iter: int = 40
    poisson_tol: float = 1e-12
    blowup_threshold: float = 1e6
    blowup_window: int = 3

    def __post_init__(self):
        for f in fields(self):
            if np.isnan(getattr(self, f.name)):
                raise DomainError(f"{f.name} must not be NaN")
        if not np.isfinite(self.t_end):
            raise DomainError("t_end must be finite")
        if self.dt_init <= 0.0 or self.t_end <= 0.0:
            raise DomainError("dt_init and t_end must be positive")
        if not 0.0 < self.dt_min <= self.dt_init:
            raise DomainError("need 0 < dt_min <= dt_init")
        if not self.dt_init <= self.dt_max:
            raise DomainError("need dt_init <= dt_max")
        if self.growth < 1.0 or not 0.0 < self.shrink < 1.0:
            raise DomainError("growth must be >= 1 and shrink in (0, 1)")
        # an infinite tolerance would end every loop after its first iterate
        for name in ("gummel_tol", "poisson_tol"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise DomainError(f"{name} must be positive and finite")
        if self.gummel_max_iter < 1:
            raise DomainError("gummel_max_iter must be at least 1")
        if self.blowup_window < 2:
            raise DomainError("blowup_window must be at least 2")


@dataclass
class SimulationModels:
    """Statistics, flux scheme, bulk reactions, optional extra source.

    ``source(t, mesh) -> (2, n_cells)`` is an additive volumetric
    production, the hook manufactured-solution tests drive the stepper
    with; production for both carriers, applied as given.
    """
    stats: tuple[StatisticsModel, StatisticsModel]
    scheme: FluxScheme = field(default_factory=FluxScheme)
    bulk: tuple = ()
    source: Callable | None = None


@dataclass
class StepReport:
    t: float
    dt: float
    gummel_iterations: int
    balance_residual: float
    proxy: float


@dataclass
class BlowUpReport:
    reason: str
    threshold: float
    times: list
    proxies: list


@dataclass
class SimulationResult:
    """A run's accepted states and step reports, and the ``disc`` (mesh,
    face sets, sparsity) they live on, for computing currents from them."""
    states: list
    reports: list
    blowup: BlowUpReport | None
    steps_accepted: int
    steps_rejected: int
    disc: Discretization

    @property
    def final(self) -> CarrierState:
        return self.states[-1]

    @property
    def completed(self) -> bool:
        return self.blowup is None


def contact_data(device: DeviceSpec, t: float) -> list[tuple[float, float, float]]:
    """(phi_D, Phi1_D, Phi2_D) per contact at time t, bias included."""
    return [c.values(t) for c in device.contacts]


def initial_state(device: DeviceSpec, models: SimulationModels,
                  mesh: Mesh | None = None, t: float = 0.0,
                  poisson: SparseOperator | None = None) -> CarrierState:
    """Thermal equilibrium start; contacts must be unbiased at ``t``.  A
    given ``poisson`` operator is reused, not assembled again."""
    mesh_out, phi, (u1, u2) = equilibrium_state(device, models.stats, t=t,
                                                mesh=mesh, poisson=poisson)
    return CarrierState(t=t, phi=phi, Phi=np.zeros((2, mesh_out.n_cells)),
                        u=np.vstack([u1, u2]))


def _carrier_coefficients(disc: Discretization, models: SimulationModels,
                          phi: np.ndarray, chi: np.ndarray,
                          contacts: list[tuple[float, float, float]],
                          ) -> list[FaceCoefficients]:
    """Both carriers' face coefficients, with their densities F(chi), at
    potential ``phi`` and statistics arguments ``chi`` (2, n_cells)."""
    return [face_coefficients(disc, models.stats[k - 1], models.scheme, k,
                              phi, chi[k - 1], [(c[0], c[k]) for c in contacts])
            for k in (1, 2)]


def _cell_currents(disc: Discretization, phi: np.ndarray,
                   contacts: list[tuple[float, float, float]],
                   face_flux: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cellwise potential gradient (n_cells, dim) and current density
    vectors (2, n_cells, dim) of given (2, n_faces) carrier face fluxes.

    The axis current density at a face is the mass flow over the face
    area with a sign flip (the flux convention counts mass moving from
    the low to the high cell as positive, while the current field of
    carrier k points along u_k mu_k grad Phi_k).
    """
    mesh = disc.mesh
    phi_d = np.array([c[0] for c in contacts])
    cell_e = cell_average_faces(mesh, face_gradient(disc, phi, phi_d))
    cell_current = np.stack([cell_average_faces(mesh, -flux / mesh.face_area)
                             for flux in face_flux])
    return cell_e, cell_current


def _face_density(mesh: Mesh, faces: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Density at faces: adjacent cell value, or the mean across interior ones."""
    lo = mesh.face_cells[faces, 0]
    hi = mesh.face_cells[faces, 1]
    vlo = np.where(lo >= 0, u[np.maximum(lo, 0)], 0.0)
    vhi = np.where(hi >= 0, u[np.maximum(hi, 0)], 0.0)
    both = (lo >= 0) & (hi >= 0)
    return np.where(both, 0.5 * (vlo + vhi), vlo + vhi)


def _surface_loads(device: DeviceSpec, mesh: Mesh, u1: np.ndarray,
                   u2: np.ndarray) -> np.ndarray:
    """Interfacial recombination deposited into cells (recombination < 0)."""
    out = np.zeros(mesh.n_cells)
    pairs = list(zip(device.surfaces, mesh.surface_faces)) \
        + list(zip(device.interfaces, mesh.interface_faces))
    for segment, faces in pairs:
        model = segment.model
        if model is None or not faces.size:
            continue
        if not isinstance(model, SurfaceSRH):
            raise DomainError(
                f"unsupported interfacial model {type(model).__name__}")
        rate = model.eval(_face_density(mesh, faces, u1),
                          _face_density(mesh, faces, u2))
        out += apply_surface_load(mesh, faces, -rate)
    return out


def _quasi_fermi_norm(disc: Discretization, Phi: np.ndarray,
                      contacts: list[tuple[float, float, float]]) -> float:
    """Blow-up proxy: max over carriers of sup|grad Phi_k| + sup|Phi_k|."""
    worst = 0.0
    for k in (1, 2):
        levels = np.array([c[k] for c in contacts])
        g = face_gradient(disc, Phi[k - 1], levels)
        worst = max(worst, float(np.max(np.abs(g))
                                 + np.max(np.abs(Phi[k - 1]))))
    return worst


_MIX_WINDOW = 5  # residual-history depth of the decoupling loop


def gummel_step(device: DeviceSpec, poisson: SparseOperator,
                models: SimulationModels, state: CarrierState, dt: float,
                config: TimeStepperConfig) -> tuple[CarrierState, StepReport]:
    """One backward-Euler step by decoupled, screening-corrected sweeps.

    ``poisson`` is the run's Poisson operator; its ``disc`` supplies the
    mesh, the face sets and the sparsity pattern of every system solved.
    Raises StepRejected when a density solve turns nonpositive, a
    potential solve fails, or the sweep budget runs out.  On success the
    returned report carries the defect of the discrete balance identity,
    evaluated with the exact loads the final linear solves used.
    """
    mesh = poisson.disc.mesh
    t_next = state.t + dt
    contacts = contact_data(device, t_next)
    load = poisson_data_load(device, poisson, t_next)
    phi_d = poisson.factor().solve(load)
    V = mesh.cell_volumes

    phi = state.phi
    phi_tilde = phi - phi_d
    source = models.source(t_next, mesh) if models.source is not None else None
    if source is not None:
        source = np.asarray(source, dtype=float)
    zero_load = np.zeros(mesh.n_cells)

    def advance(Phi):
        """One sweep image of the quasi-Fermi iterate.

        Solves the potential for the iterate, evaluates the densities and
        the reaction loads there, solves the two density systems, and reads
        the quasi-Fermi levels back.
        """
        nonlocal phi, phi_tilde
        problem = NonlinearPoissonProblem(
            poisson=poisson, volumes=V, load=zero_load, stats=models.stats,
            omega=np.vstack([Phi[0] - phi_d, Phi[1] + phi_d]))
        try:
            phi_tilde = solve_operator_S(problem, tol=config.poisson_tol,
                                         x0=phi_tilde)
        except SolverError as exc:
            raise StepRejected(f"potential solve failed: {exc}") from exc
        phi = phi_d + phi_tilde

        chi = np.vstack([Phi[0] - phi, Phi[1] + phi])
        faces = _carrier_coefficients(poisson.disc, models, phi, chi,
                                      contacts)
        u_eval = [f.u[:mesh.n_cells] for f in faces]
        e, j = _cell_currents(poisson.disc, phi, contacts,
                              np.vstack([f.flux() for f in faces]))
        r_bulk = bulk_production(models.bulk, u_eval[0], u_eval[1], Phi[0],
                                 Phi[1], e, j[0], j[1])
        shared = V * r_bulk + _surface_loads(device, mesh, *u_eval)

        u_new = np.empty_like(state.u)
        Phi_new = np.empty_like(Phi)
        balance = 0.0
        for k in (1, 2):
            system, dirichlet_load = faces[k - 1].system(V / dt)
            rhs = V * state.u[k - 1] / dt + shared + dirichlet_load
            if source is not None:
                rhs = rhs + V * source[k - 1]
            try:
                u_k = solve_linear(SparseOperator(system, poisson.disc), rhs)
            except SolverError as exc:
                raise StepRejected(f"continuity solve failed: {exc}") from exc
            if np.any(u_k <= 0.0) or not np.all(np.isfinite(u_k)):
                raise StepRejected(
                    f"nonpositive density for carrier {k} at t={t_next:.6g}")
            defect = system @ u_k - rhs
            scale = max(float(np.max(np.abs(rhs))), np.finfo(float).tiny)
            balance = max(balance, float(np.max(np.abs(defect))) / scale)
            u_new[k - 1] = u_k
            sign = -1.0 if k == 1 else 1.0
            Phi_new[k - 1] = models.stats[k - 1].invert(u_k) - sign * phi
        screen = np.vstack([V * s.eval_derivative(c)
                            for s, c in zip(models.stats, chi)])
        return Phi_new, u_new, balance, screen

    Phi = state.Phi.copy()
    plain_image = None
    iterates: list[np.ndarray] = []
    directions: list[np.ndarray] = []
    prev_increment = np.inf
    for sweep in range(config.gummel_max_iter):
        try:
            Phi_new, u_new, balance, screen = advance(Phi)
        except StepRejected:
            if plain_image is None:
                raise
            # the accelerated iterate broke a solve; resume the plain
            # iteration from the last sweep image, which the map itself
            # produced
            Phi = plain_image
            plain_image = None
            iterates.clear()
            directions.clear()
            prev_increment = np.inf
            Phi_new, u_new, balance, screen = advance(Phi)
        residual = Phi_new - Phi
        increment = float(np.max(np.abs(residual)))
        if increment <= config.gummel_tol:
            proxy = _quasi_fermi_norm(poisson.disc, Phi_new, contacts)
            return (CarrierState(t=t_next, phi=phi, Phi=Phi_new, u=u_new),
                    StepReport(t=t_next, dt=dt, gummel_iterations=sweep + 1,
                               balance_residual=balance, proxy=proxy))
        plain_image = Phi_new
        w = poisson.factor().solve(screen[0] * residual[0]
                                   - screen[1] * residual[1])
        direction = np.concatenate([residual[0] + w, residual[1] - w])
        x = Phi.ravel()
        if increment > prev_increment and iterates:
            iterates.clear()
            directions.clear()
        prev_increment = increment
        iterates.append(x.copy())
        directions.append(direction)
        if len(iterates) > _MIX_WINDOW + 1:
            iterates.pop(0)
            directions.pop(0)
        if len(iterates) >= 2:
            dX = np.diff(np.stack(iterates, axis=1), axis=1)
            dD = np.diff(np.stack(directions, axis=1), axis=1)
            gamma, *_ = np.linalg.lstsq(dD, direction, rcond=None)
            mixed = x + direction - (dX + dD) @ gamma
        else:
            mixed = x + direction
        Phi = mixed.reshape(Phi.shape) if np.all(np.isfinite(mixed)) \
            else Phi_new
    raise StepRejected(
        f"decoupling loop did not converge in {config.gummel_max_iter} sweeps "
        f"(last increment {increment:.3e})")


def terminal_currents(device: DeviceSpec, disc: Discretization,
                      models: SimulationModels,
                      state: CarrierState) -> dict[str, float]:
    """Net electric current leaving each contact, keyed by contact side.

    Counts carrier-1 mass outflow minus carrier-2 outflow (the carriers
    enter the space charge with opposite signs), summed over the
    contact's faces.  In steady state this total is the same at every
    contact up to sign, recombination notwithstanding.  ``disc`` is the
    run's ``Discretization``, ``SimulationResult.disc``.
    """
    chi = np.vstack([state.Phi[0] - state.phi, state.Phi[1] + state.phi])
    face_flux = [f.flux() for f in _carrier_coefficients(
        disc, models, state.phi, chi, contact_data(device, state.t))]
    # a contact face's flow runs from lo to hi: outward where hi is its ghost
    faces = disc.faces[disc.n_interior:]
    outward = np.where(disc.hi[disc.n_interior:] >= disc.n_cells, 1.0, -1.0)
    out = {}
    for idx, contact in enumerate(device.contacts):
        on = disc.contact == idx
        flow1 = float(np.sum(outward[on] * face_flux[0][faces[on]]))
        flow2 = float(np.sum(outward[on] * face_flux[1][faces[on]]))
        out[contact.side] = flow1 - flow2
    return out


def detect_blowup(proxies, threshold: float, window: int) -> bool:
    """True when the trailing ``window`` proxies rise strictly past the threshold."""
    if len(proxies) < window:
        return False
    tail = list(proxies[-window:])
    increasing = all(b > a for a, b in zip(tail, tail[1:]))
    return increasing and tail[-1] > threshold


def run(device: DeviceSpec, models: SimulationModels,
        config: TimeStepperConfig, observer: Callable | None = None,
        initial: CarrierState | None = None) -> SimulationResult:
    """Integrate from equilibrium (or ``initial``) to t_end with adaptive steps."""
    mesh = build_mesh(device)
    poisson = assemble_poisson(device, mesh)
    state = initial_state(device, models, mesh, poisson=poisson) \
        if initial is None else initial.copy()
    states = [state]
    reports: list[StepReport] = []
    proxies: list[float] = []
    times: list[float] = []
    accepted = rejected = 0
    blowup = None
    dt = config.dt_init
    horizon = config.t_end * (1.0 - 1e-14)
    while state.t < horizon:
        dt_step = min(dt, config.t_end - state.t)
        try:
            state, report = gummel_step(device, poisson, models, state,
                                        dt_step, config)
        except StepRejected as exc:
            rejected += 1
            dt = dt_step * config.shrink
            if dt < config.dt_min:
                blowup = BlowUpReport(
                    reason=f"step size underflow: {exc}",
                    threshold=config.blowup_threshold,
                    times=list(times), proxies=list(proxies))
                break
            continue
        accepted += 1
        states.append(state)
        reports.append(report)
        proxies.append(report.proxy)
        times.append(report.t)
        if observer is not None:
            observer(state, report)
        if detect_blowup(proxies, config.blowup_threshold,
                         config.blowup_window):
            blowup = BlowUpReport(
                reason="carrier norm proxy increasing past threshold",
                threshold=config.blowup_threshold,
                times=list(times), proxies=list(proxies))
            break
        dt = min(dt_step * config.growth, config.dt_max)
    return SimulationResult(states=states, reports=reports, blowup=blowup,
                            steps_accepted=accepted, steps_rejected=rejected,
                            disc=poisson.disc)

