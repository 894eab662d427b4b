"""Transient integration of the coupled carrier system.

Backward Euler in time.  Each step freezes the time level and decouples
the equations: the potential is solved for the current quasi-Fermi
iterate (the nonlinear Poisson problem with the step's data load),
fields and currents are reconstructed, the reaction loads are evaluated
at the iterate (frozen coefficients), and the two continuity equations
are solved as linear systems in the densities.  The quasi-Fermi levels are
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
leaves (they strengthen with the step size) are collapsed by windowed
Anderson mixing (Walker and Ni, 2011) over the last few corrected
residuals; a sweep whose solve fails, or a mixed iterate that is not
finite, rejects the step.  The accepted state is the sweep image that
passes the increment test, with the balance of its density solves; its
reaction loads were taken at an iterate within the step tolerance of it,
so the step is implicit in the recombination terms to that tolerance.

The sweeps of one step solve nearby linear systems.  On the SuperLU path
(2D, and n <= 2) the last factor of each family is held, and a later
system is solved by iterative refinement from it; a system that
refinement cannot bring within its residual target is factored afresh
and replaces the held factor.  The potential Newton Jacobian
P + V diag(F1' + F2') moves only through the densities, so ``run`` holds
its factor for the whole run, and a Newton direction, which needs only
the forcing term, mostly takes one triangular solve from it and stops
refining as soon as it meets that term.  Each carrier's continuity
factor is held for one step and dropped when the step returns or
raises: dt, and the V/dt on the continuity diagonal with it, changes
between steps by more than refinement can bridge.  A tridiagonal (1D)
system is factored each time, as that costs a few microseconds.

A step that produces a nonpositive density or fails to converge raises
StepRejected; the driver halves the step and retries, growing it again
after acceptances.  Blow-up is reported, not fought: when the carrier
norm proxy rises monotonically past the configured threshold, or the
step size underflows, integration stops and the result carries a
BlowUpReport (the continuous problem only guarantees local existence,
so this is an answer, not a failure).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .device import (DeviceSpec, Mesh, build_mesh, contact_labels,
                     contact_values)
from .errors import DomainError, SolverError, StepRejected
from .nonlinear_poisson import (NonlinearPoissonProblem, equilibrium_state,
                                solve_operator_S)
from .operators import (Discretization, FactorSlot, FluxScheme,
                        SparseOperator, apply_surface_load, assemble_poisson,
                        carrier_face_coefficients, cell_average_faces,
                        evaluate_face_coefficients, face_gradient,
                        ghost_arguments, poisson_data_load, solve_linear,
                        with_ghosts)
from .recombination import bulk_production
from .statistics import (StatisticsModel, carrier_arguments, eval_carriers,
                         invert_carriers)

__all__ = [
    "CarrierState", "TimeStepperConfig", "SimulationModels", "StepReport",
    "BlowUpReport", "SimulationResult", "initial_state",
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
        # the type checks come first: np.isnan raises an untyped TypeError
        # on a string, and a bool would pass as the integer 0 or 1
        for f in fields(self):
            value = getattr(self, f.name)
            integral = f.type == "int"
            types = (int, np.integer) if integral \
                else (int, float, np.integer, np.floating)
            if isinstance(value, bool) or not isinstance(value, types):
                noun = "an integer" if integral else "a real number"
                raise DomainError(f"{f.name} must be {noun}, got {value!r}")
            if np.isnan(value):
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
    """Why and at which proxy threshold integration stopped; the times
    and proxies it saw are the accepted steps' ``SimulationResult.reports``."""
    reason: str
    threshold: float


@dataclass
class SimulationResult:
    """A run's accepted states and step reports, and the ``disc`` (device,
    mesh, face sets, sparsity) they live on, for currents and outputs."""
    states: list
    reports: list
    blowup: BlowUpReport | None
    steps_rejected: int
    disc: Discretization

    @property
    def steps_accepted(self) -> int:
        return len(self.reports)

    @property
    def final(self) -> CarrierState:
        return self.states[-1]

    @property
    def completed(self) -> bool:
        return self.blowup is None


def initial_state(device: DeviceSpec, models: SimulationModels,
                  mesh: Mesh | None = None,
                  poisson: SparseOperator | None = None) -> CarrierState:
    """Thermal equilibrium start at t = 0, where contacts must be unbiased,
    on ``poisson`` when given, else on an operator assembled here on
    ``mesh`` (built from ``device`` when None).  A ``poisson`` of another
    device, or a ``mesh`` built from a device unequal to ``device``,
    raises DomainError."""
    if poisson is None:
        if mesh is None:
            mesh = build_mesh(device)
        elif mesh.device != device:
            raise DomainError("mesh does not fit the device: it was built "
                              "from another one")
        poisson = assemble_poisson(device, mesh)
    else:
        poisson.disc.check_matches(device, mesh)
    phi, u = equilibrium_state(poisson, models.stats)
    return CarrierState(t=0.0, phi=phi, Phi=np.zeros_like(u), u=u)


def _cell_currents(disc: Discretization, phi: np.ndarray,
                   contacts: np.ndarray,
                   face_flux: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cellwise potential gradient (n_cells, dim) and current density
    vectors (2, n_cells, dim) of ``FaceCoefficients.flux()``; ``contacts``
    is the (3, n_contacts) ``contact_values`` array.

    The axis current density at a face is the mass flow over the face
    area with a sign flip (the flux convention counts mass moving from
    the low to the high cell as positive, while the current field of
    carrier k points along u_k mu_k grad Phi_k).
    """
    mesh = disc.mesh
    cell_e = cell_average_faces(mesh, face_gradient(disc, phi, contacts[0]))
    return cell_e, cell_average_faces(mesh, -face_flux / mesh.face_area)


def _face_density(mesh: Mesh, faces: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Densities (2, faces) from cell densities (2, n_cells): the adjacent
    cell value, or the mean across interior ones."""
    lo, hi = mesh.face_cells[faces].T
    vlo = np.where(lo >= 0, u[:, lo], 0.0)
    vhi = np.where(hi >= 0, u[:, hi], 0.0)
    both = (lo >= 0) & (hi >= 0)
    return np.where(both, 0.5 * (vlo + vhi), vlo + vhi)


def _surface_loads(disc: Discretization, u: np.ndarray) -> np.ndarray:
    """Interfacial recombination at densities u (2, n_cells) deposited
    into cells (recombination < 0)."""
    device, mesh = disc.device, disc.mesh
    out = np.zeros(mesh.n_cells)
    pairs = list(zip(device.surfaces, mesh.surface_faces)) \
        + list(zip(device.interfaces, mesh.interface_faces))
    for segment, faces in pairs:
        model = segment.model
        if model is None or not faces.size:
            continue
        rate = model.eval(*_face_density(mesh, faces, u))
        out += apply_surface_load(mesh, faces, -rate)
    return out


def _quasi_fermi_norm(disc: Discretization, Phi: np.ndarray,
                      contacts: np.ndarray) -> float:
    """Blow-up proxy: max over carriers of sup|grad Phi_k| + sup|Phi_k|."""
    g = face_gradient(disc, Phi, contacts[1:])
    return float(np.max(np.max(np.abs(g), axis=1)
                        + np.max(np.abs(Phi), axis=1)))


_MIX_WINDOW = 5  # residual-history depth of the decoupling loop


def gummel_step(poisson: SparseOperator, models: SimulationModels,
                state: CarrierState, dt: float, config: TimeStepperConfig,
                jacobians: FactorSlot | None = None,
                ) -> tuple[CarrierState, StepReport]:
    """One backward-Euler step by decoupled, screening-corrected sweeps.

    ``poisson`` is the run's Poisson operator; its ``disc`` supplies the
    device, mesh, face sets and sparsity pattern of every system solved.
    ``jacobians`` holds the last potential Newton Jacobian factor across
    calls (``run`` passes one slot to every step); without it the step
    starts from an empty slot of its own.
    Raises StepRejected when a density solve turns nonpositive, a
    potential solve fails, the mixed iterate is not finite, or the sweep
    budget runs out.  On success the returned report carries the defect
    of the discrete balance identity, evaluated with the exact loads the
    final linear solves used.
    """
    disc = poisson.disc
    mesh = disc.mesh
    t_next = state.t + dt
    contacts = contact_values(disc.device, t_next)
    load = poisson_data_load(poisson, t_next)
    # the Dirichlet ghosts' potential, arguments and densities are fixed
    # for the step, so their statistics are evaluated once, here
    ghost_phi, ghost_chi = ghost_arguments(disc, contacts)
    ghosts = (ghost_phi, ghost_chi, eval_carriers(models.stats, ghost_chi)[0])
    V = mesh.cell_volumes

    phi = state.phi
    source = models.source(t_next, mesh) if models.source is not None else None
    if source is not None:
        source = np.asarray(source, dtype=float)
    # the last factor of each carrier's continuity matrices, held for the
    # step, and of the potential Newton Jacobians, held as long as the
    # caller's slot (for the step when there is none)
    jacobians = FactorSlot() if jacobians is None else jacobians
    continuity = FactorSlot(), FactorSlot()

    def advance(Phi):
        """One sweep image of the quasi-Fermi iterate.

        Solves the potential for the iterate, takes the densities there
        from the solve, evaluates the reaction loads, solves the two
        density systems, and reads the quasi-Fermi levels back.
        """
        nonlocal phi
        problem = NonlinearPoissonProblem(poisson=poisson, load=load,
                                          stats=models.stats, omega=Phi)
        try:
            phi, (u_eval, du_eval) = solve_operator_S(
                problem, tol=config.poisson_tol, x0=phi, slot=jacobians)
        except SolverError as exc:
            raise StepRejected(f"potential solve failed: {exc}") from exc

        # the solve's arguments, Phi + (-1)^k phi, spelled the same way
        chi = carrier_arguments(Phi, phi)
        faces = carrier_face_coefficients(
            disc, models.stats, models.scheme,
            *with_ghosts((phi, chi, u_eval), ghosts))
        e, j = _cell_currents(disc, phi, contacts, faces.flux())
        r_bulk = bulk_production(models.bulk, u_eval, Phi, e, j)
        shared = V * r_bulk + _surface_loads(disc, u_eval)

        u_new = np.empty_like(state.u)
        balance = 0.0
        for k in (1, 2):
            system, dirichlet_load = faces.system(k, V / dt)
            rhs = V * state.u[k - 1] / dt + shared + dirichlet_load
            if source is not None:
                rhs = rhs + V * source[k - 1]
            try:
                u_k, defect = solve_linear(system, rhs, continuity[k - 1])
            except SolverError as exc:
                raise StepRejected(f"continuity solve failed: {exc}") from exc
            if (u_k <= 0.0).any() or not np.isfinite(u_k).all():
                raise StepRejected(
                    f"nonpositive density for carrier {k} at t={t_next:.6g}")
            # the solve's residual rhs - system u_k is exactly minus the
            # defect system u_k - rhs, so its largest magnitude is the same
            scale = max(float(np.abs(rhs).max()), np.finfo(float).tiny)
            balance = max(balance, float(np.abs(defect).max()) / scale)
            u_new[k - 1] = u_k
        # the inversion starts one log-space Newton step from chi, where
        # ln F(s) ~ ln F(chi) + (s - chi) / eta(chi); a start that the
        # quotient makes non-finite falls back to invert's cold start; the
        # levels are the inverted arguments minus (-1)^k phi
        with np.errstate(all="ignore"):
            start = chi + u_eval / du_eval * np.log(u_new / u_eval)
        Phi_new = carrier_arguments(
            invert_carriers(models.stats, u_new, start), -phi)
        return Phi_new, u_new, balance, V * du_eval

    Phi = state.Phi.copy()
    # Anderson's difference columns, oldest first, taken as the iterates
    # arrive: dD of the directions and dX + dD, for the last _MIX_WINDOW
    # pairs of consecutive sweeps
    last = None
    d_directions = deque(maxlen=_MIX_WINDOW)
    d_steps = deque(maxlen=_MIX_WINDOW)
    for sweep in range(config.gummel_max_iter):
        Phi_new, u_new, balance, screen = advance(Phi)
        residual = Phi_new - Phi
        increment = float(np.abs(residual).max())
        if increment <= config.gummel_tol:
            proxy = _quasi_fermi_norm(disc, Phi_new, contacts)
            return (CarrierState(t=t_next, phi=phi, Phi=Phi_new, u=u_new),
                    StepReport(t=t_next, dt=dt, gummel_iterations=sweep + 1,
                               balance_residual=balance, proxy=proxy))
        w = poisson.factor().solve(screen[0] * residual[0]
                                   - screen[1] * residual[1])
        direction = np.concatenate([residual[0] + w, residual[1] - w])
        x = Phi.ravel()
        if last is not None:
            d_direction = direction - last[1]
            d_directions.append(d_direction)
            d_steps.append((x - last[0]) + d_direction)
        last = x, direction
        if d_directions:
            gamma, *_ = np.linalg.lstsq(np.stack(d_directions, axis=1),
                                        direction, rcond=None)
            mixed = x + direction - np.stack(d_steps, axis=1) @ gamma
        else:
            mixed = x + direction
        if not np.isfinite(mixed).all():
            raise StepRejected(f"mixed iterate is not finite at t={t_next:.6g}")
        Phi = mixed.reshape(Phi.shape)
    raise StepRejected(
        f"decoupling loop did not converge in {config.gummel_max_iter} sweeps "
        f"(last increment {increment:.3e})")


def terminal_currents(disc: Discretization, models: SimulationModels,
                      state: CarrierState) -> dict[str, float]:
    """Net electric current leaving each contact, keyed by its
    ``contact_labels`` name.

    Counts carrier-1 mass outflow minus carrier-2 outflow (the carriers
    enter the space charge with opposite signs), summed over the
    contact's faces.  In steady state this total is the same at every
    contact up to sign, recombination notwithstanding.  ``disc`` is the
    run's ``Discretization``, ``SimulationResult.disc``.
    """
    # a contact face's flow runs from lo to hi: outward where hi is its ghost
    m = disc.n_interior
    outward = np.where(disc.hi[m:] >= disc.n_cells, 1.0, -1.0)
    flows = outward * evaluate_face_coefficients(
        disc, models.stats, models.scheme, state.phi,
        carrier_arguments(state.Phi, state.phi),
        contact_values(disc.device, state.t)).flux()[:, disc.faces[m:]]
    out = {}
    for idx, label in enumerate(contact_labels(disc.device)):
        flow1, flow2 = np.sum(flows[:, disc.contact == idx], axis=1)
        out[label] = float(flow1 - flow2)
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
    poisson = assemble_poisson(device, build_mesh(device))
    state = initial_state(device, models, poisson=poisson) \
        if initial is None else initial.copy()
    states = [state]
    reports: list[StepReport] = []
    rejected = 0
    reason = None
    dt = config.dt_init
    horizon = config.t_end * (1.0 - 1e-14)
    jacobians = FactorSlot()
    while state.t < horizon:
        dt_step = min(dt, config.t_end - state.t)
        try:
            state, report = gummel_step(poisson, models, state, dt_step,
                                        config, jacobians)
        except StepRejected as exc:
            rejected += 1
            dt = dt_step * config.shrink
            if dt < config.dt_min:
                reason = f"step size underflow: {exc}"
                break
            continue
        states.append(state)
        reports.append(report)
        if observer is not None:
            observer(state, report)
        if detect_blowup([r.proxy for r in reports[-config.blowup_window:]],
                         config.blowup_threshold, config.blowup_window):
            reason = "carrier norm proxy increasing past threshold"
            break
        dt = min(dt_step * config.growth, config.dt_max)
    blowup = None if reason is None else BlowUpReport(
        reason=reason, threshold=config.blowup_threshold)
    return SimulationResult(states=states, reports=reports, blowup=blowup,
                            steps_rejected=rejected, disc=poisson.disc)

