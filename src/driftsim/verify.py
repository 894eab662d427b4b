"""Named, seeded property suites with explicit numeric bounds.

Each suite draws its random data from the given seed, measures one or
more quantities, and reports them against fixed bounds.  The same
suites back ``simulate verify`` and the acceptance tests, so a failing
bound shows up identically in both places.  Nothing here reports
wall-clock time, and seeding never goes through salted builtins like
``hash``; suite output depends only on the seed, which keeps repeated
invocations byte-identical.
"""

from __future__ import annotations

import filecmp
import math
import os
import tempfile
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
import scipy.optimize

from . import decks
from .config import build_models
from .device import (Contact, DeviceSpec, MaterialRegion, RobinSegment,
                     build_mesh)
from .nonlinear_poisson import (NonlinearPoissonProblem, apriori_bound,
                                contraction_iterate, newton_solve,
                                solve_operator_S)
from .operators import (apply_surface_load, assemble_poisson,
                        poisson_data_load)
from .output import format_float, write_outputs
from .recombination import kappa, kappa_lipschitz_bound
from .statistics import boltzmann, fermi_dirac_half
from .transient import (CarrierState, SimulationModels, TimeStepperConfig,
                        face_inputs, gummel_step, initial_state, run)

__all__ = ["PropertyResult", "run_suite", "run_all", "render_report"]

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


@dataclass(frozen=True)
class PropertyResult:
    suite: str
    name: str
    passed: bool
    measured: float
    bound: str

    def render(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} {self.suite}/{self.name} "
                f"measured={format_float(self.measured)} bound={self.bound}")


def _leq(suite: str, name: str, measured: float,
         bound: float) -> PropertyResult:
    return PropertyResult(suite, name, bool(measured <= bound),
                          float(measured), f"<={bound:g}")


def _in_range(suite: str, name: str, measured: float, lo: float,
              hi: float) -> PropertyResult:
    return PropertyResult(suite, name, bool(lo <= measured <= hi),
                          float(measured), f"[{lo:g},{hi:g}]")


def _ball(rng: np.random.Generator, n: int, radius: float) -> np.ndarray:
    """n uniform samples from the closed radius ball in R^3."""
    v = rng.normal(size=(n, 3))
    v /= np.maximum(np.linalg.norm(v, axis=1, keepdims=True), 1e-300)
    return v * (radius * rng.uniform(size=(n, 1)) ** (1.0 / 3.0))


# ---------------------------------------------------------------------------
# ionization kernel

def suite_kappa_lipschitz(seed: int) -> list[PropertyResult]:
    """Sampled certificate of the kernel's Lipschitz bound."""
    out = []
    n = 100_000
    for case, a in enumerate((0.5, 1.0, 2.0)):
        rng = np.random.default_rng([seed, 11, case])
        e1, j1 = _ball(rng, n, 10.0), _ball(rng, n, 10.0)
        e2, j2 = _ball(rng, n, 10.0), _ball(rng, n, 10.0)
        diff = np.abs(kappa(e1, j1, a) - kappa(e2, j2, a))
        bound = kappa_lipschitz_bound(
            a, np.linalg.norm(e1, axis=1), np.linalg.norm(j2, axis=1),
            np.linalg.norm(j1 - j2, axis=1), np.linalg.norm(e1 - e2, axis=1))
        out.append(_leq("kappa-lipschitz", f"violations-a{a:g}",
                        float(np.count_nonzero(diff > bound)), 0.0))
    return out


def suite_kappa_branches(seed: int) -> list[PropertyResult]:
    rng = np.random.default_rng([seed, 12])
    n = 10_000
    e = _ball(rng, n, 10.0)
    j = _ball(rng, n, 10.0)
    # e . j = 0 branches that are exact in floats: vanishing current,
    # vanishing field, and a coordinate rotation of the field itself
    # (the two products cancel identically)
    j_rot = np.stack([e[:, 1], -e[:, 0], np.zeros(n)], axis=1)
    vals = kappa(e, j, 1.0)
    return [
        _leq("kappa-branches", "zero-current",
             float(np.max(np.abs(kappa(e, np.zeros_like(j), 1.0)))), 0.0),
        _leq("kappa-branches", "zero-field",
             float(np.max(np.abs(kappa(np.zeros_like(e), j, 1.0)))), 0.0),
        _leq("kappa-branches", "orthogonal",
             float(np.max(np.abs(kappa(e, j_rot, 1.0)))), 0.0),
        _leq("kappa-branches", "nonnegative", float(np.max(-vals)), 0.0),
        _leq("kappa-branches", "below-current-norm",
             float(np.max(vals - np.linalg.norm(j, axis=1))), 0.0),
    ]


# ---------------------------------------------------------------------------
# carrier statistics

def _fd_half_quadrature(s: float, nodes: int = 1_000_000) -> float:
    """Composite-trapezoid oracle for the half-order integral.

    The substitution t = v^2 removes the square-root kink at the
    origin, so the rule converges at second order; 1e6 nodes put the
    quadrature error far below the comparison tolerance.
    """
    vmax = math.sqrt(max(s, 0.0) + 120.0)
    v = np.linspace(0.0, vmax, nodes)
    f = 2.0 * v * v / (1.0 + np.exp(v * v - s))
    return float(_trapezoid(f, v) / math.gamma(1.5))


def suite_statistics(seed: int) -> list[PropertyResult]:
    fd = fermi_dirac_half()
    oracle = _fd_half_quadrature(0.0)
    rng = np.random.default_rng([seed, 13])
    s = np.concatenate([[-12.0, -15.0, -30.0],
                        rng.uniform(-40.0, -12.0, size=40)])
    rel = np.abs(fd.eval(s) / np.exp(s) - 1.0)
    return [
        _leq("statistics", "fd-at-zero-vs-quadrature",
             abs(float(fd.eval(0.0)) - oracle), 1e-5),
        _leq("statistics", "fd-at-zero-vs-tabulated",
             abs(float(fd.eval(0.0)) - 0.76515), 1e-5),
        _leq("statistics", "boltzmann-tail-relative",
             float(np.max(rel)), 1e-4),
    ]


# ---------------------------------------------------------------------------
# nonlinear Poisson properties

def _grounded_1d() -> tuple:
    device = DeviceSpec(
        dimension=1, extent=(1.0,), resolution=(64,),
        regions=(MaterialRegion(name="bulk", bounds=((0.0, 1.0),)),),
        contacts=(Contact(side="left"), Contact(side="right")))
    mesh = build_mesh(device)
    return mesh, assemble_poisson(mesh)


def _grounded_2d() -> tuple:
    device = DeviceSpec(
        dimension=2, extent=(1.0, 1.0), resolution=(8, 8),
        regions=(
            MaterialRegion(name="lower", bounds=((0.0, 1.0), (0.0, 0.5))),
            MaterialRegion(name="upper", bounds=((0.0, 1.0), (0.5, 1.0)),
                           eps=2.0)),
        contacts=(Contact(side="left"), Contact(side="right")))
    mesh = build_mesh(device)
    return mesh, assemble_poisson(mesh)


def _omega_problems(seed: int):
    """Shared sample family: 100 omega pairs per mesh per statistics."""
    meshes = (("1d64", _grounded_1d), ("2d8x8", _grounded_2d))
    stats_pairs = (
        ("boltzmann", lambda: (boltzmann(), boltzmann())),
        ("fermi-dirac", lambda: (fermi_dirac_half(), fermi_dirac_half())),
    )
    for mi, (mesh_name, build) in enumerate(meshes):
        mesh, op = build()
        zero = np.zeros(mesh.n_cells)
        for si, (stats_name, make) in enumerate(stats_pairs):
            rng = np.random.default_rng([seed, 14, mi, si])
            # alternate far pairs with tight perturbations; the latter
            # probe the Lipschitz bound where it is nearly attained
            pairs = []
            for p in range(100):
                om_a = rng.uniform(-2.0, 2.0, (2, mesh.n_cells))
                om_b = om_a + rng.uniform(-0.05, 0.05, om_a.shape) \
                    if p % 2 else rng.uniform(-2.0, 2.0, (2, mesh.n_cells))
                pairs.append((om_a, om_b))
            base = NonlinearPoissonProblem(
                poisson=op, load=zero, stats=make(),
                omega=np.zeros((2, mesh.n_cells)))
            yield f"{mesh_name}-{stats_name}", base, pairs


def suite_nonexpansive(seed: int) -> list[PropertyResult]:
    out = []
    for label, base, pairs in _omega_problems(seed):
        worst = -math.inf
        for om_a, om_b in pairs:
            phi_a, _ = solve_operator_S(replace(base, omega=om_a), tol=1e-12)
            phi_b, _ = solve_operator_S(replace(base, omega=om_b), tol=1e-12)
            excess = float(np.max(np.abs(phi_a - phi_b))
                           - np.max(np.abs(om_a - om_b)))
            worst = max(worst, excess)
        out.append(_leq("poisson-nonexpansive", f"excess-{label}",
                        worst, 1e-10))
    return out


def suite_flat(seed: int) -> list[PropertyResult]:
    """The potential map vanishes on compatible constant level pairs."""
    del seed  # nothing sampled; the level pairs are a fixed grid
    mesh, op = _grounded_1d()
    zero = np.zeros(mesh.n_cells)
    combos = (
        ("bb", boltzmann(), boltzmann()),
        ("ff", fermi_dirac_half(), fermi_dirac_half()),
        ("bf", boltzmann(), fermi_dirac_half()),
        ("fb", fermi_dirac_half(), boltzmann()),
    )
    out = []
    for tag, s1, s2 in combos:
        worst = 0.0
        for k1 in (-1.0, 0.0, 0.5, 2.0):
            k2 = float(s2.invert(float(s1.eval(k1))))
            omega = np.vstack([np.full(mesh.n_cells, k1),
                               np.full(mesh.n_cells, k2)])
            problem = NonlinearPoissonProblem(
                poisson=op, load=zero, stats=(s1, s2), omega=omega)
            phi, _ = solve_operator_S(problem, tol=1e-13)
            worst = max(worst, float(np.max(np.abs(phi))))
        out.append(_leq("poisson-flat", f"zero-{tag}", worst, 1e-12))
    return out


def suite_newton_agreement(seed: int) -> list[PropertyResult]:
    out = []
    for label, base, pairs in _omega_problems(seed):
        samples = [om for pair in pairs for om in pair]
        worst = 0.0
        for om in samples:
            problem = replace(base, omega=om)
            phi_n, _ = newton_solve(problem, tol=1e-12)
            phi_c, _ = contraction_iterate(problem, tol=1e-11)
            worst = max(worst, float(np.max(np.abs(phi_n - phi_c))))
        out.append(_leq("poisson-newton", f"method-agreement-{label}",
                        worst, 1e-8))
        worst_k = 0.0
        for om in samples[:5]:
            problem = replace(base, omega=om)
            K = apriori_bound(om, base.stats)
            phi_1, _ = contraction_iterate(problem, tol=3e-14,
                                           cutoff_bound=K)
            phi_2, _ = contraction_iterate(problem, tol=3e-14,
                                           cutoff_bound=2.0 * K)
            worst_k = max(worst_k, float(np.max(np.abs(phi_1 - phi_2))))
        out.append(_leq("poisson-newton", f"cutoff-doubling-{label}",
                        worst_k, 1e-12))
    return out


# ---------------------------------------------------------------------------
# manufactured solutions

def _mms_poisson_error(cells: int, piecewise: bool) -> float:
    """Sup-norm error of the nonlinear solve against a smooth target."""
    if piecewise:
        regions = (
            MaterialRegion(name="soft", bounds=((0.0, 0.5),)),
            MaterialRegion(name="stiff", bounds=((0.5, 1.0),), eps=2.0))

        def exact(x):
            lo = np.sin(np.pi * x) / np.pi
            hi = 1.0 / np.pi + (np.sin(np.pi * x) - 1.0) / (2.0 * np.pi)
            return np.where(x <= 0.5, lo, hi)

        def forcing(x):
            return np.pi * np.sin(np.pi * x)

        phi_right = 1.0 / (2.0 * np.pi)
    else:
        regions = (MaterialRegion(name="bulk", bounds=((0.0, 1.0),)),)

        def exact(x):
            return np.sin(np.pi * x)

        def forcing(x):
            return np.pi ** 2 * np.sin(np.pi * x)

        phi_right = 0.0
    device = DeviceSpec(
        dimension=1, extent=(1.0,), resolution=(cells,), regions=regions,
        contacts=(Contact(side="left", phi=0.0),
                  Contact(side="right", phi=phi_right)))
    mesh = build_mesh(device)
    op = assemble_poisson(mesh)
    x = mesh.cell_centers[:, 0]
    # Boltzmann pair with omega = 0 contributes -2 sinh(phi) of space
    # charge, so the manufactured volumetric load carries +2 sinh(phi*)
    load = poisson_data_load(op, 0.0) \
        + mesh.cell_volumes * (forcing(x) + 2.0 * np.sinh(exact(x)))
    problem = NonlinearPoissonProblem(
        poisson=op, load=load, stats=(boltzmann(), boltzmann()),
        omega=np.zeros((2, mesh.n_cells)))
    phi, _ = solve_operator_S(problem, tol=1e-13)
    return float(np.max(np.abs(phi - exact(x))))


def _fit_order(h: np.ndarray, err: np.ndarray) -> float:
    return float(np.polyfit(np.log(h), np.log(err), 1)[0])


def suite_mms_poisson(seed: int) -> list[PropertyResult]:
    del seed  # deterministic refinement study
    cells = np.array([16, 32, 64, 128, 256])
    out = []
    for tag, piecewise in (("uniform", False), ("two-layer", True)):
        err = np.array([_mms_poisson_error(int(n), piecewise)
                        for n in cells])
        order = _fit_order(1.0 / cells, err)
        out.append(_in_range("mms-poisson", f"order-{tag}", order, 1.8, 2.2))
    return out


def _mms_transient_error(dt: float) -> float:
    """Final-time density error for a spatially flat manufactured state."""
    device = DeviceSpec(
        dimension=1, extent=(1.0,), resolution=(8,),
        regions=(MaterialRegion(name="bulk", bounds=((0.0, 1.0),)),),
        robin=(RobinSegment(side="left", eps_gamma=1.0),
               RobinSegment(side="right", eps_gamma=1.0)))

    def g(t):
        return 1.0 + 0.4 * math.sin(2.0 * math.pi * t)

    def gp(t):
        return 0.8 * math.pi * math.cos(2.0 * math.pi * t)

    models = SimulationModels(
        stats=(boltzmann(), boltzmann()),
        source=lambda t, mesh: np.full((2, mesh.n_cells), gp(t)))
    config = TimeStepperConfig(dt_init=dt, t_end=0.5, dt_min=dt / 4.0,
                               dt_max=dt, growth=1.0)
    mesh = build_mesh(device)
    start = CarrierState(t=0.0, phi=np.zeros(mesh.n_cells),
                         Phi=np.zeros((2, mesh.n_cells)),
                         u=np.ones((2, mesh.n_cells)))
    result = run(device, models, config, initial=start)
    return float(np.max(np.abs(result.final.u - g(result.final.t))))


def suite_mms_transient(seed: int) -> list[PropertyResult]:
    del seed
    dts = 0.05 / 2.0 ** np.arange(5)
    err = np.array([_mms_transient_error(float(dt)) for dt in dts])
    order = _fit_order(dts, err)
    return [_in_range("mms-transient", "order-euler", order, 0.8, 1.2)]


# ---------------------------------------------------------------------------
# shipped-deck behavior

@lru_cache(maxsize=None)
def _run_deck(name: str):
    config = getattr(decks, name)()
    models = build_models(config)
    return config, models, run(config.device, models, config.stepper)


def suite_conservation(seed: int) -> list[PropertyResult]:
    del seed
    out = []
    for name in ("diode", "two_layer", "insulated"):
        _, _, result = _run_deck(name)
        worst = max(r.balance_residual for r in result.reports)
        out.append(_leq("conservation", f"balance-{name}", worst, 1e-12))
    # interfacial load: distributing production * area into cells must
    # re-sum to the face total exactly (same additions, reassociated)
    config, _, result = _run_deck("two_layer")
    mesh = result.disc.mesh
    faces = mesh.interface_faces[0]
    model = config.device.interfaces[0].model
    rate = model.production(face_inputs(mesh, faces, result.final.u))
    load = apply_surface_load(mesh, faces, rate)
    direct = float(np.sum(rate * mesh.face_area[faces]))
    out.append(_leq("conservation", "interfacial-resummation",
                    abs(float(np.sum(load)) - direct)
                    / max(1.0, abs(direct)), 1e-15))
    return out


def suite_equilibrium(seed: int) -> list[PropertyResult]:
    del seed
    _, _, result = _run_deck("diode_equilibrium")
    first = result.states[0]
    drift_phi = drift_Phi = drift_u = 0.0
    for state in result.states[1:]:
        drift_phi = max(drift_phi,
                        float(np.max(np.abs(state.phi - first.phi))))
        drift_Phi = max(drift_Phi,
                        float(np.max(np.abs(state.Phi - first.Phi))))
        drift_u = max(drift_u, float(np.max(np.abs(state.u - first.u))))
    built_in = float(result.final.phi[-1] - result.final.phi[0])
    target = 2.0 * math.asinh(0.5)
    return [
        _leq("equilibrium", "steps-deviation",
             abs(result.steps_accepted - 100), 0.0),
        _leq("equilibrium", "drift-potential", drift_phi, 1e-10),
        _leq("equilibrium", "drift-quasi-fermi", drift_Phi, 1e-10),
        _leq("equilibrium", "drift-density", drift_u, 1e-10),
        _leq("equilibrium", "built-in-potential",
             abs(built_in - target), 1e-3),
    ]


def suite_positivity_blowup(seed: int) -> list[PropertyResult]:
    del seed
    floor = math.inf
    for name in ("diode", "two_layer", "insulated", "avalanche_runaway"):
        _, _, result = _run_deck(name)
        floor = min(floor, min(float(np.min(s.u)) for s in result.states))
    out = [PropertyResult("positivity-blowup", "density-floor",
                          floor > 0.0, floor, ">0")]
    config, _, result = _run_deck("avalanche_runaway")
    report = result.blowup
    out.append(PropertyResult("positivity-blowup", "avalanche-terminates",
                              report is not None,
                              1.0 if report is not None else 0.0, "=1"))
    if report is not None:
        tail = np.array([r.proxy for r in
                         result.reports[-config.stepper.blowup_window:]])
        rising = bool(np.all(np.diff(tail) > 0.0)
                      and tail[-1] > report.threshold)
        out.append(PropertyResult("positivity-blowup",
                                  "norm-history-rising", rising,
                                  float(tail[-1]),
                                  f">{report.threshold:g}"))
    return out


# ---------------------------------------------------------------------------
# decoupled step vs monolithic oracle

def _bernoulli(x: float) -> float:
    if abs(x) < 1e-8:
        return 1.0 - 0.5 * x
    return x / math.expm1(x)


def _monolithic_two_cell(config, dt: float) -> np.ndarray:
    """Backward-Euler step of the 2-cell device as six coupled equations.

    Deliberately hand-rolled from the scheme definition (two-point
    fluxes, exponential fitting, half-cell contact distances, trap
    recombination) without touching the assembly code, so it can catch
    sign and closure bugs there.  Unknowns: phi, Phi1, Phi2 per cell.
    """
    device = config.device
    t_next = dt
    (phiL, P1L, P2L), (phiR, P1R, P2R) = (c.values(t_next)
                                          for c in device.contacts)
    h = 0.5
    t_int, t_bnd, V = 1.0 / h, 2.0 / h, h
    d = np.array([-1.0, 1.0])

    state = initial_state(device, SimulationModels(
        stats=(boltzmann(), boltzmann())))
    u1_0, u2_0 = state.u

    def f_face(t, sign, dphi, ulo, uhi):
        # minus the axis-directed carrier flux u mu dPhi/dx through the
        # face, exponentially fitted; sign is -1 for carrier 1 (density
        # exp(Phi - phi)) and +1 for carrier 2 (density exp(Phi + phi))
        s = sign * dphi
        return t * (_bernoulli(-s) * ulo - _bernoulli(s) * uhi)

    def residual(x):
        phi = x[0:2]
        Phi = (x[2:4], x[4:6])
        u = (np.exp(Phi[0] - phi), np.exp(Phi[1] + phi))
        uD = (np.exp([P1L - phiL, P1R - phiR]),
              np.exp([P2L + phiL, P2R + phiR]))
        srh = (1.0 - u[0] * u[1]) / (u[0] + u[1] + 2.0)
        r = np.empty(6)
        r[0] = t_int * (phi[0] - phi[1]) + t_bnd * (phi[0] - phiL) \
            - V * (d[0] + u[0][0] - u[1][0])
        r[1] = t_int * (phi[1] - phi[0]) + t_bnd * (phi[1] - phiR) \
            - V * (d[1] + u[0][1] - u[1][1])
        for k, sign, u_old in ((0, -1.0, u1_0), (1, 1.0, u2_0)):
            f_l = f_face(t_bnd, sign, phi[0] - phiL, uD[k][0], u[k][0])
            f_m = f_face(t_int, sign, phi[1] - phi[0], u[k][0], u[k][1])
            f_r = f_face(t_bnd, sign, phiR - phi[1], u[k][1], uD[k][1])
            r[2 + 2 * k] = V / dt * (u[k][0] - u_old[0]) \
                + (f_m - f_l) - V * srh[0]
            r[3 + 2 * k] = V / dt * (u[k][1] - u_old[1]) \
                + (f_r - f_m) - V * srh[1]
        return r

    x0 = np.concatenate([state.phi, state.Phi[0], state.Phi[1]])
    sol = scipy.optimize.root(residual, x0, method="hybr", tol=1e-14)
    worst = float(np.max(np.abs(residual(sol.x))))
    if worst > 1e-11:
        raise AssertionError(
            f"monolithic oracle stalled (residual {worst:.3e}): "
            f"{sol.message}")
    return sol.x


def suite_gummel_monolithic(seed: int) -> list[PropertyResult]:
    del seed
    config = decks.srh_two_cell()
    models = build_models(config)
    poisson = assemble_poisson(build_mesh(config.device))
    state = initial_state(config.device, models, poisson=poisson)
    dt = config.stepper.dt_init
    new_state, _ = gummel_step(poisson, models, state, dt, config.stepper)
    ref = _monolithic_two_cell(config, dt)
    got = np.concatenate([new_state.phi, new_state.Phi[0], new_state.Phi[1]])
    return [_leq("gummel-monolithic", "state-agreement",
                 float(np.max(np.abs(got - ref))),
                 10.0 * config.stepper.gummel_tol)]


# ---------------------------------------------------------------------------
# determinism

def suite_determinism(seed: int) -> list[PropertyResult]:
    differing = 0
    with tempfile.TemporaryDirectory() as root:
        paths = []
        for attempt in ("a", "b"):
            sub = os.path.join(root, attempt)
            os.mkdir(sub)
            _run_deck.cache_clear()  # force a genuine recomputation
            config, models, result = _run_deck("srh_two_cell")
            paths.append(write_outputs(config, config.device,
                                       result.disc.mesh, models, result,
                                       directory=sub))
        _run_deck.cache_clear()
        for first, second in zip(*paths):
            if not filecmp.cmp(first, second, shallow=False):
                differing += 1
    reports = [render_report(suite_kappa_lipschitz(seed)) for _ in range(2)]
    return [
        _leq("determinism", "run-differing-files", float(differing), 0.0),
        _leq("determinism", "verify-report-identical",
             0.0 if reports[0] == reports[1] else 1.0, 0.0),
    ]


# ---------------------------------------------------------------------------
# registry

SUITES = {
    "kappa-lipschitz": suite_kappa_lipschitz,
    "kappa-branches": suite_kappa_branches,
    "statistics": suite_statistics,
    "poisson-nonexpansive": suite_nonexpansive,
    "poisson-flat": suite_flat,
    "poisson-newton": suite_newton_agreement,
    "mms-poisson": suite_mms_poisson,
    "mms-transient": suite_mms_transient,
    "conservation": suite_conservation,
    "equilibrium": suite_equilibrium,
    "positivity-blowup": suite_positivity_blowup,
    "gummel-monolithic": suite_gummel_monolithic,
    "determinism": suite_determinism,
}


def run_suite(name: str, seed: int = 0) -> list[PropertyResult]:
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name](seed)


def run_all(seed: int = 0) -> list[PropertyResult]:
    out = []
    for name in SUITES:
        out.extend(SUITES[name](seed))
    return out


def render_report(results) -> str:
    lines = [r.render() for r in results]
    failed = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results) - failed}/{len(results)} properties passed")
    return "\n".join(lines)
