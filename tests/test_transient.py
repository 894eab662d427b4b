import dataclasses

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from driftsim import decks, nonlinear_poisson, transient
from driftsim.config import OutputSink, SimulationConfig, build_models
from driftsim.device import (
    BoxDoping,
    Contact,
    DeviceSpec,
    DopingProfile,
    MaterialRegion,
    RobinSegment,
    build_mesh,
    contact_values,
)
from driftsim.errors import (DomainError, NonConvergenceError, SolverError,
                             StepRejected)
from driftsim.operators import (Discretization, FluxScheme, assemble_poisson,
                                carrier_face_coefficients,
                                evaluate_face_coefficients)
from driftsim.output import write_outputs
from driftsim.recombination import MassAction
from driftsim.statistics import (StatisticsModel, boltzmann,
                                 carrier_arguments, eval_carriers,
                                 fermi_dirac_half)
from driftsim.transient import (
    SimulationModels,
    TimeStepperConfig,
    detect_blowup,
    gummel_step,
    initial_state,
    run,
    terminal_currents,
)

BB = (boltzmann(), boltzmann())
FF = (fermi_dirac_half(), fermi_dirac_half())


def insulated_box(cells=8):
    return DeviceSpec(
        dimension=1, extent=(1.0,), resolution=(cells,),
        regions=(MaterialRegion("bulk", ((0.0, 1.0),)),),
        robin=(RobinSegment("left", eps_gamma=1.0),
               RobinSegment("right", eps_gamma=1.0)))


def _same_shape_devices(dev):
    """Two devices with ``dev``'s resolution and extent, so their meshes
    have its cells: one with a second region of eps 5 over the right
    half, one with a Robin segment in place of its left contact."""
    left, right = dev.contacts
    two_region = dataclasses.replace(dev, regions=(
        MaterialRegion("bulk", ((0.0, 1.0),)),
        MaterialRegion("right", ((1.0, 2.0),), eps=5.0)))
    robin = dataclasses.replace(dev, contacts=(right,), robin=(
        RobinSegment("left", eps_gamma=1.0),))
    return two_region, robin


def biased_diode(bias=0.1, cells=32):
    phi_n = float(np.arcsinh(0.5))
    ramp = ((0.0, 0.0), (0.5, bias))
    return DeviceSpec(
        dimension=1, extent=(2.0,), resolution=(cells,),
        regions=(MaterialRegion("bulk", ((0.0, 2.0),)),),
        contacts=(Contact(side="left", phi=-phi_n),
                  Contact(side="right", phi=phi_n, bias=ramp)),
        doping=DopingProfile(boxes=(BoxDoping(((0.0, 1.0),), -1.0),
                                    BoxDoping(((1.0, 2.0),), 1.0))))


# -- stepper configuration ------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    dict(dt_init=0.0, t_end=1.0),
    dict(dt_init=0.1, t_end=-1.0),
    dict(dt_init=0.1, t_end=1.0, dt_min=0.2),
    dict(dt_init=0.1, t_end=1.0, growth=0.9),
    dict(dt_init=0.1, t_end=1.0, shrink=1.0),
    dict(dt_init=0.1, t_end=1.0, gummel_tol=0.0),
    dict(dt_init=0.1, t_end=1.0, gummel_max_iter=0),
    dict(dt_init=0.1, t_end=1.0, blowup_window=1),
    dict(dt_init="0.1", t_end=1.0),
    dict(dt_init=0.1, t_end=1.0, gummel_max_iter=True),
])
def test_stepper_config_validation(kwargs):
    with pytest.raises(DomainError):
        TimeStepperConfig(**kwargs)


@pytest.mark.parametrize("name", ["gummel_max_iter", "blowup_window"])
def test_stepper_integer_fields_reject_floats(name):
    # run() would fail later with an untyped TypeError on either
    stepper = TimeStepperConfig(dt_init=0.1, t_end=1.0)
    with pytest.raises(DomainError, match=f"{name} must be an integer"):
        dataclasses.replace(stepper, **{name: 2.5})


def test_detect_blowup_needs_full_window():
    assert not detect_blowup([5.0, 6.0], threshold=1.0, window=3)


def test_detect_blowup_requires_strict_increase():
    assert detect_blowup([1.0, 2.0, 3.0], threshold=2.5, window=3)
    assert not detect_blowup([1.0, 3.0, 3.0], threshold=2.5, window=3)
    assert not detect_blowup([4.0, 3.0, 5.0], threshold=2.5, window=3)


def test_detect_blowup_threshold_applies_to_last():
    assert not detect_blowup([0.1, 0.2, 0.3], threshold=2.5, window=3)


# -- exact time integration -----------------------------------------------

def test_constant_source_integrates_exactly():
    # du/dt = 1 on an insulated neutral box: implicit Euler reproduces
    # u(t) = 1 + t to solver tolerance, and the potential stays flat
    dev = insulated_box()
    models = SimulationModels(
        stats=BB, source=lambda t, mesh: np.ones((2, mesh.n_cells)))
    cfg = TimeStepperConfig(dt_init=0.1, t_end=1.0, dt_max=0.1,
                            gummel_tol=1e-12)
    result = run(dev, models, cfg)
    assert result.completed
    final = result.final
    assert final.t == pytest.approx(1.0)
    assert np.max(np.abs(final.u - 2.0)) <= 1e-9
    assert np.max(np.abs(final.phi)) <= 1e-9


def test_equilibrium_is_stationary():
    dev = biased_diode(bias=0.0)
    models = SimulationModels(stats=BB)
    cfg = TimeStepperConfig(dt_init=0.1, t_end=0.5, dt_max=0.1)
    start = initial_state(dev, models)
    result = run(dev, models, cfg, initial=start)
    drift = np.max(np.abs(result.final.u - start.u))
    assert drift <= 1e-10


# -- bookkeeping ----------------------------------------------------------

def test_observer_sees_every_accepted_step():
    dev = insulated_box()
    models = SimulationModels(stats=BB)
    cfg = TimeStepperConfig(dt_init=0.25, t_end=1.0, dt_max=0.25)
    seen = []
    result = run(dev, models, cfg, observer=lambda s, r: seen.append(r.t))
    assert len(seen) == result.steps_accepted
    assert seen == [r.t for r in result.reports]
    assert seen == sorted(seen)


def test_balance_report_matches_steps():
    dev = biased_diode()
    models = SimulationModels(stats=BB)
    cfg = TimeStepperConfig(dt_init=0.05, t_end=0.3, dt_max=0.1)
    result = run(dev, models, cfg)
    residuals = np.array([r.balance_residual for r in result.reports])
    assert residuals.shape == (result.steps_accepted,)
    assert np.max(residuals) <= 1e-12


def test_dt_respects_cap_and_horizon():
    dev = insulated_box()
    models = SimulationModels(stats=BB)
    cfg = TimeStepperConfig(dt_init=0.05, t_end=0.4, dt_max=0.08)
    result = run(dev, models, cfg)
    dts = [r.dt for r in result.reports]
    assert max(dts) <= 0.08 + 1e-15
    assert result.final.t == pytest.approx(0.4)


def test_initial_state_rejects_bias_at_start():
    dev = biased_diode(bias=0.1)
    # the ramp starts at zero, so this device starts; biased at t = 0, not
    models = SimulationModels(stats=BB)
    initial_state(dev, models)
    left, right = dev.contacts
    biased = dataclasses.replace(dev, contacts=(
        left, dataclasses.replace(right, bias=0.1)))
    with pytest.raises(DomainError):
        initial_state(biased, models)


def test_initial_state_rejects_another_device_or_mesh_beside_poisson():
    # the operator carries the device and mesh it solves on; a device or a
    # mesh passed beside it must be equal to them, and an equal mesh built
    # apart is
    dev = biased_diode(cells=16)
    models = SimulationModels(stats=BB)
    poisson = assemble_poisson(dev, build_mesh(dev))
    start = initial_state(dev, models, build_mesh(dev), poisson)
    assert start.phi.shape == (16,)
    with pytest.raises(DomainError, match="device differs"):
        initial_state(biased_diode(bias=0.2, cells=16), models,
                      poisson=poisson)
    for other in (biased_diode(cells=32), insulated_box(cells=16),
                  *_same_shape_devices(dev)):
        with pytest.raises(DomainError, match="mesh differs"):
            initial_state(dev, models, build_mesh(other), poisson)


def test_initial_state_rejects_a_mesh_of_another_device():
    # without an operator, initial_state assembles one on the mesh it is
    # given, which must be the device's: a 16-cell diode with an 8-cell
    # mesh, or with a mesh of its cell count over another extent, raises
    # instead of returning another device's equilibrium, and so does a
    # mesh with the diode's cells but another region or boundary layout
    dev = biased_diode(cells=16)
    models = SimulationModels(stats=BB)
    assert initial_state(dev, models, build_mesh(dev)).phi.shape == (16,)
    for other in (biased_diode(cells=8), insulated_box(cells=16),
                  *_same_shape_devices(dev)):
        with pytest.raises(DomainError, match="does not fit the device"):
            initial_state(dev, models, build_mesh(other))


def test_run_runs_its_own_equilibrium():
    dev = biased_diode(bias=0.05)
    models = SimulationModels(stats=BB)
    cfg = TimeStepperConfig(dt_init=0.05, t_end=0.2, dt_max=0.05)
    result = run(dev, models, cfg)
    assert result.completed
    assert result.states[0].t == 0.0
    assert len(result.states) == result.steps_accepted + 1


# -- currents -------------------------------------------------------------

def test_terminal_currents_vanish_at_equilibrium():
    dev = biased_diode(bias=0.0)
    poisson = assemble_poisson(dev, build_mesh(dev))
    models = SimulationModels(stats=BB)
    state = initial_state(dev, models, poisson=poisson)
    currents = terminal_currents(poisson.disc, models, state)
    assert set(currents) == {"left", "right"}
    assert abs(currents["left"]) <= 1e-10
    assert abs(currents["right"]) <= 1e-10


def test_contacts_sharing_a_side_each_report_their_current():
    # two top contacts with disjoint spans form a valid device; each must
    # keep its own current, the sum over its own faces
    dev = DeviceSpec(
        dimension=2, extent=(8.0, 4.0), resolution=(8, 4),
        regions=(MaterialRegion("bulk", ((0.0, 8.0), (0.0, 4.0))),),
        contacts=(Contact(side="top", span=(0.0, 1.0)),
                  Contact(side="bottom"),
                  Contact(side="top", span=(3.0, 4.0), bias=0.5)))
    disc = Discretization(dev, build_mesh(dev))
    models = SimulationModels(stats=BB)
    rng = np.random.default_rng(4)
    n = disc.n_cells
    state = transient.CarrierState(t=0.0, phi=rng.normal(size=n),
                                   Phi=0.1 * rng.normal(size=(2, n)),
                                   u=np.ones((2, n)))
    currents = terminal_currents(disc, models, state)
    assert list(currents) == ["top_1", "bottom", "top_2"]
    flux = evaluate_face_coefficients(
        disc, BB, models.scheme, state.phi,
        carrier_arguments(state.Phi, state.phi),
        contact_values(dev, 0.0)).flux()
    mesh = disc.mesh
    for idx, (label, sign) in enumerate(
            [("top_1", 1.0), ("bottom", -1.0), ("top_2", 1.0)]):
        # flow runs from a face's low to its high side: outward at the top
        faces = np.flatnonzero(mesh.face_contact == idx)
        assert faces.size == (1 if label != "bottom" else 8)
        own = sign * np.sum(flux[0][faces] - flux[1][faces])
        assert currents[label] == pytest.approx(own, rel=1e-12, abs=1e-14)
    assert currents["top_1"] != currents["top_2"]


def test_gummel_step_advances_time(monkeypatch):
    solves = []
    original = transient.solve_linear

    def counting(*args, **kwargs):
        solves.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(transient, "solve_linear", counting)
    dev = biased_diode()
    poisson = assemble_poisson(dev, build_mesh(dev))
    models = SimulationModels(stats=BB)
    cfg = TimeStepperConfig(dt_init=0.05, t_end=1.0)
    state = initial_state(dev, models, poisson=poisson)
    new, report = gummel_step(poisson, models, state, 0.05, cfg)
    assert new.t == pytest.approx(0.05)
    assert state.t == 0.0  # input state untouched
    assert report.gummel_iterations >= 1
    assert report.balance_residual <= 1e-12
    # the accepted state is the last sweep's image: two density solves per
    # sweep, and no further pass after the increment test
    assert len(solves) == 2 * report.gummel_iterations


def test_sweeps_reuse_the_potential_solves_statistics(monkeypatch):
    # a Fermi-Dirac run asks the statistics for the cells' (F, F') in its
    # steps only through the potential solve's residuals and the inversion:
    # the kernel evaluates no point itself, and each step evaluates its
    # Dirichlet ghosts once, whatever its sweep count
    device = biased_diode(bias=0.2, cells=24)
    models = SimulationModels(
        stats=FF, scheme=FluxScheme(variant="scharfetter_gummel_enhanced"))
    config = TimeStepperConfig(dt_init=0.05, t_end=0.15)
    mesh = build_mesh(device)
    n_cells, n_ghosts = mesh.n_cells, len(Discretization(device, mesh).contact)
    asked = []  # (innermost traced caller, points) of every eval_pair call
    caller = ["equilibrium"]
    kernel_calls, step_calls = [], []

    def within(name, fn, record=None):
        def wrapped(*args, **kwargs):
            outer, caller[0] = caller[0], name
            try:
                out = fn(*args, **kwargs)
            finally:
                caller[0] = outer
            if record is not None:
                # with the index of the step it ran in
                record.append((len(step_calls), args, out))
            return out
        return wrapped

    def counted(self, s):
        asked.append((caller[0], np.size(s)))
        return pair(self, s)

    pair = StatisticsModel.eval_pair
    monkeypatch.setattr(StatisticsModel, "eval_pair", counted)
    monkeypatch.setattr(StatisticsModel, "invert", within(
        "invert", StatisticsModel.invert))
    monkeypatch.setattr(nonlinear_poisson.NonlinearPoissonProblem,
                        "linearize", within(
                            "residual",
                            nonlinear_poisson.NonlinearPoissonProblem.linearize))
    monkeypatch.setattr(transient, "carrier_face_coefficients", within(
        "kernel", carrier_face_coefficients, kernel_calls))
    monkeypatch.setattr(transient, "eval_carriers", within(
        "ghosts", eval_carriers))
    monkeypatch.setattr(transient, "gummel_step", within(
        "step", transient.gummel_step, step_calls))
    result = run(device, models, config)
    monkeypatch.undo()

    sweeps = sum(r.gummel_iterations for r in result.reports)
    assert result.steps_accepted == len(step_calls) == 3
    assert len(kernel_calls) == sweeps > len(step_calls)
    callers = {who for who, _ in asked}
    assert callers == {"equilibrium", "residual", "invert", "ghosts"}
    assert [points for who, points in asked if who == "ghosts"] \
        == [2 * n_ghosts] * len(step_calls)
    assert all(points == 2 * n_cells for who, points in asked
               if who in ("residual", "invert"))
    # the kernel's result equals a fresh evaluation of the cells and of the
    # ghosts at the step's contact values, bit for bit
    for step, (disc, stats, scheme, phi, chi, u), faces in kernel_calls:
        new_state, _ = step_calls[step][2]
        fresh = evaluate_face_coefficients(
            disc, stats, scheme, phi[:n_cells], chi[:, :n_cells],
            contact_values(device, new_state.t))
        for name in ("a", "b", "u"):
            assert np.array_equal(getattr(faces, name), getattr(fresh, name))


def diode_first_step():
    """The shipped diode deck at equilibrium, and its first step's
    arguments (dt = dt_init); unpatched, that step takes 3 sweeps."""
    config = decks.diode()
    models = build_models(config)
    poisson = assemble_poisson(config.device, build_mesh(config.device))
    state = initial_state(config.device, models, poisson=poisson)
    return poisson, models, state, config.stepper.dt_init, config.stepper


def test_failed_sweep_rejects_the_step(monkeypatch):
    # a solve that fails in a later sweep rejects the step at once; the
    # sweep is not rerun from an earlier iterate
    calls = []
    original = transient.solve_operator_S

    def failing_third(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise SolverError("stub")
        return original(*args, **kwargs)

    monkeypatch.setattr(transient, "solve_operator_S", failing_third)
    with pytest.raises(StepRejected, match="potential solve failed: stub"):
        gummel_step(*diode_first_step())
    assert len(calls) == 3


def test_rejection_chains_the_newton_error(monkeypatch):
    # the step's StepRejected carries the Newton error itself, with the
    # iteration count and residual it stopped at
    args = diode_first_step()
    stub = NonConvergenceError("stub", iterations=7, residual=0.5)

    def failing(*args, **kwargs):
        raise stub

    monkeypatch.setattr(nonlinear_poisson, "newton_solve", failing)
    with pytest.raises(StepRejected) as info:
        gummel_step(*args)
    cause = info.value.__cause__
    assert cause is stub
    assert isinstance(cause, SolverError)
    assert cause.iterations == 7
    assert cause.residual == 0.5


def test_nonfinite_mix_rejects_the_step(monkeypatch):
    # the first Anderson mix (sweep 2) comes out NaN: the step is rejected
    # there with that cause, not continued from the sweep image
    args = diode_first_step()
    calls = []
    original = transient.solve_operator_S

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    def nan_lstsq(a, b, rcond=None):
        return np.full(a.shape[1], np.nan), np.empty(0), 0, np.empty(0)

    monkeypatch.setattr(transient, "solve_operator_S", counting)
    monkeypatch.setattr(np.linalg, "lstsq", nan_lstsq)
    with pytest.raises(StepRejected, match="mixed iterate is not finite"):
        gummel_step(*args)
    assert len(calls) == 2


def test_mixing_keeps_a_reacting_insulated_box_unrejected():
    # strong doping and generation on the insulated deck: windowed Anderson
    # mixing reaches t_end with no rejected step
    config = decks.insulated()
    doping = config.device.doping
    device = dataclasses.replace(config.device, doping=dataclasses.replace(
        doping, boxes=(dataclasses.replace(doping.boxes[0], value=40.0),)))
    config = dataclasses.replace(
        config, device=device,
        recombination=(MassAction(rate=1.0, generation=30.0),))
    result = run(config.device, build_models(config), config.stepper)
    assert result.completed
    assert result.final.t == pytest.approx(1.0)
    assert result.steps_rejected == 0


def junction_2d(ramp_end):
    """A 12x6 pn junction whose right contact ramps to 0.25 by ``ramp_end``."""
    phi_n = float(np.arcsinh(0.5))
    return DeviceSpec(
        dimension=2, extent=(4.0, 2.0), resolution=(12, 6),
        regions=(MaterialRegion("bulk", ((0.0, 4.0), (0.0, 2.0))),),
        contacts=(Contact(side="left", phi=-phi_n),
                  Contact(side="right", phi=phi_n,
                          bias=((0.0, 0.0), (ramp_end, 0.25)))),
        doping=DopingProfile(boxes=(BoxDoping(((0.0, 2.0), (0.0, 2.0)), -1.0),
                                    BoxDoping(((2.0, 4.0), (0.0, 2.0)), 1.0))))


def test_2d_step_factors_each_system_once(monkeypatch):
    # off the tridiagonal path a step factors the Newton Jacobian and each
    # carrier's continuity matrix at most once, and solves the later
    # sweeps' systems by refinement from those factors, down to the
    # balance bound
    factors = []
    original = spla.spilu

    def counting(*args, **kwargs):
        factors.append(1)
        return original(*args, **kwargs)

    dev = junction_2d(0.1)
    poisson = assemble_poisson(dev, build_mesh(dev))
    assert not poisson.disc.bands
    models = SimulationModels(stats=BB)
    cfg = TimeStepperConfig(dt_init=0.01, t_end=1.0)
    state = initial_state(dev, models, poisson=poisson)
    monkeypatch.setattr(spla, "spilu", counting)
    sweeps = 0
    for _ in range(3):
        factors.clear()
        state, report = gummel_step(poisson, models, state, 0.01, cfg)
        assert len(factors) <= 3
        assert report.balance_residual <= 1e-12
        sweeps += report.gummel_iterations
    assert sweeps > 3 * 2  # some step refined a later sweep's systems


def newton_directions_of_2d_run(monkeypatch):
    """Run the slowly ramped 2D junction over 4 steps from equilibrium and
    return, per Newton direction, the SuperLU factors and triangular
    solves its ``solve_linear`` call took."""
    dev = junction_2d(1.0)
    models = SimulationModels(stats=BB)
    poisson = assemble_poisson(dev, build_mesh(dev))
    state = initial_state(dev, models, poisson=poisson)
    factors, solves = [], []
    original_spilu = spla.spilu

    class CountingLU:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, b):
            solves.append(1)
            return self.lu.solve(b)

    def counting_spilu(*args, **kwargs):
        factors.append(1)
        return CountingLU(original_spilu(*args, **kwargs))

    directions = []
    original = nonlinear_poisson.solve_linear

    def recording(op, b, slot=None, **options):
        f, s = len(factors), len(solves)
        x = original(op, b, slot, **options)
        directions.append((len(factors) - f, len(solves) - s))
        return x

    monkeypatch.setattr(spla, "spilu", counting_spilu)
    monkeypatch.setattr(nonlinear_poisson, "solve_linear", recording)
    cfg = TimeStepperConfig(dt_init=0.01, t_end=0.04, growth=1.0)
    result = run(dev, models, cfg, initial=state)
    assert result.steps_accepted == 4
    assert result.steps_rejected == 0
    assert max(r.balance_residual for r in result.reports) <= 1e-12
    return directions


def test_2d_run_takes_one_jacobian_factor(monkeypatch):
    # the run holds one Jacobian slot for all its steps: the first Newton
    # direction factors, and every later step solves from that factor
    directions = newton_directions_of_2d_run(monkeypatch)
    assert len(directions) > 4
    assert sum(factors for factors, _ in directions) == 1


def test_2d_newton_direction_costs_one_triangular_solve(monkeypatch):
    # the held factor meets the forcing term on this run, so each direction
    # is accepted after its first triangular solve, with no refinement
    directions = newton_directions_of_2d_run(monkeypatch)
    assert [solves for _, solves in directions] == [1] * len(directions)


def test_run_builds_one_discretization(monkeypatch):
    # the per-mesh data are built once per run and reused by every step
    built = []
    original = Discretization.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Discretization, "__init__", counting)
    dev = biased_diode(cells=16)
    models = SimulationModels(stats=BB)
    cfg = TimeStepperConfig(dt_init=0.05, t_end=0.25, growth=1.0)
    result = run(dev, models, cfg)
    assert result.steps_accepted == 5
    assert len(built) == 1
    assert isinstance(result.disc, Discretization)
    assert result.disc.device is dev

    poisson = assemble_poisson(dev, build_mesh(dev))
    state = initial_state(dev, models, poisson=poisson)
    built.clear()
    gummel_step(poisson, models, state, 0.05, cfg)
    assert built == []


def test_write_outputs_builds_no_discretization(monkeypatch, tmp_path):
    # the series sink needs currents at every accepted state, the report
    # at the last one; all of them use the run's own Discretization
    dev = biased_diode(cells=16)
    models = SimulationModels(stats=BB)
    cfg = TimeStepperConfig(dt_init=0.05, t_end=0.25, growth=1.0)
    result = run(dev, models, cfg)
    assert result.steps_accepted == 5
    config = SimulationConfig(device=dev, stepper=cfg, output=(
        OutputSink("series", "series.csv"), OutputSink("report", "report.json")))
    built = []
    original = Discretization.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Discretization, "__init__", counting)
    paths = write_outputs(config, dev, build_mesh(dev), models, result,
                          directory=str(tmp_path))
    assert len(paths) == 2
    assert built == []
    rows = (tmp_path / "series.csv").read_text().splitlines()
    assert len(rows) == 1 + 5


def test_write_outputs_rejects_another_device_or_mesh(tmp_path):
    # the sinks read the result's own Discretization, so a device or mesh
    # unlike it is an error, not silently another run's outputs
    dev = biased_diode(cells=16)
    models = SimulationModels(stats=BB)
    cfg = TimeStepperConfig(dt_init=0.05, t_end=0.1)
    result = run(dev, models, cfg)
    config = SimulationConfig(device=dev, stepper=cfg, output=(
        OutputSink("report", "report.json"),))
    with pytest.raises(DomainError, match="device differs"):
        write_outputs(config, biased_diode(bias=0.2, cells=16),
                      build_mesh(dev), models, result,
                      directory=str(tmp_path))
    for other in (biased_diode(cells=32), insulated_box(cells=16),
                  *_same_shape_devices(dev)):
        with pytest.raises(DomainError, match="mesh differs"):
            write_outputs(config, dev, build_mesh(other), models, result,
                          directory=str(tmp_path))
    assert list(tmp_path.iterdir()) == []
