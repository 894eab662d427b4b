import numpy as np
import pytest

from driftsim import transient
from driftsim.config import OutputSink, SimulationConfig
from driftsim.device import (
    BoxDoping,
    Contact,
    DeviceSpec,
    DopingProfile,
    MaterialRegion,
    RobinSegment,
    build_mesh,
)
from driftsim.errors import DomainError
from driftsim.operators import Discretization, assemble_poisson
from driftsim.output import write_outputs
from driftsim.statistics import boltzmann
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


def insulated_box(cells=8):
    return DeviceSpec(
        dimension=1, extent=(1.0,), resolution=(cells,),
        regions=(MaterialRegion("bulk", ((0.0, 1.0),)),),
        robin=(RobinSegment("left", eps_gamma=1.0),
               RobinSegment("right", eps_gamma=1.0)))


def biased_diode(bias=0.1, cells=32):
    phi_n = float(np.arcsinh(0.5))
    ramp = ((0.0, 0.0), (0.5, bias))
    return DeviceSpec(
        dimension=1, extent=(2.0,), resolution=(cells,),
        regions=(MaterialRegion("bulk", ((0.0, 2.0),)),),
        contacts=(Contact(side="left", phi=-phi_n),
                  Contact(side="right", phi=phi_n, bias=ramp)),
        doping=DopingProfile(bulk=(BoxDoping(((0.0, 1.0),), -1.0),
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
])
def test_stepper_config_validation(kwargs):
    with pytest.raises(DomainError):
        TimeStepperConfig(**kwargs)


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
    # the ramp starts at zero, so t = 0 is fine; t = 0.5 is not
    models = SimulationModels(stats=BB)
    initial_state(dev, models, t=0.0)
    with pytest.raises(DomainError):
        initial_state(dev, models, t=0.5)


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
    currents = terminal_currents(dev, poisson.disc, models, state)
    assert set(currents) == {"left", "right"}
    assert abs(currents["left"]) <= 1e-10
    assert abs(currents["right"]) <= 1e-10


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
    new, report = gummel_step(dev, poisson, models, state, 0.05, cfg)
    assert new.t == pytest.approx(0.05)
    assert state.t == 0.0  # input state untouched
    assert report.gummel_iterations >= 1
    assert report.balance_residual <= 1e-12
    # the accepted state is the last sweep's image: two density solves per
    # sweep, and no further pass after the increment test
    assert len(solves) == 2 * report.gummel_iterations


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

    poisson = assemble_poisson(dev, build_mesh(dev))
    state = initial_state(dev, models, poisson=poisson)
    built.clear()
    gummel_step(dev, poisson, models, state, 0.05, cfg)
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
