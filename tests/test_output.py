import numpy as np
import pytest

from driftsim import output
from driftsim.device import Contact, DeviceSpec, MaterialRegion, build_mesh
from driftsim.output import format_float, write_csv
from driftsim.statistics import boltzmann
from driftsim.transient import (CarrierState, SimulationModels,
                                TimeStepperConfig, run, terminal_currents)


def per_cell_csv(header, rows):
    """The CSV text as one ``format_float`` call per cell writes it."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_float(cell) for cell in row))
    return "\n".join(lines) + "\n"


def field_row(mesh, state, cell):
    return [*mesh.cell_centers[cell], state.phi[cell], *state.Phi[:, cell],
            *state.u[:, cell]]


def test_write_csv_matches_the_per_cell_format(tmp_path):
    header = ["a", "b", "c"]
    rows = [[-0.0, 5e-324, 1.7e308],
            [-1.5, np.float64(-2.2250738585072014e-308), 3],
            [np.float64(0.1), -1e-300, -np.inf],
            [np.nan, True, -7.25e-5]]
    write_csv(tmp_path / "t.csv", header, rows)
    assert (tmp_path / "t.csv").read_bytes() \
        == per_cell_csv(header, rows).encode()
    write_csv(tmp_path / "empty.csv", header, [])
    assert (tmp_path / "empty.csv").read_bytes() == b"a,b,c\n"


def test_snapshot_matches_the_per_cell_format(tmp_path):
    mesh = build_mesh(DeviceSpec(
        dimension=2, extent=(3.0, 2.0), resolution=(6, 5),
        regions=(MaterialRegion("bulk", ((0.0, 3.0), (0.0, 2.0))),),
        contacts=(Contact(side="left"),)))
    n = mesh.n_cells
    rng = np.random.default_rng(2)
    u = rng.uniform(0.0, 1.0, (2, n)) * 10.0 ** rng.integers(-300, 300, (2, n))
    state = CarrierState(t=0.5, phi=rng.normal(size=n),
                         Phi=np.vstack([-np.zeros(n), rng.normal(size=n)]),
                         u=u)
    output._write_snapshot(tmp_path / "s.csv", mesh, state)
    rows = [field_row(mesh, state, c) for c in range(n)]
    assert (tmp_path / "s.csv").read_bytes() \
        == per_cell_csv(output._field_header(2), rows).encode()


@pytest.fixture(scope="module")
def shared_side_run():
    """A short 2D run whose two top contacts share their side."""
    device = DeviceSpec(
        dimension=2, extent=(4.0, 2.0), resolution=(4, 2),
        regions=(MaterialRegion("bulk", ((0.0, 4.0), (0.0, 2.0))),),
        contacts=(Contact(side="top", span=(0.0, 1.0),
                          bias=((0.0, 0.0), (0.1, 0.3))),
                  Contact(side="bottom"),
                  Contact(side="top", span=(3.0, 4.0),
                          bias=((0.0, 0.0), (0.1, -0.2)))))
    models = SimulationModels(stats=(boltzmann(), boltzmann()))
    result = run(device, models, TimeStepperConfig(dt_init=0.05, t_end=0.1))
    return device, models, result


def test_series_matches_the_per_cell_format(tmp_path, shared_side_run):
    device, models, result = shared_side_run
    output._write_series(tmp_path / "series.csv", device, models, result)
    header = ["t", "dt", "iterations", "balance", "proxy", "current_top_1",
              "current_bottom", "current_top_2"]
    rows = []
    for state, report in zip(result.states[1:], result.reports):
        flow = terminal_currents(device, result.disc, models, state)
        rows.append([report.t, report.dt, report.gummel_iterations,
                     report.balance_residual, report.proxy,
                     flow["top_1"], flow["bottom"], flow["top_2"]])
    assert len(rows) == 2
    assert (tmp_path / "series.csv").read_bytes() \
        == per_cell_csv(header, rows).encode()


def test_probe_matches_the_per_cell_format(tmp_path, shared_side_run):
    _, _, result = shared_side_run
    mesh = result.disc.mesh
    output._write_probe(tmp_path / "probe.csv", mesh, result, (2.4, 0.6))
    cell = 2  # the cell centred at (2.5, 0.5)
    rows = [[state.t] + field_row(mesh, state, cell)
            for state in result.states]
    assert (tmp_path / "probe.csv").read_bytes() \
        == per_cell_csv(["t"] + output._field_header(2), rows).encode()
