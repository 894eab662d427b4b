import numpy as np

from driftsim import output
from driftsim.device import DeviceSpec, MaterialRegion, build_mesh
from driftsim.output import format_float, write_csv
from driftsim.transient import CarrierState


def per_cell_csv(header, rows):
    """The CSV text as one ``format_float`` call per numeric cell writes it."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            cell if isinstance(cell, str) else format_float(cell)
            for cell in row))
    return "\n".join(lines) + "\n"


def test_write_csv_matches_the_per_cell_format(tmp_path):
    header = ["a", "b", "c", "status"]
    rows = [[-0.0, 5e-324, 1.7e308, "ok"],
            [-1.5, np.float64(-2.2250738585072014e-308), 3, "error: x, y"],
            [np.float64(0.1), -1e-300, -np.inf, "blow-up"],
            [np.nan, True, -7.25e-5, ""]]
    write_csv(tmp_path / "t.csv", header, rows)
    assert (tmp_path / "t.csv").read_bytes() \
        == per_cell_csv(header, rows).encode()
    write_csv(tmp_path / "empty.csv", header, [])
    assert (tmp_path / "empty.csv").read_bytes() == b"a,b,c,status\n"


def test_snapshot_matches_the_per_cell_format(tmp_path):
    mesh = build_mesh(DeviceSpec(
        dimension=2, extent=(3.0, 2.0), resolution=(6, 5),
        regions=(MaterialRegion("bulk", ((0.0, 3.0), (0.0, 2.0))),)))
    n = mesh.n_cells
    rng = np.random.default_rng(2)
    u = rng.uniform(0.0, 1.0, (2, n)) * 10.0 ** rng.integers(-300, 300, (2, n))
    state = CarrierState(t=0.5, phi=rng.normal(size=n),
                         Phi=np.vstack([-np.zeros(n), rng.normal(size=n)]),
                         u=u)
    output._write_snapshot(tmp_path / "s.csv", mesh, state)
    rows = [output._field_row(mesh, state, c) for c in range(n)]
    assert (tmp_path / "s.csv").read_bytes() \
        == per_cell_csv(output._field_header(2), rows).encode()
