import filecmp
import json
import pathlib
import sys

import pytest
import yaml

from driftsim import device
from driftsim.cli import main
from driftsim.operators import Discretization

DECKS = pathlib.Path(__file__).resolve().parent.parent / "decks"


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def builds(monkeypatch):
    """Counts of the Discretization and mesh builds made during a test."""
    counts = {"disc": 0, "mesh": 0}
    init, build_mesh = Discretization.__init__, device.build_mesh

    def counting_init(self, *args, **kwargs):
        counts["disc"] += 1
        init(self, *args, **kwargs)

    def counting_build_mesh(*args, **kwargs):
        counts["mesh"] += 1
        return build_mesh(*args, **kwargs)

    monkeypatch.setattr(Discretization, "__init__", counting_init)
    # every module that bound build_mesh by name holds its own reference
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "driftsim" \
                and getattr(module, "build_mesh", None) is build_mesh:
            monkeypatch.setattr(module, "build_mesh", counting_build_mesh)
    return counts


# -- run ------------------------------------------------------------------

SRH_SINKS = ("srh_two_cell_series.csv", "srh_two_cell_final.csv",
             "srh_two_cell_report.json")


def test_run_completes_and_writes_sinks(tmp_path):
    out = tmp_path / "run"
    code = run_cli("run", str(DECKS / "srh_two_cell.yaml"), "--outdir", str(out))
    assert code == 0
    names = {p.name for p in out.iterdir()}
    assert names == set(SRH_SINKS)
    report = json.loads((out / "srh_two_cell_report.json").read_text())
    assert report["completed"] is True
    assert report["steps_accepted"] == 1
    assert report["blowup"] is None


def test_run_builds_mesh_and_discretization_once(tmp_path, builds):
    # the run's Discretization serves the steps, the currents and every sink
    code = run_cli("run", str(DECKS / "srh_two_cell.yaml"), "--outdir",
                   str(tmp_path))
    assert code == 0
    assert builds == {"disc": 1, "mesh": 1}


def test_run_is_bit_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("run", str(DECKS / "srh_two_cell.yaml"), "--outdir", str(a)) == 0
    assert run_cli("run", str(DECKS / "srh_two_cell.yaml"), "--outdir", str(b)) == 0
    for name in SRH_SINKS:
        assert filecmp.cmp(a / name, b / name, shallow=False)


def test_run_missing_deck_exits_1(tmp_path, capsys):
    code = run_cli("run", str(tmp_path / "nope.yaml"))
    assert code == 1
    assert "error" in capsys.readouterr().err


def _set(path, value):
    def edit(tree):
        node = tree
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return edit


# one malformed record per kind, each in the shipped 1D diode deck
MALFORMED = {
    "region_coefficient_length": _set(("device", "regions", 0, "eps"),
                                      [1.0, 2.0]),
    "region": _set(("device", "regions", 0, "mobilty"), 2.0),
    "contact": _set(("device", "contacts", 0, "side"), None),
    "robin": _set(("device", "robin"), [{"side": "left"}]),
    "surface": _set(("device", "surfaces"),
                    [{"side": "left", "model": {"type": "bogus"}}]),
    "interface": _set(("device", "interfaces"),
                      [{"axis": "x", "position": 10.0}]),
    "box": _set(("device", "doping", "boxes", 0, "value"), "high"),
    "sheet": _set(("device", "doping", "sheets"), [{"position": 5.0}]),
    "sink": _set(("output",), [{"kind": "probe", "path": "p.csv",
                                "position": [1.0, 2.0]}]),
    "stepper": _set(("stepper", "t_end"), float("nan")),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_run_malformed_record_reports_errors_only(name, tmp_path, capsys):
    tree = yaml.safe_load((DECKS / "diode.yaml").read_text())
    MALFORMED[name](tree)
    deck = tmp_path / "deck.yaml"
    deck.write_text(yaml.safe_dump(tree, sort_keys=False))
    code = run_cli("run", str(deck), "--outdir", str(tmp_path / "out"))
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines
    assert all(line.startswith("error:") for line in lines), lines
    if name == "region_coefficient_length":
        assert any("'bulk'" in line and "eps" in line for line in lines)


def test_run_broken_deck_exits_1_before_time_zero(tmp_path, capsys):
    deck = tmp_path / "broken.yaml"
    deck.write_text((DECKS / "insulated.yaml").read_text()
                    .replace("eps_gamma: 1.0", "eps_gamma: -1.0", 1))
    out = tmp_path / "out"
    code = run_cli("run", str(deck), "--outdir", str(out))
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert "negative capacity" in err
    assert not out.exists() or not any(out.iterdir())


def test_run_blowup_exits_3_with_report(tmp_path, capsys):
    out = tmp_path / "blow"
    code = run_cli("run", str(DECKS / "avalanche_runaway.yaml"),
                   "--outdir", str(out))
    assert code == 3
    assert "blow-up" in capsys.readouterr().err
    report = json.loads((out / "avalanche_report.json").read_text())
    assert report["completed"] is False
    assert report["blowup"]["threshold"] == 40.0
    proxies = report["blowup"]["proxies"]
    tail = proxies[-3:]
    assert all(b > a for a, b in zip(tail, tail[1:]))
    assert tail[-1] > 40.0


def test_blowup_report_written_even_without_sink(tmp_path, capsys, builds):
    # exit 3 always comes with a report file; a deck that declares no
    # report sink gets one named after itself
    text = (DECKS / "avalanche_runaway.yaml").read_text()
    text = text.replace("- {kind: report, path: avalanche_report.json}\n", "")
    deck = tmp_path / "runaway.yaml"
    deck.write_text(text)
    out = tmp_path / "out"
    code = run_cli("run", str(deck), "--outdir", str(out))
    assert code == 3
    capsys.readouterr()
    report = json.loads((out / "runaway_report.json").read_text())
    assert report["blowup"] is not None
    assert builds == {"disc": 1, "mesh": 1}


def test_run_makes_missing_sink_directories(tmp_path, capsys):
    # a sink in a directory that does not exist yet must not lose the
    # blow-up report after the whole run
    text = (DECKS / "avalanche_runaway.yaml").read_text()
    text = text.replace("path: avalanche_report.json",
                        "path: nested/deeper/avalanche_report.json")
    deck = tmp_path / "runaway.yaml"
    deck.write_text(text)
    out = tmp_path / "out"
    code = run_cli("run", str(deck), "--outdir", str(out))
    assert code == 3
    assert "blow-up" in capsys.readouterr().err
    report = json.loads(
        (out / "nested" / "deeper" / "avalanche_report.json").read_text())
    assert report["blowup"] is not None
    assert (out / "avalanche_series.csv").exists()


def test_run_unwritable_sink_exits_1(tmp_path, capsys):
    text = (DECKS / "srh_two_cell.yaml").read_text()
    text = text.replace("path: srh_two_cell_report.json",
                        "path: blocker/srh_two_cell_report.json")
    deck = tmp_path / "srh.yaml"
    deck.write_text(text)
    out = tmp_path / "out"
    out.mkdir()
    (out / "blocker").write_text("a file, not a directory\n")
    code = run_cli("run", str(deck), "--outdir", str(out))
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines
    assert all(line.startswith("error:") for line in lines), lines


# -- sweep ----------------------------------------------------------------

def test_sweep_empty_values_header_only(tmp_path, capsys):
    code = run_cli("sweep", str(DECKS / "diode.yaml"),
                   "--param", "device.contacts[1].bias[1][1]",
                   "--values")
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["value,current_left,current_right,wall_time,iterations,status"]


def test_sweep_forward_bias_currents_monotone(tmp_path):
    out = tmp_path / "iv.csv"
    code = run_cli("sweep", str(DECKS / "diode.yaml"),
                   "--param", "device.contacts[1].bias[1][1]",
                   "--values=0,0.05,0.1,0.2,0.3",
                   "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 6
    rows = [line.split(",") for line in lines[1:]]
    assert all(r[-1] == "ok" for r in rows)
    # rows come back in input order
    assert [float(r[0]) for r in rows] == [0.0, 0.05, 0.1, 0.2, 0.3]
    # equilibrium point carries no current
    assert abs(float(rows[0][2])) <= 1e-10
    current_right = [float(r[2]) for r in rows]
    assert all(b > a for a, b in zip(current_right, current_right[1:]))


def test_sweep_builds_mesh_and_discretization_once_per_point(tmp_path, builds):
    out = tmp_path / "sweep.csv"
    code = run_cli("sweep", str(DECKS / "srh_two_cell.yaml"),
                   "--param", "device.contacts[1].bias[1][1]",
                   "--values=0.03,0.05", "--out", str(out))
    assert code == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    assert [r[-1] for r in rows] == ["ok", "ok"]
    assert builds == {"disc": 2, "mesh": 2}


def test_sweep_records_per_point_failure_and_continues(tmp_path):
    out = tmp_path / "sweep.csv"
    # replacing the whole bias series with a nonzero constant makes the
    # t = 0 equilibrium impossible for that point only
    code = run_cli("sweep", str(DECKS / "srh_two_cell.yaml"),
                   "--param", "device.contacts[1].bias",
                   "--values=0,0.05",
                   "--out", str(out))
    assert code == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    assert rows[0][-1] == "ok"
    assert rows[1][-1].startswith("error:")
    assert rows[1][1] == "nan"


def test_sweep_bad_path_exits_1(capsys):
    code = run_cli("sweep", str(DECKS / "srh_two_cell.yaml"),
                   "--param", "device.contcts[1].bias",
                   "--values=0")
    assert code == 1
    assert "error" in capsys.readouterr().err


# -- verify ---------------------------------------------------------------

def test_verify_single_suite_passes(capsys):
    code = run_cli("verify", "poisson-flat", "--seed", "3")
    assert code == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.startswith("PASS")]
    assert lines
    for line in lines:
        assert "measured=" in line and "bound=" in line


def test_verify_output_is_deterministic(capsys):
    run_cli("verify", "kappa-lipschitz", "--seed", "0")
    first = capsys.readouterr().out
    run_cli("verify", "kappa-lipschitz", "--seed", "0")
    second = capsys.readouterr().out
    assert first == second


def test_verify_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", "no-such-suite")
    assert exc.value.code == 2
    assert "no-such-suite" in capsys.readouterr().err


def test_no_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli()
    assert exc.value.code == 2
