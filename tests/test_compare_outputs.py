import importlib.util
import io
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"
spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
compare_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_outputs)


def _write_outputs(root: Path, current: float) -> Path:
    root.mkdir()
    (root / "series.csv").write_text(
        "t,iterations,current\n"
        f"0.5,7,{current!r}\n"
        "1.0,6,-2.5\n", encoding="utf-8")
    (root / "report.json").write_text(json.dumps({
        "completed": True, "t_final": 1.0,
        "terminal_currents": {"left": -current, "right": current},
        "blowup": None}), encoding="utf-8")
    return root


def _run(a, b, rtol):
    out = io.StringIO()
    passed = compare_outputs.compare(a, b, rtol, out=out)
    return passed, out.getvalue()


def test_identical_directories_pass(tmp_path):
    a = _write_outputs(tmp_path / "a", 1.25)
    b = _write_outputs(tmp_path / "b", 1.25)
    passed, report = _run(a, b, 1e-13)
    assert passed
    assert report.count("ok") == 2


def test_perturbation_past_rtol_fails(tmp_path):
    a = _write_outputs(tmp_path / "a", 1.25)
    b = _write_outputs(tmp_path / "b", 1.25 * (1.0 + 1e-10))
    passed, report = _run(a, b, 1e-13)
    assert not passed
    assert report.count("FAIL") == 2
    assert compare_outputs.main([str(a), str(b), "--rtol", "1e-13"]) == 1
    assert compare_outputs.main([str(a), str(b), "--rtol", "1e-9"]) == 0


@pytest.mark.parametrize("change", ["text", "rows", "missing"])
def test_structure_must_match(tmp_path, change):
    a = _write_outputs(tmp_path / "a", 1.25)
    b = _write_outputs(tmp_path / "b", 1.25)
    series = b / "series.csv"
    if change == "text":
        series.write_text(series.read_text().replace("current", "flow"))
    elif change == "rows":
        series.write_text(series.read_text() + "1.5,6,-2.5\n")
    else:
        series.unlink()
    passed, report = _run(a, b, 1.0)
    assert not passed
    assert "FAIL series.csv" in report
