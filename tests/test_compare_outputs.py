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


REPORT = (
    "PASS statistics/at-zero measured=1.00000000000000000e-16 bound=<=1e-05\n"
    "PASS mms/order measured=1.99879496129550960e+00 bound=[1.8,2.2]\n"
    "2/2 properties passed\n")


MAY_MOVE = ("statistics/at-zero", "mms/order")


def _verify(tmp_path, head, rtol=1e-4, may_move=MAY_MOVE):
    a, b = tmp_path / "base.txt", tmp_path / "head.txt"
    a.write_text(REPORT, encoding="utf-8")
    b.write_text(head, encoding="utf-8")
    out = io.StringIO()
    return (compare_outputs.compare_verify(a, b, rtol, may_move, out=out),
            out.getvalue())


def test_verify_reports_within_rtol_of_value_or_bound_pass(tmp_path):
    # the first value may move by R times its bound, the second by R
    # times itself; only the moved ones are listed
    head = REPORT.replace("1.00000000000000000e-16", "0.0") \
        .replace("1.99879496129550960e+00", "1.99889496129550960e+00")
    passed, report = _verify(tmp_path, head)
    assert passed, report
    assert report.count("ok") == 2
    assert _verify(tmp_path, REPORT)[1] == ""
    assert compare_outputs.main(["--verify", str(tmp_path / "base.txt"),
                                 str(tmp_path / "head.txt"), "--rtol",
                                 "1e-4", "--may-move", "statistics/at-zero",
                                 "--may-move", "mms/order"]) == 0


def test_verify_values_not_named_must_match_exactly(tmp_path):
    # a value moves only when its property is named, however small the move
    head = REPORT.replace("1.99879496129550960e+00", "1.99879496129550982e+00")
    assert _verify(tmp_path, head)[0]
    passed, report = _verify(tmp_path, head, may_move=("statistics/at-zero",))
    assert not passed
    assert "FAIL mms/order" in report
    assert compare_outputs.main(["--verify", str(tmp_path / "base.txt"),
                                 str(tmp_path / "head.txt"), "--rtol",
                                 "1e-4"]) == 1


def test_verify_may_move_names_must_exist(tmp_path):
    passed, report = _verify(tmp_path, REPORT,
                             may_move=MAY_MOVE + ("mms/rate",))
    assert not passed
    assert "FAIL mms/rate: no such property" in report


@pytest.mark.parametrize("old,new", [
    ("1.99879496129550960e+00", "1.99929496129550960e+00"),  # past R
    ("PASS mms", "FAIL mms"),                                 # verdict
    ("[1.8,2.2]", "[1.8,2.3]"),                               # bound
    ("mms/order", "mms/rate"),                                # name
    ("2/2 properties", "1/2 properties"),                     # summary
], ids=["value", "verdict", "bound", "name", "summary"])
def test_verify_reports_must_match_but_for_measured_values(tmp_path, old,
                                                           new):
    passed, report = _verify(tmp_path, REPORT.replace(old, new))
    assert not passed
    assert "FAIL" in report


def test_verify_report_with_a_missing_property_fails(tmp_path):
    passed, _ = _verify(tmp_path, "".join(REPORT.splitlines(True)[1:]))
    assert not passed
