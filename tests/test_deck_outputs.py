import filecmp
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "deck_outputs.py"
spec = importlib.util.spec_from_file_location("deck_outputs", TOOL)
deck_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(deck_outputs)


def test_deck_list_covers_shipped_and_perfbench_decks():
    decks = deck_outputs.deck_paths()
    assert "decks/srh_two_cell.yaml" in decks
    assert "perfbench/decks/pn_junction_2d.yaml" in decks
    assert "perfbench/decks/diode.yaml" not in decks


def test_one_deck_twice_is_byte_identical(tmp_path):
    deck = "decks/srh_two_cell.yaml"
    first = deck_outputs.run_deck(deck, tmp_path / "a")
    second = deck_outputs.run_deck(deck, tmp_path / "b")
    assert first == tmp_path / "a" / "decks" / "srh_two_cell"
    assert (first / "exit_code.txt").read_text() == "0\n"
    assert (first / "stderr.txt").read_text() == ""
    names = sorted(p.name for p in first.iterdir())
    assert names == ["exit_code.txt", "srh_two_cell_final.csv",
                     "srh_two_cell_report.json", "srh_two_cell_series.csv",
                     "stderr.txt", "stdout.txt"]
    match, mismatch, errors = filecmp.cmpfiles(first, second, names,
                                               shallow=False)
    assert (mismatch, errors) == ([], [])
