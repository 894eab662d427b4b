import re
import textwrap
from pathlib import Path

import pytest

from driftsim import decks
from driftsim.config import (
    OutputSink,
    SimulationConfig,
    build_models,
    build_statistics,
    dump_config,
    load_config,
    parse_config,
)
from driftsim.errors import ConfigError

MINIMAL = textwrap.dedent("""
    device:
      dimension: 1
      extent: [2.0]
      resolution: [8]
      regions:
        - name: bulk
          bounds: [[0.0, 2.0]]
      contacts:
        - side: left
        - side: right
    stepper:
      dt_init: 0.1
      t_end: 1.0
    """)


def problems_of(text):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    return err.value.problems


def test_minimal_deck_parses():
    cfg = parse_config(MINIMAL)
    assert cfg.device.dimension == 1
    assert cfg.device.resolution == (8,)
    assert cfg.stepper.t_end == 1.0
    assert cfg.statistics == ("boltzmann", "boltzmann")
    assert cfg.recombination == ()


def test_unknown_key_names_candidates():
    text = MINIMAL.replace("      bounds:", "      mobilty: 2.0\n      bounds:")
    found = problems_of(text)
    hits = [p for p in found if "mobilty" in p]
    assert hits, found
    assert "unknown key" in hits[0]
    # the message points at the valid alternatives
    assert "mu1" in hits[0] or "did you mean" in hits[0]


def test_top_level_typo_gets_suggestion():
    found = problems_of("devise: {}\n")
    assert any("did you mean 'device'" in p for p in found)


def test_negative_capacity_rejected():
    text = MINIMAL.replace(
        "  contacts:\n    - side: left\n    - side: right",
        "  contacts:\n    - side: right\n"
        "  robin:\n    - side: left\n      eps_gamma: -3.0")
    found = problems_of(text)
    assert any("negative capacity" in p for p in found)


def test_syntax_error_is_a_config_error():
    found = problems_of(": : :")
    assert found[0].startswith("syntax:")


def test_empty_deck_rejected():
    assert problems_of("")


def test_missing_sections_reported_together():
    found = problems_of("seed: 3\n")
    assert any(p.startswith("device:") for p in found)
    assert any(p.startswith("stepper:") for p in found)


def test_all_problems_surface_at_once():
    text = MINIMAL.replace("dimension: 1", "dimension: 1\n  typo_key: 2") \
                  .replace("dt_init: 0.1", "dt_init: -0.1")
    found = problems_of(text)
    assert len(found) >= 2


@pytest.mark.parametrize("setting, named", [
    ("dt_max: -1.0", "dt_max"),
    ("dt_max: 0.0", "dt_max"),
    ("dt_max: 0.02", "dt_max"),  # below dt_init: 0.1
    ("poisson_tol: 0.0", "poisson_tol"),
])
def test_stepper_values_that_break_run_rejected(setting, named):
    found = problems_of(MINIMAL + f"  {setting}\n")
    hits = [p for p in found if p.startswith("stepper:") and named in p]
    assert hits, found


def test_readme_deck_examples_parse():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```yaml\n(.*?)```", readme.read_text(), re.DOTALL)
    assert blocks
    for block in blocks:
        parse_config(block)


def test_statistics_string_and_mapping_forms():
    cfg = parse_config(MINIMAL + "statistics: fermi_dirac_half\n")
    assert cfg.statistics == ("fermi_dirac_half", "fermi_dirac_half")
    cfg = parse_config(MINIMAL + textwrap.dedent("""
        statistics:
          carrier1: boltzmann
          carrier2: fermi_dirac_half
        """))
    assert cfg.statistics == ("boltzmann", "fermi_dirac_half")


def test_unknown_statistics_rejected():
    found = problems_of(MINIMAL + "statistics: maxwellian\n")
    assert any("statistics" in p for p in found)


def test_recombination_model_parsing():
    cfg = parse_config(MINIMAL + textwrap.dedent("""
        recombination:
          - type: shockley_read_hall
            tau1: 2.0
          - type: avalanche
            c1: 10.0
            a1: 0.5
        """))
    assert len(cfg.recombination) == 2
    assert cfg.recombination[0].tau1 == 2.0
    assert cfg.recombination[1].c1 == 10.0


def test_model_domain_errors_become_problems():
    found = problems_of(MINIMAL + textwrap.dedent("""
        recombination:
          - type: shockley_read_hall
            tau1: -2.0
        """))
    assert any("recombination" in p for p in found)


def test_unknown_model_type_suggested():
    found = problems_of(MINIMAL + textwrap.dedent("""
        recombination:
          - type: shockley_reed_hall
        """))
    assert any("shockley_read_hall" in p for p in found)


def test_probe_sink_requires_position():
    found = problems_of(MINIMAL + textwrap.dedent("""
        output:
          - kind: probe
            path: probe.csv
        """))
    assert any("position" in p for p in found)
    cfg = parse_config(MINIMAL + textwrap.dedent("""
        output:
          - kind: probe
            path: probe.csv
            position: [1.0]
        """))
    assert cfg.output == (OutputSink("probe", "probe.csv", (1.0,)),)


def test_snapshot_sink_rejects_position():
    found = problems_of(MINIMAL + textwrap.dedent("""
        output:
          - kind: snapshot
            path: s.csv
            position: [1.0]
        """))
    assert any("position" in p for p in found)


def test_device_violations_are_prefixed():
    text = MINIMAL.replace("bounds: [[0.0, 2.0]]", "bounds: [[0.0, 1.0]]")
    found = problems_of(text)
    assert any(p.startswith("device:") for p in found)


# -- round trip -----------------------------------------------------------

@pytest.mark.parametrize("name", sorted(decks.all_decks()))
def test_round_trip_every_shipped_deck(name):
    cfg = decks.all_decks()[name]
    text = dump_config(cfg)
    assert parse_config(text) == cfg


def test_dump_is_idempotent():
    cfg = decks.diode()
    once = dump_config(cfg)
    twice = dump_config(parse_config(once))
    assert once == twice


def test_round_trip_of_minimal_deck():
    cfg = parse_config(MINIMAL)
    assert parse_config(dump_config(cfg)) == cfg


def test_load_config_reads_files(tmp_path):
    path = tmp_path / "deck.yaml"
    path.write_text(MINIMAL)
    assert load_config(path) == parse_config(MINIMAL)


# -- model building -------------------------------------------------------

def test_build_statistics_names():
    assert build_statistics("boltzmann").kind == "boltzmann"
    assert build_statistics("fermi_dirac_half").kind == "fermi_dirac_half"


def test_build_models_splits_bulk_and_surface():
    cfg = decks.two_layer()
    models = build_models(cfg)
    assert models.stats[0].kind == "boltzmann"
    assert all(type(m).__name__ != "SurfaceSRH" for m in models.bulk)


def test_simulation_config_is_frozen():
    cfg = parse_config(MINIMAL)
    with pytest.raises(AttributeError):
        cfg.seed = 5


def test_seed_parsed():
    cfg = parse_config(MINIMAL + "seed: 42\n")
    assert cfg.seed == 42
