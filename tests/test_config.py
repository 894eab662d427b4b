import re
import textwrap
from pathlib import Path

import pytest
import yaml

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
from driftsim.device import (
    TAG_DIRICHLET,
    TAG_INTERIOR,
    TAG_NEUMANN,
    TAG_ROBIN,
    build_mesh,
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
    ("t_end: .nan", "t_end"),
    ("t_end: .inf", "t_end"),
    ("gummel_tol: .nan", "gummel_tol"),
    ("gummel_tol: .inf", "gummel_tol"),
    ("poisson_tol: .inf", "poisson_tol"),
    ("growth: .nan", "growth"),
    ("blowup_threshold: .nan", "blowup_threshold"),
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


def test_unhashable_model_type_is_a_problem():
    found = problems_of(MINIMAL + "recombination:\n  - {type: [1]}\n")
    assert any(p.startswith("recombination[0].type: required") for p in found)


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


@pytest.mark.parametrize("position", ["[1.0]", "[]"])
def test_probe_position_needs_one_coordinate_per_axis_2d(position):
    text = FULL_2D.replace("position: [1.0, 0.5]", f"position: {position}")
    found = problems_of(text)
    assert "output[2].position: expected 2 coordinates" in found, found


def test_probe_position_extra_coordinate_rejected_1d():
    found = problems_of(MINIMAL + textwrap.dedent("""
        output:
          - kind: probe
            path: probe.csv
            position: [1.0, 2.0]
        """))
    assert "output[0].position: expected 1 coordinates" in found, found


def test_per_axis_coefficient_of_wrong_length_is_a_problem():
    text = MINIMAL.replace("bounds: [[0.0, 2.0]]",
                           "bounds: [[0.0, 2.0]]\n      eps: [1.0, 2.0]")
    found = problems_of(text)
    assert any("'bulk'" in p and "eps" in p and "expected 1" in p
               for p in found), found


def test_device_violations_are_prefixed():
    text = MINIMAL.replace("bounds: [[0.0, 2.0]]", "bounds: [[0.0, 1.0]]")
    found = problems_of(text)
    assert any(p.startswith("device:") for p in found)


# -- every record kind ----------------------------------------------------

# a 2D deck with every record kind and every optional field; the first
# interface and the first sheet leave out their axis
FULL_2D = textwrap.dedent("""
    device:
      dimension: 2
      extent: [4.0, 2.0]
      resolution: [8, 4]
      regions:
        - name: left
          bounds: [[0.0, 2.0], [0.0, 2.0]]
          eps: [1.0, 2.0]
          mu1: 0.5
          mu2: [1.0, 1.5]
        - name: right
          bounds: [[2.0, 4.0], [0.0, 2.0]]
      contacts:
        - side: left
          phi: [[0.0, -0.5], [1.0, -0.25]]
          Phi1: 0.1
          Phi2: -0.1
          bias: 0.05
          span: [0.0, 1.0]
        - side: right
      robin:
        - side: left
          eps_gamma: 0.5
          phi_gamma: [[0.0, 0.0], [2.0, 0.3]]
          span: [1.0, 2.0]
      surfaces:
        - side: bottom
          model: {type: surface_srh, v1: 0.5, v2: 0.25}
          span: [0.0, 2.0]
        - side: top
      interfaces:
        - position: 2.0
          model: {type: surface_srh, ni: 2.0}
        - axis: 1
          position: 1.0
          span: [0.0, 2.0]
      doping:
        boxes:
          - bounds: [[0.0, 2.0], [0.0, 2.0]]
            value: -1.0
        sheets:
          - position: 1.0
            density: 0.25
          - axis: 1
            position: 0.5
            density: -0.25
    statistics: {carrier1: boltzmann, carrier2: fermi_dirac_half}
    flux_scheme: scharfetter_gummel_enhanced
    recombination:
      - {type: auger, c1: 2.0}
    stepper:
      dt_init: 0.01
      t_end: 0.5
      dt_min: 1.0e-9
      dt_max: 0.1
      growth: 1.5
      shrink: 0.25
      gummel_tol: 1.0e-9
      gummel_max_iter: 30
      poisson_tol: 1.0e-11
      blowup_threshold: 1.0e+4
      blowup_window: 4
    output:
      - {kind: snapshot, path: full_final.csv}
      - {kind: series, path: full_series.csv}
      - {kind: probe, path: full_probe.csv, position: [1.0, 0.5]}
      - {kind: report, path: full_report.json}
    seed: 7
    """)


def test_every_record_kind_round_trips_2d():
    cfg = parse_config(FULL_2D)
    device = cfg.device
    assert [i.axis for i in device.interfaces] == [0, 1]
    assert [s.axis for s in device.doping.sheets] == [0, 1]
    assert device.regions[0].eps == (1.0, 2.0)
    assert device.contacts[0].phi == ((0.0, -0.5), (1.0, -0.25))
    assert device.contacts[0].span == (0.0, 1.0)
    assert device.surfaces[0].model.v2 == 0.25
    assert device.surfaces[1].model is None
    assert device.interfaces[1].span == (0.0, 2.0)
    assert cfg.stepper.blowup_window == 4
    assert cfg.output[2] == OutputSink("probe", "full_probe.csv", (1.0, 0.5))
    text = dump_config(cfg)
    assert parse_config(text) == cfg
    assert dump_config(parse_config(text)) == text
    # the dump writes the axes the deck left out
    tree = yaml.safe_load(text)["device"]
    assert tree["interfaces"][0]["axis"] == 0
    assert tree["doping"]["sheets"][0]["axis"] == 0


def test_full_2d_mesh_geometry_is_pinned():
    # no shipped deck has a 2D span, a Robin segment, a surface or an
    # interface, so this deck alone pins where their faces land.  Faces
    # number the 4 rows of 9 x-normal faces, then the 5 rows of 8 y-normal
    # faces, x fastest; cells number the 4 rows of 8, x fastest.
    mesh = build_mesh(parse_config(FULL_2D).device)
    I, D, R, N = TAG_INTERIOR, TAG_DIRICHLET, TAG_ROBIN, TAG_NEUMANN
    assert mesh.face_tag.tolist() == [
        D, I, I, I, I, I, I, I, D,
        D, I, I, I, I, I, I, I, D,
        R, I, I, I, I, I, I, I, D,
        R, I, I, I, I, I, I, I, D,
        N, N, N, N, N, N, N, N,
        I, I, I, I, I, I, I, I,
        I, I, I, I, I, I, I, I,
        I, I, I, I, I, I, I, I,
        N, N, N, N, N, N, N, N]
    assert mesh.face_contact.tolist() == [
        0, -1, -1, -1, -1, -1, -1, -1, 1,
        0, -1, -1, -1, -1, -1, -1, -1, 1,
        -1, -1, -1, -1, -1, -1, -1, -1, 1,
        -1, -1, -1, -1, -1, -1, -1, -1, 1] + [-1] * 40
    assert mesh.face_cells[:, 0].tolist() == [
        -1, 0, 1, 2, 3, 4, 5, 6, 7,
        -1, 8, 9, 10, 11, 12, 13, 14, 15,
        -1, 16, 17, 18, 19, 20, 21, 22, 23,
        -1, 24, 25, 26, 27, 28, 29, 30, 31,
        -1, -1, -1, -1, -1, -1, -1, -1,
        0, 1, 2, 3, 4, 5, 6, 7,
        8, 9, 10, 11, 12, 13, 14, 15,
        16, 17, 18, 19, 20, 21, 22, 23,
        24, 25, 26, 27, 28, 29, 30, 31]
    assert mesh.face_cells[:, 1].tolist() == [
        0, 1, 2, 3, 4, 5, 6, 7, -1,
        8, 9, 10, 11, 12, 13, 14, 15, -1,
        16, 17, 18, 19, 20, 21, 22, 23, -1,
        24, 25, 26, 27, 28, 29, 30, 31, -1,
        0, 1, 2, 3, 4, 5, 6, 7,
        8, 9, 10, 11, 12, 13, 14, 15,
        16, 17, 18, 19, 20, 21, 22, 23,
        24, 25, 26, 27, 28, 29, 30, 31,
        -1, -1, -1, -1, -1, -1, -1, -1]

    def lists(faces):
        return [f.tolist() for f in faces]

    assert lists(mesh.dirichlet_faces) == [[0, 9], [8, 17, 26, 35]]
    assert lists(mesh.robin_faces) == [[18, 27]]
    assert lists(mesh.surface_faces) == [[36, 37, 38, 39], list(range(68, 76))]
    assert lists(mesh.interface_faces) == [[4, 13, 22, 31], [52, 53, 54, 55]]
    assert lists(mesh.sheet_faces) == [[2, 11, 20, 29], list(range(44, 52))]


# (record, path of the record in FULL_2D, a required field, a field and a
# value of the wrong type for it)
RECORD_CASES = [
    ("region", ("device", "regions", 0), "name", "eps", "soft"),
    ("contact", ("device", "contacts", 0), "side", "phi", "high"),
    ("robin", ("device", "robin", 0), "eps_gamma", "span", [1.0]),
    ("surface", ("device", "surfaces", 0), "side", "model", 3),
    ("interface", ("device", "interfaces", 1), "position", "axis", "y"),
    ("box", ("device", "doping", "boxes", 0), "value", "bounds",
     [[0.0, 2.0]]),
    ("sheet", ("device", "doping", "sheets", 0), "density", "position",
     "middle"),
    ("sink", ("output", 0), "path", "kind", 7),
    ("stepper", ("stepper",), "dt_init", "gummel_max_iter", 4.5),
]


def _dotted(keys) -> str:
    out = ""
    for key in keys:
        out += f"[{key}]" if isinstance(key, int) else f".{key}"
    return out.lstrip(".")


def _problems_with(keys, edit):
    tree = yaml.safe_load(FULL_2D)
    record = tree
    for key in keys:
        record = record[key]
    edit(record)
    return problems_of(yaml.safe_dump(tree, sort_keys=False))


@pytest.mark.parametrize("name, keys, required, typed, bad",
                         RECORD_CASES, ids=[c[0] for c in RECORD_CASES])
def test_record_problems_carry_their_dotted_path(name, keys, required,
                                                 typed, bad):
    path = _dotted(keys)
    found = _problems_with(keys, lambda r: r.update(bogus=1.0))
    assert any(p.startswith(f"{path}.bogus: unknown key") for p in found), \
        found
    found = _problems_with(keys, lambda r: r.pop(required))
    assert f"{path}.{required}: required" in found, found
    found = _problems_with(keys, lambda r: r.update({typed: bad}))
    assert any(p.startswith(f"{path}.{typed}") for p in found), found


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
