import copy
import dataclasses
import re
import textwrap
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from driftsim import config as config_module
from driftsim import decks
from driftsim.config import (
    OutputSink,
    SimulationConfig,
    build_models,
    dump_config,
    load_config,
    parse_config,
)
from driftsim.device import (
    Contact,
    DeviceSpec,
    MaterialRegion,
    TAG_DIRICHLET,
    TAG_INTERIOR,
    TAG_NEUMANN,
    TAG_ROBIN,
    build_mesh,
)
from driftsim.errors import ConfigError
from driftsim.recombination import SurfaceSRH
from driftsim.transient import TimeStepperConfig

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


ROOT = Path(__file__).resolve().parent.parent
DECK_FILES = sorted(ROOT.glob("decks/*.yaml")) \
    + sorted(ROOT.glob("perfbench/decks/*.yaml"))


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="libyaml not present")
@pytest.mark.parametrize("path", DECK_FILES,
                         ids=[p.relative_to(ROOT).as_posix() for p in DECK_FILES])
def test_deck_parses_equally_under_both_loaders(path, monkeypatch):
    text = path.read_text()
    configs = []
    for loader in (yaml.SafeLoader, yaml.CSafeLoader):
        monkeypatch.setattr(config_module, "_YAML_LOADER", loader)
        assert yaml.load(text, Loader=loader) == yaml.safe_load(text)
        configs.append(parse_config(text))
    assert configs[0] == configs[1]
    assert dump_config(configs[0]) == dump_config(configs[1])


@pytest.mark.parametrize("loader", ["SafeLoader", "CSafeLoader"])
def test_syntax_error_is_one_problem_under_either_loader(loader, monkeypatch):
    if not hasattr(yaml, loader):
        pytest.skip("libyaml not present")
    monkeypatch.setattr(config_module, "_YAML_LOADER", getattr(yaml, loader))
    found = problems_of("device: [1, 2\nseed: 0\n")
    assert len(found) == 1 and found[0].startswith("syntax:"), found


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


def test_a_statistics_mapping_names_both_carriers():
    # a mapping that leaves one carrier out gives it no statistics of its
    # own choosing: the missing key is a finding, as for any record
    for named, missing in (("carrier1", "carrier2"),
                           ("carrier2", "carrier1")):
        found = problems_of(MINIMAL + f"statistics: {{{named}: "
                                      f"fermi_dirac_half}}\n")
        assert found == [f"statistics.{missing}: required"]
    assert problems_of(MINIMAL + "statistics: {}\n") == [
        "statistics.carrier1: required", "statistics.carrier2: required"]


def test_central_flux_scheme_rejected():
    found = problems_of(MINIMAL + "flux_scheme: central\n")
    assert found == ["flux_scheme: unknown value 'central' (valid keys: "
                     "scharfetter_gummel, scharfetter_gummel_enhanced)"]


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


@pytest.mark.parametrize("kwargs, finding", [
    (dict(kind="bogus", path="x.csv"), "kind 'bogus' is not one of"),
    (dict(kind="series", path=""), "path is empty"),
    (dict(kind="probe", path="p.csv"), "only a probe, takes a position"),
    (dict(kind="report", path="r.json", position=(1.0,)),
     "only a probe, takes a position"),
], ids=["kind", "path", "probe-position", "report-position"])
def test_sink_fails_at_construction(kwargs, finding):
    with pytest.raises(ConfigError, match=finding):
        OutputSink(**kwargs)


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
    count = len(yaml.safe_load(position))
    assert f"output[2].position: expected 2 entries, got {count}" in found, \
        found


def test_probe_position_extra_coordinate_rejected_1d():
    found = problems_of(MINIMAL + textwrap.dedent("""
        output:
          - kind: probe
            path: probe.csv
            position: [1.0, 2.0]
        """))
    assert "output[0].position: expected 1 entries, got 2" in found, found


@pytest.mark.parametrize("position", [(2.5,), (2.5, 1.5, 9.0)])
def test_probe_position_checked_at_construction(position):
    cfg = parse_config(FULL_2D)
    sink = OutputSink("probe", "p.csv", position)
    with pytest.raises(ConfigError) as err:
        dataclasses.replace(cfg, output=(cfg.output[0], sink))
    assert err.value.problems == ["output[1].position: expected 2 coordinates"]


@pytest.mark.parametrize("field,value,problem", [
    ("recombination", (SurfaceSRH(),),
     "recombination[0]: SurfaceSRH is not a bulk model"),
    ("statistics", ("bogus", "bogus"),
     "statistics[0]: 'bogus' is not one of ('boltzmann', 'fermi_dirac_half')"),
    ("flux_scheme", "central",
     "flux_scheme: 'central' is not one of ('scharfetter_gummel', "
     "'scharfetter_gummel_enhanced')"),
    ("seed", "7", "seed: expected an integer, got '7'"),
], ids=["surface_model_in_bulk", "statistics", "flux_scheme", "seed"])
def test_simulation_config_checks_its_own_fields(field, value, problem):
    # a deck built in Python fails at construction, naming the field, not
    # in build_models or mid-run after the equilibrium solve
    with pytest.raises(ConfigError) as err:
        dataclasses.replace(decks.diode(), **{field: value})
    assert err.value.problems[0] == problem


@pytest.mark.parametrize("seed", [True, 7.0, None])
def test_simulation_config_seed_is_an_integer(seed):
    with pytest.raises(ConfigError, match="seed: expected an integer"):
        dataclasses.replace(decks.diode(), seed=seed)
    assert dataclasses.replace(decks.diode(), seed=np.int64(7)).seed == 7


def test_simulation_config_needs_a_stepper():
    with pytest.raises(TypeError, match="stepper"):
        SimulationConfig(device=parse_config(MINIMAL).device)


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

    assert [np.flatnonzero(mesh.face_contact == c).tolist()
            for c in range(2)] == [[0, 9], [8, 17, 26, 35]]
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


# -- the dataclass is the schema -------------------------------------------

# a deck tree and the Python value it parses to, per required field name
_REGION = MaterialRegion(name="bulk", bounds=((0.0, 2.0),))
_REQUIRED_VALUES = {
    "name": ("bulk", "bulk"),
    "bounds": ([[0.0, 2.0]], ((0.0, 2.0),)),
    "side": ("left", "left"),
    "eps_gamma": (0.5, 0.5),
    "position": (1.0, 1.0),
    "value": (-1.0, -1.0),
    "density": (0.25, 0.25),
    "dimension": (1, 1),
    "extent": ([2.0], (2.0,)),
    "resolution": ([4], (4,)),
    "regions": ([{"name": "bulk", "bounds": [[0.0, 2.0]]}], (_REGION,)),
    "kind": ("snapshot", "snapshot"),
    "path": ("final.csv", "final.csv"),
    "dt_init": (0.1, 0.1),
    "t_end": (1.0, 1.0),
    "device": ({"dimension": 1, "extent": [2.0], "resolution": [4],
                "regions": [{"name": "bulk", "bounds": [[0.0, 2.0]]}],
                "contacts": [{"side": "left"}]},
               DeviceSpec(dimension=1, extent=(2.0,), resolution=(4,),
                          regions=(_REGION,),
                          contacts=(Contact(side="left"),))),
    "stepper": ({"dt_init": 0.1, "t_end": 1.0},
                TimeStepperConfig(dt_init=0.1, t_end=1.0)),
}


def _parsed(cls, tree):
    """The record ``tree`` parses to, or the findings without their path."""
    problems = []
    record = config_module._record(cls, tree, "rec", problems, 1)
    return record if record is not None else \
        [p.removeprefix("rec: ") for p in problems]


@pytest.mark.parametrize("cls", list(config_module._FIELDS),
                         ids=lambda cls: cls.__name__)
def test_a_record_parses_like_its_dataclass_builds(cls):
    # a deck key is a field name, a key may be left out exactly when its
    # field has a default, and the deck holding only the required keys
    # parses to the record built in Python from the same keywords
    fields = dataclasses.fields(cls)
    required = [f.name for f in fields if f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING]
    assert _parsed(cls, {}) == (
        [f"rec.{name}: required" for name in required] if required
        else cls())
    found = []
    config_module._record(cls, dict.fromkeys(f.name for f in fields), "rec",
                          found, 1)
    assert not [p for p in found if "unknown key" in p], found
    deck = {name: _REQUIRED_VALUES[name][0] for name in required}
    try:
        built = cls(**{name: _REQUIRED_VALUES[name][1] for name in required})
    except ConfigError as exc:
        assert _parsed(cls, deck) == exc.problems
        return
    assert _parsed(cls, deck) == built
    tree = config_module._record_tree(built)
    assert set(tree) <= {f.name for f in fields}
    assert _parsed(cls, tree) == built


@pytest.mark.parametrize("dimension, finding", [
    (3, "device: dimension must be 1 or 2, got 3"),
    ("two", "device.dimension: expected an integer, got 'two'"),
    (None, "device.dimension: required"),
], ids=["three", "text", "missing"])
def test_a_bad_dimension_is_the_one_finding(dimension, finding):
    # the dimension is an ordinary field: a bad one is reported once, and
    # the per-axis lists are not measured against a guess
    tree = yaml.safe_load((ROOT / "perfbench/decks/pn_junction_2d.yaml")
                          .read_text())
    if dimension is None:
        del tree["device"]["dimension"]
    else:
        tree["device"]["dimension"] = dimension
    assert problems_of(yaml.safe_dump(tree, sort_keys=False)) == [finding]


# Corrupt FULL_2D: drop a key or a list entry, swap a value for one of
# another type, or grow or shrink a list.  The one record walk must
# reject the result with a ConfigError and nothing else, or accept a deck
# that survives its own dump.

def _paths(node, keys=()):
    yield keys
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, keys + (key,))


FULL_2D_PATHS = list(_paths(yaml.safe_load(FULL_2D)))
SWAPS = [None, 3, -1.5, float("nan"), float("inf"), True, "x", "probe",
         [], [1], [[1.0, 2.0]], {}, {"type": "auger"}]


def _corrupt(tree, keys, edit, value):
    parent = tree
    for key in keys[:-1]:
        parent = parent[key]
    node = parent[keys[-1]]
    if edit == "drop":
        del parent[keys[-1]]
    elif edit == "swap":
        parent[keys[-1]] = copy.deepcopy(value)
    elif isinstance(node, list) and edit == "grow":
        node.append(copy.deepcopy(node[-1] if node else value))
    elif isinstance(node, list) and node:  # shrink
        node.pop()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.sampled_from(FULL_2D_PATHS[1:]),
                          st.sampled_from(["drop", "swap", "grow", "shrink"]),
                          st.sampled_from(SWAPS)),
                min_size=1, max_size=3))
@example([(("statistics",), "swap", [1])])
@example([(("stepper",), "swap", 3)])
@example([(("device",), "swap", 3)])
@example([(("output",), "swap", {})])
def test_corrupt_deck_is_a_config_error_or_round_trips(edits):
    tree = yaml.safe_load(FULL_2D)
    for keys, edit, value in edits:
        try:
            _corrupt(tree, keys, edit, value)
        except (KeyError, IndexError, TypeError):
            pass  # an earlier edit removed or replaced this path
    try:
        cfg = parse_config(yaml.safe_dump(tree, sort_keys=False))
    except ConfigError:
        return
    assert parse_config(dump_config(cfg)) == cfg


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
    # build_models builds each carrier's model from its deck kind
    cfg = parse_config(MINIMAL + textwrap.dedent("""
        statistics:
          carrier1: fermi_dirac_half
          carrier2: boltzmann
        """))
    models = build_models(cfg)
    assert [m.kind for m in models.stats] == ["fermi_dirac_half",
                                              "boltzmann"]


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
