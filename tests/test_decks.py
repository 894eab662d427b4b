"""The YAML files under decks/ are generated from the builder functions;
these tests pin the two representations to each other so neither drifts."""

import pathlib

import pytest

from driftsim import decks
from driftsim.config import build_models, dump_config, load_config
from driftsim.device import build_mesh

DECK_DIR = pathlib.Path(__file__).resolve().parent.parent / "decks"
ALL = sorted(decks.all_decks())


@pytest.mark.parametrize("name", ALL)
def test_shipped_yaml_matches_builder(name):
    built = decks.all_decks()[name]
    path = DECK_DIR / f"{name}.yaml"
    assert path.exists(), f"regenerate with: python -m driftsim.decks decks"
    assert load_config(path) == built
    assert path.read_text() == dump_config(built)


@pytest.mark.parametrize("name", ALL)
def test_every_deck_validates(name):
    # building the device checked its admissibility; the mesh checks that
    # every coordinate lies on the grid
    build_mesh(decks.all_decks()[name].device)


@pytest.mark.parametrize("name", ALL)
def test_every_deck_builds_models(name):
    models = build_models(decks.all_decks()[name])
    assert len(models.stats) == 2


def test_deck_names_are_the_file_names():
    listed = {p.stem for p in DECK_DIR.glob("*.yaml")}
    assert listed == set(ALL)


def test_diode_bias_is_a_two_knot_ramp():
    # sweeps address the plateau value as contacts[1].bias[1][1]; the
    # interpolant clamps past the last knot, so two knots are enough
    cfg = decks.diode()
    ramp = cfg.device.contacts[1].bias
    assert len(ramp) == 2
    assert ramp[0] == (0.0, 0.0)
    assert ramp[1][1] == 0.25


def test_equilibrium_deck_has_fixed_step():
    cfg = decks.diode_equilibrium()
    assert cfg.stepper.dt_min == cfg.stepper.dt_max == 0.1
    assert cfg.stepper.t_end == 10.0


def test_two_layer_deck_interface():
    cfg = decks.two_layer()
    assert len(cfg.device.interfaces) == 1
    itf = cfg.device.interfaces[0]
    assert itf.position == 4.0
    assert type(itf.model).__name__ == "SurfaceSRH"


def test_avalanche_deck_reverse_bias_and_threshold():
    cfg = decks.avalanche_runaway()
    plateau = cfg.device.contacts[1].bias[-1][1]
    assert plateau < 0.0
    assert cfg.stepper.blowup_threshold == 40.0
