"""Simulation decks: parsing, validation, canonical dumps.

A deck is a YAML document with a fixed tree of sections (device,
statistics, flux_scheme, recombination, stepper, output, seed).  The
parser validates the whole tree before constructing anything heavy and
reports every problem it finds in one ConfigError, each prefixed with
the dotted path of the offending field.  Unknown keys are hard errors
and name the nearest valid spelling, so a typo like "mobilty" surfaces
at parse time instead of silently defaulting the physics.

The deck is one record, ``SimulationConfig``, and so is each of its
parts (region, contact, robin segment, surface, interface, doping box
and sheet, the device and its doping, the stepper, an output sink).
Each is a dataclass, and one table, ``_FIELDS``, gives the kind of each
of its fields: how the field is read from the deck and written back.
``_record`` parses any record, the deck included, and ``_record_tree``
dumps it, so the dataclass is a record's whole deck format: a deck key
is a field name, and a field is optional exactly when its dataclass
gives it a default; a missing one is reported as ``path.key: required``.
Records check their own values on construction, so one built in Python
gets the same checks as one read from a deck; ``_record`` reports each
finding construction raises under the record's path.  A deck whose
dimension is 1 or 2 also has each per-axis list's length checked, so a
bad extent is reported alongside every other problem.

parse_config and dump_config are inverses up to canonicalization:
dumping a parsed deck and parsing the dump reproduces the same
normalized tree, which makes deck files diffable and lets tests pin
configs byte for byte.
"""

from __future__ import annotations

import dataclasses
import difflib
import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
import yaml

from .device import (BoxDoping, Contact, DeviceSpec, DopingProfile,
                     InterfaceSpec, MaterialRegion, RobinSegment,
                     SheetDoping, SurfaceSegment)
from .errors import ConfigError, DomainError
from .operators import FluxScheme
from .recombination import (Auger, Avalanche, MassAction, ShockleyReadHall,
                            SurfaceSRH)
from .statistics import StatisticsModel
from .transient import SimulationModels, TimeStepperConfig

__all__ = [
    "OutputSink", "SimulationConfig", "parse_config", "config_from_tree",
    "load_config", "dump_config", "build_models", "load_yaml",
]

# libyaml's loader builds the same trees as the pure-Python one, several
# times faster; the pure-Python one serves where libyaml is missing
_YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader

_BULK_MODELS = {
    "mass_action": MassAction,
    "shockley_read_hall": ShockleyReadHall,
    "auger": Auger,
    "avalanche": Avalanche,
}
_SURFACE_MODELS = {
    "surface_srh": SurfaceSRH,
}
_MODEL_NAMES = {cls: name for name, cls in
                {**_BULK_MODELS, **_SURFACE_MODELS}.items()}
_SINK_KINDS = ("snapshot", "series", "probe", "report")
_CARRIERS = ("carrier1", "carrier2")


@dataclass(frozen=True)
class OutputSink:
    """One declared output file.

    snapshot: final fields over the mesh, one row per cell.
    series:   one row per accepted step (time, step diagnostics,
              terminal current per contact).
    probe:    fields at the cell nearest ``position``, one row per step.
    report:   JSON run summary; carries the blow-up record when the
              integration ends early.

    Construction raises ConfigError on an unknown kind, an empty path, or
    a position on anything but a probe or none on a probe.
    """
    kind: str
    path: str
    position: tuple[float, ...] | None = None

    def __post_init__(self):
        problems = []
        if self.kind not in _SINK_KINDS:
            problems.append(f"kind {self.kind!r} is not one of {_SINK_KINDS}")
        if not self.path:
            problems.append("path is empty")
        if (self.position is not None) != (self.kind == "probe"):
            problems.append("a probe, and only a probe, takes a position")
        if problems:
            raise ConfigError(problems)


@dataclass(frozen=True, kw_only=True)
class SimulationConfig:
    """A whole deck.  Construction raises ConfigError, naming the field,
    on a statistics name outside ``StatisticsModel.kinds``, a flux scheme
    outside ``FluxScheme.variants``, a recombination entry that is not a
    bulk model, a seed that is not an integer, or a probe whose position
    does not give one coordinate per device axis."""
    device: DeviceSpec
    statistics: tuple[str, str] = ("boltzmann", "boltzmann")
    flux_scheme: str = "scharfetter_gummel"
    recombination: tuple = ()
    stepper: TimeStepperConfig
    output: tuple[OutputSink, ...] = ()
    seed: int = 0

    def __post_init__(self):
        dim = self.device.dimension
        kinds, variants = StatisticsModel.kinds, FluxScheme.variants
        problems = []
        if not (isinstance(self.statistics, (tuple, list))
                and len(self.statistics) == 2):
            problems.append(f"statistics: expected one name per carrier, "
                            f"got {self.statistics!r}")
        else:
            problems += [f"statistics[{k}]: {name!r} is not one of {kinds}"
                         for k, name in enumerate(self.statistics)
                         if name not in kinds]
        if self.flux_scheme not in variants:
            problems.append(f"flux_scheme: {self.flux_scheme!r} is not one "
                            f"of {variants}")
        bulk = tuple(_BULK_MODELS.values())
        problems += [f"recombination[{i}]: {type(model).__name__} is not a "
                     f"bulk model" for i, model in enumerate(self.recombination)
                     if not isinstance(model, bulk)]
        if isinstance(self.seed, bool) \
                or not isinstance(self.seed, (int, np.integer)):
            problems.append(f"seed: expected an integer, got {self.seed!r}")
        problems += [f"output[{i}].position: expected {dim} coordinates"
                     for i, sink in enumerate(self.output)
                     if sink.position is not None
                     and len(sink.position) != dim]
        if problems:
            raise ConfigError(problems)


def build_models(config: SimulationConfig) -> SimulationModels:
    """Instantiate the solver-facing model bundle for a parsed deck."""
    return SimulationModels(
        stats=(StatisticsModel(config.statistics[0]),
               StatisticsModel(config.statistics[1])),
        scheme=FluxScheme(config.flux_scheme),
        bulk=config.recombination,
    )


# ---------------------------------------------------------------------------
# validation helpers: every check appends "path: message" and returns a
# safe fallback so the walk can continue and report everything at once

def _suggest(key: str, allowed) -> str:
    names = sorted(str(a) for a in allowed)
    close = difflib.get_close_matches(key, names, n=1, cutoff=0.4)
    if close:
        return f" (did you mean {close[0]!r}?)"
    return f" (valid keys: {', '.join(names)})"


def _check_keys(node: dict, allowed, path: str, problems: list) -> None:
    for key in node:
        if key not in allowed:
            problems.append(
                f"{path}.{key}: unknown key{_suggest(str(key), allowed)}")


def _mapping(node, path: str, problems: list) -> dict:
    if node is None:
        return {}
    if not isinstance(node, dict):
        problems.append(f"{path}: expected a mapping, got {type(node).__name__}")
        return {}
    return node


def _sequence(node, path: str, problems: list) -> list:
    if node is None:
        return []
    if not isinstance(node, list):
        problems.append(f"{path}: expected a list, got {type(node).__name__}")
        return []
    return node


def _is_number(node) -> bool:
    return isinstance(node, (int, float)) and not isinstance(node, bool)


def _float(node, path: str, problems: list, dim=None) -> float:
    if _is_number(node):
        return float(node)
    problems.append(f"{path}: expected a number, got {node!r}")
    return 0.0


def _int(node, path: str, problems: list, dim=None) -> int:
    if isinstance(node, int) and not isinstance(node, bool):
        return node
    problems.append(f"{path}: expected an integer, got {node!r}")
    return 0


def _text(node, path: str, problems: list, dim=None) -> str:
    if isinstance(node, str) and node:
        return node
    problems.append(f"{path}: expected a nonempty string, got {node!r}")
    return ""


def _str_choice(node, choices, path: str, problems: list) -> str:
    if isinstance(node, str) and node in choices:
        return node
    if isinstance(node, str):
        problems.append(f"{path}: unknown value {node!r}"
                        f"{_suggest(node, choices)}")
    else:
        problems.append(f"{path}: expected one of {sorted(choices)}")
    return next(iter(choices))


def _series(node, path: str, problems: list, dim=None):
    """A contact value: scalar, or [[t, v], ...] with increasing t."""
    if _is_number(node):
        return float(node)
    if isinstance(node, list):
        pairs = []
        for i, entry in enumerate(node):
            if (not isinstance(entry, list) or len(entry) != 2
                    or not all(_is_number(x) for x in entry)):
                problems.append(f"{path}[{i}]: expected a [time, value] pair")
                return 0.0
            pairs.append((float(entry[0]), float(entry[1])))
        if not pairs:
            problems.append(f"{path}: empty time series")
            return 0.0
        times = [t for t, _ in pairs]
        if any(b <= a for a, b in zip(times, times[1:])):
            problems.append(f"{path}: times must be strictly increasing")
        return tuple(pairs)
    problems.append(f"{path}: expected a number or a [[t, v], ...] series")
    return 0.0


def _span(node, path: str, problems: list, dim=None):
    if isinstance(node, list) and len(node) == 2 and all(map(_is_number, node)):
        return (float(node[0]), float(node[1]))
    problems.append(f"{path}: expected [low, high]")
    return (0.0, 0.0)


def _statistics(node, path: str, problems: list, dim=None):
    """One name for both carriers, or a mapping naming each of them."""
    kinds = StatisticsModel.kinds
    if isinstance(node, str):
        return (_str_choice(node, kinds, path, problems),) * 2
    node = _mapping(node, path, problems)
    _check_keys(node, _CARRIERS, path, problems)
    problems += [f"{path}.{key}: required" for key in _CARRIERS
                 if key not in node]
    return tuple(_str_choice(node.get(key, kinds[0]), kinds, f"{path}.{key}",
                             problems) for key in _CARRIERS)


def _axis_value(node, path: str, problems: list, dim=None):
    """A per-axis coefficient: scalar or a list of scalars."""
    if _is_number(node):
        return float(node)
    if isinstance(node, list) and node and all(map(_is_number, node)):
        return tuple(float(x) for x in node)
    problems.append(f"{path}: expected a number or a list of numbers")
    return 1.0


# ---------------------------------------------------------------------------
# field kinds: how one field is read from a deck and written back

class _Kind(NamedTuple):
    parse: Callable        # (node, path, problems, dim) -> value
    dump: Callable         # value -> YAML tree


_NUMBER = _Kind(_float, float)
_INTEGER = _Kind(_int, int)
_TEXT = _Kind(_text, str)
_SERIES = _Kind(_series, lambda value: [list(knot) for knot in value]
                if isinstance(value, tuple) else float(value))
_AXIS_VALUE = _Kind(_axis_value, lambda value: [float(v) for v in value]
                    if isinstance(value, tuple) else float(value))
_STATISTICS = _Kind(_statistics, lambda pair: dict(zip(_CARRIERS, pair)))
# YAML has no portable infinity literal: an unbounded step is left out
_DT_MAX = _Kind(_float, lambda value:
                None if value == np.inf else float(value))


def _nullable(kind: _Kind) -> _Kind:
    """``kind``, where an explicit null is no value."""
    return kind._replace(parse=lambda node, *rest:
                         None if node is None else kind.parse(node, *rest))


def _choice(options) -> _Kind:
    return _Kind(lambda node, path, problems, dim:
                 _str_choice(node, options, path, problems), str)


def _list(item: _Kind, per_axis: bool = False) -> _Kind:
    """A list of items; a per-axis list has one entry per device axis
    when ``dim`` is given."""
    def parse(node, path, problems, dim):
        out = tuple(item.parse(x, f"{path}[{i}]", problems, dim)
                    for i, x in enumerate(_sequence(node, path, problems)))
        if per_axis and dim is not None and len(out) != dim:
            problems.append(f"{path}: expected {dim} entries, got {len(out)}")
        return out
    return _Kind(parse, lambda value: [item.dump(v) for v in value])


def _model(registry) -> _Kind:
    """A recombination model: ``type`` names it, the rest are its fields."""
    def parse(node, path, problems, dim):
        tree = _mapping(node, path, problems)
        kind = tree.get("type")
        if isinstance(kind, str) and kind in registry:
            fields = {k: v for k, v in tree.items() if k != "type"}
            return _record(registry[kind], fields, path, problems, dim)
        known = sorted(registry)
        if isinstance(kind, str):
            problems.append(f"{path}.type: unknown model {kind!r}"
                            f"{_suggest(kind, known)}")
        elif node is None or isinstance(node, dict):  # else _mapping said so
            problems.append(f"{path}.type: required, one of {known}")
        return None
    return _Kind(parse, lambda model: {"type": _MODEL_NAMES[type(model)],
                                       **_record_tree(model)})


def _nested(cls) -> _Kind:
    return _Kind(lambda node, path, problems, dim:
                 _record(cls, node, path, problems, dim),
                 lambda record: _record_tree(record))


_BOUNDS = _list(_Kind(_span, list), per_axis=True)
# an explicit `span: null` or `model: null` is none
_SPAN = _nullable(_Kind(_span, list))
_SURFACE_MODEL = _nullable(_model(_SURFACE_MODELS))
_BULK_MODEL = _model(_BULK_MODELS)

_FIELDS: dict[type, dict[str, _Kind]] = {
    MaterialRegion: {"name": _TEXT, "bounds": _BOUNDS, "eps": _AXIS_VALUE,
                     "mu1": _AXIS_VALUE, "mu2": _AXIS_VALUE},
    Contact: {"side": _TEXT, "phi": _SERIES, "Phi1": _SERIES,
              "Phi2": _SERIES, "bias": _SERIES, "span": _SPAN},
    RobinSegment: {"side": _TEXT, "eps_gamma": _NUMBER,
                   "phi_gamma": _SERIES, "span": _SPAN},
    SurfaceSegment: {"side": _TEXT, "model": _SURFACE_MODEL, "span": _SPAN},
    InterfaceSpec: {"axis": _INTEGER, "position": _NUMBER,
                    "model": _SURFACE_MODEL, "span": _SPAN},
    BoxDoping: {"bounds": _BOUNDS, "value": _NUMBER},
    SheetDoping: {"axis": _INTEGER, "position": _NUMBER, "density": _NUMBER},
    DopingProfile: {"boxes": _list(_nested(BoxDoping)),
                    "sheets": _list(_nested(SheetDoping))},
    DeviceSpec: {"dimension": _INTEGER,
                 "extent": _list(_NUMBER, per_axis=True),
                 "resolution": _list(_INTEGER, per_axis=True),
                 "regions": _list(_nested(MaterialRegion)),
                 "contacts": _list(_nested(Contact)),
                 "robin": _list(_nested(RobinSegment)),
                 "surfaces": _list(_nested(SurfaceSegment)),
                 "interfaces": _list(_nested(InterfaceSpec)),
                 "doping": _nested(DopingProfile)},
    OutputSink: {"kind": _choice(_SINK_KINDS), "path": _TEXT,
                 "position": _list(_NUMBER, per_axis=True)},
    TimeStepperConfig: {
        f.name: _INTEGER if f.type in (int, "int") else _NUMBER
        for f in dataclasses.fields(TimeStepperConfig)} | {"dt_max": _DT_MAX},
    SimulationConfig: {"device": _nested(DeviceSpec),
                       "statistics": _STATISTICS,
                       "flux_scheme": _choice(FluxScheme.variants),
                       "recombination": _list(_BULK_MODEL),
                       "stepper": _nested(TimeStepperConfig),
                       "output": _list(_nested(OutputSink)),
                       "seed": _INTEGER},
    # recombination models: every field is a number
    **{cls: {f.name: _NUMBER for f in dataclasses.fields(cls)}
       for cls in _MODEL_NAMES},
}


def _required(f: dataclasses.Field) -> bool:
    return (f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING)


@functools.cache
def _layout(cls) -> tuple:
    """(field, kind, required) per field, in declaration order."""
    return tuple((f.name, _FIELDS[cls][f.name], _required(f))
                 for f in dataclasses.fields(cls))


def _record(cls, node, path: str, problems: list, dim: int | None):
    """Parse one record; None when any of its fields has a problem.  The
    deck itself has the path "", and its fields go by their bare keys."""
    start = len(problems)
    node = _mapping(node, path, problems)
    layout = _layout(cls)
    _check_keys(node, [name for name, _, _ in layout], path or "deck",
                problems)
    values = {}
    for name, kind, required in layout:
        where = f"{path}.{name}" if path else name
        if name in node:
            values[name] = kind.parse(node[name], where, problems, dim)
        elif required:
            problems.append(f"{where}: required")
    if len(problems) > start:
        return None
    prefix = f"{path}: " if path else ""
    try:
        return cls(**values)
    except ConfigError as exc:
        problems.extend(prefix + finding for finding in exc.problems)
    except DomainError as exc:
        problems.append(f"{prefix}{exc}")
    return None


def _record_tree(record) -> dict:
    """Dump one record in field order, leaving out None and empty lists."""
    out = {}
    for name, kind, _ in _layout(type(record)):
        value = getattr(record, name)
        tree = None if value is None else kind.dump(value)
        if tree is not None and not (isinstance(tree, (list, dict))
                                     and not tree):
            out[name] = tree
    return out


def _dimension(device) -> int | None:
    """The deck's device dimension when it is 1 or 2, else None and no
    per-axis length checks; ``DeviceSpec`` judges the value itself."""
    dim = device.get("dimension") if isinstance(device, dict) else None
    return dim if type(dim) is int and dim in (1, 2) else None


def load_yaml(text: str):
    """The tree of one YAML document, by the safe loader (libyaml's when
    present); raises ``yaml.YAMLError`` on a syntax error."""
    return yaml.load(text, Loader=_YAML_LOADER)


def parse_config(text: str) -> SimulationConfig:
    """Parse and validate a YAML deck; raises ConfigError listing every problem."""
    try:
        tree = load_yaml(text)
    except yaml.YAMLError as exc:
        raise ConfigError([f"syntax: {exc}"]) from None
    return config_from_tree(tree)


def config_from_tree(tree) -> SimulationConfig:
    """Validate a deck's YAML tree, as ``load_yaml`` returns it; raises
    ConfigError listing every problem."""
    if tree is None:
        raise ConfigError(["deck is empty"])
    problems: list[str] = []
    tree = _mapping(tree, "deck", problems)
    config = _record(SimulationConfig, tree, "", problems,
                     _dimension(tree.get("device")))
    if problems:
        raise ConfigError(problems)
    return config


def load_config(path) -> SimulationConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())


def dump_config(config: SimulationConfig) -> str:
    """Canonical YAML for a config; parse_config(dump_config(c)) == c."""
    return yaml.safe_dump(_record_tree(config), sort_keys=False,
                          default_flow_style=None)
