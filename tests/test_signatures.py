"""A mesh carries its device, so no function takes a device beside a
per-mesh object it could disagree with."""

import importlib
import inspect
import pkgutil

import driftsim

PER_MESH = {"mesh", "disc", "poisson", "op"}
# pinned by perfbench/workloads.py; each checks that the two agree
PINNED = {"driftsim.transient.initial_state",
          "driftsim.output.write_outputs",
          "driftsim.operators.Discretization.check_matches"}


def _functions():
    """(qualified name, function) of every function and method defined in
    a driftsim module."""
    for info in pkgutil.iter_modules(driftsim.__path__):
        module = importlib.import_module(f"driftsim.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            where = f"{module.__name__}.{name}"
            if inspect.isfunction(obj):
                yield where, obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", member)
                    if inspect.isfunction(member):
                        yield f"{where}.{attr}", member


def test_no_function_takes_a_device_beside_a_mesh():
    found = sorted(
        where for where, function in _functions()
        if where not in PINNED
        and "device" in (params := set(inspect.signature(function).parameters))
        and params & PER_MESH)
    assert found == []


def test_the_walk_sees_the_pinned_signatures():
    # a walk that missed them would pass without looking
    assert PINNED <= {where for where, _ in _functions()}
