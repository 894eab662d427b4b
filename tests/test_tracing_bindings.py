"""The benchmark tracer binds driftsim names from outside the package.

``perfbench/tracing.py`` looks each traced function up by module and
name, and wraps ``StatisticsModel`` methods on the class.  A refactor
under ``src/`` that renames or removes one of them breaks the benchmark;
this test fails on it locally instead.
"""

import importlib.util
from pathlib import Path

import numpy as np
import scipy.sparse.linalg as spla

from driftsim import transient
from driftsim.statistics import StatisticsModel

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = load_tracing()
    missing = [f"{module.__name__}.{name}"
               for module, name, _ in tracing._FUNCTIONS
               if not callable(getattr(module, name, None))]
    assert not missing


def test_tracer_installs_and_uninstalls():
    # install() looks up every name it wraps, the StatisticsModel methods
    # included, and raises AttributeError on one that is gone
    tracing = load_tracing()
    before = (dict(vars(StatisticsModel)), transient.gummel_step,
              transient.bulk_production, spla.splu, np.linalg.lstsq)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert transient.bulk_production is not before[2]
    finally:
        tracer.uninstall()
    assert (dict(vars(StatisticsModel)), transient.gummel_step,
            transient.bulk_production, spla.splu, np.linalg.lstsq) == before
