"""Count the work of every job of ``tools/deck_outputs.py``, one JSON file each.

    PYTHONPATH=src python3 tools/work_counts.py OUTDIR

Runs the jobs of ``tools/deck_outputs.py`` in this process, on the
``driftsim`` that ``PYTHONPATH`` provides, so one copy of this tool can
count the work of two checkouts:

- ``simulate run`` of each deck, its sinks written to a temporary
  directory that is removed afterwards, counted into
  ``OUTDIR/<deck path without .yaml>.json``;
- the diode sweep's points, one after another through ``cli._sweep_row``
  (the CLI runs them in forked workers, whose counts would be lost),
  counted into ``OUTDIR/sweep/diode.json``.

Beside the SuperLU and LAPACK counts, ``linalg.diagonal_solves`` counts
the solves that try Jacobi sweeps on a diagonally dominant operator
instead of a factor, and ``linalg.jacobi_steps`` their sweeps.

Counters are wrappers installed from outside the package: each function
is rebound in every loaded ``driftsim`` module that holds it, methods on
their class, and the LAPACK and SuperLU entry points on the scipy
modules the solver reaches them through.  A name the checkout lacks
counts 0.  Every count is exact, so two runs of the same code give
byte-identical files, and the files of two checkouts differ only where
their work does (``diff -r``).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

import deck_outputs
from driftsim import cli, config, device, nonlinear_poisson, operators
from driftsim import recombination, statistics, transient

ROOT = deck_outputs.ROOT
KEYS = (
    "device.build_mesh_calls",
    "linalg.diagonal_solves", "linalg.gttrf_factors", "linalg.gttrs_solves",
    "linalg.jacobi_steps",
    "linalg.superlu_factors", "linalg.superlu_solves",
    "nonlinear_poisson.newton_failures", "nonlinear_poisson.newton_iterations",
    "nonlinear_poisson.newton_solves",
    "operators.bernoulli_calls", "operators.csc_copies",
    "operators.discretization_builds",
    "recombination.kappa_calls",
    "scipy.sparse_products",
    "statistics.eval_pair_calls", "statistics.eval_pair_points",
    "statistics.invert_calls",
    "transient.runs", "transient.steps_accepted", "transient.steps_rejected",
    "transient.sweeps",
)


class _CountedLU:
    """A SuperLU factor whose triangular solves are counted."""

    def __init__(self, lu, counts: Counter):
        self._lu, self._counts = lu, counts

    def solve(self, *args, **kwargs):
        self._counts["linalg.superlu_solves"] += 1
        return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Counters:
    """Call and work counters over driftsim's layer boundaries."""

    def __init__(self):
        self.counts: Counter = Counter()
        self._patches: list = []  # (owner, attribute, original)

    def _patch(self, owner, attribute, replacement):
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def _patch_everywhere(self, original, replacement):
        """Rebind ``original`` in every loaded driftsim module that holds it."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "driftsim"
                                      or name.startswith("driftsim.")):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attribute, replacement)

    def _counted(self, key, fn, on_return=None, on_raise=None):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if on_raise is not None:
                    on_raise(exc)
                raise
            return out if on_return is None else on_return(args, out)
        return counted

    def _count_function(self, module, name, key, **hooks):
        original = getattr(module, name, None)
        if original is not None:
            self._patch_everywhere(original,
                                   self._counted(key, original, **hooks))

    def _count_method(self, owner, name, key, **hooks):
        original = getattr(owner, name, None)
        if original is not None:
            self._patch(owner, name, self._counted(key, original, **hooks))

    # -- hooks -----------------------------------------------------------

    def _points(self, args, out):
        self.counts["statistics.eval_pair_points"] += int(np.size(args[1]))
        return out

    def _newton_returned(self, args, out):
        self.counts["nonlinear_poisson.newton_iterations"] += \
            out[1].iterations
        return out

    def _newton_raised(self, exc):
        self.counts["nonlinear_poisson.newton_failures"] += 1
        self.counts["nonlinear_poisson.newton_iterations"] += \
            getattr(exc, "iterations", 0)

    def _superlu(self, args, lu):
        return _CountedLU(lu, self.counts)

    def _run_returned(self, args, result):
        self.counts["transient.steps_accepted"] += len(result.reports)
        self.counts["transient.steps_rejected"] += result.steps_rejected
        self.counts["transient.sweeps"] += sum(
            r.gummel_iterations for r in result.reports)
        return result

    # -- install / take ----------------------------------------------------

    def install(self) -> None:
        for module, name, key, hooks in (
                (device, "build_mesh", "device.build_mesh_calls", {}),
                (operators, "bernoulli", "operators.bernoulli_calls", {}),
                (recombination, "kappa", "recombination.kappa_calls", {}),
                (nonlinear_poisson, "newton_solve",
                 "nonlinear_poisson.newton_solves",
                 dict(on_return=self._newton_returned,
                      on_raise=self._newton_raised)),
                (transient, "run", "transient.runs",
                 dict(on_return=self._run_returned))):
            self._count_function(module, name, key, **hooks)
        discretization = getattr(operators, "Discretization", None)
        # a solve_linear call that tries Jacobi makes one diagonal "factor"
        # and applies it once per step
        jacobi = getattr(operators, "_Jacobi", None)
        for owner, name, key, hooks in (
                (jacobi, "__init__", "linalg.diagonal_solves", {}),
                (jacobi, "solve", "linalg.jacobi_steps", {}),
                (discretization, "__init__",
                 "operators.discretization_builds", {}),
                (discretization, "csc", "operators.csc_copies", {}),
                (statistics.StatisticsModel, "eval_pair",
                 "statistics.eval_pair_calls", dict(on_return=self._points)),
                (statistics.StatisticsModel, "invert",
                 "statistics.invert_calls", {}),
                (lapack, "dgttrf", "linalg.gttrf_factors", {}),
                (lapack, "dgttrs", "linalg.gttrs_solves", {}),
                (spla, "spilu", "linalg.superlu_factors",
                 dict(on_return=self._superlu)),
                (spla, "splu", "linalg.superlu_factors",
                 dict(on_return=self._superlu)),
                (sp._base._spbase, "__matmul__", "scipy.sparse_products", {}),
                (sp._base._spbase, "__rmatmul__", "scipy.sparse_products",
                 {})):
            if owner is not None:
                self._count_method(owner, name, key, **hooks)

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def take(self) -> dict:
        """Every count since the last call, the listed keys included at 0."""
        out = {key: 0 for key in KEYS}
        out.update(self.counts)
        self.counts.clear()
        return dict(sorted(out.items()))


def _quietly(fn, *args):
    """``fn(*args)`` with its stdout and stderr discarded."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return fn(*args)


def count_deck(counters: Counters, deck: str) -> dict:
    """The counts of one ``simulate run`` of ``deck``, with its exit code."""
    with tempfile.TemporaryDirectory() as sinks:
        code = _quietly(cli.main, ["run", str(ROOT / deck), "--outdir", sinks])
    return {"exit_code": code, **counters.take()}


def count_sweep(counters: Counters) -> dict:
    """The counts of the diode sweep's points, run one after another."""
    text = (ROOT / deck_outputs.SWEEP_DECK).read_text(encoding="utf-8")
    labels = device.contact_labels(config.parse_config(text).device)
    for value in deck_outputs.SWEEP_VALUES:
        _quietly(cli._sweep_row, text, deck_outputs.SWEEP_PARAM,
                 float(value), labels)
    return counters.take()


def _write(path: Path, counts: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", type=Path)
    outdir = parser.parse_args(argv).outdir
    counters = Counters()
    counters.install()
    try:
        for deck in deck_outputs.deck_paths():
            _write(outdir / Path(deck).with_suffix(".json"),
                   count_deck(counters, deck))
            print(f"{deck}: counted")
        _write(outdir / "sweep" / (Path(deck_outputs.SWEEP_DECK).stem
                                   + ".json"), count_sweep(counters))
        print(f"sweep {deck_outputs.SWEEP_DECK}: counted")
    finally:
        counters.uninstall()
    return 0


if __name__ == "__main__":
    sys.exit(main())
