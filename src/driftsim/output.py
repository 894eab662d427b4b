"""Tabular run outputs: snapshots, time series, probes, reports.

Every table is a plain CSV with a header row; numbers are written in
full-precision scientific notation so files round-trip through float
parsing bit for bit.  Nothing here depends on wall-clock time or
machine identity, which is what makes repeated runs byte-identical.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .config import SimulationConfig
from .device import DeviceSpec, Mesh, contact_labels
from .transient import SimulationModels, SimulationResult, terminal_currents

__all__ = ["format_float", "write_csv", "write_outputs"]

_AXES = ("x", "y")
_FLOAT = "%.17e"  # full precision: every float round-trips bit for bit


def format_float(value: float) -> str:
    return _FLOAT % float(value)


def write_csv(path: str, header: list[str], table) -> None:
    """The header line, then a table of floats, one row per line and one
    column per ``header`` entry, each cell as ``format_float`` writes it;
    one ``%`` formats the whole table."""
    table = np.asarray(table, dtype=float).reshape(-1, len(header))
    row = ",".join([_FLOAT] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(header) + "\n"
                     + row * len(table) % tuple(table.ravel().tolist()))


def _field_header(dim: int) -> list[str]:
    return list(_AXES[:dim]) + ["phi", "Phi1", "Phi2", "u1", "u2"]


def _field_table(mesh: Mesh, state, cells) -> np.ndarray:
    """The ``_field_header`` columns of ``cells``, one row per cell."""
    return np.column_stack([mesh.cell_centers[cells], state.phi[cells],
                            state.Phi[:, cells].T, state.u[:, cells].T])


def _write_snapshot(path: str, mesh: Mesh, state) -> None:
    write_csv(path, _field_header(mesh.cell_centers.shape[1]),
              _field_table(mesh, state, slice(None)))


def _write_series(path: str, models: SimulationModels,
                  result: SimulationResult) -> None:
    labels = contact_labels(result.disc.device)
    header = ["t", "dt", "iterations", "balance", "proxy"] \
        + [f"current_{label}" for label in labels]
    rows = []
    for state, report in zip(result.states[1:], result.reports):
        flow = terminal_currents(result.disc, models, state)
        rows.append([report.t, report.dt, report.gummel_iterations,
                     report.balance_residual, report.proxy]
                    + [flow[label] for label in labels])
    write_csv(path, header, rows)


def _write_probe(path: str, mesh: Mesh, result: SimulationResult,
                 position) -> None:
    dim = mesh.cell_centers.shape[1]
    target = np.asarray(position, dtype=float)
    cell = int(np.argmin(np.sum((mesh.cell_centers - target) ** 2, axis=1)))
    write_csv(path, ["t"] + _field_header(dim), np.column_stack([
        [state.t for state in result.states],
        np.vstack([_field_table(mesh, state, [cell])
                   for state in result.states])]))


def _report_tree(models: SimulationModels, result: SimulationResult) -> dict:
    tree = {
        "completed": result.completed,
        "steps_accepted": result.steps_accepted,
        "steps_rejected": result.steps_rejected,
        "t_final": result.final.t,
        "iterations_total": int(sum(r.gummel_iterations
                                    for r in result.reports)),
        "max_balance_residual": max(
            (r.balance_residual for r in result.reports), default=0.0),
        "terminal_currents": terminal_currents(result.disc, models,
                                               result.final),
        "blowup": None,
    }
    if result.blowup is not None:
        tree["blowup"] = {
            "reason": result.blowup.reason,
            "threshold": result.blowup.threshold,
            "times": [r.t for r in result.reports],
            "proxies": [r.proxy for r in result.reports],
        }
    return tree


def write_report(path: str, models: SimulationModels,
                 result: SimulationResult) -> None:
    """The run's JSON summary: step counts, balance, terminal currents at
    the final state (on ``result.disc``) and the blow-up report, if any."""
    tree = _report_tree(models, result)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(tree, handle, indent=2, sort_keys=True)
        handle.write("\n")


def write_outputs(config: SimulationConfig, device: DeviceSpec, mesh: Mesh,
                  models: SimulationModels, result: SimulationResult,
                  directory: str | None = None) -> list[str]:
    """Write every declared sink; returns the paths written.

    Relative sink paths land in ``directory`` (default: the current
    working directory), and a sink's missing parent directories are made.
    Writes happen sequentially in declaration order, so two sinks may
    safely share a path prefix.  Sinks read ``result.disc``; ``device``
    and ``mesh`` must be its own, else DomainError, and stay only because
    ``perfbench/workloads.py`` passes them.
    """
    result.disc.check_matches(device, mesh)
    written = []
    for sink in config.output:
        path = sink.path if directory is None \
            else os.path.join(directory, sink.path)
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        if sink.kind == "snapshot":
            _write_snapshot(path, result.disc.mesh, result.final)
        elif sink.kind == "series":
            _write_series(path, models, result)
        elif sink.kind == "probe":
            _write_probe(path, result.disc.mesh, result, sink.position)
        else:
            write_report(path, models, result)
        written.append(path)
    return written
