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
from .device import DeviceSpec, Mesh
from .transient import SimulationModels, SimulationResult, terminal_currents

__all__ = ["format_float", "write_csv", "write_outputs"]

_AXES = ("x", "y")


def format_float(value: float) -> str:
    return "%.17e" % float(value)


def write_csv(path: str, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            cell if isinstance(cell, str) else format_float(cell)
            for cell in row))
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(lines) + "\n")


def _field_header(dim: int) -> list[str]:
    return list(_AXES[:dim]) + ["phi", "Phi1", "Phi2", "u1", "u2"]


def _field_row(mesh: Mesh, state, cell: int) -> list[float]:
    coords = [mesh.cell_centers[cell, a] for a in range(mesh.cell_centers.shape[1])]
    return coords + [state.phi[cell], state.Phi[0, cell], state.Phi[1, cell],
                     state.u[0, cell], state.u[1, cell]]


def _write_snapshot(path: str, mesh: Mesh, state) -> None:
    dim = mesh.cell_centers.shape[1]
    rows = (_field_row(mesh, state, c) for c in range(mesh.n_cells))
    write_csv(path, _field_header(dim), rows)


def _write_series(path: str, device: DeviceSpec, models: SimulationModels,
                  result: SimulationResult) -> None:
    sides = [c.side for c in device.contacts]
    header = ["t", "dt", "iterations", "balance", "proxy"] \
        + [f"current_{s}" for s in sides]
    rows = []
    for state, report in zip(result.states[1:], result.reports):
        flow = terminal_currents(device, result.disc, models, state)
        rows.append([report.t, report.dt, float(report.gummel_iterations),
                     report.balance_residual, report.proxy]
                    + [flow[s] for s in sides])
    write_csv(path, header, rows)


def _write_probe(path: str, mesh: Mesh, result: SimulationResult,
                 position) -> None:
    dim = mesh.cell_centers.shape[1]
    target = np.asarray(position, dtype=float)[:dim]
    cell = int(np.argmin(np.sum((mesh.cell_centers - target) ** 2, axis=1)))
    header = ["t"] + _field_header(dim)
    rows = ([state.t] + _field_row(mesh, state, cell)
            for state in result.states)
    write_csv(path, header, rows)


def _report_tree(device: DeviceSpec, models: SimulationModels,
                 result: SimulationResult) -> dict:
    tree = {
        "completed": result.completed,
        "steps_accepted": result.steps_accepted,
        "steps_rejected": result.steps_rejected,
        "t_final": result.final.t,
        "iterations_total": int(sum(r.gummel_iterations
                                    for r in result.reports)),
        "max_balance_residual": max(
            (r.balance_residual for r in result.reports), default=0.0),
        "terminal_currents": terminal_currents(device, result.disc, models,
                                               result.final),
        "blowup": None,
    }
    if result.blowup is not None:
        tree["blowup"] = {
            "reason": result.blowup.reason,
            "threshold": result.blowup.threshold,
            "times": list(result.blowup.times),
            "proxies": list(result.blowup.proxies),
        }
    return tree


def write_report(path: str, device: DeviceSpec, models: SimulationModels,
                 result: SimulationResult) -> None:
    """The run's JSON summary: step counts, balance, terminal currents at
    the final state (on ``result.disc``) and the blow-up report, if any."""
    tree = _report_tree(device, models, result)
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
    safely share a path prefix.  ``mesh`` places the snapshot and probe
    rows; currents are computed on ``result.disc``.
    """
    written = []
    for sink in config.output:
        path = sink.path if directory is None \
            else os.path.join(directory, sink.path)
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        if sink.kind == "snapshot":
            _write_snapshot(path, mesh, result.final)
        elif sink.kind == "series":
            _write_series(path, device, models, result)
        elif sink.kind == "probe":
            _write_probe(path, mesh, result, sink.position)
        else:
            write_report(path, device, models, result)
        written.append(path)
    return written
