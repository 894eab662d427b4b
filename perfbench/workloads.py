"""The benchmark's workloads: inputs, one timed repeat, and the correctness gate.

Each workload spends most of its time in a different driftsim layer, so a
change to one layer moves one workload and leaves the others flat:

- ``diode_sweep``: ``simulate sweep`` of the shipped 128-cell Boltzmann
  diode over four forward biases.  Sparse construction and assembly
  dominate, and it is the only workload that goes through the ``cli``
  thread pool.
- ``degenerate_diode``: the same diode with Fermi-Dirac statistics for
  both carriers and enhanced Scharfetter-Gummel fluxes.  Statistics
  evaluation dominates; LU is about 1 %.
- ``pn_junction_2d``: a 64x64 junction.  The sparse LU factorization
  dominates; statistics are under 1 %.
- ``avalanche_runaway``: the shipped deck that ends in a blow-up.  The
  only workload with rejected steps and Newton stalls that fall back to
  the contraction solver.

The decks are fixed files under ``decks/``; the seed only draws the sweep
biases.  Solver calls go through module attributes (``transient.run``,
not a name imported here), so the tracer's wrappers see them.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import random
import statistics
import time
from pathlib import Path

import yaml

from driftsim import cli, config, device, output, transient

DECKS = Path(__file__).resolve().parent / "decks"

# A repeat passes when the report gives the expected verdict (completed,
# or the blow-up and its reason), the largest balance defect is within the
# acceptance bound of criterion 8, and every terminal current is within
# CURRENT_RTOL * max|I_ref| of the reference.
BALANCE_BOUND = 1e-12
# Starting the diode, degenerate diode or 2D junction with dt_init 10 %
# smaller changes the whole accepted-step sequence and moves the currents
# by at most 1.8e-3 of max|I|; a 10x looser gummel_tol moves them by 1e-7.
# 5e-3 admits both, so rounding-level changes and changed step counts
# pass.  A wrong model does not: plain instead of enhanced SG fluxes change
# the degenerate diode's currents several-fold, and doubling the SRH
# lifetimes changes the diode's by 4 %.
CURRENT_RTOL = 5e-3
# After a blow-up the state is in runaway: the same 10 % dt_init change
# moves the blow-up time by 0.8 % and the final currents by 1.9 % of
# max|I|.  The avalanche gate therefore checks the verdict, the blow-up
# time within 5 % and the currents within 5 % of max|I|.
RUNAWAY_RTOL = 5e-2
# Runs that complete must end at t_end up to accumulated rounding.
T_END_RTOL = 1e-9

SWEEP_PARAM = "device.contacts[1].bias[1][1]"
SWEEP_GRID = [round(0.01 * k, 2) for k in range(1, 31)]  # biases in (0, 0.3]
SWEEP_POINTS = 4


def smoke_deck(text: str) -> str:
    """The same deck on a tiny mesh and a short horizon, for the self-test."""
    tree = yaml.safe_load(text)
    dev, stepper = tree["device"], tree["stepper"]
    dev["resolution"] = [8] if dev["dimension"] == 1 else [6, 6]
    stepper["t_end"] = min(stepper["t_end"], 0.005)
    return yaml.safe_dump(tree, sort_keys=False)


def equilibrium(text: str):
    """Deck text to equilibrium state: every workload's set-up."""
    cfg = config.parse_config(text)
    models = config.build_models(cfg)
    mesh = device.build_mesh(cfg.device)
    return cfg, models, mesh, transient.initial_state(cfg.device, models,
                                                      mesh)


def _current_problems(got: dict, want: dict, rtol: float, where: str) -> list:
    scale = max(abs(v) for v in want.values())
    problems = []
    for side, ref in want.items():
        value = got.get(side)
        if value is None or not abs(value - ref) <= rtol * scale:
            problems.append(f"{where}: current_{side} = {value!r}, reference "
                            f"{ref!r} +- {rtol * scale:.3e}")
    return problems


class DeckRun:
    """``simulate run`` of one deck, through the calls ``cmd_run`` makes."""

    def __init__(self, name: str, smoke: bool):
        self.name = name
        text = (DECKS / f"{name}.yaml").read_text(encoding="utf-8")
        self.text = smoke_deck(text) if smoke else text
        parsed = config.parse_config(self.text)
        self.report_sink = next(s.path for s in parsed.output
                                if s.kind == "report")

    def repeat(self, outdir: Path) -> tuple[float, dict]:
        """Deck text to every declared sink written; returns (wall_s, extras)."""
        start = time.perf_counter()
        cfg, models, mesh, state = equilibrium(self.text)
        result = transient.run(cfg.device, models, cfg.stepper, initial=state)
        output.write_outputs(cfg, cfg.device, mesh, models, result,
                             directory=str(outdir))
        return time.perf_counter() - start, {}

    def fingerprint(self, outdir: Path) -> dict:
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(outdir.iterdir())}

    @staticmethod
    def _verdict(report: dict) -> str:
        return "completed" if report["completed"] \
            else f"blow-up: {report['blowup']['reason']}"

    def check(self, outdir: Path, reference: dict) -> list:
        report = json.loads((outdir / self.report_sink).read_text())
        problems = []
        completed = reference["verdict"] == "completed"
        if self._verdict(report) != reference["verdict"]:
            problems.append(f"verdict {self._verdict(report)!r}, expected "
                            f"{reference['verdict']!r}")
        if not report["max_balance_residual"] <= BALANCE_BOUND:
            problems.append(f"max balance residual "
                            f"{report['max_balance_residual']:.3e} > "
                            f"{BALANCE_BOUND:g}")
        rtol = CURRENT_RTOL if completed else RUNAWAY_RTOL
        t_rtol = T_END_RTOL if completed else RUNAWAY_RTOL
        if not abs(report["t_final"] - reference["t_final"]) \
                <= t_rtol * reference["t_final"]:
            problems.append(f"t_final = {report['t_final']!r}, reference "
                            f"{reference['t_final']!r}")
        problems += _current_problems(report["terminal_currents"],
                                      reference["terminal_currents"], rtol,
                                      self.name)
        return problems

    def make_reference(self, outdir: Path) -> dict:
        report = json.loads((outdir / self.report_sink).read_text())
        return {"verdict": self._verdict(report), "t_final": report["t_final"],
                "terminal_currents": report["terminal_currents"]}


class Sweep:
    """``simulate sweep`` of the diode deck over seeded forward biases.

    One bias is drawn from each quarter of SWEEP_GRID, so every seed does
    about the same work, and the four are shuffled, so the row-order check
    usually sees an order other than the sorted one.
    """

    name = "diode_sweep"

    def __init__(self, seed: int, smoke: bool, values=None):
        text = (DECKS / "diode.yaml").read_text(encoding="utf-8")
        self.text = smoke_deck(text) if smoke else text
        if values is None:
            rng = random.Random(seed)
            quarter = len(SWEEP_GRID) / SWEEP_POINTS
            values = [rng.choice(SWEEP_GRID[round(i * quarter):
                                            round((i + 1) * quarter)])
                      for i in range(SWEEP_POINTS)]
            rng.shuffle(values)
        self.values = list(values)
        self.workers = int(os.environ.get("SIMULATE_WORKERS", "1"))

    def repeat(self, outdir: Path) -> tuple[float, dict]:
        """Sweep to CSV written; extras carry the cli layer metrics."""
        deck = outdir / "diode.yaml"
        deck.write_text(self.text, encoding="utf-8")
        out = outdir / "sweep.csv"
        argv = ["sweep", str(deck), "--param", SWEEP_PARAM,
                "--values", ",".join(repr(v) for v in self.values),
                "--out", str(out)]
        cpu0 = os.times()
        start = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - start
        cpu1 = os.times()
        if code != 0:
            raise RuntimeError(f"simulate sweep exited with {code}")
        cpu = sum(b - a for a, b in zip(cpu0[:4], cpu1[:4]))
        return wall, {
            "cli.point_s": statistics.median(
                float(r["wall_time"]) for r in self._rows(out)),
            "cli.core_utilization": cpu / (wall * self.workers),
        }

    @staticmethod
    def _rows(path: Path) -> list:
        with open(path, encoding="utf-8", newline="") as handle:
            return list(csv.DictReader(handle))

    def fingerprint(self, outdir: Path) -> dict:
        # wall_time is measured per point, so it is the one column that
        # may differ between repeats
        rows = self._rows(outdir / "sweep.csv")
        for row in rows:
            del row["wall_time"]
        return {"sweep.csv": hashlib.sha256(
            json.dumps(rows).encode()).hexdigest()}

    def check(self, outdir: Path, reference: dict) -> list:
        rows = self._rows(outdir / "sweep.csv")
        problems = []
        got = [float(r["value"]) for r in rows]
        if got != self.values:
            return [f"rows {got} are not the input biases {self.values} "
                    f"in input order"]
        for row in rows:
            if row["status"] != "ok":
                problems.append(f"bias {row['value']}: status "
                                f"{row['status']!r}")
                continue
            currents = {k[len("current_"):]: float(v) for k, v in row.items()
                        if k.startswith("current_")}
            want = reference["currents"][f"{float(row['value']):.2f}"]
            problems += _current_problems(currents, want, CURRENT_RTOL,
                                          f"bias {row['value']}")
        by_bias = sorted((float(r["value"]), float(r["current_right"]))
                         for r in rows if r["status"] == "ok")
        if any(b[1] <= a[1] for a, b in zip(by_bias, by_bias[1:])):
            problems.append(f"current_right does not increase with bias: "
                            f"{by_bias}")
        return problems

    def make_reference(self, outdir: Path) -> dict:
        rows = self._rows(outdir / "sweep.csv")
        return {"currents": {
            f"{float(r['value']):.2f}":
                {k[len("current_"):]: float(v) for k, v in r.items()
                 if k.startswith("current_")} for r in rows}}


NAMES = ("diode_sweep", "degenerate_diode", "pn_junction_2d",
         "avalanche_runaway")


def make(name: str, seed: int, smoke: bool = False):
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; one of {NAMES}")
    if name == "diode_sweep":
        return Sweep(seed, smoke)
    return DeckRun(name, smoke)
