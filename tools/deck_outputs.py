"""Run every shipped deck and a diode sweep into one output directory.

    python3 tools/deck_outputs.py OUTDIR

Runs, from the repository root and on its ``src/``:

- ``simulate run`` of every ``decks/*.yaml`` and of
  ``perfbench/decks/{degenerate_diode,pn_junction_2d}.yaml``, each into
  ``OUTDIR/<deck path without .yaml>/``;
- ``simulate sweep decks/diode.yaml`` over the final right-contact bias
  0.2, 0.05, 0.1 and 0.3, into ``OUTDIR/sweep/diode/``.

Each run keeps its ``stderr.txt`` and ``exit_code.txt`` next to its
sinks, and a deck run its ``stdout.txt``.  The sweep's stdout table goes
to ``sweep.csv`` without its ``wall_time`` column, the one field that is
not deterministic.  So two runs of the same code must give byte-identical
directories (``diff -r``), and two versions of the code can be compared
file by file with ``tools/compare_outputs.py``.  Nothing is written
outside OUTDIR.  The runs share no files, so they go on one thread per
available CPU, each in its own subprocess; the summary lines keep the
order above.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH_DECKS = ("perfbench/decks/degenerate_diode.yaml",
                   "perfbench/decks/pn_junction_2d.yaml")
SWEEP_DECK = "decks/diode.yaml"
SWEEP_PARAM = "device.contacts[1].bias[1][1]"
SWEEP_VALUES = ("0.2", "0.05", "0.1", "0.3")


def deck_paths() -> list[str]:
    """Every deck this tool runs, relative to the repository root."""
    shipped = sorted(p.relative_to(ROOT).as_posix()
                     for p in (ROOT / "decks").glob("*.yaml"))
    return shipped + list(PERFBENCH_DECKS)


def _simulate(argv: list[str], where: Path) -> str:
    """``simulate ARGV`` from the repository root, on its ``src/``.

    Keeps the exit code and stderr in ``where`` and returns stdout.
    """
    where.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-m", "driftsim.cli", *argv],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    (where / "stderr.txt").write_text(done.stderr, encoding="utf-8")
    (where / "exit_code.txt").write_text(f"{done.returncode}\n",
                                         encoding="utf-8")
    return done.stdout


def run_deck(deck: str, outdir: Path) -> Path:
    """``simulate run`` of one deck into ``outdir/<deck without .yaml>``."""
    where = outdir / Path(deck).with_suffix("")
    stdout = _simulate(["run", deck, "--outdir", str(where.resolve())], where)
    (where / "stdout.txt").write_text(stdout, encoding="utf-8")
    return where


def run_sweep(outdir: Path) -> Path:
    """The diode bias sweep; its stdout table, less ``wall_time``, is
    kept as ``sweep.csv``."""
    where = outdir / "sweep" / Path(SWEEP_DECK).stem
    rows = list(csv.reader(io.StringIO(_simulate(
        ["sweep", SWEEP_DECK, "--param", SWEEP_PARAM,
         "--values", *SWEEP_VALUES], where))))
    keep = [i for i, name in enumerate(rows[0] if rows else [])
            if name != "wall_time"]
    with open(where / "sweep.csv", "w", encoding="utf-8",
              newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(
            [row[i] for i in keep] for row in rows)
    return where


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", type=Path)
    outdir = parser.parse_args(argv).outdir
    with ThreadPoolExecutor(len(os.sched_getaffinity(0))) as pool:
        jobs = [(deck, pool.submit(run_deck, deck, outdir))
                for deck in deck_paths()]
        jobs.append((f"sweep {SWEEP_DECK}", pool.submit(run_sweep, outdir)))
        for label, job in jobs:
            where = job.result()
            print(f"{label}: exit "
                  f"{(where / 'exit_code.txt').read_text().strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
