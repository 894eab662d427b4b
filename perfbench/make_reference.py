"""Regenerate perfbench/reference.json, the values the correctness gate checks.

    python3 perfbench/make_reference.py

Runs every workload once on the checkout's sources, on the full decks and
on the self-test's tiny ones, and stores the verdict, final time and
terminal currents; for the sweep, the currents at every bias of the grid
the seed draws from.  Regenerate only for a change that is meant to alter
the physics, and say so in CHANGES.md: the reference is what makes a
speed-up that changes answers fail.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import bench


def main() -> None:
    bench.prepare()
    import workloads

    tables = {}
    for mode, smoke in (("full", False), ("smoke", True)):
        table = tables[mode] = {}
        for name in workloads.NAMES:
            if name == "diode_sweep":
                workload = workloads.Sweep(0, smoke, values=workloads.SWEEP_GRID)
            else:
                workload = workloads.make(name, 0, smoke)
            workdir = Path(tempfile.mkdtemp(prefix=".perfbench-",
                                            dir=bench.ROOT))
            try:
                wall, _ = workload.repeat(workdir)
                table[name] = workload.make_reference(workdir)
            finally:
                shutil.rmtree(workdir)
            print(f"{mode} {name}: {wall:.2f} s")
    path = bench.HERE / "reference.json"
    path.write_text(json.dumps(tables, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
