"""Self-test of the benchmark on tiny meshes; finishes in well under a minute.

    python3 perfbench/selftest.py

For every workload, on the self-test decks of ``workloads.smoke_deck``:

- an untraced run prints every end-to-end metric of BENCHMARK.json, by
  name and with its unit, and passes its correctness gate;
- a traced run prints every per-layer metric, by name and with its unit;
- a run against a wrong reference (terminal currents scaled by 1.5) fails
  the gate on every repeat.

Exits 0 when all of that holds and 1 otherwise, listing what did not.
"""

from __future__ import annotations

import copy
import json
import sys

import bench


def _scaled(reference: dict, factor: float) -> dict:
    wrong = copy.deepcopy(reference)
    tables = wrong["currents"].values() if "currents" in wrong \
        else [wrong["terminal_currents"]]
    for table in tables:
        for side in table:
            table[side] *= factor
    return wrong


def _printed_metrics(result: dict) -> dict:
    """The metrics as a reader of the printed last line sees them."""
    line = json.dumps(result)
    assert "\n" not in line
    return {name: metric["unit"]
            for name, metric in json.loads(line)["metrics"].items()}


def main() -> int:
    bench.prepare()
    import workloads

    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    expected = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    references = json.loads((bench.HERE / "reference.json").read_text())
    problems = []
    for name in workloads.NAMES:
        for trace in (False, True):
            result = bench.measure(name, seed=1, seconds=0, trace=trace,
                                   smoke=True)
            label = f"{name} trace={int(trace)}"
            if _printed_metrics(result) != expected[trace]:
                problems.append(f"{label}: printed metrics "
                                f"{sorted(_printed_metrics(result).items())} "
                                f"are not {sorted(expected[trace].items())}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: correctness gate failed on the "
                                f"right reference")
            if not trace and not all(m["value"] > 0
                                     for m in result["metrics"].values()):
                problems.append(f"{label}: an end-to-end metric is not > 0")
        wrong = _scaled(references["smoke"][name], 1.5)
        result = bench.measure(name, seed=1, seconds=0, trace=False,
                               smoke=True, reference=wrong)
        if result["correct"] or result["failed"] != result["attempted"]:
            problems.append(f"{name}: gate passed {result['attempted'] - result['failed']}"
                            f" of {result['attempted']} repeats against a "
                            f"wrong reference")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
