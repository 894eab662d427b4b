"""driftsim benchmark: time one workload end to end, or split it by layer.

Run from the root of a checkout:

    python3 perfbench/bench.py --workload pn_junction_2d --seed 1 \\
        --seconds 28 --trace 0

The checkout's ``src/driftsim`` is imported, never an installed copy.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
record the environment and the samples behind each median.

``--trace 0`` reports the end-to-end metrics:

- ``wall_s``: median over repeats of deck text to outputs written;
- ``setup_s``: median time from deck text to equilibrium state, sampled
  for SETUP_SLICE_SECONDS after every repeat;
- ``peak_rss_mb``: peak resident memory of this process, which ran every
  repeat.

``--trace 1`` alternates untraced and traced repeats and reports the
per-layer metrics of ``tracing.Tracer`` (medians over traced repeats),
plus ``trace.overhead``, the traced median wall time over the untraced
one, minus 1.

Every repeat is checked against ``reference.json`` (see ``workloads.py``);
a repeat that raises or fails a check counts in ``failed``.  Repeats run
one after another in this process (a closed loop with one caller) until
the next one would end past ``--seconds``, and at least MIN_REPEATS run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
MIN_REPEATS = 3
# setup_s is 10-100 ms and the machine's speed drifts over seconds, so
# setup is sampled for this long after every untraced repeat rather than
# in one block
SETUP_SLICE_SECONDS = 0.1

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "statistics.calls": "count",
    "statistics.points": "count",
    "statistics.self_s": "s",
    "statistics.ns_per_point": "ns",
    "statistics.invert_self_s": "s",
    "operators.assembly_calls": "count",
    "operators.assembly_self_s": "s",
    "operators.solve_linear_self_s": "s",
    "linalg.factor_calls": "count",
    "linalg.factor_s": "s",
    "linalg.fill_ratio": "ratio",
    "linalg.trisolve_calls": "count",
    "linalg.trisolve_s": "s",
    "nonlinear_poisson.solves": "count",
    "nonlinear_poisson.newton_iterations": "count",
    "nonlinear_poisson.newton_failures": "count",
    "nonlinear_poisson.newton_self_s": "s",
    "nonlinear_poisson.fallback_calls": "count",
    "nonlinear_poisson.fallback_s": "s",
    "nonlinear_poisson.fallback_rescue_ratio": "ratio",
    "nonlinear_poisson.equilibrium_s": "s",
    "transient.steps_accepted": "count",
    "transient.steps_rejected": "count",
    "transient.reject_ratio": "ratio",
    "transient.sweeps": "count",
    "transient.sweep_yield": "ratio",
    "transient.step_ms_p50": "ms",
    "transient.step_ms_p90": "ms",
    "transient.gummel_self_s": "s",
    "transient.anderson_s": "s",
    "recombination.bulk_self_s": "s",
    "cli.point_s": "s",
    "cli.core_utilization": "ratio",
    "output.write_s": "s",
    "output.bytes": "bytes",
    "config.parse_s": "s",
    "device.build_mesh_s": "s",
    "trace.overhead": "ratio",
}


def prepare() -> dict:
    """Pin threads and put the checkout's sources first on the path.

    Must run before numpy is imported: BLAS reads its thread count once.
    Returns the environment record printed with the result.
    """
    if not (SRC / "driftsim" / "__init__.py").is_file():
        raise SystemExit(f"error: no driftsim sources under {SRC}")
    workers = len(os.sched_getaffinity(0))
    os.environ["SIMULATE_WORKERS"] = str(workers)
    for variable in THREAD_VARIABLES:
        os.environ[variable] = "1"
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import driftsim
    import numpy
    import scipy
    if not Path(driftsim.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: imported driftsim from {driftsim.__file__}, "
                         f"not from {SRC}")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": workers,
        "threads": {v: os.environ[v]
                    for v in ("SIMULATE_WORKERS",) + THREAD_VARIABLES},
    }


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"no percentile has 10 samples beyond it (n={n})"
    q = 100 * (n - 10) // n
    return f"p{q}={statistics.quantiles(values, n=100)[q - 1]:.6f} (n={n})"


def measure(name: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False, reference: dict | None = None) -> dict:
    """Run one workload; returns the result object printed as the last line."""
    import tracing
    import workloads

    workload = workloads.make(name, seed, smoke)
    if reference is None:
        reference = json.loads((HERE / "reference.json").read_text())[
            "smoke" if smoke else "full"][name]
    tracer = tracing.Tracer() if trace else None
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        workloads.equilibrium(workload.text)  # pays one-time import costs
        setup = []
        walls = {False: [], True: []}
        layers, extras, spans = [], [], {}
        first_fingerprint = None
        attempted = failed = 0
        begin = time.perf_counter()
        while True:
            traced = trace and attempted % 2 == 1
            done = walls[traced]
            elapsed = time.perf_counter() - begin
            if attempted >= (2 if trace else MIN_REPEATS) and (
                    not done or elapsed + median(done) > seconds):
                break
            attempted += 1
            outdir = workdir / f"repeat{attempted}"
            outdir.mkdir()
            # every repeat starts from a heap without the last one's garbage
            gc.collect()
            if traced:
                tracer.install()
            try:
                wall, extra = workload.repeat(outdir)
            except Exception as exc:  # a crash is a failed repeat
                failed += 1
                print(f"repeat {attempted}: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
                continue
            finally:
                if traced:
                    tracer.uninstall()
                    metrics, table = tracer.collect()
            done.append(wall)
            if traced:
                layers.append(metrics)
                for row in table:
                    spans.setdefault(row[0], []).append(row[1:])
            else:
                extras.append(extra)
                gc.collect()
                end = time.perf_counter() + SETUP_SLICE_SECONDS
                while not setup or time.perf_counter() < end:
                    start = time.perf_counter()
                    workloads.equilibrium(workload.text)
                    setup.append(time.perf_counter() - start)
            problems = workload.check(outdir, reference)
            fingerprint = workload.fingerprint(outdir)
            if first_fingerprint is None:
                first_fingerprint = fingerprint
            elif fingerprint != first_fingerprint:
                problems.append("outputs differ byte for byte from the "
                                "first repeat")
            if problems:
                failed += 1
                for problem in problems:
                    print(f"repeat {attempted}: {problem}", file=sys.stderr)
            shutil.rmtree(outdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"wall_s samples: {' '.join(f'{w:.6f}' for w in walls[False])}; "
          f"median {median(walls[False]):.6f}; {tail(walls[False])}")
    print(f"failure_rate: {failed}/{attempted} = {failed / attempted:g}")
    if trace:
        print(f"traced wall_s samples: "
              f"{' '.join(f'{w:.6f}' for w in walls[True])}")
        print("span                               calls    total_s     self_s"
              "   (median per traced repeat)")
        for span, rows in sorted(spans.items(),
                                 key=lambda kv: -median([r[2] for r in kv[1]])):
            print(f"{span:32s} {median([r[0] for r in rows]):8.0f} "
                  f"{median([r[1] for r in rows]):10.4f} "
                  f"{median([r[2] for r in rows]):10.4f}")
        # collecting from the emptied tracer yields every layer metric name
        values = {key: median([m[key] for m in layers])
                  for key in tracer.collect()[0]}
        for key in ("cli.point_s", "cli.core_utilization"):
            values[key] = median([e[key] for e in extras if key in e])
        untraced = median(walls[False])
        values["trace.overhead"] = (median(walls[True]) / untraced - 1.0
                                    if untraced and walls[True] else 0.0)
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in PER_LAYER_UNITS.items()}
    else:
        values = {
            "wall_s": median(walls[False]),
            "setup_s": median(setup),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in END_TO_END_UNITS.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    env = prepare()
    print("env: " + json.dumps(dict(env, seed=args.seed,
                                    workload=args.workload)))
    result = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
