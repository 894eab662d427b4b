"""Span tracer that wraps driftsim's public functions from outside the package.

``Tracer.install()`` replaces each traced function with a wrapper in every
loaded ``driftsim`` module that bound it by name (``from .operators import
assemble_continuity`` copies the reference, so patching only the defining
module would miss the callers), wraps the ``StatisticsModel`` methods on
the class, and wraps ``scipy.sparse.linalg.splu`` and
``numpy.linalg.lstsq``, which the solver reaches through the module
attribute at call time.  ``uninstall()`` puts every original back.

Spans nest per thread, because sweep points run on pool threads.  A
span's self time is its duration minus the durations of the spans it
directly encloses.  Closed spans and counter events are appended to
in-memory lists (``list.append`` is atomic under the interpreter lock)
and turned into metrics by ``collect()`` once the traced repeat is over,
so the traced code does no I/O and takes no lock.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import threading
import time

import numpy as np
import scipy.sparse.linalg as spla

from driftsim import config, device, nonlinear_poisson, operators, output
from driftsim import recombination, transient
from driftsim.statistics import StatisticsModel

# (module, function, span name); the span name is the metric prefix
_FUNCTIONS = (
    (config, "parse_config", "config.parse"),
    (device, "build_mesh", "device.build_mesh"),
    (operators, "assemble_continuity", "operators.assembly"),
    (operators, "continuity_face_flux", "operators.assembly"),
    (operators, "assemble_poisson", "operators.assembly"),
    (operators, "poisson_data_load", "operators.assembly"),
    (operators, "solve_linear", "operators.solve_linear"),
    (nonlinear_poisson, "solve_operator_S", "nonlinear_poisson.solve"),
    (nonlinear_poisson, "equilibrium_state", "nonlinear_poisson.equilibrium"),
    (transient, "gummel_step", "transient.gummel"),
    (recombination, "bulk_production", "recombination.bulk"),
)


class _TracedLU:
    """A SuperLU factor whose triangular solves are traced spans."""

    __slots__ = ("_lu", "solve")

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Per-thread span stacks over driftsim's layer boundaries."""

    def __init__(self):
        self._local = threading.local()
        self._spans: list = []    # (name, duration_s, self_s)
        self._events: list = []   # (key, value)
        self._patches: list = []  # (owner, attribute, original)

    # -- spans -----------------------------------------------------------

    def _traced(self, name, fn, on_return=None, on_raise=None):
        local, spans = self._local, self._spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if on_raise is not None:
                    on_raise(exc)
                raise
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                spans.append((name, duration, duration - children[0]))
            if on_return is not None:
                out = on_return(args, kwargs, out)
            return out
        return traced

    def _patch(self, owner, attribute, replacement):
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def _patch_everywhere(self, original, replacement):
        """Rebind ``original`` in every loaded driftsim module that holds it."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "driftsim"
                                      or module_name.startswith("driftsim.")):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attribute, replacement)

    # -- hooks that record counters --------------------------------------

    def _count_points(self, args, kwargs, out):
        self._events.append(("statistics.points", np.size(args[1])))
        return out

    def _newton_returned(self, args, kwargs, out):
        self._events.append(("nonlinear_poisson.newton_iterations",
                             out[1].iterations))
        return out

    def _newton_raised(self, exc):
        self._events.append(("nonlinear_poisson.newton_failures", 1))
        self._events.append(("nonlinear_poisson.newton_iterations",
                             getattr(exc, "iterations", 0)))

    def _fallback_returned(self, args, kwargs, out):
        self._events.append(("nonlinear_poisson.fallback_rescues", 1))
        return out

    def _written(self, args, kwargs, paths):
        self._events.append(("output.bytes",
                             sum(os.path.getsize(p) for p in paths)))
        return paths

    def _factored(self, args, kwargs, lu):
        fill = self._traced("trace.fill", lambda: lu.L.nnz + lu.U.nnz)()
        self._events.append(("linalg.factor_nnz", args[0].nnz))
        self._events.append(("linalg.lu_nnz", fill))
        return _TracedLU(lu, self._traced("linalg.trisolve", lu.solve))

    def _traced_run(self, original):
        """transient.run with an observer that stamps each accepted step."""
        events, clock = self._events, time.perf_counter

        def traced_run(device, models, config, observer=None, initial=None):
            stamps = [clock()]

            def watch(state, report):
                stamps.append(clock())
                if observer is not None:
                    observer(state, report)

            result = original(device, models, config, observer=watch,
                              initial=initial)
            events.append(("transient.run", result))
            events.append(("transient.step_s", np.diff(stamps)))
            return result
        return traced_run

    # -- install / collect -----------------------------------------------

    def install(self) -> None:
        for module, name, span in _FUNCTIONS:
            original = getattr(module, name)
            self._patch_everywhere(original, self._traced(span, original))
        fallback = nonlinear_poisson.contraction_iterate
        self._patch_everywhere(fallback, self._traced(
            "nonlinear_poisson.fallback", fallback,
            on_return=self._fallback_returned))
        newton = nonlinear_poisson.newton_solve
        self._patch_everywhere(newton, self._traced(
            "nonlinear_poisson.newton", newton,
            on_return=self._newton_returned, on_raise=self._newton_raised))
        write = output.write_outputs
        self._patch_everywhere(write, self._traced(
            "output.write", write, on_return=self._written))
        self._patch_everywhere(transient.run, self._traced(
            "transient.run", self._traced_run(transient.run)))
        # eval_eta only divides eval by eval_derivative, so its own time
        # stays with its caller and its points are not counted twice
        for method in ("eval", "eval_derivative"):
            self._patch(StatisticsModel, method, self._traced(
                "statistics.eval", getattr(StatisticsModel, method),
                on_return=self._count_points))
        self._patch(StatisticsModel, "invert", self._traced(
            "statistics.invert", StatisticsModel.invert))
        self._patch(spla, "splu", self._traced(
            "linalg.factor", spla.splu, on_return=self._factored))
        self._patch(np.linalg, "lstsq", self._traced(
            "transient.anderson", np.linalg.lstsq))

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def collect(self) -> tuple[dict, list]:
        """Layer metrics of everything traced since the last call.

        Returns the metrics (seconds and counts per repeat, summed over
        threads) and the per-span table ``[(name, calls, total_s,
        self_s)]``, then forgets the recorded spans.
        """
        # the wrappers hold these very lists, so empty them in place
        spans, events = self._spans[:], self._events[:]
        del self._spans[:], self._events[:]
        calls, total, own = {}, {}, {}
        for name, duration, self_s in spans:
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + duration
            own[name] = own.get(name, 0.0) + self_s
        counts, results, step_s = {}, [], []
        for key, value in events:
            if key == "transient.run":
                results.append(value)
            elif key == "transient.step_s":
                step_s.extend(value)
            else:
                counts[key] = counts.get(key, 0) + value

        def ratio(num, den):
            return num / den if den else 0.0

        accepted = sum(r.steps_accepted for r in results)
        rejected = sum(r.steps_rejected for r in results)
        sweeps = sum(r.gummel_iterations for res in results
                     for r in res.reports)
        solves = calls.get("nonlinear_poisson.solve", 0)
        fallbacks = calls.get("nonlinear_poisson.fallback", 0)
        step_ms = statistics.quantiles(np.multiply(step_s, 1e3), n=10) \
            if len(step_s) >= 2 else [0.0] * 9
        points = counts.get("statistics.points", 0)
        metrics = {
            "statistics.calls": calls.get("statistics.eval", 0),
            "statistics.points": points,
            "statistics.self_s": own.get("statistics.eval", 0.0)
            + own.get("statistics.invert", 0.0),
            "statistics.ns_per_point": 1e9 * ratio(
                own.get("statistics.eval", 0.0), points),
            "statistics.invert_self_s": own.get("statistics.invert", 0.0),
            "operators.assembly_calls": calls.get("operators.assembly", 0),
            "operators.assembly_self_s": own.get("operators.assembly", 0.0),
            "operators.solve_linear_self_s":
                own.get("operators.solve_linear", 0.0),
            "linalg.factor_calls": calls.get("linalg.factor", 0),
            "linalg.factor_s": total.get("linalg.factor", 0.0),
            "linalg.fill_ratio": ratio(counts.get("linalg.lu_nnz", 0),
                                       counts.get("linalg.factor_nnz", 0)),
            "linalg.trisolve_calls": calls.get("linalg.trisolve", 0),
            "linalg.trisolve_s": total.get("linalg.trisolve", 0.0),
            "nonlinear_poisson.solves": solves,
            "nonlinear_poisson.newton_iterations":
                counts.get("nonlinear_poisson.newton_iterations", 0),
            "nonlinear_poisson.newton_failures":
                counts.get("nonlinear_poisson.newton_failures", 0),
            "nonlinear_poisson.newton_self_s":
                own.get("nonlinear_poisson.newton", 0.0),
            "nonlinear_poisson.fallback_calls": fallbacks,
            "nonlinear_poisson.fallback_s":
                total.get("nonlinear_poisson.fallback", 0.0),
            "nonlinear_poisson.fallback_rescue_ratio": ratio(
                counts.get("nonlinear_poisson.fallback_rescues", 0),
                fallbacks),
            "nonlinear_poisson.equilibrium_s":
                total.get("nonlinear_poisson.equilibrium", 0.0),
            "transient.steps_accepted": accepted,
            "transient.steps_rejected": rejected,
            "transient.reject_ratio": ratio(rejected, accepted + rejected),
            "transient.sweeps": sweeps,
            "transient.sweep_yield": ratio(sweeps, solves),
            "transient.step_ms_p50": step_ms[4],
            "transient.step_ms_p90": step_ms[8],
            "transient.gummel_self_s": own.get("transient.gummel", 0.0),
            "transient.anderson_s": total.get("transient.anderson", 0.0),
            "recombination.bulk_self_s": own.get("recombination.bulk", 0.0),
            "output.write_s": total.get("output.write", 0.0),
            "output.bytes": counts.get("output.bytes", 0),
            "config.parse_s": total.get("config.parse", 0.0),
            "device.build_mesh_s": total.get("device.build_mesh", 0.0),
        }
        table = sorted(((name, calls[name], total[name], own[name])
                        for name in calls), key=lambda row: -row[3])
        return metrics, table
