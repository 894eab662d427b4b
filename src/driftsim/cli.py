"""Command-line front end: run decks, sweep parameters, verify properties.

Exit codes: 0 for a run that reaches its end time (and for sweeps,
however individual points fared), 3 for a run that ends early with a
blow-up report, 1 for configuration or solver failures, 2 for usage
errors.  A blow-up always leaves a JSON report file behind, either at
the deck's declared report sink or next to the other outputs under a
name derived from the deck file.

Sweep points are independent problems, so they run in forked worker
processes, one per available CPU up to the number of points; the rows
are emitted in input order, and a failing point becomes a row with an
error status rather than aborting the sweep.
"""

from __future__ import annotations

import argparse
import csv
import os
import re
import sys
import time
from dataclasses import replace
from itertools import repeat

from .config import build_models, config_from_tree, load_yaml, parse_config
from .device import contact_labels
from .errors import ConfigError, DriftError
from .output import format_float, write_outputs, write_report
from .transient import run, terminal_currents

__all__ = ["main"]

def _load_deck(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _execute(config):
    models = build_models(config)
    return models, run(config.device, models, config.stepper)


def cmd_run(args) -> int:
    try:
        config = parse_config(_load_deck(args.deck))
        os.makedirs(args.outdir, exist_ok=True)
        models, result = _execute(config)
        write_outputs(config, config.device, result.disc.mesh, models,
                      result, directory=args.outdir)
        if result.blowup is not None \
                and not any(s.kind == "report" for s in config.output):
            stem = os.path.splitext(os.path.basename(args.deck))[0]
            fallback = os.path.join(args.outdir, f"{stem}_report.json")
            write_report(fallback, models, result)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"error: {problem}", file=sys.stderr)
        return 1
    except (OSError, DriftError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if result.blowup is None:
        return 0
    print(f"blow-up at t={result.final.t:.6g}: {result.blowup.reason}",
          file=sys.stderr)
    return 3


_SEGMENT = re.compile(r"([^\[\]]+)((?:\[\d+\])*)$")


def _path_tokens(path: str) -> list:
    tokens: list = []
    for part in path.split("."):
        match = _SEGMENT.match(part)
        if match is None or not part:
            raise ConfigError([f"sweep parameter: bad segment {part!r}"])
        name = match.group(1)
        tokens.append(int(name) if name.isdigit() else name)
        tokens.extend(int(i) for i in re.findall(r"\[(\d+)\]",
                                                 match.group(2)))
    return tokens


def _set_by_path(tree, path: str, value: float) -> None:
    tokens = _path_tokens(path)
    node = tree
    for tok in tokens[:-1]:
        try:
            node = node[tok]
        except (KeyError, IndexError, TypeError):
            raise ConfigError(
                [f"sweep parameter: {path!r} does not resolve "
                 f"(failed at {tok!r})"]) from None
    last = tokens[-1]
    try:
        node[last]
    except (KeyError, IndexError, TypeError):
        raise ConfigError(
            [f"sweep parameter: {path!r} does not resolve "
             f"(failed at {last!r})"]) from None
    node[last] = value


def _parse_values(raw: list[str]) -> list[float]:
    out = []
    for chunk in raw:
        for piece in chunk.split(","):
            piece = piece.strip()
            if piece:
                out.append(float(piece))
    return out


def _sweep_row(text: str, param: str, value: float, labels: list) -> list:
    """One independent simulation, as a finished CSV row."""
    started = time.perf_counter()
    try:
        tree = load_yaml(text)
        _set_by_path(tree, param, value)
        # the sweep table is the only output; per-point sinks would
        # trample each other across values
        config = replace(config_from_tree(tree), output=())
        models, result = _execute(config)
    except (DriftError, ValueError) as exc:
        return [format_float(value)] + ["nan"] * len(labels) + [
            format_float(time.perf_counter() - started), "0",
            f"error: {exc}"]
    currents = terminal_currents(result.disc, models, result.final)
    status = "ok" if result.blowup is None else "blow-up"
    iterations = sum(r.gummel_iterations for r in result.reports)
    return [format_float(value)] \
        + [format_float(currents[label]) for label in labels] \
        + [format_float(time.perf_counter() - started), str(iterations), status]


def cmd_sweep(args) -> int:
    try:
        text = _load_deck(args.deck)
        base = parse_config(text)
        values = _parse_values(args.values)
        # dry resolution: a path that cannot address the deck at all is a
        # usage error, not a per-point failure
        _set_by_path(load_yaml(text), args.param, 0.0)
        # the table is written once every point has run; open it first,
        # so that a path it cannot take fails before any point runs
        sink = sys.stdout
        if args.out:
            os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
            sink = open(args.out, "w", encoding="utf-8", newline="")
    except (OSError, ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    labels = contact_labels(base.device)
    header = ["value"] + [f"current_{label}" for label in labels] \
        + ["wall_time", "iterations", "status"]
    # imported here, so that run and verify do not load multiprocessing
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    workers = max(1, min(len(values), len(os.sched_getaffinity(0))))
    try:
        # fork, not spawn: workers inherit the imported numpy and scipy,
        # so they start in milliseconds.  A fork-context executor starts
        # every worker at the first submit, before its manager thread
        # (Python >= 3.11), so no worker is forked from a threaded parent.
        with ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork")) \
                as pool:
            rows = list(pool.map(_sweep_row, repeat(text), repeat(args.param),
                                 values, repeat(labels)))
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if sink is not sys.stdout:
            sink.close()
    return 0


def cmd_verify(args, parser) -> int:
    # imported here, so that run and sweep load neither verify nor the
    # scipy.optimize its monolithic oracle needs
    from . import verify
    if args.suite != "all" and args.suite not in verify.SUITES:
        parser.error(f"unknown suite {args.suite!r}; available: "
                     + ", ".join(verify.SUITES) + ", all")
    if args.suite == "all":
        results = verify.run_all(args.seed)
    else:
        results = verify.run_suite(args.suite, args.seed)
    print(verify.render_report(results))
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="Charge transport simulation driver.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a deck to its end time")
    p_run.add_argument("deck", help="YAML deck file")
    p_run.add_argument("--outdir", default=".",
                       help="directory for declared output sinks")

    p_sweep = sub.add_parser(
        "sweep", help="rerun a deck over a list of parameter values")
    p_sweep.add_argument("deck", help="YAML deck file")
    p_sweep.add_argument("--param", required=True,
                         help="dotted config path, e.g. "
                              "device.contacts[1].bias")
    p_sweep.add_argument("--values", required=True, nargs="*", default=[],
                         help="comma or space separated numbers")
    p_sweep.add_argument("--out", default=None,
                         help="CSV path (default: stdout)")

    p_verify = sub.add_parser(
        "verify", help="run a named property suite")
    p_verify.add_argument("suite", help="a suite name (an unknown name "
                          "lists them all), or all")
    p_verify.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "sweep":
        return cmd_sweep(args)
    return cmd_verify(args, parser)


if __name__ == "__main__":
    sys.exit(main())
