"""Compare two output directories, or two verify reports, up to a
rounding tolerance.

    python3 tools/compare_outputs.py DIR_A DIR_B --rtol R
    python3 tools/compare_outputs.py --verify REPORT_A REPORT_B --rtol R \
        --may-move SUITE/NAME [--may-move SUITE/NAME ...]

Every CSV and JSON file under either directory (matched by relative
path) is compared with its counterpart:

- a file missing from one side fails;
- the shapes must agree: the row and field counts of a CSV file, the keys
  and list lengths of a JSON document;
- every non-numeric entry (a CSV header, a status word, a JSON string,
  boolean or null) must be equal;
- every numeric entry may differ by at most R times the largest finite
  magnitude among the numeric entries of that file on either side.
  Non-finite entries must match exactly.

One line per file gives the worst entry, its difference and the file's
scale.  The exit code is 0 when every file passes and 1 otherwise.  This
is the check for a change that may move outputs at rounding level only,
such as a different pivot order in a sparse factorization.

With ``--verify`` the two arguments are ``simulate verify`` reports, one
``PASS|FAIL suite/name measured=X bound=B`` line per property and a
summary line.  The property names, their order, verdicts and bounds and
every other line must be equal.  The measured value of a property named
by ``--may-move`` may differ by at most R times the largest of its two
magnitudes and the bound's (the largest number the bound names); every
other measured value, and every non-finite one, must match exactly.  A
``--may-move`` name that is not in the reports fails.  One line per
property whose value moved gives both values, the difference and the
allowance.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
from pathlib import Path

SUFFIXES = (".csv", ".json")
_PROPERTY = re.compile(r"(PASS|FAIL) (\S+) measured=(\S+) bound=(\S+)")
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf")


class ShapeMismatch(Exception):
    """The two files do not hold the same entries."""


def _field(text: str):
    """A CSV field as a float where it reads as one, else as text."""
    try:
        return float(text)
    except ValueError:
        return text


def _csv_entries(path: Path) -> tuple[list, list]:
    """(shape, entries): the field count of every row, and the fields."""
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    entries = [(f"row {i} field {j}", _field(field))
               for i, row in enumerate(rows) for j, field in enumerate(row)]
    return [len(row) for row in rows], entries


def _json_entries(path: Path) -> tuple[list, list]:
    """(shape, entries): every key path and list length, and the leaves."""
    shape, entries = [], []

    def walk(node, where):
        if isinstance(node, dict):
            shape.append((where, sorted(node)))
            for key in sorted(node):
                walk(node[key], f"{where}.{key}")
        elif isinstance(node, list):
            shape.append((where, len(node)))
            for i, item in enumerate(node):
                walk(item, f"{where}[{i}]")
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            entries.append((where, float(node)))
        else:
            entries.append((where, node))

    with open(path, encoding="utf-8") as handle:
        walk(json.load(handle), "$")
    return shape, entries


def compare_file(a: Path, b: Path) -> tuple[float, str, float]:
    """(worst difference, where, scale) of one pair of files.

    Raises ShapeMismatch when the shapes or a non-numeric entry differ;
    a non-finite mismatch counts as an infinite difference.
    """
    read = _csv_entries if a.suffix == ".csv" else _json_entries
    shape_a, entries_a = read(a)
    shape_b, entries_b = read(b)
    if shape_a != shape_b:
        raise ShapeMismatch("shapes differ")
    pairs = []
    for (where, x), (_, y) in zip(entries_a, entries_b):
        if isinstance(x, float) and isinstance(y, float):
            pairs.append((where, x, y))
        elif x != y:
            raise ShapeMismatch(f"{where}: {x!r} != {y!r}")
    scale = max((abs(v) for _, x, y in pairs for v in (x, y)
                 if math.isfinite(v)), default=0.0)
    worst, worst_at = 0.0, "-"
    for where, x, y in pairs:
        if math.isfinite(x) and math.isfinite(y):
            diff = abs(x - y)
        else:
            diff = 0.0 if x == y or (math.isnan(x) and math.isnan(y)) \
                else math.inf
        if diff > worst:
            worst, worst_at = diff, where
    return worst, worst_at, scale


def compare(dir_a: Path, dir_b: Path, rtol: float, out=None) -> bool:
    """Print one line per file; True when every file is within ``rtol``."""
    names = sorted({p.relative_to(d) for d in (dir_a, dir_b)
                    for p in d.rglob("*") if p.suffix in SUFFIXES})
    passed = True
    for name in names:
        a, b = dir_a / name, dir_b / name
        if not (a.is_file() and b.is_file()):
            print(f"FAIL {name}: present on one side only", file=out)
            passed = False
            continue
        try:
            worst, where, scale = compare_file(a, b)
        except ShapeMismatch as exc:
            print(f"FAIL {name}: {exc}", file=out)
            passed = False
            continue
        ok = worst <= rtol * scale
        passed &= ok
        ratio = worst / scale if scale else (0.0 if worst == 0 else math.inf)
        print(f"{'ok  ' if ok else 'FAIL'} {name}: worst {worst:.3e} at "
              f"{where}, scale {scale:.3e}, ratio {ratio:.3e}", file=out)
    return passed


def _report_lines(path: Path) -> list:
    """A verify report's lines as (key, measured): a property line's key
    is its (name, verdict, bound); any other line is its own key, with
    no measured value."""
    out = []
    for line in path.read_text(encoding="utf-8").splitlines():
        match = _PROPERTY.fullmatch(line)
        if match is None:
            out.append((line, None))
        else:
            verdict, name, measured, bound = match.groups()
            out.append(((name, verdict, bound), float(measured)))
    return out


def compare_verify(report_a: Path, report_b: Path, rtol: float,
                   may_move=(), out=None) -> bool:
    """True when the two reports agree, the measured values of the
    properties named in ``may_move`` up to ``rtol`` and all else exactly;
    prints each mismatch and each property whose measured value moved."""
    lines_a, lines_b = _report_lines(report_a), _report_lines(report_b)
    if len(lines_a) != len(lines_b):
        print(f"FAIL {len(lines_a)} lines against {len(lines_b)}", file=out)
        return False
    passed = True
    names = {key[0] for key, x in lines_a if x is not None}
    for name in sorted(set(may_move) - names):
        print(f"FAIL {name}: no such property", file=out)
        passed = False
    for (key, x), (key_b, y) in zip(lines_a, lines_b):
        if key != key_b:
            print(f"FAIL {key!r} != {key_b!r}", file=out)
            passed = False
        elif x is None or x == y or (math.isnan(x) and math.isnan(y)):
            continue
        else:
            name, _, bound = key
            scale = max([abs(x), abs(y)] + [
                abs(float(v)) for v in _NUMBER.findall(bound)])
            allowed = rtol * scale if name in may_move else 0.0
            diff = abs(x - y) if math.isfinite(x) and math.isfinite(y) \
                else math.inf
            ok = diff <= allowed
            passed &= ok
            print(f"{'ok  ' if ok else 'FAIL'} {name}: {x!r} -> {y!r}, "
                  f"difference {diff:.3e}, allowed {allowed:.3e}", file=out)
    return passed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare the CSV and JSON files of two output "
                    "directories, or two verify reports, up to a rounding "
                    "tolerance.")
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    parser.add_argument("--rtol", type=float, required=True,
                        help="allowed difference over the file's scale, "
                             "or over a property's value and bound")
    parser.add_argument("--verify", action="store_true",
                        help="compare two `simulate verify` reports")
    parser.add_argument("--may-move", action="append", default=[],
                        metavar="SUITE/NAME",
                        help="with --verify, a property whose measured "
                             "value may move within the tolerance; every "
                             "other value must match exactly")
    args = parser.parse_args(argv)
    if args.may_move and not args.verify:
        parser.error("--may-move needs --verify")
    if args.verify:
        passed = compare_verify(args.a, args.b, args.rtol, args.may_move)
    else:
        passed = compare(args.a, args.b, args.rtol)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
