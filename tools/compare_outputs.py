"""Compare two output directories up to a rounding tolerance.

    python3 tools/compare_outputs.py DIR_A DIR_B --rtol R

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
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

SUFFIXES = (".csv", ".json")


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare the CSV and JSON files of two output "
                    "directories up to a rounding tolerance.")
    parser.add_argument("dir_a", type=Path)
    parser.add_argument("dir_b", type=Path)
    parser.add_argument("--rtol", type=float, required=True,
                        help="allowed difference over the file's scale")
    args = parser.parse_args(argv)
    return 0 if compare(args.dir_a, args.dir_b, args.rtol) else 1


if __name__ == "__main__":
    sys.exit(main())
