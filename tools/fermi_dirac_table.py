"""Generate the coefficient table behind driftsim's Fermi-Dirac statistics.

The oracle is mpmath's polylogarithm, F_j(s) = -Re Li_{j+1}(-e^s), for
the two orders the package needs: F = F_{1/2} and F' = F_{-1/2}.  Every
coefficient is computed in mpmath arithmetic and rounded to the nearest
double only when it is written, so the table is reproduced bit for bit.

For each order j the table describes F_j(s) in five pieces:

  s <= 0         F_j = t * sum_k low[k] T_k(2t - 1),  t = exp(s)
  a < s <= b     F_j = sum_k mid[i][k] T_k((2s - a - b) / (b - a))
                 for (a, b) = (0, 4), (4, 12), (12, 40)
  s > 40         F_j = sum_k series[k] s**(j + 1 - 2k)

The Chebyshev coefficients are those of the 64-node interpolant at the
Chebyshev-Gauss points, cut to 30 terms; the dropped ones sum to less
than 3e-18 of the leading one.  The last piece is the Sommerfeld
expansion with coefficients 2 eta(2k) / Gamma(j + 2 - 2k), eta the
Dirichlet eta function.  For j = +-1/2 the expansion has no exponentially small
correction, since that term carries the factor cos(pi j) = 0.

Usage (needs mpmath; takes about 15 s):

  python3 tools/fermi_dirac_table.py          rewrite the table
  python3 tools/fermi_dirac_table.py --check  regenerate it and exit 1
                                              if the checked-in file differs
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import mpmath as mp

TABLE = (Path(__file__).resolve().parent.parent
         / "src" / "driftsim" / "_fermi_dirac_table.py")

DIGITS = 30
ORDERS = (("HALF", mp.mpf(1) / 2), ("MINUS_HALF", -mp.mpf(1) / 2))
EDGES = (0, 4, 12, 40)
NODES = 64
TERMS = 30
SERIES_TERMS = 12


def fermi_dirac(j, s):
    return -mp.re(mp.polylog(j + 1, -mp.exp(s)))


def chebyshev(f):
    """First TERMS coefficients of f's interpolant on [-1, 1]."""
    theta = [mp.pi * (i + mp.mpf(1) / 2) / NODES for i in range(NODES)]
    values = [f(mp.cos(th)) for th in theta]
    coef = [2 * mp.fsum(v * mp.cos(k * th) for v, th in zip(values, theta))
            / NODES for k in range(TERMS)]
    coef[0] /= 2
    return coef


def order_table(j):
    def low(x):
        t = (x + 1) / 2
        return fermi_dirac(j, mp.log(t)) / t

    def mid(a, b):
        return lambda x: fermi_dirac(j, (a + b + (b - a) * x) / 2)

    return {
        "low": chebyshev(low),
        "mid": [chebyshev(mid(mp.mpf(a), mp.mpf(b)))
                for a, b in zip(EDGES[:-1], EDGES[1:])],
        "series": [2 * mp.altzeta(2 * k) / mp.gamma(j + 2 - 2 * k)
                   for k in range(SERIES_TERMS)],
    }


def _floats(values, indent):
    pad = " " * indent
    text = [repr(float(v)) + "," for v in values]
    lines = [pad + " ".join(text[i:i + 3]) for i in range(0, len(text), 3)]
    return "\n".join(lines)


def render() -> str:
    mp.mp.dps = DIGITS
    out = [
        '"""Coefficients of F_{1/2} and F_{-1/2} for driftsim.statistics.',
        "",
        "Generated by tools/fermi_dirac_table.py, which documents the pieces",
        "and their accuracy; do not edit by hand.",
        '"""',
        "",
        f"EDGES = {tuple(float(e) for e in EDGES)!r}",
    ]
    for name, j in ORDERS:
        table = order_table(j)
        out += ["", f"{name} = {{", f'    "order": {float(j)!r},',
                '    "low": (', _floats(table["low"], 8), "    ),",
                '    "mid": (']
        for coef in table["mid"]:
            out += ["        (", _floats(coef, 12), "        ),"]
        out += ["    ),", '    "series": (', _floats(table["series"], 8),
                "    ),", "}"]
    return "\n".join(out) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the checked-in table instead "
                             "of writing it")
    args = parser.parse_args(argv)
    text = render()
    if not args.check:
        TABLE.write_text(text, encoding="utf-8")
        print(f"wrote {TABLE}")
        return 0
    current = TABLE.read_text(encoding="utf-8") if TABLE.exists() else ""
    if current == text:
        print("table up to date")
        return 0
    print(f"{TABLE} differs from the regenerated table; rerun "
          f"without --check", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
