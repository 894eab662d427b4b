"""Generate the coefficient table behind driftsim's Fermi-Dirac statistics.

The oracle is mpmath's polylogarithm, F_j(s) = -Re Li_{j+1}(-e^s), for
the two orders the package needs: F = F_{1/2} and F' = F_{-1/2}.  Every
coefficient is computed in mpmath arithmetic and rounded to the nearest
double only when it is written, so the table is reproduced bit for bit.

For each order j the table describes F_j(s) in nine pieces:

  s <= 0         F_j = t * sum_k c[k] T_k(x),  t = exp(s), x the image of t
                 in [-1, 1], on the t-intervals [0, 1/2] and [1/2, 1]
                 (s <= log 1/2 and log 1/2 < s <= 0)
  a < s <= b     F_j = sum_k c[k] T_k((2s - a - b) / (b - a))
                 for (a, b) = (0, 2), (2, 4), (4, 8), (8, 12), (12, 24), (24, 40)
  s > 40         F_j = sum_k series[k] s**(j + 1 - 2k)

Narrow pieces need short series, and a Chebyshev series that is cut
where its coefficients have decayed is good to the last place on its
piece (Fukushima, Appl. Math. Comput. 259, 2015).  The coefficients are
those of the 64-node interpolant at the Chebyshev-Gauss points, and
each piece keeps the fewest terms whose dropped tail sums to less than
TAIL = 3e-18 of the leading coefficient: 15 to 21 terms.  The
statistics module pads every piece's coefficients with zeros to the
longest series' width and runs that whole recurrence for every entry;
a zero coefficient above an entry's own series leaves its recurrence at
exactly zero, so the padding does not change its value, and each value
is computed with the same operations whatever else is evaluated with
it.

The last piece is the Sommerfeld expansion with coefficients
2 eta(2k) / Gamma(j + 2 - 2k), eta the Dirichlet eta function.  For
j = +-1/2 the expansion has no exponentially small correction, since
that term carries the factor cos(pi j) = 0.

Usage (needs mpmath; takes about 30 s):

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
HALF_T = mp.mpf(1) / 2
# piece intervals: in t = exp(s) below s = 0, in s above it
T_PIECES = ((0, HALF_T), (HALF_T, 1))
S_EDGES = (0, 2, 4, 8, 12, 24, 40)
NODES = 64
TAIL = mp.mpf("3e-18")
SERIES_TERMS = 12


def fermi_dirac(j, s):
    return -mp.re(mp.polylog(j + 1, -mp.exp(s)))


def chebyshev(f):
    """f's interpolant on [-1, 1], cut to the fewest terms whose dropped
    coefficients sum to less than TAIL of the leading one."""
    theta = [mp.pi * (i + mp.mpf(1) / 2) / NODES for i in range(NODES)]
    values = [f(mp.cos(th)) for th in theta]
    coef = [2 * mp.fsum(v * mp.cos(k * th) for v, th in zip(values, theta))
            / NODES for k in range(NODES)]
    coef[0] /= 2
    terms = next(n for n in range(1, NODES + 1)
                 if mp.fsum(abs(c) for c in coef[n:]) < TAIL * abs(coef[0]))
    return coef[:terms]


def bounds():
    """Each piece's interval, in t for the first len(T_PIECES), else in s."""
    return list(T_PIECES) + list(zip(S_EDGES[:-1], S_EDGES[1:]))


def order_table(j):
    def piece(i, a, b):
        a, b = mp.mpf(a), mp.mpf(b)

        def f(x):
            v = (a + b + (b - a) * x) / 2
            if i < len(T_PIECES):  # F_j / t as a function of t
                return fermi_dirac(j, mp.log(v)) / v
            return fermi_dirac(j, v)
        return chebyshev(f)

    return {
        "pieces": [piece(i, a, b) for i, (a, b) in enumerate(bounds())],
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
    # piece i covers EDGES[i - 1] < s <= EDGES[i]; the edge between the
    # two t-pieces is log 1/2
    edges = [mp.log(HALF_T)] + list(S_EDGES)
    out = [
        '"""Coefficients of F_{1/2} and F_{-1/2} for driftsim.statistics.',
        "",
        "Generated by tools/fermi_dirac_table.py, which documents the pieces",
        "and their accuracy; do not edit by hand.",
        '"""',
        "",
        "# piece i covers EDGES[i - 1] < s <= EDGES[i] (piece 0: s <= EDGES[0]);",
        "# beyond the last edge the Sommerfeld series takes over",
        f"EDGES = {tuple(float(e) for e in edges)!r}",
        "# the first T_PIECES pieces are series in t = exp(s), the others in s",
        f"T_PIECES = {len(T_PIECES)}",
        "# each piece's interval in its own variable",
        "BOUNDS = (",
        *(f"    {(float(a), float(b))!r}," for a, b in bounds()),
        ")",
    ]
    for name, j in ORDERS:
        table = order_table(j)
        out += ["", f"{name} = {{", f'    "order": {float(j)!r},',
                '    "pieces": (']
        for coef in table["pieces"]:
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
