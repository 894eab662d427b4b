"""Carrier statistics: distribution functions and their inverses.

Two statistics are available:

* ``boltzmann``        F(s) = exp(s)
* ``fermi_dirac_half`` F(s) = (2/sqrt(pi)) * integral_0^inf sqrt(t)/(1+exp(t-s)) dt

The Fermi-Dirac integral F = F_{1/2} and its derivative F' = F_{-1/2}
are evaluated in closed form, piece by piece, with short Chebyshev
series on narrow pieces (Fukushima, Appl. Math. Comput. 259, 2015):
for s <= 0 as exp(s) times a series in t = exp(s) on t in [0, 1/2] and
[1/2, 1]; on (0, 2], (2, 4], (4, 8], (8, 12], (12, 24] and (24, 40] as a
series in s; and beyond 40 by the Sommerfeld expansion.  The
coefficients live in ``_fermi_dirac_table``, generated from mpmath by
``tools/fermi_dirac_table.py``, which keeps for each piece the fewest
terms (15 to 21) whose dropped tail sums to less than 3e-18 of the
leading coefficient.  Both functions are within a few units in the last
place of the exact values over the whole range, so they join smoothly
at the piece edges and need no accuracy controls.  The degeneracy
factor eta = F/F' equals 1 for Boltzmann statistics and is >= 1
otherwise.

Carrier 1 sees the argument Phi1 - phi and carrier 2 sees Phi2 + phi;
``carrier_arguments`` is the one place that spells out these signs.

``eval_pair`` returns F and F' from one pass: one exp for Boltzmann, and
for Fermi-Dirac one piece lookup, one gather of both tables'
coefficients and one Clenshaw recurrence, run in place on preallocated
buffers.  The pieces' series are padded with zeros to one width, the
longest series', and every call runs the whole recurrence; the
Sommerfeld split is skipped when no entry lies past the last edge.
``eval`` and ``eval_derivative`` are its two rows.
``eval_carriers`` and ``invert_carriers`` serve the two carriers of a
device, in one call on all points when they share their statistics.
Every entry is computed independently of the others, with the same
operations whatever else the call holds, so joint evaluations equal
the separate ones bit for bit, and a caller may reuse densities
evaluated in another call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np
from numpy.polynomial.polynomial import polyval

from . import _fermi_dirac_table as _table
from .errors import DomainError, NonConvergenceError

__all__ = [
    "StatisticsModel",
    "boltzmann",
    "carrier_arguments",
    "eval_carriers",
    "fermi_dirac_half",
    "invert_carriers",
]

# F and F' underflow together below s = -708, where 0/0 would replace
# eta = 1 + 0.35 exp(s); that already rounds to 1 from s = -40 down
_ETA_FLOOR = -700.0
# relative residual |F(s) - u| / u at which invert stops
_INVERT_RTOL = 1e-12


class _FermiDirac:
    """F_{1/2} and F_{-1/2}, evaluated from their generated tables.

    The two tables share their pieces, so one piece lookup, one gather
    and one Clenshaw pass serve both orders at once.
    """

    def __init__(self, tables):
        self.power = [table["order"] + 1.0 for table in tables]
        self.series = [np.array(table["series"]) for table in tables]
        self.edges = np.array(_table.EDGES)
        bounds = np.array(_table.BOUNDS)
        self.center = bounds.mean(axis=1)
        self.scale = 2.0 / (bounds[:, 1] - bounds[:, 0])
        # (term, order, piece), each series padded with zeros to the
        # longest
        pieces = [table["pieces"] for table in tables]
        width = max(len(coef) for table in pieces for coef in table)
        self.coef = np.zeros((width, len(tables), len(bounds)))
        for order, table in enumerate(pieces):
            for i, coef in enumerate(table):
                self.coef[:len(coef), order, i] = coef

    def __call__(self, s):
        """Rows F_{1/2}(s) and F_{-1/2}(s), for a flat array s."""
        last = self.edges[-1]
        if s.max(initial=-np.inf) <= last:
            return self._chebyshev(s)
        out = np.empty((2, s.size))
        tail = s > last
        s_tail = s[tail]
        for row, power, series in zip(out, self.power, self.series):
            # as s^(power-1) * (s * series), so that no intermediate
            # exceeds F and F stays finite up to the largest float
            row[tail] = s_tail ** (power - 1.0) * (
                s_tail * polyval(s_tail ** -2.0, series))
        near = ~tail
        out[:, near] = self._chebyshev(s[near])
        return out

    def _chebyshev(self, s):
        """Both rows at arguments s <= EDGES[-1], from the piece series."""
        piece = np.searchsorted(self.edges, s)
        in_t = piece < _table.T_PIECES
        t = np.exp(np.minimum(s, 0.0))
        x = (np.where(in_t, t, s) - self.center[piece]) * self.scale[piece]
        # take, unlike an index array, gathers into (term, order, entry)
        # order, so the recurrence reads contiguous rows
        value = _clenshaw(x, np.take(self.coef, piece, axis=2))
        return np.where(in_t, t * value, value)


def _clenshaw(x, coef):
    """sum_k coef[k] T_k(x), with one coefficient column per entry of x.

    The recurrence b_k = coef[k] + 2x b_(k+1) - b_(k+2) runs in place on
    three rotating buffers, with the same operations in the same order
    as its plain form, so it rounds alike.
    """
    # 2x spread over every coefficient row, so no product in the loop
    # broadcasts
    x2 = np.empty(coef.shape[1:])
    np.multiply(2.0, x, out=x2)
    b1 = np.zeros_like(x2)
    b2 = np.zeros_like(x2)
    scratch = np.empty_like(x2)
    for c in coef[:0:-1]:
        np.multiply(x2, b1, out=scratch)
        scratch += c
        scratch -= b2
        b1, b2, scratch = scratch, b1, b2
    return coef[0] + x * b1 - b2


# rows: F = F_{1/2} and its derivative F' = F_{-1/2}
_FERMI_DIRAC = _FermiDirac((_table.HALF, _table.MINUS_HALF))
# F(0), where the upper inversion bracket changes form
_F_AT_ZERO = float(_FERMI_DIRAC(np.zeros(1))[0, 0])
_LOG_F_AT_ZERO = float(np.log(_F_AT_ZERO))
# (3 sqrt(pi) / 4)^(2/3), so that the upper bracket c u^(2/3) does not
# overflow where u itself is finite
_BRACKET_SCALE = (0.75 * np.sqrt(np.pi)) ** (2.0 / 3.0)


@dataclass(frozen=True)
class StatisticsModel:
    """One carrier's distribution function."""

    kinds = ("boltzmann", "fermi_dirac_half")
    kind: Literal["boltzmann", "fermi_dirac_half"]

    def __post_init__(self):
        if self.kind not in self.kinds:
            raise DomainError(f"unknown statistics kind {self.kind!r}")

    # -- evaluation ------------------------------------------------------

    def eval(self, s):
        """Density F(s), the first row of ``eval_pair``."""
        return self.eval_pair(s)[0]

    def eval_derivative(self, s):
        """dF/ds, strictly positive, the second row of ``eval_pair``.
        Equals the order -1/2 integral for FD."""
        return self.eval_pair(s)[1]

    def eval_pair(self, s):
        """(F(s), F'(s)) in one pass: one exp for Boltzmann statistics, where
        both are the same array, and one table pass for Fermi-Dirac.
        Accepts scalars or arrays; s must be finite."""
        s = np.asarray(s, dtype=float)
        _require_finite(s, "s")
        # overflow to inf is the honest answer for huge arguments and
        # lets line searches reject the trial point without a warning
        with np.errstate(over="ignore"):
            if self.kind == "boltzmann":
                out = (np.exp(s),) * 2
            else:
                out = _FERMI_DIRAC(s.reshape(-1)).reshape((2, *s.shape))
        return tuple(float(row) if s.ndim == 0 else row for row in out)

    def eval_eta(self, s):
        """Degeneracy factor eta(s) = F(s)/F'(s); identically 1 for Boltzmann."""
        s = np.asarray(s, dtype=float)
        _require_finite(s, "s")
        if self.kind == "boltzmann":
            return _match_shape(np.ones(s.shape), s)
        f, df = self.eval_pair(np.maximum(s, _ETA_FLOOR))
        return _match_shape(f / df, s)

    def invert(self, u, start=None):
        """Solve F(s) = u for s.  Requires u > 0 elementwise.

        Bracketing is closed-form: F(s) < exp(s) makes log(u) a lower
        bound, and the degenerate leading term bounds from above; a
        safeguarded Newton iteration (bisection fallback) then converges to
        ``|F(s) - u| <= _INVERT_RTOL * u``.  It starts from ``start``
        clipped into the bracket, or from log(u) where ``start`` is None
        or not finite; Boltzmann statistics ignore it.
        """
        u = np.asarray(u, dtype=float)
        _require_finite(u, "u")
        if np.any(u <= 0.0):
            # the full index of the first nonpositive entry, () for a scalar
            bad = tuple(int(i) for i in np.argwhere(u <= 0.0)[0])
            raise DomainError(f"invert requires positive density, got "
                              f"{float(u[bad])!r} at index {bad}")
        if self.kind == "boltzmann":
            return _match_shape(np.log(u), u)
        if start is not None:
            start = np.broadcast_to(np.asarray(start, dtype=float),
                                    u.shape).ravel()
        return _match_shape(self._invert_fd(u.ravel(), start), u)

    def _invert_fd(self, u, start):
        # F(s) < exp(s) everywhere, so log(u) brackets from below; the
        # degenerate leading term (4/(3 sqrt(pi))) s^{3/2} < F(s) for s > 0
        # gives the upper bracket for u >= F(0), and F(s) exp(-s), which
        # falls as s grows, exceeds F(0) for s < 0, so log(u / F(0)) bounds
        # from above for u < F(0)
        lo = np.log(u)
        hi = np.where(u >= _F_AT_ZERO,
                      _BRACKET_SCALE * u ** (2.0 / 3.0) + 1.0,
                      lo - _LOG_F_AT_ZERO)
        s = lo.copy() if start is None else np.where(
            np.isfinite(start), np.clip(start, lo, hi), lo)
        for _ in range(80):
            f, df = self.eval_pair(s)
            f = f - u
            done = np.abs(f) <= _INVERT_RTOL * u
            if np.all(done):
                return s
            lo = np.where(f < 0.0, s, lo)
            hi = np.where(f > 0.0, s, hi)
            trial = s - f / df
            inside = (trial > lo) & (trial < hi)
            # converged entries stay put: a zero Newton step lands on the
            # bracket itself and would otherwise be bisected away
            s = np.where(done, s, np.where(inside, trial, 0.5 * (lo + hi)))
        raise NonConvergenceError("Fermi-Dirac inversion stalled",
                                  iterations=80,
                                  residual=float(np.max(np.abs(f / u))))


# carrier k's argument is its level plus (-1)^k phi
_CARRIER_SIGN = np.array([[-1.0], [1.0]])


def carrier_arguments(levels, phi):
    """Both carriers' statistics arguments (levels1 - phi, levels2 + phi),
    a (2, n) array; ``levels`` is a (2, n) pair or a scalar."""
    return levels + _CARRIER_SIGN * phi


def eval_carriers(stats, s):
    """(F, F') of both carriers, each at its row of ``s`` (2, n).

    One ``eval_pair`` call on all 2n points when the two carriers share
    their statistics, one per carrier otherwise.
    """
    if stats[0] == stats[1]:
        return stats[0].eval_pair(s)
    f, df = zip(*(model.eval_pair(row) for model, row in zip(stats, s)))
    return np.stack(f), np.stack(df)


def invert_carriers(stats, u, start):
    """Both carriers' ``invert``, each on its row of ``u`` and of ``start``
    (2, n); one call on all 2n points when they share statistics."""
    if stats[0] == stats[1]:
        return stats[0].invert(u, start)
    return np.stack([model.invert(row, s0)
                     for model, row, s0 in zip(stats, u, start)])


def boltzmann() -> StatisticsModel:
    return StatisticsModel(kind="boltzmann")


def fermi_dirac_half() -> StatisticsModel:
    return StatisticsModel(kind="fermi_dirac_half")


def _require_finite(a, name):
    if not np.isfinite(a).all():
        raise DomainError(f"{name} must be finite")


def _match_shape(out, template):
    if np.ndim(template) == 0:
        return float(np.asarray(out).reshape(-1)[0])
    return np.asarray(out, dtype=float).reshape(np.shape(template))
