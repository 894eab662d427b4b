"""Carrier statistics: distribution functions and their inverses.

Two statistics are available:

* ``boltzmann``        F(s) = exp(s)
* ``fermi_dirac_half`` F(s) = (2/sqrt(pi)) * integral_0^inf sqrt(t)/(1+exp(t-s)) dt

The Fermi-Dirac integral F = F_{1/2} and its derivative F' = F_{-1/2}
are evaluated in closed form, piece by piece: for s <= 0 as exp(s) times
a Chebyshev series in exp(s), on (0, 4], (4, 12] and (12, 40] as
Chebyshev series in s, and beyond 40 by the Sommerfeld expansion.  The
coefficients live in ``_fermi_dirac_table``, generated from mpmath by
``tools/fermi_dirac_table.py``; both functions are within a few units in
the last place of the exact values over the whole range, so they join
smoothly at the piece edges and need no accuracy controls.  The
degeneracy factor eta = F/F' equals 1 for Boltzmann statistics and is
>= 1 otherwise.
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
    "fermi_dirac_half",
]

# F and F' underflow together below s = -708, where 0/0 would replace
# eta = 1 + 0.35 exp(s); that already rounds to 1 from s = -40 down
_ETA_FLOOR = -700.0
# relative residual |F(s) - u| / u at which invert stops
_INVERT_RTOL = 1e-12


class _FermiDiracIntegral:
    """F_j(s) for one order j, evaluated from its generated table."""

    def __init__(self, table):
        self.power = table["order"] + 1.0
        self.series = np.array(table["series"])
        # Chebyshev piece i lives on bounds[i]: the first in t = exp(s)
        # over [0, 1], the others in s itself
        edges = _table.EDGES
        bounds = np.array([(0.0, 1.0), *zip(edges[:-1], edges[1:])])
        self.center = bounds.mean(axis=1)
        self.scale = 2.0 / (bounds[:, 1] - bounds[:, 0])
        self.coef = np.array([table["low"], *table["mid"]]).T  # (term, piece)

    def __call__(self, s):
        out = np.empty_like(s)
        piece = np.searchsorted(_table.EDGES, s)  # 0 for s <= 0
        tail = piece == len(_table.EDGES)
        if np.any(tail):
            s_tail = s[tail]
            out[tail] = s_tail ** self.power * polyval(s_tail ** -2.0,
                                                       self.series)
        near = ~tail
        p, s_near = piece[near], s[near]
        low = p == 0
        t = np.exp(np.minimum(s_near, 0.0))
        x = (np.where(low, t, s_near) - self.center[p]) * self.scale[p]
        value = _clenshaw(x, self.coef[:, p])
        out[near] = np.where(low, t * value, value)
        return out


def _clenshaw(x, coef):
    """sum_k coef[k] T_k(x), with one coefficient column per entry of x."""
    b1 = b2 = 0.0
    x2 = 2.0 * x
    for c in coef[:0:-1]:
        b1, b2 = c + x2 * b1 - b2, b1
    return coef[0] + x * b1 - b2


_FD_HALF = _FermiDiracIntegral(_table.HALF)
_FD_MINUS_HALF = _FermiDiracIntegral(_table.MINUS_HALF)


@dataclass(frozen=True)
class StatisticsModel:
    """One carrier's distribution function."""

    kind: Literal["boltzmann", "fermi_dirac_half"]

    def __post_init__(self):
        if self.kind not in ("boltzmann", "fermi_dirac_half"):
            raise DomainError(f"unknown statistics kind {self.kind!r}")

    # -- evaluation ------------------------------------------------------

    def eval(self, s):
        """Density F(s).  Accepts scalars or arrays; s must be finite."""
        return self._evaluate(s, _FD_HALF)

    def eval_derivative(self, s):
        """dF/ds, strictly positive.  Equals the order -1/2 integral for FD."""
        return self._evaluate(s, _FD_MINUS_HALF)

    def _evaluate(self, s, fermi_dirac):
        s = np.asarray(s, dtype=float)
        _require_finite(s, "s")
        # overflow to inf is the honest answer for huge arguments and
        # lets line searches reject the trial point without a warning
        with np.errstate(over="ignore"):
            if self.kind == "boltzmann":
                out = np.exp(s)
            else:
                out = fermi_dirac(s.reshape(-1)).reshape(s.shape)
        return float(out) if s.ndim == 0 else out

    def eval_eta(self, s):
        """Degeneracy factor eta(s) = F(s)/F'(s); identically 1 for Boltzmann."""
        s = np.asarray(s, dtype=float)
        _require_finite(s, "s")
        if self.kind == "boltzmann":
            return _match_shape(np.ones(s.shape), s)
        s = np.maximum(s, _ETA_FLOOR)
        return _match_shape(self.eval(s) / self.eval_derivative(s), s)

    def invert(self, u):
        """Solve F(s) = u for s.  Requires u > 0 elementwise.

        Bracketing is closed-form: F(s) < exp(s) makes log(u) a lower
        bound, and the degenerate leading term bounds from above; a
        safeguarded Newton iteration (bisection fallback) then converges to
        ``|F(s) - u| <= _INVERT_RTOL * u``.
        """
        u = np.asarray(u, dtype=float)
        _require_finite(u, "u")
        if np.any(u <= 0.0):
            bad = np.argwhere(np.atleast_1d(u <= 0.0)).ravel()[0]
            raise DomainError(f"invert requires positive density, got "
                              f"{np.atleast_1d(u)[bad]!r} at index {bad}")
        if self.kind == "boltzmann":
            return _match_shape(np.log(u), u)
        return _match_shape(self._invert_fd(np.atleast_1d(u).ravel()), u)

    def _invert_fd(self, u):
        f0 = float(self.eval(0.0))
        # F(s) < exp(s) everywhere, so log(u) brackets from below; the
        # degenerate leading term (4/(3 sqrt(pi))) s^{3/2} < F(s) for s > 0
        # gives the upper bracket for u >= F(0)
        lo = np.log(u)
        hi = np.where(u >= f0,
                      (0.75 * np.sqrt(np.pi) * u) ** (2.0 / 3.0) + 1.0,
                      0.0)
        s = lo.copy()
        for _ in range(80):
            f = self.eval(s) - u
            done = np.abs(f) <= _INVERT_RTOL * u
            if np.all(done):
                return s
            lo = np.where(f < 0.0, s, lo)
            hi = np.where(f > 0.0, s, hi)
            trial = s - f / self.eval_derivative(s)
            inside = (trial > lo) & (trial < hi)
            # converged entries stay put: a zero Newton step lands on the
            # bracket itself and would otherwise be bisected away
            s = np.where(done, s, np.where(inside, trial, 0.5 * (lo + hi)))
        raise NonConvergenceError("Fermi-Dirac inversion stalled",
                                  iterations=80,
                                  residual=float(np.max(np.abs(f / u))))


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
