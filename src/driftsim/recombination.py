"""Bulk and interfacial reaction models for the carrier system.

Every model's ``eval`` returns the rate expression exactly as written
below, without presuming a sign convention; the time stepper decides how
each one enters the continuity right-hand sides (mass action and impact
ionization count as production as written, the trap-assisted and Auger
channels as recombination).  All evaluators are vectorized over cells or
faces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "MassAction", "ShockleyReadHall", "Auger", "Avalanche", "SurfaceSRH",
    "kappa", "kappa_lipschitz_bound", "bulk_production",
]


def kappa(e, j, a: float):
    """Impact ionization kernel |j| exp(-a / |e . j/|j||).

    Zero whenever the current vanishes or is orthogonal to the field.
    ``e`` and ``j`` are arrays of vectors with the component axis last;
    the return drops that axis.  The threshold field ``a`` must be
    positive.
    """
    if a <= 0.0:
        raise DomainError("ionization threshold a must be positive")
    e = np.asarray(e, dtype=float)
    j = np.asarray(j, dtype=float)
    jn = np.linalg.norm(j, axis=-1)
    dot = np.abs(np.sum(e * j, axis=-1))
    live = (jn > 0.0) & (dot > 0.0)
    with np.errstate(divide="ignore", over="ignore"):
        vals = jn * np.exp(-a * jn / np.where(live, dot, 1.0))
    out = np.where(live, vals, 0.0)
    if out.ndim == 0:
        return float(out)
    return out


def kappa_lipschitz_bound(a: float, norm_e1: float, norm_j2: float,
                          norm_dj: float, norm_de: float) -> float:
    """Bound on |kappa(e1,j1,a) - kappa(e2,j2,a)|, valid for all vectors.

    The scalar map f(x) = exp(-a/x) on x >= 0 (extended by 0) is bounded
    by 1 and Lipschitz with constant L_a = 4/(e^2 a), the maximum of
    a exp(-a/x)/x^2, attained at x = a/2.  Splitting the difference
    through the intermediate point (e1, j2) and using
    |unit(j1) - unit(j2)| <= 2 |j1 - j2| / |j1| gives

        (2 L_a |e1| + 1) |j1 - j2|  +  L_a |j2| |e1 - e2|.

    The |j2| factor in the field term is essential: without it the bound
    fails already for collinear fields around |e . unit(j)| = a/2 once
    |j2| > 1.
    """
    if a <= 0.0:
        raise DomainError("ionization threshold a must be positive")
    L = 4.0 / (math.e ** 2 * a)
    return (2.0 * L * norm_e1 + 1.0) * norm_dj + L * norm_j2 * norm_de


@dataclass(frozen=True)
class MassAction:
    """Net pair production rate_hat * (generation - exp(Phi1 + Phi2))."""
    rate: float = 1.0
    generation: float = 1.0

    def __post_init__(self):
        if not (self.rate >= 0.0 and np.isfinite(self.rate)):
            raise DomainError("mass action rate must be nonnegative")
        if not (self.generation >= 0.0 and np.isfinite(self.generation)):
            raise DomainError("mass action generation level must be nonnegative")

    def eval(self, Phi1, Phi2):
        return self.rate * (self.generation
                            - np.exp(np.asarray(Phi1) + np.asarray(Phi2)))


@dataclass(frozen=True)
class ShockleyReadHall:
    """Trap-assisted rate (u1 u2 - ni^2) / (tau2 (u1+n1) + tau1 (u2+n2))."""
    tau1: float = 1.0
    tau2: float = 1.0
    n1: float = 1.0
    n2: float = 1.0
    ni: float = 1.0

    def __post_init__(self):
        if self.tau1 <= 0.0 or self.tau2 <= 0.0:
            raise DomainError("SRH lifetimes must be positive")
        if self.n1 < 0.0 or self.n2 < 0.0:
            raise DomainError("SRH reference densities must be nonnegative")
        if self.ni <= 0.0:
            raise DomainError("intrinsic density must be positive")

    def eval(self, u1, u2):
        u1 = np.asarray(u1, dtype=float)
        u2 = np.asarray(u2, dtype=float)
        return (u1 * u2 - self.ni ** 2) / (self.tau2 * (u1 + self.n1)
                                           + self.tau1 * (u2 + self.n2))


@dataclass(frozen=True)
class Auger:
    """Three-particle rate (u1 u2 - ni^2) (c1 u1 + c2 u2)."""
    c1: float = 1.0
    c2: float = 1.0
    ni: float = 1.0

    def __post_init__(self):
        if self.c1 < 0.0 or self.c2 < 0.0:
            raise DomainError("Auger coefficients must be nonnegative")
        if self.ni <= 0.0:
            raise DomainError("intrinsic density must be positive")

    def eval(self, u1, u2):
        u1 = np.asarray(u1, dtype=float)
        u2 = np.asarray(u2, dtype=float)
        return (u1 * u2 - self.ni ** 2) * (self.c1 * u1 + self.c2 * u2)


@dataclass(frozen=True)
class Avalanche:
    """Impact ionization c1 kappa(e, j1, a1) + c2 kappa(e, j2, a2).

    ``e`` is the cellwise gradient of the electrostatic potential and
    ``j1``/``j2`` the reconstructed carrier current vectors.
    """
    c1: float = 1.0
    c2: float = 1.0
    a1: float = 1.0
    a2: float = 1.0

    def __post_init__(self):
        if self.c1 < 0.0 or self.c2 < 0.0:
            raise DomainError("avalanche prefactors must be nonnegative")
        if self.a1 <= 0.0 or self.a2 <= 0.0:
            raise DomainError("avalanche thresholds must be positive")

    def eval(self, e, j1, j2):
        return (self.c1 * kappa(e, j1, self.a1)
                + self.c2 * kappa(e, j2, self.a2))


@dataclass(frozen=True)
class SurfaceSRH:
    """Interfacial trap rate (u1 u2 - ni^2) / (v2 (u1+n1) + v1 (u2+n2))."""
    v1: float = 1.0
    v2: float = 1.0
    n1: float = 1.0
    n2: float = 1.0
    ni: float = 1.0

    def __post_init__(self):
        if self.v1 < 0.0 or self.v2 < 0.0:
            raise DomainError("surface velocities must be nonnegative")
        if self.v1 + self.v2 == 0.0:
            raise DomainError("at least one surface velocity must be positive")
        if self.n1 < 0.0 or self.n2 < 0.0:
            raise DomainError("surface reference densities must be nonnegative")
        if self.ni <= 0.0:
            raise DomainError("intrinsic density must be positive")

    def eval(self, u1, u2):
        u1 = np.asarray(u1, dtype=float)
        u2 = np.asarray(u2, dtype=float)
        return (u1 * u2 - self.ni ** 2) / (self.v2 * (u1 + self.n1)
                                           + self.v1 * (u2 + self.n2))


_RECOMBINATION_KINDS = (ShockleyReadHall, Auger)


def bulk_production(models, u, Phi, e, j) -> np.ndarray:
    """Signed volumetric production rate entering both continuity equations.

    Row k - 1 of the densities ``u``, levels ``Phi`` (2, n) and currents
    ``j`` (2, n, dim) is carrier k's; ``e`` is the field (n, dim).
    Recombination channels enter with a minus sign, generation channels as
    written; carriers are created and destroyed in pairs, so one field
    serves both equations.
    """
    r = np.zeros_like(np.asarray(u[0], dtype=float))
    for m in models:
        if isinstance(m, MassAction):
            r = r + m.eval(*Phi)
        elif isinstance(m, Avalanche):
            r = r + m.eval(e, *j)
        elif isinstance(m, _RECOMBINATION_KINDS):
            r = r - m.eval(*u)
        else:
            raise DomainError(f"unknown bulk model {type(m).__name__}")
    return r
