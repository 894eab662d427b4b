"""Bulk and interfacial reaction models for the carrier system.

Every model names the inputs it reads in ``reads``, out of the fields of
one record, ``ReactionInputs``, and its ``production`` returns its signed
pair production there: mass action and impact ionization their rate as
written below, the trap-assisted and Auger channels minus theirs.  A
sweep builds the record on the cells, where every input is available
and the field and currents are built only when a model reads them, and
on each surface's and interface's faces, with the densities only
(``FACE_INPUTS``).  Impact ionization evaluates ``kappa`` once for both
carriers' currents, with a column of per-carrier thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError

__all__ = [
    "MassAction", "ShockleyReadHall", "Auger", "Avalanche", "SurfaceSRH",
    "ReactionInputs", "FACE_INPUTS", "cannot_read",
    "kappa", "kappa_lipschitz_bound", "bulk_production",
]


class ReactionInputs(NamedTuple):
    """What a model may read at n cells or faces: row k - 1 of the
    densities ``u``, levels ``Phi`` (2, n) and reconstructed current
    vectors ``j`` (2, n, dim) is carrier k's, and ``e`` (n, dim) is the
    cellwise gradient of the electrostatic potential."""
    u: np.ndarray | None = None
    Phi: np.ndarray | None = None
    e: np.ndarray | None = None
    j: np.ndarray | None = None


FACE_INPUTS = ("u",)  # what a surface or interface record holds


def cannot_read(model, available, where: str) -> str | None:
    """Why ``model`` cannot read a record of ``where`` holding the
    ``available`` inputs, naming those it lacks; None when it can."""
    name, reads = type(model).__name__, getattr(model, "reads", None)
    if reads is None:
        return f"{name} is not a reaction model"
    lacking = [key for key in reads if key not in available]
    return f"{name} reads {', '.join(lacking)}, which {where} lacks" \
        if lacking else None


def kappa(e, j, a):
    """Impact ionization kernel |j| exp(-a / |e . j/|j||).

    Zero whenever the current vanishes or is orthogonal to the field.
    ``e`` and ``j`` are arrays of vectors with the component axis last;
    the return drops that axis.  The threshold field ``a`` must be
    positive; an array of thresholds broadcasts against the return.
    """
    if np.any(np.asarray(a) <= 0.0):
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


def kappa_lipschitz_bound(a: float, norm_e1, norm_j2, norm_dj, norm_de):
    """Bound on |kappa(e1,j1,a) - kappa(e2,j2,a)|, valid for all vectors
    (each norm a number or an array).

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
    reads = ("Phi",)
    rate: float = 1.0
    generation: float = 1.0

    def __post_init__(self):
        if not (self.rate >= 0.0 and np.isfinite(self.rate)):
            raise DomainError("mass action rate must be nonnegative")
        if not (self.generation >= 0.0 and np.isfinite(self.generation)):
            raise DomainError("mass action generation level must be nonnegative")

    def production(self, x: ReactionInputs):
        return self.rate * (self.generation - np.exp(x.Phi[0] + x.Phi[1]))


@dataclass(frozen=True)
class ShockleyReadHall:
    """Trap-assisted rate (u1 u2 - ni^2) / (tau2 (u1+n1) + tau1 (u2+n2))."""
    reads = ("u",)
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

    def production(self, x: ReactionInputs):
        u1, u2 = x.u
        return -(u1 * u2 - self.ni ** 2) / (self.tau2 * (u1 + self.n1)
                                            + self.tau1 * (u2 + self.n2))


@dataclass(frozen=True)
class Auger:
    """Three-particle rate (u1 u2 - ni^2) (c1 u1 + c2 u2)."""
    reads = ("u",)
    c1: float = 1.0
    c2: float = 1.0
    ni: float = 1.0

    def __post_init__(self):
        if self.c1 < 0.0 or self.c2 < 0.0:
            raise DomainError("Auger coefficients must be nonnegative")
        if self.ni <= 0.0:
            raise DomainError("intrinsic density must be positive")

    def production(self, x: ReactionInputs):
        u1, u2 = x.u
        return -(u1 * u2 - self.ni ** 2) * (self.c1 * u1 + self.c2 * u2)


@dataclass(frozen=True)
class Avalanche:
    """Impact ionization c1 kappa(e, j1, a1) + c2 kappa(e, j2, a2)."""
    reads = ("e", "j")
    c1: float = 1.0
    c2: float = 1.0
    a1: float = 1.0
    a2: float = 1.0

    def __post_init__(self):
        if self.c1 < 0.0 or self.c2 < 0.0:
            raise DomainError("avalanche prefactors must be nonnegative")
        if self.a1 <= 0.0 or self.a2 <= 0.0:
            raise DomainError("avalanche thresholds must be positive")

    def production(self, x: ReactionInputs):
        k1, k2 = kappa(x.e, x.j, np.reshape(
            (self.a1, self.a2), (2,) + (1,) * (np.ndim(x.j) - 2)))
        return self.c1 * k1 + self.c2 * k2


@dataclass(frozen=True)
class SurfaceSRH:
    """Interfacial trap rate (u1 u2 - ni^2) / (v2 (u1+n1) + v1 (u2+n2))."""
    reads = ("u",)
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

    def production(self, x: ReactionInputs):
        u1, u2 = x.u
        return -(u1 * u2 - self.ni ** 2) / (self.v2 * (u1 + self.n1)
                                            + self.v1 * (u2 + self.n2))


def bulk_production(models, x: ReactionInputs) -> np.ndarray:
    """The models' summed production on the cell record ``x``; carriers
    are made and lost in pairs, so it enters both continuity equations."""
    return sum((m.production(x) for m in models),
               np.zeros_like(x.u[0], dtype=float))
