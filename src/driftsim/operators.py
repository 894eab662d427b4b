"""Finite-volume operator assembly on tensor-product meshes.

Two-point flux approximation with distance-weighted harmonic averaging of
the diagonal coefficient tensors across faces.  Dirichlet boundaries are
eliminated against ghost values at face centers (half-cell distance),
Robin segments add ``eps_gamma * area`` masses to the diagonal, plain
Neumann faces contribute nothing.  The electron/hole continuity operators
use Scharfetter-Gummel exponential fitting, optionally corrected for
degenerate statistics by a facewise degeneracy average (see ``sg_flux``).

A ``Discretization`` holds what a run never changes: the face sets, the
transmissibilities and the one CSC sparsity pattern all matrices share.
A run builds it once, with its Poisson operator, and carries it on
``SimulationResult.disc``, so currents and outputs read it from there.
Matrices are filled straight into that pattern, so no sweep builds a
coordinate list or converts a format.

``SparseOperator.factor`` is the one place that factors.  A pattern that
is tridiagonal in cell order (every 1D mesh of n >= 3 cells) goes to LAPACK
gttrf/gttrs, a few microseconds where SuperLU spends 100 us on set-up.  Any
other (2D, and n <= 2, which scipy's gttrf rejects) goes to SuperLU, with
columns in minimum-degree order of A^T + A, as the pattern is symmetric.

One kernel, ``face_coefficients``, computes a carrier's coefficients on
every stencil face; both the continuity matrix with its Dirichlet load and
the face flux ``a u_lo - b u_hi`` are read off that one result.

Sign conventions: the Poisson operator acts so that ``(P phi)_i``
approximates the cellwise integral of ``-div(eps grad phi)`` plus boundary
closure terms; the continuity matrix ``M`` maps densities to net cell
*outflow* of the mass flux, i.e. the discretization of ``-div j``
integrated over cells (production terms belong on the right-hand side).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Literal

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .device import (DeviceSpec, Mesh, TAG_DIRICHLET, TAG_INTERIOR,
                     TAG_ROBIN, bulk_doping, cell_tensor, sample_series)
from .errors import DomainError, SolverError
from .statistics import StatisticsModel

__all__ = [
    "Discretization", "SparseOperator", "FluxScheme", "FaceCoefficients",
    "bernoulli", "sg_flux", "eta_face", "assemble_poisson",
    "poisson_data_load", "face_coefficients", "assemble_continuity",
    "continuity_face_flux", "apply_surface_load", "face_gradient",
    "cell_average_faces", "solve_linear",
]


def bernoulli(x):
    """Bernoulli function B(x) = x / (e^x - 1), with B(0) = 1.

    The expm1 quotient everywhere, then the series on the entries with
    |x| < 1e-4, where the quotient loses digits (it is 0/0 at x = 0); for
    x beyond the exp overflow point the quotient correctly underflows to 0.
    """
    x = np.asarray(x, dtype=float)
    # out= keeps a 0-d input a 0-d array, which the series can be put into
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.divide(x, np.expm1(x), out=np.empty_like(x))
    small = np.abs(x) < 1e-4
    if small.any():
        xs = x[small]
        out[small] = 1.0 - xs / 2.0 + xs * xs / 12.0 - xs ** 4 / 720.0
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class FluxScheme:
    """Discrete flux variant for the continuity equations.

    ``central`` is the naive centered discretization (kept for
    comparison), ``scharfetter_gummel`` the exponentially fitted scheme,
    and ``scharfetter_gummel_enhanced`` its degeneracy-corrected form,
    which needs the statistics to average eta across each face.
    """
    variants = ("central", "scharfetter_gummel",
                "scharfetter_gummel_enhanced")
    variant: Literal["central", "scharfetter_gummel",
                     "scharfetter_gummel_enhanced"] = "scharfetter_gummel"

    def __post_init__(self):
        if self.variant not in self.variants:
            raise DomainError(f"unknown flux scheme {self.variant!r}")


def eta_face(stats: StatisticsModel, s_lo, s_hi):
    """Face average of the degeneracy factor eta = F/F'.

    Uses the divided difference (s_hi - s_lo)/(ln F(s_hi) - ln F(s_lo)),
    the harmonic path average of eta along the edge; this is the unique
    face constant for which equal quasi-Fermi levels produce exactly zero
    flux.  Falls back to the midpoint value when the arguments coincide.
    """
    if stats.kind == "boltzmann":
        return np.ones_like(np.asarray(s_lo, dtype=float))
    s_lo = np.asarray(s_lo, dtype=float)
    s_hi = np.asarray(s_hi, dtype=float)
    ds = s_hi - s_lo
    close = np.abs(ds) < 1e-6
    mid = stats.eval_eta(0.5 * (s_lo + s_hi))
    dlog = np.log(stats.eval(s_hi)) - np.log(stats.eval(s_lo))
    dlog = np.where(close, 1.0, dlog)
    return np.where(close, mid, ds / dlog)


def _sg_coefficients(scheme: FluxScheme, stats, s_lo, s_hi, dphi, t):
    """Per-face coefficients (a, b) with flux = a*u_lo - b*u_hi."""
    if scheme.variant == "central":
        return t * (1.0 + 0.5 * dphi), t * (1.0 - 0.5 * dphi)
    if scheme.variant == "scharfetter_gummel":
        return t * bernoulli(-dphi), t * bernoulli(dphi)
    eta = eta_face(stats, s_lo, s_hi)
    d = dphi / eta
    return t * eta * bernoulli(-d), t * eta * bernoulli(d)


def sg_flux(scheme: FluxScheme, u_lo, u_hi, s_lo, s_hi, dphi,
            mobility, area, distance, stats: StatisticsModel | None = None):
    """Mass flow through one face, positive from the low to the high side.

    ``dphi`` is the carrier-signed electrostatic drop across the face,
    i.e. (-1)^k (phi_hi - phi_lo); ``s_lo``/``s_hi`` are the statistics
    arguments (chi) on both sides, used only by the enhanced variant;
    ``mobility`` is the edge value, already averaged.  Densities must be
    positive.
    """
    u_lo = np.asarray(u_lo, dtype=float)
    u_hi = np.asarray(u_hi, dtype=float)
    if np.any(u_lo <= 0.0) or np.any(u_hi <= 0.0):
        raise DomainError("sg_flux requires positive densities")
    if scheme.variant == "scharfetter_gummel_enhanced" and stats is None:
        raise DomainError("enhanced flux needs the statistics model")
    t = np.asarray(mobility, dtype=float) * np.asarray(area, dtype=float) \
        / np.asarray(distance, dtype=float)
    a, b = _sg_coefficients(scheme, stats, np.asarray(s_lo, dtype=float),
                            np.asarray(s_hi, dtype=float),
                            np.asarray(dphi, dtype=float), t)
    out = a * u_lo - b * u_hi
    if out.ndim == 0:
        return float(out)
    return out


class Discretization:
    """Face sets, transmissibilities and sparsity pattern of one mesh.

    Interior faces ``interior`` join cells ``lo`` and ``hi`` at distance
    ``span``.  Dirichlet face ``dirichlet`` of contact ``contact`` touches
    ``cell`` at distance ``ghost_distance``; its ghost value sits on the
    high side where ``on_lo_side`` holds.  Robin faces add ``robin_coeff``
    to the diagonal of ``robin_cell``, loaded by segment ``robin_segment``.
    ``transmissibility[name]`` (eps, mu1, mu2) holds the interior and the
    Dirichlet face transmissibilities.  The CSC pattern, structurally
    symmetric, holds the full diagonal (at ``diagonal_slots`` of the data)
    and the (lo, hi) and (hi, lo) entries of every interior face.  If it is
    tridiagonal (n >= 3, interior face j joins cells j and j + 1), ``bands``
    holds the data slots of the sub-, main and super-diagonal, else None.
    """

    def __init__(self, device: DeviceSpec, mesh: Mesh):
        self.mesh = mesh
        n = self.n_cells = mesh.n_cells
        inner = self.interior = np.flatnonzero(mesh.face_tag == TAG_INTERIOR)
        self.lo, self.hi = mesh.face_cells[inner].T.copy()
        bound = self.dirichlet = np.flatnonzero(mesh.face_tag == TAG_DIRICHLET)
        self.on_lo_side = mesh.face_cells[bound, 0] >= 0
        # a boundary face has -1 on its outer side, so max() is its cell
        self.cell = mesh.face_cells[bound].max(axis=1)
        self.contact = mesh.face_contact[bound]
        segment_of = np.full(mesh.n_faces, -1)
        for s, faces in enumerate(mesh.robin_faces):
            segment_of[faces] = s
        robin = np.flatnonzero(mesh.face_tag == TAG_ROBIN)
        self.robin_segment = segment_of[robin]
        self.robin_cell = mesh.face_cells[robin].max(axis=1)
        self.robin_coeff = mesh.face_area[robin] * np.array(
            [device.robin[s].eps_gamma for s in self.robin_segment])
        dl, dr, axis = (a[inner] for a in (mesh.face_dl, mesh.face_dr,
                                           mesh.face_axis))
        self.span = dl + dr
        dist = self.ghost_distance = np.where(
            self.on_lo_side, mesh.face_dl[bound], mesh.face_dr[bound])
        self.transmissibility = {}
        for name in ("eps", "mu1", "mu2"):
            k = cell_tensor(device, mesh, name)
            with np.errstate(divide="ignore"):
                t = mesh.face_area[inner] / (dl / k[self.lo, axis]
                                             + dr / k[self.hi, axis])
            self.transmissibility[name] = (t, mesh.face_area[bound] * k[
                self.cell, mesh.face_axis[bound]] / dist)

        # entries in fill order: the diagonal, then (lo, hi) and (hi, lo)
        # of each interior face; sorted by column, then row, they are CSC
        rows = np.concatenate([np.arange(n), self.lo, self.hi])
        cols = np.concatenate([np.arange(n), self.hi, self.lo])
        self._order = np.lexsort((rows, cols))
        self._template = sp.csc_matrix((np.zeros(rows.size), (rows, cols)),
                                       shape=(n, n))
        for index in (self._template.indices, self._template.indptr):
            index.flags.writeable = False  # every matrix here shares them
        slots = np.argsort(self._order)
        self.diagonal_slots = slots[:n]
        self.bands = (slots[2 * n - 1:], slots[:n], slots[n:2 * n - 1]) \
            if n >= 3 and np.array_equal(self.lo, np.arange(n - 1)) \
            and np.array_equal(self.hi, self.lo + 1) else None
        # the cell of each face term on a continuity diagonal, in order
        self.continuity_rows = np.concatenate([self.lo, self.hi, self.cell])

    def matrix(self, diagonal, upper, lower) -> sp.csc_matrix:
        """The matrix with ``diagonal``, ``upper`` at each interior face's
        (lo, hi) entry and ``lower`` at its (hi, lo) entry."""
        return self.csc(np.concatenate([diagonal, upper, lower])[self._order])

    def csc(self, data: np.ndarray) -> sp.csc_matrix:
        """The matrix whose data array, in pattern order, is ``data``."""
        # a shallow copy shares the pattern, and its canonical flag, which
        # scipy set once, instead of having its constructor check it again
        out = copy.copy(self._template)
        out.data = data
        return out


class _TridiagonalLU:
    """LAPACK gttrf factors of CSC ``data`` on ``bands``, solved by gttrs."""

    def __init__(self, data: np.ndarray, bands):
        *self._factors, info = lapack.dgttrf(*(data[s] for s in bands))
        if info > 0:
            raise RuntimeError(f"Factor is exactly singular (row {info - 1})")

    def solve(self, b: np.ndarray) -> np.ndarray:
        return lapack.dgttrs(*self._factors, b)[0]


@dataclass
class SparseOperator:
    """A matrix on its ``Discretization``'s pattern and its cached factors."""
    matrix: sp.csc_matrix
    disc: Discretization

    _lu: object = field(default=None, repr=False, compare=False)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def factor(self):
        """LU factors with a ``solve(b)``; RuntimeError if exactly singular."""
        if self._lu is None:
            bands = self.disc.bands
            if bands is None:
                self._lu = spla.splu(self.matrix, permc_spec="MMD_AT_PLUS_A")
            else:
                self._lu = _TridiagonalLU(self.matrix.data, bands)
        return self._lu

    def shifted(self, diagonal: np.ndarray) -> sp.csc_matrix:
        """The matrix plus ``diag(diagonal)``, on the same pattern."""
        data = self.matrix.data.copy()
        data[self.disc.diagonal_slots] += diagonal
        return self.disc.csc(data)


def assemble_poisson(device: DeviceSpec, mesh: Mesh) -> SparseOperator:
    """Robin-Poisson operator: diffusion in eps + Robin masses + Dirichlet closure."""
    disc = Discretization(device, mesh)
    t, tb = disc.transmissibility["eps"]
    diagonal = np.bincount(
        np.concatenate([disc.lo, disc.hi, disc.cell, disc.robin_cell]),
        np.concatenate([t, t, tb, disc.robin_coeff]), minlength=disc.n_cells)
    return SparseOperator(matrix=disc.matrix(diagonal, -t, -t), disc=disc)


def poisson_data_load(device: DeviceSpec, op: SparseOperator,
                      t: float) -> np.ndarray:
    """Right-hand side carrying doping, Dirichlet lifts, and Robin loads at
    time t, on the mesh of ``op``."""
    disc = op.disc
    mesh = disc.mesh
    load = mesh.cell_volumes * bulk_doping(device, mesh)
    for sheet, faces in zip(device.doping.sheets, mesh.sheet_faces):
        load += apply_surface_load(mesh, faces, sheet.density)
    phi_d = np.array([c.values(t)[0] for c in device.contacts])
    np.add.at(load, disc.cell,
              disc.transmissibility["eps"][1] * phi_d[disc.contact])
    phi_g = np.array([sample_series(r.phi_gamma, t) for r in device.robin])
    np.add.at(load, disc.robin_cell,
              disc.robin_coeff * phi_g[disc.robin_segment])
    return load


@dataclass(frozen=True)
class FaceCoefficients:
    """Scharfetter-Gummel coefficients of one carrier on every stencil face.

    The mass flow through a face, positive from its low to its high side,
    is ``a * u_lo - b * u_hi``.  Interior faces couple the cells ``lo`` and
    ``hi`` of ``disc`` with coefficients ``a``/``b``.  A Dirichlet face
    couples its one cell with the ghost density ``u_d`` at the face center
    through ``a_d``/``b_d``.
    """
    disc: Discretization
    a: np.ndarray
    b: np.ndarray
    a_d: np.ndarray
    b_d: np.ndarray
    u_d: np.ndarray

    def flux(self, u: np.ndarray) -> np.ndarray:
        """Facewise mass flow for cell densities ``u``; zero off the stencil."""
        d = self.disc
        out = np.zeros(d.mesh.n_faces)
        out[d.interior] = self.a * u[d.lo] - self.b * u[d.hi]
        u_lo = np.where(d.on_lo_side, u[d.cell], self.u_d)
        u_hi = np.where(d.on_lo_side, self.u_d, u[d.cell])
        out[d.dirichlet] = self.a_d * u_lo - self.b_d * u_hi
        return out

    def system(self, diagonal: np.ndarray | None = None,
               ) -> tuple[sp.csc_matrix, np.ndarray]:
        """Net-outflow matrix M (plus ``diagonal``, if given) and Dirichlet load.

        ``M u - load`` is the cellwise divergence of ``flux(u)``.  The
        optional ``diagonal`` (a time-derivative mass, say) is summed into
        each diagonal entry after the face contributions.
        """
        d = self.disc
        inner = np.where(d.on_lo_side, self.a_d, self.b_d)
        outer = np.where(d.on_lo_side, self.b_d, self.a_d)
        main = np.bincount(d.continuity_rows, np.concatenate(
            [self.a, self.b, inner]), minlength=d.n_cells)
        if diagonal is not None:
            main += diagonal
        load = np.bincount(d.cell, outer * self.u_d, minlength=d.n_cells)
        return d.matrix(main, -self.b, -self.a), load


def face_coefficients(disc: Discretization, stats: StatisticsModel,
                      scheme: FluxScheme, k: int, phi: np.ndarray,
                      chi: np.ndarray, contact_values: list[tuple[float, float]],
                      ) -> FaceCoefficients:
    """The continuity kernel: carrier k's coefficients on all stencil faces.

    ``contact_values`` holds one (phi_D, Phi_D) pair per contact, already
    sampled at the step time; the Dirichlet ghost densities are
    F(Phi_D + (-1)^k phi_D).
    """
    if k not in (1, 2):
        raise DomainError(f"carrier index must be 1 or 2, got {k}")
    sign = -1.0 if k == 1 else 1.0
    t, tb = disc.transmissibility["mu1" if k == 1 else "mu2"]
    lo, hi, cell, on_lo_side = disc.lo, disc.hi, disc.cell, disc.on_lo_side
    dphi = sign * (phi[hi] - phi[lo])
    a, b = _sg_coefficients(scheme, stats, chi[lo], chi[hi], dphi, t)

    phi_d, Phi_d = np.asarray(contact_values, dtype=float).reshape(-1, 2)[
        disc.contact].T
    chi_d = Phi_d + sign * phi_d
    u_d = stats.eval(chi_d)
    # ghost sits on the high side of the face when the cell is the low
    # side, and vice versa; dphi is always high minus low
    dphi_b = np.where(on_lo_side, sign * (phi_d - phi[cell]),
                      sign * (phi[cell] - phi_d))
    s_lo = np.where(on_lo_side, chi[cell], chi_d)
    s_hi = np.where(on_lo_side, chi_d, chi[cell])
    a_d, b_d = _sg_coefficients(scheme, stats, s_lo, s_hi, dphi_b, tb)
    return FaceCoefficients(disc=disc, a=a, b=b, a_d=a_d, b_d=b_d, u_d=u_d)


def assemble_continuity(device: DeviceSpec, mesh: Mesh, stats: StatisticsModel,
                        scheme: FluxScheme, k: int, phi: np.ndarray,
                        chi: np.ndarray, contact_values: list[tuple[float, float]],
                        ) -> tuple[sp.csc_matrix, np.ndarray]:
    """Steady continuity matrix M (net outflow of carrier k) and its load.

    Arguments as for ``face_coefficients``, on a ``Discretization`` of
    ``mesh``.  The returned load carries only the Dirichlet contributions;
    production terms are the caller's business.
    """
    return face_coefficients(Discretization(device, mesh), stats, scheme, k,
                             phi, chi, contact_values).system()


def continuity_face_flux(device: DeviceSpec, mesh: Mesh,
                         stats: StatisticsModel, scheme: FluxScheme, k: int,
                         phi: np.ndarray, chi: np.ndarray,
                         contact_values: list[tuple[float, float]],
                         ) -> np.ndarray:
    """Facewise mass flow of carrier k, positive from the low to high side.

    Built from the same ``face_coefficients`` as ``assemble_continuity``,
    so the divergence of this field reproduces M u minus the Dirichlet
    load by construction.  Faces without a flux stencil (insulated,
    Robin, surface) report zero; their physical flux lives in the
    boundary loads.
    """
    return face_coefficients(Discretization(device, mesh), stats, scheme, k,
                             phi, chi, contact_values).flux(stats.eval(chi))


def apply_surface_load(mesh: Mesh, faces: np.ndarray, rate) -> np.ndarray:
    """Distribute a per-area face rate into adjacent cells.

    Boundary faces deposit ``rate * area`` into their single cell,
    interior faces half to each neighbor; the total injected mass equals
    sum(rate * area) exactly (same additions, reassociated).
    """
    faces = np.asarray(faces, dtype=int)
    rate = np.broadcast_to(np.asarray(rate, dtype=float), faces.shape)
    out = np.zeros(mesh.n_cells)
    total = rate * mesh.face_area[faces]
    lo = mesh.face_cells[faces, 0]
    hi = mesh.face_cells[faces, 1]
    both = (lo >= 0) & (hi >= 0)
    np.add.at(out, lo[both], 0.5 * total[both])
    np.add.at(out, hi[both], 0.5 * total[both])
    only = ~both
    np.add.at(out, np.where(lo[only] >= 0, lo[only], hi[only]), total[only])
    return out


def face_gradient(disc: Discretization, values: np.ndarray,
                  contact_values: np.ndarray | None = None) -> np.ndarray:
    """Axis-directed first difference of a cell field at every face.

    Interior faces use the two-point difference over the center-to-center
    distance, Dirichlet faces the half-cell difference against the ghost
    value at the face center (``contact_values`` indexed by contact id).
    Other boundary faces report zero, which is the consistent value for
    insulated segments and a deliberate approximation for Robin ones.
    """
    g = np.zeros(disc.mesh.n_faces)
    g[disc.interior] = (values[disc.hi] - values[disc.lo]) / disc.span
    if disc.dirichlet.size:
        if contact_values is None:
            raise DomainError("face_gradient needs contact values on "
                              "meshes with Dirichlet faces")
        ghost = np.asarray(contact_values, dtype=float)[disc.contact]
        g[disc.dirichlet] = np.where(disc.on_lo_side,
                                     ghost - values[disc.cell],
                                     values[disc.cell] - ghost) \
            / disc.ghost_distance
    return g


def cell_average_faces(mesh: Mesh, face_values: np.ndarray) -> np.ndarray:
    """Average a per-face quantity to cells, one column per axis."""
    face_values = np.asarray(face_values, dtype=float)
    return 0.5 * (face_values[mesh.cell_face_lo]
                  + face_values[mesh.cell_face_hi])


_SOLVE_RTOL = 1e-12  # residual contract of solve_linear, relative to ||b||


def solve_linear(op: SparseOperator, b: np.ndarray) -> np.ndarray:
    """Direct solve with an explicit residual contract.

    Factorizes once (cached on the operator), applies one step of
    iterative refinement if the residual check fails, and raises
    SolverError when ||Ax-b|| > _SOLVE_RTOL * ||b|| persists.
    """
    matrix, lu = op.matrix, op.factor()
    b = np.asarray(b, dtype=float)
    x = lu.solve(b)
    scale = max(float(np.linalg.norm(b)), np.finfo(float).tiny)
    res = np.linalg.norm(matrix @ x - b)
    if res > _SOLVE_RTOL * scale:
        x = x + lu.solve(b - matrix @ x)
        res = np.linalg.norm(matrix @ x - b)
        if res > _SOLVE_RTOL * scale:
            raise SolverError(
                f"linear solve residual {res:.3e} exceeds "
                f"{_SOLVE_RTOL:.1e} * ||b||",
                residual=float(res))
    return x
