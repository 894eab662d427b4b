"""Finite-volume operator assembly on tensor-product meshes.

Two-point flux approximation with distance-weighted harmonic averaging of
the diagonal coefficient tensors across faces.  A Dirichlet face joins
its cell to a ghost, the contact's value at the face center (half-cell
distance), so it is one more stencil face.  Robin segments add
``eps_gamma * area`` masses to the diagonal, Neumann faces nothing.
The electron/hole continuity operators use Scharfetter-Gummel fitting,
optionally corrected for degenerate statistics (see ``sg_flux``).

A ``Discretization`` holds what a run never changes: the stencil, the
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


def eta_face(stats: StatisticsModel, s_lo, s_hi, u_lo, u_hi):
    """Face average of the degeneracy factor eta = F/F'.

    Uses the divided difference (s_hi - s_lo)/(ln u_hi - ln u_lo) of the
    face-side densities u = F(s), the harmonic path average of eta along the
    edge; the unique face constant for which equal quasi-Fermi levels give
    exactly zero flux.  Falls back to the midpoint when the s coincide.
    """
    if stats.kind == "boltzmann":
        return np.ones_like(np.asarray(s_lo, dtype=float))
    s_lo = np.asarray(s_lo, dtype=float)
    s_hi = np.asarray(s_hi, dtype=float)
    ds = s_hi - s_lo
    close = np.abs(ds) < 1e-6
    mid = stats.eval_eta(0.5 * (s_lo + s_hi))
    dlog = np.log(u_hi) - np.log(u_lo)
    dlog = np.where(close, 1.0, dlog)
    return np.where(close, mid, ds / dlog)


def _sg_coefficients(scheme: FluxScheme, face_eta, dphi, t):
    """Per-face coefficients (a, b) with flux = a*u_lo - b*u_hi; only the
    enhanced variant calls ``face_eta()`` for its degeneracy factors."""
    if scheme.variant == "central":
        return t * (1.0 + 0.5 * dphi), t * (1.0 - 0.5 * dphi)
    if scheme.variant == "scharfetter_gummel":
        return t * bernoulli(-dphi), t * bernoulli(dphi)
    eta = face_eta()
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
    a, b = _sg_coefficients(scheme, lambda: eta_face(
        stats, s_lo, s_hi, stats.eval(s_lo), stats.eval(s_hi)),
        np.asarray(dphi, dtype=float), t)
    out = a * u_lo - b * u_hi
    if out.ndim == 0:
        return float(out)
    return out


class Discretization:
    """Flux stencil, transmissibilities and sparsity pattern of one mesh.

    Stencil face j (mesh face ``faces[j]``) joins ``lo[j]`` to ``hi[j]`` at
    distance ``span[j]``: first the ``n_interior`` interior faces, then the
    Dirichlet faces, whose outer side is ghost ``n_cells + i`` for the i-th,
    holding contact ``contact[i]``'s value at the face center; so a cell
    field extended by its ghost values is read alike on every face, with
    ``transmissibility[name]`` (eps, mu1, mu2).  Robin faces add
    ``robin_coeff`` to the diagonal of ``robin_cell``, loaded by segment
    ``robin_segment``.  The CSC pattern, structurally symmetric, holds the
    full diagonal (at ``diagonal_slots`` of the data) and the (lo, hi) and
    (hi, lo) entries of every interior face.  If it is tridiagonal (n >= 3,
    interior face j joins cells j and j + 1), ``bands`` holds the data
    slots of the sub-, main and super-diagonal, else None.
    """

    def __init__(self, device: DeviceSpec, mesh: Mesh):
        self.mesh = mesh
        n = self.n_cells = mesh.n_cells
        inner = np.flatnonzero(mesh.face_tag == TAG_INTERIOR)
        bound = np.flatnonzero(mesh.face_tag == TAG_DIRICHLET)
        m = self.n_interior = inner.size
        faces = self.faces = np.concatenate([inner, bound])
        self.contact = mesh.face_contact[bound]
        # a boundary face has -1 on its outer side, where its ghost goes
        cells = mesh.face_cells[faces]
        ghost = np.concatenate([np.full(m, -1), n + np.arange(bound.size)])
        self.lo, self.hi = np.where(cells < 0, ghost[:, None], cells).T.copy()
        segment_of = np.full(mesh.n_faces, -1)
        for s, robin_faces in enumerate(mesh.robin_faces):
            segment_of[robin_faces] = s
        robin = np.flatnonzero(mesh.face_tag == TAG_ROBIN)
        self.robin_segment = segment_of[robin]
        self.robin_cell = mesh.face_cells[robin].max(axis=1)
        self.robin_coeff = mesh.face_area[robin] * np.array(
            [device.robin[s].eps_gamma for s in self.robin_segment])
        dl, dr, axis, area = (a[faces] for a in (
            mesh.face_dl, mesh.face_dr, mesh.face_axis, mesh.face_area))
        self.span = dl + dr
        lo, hi, cell = self.lo[:m], self.hi[:m], cells[m:].max(axis=1)
        self.transmissibility = {}
        for name in ("eps", "mu1", "mu2"):
            k = cell_tensor(device, mesh, name)
            with np.errstate(divide="ignore"):
                t = area[:m] / (dl[:m] / k[lo, axis[:m]]
                                + dr[:m] / k[hi, axis[:m]])
            self.transmissibility[name] = np.concatenate(
                [t, area[m:] * k[cell, axis[m:]] / self.span[m:]])

        # term j of concatenate([a, b]) is a_j, weight of face j's lo value,
        # and term faces.size + j is b_j.  Diagonals sum interior a's, interior
        # b's, then contact faces' cell-side terms (one fixed rounding order);
        # the ghost-side terms load the cells
        j = np.arange(m, faces.size)
        terms = np.concatenate([np.arange(m), faces.size + np.arange(m),
                                j + faces.size * (self.lo[j] >= n)])
        self._diagonal = (np.concatenate([lo, hi, cell]), terms)
        self._ghost_load = (cell, j + faces.size * (self.hi[j] >= n))

        # entries in fill order: the diagonal, then (lo, hi) and (hi, lo)
        # of each interior face; sorted by column, then row, they are CSC
        rows = np.concatenate([np.arange(n), lo, hi])
        cols = np.concatenate([np.arange(n), hi, lo])
        self._order = np.lexsort((rows, cols))
        self._template = sp.csc_matrix((np.zeros(rows.size), (rows, cols)),
                                       shape=(n, n))
        for index in (self._template.indices, self._template.indptr):
            index.flags.writeable = False  # every matrix here shares them
        slots = np.argsort(self._order)
        self.diagonal_slots = slots[:n]
        self.bands = (slots[2 * n - 1:], slots[:n], slots[n:2 * n - 1]) \
            if n >= 3 and np.array_equal(lo, np.arange(n - 1)) \
            and np.array_equal(hi, lo + 1) else None

    def diagonal(self, a, b, cells, values) -> np.ndarray:
        """Diagonal of a stencil operator with face coefficients ``a``/``b``,
        plus ``values`` summed into ``cells`` after the face terms."""
        rows, terms = self._diagonal
        return np.bincount(np.concatenate([rows, cells]), np.concatenate(
            [np.concatenate([a, b])[terms], values]), minlength=self.n_cells)

    def ghost_load(self, a, b, ghost: np.ndarray, out: np.ndarray):
        """Add the ghost columns' right-hand side into ``out``: each contact
        face's ghost-side coefficient times its ``ghost`` value."""
        cells, terms = self._ghost_load
        np.add.at(out, cells, np.concatenate([a, b])[terms] * ghost)
        return out

    def matrix(self, diagonal, upper, lower) -> sp.csc_matrix:
        """The matrix with ``diagonal``, ``upper[j]`` at the (lo, hi) entry
        and ``lower[j]`` at the (hi, lo) entry of each interior face j."""
        m = self.n_interior
        return self.csc(np.concatenate([diagonal, upper[:m],
                                        lower[:m]])[self._order])

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
    t = disc.transmissibility["eps"]
    diagonal = disc.diagonal(t, t, disc.robin_cell, disc.robin_coeff)
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
    eps = disc.transmissibility["eps"]
    disc.ghost_load(eps, eps, phi_d[disc.contact], load)
    phi_g = np.array([sample_series(r.phi_gamma, t) for r in device.robin])
    np.add.at(load, disc.robin_cell,
              disc.robin_coeff * phi_g[disc.robin_segment])
    return load


@dataclass(frozen=True)
class FaceCoefficients:
    """Scharfetter-Gummel coefficients of one carrier on every stencil face.

    ``u`` holds the densities F(chi) the coefficients were evaluated at:
    the cells, then the ghosts at the Dirichlet face centers.  The mass
    flow through stencil face j of ``disc``, positive from its low to its
    high side, is ``a[j] * u[lo[j]] - b[j] * u[hi[j]]``.
    """
    disc: Discretization
    a: np.ndarray
    b: np.ndarray
    u: np.ndarray

    def flux(self) -> np.ndarray:
        """Facewise mass flow of the densities ``u``; zero off the stencil."""
        d = self.disc
        out = np.zeros(d.mesh.n_faces)
        out[d.faces] = self.a * self.u[d.lo] - self.b * self.u[d.hi]
        return out

    def system(self, diagonal) -> tuple[sp.csc_matrix, np.ndarray]:
        """Net-outflow matrix M plus ``diagonal``, and the Dirichlet load.

        ``M u[:n_cells] - load`` is the cellwise divergence of ``flux()``.
        The ``diagonal`` (a time-derivative mass, say, or zeros) is summed
        into each diagonal entry after the face contributions.
        """
        d, n = self.disc, self.disc.n_cells
        main = d.diagonal(self.a, self.b, np.arange(n), diagonal)
        load = d.ghost_load(self.a, self.b, self.u[n:], np.zeros(n))
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
    phi_d, Phi_d = np.asarray(contact_values, dtype=float).reshape(-1, 2)[
        disc.contact].T
    phi = np.concatenate([phi, phi_d])
    chi = np.concatenate([chi, Phi_d + sign * phi_d])
    u = stats.eval(chi)
    lo, hi = disc.lo, disc.hi
    a, b = _sg_coefficients(scheme, lambda: eta_face(
        stats, chi[lo], chi[hi], u[lo], u[hi]), sign * (phi[hi] - phi[lo]),
        disc.transmissibility["mu1" if k == 1 else "mu2"])
    return FaceCoefficients(disc=disc, a=a, b=b, u=u)


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
                             phi, chi, contact_values).system(
                                 np.zeros(mesh.n_cells))


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
                             phi, chi, contact_values).flux()


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
                  contact_values: np.ndarray) -> np.ndarray:
    """Axis-directed first difference of a cell field at every face.

    Stencil faces difference ``values``, extended by the ghost values
    (``contact_values`` indexed by contact id), over their ``span``.  Other
    boundary faces report zero, which is the consistent value for insulated
    segments and a deliberate approximation for Robin ones.
    """
    values = np.concatenate([values, np.asarray(contact_values,
                                                dtype=float)[disc.contact]])
    g = np.zeros(disc.mesh.n_faces)
    g[disc.faces] = (values[disc.hi] - values[disc.lo]) / disc.span
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
