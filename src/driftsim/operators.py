"""Finite-volume operator assembly on tensor-product meshes.

Two-point flux approximation with distance-weighted harmonic averaging of
the diagonal coefficient tensors across faces.  A Dirichlet face joins
its cell to a ghost, the contact's value at the face center (half-cell
distance), so it is one more stencil face.  Robin segments add
``eps_gamma * area`` masses to the diagonal, Neumann faces nothing.
The electron/hole continuity operators use Scharfetter-Gummel fitting,
optionally corrected for degenerate statistics (see ``FluxScheme``).

A ``Discretization`` holds what a run never changes: the device, the
stencil, the transmissibilities and the sparsity pattern all matrices
share.  A run builds it once, with its Poisson operator, and carries it
on ``SimulationResult.disc``, so currents and outputs read it from
there.

Every matrix is a ``SparseOperator``: its stencil values, one diagonal
and one coefficient for each side of every interior face, so no sweep
builds a coordinate list or converts a format.  On a pattern that is
tridiagonal in cell order (every 1D mesh of n >= 3 cells, flagged by
``Discretization.bands``) those values are the three bands: the product
is band arithmetic in the summation order of scipy's CSC product, so bit
for bit the same, and LAPACK gttrf/gttrs factors and solves straight
from the bands, a few microseconds where SuperLU spends 100 us on
set-up.  A 1D sweep is bound by call overhead, not arithmetic, so it
builds no scipy.sparse matrix.  Any other pattern (2D, and n <= 2,
which scipy's gttrf rejects) gathers the values into a CSC matrix that
shares the ``Discretization``'s index arrays and goes to SuperLU, with
columns in minimum-degree order of A^T + A, as the pattern is symmetric.
``SparseOperator.factor`` is the one place that factors.
SuperLU factors through its ILU driver with nothing dropped and with
unrelaxed supernodes: the same exact LU as ``splu``, on a workspace sized
to the fill instead of one reserved for a worst case.  On that path
``solve_linear`` can solve a system by iterative refinement from the
factor of a nearby one held in a ``FactorSlot``, and factors afresh only
when refinement misses the residual target; a solve sequence of slowly
changing systems (one time step's sweeps, a run's potential Newton
Jacobians) then takes one factor per family instead of one per solve.
The target belongs to the caller, and one rule stops the refinement: a
target looser than the 1e-12 contract (a Newton direction's forcing
term) ends it as soon as it is met, while a final answer at the contract
is refined to the rounding floor.  Every solve returns its residual
with the answer, so a caller that reports it forms it once.

One kernel, ``carrier_face_coefficients``, computes both carriers'
coefficients on every stencil face from densities its caller evaluated:
the decoupling loop hands it the cells' densities from the potential
solve and the Dirichlet ghosts' from one evaluation per time step, and
``evaluate_face_coefficients`` serves every other caller with one
evaluation of cells and ghosts.  Each carrier's continuity matrix with
its Dirichlet load, and both face fluxes ``a u_lo - b u_hi`` as one
(2, n_faces) array, are read off that one result.

Sign conventions: the Poisson operator acts so that ``(P phi)_i``
approximates the cellwise integral of ``-div(eps grad phi)`` plus boundary
closure terms; the continuity matrix ``M`` maps densities to net cell
*outflow* of the mass flux, i.e. the discretization of ``-div j``
integrated over cells (production terms belong on the right-hand side).
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass
from typing import Literal

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .device import (DeviceSpec, Mesh, TAG_DIRICHLET, TAG_INTERIOR,
                     TAG_ROBIN, bulk_doping, cell_tensor, contact_values,
                     sample_series)
from .errors import DomainError, SolverError
from .statistics import StatisticsModel, carrier_arguments, eval_carriers

__all__ = [
    "Discretization", "SparseOperator", "FluxScheme",
    "FaceCoefficients", "bernoulli", "eta_face", "assemble_poisson",
    "poisson_data_load", "ghost_arguments", "with_ghosts",
    "carrier_face_coefficients", "evaluate_face_coefficients",
    "assemble_continuity", "continuity_face_flux", "apply_surface_load",
    "face_gradient",
    "cell_average_faces", "FactorSlot", "solve_linear",
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
        # x2 * x2 may differ from xs ** 4 in its last bit, but below 1e-4
        # the x^4/720 term is under half an ulp of the sum it joins, so B
        # is the same, and the libm pow behind ** 4 is skipped
        x2 = xs * xs
        out[small] = 1.0 - xs / 2.0 + x2 / 12.0 - x2 * x2 / 720.0
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class FluxScheme:
    """Discrete flux variant for the continuity equations.

    ``scharfetter_gummel`` is the exponentially fitted scheme, and
    ``scharfetter_gummel_enhanced`` its degeneracy-corrected form, which
    needs the statistics to average eta across each face.
    """
    variants = ("scharfetter_gummel", "scharfetter_gummel_enhanced")
    variant: Literal["scharfetter_gummel",
                     "scharfetter_gummel_enhanced"] = "scharfetter_gummel"

    def __post_init__(self):
        if self.variant not in self.variants:
            raise DomainError(f"unknown flux scheme {self.variant!r}")


def eta_face(stats: StatisticsModel, s_lo, s_hi, u_lo, u_hi):
    """Face average of the degeneracy factor eta = F/F'.

    Uses the divided difference (s_hi - s_lo)/(ln u_hi - ln u_lo) of the
    face-side densities u = F(s), the harmonic path average of eta along the
    edge; the unique face constant for which equal quasi-Fermi levels give
    exactly zero flux.  Falls back to the midpoint on the faces where the
    s coincide, and evaluates eta only there.
    """
    if stats.kind == "boltzmann":
        return np.ones_like(np.asarray(s_lo, dtype=float))
    s_lo = np.asarray(s_lo, dtype=float)
    s_hi = np.asarray(s_hi, dtype=float)
    ds = s_hi - s_lo
    close = np.abs(ds) < 1e-6
    dlog = np.log(u_hi) - np.log(u_lo)
    eta = np.asarray(ds / np.where(close, 1.0, dlog))
    if np.any(close):
        eta[close] = stats.eval_eta((0.5 * (s_lo + s_hi))[close])
    return eta


class Discretization:
    """Flux stencil, transmissibilities and sparsity pattern of ``mesh``,
    and the ``device`` it was built from, whose boundary and reaction data
    every call that holds the discretization reads from here.

    Stencil face j (mesh face ``faces[j]``) joins ``lo[j]`` to ``hi[j]`` at
    distance ``span[j]``: first the ``n_interior`` interior faces, then the
    Dirichlet faces, whose outer side is ghost ``n_cells + i`` for the i-th,
    holding contact ``contact[i]``'s value at the face center; so a cell
    field extended by its ghost values is read alike on every face, with
    the rows (eps, mu1, mu2) of ``transmissibility``.  Robin faces add
    ``robin_coeff`` to the diagonal of ``robin_cell``, loaded by segment
    ``robin_segment``.  The pattern, structurally symmetric, holds the
    full diagonal and the (lo, hi) and (hi, lo) entries of every interior
    face, and every matrix on it is a ``SparseOperator`` of those values.
    ``bands`` is True when the pattern is tridiagonal (n >= 3, interior
    face j joins cells j and j + 1), so the values are the three bands;
    ``csc`` gathers them into a CSC matrix, and every CSC matrix of the
    pattern shares one set of read-only index arrays.
    """

    def __init__(self, device: DeviceSpec, mesh: Mesh):
        self.device = device
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
        self.transmissibility = np.empty((3, faces.size))
        for t, name in zip(self.transmissibility, ("eps", "mu1", "mu2")):
            k = cell_tensor(device, mesh, name)
            with np.errstate(divide="ignore"):
                t[:m] = area[:m] / (dl[:m] / k[lo, axis[:m]]
                                    + dr[:m] / k[hi, axis[:m]])
            t[m:] = area[m:] * k[cell, axis[m:]] / self.span[m:]

        # term j of concatenate([a, b]) is a_j, weight of face j's lo value,
        # and term faces.size + j is b_j.  Diagonals sum interior a's, interior
        # b's, then contact faces' cell-side terms (one fixed rounding order);
        # the ghost-side terms load the cells
        j = np.arange(m, faces.size)
        terms = np.concatenate([np.arange(m), faces.size + np.arange(m),
                                j + faces.size * (self.lo[j] >= n)])
        self._diagonal = (np.concatenate([lo, hi, cell]), terms)
        self._ghost_load = (cell, j + faces.size * (self.hi[j] >= n))

        self.bands = n >= 3 and np.array_equal(lo, np.arange(n - 1)) \
            and np.array_equal(hi, lo + 1)

    def check_matches(self, device: DeviceSpec, mesh: Mesh | None = None):
        """Raise DomainError unless ``device`` equals this discretization's
        and ``mesh``, when given, was built from an equal device."""
        if device != self.device:
            raise DomainError("device differs from the discretization's")
        if mesh is not None and mesh.device != device:
            raise DomainError("mesh differs from the discretization's")

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

    def csc(self, diagonal, upper, lower) -> sp.csc_matrix:
        """The CSC matrix with ``diagonal``, ``upper[j]`` at the (lo, hi)
        entry and ``lower[j]`` at the (hi, lo) entry of interior face j."""
        order, template = self._csc_layout
        # a shallow copy shares the pattern, and its canonical flag, which
        # scipy set once, instead of having its constructor check it again
        out = copy.copy(template)
        out.data = np.concatenate([diagonal, upper, lower])[order]
        return out

    @functools.cached_property
    def _csc_layout(self) -> tuple[np.ndarray, sp.csc_matrix]:
        """The gather from ``csc``'s fill order to CSC order, and a zero
        matrix on the pattern whose read-only index arrays every CSC
        matrix shares; built on first use, so a run on ``bands`` makes
        none."""
        # entries in fill order: the diagonal, then (lo, hi) and (hi, lo)
        # of each interior face; sorted by column, then row, they are CSC
        n, m = self.n_cells, self.n_interior
        rows = np.concatenate([np.arange(n), self.lo[:m], self.hi[:m]])
        cols = np.concatenate([np.arange(n), self.hi[:m], self.lo[:m]])
        template = sp.csc_matrix((np.zeros(rows.size), (rows, cols)),
                                 shape=(n, n))
        for index in (template.indices, template.indptr):
            index.flags.writeable = False  # every matrix shares them
        return np.lexsort((rows, cols)), template


# SuperLU's ILU driver grows its L and U workspace by realloc from
# _FILL_FACTOR * nnz(A).  Per 64x64 junction factor, interleaved against
# splu (2 vCPUs, scipy 1.17.1): F = 2 took 1.24x splu's time (the growth
# reallocs), F = 3-5 1.02-1.05x, F = 7 and 10 1.07x and 1.12x; a live
# factor held 2.1 MB of heap at F = 4, 3.5 MB at 7 and 5.0 MB at 10,
# where an splu factor holds 14.7 MB for the same fill.  Supernodes are
# left unrelaxed (relax = panel_size = 1): on the junction's Jacobian
# and continuity matrices, interleaved against this driver's defaults
# (median of 40 samples, 10 on 128x128), a factor took 0.76x the time on
# 32x32, 0.81x on 64x64 and 0.68x on 128x128; (relax, panel_size) =
# (2, 2), (1, 4) and (4, 4) took 0.71-0.88x.  The fill (6.26 nnz(A) on
# 64x64) and a solve's residual stayed the same on every mesh.
_FILL_FACTOR = 4


class _TridiagonalLU:
    """LAPACK gttrf factors of an operator's bands, solved by gttrs."""

    def __init__(self, op: SparseOperator):
        *self._factors, info = lapack.dgttrf(op.lower, op.diagonal, op.upper)
        if info > 0:
            raise RuntimeError(f"Factor is exactly singular (row {info - 1})")

    def solve(self, b: np.ndarray) -> np.ndarray:
        return lapack.dgttrs(*self._factors, b)[0]


class SparseOperator:
    """A matrix on the pattern of ``disc``: ``diagonal``, and ``upper[j]``
    at the (lo, hi) entry and ``lower[j]`` at the (hi, lo) entry of
    interior face j, with its LU factors and CSC copy, each built on first
    use and cached.  Values are never written in place, so a shifted
    operator shares ``upper`` and ``lower`` with the one it came from.

    On a pattern with ``bands``, ``lower``, ``diagonal`` and ``upper`` are
    the matrix's sub-, main and super-diagonal: ``@`` sums each row's
    three products onto +0.0, the order of scipy's CSC product of the same
    entries (column by column, into a zeroed result), so the two agree bit
    for bit, signed zeros included, and ``factor`` runs gttrf on them.
    Any other pattern multiplies and factors the CSC copy.
    """
    __slots__ = ("disc", "diagonal", "upper", "lower", "_lu", "_csc")

    def __init__(self, disc: Discretization, diagonal: np.ndarray,
                 upper: np.ndarray, lower: np.ndarray):
        self.disc, self.diagonal = disc, diagonal
        self.upper, self.lower = upper, lower
        self._lu = self._csc = None

    @property
    def dimension(self) -> int:
        return self.diagonal.size

    def csc(self) -> sp.csc_matrix:
        """The matrix in CSC form, sharing the pattern's index arrays."""
        if self._csc is None:
            self._csc = self.disc.csc(self.diagonal, self.upper, self.lower)
        return self._csc

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        if not self.disc.bands:
            return self.csc() @ x
        y = np.zeros(self.diagonal.size)
        y[1:] += self.lower * x[:-1]
        y += self.diagonal * x
        y[:-1] += self.upper * x[1:]
        return y

    def factor(self):
        """LU factors with a ``solve(b)``, cached on the operator.

        This is the one place a failed factorization (an exactly singular
        matrix, on either backend) becomes a ``SolverError``, so callers
        need no handler of their own.  Off ``bands``, SuperLU's ILU driver
        with drop tolerance 0 under the "basic" rule drops nothing, so the
        factors are exact (the default rule also drops by area, to hold
        the fill at ``fill_factor * nnz(A)``, which is no longer an LU).
        """
        if self._lu is None:
            try:
                self._lu = _TridiagonalLU(self) if self.disc.bands \
                    else spla.spilu(
                        self.csc(), drop_tol=0.0, drop_rule="basic",
                        diag_pivot_thresh=1.0, fill_factor=_FILL_FACTOR,
                        permc_spec="MMD_AT_PLUS_A", relax=1, panel_size=1)
            except RuntimeError as exc:
                raise SolverError(f"factorization failed: {exc}") from exc
        return self._lu

    def shifted(self, diagonal: np.ndarray) -> SparseOperator:
        """The operator plus ``diag(diagonal)``, on the same pattern."""
        return SparseOperator(self.disc, self.diagonal + diagonal,
                              self.upper, self.lower)


def assemble_poisson(device: DeviceSpec, mesh: Mesh) -> SparseOperator:
    """Robin-Poisson operator: diffusion in eps + Robin masses + Dirichlet closure."""
    disc = Discretization(device, mesh)
    t = disc.transmissibility[0]
    diagonal = disc.diagonal(t, t, disc.robin_cell, disc.robin_coeff)
    off = -t[:disc.n_interior]
    return SparseOperator(disc, diagonal, off, off)


def poisson_data_load(op: SparseOperator, t: float) -> np.ndarray:
    """Right-hand side carrying doping, Dirichlet lifts, and Robin loads at
    time t, on the device and mesh of ``op``."""
    disc = op.disc
    device, mesh = disc.device, disc.mesh
    load = mesh.cell_volumes * bulk_doping(device, mesh)
    for sheet, faces in zip(device.doping.sheets, mesh.sheet_faces):
        load += apply_surface_load(mesh, faces, sheet.density)
    eps = disc.transmissibility[0]
    disc.ghost_load(eps, eps, contact_values(device, t)[0, disc.contact],
                    load)
    phi_g = np.array([sample_series(r.phi_gamma, t) for r in device.robin])
    np.add.at(load, disc.robin_cell,
              disc.robin_coeff * phi_g[disc.robin_segment])
    return load


@dataclass(frozen=True)
class FaceCoefficients:
    """Scharfetter-Gummel coefficients on every stencil face, row k - 1
    of each array for carrier k.

    ``u`` holds the densities F(chi) the coefficients were evaluated at:
    the cells, then the ghosts at the Dirichlet face centers.  The mass
    flow through stencil face j of ``disc``, positive from its low to its
    high side, is ``a[:, j] * u[:, lo[j]] - b[:, j] * u[:, hi[j]]``.
    """
    disc: Discretization
    a: np.ndarray
    b: np.ndarray
    u: np.ndarray

    def flux(self) -> np.ndarray:
        """Facewise mass flow (2, n_faces) of the densities ``u``; zero off
        the stencil."""
        d = self.disc
        out = np.zeros((2, d.mesh.n_faces))
        out[:, d.faces] = self.a * self.u[:, d.lo] - self.b * self.u[:, d.hi]
        return out

    def system(self, k: int, diagonal) -> tuple[SparseOperator, np.ndarray]:
        """Carrier k's net-outflow matrix M plus ``diagonal``, as a
        ``SparseOperator`` on ``disc``, and its Dirichlet load;
        ``M @ u[k-1, :n_cells] - load`` is the cellwise divergence of
        ``flux()[k-1]``.  The ``diagonal`` (a time-derivative mass, say,
        or zeros) is summed into each diagonal entry after the face
        contributions.
        """
        d, n, m = self.disc, self.disc.n_cells, self.disc.n_interior
        a, b = self.a[k - 1], self.b[k - 1]
        main = d.diagonal(a, b, np.arange(n), diagonal)
        load = d.ghost_load(a, b, self.u[k - 1, n:], np.zeros(n))
        return SparseOperator(d, main, -b[:m], -a[:m]), load


def ghost_arguments(disc: Discretization, contacts: np.ndarray):
    """The Dirichlet ghosts' potential (n_ghosts,) and both carriers'
    statistics arguments (2, n_ghosts), from the (3, n_contacts) contact
    values (phi_D, Phi1_D, Phi2_D) of ``device.contact_values``: ghost i
    holds contact ``disc.contact[i]``'s, and carrier k's argument is
    Phi_k,D + (-1)^k phi_D."""
    ghost = contacts[:, disc.contact]
    return ghost[0], carrier_arguments(ghost[1:], ghost[0])


def with_ghosts(cells, ghosts) -> list[np.ndarray]:
    """Each cell field followed by its ghost values (last axis), as the
    stencil reads it."""
    return [np.concatenate(pair, axis=-1) for pair in zip(cells, ghosts)]


def carrier_face_coefficients(disc: Discretization, stats, scheme: FluxScheme,
                              phi: np.ndarray, chi: np.ndarray, u: np.ndarray,
                              ) -> FaceCoefficients:
    """The continuity kernel: both carriers' coefficients on every face.

    Every field runs over the cells, then the Dirichlet ghosts
    (``with_ghosts`` and ``ghost_arguments``): the potential ``phi``,
    and for the two carriers, each a row, the statistics arguments
    ``chi`` and their densities ``u`` = F(chi).  The caller evaluates the
    statistics: a sweep of ``transient.gummel_step`` takes the cells' F
    from the potential solve, which computed it at the potential it
    returns, and the ghosts', fixed within a step, from one evaluation
    per step; every other caller goes through
    ``evaluate_face_coefficients``.  Both carriers and schemes take
    a, b = t eta B(-+drop/eta) from one ``bernoulli`` call: plain fitting
    with eta = 1.0, which leaves t and drop exactly as they are, the
    enhanced scheme with each carrier's ``eta_face`` of ``stats``.
    """
    lo, hi = disc.lo, disc.hi
    drop = carrier_arguments(0.0, phi[hi] - phi[lo])
    eta = 1.0 if scheme.variant == "scharfetter_gummel" else np.stack([
        eta_face(model, s[lo], s[hi], v[lo], v[hi])
        for model, s, v in zip(stats, chi, u)])
    x = drop / eta
    a, b = disc.transmissibility[1:] * eta * bernoulli(np.stack([-x, x]))
    return FaceCoefficients(disc=disc, a=a, b=b, u=u)


def evaluate_face_coefficients(disc: Discretization, stats,
                               scheme: FluxScheme, phi: np.ndarray,
                               chi: np.ndarray, contacts: np.ndarray,
                               ) -> FaceCoefficients:
    """``carrier_face_coefficients`` for a one-off caller: ``phi`` and
    ``chi`` (2, n_cells) run over the cells, ``contacts`` is the
    (3, n_contacts) array of ``device.contact_values``; the ghosts are
    appended and cells and ghosts evaluated in one ``eval_carriers``
    call."""
    phi, chi = with_ghosts((phi, chi), ghost_arguments(disc, contacts))
    return carrier_face_coefficients(disc, stats, scheme, phi, chi,
                                     eval_carriers(stats, chi)[0])


def assemble_continuity(device: DeviceSpec, mesh: Mesh, stats: StatisticsModel,
                        scheme: FluxScheme, k: int, phi: np.ndarray,
                        chi: np.ndarray, contacts: np.ndarray,
                        ) -> tuple[SparseOperator, np.ndarray]:
    """Steady continuity matrix M (net outflow of carrier k) and its load:
    ``evaluate_face_coefficients`` with both carriers at ``stats`` and
    ``chi``, on a ``Discretization`` of ``mesh``.  The load carries only
    the Dirichlet contributions."""
    if k not in (1, 2):
        raise DomainError(f"carrier index must be 1 or 2, got {k}")
    return evaluate_face_coefficients(
        Discretization(device, mesh), (stats, stats), scheme, phi,
        np.vstack([chi, chi]), contacts).system(k, np.zeros(mesh.n_cells))


def continuity_face_flux(device: DeviceSpec, mesh: Mesh,
                         stats: StatisticsModel, scheme: FluxScheme, k: int,
                         phi: np.ndarray, chi: np.ndarray,
                         contacts: np.ndarray) -> np.ndarray:
    """Facewise mass flow of carrier k, positive from the low to high side,
    from the same coefficients as ``assemble_continuity``; faces without a
    flux stencil (insulated, Robin, surface) report zero."""
    if k not in (1, 2):
        raise DomainError(f"carrier index must be 1 or 2, got {k}")
    return evaluate_face_coefficients(
        Discretization(device, mesh), (stats, stats), scheme, phi,
        np.vstack([chi, chi]), contacts).flux()[k - 1]


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
                  on_contacts: np.ndarray) -> np.ndarray:
    """Axis-directed first difference of a cell field at every face.

    Stencil faces difference ``values``, extended by the ghost values
    (``on_contacts`` indexed by contact id), over their ``span``.  Other
    boundary faces report zero.  That is right on insulated faces and, for
    the quasi-Fermi levels, on Robin faces too, but not for the potential
    on a Robin face, where the normal derivative is
    -(eps_gamma/eps)(phi - phi_gamma): the boundary cell's field comes out
    44 % low on the ``insulated`` deck, at every resolution (ROADMAP item
    15).  Leading axes of ``values`` and ``on_contacts`` (the carriers,
    say) are kept.
    """
    values = np.concatenate([values, np.asarray(
        on_contacts, dtype=float)[..., disc.contact]], axis=-1)
    g = np.zeros((*values.shape[:-1], disc.mesh.n_faces))
    g[..., disc.faces] = (values[..., disc.hi]
                          - values[..., disc.lo]) / disc.span
    return g


def cell_average_faces(mesh: Mesh, face_values: np.ndarray) -> np.ndarray:
    """Average a per-face quantity (last axis) to cells, one column per
    axis."""
    face_values = np.asarray(face_values, dtype=float)
    return 0.5 * (face_values[..., mesh.cell_face_lo]
                  + face_values[..., mesh.cell_face_hi])


_SOLVE_RTOL = 1e-12  # residual contract of solve_linear, relative to ||b||
_REFINE_MAX = 8  # refinement steps of one _refine call


class FactorSlot:
    """Holds the last operator ``solve_linear`` factored for one family of
    nearby systems (one carrier's continuity matrices, or the potential
    Newton Jacobians), so that the next system of the family can be
    solved from its factor."""

    def __init__(self):
        self.op: SparseOperator | None = None


def _norm(v: np.ndarray) -> float:
    """The 2-norm of the float vector ``v``, sqrt(v . v) as
    ``np.linalg.norm`` computes it, so every finite case is that norm bit
    for bit.  When v . v overflows and max|v| is finite, the norm is
    rescaled by max|v|; a vector with an infinite entry reads inf, and
    one with a NaN reads NaN.  The overflow of the plain try is the
    caller's to silence."""
    norm = math.sqrt(v.dot(v))
    if norm == math.inf:
        scale = np.abs(v).max()
        if scale < math.inf:
            w = v / scale
            norm = float(scale) * math.sqrt(w.dot(w))
    return norm


def _refine(op: SparseOperator, lu, b: np.ndarray, target: float,
            to_floor: bool):
    """Solve ``op x = b`` from the factor ``lu`` of ``op`` or of a nearby
    operator.  Returns the first solve x = LU^{-1} b when its residual
    meets ``target``; otherwise refines, x <- x + LU^{-1} (b - op x), while
    each step at least halves the residual, at most _REFINE_MAX steps.  A
    residual that meets ``target`` ends the refinement, unless
    ``to_floor`` (a final answer at the contract), which runs it down to
    the rounding floor while the factor is close.  Returns x, its residual
    r = b - op x and ||r||."""
    x = lu.solve(b)
    r = b - op @ x
    res = _norm(r)
    if res <= target:
        return x, r, res
    for _ in range(_REFINE_MAX):
        x_next = x + lu.solve(r)
        r_next = b - op @ x_next
        res_next = _norm(r_next)
        if not res_next < res:
            break
        halved = res_next <= 0.5 * res
        x, r, res = x_next, r_next, res_next
        if not halved or (res <= target and not to_floor):
            break
    return x, r, res


# the residual matvec may overflow, and _norm's first try with it: _norm
# rescales the try, so the target is finite whenever b is.  A non-finite
# b or x makes inf - inf or 0 * inf in the matvec; either way a target or
# residual that is not finite meets no contract, so the solve raises a
# SolverError and no warning
@np.errstate(over="ignore", invalid="ignore")
def solve_linear(op: SparseOperator, b: np.ndarray,
                 slot: FactorSlot | None = None,
                 rtol: float = _SOLVE_RTOL) -> tuple[np.ndarray, np.ndarray]:
    """Direct solve with an explicit residual contract.

    The caller owns the target: ``rtol`` relative to ||b||, by default
    _SOLVE_RTOL, the contract of a solve whose answer is final; a caller
    that checks the answer itself (a Newton direction) may pass a looser
    one.  Every solve goes through ``_refine``: it returns the first solve
    when ||Ax-b|| <= rtol * ||b||, and refines otherwise; a target looser
    than _SOLVE_RTOL ends the refinement as soon as it is met, while a
    solve at the contract refines to the rounding floor.  On the
    SuperLU path the factor held in ``slot``, if any, is tried first and
    accepted if it meets the contract.  Otherwise the slot is emptied, so
    the stale factor is freed before the new one is allocated, and ``op``
    is factored (cached on the operator) and kept in the slot.  The
    tridiagonal path ignores the slot, as its factor costs a few
    microseconds.  Returns x and its residual b - Ax, which the refinement
    formed anyway.  Raises SolverError when the fresh factor misses the
    contract, when the target or the residual is not finite, or when the
    matrix is singular.
    """
    b = np.asarray(b, dtype=float)
    target = rtol * max(_norm(b), np.finfo(float).tiny)
    to_floor = rtol <= _SOLVE_RTOL
    if op.disc.bands:
        slot = None
    if slot is not None:
        if slot.op is not None:
            x, r, res = _refine(op, slot.op.factor(), b, target, to_floor)
            if res <= target < math.inf:
                return x, r
        slot.op = None
    lu = op.factor()
    if slot is not None:
        slot.op = op
    x, r, res = _refine(op, lu, b, target, to_floor)
    if not res <= target < math.inf:
        raise SolverError(f"linear solve residual {res:.3e} exceeds "
                          f"{rtol:.1e} * ||b|| = {target:.3e}")
    return x, r
