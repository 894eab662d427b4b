"""Device description and tensor-product finite-volume meshes.

A device is an axis-aligned box (1D or 2D) tiled by material regions,
with its boundary partitioned into Dirichlet contacts, Robin segments,
and (possibly recombining) insulated remainder, plus optional interior
recombination interfaces and doping (box profiles and sheet densities on
interior hyperplanes).  All quantities are in scaled units.

Constructing a ``DeviceSpec`` checks the data the well-posedness result
assumes and raises a ConfigError listing every finding.  ``build_mesh``
then produces the cell/face geometry used by the assembly routines and
checks only the grid: every layer, interface, and sheet coordinate must
land on a grid line (within 1e-6 of the extent), otherwise a
GeometryError names the offending coordinate instead of silently moving
it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import ConfigError, GeometryError
from .recombination import FACE_INPUTS, cannot_read

__all__ = [
    "MaterialRegion", "Contact", "RobinSegment", "SurfaceSegment",
    "InterfaceSpec", "BoxDoping", "SheetDoping", "DopingProfile",
    "DeviceSpec", "Mesh",
    "build_mesh", "contact_labels", "contact_values", "sample_series",
]

Span = tuple[float, float]
TimeSeries = Union[float, tuple[tuple[float, float], ...]]

# axis names: a device of dimension d has the first d of them, so they
# also fix the admitted dimensions
AXES = ("x", "y")
DIMENSIONS = tuple(range(1, len(AXES) + 1))
# side -> (axis, is_high_end); a device has the sides of its axes
_SIDE_AXIS = {"left": (0, False), "right": (0, True),
              "bottom": (1, False), "top": (1, True)}


def sample_series(series: TimeSeries, t: float) -> float:
    """Evaluate a constant or piecewise-linear time series, clamped at the ends."""
    if isinstance(series, numbers.Real):
        return float(series)
    knots = np.asarray(series, dtype=float)
    return float(np.interp(t, knots[:, 0], knots[:, 1]))


def _series_ok(series) -> bool:
    if isinstance(series, numbers.Real):
        return np.isfinite(series)
    try:
        knots = np.asarray(series, dtype=float)
    except (TypeError, ValueError):
        return False
    return (knots.ndim == 2 and knots.shape[1] == 2 and knots.shape[0] >= 1
            and bool(np.all(np.isfinite(knots)))
            and bool(np.all(np.diff(knots[:, 0]) > 0)))


def _is_count(value) -> bool:
    """True for an integer (not a bool) of at least 1."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) \
        and value >= 1


def _is_length(value) -> bool:
    """True for a finite positive real number (not a bool)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) \
        and math.isfinite(value) and value > 0


def _per_axis(values, dim: int, test) -> bool:
    """True for ``dim`` values that each pass ``test``; a scalar is not."""
    try:
        return len(values) == dim and all(map(test, values))
    except TypeError:
        return False


def _axis_tuple(value, dim) -> tuple[float, ...]:
    if isinstance(value, numbers.Real):
        return (float(value),) * dim
    return tuple(float(v) for v in value)


@dataclass(frozen=True)
class MaterialRegion:
    name: str
    bounds: tuple[Span, ...]
    eps: Union[float, tuple[float, ...]] = 1.0
    mu1: Union[float, tuple[float, ...]] = 1.0
    mu2: Union[float, tuple[float, ...]] = 1.0


@dataclass(frozen=True)
class Contact:
    """Dirichlet boundary segment carrying phi and quasi-Fermi contact values.

    ``bias`` shifts phi, Phi1, and Phi2 together (a rigid contact bias);
    parameter sweeps address it as a single scalar, ramped decks can give
    it a time series like any other contact value.
    """
    side: str
    phi: TimeSeries = 0.0
    Phi1: TimeSeries = 0.0
    Phi2: TimeSeries = 0.0
    bias: TimeSeries = 0.0
    span: Span | None = None

    def values(self, t: float) -> tuple[float, float, float]:
        b = sample_series(self.bias, t)
        return (sample_series(self.phi, t) + b,
                sample_series(self.Phi1, t) + b,
                sample_series(self.Phi2, t) + b)


def contact_values(device: DeviceSpec, t: float) -> np.ndarray:
    """(phi_D, Phi1_D, Phi2_D) of every contact at time t, bias included:
    a (3, n_contacts) array, one column per contact."""
    return np.array([c.values(t) for c in device.contacts],
                    dtype=float).reshape(-1, 3).T


def contact_labels(device: DeviceSpec) -> list[str]:
    """One name per contact, in declaration order: its side, or, for
    contacts that share a side, the side and the contact's place among
    them counted from 1 (``top_1``, ``top_2``)."""
    sides = [c.side for c in device.contacts]
    return [side if sides.count(side) == 1
            else f"{side}_{sides[:i + 1].count(side)}"
            for i, side in enumerate(sides)]


@dataclass(frozen=True)
class RobinSegment:
    side: str
    eps_gamma: float
    phi_gamma: TimeSeries = 0.0
    span: Span | None = None


@dataclass(frozen=True)
class SurfaceSegment:
    """Insulated boundary piece, optionally recombination-active.

    ``model`` is a reaction model that reads only what a face holds (None
    leaves the stretch a plain zero-flux wall).
    """
    side: str
    model: object | None = None
    span: Span | None = None


@dataclass(frozen=True, kw_only=True)
class InterfaceSpec:
    """Interior hyperplane x_axis = position; ``model`` as on a surface."""
    axis: int = 0
    position: float
    model: object | None = None
    span: Span | None = None


@dataclass(frozen=True)
class BoxDoping:
    bounds: tuple[Span, ...]
    value: float


@dataclass(frozen=True, kw_only=True)
class SheetDoping:
    axis: int = 0
    position: float
    density: float


@dataclass(frozen=True)
class DopingProfile:
    boxes: tuple[BoxDoping, ...] = ()
    sheets: tuple[SheetDoping, ...] = ()


@dataclass(frozen=True)
class DeviceSpec:
    """A device; construction raises ConfigError listing every finding."""
    dimension: int
    extent: tuple[float, ...]
    resolution: tuple[int, ...]
    regions: tuple[MaterialRegion, ...]
    contacts: tuple[Contact, ...] = ()
    robin: tuple[RobinSegment, ...] = ()
    surfaces: tuple[SurfaceSegment, ...] = ()
    interfaces: tuple[InterfaceSpec, ...] = ()
    doping: DopingProfile = field(default_factory=DopingProfile)

    def __post_init__(self):
        if problems := _admissibility_problems(self):
            raise ConfigError(problems)


# face boundary tags
TAG_INTERIOR = 0
TAG_DIRICHLET = 1
TAG_ROBIN = 2
TAG_NEUMANN = 3


@dataclass(frozen=True, eq=False)
class Mesh:
    """Cells and faces of a uniform tensor-product mesh.

    Cells are numbered x fastest.  Faces are numbered axis by axis, all
    x-normal (axis-0) faces first, and x fastest within an axis; so the
    1D face j lies between cells j - 1 and j.  ``Discretization.bands``
    depends on this order to find a 1D operator's three diagonals.
    ``device`` is the device the mesh was built from, so a mesh can be
    checked against a device by equality; a mesh equals only itself.
    """
    device: DeviceSpec
    dimension: int
    shape: tuple[int, ...]
    cell_centers: np.ndarray      # (n_cells, dim)
    cell_volumes: np.ndarray      # (n_cells,)
    cell_region: np.ndarray       # (n_cells,) index into device.regions
    face_axis: np.ndarray         # (n_faces,)
    face_area: np.ndarray         # (n_faces,)
    face_cells: np.ndarray        # (n_faces, 2): [low-side cell, high-side cell], -1 outside
    face_dl: np.ndarray           # center-to-face distance on the low side (0 if none)
    face_dr: np.ndarray           # center-to-face distance on the high side
    face_tag: np.ndarray          # TAG_* per face
    face_contact: np.ndarray      # contact index for Dirichlet faces, else -1
    robin_faces: tuple[np.ndarray, ...]       # per robin segment
    surface_faces: tuple[np.ndarray, ...]     # per surface segment
    interface_faces: tuple[np.ndarray, ...]   # per interface
    sheet_faces: tuple[np.ndarray, ...]       # per doping sheet
    cell_face_lo: np.ndarray      # (n_cells, dim): face on the low side, per axis
    cell_face_hi: np.ndarray      # (n_cells, dim): face on the high side, per axis

    @property
    def n_cells(self) -> int:
        return math.prod(self.shape)

    @property
    def n_faces(self) -> int:
        return self.face_axis.shape[0]


def _snap(coord: float, h: float, n: int, extent: float, what: str) -> int:
    idx = int(round(coord / h))
    if idx < 0 or idx > n or abs(coord - idx * h) > 1e-6 * extent:
        raise GeometryError(
            f"{what} coordinate {coord!r} does not lie on a grid line "
            f"(spacing {h!r}); refusing to move it")
    return idx


def _inside(centers: np.ndarray, bounds: tuple[Span, ...]) -> np.ndarray:
    """Mask of the cells whose center lies strictly inside the box ``bounds``."""
    inside = np.ones(centers.shape[0], dtype=bool)
    for ax, (lo, hi) in enumerate(bounds):
        inside &= (centers[:, ax] > lo) & (centers[:, ax] < hi)
    return inside


def _span_problems(what: str, span: Span | None, device: DeviceSpec,
                   axis: int) -> list[str]:
    """Why the span of a segment or interface normal to ``axis`` is
    inadmissible: a span is a 2D interval of the tangent axis."""
    if span is None:
        return []
    if device.dimension == 1:
        return [f"{what} carries a span in 1D"]
    lo, hi = span
    length = device.extent[1 - axis]
    if not (0.0 <= lo < hi <= length + 1e-12):
        return [f"{what} has span {span}, need 0 <= lo < hi <= {length}"]
    return []


def _entry_problems(device: DeviceSpec) -> list[str]:
    """A finding for each segment or region field that is not a tuple or
    list, and for each of its entries that is not of the field's type."""
    out = []
    for name, kind in (("regions", MaterialRegion), ("contacts", Contact),
                       ("robin", RobinSegment), ("surfaces", SurfaceSegment),
                       ("interfaces", InterfaceSpec)):
        value = getattr(device, name)
        if not isinstance(value, (tuple, list)):
            out.append(f"{name}: expected a tuple or list, got {value!r}")
            continue
        out += [f"{name}[{i}]: expected a {kind.__name__}, got {entry!r}"
                for i, entry in enumerate(value) if not isinstance(entry, kind)]
    return out


def _admissibility_problems(device: DeviceSpec) -> list[str]:
    """Every reason the device is inadmissible, empty when it is
    admissible; raises nothing."""
    out: list[str] = []
    dim = device.dimension
    if not isinstance(dim, numbers.Integral) or dim not in DIMENSIONS:
        admitted = " or ".join(map(str, DIMENSIONS))
        return [f"dimension must be {admitted}, got {dim}"]
    sides = [side for side, (axis, _) in _SIDE_AXIS.items() if axis < dim]
    if not _per_axis(device.extent, dim, _is_length):
        out.append(f"extent must be {dim} finite positive lengths, "
                   f"got {device.extent}")
    if not _per_axis(device.resolution, dim, _is_count):
        out.append(f"resolution must be {dim} positive integer cell counts, "
                   f"got {device.resolution}")
    out += _entry_problems(device)
    if out:
        return out
    volume = float(np.prod(device.extent))

    if not device.regions:
        out.append("device has no material regions")
    covered = 0.0
    for i, reg in enumerate(device.regions):
        if len(reg.bounds) != dim:
            out.append(f"region {reg.name!r} bounds do not match dimension {dim}")
            continue
        v = 1.0
        for ax, (lo, hi) in enumerate(reg.bounds):
            if not (0.0 <= lo < hi <= device.extent[ax] + 1e-12 * device.extent[ax]):
                out.append(f"region {reg.name!r} axis {ax} span ({lo}, {hi}) "
                           f"leaves the domain [0, {device.extent[ax]}]")
            v *= hi - lo
        covered += v
        for coeff_name in ("eps", "mu1", "mu2"):
            value = getattr(reg, coeff_name)
            if not isinstance(value, numbers.Real) and len(value) != dim:
                out.append(f"region {reg.name!r} has {len(value)} {coeff_name} "
                           f"values, expected {dim}")
                continue
            vals = _axis_tuple(value, dim)
            if any((not np.isfinite(c)) or c <= 0.0 for c in vals):
                out.append(f"region {reg.name!r} has non-elliptic {coeff_name} {vals}")
        for other in device.regions[i + 1:]:
            if len(other.bounds) != dim:
                continue
            overlap = 1.0
            for (lo, hi), (lo2, hi2) in zip(reg.bounds, other.bounds):
                overlap *= max(0.0, min(hi, hi2) - max(lo, lo2))
            if overlap > 1e-12 * volume:
                out.append(f"regions {reg.name!r} and {other.name!r} overlap")
    if device.regions and abs(covered - volume) > 1e-9 * volume:
        out.append(f"regions cover volume {covered}, domain volume is {volume}")

    segments = ([("contact", c) for c in device.contacts]
                + [("robin", r) for r in device.robin]
                + [("surface", s) for s in device.surfaces])
    for kind, seg in segments:
        if seg.side not in sides:
            out.append(f"{kind} side {seg.side!r} invalid for dimension {dim}")
            continue
        axis, _ = _SIDE_AXIS[seg.side]
        out += _span_problems(f"{kind} on side {seg.side!r}", seg.span, device, axis)
    for i, (kind, seg) in enumerate(segments):
        for kind2, seg2 in segments[i + 1:]:
            if seg.side != seg2.side or seg.side not in sides:
                continue
            if dim == 1:
                out.append(f"side {seg.side!r} claimed by both a {kind} and a {kind2}")
            else:
                axis, _ = _SIDE_AXIS[seg.side]
                full = (0.0, device.extent[1 - axis])
                lo1, hi1 = seg.span or full
                lo2, hi2 = seg2.span or full
                if min(hi1, hi2) - max(lo1, lo2) > 1e-12:
                    out.append(f"{kind} and {kind2} segments overlap on side {seg.side!r}")

    for r in device.robin:
        if not np.isfinite(r.eps_gamma) or r.eps_gamma < 0.0:
            out.append(f"robin segment on {r.side!r} has negative capacity "
                       f"eps_gamma = {r.eps_gamma}")
        if not _series_ok(r.phi_gamma):
            out.append(f"robin segment on {r.side!r} has a malformed phi_gamma series")
    if not device.contacts and not any(r.eps_gamma > 0.0 for r in device.robin):
        out.append("no Dirichlet contact and no positive Robin capacity: "
                   "the electrostatic problem is not coercive")
    for c in device.contacts:
        for name in ("phi", "Phi1", "Phi2", "bias"):
            if not _series_ok(getattr(c, name)):
                out.append(f"contact on {c.side!r} has a malformed {name} series")

    for itf in device.interfaces:
        if not (0 <= itf.axis < dim):
            out.append(f"interface axis {itf.axis} invalid for dimension {dim}")
            continue
        if not (0.0 < itf.position < device.extent[itf.axis]):
            out.append(f"interface at {itf.position} on axis {itf.axis} "
                       f"is not strictly interior")
        out += _span_problems(f"interface at {itf.position}", itf.span, device, itf.axis)
    for box in device.doping.boxes:
        if len(box.bounds) != dim:
            out.append(f"doping box bounds {box.bounds} do not match dimension")
        for ax, (lo, hi) in enumerate(box.bounds):
            if not lo < hi:
                out.append(f"doping box axis {ax} span ({lo}, {hi}) is empty")
        if not np.isfinite(box.value):
            out.append("doping box value is not finite")
    for sheet in device.doping.sheets:
        if not (0 <= sheet.axis < dim):
            out.append(f"sheet doping axis {sheet.axis} invalid")
        elif not (0.0 < sheet.position < device.extent[sheet.axis]):
            out.append(f"sheet doping at {sheet.position} is not strictly interior")
        if not np.isfinite(sheet.density):
            out.append("sheet doping density is not finite")
    faced = ([(f"surface on side {s.side!r}", s) for s in device.surfaces]
             + [(f"interface at {i.position}", i) for i in device.interfaces])
    return out + [f"{what}: {problem}" for what, seg in faced
                  if seg.model is not None and (problem := cannot_read(
                      seg.model, FACE_INPUTS, "a face"))]


def build_mesh(device: DeviceSpec) -> Mesh:
    """Uniform tensor-product cell-centered mesh for the device."""
    dim = device.dimension
    shape = tuple(int(n) for n in device.resolution)
    extent = tuple(float(e) for e in device.extent)
    h = tuple(e / n for e, n in zip(extent, shape))

    def grid(counts) -> np.ndarray:
        """(dim, n) grid indices of a ``counts`` block, x fastest."""
        return np.indices(counts).reshape(dim, -1, order="F")

    def cell_ids(index: np.ndarray) -> np.ndarray:
        return np.ravel_multi_index(index, shape, mode="clip", order="F")

    centers = np.column_stack([(i + 0.5) * hk for i, hk in zip(grid(shape), h)])
    n_cells = centers.shape[0]
    volumes = np.full(n_cells, math.prod(h))

    # region lookup by cell center; every bound must sit on a grid line,
    # and admissible regions tile the box, so every cell gets one region
    region_of = np.full(n_cells, -1, dtype=int)
    for r, reg in enumerate(device.regions):
        for ax, (lo, hi) in enumerate(reg.bounds):
            _snap(lo, h[ax], shape[ax], extent[ax], f"region {reg.name!r}")
            _snap(hi, h[ax], shape[ax], extent[ax], f"region {reg.name!r}")
        region_of[_inside(centers, reg.bounds)] = r

    # faces normal to each axis in turn; grid line k of axis a lies between
    # cells k - 1 and k along a
    per_axis = []
    for a in range(dim):
        index = grid(shape[:a] + (shape[a] + 1,) + shape[a + 1:])
        line = index[a]
        below = index.copy()
        below[a] -= 1
        lo = np.where(line > 0, cell_ids(below), -1)
        hi = np.where(line < shape[a], cell_ids(index), -1)
        per_axis.append((
            index.T, np.full(line.size, a),
            np.full(line.size, math.prod(h[:a] + h[a + 1:], start=1.0)),
            np.column_stack([lo, hi]),
            np.where(lo >= 0, 0.5 * h[a], 0.0), np.where(hi >= 0, 0.5 * h[a], 0.0)))
    face_index, face_axis, face_area, face_cells, face_dl, face_dr = (
        np.concatenate(rows) for rows in zip(*per_axis))
    n_faces = face_axis.size

    boundary = (face_cells[:, 0] < 0) | (face_cells[:, 1] < 0)
    face_tag = np.where(boundary, TAG_NEUMANN, TAG_INTERIOR).astype(int)

    def faces_on(axis: int, line: int, span: Span | None, what: str) -> np.ndarray:
        """Faces normal to ``axis`` on grid line ``line``, within ``span`` of
        the tangent axis when one is given (2D only)."""
        sel = (face_axis == axis) & (face_index[:, axis] == line)
        if span is not None and dim == 2:
            tangent = 1 - axis
            lo, hi = (_snap(c, h[tangent], shape[tangent], extent[tangent], what)
                      for c in span)
            sel &= (face_index[:, tangent] >= lo) & (face_index[:, tangent] < hi)
        return np.flatnonzero(sel)

    def side_faces(seg) -> np.ndarray:
        """Boundary faces of a segment; admissible segments share none."""
        axis, high = _SIDE_AXIS[seg.side]
        return faces_on(axis, shape[axis] if high else 0, seg.span,
                        f"segment on {seg.side!r}")

    contact_faces = tuple(side_faces(c) for c in device.contacts)
    robin_faces = tuple(side_faces(r) for r in device.robin)
    surface_faces = tuple(side_faces(s) for s in device.surfaces)
    face_contact = np.full(n_faces, -1, dtype=int)
    for ci, faces in enumerate(contact_faces):
        face_tag[faces] = TAG_DIRICHLET
        face_contact[faces] = ci
    for faces in robin_faces:
        face_tag[faces] = TAG_ROBIN

    def plane_faces(axis: int, position: float, span: Span | None,
                    what: str) -> np.ndarray:
        line = _snap(position, h[axis], shape[axis], extent[axis], what)
        if line == 0 or line == shape[axis]:
            raise GeometryError(f"{what} at {position!r} lies on the boundary")
        return faces_on(axis, line, span, what)

    interface_faces = tuple(plane_faces(i.axis, i.position, i.span, "interface")
                            for i in device.interfaces)
    sheet_faces = tuple(plane_faces(s.axis, s.position, None, "sheet doping")
                        for s in device.doping.sheets)

    cell_face_lo = np.full((n_cells, dim), -1, dtype=int)
    cell_face_hi = np.full((n_cells, dim), -1, dtype=int)
    fids = np.arange(n_faces)
    has_hi = face_cells[:, 1] >= 0
    has_lo = face_cells[:, 0] >= 0
    cell_face_lo[face_cells[has_hi, 1], face_axis[has_hi]] = fids[has_hi]
    cell_face_hi[face_cells[has_lo, 0], face_axis[has_lo]] = fids[has_lo]

    return Mesh(
        device=device, dimension=dim, shape=shape,
        cell_centers=centers, cell_volumes=volumes, cell_region=region_of,
        face_axis=face_axis, face_area=face_area, face_cells=face_cells,
        face_dl=face_dl, face_dr=face_dr,
        face_tag=face_tag, face_contact=face_contact,
        robin_faces=robin_faces, surface_faces=surface_faces,
        interface_faces=interface_faces, sheet_faces=sheet_faces,
        cell_face_lo=cell_face_lo, cell_face_hi=cell_face_hi,
    )


def cell_tensor(mesh: Mesh, name: str) -> np.ndarray:
    """Per-cell diagonal coefficient tensor (n_cells, dim) for eps/mu1/mu2,
    from the regions of the device ``mesh`` was built from."""
    dim = mesh.dimension
    out = np.empty((mesh.n_cells, dim))
    for r, reg in enumerate(mesh.device.regions):
        out[mesh.cell_region == r] = _axis_tuple(getattr(reg, name), dim)
    return out


def bulk_doping(mesh: Mesh) -> np.ndarray:
    """Cellwise volume doping d evaluated at cell centers (boxes add up),
    from the doping of the device ``mesh`` was built from."""
    d = np.zeros(mesh.n_cells)
    for box in mesh.device.doping.boxes:
        d[_inside(mesh.cell_centers, box.bounds)] += box.value
    return d
