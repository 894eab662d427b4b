import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from driftsim import decks
from driftsim.device import (
    BoxDoping,
    Contact,
    DeviceSpec,
    DopingProfile,
    InterfaceSpec,
    MaterialRegion,
    RobinSegment,
    SheetDoping,
    SurfaceSegment,
    TAG_DIRICHLET,
    TAG_INTERIOR,
    TAG_NEUMANN,
    TAG_ROBIN,
    build_mesh,
    bulk_doping,
    cell_tensor,
    sample_series,
)
from driftsim.errors import ConfigError, GeometryError
from driftsim.recombination import ShockleyReadHall, SurfaceSRH


def slab_1d(cells=8, extent=2.0, **kwargs):
    defaults = dict(
        dimension=1,
        extent=(extent,),
        resolution=(cells,),
        regions=(MaterialRegion("bulk", ((0.0, extent),)),),
        contacts=(Contact(side="left"), Contact(side="right")),
    )
    defaults.update(kwargs)
    return DeviceSpec(**defaults)


def slab_2d(nx=4, ny=4, extent=(1.0, 1.0), **kwargs):
    defaults = dict(
        dimension=2,
        extent=extent,
        resolution=(nx, ny),
        regions=(MaterialRegion("bulk", ((0.0, extent[0]), (0.0, extent[1]))),),
        contacts=(Contact(side="left"), Contact(side="right")),
    )
    defaults.update(kwargs)
    return DeviceSpec(**defaults)


# -- time series ----------------------------------------------------------

def test_sample_series_scalar():
    assert sample_series(0.25, 17.0) == 0.25


def test_sample_series_interpolates():
    ramp = ((0.0, 0.0), (2.0, 1.0))
    assert sample_series(ramp, 0.5) == pytest.approx(0.25)
    assert sample_series(ramp, 2.0) == pytest.approx(1.0)


def test_sample_series_clamps_both_ends():
    ramp = ((1.0, 3.0), (2.0, 5.0))
    assert sample_series(ramp, 0.0) == 3.0
    assert sample_series(ramp, 100.0) == 5.0


def test_contact_bias_shifts_all_values():
    c = Contact(side="left", phi=0.3, Phi1=0.1, Phi2=-0.1,
                bias=((0.0, 0.0), (1.0, 1.0)))
    assert c.values(0.0) == pytest.approx((0.3, 0.1, -0.1))
    assert c.values(1.0) == pytest.approx((1.3, 1.1, 0.9))


# -- validation -----------------------------------------------------------

def test_valid_slab_passes():
    slab_1d()
    slab_2d()


def test_dimension_must_be_low():
    # a float dimension is refused too, not left to fail untyped
    for dimension in (3, 1.0):
        with pytest.raises(ConfigError) as err:
            slab_1d(dimension=dimension)
        assert err.value.problems == [
            f"dimension must be 1 or 2, got {dimension}"]


@pytest.mark.parametrize("scalar", [np.float32(2), np.int64(2)],
                         ids=["float32", "int64"])
def test_device_records_take_numpy_scalars(scalar):
    # any real scalar is a per-axis coefficient or a constant contact
    # value, as a Python float is, and gets the same checks
    dev = slab_1d(regions=(MaterialRegion("bulk", ((0.0, 2.0),), eps=scalar),),
                  contacts=(Contact(side="left", phi=scalar),
                            Contact(side="right")))
    assert np.all(cell_tensor(dev, build_mesh(dev), "eps") == 2.0)
    assert dev.contacts[0].values(0.0) == (2.0, 0.0, 0.0)
    with pytest.raises(ConfigError, match="non-elliptic eps"):
        slab_1d(regions=(MaterialRegion("bulk", ((0.0, 2.0),),
                                        eps=-scalar),))


def test_extent_resolution_mismatch():
    with pytest.raises(ConfigError, match="extent"):
        replace(slab_1d(), extent=(2.0, 1.0))
    with pytest.raises(ConfigError, match="resolution"):
        slab_1d(cells=0)


def test_region_coverage_gap_detected():
    with pytest.raises(ConfigError, match="cover"):
        slab_1d(regions=(MaterialRegion("half", ((0.0, 1.0),)),))


def test_region_overlap_detected():
    with pytest.raises(ConfigError, match="overlap"):
        slab_1d(regions=(MaterialRegion("a", ((0.0, 1.5),)),
                         MaterialRegion("b", ((0.5, 2.0),))))
    # an overlap and a gap of the same volume: the regions still add up
    # to the domain's volume
    with pytest.raises(ConfigError, match="overlap"):
        slab_1d(regions=(MaterialRegion("a", ((0.0, 1.0),)),
                         MaterialRegion("b", ((0.0, 1.0),))))


def test_non_elliptic_coefficients_rejected():
    with pytest.raises(ConfigError, match="eps"):
        slab_1d(regions=(MaterialRegion("bulk", ((0.0, 2.0),), eps=0.0),))
    with pytest.raises(ConfigError, match="mu2"):
        slab_1d(regions=(MaterialRegion("bulk", ((0.0, 2.0),), mu2=-1.0),))


def test_double_booking_a_side():
    with pytest.raises(ConfigError, match="claimed by both"):
        slab_1d(contacts=(Contact(side="left"), Contact(side="left")))


def test_span_on_1d_side_rejected():
    with pytest.raises(ConfigError, match="span"):
        slab_1d(contacts=(Contact(side="left", span=(0.0, 0.5)),
                          Contact(side="right")))


def test_negative_robin_capacity_message():
    with pytest.raises(ConfigError, match="negative capacity"):
        slab_1d(contacts=(), robin=(RobinSegment("left", eps_gamma=-2.0),
                                    RobinSegment("right", eps_gamma=1.0)))


def test_floating_device_rejected():
    # no Dirichlet contact and only zero-capacity Robin walls
    with pytest.raises(ConfigError, match="not coercive"):
        slab_1d(contacts=(), robin=(RobinSegment("left", eps_gamma=0.0),))


def test_malformed_series_reported():
    with pytest.raises(ConfigError, match="malformed"):
        slab_1d(contacts=(Contact(side="left",
                                  bias=((0.0, 0.0), (0.0, 1.0))),
                          Contact(side="right")))


def test_interface_must_be_interior():
    with pytest.raises(ConfigError, match="interior"):
        slab_1d(interfaces=(InterfaceSpec(axis=0, position=2.0),))


@pytest.mark.parametrize("dim, span, expected", [
    (1, (5.0, 1.0), "interface at 1.0 carries a span in 1D"),
    (2, (2.0, 0.0), "interface at 1.0 has span (2.0, 0.0)"),
    (2, (0.0, 3.0), "interface at 1.0 has span (0.0, 3.0)"),
], ids=["1d", "reversed", "past-the-side"])
def test_interface_span_checked(dim, span, expected):
    itf = (InterfaceSpec(axis=0, position=1.0, span=span),)
    with pytest.raises(ConfigError) as err:
        slab_1d(interfaces=itf) if dim == 1 else \
            slab_2d(extent=(2.0, 2.0), interfaces=itf)
    assert any(v.startswith(expected) for v in err.value.problems)


def test_empty_doping_box_rejected():
    with pytest.raises(ConfigError, match="doping box.*empty"):
        slab_1d(cells=4, extent=2.0,
                doping=DopingProfile(boxes=(BoxDoping(((1.5, 0.5),), 1.0),)))
    # a box reaching past the domain only covers fewer cells
    slab_1d(cells=4, extent=2.0,
            doping=DopingProfile(boxes=(BoxDoping(((1.0, 3.0),), 1.0),)))


def test_sheet_doping_checks():
    with pytest.raises(ConfigError, match="sheet"):
        slab_1d(doping=DopingProfile(
            sheets=(SheetDoping(axis=1, position=0.5, density=1.0),)))


def test_validation_collects_everything():
    with pytest.raises(ConfigError) as err:
        slab_1d(regions=(MaterialRegion("bulk", ((0.0, 2.0),), eps=-1.0),),
                contacts=(Contact(side="left"), Contact(side="up")))
    assert len(err.value.problems) >= 2


@pytest.mark.parametrize("coefficient, value",
                         [("eps", -1.0), ("mu1", 0.0), ("mu2", -1.0)])
def test_non_elliptic_diode_fails_at_construction(coefficient, value):
    # built in Python, never parsed: the device checks itself
    device = decks.diode().device
    region = replace(device.regions[0], **{coefficient: value})
    with pytest.raises(ConfigError, match=f"non-elliptic {coefficient}"):
        replace(device, regions=(region, *device.regions[1:]))


@pytest.mark.parametrize("where", ["surface", "interface"])
def test_bulk_model_on_an_interface_fails_at_construction(where):
    model = ShockleyReadHall()
    with pytest.raises(ConfigError,
                       match="unsupported interfacial model ShockleyReadHall"):
        if where == "surface":
            slab_1d(contacts=(Contact(side="left"),),
                    surfaces=(SurfaceSegment("right", model=model),))
        else:
            slab_1d(interfaces=(InterfaceSpec(position=1.0, model=model),))


# -- mesh geometry --------------------------------------------------------

def test_mesh_1d_counts_and_volumes():
    dev = slab_1d(cells=8, extent=2.0)
    mesh = build_mesh(dev)
    assert mesh.n_cells == 8
    assert mesh.n_faces == 9
    assert np.all(mesh.face_dl[1:-1] + mesh.face_dr[1:-1] == 0.25)
    assert np.sum(mesh.cell_volumes) == pytest.approx(2.0)
    assert np.all(mesh.face_area == 1.0)
    assert np.sum(mesh.face_tag == TAG_INTERIOR) == 7


def test_mesh_1d_contact_faces():
    mesh = build_mesh(slab_1d(cells=4))
    assert np.flatnonzero(mesh.face_contact == 0).tolist() == [0]
    assert np.flatnonzero(mesh.face_contact == 1).tolist() == [4]
    assert mesh.face_cells[0].tolist() == [-1, 0]
    assert mesh.face_cells[4].tolist() == [3, -1]


def test_mesh_2d_counts_and_areas():
    dev = slab_2d(nx=4, ny=3, extent=(2.0, 1.5))
    mesh = build_mesh(dev)
    assert mesh.n_cells == 12
    # (nx+1)*ny x-faces plus nx*(ny+1) y-faces
    assert mesh.n_faces == 5 * 3 + 4 * 4
    assert np.sum(mesh.cell_volumes) == pytest.approx(2.0 * 1.5)
    x_faces = mesh.face_axis == 0
    assert np.all(mesh.face_area[x_faces] == pytest.approx(0.5))
    assert np.all(mesh.face_area[~x_faces] == pytest.approx(0.5))


def test_mesh_2d_face_pairing_is_consistent():
    mesh = build_mesh(slab_2d(nx=3, ny=3))
    interior = mesh.face_tag == TAG_INTERIOR
    lo = mesh.face_cells[interior, 0]
    hi = mesh.face_cells[interior, 1]
    assert np.all(lo >= 0) and np.all(hi >= 0)
    # low cell center really is on the low side along the face axis
    ax = mesh.face_axis[interior]
    dlo = mesh.cell_centers[lo, ax]
    dhi = mesh.cell_centers[hi, ax]
    assert np.all(dhi > dlo)


@given(data=st.data(), dim=st.sampled_from([1, 2]))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_mesh_geometry_holds_for_any_resolution(data, dim):
    shape = tuple(data.draw(st.lists(st.integers(1, 12), min_size=dim,
                                     max_size=dim)))
    extent = tuple(data.draw(st.lists(st.floats(0.1, 10.0), min_size=dim,
                                      max_size=dim)))
    dev = slab_1d(cells=shape[0], extent=extent[0]) if dim == 1 else \
        slab_2d(nx=shape[0], ny=shape[1], extent=extent)
    mesh = build_mesh(dev)
    # axis a has one more face than cells along a, as many as cells across
    assert mesh.n_faces == sum(
        math.prod(shape) // shape[a] * (shape[a] + 1) for a in range(dim))
    assert np.sum(mesh.cell_volumes) == pytest.approx(math.prod(extent),
                                                      rel=1e-12)
    lo, hi = mesh.face_cells.T
    faces = np.arange(mesh.n_faces)
    assert np.array_equal(mesh.cell_face_lo[hi[hi >= 0], mesh.face_axis[hi >= 0]],
                          faces[hi >= 0])
    assert np.array_equal(mesh.cell_face_hi[lo[lo >= 0], mesh.face_axis[lo >= 0]],
                          faces[lo >= 0])
    cells = np.arange(mesh.n_cells)
    for a in range(dim):
        assert np.array_equal(hi[mesh.cell_face_lo[:, a]], cells)
        assert np.array_equal(lo[mesh.cell_face_hi[:, a]], cells)
    inner = mesh.face_tag == TAG_INTERIOR
    assert np.array_equal(inner, (lo >= 0) & (hi >= 0))
    spacing = (np.asarray(extent) / shape)[mesh.face_axis[inner]]
    assert np.array_equal(mesh.face_dl[inner] + mesh.face_dr[inner], spacing)
    if dim == 1:
        # Discretization.bands relies on face j joining cells j - 1 and j
        assert lo.tolist() == list(range(-1, shape[0]))
        assert hi.tolist() == list(range(shape[0])) + [-1]


def test_two_region_assignment():
    dev = slab_2d(
        nx=4, ny=4,
        regions=(MaterialRegion("low", ((0.0, 1.0), (0.0, 0.5)), eps=1.0),
                 MaterialRegion("high", ((0.0, 1.0), (0.5, 1.0)), eps=2.0)))
    mesh = build_mesh(dev)
    eps = cell_tensor(dev, mesh, "eps")
    low = mesh.cell_centers[:, 1] < 0.5
    assert np.all(eps[low] == 1.0)
    assert np.all(eps[~low] == 2.0)


def test_interface_faces_cover_the_hyperplane():
    dev = slab_2d(nx=4, ny=6, interfaces=(InterfaceSpec(axis=0, position=0.5),))
    mesh = build_mesh(dev)
    faces = mesh.interface_faces[0]
    assert faces.shape == (6,)
    assert np.all(mesh.face_axis[faces] == 0)
    # each face lies half a cell past its low-side cell's center
    lo = mesh.face_cells[faces, 0]
    assert np.all(mesh.cell_centers[lo, 0] + mesh.face_dl[faces]
                  == pytest.approx(0.5))


def test_off_grid_interface_raises():
    dev = slab_1d(interfaces=(InterfaceSpec(axis=0, position=0.37),))
    with pytest.raises(GeometryError):
        build_mesh(dev)


def test_robin_and_surface_faces_partition():
    dev = slab_1d(contacts=(),
                  robin=(RobinSegment("left", eps_gamma=1.0),),
                  surfaces=(SurfaceSegment("right"),))
    mesh = build_mesh(dev)
    assert mesh.robin_faces[0].tolist() == [0]
    assert mesh.surface_faces[0].tolist() == [8]


def _rarely(value, other):
    """A strategy for ``value``, and now and then for ``other``."""
    return st.sampled_from([value] * 9 + [other])


@st.composite
def grid_devices(draw):
    """Keyword arguments of a small random DeviceSpec whose regions, spans,
    interfaces and sheets lie on grid lines, except that a coordinate is
    now and then moved off its line; and whether one was.  Most draws
    are admissible; the rest break one rule or another."""
    dim = draw(st.sampled_from([1, 2]))
    shape = tuple(draw(st.lists(st.integers(1, 5), min_size=dim,
                                max_size=dim)))
    extent = tuple(draw(st.lists(st.sampled_from([0.5, 1.0, 3.0, 7.3]),
                                 min_size=dim, max_size=dim)))
    h = [e / n for e, n in zip(extent, shape)]
    off_grid = False

    def coordinate(axis, k):
        nonlocal off_grid
        shift = draw(_rarely(0.0, 0.37))
        off_grid |= shift > 0.0
        return (k + shift) * h[axis]

    def interval(axis):
        """(lo, hi) on grid lines of ``axis``, now and then reversed."""
        lo = draw(st.integers(0, shape[axis] - 1))
        hi = draw(st.integers(lo + 1, shape[axis]))
        pair = (coordinate(axis, lo), coordinate(axis, hi))
        return pair[::draw(_rarely(1, -1))]

    def position(axis):
        """A plane on an interior grid line, now and then on the wall."""
        if shape[axis] > 1 and draw(_rarely(True, False)):
            return coordinate(axis, draw(st.integers(1, shape[axis] - 1)))
        return coordinate(axis, draw(st.sampled_from([0, shape[axis]])))

    def span(axis):
        if dim == 2 and draw(st.booleans()):
            return interval(1 - axis)
        return draw(_rarely(None, (0.0, extent[0])))

    if draw(st.booleans()):
        # stacked slabs along axis 0, which tile the box
        cuts = draw(st.sets(st.integers(1, max(shape[0] - 1, 1)),
                            max_size=2)) - {shape[0]}
        edges = [0.0, *(coordinate(0, k) for k in sorted(cuts)), extent[0]]
        regions = [MaterialRegion(f"r{i}", ((lo, hi), *((0.0, e)
                                                         for e in extent[1:])))
                   for i, (lo, hi) in enumerate(zip(edges, edges[1:]))]
    else:
        # boxes drawn from a pool of two, so some repeat
        boxes = st.sampled_from([tuple(map(interval, range(dim)))
                                 for _ in range(2)])
        regions = [MaterialRegion(f"r{i}", draw(boxes))
                   for i in range(draw(st.integers(1, 3)))]
    # distinct sides, and one more that repeats the first or is "top"
    sides = draw(st.permutations(("left", "right", "bottom", "top")[:2 * dim]))
    sides.insert(draw(st.integers(1, len(sides))),
                 draw(st.sampled_from([sides[0], "top"])))
    # one segment per side: 0 a contact, 1 a Robin segment, 2 a surface
    placed: list[list] = [[], [], []]
    for side in sides[:draw(st.integers(1, len(sides)))]:
        kind = draw(st.sampled_from([0, 0, 1, 2]))
        axis = 1 if side in ("bottom", "top") else 0
        placed[kind].append((side, span(axis)))
    models = st.sampled_from([None, SurfaceSRH(), SurfaceSRH(),
                              ShockleyReadHall()])
    return dict(
        dimension=dim, extent=extent, resolution=shape, regions=regions,
        contacts=tuple(Contact(side, span=sp) for side, sp in placed[0]),
        robin=tuple(RobinSegment(side, draw(_rarely(1.0, -1.0)), span=sp)
                    for side, sp in placed[1]),
        surfaces=tuple(SurfaceSegment(side, draw(models), span=sp)
                       for side, sp in placed[2]),
        interfaces=tuple(
            InterfaceSpec(axis=axis, position=position(axis),
                          model=draw(models), span=span(axis))
            for axis in draw(st.lists(st.integers(0, dim - 1), max_size=2))),
        doping=DopingProfile(sheets=tuple(
            SheetDoping(axis=axis, position=position(axis), density=1.0)
            for axis in draw(st.lists(st.integers(0, dim - 1),
                                      max_size=1))))), off_grid


@given(case=grid_devices())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_admissible_devices_mesh_unless_off_grid(case):
    # a device that constructs meshes, and fails only on a coordinate off
    # the grid; so build_mesh need not check regions or segments again
    kwargs, off_grid = case
    try:
        device = DeviceSpec(**kwargs)
    except ConfigError:
        return
    try:
        mesh = build_mesh(device)
    except GeometryError as exc:
        assert off_grid and "does not lie on a grid line" in str(exc)
        return
    # each cell center lies in exactly one region
    owners = np.zeros(mesh.n_cells, dtype=int)
    for reg in device.regions:
        owners += np.all([(mesh.cell_centers[:, a] > lo)
                          & (mesh.cell_centers[:, a] < hi)
                          for a, (lo, hi) in enumerate(reg.bounds)], axis=0)
    assert np.all(owners == 1)
    assert np.all(mesh.cell_region >= 0)
    # boundary segments claim disjoint boundary faces, tagged by kind
    claimed = np.concatenate([np.zeros(0, dtype=int), *mesh.robin_faces,
                              *mesh.surface_faces,
                              *(np.flatnonzero(mesh.face_contact == c)
                                for c in range(len(device.contacts)))])
    assert np.unique(claimed).size == claimed.size
    assert np.all(np.min(mesh.face_cells[claimed], axis=1) < 0)
    assert np.all(mesh.face_tag[mesh.face_contact >= 0] == TAG_DIRICHLET)
    for faces in mesh.robin_faces:
        assert np.all(mesh.face_tag[faces] == TAG_ROBIN)
    for faces in mesh.surface_faces:
        assert np.all(mesh.face_tag[faces] == TAG_NEUMANN)


# -- doping ---------------------------------------------------------------

def test_box_doping_sums():
    dev = slab_1d(cells=4, extent=2.0,
                  doping=DopingProfile(boxes=(BoxDoping(((0.0, 1.0),), -1.0),
                                              BoxDoping(((1.0, 2.0),), 1.0),
                                              BoxDoping(((0.0, 2.0),), 0.5))))
    mesh = build_mesh(dev)
    d = bulk_doping(dev, mesh)
    assert d.tolist() == [-0.5, -0.5, 1.5, 1.5]


def test_doping_box_respects_cell_centers():
    # a box covering no cell center contributes nothing
    dev = slab_1d(cells=4, extent=2.0,
                  doping=DopingProfile(boxes=(BoxDoping(((0.4, 0.6),), 3.0),)))
    mesh = build_mesh(dev)
    assert np.all(bulk_doping(dev, mesh) == 0.0)
