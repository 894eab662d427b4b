import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    TAG_INTERIOR,
    build_mesh,
    bulk_doping,
    cell_tensor,
    sample_series,
    validate_device,
)
from driftsim.errors import GeometryError


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
    assert validate_device(slab_1d()) == ()
    assert validate_device(slab_2d()) == ()


def test_dimension_must_be_low():
    violations = validate_device(slab_1d(dimension=3))
    assert violations
    assert "dimension" in violations[0]


def test_extent_resolution_mismatch():
    from dataclasses import replace
    violations = validate_device(replace(slab_1d(), extent=(2.0, 1.0)))
    assert any("extent" in v for v in violations)
    violations = validate_device(replace(slab_1d(), resolution=(0,)))
    assert any("resolution" in v for v in violations)


def test_region_coverage_gap_detected():
    dev = slab_1d(regions=(MaterialRegion("half", ((0.0, 1.0),)),))
    violations = validate_device(dev)
    assert any("cover" in v for v in violations)


def test_region_overlap_detected():
    dev = slab_1d(regions=(MaterialRegion("a", ((0.0, 1.5),)),
                           MaterialRegion("b", ((0.5, 2.0),))))
    violations = validate_device(dev)
    assert any("overlap" in v for v in violations)


def test_non_elliptic_coefficients_rejected():
    dev = slab_1d(regions=(MaterialRegion("bulk", ((0.0, 2.0),), eps=0.0),))
    assert any("eps" in v for v in validate_device(dev))
    dev = slab_1d(regions=(MaterialRegion("bulk", ((0.0, 2.0),), mu2=-1.0),))
    assert any("mu2" in v for v in validate_device(dev))


def test_double_booking_a_side():
    dev = slab_1d(contacts=(Contact(side="left"), Contact(side="left")))
    violations = validate_device(dev)
    assert any("claimed by both" in v for v in violations)


def test_span_on_1d_side_rejected():
    dev = slab_1d(contacts=(Contact(side="left", span=(0.0, 0.5)),
                            Contact(side="right")))
    assert any("span" in v for v in validate_device(dev))


def test_negative_robin_capacity_message():
    dev = slab_1d(contacts=(), robin=(RobinSegment("left", eps_gamma=-2.0),
                                      RobinSegment("right", eps_gamma=1.0)))
    violations = validate_device(dev)
    assert any("negative capacity" in v for v in violations)


def test_floating_device_rejected():
    # no Dirichlet contact and only zero-capacity Robin walls
    dev = slab_1d(contacts=(), robin=(RobinSegment("left", eps_gamma=0.0),))
    violations = validate_device(dev)
    assert any("not coercive" in v for v in violations)


def test_malformed_series_reported():
    dev = slab_1d(contacts=(Contact(side="left", bias=((0.0, 0.0), (0.0, 1.0))),
                            Contact(side="right")))
    assert any("malformed" in v for v in validate_device(dev))


def test_interface_must_be_interior():
    dev = slab_1d(interfaces=(InterfaceSpec(axis=0, position=2.0),))
    assert any("interior" in v for v in validate_device(dev))


@pytest.mark.parametrize("dim, span, expected", [
    (1, (5.0, 1.0), "interface at 1.0 carries a span in 1D"),
    (2, (2.0, 0.0), "interface at 1.0 has span (2.0, 0.0)"),
    (2, (0.0, 3.0), "interface at 1.0 has span (0.0, 3.0)"),
], ids=["1d", "reversed", "past-the-side"])
def test_interface_span_checked(dim, span, expected):
    itf = (InterfaceSpec(axis=0, position=1.0, span=span),)
    dev = slab_1d(interfaces=itf) if dim == 1 else \
        slab_2d(extent=(2.0, 2.0), interfaces=itf)
    assert any(v.startswith(expected) for v in validate_device(dev))


def test_empty_doping_box_rejected():
    dev = slab_1d(cells=4, extent=2.0,
                  doping=DopingProfile(bulk=(BoxDoping(((1.5, 0.5),), 1.0),)))
    assert any("doping box" in v and "empty" in v
               for v in validate_device(dev))
    # a box reaching past the domain only covers fewer cells
    dev = slab_1d(cells=4, extent=2.0,
                  doping=DopingProfile(bulk=(BoxDoping(((1.0, 3.0),), 1.0),)))
    assert validate_device(dev) == ()


def test_sheet_doping_checks():
    dev = slab_1d(doping=DopingProfile(sheets=(SheetDoping(1, 0.5, 1.0),)))
    assert any("sheet" in v for v in validate_device(dev))


def test_validation_collects_everything():
    dev = slab_1d(
        regions=(MaterialRegion("bulk", ((0.0, 2.0),), eps=-1.0),),
        contacts=(Contact(side="left"), Contact(side="up")),
    )
    violations = validate_device(dev)
    assert len(violations) >= 2


# -- mesh geometry --------------------------------------------------------

def test_mesh_1d_counts_and_volumes():
    dev = slab_1d(cells=8, extent=2.0)
    mesh = build_mesh(dev)
    assert mesh.n_cells == 8
    assert mesh.n_faces == 9
    assert mesh.spacing == (0.25,)
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
    spacing = np.asarray(mesh.spacing)[mesh.face_axis[inner]]
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


# -- doping ---------------------------------------------------------------

def test_box_doping_sums():
    dev = slab_1d(cells=4, extent=2.0,
                  doping=DopingProfile(bulk=(BoxDoping(((0.0, 1.0),), -1.0),
                                             BoxDoping(((1.0, 2.0),), 1.0),
                                             BoxDoping(((0.0, 2.0),), 0.5))))
    mesh = build_mesh(dev)
    d = bulk_doping(dev, mesh)
    assert d.tolist() == [-0.5, -0.5, 1.5, 1.5]


def test_doping_box_respects_cell_centers():
    # a box covering no cell center contributes nothing
    dev = slab_1d(cells=4, extent=2.0,
                  doping=DopingProfile(bulk=(BoxDoping(((0.4, 0.6),), 3.0),)))
    mesh = build_mesh(dev)
    assert np.all(bulk_doping(dev, mesh) == 0.0)
