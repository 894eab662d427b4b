import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from driftsim import operators
from driftsim.device import (
    TAG_DIRICHLET,
    TAG_INTERIOR,
    TAG_ROBIN,
    BoxDoping,
    Contact,
    DeviceSpec,
    DopingProfile,
    MaterialRegion,
    RobinSegment,
    SheetDoping,
    build_mesh,
)
from driftsim.errors import DomainError, SolverError
from driftsim.nonlinear_poisson import NonlinearPoissonProblem, newton_solve
from driftsim.operators import (
    Discretization,
    FactorSlot,
    FluxScheme,
    SparseOperator,
    apply_surface_load,
    assemble_continuity,
    assemble_poisson,
    bernoulli,
    carrier_face_coefficients,
    cell_average_faces,
    continuity_face_flux,
    eta_face,
    evaluate_face_coefficients,
    face_gradient,
    poisson_data_load,
    solve_linear,
)
from driftsim.statistics import boltzmann, fermi_dirac_half
from driftsim.transient import SimulationModels, TimeStepperConfig, run

SG = FluxScheme()
ENHANCED = FluxScheme(variant="scharfetter_gummel_enhanced")


def dirichlet_slab(cells=8, extent=1.0, phi_left=0.0, phi_right=0.0):
    return DeviceSpec(
        dimension=1, extent=(extent,), resolution=(cells,),
        regions=(MaterialRegion("bulk", ((0.0, extent),)),),
        contacts=(Contact(side="left", phi=phi_left),
                  Contact(side="right", phi=phi_right)))


# -- Bernoulli function ---------------------------------------------------

def test_bernoulli_at_zero():
    assert bernoulli(0.0) == 1.0


def test_bernoulli_reflection_identity():
    # B(-x) - B(x) = x exactly, for every x
    x = np.array([1e-9, 1e-5, 1e-3, 0.1, 1.0, 10.0, 50.0])
    gap = bernoulli(-x) - bernoulli(x)
    assert np.allclose(gap, x, rtol=1e-12)


def test_bernoulli_series_matches_direct_form():
    # straddle the series/direct switch at |x| = 1e-4
    for x in (9.999e-5, 1.0001e-4):
        exact = x / np.expm1(x)
        assert bernoulli(x) == pytest.approx(exact, rel=1e-12)


def test_bernoulli_extremes():
    assert bernoulli(800.0) == 0.0
    assert bernoulli(-800.0) == pytest.approx(800.0)


def test_bernoulli_vectorized():
    x = np.linspace(-3.0, 3.0, 7)
    out = bernoulli(x)
    assert out.shape == x.shape
    assert np.all(out > 0.0)


def _bernoulli_two_where(x):
    # the earlier form: series and quotient on every entry, one np.where
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-4
    xs = np.where(small, 1.0, x)
    with np.errstate(over="ignore"):
        out = np.where(small,
                       1.0 - x / 2.0 + x * x / 12.0 - x ** 4 / 720.0,
                       xs / np.expm1(xs))
    return float(out) if out.ndim == 0 else out


def test_bernoulli_bit_identical_to_the_two_where_form():
    rng = np.random.default_rng(7)
    edges = np.array([0.0, -0.0, 1e-4, -1e-4, np.nextafter(1e-4, 0.0),
                      -np.nextafter(1e-4, 0.0), 709.0, 710.0, -745.0,
                      5e-324, 800.0, -800.0])
    x = np.concatenate([np.linspace(-800.0, 800.0, 100_001),
                        rng.normal(0.0, 1e-4, 10_000),
                        rng.normal(0.0, 3.0, 10_000), edges])
    assert np.array_equal(bernoulli(x).view(np.int64),
                          _bernoulli_two_where(x).view(np.int64))
    for value in edges:
        got = bernoulli(value)
        assert type(got) is float
        assert np.float64(got).view(np.int64) \
            == np.float64(_bernoulli_two_where(value)).view(np.int64)
    assert type(bernoulli(np.float64(0.5))) is float


def test_bernoulli_series_bit_identical_to_the_pow_form():
    # the series' x^4 term, taken as (x * x) * (x * x) instead of x ** 4,
    # changes no bit of B on |x| < 1e-4, down to the subnormals and +-0
    tiny = np.geomspace(5e-324, 1e-4, 200_001)[:-1]
    x = np.concatenate([np.linspace(-1e-4, 1e-4, 2_000_001)[1:-1],
                        tiny, -tiny, [0.0, -0.0, 5e-324, -5e-324,
                                      2.2250738585072014e-308]])
    assert np.all(np.abs(x) < 1e-4)
    old = 1.0 - x / 2.0 + x * x / 12.0 - x ** 4 / 720.0
    assert np.array_equal(bernoulli(x).view(np.int64), old.view(np.int64))


# -- face flux ------------------------------------------------------------

def test_flux_scheme_validation():
    with pytest.raises(DomainError):
        FluxScheme(variant="upwind")
    with pytest.raises(DomainError):
        FluxScheme(variant="central")


def face_flux(scheme, u_lo, u_hi, s_lo, s_hi, dphi, t, stats=None):
    """One face's mass flow a u_lo - b u_hi from the kernel, as demo 06
    measures it: two unit cells of mobility ``t``, so that their one
    interior face has transmissibility ``t``, carrier 1 with the
    carrier-signed drop ``dphi``, side arguments ``s_lo``, ``s_hi`` and
    densities ``u_lo``, ``u_hi``; the enhanced variant takes eta from
    ``eta_face`` of ``stats``.  The grounded left contact makes the pair
    an admissible device; its face is not the one measured."""
    pair = DeviceSpec(dimension=1, extent=(2.0,), resolution=(2,),
                      regions=(MaterialRegion("bulk", ((0.0, 2.0),),
                                              mu1=t),),
                      contacts=(Contact(side="left"),))
    disc = Discretization(build_mesh(pair))
    # cells, then the ghost; carrier 1's drop is phi_lo - phi_hi
    phi = np.array([0.0, -dphi, 0.0])
    chi = np.array([[s_lo, s_hi, s_lo]] * 2)
    u = np.array([[u_lo, u_hi, u_lo]] * 2)
    faces = carrier_face_coefficients(disc, (stats, stats), scheme, phi, chi,
                                      u)
    return faces.flux()[0, disc.faces[0]]


def test_pure_diffusion_limit():
    # d_phi = 0, u_lo = 2, u_hi = 1, unit edge: flux = 2 - 1 = 1 downhill
    f = face_flux(SG, 2.0, 1.0, 0.0, 0.0, 0.0, 1.0)
    assert f == pytest.approx(1.0)
    f = face_flux(ENHANCED, 2.0, 1.0, 0.0, 0.0, 0.0, 1.0, boltzmann())
    assert f == pytest.approx(1.0)


@pytest.mark.parametrize("scheme,stats", [
    (SG, boltzmann()),
    (ENHANCED, boltzmann()),
    (ENHANCED, fermi_dirac_half()),
])
def test_zero_flux_at_equal_chemical_potential(scheme, stats):
    # densities generated from a single quasi-Fermi level: no net flow,
    # whatever the electrostatic drop.  chi picks up the full drop, since
    # dphi is already carrier-signed: s_hi - s_lo = dphi.
    rng = np.random.default_rng(3)
    for _ in range(20):
        dphi = rng.uniform(-3.0, 3.0)
        s_lo = rng.uniform(-1.0, 1.0)
        s_hi = s_lo + dphi
        u_lo, u_hi = stats.eval(s_lo), stats.eval(s_hi)
        f = face_flux(scheme, u_lo, u_hi, s_lo, s_hi, dphi,
                      1.3 * 0.7 / 0.25, stats=stats)
        assert abs(f) <= 1e-12 * max(u_lo, u_hi)


def test_plain_sg_misses_degenerate_equilibrium():
    # the exponentially fitted coefficients assume Boltzmann statistics;
    # under Fermi-Dirac densities they leave a spurious equilibrium flux,
    # which is what the enhanced variant removes
    stats = fermi_dirac_half()
    s_lo, dphi = 5.0, 1.0
    s_hi = s_lo + dphi
    f = face_flux(SG, stats.eval(s_lo), stats.eval(s_hi), s_lo, s_hi, dphi,
                  1.0)
    assert abs(f) > 1e-3


def test_flux_scales_with_transmissibility():
    f1 = face_flux(SG, 2.0, 1.0, 0.0, 0.0, 0.4, 1.0)
    f2 = face_flux(SG, 2.0, 1.0, 0.0, 0.0, 0.4, 2.0 * 3.0 / 0.5)
    assert f2 == pytest.approx(12.0 * f1)


def test_central_agrees_with_sg_to_second_order():
    # consistency oracle: the centered flux
    # t (u_lo - u_hi) + t dphi (u_lo + u_hi) / 2, here with t = 1
    u_lo, u_hi = 1.5, 0.7
    errs = []
    for dphi in (0.1, 0.05, 0.025):
        a = face_flux(SG, u_lo, u_hi, 0.0, 0.0, dphi, 1.0)
        b = (u_lo - u_hi) + dphi * (u_lo + u_hi) / 2.0
        errs.append(abs(a - b))
    rate = np.polyfit(np.log([0.1, 0.05, 0.025]), np.log(errs), 1)[0]
    assert rate == pytest.approx(2.0, abs=0.1)


def _eta_face(stats, s_lo, s_hi):
    return eta_face(stats, s_lo, s_hi, stats.eval(s_lo), stats.eval(s_hi))


def test_eta_face_boltzmann_unity():
    assert np.all(_eta_face(boltzmann(), np.array([0.0, 1.0]),
                            np.array([2.0, 1.0])) == 1.0)


def test_eta_face_degenerate_exceeds_one():
    eta = _eta_face(fermi_dirac_half(), 10.0, 12.0)
    assert eta > 1.0


def test_eta_face_smooth_in_the_nondegenerate_range():
    # a short face deep in the Boltzmann range: eta is 1 + 0.35 exp(s)
    eta = _eta_face(fermi_dirac_half(), -15.0000015, -14.9999995)
    assert eta == pytest.approx(1.0000001082, abs=1e-8)


def test_eta_face_midpoint_only_where_the_sides_coincide():
    # faces with |ds| < 1e-6 take eta at the midpoint, the others the
    # divided difference; a face's value does not depend on its neighbours
    fd = fermi_dirac_half()
    s_lo = np.array([1.0, 2.0, 5.0, -3.0, 30.0])
    s_hi = np.array([1.0 + 1e-8, 4.0, 5.0, -3.0 + 2e-6, 30.0 - 5e-7])
    eta = _eta_face(fd, s_lo, s_hi)
    close = np.array([True, False, True, False, True])
    assert np.array_equal(eta[close], fd.eval_eta(0.5 * (s_lo + s_hi))[close])
    for i in range(s_lo.size):
        assert eta[i] == _eta_face(fd, s_lo[i], s_hi[i])


# -- elliptic assembly ----------------------------------------------------

def test_poisson_operator_is_symmetric():
    dev = dirichlet_slab(cells=16)
    op = assemble_poisson(build_mesh(dev))
    A = op.csc()
    assert abs(A - A.T).max() <= 1e-14


def test_linear_profile_reproduced_exactly():
    # two-point flux is exact for affine potentials with uniform eps
    dev = dirichlet_slab(cells=8, extent=2.0, phi_left=1.0, phi_right=3.0)
    mesh = build_mesh(dev)
    op = assemble_poisson(mesh)
    load = poisson_data_load(op, t=0.0)
    phi, _ = solve_linear(op, load)
    exact = 1.0 + mesh.cell_centers[:, 0]
    assert np.max(np.abs(phi - exact)) <= 1e-13


def test_constant_lift_2d():
    dev = DeviceSpec(
        dimension=2, extent=(1.0, 1.0), resolution=(5, 5),
        regions=(MaterialRegion("bulk", ((0.0, 1.0), (0.0, 1.0)), eps=2.0),),
        contacts=(Contact(side="left", phi=4.0), Contact(side="right", phi=4.0)))
    mesh = build_mesh(dev)
    op = assemble_poisson(mesh)
    phi, _ = solve_linear(op, poisson_data_load(op, t=0.0))
    assert np.max(np.abs(phi - 4.0)) <= 1e-12


def test_robin_wall_follows_gate_value():
    # pure Robin walls with equal gate potential: solution is that constant
    dev = DeviceSpec(
        dimension=1, extent=(1.0,), resolution=(6,),
        regions=(MaterialRegion("bulk", ((0.0, 1.0),)),),
        robin=(RobinSegment("left", eps_gamma=2.5, phi_gamma=1.5),
               RobinSegment("right", eps_gamma=0.5, phi_gamma=1.5)))
    mesh = build_mesh(dev)
    op = assemble_poisson(mesh)
    load = poisson_data_load(op, t=0.0)
    phi, _ = solve_linear(op, load)
    assert np.max(np.abs(phi - 1.5)) <= 1e-12


def test_sheet_doping_loads_its_plane_half_and_half():
    # a sheet of density sigma on the plane x = 1 of a 4x4 mesh adds
    # sigma * area of each of its four faces, half to the cell on either
    # side, and nothing elsewhere
    sigma = 0.75
    bare = DeviceSpec(
        dimension=2, extent=(2.0, 1.0), resolution=(4, 4),
        regions=(MaterialRegion("bulk", ((0.0, 2.0), (0.0, 1.0))),),
        contacts=(Contact(side="left", phi=0.5), Contact(side="right")))
    sheet = replace(bare, doping=DopingProfile(
        sheets=(SheetDoping(axis=0, position=1.0, density=sigma),)))
    loads = [poisson_data_load(assemble_poisson(build_mesh(dev)), t=0.0)
             for dev in (bare, sheet)]
    added = loads[1] - loads[0]
    x = build_mesh(sheet).cell_centers[:, 0]
    beside = (x == 0.75) | (x == 1.25)
    assert np.array_equal(added[beside], np.full(8, 0.5 * sigma * 0.25))
    assert np.array_equal(added[~beside], np.zeros(8))
    assert added.sum() == sigma * 1.0


# -- continuity assembly --------------------------------------------------

def _two_contact_device_2d():
    # left contact over the whole side, right contact on a middle span,
    # a Robin segment on part of the bottom; every other boundary face is
    # an insulated wall.  Two materials make the transmissibilities differ.
    return DeviceSpec(
        dimension=2, extent=(1.2, 1.0), resolution=(6, 5),
        regions=(MaterialRegion("a", ((0.0, 0.6), (0.0, 1.0)),
                                mu1=1.0, mu2=0.4),
                 MaterialRegion("b", ((0.6, 1.2), (0.0, 1.0)),
                                mu1=(2.5, 0.5), mu2=1.5)),
        contacts=(Contact(side="left"),
                  Contact(side="right", span=(0.2, 0.8))),
        robin=(RobinSegment("bottom", eps_gamma=0.5, span=(0.0, 0.6)),))


def _every_side_device_2d():
    # a one-face contact on every side: on the left and bottom ones the
    # ghost lies below its cell, on the right and top ones above it.  The
    # top-left and bottom-right cells each touch two contacts, one with
    # the ghost below and one with it above, so their diagonals sum the
    # two contact terms in face order (the anisotropic mobilities make the
    # other order round differently); a Robin segment and walls fill in.
    return DeviceSpec(
        dimension=2, extent=(1.2, 1.0), resolution=(6, 5),
        regions=(MaterialRegion("a", ((0.0, 0.6), (0.0, 1.0)),
                                mu1=(1.0, 0.3), mu2=(0.9, 0.3)),
                 MaterialRegion("b", ((0.6, 1.2), (0.0, 1.0)),
                                mu1=(2.5, 0.5), mu2=1.5)),
        contacts=(Contact(side="left", span=(0.8, 1.0)),
                  Contact(side="top", span=(0.0, 0.2)),
                  Contact(side="bottom", span=(1.0, 1.2)),
                  Contact(side="right", span=(0.0, 0.2))),
        robin=(RobinSegment("bottom", eps_gamma=0.5, span=(0.2, 0.8)),))


def _one_carrier_contacts(rng, dev):
    """A (phi_D, Phi_D) draw per contact, as the (3, n_contacts) contact
    array with Phi_D for both carriers."""
    phi_d, level = np.array([(rng.uniform(0.0, 2.0), rng.uniform(0.0, 1.0))
                             for _ in dev.contacts]).reshape(-1, 2).T
    return np.vstack([phi_d, level, level])


def _device(dimension):
    if dimension == 1:
        return dirichlet_slab(cells=9)
    return _two_contact_device_2d() if dimension == 2 \
        else _every_side_device_2d()


DIMENSIONS = pytest.mark.parametrize(
    "dimension", [1, 2, "2d_every_side"], ids=["1d", "2d", "2d_every_side"])


@DIMENSIONS
@pytest.mark.parametrize("k", [1, 2], ids=["k1", "k2"])
@pytest.mark.parametrize("scheme,stats", [
    (SG, boltzmann()),
    (ENHANCED, fermi_dirac_half()),
], ids=["sg", "enhanced_fd"])
def test_flux_divergence_matches_continuity_matrix(dimension, k, scheme,
                                                   stats):
    # the face flux and the matrix come from one set of face coefficients,
    # so the net cell outflow of the flux is M u minus the Dirichlet load
    dev = _device(dimension)
    mesh = build_mesh(dev)
    rng = np.random.default_rng(11 + k)
    phi = rng.uniform(0.0, 2.0, mesh.n_cells)
    chi = rng.uniform(0.0, 3.0, mesh.n_cells)
    contacts = _one_carrier_contacts(rng, dev)
    flux = continuity_face_flux(mesh, stats, scheme, k, phi, chi,
                                contacts)
    M, load = assemble_continuity(mesh, stats, scheme, k, phi, chi,
                                  contacts)
    M = M.csc()
    u = stats.eval(chi)
    lo, hi = mesh.face_cells[:, 0], mesh.face_cells[:, 1]
    outflow = np.zeros(mesh.n_cells)
    np.add.at(outflow, lo[lo >= 0], flux[lo >= 0])
    np.add.at(outflow, hi[hi >= 0], -flux[hi >= 0])
    assert np.all(flux[mesh.face_tag == TAG_DIRICHLET] != 0.0)
    scale = np.max(abs(M) @ u + np.abs(load))
    assert np.max(np.abs(outflow - (M @ u - load))) <= 1e-13 * scale
    # the cell densities the coefficients carry are F(chi) bit for bit:
    # F of chi extended by its ghosts equals F of chi alone, elementwise
    f = evaluate_face_coefficients(Discretization(mesh), (stats, stats),
                                   scheme, phi, np.vstack([chi, chi]),
                                   contacts)
    assert np.array_equal(f.u[k - 1, :mesh.n_cells], u)


@DIMENSIONS
@pytest.mark.parametrize("k", [1, 2], ids=["k1", "k2"])
def test_continuity_shims_equal_the_kernel(dimension, k):
    # assemble_continuity and continuity_face_flux are one kernel call for
    # carrier k with both carriers at its statistics
    dev = _device(dimension)
    mesh = build_mesh(dev)
    rng = np.random.default_rng(17 + k)
    phi = rng.uniform(0.0, 2.0, mesh.n_cells)
    chi = rng.uniform(-1.0, 3.0, (2, mesh.n_cells))
    contacts = rng.uniform(0.0, 1.0, (3, len(dev.contacts)))
    stats = (fermi_dirac_half(), boltzmann())
    f = evaluate_face_coefficients(Discretization(mesh), stats, ENHANCED,
                                   phi, chi, contacts)
    # carrier k's contact level, in both rows the shims read it from
    own = contacts[[0, k, k]]
    M, load = assemble_continuity(mesh, stats[k - 1], ENHANCED, k, phi,
                                  chi[k - 1], own)
    M_ref, load_ref = f.system(k, np.zeros(mesh.n_cells))
    assert np.array_equal(M.csc().data, M_ref.csc().data)
    assert np.array_equal(load, load_ref)
    flux = continuity_face_flux(mesh, stats[k - 1], ENHANCED, k, phi,
                                chi[k - 1], own)
    assert np.array_equal(flux, f.flux()[k - 1])
    with pytest.raises(DomainError, match="carrier index"):
        assemble_continuity(mesh, stats[k - 1], ENHANCED, 0, phi,
                            chi[k - 1], own)


@DIMENSIONS
@pytest.mark.parametrize("stats", [
    (fermi_dirac_half(), fermi_dirac_half()),
    (boltzmann(), boltzmann()),
    (boltzmann(), fermi_dirac_half()),
], ids=["fd", "boltzmann", "mixed"])
def test_carrier_face_coefficients_match_each_carrier(dimension, stats):
    # both carriers evaluated in one statistics call and one kernel pass
    # give each carrier's own coefficients and densities bit for bit: row
    # k - 1 of a call equals row k - 1 of the call with both carriers at
    # carrier k's statistics, whatever the other row holds
    dev = _device(dimension)
    mesh = build_mesh(dev)
    disc = Discretization(mesh)
    n = mesh.n_cells
    rng = np.random.default_rng(3)
    phi = rng.uniform(0.0, 2.0, n)
    chi = rng.uniform(-1.0, 3.0, (2, n))
    contacts = rng.uniform(0.0, 1.0, (len(dev.contacts), 3)).T
    both = evaluate_face_coefficients(disc, stats, ENHANCED, phi, chi,
                                      contacts)
    for k in (1, 2):
        one = evaluate_face_coefficients(disc, (stats[k - 1],) * 2,
                                         ENHANCED, phi, chi, contacts)
        for name in ("a", "b", "u"):
            assert np.array_equal(getattr(both, name)[k - 1],
                                  getattr(one, name)[k - 1])
        assert np.array_equal(one.u[k - 1, :n], stats[k - 1].eval(chi[k - 1]))


@pytest.mark.parametrize("scheme,stats", [
    (SG, (boltzmann(), boltzmann())),
    (ENHANCED, (boltzmann(), fermi_dirac_half())),
], ids=["sg", "enhanced_mixed"])
def test_one_kernel_call_is_one_bernoulli_pass(monkeypatch, scheme, stats):
    # both carriers' coefficients, a and b alike, come from one bernoulli
    # call on the stacked (2, 2, n_faces) arguments
    dev = _device(2)
    mesh = build_mesh(dev)
    disc = Discretization(mesh)
    rng = np.random.default_rng(8)
    phi = rng.uniform(0.0, 2.0, mesh.n_cells)
    chi = rng.uniform(-1.0, 3.0, (2, mesh.n_cells))
    contacts = rng.uniform(0.0, 1.0, (3, len(dev.contacts)))
    shapes = []

    def counted(x):
        shapes.append(np.shape(x))
        return bernoulli(x)

    monkeypatch.setattr(operators, "bernoulli", counted)
    f = evaluate_face_coefficients(disc, stats, scheme, phi, chi, contacts)
    assert shapes == [(2, 2, disc.faces.size)]
    assert f.a.shape == f.b.shape == (2, disc.faces.size)


# -- fill into the fixed pattern ------------------------------------------
#
# Matrices are filled straight into the Discretization's CSC pattern.  The
# references below are coordinate-list builds, with their face sets read
# off the mesh, and every entry must come out bit for bit the same.

def _reference_faces(mesh):
    interior = mesh.face_tag == TAG_INTERIOR
    lo, hi = mesh.face_cells[interior].T
    c_lo, c_hi = mesh.face_cells[mesh.face_tag == TAG_DIRICHLET].T
    return lo, hi, np.where(c_lo >= 0, c_lo, c_hi), c_lo >= 0


def _coo(n, rows, cols, data):
    return sp.coo_matrix((np.concatenate(data), (np.concatenate(rows),
                                                 np.concatenate(cols))),
                         shape=(n, n)).tocsr()


@DIMENSIONS
@pytest.mark.parametrize("k", [1, 2], ids=["k1", "k2"])
@pytest.mark.parametrize("scheme,stats", [
    (SG, boltzmann()),
    (ENHANCED, fermi_dirac_half()),
], ids=["sg", "enhanced_fd"])
def test_system_fill_matches_coordinate_build(dimension, k, scheme, stats):
    dev = _device(dimension)
    mesh = build_mesh(dev)
    n = mesh.n_cells
    rng = np.random.default_rng(5 + k)
    phi = rng.uniform(0.0, 2.0, n)
    chi = rng.uniform(-1.0, 3.0, n)
    contacts = _one_carrier_contacts(rng, dev)
    mass = mesh.cell_volumes / 0.0137
    f = evaluate_face_coefficients(Discretization(mesh), (stats, stats),
                                   scheme, phi, np.vstack([chi, chi]),
                                   contacts)
    M, load = f.system(k, mass)

    # the stencil lists the interior faces first, then the contact faces
    lo, hi, cell, on_lo_side = _reference_faces(mesh)
    m = lo.size
    fa, fb, fu = f.a[k - 1], f.b[k - 1], f.u[k - 1]
    a, b = fa[:m], fb[:m]
    inner = np.where(on_lo_side, fa[m:], fb[m:])
    every = np.arange(n)
    ref = _coo(n, [lo, lo, hi, hi, cell, every],
               [lo, hi, hi, lo, cell, every],
               [a, -b, b, -a, inner, mass])
    ref_load = np.zeros(n)
    np.add.at(ref_load, cell,
              np.where(on_lo_side, fb[m:], fa[m:]) * fu[n:])
    assert np.array_equal(M.csc().toarray(), ref.toarray())
    assert np.array_equal(load, ref_load)


@pytest.mark.parametrize("dimension", [1, 2], ids=["1d", "2d"])
def test_newton_jacobian_fill_matches_sparse_sum(dimension):
    dev = _device(dimension)
    mesh = build_mesh(dev)
    n = mesh.n_cells
    op = assemble_poisson(mesh)

    lo, hi, cell, _ = _reference_faces(mesh)
    t, tb = np.split(op.disc.transmissibility[0], [lo.size])
    eps_gamma = np.zeros(mesh.n_faces)
    for segment, faces in zip(dev.robin, mesh.robin_faces):
        eps_gamma[faces] = segment.eps_gamma
    robin = np.flatnonzero(mesh.face_tag == TAG_ROBIN)
    assert (robin.size > 0) == (dimension == 2)
    r_lo, r_hi = mesh.face_cells[robin].T
    r_cell = np.where(r_lo >= 0, r_lo, r_hi)
    P = _coo(n, [lo, hi, lo, hi, cell, r_cell], [lo, hi, hi, lo, cell, r_cell],
             [t, t, -t, -t, tb, eps_gamma[robin] * mesh.face_area[robin]])
    assert np.array_equal(op.csc().toarray(), P.toarray())

    d = np.random.default_rng(2).uniform(0.1, 5.0, n)
    J = op.shifted(d).csc()
    assert np.array_equal(J.toarray(), (op.csc() + sp.diags(d)).toarray())
    assert np.array_equal(J.toarray(), (P + sp.diags(d)).toarray())


def test_matrices_cannot_change_the_shared_pattern():
    # every matrix on a mesh shares the Discretization's index arrays, so
    # an in-place structural change must fail instead of corrupting them
    dev = _device(2)
    op = assemble_poisson(build_mesh(dev))
    with pytest.raises(ValueError):
        op.csc().eliminate_zeros()
    with pytest.raises(ValueError):
        op.shifted(np.ones(op.dimension)).csc().indices[0] = 1


def _junction_2d(cells=64):
    return DeviceSpec(
        dimension=2, extent=(20.0, 20.0), resolution=(cells, cells),
        regions=(MaterialRegion("bulk", ((0.0, 20.0), (0.0, 20.0))),),
        contacts=(Contact(side="left", phi=-0.48), Contact(side="right",
                                                           phi=0.48)))


def test_poisson_factor_fill_on_the_2d_junction():
    # the stencil is structurally symmetric, so a minimum-degree ordering
    # of A^T + A keeps the LU fill of the 64x64 junction near 6.3 nnz(A);
    # the default column ordering gives 10.9
    dev = _junction_2d()
    op = assemble_poisson(build_mesh(dev))
    lu = op.factor()
    assert (lu.L.nnz + lu.U.nnz) / op.csc().nnz <= 7.0


@pytest.mark.parametrize("system", ["poisson", "sg"])
def test_superlu_factor_matches_splu(system):
    # the ILU driver with nothing dropped gives splu's fill and, up to
    # rounding, splu's solution
    dev = _junction_2d()
    mesh = build_mesh(dev)
    op = assemble_poisson(mesh)
    n = op.dimension
    rng = np.random.default_rng(11)
    if system == "sg":
        chi = rng.uniform(-1.0, 3.0, n)
        f = evaluate_face_coefficients(
            op.disc, (boltzmann(), boltzmann()), SG, rng.uniform(0.0, 2.0, n),
            np.vstack([chi, chi]), _one_carrier_contacts(rng, dev))
        op = f.system(1, mesh.cell_volumes / 0.01)[0]
    lu = op.factor()
    reference = spla.splu(op.csc(), permc_spec="MMD_AT_PLUS_A")
    assert lu.L.nnz + lu.U.nnz == reference.L.nnz + reference.U.nnz
    for b in rng.normal(size=(3, n)):
        ref = reference.solve(b)
        assert np.max(np.abs(lu.solve(b) - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_solve_linear_refines_from_the_held_factor(monkeypatch):
    # P + c V with c = 1 is factored; c = 1.01 is solved from that factor
    # down to rounding, with no new factor; c = 3 is too far for
    # refinement to halve the residual, so it takes exactly one factor,
    # which replaces the held one.  No c here makes the operator dominant
    # enough for Jacobi, which would take the solve without a factor
    calls = _count_superlu(monkeypatch)
    dev = _junction_2d(cells=24)
    mesh = build_mesh(dev)
    poisson = assemble_poisson(mesh)
    b = np.random.default_rng(2).normal(size=poisson.dimension)
    slot = FactorSlot()

    def solve(c):
        op = poisson.shifted(c * mesh.cell_volumes)
        x, _ = solve_linear(op, b, slot)
        assert np.linalg.norm(op @ x - b) <= 1e-14 * np.linalg.norm(b)
        return op

    first = solve(1.0)
    assert len(calls) == 1 and slot.op is first
    near = solve(1.01)
    assert len(calls) == 1 and slot.op is first and near._lu is None
    far = solve(3.0)
    assert not operators._dominant(far)
    assert len(calls) == 2 and slot.op is far


def _continuity_system(cells, dt, seed=11):
    """Carrier 1's backward-Euler continuity matrix on the ``cells``-square
    junction, SG coefficients at a random potential and level, with the
    mass V/dt on its diagonal, and a random right-hand side."""
    dev = _junction_2d(cells)
    mesh = build_mesh(dev)
    disc = Discretization(mesh)
    rng = np.random.default_rng(seed)
    n = mesh.n_cells
    chi = rng.uniform(-1.0, 3.0, n)
    f = evaluate_face_coefficients(
        disc, (boltzmann(), boltzmann()), SG, rng.uniform(0.0, 2.0, n),
        np.vstack([chi, chi]), _one_carrier_contacts(rng, dev))
    return f.system(1, mesh.cell_volumes / dt)[0], rng.normal(size=n)


def _count_jacobi(monkeypatch):
    """Record the diagonal of every Jacobi "factor" solve_linear makes."""
    made = []
    original = operators._Jacobi

    def recording(diagonal):
        made.append(diagonal)
        return original(diagonal)

    monkeypatch.setattr(operators, "_Jacobi", recording)
    return made


def test_dominant_continuity_system_needs_no_factor(monkeypatch):
    # V/dt at the junction deck's first step, dt = 0.001, makes the 64x64
    # continuity matrix row dominant by 2 or more, so Jacobi sweeps reach
    # the contract with no factor, and the answer is splu's up to rounding
    calls = _count_superlu(monkeypatch, drivers=("splu", "spilu"))
    op, b = _continuity_system(64, dt=0.001)
    assert operators._dominant(op)
    slot = FactorSlot()
    x, r = solve_linear(op, b, slot)
    assert calls == [] and slot.op is None and op._lu is None
    assert np.linalg.norm(r) <= 1e-12 * np.linalg.norm(b)
    ref = spla.splu(op.csc(), permc_spec="MMD_AT_PLUS_A").solve(b)
    assert np.max(np.abs(x - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_newton_directions_and_weak_diagonals_take_no_jacobi_step(
        monkeypatch):
    # a loose target (a Newton direction) goes to the factor even on a
    # dominant operator, and a contract solve on the Poisson operator,
    # whose interior rows are not dominant, goes there too
    made = _count_jacobi(monkeypatch)
    calls = _count_superlu(monkeypatch)
    op, b = _continuity_system(16, dt=0.01)
    assert operators._dominant(op)
    solve_linear(op, b, rtol=1e-3)
    poisson = assemble_poisson(build_mesh(_junction_2d(16)))
    assert not operators._dominant(poisson)
    solve_linear(poisson, b)
    assert made == [] and len(calls) == 2
    solve_linear(op, b)
    assert len(made) == 1 and len(calls) == 2


def test_zero_diagonal_is_a_solver_error_without_a_warning():
    # an empty row of an otherwise dominant operator: the zero diagonal
    # keeps Jacobi from dividing by it, and the factor path reports the
    # singular matrix
    op, b = _continuity_system(16, dt=0.01)
    disc, m = op.disc, op.disc.n_interior
    diagonal, upper, lower = op.diagonal.copy(), op.upper.copy(), \
        op.lower.copy()
    diagonal[5] = 0.0
    upper[disc.lo[:m] == 5] = 0.0
    lower[disc.hi[:m] == 5] = 0.0
    singular = SparseOperator(disc, diagonal, upper, lower)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not operators._dominant(singular)
        with pytest.raises(SolverError, match="factorization failed"):
            solve_linear(singular, b, FactorSlot())


def test_jacobi_that_misses_the_contract_falls_back_to_a_factor(monkeypatch):
    # every row is dominant by exactly 2, but diagonals that alternate
    # between 1 and 1e4 make a Jacobi step grow the residual, so the
    # solve takes the factor path, which meets the contract
    made = _count_jacobi(monkeypatch)
    calls = _count_superlu(monkeypatch)
    disc = Discretization(build_mesh(_box_2d(6, 6)))
    m = disc.n_interior
    lo, hi = disc.lo[:m], disc.hi[:m]
    degree = np.bincount(np.concatenate([lo, hi]), minlength=disc.n_cells)
    diagonal = np.where(np.arange(disc.n_cells) % 2 == 0, 1.0, 1e4)
    op = SparseOperator(disc, diagonal, -0.5 * (diagonal / degree)[lo],
                        -0.5 * (diagonal / degree)[hi])
    assert operators._dominant(op)
    b = np.random.default_rng(6).normal(size=disc.n_cells)
    slot = FactorSlot()
    x, r = solve_linear(op, b, slot)
    assert len(made) == 1 and len(calls) == 1 and slot.op is op
    assert np.linalg.norm(op @ x - b) <= 1e-12 * np.linalg.norm(b)


class _CountingFactor:
    """A factor whose triangular solves are counted."""

    def __init__(self, lu):
        self.lu, self.solves = lu, 0

    def solve(self, b):
        self.solves += 1
        return self.lu.solve(b)


def _stale_jacobian(height):
    """The 24x24 junction's Newton Jacobian P + V (e^phi + e^-phi) at a
    potential ramp of ``height`` across the device, and a slot holding the
    counted factor of the Jacobian at phi = 0."""
    dev = _junction_2d(cells=24)
    mesh = build_mesh(dev)
    poisson = assemble_poisson(mesh)
    held = poisson.shifted(2.0 * mesh.cell_volumes)
    held._lu = _CountingFactor(held.factor())
    slot = FactorSlot()
    slot.op = held
    phi = height * (mesh.cell_centers[:, 0] / 10.0 - 1.0)
    jacobian = poisson.shifted(2.0 * mesh.cell_volumes * np.cosh(phi))
    return jacobian, slot


def test_loose_target_stops_at_the_first_step_that_meets_it():
    # a Newton direction from a held factor of a drifted Jacobian: the
    # refinement iterates, replayed here, first meet 1e-3 at iterate k >= 2,
    # and solve_linear returns that iterate after k + 1 solves, no factor
    jacobian, slot = _stale_jacobian(0.8)
    held, counted = slot.op, slot.op._lu
    b = np.random.default_rng(3).normal(size=jacobian.dimension)
    target = 1e-3 * np.linalg.norm(b)
    iterates = [counted.lu.solve(b)]
    while np.linalg.norm(b - jacobian @ iterates[-1]) > target:
        assert len(iterates) <= 8
        iterates.append(iterates[-1] + counted.lu.solve(
            b - jacobian @ iterates[-1]))
    assert len(iterates) >= 3
    x, _ = solve_linear(jacobian, b, slot, rtol=1e-3)
    assert counted.solves == len(iterates)
    assert np.array_equal(x, iterates[-1])
    assert slot.op is held and jacobian._lu is None


def _floor_refinement(op, lu, b):
    """Refinement to the rounding floor: the first solve, then steps while
    each at least halves the residual, at most 8 of them; (x, solves)."""
    x = lu.solve(b)
    res = np.linalg.norm(b - op @ x)
    solves = 1
    for _ in range(8):
        x_next = x + lu.solve(b - op @ x)
        solves += 1
        res_next = np.linalg.norm(b - op @ x_next)
        if not res_next < res:
            break
        halved = res_next <= 0.5 * res
        x, res = x_next, res_next
        if not halved:
            break
    return x, solves


def test_contract_solve_refines_to_the_floor():
    # at the 1e-12 contract a solve that needs refining is refined to the
    # rounding floor, not to the contract: the same solves and the same
    # bits as floor refinement, and more solves than a loose target takes
    jacobian, slot = _stale_jacobian(0.3)
    counted = slot.op._lu
    b = np.random.default_rng(4).normal(size=jacobian.dimension)
    want, solves = _floor_refinement(jacobian, counted.lu, b)
    x, _ = solve_linear(jacobian, b, slot)
    assert counted.solves == solves >= 4
    assert np.array_equal(x.view(np.int64), want.view(np.int64))
    assert np.linalg.norm(jacobian @ x - b) <= 1e-14 * np.linalg.norm(b)
    assert jacobian._lu is None
    counted.solves = 0
    solve_linear(jacobian, b, slot, rtol=1e-3)
    assert counted.solves < solves


def _on_pattern(disc, dense):
    """The operator on ``disc``'s pattern holding the entries of the dense
    matrix ``dense`` there."""
    m = disc.n_interior
    lo, hi = disc.lo[:m], disc.hi[:m]
    return SparseOperator(disc, np.diag(dense), dense[lo, hi], dense[hi, lo])


@pytest.mark.parametrize("dimension", [1, 2])
def test_singular_system_in_solve_linear_is_a_solver_error(dimension):
    # a zero first column makes the matrix exactly singular, on the gttrf
    # path (1D) and the SuperLU path (2D); the error is typed, so a step
    # that meets it is rejected instead of ending the run, and the stale
    # factor is not kept
    dev = dirichlet_slab(cells=6) if dimension == 1 else _device(2)
    op = assemble_poisson(build_mesh(dev))
    dense = op.csc().toarray()
    dense[:, 0] = 0.0
    singular = _on_pattern(op.disc, dense)
    assert np.array_equal(singular.csc().toarray(), dense)
    b = np.ones(op.dimension)
    slot = FactorSlot()
    solve_linear(op, b, slot)
    assert (slot.op is op) == (dimension == 2)
    with pytest.raises(SolverError, match="factorization failed"):
        solve_linear(singular, b, slot)
    assert slot.op is None
    # the error comes from SparseOperator.factor, on either backend
    with pytest.raises(SolverError, match="singular"):
        singular.factor()


def test_tridiagonal_solve_meeting_the_contract_solves_once(monkeypatch):
    # the residual check is the only cost solve_linear adds to a 1D
    # solve: a first solve that meets the contract is not refined
    dev = dirichlet_slab(cells=16, phi_left=1.0, phi_right=3.0)
    op = assemble_poisson(build_mesh(dev))
    lu = op.factor()
    calls = []
    original = lu.solve

    def counting(b):
        calls.append(b.shape)
        return original(b)

    monkeypatch.setattr(lu, "solve", counting)
    b = poisson_data_load(op, t=0.0)
    x, r = solve_linear(op, b)
    assert calls == [(16,)]
    assert np.linalg.norm(op @ x - b) <= 1e-12 * np.linalg.norm(b)
    # the residual comes back with x, formed once
    assert np.array_equal(r, b - op @ x)


def test_overflowing_right_hand_side_norm_is_not_a_warning():
    # the plain ||b|| overflows for entries near 1e160; the rescaled norm
    # is finite, and the first solve meets the contract as it is
    dev = dirichlet_slab(cells=6)
    op = assemble_poisson(build_mesh(dev))
    b = np.full(6, 1e160)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, _ = solve_linear(op, b)
    assert np.array_equal(x, op.factor().solve(b))


def test_huge_right_hand_side_still_meets_the_contract():
    # a held factor of 2A halves the solution, so the residual is b/2;
    # with b near 1e200 both norms overflow when taken plainly, and an
    # infinite target would accept that x
    dev = dirichlet_slab(cells=6)
    op = assemble_poisson(build_mesh(dev))
    op._lu = _on_pattern(op.disc, 2.0 * op.csc().toarray()).factor()
    with pytest.raises(SolverError, match="exceeds"):
        solve_linear(op, np.full(6, 1e200))


def test_non_finite_residual_in_solve_linear_is_a_solver_error():
    # an infinite diagonal entry makes the residual NaN (inf * 0), which
    # the contract must reject: no comparison with a bound is true for NaN
    dev = dirichlet_slab(cells=6)
    op = assemble_poisson(build_mesh(dev))
    dense = op.csc().toarray()
    dense[2, 2] = np.inf
    poisoned = _on_pattern(op.disc, dense)
    with pytest.raises(SolverError, match="residual nan"):
        solve_linear(poisoned, np.ones(6))


def test_norm_of_a_non_finite_vector_is_not_a_warning():
    # an infinite entry reads inf and a NaN entry NaN, with no rescaling
    # by an infinite max|v| (inf / inf would be NaN, and a warning)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert operators._norm(np.array([np.inf, 1.0])) == np.inf
        assert operators._norm(np.array([1.0, -np.inf])) == np.inf
        assert np.isnan(operators._norm(np.array([np.nan, 1.0])))
        assert np.isnan(operators._norm(np.array([np.inf, np.nan])))
        with np.errstate(over="ignore"):
            # the plain try overflows, so the norm is rescaled
            assert operators._norm(np.array([3e200, 4e200])) \
                == pytest.approx(5e200, rel=1e-15)
    # a finite vector's norm is np.linalg.norm's bit for bit
    for v in np.random.default_rng(5).normal(size=(20, 37)) * 1e3:
        assert operators._norm(v) == np.linalg.norm(v)


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_right_hand_side_is_a_solver_error(dimension, bad):
    # a right-hand side with an infinite or NaN entry has no finite
    # target, so it meets no contract: SolverError on both factor paths,
    # from a held factor too, and no RuntimeWarning on the way
    dev = dirichlet_slab(cells=6) if dimension == 1 else _device(2)
    op = assemble_poisson(build_mesh(dev))
    b = np.ones(op.dimension)
    slot = FactorSlot()
    solve_linear(op, b, slot)
    b[1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match="exceeds"):
            solve_linear(op, b, slot)
        with pytest.raises(SolverError, match="exceeds"):
            solve_linear(op, b)


# -- tridiagonal factor ---------------------------------------------------
#
# A pattern that is tridiagonal in cell order (every 1D mesh with at least
# three cells) is factored by LAPACK gttrf; every other one by SuperLU,
# through its ILU driver (spilu) with nothing dropped.

def _count_superlu(monkeypatch, drivers=("spilu",)):
    """Record the matrix shape of every call of the named SuperLU drivers."""
    calls = []

    def counting(original):
        def call(*args, **kwargs):
            calls.append(args[0].shape)
            return original(*args, **kwargs)
        return call

    for name in drivers:
        monkeypatch.setattr(spla, name, counting(getattr(spla, name)))
    return calls


@pytest.mark.parametrize("cells,splu_calls", [(1, 1), (2, 1), (3, 0),
                                              (16, 0)])
def test_factor_path_follows_the_pattern_in_1d(monkeypatch, cells,
                                               splu_calls):
    calls = _count_superlu(monkeypatch)
    dev = dirichlet_slab(cells=cells, phi_left=1.0, phi_right=3.0)
    mesh = build_mesh(dev)
    op = assemble_poisson(mesh)
    assert op.disc.bands == (cells >= 3)
    phi = op.factor().solve(poisson_data_load(op, t=0.0))
    assert len(calls) == splu_calls
    exact = 1.0 + 2.0 * mesh.cell_centers[:, 0]
    assert np.max(np.abs(phi - exact)) <= 1e-13


def test_factor_path_is_splu_in_2d(monkeypatch):
    calls = _count_superlu(monkeypatch)
    dev = _two_contact_device_2d()
    op = assemble_poisson(build_mesh(dev))
    assert not op.disc.bands
    op.factor()
    assert calls == [op.csc().shape]


def test_1d_run_never_calls_splu(monkeypatch):
    # the Poisson factor, every Newton Jacobian and every continuity
    # system of a 1D run go through gttrf, through neither SuperLU driver
    calls = _count_superlu(monkeypatch, drivers=("splu", "spilu"))
    dev = DeviceSpec(
        dimension=1, extent=(2.0,), resolution=(16,),
        regions=(MaterialRegion("bulk", ((0.0, 2.0),)),),
        contacts=(Contact(side="left", phi=-0.5),
                  Contact(side="right", phi=0.5,
                          bias=((0.0, 0.0), (0.5, 0.1)))),
        doping=DopingProfile(boxes=(BoxDoping(((0.0, 1.0),), -1.0),
                                    BoxDoping(((1.0, 2.0),), 1.0))))
    result = run(dev, SimulationModels(stats=(boltzmann(), boltzmann())),
                 TimeStepperConfig(dt_init=0.05, t_end=0.1, dt_min=0.01))
    assert result.completed
    assert calls == []


@pytest.mark.parametrize("seed", range(6))
def test_tridiagonal_solves_agree_with_splu(seed):
    # even seeds are diagonally dominant, odd ones have diagonals smaller
    # than their off-diagonals, so gttrf swaps rows
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 60))
    dev = dirichlet_slab(cells=n)
    disc = Discretization(build_mesh(dev))
    lower, upper = rng.normal(size=(2, n - 1))
    diagonal = rng.normal(size=n)
    if seed % 2 == 0:
        diagonal = np.sign(diagonal) * (3.0 + np.abs(diagonal))
    else:
        diagonal *= 0.1
    pivots = lapack.dgttrf(lower, diagonal, upper)[4]
    assert np.array_equal(pivots, np.arange(1, n + 1)) == (seed % 2 == 0)
    op = SparseOperator(disc, diagonal, upper, lower)
    reference = spla.splu(op.csc(), permc_spec="MMD_AT_PLUS_A")
    dense = np.diag(diagonal) + np.diag(upper, 1) + np.diag(lower, -1)
    assert np.array_equal(op.csc().toarray(), dense)
    for b in rng.normal(size=(3, n)):
        x = op.factor().solve(b)
        ref = reference.solve(b)
        assert np.max(np.abs(x - ref)) <= 1e-13 * np.max(np.abs(ref))


# an entry: a signed zero, or +-m 10^e with m in [1, 10) and |e| <= 300
_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda sign, m, e: sign * m * 10.0 ** e,
              st.sampled_from([1.0, -1.0]),
              st.floats(1.0, 10.0, exclude_max=True), st.integers(-300, 300)))


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _box_2d(nx, ny):
    return DeviceSpec(
        dimension=2, extent=(1.0, 1.0), resolution=(nx, ny),
        regions=(MaterialRegion("bulk", ((0.0, 1.0), (0.0, 1.0))),),
        contacts=(Contact(side="left"), Contact(side="right")))


@given(data=st.data())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_bands_agree_with_the_csc_matrix_bit_for_bit(data):
    # the same stencil values held by an operator and gathered into a CSC
    # matrix by scipy, on a tridiagonal (1D) or a 2D pattern: the
    # operator's CSC copy is scipy's matrix, its product scipy's product,
    # and a shift adds to the CSC data at its diagonal slots, shares the
    # off-diagonal values and leaves the parent as it was.  On the bands,
    # the band shift is the shift of the CSC data at its band slots, and
    # gttrf on the bands solves as gttrf on the bands gathered from the CSC
    # data did, bit for bit, signed zeros, overflow and NaN included
    if data.draw(st.booleans(), label="2d"):
        dev = _box_2d(*(data.draw(st.integers(2, 6)) for _ in range(2)))
    else:
        dev = dirichlet_slab(cells=data.draw(st.integers(3, 40)))
    disc = Discretization(build_mesh(dev))
    n, m = disc.n_cells, disc.n_interior
    assert disc.bands == (dev.dimension == 1)

    def draw(size):
        return np.array(data.draw(st.lists(_ENTRIES, min_size=size,
                                           max_size=size)))

    diagonal, upper, lower, x, shift = (draw(n), draw(m), draw(m), draw(n),
                                        draw(n))
    op = SparseOperator(disc, diagonal, upper, lower)
    kept = diagonal.copy()
    i, lo, hi = np.arange(n), disc.lo[:m], disc.hi[:m]
    A = sp.coo_matrix((np.concatenate([lower, diagonal, upper]),
                       (np.concatenate([hi, i, lo]),
                        np.concatenate([lo, i, hi]))),
                      shape=(n, n)).tocsc()
    rows, cols = A.indices, np.repeat(i, np.diff(A.indptr))
    on_diagonal = np.flatnonzero(rows == cols)
    C = op.csc()
    assert np.array_equal(C.indptr, A.indptr)
    assert np.array_equal(C.indices, A.indices)
    assert np.array_equal(_bits(C.data), _bits(A.data))
    with np.errstate(all="ignore"):
        assert np.array_equal(_bits(op @ x), _bits(A @ x))
        shifted = A.data.copy()
        shifted[on_diagonal] += shift
        J = op.shifted(shift)
        assert np.array_equal(_bits(J.csc().data), _bits(shifted))
        assert J.upper is op.upper and J.lower is op.lower
        assert np.array_equal(_bits(op.diagonal), _bits(kept))
        if disc.bands:
            slots = [np.flatnonzero(rows == cols + 1), on_diagonal,
                     np.flatnonzero(rows + 1 == cols)]
            for band, s in zip((J.lower, J.diagonal, J.upper), slots):
                assert np.array_equal(_bits(band), _bits(shifted[s]))
            *factors, info = lapack.dgttrf(*(A.data[s] for s in slots))
            if info > 0:
                with pytest.raises(SolverError, match="singular"):
                    op.factor()
            else:
                assert np.array_equal(_bits(op.factor().solve(x)),
                                      _bits(lapack.dgttrs(*factors, x)[0]))
    assert np.array_equal(_bits(op.csc().toarray()), _bits(A.toarray()))


def test_1d_run_makes_no_sparse_product_and_no_csc_matrix(monkeypatch):
    # every operator of a 1D run multiplies and factors its bands, so the
    # run multiplies by no scipy.sparse matrix and builds no CSC matrix;
    # counted at scipy's own entry points and at Discretization.csc, the
    # one place an operator's CSC copy is made, which a 2D product reaches
    counts = {"product": 0, "csc": 0}

    def counting(key, original):
        def call(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)
        return call

    owner = next(c for c in sp.csc_matrix.__mro__
                 if "_matmul_dispatch" in vars(c))
    monkeypatch.setattr(owner, "_matmul_dispatch",
                        counting("product", owner._matmul_dispatch))
    for cls in (sp.csc_matrix, sp.csc_array):
        monkeypatch.setattr(cls, "__init__", counting("csc", cls.__init__))
    monkeypatch.setattr(Discretization, "csc",
                        counting("csc", Discretization.csc))
    dev = DeviceSpec(
        dimension=1, extent=(2.0,), resolution=(16,),
        regions=(MaterialRegion("bulk", ((0.0, 2.0),)),),
        contacts=(Contact(side="left", phi=-0.5),
                  Contact(side="right", phi=0.5,
                          bias=((0.0, 0.0), (0.5, 0.1)))),
        doping=DopingProfile(boxes=(BoxDoping(((0.0, 1.0),), -1.0),
                                    BoxDoping(((1.0, 2.0),), 1.0))))
    result = run(dev, SimulationModels(stats=(boltzmann(), boltzmann())),
                 TimeStepperConfig(dt_init=0.05, t_end=0.1, dt_min=0.01))
    assert result.completed and result.steps_accepted >= 2
    assert counts == {"product": 0, "csc": 0}
    dev = _device(2)
    op = assemble_poisson(build_mesh(dev))
    op @ np.ones(op.dimension)
    assert counts["product"] == 1 and counts["csc"] >= 2


def _singular_first_column(n, volumes):
    # column 0 of P + 2 diag(volumes) is zero: P[0, 0] = -2 V[0] and the
    # (1, 0) entry is 0; P itself is regular (its lower block is SPD)
    diagonal = np.full(n, 4.0)
    diagonal[0] = -2.0 * volumes[0]
    lower = np.full(n - 1, -1.0)
    lower[0] = 0.0
    return diagonal, np.full(n - 1, -1.0), lower


def test_singular_tridiagonal_factor_raises():
    # SparseOperator.factor is where a singular matrix becomes a
    # SolverError; splu agrees that this one is singular
    dev = dirichlet_slab(cells=6)
    mesh = build_mesh(dev)
    disc = Discretization(mesh)
    diagonal, upper, lower = _singular_first_column(6, mesh.cell_volumes)
    diagonal[0] = 0.0
    op = SparseOperator(disc, diagonal, upper, lower)
    assert disc.bands
    with pytest.raises(SolverError, match="singular"):
        op.factor()
    with pytest.raises(RuntimeError, match="singular"):
        spla.splu(op.csc(), permc_spec="MMD_AT_PLUS_A")


def test_singular_newton_jacobian_is_a_solver_error():
    # at phi = omega = 0 the Boltzmann density terms add exactly 2 V to
    # the diagonal, which makes the Jacobian's first column zero
    n = 6
    dev = dirichlet_slab(cells=n)
    mesh = build_mesh(dev)
    disc = Discretization(mesh)
    volumes = mesh.cell_volumes
    poisson = SparseOperator(disc, *_singular_first_column(n, volumes))
    problem = NonlinearPoissonProblem(
        poisson=poisson,
        load=np.concatenate([[0.0], -np.ones(n - 1)]),
        stats=(boltzmann(), boltzmann()), omega=np.zeros((2, n)))
    assert problem.dual_norm(problem.linearize(np.zeros(n))[0]) > 0.0
    with pytest.raises(SolverError, match="factorization failed"):
        newton_solve(problem)


def test_surface_load_conserves_mass():
    dev = dirichlet_slab(cells=9)
    mesh = build_mesh(dev)
    interior = np.flatnonzero(mesh.face_tag == TAG_INTERIOR)[:4]
    rate = np.array([0.3, -0.2, 1.7, 0.05])
    load = apply_surface_load(mesh, interior, rate)
    injected = float(np.sum(load))
    direct = float(np.sum(rate * mesh.face_area[interior]))
    assert injected == pytest.approx(direct, abs=1e-15)


def _face_center(mesh, face):
    """Center of ``face``: a cell center moved by its center-to-face
    distance along the face's axis."""
    lo, hi = mesh.face_cells[face]
    normal = np.eye(mesh.dimension)[mesh.face_axis[face]]
    if lo >= 0:
        return mesh.cell_centers[lo] + mesh.face_dl[face] * normal
    return mesh.cell_centers[hi] - mesh.face_dr[face] * normal


@pytest.mark.parametrize("dimension", [1, "2d_every_side"],
                         ids=["1d", "2d_every_side"])
def test_face_gradient_of_affine_field(dimension):
    # every contact has one face, so the field's value at its center is
    # the contact value; flux faces see the slope along their axis, the
    # walls and Robin faces report zero
    dev = dirichlet_slab(cells=10, extent=2.0) if dimension == 1 \
        else _every_side_device_2d()
    mesh = build_mesh(dev)
    slope = np.array([2.0, -0.75])[:mesh.cell_centers.shape[1]]
    values = 0.5 + mesh.cell_centers @ slope
    contacts = [0.5 + _face_center(mesh, face) @ slope
                for face in (np.flatnonzero(mesh.face_contact == c).item()
                             for c in range(len(dev.contacts)))]
    grad = face_gradient(Discretization(mesh), values, contacts)
    stencil = np.isin(mesh.face_tag, (TAG_INTERIOR, TAG_DIRICHLET))
    assert np.max(np.abs(grad[stencil] - slope[mesh.face_axis[stencil]])) \
        <= 1e-12
    assert np.all(grad[~stencil] == 0.0)


@pytest.mark.parametrize("dimension", [1, "2d_every_side"],
                         ids=["1d", "2d_every_side"])
def test_face_readers_keep_a_leading_axis(dimension):
    # a (2, .) field is read row by row, bit for bit
    dev = dirichlet_slab(cells=10, extent=2.0) if dimension == 1 \
        else _every_side_device_2d()
    mesh = build_mesh(dev)
    disc = Discretization(mesh)
    rng = np.random.default_rng(12)
    values = rng.normal(size=(2, mesh.n_cells))
    contacts = rng.normal(size=(2, len(dev.contacts)))
    grad = face_gradient(disc, values, contacts)
    assert grad.shape == (2, mesh.n_faces)
    face_values = rng.normal(size=(2, mesh.n_faces))
    avg = cell_average_faces(mesh, face_values)
    assert avg.shape == (2, *mesh.cell_face_lo.shape)
    for row in range(2):
        assert np.array_equal(grad[row], face_gradient(disc, values[row],
                                                       contacts[row]))
        assert np.array_equal(avg[row],
                              cell_average_faces(mesh, face_values[row]))


def test_cell_average_faces_of_constant():
    mesh = build_mesh(dirichlet_slab(cells=7))
    avg = cell_average_faces(mesh, np.full(mesh.n_faces, 3.25))
    assert np.max(np.abs(avg - 3.25)) <= 1e-14
