import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from driftsim.device import (
    BoxDoping,
    Contact,
    DeviceSpec,
    DopingProfile,
    MaterialRegion,
    build_mesh,
)
from driftsim import nonlinear_poisson, operators
from driftsim.errors import DomainError, NonConvergenceError
from driftsim.nonlinear_poisson import (
    NonlinearPoissonProblem,
    apriori_bound,
    contraction_iterate,
    cutoff,
    equilibrium_state,
    neutral_potential,
    newton_solve,
    solve_operator_S,
)
from driftsim.operators import assemble_poisson, poisson_data_load
from driftsim.statistics import (boltzmann, carrier_arguments, eval_carriers,
                                 fermi_dirac_half)

BB = (boltzmann(), boltzmann())
FF = (fermi_dirac_half(), fermi_dirac_half())
BF = (boltzmann(), fermi_dirac_half())

# bisection on the quadrature oracle: s with F_fd(s) = 1
INVERT_FD_ONE = 0.348747361103643


def grounded_problem(stats=BB, omega=None, cells=24, load=None):
    dev = DeviceSpec(
        dimension=1, extent=(1.0,), resolution=(cells,),
        regions=(MaterialRegion("bulk", ((0.0, 1.0),)),),
        contacts=(Contact(side="left"), Contact(side="right")))
    mesh = build_mesh(dev)
    op = assemble_poisson(dev, mesh)
    if omega is None:
        omega = np.zeros((2, mesh.n_cells))
    if load is None:
        load = np.zeros(mesh.n_cells)
    return NonlinearPoissonProblem(poisson=op, load=load, stats=stats,
                                   omega=omega)


def pn_junction(cells=64, bias_right=0.0, extent=2.0):
    phi_n = float(np.arcsinh(0.5))
    half = extent / 2.0
    return DeviceSpec(
        dimension=1, extent=(extent,), resolution=(cells,),
        regions=(MaterialRegion("bulk", ((0.0, extent),)),),
        contacts=(Contact(side="left", phi=-phi_n),
                  Contact(side="right", phi=phi_n, bias=bias_right)),
        doping=DopingProfile(boxes=(BoxDoping(((0.0, half),), -1.0),
                                    BoxDoping(((half, extent),), 1.0))))


def test_cutoff_clamps():
    assert cutoff(3.0, 2.0) == 2.0
    assert cutoff(-3.0, 2.0) == -2.0
    assert cutoff(1.0, 2.0) == 1.0
    out = cutoff(np.array([-5.0, 0.0, 5.0]), 1.0)
    assert out.tolist() == [-1.0, 0.0, 1.0]


def test_cutoff_rejects_negative_bound():
    with pytest.raises(DomainError):
        cutoff(0.0, -1.0)


def test_neutral_potential_boltzmann_closed_form():
    d = np.array([-1e6, -2.0, -1.0, -1e-8, 0.0, 1e-8, 1.0, 2.0, 1e6])
    assert np.allclose(neutral_potential(BB, d), np.arcsinh(d / 2.0),
                       rtol=0.0, atol=0.0)


def test_neutral_potential_fermi_dirac_residual():
    s1, s2 = FF
    d = np.array([-1.0, 0.4, 3.0])
    phi = neutral_potential(FF, d)
    g = d + s1.eval(-phi) - s2.eval(phi)
    assert np.max(np.abs(g)) <= 1e-10


def test_neutral_potential_scalar():
    assert neutral_potential(BB, 1.0) == pytest.approx(np.arcsinh(0.5))


def test_apriori_bound_identical_statistics():
    omega = np.array([[0.5, -1.5], [0.25, 0.0]])
    assert apriori_bound(omega, BB) == 1.5
    assert apriori_bound(omega, FF) == 1.5


def test_apriori_bound_mixed_statistics():
    omega = np.zeros((2, 3))
    # the zero pair k1 = 0, k2 = F2^{-1}(F1(0)) widens the bound
    assert apriori_bound(omega, BF) == pytest.approx(INVERT_FD_ONE, rel=1e-9)


def test_loaded_solve_is_lift_plus_homogenized_solve():
    # phi = P^{-1} load + phi~, where phi~ solves the load-free problem
    # with omega shifted by (-P^{-1} load, +P^{-1} load)
    rng = np.random.default_rng(11)
    p = grounded_problem(load=rng.normal(size=24),
                         omega=rng.uniform(-1.0, 1.0, size=(2, 24)))
    phi_d = p.poisson.factor().solve(p.load)
    homogenized = replace(p, load=np.zeros(24),
                          omega=carrier_arguments(p.omega, phi_d))
    phi, _ = newton_solve(p, tol=1e-13)
    phi_tilde, _ = newton_solve(homogenized, tol=1e-13)
    assert np.max(np.abs(phi - (phi_d + phi_tilde))) <= 1e-12


def test_newton_solves_each_direction_through_solve_linear(monkeypatch):
    # a tridiagonal Jacobian goes through the residual contract too: one
    # solve_linear call per Newton iteration
    calls = []
    original = nonlinear_poisson.solve_linear

    def counting(op, b, slot=None, rtol=operators._SOLVE_RTOL):
        calls.append(op.dimension)
        return original(op, b, slot, rtol)

    monkeypatch.setattr(nonlinear_poisson, "solve_linear", counting)
    rng = np.random.default_rng(3)
    p = grounded_problem(load=rng.normal(size=24),
                         omega=rng.uniform(-2.0, 2.0, size=(2, 24)))
    assert p.poisson.disc.bands
    _, report = newton_solve(p, tol=1e-12)
    assert report.iterations >= 2
    assert calls == [24] * report.iterations


def test_1d_newton_iterates_do_not_depend_on_the_forcing_term(monkeypatch):
    # tridiagonal directions meet 1e-12 on their first solve, so the looser
    # forcing term changes no bit of any iterate, trial points included
    rng = np.random.default_rng(5)
    p = grounded_problem(load=rng.normal(size=24),
                         omega=rng.uniform(-2.0, 2.0, size=(2, 24)))
    seen = []
    original = NonlinearPoissonProblem.linearize

    def recording(self, phi):
        seen.append(phi.copy())
        return original(self, phi)

    monkeypatch.setattr(NonlinearPoissonProblem, "linearize", recording)
    assert nonlinear_poisson._NEWTON_FORCING > 1e-12
    runs = []
    for forcing in (nonlinear_poisson._NEWTON_FORCING, 1e-12):
        seen.clear()
        monkeypatch.setattr(nonlinear_poisson, "_NEWTON_FORCING", forcing)
        phi, report = newton_solve(p, tol=1e-12)
        runs.append((np.array(seen), phi, report))
    (seen_a, phi_a, report_a), (seen_b, phi_b, report_b) = runs
    assert report_a.iterations >= 2
    assert np.array_equal(seen_a.view(np.int64), seen_b.view(np.int64))
    assert np.array_equal(phi_a.view(np.int64), phi_b.view(np.int64))
    assert report_a == report_b


def test_dual_norm_overflow_reads_infinite():
    # r^T P^{-1} r overflows for residual entries near 1e160; the norm
    # reads inf, which the line search rejects, without a warning
    p = grounded_problem()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert p.dual_norm(np.full(24, 1e160)) == np.inf


@pytest.mark.parametrize("stats", [BB, FF, BF], ids=["bb", "ff", "bf"])
def test_linearize_matches_carrierwise_evaluation(stats):
    # one statistics call for both carriers changes no bit of the residual
    # or of the Jacobian diagonal
    rng = np.random.default_rng(4)
    p = grounded_problem(stats=stats, load=rng.normal(size=24),
                         omega=rng.uniform(-3.0, 3.0, size=(2, 24)))
    phi = rng.uniform(-1.0, 1.0, 24)
    s1, s2 = p.omega[0] - phi, p.omega[1] + phi
    r, diagonal, (u, du) = p.linearize(phi)
    assert np.array_equal(r, p.poisson @ phi - p.load - p.volumes
                          * (stats[0].eval(s1) - stats[1].eval(s2)))
    assert np.array_equal(diagonal, p.volumes * (
        stats[0].eval_derivative(s1) + stats[1].eval_derivative(s2)))
    # the densities it hands on are those the residual was built from
    for k, s_k in enumerate((s1, s2)):
        assert np.array_equal(u[k], stats[k].eval(s_k))
        assert np.array_equal(du[k], stats[k].eval_derivative(s_k))


@pytest.mark.parametrize("stats", [BB, FF, BF], ids=["bb", "ff", "bf"])
def test_newton_hands_on_the_densities_at_its_answer(stats):
    # the report's (F, F') are a fresh evaluation at the returned potential,
    # bit for bit, whether Newton stepped or accepted its start
    rng = np.random.default_rng(6)
    p = grounded_problem(stats=stats, load=rng.normal(size=24),
                         omega=rng.uniform(-3.0, 3.0, size=(2, 24)))
    phi, report = newton_solve(p, tol=1e-12)
    again, still = newton_solve(p, tol=1e-12, x0=phi)
    assert report.iterations >= 2 and still.iterations == 0
    for x, densities in ((phi, report.densities), (again, still.densities)):
        fresh = eval_carriers(stats, carrier_arguments(p.omega, x))
        for got, want in zip(densities, fresh):
            assert np.array_equal(got, want)
    assert np.array_equal(solve_operator_S(p, tol=1e-12)[1][0],
                          report.densities[0])


def test_newton_reaches_tolerance():
    rng = np.random.default_rng(0)
    p = grounded_problem(omega=rng.uniform(-2.0, 2.0, size=(2, 24)))
    phi, report = newton_solve(p, tol=1e-12)
    assert report.residual <= 1e-12
    assert p.dual_norm(p.linearize(phi)[0]) <= 1e-11


def test_contraction_and_newton_agree():
    rng = np.random.default_rng(1)
    p = grounded_problem(omega=rng.uniform(-2.0, 2.0, size=(2, 24)))
    phi_n, _ = newton_solve(p, tol=1e-13)
    phi_c, _ = contraction_iterate(p, tol=1e-12)
    assert np.max(np.abs(phi_n - phi_c)) <= 1e-9


def test_contraction_iteration_count_pinned():
    # the 64-cell problem of the poisson-newton suite: the optimal step
    # 2/(1 + L) takes 67 iterations here, the old step 1/L^2 took 810
    omega = np.random.default_rng(0).uniform(-2.0, 2.0, size=(2, 64))
    p = grounded_problem(omega=omega, cells=64)
    _, report = contraction_iterate(p, tol=1e-11)
    assert report.iterations <= 100


def test_contraction_records_cutoff():
    # the default cut-off is the a-priori bound, which covers omega
    p = grounded_problem(omega=np.full((2, 24), 0.7))
    bound = apriori_bound(p.omega, p.stats)
    assert bound >= 0.7
    phi, _ = contraction_iterate(p, tol=1e-10)
    phi_bound, _ = contraction_iterate(p, tol=1e-10, cutoff_bound=bound)
    assert np.array_equal(phi, phi_bound)


@pytest.mark.parametrize("stats", [BB, FF])
def test_operator_flat_for_balanced_omega(stats):
    p = grounded_problem(stats=stats)
    phi, _ = solve_operator_S(p, tol=1e-13)
    assert np.max(np.abs(phi)) <= 1e-12


def test_operator_nonexpansive_single_pair():
    rng = np.random.default_rng(2)
    om_a = rng.uniform(-2.0, 2.0, size=(2, 24))
    om_b = om_a + rng.uniform(-0.1, 0.1, size=(2, 24))
    pa = grounded_problem(omega=om_a)
    pb = grounded_problem(omega=om_b)
    sa, _ = solve_operator_S(pa, tol=1e-13)
    sb, _ = solve_operator_S(pb, tol=1e-13)
    gap = np.max(np.abs(sa - sb))
    assert gap <= np.max(np.abs(om_a - om_b)) + 1e-10


def test_problem_shape_validation():
    dev = DeviceSpec(
        dimension=1, extent=(1.0,), resolution=(4,),
        regions=(MaterialRegion("bulk", ((0.0, 1.0),)),),
        contacts=(Contact(side="left"), Contact(side="right")))
    mesh = build_mesh(dev)
    op = assemble_poisson(dev, mesh)
    with pytest.raises(DomainError):
        NonlinearPoissonProblem(poisson=op, load=np.zeros(3), stats=BB,
                                omega=np.zeros((2, 4)))
    with pytest.raises(DomainError):
        NonlinearPoissonProblem(poisson=op, load=np.zeros(4), stats=BB,
                                omega=np.full((2, 4), np.inf))


# -- equilibrium ----------------------------------------------------------

def equilibrium(dev):
    return equilibrium_state(assemble_poisson(dev, build_mesh(dev)), BB)


def test_equilibrium_pn_antisymmetry():
    dev = pn_junction(cells=64)
    phi, (u1, u2) = equilibrium(dev)
    assert np.max(np.abs(phi + phi[::-1])) <= 1e-9
    # carrier roles swap across the junction
    assert np.max(np.abs(u1 - u2[::-1])) <= 1e-9


def test_2d_equilibrium_stops_its_directions_at_the_forcing_term(
        monkeypatch):
    # the 64x64 junction's equilibrium Newton holds one Jacobian factor;
    # once that drifts, a direction stops at the first refinement step
    # that meets the forcing term instead of going on to the rounding
    # floor: 15 triangular solves here, 33 with floor refinement
    phi_n = float(np.arcsinh(0.5))
    dev = DeviceSpec(
        dimension=2, extent=(20.0, 20.0), resolution=(64, 64),
        regions=(MaterialRegion("bulk", ((0.0, 20.0), (0.0, 20.0))),),
        contacts=(Contact(side="left", phi=-phi_n),
                  Contact(side="right", phi=phi_n)),
        doping=DopingProfile(boxes=(
            BoxDoping(((0.0, 10.0), (0.0, 20.0)), -1.0),
            BoxDoping(((10.0, 20.0), (0.0, 20.0)), 1.0))))
    solves = []
    spilu = spla.spilu

    class Counted:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, b):
            solves.append(b.shape)
            return self.lu.solve(b)

    monkeypatch.setattr(spla, "spilu",
                        lambda *args, **kwargs: Counted(spilu(*args, **kwargs)))
    phi, _ = equilibrium(dev)
    assert 0 < len(solves) <= 16
    assert np.max(np.abs(phi + phi.reshape(64, 64)[:, ::-1].ravel())) <= 1e-9


def test_equilibrium_built_in_potential():
    # long device: the end cells sit in quasi-neutral material, so the
    # cross-device potential difference reads off the built-in value
    dev = pn_junction(cells=256, extent=20.0)
    phi, _ = equilibrium(dev)
    target = 2.0 * np.arcsinh(0.5)
    assert abs((phi[-1] - phi[0]) - target) <= 1e-3


def test_equilibrium_newton_failure_is_not_hidden(monkeypatch):
    def failing_newton(*args, **kwargs):
        raise NonConvergenceError("Newton did not reach tolerance",
                                  iterations=100, residual=1.0)

    def no_fallback(*args, **kwargs):
        pytest.fail("equilibrium_state fell back to the contraction")

    monkeypatch.setattr(nonlinear_poisson, "newton_solve", failing_newton)
    monkeypatch.setattr(nonlinear_poisson, "contraction_iterate", no_fallback)
    with pytest.raises(NonConvergenceError):
        equilibrium(pn_junction(cells=32))


def test_equilibrium_consistent_densities():
    dev = pn_junction(cells=32)
    phi, (u1, u2) = equilibrium(dev)
    assert np.allclose(u1, np.exp(-phi), rtol=1e-14)
    assert np.allclose(u2, np.exp(phi), rtol=1e-14)


def test_equilibrium_rejects_biased_contacts():
    dev = pn_junction(cells=16, bias_right=0.2)
    with pytest.raises(DomainError, match="zero carrier levels"):
        equilibrium(dev)
