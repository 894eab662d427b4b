import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from driftsim.errors import DomainError
from driftsim.recombination import (
    Auger,
    Avalanche,
    MassAction,
    ReactionInputs,
    ShockleyReadHall,
    SurfaceSRH,
    bulk_production,
    kappa,
    kappa_lipschitz_bound,
)
from driftsim.statistics import boltzmann
from driftsim.transient import SimulationModels

vectors = st.lists(st.floats(min_value=-10.0, max_value=10.0),
                   min_size=3, max_size=3).map(np.array)


# -- ionization kernel ----------------------------------------------------

def test_kappa_zero_current():
    assert kappa(np.array([1.0, 0.0, 0.0]), np.zeros(3), a=1.0) == 0.0


def test_kappa_zero_field():
    assert kappa(np.zeros(3), np.array([0.0, 2.0, 0.0]), a=1.0) == 0.0


def test_kappa_orthogonal_is_exactly_zero():
    e = np.array([1.0, 0.0, 0.0])
    j = np.array([0.0, 3.0, 0.0])
    assert kappa(e, j, a=0.5) == 0.0


def test_kappa_collinear_value():
    # e parallel j: kappa = |j| exp(-a/|e|)
    e = np.array([2.0, 0.0, 0.0])
    j = np.array([3.0, 0.0, 0.0])
    assert kappa(e, j, a=1.0) == pytest.approx(3.0 * math.exp(-0.5))


def test_kappa_sign_of_dot_is_irrelevant():
    e = np.array([1.0, 0.5, 0.0])
    j = np.array([0.5, 1.0, 0.25])
    assert kappa(e, j, 0.7) == kappa(-e, j, 0.7)


def test_kappa_batched():
    e = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    j = np.array([[2.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    out = kappa(e, j, a=1.0)
    assert out.shape == (2,)
    assert out[0] == pytest.approx(2.0 * math.exp(-1.0))
    assert out[1] == 0.0


def test_kappa_requires_positive_threshold():
    with pytest.raises(DomainError):
        kappa(np.ones(3), np.ones(3), a=0.0)


@given(e=vectors, j=vectors, a=st.sampled_from([0.5, 1.0, 2.0]))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_kappa_bounded_by_current_norm(e, j, a):
    k = kappa(e, j, a)
    assert 0.0 <= k <= np.linalg.norm(j) + 1e-15


@given(e1=vectors, j1=vectors, e2=vectors, j2=vectors,
       a=st.sampled_from([0.5, 1.0, 2.0]))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_kappa_lipschitz_bound_holds(e1, j1, e2, j2, a):
    diff = abs(kappa(e1, j1, a) - kappa(e2, j2, a))
    bound = kappa_lipschitz_bound(
        a, np.linalg.norm(e1), np.linalg.norm(j2),
        np.linalg.norm(j1 - j2), np.linalg.norm(e1 - e2))
    assert diff <= bound + 1e-12


def test_kappa_rotation_invariance():
    theta = 0.3
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    rng = np.random.default_rng(5)
    for _ in range(25):
        e = rng.normal(size=3)
        j = rng.normal(size=3)
        assert kappa(rot @ e, rot @ j, 1.0) == pytest.approx(
            kappa(e, j, 1.0), rel=1e-12, abs=1e-300)


def test_lipschitz_constant_value():
    # L_a = 4 / (e^2 a), the maximum of a exp(-a/x) / x^2 at x = a/2
    bound = kappa_lipschitz_bound(2.0, norm_e1=0.0, norm_j2=1.0,
                                  norm_dj=0.0, norm_de=1.0)
    assert bound == pytest.approx(4.0 / (math.e ** 2 * 2.0))


# -- reaction models ------------------------------------------------------
# production is signed: the trap-assisted and Auger channels return minus
# their rate as written, mass action and avalanche return theirs

def at_u(u1, u2):
    return ReactionInputs(u=(u1, u2))


def test_mass_action_equilibrium():
    m = MassAction(rate=2.0, generation=1.0)
    assert m.production(ReactionInputs(Phi=(0.3, -0.3))) == pytest.approx(0.0)
    assert m.production(ReactionInputs(Phi=(0.0, 0.0))) == pytest.approx(0.0)
    # net generation below the equilibrium product
    assert m.production(ReactionInputs(Phi=(-1.0, 0.0))) > 0.0


def test_srh_vanishes_at_intrinsic_product():
    m = ShockleyReadHall(tau1=2.0, tau2=3.0, ni=1.5)
    assert m.production(at_u(1.5, 1.5)) == pytest.approx(0.0)
    assert m.production(at_u(4.0, 4.0)) < 0.0
    assert m.production(at_u(0.1, 0.1)) > 0.0


def test_srh_denominator_weights():
    # tau2 multiplies the carrier-1 density and vice versa
    m = ShockleyReadHall(tau1=1.0, tau2=10.0, n1=0.0, n2=0.0, ni=1.0)
    assert m.production(at_u(2.0, 1.0)) == pytest.approx(
        -(2.0 - 1.0) / (10.0 * 2.0 + 1.0))


def test_auger_cubic_growth():
    m = Auger(c1=1.0, c2=0.5, ni=1.0)
    assert m.production(at_u(1.0, 1.0)) == pytest.approx(0.0)
    assert m.production(at_u(2.0, 2.0)) == pytest.approx(
        -(4.0 - 1.0) * (2.0 + 1.0))


def test_surface_srh_mirrors_bulk_form():
    m = SurfaceSRH(v1=0.5, v2=0.5)
    b = ShockleyReadHall(tau1=0.5, tau2=0.5)
    assert m.production(at_u(3.0, 2.0)) == pytest.approx(
        b.production(at_u(3.0, 2.0)))


def test_surface_srh_is_srh_bit_for_bit():
    # SurfaceSRH(v1, v2, ...) is ShockleyReadHall(tau1=v1, tau2=v2, ...),
    # so either may sit on a face with the same loads
    rng = np.random.default_rng(3)
    for _ in range(20):
        v1, v2, n1, n2, ni = rng.uniform(0.05, 5.0, 5)
        x = ReactionInputs(u=rng.uniform(1e-3, 1e3, (2, 500)))
        surface = SurfaceSRH(v1=v1, v2=v2, n1=n1, n2=n2, ni=ni)
        bulk = ShockleyReadHall(tau1=v1, tau2=v2, n1=n1, n2=n2, ni=ni)
        assert np.array_equal(surface.production(x), bulk.production(x))


def test_avalanche_is_kappa_combination():
    m = Avalanche(c1=2.0, c2=3.0, a1=0.5, a2=1.5)
    e = np.array([1.0, 0.2, 0.0])
    j1 = np.array([0.5, 0.0, 0.0])
    j2 = np.array([0.0, 1.0, 0.0])
    expected = 2.0 * kappa(e, j1, 0.5) + 3.0 * kappa(e, j2, 1.5)
    assert m.production(ReactionInputs(e=e, j=(j1, j2))) == pytest.approx(
        expected, rel=1e-14)


@pytest.mark.parametrize("model", [MassAction(), ShockleyReadHall(), Auger(),
                                   Avalanche(), SurfaceSRH()],
                         ids=lambda m: type(m).__name__)
def test_a_model_needs_only_what_it_reads(model):
    # a record holding only the declared inputs (None elsewhere) suffices
    rng = np.random.default_rng(4)
    full = ReactionInputs(u=rng.uniform(0.5, 2.0, (2, 6)),
                          Phi=rng.uniform(-1.0, 1.0, (2, 6)),
                          e=rng.normal(size=(6, 2)),
                          j=rng.normal(size=(2, 6, 2)))
    assert set(model.reads) <= set(ReactionInputs._fields)
    only = ReactionInputs(**{key: getattr(full, key) for key in model.reads})
    assert np.array_equal(model.production(only), model.production(full))


@pytest.mark.parametrize("bad", [
    lambda: MassAction(rate=-1.0),
    lambda: MassAction(generation=-0.1),
    lambda: ShockleyReadHall(tau1=0.0),
    lambda: ShockleyReadHall(ni=0.0),
    lambda: Auger(c1=-1.0),
    lambda: Avalanche(a1=0.0),
    lambda: Avalanche(c2=-2.0),
    lambda: SurfaceSRH(v1=0.0, v2=0.0),
    lambda: SurfaceSRH(n1=-1.0),
])
def test_model_parameter_validation(bad):
    with pytest.raises(DomainError):
        bad()


# -- aggregation ----------------------------------------------------------

def test_bulk_production_signs():
    n = 4
    u1 = np.full(n, 2.0)
    u2 = np.full(n, 2.0)
    Phi = np.zeros(n)
    e = np.zeros((n, 1))
    j = np.zeros((n, 1))
    srh = ShockleyReadHall()
    gen = MassAction(rate=1.0, generation=5.0)
    r = bulk_production((srh, gen), ReactionInputs(
        np.stack([u1, u2]), np.stack([Phi, Phi]), e, np.stack([j, j])))
    # SRH with unit parameters is (u1 u2 - 1) / (u1 + 1 + u2 + 1), a loss;
    # mass action is 1 * (5 - exp(0)), a gain
    expected = -(u1 * u2 - 1.0) / (u1 + 1.0 + u2 + 1.0) \
        + (5.0 - np.exp(Phi + Phi))
    assert np.allclose(r, expected, rtol=1e-15)


def test_bulk_production_reads_each_carrier_from_its_row():
    # row k - 1 of u, Phi and j is carrier k's: the asymmetric models see
    # the rows in order, and the sum is each model's signed rate
    rng = np.random.default_rng(9)
    n = 5
    u = rng.uniform(0.5, 3.0, (2, n))
    Phi = rng.uniform(-1.0, 1.0, (2, n))
    e = rng.normal(size=(n, 2))
    j = rng.normal(size=(2, n, 2))
    srh = ShockleyReadHall(tau1=0.3, tau2=2.0, n1=0.1, n2=4.0)
    gen = MassAction(rate=0.7, generation=2.0)
    ava = Avalanche(c1=1.0, c2=0.0, a1=0.5)
    r = bulk_production((srh, gen, ava), ReactionInputs(u, Phi, e, j))
    expected = -(u[0] * u[1] - 1.0) / (2.0 * (u[0] + 0.1)
                                       + 0.3 * (u[1] + 4.0)) \
        + 0.7 * (2.0 - np.exp(Phi[0] + Phi[1])) \
        + (1.0 * kappa(e, j[0], 0.5) + 0.0 * kappa(e, j[1], 1.0))
    assert np.array_equal(r, expected)


@pytest.mark.parametrize("bulk, message", [
    ((object(),), "object is not a reaction model"),
    ((ShockleyReadHall(), None), "NoneType is not a reaction model"),
], ids=["object", "none"])
def test_simulation_models_refuse_a_non_model(bulk, message):
    # a typed error when the models are bundled, not an AttributeError in
    # the first sweep
    with pytest.raises(DomainError, match=message):
        SimulationModels(stats=(boltzmann(), boltzmann()), bulk=bulk)
