import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from driftsim.errors import DomainError
from driftsim.recombination import (
    Auger,
    Avalanche,
    MassAction,
    ShockleyReadHall,
    SurfaceSRH,
    bulk_production,
    kappa,
    kappa_lipschitz_bound,
)

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

def test_mass_action_equilibrium():
    m = MassAction(rate=2.0, generation=1.0)
    assert m.eval(0.3, -0.3) == pytest.approx(0.0)
    assert m.eval(0.0, 0.0) == pytest.approx(0.0)
    # net generation below the equilibrium product
    assert m.eval(-1.0, 0.0) > 0.0


def test_srh_vanishes_at_intrinsic_product():
    m = ShockleyReadHall(tau1=2.0, tau2=3.0, ni=1.5)
    assert m.eval(1.5, 1.5) == pytest.approx(0.0)
    assert m.eval(4.0, 4.0) > 0.0
    assert m.eval(0.1, 0.1) < 0.0


def test_srh_denominator_weights():
    # tau2 multiplies the carrier-1 density and vice versa
    m = ShockleyReadHall(tau1=1.0, tau2=10.0, n1=0.0, n2=0.0, ni=1.0)
    assert m.eval(2.0, 1.0) == pytest.approx((2.0 - 1.0) / (10.0 * 2.0 + 1.0))


def test_auger_cubic_growth():
    m = Auger(c1=1.0, c2=0.5, ni=1.0)
    assert m.eval(1.0, 1.0) == pytest.approx(0.0)
    assert m.eval(2.0, 2.0) == pytest.approx((4.0 - 1.0) * (2.0 + 1.0))


def test_surface_srh_mirrors_bulk_form():
    m = SurfaceSRH(v1=0.5, v2=0.5)
    b = ShockleyReadHall(tau1=0.5, tau2=0.5)
    assert m.eval(3.0, 2.0) == pytest.approx(b.eval(3.0, 2.0))


def test_avalanche_is_kappa_combination():
    m = Avalanche(c1=2.0, c2=3.0, a1=0.5, a2=1.5)
    e = np.array([1.0, 0.2, 0.0])
    j1 = np.array([0.5, 0.0, 0.0])
    j2 = np.array([0.0, 1.0, 0.0])
    expected = 2.0 * kappa(e, j1, 0.5) + 3.0 * kappa(e, j2, 1.5)
    assert m.eval(e, j1, j2) == pytest.approx(expected, rel=1e-14)


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
    r = bulk_production((srh, gen), np.stack([u1, u2]), np.stack([Phi, Phi]),
                        e, np.stack([j, j]))
    expected = -srh.eval(u1, u2) + gen.eval(Phi, Phi)
    assert np.allclose(r, expected, rtol=1e-15)


def test_bulk_production_reads_each_carrier_from_its_row():
    # row k - 1 of u, Phi and j is carrier k's: the asymmetric models see
    # the rows in order, and the sum is each model's rate as written
    rng = np.random.default_rng(9)
    n = 5
    u = rng.uniform(0.5, 3.0, (2, n))
    Phi = rng.uniform(-1.0, 1.0, (2, n))
    e = rng.normal(size=(n, 2))
    j = rng.normal(size=(2, n, 2))
    srh = ShockleyReadHall(tau1=0.3, tau2=2.0, n1=0.1, n2=4.0)
    gen = MassAction(rate=0.7, generation=2.0)
    ava = Avalanche(c1=1.0, c2=0.0, a1=0.5)
    r = bulk_production((srh, gen, ava), u, Phi, e, j)
    expected = -srh.eval(u[0], u[1]) + gen.eval(Phi[0], Phi[1]) \
        + ava.eval(e, j[0], j[1])
    assert np.array_equal(r, expected)


def test_bulk_production_rejects_unknown_model():
    with pytest.raises(DomainError):
        bulk_production((object(),), np.ones((2, 1)), np.zeros((2, 1)),
                        np.zeros((1, 1)), np.zeros((2, 1, 1)))
