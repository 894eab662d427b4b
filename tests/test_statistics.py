"""Distribution function checks against reference values.

Most reference values come from two independent sources, both frozen
here so those tests run without extra dependencies:

  - closed forms through the Dirichlet eta function,
    F(0) = (1 - 2**-0.5) * zeta(3/2) and F'(0) = (1 - 2**0.5) * zeta(1/2);
  - a 1e6-node trapezoid quadrature of the defining integral after the
    t = v**2 substitution (removes the root singularity).

The dense-grid test compares against mpmath's polylogarithm,
F_j(s) = -Re Li_{j+1}(-e^s), the oracle tools/fermi_dirac_table.py
generates the coefficient table from.

Tolerance guide:
  - closed-form eta values:        abs 1e-13 (same arithmetic, tight)
  - trapezoid cross-check:         abs 1e-5 (oracle discretization)
  - mpmath dense grid:             rel 1e-13 (the table is good to a few ulp)
  - jump across a piece edge:      rel 1e-13 (same headroom)
  - Boltzmann tail (s <= -12):     rel 1e-4 (F/exp(s) - 1 is about -0.35 exp(s))
  - inversion round trip:          rel 1e-10
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from driftsim._fermi_dirac_table import EDGES
from driftsim.errors import DomainError
from driftsim import statistics
from driftsim.statistics import (StatisticsModel, boltzmann, eval_carriers,
                                 fermi_dirac_half, invert_carriers)

FD = fermi_dirac_half()
BOLTZ = boltzmann()

# (1 - 2**-0.5) * scipy.special.zeta(1.5)
F_AT_ZERO = 0.7651470246254077
# (1 - 2**0.5) * scipy.special.zeta(0.5)
FPRIME_AT_ZERO = 0.6048986434216305
# 1e6-node trapezoid oracle
F_QUAD = {0.0: 0.7651470246254081, 1.0: 1.5756407761513,
          5.0: 8.844208895242957, -5.0: 0.0067219543145059105}
# bisection on the same oracle
INVERT_ONE = 0.348747361103643


class TestFermiDiracValues:
    def test_at_zero_closed_form(self):
        assert FD.eval(0.0) == pytest.approx(F_AT_ZERO, abs=1e-13)

    def test_derivative_at_zero_closed_form(self):
        assert FD.eval_derivative(0.0) == pytest.approx(FPRIME_AT_ZERO, abs=1e-13)

    @pytest.mark.parametrize("s", sorted(F_QUAD))
    def test_against_quadrature_oracle(self, s):
        assert FD.eval(s) == pytest.approx(F_QUAD[s], abs=1e-5)

    def test_invert_of_one(self):
        assert FD.invert(1.0) == pytest.approx(INVERT_ONE, rel=1e-10)

    def test_boltzmann_tail(self):
        # below the crossover F(s) must track exp(s) to 1e-4 relative
        s = np.array([-12.0, -13.5, -15.0, -20.0, -30.0])
        rel = np.abs(FD.eval(s) / np.exp(s) - 1.0)
        assert np.max(rel) <= 1e-4

    def test_crossover_continuity(self):
        # continuity away from the piece edges, at s = -15 and s = 30
        eps = 1e-9
        low = abs(FD.eval(-15.0 - eps) / FD.eval(-15.0 + eps) - 1.0)
        high = abs(FD.eval(30.0 - eps) / FD.eval(30.0 + eps) - 1.0)
        assert low <= 1e-5
        assert high <= 1e-5

    def test_piece_edges_continuous(self):
        # both sides of every edge of the piecewise evaluation agree
        for edge in EDGES:
            above = np.nextafter(edge, np.inf)
            for f in (FD.eval, FD.eval_derivative):
                assert abs(f(above) / f(edge) - 1.0) <= 1e-13

    def test_degenerate_limit(self):
        # leading Sommerfeld term (4/(3 sqrt(pi))) s^{3/2}
        s = 200.0
        lead = 4.0 / (3.0 * np.sqrt(np.pi)) * s ** 1.5
        assert FD.eval(s) == pytest.approx(lead, rel=1e-3)


@pytest.mark.parametrize("order", [0.5, -0.5], ids=["F", "F_prime"])
def test_dense_grid_against_mpmath(order):
    mpmath = pytest.importorskip("mpmath")
    edges = np.array(EDGES)
    s = np.concatenate([np.linspace(-60.0, 200.0, 400), edges,
                        np.nextafter(edges, np.inf), edges - 1e-6,
                        edges + 1e-6])
    f = FD.eval if order == 0.5 else FD.eval_derivative
    with mpmath.workdps(20):
        exact = np.array([float(-mpmath.polylog(order + 1, -mpmath.exp(x)).real)
                          for x in s])
    rel = np.abs(f(s) / exact - 1.0)
    assert np.max(rel) <= 1e-13, s[np.argmax(rel)]


class TestMonotonicityAndEta:
    def test_strictly_increasing(self):
        s = np.linspace(-20.0, 40.0, 400)
        f = FD.eval(s)
        assert np.all(np.diff(f) > 0.0)

    def test_derivative_positive(self):
        s = np.linspace(-20.0, 40.0, 97)
        assert np.all(FD.eval_derivative(s) > 0.0)

    def test_eta_at_least_one(self):
        # F and F' underflow together far below zero, where eta is 1
        s = np.concatenate([[-800.0, -720.0], np.linspace(-18.0, 40.0, 150)])
        assert np.all(FD.eval_eta(s) >= 1.0 - 1e-12)

    def test_eta_boltzmann_is_one(self):
        s = np.linspace(-5.0, 5.0, 11)
        assert np.all(BOLTZ.eval_eta(s) == 1.0)


@given(st.floats(min_value=-25.0, max_value=35.0))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_invert_round_trip(s):
    u = FD.eval(s)
    assert FD.eval(FD.invert(u)) == pytest.approx(u, rel=1e-10)


@given(st.floats(min_value=1e-10, max_value=1e6))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_invert_is_inverse_from_density_side(u):
    assert FD.eval(FD.invert(u)) == pytest.approx(u, rel=1e-10)


# densities from 1e-300 to 1e300: below, F(s) is subnormal and holds fewer
# digits than the tolerance asks for; the top of the float range has its
# own test below
@given(st.floats(min_value=1e-300, max_value=1e300),
       st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_invert_from_any_start(u, start):
    s = FD.invert(u, start)
    assert abs(FD.eval(s) - u) <= 1e-12 * u


@pytest.mark.parametrize("u", [1.7e308, np.finfo(float).max])
def test_invert_at_the_top_of_the_float_range(u):
    # neither the upper bracket nor the Sommerfeld tail forms an
    # intermediate larger than F, so nothing overflows on the way
    s = FD.invert(u)
    assert abs(FD.eval(s) - u) <= 1e-12 * u


def test_invert_start_that_is_not_finite_starts_cold():
    u = FD.eval(np.array([-40.0, -1.0, 0.5, 30.0]))
    start = np.array([np.nan, np.inf, -np.inf, np.nan])
    assert np.array_equal(FD.invert(u, start), FD.invert(u))
    # Boltzmann inversion is the closed form whatever the start
    assert np.array_equal(BOLTZ.invert(u, u), np.log(u))


@pytest.mark.parametrize("s_min", [-30.0, -60.0])
def test_invert_converged_entries_stay_put(monkeypatch, s_min):
    # each entry alone converges within 5 table passes; an entry that has
    # converged (below about -37, log(u) is exact) must not be thrown
    # back into the bracket while the others still iterate
    u = FD.eval(np.linspace(s_min, -5.0, 1000))
    passes = []
    original = statistics._clenshaw

    def counted(x, coef):
        passes.append(x)
        return original(x, coef)

    monkeypatch.setattr(statistics, "_clenshaw", counted)
    s = FD.invert(u)
    monkeypatch.undo()
    assert len(passes) <= 8
    assert np.max(np.abs(FD.eval(s) / u - 1.0)) <= 1e-12


def test_clenshaw_rounds_like_the_plain_recurrence():
    # the in-place recurrence on rotating buffers does the plain loop's
    # operations in its order: every bit agrees, signed zeros included
    def plain(x, coef):
        b1 = b2 = 0.0
        for c in coef[:0:-1]:
            b1, b2 = c + 2.0 * x * b1 - b2, b1
        return coef[0] + x * b1 - b2

    rng = np.random.default_rng(8)
    x = np.concatenate([rng.uniform(-1.0, 1.0, 200), [0.0, -0.0, 1.0, -1.0]])
    coef = rng.normal(size=(21, 2, x.size)) \
        * np.logspace(0.0, -17.0, 21)[:, None, None]
    coef[15:, :, :50] = 0.0  # zero padding above a shorter series
    coef[:, :, -6:] = -0.0
    got = statistics._clenshaw(x, coef)
    assert np.array_equal(got.view(np.int64), plain(x, coef).view(np.int64))


# every piece edge from both sides, the Sommerfeld tail beyond the last
# edge, and arguments at and below the eta floor, where F and F' underflow
_PAIR_GRID = np.concatenate([
    np.linspace(-60.0, 200.0, 521), np.array(EDGES),
    np.nextafter(EDGES, -np.inf), np.nextafter(EDGES, np.inf),
    np.array([-700.0, -745.0, -800.0, -1e4, 1e3, 1e6]),
])


@pytest.mark.parametrize("model", [FD, BOLTZ], ids=["fermi_dirac", "boltzmann"])
def test_eval_pair_equals_separate_evaluations(model):
    f, df = model.eval_pair(_PAIR_GRID)
    assert np.array_equal(f, model.eval(_PAIR_GRID))
    assert np.array_equal(df, model.eval_derivative(_PAIR_GRID))
    # a (2, n) argument evaluates row by row, and a scalar gives floats
    grid = _PAIR_GRID[:-3].reshape(2, -1)
    f2, df2 = model.eval_pair(grid)
    assert np.array_equal(f2, model.eval(grid))
    assert np.array_equal(df2, model.eval_derivative(grid))
    pair = model.eval_pair(0.3)
    assert all(isinstance(v, float) for v in pair)
    assert pair == (model.eval(0.3), model.eval_derivative(0.3))
    # an entry does not depend on the others evaluated with it
    assert [model.eval_pair(x) for x in _PAIR_GRID.tolist()] \
        == list(zip(f.tolist(), df.tolist()))


@pytest.mark.parametrize("stats", [(FD, FD), (BOLTZ, FD), (FD, BOLTZ)],
                         ids=["same", "boltzmann_fd", "fd_boltzmann"])
def test_carriers_evaluate_and_invert_row_by_row(stats):
    s = np.vstack([np.linspace(-30.0, 30.0, 50), np.linspace(20.0, -20.0, 50)])
    u, du = eval_carriers(stats, s)
    for row, model in enumerate(stats):
        assert np.array_equal(u[row], model.eval(s[row]))
        assert np.array_equal(du[row], model.eval_derivative(s[row]))
        assert np.array_equal(invert_carriers(stats, u, s + 0.5)[row],
                              model.invert(u[row], s[row] + 0.5))


def test_boltzmann_is_exp_and_log():
    s = np.linspace(-30.0, 30.0, 61)
    assert np.allclose(BOLTZ.eval(s), np.exp(s), rtol=0.0, atol=0.0)
    assert np.allclose(BOLTZ.eval_derivative(s), np.exp(s), rtol=0.0)
    u = np.exp(s)
    assert np.allclose(BOLTZ.invert(u), s, rtol=1e-15, atol=1e-13)


def test_scalar_in_scalar_out():
    assert isinstance(FD.eval(0.3), float)
    assert isinstance(FD.invert(0.7), float)
    out = FD.eval(np.array([0.1, 0.2]))
    assert out.shape == (2,)


def test_shape_preserved_2d():
    s = np.linspace(-3.0, 3.0, 6).reshape(2, 3)
    assert FD.eval(s).shape == (2, 3)
    assert FD.invert(FD.eval(s)).shape == (2, 3)


class TestErrors:
    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            StatisticsModel(kind="maxwell")

    def test_nonfinite_argument(self):
        with pytest.raises(DomainError):
            FD.eval(np.array([0.0, np.nan]))

    def test_invert_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            FD.invert(0.0)
        with pytest.raises(DomainError):
            BOLTZ.invert(np.array([1.0, -2.0]))

    @pytest.mark.parametrize("model", [FD, BOLTZ], ids=["fd", "boltzmann"])
    def test_invert_names_the_first_nonpositive_entry(self, model):
        # a (2, n) carrier pair, as invert_carriers passes it: the message
        # carries the entry's value and its full index
        for u, where in [(np.array([[1.0, 2.0], [3.0, -1.0]]),
                          "-1.0 at index (1, 1)"),
                         (np.array([[1.0, 0.0], [-3.0, 2.0]]),
                          "0.0 at index (0, 1)"),
                         (np.array([1.0, -2.0]), "-2.0 at index (1,)"),
                         (-4.0, "-4.0 at index ()")]:
            with pytest.raises(DomainError) as err:
                model.invert(u)
            assert str(err.value) == \
                f"invert requires positive density, got {where}"
