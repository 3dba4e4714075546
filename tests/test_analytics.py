"""Tests for the closed-form wedge analytics.

Two kinds of checks live here. Exact identities: the three exit-probability
forms must agree to floating point, the survival series must collapse to the
squared error function in the uncorrelated unit case (Iyengar's classical
special case), and the drifted quadrature must reduce to the driftless
series when the drift is zero. Monte Carlo fixtures: expected values frozen
from tools/oracles/analytics_fixtures.py, which ran the bridge-corrected
path engine at 1e6-1e7 paths; assertions stay within 3 standard errors of
the recorded means.
"""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import special

from lobdiff.analytics import (
    ConeGeometry,
    DriftedDurationParams,
    agent_model_params,
    cone_geometry,
    drifted_duration_params,
    duration_survival,
    duration_survival_drifted,
    duration_tail_index,
    flow_limit_params,
    prob_up,
    prob_up_mc,
)
from lobdiff.diffusion import DiffusionParams
from lobdiff.flows import AgentMixSpec, Dist, PoissonFlowSpec
from literal_forms import (
    agent_literal_moments,
    prob_up_arcsin,
    prob_up_arctan,
    survival_drifted_literal_sine,
    survival_literal_radius,
)

SEED = 60601

UNIT = DiffusionParams(lambda_bid=1.0, lambda_ask=1.0, v2_bid=1.0, v2_ask=1.0, rho=0.0)


def unit_rho(rho):
    return DiffusionParams(
        lambda_bid=1.0, lambda_ask=1.0, v2_bid=1.0, v2_ask=1.0, rho=rho
    )


# ---------------------------------------------------------------------------
# Wedge geometry


def test_cone_geometry_symmetric_diagonal():
    g = cone_geometry(1.0, 1.0, UNIT)
    assert g.alpha == pytest.approx(math.pi / 2)
    assert g.theta0 == pytest.approx(math.pi / 4)
    assert g.U == pytest.approx(2.0)
    assert g.r0 == pytest.approx(math.sqrt(2.0))


@pytest.mark.parametrize("rho,alpha", [(0.0, math.pi / 2), (0.5, 2 * math.pi / 3), (-0.5, math.pi / 3)])
def test_cone_opening_angle(rho, alpha):
    g = cone_geometry(1.0, 1.0, unit_rho(rho))
    assert g.alpha == pytest.approx(alpha)
    # the start angle always lies strictly inside the wedge
    assert 0 < g.theta0 < g.alpha


def test_cone_angle_at_sheared_vertical():
    # x = rho * y puts the standardized point on the sheared vertical axis
    rho = 0.6
    g = cone_geometry(rho * 2.0, 2.0, unit_rho(rho))
    assert g.theta0 == pytest.approx(math.pi / 2)


def test_cone_geometry_rejects_boundary():
    with pytest.raises(ValueError, match="inside the orthant"):
        cone_geometry(0.0, 1.0, UNIT)
    with pytest.raises(ValueError, match="inside the orthant"):
        cone_geometry(1.0, -2.0, UNIT)


def test_cone_harmonics_indexing():
    g = ConeGeometry(alpha=math.pi / 2, theta0=0.3, U=1.0, r0=1.0)
    assert g.nu(0) == pytest.approx(2.0)
    assert g.nu(1) == pytest.approx(6.0)


# ---------------------------------------------------------------------------
# Exit-side probability: exact values and identities


def test_prob_up_diagonal_is_half_for_any_rho():
    for rho in (-0.9, -0.5, 0.0, 0.5, 0.9):
        p = prob_up(2.0, 2.0, unit_rho(rho))
        assert p == pytest.approx(0.5, abs=1e-14)


def test_prob_up_uncorrelated_arctan_values():
    # (2/pi) arctan(x/y): bid depth root3 gives 2/3, ask depth root3 gives 1/3
    assert prob_up(math.sqrt(3.0), 1.0, UNIT) == pytest.approx(2.0 / 3.0, abs=1e-14)
    assert prob_up(1.0, math.sqrt(3.0), UNIT) == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_prob_up_three_forms_agree():
    rng = np.random.default_rng(SEED)
    for rho in (-0.8, -0.3, 0.0, 0.4, 0.7):
        params = unit_rho(rho)
        for _ in range(20):
            x, y = rng.uniform(0.1, 5.0, size=2)
            p_cone = prob_up(x, y, params)
            p_atan = prob_up_arctan(x, y, params)
            p_asin = prob_up_arcsin(x, y, params)
            assert abs(p_cone - p_atan) < 1e-10, (rho, x, y)
            assert abs(p_cone - p_asin) < 1e-10, (rho, x, y)


def test_prob_up_monotone_in_each_queue():
    xs = np.linspace(0.5, 4.0, 9)
    for rho in (-0.7, 0.0, 0.5):
        params = unit_rho(rho)
        along_bid = [prob_up(x, 2.0, params) for x in xs]
        along_ask = [prob_up(2.0, y, params) for y in xs]
        assert np.all(np.diff(along_bid) > 0)
        assert np.all(np.diff(along_ask) < 0)


def test_prob_up_scale_invariant():
    params = unit_rho(-0.4)
    for c in (0.01, 3.0, 250.0):
        assert prob_up(0.7 * c, 1.9 * c, params) == pytest.approx(
            prob_up(0.7, 1.9, params), abs=1e-13
        )


def test_prob_up_boundary_limits():
    params = unit_rho(0.3)
    assert prob_up(1e-9, 1.0, params) == pytest.approx(0.0, abs=1e-6)
    assert prob_up(1.0, 1e-9, params) == pytest.approx(1.0, abs=1e-6)


def test_prob_up_asymmetric_scales_standardize():
    # quadrupled ask variance rate halves the effective ask depth
    params = DiffusionParams(
        lambda_bid=1.0, lambda_ask=4.0, v2_bid=1.0, v2_ask=1.0, rho=0.0
    )
    assert prob_up(1.0, 2.0, params) == pytest.approx(0.5, abs=1e-14)


def test_prob_up_mc_fixture_correlated():
    # [DERIVED] tools/oracles/analytics_fixtures.py, seed 20240801:
    # rho=-0.7, state (1, 2), 1e7 bridge-corrected paths:
    # P[ask depletes first] = 0.325132 +- 0.000148
    p = prob_up(1.0, 2.0, unit_rho(-0.7))
    assert abs(p - 0.325132) < 3 * 0.000148


def test_prob_up_drifted_falls_back_to_mc():
    params = DiffusionParams(
        lambda_bid=1.0,
        lambda_ask=1.0,
        vbar_bid=-0.1,
        vbar_ask=-0.2,
        v2_bid=1.0,
        v2_ask=1.0,
        rho=0.0,
    )
    p1 = prob_up(1.0, 1.0, params, n_paths=20_000, seed=SEED)
    p2 = prob_up(1.0, 1.0, params, n_paths=20_000, seed=SEED)
    assert p1 == p2
    # equal depths, ask drains twice as fast: upticks must win more than half
    assert 0.5 < p1 < 1.0


def test_prob_up_mc_matches_closed_form():
    p, se = prob_up_mc(1.0, 2.0, unit_rho(0.5), n_paths=100_000, seed=SEED)
    exact = prob_up(1.0, 2.0, unit_rho(0.5))
    assert abs(p - exact) < 3 * se


# ---------------------------------------------------------------------------
# Duration distribution: series vs classical identities and MC fixtures


def test_survival_collapses_to_erf_squared_uncorrelated():
    # from (1,1) with independent unit coordinates the joint survival
    # factorizes: P[tau > t] = erf(1/sqrt(2t))^2
    t = np.array([0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 20.0])
    s = duration_survival(t, 1.0, 1.0, UNIT)
    expected = special.erf(1.0 / np.sqrt(2.0 * t)) ** 2
    assert_allclose(s, expected, atol=1e-12)


def test_survival_series_mc_fixture_uncorrelated():
    # [DERIVED] tools/oracles/analytics_fixtures.py, seed 20240802:
    # rho=0, state (1,1), 1e7 paths:
    #   S(0.5) = 0.710117 +- 0.000143
    #   S(1)   = 0.466259 +- 0.000158
    #   S(2)   = 0.270894 +- 0.000141
    fixtures = [(0.5, 0.710117, 0.000143), (1.0, 0.466259, 0.000158), (2.0, 0.270894, 0.000141)]
    for t, mc, se in fixtures:
        s = duration_survival(t, 1.0, 1.0, UNIT)
        assert abs(s - mc) < 3 * se, t


def test_survival_series_mc_fixture_correlated_scaled():
    # [DERIVED] tools/oracles/analytics_fixtures.py, seed 20240803:
    # lambda=(2,1), v2=(1.5,0.7), state (1.2,0.8), 1e6 paths each.
    # rho=-0.5: S(0.2)=0.845755+-0.000361, S(0.5)=0.516833+-0.000500,
    #           S(1)=0.271814+-0.000445
    # rho=+0.5: S(0.2)=0.860846+-0.000346, S(0.5)=0.603698+-0.000489,
    #           S(1)=0.409389+-0.000492
    cases = {
        -0.5: [(0.2, 0.845755, 0.000361), (0.5, 0.516833, 0.000500), (1.0, 0.271814, 0.000445)],
        0.5: [(0.2, 0.860846, 0.000346), (0.5, 0.603698, 0.000489), (1.0, 0.409389, 0.000492)],
    }
    for rho, rows in cases.items():
        params = DiffusionParams(
            lambda_bid=2.0, lambda_ask=1.0, v2_bid=1.5, v2_ask=0.7, rho=rho
        )
        for t, mc, se in rows:
            s = duration_survival(t, 1.2, 0.8, params)
            assert abs(s - mc) < 3 * se, (rho, t)


def test_survival_literal_radius_fails_against_mc():
    # the variance-scaled radius variant misses the MC values by a wide
    # margin; kept as the recorded reason the standardized form is default
    params = DiffusionParams(
        lambda_bid=2.0, lambda_ask=1.0, v2_bid=1.5, v2_ask=0.7, rho=0.5
    )
    s = survival_literal_radius(0.2, 1.2, 0.8, params)
    assert abs(s - 0.860846) > 20 * 0.000346


def test_survival_monotone_and_bounded():
    t = np.linspace(0.05, 30.0, 40)
    for rho in (-0.6, 0.0, 0.6):
        s = duration_survival(t, 1.3, 0.7, unit_rho(rho))
        assert np.all(s <= 1.0) and np.all(s >= 0.0)
        assert np.all(np.diff(s) < 0)
        assert duration_survival(1e-4, 1.3, 0.7, unit_rho(rho)) > 0.999


def test_survival_rejects_drift():
    drifted = DiffusionParams(
        lambda_bid=1.0, lambda_ask=1.0, vbar_bid=-0.1, v2_bid=1.0, v2_ask=1.0
    )
    with pytest.raises(ValueError, match="drift"):
        duration_survival(1.0, 1.0, 1.0, drifted)


def test_survival_scalar_and_array_shapes():
    s_scalar = duration_survival(1.0, 1.0, 1.0, UNIT)
    assert np.isscalar(s_scalar) or np.ndim(s_scalar) == 0
    s_arr = duration_survival([0.5, 1.0], 1.0, 1.0, UNIT)
    assert s_arr.shape == (2,)
    assert s_arr[1] == pytest.approx(float(s_scalar))


# ---------------------------------------------------------------------------
# Tail index


def test_tail_index_values():
    assert duration_tail_index(UNIT) == pytest.approx(1.0, abs=1e-14)
    assert duration_tail_index(unit_rho(0.5)) == pytest.approx(0.75, abs=1e-14)
    # pi / (2 arccos(0.7))
    assert duration_tail_index(unit_rho(-0.7)) == pytest.approx(1.9748541, abs=1e-6)


def test_tail_index_decreasing_in_rho():
    grid = np.linspace(-0.9, 0.9, 13)
    idx = [duration_tail_index(unit_rho(r)) for r in grid]
    assert np.all(np.diff(idx) < 0)
    # negatively correlated flows keep durations integrable; positive do not
    assert duration_tail_index(unit_rho(-0.5)) > 1.0 > duration_tail_index(unit_rho(0.5))


def test_tail_index_matches_series_decay():
    # log-survival slope over a deep-tail window approaches -pi/(2 alpha)
    params = unit_rho(-0.5)
    t = np.array([200.0, 400.0, 800.0, 1600.0])
    s = duration_survival(t, 1.0, 1.0, params)
    slopes = np.diff(np.log(s)) / np.diff(np.log(t))
    assert abs(slopes[-1] + duration_tail_index(params)) < 0.02


# ---------------------------------------------------------------------------
# Drifted durations


DRIFTED = DiffusionParams(
    lambda_bid=1.0,
    lambda_ask=1.0,
    vbar_bid=-0.3,
    vbar_ask=-0.2,
    v2_bid=1.0,
    v2_ask=1.0,
    rho=-0.3,
)


def test_drifted_params_tilt_identities():
    # the Girsanov tilt can be written either in queue coordinates
    # (a, a_t) or wedge coordinates (d); both must price the same factor
    dd = drifted_duration_params(DRIFTED)
    cov = DRIFTED.covariance()
    mu = DRIFTED.drift()
    a = -np.linalg.solve(cov, mu)
    assert_allclose([dd.a1, dd.a2], a, atol=1e-12)
    assert dd.a_t == pytest.approx(-0.5 * float(mu @ np.linalg.solve(cov, mu)), abs=1e-12)
    # |d|^2 = mu' Sigma^-1 mu = -2 a_t
    assert dd.d1**2 + dd.d2**2 == pytest.approx(-2.0 * dd.a_t, abs=1e-12)


def test_drifted_reduces_to_driftless():
    driftless = unit_rho(-0.3)
    for t in (0.3, 1.0, 2.5):
        s_series = duration_survival(t, 1.0, 1.4, driftless)
        s_quad = duration_survival_drifted(t, 1.0, 1.4, driftless)
        assert abs(s_quad - s_series) < 1e-4, t


def test_drifted_survival_mc_fixture():
    # [DERIVED] tools/oracles/analytics_fixtures.py, seed 20240804:
    # drift (-0.3,-0.2), rho=-0.3, state (1,1), 1e6 paths:
    #   S(0.5) = 0.619762 +- 0.000485
    #   S(1)   = 0.317114 +- 0.000465
    #   S(2)   = 0.118616 +- 0.000323
    fixtures = [(0.5, 0.619762, 0.000485), (1.0, 0.317114, 0.000465), (2.0, 0.118616, 0.000323)]
    for t, mc, se in fixtures:
        s = duration_survival_drifted(t, 1.0, 1.0, DRIFTED)
        assert abs(s - mc) < 3 * se, t


def test_drifted_literal_inner_sine_fails_against_mc():
    # dropping the angular argument from the inner eigenfunction misprices
    # the short-horizon survival by ~60 standard errors
    s = survival_drifted_literal_sine(0.5, 1.0, 1.0, DRIFTED)
    assert abs(s - 0.619762) > 20 * 0.000485


def test_drifted_survival_calibrated_fixture():
    # [DERIVED] tools/oracles/analytics_fixtures.py, seed 20240805:
    # order-book-scale parameters (depths in the thousands, drifts of
    # tens per second), state (6256, 4457), t = 30s, 2e6 paths:
    #   S(30) = 0.317817 +- 0.000329
    params = DiffusionParams(
        lambda_bid=1.0,
        lambda_ask=1.0,
        vbar_bid=-1033.0 / 30.0,
        vbar_ask=-2467.0 / 30.0,
        v2_bid=6256.0**2 / 30.0,
        v2_ask=4457.0**2 / 30.0,
        rho=0.07,
    )
    s = duration_survival_drifted(30.0, 6256.0, 4457.0, params)
    assert abs(s - 0.317817) < 3 * 0.000329


def test_drifted_survival_decreasing_in_t():
    ts = [0.25, 0.5, 1.0, 2.0, 4.0]
    vals = [duration_survival_drifted(t, 1.0, 1.0, DRIFTED) for t in ts]
    assert np.all(np.diff(vals) < 0)
    assert all(0.0 <= v <= 1.0 for v in vals)


def test_drifted_params_container_is_frozen():
    dd = DriftedDurationParams(a1=0.1, a2=0.2, a_t=-0.3, d1=0.4, d2=0.5)
    with pytest.raises(AttributeError):
        dd.a1 = 1.0


# Values of duration_survival_drifted recorded from the per-node-window form
# of the quadrature, which gave every theta node its own r-window: (rho,
# (vbar_bid, vbar_ask), (lambda_bid, lambda_ask, v2_bid, v2_ask), state, t,
# value). The last three rows have large t*|d|, where the shared r-window is
# widest; the row before them is the calibrated fixture's parameters.
_PER_NODE_WINDOW_VALUES = [
    (0.0, (-0.3, -0.2), (1.0, 1.0, 1.0, 1.0), (1.0, 1.0), 0.1, 0.9959904101867885),
    (0.0, (-0.3, -0.2), (1.0, 1.0, 1.0, 1.0), (1.0, 1.0), 0.5, 0.6397507764091073),
    (0.0, (-0.3, -0.2), (1.0, 1.0, 1.0, 1.0), (1.0, 1.0), 2.0, 0.15958230639403526),
    (0.0, (-0.3, -0.2), (1.0, 1.0, 1.0, 1.0), (1.0, 1.0), 7.0, 0.019998103880118762),
    (0.0, (-0.3, -0.2), (1.0, 1.0, 1.0, 1.0), (0.6, 1.8), 0.1, 0.9310524275306062),
    (0.0, (-0.3, -0.2), (1.0, 1.0, 1.0, 1.0), (0.6, 1.8), 0.5, 0.5225042786609354),
    (0.0, (-0.3, -0.2), (1.0, 1.0, 1.0, 1.0), (0.6, 1.8), 2.0, 0.15469247117890905),
    (0.0, (-0.3, -0.2), (1.0, 1.0, 1.0, 1.0), (0.6, 1.8), 7.0, 0.021286688900005932),
    (-0.3, (0.4, -0.5), (1.5, 1.0, 1.0, 2.0), (1.0, 1.0), 0.1, 0.9611091003149664),
    (-0.3, (0.4, -0.5), (1.5, 1.0, 1.0, 2.0), (1.0, 1.0), 0.5, 0.4778233985408763),
    (-0.3, (0.4, -0.5), (1.5, 1.0, 1.0, 2.0), (1.0, 1.0), 2.0, 0.12460019355166253),
    (-0.3, (0.4, -0.5), (1.5, 1.0, 1.0, 2.0), (1.0, 1.0), 7.0, 0.024070410438680735),
    (-0.3, (0.4, -0.5), (1.5, 1.0, 1.0, 2.0), (0.6, 1.8), 0.1, 0.9052281217056385),
    (-0.3, (0.4, -0.5), (1.5, 1.0, 1.0, 2.0), (0.6, 1.8), 0.5, 0.5388424308896728),
    (-0.3, (0.4, -0.5), (1.5, 1.0, 1.0, 2.0), (0.6, 1.8), 2.0, 0.17134682246986488),
    (-0.3, (0.4, -0.5), (1.5, 1.0, 1.0, 2.0), (0.6, 1.8), 7.0, 0.03540329088996432),
    (0.6, (-0.2, 0.3), (1.0, 2.0, 1.5, 1.0), (1.0, 1.0), 0.1, 0.973066299429503),
    (0.6, (-0.2, 0.3), (1.0, 2.0, 1.5, 1.0), (1.0, 1.0), 0.5, 0.621841328948),
    (0.6, (-0.2, 0.3), (1.0, 2.0, 1.5, 1.0), (1.0, 1.0), 2.0, 0.2893702910280906),
    (0.6, (-0.2, 0.3), (1.0, 2.0, 1.5, 1.0), (1.0, 1.0), 7.0, 0.12012759973160272),
    (0.6, (-0.2, 0.3), (1.0, 2.0, 1.5, 1.0), (0.6, 1.8), 0.1, 0.8686745063608143),
    (0.6, (-0.2, 0.3), (1.0, 2.0, 1.5, 1.0), (0.6, 1.8), 0.5, 0.46975261352909026),
    (0.6, (-0.2, 0.3), (1.0, 2.0, 1.5, 1.0), (0.6, 1.8), 2.0, 0.2084165716412971),
    (0.6, (-0.2, 0.3), (1.0, 2.0, 1.5, 1.0), (0.6, 1.8), 7.0, 0.08368455672868146),
    (
        0.07,
        (-1033.0 / 30.0, -2467.0 / 30.0),
        (1.0, 1.0, 6256.0**2 / 30.0, 4457.0**2 / 30.0),
        (6256.0, 4457.0),
        30.0,
        0.31808960775001816,
    ),
    (-0.5, (2.0, 2.0), (1.0, 1.0, 1.0, 1.0), (1.0, 1.0), 10.0, 0.9633808981152019),
    (-0.5, (-1.0, 1.0), (1.0, 1.0, 1.0, 1.0), (1.0, 1.0), 20.0, 4.2404987460611566e-07),
    (-0.5, (-3.0, 3.0), (1.0, 1.0, 1.0, 1.0), (1.0, 1.0), 50.0, 8.624213934752956e-101),
]


def _drifted_params(rho, vbar, rates):
    lb, la, v2b, v2a = rates
    return DiffusionParams(
        lambda_bid=lb, lambda_ask=la, vbar_bid=vbar[0], vbar_ask=vbar[1],
        v2_bid=v2b, v2_ask=v2a, rho=rho,
    )


@pytest.mark.parametrize("rho, vbar, rates, state, t, expected", _PER_NODE_WINDOW_VALUES)
def test_drifted_shared_window_matches_per_node_windows(rho, vbar, rates, state, t, expected):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = duration_survival_drifted(t, *state, _drifted_params(rho, vbar, rates))
    assert isinstance(s, float)
    assert abs(s - expected) <= 1e-13
    # the 1e-101 row would pass any absolute bound; hold it to relative error
    assert abs(s - expected) <= 1e-12 * expected


def test_drifted_quad_tol_warns_on_too_few_nodes():
    # the widest shared window of the pinned rows, on a far too coarse grid
    params = _drifted_params(-0.5, (2.0, 2.0), (1.0, 1.0, 1.0, 1.0))
    with pytest.warns(RuntimeWarning, match=r"refinement at t=10 still moves"):
        duration_survival_drifted(10.0, 1.0, 1.0, params, n_theta=40, n_r=24)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        duration_survival_drifted(10.0, 1.0, 1.0, params)


def test_drifted_array_t_equals_scalar_loop():
    ts = np.array([[0.1, 0.5], [2.0, 7.0]])
    got = duration_survival_drifted(ts, 0.6, 1.8, DRIFTED)
    assert isinstance(got, np.ndarray) and got.shape == ts.shape
    loop = [duration_survival_drifted(float(t), 0.6, 1.8, DRIFTED) for t in ts.ravel()]
    assert got.ravel().tolist() == loop
    with pytest.raises(ValueError, match="t must be > 0"):
        duration_survival_drifted(np.array([0.5, 0.0]), 1.0, 1.0, DRIFTED)


def test_drifted_quad_gap_is_coarse_fine_difference():
    from lobdiff.analytics import _drifted_survival_and_gap

    ts = np.array([0.5, 2.0])
    values, gaps = _drifted_survival_and_gap(ts, 1.0, 1.0, DRIFTED)
    assert values.tolist() == duration_survival_drifted(ts, 1.0, 1.0, DRIFTED).tolist()
    coarse = duration_survival_drifted(ts, 1.0, 1.0, DRIFTED, n_theta=80, n_r=200)
    assert gaps.tolist() == np.abs(values - coarse).tolist()
    assert np.all(gaps < 1e-4)


def test_drifted_non_finite_value_raises_instead_of_clamping():
    # finite parameters whose tilt overflows: the quadrature returns NaN,
    # which the clamp would have turned into a confident 0.0
    huge = DiffusionParams(lambda_bid=1.0, lambda_ask=1.0, vbar_bid=1e300, vbar_ask=-0.1)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="not finite"):
            duration_survival_drifted(0.5, 1.0, 1.0, huge)
    with pytest.raises(ValueError, match="not finite"):
        duration_survival_drifted(float("nan"), 1.0, 1.0, DRIFTED)


@pytest.mark.parametrize("state", [(1.0, math.inf), (math.nan, 1.0), (-math.inf, 1.0)])
def test_cone_geometry_rejects_non_finite_state(state):
    with pytest.raises(ValueError, match="must be finite"):
        cone_geometry(*state, UNIT)


# ---------------------------------------------------------------------------
# Agent mix and flow limits


def test_agent_mix_flow_moments():
    # (m, l, gamma) = (0.2, 0.3, 0.5): each side drifts at -0.05 per unit
    # time, variance rate 0.375, correlation exactly -1/3
    mu, v2, rho = agent_model_params(0.2, 0.3, 0.5, mean_duration=1.0, e_v2=1.0, vbar=1.0)
    assert mu == pytest.approx(-0.05, abs=1e-14)
    assert v2 == pytest.approx(0.375, abs=1e-14)
    assert rho == pytest.approx(-1.0 / 3.0, abs=1e-14)


def test_agent_mix_pair_corr_fixture():
    # [DERIVED] tools/oracles/analytics_fixtures.py, seed 20240806:
    # uncentered pair correlation over 1e6 mix draws = -0.333186
    _, _, rho = agent_model_params(0.2, 0.3, 0.5, mean_duration=1.0, e_v2=1.0, vbar=1.0)
    assert abs(rho - (-0.333186)) < 3 * 1.1e-3


def test_agent_mix_literal_variant_disagrees():
    _, v2_f, rho_f = agent_model_params(0.2, 0.3, 0.5, 1.0, 1.0, 1.0)
    v2_l, rho_l = agent_literal_moments(0.2, 0.3, 0.5, 1.0, 1.0)
    assert rho_l == pytest.approx(-0.1, abs=1e-12)
    assert rho_f != pytest.approx(rho_l, abs=1e-3)
    # the correlation variants coincide when every trader is mixed (s = 1)
    _, _, rho_s = agent_model_params(0.0, 0.0, 0.4, 1.0, 1.0, 1.0)
    _, rho_s2 = agent_literal_moments(0.0, 0.0, 0.4, 1.0, 1.0)
    assert rho_s == pytest.approx(rho_s2, abs=1e-12)


def test_agent_mix_validation():
    with pytest.raises(ValueError):
        agent_model_params(0.7, 0.5, 0.5, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        agent_model_params(0.2, 0.3, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        agent_model_params(0.2, 0.3, 0.5, -1.0, 1.0, 1.0)


def test_flow_limit_params_poisson():
    spec = PoissonFlowSpec(lambda_limit=2.0, mu_market=1.5, theta_cancel=0.5, unit_size=2.0)
    drift, sigma = flow_limit_params(spec)
    assert_allclose(drift, [0.0, 0.0], atol=1e-14)
    # uncentered second moment: rate * unit^2 per side, no cross term
    assert_allclose(sigma, np.diag([16.0, 16.0]), atol=1e-12)


def test_flow_limit_params_poisson_unbalanced():
    spec = PoissonFlowSpec(lambda_limit=3.0, mu_market=1.0, theta_cancel=1.0, unit_size=1.0)
    drift, sigma = flow_limit_params(spec)
    assert_allclose(drift, [1.0, 1.0], atol=1e-14)
    assert_allclose(sigma, np.diag([5.0, 5.0]), atol=1e-12)


def test_flow_limit_params_agent_matches_closed_form():
    spec = AgentMixSpec(
        m=0.2,
        l=0.3,
        gamma=0.5,
        duration_dist=Dist("exponential", mean=2.0),
        size_dist=Dist("constant", value=1.0),
    )
    drift, sigma = flow_limit_params(spec)
    mu, v2, rho = agent_model_params(0.2, 0.3, 0.5, mean_duration=2.0, e_v2=1.0, vbar=1.0)
    assert_allclose(drift, [mu, mu], atol=1e-12)
    assert sigma[0, 0] == pytest.approx(v2, abs=1e-12)
    assert sigma[0, 1] == pytest.approx(rho * v2, abs=1e-12)


def test_flow_limit_params_rejects_unknown_spec():
    with pytest.raises(TypeError, match="explicit target"):
        flow_limit_params(object())
