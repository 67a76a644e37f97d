import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ascentry import dynamics, mission
from ascentry.dynamics import PhaseContext
from ascentry.models import (EarthConstants, load_default_atmosphere,
                             load_entry_aero)
from ascentry.pathcost import (CostWeights, HeatingParams, dynamic_pressure,
                               heating_rate, path_quantities, phugoid_gain,
                               phugoid_penalty, running_cost_geo,
                               running_cost_vert, sensed_load)


def test_dynamic_pressure_unit_factor():
    # 1 kg/m^3 at 1 km/s is half a megapascal
    assert dynamic_pressure(1.0, 1.0) == 500.0
    assert dynamic_pressure(1.225, 2.0) == pytest.approx(2450.0)
    # one formula: the dynamics own it, the path costs and mission reuse it
    assert dynamic_pressure is dynamics.dynamic_pressure
    assert mission.dynamic_pressure is dynamics.dynamic_pressure


def test_dynamic_pressure_quadratic_in_speed():
    v = np.linspace(0.1, 8.0, 50)
    q = dynamic_pressure(0.3, v)
    assert np.allclose(q / q[0], (v / v[0]) ** 2, rtol=1e-13)


def test_heating_rate_reference_point():
    hp = HeatingParams()
    # at sea-level density and circular speed the correlation returns kappa
    assert heating_rate(hp.rho0, hp.v_circ, hp) == pytest.approx(199.87,
                                                                rel=1e-12)


def test_heating_rate_quarter_density_half_speed():
    hp = HeatingParams()
    got = heating_rate(hp.rho0 / 4.0, hp.v_circ / 2.0, hp)
    # (1/4)^0.5 (1/2)^3.15 = 2^(-4.15)
    assert got == pytest.approx(199.87 * 2.0 ** -4.15, rel=1e-12)


def test_heating_rate_monotone_in_both_arguments():
    hp = HeatingParams()
    rho = np.geomspace(1e-7, 1.2, 40)
    assert np.all(np.diff(heating_rate(rho, 5.0, hp)) > 0)
    v = np.linspace(0.5, 8.0, 40)
    assert np.all(np.diff(heating_rate(1e-4, v, hp)) > 0)


def test_sensed_load_is_vector_magnitude():
    e = EarthConstants()
    n = sensed_load(3.0, 4.0, 1000.0, e.g0)
    assert n == pytest.approx(5.0 / (1000.0 * e.g0), rel=1e-14)
    assert sensed_load(0.0, 0.0, 500.0, e.g0) == 0.0


def test_path_quantities_exo_vacuum():
    ctx = PhaseContext(earth=EarthConstants(), fixed_mass=3630.0)
    q, n, qdot = path_quantities(ctx, 120.0, 7.4, 0.1, 3630.0,
                                 HeatingParams())
    assert q == 0.0 and n == 0.0 and qdot == 0.0


def test_path_quantities_consistent_with_parts():
    e = EarthConstants()
    ctx = PhaseContext(earth=e, ref_area=0.48387, aero=load_entry_aero(),
                       atmosphere=load_default_atmosphere(),
                       fixed_mass=907.186)
    h, v, alpha = np.array([40.0]), np.array([3.0]), np.array([0.2])
    q, n, qdot = path_quantities(ctx, h, v, alpha, 907.186, HeatingParams())
    rho = ctx.atmosphere.density(h)
    assert q == pytest.approx(dynamic_pressure(rho, v), rel=1e-14)
    assert qdot == pytest.approx(heating_rate(rho, v, HeatingParams()),
                                 rel=1e-14)
    assert n[0] > 0.0


def test_phugoid_gain_anchors():
    for k in (1.0, 3.0, 5.0):
        c = phugoid_gain(k)
        assert c == pytest.approx(
            2.0 * (1.0 + math.exp(-k)) / (1.0 - math.exp(-k)), rel=1e-12)
    # steep limit: C -> 2
    assert phugoid_gain(40.0) == pytest.approx(2.0, rel=1e-12)


def test_phugoid_gain_rejects_nonpositive_k():
    with pytest.raises(ValueError):
        phugoid_gain(0.0)
    with pytest.raises(ValueError):
        phugoid_gain(-2.0)


@pytest.mark.parametrize("k", [1.0, 3.0, 5.0])
def test_phugoid_penalty_unity_at_vertical(k):
    assert phugoid_penalty(1.0, k) == pytest.approx(1.0, rel=1e-12)
    assert phugoid_penalty(-1.0, k) == pytest.approx(1.0, rel=1e-12)
    assert phugoid_penalty(0.0, k) == 0.0


@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=-1.0, max_value=1.0),
       st.floats(min_value=0.5, max_value=8.0))
def test_phugoid_penalty_even_and_bounded(s, k):
    p = phugoid_penalty(s, k)
    assert 0.0 <= p <= 1.0 + 1e-12
    assert p == pytest.approx(phugoid_penalty(-s, k), rel=1e-10, abs=1e-12)


def test_phugoid_penalty_monotone_in_dive_angle():
    s = np.linspace(0.0, 1.0, 60)
    p = phugoid_penalty(s, 3.0)
    assert np.all(np.diff(p) > 0)


def _weights(**kw):
    base = dict(alpha_bar=0.207, alpha_max=0.4189, u_alpha_max=0.1745,
                u_sigma_max=0.5236)
    base.update(kw)
    return CostWeights(**base)


def test_running_cost_geo_hand_value():
    w = _weights()
    y = np.zeros((1, 9))
    y[0, 6] = w.alpha_bar       # on-trim incidence contributes nothing
    u = np.array([[w.u_alpha_max / 2.0, -w.u_sigma_max]])
    got = running_cost_geo(y, u, w)
    assert got[0] == pytest.approx(0.25 + 1.0, rel=1e-12)


def test_running_cost_geo_alpha_term_optional():
    w = _weights(include_alpha=False)
    y = np.zeros((1, 9))
    y[0, 6] = 0.3
    assert running_cost_geo(y, np.zeros((1, 2)), w)[0] == 0.0
    w_on = _weights()
    expect = ((0.3 - w_on.alpha_bar) / w_on.alpha_max) ** 2
    assert running_cost_geo(y, np.zeros((1, 2)), w_on)[0] == pytest.approx(
        expect, rel=1e-12)


def test_running_cost_vert_adds_phugoid_only_with_k():
    from ascentry.dynamics import angles_to_quat
    w0 = _weights()
    wk = _weights(k=3.0)
    gamma = -0.7
    e1, e2, e3, eta = angles_to_quat(np.array([gamma]), np.array([1.1]),
                                     np.array([0.2]))
    y = np.zeros((1, 10))
    y[:, 4:8] = np.column_stack([e1, e2, e3, eta])
    y[0, 8] = w0.alpha_bar
    u = np.zeros((1, 4))
    base = running_cost_vert(y, u, w0)[0]
    assert base == 0.0
    got = running_cost_vert(y, u, wk)[0]
    assert got == pytest.approx(phugoid_penalty(math.sin(gamma), 3.0),
                                rel=1e-10)


def test_running_cost_vert_uses_w1_slot():
    w = _weights(include_alpha=False)
    u = np.array([[0.0, w.u_sigma_max, 5.0, -5.0]])
    # slots 2 and 3 are defect slacks and must not be charged
    assert running_cost_vert(np.zeros((1, 10)), u, w)[0] == pytest.approx(
        1.0, rel=1e-12)


def test_running_costs_batch():
    w = _weights(k=2.0)
    rng = np.random.default_rng(1)
    Y = rng.normal(size=(6, 10)) * 0.3
    U = rng.normal(size=(6, 4)) * 0.05
    out = running_cost_vert(Y, U, w)
    assert out.shape == (6,)
    # each row of the stack is that row evaluated as a one-row stack
    for i in range(6):
        assert running_cost_vert(Y[i:i + 1], U[i:i + 1], w)[0] == out[i]
