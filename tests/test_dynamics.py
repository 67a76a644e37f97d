import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ascentry import dynamics, mission
from ascentry.dynamics import (GEO_DIM, VERT_DIM, Geo, PhaseContext, Vert,
                               aero_env, angles_to_quat, geo_core,
                               geo_from_vert, geo_rates, quat_to_angles,
                               vert_core, vert_from_geo, vert_rates)
from ascentry.models import (AtmosphereTable, EarthConstants, _TensorPchip,
                             load_boost_aero, load_default_atmosphere,
                             load_entry_aero)
from ascentry.mission import GEO_CONTROL_NAMES
from ascentry.pathcost import (CostWeights, HeatingParams, dynamic_pressure,
                               heating_rate, phugoid_penalty, running_cost_geo,
                               running_cost_vert, sensed_load)

EARTH = EarthConstants()


@pytest.fixture(scope="module")
def boost_ctx():
    return PhaseContext(earth=EARTH, thrust=1222.9, isp=309.0, ref_area=4.307,
                        aero=load_boost_aero(),
                        atmosphere=load_default_atmosphere())


@pytest.fixture(scope="module")
def exo_ctx():
    return PhaseContext(earth=EARTH, fixed_mass=3630.0)


# scalar re-derivation of the unpowered exo-atmospheric equations, kept
# deliberately separate from the vectorized implementation
def _exo_oracle(h, phi, theta, v, gam, psi):
    mu, re, om = EARTH.mu, EARTH.re, EARTH.omega
    r = re + h
    sg, cg = math.sin(gam), math.cos(gam)
    st, ct = math.sin(theta), math.cos(theta)
    sp, cp = math.sin(psi), math.cos(psi)
    return (
        v * sg,
        v * cg * sp / (r * ct),
        v * cg * cp / r,
        -mu * sg / r**2 + r * om**2 * ct * (sg * ct - cg * st * cp),
        (cg * (v / r - mu / (r**2 * v)) + 2 * om * ct * sp
         + r * om**2 / v * ct * (cg * ct + sg * st * cp)),
        (v / r * cg * sp * math.tan(theta)
         - 2 * om * (math.tan(gam) * ct * cp - st)
         + r * om**2 / (v * cg) * st * ct * sp),
    )


@pytest.mark.parametrize("state", [
    (95.0, -2.2, 0.55, 7.4, 0.01, -1.9),
    (150.0, 0.3, -0.8, 6.8, -0.12, 2.4),
    (80.0, -3.1, 0.151, 7.31, -0.0534, -1.95),
])
def test_exo_geodetic_rates_match_scalar_oracle(exo_ctx, state):
    h, phi, theta, v, gam, psi = state
    y = np.array([[h, phi, theta, v, gam, psi, 0.0, 0.0]])
    got = geo_rates(y, np.zeros(2), exo_ctx)[0]
    want = _exo_oracle(*state)
    assert np.allclose(got[:6], want, rtol=1e-12, atol=1e-18)


def test_exo_rates_frozen_values(exo_ctx):
    y = np.array([[95.0, -2.2, 0.55, 7.4, 0.01, -1.9, 0.0, 0.0]])
    got = geo_rates(y, np.zeros(2), exo_ctx)[0]
    want = [0.07399876667283332, -0.0012688645401829032,
            -0.00036955999253641747, -8.991694158436209e-05,
            -0.0002565969723302486, -0.0005885489154976054]
    assert np.allclose(got[:6], want, rtol=1e-12)


def test_circular_equatorial_orbit_is_an_equilibrium():
    # eastward circular orbit in the equatorial plane of a non-rotating
    # Earth: gamma stays zero and speed is constant
    e = EarthConstants(omega=0.0)
    ctx = PhaseContext(earth=e, fixed_mass=1000.0)
    r = e.re + 300.0
    v = math.sqrt(e.mu / r)
    y = np.array([[300.0, 0.1, 0.0, v, 0.0, math.pi / 2, 0.0, 0.0]])
    dy = geo_rates(y, np.zeros(2), ctx)[0]
    assert abs(dy[Geo.H]) < 1e-14
    assert abs(dy[Geo.V]) < 1e-14
    assert abs(dy[Geo.GAMMA]) < 1e-15
    assert dy[Geo.PHI] * r > 0.0


def test_mass_flow_rate(boost_ctx):
    y = np.array([[30.0, -2.1, 0.6, 1.5, 0.4, -1.9, 0.02, 0.0, 30000.0]])
    dy = geo_rates(y, np.zeros(2), boost_ctx)[0]
    # thrust / (isp g0), in kg/s
    assert dy[Geo.M] == pytest.approx(-403.56338, abs=1e-4)
    assert dy[Geo.M] == pytest.approx(
        -boost_ctx.thrust / (boost_ctx.isp * EARTH.g0), rel=1e-14)


def test_aero_env_exo_is_all_zero():
    ctx = PhaseContext(earth=EARTH, fixed_mass=10.0)
    out = aero_env(ctx, np.array([120.0, 90.0]), np.array([7.5, 7.0]),
                   np.array([0.2, 0.1]))
    assert np.array_equal(out, np.zeros((5, 2)))


def test_aero_env_without_tables_keeps_pressure(boost_ctx):
    ctx = PhaseContext(earth=EARTH, atmosphere=boost_ctx.atmosphere,
                       fixed_mass=10.0)
    rho, mach, q, lift, drag = aero_env(ctx, np.array([10.0]), np.array([2.0]),
                                        np.array([0.1]))
    assert q == pytest.approx(500.0 * rho * 4.0, rel=1e-14)
    assert np.array_equal([mach, lift, drag], np.zeros((3, 1)))


def _count_calls(monkeypatch, owner, name, counts, key):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[key] += 1
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("h", [np.array([0.5, 30.0, 260.0]),
                               pytest.param(np.array([12.0]), id="12.0")])
def test_aero_env_makes_one_atmosphere_pass_and_one_aero_pass(
        boost_ctx, monkeypatch, h):
    passes = Counter()
    _count_calls(monkeypatch, AtmosphereTable, "lookup", passes, "atm")
    _count_calls(monkeypatch, _TensorPchip, "__call__", passes, "aero")
    aero_env(boost_ctx, h, np.full(np.shape(h), 2.0), np.full(np.shape(h), 0.1))
    assert passes == {"atm": 1, "aero": 1}


def test_vert_rates_evaluates_aero_once(monkeypatch):
    ctx = PhaseContext(earth=EARTH, ref_area=12.0, aero=load_entry_aero(),
                       atmosphere=load_default_atmosphere(), fixed_mass=900.0)
    e1, e2, e3, eta = angles_to_quat(np.array([-0.2, -0.05]),
                                     np.array([0.4, 0.6]), np.array([0.1, 0.3]))
    y = np.column_stack([[40.0, 55.0], [-2.0, -2.1], [0.4, 0.42], [5.0, 6.5],
                         e1, e2, e3, eta, [0.2, 0.18]])
    before = vert_rates(y, np.zeros(4), ctx)
    calls = Counter()
    _count_calls(monkeypatch, dynamics, "aero_env", calls, "aero_env")
    after = vert_rates(y, np.zeros(4), ctx)
    assert calls["aero_env"] == 1
    assert np.array_equal(before, after)


def test_aero_env_dynamic_pressure_scale(boost_ctx):
    rho, _, q, _, _ = aero_env(boost_ctx, np.array([0.0]), np.array([1.0]),
                               np.array([0.0]))
    # q[kPa] = 500 rho v^2 carries the kg/m^3 * km^2/s^2 conversion
    assert q == pytest.approx(500.0 * rho, rel=1e-14)


def test_batched_rates_match_row_by_row(boost_ctx):
    rng = np.random.default_rng(7)
    Y = np.column_stack([
        rng.uniform(0.5, 60.0, 8), rng.uniform(-3.0, 0.5, 8),
        rng.uniform(-0.5, 0.9, 8), rng.uniform(0.3, 6.0, 8),
        rng.uniform(-1.0, 1.4, 8), rng.uniform(-3.0, 3.0, 8),
        rng.uniform(-0.1, 0.35, 8), rng.uniform(-1.2, 1.2, 8),
        rng.uniform(15000.0, 80000.0, 8)])
    U = rng.uniform(-0.1, 0.1, (8, 2))
    V = vert_from_geo(Y)
    # each row of a stack is that row evaluated as a one-row stack, bit for
    # bit: the contract the stacked derivative probes rely on
    stacks = [(lambda y, u: geo_rates(y, u, boost_ctx), Y),
              (lambda y, u: vert_rates(y, u, boost_ctx), V),
              (lambda y, u: vert_from_geo(y), Y),
              (lambda y, u: geo_from_vert(y), V)]
    for f, states in stacks:
        batch = f(states, U)
        assert batch.shape[0] == 8
        for i in range(8):
            assert np.array_equal(f(states[i:i + 1], U[i:i + 1]),
                                  batch[i:i + 1])


angles = st.tuples(
    st.floats(min_value=-1.55, max_value=1.55),
    st.floats(min_value=-math.pi + 1e-6, max_value=math.pi - 1e-6),
    st.floats(min_value=-math.pi + 1e-6, max_value=math.pi - 1e-6))


@settings(max_examples=150, deadline=None)
@given(angles)
def test_angle_quat_roundtrip(abc):
    gamma, psi, sigma = abc
    q = angles_to_quat(gamma, psi, sigma)
    assert np.isclose(sum(x * x for x in q), 1.0, rtol=1e-12)
    g2, p2, s2 = quat_to_angles(*q)
    assert np.isclose(g2, gamma, atol=1e-9)
    assert np.isclose(p2, psi, atol=1e-9)
    assert np.isclose(s2, sigma, atol=1e-9)


def test_quat_degenerate_vertical_flight():
    # straight up: psi and sigma are undefined and must come back 0
    g, p, s = quat_to_angles(*angles_to_quat(math.pi / 2, 1.2, -0.4))
    assert g == pytest.approx(math.pi / 2, abs=1e-12)
    assert p == 0.0 and s == 0.0
    g, p, s = quat_to_angles(*angles_to_quat(-math.pi / 2, 0.3, 0.9))
    assert g == pytest.approx(-math.pi / 2, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(angles, st.floats(min_value=-2.0, max_value=2.0),
       st.floats(min_value=-2.0, max_value=2.0))
def test_quaternion_norm_invariant_for_any_control(abc, w1, ualpha):
    gamma, psi, sigma = abc
    ctx = PhaseContext(earth=EARTH, fixed_mass=907.186)
    e1, e2, e3, eta = angles_to_quat(gamma, psi, sigma)
    y = np.array([60.0, -2.0, 0.4, 3.0, e1, e2, e3, eta, 0.1])
    dy = vert_rates(y[None], np.array([ualpha, w1]), ctx)[0]
    norm_rate = 2.0 * float(y[4:8] @ dy[4:8])
    assert abs(norm_rate) < 1e-12


def _paired_states(rng, n, with_mass=True):
    cols = [rng.uniform(0.5, 70.0, n), rng.uniform(-3.0, 0.5, n),
            rng.uniform(-0.9, 0.9, n), rng.uniform(0.3, 7.0, n),
            rng.uniform(-1.2, 1.2, n), rng.uniform(-3.0, 3.0, n),
            rng.uniform(-0.1, 0.35, n), rng.uniform(-1.5, 1.5, n)]
    if with_mass:
        cols.append(rng.uniform(2000.0, 80000.0, n))
    geo = np.column_stack(cols)
    return geo, vert_from_geo(geo)


def test_state_conversion_roundtrip():
    rng = np.random.default_rng(11)
    geo, vert = _paired_states(rng, 40)
    back = geo_from_vert(vert)
    assert np.allclose(back, geo, rtol=1e-10, atol=1e-10)
    # and without the mass column
    geo8, vert9 = _paired_states(rng, 10, with_mass=False)
    assert vert9.shape[1] == VERT_DIM
    assert np.allclose(geo_from_vert(vert9), geo8, rtol=1e-10, atol=1e-10)


def _bank_rate(y, w1, ctx: PhaseContext):
    """Bank rate u_sigma of the geodetic form equivalent to w1 at the
    vertical-flight states y."""
    e1, e2, e3, eta = (y[:, Vert.E1], y[:, Vert.E2], y[:, Vert.E3],
                       y[:, Vert.ETA])
    lift = aero_env(ctx, y[:, Vert.H], y[:, Vert.V], y[:, Vert.ALPHA])[3]
    w2, w3 = dynamics._frame_rates(y, ctx, lift)
    ratio = (0.5 - e2 ** 2 - e3 ** 2) / ((e1 ** 2 + eta ** 2)
                                         * (e2 ** 2 + e3 ** 2))
    return w1 - ratio * (w2 * (e2 * e1 - e3 * eta) + w3 * (e3 * e1 + e2 * eta))


def test_position_velocity_rates_agree_between_formulations(boost_ctx):
    rng = np.random.default_rng(3)
    geo, vert = _paired_states(rng, 25)
    w1 = rng.uniform(-0.5, 0.5, 25)
    ualpha = rng.uniform(-0.15, 0.15, 25)
    us = _bank_rate(vert, w1, boost_ctx)
    gdot = geo_rates(geo, np.column_stack([ualpha, us]), boost_ctx)
    vdot = vert_rates(vert, np.column_stack([ualpha, w1]), boost_ctx)
    assert np.allclose(gdot[:, :4], vdot[:, :4], rtol=1e-9, atol=1e-12)
    assert np.allclose(gdot[:, Geo.M], vdot[:, Vert.M], rtol=1e-14)


def test_angle_rates_match_quaternion_flow(boost_ctx):
    # central difference of the angles recovered from the advanced
    # quaternion must reproduce the geodetic gamma/psi/sigma rates
    rng = np.random.default_rng(5)
    geo, vert = _paired_states(rng, 12)
    w1 = rng.uniform(-0.3, 0.3, 12)
    us = _bank_rate(vert, w1, boost_ctx)
    gdot = geo_rates(geo, np.column_stack([np.zeros(12), us]), boost_ctx)
    vdot = vert_rates(vert, np.column_stack([np.zeros(12), w1]), boost_ctx)
    d = 1e-7
    ap = quat_to_angles(*(vert[:, 4:8] + d * vdot[:, 4:8]).T)
    am = quat_to_angles(*(vert[:, 4:8] - d * vdot[:, 4:8]).T)
    fd = (np.array(ap) - np.array(am)) / (2.0 * d)
    assert np.allclose(fd[0], gdot[:, Geo.GAMMA], rtol=2e-6, atol=2e-7)
    assert np.allclose(fd[1], gdot[:, Geo.PSI], rtol=2e-6, atol=2e-7)
    assert np.allclose(fd[2], gdot[:, Geo.SIGMA], rtol=2e-6, atol=2e-7)


def test_vertical_flight_rates_stay_finite():
    # the geodetic form divides by cos(gamma); the quaternion form must not
    ctx = PhaseContext(earth=EARTH, thrust=2224.1, isp=282.0, ref_area=4.307,
                       aero=load_boost_aero(),
                       atmosphere=load_default_atmosphere())
    y = np.array([[0.167, math.radians(-120.63), math.radians(34.58), 0.04,
                   0.0, 1e-4, 1e-4, 1.0, 0.0, 85743.0]])
    dy = vert_rates(y, np.zeros(2), ctx)
    assert np.all(np.isfinite(dy))


def test_fixed_mass_fallback(exo_ctx):
    y8 = np.array([[100.0, -2.0, 0.3, 7.0, 0.05, -1.9, 0.0, 0.0]])
    dy = geo_rates(y8, np.zeros(2), exo_ctx)
    assert dy.shape == (1, GEO_DIM)
    # exo rates carry no mass dependence, so the fallback only fixes shape
    y9 = np.column_stack([y8, [exo_ctx.fixed_mass]])
    assert np.allclose(geo_rates(y9, np.zeros(2), exo_ctx)[:, :GEO_DIM], dy)


def test_a_phase_with_neither_a_mass_state_nor_a_fixed_mass_raises():
    # no phase flies a default mass: without a mass column or fixed_mass
    # the rates have no mass to divide by
    ctx = PhaseContext(earth=EARTH)
    y8 = np.array([[100.0, -2.0, 0.3, 7.0, 0.05, -1.9, 0.0, 0.0]])
    assert y8.shape[1] == GEO_DIM
    with pytest.raises(ValueError, match="fixed_mass"):
        geo_rates(y8, np.zeros(2), ctx)
    e1, e2, e3, eta = angles_to_quat(0.05, -1.9, 0.0)
    yv = np.array([[60.0, -2.0, 0.4, 3.0, e1, e2, e3, eta, 0.1]])
    assert yv.shape[1] == VERT_DIM
    with pytest.raises(ValueError, match="fixed_mass"):
        vert_rates(yv, np.zeros(2), ctx)


def test_table_free_pieces_carry_a_complex_stack(boost_ctx):
    # complex-step derivatives need every callback, and every piece and
    # lookup under it, to keep an imaginary part: no cast to float anywhere
    # on the way, and a real part that is the real evaluation
    rng = np.random.default_rng(14)
    geo, vert = _paired_states(rng, 6)
    tiny = 1e-30j
    yg = geo + tiny * rng.standard_normal(geo.shape)
    yv = vert + tiny * rng.standard_normal(vert.shape)
    ug = rng.uniform(-0.1, 0.1, (6, 2)) + tiny
    uv = rng.uniform(-0.1, 0.1, (6, 2)) + tiny
    lift, drag = rng.uniform(1.0, 50.0, (2, 6)) + tiny
    rho, v = rng.uniform(1e-5, 1.0, 6) + tiny, geo[:, Geo.V] + tiny
    w = CostWeights(alpha_bar=0.2, alpha_max=0.42, u_alpha_max=0.17,
                    u_sigma_max=0.52, k=3.0)
    got = {
        "geo_core": (geo_core(yg, ug, boost_ctx, lift, drag),
                     geo_core(geo, ug.real, boost_ctx, lift.real, drag.real)),
        "vert_core": (vert_core(yv, uv, boost_ctx, lift, drag),
                      vert_core(vert, uv.real, boost_ctx, lift.real,
                                drag.real)),
        "dynamic_pressure": (dynamic_pressure(rho, v),
                             dynamic_pressure(rho.real, v.real)),
        "heating_rate": (heating_rate(rho, v, HeatingParams()),
                         heating_rate(rho.real, v.real, HeatingParams())),
        "phugoid_penalty": (phugoid_penalty(np.sin(yg[:, Geo.GAMMA]), 3.0),
                            phugoid_penalty(np.sin(geo[:, Geo.GAMMA]), 3.0)),
        "running_cost_geo": (running_cost_geo(yg, ug, w),
                             running_cost_geo(geo, ug.real, w)),
        "running_cost_vert": (running_cost_vert(yv, uv, w),
                              running_cost_vert(vert, uv.real, w)),
    }
    # and every callback of the mission, with the lookups under them
    cfg = mission.default_config()
    ctx = mission.phase_contexts(cfg)
    prob = mission.build_mission(cfg)
    states, controls = [], []
    for ph in prob.phases:
        states.append((geo if ph.control_names == GEO_CONTROL_NAMES
                       else vert)[:, :ph.nx])
        controls.append(rng.uniform(-0.1, 0.1, (6, ph.nu)))
    times = rng.uniform(0.0, 3000.0, (2, 6))

    def stack(*arrays):
        return [a + tiny * rng.standard_normal(np.shape(a)) for a in arrays]

    def pair(func, *arrays):
        return func(*stack(*arrays)), func(*arrays)

    for p, ph in enumerate(prob.phases):
        got[f"{ph.name}:node"] = pair(ph.node, states[p], controls[p])
        got[f"{ph.name}:cost"] = pair(ph.cost, states[p], controls[p])
    for ln in prob.linkages:
        got[f"link:{ln.name}"] = pair(ln.func, states[ln.a], times[0],
                                      states[ln.b], times[1])
    for bc in prob.boundaries:
        got[f"bc:{bc.name}"] = pair(bc.func, states[bc.phase],
                                    states[bc.phase], *times)
    alpha, mach = rng.uniform(-0.1, 0.45, 6), rng.uniform(0.2, 25.0, 6)
    h = geo[:, Geo.H]
    for name, func, args in (
            ("atmosphere.lookup", ctx[0].atmosphere.lookup, (h,)),
            ("aero.lookup", ctx[0].aero.lookup, (np.degrees(alpha), mach)),
            ("entry aero.lookup", ctx[6].aero.lookup,
             (np.degrees(alpha), mach)),
            ("aero_env", lambda *a: aero_env(ctx[0], *a),
             (h, geo[:, Geo.V], alpha)),
            ("sensed_load", sensed_load, (lift.real, drag.real,
                                          geo[:, Geo.M], EARTH.g0)),
            ("geo_from_vert", geo_from_vert, (vert,))):
        z, x = pair(func, *args)
        got[name] = np.column_stack(z), np.column_stack(x)

    for name, (z, x) in got.items():
        assert np.iscomplexobj(z) and np.any(z.imag != 0.0), name
        assert np.allclose(z.real, x, rtol=1e-13, atol=0.0), name

    # a complex step in v gives the h-rate's slope in v, sin(gamma), as a
    # central difference does
    h = 1e-30
    real_u = ug.real
    step = geo.astype(complex)
    step[:, Geo.V] += 1j * h
    slope = geo_core(step, real_u, boost_ctx, lift.real, drag.real)[:, Geo.H]
    d = 1e-6 * geo[:, Geo.V]
    up, down = geo.copy(), geo.copy()
    up[:, Geo.V] += d
    down[:, Geo.V] -= d
    central = (geo_core(up, real_u, boost_ctx, lift.real, drag.real)
               - geo_core(down, real_u, boost_ctx, lift.real, drag.real))[
        :, Geo.H] / (2.0 * d)
    assert np.allclose(slope.imag / h, central, rtol=1e-8, atol=0.0)
