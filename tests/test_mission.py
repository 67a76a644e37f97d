import hashlib
import json
import math
from dataclasses import astuple, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ascentry import canonical, cli
from ascentry import mission as M
from ascentry import nlpsolve
from ascentry.dynamics import Geo, Vert, geo_from_vert, vert_from_geo
from ascentry.meshref import RefinementOptions, RefinementReport, refine_loop
from ascentry.transcription import MeshPhase, transcribe


@pytest.fixture(scope="module")
def cfg():
    return M.default_config()


@pytest.fixture(scope="module")
def guess_flights():
    """What the shared guess flew: every ascent, as (kick, tolerance, arc)
    in order; every kick the calibration's root finder evaluated, and the
    root it returned; every phase flight, as (phase name, rtol), and its
    node evaluations (solve_ivp's nfev); the entry, as its pierce time and
    what `_entry_profile` returned."""
    return {"ascents": [], "brentq": [], "root": None, "flown": [],
            "nfev": [], "entry": None}


@pytest.fixture(scope="module")
def guess_setup(cfg, guess_flights):
    """One transcription plus calibrated guess, shared across tests."""
    nlp = transcribe(M.build_mission(cfg), M.default_meshes(cfg))
    propagate, brentq, fly = M._propagate_ascent, M.brentq, M.fly
    entry_profile = M._entry_profile

    def propagated(config, phases, kick, psi0, tol):
        arc = propagate(config, phases, kick, psi0, tol)
        guess_flights["ascents"].append((kick, tol, arc))
        return arc

    def counted_brentq(f, *args, **kwargs):
        def g(kick):
            guess_flights["brentq"].append(kick)
            return f(kick)
        guess_flights["root"] = brentq(g, *args, **kwargs)
        return guess_flights["root"]

    def flown(phase, *args, **kwargs):
        guess_flights["flown"].append((phase.name, kwargs.get("rtol")))
        out = fly(phase, *args, **kwargs)
        guess_flights["nfev"].append(out.nfev)
        return out

    def entry(config, ctx, phase, y_pierce, t_pierce):
        out = entry_profile(config, ctx, phase, y_pierce, t_pierce)
        guess_flights["entry"] = (t_pierce, out)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(M, "_propagate_ascent", propagated)
        mp.setattr(M, "_entry_profile", entry)
        mp.setattr(M, "brentq", counted_brentq)
        mp.setattr(M, "fly", flown)
        z0 = M.initial_guess(cfg, nlp)
    return nlp, z0


def test_mass_ledger(cfg):
    # each stage carries the propellant its burn consumes
    assert cfg.ignition_mass == pytest.approx(87760.5, abs=0.05)
    assert cfg.m_s2 == pytest.approx(38771.5, abs=0.05)
    assert cfg.m_s3 == pytest.approx(11105.2, abs=0.05)
    assert cfg.coast_mass == pytest.approx(3630.0)
    # the liftoff mass is the ignition stack less the burn to the tower top
    tc = M.tower_clear_propagate(cfg)
    burn = cfg.stages[0].mass_rate(cfg.earth.g0) * tc.time
    assert tc.mass == pytest.approx(cfg.ignition_mass - burn, rel=1e-15)


def test_stage_mass_rates(cfg):
    g0 = cfg.earth.g0
    s1, s2, s3 = cfg.stages
    assert s1.mass_rate(g0) == pytest.approx(s1.thrust / (s1.isp * g0),
                                             rel=1e-14)
    assert s2.mass_rate(g0) == pytest.approx(403.56338, abs=1e-4)
    # the loads the burns consume are the paper's propellant masses
    for s, load in zip((s1, s2, s3), (45360.0, 24500.0, 7080.0)):
        assert s.total_mass(g0) - s.empty_mass == pytest.approx(load,
                                                                rel=0.01)


def test_stage_rejects_nonpositive_fields():
    with pytest.raises(M.ConfigError):
        M.VehicleStage("bad", 10.0, 100.0, -1.0, 300.0, 1000.0)


@pytest.mark.parametrize("mutate", [
    lambda c: replace(c, stages=c.stages[:2]),
    # a longer second-stage burn separates after the fairing
    lambda c: replace(c, stages=(c.stages[0],
                                 replace(c.stages[1], burn_time=125.0),
                                 c.stages[2])),
    lambda c: replace(c, limits=replace(c.limits, q_split=200.0)),
    lambda c: replace(c, limits=replace(c.limits, h_peak_lo=10.0)),
    lambda c: replace(c, entry_mass=5000.0),
    # a launch point outside the flight corridor
    lambda c: replace(c, bc=replace(c.bc, lon0=-80.0 * M.DEG)),
    lambda c: replace(c, mesh=c.mesh[:5]),
    lambda c: replace(c, guess_apogee=50.0),
    lambda c: replace(c, solver_tolerance=-1.0),
    # the tower clearance needs a tower to clear, and the loads a g0
    lambda c: replace(c, bc=replace(c.bc, tower_height=0.0)),
    lambda c: replace(c, earth=replace(c.earth, g0=0.0)),
])
def test_validate_rejections(cfg, mutate):
    with pytest.raises(M.ConfigError):
        mutate(cfg).validate()


def _tower_oracle(cfg, dt=1e-3):
    """RK4 on hdd = T/m - g0 from rest; crossing by bisection."""
    s1 = cfg.stages[0]
    g0 = cfg.earth.g0
    mdot = s1.mass_rate(g0)
    m0 = cfg.ignition_mass

    def acc(t, v):
        return s1.thrust / (m0 - mdot * t) - g0

    def step(t, h, v, dt):
        k1h, k1v = v, acc(t, v)
        k2h, k2v = v + 0.5 * dt * k1v, acc(t + 0.5 * dt, v + 0.5 * dt * k1v)
        k3h, k3v = v + 0.5 * dt * k2v, acc(t + 0.5 * dt, v + 0.5 * dt * k2v)
        k4h, k4v = v + dt * k3v, acc(t + dt, v + dt * k3v)
        return (h + dt * (k1h + 2 * k2h + 2 * k3h + k4h) / 6.0,
                v + dt * (k1v + 2 * k2v + 2 * k3v + k4v) / 6.0)

    t, h, v = 0.0, 0.0, 0.0
    target = cfg.bc.tower_height
    while h < target:
        t_prev, h_prev, v_prev = t, h, v
        h, v = step(t, h, v, dt)
        t += dt
    lo, hi = t_prev, t
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        hm, _ = step(t_prev, h_prev, v_prev, mid - t_prev)
        if hm < target:
            lo = mid
        else:
            hi = mid
    t_x = 0.5 * (lo + hi)
    _, v_x = step(t_prev, h_prev, v_prev, t_x - t_prev)
    return t_x, v_x, m0 - mdot * t_x


def test_aero_table_with_a_blank_cell_is_a_config_error(cfg, tmp_path):
    # a blank CL cell at alpha -20 deg, Mach 0.8 reads as NaN; it would
    # poison every lookup around it
    data = Path(M.__file__).parent / "data"
    lines = (data / "aero_boost_cl.csv").read_text().splitlines()
    mach = lines[0].split(",")[1:]
    row = next(i for i, ln in enumerate(lines) if ln.split(",")[0] == "-20")
    cells = lines[row].split(",")
    cells[1 + mach.index("0.8")] = ""
    lines[row] = ",".join(cells)
    cl = tmp_path / "cl.csv"
    cl.write_text("\n".join(lines) + "\n")
    bad = replace(cfg, boost_aero=[str(cl), str(data / "aero_boost_cd.csv")])
    with pytest.raises(M.ConfigError, match="tables.boost_aero"):
        M.resolve_tables(bad)


def test_tower_clear_matches_integration(cfg):
    tc = M.tower_clear_propagate(cfg)
    t_ref, v_ref, m_ref = _tower_oracle(cfg)
    assert tc.time == pytest.approx(t_ref, rel=1e-7)
    assert tc.speed == pytest.approx(v_ref, rel=1e-6)
    assert tc.mass == pytest.approx(m_ref, rel=1e-9)
    assert tc.altitude == pytest.approx(cfg.bc.pad_elevation
                                        + cfg.bc.tower_height)
    assert 0.0 < tc.time < cfg.stages[0].burn_time


def test_tower_clear_needs_liftoff_thrust(cfg):
    weak = replace(cfg, stages=(replace(cfg.stages[0], thrust=100.0),)
                   + cfg.stages[1:])
    with pytest.raises(M.ConfigError, match="cannot lift off"):
        M.tower_clear_propagate(weak)
    with pytest.raises(M.ConfigError, match="cannot lift off"):
        weak.validate()


def test_json_roundtrip(cfg):
    text = json.dumps(cfg.to_dict(), indent=1)
    back = M.MissionConfig.from_dict(json.loads(text))
    assert back.to_dict() == cfg.to_dict()
    # inf limits survive through the null encoding
    assert math.isinf(back.limits.qdot_max)
    assert json.loads(text)["limits"]["qdot_max"] is None


def test_from_dict_partial_override(cfg):
    over = M.MissionConfig.from_dict({"limits": {"qdot_max": 1.5},
                                      "guess": {"apogee": 120.0}})
    assert over.limits.qdot_max == 1.5
    assert over.guess_apogee == 120.0
    assert over.bc.lon0 == cfg.bc.lon0
    assert over.limits.q_max == cfg.limits.q_max


def test_from_dict_malformed():
    with pytest.raises(M.ConfigError):
        M.MissionConfig.from_dict({"limits": []})
    with pytest.raises(M.ConfigError):
        M.MissionConfig.from_dict({"stages": [{"name": "solo"}]})


def test_build_mission_structure(cfg):
    prob = M.build_mission(cfg)
    names = [p.name for p in prob.phases]
    assert names == ["boost1", "boost2", "boost3", "exo_burn", "coast_up",
                     "coast_down", "entry_glide", "entry_dive"]
    dims = [(p.nx, p.nu) for p in prob.phases]
    assert dims == [(10, 2), (9, 2), (9, 2), (9, 2), (8, 2), (8, 2),
                    (8, 2), (9, 2)]
    # every phase has the same control box, the two Euler-parameter phases'
    # roll rate w1 under the bank rate's limit
    u_max = [cfg.cost.u_alpha_max, cfg.cost.u_sigma_max]
    for p in prob.phases:
        assert list(p.u_lo) == [-x for x in u_max] and list(p.u_hi) == u_max
    hops = [(lk.name, lk.a, lk.b) for lk in prob.linkages]
    assert hops == [("stage1_sep", 0, 1), ("stage2_sep", 1, 2),
                    ("fairing_drop", 2, 3), ("burnout", 3, 4),
                    ("payload_sep", 4, 5), ("pierce", 5, 6),
                    ("bank_to_vertical", 6, 7)]
    assert [b.name for b in prob.boundaries] == ["dive_unit_quat"]
    acc = prob.accumulators[0]
    assert acc.name == "heat_load" and acc.lo == 0.0
    assert acc.hi == cfg.limits.q_heat_max


@pytest.mark.parametrize("payload, mass", [(3000.0, 85732.97),
                                            (2500.0, 85242.35)])
def test_boost1_starts_where_the_tower_clearance_puts_it(cfg, payload, mass):
    # boost1's start time, altitude, speed and mass follow from the
    # vehicle: a lighter payload lifts off lighter
    c = replace(cfg, payload_mass=payload)
    tc = M.tower_clear_propagate(c)
    assert tc.mass == pytest.approx(mass, abs=0.005)
    boost1 = M.build_mission(c).phases[0]
    assert boost1.t0_lo == boost1.t0_hi == tc.time
    pins = {Vert.H: tc.altitude, Vert.PHI: c.bc.lon0, Vert.THETA: c.bc.lat0,
            Vert.V: tc.speed, Vert.M: tc.mass}
    for i, value in pins.items():
        assert boost1.x0_lo[i] == boost1.x0_hi[i] == value


def test_vertical_phase_nodes_keep_the_euler_parameter_norm(cfg):
    # the Euler-parameter kinematics are e' = Omega(w) e / 2 with Omega
    # skew, so e . e' vanishes for any state and control in the box: the
    # transcribed rates add nothing that lets the norm drift
    prob = M.build_mission(cfg)
    rng = np.random.default_rng(2104)
    for p in (0, 7):
        ph = prob.phases[p]
        X = rng.uniform(ph.x_lo, ph.x_hi, (200, ph.nx))
        U = rng.uniform(ph.u_lo, ph.u_hi, (200, ph.nu))
        e = X[:, Vert.E1:Vert.ETA + 1]
        de = ph.node(X, U)[:, Vert.E1:Vert.ETA + 1]
        scale = np.linalg.norm(e, axis=1) * np.linalg.norm(de, axis=1)
        assert np.all(np.abs(np.sum(e * de, axis=1)) <= 1e-12 * scale), ph.name


def test_heating_limit_toggles_path_rows(cfg):
    base = transcribe(M.build_mission(cfg), M.default_meshes(cfg))
    assert not any("qdot_max" in n for n in base.con_names)
    tight = replace(cfg, limits=replace(cfg.limits, qdot_max=2.0))
    nlp = transcribe(M.build_mission(tight), M.default_meshes(tight))
    touched = {n.split(":")[0] for n in nlp.con_names if "qdot_max" in n}
    # the heating limit binds in both entry phases and nowhere else
    assert touched == {"p6", "p7"}


def test_linkage_residuals_vanish_when_consistent(cfg):
    prob = M.build_mission(cfg)
    funcs = {l.name: l.func for l in prob.linkages}

    def lk(name, xa, ta, xb, tb):
        # the linkage on a stack of one endpoint pair
        return funcs[name](xa[None], np.array([ta]), xb[None], np.array([tb]))[0]

    geo = np.array([30.0, -2.1, 0.6, 2.0, 0.3, 1.2, 0.05, -0.3, 40000.0])
    vert = vert_from_geo(geo[None])[0]
    assert np.abs(lk("stage1_sep", vert, 56.4, geo[:8], 56.4)).max() < 1e-12

    gm = np.append(geo[:8], 5500.0)
    dropped = gm.copy()
    dropped[8] -= cfg.fairing_mass
    assert np.abs(lk("fairing_drop", gm, 179.1, dropped, 179.1)).max() == 0.0

    # separation at the peak keeps position, speed and heading; the pitch
    # channels are free to jump with the mass change
    other = geo[:8].copy()
    other[Geo.GAMMA] += 0.2
    other[Geo.ALPHA] -= 0.1
    r = lk("payload_sep", geo[:8], 900.0, other, 900.0)
    assert len(r) == 6 and np.abs(r).max() == 0.0

    below = vert_from_geo(geo[None, :8])[0]
    r = lk("bank_to_vertical", geo[:8], 1200.0, below, 1200.0)
    assert np.abs(r).max() < 1e-12
    assert abs(lk("bank_to_vertical", geo[:8], 1200.0, below,
                  1201.0)[8] - 1.0) < 1e-12


def test_phase_contexts_match_vehicle(cfg):
    ctx = M.phase_contexts(cfg)
    assert len(ctx) == 8
    assert ctx[0].thrust == cfg.stages[0].thrust
    assert ctx[3].atmosphere is None and ctx[3].aero is None
    assert ctx[4].fixed_mass == pytest.approx(3630.0)
    assert ctx[5].fixed_mass == pytest.approx(907.186)
    assert ctx[6].ref_area == pytest.approx(0.48387)


def test_default_meshes(cfg):
    meshes = M.default_meshes(cfg)
    assert len(meshes) == 8
    assert [m.n_intervals for m in meshes] == [n for n, _ in cfg.mesh]


def test_initial_guess_packs_cleanly(cfg, guess_setup):
    nlp, z0 = guess_setup
    assert np.all(np.isfinite(z0))
    assert np.all(z0 >= nlp.z_lo - 1e-9)
    assert np.all(z0 <= nlp.z_hi + 1e-9)
    m0_idx = nlp.var_names.index("p0:boost1:x:m:n0")
    assert z0[m0_idx] == M.tower_clear_propagate(cfg).mass
    c = nlp.constraints(z0)
    row = nlp.con_names.index("acc:heat_load:balance")
    acc = z0[nlp.acc_idx["heat_load"]]
    assert acc > 0.0
    assert abs(c[row]) <= 1e-2 * (1.0 + acc)
    # the propagated arc leaves only local defects for the optimizer
    viol = np.maximum(nlp.c_lo - c, 0.0) + np.maximum(c - nlp.c_hi, 0.0)
    assert viol.max() < 100.0


def test_guess_jacobian_structure_is_the_declared_sparsity(guess_setup):
    nlp, z0 = guess_setup
    J = nlp.jacobian(z0).tocoo()
    rows, cols = nlp.sparsity()
    assert J.nnz == 22492
    assert np.array_equal(J.row, rows) and np.array_equal(J.col, cols)


def test_guess_node_probe_equals_the_per_column_loop(guess_setup,
                                                    assert_probe_matches_loop):
    nlp, z0 = guess_setup
    assert_probe_matches_loop(nlp, z0)
    scale = np.maximum(1.0, np.abs(z0))
    rng = np.random.default_rng(2104)
    assert_probe_matches_loop(nlp, nlp.clip_to_bounds(
        z0 + 1e-3 * scale * rng.standard_normal(nlp.n_var)))


def _smooth_directions(nlp, z0):
    """(scale, mask) of the guess's variables that directions may move:
    none near a bound.  Incidences on an aero table's edge move too (the
    guess starts the entry glide at 0 deg, the entry table's first row): the
    tables are C1 across their edges."""
    scale = np.maximum(1.0, np.abs(z0))
    margin = 1e-4 * scale
    free = (z0 - nlp.z_lo > margin) & (nlp.z_hi - z0 > margin)
    return scale, free


def test_guess_derivatives_match_directional_differences(guess_setup):
    """jacobian @ v and gradient . v against central differences of the
    constraints and the objective, along seeded directions that hold fixed
    every variable near a bound."""
    nlp, z0 = guess_setup
    J = nlp.jacobian(z0)
    g = nlp.objective_gradient(z0)
    scale, free = _smooth_directions(nlp, z0)
    rng = np.random.default_rng(2104)
    step = 1e-6
    for _ in range(3):
        v = free * scale * rng.standard_normal(nlp.n_var)
        dc = (nlp.constraints(z0 + step * v)
              - nlp.constraints(z0 - step * v)) / (2 * step)
        df = (nlp.objective(z0 + step * v)
              - nlp.objective(z0 - step * v)) / (2 * step)
        row_scale = abs(J) @ np.abs(v) + np.abs(dc) + 1e-8
        assert np.all(np.abs(J @ v - dc) <= 1e-5 * row_scale)
        assert abs(g @ v - df) <= 1e-5 * (np.abs(g) @ np.abs(v) + abs(df) + 1e-8)


def test_guess_jacobian_matches_extrapolated_differences(guess_setup):
    # jacobian @ v against Richardson-extrapolated central differences of
    # the constraints, (4 D(h/2) - D(h)) / 3, to 1e-9 of each row's scale,
    # along seeded directions that leave the entry glide's node 0 fixed: its
    # altitude is pinned on the 80 km atmosphere knot, where the PCHIP's
    # curvature jumps and differences across it lose their second order.
    # The complex-step partials take no step, so this checks them against
    # an independent rule; at 3e-5 the extrapolation's rounding and its
    # truncation both sit near 1e-10
    nlp, z0 = guess_setup
    J = nlp.jacobian(z0)
    glide0 = np.array([n.startswith("p6:entry_glide:") and n.endswith(":n0")
                       for n in nlp.var_names])
    scale = np.maximum(1.0, np.abs(z0))
    rng = np.random.default_rng(2104)

    def central(v, h):
        return (nlp.constraints(z0 + h * v)
                - nlp.constraints(z0 - h * v)) / (2 * h)

    step = 3e-5
    for _ in range(3):
        v = ~glide0 * scale * rng.standard_normal(nlp.n_var)
        dc = (4 * central(v, step / 2) - central(v, step)) / 3
        row_scale = abs(J) @ np.abs(v) + np.abs(dc)
        assert np.all(np.abs(J @ v - dc) <= 1e-9 * row_scale)


def test_every_mission_state_bound_lies_in_its_phase_box(guess_setup):
    # endpoint pins tighten the phase box and never widen it: node 0 of
    # boost2 and boost3 keeps its box on every state but the pinned mass,
    # and the entry glide's node-0 incidence its [0, alpha_max]
    nlp, _ = guess_setup
    for ph, lay in zip(nlp.problem.phases, nlp.phase_layout):
        states = slice(lay.x_off, lay.u_off)
        lo = nlp.z_lo[states].reshape(lay.nn, ph.nx)
        hi = nlp.z_hi[states].reshape(lay.nn, ph.nx)
        assert np.all(ph.x_lo <= lo) and np.all(lo <= hi)
        assert np.all(hi <= ph.x_hi)
    i = nlp.var_names.index("p6:entry_glide:x:alpha:n0")
    assert (nlp.z_lo[i], nlp.z_hi[i]) == (0.0, nlp.problem.phases[6].x_hi[Geo.ALPHA])


def test_guess_hessian_matches_differences_of_the_lagrangian_gradient(
        guess_setup):
    """hessian @ v at the guess, with seeded multipliers on every row,
    against central differences of the Lagrangian gradient along directions
    that hold fixed every variable near a bound.  The tables are C1
    piecewise cubics, so second differences that straddle a table knot
    disagree by a few percent on a few rows; the whole vector agrees to
    1e-4."""
    nlp, z0 = guess_setup
    scale, free = _smooth_directions(nlp, z0)
    rng = np.random.default_rng(2104)
    y = rng.standard_normal(nlp.n_con)
    H = nlp.hessian(z0, y)
    assert (abs(H - H.T)).max() == 0.0

    def gradient(w):
        return nlp.objective_gradient(w) + nlp.jacobian(w).T @ y

    step = 1e-4
    for _ in range(3):
        v = free * scale * rng.standard_normal(nlp.n_var)
        fd = (gradient(z0 + step * v) - gradient(z0 - step * v)) / (2 * step)
        err = np.abs(H @ v - fd)
        row_scale = abs(H) @ np.abs(v) + np.abs(fd)
        assert np.linalg.norm(err) <= 1e-4 * np.linalg.norm(row_scale)
        assert np.all(err <= 0.1 * (row_scale + 1e-9 * row_scale.max()))


def test_capped_sqp_iteration_from_the_guess(cfg, guess_setup):
    # the first SQP iteration on the full mission NLP, with the cost's
    # Hessian at the guess shifted to be semidefinite: the trust box cannot
    # meet the linearized rows, so the elastic step leaves violation at the
    # weight's price; the figures pin the iterate bit for bit, recorded
    # since boost1 starts where the tower clearance puts it, from the guess
    # flown from there (from objective 194.57172589577675, violation
    # 53.876497811751435).  That subproblem converges in 20 interior-point
    # iterations (19 from the guess before).  Re-pinned since the defect
    # rows read D X as a sparse product (from objective 194.71126037672;
    # the defects moved by at most 3.7e-11, the violation kept its bits).
    # Re-pinned since the trial ascents hold the bank and the entry's
    # release latches (from objective 194.71126037671993, violation
    # 53.98086604961118): the root kick moved by 9.4e-7 rad and the entry
    # falls from v = 1.35 km/s instead of sliding along it, so the guess
    # moved; the subproblem still takes 20 interior-point iterations.
    # Re-pinned since the solver scales the Jacobian in place (from
    # objective 188.6961239633872, violation 53.98153571885008): the
    # scaled Jacobian's rows now sum in ascending column order, where the
    # sparse product that scaled them stored them descending; still 20
    # interior-point iterations
    nlp, z0 = guess_setup
    rep = nlpsolve.solve(nlp, z0, nlpsolve.SolverOptions(
        tolerance=cfg.solver_tolerance, max_iterations=1))
    assert rep.status == "max_iterations" and rep.iterations == 1
    assert rep.objective == 188.69612396338718
    assert rep.violation == 53.98153571885017
    assert rep.message == ""
    [row] = rep.log
    assert row["qp_iterations"] <= 20


def test_four_capped_sqp_iterations_from_the_guess(cfg, guess_setup):
    # from the second iteration on the multipliers are nonzero, so every
    # node and endpoint block of the Hessian runs; the iterate must not move
    # a bit.  Recorded since boost1 starts where the tower clearance puts
    # it, from the guess flown from there (from objective
    # 189.53305810948578, violation 33.56910245738668, sha256 4fbf4573...).
    # Re-pinned since the defect rows read D X as a sparse product (from
    # objective 189.80575919628146, violation 33.620800729450124, sha256
    # 9203aa9a...): the defects at the guess moved by rounding alone.
    # Re-pinned since the trial ascents hold the bank and the entry's
    # release latches (from objective 189.80575919628325, violation
    # 33.6208007294622, sha256 99d55f30...): the guess moved with the root
    # kick and the entry.  Re-pinned since the solver scales the Jacobian
    # in place (from objective 185.96901009735572, violation
    # 33.62397120218189, sha256 0faab68b...): the scaled Jacobian's rows
    # now sum in ascending column order, not descending; the four
    # subproblems still take 20, 21, 24 and 23 interior-point iterations
    nlp, z0 = guess_setup
    rep = nlpsolve.solve(nlp, z0, nlpsolve.SolverOptions(
        tolerance=cfg.solver_tolerance, max_iterations=4))
    assert rep.status == "max_iterations" and rep.iterations == 4
    assert rep.objective == 185.9690100973584
    assert rep.violation == 33.62397120219789
    assert hashlib.sha256(rep.x.tobytes()).hexdigest() == (
        "ff9de2bde969c5db9089249aa58bdf0f9b4881ea7fc478e845a6757683ff735a")


def test_mission_hessian_at_the_guess_is_pinned_bit_for_bit(guess_setup):
    # seeded multipliers on every row, recorded since boost1 starts where
    # the tower clearance puts it: the values moved with the guess (from
    # sha256 23a14bf7...), the pattern of 23369 entries kept its bits.
    # Re-pinned since the trial ascents hold the bank and the entry's
    # release latches: the values moved with the guess (from sha256
    # 97521be7...), the pattern kept its bits
    nlp, z0 = guess_setup
    y = np.random.default_rng(2104).standard_normal(nlp.n_con)
    H = nlp.hessian(z0, y)
    digests = [hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
               for a in (H.data, H.indices, H.indptr)]
    assert digests == [
        "641e64f24504f54fd872753159b22785c74276fab4f05c55625476192abd4ab7",
        "ed2ad091bd06bce4ffc9c03b376df7dc4fb3d7cdd0fe294439980ae218bf2abf",
        "7722b3de997ab6d4006507bf8da7842a99197dd4743b1cf574f8489b80825857"]


def test_each_evaluation_looks_the_environment_up_once_per_phase(
        cfg, guess_setup, monkeypatch):
    # five phases fly through the air: each evaluation makes one atmosphere
    # and one aero lookup in each of them, shared by the rates, the path
    # rows and the heating integrand
    _, z0 = guess_setup
    nlp = transcribe(M.build_mission(cfg), M.default_meshes(cfg))
    calls = {"atmosphere": 0, "aero": 0}
    for key, table in (("atmosphere", M.AtmosphereTable), ("aero", M.AeroTable)):
        def counted(self, *args, key=key, lookup=table.lookup):
            calls[key] += 1
            return lookup(self, *args)
        monkeypatch.setattr(table, "lookup", counted)
    for evaluate in (nlp.constraints, nlp.jacobian,
                     lambda z: nlp.hessian(z, np.ones(nlp.n_con))):
        calls.update(atmosphere=0, aero=0)
        evaluate(z0)
        assert calls == {"atmosphere": 5, "aero": 5}


def _canonical_mesh_grid():
    """canonical-solve's start meshes: 1-3 intervals of degree 3-6, evenly
    spaced or graded 1:2, one phase each."""
    return [[MeshPhase(w / w.sum(), np.full(k, degree))]
            for k in (1, 2, 3) for degree in (3, 4, 5, 6)
            for w in ([np.ones(k)] + [np.linspace(1.0, 2.0, k)] * (k > 1))]


def _capped_subproblems(cfg, nlp, z0, monkeypatch):
    """The capped iteration's subproblem: its arguments, its answer, the
    symmetric factors its iterations made and the pivoted ones."""
    real_qp, real_lu = nlpsolve._elastic_qp, nlpsolve._symmetric_lu
    real_splu = nlpsolve.spla.splu
    inside, factors, pivoted, solves = [], [], [], []

    def marked(*args):
        inside.append(True)
        try:
            qp = real_qp(*args)
        finally:
            inside.pop()
        solves.append((args, qp))
        return qp

    def recorded(M, *args):
        lu = real_lu(M, *args)
        if inside:
            factors.append(lu)
        return lu

    def recorded_splu(A, **kwargs):
        if inside and not kwargs:     # only the pivoted fallback has none
            pivoted.append(A)
        return real_splu(A, **kwargs)

    monkeypatch.setattr(nlpsolve, "_elastic_qp", marked)
    monkeypatch.setattr(nlpsolve, "_symmetric_lu", recorded)
    monkeypatch.setattr(nlpsolve.spla, "splu", recorded_splu)
    nlpsolve.solve(nlp, z0, nlpsolve.SolverOptions(
        tolerance=cfg.solver_tolerance, max_iterations=1))
    [(args, qp)] = solves
    return args, qp, factors, pivoted


def test_qp_factors_of_the_capped_iteration_have_the_kkt_inertia(
        cfg, guess_setup, monkeypatch):
    # every interior-point iteration factors the quasi-definite
    # [B_f + Sigma, J'; J, -D] without pivoting: one negative pivot per row
    # and one positive per free variable, the inertia a barrier method's
    # correction reads, and a factor sparse enough to repeat 20-odd times;
    # refined, it solves K to 1e-10 every time, so no pivoted factor is made
    nlp, z0 = guess_setup
    (B, g, J, lo, hi, bl, bu), qp, factors, pivoted = _capped_subproblems(
        cfg, nlp, z0, monkeypatch)
    assert qp.converged and len(factors) == qp.iterations
    assert pivoted == []
    n_free = int(np.sum(bl < bu))
    assert J.shape[0] == 1342 and n_free < nlp.n_var
    for lu in factors:
        pivots = lu.U.diagonal()
        assert np.sum(pivots < 0.0) == 1342
        assert np.sum(pivots > 0.0) == n_free
        assert lu.L.nnz + lu.U.nnz < 100_000


def test_the_benchmark_keeps_a_subproblem_on_each_side_of_the_dense_size(
        cfg, guess_setup, monkeypatch):
    # canonical-solve's subproblems (every problem refined from every mesh
    # of its 1-3 interval, degree 3-6 grid at 1e-6, and from its default
    # mesh at 1e-8) have K of order 8-88: each of their interior-point
    # iterations makes one dense factor and none makes a sparse one.
    # mission-sqp's K (order 2,817) takes SuperLU, and its first factor
    # keeps one negative pivot per row.  A canonical solve holds its
    # matrices as dense arrays throughout and makes no CSR copy, cut or
    # diagonal; the mission solve (n_var + n_con = 2,853) makes all three
    real_qp, real_bk = nlpsolve._elastic_qp, nlpsolve._bunch_kaufman
    orders, iterations, dense = [], [], []
    csr_helpers, csr_calls = ("_canonical_copy", "_submatrix",
                              "_with_diagonal"), []

    def spied(name):
        real = getattr(nlpsolve, name)

        def call(*args):
            csr_calls.append(name)
            return real(*args)
        return call

    def recorded(B, g, J, lo, hi, bl, bu):
        orders.append(int(np.sum(bl < bu))
                      + int(np.sum(np.isfinite(lo) | np.isfinite(hi))))
        qp = real_qp(B, g, J, lo, hi, bl, bu)
        iterations.append(qp.iterations)
        return qp

    def counted(*args):
        dense.append(True)
        return real_bk(*args)

    def refused(*args):
        raise AssertionError("a canonical K took the sparse factor")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nlpsolve, "_elastic_qp", recorded)
        mp.setattr(nlpsolve, "_bunch_kaufman", counted)
        mp.setattr(nlpsolve, "_ordered_lu", refused)
        for name in csr_helpers:
            mp.setattr(nlpsolve, name, spied(name))
        grid = _canonical_mesh_grid()
        assert len(grid) == 20
        for make in canonical.CANONICAL_PROBLEMS.values():
            problem, default = make()
            starts = [(mesh, 1e-6) for mesh in grid] + [(default, 1e-8)]
            for mesh, tol in starts:
                refine_loop(problem, mesh, canonical.straight_line_guess,
                            RefinementOptions(mesh_tolerance=tol,
                                              max_refinements=6),
                            nlpsolve.SolverOptions(tolerance=tol,
                                                   max_iterations=200))
    assert len(orders) >= 3 * 21
    assert min(orders) == 8 and max(orders) == 88
    assert max(orders) <= nlpsolve.DENSE_KKT_MAX
    assert len(dense) == sum(iterations)
    assert csr_calls == []

    nlp, z0 = guess_setup
    for name in csr_helpers:
        monkeypatch.setattr(nlpsolve, name, spied(name))
    (B, g, J, lo, hi, bl, bu), qp, factors, pivoted = _capped_subproblems(
        cfg, nlp, z0, monkeypatch)
    assert int(np.sum(bl < bu)) + J.shape[0] == 2817
    assert 2817 > 10 * nlpsolve.DENSE_KKT_MAX
    assert len(factors) == qp.iterations and pivoted == []
    assert np.sum(factors[0].U.diagonal() < 0.0) == J.shape[0]
    assert nlp.n_var + nlp.n_con > nlpsolve.DENSE_KKT_MAX
    assert set(csr_calls) == set(csr_helpers)


def test_capped_iteration_orders_its_subproblem_once(cfg, guess_setup,
                                                     monkeypatch):
    # K keeps its pattern through the subproblem: its first factor makes
    # the one minimum-degree order, every later one reuses it.  Every
    # symmetric factor, the subproblem's and the shift ladder's rungs, runs
    # one-column panels with supernodes relaxed to 2 columns; the pivoted
    # fallback keeps SuperLU's defaults and no keyword argument, the marker
    # `_capped_subproblems` finds it by
    nlp, z0 = guess_setup
    real_qp, real_splu = nlpsolve._elastic_qp, nlpsolve.spla.splu
    inside, calls, solves = [], [], []

    def marked(*args):
        inside.append(True)
        try:
            solves.append((args, real_qp(*args)))
        finally:
            inside.pop()
        return solves[-1][1]

    def recorded_splu(A, **kwargs):
        calls.append((bool(inside), kwargs))
        return real_splu(A, **kwargs)

    monkeypatch.setattr(nlpsolve, "_elastic_qp", marked)
    monkeypatch.setattr(nlpsolve.spla, "splu", recorded_splu)
    nlpsolve.solve(nlp, z0, nlpsolve.SolverOptions(
        tolerance=cfg.solver_tolerance, max_iterations=1))
    [(args, qp)] = solves
    orders = [kwargs.get("permc_spec") for qp_call, kwargs in calls if qp_call]
    assert orders == ["MMD_AT_PLUS_A"] + ["NATURAL"] * (qp.iterations - 1)
    assert any(not qp_call for qp_call, _ in calls)     # the shift's rungs
    assert all(kwargs["panel_size"] == 1 and kwargs["relax"] == 2
               for _, kwargs in calls)

    # every symmetric factor of a one-iteration subproblem loses a pivot,
    # so its Newton steps fall back on the pivoted factor
    def lost(*args):
        raise RuntimeError("a pivot lost to cancellation")

    calls.clear()
    monkeypatch.setattr(nlpsolve, "_symmetric_lu", lost)
    monkeypatch.setattr(nlpsolve, "QP_ITERATIONS", 1)
    real_qp(*args)
    assert calls == [(False, {})]


def test_first_step_stays_in_the_trust_box(cfg, guess_setup, monkeypatch):
    # the subproblem's box is the trust region cut by the variable bounds;
    # its step keeps to it, where the hard-row splitting it replaces
    # left it in 182 components
    nlp, z0 = guess_setup
    (B, g, J, lo, hi, bl, bu), qp, _, _ = _capped_subproblems(
        cfg, nlp, z0, monkeypatch)
    assert qp.converged
    assert np.all(bl <= qp.d) and np.all(qp.d <= bu)
    assert np.abs(qp.d).max() <= 1e3


def test_guess_is_pinned_bit_for_bit(guess_setup):
    # recorded since boost1 starts where the tower clearance puts it (from
    # objective 193.13088018510336, sha256 415cdd90...): the derived loads
    # make the stack 9.5 kg lighter, and the ascent starts 10 kg lighter,
    # 1.1 ms later and 0.08 m/s slower.  Re-pinned since the trial
    # ascents hold the bank and the entry's release latches (from
    # objective 193.40165402709854, sha256 a0634f6d...): the root kick
    # moved from 15.389663 to 15.389717 deg, inside brentq's xtol, and the
    # entry falls from v = 1.35 km/s instead of sliding along it
    nlp, z0 = guess_setup
    assert z0.dtype == np.float64 and z0.shape == (1511,)
    assert nlp.objective(z0) == 189.3482340025788
    assert hashlib.sha256(z0.tobytes()).hexdigest() == (
        "5261c91cd9bdefec0bea64f4cc32454c2dd517429946591cf48e4a0d6e89c323")


def test_mission_nlp_at_the_guess_is_pinned_bit_for_bit(guess_setup):
    # the names, bounds, values and Jacobian at the guess must not move a
    # bit; recorded since boost1 starts where the tower clearance puts it
    # (from sha256 6f05a50c...): boost1's start time, speed and mass pins
    # and mass box, and boost2's and boost3's mass pins moved, every other
    # bound kept its bits, and the values at the guess moved with it.
    # Re-pinned since the defect rows read D X as a sparse product (from
    # sha256 0d3dbcde...): 985 of the 1160 defect values moved, by at most
    # 3.7e-11; every other row, the objective, the gradient and the
    # Jacobian kept their bits.  Re-pinned since the trial ascents hold
    # the bank and the entry's release latches (from sha256 d9535627...):
    # the names and bounds kept their bits, the values at the guess moved
    # with it
    nlp, z0 = guess_setup
    J = nlp.jacobian(z0)
    assert (nlp.n_var, nlp.n_con, J.nnz) == (1511, 1342, 22492)
    h = hashlib.sha256("\n".join(nlp.var_names + nlp.con_names).encode())
    for a in (nlp.z_lo, nlp.z_hi, nlp.c_lo, nlp.c_hi,
              np.float64(nlp.objective(z0)), nlp.constraints(z0),
              nlp.objective_gradient(z0), J.indptr, J.indices, J.data):
        h.update(np.ascontiguousarray(a).tobytes())
    assert h.hexdigest() == (
        "eed7d39fd135be56560b694b24d0f3edfd51fa8cd4f6951f0da0cd61f1718405")


def test_guess_flies_its_trial_kicks_to_apogee_and_the_root_in_full(
        guess_setup, guess_flights):
    # every kick the calibration tries flies boost1 to coast_up's apogee at
    # the loose tolerance, and no trial coasts down; then the root's ascent
    # alone flies at the tight one, coasts down once, and the entry follows
    ascents, flown = guess_flights["ascents"], guess_flights["flown"]
    trials = ascents[:-1]
    assert len(guess_flights["brentq"]) >= 3
    assert [tol for _, tol, _ in ascents] == (
        [M.CALIBRATION_TOL] * len(trials) + [M.ASCENT_TOL])
    assert ascents[-1][0] == guess_flights["root"]
    assert set(guess_flights["brentq"]) <= {kick for kick, _, _ in trials}
    # each kick tried flies once, brentq's bracket ends too
    assert len({kick for kick, _, _ in trials}) == len(trials)
    up = ["boost1", "boost2", "boost3", "exo_burn", "coast_up"]
    n = 5 * len(trials)
    assert flown[:n] == [(p, M.CALIBRATION_TOL) for _ in trials for p in up]
    assert flown[n:n + 6] == [(p, M.ASCENT_TOL) for p in up + ["coast_down"]]
    assert {p for p, _ in flown[n + 6:]} == {"entry_glide"}
    # the root's arc carries its down-coast, appended after its ascent
    assert [len(arc["flights"]) for _, _, arc in ascents] == (
        [5] * len(trials) + [6])
    for _, _, arc in ascents:
        coast = arc["flights"][4]
        assert coast.status == 1
        if coast.t_events[0].size:
            assert coast.y[Geo.GAMMA, -1] == pytest.approx(0.0, abs=1e-9)
            assert arc["apogee"] == coast.y[Geo.H, -1]
    # the kicks near the root top out; only an over-kicked bracket end may not
    assert sum(arc["flights"][4].t_events[0].size
               for _, _, arc in ascents) >= len(ascents) - 2
    # the bracket is 12 and 18 deg; brentq needs six more trials
    assert len(trials) == 8
    assert [kick for kick, _, _ in trials[:2]] == [12.0 * M.DEG,
                                                  18.0 * M.DEG]
    # every trial flies at zero incidence and holds the bank boost1 hands
    # over; the kept ascent slews it to 0 by burnout
    for kick, tol, arc in ascents:
        boost1, *upper, coast = arc["flights"][:5]
        assert np.all(boost1.y[Vert.ALPHA] == 0.0)
        assert all(np.all(f.y[Geo.ALPHA] == 0.0) for f in upper + [coast])
        sigma = upper[0].y[Geo.SIGMA, 0]
        assert 0.0 < abs(sigma) < 1e-2
        if tol == M.CALIBRATION_TOL:
            assert all(np.all(f.y[Geo.SIGMA] == sigma) for f in upper)
            assert all(np.all(f.controls(f.t) == 0.0) for f in upper)
        else:
            assert abs(upper[-1].y[Geo.SIGMA, -1]) < 1e-4


def test_guess_node_evaluations_are_pinned(guess_setup, guess_flights):
    # the sum of solve_ivp's nfev over the guess's flights, the count the
    # benchmark's guess_node_evaluations reports: 5,887 before the trials
    # held the bank (boost2 and boost3 took 86-92 evaluations per trial,
    # now about 37 on average), the bracket started at 12 deg (10 trials, now 8) and the
    # entry's release latched (2,385 evaluations, now 1,526)
    flown, nfev = guess_flights["flown"], guess_flights["nfev"]
    assert sum(nfev) == 3538
    assert sum(n for (p, _), n in zip(flown, nfev)
               if p == "entry_glide") == 1526


def test_trial_ascent_holds_the_bank_and_keeps_the_slewed_apogee(
        cfg, monkeypatch):
    # at zero incidence the bank turns no force, so the held bank reaches
    # the slewed bank's apogee within the trial tolerance's scale: they
    # differ by 6.7 m at a kick near the root, where the trial tolerance
    # itself moves the apogee by 28 m against the kept ascent's
    phases = M.build_mission(cfg).phases
    psi0 = M._bearing(cfg.bc.lon0, cfg.bc.lat0, cfg.bc.lonf, cfg.bc.latf)
    kick = 15.39 * M.DEG
    held = M._propagate_ascent(cfg, phases, kick, psi0, M.CALIBRATION_TOL)
    with monkeypatch.context() as mp:
        # the kept ascent's bank law, at the trial tolerance
        mp.setattr(M, "ASCENT_TOL", M.CALIBRATION_TOL)
        slewed = M._propagate_ascent(cfg, phases, kick, psi0,
                                     M.CALIBRATION_TOL)
    for arc in (held, slewed):
        boost1, *rest = arc["flights"]
        assert np.all(boost1.y[Vert.ALPHA] == 0.0)
        assert all(np.all(f.y[Geo.ALPHA] == 0.0) for f in rest)
    assert abs(slewed["flights"][3].y[Geo.SIGMA, -1]) < 1e-4
    assert held["apogee"] == pytest.approx(slewed["apogee"],
                                           rel=10 * M.CALIBRATION_TOL)
    # the held bank spares the upper stages' steps
    assert (sum(f.nfev for f in held["flights"][1:4])
            < sum(f.nfev for f in slewed["flights"][1:4]) / 2)


def test_guess_ascent_tops_out_near_the_target_apogee(cfg, guess_setup,
                                                      guess_flights):
    # the trial flights' loose tolerance moves the root's apogee, flown at
    # the tight one, by tens of meters only
    kick, tol, arc = guess_flights["ascents"][-1]
    assert tol == M.ASCENT_TOL
    assert arc["apogee"] == pytest.approx(cfg.guess_apogee, abs=1.0)


def test_calibrate_kick_returns_the_roots_arc(cfg, monkeypatch):
    # stand-in ascents whose apogee falls linearly with the kick, through
    # the target at `root` rad and through 0 km at `ground`: the bracket
    # starts at 12 deg and walks outward, up to 18 deg for a root above
    # 12 deg and down to 0.2 deg for one below it; each kick tried flies at
    # the calibration tolerance, the root alone at the guess's, and it
    # alone coasts down; the floor keeps the log miss of a trial at or
    # below 0 km finite and negative
    ascents, downs, misses, brackets = [], [], [], []
    line = {}

    def ascent(config, phases, kick, psi0, tol):
        ascents.append((kick, tol))
        coast = SimpleNamespace(t=np.array([0.0, 1.0]), y=np.zeros((8, 2)),
                                t_events=[np.array([1.0]), np.array([])])
        return {"kick": kick, "tol": tol, "flights": [coast],
                "apogee": config.guess_apogee * (line["ground"] - kick)
                / (line["ground"] - line["root"])}

    def coast_down(phase, x0, t0, tf, law, events, **opts):
        downs.append(SimpleNamespace(t_events=[np.array([t0 + 1.0])],
                                     rtol=opts["rtol"]))
        return downs[-1]

    brentq = M.brentq

    def recorded(f, a, b, **kwargs):
        brackets.append((a, b))

        def g(kick):
            misses.append((kick, f(kick)))
            return misses[-1][1]
        return brentq(g, a, b, **kwargs)

    def calibrated(root, ground):
        for seen in (ascents, downs, misses, brackets):
            seen.clear()
        line.update(root=root, ground=ground)
        return M.calibrate_kick(cfg, phases=[None] * 6, psi0=0.0)

    monkeypatch.setattr(M, "_propagate_ascent", ascent)
    monkeypatch.setattr(M, "fly", coast_down)
    monkeypatch.setattr(M, "brentq", recorded)
    least, twelve, eighteen = 0.2 * M.DEG, 12.0 * M.DEG, 18.0 * M.DEG
    for root, ground, bracket in [(0.09, 0.15, (least, twelve)),
                                  (0.29, 0.30, (twelve, eighteen))]:
        kick, arc = calibrated(root, ground)
        assert kick == pytest.approx(root, abs=1e-5)
        # brentq gets the last two kicks flown; 0.2 deg flies only when
        # 12 deg under-lofts
        trials = [k for k, _ in ascents[:-1]]
        assert trials[:2] == [twelve, least if root < twelve else eighteen]
        assert brackets == [bracket]
        assert (least in trials) == (root < twelve)
        assert ascents[-1] == (kick, M.ASCENT_TOL)
        assert all(tol == M.CALIBRATION_TOL for _, tol in ascents[:-1])
        assert (arc["kick"], arc["tol"]) == (kick, M.ASCENT_TOL)
        assert arc["flights"][-1] is downs[0] and len(downs) == 1
        assert downs[0].rtol == M.ASCENT_TOL
        grounded = [m for k, m in misses if k >= ground]
        assert grounded and all(math.isfinite(m) and m < 0.0
                                for m in grounded)
        # brentq looks at its bracket ends again, after the bracket search
        # has flown them: the misses flown answer, so no (kick, tol) pair
        # flies twice
        assert len(set(ascents)) == len(ascents)

    # a root moved off every kick tried is the one flown in full
    monkeypatch.setattr(M, "brentq", lambda *a, **k: recorded(*a, **k) + 1e-7)
    moved, arc = calibrated(0.29, 0.30)
    assert moved == kick + 1e-7 and ascents[-1] == (moved, M.ASCENT_TOL)
    assert (arc["kick"], arc["tol"]) == (moved, M.ASCENT_TOL)

    # no root: every kick under-lofts, down to 0.2 deg, or every kick up to
    # 40.5 deg over-lofts
    with pytest.raises(RuntimeError,
                       match="even a minimal pitch kick under-lofts the arc"):
        calibrated(0.001, 0.002)
    assert [k for k, _ in ascents] == [twelve, least]
    with pytest.raises(RuntimeError, match="pitch kick calibration failed "
                                           "to bracket the apogee"):
        calibrated(1.0, 2.0)
    assert [k for k, _ in ascents] == pytest.approx(
        [twelve, eighteen, 27.0 * M.DEG, 40.5 * M.DEG], rel=1e-15)
    assert downs == []


@pytest.mark.parametrize("kick_deg, flown", [(27.0, 2), (40.5, 1)])
def test_over_kicked_trial_ascent_ends_at_the_ground(cfg, kick_deg, flown):
    # a trial past the bracket's 18 deg end noses into the ground under
    # power; its flights end there, and it reads no apogee above the ground
    # (the coast that followed used to fall toward Earth's centre and read
    # one of 188 km at 27 deg, above the target)
    phases = M.build_mission(cfg).phases
    psi0 = M._bearing(cfg.bc.lon0, cfg.bc.lat0, cfg.bc.lonf, cfg.bc.latf)
    arc = M._propagate_ascent(cfg, phases, kick_deg * M.DEG, psi0,
                              M.CALIBRATION_TOL)
    assert arc["apogee"] <= 0.0
    assert len(arc["flights"]) == flown
    last = arc["flights"][-1]
    assert last.t_events[0].size == 1
    assert last.y[Geo.H, -1] == pytest.approx(0.0, abs=1e-9)


def test_entry_flight_ends_at_its_ground_event(cfg):
    # the entry is flown to its terminal ground event, 20 m up, and its
    # unclipped final state sits there; the fixed-step loop it replaced
    # stepped 515 m below the ground, which the clip to the box then hid
    phases = M.build_mission(cfg).phases
    _, arc = M.calibrate_kick(cfg, phases)
    pierce = arc["flights"][5]
    flown, t_split, t_end = M._entry_profile(
        cfg, M.phase_contexts(cfg)[6], phases[6], pierce.y[:, -1],
        pierce.t[-1])
    states, _ = flown(np.array([pierce.t[-1], t_split, t_end]))
    assert states[-1, Geo.H] == pytest.approx(0.02, abs=1e-9)
    assert states[-1, Geo.V] > 0.65
    assert states[0, Geo.H] == pytest.approx(cfg.limits.h_atm)
    assert pierce.t[-1] < t_split < t_end


def test_entry_release_latches_once_the_speed_is_spent(cfg, guess_setup,
                                                       guess_flights):
    # from the first time v reaches 1.35 km/s, the entry commands zero
    # incidence and zero bank to the end: the release used to be a state
    # rule, switching back to steering at every crossing, so the flight
    # slid along 1.35 km/s for about 60 s before it fell
    t_pierce, (flown, _, t_end) = guess_flights["entry"]
    states, controls = flown(np.linspace(t_pierce, t_end, 20001))
    spent = int(np.argmax(states[:, Geo.V] <= 1.35))
    assert spent > 0 and states[spent, Geo.V] <= 1.35
    y, u = states[spent:], controls[spent:]
    cw = cfg.cost
    assert np.array_equal(u[:, 0], np.clip(-y[:, Geo.ALPHA] / 1.5,
                                           -cw.u_alpha_max, cw.u_alpha_max))
    bank = np.array([M._wrap_pi(-s) for s in y[:, Geo.SIGMA]]) / 2.0
    assert np.array_equal(u[:, 1], np.clip(bank, -cw.u_sigma_max,
                                           cw.u_sigma_max))


def test_trajectory_table_and_csv(cfg, guess_setup, tmp_path):
    nlp, z0 = guess_setup
    sol = nlp.solution_from(z0)
    table = M.trajectory_table(cfg, sol)
    assert table.shape[1] == len(M.TRAJECTORY_COLUMNS)
    t = table[:, 0]
    assert np.all(np.diff(t) >= -1e-9)
    assert t[0] == M.tower_clear_propagate(cfg).time
    assert np.all(table[:, 9] > 0.0)          # mass column
    assert np.all(table[:, 10] >= 0.0)        # dynamic pressure
    assert np.all(np.diff(table[:, 13]) >= -1e-9)   # heat load accumulates
    path = tmp_path / "traj.csv"
    cli.write_csv(path, M.TRAJECTORY_COLUMNS, table)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(M.TRAJECTORY_COLUMNS)
    assert len(lines) == len(table) + 1


def _report_with(sol, mesh_met, solve_status):
    last = nlpsolve.SolveReport(status=solve_status, iterations=1,
                                objective=1.0, violation=0.0, x=np.zeros(0))
    return RefinementReport(converged=mesh_met and last.converged,
                            iterations=1, errors=[], solution=sol,
                            solve_reports=[last])


def test_summarize_run(cfg, guess_setup):
    nlp, z0 = guess_setup
    sol = nlp.solution_from(z0)
    res = M.summarize_run(cfg, _report_with(sol, True, "converged"))
    assert res.converged
    assert res.qdot_max == cfg.limits.qdot_max
    assert res.peak_altitude == pytest.approx(cfg.guess_apogee, abs=15.0)
    assert 6.0 < res.pierce_speed < 8.0
    assert res.pierce_fpa_deg < 0.0
    assert res.entry_duration > 300.0
    assert res.heat_load > 0.0 and res.max_qdot > 0.0

    # the row's status is the run's verdict, not the last solve's
    out = M.summarize_run(cfg, _report_with(sol, False, "converged"))
    assert out.status == "max_refinements" and not out.converged
    assert out.peak_altitude == res.peak_altitude


def test_solve_mission_runs_cold_then_warm_from_its_own_solution(
        cfg, monkeypatch):
    # capped at one SQP iteration and one refinement round: cold from the
    # built-in guess, the solve is the capped iteration pinned above
    # (re-pinned with it, from objective 194.71126037671993, violation
    # 53.98086604961118, since the trial ascents hold the bank and the
    # entry's release latches; from objective 188.6961239633872, violation
    # 53.98153571885008, since the scaled Jacobian's rows sum in ascending
    # column order)
    one = replace(cfg, solver_max_iterations=1, max_refinements=1)
    cold = M.solve_mission(one)
    assert cold.status == "max_iterations" and cold.iterations == 1
    assert cold.last_solve.objective == 188.69612396338718
    assert cold.last_solve.violation == 53.98153571885017

    def no_guess(config, nlp):
        raise AssertionError("a warm start flies no guess")

    monkeypatch.setattr(M, "initial_guess", no_guess)
    warm = M.solve_mission(one, warm=cold.solution)
    assert warm.status == "max_iterations" and warm.iterations == 1
    assert len(warm.solve_reports) == 1
    assert warm.last_solve.violation < cold.last_solve.violation
    for report in (cold, warm):
        for ph, (n, d) in zip(report.solution.phases, cfg.mesh):
            assert ph.mesh.degrees.tolist() == [d] * n


def test_solve_mission_validates_its_config_once(cfg, monkeypatch):
    # build_mission validates, and solve_mission adds no check of its own:
    # each validation solves the tower clearance again
    validated = []
    validate = M.MissionConfig.validate

    def counted(config):
        validated.append(config)
        validate(config)

    monkeypatch.setattr(M.MissionConfig, "validate", counted)
    monkeypatch.setattr(M, "refine_loop", lambda problem, *args: problem)
    problem = M.solve_mission(cfg)
    assert len(validated) == 1 and validated[0] is cfg
    assert len(problem.phases) == 8


def _study_with(monkeypatch, cfg, failing):
    """run_study over two branches of three cells, with stub solves that
    converge for heat loads of 10 and more and end as `failing` below;
    returns the solves' (qdot_max, q_heat_max, warm start), the rows and
    the rows handed to progress."""
    calls = []

    def fake_solve(c, *, warm=None):
        calls.append((c.limits.qdot_max, c.limits.q_heat_max, warm))
        if c.limits.q_heat_max >= 10.0:
            return _report_with("marker", True, "converged")
        return _report_with(None, **failing)

    def fake_summary(c, report):
        lm = c.limits
        return M.StudyResult(lm.qdot_max, lm.q_heat_max, 1.0, 115.0, 7.3,
                             -3.0, 1800.0, 4000.0, 8.0, report.status)

    monkeypatch.setattr(M, "solve_mission", fake_solve)
    monkeypatch.setattr(M, "summarize_run", fake_summary)
    seen = []
    results = M.run_study(cfg, {"qdot_max": [3.0, 2.0],
                                "q_heat_max": [20.0, 5.0, 1.0]},
                          progress=seen.append)
    return calls, results, seen


def test_run_study_branch_semantics(cfg, monkeypatch):
    calls, results, seen = _study_with(
        monkeypatch, cfg, {"mesh_met": True, "solve_status": "infeasible"})
    # each heating branch stops at its first failure; 1.0 is never tried
    assert [(c[0], c[1]) for c in calls] == [(3.0, 20.0), (3.0, 5.0),
                                             (2.0, 20.0), (2.0, 5.0)]
    assert [c[2] for c in calls] == [None, "marker", None, "marker"]
    assert [r.status for r in results] == ["converged", "infeasible"] * 2
    assert len(seen) == 4

    with pytest.raises(M.ConfigError):
        M.run_study(cfg, {})


def test_run_study_stops_a_branch_whose_mesh_misses_tolerance(cfg,
                                                              monkeypatch):
    # the last solve converged, but the refinement rounds ran out
    calls, results, _ = _study_with(
        monkeypatch, cfg, {"mesh_met": False, "solve_status": "converged"})
    assert [(c[0], c[1]) for c in calls] == [(3.0, 20.0), (3.0, 5.0),
                                             (2.0, 20.0), (2.0, 5.0)]
    assert [r.status for r in results] == ["converged",
                                           "max_refinements"] * 2


def test_study_to_csv(tmp_path):
    rows = [M.StudyResult(math.inf, math.inf, 114.2, 115.0, 7.3, -3.1,
                          1800.0, 3996.5, 8.3, "converged"),
            M.StudyResult(2.0, 500.0, float("nan"), float("nan"),
                          float("nan"), float("nan"), float("nan"),
                          float("nan"), float("nan"), "infeasible")]
    path = tmp_path / "study.csv"
    cli.write_csv(path, M.STUDY_COLUMNS, (astuple(r) for r in rows))
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(M.STUDY_COLUMNS)
    first = lines[1].split(",")
    assert first[0] == "inf" and first[-1] == "converged"
    assert lines[2].split(",")[-1] == "infeasible"


def test_csv_text_is_pinned(tmp_path):
    rows = [M.StudyResult(math.inf, 2.5, 114.2, 1.0 / 3.0, 7.3, -2.5e-7,
                          123456789012.0, 0.0, 8.3, "converged"),
            M.StudyResult(2.0, 500.0, float("nan"), 1e-300, -0.0, 1e21,
                          42.0, 3.0, 0.1 + 0.2, "infeasible")]
    path = tmp_path / "study.csv"
    cli.write_csv(path, M.STUDY_COLUMNS, (astuple(r) for r in rows))
    assert path.read_text() == (
        ",".join(M.STUDY_COLUMNS) + "\n"
        "inf,2.5,114.2,0.3333333333,7.3,-2.5e-07,1.23456789e+11,0,8.3,"
        "converged\n"
        "2,500,nan,1e-300,-0,1e+21,42,3,0.3,infeasible\n")
    table = np.zeros((2, len(M.TRAJECTORY_COLUMNS)))
    table[0, :3] = [0.0, 1.5, -3.0e-12]
    table[1, :3] = [2.0, np.pi, 1.0e10]
    path = tmp_path / "traj.csv"
    cli.write_csv(path, M.TRAJECTORY_COLUMNS, table)
    zeros = "," + ",".join(["0"] * (len(M.TRAJECTORY_COLUMNS) - 3))
    assert path.read_text() == (",".join(M.TRAJECTORY_COLUMNS) + "\n"
                                "0,1.5,-3e-12" + zeros + "\n"
                                "2,3.141592654,1e+10" + zeros + "\n")
