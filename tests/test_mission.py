import hashlib
import json
import math
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest

from ascentry import cli
from ascentry import mission as M
from ascentry import nlpsolve
from ascentry.dynamics import Geo, geo_from_vert, vert_from_geo
from ascentry.meshref import RefinementReport
from ascentry.transcription import transcribe


@pytest.fixture(scope="module")
def cfg():
    return M.default_config()


@pytest.fixture(scope="module")
def guess_propagations():
    """Every kick the shared guess propagated an ascent from, in order,
    and every kick the calibration's root finder evaluated."""
    return {"propagated": [], "brentq": []}


@pytest.fixture(scope="module")
def guess_setup(cfg, guess_propagations):
    """One transcription plus calibrated guess, shared across tests."""
    nlp = transcribe(M.build_mission(cfg), M.default_meshes(cfg))
    propagate, brentq = M._propagate_ascent, M.brentq

    def propagated(config, ctx, kick, psi0):
        guess_propagations["propagated"].append(kick)
        return propagate(config, ctx, kick, psi0)

    def counted_brentq(f, *args, **kwargs):
        def g(kick):
            guess_propagations["brentq"].append(kick)
            return f(kick)
        return brentq(g, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(M, "_propagate_ascent", propagated)
        mp.setattr(M, "brentq", counted_brentq)
        z0 = M.initial_guess(cfg, nlp)
    return nlp, z0


def test_mass_ledger(cfg):
    assert cfg.ignition_mass == pytest.approx(87770.0)
    assert cfg.m_s2 == pytest.approx(38780.0)
    assert cfg.m_s3 == pytest.approx(11110.0)
    assert cfg.coast_mass == pytest.approx(3630.0)
    assert cfg.bc.m0 == 85743.0
    # the liftoff mass is the ignition stack less the pre-release burn
    burn = cfg.stages[0].mass_rate(cfg.earth.g0) * cfg.bc.t0
    assert cfg.ignition_mass - burn == pytest.approx(cfg.bc.m0, abs=1.0)


def test_stage_mass_rates(cfg):
    g0 = cfg.earth.g0
    s1, s2, s3 = cfg.stages
    assert s1.mass_rate(g0) == pytest.approx(s1.thrust / (s1.isp * g0),
                                             rel=1e-14)
    assert s2.mass_rate(g0) == pytest.approx(403.56338, abs=1e-4)
    # fuel loads match the fixed burn windows
    for s in (s1, s2, s3):
        assert s.mass_rate(g0) * s.burn_time == pytest.approx(s.fuel_mass,
                                                              rel=0.01)


def test_stage_rejects_nonpositive_fields():
    with pytest.raises(M.ConfigError):
        M.VehicleStage("bad", 10.0, 100.0, -1.0, 4.3, 300.0, 1000.0)


@pytest.mark.parametrize("mutate", [
    lambda c: replace(c, stages=c.stages[:2]),
    # a longer second-stage burn, fuel matched, separates after the fairing
    lambda c: replace(c, stages=(c.stages[0],
                                 replace(c.stages[1], burn_time=125.0,
                                         fuel_mass=50445.0),
                                 c.stages[2])),
    lambda c: replace(c, limits=replace(c.limits, q_split=200.0)),
    lambda c: replace(c, limits=replace(c.limits, h_peak_lo=10.0)),
    lambda c: replace(c, entry_mass=5000.0),
    lambda c: replace(c, bc=replace(c.bc, m0=1.0e6)),
    lambda c: replace(c, mesh=c.mesh[:5]),
    lambda c: replace(c, guess_apogee=50.0),
    lambda c: replace(c, solver_tolerance=-1.0),
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
    s1 = cfg.stages[0]
    weak = replace(cfg, stages=(M.VehicleStage(
        s1.name, s1.burn_time, s1.empty_mass, s1.fuel_mass, s1.ref_area,
        s1.isp, 100.0),) + cfg.stages[1:])
    with pytest.raises(M.ConfigError):
        M.tower_clear_propagate(weak)


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
    assert over.bc.m0 == cfg.bc.m0
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
    assert dims == [(10, 4), (9, 2), (9, 2), (9, 2), (8, 2), (8, 2),
                    (8, 2), (9, 4)]
    hops = [(lk.name, lk.a, lk.b) for lk in prob.linkages]
    assert hops == [("stage1_sep", 0, 1), ("stage2_sep", 1, 2),
                    ("fairing_drop", 2, 3), ("burnout", 3, 4),
                    ("payload_sep", 4, 5), ("pierce", 5, 6),
                    ("bank_to_vertical", 6, 7)]
    assert [b.name for b in prob.boundaries] == ["dive_unit_quat"]
    acc = prob.accumulators[0]
    assert acc.name == "heat_load" and acc.lo == 0.0
    assert acc.hi == cfg.limits.q_heat_max


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
    assert z0[m0_idx] == pytest.approx(cfg.bc.m0)
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
    assert J.nnz == 23612
    assert np.array_equal(J.row, rows) and np.array_equal(J.col, cols)


def test_guess_node_probe_equals_the_per_column_loop(guess_setup,
                                                    assert_probe_matches_loop):
    nlp, z0 = guess_setup
    assert_probe_matches_loop(nlp, z0)
    scale = np.maximum(1.0, np.abs(z0))
    rng = np.random.default_rng(2104)
    assert_probe_matches_loop(nlp, nlp.clip_to_bounds(
        z0 + 1e-3 * scale * rng.standard_normal(nlp.n_var)))


def _smooth_directions(cfg, nlp, z0):
    """(scale, mask) of the guess's variables that directions may move:
    none near a bound, and no incidence state near its aero table's edge,
    where the tables clamp incidence, so the constraints have a kink and no
    difference quotient is a derivative (the guess starts the entry glide at
    0 deg, the entry table's first row)."""
    scale = np.maximum(1.0, np.abs(z0))
    margin = 1e-4 * scale
    free = (z0 - nlp.z_lo > margin) & (nlp.z_hi - z0 > margin)
    for p, ctx in enumerate(M.phase_contexts(cfg)):
        if ctx.aero is None:
            continue
        idx = [i for i, name in enumerate(nlp.var_names)
               if name.startswith(f"p{p}:") and ":x:alpha:" in name]
        for edge in np.radians(ctx.aero.alpha_deg[[0, -1]]):
            free[idx] &= np.abs(z0[idx] - edge) > margin[idx]
    return scale, free


def test_guess_derivatives_match_directional_differences(cfg, guess_setup):
    """jacobian @ v and gradient . v against central differences of the
    constraints and the objective, along seeded directions that hold fixed
    every variable near a bound or a table edge."""
    nlp, z0 = guess_setup
    J = nlp.jacobian(z0)
    g = nlp.objective_gradient(z0)
    scale, free = _smooth_directions(cfg, nlp, z0)
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


def test_guess_hessian_matches_differences_of_the_lagrangian_gradient(
        cfg, guess_setup):
    """hessian @ v at the guess, with seeded multipliers on every row,
    against central differences of the Lagrangian gradient along directions
    that hold fixed every variable near a bound or a table edge.  The aero
    tables are C1 piecewise cubics, so second differences that straddle a
    table knot disagree by a few percent on a few rows; the whole vector
    agrees to 1e-4."""
    nlp, z0 = guess_setup
    scale, free = _smooth_directions(cfg, nlp, z0)
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
    # since each subproblem's factors share one minimum-degree order
    nlp, z0 = guess_setup
    rep = nlpsolve.solve(nlp, z0, nlpsolve.SolverOptions(
        tolerance=cfg.solver_tolerance, max_iterations=1))
    assert rep.status == "max_iterations" and rep.iterations == 1
    assert rep.objective == 186.90341317858363
    assert rep.violation == 46.74744402538796
    assert rep.message == ""


def test_four_capped_sqp_iterations_from_the_guess(cfg, guess_setup):
    # from the second iteration on the multipliers are nonzero, so every
    # node and endpoint block of the Hessian runs; the iterate must not move
    # a bit.  Recorded since each subproblem's factors share one
    # minimum-degree order, which moved x by up to 1.9e-12 relative
    nlp, z0 = guess_setup
    rep = nlpsolve.solve(nlp, z0, nlpsolve.SolverOptions(
        tolerance=cfg.solver_tolerance, max_iterations=4))
    assert rep.status == "max_iterations" and rep.iterations == 4
    assert rep.objective == 182.79174378610924
    assert rep.violation == 27.233917965136314
    assert hashlib.sha256(rep.x.tobytes()).hexdigest() == (
        "ec6e666a1921cb1d2eb540ad5149ffe7bf39585676ad2a7f1481b06274ad3e02")


def test_mission_hessian_at_the_guess_is_pinned_bit_for_bit(guess_setup):
    # seeded multipliers on every row, recorded while each path row,
    # integrand and endpoint point had a callback call of its own
    nlp, z0 = guess_setup
    y = np.random.default_rng(2104).standard_normal(nlp.n_con)
    H = nlp.hessian(z0, y)
    digests = [hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
               for a in (H.data, H.indices, H.indptr)]
    assert digests == [
        "ff66ba1cbf6e01a0e5fb7b7d608d506995a2bd9265cfd3d3d8578c56641c544f",
        "00cce37417097d00cd8fc3614c469221bc33171be82ccfaa46abc267e44e1838",
        "b75036e4d20c34ff7296ca1b74d58b451d8b58302570225257c299b0742468e8"]


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
        if inside and not kwargs:
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


def test_capped_iteration_orders_its_subproblem_once(cfg, guess_setup,
                                                     monkeypatch):
    # K keeps its pattern through the subproblem: its first factor makes
    # the one minimum-degree order, every later one reuses it
    nlp, z0 = guess_setup
    real_qp, real_splu = nlpsolve._elastic_qp, nlpsolve.spla.splu
    inside, orders, solves = [], [], []

    def marked(*args):
        inside.append(True)
        try:
            solves.append(real_qp(*args))
        finally:
            inside.pop()
        return solves[-1]

    def recorded_splu(A, **kwargs):
        if inside:
            orders.append(kwargs.get("permc_spec"))
        return real_splu(A, **kwargs)

    monkeypatch.setattr(nlpsolve, "_elastic_qp", marked)
    monkeypatch.setattr(nlpsolve.spla, "splu", recorded_splu)
    nlpsolve.solve(nlp, z0, nlpsolve.SolverOptions(
        tolerance=cfg.solver_tolerance, max_iterations=1))
    [qp] = solves
    assert orders == ["MMD_AT_PLUS_A"] + ["NATURAL"] * (qp.iterations - 1)


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
    # recorded before the atmosphere and aero lookups were paired: one
    # lookup per state must not move a bit of the guess
    nlp, z0 = guess_setup
    assert z0.dtype == np.float64 and z0.shape == (1607,)
    assert nlp.objective(z0) == 194.21456302853537
    assert hashlib.sha256(z0.tobytes()).hexdigest() == (
        "9598515135607c01c404e5bce331b104466bd712188b66c3c3d7585642006348")


def test_mission_nlp_at_the_guess_is_pinned_bit_for_bit(guess_setup):
    # recorded before each axis of the NLP was declared in one pass: the
    # names, bounds, values and Jacobian at the guess must not move a bit
    nlp, z0 = guess_setup
    J = nlp.jacobian(z0)
    assert (nlp.n_var, nlp.n_con, J.nnz) == (1607, 1342, 23612)
    h = hashlib.sha256("\n".join(nlp.var_names + nlp.con_names).encode())
    for a in (nlp.z_lo, nlp.z_hi, nlp.c_lo, nlp.c_hi,
              np.float64(nlp.objective(z0)), nlp.constraints(z0),
              nlp.objective_gradient(z0), J.indptr, J.indices, J.data):
        h.update(np.ascontiguousarray(a).tobytes())
    assert h.hexdigest() == (
        "7441d21aab8d218b03b1270767a96d450abac3bed577e902ad582e2b09d6eac5")


def test_guess_propagates_each_calibrated_kick_once(guess_setup,
                                                    guess_propagations):
    # brentq evaluates the bracket ends again and returns one of the kicks
    # it evaluated; neither those nor the guess's own ascent, from the
    # root, propagate a kick a second time
    kicks, evaluated = (guess_propagations["propagated"],
                        guess_propagations["brentq"])
    assert len(evaluated) >= 3
    assert len(kicks) == len(set(kicks))
    assert set(evaluated) <= set(kicks)


def test_calibrate_kick_returns_the_roots_arc(cfg, monkeypatch):
    # a stand-in ascent whose apogee falls with the kick; a root moved off
    # every kick brentq evaluated is propagated once more, not looked up
    propagated = []

    def ascent(config, ctx, kick, psi0):
        propagated.append(kick)
        return {"kick": kick,
                "apogee": config.guess_apogee - 40.0 * math.tan(kick - 0.09)}

    brentq = M.brentq
    monkeypatch.setattr(M, "_propagate_ascent", ascent)
    kick, arc = M.calibrate_kick(cfg, ctx=[None], psi0=0.0)
    assert arc["kick"] == kick and kick in propagated
    assert len(propagated) == len(set(propagated)) >= 5
    n = len(propagated)

    propagated.clear()
    monkeypatch.setattr(M, "brentq", lambda *a, **k: brentq(*a, **k) + 1e-7)
    moved, arc = M.calibrate_kick(cfg, ctx=[None], psi0=0.0)
    assert moved == kick + 1e-7 and arc["kick"] == moved
    assert propagated == sorted(set(propagated), key=propagated.index)
    assert len(propagated) == n + 1 and propagated[-1] == moved


def test_trajectory_table_and_csv(cfg, guess_setup, tmp_path):
    nlp, z0 = guess_setup
    sol = nlp.solution_from(z0)
    table = M.trajectory_table(cfg, sol)
    assert table.shape[1] == len(M.TRAJECTORY_COLUMNS)
    t = table[:, 0]
    assert np.all(np.diff(t) >= -1e-9)
    assert t[0] == pytest.approx(cfg.bc.t0)
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
