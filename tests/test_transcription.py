import gc
import json
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ascentry.canonical import CANONICAL_PROBLEMS, straight_line_guess
from ascentry.lgr import lgr_rule
from ascentry.transcription import (Accumulator, BoundaryConstraint,
                                    EvaluationError, IntegralTerm, Linkage,
                                    MeshPhase, MultiPhaseProblem, NLPProblem,
                                    PathConstraint, PhaseDef, transcribe,
                                    uniform_mesh)


def _double_integrator(tf_lo=2.0, tf_hi=2.0, **kw):
    """x'' = u on t in [0, tf]."""
    return PhaseDef(
        "cart", 2, 1,
        lambda X, U: np.column_stack([X[:, 1], U[:, 0]]),
        x_lo=[-50.0, -50.0], x_hi=[50.0, 50.0],
        u_lo=[-10.0], u_hi=[10.0],
        t0_lo=0.0, t0_hi=0.0, tf_lo=tf_lo, tf_hi=tf_hi, **kw)


def test_mesh_validation():
    with pytest.raises(ValueError):
        MeshPhase([0.5, 0.6], [3, 3])        # fractions exceed 1
    with pytest.raises(ValueError):
        MeshPhase([0.5, 0.5], [3])           # length mismatch
    with pytest.raises(ValueError):
        MeshPhase([1.0], [0])                # degree < 1
    m = uniform_mesh(4, 3)
    assert m.n_intervals == 4 and m.n_coll == 12


def test_phase_bound_dimension_check():
    with pytest.raises(ValueError):
        PhaseDef("bad", 2, 1, lambda X, U: X,
                 x_lo=[0.0], x_hi=[1.0], u_lo=[0.0], u_hi=[1.0],
                 t0_lo=0.0, t0_hi=0.0, tf_lo=1.0, tf_hi=1.0)


def test_problem_rejects_unknown_accumulator():
    ph = _double_integrator(
        integrands=[IntegralTerm("missing", lambda X, U: U[:, 0])])
    with pytest.raises(ValueError):
        MultiPhaseProblem([ph])


def test_problem_rejects_dangling_linkage():
    ph = _double_integrator()
    link = Linkage("next", 0, 3, lambda xa, ta, xb, tb: xa - xb,
                   np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        MultiPhaseProblem([ph], linkages=[link])


def test_problem_rejects_duplicate_accumulator():
    ph = _double_integrator(
        integrands=[IntegralTerm("effort", lambda X, U: U[:, 0])])
    with pytest.raises(ValueError, match="unique"):
        MultiPhaseProblem([ph], accumulators=[Accumulator("effort", 0.0, 1.0),
                                              Accumulator("effort", 0.0, 2.0)])


@pytest.mark.parametrize("phase", [-1, 1])
def test_problem_rejects_boundary_on_invalid_phase(phase):
    bc = BoundaryConstraint("start", phase, lambda x0, xf, t0, tf: x0,
                            np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError, match="boundary start"):
        MultiPhaseProblem([_double_integrator()], boundaries=[bc])


def test_variable_layout_counts():
    mesh = MeshPhase([0.25, 0.75], [3, 4])
    nlp = transcribe(MultiPhaseProblem([_double_integrator()]), [mesh])
    nn, nc = mesh.n_coll + 1, mesh.n_coll
    assert nlp.n_var == nn * 2 + nc * 1 + 2
    assert len(nlp.var_names) == nlp.n_var
    assert nlp.var_names[0] == "p0:cart:x:x0:n0"
    assert nlp.var_names[-1] == "p0:cart:tf"
    # defect rows: one per collocation node per state channel
    assert nlp.n_con == nc * 2
    assert len(set(nlp.var_names)) == nlp.n_var
    assert len(set(nlp.con_names)) == nlp.n_con


def test_node_taus_cover_unit_interval():
    mesh = MeshPhase([0.3, 0.3, 0.4], [2, 5, 3])
    nlp = transcribe(MultiPhaseProblem([_double_integrator()]), [mesh])
    coll, state = nlp.node_taus(0)
    assert len(coll) == mesh.n_coll
    assert len(state) == mesh.n_coll + 1
    assert np.all(np.diff(state) > 0)
    assert coll[0] >= 0.0 and coll[-1] < 1.0 and state[-1] == 1.0


@pytest.mark.parametrize("degree,nseg", [(3, 1), (3, 2), (5, 3), (8, 1)])
def test_defects_vanish_on_representable_polynomial(degree, nseg):
    # x(t) cubic, u = x'; degrees >= 3 must collocate it exactly
    tf = 2.0
    mesh = uniform_mesh(nseg, degree)
    nlp = transcribe(MultiPhaseProblem([_double_integrator()]), [mesh])
    poly = np.polynomial.Polynomial([0.3, -1.0, 0.8, -0.25])
    dpoly = poly.deriv()
    ddpoly = dpoly.deriv()
    coll, state = nlp.node_taus(0)
    X = np.column_stack([poly(state * tf), dpoly(state * tf)])
    U = ddpoly(coll * tf)[:, None]
    z = nlp.pack([X], [U], [(0.0, tf)])
    c = nlp.constraints(z)
    assert np.max(np.abs(c)) < 1e-12


def test_defects_nonzero_for_unrepresentable_curve():
    mesh = uniform_mesh(1, 3)
    nlp = transcribe(MultiPhaseProblem([_double_integrator()]), [mesh])
    tf = 2.0
    coll, state = nlp.node_taus(0)
    X = np.column_stack([np.sin(3.0 * state * tf),
                         3.0 * np.cos(3.0 * state * tf)])
    U = (-9.0 * np.sin(3.0 * coll * tf))[:, None]
    c = nlp.constraints(nlp.pack([X], [U], [(0.0, tf)]))
    assert np.max(np.abs(c)) > 1e-3


def test_objective_quadrature_exact_for_low_degree():
    # n-point Radau integrates degree 2n-2; u^2 with u linear is degree 2
    tf = 3.0
    mesh = uniform_mesh(2, 2)
    ph = _double_integrator(tf_lo=tf, tf_hi=tf,
                            cost=lambda X, U: U[:, 0] ** 2)
    nlp = transcribe(MultiPhaseProblem([ph]), [mesh])
    coll, state = nlp.node_taus(0)
    U = (2.0 * coll * tf - 1.0)[:, None]
    z = nlp.pack([np.zeros((len(state), 2))], [U], [(0.0, tf)])
    # integral of (2t-1)^2 over [0, 3]
    exact = ((2 * tf - 1.0) ** 3 + 1.0) / 6.0
    assert nlp.objective(z) == pytest.approx(exact, rel=1e-13)


def test_accumulator_balance_row():
    tf = 2.0
    mesh = uniform_mesh(3, 4)
    ph = _double_integrator(
        integrands=[IntegralTerm("effort", lambda X, U: U[:, 0] ** 2)])
    prob = MultiPhaseProblem([ph], accumulators=[Accumulator("effort",
                                                             0.0, 100.0)])
    nlp = transcribe(prob, [mesh])
    coll, state = nlp.node_taus(0)
    U = (coll * tf)[:, None]
    exact = tf ** 3 / 3.0
    z = nlp.pack([np.zeros((len(state), 2))], [U], [(0.0, tf)],
                 accumulators={"effort": exact})
    row = nlp.con_names.index("acc:effort:balance")
    assert abs(nlp.constraints(z)[row]) < 1e-12
    z[nlp.acc_idx["effort"]] = exact + 0.5
    assert nlp.constraints(z)[row] == pytest.approx(0.5, rel=1e-10)


def test_path_rows_evaluate_at_collocation_nodes():
    mesh = uniform_mesh(2, 3)
    ph = _double_integrator(
        path=[PathConstraint("speed", lambda X, U: X[:, 1], -1.0, 1.0)])
    nlp = transcribe(MultiPhaseProblem([ph]), [mesh])
    coll, state = nlp.node_taus(0)
    X = np.column_stack([state, np.sin(state)])
    U = np.zeros((len(coll), 1))
    c = nlp.constraints(nlp.pack([X], [U], [(0.0, 1.0)]))
    rows = [i for i, n in enumerate(nlp.con_names) if ":path:speed:" in n]
    assert len(rows) == mesh.n_coll
    assert np.allclose(c[rows], np.sin(state[:-1]), rtol=1e-14)
    lo = nlp.c_lo[rows]
    hi = nlp.c_hi[rows]
    assert np.all(lo == -1.0) and np.all(hi == 1.0)


def test_min_duration_row_only_when_time_free():
    fixed = transcribe(MultiPhaseProblem(
        [_double_integrator(min_duration=0.5)]), [uniform_mesh(1, 2)])
    assert not any("duration" in n for n in fixed.con_names)
    free = transcribe(MultiPhaseProblem(
        [_double_integrator(tf_lo=1.0, tf_hi=4.0, min_duration=0.5)]),
        [uniform_mesh(1, 2)])
    k = free.con_names.index("p0:cart:duration")
    z = free.pack([np.zeros((3, 2))], [np.zeros((2, 1))], [(0.0, 2.5)])
    assert free.constraints(z)[k] == pytest.approx(2.5)
    assert free.c_lo[k] == 0.5 and free.c_hi[k] == np.inf


def _two_phase_linked(cost=None):
    ph0 = _double_integrator(tf_lo=1.0, tf_hi=3.0, cost=cost)
    ph1 = PhaseDef(
        "cart2", 2, 1,
        lambda X, U: np.column_stack([X[:, 1], U[:, 0]]),
        x_lo=[-50.0, -50.0], x_hi=[50.0, 50.0], u_lo=[-10.0], u_hi=[10.0],
        t0_lo=1.0, t0_hi=3.0, tf_lo=4.0, tf_hi=4.0, cost=cost)
    link = Linkage("handoff", 0, 1,
                   lambda xa, ta, xb, tb: np.concatenate([xb - xa, [tb - ta]]),
                   np.zeros(3), np.zeros(3))
    bc = BoundaryConstraint("start_at_rest", 0,
                            lambda x0, xf, t0, tf: x0, np.zeros(2), np.zeros(2))
    return MultiPhaseProblem([ph0, ph1], linkages=[link], boundaries=[bc])


def test_linkage_and_boundary_rows():
    nlp = transcribe(_two_phase_linked(), [uniform_mesh(1, 3),
                                           uniform_mesh(1, 3)])
    coll, state = nlp.node_taus(0)
    X0 = np.column_stack([state, np.zeros_like(state)])
    X1 = np.column_stack([state + X0[-1, 0], np.zeros_like(state)])
    X1[:, 0] = X0[-1, 0]
    U = np.zeros((len(coll), 1))
    z = nlp.pack([X0, X1], [U, U], [(0.0, 1.4), (1.4, 4.0)])
    c = nlp.constraints(z)
    names = nlp.con_names
    link_rows = [i for i, n in enumerate(names) if n.startswith("link:handoff")]
    assert len(link_rows) == 3
    assert np.allclose(c[link_rows], 0.0, atol=1e-14)
    bc_rows = [i for i, n in enumerate(names) if n.startswith("bc:start_at_rest")]
    assert np.allclose(c[bc_rows], X0[0], atol=1e-14)
    # a time gap between the phases shows up in the linkage's last row
    z2 = z.copy()
    z2[nlp.phase_layout[1].t0_idx] = 1.9
    assert nlp.constraints(z2)[link_rows[-1]] == pytest.approx(0.5)


def _bilinear_one_phase():
    ph = _double_integrator(
        tf_lo=1.0, tf_hi=4.0,
        path=[PathConstraint("lane", lambda X, U: X[:, 0] + 0.3 * U[:, 0],
                             -5.0, 5.0)],
        integrands=[IntegralTerm("effort", lambda X, U: U[:, 0])])
    prob = MultiPhaseProblem(
        [ph], accumulators=[Accumulator("effort", -50.0, 50.0)],
        boundaries=[BoundaryConstraint(
            "ends", 0, lambda x0, xf, t0, tf: np.array([x0[0], xf[0] - 1.0]),
            np.zeros(2), np.zeros(2))])
    return prob, [MeshPhase([0.4, 0.6], [3, 2])], [(0.0, 2.7)]


def _bilinear_two_phase_linked():
    return (_two_phase_linked(), [uniform_mesh(2, 3), uniform_mesh(1, 4)],
            [(0.0, 1.4), (1.7, 4.0)])


def _bilinear_two_phase_accumulated():
    """Two accumulators fed from both phases, the first phase feeding both
    and the second feeding one twice; two path rows, a duration row on each
    free-time phase, a boundary and a linkage."""
    prob = _two_phase_linked()
    ph0, ph1 = prob.phases
    ph0.min_duration = ph1.min_duration = 0.5
    ph0.path = [PathConstraint("lane", lambda X, U: X[:, 0] + 0.3 * U[:, 0],
                               -5.0, 5.0),
                PathConstraint("pace", lambda X, U: X[:, 1] - 2.0 * U[:, 0],
                               -9.0, 9.0)]
    ph0.integrands = [IntegralTerm("effort", lambda X, U: U[:, 0]),
                      IntegralTerm("travel", lambda X, U: X[:, 1] + 0.5)]
    ph1.integrands = [IntegralTerm("travel", lambda X, U: 2.0 * X[:, 1]),
                      IntegralTerm("travel", lambda X, U: X[:, 0] - U[:, 0])]
    prob = MultiPhaseProblem(prob.phases, prob.linkages, prob.boundaries,
                             [Accumulator("effort", -50.0, 50.0),
                              Accumulator("travel", -50.0, 50.0)])
    return prob, [MeshPhase([0.3, 0.7], [2, 3]), uniform_mesh(2, 2)], \
        [(0.0, 1.4), (1.7, 4.0)]


@pytest.mark.parametrize("build", [_bilinear_one_phase,
                                   _bilinear_two_phase_linked,
                                   _bilinear_two_phase_accumulated],
                         ids=["one-phase", "two-phase-linked",
                              "two-phase-accumulated"])
def test_jacobian_exact_on_bilinear_problem(build):
    # affine dynamics, path, boundary and linkage functions make every
    # constraint bilinear in z, so the central differences underneath the
    # jacobian are exact; compare against a brute-force dense differencing
    # of the constraint vector
    prob, meshes, times = build()
    nlp = transcribe(prob, meshes)
    rng = np.random.default_rng(0)
    z = rng.uniform(-1.0, 1.0, nlp.n_var)
    for lay, (t0, tf) in zip(nlp.phase_layout, times):
        z[lay.t0_idx], z[lay.tf_idx] = t0, tf
    J = nlp.jacobian(z).toarray()
    dense = np.zeros_like(J)
    h = 1e-6
    for j in range(nlp.n_var):
        zp, zm = z.copy(), z.copy()
        zp[j] += h
        zm[j] -= h
        dense[:, j] = (nlp.constraints(zp) - nlp.constraints(zm)) / (2.0 * h)
    assert np.allclose(J, dense, rtol=1e-6, atol=1e-7)


def _linked_point(nlp, seed):
    rng = np.random.default_rng(seed)
    z = nlp.clip_to_bounds(rng.uniform(-1.0, 1.0, nlp.n_var))
    z[nlp.phase_layout[0].t0_idx] = 0.0
    z[nlp.phase_layout[0].tf_idx] = 2.0
    z[nlp.phase_layout[1].t0_idx] = 2.0
    z[nlp.phase_layout[1].tf_idx] = 4.0
    return z


def test_transcribed_nlp_is_freed_by_reference_counting():
    # no value rule or Jacobian block holds the NLP itself, so it goes with
    # its last reference, without waiting for the cyclic collector
    prob, meshes, _ = _bilinear_two_phase_accumulated()
    gc.disable()
    try:
        nlp = transcribe(prob, meshes)
        z = _linked_point(nlp, 3)
        nlp.constraints(z)
        nlp.jacobian(z)
        ref = weakref.ref(nlp)
        del nlp
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("kind", ["bc:start_at_rest", "link:handoff"])
def test_endpoint_output_must_match_its_bounds(kind):
    # one value short of the bounds: constraints() and jacobian() each
    # raise, naming the group, rather than leave a row unset or broadcast
    prob = _two_phase_linked()
    if kind.startswith("bc:"):
        prob.boundaries[0].func = lambda x0, xf, t0, tf: x0[:1]
    else:
        prob.linkages[0].func = lambda xa, ta, xb, tb: xb - xa
    meshes = [uniform_mesh(1, 3), uniform_mesh(1, 3)]
    z = _linked_point(transcribe(prob, meshes), 6)
    with pytest.raises(ValueError, match=kind):
        transcribe(prob, meshes).constraints(z)
    with pytest.raises(ValueError, match=kind):
        transcribe(prob, meshes).jacobian(z)


def test_jacobian_matches_declared_sparsity():
    nlp = transcribe(_two_phase_linked(), [uniform_mesh(2, 3),
                                           uniform_mesh(1, 4)])
    J = nlp.jacobian(_linked_point(nlp, 4)).tocoo()
    declared = list(zip(*nlp.sparsity()))
    actual = set(zip(J.row.tolist(), J.col.tolist()))
    assert len(set(declared)) == len(declared)
    assert actual == set(declared)


def test_gradient_and_jacobian_share_one_node_probe(monkeypatch):
    cost = lambda X, U: U[:, 0] ** 2 + X[:, 1] ** 2 * X[:, 0]
    meshes = [uniform_mesh(2, 3), uniform_mesh(1, 4)]
    nlp = transcribe(_two_phase_linked(cost), meshes)
    calls = []
    probe = NLPProblem._phase_point
    monkeypatch.setattr(NLPProblem, "_phase_point",
                        lambda self, *a: calls.append(1) or probe(self, *a))
    z = _linked_point(nlp, 5)
    g = nlp.objective_gradient(z)
    J = nlp.jacobian(z)
    assert len(calls) == len(meshes)
    # results are copies: editing them leaves the kept pair intact
    g[:] = 0.0
    J.data[:] = 0.0
    assert np.any(nlp.objective_gradient(z) != 0.0)
    assert nlp.jacobian(z).count_nonzero() > 0
    assert len(calls) == len(meshes)
    # an in-place edit of the same array is a new point
    z[nlp.phase_layout[1].u_off] += 0.25
    z[nlp.phase_layout[0].x_off + 3] -= 0.5
    fresh = transcribe(_two_phase_linked(cost), meshes)
    assert np.array_equal(nlp.jacobian(z).toarray(), fresh.jacobian(z).toarray())
    assert np.array_equal(nlp.objective_gradient(z), fresh.objective_gradient(z))
    assert len(calls) == 3 * len(meshes)


def _nonlinear_phase_problem():
    """One phase with nonlinear dynamics, two path rows, an integrand and a
    running cost, each mixing states and controls."""
    ph = PhaseDef(
        "swing", 2, 2,
        lambda X, U: np.column_stack([X[:, 1] * np.cos(U[:, 1]),
                                      np.sin(X[:, 0]) * U[:, 0]
                                      - 0.1 * X[:, 1] ** 3]),
        x_lo=[-5.0, -5.0], x_hi=[5.0, 5.0], u_lo=[-2.0, -2.0], u_hi=[2.0, 2.0],
        t0_lo=0.0, t0_hi=0.0, tf_lo=1.0, tf_hi=3.0,
        path=[PathConstraint("energy", lambda X, U: X[:, 0] ** 2
                             + np.exp(0.3 * X[:, 1]), 0.0, 10.0),
              PathConstraint("load", lambda X, U: U[:, 0] * X[:, 1]
                             - np.tanh(U[:, 1]), -3.0, 3.0)],
        integrands=[IntegralTerm("effort", lambda X, U: np.abs(U[:, 0]) ** 1.5
                                 + X[:, 0] * U[:, 1])],
        cost=lambda X, U: U[:, 0] ** 2 + np.log1p(X[:, 1] ** 2))
    prob = MultiPhaseProblem([ph], accumulators=[Accumulator("effort",
                                                             -50.0, 50.0)])
    return prob, [MeshPhase([0.3, 0.7], [3, 4])]


_PROBE_PROBLEMS = {
    **CANONICAL_PROBLEMS,
    "nonlinear-phase": _nonlinear_phase_problem,
    "two-phase-linked": lambda: (
        _two_phase_linked(lambda X, U: U[:, 0] ** 2 + X[:, 1] ** 2 * X[:, 0]),
        [uniform_mesh(2, 3), uniform_mesh(1, 4)]),
}


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(_PROBE_PROBLEMS)),
       st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.floats(min_value=1e-3, max_value=10.0))
def test_stacked_probe_equals_the_per_column_loop(assert_probe_matches_loop,
                                                  name, seed, spread):
    prob, meshes = _PROBE_PROBLEMS[name]()
    nlp = transcribe(prob, meshes)
    rng = np.random.default_rng(seed)
    z = nlp.clip_to_bounds(straight_line_guess(nlp)
                           + spread * rng.uniform(-1.0, 1.0, nlp.n_var))
    assert_probe_matches_loop(nlp, z)


@pytest.mark.parametrize("name", ["nonlinear-phase", "two-phase-linked"])
def test_each_callback_runs_once_per_phase_per_derivative_pass(name):
    prob, meshes = _PROBE_PROBLEMS[name]()
    calls = Counter()

    def counted(key, func):
        def wrapped(X, U):
            calls[key] += 1
            return func(X, U)
        return wrapped

    for p, ph in enumerate(prob.phases):
        ph.dynamics = counted((p, "dynamics"), ph.dynamics)
        ph.cost = counted((p, "cost"), ph.cost)
        for pc in ph.path:
            pc.func = counted((p, pc.name), pc.func)
        for term in ph.integrands:
            term.func = counted((p, term.accumulator), term.func)
    nlp = transcribe(prob, meshes)
    z = nlp.clip_to_bounds(straight_line_guess(nlp) + 0.1)
    nlp.objective_gradient(z)
    nlp.jacobian(z)
    expected = {(p, key) for p, ph in enumerate(prob.phases)
                for key in ["dynamics", "cost", *(pc.name for pc in ph.path),
                            *(t.accumulator for t in ph.integrands)]}
    assert calls == Counter({key: 1 for key in expected})


def test_objective_gradient_matches_fd():
    ph = _double_integrator(
        tf_lo=1.0, tf_hi=4.0,
        cost=lambda X, U: U[:, 0] ** 2 + 0.1 * X[:, 0] ** 2)
    nlp = transcribe(MultiPhaseProblem([ph]), [uniform_mesh(2, 3)])
    rng = np.random.default_rng(9)
    z = rng.uniform(-0.8, 0.8, nlp.n_var)
    z[nlp.phase_layout[0].t0_idx] = 0.0
    z[nlp.phase_layout[0].tf_idx] = 3.1
    g = nlp.objective_gradient(z)
    h = 1e-6
    fd = np.zeros_like(g)
    for j in range(nlp.n_var):
        zp, zm = z.copy(), z.copy()
        zp[j] += h
        zm[j] -= h
        fd[j] = (nlp.objective(zp) - nlp.objective(zm)) / (2.0 * h)
    assert np.allclose(g, fd, rtol=2e-5, atol=1e-7)


@pytest.mark.parametrize("mesh", [
    MeshPhase([0.35, 0.65], [4, 3]),
    # a degree-1 interval: its one control node samples as a constant
    MeshPhase(np.array([1.0, 2.0, 4.0]) / 7.0, [1, 5, 2]),
], ids=["4-3", "1-5-2"])
def test_solution_roundtrip_through_same_mesh(mesh):
    ph = _double_integrator(tf_lo=1.0, tf_hi=5.0)
    nlp = transcribe(MultiPhaseProblem([ph]), [mesh])
    coll, state = nlp.node_taus(0)
    X = np.column_stack([np.sin(state), np.cos(state)])
    U = np.tanh(coll)[:, None]
    z = nlp.pack([X], [U], [(0.0, 3.5)])
    sol = nlp.solution_from(z)
    z2 = nlp.z_from_solution(sol)
    assert np.allclose(z2, z, rtol=1e-11, atol=1e-12)
    # the solution places its state rows where the NLP put them, bit for bit
    assert np.array_equal(sol.phases[0].state_times(), nlp.node_times(z, 0)[1])


def test_solution_sampling_rejects_out_of_span():
    nlp = transcribe(MultiPhaseProblem([_double_integrator()]),
                     [uniform_mesh(1, 3)])
    z = nlp.pack([np.zeros((4, 2))], [np.zeros((3, 1))], [(0.0, 2.0)])
    sol = nlp.solution_from(z)
    with pytest.raises(ValueError):
        sol.phases[0].sample_states([2.5])


def test_nonfinite_callback_is_reported():
    def bad_dyn(X, U):
        out = np.column_stack([X[:, 1], U[:, 0]])
        out[0, 0] = np.nan
        return out

    ph = _double_integrator()
    ph.dynamics = bad_dyn
    nlp = transcribe(MultiPhaseProblem([ph]), [uniform_mesh(1, 3)])
    z = nlp.pack([np.zeros((4, 2))], [np.zeros((3, 1))], [(0.0, 2.0)])
    with pytest.raises(EvaluationError) as err:
        nlp.constraints(z)
    assert "def" in err.value.name


def _blows_up_past(limit, value):
    """inf where value > limit, else value."""
    return np.where(value > limit, np.inf, value)


def test_nonfinite_jacobian_is_reported_by_row():
    ph = _double_integrator(tf_lo=1.0, tf_hi=4.0)
    ph.dynamics = lambda X, U: np.column_stack([_blows_up_past(0.5, X[:, 0]),
                                                U[:, 0]])
    nlp = transcribe(MultiPhaseProblem([ph]), [uniform_mesh(1, 3)])
    X = np.zeros((4, 2))
    X[1, 0] = 0.5 - 1e-9      # the +h probe of node 1 crosses the limit
    z = nlp.pack([X], [np.zeros((3, 1))], [(0.0, 2.0)])
    assert np.all(np.isfinite(nlp.constraints(z)))
    for derivative in (nlp.jacobian, nlp.objective_gradient):
        with pytest.raises(EvaluationError) as err:
            derivative(z)
        assert err.value.name == "p0:cart:def:k0:n1:x0"


def test_nonfinite_gradient_is_reported_by_variable():
    ph = _double_integrator(cost=lambda X, U: _blows_up_past(1.0, U[:, 0]) ** 2)
    nlp = transcribe(MultiPhaseProblem([ph]), [uniform_mesh(1, 3)])
    U = np.zeros((3, 1))
    U[2, 0] = 1.0 - 1e-9
    z = nlp.pack([np.zeros((4, 2))], [U], [(0.0, 2.0)])
    assert np.isfinite(nlp.objective(z))
    with pytest.raises(EvaluationError) as err:
        nlp.objective_gradient(z)
    assert err.value.name == "p0:cart:u:u0:n2"
    assert err.value.index == nlp.var_names.index("p0:cart:u:u0:n2")


def test_dump_layout_deterministic(tmp_path):
    def build():
        return transcribe(_two_phase_linked(), [uniform_mesh(2, 3),
                                                uniform_mesh(1, 4)])

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    build().dump_layout(a)
    build().dump_layout(b)
    assert a.read_text() == b.read_text()
    doc = json.loads(a.read_text())
    assert doc["n_var"] == build().n_var
    assert len(doc["sparsity"]["rows"]) == len(doc["sparsity"]["cols"])
