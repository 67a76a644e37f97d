import gc
import json
import warnings
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ascentry.canonical import CANONICAL_PROBLEMS, straight_line_guess
from ascentry.lgr import lgr_rule
from ascentry.nlpsolve import SolverOptions, solve
from ascentry.transcription import (Accumulator, BoundaryConstraint,
                                    EvaluationError, IntegralTerm, Linkage,
                                    MeshPhase, MultiPhaseProblem, NLPProblem,
                                    PathConstraint, PhaseDef, _SparsePlan, fly,
                                    transcribe, uniform_mesh)


def _node(*columns):
    """A node callback from its column functions, (X, U) -> (n,) or (n, k)
    each: the rates, then each path row's and each integrand's."""
    return lambda X, U: np.column_stack([f(X, U) for f in columns])


def _cart_rates(X, U):
    return np.column_stack([X[:, 1], U[:, 0]])


def _double_integrator(tf_lo=2.0, tf_hi=2.0, columns=(), **kw):
    """x'' = u on t in [0, tf]; columns computes the node's path and
    integrand columns, in order."""
    return PhaseDef(
        "cart", 2, 1, _node(_cart_rates, *columns),
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
    ph = _double_integrator(integrands=[IntegralTerm("missing")],
                            columns=[lambda X, U: U[:, 0]])
    with pytest.raises(ValueError):
        MultiPhaseProblem([ph])


def test_problem_rejects_dangling_linkage():
    ph = _double_integrator()
    link = Linkage("next", 0, 3, lambda xa, ta, xb, tb: xa - xb,
                   np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        MultiPhaseProblem([ph], linkages=[link])


def test_problem_rejects_duplicate_accumulator():
    ph = _double_integrator(integrands=[IntegralTerm("effort")],
                            columns=[lambda X, U: U[:, 0]])
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


def test_endpoint_pins_tighten_the_phase_box():
    # x0 pins the position and leaves the speed free; xf caps the speed
    # above the box and the position inside it: each endpoint channel keeps
    # the tighter of its box and its pin
    ph = _double_integrator(x0_lo=[1.0, -np.inf], x0_hi=[1.0, np.inf],
                            xf_lo=[-np.inf, -80.0], xf_hi=[20.0, 60.0])
    nlp = transcribe(MultiPhaseProblem([ph]), [uniform_mesh(2, 3)])
    nn = nlp.phase_layout[0].nn
    lo = nlp.z_lo[:2 * nn].reshape(nn, 2)
    hi = nlp.z_hi[:2 * nn].reshape(nn, 2)
    assert np.array_equal(lo[0], [1.0, -50.0]) and np.array_equal(hi[0], [1.0, 50.0])
    assert np.array_equal(lo[-1], [-50.0, -50.0])
    assert np.array_equal(hi[-1], [20.0, 50.0])
    assert np.all(lo[1:-1] == -50.0) and np.all(hi[1:-1] == 50.0)


def test_a_one_sided_endpoint_pin_leaves_the_other_side_free():
    # xf_hi without xf_lo caps the last node; x0_lo without x0_hi lifts
    # the first; the missing sides keep the box
    ph = _double_integrator(x0_lo=[-60.0, 3.0], xf_hi=[1.0, 2.0])
    nlp = transcribe(MultiPhaseProblem([ph]), [uniform_mesh(2, 3)])
    nn = nlp.phase_layout[0].nn
    lo = nlp.z_lo[:2 * nn].reshape(nn, 2)
    hi = nlp.z_hi[:2 * nn].reshape(nn, 2)
    assert np.array_equal(lo[0], [-50.0, 3.0])
    assert np.array_equal(hi[0], [50.0, 50.0])
    assert np.array_equal(lo[-1], [-50.0, -50.0])
    assert np.array_equal(hi[-1], [1.0, 2.0])


@pytest.mark.parametrize("field, override", [
    ("x0_lo", {"x0_lo": [0.0]}),       # one value for two states
    ("xf_hi", {"xf_hi": [1.0, 2.0, 3.0]}),
    ("x_hi", {"x_hi": [50.0] * 3, "u_hi": [10.0] * 2}),
    ("u_hi", {"u_hi": [10.0] * 2}),
    ("u_lo", {"u_lo": 0.0}),
])
def test_phase_bound_arrays_must_hold_one_value_per_channel(field, override):
    bounds = dict(x_lo=[-50.0, -50.0], x_hi=[50.0, 50.0], u_lo=[-10.0],
                  u_hi=[10.0])
    with pytest.raises(ValueError, match=f"phase cart: {field} has shape"):
        PhaseDef("cart", 2, 1, _node(_cart_rates), t0_lo=0.0, t0_hi=0.0,
                 tf_lo=2.0, tf_hi=2.0, **{**bounds, **override})


@pytest.mark.parametrize("make", [
    lambda lo, hi: Linkage("next", 0, 0, lambda xa, ta, xb, tb: xa, lo, hi),
    lambda lo, hi: BoundaryConstraint("next", 0, lambda x0, xf, t0, tf: x0,
                                      lo, hi),
], ids=["linkage", "boundary"])
def test_endpoint_bounds_must_have_one_length(make):
    assert make(0.0, 0.0).lo.shape == (1,)
    with pytest.raises(ValueError, match="next: lo has shape"):
        make(np.zeros(2), np.zeros(3))


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


def test_rows_match_their_per_interval_forms():
    # the rows' values come from their node terms and the affine matrix;
    # the per-interval forms are the reference: each defect is
    # D X - (tf - t0) frac / 2 F, to a few roundings of its terms, since D X
    # is summed in another order; a path row is its node column and the
    # balance z - (tf - t0) w . v, bit for bit
    rng = np.random.default_rng(7)
    mesh = MeshPhase([0.2, 0.5, 0.3], [3, 5, 2])
    ph = _double_integrator(tf_lo=1.0, tf_hi=4.0, min_duration=0.5,
                            path=[PathConstraint("speed", -1.0, 1.0)],
                            integrands=[IntegralTerm("effort")],
                            columns=[lambda X, U: X[:, 1] * U[:, 0],
                                     lambda X, U: U[:, 0] ** 2])
    nlp = transcribe(MultiPhaseProblem([ph], accumulators=[
        Accumulator("effort", 0.0, 100.0)]), [mesh])
    z = rng.uniform(-3.0, 3.0, nlp.n_var)
    z[nlp.phase_layout[0].t0_idx], z[nlp.phase_layout[0].tf_idx] = 0.3, 2.9
    c = nlp.constraints(z)
    X, U = nlp.states(z, 0), nlp.controls(z, 0)
    V = ph.node(X[:-1], U)
    dt = 2.9 - 0.3
    for k, (rule, start) in enumerate(zip(mesh.rules, mesh.starts)):
        n = rule.n
        DX = rule.diff_matrix @ X[start:start + n + 1]
        rates = dt * mesh.fractions[k] / 2.0 * V[start:start + n, :2]
        rows = [nlp.con_names.index(f"p0:cart:def:k{k}:n{i}:{name}")
                for i in range(n) for name in ph.state_names]
        tol = 8 * np.finfo(float).eps * (np.abs(DX).max() + np.abs(rates).max())
        assert np.abs(c[rows] - (DX - rates).ravel()).max() <= tol
    path = [i for i, name in enumerate(nlp.con_names) if ":path:speed:" in name]
    assert c[path].tobytes() == V[:, 2].tobytes()
    balance = nlp.con_names.index("acc:effort:balance")
    assert c[balance] == z[nlp.acc_idx["effort"]] - float(
        (dt * mesh.wts_tau) @ np.ascontiguousarray(V[:, 3]))
    assert c[nlp.con_names.index("p0:cart:duration")] == 2.9 - 0.3


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
    ph = _double_integrator(integrands=[IntegralTerm("effort")],
                            columns=[lambda X, U: U[:, 0] ** 2])
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
    ph = _double_integrator(path=[PathConstraint("speed", -1.0, 1.0)],
                            columns=[lambda X, U: X[:, 1]])
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
        "cart2", 2, 1, _cart_rates,
        x_lo=[-50.0, -50.0], x_hi=[50.0, 50.0], u_lo=[-10.0], u_hi=[10.0],
        t0_lo=1.0, t0_hi=3.0, tf_lo=4.0, tf_hi=4.0, cost=cost)
    link = Linkage("handoff", 0, 1,
                   lambda xa, ta, xb, tb: np.column_stack([xb - xa, tb - ta]),
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
        path=[PathConstraint("lane", -5.0, 5.0)],
        integrands=[IntegralTerm("effort")],
        columns=[lambda X, U: X[:, 0] + 0.3 * U[:, 0], lambda X, U: U[:, 0]])
    prob = MultiPhaseProblem(
        [ph], accumulators=[Accumulator("effort", -50.0, 50.0)],
        boundaries=[BoundaryConstraint(
            "ends", 0,
            lambda x0, xf, t0, tf: np.column_stack([x0[:, 0], xf[:, 0] - 1.0]),
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
    ph0.path = [PathConstraint("lane", -5.0, 5.0),
                PathConstraint("pace", -9.0, 9.0)]
    ph0.integrands = [IntegralTerm("effort"), IntegralTerm("travel")]
    ph0.node = _node(_cart_rates,
                     lambda X, U: X[:, 0] + 0.3 * U[:, 0],
                     lambda X, U: X[:, 1] - 2.0 * U[:, 0],
                     lambda X, U: U[:, 0],
                     lambda X, U: X[:, 1] + 0.5)
    ph1.integrands = [IntegralTerm("travel"), IntegralTerm("travel")]
    ph1.node = _node(_cart_rates,
                     lambda X, U: 2.0 * X[:, 1],
                     lambda X, U: X[:, 0] - U[:, 0])
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
        prob.boundaries[0].func = lambda x0, xf, t0, tf: x0[:, :1]
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
    # the gradient is a copy and the Jacobian's arrays are read-only:
    # neither edit reaches the kept pair
    g[:] = 0.0
    with pytest.raises(ValueError, match="read-only"):
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



def test_jacobian_shares_the_kept_arrays_and_cannot_change_them():
    # each call hands out the kept Jacobian's arrays on a new matrix, so an
    # evaluation copies nothing; the arrays are read-only, so an edit in
    # place raises, and rebinding one changes the caller's matrix alone
    nlp = transcribe(_two_phase_linked(), [uniform_mesh(2, 3)] * 2)
    z = _linked_point(nlp, 2)
    J, again = nlp.jacobian(z), nlp.jacobian(z)
    assert J is not again
    kept = J.toarray()
    for mine, theirs in zip((J.data, J.indices, J.indptr),
                            (again.data, again.indices, again.indptr)):
        assert np.shares_memory(mine, theirs) and not mine.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            mine[:1] = 0
    with pytest.raises(ValueError, match="read-only"):
        J *= 2.0
    J.data = np.zeros_like(J.data)
    assert np.array_equal(nlp.jacobian(z).toarray(), kept)
    assert np.array_equal(again.toarray(), kept)


def test_hessian_shares_the_plans_index_arrays_and_cannot_change_them():
    # each Hessian has data of its own on the sparsity plan's indices and
    # indptr, which every Hessian shares read-only: an in-place change of
    # the pattern raises, and a copy's pattern is the caller's
    nlp = transcribe(_two_phase_linked(), [uniform_mesh(2, 3)] * 2)
    z = _linked_point(nlp, 2)
    y = np.ones(nlp.n_con)
    H, again = nlp.hessian(z, y), nlp.hessian(z, y)
    assert H.data.flags.writeable
    assert not np.shares_memory(H.data, again.data)
    for mine, theirs in ((H.indices, again.indices), (H.indptr, again.indptr)):
        assert np.shares_memory(mine, theirs) and not mine.flags.writeable
    kept = H.toarray()
    with pytest.raises(ValueError, match="read-only"):
        H.eliminate_zeros()
    C = H.copy()
    C.eliminate_zeros()
    assert np.array_equal(C.toarray(), kept)
    assert np.array_equal(nlp.hessian(z, y).toarray(), kept)


def _nonlinear_phase_problem():
    """One phase with nonlinear dynamics, two path rows, an integrand and a
    running cost, each mixing states and controls."""
    ph = PhaseDef(
        "swing", 2, 2,
        _node(lambda X, U: np.column_stack([X[:, 1] * np.cos(U[:, 1]),
                                            np.sin(X[:, 0]) * U[:, 0]
                                            - 0.1 * X[:, 1] ** 3]),
              lambda X, U: X[:, 0] ** 2 + np.exp(0.3 * X[:, 1]),
              lambda X, U: U[:, 0] * X[:, 1] - np.tanh(U[:, 1]),
              lambda X, U: (U[:, 0] ** 2) ** 0.75 + X[:, 0] * U[:, 1]),
        x_lo=[-5.0, -5.0], x_hi=[5.0, 5.0], u_lo=[-2.0, -2.0], u_hi=[2.0, 2.0],
        t0_lo=0.0, t0_hi=0.0, tf_lo=1.0, tf_hi=3.0,
        path=[PathConstraint("energy", 0.0, 10.0),
              PathConstraint("load", -3.0, 3.0)],
        integrands=[IntegralTerm("effort")],
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
        ph.node = counted((p, "node"), ph.node)
        ph.cost = counted((p, "cost"), ph.cost)
    nlp = transcribe(prob, meshes)
    z = nlp.clip_to_bounds(straight_line_guess(nlp) + 0.1)
    nlp.objective_gradient(z)
    nlp.jacobian(z)
    expected = {(p, key) for p in range(len(prob.phases))
                for key in ["node", "cost"]}
    assert calls == Counter({key: 1 for key in expected})


def test_each_endpoint_callback_runs_once_per_derivative_pass():
    # the Jacobian's probes and the Hessian's stencil each go to a boundary
    # or linkage function as one stack of points
    prob, meshes = _PROBE_PROBLEMS["two-phase-linked"]()
    calls = Counter()
    points = []

    def counted(key, func):
        def wrapped(*args):
            calls[key] += 1
            points.append(len(args[0]))
            return func(*args)
        return wrapped

    for group in (*prob.linkages, *prob.boundaries):
        group.func = counted(group.name, group.func)
    nlp = transcribe(prob, meshes)
    z = _linked_point(nlp, 8)
    nlp.jacobian(z)
    assert calls == Counter({"handoff": 1, "start_at_rest": 1})
    # a linkage over 2 + 1 + 2 + 1 columns, a boundary over 2 + 2 + 1 + 1:
    # the point, then its 6 complex steps
    assert sorted(points) == [6 + 1, 6 + 1]
    calls.clear()
    nlp.hessian(z, np.zeros(nlp.n_con))
    assert calls == Counter()
    points.clear()
    nlp.hessian(z, np.ones(nlp.n_con))
    assert calls == Counter({"handoff": 1, "start_at_rest": 1})
    # 2 points for each of the 6 * 7 / 2 column pairs
    assert sorted(points) == [6 * 7, 6 * 7]


def _bilinear_point(build, seed):
    """A build's NLP and a seeded point with the build's phase times."""
    prob, meshes, times = build()
    nlp = transcribe(prob, meshes)
    z = np.random.default_rng(seed).uniform(-1.0, 1.0, nlp.n_var)
    for lay, (t0, tf) in zip(nlp.phase_layout, times):
        z[lay.t0_idx], z[lay.tf_idx] = t0, tf
    return nlp, z


def _guessed_point(make, seed, spread=0.3):
    prob, meshes = make()
    nlp = transcribe(prob, meshes)
    rng = np.random.default_rng(seed)
    return nlp, nlp.clip_to_bounds(straight_line_guess(nlp)
                                   + spread * rng.uniform(-1.0, 1.0, nlp.n_var))


_HESSIAN_CASES = {
    **{name: lambda seed, make=make: _guessed_point(make, seed)
       for name, make in CANONICAL_PROBLEMS.items()},
    "one-phase": lambda seed: _bilinear_point(_bilinear_one_phase, seed),
    "two-phase-linked": lambda seed: _bilinear_point(_bilinear_two_phase_linked,
                                                     seed),
    "two-phase-accumulated": lambda seed: _bilinear_point(
        _bilinear_two_phase_accumulated, seed),
}


def assert_hessian_matches_lagrangian_differences(nlp, z, y, v, step, rtol,
                                                  atol):
    """hessian(z, y) @ v against central differences of the Lagrangian
    gradient along v, entry by entry, relative to the entry's scale; atol
    covers the rounding floor of second differences, where an entry that is
    exactly zero (a linear term) reads as noise, and the noise of the
    differenced first derivatives."""
    def gradient(w):
        return nlp.objective_gradient(w) + nlp.jacobian(w).T @ y

    H = nlp.hessian(z, y)
    assert (abs(H - H.T)).max() == 0.0
    fd = (gradient(z + step * v) - gradient(z - step * v)) / (2.0 * step)
    scale = abs(H) @ np.abs(v) + np.abs(fd)
    assert np.all(np.abs(H @ v - fd) <= rtol * scale + atol)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_HESSIAN_CASES)),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_hessian_matches_differences_of_the_lagrangian_gradient(name, seed):
    nlp, z = _HESSIAN_CASES[name](seed)
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(nlp.n_con)
    v = rng.standard_normal(nlp.n_var)
    assert_hessian_matches_lagrangian_differences(nlp, z, y, v, 1e-4, 1e-5,
                                                  1e-6)


_PATTERN_CASES = {**_HESSIAN_CASES, "nonlinear-phase": lambda seed: _guessed_point(
    _nonlinear_phase_problem, seed)}


@pytest.mark.parametrize("name", sorted(_PATTERN_CASES))
def test_hessian_pattern_covers_every_entry(name):
    # every entry of the Lagrangian gradient's dense differences sits on
    # the declared pattern, the one every hessian() stores
    nlp, z = _PATTERN_CASES[name](7)
    y = np.random.default_rng(7).standard_normal(nlp.n_con)
    H = nlp.hessian(z, y).tocoo()
    declared = np.zeros((nlp.n_var, nlp.n_var), dtype=bool)
    declared[H.row, H.col] = True
    assert H.nnz == declared.sum()
    other = nlp.hessian(z + 0.01, np.zeros(nlp.n_con)).tocoo()
    assert np.array_equal(other.row, H.row) and np.array_equal(other.col, H.col)
    step = 1e-4
    dense = np.zeros((nlp.n_var, nlp.n_var))
    for j in range(nlp.n_var):
        zp, zm = z.copy(), z.copy()
        zp[j] += step
        zm[j] -= step
        dense[:, j] = (nlp.objective_gradient(zp) + nlp.jacobian(zp).T @ y
                       - nlp.objective_gradient(zm)
                       - nlp.jacobian(zm).T @ y) / (2.0 * step)
    assert np.abs(dense[~declared]).max(initial=0.0) <= 1e-6 * np.abs(dense).max()


def test_hessian_runs_only_the_callbacks_with_weight():
    # with every multiplier zero only the cost is probed, once per phase;
    # one path multiplier brings in the node callback, and of its columns
    # that path row's alone
    prob, meshes = _nonlinear_phase_problem()
    calls = Counter()

    def counted(key, func):
        def wrapped(X, U):
            calls[key] += 1
            return func(X, U)
        return wrapped

    ph = prob.phases[0]
    ph.node = counted("node", ph.node)
    ph.cost = counted("cost", ph.cost)
    nlp = transcribe(prob, meshes)
    z = nlp.clip_to_bounds(straight_line_guess(nlp) + 0.1)
    y = np.zeros(nlp.n_con)
    nlp.jacobian(z)
    calls.clear()
    H0 = nlp.hessian(z, y)
    assert calls == Counter({"cost": 1})
    y[nlp.con_names.index("p0:swing:path:load:n2")] = 1.5
    calls.clear()
    H1 = nlp.hessian(z, y)
    assert calls == Counter({"cost": 1, "node": 1})
    # the load's Hessian at node 2 alone, scaled by its multiplier
    cols = [nlp.var_names.index(f"p0:swing:{k}:n2")
            for k in ("x:x0", "x:x1", "u:u0", "u:u1")]
    diff = (H1 - H0).toarray()
    assert np.abs(np.delete(np.delete(diff, cols, 0), cols, 1)).max() == 0.0
    x1, u0, u1 = z[cols[1]], z[cols[2]], z[cols[3]]
    t = np.tanh(u1)
    expect = np.zeros((4, 4))
    expect[1, 2] = expect[2, 1] = 1.5
    expect[3, 3] = -1.5 * (-2.0 * t * (1.0 - t ** 2))
    assert np.allclose(diff[np.ix_(cols, cols)], expect, rtol=1e-6, atol=1e-6)


def test_path_output_must_hold_one_value_per_node():
    # a path column that holds one value, not one per node: each of
    # constraints(), jacobian() and hessian() raises, naming the phase's
    # node callback and the nodes of its stack: 6, or 6 with 3 complex
    # steps each (the Hessian starts with the derivative pass)
    ph = _double_integrator(path=[PathConstraint("total", -5.0, 5.0)])
    ph.node = lambda X, U: np.append(_cart_rates(X, U), np.sum(X[:, 0]))
    prob = MultiPhaseProblem([ph])
    meshes = [uniform_mesh(2, 3)]
    nlp = transcribe(prob, meshes)
    z = nlp.pack([np.ones((7, 2))], [np.zeros((6, 1))], [(0.0, 2.0)])
    y = np.ones(nlp.n_con)
    for evaluate, nodes in ((lambda n: n.constraints(z), 6),
                            (lambda n: n.jacobian(z), 24),
                            (lambda n: n.hessian(z, y), 24)):
        with pytest.raises(ValueError, match=(
                f"p0:cart:node returns {2 * nodes + 1} values for {nodes} "
                f"nodes, not 3 per node")):
            evaluate(transcribe(prob, meshes))


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


def test_fly_reproduces_the_double_integrators_closed_form():
    # under u = 6 - 12 t from rest the double integrator runs the optimal
    # slew x = 3 t^2 - 2 t^3, x' = 6 t - 6 t^2, and fly hands back the law's
    # controls along it
    ph = CANONICAL_PROBLEMS["double-integrator"]()[0].phases[0]
    out = fly(ph, [0.0, 0.0], 0.0, 1.0,
              lambda t, x: np.array([6.0 - 12.0 * t]), rtol=1e-12, atol=1e-12)
    t = np.linspace(0.0, 1.0, 11)
    want = np.column_stack([3 * t ** 2 - 2 * t ** 3, 6 * t - 6 * t ** 2])
    assert np.allclose(out.sol(t).T, want, rtol=0, atol=1e-8)
    assert np.allclose(out.y[:, -1], [1.0, 0.0], rtol=0, atol=1e-8)
    assert np.array_equal(out.controls(t), (6.0 - 12.0 * t)[:, None])


def test_fly_integrates_only_the_rate_columns():
    # the node's path and integrand columns ride along in the output, but
    # only its first nx columns are the state's rates
    plain = _double_integrator()
    carried = _double_integrator(
        columns=[lambda X, U: X[:, 0] ** 2, lambda X, U: U[:, 0] ** 2],
        path=[PathConstraint("reach", -1.0, 1.0)],
        integrands=[IntegralTerm("effort")])
    law = lambda t, x: np.array([np.cos(t)])
    a, b = (fly(ph, [0.5, -0.2], 0.0, 2.0, law, rtol=1e-10, atol=1e-12)
            for ph in (plain, carried))
    assert a.y.shape == b.y.shape == (2, len(a.t))
    assert np.array_equal(a.t, b.t) and np.array_equal(a.y, b.y)


def test_a_solved_double_integrator_flown_under_its_controls_meets_its_pins():
    # the converged collocation solution, flown from its first state under
    # its own interpolated controls, ends at its xf pins to the solve's
    # tolerance
    prob, meshes = CANONICAL_PROBLEMS["double-integrator"]()
    nlp = transcribe(prob, meshes)
    rep = solve(nlp, straight_line_guess(nlp), SolverOptions(tolerance=1e-8))
    assert rep.status == "converged"
    ph, sol = prob.phases[0], nlp.solution_from(rep.x).phases[0]
    out = fly(ph, sol.states[0], sol.t0, sol.tf,
              lambda t, x: sol.sample_controls([t])[0], rtol=1e-12, atol=1e-12)
    assert np.allclose(out.y[:, -1], ph.xf_lo, rtol=0, atol=1e-8)


def test_nonfinite_callback_is_reported():
    def bad_dyn(X, U):
        out = np.column_stack([X[:, 1], U[:, 0]])
        out[0, 0] = np.nan
        return out

    ph = _double_integrator()
    ph.node = bad_dyn
    nlp = transcribe(MultiPhaseProblem([ph]), [uniform_mesh(1, 3)])
    z = nlp.pack([np.zeros((4, 2))], [np.zeros((3, 1))], [(0.0, 2.0)])
    with pytest.raises(EvaluationError) as err:
        nlp.constraints(z)
    assert "def" in err.value.name


def _steep(x):
    """exp(1000 x): finite up to x = 0.7097, while its slope, 1000 times as
    large, overflows from x = 0.7039 on.  A complex step never moves the
    real point, so only a partial can reach past the limit."""
    return np.exp(1000.0 * x)


def test_nonfinite_jacobian_is_reported_by_row():
    ph = _double_integrator(tf_lo=1.0, tf_hi=4.0)
    ph.node = lambda X, U: np.column_stack([_steep(X[:, 0]), U[:, 0]])
    nlp = transcribe(MultiPhaseProblem([ph]), [uniform_mesh(1, 3)])
    X = np.zeros((4, 2))
    X[1, 0] = 0.709           # node 1's rate is finite, its slope is not
    z = nlp.pack([X], [np.zeros((3, 1))], [(0.0, 2.0)])
    assert np.all(np.isfinite(nlp.constraints(z)))
    for derivative in (nlp.jacobian, nlp.objective_gradient):
        with pytest.raises(EvaluationError) as err:
            derivative(z)
        assert err.value.name == "p0:cart:def:k0:n1:x0"


def test_nonfinite_gradient_is_reported_by_variable():
    ph = _double_integrator(cost=lambda X, U: _steep(U[:, 0]))
    nlp = transcribe(MultiPhaseProblem([ph]), [uniform_mesh(1, 3)])
    U = np.zeros((3, 1))
    U[2, 0] = 0.709
    z = nlp.pack([np.zeros((4, 2))], [U], [(0.0, 2.0)])
    assert np.isfinite(nlp.objective(z))
    with pytest.raises(EvaluationError) as err:
        nlp.objective_gradient(z)
    assert err.value.name == "p0:cart:u:u0:n2"
    assert err.value.index == nlp.var_names.index("p0:cart:u:u0:n2")


def test_nonfinite_hessian_is_reported_by_variable():
    # a thousandth of the steep cost: its slope is finite and its curvature,
    # 1000 times larger, is not, so only the Hessian overflows
    ph = _double_integrator(cost=lambda X, U: _steep(U[:, 0]) / 1000.0)
    nlp = transcribe(MultiPhaseProblem([ph]), [uniform_mesh(1, 3)])
    U = np.zeros((3, 1))
    U[2, 0] = 0.709
    z = nlp.pack([np.zeros((4, 2))], [U], [(0.0, 2.0)])
    assert np.all(np.isfinite(nlp.objective_gradient(z)))
    with pytest.raises(EvaluationError) as err:
        nlp.hessian(z, np.zeros(nlp.n_con))
    # the only non-finite entry: node 2's control against itself
    assert err.value.name == "p0:cart:u:u0:n2"


@pytest.mark.parametrize("cast", [False, True])
def test_a_callback_that_casts_its_stack_to_real_raises(cast):
    # numpy only warns when a complex stack is cast to float, and the cast
    # drops every complex step: the defect's x partial at node 0 would read
    # D[0, 0] = -1.25 alone, where D[0, 0] - (tf - t0) x = -2.75 is right
    def node(X, U):
        return (np.asarray(X, float) if cast else X) ** 2 + U

    ph = PhaseDef("cast", 1, 1, node, x_lo=[-5.0], x_hi=[5.0], u_lo=[-5.0],
                  u_hi=[5.0], t0_lo=0.0, t0_hi=0.0, tf_lo=1.0, tf_hi=1.0)
    nlp = transcribe(MultiPhaseProblem([ph]), [uniform_mesh(1, 2)])
    z = nlp.pack([np.full((3, 1), 1.5)], [np.zeros((2, 1))], [(0.0, 1.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if cast:
            with pytest.raises(Warning, match="imaginary part"):
                nlp.jacobian(z)
            rep = solve(nlp, z, SolverOptions(max_iterations=1))
            assert rep.status == "numerical_failure"
        else:
            J = nlp.jacobian(z).toarray()
            assert J[0, 0] == pytest.approx(-2.75, abs=1e-12)


def test_dump_layout_deterministic():
    def build():
        return transcribe(_two_phase_linked(), [uniform_mesh(2, 3),
                                                uniform_mesh(1, 4)])

    a, b = json.dumps(build().layout()), json.dumps(build().layout())
    assert a == b
    doc = json.loads(a)
    assert doc["n_var"] == build().n_var
    assert len(doc["sparsity"]["rows"]) == len(doc["sparsity"]["cols"])


@pytest.mark.parametrize("seed", range(4))
def test_sparse_plan_matches_the_unique_oracle(seed):
    # random blocks of coordinates with many repeats, against the plan
    # np.unique and np.setdiff1d give
    rng = np.random.default_rng(seed)
    shape = (int(rng.integers(1, 9)), int(rng.integers(1, 9)))
    sizes = rng.integers(0, 30, 5)
    rows = [rng.integers(0, shape[0], k) for k in sizes]
    cols = [rng.integers(0, shape[1], k) for k in sizes]
    values = [rng.standard_normal(k) for k in sizes]
    plan = _SparsePlan.build(rows, cols, values, shape)

    keys = np.concatenate(rows) * shape[1] + np.concatenate(cols)
    key, first, slot = np.unique(keys, return_index=True, return_inverse=True)
    rest = np.setdiff1d(np.arange(len(keys)), first)
    u_rows, u_cols = np.divmod(key, shape[1])
    want = {"first": first, "rest": rest, "rest_slot": slot[rest],
            "rows": u_rows, "cols": u_cols,
            "indptr": np.searchsorted(u_rows, np.arange(shape[0] + 1))}
    for name, arr in want.items():
        assert np.array_equal(getattr(plan, name), arr), name
    dense = np.zeros(shape)
    np.add.at(dense, (np.concatenate(rows), np.concatenate(cols)),
              np.concatenate(values))
    A = plan.assemble()
    assert np.allclose(A.toarray(), dense, rtol=0, atol=1e-12)
    # every assembled matrix shares the plan's index arrays, unconverted,
    # and none can change them
    for mine, plans in ((A.indices, plan.cols), (A.indptr, plan.indptr)):
        assert np.shares_memory(mine, plans) and not mine.flags.writeable
