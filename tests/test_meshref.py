import json

import numpy as np
import pytest

from ascentry import meshref
from ascentry.meshref import (RefinementOptions, estimate_error, refine,
                              refine_loop)
from ascentry.transcription import (MeshPhase, MultiPhaseProblem, PhaseDef,
                                    transcribe, uniform_mesh)


def _scalar_phase(**kw):
    """x' = u on [0, 2]."""
    return PhaseDef(
        "s", 1, 1, lambda X, U: U,
        x_lo=[-50.0], x_hi=[50.0], u_lo=[-50.0], u_hi=[50.0],
        t0_lo=0.0, t0_hi=0.0, tf_lo=2.0, tf_hi=2.0, **kw)


def test_options_validation():
    with pytest.raises(ValueError):
        RefinementOptions(mesh_tolerance=0.0)
    with pytest.raises(ValueError):
        RefinementOptions(n_min=5, n_max=4)
    with pytest.raises(ValueError):
        RefinementOptions(subdivision=1)


def test_error_vanishes_on_representable_data():
    ph = _scalar_phase()
    mesh = uniform_mesh(2, 5)
    nlp = transcribe(MultiPhaseProblem([ph]), [mesh])
    coll, state = nlp.node_taus(0)
    tf = 2.0
    X = ((state * tf) ** 2)[:, None]
    U = (2.0 * coll * tf)[:, None]
    sol = nlp.solution_from(nlp.pack([X], [U], [(0.0, tf)]))
    errs = estimate_error(sol.phases[0], ph.dynamics)
    assert errs.shape == (2,)
    assert errs.max() < 1e-10


def test_error_localizes_to_bad_interval():
    # quadratic on the first interval, a degree-8 bump on the second
    ph = _scalar_phase()
    mesh = uniform_mesh(2, 5)
    nlp = transcribe(MultiPhaseProblem([ph]), [mesh])
    coll, state = nlp.node_taus(0)
    ts, tc = state * 2.0, coll * 2.0
    X = (ts ** 2 + np.where(ts > 1.0, (ts - 1.0) ** 8, 0.0))[:, None]
    U = (2.0 * tc + np.where(tc > 1.0, 8.0 * (tc - 1.0) ** 7, 0.0))[:, None]
    sol = nlp.solution_from(nlp.pack([X], [U], [(0.0, 2.0)]))
    errs = estimate_error(sol.phases[0], ph.dynamics)
    assert errs[0] < 1e-9
    assert errs[1] > 1e-3
    assert errs[1] > 1e4 * errs[0]


def test_refine_raises_degree_by_overshoot_magnitude():
    mesh = MeshPhase([1.0], [3])
    out, changed = refine(mesh, np.array([1e-2]), RefinementOptions())
    assert changed
    # two decades over a 1e-4 tolerance: degree climbs by two
    assert out.degrees.tolist() == [5]
    assert out.fractions.tolist() == [1.0]


def test_refine_respects_minimum_degree():
    out, _ = refine(MeshPhase([1.0], [1]), np.array([2e-4]),
                    RefinementOptions())
    assert out.degrees.tolist() == [3]


def test_refine_splits_at_degree_cap():
    mesh = MeshPhase([1.0], [10])
    out, changed = refine(mesh, np.array([1e-3]), RefinementOptions())
    assert changed
    assert out.degrees.tolist() == [5, 5]
    assert np.allclose(out.fractions, [0.5, 0.5])
    # collocation points never shrink on a split
    assert out.n_coll >= mesh.n_coll


def test_refine_renormalizes_fractions():
    mesh = MeshPhase([0.5, 0.5], [10, 3])
    out, _ = refine(mesh, np.array([1e-3, 0.0]), RefinementOptions())
    assert out.degrees.tolist() == [5, 5, 3]
    assert np.allclose(out.fractions, [0.25, 0.25, 0.5])
    assert out.fractions.sum() == pytest.approx(1.0, abs=1e-15)


def test_refine_fixed_point_below_tolerance():
    mesh = MeshPhase([0.4, 0.6], [4, 4])
    out, changed = refine(mesh, np.array([0.0, 5e-5]), RefinementOptions())
    assert not changed
    assert out is mesh


def test_refine_requires_matching_error_length():
    with pytest.raises(ValueError):
        refine(MeshPhase([1.0], [3]), np.array([1e-3, 1e-3]),
               RefinementOptions())


def _exp_problem():
    # x' = x, x(0) = 1: exact solution e^t, not a polynomial
    ph = PhaseDef(
        "exp", 1, 1, lambda X, U: X,
        x_lo=[0.0], x_hi=[10.0], u_lo=[0.0], u_hi=[0.0],
        t0_lo=0.0, t0_hi=0.0, tf_lo=1.0, tf_hi=1.0,
        x0_lo=[1.0], x0_hi=[1.0])
    return MultiPhaseProblem([ph])


def test_refine_loop_reaches_tolerance():
    prob = _exp_problem()
    rep = refine_loop(prob, [uniform_mesh(1, 3)],
                      lambda nlp: nlp.clip_to_bounds(np.ones(nlp.n_var)),
                      RefinementOptions(mesh_tolerance=1e-6,
                                        max_refinements=6))
    assert rep.converged
    assert rep.iterations <= 4
    assert max(e.max() for e in rep.errors) <= 1e-6
    xf = rep.solution.phases[0].states[-1, 0]
    assert xf == pytest.approx(np.e, rel=1e-5)
    # history carries one entry per pass with per-phase meshes
    assert len(rep.history) == rep.iterations
    assert len(rep.solve_reports) == rep.iterations
    entry = rep.history[0]
    phase = entry["phases"][0]
    assert entry["iteration"] == 1
    assert phase["boundaries"][0] == 0.0 and phase["boundaries"][-1] == 1.0
    assert phase["degrees"] == [3]


def test_refine_loop_writes_history_file(tmp_path):
    path = tmp_path / "history.json"
    rep = refine_loop(_exp_problem(), [uniform_mesh(1, 3)],
                      lambda nlp: nlp.clip_to_bounds(np.ones(nlp.n_var)),
                      RefinementOptions(mesh_tolerance=1e-6,
                                        max_refinements=6),
                      history_path=str(path))
    data = json.loads(path.read_text())
    assert isinstance(data, list) and len(data) == rep.iterations
    assert set(data[0]) == {"iteration", "phases"}
    assert set(data[0]["phases"][0]) == {"boundaries", "degrees", "errors"}


def test_refine_loop_stops_when_mesh_cannot_change():
    # tolerance impossible, but the mesh is already at the degree cap
    prob = _exp_problem()
    rep = refine_loop(prob, [uniform_mesh(1, 10)],
                      lambda nlp: nlp.clip_to_bounds(np.ones(nlp.n_var)),
                      RefinementOptions(mesh_tolerance=1e-30,
                                        max_refinements=3, n_max=10,
                                        subdivision=2))
    # splitting is still allowed, so three passes run; no infinite loop
    assert rep.iterations <= 3
    assert rep.solution is not None


def test_refine_loop_transcribes_only_meshes_it_solves(monkeypatch):
    built = []

    def counting_transcribe(problem, meshes):
        built.append(meshes)
        return transcribe(problem, meshes)

    monkeypatch.setattr(meshref, "transcribe", counting_transcribe)
    opts = RefinementOptions(mesh_tolerance=1e-6, max_refinements=1)
    rep = refine_loop(_exp_problem(), [uniform_mesh(1, 3)],
                      lambda nlp: nlp.clip_to_bounds(np.ones(nlp.n_var)), opts)
    # the mesh needs refinement, but the one round allowed is spent
    assert max(e.max() for e in rep.errors) > opts.mesh_tolerance
    assert len(built) == len(rep.solve_reports) == 1
    solved = transcribe(_exp_problem(), [ph.mesh for ph in rep.solution.phases])
    assert len(rep.last_solve.x) == solved.n_var
