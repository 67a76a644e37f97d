import numpy as np
import pytest

from ascentry import nlpsolve
from ascentry.nlpsolve import (FunctionNLP, SolveReport, SolverOptions,
                               _CompactBFGS, color_columns, estimate_jacobian,
                               kkt_residuals, register_solver, solve,
                               SOLVER_PLUGINS)
from ascentry.transcription import (MultiPhaseProblem, PhaseDef, transcribe,
                                    uniform_mesh)


def test_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(tolerance=0.0)
    with pytest.raises(ValueError):
        SolverOptions(max_iterations=0)


def test_unknown_mode_raises():
    nlp = FunctionNLP(1, lambda z: z[0] ** 2)
    with pytest.raises(ValueError):
        solve(nlp, np.zeros(1), SolverOptions(mode="nope"))


def test_plugin_dispatch():
    name = "stub_for_test"

    @register_solver(name)
    def _stub(nlp, x0, options):
        from ascentry.nlpsolve import SolveReport
        return SolveReport(status="converged", iterations=0, objective=0.0,
                           violation=0.0, x=np.asarray(x0))

    try:
        rep = solve(FunctionNLP(2, lambda z: 0.0), np.array([1.0, 2.0]),
                    SolverOptions(mode=name))
        assert rep.converged and np.all(rep.x == [1.0, 2.0])
    finally:
        SOLVER_PLUGINS.pop(name, None)


def test_color_columns_tridiagonal():
    # tridiagonal pattern: three colors suffice and neighbours differ
    n = 12
    rows, cols = [], []
    for i in range(n):
        for j in (i - 1, i, i + 1):
            if 0 <= j < n:
                rows.append(i)
                cols.append(j)
    color = color_columns(np.array(rows), np.array(cols), n)
    assert color.max() <= 2
    for i in range(n - 1):
        assert color[i] != color[i + 1]


def test_estimate_jacobian_banded():
    n = 9

    def con(z):
        out = z ** 2
        out[1:] += 0.5 * z[:-1] ** 3
        return out

    rows = np.concatenate([np.arange(n), np.arange(1, n)])
    cols = np.concatenate([np.arange(n), np.arange(n - 1)])
    nlp = FunctionNLP(n, lambda z: 0.0, constraints=con,
                      c_lo=np.zeros(n), c_hi=np.zeros(n),
                      sparsity_pattern=(rows, cols))
    rng = np.random.default_rng(2)
    x = rng.uniform(-2.0, 2.0, n)
    J = estimate_jacobian(nlp, x).toarray()
    expect = np.diag(2 * x)
    expect[np.arange(1, n), np.arange(n - 1)] = 1.5 * x[:-1] ** 2
    assert np.allclose(J, expect, rtol=1e-6, atol=1e-7)


def test_estimate_jacobian_rejects_nonfinite_point():
    nlp = FunctionNLP(2, lambda z: 0.0, constraints=lambda z: z,
                      c_lo=np.zeros(2), c_hi=np.zeros(2))
    with pytest.raises(ValueError):
        estimate_jacobian(nlp, np.array([1.0, np.nan]))


def _bfgs_recursion(gamma, pairs, n):
    """Textbook BFGS recursion from gamma*I over the given pairs."""
    B = gamma * np.eye(n)
    for s, y in pairs:
        Bs = B @ s
        B = B - np.outer(Bs, Bs) / float(s @ Bs) + np.outer(y, y) / float(s @ y)
    return B


def test_compact_bfgs_matches_dense_recursion():
    rng = np.random.default_rng(8)
    n = 6
    bf = _CompactBFGS(n, memory=10)
    for _ in range(7):
        s = rng.normal(size=n)
        y = rng.normal(size=n) + 0.5 * s
        bf.update(s, y)
    B = bf.dense()
    # the compact form is the full recursion over the stored pairs
    ref = _bfgs_recursion(bf.gamma, list(zip(bf.S, bf.Y)), n)
    assert np.allclose(B, ref, rtol=1e-8, atol=1e-9)
    assert np.allclose(B, B.T, atol=1e-10)
    assert np.linalg.eigvalsh(B).min() > 0
    v = rng.normal(size=n)
    assert np.allclose(bf.mul(v), B @ v, rtol=1e-9, atol=1e-10)
    # secant equation for the most recent (damped) pair
    assert np.allclose(B @ bf.S[-1], bf.Y[-1], rtol=1e-7, atol=1e-8)


def test_compact_bfgs_rejects_degenerate_pairs():
    bf = _CompactBFGS(3)
    bf.update(np.zeros(3), np.ones(3))
    assert len(bf.S) == 0
    # opposing curvature gets damped, not discarded
    bf.update(np.array([1.0, 0.0, 0.0]), np.array([-1.0, 0.0, 0.0]))
    assert len(bf.S) == 1


def test_rosenbrock():
    def rosen(z):
        return (1 - z[0]) ** 2 + 100 * (z[1] - z[0] ** 2) ** 2

    def grad(z):
        return np.array([-2 * (1 - z[0]) - 400 * z[0] * (z[1] - z[0] ** 2),
                         200 * (z[1] - z[0] ** 2)])

    rep = solve(FunctionNLP(2, rosen, gradient=grad), np.array([-1.2, 1.0]))
    assert rep.converged
    assert np.abs(rep.x - 1.0).max() < 1e-5


def _equality_qp():
    return FunctionNLP(2, lambda z: z[0] ** 2 + z[1] ** 2,
                       gradient=lambda z: 2 * z,
                       constraints=lambda z: np.array([z[0] + z[1]]),
                       c_lo=np.array([1.0]), c_hi=np.array([1.0]),
                       jacobian=lambda z: np.array([[1.0, 1.0]]))


def test_equality_qp_solution_and_multiplier():
    rep = solve(_equality_qp(), np.array([3.0, -1.0]))
    assert rep.converged
    assert np.allclose(rep.x, 0.5, atol=1e-6)
    assert abs(abs(rep.multipliers[0]) - 1.0) < 1e-4
    stat, feas, comp = kkt_residuals(_equality_qp(), rep.x, rep.multipliers,
                                     rep.bound_multipliers)
    assert max(stat, feas, comp) < 1e-4


def test_bound_constrained_lp_corner():
    nlp = FunctionNLP(1, lambda z: -z[0], gradient=lambda z: np.array([-1.0]),
                      z_lo=np.array([0.0]), z_hi=np.array([2.0]))
    rep = solve(nlp, np.array([0.5]))
    assert rep.converged
    assert abs(rep.x[0] - 2.0) < 1e-6
    assert rep.bound_multipliers[0] > 0.5


def test_contradictory_equalities_reported_infeasible():
    nlp = FunctionNLP(2, lambda z: float(z @ z), gradient=lambda z: 2 * z,
                      constraints=lambda z: np.array([z[0] + z[1],
                                                      z[0] + z[1]]),
                      c_lo=np.array([1.0, 2.0]), c_hi=np.array([1.0, 2.0]),
                      jacobian=lambda z: np.array([[1.0, 1.0], [1.0, 1.0]]))
    rep = solve(nlp, np.zeros(2), SolverOptions(max_iterations=120))
    assert not rep.converged
    assert rep.violation > 0.1


def test_deterministic_repeat():
    def obj(z):
        return (z[0] - 0.3) ** 2 + 2.0 * (z[1] + 0.4) ** 2 + z[0] * z[1]

    a = solve(FunctionNLP(2, obj), np.zeros(2))
    b = solve(FunctionNLP(2, obj), np.zeros(2))
    assert a.iterations == b.iterations
    assert np.array_equal(a.x, b.x)


def test_iteration_log(tmp_path):
    path = tmp_path / "iters.csv"
    solve(_equality_qp(), np.array([3.0, -1.0]),
          SolverOptions(log_path=str(path)))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iteration,objective,feasibility,step_norm"
    assert len(lines) >= 2
    first = lines[1].split(",")
    assert int(first[0]) == 1
    float(first[1]), float(first[2]), float(first[3])


def test_x_scale_handles_disparate_magnitudes():
    def obj(z):
        return (z[0] / 1e4 - 1.0) ** 2 + (z[1] * 10.0 - 2.0) ** 2

    rep = solve(FunctionNLP(2, obj), np.zeros(2),
                SolverOptions(x_scale=np.array([1e4, 0.1])))
    assert rep.converged
    assert abs(rep.x[0] - 1e4) < 1e-1
    assert abs(rep.x[1] - 0.2) < 1e-5


def test_auto_scaling_from_bounds():
    # same badly scaled objective, but the boxes reveal the magnitudes
    def obj(z):
        return (z[0] / 1e4 - 1.0) ** 2 + (z[1] * 10.0 - 2.0) ** 2

    nlp = FunctionNLP(2, obj, z_lo=np.array([0.0, -1.0]),
                      z_hi=np.array([2e4, 1.0]))
    rep = solve(nlp, np.zeros(2))
    assert rep.converged
    assert abs(rep.x[0] - 1e4) < 1e-1


def test_transcribed_min_effort_transfer():
    # min int u^2 with xdot = u, x(0)=0, x(1)=1: u* = 1, J* = 1
    ph = PhaseDef(
        name="scalar", nx=1, nu=1, dynamics=lambda X, U: U,
        x_lo=np.array([-10.0]), x_hi=np.array([10.0]),
        u_lo=np.array([-10.0]), u_hi=np.array([10.0]),
        t0_lo=0.0, t0_hi=0.0, tf_lo=1.0, tf_hi=1.0,
        x0_lo=np.array([0.0]), x0_hi=np.array([0.0]),
        xf_lo=np.array([1.0]), xf_hi=np.array([1.0]),
        cost=lambda X, U: U[:, 0] ** 2)
    nlp = transcribe(MultiPhaseProblem(phases=[ph]), [uniform_mesh(2, 4)])
    z0 = nlp.clip_to_bounds(np.zeros(nlp.n_var))
    z0[nlp.phase_layout[0].tf_idx] = 1.0
    rep = solve(nlp, z0)
    assert rep.converged
    assert abs(rep.objective - 1.0) < 1e-5
    assert np.abs(nlp.controls(rep.x, 0) - 1.0).max() < 1e-4


def test_solve_reports_failed_final_evaluation(monkeypatch):
    def objective(z):
        raise RuntimeError("objective blew up")

    nlp = FunctionNLP(2, objective)
    monkeypatch.setattr(nlpsolve, "_solve_core", lambda nlp, x0, options:
                        SolveReport("converged", 3, 0.0, 0.0, x0.copy()))
    rep = solve(nlp, np.zeros(2))
    assert rep.status == "numerical_failure"
    assert "objective blew up" in rep.message


def test_nonfinite_derivatives_end_the_solve_as_a_failed_evaluation():
    # xdot = u, but the rate is infinite past x = 0.5; the start point sits
    # just below, so the constraints are finite and one probe is not
    ph = PhaseDef(
        name="scalar", nx=1, nu=1,
        dynamics=lambda X, U: np.where(X > 0.5, np.inf, U),
        x_lo=np.array([-10.0]), x_hi=np.array([10.0]),
        u_lo=np.array([-10.0]), u_hi=np.array([10.0]),
        t0_lo=0.0, t0_hi=0.0, tf_lo=1.0, tf_hi=1.0,
        cost=lambda X, U: U[:, 0] ** 2)
    nlp = transcribe(MultiPhaseProblem(phases=[ph]), [uniform_mesh(1, 3)])
    X = np.array([[0.0], [0.5 - 1e-9], [0.0], [0.0]])
    z0 = nlp.pack([X], [np.zeros((3, 1))], [(0.0, 1.0)])
    assert np.all(np.isfinite(nlp.constraints(z0)))
    rep = solve(nlp, z0)
    assert rep.status == "numerical_failure"
    assert "p0:scalar:def:k0:n1:x0" in rep.message
