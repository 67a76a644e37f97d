from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
import pytest
from hypothesis import given, settings, strategies as st

from ascentry import canonical, nlpsolve
from ascentry.nlpsolve import SolverOptions, kkt_residuals, solve
from ascentry.meshref import RefinementOptions, refine_loop
from ascentry.transcription import (_FD_STEP, MeshPhase, MultiPhaseProblem,
                                    PhaseDef, transcribe, uniform_mesh)


def _fd_vector(func, x, dim_out):
    """Dense central difference of a vector function of the vector x."""
    out = np.zeros((dim_out, len(x)))
    for j in range(len(x)):
        h = _FD_STEP * max(1.0, abs(x[j]))
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        out[:, j] = (np.atleast_1d(func(xp)) - np.atleast_1d(func(xm))) / (2.0 * h)
    return out


class FunctionNLP:
    """Wrap plain callables in the interface the solver consumes."""

    def __init__(self, n_var: int, objective: Callable,
                 z_lo=None, z_hi=None, gradient: Callable | None = None,
                 constraints: Callable | None = None, c_lo=None, c_hi=None,
                 jacobian: Callable | None = None):
        self.n_var = n_var
        self._obj = objective
        self._grad = gradient
        self._con = constraints
        self._jac = jacobian
        self.z_lo = np.full(n_var, -np.inf) if z_lo is None else np.asarray(z_lo, float)
        self.z_hi = np.full(n_var, np.inf) if z_hi is None else np.asarray(z_hi, float)
        if constraints is None:
            self.n_con = 0
            self.c_lo = np.zeros(0)
            self.c_hi = np.zeros(0)
        else:
            self.c_lo = np.atleast_1d(np.asarray(c_lo, float))
            self.c_hi = np.atleast_1d(np.asarray(c_hi, float))
            self.n_con = len(self.c_lo)

    def objective(self, z):
        return float(self._obj(z))

    def constraints(self, z):
        if self._con is None:
            return np.zeros(0)
        return np.atleast_1d(np.asarray(self._con(z), float))

    def objective_gradient(self, z):
        if self._grad is not None:
            return np.asarray(self._grad(z), float)
        return _fd_vector(self._obj, z, 1)[0]

    def jacobian(self, z):
        if self._jac is not None:
            return sp.csr_matrix(np.atleast_2d(self._jac(z)))
        return sp.csr_matrix(_fd_vector(self.constraints, z, self.n_con))

    def hessian(self, z, y):
        """Central differences of the Lagrangian gradient, symmetrized."""
        H = _fd_vector(lambda v: self.objective_gradient(v)
                       + self.jacobian(v).T @ y, z, self.n_var)
        return sp.csr_matrix(0.5 * (H + H.T))


def test_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(tolerance=0.0)
    with pytest.raises(ValueError):
        SolverOptions(max_iterations=0)


@pytest.mark.parametrize("make, rule", [
    # an infinite tolerance passed every test: double-integrator from zeros
    # reported "converged" after 1 iteration at violation 5.52
    (lambda: SolverOptions(tolerance=np.inf), "tolerance must be finite"),
    (lambda: SolverOptions(tolerance=np.nan), "tolerance must be finite"),
    (lambda: SolverOptions(max_iterations=2.5),
     "max_iterations must be an integer"),
    (lambda: SolverOptions(max_iterations=3.0),
     "max_iterations must be an integer"),
    (lambda: SolverOptions(max_iterations=True),
     "max_iterations must be an integer"),
    (lambda: RefinementOptions(mesh_tolerance=np.nan),
     "mesh_tolerance must be finite"),
    (lambda: RefinementOptions(mesh_tolerance=np.inf),
     "mesh_tolerance must be finite"),
    (lambda: RefinementOptions(max_refinements=1.5),
     "max_refinements must be an integer"),
])
def test_options_reject_nonfinite_and_fractional_values(make, rule):
    with pytest.raises(ValueError, match=f"^{rule}$"):
        make()
    # a numpy integer passes
    assert SolverOptions(max_iterations=np.int64(3)).max_iterations == 3
    assert RefinementOptions(max_refinements=np.int64(2)).max_refinements == 2


def test_function_nlp_differences_a_banded_jacobian():
    n = 9

    def con(z):
        out = z ** 2
        out[1:] += 0.5 * z[:-1] ** 3
        return out

    nlp = FunctionNLP(n, lambda z: 0.0, constraints=con,
                      c_lo=np.zeros(n), c_hi=np.zeros(n))
    rng = np.random.default_rng(2)
    x = rng.uniform(-2.0, 2.0, n)
    J = nlp.jacobian(x).toarray()
    expect = np.diag(2 * x)
    expect[np.arange(1, n), np.arange(n - 1)] = 1.5 * x[:-1] ** 2
    assert np.allclose(J, expect, rtol=1e-6, atol=1e-7)


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


def _valley():
    """Unconstrained and unbounded: the solve takes the m = 0 path."""
    return FunctionNLP(2, lambda z: (1 - z[0]) ** 2 + 10 * (z[1] - z[0] ** 2) ** 2,
                       gradient=lambda z: np.array([
                           -2 * (1 - z[0]) - 40 * z[0] * (z[1] - z[0] ** 2),
                           20 * (z[1] - z[0] ** 2)]))


@pytest.mark.parametrize("make", [_equality_qp, _valley])
def test_solver_and_kkt_residuals_share_one_rule(make):
    # unit-scale problems: no finite bound and no Jacobian entry above one,
    # so the solver's scaled units are the problem's own
    nlp = make()
    assert np.all(nlpsolve._bound_scale(nlp) == 1.0)
    rep = solve(nlp, np.array([3.0, -1.0]))
    assert rep.converged
    stat, feas, _ = kkt_residuals(make(), rep.x, rep.multipliers,
                                  rep.bound_multipliers)
    assert rep.stationarity == stat
    assert rep.violation == feas


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


# a derivative given with the wrong sign points every step uphill: the line
# search rejects each one, the trust box is quartered, a zero-step row is
# logged, and the eighth rejection ends the solve, judged by feasibility
# against sqrt(tol)
@pytest.mark.parametrize("nlp, z0, status, violation", [
    (FunctionNLP(2, lambda z: float(z @ z), gradient=lambda z: -2 * z),
     np.array([1.0, -0.5]), "max_iterations", 0.0),
    (FunctionNLP(1, lambda z: 0.0, constraints=lambda z: z ** 2, c_lo=4.0,
                 c_hi=4.0, jacobian=lambda z: -2 * z),
     np.array([1.0]), "infeasible", 3.0),
])
def test_rejected_steps_quarter_the_trust_box_until_the_search_stalls(
        monkeypatch, nlp, z0, status, violation):
    boxes = []
    elastic_qp = nlpsolve._elastic_qp

    def recorded(B, g, J, lo, hi, bl, bu):
        boxes.append(bu.max())
        return elastic_qp(B, g, J, lo, hi, bl, bu)

    monkeypatch.setattr(nlpsolve, "_elastic_qp", recorded)
    rep = solve(nlp, z0)
    assert (rep.status, rep.message) == (status, "line search stalled")
    assert rep.iterations == 8 and rep.violation == violation
    assert np.array_equal(rep.x, z0)
    assert [row["step_norm"] for row in rep.log] == [0.0] * 8
    assert boxes == [1e3 * 0.25 ** k for k in range(8)]


def test_deterministic_repeat():
    def obj(z):
        return (z[0] - 0.3) ** 2 + 2.0 * (z[1] + 0.4) ** 2 + z[0] * z[1]

    a = solve(FunctionNLP(2, obj), np.zeros(2))
    b = solve(FunctionNLP(2, obj), np.zeros(2))
    assert a.iterations == b.iterations
    assert np.array_equal(a.x, b.x)


def test_iteration_log():
    rep = solve(_equality_qp(), np.array([3.0, -1.0]))
    assert rep.converged and rep.log
    assert all(set(row) == {"iteration", "objective", "feasibility",
                            "step_norm", "qp_iterations"} for row in rep.log)
    # no bound binds in its subproblems: each takes the direct step, which
    # counts no interior-point iteration
    assert all(row["qp_iterations"] == 0 for row in rep.log)
    its = [row["iteration"] for row in rep.log]
    assert its[0] == 1 and its == sorted(set(its)) and its[-1] <= rep.iterations
    # each row is taken after its step: the last is the solver's answer
    last = rep.log[-1]
    assert last["objective"] == pytest.approx(rep.objective, abs=1e-12)
    assert last["feasibility"] <= 1e-6 < rep.log[0]["step_norm"]
    # the first step of a bounded problem whose bound binds runs the
    # interior-point method
    box = solve(_bound_quadratic(), np.array([0.5]))
    assert box.converged and box.log
    assert 0 < box.log[0]["qp_iterations"] <= nlpsolve.QP_ITERATIONS


def _bound_quadratic():
    """min (z - 3)^2 in 0 <= z <= 2: the answer sits on the upper bound."""
    return FunctionNLP(1, lambda z: float((z[0] - 3.0) ** 2),
                       gradient=lambda z: 2.0 * (z - 3.0),
                       z_lo=np.array([0.0]), z_hi=np.array([2.0]))


def test_a_refused_direct_step_hands_the_dense_solve_to_the_csr_loop(
        monkeypatch):
    # the bound binds, so the dense solve's first subproblem tries the
    # direct step, refuses it and runs the interior-point loop on CSR
    # copies of its blocks; it takes the steps of the same solve held as
    # CSR throughout, which tries no direct step
    real = nlpsolve._direct_step
    tried = []

    def recorded(*args):
        tried.append(True)
        return real(*args)

    monkeypatch.setattr(nlpsolve, "_direct_step", recorded)
    dense = solve(_bound_quadratic(), np.array([0.5]))
    assert dense.converged and tried
    assert dense.log[0]["qp_iterations"] > 0
    calls = len(tried)
    monkeypatch.setattr(nlpsolve, "DENSE_KKT_MAX", 0)
    csr = solve(_bound_quadratic(), np.array([0.5]))
    assert len(tried) == calls
    assert (dense.status, dense.iterations) == (csr.status, csr.iterations)
    assert [row["qp_iterations"] for row in dense.log] \
        == [row["qp_iterations"] for row in csr.log]
    assert np.abs(dense.x - csr.x).max() <= 1e-13 * np.abs(csr.x).max()


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
        name="scalar", nx=1, nu=1, node=lambda X, U: U,
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


def _badly_scaled():
    """Bounds up to 2e4 and a row with a coefficient of 3e3: neither the
    variables nor the row are in the solver's scaled units, and the row
    binds at the optimum."""
    return FunctionNLP(
        2, lambda z: (z[0] / 1e4 - 1.0) ** 2 + (10.0 * z[1] - 2.0) ** 2,
        z_lo=np.array([0.0, -1.0]), z_hi=np.array([2e4, 1.0]),
        gradient=lambda z: np.array([2e-4 * (z[0] / 1e4 - 1.0),
                                     20.0 * (10.0 * z[1] - 2.0)]),
        constraints=lambda z: np.array([3e3 * z[1] + z[0] ** 2 / 2e4]),
        c_lo=np.array([-np.inf]), c_hi=np.array([5e3]),
        jacobian=lambda z: np.array([[z[0] / 1e4, 3e3]]))


@pytest.mark.parametrize("max_iterations, status", [
    (2, "max_iterations"), (500, "converged")])
def test_report_holds_the_last_iterates_values_in_problem_units(
        max_iterations, status):
    nlp = _badly_scaled()
    assert nlpsolve._bound_scale(nlp).max() == 2e4
    rep = solve(nlp, np.array([5e3, 0.0]),
                SolverOptions(max_iterations=max_iterations))
    assert rep.status == status
    assert rep.objective == nlp.objective(rep.x)
    assert rep.violation == max(
        nlpsolve._violation(nlp.constraints(rep.x), nlp.c_lo, nlp.c_hi),
        nlpsolve._violation(rep.x, nlp.z_lo, nlp.z_hi))
    if rep.converged:
        assert nlp.constraints(rep.x)[0] == pytest.approx(5e3, rel=1e-6)


def test_failed_initial_evaluation_reports_the_clipped_start():
    def objective(z):
        raise RuntimeError("objective blew up")

    nlp = FunctionNLP(2, objective, z_lo=np.array([0.0, -1.0]),
                      z_hi=np.array([2e4, 1.0]))
    x0 = np.array([3e4, 0.3])
    rep = solve(nlp, x0)
    assert rep.status == "numerical_failure" and rep.iterations == 0
    assert "initial evaluation failed: objective blew up" in rep.message
    np.testing.assert_allclose(rep.x, [2e4, 0.3], rtol=1e-15, atol=0.0)
    assert np.isnan(rep.objective) and rep.violation == np.inf
    assert not rep.log


def test_failed_derivatives_after_an_accepted_step_end_the_solve():
    # the gradient evaluates at the start and raises where the first step
    # landed: the solve ends there, at the point it held, with the
    # subproblem's multipliers (the tie's -1) and no row for the step
    calls = []

    def gradient(z):
        calls.append(z.copy())
        if len(calls) > 1:
            raise RuntimeError("gradient blew up")
        return 2 * z

    nlp = _CachedDerivatives(
        2, lambda z: z[0] ** 2 + z[1] ** 2, gradient=gradient,
        constraints=lambda z: np.array([z[0] + z[1]]), c_lo=[1.0], c_hi=[1.0],
        J=sp.csr_matrix(np.ones((1, 2))), H=sp.csr_matrix(2.0 * np.eye(2)))
    rep = solve(nlp, np.array([3.0, -1.0]))
    assert rep.status == "numerical_failure" and rep.iterations == 1
    assert rep.message == "derivative evaluation failed: gradient blew up"
    assert np.array_equal(rep.x, [3.0, -1.0]) and not rep.log
    assert np.allclose(calls[1], [0.5, 0.5], rtol=0.0, atol=1e-12)
    assert rep.multipliers == pytest.approx([-1.0], abs=1e-12)


def test_a_trial_point_that_fails_to_evaluate_halves_the_step():
    # min (z - 3)^2 from 0, its objective raising past z = 2: the Newton
    # step's trial point, 3, counts as an infinite merit, and its half, 1.5,
    # is accepted
    tried = []

    def objective(z):
        tried.append(float(z[0]))
        if z[0] > 2.0:
            raise ValueError("outside the model")
        return (z[0] - 3.0) ** 2

    nlp = FunctionNLP(1, objective, gradient=lambda z: 2.0 * (z - 3.0))
    rep = solve(nlp, np.zeros(1), SolverOptions(max_iterations=1))
    assert rep.status == "max_iterations" and rep.iterations == 1
    assert tried == pytest.approx([0.0, 3.0, 1.5], rel=0.0, abs=1e-9)
    assert rep.x == pytest.approx([1.5], rel=0.0, abs=1e-9)
    assert rep.log[0]["step_norm"] == pytest.approx(1.5, rel=0.0, abs=1e-9)


def test_nonfinite_derivatives_end_the_solve_as_a_failed_evaluation():
    # xdot = u + exp(1000 x): at x = 0.709 the rate is finite and its
    # slope, 1000 times larger, is not, so the constraints evaluate and the
    # Jacobian does not
    ph = PhaseDef(
        name="scalar", nx=1, nu=1,
        node=lambda X, U: U + np.exp(1000.0 * X),
        x_lo=np.array([-10.0]), x_hi=np.array([10.0]),
        u_lo=np.array([-10.0]), u_hi=np.array([10.0]),
        t0_lo=0.0, t0_hi=0.0, tf_lo=1.0, tf_hi=1.0,
        cost=lambda X, U: U[:, 0] ** 2)
    nlp = transcribe(MultiPhaseProblem(phases=[ph]), [uniform_mesh(1, 3)])
    X = np.array([[0.0], [0.709], [0.0], [0.0]])
    z0 = nlp.pack([X], [np.zeros((3, 1))], [(0.0, 1.0)])
    assert np.all(np.isfinite(nlp.constraints(z0)))
    rep = solve(nlp, z0)
    assert rep.status == "numerical_failure"
    assert "p0:scalar:def:k0:n1:x0" in rep.message


def _unreachable_tie():
    # c(x) = x tied at 1e5 from x0 = 0: the trust box keeps the linearized
    # row violated, so its multiplier is the elastic weight every iteration
    return FunctionNLP(1, lambda z: float(z[0] ** 2), gradient=lambda z: 2 * z,
                       constraints=lambda z: z.copy(),
                       c_lo=np.array([1e5]), c_hi=np.array([1e5]),
                       jacobian=lambda z: np.array([[1.0]]))


def test_unreachable_tie_steps_to_the_box_edge_at_the_weight(monkeypatch):
    # one subproblem per iteration; each step sits on the trust box's edge
    # toward the tie, and the row's multiplier is the elastic weight
    real = nlpsolve._elastic_qp
    solves = []

    def recorded(*args):
        qp = real(*args)
        solves.append((args, qp))
        return qp

    monkeypatch.setattr(nlpsolve, "_elastic_qp", recorded)
    rep = solve(_unreachable_tie(), np.zeros(1), SolverOptions(max_iterations=3))
    assert rep.iterations == len(solves) == 3
    for (B, g, J, lo, hi, bl, bu), qp in solves:
        assert qp.converged
        assert qp.d[0] == pytest.approx(bu[0], rel=1e-12)
        assert qp.y[0] == pytest.approx(-nlpsolve.ELASTIC_WEIGHT, rel=1e-9)
    # the first step is the whole trust box, 1e3 in the scaled units
    assert rep.x[0] == pytest.approx(1e3 + 2e3 + 4e3, rel=1e-12)
    assert abs(rep.multipliers[0]) == pytest.approx(nlpsolve.ELASTIC_WEIGHT,
                                                    rel=1e-9)
    assert rep.message == ""


@pytest.mark.parametrize("J, lo, hi, bl, bu, least", [
    # met inside the box
    ([[1.0, 1.0]], [1.0], [1.0], [-1.0, -1.0], [1.0, 1.0], 0.0),
    # the tie: 1e5 against a box of +-1e3
    ([[1.0]], [1e5], [1e5], [-1e3], [1e3], 99_000.0),
    # one-sided rows, each missed by 3 at the box's nearest corner
    ([[1.0]], [5.0], [np.inf], [-1.0], [2.0], 3.0),
    ([[1.0]], [-np.inf], [-4.0], [-1.0], [2.0], 3.0),
    # a two-sided row short by 2, a row met only at d1 = -1, and a row
    # with both sides infinite that counts for nothing
    ([[1.0, 0.0], [0.0, 1.0], [5.0, 5.0]], [3.0, -np.inf, -np.inf],
     [4.0, -1.0, np.inf], [-1.0, -1.0], [1.0, 1.0], 2.0),
    ([[1.0]], [-np.inf], [np.inf], [-1.0], [1.0], 0.0),
])
def test_least_violation_matches_the_closed_form(J, lo, hi, bl, bu, least):
    # with no objective, the elastic step leaves the least l1 violation of
    # the rows that any step in the box can
    J, lo, hi = sp.csr_matrix(J), np.array(lo), np.array(hi)
    n = J.shape[1]
    qp = nlpsolve._elastic_qp(sp.csr_matrix((n, n)), np.zeros(n), J, lo, hi,
                              np.array(bl), np.array(bu))
    assert qp.converged
    assert nlpsolve._violation_l1(J @ qp.d, lo, hi) == pytest.approx(
        least, rel=1e-9, abs=1e-9)


def test_converged_subproblem_steps_leave_the_message_empty():
    rep = solve(_equality_qp(), np.array([3.0, -1.0]))
    assert rep.converged and rep.message == ""


def _box_qp():
    # min 1/2|d|^2 - 2 d0  s.t.  d0 + d1 + d2 = 1,  -1 <= d <= 0.5:
    # d0 sits on its upper bound, d = (0.5, 0.25, 0.25), with multiplier
    # -0.25 on the sum and 1.75 on d0's bound
    return (sp.identity(3, format="csr"), np.array([-2.0, 0.0, 0.0]),
            sp.csr_matrix(np.ones((1, 3))), np.array([1.0]), np.array([1.0]),
            np.full(3, -1.0), np.full(3, 0.5))


def test_elastic_qp_reaches_the_closed_form():
    qp = nlpsolve._elastic_qp(*_box_qp())
    assert qp.converged
    assert np.allclose(qp.d, [0.5, 0.25, 0.25], rtol=0.0, atol=1e-8)
    assert np.allclose(qp.y, [-0.25], rtol=0.0, atol=1e-8)
    assert np.allclose(qp.y_bnd, [1.75, 0.0, 0.0], rtol=0.0, atol=1e-8)


def _refuse_direct_step(monkeypatch):
    """Every subproblem runs the interior-point method."""
    monkeypatch.setattr(nlpsolve, "_direct_step", lambda *args: None)


def test_elastic_qp_stopped_at_its_cap_is_not_converged(monkeypatch):
    monkeypatch.setattr(nlpsolve, "QP_ITERATIONS", 3)
    qp = nlpsolve._elastic_qp(*_box_qp())
    assert qp.iterations == 3
    assert not qp.converged
    # the solve takes such steps, and says so; its subproblems have no
    # binding bound, so the direct step is refused to reach the cap
    _refuse_direct_step(monkeypatch)
    rep = solve(_equality_qp(), np.array([3.0, -1.0]),
                SolverOptions(max_iterations=2))
    assert rep.message.startswith("2 of 2 accepted steps came from a QP "
                                  "subproblem that stopped at its iteration cap")


def test_elastic_qp_does_not_cycle_on_an_interior_optimum(monkeypatch):
    # one variable, its optimum -g/B inside the box and the row; Mehrotra's
    # corrector alone bounces between the box's edges until the cap here
    monkeypatch.setattr(nlpsolve, "ELASTIC_WEIGHT", 1e5)
    qp = nlpsolve._elastic_qp(
        sp.csr_matrix([[52.6374]]), np.array([6.5967]),
        sp.csr_matrix([[0.6384]]), np.array([-1.3325]), np.array([np.inf]),
        np.array([-0.5207]), np.array([0.8575]))
    assert qp.converged and qp.iterations < 30
    assert qp.d[0] == pytest.approx(-6.5967 / 52.6374, rel=1e-9)
    assert np.abs(qp.y).max() < 1e-8 and np.abs(qp.y_bnd).max() < 1e-8


def test_elastic_qp_falls_back_to_the_pivoted_factor(monkeypatch):
    # a symmetric factor that fails every time: each iteration tries to
    # order K afresh, since no order is kept from a lost factor, and the
    # partially pivoted factor answers instead
    ordered, pivoted = [], []
    real_splu = nlpsolve.spla.splu

    def lost(M, *args):
        ordered.append(args)
        raise RuntimeError("Factor is exactly singular")

    def recorded_splu(A, **kwargs):
        pivoted.append(kwargs)
        return real_splu(A, **kwargs)

    monkeypatch.setattr(nlpsolve, "_symmetric_lu", lost)
    monkeypatch.setattr(nlpsolve.spla, "splu", recorded_splu)
    qp = nlpsolve._elastic_qp(*_box_qp())
    assert qp.converged
    assert np.allclose(qp.d, [0.5, 0.25, 0.25], rtol=0.0, atol=1e-8)
    assert np.allclose(qp.y, [-0.25], rtol=0.0, atol=1e-8)
    assert np.allclose(qp.y_bnd, [1.75, 0.0, 0.0], rtol=0.0, atol=1e-8)
    assert ordered == [()] * qp.iterations
    assert pivoted == [{}] * qp.iterations
    assert nlpsolve._ANALYSES == {}


def _lose_every_factor(monkeypatch):
    """Every factor of K loses a pivot: the symmetric factor and the
    pivoted one raise.  A solve holds CSR, so its subproblems try no
    direct step and run the interior-point loop."""
    def lost(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(nlpsolve, "DENSE_KKT_MAX", 0)
    monkeypatch.setattr(nlpsolve, "_symmetric_lu", lost)
    monkeypatch.setattr(nlpsolve.spla, "splu", lost)


def test_elastic_qp_ends_unconverged_where_every_factor_is_lost(monkeypatch):
    # the symmetric factor and the pivoted one both lose a pivot: the
    # subproblem ends with its last iterate, flagged, as at its cap
    _lose_every_factor(monkeypatch)
    qp = nlpsolve._elastic_qp(*_box_qp())
    assert not qp.converged and qp.factor_lost and qp.iterations == 0
    assert np.all(np.isfinite(qp.d)) and np.all(np.isfinite(qp.y))


def test_solve_reports_a_status_where_every_factor_is_lost(monkeypatch):
    # the subproblem says its factors were lost, and the solve ends on it
    _lose_every_factor(monkeypatch)
    rep = solve(_equality_qp(), np.array([3.0, -1.0]))
    assert rep.status == "numerical_failure" and rep.iterations == 1
    assert rep.message == ("every factor of a QP subproblem's KKT matrix "
                           "lost a pivot")
    assert np.all(np.isfinite(rep.x))


def test_a_zero_pivot_of_k_alone_is_passed_by_the_factor_of_k_plus_reg(
        monkeypatch):
    # B = [[1, 1], [1, 1]] is semidefinite, so the shift leaves it alone;
    # in a box of +-1e6 the multipliers' Sigma falls below the rounding of
    # B's scaled entries and K = B/s + Sigma rounds to a singular matrix.
    # Each symmetric factor is of K + diag(reg), which carries the
    # subproblem, with no pivoted factor, to the minimum nearest the middle
    # of the box, d1 + d2 = 1.  The first iteration orders K by minimum
    # degree, and every iteration factors K in that order
    real_splu = nlpsolve.spla.splu
    pivoted, orders = [], []

    def recorded_splu(A, **kwargs):
        pivoted.append(not kwargs)
        orders.append(kwargs.get("permc_spec"))
        return real_splu(A, **kwargs)

    monkeypatch.setattr(nlpsolve.spla, "splu", recorded_splu)
    qp = nlpsolve._elastic_qp(sp.csr_matrix(np.ones((2, 2))), np.full(2, -1.0),
                              sp.csr_matrix((0, 2)), np.zeros(0), np.zeros(0),
                              np.full(2, -1e6), np.full(2, 1e6))
    assert qp.converged and not qp.factor_lost
    assert qp.iterations == 12
    assert not any(pivoted)
    assert orders == ["MMD_AT_PLUS_A"] + ["NATURAL"] * qp.iterations
    assert np.allclose(qp.d, [0.5, 0.5], rtol=0.0, atol=1e-8)
    assert np.abs(qp.y_bnd).max() < 1e-8


def test_the_last_steps_keep_the_regularization_that_refines_them(
        monkeypatch):
    # a draw of the property test's kind (two variables fixed, weight 1e7)
    # whose last steps need the second back-solve that reg at 1e-9 forces:
    # with reg at 1e-12 in every iteration each solve meets its 1e-10 test
    # after one back-solve, and the dual residual stalls at 2e-8, above
    # QP_TOLERANCE, when 1 - mu s rounds to 1.  reg is cut to 1e-3 of 1e-9
    # only while mu s is above 1e3
    monkeypatch.setattr(nlpsolve, "ELASTIC_WEIGHT", 1e7)
    B = sp.csr_matrix([[4.3, 1.8, 1.5, 0.96, -1.4],
                       [1.8, 2.1, 0.15, 1.7, -2.2],
                       [1.5, 0.15, 0.76, -0.17, 0.16],
                       [0.96, 1.7, -0.17, 1.5, -2.0],
                       [-1.4, -2.2, 0.16, -2.0, 2.6]])
    g = np.array([0.52, -0.98, -1.0, -2.3, 0.041])
    J = sp.csr_matrix([[0.0, 0.87, -1.8, 0.0, 0.0],
                       [1.3, -1.5, 0.0, 1.1, 0.64],
                       [0.51, 0.29, -0.19, 0.0, 0.0],
                       [-0.98, 0.0, 0.0, 2.0, 2.0]])
    lo = np.array([-np.inf, -1.0, 0.78, -8.5])
    hi = np.array([4.4, -1.0, 2.8, np.inf])
    bl = np.array([0.0, 0.0, -0.62, -0.86, -0.77])
    bu = np.array([0.0, 0.0, 0.46, 0.66, 0.94])
    qp = nlpsolve._elastic_qp(B, g, J, lo, hi, bl, bu)
    assert qp.converged and qp.iterations == 12
    assert qp.dual_res <= 1e-12


def _orders_made(monkeypatch):
    """The order of each K (or free block) SuperLU orders by minimum degree,
    recorded as it is asked for."""
    real_splu = nlpsolve.spla.splu
    made = []

    def recorded_splu(A, **kwargs):
        if kwargs.get("permc_spec") == "MMD_AT_PLUS_A":
            made.append(A.shape[0])
        return real_splu(A, **kwargs)

    monkeypatch.setattr(nlpsolve.spla, "splu", recorded_splu)
    return made


def _qp_bytes(qp):
    return ([np.asarray(a).tobytes() for a in (qp.d, qp.y, qp.y_bnd)]
            + [qp.iterations, qp.converged])


def test_a_kept_analysis_serves_its_pattern_and_a_changed_free_set_misses(
        monkeypatch):
    # the box QP's K (order 4) is ordered once: solved again, it makes no
    # new order and gives the same bytes.  Fixing a variable cuts another
    # free block, so K has another pattern (order 3) and is ordered afresh
    made = _orders_made(monkeypatch)
    B, g, J, lo, hi, bl, bu = _box_qp()
    first = nlpsolve._elastic_qp(B, g, J, lo, hi, bl, bu)
    again = nlpsolve._elastic_qp(B, g, J, lo, hi, bl, bu)
    assert first.converged and made == [4]
    assert _qp_bytes(again) == _qp_bytes(first)
    bl[2] = bu[2] = 0.0
    fixed = nlpsolve._elastic_qp(B, g, J, lo, hi, bl, bu)
    assert fixed.converged and made == [4, 3]
    assert len(nlpsolve._ANALYSES) == 2


def test_kept_analyses_stay_bounded(monkeypatch):
    # one K pattern per number of fixed variables: past ANALYSES_KEPT
    # patterns the least recently used is dropped, and a pattern used
    # again outlives older ones
    made = _orders_made(monkeypatch)
    kept = nlpsolve.ANALYSES_KEPT
    n = kept + 3
    B, g = sp.identity(n, format="csr"), -np.ones(n)
    J = sp.csr_matrix(np.ones((1, n)))

    def fixing(k):
        bl, bu = np.full(n, -1.0), np.full(n, 0.5)
        bl[:k] = bu[:k] = 0.0
        assert nlpsolve._elastic_qp(B, g, J, np.ones(1), np.ones(1),
                                    bl, bu).converged

    for k in range(n):
        fixing(k)
        assert len(nlpsolve._ANALYSES) == min(k + 1, kept)
    assert len(made) == n
    oldest = n - kept
    fixing(oldest)      # kept, and now the most recently used
    assert len(made) == n
    fixing(0)           # dropped: ordered afresh, dropping oldest + 1
    assert len(made) == n + 1 and len(nlpsolve._ANALYSES) == kept
    fixing(oldest)
    assert len(made) == n + 1
    fixing(oldest + 1)
    assert len(made) == n + 2


def _report_bytes(rep):
    return ([a.tobytes() for a in (rep.x, rep.multipliers,
                                   rep.bound_multipliers)]
            + [rep.status, rep.iterations, repr(rep.log)])


def test_a_csr_solve_ends_on_the_same_bytes_from_a_kept_analysis(
        monkeypatch):
    # double-integrator held as CSR runs the interior-point loop in every
    # subproblem; solved again from the same start it finds each K pattern
    # analyzed, makes no minimum-degree order, and ends on the same bytes:
    # every factor of K is made in the analysis's order either way
    _hold_as("csr", monkeypatch)
    made = _orders_made(monkeypatch)
    problem, meshes = canonical.CANONICAL_PROBLEMS["double-integrator"]()
    nlp = transcribe(problem, meshes)
    x0 = canonical.straight_line_guess(nlp)
    cold = solve(nlp, x0)
    ordered = len(made)
    warm = solve(nlp, x0)
    assert cold.converged and sum(row["qp_iterations"] for row in cold.log)
    assert 1 <= ordered <= len(cold.log) and len(made) == ordered
    assert _report_bytes(warm) == _report_bytes(cold)


@pytest.mark.parametrize("J, bl, bu", [
    ([[1.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.0],
      [0.0, 1e7, 5e8, -8.5e8, 3.5e8, 0.0, -0.5]],
     [-0.55, -1.0, -0.64, -1.6, -1.0, -0.55, -1.5],
     [0.15, 1.0, 1.36, 0.39, 1.0, 0.15, 0.5]),
    ([[1.0, -1.0, 0.0, 0.0, 0.0, 0.0],
      [0.0, 0.0, 1e7, 5e8, -8.5e8, 3.5e8]],
     [-0.55, -0.55, -1.0, -0.64, -1.6, -1.0],
     [0.15, 0.15, 1.0, 1.36, 0.39, 1.0]),
], ids=["gap_on_zero", "mu_vanishes"])
def test_elastic_qp_stops_where_the_fraction_to_the_boundary_rounds_to_one(
        J, bl, bu):
    # two rows of a mission subproblem with a zero objective, B = 0 and
    # g = 0, rounded: the second row's coefficients near 1e9 leave a
    # rounding floor in its residual above QP_TOLERANCE, so the primal test
    # never passes while mu falls past 1e-16 / s.  There tau = 1 - mu s is
    # 1, and a step that puts a blocking gap on 0 made Sigma = z / w divide
    # by 0 (the first case) or mu vanish (the second).  The subproblem ends
    # there instead, with its last iterate, flagged as at its cap
    n = len(bl)
    qp = nlpsolve._elastic_qp(sp.csr_matrix((n, n)), np.zeros(n),
                              sp.csr_matrix(J), np.array([0.0, 0.06]),
                              np.array([0.0, 0.06]), np.array(bl),
                              np.array(bu))
    assert not qp.converged and not qp.factor_lost
    assert qp.iterations < nlpsolve.QP_ITERATIONS
    assert np.all(np.isfinite(qp.d)) and np.all(np.isfinite(qp.y))
    assert np.all(np.array(bl) <= qp.d) and np.all(qp.d <= np.array(bu))


def _quasi_definite_sequence(n, m, steps, seed):
    """[Q + Sigma, J'; J, -D] on one pattern, its values drawn afresh at
    each step: Q = F'F with F's pattern fixed, Sigma and D positive."""
    rng = np.random.default_rng(seed)
    F = sp.random(n, n, density=0.15, random_state=rng, format="csr")
    J = sp.random(m, n, density=0.2, random_state=rng, format="csr")
    for _ in range(steps):
        F.data = rng.standard_normal(F.nnz)
        J.data = rng.standard_normal(J.nnz)
        K = sp.bmat([[F.T @ F + sp.diags(rng.uniform(1e-3, 1e3, n)), J.T],
                     [J, -sp.diags(rng.uniform(1e-6, 1.0, m))]], format="csc")
        K.sum_duplicates()
        K.sort_indices()
        yield K


def test_ordered_factor_matches_a_freshly_ordered_one():
    # one minimum-degree order, from the sequence's first matrix, serves
    # every later one: the same fill, the same pivot signs (n positive, m
    # negative) and the same solve as ordering each matrix afresh.  The
    # one-column panels change only rounding: SuperLU's default panels and
    # relaxation give the same pivot signs and the same solve
    n, m = 40, 25
    Ks = list(_quasi_definite_sequence(n, m, 6, seed=3))
    first = nlpsolve._symmetric_lu(Ks[0])
    factor = nlpsolve._ordered_lu(Ks[0], first.perm_c)
    rng = np.random.default_rng(4)
    for K in Ks:
        assert np.array_equal(K.indptr, Ks[0].indptr)
        assert np.array_equal(K.indices, Ks[0].indices)
        fresh = nlpsolve._symmetric_lu(K)
        wide = spla.splu(K, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                         options=dict(SymmetricMode=True))
        lu, solve = factor(K)
        assert lu.L.nnz + lu.U.nnz == fresh.L.nnz + fresh.U.nnz
        signs = np.sign(lu.U.diagonal())
        assert np.array_equal(signs, np.sign(fresh.U.diagonal()))
        assert np.array_equal(np.sign(fresh.U.diagonal()),
                              np.sign(wide.U.diagonal()))
        assert np.sum(signs < 0) == m and np.sum(signs > 0) == n
        b = rng.standard_normal(n + m)
        x, x_fresh, x_wide = solve(b), fresh.solve(b), wide.solve(b)
        assert np.abs(x - x_fresh).max() <= 1e-12 * np.abs(x_fresh).max()
        assert np.abs(x_wide - x_fresh).max() <= 1e-12 * np.abs(x_fresh).max()
        assert np.abs(K @ x - b).max() <= 1e-9 * np.abs(b).max()


def _in_form(form, *matrices):
    """The matrices as dense arrays ("dense"), which try the direct step
    before the interior-point loop, or as CSR ("sparse"), which go straight
    to it."""
    return [M.toarray() if form == "dense" else M for M in matrices]


# positive definite, no multiple of I, every variable coupled
_COUPLED = np.array([[2.0, 0.5, 0.0], [0.5, 1.5, 0.4], [0.0, 0.4, 3.0]])


@pytest.mark.parametrize("form", ["sparse", "dense"])
def test_elastic_qp_with_a_coupled_hessian_reaches_the_dense_kkt_solution(
        form):
    _, g, J, lo, hi, bl, bu = _box_qp()
    assert np.linalg.eigvalsh(_COUPLED).min() > 0.0
    # the box QP's active set: the sum row and d0 on its upper bound
    A = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 0.0]])
    kkt = np.block([[_COUPLED, A.T], [A, np.zeros((2, 2))]])
    sol = np.linalg.solve(kkt, np.concatenate([-g, [lo[0], bu[0]]]))
    d, nu = sol[:3], sol[3:]
    assert np.all(np.abs(d[1:]) < 0.5) and nu[1] > 0.0
    B, J = _in_form(form, sp.csr_matrix(_COUPLED), J)
    qp = nlpsolve._elastic_qp(B, g, J, lo, hi, bl, bu)
    assert qp.converged
    assert np.allclose(qp.d, d, rtol=0.0, atol=1e-8)
    assert np.allclose(qp.y, nu[:1], rtol=0.0, atol=1e-8)
    assert np.allclose(qp.y_bnd, [nu[1], 0.0, 0.0], rtol=0.0, atol=1e-8)


def test_complementarity_takes_the_bound_each_multiplier_pushes_on():
    inf = np.inf
    vals = np.array([0.5, 2.0, 1.0, 3.0, 7.0])
    lo = np.array([0.0, -inf, 0.0, 1.0, 0.0])
    hi = np.array([1.0, 3.0, inf, inf, 9.0])
    mult = np.array([2.0, -0.25, 0.5, -3.0, 0.0])
    # 2*|1-0.5|, |-0.25| against an infinite lower, 0.5 against an infinite
    # upper, 3*|3-1|; a zero multiplier counts for nothing
    assert nlpsolve._complementarity((vals, lo, hi, mult)) == 6.0
    assert nlpsolve._complementarity((vals[:3], lo[:3], hi[:3], mult[:3]),
                                     (vals[3:], lo[3:], hi[3:], mult[3:])) == 6.0
    assert nlpsolve._complementarity((vals[:3], lo[:3], hi[:3], mult[:3])) == 1.0
    assert nlpsolve._complementarity((np.zeros(0),) * 4) == 0.0


@st.composite
def _elastic_subproblems(draw):
    """A small convex QP of the SQP's shape: B positive semidefinite (zero
    too), tied, ranged and one-sided rows, a finite box around zero with
    some variables fixed, and an elastic weight from 10 to 1e10."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 6))
    m = draw(st.integers(0, 6))
    F = rng.standard_normal((draw(st.integers(0, n)), n))
    B = sp.csr_matrix(draw(st.sampled_from([0.0, 0.1, 1.0, 10.0])) * F.T @ F)
    g = draw(st.sampled_from([0.0, 0.1, 1.0, 10.0])) * rng.standard_normal(n)
    J = sp.csr_matrix(rng.standard_normal((m, n)) * (rng.random((m, n)) < 0.7))
    center = 3.0 * rng.standard_normal(m)
    kind = rng.integers(0, 4, m)    # tied, ranged, lower side, upper side
    lo = np.where(kind == 3, -np.inf, center - (kind == 1))
    hi = np.where(kind == 2, np.inf, center + (kind == 1))
    delta = draw(st.sampled_from([0.01, 1.0, 100.0]))
    bl = -delta * rng.uniform(0.1, 1.0, n)
    bu = delta * rng.uniform(0.1, 1.0, n)
    fixed = rng.random(n) < 0.2
    bl[fixed] = bu[fixed] = 0.0
    weight = 10.0 ** draw(st.integers(1, 10))
    return weight, (B, g, J, lo, hi, bl, bu)


@pytest.mark.parametrize("form", ["sparse", "dense"])
@settings(max_examples=200, deadline=None)
@given(_elastic_subproblems())
def test_elastic_qp_meets_the_elastic_kkt_conditions(form, case):
    weight, (B, g, J, lo, hi, bl, bu) = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nlpsolve, "ELASTIC_WEIGHT", weight)
        B, J = _in_form(form, B, J)
        qp = nlpsolve._elastic_qp(B, g, J, lo, hi, bl, bu)
    assert qp.converged
    d, y, y_bnd = qp.d, qp.y, qp.y_bnd
    tol = 1e-7
    # stationarity, against the largest term it sums
    terms = max(1.0, np.abs(g).max(), (abs(B) @ np.abs(d)).max(),
                (abs(J).T @ np.abs(y)).max(initial=0.0), np.abs(y_bnd).max())
    assert np.abs(B @ d + g + J.T @ y + y_bnd).max() <= tol * terms
    # the box holds; |y| <= weight, and a row is left violated only where
    # its multiplier is the weight, on the violated side
    assert np.all(bl <= d) and np.all(d <= bu)
    assert np.all(np.abs(y) <= weight * (1 + tol))
    r = J @ d
    size = max(1.0, np.abs(r).max(initial=0.0))
    short = np.maximum(np.maximum(lo - r, r - hi), 0.0)
    assert np.all(short * (weight - np.abs(y)) <= tol * weight * size)
    met = short <= tol * size
    assert np.all(np.sign(y[~met]) == np.where(r > hi, 1.0, -1.0)[~met])
    # complementarity: on the rows met and the box, each multiplier pushes
    # only on the side its row or variable sits on
    ymax = max(1.0, np.abs(y).max(initial=0.0), np.abs(y_bnd).max())
    assert nlpsolve._complementarity((r[met], lo[met], hi[met], y[met]),
                                     (d, bl, bu, y_bnd)) <= tol * ymax * size


@pytest.mark.parametrize("name", sorted(canonical.CANONICAL_PROBLEMS))
def test_canonical_subproblems_converge(name, monkeypatch):
    # every subproblem of a default-mesh solve meets its tolerance in at
    # most 7 interior-point iterations (13 before the elastic multipliers
    # started at their price and the Gondzio corrector), the direct step
    # refused: it would take each of them in none
    _refuse_direct_step(monkeypatch)
    real = nlpsolve._elastic_qp
    solved = []

    def recorded(*args):
        qp = real(*args)
        solved.append(qp)
        return qp

    monkeypatch.setattr(nlpsolve, "_elastic_qp", recorded)
    problem, meshes = canonical.CANONICAL_PROBLEMS[name]()
    nlp = transcribe(problem, meshes)
    rep = solve(nlp, canonical.straight_line_guess(nlp),
                SolverOptions(tolerance=1e-6))
    assert rep.converged and rep.message == ""
    assert solved and all(qp.converged for qp in solved)
    assert max(qp.iterations for qp in solved) <= 7


def _shift_of(B, form):
    """`_shift` of the CSR matrix B, handed over as it is or as a dense
    array, and the delta of the other form."""
    csr = nlpsolve._shift(B)
    dense = nlpsolve._shift(B.toarray())
    return (csr, dense) if form == "csr" else (dense, csr)


@pytest.mark.parametrize("form", ["csr", "dense"])
def test_shift_leaves_a_semidefinite_hessian_alone(form):
    # singular and positive semidefinite, with an empty row and column
    rng = np.random.default_rng(5)
    F = rng.standard_normal((3, 6))
    F[:, 4] = 0.0
    B = sp.csr_matrix(F.T @ F)
    assert np.linalg.eigvalsh(B.toarray()).min() > -1e-12
    delta, other = _shift_of(B, form)
    assert delta == 0.0 and other == delta
    delta, other = _shift_of(sp.csr_matrix((4, 4)), form)
    assert delta == 0.0 and other == delta


@pytest.mark.parametrize("seed, form", [
    pytest.param(seed, form,
                 id=str(seed) if form == "csr" else f"{seed}-dense")
    for form in ("csr", "dense") for seed in range(5)])
def test_shift_removes_the_negative_eigenvalues(seed, form):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((7, 7)))
    lam = np.concatenate([-10.0 ** rng.uniform(-6, 3, 2), rng.uniform(0, 5, 5)])
    B = sp.csr_matrix((Q * lam) @ Q.T)
    delta, other = _shift_of(B, form)
    assert other == delta
    assert delta >= -lam.min()
    assert np.linalg.eigvalsh(B.toarray() + delta * np.eye(7)).min() >= 0.0
    # a rung of the ladder, and the lowest that does: the rung below
    # leaves a negative eigenvalue
    first = 1e-8 * abs(B).max()
    rung = np.log10(delta / first)
    assert rung == pytest.approx(round(rung), abs=1e-9)
    if rung > 0.5:
        assert np.linalg.eigvalsh(B.toarray() + delta / 10 * np.eye(7)).min() < 0


@pytest.mark.parametrize("form", ["csr", "dense"])
def test_shift_factors_no_rung_that_leaves_a_diagonal_entry_at_or_below_0(
        form, monkeypatch):
    # B_00 = -1e-3: the rungs 0 and 1e-8 to 1e-4 leave it <= 0, so no
    # factor can pass them and none is made; 1e-3, 1e-2 and 1e-1 are
    # factored and fail, and 1 passes the Gershgorin bound (0.501) untested
    B = sp.csr_matrix([[-1e-3, 0.5], [0.5, 1.0]])
    diagonals = []
    real_lu, real_potrf = nlpsolve._symmetric_lu, nlpsolve.lapack.dpotrf

    def lu(M, *args):
        diagonals.append(M.diagonal())
        return real_lu(M, *args)

    def potrf(M, **kwargs):
        diagonals.append(M.diagonal().copy())
        return real_potrf(M, **kwargs)

    monkeypatch.setattr(nlpsolve, "_symmetric_lu", lu)
    monkeypatch.setattr(nlpsolve.lapack, "dpotrf", potrf)
    delta = nlpsolve._shift(B if form == "csr" else B.toarray())
    assert delta == 1.0
    assert len(diagonals) == 3
    assert all(np.all(diagonal > 0.0) for diagonal in diagonals)


@pytest.mark.parametrize("form", ["csr", "dense"])
def test_shift_ends_its_ladder_at_the_gershgorin_bound_unfactored(
        form, monkeypatch):
    # B = [[1, 5], [5, 1]] has the eigenvalue -4 and the Gershgorin bound 4
    # (a row's off-diagonal sum less its diagonal); b = 5, so the rungs
    # below the bound are 0 and 5e-8 to 0.5, each factored, each failing.
    # The next rung, 5, is the first at or above the bound: it is returned
    # without a factor
    B = sp.csr_matrix([[1.0, 5.0], [5.0, 1.0]])
    shifts = []
    real_lu, real_potrf = nlpsolve._symmetric_lu, nlpsolve.lapack.dpotrf

    def lu(M, *args):
        shifts.append(M.diagonal()[0] - 1.0)
        return real_lu(M, *args)

    def potrf(M, **kwargs):
        shifts.append(M[0, 0] - 1.0)
        return real_potrf(M, **kwargs)

    monkeypatch.setattr(nlpsolve, "_symmetric_lu", lu)
    monkeypatch.setattr(nlpsolve.lapack, "dpotrf", potrf)
    delta = nlpsolve._shift(B if form == "csr" else B.toarray())
    rungs = [0.0] + [5e-8 * 10.0 ** k for k in range(8)]
    assert shifts == pytest.approx([r + 5e-12 for r in rungs], rel=1e-9)
    assert delta == pytest.approx(5.0, rel=1e-12) and delta >= 4.0
    assert rungs[-1] < 4.0
    assert all(np.linalg.eigvalsh(B.toarray() + c * np.eye(2)).min() < 0.0
               for c in shifts)
    assert np.linalg.eigvalsh(B.toarray() + delta * np.eye(2)).min() > 0.0


def test_a_hessian_storing_no_diagonal_entry_is_shifted_alike_in_both_forms(
        monkeypatch):
    # min z0 z1 in a box of +-1: B = [[0, 1], [1, 0]] stores no diagonal
    # entry and has the eigenvalue -1, so the ladder runs to the Gershgorin
    # bound, 1.  The subproblem hands its free block to `_shift` in the
    # form the solve holds, and the CSR block plus I stores the whole
    # diagonal: from (0.5, -0.25) both forms take the step of
    # min 1/2 d'[[1, 1], [1, 1]]d + g'd in the trust box, g = (-0.25, 0.5),
    # which is its corner (0.5, -0.75) (the saddle of B alone is inside it)
    H = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert H.nnz == 2
    assert nlpsolve._shift(H) == nlpsolve._shift(H.toarray()) == 1.0
    real_shift, real_qp = nlpsolve._shift, nlpsolve._elastic_qp
    blocks, steps = [], []

    def recorded_shift(Q):
        blocks.append((Q.copy(), real_shift(Q)))
        return blocks[-1][1]

    def recorded_qp(*args):
        qp = real_qp(*args)
        steps.append(qp.d)
        return qp

    monkeypatch.setattr(nlpsolve, "_shift", recorded_shift)
    monkeypatch.setattr(nlpsolve, "_elastic_qp", recorded_qp)
    nlp = _CachedDerivatives(
        2, lambda z: z[0] * z[1], gradient=lambda z: z[::-1].copy(),
        z_lo=np.full(2, -1.0), z_hi=np.full(2, 1.0),
        J=sp.csr_matrix((0, 2)), H=H)
    options = SolverOptions(max_iterations=1)
    solve(nlp, np.array([0.5, -0.25]), options)
    monkeypatch.setattr(nlpsolve, "DENSE_KKT_MAX", 0)
    solve(nlp, np.array([0.5, -0.25]), options)
    (dense, dense_delta), (csr, csr_delta) = blocks
    assert isinstance(dense, np.ndarray) and sp.isspmatrix_csr(csr)
    assert csr.nnz == 2 and np.array_equal(csr.toarray(), dense)
    assert np.array_equal(dense, H.toarray())
    assert dense_delta == csr_delta == 1.0
    assert len(steps) == 2
    for d in steps:
        assert np.allclose(d, [0.5, -0.75], rtol=0.0, atol=1e-8)


@pytest.mark.parametrize("form", ["sparse", "dense"])
def test_an_indefinite_hessian_is_solved_shifted_on_its_free_block(form):
    # B is indefinite on the free block of z0 and z1, and z2 is fixed: the
    # subproblem is the one of B_f + _shift(B_f) I, here B_f + I, on its
    # free block, and its answer the box corner (1, -1), not the saddle of
    # B_f alone inside the box
    B = sp.csr_matrix([[0.0, 1.0, 2.0], [1.0, 0.0, 0.0], [2.0, 0.0, -3.0]])
    g = np.array([-0.25, 0.5, 7.0])
    J, lo, hi = sp.csr_matrix([[1.0, -1.0, 5.0]]), np.array([-np.inf]), \
        np.array([10.0])
    bl, bu = np.array([-1.0, -1.0, 0.0]), np.array([1.0, 1.0, 0.0])
    free = bl < bu
    delta = nlpsolve._shift(B.toarray()[np.ix_(free, free)])
    assert delta == 1.0
    shifted = B + sp.diags(np.where(free, delta, 0.0))
    qp = nlpsolve._elastic_qp(*_in_form(form, B), g, *_in_form(form, J),
                              lo, hi, bl, bu)
    ref = nlpsolve._elastic_qp(*_in_form(form, sp.csr_matrix(shifted)), g,
                               *_in_form(form, J), lo, hi, bl, bu)
    assert qp.converged and qp.iterations == ref.iterations
    for name in ("d", "y", "y_bnd"):
        assert np.array_equal(getattr(qp, name), getattr(ref, name))
    assert np.allclose(qp.d, [1.0, -1.0, 0.0], rtol=0.0, atol=1e-8)


@pytest.mark.parametrize("name", sorted(canonical.CANONICAL_PROBLEMS))
def test_canonical_default_mesh_converges_in_newton_steps(name):
    # the canonical problems are linear-quadratic, so the Newton step on
    # the exact Hessian is the answer, whatever the start
    problem, meshes = canonical.CANONICAL_PROBLEMS[name]()
    nlp = transcribe(problem, meshes)
    rep = solve(nlp, canonical.straight_line_guess(nlp),
                SolverOptions(tolerance=1e-6))
    assert rep.converged and rep.iterations == 2


@pytest.mark.parametrize("name", sorted(canonical.CANONICAL_PROBLEMS))
def test_canonical_grid_converges_after_one_qp(name):
    # one QP, then the convergence test at the point the step landed on:
    # the box-fixed variables' bound multipliers are read there, so no
    # second QP is spent on them.  The solver's stationarity test holds
    # in the problem's units too, from fresh evaluations
    problem, _ = canonical.CANONICAL_PROBLEMS[name]()
    tol = 1e-6
    for intervals in (1, 2, 3):
        for degree in (3, 4, 5, 6):
            nlp = transcribe(problem, [uniform_mesh(intervals, degree)])
            rep = solve(nlp, canonical.straight_line_guess(nlp),
                        SolverOptions(tolerance=tol))
            assert rep.converged and rep.iterations == 2, (intervals, degree)
            stat, _, _ = kkt_residuals(nlp, rep.x, rep.multipliers,
                                       rep.bound_multipliers)
            ymax = max(np.abs(rep.multipliers).max(),
                       np.abs(rep.bound_multipliers).max())
            g = nlp.objective_gradient(rep.x)
            assert stat <= tol * max(1.0, np.abs(g).max(), ymax), \
                (intervals, degree)


def test_fixed_bound_multipliers_are_the_stationarity_residual_where_the_step_landed():
    # after one capped iteration: on the box-fixed columns (the pinned
    # boundary states and the fixed times) the bound multiplier is minus
    # the stationarity residual of the row multipliers at rep.x
    problem, meshes = canonical.double_integrator_problem()
    nlp = transcribe(problem, meshes)
    rep = solve(nlp, canonical.straight_line_guess(nlp),
                SolverOptions(tolerance=1e-6, max_iterations=1))
    assert rep.iterations == 1 and rep.status == "max_iterations"
    fixed = nlp.z_lo == nlp.z_hi
    assert fixed.sum() == 6
    residual = (nlp.objective_gradient(rep.x)
                + nlp.jacobian(rep.x).T @ rep.multipliers)[fixed]
    assert np.abs(residual).max() > 1.0
    assert np.abs(rep.bound_multipliers[fixed] + residual).max() \
        <= 1e-12 * np.abs(residual).max()


def _canonical_starts():
    """canonical-solve's starts: each problem from every mesh of 1-3
    intervals of degree 3-6, evenly spaced or graded 1:2, at 1e-6, and from
    its default mesh at 1e-8."""
    grid = [[MeshPhase(w / w.sum(), np.full(k, degree))]
            for k in (1, 2, 3) for degree in (3, 4, 5, 6)
            for w in ([np.ones(k)] + [np.linspace(1.0, 2.0, k)] * (k > 1))]
    for name in sorted(canonical.CANONICAL_PROBLEMS):
        problem, default = canonical.CANONICAL_PROBLEMS[name]()
        for mesh, tol in [(mesh, 1e-6) for mesh in grid] + [(default, 1e-8)]:
            yield problem, mesh, tol


def _refined_from_every_start():
    return [refine_loop(problem, mesh, canonical.straight_line_guess,
                        RefinementOptions(mesh_tolerance=tol,
                                          max_refinements=6),
                        SolverOptions(tolerance=tol, max_iterations=200))
            for problem, mesh, tol in _canonical_starts()]


def test_dense_and_csr_solves_take_the_same_steps(monkeypatch):
    # every canonical NLP has n_var + n_con <= DENSE_KKT_MAX, so its whole
    # iteration runs on dense arrays; with DENSE_KKT_MAX at 0 it runs on
    # canonical CSR.  Both run the interior-point method, the direct step
    # refused, on CSR blocks: the dense solve's copied from its arrays.
    # The two sum their products in other orders and test the shift's rungs
    # by other factors, and that is all: every start takes the same rounds,
    # SQP and interior-point iterations, to the same status and iterates
    # equal to rounding
    def refused(A):
        raise AssertionError("a canonical solve took the CSR path")

    _refuse_direct_step(monkeypatch)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nlpsolve, "_canonical_copy", refused)
        dense = _refined_from_every_start()
    monkeypatch.setattr(nlpsolve, "DENSE_KKT_MAX", 0)
    csr = _refined_from_every_start()
    assert len(dense) == len(csr) == 3 * 21
    for a, b in zip(dense, csr):
        assert a.status == b.status
        assert len(a.solve_reports) == len(b.solve_reports)
        for ra, rb in zip(a.solve_reports, b.solve_reports):
            assert (ra.status, ra.iterations) == (rb.status, rb.iterations)
            assert [row["qp_iterations"] for row in ra.log] \
                == [row["qp_iterations"] for row in rb.log]
        x_a, x_b = a.last_solve.x, b.last_solve.x
        assert np.abs(x_a - x_b).max() <= 1e-13 * np.abs(x_b).max()


class _CachedDerivatives(FunctionNLP):
    """A FunctionNLP that returns one CSR Jacobian object and one CSR
    Hessian object on every call, or fresh copies of them."""

    def __init__(self, *args, J, H, fresh=False, **kwargs):
        super().__init__(*args, **kwargs)
        self.J, self.H, self.fresh = J, H, fresh

    def jacobian(self, z):
        return self.J.copy() if self.fresh else self.J

    def hessian(self, z, y):
        return self.H.copy() if self.fresh else self.H


def _quartic_bowl(fresh):
    # sum (z - a)^4 / 4 + z'Pz / 2 under two linear rows, in a box of +-5
    # (so the bound scale is 5); the Hessian returned is the constant
    # P + 3 I, not the exact one, so the solve takes several steps
    a = np.array([3.0, -2.0, 1.0, 4.0])
    P = np.array([[2.0, 0.5, 0.0, 0.0], [0.5, 1.0, 0.0, 0.0],
                  [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.5]])
    A = np.array([[1.0, 1.0, 1.0, 1.0], [2.0, 0.0, -3.0, 0.0]])
    return _CachedDerivatives(
        4, lambda z: np.sum((z - a) ** 4) / 4 + z @ P @ z / 2,
        z_lo=np.full(4, -5.0), z_hi=np.full(4, 5.0),
        gradient=lambda z: (z - a) ** 3 + P @ z, constraints=lambda z: A @ z,
        c_lo=[2.0, -np.inf], c_hi=[2.0, 1.5], J=sp.csr_matrix(A),
        H=sp.csr_matrix(P + 3.0 * np.eye(4)), fresh=fresh)


def _hold_as(form, monkeypatch):
    """Make `solve` hold its matrices as dense arrays ("dense", every
    canonical size) or as canonical CSR ("csr")."""
    if form == "csr":
        monkeypatch.setattr(nlpsolve, "DENSE_KKT_MAX", 0)


@pytest.mark.parametrize("form", ["dense", "csr"])
def test_solve_writes_into_no_matrix_the_problem_returns(form, monkeypatch):
    _hold_as(form, monkeypatch)
    cached, fresh = _quartic_bowl(False), _quartic_bowl(True)
    kept = [(M.data.copy(), M.indices.copy(), M.indptr.copy())
            for M in (cached.J, cached.H)]
    rep = solve(cached, np.zeros(4))
    ref = solve(fresh, np.zeros(4))
    assert ref.converged and ref.iterations > 3
    assert rep.iterations == ref.iterations
    assert rep.x.tobytes() == ref.x.tobytes()
    for M, arrays in zip((cached.J, cached.H), kept):
        for now, before in zip((M.data, M.indices, M.indptr), arrays):
            assert np.array_equal(now, before)


@pytest.mark.parametrize("form", ["dense", "csr"])
def test_a_nonfinite_hessian_entry_ends_the_solve_at_its_first_iteration(
        form, monkeypatch):
    _hold_as(form, monkeypatch)
    nlp = _quartic_bowl(False)
    H = nlp.H.toarray()
    H[0, 1] = H[1, 0] = np.nan
    nlp.H = sp.csr_matrix(H)
    rep = solve(nlp, np.zeros(4))
    assert rep.status == "numerical_failure" and rep.iterations == 1
    assert rep.message == "Hessian evaluation failed: non-finite Hessian entry"


class _Restored:
    """A problem whose Jacobian is stored another way: `store` maps the
    problem's CSR Jacobian to the one returned."""

    def __init__(self, nlp, store):
        self._nlp, self._store = nlp, store

    def __getattr__(self, name):
        return getattr(self._nlp, name)

    def jacobian(self, z):
        return self._store(self._nlp.jacobian(z))


def _reversed_rows(J):
    """Each row's entries in reversed column order."""
    order = np.concatenate([np.arange(b - 1, a - 1, -1)
                            for a, b in zip(J.indptr[:-1], J.indptr[1:])]
                           + [np.zeros(0, int)])
    return sp.csr_matrix((J.data[order], J.indices[order], J.indptr),
                         shape=J.shape)


def _split_entries(J):
    """Each entry stored twice, as two halves (which sum to it exactly)."""
    counts = np.diff(J.indptr)
    return sp.csr_matrix((np.repeat(0.5 * J.data, 2),
                          np.repeat(J.indices, 2),
                          np.concatenate([[0], np.cumsum(2 * counts)])),
                         shape=J.shape)


@pytest.mark.parametrize("name, form", [
    pytest.param(name, form, id=name if form == "dense" else f"{name}-csr")
    for form in ("dense", "csr")
    for name in sorted(canonical.CANONICAL_PROBLEMS)])
def test_iterates_do_not_depend_on_how_the_jacobian_is_stored(
        name, form, monkeypatch):
    _hold_as(form, monkeypatch)
    problem, meshes = canonical.CANONICAL_PROBLEMS[name]()
    nlp = transcribe(problem, meshes)
    x0 = canonical.straight_line_guess(nlp)
    options = SolverOptions(tolerance=1e-6)
    ref = solve(nlp, x0, options)
    assert ref.converged
    for store in (_reversed_rows, _split_entries):
        J = store(nlp.jacobian(x0))
        assert not J.has_canonical_format
        rep = solve(_Restored(nlp, store), x0, options)
        assert rep.iterations == ref.iterations and rep.status == ref.status
        assert rep.x.tobytes() == ref.x.tobytes()


def test_row_scale_is_one_over_the_rows_largest_entry_floored_at_one():
    J = sp.csr_matrix(np.array([[0.5, -3.0, 0.0], [0.0, 0.0, 0.0],
                                [2.0, 0.0, -7.0], [0.0, 0.2, 0.0]]))
    J.data[J.data == 2.0] = 0.0     # an explicit zero, in a row kept
    expect = 1.0 / np.maximum(1.0, abs(J).max(axis=1).toarray().ravel())
    assert np.array_equal(nlpsolve._row_scale(J), expect)
    assert np.array_equal(expect, [1.0 / 3.0, 1.0, 1.0 / 7.0, 1.0])
    assert nlpsolve._row_scale(sp.csr_matrix((0, 3))).shape == (0,)
    assert nlpsolve._row_scale(sp.csr_matrix((2, 0))).tolist() == [1.0, 1.0]


def test_every_grid_subproblem_takes_the_direct_step(monkeypatch):
    # the canonical problems are linear-quadratic with only tied rows, and
    # from every start of the grid each subproblem's equality-constrained
    # step lies inside its box with multipliers below the weight: all 71
    # take the direct step and no interior-point iteration.  Refused, the
    # interior-point method takes the same rounds, SQP iterations and
    # statuses, to final iterates within 1e-9 relative
    real = nlpsolve._direct_step
    kept = []

    def recorded(*args):
        step = real(*args)
        kept.append(step is not None)
        return step

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nlpsolve, "_direct_step", recorded)
        direct = _refined_from_every_start()
    assert kept == [True] * 71
    _refuse_direct_step(monkeypatch)
    interior = _refined_from_every_start()
    assert len(direct) == len(interior) == 3 * 21
    for a, b in zip(direct, interior):
        assert a.status == b.status
        assert len(a.solve_reports) == len(b.solve_reports)
        for ra, rb in zip(a.solve_reports, b.solve_reports):
            assert (ra.status, ra.iterations) == (rb.status, rb.iterations)
            assert all(row["qp_iterations"] == 0 for row in ra.log)
            assert all(row["qp_iterations"] > 0 for row in rb.log)
        x_a, x_b = a.last_solve.x, b.last_solve.x
        assert np.abs(x_a - x_b).max() <= 1e-9 * np.abs(x_b).max()


def _elastic_qp_both_ways(args):
    """_elastic_qp on args, its CSR matrices handed over as dense arrays
    (which try the direct step), as it runs, the direct step's return in
    it, and _elastic_qp on them with the direct step refused."""
    args = [a.toarray() if sp.issparse(a) else a for a in args]
    real = nlpsolve._direct_step
    steps = []

    def recorded(*inner):
        steps.append(real(*inner))
        return steps[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nlpsolve, "_direct_step", recorded)
        qp = nlpsolve._elastic_qp(*args)
    with pytest.MonkeyPatch.context() as mp:
        _refuse_direct_step(mp)
        interior = nlpsolve._elastic_qp(*args)
    return qp, steps, interior


def test_the_direct_step_is_the_interior_point_answer_where_nothing_binds():
    # min d'd + g'd with d0 + d1 = 1 tied, in a box of +-10: the answer is
    # the Newton-KKT step, well inside the box, which takes no
    # interior-point iteration
    args = (2.0 * np.eye(2), np.array([1.0, -1.0]), np.ones((1, 2)),
            np.array([1.0]), np.array([1.0]), np.full(2, -10.0),
            np.full(2, 10.0))
    qp, steps, interior = _elastic_qp_both_ways(args)
    assert len(steps) == 1 and steps[0] is not None
    assert qp.converged and not qp.factor_lost and qp.iterations == 0
    assert max(qp.primal_res, qp.dual_res) <= 1e-10
    # 2 d + g + y = 0 and d0 + d1 = 1: d = (0, 1), y = -1
    assert np.allclose(qp.d, [0.0, 1.0], rtol=0.0, atol=1e-14)
    assert np.allclose(qp.y, [-1.0], rtol=0.0, atol=1e-14)
    assert np.array_equal(qp.y_bnd, np.zeros(2))
    assert interior.converged and interior.iterations > 0
    assert np.allclose(qp.d, interior.d, rtol=0.0, atol=1e-9)
    assert np.allclose(qp.y, interior.y, rtol=0.0, atol=1e-9)


def _active_row():
    # min 1/2|d|^2 - d0 s.t. d0 + d1 <= 0.5 in a box of +-2: the Newton
    # step (1, 0) breaks the row, the answer (0.75, -0.25) sits on it
    return (sp.identity(2, format="csr"), np.array([-1.0, 0.0]),
            sp.csr_matrix(np.ones((1, 2))), np.array([-np.inf]),
            np.array([0.5]), np.full(2, -2.0), np.full(2, 2.0))


def _elastic_tie():
    # 1/2 1e11 d^2 with d = 1 tied, in a box of +-10: the tie's multiplier
    # would be -1e11, past the weight (an elastic multiplier below 0), so
    # the row is left short at d = 0.1
    return (sp.csr_matrix([[1e11]]), np.zeros(1), sp.csr_matrix([[1.0]]),
            np.array([1.0]), np.array([1.0]), np.array([-10.0]),
            np.array([10.0]))


def _singular():
    # B = [[1, 1], [1, 1]] and no rows: the KKT matrix is B, singular
    return (np.ones((2, 2)), np.full(2, -1.0), np.zeros((0, 2)), np.zeros(0),
            np.zeros(0), np.full(2, -1e6), np.full(2, 1e6))


def _rounding_floor():
    # one tie whose coefficients near 1e9 nearly cancel: the solve misses
    # it by 7.3e-9 (its step and tie are below 1), past QP_TOLERANCE, and
    # the interior-point method, on the same rounding floor, stops
    # unconverged
    return (sp.identity(3, format="csr"), np.array([-0.3, 0.05, 0.4]),
            sp.csr_matrix([[1e9, -1e9 * (1 + 1e-9), 3.0]]), np.array([0.06]),
            np.array([0.06]), np.full(3, -1.0), np.full(3, 1.0))


def _all_fixed():
    # every variable fixed by its box, so nothing is free to step
    return (sp.identity(2, format="csr"), np.array([1.0, -1.0]),
            sp.csr_matrix([[1.0, 2.0]]), np.array([0.5]), np.array([0.5]),
            np.zeros(2), np.zeros(2))


@pytest.mark.parametrize("make", [_box_qp, _active_row, _elastic_tie,
                                  _singular, _rounding_floor, _all_fixed],
                         ids=["active_bound", "active_row", "elastic_tie",
                              "singular", "rounding_floor", "all_fixed"])
def test_a_refused_direct_step_falls_through_to_the_interior_point_answer(
        make):
    # each tries the direct step once; it is refused, so the loop runs.
    # The singular case's KKT matrix has an exactly zero pivot and the
    # fixed one no free variable, so neither has a step; the others' steps
    # fail the loop's test at their iterate
    if make is _singular:
        with pytest.raises(RuntimeError):
            nlpsolve._bunch_kaufman(np.ones((2, 2)))
    qp, steps, interior = _elastic_qp_both_ways(make())
    assert len(steps) == 1
    assert (steps[0] is None) == (make in (_singular, _all_fixed))
    assert qp.iterations > 0
    assert qp.converged == (make is not _rounding_floor)
    assert (qp.iterations, qp.converged) \
        == (interior.iterations, interior.converged)
    for name in ("d", "y", "y_bnd"):
        assert np.array_equal(getattr(qp, name), getattr(interior, name))
