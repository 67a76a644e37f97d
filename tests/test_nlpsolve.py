from __future__ import annotations

from types import SimpleNamespace
from typing import Callable

import numpy as np
import scipy.sparse as sp
import pytest
from hypothesis import given, settings, strategies as st

from ascentry import canonical, nlpsolve
from ascentry.nlpsolve import (SolveReport, SolverOptions, kkt_residuals,
                               solve)
from ascentry.transcription import (MultiPhaseProblem, PhaseDef, _fd_vector,
                                    transcribe, uniform_mesh)


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
                        SolveReport("converged", 3, 0.0, 0.0, x0.copy(),
                                    bound_multipliers=np.zeros(2)))
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


def _unreachable_tie():
    # c(x) = x tied at 1e5 from x0 = 0: the trust box keeps the linearized
    # row violated, so the elastic weight ends at its cap every iteration
    return FunctionNLP(1, lambda z: float(z[0] ** 2), gradient=lambda z: 2 * z,
                       constraints=lambda z: z.copy(),
                       c_lo=np.array([1e5]), c_hi=np.array([1e5]),
                       jacobian=lambda z: np.array([[1.0]]))


def test_admm_fallback_runs_once_per_sqp_iteration(monkeypatch):
    real_admm = nlpsolve._admm_qp
    monkeypatch.setattr(nlpsolve, "QP_MAX_ITERATIONS", 200)
    options = SolverOptions(max_iterations=3)
    passes = []
    admm_args = []

    def no_active_set(*args, **kwargs):
        passes.append(kwargs["pi"])
        return None

    def counted_admm(*args):
        admm_args.append(args[6:])
        return real_admm(*args)

    monkeypatch.setattr(nlpsolve, "_active_set_qp", no_active_set)
    monkeypatch.setattr(nlpsolve, "_admm_qp", counted_admm)
    rep = solve(_unreachable_tie(), np.zeros(1), options)
    assert rep.iterations == 3
    assert len(admm_args) == rep.iterations
    # the least-violation LP shows the tie out of the trust box's reach, so
    # the weight loop stops after its first active-set pass
    assert len(passes) == rep.iterations
    # every step came from an ADMM solve stopped at its cap, and says so
    assert rep.message.startswith("3 of 3 accepted steps came from a QP "
                                  "subproblem that stopped at its iteration cap")

    # reference: a fresh fallback at every weight, as if never reused
    eps, max_iter, polish = admm_args[0]
    assert all(a == (eps, max_iter, polish) for a in admm_args)
    monkeypatch.setattr(nlpsolve, "_active_set_qp",
                        lambda B, q, C, l, u, y0, **kw:
                        real_admm(B, q, C, l, u, y0, eps, max_iter, polish))
    fresh = solve(_unreachable_tie(), np.zeros(1), options)
    assert np.array_equal(rep.x, fresh.x)
    assert np.array_equal(rep.multipliers, fresh.multipliers)
    assert np.array_equal(rep.bound_multipliers, fresh.bound_multipliers)
    assert rep.objective == fresh.objective


def _counted_linprog(monkeypatch, status=None):
    """Record every least-violation LP; with a status, HiGHS reports it and
    no optimum."""
    real = nlpsolve.linprog
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        if status is not None:
            return SimpleNamespace(status=status, fun=np.nan)
        return real(*args, **kwargs)

    monkeypatch.setattr(nlpsolve, "linprog", counted)
    return calls


def _fallback_stays_put(monkeypatch, converged):
    """An ADMM fallback that returns the zero step, as if stopped at its cap
    or as if converged."""
    monkeypatch.setattr(
        nlpsolve, "_admm_qp",
        lambda B, q, C, l, u, y0, eps, max_iter, polish:
        nlpsolve._QPResult(np.zeros(len(q)), np.zeros(len(y0)), max_iter,
                           1.0, 1.0, converged))


def _failing_passes(monkeypatch, settle_after=None):
    """Active-set passes that fail, or from pass settle_after on run for
    real; returns the weight of every pass."""
    real = nlpsolve._active_set_qp
    weights = []

    def passes(*args, **kwargs):
        weights.append(kwargs["pi"])
        if settle_after is not None and len(weights) > settle_after:
            return real(*args, **kwargs)
        return None

    monkeypatch.setattr(nlpsolve, "_active_set_qp", passes)
    return weights


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
    v = nlpsolve._least_violation(sp.csr_matrix(J), np.array(lo),
                                  np.array(hi), np.array(bl), np.array(bu))
    assert v == pytest.approx(least, rel=1e-9, abs=1e-9)


def test_reachable_linearization_keeps_the_weight_climbing(monkeypatch):
    # the first pass fails and a capped fallback that stays put leaves the
    # tie short, but the LP finds the tie within reach, so the weight goes
    # up and the pass at the next weight settles on it
    _fallback_stays_put(monkeypatch, converged=False)
    weights = _failing_passes(monkeypatch, settle_after=1)
    lp_calls = _counted_linprog(monkeypatch)
    rep = solve(_equality_qp(), np.zeros(2), SolverOptions(max_iterations=1))
    assert len(lp_calls) == 1
    assert weights == [10.0, 100.0]
    assert np.allclose(rep.x, [0.5, 0.5], rtol=0.0, atol=1e-12)
    assert "elastic-weight" not in rep.message


def test_unknown_lp_status_leaves_the_weight_climb_as_before(monkeypatch):
    monkeypatch.setattr(nlpsolve, "QP_MAX_ITERATIONS", 200)
    options = SolverOptions(max_iterations=3)
    weights = _failing_passes(monkeypatch)
    skipped = solve(_unreachable_tie(), np.zeros(1), options)
    weights.clear()
    lp_calls = _counted_linprog(monkeypatch, status=1)
    rep = solve(_unreachable_tie(), np.zeros(1), options)
    # every iteration climbs to the cap, one LP each, and ends where the
    # skipped climb does
    assert len(lp_calls) == rep.iterations == 3
    assert len(weights) > 2 * rep.iterations and max(weights) >= 1e10
    assert "elastic-weight" not in rep.message
    assert np.array_equal(rep.x, skipped.x)
    assert np.array_equal(rep.multipliers, skipped.multipliers)
    assert rep.objective == skipped.objective


def test_least_violation_lp_runs_only_after_a_capped_fallback(monkeypatch):
    monkeypatch.setattr(nlpsolve, "QP_MAX_ITERATIONS", 200)
    weights = _failing_passes(monkeypatch)
    lp_calls = _counted_linprog(monkeypatch)
    options = SolverOptions(max_iterations=3)
    rep = solve(_unreachable_tie(), np.zeros(1), options)
    assert len(lp_calls) == rep.iterations == 3
    assert rep.message.endswith(
        ". 3 of 3 iterations skipped the elastic-weight climb: the trust box "
        "admits no step meeting the linearized rows (least l1 violation "
        "1.97e+04)")
    # a fallback that met its tolerance never calls for the LP, even when
    # it leaves the tie as short as before
    _fallback_stays_put(monkeypatch, converged=True)
    weights.clear()
    lp_calls.clear()
    rep = solve(_unreachable_tie(), np.zeros(1), options)
    assert lp_calls == [] and max(weights) >= 1e10
    assert "elastic-weight" not in rep.message


def test_settled_active_set_steps_leave_the_message_empty():
    rep = solve(_equality_qp(), np.array([3.0, -1.0]))
    assert rep.converged and rep.message == ""


def _box_qp():
    # min 1/2|d|^2 - 2 d0  s.t.  d0 + d1 + d2 = 1,  -1 <= d <= 0.5:
    # d0 sits on its upper bound, d = (0.5, 0.25, 0.25), with multiplier
    # -0.25 on the sum and 1.75 on d0's bound
    C = sp.vstack([sp.csr_matrix(np.ones((1, 3))), sp.eye(3)], format="csr")
    l = np.array([1.0, -1.0, -1.0, -1.0])
    u = np.array([1.0, 0.5, 0.5, 0.5])
    return sp.identity(3), np.array([-2.0, 0.0, 0.0]), C, l, u, np.zeros(4)


def test_admm_qp_reaches_the_closed_form():
    qp = nlpsolve._admm_qp(*_box_qp(), eps=1e-9, max_iter=4000, polish=False)
    assert qp.converged
    assert np.allclose(qp.d, [0.5, 0.25, 0.25], rtol=0.0, atol=1e-6)
    assert np.allclose(qp.y, [-0.25, 1.75, 0.0, 0.0], rtol=0.0, atol=1e-6)


def test_admm_qp_stopped_at_its_cap_is_not_converged():
    qp = nlpsolve._admm_qp(*_box_qp(), eps=1e-9, max_iter=5, polish=False)
    assert qp.iterations == 5
    assert not qp.converged


# positive definite, no multiple of I, every variable coupled
_COUPLED = np.array([[2.0, 0.5, 0.0], [0.5, 1.5, 0.4], [0.0, 0.4, 3.0]])


def test_admm_qp_with_a_coupled_hessian_reaches_the_dense_kkt_solution():
    _, q, C, l, u, y0 = _box_qp()
    B = sp.csr_matrix(_COUPLED)
    assert np.linalg.eigvalsh(_COUPLED).min() > 0.0
    # the box QP's active set: the sum row and d0 on its upper bound
    A = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 0.0]])
    kkt = np.block([[_COUPLED, A.T], [A, np.zeros((2, 2))]])
    sol = np.linalg.solve(kkt, np.concatenate([-q, [l[0], u[1]]]))
    d, nu = sol[:3], sol[3:]
    assert np.all(np.abs(d[1:]) < 0.5) and nu[1] > 0.0
    qp = nlpsolve._admm_qp(B, q, C, l, u, y0, eps=1e-9, max_iter=4000,
                           polish=False)
    assert qp.converged
    assert np.allclose(qp.d, d, rtol=0.0, atol=1e-6)
    assert np.allclose(qp.y, [nu[0], nu[1], 0.0, 0.0], rtol=0.0, atol=1e-6)


def test_kkt_solver_with_a_coupled_hessian_matches_the_dense_kkt_solve():
    A = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, -2.0]])
    reg = 1e-11 * (1.0 + 3.0)
    kkt = np.block([[_COUPLED + 1e-10 * np.eye(3), A.T],
                    [A, -reg * np.eye(2)]])
    b = np.array([0.3, -1.2, 0.7, 1.0, -0.5])
    expect = np.linalg.solve(kkt, b)
    got = nlpsolve._kkt_solver(nlpsolve._hessian_block(sp.csr_matrix(_COUPLED)),
                               sp.csr_matrix(A), reg)(b)
    assert np.linalg.norm(got - expect) <= 1e-10 * np.linalg.norm(expect)


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


def _sparse(draw, rng, shape):
    """A random sparse matrix: empty rows and columns, and maybe explicit
    zeros and rows whose column indices are shuffled out of order."""
    dense = rng.standard_normal(shape) * (rng.random(shape) < rng.random())
    M = sp.csr_matrix(dense)
    if M.nnz and draw(st.booleans()):
        M.data[rng.random(M.nnz) < 0.3] = 0.0
    if draw(st.booleans()):
        for i in range(shape[0]):
            row = slice(M.indptr[i], M.indptr[i + 1])
            perm = rng.permutation(M.indptr[i + 1] - M.indptr[i])
            M.indices[row] = M.indices[row][perm]
            M.data[row] = M.data[row][perm]
        M.has_sorted_indices = False
    return M


@st.composite
def _kkt_blocks(draw):
    # k = 0 too; B symmetric or not, a multiple of I or not
    n = draw(st.integers(1, 7))
    k = draw(st.integers(0, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        B = draw(st.floats(1e-6, 1e6)) * sp.identity(n, format="csc")
    else:
        B = _sparse(draw, rng, (n, n))
        if draw(st.booleans()):
            B = sp.csr_matrix(B + B.T)
    A = _sparse(draw, rng, (k, n))
    d_bot = -draw(st.floats(0.0, 1e-3))
    return B, A, d_bot


@settings(max_examples=200, deadline=None)
@given(_kkt_blocks())
def test_kkt_matrix_is_the_array_bmat_builds(case):
    B, A, d_bot = case
    n, k = B.shape[0], A.shape[0]
    top = B + 1e-10 * sp.identity(n, format="csc")
    blocks = [[top, A.T], [A, d_bot * sp.eye(k, format="csc")]] if k else [[top]]
    want = sp.bmat(blocks, format="csc")
    got = nlpsolve._kkt_matrix(nlpsolve._hessian_block(B), A, d_bot)
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        have, ref = getattr(got, name), getattr(want, name)
        assert have.dtype == ref.dtype and have.tobytes() == ref.tobytes(), name


def _chain_qp(rows):
    # min 1/2|d|^2 - d0  s.t.  d_i >= d_(i-1): each pivot activates the one
    # row the last step violates, so the pass settles after rows + 1 pivots
    C = sp.diags([-np.ones(rows), np.ones(rows)], [0, 1],
                 shape=(rows, rows + 1), format="csr")
    q = np.zeros(rows + 1)
    q[0] = -1.0
    return (sp.identity(rows + 1), q, C, np.zeros(rows),
            np.full(rows, np.inf), np.zeros(rows))


def test_active_set_pass_stops_at_its_pivot_budget(monkeypatch):
    real = nlpsolve._kkt_solver
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(nlpsolve, "_kkt_solver", counted)
    budget = nlpsolve.ACTIVE_SET_PIVOTS
    settled = nlpsolve._active_set_qp(*_chain_qp(budget - 1))
    assert settled.converged and settled.iterations == budget
    assert np.allclose(settled.d, 1.0 / budget, rtol=0.0, atol=1e-12)
    calls.clear()
    assert nlpsolve._active_set_qp(*_chain_qp(3 * budget)) is None
    assert len(calls) == budget


@pytest.mark.parametrize("name", sorted(canonical.CANONICAL_PROBLEMS))
def test_settled_passes_stay_well_inside_the_pivot_budget(name, monkeypatch):
    # the budget is twice the longest settled pass seen on real traffic; a
    # solver change that needs longer passes must revisit it
    real = nlpsolve._active_set_qp
    settled = []

    def recorded(*args, **kwargs):
        qp = real(*args, **kwargs)
        if qp is not None:
            settled.append(qp.iterations)
        return qp

    monkeypatch.setattr(nlpsolve, "_active_set_qp", recorded)
    problem, meshes = canonical.CANONICAL_PROBLEMS[name]()
    nlp = transcribe(problem, meshes)
    rep = solve(nlp, canonical.straight_line_guess(nlp),
                SolverOptions(tolerance=1e-6))
    assert rep.converged
    assert settled and max(settled) <= nlpsolve.ACTIVE_SET_PIVOTS // 2


def test_shift_leaves_a_semidefinite_hessian_alone():
    # singular and positive semidefinite, with an empty row and column
    rng = np.random.default_rng(5)
    F = rng.standard_normal((3, 6))
    F[:, 4] = 0.0
    B = sp.csr_matrix(F.T @ F)
    assert np.linalg.eigvalsh(B.toarray()).min() > -1e-12
    assert nlpsolve._shift(B) == 0.0
    assert nlpsolve._shift(sp.csr_matrix((4, 4))) == 0.0


@pytest.mark.parametrize("seed", range(5))
def test_shift_removes_the_negative_eigenvalues(seed):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((7, 7)))
    lam = np.concatenate([-10.0 ** rng.uniform(-6, 3, 2), rng.uniform(0, 5, 5)])
    B = sp.csr_matrix((Q * lam) @ Q.T)
    delta = nlpsolve._shift(B)
    assert delta >= -lam.min()
    assert np.linalg.eigvalsh(B.toarray() + delta * np.eye(7)).min() >= 0.0
    # a rung of the ladder, and the lowest that does: the rung below
    # leaves a negative eigenvalue
    first = 1e-8 * abs(B).max()
    rung = np.log10(delta / first)
    assert rung == pytest.approx(round(rung), abs=1e-9)
    if rung > 0.5:
        assert np.linalg.eigvalsh(B.toarray() + delta / 10 * np.eye(7)).min() < 0


@pytest.mark.parametrize("name", sorted(canonical.CANONICAL_PROBLEMS))
def test_canonical_default_mesh_converges_in_newton_steps(name):
    # the canonical problems are linear-quadratic, so the Newton step on
    # the exact Hessian is the answer, whatever the start
    problem, meshes = canonical.CANONICAL_PROBLEMS[name]()
    nlp = transcribe(problem, meshes)
    rep = solve(nlp, canonical.straight_line_guess(nlp),
                SolverOptions(tolerance=1e-6))
    assert rep.converged and rep.iterations <= 3
