"""Desk-scale sparse NLP solver.

The method is a line-search SQP: damped limited-memory BFGS in compact
form, an active-set quadratic subproblem solved through sparse regularized
KKT systems (with an ADMM fallback when the working set will not settle,
polished by a dense equality solve when the subproblem is small), and an
l1 merit function.  Variables are scaled by their bound magnitudes and
constraint rows are equilibrated against the first Jacobian; reports are
translated back to the problem's own units.  Derivatives come from the
problem object's `objective_gradient` and `jacobian`.

An active-set pass gets `ACTIVE_SET_PIVOTS` = 20 working-set changes, each
one a sparse KKT factorization.  On the canonical problems and the mission
every pass that settles does so within 10 pivots (most within one), and
none settles between pivot 11 and pivot 60, so a budget of twice the
longest settled pass returns what a longer one would, while a pass that
cannot settle hands over to the ADMM fallback after 20 factorizations
rather than 60.

The ADMM fallback factors (gamma + sigma) I + Cs' diag(rho) Cs, which is
symmetric positive definite (gamma >= 1e-6, sigma = 1e-6, every rho > 0),
so SuperLU orders it symmetrically by minimum degree on A' + A and takes
the diagonal pivots as they come: LU without pivoting is stable on such a
matrix.  On the first mission subproblem that gives 78,762 nonzeros in
L + U against 187,879 under the default COLAMD ordering with partial
pivoting, about 2.4 times less fill, and a solve with the factor, one per
fallback iteration, takes about 0.6 of the time.  The active-set KKT matrix
[B A'; A -reg I] keeps COLAMD with partial pivoting: it is only
quasi-definite, with reg about 1e-11, and the symmetric ordering there
moves the mission path (with the COLAMD fallback factor, 10 capped
iterations from the guess ended at violation 23.01 rather than 20.84).

Each iteration raises the elastic weight tenfold, from its current value
to a cap of 1e10, until the step leaves at most max(1e-8, 1e-6 v1) of
linearized l1 violation, v1 being the current point's.  When the ADMM
fallback has answered, stopped at its cap and left more than that, one
HiGHS LP gives the least linearized violation any step in the trust box
can reach.  If that exceeds the threshold, no weight can end the climb
early: a settled pass keeps its step in the box, and the fallback does not
read the weight.  The climb would then end at the cap with the fallback's
answer, unless the pass at the cap settled, so the weight takes the
climb's last value without the passes in between.  The LP runs at most
once per iteration, and an answer other than HiGHS's optimum leaves the
climb as it was.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.optimize import linprog

ACTIVE_SET_PIVOTS = 20     # working-set changes per active-set pass
QP_MAX_ITERATIONS = 4000   # ADMM iterations per fallback solve
POLISH_LIMIT = 3000        # largest n + rows(C) the dense polish takes on
# HiGHS's default primal feasibility tolerance: each row of its answer may
# miss its sides by this much, so its least l1 violation of m rows is exact
# to within this times m
HIGHS_PRIMAL_TOL = 1e-7


@dataclass
class SolverOptions:
    tolerance: float = 1e-6
    max_iterations: int = 500
    log_path: str | None = None

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass
class SolveReport:
    status: str
    iterations: int
    objective: float
    violation: float
    x: np.ndarray
    multipliers: np.ndarray = field(default_factory=lambda: np.zeros(0))
    bound_multipliers: np.ndarray = field(default_factory=lambda: np.zeros(0))
    stationarity: float = np.inf
    message: str = ""

    @property
    def converged(self) -> bool:
        return self.status == "converged"


class _CompactBFGS:
    """Damped limited-memory BFGS, B = gamma*I - W K^-1 W^T."""

    def __init__(self, n: int, memory: int = 20):
        self.n = n
        self.memory = memory
        self.S: list[np.ndarray] = []
        self.Y: list[np.ndarray] = []
        self.gamma = 1.0
        self._refresh()

    def _refresh(self):
        k = len(self.S)
        if k == 0:
            self.W = np.zeros((self.n, 0))
            self.K = np.zeros((0, 0))
            return
        S = np.column_stack(self.S)
        Y = np.column_stack(self.Y)
        StS = S.T @ S
        StY = S.T @ Y
        L = np.tril(StY, -1)
        D = np.diag(np.diag(StY))
        self.W = np.hstack([self.gamma * S, Y])
        self.K = np.block([[self.gamma * StS, L], [L.T, -D]])

    def mul(self, v: np.ndarray) -> np.ndarray:
        return self.gamma * v - self.W @ np.linalg.solve(self.K, self.W.T @ v)

    def update(self, s: np.ndarray, y: np.ndarray):
        ss = float(s @ s)
        if ss < 1e-300:
            return
        Bs = self.mul(s)
        sBs = float(s @ Bs)
        sy = float(s @ y)
        # Powell damping keeps the approximation positive definite
        if sy < 0.2 * sBs:
            theta = 0.8 * sBs / max(sBs - sy, 1e-300)
            y = theta * y + (1.0 - theta) * Bs
            sy = float(s @ y)
        if sy <= 1e-12 * max(1.0, ss):
            return
        self.S.append(s.copy())
        self.Y.append(y.copy())
        if len(self.S) > self.memory:
            self.S.pop(0)
            self.Y.pop(0)
        self.gamma = float(np.clip((y @ y) / sy, 1e-6, 1e8))
        self._refresh()
        try:
            np.linalg.solve(self.K, np.eye(self.K.shape[0]))
        except np.linalg.LinAlgError:
            self.S.pop()
            self.Y.pop()
            self._refresh()

    def dense(self) -> np.ndarray:
        W = self.W
        return self.gamma * np.eye(self.n) - W @ np.linalg.solve(self.K, W.T)


class _QPResult:
    def __init__(self, d, y, iterations, primal_res, dual_res, converged):
        self.d = d
        self.y = y
        self.iterations = iterations
        self.primal_res = primal_res
        self.dual_res = dual_res
        self.converged = converged  # met its tolerance before its cap


def _kkt_matrix(n: int, A: sp.csr_matrix, d_top: float,
                d_bot: float) -> sp.csc_matrix:
    """[d_top*I, A'; A, d_bot*I] in sorted CSC, the arrays sp.bmat builds.

    The left n columns are the diagonal entry over A's column from its CSC
    form; column n+i is A's row i from its sorted CSR form over the
    diagonal entry.  Explicit zeros stay, as they do in bmat."""
    k = A.shape[0]
    R = sp.csr_matrix(A, copy=True)
    R.sum_duplicates()
    Cc = R.tocsc()
    # np.insert places equal positions in order, so empty rows and columns
    # still get their diagonal entries in order
    indices = np.concatenate([
        np.insert(Cc.indices + n, Cc.indptr[:-1], np.arange(n)),
        np.insert(R.indices, R.indptr[1:], np.arange(n, n + k))])
    data = np.concatenate([np.insert(Cc.data, Cc.indptr[:-1], d_top),
                           np.insert(R.data, R.indptr[1:], d_bot)])
    indptr = np.concatenate([Cc.indptr + np.arange(n + 1),
                             Cc.nnz + n + R.indptr[1:] + np.arange(1, k + 1)])
    return sp.csc_matrix((data, indices, indptr), shape=(n + k, n + k))


def _woodbury(lu, U: np.ndarray, K: np.ndarray):
    """Solve callable for M - U K^-1 U', given the factor `lu` of M, by the
    Woodbury identity; lu.solve itself when U has no columns."""
    if not U.shape[1]:
        return lu.solve
    T = lu.solve(U)
    G = -K + U.T @ T
    try:
        Gf = np.linalg.inv(G)
    except np.linalg.LinAlgError:
        Gf = np.linalg.pinv(G)

    def solve(b):
        t = lu.solve(b)
        return t - T @ (Gf @ (U.T @ t))
    return solve


def _kkt_solver(bfgs: _CompactBFGS, A: sp.csr_matrix, reg: float):
    """Factor [B A'; A -reg*I] with the low-rank Hessian part folded in by
    a Woodbury correction; returns a solve callable or None on breakdown."""
    try:
        lu = spla.splu(_kkt_matrix(bfgs.n, A, bfgs.gamma + 1e-10, -reg))
    except RuntimeError:
        return None
    W = bfgs.W
    return _woodbury(lu, np.vstack([W, np.zeros((A.shape[0], W.shape[1]))]),
                     bfgs.K)


def _active_set_qp(bfgs: _CompactBFGS, q: np.ndarray, C: sp.csr_matrix,
                   l: np.ndarray, u: np.ndarray, y0: np.ndarray,
                   n_soft: int = 0, pi: float = np.inf) -> _QPResult | None:
    """Primal-dual active-set pass over the working set.

    The first n_soft rows are elastic with weight pi: one whose multiplier
    would pass pi leaves the working set and pulls the objective through an
    l1 term instead, so the subproblem stays feasible no matter how the
    trust box cuts across the linearized rows.  Remaining rows are hard.
    Rows enter the working set when the trial step violates them, leave it
    when their multiplier takes the wrong sign, and released rows return
    once the step crosses back over their target.  Returns None when the
    sets will not settle so the caller can fall back to the splitting
    method.
    """
    n = len(q)
    m = C.shape[0]
    soft = np.zeros(m, dtype=bool)
    soft[:n_soft] = True
    tied = np.isfinite(l) & (u - l <= 1e-12)
    eq_hard = tied & ~soft
    fin_lo = np.isfinite(l) & ~tied
    fin_hi = np.isfinite(u) & ~tied
    eq_act = tied & soft
    act_lo = fin_lo & (y0 < -1e-12)
    act_hi = fin_hi & (y0 > 1e-12) & ~act_lo
    # rows already violated by the zero step start out active
    act_lo |= fin_lo & (l > 0.0) & ~act_hi
    act_hi |= fin_hi & (u < 0.0) & ~act_lo
    sat_lo = np.zeros(m, dtype=bool)
    sat_hi = np.zeros(m, dtype=bool)

    CT = C.T
    seen: set[bytes] = set()
    for pivot in range(1, ACTIVE_SET_PIVOTS + 1):
        sig = b"".join(np.packbits(msk).tobytes()
                       for msk in (act_lo, act_hi, eq_act, sat_lo, sat_hi))
        if sig in seen:
            return None
        seen.add(sig)
        act = np.flatnonzero(eq_hard | eq_act | act_lo | act_hi)
        b = np.where(eq_hard | eq_act | act_lo, l, u)[act]
        A = C[act]
        q_eff = q
        if sat_lo.any() or sat_hi.any():
            pull = np.zeros(m)
            pull[sat_hi] = pi
            pull[sat_lo] = -pi
            q_eff = q + CT @ pull
        reg = 1e-11 * (1.0 + bfgs.gamma)
        solve = _kkt_solver(bfgs, A, reg)
        if solve is None:
            return None
        AT = A.T
        rhs = np.concatenate([-q_eff, b])
        sol = solve(rhs)
        if not np.all(np.isfinite(sol)):
            return None
        # refine against the unregularized system so the step does not
        # inherit the reg*nu error on its working rows; stagnation means
        # those rows conflict, keep the compromise and let the elastic
        # transitions clear the conflict
        prev = np.inf
        for _ in range(4):
            res = rhs - np.concatenate([
                bfgs.mul(sol[:n]) + AT @ sol[n:],
                A @ sol[:n]])
            rmax = float(np.abs(res).max())
            if rmax < 1e-13 * (1.0 + np.abs(rhs).max()) or rmax > 0.5 * prev:
                break
            prev = rmax
            sol = sol + solve(res)
        d = sol[:n]
        nu = sol[n:]
        r = C @ d
        y = np.zeros(m)
        y[act] = nu
        y[sat_lo] = -pi
        y[sat_hi] = pi
        tol_d = 1e-8 * (1.0 + np.abs(nu).max(initial=0.0))
        free = ~(eq_hard | eq_act | act_lo | act_hi | sat_lo | sat_hi)
        adds_lo = free & fin_lo & (l - r > 1e-8)
        adds_hi = free & fin_hi & (r - u > 1e-8) & ~adds_lo
        drops_lo = act_lo & (y > tol_d)
        drops_hi = act_hi & (y < -tol_d)
        rel_lo = soft & (act_lo | eq_act) & (y < -pi - tol_d)
        rel_hi = soft & (act_hi | eq_act) & (y > pi + tol_d) & ~rel_lo
        back_lo = sat_lo & (r > l + 1e-8)
        back_hi = sat_hi & (r < u - 1e-8)
        if not (adds_lo.any() or adds_hi.any() or drops_lo.any()
                or drops_hi.any() or rel_lo.any() or rel_hi.any()
                or back_lo.any() or back_hi.any()):
            hard = ~soft
            viol = np.maximum(np.where(np.isfinite(l), l - r, 0.0),
                              np.where(np.isfinite(u), r - u, 0.0))
            r_p = float(viol[hard].max(initial=0.0))
            r_d = float(np.abs(bfgs.mul(d) + q_eff + AT @ nu).max())
            return _QPResult(d, y, pivot, r_p, r_d, True)
        eq_act = (eq_act & ~rel_lo & ~rel_hi) | ((back_lo | back_hi) & tied)
        act_lo = (act_lo & ~drops_lo & ~rel_lo) | adds_lo | (back_lo & ~tied)
        act_hi = (act_hi & ~drops_hi & ~rel_hi) | adds_hi | (back_hi & ~tied)
        sat_lo = (sat_lo & ~back_lo) | rel_lo
        sat_hi = (sat_hi & ~back_hi) | rel_hi
    return None


def _admm_qp(bfgs: _CompactBFGS, q: np.ndarray, C: sp.csr_matrix,
             l: np.ndarray, u: np.ndarray, y0: np.ndarray,
             eps: float, max_iter: int, polish: bool) -> _QPResult:
    """min 1/2 d'Bd + q'd  s.t.  l <= Cd <= u by ADMM, every row hard.

    The fallback when the active-set pass will not settle.  It has no
    elastic rows, so it does not depend on the elastic weight."""
    n = len(q)
    m = C.shape[0]
    row_inf = np.maximum(np.abs(C).max(axis=1).toarray().ravel(), 1e-10)
    E = 1.0 / row_inf
    Cs = sp.diags(E) @ C
    CsT = Cs.T
    ls = E * l
    us = E * u
    eq = (us - ls) <= 1e-12
    loose = np.isinf(ls) & np.isinf(us)
    rho = np.full(m, 0.1)
    rho[eq] = 1e3 * 0.1
    rho[loose] = 1e-6
    sigma = 1e-6
    alpha = 1.6

    x = np.zeros(n)
    z = np.zeros(m)
    y = y0 / np.maximum(E, 1e-300)

    def factorize():
        K0 = sp.eye(n, format="csc") * (bfgs.gamma + sigma) \
            + (CsT @ sp.diags(rho) @ Cs).tocsc()
        lu = spla.splu(K0, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options=dict(SymmetricMode=True))
        return _woodbury(lu, bfgs.W, bfgs.K)

    Ksolve = factorize()
    it = 0
    r_p = r_d = np.inf
    converged = False
    check_every = 25
    # the iteration below in place: every operation and operand order as in
    # rhs = sigma x - q + Cs'(rho z - y), x = alpha xt + (1 - alpha) x,
    # zh = alpha zt + (1 - alpha) z, z = clip(zh + y/rho, ls, us),
    # y = y + rho (zh - z), up to commuted products and sums
    rhs = np.empty(n)
    zh = np.empty(m)
    w = np.empty(m)
    z_new = np.empty(m)
    while it < max_iter:
        np.multiply(rho, z, out=w)
        w -= y
        np.multiply(sigma, x, out=rhs)
        rhs -= q
        rhs += CsT @ w
        xt = Ksolve(rhs)
        zt = Cs @ xt
        xt *= alpha
        x *= 1 - alpha
        x += xt
        zt *= alpha
        np.multiply(z, 1 - alpha, out=zh)
        zh += zt
        np.divide(y, rho, out=w)
        w += zh
        np.minimum(np.maximum(w, ls, out=z_new), us, out=z_new)
        np.subtract(zh, z_new, out=w)
        w *= rho
        y += w
        z, z_new = z_new, z
        it += 1
        if it % check_every == 0 or it == max_iter:
            Cx = Cs @ x
            r_p = np.abs(Cx - z).max()
            r_d = np.abs(bfgs.mul(x) + q + CsT @ y).max()
            sc_p = max(np.abs(Cx).max(), np.abs(z).max(), 1.0)
            sc_d = max(np.abs(bfgs.mul(x)).max(), np.abs(q).max(),
                       np.abs(CsT @ y).max(), 1.0)
            if r_p <= eps * sc_p and r_d <= eps * sc_d:
                converged = True
                break
            if it % 200 == 0:
                ratio = np.sqrt((r_p / sc_p) / max(r_d / sc_d, 1e-16))
                ratio = float(np.clip(ratio, 1e-3, 1e3))
                if ratio > 5.0 or ratio < 0.2:
                    rho = np.clip(rho * ratio, 1e-8, 1e8)
                    Ksolve = factorize()

    y_orig = E * y
    if polish:
        pol = _polish(bfgs, q, C, l, u, x, y_orig)
        if pol is not None:
            x, y_orig = pol
    return _QPResult(x, y_orig, it, r_p, r_d, converged)


def _least_violation(J: sp.csr_matrix, lo: np.ndarray, hi: np.ndarray,
                     bl: np.ndarray, bu: np.ndarray) -> float | None:
    """Least l1 violation of lo <= J d <= hi over the box bl <= d <= bu.

    One HiGHS LP, min sum(p + n) s.t. lo <= J d + p - n <= hi,
    bl <= d <= bu, p, n >= 0, with one inequality row per finite side.
    None when HiGHS reports no optimum."""
    k, n = J.shape
    eye = sp.eye(k, format="csr")
    A = sp.hstack([J, eye, -eye], format="csr")
    up, dn = np.isfinite(hi), np.isfinite(lo)
    res = linprog(np.concatenate([np.zeros(n), np.ones(2 * k)]),
                  A_ub=sp.vstack([A[up], -A[dn]], format="csr"),
                  b_ub=np.concatenate([hi[up], -lo[dn]]),
                  bounds=np.column_stack([
                      np.concatenate([bl, np.zeros(2 * k)]),
                      np.concatenate([bu, np.full(2 * k, np.inf)])]),
                  method="highs")
    return float(res.fun) if res.status == 0 else None


def _polish(bfgs, q, C, l, u, x, y):
    """Equality-solve on the active set detected from multiplier signs."""
    m = C.shape[0]
    act_lo = np.flatnonzero(y < -1e-10)
    act_hi = np.flatnonzero(y > 1e-10)
    act = np.concatenate([act_lo, act_hi])
    if len(act) > 2000:
        return None
    b = np.concatenate([l[act_lo], u[act_hi]])
    if not np.all(np.isfinite(b)):
        return None
    B = bfgs.dense()
    A = C[act].toarray()
    kkt = np.block([[B, A.T], [A, np.zeros((len(act), len(act)))]])
    rhs = np.concatenate([-q, b])
    try:
        sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    except np.linalg.LinAlgError:
        return None
    d = sol[:len(x)]
    nu = sol[len(x):]

    def violation(v):
        Cv = C @ v
        gap = np.maximum(l - Cv, Cv - u)
        return gap[np.isfinite(gap)].max(initial=0.0)
    if violation(d) > max(1e-9, violation(x)):
        return None
    y_new = np.zeros(m)
    y_new[act] = nu
    old_stat = np.abs(bfgs.mul(x) + q + C.T @ y).max()
    new_stat = np.abs(bfgs.mul(d) + q + C.T @ y_new).max()
    if new_stat > old_stat:
        return None
    return d, y_new


class _ScaledNLP:
    """Right-scale variables: x = s * xhat."""

    def __init__(self, inner, s: np.ndarray):
        self.inner = inner
        self.s = s
        self.n_var = inner.n_var
        self.n_con = inner.n_con
        self.z_lo = inner.z_lo / self.s
        self.z_hi = inner.z_hi / self.s
        self.c_lo = inner.c_lo
        self.c_hi = inner.c_hi

    def objective(self, z):
        return self.inner.objective(self.s * z)

    def constraints(self, z):
        return self.inner.constraints(self.s * z)

    def objective_gradient(self, z):
        return self.s * self.inner.objective_gradient(self.s * z)

    def jacobian(self, z):
        return self.inner.jacobian(self.s * z).multiply(self.s[None, :]).tocsr()


def _violation(c, c_lo, c_hi):
    return float(np.maximum(np.maximum(c_lo - c, c - c_hi), 0.0)
                 .max(initial=0.0))


def _violation_l1(c, c_lo, c_hi):
    return float(np.maximum(np.maximum(c_lo - c, c - c_hi), 0.0).sum())


def _residuals(g, c, J, x, y_con, y_bnd, c_lo, c_hi, z_lo, z_hi):
    """(stationarity, feasibility, complementarity) of the KKT conditions,
    in the units of the arguments: the solver's convergence test and
    `kkt_residuals` both read them from here."""
    stat = float(np.abs(g + J.T @ y_con + y_bnd).max())
    feas = max(_violation(c, c_lo, c_hi), _violation(x, z_lo, z_hi))
    comp = _complementarity((c, c_lo, c_hi, y_con), (x, z_lo, z_hi, y_bnd))
    return stat, feas, comp


def kkt_residuals(nlp, x, y_con, y_bnd):
    """Independent stationarity / feasibility / complementarity check, from
    fresh evaluations at x, in the problem's own units."""
    return _residuals(nlp.objective_gradient(x), nlp.constraints(x),
                      nlp.jacobian(x), x, y_con, y_bnd,
                      nlp.c_lo, nlp.c_hi, nlp.z_lo, nlp.z_hi)


def _complementarity(*groups) -> float:
    """Largest |multiplier| times the gap to the bound it pushes on, over
    (values, lo, hi, multipliers) groups; against an infinite bound the gap
    counts as one, so the multiplier itself is the residual."""
    comp = 0.0
    for vals, lo, hi, mult in groups:
        on = mult != 0
        bound = np.where(mult[on] > 0, hi[on], lo[on])
        gap = np.where(np.isfinite(bound), np.abs(bound - vals[on]), 1.0)
        comp = max(comp, float(np.abs(mult[on] * gap).max(initial=0.0)))
    return comp


def _bound_scale(nlp) -> np.ndarray:
    """Per-variable magnitudes from the box bounds, floored at one."""
    lo = np.where(np.isfinite(nlp.z_lo), np.abs(nlp.z_lo), 0.0)
    hi = np.where(np.isfinite(nlp.z_hi), np.abs(nlp.z_hi), 0.0)
    return np.maximum(1.0, np.maximum(lo, hi))


def solve(nlp, x0: np.ndarray, options: SolverOptions | None = None) -> SolveReport:
    options = options or SolverOptions()
    s = _bound_scale(nlp)
    rep = _solve_core(_ScaledNLP(nlp, s), np.asarray(x0, float) / s, options)
    rep.x = s * rep.x
    rep.bound_multipliers = rep.bound_multipliers / s
    # the core works on equilibrated rows; report in the problem's units
    try:
        rep.objective = nlp.objective(rep.x)
        rep.violation = max(
            _violation(nlp.constraints(rep.x), nlp.c_lo, nlp.c_hi),
            _violation(rep.x, nlp.z_lo, nlp.z_hi))
    except Exception as e:
        if rep.status != "numerical_failure":   # keep the first failure's cause
            rep.status = "numerical_failure"
            rep.message = f"final evaluation failed: {e}"
    return rep


def _solve_core(nlp, x0: np.ndarray, options: SolverOptions) -> SolveReport:
    tol = options.tolerance
    n = nlp.n_var
    m = nlp.n_con
    x = np.clip(np.asarray(x0, float), nlp.z_lo, nlp.z_hi)

    log_file = None
    writer = None
    if options.log_path:
        log_file = open(options.log_path, "w", newline="")
        writer = csv.writer(log_file)
        writer.writerow(["iteration", "objective", "feasibility", "step_norm"])

    def close_log():
        if log_file:
            log_file.close()

    try:
        f = nlp.objective(x)
        c = nlp.constraints(x)
        g = nlp.objective_gradient(x)
        J = nlp.jacobian(x)
    except Exception as e:
        close_log()
        return SolveReport(status="numerical_failure", iterations=0,
                           objective=np.nan, violation=np.inf, x=x,
                           multipliers=np.zeros(m), bound_multipliers=np.zeros(n),
                           message=f"initial evaluation failed: {e}")

    # equilibrate constraint rows once, from the first Jacobian, so the
    # merit function and the convergence test see rows of comparable size
    row_inf = np.abs(J).max(axis=1).toarray().ravel()
    r_scale = 1.0 / np.maximum(1.0, row_inf)
    c_lo = r_scale * nlp.c_lo
    c_hi = r_scale * nlp.c_hi
    r_diag = sp.diags(r_scale)
    c = r_scale * c
    J = r_diag @ J

    bfgs = _CompactBFGS(n)
    y_con = np.zeros(m)
    y_bnd = np.zeros(n)
    mu = 10.0
    delta = 1e3
    status = "max_iterations"
    message = ""
    it = 0
    no_progress = 0
    accepted_steps = 0
    rough_steps = 0     # accepted steps from a QP stopped at its cap
    last_rough = None
    unreachable = 0     # iterations whose linearized rows the box cannot meet
    last_unreachable = 0.0

    for it in range(1, options.max_iterations + 1):
        stat, feas, comp = _residuals(g, c, J, x, y_con, y_bnd,
                                      c_lo, c_hi, nlp.z_lo, nlp.z_hi)
        # stationarity is scaled by gradient and multiplier size: the dual
        # residual inherits the units of whichever is largest
        ymax = max(float(np.abs(y_con).max(initial=0.0)),
                   float(np.abs(y_bnd).max(initial=0.0)))
        if feas <= tol and stat <= tol * max(1.0, np.abs(g).max(), ymax) \
                and comp <= tol * 10 * max(1.0, ymax):
            status = "converged"
            break

        C = sp.vstack([J, sp.eye(n, format="csr")], format="csr")
        bl = np.maximum(nlp.z_lo - x, -delta)
        bu = np.minimum(nlp.z_hi - x, delta)
        l_full = np.concatenate([c_lo - c, bl])
        u_full = np.concatenate([c_hi - c, bu])
        y0_full = np.concatenate([y_con, y_bnd])
        eps_qp = float(np.clip(0.03 * max(stat, feas), 0.05 * tol, 1e-4))
        v1 = _violation_l1(c, c_lo, c_hi)
        polish = n + C.shape[0] <= POLISH_LIMIT
        # let the penalty recover when history has pushed it far past what
        # the current multipliers justify
        y_prev = float(np.abs(y_con).max(initial=0.0))
        if mu > 100.0 * (2.0 * y_prev + 1.0):
            mu = 10.0 * (2.0 * y_prev + 1.0)
        # raise the elastic weight until the subproblem stops leaving
        # linearized violation behind that a larger weight would remove;
        # active-set first, then ADMM, which ignores the weight and so is
        # solved at most once per iteration.  Once a capped ADMM answer
        # leaves violation, one LP may show that no step in the trust box
        # gets under the threshold: then only the cap ends the climb, with
        # the fallback's answer unless the pass at the cap settles, so the
        # weight takes the climb's last value without its passes
        thr = max(1e-8, 1e-6 * v1)
        fallback = None
        lp_tried = False
        while True:
            qp = _active_set_qp(bfgs, g, C, l_full, u_full, y0_full,
                                n_soft=m, pi=mu)
            if qp is None:
                if fallback is None:
                    fallback = _admm_qp(bfgs, g, C, l_full, u_full, y0_full,
                                        eps_qp, QP_MAX_ITERATIONS, polish)
                qp = fallback
            v_lin = _violation_l1(c + J @ qp.d, c_lo, c_hi)
            if v_lin <= thr or mu >= 1e10:
                break
            if qp is fallback and not qp.converged and not lp_tried:
                lp_tried = True
                v_best = _least_violation(J, c_lo - c, c_hi - c, bl, bu)
                if v_best is not None and v_best > thr + HIGHS_PRIMAL_TOL * m:
                    unreachable += 1
                    last_unreachable = v_best
                    while mu < 1e10:
                        mu *= 10.0
                    break
            mu *= 10.0
        d = qp.d
        y_new_con = qp.y[:m]
        y_new_bnd = qp.y[m:]

        step_norm = float(np.abs(d).max())
        if step_norm < 1e-14:
            y_con, y_bnd = y_new_con, y_new_bnd
            no_progress += 1
            if no_progress >= 3:
                if feas > tol:
                    status = "infeasible"
                    message = "no step available from an infeasible point"
                else:
                    status = "converged" if stat <= 10 * tol else "max_iterations"
                break
            continue

        # ratchet the penalty with the multipliers the subproblem returned
        y_soft = float(np.abs(y_new_con).max(initial=0.0))
        mu = min(max(mu, 2.0 * y_soft + 1.0), 1e12)
        phi0 = f + mu * v1
        dphi = float(g @ d) + mu * (v_lin - v1)
        if dphi > -1e-16:
            dphi = -1e-16

        t = 1.0
        accepted = False
        f_t = f
        c_t = c
        x_floor = 1e-15 * (1.0 + float(np.abs(x).max()))
        for _ in range(40):
            if t * step_norm < x_floor:
                break  # a step below float resolution proves nothing
            x_t = np.clip(x + t * d, nlp.z_lo, nlp.z_hi)
            try:
                f_t = nlp.objective(x_t)
                c_t = r_scale * nlp.constraints(x_t)
                phi_t = f_t + mu * _violation_l1(c_t, c_lo, c_hi)
            except Exception:
                phi_t = np.inf
            if np.isfinite(phi_t) and phi_t <= phi0 + 1e-4 * t * dphi:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            delta = max(delta * 0.25, 1e-8)
            no_progress += 1
            y_con, y_bnd = y_new_con, y_new_bnd
            if writer:
                writer.writerow([it, repr(f), repr(feas), 0.0])
                log_file.flush()
            if no_progress >= 8:
                status = "infeasible" if feas > np.sqrt(tol) else "max_iterations"
                message = "line search stalled"
                break
            continue

        no_progress = 0
        accepted_steps += 1
        if not qp.converged:
            rough_steps += 1
            last_rough = qp
        if t >= 0.99:
            delta = min(delta * 2.0, 1e6)
        elif t < 0.1:
            delta = max(step_norm, 1e-8)

        # x_t, the line search's clipped trial point, is the accepted step
        try:
            g_new = nlp.objective_gradient(x_t)
            J_new = r_diag @ nlp.jacobian(x_t)
        except Exception as e:
            close_log()
            return SolveReport(status="numerical_failure", iterations=it,
                               objective=f, violation=feas, x=x,
                               multipliers=r_scale * y_con,
                               bound_multipliers=y_bnd,
                               stationarity=stat,
                               message=f"derivative evaluation failed: {e}")
        bfgs.update(x_t - x, (g_new - g) + (J_new - J).T @ y_new_con)

        x, f, c, g, J = x_t, f_t, c_t, g_new, J_new
        y_con, y_bnd = y_new_con, y_new_bnd
        if writer:
            writer.writerow([it, repr(f), repr(max(_violation(c, c_lo, c_hi),
                                                   _violation(x, nlp.z_lo, nlp.z_hi))),
                             repr(float(np.abs(t * d).max()))])
            log_file.flush()

    stat, feas, _ = _residuals(g, c, J, x, y_con, y_bnd,
                               c_lo, c_hi, nlp.z_lo, nlp.z_hi)
    if status == "converged" and feas > tol:
        status = "max_iterations"
    close_log()
    if rough_steps and not message:
        message = (f"{rough_steps} of {accepted_steps} accepted steps came "
                   "from a QP subproblem that stopped at its iteration cap "
                   f"(last primal residual {last_rough.primal_res:.3g}, "
                   f"dual residual {last_rough.dual_res:.3g})")
    if unreachable:
        message = (f"{message}. " if message else "") + (
            f"{unreachable} of {it} iterations skipped the elastic-weight "
            "climb: the trust box admits no step meeting the linearized "
            f"rows (least l1 violation {last_unreachable:.3g})")
    return SolveReport(status=status, iterations=it, objective=f,
                       violation=feas, x=x, multipliers=r_scale * y_con,
                       bound_multipliers=y_bnd, stationarity=stat,
                       message=message)
