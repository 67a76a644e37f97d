"""Desk-scale sparse NLP solver.

The built-in method is a line-search SQP: damped limited-memory BFGS in
compact form, an active-set quadratic subproblem solved through sparse
regularized KKT systems (with an ADMM fallback when the working set will
not settle), and an l1 merit function.  Variables are scaled by their
bound magnitudes (override with x_scale) and constraint rows are
equilibrated against the first Jacobian; reports are translated back to
the problem's own units.  Derivatives come either from the problem object
(structured) or from `estimate_jacobian`, which groups structurally
orthogonal columns so one probe pair serves a whole group.  External
solvers attach through `register_solver`.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

_FD_STEP = float(np.finfo(float).eps) ** (1.0 / 3.0)


@dataclass
class SolverOptions:
    tolerance: float = 1e-6
    max_iterations: int = 500
    mode: str = "builtin"
    x_scale: np.ndarray | None = None
    log_path: str | None = None
    qp_max_iterations: int = 4000
    polish_limit: int = 3000

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


class FunctionNLP:
    """Wrap plain callables in the interface the solver consumes."""

    def __init__(self, n_var: int, objective: Callable,
                 z_lo=None, z_hi=None, gradient: Callable | None = None,
                 constraints: Callable | None = None, c_lo=None, c_hi=None,
                 jacobian: Callable | None = None,
                 sparsity_pattern=None):
        self.n_var = n_var
        self._obj = objective
        self._grad = gradient
        self._con = constraints
        self._jac = jacobian
        self._pattern = sparsity_pattern
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
        g = np.empty(self.n_var)
        for j in range(self.n_var):
            h = _FD_STEP * max(1.0, abs(z[j]))
            zp, zm = z.copy(), z.copy()
            zp[j] += h
            zm[j] -= h
            g[j] = (self._obj(zp) - self._obj(zm)) / (2 * h)
        return g

    def jacobian(self, z):
        if self._jac is not None:
            return sp.csr_matrix(np.atleast_2d(self._jac(z)))
        return estimate_jacobian(self, z, self.sparsity())

    def sparsity(self):
        if self._pattern is not None:
            return self._pattern
        rows = np.repeat(np.arange(self.n_con), self.n_var)
        cols = np.tile(np.arange(self.n_var), self.n_con)
        return rows, cols


def color_columns(rows: np.ndarray, cols: np.ndarray, n_cols: int) -> np.ndarray:
    """Greedy distance-2 coloring: columns sharing a row get distinct colors."""
    col_rows = [[] for _ in range(n_cols)]
    for r, c in zip(rows, cols):
        col_rows[c].append(r)
    row_cols: dict[int, list[int]] = {}
    for c in range(n_cols):
        for r in col_rows[c]:
            row_cols.setdefault(r, []).append(c)
    color = np.full(n_cols, -1, dtype=int)
    for c in range(n_cols):
        taken = set()
        for r in col_rows[c]:
            for c2 in row_cols[r]:
                if color[c2] >= 0:
                    taken.add(color[c2])
        k = 0
        while k in taken:
            k += 1
        color[c] = k
    color[color < 0] = 0
    return color


def estimate_jacobian(nlp, point: np.ndarray, sparsity=None,
                      step: float = _FD_STEP) -> sp.csr_matrix:
    """Sparse Jacobian by grouped central differences.

    Entries outside the given pattern are never formed; a dense pattern is
    assumed when none is supplied.
    """
    x = np.asarray(point, float)
    if not np.all(np.isfinite(x)):
        raise ValueError("evaluation point must be finite")
    if sparsity is None:
        sparsity = nlp.sparsity()
    rows = np.asarray(sparsity[0], dtype=np.int64)
    cols = np.asarray(sparsity[1], dtype=np.int64)
    n = nlp.n_var
    m = nlp.n_con
    if m == 0 or len(rows) == 0:
        return sp.csr_matrix((m, n))
    color = color_columns(rows, cols, n)
    groups = [np.flatnonzero(color == k) for k in range(color.max() + 1)]
    h = step * np.maximum(1.0, np.abs(x))

    vals = np.empty(len(rows))
    col_order = np.argsort(cols, kind="stable")
    sorted_cols = cols[col_order]
    starts = np.searchsorted(sorted_cols, np.arange(n + 1))
    for g in groups:
        e = np.zeros(n)
        e[g] = h[g]
        cp = nlp.constraints(x + e)
        cm = nlp.constraints(x - e)
        if not (np.all(np.isfinite(cp)) and np.all(np.isfinite(cm))):
            bad = int(np.flatnonzero(~np.isfinite(cp - cm))[0])
            raise ValueError(f"non-finite constraint value at row {bad} "
                             "during derivative probe")
        d = cp - cm
        for j in g:
            idx = col_order[starts[j]:starts[j + 1]]
            vals[idx] = d[rows[idx]] / (2.0 * h[j])
    return sp.csr_matrix(sp.coo_matrix((vals, (rows, cols)), shape=(m, n)))


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
        out = self.gamma * v
        if self.W.shape[1]:
            out = out - self.W @ np.linalg.solve(self.K, self.W.T @ v)
        return out

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
        B = self.gamma * np.eye(self.n)
        if self.W.shape[1]:
            B -= self.W @ np.linalg.solve(self.K, self.W.T)
        return B


class _QPResult:
    def __init__(self, d, y, iterations, primal_res, dual_res):
        self.d = d
        self.y = y
        self.iterations = iterations
        self.primal_res = primal_res
        self.dual_res = dual_res
        self.method = "admm"


def _kkt_solver(bfgs: _CompactBFGS, A: sp.csr_matrix, reg: float):
    """Factor [B A'; A -reg*I] with the low-rank Hessian part folded in by
    a Woodbury correction; returns a solve callable or None on breakdown."""
    n = bfgs.n
    k = A.shape[0]
    blocks = [[sp.eye(n, format="csc") * (bfgs.gamma + 1e-10), A.T],
              [A, -reg * sp.eye(k, format="csc")]] if k else \
        [[sp.eye(n, format="csc") * (bfgs.gamma + 1e-10)]]
    try:
        lu = spla.splu(sp.bmat(blocks, format="csc"))
    except RuntimeError:
        return None
    r2 = bfgs.W.shape[1]
    if not r2:
        return lu.solve
    U = np.vstack([bfgs.W, np.zeros((k, r2))])
    T = lu.solve(U)
    G = -bfgs.K + U.T @ T
    try:
        Gf = np.linalg.inv(G)
    except np.linalg.LinAlgError:
        Gf = np.linalg.pinv(G)

    def solve(b):
        t = lu.solve(b)
        return t - T @ (Gf @ (U.T @ t))
    return solve


def _active_set_qp(bfgs: _CompactBFGS, q: np.ndarray, C: sp.csr_matrix,
                   l: np.ndarray, u: np.ndarray, y0: np.ndarray,
                   n_soft: int = 0, pi: float = np.inf,
                   max_pivots: int = 60) -> _QPResult | None:
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

    seen: set[bytes] = set()
    for pivot in range(1, max_pivots + 1):
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
            q_eff = q + C.T @ pull
        reg = 1e-11 * (1.0 + bfgs.gamma)
        solve = _kkt_solver(bfgs, A, reg)
        if solve is None:
            return None
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
                bfgs.mul(sol[:n]) + (A.T @ sol[n:] if len(act) else 0.0),
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
        tol_d = 1e-8 * (1.0 + (np.abs(nu).max() if len(nu) else 0.0))
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
            r_d = float(np.abs(bfgs.mul(d) + q_eff
                               + (A.T @ nu if len(act) else 0.0)).max())
            return _QPResult(d, y, pivot, r_p, r_d)
        eq_act = (eq_act & ~rel_lo & ~rel_hi) | ((back_lo | back_hi) & tied)
        act_lo = (act_lo & ~drops_lo & ~rel_lo) | adds_lo | (back_lo & ~tied)
        act_hi = (act_hi & ~drops_hi & ~rel_hi) | adds_hi | (back_hi & ~tied)
        sat_lo = (sat_lo & ~back_lo) | rel_lo
        sat_hi = (sat_hi & ~back_hi) | rel_hi
    return None


def _solve_qp(bfgs: _CompactBFGS, q: np.ndarray, C: sp.csr_matrix,
              l: np.ndarray, u: np.ndarray, y0: np.ndarray,
              eps: float, max_iter: int, polish: bool,
              n_soft: int = 0, pi: float = np.inf) -> _QPResult:
    """min 1/2 d'Bd + q'd  s.t.  l <= Cd <= u; active-set first, then ADMM."""
    direct = _active_set_qp(bfgs, q, C, l, u, y0, n_soft, pi)
    if direct is not None:
        direct.method = "pdas"
        return direct
    n = len(q)
    m = C.shape[0]
    row_inf = np.maximum(np.abs(C).max(axis=1).toarray().ravel(), 1e-10)
    E = 1.0 / row_inf
    Cs = sp.diags(E) @ C
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
            + (Cs.T @ sp.diags(rho) @ Cs).tocsc()
        lu = spla.splu(K0)
        if bfgs.W.shape[1]:
            Z = lu.solve(bfgs.W)
            G = -bfgs.K + bfgs.W.T @ Z
            try:
                Ginv = np.linalg.inv(G)
            except np.linalg.LinAlgError:
                Ginv = np.linalg.pinv(G)

            def solve(b):
                t = lu.solve(b)
                return t - Z @ (Ginv @ (bfgs.W.T @ t))
            return solve
        return lu.solve

    Ksolve = factorize()
    it = 0
    r_p = r_d = np.inf
    check_every = 25
    while it < max_iter:
        rhs = sigma * x - q + Cs.T @ (rho * z - y)
        xt = Ksolve(rhs)
        zt = Cs @ xt
        x = alpha * xt + (1 - alpha) * x
        zh = alpha * zt + (1 - alpha) * z
        z_new = np.clip(zh + y / rho, ls, us)
        y = y + rho * (zh - z_new)
        z = z_new
        it += 1
        if it % check_every == 0 or it == max_iter:
            Cx = Cs @ x
            r_p = np.abs(Cx - z).max() if m else 0.0
            r_d = np.abs(bfgs.mul(x) + q + Cs.T @ y).max()
            sc_p = max(np.abs(Cx).max() if m else 0.0,
                       np.abs(z).max() if m else 0.0, 1.0)
            sc_d = max(np.abs(bfgs.mul(x)).max(), np.abs(q).max(),
                       np.abs(Cs.T @ y).max() if m else 0.0, 1.0)
            if r_p <= eps * sc_p and r_d <= eps * sc_d:
                break
            if it % 200 == 0:
                ratio = np.sqrt((r_p / sc_p) / max(r_d / sc_d, 1e-16))
                ratio = float(np.clip(ratio, 1e-3, 1e3))
                if ratio > 5.0 or ratio < 0.2:
                    rho = np.clip(rho * ratio, 1e-8, 1e8)
                    Ksolve = factorize()

    y_orig = E * y
    if polish and n + m <= 10000:
        pol = _polish(bfgs, q, C, l, u, x, y_orig)
        if pol is not None:
            x, y_orig = pol
    return _QPResult(x, y_orig, it, r_p, r_d)


def _polish(bfgs, q, C, l, u, x, y):
    """Equality-solve on the active set detected from multiplier signs."""
    m = C.shape[0]
    act_lo = np.flatnonzero(y < -1e-10)
    act_hi = np.flatnonzero(y > 1e-10)
    act = np.concatenate([act_lo, act_hi])
    if len(act) > 2000 or len(x) > 2000:
        return None
    b = np.concatenate([l[act_lo], u[act_hi]])
    if not np.all(np.isfinite(b)):
        return None
    B = bfgs.dense()
    A = C[act].toarray() if len(act) else np.zeros((0, len(x)))
    kkt = np.block([[B, A.T], [A, np.zeros((len(act), len(act)))]])
    rhs = np.concatenate([-q, b])
    try:
        sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    except np.linalg.LinAlgError:
        return None
    d = sol[:len(x)]
    nu = sol[len(x):]
    Cd = C @ d
    viol = np.maximum(l - Cd, Cd - u)
    viol = viol[np.isfinite(viol)]
    old_Cd = C @ x
    old_viol = np.maximum(l - old_Cd, old_Cd - u)
    old_viol = old_viol[np.isfinite(old_viol)]
    if len(viol) and viol.max() > max(1e-9, (old_viol.max() if len(old_viol) else 0.0)):
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
        self.s = np.asarray(s, float)
        if np.any(self.s <= 0) or len(self.s) != inner.n_var:
            raise ValueError("x_scale must be positive, one entry per variable")
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
        return self.s * _gradient_of(self.inner, self.s * z)

    def jacobian(self, z):
        return _jacobian_of(self.inner, self.s * z).multiply(self.s[None, :]).tocsr()

    def sparsity(self):
        return self.inner.sparsity()


def _gradient_of(nlp, x):
    if hasattr(nlp, "objective_gradient"):
        return np.asarray(nlp.objective_gradient(x), float)
    g = np.empty(nlp.n_var)
    for j in range(nlp.n_var):
        h = _FD_STEP * max(1.0, abs(x[j]))
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        g[j] = (nlp.objective(xp) - nlp.objective(xm)) / (2 * h)
    return g


def _jacobian_of(nlp, x):
    if hasattr(nlp, "jacobian"):
        return sp.csr_matrix(nlp.jacobian(x))
    pattern = nlp.sparsity() if hasattr(nlp, "sparsity") else None
    return estimate_jacobian(nlp, x, pattern)


def _violation(c, c_lo, c_hi):
    if len(c) == 0:
        return 0.0
    return float(np.maximum(np.maximum(c_lo - c, c - c_hi), 0.0).max())


def _violation_l1(c, c_lo, c_hi):
    if len(c) == 0:
        return 0.0
    return float(np.maximum(np.maximum(c_lo - c, c - c_hi), 0.0).sum())


def kkt_residuals(nlp, x, y_con, y_bnd):
    """Independent stationarity / feasibility / complementarity check."""
    g = _gradient_of(nlp, x)
    c = nlp.constraints(x)
    J = _jacobian_of(nlp, x)
    if nlp.n_con:
        stat = g + J.T @ y_con + y_bnd
    else:
        stat = g + y_bnd
    feas = max(_violation(c, nlp.c_lo, nlp.c_hi),
               _violation(x, nlp.z_lo, nlp.z_hi))
    comp = 0.0
    for vals, lo, hi, mult in ((c, nlp.c_lo, nlp.c_hi, y_con),
                               (x, nlp.z_lo, nlp.z_hi, y_bnd)):
        for i in range(len(vals)):
            if mult[i] > 0 and np.isfinite(hi[i]):
                comp = max(comp, mult[i] * abs(hi[i] - vals[i]))
            elif mult[i] < 0 and np.isfinite(lo[i]):
                comp = max(comp, -mult[i] * abs(vals[i] - lo[i]))
            elif mult[i] != 0:
                comp = max(comp, abs(mult[i]))
    return float(np.abs(stat).max()), feas, comp


SOLVER_PLUGINS: dict[str, Callable] = {}


def register_solver(name: str):
    def deco(fn):
        SOLVER_PLUGINS[name] = fn
        return fn
    return deco


def _bound_scale(nlp) -> np.ndarray:
    """Per-variable magnitudes from the box bounds, floored at one."""
    lo = np.where(np.isfinite(nlp.z_lo), np.abs(nlp.z_lo), 0.0)
    hi = np.where(np.isfinite(nlp.z_hi), np.abs(nlp.z_hi), 0.0)
    return np.maximum(1.0, np.maximum(lo, hi))


def solve(nlp, x0: np.ndarray, options: SolverOptions | None = None) -> SolveReport:
    options = options or SolverOptions()
    if options.mode != "builtin":
        if options.mode not in SOLVER_PLUGINS:
            raise ValueError(f"unknown solver mode {options.mode!r}")
        return SOLVER_PLUGINS[options.mode](nlp, x0, options)

    s = (np.asarray(options.x_scale, float) if options.x_scale is not None
         else _bound_scale(nlp))
    if np.any(s != 1.0):
        scaled = _ScaledNLP(nlp, s)
        rep = _solve_core(scaled, np.asarray(x0, float) / s, options)
        rep.x = s * rep.x
        rep.bound_multipliers = rep.bound_multipliers / s
    else:
        rep = _solve_core(nlp, np.asarray(x0, float), options)
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
        g = _gradient_of(nlp, x)
        J = _jacobian_of(nlp, x)
    except Exception as e:
        close_log()
        return SolveReport(status="numerical_failure", iterations=0,
                           objective=np.nan, violation=np.inf, x=x,
                           multipliers=np.zeros(m), bound_multipliers=np.zeros(n),
                           message=f"initial evaluation failed: {e}")

    # equilibrate constraint rows once, from the first Jacobian, so the
    # merit function and the convergence test see rows of comparable size
    if m:
        row_inf = np.abs(J).max(axis=1).toarray().ravel()
        r_scale = 1.0 / np.maximum(1.0, row_inf)
    else:
        r_scale = np.ones(0)
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

    for it in range(1, options.max_iterations + 1):
        feas = max(_violation(c, c_lo, c_hi),
                   _violation(x, nlp.z_lo, nlp.z_hi))
        if m:
            stat_vec = g + J.T @ y_con + y_bnd
        else:
            stat_vec = g + y_bnd
        stat = float(np.abs(stat_vec).max())
        comp = 0.0
        for vals, lo, hi, mult in ((c, c_lo, c_hi, y_con),
                                   (x, nlp.z_lo, nlp.z_hi, y_bnd)):
            if len(vals) == 0:
                continue
            up = mult > 0
            dn = mult < 0
            if np.any(up):
                gap = np.where(np.isfinite(hi[up]), np.abs(hi[up] - vals[up]), 1.0)
                comp = max(comp, float((mult[up] * gap).max()))
            if np.any(dn):
                gap = np.where(np.isfinite(lo[dn]), np.abs(vals[dn] - lo[dn]), 1.0)
                comp = max(comp, float((-mult[dn] * gap).max()))
        # stationarity is scaled by gradient and multiplier size: the dual
        # residual inherits the units of whichever is largest
        ymax = max(float(np.abs(y_con).max()) if m else 0.0,
                   float(np.abs(y_bnd).max()) if n else 0.0)
        if feas <= tol and stat <= tol * max(1.0, np.abs(g).max(), ymax) \
                and comp <= tol * 10 * max(1.0, ymax):
            status = "converged"
            break

        C = sp.vstack([J, sp.eye(n, format="csr")], format="csr") if m \
            else sp.eye(n, format="csr")
        bl = np.maximum(nlp.z_lo - x, -delta)
        bu = np.minimum(nlp.z_hi - x, delta)
        if m:
            l_full = np.concatenate([c_lo - c, bl])
            u_full = np.concatenate([c_hi - c, bu])
            y0_full = np.concatenate([y_con, y_bnd])
        else:
            l_full, u_full, y0_full = bl, bu, y_bnd
        eps_qp = float(np.clip(0.03 * max(stat, feas), 0.05 * tol, 1e-4))
        v1 = _violation_l1(c, c_lo, c_hi)
        polish = n + C.shape[0] <= options.polish_limit
        # let the penalty recover when history has pushed it far past what
        # the current multipliers justify
        y_prev = float(np.abs(y_con).max()) if m else 0.0
        if mu > 100.0 * (2.0 * y_prev + 1.0):
            mu = 10.0 * (2.0 * y_prev + 1.0)
        # raise the elastic weight until the subproblem stops leaving
        # linearized violation behind that a larger weight would remove
        while True:
            qp = _solve_qp(bfgs, g, C, l_full, u_full, y0_full, eps_qp,
                           options.qp_max_iterations, polish,
                           n_soft=m, pi=mu)
            v_lin = _violation_l1(c + J @ qp.d, c_lo, c_hi) if m else 0.0
            if v_lin <= max(1e-8, 1e-6 * v1) or mu >= 1e10:
                break
            mu *= 10.0
        d = qp.d
        y_new_con = qp.y[:m] if m else np.zeros(0)
        y_new_bnd = qp.y[m:] if m else qp.y

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
        y_soft = float(np.abs(y_new_con).max()) if m else 0.0
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
        if t >= 0.99:
            delta = min(delta * 2.0, 1e6)
        elif t < 0.1:
            delta = max(step_norm, 1e-8)

        x_new = np.clip(x + t * d, nlp.z_lo, nlp.z_hi)
        try:
            g_new = _gradient_of(nlp, x_new)
            J_new = r_diag @ _jacobian_of(nlp, x_new)
        except Exception as e:
            close_log()
            return SolveReport(status="numerical_failure", iterations=it,
                               objective=f, violation=feas, x=x,
                               multipliers=r_scale * y_con,
                               bound_multipliers=y_bnd,
                               stationarity=stat,
                               message=f"derivative evaluation failed: {e}")
        s_vec = x_new - x
        if m:
            y_grad = (g_new - g) + (J_new - J).T @ y_new_con
        else:
            y_grad = g_new - g
        bfgs.update(s_vec, y_grad)

        x, f, c, g, J = x_new, f_t, c_t, g_new, J_new
        y_con, y_bnd = y_new_con, y_new_bnd
        if writer:
            writer.writerow([it, repr(f), repr(max(_violation(c, c_lo, c_hi),
                                                   _violation(x, nlp.z_lo, nlp.z_hi))),
                             repr(float(np.abs(t * d).max()))])
            log_file.flush()

    feas = max(_violation(c, c_lo, c_hi),
               _violation(x, nlp.z_lo, nlp.z_hi))
    if status == "converged" and feas > tol:
        status = "max_iterations"
    close_log()
    stat_final = float(np.abs((g + J.T @ y_con + y_bnd) if m
                              else (g + y_bnd)).max())
    return SolveReport(status=status, iterations=it, objective=f,
                       violation=feas, x=x, multipliers=r_scale * y_con,
                       bound_multipliers=y_bnd, stationarity=stat_final,
                       message=message)
