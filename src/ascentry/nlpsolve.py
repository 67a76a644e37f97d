"""Desk-scale NLP solver, sparse for large problems and dense for small ones.

The method is a line-search Newton SQP: the Hessian of the Lagrangian at
the current multipliers, one elastic quadratic subproblem per iteration
solved by a primal-dual interior-point method, and an l1 merit function.
One function, `solve`, scales the variables by their bound magnitudes and
the rows against the first Jacobian, iterates in those units, and reports
in the problem's own, with the objective and violation the last iterate
was judged on.  Derivatives come from the problem object's
`objective_gradient`, `jacobian` and `hessian(z, y)`, the last once per
iteration.

Each Jacobian and Hessian the problem returns is copied once, and every
scaling, masking and shift writes into the copy, so `solve` never writes
into a matrix the problem returned and the iterates do not depend on how
it stores its entries.  The problem's size picks the copy's form, once per
solve:
- n_var + n_con <= `DENSE_KKT_MAX`: a dense array (`toarray()`, which sums
  duplicates).  The whole iteration runs on such arrays: the scaling by
  broadcasting, the box-fixed rows and columns zeroed by index, the shift's
  rungs tested by Cholesky, the subproblem's blocks cut by index and K
  assembled from them, and every product a BLAS one.  At these sizes
  scipy.sparse's Python layer costs more than the arithmetic: over one
  seed-1 round of the benchmark's canonical solves (n_var + n_con = 12-94),
  the CSR path made 2,405 sparse products and 1,560 sparse-matrix
  constructions, the dense path 130 and 390, all of them the problem's
  own (its transcription and evaluations).
- Above: canonical CSR (rows sorted by column, duplicates summed, explicit
  zeros dropped), scaled and masked in its `data`, the subproblem's blocks
  cut from its arrays; scaled rows sum in ascending column order.
The two take the same steps to rounding: on every canonical start of the
benchmark's grid, the same rounds, SQP and interior-point iterations and
statuses, and final iterates within 6e-16 of their max norm.

The subproblem's Hessian B is that Hessian in the scaled units, with the
rows and columns of box-fixed variables zeroed (their step is held at 0, so
those entries change no subproblem's answer), plus delta I: delta is the
least value on the ladder 0, 1e-8 b, 1e-7 b, ... (b the largest |B| entry,
at least 1) for which the symmetric factor of B + delta I, tested with a
further 1e-12 b on the diagonal, has no negative or zero pivot.  The
ladder ends at the Gershgorin bound without a factor: from there on the
matrix is diagonally dominant, and on the mission that saves the last of
the 11 rungs' factors.  So every subproblem is convex.  On a
linear-quadratic problem the Hessian is exact and the first step is the
Newton step.

After an accepted step, the bound multiplier of a box-fixed variable is
its stationarity residual where the step landed: y_bnd = -(g + J'y) on
those columns, at the new g and J.  The subproblem's own value is taken at
the old point against B, whose fixed rows and columns are zeroed, so it
misses H[fixed, :] d, and a converged Newton step would read as
unconverged until one more subproblem refreshed it.  Only the convergence
test and the report read y_bnd, so the iterates do not depend on it.

The subproblem is elastic in every row:

    min 1/2 d'Bd + g'd + W sum(p + n)
    s.t. c_lo - c <= J d + p - n <= c_hi - c,  bl <= d <= bu,  p, n >= 0,

with the box the trust region cut by the variable bounds, so it has a
solution however the box cuts across the linearized rows.  The weight is
fixed, W = `ELASTIC_WEIGHT` = 1e10, above the multipliers the solver has
met: where the box can meet the linearized rows the answer is the hard-row
step (p = n = 0), and where it cannot, the step that leaves the least
violation, its violated rows' multipliers at +-W.  That is the answer an
elastic-weight climb from 10 to a cap of 1e10 ends on in either case, in
one solve.  The merit weight follows the returned multipliers.

`_elastic_qp` solves it by Mehrotra's predictor-corrector (SIAM J. Optim.
2(4), 1992).  Eliminating p, n and the row slacks leaves the quasi-definite
matrix K = [B_f + Sigma, J'; J, -D] with D > 0 (Vanderbei, SIAM J. Optim.
5, 1995), which factors stably under symmetric pivoting.  Its order n picks
how a subproblem factors it, once:
- n <= `DENSE_KKT_MAX`: K is a dense array, assembled from the dense
  blocks B_f and J_f (cut from CSR ones first where `solve` holds CSR);
  every subproblem of a dense solve is one, since n <= n_var + n_con.
  Each iteration factors K + diag(reg) by Bunch-Kaufman (LAPACK dsytrf;
  Bunch and Kaufman, Math. Comp. 31, 1977), back-solves with dsytrs and
  refines against K with a dense product.  That factor pivots already, so it is its own fallback:
  an exactly zero pivot ends the subproblem as the loss of every sparse
  factor does.  It is chosen over LU with partial pivoting (dgetrf) for
  its block diagonal, which gives K's inertia on this path too, at little
  cost: over the 67 subproblems of the canonical grid's solves, dsytrf
  took 29% less time than SuperLU and dgetrf 30% less, for the same
  interior-point iterations and steps equal to 1.1e-15 relative.
- Above, `_symmetric_lu` factors K without pivoting; its U has exactly one
  negative pivot per row.  K's pattern is the same in every iteration of a
  subproblem, so its first factor makes the one minimum-degree order and
  the later ones factor K, permuted into that order, as it stands
  (`_ordered_lu`).  Every symmetric factor runs one-column SuperLU panels
  with supernodes relaxed to 2 columns: the LGR interval blocks give K
  narrow supernodes, and on the mission's K (n = 2,817) a natural-order
  factor takes 3.3-4.1 ms with these settings against 5.1-6.1 ms with
  SuperLU's wide-supernode defaults, for the same fill and pivot signs.
  Where a symmetric factor, refined, misses K by more than 1e-10, a
  partially pivoted factor of K + diag(reg), the symmetric factor's
  regularization, at SuperLU's defaults, takes over for the iteration;
  where that loses a pivot too, the subproblem ends with its last
  iterate, flagged as at its cap.
The two paths cost the same per interior-point iteration (factor, its
back-solves and the products) at n of about 140, where `DENSE_KKT_MAX`
sits.  On the first subproblem of canonical solves from uniform meshes,
with one BLAS thread (medians of 15 alternating repetitions), the dense
iteration took 0.64-0.86 of the sparse one's time at n = 53-89, 0.85-0.91
at n = 98-125, 0.91-1.13 at n = 143-161, 1.12-1.18 at n = 178-208 and
1.4-1.6 at n = 238-268; in best-of-5 timings it took 2.2-2.9 times as long
at n = 287-359, where dsytrf's n^3 takes over.  The canonical problems' K,
refined from every start mesh of the benchmark's grid, have n = 8-88
(median 32); the mission's has 2,817.

Three choices cut the iterations, and so the factors, since on the
mission's K a back-solve on a factor costs 0.14-0.26 ms against 3.8-5.0 ms
for the refactor (its gather into the first factor's order and SuperLU):
- The elastic pairs' multipliers start at their price W/s, their
  stationarity value at y = 0, not at 1, about 1e10/s below it.
- After Mehrotra's corrector, one Gondzio corrector (Comput. Optim. Appl.
  6, 1996) aims at a_t = min(1, 1.5 a + 0.3), a the corrected step's
  length: the products w z that step would reach are pulled into
  [0.1, 10] sigma mu, none cut by more than 10 sigma mu, and one more
  back-solve on the same factor gives the direction, kept only where its
  step is at least 1.01 a.  Without it the middle iterations are poorly
  centred: steps of 0.3-0.8, the complementarity falling 2-4x each.
- The fraction to the boundary is tau = max(0.995, 1 - mu s) (Waechter
  and Biegler, Math. Prog. 106, 2006): a fixed 0.995 caps each
  iteration's cut in the complementarity at 200x in the tail.
With them the first mission subproblem takes 20 iterations (27 without),
every subproblem of a canonical default-mesh solve 7 (13), and 40 capped
SQP iterations from the mission guess 972 in all (1,127).  The later ones
still take 22-27: a Hessian shifted by about 1e12 leaves a complementarity
path of about 34 decades.
A corrected step that does not cut the complementarity gives way to a
centring step.  The objective is divided by s = s_q^(2/3) W^(1/3),
s_q = max(1, |g|, max |B|), so that neither the weight nor the quadratic
part swamps the other: unscaled, the first mission subproblem did not
converge in 60 iterations, and scaled by W, 4 of 400 small random QPs
(weights 10 to 1e10) did not, against none with s.  A subproblem stops at
relative KKT residuals and average complementarity of `QP_TOLERANCE`, or
at `QP_ITERATIONS` with its last iterate flagged, and the report's message
counts the accepted steps that came from one.  It also stops, flagged the
same way, once 1 - mu s rounds to 1: tau is then 1, the step puts a
blocking gap on 0, and Sigma = z / w divides by it.  A row whose
coefficients are about 1e9 does that: its rounding floor keeps the primal
residual above `QP_TOLERANCE` while mu falls past 1e-16 / s.  Where every
factor of K is lost, `solve` ends with status "numerical_failure".
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

ELASTIC_WEIGHT = 1e10   # the price of a unit of linearized row violation
QP_TOLERANCE = 1e-9     # relative KKT residuals of a converged subproblem,
                        # and its mean complementarity in objective units
QP_ITERATIONS = 60      # interior-point iterations per subproblem
DENSE_KKT_MAX = 140     # the largest KKT order factored densely, and the
                        # largest n_var + n_con solved on dense arrays


@dataclass
class SolverOptions:
    tolerance: float = 1e-6
    max_iterations: int = 500

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
    # one row per SQP iteration that tried a step: iteration, objective,
    # feasibility, the accepted step's max norm (0 when rejected) and the
    # subproblem's interior-point iterations
    log: list[dict] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return self.status == "converged"


class _QPResult:
    def __init__(self, d, y, y_bnd, iterations, primal_res, dual_res,
                 converged, factor_lost):
        self.d = d
        self.y = y
        self.y_bnd = y_bnd
        self.iterations = iterations
        self.primal_res = primal_res
        self.dual_res = dual_res
        self.converged = converged  # met its tolerance before its cap
        self.factor_lost = factor_lost  # every factor of K lost a pivot


def _symmetric_lu(M: sp.spmatrix, permc_spec: str = "MMD_AT_PLUS_A"):
    """SuperLU factor of a symmetric matrix, ordered by minimum degree on
    M' + M (or, with "NATURAL", as it stands), with the diagonal pivots
    taken as they come.  Its panels are one column wide and it relaxes
    supernodes of at most 2 columns: the KKT matrix's LGR interval blocks
    are narrow, and SuperLU's defaults (20-column panels, relaxation 10),
    made for wide supernodes, cost time there.  The settings change only
    the order of the floating-point operations, not the fill or the pivot
    signs.  On the capped mission subproblem (n = 2,817, one BLAS thread)
    a natural-order factor takes 3.3-4.1 ms against 5.1-6.1 ms at the
    defaults, the first minimum-degree factor 7.4-8.9 against 10.3 ms."""
    return spla.splu(M.tocsc(), permc_spec=permc_spec,
                     diag_pivot_thresh=0.0, panel_size=1, relax=2,
                     options=dict(SymmetricMode=True))


def _ordered_lu(K: sp.csc_matrix, perm: np.ndarray):
    """factor(M) for matrices M on K's pattern (canonical CSC, both
    triangles): the symmetric factor of P M P' in the natural order, P the
    symmetric permutation that moves row and column i to perm[i] (a first
    factor's `perm_c`), and its solve of M.  The permuted pattern, and where
    each of its entries sits in M.data, are worked out here once."""
    n = K.shape[0]
    rows = perm[K.indices]
    cols = np.repeat(perm, np.diff(K.indptr))
    src = np.lexsort((rows, cols))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=n))])
    PMP = sp.csc_matrix((K.data[src], rows[src], indptr), shape=K.shape)
    inv = np.empty_like(perm)   # a scatter: argsort would add 0.2 MB of RSS
    inv[perm] = np.arange(n)

    def factor(M):
        M.data.take(src, out=PMP.data)
        lu = _symmetric_lu(PMP, "NATURAL")
        return lu, lambda rhs: lu.solve(rhs.take(inv)).take(perm)

    return factor


@functools.cache
def _sytrf_lwork(n: int) -> int:
    """dsytrf's optimal workspace for order n, asked of LAPACK once per
    order (at most `DENSE_KKT_MAX` + 1 of them in a solve)."""
    return int(lapack.dsytrf_lwork(n, lower=1)[0])


def _bunch_kaufman(A: np.ndarray):
    """The solve of a dense symmetric A (its lower triangle read) by the
    Bunch-Kaufman factor P A P' = L D L', D block diagonal with 1x1 and 2x2
    blocks (LAPACK dsytrf, blocked in the workspace it asks for, and
    dsytrs).  An exactly singular block of D raises RuntimeError, as
    SuperLU does."""
    ldu, ipiv, info = lapack.dsytrf(A, lower=1,
                                    lwork=_sytrf_lwork(A.shape[0]))
    if info > 0:
        raise RuntimeError("Factor is exactly singular")
    return lambda rhs: lapack.dsytrs(ldu, ipiv, rhs, lower=1)[0]


def _entry_rows(A: sp.csr_matrix) -> np.ndarray:
    """The row of each stored entry of a CSR matrix."""
    return np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))


def _row_scale(J) -> np.ndarray:
    """1 / max(1, the row's largest |entry|) for each row of J, a dense
    array or CSR."""
    if sp.issparse(J):
        row_max = np.zeros(J.shape[0])
        np.maximum.at(row_max, _entry_rows(J), np.abs(J.data))
    else:
        row_max = np.abs(J).max(axis=1, initial=0.0)
    return 1.0 / np.maximum(1.0, row_max)


def _scale_rows(A, r: np.ndarray):
    """A, a dense array or CSR, with each row i times r[i], in place."""
    if sp.issparse(A):
        A.data *= r[_entry_rows(A)]
    else:
        A *= r[:, None]
    return A


def _canonical_copy(A) -> sp.csr_matrix:
    """A copy of A in canonical CSR (each row's entries sorted by column,
    duplicates summed) without explicit zeros: `solve` scales it in place
    and never writes into a matrix the problem returned."""
    A = sp.csr_matrix(A, copy=True)
    A.sum_duplicates()
    A.eliminate_zeros()
    return A


def _submatrix(A: sp.csr_matrix, rows: np.ndarray,
               cols: np.ndarray) -> sp.csr_matrix:
    """A[rows][:, cols] of a CSR matrix A for boolean masks rows and cols,
    cut from its arrays by one mask over its entries: each row keeps its
    entries in A's order."""
    keep = np.repeat(rows, np.diff(A.indptr)) & cols[A.indices]
    # the kept entries before each row boundary; a row not kept adds none,
    # so leaving out its end leaves the kept rows' boundaries
    before = np.zeros(len(keep) + 1, A.indptr.dtype)
    np.cumsum(keep, out=before[1:])
    indptr = before[A.indptr[np.concatenate([[True], rows])]]
    column = np.cumsum(cols, dtype=A.indices.dtype) - 1
    return sp.csr_matrix((A.data[keep], column[A.indices[keep]], indptr),
                         shape=(len(indptr) - 1, int(cols.sum())))


def _with_diagonal(B: sp.csr_matrix) -> tuple[sp.csr_matrix, np.ndarray]:
    """B (square, canonical CSR) on its pattern plus the whole diagonal,
    0 where B stores no diagonal entry, and the position of each diagonal
    entry in its data.  B itself is returned where it stores them all."""
    n = B.shape[0]
    rows = _entry_rows(B)
    has = np.bincount(rows[B.indices == rows], minlength=n) > 0
    indptr = B.indptr.copy()
    indptr[1:] += np.cumsum(~has)
    diag = indptr[:-1] + np.bincount(rows[B.indices < rows], minlength=n)
    if has.all():
        return B, diag
    old = np.ones(indptr[-1], bool)
    old[diag] = has
    data = np.zeros(indptr[-1])
    data[old] = B.data
    indices = np.empty(indptr[-1], B.indices.dtype)
    indices[old] = B.indices
    indices[diag] = np.arange(n)
    return sp.csr_matrix((data, indices, indptr), shape=B.shape), diag


def _shift(B, diag: np.ndarray | None = None) -> float:
    """The least delta on the ladder 0, 1e-8 b, 1e-7 b, ... (b the largest
    |B| entry, at least 1) such that B + delta I has no negative or zero
    pivot in its symmetric factor.  The factor tested is of
    B + (delta + 1e-12 b) I, so that a singular positive-semidefinite B
    passes at 0.  The ladder ends at the Gershgorin bound, untested: from
    there on the matrix is diagonally dominant, so positive definite.
    B is a dense array, or canonical CSR storing its whole diagonal at
    `diag` in its data (`_with_diagonal`).  Each rung writes B_ii plus its
    shift into a copy of B and factors it: a dense one by Cholesky (LAPACK
    dpotrf, whose info is 0 exactly where every pivot is positive), a
    sparse one by `_symmetric_lu`, whose U diagonal is read."""
    sparse = sp.issparse(B)
    values = B.data if sparse else B.reshape(-1)
    if not np.all(np.isfinite(values)):
        raise ValueError("non-finite Hessian entry")
    if not sparse:
        diag = np.arange(len(B)) * (len(B) + 1)
    abs_values = np.abs(values)
    b = max(1.0, float(abs_values.max(initial=0.0)))
    on_diag = values[diag]
    row_sums = (np.bincount(_entry_rows(B), abs_values, len(diag)) if sparse
                else abs_values.reshape(B.shape).sum(axis=1))
    gershgorin = float((row_sums - abs_values[diag] - on_diag)
                       .max(initial=0.0))
    M = B.copy()
    rung = M.data if sparse else M.reshape(-1)
    delta = 0.0
    while delta < gershgorin:
        rung[diag] = on_diag + (delta + 1e-12 * b)
        if sparse:
            try:
                if np.all(_symmetric_lu(M).U.diagonal() > 0.0):
                    return delta
            except RuntimeError:    # an exactly zero pivot
                pass
        elif lapack.dpotrf(M, lower=1)[1] == 0:
            return delta
        delta = max(10.0 * delta, 1e-8 * b)
    return delta


def _elastic_qp(B, g: np.ndarray, J, lo: np.ndarray, hi: np.ndarray,
                bl: np.ndarray, bu: np.ndarray) -> _QPResult:
    """The elastic subproblem

        min 1/2 d'Bd + g'd + W sum(p + n)
        s.t. lo <= J d + p - n <= hi,  bl <= d <= bu,  p, n >= 0,

    W = `ELASTIC_WEIGHT`, by Mehrotra's primal-dual predictor-corrector
    method, for B positive semidefinite and a finite box, B and J both
    dense arrays or both CSR.
    Returns the step d, the row multipliers y (|y| <= W) and the box
    multipliers y_bnd, signed as in `_residuals`: B d + g + J'y + y_bnd = 0.

    The unknowns are x = (d_f, p, n, s): d_f the variables the box does not
    fix, and a slack s in [lo, hi] for each row that is not tied, so every
    row reads J d + p - n - s = b (b the tie's value, or 0).  A row with no
    finite side binds nothing and is left out, and a fixed variable's bound
    multiplier comes from stationarity.  Each finite bound on x is one
    complementarity pair (gap w, multiplier z >= 0), all in one stacked
    vector.  The gaps are iterates of their own, tied to x by a residual,
    so the fraction-to-boundary rule keeps them positive in floating point.
    """
    free = bl < bu
    sided = np.isfinite(lo) | np.isfinite(hi)
    rows = np.flatnonzero(sided)
    lo_r, hi_r = lo[rows], hi[rows]
    tied = lo_r == hi_r
    slack = np.flatnonzero(~tied)
    nf, mr = int(free.sum()), len(rows)
    at = nf + 2 * mr            # the first slack in x
    N = at + len(slack)
    n_k = nf + mr               # K's order
    # the blocks, dense where K is (a CSR B and J are cut first)
    if sp.issparse(B):
        Q, Jf = _submatrix(B, free, free), _submatrix(J, sided, free)
        if n_k <= DENSE_KKT_MAX:
            Q, Jf = Q.toarray(), Jf.toarray()
    else:
        Q, Jf = B[np.ix_(free, free)], J[np.ix_(sided, free)]
    JfT = Jf.T      # a view

    # the objective over its scale s, a third of the way (on the log
    # scale) from the quadratic part's magnitude to the weight
    s_q = max(1.0, float(np.abs(g).max(initial=0.0)),
              float(np.abs(B.data if sp.issparse(B) else B).max(initial=0.0)))
    scale = s_q ** (2.0 / 3.0) * ELASTIC_WEIGHT ** (1.0 / 3.0)
    Q *= 1.0 / scale
    cost = np.concatenate([g[free] / scale,
                           np.full(2 * mr, ELASTIC_WEIGHT / scale),
                           np.zeros(len(slack))])
    b = np.where(tied, lo_r, 0.0)

    has_lo = np.isfinite(lo_r[slack])
    has_hi = np.isfinite(hi_r[slack])
    idx = np.concatenate([np.arange(nf), np.arange(nf),
                          nf + np.arange(2 * mr), at + np.flatnonzero(has_lo),
                          at + np.flatnonzero(has_hi)])
    bnd = np.concatenate([bl[free], bu[free], np.zeros(2 * mr),
                          lo_r[slack][has_lo], hi_r[slack][has_hi]])
    sg = np.concatenate([np.ones(nf), -np.ones(nf), np.ones(2 * mr),
                         np.ones(int(has_lo.sum())),
                         -np.ones(int(has_hi.sum()))])

    def row_values(x):
        r = Jf @ x[:nf] + x[nf:nf + mr] - x[nf + mr:at]
        r[slack] -= x[at:]
        return r

    # K = [Q + Sigma_d, Jf'; Jf, -D], its off-diagonal entries once and its
    # diagonal each iteration: the factor is of K + diag(reg), the
    # refinement against K
    reg = np.concatenate([np.full(nf, 1e-9 * s_q / scale), np.full(mr, -1e-9)])
    if not sp.issparse(Q):
        K = np.zeros((n_k, n_k))
        K[:nf, :nf] = Q
        K[nf:, :nf] = Jf
        K[:nf, nf:] = JfT
        K_values, diag = K.reshape(-1), np.arange(n_k) * (n_k + 1)

        def factor():
            """The Bunch-Kaufman factor's solve, refined against K."""
            solve = _bunch_kaufman(K)
            return lambda rhs: refined(solve, rhs)[0]
    else:
        # the pattern once, in canonical CSC from the blocks' coordinates:
        # Q's nonzeros off the diagonal, Jf's entries twice and the whole
        # diagonal
        q_row, j_row = _entry_rows(Q), nf + _entry_rows(Jf)
        off = (Q.data != 0.0) & (Q.indices != q_row)
        whole = np.arange(n_k)
        k_row = np.concatenate([q_row[off], Jf.indices, j_row, whole])
        k_col = np.concatenate([Q.indices[off], j_row, Jf.indices, whole])
        order = np.lexsort((k_row, k_col))
        k_row, k_col = k_row[order], k_col[order]
        K = sp.csc_matrix(
            (np.concatenate([Q.data[off], Jf.data, Jf.data,
                             np.zeros(n_k)])[order],
             k_row, np.searchsorted(k_col, np.arange(n_k + 1))),
            shape=(n_k, n_k))
        K_values, diag = K.data, np.flatnonzero(k_row == k_col)
        reorder = None  # factor() in the order of the first symmetric factor

        def factor():
            """The symmetric factor's refined solve where it solves K to
            1e-10, else a partially pivoted factor of K + diag(reg), made
            on the iteration's first such solve and refined against K."""
            nonlocal reorder
            solve = None
            try:
                if reorder is None:
                    lu = _symmetric_lu(K)
                    reorder, solve = _ordered_lu(K, lu.perm_c), lu.solve
                else:
                    solve = reorder(K)[1]
            except RuntimeError:    # a pivot lost to cancellation
                pass
            pivoted = []

            def solve_or_pivot(rhs):
                if solve is not None:
                    sol, solved = refined(solve, rhs)
                    if solved:
                        return sol
                if not pivoted:
                    pivoted.append(spla.splu(K + sp.diags(reg)))
                return refined(pivoted[0].solve, rhs)[0]
            return solve_or_pivot
    K_diag = np.concatenate([Q.diagonal(), np.zeros(mr)])
    abs_Q, abs_JfT = abs(Q), abs(JfT)

    def refined(solve, rhs):
        """solve(rhs) refined against K while the residual falls, at most
        three times, and whether it solves K to 1e-10 of rhs."""
        sol = solve(rhs)
        res = rhs - K @ sol
        size, goal = np.abs(res).max(), 1e-10 * np.abs(rhs).max()
        for _ in range(3):
            if size <= goal:
                break
            better = sol + solve(res)
            res_better = rhs - K @ better
            size_better = np.abs(res_better).max()
            if not size_better < size:
                break
            sol, res, size = better, res_better, size_better
        return sol, size <= goal

    def newton(solve, Sigma, R_x, R_y):
        """(dx, dy) from [Q + Sigma, A'; A, 0] (dx, dy) = (R_x, R_y), A the
        rows' matrix, with p, n and s eliminated, by the iteration's solve
        of K.  A RuntimeError from it, where every factor lost a pivot, ends
        the subproblem."""
        S_p, S_n, S_s = Sigma[nf:nf + mr], Sigma[nf + mr:at], Sigma[at:]
        R_p, R_n, R_s = R_x[nf:nf + mr], R_x[nf + mr:at], R_x[at:]
        rhs_y = R_y - R_p / S_p + R_n / S_n
        rhs_y[slack] += R_s / S_s
        sol = solve(np.concatenate([R_x[:nf], rhs_y]))
        dy = sol[nf:]
        return np.concatenate([sol[:nf], (R_p - dy) / S_p, (R_n + dy) / S_n,
                               (R_s + dy[slack]) / S_s]), dy

    x = np.zeros(N)
    y = np.zeros(mr)
    w = np.ones(len(idx))
    z = np.ones(len(idx))
    z[2 * nf:2 * (nf + mr)] = ELASTIC_WEIGHT / scale    # p and n at their price

    def boundary_step(dw, dz):
        a = 1.0     # w and z in turn: no stacked copies at the peak of RSS
        for v, dv in ((w, dw), (z, dz)):
            # -v / dv where dv < 0 only, so nothing divides by zero; the
            # reduction reads no other entry of the uninitialized quotient
            down = dv < 0.0
            a = min(a, float(np.divide(-v, dv, out=None, where=down).min(
                initial=np.inf, where=down)))
        return a

    def dual_residual(r_x):
        """Each stationarity residual against the largest term it sums,
        floored at one unit of the problem's objective."""
        terms = np.maximum.reduce([
            np.abs(cost[:nf]), abs_Q @ np.abs(x[:nf]), abs_JfT @ np.abs(y),
            np.bincount(idx, z, N)[:nf], np.full(nf, 1.0 / scale)])
        return max(float((np.abs(r_x[:nf]) / terms).max(initial=0.0)),
                   np.abs(r_x[nf:]).max(initial=0.0) * scale / ELASTIC_WEIGHT)

    def corrected_step(direction, mu):
        """The step length and direction of an iteration: the affine
        direction, Mehrotra's corrector, then one Gondzio corrector on the
        same factor, or a centring step where neither cuts w'z.  At most
        two directions are alive at once."""
        dx, dy, dw, dz = direction(-w * z)
        a = boundary_step(dw, dz)
        mu_aff = float((w + a * dw) @ (z + a * dz)) / len(idx)
        sigma = (mu_aff / mu) ** 3
        rc = sigma * mu - w * z - dw * dz
        dx, dy, dw, dz = direction(rc)
        a = boundary_step(dw, dz)
        # the products a longer step would reach, pulled into [0.1, 10]
        # sigma mu, each cut by at most 10 sigma mu
        a_t = min(1.0, 1.5 * a + 0.3)
        wz_t = (w + a_t * dw) * (z + a_t * dz)
        rc += np.maximum(np.clip(wz_t, 0.1 * sigma * mu, 10.0 * sigma * mu)
                         - wz_t, -10.0 * sigma * mu)
        del wz_t
        gondzio = direction(rc)
        a_g = boundary_step(gondzio[2], gondzio[3])
        if a_g >= 1.01 * a:
            (dx, dy, dw, dz), a = gondzio, a_g
        del gondzio
        tau = max(0.995, 1.0 - mu * scale)     # the fraction to the boundary
        a *= tau
        # a corrected step that does not cut w'z by a tenth of its length
        # gives way to a centring step, shortened until it does: Mehrotra's
        # corrector alone can cycle where the objective is flat
        if (w + a * dw) @ (z + a * dz) > (1.0 - 0.1 * a) * (w @ z):
            sigma = max(sigma, 0.1)
            dx, dy, dw, dz = direction(sigma * mu - w * z)
            a = tau * boundary_step(dw, dz)
            while a > 1e-4 and (w + a * dw) @ (z + a * dz) \
                    > (1.0 - 0.1 * a * (1.0 - sigma)) * (w @ z):
                a *= 0.5
        return a, (dx, dy, dw, dz)

    converged = factor_lost = False
    for it in range(QP_ITERATIONS + 1):
        ATy = np.concatenate([JfT @ y, y, -y, -y[slack]])
        Qd = Q @ x[:nf]
        r_x = cost + ATy - np.bincount(idx, sg * z, N)
        r_x[:nf] += Qd
        r_y = row_values(x) - b
        r_w = w - sg * (x[idx] - bnd)
        mu = float(w @ z) / max(len(idx), 1)
        primal = max(np.abs(r_y).max(initial=0.0),
                     np.abs(r_w).max(initial=0.0)) / max(
            1.0, np.abs(b).max(initial=0.0), np.abs(x).max(initial=0.0))
        if max(primal, mu * scale) <= QP_TOLERANCE \
                and dual_residual(r_x) <= QP_TOLERANCE:
            converged = True
            break
        # past 1 - mu s == 1 the fraction to the boundary is 1 (see above)
        if it == QP_ITERATIONS or 1.0 - mu * scale == 1.0:
            break
        Sigma = np.bincount(idx, z / w, N)
        D = 1.0 / Sigma[nf:nf + mr] + 1.0 / Sigma[nf + mr:at]
        D[slack] += 1.0 / Sigma[at:]
        K_values[diag] = K_diag + np.concatenate([Sigma[:nf], -D]) + reg
        # the last iteration's factors go before the next is made
        solve = None

        def direction(rc):
            R_x = np.bincount(idx, sg * (rc + z * r_w) / w, N) - r_x
            dx, dy = newton(solve, Sigma, R_x, -r_y)
            dw = sg * dx[idx] - r_w
            return dx, dy, dw, (rc - z * dw) / w

        try:
            solve = factor()
            K_values[diag] -= reg
            if it == 0:
                dx, dy, dw, dz = direction(-w * z)
            else:
                a, (dx, dy, dw, dz) = corrected_step(direction, mu)
        except RuntimeError:    # every factor of K lost a pivot
            factor_lost = True
            break
        if it == 0:
            # Mehrotra's start: the affine step's target from the neutral
            # point, its gaps and multipliers shifted to be positive and
            # then toward each other (by one where their products vanish)
            x += dx
            y += dy
            w += dw
            z += dz
            w += max(-1.5 * w.min(initial=0.0), 0.0)
            z += max(-1.5 * z.min(initial=0.0), 0.0)
            wz = float(w @ z)
            if wz > 0.0:
                w, z = w + 0.5 * wz / z.sum(), z + 0.5 * wz / w.sum()
            else:
                w, z = w + 1.0, z + 1.0
            continue
        if not (np.all(np.isfinite(dx)) and np.all(np.isfinite(dz))):
            break
        x += a * dx
        y += a * dy
        w += a * dw
        z += a * dz

    d = np.zeros(len(g))
    d[free] = np.clip(x[:nf], bl[free], bu[free])
    y_con = np.zeros(len(lo))
    y_con[rows] = scale * y
    y_bnd = -(B @ d + g + J.T @ y_con)
    y_bnd[free] = scale * (z[nf:2 * nf] - z[:nf])
    return _QPResult(d, y_con, y_bnd, it, primal, dual_residual(r_x),
                     converged, factor_lost)


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
    """Solve `nlp` from x0 by the SQP method the module describes.

    The iterates are the variables over their scale s: each variable's
    larger finite bound magnitude in its own box, floored at 1, so an
    endpoint pin, which tightens its node's box, sets that node's scale.
    The start is clipped into the box.  Each constraint row is then
    divided by its largest |entry| in the first Jacobian (at the clipped
    start, its columns scaled by s), floored at 1: the merit function and
    the convergence test see rows of comparable size, and the row scale
    holds for the whole solve.  The Jacobian and Hessian are held as dense
    arrays where nlp.n_var + nlp.n_con <= `DENSE_KKT_MAX` and as canonical
    CSR above, decided once (see the module docstring).  The report is in
    the problem's units, at the last iterate, with the objective and
    violation it was judged on, and one of these statuses:
    - "converged": feasibility, stationarity and complementarity met
      `options.tolerance` (stationarity and complementarity relative to
      the gradient's and the multipliers' sizes).
    - "max_iterations": `options.max_iterations` ran out, or the solve
      stopped without progress at a point within the tolerance's
      feasibility (within its square root for a stalled line search).
    - "infeasible": three subproblems gave no step, or the line search
      stalled, at a point violating the constraints by more than that.
    - "numerical_failure": evaluating the start point, a Hessian or the
      derivatives raised, or every factor of a subproblem's KKT matrix lost
      a pivot; the message says which.
    """
    options = options or SolverOptions()
    tol = options.tolerance
    n, m = nlp.n_var, nlp.n_con
    # the iterates are x = z / s, s the bound scale: the problem is evaluated
    # at s * x, and its gradient, Jacobian columns and Hessian scaled by s
    s = _bound_scale(nlp)
    z_lo, z_hi = nlp.z_lo / s, nlp.z_hi / s
    x = np.clip(np.asarray(x0, float) / s, z_lo, z_hi)

    dense = n + m <= DENSE_KKT_MAX

    def derivatives(x):
        # the gradient, and a copy of the Jacobian with its columns scaled
        # by s and its rows by r_scale (ones until the first Jacobian has
        # set it)
        g = s * nlp.objective_gradient(s * x)
        J = nlp.jacobian(s * x)
        if dense:
            J = J.toarray()
            J *= s
        else:
            J = _canonical_copy(J)
            J.data *= s[J.indices]
        return g, _scale_rows(J, r_scale)

    log: list[dict] = []
    it, f, J = 0, np.nan, None
    r_scale, y_con, y_bnd = np.ones(m), np.zeros(m), np.zeros(n)

    def record(objective, feasibility, step_norm, qp):
        log.append({"iteration": it, "objective": float(objective),
                    "feasibility": float(feasibility),
                    "step_norm": float(step_norm),
                    "qp_iterations": qp.iterations})

    def report(status, message):
        # at x, in the problem's units, from the evaluations x was judged on
        if J is None:   # the start point did not evaluate
            stat = violation = np.inf
        else:
            stat = _residuals(g, c, J, x, y_con, y_bnd,
                              c_lo, c_hi, z_lo, z_hi)[0]
            violation = max(_violation(c_raw, nlp.c_lo, nlp.c_hi),
                            _violation(s * x, nlp.z_lo, nlp.z_hi))
        return SolveReport(status=status, iterations=it, objective=f,
                           violation=violation, x=s * x,
                           multipliers=r_scale * y_con,
                           bound_multipliers=y_bnd / s, stationarity=stat,
                           message=message, log=log)

    try:
        f, c_raw, (g, J) = (nlp.objective(s * x), nlp.constraints(s * x),
                            derivatives(x))
    except Exception as e:
        return report("numerical_failure", f"initial evaluation failed: {e}")

    # equilibrate constraint rows once, from the first Jacobian, so the
    # merit function and the convergence test see rows of comparable size;
    # c_raw keeps the rows in the problem's units for the report
    r_scale = _row_scale(J)
    c_lo = r_scale * nlp.c_lo
    c_hi = r_scale * nlp.c_hi
    c = r_scale * c_raw
    _scale_rows(J, r_scale)

    # a box-fixed variable's step is held at 0, so its Hessian row and
    # column change no subproblem's answer
    fixed = z_lo == z_hi
    mu = 10.0
    delta = 1e3
    status, message = "max_iterations", ""
    no_progress = 0
    accepted_steps = 0
    rough_steps = 0     # accepted steps from a QP stopped at its cap
    last_rough = None

    for it in range(1, options.max_iterations + 1):
        stat, feas, comp = _residuals(g, c, J, x, y_con, y_bnd,
                                      c_lo, c_hi, z_lo, z_hi)
        # stationarity is scaled by gradient and multiplier size: the dual
        # residual inherits the units of whichever is largest
        ymax = max(float(np.abs(y_con).max(initial=0.0)),
                   float(np.abs(y_bnd).max(initial=0.0)))
        if feas <= tol and stat <= tol * max(1.0, np.abs(g).max(), ymax) \
                and comp <= tol * 10 * max(1.0, ymax):
            status = "converged"
            break

        # the Lagrangian Hessian at the current multipliers, S H S in the
        # scaled units, fixed rows and columns zeroed, shifted to be
        # semidefinite
        try:
            H = nlp.hessian(s * x, r_scale * y_con)
            if dense:
                B = H.toarray()
                B *= s * s[:, None]
                B[fixed] = 0.0
                B[:, fixed] = 0.0
                B[np.diag_indices(n)] += _shift(B)
            else:
                B = _canonical_copy(H)
                rows = _entry_rows(B)
                B.data *= s[B.indices] * s[rows]
                B.data[fixed[B.indices] | fixed[rows]] = 0.0
                B.eliminate_zeros()
                B, diag = _with_diagonal(B)
                B.data[diag] += _shift(B, diag)
        except Exception as e:
            return report("numerical_failure",
                          f"Hessian evaluation failed: {e}")

        bl = np.maximum(z_lo - x, -delta)
        bu = np.minimum(z_hi - x, delta)
        v1 = _violation_l1(c, c_lo, c_hi)
        # let the penalty recover when history has pushed it far past what
        # the current multipliers justify
        y_prev = float(np.abs(y_con).max(initial=0.0))
        if mu > 100.0 * (2.0 * y_prev + 1.0):
            mu = 10.0 * (2.0 * y_prev + 1.0)
        qp = _elastic_qp(B, g, J, c_lo - c, c_hi - c, bl, bu)
        if qp.factor_lost:
            return report("numerical_failure", "every factor of a QP "
                          "subproblem's KKT matrix lost a pivot")
        d = qp.d
        v_lin = _violation_l1(c + J @ d, c_lo, c_hi)
        y_new_con, y_new_bnd = qp.y, qp.y_bnd

        step_norm = float(np.abs(d).max())
        if step_norm < 1e-14:
            y_con, y_bnd = y_new_con, y_new_bnd
            no_progress += 1
            if no_progress >= 3:
                if feas > tol:
                    status = "infeasible"
                    message = "no step available from an infeasible point"
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
        x_floor = 1e-15 * (1.0 + float(np.abs(x).max()))
        for _ in range(40):
            if t * step_norm < x_floor:
                break  # a step below float resolution proves nothing
            x_t = np.clip(x + t * d, z_lo, z_hi)
            try:
                f_t = nlp.objective(s * x_t)
                c_raw_t = nlp.constraints(s * x_t)
                c_t = r_scale * c_raw_t
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
            record(f, feas, 0.0, qp)
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
            g_new, J_new = derivatives(x_t)
        except Exception as e:
            return report("numerical_failure",
                          f"derivative evaluation failed: {e}")

        x, f, c, c_raw, g, J = x_t, f_t, c_t, c_raw_t, g_new, J_new
        y_con, y_bnd = y_new_con, y_new_bnd
        y_bnd[fixed] = -(g + J.T @ y_con)[fixed]
        record(f, max(_violation(c, c_lo, c_hi), _violation(x, z_lo, z_hi)),
               np.abs(t * d).max(), qp)

    if rough_steps and not message:
        message = (f"{rough_steps} of {accepted_steps} accepted steps came "
                   "from a QP subproblem that stopped at its iteration cap "
                   f"(last primal residual {last_rough.primal_res:.3g}, "
                   f"dual residual {last_rough.dual_res:.3g})")
    return report(status, message)
