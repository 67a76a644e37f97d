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

Each Jacobian and Hessian the problem returns is copied once and every
scaling writes into the copy, so `solve` never writes into a matrix the
problem returned and the iterates do not depend on how it stores its
entries.  The problem's size picks the copy's form, once per solve:
- n_var + n_con <= `DENSE_KKT_MAX`: a dense array (`toarray()`, which sums
  duplicates).  The SQP iteration runs on such arrays: the scaling by
  broadcasting, the subproblem's blocks cut by index, the shift's rungs
  tested by Cholesky and the direct step (below) solved on them, and every
  product a BLAS one.  At these sizes scipy.sparse's Python layer costs
  more than the arithmetic: over one seed-1 round of the benchmark's
  canonical solves (n_var + n_con = 12-94), the CSR path made 2,405 sparse
  products and 1,560 sparse-matrix constructions, the dense path 130 and
  390, all of them the problem's own (its transcription and evaluations).
- Above: canonical CSR (rows sorted by column, duplicates summed, explicit
  zeros dropped), scaled in its `data`, the subproblem's blocks cut by
  scipy's row-then-column indexing and the free block shifted by one sparse
  add of delta I; scaled rows sum in ascending column order.
`_elastic_qp` follows the form it is handed.  Its interior-point loop runs
on CSR blocks in both: a dense subproblem whose direct step is refused
hands it CSR copies of its blocks.  With the direct step refused, the two
forms take the same steps to rounding: on every canonical start of the
benchmark's grid, the same rounds, SQP and interior-point iterations and
statuses, and the same final iterates (equal with one BLAS thread, within
1e-13 of their max norm as tested).  The dense form takes the direct step
on every subproblem of that grid, the same rounds, SQP iterations and
statuses, with final iterates within 2.9e-10 of the interior-point ones.

`solve` hands the subproblem that Hessian B in the scaled units, whole.
The subproblem cuts the block B_f of the variables the box does not fix
(the fixed ones' step is 0, so their rows and columns change no answer) and
adds delta I to it: delta is the least value on the ladder 0, 1e-8 b,
1e-7 b, ... (b the largest |B_f| entry, at least 1) for which the
symmetric factor of B_f + delta I, tested with a further 1e-12 b on the
diagonal, has no negative or zero pivot.  The ladder ends at the
Gershgorin bound without a factor: from there on the matrix is diagonally
dominant, and on the mission that saves the last of the 11 rungs' factors.
So every subproblem is convex.  On a linear-quadratic problem the Hessian
is exact and the first step is the Newton step.

The bound multiplier of a box-fixed variable is its stationarity residual
at the point the solve holds: y_bnd = -(g + J'y) on those columns, with the
subproblem's y, at the old g and J right after the subproblem and at the
new ones after an accepted step.  The subproblem's own value,
-((B + delta I) d + g + J'y), is the residual of its model at x + d, which
neither point's test reads: after an accepted step a converged Newton step
would read as unconverged until one more subproblem refreshed it.  Only
the convergence test and the report read y_bnd, so the iterates do not
depend on it.

The subproblem is elastic in every row:

    min 1/2 d'(B + delta I)d + g'd + W sum(p + n)
    s.t. c_lo - c <= J d + p - n <= c_hi - c,  bl <= d <= bu,  p, n >= 0,

with the box the trust region cut by the variable bounds, so it has a
solution however the box cuts across the linearized rows.  The weight is
fixed, W = `ELASTIC_WEIGHT` = 1e10, above the multipliers the solver has
met: where the box can meet the linearized rows the answer is the hard-row
step (p = n = 0), and where it cannot, the step that leaves the least
violation, its violated rows' multipliers at +-W.  That is the answer an
elastic-weight climb from 10 to a cap of 1e10 ends on in either case, in
one solve.  The merit weight follows the returned multipliers.

Where no bound, untied row or elastic variable is active at the answer,
the answer is the equality-constrained Newton step: one solve of the KKT
system over the free variables and the tied rows (Nocedal and Wright,
Numerical Optimization, 2nd ed., 2006, sec. 16.1), the step an active-set
method takes from an empty working set.  So where `solve` holds dense
arrays `_elastic_qp` first solves [B_f, J_t'; J_t, 0] (d, y) = (-g, b_t),
in the interior-point loop's scaled units, by one Bunch-Kaufman factor
(LAPACK dsytrf; Bunch and Kaufman, Math. Comp. 31, 1977; `_direct_step`).
It makes the step an iterate of the loop: p = n = 0, each slack at its
row's value, every bound multiplier 0 and each elastic multiplier at its
stationarity value W +- y.  It keeps the iterate where every box and slack
gap is positive, every multiplier is non-negative (|y| <= W) and the
loop's own convergence test passes at it.  Those are the subproblem's KKT
conditions, so for the convex B_f the step is the subproblem's solution,
and it is returned as converged after 0 interior-point iterations.  One
test judges every subproblem, taken directly or by the loop.  Every
canonical subproblem is such a case: over a seed-1 round of the
benchmark's canonical solves all 65 keep the step, and the round's 455
interior-point iterations fall to 0.  Elsewhere the interior-point loop
runs as before.  A refused step costs little: its factor takes 8 us at the
canonical grid's median order of 32 (46 us at most).  A CSR solve does not
try it.  There one more factor would cost about a twentieth of the
mission's subproblem, which factors K in each of its 20 iterations, and
the step would be refused: it leaves the box on 66 of the capped
subproblem's 1,475 free variables and puts 4 of its 124 untied rows
outside their sides.

Otherwise `_elastic_qp` solves it by Mehrotra's predictor-corrector (SIAM
J. Optim. 2(4), 1992).  Eliminating p, n and the row slacks leaves the
quasi-definite matrix K = [B_f + Sigma, J'; J, -D] with D > 0 (Vanderbei,
SIAM J. Optim. 5, 1995), which factors stably under symmetric pivoting.
Its n x n pattern, one CSC matrix, is the same in every iteration of a
subproblem.  `_symmetric_lu` factors K + diag(reg) without pivoting, reg
1e-9 times the quadratic part's magnitude on the variables' block and
-1e-9 on the rows', 1e-3 of that while mu s is above 1e3 (below); its U
has exactly one negative pivot per row.  What the pattern alone decides is
worked out once per pattern and kept (`_kkt_analysis`): the sort of K's
coordinates into CSC, its diagonal's positions, the minimum-degree order
of a first symmetric factor, and the plan that gathers K into that order
(`_ordered_lu`).  Every factor of K, a subproblem's first included, is of
K + diag(reg) permuted into that order, as it stands, so no answer depends
on whether its analysis was kept; where it was not, the minimum-degree
factor is one more.  The four most recently used analyses are kept, keyed
by the blocks' patterns: the 40 capped SQP iterations from the mission
guess put 2 patterns into their 40 subproblems, and a solve of one NLP
again, as each capped benchmark request after the first is, finds its
patterns analyzed.  On the mission's K (28k entries) a kept analysis
holds about 1 MB and spares a minimum-degree factor (7-8 ms) and the
gather plan (1.2-1.7 ms); a factor in a known order takes 3.3-4.8 ms.
Every symmetric factor runs one-column SuperLU panels with supernodes
relaxed to 2 columns: the LGR interval blocks give K narrow supernodes,
and on the mission's K (n = 2,817) a natural-order factor takes 3.3-4.1 ms
with these settings against 5.1-6.1 ms with SuperLU's wide-supernode
defaults, for the same fill and pivot signs.  Each solve is refined
against K.  Where a symmetric factor, refined, misses K by more than
1e-10, a partially pivoted factor of K + diag(reg), at SuperLU's defaults,
takes over for the iteration; where that loses a pivot too, the subproblem
ends with its last iterate, flagged as at its cap.

The size of reg sets how many back-solves a direction takes: a first
back-solve misses K by about reg times its answer.  At 1e-9 throughout,
each of the 27 directions of the capped mission subproblem's iterations
0-9 (mu s from 5e10 down to 2e6) missed 1e-10 and took a second back-solve
that removed only reg's own error: 80 back-solves for its 53 directions.
With reg at 1e-3 of that while mu s is above 1e3, each direction takes
one.  Near the answer reg stays at 1e-9, and with it the second
back-solve, which the last steps need.  Over 80,000 small random QPs drawn
like the property test's, 3 did not converge with this rule and 7 with
1e-9 throughout.  Over the first 40,000, 1e-3 of 1e-9 throughout left
98 unconverged and the rows' reg at 1e-10 throughout 12, against 0 for
this rule and 2 for 1e-9.
The regularization also carries a rank-deficient B_f past the iterations
where Sigma falls below its rounding and K itself is singular, as it does
on the variables a wide box leaves far from their bounds: B = [[1, 1],
[1, 1]] in a box of +-1e6 converges in 12 iterations.

Three choices cut the iterations, and so the factors, since on the
mission's K a back-solve on a factor costs 0.14-0.26 ms against 3.8-5.0 ms
for the refactor (its gather into the analysis's order and SuperLU):
- The elastic pairs' multipliers start at their price W/s, their
  stationarity value at y = 0, not at 1, about 1e10/s below it.
- After Mehrotra's corrector, one Gondzio corrector (Comput. Optim. Appl.
  6, 1996) aims at a_t = min(1, 1.5 a + 0.3), a the corrected step's
  length: the products w z that step would reach are pulled into
  [0.1, 10] sigma mu, none cut by more than 10 sigma mu, and one more
  back-solve on the same factor gives the direction, kept only where its
  step is at least 1.01 a.  So it is computed only where 1.01 a <= 1, as
  no step exceeds 1: in 359 of the 390 corrected steps of one seed-1
  round of the benchmark's canonical solves, the direct step refused, it
  could not be kept, and in 5 of the 19 of the capped mission subproblem.  Without it the middle
  iterations are poorly centred: steps of 0.3-0.8, the complementarity
  falling 2-4x each.
- The fraction to the boundary is tau = max(0.995, 1 - mu s) (Waechter
  and Biegler, Math. Prog. 106, 2006): a fixed 0.995 caps each
  iteration's cut in the complementarity at 200x in the tail.
With them the first mission subproblem takes 20 iterations (25 without),
every subproblem of a canonical default-mesh solve 7 (13) where the direct
step is refused, and 40 capped SQP iterations from the mission guess 981 in
all (1,130).  The later ones still take 22-27: a Hessian shifted by about
1e12 leaves a complementarity path of about 34 decades.
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
import math
import numbers
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

ELASTIC_WEIGHT = 1e10   # the price of a unit of linearized row violation
QP_TOLERANCE = 1e-9     # relative KKT residuals of a converged subproblem,
                        # and its mean complementarity in objective units
QP_ITERATIONS = 60      # interior-point iterations per subproblem
DENSE_KKT_MAX = 140     # the largest n_var + n_con that `solve` holds as
                        # dense arrays, where its subproblems try the
                        # direct step


@dataclass
class SolverOptions:
    tolerance: float = 1e-6
    max_iterations: int = 500

    def __post_init__(self):
        if not math.isfinite(self.tolerance):
            raise ValueError("tolerance must be finite")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if not _is_integer(self.max_iterations):
            raise ValueError("max_iterations must be an integer")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


def _is_integer(n) -> bool:
    """Whether n is an integer, a bool not counting as one."""
    return isinstance(n, numbers.Integral) and not isinstance(n, bool)


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
    # subproblem's interior-point iterations (0 where it took the direct
    # step)
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


def _column_order(rows: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """The permutation that sorts unique coordinates of an n x n matrix by
    column, then row: one sort of the keys col * n + row, which on the
    mission's K takes about a third of lexsort's time."""
    return np.argsort(cols.astype(np.int64) * n + rows, kind="stable")


def _ordered_lu(K: sp.csc_matrix, perm: np.ndarray):
    """factor(M) for matrices M on K's pattern (canonical CSC, both
    triangles): the symmetric factor of P M P' in the natural order, P the
    symmetric permutation that moves row and column i to perm[i] (the
    minimum-degree factor's `perm_c`), and its solve of M.  The permuted
    pattern, and where each of its entries sits in M.data, are worked out
    here once per pattern: `_kkt_analysis` keeps the returned factor() with
    the pattern, and every factor of K, a subproblem's first included, is
    made by it."""
    n = K.shape[0]
    rows = perm[K.indices]
    cols = np.repeat(perm, np.diff(K.indptr))
    src = _column_order(rows, cols, n)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=n))])
    PMP = sp.csc_matrix((K.data[src], rows[src], indptr), shape=K.shape)
    inv = np.empty_like(perm)   # a scatter: argsort would add 0.2 MB of RSS
    inv[perm] = np.arange(n)

    def factor(M):
        M.data.take(src, out=PMP.data)
        lu = _symmetric_lu(PMP, "NATURAL")
        return lu, lambda rhs: lu.solve(rhs.take(inv)).take(perm)

    return factor


class _KKTAnalysis:
    """What K's pattern alone decides, worked out once per pattern (`key`,
    the blocks' patterns): where each entry of K in canonical CSC comes
    from in Q's and Jf's data, its `indices` and `indptr`, the positions of
    its diagonal and, once a minimum-degree factor of K has succeeded, the
    factor() `_ordered_lu` makes in that order."""

    def __init__(self, key: tuple, Q: sp.csr_matrix, Jf: sp.csr_matrix):
        self.key = key
        nf, mr = Q.shape[0], Jf.shape[0]
        n_k = nf + mr
        # Q's entries off the diagonal, Jf's twice and the whole diagonal,
        # whose values each iteration sets
        q_row, j_row = _entry_rows(Q), nf + _entry_rows(Jf)
        off = np.flatnonzero(Q.indices != q_row)
        whole = np.arange(n_k)
        k_row = np.concatenate([q_row[off], Jf.indices, j_row, whole])
        k_col = np.concatenate([Q.indices[off], j_row, Jf.indices, whole])
        order = _column_order(k_row, k_col, n_k)
        k_row, k_col = k_row[order], k_col[order]
        j = Q.nnz + np.arange(Jf.nnz)
        # each entry's place in (Q.data, Jf.data, 0)
        self.source = np.concatenate(
            [off, j, j, np.full(n_k, Q.nnz + Jf.nnz)])[order]
        # int32 where it fits, as scipy's constructor would convert them
        K = sp.csc_matrix((np.zeros(len(k_row)), k_row,
                           np.searchsorted(k_col, np.arange(n_k + 1))),
                          shape=(n_k, n_k))
        self.indices, self.indptr, self.shape = K.indices, K.indptr, K.shape
        self.diag = np.flatnonzero(k_row == k_col)
        self.factor = None

    def matrix(self, Q: sp.csr_matrix, Jf: sp.csr_matrix) -> sp.csc_matrix:
        """K with Q's and Jf's values off its diagonal and 0 on it."""
        values = np.concatenate([Q.data, Jf.data, [0.0]])[self.source]
        return sp.csc_matrix((values, self.indices, self.indptr),
                             shape=self.shape)


# K's analyses by pattern, the most recently used last: the consecutive
# SQP iterations of a solve, and solves of one NLP from nearby points, put
# the same K pattern into their subproblems
_ANALYSES: dict[tuple, _KKTAnalysis] = {}
ANALYSES_KEPT = 4


def _kkt_analysis(Q: sp.csr_matrix, Jf: sp.csr_matrix) -> _KKTAnalysis:
    """The analysis kept for the blocks' patterns, else a new one, which
    `_keep_analysis` stores once its minimum-degree factor succeeds."""
    key = (Q.shape[0], Jf.shape[0], Q.indptr.tobytes(), Q.indices.tobytes(),
           Jf.indptr.tobytes(), Jf.indices.tobytes())
    analysis = _ANALYSES.pop(key, None)
    if analysis is None:
        return _KKTAnalysis(key, Q, Jf)
    _ANALYSES[key] = analysis
    return analysis


def _keep_analysis(analysis: _KKTAnalysis) -> None:
    """Store `analysis`, dropping the least recently used past
    `ANALYSES_KEPT`."""
    _ANALYSES[analysis.key] = analysis
    while len(_ANALYSES) > ANALYSES_KEPT:
        del _ANALYSES[next(iter(_ANALYSES))]


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


def _shift(B) -> float:
    """The least delta on the ladder 0, 1e-8 b, 1e-7 b, ... (b the largest
    |B| entry, at least 1) such that B + delta I has no negative or zero
    pivot in its symmetric factor.  The factor tested is of
    B + (delta + 1e-12 b) I, so that a singular positive-semidefinite B
    passes at 0.  The ladder ends at the Gershgorin bound, untested: from
    there on the matrix is diagonally dominant, so positive definite.
    B, finite, is a dense array or canonical CSR, read as it is: the
    subproblem's free block.  Each rung adds (delta + 1e-12 b) I, I in B's
    form, and factors the sum: a dense one by Cholesky (LAPACK dpotrf,
    whose info is 0 exactly where every pivot is positive), a sparse one by
    `_symmetric_lu`, whose U diagonal is read.  A rung that leaves a
    diagonal entry <= 0 fails either factor, so it is skipped unfactored:
    on the capped mission subproblem's free block that leaves 4 of its 10
    sparse factors."""
    sparse = sp.issparse(B)
    b = max(1.0, float(np.abs(B.data if sparse else B).max(initial=0.0)))
    on_diag = B.diagonal()
    row_sums = np.asarray(abs(B).sum(axis=1)).ravel()
    gershgorin = float((row_sums - np.abs(on_diag) - on_diag)
                       .max(initial=0.0))
    n = len(on_diag)
    I = sp.identity(n, format="csr") if sparse else np.eye(n)
    delta = 0.0
    while delta < gershgorin:
        c = delta + 1e-12 * b
        # a rung with a diagonal entry <= 0 cannot pass, so it is not
        # factored: a Cholesky pivot is that entry less a sum of squares,
        # and a symmetric factor with every pivot positive would make the
        # matrix positive definite
        if (on_diag + c).min() > 0.0:
            M = B + c * I
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


def _direct_step(Q: np.ndarray, c: np.ndarray, Jt: np.ndarray,
                 b_t: np.ndarray):
    """The solve of [Q, Jt'; Jt, 0] (d, y) = (-c, b_t) by one Bunch-Kaufman
    factor: the equality-constrained Newton step d over the free variables
    (Q, c and Jt's columns cut to them) and the tied rows' multipliers y.
    Returns (d, y), or None where no variable is free or a pivot is exactly
    zero.  Whether the step answers the subproblem is `_elastic_qp`'s test."""
    nf, nt = len(c), len(b_t)
    if nf == 0:
        return None
    A = np.zeros((nf + nt, nf + nt))
    A[:nf, :nf] = Q
    A[nf:, :nf] = Jt
    A[:nf, nf:] = Jt.T
    try:
        sol = _bunch_kaufman(A)(np.concatenate([-c, b_t]))
    except RuntimeError:    # an exactly zero pivot
        return None
    return sol[:nf], sol[nf:]


def _elastic_qp(B, g: np.ndarray, J, lo: np.ndarray, hi: np.ndarray,
                bl: np.ndarray, bu: np.ndarray) -> _QPResult:
    """The elastic subproblem

        min 1/2 d'(B + delta I)d + g'd + W sum(p + n)
        s.t. lo <= J d + p - n <= hi,  bl <= d <= bu,  p, n >= 0,

    W = `ELASTIC_WEIGHT`, for any symmetric B and a finite box, B and J
    both dense arrays or both CSR: `solve` picks the form by the problem's
    size, and this follows it.  The block B_f of the variables the box does
    not fix is cut in B's form and shifted by delta = `_shift(B_f)`, so the
    subproblem is convex; the fixed variables' step is 0, and their rows and
    columns of B change no answer.  Dense blocks try the equality-
    constrained Newton step over the free variables and the tied rows first
    (`_direct_step`), as an iterate of the interior-point loop; where it
    passes the loop's convergence test it is returned after 0 iterations.
    Otherwise, and for CSR blocks, the subproblem is solved by Mehrotra's
    primal-dual predictor-corrector method, on CSR blocks (copied from dense
    ones) and one sparse factor of K.  Returns the step d, the row
    multipliers y (|y| <= W) and the box multipliers y_bnd, signed as in
    `_residuals`: (B + delta I) d + g + J'y + y_bnd = 0.

    The unknowns are x = (d_f, p, n, s): d_f the free variables, and a slack
    s in [lo, hi] for each row that is not tied, so every row reads
    J d + p - n - s = b (b the tie's value, or 0).  A row with no finite
    side binds nothing and is left out, and a fixed variable's bound
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
    # the blocks, cut in B's form, and the free block shifted to be convex
    Q, Jf = B[free][:, free], J[sided][:, free]
    dense = not sp.issparse(B)
    if dense:
        Q[np.diag_indices(nf)] += _shift(Q)
    else:
        Q = Q + _shift(Q) * sp.identity(nf, format="csr")
    JfT = Jf.T

    def answer(d_f, y_r, y_free, *rest):
        """The result in the problem's units: d from its free part, the
        rows' multipliers y and the free variables' bound multipliers, the
        fixed ones' from stationarity."""
        d = np.zeros(len(g))
        d[free] = d_f
        y_con = np.zeros(len(lo))
        y_con[rows] = y_r
        y_bnd = -(B @ d + g + J.T @ y_con)
        y_bnd[free] = y_free
        return _QPResult(d, y_con, y_bnd, *rest)

    # the objective over its scale s, a third of the way (on the log
    # scale) from the quadratic part's magnitude to the weight
    s_q = max(1.0, float(np.abs(g).max(initial=0.0)),
              float(np.abs(Q if dense else Q.data).max(initial=0.0)))
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
    sg = np.repeat([1.0, -1.0, 1.0, 1.0, -1.0],
                   [nf, nf, 2 * mr, has_lo.sum(), has_hi.sum()])
    elastic = slice(2 * nf, 2 * (nf + mr))  # p's and n's pairs

    def row_values(x):
        r = Jf @ x[:nf] + x[nf:nf + mr] - x[nf + mr:at]
        r[slack] -= x[at:]
        return r

    def dual_residual(r_x):
        """Each stationarity residual against the largest term it sums,
        floored at one unit of the problem's objective."""
        terms = np.maximum.reduce([
            np.abs(cost[:nf]), abs(Q) @ np.abs(x[:nf]), abs(JfT) @ np.abs(y),
            np.bincount(idx, z, N)[:nf], np.full(nf, 1.0 / scale)])
        return max(float((np.abs(r_x[:nf]) / terms).max(initial=0.0)),
                   np.abs(r_x[nf:]).max(initial=0.0) * scale / ELASTIC_WEIGHT)

    def residuals():
        """The KKT residuals of the iterate (x, y, w, z): r_x, r_y, r_w, the
        mean complementarity mu, the relative primal residual and, where
        mu s and that meet `QP_TOLERANCE`, the dual one (else inf).  The
        iterate answers the subproblem where the dual one meets it too."""
        ATy = np.concatenate([JfT @ y, y, -y, -y[slack]])
        r_x = cost + ATy - np.bincount(idx, sg * z, N)
        r_x[:nf] += Q @ x[:nf]
        r_y = row_values(x) - b
        r_w = w - sg * (x[idx] - bnd)
        mu = float(w @ z) / max(len(idx), 1)
        primal = max(np.abs(r_y).max(initial=0.0),
                     np.abs(r_w).max(initial=0.0)) / max(
            1.0, np.abs(b).max(initial=0.0), np.abs(x).max(initial=0.0))
        dual = (dual_residual(r_x) if max(primal, mu * scale) <= QP_TOLERANCE
                else np.inf)
        return r_x, r_y, r_w, mu, primal, dual

    if dense:
        # the direct step as an iterate of the loop (see the module
        # docstring); the p and n gaps are 0, the others must be positive
        step = _direct_step(Q, cost[:nf], Jf[tied], b[tied])
        if step is not None:
            x, y = np.zeros(N), np.zeros(mr)
            x[:nf], y[tied] = step
            x[at:] = row_values(x)[slack]
            w, z = sg * (x[idx] - bnd), np.zeros(len(idx))
            z[elastic] = ELASTIC_WEIGHT / scale + np.concatenate([y, -y])
            _, _, _, _, primal, dual = residuals()
            if (dual <= QP_TOLERANCE and np.all(w[:2 * nf] > 0.0)
                    and np.all(w[elastic.stop:] > 0.0) and np.all(z >= 0.0)):
                return answer(x[:nf], scale * y, 0.0, 0, primal, dual, True,
                              False)
        Q, Jf = sp.csr_matrix(Q), sp.csr_matrix(Jf)
        JfT = Jf.T

    # K = [Q + Sigma_d, Jf'; Jf, -D], its off-diagonal entries once and its
    # diagonal each iteration; each factor is of K + diag(reg), and every
    # solve is refined against K.  reg is 1e-9 of the quadratic part's
    # magnitude on the variables' block and -1e-9 on the rows', times 1e-3
    # while mu s is above 1e3 (see the module docstring)
    reg_near = np.concatenate([np.full(nf, 1e-9 * s_q / scale),
                               np.full(mr, -1e-9)])
    analysis = _kkt_analysis(Q, Jf)
    K = analysis.matrix(Q, Jf)
    K_values, diag = K.data, analysis.diag

    def factor(reg):
        """The symmetric factor of K + diag(reg)'s refined solve where it
        solves K to 1e-10, else a partially pivoted factor of K + diag(reg),
        made on the iteration's first such solve and refined against K.  The
        symmetric factor is always made in the analysis's order: where the
        pattern has none yet, a minimum-degree factor finds it first."""
        solve = None
        K_values[diag] += reg
        try:
            if analysis.factor is None:
                analysis.factor = _ordered_lu(K, _symmetric_lu(K).perm_c)
                _keep_analysis(analysis)
            solve = analysis.factor(K)[1]
        except RuntimeError:    # a pivot lost to cancellation
            pass
        K_values[diag] -= reg
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
    z[elastic] = ELASTIC_WEIGHT / scale    # p and n at their price

    def boundary_step(dw, dz):
        a = 1.0     # w and z in turn: no stacked copies at the peak of RSS
        for v, dv in ((w, dw), (z, dz)):
            # -v / dv where dv < 0 only, so nothing divides by zero
            down = dv < 0.0
            a = min(a, float((-v[down] / dv[down]).min(initial=np.inf)))
        return a

    def corrected_step(direction, mu):
        """The step length and direction of an iteration: the affine
        direction, Mehrotra's corrector, then one Gondzio corrector on the
        same factor where its step could be kept, or a centring step where
        neither cuts w'z.  At most two directions are alive at once."""
        dx, dy, dw, dz = direction(-w * z)
        a = boundary_step(dw, dz)
        mu_aff = float((w + a * dw) @ (z + a * dz)) / len(idx)
        sigma = (mu_aff / mu) ** 3
        rc = sigma * mu - w * z - dw * dz
        dx, dy, dw, dz = direction(rc)
        a = boundary_step(dw, dz)
        # a Gondzio step is kept at 1.01 a or more, and no step exceeds 1
        if 1.01 * a <= 1.0:
            # the products a longer step would reach, pulled into [0.1, 10]
            # sigma mu, each cut by at most 10 sigma mu
            a_t = min(1.0, 1.5 * a + 0.3)
            wz_t = (w + a_t * dw) * (z + a_t * dz)
            rc += np.maximum(np.clip(wz_t, 0.1 * sigma * mu,
                                     10.0 * sigma * mu) - wz_t,
                             -10.0 * sigma * mu)
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

    factor_lost = False
    for it in range(QP_ITERATIONS + 1):
        r_x, r_y, r_w, mu, primal, dual = residuals()
        converged = dual <= QP_TOLERANCE
        if converged:
            break
        # past 1 - mu s == 1 the fraction to the boundary is 1 (see above)
        if it == QP_ITERATIONS or 1.0 - mu * scale == 1.0:
            break
        Sigma = np.bincount(idx, z / w, N)
        D = 1.0 / Sigma[nf:nf + mr] + 1.0 / Sigma[nf + mr:at]
        D[slack] += 1.0 / Sigma[at:]
        K_values[diag] = K_diag + np.concatenate([Sigma[:nf], -D])
        # the last iteration's factors go before the next is made
        solve = None

        def direction(rc):
            R_x = np.bincount(idx, sg * (rc + z * r_w) / w, N) - r_x
            dx, dy = newton(solve, Sigma, R_x, -r_y)
            dw = sg * dx[idx] - r_w
            return dx, dy, dw, (rc - z * dw) / w

        try:
            solve = factor(reg_near * (1e-3 if mu * scale > 1e3 else 1.0))
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

    return answer(np.clip(x[:nf], bl[free], bu[free]), scale * y,
                  scale * (z[nf:2 * nf] - z[:nf]), it, primal,
                  dual_residual(r_x), converged, factor_lost)


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

    # a box-fixed variable's bound multiplier is its stationarity residual
    # at the point the solve holds
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
        # scaled units; the subproblem shifts its free block
        try:
            H = nlp.hessian(s * x, r_scale * y_con)
            if dense:
                B = H.toarray()
                B *= s * s[:, None]
            else:
                B = _canonical_copy(H)
                B.data *= s[B.indices] * s[_entry_rows(B)]
            if not np.all(np.isfinite(B if dense else B.data)):
                raise ValueError("non-finite Hessian entry")
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
        y_con, y_bnd = qp.y, qp.y_bnd
        y_bnd[fixed] = -(g + J.T @ y_con)[fixed]
        d = qp.d
        v_lin = _violation_l1(c + J @ d, c_lo, c_hi)

        step_norm = float(np.abs(d).max())
        if step_norm < 1e-14:
            no_progress += 1
            if no_progress >= 3:
                if feas > tol:
                    status = "infeasible"
                    message = "no step available from an infeasible point"
                break
            continue

        # ratchet the penalty with the multipliers the subproblem returned
        y_soft = float(np.abs(y_con).max(initial=0.0))
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
        y_bnd[fixed] = -(g + J.T @ y_con)[fixed]
        record(f, max(_violation(c, c_lo, c_hi), _violation(x, z_lo, z_hi)),
               np.abs(t * d).max(), qp)

    if rough_steps and not message:
        message = (f"{rough_steps} of {accepted_steps} accepted steps came "
                   "from a QP subproblem that stopped at its iteration cap "
                   f"(last primal residual {last_rough.primal_res:.3g}, "
                   f"dual residual {last_rough.dual_res:.3g})")
    return report(status, message)
