"""Multi-phase Legendre-Gauss-Radau transcription into a sparse NLP.

Variable layout, per phase: state rows at every collocation node plus the
final non-collocated endpoint, control rows at collocation nodes only, then
t0 and tf; shared integral accumulators sit at the end of the vector.

Callbacks are autonomous, pure, batched and analytic: each maps a stack of
points, one row per point, to one output row per point, each from its own
input row alone, since the derivative probes stack many perturbed copies of
a point into one call; the derivatives at a point are computed once and
reused.  They take complex stacks, and they test, index and branch on real
parts only: every first partial is a complex step, Im f(v + ih) / h with
h = 1e-30, exact to rounding (Squire & Trapp, SIAM Rev. 40(1), 1998;
Martins, Sturdza & Alonso, ACM TOMS 29(3), 2003), and a cast of a stack to
real raises numpy's ComplexWarning.  A phase's `node(X, U)` returns its
rates, path values and integrands as the columns of one output, so they
share one pass over the nodes (see `PhaseDef`); its `cost` is a callback of
its own, so the objective runs without the node.  Boundary and linkage
functions take stacks of endpoint rows.  A mesh carries its own node
geometry (rules, interval edges, node taus, quadrature weights), built once
when the mesh is made, and everything that places nodes reads it.

Each axis of the NLP is walked once.  `_build_layout` names, bounds and
places every variable.  `_build_rows` walks the constraint rows once, group
by group (a phase's defects, each path constraint, each accumulator balance,
boundary, duration row and linkage), and declares each group's names,
bounds, Jacobian blocks, node terms and Hessian terms side by side.  A row's
value follows from them: `constraints()` is the node terms on one nominal
node pass per phase, plus the constant blocks as one affine matrix times z,
plus the boundary and linkage functions, the only groups with a function.

Every row that reads node outputs, and the objective, is a node term: a
constant coefficient per node times node outputs, times tf - t0 if the
phase's times scale it.  The defects weigh the rates by -frac/2, a path row
its column by 1, an accumulator balance each integrand that feeds it by
minus the quadrature weights, and the objective the cost by plus them.  One
declaration gives a term's value, its Jacobian (or gradient) node block and
t0/tf columns, its node weight in the Lagrangian and its Hessian t0/tf
border; a term is linear in tf - t0, so it has no tf-tf entry.
`hessian(z, y)` sums the weighted node terms' second partials in one
(nx+nu) block per collocation node, from one stacked probe per phase in
which the node callback and the cost each run only if one of their columns
carries a nonzero weight; boundaries and linkages add a dense block over
their columns, and duration rows nothing.  Each entry is a central
difference of a complex-step partial (`_hessians`).  `fly` integrates a
phase's node rates under a control law: a first guess flown on the
problem's dynamics.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp

from .lgr import barycentric_eval, lgr_rule

ComplexWarning = getattr(np, "exceptions", np).ComplexWarning  # moved in numpy 1.25

_CS_STEP = 1e-30
_FD_STEP = float(np.finfo(float).eps) ** (1.0 / 3.0)   # the Hessian's outer step


class EvaluationError(RuntimeError):
    """Non-finite callback output, carrying the offending row's identity."""

    def __init__(self, what: str, index: int, name: str):
        super().__init__(f"non-finite {what} at index {index} ({name})")
        self.index = index
        self.name = name


@dataclass
class PathConstraint:
    """Bounds on one column of the node output, at every node."""
    name: str
    lo: float
    hi: float


@dataclass
class IntegralTerm:
    """One column of the node output, integrated into an accumulator."""
    accumulator: str


@dataclass
class Accumulator:
    name: str
    lo: float
    hi: float


@dataclass
class PhaseDef:
    """One phase.  node(X, U), states (n, nx) and controls (n, nu), returns
    (n, nx + len(path) + len(integrands)): the state rates, then one column
    per path constraint, then one per integrand.  cost(X, U) returns the
    running cost, (n,).  Both take complex stacks, and test, index and
    branch on real parts only.  Every bound holds nx values (nu for u_lo
    and u_hi).  The endpoint bounds x0_lo/x0_hi and xf_lo/xf_hi tighten the
    state box x_lo/x_hi at the first and the last node, channel by channel;
    an infinite or missing one leaves its side of the box as it is."""
    name: str
    nx: int
    nu: int
    node: Callable
    x_lo: np.ndarray
    x_hi: np.ndarray
    u_lo: np.ndarray
    u_hi: np.ndarray
    t0_lo: float
    t0_hi: float
    tf_lo: float
    tf_hi: float
    x0_lo: np.ndarray | None = None
    x0_hi: np.ndarray | None = None
    xf_lo: np.ndarray | None = None
    xf_hi: np.ndarray | None = None
    path: list[PathConstraint] = field(default_factory=list)
    integrands: list[IntegralTerm] = field(default_factory=list)
    cost: Callable | None = None
    min_duration: float = 0.0
    state_names: tuple[str, ...] = ()
    control_names: tuple[str, ...] = ()

    def __post_init__(self):
        free = {"x0_lo": -np.inf, "x0_hi": np.inf, "xf_lo": -np.inf, "xf_hi": np.inf}
        for attr in ("x_lo", "x_hi", "u_lo", "u_hi", *free):
            n = self.nu if attr.startswith("u") else self.nx
            v = getattr(self, attr)
            if v is None and attr in free:
                v = np.full(n, free[attr])
            v = np.asarray(v, dtype=float)
            if v.shape != (n,):
                raise ValueError(f"phase {self.name}: {attr} has shape {v.shape}, "
                                 f"not ({n},)")
            setattr(self, attr, v)
        if not self.state_names:
            self.state_names = tuple(f"x{i}" for i in range(self.nx))
        if not self.control_names:
            self.control_names = tuple(f"u{i}" for i in range(self.nu))


def _one_length(group):
    """A linkage's or boundary's lo and hi as 1-D arrays of one length."""
    lo, hi = (np.atleast_1d(np.asarray(b, dtype=float))
              for b in (group.lo, group.hi))
    if lo.ndim != 1 or lo.shape != hi.shape:
        raise ValueError(f"{group.name}: lo has shape {lo.shape} and hi {hi.shape}")
    group.lo, group.hi = lo, hi


@dataclass
class Linkage:
    """Constraint tying phase a's terminal endpoint to phase b's start:
    func(xa, ta, xb, tb), on a's final states (n, nx_a) and times (n,) and
    b's initial ones, returns (n, len(lo)), one row per endpoint pair.  It
    takes complex stacks, as `PhaseDef`'s callbacks do."""

    name: str
    a: int
    b: int
    func: Callable
    lo: np.ndarray
    hi: np.ndarray

    __post_init__ = _one_length


@dataclass
class BoundaryConstraint:
    """Constraint on one phase's endpoints: func(x0, xf, t0, tf), on initial
    and final states (n, nx) and times (n,), returns (n, len(lo)).  It takes
    complex stacks, as `PhaseDef`'s callbacks do."""
    name: str
    phase: int
    func: Callable
    lo: np.ndarray
    hi: np.ndarray

    __post_init__ = _one_length


@dataclass
class MultiPhaseProblem:
    phases: list[PhaseDef]
    linkages: list[Linkage] = field(default_factory=list)
    boundaries: list[BoundaryConstraint] = field(default_factory=list)
    accumulators: list[Accumulator] = field(default_factory=list)

    def __post_init__(self):
        names = {a.name for a in self.accumulators}
        if len(names) < len(self.accumulators):
            raise ValueError("accumulator names must be unique")
        for p, ph in enumerate(self.phases):
            for term in ph.integrands:
                if term.accumulator not in names:
                    raise ValueError(f"phase {p} integrand targets unknown "
                                     f"accumulator {term.accumulator}")
        for ln in self.linkages:
            if not (0 <= ln.a < len(self.phases) and 0 <= ln.b < len(self.phases)):
                raise ValueError(f"linkage {ln.name} references invalid phases")
        for bc in self.boundaries:
            if not 0 <= bc.phase < len(self.phases):
                raise ValueError(f"boundary {bc.name} references invalid phase")
        # an end node's bounds are the state box cut by the endpoint bounds;
        # where they cross, the NLP has a variable it cannot place
        for ph in self.phases:
            for end, lo, hi in (("first", ph.x0_lo, ph.x0_hi),
                                ("last", ph.xf_lo, ph.xf_hi)):
                empty = np.maximum(ph.x_lo, lo) > np.minimum(ph.x_hi, hi)
                if empty.any():
                    i = int(np.argmax(empty))
                    raise ValueError(
                        f"phase {ph.name}: state {ph.state_names[i]} has no "
                        f"value at its {end} node: box [{ph.x_lo[i]:.10g}, "
                        f"{ph.x_hi[i]:.10g}], {end}-node bounds "
                        f"[{lo[i]:.10g}, {hi[i]:.10g}]")


@dataclass
class MeshPhase:
    """Interval fractions of a phase's [0, 1] scale and interval degrees.

    The node geometry is built once, read-only: `rules` (one LGR rule per
    interval), `starts` (first state node of each interval), `edges`
    (interval boundaries, the last exactly 1.0), `coll_taus` and
    `state_taus` (collocation nodes, then those plus the endpoint 1.0) and
    `wts_tau` (quadrature weights on the tau scale, frac_k/2 * w_i).
    """
    fractions: np.ndarray
    degrees: np.ndarray

    def __post_init__(self):
        self.fractions = np.asarray(self.fractions, dtype=float)
        self.degrees = np.asarray(self.degrees, dtype=int)
        if len(self.fractions) != len(self.degrees) or len(self.fractions) == 0:
            raise ValueError("mesh needs matching, non-empty fractions/degrees")
        if np.any(self.fractions <= 0) or abs(self.fractions.sum() - 1.0) > 1e-12:
            raise ValueError("mesh fractions must be positive and sum to 1")
        if np.any(self.degrees < 1):
            raise ValueError("interval degrees must be >= 1")
        self.rules = tuple(lgr_rule(int(d)) for d in self.degrees)
        self.starts = np.concatenate([[0], np.cumsum(self.degrees)])[:-1]
        self.edges = np.concatenate([[0.0], np.cumsum(self.fractions)])
        self.edges[-1] = 1.0
        self.coll_taus = np.concatenate([
            self.edges[k] + (rule.nodes + 1.0) / 2.0 * self.fractions[k]
            for k, rule in enumerate(self.rules)])
        self.state_taus = np.concatenate([self.coll_taus, [1.0]])
        self.wts_tau = np.concatenate([self.fractions[k] / 2.0 * rule.weights
                                       for k, rule in enumerate(self.rules)])
        for a in (self.starts, self.edges, self.coll_taus, self.state_taus,
                  self.wts_tau):
            a.flags.writeable = False

    @property
    def n_intervals(self) -> int:
        return len(self.fractions)

    @property
    def n_coll(self) -> int:
        return int(self.degrees.sum())


def uniform_mesh(n_intervals: int, degree: int) -> MeshPhase:
    return MeshPhase(np.full(n_intervals, 1.0 / n_intervals),
                     np.full(n_intervals, degree))


@dataclass
class _PhaseLayout:
    x_off: int
    u_off: int
    t0_idx: int
    tf_idx: int
    nn: int          # state nodes incl final endpoint
    nc: int          # collocation nodes


@dataclass
class _SparsePlan:
    """Fixed structure of a sparse derivative matrix on one mesh.

    `values` holds one value rule per block, in enumeration order; the raw
    entries they produce map onto the CSR data vector through `first` (the
    first raw entry of each slot) and `rest`/`rest_slot` (later entries on a
    taken coordinate, summed onto it in raw order).  The coordinates and
    `indptr` are read-only, and `cols` and `indptr` are int32, scipy's
    index type at these sizes: every assembled matrix shares them as they
    are, with no conversion, and none can change the plan.
    """
    values: list
    first: np.ndarray
    rest: np.ndarray
    rest_slot: np.ndarray
    rows: np.ndarray     # unique coordinates, row-major
    cols: np.ndarray
    indptr: np.ndarray
    shape: tuple

    @classmethod
    def build(cls, rows, cols, values, shape) -> "_SparsePlan":
        keys = np.concatenate(rows) * shape[1] + np.concatenate(cols)
        # one stable sort: each run of equal keys starts at its first raw entry
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        starts = np.ones(len(keys), bool)
        np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=starts[1:])
        first = order[starts]
        slot = np.empty(len(keys), np.intp)
        slot[order] = np.cumsum(starts) - 1
        later = np.ones(len(keys), bool)
        later[first] = False
        rest = np.flatnonzero(later)
        u_rows, u_cols = np.divmod(sorted_keys[starts], shape[1])
        u_cols = u_cols.astype(np.int32)
        indptr = np.searchsorted(u_rows, np.arange(shape[0] + 1)).astype(
            np.int32)
        for a in (u_rows, u_cols, indptr):
            a.flags.writeable = False
        return cls(values=values, first=first, rest=rest, rest_slot=slot[rest],
                   rows=u_rows, cols=u_cols, indptr=indptr, shape=shape)

    def assemble(self, *args) -> sp.csr_matrix:
        """The matrix from the value rules applied to args."""
        raw = np.concatenate([np.ravel(v(*args) if callable(v) else v)
                              for v in self.values])
        data = raw[self.first]
        np.add.at(data, self.rest_slot, raw[self.rest])
        return sp.csr_matrix((data, self.cols, self.indptr), shape=self.shape)


@dataclass
class _PhasePoint:
    """One phase's node outputs and their node-local partials at a point,
    from the derivative pass.  V holds one row per output: the rates, each
    path column, each integrand, then the cost, if any.  C-ordered: the
    quadratures' dot products sum in an order that depends on it."""
    V: np.ndarray    # (outputs, nc)
    dN: np.ndarray   # (nc, nx+nu, outputs)


def _complex_call(f, S):
    """f on the complex stack S, with numpy's ComplexWarning an error: a
    callback that casts its input to real would return zero partials."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", ComplexWarning)
        return f(S)


def _partials(f, V):
    """Values, (rows, out), and complex-step partials, (rows, n, out), of
    the stacked callback f at each row of V, (rows, n).  f runs once, on
    each row and on the row plus 1j * _CS_STEP in each column: n + 1 points
    per row.  An overflow is left infinite: the caller reports it; a cast
    of the stack to real raises ComplexWarning."""
    nr, n = V.shape
    S = np.tile(V.astype(complex), (n + 1, 1, 1))
    S[1 + np.arange(n), :, np.arange(n)] += 1j * _CS_STEP
    out = _complex_call(f, S.reshape(-1, n)).reshape(n + 1, nr, -1)
    with np.errstate(over="ignore"):
        return out[0].real.copy(), (out[1:].imag / _CS_STEP).transpose(1, 0, 2)


def _hessians(f, V, w):
    """Hessians, (rows, n, n), of w . f at each row of V, (rows, n), with
    weights w, (rows, out): for each column pair i <= j, the central
    difference in column i, step _FD_STEP * max(1, |v|), of the complex-step
    partial in column j, so f runs once, on 2 points per pair, or not at all
    if every weight is zero.  The weights go on after differencing, so an
    output that does not move adds exactly nothing; a non-finite entry is
    left for the caller to report."""
    nr, n = V.shape
    if not np.any(w):
        return np.zeros((nr, n, n))
    h = _FD_STEP * np.maximum(1.0, np.abs(V))
    I, J = np.triu_indices(n)
    k = np.arange(len(I))
    S = np.tile(V.astype(complex), (2, len(I), 1, 1))
    S[0, k, :, I] += h[:, I].T
    S[1, k, :, I] -= h[:, I].T
    S[:, k, :, J] += 1j * _CS_STEP
    out = _complex_call(f, S.reshape(-1, n)).reshape(2, len(I), nr, -1).imag
    with np.errstate(invalid="ignore", over="ignore"):
        d = np.einsum("pko,ko->kp", out[0] - out[1], w) / (2.0 * _CS_STEP * h[:, I])
    H = np.empty((nr, n, n))
    H[:, I, J] = H[:, J, I] = d
    return H


class _NodeTerm(NamedTuple):
    """Rows that read phase p's node outputs V[cols], a slice: the constant
    coef, (nc, 1), times the outputs, times tf - t0 if ends (t0's and tf's
    columns) is given.  rows is an (nc, len(cols)) index array, one row per
    node and output; an int, one row that sums the nodes; or None, the
    objective, which sums them too."""
    p: int
    rows: np.ndarray | int | None
    cols: slice
    coef: np.ndarray
    ends: tuple[int, int] | None

    def scale(self, z):
        return z[self.ends[1]] - z[self.ends[0]] if self.ends else 1.0

    def multipliers(self, y):   # 1 in the objective
        return 1.0 if self.rows is None else y[self.rows]


def _quadrature(scale, coef, v) -> float:
    """A summed term's value, (scale * coef) @ v, for one output row v."""
    return float((scale * coef.ravel()) @ np.ravel(v))


class NLPProblem:
    """Transcribed sparse NLP with structured derivative assembly."""

    def __init__(self, problem: MultiPhaseProblem, meshes: Sequence[MeshPhase]):
        if len(meshes) != len(problem.phases):
            raise ValueError("one mesh per phase required")
        self.problem = problem
        self.meshes = list(meshes)
        self._build_layout()
        self._build_rows()
        self._last = None   # (z, gradient, Jacobian, phase points) at the last point

    # ----- layout -----

    def _build_layout(self):
        """Name, bound and place every variable, in one pass."""
        self.phase_layout: list[_PhaseLayout] = []
        names: list[str] = []
        lo: list[np.ndarray] = []
        hi: list[np.ndarray] = []
        for p, (ph, mesh) in enumerate(zip(self.problem.phases, self.meshes)):
            nc = mesh.n_coll
            nn = nc + 1
            off = len(names)
            lay = _PhaseLayout(x_off=off, u_off=off + nn * ph.nx,
                               t0_idx=off + nn * ph.nx + nc * ph.nu,
                               tf_idx=off + nn * ph.nx + nc * ph.nu + 1,
                               nn=nn, nc=nc)
            self.phase_layout.append(lay)
            x_lo, x_hi = np.tile(ph.x_lo, (nn, 1)), np.tile(ph.x_hi, (nn, 1))
            for k, a, b in ((0, ph.x0_lo, ph.x0_hi), (-1, ph.xf_lo, ph.xf_hi)):
                x_lo[k], x_hi[k] = np.maximum(x_lo[k], a), np.minimum(x_hi[k], b)
            names += [f"p{p}:{ph.name}:x:{name}:n{i}"
                      for i in range(nn) for name in ph.state_names]
            names += [f"p{p}:{ph.name}:u:{name}:n{i}"
                      for i in range(nc) for name in ph.control_names]
            names += [f"p{p}:{ph.name}:t0", f"p{p}:{ph.name}:tf"]
            lo += [x_lo.ravel(), np.tile(ph.u_lo, nc), [ph.t0_lo, ph.tf_lo]]
            hi += [x_hi.ravel(), np.tile(ph.u_hi, nc), [ph.t0_hi, ph.tf_hi]]
        self.acc_idx: dict[str, int] = {}
        for acc in self.problem.accumulators:
            self.acc_idx[acc.name] = len(names)
            names.append(f"acc:{acc.name}")
            lo.append([acc.lo])
            hi.append([acc.hi])
        self.var_names = names
        self.n_var = len(names)
        self.z_lo = np.concatenate(lo, dtype=float)
        self.z_hi = np.concatenate(hi, dtype=float)

    def _build_rows(self):
        """Declare every constraint row once, group by group: its names, its
        bounds, its Jacobian blocks, its node terms and its Hessian terms.
        A Jacobian block is a pair of broadcast (rows, cols) index arrays
        with a value: a constant array, or a rule (z, pts) -> values in the
        block's shape over the phase points of the derivative pass.  A
        Hessian block is the same with a rule (z, y, pts, node_hessians) ->
        values.  A group that reads node outputs, and the objective, declares
        them as one `node_term`.  A row's value is its node terms plus its
        constant blocks times z; only the endpoint groups carry a function.

        The groups, in row order: per phase its defects and each path
        constraint, then the accumulator balances, the boundaries, the
        duration rows and the linkages.  No rule holds the NLPProblem, so it
        is freed by reference counting alone.
        """
        names: list[str] = []
        lo: list[np.ndarray] = []
        hi: list[np.ndarray] = []
        endpoints: list = []  # (rows, z -> values) per endpoint group
        j_rows: list[np.ndarray] = []
        j_cols: list[np.ndarray] = []
        j_values: list = []
        h_rows: list[np.ndarray] = []
        h_cols: list[np.ndarray] = []
        h_values: list = []
        grad: list = []      # the objective's blocks: (columns, rule)
        node_terms: list[list[_NodeTerm]] = [[] for _ in self.problem.phases]
        node_cols_of: list[np.ndarray] = []

        def group(new_names, g_lo, g_hi):
            """Declare rows with their bounds; their first row."""
            first = len(names)
            names.extend(new_names)
            lo.append(np.broadcast_to(np.asarray(g_lo, float), len(new_names)))
            hi.append(np.broadcast_to(np.asarray(g_hi, float), len(new_names)))
            return first

        def block(r, c, v):
            """Jacobian entries at the broadcast (r, c); with r None, the
            objective gradient's at c."""
            if r is None:
                grad.append((np.ravel(c), v))
                return
            r, c = np.broadcast_arrays(r, c)
            j_rows.append(r.ravel())
            j_cols.append(c.ravel())
            j_values.append(v)

        def hblock(r, c, v, mirror=False):
            """A Hessian block; with mirror, also at (c, r), same values."""
            r, c = (a.ravel() for a in np.broadcast_arrays(r, c))
            h_rows.append(np.concatenate([r, c]) if mirror else r)
            h_cols.append(np.concatenate([c, r]) if mirror else c)
            h_values.append((lambda *a: np.tile(np.ravel(v(*a)), 2))
                            if mirror else v)

        def border(a):
            """A t0 partial a as a block over [t0, tf]: a term that scales
            with tf - t0 has the tf partial -a."""
            return np.stack([a, -a], axis=-1)

        def node_term(p, rows, cols, coef, scaled):
            """Declare a `_NodeTerm` of phase p with its derivative blocks."""
            lay = self.phase_layout[p]
            ends = (lay.t0_idx, lay.tf_idx)
            term = _NodeTerm(p, rows, cols, coef, ends if scaled else None)
            node_terms[p].append(term)
            at = node_cols_of[p][:, :, None]
            summed = np.ndim(rows) == 0

            def d_nodes(z, pts):
                return (coef * term.scale(z))[:, :, None] * pts[p].dN[:, :, cols]

            def d_t0(z, pts):
                out = pts[p].V[cols].T
                return border(-coef.T @ out if summed else -coef * out)

            block(rows if summed else rows[:, None, :], at, d_nodes)
            if scaled:
                block(rows if summed else rows[:, :, None], ends, d_t0)
                hblock(at, ends, lambda z, y, pts, hs: border(-coef * np.einsum(
                    "kjs,ks->kj", pts[p].dN[:, :, cols],
                    np.broadcast_to(term.multipliers(y),
                                    (lay.nc, cols.stop - cols.start)))),
                    mirror=True)

        def phase_rows(p):
            ph, mesh, lay = self.problem.phases[p], self.meshes[p], self.phase_layout[p]
            nx, nc = ph.nx, lay.nc
            node = np.arange(nc)[:, None]
            node_cols = np.hstack([lay.x_off + node * nx + np.arange(nx),
                                   lay.u_off + node * ph.nu + np.arange(ph.nu)])
            node_cols_of.append(node_cols)
            frac = np.repeat(mesh.fractions, mesh.degrees)[:, None]  # per node
            def_rows = group([f"p{p}:{ph.name}:def:k{k}:n{i}:{sn}"
                              for k in range(mesh.n_intervals)
                              for i in range(mesh.degrees[k])
                              for sn in ph.state_names],
                             0.0, 0.0) + node * nx + np.arange(nx)
            # the node blocks sum every node term of the phase
            hblock(node_cols[:, :, None], node_cols[:, None, :],
                   lambda z, y, pts, hs: hs[p])
            # differentiation stencil: channel-diagonal, constant
            for rule, s in zip(mesh.rules, mesh.starts):
                n = rule.n
                block(def_rows[s:s + n, :, None],
                      lay.x_off + (s + np.arange(n + 1)) * nx + np.arange(nx)[:, None],
                      np.repeat(rule.diff_matrix[:, None, :], nx, axis=1))
            # the rates, weighed by -(tf - t0) frac/2
            node_term(p, def_rows, slice(0, nx), -frac / 2.0, True)
            # the cost, not a row: (tf - t0) times the quadrature weights
            if ph.cost is not None:
                k = nx + len(ph.path) + len(ph.integrands)
                node_term(p, None, slice(k, k + 1), mesh.wts_tau[:, None], True)
            for i, pc in enumerate(ph.path):
                k = nx + i
                row = group([f"p{p}:{ph.name}:path:{pc.name}:n{j}" for j in range(nc)],
                            pc.lo, pc.hi)
                node_term(p, row + node, slice(k, k + 1), np.ones((nc, 1)), False)

        def balance_rows(acc):
            row = group([f"acc:{acc.name}:balance"], 0.0, 0.0)
            block(row, self.acc_idx[acc.name], np.ones(1))
            # each integrand it sums, by -(tf - t0) times the quadrature weights
            for p, ph in enumerate(self.problem.phases):
                for j, term in enumerate(ph.integrands):
                    if term.accumulator == acc.name:
                        k = ph.nx + len(ph.path) + j
                        node_term(p, row, slice(k, k + 1),
                                  -self.meshes[p].wts_tau[:, None], True)

        def endpoint(label, func, args, g_lo, g_hi):
            """Rows func(*args) with dense differenced blocks; each arg is
            given by its columns, an index array for a vector argument or an
            int for a scalar.  Each evaluation is one call on a stack: the
            point, its complex-step probes or its Hessian's."""
            idx = np.concatenate([np.atleast_1d(a) for a in args])
            ends = np.cumsum([np.size(a) for a in args])
            n, m = len(idx), len(g_lo)

            def packed(V):
                """func on the points V, (points, n) -> (points, m)."""
                out = np.asarray(func(*[
                    V[:, e - np.size(a):e] if np.ndim(a) else V[:, e - 1]
                    for a, e in zip(args, ends)]))
                if out.shape != (len(V), m):
                    raise ValueError(f"{label} returns shape {out.shape} "
                                     f"for {len(V)} points of its {m} bounds")
                return out

            row = group([f"{label}:{j}" for j in range(m)], g_lo, g_hi)
            endpoints.append((slice(row, row + m),
                              lambda z: packed(z[idx][None])[0]))
            block(row + np.arange(m)[:, None], idx,
                  lambda z, pts: _partials(packed, z[idx][None])[1][0].T)
            hblock(idx[:, None], idx, lambda z, y, pts, hs: _hessians(
                packed, z[idx][None], y[None, row:row + m])[0])

        for p in range(len(self.problem.phases)):
            phase_rows(p)
        for acc in self.problem.accumulators:
            balance_rows(acc)
        for bc in self.problem.boundaries:
            ph, lay = self.problem.phases[bc.phase], self.phase_layout[bc.phase]
            x0 = lay.x_off + np.arange(ph.nx)
            endpoint(f"bc:{bc.name}", bc.func,
                     [x0, x0 + (lay.nn - 1) * ph.nx, lay.t0_idx, lay.tf_idx],
                     bc.lo, bc.hi)
        for p, (ph, lay) in enumerate(zip(self.problem.phases, self.phase_layout)):
            if ph.min_duration > 0.0 and (ph.t0_lo < ph.t0_hi or ph.tf_lo < ph.tf_hi):
                row = group([f"p{p}:{ph.name}:duration"], ph.min_duration, np.inf)
                block(row, [lay.t0_idx, lay.tf_idx], np.array([-1.0, 1.0]))
        for ln in self.problem.linkages:
            pha, laya = self.problem.phases[ln.a], self.phase_layout[ln.a]
            phb, layb = self.problem.phases[ln.b], self.phase_layout[ln.b]
            xa = laya.x_off + (laya.nn - 1) * pha.nx + np.arange(pha.nx)
            endpoint(f"link:{ln.name}", ln.func,
                     [xa, laya.tf_idx, layb.x_off + np.arange(phb.nx), layb.t0_idx],
                     ln.lo, ln.hi)

        self.con_names = names
        self.c_lo = np.concatenate(lo)
        self.c_hi = np.concatenate(hi)
        self.n_con = len(names)
        self._endpoints = endpoints
        self._grad = grad
        self._node_terms = node_terms
        self._costs = [t for terms in node_terms for t in terms if t.rows is None]
        shape = (self.n_con, self.n_var)
        self._plan = _SparsePlan.build(j_rows, j_cols, j_values, shape)
        const = [k for k, v in enumerate(j_values) if not callable(v)]
        self._affine = _SparsePlan.build(*([a[k] for k in const] for a in (
            j_rows, j_cols, j_values)), shape).assemble()   # the constant blocks
        self._hplan = _SparsePlan.build(h_rows, h_cols, h_values,
                                        (self.n_var, self.n_var))

    # ----- views -----

    def states(self, z: np.ndarray, p: int) -> np.ndarray:
        ph, lay = self.problem.phases[p], self.phase_layout[p]
        return z[lay.x_off:lay.x_off + lay.nn * ph.nx].reshape(lay.nn, ph.nx)

    def controls(self, z: np.ndarray, p: int) -> np.ndarray:
        ph, lay = self.problem.phases[p], self.phase_layout[p]
        return z[lay.u_off:lay.u_off + lay.nc * ph.nu].reshape(lay.nc, ph.nu)

    def times(self, z: np.ndarray, p: int) -> tuple[float, float]:
        lay = self.phase_layout[p]
        return float(z[lay.t0_idx]), float(z[lay.tf_idx])

    def node_taus(self, p: int) -> tuple[np.ndarray, np.ndarray]:
        """(collocation taus, state-node taus) on the phase's [0, 1] scale,
        the mesh's own read-only arrays."""
        return self.meshes[p].coll_taus, self.meshes[p].state_taus

    def node_times(self, z: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
        t0, tf = self.times(z, p)
        coll, state = self.node_taus(p)
        return t0 + coll * (tf - t0), t0 + state * (tf - t0)

    def pack(self, states: Sequence[np.ndarray], controls: Sequence[np.ndarray],
             times: Sequence[tuple[float, float]],
             accumulators: dict[str, float] | None = None) -> np.ndarray:
        z = np.zeros(self.n_var)
        for p, (ph, lay) in enumerate(zip(self.problem.phases, self.phase_layout)):
            z[lay.x_off:lay.x_off + lay.nn * ph.nx] = \
                np.asarray(states[p], dtype=float).reshape(-1)
            z[lay.u_off:lay.u_off + lay.nc * ph.nu] = \
                np.asarray(controls[p], dtype=float).reshape(-1)
            z[lay.t0_idx], z[lay.tf_idx] = times[p]
        for name, val in (accumulators or {}).items():
            z[self.acc_idx[name]] = val
        return z

    def clip_to_bounds(self, z: np.ndarray) -> np.ndarray:
        return np.clip(z, self.z_lo, self.z_hi)

    # ----- evaluation -----

    def objective(self, z: np.ndarray) -> float:
        """The cost's node terms, each on its own call of the phase's cost."""
        total = 0.0
        for t in self._costs:
            total += _quadrature(t.scale(z), t.coef, self.problem.phases[t.p].cost(
                self.states(z, t.p)[:-1], self.controls(z, t.p)))
        if not np.isfinite(total):
            raise EvaluationError("objective", -1, "objective")
        return total

    def _node_points(self, z, p) -> np.ndarray:
        """Phase p's collocation nodes at z, (nodes, nx+nu)."""
        return np.hstack([self.states(z, p)[:-1], self.controls(z, p)])

    def _callbacks(self, p, whats):
        """Phase p's callbacks `whats`, "node" and "cost", side by side as
        one function of a stack of node points, (points, nx+nu), each
        checked to hold one output row per point: nx + npath + nint columns
        for the node, 1 for the cost."""
        ph = self.problem.phases[p]
        widths = {"node": ph.nx + len(ph.path) + len(ph.integrands), "cost": 1}

        def f(S):
            X, U = S[:, :ph.nx].copy(), S[:, ph.nx:].copy()
            outs = []
            for what in whats:
                out = np.asarray(getattr(ph, what)(X, U))
                if out.size != len(S) * widths[what]:
                    raise ValueError(f"p{p}:{ph.name}:{what} returns {out.size} values "
                                     f"for {len(S)} nodes, not {widths[what]} per node")
                outs.append(out.reshape(len(S), -1))
            return np.hstack(outs)
        return f

    def constraints(self, z: np.ndarray) -> np.ndarray:
        """The node terms, plus the affine part, plus the endpoint functions."""
        c = np.zeros(self.n_con)
        for p, terms in enumerate(self._node_terms):
            V = np.ascontiguousarray(self._callbacks(p, ["node"])(
                self._node_points(z, p)).T)
            for t in terms:
                if np.ndim(t.rows):
                    c[t.rows] += t.coef * t.scale(z) * V[t.cols].T
                elif t.rows is not None:    # one summed row; None is the objective
                    c[t.rows] += _quadrature(t.scale(z), t.coef, V[t.cols])
        c += self._affine @ z
        for rows, value in self._endpoints:
            c[rows] = value(z)
        bad = np.flatnonzero(~np.isfinite(c))
        if len(bad):
            i = int(bad[0])
            raise EvaluationError("constraint", i, self.con_names[i])
        return c

    # ----- structured derivatives -----

    def _phase_point(self, z, p) -> _PhasePoint:
        """One phase's node values and node-local partials at z.

        The node callback and the cost each run once, on the collocation
        nodes' complex-step probes (`_partials`) stacked into one batch.
        """
        N, dN = _partials(self._callbacks(
            p, ["node"] + ["cost"] * (self.problem.phases[p].cost is not None)),
            self._node_points(z, p))
        return _PhasePoint(np.ascontiguousarray(N.T), dN)

    def _phase_hessian(self, z, y, p) -> np.ndarray:
        """Phase p's node blocks of the Hessian of f + y.c at z, (nc, n, n)
        with n = nx+nu: at each node, the Hessian of the node terms' weighted
        sum, by `_hessians`.  The node callback runs if a node term on its
        columns has a nonzero weight, the cost if its term does, each once,
        on one stacked batch."""
        V = self._node_points(z, p)
        ph = self.problem.phases[p]
        # the weights on the node's columns, then on the cost, if any
        width = ph.nx + len(ph.path) + len(ph.integrands)
        W = np.zeros((len(V), width + (ph.cost is not None)))
        for t in self._node_terms[p]:
            W[:, t.cols] = t.coef * t.scale(z) * t.multipliers(y)
        on = {"node": W[:, :width].any(), "cost": W[:, width:].any()}
        keep = np.repeat([on["node"], on["cost"]], [width, W.shape[1] - width])
        return _hessians(self._callbacks(p, [k for k in on if on[k]]), V, W[:, keep])

    def _derivatives(self, z):
        """(objective gradient, constraint Jacobian) at z from one node probe
        per phase; the last point's pair is kept, with the phase points,
        since callbacks are pure.  A non-finite entry raises EvaluationError
        naming its constraint row, or its variable for the gradient."""
        z = np.asarray(z, dtype=float)
        if self._last is None or not np.array_equal(self._last[0], z):
            pts = [self._phase_point(z, p) for p in range(len(self.problem.phases))]
            J = self._plan.assemble(z, pts)
            g = np.zeros(self.n_var)
            for cols, rule in self._grad:
                g[cols] += np.ravel(rule(z, pts))
            bad = np.flatnonzero(~np.isfinite(J.data))
            if len(bad):
                i = int(np.searchsorted(J.indptr, bad[0], side="right")) - 1
                raise EvaluationError("Jacobian row", i, self.con_names[i])
            bad = np.flatnonzero(~np.isfinite(g))
            if len(bad):
                j = int(bad[0])
                raise EvaluationError("gradient", j, self.var_names[j])
            for a in (J.data, J.indices, J.indptr):
                a.flags.writeable = False
            self._last = (z.copy(), g, J, pts)
        return self._last[1], self._last[2]

    def objective_gradient(self, z: np.ndarray) -> np.ndarray:
        return self._derivatives(z)[0].copy()

    def sparsity(self) -> tuple[np.ndarray, np.ndarray]:
        """Structural nonzeros of the constraint Jacobian as COO coordinates,
        each listed once, in row-major order: the plan's read-only arrays."""
        return self._plan.rows, self._plan.cols

    def jacobian(self, z: np.ndarray) -> sp.csr_matrix:
        """Constraint Jacobian; node-local and endpoint partials by complex
        step, everything structural (differentiation stencil, time scaling,
        quadrature weights) assembled analytically from callback values.
        A new matrix on the kept Jacobian's arrays, which are read-only: a
        caller copies it to change it, and cannot change the kept one."""
        return sp.csr_matrix(self._derivatives(z)[1])

    def hessian(self, z: np.ndarray, y: np.ndarray) -> sp.csr_matrix:
        """Sparse Hessian of the Lagrangian f + y.c at z, both triangles, in
        the problem's units, on the pattern the row groups declare (the same
        at every point): node blocks and dense endpoint blocks by central
        differences of complex-step partials of the weighted node terms and
        endpoint functions, and the node terms' t0/tf borders from the first
        partials of the derivative pass.  A non-finite entry raises
        EvaluationError naming its variable.  The data is the matrix's own;
        its `indices` and `indptr` are the sparsity plan's, read-only and
        shared by every Hessian the problem returns: a caller copies the
        matrix to change its pattern in place (`eliminate_zeros`, say)."""
        z = np.asarray(z, dtype=float)
        y = np.asarray(y, dtype=float)
        self._derivatives(z)
        hs = [self._phase_hessian(z, y, p) for p in range(len(self.problem.phases))]
        H = self._hplan.assemble(z, y, self._last[3], hs)
        bad = np.flatnonzero(~np.isfinite(H.data))
        if len(bad):
            i = int(np.searchsorted(H.indptr, bad[0], side="right")) - 1
            raise EvaluationError("Hessian row", i, self.var_names[i])
        return H

    # ----- solution handling -----

    def solution_from(self, z: np.ndarray) -> "Solution":
        phases = []
        for p, ph in enumerate(self.problem.phases):
            t0, tf = self.times(z, p)
            phases.append(PhaseSolution(
                name=ph.name, mesh=self.meshes[p], t0=t0, tf=tf,
                states=self.states(z, p).copy(),
                controls=self.controls(z, p).copy(),
                state_names=ph.state_names, control_names=ph.control_names))
        accs = {name: float(z[i]) for name, i in self.acc_idx.items()}
        return Solution(phases=phases, accumulators=accs)

    def z_from_solution(self, sol: "Solution") -> np.ndarray:
        """Sample an existing solution onto this problem's mesh (warm start)."""
        states, controls, times = [], [], []
        for p in range(len(self.problem.phases)):
            src = sol.phases[p]
            coll_tau, state_tau = self.node_taus(p)
            tq_state = src.t0 + state_tau * (src.tf - src.t0)
            tq_coll = src.t0 + coll_tau * (src.tf - src.t0)
            states.append(src.sample_states(tq_state))
            controls.append(src.sample_controls(tq_coll))
            times.append((src.t0, src.tf))
        z = self.pack(states, controls, times, sol.accumulators)
        return self.clip_to_bounds(z)

    def layout(self) -> dict:
        """Sizes, variable and row names, and the Jacobian pattern."""
        rows, cols = self.sparsity()
        return {
            "n_var": self.n_var,
            "n_con": self.n_con,
            "variables": self.var_names,
            "constraints": self.con_names,
            "sparsity": {"rows": rows.tolist(), "cols": cols.tolist()},
        }


@dataclass
class PhaseSolution:
    name: str
    mesh: MeshPhase
    t0: float
    tf: float
    states: np.ndarray
    controls: np.ndarray
    state_names: tuple[str, ...]
    control_names: tuple[str, ...]

    def state_times(self) -> np.ndarray:
        """Times of the stored state rows (interval endpoints shared)."""
        return self.t0 + self.mesh.state_taus * (self.tf - self.t0)

    def _locate(self, tq):
        tq = np.atleast_1d(np.asarray(tq, dtype=float))
        span = self.tf - self.t0
        if np.any(tq < self.t0 - 1e-9 * max(1.0, abs(span))) or \
           np.any(tq > self.tf + 1e-9 * max(1.0, abs(span))):
            raise ValueError(f"query time outside phase span [{self.t0}, {self.tf}]")
        tau = np.clip((tq - self.t0) / span if span > 0 else np.zeros_like(tq),
                      0.0, 1.0)
        edges = self.mesh.edges
        k = np.clip(np.searchsorted(edges, tau, side="right") - 1,
                    0, self.mesh.n_intervals - 1)
        local = 2.0 * (tau - edges[k]) / self.mesh.fractions[k] - 1.0
        return k, np.clip(local, -1.0, 1.0)

    def _sample(self, values, tq, support):
        """Interpolate node rows `values` at the times tq, interval by
        interval; support(rule) gives the (points, barycentric weights) that
        an interval's rows sit on.  One point interpolates as a constant."""
        k, s = self._locate(tq)
        out = np.empty((len(k), values.shape[1]))
        for kk in np.unique(k):
            points, bary = support(self.mesh.rules[kk])
            start = self.mesh.starts[kk]
            rows = values[start:start + len(points)]
            mask = k == kk
            if len(points) == 1:
                out[mask] = rows[0]
            else:
                out[mask] = barycentric_eval(points, bary, rows, s[mask])
        return out

    def sample_states(self, tq):
        return self._sample(self.states, tq,
                            lambda rule: (rule.support, rule.support_bary))

    def sample_controls(self, tq):
        return self._sample(self.controls, tq,
                            lambda rule: (rule.nodes, rule.node_bary))


@dataclass
class Solution:
    phases: list[PhaseSolution]
    accumulators: dict[str, float]


def transcribe(problem: MultiPhaseProblem,
               meshes: Sequence[MeshPhase]) -> NLPProblem:
    return NLPProblem(problem, meshes)


def fly(phase: PhaseDef, x0, t0: float, tf: float, law: Callable, events=(),
        **integrator):
    """Fly a phase from x0 at t0 toward tf: scipy's solve_ivp, with dense
    output, on the rates, the first nx columns of
    phase.node(x[None], law(t, x)[None]).  events (functions of (t, x))
    and the integrator options pass through.  Returns solve_ivp's result
    plus `controls(t)`, the law's (len(t), nu) controls along its dense
    states `sol`; a failed integration raises RuntimeError."""
    # imported here: a transcription or a solve never flies, and
    # scipy.integrate loads scipy.optimize with it
    from scipy.integrate import solve_ivp

    def rates(t, x):
        return phase.node(x[None], np.asarray(law(t, x))[None])[0, :phase.nx]

    out = solve_ivp(rates, (t0, tf), np.asarray(x0, dtype=float),
                    events=events, dense_output=True, **integrator)
    if not out.success:
        raise RuntimeError(f"phase {phase.name}: flight failed: {out.message}")
    out.controls = lambda t: np.array(
        [law(s, x) for s, x in zip(t, out.sol(t).T)]).reshape(len(t), phase.nu)
    return out
