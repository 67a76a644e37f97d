"""Multi-phase Legendre-Gauss-Radau transcription into a sparse NLP.

Variable layout, per phase: state rows at every collocation node plus the
final non-collocated endpoint, control rows at collocation nodes only, then
t0 and tf; shared integral accumulators sit at the end of the vector.
Dynamics, path, integrand and cost callbacks are autonomous and batched:
they map (X, U) with one row per node to one output row per node, each from
its own input row alone, since the derivative probe stacks many perturbed
copies of the nodes into one batch; and they must be pure: the derivatives
at a point are computed once and reused.  A mesh carries its own node
geometry (rules, interval edges, node taus, quadrature weights), built
once when the mesh is made, and everything that places nodes reads it.

Each axis of the NLP is walked once.  `_build_layout` names, bounds and
places every variable.  `_build_rows` walks the constraint rows once, group
by group (a phase's defects, each path constraint, each accumulator balance,
boundary, duration row and linkage), and declares each group's names,
bounds, value rule and Jacobian blocks side by side; `constraints()` is one
nominal node pass per phase plus the groups' value rules.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from .lgr import barycentric_eval, lgr_rule

_FD_STEP = float(np.finfo(float).eps) ** (1.0 / 3.0)


class EvaluationError(RuntimeError):
    """Non-finite callback output, carrying the offending row's identity."""

    def __init__(self, what: str, index: int, name: str):
        super().__init__(f"non-finite {what} at index {index} ({name})")
        self.index = index
        self.name = name


@dataclass
class PathConstraint:
    name: str
    func: Callable
    lo: float
    hi: float


@dataclass
class IntegralTerm:
    accumulator: str
    func: Callable


@dataclass
class Accumulator:
    name: str
    lo: float
    hi: float


@dataclass
class PhaseDef:
    name: str
    nx: int
    nu: int
    dynamics: Callable
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
        for attr in ("x_lo", "x_hi", "u_lo", "u_hi",
                     "x0_lo", "x0_hi", "xf_lo", "xf_hi"):
            v = getattr(self, attr)
            if v is not None:
                setattr(self, attr, np.asarray(v, dtype=float))
        if len(self.x_lo) != self.nx or len(self.u_lo) != self.nu:
            raise ValueError(f"phase {self.name}: bound dimensions inconsistent")
        if not self.state_names:
            self.state_names = tuple(f"x{i}" for i in range(self.nx))
        if not self.control_names:
            self.control_names = tuple(f"u{i}" for i in range(self.nu))


@dataclass
class Linkage:
    """Constraint tying phase a's terminal endpoint to phase b's start."""

    name: str
    a: int
    b: int
    func: Callable  # (xa_end, ta_f, xb_start, tb_0) -> vector
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        self.lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        self.hi = np.atleast_1d(np.asarray(self.hi, dtype=float))


@dataclass
class BoundaryConstraint:
    name: str
    phase: int
    func: Callable  # (x0, xf, t0, tf) -> vector
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        self.lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        self.hi = np.atleast_1d(np.asarray(self.hi, dtype=float))


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
class _JacobianPlan:
    """Fixed structure of the constraint Jacobian on one mesh.

    `values` holds one value rule per block, in enumeration order; the raw
    entries they produce map onto the CSR data vector through `first` (the
    first raw entry of each slot) and `rest`/`rest_slot` (later entries on a
    taken coordinate, summed onto it in raw order).
    """
    values: list
    first: np.ndarray
    rest: np.ndarray
    rest_slot: np.ndarray
    rows: np.ndarray     # unique coordinates, row-major
    cols: np.ndarray
    indptr: np.ndarray
    quad_cols: list      # per phase: node x/u columns, then t0 and tf


@dataclass
class _PhasePoint:
    """One phase's node values and node-local partials at a point."""
    t0: float
    tf: float
    F: np.ndarray        # dynamics (nc, nx)
    Q: list              # integrand values, (nc,) each
    L: np.ndarray | None  # running cost (nc,)
    dF: np.ndarray       # (nc, nx+nu, nx)
    dP: np.ndarray       # (npath, nc, nx+nu)
    dQ: np.ndarray       # (nterm, nc, nx+nu)
    dL: np.ndarray | None  # (nc, nx+nu)


@dataclass
class _NodeValues:
    """One phase's nominal node values at a point, as the rows read them."""
    X: np.ndarray        # states incl. the endpoint (nn, nx)
    t0: float
    tf: float
    F: np.ndarray        # dynamics (nc, nx)
    P: list              # path values, (nc,) each
    Q: list              # integrand values, as returned


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


def _quadrature(wts_tau, t0, tf, vals) -> float:
    """(tf - t0) * sum(w * v): one integrand's quadrature over a phase."""
    return float((tf - t0) * wts_tau @ np.asarray(vals).reshape(-1))


def _quadrature_rows(wts_tau, pt: _PhasePoint, vals, partials) -> np.ndarray:
    """Partials of (tf - t0) * sum(w * v) over a phase's quadrature columns
    (node x/u, then t0 and tf), one row per integrand v."""
    wts = (pt.tf - pt.t0) * wts_tau
    s = np.array([float(wts_tau @ v) for v in vals])
    return np.hstack([(wts[:, None] * partials).reshape(len(vals), -1),
                      np.column_stack([-s, s])])


class NLPProblem:
    """Transcribed sparse NLP with structured derivative assembly."""

    def __init__(self, problem: MultiPhaseProblem, meshes: Sequence[MeshPhase]):
        if len(meshes) != len(problem.phases):
            raise ValueError("one mesh per phase required")
        self.problem = problem
        self.meshes = list(meshes)
        self._build_layout()
        self._build_rows()
        self._last = None   # (z, gradient, Jacobian) at the last point

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
            if ph.x0_lo is not None:
                x_lo[0], x_hi[0] = ph.x0_lo, ph.x0_hi
            if ph.xf_lo is not None:
                x_lo[-1], x_hi[-1] = ph.xf_lo, ph.xf_hi
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
        bounds, a value rule (z, nodes) -> values over the nominal node pass,
        and its Jacobian blocks.  A block is a pair of broadcast (rows, cols)
        index arrays with a value: a constant array, or a rule (z, pts) ->
        values in the block's shape over the phase points.

        The groups, in row order: per phase its defects and each path
        constraint, then the accumulator balances, the boundaries, the
        duration rows and the linkages.  No rule holds the NLPProblem, so it
        is freed by reference counting alone.
        """
        names: list[str] = []
        lo: list[np.ndarray] = []
        hi: list[np.ndarray] = []
        row_values: list = []
        rows: list[np.ndarray] = []
        cols: list[np.ndarray] = []
        values: list = []
        quad_cols: list[np.ndarray] = []

        def group(new_names, g_lo, g_hi, value):
            """Declare rows with their bounds and value rule; their first row."""
            first = len(names)
            names.extend(new_names)
            lo.append(np.broadcast_to(np.asarray(g_lo, float), len(new_names)))
            hi.append(np.broadcast_to(np.asarray(g_hi, float), len(new_names)))
            row_values.append((slice(first, len(names)), value))
            return first

        def block(r, c, v):
            r, c = np.broadcast_arrays(r, c)
            rows.append(r.ravel())
            cols.append(c.ravel())
            values.append(v)

        def phase_rows(p):
            ph, mesh, lay = self.problem.phases[p], self.meshes[p], self.phase_layout[p]
            nx, nc = ph.nx, lay.nc
            node = np.arange(nc)[:, None]
            node_cols = np.hstack([lay.x_off + node * nx + np.arange(nx),
                                   lay.u_off + node * ph.nu + np.arange(ph.nu)])
            quad_cols.append(np.append(node_cols.ravel(), [lay.t0_idx, lay.tf_idx]))
            frac = np.repeat(mesh.fractions, mesh.degrees)  # per collocation node
            stencils = []   # per interval: matrix, state rows, node rows, fraction

            def defects(z, nodes):
                nd = nodes[p]
                dt = nd.tf - nd.t0
                return np.concatenate([
                    (D @ nd.X[xs] - dt * f / 2.0 * nd.F[fs]).ravel()
                    for D, xs, fs, f in stencils])

            # dynamics coupling at each node, in x and u
            def dynamics_values(z, pts):
                scale = (pts[p].tf - pts[p].t0) * frac / 2.0
                return (-scale)[:, None, None] * pts[p].dF

            # time columns: d/dt0 = +frac/2 F, d/dtf = -frac/2 F
            def time_values(z, pts):
                a = (frac / 2.0)[:, None] * pts[p].F
                return np.stack([a, -a], axis=-1)

            def_rows = group([f"p{p}:{ph.name}:def:k{k}:n{i}:{sn}"
                              for k in range(mesh.n_intervals)
                              for i in range(mesh.degrees[k])
                              for sn in ph.state_names],
                             0.0, 0.0, defects) + node * nx + np.arange(nx)
            # differentiation stencil: channel-diagonal, constant
            for rule, s, f in zip(mesh.rules, mesh.starts, mesh.fractions):
                n = rule.n
                stencils.append((rule.diff_matrix, slice(s, s + n + 1),
                                 slice(s, s + n), f))
                block(def_rows[s:s + n, :, None],
                      lay.x_off + (s + np.arange(n + 1)) * nx + np.arange(nx)[:, None],
                      np.repeat(rule.diff_matrix[:, None, :], nx, axis=1))
            block(def_rows[:, None, :], node_cols[:, :, None], dynamics_values)
            block(def_rows[:, :, None], [lay.t0_idx, lay.tf_idx], time_values)
            for i, pc in enumerate(ph.path):
                row = group([f"p{p}:{ph.name}:path:{pc.name}:n{j}"
                             for j in range(nc)],
                            pc.lo, pc.hi, lambda z, nodes, i=i: nodes[p].P[i])
                block(row + node, node_cols, lambda z, pts, i=i: pts[p].dP[i])

        def balance_rows(acc):
            col = self.acc_idx[acc.name]
            meshes = self.meshes
            feeds = [(p, j) for p, ph in enumerate(self.problem.phases)
                     for j, term in enumerate(ph.integrands)
                     if term.accumulator == acc.name]

            def balance(z, nodes):
                total = 0.0
                for p, j in feeds:
                    total += _quadrature(meshes[p].wts_tau, nodes[p].t0,
                                         nodes[p].tf, nodes[p].Q[j])
                return z[col] - total

            row = group([f"acc:{acc.name}:balance"], 0.0, 0.0, balance)
            block(row, col, np.ones(1))
            for p, j in feeds:
                block(row, quad_cols[p],
                      lambda z, pts, p=p, j=j: -_quadrature_rows(
                          meshes[p].wts_tau, pts[p], pts[p].Q[j:j + 1],
                          pts[p].dQ[j:j + 1]))

        def endpoint(label, func, args, g_lo, g_hi):
            """Rows func(*args) with dense differenced blocks; each arg is
            given by its columns, an index array for a vector argument or an
            int for a scalar."""
            idx = np.concatenate([np.atleast_1d(a) for a in args])
            ends = np.cumsum([np.size(a) for a in args])
            m = len(g_lo)

            def packed(v):
                out = np.atleast_1d(func(*[
                    v[e - np.size(a):e] if np.ndim(a) else v[e - 1]
                    for a, e in zip(args, ends)]))
                if out.shape != (m,):
                    raise ValueError(f"{label} returns shape {out.shape} "
                                     f"for its {m} bounds")
                return out

            row = group([f"{label}:{j}" for j in range(m)], g_lo, g_hi,
                        lambda z, nodes: packed(z[idx]))
            block(row + np.arange(m)[:, None], idx,
                  lambda z, pts: _fd_vector(packed, z[idx], m))

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
                ends = [lay.t0_idx, lay.tf_idx]
                row = group([f"p{p}:{ph.name}:duration"], ph.min_duration, np.inf,
                            lambda z, nodes, ends=ends: z[ends[1]] - z[ends[0]])
                block(row, ends, np.array([-1.0, 1.0]))
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
        self._row_values = row_values
        keys = np.concatenate(rows) * self.n_var + np.concatenate(cols)
        key, first, slot = np.unique(keys, return_index=True, return_inverse=True)
        rest = np.setdiff1d(np.arange(len(keys)), first)
        u_rows, u_cols = np.divmod(key, self.n_var)
        self._plan = _JacobianPlan(
            values=values, first=first, rest=rest, rest_slot=slot[rest],
            rows=u_rows, cols=u_cols,
            indptr=np.searchsorted(u_rows, np.arange(self.n_con + 1)),
            quad_cols=quad_cols)

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
        total = 0.0
        for p, (ph, mesh) in enumerate(zip(self.problem.phases, self.meshes)):
            if ph.cost is not None:
                t0, tf = self.times(z, p)
                total += _quadrature(mesh.wts_tau, t0, tf, ph.cost(
                    self.states(z, p)[:-1], self.controls(z, p)))
        if not np.isfinite(total):
            raise EvaluationError("objective", -1, "objective")
        return total

    def _node_values(self, z, p) -> _NodeValues:
        """Phase p's nominal node pass: dynamics, path and integrands."""
        ph = self.problem.phases[p]
        X = self.states(z, p)
        U = self.controls(z, p)
        t0, tf = self.times(z, p)
        return _NodeValues(
            X=X, t0=t0, tf=tf, F=np.atleast_2d(ph.dynamics(X[:-1], U)),
            P=[np.asarray(pc.func(X[:-1], U)).reshape(-1) for pc in ph.path],
            Q=[t.func(X[:-1], U) for t in ph.integrands])

    def constraints(self, z: np.ndarray) -> np.ndarray:
        nodes = [self._node_values(z, p) for p in range(len(self.problem.phases))]
        c = np.empty(self.n_con)
        for rows, value in self._row_values:
            c[rows] = value(z, nodes)
        bad = np.flatnonzero(~np.isfinite(c))
        if len(bad):
            i = int(bad[0])
            raise EvaluationError("constraint", i, self.con_names[i])
        return c

    # ----- structured derivatives -----

    def _phase_point(self, z, p) -> _PhasePoint:
        """One phase's node values and node-local partials at z.

        Each callback runs once, on one stacked batch: the collocation
        nodes, then the nodes with column j of [X U] moved by +h, then by
        -h, for j over the nx+nu columns.  The partials are central
        differences with `_fd_vector`'s step, scaled by each node's own
        value, taken for every node at once.
        """
        ph = self.problem.phases[p]
        t0, tf = self.times(z, p)
        V = np.hstack([self.states(z, p)[:-1], self.controls(z, p)])
        nc, nin = V.shape
        n = 2 * nin + 1
        h = _FD_STEP * np.maximum(1.0, np.abs(V))
        S = np.repeat(V[None], n, axis=0)
        j = np.arange(nin)
        S[1 + j, :, j] += h.T
        S[1 + nin + j, :, j] -= h.T
        S = S.reshape(n * nc, nin)
        X, U = S[:, :ph.nx].copy(), S[:, ph.nx:].copy()
        funcs = ([pc.func for pc in ph.path] + [t.func for t in ph.integrands]
                 + ([ph.cost] if ph.cost is not None else []))
        F = np.reshape(ph.dynamics(X, U), (n, nc, ph.nx))
        G = np.reshape(np.array([np.reshape(f(X, U), (n, nc)) for f in funcs]),
                       (len(funcs), n, nc))
        inv = (1.0 / (2.0 * h)).T
        dF = ((F[1:nin + 1] - F[nin + 1:]) * inv[:, :, None]).transpose(1, 0, 2)
        dG = ((G[:, 1:nin + 1] - G[:, nin + 1:]) * inv).transpose(0, 2, 1)
        npath, nq = len(ph.path), len(ph.integrands)
        cost = ph.cost is not None
        return _PhasePoint(
            t0=t0, tf=tf, F=F[0], Q=list(G[npath:npath + nq, 0]),
            L=G[-1, 0] if cost else None, dF=dF, dP=dG[:npath],
            dQ=dG[npath:npath + nq], dL=dG[-1] if cost else None)

    def _derivatives(self, z):
        """(objective gradient, constraint Jacobian) at z from one node probe
        per phase; the last point's pair is kept, since callbacks are pure.
        A non-finite entry raises EvaluationError naming its constraint row,
        or its variable for the gradient."""
        z = np.asarray(z, dtype=float)
        if self._last is None or not np.array_equal(self._last[0], z):
            pts = [self._phase_point(z, p) for p in range(len(self.problem.phases))]
            plan = self._plan
            raw = np.concatenate([np.ravel(v(z, pts) if callable(v) else v)
                                  for v in plan.values])
            data = raw[plan.first]
            np.add.at(data, plan.rest_slot, raw[plan.rest])
            J = sp.csr_matrix((data, plan.cols, plan.indptr),
                              shape=(self.n_con, self.n_var))
            g = np.zeros(self.n_var)
            for pt, mesh, cols in zip(pts, self.meshes, plan.quad_cols):
                if pt.L is not None:
                    g[cols] += _quadrature_rows(
                        mesh.wts_tau, pt, [pt.L], pt.dL[None])[0]
            bad = np.flatnonzero(~np.isfinite(data))
            if len(bad):
                i = int(np.searchsorted(plan.indptr, bad[0], side="right")) - 1
                raise EvaluationError("Jacobian row", i, self.con_names[i])
            bad = np.flatnonzero(~np.isfinite(g))
            if len(bad):
                j = int(bad[0])
                raise EvaluationError("gradient", j, self.var_names[j])
            self._last = (z.copy(), g, J)
        return self._last[1], self._last[2]

    def objective_gradient(self, z: np.ndarray) -> np.ndarray:
        return self._derivatives(z)[0].copy()

    def sparsity(self) -> tuple[np.ndarray, np.ndarray]:
        """Structural nonzeros of the constraint Jacobian as COO coordinates,
        each listed once, in row-major order."""
        return self._plan.rows, self._plan.cols

    def jacobian(self, z: np.ndarray) -> sp.csr_matrix:
        """Constraint Jacobian; node-local partials by central differencing,
        everything structural (differentiation stencil, time scaling,
        quadrature weights) assembled analytically from callback values."""
        return self._derivatives(z)[1].copy()

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
        return Solution(phases=phases, accumulators=accs,
                        objective=self.objective(z))

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

    def dump_layout(self, path):
        rows, cols = self.sparsity()
        doc = {
            "n_var": self.n_var,
            "n_con": self.n_con,
            "variables": self.var_names,
            "constraints": self.con_names,
            "sparsity": {"rows": rows.tolist(), "cols": cols.tolist()},
        }
        with open(path, "w") as f:
            json.dump(doc, f)


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
    objective: float

    @property
    def t0(self) -> float:
        return self.phases[0].t0

    @property
    def tf(self) -> float:
        return self.phases[-1].tf


def transcribe(problem: MultiPhaseProblem,
               meshes: Sequence[MeshPhase]) -> NLPProblem:
    return NLPProblem(problem, meshes)
