"""Multi-phase Legendre-Gauss-Radau transcription into a sparse NLP.

Variable layout, per phase: state rows at every collocation node plus the
final non-collocated endpoint, control rows at collocation nodes only, then
t0 and tf; shared integral accumulators sit at the end of the vector.
Dynamics, path, integrand and cost callbacks are autonomous and batched:
they map (X, U) with one row per node to one output row per node, and they
must be pure: the derivatives at a point are computed once and reused.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from .lgr import barycentric_eval, barycentric_weights, lgr_rule

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
        for p, ph in enumerate(self.phases):
            for term in ph.integrands:
                if term.accumulator not in names:
                    raise ValueError(f"phase {p} integrand targets unknown "
                                     f"accumulator {term.accumulator}")
        for ln in self.linkages:
            if not (0 <= ln.a < len(self.phases) and 0 <= ln.b < len(self.phases)):
                raise ValueError(f"linkage {ln.name} references invalid phases")


@dataclass
class MeshPhase:
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
    starts: np.ndarray   # first state-node index of each interval
    rules: list
    wts_tau: np.ndarray  # quadrature weights on tau scale: frac_k/2 * w_i


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
    dF: np.ndarray
    dP: np.ndarray
    dQ: np.ndarray
    dL: np.ndarray


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
        self._build_bounds()
        self._build_constraint_index()
        self._build_jacobian_plan()
        self._last = None   # (z, gradient, Jacobian) at the last point

    # ----- layout -----

    def _build_layout(self):
        self.phase_layout: list[_PhaseLayout] = []
        off = 0
        self.var_names: list[str] = []
        for p, (ph, mesh) in enumerate(zip(self.problem.phases, self.meshes)):
            nc = mesh.n_coll
            nn = nc + 1
            rules = [lgr_rule(int(d)) for d in mesh.degrees]
            starts = np.concatenate([[0], np.cumsum(mesh.degrees)])[:-1]
            wts = np.concatenate([mesh.fractions[k] / 2.0 * rules[k].weights
                                  for k in range(mesh.n_intervals)])
            lay = _PhaseLayout(x_off=off, u_off=off + nn * ph.nx,
                               t0_idx=off + nn * ph.nx + nc * ph.nu,
                               tf_idx=off + nn * ph.nx + nc * ph.nu + 1,
                               nn=nn, nc=nc, starts=starts, rules=rules,
                               wts_tau=wts)
            self.phase_layout.append(lay)
            for i in range(nn):
                for name in ph.state_names:
                    self.var_names.append(f"p{p}:{ph.name}:x:{name}:n{i}")
            for i in range(nc):
                for name in ph.control_names:
                    self.var_names.append(f"p{p}:{ph.name}:u:{name}:n{i}")
            self.var_names.append(f"p{p}:{ph.name}:t0")
            self.var_names.append(f"p{p}:{ph.name}:tf")
            off = lay.tf_idx + 1
        self.acc_idx: dict[str, int] = {}
        for acc in self.problem.accumulators:
            self.acc_idx[acc.name] = off
            self.var_names.append(f"acc:{acc.name}")
            off += 1
        self.n_var = off

    def _build_bounds(self):
        lo = np.empty(self.n_var)
        hi = np.empty(self.n_var)
        for ph, lay in zip(self.problem.phases, self.phase_layout):
            xs = slice(lay.x_off, lay.x_off + lay.nn * ph.nx)
            lo[xs] = np.tile(ph.x_lo, lay.nn)
            hi[xs] = np.tile(ph.x_hi, lay.nn)
            if ph.x0_lo is not None:
                lo[lay.x_off:lay.x_off + ph.nx] = ph.x0_lo
                hi[lay.x_off:lay.x_off + ph.nx] = ph.x0_hi
            if ph.xf_lo is not None:
                last = lay.x_off + (lay.nn - 1) * ph.nx
                lo[last:last + ph.nx] = ph.xf_lo
                hi[last:last + ph.nx] = ph.xf_hi
            us = slice(lay.u_off, lay.u_off + lay.nc * ph.nu)
            lo[us] = np.tile(ph.u_lo, lay.nc)
            hi[us] = np.tile(ph.u_hi, lay.nc)
            lo[lay.t0_idx], hi[lay.t0_idx] = ph.t0_lo, ph.t0_hi
            lo[lay.tf_idx], hi[lay.tf_idx] = ph.tf_lo, ph.tf_hi
        for acc in self.problem.accumulators:
            lo[self.acc_idx[acc.name]] = acc.lo
            hi[self.acc_idx[acc.name]] = acc.hi
        self.z_lo, self.z_hi = lo, hi

    def _build_constraint_index(self):
        names: list[str] = []
        c_lo: list[float] = []
        c_hi: list[float] = []
        self._def_row: list[int] = []
        self._path_row: list[int] = []
        for p, (ph, mesh, lay) in enumerate(zip(self.problem.phases,
                                                self.meshes, self.phase_layout)):
            self._def_row.append(len(names))
            for k in range(mesh.n_intervals):
                for i in range(mesh.degrees[k]):
                    for sn in ph.state_names:
                        names.append(f"p{p}:{ph.name}:def:k{k}:n{i}:{sn}")
            c_lo.extend([0.0] * lay.nc * ph.nx)
            c_hi.extend([0.0] * lay.nc * ph.nx)
            self._path_row.append(len(names))
            for pc in ph.path:
                for i in range(lay.nc):
                    names.append(f"p{p}:{ph.name}:path:{pc.name}:n{i}")
                c_lo.extend([pc.lo] * lay.nc)
                c_hi.extend([pc.hi] * lay.nc)
        self._acc_row = len(names)
        for acc in self.problem.accumulators:
            names.append(f"acc:{acc.name}:balance")
            c_lo.append(0.0)
            c_hi.append(0.0)
        self._bc_row = len(names)
        for bc in self.problem.boundaries:
            for j in range(len(bc.lo)):
                names.append(f"bc:{bc.name}:{j}")
            c_lo.extend(bc.lo.tolist())
            c_hi.extend(bc.hi.tolist())
        self._dur_row = len(names)
        self._dur_phases = []
        for p, ph in enumerate(self.problem.phases):
            if ph.min_duration > 0.0 and (ph.t0_lo < ph.t0_hi or ph.tf_lo < ph.tf_hi):
                self._dur_phases.append(p)
                names.append(f"p{p}:{ph.name}:duration")
                c_lo.append(ph.min_duration)
                c_hi.append(np.inf)
        self._link_row = len(names)
        for ln in self.problem.linkages:
            for j in range(len(ln.lo)):
                names.append(f"link:{ln.name}:{j}")
            c_lo.extend(ln.lo.tolist())
            c_hi.extend(ln.hi.tolist())
        self.con_names = names
        self.c_lo = np.array(c_lo)
        self.c_hi = np.array(c_hi)
        self.n_con = len(names)

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
        """(collocation taus, state-node taus) on the phase's [0, 1] scale."""
        mesh, lay = self.meshes[p], self.phase_layout[p]
        edges = np.concatenate([[0.0], np.cumsum(mesh.fractions)])
        colls = []
        for k, rule in enumerate(lay.rules):
            colls.append(edges[k] + (rule.nodes + 1.0) / 2.0 * mesh.fractions[k])
        coll = np.concatenate(colls)
        return coll, np.concatenate([coll, [1.0]])

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

    def _phase_quadrature(self, z, p, func) -> float:
        lay = self.phase_layout[p]
        t0, tf = self.times(z, p)
        vals = func(self.states(z, p)[:-1], self.controls(z, p))
        return float((tf - t0) * lay.wts_tau @ np.asarray(vals).reshape(-1))

    def objective(self, z: np.ndarray) -> float:
        total = 0.0
        for p, ph in enumerate(self.problem.phases):
            if ph.cost is not None:
                total += self._phase_quadrature(z, p, ph.cost)
        if not np.isfinite(total):
            raise EvaluationError("objective", -1, "objective")
        return total

    def constraints(self, z: np.ndarray) -> np.ndarray:
        c = np.empty(self.n_con)
        for p, (ph, mesh, lay) in enumerate(zip(self.problem.phases,
                                                self.meshes, self.phase_layout)):
            X = self.states(z, p)
            U = self.controls(z, p)
            t0, tf = self.times(z, p)
            F = np.atleast_2d(ph.dynamics(X[:-1], U))
            row = self._def_row[p]
            for k, rule in enumerate(lay.rules):
                s = lay.starts[k]
                n = rule.n
                block = rule.diff_matrix @ X[s:s + n + 1] \
                    - (tf - t0) * mesh.fractions[k] / 2.0 * F[s:s + n]
                c[row:row + n * ph.nx] = block.reshape(-1)
                row += n * ph.nx
            row = self._path_row[p]
            for pc in ph.path:
                c[row:row + lay.nc] = np.asarray(pc.func(X[:-1], U)).reshape(-1)
                row += lay.nc
        row = self._acc_row
        for acc in self.problem.accumulators:
            total = 0.0
            for p, ph in enumerate(self.problem.phases):
                for term in ph.integrands:
                    if term.accumulator == acc.name:
                        total += self._phase_quadrature(z, p, term.func)
            c[row] = z[self.acc_idx[acc.name]] - total
            row += 1
        for bc in self.problem.boundaries:
            X = self.states(z, bc.phase)
            t0, tf = self.times(z, bc.phase)
            vals = np.atleast_1d(bc.func(X[0], X[-1], t0, tf))
            c[row:row + len(vals)] = vals
            row += len(vals)
        for p in self._dur_phases:
            t0, tf = self.times(z, p)
            c[row] = tf - t0
            row += 1
        for ln in self.problem.linkages:
            Xa = self.states(z, ln.a)
            Xb = self.states(z, ln.b)
            _, taf = self.times(z, ln.a)
            tb0, _ = self.times(z, ln.b)
            vals = np.atleast_1d(ln.func(Xa[-1], taf, Xb[0], tb0))
            c[row:row + len(vals)] = vals
            row += len(vals)
        bad = np.flatnonzero(~np.isfinite(c))
        if len(bad):
            i = int(bad[0])
            raise EvaluationError("constraint", i, self.con_names[i])
        return c

    def evaluate(self, z: np.ndarray) -> tuple[float, np.ndarray]:
        if len(z) != self.n_var:
            raise ValueError("point dimension does not match layout")
        return self.objective(z), self.constraints(z)

    # ----- structured derivatives -----

    def _node_fd(self, ph, X, U):
        """Per-node central-difference partials of dynamics, paths, integrands
        and cost with respect to the node's own state/control row.

        Returns dF (nc, nx+nu, nx), dP (npath, nc, nx+nu),
        dQ (nterm, nc, nx+nu), dL (nc, nx+nu).
        """
        nc = X.shape[0]
        nin = ph.nx + ph.nu
        dF = np.zeros((nc, nin, ph.nx))
        dP = np.zeros((len(ph.path), nc, nin))
        dQ = np.zeros((len(ph.integrands), nc, nin))
        dL = np.zeros((nc, nin))

        def probe(Xp, Up):
            f = np.atleast_2d(ph.dynamics(Xp, Up))
            ps = [np.asarray(pc.func(Xp, Up)).reshape(-1) for pc in ph.path]
            qs = [np.asarray(t.func(Xp, Up)).reshape(-1) for t in ph.integrands]
            ls = (np.asarray(ph.cost(Xp, Up)).reshape(-1)
                  if ph.cost is not None else None)
            return f, ps, qs, ls

        for j in range(nin):
            if j < ph.nx:
                h = _FD_STEP * np.maximum(1.0, np.abs(X[:, j]))
                Xp, Xm = X.copy(), X.copy()
                Xp[:, j] += h
                Xm[:, j] -= h
                fp, pp, qp, lp = probe(Xp, U)
                fm, pm, qm, lm = probe(Xm, U)
            else:
                ju = j - ph.nx
                h = _FD_STEP * np.maximum(1.0, np.abs(U[:, ju]))
                Up, Um = U.copy(), U.copy()
                Up[:, ju] += h
                Um[:, ju] -= h
                fp, pp, qp, lp = probe(X, Up)
                fm, pm, qm, lm = probe(X, Um)
            inv = 1.0 / (2.0 * h)
            dF[:, j, :] = (fp - fm) * inv[:, None]
            for i in range(len(ph.path)):
                dP[i, :, j] = (pp[i] - pm[i]) * inv
            for i in range(len(ph.integrands)):
                dQ[i, :, j] = (qp[i] - qm[i]) * inv
            if ph.cost is not None:
                dL[:, j] = (lp - lm) * inv
        return dF, dP, dQ, dL

    def _build_jacobian_plan(self):
        """Enumerate the Jacobian's blocks once for this mesh.

        Each block is a pair of broadcast (rows, cols) index arrays with a
        value rule: a constant array, or a callable mapping the point and the
        phase points to values in the block's shape.
        """
        rows: list[np.ndarray] = []
        cols: list[np.ndarray] = []
        values: list = []
        quad_cols: list[np.ndarray] = []
        acc_names = [acc.name for acc in self.problem.accumulators]

        def block(r, c, v):
            r, c = np.broadcast_arrays(r, c)
            rows.append(r.ravel())
            cols.append(c.ravel())
            values.append(v)

        def phase_blocks(p):
            ph, mesh, lay = self.problem.phases[p], self.meshes[p], self.phase_layout[p]
            nx, nc = ph.nx, lay.nc
            node = np.arange(nc)[:, None]
            node_cols = np.hstack([lay.x_off + node * nx + np.arange(nx),
                                   lay.u_off + node * ph.nu + np.arange(ph.nu)])
            def_rows = self._def_row[p] + node * nx + np.arange(nx)
            frac = np.repeat(mesh.fractions, mesh.degrees)  # per collocation node
            wts_tau = lay.wts_tau
            # differentiation stencil: channel-diagonal, constant
            for k, rule in enumerate(lay.rules):
                s, n = lay.starts[k], rule.n
                block(def_rows[s:s + n, :, None],
                      lay.x_off + (s + np.arange(n + 1)) * nx + np.arange(nx)[:, None],
                      np.repeat(rule.diff_matrix[:, None, :], nx, axis=1))

            # dynamics coupling at each node, in x and u
            def dynamics_values(z, pts):
                scale = (pts[p].tf - pts[p].t0) * frac / 2.0
                return (-scale)[:, None, None] * pts[p].dF

            # time columns: d/dt0 = +frac/2 F, d/dtf = -frac/2 F
            def time_values(z, pts):
                a = (frac / 2.0)[:, None] * pts[p].F
                return np.stack([a, -a], axis=-1)

            block(def_rows[:, None, :], node_cols[:, :, None], dynamics_values)
            block(def_rows[:, :, None], [lay.t0_idx, lay.tf_idx], time_values)
            block(self._path_row[p] + np.arange(len(ph.path))[:, None, None] * nc
                  + node, node_cols, lambda z, pts: pts[p].dP)
            quad_cols.append(np.append(node_cols.ravel(), [lay.t0_idx, lay.tf_idx]))
            if ph.integrands:
                acc_rows = [self._acc_row + acc_names.index(t.accumulator)
                            for t in ph.integrands]
                block(np.array(acc_rows)[:, None], quad_cols[p],
                      lambda z, pts: -_quadrature_rows(wts_tau, pts[p], pts[p].Q,
                                                       pts[p].dQ))

        def endpoint(row, m, func, args):
            """Dense rows of func(*args); each arg is given by its columns,
            an index array for a vector argument or an int for a scalar."""
            idx = np.concatenate([np.atleast_1d(a) for a in args])
            ends = np.cumsum([np.size(a) for a in args])

            def packed(v):
                return func(*[v[e - np.size(a):e] if np.ndim(a) else v[e - 1]
                              for a, e in zip(args, ends)])

            block(row + np.arange(m)[:, None], idx,
                  lambda z, pts: _fd_vector(packed, z[idx], m))
            return row + m

        for p in range(len(self.problem.phases)):
            phase_blocks(p)
        for i, acc in enumerate(self.problem.accumulators):
            block(self._acc_row + i, self.acc_idx[acc.name], np.ones(1))
        row = self._bc_row
        for bc in self.problem.boundaries:
            ph, lay = self.problem.phases[bc.phase], self.phase_layout[bc.phase]
            x0 = lay.x_off + np.arange(ph.nx)
            row = endpoint(row, len(bc.lo), bc.func,
                           [x0, x0 + (lay.nn - 1) * ph.nx, lay.t0_idx, lay.tf_idx])
        for p in self._dur_phases:
            lay = self.phase_layout[p]
            block(row, [lay.t0_idx, lay.tf_idx], np.array([-1.0, 1.0]))
            row += 1
        for ln in self.problem.linkages:
            pha, laya = self.problem.phases[ln.a], self.phase_layout[ln.a]
            phb, layb = self.problem.phases[ln.b], self.phase_layout[ln.b]
            xa = laya.x_off + (laya.nn - 1) * pha.nx + np.arange(pha.nx)
            row = endpoint(row, len(ln.lo), ln.func,
                           [xa, laya.tf_idx, layb.x_off + np.arange(phb.nx),
                            layb.t0_idx])

        keys = np.concatenate(rows) * self.n_var + np.concatenate(cols)
        key, first, slot = np.unique(keys, return_index=True, return_inverse=True)
        rest = np.setdiff1d(np.arange(len(keys)), first)
        u_rows, u_cols = np.divmod(key, self.n_var)
        self._plan = _JacobianPlan(
            values=values, first=first, rest=rest, rest_slot=slot[rest],
            rows=u_rows, cols=u_cols,
            indptr=np.searchsorted(u_rows, np.arange(self.n_con + 1)),
            quad_cols=quad_cols)

    def _phase_point(self, z, p) -> _PhasePoint:
        ph = self.problem.phases[p]
        X = self.states(z, p)[:-1]
        U = self.controls(z, p)
        t0, tf = self.times(z, p)
        dF, dP, dQ, dL = self._node_fd(ph, X, U)
        return _PhasePoint(
            t0=t0, tf=tf, F=np.atleast_2d(ph.dynamics(X, U)),
            Q=[np.asarray(t.func(X, U)).reshape(-1) for t in ph.integrands],
            L=(np.asarray(ph.cost(X, U)).reshape(-1)
               if ph.cost is not None else None),
            dF=dF, dP=dP, dQ=dQ, dL=dL)

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
            for pt, lay, cols in zip(pts, self.phase_layout, plan.quad_cols):
                if pt.L is not None:
                    g[cols] += _quadrature_rows(
                        lay.wts_tau, pt, [pt.L], pt.dL[None])[0]
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
        edges = np.concatenate([[0.0], np.cumsum(self.mesh.fractions)])
        edges[-1] = 1.0
        parts = []
        for k, d in enumerate(self.mesh.degrees):
            rule = lgr_rule(int(d))
            parts.append(edges[k] + 0.5 * (rule.support[:-1] + 1.0)
                         * self.mesh.fractions[k])
        parts.append([1.0])
        return self.t0 + np.concatenate(parts) * (self.tf - self.t0)

    def _locate(self, tq):
        tq = np.atleast_1d(np.asarray(tq, dtype=float))
        span = self.tf - self.t0
        if np.any(tq < self.t0 - 1e-9 * max(1.0, abs(span))) or \
           np.any(tq > self.tf + 1e-9 * max(1.0, abs(span))):
            raise ValueError(f"query time outside phase span [{self.t0}, {self.tf}]")
        tau = np.clip((tq - self.t0) / span if span > 0 else np.zeros_like(tq),
                      0.0, 1.0)
        edges = np.concatenate([[0.0], np.cumsum(self.mesh.fractions)])
        edges[-1] = 1.0
        k = np.clip(np.searchsorted(edges, tau, side="right") - 1,
                    0, self.mesh.n_intervals - 1)
        local = 2.0 * (tau - edges[k]) / self.mesh.fractions[k] - 1.0
        return k, np.clip(local, -1.0, 1.0)

    def sample_states(self, tq):
        k, s = self._locate(tq)
        starts = np.concatenate([[0], np.cumsum(self.mesh.degrees)])
        out = np.empty((len(k), self.states.shape[1]))
        for kk in np.unique(k):
            rule = lgr_rule(int(self.mesh.degrees[kk]))
            rows = slice(starts[kk], starts[kk] + rule.n + 1)
            mask = k == kk
            out[mask] = barycentric_eval(rule.support, rule.support_bary,
                                         self.states[rows], s[mask])
        return out

    def sample_controls(self, tq):
        k, s = self._locate(tq)
        starts = np.concatenate([[0], np.cumsum(self.mesh.degrees)])
        out = np.empty((len(k), self.controls.shape[1]))
        for kk in np.unique(k):
            rule = lgr_rule(int(self.mesh.degrees[kk]))
            rows = slice(starts[kk], starts[kk] + rule.n)
            mask = k == kk
            if rule.n == 1:
                out[mask] = self.controls[rows][0]
            else:
                w = barycentric_weights(rule.nodes)
                out[mask] = barycentric_eval(rule.nodes, w,
                                             self.controls[rows], s[mask])
        return out


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
