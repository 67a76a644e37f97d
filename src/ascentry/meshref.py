"""hp-adaptive mesh refinement.

Per interval, the interpolated state's time derivative is compared against
the dynamics at interior checkpoints; intervals over tolerance get their
degree raised by the decimal magnitude of the overshoot, or are split once
the degree cap is reached.  Sub-interval degrees keep at least their share
of the parent's points so the total collocation count never shrinks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .lgr import barycentric_eval
from .nlpsolve import SolveReport, SolverOptions, _is_integer, solve
from .transcription import (MeshPhase, MultiPhaseProblem, PhaseSolution,
                            Solution, transcribe)

N_MIN = 3        # fewest nodes an interval over tolerance is given
N_MAX = 10       # degree cap: an interval that would pass it is split
SUBDIVISION = 2  # equal pieces a split interval becomes


@dataclass
class RefinementOptions:
    mesh_tolerance: float = 1e-4
    max_refinements: int = 10

    def __post_init__(self):
        if not math.isfinite(self.mesh_tolerance):
            raise ValueError("mesh_tolerance must be finite")
        if self.mesh_tolerance <= 0:
            raise ValueError("mesh_tolerance must be positive")
        if not _is_integer(self.max_refinements):
            raise ValueError("max_refinements must be an integer")
        if self.max_refinements < 1:
            raise ValueError("max_refinements must be at least 1")


def estimate_error(phase_sol: PhaseSolution, node) -> np.ndarray:
    """Scaled dynamics-residual estimate, one value per mesh interval; of the
    phase's node callback it reads the rates columns alone."""
    mesh = phase_sol.mesh
    span = phase_sol.tf - phase_sol.t0
    errors = np.zeros(mesh.n_intervals)
    if span <= 0:
        return errors
    for k, rule in enumerate(mesh.rules):
        deg = rule.n
        start = mesh.starts[k]
        Xk = phase_sol.states[start:start + deg + 1]
        Uk = phase_sol.controls[start:start + deg]
        dt = span * mesh.fractions[k]
        dX_support = rule.support_diff @ Xk

        m_checks = deg + 10
        s = np.linspace(-1.0, 1.0, m_checks + 2)[1:-1]
        Xq = barycentric_eval(rule.support, rule.support_bary, Xk, s)
        dXq = barycentric_eval(rule.support, rule.support_bary, dX_support, s)
        if deg == 1:
            Uq = np.repeat(Uk, len(s), axis=0)
        else:
            Uq = barycentric_eval(rule.nodes, rule.node_bary, Uk, s)
        F = np.reshape(node(Xq, Uq), (len(s), -1))[:, :Xk.shape[1]]
        resid = np.abs(dXq * (2.0 / dt) - F)
        scale = 1.0 + np.abs(Xk).max(axis=0)
        errors[k] = (resid / scale[None, :]).max()
    return errors


def refine(mesh: MeshPhase, errors: np.ndarray,
           options: RefinementOptions) -> MeshPhase:
    """Apply the degree-raise / split rule; `mesh` itself where every
    interval meets tolerance (a rebuilt mesh would renormalize its
    fractions)."""
    if len(errors) != mesh.n_intervals:
        raise ValueError("one error per interval required")
    if np.all(errors <= options.mesh_tolerance):
        return mesh
    fractions: list[float] = []
    degrees: list[int] = []
    for k in range(mesh.n_intervals):
        frac = float(mesh.fractions[k])
        deg = int(mesh.degrees[k])
        if errors[k] <= options.mesh_tolerance:
            fractions.append(frac)
            degrees.append(deg)
            continue
        inc = max(1, math.ceil(math.log10(errors[k] / options.mesh_tolerance)))
        target = max(deg + inc, N_MIN)
        if target <= N_MAX:
            fractions.append(frac)
            degrees.append(target)
        else:
            sub_deg = max(N_MIN, math.ceil(deg / SUBDIVISION))
            fractions.extend([frac / SUBDIVISION] * SUBDIVISION)
            degrees.extend([sub_deg] * SUBDIVISION)
    fr = np.asarray(fractions)
    return MeshPhase(fr / fr.sum(), np.asarray(degrees))


@dataclass
class RefinementReport:
    converged: bool
    iterations: int
    errors: list[np.ndarray]
    solution: Solution
    solve_reports: list[SolveReport] = field(default_factory=list)
    history: list[dict] = field(default_factory=list)

    @property
    def last_solve(self) -> SolveReport:
        return self.solve_reports[-1]

    @property
    def status(self) -> str:
        """The run's verdict: "converged" only when the last solve converged
        on a mesh that meets tolerance, "numerical_failure" when an interval
        error is not finite, "max_refinements" when the last solve converged
        but the rounds ran out, otherwise the last solve's status."""
        if self.converged:
            return "converged"
        if not all(np.all(np.isfinite(e)) for e in self.errors):
            return "numerical_failure"
        return "max_refinements" if self.last_solve.converged \
            else self.last_solve.status


def _history_entry(iteration, meshes, errors, sqp):
    """One round: each phase's mesh and interval errors, and the solve's
    per-iteration rows (`SolveReport.log`)."""
    return {"iteration": iteration,
            "phases": [{"boundaries": mesh.edges.tolist(),
                        "degrees": mesh.degrees.tolist(),
                        "errors": errs.tolist()}
                       for mesh, errs in zip(meshes, errors)],
            "sqp": sqp}


def refine_loop(problem: MultiPhaseProblem, meshes: list[MeshPhase],
                guess, options: RefinementOptions | None = None,
                solver_options: SolverOptions | None = None) -> RefinementReport:
    """Solve / estimate / refine until every interval meets tolerance.

    `guess` maps the first mesh's NLPProblem to a start point; later meshes
    warm-start from the previous solution.
    The solution's phases carry the meshes it was solved on.
    """
    options = options or RefinementOptions()
    solver_options = solver_options or SolverOptions()
    meshes = list(meshes)
    reports: list[SolveReport] = []
    history: list[dict] = []
    errors: list[np.ndarray] = [np.full(m.n_intervals, np.inf) for m in meshes]
    sol = None
    done = False
    it = 0
    for it in range(1, options.max_refinements + 1):
        nlp = transcribe(problem, meshes)
        z = guess(nlp) if sol is None else nlp.z_from_solution(sol)
        rep = solve(nlp, z, solver_options)
        reports.append(rep)
        sol = nlp.solution_from(rep.x)
        errors = [estimate_error(sol.phases[p], problem.phases[p].node)
                  for p in range(len(problem.phases))]
        history.append(_history_entry(it, meshes, errors, rep.log))
        worst = max((e.max() for e in errors if len(e)), default=0.0)
        # an error that is not finite gives refine no magnitude to act on
        if rep.status == "numerical_failure" \
                or not all(np.all(np.isfinite(e)) for e in errors):
            break
        if worst <= options.mesh_tolerance:
            done = rep.converged
            break
        # an interval over tolerance always changes, so every round that
        # gets here solves a new mesh
        meshes = [refine(mesh, errs, options)
                  for mesh, errs in zip(meshes, errors)]
    return RefinementReport(converged=done, iterations=it, errors=errors,
                            solution=sol, solve_reports=reports, history=history)
