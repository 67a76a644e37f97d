"""hp-adaptive mesh refinement.

Per interval, the interpolated state's time derivative is compared against
the dynamics at interior checkpoints; intervals over tolerance get their
degree raised by the decimal magnitude of the overshoot, or are split once
the degree cap is reached.  Sub-interval degrees keep at least their share
of the parent's points so the total collocation count never shrinks.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .lgr import barycentric_eval
from .nlpsolve import SolveReport, SolverOptions, solve
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
        if self.mesh_tolerance <= 0:
            raise ValueError("mesh_tolerance must be positive")
        if self.max_refinements < 1:
            raise ValueError("max_refinements must be at least 1")


def estimate_error(phase_sol: PhaseSolution, dynamics) -> np.ndarray:
    """Scaled dynamics-residual estimate, one value per mesh interval."""
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
        F = np.atleast_2d(dynamics(Xq, Uq))
        resid = np.abs(dXq * (2.0 / dt) - F)
        scale = 1.0 + np.abs(Xk).max(axis=0)
        errors[k] = (resid / scale[None, :]).max()
    return errors


def refine(mesh: MeshPhase, errors: np.ndarray,
           options: RefinementOptions) -> tuple[MeshPhase, bool]:
    """Apply the degree-raise / split rule; second output False at a fixed point."""
    if len(errors) != mesh.n_intervals:
        raise ValueError("one error per interval required")
    fractions: list[float] = []
    degrees: list[int] = []
    changed = False
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
        changed = True
    if not changed:
        return mesh, False
    fr = np.asarray(fractions)
    return MeshPhase(fr / fr.sum(), np.asarray(degrees)), True


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


def _history_entry(iteration, meshes, errors):
    entry = {"iteration": iteration, "phases": []}
    for mesh, errs in zip(meshes, errors):
        entry["phases"].append({
            "boundaries": mesh.edges.tolist(),
            "degrees": mesh.degrees.tolist(),
            "errors": errs.tolist(),
        })
    return entry


def refine_loop(problem: MultiPhaseProblem, meshes: list[MeshPhase],
                guess, options: RefinementOptions | None = None,
                solver_options: SolverOptions | None = None,
                history_path=None) -> RefinementReport:
    """Solve / estimate / refine until every interval meets tolerance.

    `guess` is either a point for the first mesh or a callable mapping an
    NLPProblem to one; later meshes warm-start from the previous solution.
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
        if sol is not None:
            z = nlp.z_from_solution(sol)
        else:
            z = guess(nlp) if callable(guess) else np.asarray(guess, float)
        rep = solve(nlp, z, solver_options)
        reports.append(rep)
        sol = nlp.solution_from(rep.x)
        errors = [estimate_error(sol.phases[p], problem.phases[p].dynamics)
                  for p in range(len(problem.phases))]
        history.append(_history_entry(it, meshes, errors))
        worst = max((e.max() for e in errors if len(e)), default=0.0)
        if rep.status == "numerical_failure":
            break
        if worst <= options.mesh_tolerance:
            done = rep.converged
            break
        new_meshes = []
        changed = False
        for p, mesh in enumerate(meshes):
            nm, ch = refine(mesh, errors[p], options)
            new_meshes.append(nm)
            changed = changed or ch
        if not changed:
            done = reports[-1].converged
            break
        meshes = new_meshes
    if history_path is not None:
        with open(history_path, "w") as f:
            json.dump(history, f, indent=1)
    return RefinementReport(converged=done, iterations=it, errors=errors,
                            solution=sol, solve_reports=reports, history=history)
