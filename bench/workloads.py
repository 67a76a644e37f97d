"""The benchmark's workloads: set-up, rounds of requests, and judgement.

A workload's set-up function takes the seed and returns `make_round`, which
maps a round index to the list of requests of that round.  Every input of a
round comes from a generator seeded with (seed, round), so the same seed
gives the same requests.  A run attempts whole rounds only, so the share of
failed requests is the same in every run.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
from ascentry import canonical, meshref, mission, nlpsolve, transcription
from ascentry.meshref import RefinementOptions
from ascentry.nlpsolve import SolverOptions
from ascentry.transcription import MeshPhase


@dataclass
class Request:
    label: str
    run: Callable[[], object]
    """The timed call."""
    judge: Callable[[object], tuple[bool, list[str]]]
    """Untimed: (failed, problems found by the independent checks)."""


# ---------------------------------------------------------------- canonical

TOLERANCE = 1e-6
STALL_TOLERANCE = 1e-8
MAX_REFINEMENTS = 6
MAX_SQP_ITERATIONS = 200
# At 1e-8 the line search stalls at the noise floor of the finite-difference
# derivatives and `solve` reports max_iterations at the exact optimum.  These
# requests run on the problems' own default meshes, so they fail every time
# whatever the seed, and count as failed.
STALLING = ("scalar-energy", "exponential")
# Initial meshes on which refine_loop does not meet 1e-6 within
# MAX_REFINEMENTS rounds.  Drawn by seed they would fail on some seeds only,
# so they are left out of the family.
UNSETTLED = {"exponential": {"1x5", "2x4", "2x5g", "3x4", "3x4g"}}


def mesh_grid() -> dict[str, MeshPhase]:
    """1-3 intervals of degree 3-6, evenly spaced or graded 1:2 ("g")."""
    grid = {}
    for k in (1, 2, 3):
        for degree in (3, 4, 5, 6):
            for graded in (False, True) if k > 1 else (False,):
                w = np.linspace(1.0, 2.0, k) if graded else np.ones(k)
                key = f"{k}x{degree}" + ("g" if graded else "")
                grid[key] = MeshPhase(w / w.sum(), np.full(k, degree))
    return grid


def _canonical_request(name, problem, meshes, tol) -> Request:
    def run():
        return meshref.refine_loop(
            problem, meshes, canonical.straight_line_guess,
            RefinementOptions(mesh_tolerance=tol,
                              max_refinements=MAX_REFINEMENTS),
            SolverOptions(tolerance=tol, max_iterations=MAX_SQP_ITERATIONS))

    def judge(report):
        if not report.converged:
            return True, []
        # rebuild from the solution's own mesh: the report's `nlp` is the
        # next, unsolved mesh when refinement runs out of rounds
        nlp = transcription.transcribe(
            problem, [ph.mesh for ph in report.solution.phases])
        last = report.last_solve
        return False, checks.check_canonical(name, nlp, last.x,
                                             last.objective, tol)
    return Request(f"{name}@{tol:g}", run, judge)


def canonical_solve(seed: int):
    """Each round solves every problem on every mesh of its family at 1e-6,
    in an order drawn from the seed, then the stalling problems at 1e-8.
    Every round holds the same requests, so runs of different length or seed
    time the same mix."""
    cases, requests = {}, []
    grid = mesh_grid()
    for name, make in canonical.CANONICAL_PROBLEMS.items():
        problem, _ = cases[name] = make()
        skip = UNSETTLED.get(name, set())
        requests += [_canonical_request(name, problem, [mesh], TOLERANCE)
                     for key, mesh in grid.items() if key not in skip]
    stalls = [_canonical_request(name, *cases[name], STALL_TOLERANCE)
              for name in STALLING]

    def make_round(r):
        order = np.random.default_rng([seed, r]).permutation(len(requests))
        return [requests[i] for i in order] + stalls
    return make_round


# ------------------------------------------------------------------ mission

PERTURBATION = 1e-3  # of max(1, |guess|), per variable
DIRECTIONS = 2
# directions hold fixed every variable this close (relative) to a bound: the
# aero tables clip incidence at the box's own limits, so the constraints have
# a kink there and no difference quotient is a derivative
BOUND_MARGIN = 1e-4
SQP_CAP = 1


def _mission_setup():
    cfg = mission.default_config()
    problem = mission.build_mission(cfg)
    meshes = mission.default_meshes(cfg)
    guess = mission.initial_guess(cfg, transcription.transcribe(problem, meshes))
    return cfg, problem, meshes, guess


def mission_eval(seed: int):
    _, problem, meshes, guess = _mission_setup()
    nlp = transcription.transcribe(problem, meshes)
    scale = np.maximum(1.0, np.abs(guess))

    def make_round(r):
        rng = np.random.default_rng([seed, r])
        z = nlp.clip_to_bounds(
            guess + PERTURBATION * scale * rng.standard_normal(nlp.n_var))
        margin = BOUND_MARGIN * scale
        free = (z - nlp.z_lo > margin) & (nlp.z_hi - z > margin)
        directions = [free * scale * rng.standard_normal(nlp.n_var)
                      for _ in range(DIRECTIONS)]

        def run():
            return (nlp.objective(z), nlp.constraints(z),
                    nlp.objective_gradient(z), nlp.jacobian(z))

        def judge(out):
            return False, checks.check_evaluation(nlp, z, *out, directions)
        return [Request("evaluation-set", run, judge)]
    return make_round


def mission_sqp(seed: int):
    """The seed does not enter: every request is the same capped solve."""
    cfg, problem, meshes, guess = _mission_setup()
    options = SolverOptions(tolerance=cfg.solver_tolerance,
                            max_iterations=SQP_CAP)

    def run():
        return nlpsolve.solve(transcription.transcribe(problem, meshes),
                              guess, options)

    def judge(rep):
        if rep.status == "numerical_failure":
            return True, []
        nlp = transcription.transcribe(problem, meshes)
        return False, checks.check_capped_solve(nlp, rep, SQP_CAP,
                                                cfg.solver_tolerance)

    def make_round(r):
        return [Request("capped-solve", run, judge)]
    return make_round


WORKLOADS = {
    "canonical-solve": canonical_solve,
    "mission-eval": mission_eval,
    "mission-sqp": mission_sqp,
}
