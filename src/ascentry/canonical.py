"""Small optimal-control problems with known closed-form answers.

Used as solver shakedown cases and runnable through the CLI with a
``problem`` config key.
"""
from __future__ import annotations

import numpy as np

from .transcription import MeshPhase, MultiPhaseProblem, PhaseDef, uniform_mesh


def scalar_energy_problem() -> tuple[MultiPhaseProblem, list[MeshPhase]]:
    """min int u^2 with xdot = u, x(0) = 0, x(1) = 1; optimum u = 1, J = 1."""
    ph = PhaseDef(
        name="scalar", nx=1, nu=1,
        node=lambda X, U: U,
        x_lo=np.array([-10.0]), x_hi=np.array([10.0]),
        u_lo=np.array([-10.0]), u_hi=np.array([10.0]),
        t0_lo=0.0, t0_hi=0.0, tf_lo=1.0, tf_hi=1.0,
        x0_lo=np.array([0.0]), x0_hi=np.array([0.0]),
        xf_lo=np.array([1.0]), xf_hi=np.array([1.0]),
        cost=lambda X, U: U[:, 0] ** 2,
        state_names=("x",), control_names=("u",))
    return MultiPhaseProblem(phases=[ph]), [uniform_mesh(2, 4)]


def double_integrator_problem() -> tuple[MultiPhaseProblem, list[MeshPhase]]:
    """Min-energy rest-to-rest slew of a double integrator on [0, 1].

    Analytic optimum: u(t) = 6 - 12 t, x(t) = 3 t^2 - 2 t^3, J = 12.
    """
    ph = PhaseDef(
        name="slew", nx=2, nu=1,
        node=lambda X, U: np.column_stack([X[:, 1], U[:, 0]]),
        x_lo=np.full(2, -50.0), x_hi=np.full(2, 50.0),
        u_lo=np.array([-50.0]), u_hi=np.array([50.0]),
        t0_lo=0.0, t0_hi=0.0, tf_lo=1.0, tf_hi=1.0,
        x0_lo=np.zeros(2), x0_hi=np.zeros(2),
        xf_lo=np.array([1.0, 0.0]), xf_hi=np.array([1.0, 0.0]),
        cost=lambda X, U: U[:, 0] ** 2,
        state_names=("pos", "vel"), control_names=("u",))
    return MultiPhaseProblem(phases=[ph]), [uniform_mesh(3, 5)]


def exponential_problem() -> tuple[MultiPhaseProblem, list[MeshPhase]]:
    """min int u^2 with xdot = x + u, x(0) = 1, x(1) = e; optimum u = 0.

    The state rides the natural exponential, which a low-degree mesh cannot
    represent to tight tolerance, so this is the standard refinement-loop
    exercise.
    """
    ph = PhaseDef(
        name="exp", nx=1, nu=1,
        node=lambda X, U: X + U,
        x_lo=np.array([-10.0]), x_hi=np.array([10.0]),
        u_lo=np.array([-10.0]), u_hi=np.array([10.0]),
        t0_lo=0.0, t0_hi=0.0, tf_lo=1.0, tf_hi=1.0,
        x0_lo=np.array([1.0]), x0_hi=np.array([1.0]),
        xf_lo=np.array([np.e]), xf_hi=np.array([np.e]),
        cost=lambda X, U: U[:, 0] ** 2,
        state_names=("x",), control_names=("u",))
    return MultiPhaseProblem(phases=[ph]), [MeshPhase(np.array([1.0]),
                                                      np.array([3]))]


CANONICAL_PROBLEMS = {
    "scalar-energy": scalar_energy_problem,
    "double-integrator": double_integrator_problem,
    "exponential": exponential_problem,
}


def straight_line_guess(nlp) -> np.ndarray:
    """Linear state ramp between endpoint pins, zero controls, midpoint times."""
    states, controls, times = [], [], []
    for p, ph in enumerate(nlp.problem.phases):
        _, state_tau = nlp.node_taus(p)
        x0 = np.where(np.isfinite(ph.x0_lo), ph.x0_lo, 0.0)
        xf = np.where(np.isfinite(ph.xf_lo), ph.xf_lo, x0)
        states.append(x0[None, :] + state_tau[:, None] * (xf - x0)[None, :])
        controls.append(np.zeros((nlp.phase_layout[p].nc, ph.nu)))
        times.append((0.5 * (ph.t0_lo + min(ph.t0_hi, ph.t0_lo + 1e6)),
                      0.5 * (ph.tf_lo + min(ph.tf_hi, ph.tf_lo + 1e6))))
    return nlp.clip_to_bounds(nlp.pack(states, controls, times))
