"""Path quantities (dynamic pressure, sensed load, heating) and running cost."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# dynamic_pressure belongs to the force model; it is a path quantity here too
from .dynamics import Geo, PhaseContext, Vert, aero_env, dynamic_pressure
from .models import EarthConstants


def _default_v_circ() -> float:
    e = EarthConstants()
    return math.sqrt(e.mu / e.re)


@dataclass(frozen=True)
class HeatingParams:
    """Stagnation-point heating correlation Qdot = kappa (rho/rho0)^a (v/vc)^b."""

    kappa: float = 199.87            # MW/m^2
    rho0: float = 1.225              # kg/m^3
    v_circ: float = field(default_factory=_default_v_circ)  # km/s
    exp_rho: float = 0.5
    exp_v: float = 3.15


def heating_rate(rho, v, hp: HeatingParams):
    return hp.kappa * (rho / hp.rho0) ** hp.exp_rho * (v / hp.v_circ) ** hp.exp_v


def sensed_load(lift, drag, mass, g0):
    """Aerodynamic load factor in g units."""
    return np.sqrt(lift * lift + drag * drag) / (mass * g0)


def path_quantities(ctx: PhaseContext, h, v, alpha, mass, hp: HeatingParams):
    """(q [kPa], n [g], Qdot [MW/m^2]) for batched altitude/speed/incidence."""
    rho, _, q, lift, drag = aero_env(ctx, h, v, alpha)
    n = sensed_load(lift, drag, mass, ctx.earth.g0)
    qdot = heating_rate(rho, v, hp)
    return q, n, qdot


def phugoid_gain(k: float) -> float:
    """Normalizing gain C for the entry-oscillation penalty; penalty is
    exactly 1 at vertical flight for any k > 0."""
    if k <= 0:
        raise ValueError("penalty steepness k must be positive")
    return 2.0 * (1.0 + math.exp(-k)) / (1.0 - math.exp(-k))


def phugoid_penalty(sin_gamma, k: float):
    c = phugoid_gain(k)
    return (c / (1.0 + np.exp(-k * sin_gamma)) - c / 2.0) ** 2


@dataclass(frozen=True)
class CostWeights:
    """Per-phase integrand parameters; angles in radians, rates in rad/s.

    include_alpha drops the incidence-tracking term (coast phases);
    k > 0 adds the phugoid penalty (entry vertical-flight phase only).
    """

    alpha_bar: float
    alpha_max: float
    u_alpha_max: float
    u_sigma_max: float
    include_alpha: bool = True
    k: float = 0.0


def running_cost_geo(y, u, w: CostWeights):
    out = (u[:, 0] / w.u_alpha_max) ** 2 + (u[:, 1] / w.u_sigma_max) ** 2
    if w.include_alpha:
        out = out + ((y[:, Geo.ALPHA] - w.alpha_bar) / w.alpha_max) ** 2
    return out


def running_cost_vert(y, u, w: CostWeights):
    # u = (u_alpha, w1): the frame's roll rate w1 is charged as a bank rate
    out = (u[:, 0] / w.u_alpha_max) ** 2 + (u[:, 1] / w.u_sigma_max) ** 2
    if w.include_alpha:
        out = out + ((y[:, Vert.ALPHA] - w.alpha_bar) / w.alpha_max) ** 2
    if w.k > 0.0:
        sin_gamma = 1.0 - 2.0 * (y[:, Vert.E2] ** 2 + y[:, Vert.E3] ** 2)
        out = out + phugoid_penalty(sin_gamma, w.k)
    return out
