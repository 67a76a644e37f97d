"""Point-mass flight dynamics over a rotating spherical Earth.

Two interchangeable formulations: geodetic angles (flight path gamma,
azimuth psi, bank sigma), singular in vertical flight, and an Euler-parameter
form that stays regular there.  Every function takes and returns stacks:
states are (n, dim) arrays, one row per evaluation point, and altitudes,
speeds and angles are 1-D arrays of one length; the rates, the force model
and geo_from_vert carry complex stacks.

Units: km, km/s, s, kg, kN, kPa, rad.  The only unit conversion in the force
model is dynamic pressure, q[kPa] = 500 rho[kg/m^3] v[km/s]^2.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .models import AeroTable, AtmosphereTable, EarthConstants


class Geo(IntEnum):
    """Column order of the geodetic state; M only present when mass flows."""

    H = 0
    PHI = 1
    THETA = 2
    V = 3
    GAMMA = 4
    PSI = 5
    ALPHA = 6
    SIGMA = 7
    M = 8


class Vert(IntEnum):
    """Column order of the Euler-parameter state used in vertical-flight phases."""

    H = 0
    PHI = 1
    THETA = 2
    V = 3
    E1 = 4
    E2 = 5
    E3 = 6
    ETA = 7
    ALPHA = 8
    M = 9


GEO_DIM = 8
VERT_DIM = 9


@dataclass
class PhaseContext:
    """Force environment of one phase.

    aero/atmosphere None means the phase is exo-atmospheric (L = D = 0);
    thrust 0 means non-propulsive.  fixed_mass supplies the vehicle mass
    when mass is not carried as a state.
    """

    earth: EarthConstants
    thrust: float = 0.0
    isp: float = 1.0
    ref_area: float = 0.0
    aero: AeroTable | None = None
    atmosphere: AtmosphereTable | None = None
    fixed_mass: float | None = None


def dynamic_pressure(rho, v):
    # rho [kg/m^3] x v [km/s]^2 -> kPa carries a factor 500 (1e6/2/1e3)
    return 500.0 * rho * v ** 2


def aero_env(ctx: PhaseContext, h, v, alpha):
    """Density, Mach, dynamic pressure [kPa], lift and drag [kN], from one
    atmosphere lookup and one aero lookup."""
    if ctx.atmosphere is None:
        z = np.zeros_like(h)
        return z, z, z, z, z
    rho, a = ctx.atmosphere.lookup(h)
    q = dynamic_pressure(rho, v)
    if ctx.aero is None:
        z = np.zeros_like(q)
        return rho, z, q, z, z
    mach = v / a
    cl, cd = ctx.aero.lookup(alpha * (180.0 / np.pi), mach)
    return rho, mach, q, q * ctx.ref_area * cl, q * ctx.ref_area * cd


def _mass_of(y, ctx, dim):
    """The mass column of y where the phase carries one, else fixed_mass."""
    if y.shape[1] > dim:
        return y[:, dim]
    if ctx.fixed_mass is None:
        raise ValueError("a phase with no mass state needs fixed_mass")
    return np.full(y.shape[0], ctx.fixed_mass)


def geo_rates(y, u, ctx: PhaseContext):
    """Geodetic state rates; y columns follow Geo, u = (u_alpha, u_sigma)."""
    lift, drag = aero_env(ctx, y[:, Geo.H], y[:, Geo.V], y[:, Geo.ALPHA])[3:]
    return geo_core(y, u, ctx, lift, drag)


def geo_core(y, u, ctx: PhaseContext, lift, drag):
    """geo_rates on a batch whose lift and drag are already known."""
    u = np.atleast_2d(u)
    h, v = y[:, Geo.H], y[:, Geo.V]
    th, gam, psi = y[:, Geo.THETA], y[:, Geo.GAMMA], y[:, Geo.PSI]
    alpha, sigma = y[:, Geo.ALPHA], y[:, Geo.SIGMA]
    m = _mass_of(y, ctx, GEO_DIM)
    e = ctx.earth
    r = e.re + h
    sg, cg = np.sin(gam), np.cos(gam)
    st, ct = np.sin(th), np.cos(th)
    sp, cp = np.sin(psi), np.cos(psi)
    thrust = ctx.thrust
    trans = thrust * np.sin(alpha) + lift

    out = np.empty_like(y)
    out[:, Geo.H] = v * sg
    out[:, Geo.PHI] = v * cg * sp / (r * ct)
    out[:, Geo.THETA] = v * cg * cp / r
    out[:, Geo.V] = ((thrust * np.cos(alpha) - drag) / m
                     - e.mu * sg / r ** 2
                     + r * e.omega ** 2 * ct * (sg * ct - cg * st * cp))
    out[:, Geo.GAMMA] = (trans * np.cos(sigma) / (m * v)
                         + cg * (v / r - e.mu / (r ** 2 * v))
                         + 2.0 * e.omega * ct * sp
                         + r * e.omega ** 2 / v * ct * (cg * ct + sg * st * cp))
    out[:, Geo.PSI] = (trans * np.sin(sigma) / (m * v * cg)
                       + v / r * cg * sp * np.tan(th)
                       - 2.0 * e.omega * (np.tan(gam) * ct * cp - st)
                       + r * e.omega ** 2 / (v * cg) * st * ct * sp)
    out[:, Geo.ALPHA] = u[:, 0]
    out[:, Geo.SIGMA] = u[:, 1]
    if y.shape[1] > GEO_DIM:
        out[:, Geo.M] = -thrust / (ctx.isp * e.g0)
    return out


def _frame_rates(y, ctx: PhaseContext, lift):
    """LVLH angular velocity components (w2, w3) of the velocity frame, on
    a batch whose lift is already known.

    Written so that the Euler-parameter formulation reproduces the geodetic
    one exactly: the transverse force T sin(alpha) + L enters w3 only, and
    both components carry the meridian-convergence transport term
    -(4 v / r) tan(theta) (e1 e2 + e3 eta) (.) absent from textbook
    non-rotating-frame derivations.
    """
    h, v, th = y[:, Vert.H], y[:, Vert.V], y[:, Vert.THETA]
    e1, e2, e3, eta = (y[:, Vert.E1], y[:, Vert.E2], y[:, Vert.E3],
                       y[:, Vert.ETA])
    alpha = y[:, Vert.ALPHA]
    m = _mass_of(y, ctx, VERT_DIM)
    e = ctx.earth
    r = e.re + h
    st, ct = np.sin(th), np.cos(th)

    a12p = e1 * e2 + e3 * eta
    a12m = e1 * e2 - e3 * eta
    a13p = e1 * e3 + e2 * eta
    a23p = e2 * e3 + e1 * eta
    half = 0.5 - e1 ** 2 - e2 ** 2
    grav = v / r - e.mu / (r ** 2 * v)
    cent = 2.0 * r * e.omega ** 2 / v * ct
    transport = 4.0 * v / r * (st / ct) * a12p

    w2 = (-2.0 * grav * a13p
          - 4.0 * e.omega * (st * a12m + ct * a23p)
          - cent * (ct * a13p - st * half)
          - transport * a12m)
    w3 = ((ctx.thrust * np.sin(alpha) + lift) / (m * v)
          + 2.0 * grav * a12m
          - 4.0 * e.omega * (st * a13p + ct * half)
          + cent * (ct * a12m - st * a23p)
          - transport * a13p)
    return w2, w3


def vert_rates(y, u, ctx: PhaseContext):
    """Euler-parameter state rates; u = (u_alpha, w1).

    w1 is the velocity frame's roll rate, which stands in for the bank rate;
    the kinematics keep the quaternion norm for any control.
    """
    lift, drag = aero_env(ctx, y[:, Vert.H], y[:, Vert.V], y[:, Vert.ALPHA])[3:]
    return vert_core(y, u, ctx, lift, drag)


def vert_core(y, u, ctx: PhaseContext, lift, drag):
    """vert_rates on a batch whose lift and drag are already known."""
    u = np.atleast_2d(u)
    h, v, th = y[:, Vert.H], y[:, Vert.V], y[:, Vert.THETA]
    e1, e2, e3, eta = (y[:, Vert.E1], y[:, Vert.E2], y[:, Vert.E3],
                       y[:, Vert.ETA])
    alpha = y[:, Vert.ALPHA]
    m = _mass_of(y, ctx, VERT_DIM)
    e = ctx.earth
    r = e.re + h
    st, ct = np.sin(th), np.cos(th)
    w1 = u[:, 1]
    w2, w3 = _frame_rates(y, ctx, lift)

    sg = 1.0 - 2.0 * (e2 ** 2 + e3 ** 2)
    out = np.empty_like(y)
    out[:, Vert.H] = v * sg
    out[:, Vert.PHI] = 2.0 * v / (r * ct) * (e1 * e2 + e3 * eta)
    out[:, Vert.THETA] = 2.0 * v / r * (e1 * e3 - e2 * eta)
    out[:, Vert.V] = ((ctx.thrust * np.cos(alpha) - drag) / m
                      - e.mu / r ** 2 * sg
                      + r * e.omega ** 2 * ct
                      * (ct * sg - 2.0 * st * (e1 * e3 - e2 * eta)))
    out[:, Vert.E1] = 0.5 * (eta * w1 - e3 * w2 + e2 * w3)
    out[:, Vert.E2] = 0.5 * (e3 * w1 + eta * w2 - e1 * w3)
    out[:, Vert.E3] = 0.5 * (-e2 * w1 + e1 * w2 + eta * w3)
    out[:, Vert.ETA] = -0.5 * (e1 * w1 + e2 * w2 + e3 * w3)
    out[:, Vert.ALPHA] = u[:, 0]
    if y.shape[1] > VERT_DIM:
        out[:, Vert.M] = -ctx.thrust / (ctx.isp * e.g0)
    return out


def _arctan2(y, x):
    """np.arctan2 of the real parts; a complex input's imaginary parts carry
    its first-order change, as numpy's arctan2 takes no complex."""
    angle = np.arctan2(np.real(y), np.real(x))
    if np.iscomplexobj(y) or np.iscomplexobj(x):
        angle = angle + 1j * ((x.real * y.imag - y.real * x.imag)
                              / (x.real ** 2 + y.real ** 2))
    return angle


def quat_to_angles(e1, e2, e3, eta):
    """(gamma, psi, sigma) from Euler parameters; psi/sigma degenerate at
    exactly vertical flight and come back as 0 there."""
    gamma = _arctan2(0.5 - e2 ** 2 - e3 ** 2,
                     np.sqrt((e1 ** 2 + eta ** 2) * (e2 ** 2 + e3 ** 2)))
    psi = _arctan2(e1 * e2 + e3 * eta, e1 * e3 - e2 * eta)
    sigma = _arctan2(-e3 * e1 - e2 * eta, e2 * e1 - e3 * eta)
    return gamma, psi, sigma


def angles_to_quat(gamma, psi, sigma):
    """Euler parameters realizing (gamma, psi, sigma); inverse of
    quat_to_angles up to quaternion sign."""
    a = np.sqrt(np.clip((1.0 + np.sin(gamma)) / 2.0, 0.0, None))
    b = np.sqrt(np.clip((1.0 - np.sin(gamma)) / 2.0, 0.0, None))
    u = (psi - sigma) / 2.0 - np.pi / 4.0
    w = -(psi + sigma) / 2.0 + np.pi / 4.0
    return a * np.cos(u), b * np.cos(w), b * np.sin(w), a * np.sin(u)


def geo_from_vert(y):
    """Map a stack of vertical-flight states to the geodetic layout."""
    gamma, psi, sigma = quat_to_angles(y[:, Vert.E1], y[:, Vert.E2],
                                       y[:, Vert.E3], y[:, Vert.ETA])
    cols = [y[:, Vert.H], y[:, Vert.PHI], y[:, Vert.THETA], y[:, Vert.V],
            gamma, psi, y[:, Vert.ALPHA], sigma]
    if y.shape[1] > VERT_DIM:
        cols.append(y[:, Vert.M])
    return np.column_stack(cols)


def vert_from_geo(y):
    """Map a stack of geodetic states to the vertical-flight layout."""
    e1, e2, e3, eta = angles_to_quat(y[:, Geo.GAMMA], y[:, Geo.PSI],
                                     y[:, Geo.SIGMA])
    cols = [y[:, Geo.H], y[:, Geo.PHI], y[:, Geo.THETA], y[:, Geo.V],
            e1, e2, e3, eta, y[:, Geo.ALPHA]]
    if y.shape[1] > GEO_DIM:
        cols.append(y[:, Geo.M])
    return np.column_stack(cols)
