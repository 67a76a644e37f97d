"""Eight-phase launch-to-entry mission: configuration, assembly, studies.

The flight is modeled as four powered phases (first stage past the tower,
second stage, third stage inside then outside the sensible atmosphere), two
ballistic coast phases split at the peak altitude where the entry vehicle
separates, and two entry phases split where the dynamic pressure first
reaches the level at which bank modulation becomes effective.  Phases 1 and
8 run the Euler-parameter state so near-vertical flight stays regular; the
rest use the geodetic angles.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from operator import attrgetter

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .dynamics import (GEO_DIM, Geo, PhaseContext, Vert, aero_env,
                       geo_core, geo_from_vert, geo_rates, vert_core,
                       vert_from_geo, vert_rates)
from .meshref import RefinementOptions, RefinementReport, refine_loop
from .models import (AeroTable, AtmosphereTable, EarthConstants,
                     extend_entry_aero, load_boost_aero,
                     load_default_atmosphere, load_entry_aero)
from .nlpsolve import SolverOptions
from .pathcost import (CostWeights, HeatingParams, dynamic_pressure,
                       heating_rate, path_quantities, running_cost_geo,
                       running_cost_vert, sensed_load)
from .transcription import (Accumulator, BoundaryConstraint, IntegralTerm,
                            Linkage, MeshPhase, MultiPhaseProblem,
                            PathConstraint, PhaseDef, Solution, transcribe,
                            uniform_mesh)

DEG = math.pi / 180.0
SLACK_BOUND = 1.0e-5

GEO_STATE_NAMES = ("h", "phi", "theta", "v", "gamma", "psi", "alpha", "sigma")
VERT_STATE_NAMES = ("h", "phi", "theta", "v", "e1", "e2", "e3", "eta", "alpha")
GEO_CONTROL_NAMES = ("u_alpha", "u_sigma")
VERT_CONTROL_NAMES = ("u_alpha", "w1", "u1", "u2")


class ConfigError(ValueError):
    """A mission configuration violates its own bookkeeping."""


# --------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class VehicleStage:
    """One booster stage; masses kg, thrust kN, burn s, area m^2, Isp s."""

    name: str
    burn_time: float
    empty_mass: float
    fuel_mass: float
    ref_area: float
    isp: float
    thrust: float

    def __post_init__(self):
        for f in fields(self):
            if f.name != "name" and getattr(self, f.name) <= 0.0:
                raise ConfigError(f"stage {self.name}: {f.name} must be positive")

    @property
    def total_mass(self) -> float:
        return self.empty_mass + self.fuel_mass

    def mass_rate(self, g0: float) -> float:
        """Propellant consumption kg/s for standard gravity g0 in km/s^2."""
        return self.thrust / (self.isp * g0)


@dataclass
class PathLimits:
    # q in kPa, n in g, altitudes km, heating MW/m^2 and MJ/m^2
    q_max: float = 126.3
    q_split: float = 12.0
    n_max: float = 12.0
    h_atm: float = 80.0
    h_peak_lo: float = 100.0
    h_peak_hi: float = 200.0
    qdot_max: float = math.inf
    q_heat_max: float = math.inf


@dataclass
class CostParams:
    alpha_bar_boost: float = 0.0
    alpha_bar_entry: float = 11.86 * DEG
    alpha_max: float = 25.0 * DEG
    u_alpha_max: float = 10.0 * DEG
    u_sigma_max: float = 30.0 * DEG
    k: float = 3.0


@dataclass
class BoundaryData:
    """Endpoint data: km, km/s, rad, kg, s."""

    t0: float = 2.52
    h0: float = 0.167
    lon0: float = -120.63 * DEG
    lat0: float = 34.58 * DEG
    v0: float = 0.040
    m0: float = 85743.0
    hf: float = 0.0
    lonf: float = -192.30 * DEG
    latf: float = 8.70 * DEG
    vf: float = 1.219
    pad_elevation: float = 0.117
    tower_height: float = 0.05


def _default_stages() -> tuple[VehicleStage, VehicleStage, VehicleStage]:
    return (VehicleStage("stage1", 56.4, 3630.0, 45360.0, 4.307, 282.0, 2224.1),
            VehicleStage("stage2", 60.7, 3170.0, 24500.0, 4.307, 309.0, 1222.9),
            VehicleStage("stage3", 72.0, 630.0, 7080.0, 4.307, 300.0, 289.1))


def _default_mesh() -> tuple[tuple[int, int], ...]:
    return ((4, 4), (4, 4), (4, 4), (2, 4),
            (3, 4), (3, 4), (5, 4), (8, 4))


@dataclass
class MissionConfig:
    earth: EarthConstants = field(default_factory=EarthConstants)
    stages: tuple[VehicleStage, ...] = field(default_factory=_default_stages)
    fairing_mass: float = 400.0
    payload_mass: float = 3000.0
    entry_mass: float = 907.186
    entry_area: float = 0.48387
    t_fairing: float = 179.1
    limits: PathLimits = field(default_factory=PathLimits)
    cost: CostParams = field(default_factory=CostParams)
    bc: BoundaryData = field(default_factory=BoundaryData)
    heating: HeatingParams = field(default_factory=HeatingParams)
    mesh: tuple[tuple[int, int], ...] = field(default_factory=_default_mesh)
    mesh_tolerance: float = 1.0e-4
    max_refinements: int = 10
    solver_tolerance: float = 1.0e-6
    solver_max_iterations: int = 500
    guess_apogee: float = 115.0
    atmosphere: str = "builtin"
    boost_aero: object = "builtin"
    entry_aero: object = "builtin"

    # -- derived bookkeeping

    @property
    def t_s1(self) -> float:
        """First-stage separation: the stage burn times run from ignition."""
        return self.stages[0].burn_time

    @property
    def t_s2(self) -> float:
        """Second-stage separation."""
        return self.t_s1 + self.stages[1].burn_time

    @property
    def t_s3(self) -> float:
        """Third-stage burnout."""
        return self.t_s2 + self.stages[2].burn_time

    @property
    def ignition_mass(self) -> float:
        return (sum(s.total_mass for s in self.stages)
                + self.fairing_mass + self.payload_mass)

    @property
    def m_s2(self) -> float:
        """Vehicle mass right after first-stage separation."""
        return (sum(s.total_mass for s in self.stages[1:])
                + self.fairing_mass + self.payload_mass)

    @property
    def m_s3(self) -> float:
        """Vehicle mass right after second-stage separation."""
        return self.stages[2].total_mass + self.fairing_mass + self.payload_mass

    @property
    def coast_mass(self) -> float:
        """Spent third stage plus payload during the ascent coast."""
        return self.stages[2].empty_mass + self.payload_mass

    def validate(self) -> None:
        """Each field's own range rule (its `CONFIG_FIELDS` row), the mesh
        rule, then the bookkeeping that ties fields together."""
        bad: list[str] = []
        if len(self.stages) != 3:
            raise ConfigError("exactly three booster stages are required")
        for f in CONFIG_FIELDS:
            f.check(attrgetter(f.attr)(self))
        check_mesh(self.mesh, 8)
        if not 0.0 < self.bc.t0 < self.t_s1 < self.t_s2 < self.t_fairing < self.t_s3:
            bad.append("staging times must satisfy t0 < t_s1 < t_s2 < t_fairing < t_s3")
        for s in self.stages:
            ideal = s.thrust * s.burn_time / (s.isp * self.earth.g0)
            if abs(ideal - s.fuel_mass) > 0.01 * s.fuel_mass:
                bad.append(f"{s.name} fuel load {s.fuel_mass} is inconsistent "
                           f"with thrust*burn/(Isp*g0) = {ideal:.1f}")
        for label, v in (("fairing_mass", self.fairing_mass),
                         ("payload_mass", self.payload_mass),
                         ("entry_mass", self.entry_mass),
                         ("entry_area", self.entry_area)):
            if v <= 0.0:
                bad.append(f"{label} must be positive")
        if self.entry_mass >= self.payload_mass:
            bad.append("entry vehicle must be lighter than the payload stack")
        lm = self.limits
        if not 0.0 < lm.q_split < lm.q_max:
            bad.append("need 0 < q_split < q_max")
        if lm.n_max <= 0.0 or lm.h_atm <= 0.0:
            bad.append("n_max and h_atm must be positive")
        if not lm.h_atm <= lm.h_peak_lo < lm.h_peak_hi:
            bad.append("peak altitude window must sit above the atmosphere edge")
        c = self.cost
        if min(c.alpha_max, c.u_alpha_max, c.u_sigma_max) <= 0.0 or c.k <= 0.0:
            bad.append("cost normalizations and k must be positive")
        if not 0.0 < self.bc.v0 < 1.0 or self.bc.m0 <= 0.0:
            bad.append("initial speed/mass out of range")
        if self.bc.m0 > self.ignition_mass:
            bad.append("initial mass exceeds the ignition mass budget")
        if not self.guess_apogee >= lm.h_peak_lo:
            bad.append("guess apogee must sit inside the peak window")
        if bad:
            raise ConfigError("; ".join(bad))

    # -- serialization

    def to_dict(self) -> dict:
        out: dict = {"problem": "mission"}
        for f in CONFIG_FIELDS:
            value = f.dump(attrgetter(f.attr)(self))
            if f.key is None:
                out[f.section] = value
            else:
                out.setdefault(f.section, {})[f.key] = value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "MissionConfig":
        """Defaults overridden by the sections given (see `load_fields`);
        the "sweep" section is left to `load_sweep`."""
        top: dict = {}
        nested: dict[str, dict] = {}
        for attr, value in load_fields(data, _SECTIONS | {"sweep"}).items():
            head, _, leaf = attr.rpartition(".")
            (nested.setdefault(head, {}) if head else top)[leaf] = value
        base = cls()
        for head, values in nested.items():
            top[head] = replace(getattr(base, head), **values)
        cfg = replace(base, **top)
        cfg.validate()
        return cfg


# --------------------------------------------------------------------------
# config file format


def _number(x, where: str) -> float:
    """A JSON number: a boolean or a string is not one, even "12"."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ConfigError(f"{where} must be a number, got {x!r}")
    v = float(x)
    if not math.isfinite(v):
        raise ConfigError(f"{where} must be finite, got {x!r}")
    return v


def _count(x, where: str) -> int:
    v = _number(x, where)
    if not v.is_integer():
        raise ConfigError(f"{where} must be a whole number, got {x!r}")
    return int(v)


def _load_stages(x, where: str) -> tuple[VehicleStage, ...]:
    if not isinstance(x, list):
        raise ConfigError(f"{where} must be a list of stage objects")
    names = [g.name for g in fields(VehicleStage)]
    stages = []
    for i, s in enumerate(x):
        at = f"{where}[{i}]"
        if not isinstance(s, dict) or sorted(s) != sorted(names):
            raise ConfigError(f"{at} must be an object with exactly the keys "
                              f"{', '.join(names)}")
        if not isinstance(s["name"], str):
            raise ConfigError(f"{at}.name must be a string, "
                              f"got {s['name']!r}")
        stages.append(VehicleStage(s["name"],
                                   *(_number(s[n], f"{at}.{n}")
                                     for n in names[1:])))
    return tuple(stages)


def _load_mesh(x, where: str) -> tuple[tuple[int, int], ...]:
    if not isinstance(x, list):
        raise ConfigError(f"{where} must be a list of [intervals, degree]")
    mesh = []
    for i, entry in enumerate(x):
        at = f"{where}[{i}]"
        if not isinstance(entry, list) or len(entry) != 2:
            raise ConfigError(f"{at} must be an [intervals, degree] pair")
        mesh.append((_count(entry[0], at), _count(entry[1], at)))
    return tuple(mesh)


@dataclass(frozen=True)
class ConfigField:
    """One entry of the config file: `key` of JSON `section` holds the
    MissionConfig attribute at dotted path `attr`, divided by `unit`.

    kind "number" is a finite float, "limit" a positive bound written as
    null when infinite, "count" a whole number, "raw" any JSON value kept as
    given; "stages" and "mesh" fill a whole section (key None) with a list.
    `option` names the SolverOptions or RefinementOptions field whose
    constructor owns the value's range."""

    section: str
    key: str | None
    attr: str
    unit: float = 1.0
    kind: str = "number"
    option: tuple | None = None

    @property
    def where(self) -> str:
        return self.section if self.key is None else f"{self.section}.{self.key}"

    def load(self, x, where: str | None = None):
        where = where or self.where
        if self.kind == "stages":
            return _load_stages(x, where)
        if self.kind == "mesh":
            return _load_mesh(x, where)
        if self.kind == "raw":
            return x
        if self.kind == "count":
            v = _count(x, where)
        elif self.kind == "limit" and x is None:
            v = math.inf
        else:
            v = _number(x, where) * self.unit
        self.check(v, where)
        return v

    def check(self, v, where: str | None = None) -> None:
        """The value's range rule, if the row has one."""
        where = where or self.where
        if self.kind == "limit" and not v > 0.0:
            raise ConfigError(f"{where} must be positive (null lifts it), "
                              f"got {v!r}")
        if self.option is not None:
            owner, name = self.option
            try:
                owner(**{name: v})
            except ValueError as exc:
                raise ConfigError(f"{where}: {exc}") from None

    def dump(self, v):
        if self.kind == "stages":
            return [{g.name: getattr(s, g.name) for g in fields(VehicleStage)}
                    for s in v]
        if self.kind == "mesh":
            return [list(e) for e in v]
        if self.kind in ("raw", "count"):
            return v
        if self.kind == "limit" and math.isinf(v):
            return None
        return v / self.unit


CONFIG_FIELDS = (
    ConfigField("earth", "mu", "earth.mu"),
    ConfigField("earth", "re", "earth.re"),
    ConfigField("earth", "omega", "earth.omega"),
    ConfigField("earth", "g0", "earth.g0"),
    ConfigField("stages", None, "stages", kind="stages"),
    ConfigField("vehicle", "fairing_mass", "fairing_mass"),
    ConfigField("vehicle", "payload_mass", "payload_mass"),
    ConfigField("vehicle", "entry_mass", "entry_mass"),
    ConfigField("vehicle", "entry_area", "entry_area"),
    ConfigField("times", "t_fairing", "t_fairing"),
    ConfigField("limits", "q_max", "limits.q_max"),
    ConfigField("limits", "q_split", "limits.q_split"),
    ConfigField("limits", "n_max", "limits.n_max"),
    ConfigField("limits", "h_atm", "limits.h_atm"),
    ConfigField("limits", "h_peak_lo", "limits.h_peak_lo"),
    ConfigField("limits", "h_peak_hi", "limits.h_peak_hi"),
    ConfigField("limits", "qdot_max", "limits.qdot_max", kind="limit"),
    ConfigField("limits", "q_heat_max", "limits.q_heat_max", kind="limit"),
    ConfigField("cost", "alpha_bar_boost_deg", "cost.alpha_bar_boost", DEG),
    ConfigField("cost", "alpha_bar_entry_deg", "cost.alpha_bar_entry", DEG),
    ConfigField("cost", "alpha_max_deg", "cost.alpha_max", DEG),
    ConfigField("cost", "u_alpha_max_deg", "cost.u_alpha_max", DEG),
    ConfigField("cost", "u_sigma_max_deg", "cost.u_sigma_max", DEG),
    ConfigField("cost", "k", "cost.k"),
    ConfigField("boundary", "t0", "bc.t0"),
    ConfigField("boundary", "h0", "bc.h0"),
    ConfigField("boundary", "lon0_deg", "bc.lon0", DEG),
    ConfigField("boundary", "lat0_deg", "bc.lat0", DEG),
    ConfigField("boundary", "v0", "bc.v0"),
    ConfigField("boundary", "m0", "bc.m0"),
    ConfigField("boundary", "hf", "bc.hf"),
    ConfigField("boundary", "lonf_deg", "bc.lonf", DEG),
    ConfigField("boundary", "latf_deg", "bc.latf", DEG),
    ConfigField("boundary", "vf", "bc.vf"),
    ConfigField("boundary", "pad_elevation", "bc.pad_elevation"),
    ConfigField("boundary", "tower_height", "bc.tower_height"),
    ConfigField("heating", "kappa", "heating.kappa"),
    ConfigField("heating", "rho0", "heating.rho0"),
    ConfigField("heating", "v_circ", "heating.v_circ"),
    ConfigField("heating", "exp_rho", "heating.exp_rho"),
    ConfigField("heating", "exp_v", "heating.exp_v"),
    ConfigField("mesh", None, "mesh", kind="mesh"),
    ConfigField("refinement", "tolerance", "mesh_tolerance",
                option=(RefinementOptions, "mesh_tolerance")),
    ConfigField("refinement", "max_refinements", "max_refinements",
                kind="count", option=(RefinementOptions, "max_refinements")),
    ConfigField("solver", "tolerance", "solver_tolerance",
                option=(SolverOptions, "tolerance")),
    ConfigField("solver", "max_iterations", "solver_max_iterations",
                kind="count", option=(SolverOptions, "max_iterations")),
    ConfigField("guess", "apogee", "guess_apogee"),
    ConfigField("tables", "atmosphere", "atmosphere", kind="raw"),
    ConfigField("tables", "boost_aero", "boost_aero", kind="raw"),
    ConfigField("tables", "entry_aero", "entry_aero", kind="raw"),
)
_ROWS = {(f.section, f.key): f for f in CONFIG_FIELDS}
_SECTIONS = {f.section for f in CONFIG_FIELDS}


def load_fields(data: dict, sections) -> dict:
    """{MissionConfig attribute path: value} for every key `data` gives,
    each loaded by its `CONFIG_FIELDS` row.  A section outside `sections`
    (besides "problem") or an unknown key is rejected; "problem" and
    "sweep" are left to the caller."""
    for section in data:
        if section != "problem" and section not in sections:
            raise ConfigError(f"unknown config section {section!r}")
    values = {}
    for section, body in data.items():
        if section not in _SECTIONS:
            continue
        whole = _ROWS.get((section, None))
        if whole is not None:
            values[whole.attr] = whole.load(body)
            continue
        if not isinstance(body, dict):
            raise ConfigError(f"config section {section!r} must be an object")
        for key in body:
            if (section, key) not in _ROWS:
                raise ConfigError(f"unknown key {key!r} in config section "
                                  f"{section!r}")
        for key, x in body.items():
            values[_ROWS[section, key].attr] = _ROWS[section, key].load(x)
    return values


def load_sweep(section) -> dict[str, list[float]]:
    """The "sweep" section: non-empty lists of heating limits, each value
    loaded by its `limits` row (null lifts the limit)."""
    if not isinstance(section, dict):
        raise ConfigError("config section 'sweep' must be an object")
    sweep = {}
    for key, values in section.items():
        row = _ROWS.get(("limits", key))
        if row is None or row.kind != "limit":
            raise ConfigError(f"unknown key {key!r} in config section 'sweep'")
        if not isinstance(values, list) or not values:
            raise ConfigError(f"sweep.{key} must be a non-empty list")
        sweep[key] = [row.load(v, f"sweep.{key}") for v in values]
    return sweep


def check_mesh(mesh, n_phases: int) -> None:
    """The mesh rule of every problem: one [intervals, degree] pair per
    phase, intervals at least 1 and degree 1-40."""
    if len(mesh) != n_phases or any(n < 1 or not 1 <= d <= 40
                                    for n, d in mesh):
        raise ConfigError("mesh must list one [intervals >= 1, degree 1-40] "
                          "pair per phase")


def default_config() -> MissionConfig:
    cfg = MissionConfig()
    cfg.validate()
    return cfg


# --------------------------------------------------------------------------
# tower clearance


@dataclass(frozen=True)
class TowerClear:
    """Ignition-to-tower-top bookkeeping from the vertical-rise closed form."""

    time: float
    speed: float
    mass: float
    altitude: float


def tower_clear_propagate(config: MissionConfig) -> TowerClear:
    """Integrate the vertical rise hdd = T/m - g0 from rest at the pad and
    report the crossing of the tower top.  Thrust must beat pad weight."""
    s1 = config.stages[0]
    g0 = config.earth.g0
    m0 = config.ignition_mass
    mdot = s1.mass_rate(g0)
    ve = s1.isp * g0
    if s1.thrust <= m0 * g0:
        raise ConfigError("thrust does not exceed the pad weight; "
                          "the vehicle cannot lift off")

    def gain(t):
        m = m0 - mdot * t
        return ve * (t - m / mdot * math.log(m0 / m)) - 0.5 * g0 * t * t

    target = config.bc.tower_height
    hi = min(s1.burn_time, 0.98 * m0 / mdot)
    if gain(hi) < target:
        raise ConfigError("vehicle does not clear the tower within the burn")
    t = brentq(lambda x: gain(x) - target, 1.0e-9, hi, xtol=1.0e-12)
    m = m0 - mdot * t
    v = ve * math.log(m0 / m) - g0 * t
    return TowerClear(time=t, speed=v, mass=m,
                      altitude=config.bc.pad_elevation + target)


# --------------------------------------------------------------------------
# phase assembly


def resolve_tables(config: MissionConfig):
    """(atmosphere, boost aero, entry aero) honoring file overrides: a CSV
    path for the atmosphere, a [cl, cd] pair of CSV paths for each aero
    table.  A table that cannot be read is a ConfigError naming its key."""
    def load(key, builtin, read):
        value = getattr(config, key)
        if value == "builtin":
            return builtin()
        try:
            return read(value)
        except (OSError, TypeError, ValueError) as exc:
            raise ConfigError(f"tables.{key}: cannot load {value!r}: "
                              f"{exc}") from None

    return (load("atmosphere", load_default_atmosphere, AtmosphereTable.from_csv),
            load("boost_aero", load_boost_aero,
                 lambda v: AeroTable.from_csv(*v)),
            load("entry_aero", load_entry_aero,
                 lambda v: extend_entry_aero(AeroTable.from_csv(*v))))


def phase_contexts(config: MissionConfig) -> list[PhaseContext]:
    atm, boost, entry = resolve_tables(config)
    e = config.earth
    s1, s2, s3 = config.stages
    return [
        PhaseContext(e, s1.thrust, s1.isp, s1.ref_area, boost, atm),
        PhaseContext(e, s2.thrust, s2.isp, s2.ref_area, boost, atm),
        PhaseContext(e, s3.thrust, s3.isp, s3.ref_area, boost, atm),
        PhaseContext(e, s3.thrust, s3.isp, s3.ref_area),  # above the air
        PhaseContext(e, fixed_mass=config.coast_mass),
        PhaseContext(e, fixed_mass=config.entry_mass),
        PhaseContext(e, ref_area=config.entry_area, aero=entry, atmosphere=atm,
                     fixed_mass=config.entry_mass),
        PhaseContext(e, ref_area=config.entry_area, aero=entry, atmosphere=atm,
                     fixed_mass=config.entry_mass),
    ]


def _free(n):
    return np.full(n, -np.inf), np.full(n, np.inf)


def _pins(n, pairs):
    lo, hi = _free(n)
    for idx, a, b in pairs:
        lo[idx], hi[idx] = a, b
    return lo, hi


def build_mission(config: MissionConfig) -> MultiPhaseProblem:
    config.validate()
    ctx = phase_contexts(config)
    lm, cw, bc = config.limits, config.cost, config.bc
    hp = config.heating
    t1, t2, t3, t4 = config.t_s1, config.t_s2, config.t_fairing, config.t_s3

    w_boost = CostWeights(cw.alpha_bar_boost, cw.alpha_max,
                          cw.u_alpha_max, cw.u_sigma_max)
    w_coast = replace(w_boost, include_alpha=False)
    w_glide = replace(w_boost, alpha_bar=cw.alpha_bar_entry)
    w_dive = replace(w_glide, k=cw.k)

    u_geo = np.array([cw.u_alpha_max, cw.u_sigma_max])
    u_vert_lo = np.array([-cw.u_alpha_max, -cw.u_sigma_max,
                          -SLACK_BOUND, -SLACK_BOUND])
    u_vert_hi = -u_vert_lo

    def node(c, core, acol, outputs=()):
        """A phase's node callback: the rates, then one column per name in
        outputs, q (kPa), n (g) or qdot (MW/m^2), all from one aero_env
        call; h and v are columns 0 and 3 of either state."""
        def f(X, U):
            rho, _, q, lift, drag = aero_env(c, X[:, 0], X[:, 3], X[:, acol])
            cols = {"q": q}
            if "n" in outputs:
                cols["n"] = sensed_load(lift, drag, c.fixed_mass, c.earth.g0)
            if "qdot" in outputs:
                cols["qdot"] = heating_rate(rho, X[:, 3], hp)
            return np.column_stack([core(X, U, c, lift, drag)]
                                   + [cols[k] for k in outputs])
        return f

    # the entry phases' heating limit, when set, and their node outputs:
    # the load, the pressure, the heating rate per path row, then the
    # heat-load integrand
    heat_row = ([PathConstraint("qdot_max", -np.inf, lm.qdot_max)]
                if math.isfinite(lm.qdot_max) else [])
    entry_outputs = ("n", "q") + ("qdot",) * len(heat_row) + ("qdot",)

    def geo_cost(w):
        return lambda X, U: running_cost_geo(X, U, w)

    def vert_cost(w):
        return lambda X, U: running_cost_vert(X, U, w)

    phases = []

    # phase 1: first stage, Euler parameters, mass flowing
    x_lo, x_hi = (np.array([0.05, -3.6, 0.05, 0.005, -1.001, -1.001, -1.001,
                            -1.001, -cw.alpha_max, 0.4 * bc.m0]),
                  np.array([90.0, -1.8, 0.75, 3.5, 1.001, 1.001, 1.001,
                            1.001, cw.alpha_max, 1.1 * bc.m0]))
    x0_lo, x0_hi = _pins(10, [(0, bc.h0, bc.h0), (1, bc.lon0, bc.lon0),
                              (2, bc.lat0, bc.lat0), (3, bc.v0, bc.v0),
                              (4, 0.0, 0.0), (5, 0.0, 0.0), (6, 0.0, 0.0),
                              (7, 1.0, 1.0), (8, 0.0, 0.0),
                              (9, bc.m0, bc.m0)])
    phases.append(PhaseDef(
        "boost1", 10, 4, node(ctx[0], vert_core, Vert.ALPHA, ("q",)),
        x_lo, x_hi, u_vert_lo, u_vert_hi, bc.t0, bc.t0, t1, t1,
        x0_lo=x0_lo, x0_hi=x0_hi,
        path=[PathConstraint("q_max", -np.inf, lm.q_max)],
        cost=vert_cost(w_boost),
        state_names=VERT_STATE_NAMES + ("m",), control_names=VERT_CONTROL_NAMES))

    # phases 2-3: upper stages in the atmosphere, geodetic angles
    geo_lo = np.array([5.0, -3.6, 0.05, 0.3, -1.5690, -3.3, -cw.alpha_max,
                       -math.pi])
    geo_hi = np.array([160.0, -1.8, 0.75, 6.5, 1.5690, 0.5, cw.alpha_max,
                       math.pi])
    for name, p, span, mpin, m_lo, m_hi in (
            ("boost2", 1, (t1, t2), config.m_s2, 13000.0, 39000.0),
            ("boost3", 2, (t2, t3), config.m_s3, 4400.0, 11200.0)):
        x_lo = np.append(geo_lo, m_lo)
        x_hi = np.append(geo_hi, m_hi)
        if name == "boost3":
            x_lo[0], x_hi[0], x_hi[3] = 20.0, 220.0, 8.5
        x0_lo, x0_hi = _pins(9, [(8, mpin, mpin)])
        phases.append(PhaseDef(
            name, 9, 2, node(ctx[p], geo_core, Geo.ALPHA),
            x_lo, x_hi, -u_geo, u_geo, span[0], span[0], span[1], span[1],
            x0_lo=x0_lo, x0_hi=x0_hi, cost=geo_cost(w_boost),
            state_names=GEO_STATE_NAMES + ("m",),
            control_names=GEO_CONTROL_NAMES))

    # phase 4: third stage above the sensible atmosphere
    x_lo = np.array([lm.h_atm, -3.6, 0.05, 5.0, -1.5690, -3.3, -cw.alpha_max,
                     -math.pi, 3400.0])
    x_hi = np.array([230.0, -1.8, 0.75, 9.0, 1.5690, 0.5, cw.alpha_max,
                     math.pi, 4800.0])
    phases.append(PhaseDef(
        "exo_burn", 9, 2, node(ctx[3], geo_core, Geo.ALPHA),
        x_lo, x_hi, -u_geo, u_geo, t3, t3, t4, t4, cost=geo_cost(w_boost),
        state_names=GEO_STATE_NAMES + ("m",), control_names=GEO_CONTROL_NAMES))

    # phase 5: coast up to the peak, payload still attached
    coast_lo = np.array([lm.h_atm, -3.6, 0.05, 4.0, -1.5690, -3.3,
                         -0.5 * math.pi, -math.pi])
    coast_hi = np.array([lm.h_peak_hi + 30.0, -1.8, 0.75, 9.0, 1.5690, 0.5,
                         0.5 * math.pi, math.pi])
    xf_lo, xf_hi = _pins(8, [(0, lm.h_peak_lo, lm.h_peak_hi),
                             (4, 0.0, 0.0), (6, 0.0, 0.0), (7, 0.0, 0.0)])
    phases.append(PhaseDef(
        "coast_up", 8, 2, node(ctx[4], geo_core, Geo.ALPHA),
        coast_lo, coast_hi, -u_geo, u_geo, t4, t4, t4 + 10.0, 2600.0,
        xf_lo=xf_lo, xf_hi=xf_hi, cost=geo_cost(w_coast), min_duration=5.0,
        state_names=GEO_STATE_NAMES, control_names=GEO_CONTROL_NAMES))

    # phase 6: entry vehicle coasts down to the atmosphere edge
    x0_lo, x0_hi = _pins(8, [(0, lm.h_peak_lo, lm.h_peak_hi),
                             (4, 0.0, 0.0), (6, 0.0, 0.0), (7, 0.0, 0.0)])
    xf_lo, xf_hi = _pins(8, [(0, lm.h_atm, lm.h_atm)])
    phases.append(PhaseDef(
        "coast_down", 8, 2, node(ctx[5], geo_core, Geo.ALPHA),
        coast_lo, coast_hi, -u_geo, u_geo, t4 + 10.0, 2600.0, t4 + 20.0, 4200.0,
        x0_lo=x0_lo, x0_hi=x0_hi, xf_lo=xf_lo, xf_hi=xf_hi,
        cost=geo_cost(w_coast), min_duration=5.0,
        state_names=GEO_STATE_NAMES, control_names=GEO_CONTROL_NAMES))

    # phase 7: thin-air glide down to the bank-effectiveness boundary
    x_lo = np.array([40.0, -3.6, 0.05, 4.5, -1.5690, -3.3, 0.0, -math.pi])
    x_hi = np.array([lm.h_atm + 1.0, -1.8, 0.75, 8.5, 0.35, 0.5,
                     cw.alpha_max, math.pi])
    x0_lo, x0_hi = _pins(8, [(0, lm.h_atm, lm.h_atm)])
    phases.append(PhaseDef(
        "entry_glide", 8, 2, node(ctx[6], geo_core, Geo.ALPHA, entry_outputs),
        x_lo, x_hi, -u_geo, u_geo, t4 + 20.0, 4200.0, t4 + 30.0, 6500.0,
        x0_lo=x0_lo, x0_hi=x0_hi,
        path=[PathConstraint("n_max", -np.inf, lm.n_max),
              PathConstraint("q_split", -np.inf, lm.q_split)] + heat_row,
        integrands=[IntegralTerm("heat_load")],
        cost=geo_cost(w_glide), min_duration=5.0,
        state_names=GEO_STATE_NAMES, control_names=GEO_CONTROL_NAMES))

    # phase 8: dense-air descent, Euler parameters, terminal target
    x_lo = np.array([-0.01, -3.6, 0.05, 0.3, -1.001, -1.001, -1.001, -1.001,
                     0.0])
    x_hi = np.array([70.0, -1.8, 0.75, 8.5, 1.001, 1.001, 1.001, 1.001,
                     cw.alpha_max])
    xf_lo, xf_hi = _pins(9, [(0, bc.hf, bc.hf), (1, bc.lonf, bc.lonf),
                             (2, bc.latf, bc.latf), (3, bc.vf, bc.vf),
                             (4, 0.0, 0.0), (7, 0.0, 0.0), (8, 0.0, 0.0)])
    phases.append(PhaseDef(
        "entry_dive", 9, 4, node(ctx[7], vert_core, Vert.ALPHA, entry_outputs),
        x_lo, x_hi, u_vert_lo, u_vert_hi, t4 + 30.0, 6500.0, t4 + 60.0, 9000.0,
        xf_lo=xf_lo, xf_hi=xf_hi,
        path=[PathConstraint("n_max", -np.inf, lm.n_max),
              PathConstraint("q_floor", lm.q_split, np.inf)] + heat_row,
        integrands=[IntegralTerm("heat_load")],
        cost=vert_cost(w_dive), min_duration=30.0,
        state_names=VERT_STATE_NAMES, control_names=VERT_CONTROL_NAMES))

    # linkages, on stacks of endpoint pairs; channels pinned on both sides
    # of a boundary are dropped so the constraint block keeps full row rank
    fm = config.fairing_mass

    def stage1_handoff(xa, ta, xb, tb):
        return geo_from_vert(xa)[:, :GEO_DIM] - xb[:, :GEO_DIM]

    def geo_handoff(xa, ta, xb, tb):
        return xa[:, :GEO_DIM] - xb[:, :GEO_DIM]

    def fairing_jettison(xa, ta, xb, tb):
        return np.column_stack([xa[:, :GEO_DIM] - xb[:, :GEO_DIM],
                                xb[:, 8] - (xa[:, 8] - fm)])

    sep_keep = np.array([Geo.H, Geo.PHI, Geo.THETA, Geo.V, Geo.PSI])

    def payload_separation(xa, ta, xb, tb):
        return np.column_stack([xa[:, sep_keep] - xb[:, sep_keep], tb - ta])

    pierce_keep = np.array([Geo.PHI, Geo.THETA, Geo.V, Geo.GAMMA, Geo.PSI,
                            Geo.ALPHA, Geo.SIGMA])

    def atmosphere_pierce(xa, ta, xb, tb):
        return np.column_stack([xa[:, pierce_keep] - xb[:, pierce_keep],
                                tb - ta])

    def vertical_handoff(xa, ta, xb, tb):
        return np.column_stack([xa[:, :GEO_DIM] - geo_from_vert(xb)[:, :GEO_DIM],
                                tb - ta])

    def link(name, a, b, f, n):
        return Linkage(name, a, b, f, np.zeros(n), np.zeros(n))

    linkages = [link("stage1_sep", 0, 1, stage1_handoff, 8),
                link("stage2_sep", 1, 2, geo_handoff, 8),
                link("fairing_drop", 2, 3, fairing_jettison, 9),
                link("burnout", 3, 4, geo_handoff, 8),
                link("payload_sep", 4, 5, payload_separation, 6),
                link("pierce", 5, 6, atmosphere_pierce, 8),
                link("bank_to_vertical", 6, 7, vertical_handoff, 9)]

    def unit_quat(x0, xf, t0, tf):
        return (x0[:, Vert.E1] ** 2 + x0[:, Vert.E2] ** 2 + x0[:, Vert.E3] ** 2
                + x0[:, Vert.ETA] ** 2 - 1.0)[:, None]

    boundaries = [BoundaryConstraint("dive_unit_quat", 7, unit_quat, 0.0, 0.0)]
    accumulators = [Accumulator("heat_load", 0.0, lm.q_heat_max)]
    return MultiPhaseProblem(phases, linkages, boundaries, accumulators)


def default_meshes(config: MissionConfig) -> list[MeshPhase]:
    return [uniform_mesh(n, d) for n, d in config.mesh]


# --------------------------------------------------------------------------
# initial guess


def _reset(y, mass):
    y = y.copy()
    y[Geo.M] = mass
    return y


def _propagate_ascent(config: MissionConfig, ctx, kick: float,
                      psi0: float) -> dict:
    """Zero-incidence ascent from the tower with a small pitch kick.

    Returns the per-segment dense interpolants plus the apogee and pierce
    events of the ballistic arc; segments are keyed by phase index.
    """
    bc = config.bc
    y0 = np.array([bc.h0, bc.lon0, bc.lat0, bc.v0, 0.5 * math.pi - kick,
                   psi0, 0.0, 0.0, bc.m0])
    u0 = np.zeros(2)
    segs: dict[int, object] = {}

    def rhs(c):
        return lambda t, y: geo_rates(y[None], u0, c)[0]

    spans = [(bc.t0, config.t_s1), (config.t_s1, config.t_s2),
             (config.t_s2, config.t_fairing), (config.t_fairing, config.t_s3)]
    y = y0
    for p, (a, b) in enumerate(spans):
        if p == 1:
            y = _reset(y, config.m_s2)
        elif p == 2:
            y = _reset(y, config.m_s3)
        elif p == 3:
            y = _reset(y, y[Geo.M] - config.fairing_mass)
        out = solve_ivp(rhs(ctx[p]), (a, b), y, method="RK45", rtol=1.0e-8,
                        atol=1.0e-8, dense_output=True)
        if not out.success:
            raise RuntimeError(f"ascent guess integration failed: {out.message}")
        segs[p] = out
        y = out.y[:, -1]

    coast = y[:GEO_DIM].copy()

    def apogee_ev(t, y):
        return y[Geo.GAMMA]
    apogee_ev.terminal = True
    apogee_ev.direction = -1.0

    def ground_ev(t, y):
        return y[Geo.H]
    ground_ev.terminal = True
    ground_ev.direction = -1.0

    out5 = solve_ivp(rhs(ctx[4]), (config.t_s3, config.t_s3 + 4000.0), coast,
                     method="RK45", rtol=1.0e-8, atol=1.0e-8,
                     dense_output=True, events=[apogee_ev, ground_ev])
    if not out5.success:
        raise RuntimeError(f"coast guess integration failed: {out5.message}")
    if out5.t_events[0].size == 0:
        # over-kicked: the path noses over during the burn already
        return {"segs": segs, "apogee": float(np.max(out5.y[Geo.H])),
                "complete": False}
    t_apo = float(out5.t_events[0][0])
    y_apo = out5.y_events[0][0]
    if y_apo[Geo.H] <= config.limits.h_atm + 1.0:
        # arc tops out inside the atmosphere; report it for the calibrator
        return {"segs": segs, "apogee": float(y_apo[Geo.H]),
                "complete": False}
    segs[4] = out5

    def pierce_ev(t, y):
        return y[Geo.H] - config.limits.h_atm
    pierce_ev.terminal = True
    pierce_ev.direction = -1.0

    out6 = solve_ivp(rhs(ctx[5]), (t_apo, t_apo + 5000.0), y_apo,
                     method="RK45", rtol=1.0e-8, atol=1.0e-8,
                     dense_output=True, events=pierce_ev)
    if not out6.success or out6.t_events[0].size == 0:
        raise RuntimeError("ballistic arc never returns to the atmosphere edge")
    segs[5] = out6
    return {"segs": segs, "apogee": float(y_apo[Geo.H]), "complete": True,
            "t_apo": t_apo, "y_apo": y_apo,
            "t_pierce": float(out6.t_events[0][0]),
            "y_pierce": out6.y_events[0][0]}


def _bearing(lon0, lat0, lon1, lat1) -> float:
    """Great-circle initial bearing, flight-path heading convention
    (0 = north, positive east)."""
    dlon = lon1 - lon0
    y = math.sin(dlon) * math.cos(lat1)
    x = (math.cos(lat0) * math.sin(lat1)
         - math.sin(lat0) * math.cos(lat1) * math.cos(dlon))
    return math.atan2(y, x)


def _wrap_pi(x: float) -> float:
    return (x + math.pi) % (2.0 * math.pi) - math.pi


def _launch_azimuth(bc: BoundaryData) -> float:
    return _bearing(bc.lon0, bc.lat0, bc.lonf, bc.latf)


def calibrate_kick(config: MissionConfig, ctx=None,
                   psi0=None) -> tuple[float, dict]:
    """Pitch-over kick angle whose gravity turn peaks near guess_apogee,
    with the ascent propagated from it.

    Each kick is propagated once: brentq evaluates the bracket ends again,
    and returns its latest kick or the latest one on the other side of the
    target, so the arc of the latest kick on each side is kept and the
    root's arc is taken from it.  A root found in neither is propagated
    again.
    """
    ctx = ctx or phase_contexts(config)
    psi0 = _launch_azimuth(config.bc) if psi0 is None else psi0
    target = config.guess_apogee
    misses, arcs = {}, {}           # arcs: (kick, arc) by side of target

    def apogee(kick):
        if kick not in misses:
            arc = _propagate_ascent(config, ctx, kick, psi0)
            misses[kick] = arc["apogee"] - target
            arcs[misses[kick] < 0.0] = kick, arc
        return misses[kick]

    lo, hi = 0.2 * DEG, 12.0 * DEG
    flo = apogee(lo)
    if flo < 0.0:
        raise RuntimeError("even a minimal pitch kick under-lofts the arc")
    fhi = apogee(hi)
    while fhi > 0.0 and hi < 40.0 * DEG:
        hi *= 1.5
        fhi = apogee(hi)
    if fhi > 0.0:
        raise RuntimeError("pitch kick calibration failed to bracket the apogee")
    kick = brentq(apogee, lo, hi, xtol=1.0e-5)
    for root, arc in arcs.values():
        if root == kick:
            return kick, arc
    return kick, _propagate_ascent(config, ctx, kick, psi0)


def _entry_profile(config: MissionConfig, ctx: PhaseContext, y_pierce,
                   t_pierce):
    """Entry arc propagated with the glide-phase dynamics under a feedback
    steering law: incidence from inverting the lift needed to track a
    reference slope tied to the nominal glide pressure, bank held off until
    the pull-out completes and then weaving the heading to spend the range
    surplus, everything released once the speed is spent.  The arc is split
    at the first upward crossing of the bank-effectiveness pressure level,
    so the capture dip and the dense glide both land in the final phase."""
    bc, lm, cw = config.bc, config.limits, config.cost
    e = ctx.earth
    m = ctx.fixed_mass
    dt = 1.0
    y = np.array(y_pierce[:GEO_DIM], dtype=float)
    y[Geo.ALPHA] = min(max(y[Geo.ALPHA], 0.0), cw.alpha_max)
    mode = {"sign": 1.0, "captured": False}
    ab = cw.alpha_bar_entry
    q_nom = 30.0

    def law(y):
        v, gamma = float(y[Geo.V]), float(y[Geo.GAMMA])
        if v <= 1.35:
            # spent: drop the lift and fall out ballistically
            return 0.0, 0.0
        h = float(y[Geo.H])
        rho, a = ctx.atmosphere.lookup(y[[Geo.H]])
        q = dynamic_pressure(rho, y[[Geo.V]])[0]
        cl, cd = ctx.aero.lookup(np.array([ab / DEG]), y[[Geo.V]] / a)
        cl_trim, cd_trim = cl[0], cd[0]
        r = e.re + h
        grav = e.mu / (r * r)
        if gamma > -1.2 * DEG:
            mode["captured"] = True
        togo = r * math.acos(np.clip(
            math.sin(y[Geo.THETA]) * math.sin(bc.latf)
            + math.cos(y[Geo.THETA]) * math.cos(bc.latf)
            * math.cos(bc.lonf - y[Geo.PHI]), -1.0, 1.0))
        # vertical: invert the lift that steers the slope toward a reference
        # tied to the nominal glide pressure; the climb side of the reference
        # is kept soft so the pull-out cannot float back out of dense air
        gamma_ref = float(np.clip(0.026 * math.log(max(q, 1e-3) / q_nom),
                                  -0.045, 0.008))
        need = m * ((grav - v * v / r) * math.cos(gamma)
                    + v * (gamma_ref - gamma) / 40.0)
        cl_slope = max(float(cl_trim), 0.05) / ab
        cos_bank = max(math.cos(float(y[Geo.SIGMA])), 0.3)
        cl_req = need / (max(q, 0.2) * ctx.ref_area * cos_bank)
        alpha_cmd = float(np.clip(cl_req / cl_slope, 0.0, cw.alpha_max))
        # lateral: the trim glide at q_nom overshoots the field, so weave:
        # crab away from the bearing by the angle whose cosine spends the
        # range surplus, and reverse when the bearing error swings past
        est = m * (v * v - 1.8) / (2.0 * ctx.ref_area * float(cd_trim)
                                   * q_nom)
        delta = math.acos(float(np.clip(togo / max(est, 1.0), 0.2, 1.0)))
        err = _wrap_pi(_bearing(float(y[Geo.PHI]), float(y[Geo.THETA]),
                                bc.lonf, bc.latf) - float(y[Geo.PSI]))
        if abs(err) > delta + 20.0 * DEG:
            mode["sign"] = math.copysign(1.0, err)
        head_err = _wrap_pi(err + mode["sign"] * delta)
        if q > 1.5 and mode["captured"]:
            mag = float(np.clip(2.5 * head_err, -75.0 * DEG, 75.0 * DEG))
        else:
            mag = 0.0
        return alpha_cmd, mag

    rows, us, ts = [y.copy()], [], [0.0]
    while ts[-1] < 4500.0:
        alpha_cmd, sigma_cmd = law(y)
        u = np.array([
            np.clip((alpha_cmd - y[Geo.ALPHA]) / 1.5,
                    -cw.u_alpha_max, cw.u_alpha_max),
            np.clip(_wrap_pi(sigma_cmd - y[Geo.SIGMA]) / 2.0,
                    -cw.u_sigma_max, cw.u_sigma_max)])

        def f(yy):
            return geo_rates(yy[None], u, ctx)[0]

        k1 = f(y)
        k2 = f(y + 0.5 * dt * k1)
        k3 = f(y + 0.5 * dt * k2)
        k4 = f(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        us.append(u)
        ts.append(ts[-1] + dt)
        rows.append(y.copy())
        if y[Geo.H] <= 0.02 or y[Geo.V] <= 0.65:
            break

    t_rel = np.array(ts)
    Y = np.vstack(rows)
    U = np.vstack(us + [us[-1]])
    q = dynamic_pressure(ctx.atmosphere.density(Y[:, Geo.H]), Y[:, Geo.V])
    up = np.nonzero((q[:-1] < lm.q_split) & (q[1:] >= lm.q_split))[0]
    if up.size == 0:
        raise RuntimeError("descent profile never reaches the bank threshold")
    i = int(up[0])
    frac = (lm.q_split - q[i]) / (q[i + 1] - q[i])
    t_split = max(float(t_rel[i] + frac * dt), 10.0)
    t_total = max(float(t_rel[-1]), t_split + 40.0)

    def states_at(t):
        tq = t - t_pierce
        return np.column_stack([np.interp(tq, t_rel, Y[:, j])
                                for j in range(GEO_DIM)])

    def controls_at(t):
        tq = t - t_pierce
        return np.column_stack([np.interp(tq, t_rel, U[:, j])
                                for j in range(2)])

    return states_at, controls_at, t_pierce + t_split, t_pierce + t_total


def initial_guess(config: MissionConfig, nlp) -> np.ndarray:
    """Packed first iterate: powered gravity turn, ballistic coast, and a
    feedback-steered glide, clipped into the variable boxes."""
    ctx = phase_contexts(config)
    _, arc = calibrate_kick(config, ctx)
    if not arc["complete"]:
        raise RuntimeError("calibrated ascent guess lost its ballistic arc")
    segs = arc["segs"]

    glide_at, glide_u_at, t_split, t_end = _entry_profile(
        config, ctx[6], arc["y_pierce"], arc["t_pierce"])

    times = [(config.bc.t0, config.t_s1), (config.t_s1, config.t_s2),
             (config.t_s2, config.t_fairing), (config.t_fairing, config.t_s3),
             (config.t_s3, arc["t_apo"]), (arc["t_apo"], arc["t_pierce"]),
             (arc["t_pierce"], t_split), (t_split, t_end)]

    states, controls = [], []
    for p, (t0, tf) in enumerate(times):
        coll_tau, state_tau = nlp.node_taus(p)
        ts = t0 + state_tau * (tf - t0)
        ys = segs[p].sol(ts).T if p <= 5 else glide_at(ts)
        if p in (0, 7):
            ys = vert_from_geo(ys)
        states.append(ys)
        nu = nlp.problem.phases[p].nu
        if p == 6:
            controls.append(glide_u_at(t0 + coll_tau * (tf - t0)))
        else:
            controls.append(np.zeros((len(coll_tau), nu)))

    z = nlp.pack(states, controls, times)
    # balance each accumulator against its own quadrature; the balance row
    # is affine in the accumulator variable, so two probes pin it down
    for name, idx in nlp.acc_idx.items():
        row = nlp.con_names.index(f"acc:{name}:balance")
        z[idx] = 0.0
        g0 = nlp.constraints(z)[row]
        z[idx] = 1.0
        slope = nlp.constraints(z)[row] - g0
        z[idx] = -g0 / slope
    return nlp.clip_to_bounds(z)


# --------------------------------------------------------------------------
# solving and studies


def solve_mission(config: MissionConfig, *,
                  warm: Solution | None = None) -> RefinementReport:
    config.validate()
    problem = build_mission(config)
    meshes = default_meshes(config)
    solver_options = SolverOptions(tolerance=config.solver_tolerance,
                                   max_iterations=config.solver_max_iterations)
    refinement = RefinementOptions(mesh_tolerance=config.mesh_tolerance,
                                   max_refinements=config.max_refinements)
    if warm is not None:
        guess = lambda nlp: nlp.z_from_solution(warm)
    else:
        guess = lambda nlp: initial_guess(config, nlp)
    return refine_loop(problem, meshes, guess, refinement, solver_options)


@dataclass
class StudyResult:
    qdot_max: float
    q_heat_max: float
    objective: float
    peak_altitude: float
    pierce_speed: float
    pierce_fpa_deg: float
    entry_duration: float
    heat_load: float
    max_qdot: float
    status: str

    @property
    def converged(self) -> bool:
        return self.status == "converged"


STUDY_COLUMNS = ("qdot_max_MW_m2", "q_heat_max_MJ_m2", "objective",
                 "peak_altitude_km", "pierce_speed_km_s", "pierce_fpa_deg",
                 "entry_duration_s", "heat_load_MJ_m2", "max_qdot_MW_m2",
                 "status")


def summarize_run(config: MissionConfig,
                  report: RefinementReport) -> StudyResult:
    """One study row from a solved mission; its status is the run's."""
    lm = config.limits
    sol = report.solution
    atm = resolve_tables(config)[0]
    peak = float(sol.phases[5].states[0, Geo.H])
    pierce = sol.phases[6].states[0]
    duration = float(sol.phases[7].tf - sol.phases[6].t0)
    max_qd = 0.0
    for p in (6, 7):
        ph = sol.phases[p]
        tt = np.unique(np.concatenate([np.linspace(ph.t0, ph.tf, 400),
                                       ph.state_times()]))
        ys = ph.sample_states(tt)
        qd = heating_rate(atm.density(ys[:, 0]), ys[:, 3], config.heating)
        max_qd = max(max_qd, float(np.max(qd)))
    return StudyResult(lm.qdot_max, lm.q_heat_max,
                       float(report.last_solve.objective),
                       peak, float(pierce[Geo.V]),
                       float(pierce[Geo.GAMMA]) / DEG, duration,
                       float(sol.accumulators.get("heat_load", math.nan)),
                       max_qd, report.status)


def run_study(config: MissionConfig, sweep: dict, *,
              progress=None) -> list[StudyResult]:
    """Constraint sweep; each branch walks its list tightening the limit and
    stops at the first run that does not converge, warm-starting along the
    way.

    sweep holds "qdot_max" and/or "q_heat_max" value lists.  With both, every
    qdot value opens a branch over the heat-load list (row-major order)."""
    qd_list = list(sweep.get("qdot_max", [])) or [config.limits.qdot_max]
    ql_list = list(sweep.get("q_heat_max", [])) or [config.limits.q_heat_max]
    if not sweep.get("qdot_max") and not sweep.get("q_heat_max"):
        raise ConfigError("sweep needs a qdot_max or q_heat_max list")

    results: list[StudyResult] = []
    for qd in qd_list:
        warm = None
        for ql in ql_list:
            cfg = replace(config,
                          limits=replace(config.limits, qdot_max=float(qd),
                                         q_heat_max=float(ql)))
            report = solve_mission(cfg, warm=warm)
            res = summarize_run(cfg, report)
            results.append(res)
            if progress is not None:
                progress(res)
            if not report.converged:
                break
            warm = report.solution
    return results


# --------------------------------------------------------------------------
# trajectory export


TRAJECTORY_COLUMNS = ("t", "h", "phi", "theta", "v", "gamma", "psi", "alpha",
                      "sigma", "m", "q", "n", "qdot", "Q")


def trajectory_table(config: MissionConfig, sol: Solution) -> np.ndarray:
    """Sampled history, one row per stamp: the per-phase collocation nodes
    merged with the whole seconds, angles in radians, heat load accumulated
    over the entry phases."""
    ctx = phase_contexts(config)
    hp = config.heating
    rows = []
    heat = 0.0
    for p, ph in enumerate(sol.phases):
        tt = np.unique(np.concatenate([ph.state_times(), np.arange(
            math.ceil(ph.t0), math.floor(ph.tf) + 1.0)]))
        ys = ph.sample_states(tt)
        if p in (0, 7):
            geo = geo_from_vert(ys)
        else:
            geo = ys
        if geo.shape[1] > GEO_DIM:
            mass = geo[:, GEO_DIM]
            geo = geo[:, :GEO_DIM]
        else:
            mass = np.full(len(tt), ctx[p].fixed_mass or 0.0)
        c = ctx[p]
        if c.atmosphere is not None:
            q, n, qd = path_quantities(c, geo[:, Geo.H], geo[:, Geo.V],
                                       geo[:, Geo.ALPHA], mass, hp)
        else:
            q = n = qd = np.zeros(len(tt))
        if p in (6, 7) and len(tt) > 1:
            qq = np.concatenate([[0.0],
                                 np.cumsum(0.5 * (qd[1:] + qd[:-1])
                                           * np.diff(tt))]) + heat
            heat = float(qq[-1])
        else:
            qq = np.full(len(tt), heat)
        rows.append(np.column_stack([tt, geo, mass, q, n, qd, qq]))
    return np.vstack(rows)
