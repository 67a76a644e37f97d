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

# geo_rates and vert_rates are unused here: bench/tracing.py patches both
# in this namespace
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
                            PathConstraint, PhaseDef, Solution, fly,
                            uniform_mesh)

DEG = math.pi / 180.0

GEO_STATE_NAMES = ("h", "phi", "theta", "v", "gamma", "psi", "alpha", "sigma")
VERT_STATE_NAMES = ("h", "phi", "theta", "v", "e1", "e2", "e3", "eta", "alpha")
GEO_CONTROL_NAMES = ("u_alpha", "u_sigma")
VERT_CONTROL_NAMES = ("u_alpha", "w1")


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
    ref_area: float
    isp: float
    thrust: float

    def __post_init__(self):
        for f in fields(self):
            if f.name != "name" and getattr(self, f.name) <= 0.0:
                raise ConfigError(f"stage {self.name}: {f.name} must be positive")

    def mass_rate(self, g0: float) -> float:
        """Propellant consumption kg/s for standard gravity g0 in km/s^2."""
        return self.thrust / (self.isp * g0)

    def total_mass(self, g0: float) -> float:
        """Empty mass plus the propellant the burn consumes."""
        return self.empty_mass + self.mass_rate(g0) * self.burn_time


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
    """Endpoint data: km, km/s, rad; boost1 starts at the tower top."""

    lon0: float = -120.63 * DEG
    lat0: float = 34.58 * DEG
    hf: float = 0.0
    lonf: float = -192.30 * DEG
    latf: float = 8.70 * DEG
    vf: float = 1.219
    pad_elevation: float = 0.117
    tower_height: float = 0.05


# the flight corridor, rad: every phase's longitude and latitude box, which
# the launch and target points must lie in
CORRIDOR = {"lon": (-3.6, -1.8), "lat": (0.05, 0.75)}


def _default_stages() -> tuple[VehicleStage, VehicleStage, VehicleStage]:
    return (VehicleStage("stage1", 56.4, 3630.0, 4.307, 282.0, 2224.1),
            VehicleStage("stage2", 60.7, 3170.0, 4.307, 309.0, 1222.9),
            VehicleStage("stage3", 72.0, 630.0, 4.307, 300.0, 289.1))


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
        return (sum(s.total_mass(self.earth.g0) for s in self.stages)
                + self.fairing_mass + self.payload_mass)

    @property
    def m_s2(self) -> float:
        """Vehicle mass right after first-stage separation."""
        return (sum(s.total_mass(self.earth.g0) for s in self.stages[1:])
                + self.fairing_mass + self.payload_mass)

    @property
    def m_s3(self) -> float:
        """Vehicle mass right after second-stage separation."""
        return (self.stages[2].total_mass(self.earth.g0) + self.fairing_mass
                + self.payload_mass)

    @property
    def coast_mass(self) -> float:
        """Spent third stage plus payload during the ascent coast."""
        return self.stages[2].empty_mass + self.payload_mass

    def validate(self) -> None:
        """Each field's own range rule (its `CONFIG_FIELDS` row), the mesh
        rule, the bookkeeping that ties fields together and the tower
        clearance."""
        bad: list[str] = []
        if len(self.stages) != 3:
            raise ConfigError("exactly three booster stages are required")
        for f in CONFIG_FIELDS:
            f.check(attrgetter(f.attr)(self))
        check_mesh(self.mesh, 8)
        if not self.t_s1 < self.t_s2 < self.t_fairing < self.t_s3:
            bad.append("staging times must satisfy t_s1 < t_s2 < t_fairing < t_s3")
        for key in ("lon0", "lat0", "lonf", "latf"):
            lo, hi = CORRIDOR[key[:3]]
            if not lo <= getattr(self.bc, key) <= hi:
                bad.append(f"boundary.{key}_deg lies outside the flight "
                           f"corridor, {lo / DEG:.2f} to {hi / DEG:.2f} deg")
        if self.entry_mass >= self.payload_mass:
            bad.append("entry vehicle must be lighter than the payload stack")
        lm = self.limits
        if not lm.q_split < lm.q_max:
            bad.append("need q_split < q_max")
        if not lm.h_atm <= lm.h_peak_lo < lm.h_peak_hi:
            bad.append("peak altitude window must sit above the atmosphere edge")
        if not lm.h_peak_lo <= self.guess_apogee <= lm.h_peak_hi:
            bad.append("guess.apogee must sit inside the peak window, "
                       "h_peak_lo to h_peak_hi")
        if bad:
            raise ConfigError("; ".join(bad))
        tower_clear_propagate(self)

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

    kind "number" is a finite float, "positive" one above 0, "limit" a
    positive bound written as null when infinite, "count" a whole number,
    "raw" any JSON value kept as given; "stages" and "mesh" fill a whole
    section (key None) with a list.
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
        if self.kind in ("positive", "limit") and not v > 0.0:
            lifts = " (null lifts it)" if self.kind == "limit" else ""
            raise ConfigError(f"{where} must be positive{lifts}, "
                              f"got {v / self.unit!r}")
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
    ConfigField("earth", "mu", "earth.mu", kind="positive"),
    ConfigField("earth", "re", "earth.re", kind="positive"),
    ConfigField("earth", "omega", "earth.omega"),
    ConfigField("earth", "g0", "earth.g0", kind="positive"),
    ConfigField("stages", None, "stages", kind="stages"),
    ConfigField("vehicle", "fairing_mass", "fairing_mass", kind="positive"),
    ConfigField("vehicle", "payload_mass", "payload_mass", kind="positive"),
    ConfigField("vehicle", "entry_mass", "entry_mass", kind="positive"),
    ConfigField("vehicle", "entry_area", "entry_area", kind="positive"),
    ConfigField("times", "t_fairing", "t_fairing"),
    ConfigField("limits", "q_max", "limits.q_max", kind="positive"),
    ConfigField("limits", "q_split", "limits.q_split", kind="positive"),
    ConfigField("limits", "n_max", "limits.n_max", kind="positive"),
    ConfigField("limits", "h_atm", "limits.h_atm", kind="positive"),
    ConfigField("limits", "h_peak_lo", "limits.h_peak_lo"),
    ConfigField("limits", "h_peak_hi", "limits.h_peak_hi"),
    ConfigField("limits", "qdot_max", "limits.qdot_max", kind="limit"),
    ConfigField("limits", "q_heat_max", "limits.q_heat_max", kind="limit"),
    ConfigField("cost", "alpha_bar_boost_deg", "cost.alpha_bar_boost", DEG),
    ConfigField("cost", "alpha_bar_entry_deg", "cost.alpha_bar_entry", DEG),
    ConfigField("cost", "alpha_max_deg", "cost.alpha_max", DEG,
                kind="positive"),
    ConfigField("cost", "u_alpha_max_deg", "cost.u_alpha_max", DEG,
                kind="positive"),
    ConfigField("cost", "u_sigma_max_deg", "cost.u_sigma_max", DEG,
                kind="positive"),
    ConfigField("cost", "k", "cost.k", kind="positive"),
    ConfigField("boundary", "lon0_deg", "bc.lon0", DEG),
    ConfigField("boundary", "lat0_deg", "bc.lat0", DEG),
    ConfigField("boundary", "hf", "bc.hf"),
    ConfigField("boundary", "lonf_deg", "bc.lonf", DEG),
    ConfigField("boundary", "latf_deg", "bc.latf", DEG),
    ConfigField("boundary", "vf", "bc.vf", kind="positive"),
    ConfigField("boundary", "pad_elevation", "bc.pad_elevation"),
    ConfigField("boundary", "tower_height", "bc.tower_height", kind="positive"),
    ConfigField("heating", "kappa", "heating.kappa", kind="positive"),
    ConfigField("heating", "rho0", "heating.rho0", kind="positive"),
    ConfigField("heating", "v_circ", "heating.v_circ", kind="positive"),
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
# scipy's root finder, imported on first call: only the kick calibration
# uses it, and a canonical run or a transcription would otherwise pay for
# loading it


def brentq(f, a, b, **kwargs):
    """scipy.optimize.brentq, imported on first call."""
    from scipy.optimize import brentq
    return brentq(f, a, b, **kwargs)


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
    """The vertical rise hdd = T/m - g0 from rest at the pad, in closed
    form, to the tower top: boost1's start.  Thrust must beat pad weight.
    The climb is convex and the constant-acceleration estimate lies right of
    the crossing, so Newton's steps from it fall until rounding stops them."""
    s1 = config.stages[0]
    g0 = config.earth.g0
    m0 = config.ignition_mass
    mdot = s1.mass_rate(g0)
    ve = s1.isp * g0
    if s1.thrust <= m0 * g0:
        raise ConfigError("thrust does not exceed the pad weight; "
                          "the vehicle cannot lift off")

    def burnt(t):       # log(m0 / m), without rounding m0 / m first
        return -math.log1p(-mdot * t / m0)

    def gain(t):
        return ve * (t - (m0 / mdot - t) * burnt(t)) - 0.5 * g0 * t * t

    def speed(t):
        return ve * burnt(t) - g0 * t

    # the stage's empty mass is left at burnout, so the log stays finite
    target = config.bc.tower_height
    if gain(s1.burn_time) < target:
        raise ConfigError("vehicle does not clear the tower within the burn")
    t = min(math.sqrt(2.0 * target / (s1.thrust / m0 - g0)), s1.burn_time)
    last = math.inf
    while t < last:
        t, last = t - (gain(t) - target) / speed(t), t
    return TowerClear(time=t, speed=speed(t), mass=m0 - mdot * t,
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
    tc = tower_clear_propagate(config)
    (lon_lo, lon_hi), (lat_lo, lat_hi) = CORRIDOR["lon"], CORRIDOR["lat"]
    hp = config.heating
    t1, t2, t3, t4 = config.t_s1, config.t_s2, config.t_fairing, config.t_s3

    w_boost = CostWeights(cw.alpha_bar_boost, cw.alpha_max,
                          cw.u_alpha_max, cw.u_sigma_max)
    w_coast = replace(w_boost, include_alpha=False)
    w_glide = replace(w_boost, alpha_bar=cw.alpha_bar_entry)
    w_dive = replace(w_glide, k=cw.k)

    u_max = np.array([cw.u_alpha_max, cw.u_sigma_max])

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

    # phase 1: first stage, Euler parameters, mass flowing, from the tower top
    x_lo, x_hi = (np.array([0.05, lon_lo, lat_lo, 0.005, -1.001, -1.001,
                            -1.001, -1.001, -cw.alpha_max, 0.4 * tc.mass]),
                  np.array([90.0, lon_hi, lat_hi, 3.5, 1.001, 1.001, 1.001,
                            1.001, cw.alpha_max, 1.1 * tc.mass]))
    x0_lo, x0_hi = _pins(10, [(0, tc.altitude, tc.altitude),
                              (1, bc.lon0, bc.lon0), (2, bc.lat0, bc.lat0),
                              (3, tc.speed, tc.speed),
                              (4, 0.0, 0.0), (5, 0.0, 0.0), (6, 0.0, 0.0),
                              (7, 1.0, 1.0), (8, 0.0, 0.0),
                              (9, tc.mass, tc.mass)])
    phases.append(PhaseDef(
        "boost1", 10, 2, node(ctx[0], vert_core, Vert.ALPHA, ("q",)),
        x_lo, x_hi, -u_max, u_max, tc.time, tc.time, t1, t1,
        x0_lo=x0_lo, x0_hi=x0_hi,
        path=[PathConstraint("q_max", -np.inf, lm.q_max)],
        cost=vert_cost(w_boost),
        state_names=VERT_STATE_NAMES + ("m",), control_names=VERT_CONTROL_NAMES))

    # phases 2-3: upper stages in the atmosphere, geodetic angles
    geo_lo = np.array([5.0, lon_lo, lat_lo, 0.3, -1.5690, -3.3,
                       -cw.alpha_max, -math.pi])
    geo_hi = np.array([160.0, lon_hi, lat_hi, 6.5, 1.5690, 0.5, cw.alpha_max,
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
            x_lo, x_hi, -u_max, u_max, span[0], span[0], span[1], span[1],
            x0_lo=x0_lo, x0_hi=x0_hi, cost=geo_cost(w_boost),
            state_names=GEO_STATE_NAMES + ("m",),
            control_names=GEO_CONTROL_NAMES))

    # phase 4: third stage above the sensible atmosphere
    x_lo = np.array([lm.h_atm, lon_lo, lat_lo, 5.0, -1.5690, -3.3,
                     -cw.alpha_max, -math.pi, 3400.0])
    x_hi = np.array([230.0, lon_hi, lat_hi, 9.0, 1.5690, 0.5, cw.alpha_max,
                     math.pi, 4800.0])
    phases.append(PhaseDef(
        "exo_burn", 9, 2, node(ctx[3], geo_core, Geo.ALPHA),
        x_lo, x_hi, -u_max, u_max, t3, t3, t4, t4, cost=geo_cost(w_boost),
        state_names=GEO_STATE_NAMES + ("m",), control_names=GEO_CONTROL_NAMES))

    # phase 5: coast up to the peak, payload still attached
    coast_lo = np.array([lm.h_atm, lon_lo, lat_lo, 4.0, -1.5690, -3.3,
                         -0.5 * math.pi, -math.pi])
    coast_hi = np.array([lm.h_peak_hi + 30.0, lon_hi, lat_hi, 9.0, 1.5690,
                         0.5, 0.5 * math.pi, math.pi])
    xf_lo, xf_hi = _pins(8, [(0, lm.h_peak_lo, lm.h_peak_hi),
                             (4, 0.0, 0.0), (6, 0.0, 0.0), (7, 0.0, 0.0)])
    phases.append(PhaseDef(
        "coast_up", 8, 2, node(ctx[4], geo_core, Geo.ALPHA),
        coast_lo, coast_hi, -u_max, u_max, t4, t4, t4 + 10.0, 2600.0,
        xf_lo=xf_lo, xf_hi=xf_hi, cost=geo_cost(w_coast), min_duration=5.0,
        state_names=GEO_STATE_NAMES, control_names=GEO_CONTROL_NAMES))

    # phase 6: entry vehicle coasts down to the atmosphere edge
    x0_lo, x0_hi = _pins(8, [(0, lm.h_peak_lo, lm.h_peak_hi),
                             (4, 0.0, 0.0), (6, 0.0, 0.0), (7, 0.0, 0.0)])
    xf_lo, xf_hi = _pins(8, [(0, lm.h_atm, lm.h_atm)])
    phases.append(PhaseDef(
        "coast_down", 8, 2, node(ctx[5], geo_core, Geo.ALPHA),
        coast_lo, coast_hi, -u_max, u_max, t4 + 10.0, 2600.0, t4 + 20.0, 4200.0,
        x0_lo=x0_lo, x0_hi=x0_hi, xf_lo=xf_lo, xf_hi=xf_hi,
        cost=geo_cost(w_coast), min_duration=5.0,
        state_names=GEO_STATE_NAMES, control_names=GEO_CONTROL_NAMES))

    # phase 7: thin-air glide down to the bank-effectiveness boundary
    x_lo = np.array([40.0, lon_lo, lat_lo, 4.5, -1.5690, -3.3, 0.0,
                     -math.pi])
    x_hi = np.array([lm.h_atm + 1.0, lon_hi, lat_hi, 8.5, 0.35, 0.5,
                     cw.alpha_max, math.pi])
    x0_lo, x0_hi = _pins(8, [(0, lm.h_atm, lm.h_atm)])
    phases.append(PhaseDef(
        "entry_glide", 8, 2, node(ctx[6], geo_core, Geo.ALPHA, entry_outputs),
        x_lo, x_hi, -u_max, u_max, t4 + 20.0, 4200.0, t4 + 30.0, 6500.0,
        x0_lo=x0_lo, x0_hi=x0_hi,
        path=[PathConstraint("n_max", -np.inf, lm.n_max),
              PathConstraint("q_split", -np.inf, lm.q_split)] + heat_row,
        integrands=[IntegralTerm("heat_load")],
        cost=geo_cost(w_glide), min_duration=5.0,
        state_names=GEO_STATE_NAMES, control_names=GEO_CONTROL_NAMES))

    # phase 8: dense-air descent, Euler parameters, terminal target
    x_lo = np.array([-0.01, lon_lo, lat_lo, 0.3, -1.001, -1.001, -1.001,
                     -1.001, 0.0])
    x_hi = np.array([70.0, lon_hi, lat_hi, 8.5, 1.001, 1.001, 1.001, 1.001,
                     cw.alpha_max])
    xf_lo, xf_hi = _pins(9, [(0, bc.hf, bc.hf), (1, bc.lonf, bc.lonf),
                             (2, bc.latf, bc.latf), (3, bc.vf, bc.vf),
                             (4, 0.0, 0.0), (7, 0.0, 0.0), (8, 0.0, 0.0)])
    phases.append(PhaseDef(
        "entry_dive", 9, 2, node(ctx[7], vert_core, Vert.ALPHA, entry_outputs),
        x_lo, x_hi, -u_max, u_max, t4 + 30.0, 6500.0, t4 + 60.0, 9000.0,
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
    try:
        return MultiPhaseProblem(phases, linkages, boundaries, accumulators)
    except ValueError as exc:   # a phase box the config left empty
        raise ConfigError(str(exc)) from None


def default_meshes(config: MissionConfig) -> list[MeshPhase]:
    return [uniform_mesh(n, d) for n, d in config.mesh]


# --------------------------------------------------------------------------
# initial guess


def _event(f, direction, terminal=True):
    """f(t, y) as a solve_ivp event: a crossing of 0 upward (direction 1)
    or downward (-1), which ends the flight if terminal."""
    f.direction, f.terminal = direction, terminal
    return f


def _joined(legs):
    """(states, controls) at ascending times t along flights flown end to
    end, (n, nx) and (n, nu); a time past the last flight reads its end."""
    ends = np.array([leg.t[-1] for leg in legs])

    def at(t):
        t = np.minimum(t, ends[-1])
        k = np.searchsorted(ends[:-1], t)
        return tuple(np.vstack(part) for part in zip(*[
            (legs[j].sol(t[k == j]).T, legs[j].controls(t[k == j]))
            for j in np.unique(k)]))
    return at


def _hold(t, y):
    return np.zeros(2)


def _propagate_ascent(config: MissionConfig, phases, kick: float,
                      psi0: float, tol: float) -> dict:
    """Zero-incidence ascent from the tower with a small pitch kick, flown
    on the phases' node callbacks at rtol = atol = tol: boost1 on its
    Euler-parameter state with both controls at zero, handed over by the
    stage1_sep linkage's map, geo_from_vert, which leaves a bank of about
    -3e-3 rad.  The kept ascent (tol at ASCENT_TOL) slews it in the upper
    stages back to the 0 that the apogee pins need; a trial holds it: at
    zero incidence the bank turns no force (the boost CL table and
    thrust * sin(alpha) read 0), so it cannot move the apogee a trial
    measures, while the slew's 2-s time constant bounds an explicit
    integrator's steps.  coast_up flies with both controls at zero.  Every
    flight ends at the ground.  Returns the flights of phases 0-4, the
    coast ending at its apogee, and the apogee: the coast's highest
    altitude if it never tops out (over-kicked), 0 if a powered flight
    reaches the ground, which ends the flights there."""
    cw, start = config.cost, phases[0].x0_lo
    opts = {"method": "RK45", "rtol": tol, "atol": tol}
    ground = _event(lambda t, y: y[Geo.H], -1.0)    # Vert.H is Geo.H

    def level(t, y):
        return np.array([0.0, min(max(-y[Geo.SIGMA] / 2.0, -cw.u_sigma_max),
                                  cw.u_sigma_max)])

    bank = level if tol <= ASCENT_TOL else _hold

    kicked = np.concatenate([start[:Vert.E1], [0.5 * math.pi - kick, psi0,
                                               0.0, 0.0, start[Vert.M]]])
    flights = [fly(phases[0], vert_from_geo(kicked[None])[0], phases[0].t0_lo,
                   config.t_s1, _hold, [ground], **opts)]
    y = geo_from_vert(flights[0].y[:, -1][None])[0]
    for p, (a, b) in enumerate([(config.t_s1, config.t_s2),
                                (config.t_s2, config.t_fairing),
                                (config.t_fairing, config.t_s3)], start=1):
        if flights[-1].t_events[0].size:
            break
        # the mass after each stage separation, then after the fairing drop
        mass = (config.m_s2, config.m_s3, y[Geo.M] - config.fairing_mass)[p - 1]
        flights.append(fly(phases[p], np.append(y[:GEO_DIM], mass), a, b,
                           bank, [ground], **opts))
        y = flights[p].y[:, -1]
    if flights[-1].t_events[0].size:
        return {"flights": flights, "apogee": 0.0}

    coast = fly(phases[4], y[:GEO_DIM], config.t_s3, config.t_s3 + 4000.0,
                _hold, [_event(lambda t, y: y[Geo.GAMMA], -1.0), ground], **opts)
    topped = coast.t_events[0].size > 0
    return {"flights": flights + [coast],
            "apogee": float(coast.y[Geo.H, -1] if topped
                            else np.max(coast.y[Geo.H]))}


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


# a kick the calibration tries only steers its root finder: it flies to
# apogee at the loose tolerance, and the root's kept ascent at the tight one
CALIBRATION_TOL = 1.0e-5
ASCENT_TOL = 1.0e-8


def calibrate_kick(config: MissionConfig, phases=None,
                   psi0=None) -> tuple[float, dict]:
    """Pitch-over kick angle whose gravity turn peaks near guess_apogee,
    with the ascent flown from it on the mission's phases.

    Each kick tried flies to its apogee at CALIBRATION_TOL, once per kick:
    brentq's second look at its bracket ends flies nothing.  The bracket
    starts at 12 deg and walks outward: up by half again while the arc
    over-lofts (to 18 deg by default), or down to 0.2 deg if 12 deg
    under-lofts.  brentq then finds the root of log(apogee / guess_apogee),
    which is nearer linear in the kick than the difference, between the
    last two kicks flown.  The root's ascent alone is flown at ASCENT_TOL,
    then coasts down to the atmosphere edge: the arc returned holds those
    flights of phases 0-5.
    """
    phases = phases or build_mission(config).phases
    bc, lm = config.bc, config.limits
    if psi0 is None:
        psi0 = _bearing(bc.lon0, bc.lat0, bc.lonf, bc.latf)
    target = config.guess_apogee
    misses = {}

    def miss(kick):
        # an over-kicked path that noses over into the ground can read an
        # apogee at or below 0: the floor keeps its miss finite and negative
        if kick not in misses:
            arc = _propagate_ascent(config, phases, kick, psi0,
                                    CALIBRATION_TOL)
            misses[kick] = math.log(max(arc["apogee"], 1.0e-3 * target)
                                    / target)
        return misses[kick]

    kicks = [12.0 * DEG]
    if miss(kicks[0]) <= 0.0:
        kicks.insert(0, 0.2 * DEG)
        if miss(kicks[0]) < 0.0:
            raise RuntimeError("even a minimal pitch kick under-lofts the arc")
    while miss(kicks[-1]) > 0.0:
        if kicks[-1] >= 40.0 * DEG:
            raise RuntimeError("pitch kick calibration failed to bracket the "
                               "apogee")
        kicks.append(1.5 * kicks[-1])
    kick = brentq(miss, kicks[-2], kicks[-1], xtol=1.0e-5)

    arc = _propagate_ascent(config, phases, kick, psi0, ASCENT_TOL)
    coast = arc["flights"][-1]
    arc["flights"].append(fly(
        phases[5], coast.y[:, -1], coast.t[-1], coast.t[-1] + 5000.0, _hold,
        [_event(lambda t, y: y[Geo.H] - lm.h_atm, -1.0)],
        method="RK45", rtol=ASCENT_TOL, atol=ASCENT_TOL))
    if arc["flights"][-1].t_events[0].size == 0:
        raise RuntimeError("ballistic arc never returns to the atmosphere edge")
    return kick, arc


def _entry_profile(config: MissionConfig, ctx: PhaseContext, phase: PhaseDef,
                   y_pierce, t_pierce):
    """Entry arc flown on the glide phase's node under a feedback steering
    law: incidence from inverting the lift needed to track a reference slope
    tied to the nominal glide pressure, bank held off until the pull-out
    captures the slope and then weaving the heading to spend the range
    surplus, everything released once the speed is spent.  The capture,
    each bank reversal and the release (the first downward crossing of
    1.35 km/s) end a leg of the flight, so each leg's law is a function of
    (t, y); once released, the law commands zero incidence and bank to the
    end, with no reversal or capture left to watch for.  The ground or the
    stall ends the flight.  The arc is split at the first upward crossing
    of the bank-effectiveness pressure level, so the capture dip and the
    dense glide both land in the final phase.

    Returns `_joined` over the legs, the split time and the end time."""
    bc, lm, cw = config.bc, config.limits, config.cost
    e, m = ctx.earth, ctx.fixed_mass
    ab, q_nom = cw.alpha_bar_entry, 30.0

    def guidance(y):
        """(incidence command, bearing error, crab angle, q) at y."""
        v, gamma = float(y[Geo.V]), float(y[Geo.GAMMA])
        rho, a = ctx.atmosphere.lookup(y[[Geo.H]])
        q = dynamic_pressure(rho, y[[Geo.V]])[0]
        cl, cd = ctx.aero.lookup(np.array([ab / DEG]), y[[Geo.V]] / a)
        r = e.re + float(y[Geo.H])
        grav = e.mu / (r * r)
        togo = r * math.acos(min(max(
            math.sin(y[Geo.THETA]) * math.sin(bc.latf)
            + math.cos(y[Geo.THETA]) * math.cos(bc.latf)
            * math.cos(bc.lonf - y[Geo.PHI]), -1.0), 1.0))
        # vertical: invert the lift that steers the slope toward a reference
        # tied to the nominal glide pressure; the climb side of the reference
        # is kept soft so the pull-out cannot float back out of dense air
        gamma_ref = min(max(0.026 * math.log(max(q, 1e-3) / q_nom), -0.045),
                        0.008)
        need = m * ((grav - v * v / r) * math.cos(gamma)
                    + v * (gamma_ref - gamma) / 40.0)
        cl_slope = max(float(cl[0]), 0.05) / ab
        cos_bank = max(math.cos(float(y[Geo.SIGMA])), 0.3)
        cl_req = need / (max(q, 0.2) * ctx.ref_area * cos_bank)
        alpha_cmd = float(min(max(cl_req / cl_slope, 0.0), cw.alpha_max))
        # lateral: the trim glide at q_nom overshoots the field, so weave:
        # crab away from the bearing by the angle whose cosine spends the
        # range surplus, and reverse when the bearing error swings past
        est = m * (v * v - 1.8) / (2.0 * ctx.ref_area * float(cd[0]) * q_nom)
        delta = math.acos(min(max(togo / max(est, 1.0), 0.2), 1.0))
        err = _wrap_pi(_bearing(float(y[Geo.PHI]), float(y[Geo.THETA]),
                                bc.lonf, bc.latf) - float(y[Geo.PSI]))
        return alpha_cmd, err, delta, q

    def steering(captured, sign, spent):
        def law(t, y):
            alpha_cmd = bank = 0.0
            # spent: drop the lift and fall out ballistically
            if not spent:
                alpha_cmd, err, delta, q = guidance(y)
                if q > 1.5 and captured:
                    bank = min(max(2.5 * _wrap_pi(err + sign * delta),
                                   -75.0 * DEG), 75.0 * DEG)
            return np.array([
                min(max((alpha_cmd - y[Geo.ALPHA]) / 1.5, -cw.u_alpha_max),
                    cw.u_alpha_max),
                min(max(_wrap_pi(bank - y[Geo.SIGMA]) / 2.0, -cw.u_sigma_max),
                    cw.u_sigma_max)])
        return law

    def swing(y, sign):
        """Positive once the bearing error swings 20 deg past the crab
        angle, on the side away from the weave's."""
        _, err, delta, _ = guidance(y)
        return -sign * err - delta - 20.0 * DEG

    # the flight's ends and its split, then each leg's mode switches: the
    # release, the bank reversal and the capture
    ends = [_event(lambda t, y: y[Geo.H] - 0.02, -1.0),
            _event(lambda t, y: y[Geo.V] - 0.65, -1.0),
            _event(lambda t, y: dynamic_pressure(ctx.atmosphere.density(
                y[[Geo.H]]), y[[Geo.V]])[0] - lm.q_split, 1.0, False)]
    release = _event(lambda t, y: y[Geo.V] - 1.35, -1.0)
    capture = _event(lambda t, y: y[Geo.GAMMA] + 1.2 * DEG, 1.0)
    y = np.array(y_pierce[:GEO_DIM], dtype=float)
    y[Geo.ALPHA] = min(max(y[Geo.ALPHA], 0.0), cw.alpha_max)
    t, legs = t_pierce, []
    captured = y[Geo.GAMMA] > -1.2 * DEG
    sign = -1.0 if swing(y, 1.0) > 0.0 else 1.0
    spent = y[Geo.V] <= 1.35
    while True:
        switches = [] if spent else [
            release, _event(lambda t, y, s=sign: swing(y, s), 1.0)
        ] + [capture] * (not captured)
        legs.append(fly(phase, y, t, t_pierce + 4500.0,
                        steering(captured, sign, spent), ends + switches,
                        method="RK23"))
        t, y = legs[-1].t[-1], legs[-1].y[:, -1]
        fired = [te.size > 0 for te in legs[-1].t_events]
        if legs[-1].status == 0 or fired[0] or fired[1]:
            break
        if fired[3]:        # the release
            spent = True
        elif fired[4]:      # the bank reversal
            sign = -sign
        else:               # the capture
            captured = True

    splits = [te for leg in legs for te in leg.t_events[2]]
    if not splits:
        raise RuntimeError("descent profile never reaches the bank threshold")
    t_split = max(float(splits[0]) - t_pierce, 10.0)
    t_total = max(float(t) - t_pierce, t_split + 40.0)
    return _joined(legs), t_pierce + t_split, t_pierce + t_total


def initial_guess(config: MissionConfig, nlp) -> np.ndarray:
    """Packed first iterate: powered gravity turn, ballistic coast, and a
    feedback-steered glide, each flown on its phase's node callback and
    clipped into the variable boxes."""
    phases = nlp.problem.phases
    ascent = calibrate_kick(config, phases)[1]["flights"]
    t_pierce = ascent[5].t[-1]
    entry, t_split, t_end = _entry_profile(
        config, phase_contexts(config)[6], phases[6], ascent[5].y[:, -1],
        t_pierce)
    flown = [_joined([f]) for f in ascent] + [entry, entry]
    times = [(f.t[0], f.t[-1]) for f in ascent] + [(t_pierce, t_split),
                                                   (t_split, t_end)]

    states, controls = [], []
    for p, (t0, tf) in enumerate(times):
        # the collocation nodes are the state nodes but the last
        ys, us = flown[p](t0 + nlp.node_taus(p)[1] * (tf - t0))
        if p == 7:
            # the dive is flown in geodetic form, its controls left at zero
            ys, us = vert_from_geo(ys), np.zeros_like(us)
        states.append(ys)
        controls.append(us[:-1])

    z = nlp.pack(states, controls, times)
    # balance each accumulator against its own quadrature: the balance row
    # is the accumulator minus the quadrature, so at 0 it reads -quadrature
    for name, idx in nlp.acc_idx.items():
        z[idx] = 0.0
        z[idx] = -nlp.constraints(z)[nlp.con_names.index(f"acc:{name}:balance")]
    return nlp.clip_to_bounds(z)


# --------------------------------------------------------------------------
# solving and studies


def solve_mission(config: MissionConfig, *,
                  warm: Solution | None = None) -> RefinementReport:
    problem = build_mission(config)     # validates the config
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
    if not sweep.get("qdot_max") and not sweep.get("q_heat_max"):
        raise ConfigError("sweep needs a qdot_max or q_heat_max list in "
                          "the config's sweep section")
    qd_list = list(sweep.get("qdot_max", [])) or [config.limits.qdot_max]
    ql_list = list(sweep.get("q_heat_max", [])) or [config.limits.q_heat_max]

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
