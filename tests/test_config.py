"""The mission config file format: pinned bytes, round trips, rejections."""
import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

from ascentry import mission as M
from ascentry.models import EarthConstants
from ascentry.pathcost import HeatingParams

DATA = Path(__file__).parent / "data"
DEG = M.DEG


def _every_field_config() -> M.MissionConfig:
    """A valid config with every file field away from its default."""
    base = M.MissionConfig()
    s1, s2, s3 = base.stages
    return replace(
        base,
        earth=EarthConstants(mu=3.986e5, re=6378.137, omega=7.2921159e-5,
                             g0=9.80665e-3),
        stages=(replace(s1, name="first", burn_time=56.5),
                replace(s2, name="second", ref_area=4.3),
                replace(s3, name="third", empty_mass=640.0)),
        fairing_mass=410.0, payload_mass=3100.0, entry_mass=900.0,
        entry_area=0.5, t_fairing=179.0,
        limits=M.PathLimits(q_max=120.0, q_split=11.0, n_max=11.5,
                            h_atm=79.0, h_peak_lo=101.0, h_peak_hi=199.0,
                            qdot_max=2.5, q_heat_max=300.0),
        cost=M.CostParams(alpha_bar_boost=0.5 * DEG,
                          alpha_bar_entry=12.0 * DEG, alpha_max=24.0 * DEG,
                          u_alpha_max=9.0 * DEG, u_sigma_max=29.0 * DEG,
                          k=4.0),
        bc=M.BoundaryData(lon0=-120.5 * DEG, lat0=34.5 * DEG, hf=0.01,
                          lonf=-192.25 * DEG, latf=8.75 * DEG, vf=1.2,
                          pad_elevation=0.11, tower_height=0.06),
        heating=HeatingParams(kappa=200.0, rho0=1.2, v_circ=7.9,
                              exp_rho=0.51, exp_v=3.1),
        mesh=((5, 3), (4, 5), (4, 4), (2, 4), (3, 4), (3, 5), (6, 4), (8, 3)),
        mesh_tolerance=5.0e-5, max_refinements=7, solver_tolerance=1.0e-7,
        solver_max_iterations=300, guess_apogee=120.0,
        atmosphere="atm.csv", boost_aero=["boost_cl.csv", "boost_cd.csv"],
        entry_aero=["entry_cl.csv", "entry_cd.csv"])


CASES = {"mission_default.json": M.default_config,
         "mission_every_field.json": _every_field_config}


@pytest.mark.parametrize("name", sorted(CASES))
def test_to_json_reproduces_the_pinned_file(name):
    text = json.dumps(CASES[name]().to_dict(), indent=1) + "\n"
    assert text.encode() == (DATA / name).read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_from_json_of_the_pinned_file_is_the_config(name):
    data = json.loads((DATA / name).read_text())
    assert M.MissionConfig.from_dict(data) == CASES[name]()


def test_defaults_need_no_file():
    assert M.MissionConfig.from_dict({}) == M.default_config()
    assert M.MissionConfig.from_dict({"problem": "mission",
                                      "sweep": {"qdot_max": [1.0]}}) \
        == M.default_config()


@pytest.mark.parametrize("doc, names", [
    ({"limts": {"q_max": 100.0}}, "'limts'"),
    ({"limits": {"qdot_mx": 1.5}}, "'qdot_mx'"),
    ({"cost": {"alpha_max": 20.0}}, "'alpha_max'"),
    ({"tables": {"atmos": "a.csv"}}, "'atmos'"),
    ({"stages": [dict(M.MissionConfig().to_dict()["stages"][0], mass=1.0)]},
     "stages[0]"),
    # the liftoff state and the stages' propellant follow from the vehicle
    ({"boundary": {"t0": 2.52}}, "'t0'"),
    ({"boundary": {"h0": 0.167}}, "'h0'"),
    ({"boundary": {"v0": 0.04}}, "'v0'"),
    ({"boundary": {"m0": 85743.0}}, "'m0'"),
    ({"stages": [dict(M.MissionConfig().to_dict()["stages"][0],
                      fuel_mass=45360.0)]}, "stages[0]"),
])
def test_unknown_sections_and_keys_are_rejected(doc, names):
    with pytest.raises(M.ConfigError, match="unknown|keys") as err:
        M.MissionConfig.from_dict(doc)
    assert names in str(err.value)


@pytest.mark.parametrize("section, key, value", [
    ("limits", "qdot_max", math.nan),
    ("limits", "qdot_max", math.inf),
    ("limits", "q_heat_max", "nan"),
    ("limits", "q_max", None),
    ("earth", "mu", math.nan),
    ("heating", "kappa", math.nan),
    ("heating", "kappa", -math.inf),
    ("cost", "alpha_max_deg", math.inf),
    ("boundary", "lat0_deg", "heavy"),
])
def test_non_finite_numbers_are_rejected(section, key, value):
    with pytest.raises(M.ConfigError, match=f"{section}.{key}"):
        M.MissionConfig.from_dict({section: {key: value}})


def test_non_finite_stage_numbers_are_rejected():
    stages = M.MissionConfig().to_dict()["stages"]
    stages[1]["isp"] = math.nan
    with pytest.raises(M.ConfigError, match=r"stages\[1\].isp"):
        M.MissionConfig.from_dict({"stages": stages})


@pytest.mark.parametrize("doc, where", [
    ({"limits": {"n_max": " 12 "}}, "limits.n_max"),
    ({"solver": {"max_iterations": "7"}}, "solver.max_iterations"),
    ({"mesh": [[4, "4"]] * 8}, r"mesh\[0\]"),
])
def test_strings_are_not_numbers(doc, where):
    with pytest.raises(M.ConfigError, match=f"{where} must be a number"):
        M.MissionConfig.from_dict(doc)


def test_stage_names_must_be_strings():
    stages = M.MissionConfig().to_dict()["stages"]
    stages[1]["name"] = [1, 2]
    with pytest.raises(M.ConfigError,
                       match=r"stages\[1\].name must be a string"):
        M.MissionConfig.from_dict({"stages": stages})


def test_null_lifts_only_the_heating_limits():
    cfg = M.MissionConfig.from_dict({"limits": {"qdot_max": None,
                                                "q_heat_max": None}})
    assert math.isinf(cfg.limits.qdot_max)
    assert math.isinf(cfg.limits.q_heat_max)


@pytest.mark.parametrize("doc, where", [
    ({"mesh": [[4, 4]] * 7 + [[2.7, 4]]}, r"mesh\[7\]"),
    ({"mesh": [[4, 4.5]] * 8}, r"mesh\[0\]"),
    ({"solver": {"max_iterations": 2.7}}, "solver.max_iterations"),
    ({"refinement": {"max_refinements": 2.5}}, "refinement.max_refinements"),
    ({"refinement": {"max_refinements": math.inf}},
     "refinement.max_refinements"),
])
def test_fractional_counts_are_rejected(doc, where):
    with pytest.raises(M.ConfigError, match=where):
        M.MissionConfig.from_dict(doc)


@pytest.mark.parametrize("doc, where, rule", [
    ({"solver": {"tolerance": 0.0}}, "solver.tolerance",
     "tolerance must be positive"),
    ({"solver": {"max_iterations": 0}}, "solver.max_iterations",
     "max_iterations must be at least 1"),
    ({"refinement": {"tolerance": -1e-4}}, "refinement.tolerance",
     "mesh_tolerance must be positive"),
    ({"refinement": {"max_refinements": -2}}, "refinement.max_refinements",
     "max_refinements must be at least 1"),
])
def test_option_ranges_are_the_options_own(doc, where, rule):
    # the options classes own the rule; the loader names the key
    with pytest.raises(M.ConfigError) as err:
        M.MissionConfig.from_dict(doc)
    assert str(err.value) == f"{where}: {rule}"


@pytest.mark.parametrize("limit", ["qdot_max", "q_heat_max"])
def test_heating_limits_must_be_positive(limit):
    with pytest.raises(M.ConfigError, match=f"limits.{limit} must be positive"):
        M.MissionConfig.from_dict({"limits": {limit: 0.0}})
    with pytest.raises(M.ConfigError, match=f"limits.{limit} must be positive"):
        replace(M.MissionConfig(), limits=replace(
            M.PathLimits(), **{limit: -1.0})).validate()


@pytest.mark.parametrize("row", [f for f in M.CONFIG_FIELDS
                                 if f.kind == "positive"], ids=lambda f: f.where)
def test_positive_rows_reject_zero_by_key(row):
    # the row's own rule, read from the file and on a built config alike
    with pytest.raises(M.ConfigError, match=f"^{row.where} must be positive"):
        M.MissionConfig.from_dict({row.section: {row.key: 0.0}})
    cfg = M.MissionConfig()
    head, _, attr = row.attr.rpartition(".")
    if head:
        setattr(cfg, head, replace(getattr(cfg, head), **{attr: -1.0}))
    else:
        setattr(cfg, attr, -1.0)
    with pytest.raises(M.ConfigError, match=f"^{row.where} must be positive"):
        cfg.validate()


def test_whole_counts_may_be_written_as_floats():
    cfg = M.MissionConfig.from_dict({"mesh": [[4.0, 4]] * 8,
                                     "solver": {"max_iterations": 30.0}})
    assert cfg.mesh == ((4, 4),) * 8
    assert cfg.solver_max_iterations == 30
    assert isinstance(cfg.solver_max_iterations, int)


@pytest.mark.parametrize("doc", [
    {"mesh": {"phase1": [4, 4]}},
    {"mesh": [[4, 4, 4]] * 8},
    {"stages": {"name": "solo"}},
    {"stages": ["stage1"]},
])
def test_malformed_list_sections_are_rejected(doc):
    with pytest.raises(M.ConfigError):
        M.MissionConfig.from_dict(doc)


def test_readme_documents_every_config_field():
    text = (Path(__file__).parent.parent / "README.md").read_text()
    section = text.split("## Configuration file", 1)[1].split("\n## ", 1)[0]
    for f in M.CONFIG_FIELDS:
        row = (f"| `{f.section}` |" if f.key is None
               else f"| `{f.section}` | `{f.key}` |")
        assert row in section, row


@pytest.mark.parametrize("key, value", [("lon0_deg", -80.0),
                                        ("lat0_deg", 60.0),
                                        ("lonf_deg", -220.0),
                                        ("latf_deg", 0.0)])
def test_launch_and_target_points_must_lie_in_the_flight_corridor(key, value):
    # every phase's longitude and latitude box is the corridor: a point
    # outside it would leave its pinned node an empty box
    with pytest.raises(M.ConfigError, match=f"boundary.{key} lies outside"):
        M.MissionConfig.from_dict({"boundary": {key: value}})
