import json
import math

import numpy as np
import pytest

from ascentry import cli
from ascentry import meshref
from ascentry import mission as M
from ascentry.meshref import RefinementReport
from ascentry.nlpsolve import SolveReport


class _Captured(Exception):
    """Raised by the patched solvers to end a command once its input is seen."""


@pytest.fixture
def captured(monkeypatch):
    """Replace solve_mission and run_study; record what the CLI hands them."""
    seen = {}

    def fake_solve(config, **kwargs):
        seen["config"] = config
        raise _Captured

    def fake_study(config, sweep, **kwargs):
        seen["config"] = config
        seen["sweep"] = sweep
        return []

    monkeypatch.setattr(M, "solve_mission", fake_solve)
    monkeypatch.setattr(M, "run_study", fake_study)
    return seen


def _write(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc) if not isinstance(doc, str) else doc)
    return str(path)


def test_check_builtin_config_exits_ok(capsys):
    assert cli.main(["--command", "check"]) == cli.EXIT_OK
    assert "configuration valid" in capsys.readouterr().out


@pytest.mark.parametrize("doc, message", [
    (None, "config file not found"),
    ("{not json", "not valid JSON"),
    ({"problem": "lunar-landing"}, "unknown problem"),
    ({"problem": "scalar-energy"}, "sweep applies to the mission problem"),
    ({"problem": ["x"]}, "unknown problem"),
])
def test_bad_input_exits_with_a_config_error(tmp_path, capsys, doc, message):
    path = (str(tmp_path / "missing.json") if doc is None
            else _write(tmp_path, doc))
    command = "sweep" if message.startswith("sweep") else "check"
    code = cli.main(["--command", command, "--config", path,
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "configuration error" in err and message in err


def test_transcribe_only_writes_the_mission_layout(tmp_path):
    out = tmp_path / "out"
    code = cli.main(["--command", "transcribe-only", "--out", str(out)])
    assert code == cli.EXIT_OK
    layout = json.loads((out / "layout.json").read_text())
    assert (layout["n_var"], layout["n_con"]) == (1511, 1342)
    assert len(layout["variables"]) == 1511
    assert len(layout["constraints"]) == 1342


def test_canonical_solve_writes_its_outputs(tmp_path):
    path = _write(tmp_path, {"problem": "scalar-energy",
                             "solver": {"tolerance": 1e-6}})
    out = tmp_path / "out"
    code = cli.main(["--command", "solve", "--config", path,
                     "--out", str(out)])
    assert code == cli.EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["problem"] == "scalar-energy"
    assert summary["status"] == "converged"
    assert summary["objective"] == pytest.approx(1.0, rel=1e-5)
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,x,u"
    history = json.loads((out / "mesh_history.json").read_text())
    assert [entry["iteration"] for entry in history] == \
        list(range(1, summary["refinement_iterations"] + 1))
    for entry in history:
        assert entry["sqp"]
        assert set(entry["sqp"][0]) == {"iteration", "objective",
                                        "feasibility", "step_norm",
                                        "qp_iterations"}


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


def test_written_json_is_strict_when_a_number_is_not_finite(tmp_path,
                                                            monkeypatch):
    # an interval error that is not finite ends the run as numerical_failure
    monkeypatch.setattr(meshref, "estimate_error",
                        lambda phase, node: np.full(phase.mesh.n_intervals,
                                                    np.nan))
    path = _write(tmp_path, {"problem": "scalar-energy"})
    out = tmp_path / "out"
    code = cli.main(["--command", "solve", "--config", path,
                     "--out", str(out)])
    assert code == cli.EXIT_NO_CONVERGENCE
    summary = json.loads((out / "summary.json").read_text(),
                         parse_constant=_reject_constant)
    assert summary["status"] == "numerical_failure"
    history = json.loads((out / "mesh_history.json").read_text(),
                         parse_constant=_reject_constant)
    assert history[0]["phases"][0]["errors"] == [None, None]
    assert history[0]["sqp"]


def test_canonical_solve_out_of_rounds_exits_unconverged(tmp_path):
    path = _write(tmp_path, {"problem": "exponential",
                             "refinement": {"max_refinements": 1}})
    out = tmp_path / "out"
    code = cli.main(["--command", "solve", "--config", path,
                     "--out", str(out)])
    assert code == cli.EXIT_NO_CONVERGENCE
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "max_refinements"
    assert summary["mesh_converged"] is False
    assert summary["refinement_iterations"] == 1


def test_mission_solve_on_an_unconverged_mesh_exits_unconverged(tmp_path,
                                                                monkeypatch):
    # the last solve converged, but the mesh still misses its tolerance
    last = SolveReport(status="converged", iterations=7, objective=114.5,
                       violation=1e-9, x=np.zeros(0))
    report = RefinementReport(converged=False, iterations=10, errors=[],
                              solution=None, solve_reports=[last])
    row = M.StudyResult(math.inf, math.inf, 114.5, 115.0, 7.3, -3.0, 1800.0,
                        4000.0, 8.0, report.status)
    monkeypatch.setattr(M, "solve_mission", lambda cfg, **kw: report)
    monkeypatch.setattr(M, "summarize_run", lambda cfg, rep: row)
    monkeypatch.setattr(M, "trajectory_table", lambda cfg, sol: np.zeros(
        (2, len(M.TRAJECTORY_COLUMNS))))
    out = tmp_path / "out"
    assert cli.main(["--out", str(out)]) == cli.EXIT_NO_CONVERGENCE
    summary = json.loads((out / "summary.json").read_text())
    assert summary["problem"] == "mission"
    assert summary["status"] == "max_refinements"
    assert (summary["objective"], summary["violation"]) == (114.5, 1e-9)
    assert summary["mesh_converged"] is False
    assert summary["refinement_iterations"] == 10
    assert summary["peak_altitude_km"] == 115.0
    assert summary["heat_load_MJ_m2"] == 4000.0
    assert (out / "trajectory.csv").exists()


def test_solve_without_flags_uses_the_file(tmp_path, captured):
    path = _write(tmp_path, {"limits": {"qdot_max": 5.0, "q_heat_max": None},
                             "refinement": {"max_refinements": 4}})
    with pytest.raises(_Captured):
        cli.main(["--config", path, "--out", str(tmp_path / "out")])
    cfg = captured["config"]
    assert cfg.limits.qdot_max == 5.0
    assert math.isinf(cfg.limits.q_heat_max)
    assert cfg.max_refinements == 4


def test_sweep_lists_from_the_config_section(tmp_path, captured):
    path = _write(tmp_path, {"cost": {"k": 2.5},
                             "sweep": {"qdot_max": [None, 2, 1.5],
                                       "q_heat_max": [None]}})
    code = cli.main(["--command", "sweep", "--config", path,
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_OK
    assert captured["sweep"] == {"qdot_max": [math.inf, 2.0, 1.5],
                                 "q_heat_max": [math.inf]}
    assert captured["config"].cost.k == 2.5
    assert (tmp_path / "out" / "study.csv").exists()


@pytest.mark.parametrize("argv", [
    ["--command", "sweep"],
    ["--command", "sweep", "--config", {"sweep": {"qdot_max": [2, -1]}}],
    ["--command", "sweep", "--config", {"sweep": {}}],
    ["--command", "check", "--config", {"limits": {"qdot_max": 0}}],
])
def test_bad_sweep_lists_exit_with_a_config_error(tmp_path, capsys,
                                                  monkeypatch, argv):
    # a config document in argv stands for a file holding it; run_study
    # refuses a sweep with no list before its first solve, so none starts
    solves = []
    monkeypatch.setattr(M, "solve_mission",
                        lambda config, **kwargs: solves.append(config))
    argv = [_write(tmp_path, a) if isinstance(a, dict) else a for a in argv]
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    assert solves == []
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [None, {"sweep": {}}])
def test_a_sweep_with_no_list_is_refused_by_run_study(tmp_path, capsys,
                                                      monkeypatch, doc):
    # the one check of an empty sweep is run_study's, which the command
    # line reaches with the section's lists (none without a section)
    studies = []
    run_study = M.run_study

    def study(config, sweep, **kwargs):
        studies.append(sweep)
        return run_study(config, sweep, **kwargs)

    monkeypatch.setattr(M, "run_study", study)
    argv = ["--command", "sweep", "--out", str(tmp_path / "out")]
    if doc is not None:
        argv += ["--config", _write(tmp_path, doc)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert studies == [{}]
    assert ("configuration error: sweep needs a qdot_max or q_heat_max list "
            "in the config's sweep section") in capsys.readouterr().err


def _stage2_empty_mass(mass):
    stages = M.MissionConfig().to_dict()["stages"]
    stages[1]["empty_mass"] = mass
    return stages


@pytest.mark.parametrize("doc, message", [
    ({"limits": {"qdot_mx": 1}}, "'qdot_mx'"),
    ({"limts": {"qdot_max": 1}}, "'limts'"),
    ({"limits": {"qdot_max": "nan"}}, "limits.qdot_max"),
    ({"refinement": {"max_refinements": 2.7}}, "refinement.max_refinements"),
    ({"limits": {"n_max": True}}, "limits.n_max must be a number"),
    ({"solver": {"max_iterations": True}},
     "solver.max_iterations must be a number"),
    ({"limits": {"n_max": " 12 "}}, "limits.n_max must be a number"),
    ({"solver": {"max_iterations": "7"}},
     "solver.max_iterations must be a number"),
    # values out of range: rho0 = 0 divides the heating correlation by zero
    # and vf = 0 the vertical-flight rates, so each is a configuration
    # error, not a failed solve
    ({"guess": {"apogee": 250}}, "guess.apogee must sit inside the peak window"),
    ({"heating": {"rho0": 0}}, "heating.rho0 must be positive, got 0.0"),
    ({"heating": {"kappa": 0}}, "heating.kappa must be positive"),
    ({"heating": {"v_circ": -7.9}}, "heating.v_circ must be positive, got -7.9"),
    ({"boundary": {"vf": 0}}, "boundary.vf must be positive"),
    ({"earth": {"mu": -1}}, "earth.mu must be positive"),
    # each leaves a phase's state box empty at an endpoint, a variable's
    # lower bound above its upper one; a solve would clip into the empty
    # box and hand the QP bl > bu
    ({"stages": _stage2_empty_mass(3500)},
     "phase boost2: state m has no value at its first node: "
     "box [13000, 39000], first-node bounds [39101.49899, 39101.49899]"),
    ({"boundary": {"vf": 9.0}},
     "phase entry_dive: state v has no value at its last node: "
     "box [0.3, 8.5], last-node bounds [9, 9]"),
    ({"boundary": {"hf": 75}},
     "phase entry_dive: state h has no value at its last node"),
    ({"limits": {"h_atm": 30}},
     "phase entry_glide: state h has no value at its first node: "
     "box [40, 31]"),
])
def test_check_rejects_ignored_or_malformed_input(tmp_path, capsys, doc,
                                                  message):
    path = _write(tmp_path, doc)
    assert cli.main(["--command", "check", "--config", path]) == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("doc, message", [
    ({"problem": "scalar-energy", "solver": {"tolerance": 1e-6,
                                             "max_iterations": 12.9},
      "refinment": {"max_refinements": 1}}, "'refinment'"),
    ({"problem": "scalar-energy", "solver": {"max_iterations": 12.9}},
     "solver.max_iterations"),
    ({"problem": "exponential", "solver": {"tolerance": "nan"}},
     "solver.tolerance"),
    ({"problem": "exponential", "solver": {"tolerance": -1e-6}},
     "tolerance must be positive"),
    ({"problem": "exponential", "solver": {"max_iter": 3}}, "'max_iter'"),
    ({"problem": "exponential", "refinement": {"max_refinements": 0}},
     "max_refinements"),
    ({"problem": "exponential", "mesh": [[2, 3], [1, 3]]}, "mesh"),
    ({"problem": "exponential", "mesh": [[2.5, 3]]}, "mesh[0]"),
])
@pytest.mark.parametrize("command", ["solve", "transcribe-only"])
def test_canonical_config_is_checked_like_the_mission_file(tmp_path, capsys,
                                                           command, doc,
                                                           message):
    path = _write(tmp_path, doc)
    code = cli.main(["--command", command, "--config", path,
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "configuration error" in err and message in err
    # the mission file reads the same sections through the same rows
    mission = _write(tmp_path, {k: v for k, v in doc.items()
                                if k != "problem"}, "mission.json")
    code = cli.main(["--command", command, "--config", mission,
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("tables", [
    {"atmosphere": "missing_atmosphere.csv"},
    {"boost_aero": ["missing_cl.csv", "missing_cd.csv"]},
    {"entry_aero": "not_a_pair.csv"},
])
@pytest.mark.parametrize("command", ["check", "transcribe-only"])
def test_unreadable_table_file_is_a_config_error(tmp_path, capsys, command,
                                                 tables):
    path = _write(tmp_path, {"tables": {
        key: str(tmp_path / v) if isinstance(v, str) else
        [str(tmp_path / f) for f in v] for key, v in tables.items()}})
    code = cli.main(["--command", command, "--config", path,
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert "configuration error" in err and f"tables.{next(iter(tables))}" in err
    assert "configuration valid" not in out


_SWEEP_FAULTS = [
    ({"qdot_mx": [2.0]}, "'qdot_mx'"),
    ({"qdot_max": [2.0, 0.0]}, "sweep.qdot_max"),
    ({"qdot_max": [2.0, "nan"]}, "sweep.qdot_max"),
    ({"q_heat_max": []}, "sweep.q_heat_max"),
    ({"q_heat_max": 300}, "sweep.q_heat_max"),
    ({"qdot_max": [True]}, "sweep.qdot_max must be a number"),
    ({"qdot_max": ["1.5"]}, "sweep.qdot_max must be a number"),
    ({"qdot_max": ["abc"]}, "sweep.qdot_max must be a number"),
]


def _assert_sweep_fault(tmp_path, capsys, captured, command, sweep, message):
    path = _write(tmp_path, {"sweep": sweep})
    code = cli.main(["--command", command, "--config", path,
                     "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert captured == {}


@pytest.mark.parametrize("sweep, message", _SWEEP_FAULTS)
def test_sweep_section_is_checked_like_the_flags(tmp_path, capsys, captured,
                                                 sweep, message):
    # each list entry is read by the limits row of its key, as the
    # heating-limit values were when they also came as flags
    _assert_sweep_fault(tmp_path, capsys, captured, "sweep", sweep, message)


@pytest.mark.parametrize("sweep, message", _SWEEP_FAULTS)
@pytest.mark.parametrize("command", ["check", "solve", "transcribe-only"])
def test_sweep_section_is_checked_like_the_limits(tmp_path, capsys, captured,
                                                  command, sweep, message):
    # every mission command reads the section, so a fault in it is an
    # error whatever the command
    _assert_sweep_fault(tmp_path, capsys, captured, command, sweep, message)


@pytest.mark.parametrize("argv, message", [
    (["--command", "solv"], "invalid choice: 'solv'"),
    (["--qdot-max", "1"], "unrecognized arguments: --qdot-max 1"),
    (["--bogus"], "unrecognized arguments: --bogus"),
])
def test_usage_error_is_a_config_error(capsys, captured, argv, message):
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "configuration error" in err and message in err
    assert captured == {}


def test_help_exits_ok(capsys):
    with pytest.raises(SystemExit) as stop:
        cli.main(["--help"])
    assert stop.value.code == 0
    assert "--config" in capsys.readouterr().out


def test_plot_files_text_is_pinned(tmp_path):
    c = {name: i for i, name in enumerate(M.TRAJECTORY_COLUMNS)}
    table = np.zeros((2, len(M.TRAJECTORY_COLUMNS)))
    table[:, c["t"]] = [2.52, 1234.5]
    table[:, c["gamma"]] = [np.pi / 2, -1.0e-3]
    table[:, c["qdot"]] = [0.0, 2.0 / 3.0]
    table[:, c["n"]] = [1.0e-9, 11.5]
    paths = cli.emit_plots(tmp_path, table)
    assert [p.name for p in paths] == [
        "plot_gamma_vs_t.csv", "plot_h_v_vs_t.csv", "plot_qdot_n_vs_t.csv",
        "plot_alpha_sigma_vs_t.csv"]
    assert paths[0].read_text() == ("t,gamma_deg\n2.52,90\n"
                                    "1234.5,-0.05729577951\n")
    assert paths[2].read_text() == ("t,qdot_MW_m2,n_g\n2.52,0,1e-09\n"
                                    "1234.5,0.6666666667,11.5\n")
    results = [M.StudyResult(math.inf, 300.0, 114.25, *[0.0] * 6,
                             "converged"),
               M.StudyResult(2.0, 300.0, 115.5, *[0.0] * 6, "converged"),
               M.StudyResult(2.0, 50.0, math.nan, *[math.nan] * 6,
                             "infeasible")]
    cost, frontier = cli.emit_sweep_plots(tmp_path, results)
    assert cost.read_text() == (
        "qdot_max_MW_m2,q_heat_max_MJ_m2,objective,status\n"
        "inf,300,114.25,converged\n2,300,115.5,converged\n"
        "2,50,nan,infeasible\n")
    assert frontier.read_text() == ("qdot_max_MW_m2,min_feasible_q_heat_MJ_m2"
                                    "\ninf,300\n2,300\n")
