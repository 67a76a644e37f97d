"""Tests of the benchmark's own rules, checks, tracer and BENCHMARK.json.

Run from the repository root:  python3 -m pytest -q bench/tests
"""
import dataclasses
import json
import re
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

import checks
import pace
import run
import stats
import tracing
from ascentry.canonical import (double_integrator_problem,
                                scalar_energy_problem, straight_line_guess)
from ascentry.meshref import refine_loop
from ascentry.nlpsolve import SolverOptions, solve
from ascentry.transcription import transcribe

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


# ------------------------------------------------------------ percentiles

@pytest.mark.parametrize("n, expected", [
    (1, None), (39, None), (40, 75), (99, 75), (100, 90), (999, 90),
    (1000, 99), (50000, 99)])
def test_tail_needs_ten_samples_beyond_it(n, expected):
    assert stats.tail_percentile(n) == expected
    if expected is not None:
        assert n * (100 - expected) / 100 >= 10


def test_few_samples_report_the_median_alone():
    assert stats.latency_summary([3.0, 1.0, 2.0]) == {"p50": 2.0}
    assert set(stats.latency_summary(list(range(39)))) == {"p50"}


def test_tail_is_reported_once_supported():
    summary = stats.latency_summary([float(i) for i in range(1, 101)])
    assert set(summary) == {"p50", "p90"}
    assert summary["p50"] == 50.5
    assert 90.0 <= summary["p90"] <= 91.0


# ------------------------------------------------------- canonical check

@pytest.fixture(scope="module")
def scalar_energy():
    problem, meshes = scalar_energy_problem()
    report = refine_loop(problem, meshes, straight_line_guess)
    nlp = transcribe(problem, [ph.mesh for ph in report.solution.phases])
    return nlp, report.last_solve


def test_canonical_check_accepts_the_solution(scalar_energy):
    nlp, rep = scalar_energy
    assert checks.check_canonical("scalar-energy", nlp, rep.x,
                                  rep.objective, 1e-6) == []


def test_canonical_check_rejects_an_objective_that_is_off(scalar_energy):
    nlp, rep = scalar_energy
    found = checks.check_canonical("scalar-energy", nlp, rep.x,
                                   rep.objective + 1e-3, 1e-6)
    assert any("objective" in p for p in found)


def test_canonical_check_rejects_a_moved_node(scalar_energy):
    nlp, rep = scalar_energy
    x = rep.x.copy()
    x[nlp.phase_layout[0].x_off + 2] += 1e-3  # an interior state node
    found = checks.check_canonical("scalar-energy", nlp, x, rep.objective,
                                   1e-6)
    assert any("state" in p for p in found)
    assert any("violation" in p for p in found)


def test_canonical_check_rejects_a_wrong_control(scalar_energy):
    nlp, rep = scalar_energy
    x = rep.x.copy()
    x[nlp.phase_layout[0].u_off] += 0.1
    found = checks.check_canonical("scalar-energy", nlp, x, rep.objective,
                                   1e-6)
    assert any("control" in p for p in found)


# ------------------------------------------------------ evaluation check

@pytest.fixture(scope="module")
def evaluation():
    problem, meshes = double_integrator_problem()
    nlp = transcribe(problem, meshes)
    rng = np.random.default_rng(3)
    z = nlp.clip_to_bounds(straight_line_guess(nlp)
                           + 0.1 * rng.standard_normal(nlp.n_var))
    out = (nlp.objective(z), nlp.constraints(z), nlp.objective_gradient(z),
           nlp.jacobian(z))
    directions = [rng.standard_normal(nlp.n_var) for _ in range(2)]
    return nlp, z, out, directions


def test_evaluation_check_accepts_the_program(evaluation):
    nlp, z, out, directions = evaluation
    assert checks.check_evaluation(nlp, z, *out, directions) == []


def test_evaluation_check_rejects_one_scaled_jacobian_entry(evaluation):
    nlp, z, (f, c, g, jac), directions = evaluation
    bad = jac.copy()
    bad.data[int(np.argmax(np.abs(bad.data)))] *= 1.5
    found = checks.check_evaluation(nlp, z, f, c, g, bad, directions)
    assert any("jacobian @ v" in p for p in found)


def test_evaluation_check_rejects_an_entry_outside_the_pattern(evaluation):
    nlp, z, (f, c, g, jac), directions = evaluation
    rows, cols = nlp.sparsity()
    taken = set(zip(rows.tolist(), cols.tolist()))
    r, k = next((r, k) for r in range(nlp.n_con) for k in range(nlp.n_var)
                if (r, k) not in taken)
    bad = jac.tolil()
    bad[r, k] = 1e-12
    found = checks.check_evaluation(nlp, z, f, c, g, bad.tocsr(), directions)
    assert any("outside sparsity" in p for p in found)


def test_evaluation_check_rejects_a_wrong_gradient(evaluation):
    nlp, z, (f, c, g, jac), directions = evaluation
    bad = g.copy()
    bad[nlp.phase_layout[0].u_off] += 1.0
    found = checks.check_evaluation(nlp, z, f, c, bad, jac, directions)
    assert any("gradient" in p for p in found)


def test_evaluation_check_rejects_non_finite_values(evaluation):
    nlp, z, (f, c, g, jac), directions = evaluation
    found = checks.check_evaluation(nlp, z, np.nan, c, g, jac, directions)
    assert found == ["evaluation set has non-finite values"]


# ------------------------------------------------------ capped-solve check

@pytest.fixture(scope="module")
def capped():
    problem, meshes = double_integrator_problem()
    nlp = transcribe(problem, meshes)
    rep = solve(nlp, straight_line_guess(nlp), SolverOptions(max_iterations=2))
    return nlp, rep


def test_capped_check_accepts_the_solver(capped):
    nlp, rep = capped
    assert rep.iterations == 2
    assert checks.check_capped_solve(nlp, rep, 2, 1e-6) == []


@pytest.mark.parametrize("change, expected", [
    (lambda r: {"violation": r.violation + 1e-9}, "reported violation"),
    (lambda r: {"objective": r.objective * 1.0001}, "reported objective"),
    (lambda r: {"iterations": 3}, "exceed the cap"),
])
def test_capped_check_rejects_a_misreport(capped, change, expected):
    nlp, rep = capped
    bad = dataclasses.replace(rep, **change(rep))
    found = checks.check_capped_solve(nlp, bad, 2, 1e-6)
    assert any(expected in p for p in found)


def test_capped_check_rejects_converged_at_an_infeasible_point(capped):
    nlp, rep = capped
    x = rep.x.copy()
    x[nlp.phase_layout[0].x_off + 4] += 1e-3  # an interior state node
    bad = dataclasses.replace(rep, x=x, status="converged",
                              objective=nlp.objective(x),
                              violation=checks.violation(nlp, x))
    found = checks.check_capped_solve(nlp, bad, 2, 1e-6)
    assert found and all("reports converged" in p for p in found)


def test_capped_check_rejects_a_point_outside_the_box(capped):
    nlp, rep = capped
    x = rep.x.copy()
    j = int(np.flatnonzero(np.isfinite(nlp.z_hi))[0])
    x[j] = nlp.z_hi[j] + 1.0
    bad = dataclasses.replace(rep, x=x, objective=nlp.objective(x),
                              violation=checks.violation(nlp, x))
    found = checks.check_capped_solve(nlp, bad, 2, 1e-6)
    assert any("variable box" in p for p in found)


# ------------------------------------------------------------------ tracer

def test_tracer_self_time_excludes_traced_children():
    ns = types.SimpleNamespace()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        ns.inner()
    ns.inner, ns.outer = inner, outer
    tracer = tracing.Tracer([("in", [(ns, "inner")], None, None),
                             ("out", [(ns, "outer")], None, None)])
    tracer.install()
    tracer.request_span(0, ns.outer)
    tracer.uninstall()
    assert ns.inner is inner and ns.outer is outer
    names, dur, self_t, req = tracer.arrays()
    assert list(names) == ["request", "out", "in"]
    assert list(req) == [0, 0, 0]
    assert tracer.parent == [-1, 0, 1]
    assert self_t[2] == pytest.approx(dur[2])
    assert self_t[1] == pytest.approx(dur[1] - dur[2])
    assert 0.008 < self_t[1] < 0.019
    assert self_t[0] < 1e-3


def test_the_runner_offers_every_workload():
    import workloads
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


def test_every_per_layer_metric_has_a_unit():
    assert set(run.JSON_LAYERS) <= set(tracing.UNITS)
    assert set(tracing.PER_LAYER) | {"trace.overhead_pct"} == set(tracing.UNITS)


# --------------------------------------------------------- BENCHMARK.json

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_benchmark_json_has_its_fixed_form():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(spec) == ["command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"]
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["paths"] == ["bench"]
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60
    names = [w["name"] for w in spec["workloads"]]
    assert 2 <= len(names) <= 8
    assert set(names) <= set(run.WORKLOAD_NAMES)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and "\n" not in w["why"]
        assert len(w["why"]) <= 200
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert {n: m["unit"] for n, m in e2e.items()} == run.END_TO_END
    for m in e2e.values():
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    assert e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    layers = {m["name"]: m for m in spec["per_layer"]}
    assert list(layers) == list(run.JSON_LAYERS)
    for m in layers.values():
        assert set(m) == {"name", "unit", "better"}
        assert m["unit"] == tracing.UNITS[m["name"]]
    all_names = names + list(e2e) + list(layers)
    assert len(all_names) == len(set(all_names))
    assert all(NAME.match(n) for n in all_names)


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "canonical-solve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


# -------------------------------------------------------------------- pace

def test_pace_of_a_request_comes_from_the_samples_around_it():
    host = pace.Pace()
    ref = pace.REFERENCE
    host.times = [0.0, 1.0, 2.0, 10.0, 11.0]
    host.samples = [ref, ref, 3 * ref, 2 * ref, 2 * ref]
    assert host.factors([0.2, 10.2], [0.1, 0.1]) == [1.0, 2.0]
    # no sample nearby: the pace of the whole run
    assert host.factors([50.0], [1.0]) == [2.0]
