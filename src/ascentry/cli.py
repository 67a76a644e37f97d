"""Command line front end: solve, sweep, check, transcribe-only."""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np

from . import mission as M
from .canonical import CANONICAL_PROBLEMS, straight_line_guess
from .meshref import RefinementOptions, refine_loop
from .nlpsolve import SolverOptions
from .transcription import transcribe, uniform_mesh

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NO_CONVERGENCE = 2


class _Parser(argparse.ArgumentParser):
    """A usage error is a configuration error: exit 1, not argparse's 2,
    which the exit codes keep for a run that did not converge."""

    def error(self, message):
        raise M.ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="ascentry",
        description="Combined launch-to-entry trajectory optimization.")
    p.add_argument("--command", default="solve",
                   choices=["solve", "sweep", "check", "transcribe-only"],
                   help="what to do with the configured problem")
    p.add_argument("--config", help="JSON problem configuration "
                                    "(omitted: built-in nominal mission)")
    p.add_argument("--out", default="ascentry_out",
                   help="output directory (created if missing)")
    return p


def _load_config(args) -> tuple[str, dict]:
    """(problem name, raw dict).  No file means the nominal mission."""
    if args.config is None:
        return "mission", {}
    path = Path(args.config)
    if not path.exists():
        raise M.ConfigError(f"config file not found: {path}")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise M.ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise M.ConfigError("config must be a JSON object")
    problem = data.get("problem", "mission")
    if not isinstance(problem, str) or (problem != "mission"
                                        and problem not in CANONICAL_PROBLEMS):
        known = ", ".join(["mission"] + sorted(CANONICAL_PROBLEMS))
        raise M.ConfigError(f"unknown problem {problem!r}; known: {known}")
    return problem, data


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# --------------------------------------------------------------------------
# output files: the only writers in the package


def write_csv(path, columns, rows) -> None:
    """Header line, then one line per row: numbers as %.10g, text as given."""
    with open(path, "w") as f:
        f.write(",".join(columns) + "\n")
        for row in rows:
            f.write(",".join(v if isinstance(v, str) else f"{v:.10g}"
                             for v in row) + "\n")


def _finite(doc):
    """`doc` with every non-finite number replaced by None (JSON null)."""
    if isinstance(doc, dict):
        return {key: _finite(v) for key, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_finite(v) for v in doc]
    if isinstance(doc, float) and not math.isfinite(doc):
        return None
    return doc


def write_json(path, doc, indent=None, end="") -> None:
    """Strict JSON: a non-finite number is written as null."""
    with open(path, "w") as f:
        json.dump(_finite(doc), f, indent=indent, allow_nan=False)
        f.write(end)


# --------------------------------------------------------------------------
# plot data families


PLOTS = (
    ("plot_gamma_vs_t.csv", "t,gamma_deg", {"t": 1.0, "gamma": 1.0 / M.DEG}),
    ("plot_h_v_vs_t.csv", "t,h_km,v_km_s", {"t": 1.0, "h": 1.0, "v": 1.0}),
    ("plot_qdot_n_vs_t.csv", "t,qdot_MW_m2,n_g",
     {"t": 1.0, "qdot": 1.0, "n": 1.0}),
    ("plot_alpha_sigma_vs_t.csv", "t,alpha_deg,sigma_deg",
     {"t": 1.0, "alpha": 1.0 / M.DEG, "sigma": 1.0 / M.DEG}),
)


def emit_plots(out: Path, table: np.ndarray) -> list[Path]:
    """Per-figure CSV families sampled from the trajectory table."""
    paths = []
    for name, header, scales in PLOTS:
        idx = [M.TRAJECTORY_COLUMNS.index(col) for col in scales]
        write_csv(out / name, header.split(","),
                  table[:, idx] * np.array(list(scales.values())))
        paths.append(out / name)
    return paths


def emit_sweep_plots(out: Path, results) -> list[Path]:
    cost_path = out / "plot_cost_vs_limit.csv"
    write_csv(cost_path, ("qdot_max_MW_m2", "q_heat_max_MJ_m2", "objective",
                          "status"),
              ((r.qdot_max, r.q_heat_max, r.objective, r.status)
               for r in results))

    # tightest feasible heat load for each heating-rate branch
    frontier: dict[float, float] = {}
    for r in results:
        if r.converged:
            cur = frontier.get(r.qdot_max, math.inf)
            frontier[r.qdot_max] = min(cur, r.q_heat_max)
    map_path = out / "plot_failure_map.csv"
    write_csv(map_path, ("qdot_max_MW_m2", "min_feasible_q_heat_MJ_m2"),
              ((qd, frontier[qd]) for qd in sorted(frontier, reverse=True)))
    return [cost_path, map_path]


# --------------------------------------------------------------------------
# commands


def _cmd_check(cfg: M.MissionConfig) -> int:
    # the assembly resolves the tables and refuses a phase box left empty
    M.build_mission(cfg)
    tc = M.tower_clear_propagate(cfg)
    g0 = cfg.earth.g0
    print("mission bookkeeping")
    print(f"  ignition mass          {cfg.ignition_mass:,.1f} kg")
    for s in cfg.stages:
        print(f"  {s.name}: burn {s.burn_time:.1f} s, thrust {s.thrust:.1f} kN,"
              f" Isp {s.isp:.0f} s, flow {s.mass_rate(g0):.2f} kg/s,"
              f" fuel {s.mass_rate(g0) * s.burn_time:,.0f} kg,"
              f" empty {s.empty_mass:,.0f} kg")
    print(f"  mass after stage 1 sep {cfg.m_s2:,.1f} kg")
    print(f"  mass after stage 2 sep {cfg.m_s3:,.1f} kg")
    print(f"  coast stack            {cfg.coast_mass:,.1f} kg")
    print(f"  entry vehicle          {cfg.entry_mass:,.3f} kg,"
          f" area {cfg.entry_area} m^2")
    print(f"  staging timeline       {tc.time:.3f} -> {cfg.t_s1} -> {cfg.t_s2}"
          f" -> {cfg.t_fairing} -> {cfg.t_s3} s")
    print(f"  tower clear            t={tc.time:.3f} s, v={tc.speed:.4f} km/s,"
          f" m={tc.mass:,.1f} kg")
    lim = cfg.limits
    qd = "unbounded" if math.isinf(lim.qdot_max) else f"{lim.qdot_max:g} MW/m^2"
    ql = ("unbounded" if math.isinf(lim.q_heat_max)
          else f"{lim.q_heat_max:g} MJ/m^2")
    print(f"  limits                 q<={lim.q_max} kPa, n<={lim.n_max} g,"
          f" qdot {qd}, heat load {ql}")
    print("  configuration valid")
    return EXIT_OK


# a test problem's defaults for the mission's solver and refinement rows
CANONICAL_DEFAULTS = {"solver_tolerance": 1e-8, "solver_max_iterations": 200,
                      "mesh_tolerance": 1e-6, "max_refinements": 6}


def _canonical_setup(problem: str, data: dict):
    """A test problem with its `mesh`, `solver` and `refinement` sections,
    loaded by the mission's rows; any other section is an error."""
    prob, meshes = CANONICAL_PROBLEMS[problem]()
    given = {**CANONICAL_DEFAULTS,
             **M.load_fields(data, {"mesh", "solver", "refinement"})}
    if "mesh" in given:
        M.check_mesh(given["mesh"], len(prob.phases))
        meshes = [uniform_mesh(n, d) for n, d in given["mesh"]]
    solver = SolverOptions(tolerance=given["solver_tolerance"],
                           max_iterations=given["solver_max_iterations"])
    refinement = RefinementOptions(mesh_tolerance=given["mesh_tolerance"],
                                   max_refinements=given["max_refinements"])
    return prob, meshes, solver, refinement


def _write_canonical_outputs(out: Path, report) -> None:
    phases = report.solution.phases
    blocks = []
    for ph in phases:
        tt = np.unique(np.concatenate([ph.state_times(),
                                       np.linspace(ph.t0, ph.tf, 101)]))
        blocks.append(np.column_stack([tt, ph.sample_states(tt),
                                       ph.sample_controls(tt)]))
    header = ["t", *phases[0].state_names, *phases[0].control_names]
    write_csv(out / "trajectory.csv", header, np.vstack(blocks))


def _cmd_solve(problem: str, data: dict, cfg, out: Path) -> int:
    if problem == "mission":
        report = M.solve_mission(cfg)
    else:
        prob, meshes, solver, refinement = _canonical_setup(problem, data)
        report = refine_loop(prob, meshes, straight_line_guess, refinement,
                             solver)
    write_json(out / "mesh_history.json", report.history, indent=1)
    last = report.last_solve
    summary = {"problem": problem, "status": report.status,
               "objective": last.objective, "violation": last.violation,
               "mesh_converged": report.converged,
               "refinement_iterations": report.iterations}
    if problem == "mission":
        # the study row's flight figures, between its limits and its status
        row = dict(zip(M.STUDY_COLUMNS, astuple(M.summarize_run(cfg, report))))
        summary.update((key, row[key]) for key in M.STUDY_COLUMNS[3:-1])
        table = M.trajectory_table(cfg, report.solution)
        write_csv(out / "trajectory.csv", M.TRAJECTORY_COLUMNS, table)
        emit_plots(out, table)
    else:
        _write_canonical_outputs(out, report)
    write_json(out / "summary.json", summary, indent=1, end="\n")
    print(f"{problem}: {report.status}, objective {last.objective:.8g}")
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


def _cmd_sweep(cfg: M.MissionConfig, sweep: dict, out: Path) -> int:
    def progress(r):
        print(f"  qdot_max={r.qdot_max:g} q_heat_max={r.q_heat_max:g}: "
              f"{r.status}, objective {r.objective:.6g}")

    results = M.run_study(cfg, sweep, progress=progress)
    write_csv(out / "study.csv", M.STUDY_COLUMNS,
              (astuple(r) for r in results))
    emit_sweep_plots(out, results)
    ok = all(r.converged for r in results)
    print(f"sweep: {sum(r.converged for r in results)}/{len(results)} "
          f"cells converged")
    return EXIT_OK if ok else EXIT_NO_CONVERGENCE


def _cmd_transcribe(problem: str, data: dict, cfg, out: Path) -> int:
    if problem == "mission":
        prob, meshes = M.build_mission(cfg), M.default_meshes(cfg)
    else:
        prob, meshes, _, _ = _canonical_setup(problem, data)
    nlp = transcribe(prob, meshes)
    write_json(out / "layout.json", nlp.layout())
    print(f"{problem}: {nlp.n_var} variables, {nlp.n_con} constraints")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        problem, data = _load_config(args)
        cfg = sweep = None
        if problem == "mission":
            # every mission command reads the sweep section, so a fault in
            # it is an error whatever the command
            cfg = M.MissionConfig.from_dict(data)
            sweep = M.load_sweep(data.get("sweep", {}))
        elif args.command in ("check", "sweep"):
            raise M.ConfigError(f"{args.command} applies to the mission "
                                "problem only")
        if args.command == "check":
            return _cmd_check(cfg)
        out = _outdir(args)
        if args.command == "solve":
            return _cmd_solve(problem, data, cfg, out)
        if args.command == "sweep":
            return _cmd_sweep(cfg, sweep, out)
        return _cmd_transcribe(problem, data, cfg, out)
    except M.ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
