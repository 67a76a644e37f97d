"""Run one benchmark workload against the ascentry sources of this checkout.

    python3 bench/run.py --workload canonical-solve --seed 1 --seconds 15 --trace 0

With --trace 0 the run is untraced and reports the end-to-end metrics, its
times divided by the host's pace (see pace.py).  With --trace 1 it traces
set-up, then runs every request twice in a row, untraced and traced, and
reports the per-layer metrics together with the tracing overhead; its spans
go to .bench_out/.  The last line of standard output is one JSON object:
correct, attempted, failed and metrics.
"""
from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
# one thread everywhere: the host has two cores and the figures must not
# depend on how many of them a thread pool happens to get
THREAD_PINS = {"ASCENTRY_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKLOAD_NAMES = ("canonical-solve", "mission-eval", "mission-sqp")

END_TO_END = {"setup_s": "s", "request_p50_s": "s", "requests_per_s": "1/s",
              "peak_rss_mb": "MB"}
# the per-layer metrics that go into the result line: all counts, and the
# times that no listed workload reads as a structural zero; the traced run
# prints every per-layer metric above the result line
JSON_LAYERS = (
    "models.aero_calls", "models.aero_points", "models.atmosphere_calls",
    "dynamics.rates_calls", "pathcost.calls",
    "transcription.objective_s", "transcription.objective_calls",
    "transcription.constraints_s", "transcription.constraints_calls",
    "transcription.gradient_s", "transcription.gradient_calls",
    "transcription.jacobian_s", "transcription.jacobian_calls",
    "transcription.build_s", "nlpsolve.self_s", "nlpsolve.sqp_iterations",
    "nlpsolve.final_violation", "nlpsolve.final_stationarity",
    "meshref.rounds", "meshref.collocation_points", "trace.overhead_pct",
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


@dataclass
class Window:
    """Requests of one measuring window."""
    starts: list[float] = field(default_factory=list)
    durations: list[float] = field(default_factory=list)
    passed: list[bool] = field(default_factory=list)  # did not fail
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.passed.count(False)

    @property
    def latencies(self) -> list[float]:
        return [d for d, ok in zip(self.durations, self.passed) if ok]

    def time(self, req, run, pace=None):
        """Time `run()` as `req`, then judge its output outside the timing.

        With a pace sampling the host's speed, the samples' own time is
        left out of the duration.
        """
        spent = pace.spent if pace else 0.0
        t0 = time.perf_counter()
        try:
            out = run()
        except Exception:
            print(f"{req.label}: raised\n{traceback.format_exc()}",
                  file=sys.stderr)
            out = None
        dt = time.perf_counter() - t0
        if pace:
            dt -= pace.spent - spent
        self.starts.append(t0)
        self.durations.append(dt)
        failed, problems = (True, []) if out is None else req.judge(out)
        self.passed.append(not failed)
        if not failed:
            self.problems += problems


def run_windows(make_round, seconds, tracer=None, pace=None) -> list[Window]:
    """Whole rounds from round 0 until `seconds` have passed.

    With a tracer, every request runs twice in a row, untraced and then
    traced, into two windows: host speed drifts by more than the tracing
    costs, so only back-to-back pairs show the overhead.
    """
    plain = Window()
    traced = Window() if tracer is not None else None
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < seconds:
        for req in make_round(r):
            plain.time(req, req.run, pace)
            if traced is None:
                continue
            tracer.install()
            try:
                traced.time(req, lambda: tracer.request_span(
                    len(traced.durations), req.run))
            finally:
                tracer.uninstall()
        r += 1
    return [plain] if traced is None else [plain, traced]


def import_workloads():
    """The workloads module, with ascentry from this checkout's sources."""
    src = ROOT / "src"
    if not (src / "ascentry" / "__init__.py").is_file():
        raise ImportError(f"no ascentry sources under {src}")
    sys.path.insert(0, str(src))
    import ascentry
    if not Path(ascentry.__file__).resolve().is_relative_to(src):
        raise ImportError(f"ascentry imported from {ascentry.__file__}, "
                          f"not from {src}")
    import workloads
    return workloads


def untraced(args):
    """End-to-end metrics, the host's pace sampled from set-up on."""
    import pace
    import stats
    host = pace.Pace()
    host.start()
    try:
        make_round = import_workloads().WORKLOADS[args.workload](args.seed)
        setup_end = time.perf_counter()
        setup_spent = host.spent
        [w] = run_windows(make_round, args.seconds, pace=host)
    finally:
        host.stop()
    if not w.latencies:
        raise RuntimeError("no request succeeded")
    setup_dt = setup_end - PROCESS_START - setup_spent
    [setup_pace] = host.factors([PROCESS_START], [setup_dt])
    factors = host.factors(w.starts, w.durations)
    paced = [d / f for d, f in zip(w.durations, factors)]
    passed = [d for d, ok in zip(paced, w.passed) if ok]
    timed = stats.latency_summary(w.latencies)
    lat = stats.latency_summary(passed)
    print(f"pace {setup_pace!r} in set-up, {statistics.median(factors)!r} "
          f"median over requests ({len(host.samples)} samples)")
    print(f"setup_s {setup_dt!r} s as timed")
    for key, val in lat.items():
        print(f"request_{key}_s {val!r} s at the reference pace, "
              f"{timed[key]!r} s as timed (of {len(passed)} requests)")
    print(f"requests_per_s {len(passed) / sum(w.durations)!r} 1/s as timed")
    metrics = {
        "setup_s": setup_dt / setup_pace,
        "request_p50_s": lat["p50"],
        "requests_per_s": len(passed) / sum(paced),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return [w], metrics, END_TO_END


def traced(args):
    """Per-layer metrics and the tracing overhead, spans to OUT_DIR."""
    workloads = import_workloads()
    import tracing
    tracer = tracing.Tracer(tracing.layer_table())
    tracer.install()
    try:
        make_round = workloads.WORKLOADS[args.workload](args.seed)
    finally:
        tracer.uninstall()
    plain, with_spans = run_windows(make_round, args.seconds, tracer)
    if not (plain.latencies and with_spans.latencies):
        raise RuntimeError("no request succeeded")
    layers = tracing.layer_metrics(tracer, len(with_spans.durations))
    layers["trace.overhead_pct"] = 100.0 * (statistics.median(
        t / p for t, p in zip(with_spans.durations, plain.durations)) - 1.0)
    units = tracing.UNITS
    metrics = {k: layers[k] for k in JSON_LAYERS}
    for key, val in layers.items():
        if key not in metrics:
            print(f"{key} {val!r} {units[key]}")
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans)
    print(f"spans written to {spans}")
    return [plain, with_spans], metrics, units


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(THREAD_PINS)  # before numpy is first imported
    try:
        windows, metrics, units = (traced if args.trace else untraced)(args)
    except (ImportError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    problems = [p for w in windows for p in w.problems]
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    for key, val in metrics.items():
        print(f"{key} {val!r} {units[key]}")
    result = {
        "correct": not problems,
        "attempted": sum(len(w.durations) for w in windows),
        "failed": sum(w.failed for w in windows),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
