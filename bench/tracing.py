"""Span tracing of ascentry's layers from outside the package.

Each traced function is replaced, while set-up or a request is traced, by
a wrapper that records a span (name, start, end, parent, request).  Functions
are patched where their caller looks the name up: methods on their class,
module functions in the namespace of the module that calls them.  Spans stay
in memory and are written out once, when the run ends.
"""
from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

import numpy as np

from ascentry import meshref, mission, models, nlpsolve, transcription

SETUP = -1  # request id of spans recorded during set-up


def _aero_points(args, kwargs):
    _, alpha, mach = args[:3]
    return np.broadcast(np.asarray(alpha), np.asarray(mach)).size


def _solve_readings(rep):
    return {"sqp_iterations": rep.iterations, "final_violation": rep.violation,
            "final_stationarity": rep.stationarity}


def _refine_readings(rep):
    return {"rounds": rep.iterations,
            "collocation_points": sum(ph.mesh.n_coll
                                      for ph in rep.solution.phases)}


def layer_table():
    """(span name, [(owner, attribute)], points-from-args, readings-from-result)."""
    nlp = transcription.NLPProblem
    return [
        ("models.aero", [(models.AeroTable, "cl"), (models.AeroTable, "cd")],
         _aero_points, None),
        ("models.atmosphere", [(models.AtmosphereTable, "density"),
                               (models.AtmosphereTable, "sound_speed")],
         None, None),
        ("dynamics.rates", [(mission, "geo_rates"), (mission, "vert_rates")],
         None, None),
        ("pathcost", [(mission, name) for name in (
            "dynamic_pressure", "heating_rate", "path_quantities",
            "running_cost_geo", "running_cost_vert")], None, None),
        ("transcription.objective", [(nlp, "objective")], None, None),
        ("transcription.constraints", [(nlp, "constraints")], None, None),
        ("transcription.gradient", [(nlp, "objective_gradient")], None, None),
        ("transcription.jacobian", [(nlp, "jacobian")], None, None),
        ("transcription.build", [(transcription, "transcribe"),
                                 (meshref, "transcribe"),
                                 (nlp, "sparsity")], None, None),
        ("nlpsolve.solve", [(nlpsolve, "solve"), (meshref, "solve")],
         None, _solve_readings),
        ("meshref.refine_loop", [(meshref, "refine_loop")],
         None, _refine_readings),
        ("meshref.estimate_error", [(meshref, "estimate_error")], None, None),
        ("mission.initial_guess", [(mission, "initial_guess")], None, None),
        ("mission.calibrate_kick", [(mission, "calibrate_kick")], None, None),
    ]


class Tracer:
    """In-memory span recorder with install/uninstall of the layer wrappers."""

    def __init__(self, layers):
        self.layers = layers
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.request: list[int] = []
        self.points: dict[tuple[str, bool], int] = defaultdict(int)
        self.readings: dict[str, list] = defaultdict(list)
        self.current_request = SETUP
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def span(self, name, fn, points=None, readings=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.request.append(self.current_request)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self._stack.pop()
            if points is not None:
                self.points[name, self.current_request >= 0] += \
                    points(args, kwargs)
            if readings is not None:
                for key, val in readings(out).items():
                    self.readings[f"{name.split('.')[0]}.{key}"].append(
                        (self.current_request, val))
            return out
        return traced

    def install(self):
        for name, targets, points, readings in self.layers:
            for owner, attr in targets:
                orig = owner.__dict__[attr]
                self._saved.append((owner, attr, orig))
                setattr(owner, attr, self.span(name, orig, points, readings))

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def request_span(self, index, fn):
        """Run fn as request `index`, recorded as a root span."""
        self.current_request = index
        try:
            return self.span("request", fn)()
        finally:
            self.current_request = SETUP

    def arrays(self):
        start = np.asarray(self.start)
        dur = np.asarray(self.end) - start
        parent = np.asarray(self.parent, dtype=np.int64)
        child = np.zeros(len(dur))
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return np.asarray(self.names), dur, dur - child, np.asarray(self.request)

    def write(self, path):
        with open(path, "w") as f:
            for i, name in enumerate(self.names):
                f.write(json.dumps({"name": name, "start": self.start[i],
                                    "end": self.end[i], "parent": self.parent[i],
                                    "request": self.request[i]}) + "\n")


# per-layer metric -> (span or reading name, what to take).  "self" (self
# time), "calls", "points" and "sum" are per timed request, "median" is over
# the solves of the timed requests, "setup" is the inclusive time of the span
# during set-up
PER_LAYER = {
    "models.aero_s": ("models.aero", "self"),
    "models.aero_calls": ("models.aero", "calls"),
    "models.aero_points": ("models.aero", "points"),
    "models.atmosphere_s": ("models.atmosphere", "self"),
    "models.atmosphere_calls": ("models.atmosphere", "calls"),
    "dynamics.rates_s": ("dynamics.rates", "self"),
    "dynamics.rates_calls": ("dynamics.rates", "calls"),
    "pathcost.self_s": ("pathcost", "self"),
    "pathcost.calls": ("pathcost", "calls"),
    "transcription.objective_s": ("transcription.objective", "self"),
    "transcription.objective_calls": ("transcription.objective", "calls"),
    "transcription.constraints_s": ("transcription.constraints", "self"),
    "transcription.constraints_calls": ("transcription.constraints", "calls"),
    "transcription.gradient_s": ("transcription.gradient", "self"),
    "transcription.gradient_calls": ("transcription.gradient", "calls"),
    "transcription.jacobian_s": ("transcription.jacobian", "self"),
    "transcription.jacobian_calls": ("transcription.jacobian", "calls"),
    "transcription.build_s": ("transcription.build", "self"),
    "nlpsolve.self_s": ("nlpsolve.solve", "self"),
    "nlpsolve.sqp_iterations": ("nlpsolve.sqp_iterations", "sum"),
    "nlpsolve.final_violation": ("nlpsolve.final_violation", "median"),
    "nlpsolve.final_stationarity": ("nlpsolve.final_stationarity", "median"),
    "meshref.rounds": ("meshref.rounds", "sum"),
    "meshref.estimate_error_s": ("meshref.estimate_error", "self"),
    "meshref.collocation_points": ("meshref.collocation_points", "sum"),
    "mission.initial_guess_s": ("mission.initial_guess", "setup"),
    "mission.calibrate_kick_s": ("mission.calibrate_kick", "setup"),
}


def layer_metrics(tracer: Tracer, n_requests: int) -> dict[str, float]:
    """Every PER_LAYER metric from the recorded spans and readings."""
    names, dur, self_t, req = tracer.arrays()
    timed = req >= 0
    out = {}
    for metric, (key, how) in PER_LAYER.items():
        if how in ("self", "calls", "setup"):
            sel = names == key
            if how == "self":
                val = float(self_t[sel & timed].sum()) / n_requests
            elif how == "calls":
                val = float((sel & timed).sum()) / n_requests
            else:
                val = float(dur[sel & ~timed].sum())
        elif how == "points":
            val = tracer.points.get((key, True), 0) / n_requests
        else:
            vals = [v for r, v in tracer.readings.get(key, []) if r >= 0]
            if how == "sum":
                val = float(np.sum(vals)) / n_requests if vals else 0.0
            else:
                val = float(np.median(vals)) if vals else 0.0
        out[metric] = val
    return out


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.startswith("nlpsolve.final_"):
        return "1"
    return "count"


UNITS = {m: _unit(m) for m in PER_LAYER} | {"trace.overhead_pct": "%"}
