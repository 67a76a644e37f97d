import json
import os
import subprocess
import sys
from pathlib import Path

from ascentry import mission as M

SRC = Path(__file__).resolve().parents[1] / "src"

# a fresh interpreter: the transcription module, the CLI module, a canonical
# solve through refine_loop on its default mesh, the mission transcription
# on its default meshes and the tower clearance must not load scipy's
# integrator or root finder; a flight loads the integrator
_AUDIT = """
import json, sys

def loaded():
    return [name for name in ("scipy.integrate", "scipy.optimize")
            if name in sys.modules]

from ascentry.transcription import fly, transcribe
imported = loaded()
import ascentry.cli
from ascentry import mission as M
from ascentry.canonical import CANONICAL_PROBLEMS, straight_line_guess
from ascentry.meshref import refine_loop

prob, meshes = CANONICAL_PROBLEMS["scalar-energy"]()
report = refine_loop(prob, meshes, straight_line_guess)
cfg = M.default_config()
nlp = transcribe(M.build_mission(cfg), M.default_meshes(cfg))
before = loaded()
tc = M.tower_clear_propagate(cfg)
after = loaded()
flight = fly(prob.phases[0], [0.0], 0.0, 1.0, lambda t, x: [1.0])
print(json.dumps({"converged": report.converged, "n_var": nlp.n_var,
                  "imported": imported, "before": before, "after": after,
                  "flown": loaded(), "x_end": flight.y[0, -1],
                  "tower_clear": [tc.time, tc.speed, tc.mass, tc.altitude]}))
"""


def test_canonical_solve_and_transcription_skip_scipy_integrate_and_optimize():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", _AUDIT], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout.splitlines()[-1])
    assert out["converged"] and out["n_var"] > 0
    assert out["imported"] == out["before"] == []
    assert out["after"] == []
    assert out["flown"] == ["scipy.integrate", "scipy.optimize"]
    assert abs(out["x_end"] - 1.0) < 1e-9
    tc = M.tower_clear_propagate(M.default_config())
    assert out["tower_clear"] == [tc.time, tc.speed, tc.mass, tc.altitude]
