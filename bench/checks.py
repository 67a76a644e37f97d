"""Independent checks of the outputs the benchmark times.

Each check returns a list of problems, empty when the output is right.  The
checks run outside the timed spans and recompute what they compare from the
returned point, not from the solver's own bookkeeping.
"""
from __future__ import annotations

import numpy as np

# closed forms of the canonical problems: objective, x(t), u(t)
CLOSED_FORMS = {
    "scalar-energy": (1.0, lambda t: t, lambda t: np.ones_like(t)),
    "double-integrator": (12.0, lambda t: 3 * t**2 - 2 * t**3,
                          lambda t: 6.0 - 12.0 * t),
    "exponential": (0.0, np.exp, np.zeros_like),
}
# objective and states are held to 100 x tolerance; the controls are only
# weakly determined at the solver's tolerance, so they get 1e4 x tolerance,
# which at 1e-6 is still a 1% envelope around the closed form
STATE_FACTOR = 1e2
CONTROL_FACTOR = 1e4


def violation(nlp, x) -> float:
    """Largest constraint or bound violation at x, in the problem's units."""
    c = nlp.constraints(x)
    parts = [nlp.c_lo - c, c - nlp.c_hi, nlp.z_lo - x, x - nlp.z_hi]
    return float(max(0.0, *(np.max(p, initial=0.0) for p in parts)))


def check_canonical(name, nlp, x, objective, tol) -> list[str]:
    """Objective and node values against the closed form, and feasibility.

    `nlp` is rebuilt by the caller from the solution's own mesh, `x` is the
    solver's returned point and `objective` the value it reported.
    """
    j_ref, x_ref, u_ref = CLOSED_FORMS[name]
    problems = []
    if not np.all(np.isfinite(x)):
        return [f"{name}: non-finite point"]
    if abs(objective - j_ref) > STATE_FACTOR * tol * max(1.0, abs(j_ref)):
        problems.append(f"{name}: objective {objective!r} != {j_ref}")
    t_coll, t_state = nlp.node_times(x, 0)
    xs = nlp.states(x, 0)[:, 0]
    us = nlp.controls(x, 0)[:, 0]
    x_err = np.abs(xs - x_ref(t_state)).max()
    if x_err > STATE_FACTOR * tol * max(1.0, np.abs(x_ref(t_state)).max()):
        problems.append(f"{name}: state off the closed form by {x_err:.3g}")
    u_err = np.abs(us - u_ref(t_coll)).max()
    if u_err > CONTROL_FACTOR * tol * max(1.0, np.abs(u_ref(t_coll)).max()):
        problems.append(f"{name}: control off the closed form by {u_err:.3g}")
    v = violation(nlp, x)
    if v > tol:
        problems.append(f"{name}: recomputed violation {v:.3g} > {tol:g}")
    return problems


def check_evaluation(nlp, z, f, c, g, jac, directions, step=1e-6,
                     rtol=1e-5) -> list[str]:
    """One evaluation set: finiteness, pattern, and directional derivatives.

    Along each direction v (already scaled to the variables), `jac @ v` and
    `g . v` must match central differences of the constraints and the
    objective with step `step`, row by row, to `rtol` of the row's magnitude.
    """
    problems = []
    if not (np.isfinite(f) and np.all(np.isfinite(c)) and np.all(np.isfinite(g))
            and np.all(np.isfinite(jac.data))):
        return ["evaluation set has non-finite values"]
    rows, cols = nlp.sparsity()
    allowed = set(zip(rows.tolist(), cols.tolist()))
    coo = jac.tocoo()
    outside = [(r, k) for r, k in zip(coo.row.tolist(), coo.col.tolist())
               if (r, k) not in allowed]
    if outside:
        problems.append(f"{len(outside)} Jacobian nonzeros outside sparsity()")
    for v in directions:
        dc = (nlp.constraints(z + step * v)
              - nlp.constraints(z - step * v)) / (2 * step)
        df = (nlp.objective(z + step * v)
              - nlp.objective(z - step * v)) / (2 * step)
        jv = jac @ v
        scale = abs(jac) @ np.abs(v) + np.abs(dc) + 1e-8
        bad = np.flatnonzero(np.abs(jv - dc) > rtol * scale)
        if len(bad):
            problems.append(f"jacobian @ v disagrees with differences in "
                            f"{len(bad)} rows, first {int(bad[0])}")
        gv = float(g @ v)
        if abs(gv - df) > rtol * (float(np.abs(g) @ np.abs(v)) + abs(df) + 1e-8):
            problems.append(f"gradient . v = {gv!r}, differences give {df!r}")
    return problems


def check_capped_solve(nlp, rep, cap, tol) -> list[str]:
    """A capped SQP solve: reported values equal recomputed ones, x in box."""
    x = rep.x
    if not np.all(np.isfinite(x)):
        return ["solve returned a non-finite point"]
    problems = []
    f = nlp.objective(x)
    v = violation(nlp, x)
    if not np.isclose(rep.objective, f, rtol=1e-12, atol=0.0):
        problems.append(f"reported objective {rep.objective!r}, "
                        f"recomputed {f!r}")
    if not np.isclose(rep.violation, v, rtol=1e-12, atol=0.0):
        problems.append(f"reported violation {rep.violation!r}, "
                        f"recomputed {v!r}")
    if np.any(x < nlp.z_lo) or np.any(x > nlp.z_hi):
        problems.append("returned point leaves the variable box")
    if rep.iterations > cap:
        problems.append(f"{rep.iterations} iterations exceed the cap {cap}")
    if rep.status == "converged" and v > tol:
        problems.append(f"reports converged at violation {v:.3g} > {tol:g}")
    return problems
