import numpy as np
import pytest

from ascentry.transcription import _FD_STEP


def _reference_phase_point(nlp, z, p):
    """The node values and partials of phase p by the per-column loop: the
    callbacks at the nodes, then two calls each per state/control column j,
    on the nodes with column j moved by +h and by -h."""
    ph = nlp.problem.phases[p]
    X = nlp.states(z, p)[:-1]
    U = nlp.controls(z, p)
    nc = X.shape[0]
    nin = ph.nx + ph.nu
    dF = np.zeros((nc, nin, ph.nx))
    dP = np.zeros((len(ph.path), nc, nin))
    dQ = np.zeros((len(ph.integrands), nc, nin))
    dL = np.zeros((nc, nin))

    def probe(Xp, Up):
        f = np.atleast_2d(ph.dynamics(Xp, Up))
        ps = [np.asarray(pc.func(Xp, Up)).reshape(-1) for pc in ph.path]
        qs = [np.asarray(t.func(Xp, Up)).reshape(-1) for t in ph.integrands]
        ls = (np.asarray(ph.cost(Xp, Up)).reshape(-1)
              if ph.cost is not None else None)
        return f, ps, qs, ls

    for j in range(nin):
        if j < ph.nx:
            h = _FD_STEP * np.maximum(1.0, np.abs(X[:, j]))
            Xp, Xm = X.copy(), X.copy()
            Xp[:, j] += h
            Xm[:, j] -= h
            fp, pp, qp, lp = probe(Xp, U)
            fm, pm, qm, lm = probe(Xm, U)
        else:
            ju = j - ph.nx
            h = _FD_STEP * np.maximum(1.0, np.abs(U[:, ju]))
            Up, Um = U.copy(), U.copy()
            Up[:, ju] += h
            Um[:, ju] -= h
            fp, pp, qp, lp = probe(X, Up)
            fm, pm, qm, lm = probe(X, Um)
        inv = 1.0 / (2.0 * h)
        dF[:, j, :] = (fp - fm) * inv[:, None]
        for i in range(len(ph.path)):
            dP[i, :, j] = (pp[i] - pm[i]) * inv
        for i in range(len(ph.integrands)):
            dQ[i, :, j] = (qp[i] - qm[i]) * inv
        if ph.cost is not None:
            dL[:, j] = (lp - lm) * inv
    f, _, qs, ls = probe(X, U)
    return {"F": f, "Q": qs, "L": ls, "dF": dF, "dP": dP, "dQ": dQ,
            "dL": dL if ph.cost is not None else None}


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.ascontiguousarray(a).tobytes()
            == np.ascontiguousarray(b).tobytes())


@pytest.fixture(scope="session")
def assert_probe_matches_loop():
    """Check every phase's stacked node probe at z against the per-column
    loop, values and partials bit for bit."""
    def check(nlp, z):
        for p in range(len(nlp.problem.phases)):
            got = nlp._phase_point(z, p)
            for name, want in _reference_phase_point(nlp, z, p).items():
                have = getattr(got, name)
                if name == "Q":
                    assert len(have) == len(want), (p, name)
                    assert all(map(_same_bits, have, want)), (p, name)
                elif want is None:
                    assert have is None, (p, name)
                else:
                    assert _same_bits(have, want), (p, name)
    return check
