import numpy as np
import pytest

from ascentry.transcription import _CS_STEP


def _reference_phase_point(nlp, z, p):
    """The node values and partials of phase p by the per-column loop: the
    node callback and the cost at the nodes, as complex points, then one
    call each per state/control column j, on the nodes with 1j * _CS_STEP
    added to column j.  G holds the node output's path and integrand
    columns as rows, then the cost."""
    ph = nlp.problem.phases[p]
    X = nlp.states(z, p)[:-1].astype(complex)
    U = nlp.controls(z, p).astype(complex)
    nc = X.shape[0]
    nin = ph.nx + ph.nu
    nrows = len(ph.path) + len(ph.integrands) + (ph.cost is not None)
    dF = np.zeros((nc, nin, ph.nx))
    dG = np.zeros((nrows, nc, nin))

    def probe(Xp, Up):
        out = np.reshape(ph.node(Xp, Up), (nc, -1))
        gs = [out[:, k] for k in range(ph.nx, out.shape[1])]
        if ph.cost is not None:
            gs.append(np.asarray(ph.cost(Xp, Up)).reshape(-1))
        return out[:, :ph.nx], gs

    for j in range(nin):
        Xp, Up = X.copy(), U.copy()
        if j < ph.nx:
            Xp[:, j] += 1j * _CS_STEP
        else:
            Up[:, j - ph.nx] += 1j * _CS_STEP
        fp, gp = probe(Xp, Up)
        dF[:, j, :] = fp.imag / _CS_STEP
        for i in range(nrows):
            dG[i, :, j] = gp[i].imag / _CS_STEP
    f, gs = probe(X, U)
    return {"F": f.real, "G": np.array(gs).real.reshape(nrows, nc),
            "dF": dF, "dG": dG}


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
                assert _same_bits(getattr(got, name), want), (p, name)
    return check
