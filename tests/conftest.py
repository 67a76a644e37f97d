import numpy as np
import pytest

from ascentry.transcription import _CS_STEP


def _reference_phase_point(nlp, z, p):
    """The node outputs and partials of phase p by the per-column loop: the
    node callback and the cost at the nodes, as complex points, then one
    call each per state/control column j, on the nodes with 1j * _CS_STEP
    added to column j.  V holds the node output's columns as rows, then the
    cost."""
    ph = nlp.problem.phases[p]
    X = nlp.states(z, p)[:-1].astype(complex)
    U = nlp.controls(z, p).astype(complex)
    nc = X.shape[0]

    def probe(Xp, Up):
        rows = list(np.reshape(ph.node(Xp, Up), (nc, -1)).T)
        if ph.cost is not None:
            rows.append(np.asarray(ph.cost(Xp, Up)).reshape(-1))
        return np.array(rows)

    V = probe(X, U)
    dN = np.zeros((nc, ph.nx + ph.nu, len(V)))
    for j in range(ph.nx + ph.nu):
        Xp, Up = X.copy(), U.copy()
        if j < ph.nx:
            Xp[:, j] += 1j * _CS_STEP
        else:
            Up[:, j - ph.nx] += 1j * _CS_STEP
        dN[:, j, :] = probe(Xp, Up).imag.T / _CS_STEP
    return {"V": V.real, "dN": dN}


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
