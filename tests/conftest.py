import math
import threading

import numpy as np
import pytest

from matdisc import disc, model


def faddeev_leverrier(mat):
    """Independent characteristic-polynomial oracle (trace recurrence).

    Returns ascending coefficients of det(xI - M).
    """
    m = np.asarray(mat, dtype=complex)
    d = m.shape[0]
    coeffs = np.zeros(d + 1, dtype=complex)
    coeffs[d] = 1.0
    mk = np.eye(d, dtype=complex)
    for k in range(1, d + 1):
        mk = m @ mk
        ck = -np.trace(mk) / k
        coeffs[d - k] = ck
        mk = mk + ck * np.eye(d)
    return np.real(coeffs)


def random_hermitian(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2.0


def schatten_norm(mat, p):
    """Schatten p-norm of a Hermitian matrix, by the brute force's norm kind."""
    return float(disc._norm_fn(("schatten", p))(np.linalg.eigvalsh(mat)))


def random_unitary(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_rank_one_instance(rng, d, n, supports=(2, 3)):
    vectors = tuple((rng.normal(size=d) + 1j * rng.normal(size=d)) / math.sqrt(2.0) for _ in range(n))
    rvs = []
    for _ in range(n):
        size = int(rng.choice(supports))
        vals = np.sort(rng.uniform(-2.0, 2.0, size=size))
        while size > 1 and float(np.diff(vals).min()) < 0.1:
            vals = np.sort(rng.uniform(-2.0, 2.0, size=size))
        probs = np.clip(rng.dirichlet(np.full(size, 2.0)), 0.05, None)
        rvs.append(model.DiscreteRandomVariable(tuple(vals), tuple(probs / probs.sum())))
    return model.RankOneInstance(d, vectors, tuple(rvs))


def count_matrices(monkeypatch, name):
    """Count the calls to ``numpy.linalg.<name>``, the matrices they are
    handed (a stack of shape (..., k, k) counts its leading size) and the
    most handed to one call."""
    counter = {"calls": 0, "matrices": 0, "largest": 0}
    kernel = getattr(np.linalg, name)
    lock = threading.Lock()  # kernels may run in worker threads

    def counting(a, *args, **kwargs):
        with lock:
            counter["calls"] += 1
            counter["matrices"] += math.prod(np.shape(a)[:-2])
            counter["largest"] = max(counter["largest"], math.prod(np.shape(a)[:-2]))
        return kernel(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)
    return counter


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
