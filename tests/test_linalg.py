import numpy as np
import numpy.polynomial.polynomial as npp
import pytest

from matdisc import disc, linalg
from matdisc.errors import InvalidOrder, NonHermitianInput

from conftest import faddeev_leverrier, random_hermitian, random_unitary, schatten_norm


def test_eigvals_diagonal():
    assert np.allclose(linalg.eigvals_hermitian(np.diag([1.0, 2.0, 3.0])), [1, 2, 3])


def test_eigvals_zero():
    assert np.allclose(linalg.eigvals_hermitian(np.zeros((4, 4))), 0.0)


def test_eigvals_against_charpoly_root_oracle():
    rng = np.random.default_rng(17)
    m = random_hermitian(rng, 5)
    coeffs = faddeev_leverrier(m)
    oracle = np.sort(np.real(npp.polyroots(coeffs)))
    assert np.abs(linalg.eigvals_hermitian(m) - oracle).max() < 1e-9


def test_eigvals_reconstruction():
    rng = np.random.default_rng(3)
    m = random_hermitian(rng, 6)
    w, v = np.linalg.eigh(m)
    assert np.abs(v @ np.diag(w) @ v.conj().T - m).max() <= 1e-10 * linalg.spectral_norm(m)


def test_eigvals_unitary_invariance():
    rng = np.random.default_rng(9)
    m = random_hermitian(rng, 5)
    u = random_unitary(rng, 5)
    a = linalg.eigvals_hermitian(m)
    b = linalg.eigvals_hermitian(u.conj().T @ m @ u)
    assert np.abs(a - b).max() < 1e-9


def test_non_hermitian_rejected():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NonHermitianInput):
        linalg.eigvals_hermitian(bad)


def test_symmetrization_of_last_bit_noise():
    m = np.array([[1.0, 0.5 + 1e-15], [0.5, 2.0]])
    out = linalg.require_hermitian(m)
    assert np.abs(out - out.conj().T).max() == 0.0


def test_spectral_norm_examples():
    assert linalg.spectral_norm(np.diag([-3.0, 2.0])) == 3.0
    assert linalg.spectral_norm(np.eye(7)) == pytest.approx(1.0, abs=1e-14)
    u = np.array([1.0, 1.0]) / np.sqrt(2)
    assert linalg.spectral_norm(np.outer(u, u)) == pytest.approx(1.0, abs=1e-12)


def test_spectral_norm_equals_max_charpoly_root():
    rng = np.random.default_rng(11)
    m = random_hermitian(rng, 5)
    roots = npp.polyroots(faddeev_leverrier(m))
    assert linalg.spectral_norm(m) == pytest.approx(np.abs(np.real(roots)).max(), abs=1e-9 * linalg.spectral_norm(m))


def test_schatten_examples():
    for p in (1.0, 2.0, 3.5, np.inf):
        expect = 5.0 ** (1.0 / p) if p != np.inf else 1.0
        assert schatten_norm(np.eye(5), p) == pytest.approx(expect, abs=1e-12)
    assert schatten_norm(np.diag([3.0, 4.0]), 2.0) == pytest.approx(5.0, abs=1e-12)


def test_schatten_matches_eig_oracle():
    rng = np.random.default_rng(5)
    m = random_hermitian(rng, 4)
    w = np.linalg.eigvalsh(m)
    assert schatten_norm(m, 4.0) == pytest.approx(np.sum(np.abs(w) ** 4) ** 0.25, abs=1e-10)


def test_schatten_frobenius_identity():
    rng = np.random.default_rng(6)
    m = random_hermitian(rng, 5)
    fro = np.sqrt(np.sum(np.abs(m) ** 2))
    assert schatten_norm(m, 2.0) == pytest.approx(fro, rel=1e-10)


def test_schatten_nonincreasing_in_p():
    rng = np.random.default_rng(7)
    m = random_hermitian(rng, 5)
    ps = [1.0, 1.5, 2.0, 3.0, 4.0, 8.0, 16.0, np.inf]
    vals = [schatten_norm(m, p) for p in ps]
    assert all(vals[i + 1] <= vals[i] + 1e-12 for i in range(len(vals) - 1))


def test_schatten_invalid_order():
    with pytest.raises(InvalidOrder):
        schatten_norm(np.eye(2), 0.5)
    # the brute force serves finite orders only; inf would evaluate to 1.0
    for p in (np.inf, np.nan):
        with pytest.raises(InvalidOrder):
            disc._norm_fn(("schatten", p))
