import math

import numpy as np
import pytest

from matdisc import disc, frames, linalg, model
from matdisc.errors import InvalidShape, PreconditionViolated, TooLarge

from conftest import count_matrices


def rademacher_frame(d, vectors):
    return model.RankOneInstance(d, tuple(vectors), tuple(model.DiscreteRandomVariable.rademacher() for _ in vectors))


def test_harmonic_orthonormal_case():
    f = frames.harmonic_untf(4, 4)
    assert np.abs(model.outer_products(f.vectors).sum(axis=0) - np.eye(4)).max() < 1e-10


@pytest.mark.parametrize("n,d", [(3, 2), (7, 4), (9, 5), (5, 3)])
def test_harmonic_frame_operator_and_norms(n, d):
    f = frames.harmonic_untf(n, d)
    assert linalg.residual_norm(model.outer_products(f.vectors).sum(axis=0) - (n / d) * np.eye(d)) < 1e-10
    for v in f.vectors:
        assert abs(float(np.vdot(v, v).real) - 1.0) < 1e-12


def test_harmonic_invalid_shape():
    with pytest.raises(InvalidShape):
        frames.harmonic_untf(2, 3)


def test_analyze_orthonormal():
    a = frames.analyze_frame(frames.harmonic_untf(3, 3))
    assert a.is_tight and a.is_unit_norm
    assert a.frame_bound == pytest.approx(1.0, abs=1e-12)
    assert a.sigma_sq == pytest.approx(1.0, abs=1e-12)


def test_analyze_mercedes_benz_values():
    a = frames.analyze_frame(frames.harmonic_untf(3, 2))
    assert a.frame_bound == pytest.approx(1.5, abs=1e-12)
    assert a.sigma_sq == pytest.approx(1.5, abs=1e-12)


def test_analyze_non_tight_frame_skips_lower_bound(rng):
    inst = rademacher_frame(3, [rng.normal(size=3) for _ in range(4)])
    a = frames.analyze_frame(inst)
    assert not a.is_tight
    assert a.sigma_sq == pytest.approx(model.sigma(inst) ** 2, rel=1e-12)


def test_verify_untf_orthonormal_patterns():
    res = frames.verify_untf_disc(frames.harmonic_untf(3, 3))
    assert res["all_patterns_constant"] and res["value"] == pytest.approx(1.0, abs=1e-12)


def test_verify_untf_mercedes_benz():
    res = frames.verify_untf_disc(frames.harmonic_untf(3, 2))
    assert res["all_patterns_constant"]
    assert res["value"] == pytest.approx(1.5, abs=1e-9)


def test_verify_untf_large_pair():
    res = frames.verify_untf_disc(frames.harmonic_untf(9, 5))
    assert res["all_patterns_constant"]
    assert res["value"] == pytest.approx(9.0 / 5.0, abs=1e-9)


def test_verify_untf_in_sign_blocks(monkeypatch):
    # the 2^9 patterns reach the eigensolver at most disc._SIGN_BATCH at a
    # time, each once, and give the verdict and the value of one batch
    frame = frames.harmonic_untf(9, 5)
    whole = frames.verify_untf_disc(frame)
    monkeypatch.setattr(disc, "_SIGN_BATCH", 8)
    eigvalsh = count_matrices(monkeypatch, "eigvalsh")
    res = frames.verify_untf_disc(frame)
    # besides the patterns, the gate takes two norms
    assert eigvalsh["largest"] == 8 and eigvalsh["matrices"] == 2**9 + 2
    assert res["all_patterns_constant"] and res["sigma_sq"] == whole["sigma_sq"]
    assert res["value"] == pytest.approx(whole["value"], rel=1e-12)


def test_verify_untf_rejects_out_of_range():
    with pytest.raises(PreconditionViolated):
        frames.verify_untf_disc(frames.harmonic_untf(6, 3))  # n > 2d - 1
    with pytest.raises(PreconditionViolated):
        frames.verify_untf_disc(rademacher_frame(2, (np.array([1.0, 0.0]), np.array([0.7, 0.2]))))


def test_verify_untf_requires_rademacher_laws():
    # the vectors pass the gate; laws of variance 1 other than Rademacher do not
    frame = frames.harmonic_untf(3, 2)
    law = model.DiscreteRandomVariable((-2.0, 0.5), (0.2, 0.8))
    assert law.variance == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(PreconditionViolated):
        frames.verify_untf_disc(model.RankOneInstance(2, frame.vectors, (law,) * 3))


def test_edge_ratio_matches_closed_form():
    for d in (2, 3, 4, 5):
        n = 2 * d - 1
        f = frames.harmonic_untf(n, d)
        res = frames.verify_untf_disc(f)
        sigma = math.sqrt(frames.analyze_frame(f).sigma_sq)
        assert res["value"] / sigma == pytest.approx(math.sqrt(2.0 - 1.0 / d), abs=1e-9)


def test_diagonal_family_too_large():
    with pytest.raises(TooLarge):
        frames.verify_lower_bound(6)
    with pytest.raises(TooLarge):
        frames.verify_lower_bound(0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lower_bound_exact(n):
    res = frames.verify_lower_bound(n)
    assert res["disc"] == n and isinstance(res["disc"], int)
    assert res["sigma_sq"] == n and isinstance(res["sigma_sq"], int)
    assert res["log_factor_ratio"] == pytest.approx(1.0, abs=1e-12)


def test_lower_bound_agrees_with_float_bruteforce():
    # diagonal i holds coordinate i of every sign vector
    h = frames._sign_vectors(2)
    inst = model.HermitianInstance(
        4,
        tuple(np.diag(h[:, i]).astype(float) for i in range(2)),
        tuple(model.DiscreteRandomVariable.rademacher() for _ in range(2)),
    )
    assert disc.disc_bruteforce(inst).value == pytest.approx(2.0, abs=1e-12)


def test_frame_to_instance_round_trip():
    # the frame is the solver's instance, and it survives the file format
    inst = frames.harmonic_untf(5, 3)
    assert isinstance(inst, model.RankOneInstance)
    assert inst.n == 5 and all(rv.is_rademacher() for rv in inst.rvs)
    assert model.sigma(inst) ** 2 == pytest.approx(5.0 / 3.0, abs=1e-10)
    assert model.dumps_instance(model.loads_instance(model.dumps_instance(inst))) == model.dumps_instance(inst)


def test_general_tight_frame_bound_on_scaled_basis_unions(rng):
    # sampled non-unit-norm tight frames: unions of differently scaled
    # orthonormal bases; the sqrt(n/d) * sigma bound must hold exactly
    for _ in range(5):
        d = int(rng.integers(2, 4))
        k = int(rng.integers(2, 4))
        scales = rng.uniform(0.5, 2.0, size=k)
        vectors = []
        for s in scales:
            q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
            vectors.extend(s * q[:, j] for j in range(d))
        inst = rademacher_frame(d, vectors)
        assert frames.analyze_frame(inst).is_tight
        value = disc.disc_bruteforce(inst).value
        n = len(vectors)
        assert value <= math.sqrt(n / d) * model.sigma(inst) + 1e-9
