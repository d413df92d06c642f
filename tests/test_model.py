import json
import math
import os

import numpy as np
import pytest

from matdisc import cli, disc, model
from matdisc.errors import DegenerateSigma, InvariantViolation, ParseError

from conftest import random_rank_one_instance, random_unitary

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def mercedes_benz():
    vecs = (
        np.array([0.0, 1.0]),
        np.array([-math.sqrt(3) / 2, -0.5]),
        np.array([math.sqrt(3) / 2, -0.5]),
    )
    return model.RankOneInstance(2, vecs, tuple(model.DiscreteRandomVariable.rademacher() for _ in range(3)))


def test_rv_mean_variance():
    rv = model.DiscreteRandomVariable((-1.5, 0.5, 2.0), (0.25, 0.5, 0.25))
    assert rv.mean == pytest.approx(-1.5 * 0.25 + 0.5 * 0.5 + 2.0 * 0.25)
    assert rv.variance >= 0
    # both are stored when the law is built, by the sums over its atoms, and
    # stay out of its repr and its equality
    mean = sum(p * s for p, s in zip(rv.probs, rv.support))
    assert vars(rv)["mean"] == mean
    assert vars(rv)["variance"] == sum(p * (s - mean) ** 2 for p, s in zip(rv.probs, rv.support))
    assert repr(rv) == "DiscreteRandomVariable(support=(-1.5, 0.5, 2.0), probs=(0.25, 0.5, 0.25))"
    assert rv == model.DiscreteRandomVariable((-1.5, 0.5, 2.0), (0.25, 0.5, 0.25))


def test_rv_invariants():
    with pytest.raises(InvariantViolation, match="probs"):
        model.DiscreteRandomVariable((0.0, 1.0), (0.4, 0.5))
    with pytest.raises(InvariantViolation, match="support"):
        model.DiscreteRandomVariable((1.0, 1.0), (0.5, 0.5))
    with pytest.raises(InvariantViolation, match="probs"):
        model.DiscreteRandomVariable((0.0, 1.0), (-0.1, 1.1))


def test_named_constructors():
    r = model.DiscreteRandomVariable.rademacher()
    assert r.mean == 0.0 and r.variance == 1.0 and r.is_rademacher()
    b = model.DiscreteRandomVariable.bernoulli(0.3)
    assert b.mean == pytest.approx(0.3) and b.variance == pytest.approx(0.21)
    assert model.DiscreteRandomVariable.bernoulli(0.0).support == (0.0,)
    assert model.DiscreteRandomVariable.bernoulli(1.0).support == (1.0,)
    assert model.DiscreteRandomVariable((2.5,), (1.0,)).variance == 0.0


def test_sigma_single_vector():
    inst = model.RankOneInstance(2, (np.array([1.0, 0.0]),), (model.DiscreteRandomVariable.rademacher(),))
    assert model.sigma(inst) == pytest.approx(1.0, abs=1e-14)


def test_sigma_constant_rvs_is_zero():
    inst = model.RankOneInstance(
        2,
        (np.array([1.0, 2.0]), np.array([0.0, 1.0])),
        (model.DiscreteRandomVariable((0.3,), (1.0,)), model.DiscreteRandomVariable((-1.0,), (1.0,))),
    )
    assert model.sigma(inst) == 0.0


def test_sigma_mercedes_benz():
    assert model.sigma(mercedes_benz()) ** 2 == pytest.approx(1.5, abs=1e-12)


def test_sigma_unitary_invariance(rng):
    inst = random_rank_one_instance(rng, 3, 4)
    u = random_unitary(rng, 3)
    rotated = model.RankOneInstance(3, tuple(u @ v for v in inst.vectors), inst.rvs)
    assert model.sigma(rotated) == pytest.approx(model.sigma(inst), abs=1e-9)


def test_sigma_scaling_law(rng):
    inst = random_rank_one_instance(rng, 3, 3)
    scaled = model.RankOneInstance(3, tuple(2.0 * v for v in inst.vectors), inst.rvs)
    assert model.sigma(scaled) == pytest.approx(4.0 * model.sigma(inst), rel=1e-12)


def test_normalize_halves_at_sigma_four(rng):
    inst = random_rank_one_instance(rng, 3, 3)
    factor = 2.0 / math.sqrt(model.sigma(inst))
    four = model.RankOneInstance(3, tuple(factor * v for v in inst.vectors), inst.rvs)
    assert model.sigma(four) == pytest.approx(4.0, rel=1e-12)
    out = model.normalize(four)
    for a, b in zip(out.vectors, four.vectors):
        assert np.abs(a - b / 2.0).max() < 1e-12


def test_normalize_idempotent_and_unit(rng):
    inst = random_rank_one_instance(rng, 4, 5)
    out = model.normalize(inst)
    assert model.sigma(out) == pytest.approx(1.0, abs=1e-10)
    again = model.normalize(out)
    for a, b in zip(again.vectors, out.vectors):
        assert np.abs(a - b).max() < 1e-12


def test_normalize_degenerate():
    inst = model.RankOneInstance(2, (np.array([1.0, 0.0]),), (model.DiscreteRandomVariable((1.0,), (1.0,)),))
    with pytest.raises(DegenerateSigma):
        model.normalize(inst)


def test_normalize_is_scale_free():
    # sigma vanishes only with every variance or vector: a rescaled copy of an
    # instance, vectors or supports from 1e-30 to 1e30, normalizes and walks
    # as the original does, and the two degenerate instances are refused
    def top_root(inst):
        rows, trace = cli._walk_check(model.normalize(inst), "")
        assert trace.passed and rows[0]["name"] == "lambda_p_empty"
        return rows[0]["lhs"]

    inst = cli.random_rank_one(np.random.default_rng(4), 3, 5)
    lam = top_root(inst)
    for t in (1e-30, 1e-8, 1e8, 1e30):
        vectors = model.RankOneInstance(3, tuple(t * v for v in inst.vectors), inst.rvs)
        laws = tuple(model.DiscreteRandomVariable(tuple(t * x for x in rv.support), rv.probs) for rv in inst.rvs)
        for scaled in (vectors, model.RankOneInstance(3, inst.vectors, laws)):
            assert top_root(scaled) == pytest.approx(lam, abs=1e-14), t
    zero = model.RankOneInstance(3, tuple(0.0 * v for v in inst.vectors), inst.rvs)
    point_laws = model.RankOneInstance(3, inst.vectors, tuple(model.DiscreteRandomVariable((2.0,), (1.0,)) for _ in inst.rvs))
    for degenerate in (zero, point_laws):
        with pytest.raises(DegenerateSigma):
            model.normalize(degenerate)


def test_json_round_trip_bit_for_bit(rng, tmp_path):
    inst = random_rank_one_instance(rng, 3, 4)
    path = tmp_path / "inst.json"
    model.save_instance(inst, path)
    text1 = path.read_text()
    loaded = model.load_instance(path)
    assert model.dumps_instance(loaded) == text1


def test_json_hermitian_round_trip(rng, tmp_path):
    from conftest import random_hermitian

    mats = tuple(random_hermitian(rng, 3) for _ in range(2))
    inst = model.HermitianInstance(3, mats, (model.DiscreteRandomVariable.rademacher(),) * 2)
    path = tmp_path / "h.json"
    model.save_instance(inst, path)
    loaded = model.load_instance(path)
    assert isinstance(loaded, model.HermitianInstance)
    assert model.dumps_instance(loaded) == path.read_text()


def _dumps_instance_old(inst):
    # model.dumps_instance before it rendered from stacked arrays, verbatim
    def _complex_pair(z):
        return [float(np.real(z)), float(np.imag(z))]

    doc = {"dim": inst.dim}
    if isinstance(inst, model.RankOneInstance):
        doc["kind"] = "rank_one"
        doc["vectors"] = [[_complex_pair(z) for z in v] for v in inst.vectors]
    else:
        doc["kind"] = "hermitian"
        doc["matrices"] = [[[_complex_pair(z) for z in row] for row in m] for m in inst.matrices]
    doc["rvs"] = [{"support": list(rv.support), "probs": list(rv.probs)} for rv in inst.rvs]
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def test_dumps_instance_matches_the_per_entry_document():
    rng = np.random.default_rng(20261022)
    insts = [random_rank_one_instance(rng, 1 + k % 5, 1 + k % 6) for k in range(30)]
    insts += [cli.random_hermitian_instance(rng, 1 + k % 4, 1 + k % 5, k % 2 == 0) for k in range(20)]
    # signed zeros, tiny and large entries, and a point law at 1e300 (an
    # entry of 1e300 would square past the float range and be refused)
    point = model.DiscreteRandomVariable((1e300,), (1.0,))
    edge = np.array([complex(-0.0, 1e-300), complex(1e150, -0.0), complex(-1e-300, 1e150)])
    insts.append(model.RankOneInstance(1, (edge[:1],), (point,)))
    insts.append(model.RankOneInstance(3, (edge, -edge), (point, model.DiscreteRandomVariable.rademacher())))
    mat = np.array([[-0.0, 1e-300 + 1e150j], [1e-300 - 1e150j, 1e150]])
    insts.append(model.HermitianInstance(1, (np.array([[-0.0]]),), (point,)))
    insts.append(model.HermitianInstance(2, (mat, -mat), (point, point)))
    for inst in insts:
        assert model.dumps_instance(inst) == _dumps_instance_old(inst)
    text = model.dumps_instance(insts[-3])
    assert all(f"{x!r}," in text for x in (-0.0, 1e-300, -1e-300, 1e150)) and "1e+300" in text


def test_json_bad_probs_is_invariant_violation():
    doc = {
        "dim": 1,
        "kind": "rank_one",
        "vectors": [[[1.0, 0.0]]],
        "rvs": [{"support": [-1.0, 1.0], "probs": [0.4, 0.5]}],
    }
    with pytest.raises(InvariantViolation, match="probs"):
        model.loads_instance(json.dumps(doc))


def test_json_parse_errors():
    with pytest.raises(ParseError, match="line"):
        model.loads_instance("{not json")
    with pytest.raises(ParseError, match="dim"):
        model.loads_instance("{}")
    with pytest.raises(ParseError, match="kind"):
        model.loads_instance('{"dim": 2, "kind": "other", "rvs": []}')


def test_golden_fixture_loads():
    inst = model.load_instance(os.path.join(FIXTURES, "mb3.json"))
    assert isinstance(inst, model.RankOneInstance)
    assert inst.n == 3 and inst.dim == 2
    assert model.sigma(inst) ** 2 == pytest.approx(1.5, abs=1e-12)


def test_sign_assignment_membership():
    rvs = (model.DiscreteRandomVariable.rademacher(), model.DiscreteRandomVariable.bernoulli(0.5))
    a = model.SignAssignment.from_indices([1, 0], rvs)
    assert a.values == (1.0, 0.0)
    with pytest.raises(InvariantViolation):
        model.SignAssignment.from_indices([2, 0], rvs)


def test_rank_one_to_hermitian_preserves_disc(rng):
    inst = random_rank_one_instance(rng, 2, 3)
    a = disc.disc_bruteforce(inst)
    b = disc.disc_bruteforce(model.HermitianInstance(inst.dim, tuple(model.outer_products(inst.vectors)), inst.rvs))
    assert a.value == b.value
    assert a.argmin.indices == b.argmin.indices


def test_outer_products_match_loop(rng):
    n = 11
    for d in (1, 2, 4):
        vs = [rng.normal(size=d) + 1j * rng.normal(size=d) for _ in range(n)]
        loop = [np.outer(v, v.conj()) for v in vs]
        outers = model.outer_products(vs)
        assert np.array_equal(outers, loop)
        gram = np.zeros((d, d), dtype=complex)
        for a in loop:
            gram += a
        # numpy sums a stack of 1x1 matrices pairwise, in another order
        rtol = n * np.finfo(float).eps if d == 1 else 0.0
        assert np.allclose(outers.sum(axis=0), gram, rtol=rtol, atol=0.0)


def test_instances_are_immutable(rng):
    inst = random_rank_one_instance(rng, 2, 2)
    with pytest.raises(ValueError):
        inst.vectors[0][0] = 1.0
