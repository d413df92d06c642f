import itertools
import math

import numpy as np
import pytest

from matdisc import disc, model, schatten
from matdisc.errors import InvalidOrder

from conftest import random_hermitian, schatten_norm


def rademacher_hermitian(rng, d, n):
    mats = tuple(random_hermitian(rng, d) for _ in range(n))
    return model.HermitianInstance(d, mats, tuple(model.DiscreteRandomVariable.rademacher() for _ in range(n)))


def test_disc_p_single_matrix():
    inst = model.HermitianInstance(2, (np.diag([1.0, -1.0]),), (model.DiscreteRandomVariable.rademacher(),))
    assert schatten.disc_p(inst, 2.0) == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_disc_p_constant_rvs_zero():
    inst = model.HermitianInstance(
        2,
        (np.diag([1.0, 2.0]), np.diag([0.5, -0.5])),
        (model.DiscreteRandomVariable((0.2,), (1.0,)), model.DiscreteRandomVariable((-1.0,), (1.0,))),
    )
    assert schatten.disc_p(inst, 4.0) == pytest.approx(0.0, abs=1e-12)


def test_disc_p_golden_seeded_instance():
    # frozen from the 8-pattern enumeration oracle at seed 2024
    rng = np.random.default_rng(2024)
    inst = rademacher_hermitian(rng, 3, 3)
    assert schatten.disc_p(inst, 4.0) == pytest.approx(3.8731504565143293, abs=1e-10)


def test_disc_p_requires_p_at_least_two():
    inst = model.HermitianInstance(2, (np.eye(2),), (model.DiscreteRandomVariable.rademacher(),))
    with pytest.raises(InvalidOrder):
        schatten.disc_p(inst, 1.5)
    # the report refuses the order through the same check
    with pytest.raises(InvalidOrder):
        schatten.khintchine_bounds(inst, 1.5)


def test_rademacher_p2_closed_form(rng):
    inst = rademacher_hermitian(rng, 3, 3)
    rep = schatten.khintchine_bounds(inst, 2.0)
    trace_total = sum(float(np.trace(m @ m).real) for m in inst.matrices)
    assert rep.bounds["rademacher_closed_form"] == pytest.approx(math.sqrt(trace_total), rel=1e-12)


def test_rademacher_mc_equals_closed_form_exactly(rng):
    inst = rademacher_hermitian(rng, 3, 4)
    for p in (2.0, 4.0, 6.0):
        rep = schatten.khintchine_bounds(inst, p)
        est, se = rep.bounds["general_khintchine"]
        assert se == 0.0
        assert est == pytest.approx(rep.bounds["rademacher_closed_form"], rel=1e-12)
        assert rep.disc_p <= rep.bounds["rademacher_closed_form"] + 1e-9


def test_general_rv_bounds(rng):
    mats = tuple(random_hermitian(rng, 3) for _ in range(4))
    rvs = tuple(model.DiscreteRandomVariable((-2.0, 1.5), (0.4, 0.6)) for _ in range(4))
    inst = model.HermitianInstance(3, mats, rvs)
    rep = schatten.khintchine_bounds(inst, 4.0)
    est, se = rep.bounds["general_khintchine"]
    assert se == 0.0
    assert rep.disc_p <= est
    assert schatten.disc_p(inst, 2.0) <= schatten.frobenius_bound(inst) + 1e-9


def test_frobenius_closed_form_value(rng):
    mats = tuple(random_hermitian(rng, 3) for _ in range(3))
    rvs = tuple(model.DiscreteRandomVariable((-2.0, 2.0), (0.5, 0.5)) for _ in range(3))
    inst = model.HermitianInstance(3, mats, rvs)
    total = sum((rv.variance * m) @ (rv.variance * m) for rv, m in zip(rvs, mats))
    assert schatten.frobenius_bound(inst) == pytest.approx(
        math.sqrt(float(np.trace(total).real)), rel=1e-10
    )


def test_infinite_order_marks_bounds_inapplicable(rng):
    inst = rademacher_hermitian(rng, 2, 3)
    rep = schatten.khintchine_bounds(inst, np.inf)
    assert rep.bounds["general_khintchine"] is None
    assert rep.bounds["rademacher_closed_form"] is None
    assert rep.disc_p == pytest.approx(disc.disc_bruteforce(inst).value, abs=1e-12)


def test_bounds_determinism_across_threads(rng):
    mats = tuple(random_hermitian(rng, 3) for _ in range(3))
    rvs = tuple(model.DiscreteRandomVariable.bernoulli(0.3) for _ in range(3))
    inst = model.HermitianInstance(3, mats, rvs)
    a = schatten.khintchine_bounds(inst, 4.0, threads=1)
    b = schatten.khintchine_bounds(inst, 4.0, threads=4)
    assert a.bounds["general_khintchine"] == b.bounds["general_khintchine"]


def general_family(rng, d, n, atoms):
    mats = tuple(random_hermitian(rng, d) for _ in range(n))
    rvs = []
    for _ in range(n):
        support = np.sort(rng.uniform(-3.0, 3.0, size=atoms))
        probs = rng.dirichlet(np.ones(atoms))
        rvs.append(model.DiscreteRandomVariable(tuple(support), tuple(probs)))
    return model.HermitianInstance(d, mats, tuple(rvs))


def moment_matrix(inst, outcome):
    """S(xi) = sum_i ((xi_i - E xi_i)^2 A_i^2 + Var[xi_i]^2 A_i^2)."""
    return sum(((x - rv.mean) ** 2 + rv.variance**2) * (m @ m) for x, rv, m in zip(outcome, inst.rvs, inst.matrices))


def enumerated_bound(inst, p):
    """sqrt((p-1)/2) (E || S^(1/2) ||_p^p)^(1/p) over the joint support."""
    total = 0.0
    for idx in itertools.product(*(range(len(rv.support)) for rv in inst.rvs)):
        prob = math.prod(rv.probs[k] for rv, k in zip(inst.rvs, idx))
        outcome = [rv.support[k] for rv, k in zip(inst.rvs, idx)]
        eigs = np.clip(np.linalg.eigvalsh(moment_matrix(inst, outcome)), 0.0, None)
        total += prob * float(np.sum(eigs ** (p / 2.0)))
    return math.sqrt((p - 1.0) / 2.0) * total ** (1.0 / p)


def monte_carlo_bound(inst, p, samples=10_000, seed=0xD15C):
    """Seeded Monte Carlo estimate of the same bound and its standard error."""
    rng = np.random.default_rng(seed)
    draws = np.column_stack([rng.choice(rv.support, size=samples, p=rv.probs) for rv in inst.rvs])
    sq = np.array([m @ m for m in inst.matrices])
    means = np.array([rv.mean for rv in inst.rvs])
    var_sq = np.tensordot(np.array([rv.variance for rv in inst.rvs]) ** 2, sq, axes=(0, 0))
    s = np.tensordot((draws - means) ** 2, sq, axes=(1, 0)) + var_sq
    z = np.sum(np.clip(np.linalg.eigvalsh(s), 0.0, None) ** (p / 2.0), axis=1)
    mean, err = float(z.mean()), float(z.std(ddof=1) / math.sqrt(samples))
    factor = math.sqrt((p - 1.0) / 2.0)
    # delta method for the p-th root
    return factor * mean ** (1.0 / p), factor * mean ** (1.0 / p - 1.0) * err / p


def test_exact_bound_matches_enumeration(rng):
    for trial in range(24):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        inst = general_family(rng, d, n, atoms=2 + trial % 2)
        for p in (2.0, 4.0, 6.0):
            est, se = schatten.khintchine_bounds(inst, p).bounds["general_khintchine"]
            assert se == 0.0
            assert est == pytest.approx(enumerated_bound(inst, p), rel=1e-10)


def test_exact_bound_within_monte_carlo_error():
    for seed in range(6):
        rng = np.random.default_rng(seed)
        inst = general_family(rng, 3, 5, atoms=2 + seed % 2)
        for p in (2.0, 4.0, 6.0):
            est, _ = schatten.khintchine_bounds(inst, p).bounds["general_khintchine"]
            mc, err = monte_carlo_bound(inst, p)
            assert abs(est - mc) <= 4.0 * err


def test_odd_order_has_no_general_bound(rng):
    inst = general_family(rng, 2, 3, atoms=2)
    rad = rademacher_hermitian(rng, 2, 3)
    for p in (3.0, 5.0, 2.5):
        assert schatten.khintchine_bounds(inst, p).bounds["general_khintchine"] is None
        rep = schatten.khintchine_bounds(rad, p)
        assert rep.bounds["general_khintchine"] is None
        assert rep.disc_p <= rep.bounds["rademacher_closed_form"] + 1e-9


def test_assignment_norm_nonincreasing_in_p(rng):
    inst = rademacher_hermitian(rng, 3, 3)
    signs = [1.0, -1.0, 1.0]
    dev = sum(s * m for s, m in zip(signs, inst.matrices))
    ps = [2.0, 3.0, 4.0, 8.0, np.inf]
    vals = [schatten_norm(dev, p) for p in ps]
    assert all(vals[i + 1] <= vals[i] + 1e-12 for i in range(len(vals) - 1))


def test_norm_sandwich_for_signed_sums(rng):
    inst = rademacher_hermitian(rng, 4, 3)
    dev = sum(m for m in inst.matrices)
    spec = schatten_norm(dev, np.inf)
    for p in (2.0, 4.0, 6.0):
        sp = schatten_norm(dev, p)
        assert spec - 1e-12 <= sp <= 4 ** (1.0 / p) * spec + 1e-12
