import itertools
import math
import tracemalloc

import numpy as np
import pytest

from matdisc import _util, cli, disc, frames, linalg, model, rpoly, schatten, witness
from matdisc.errors import EnumerationTooLarge, NotRealRooted, PreconditionViolated

from conftest import count_matrices, random_rank_one_instance, random_unitary
from test_model import mercedes_benz


def enum_charpoly(inst, prefix=()):
    """Reference expected polynomial: enumerate every support assignment of
    the tail and sum ``prob * prod_j (x^2 - lam_j^2)`` over the spectra of
    ``M = sum_i (E[xi_i] - eps_i) u_i u_i*``."""
    terms, means, sizes, supp, prob = disc._family(inst)
    k = len(prefix)
    head = np.arange(k)
    idx = np.array(prefix, dtype=np.int64)
    weight = float(np.prod(prob[head, idx]))
    fixed = np.tensordot(means[:k] - supp[head, idx], terms[:k], axes=(0, 0))
    tails = np.array(list(itertools.product(*[range(s) for s in sizes[k:]])), dtype=np.int64)
    tails = tails.reshape(len(tails), inst.n - k)
    rest = np.arange(k, inst.n)
    coef = means[k:] - supp[rest, tails]
    ws = np.prod(prob[rest, tails], axis=1)
    lam = np.linalg.eigvalsh(fixed[None] + np.tensordot(coef, terms[k:], axes=(1, 0)))
    return disc._even_to_x(weight * (ws @ disc._monic_from_roots_batch(lam * lam)))


def assert_close_to_enum(got, inst, prefix, rel=1e-12):
    want = enum_charpoly(inst, prefix)
    assert np.abs(np.asarray(got) - want).max() <= rel * max(np.abs(want).max(), 1e-300), prefix


def rademacher_instance(vectors):
    vecs = tuple(np.asarray(v, dtype=complex) for v in vectors)
    rvs = tuple(model.DiscreteRandomVariable.rademacher() for _ in vecs)
    return model.RankOneInstance(len(vecs[0]), vecs, rvs)


def test_bruteforce_single_vector():
    rep = disc.disc_bruteforce(rademacher_instance([np.array([1.0, 0.0])]))
    assert rep.value == pytest.approx(1.0, abs=1e-14)
    assert rep.sigma == pytest.approx(1.0, abs=1e-14)


def test_bruteforce_orthonormal_pair():
    rep = disc.disc_bruteforce(rademacher_instance([np.array([1.0, 0.0]), np.array([0.0, 1.0])]))
    assert rep.value == pytest.approx(1.0, abs=1e-14)
    # lexicographically smallest of the all-tied assignments
    assert rep.argmin.indices == (0, 0)


def test_bruteforce_golden_three_vectors():
    # frozen from the 8-pattern enumeration oracle
    inst = rademacher_instance(
        [np.array([1.0, 0.0]), np.array([1.0, 1.0]) / math.sqrt(2), np.array([0.0, 1.0])]
    )
    rep = disc.disc_bruteforce(inst)
    assert rep.value == pytest.approx(1.0, abs=1e-12)
    assert rep.argmin.indices == (0, 1, 0)
    assert rep.value <= 3.0 * rep.sigma + 1e-9
    assert rep.bound_checks["three_sigma"][1]


def test_bruteforce_argmin_reproduces_value(rng):
    inst = random_rank_one_instance(rng, 3, 4)
    rep = disc.disc_bruteforce(inst)
    terms = np.array([np.outer(v, v.conj()) for v in inst.vectors])
    coef = np.array(rep.argmin.values) - np.array([rv.mean for rv in inst.rvs])
    direct = linalg.spectral_norm(np.tensordot(coef, terms, axes=(0, 0)))
    assert rep.value == pytest.approx(direct, abs=1e-10)


# every norm kind the brute-force scan serves, at the suite's orders
ALL_KINDS = ("spectral", ("schatten", 2.0), ("schatten", 4.0), ("schatten", 6.0))


def test_bruteforce_thread_determinism(rng, monkeypatch):
    # n = 6 is one chunk; 3-atom laws at n = 11 give 177,147 assignments, 3 chunks
    for inst in (random_rank_one_instance(rng, 3, 6), random_rank_one_instance(rng, 3, 11, supports=(3,))):
        runs = []
        for threads in (1, 2, 4):
            with monkeypatch.context() as patch:
                eigvalsh = count_matrices(patch, "eigvalsh")
                rep = disc.disc_bruteforce(inst, threads=threads)
            runs.append((rep.value, rep.argmin.indices, eigvalsh["matrices"]))
        assert runs[0] == runs[1] == runs[2]
        # one scan under several norms, pruned against the largest best
        multi = []
        for threads in (1, 4):
            with monkeypatch.context() as patch:
                eigvalsh = count_matrices(patch, "eigvalsh")
                found = disc.exact_minimum(inst, ALL_KINDS, threads=threads)
            multi.append(([(value, argmin.indices) for value, argmin in found], eigvalsh["matrices"]))
        assert multi[0] == multi[1]
    assert 3**11 > 2 * _util.CHUNK


def test_bruteforce_cap(monkeypatch):
    inst = rademacher_instance([np.array([1.0, 0.0])] * 30)
    monkeypatch.setattr(disc, "ENUM_CAP", 2**20)
    with pytest.raises(EnumerationTooLarge):
        disc.disc_bruteforce(inst)


def count_sigma(monkeypatch):
    """Count the calls to ``model.sigma``."""
    calls = []
    sigma = model.sigma
    monkeypatch.setattr(model, "sigma", lambda inst: calls.append(inst) or sigma(inst))
    return calls


def test_bruteforce_takes_sigma_once(rng, monkeypatch):
    inst = random_rank_one_instance(rng, 3, 5)
    calls = count_sigma(monkeypatch)
    rep = disc.disc_bruteforce(inst)
    assert len(calls) == 1
    assert rep.bound_checks["three_sigma"][0] == 3.0 * rep.sigma


def oracle_minimum(inst, norm_kind):
    """Independent brute force: every assignment from ``itertools.product``,
    one eigensolve of every deviation matrix, and the first minimum, which is
    the lexicographically smallest tuple of support indices."""
    tuples = list(itertools.product(*(range(len(rv.support)) for rv in inst.rvs)))
    values = np.array([[rv.support[i] for i, rv in zip(t, inst.rvs)] for t in tuples])
    coef = values - np.array([rv.mean for rv in inst.rvs])
    eigs = np.abs(np.linalg.eigvalsh(np.tensordot(coef, model.terms(inst), axes=(1, 0))))
    if norm_kind == "spectral":
        norms = eigs.max(axis=1)
    else:
        norms = np.sum(eigs ** norm_kind[1], axis=1) ** (1.0 / norm_kind[1])
    k = int(np.argmin(norms))
    return float(norms[k]), tuples[k]


def _three_atom_rvs(rng, n):
    return random_rank_one_instance(rng, 1, n, supports=(3,)).rvs


def _oracle_family(name, rng):
    d = 3
    if name == "rademacher":  # eps and -eps tie
        return seeded_rademacher(3, d, 10)
    if name == "zero":  # every assignment ties at 0
        return model.RankOneInstance(d, (np.zeros(d),) * 7, _three_atom_rvs(rng, 7))
    if name == "parallel":
        v, w = rng.normal(size=(2, d)) + 1j * rng.normal(size=(2, d))
        return model.RankOneInstance(d, (v, v, -2 * v, 1j * v, w, w, 0.5 * w), _three_atom_rvs(rng, 7))
    if name == "dynamic_range":  # terms from 1e-8 to 1e8
        vecs = [10.0**k * rng.normal(size=d) for k in np.linspace(-4, 4, 10)]
        return rademacher_instance(vecs)
    if name == "d1":  # the row norm is the norm, so ties sit on the bound
        return rademacher_instance([rng.normal(size=1) for _ in range(4)] * 2)
    if name == "n1":
        return random_rank_one_instance(rng, d, 1, supports=(3,))
    if name == "tight_bound":
        # +-(u u* - w w*) is off-diagonal, so its row norm is its norm; at this
        # phase the row norm rounds one ulp above the eigensolver's value, and
        # the zero vectors give the minimum 2^9 exact ties
        z = 0.5 * np.exp(2j * np.pi * np.random.default_rng(1).uniform())
        return rademacher_instance([np.array([1, z]), np.array([1, -z])] + [np.zeros(2)] * 9)
    if name == "phases":
        return rademacher_instance([np.exp(2j * np.pi * rng.uniform(size=d)) for _ in range(9)])
    if name == "three_atom":
        return random_rank_one_instance(rng, 4, 7, supports=(3,))
    if name == "hermitian":
        g = rng.normal(size=(8, d, d)) + 1j * rng.normal(size=(8, d, d))
        return model.HermitianInstance(d, tuple(g + g.conj().transpose(0, 2, 1)), _three_atom_rvs(rng, 8))
    raise AssertionError(name)


@pytest.mark.parametrize(
    "family",
    ["rademacher", "zero", "parallel", "dynamic_range", "d1", "n1", "tight_bound", "phases", "three_atom", "hermitian"],
)
def test_pruned_scan_matches_the_full_enumeration(family, rng, monkeypatch):
    inst = _oracle_family(family, rng)
    want = [oracle_minimum(inst, norm_kind) for norm_kind in ALL_KINDS]
    for block in (5, disc._SCAN_BLOCK):
        monkeypatch.setattr(disc, "_SCAN_BLOCK", block)
        # each kind alone, then every kind from one scan
        found = [disc.exact_minimum(inst, [norm_kind])[0] for norm_kind in ALL_KINDS]
        found += disc.exact_minimum(inst, ALL_KINDS)
        for norm_kind, want_kind, (value, argmin) in zip(ALL_KINDS * 2, want * 2, found):
            assert (value, argmin.indices) == want_kind, (block, norm_kind)


def test_power_bound_sits_between_row_norm_and_norm(rng):
    g = rng.normal(size=(200, 3, 3)) + 1j * rng.normal(size=(200, 3, 3))
    mats = np.concatenate([g + g.conj().transpose(0, 2, 1), np.zeros((1, 3, 3))])
    rows = np.einsum("kij,kij->ki", mats.conj(), mats).real
    power = disc._power_bound(mats, rows)
    spectral = np.abs(np.linalg.eigvalsh(mats)).max(axis=1)
    assert np.all(np.sqrt(rows.max(axis=1)) <= power * (1 + 1e-12))
    assert np.all(power <= spectral * (1 + 1e-12))
    assert power[-1] == 0.0


def test_pruned_scan_work_count_small_chunks(monkeypatch):
    # Each chunk prunes against its own best. On this instance the row norms
    # of many chunks sit far below their norms (ordered by row norm alone,
    # the scan hands the eigensolver 2287 matrices); the power-step bound
    # keeps every chunk near one eigensolve block.
    rng = np.random.default_rng(6)
    vectors = tuple((rng.normal(size=3) + 1j * rng.normal(size=3)) / math.sqrt(2.0) for _ in range(9))
    inst = model.RankOneInstance(3, vectors, tuple(cli.random_rv(rng, 3) for _ in range(9)))
    want = oracle_minimum(inst, "spectral")
    monkeypatch.setattr(_util, "CHUNK", 1024)
    monkeypatch.setattr(disc, "_SCAN_BLOCK", 16)
    eigvalsh = count_matrices(monkeypatch, "eigvalsh")
    [(value, argmin)] = disc.exact_minimum(inst, ["spectral"])
    assert (value, argmin.indices) == want
    assert eigvalsh["matrices"] <= 2 * 16 * math.ceil(3**9 / 1024)


def test_pruned_scan_work_count(monkeypatch):
    # the pruning hands the eigensolver a small share of the 2^14 assignments
    inst = seeded_rademacher(14, 4, 14)
    eigvalsh = count_matrices(monkeypatch, "eigvalsh")
    disc.disc_bruteforce(inst)
    assert eigvalsh["matrices"] <= 2**14 // 8


def test_expected_charpoly_trivial():
    inst = rademacher_instance([np.array([1.0])])
    assert np.allclose(disc.expected_charpoly(inst), [-1.0, 0.0, 1.0], atol=1e-14)


def test_expected_charpoly_constant_rvs():
    inst = model.RankOneInstance(
        3,
        (np.array([1.0, 2.0, 0.5]),),
        (model.DiscreteRandomVariable((0.4,), (1.0,)),),
    )
    got = disc.expected_charpoly(inst)
    assert np.allclose(got, [0, 0, 0, 0, 0, 0, 1.0], atol=1e-14)
    _, trace = disc.greedy_interlacing_solve(inst)
    assert trace.final_value == 0.0


def test_expected_charpoly_prefix_sum_identity(rng):
    inst = random_rank_one_instance(rng, 2, 3)
    base = disc.expected_charpoly(inst)
    total = np.zeros_like(base)
    sizes = [len(rv.support) for rv in inst.rvs]
    import itertools

    for full in itertools.product(*[range(s) for s in sizes]):
        total = total + disc.expected_charpoly(inst, prefix=full)
    scale = np.abs(base).max()
    assert np.abs(total - base).max() < 1e-10 * scale


def test_expected_charpoly_partial_prefix_consistency(rng):
    inst = random_rank_one_instance(rng, 3, 4)
    p1 = disc.expected_charpoly(inst, prefix=(0,))
    sub = sum(
        disc.expected_charpoly(inst, prefix=(0, t)) for t in range(len(inst.rvs[1].support))
    )
    assert np.abs(p1 - sub).max() < 1e-10 * np.abs(p1).max()


def test_expected_charpoly_is_even(rng):
    inst = random_rank_one_instance(rng, 3, 4)
    p = disc.expected_charpoly(inst)
    assert np.abs(p[1::2]).max() < 1e-10 * np.abs(p).max()
    assert len(p) == 2 * inst.dim + 1


def test_operator_route_trivial():
    inst = rademacher_instance([np.array([1.0])])
    assert np.allclose(disc.expected_charpoly_operator(inst), [-1.0, 0.0, 1.0], atol=1e-12)


def test_operator_route_constant_rvs():
    inst = model.RankOneInstance(
        2, (np.array([1.0, 1.0]),), (model.DiscreteRandomVariable((1.0,), (1.0,)),)
    )
    assert np.allclose(disc.expected_charpoly_operator(inst), [0, 0, 0, 0, 1.0], atol=1e-12)


def test_operator_route_matches_enumeration(rng):
    for _ in range(10):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(1, 7))
        inst = random_rank_one_instance(rng, d, n)
        pa = enum_charpoly(inst)
        pb = disc.expected_charpoly_operator(inst)
        scale = max(np.abs(pa).max(), np.abs(pb).max())
        assert np.abs(pa - pb).max() < 1e-8 * scale


def test_operator_route_bounded_memory(rng):
    # d = 3, n = 11: the 3^11 grid points come a chunk at a time, so the
    # peak stays far below the grid's own size (a whole grid of floats and
    # its meshgrid copy take about 30 MiB)
    inst = random_rank_one_instance(rng, 3, 11)
    tracemalloc.start()
    try:
        got = disc.expected_charpoly_operator(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    want = disc.expected_charpoly(inst)
    # criterion 02's tolerance
    assert np.abs(got - want).max() <= 1e-8 * max(np.abs(got).max(), np.abs(want).max())


def test_operator_route_cap():
    inst = rademacher_instance([np.array([1.0, 0.0])] * 15)
    with pytest.raises(EnumerationTooLarge):
        disc.expected_charpoly_operator(inst)


def test_greedy_trivial():
    inst = rademacher_instance([np.array([1.0])])
    assignment, trace = disc.greedy_interlacing_solve(inst)
    assert trace.final_value == pytest.approx(1.0, abs=1e-12)
    assert trace.p_empty_lambda_max == pytest.approx(1.0, abs=1e-12)


def test_greedy_soundness_and_leaf_identity(rng):
    for _ in range(8):
        inst = random_rank_one_instance(rng, int(rng.integers(2, 5)), int(rng.integers(2, 7)))
        sig = model.sigma(inst)
        brute = disc.disc_bruteforce(inst)
        assignment, trace = disc.greedy_interlacing_solve(inst)
        assert brute.value <= trace.final_value + 1e-12
        assert trace.final_value <= 3.0 * sig + 1e-9
        assert abs(trace.final_value - trace.leaf_lambda_max) < 1e-9
        assert all(lv.monotone_ok for lv in trace.levels)


def test_greedy_branch_polys_match_expected_charpoly(rng):
    inst = random_rank_one_instance(rng, 2, 3)
    _, trace = disc.greedy_interlacing_solve(inst)
    lv = trace.levels[0]
    for t, coeffs in enumerate(lv.branch_coeffs):
        direct = disc.expected_charpoly(inst, prefix=(t,))
        assert np.abs(np.array(coeffs) - direct).max() < 1e-9 * max(1.0, np.abs(direct).max())
        assert rpoly.lambda_max(np.array(coeffs), tol=1e-6) == pytest.approx(
            lv.branch_lambda_max[t], abs=1e-9
        )


def test_greedy_branches_share_interlacing(rng):
    inst = random_rank_one_instance(rng, 3, 4)
    _, trace = disc.greedy_interlacing_solve(inst)
    for lv in trace.levels:
        polys = [np.array(c) for c in lv.branch_coeffs]
        assert all(rpoly.is_real_rooted(p, tol=1e-6) for p in polys)
        if len(polys) > 1:
            assert rpoly.has_common_interlacing(polys, tol=1e-6)


def test_bound_menu_basics(rng):
    inst = model.normalize(random_rank_one_instance(rng, 3, 4))
    menu = disc.bound_menu(inst, model.sigma(inst))
    assert menu["three_sigma"] == pytest.approx(3.0, abs=1e-9)
    assert menu["four_sigma"] == pytest.approx(4.0, abs=1e-9)


def test_bound_menu_mss_arithmetic():
    # four scaled copies of an orthonormal basis resolve the identity with
    # every squared norm equal to 1/4
    vecs = []
    for _ in range(4):
        vecs.append(np.array([0.5, 0.0]))
        vecs.append(np.array([0.0, 0.5]))
    inst = rademacher_instance(vecs)
    menu = disc.bound_menu(inst, model.sigma(inst))
    assert menu["mss"] == pytest.approx(2.0 * (math.sqrt(0.5) + 0.25), abs=1e-12)
    assert menu["mss"] == pytest.approx(1.9142135623730951, abs=1e-12)


def test_bound_menu_tight_frame_value():
    inst = mercedes_benz()
    menu = disc.bound_menu(inst, model.sigma(inst))
    assert menu["tight_frame"] == pytest.approx(1.5, abs=1e-9)
    assert "mss" not in menu


def test_bound_menu_inapplicable_for_generic(rng):
    inst = random_rank_one_instance(rng, 3, 4)
    menu = disc.bound_menu(inst, model.sigma(inst))
    assert list(menu) == ["three_sigma", "four_sigma"]


def test_lyapunov_trivial_weights():
    from matdisc import frames

    frame = frames.harmonic_untf(5, 3)
    vectors = [math.sqrt(3 / 5) * v for v in frame.vectors]
    assert disc.lyapunov_round(vectors, [0.0] * 5) == ((), 0.0)
    subset, err = disc.lyapunov_round(vectors, [1.0] * 5)
    assert subset == tuple(range(5)) and err == pytest.approx(0.0, abs=1e-12)


def test_lyapunov_half_weights():
    from matdisc import frames

    frame = frames.harmonic_untf(8, 4)
    vectors = [math.sqrt(4 / 8) * v for v in frame.vectors]
    subset, err = disc.lyapunov_round(vectors, [0.5] * 8)
    outers = np.array([np.outer(v, v.conj()) for v in vectors])
    target = 0.5 * outers.sum(axis=0)
    got = outers[list(subset)].sum(axis=0) if subset else np.zeros_like(target)
    eps = max(float(np.vdot(v, v).real) for v in vectors)
    assert err == pytest.approx(linalg.residual_norm(got - target), rel=1e-12, abs=1e-15)
    assert err <= 1.5 * math.sqrt(eps) + 1e-9


def test_lyapunov_preconditions():
    big = [np.array([2.0, 0.0])]
    with pytest.raises(PreconditionViolated):
        disc.lyapunov_round(big, [0.5])
    ok = [np.array([0.5, 0.0])]
    with pytest.raises(PreconditionViolated):
        disc.lyapunov_round(ok, [1.5])


def test_greedy_flags_zero_probability_branch():
    from matdisc.errors import NotRealRooted

    rv = model.DiscreteRandomVariable((-1.0, 1.0), (0.0, 1.0))
    inst = model.RankOneInstance(1, (np.array([1.0]),), (rv,))
    with pytest.raises(NotRealRooted):
        disc.greedy_interlacing_solve(inst)


# -- Cauchy-Binet engine against the enumeration oracle ----------------------


def random_prefix(rng, inst, k):
    return tuple(int(rng.integers(len(rv.support))) for rv in inst.rvs[:k])


@pytest.fixture(params=["subsets", "signs"])
def route(request, monkeypatch):
    """Pin the engine to one route, whatever the planner would pick."""
    monkeypatch.setattr(disc, "_plan_route", lambda *args, **kwargs: request.param)
    return request.param


def test_engine_matches_enumeration_every_prefix(rng, route):
    for d in range(1, 6):
        for n in range(1, 9):
            # two-atom laws up to n = 8, mixed two- and three-atom up to n = 6
            supports = (2,) if n > 6 else (2, 3)
            inst = random_rank_one_instance(rng, d, n, supports=supports)
            for k in range(n + 1):
                prefix = random_prefix(rng, inst, k)
                assert_close_to_enum(disc.expected_charpoly(inst, prefix), inst, prefix)


def test_greedy_branches_match_enumeration(rng, route):
    for d in range(1, 6):
        inst = random_rank_one_instance(rng, d, 6)
        _, trace = disc.greedy_interlacing_solve(inst)
        chosen = ()
        for lv in trace.levels:
            for t, coeffs in enumerate(lv.branch_coeffs):
                assert_close_to_enum(coeffs, inst, chosen + (t,))
            chosen += (lv.chosen_index,)


def test_engine_degenerate_variables(rng, route):
    # zero-variance (constant and one-sided) laws and zero vectors, in the
    # prefix and in the tail
    base = random_rank_one_instance(rng, 3, 5)
    zero = np.zeros(3, dtype=complex)
    pairs = (
        (base.vectors[0], base.rvs[0]),
        (base.vectors[1], model.DiscreteRandomVariable((0.7,), (1.0,))),
        (zero, base.rvs[1]),
        (base.vectors[2], model.DiscreteRandomVariable((-1.0,), (1.0,))),
        (base.vectors[3], base.rvs[2]),
        (zero, base.rvs[3]),
        (base.vectors[4], model.DiscreteRandomVariable.rademacher()),
    )
    vectors, rvs = tuple(p[0] for p in pairs), tuple(p[1] for p in pairs)
    inst = model.RankOneInstance(3, vectors, rvs)
    for k in range(inst.n + 1):
        prefix = tuple(0 for _ in range(k))
        assert_close_to_enum(disc.expected_charpoly(inst, prefix), inst, prefix)
    _, trace = disc.greedy_interlacing_solve(inst)
    assert all(lv.monotone_ok for lv in trace.levels)
    assert abs(trace.final_value - trace.leaf_lambda_max) < 1e-9


def degenerate_vectors(rng, family, d, n):
    """n vectors in dimension d of one degenerate family: parallel (u, 2.5j u
    and -u, in turn), repeated (two vectors, each used in turn), or pure
    phase (unit vectors whose entries all have modulus 1/sqrt(d))."""
    g = rng.normal(size=(2, d)) + 1j * rng.normal(size=(2, d))
    if family == "parallel":
        return [(1.0, 2.5j, -1.0)[i % 3] * g[0] for i in range(n)]
    if family == "repeated":
        return [g[i % 2] for i in range(n)]
    return [np.exp(2j * np.pi * rng.uniform(size=d)) / math.sqrt(d) for _ in range(n)]


@pytest.mark.parametrize("family", ["parallel", "repeated", "phase"])
def test_engine_degenerate_vectors(rng, route, family):
    # rank-deficient tails: most compound entries vanish, and their
    # cancellation must hold on both routes
    for d in (2, 3, 4):
        laws = random_rank_one_instance(rng, d, 7).rvs
        vectors = degenerate_vectors(rng, family, d, 7)
        inst = model.RankOneInstance(d, tuple(vectors), laws)
        for k in range(inst.n + 1):
            prefix = random_prefix(rng, inst, k)
            assert_close_to_enum(disc.expected_charpoly(inst, prefix), inst, prefix)
        _, trace = disc.greedy_interlacing_solve(inst)
        chosen = ()
        for lv in trace.levels:
            for t, coeffs in enumerate(lv.branch_coeffs):
                assert_close_to_enum(coeffs, inst, chosen + (t,))
            chosen += (lv.chosen_index,)


def test_engine_zero_probability_branch(rng, route):
    base = random_rank_one_instance(rng, 2, 3)
    rvs = (base.rvs[0], model.DiscreteRandomVariable((-1.0, 0.5, 1.0), (0.5, 0.0, 0.5)), base.rvs[2])
    inst = model.RankOneInstance(2, base.vectors, rvs)
    got = disc.expected_charpoly(inst, (0, 1))
    assert not got.any()
    assert_close_to_enum(disc.expected_charpoly(inst, (0, 2)), inst, (0, 2))
    with pytest.raises(NotRealRooted):
        disc.greedy_interlacing_solve(inst)


def test_engine_small_chunks(rng, monkeypatch, route):
    # block boundaries inside every column table of the subset products and
    # every sign block: a term dropped or taken twice at a boundary shows here
    monkeypatch.setattr(disc, "_PRODUCT_BLOCK", 3)
    monkeypatch.setattr(disc, "_SIGN_BATCH", 4)
    det = count_matrices(monkeypatch, "det")
    for d in (2, 3, 4):
        inst = random_rank_one_instance(rng, d, 7, supports=(2,))
        for k in range(inst.n + 1):
            prefix = random_prefix(rng, inst, k)
            assert_close_to_enum(disc.expected_charpoly(inst, prefix), inst, prefix)
        _, trace = disc.greedy_interlacing_solve(inst)
        for t, coeffs in enumerate(trace.levels[0].branch_coeffs):
            assert_close_to_enum(coeffs, inst, (t,))
    # compounds come from Laplace steps, sign patterns from spectra
    assert det["calls"] == 0


# -- work-count guards and scale ---------------------------------------------


def seeded_rademacher(seed, d, n):
    rng = np.random.default_rng(seed)
    return rademacher_instance([(rng.normal(size=d) + 1j * rng.normal(size=d)) / math.sqrt(2.0) for _ in range(n)])


def test_greedy_work_counts(monkeypatch):
    d, n = 4, 14
    inst = seeded_rademacher(14, d, n)
    eigvalsh = count_matrices(monkeypatch, "eigvalsh")
    eigh = count_matrices(monkeypatch, "eigh")
    det = count_matrices(monkeypatch, "det")
    disc.greedy_interlacing_solve(inst)
    # every level plans its own call: tails of m = 13 down to 7 variables
    # take the subset route, one eigh call for both branches each
    assert eigh["calls"] == 7 and eigh["matrices"] == 2 * 7
    # m = 6 down to 0 take the 2^m sign patterns of both branches; beyond
    # them eigvalsh sees only the final deviation, whose norm is the
    # reported value
    assert eigvalsh["matrices"] == 1 + 2 * sum(2**m for m in range(7))
    # the compounds of the tail vectors and of every branch eigenbasis come
    # from Laplace steps (and complementary minors), not determinants
    assert det["matrices"] == 0


def test_greedy_large_constant_term():
    # d = 10, n = 13: a first-level y-polynomial is monic with a constant
    # term beyond 1e14, whose leading coefficient a relative trim dropped
    inst = seeded_rademacher(10, 10, 13)
    brute = disc.disc_bruteforce(inst)
    _, trace = disc.greedy_interlacing_solve(inst)
    assert max(np.abs(c).max() for c in trace.levels[0].branch_coeffs) > 1e14
    assert brute.value <= trace.final_value + 1e-12
    assert trace.final_value <= 3.0 * model.sigma(inst) + 1e-9
    assert all(lv.monotone_ok for lv in trace.levels)
    assert abs(trace.final_value - trace.leaf_lambda_max) < 1e-9


def det_minors(a, rows, cols):
    """``det a[..., R, S]`` for R in ``rows``, S in ``cols``, one determinant
    per minor: shape (..., |rows|, |cols|)."""
    sub = a[..., rows[:, None, :, None], cols[None, :, None, :]]
    return np.linalg.det(sub)


def test_compounds_match_determinant_minors():
    # the Laplace steps against one determinant per minor, signs included,
    # on stacks with zero, repeated and parallel columns
    rng = np.random.default_rng(11)
    for d in range(1, 9):
        rows = disc._dim_tables(d)[0]
        for m in range(1, 13):
            a = rng.normal(size=(2, d, m)) + 1j * rng.normal(size=(2, d, m))
            # column j = factor * column i: a zero, a repeated and two parallel ones
            for j, i, factor in ((1, 0, 0.0), (4, 2, 1.0), (6, 5, 2.5j), (7, 5, -1.0)):
                if j < m:
                    a[..., j] = factor * a[..., i]
            top = min(d, m)
            got = disc._compounds(a, top)
            cols = disc._colex_tables(m, top)
            scale = np.abs(a).max() * math.sqrt(d)
            assert len(got) == top + 1 and np.array_equal(got[0], np.ones((2, 1, 1)))
            for k in range(1, top + 1):
                want = det_minors(a, rows[k], cols[k])
                assert got[k].shape == want.shape
                assert np.abs(got[k] - want).max() <= 1e-12 * scale**k, (d, m, k)


def test_unitary_compounds_match_minors():
    # every branch of the compounds (entries, Laplace steps at
    # 2 <= j <= d/2, complementary minors beyond d/2, the unit at j = d)
    # of unitary stacks V against plain minors, up to a unit factor per row
    rng = np.random.default_rng(7)
    for d in range(1, 8):
        rows = disc._dim_tables(d)[0]
        vh = np.array([random_unitary(rng, d) for _ in range(3)])
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rots = disc._unitary_compounds(vh, d)
        assert len(rots) == d + 1 and rots[0] is None
        for j in range(1, d + 1):
            want = det_minors(vh, rows[j], rows[j])
            assert np.allclose(np.abs(rots[j]), np.abs(want), rtol=0.0, atol=1e-12), (d, j)
            # |C_j(V) C_j(A)| = |C_j(V A)|, by Cauchy-Binet
            got = rots[j] @ det_minors(a, rows[j], rows[j])
            want = det_minors(vh @ a, rows[j], rows[j])
            assert np.allclose(np.abs(got), np.abs(want), rtol=1e-10, atol=1e-10 * np.abs(want).max()), (d, j)


def test_greedy_large_n_smoke():
    inst = seeded_rademacher(32, 4, 32)
    _, trace = disc.greedy_interlacing_solve(inst)
    assert all(lv.monotone_ok for lv in trace.levels)
    assert trace.final_value <= 3.0 * model.sigma(inst) + 1e-9


def test_engine_cap_counts_both_routes(monkeypatch):
    d, n = 4, 10
    inst = seeded_rademacher(10, d, n)
    # the greedy's first level: tail minors plus the compounds of 2 branches,
    # or 2^(n-1) sign patterns per branch
    compounds = sum(math.comb(d, k) ** 2 for k in range(1, d + 1))
    subsets = sum(math.comb(n - 1, k) * math.comb(d, k) for k in range(1, d + 1)) + 2 * compounds
    signs = 2 ** (n - 1)
    assert signs < subsets
    monkeypatch.setattr(disc, "ENUM_CAP", signs - 1)
    with pytest.raises(EnumerationTooLarge):
        disc.greedy_interlacing_solve(inst)
    monkeypatch.setattr(disc, "ENUM_CAP", signs)
    disc.greedy_interlacing_solve(inst)
    assert disc._plan_route(d, n - 1, 2) == "signs"
    monkeypatch.setattr(disc, "ENUM_CAP", subsets)
    assert disc._plan_route(d, n - 1, 2) in ("subsets", "signs")
    # the top polynomial has no fixed part, so its sign patterns halve
    monkeypatch.setattr(disc, "ENUM_CAP", 2 ** (n - 1) - 1)
    with pytest.raises(EnumerationTooLarge):
        disc.expected_charpoly(inst)
    monkeypatch.setattr(disc, "ENUM_CAP", 2 ** (n - 1))
    disc.expected_charpoly(inst)
    # a route whose count exceeds the cap is never taken, even if cheaper
    monkeypatch.undo()
    assert disc._plan_route(4, 30, 2) == "subsets"
    assert disc._plan_route(12, 13, 2) == "signs"
    # with no tail variable the one sign pattern is the fixed part's spectrum
    for d in range(1, 13):
        for nb in (1, 2, 3):
            assert disc._plan_route(d, 0, nb) == "signs"


def test_one_cap_reaches_every_enumeration(monkeypatch):
    # a cap of 4 is below every count of an n = 5 (or, for frames and
    # Schatten, n = 3) Rademacher family, so each path refuses
    monkeypatch.setattr(disc, "ENUM_CAP", 4)
    inst = seeded_rademacher(5, 2, 5)
    for refuse in (disc.disc_bruteforce, disc.greedy_interlacing_solve, disc.expected_charpoly):
        with pytest.raises(EnumerationTooLarge):
            refuse(inst)
    with pytest.raises(EnumerationTooLarge):
        witness.replay_barrier_walk(model.normalize(inst))
    mats = tuple(np.diag([1.0, -float(i)]) for i in range(3))
    herm = model.HermitianInstance(2, mats, tuple(model.DiscreteRandomVariable.rademacher() for _ in mats))
    with pytest.raises(EnumerationTooLarge):
        schatten.disc_p(herm, [2.0])
    with pytest.raises(EnumerationTooLarge):
        frames.verify_untf_disc(frames.harmonic_untf(3, 2))
    # the 8 sign patterns fit a cap of 10, the 4^3 = 64 words of p = 6 do not
    monkeypatch.setattr(disc, "ENUM_CAP", 10)
    assert schatten.disc_p(herm, [6.0])[0] >= 0.0
    with pytest.raises(EnumerationTooLarge):
        schatten.khintchine_bounds(herm, 6.0)


def test_greedy_dimension_close_to_n(monkeypatch):
    # d = 9, n = 11: each level plans its own call. Tails of 10 down to 8
    # variables take the subset route, whose C(19, 9) - 1 = 92,377 tail
    # compound entries and 2 x (C(18, 9) - 1) branch entries at the first
    # level all come from Laplace steps; tails of 7 down to 0 take the sign
    # patterns. Neither route takes a determinant
    inst = seeded_rademacher(14, 9, 11)
    det = count_matrices(monkeypatch, "det")
    _, trace = disc.greedy_interlacing_solve(inst)
    assert det["matrices"] == 0
    assert all(lv.monotone_ok for lv in trace.levels)
    assert abs(trace.final_value - trace.leaf_lambda_max) < 1e-9
    assert trace.final_value <= 3.0 * model.sigma(inst) + 1e-9
    assert_close_to_enum(disc.expected_charpoly(inst, (0, 1)), inst, (0, 1))


def test_greedy_tie_goes_to_smallest_index():
    # a Rademacher first level is exactly symmetric (M -> -M): both branch
    # roots agree up to roundoff and index 0 wins
    for seed in range(6):
        _, trace = disc.greedy_interlacing_solve(seeded_rademacher(seed, 4, 8))
        first = trace.levels[0]
        lo = min(first.branch_lambda_max)
        assert max(first.branch_lambda_max) <= lo * (1.0 + disc.GREEDY_TIE_RTOL)
        assert first.chosen_index == 0
