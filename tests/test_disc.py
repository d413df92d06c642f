import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from matdisc import _util, cli, disc, frames, linalg, model, rpoly, schatten, witness
from matdisc.errors import EnumerationTooLarge, NotRealRooted, PreconditionViolated

from conftest import count_matrices, random_hermitian, random_rank_one_instance, random_unitary
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
    disc.disc_bruteforce(inst)
    assert len(calls) == 1


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
    # a chunk of 64 spans a few leading rows of the halves, so every family
    # beyond one block is cut into several chunks; blocks of one matrix take
    # the padded product
    for chunk, block in itertools.product((_util.CHUNK, 64), (1, 5, disc._SCAN_BLOCK)):
        monkeypatch.setattr(_util, "CHUNK", chunk)
        monkeypatch.setattr(disc, "_SCAN_BLOCK", block)
        # each kind alone, then every kind from one scan
        found = [disc.exact_minimum(inst, [norm_kind])[0] for norm_kind in ALL_KINDS]
        found += disc.exact_minimum(inst, ALL_KINDS)
        for norm_kind, want_kind, (value, argmin) in zip(ALL_KINDS * 2, want * 2, found):
            assert (value, argmin.indices) == want_kind, (chunk, block, norm_kind)


@pytest.mark.parametrize("family", ["rademacher", "parallel", "dynamic_range", "tight_bound", "phases", "hermitian"])
def test_half_bounds_sit_below_the_built_norms(family, rng, monkeypatch):
    # the halves' row-norm and power-step bounds never exceed the largest
    # row norm and the norm of the matrix the eigensolver is handed
    inst = _oracle_family(family, rng)
    terms, means, sizes, supp, _ = disc._family(inst)
    monkeypatch.setattr(_util, "CHUNK", 64)
    dev, flat = supp - means[:, None], terms.reshape(inst.n, -1)
    halves = disc._Halves(dev, sizes.tolist(), flat, inst.dim)
    assert 1 < halves.width <= 64
    idx = np.arange(halves.count * halves.width)
    mats = disc._deviations(dev, sizes.tolist(), flat, inst.dim, idx)
    rows = np.einsum("kij,kij->ki", mats.conj(), mats).real
    spectral = np.abs(np.linalg.eigvalsh(mats)).max(axis=1)
    assert np.all(halves.bounds(0, halves.count) <= np.sqrt(rows.max(axis=1)))
    assert np.all(halves.powers(idx) <= spectral * (1 + 1e-12))
    # a single matrix is built as the many-row product builds it
    assert np.array_equal(disc._deviations(dev, sizes.tolist(), flat, inst.dim, idx[5:6]), mats[5:6])


def test_halves_hold_at_most_a_chunk(rng):
    # eleven coins and a last variable of 4096 points, 8.4 million
    # assignments: the split keeps the coins' 2048 leading sums apart from
    # the 4096 trailing ones, and the scan builds the leading sums a
    # chunk's rows at a time
    sizes = [2] * 11 + [4096]
    dev = rng.standard_normal((len(sizes), max(sizes)))
    flat = rng.standard_normal((len(sizes), 16)).astype(complex)
    halves = disc._Halves(dev, sizes, flat, 4)
    assert (halves.count, halves.width) == (2048, 4096)
    assert halves.tails.shape == (4096, 4, 4)
    rows = _util.CHUNK // halves.width
    assert halves.bounds(0, rows).shape == (_util.CHUNK,)


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
    # the 3^16 grid points are past ENUM_CAP = 2^24, refused before any
    # eigensolve
    inst = rademacher_instance([np.array([1.0, 0.0])] * 16)
    assert 3**16 > disc.ENUM_CAP
    with pytest.raises(EnumerationTooLarge) as refused:
        disc.expected_charpoly_operator(inst)
    assert refused.value.required == 3**16


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
        assert max(lv.chosen_lambda_max - lv.parent_lambda_max for lv in trace.levels) <= 1e-9


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


def pin_route(monkeypatch, name):
    """Pin every plan, whatever the planner would pick: "subsets" and
    "signs" pin the engine's route and keep the greedy in blocks of depth 1
    (one engine call per level); "pairs" puts the greedy in blocks of 2 and
    "leaves" in one block from level 1, whose engine calls keep the
    planner's route."""
    chains = {
        "pairs": lambda levels: (2,) * (len(levels) // 2) + (1,) * (len(levels) % 2),
        "leaves": lambda levels: (len(levels),),
    }
    if name not in chains:
        monkeypatch.setattr(disc, "_plan_route", lambda *args, **kwargs: name)
    chain = chains.get(name, lambda levels: (1,) * len(levels))
    monkeypatch.setattr(disc, "_plan_descent", lambda d, levels: chain(levels))
    return name


@pytest.fixture(params=["subsets", "signs"])
def engine_route(request, monkeypatch):
    """The engine pinned to one route."""
    return pin_route(monkeypatch, request.param)


@pytest.fixture(params=["subsets", "signs", "pairs", "leaves"])
def route(request, monkeypatch):
    """The greedy pinned: an engine route at every level, blocks of two
    levels, or one block from level 1."""
    return pin_route(monkeypatch, request.param)


def test_engine_matches_enumeration_every_prefix(rng, engine_route):
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
    assert max(lv.chosen_lambda_max - lv.parent_lambda_max for lv in trace.levels) <= 1e-9
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


def greedy_tail(inst):
    """The greedy's tail, the live variables after the first, last one
    first, and per variable the size of the tail after it."""
    variances = disc._variances(inst)
    live = np.array(disc._live(inst.vectors, variances)[::-1], dtype=np.int64)
    after = live[live > 0]
    tail = disc._Tail(np.array(inst.vectors)[after], variances[after], inst.dim)
    return tail, [int(np.count_nonzero(live > k)) for k in range(inst.n)]


def block_args(inst, head, depth):
    """The arguments of :func:`disc._block_tree` for the block of ``depth``
    variables below the prefix ``head``."""
    terms, means, sizes, supp, prob = disc._family(inst)
    dev = means[:, None] - supp
    flat = terms.reshape(inst.n, -1)
    k = len(head)
    fixed = np.tensordot(dev[np.arange(k), list(head)], terms[:k], axes=(0, 0))
    block = slice(k, k + depth)
    return fixed, dev[block], sizes[block].tolist(), flat[block], prob[block]


def test_block_tree_degenerate_subtree(rng, route):
    # a zero-probability atom, a constant law and a zero vector among the
    # variables: every node of every block depth below random prefixes,
    # weighted by its path, against the enumeration oracle; the greedy stops
    # at the zero-probability branch on every route
    base = random_rank_one_instance(rng, 3, 6)
    rvs = list(base.rvs)
    rvs[2] = model.DiscreteRandomVariable((-1.0, 0.5, 1.0), (0.5, 0.0, 0.5))
    rvs[3] = model.DiscreteRandomVariable((0.7,), (1.0,))
    vectors = list(base.vectors)
    vectors[4] = np.zeros(3, dtype=complex)
    inst = model.RankOneInstance(3, tuple(vectors), tuple(rvs))
    prob = disc._family(inst)[4]
    tail, after = greedy_tail(inst)
    for k in (1, 2, 4):
        head = random_prefix(rng, inst, k)
        for depth in range(1, inst.n - k + 1):
            tree = disc._block_tree(tail, *block_args(inst, head, depth), after[k + depth - 1])
            assert len(tree) == depth
            sizes = [len(rv.support) for rv in inst.rvs[k : k + depth]]
            for j, nodes in enumerate(tree, 1):
                assert nodes.shape == tuple(sizes[:j]) + (4,)
                for path in itertools.product(*(range(s) for s in sizes[:j])):
                    prefix = head + path
                    weight = float(np.prod(prob[np.arange(len(prefix)), list(prefix)]))
                    assert_close_to_enum(disc._even_to_x(weight * nodes[path]), inst, prefix)
    with pytest.raises(NotRealRooted):
        disc.greedy_interlacing_solve(inst)


def test_block_ends_are_the_engine_level_and_the_leaves(rng):
    # depth 1 is the level's engine call on its branches, and a block down to
    # the last level is every leaf's spectrum: both bit for bit
    for d, n in ((2, 6), (3, 7), (4, 6)):
        inst = random_rank_one_instance(rng, d, n)
        terms, means, sizes, supp, prob = disc._family(inst)
        tail, after = greedy_tail(inst)
        for k in range(n):
            head = random_prefix(rng, inst, k)
            fixed, dev, block_sizes, flat, _ = args = block_args(inst, head, n - k)
            branches = fixed[None] + dev[0, : block_sizes[0], None, None] * terms[k][None]
            one = disc._block_tree(tail, *block_args(inst, head, 1), after[k])
            assert np.array_equal(one[0], tail.ypolys(branches, after[k])), (d, n, k)
            leaves = disc._block_tree(tail, *args, 0)[-1]
            mats = disc._deviations(dev, block_sizes, flat, d, np.arange(math.prod(block_sizes))) + fixed
            mu = np.linalg.eigvalsh(mats)
            assert np.array_equal(leaves.reshape(-1, d + 1), disc._monic_from_roots_batch(mu * mu)), (d, n, k)


ROUTE_METHODS = {"subsets": "_subset_ypolys", "signs": "_sign_ypolys"}


def count_route_parts(monkeypatch):
    """The number of fixed parts of each call of either engine route, in
    order."""
    sent = []
    for name in ROUTE_METHODS.values():
        method = getattr(disc._Tail, name)
        monkeypatch.setattr(disc._Tail, name, lambda self, fixed, m, method=method: sent.append(len(fixed)) or method(self, fixed, m))
    return sent


def test_engine_halves_negated_pairs(rng, monkeypatch, engine_route):
    # parts in negated pairs, fixed[::-1] == -fixed exactly, with B even and
    # with B odd around a zero middle part: the route solves ceil(B/2) of
    # them, the rows are the unhalved ones and they mirror exactly
    d, m = 3, 5
    tail = disc._Tail(rng.normal(size=(m, d)) + 1j * rng.normal(size=(m, d)), rng.uniform(0.5, 2.0, size=m), d)
    solve = getattr(disc._Tail, ROUTE_METHODS[engine_route])
    sent = count_route_parts(monkeypatch)
    half = np.array([random_hermitian(rng, d) for _ in range(3)])
    for parts in (np.concatenate([half, -half[::-1]]), np.concatenate([half, np.zeros((1, d, d)), -half[::-1]])):
        sent.clear()
        got = tail.ypolys(parts, m)
        assert sent == [(len(parts) + 1) // 2]
        want = solve(tail, parts, m)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert np.array_equal(got, got[::-1])
        # one entry one ulp off: no pairs, every part solved
        off = parts.copy()
        off[-1, 0, 0] = np.nextafter(off[-1, 0, 0].real, np.inf)
        sent.clear()
        assert np.abs(tail.ypolys(off, m) - want).max() <= 1e-12 * np.abs(want).max()
        assert sent == [len(parts)]


def test_greedy_halves_mirror_blocks(monkeypatch):
    # a Rademacher family with no fixed part: a first block of depth L sends
    # the assignments whose first sign is the first atom, 2^(L-1) parts, to
    # the engine, and its two level-1 branches come out exactly equal
    inst = seeded_rademacher(3, 4, 8)
    plan = disc._plan_descent
    sent = count_route_parts(monkeypatch)
    for depth in range(1, inst.n + 1):
        sent.clear()
        monkeypatch.setattr(disc, "_plan_descent", lambda d, levels: (depth,) + plan(d, levels[depth:]))
        _, trace = disc.greedy_interlacing_solve(inst)
        first = trace.levels[0]
        assert sent[0] == 2 ** (depth - 1)
        assert first.branch_coeffs[0] == first.branch_coeffs[1] and first.chosen_index == 0
        chosen = ()
        for lv in trace.levels:
            for t, coeffs in enumerate(lv.branch_coeffs):
                assert_close_to_enum(coeffs, inst, chosen + (t,))
            chosen += (lv.chosen_index,)
    monkeypatch.setattr(disc, "_plan_descent", plan)
    # laws (-1, 0, 1), (1/4, 1/2, 1/4): the planner's first block of L
    # levels sends (3^L + 1) / 2 parts, the zero one among them, and every
    # branch matches the enumeration
    odd = model.DiscreteRandomVariable((-1.0, 0.0, 1.0), (0.25, 0.5, 0.25))
    inst = model.RankOneInstance(3, random_rank_one_instance(np.random.default_rng(7), 3, 7).vectors, (odd,) * 7)
    sent.clear()
    _, trace = disc.greedy_interlacing_solve(inst)
    first = plan(3, tuple((6 - k, 3) for k in range(7)))[0]
    assert sent[0] == (3**first + 1) // 2
    chosen = ()
    for lv in trace.levels:
        for t, coeffs in enumerate(lv.branch_coeffs):
            assert_close_to_enum(coeffs, inst, chosen + (t,))
        chosen += (lv.chosen_index,)
    # every node of blocks over mirror laws of even and odd support, at every
    # depth, against the enumeration (the last law does not mirror), also
    # with deviations that mirror under probabilities that do not: a part's
    # row does not see the block's probabilities, so the parts pair up
    laws = (
        model.DiscreteRandomVariable((-2.0, -1.0, 1.0, 2.0), (0.125, 0.375, 0.375, 0.125)),
        odd,
        model.DiscreteRandomVariable.rademacher(),
        odd,
        model.DiscreteRandomVariable((0.0, 1.0), (0.25, 0.75)),
    )
    skewed = model.DiscreteRandomVariable((-3.0, -1.0, 1.0, 3.0), (0.25, 0.125, 0.5, 0.125))
    vectors = random_rank_one_instance(np.random.default_rng(5), 3, 5).vectors
    for first in (laws[0], skewed):
        mixed = model.RankOneInstance(3, vectors, (first,) + laws[1:])
        terms, means, sizes, supp, prob = disc._family(mixed)
        assert means[0] == 0.0
        tail, after = greedy_tail(mixed)
        for depth in range(1, 5):
            sent.clear()
            tree = disc._block_tree(tail, *block_args(mixed, (), depth), after[depth - 1])
            assert sent == [(math.prod(sizes[:depth]) + 1) // 2]
            for j, nodes in enumerate(tree, 1):
                assert nodes.shape == tuple(sizes[:j]) + (4,)
                for path in itertools.product(*(range(s) for s in sizes[:j])):
                    weight = float(np.prod(prob[np.arange(j), list(path)]))
                    assert_close_to_enum(disc._even_to_x(weight * nodes[path]), mixed, path)


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
    eigvals = count_matrices(monkeypatch, "eigvals")
    disc.greedy_interlacing_solve(inst)
    # every level takes its branch roots (level 1 the top polynomial's too)
    # in one call
    assert eigvals["calls"] == n
    # the levels go in three blocks: levels 1-4 (no fixed part, so their 2^4
    # parts come in negated pairs and the engine solves 2^3) on the tail of
    # m = 10 and levels 5-8 (2^4 parts) on m = 6, both on the subset route,
    # one eigh call each
    assert eigh["calls"] == 2 and eigh["matrices"] == 8 + 16
    # levels 9-14 are one block down to the last level: one eigvalsh call on
    # its 2^6 leaves; beyond it eigvalsh sees only the final deviation, whose
    # norm is the reported value
    assert eigvalsh["calls"] == 2 and eigvalsh["matrices"] == 2**6 + 1
    # the compounds of the tail vectors and of every branch eigenbasis come
    # from Laplace steps (and complementary minors), not determinants
    assert det["matrices"] == 0


def test_plan_descent_chains(rng, monkeypatch):
    # one backward pass plans every block of a greedy, each a block that
    # _blocks offers where it starts: d = 4 Rademacher levels and three-atom
    # ones, every block priced for all its parts
    def rademacher(n):
        return tuple((n - 1 - k, 2) for k in range(n))

    three_atom = tuple((8 - k, 3) for k in range(9))
    chains = (
        (rademacher(14), (4, 4, 6)),
        (rademacher(40), (1,) * 16 + (3, 3, 3, 4, 5, 6)),
        (three_atom, (3, 3, 3)),
    )
    for levels, want in chains:
        chain = disc._plan_descent(4, levels)
        assert chain == want
        start = 0
        for depth in chain:
            assert depth in [L for L, _, _ in disc._blocks(levels, start, disc.ENUM_CAP, disc._SIGN_BATCH)]
            start += depth
        assert start == len(levels)
    # a greedy plans once, before its first level
    plan = disc._plan_descent
    calls = []
    monkeypatch.setattr(disc, "_plan_descent", lambda d, levels: calls.append((d, levels)) or plan(d, levels))
    for inst, levels in (
        (seeded_rademacher(14, 4, 14), rademacher(14)),
        (random_rank_one_instance(rng, 4, 9, supports=(3,)), three_atom),
    ):
        calls.clear()
        disc.greedy_interlacing_solve(inst)
        assert calls == [(4, levels)]


def test_each_tail_builds_its_compounds_once(monkeypatch):
    # the greedy, the walk and every expected_charpoly call build one tail
    # each, whose compounds C_k(U) of shape (d, m) serve every prefix; the
    # eigenbases of branches and walk points go to _compounds as 3-D stacks
    # and are not counted
    built = []
    compounds = disc._compounds

    def counted(a, top):
        if a.ndim == 2:
            built.append(a.shape)
        return compounds(a, top)

    monkeypatch.setattr(disc, "_compounds", counted)
    pin_route(monkeypatch, "subsets")
    disc.greedy_interlacing_solve(seeded_rademacher(14, 4, 14))
    # the tail of the greedy is every variable after the first
    assert built == [(4, 13)]
    built.clear()
    inst = seeded_rademacher(10, 4, 10)
    assert witness.replay_barrier_walk(model.normalize(inst)).passed
    assert built == [(4, 10)]
    built.clear()
    for k in (0, 3, 9):
        disc.expected_charpoly(inst, (0,) * k)
    assert built == [(4, 10), (4, 7), (4, 1)]
    # a call with no tail variable builds none
    built.clear()
    disc.expected_charpoly(inst, (0,) * 10)
    assert built == []


def test_greedy_large_constant_term():
    # d = 10, n = 13: a first-level y-polynomial is monic with a constant
    # term beyond 1e14, whose leading coefficient a relative trim dropped
    inst = seeded_rademacher(10, 10, 13)
    brute = disc.disc_bruteforce(inst)
    _, trace = disc.greedy_interlacing_solve(inst)
    assert max(np.abs(c).max() for c in trace.levels[0].branch_coeffs) > 1e14
    assert brute.value <= trace.final_value + 1e-12
    assert trace.final_value <= 3.0 * model.sigma(inst) + 1e-9
    assert max(lv.chosen_lambda_max - lv.parent_lambda_max for lv in trace.levels) <= 1e-9
    assert abs(trace.final_value - trace.leaf_lambda_max) < 1e-9


def det_minors(a, rows, cols):
    """``det a[..., R, S]`` for R in ``rows``, S in ``cols``, one determinant
    per minor: shape (..., |rows|, |cols|)."""
    sub = a[..., rows[:, None, :, None], cols[None, :, None, :]]
    return np.linalg.det(sub)


def test_colex_store_serves_prefixes(monkeypatch):
    # sizes asked for in a shuffled order that grows and shrinks m: every
    # table is the colex list, and a smaller m reads prefixes of the one
    # stored table
    monkeypatch.setattr(disc, "_COLEX", {})
    grid = [(m, d) for d in range(1, 6) for m in range(13)]
    for i in np.random.default_rng(23).permutation(len(grid)):
        m, d = grid[i]
        before = disc._COLEX.get(d)
        tables = disc._colex_tables(m, d)
        stored_m, stored = disc._COLEX[d]
        assert stored_m == max(m, before[0] if before else m) and len(tables) == d + 1
        if before and before[0] >= m:
            assert disc._COLEX[d] is before  # served, not rebuilt
        for k, t in enumerate(tables):
            want = sorted(itertools.combinations(range(m), k), key=lambda s: s[::-1])
            assert t.shape == (len(want), k) and [tuple(row) for row in t] == want, (m, d, k)
            assert not t.flags.writeable
            if stored_m > m and t.size:
                assert np.shares_memory(t, stored[k]), (m, d, k)


def test_colex_store_keeps_one_table(monkeypatch):
    # subset-route engine calls at every m from 6 to 30 leave one d = 4
    # table, the size of a fresh m = 30 one, and no cache pins a replaced one
    monkeypatch.setattr(disc, "_COLEX", {})
    monkeypatch.setattr(disc, "_plan_route", lambda *args, **kwargs: "subsets")
    disc._dim_tables.cache_clear()
    disc._dim_tables(4)  # stores the m = 4 table
    replaced = [weakref.ref(t) for t in disc._COLEX[4][1]]
    rng = np.random.default_rng(6)
    for m in range(6, 31):
        vectors = rng.normal(size=(m, 4)) + 1j * rng.normal(size=(m, 4))
        tail = disc._Tail(vectors, rng.uniform(0.5, 1.5, size=m), 4)
        assert tail.ypolys(np.zeros((1, 4, 4)), m).shape == (1, 5)
        if m < 30:
            replaced += [weakref.ref(t) for t in disc._COLEX[4][1]]
    stored_m, stored = disc._COLEX[4]
    assert stored_m == 30
    assert sum(t.nbytes for t in stored) == sum(math.comb(30, k) * k for k in range(5)) * np.dtype(np.intp).itemsize
    assert all(ref() is None for ref in replaced)
    for held in disc._dim_tables(4):
        for a in held if isinstance(held, tuple) else (held,):
            assert not any(np.shares_memory(a, t) for t in stored)


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
    assert max(lv.chosen_lambda_max - lv.parent_lambda_max for lv in trace.levels) <= 1e-9
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


def test_greedy_refuses_before_any_eigensolve(monkeypatch):
    # d = 6, n = 46: the first level's subset route counts the compounds of
    # its whole tail of 45 vectors, sum_k C(45, k) C(6, k), with those of the
    # one branch of its negated pair that it solves, past the cap, and its
    # 2^45 sign patterns too; no deeper block is offered, since its
    # enumeration is 2^45 or more
    d, n = 6, 46
    inst = seeded_rademacher(n, d, n)
    kernels = [count_matrices(monkeypatch, name) for name in ("eigvalsh", "eigh", "eigvals")]
    with pytest.raises(EnumerationTooLarge) as refused:
        disc.greedy_interlacing_solve(inst)
    ks = range(1, d + 1)
    assert refused.value.required == sum(math.comb(n - 1, k) * math.comb(d, k) + math.comb(d, k) ** 2 for k in ks)
    assert refused.value.required > disc.ENUM_CAP and all(k["calls"] == 0 for k in kernels)


def test_first_call_counts_the_whole_tail():
    # a subset-route call on a prefix of m = 15 of a tail of 21 vectors whose
    # compounds are not built builds them all, so it is counted for all 21:
    # past the cap at d = 10, where its own 15 fit
    d, m, whole, nb = 10, 15, 21, 64
    count = sum(math.comb(m, k) * math.comb(d, k) + nb * math.comb(d, k) ** 2 for k in range(1, d + 1))
    assert count <= disc.ENUM_CAP < sum(math.comb(whole, k) * math.comb(d, k) for k in range(1, d + 1))
    assert disc._plan_route(d, m, nb) == disc._plan_route(d, m, nb, build=0) == "subsets"
    assert disc._plan_route(d, m, nb, build=whole) == "signs"
    # a tail counts its vectors until its first subset-route call builds them
    vectors = np.random.default_rng(1).normal(size=(whole, 4))
    tail = disc._Tail(vectors, np.ones(whole), 4)
    assert tail.build == whole
    tail._subset_ypolys(np.zeros((1, 4, 4)), 3)
    assert tail.build == 0 and tail.terms[1][0].shape == (4, whole)


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
    with pytest.raises(EnumerationTooLarge):
        disc.expected_charpoly_operator(inst)
    # the 8 sign patterns fit a cap of 10, the 4^3 = 64 words of p = 6 do not
    monkeypatch.setattr(disc, "ENUM_CAP", 10)
    assert schatten.disc_p(herm, [6.0])[0] >= 0.0
    with pytest.raises(EnumerationTooLarge):
        schatten.khintchine_bounds(herm, 6.0)


def test_greedy_dimension_close_to_n(monkeypatch):
    # d = 9, n = 11: the first two levels are one block, whose 4 parts come
    # in negated pairs, 2 of them solved on the subset route over a tail of
    # 9, and the last nine one block of 2^9 leaves; with every engine call
    # pinned to the subset route, its C(19, 9) - 1 = 92,377 tail compound
    # entries and the C(18, 9) - 1 entries of the one first-level branch it
    # solves all come from Laplace steps. Neither route takes a determinant
    inst = seeded_rademacher(14, 9, 11)
    det = count_matrices(monkeypatch, "det")
    _, planned = disc.greedy_interlacing_solve(inst)
    pin_route(monkeypatch, "subsets")
    _, pinned = disc.greedy_interlacing_solve(inst)
    assert det["matrices"] == 0
    for trace in (planned, pinned):
        assert max(lv.chosen_lambda_max - lv.parent_lambda_max for lv in trace.levels) <= 1e-9
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


@pytest.mark.parametrize("d, n", [(4, 12), (4, 40), (6, 30)])
def test_top_polynomial_moment_identities(d, n):
    # two coefficients of the top polynomial in closed form, from the
    # variances tau_i^2 and the Gram entries g_ik = <u_i, u_k>, up to sizes
    # that no enumeration reaches:
    #   x^(2d-2): -sum_i tau_i^2 |u_i|^4
    #   x^(2d-4): sum_{i<k} tau_i^2 tau_k^2 (|u_i|^2 |u_k|^2 - |g_ik|^2)^2
    inst = random_rank_one_instance(np.random.default_rng(100 * d + n), d, n)
    p = disc.expected_charpoly(inst)
    u = np.array(inst.vectors)
    tau2 = np.array([rv.variance for rv in inst.rvs])
    sq = np.einsum("ij,ij->i", u.conj(), u).real
    pairs = np.outer(tau2, tau2) * (np.outer(sq, sq) - np.abs(u.conj() @ u.T) ** 2) ** 2
    for got, want in ((p[2 * d - 2], -np.sum(tau2 * sq**2)), (p[2 * d - 4], np.triu(pairs, 1).sum())):
        assert abs(got - want) <= 1e-12 * abs(want), (got, want)
