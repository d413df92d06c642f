import itertools
import json
import math

import numpy as np
import pytest

from matdisc import cli, disc, model, rpoly, witness
from matdisc.errors import (
    DimensionMismatch,
    EnumerationTooLarge,
    HypothesisNotMet,
    InvariantViolation,
    NotAboveRoots,
    NotPSD,
)

from conftest import count_matrices, random_rank_one_instance


def unit_evaluator():
    inst = model.RankOneInstance(1, (np.array([1.0]),), (model.DiscreteRandomVariable.rademacher(),))
    return witness.QEvaluator(inst)


def normalized_instance(rng, d, n):
    return model.normalize(random_rank_one_instance(rng, d, n))


def random_psd(rng, d):
    g = rng.normal(size=(d, d))
    return g @ g.T / d


def grid_q(qe, k, x, z):
    """Reference Q_k from the per-variable three-point rule
    ``2 f(z) - (f(z+1) + f(z-1)) / 2``: a weighted sum of Q over the grid
    ``z + {-1,0,1}^k``. Returns the value and the sum of absolute terms."""
    grid = np.array(list(itertools.product([-1.0, 0.0, 1.0], repeat=k))).reshape(3**k, k)
    weights = np.prod(np.where(grid == 0.0, 2.0, -0.5), axis=1)
    zs = np.repeat(np.asarray(z, float)[None], len(grid), axis=0)
    zs[:, :k] += grid
    dets = np.linalg.det(x * np.eye(qe.dim) + np.tensordot(zs, qe._tw, axes=(1, 0)))
    terms = weights * np.abs(dets) ** 2
    return float(terms.sum()), float(np.abs(terms).sum())


def sign_pair_sum(qe, k, x, z, fn):
    """Average over all s in {-1,1}^k (both halves) of fn(M(z+s), M(z-s)),
    where M(z) = xI + sum_i z_i tau_i v_i v_i*."""
    total = 0.0
    for s in itertools.product([-1.0, 1.0], repeat=k):
        shift = np.zeros(qe.n)
        shift[:k] = s
        m_plus = x * np.eye(qe.dim) + np.tensordot(np.asarray(z) + shift, qe._tw, axes=(0, 0))
        m_minus = x * np.eye(qe.dim) + np.tensordot(np.asarray(z) - shift, qe._tw, axes=(0, 0))
        total += fn(m_plus, m_minus)
    return total / 2.0**k


def det_pair(m_plus, m_minus):
    return np.linalg.det(m_plus).real * np.linalg.det(m_minus).real


def trace_form_barriers(qe, x, z):
    """Barriers of Q = det[xI + W(z)]^2 from the trace form of the
    determinant's derivative, ``2 tr(M^-1 tau_i v_i v_i*)``: the k = 0
    oracle."""
    m = x * np.eye(qe.dim) + np.tensordot(np.asarray(z, float), qe._tw, axes=(0, 0))
    return np.array([2.0 * np.trace(np.linalg.solve(m, tw)).real for tw in qe._tw])


# -- Q_k at one point -------------------------------------------------------


def test_q_eval_base_case():
    qe = unit_evaluator()
    assert qe.eval_many(0, [2.0], [[0.0]])[0] == pytest.approx(4.0, abs=1e-14)


def test_q_eval_zero_shift_is_power():
    rng = np.random.default_rng(0)
    inst = normalized_instance(rng, 3, 2)
    qe = witness.QEvaluator(inst)
    assert qe.eval_many(0, [1.7], [np.zeros(qe.n)])[0] == pytest.approx(1.7 ** (2 * 3), rel=1e-12)


def test_q_eval_one_variable_transform():
    qe = unit_evaluator()
    for x in (1.5, 2.0, 3.0):
        assert qe.eval_many(1, [x], [[0.0]])[0] == pytest.approx(x * x - 1.0, rel=1e-12)


ROUTES = ("signs", "subsets")


def pin_route(monkeypatch, route):
    """Pin eval_many (and the engine) to one route, whatever the planner
    would pick."""
    monkeypatch.setattr(disc, "_plan_route", lambda *args, **kwargs: route)


def test_eval_many_matches_grid_oracle(monkeypatch):
    # both routes at every k <= n, so k > d is covered for d < 6
    for route in ROUTES:
        pin_route(monkeypatch, route)
        rng = np.random.default_rng(5)
        for d in range(1, 6):
            for n in range(1, 7):
                qe = witness.QEvaluator(normalized_instance(rng, d, n))
                xs = rng.uniform(0.5, 4.0, size=3)
                zs = rng.normal(size=(3, n))
                for k in range(n + 1):
                    got = qe.eval_many(k, xs, zs)
                    for x, z, val in zip(xs, zs, got):
                        want, scale = grid_q(qe, k, x, z)
                        assert abs(val - want) <= 1e-12 * scale, (route, d, n, k)


def test_eval_many_at_origin_is_the_top_polynomial():
    # Q_n(x, 0) is the top polynomial; d = 4, n = 20 is far past the sign
    # pairs' reach in a test, so the planner takes the subset sums
    rng = np.random.default_rng(20)
    inst = normalized_instance(rng, 4, 20)
    qe = witness.QEvaluator(inst)
    coeffs = disc.expected_charpoly(inst)
    for x in (2.0, 3.0, 4.5):
        got = qe.eval_many(qe.n, [x], [np.zeros(qe.n)])[0]
        assert got == pytest.approx(np.polynomial.polynomial.polyval(x, coeffs), rel=1e-12, abs=0.0)


def test_p_empty_matches_operator_route(rng):
    inst = normalized_instance(rng, 3, 4)
    pa = disc.expected_charpoly(inst)
    pb = disc.expected_charpoly_operator(inst)
    scale = max(np.abs(pa).max(), np.abs(pb).max())
    assert np.abs(pa - pb).max() < 1e-8 * scale


def test_p_empty_with_every_coordinate_dropped():
    # a constant law and a zero vector leave no coordinate: the top
    # polynomial is det(xI)^2 in the instance's dimension
    inst = model.RankOneInstance(
        3,
        (np.array([1.0, 0.0, 0.5]), np.zeros(3)),
        (model.DiscreteRandomVariable((0.2,), (1.0,)), model.DiscreteRandomVariable.rademacher()),
    )
    qe = witness.QEvaluator(inst)
    assert qe.n == 0 and qe.dim == 3
    assert np.array_equal(disc.expected_charpoly(inst), [0.0] * 6 + [1.0])
    trace = witness.replay_barrier_walk(inst)
    assert trace.passed and trace.steps == ()


def test_q_eval_operator_order_commutes(rng):
    # applying the per-variable rule in either order gives the same value
    inst = normalized_instance(rng, 2, 2)
    qe = witness.QEvaluator(inst)
    x, z = 3.0, np.array([0.3, -0.2])

    def rule(f, i, at):
        hi, lo = at.copy(), at.copy()
        hi[i] += 1.0
        lo[i] -= 1.0
        return 2.0 * f(at) - (f(hi) + f(lo)) / 2.0

    f0 = lambda zz: qe.eval_many(0, [x], [zz])[0]
    f_01 = rule(lambda a: rule(f0, 0, a), 1, z)
    f_10 = rule(lambda a: rule(f0, 1, a), 0, z)
    assert f_01 == pytest.approx(f_10, rel=1e-12)
    assert qe.eval_many(2, [x], [z])[0] == pytest.approx(f_01, rel=1e-11)


def test_q_eval_matches_sign_pair_identity(rng):
    # two independent forms of Q_n: the three-point grid and the average
    # over all sign vectors s of det(M(z+s)) det(M(z-s))
    inst = normalized_instance(rng, 2, 3)
    qe = witness.QEvaluator(inst)
    x, z = 2.5, np.array([-0.1, 0.2, 0.05][: qe.n])
    pairs = sign_pair_sum(qe, qe.n, x, z, det_pair)
    grid, scale = grid_q(qe, qe.n, x, z)
    assert abs(pairs - grid) <= 1e-12 * scale


def test_from_instance_drops_constant_coordinates(rng):
    inst = normalized_instance(rng, 2, 2)
    widened = model.RankOneInstance(
        2,
        inst.vectors + (np.array([1.0, 0.0]),),
        inst.rvs + (model.DiscreteRandomVariable((0.7,), (1.0,)),),
    )
    qe = witness.QEvaluator(widened)
    assert qe.n == 2


# -- barriers ---------------------------------------------------------------


def test_initial_barriers_bounded_by_deltas(rng):
    for _ in range(5):
        inst = normalized_instance(rng, int(rng.integers(2, 5)), int(rng.integers(2, 6)))
        qe = witness.QEvaluator(inst)
        barriers = witness.certify_above_roots(qe, 0, 3.0, -qe.deltas)
        assert barriers.shape == (qe.n,)
        assert np.all(barriers <= qe.deltas + 1e-9)


def test_barrier_analytic_fd_agreement(rng):
    # the certification's central differences at k = 0 against the trace form
    inst = normalized_instance(rng, 3, 3)
    qe = witness.QEvaluator(inst)
    w0 = -qe.deltas
    central = witness.certify_above_roots(qe, 0, 3.0, w0)
    for i, want in enumerate(trace_form_barriers(qe, 3.0, w0)):
        assert central[i] == pytest.approx(want, rel=1e-12, abs=0.0)


def test_barrier_matches_resolvent_form(rng, monkeypatch):
    # barrier j of Q_k from the sign-pair form, on both routes: each det
    # factor contributes its log-derivative tau_j v_j* M^-1 v_j
    inst = normalized_instance(rng, 3, 4)
    qe = witness.QEvaluator(inst)

    def resolvent(j):
        v, tau = qe.vectors[j], qe.taus[j]

        def term(mp, mm):
            log_der = tau * (np.vdot(v, np.linalg.solve(mp, v)) + np.vdot(v, np.linalg.solve(mm, v))).real
            return det_pair(mp, mm) * log_der

        return term

    for k in range(1, qe.n + 1):
        # the walk's point after k shifts, which it certifies above the roots
        z = np.where(np.arange(qe.n) < k, 0.0, -qe.deltas)
        value = sign_pair_sum(qe, k, 3.0, z, det_pair)
        want = [sign_pair_sum(qe, k, 3.0, z, resolvent(j)) / value for j in range(qe.n)]
        for route in ROUTES:
            pin_route(monkeypatch, route)
            got = witness.certify_above_roots(qe, k, 3.0, z)
            for j in range(qe.n):
                assert got[j] == pytest.approx(want[j], rel=1e-12, abs=0.0), (route, k, j)


def test_barrier_monotone_along_shifts(rng):
    inst = normalized_instance(rng, 2, 3)
    qe = witness.QEvaluator(inst)
    w0 = -qe.deltas
    base = witness.certify_above_roots(qe, 0, 3.0, w0)
    for t in (0.1, 1.0, 10.0):
        assert np.all(witness.certify_above_roots(qe, 0, 3.0 + t, w0) <= base + 1e-12)


def test_barrier_requires_point_above_roots():
    with pytest.raises(NotAboveRoots):
        witness.certify_above_roots(unit_evaluator(), 0, 0.5, [-1.0])


def test_certify_probe_points_and_first_failure(rng, monkeypatch):
    qe = witness.QEvaluator(normalized_instance(rng, 2, 3))
    x, z = 3.0, -qe.deltas
    t = witness.PROBE_STEP * np.arange(1, witness.PROBE_POINTS)
    # the centre, z + e_j, z - e_j, then the x ray and the all-ones ray
    # past the centre: 2n + 31 points in one call
    want_xs = [x] * (1 + 2 * qe.n) + list(x + t) + [x] * len(t)
    want_zs = [z] + list(z + np.eye(qe.n)) + list(z - np.eye(qe.n)) + [z] * len(t) + [z + tv for tv in t]
    seen = []
    evaluate = qe.eval_many
    monkeypatch.setattr(qe, "eval_many", lambda k, xs, zs: seen.append((k, xs, zs)) or evaluate(k, xs, zs))
    witness.certify_above_roots(qe, 2, x, z)
    assert len(seen) == 1 and len(want_xs) == 2 * qe.n + 31
    assert np.array_equal(seen[0][1], want_xs) and np.array_equal(seen[0][2], want_zs)
    # at k = 0 positive definiteness certifies, and only the centre and the
    # unit steps are evaluated, for the barriers
    witness.certify_above_roots(qe, 0, x, z)
    assert len(seen) == 2 and seen[1][0] == 0
    assert np.array_equal(seen[1][1], want_xs[: 1 + 2 * qe.n]) and np.array_equal(seen[1][2], want_zs[: 1 + 2 * qe.n])
    # Q_1 = (x + z)^2 - 1 is negative at (0.5, 0): the coordinate ray fails first
    with pytest.raises(NotAboveRoots, match="coordinate ray 0"):
        witness.certify_above_roots(unit_evaluator(), 1, 0.5, [0.0])


# -- barrier walk -----------------------------------------------------------


def test_walk_trivial_instance():
    inst = model.RankOneInstance(1, (np.array([1.0]),), (model.DiscreteRandomVariable.rademacher(),))
    trace = witness.replay_barrier_walk(inst)
    assert trace.passed and trace.failed_step is None and trace.reason is None
    assert trace.deltas == (1.0,)


def test_walk_seeded_instances(rng):
    for _ in range(6):
        inst = normalized_instance(rng, int(rng.integers(2, 5)), int(rng.integers(2, 7)))
        trace = witness.replay_barrier_walk(inst)
        assert trace.passed and len(trace.steps) == len(trace.deltas)
        assert rpoly.lambda_max(disc.expected_charpoly(inst), tol=1e-6) <= 3.0 + 1e-9
        for b, dlt in zip(trace.initial_barriers, trace.deltas):
            assert b <= dlt + 1e-9
        assert all(0.0 < dlt <= 1.0 + 1e-9 for dlt in trace.deltas)


def test_walk_denormalized_fails_at_initial_point():
    inst = model.RankOneInstance(
        1, (np.array([math.sqrt(2.0)]),), (model.DiscreteRandomVariable.rademacher(),)
    )
    trace = witness.replay_barrier_walk(inst)
    assert not trace.passed and trace.failed_step == -1 and trace.steps == ()
    assert trace.reason.startswith("initial")


def test_walk_returns_its_failure(monkeypatch):
    # a violated inequality ends the walk, which returns its verdict: the
    # steps finished before it, the step and the reason; nothing is raised
    inst = normalized_instance(np.random.default_rng(5), 3, 4)
    full = witness.replay_barrier_walk(inst)
    assert full.passed and len(full.steps) == 4
    monkeypatch.setattr(witness, "WALK_MONO_TOL", -1.0)
    trace = witness.replay_barrier_walk(inst)
    assert not trace.passed and trace.failed_step == 0 and trace.steps == ()
    assert trace.reason.startswith("barrier 1 increased")
    assert trace.initial_barriers == full.initial_barriers
    monkeypatch.undo()

    # the shifted point of step 2 fails its certification
    certify = witness.certify_above_roots

    def fail_at_q3(qe, k, x, z):
        if k == 3:
            raise NotAboveRoots("forced")
        return certify(qe, k, x, z)

    monkeypatch.setattr(witness, "certify_above_roots", fail_at_q3)
    trace = witness.replay_barrier_walk(inst)
    assert trace.failed_step == 2 and trace.reason == "shifted point not above roots: forced"
    assert trace.steps == full.steps[:2]
    doc = trace.to_doc()
    assert doc["passed"] is False and doc["failed_step"] == 2 and len(doc["steps"]) == 2


def test_walk_skips_zero_variance_coordinates(rng):
    inst = normalized_instance(rng, 2, 2)
    widened = model.RankOneInstance(
        2,
        inst.vectors + (np.array([0.4, 0.1]),),
        inst.rvs + (model.DiscreteRandomVariable((1.0,), (1.0,)),),
    )
    trace = witness.replay_barrier_walk(widened)
    assert trace.passed and len(trace.deltas) == 2


@pytest.mark.parametrize("seed", [173203225157572076, 2668583880909706694])
def test_walk_monotonicity_seeds(seed):
    # finite-difference barrier noise (~1e-7) once broke the 1e-8 check at
    # step 6 on these criterion 04 seeds
    assert witness.WALK_MONO_TOL == 1e-8
    assert cli.verify_thm41(seed=seed, count=1)["pass"]


def test_walk_determinant_count(monkeypatch):
    # exact work of a walk on each route: a return to the 3^k grid (or any
    # extra evaluation) changes these counts
    rng = np.random.default_rng(8)
    d, n = 4, 8
    vectors = tuple((rng.normal(size=d) + 1j * rng.normal(size=d)) / math.sqrt(2.0) for _ in range(n))
    rvs = tuple(model.DiscreteRandomVariable.rademacher() for _ in range(n))
    inst = model.normalize(model.RankOneInstance(d, vectors, rvs))
    # the start point takes Q at its centre and both unit steps of every
    # coordinate, 2n + 1 points; step k certifies Q_k and takes its barriers
    # at those points plus the x and all-ones rays past the centre
    start = 2 * n + 1
    probes = 2 * n + 2 * witness.PROBE_POINTS - 1
    calls = []
    evaluate = witness.QEvaluator.eval_many
    monkeypatch.setattr(witness.QEvaluator, "eval_many", lambda qe, k, xs, zs: calls.append(k) or evaluate(qe, k, xs, zs))
    for route in ROUTES:
        pin_route(monkeypatch, route)
        dets = count_matrices(monkeypatch, "det")
        eigvalsh = count_matrices(monkeypatch, "eigvalsh")
        eigh = count_matrices(monkeypatch, "eigh")
        calls.clear()
        assert witness.replay_barrier_walk(inst).passed
        # one evaluation call at the start point and one per step
        assert calls == list(range(n + 1))
        # the start point's positive-definiteness check takes one spectrum,
        # and the walk takes no top polynomial
        assert eigvalsh["matrices"] == 1
        if route == "signs":
            # each point costs 2^k determinants (one at k = 0)
            assert dets["matrices"] == start + sum(probes * 2**k for k in range(1, n + 1)) == 23987
            assert eigh["matrices"] == 0
        else:
            # the compounds of the n vectors and of every eigenbasis at a
            # walk point come from Laplace steps (and complementary minors),
            # not determinants; only the start point's k = 0 values take one
            # determinant each. A certification at k >= 1 has 2n + 16
            # distinct z (the x ray's share the centre's), each with one
            # eigenbasis.
            assert dets["matrices"] == start == 17
            assert eigh["matrices"] == n * (2 * n + 16) == 256


def test_walk_sign_pair_cap(rng, monkeypatch):
    inst = normalized_instance(rng, 2, 3)
    monkeypatch.setattr(disc, "ENUM_CAP", 2)
    counter = count_matrices(monkeypatch, "det")
    with pytest.raises(EnumerationTooLarge):
        witness.replay_barrier_walk(inst)
    assert counter["matrices"] == 0


def test_walk_beyond_the_sign_pair_cap(tmp_path):
    # d = 4, n = 26: the last steps' 2^25 sign pairs exceed ENUM_CAP, and
    # the subset sums carry the walk; `matdisc replay` passes on it too
    rng = np.random.default_rng(26)
    d, n = 4, 26
    assert 2 ** (n - 1) > disc.ENUM_CAP
    vectors = tuple((rng.normal(size=d) + 1j * rng.normal(size=d)) / math.sqrt(2.0) for _ in range(n))
    rvs = tuple(model.DiscreteRandomVariable.rademacher() for _ in range(n))
    path = tmp_path / "walk26.json"
    model.save_instance(model.RankOneInstance(d, vectors, rvs), path)
    out = tmp_path / "replay.json"
    assert cli.main(["replay", "--instance", str(path), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["trace"]["passed"] and len(doc["trace"]["steps"]) == n


def test_walk_determinant_batch_cap(monkeypatch):
    # no determinant call of a d = 4, n = 24 walk gets more than
    # _EVAL_BATCH matrices; on the sign pairs alone an n = 11 walk fills
    # its batches exactly (2 x 32 points x 2^10 pairs at k = 11)
    rng = np.random.default_rng(24)
    for n, route in ((24, None), (11, "signs")):
        if route:
            pin_route(monkeypatch, route)
        vectors = tuple(rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(n))
        rvs = tuple(model.DiscreteRandomVariable.rademacher() for _ in range(n))
        dets = count_matrices(monkeypatch, "det")
        assert witness.replay_barrier_walk(model.normalize(model.RankOneInstance(4, vectors, rvs))).passed
        assert 0 < dets["largest"] <= witness._EVAL_BATCH == 1 << 16
    assert dets["largest"] == witness._EVAL_BATCH


def test_p_empty_beyond_the_minor_cap():
    # d = 13, n = 14: the top polynomial's C(27, 13) - 1 minors exceed
    # ENUM_CAP while the walk's 2^13 sign pairs fit, so the engine sums the
    # sign pairs; checked against the sum over all 2^14 sign vectors
    rng = np.random.default_rng(13)
    d, n = 13, 14
    assert sum(math.comb(n, k) * math.comb(d, k) for k in range(1, d + 1)) > disc.ENUM_CAP
    inst = normalized_instance(rng, d, n)
    qe = witness.QEvaluator(inst)
    signs = np.array(list(itertools.product([1.0, -1.0], repeat=n)))
    mu = np.linalg.eigvalsh(np.tensordot(signs, qe._tw, axes=(1, 0)))
    want = disc._even_to_x(disc._monic_from_roots_batch(mu * mu).mean(axis=0))
    got = disc.expected_charpoly(inst)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_walk_trace_serializes(rng):
    inst = normalized_instance(rng, 2, 3)
    doc = witness.replay_barrier_walk(inst).to_doc()
    assert doc["passed"] and len(doc["steps"]) == 3
    assert doc["failed_step"] is None and doc["reason"] is None


# -- mixed discriminants ----------------------------------------------------


def test_mixed_discriminant_identity_matrices():
    for d in range(1, 6):
        assert witness.mixed_discriminant([np.eye(d)] * d) == pytest.approx(
            math.factorial(d), rel=1e-12
        )


def test_mixed_discriminant_two_dim_polarization():
    rng = np.random.default_rng(4)
    x, y = random_psd(rng, 2), random_psd(rng, 2)
    expect = np.linalg.det(x + y) - np.linalg.det(x) - np.linalg.det(y)
    assert witness.mixed_discriminant([x, y]) == pytest.approx(expect, rel=1e-12)


def test_mixed_discriminant_routes_agree(rng):
    for d in (2, 3, 4, 5):
        mats = [random_psd(rng, d) for _ in range(d)]
        a = witness.mixed_discriminant(mats)
        b = witness.mixed_discriminant_permanental(mats)
        assert abs(a - b) < 1e-9 * max(1.0, abs(a))


def test_mixed_discriminant_symmetry(rng):
    mats = [random_psd(rng, 3) for _ in range(3)]
    base = witness.mixed_discriminant(mats)
    for perm in itertools.permutations(range(3)):
        assert witness.mixed_discriminant([mats[i] for i in perm]) == pytest.approx(
            base, abs=1e-10 * max(1.0, abs(base))
        )


def test_mixed_discriminant_multilinear(rng):
    x, xp, y, z = (random_psd(rng, 3) for _ in range(4))
    a, b = 0.7, 1.3
    lhs = witness.mixed_discriminant([a * x + b * xp, y, z])
    rhs = a * witness.mixed_discriminant([x, y, z]) + b * witness.mixed_discriminant([xp, y, z])
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_mixed_discriminant_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        witness.mixed_discriminant([np.eye(3)] * 2)


def test_d_tilde_trace_identity(rng):
    for d in range(2, 7):
        x = random_psd(rng, d)
        assert witness.d_tilde([x]) == pytest.approx(float(np.trace(x)), abs=1e-10 * max(1.0, np.trace(x)))


def test_d_tilde_identity_value():
    for d in range(1, 6):
        assert witness.d_tilde([np.eye(d)]) == pytest.approx(d, rel=1e-12)


def test_d_tilde_pair_matches_padded_polarization(rng):
    d = 4
    x, y = random_psd(rng, d), random_psd(rng, d)
    direct = witness.mixed_discriminant([x, y, np.eye(d), np.eye(d)]) / math.factorial(2)
    assert witness.d_tilde([x, y]) == pytest.approx(direct, rel=1e-12)


def test_check_alexandrov_examples():
    lhs, rhs = witness.check_alexandrov(np.eye(2), np.eye(2))
    assert (lhs, rhs) == (pytest.approx(4.0), pytest.approx(2.0))
    lhs, rhs = witness.check_alexandrov(np.eye(3), np.zeros((3, 3)))
    assert rhs == pytest.approx(0.0, abs=1e-12) and lhs >= rhs


def test_check_alexandrov_rejects_non_psd():
    with pytest.raises(NotPSD):
        witness.check_alexandrov(np.diag([1.0, -1.0]), np.eye(2))


def test_check_alexandrov_sweep(rng):
    for _ in range(60):
        d = int(rng.integers(2, 7))
        lhs, rhs = witness.check_alexandrov(random_psd(rng, d), random_psd(rng, d))
        assert lhs >= rhs - 1e-9 * max(1.0, abs(lhs), abs(rhs))


def test_barrier_equals_normalized_mixed_discriminant(rng):
    # on a generated determinantal representation, the x-barrier equals the
    # padded mixed discriminant of the resolvent-compressed coefficient
    d = 4
    a, b = random_psd(rng, d), random_psd(rng, d) + 0.2 * np.eye(d)
    c = random_psd(rng, d)
    x0, y0 = 1.0, 2.0
    m = x0 * a + y0 * b + c
    root = np.linalg.cholesky(np.linalg.inv(m))
    a_hat = root.T @ a @ root
    dp = witness.DeterminantalPolynomial((a, b), c)
    assert dp.barrier(0, [x0, y0]) == pytest.approx(witness.d_tilde([a_hat]), rel=1e-9)


# -- quadratic and bivariate barrier lemmas ----------------------------------


def test_univariate_barrier_log_derivative():
    assert witness.univariate_barrier([0.0, 0.0, 1.0], 3.0) == pytest.approx(2.0 / 3.0)


def test_quadratic_barrier_examples():
    # x^2: f is identically zero
    assert witness.check_quadratic_barrier([0.0, 0.0, 1.0], [0.5, 1.0, 2.0])
    # (x-1)(x-2) and x^2 - 1
    assert witness.check_quadratic_barrier([2.0, -3.0, 1.0], [2.1, 3.0, 10.0])
    assert witness.check_quadratic_barrier([-1.0, 0.0, 1.0], [1.5, 2.0, 5.0])


def test_quadratic_barrier_requires_probes_above_roots():
    with pytest.raises(NotAboveRoots):
        witness.check_quadratic_barrier([2.0, -3.0, 1.0], [1.5, 3.0])


def test_quadratic_barrier_sweep(rng):
    for _ in range(50):
        r = np.sort(rng.uniform(-3, 3, size=2))
        lead = float(rng.uniform(0.2, 2.0))
        coeffs = lead * np.array([r[0] * r[1], -(r[0] + r[1]), 1.0])
        probes = r[1] + np.sort(rng.uniform(0.05, 8.0, size=8))
        assert witness.check_quadratic_barrier(coeffs, probes)


def test_determinantal_second_order_bound(rng):
    parts = tuple(random_psd(rng, 3) for _ in range(2))
    dp = witness.DeterminantalPolynomial(parts, np.eye(3))
    z = np.array([0.5, 1.0])
    for i in range(2):
        assert dp.second_ratio(i, z) <= dp.barrier(i, z) ** 2 + 1e-10


def test_bivariate_lemma_unit_shift(rng):
    for _ in range(20):
        d = int(rng.integers(2, 5))
        avec = rng.normal(size=d)
        a = np.outer(avec, avec)
        b = random_psd(rng, d) + 0.3 * np.eye(d)
        c = (lambda g: (g + g.T) / 2)(rng.normal(size=(d, d)))
        y0 = (abs(float(np.linalg.eigvalsh(c).min())) + 0.5) / float(np.linalg.eigvalsh(b).min())
        p = witness.DeterminantalBivariate(a, b, c)
        assert witness.check_bivariate_quadratic_lemma(p, (0.5, y0), 1.0)


def test_bivariate_lemma_fractional_shift_with_hypothesis():
    a = np.outer([0.3, 0.1], [0.3, 0.1])
    p = witness.DeterminantalBivariate(a, np.eye(2), np.zeros((2, 2)))
    # Phi^x = 2 * 0.1 = 0.2 <= 0.5 / 0.75
    assert witness.check_bivariate_quadratic_lemma(p, (0.0, 1.0), 0.5)


def test_bivariate_lemma_hypothesis_filter():
    a = np.outer([1.0, 0.0], [1.0, 0.0])
    p = witness.DeterminantalBivariate(a, np.eye(2), np.zeros((2, 2)))
    # Phi^x = 2 > 0.5 / 0.75
    with pytest.raises(HypothesisNotMet):
        witness.check_bivariate_quadratic_lemma(p, (0.0, 1.0), 0.5)


def test_bivariate_lemma_requires_rank_one():
    p = witness.DeterminantalBivariate(np.eye(2), np.eye(2), np.zeros((2, 2)))
    with pytest.raises(InvariantViolation):
        witness.check_bivariate_quadratic_lemma(p, (1.0, 1.0), 1.0)
