import numpy as np
import numpy.polynomial.polynomial as npp
import pytest

from matdisc import disc, rpoly
from matdisc.errors import DegreeMismatch, DegreeZero, NotRealRooted


def test_roots_examples():
    assert rpoly.real_roots([-1.0, 0.0, 1.0]) == pytest.approx([-1.0, 1.0])
    assert np.array_equal(rpoly.real_roots([0.0, 0.0, 0.0, 1.0]), np.zeros(3))
    expanded = npp.polyfromroots([1.0, 2.0, 3.0])
    assert rpoly.real_roots(expanded) == pytest.approx([1.0, 2.0, 3.0], abs=1e-10)


def test_roots_degree_zero():
    with pytest.raises(DegreeZero):
        rpoly.real_roots([4.0])


def test_roots_expand_round_trip():
    rng = np.random.default_rng(1)
    for _ in range(20):
        rts = np.sort(rng.uniform(-3, 3, size=6))
        got = rpoly.real_roots(npp.polyfromroots(rts))
        assert np.abs(got - rts).max() < 1e-8


def test_lambda_max_examples():
    assert rpoly.lambda_max([-4.0, 0.0, 1.0]) == pytest.approx(2.0, abs=1e-12)
    assert rpoly.lambda_max([1.0, -2.0, 1.0]) == pytest.approx(1.0, abs=1e-7)
    # top polynomial of the one-vector symmetric-sign family in dimension 1
    assert rpoly.lambda_max([-1.0, 0.0, 1.0]) == pytest.approx(1.0, abs=1e-12)


def test_lambda_max_rejects_complex_roots():
    with pytest.raises(NotRealRooted):
        rpoly.lambda_max([1.0, 0.0, 1.0])


def test_is_real_rooted_examples():
    assert not rpoly.is_real_rooted([1.0, 0.0, 1.0])
    assert rpoly.is_real_rooted([-1.0, 0.0, 1.0])


def test_origin_multiplicity_is_deflated():
    # (x^6)(x - 1): the sextuple origin root would split into a complex
    # cluster under coefficient noise without deflation
    c = npp.polymul([0.0] * 6 + [1.0], [-1.0, 1.0])
    c = np.asarray(c) * (1 + 1e-15)
    assert rpoly.is_real_rooted(c, tol=1e-7)
    assert rpoly.lambda_max(c) == pytest.approx(1.0, abs=1e-10)


def test_batched_roots_match_one_polynomial_at_a_time():
    # one stack of quartics: deflated origin roots leave reduced lengths 5,
    # 4 and 3, degree 1 and a constant: each row's roots are numpy's own
    # (companion eigenvalues, and -c0 / c1 at degree 1), bit for bit, and
    # those of the row alone
    rng = np.random.default_rng(9)
    rows = [
        (npp.polyfromroots(rng.uniform(-2, 2, size=4)), 0),
        (npp.polymul([0.0, 0.0, 1.0], npp.polyfromroots(rng.uniform(-2, 2, size=2))), 2),
        (npp.polymul([0.0, 0.0, 0.0, 1.0], [3.0, -1.5]), 3),
        (np.array([0.0, 0.0, 0.0, 0.0, 2.0]), 4),
        (2.5 * npp.polyfromroots(rng.uniform(-2, 2, size=4)), 0),
        (npp.polymul([0.0, 1.0], npp.polyfromroots(rng.uniform(-2, 2, size=3))), 1),
    ]
    stack = np.array([p for p, _ in rows])
    assert rpoly.deflate_zero_roots(stack).tolist() == [nzero for _, nzero in rows]
    got = rpoly.real_roots(stack)
    assert got.shape == (len(rows), 4)
    for (p, nzero), roots in zip(rows, got):
        want = np.sort(np.concatenate([np.zeros(nzero), np.real(npp.polyroots(p[nzero:]))]))
        assert roots.tobytes() == want.tobytes()
        assert roots.tobytes() == rpoly.real_roots(p).tobytes()
    # a stack of degree-1 rows of either sign over magnitudes e^-30 to e^30:
    # each 1 x 1 companion's eigenvalue is -c0 / c1, bit for bit, and a row
    # whose c0 is below DEFLATE_REL of c1 has its origin root
    pairs = rng.choice([-1.0, 1.0], size=(1000, 2)) * np.exp(rng.uniform(-30.0, 30.0, size=(1000, 2)))
    origin = rpoly.deflate_zero_roots(pairs)[:, None] == 1
    assert 0 < origin.sum() < len(pairs)
    got = rpoly.real_roots(pairs)
    assert got.tobytes() == np.where(origin, 0.0, -pairs[:, :1] / pairs[:, 1:]).tobytes()
    for p, roots in zip(pairs, got):
        assert roots.tobytes() == rpoly.real_roots(p).tobytes()


def test_batched_roots_raise_at_the_first_failing_member():
    # complex and constant rows of a stack come back NaN, and each raises
    # its own exception alone; a row below the stack's degree that is not
    # constant is refused
    stack = np.array([[-1.0, 0.0, 1.0], [1.0, 0.0, 1.0], [4.0, 0.0, 0.0], [2.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    got = rpoly.real_roots(stack)
    assert np.array_equal(got[0], [-1.0, 1.0]) and np.isnan(got[1:]).all()
    for row, kind in zip(stack[1:], (NotRealRooted, DegreeZero, NotRealRooted, DegreeZero)):
        with pytest.raises(kind):
            rpoly.real_roots(row)
    with pytest.raises(DegreeMismatch):
        rpoly.real_roots(np.array([[-1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]))
    # the greedy's y-roots raise at the first failing row, in member order,
    # with the row's own message: a complex root, a constant, or a negative
    # top y-root
    ok, negative = [-1.0, 0.0, 1.0], [2.0, 3.0, 1.0]
    complex_, constant = stack[1], stack[2]
    with pytest.raises(NotRealRooted) as alone:
        rpoly.real_roots(complex_)
    for rows, message in (
        ([ok, complex_, constant, negative], str(alone.value)),
        ([ok, constant, complex_, negative], "degenerate partial polynomial (zero-probability branch?)"),
        ([ok, negative, complex_, constant], "partial polynomial has a negative leading y-root"),
    ):
        with pytest.raises(NotRealRooted) as batched:
            disc._lambda_max_y(np.array(rows))
        assert str(batched.value) == message
    assert disc._lambda_max_y(np.array([ok, [-16.0, 0.0, 1.0]])).tolist() == [1.0, 2.0]


def test_full_degree_stacks_take_one_eigensolve(monkeypatch):
    # a stack with no constant row and no origin root goes to one eigvals
    # call as it is, with no copy: well-separated roots, a near-double root whose
    # companion eigenvalues come out as a complex pair within the tolerance,
    # and complex rows. Each accepted row is numpy's own roots and those of
    # the row alone, bit for bit; the failing rows are NaN, and the stack's
    # exception is the first failing row's own
    rng = np.random.default_rng(17)
    rows = [npp.polyfromroots(rng.uniform(-2, 2, size=4)) for _ in range(3)]
    rows[1:1] = [npp.polymul([1.0, 0.0, 1.0], [2.0, -3.0, 1.0])]
    rows += [npp.polyfromroots([0.5, 1.0, 1.0 + 1e-9, 3.0]), npp.polymul([2.0, 0.0, 1.0], [-1.0, 0.0, 1.0])]
    stack = np.array(rows)
    assert np.iscomplexobj(rpoly._companion_eigvals(stack[4:5]))
    calls = []
    companion = rpoly._companion_eigvals
    monkeypatch.setattr(rpoly, "_companion_eigvals", lambda c: calls.append(c is stack) or companion(c))
    got, fault = rpoly._real_roots(stack, rpoly.REAL_ROOT_TOL)
    assert calls == [True]
    for i, (p, roots) in enumerate(zip(rows, got)):
        if i in (1, 5):
            assert np.isnan(roots).all()
            continue
        assert roots.tobytes() == np.sort(np.real(npp.polyroots(p))).tobytes()
        assert roots.tobytes() == rpoly.real_roots(p).tobytes()
    with pytest.raises(NotRealRooted) as alone:
        rpoly.real_roots(rows[1])
    assert isinstance(fault, NotRealRooted) and str(fault) == str(alone.value)
    # any origin root or constant row sends the stack to the grouped branch,
    # which copies each group's rows, and the other rows' roots and the
    # first failing row's exception do not change
    for extra, alone_roots in (
        (npp.polymul([0.0, 1.0], npp.polyfromroots([1.0, 2.0, 3.0])), [0.0, 1.0, 2.0, 3.0]),
        (np.array([3.0, 0.0, 0.0, 0.0, 0.0]), [np.nan] * 4),
    ):
        calls.clear()
        stack = np.vstack([np.array(rows), extra])
        again, again_fault = rpoly._real_roots(stack, rpoly.REAL_ROOT_TOL)
        assert calls and not any(calls)
        assert again[:-1].tobytes() == got.tobytes() and str(again_fault) == str(fault)
        assert np.allclose(again[-1], alone_roots, atol=1e-12, equal_nan=True)


def test_interlacing_bounds_lambda_max():
    rng = np.random.default_rng(3)
    for _ in range(10):
        rts = np.sort(rng.uniform(-4, 4, size=5))
        p = npp.polyfromroots(rts)
        g = npp.polyder(p)
        assert rpoly.lambda_max(g) <= rpoly.lambda_max(p) + 1e-7


def test_common_interlacing_examples():
    assert rpoly.has_common_interlacing([[-1.0, 0.0, 1.0], [-4.0, 0.0, 1.0]])
    p1 = npp.polyfromroots([1.0, 3.0])
    p2 = npp.polyfromroots([2.0, 4.0])
    assert rpoly.has_common_interlacing([p1, p2])
    assert not rpoly.has_common_interlacing([[-1.0, 0.0, 1.0], [1.0, 0.0, 1.0]])


def test_common_interlacing_single_polynomial_trivial():
    assert rpoly.has_common_interlacing([npp.polyfromroots([1.0, 2.0])])
    assert not rpoly.has_common_interlacing([[1.0, 0.0, 1.0]])


def test_common_interlacing_constant_family():
    assert rpoly.has_common_interlacing([[2.0], [0.5], [3.0, 0.0]])
    with pytest.raises(DegreeMismatch):
        rpoly.has_common_interlacing([[2.0], [-1.0, 1.0]])


def test_common_interlacing_catches_a_narrow_complex_window():
    # x(x-1) and 3(x-1-1e-4)(x-2): the middle roots cross by 1e-4, and only
    # convex weights t p1 + (1-t) p2 with t in about [0.745, 0.755] give
    # complex roots
    p1 = npp.polyfromroots([0.0, 1.0])
    p2 = 3.0 * npp.polyfromroots([1.0 + 1e-4, 2.0])
    assert not rpoly.has_common_interlacing([p1, p2])
    assert not rpoly.is_real_rooted(0.75 * p1 + 0.25 * p2)


def test_common_interlacing_many_members():
    rng = np.random.default_rng(18)
    lows, highs = rng.uniform(0.0, 1.0, size=18), rng.uniform(2.0, 3.0, size=18)
    family = [npp.polyfromroots([a, b]) for a, b in zip(lows, highs)]
    assert rpoly.has_common_interlacing(family)
    family[-1] = npp.polyfromroots([2.9, 3.5])
    assert not rpoly.has_common_interlacing(family)


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def simplex_sequence(m, samples=64):
    """Deterministic Kronecker (Weyl) points on the (m-1)-simplex, via the
    sorted gaps of ``(j + 1) sqrt(p)`` mod 1 over the first m - 1 primes."""
    alphas = np.sqrt(np.array(_PRIMES[: m - 1], dtype=float))
    u = np.sort(np.mod(np.arange(1, samples + 1)[:, None] * alphas, 1.0), axis=1)
    cuts = np.concatenate([np.zeros((samples, 1)), u, np.ones((samples, 1))], axis=1)
    return np.diff(cuts, axis=1)


def sampled_common_interlacing(polys, tol=rpoly.REAL_ROOT_TOL):
    """One-way oracle: a complex convex combination rules out a common
    interlacer (MSS: with positive leading coefficients, common interlacing
    iff every convex combination is real-rooted)."""
    stack = np.array(polys)
    if not all(rpoly.is_real_rooted(p, tol) for p in stack):
        return False
    return all(rpoly.is_real_rooted(mu @ stack, tol) for mu in simplex_sequence(len(stack)))


def test_common_interlacing_agrees_with_sampled_oracle():
    rng = np.random.default_rng(20260810)
    rejected = 0
    for _ in range(300):
        m, deg = int(rng.integers(2, 6)), int(rng.integers(2, 5))
        base = np.sort(rng.uniform(-3.0, 3.0, size=deg))
        family = [rng.uniform(0.5, 2.0) * npp.polyfromroots(base + rng.normal(scale=0.3, size=deg)) for _ in range(m)]
        if not sampled_common_interlacing(family):
            rejected += 1
            assert not rpoly.has_common_interlacing(family)
    assert rejected > 20


def test_common_interlacing_detects_disjoint_root_intervals():
    # {(x-1)(x-2), (x-5)(x-6)} have no common interlacer; some convex
    # combination must go complex
    p1 = npp.polyfromroots([1.0, 2.0])
    p2 = npp.polyfromroots([5.0, 6.0])
    assert not rpoly.has_common_interlacing([p1, p2])


def test_trim_threshold():
    # only exact trailing zeros go: a tiny leading coefficient is genuine
    assert np.array_equal(rpoly.trim([1.0, 2.0, 1e-20, 0.0, 0.0]), [1.0, 2.0, 1e-20])
    assert np.array_equal(rpoly.trim([0.0, 0.0]), [0.0])
    # a monic polynomial whose constant term exceeds 1e14 keeps its degree
    c = npp.polyfromroots([-3.0e3, -1.0e4, -2.0e4, -5.0e5])
    assert c[-1] == 1.0 and c[0] > 1e14
    assert len(rpoly.trim(c)) == 5
    assert rpoly.lambda_max(c) == pytest.approx(-3.0e3, rel=1e-12)
