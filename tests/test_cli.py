import argparse
import dataclasses
import functools
import json
import math
import os
import subprocess
import sys

import numpy as np
import numpy.polynomial.polynomial as npp
import pytest

import matdisc
from matdisc import cli, disc, frames, model, rpoly, witness
from matdisc.errors import NotRealRooted

from conftest import count_matrices
from test_disc import count_sigma, seeded_rademacher


FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "mb3.json")


def test_solve_fixture(tmp_path, capsys):
    out = tmp_path / "solve.json"
    code = cli.main(["solve", "--instance", FIXTURE, "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["bruteforce"]["value"] == pytest.approx(1.5, abs=1e-9)
    assert doc["bruteforce"]["bounds"]["tight_frame"] == pytest.approx(1.5, abs=1e-9)
    rows = {c["name"]: c for c in doc["checks"]}
    assert rows["disc_le_tight_frame"]["pass"] and "disc_le_three_sigma" in rows
    for row in doc["checks"]:
        assert set(row) == {"name", "lhs", "rhs", "slack", "pass"}


def test_solve_takes_sigma_once(tmp_path, monkeypatch):
    calls = count_sigma(monkeypatch)
    out = tmp_path / "solve.json"
    assert cli.main(["solve", "--instance", FIXTURE, "--out", str(out)]) == 0
    assert len(calls) == 1
    section = json.loads(out.read_text())["bruteforce"]
    assert section["bounds"]["three_sigma"] == 3.0 * section["sigma"]


def test_solve_writes_the_bound_menu_last(tmp_path):
    # the bruteforce section ends with the menu of the rank-one instance,
    # computed by solve from brute force's sigma; a Hermitian instance gets {}
    vectors = (np.array([1.0, 0.0]), np.array([1.0, 1.0]) / math.sqrt(2), np.array([0.0, 1.0]))
    rvs = tuple(model.DiscreteRandomVariable.rademacher() for _ in vectors)
    rank_one = model.RankOneInstance(2, vectors, rvs)
    hermitian = model.HermitianInstance(2, tuple(model.terms(rank_one)), rvs)
    out = tmp_path / "solve.json"
    for inst, name in ((rank_one, "rank_one"), (hermitian, "hermitian")):
        path = tmp_path / f"{name}.json"
        model.save_instance(inst, path)
        assert cli.main(["solve", "--instance", str(path), "--out", str(out)]) == 0
        section = json.loads(out.read_text())["bruteforce"]
        assert list(section) == ["value", "argmin", "sigma", "bounds"]
        sigma = section["sigma"]
        want = {"three_sigma": 3.0 * sigma, "four_sigma": 4.0 * sigma} if name == "rank_one" else {}
        assert section["bounds"] == want, name


def test_solve_past_the_cap_keeps_the_rows_that_need_no_disc(tmp_path, capsys, monkeypatch):
    # a d = 2, n = 25 Rademacher instance has 2^25 assignments, past
    # ENUM_CAP: brute force refuses it, and the report records the refusal
    # and its count in place of the discrepancy. The greedy's rows that need
    # no discrepancy stay, and pass; brute_le_greedy and the disc_le_* rows
    # are left out. A Hermitian instance past the cap is still an input error
    rng = np.random.default_rng(25)
    vectors = tuple(rng.normal(size=2) + 1j * rng.normal(size=2) for _ in range(25))
    rvs = (model.DiscreteRandomVariable.rademacher(),) * 25
    rank_one = model.RankOneInstance(2, vectors, rvs)
    path = tmp_path / "past.json"
    model.save_instance(rank_one, path)
    out = tmp_path / "solve.json"
    calls = count_sigma(monkeypatch)
    assert cli.main(["solve", "--instance", str(path), "--out", str(out)]) == 0
    assert len(calls) == 1
    doc = json.loads(out.read_text())
    section = doc["bruteforce"]
    assert list(section) == ["refused", "sigma", "bounds"]
    assert section["refused"] == {"assignments": 2**25, "cap": disc.ENUM_CAP}
    assert section["sigma"] == model.sigma(rank_one)
    assert section["bounds"] == disc.bound_menu(rank_one, section["sigma"])
    _, trace = disc.greedy_interlacing_solve(rank_one)
    assert doc["greedy"]["trace"] == json.loads(json.dumps(trace.to_doc()))
    assert [row["name"] for row in doc["checks"]] == ["greedy_le_3sigma", "leaf_identity_gap", "level_monotone_gap"]
    assert doc["checks"][0]["lhs"] == trace.final_value and doc["pass"]
    model.save_instance(model.HermitianInstance(2, tuple(model.terms(rank_one)), rvs), path)
    assert cli.main(["solve", "--instance", str(path), "--out", str(out)]) == 2
    assert "enumeration needs 33554432 assignments" in capsys.readouterr().err


def _random_rv_numpy(rng, size):
    # cli.random_rv before its checks moved to Python floats, verbatim
    vals = np.sort(rng.uniform(-2.0, 2.0, size=size))
    while size > 1 and float(np.diff(vals).min()) < 0.1:
        vals = np.sort(rng.uniform(-2.0, 2.0, size=size))
    probs = rng.dirichlet(np.full(size, 2.0))
    probs = np.clip(probs, 0.05, None)
    probs = probs / probs.sum()
    return model.DiscreteRandomVariable(tuple(vals), tuple(probs))


def _random_rank_one_numpy(rng, d, n):
    # cli.random_rank_one before it drew every vector in one call, verbatim
    vectors = tuple((rng.normal(size=d) + 1j * rng.normal(size=d)) / math.sqrt(2.0) for _ in range(n))
    rvs = tuple(_random_rv_numpy(rng, int(rng.integers(2, 4))) for _ in range(n))
    return model.RankOneInstance(d, vectors, rvs)


def test_seeded_draws_match_their_numpy_versions():
    # the draws consume the generator as before and give the same laws and
    # vectors, bit for bit, over 1,000 seeds: laws of 1 to 3 atoms, and
    # rank-one instances with d 1-5 and n 1-8
    for seed in range(1000):
        for size in (1, 2, 3):
            new, old = np.random.default_rng([seed, size]), np.random.default_rng([seed, size])
            a, b = cli.random_rv(new, size), _random_rv_numpy(old, size)
            assert a.support == b.support and a.probs == b.probs, (seed, size)
            assert new.bit_generator.state == old.bit_generator.state
        new, old = np.random.default_rng(seed), np.random.default_rng(seed)
        d, n = 1 + seed % 5, 1 + seed % 8
        a, b = cli.random_rank_one(new, d, n), _random_rank_one_numpy(old, d, n)
        assert [v.tobytes() for v in a.vectors] == [v.tobytes() for v in b.vectors], seed
        assert [(rv.support, rv.probs) for rv in a.rvs] == [(rv.support, rv.probs) for rv in b.rvs], seed
        assert new.bit_generator.state == old.bit_generator.state


def test_verify_prop16_single(tmp_path):
    out = tmp_path / "p16.json"
    code = cli.main(["verify", "prop16", "--n", "3", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["pass"] and doc["suite"] == "prop16"
    # every suite accepts --threads, whether or not it reads it
    assert cli.main(["verify", "prop16", "--threads", "4", "--out", str(out)]) == 0


def test_verify_rows_schema(tmp_path):
    out = tmp_path / "t15.json"
    assert cli.main(["verify", "thm15", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["total"] == len(doc["checks"]) and doc["failed"] == 0
    for row in doc["checks"]:
        assert row["slack"] == row["rhs"] - row["lhs"]


def test_report_determinism_across_threads_and_reruns(tmp_path):
    paths = [tmp_path / f"r{i}.json" for i in range(3)]
    assert cli.main(["verify", "thm13", "--count", "6", "--seed", "11", "--threads", "1", "--out", str(paths[0])]) == 0
    assert cli.main(["verify", "thm13", "--count", "6", "--seed", "11", "--threads", "4", "--out", str(paths[1])]) == 0
    assert cli.main(["verify", "thm13", "--count", "6", "--seed", "11", "--threads", "1", "--out", str(paths[2])]) == 0
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]


def test_replay_command(tmp_path):
    out = tmp_path / "replay.json"
    assert cli.main(["replay", "--instance", FIXTURE, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["trace"]["passed"]
    lam = doc["checks"][0]
    assert lam["name"] == "lambda_p_empty" and lam["lhs"] <= 3.0 + 1e-9 and lam["pass"]


def test_frames_gen_writes_loadable_instance(tmp_path, capsys):
    out = tmp_path / "frame.json"
    assert cli.main(["frames", "gen", "--n", "5", "--d", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    inst = model.load_instance(out)
    assert inst.n == 5 and inst.dim == 3


def test_csv_format_for_verify(tmp_path):
    out = tmp_path / "rows.csv"
    assert cli.main(["verify", "prop16", "--n", "2", "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "name,lhs,rhs,slack,pass"


def test_exit_codes_for_bad_input(tmp_path, capsys):
    assert cli.main(["solve", "--instance", "/nonexistent/file.json"]) == 2
    capsys.readouterr()
    assert cli.main(["verify", "not-a-suite"]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert cli.main(["solve", "--instance", str(bad)]) == 2


def test_flags_a_command_does_not_read_exit_two(capsys):
    dead = {
        ("solve", "--instance", FIXTURE): ("--seed", "--count", "--n", "--d"),
        ("replay", "--instance", FIXTURE): ("--seed", "--threads", "--count", "--n", "--d"),
        ("frames", "gen"): ("--seed", "--threads", "--count"),
        # the 12 (suite, flag) pairs a suite does not read, and --d
        ("verify", "thm13"): ("--n",),
        ("verify", "interlacing"): ("--n",),
        ("verify", "oracles"): ("--n",),
        ("verify", "thm15"): ("--seed", "--count", "--n", "--d"),
        ("verify", "prop16"): ("--seed", "--count"),
        ("verify", "thm41"): ("--n",),
        ("verify", "alexandrov"): ("--n",),
        ("verify", "schatten"): ("--n",),
        ("verify", "lyapunov"): ("--n",),
    }
    for command, flags in dead.items():
        # the tolerances are constants of the checks, not flags
        for flag in flags + ("--root-tol", "--norm-tol"):
            assert cli.main(list(command) + [flag, "1"]) == 2, (command, flag)
            assert "unrecognized arguments" in capsys.readouterr().err


def test_every_flag_row_is_read_by_a_command():
    # a row of the flag table that no command's parser takes is dead
    def flags(parser):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    yield from flags(sub)
            else:
                yield from action.option_strings

    assert set(flags(cli._parser())) - {"-h", "--help"} == set(cli._FLAGS)


def replace_command(monkeypatch, command, run):
    """Point a command of the table at ``run``, with its summary and, through
    the original's signature, its flags."""
    original, summary = cli.COMMANDS[command]
    monkeypatch.setitem(cli.COMMANDS, command, (functools.wraps(original)(run), summary))


def test_exit_one_on_failing_check(monkeypatch, capsys):
    def failing():
        return cli._finish({"command": "verify", "suite": "thm15", "checks": [cli._row("forced", 2.0, 1.0)]})

    replace_command(monkeypatch, "verify thm15", failing)
    assert cli.main(["verify", "thm15"]) == 1
    out = capsys.readouterr().out
    assert '"pass": false' in out


def test_non_finite_check_fails_and_report_is_written(monkeypatch, tmp_path):
    nan, inf = float("nan"), float("inf")

    def non_finite():
        rows = [cli._row("nan_lhs", nan, 1.0), cli._row("inf_both", inf, inf), cli._row("finite", 0.0, 1.0)]
        return cli._finish({"command": "verify", "suite": "thm15", "checks": rows})

    replace_command(monkeypatch, "verify thm15", non_finite)
    out = tmp_path / "nonfinite.json"
    assert cli.main(["verify", "thm15", "--out", str(out)]) == 1

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    doc = json.loads(out.read_text(), parse_constant=reject)
    assert [row["pass"] for row in doc["checks"]] == [False, False, True]
    assert doc["checks"][0]["lhs"] == "nan" and doc["checks"][0]["slack"] == "nan"
    assert (doc["checks"][1]["lhs"], doc["checks"][1]["rhs"]) == ("inf", "inf")
    assert doc["failed"] == 2 and not doc["pass"]
    csv_out = tmp_path / "nonfinite.csv"
    assert cli.main(["verify", "thm15", "--format", "csv", "--out", str(csv_out)]) == 1
    assert csv_out.read_text().splitlines()[1] == "nan_lhs,nan,1.0,nan,False"


def test_greedy_failure_becomes_failing_row(monkeypatch):
    def not_real_rooted(inst, **kwargs):
        raise NotRealRooted("forced")

    monkeypatch.setattr(disc, "greedy_interlacing_solve", not_real_rooted)
    for report in (cli.verify_thm13(seed=3, count=2), cli.verify_interlacing(seed=3, count=2)):
        assert [row["name"] for row in report["checks"]] == ["i0.greedy[forced]", "i1.greedy[forced]"]
        assert report["failed"] == 2 and not report["pass"]
    assert cli.main(["verify", "thm13", "--count", "2", "--seed", "3", "--out", os.devnull]) == 1


def per_level_rule(trace):
    """The two rows of ``verify_interlacing`` for one greedy trace, level by
    level and member by member: every branch real-rooted, and every level
    of two or more branches with a common interlacer."""
    rooted = common = True
    for lv in trace.levels:
        polys = [np.array(c) for c in lv.branch_coeffs]
        rooted = rooted and all(rpoly.is_real_rooted(p, tol=cli.REAL_ROOTED_TOL) for p in polys)
        common = common and (len(polys) < 2 or rpoly.has_common_interlacing(polys, tol=cli.REAL_ROOTED_TOL))
    return rooted, common


def test_interlacing_rows_follow_the_per_level_rule(monkeypatch):
    # rows read off one root stack per instance against the per-level rule:
    # a complex member, a real-rooted member outside the common interlacer,
    # and a one-point law, whose level has a single member, left alone or
    # made complex
    rng = np.random.default_rng(5)
    one_point = model.DiscreteRandomVariable((0.5,), (1.0,))
    rvs = (model.DiscreteRandomVariable.rademacher(), one_point, model.DiscreteRandomVariable((-1.0, 0.5, 2.0), (0.2, 0.5, 0.3)))
    with_point = model.RankOneInstance(3, tuple(rng.normal(size=(3, 3))), rvs)
    insts = cli.sweep_rank_one(5, 3) + [with_point, with_point]
    monkeypatch.setattr(cli, "sweep_rank_one", lambda seed, count: insts[:count])

    def complex_member(d):
        return npp.polypow([1.0, 0.0, 1.0], d)  # roots +-i

    def far_member(d):
        far = 10.0 + np.arange(d)
        return npp.polyfromroots(np.concatenate([far, -far]))

    # (instance, level, member, replacement)
    changes = {1: (0, 0, complex_member), 2: (-1, 1, far_member), 4: (1, 0, complex_member)}
    solve = disc.greedy_interlacing_solve
    traces = []

    def altered(inst):
        assignment, trace = solve(inst)
        if len(traces) in changes:
            level, member, make = changes[len(traces)]
            levels = list(trace.levels)
            coeffs = list(levels[level].branch_coeffs)
            coeffs[member] = tuple(make(inst.dim))
            levels[level] = dataclasses.replace(levels[level], branch_coeffs=tuple(coeffs))
            trace = dataclasses.replace(trace, levels=tuple(levels))
        traces.append(trace)
        return assignment, trace

    monkeypatch.setattr(disc, "greedy_interlacing_solve", altered)
    report = cli.verify_interlacing(seed=5, count=len(insts))
    assert len(traces[3].levels[1].branch_coeffs) == 1
    want = [per_level_rule(trace) for trace in traces]
    assert want == [(True, True), (False, False), (True, False), (True, True), (False, True)]
    got = [row["pass"] for row in report["checks"]]
    assert got == [flag for pair in want for flag in pair]


def test_interlacing_work_counts(monkeypatch):
    # each greedy level takes its roots in one eigvals call, and each
    # instance's branch polynomials in one more
    insts = cli.sweep_rank_one(7, 6)
    eigvals = count_matrices(monkeypatch, "eigvals")
    for inst in insts:
        disc.greedy_interlacing_solve(inst)
    assert eigvals["calls"] == sum(inst.n for inst in insts)
    eigvals["calls"] = 0
    assert cli.verify_interlacing(seed=7, count=6)["pass"]
    assert eigvals["calls"] == sum(inst.n for inst in insts) + len(insts)


@pytest.mark.parametrize(
    "tolerance, value, reason, step",
    [
        ("WALK_BARRIER_TOL", -1.0, "initial barrier 0 is", -1),
        ("WALK_MONO_TOL", -1.0, "barrier 1 increased", 0),
    ],
)
def test_walk_failures_become_failing_rows(tmp_path, capsys, monkeypatch, tolerance, value, reason, step):
    # a tolerance no walk can meet forces a failed inequality: the start
    # point's barriers against delta, or a barrier that grows at step 0.
    # verify thm41 and replay report it as a failing row and exit 1, never
    # 2, and replay writes the walk's whole trace
    lam = cli.verify_thm41(seed=3, count=1)["checks"][0]
    passing = cli.run_replay(FIXTURE)["trace"]
    monkeypatch.setattr(witness, tolerance, value)
    out = tmp_path / "thm41.json"
    assert cli.main(["verify", "thm41", "--seed", "3", "--count", "1", "--out", str(out)]) == 1
    rows = json.loads(out.read_text())["checks"]
    # the top polynomial's root does not depend on the walk, and passes
    assert rows[0] == lam and rows[0]["name"] == "i0.lambda_p_empty" and rows[0]["pass"]
    assert rows[1]["name"].startswith(f"i0.walk[{reason}") and not rows[1]["pass"] and len(rows) == 2

    out = tmp_path / "replay.json"
    assert cli.main(["replay", "--instance", FIXTURE, "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    trace = doc["trace"]
    assert list(trace) == list(passing) == ["deltas", "initial_barriers", "passed", "failed_step", "reason", "steps"]
    assert trace["failed_step"] == step and trace["reason"].startswith(reason) and trace["passed"] is False
    assert trace["deltas"] == passing["deltas"] and trace["initial_barriers"] == passing["initial_barriers"]
    assert trace["steps"] == [] and len(passing["steps"]) == 3
    assert [row["name"] for row in doc["checks"]] == ["lambda_p_empty", f"walk[{trace['reason']}]"]
    assert doc["checks"][0]["pass"] and doc["failed"] == 1
    assert capsys.readouterr().err == ""


def test_top_root_above_three_fails_only_its_row(tmp_path, capsys, monkeypatch):
    # the walk does not look at the top polynomial's root: a root forced
    # above 3 fails the lambda_p_empty row alone, and the walk's own row
    # still passes; two rows per instance, exit 1
    monkeypatch.setattr(rpoly, "lambda_max", lambda coeffs, tol: 3.5)
    runs = ((["verify", "thm41", "--seed", "3", "--count", "2"], ("i0.", "i1.")), (["replay", "--instance", FIXTURE], ("",)))
    for args, prefix in runs:
        out = tmp_path / "out.json"
        assert cli.main(args + ["--out", str(out)]) == 1, args
        doc = json.loads(out.read_text())
        names = [f"{p}{name}" for p in prefix for name in ("lambda_p_empty", "initial_barrier_gap")]
        assert [row["name"] for row in doc["checks"]] == names, args
        assert [row["pass"] for row in doc["checks"]] == [False, True] * len(prefix), args
        assert doc["checks"][0]["lhs"] == 3.5 and doc["failed"] == len(prefix), args
    assert doc["trace"]["passed"] and doc["trace"]["reason"] is None
    assert capsys.readouterr().err == ""


def test_top_polynomial_fits_wherever_the_walk_fits(tmp_path, monkeypatch):
    # three live coordinates and ten of constant law: the walk's evaluator,
    # the top polynomial and the greedy's tails all leave the ten out, so
    # replay and solve fit a cap that the walk fits (with the ten, the top
    # polynomial's subset route would count 109 entries against a cap of 100
    # at d = 2, and the greedy's first level 492 at d = 3; brute force needs
    # 8 assignments)
    rvs = (model.DiscreteRandomVariable.rademacher(),) * 3 + (model.DiscreteRandomVariable((0.5,), (1.0,)),) * 10
    monkeypatch.setattr(disc, "ENUM_CAP", 100)
    for d in (2, 3):
        rng = np.random.default_rng(3)
        vectors = tuple(rng.normal(size=d) + 1j * rng.normal(size=d) for _ in range(13))
        path = tmp_path / f"dead{d}.json"
        model.save_instance(model.RankOneInstance(d, vectors, rvs), path)
        report = cli.run_replay(str(path))
        assert [row["name"] for row in report["checks"]] == ["lambda_p_empty", "initial_barrier_gap"], d
        assert report["pass"], d
        report = cli.run_solve(str(path))
        assert "greedy" in report and report["pass"], d


def test_walk_and_top_polynomial_failing_together(tmp_path, capsys, monkeypatch):
    # a barrier that grows at step 0, and a top polynomial whose roots do not
    # come out real: both rows fail, exit 1, never 2
    def not_real_rooted(coeffs, tol):
        raise NotRealRooted("forced")

    monkeypatch.setattr(witness, "WALK_MONO_TOL", -1.0)
    monkeypatch.setattr(rpoly, "lambda_max", not_real_rooted)
    for args, prefix in ((["verify", "thm41", "--seed", "3", "--count", "1"], "i0."), (["replay", "--instance", FIXTURE], "")):
        out = tmp_path / "out.json"
        assert cli.main(args + ["--out", str(out)]) == 1, args
        rows = json.loads(out.read_text())["checks"]
        assert rows[0]["name"] == f"{prefix}lambda_p_empty[forced]", args
        assert rows[1]["name"].startswith(f"{prefix}walk[barrier 1 increased") and len(rows) == 2, args
        assert not rows[0]["pass"] and not rows[1]["pass"], args
    assert capsys.readouterr().err == ""


def test_solve_and_replay_write_the_suites_rows(tmp_path, capsys):
    # one check per solver: on a saved sweep instance, solve writes the rows
    # of verify thm13 and then its bound rows, and replay the rows of verify
    # thm41, each without the suite's instance prefix
    path = tmp_path / "sweep.json"
    model.save_instance(cli.sweep_rank_one(3, 1)[0], path)
    out = tmp_path / "out.json"

    def unprefixed(report):
        return [dict(row, name=row["name"].removeprefix("i0.")) for row in report["checks"]]

    assert cli.main(["solve", "--instance", str(path), "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["checks"]
    suite = unprefixed(cli.verify_thm13(seed=3, count=1))
    assert len(suite) == 4 and rows[: len(suite)] == suite
    assert [row["name"] for row in rows[len(suite) :]] == ["disc_le_three_sigma", "disc_le_four_sigma"]

    assert cli.main(["replay", "--instance", str(path), "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["checks"]
    assert rows == unprefixed(cli.verify_thm41(seed=3, count=1))
    assert [row["name"] for row in rows] == ["lambda_p_empty", "initial_barrier_gap"]


def test_python_m_cli_writes_only_the_report_and_errors(tmp_path):
    # run as a module, the tool writes no warning of its own: an input error
    # is one stderr line, and a passing suite leaves stderr empty
    src = os.path.dirname(os.path.dirname(matdisc.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))

    def run(*args):
        return subprocess.run([sys.executable, "-m", "matdisc.cli", *args], capture_output=True, text=True, env=env)

    missing = run("solve", "--instance", str(tmp_path / "missing.json"))
    assert missing.returncode == 2
    lines = missing.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), missing.stderr
    passing = run("verify", "prop16", "--n", "1")
    assert passing.returncode == 0 and passing.stderr == ""


def test_solve_report_same_on_one_and_two_blas_threads(tmp_path):
    # the engine solves half of the parts that come in negated pairs, which
    # it sees only when the GEMM of their deviations rounds each pair to
    # exact negatives: the d = 4, n = 14 Rademacher greedy, whose first block
    # is such a block, writes the same report on one and on two BLAS threads
    path = tmp_path / "rademacher.json"
    model.save_instance(seeded_rademacher(14, 4, 14), path)
    src = os.path.dirname(os.path.dirname(matdisc.__file__))
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        out = tmp_path / f"solve-{threads}.json"
        command = [sys.executable, "-m", "matdisc.cli", "solve", "--instance", str(path), "--out", str(out)]
        done = subprocess.run(command, capture_output=True, text=True, env=env)
        assert done.returncode == 0, done.stderr
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_verify_alexandrov_command(tmp_path):
    # the pair sweep and the lemma sweeps of one seed, in one report
    out = tmp_path / "alexandrov.json"
    assert cli.main(["verify", "alexandrov", "--seed", "5", "--count", "3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    parts = (cli.verify_alexandrov(5, 3), cli.verify_barrier_lemmas(5, 3))
    assert doc["checks"] == parts[0]["checks"] + parts[1]["checks"]
    assert doc["bivariate_skipped"] == parts[1]["bivariate_skipped"] and doc["pass"]


def test_env_var_threads(monkeypatch):
    # the worker count comes from --threads alone: the variable the package
    # once read is ignored, and no thread count means one worker
    from matdisc._util import resolve_threads

    monkeypatch.setenv("SPECDISC_THREADS", "3")
    assert resolve_threads(None) == 1
    assert resolve_threads(2) == 2


def test_bad_flag_values_exit_two_before_any_work(monkeypatch, tmp_path, capsys):
    ran = []
    for command in ("verify thm13", "verify thm41", "verify prop16", "frames gen"):
        replace_command(monkeypatch, command, lambda **kwargs: ran.append(kwargs))
    out = tmp_path / "out.json"
    bad = (
        ["verify", "thm13", "--count", "0"],
        ["verify", "thm13", "--count", "-3"],
        ["verify", "thm13", "--seed", "18446744073709551616"],
        ["verify", "prop16", "--threads", "0"],
        ["frames", "gen", "--n", "0"],
    )
    for args in bad:
        assert cli.main(args + ["--out", str(out)]) == 2, args
        assert "error: argument" in capsys.readouterr().err, args
    assert ran == [] and not out.exists()


def test_numerical_failures_in_solve_and_replay_become_failing_rows(tmp_path, capsys, monkeypatch):
    # the greedy's first level on this frame has a 10-fold y-root that the
    # companion roots spread into a complex circle; solve reports that as a
    # failing row and exits 1, and still writes the brute-force section
    frame = tmp_path / "frame.json"
    assert cli.main(["frames", "gen", "--n", "14", "--d", "12", "--out", str(frame)]) == 0
    capsys.readouterr()
    out = tmp_path / "solve.json"
    assert cli.main(["solve", "--instance", str(frame), "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert doc["bruteforce"]["value"] == pytest.approx(7.0 / 6.0, abs=1e-9) and "greedy" not in doc
    first = doc["checks"][0]
    assert first["name"] == "greedy[root imaginary part 7.967e-02 exceeds 1.0e-07 * 2.446e+00]" and not first["pass"]
    assert doc["failed"] == 1 and [row["name"] for row in doc["checks"][1:]] == [
        "disc_le_three_sigma",
        "disc_le_four_sigma",
        "disc_le_tight_frame",
    ]

    # a top polynomial that is not real-rooted fails a row of replay and of
    # verify thm41, exit 1; the walk still runs and passes
    def not_real_rooted(coeffs, tol):
        raise NotRealRooted("forced")

    monkeypatch.setattr(rpoly, "lambda_max", not_real_rooted)
    out = tmp_path / "replay.json"
    assert cli.main(["replay", "--instance", FIXTURE, "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert doc["trace"]["passed"] and len(doc["trace"]["steps"]) == 3
    assert [row["name"] for row in doc["checks"]] == ["lambda_p_empty[forced]", "initial_barrier_gap"] and doc["failed"] == 1
    report = cli.verify_thm41(seed=3, count=2)
    assert [row["name"] for row in report["checks"]] == [
        "i0.lambda_p_empty[forced]",
        "i0.initial_barrier_gap",
        "i1.lambda_p_empty[forced]",
        "i1.initial_barrier_gap",
    ]
    assert cli.main(["verify", "thm41", "--count", "2", "--seed", "3", "--out", os.devnull]) == 1


def one_variable_file(tmp_path, name, kind="rank_one", support=(-1.0, 1.0), probs=(0.5, 0.5), entry=(1.0, 0.0), **fields):
    """A d = 1 instance file with one variable; ``fields`` replace or add
    top-level fields, written as given (``json.dumps`` writes non-finite
    floats as NaN and Infinity)."""
    doc = {"dim": 1, "kind": kind, "rvs": [{"support": list(support), "probs": list(probs)}]}
    doc["vectors" if kind == "rank_one" else "matrices"] = [[list(entry)]] if kind == "rank_one" else [[[list(entry)]]]
    doc.update(fields)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def assert_input_error(capsys, path, *words):
    for command in ("solve", "replay"):
        assert cli.main([command, "--instance", path]) == 2, (command, path)
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (command, captured.err)
        assert all(word in lines[0] for word in words), (command, lines[0])
        assert captured.out == ""


def test_non_finite_instances_exit_two(tmp_path, capsys):
    # NaN and Infinity are valid tokens for the JSON reader; the model refuses
    # them, so no command runs on them (the walk once dropped every NaN
    # coordinate and passed)
    nan, inf = float("nan"), float("inf")
    files = {
        "probs": one_variable_file(tmp_path, "probs", support=(1.0,), probs=(nan,)),
        "vectors": one_variable_file(tmp_path, "vector", entry=(nan, 0.0)),
        "support": one_variable_file(tmp_path, "support", support=(-1.0, inf)),
        "matrices": one_variable_file(tmp_path, "matrix", kind="hermitian", entry=(nan, 0.0)),
    }
    for field, path in files.items():
        assert_input_error(capsys, path, "non-finite", field)


@pytest.mark.filterwarnings("error")  # a numpy overflow warning is a second stderr line
def test_overflowing_instances_exit_two(tmp_path, capsys):
    # finite inputs whose squares leave the float range are refused when the
    # instance is built, not met as a traceback or a non-finite report value
    rademacher = {"support": [-1.0, 1.0], "probs": [0.5, 0.5]}
    cases = [
        ("support", "variance", one_variable_file(tmp_path, "support", support=(-1e200, 1e200))),
        ("vectors", "squared norms", one_variable_file(tmp_path, "vector", entry=(1e200, 0.0))),
        ("matrices", "squares", one_variable_file(tmp_path, "matrix", kind="hermitian", entry=(1e200, 0.0))),
        # each square is finite, their sum is not
        ("matrices", "squares", one_variable_file(tmp_path, "sum", kind="hermitian", matrices=[[[[1e154, 0.0]]]] * 4, rvs=[rademacher] * 4)),
    ]
    for field, words, path in cases:
        assert_input_error(capsys, path, "not finite" if field == "support" else "non-finite", words, field)


def test_malformed_instance_files_exit_two(tmp_path, capsys):
    # wrong JSON types are input errors that name the field, not tracebacks
    cases = [
        ("vectors", {"vectors": 5}),
        ("vectors[0]", {"vectors": [5]}),
        ("matrices", {"kind": "hermitian", "matrices": 7}),
        ("rvs[0].support", {"rvs": [{"support": 3, "probs": [1.0]}]}),
        ("rvs[0].support", {"rvs": [{"support": [None], "probs": [1.0]}]}),
        ("rvs[0].probs", {"rvs": [{"support": [1.0], "probs": [10**400]}]}),
        ("dim", {"dim": True}),
    ]
    for i, (field, fields) in enumerate(cases):
        assert_input_error(capsys, one_variable_file(tmp_path, f"bad{i}", **fields), f"'{field}'")


def test_lyapunov_bound_failure_is_a_failing_row(tmp_path, capsys, monkeypatch):
    # the suite checks the rounding's bound itself: an error above it is a
    # failing row of a written report, exit 1
    rounding = disc.lyapunov_round
    monkeypatch.setattr(disc, "lyapunov_round", lambda vectors, t: (rounding(vectors, t)[0], 2.0))
    out = tmp_path / "lyapunov.json"
    assert cli.main(["verify", "lyapunov", "--count", "3", "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert [row["name"] for row in doc["checks"]] == ["i0.rounding_error", "i1.rounding_error", "i2.rounding_error"]
    assert all(row["lhs"] == 2.0 and not row["pass"] for row in doc["checks"]) and doc["failed"] == 3
    assert capsys.readouterr().err == ""


def test_verify_schatten_scans_each_rademacher_family_once(monkeypatch):
    # seed 0, count 2 draws two Rademacher families and two general families,
    # at p = 2 and p = 4: one scan each, the Rademacher ones for every order
    # and the p = 4 one for its Frobenius row's p = 2 too
    scans = []
    exact_minimum = disc.exact_minimum

    def counting(inst, kinds, threads):
        scans.append((inst.rvs[0].is_rademacher(), tuple(kinds)))
        return exact_minimum(inst, kinds, threads)

    monkeypatch.setattr(disc, "exact_minimum", counting)
    assert cli.verify_schatten(seed=0, count=2)["pass"]
    every = (("schatten", 2.0), ("schatten", 4.0), ("schatten", 6.0))
    assert scans == [(True, every), (True, every), (False, (("schatten", 2.0),)), (False, (("schatten", 4.0), ("schatten", 2.0)))]


def test_verify_thm15_analyzes_each_frame_once(monkeypatch):
    calls = []
    analyze_frame = frames.analyze_frame
    monkeypatch.setattr(frames, "analyze_frame", lambda inst: calls.append(inst) or analyze_frame(inst))
    assert cli.verify_thm15()["pass"]
    assert len(calls) == len(cli.THM15_PAIRS)
