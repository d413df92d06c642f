import json
import os

import pytest

from matdisc import cli, disc, frames, model, witness
from matdisc.errors import NotRealRooted

from test_disc import count_sigma


FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "mb3.json")


def test_solve_fixture(tmp_path, capsys):
    out = tmp_path / "solve.json"
    code = cli.main(["solve", "--instance", FIXTURE, "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["bruteforce"]["value"] == pytest.approx(1.5, abs=1e-9)
    assert doc["bruteforce"]["bound_checks"]["tight_frame"]["satisfied"]
    names = {c["name"] for c in doc["checks"]}
    assert "disc_le_three_sigma" in names
    for row in doc["checks"]:
        assert set(row) == {"name", "lhs", "rhs", "slack", "pass"}


def test_solve_takes_sigma_once(tmp_path, monkeypatch):
    calls = count_sigma(monkeypatch)
    assert cli.main(["solve", "--instance", FIXTURE, "--out", str(tmp_path / "solve.json")]) == 0
    assert len(calls) == 1


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
    assert doc["trace"]["p_empty_lambda_max"] <= 3.0 + 1e-9


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
        ("replay", "--instance", FIXTURE): ("--seed", "--root-tol", "--threads", "--count", "--n", "--d"),
        ("frames", "gen"): ("--seed", "--root-tol", "--norm-tol", "--threads", "--count"),
        # the 19 (suite, flag) pairs a suite does not read, and --d
        ("verify", "thm13"): ("--n",),
        ("verify", "thm15"): ("--seed", "--root-tol", "--count", "--n", "--d"),
        ("verify", "prop16"): ("--seed", "--root-tol", "--norm-tol", "--count"),
        ("verify", "thm41"): ("--root-tol", "--n"),
        ("verify", "alexandrov"): ("--root-tol", "--norm-tol", "--n"),
        ("verify", "schatten"): ("--root-tol", "--norm-tol", "--n"),
        ("verify", "lyapunov"): ("--root-tol", "--n"),
    }
    for command, flags in dead.items():
        for flag in flags:
            assert cli.main(list(command) + [flag, "1"]) == 2, (command, flag)
            assert "unrecognized arguments" in capsys.readouterr().err


def replace_command(monkeypatch, command, run):
    """Point a command of the table at ``run``, with its summary and flags."""
    _, summary, flags = cli.COMMANDS[command]
    monkeypatch.setitem(cli.COMMANDS, command, (run, summary, flags))


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


@pytest.mark.parametrize(
    "tolerance, value, reason, step",
    [
        ("WALK_BARRIER_TOL", -1.0, "initial barrier 0 is", -1),
        ("WALK_MONO_TOL", -1.0, "barrier 1 increased", 0),
        # after the last of the fixture's three steps
        ("WALK_LAMBDA_TOL", -3.0, "largest root", 2),
    ],
)
def test_walk_failures_become_failing_rows(tmp_path, capsys, monkeypatch, tolerance, value, reason, step):
    # a tolerance no walk can meet forces each of the walk's raises: the
    # start point's barriers against delta, a barrier that grows at step 0,
    # and the top polynomial's largest root against 3. verify thm41 and
    # replay report it as a failing row and exit 1, never 2
    lam = cli.verify_thm41(seed=3, count=1)["checks"][0]
    monkeypatch.setattr(witness, tolerance, value)
    out = tmp_path / "thm41.json"
    assert cli.main(["verify", "thm41", "--seed", "3", "--count", "1", "--out", str(out)]) == 1
    rows = json.loads(out.read_text())["checks"]
    # the top polynomial's root then comes from the engine, and passes
    assert rows[0]["name"] == lam["name"] == "i0.lambda_p_empty" and rows[0]["pass"]
    assert rows[0]["lhs"] == pytest.approx(lam["lhs"], rel=1e-9)
    assert rows[1]["name"].startswith(f"i0.walk[{reason}") and not rows[1]["pass"] and len(rows) == 2

    out = tmp_path / "replay.json"
    assert cli.main(["replay", "--instance", FIXTURE, "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert doc["trace"]["failed_step"] == step and doc["trace"]["reason"].startswith(reason)
    assert [row["name"] for row in doc["checks"]] == [f"walk[{doc['trace']['reason']}]"] and doc["failed"] == 1
    assert capsys.readouterr().err == ""


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
        ["verify", "thm13", "--root-tol", "nan"],
        ["verify", "thm41", "--norm-tol", "-1"],
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
    assert first["name"] == "greedy[root imaginary part 1.061e-01 exceeds 1.0e-07 * 2.475e+00]" and not first["pass"]
    assert doc["failed"] == 1 and [row["name"] for row in doc["checks"][1:]] == [
        "disc_le_three_sigma",
        "disc_le_four_sigma",
        "disc_le_tight_frame",
    ]

    # a top polynomial that is not real-rooted fails a row of replay and of
    # verify thm41, exit 1
    def not_real_rooted(qe):
        raise NotRealRooted("forced")

    monkeypatch.setattr(witness, "_lambda_max_of_p_empty", not_real_rooted)
    out = tmp_path / "replay.json"
    assert cli.main(["replay", "--instance", FIXTURE, "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert doc["trace"] == {"reason": "forced"}
    assert [row["name"] for row in doc["checks"]] == ["lambda_p_empty[forced]"] and doc["failed"] == 1
    report = cli.verify_thm41(seed=3, count=2)
    assert [row["name"] for row in report["checks"]] == ["i0.lambda_p_empty[forced]", "i1.lambda_p_empty[forced]"]
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
    # seed 0, count 1 draws one Rademacher family and one general family at
    # p = 2: one scan each, the Rademacher one for every order
    scans = []
    exact_minimum = disc.exact_minimum

    def counting(inst, kinds, threads):
        scans.append((inst.rvs[0].is_rademacher(), tuple(kinds)))
        return exact_minimum(inst, kinds, threads)

    monkeypatch.setattr(disc, "exact_minimum", counting)
    assert cli.verify_schatten(seed=0, count=1)["pass"]
    assert scans == [(True, (("schatten", 2.0), ("schatten", 4.0), ("schatten", 6.0))), (False, (("schatten", 2.0),))]


def test_verify_thm15_analyzes_each_frame_once(monkeypatch):
    calls = []
    analyze_frame = frames.analyze_frame
    monkeypatch.setattr(frames, "analyze_frame", lambda inst: calls.append(inst) or analyze_frame(inst))
    assert cli.verify_thm15()["pass"]
    assert len(calls) == len(cli.THM15_PAIRS)
