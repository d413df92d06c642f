"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All sweeps run at their stated sizes and tolerances; the seeded generators
live in the cli module so the command-line verify suites and this module
exercise identical inputs.
"""

import time

import pytest

from matdisc import cli

SEED = 20260810
_reports = {}


def _criterion(num, label, report):
    status = "PASS" if report["pass"] else "FAIL"
    print(f"ACCEPTANCE {num:02d} {label}: {status} ({report['total'] - report['failed']}/{report['total']} checks)")
    if not report["pass"]:
        for row in report["checks"]:
            if not row["pass"]:
                print(f"  first failure: {row}")
                break
    assert report["pass"], f"criterion {num} ({label}) failed"


@pytest.fixture(scope="module")
def thm13_report():
    t0 = time.perf_counter()
    report = cli.verify_thm13(seed=SEED, count=300)
    report["elapsed_seconds"] = time.perf_counter() - t0
    return report


def test_criterion_01_three_sigma_sweep(thm13_report):
    # 300 seeded rank-one instances: exhaustive minimum <= greedy <= 3 sigma
    assert thm13_report["elapsed_seconds"] < 300.0
    _criterion(1, "three-sigma greedy sweep (300 instances)", thm13_report)


def test_criterion_02_oracle_equivalence():
    # subset-sum route vs operator route, coefficientwise 1e-8 relative
    report = cli.verify_oracles(seed=SEED, count=100)
    _criterion(2, "expected-polynomial route agreement (100 instances)", report)


def test_criterion_03_interlacing_monotonicity():
    # every greedy level: min branch root <= parent root + 1e-9, branches
    # real-rooted at 1e-6 and with a common interlacer (root columns interleave)
    report = cli.verify_interlacing(seed=SEED, count=300)
    _criterion(3, "interlacing-family greedy traces (300 instances)", report)


def test_criterion_04_barrier_walk():
    # normalized sweep: top-polynomial root <= 3 + 1e-9 and every barrier
    # walk step passes, including the initial barrier bound
    report = cli.verify_thm41(seed=SEED, count=300)
    _criterion(4, "largest-root certificate and barrier walks (300 instances)", report)


def test_criterion_05_tight_frame_exact_values():
    report = cli.verify_thm15()
    _criterion(5, "harmonic tight-frame exact pattern norms", report)


def test_criterion_06_diagonal_lower_bound():
    report = cli.verify_prop16()
    _criterion(6, "diagonal family integer lower bound", report)


def test_criterion_07_mixed_discriminants():
    report = cli.verify_alexandrov(seed=SEED, count=500)
    _criterion(7, "mixed discriminant identities and pair inequality", report)


def test_criterion_08_barrier_lemmas():
    report = cli.verify_barrier_lemmas(seed=SEED, count=200)
    print(f"  (bivariate cases skipped by hypothesis filter: {report['bivariate_skipped']})")
    _criterion(8, "quadratic and bivariate barrier lemmas", report)


def test_criterion_09_schatten_bounds():
    report = cli.verify_schatten(seed=SEED, count=200)
    _criterion(9, "Schatten-p moment bounds vs enumeration", report)


def test_criterion_10_subset_rounding():
    report = cli.verify_lyapunov(seed=SEED, count=100)
    _criterion(10, "fractional-to-subset rounding error bound", report)


def test_criterion_11_determinism(tmp_path):
    jobs = [
        (["verify", "thm13", "--count", "8", "--seed", "5"], "thm13"),
        (["verify", "interlacing", "--count", "8", "--seed", "5"], "interlacing"),
        (["verify", "oracles", "--count", "8", "--seed", "5"], "oracles"),
        (["verify", "thm41", "--count", "8", "--seed", "5"], "thm41"),
        (["verify", "schatten", "--count", "4", "--seed", "5"], "schatten"),
        (["verify", "lyapunov", "--count", "6", "--seed", "5"], "lyapunov"),
        (["verify", "prop16"], "prop16"),
        (["verify", "thm15"], "thm15"),
    ]
    ok = True
    for args, name in jobs:
        blobs = []
        for threads in ("1", "4", "1"):
            out = tmp_path / f"{name}-{threads}-{len(blobs)}.json"
            code = cli.main(args + ["--threads", threads, "--out", str(out)])
            assert code == 0
            blobs.append(out.read_bytes())
        if not (blobs[0] == blobs[1] == blobs[2]):
            ok = False
            print(f"  determinism broken for {name}")
    print(f"ACCEPTANCE 11 byte-identical reports across reruns and threads: {'PASS' if ok else 'FAIL'}")
    assert ok
