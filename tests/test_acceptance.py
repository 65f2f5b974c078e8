"""Acceptance suite: one test per criterion, each printing a PASS line.

Run `pytest -v -s tests/test_acceptance.py` to watch the lines live. The
full-range scan (criteria 1-2) covers n up to 10^8 and takes well under
its fifteen-minute budget; criterion 4 re-certifies a million witnesses
exhaustively plus a hundred thousand random 40-bit inputs.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from divbound.arith import Factorization, factorize, spf_sieve_segment, tau
from divbound.census import (
    CensusConfig,
    _harvest_segment,
    _weight,
    equality_census,
    verify_range,
)
from divbound.cli import main as cli_main
from divbound.gaussian import (
    GammaSpec,
    congruence_sum_A,
    congruence_sum_A_via_residues,
    rho,
    sequence_a,
)
from divbound.lowerbound import build_instance, verify_instance
from divbound.witness import (
    construct_witness,
    floor_quarter_inequalities,
    obstruction_instance,
)
from oracles import oracle_weight_sum, triple_count

WORKERS = os.cpu_count() or 1

HEADLINE_N_MAX = 10**8
HEADLINE_EQUALITY_COUNT = 733_133
HEADLINE_BUDGET_SECONDS = 900


@pytest.fixture(scope="module")
def headline_run():
    """The literal CLI invocation the headline criteria name."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [
            sys.executable, "-m", "divbound.cli", "verify",
            "--max", str(HEADLINE_N_MAX), "--threads", str(WORKERS),
        ],
        capture_output=True,
        text=True,
    )
    elapsed = time.monotonic() - t0
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout), elapsed


def test_criterion_1_headline_range_is_clean(headline_run):
    payload, elapsed = headline_run
    assert payload["violations"] == 0
    assert payload["max_ratio"] == {"num": 8, "den": 1, "float": 8.0}
    assert payload["arithmetic"] == "exact"
    assert payload["range_inclusive"] == [1, HEADLINE_N_MAX]
    assert elapsed <= HEADLINE_BUDGET_SECONDS
    print(
        f"\nPASS criterion 1: verify --max {HEADLINE_N_MAX} found no "
        f"violation of tau(n) <= 8*S(n) ({elapsed:.1f}s, {WORKERS} workers, "
        f"exact arithmetic)"
    )


def test_criterion_2_equality_count(headline_run):
    payload, _ = headline_run
    assert payload["equalities"] == HEADLINE_EQUALITY_COUNT
    assert payload["equalities"] == triple_count(HEADLINE_N_MAX)
    print(
        f"PASS criterion 2: equality attained exactly "
        f"{payload['equalities']:,} times on the inclusive range "
        f"[1, {HEADLINE_N_MAX}]"
    )


def test_criterion_3_equality_shape_at_10_6():
    cases = equality_census(CensusConfig(n_max=10**6, workers=WORKERS))
    assert len(cases) == 7875  # frozen count for this range
    offenders = [c for c in cases if not c.matches_three_prime_form]
    assert offenders == []
    for case in cases:
        f = factorize(case.n)
        assert len(f.factors) == 3
        assert all(a == 1 for _, a in f.factors)
        assert min(f.primes) ** 4 > case.n
    print(
        f"PASS criterion 3: all {len(cases)} equality cases below 10^6 are "
        f"squarefree triples with every prime above n^(1/4); zero exceptions"
    )


def test_criterion_4_witness_soundness():
    t0 = time.monotonic()
    seg = spf_sieve_segment(1, 10**6)
    for n in range(1, 10**6 + 1):
        cert = construct_witness(n, Factorization(n, tuple(seg.factor(n))))
        assert n % cert.d == 0
        assert cert.d**4 <= n
        assert cert.tau_n <= 8 * cert.tau_d**7
    rng = random.Random(20260808)
    for _ in range(10**5):
        n = rng.randrange(1, 1 << 40)
        cert = construct_witness(n)
        assert n % cert.d == 0
        assert cert.d**4 <= n
        assert cert.tau_n <= 8 * cert.tau_d**7
    elapsed = time.monotonic() - t0
    assert elapsed <= 120
    print(
        f"PASS criterion 4: 10^6 exhaustive + 10^5 random 40-bit witness "
        f"certificates all satisfy d | n, d^4 <= n, tau(n) <= 8*tau(d)^7 "
        f"({elapsed:.1f}s)"
    )


def test_criterion_5_lower_bound_family():
    for k in range(2, 13):
        inst = build_instance(k)
        notes: list[str] = []
        assert verify_instance(inst, diagnostics=notes), notes
        assert inst.ratio == Fraction(2 ** (k - 1))
    inst4 = build_instance(4)
    assert inst4.n == 2431
    equality_ns = {c.n for c in equality_census(CensusConfig(n_max=10**4))}
    assert inst4.n in equality_ns
    print(
        "PASS criterion 5: families for k = 2..12 verify with ratio "
        "exactly 2^(k-1); the k = 4 instance 2431 appears among the census "
        "equality cases"
    )


def test_criterion_6_floor_quarter_inequalities_exhaustive():
    for t in range(4, 10**6 + 1):
        both = floor_quarter_inequalities(t)
        if both != (True, True):
            pytest.fail(f"inequality failed at t = {t}: {both}")
    print(
        "PASS criterion 6: 7*floor(t/4) >= t and (floor(t/4)+1)^4 >= "
        "2*(t+1) hold for all 4 <= t <= 10^6"
    )


def test_criterion_7_obstruction_bound():
    equality_pairs = []
    for t1 in range(4, 13):
        for t2 in range(4, 13):
            f, d, ratio = obstruction_instance(t1, t2)
            tau_n = tau(f)
            tau_d = tau(factorize(d))
            assert tau_n <= 12 * tau_d**6
            assert ratio == Fraction(tau_n, tau_d**6)
            if tau_n == 12 * tau_d**6:
                equality_pairs.append((t1, t2))
    assert (7, 7) in equality_pairs
    for t1, t2 in equality_pairs:
        assert t1 % 4 == 3 and t2 % 4 == 3
    print(
        f"PASS criterion 7: tau(n) <= 12*tau(d)^6 on the whole grid, exact "
        f"arithmetic; equality at {equality_pairs} (block lengths 3 mod 4)"
    )


def test_criterion_8a_harvest_vs_direct_enumeration():
    # the scan clamps its weights (census._weight_table); the harvest is
    # checked on the unclamped weight(d), d^4 <= 10^4
    cfg = CensusConfig(n_max=10**4)
    w = np.array([0] + [_weight(d, cfg) for d in range(1, 11)], dtype=np.int32)
    harvested = _harvest_segment(1, 10**4, cfg, w)
    for n in range(1, 10**4 + 1):
        assert harvested[n - 1] == oracle_weight_sum(n), n
    print(
        "PASS criterion 8a: harvested S(n) equals direct divisor "
        "enumeration for every n <= 10^4, exact match"
    )


def test_criterion_8b_rho_vs_brute_force():
    for d in range(1, 10**4 + 1):
        count, roots = rho(d)
        v = np.arange(d, dtype=np.int64)
        brute = int(np.count_nonzero((v * v + 1) % d == 0))
        assert count == brute, d
        for root in roots:
            assert (root * root + 1) % d == 0 or d == 1
    print(
        "PASS criterion 8b: structured rho(d) equals brute-force residue "
        "counting for every d <= 10^4, exact match"
    )


def test_criterion_8c_congruence_sum_paths_agree():
    gamma = GammaSpec(r=1)
    for x in (10**2, 10**3, 10**4):
        seq = sequence_a(x, gamma)
        for d in range(1, 51):
            direct = congruence_sum_A(x, d, gamma, seq=seq)
            via = congruence_sum_A_via_residues(x, d, gamma)
            assert direct == via, (x, d)
    print(
        "PASS criterion 8c: direct and residue-class congruence sums agree "
        "exactly on x in {10^2, 10^3, 10^4} x d in [1, 50]"
    )


def test_criterion_9_determinism(capsys, tmp_path):
    args = ["verify", "--max", "1000000", "--segment-size", "65536"]
    assert cli_main(args + ["--threads", "1"]) == 0
    out1 = capsys.readouterr().out
    assert cli_main(args + ["--threads", "8"]) == 0
    out8 = capsys.readouterr().out
    assert out1 == out8

    ckpt = tmp_path / "determinism.ckpt"
    assert cli_main(args + ["--threads", "2", "--checkpoint", str(ckpt)]) == 0
    capsys.readouterr()
    lines = ckpt.read_text().splitlines(keepends=True)
    assert len(lines) > 5
    ckpt.write_text("".join(lines[:5]))  # pretend the run died early
    assert cli_main(args + ["--threads", "2", "--checkpoint", str(ckpt)]) == 0
    resumed = capsys.readouterr().out
    assert resumed == out1
    print(
        "PASS criterion 9: byte-identical JSON for 1 vs 8 workers at 10^6, "
        "and an interrupted-then-resumed scan reproduces it"
    )


def test_criterion_10_substituted_desk_scale_checks():
    # the asymptotic error bounds carry log-power constants that no desk
    # range can exhibit, so the contract substitutes exact structural
    # checks: the residue-path equivalences above plus this vanishing test
    gamma = GammaSpec(r=1)
    x = 10**4
    seq = sequence_a(x, gamma)
    vanishing = 0
    for d in range(2, 101):
        if rho(d)[0] == 0:
            vanishing += 1
            assert congruence_sum_A(x, d, gamma, seq=seq) == 0
    assert vanishing > 0
    print(
        f"PASS criterion 10: declared-out-of-scope asymptotics replaced by "
        f"exact checks; rho(d) = 0 forced A_d(10^4) = 0 for all {vanishing} "
        f"such d <= 100 (criteria 8b and 8c cover the remaining substitutes)"
    )
