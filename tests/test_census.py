from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from bisect import bisect_right
from dataclasses import asdict, replace
from fractions import Fraction
from math import isqrt, log2, prod

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from divbound import census
from divbound.arith import factorize, integer_kth_root, omega, sieve_primes, tau
from divbound.census import (
    CensusConfig,
    CheckpointError,
    ScanInterrupted,
    _harvest_segment,
    _log_weight,
    _scan_primes,
    _tau_dtypes,
    _tau_segment,
    _weight_table,
    best_constant_curve,
    classify_equality_shape,
    divisor_weight_sum,
    equality_census,
    verify_range,
)
from oracles import (
    high_tau_numbers,
    oracle_divisors,
    oracle_factor,
    oracle_tau,
    oracle_weight_sum,
    triple_count,
    weight_sum_from_exponents,
)


_P = census._PERIOD
_MP = 331 * _P  # 50,047,200, a multiple of the period inside [1, 10^8]


def _check_tau_segment(lo: int, hi: int) -> None:
    """_tau_segment on [lo, hi] against factorize, with exactly the sieving
    primes up to isqrt(hi) and with a longer list that must be cut off."""
    want_tau, want_sqfree = [], []
    for n in range(lo, hi + 1):
        f = factorize(n)
        want_tau.append(tau(f))
        want_sqfree.append(all(a == 1 for _, a in f.factors))
    for primes in (_scan_primes(isqrt(hi)), _scan_primes(4 * isqrt(hi) + 100)):
        t, sq = _tau_segment(lo, hi, primes)
        assert t.dtype == _tau_dtypes(hi)[0]  # nothing promoted tau
        assert t.tolist() == want_tau
        assert sq.tolist() == want_sqfree


def _tau_reference(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """tau and squarefree flags on [lo, hi] from each prime's exponent, one
    whole-window pass per prime p with p^2 <= hi, and a leftover prime."""
    n = np.arange(lo, hi + 1, dtype=np.int64)
    t, sqfree = np.ones_like(n), np.ones(len(n), dtype=bool)
    for p in sieve_primes(isqrt(hi)):
        e, q = np.zeros_like(n), p
        while q <= hi:
            e[(-lo) % q :: q] += 1
            q *= p
        n //= p**e
        t *= e + 1
        sqfree &= e < 2
    return t << (n > 1), sqfree


def _check_block(blo: int, bhi: int, cuts) -> None:
    """The block [blo, bhi], cut into windows before each n in cuts and
    sieved window by window in ascending order through one workspace: each
    window has the tau values and sqfree flags of the same window sieved
    alone, and the block's tau dtype."""
    primes = _scan_primes(isqrt(bhi))
    ws = census._Workspace(bhi - blo + 1, 4)
    edges = [blo] + sorted({c for c in cuts if blo < c <= bhi}) + [bhi + 1]
    for lo, end in zip(edges, edges[1:]):
        t, sq = _tau_segment(lo, end - 1, primes, ws, (blo, bhi))
        want_t, want_sq = _tau_segment(lo, end - 1, primes)
        assert t.dtype == _tau_dtypes(bhi)[0]
        assert t.tolist() == want_t.tolist(), (blo, bhi, lo)
        assert sq.tolist() == want_sq.tolist(), (blo, bhi, lo)


# Blocks and the cuts of their windows: windows on either side of 2^b,
# where the cofactor test's cut 8b - E moves; blocks across and ending at
# 2^28, whose windows below it take int32 tau and a uint16 log in the
# block; blocks across m^3, where the block's cube root exceeds that of
# its first windows (m = 11, 13, 463, 464); windows that split p^2 and
# p1 p2 for large primes of the block; and the largest count of primes
# p > 7 with v_p(n) = 1 below 2^28, six at 8 * 11 * 13 * ... * 29.
_BLOCK_CASES = (
    [(2**b - 3000, 2**b + 2000, (2**b - 999, 2**b, 2**b + 1)) for b in (12, 17, 22, 27)]
    + [(2**28 - 3000, 2**28 + 1000, (2**28 - 1, 2**28)),
       (2**28 - 4000, 2**28, (2**28 - 2999, 2**28 - 1500, 2**28))]
    + [(max(1, m**3 - 3000), m**3 + 500, (m**3 - 700, m**3, m**3 + 1))
       for m in (11, 13, 463, 464)]
    + [(p * p - 2000, p * p + 3000, (p * p, p * p + 1, p * q))
       for p, q in ((467, 479), (9973, 10007))]
    + [(246464504 - 5000, 246464504 + 100, (246464504 - 3, 246464504 + 1))]
)


@st.composite
def _block_cases(draw) -> tuple[int, int, list[int]]:
    """A block of 1 to 6000 n anywhere in [1, 2^28 + 2^21] or ending within
    4096 of 2^28, and up to five cuts into windows."""
    length = draw(st.integers(1, 6000))
    if draw(st.booleans()):
        bhi = (1 << 28) + draw(st.integers(-4096, 4096))
    else:
        bhi = draw(st.integers(length, (1 << 28) + (1 << 21)))
    blo = max(1, bhi - length + 1)
    return blo, bhi, draw(st.lists(st.integers(blo, bhi), max_size=5))


_TAU_EDGE_WINDOWS = (
    [(1, 1)]
    # windows that start exactly at p^j
    + [(p**j, p**j + 300) for p, j in [(2, 1), (2, 10), (2, 26), (3, 16),
                                       (7, 9), (9973, 1), (9973, 2)]]
    # windows that end at p^2 - 1 and at p^2
    + [(max(1, p * p - 300), p * p - e) for p in (2, 3, 97, 9973) for e in (1, 0)]
    + [(10**8 - 1999, 10**8)]
    # windows that end where _tau_dtypes widens tau and acc (2^28), and at 2^31
    + [(2**b - 300, 2**b - e) for b in (28, 31) for e in (1, 0)]
    # windows that straddle 2^b, where the cofactor test's cut 8b - E moves
    + [(max(1, 2**b - 150), 2**b + 150) for b in range(3, 31)]
    # lo % period is 0, 1 and period - 1; a window across a multiple of it
    + [(_MP + e, _MP + e + 300) for e in (0, 1, -1)]
    + [(_MP - 300, _MP + 300)]
    # windows that end at m^3 - 1, m^3 and m^3 + 1, where the prime next to
    # m changes side of the cube root (icbrt(hi) = 10, 12, 462 and 463 move
    # up by one at m^3)
    + [(m**3 - 300, m**3 + e) for m in (11, 13, 463, 464) for e in (-1, 0, 1)]
    # windows that hold p^2 and 2 p^2 for the smallest large p of their hi:
    # 11 at hi = 247 and 1000, 17 at 3000 and 37 at 40000
    + [(p * p - 3, hi) for p, hi in ((11, 247), (11, 1000), (17, 3000), (37, 40000))]
    # windows that hold p1 p2 and p2^2 for two large primes p1 < p2
    + [(p1 * p2 - 50, p2 * p2 + 50)
       for p1, p2 in ((97, 101), (467, 479), (997, 1009), (9929, 9931))]
    # windows that hold p q for a large p and a prime q > sqrt(hi)
    + [(p * q - 100, p * q + 100) for p, q in ((11, 89), (467, 214129), (9973, 10007))]
)


def _harvest_reference(lo: int, hi: int, k: int, w: np.ndarray) -> np.ndarray:
    """S on [lo, hi] by one strided add per d, in ascending d."""
    S = np.zeros(hi - lo + 1, dtype=w.dtype)
    d = 1
    while d**k <= hi:
        start = -(-max(lo, d**k) // d) * d
        if start <= hi:
            S[start - lo :: d] += w[d]
        d += 1
    return S


_HARVEST_WINDOWS = [
    # windows that contain or straddle d^4 for d = 96 and d = 100, which
    # divide the period
    (96**4 - 5000, 96**4 + 200_000),
    (96**4, 96**4 + 2**20 - 1),
    (96**4 + 1, 96**4 + _P),
    (100**4 - 2**20 + 1, 100**4),
    (100**4 - 10, 100**4 + 200_000),
    # lo % period is period - 1, 0 and 1; lengths above, at and below it
    *[(_MP + e, _MP + e + n - 1) for e in (-1, 0, 1) for n in (2**20, _P, _P + 2)],
    # short windows, and windows starting near 1
    (_MP + 1, _MP + 1),
    (_MP - 50, _MP + 50),
    (_MP - 7, _MP - 8 + _P // 8 - 1),
    (_MP - 7, _MP - 8 + _P // 8),
    (1, 2**20),
    (15, 15 + _P),
    (16, 16 + _P),
]


@st.composite
def _harvest_cases(draw) -> tuple[int, np.ndarray, int, int]:
    """(k, w, lo, hi): random weights for every d^k <= 10^8, int32 or int64
    with a total just below the dtype's bound, or float64; and a window of
    [1, 10^8] that straddles p^k for a periodic p <= root(hi), or ends
    below p^k for a periodic p > root(hi), across up to two periods."""
    k = draw(st.sampled_from([2, 3, 4]))
    d_max = integer_kth_root(10**8, k)
    dtype = draw(st.sampled_from([np.int32, np.int64, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if dtype is np.float64:
        w = rng.random(d_max + 1) * 10.0 ** draw(st.integers(0, 30))
    else:
        top = ((1 << 31) - 1 if dtype is np.int32 else 1 << 62) // (d_max + 1)
        w = rng.integers(0, top, size=d_max + 1, endpoint=True, dtype=dtype)
    w[0] = 0
    p = draw(st.sampled_from([d for d in census._PERIOD_DIVISORS if 1 < d <= d_max]))
    length = draw(st.integers(1, 2 * _P + 2))
    if draw(st.booleans()):
        lo = max(1, p**k - draw(st.integers(0, length - 1)))
    else:
        lo = max(1, p**k - length - draw(st.integers(0, 1000)))
    return k, w, lo, min(lo + length - 1, 10**8)


@st.composite
def _second_period_cases(draw) -> tuple[int, np.ndarray, list[tuple[int, int]]]:
    """(k, w, windows): random int32 or int64 weights for every d^k <= 10^8,
    with a total just below the dtype's bound, and one to three windows of
    [1, 10^8] of up to three periods _PERIOD2 each. A window straddles or
    ends below p^k for a p of _PERIOD2_DIVISORS with p^k <= 10^8, or starts
    within 2 of a multiple of _PERIOD2."""
    k = draw(st.sampled_from([2, 3, 4]))
    d_max = integer_kth_root(10**8, k)
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = ((1 << 31) - 1 if dtype is np.int32 else 1 << 62) // (d_max + 1)
    w = rng.integers(0, top, size=d_max + 1, endpoint=True, dtype=dtype)
    w[0] = 0
    windows = []
    for _ in range(draw(st.integers(1, 3))):
        length = draw(st.integers(1, 3 * census._PERIOD2))
        if draw(st.booleans()):
            p = draw(st.sampled_from([d for d in census._PERIOD2_DIVISORS if d <= d_max]))
            lo = min(max(1, p**k - draw(st.integers(-length, length))), 10**8)
        else:
            m = draw(st.integers(1, 10**8 // census._PERIOD2 - 4))
            lo = m * census._PERIOD2 + draw(st.integers(-2, 2))
        windows.append((lo, min(lo + length - 1, 10**8)))
    return k, w, windows


def _unclamped_table(cfg: CensusConfig, dtype) -> np.ndarray:
    """weight(d) for every d^k <= n_max, as _weight_table has it before
    clamping: what the harvest must add up to the oracle's S."""
    d_max = integer_kth_root(cfg.n_max, cfg.k)
    return np.array([0] + [census._weight(d, cfg) for d in range(1, d_max + 1)],
                    dtype=dtype)


def _oracle_weight(d: int, cfg: CensusConfig) -> int:
    t = oracle_tau(d)
    if cfg.weight == "landreau":
        return (2 ** len(oracle_factor(d)) * t) ** cfg.k
    return t**cfg.eta


def _oracle_row(n: int, cfg: CensusConfig) -> tuple[int, int, bool]:
    """(tau(n), S(n), n squarefree) by plain divisor counting, for an exact
    config."""
    s = sum(_oracle_weight(d, cfg) for d in oracle_divisors(n) if d**cfg.k <= n)
    return oracle_tau(n), s, all(a == 1 for _, a in oracle_factor(n))


def _oracle_segment(lo: int, hi: int, cfg: CensusConfig, rows: list) -> dict:
    """The checkpoint record of [lo, hi], without its digest, from oracle
    rows (rows[n - 1] for n): counts, equality list and the (tau, S, n) of
    the largest ratio, the first n on a tie, (0, 1, -1) with no n eligible."""
    cn, cd = cfg.constant.numerator, cfg.constant.denominator
    rec = dict(lo=lo, hi=hi, violations=0, equalities=0, equality_ns=[],
               max_num=0, max_den=1, argmax_n=-1)
    for n in range(lo, hi + 1):
        t, s, sqfree = rows[n - 1]
        if cfg.squarefree_only and not sqfree:
            continue
        rec["violations"] += cd * t > cn * s
        if cd * t == cn * s:
            rec["equalities"] += 1
            rec["equality_ns"].append(n)
        if rec["argmax_n"] == -1 or t * rec["max_den"] > rec["max_num"] * s:
            rec.update(max_num=t, max_den=s, argmax_n=n)
    return rec


def brute_report(
    n_max: int,
    constant: Fraction = Fraction(8),
    *,
    eta: int | float = 7,
    weight: str = "tau_power",
    squarefree_only: bool = False,
):
    """Per-n oracle for violations / equalities / max ratio. A non-integer
    eta (tau_power only) compares float sums at census.FLOAT_REL_TOL."""
    exact = weight == "landreau" or isinstance(eta, int)
    violations = equalities = 0
    best = (0, 1, None)
    for n in range(1, n_max + 1):
        if squarefree_only and any(a > 1 for _, a in oracle_factor(n)):
            continue
        t = oracle_tau(n)
        if weight == "landreau":
            s = sum(
                (2 ** len(oracle_factor(d)) * oracle_tau(d)) ** 4
                for d in oracle_divisors(n) if d**4 <= n
            )
        elif exact:
            s = oracle_weight_sum(n, eta=eta)
        else:
            s = sum(
                float(oracle_tau(d)) ** eta for d in oracle_divisors(n) if d**4 <= n
            )
        if exact:
            lhs, rhs = t * constant.denominator, constant.numerator * s
            violations += lhs > rhs
            equalities += lhs == rhs
            if best[2] is None or t * best[1] > best[0] * s:
                best = (t, s, n)
        else:
            rhs_f = float(constant) * s
            tol = census.FLOAT_REL_TOL * max(rhs_f, 1.0)
            violations += t > rhs_f + tol
            equalities += abs(t - rhs_f) <= tol
            if best[2] is None or t / s > best[0] / best[1]:
                best = (t, s, n)
    if exact:
        return violations, equalities, Fraction(best[0], best[1]), best[2]
    return violations, equalities, best[0] / best[1], best[2]


@st.composite
def _exact_configs(draw) -> CensusConfig:
    """An exact config on at most 600 n, segments of 1 to 64 n, and a
    constant from one of five families: a long decimal, one near or above
    t = 2 isqrt(n_max), one below 1 / (sum of the weights), one near the
    ratio 8, and a small fraction."""
    n_max = draw(st.integers(1, 600))
    cfg = CensusConfig(
        n_max=n_max,
        k=draw(st.sampled_from([2, 3, 4])),
        eta=draw(st.integers(0, 40)),
        weight=draw(st.sampled_from(["tau_power", "tau_power", "landreau"])),
        squarefree_only=draw(st.booleans()),
        segment_size=draw(st.integers(1, 64)),
    )
    t = 2 * isqrt(n_max)
    kind = draw(st.sampled_from(["decimal", "above-t", "below-sum", "near-8", "small"]))
    if kind == "decimal":
        digits = draw(st.integers(15, 25))
        constant = Fraction(draw(st.integers(10 ** (digits - 2), 10 ** (digits + 3))),
                            10**digits)
    elif kind == "above-t":
        constant = Fraction(draw(st.integers(t - 1, t + 2) | st.integers(t, 10**30)))
    elif kind == "below-sum":
        total = sum(_oracle_weight(d, cfg)
                    for d in range(1, integer_kth_root(n_max, cfg.k) + 1))
        constant = Fraction(1, total * draw(st.integers(1, 10**6))
                            + draw(st.integers(1, 1000)))
    elif kind == "near-8":
        q = draw(st.integers(1, 10**25))
        constant = Fraction(8 * q + draw(st.integers(-3, 3)), q)
    else:
        constant = Fraction(draw(st.integers(1, 1000)), draw(st.integers(1, 1000)))
    return replace(cfg, constant=constant)


def _compare_reference(lo, hi, cfg, w, primes, collect):
    """The window compare over every n, as census._compare_window did it
    before one candidate set decided everything: exact products or float
    tolerances and squarefree masks on the whole window, and the exact
    maximum from the float32 candidates near the peak."""
    t, sqfree = _tau_segment(lo, hi, primes)
    S = _harvest_segment(lo, hi, cfg, w)
    if cfg.exact:
        lhs = cfg.constant.denominator * t.astype(S.dtype)
        rhs = cfg.constant.numerator * S
        viol, eq = lhs > rhs, lhs == rhs
    else:
        rhs_f = float(cfg.constant) * S
        tol = census.FLOAT_REL_TOL * np.maximum(rhs_f, 1.0)
        viol, eq = t > rhs_f + tol, np.abs(t - rhs_f) <= tol
    if cfg.squarefree_only:
        viol &= sqfree
        eq &= sqfree
    ratio = np.divide(t, S, dtype=np.float32) if cfg.exact else t / S
    if cfg.squarefree_only:
        ratio[~sqfree] = -np.inf
    peak = float(ratio.max())
    best = (0, 1, -1)
    if peak > float("-inf") and cfg.exact:
        cand = np.flatnonzero(ratio >= peak * (1.0 - 1e-5))
        best = census._exact_argmax(t, S, cand, lo)
    elif peak > float("-inf"):
        i = int(np.argmax(ratio))
        best = (float(ratio[i]), 1, lo + i)
    return census._SegmentResult(
        lo, hi, int(np.count_nonzero(viol)), int(np.count_nonzero(eq)), *best,
        (np.flatnonzero(eq) + lo).tolist() if collect else None,
    )


# runs of n with no squarefree n among them
_NONSQUAREFREE_RUNS = [(4, 4), (8, 9), (24, 25), (48, 50), (242, 245)]


@st.composite
def _window_cases(draw) -> tuple[CensusConfig, int, int]:
    """A config and a window [lo, hi] of it: exact or float eta, and a
    constant equal to or within 10^-8 of the ratio 8 or of the ratio of an
    n in the window, below 1 / (sum of the weights), 1, or a fraction. One
    window in five, where n_max allows, is a run with no squarefree n."""
    n_max = draw(st.integers(1, 10**6))
    float_eta = draw(st.booleans())
    cfg = CensusConfig(
        n_max=n_max,
        k=draw(st.sampled_from([2, 3, 4, 4])),
        eta=draw(st.sampled_from([0.5, 6.5, 7.5, Fraction(19, 25)])) if float_eta
        else draw(st.integers(0, 40)),
        weight="tau_power" if float_eta
        else draw(st.sampled_from(["tau_power", "tau_power", "landreau"])),
        squarefree_only=draw(st.booleans()),
    )
    runs = [r for r in _NONSQUAREFREE_RUNS if r[1] <= n_max]
    if runs and draw(st.integers(0, 4)) == 0:
        lo, hi = draw(st.sampled_from(runs))
    else:
        lo = draw(st.integers(1, n_max))
        hi = draw(st.integers(lo, min(n_max, lo + 5000)))
    kind = draw(st.sampled_from(
        ["near-8", "attained", "attained", "below-sum", "one", "fraction"]))
    shift = 1 + Fraction(draw(st.sampled_from([-1, 0, 0, 1])), 10**8)
    if kind == "near-8":
        constant = 8 * shift
    elif kind == "attained":
        m = draw(st.integers(lo, hi))
        constant = tau(factorize(m)) / Fraction(divisor_weight_sum(m, cfg)) * shift
    elif kind == "below-sum":
        total = int(sum(_unclamped_table(cfg, object).tolist())) + 1
        constant = Fraction(1, total * draw(st.integers(1, 10**6))
                            + draw(st.integers(1, 1000)))
    elif kind == "one":
        constant = Fraction(1)
    else:
        constant = Fraction(draw(st.integers(1, 10**6)), draw(st.integers(1, 10**5)))
    return replace(cfg, constant=constant), lo, hi


class TestConfig:
    def test_defaults(self):
        cfg = CensusConfig(n_max=100)
        assert cfg.k == 4 and cfg.eta == 7 and cfg.constant == 8
        assert cfg.exact

    def test_eta_normalization(self):
        assert CensusConfig(n_max=10, eta=7.0).eta == 7
        assert CensusConfig(n_max=10, eta=Fraction(14, 2)).eta == 7
        assert not CensusConfig(n_max=10, eta=0.76).exact
        assert not CensusConfig(n_max=10, eta=Fraction(3, 4)).exact

    def test_landreau_is_exact_for_any_eta(self):
        assert CensusConfig(n_max=10, weight="landreau", eta=0.5).exact

    def test_validation(self):
        with pytest.raises(ValueError):
            CensusConfig(n_max=0)
        with pytest.raises(ValueError):
            CensusConfig(n_max=10, k=1)
        with pytest.raises(ValueError):
            CensusConfig(n_max=10, weight="nope")
        with pytest.raises(ValueError):
            CensusConfig(n_max=10, eta=-1)
        for eta in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                CensusConfig(n_max=10, eta=eta)
        with pytest.raises(ValueError):
            CensusConfig(n_max=10, constant=Fraction(0))

    def test_echo_excludes_workers(self):
        a = CensusConfig(n_max=10, workers=1).echo()
        b = CensusConfig(n_max=10, workers=8).echo()
        assert a == b
        assert "workers" not in a


class TestDivisorWeightSum:
    def test_examples(self):
        cfg = CensusConfig(n_max=10**4)
        assert divisor_weight_sum(30, cfg) == 1 + 2**7 == 129
        assert divisor_weight_sum(1, cfg) == 1
        assert divisor_weight_sum(2431, cfg) == 1

    def test_against_oracle(self):
        cfg = CensusConfig(n_max=10**4)
        for n in range(1, 2001):
            assert divisor_weight_sum(n, cfg) == oracle_weight_sum(n)

    def test_landreau_weight(self):
        cfg = CensusConfig(n_max=10**6, weight="landreau")
        # d = 1 and d = 2 qualify for n = 30; 2^omega(2)*tau(2) = 4
        assert divisor_weight_sum(30, cfg) == 1 + 4**4

    def test_float_eta(self):
        cfg = CensusConfig(n_max=100, eta=0.5)
        got = divisor_weight_sum(30, cfg)
        assert got == pytest.approx(1 + 2**0.5)


class TestSegmentKernels:
    def test_tau_segment_matches_oracle(self, small_tau_table):
        primes = _scan_primes(100)
        t, sq = _tau_segment(1, 10**4, primes)
        assert t.dtype == np.int16
        for n in range(1, 10**4 + 1):
            assert t[n - 1] == small_tau_table[n]
            assert sq[n - 1] == all(a == 1 for _, a in factorize(n).factors)

    def test_tau_segment_offset_window(self):
        primes = _scan_primes(1100)
        lo, hi = 10**6 - 200, 10**6 + 200
        t, _ = _tau_segment(lo, hi, primes)
        for n in range(lo, hi + 1):
            assert t[n - lo] == tau(factorize(n))

    @given(lo=st.integers(1, 10**8), length=st.integers(1, 4096))
    @settings(max_examples=50, deadline=None)
    def test_tau_segment_property(self, lo, length):
        _check_tau_segment(lo, lo + length - 1)

    @pytest.mark.parametrize("lo, hi", _TAU_EDGE_WINDOWS)
    def test_tau_segment_edges(self, lo, hi):
        _check_tau_segment(lo, hi)

    def test_tau_segment_every_small_window(self):
        # every [lo, hi] with hi <= 256, among them those with hi below 9,
        # 25 and 49, where 3, 5 and 7 come from the start but do not sieve
        want = [(0, False)] + [(tau(f), all(a == 1 for a in f.exponents))
                               for f in map(factorize, range(1, 257))]
        for hi in range(1, 257):
            for primes in (_scan_primes(isqrt(hi)), _scan_primes(256)):
                for lo in range(1, hi + 1):
                    t, sq = _tau_segment(lo, hi, primes)
                    assert list(zip(t.tolist(), sq.tolist())) == want[lo : hi + 1], (lo, hi)

    def test_tau_segment_across_the_first_cube_roots(self):
        # every hi from 11^2, where the first large prime sieves, to 11^3,
        # where 11 turns small, with lo = hi - 40
        want = [(0, False)] + [(tau(f), all(a == 1 for a in f.exponents))
                               for f in map(factorize, range(1, 1332))]
        for hi in range(121, 1332):
            for primes in (_scan_primes(isqrt(hi)), _scan_primes(1331)):
                t, sq = _tau_segment(hi - 40, hi, primes)
                assert list(zip(t.tolist(), sq.tolist())) == want[hi - 40 : hi + 1], hi

    @pytest.mark.parametrize("lo, hi", [(15, 15 + _P), (_P - 5, 3 * _P + 5)])
    def test_tau_segment_spans_periods(self, lo, hi):
        # windows that copy the start in two and in four pieces
        t, sq = _tau_segment(lo, hi, _scan_primes(isqrt(hi)))
        want_t, want_sq = _tau_reference(lo, hi)
        assert t.dtype == np.int16
        assert np.array_equal(t, want_t)
        assert np.array_equal(sq, want_sq)

    @pytest.mark.parametrize("blo, bhi, cuts", _BLOCK_CASES)
    def test_windows_of_a_block_match_windows_alone(self, blo, bhi, cuts):
        _check_block(blo, bhi, cuts)

    @given(case=_block_cases())
    @settings(max_examples=40, deadline=None)
    def test_block_property(self, case):
        _check_block(*case)

    def test_block_is_sieved_again_for_a_window_taken_before(self):
        # a window spends its slice of the block's log sum; the same window
        # again, or an earlier one, must not read the spent slice
        blo, bhi = 10**8 - 9999, 10**8
        primes = _scan_primes(10**4)
        ws = census._Workspace(bhi - blo + 1, 4)
        for lo, hi in [(blo, blo + 4999), (blo, blo + 4999), (blo + 5000, bhi),
                       (blo + 2000, blo + 2999), (blo + 5000, bhi)]:
            t, sq = _tau_segment(lo, hi, primes, ws, (blo, bhi))
            want_t, want_sq = _tau_segment(lo, hi, primes)
            assert np.array_equal(t, want_t) and np.array_equal(sq, want_sq), (lo, hi)

    def test_word_fields_hold_their_largest_values(self):
        # the uint16 word keeps the log of the sieved part of n in its low
        # _LOG_BITS and the count of small primes p with v_p(n) = 1 above
        # them. The proof bounds the log by 8.5 log2 hi and the count by the
        # most primes from 2 on whose product stays below hi: 9 below 2^28,
        # 15 below 2^60 and 25 below 2^124, where int64 tau ends
        assert census._UNIT == 1 << census._LOG_BITS
        assert census._DOWN + census._UNIT == 1 << 16
        ps = sieve_primes(200)
        for top, most in ((2**28 - 1, 9), (2**60 - 1, 15), (2**124 - 1, 25)):
            assert prod(ps[:most]) <= top < prod(ps[: most + 1])
            assert most < 1 << (16 - census._LOG_BITS)
            acc_dtype = _tau_dtypes(top)[1]
            log = int(8.5 * log2(top))
            assert log < census._UNIT
            assert log < np.iinfo(acc_dtype).max
            word = np.array([most * census._UNIT + log], dtype=np.uint16)
            word += census._UNIT  # one more prime counted, then taken back
            word += census._DOWN
            acc = np.empty(1, dtype=acc_dtype)
            np.bitwise_and(word, census._UNIT - 1, out=acc)
            word >>= census._LOG_BITS
            assert (int(acc[0]), int(word[0])) == (log, most)
        # the kernel at those counts: 2 * 3 * ... * 23 below 2^28, and
        # 4 * 3 * 5 * ... * 23 above it, where tau and the log widen
        assert prod(ps[:9]) == 223_092_870 < 2**28 < 446_185_740
        for n in (223_092_870, 446_185_740):
            _check_tau_segment(n - 100, n + 100)

    def test_log_weight_is_within_half_of_8_log2_p(self):
        for p in sieve_primes(10**5):
            r = _log_weight(p)
            assert 2 ** (2 * r - 1) < p**16 < 2 ** (2 * r + 1), p
            assert abs(r - 8 * log2(p)) < 0.5, p

    def test_tau_dtypes_widen_at_their_bounds(self):
        # tau(n) <= 2 sqrt(n) fits int16 below 2^28 and int32 below 2^60;
        # acc < 8.5 log2 n fits uint8 below 2^28 and uint16 far beyond.
        # 2^60 is far past any sieve.
        assert 8.5 * 28 < 2**8
        assert _tau_dtypes(2**28 - 1) == (np.int16, np.uint8)
        assert _tau_dtypes(2**28) == (np.int32, np.uint16)
        assert _tau_dtypes(2**60 - 1) == (np.int32, np.uint16)
        assert _tau_dtypes(2**60) == (np.int64, np.uint16)

    def test_harvest_equals_direct_enumeration(self):
        cfg = CensusConfig(n_max=10**4)
        w = _unclamped_table(cfg, np.int32)
        s = _harvest_segment(1, 10**4, cfg, w)
        for n in range(1, 10**4 + 1):
            assert s[n - 1] == oracle_weight_sum(n), n

    @pytest.mark.parametrize(
        "k, eta, constant, dtype",
        [
            (4, 7, Fraction(8), np.int32),
            (4, 3, Fraction(8), np.int32),  # other weights, same dtype
            (4, 7, Fraction(2**20), np.int64),  # a large C forces int64
            (3, 7, Fraction(8), np.int32),  # 464 d, weights clamped at 20001
        ],
    )
    def test_periodic_harvest_matches_reference(self, k, eta, constant, dtype):
        cfg = CensusConfig(n_max=10**8, k=k, eta=eta, constant=constant)
        w, _ = _weight_table(cfg)
        assert w.dtype == dtype
        for lo, hi in _HARVEST_WINDOWS:
            got = _harvest_segment(lo, hi, cfg, w)
            assert got.dtype == w.dtype
            assert np.array_equal(got, _harvest_reference(lo, hi, k, w)), (lo, hi)

    @given(case=_harvest_cases())
    @settings(max_examples=120, deadline=None)
    def test_harvest_with_scan_pattern_matches_reference(self, case):
        # the prefix pattern of the periodic d with d^k <= lo, and every
        # other d added from d^k on, against ascending adds: equal arrays on
        # integer tables, equal bytes on float64 ones, which take no pattern
        k, w, lo, hi = case
        got = _harvest_segment(lo, hi, CensusConfig(n_max=10**8, k=k), w)
        want = _harvest_reference(lo, hi, k, w)
        assert got.dtype == w.dtype
        assert got.tobytes() == want.tobytes(), (lo, hi)

    @given(case=_second_period_cases())
    @settings(max_examples=60, deadline=None)
    def test_two_prefix_patterns_match_reference(self, case):
        # S from both prefix patterns, the second added as rows of _PERIOD2
        # plus a head and a tail, and strided adds for every other d,
        # through one workspace whose patterns grow, shrink and change dtype
        # from window to window: equal to one strided add per d
        k, w, windows = case
        cfg = CensusConfig(n_max=10**8, k=k)
        ws = census._Workspace(3 * census._PERIOD2, 4)
        for lo, hi in windows:
            got = _harvest_segment(lo, hi, cfg, w, ws)
            assert got.dtype == w.dtype
            assert np.array_equal(got, _harvest_reference(lo, hi, k, w)), (k, lo, hi)

    def test_second_period_takes_the_d_of_10296_outside_151200(self):
        assert census._PERIOD2 == 2**3 * 3**2 * 11 * 13
        assert census._PERIOD2_DIVISORS == tuple(
            d for d in range(1, census._PERIOD2 + 1)
            if census._PERIOD2 % d == 0 and _P % d)
        assert [d for d in census._PERIOD2_DIVISORS if d <= 100] == [
            11, 13, 22, 26, 33, 39, 44, 52, 66, 78, 88, 99]

    def test_prefix_builds_are_bounded_per_worker(self, monkeypatch):
        # each worker takes its segments in ascending order, so it builds
        # each prefix at most once: at most the distinct prefixes of the
        # scan's windows times the workers, far fewer than the windows
        builds, windows = [], []
        real = census._Workspace.prefix

        def counted(ws, w, root):
            last = ws._prefix
            out = real(ws, w, root)
            windows.append(root)
            if ws._prefix is not last:
                builds.append(root)
            return out

        monkeypatch.setattr(census._Workspace, "prefix", counted)
        cfg = CensusConfig(n_max=10**6, segment_size=10**4, workers=2)
        report = verify_range(cfg)
        prefixes = {bisect_right(census._PERIOD_DIVISORS, r) for r in windows}
        assert len(windows) == report.segments_processed == 100
        assert len(prefixes) == 14
        assert len(prefixes) <= len(builds) <= 2 * len(prefixes)
        monkeypatch.undo()
        assert report.to_json() == verify_range(replace(cfg, workers=1)).to_json()

    def test_one_workspace_through_prefix_changes(self):
        # windows straddling p^k for periodic p, ascending, then descending,
        # then prefixes seen before, each twice; an int32 table and then an
        # int64 one, which starts on the prefix the first ended on. One
        # workspace's S must equal a fresh workspace's byte for byte, and
        # the ascending adds
        for k, n_max in ((4, 10**8), (2, 10**6)):
            tables = [_weight_table(CensusConfig(n_max=n_max, k=k, eta=eta, constant=c))[0]
                      for eta, c in ((3, Fraction(8)), (7, Fraction(2**20)))]
            assert [w.dtype for w in tables] == [np.int32, np.int64]
            ps = [p for p in census._PERIOD_DIVISORS if 1 < p and p**k <= n_max]
            ups = [(max(1, p**k - 1000), p**k + 5000) for p in ps[::3]]
            mid = ups[len(ups) // 2]
            again = [win for win in ups[len(ups) // 2 :: -2] for _ in (0, 1)]
            ws = census._Workspace(census._WINDOW, 4)
            cfg = CensusConfig(n_max=n_max, k=k)
            for w in tables:
                for lo, hi in [mid] + ups + ups[::-1] + again + [mid]:
                    got = _harvest_segment(lo, hi, cfg, w, ws)
                    want = _harvest_segment(lo, hi, cfg, w)
                    assert got.tobytes() == want.tobytes(), (k, w.dtype, lo, hi)
                    assert np.array_equal(want, _harvest_reference(lo, hi, k, w)), (k, lo, hi)

    def test_tau_start_matches_gcd_oracle(self):
        # the start at i holds what the p^j | _PERIOD say of every n with
        # n % _PERIOD == i: with g = gcd(i, _PERIOD), the product of
        # v_p(g) + 1 over the p with v_p(g) >= 2, the word that counts the p
        # with v_p(g) = 1 above the sum of v_p(g) r_p, and whether g is
        # squarefree
        start = census._TAU_START
        assert [a.dtype for a in start] == [np.uint8, np.uint16, np.bool_]
        assert not any(a.flags.writeable for a in start)
        assert all(len(a) == _P for a in start)
        g = np.gcd(np.arange(_P), _P).tolist()
        want = {}
        for x in set(g):
            f = oracle_factor(x)
            want[x] = (prod(a + 1 for _, a in f if a >= 2),
                       sum(a == 1 for _, a in f) << census._LOG_BITS
                       | sum(a * _log_weight(p) for p, a in f),
                       all(a == 1 for _, a in f))
        assert len(want) == 144
        for i, got in enumerate(zip(*(a.tolist() for a in start))):
            assert got == want[g[i]], i

    def test_float_harvest_is_bit_identical(self):
        # float sums depend on the order of the adds; S must keep the
        # ascending one bit for bit on the top window of [1, 10^8]
        cfg = CensusConfig(n_max=10**8, eta=7.5)
        w, c = _weight_table(cfg)
        assert w.dtype == np.float64 and c is None
        lo, hi = 10**8 - 2**20 + 1, 10**8
        assert census._Workspace(1, 0).prefix(w, 100) is None
        got = _harvest_segment(lo, hi, cfg, w)
        assert got.tobytes() == _harvest_reference(lo, hi, 4, w).tobytes()

    def test_harvest_respects_segment_boundaries(self):
        cfg = CensusConfig(n_max=10**4)
        w, _ = _weight_table(cfg)
        whole = _harvest_segment(1, 10**4, cfg, w)
        pieces = np.concatenate(
            [_harvest_segment(lo, min(lo + 999, 10**4), cfg, w)
             for lo in range(1, 10**4, 1000)]
        )
        assert np.array_equal(whole, pieces)

    # C = 8 and 1 with cap = t + 1 = 109, eta 40 and k = 2, landreau; C
    # below 1 / (sum of the weights), C above t, and a C = 8 + 10^-20 that
    # the stand-in c = 8 * 109 / 108 replaces
    @pytest.mark.parametrize(
        "kwargs",
        [dict(), dict(constant=Fraction(1)), dict(eta=40), dict(k=2, eta=3),
         dict(weight="landreau"), dict(constant=Fraction(1, 10**8)),
         dict(constant=Fraction(10**30)),
         dict(constant=Fraction(8 * 10**20 + 1, 10**20))],
        ids=["default", "c1", "eta40", "k2", "landreau", "below-sum", "above-t",
             "stand-in"],
    )
    def test_clamped_table_keeps_every_compare(self, kwargs):
        # against the oracle's unclamped S: the clamped S is at most S, where
        # it is lower the ratio tau / S stays below 1, and every n compares
        # with c and the clamped S as it does with C and S
        cfg = CensusConfig(n_max=3000, **kwargs)
        w, c = _weight_table(cfg)
        assert w.dtype == np.int32
        got = _harvest_segment(1, cfg.n_max, cfg, w).tolist()
        C, clamped = cfg.constant, 0
        for n in range(1, cfg.n_max + 1):
            t, s, _ = _oracle_row(n, cfg)
            g = got[n - 1]
            assert g <= s, n
            if g < s:
                clamped += 1
                assert t < g, n
            want = (t * C.denominator > C.numerator * s) - (t * C.denominator < C.numerator * s)
            assert (t * c.denominator > c.numerator * g) - (
                t * c.denominator < c.numerator * g) == want, n
        assert clamped > 0


class TestVerifyRange:
    def test_tiny_range_oracle_confirmed(self):
        # for n <= 10 only d = 1 has d^4 <= n, so S(n) = 1 everywhere and
        # the best ratio is tau(6) = 4
        report = verify_range(CensusConfig(n_max=10))
        v, e, ratio, argmax = brute_report(10)
        assert (v, e) == (0, 0)
        assert (report.violations, report.equalities) == (0, 0)
        assert report.max_ratio == ratio == 4
        assert report.argmax_n == argmax == 6

    def test_matches_brute_force_to_3000(self):
        report = verify_range(CensusConfig(n_max=3000, segment_size=512))
        v, e, ratio, argmax = brute_report(3000)
        assert report.violations == v == 0
        assert report.equalities == e
        assert report.max_ratio == ratio == 8
        assert report.argmax_n == argmax == 385

    def test_smallest_max_ratio_argmax_wins(self):
        # 385 = 5*7*11 is the first n attaining ratio 8; later equality
        # cases must not displace it
        report = verify_range(CensusConfig(n_max=10**4, segment_size=700))
        assert report.argmax_n == 385

    def test_forced_violations_counted(self):
        report = verify_range(CensusConfig(n_max=100, constant=Fraction(1)))
        expected = sum(
            1 for n in range(1, 101) if oracle_tau(n) > oracle_weight_sum(n)
        )
        assert report.violations == expected > 0
        assert report.max_ratio > 1  # violations exist iff max_ratio > C

    def test_fractional_constant(self):
        report = verify_range(CensusConfig(n_max=500, constant=Fraction(7, 2)))
        v, e, _, _ = brute_report(500, Fraction(7, 2))
        assert (report.violations, report.equalities) == (v, e)

    # Each config compares an int16 tau against S. cd * tau passes 2^15
    # for the denominator 1000, and c's denominator 101 or 25 stands in for
    # 10^8 and 10^10. Just above and just below 8, the ratio-8 cases flip
    # between equality and violation; at 1/den every n is a violation, so a
    # wrapped cd * tau would drop some (below 1 / (sum of the weights) at
    # 10^8 and 10^10, where c = 1/1519). The k = 2 constants put
    # cd * 2 isqrt(n_max) + 1 at 2^31 - 47 and 2^31 + 153, the edge between
    # int32 and int64 tables, so cd * tau nearly fills int32 and a wrapped
    # product would miscount. The float, landreau and squarefree paths read
    # tau too.
    @pytest.mark.parametrize(
        "kwargs, dtype",
        [(dict(constant=c), np.int32)
         for den in (1000, 10**8, 10**10)
         for c in (Fraction(8 * den + 1, den), Fraction(8 * den - 1, den))]
        + [(dict(constant=Fraction(1, den)), np.int32)
           for den in (1000, 10**8, 10**10)]
        + [(dict(k=2, constant=Fraction(1, 10737418)), np.int32),
           (dict(k=2, constant=Fraction(1, 10737419)), np.int64),
           (dict(eta=6.5), np.float64),
           (dict(weight="landreau"), np.int32),
           (dict(squarefree_only=True), np.int32)],
        ids=[f"c{den}{c}" for den in ("1e3", "1e8", "1e10") for c in ("+", "-")]
        + ["c1e3-small", "c1e8-small", "c1e10-small", "int32-edge", "int64-edge",
           "eta6.5", "landreau", "squarefree"],
    )
    def test_narrow_tau_is_widened_before_the_compare(self, kwargs, dtype):
        cfg = CensusConfig(n_max=10080, **kwargs)
        assert _weight_table(cfg)[0].dtype == dtype
        report = verify_range(cfg)
        if cfg.exact:
            rows = [_oracle_row(n, cfg) for n in range(1, cfg.n_max + 1)]
            rec = _oracle_segment(1, cfg.n_max, cfg, rows)
            v, e = rec["violations"], rec["equalities"]
            ratio, argmax = Fraction(rec["max_num"], rec["max_den"]), rec["argmax_n"]
        else:
            v, e, ratio, argmax = brute_report(
                cfg.n_max, cfg.constant, eta=cfg.eta, weight=cfg.weight,
                squarefree_only=cfg.squarefree_only,
            )
        assert (report.violations, report.equalities) == (v, e)
        assert report.max_ratio == ratio
        assert report.argmax_n == argmax

    def test_determinism_across_workers_and_segments(self):
        base = verify_range(CensusConfig(n_max=40000, segment_size=1 << 14))
        for workers, seg in [(4, 1 << 14), (1, 997), (3, 40000)]:
            other = verify_range(
                CensusConfig(n_max=40000, segment_size=seg, workers=workers)
            )
            assert other.violations == base.violations
            assert other.equalities == base.equalities
            assert other.max_ratio == base.max_ratio
            assert other.argmax_n == base.argmax_n

    @given(
        n_seg=st.integers(1, 5000).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(1, n))
        ),
        workers=st.sampled_from([1, 2]),
        eta=st.sampled_from([7, 40]),
        squarefree_only=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_report_determinism_property(self, n_seg, workers, eta, squarefree_only):
        # any segment size in [1, n_max] and any worker count give the
        # one-segment payload, apart from the echoed segmentation
        n_max, seg = n_seg
        kw = dict(n_max=n_max, eta=eta, squarefree_only=squarefree_only)
        one = verify_range(CensusConfig(**kw, segment_size=n_max)).payload()
        got = verify_range(
            CensusConfig(**kw, segment_size=seg, workers=workers)
        ).payload()
        for payload in (one, got):
            del payload["config"]["segment_size"], payload["segments_processed"]
        assert got == one

    def test_byte_identical_payload_across_workers(self):
        cfg1 = CensusConfig(n_max=30000, segment_size=4096, workers=1)
        cfg8 = CensusConfig(n_max=30000, segment_size=4096, workers=8)
        a = verify_range(cfg1).to_json()
        b = verify_range(cfg8).to_json()
        assert a == b

    def test_squarefree_only(self):
        cfg = CensusConfig(n_max=2000, squarefree_only=True)
        report = verify_range(cfg)
        best = (0, 1, None)
        for n in range(1, 2001):
            if any(a > 1 for _, a in factorize(n).factors):
                continue
            t, s = oracle_tau(n), oracle_weight_sum(n)
            if best[2] is None or t * best[1] > best[0] * s:
                best = (t, s, n)
        assert report.max_ratio == Fraction(best[0], best[1])
        assert report.argmax_n == best[2]

    def test_squarefree_only_single_entry_segments(self):
        # segments holding only non-squarefree n must not leak their ratio
        # into the merged maximum
        whole = verify_range(CensusConfig(n_max=50, squarefree_only=True))
        tiny = verify_range(
            CensusConfig(n_max=50, squarefree_only=True, segment_size=1)
        )
        assert tiny.max_ratio == whole.max_ratio
        assert tiny.argmax_n == whole.argmax_n
        assert all(
            a == 1 for _, a in factorize(tiny.argmax_n).factors
        )

    def test_float_eta_path(self):
        report = verify_range(CensusConfig(n_max=2000, eta=6.5))
        assert not report.config.exact
        assert report.violations == 0
        payload = report.payload()
        assert payload["arithmetic"] == "float64"
        assert "float_rel_tol" in payload

    def test_float_sums_that_overflow_are_refused(self):
        # 2^1023.5 is finite but 8 * (1 + 2^1023.5) is not: n = 16 would
        # compare tau with C * S = inf, which an infinite tolerance admits
        # as an equality
        with pytest.raises(OverflowError, match="overflow"):
            verify_range(CensusConfig(n_max=80, eta=1023.5))
        report = verify_range(CensusConfig(n_max=80, eta=1023.5, constant=Fraction(1, 8)))
        v, e, ratio, argmax = brute_report(80, Fraction(1, 8), eta=1023.5)
        assert (report.violations, report.equalities) == (v, e) == (47, 0)
        assert (report.max_ratio, report.argmax_n) == (ratio, argmax)

    # In each config C's products with the unclamped sums need more than
    # int64, which once took a Python-int scan; the clamped table and the
    # stand-in c make it int32. segment_size = 5000 splits 9000 n in two.
    @pytest.mark.parametrize(
        "kwargs, collect",
        [
            (dict(n_max=300, eta=40), False),
            (dict(n_max=9000, eta=40, segment_size=5000), True),
            (dict(n_max=9000, eta=40, squarefree_only=True), True),
            (dict(n_max=9000, constant=Fraction(10**30)), False),
            (dict(n_max=9000, constant=Fraction(1, 10**30), segment_size=5000), True),
            (dict(n_max=9000, k=9, weight="landreau", constant=Fraction(10**30)),
             False),
        ],
        ids=["eta40-300", "eta40-segments", "eta40-squarefree", "c1e30",
             "c1e-30", "landreau-k9"],
    )
    def test_wide_weight_fallback_matches_numpy_path(self, kwargs, collect):
        cfg = CensusConfig(**kwargs)
        C, total = cfg.constant, sum(_unclamped_table(cfg, object).tolist())
        assert max(C.numerator * total, C.denominator * 2 * isqrt(cfg.n_max)) >= 1 << 62
        assert _weight_table(cfg)[0].dtype == np.int32
        wide = verify_range(cfg, collect_equalities=collect)
        cn, cd = cfg.constant.numerator, cfg.constant.denominator
        violations, equality_ns, best = 0, [], (0, 1, None)
        for n in range(1, cfg.n_max + 1):
            if cfg.squarefree_only and any(a > 1 for _, a in oracle_factor(n)):
                continue
            t = oracle_tau(n)
            if cfg.weight == "landreau":
                s = divisor_weight_sum(n, cfg)
            else:
                s = oracle_weight_sum(n, k=cfg.k, eta=cfg.eta)
            if cd * t > cn * s:
                violations += 1
            elif cd * t == cn * s:
                equality_ns.append(n)
            if best[2] is None or t * best[1] > best[0] * s:
                best = (t, s, n)
        assert wide.violations == violations
        assert wide.equalities == len(equality_ns)
        assert wide.equality_ns == (equality_ns if collect else None)
        assert wide.max_ratio == Fraction(best[0], best[1])
        assert wide.argmax_n == best[2]

    def test_constant_too_small_for_int64_is_refused(self):
        # C * S(1) = 10^-20, so n = 1 is a violation, but C * S(n) >= 1 for
        # some n: an exact answer needs 75-bit sums
        cfg = CensusConfig(n_max=9000, eta=40, constant=Fraction(1, 10**20))
        with pytest.raises(ValueError, match="too small"):
            verify_range(cfg)

    @given(cfg=_exact_configs())
    @settings(max_examples=80, deadline=None)
    def test_report_and_records_match_oracle_property(self, cfg):
        # clamped weights and the stand-in constant against unclamped oracle
        # sums and the user's C: the report with its equality list, and
        # every checkpoint record, tiny prime-free segments included
        rows = [_oracle_row(n, cfg) for n in range(1, cfg.n_max + 1)]
        want = _oracle_segment(1, cfg.n_max, cfg, rows)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "scan.ckpt")
            report = verify_range(cfg, checkpoint=path, collect_equalities=True)
            with open(path) as fh:
                records = [json.loads(line) for line in fh.read().splitlines()[1:]]
        assert report.violations == want["violations"]
        assert report.equality_ns == want["equality_ns"]
        assert report.max_ratio == Fraction(want["max_num"], want["max_den"])
        assert report.argmax_n == want["argmax_n"]
        assert len(records) == -(-cfg.n_max // cfg.segment_size)
        for rec in records:
            del rec["digest"]
            assert rec == _oracle_segment(rec["lo"], rec["hi"], cfg, rows)

    def test_memory_per_segment_is_bounded(self):
        # the scan folds each result as it finishes and keeps no span, result,
        # future or queued work item per segment: the 1,800 segments that
        # [1, 6000] adds to [1, 600] in segments of 3 n raise the tracemalloc
        # peak by under 256 B each (about 0.5 KB with a result kept per
        # segment, about 2 KB with a future per segment up front)
        def peak(n_max: int) -> int:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            verify_range(CensusConfig(n_max=n_max, segment_size=3, workers=2))
            return tracemalloc.get_traced_memory()[1] - base

        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            peak(600)  # first-call allocations stay out of the difference
            small, large = peak(600), peak(6000)
        finally:
            if not tracing:
                tracemalloc.stop()
        assert (large - small) / 1800 < 256, (small, large)

    def test_workers_share_one_segment_iterator(self, tmp_path):
        # four workers, more than the cores, switching often over 1,000
        # segments: every segment is scanned and recorded once, and progress
        # counts 1, 2, ..., 1000 in order, which a lost or doubled update of
        # the shared results would break
        cfg = CensusConfig(n_max=3000, segment_size=3, workers=4)
        calls = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            report = verify_range(cfg, checkpoint=str(tmp_path / "scan.ckpt"),
                                  progress=lambda done, total: calls.append((done, total)))
        finally:
            sys.setswitchinterval(interval)
        assert calls == [(i, 1000) for i in range(1, 1001)]
        records = [json.loads(r) for r in (tmp_path / "scan.ckpt").read_text().splitlines()[1:]]
        assert sorted((r["lo"], r["hi"]) for r in records) == [
            (lo, lo + 2) for lo in range(1, 3001, 3)]
        assert report.to_json() == verify_range(replace(cfg, workers=1)).to_json()

    def test_equalities_stay_ascending_when_segments_finish_out_of_order(self, monkeypatch):
        # the first segment, held for a second, finishes after the other
        # worker has folded the equalities of all the rest
        cfg = CensusConfig(n_max=6000, segment_size=1000, workers=2)
        want = verify_range(replace(cfg, workers=1), collect_equalities=True).equality_ns
        _slowed_segments(monkeypatch, slow_lo=1)
        got = verify_range(cfg, collect_equalities=True).equality_ns
        assert want[0] < 1000 < want[-1]
        assert got == want == sorted(want)


_WS_N_MAX = (1 << 28) + (1 << 21)
_WS_PRIMES = _scan_primes(isqrt(_WS_N_MAX))
_WORKSPACE_CONFIGS = [CensusConfig(n_max=_WS_N_MAX),
                      CensusConfig(n_max=_WS_N_MAX, squarefree_only=True),
                      CensusConfig(n_max=_WS_N_MAX, eta=7.5)]


@st.composite
def _workspace_windows(draw) -> list[tuple[int, int]]:
    """Up to six windows of 1 to 4096 n, anywhere in [1, 2^28 + 2^21] or
    ending within 4096 of 2^28 on either side, and one of _WINDOW n."""
    windows = []
    for _ in range(draw(st.integers(1, 6))):
        length = draw(st.integers(1, 4096))
        if draw(st.booleans()):
            hi = (1 << 28) + draw(st.integers(-4096, 4096))
        else:
            hi = draw(st.integers(length, _WS_N_MAX))
        windows.append((max(1, hi - length + 1), hi))
    hi = draw(st.integers(census._WINDOW, _WS_N_MAX))
    windows.insert(draw(st.integers(0, len(windows))), (hi - census._WINDOW + 1, hi))
    return windows


class TestWindows:
    @given(case=_window_cases(), collect=st.booleans())
    @example(case=(CensusConfig(n_max=4, squarefree_only=True), 4, 4), collect=True)
    @example(case=(CensusConfig(n_max=10**6, eta=7.5, constant=Fraction(1)),
                   10**6 - 5000, 10**6), collect=True)
    @settings(max_examples=150, deadline=None)
    def test_candidate_compare_matches_full_window(self, case, collect):
        # one candidate set against the whole-window masks: counts, the
        # equality list and the maximum agree on both paths
        cfg, lo, hi = case
        try:
            w, c = _weight_table(cfg)
        except ValueError:  # refused: a C far below 1 with huge weights
            reject()
        scan_cfg = cfg if c is None else replace(cfg, constant=c)
        primes = _scan_primes(max(isqrt(cfg.n_max), 2))
        got = census._compare_window(lo, hi, scan_cfg, w, primes, collect)
        want = _compare_reference(lo, hi, scan_cfg, w, primes, collect)
        assert asdict(got) == asdict(want)

    @given(windows=_workspace_windows(), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_reused_workspace_matches_fresh_arrays(self, windows, data):
        # one workspace through a sequence of windows, some of them on
        # either side of 2^28, where tau and acc widen: every kernel gives
        # what it gives on fresh arrays, so no value of an earlier window
        # leaks into a later one
        cfg = data.draw(st.sampled_from(_WORKSPACE_CONFIGS))
        w, c = _weight_table(cfg)
        scan_cfg = cfg if c is None else replace(cfg, constant=c)
        ws = census._Workspace(census._WINDOW, np.dtype(census._ratio_dtype(cfg)).itemsize)
        for lo, hi in windows:
            collect = data.draw(st.booleans())
            t, sq = (a.copy() for a in _tau_segment(lo, hi, _WS_PRIMES, ws))
            want_t, want_sq = _tau_segment(lo, hi, _WS_PRIMES)
            assert t.dtype == want_t.dtype
            assert np.array_equal(t, want_t) and np.array_equal(sq, want_sq), (lo, hi)
            S = _harvest_segment(lo, hi, scan_cfg, w, ws)
            assert S.tobytes() == _harvest_segment(lo, hi, scan_cfg, w).tobytes()
            got = census._compare_window(lo, hi, scan_cfg, w, _WS_PRIMES, collect, ws)
            want = census._compare_window(lo, hi, scan_cfg, w, _WS_PRIMES, collect)
            assert asdict(got) == asdict(want), (lo, hi)

    def test_warm_top_window_allocates_no_window_array(self):
        # with its workspace warm, the top window of [1, 10^8] allocates only
        # per-candidate arrays and small lists: a fresh window allocates
        # about 12 MB
        cfg = CensusConfig(n_max=10**8)
        w, c = _weight_table(cfg)
        scan_cfg = replace(cfg, constant=c)
        primes = _scan_primes(10**4)
        ws = census._Workspace(census._WINDOW, 4)  # 4 bytes per n: float32 ratios
        lo, hi = 10**8 - 2**20 + 1, 10**8

        def run():
            return census._compare_window(lo, hi, scan_cfg, w, primes, False, ws)

        want = run()
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            got = run()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert asdict(got) == asdict(want)
        assert peak < 1.5e6, peak

    def test_long_and_short_windows_per_worker(self, tmp_path):
        # segments of _WINDOW + 12345 n, so each worker's workspace takes a
        # full window and then a short one in turn: the report and the
        # checkpoint records are the same for one worker, two, and four
        # switching threads often, more than the cores
        size = census._WINDOW + 12345
        cfg = CensusConfig(n_max=4 * size - 1000, segment_size=size)
        out = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for workers in (1, 2, 4):
                path = tmp_path / f"scan{workers}.ckpt"
                report = verify_range(replace(cfg, workers=workers), checkpoint=str(path),
                                      collect_equalities=True)
                header, *records = path.read_bytes().splitlines(keepends=True)
                out.append((report.to_json(), report.equality_ns, header, sorted(records)))
        finally:
            sys.setswitchinterval(interval)
        assert out[0] == out[1] == out[2]
        assert len(out[0][3]) == 4 and out[0][1]

    @pytest.mark.parametrize("kwargs", [dict(), dict(k=2), dict(eta=7.5),
                                        dict(squarefree_only=True)])
    def test_short_last_blocks_match_one_window_segments(self, monkeypatch, tmp_path,
                                                         kwargs):
        # windows of 1000 n in blocks of 4000: a segment of 9500 n takes two
        # full blocks and a short last one, a window and a half. Reports and
        # checkpoint records equal those of one window per segment
        cfg = CensusConfig(n_max=47000, segment_size=9500, workers=2, **kwargs)
        out = []
        for window in (census._WINDOW, 1000):
            monkeypatch.setattr(census, "_WINDOW", window)
            monkeypatch.setattr(census, "_BLOCK", 4 * window)
            path = tmp_path / f"scan{window}.ckpt"
            report = verify_range(cfg, checkpoint=str(path), collect_equalities=True)
            header, *records = path.read_bytes().splitlines(keepends=True)
            out.append((report.to_json(), report.equality_ns, header, sorted(records)))
        assert out[0] == out[1]

    @pytest.mark.parametrize("squarefree_only", [False, True])
    def test_windows_of_one_segment_match_small_segments(self, squarefree_only):
        # one 2^22 segment over ~3.3 windows against 2^16 segments of one
        # window each: the window merge must give the same report
        n_max = 33 * census._WINDOW // 10
        assert census._WINDOW < n_max < 1 << 22
        kw = dict(n_max=n_max, squarefree_only=squarefree_only)
        one = verify_range(CensusConfig(**kw, segment_size=1 << 22),
                           collect_equalities=True)
        many = verify_range(CensusConfig(**kw, segment_size=1 << 16),
                            collect_equalities=True)
        assert (one.segments_processed, many.segments_processed) == (1, 53)
        for field in ("violations", "equalities", "max_ratio", "argmax_n",
                      "equality_ns"):
            assert getattr(one, field) == getattr(many, field), field
        assert one.equalities == len(one.equality_ns) > 0

    @given(
        pairs=st.lists(
            st.tuples(
                st.sampled_from([(8, 1), (7, 1), (1, 1), (3, 2), (15, 2)]),
                st.integers(1, 4),
            ),
            min_size=1,
            max_size=60,
        ),
        lo=st.integers(1, 10**12),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_unique_pair_argmax_matches_candidate_loop(self, pairs, lo, data):
        # scaled pairs such as 8/1 and 16/2 tie in ratio but not as pairs;
        # the smallest n among all tied candidates must win either way
        tau_ = [a * m for (a, _), m in pairs]
        S = [b * m for (_, b), m in pairs]
        cand = sorted(data.draw(st.sets(st.integers(0, len(pairs) - 1), min_size=1)))
        best = (0, 1, -1)
        for i in cand:
            if census._ratio_greater(tau_[i], S[i], lo + i, *best):
                best = (tau_[i], S[i], lo + i)
        idx = np.array(cand, dtype=np.int64)
        # tau stays int16 beside int32 sums when C's denominator is 1
        for tau_dtype, S_dtype in ((np.int16, np.int32), (np.int32, np.int32),
                                   (np.int64, np.int64)):
            got = census._exact_argmax(
                np.array(tau_, dtype=tau_dtype), np.array(S, dtype=S_dtype), idx, lo
            )
            assert got == best

    def test_argmax_takes_the_smallest_sum_of_a_tau(self):
        # (3, 3) before (3, 2): the later pair of the same tau has the larger
        # ratio. (16, 2) and (8, 1) tie in ratio, and the smaller n wins
        tau_ = np.array([3, 3, 16, 8, 3], dtype=np.int16)
        S = np.array([3, 2, 2, 1, 2], dtype=np.int32)
        assert census._exact_argmax(tau_, S, np.array([0, 1, 4]), 10) == (3, 2, 11)
        assert census._exact_argmax(tau_, S, np.arange(5), 10) == (16, 2, 12)


class TestWitnessTermInsideSum:
    def test_witness_term_is_a_summand(self):
        # the certified divisor has d^4 <= n, so tau(d)^7 is one of the
        # terms of S(n); the single-term bound already implies the summed one
        from divbound.witness import construct_witness

        rng = __import__("random").Random(31)
        cfg = CensusConfig(n_max=10**6)
        for _ in range(400):
            n = rng.randrange(1, 10**6)
            cert = construct_witness(n)
            s = divisor_weight_sum(n, cfg)
            assert cert.tau_n <= 8 * cert.tau_d**7
            assert cert.tau_d**7 <= s
            assert cert.tau_n <= 8 * s


class TestEqualityCensus:
    def test_shapes_at_10_4(self):
        cases = equality_census(CensusConfig(n_max=10**4))
        assert cases, "equality cases exist below 10^4"
        for case in cases:
            assert case.matches_three_prime_form, case
        ns = [c.n for c in cases]
        assert 2431 in ns
        assert 385 in ns
        assert 105 not in ns  # 3^4 <= 105 pulls tau(3)^7 into the sum

    def test_classify_shape(self):
        case = classify_equality_shape(2431)
        assert case.matches_three_prime_form
        assert case.shape == "p1*p2*p3"
        case = classify_equality_shape(12)
        assert not case.matches_three_prime_form


class TestTripleCount:
    """The equality count derived a second way: equality holds at n = pqr
    with p^3 > qr, and can hold elsewhere only where tau(n) >= 1032."""

    def test_triple_count_matches_factoring(self):
        count = 0
        for n in range(1, 5001):
            f = oracle_factor(n)
            if [a for _, a in f] == [1, 1, 1]:
                p, q, r = (prime for prime, _ in f)
                count += p**3 > q * r
            assert triple_count(n) == count, n

    @pytest.mark.parametrize(
        "n_max, pinned",
        [(10**4, 61), (10**5, 791), (10**6, 7875), (3 * 10**6, 24349)],
    )
    def test_equalities_equal_triple_count(self, n_max, pinned):
        report = verify_range(CensusConfig(n_max=n_max))
        assert report.equalities == triple_count(n_max) == pinned
        # the argument's premise: tau(n) >= 8 * (1 + 2^7) needs tau(n) >= 1032
        t, _ = _tau_segment(1, n_max, _scan_primes(isqrt(n_max)))
        assert int(t.max()) < 1032

    @pytest.mark.parametrize("n_max, floor", [(3000, 1), (20000, 24), (20000, 60)])
    def test_high_tau_lister_matches_divisor_counts(self, n_max, floor):
        # the walk's pruning loses no n: against a divisor-count sieve, with
        # each n's factorization
        counts = [0] * (n_max + 1)
        for d in range(1, n_max + 1):
            for m in range(d, n_max + 1, d):
                counts[m] += 1
        got = sorted(high_tau_numbers(n_max, floor))
        assert [n for n, _ in got] == [n for n in range(1, n_max + 1) if counts[n] >= floor]
        for n, f in got[:: max(1, len(got) // 200)]:
            assert f == oracle_factor(n)
            assert weight_sum_from_exponents(f) == oracle_weight_sum(n)

    def test_census_of_10_9_by_structure(self):
        # the counts of the pinned [1, 10^9] census without its sieve: the
        # 182 n with tau(n) >= 1032, none a violation or an equality, and
        # the three-prime equalities
        found = sorted(high_tau_numbers(10**9))
        assert len(found) == 182
        taus = [prod(e + 1 for _, e in f) for _, f in found]
        sums = [weight_sum_from_exponents(f) for _, f in found]
        assert min(taus) >= 1032
        assert sum(t > 8 * s for t, s in zip(taus, sums)) == 0
        assert sum(t == 8 * s for t, s in zip(taus, sums)) == 0
        assert triple_count(10**9) == 6_792_728

    @pytest.mark.skipif(os.environ.get("DIVBOUND_SLOW_TESTS") != "1",
                        reason="opt-in, about 20 s on two cores: DIVBOUND_SLOW_TESTS=1")
    def test_census_of_10_9_is_pinned(self):
        # the payload of [1, 10^9] byte for byte; its equalities are the
        # triples alone, as no n <= 10^9 with tau(n) >= 1032 is one
        proc = subprocess.run(
            [sys.executable, "-m", "divbound.cli", "verify", "--max", str(10**9),
             "--threads", "2"],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(proc.stdout).hexdigest() == (
            "3daa0e1fcc88c4e9e752e216c6a3c3a60f20cbf3feda78aae042fbfc3eccee1f")
        payload = json.loads(proc.stdout)
        assert payload["violations"] == 0
        assert payload["equalities"] == triple_count(10**9) == 6_792_728
        assert payload["max_ratio"] == {"num": 8, "den": 1, "float": 8.0}
        assert payload["argmax_n"] == 385
        assert payload["segments_processed"] == 239


class TestCheckpointing:
    def test_resume_matches_uninterrupted(self, tmp_path):
        cfg = CensusConfig(n_max=20000, segment_size=1024)
        path = tmp_path / "scan.ckpt"
        full = verify_range(cfg, checkpoint=str(path))
        fresh = verify_range(cfg)
        assert full.to_json() == fresh.to_json()

        # keep header + 3 records: simulates an interrupted run
        lines = path.read_text().splitlines(keepends=True)
        (tmp_path / "partial.ckpt").write_text("".join(lines[:4]))
        resumed = verify_range(cfg, checkpoint=str(tmp_path / "partial.ckpt"))
        assert resumed.to_json() == fresh.to_json()

    def test_resume_skips_completed_segments(self, tmp_path):
        cfg = CensusConfig(n_max=5000, segment_size=500)
        path = tmp_path / "scan.ckpt"
        verify_range(cfg, checkpoint=str(path))
        n_lines = len(path.read_text().splitlines())
        again = verify_range(cfg, checkpoint=str(path))
        assert len(path.read_text().splitlines()) == n_lines
        assert again.violations == 0

    def test_partial_trailing_line_is_dropped(self, tmp_path):
        cfg = CensusConfig(n_max=5000, segment_size=500)
        path = tmp_path / "scan.ckpt"
        verify_range(cfg, checkpoint=str(path))
        text = path.read_text()
        truncated = text[: text.rindex("{") + 12]  # cut inside the last record
        assert not truncated.endswith("\n")
        path.write_text(truncated)
        resumed = verify_range(cfg, checkpoint=str(path))
        assert resumed.to_json() == verify_range(cfg).to_json()

    def test_corrupt_record_raises(self, tmp_path):
        cfg = CensusConfig(n_max=5000, segment_size=500)
        path = tmp_path / "scan.ckpt"
        verify_range(cfg, checkpoint=str(path))
        lines = path.read_text().splitlines(keepends=True)
        lines[2] = '{"lo": broken\n'
        path.write_text("".join(lines))
        with pytest.raises(CheckpointError):
            verify_range(cfg, checkpoint=str(path))

    def test_config_mismatch_raises(self, tmp_path):
        path = tmp_path / "scan.ckpt"
        verify_range(CensusConfig(n_max=5000, segment_size=500),
                     checkpoint=str(path))
        with pytest.raises(CheckpointError):
            verify_range(CensusConfig(n_max=6000, segment_size=500),
                         checkpoint=str(path))

    def test_garbage_header_raises(self, tmp_path):
        path = tmp_path / "scan.ckpt"
        for garbage in ("definitely not json\n", "[1]\n"):
            path.write_text(garbage)
            with pytest.raises(CheckpointError):
                verify_range(CensusConfig(n_max=100), checkpoint=str(path))

    def test_record_bytes_are_stable(self, tmp_path):
        # existing checkpoints must keep resuming: records are sorted-key JSON
        # and carry equality_ns only when the run collects equalities, and
        # "digest", the sha256 of exactly the record's bytes without it.
        cfg = CensusConfig(n_max=2000, segment_size=400)
        plain, listed = tmp_path / "plain.ckpt", tmp_path / "listed.ckpt"
        verify_range(cfg, checkpoint=str(plain))
        verify_range(cfg, checkpoint=str(listed), collect_equalities=True)
        for path, v1_record in (
            (plain, b'{"argmax_n": 455, "equalities": 2, "hi": 800, "lo": 401, '
                    b'"max_den": 1, "max_num": 8, "violations": 0}'),
            (listed, b'{"argmax_n": 455, "equalities": 2, "equality_ns": [455, 595], '
                     b'"hi": 800, "lo": 401, "max_den": 1, "max_num": 8, '
                     b'"violations": 0}'),
        ):
            digest = hashlib.sha256(v1_record).hexdigest().encode()
            assert path.read_bytes().split(b"\n")[2] == (
                b'{"argmax_n": 455, "digest": "' + digest + b'", '
                + v1_record[len(b'{"argmax_n": 455, '):]
            )

    def test_changed_digit_raises(self, tmp_path):
        """Every digit of a checkpoint, header included, is replaced by
        another digit; each such file must raise CheckpointError instead of
        resuming into a different report. Version-1 files, which had no
        digests, are refused for this: raising "equalities": 2 to 3 in one
        resumed to 10 equalities instead of 9."""
        cfg = CensusConfig(n_max=2000, segment_size=400)
        path = tmp_path / "scan.ckpt"
        verify_range(cfg, checkpoint=str(path))
        data = path.read_bytes()
        digits = [i for i, b in enumerate(data) if chr(b).isdigit()]
        assert len(digits) > 300
        for i in digits:
            changed = str((int(chr(data[i])) + 1) % 10).encode()
            path.write_bytes(data[:i] + changed + data[i + 1 :])
            with pytest.raises(CheckpointError):
                verify_range(cfg, checkpoint=str(path))

    def test_version_1_file_is_refused_and_left_unchanged(self, tmp_path):
        cfg = CensusConfig(n_max=2000, segment_size=400)
        path = tmp_path / "scan.ckpt"
        verify_range(cfg, checkpoint=str(path))
        header, *records = path.read_text().splitlines()
        header = json.loads(header)
        header["version"] = 1
        v1 = [json.dumps(header, sort_keys=True)]
        for line in records[:3]:
            rec = json.loads(line)
            del rec["digest"]
            v1.append(json.dumps(rec, sort_keys=True))
        path.write_text("\n".join(v1) + "\n")
        data = path.read_bytes()
        with pytest.raises(CheckpointError, match="version 1.*delete it and rescan"):
            verify_range(cfg, checkpoint=str(path))
        assert path.read_bytes() == data

    def test_blank_line_then_truncated_record_resumes_twice(self, tmp_path):
        cfg = CensusConfig(n_max=2000, segment_size=400)
        path = tmp_path / "scan.ckpt"
        verify_range(cfg, checkpoint=str(path))
        header, rest = path.read_bytes().split(b"\n", 1)
        path.write_bytes(header + b"\n\n" + rest[:-20])
        expected = verify_range(cfg).to_json()
        assert verify_range(cfg, checkpoint=str(path)).to_json() == expected
        assert verify_range(cfg, checkpoint=str(path)).to_json() == expected

    def test_every_truncation_and_byte_flip_resumes_or_raises(self, tmp_path):
        """Cut the checkpoint at every byte offset, and separately invert
        every byte (all bits, so an ASCII byte never stays valid UTF-8).
        The first resume either raises CheckpointError or reproduces the
        uninterrupted report; in the latter case so must a second one,
        which reads the file the first resume repaired and extended."""
        cfg = CensusConfig(n_max=2000, segment_size=400)
        path = tmp_path / "scan.ckpt"
        verify_range(cfg, checkpoint=str(path))
        data = path.read_bytes()
        expected = verify_range(cfg).to_json()
        damaged = [data[:i] for i in range(len(data))] + [
            data[:i] + bytes([data[i] ^ 0xFF]) + data[i + 1 :]
            for i in range(len(data))
        ]
        for i, blob in enumerate(damaged):
            path.write_bytes(blob)
            try:
                first = verify_range(cfg, checkpoint=str(path)).to_json()
            except CheckpointError:
                continue
            assert first == expected, i
            assert verify_range(cfg, checkpoint=str(path)).to_json() == expected, i


def _slowed_segments(
    monkeypatch, fail_lo: int | None = None, slow_lo: int | None = None
) -> list[int]:
    """Make every segment sleep briefly, so queued segments are still queued
    when the driver reacts; optionally fail the segment starting at fail_lo,
    or hold the one starting at slow_lo for a second. Returns the list of
    segment starts that actually ran."""
    real = census._scan_segment
    started: list[int] = []

    def scan(lo, *args):
        started.append(lo)
        if lo == fail_lo:
            raise RuntimeError("segment fault")
        time.sleep(1.0 if lo == slow_lo else 0.02)
        return real(lo, *args)

    monkeypatch.setattr(census, "_scan_segment", scan)
    return started


class TestInterruption:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_stop_checkpoints_a_prefix_and_resumes(
        self, tmp_path, monkeypatch, workers
    ):
        cfg = CensusConfig(n_max=20000, segment_size=1000, workers=workers)
        path = tmp_path / "scan.ckpt"
        stop = threading.Event()
        _slowed_segments(monkeypatch)
        with pytest.raises(ScanInterrupted):
            verify_range(cfg, checkpoint=str(path),
                         progress=lambda done, total: stop.set(), stop_event=stop)
        records = path.read_text().splitlines()[1:]
        assert 1 <= len(records) < 20
        monkeypatch.undo()
        resumed = verify_range(cfg, checkpoint=str(path))
        assert resumed.to_json() == verify_range(cfg).to_json()

    def test_stop_while_waiting_on_a_slow_segment(self, tmp_path, monkeypatch):
        # the main thread blocks on segment 1 while the other worker is free;
        # after the stop that worker must not start the queued segments
        cfg = CensusConfig(n_max=2000, segment_size=100, workers=2)
        path = tmp_path / "scan.ckpt"
        stop = threading.Event()
        started = _slowed_segments(monkeypatch, slow_lo=1)
        timer = threading.Timer(0.1, stop.set)
        timer.start()
        try:
            with pytest.raises(ScanInterrupted):
                verify_range(cfg, checkpoint=str(path), stop_event=stop)
        finally:
            timer.cancel()
        assert 1 in started
        assert len(started) < 20
        monkeypatch.undo()
        resumed = verify_range(cfg, checkpoint=str(path))
        assert resumed.to_json() == verify_range(cfg).to_json()

    def test_failed_segment_cancels_queued_segments(self, monkeypatch):
        cfg = CensusConfig(n_max=20000, segment_size=1000, workers=2)
        started = _slowed_segments(monkeypatch, fail_lo=1)
        with pytest.raises(RuntimeError, match="segment fault"):
            verify_range(cfg)
        assert len(started) < 20

    def test_fault_in_another_worker_halts_the_one_waited_on(self, monkeypatch):
        # the caller waits on the loop that took segment 1 while the other
        # loop faults on segment 1001: the first must stop taking segments
        cfg = CensusConfig(n_max=20000, segment_size=1000, workers=2)
        started = _slowed_segments(monkeypatch, fail_lo=1001)
        with pytest.raises(RuntimeError, match="segment fault"):
            verify_range(cfg)
        assert len(started) < 20


class TestBestConstantCurve:
    def test_monotone_nonincreasing(self):
        curve = best_constant_curve(10**4, eta_grid=[6, 7, 8])
        ratios = [float(r) for _, r, _ in curve]
        assert ratios == sorted(ratios, reverse=True)

    def test_eta_7_reaches_8(self):
        curve = best_constant_curve(10**4, eta_grid=[7])
        assert curve[0][1] == 8
        assert curve[0][2] == 385

    def test_squarefree_fractional_eta_exploration(self):
        curve = best_constant_curve(
            2000, eta_grid=[0.70, 0.76], squarefree_only=True
        )
        assert len(curve) == 2
        lo_eta, hi_eta = curve[0], curve[1]
        assert lo_eta[0] == 0.70 and hi_eta[0] == 0.76
        assert float(lo_eta[1]) >= float(hi_eta[1])

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            best_constant_curve(100, eta_grid=[])
