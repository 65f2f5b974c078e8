from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
from dataclasses import replace
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divbound import census
from divbound.arith import factorize, integer_kth_root, omega, tau
from divbound.census import (
    CensusConfig,
    CheckpointError,
    ScanInterrupted,
    _harvest_segment,
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
    oracle_divisors,
    oracle_factor,
    oracle_tau,
    oracle_weight_sum,
    triple_count,
)


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


_TAU_EDGE_WINDOWS = (
    [(1, 1)]
    # windows that start exactly at p^j
    + [(p**j, p**j + 300) for p, j in [(2, 1), (2, 10), (2, 26), (3, 16),
                                       (7, 9), (9973, 1), (9973, 2)]]
    # windows that end at p^2 - 1 and at p^2
    + [(max(1, p * p - 300), p * p - e) for p in (2, 3, 97, 9973) for e in (1, 0)]
    + [(10**8 - 1999, 10**8)]
    # windows that end where _tau_dtypes widens tau (2^28) or prod (2^31)
    + [(2**b - 300, 2**b - e) for b in (28, 31) for e in (1, 0)]
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


_P = census._PERIOD
_MP = 331 * _P  # 50,047,200, a multiple of the period inside [1, 10^8]
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
    # windows shorter than the cut-off, at it, and starting near 1
    (_MP + 1, _MP + 1),
    (_MP - 50, _MP + 50),
    (_MP - 7, _MP - 8 + _P // 8 - 1),
    (_MP - 7, _MP - 8 + _P // 8),
    (1, 2**20),
    (15, 15 + _P),
    (16, 16 + _P),
]


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

    def test_tau_dtypes_widen_at_their_bounds(self):
        # tau(n) <= 2 sqrt(n) fits int16 below 2^28 and int32 below 2^60;
        # prod <= n fits int32 below 2^31. 2^60 is far past any sieve.
        assert _tau_dtypes(2**28 - 1) == (np.int16, np.int32)
        assert _tau_dtypes(2**28) == (np.int32, np.int32)
        assert _tau_dtypes(2**31 - 1) == (np.int32, np.int32)
        assert _tau_dtypes(2**31) == (np.int32, np.int64)
        assert _tau_dtypes(2**60 - 1) == (np.int32, np.int64)
        assert _tau_dtypes(2**60) == (np.int64, np.int64)

    def test_harvest_equals_direct_enumeration(self):
        cfg = CensusConfig(n_max=10**4)
        s = _harvest_segment(1, 10**4, cfg, _unclamped_table(cfg, np.int32))
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
        # the last long window took the pattern, keyed by its divisors
        assert census._pattern_slot[0][1][-1] == max(
            d for d in census._PERIOD_DIVISORS if d**k <= 16
        )

    def test_float_harvest_is_bit_identical(self):
        # float sums depend on the order of the adds; S must keep the
        # ascending one bit for bit on the top window of [1, 10^8]
        cfg = CensusConfig(n_max=10**8, eta=7.5)
        w, c = _weight_table(cfg)
        assert w.dtype == np.float64 and c is None
        lo, hi = 10**8 - 2**20 + 1, 10**8
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


class TestWindows:
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
    """The equality count derived a second way: while tau(n) < 1032 on the
    range, equality holds exactly at n = pqr with p^3 > qr."""

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
