from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, isqrt, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divbound import gaussian
from divbound.arith import euler_phi, factorize
from divbound.gaussian import (
    CostCeilingError,
    GammaSpec,
    congruence_sum_A,
    congruence_sum_A_via_residues,
    discrepancy_table,
    main_term_M,
    rho,
    sequence_a,
)

# frozen from a 60-digit decimal evaluation of the same sums
M1_AT_100 = 47.4130511209931
M5_AT_100 = 16.193939156287037


def oracle_sequence(x: int, gamma: GammaSpec) -> dict:
    """Independent double loop over all ordered pairs."""
    a: dict[int, object] = {}
    for l in range(1, x + 1):
        for m in range(1, x + 1):
            n = l * l + m * m
            if n > x:
                break
            if gcd(l, m) == 1:
                c = gamma.coefficient(l)
                if c:
                    a[n] = a.get(n, 0) + c
    return a


def oracle_rho(d: int) -> int:
    return sum(1 for v in range(d) if (v * v + 1) % d == 0)


class TestGammaSpec:
    def test_all_ones_r1(self):
        g = GammaSpec(r=1)
        assert g.coefficient(1) == 1
        assert g.coefficient(7) == 1

    def test_all_ones_r2_support(self):
        g = GammaSpec(r=2)
        assert g.coefficient(4) == 1
        assert g.coefficient(3) == 0

    def test_table_mode(self):
        g = GammaSpec(r=2, mode="table", table={4: Fraction(1, 2), 9: -1})
        assert g.coefficient(4) == Fraction(1, 2)
        assert g.coefficient(9) == -1
        assert g.coefficient(16) == 0

    def test_rejects_off_support(self):
        with pytest.raises(ValueError):
            GammaSpec(r=2, mode="table", table={3: 1})

    def test_rejects_large_magnitude(self):
        with pytest.raises(ValueError):
            GammaSpec(r=1, mode="table", table={2: Fraction(3, 2)})

    def test_rejects_bad_r(self):
        with pytest.raises(ValueError):
            GammaSpec(r=0)

    def test_from_file(self, tmp_path):
        path = tmp_path / "gamma.txt"
        path.write_text("# support on squares\n1 1\n4 -1/2\n9 0.25\n")
        g = GammaSpec.from_file(str(path), r=2)
        assert g.coefficient(4) == Fraction(-1, 2)
        assert g.coefficient(9) == Fraction(1, 4)

    def test_from_file_rejects_magnitude(self, tmp_path):
        path = tmp_path / "gamma.txt"
        path.write_text("1 1.5\n")
        with pytest.raises(ValueError):
            GammaSpec.from_file(str(path), r=1)

    def test_from_file_rejects_duplicate_support(self, tmp_path):
        path = tmp_path / "gamma.txt"
        path.write_text("# twice at 4\n4 -1/2\n1 1\n4 1/3\n")
        with pytest.raises(ValueError) as err:
            GammaSpec.from_file(str(path), r=2)
        assert ":4:" in str(err.value) and "line 2" in str(err.value)

    def test_from_file_rejects_garbage(self, tmp_path):
        path = tmp_path / "gamma.txt"
        path.write_text("1 one\n")
        with pytest.raises(ValueError):
            GammaSpec.from_file(str(path), r=1)


class TestSequence:
    def test_total_at_25(self):
        seq = sequence_a(25, GammaSpec(r=1))
        assert sum(seq.values()) == 11

    def test_x2_single_pair(self):
        assert sequence_a(2, GammaSpec(r=1)) == {2: 1}

    def test_square_support_at_25(self):
        seq = sequence_a(25, GammaSpec(r=2))
        assert seq[25] == 1  # (4, 3) contributes; (3, 4) has zero coefficient
        assert seq[17] == 2  # (1, 4) and (4, 1)

    def test_matches_oracle_enumeration(self):
        for x in (10, 50, 200, 500):
            for gamma in (GammaSpec(r=1), GammaSpec(r=2), GammaSpec(r=3)):
                assert sequence_a(x, gamma) == oracle_sequence(x, gamma)

    def test_ordered_pairs_weighted_separately(self):
        g = GammaSpec(r=2, mode="table", table={1: Fraction(1, 2), 4: 1})
        seq = sequence_a(25, g)
        # 17 = 1^2 + 4^2 = 4^2 + 1^2 picks up gamma_1 + gamma_4
        assert seq[17] == Fraction(3, 2)

    def test_magnitude_bound(self):
        rng = random.Random(6)
        table = {l * l: Fraction(rng.randrange(-4, 5), 4) for l in range(1, 10)}
        g = GammaSpec(r=2, mode="table", table=table)
        seq = sequence_a(400, g)
        counts = oracle_sequence(400, GammaSpec(r=2))
        for n, v in seq.items():
            assert abs(v) <= counts.get(n, 0)

    def test_memory_guard(self):
        # refused before the dict is started
        with pytest.raises(ValueError, match="memory ceiling"):
            sequence_a(gaussian.DEFAULT_MAX_X + 1, GammaSpec(r=1))


class TestRho:
    def test_convention_at_1(self):
        assert rho(1) == (1, [0])

    def test_examples(self):
        assert rho(5) == (2, [2, 3])
        assert rho(65)[0] == 4
        assert rho(12) == (0, [])
        assert rho(2) == (1, [1])
        assert rho(4) == (0, [])

    def test_brute_force_to_2000(self):
        for d in range(1, 2001):
            count, roots = rho(d)
            assert count == oracle_rho(d) if d > 1 else True
            assert len(roots) == count
            for v in roots:
                assert 0 <= v < d
                assert (v * v + 1) % d == 0 or d == 1

    def test_prime_power_lifting(self):
        for pa in (5**4, 13**3, 17**2, 29**5):
            count, roots = rho(pa)
            assert count == 2
            assert all((v * v + 1) % pa == 0 for v in roots)

    def test_multiplicative_on_coprime_pairs(self):
        rng = random.Random(8)
        for _ in range(200):
            a = rng.randrange(1, 1000)
            b = rng.randrange(1, 1000)
            if gcd(a, b) != 1:
                continue
            assert rho(a * b)[0] == rho(a)[0] * rho(b)[0]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            rho(0)


class TestCongruenceSums:
    def test_d1_is_total(self):
        g = GammaSpec(r=1)
        seq = sequence_a(10**3, g)
        assert congruence_sum_A(10**3, 1, g) == sum(seq.values())

    def test_frozen_small_values(self):
        g = GammaSpec(r=1)
        assert congruence_sum_A(25, 5, g) == 6
        assert congruence_sum_A_via_residues(25, 2, g) == 3

    def test_d3_vanishes(self):
        g = GammaSpec(r=1)
        for x in (100, 1000, 5000):
            assert congruence_sum_A(x, 3, g) == 0

    def test_residue_path_matches_direct(self):
        for x in (100, 1000):
            for gamma in (GammaSpec(r=1), GammaSpec(r=2)):
                seq = sequence_a(x, gamma)
                for d in range(1, 31):
                    direct = congruence_sum_A(x, d, gamma, seq=seq)
                    via = congruence_sum_A_via_residues(x, d, gamma)
                    assert direct == via, (x, d, gamma.r)

    def test_zero_rho_forces_zero_sum(self):
        g = GammaSpec(r=1)
        for d in (3, 4, 7, 9, 11, 12, 19, 21, 49):
            assert rho(d)[0] == 0
            assert congruence_sum_A(2000, d, g) == 0
            assert congruence_sum_A_via_residues(2000, d, g) == 0


class TestMainTerm:
    def test_zero_rho(self):
        assert main_term_M(10**4, 3, GammaSpec(r=1)) == 0.0

    def test_frozen_d1_x100(self):
        got = main_term_M(100, 1, GammaSpec(r=1))
        assert got == pytest.approx(M1_AT_100, rel=1e-12)

    def test_frozen_d5_x100(self):
        got = main_term_M(100, 5, GammaSpec(r=1))
        assert got == pytest.approx(M5_AT_100, rel=1e-12)

    def test_totient_table_matches_factorize(self):
        phis, primes_of = gaussian._phi_and_primes(5000)
        assert phis[0] == 0 and primes_of[0] == []
        for l in range(1, 5001):
            assert phis[l] == euler_phi(factorize(l)), l
            assert primes_of[l] == [p for p, _ in factorize(l).factors], l

    def test_bit_identical_to_factorized_totients(self):
        # the term and its summation order are those of the per-l
        # euler_phi(factorize(l)) loop, so every M_d comes out bit for bit
        rng = random.Random(9)
        table = {l: Fraction(rng.randrange(-7, 8), 7) for l in range(1, 60)}
        for gamma in (GammaSpec(r=1), GammaSpec(r=1, mode="table", table=table)):
            for x in (2, 100, 2500, 3601):
                for d in range(1, 40):
                    count, _ = rho(d)
                    total = 0.0
                    l = 1
                    while l * l < x:
                        cl = gamma.coefficient(l)
                        if gcd(l, d) == 1 and cl:
                            phi = euler_phi(factorize(l))
                            total += float(cl) * (phi / l) * sqrt(x - l * l)
                        l += 1
                    expected = count / d * total if count else 0.0
                    assert main_term_M(x, d, gamma).hex() == expected.hex()

    def test_rho_scaling_relation(self):
        # same coprime-filtered sum, scaled by rho(d)/d
        g = GammaSpec(r=1)
        raw = 0.0
        for l in range(1, isqrt(100) + 1):
            if l * l < 100 and gcd(l, 5) == 1:
                from divbound.arith import euler_phi, factorize

                raw += euler_phi(factorize(l)) / l * (100 - l * l) ** 0.5
        assert main_term_M(100, 5, g) == pytest.approx(2 / 5 * raw, rel=1e-12)


class TestDiscrepancyTable:
    def test_minimal_table(self):
        t = discrepancy_table(2, 1, GammaSpec(r=1))
        row = t.rows[0]
        assert row.A == 1 and row.rho == 1
        assert row.M == pytest.approx(1.0)

    def test_row_invariants(self):
        g = GammaSpec(r=1)
        t = discrepancy_table(10**4, 100, g)
        assert len(t.rows) == 100
        seq = sequence_a(10**4, g)
        assert t.rows[0].A == sum(seq.values())
        for row in t.rows:
            if row.rho == 0:
                assert row.A == 0 and row.M == 0.0
            assert row.abs_err == abs(float(row.A) - row.M)
        assert t.total_err == pytest.approx(sum(r.abs_err for r in t.rows))

    def test_csv_format(self):
        t = discrepancy_table(100, 5, GammaSpec(r=1))
        lines = t.to_csv().strip().split("\n")
        assert lines[0] == "d,A_d,rho_d,M_d,abs_err"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert first[0] == "1"
        float(first[3])  # parses as a decimal

    def test_cost_ceiling(self):
        with pytest.raises(CostCeilingError) as err:
            discrepancy_table(10**6, 10**5, GammaSpec(r=1))
        assert "10" in str(err.value)  # refusal quotes the estimated cost


def oracle_rows(x: int, d_max: int, gamma: GammaSpec) -> list[tuple]:
    """Table rows from the dict sequence and the per-d congruence walk."""
    seq = sequence_a(x, gamma)
    rows = []
    for d in range(1, d_max + 1):
        a = congruence_sum_A(x, d, gamma, seq=seq)
        if isinstance(a, Fraction) and a.denominator == 1:
            a = int(a)
        m = main_term_M(x, d, gamma)
        rows.append((d, a, rho(d)[0], m, abs(float(a) - m)))
    return rows


@st.composite
def gammas(draw):
    r = draw(st.sampled_from([1, 2, 3]))
    kind = draw(st.sampled_from(["all_ones", "table", "tiny"]))
    if kind == "all_ones":
        return GammaSpec(r=r)
    roots = draw(st.lists(st.integers(1, 60 if r == 1 else 8), max_size=12))
    table = {}
    for k in roots:
        den = draw(st.integers(1, 12))
        table[k**r] = Fraction(draw(st.integers(-den, den)), den)
    if kind == "tiny":
        # L * x beyond int64 forces the Python-int blocks
        table[draw(st.sampled_from(roots or [1])) ** r] = Fraction(1, 10**30)
    return GammaSpec(r=r, mode="table", table=table)


class TestSupport:
    @settings(max_examples=150, deadline=None)
    @given(gamma=gammas(), j=st.integers(1, 12))
    def test_matches_coefficient_filter(self, gamma, j):
        # x = j^(2r) puts the r-th power j^r exactly on the l^2 < x edge
        edge = j ** (2 * gamma.r)
        for x in (1, 2, edge, edge + 1):
            expected = [
                (l, gamma.coefficient(l))
                for l in range(1, isqrt(x) + 1)
                if l * l < x and gamma.coefficient(l)
            ]
            got = gaussian._support(x, gamma)
            assert got == expected, x
            assert [type(c) for _, c in got] == [type(c) for _, c in expected]


class TestBlockedTable:
    @settings(max_examples=150, deadline=None)
    @given(
        x=st.integers(1, 3000),
        d_max=st.integers(1, 100),
        gamma=gammas(),
    )
    def test_matches_dict_oracle(self, x, d_max, gamma):
        table = discrepancy_table(x, d_max, gamma)
        expected = oracle_rows(x, d_max, gamma)
        assert len(table.rows) == len(expected)
        for row, (d, a, count, m, err) in zip(table.rows, expected):
            assert row.d == d
            assert row.A == a and type(row.A) is type(a), (d, row.A, a)
            assert row.rho == count
            assert row.M.hex() == m.hex()
            assert row.abs_err.hex() == err.hex()
            if count == 0:
                assert row.A == 0 and type(row.A) is int, d
        total = 0.0
        for *_, err in expected:
            total += err
        assert table.total_err.hex() == total.hex()

    def test_every_small_x(self):
        # every x takes each step of M = isqrt(x - l^2), and so of each
        # T = floor(M/e), for every l below sqrt(400)
        g = GammaSpec(r=1)
        for x in range(1, 401):
            table = discrepancy_table(x, 30, g)
            expected = [e[1] for e in oracle_rows(x, 30, g)]
            assert [row.A for row in table.rows] == expected, x
            assert all(type(row.A) is int for row in table.rows), x

    def test_four_distinct_primes_of_l(self):
        # 210, 330 and 390 are the l < sqrt(x) with four distinct primes,
        # each with 16 Moebius terms e | l
        x = 160_000
        g = GammaSpec(r=1)
        seq = sequence_a(x, g)
        expected = [congruence_sum_A(x, d, g, seq=seq) for d in range(1, 71)]
        table = discrepancy_table(x, 70, g)
        assert [row.A for row in table.rows] == expected

    def test_tiny_coefficient_stays_exact(self):
        # L = 3 * 10^30: int64 weights would overflow, Python ints do not
        g = GammaSpec(r=1, mode="table", table={1: Fraction(1, 10**30), 2: Fraction(-1, 3)})
        table = discrepancy_table(1000, 12, g)
        seq = sequence_a(1000, g)
        for row in table.rows:
            assert row.A == congruence_sum_A(1000, row.d, g, seq=seq)
        assert isinstance(table.rows[0].A, Fraction)
        support = gaussian._support(1000, g)
        primes_of = gaussian._phi_and_primes(31)[1]
        (*_, w), scale = gaussian._progression_entries(1000, support, primes_of)
        assert scale == 3 * 10**30 and w.dtype == object

    def test_int64_weights_at_the_bound(self):
        # L = 3 * 10^15 at x = 1000: 3 * L * x = 9 * 10^18 < 2^63 keeps
        # int64 weights, and L * A_1 reaches 0.45 * L * x
        coeffs = {l: Fraction(1, 3 * 10**15 if l == 7 else 1) for l in range(1, 32)}
        g = GammaSpec(r=1, mode="table", table=coeffs)
        support = gaussian._support(1000, g)
        primes_of = gaussian._phi_and_primes(31)[1]
        (*_, w), scale = gaussian._progression_entries(1000, support, primes_of)
        assert scale == 3 * 10**15 and w.dtype == np.int64
        table = discrepancy_table(1000, 60, g)
        seq = sequence_a(1000, g)
        for row in table.rows:
            assert row.A == congruence_sum_A(1000, row.d, g, seq=seq), row.d

    @pytest.mark.parametrize("x", [100_000, 200_000])
    def test_matches_residue_walk_beyond_the_dict_sizes(self, x):
        # d > sqrt(x) leaves at most one t per class and entry; 1105 =
        # 5 * 13 * 17 has 8 roots
        ds = [1, 2, 3, 5, 10, 13, 25, 26, 65, 85, 125, 289, 445, 449, 500,
              613, 850, 1010, 1105]
        signed = {l: Fraction((-1) ** l, 1 + l % 5) for l in range(1, isqrt(x) + 1)}
        for g in (GammaSpec(r=1), GammaSpec(r=1, mode="table", table=signed)):
            table = discrepancy_table(x, 1105, g)
            for d in ds:
                assert table.rows[d - 1].A == congruence_sum_A_via_residues(x, d, g), d

    def test_memory_ceiling_kept(self):
        with pytest.raises(ValueError, match="memory ceiling"):
            discrepancy_table(gaussian.DEFAULT_MAX_X + 1, 1, GammaSpec(r=1))
