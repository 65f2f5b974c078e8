from __future__ import annotations

import random
from fractions import Fraction
from math import factorial, gcd, isqrt, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import factorint

from divbound.arith import (
    DEFAULT_SEGMENT_SIZE,
    Factorization,
    divisors_from_factorization,
    divisors_up_to_fourth_root,
    euler_phi,
    factorize,
    integer_kth_root,
    is_prime,
    next_prime_after,
    next_prime_in,
    omega,
    sieve_primes,
    spf_sieve_segment,
    tau,
)
from oracles import (
    oracle_divisors,
    oracle_factor,
    oracle_is_prime,
    oracle_phi,
    oracle_tau,
)


def _sympy_factors(n: int) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(factorint(n).items()))


class TestFactorize:
    def test_one_has_empty_factorization(self):
        assert factorize(1).factors == ()

    def test_360(self):
        assert factorize(360).factors == tuple(oracle_factor(360))
        assert factorize(360).factors == ((2, 3), (3, 2), (5, 1))

    def test_prime(self):
        assert factorize(97).factors == ((97, 1),)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            factorize(0)
        with pytest.raises(ValueError):
            factorize(-6)

    def test_matches_trial_oracle_up_to_3000(self):
        for n in range(1, 3001):
            assert factorize(n).factors == tuple(oracle_factor(n))

    def test_large_semiprime(self):
        p, q = 1048583, 1048589  # both just above 2^20
        f = factorize(p * q)
        assert f.factors == ((p, 1), (q, 1))

    def test_deterministic(self):
        assert factorize(2310) == factorize(2310)

    def test_boundary_primes_powers_and_products(self):
        # primes on each side of the 2^10 trial limit, of 2^20 and of 2^32;
        # rho splits the powers past 2^64
        small = (1019, 1021, 1031, 1033, 1048571, 1048573, 1048583, 1048589)
        large = (4294967279, 4294967291)
        cases = [p**k for p in small for k in range(1, 9)]
        cases += [p**k for p in large for k in (1, 2, 3)]
        group = small[:4], small[4:], large
        cases += [p * q for g in group for p, q in zip(g, g[1:])]
        cases += [1031 * 4294967291, 1021 * 1048583 * 4294967279]
        for n in cases:
            assert factorize(n).factors == _sympy_factors(n), n

    def test_carmichael_numbers(self):
        # the last three are (6k+1)(12k+1)(18k+1) with every factor above 2^10
        for n in (561, 1105, 1729, 2465, 2821, 6601, 8911,
                  9624742921, 11346205609, 6927441457804351849):
            assert pow(2, n - 1, n) == 1 and not is_prime(n)
            assert factorize(n).factors == _sympy_factors(n), n

    def test_primes_near_2_63_and_2_64(self):
        for p in (2**63 - 25, 2**64 - 59):
            assert factorize(p).factors == ((p, 1),)

    def test_beyond_2_64_with_cofactor_below_2_64(self):
        # the cofactor drops below 2^64 after primes up to 2^10, after a
        # prime just above 2^10 (trial division past the limit), or only
        # once 3^50 is gone, leaving a product of two primes near 2^32
        for n in (2**30 * 1048583 * 1048589,
                  1031**7 * 1048583 * 1048589,
                  3**50 * 4294967279 * 4294967291):
            assert n >= 1 << 64
            assert factorize(n).factors == _sympy_factors(n), n

    def test_beyond_2_64_with_only_small_factors(self):
        for n in (2**64, 2**100, 3**41 * 5**3 * 1021, factorial(30),
                  1031**7, 1048573**4, 2**40 * 1048573**3):
            assert n >= 1 << 64
            assert factorize(n).factors == _sympy_factors(n), n

    def test_beyond_2_64_square_of_a_prime_above_2_40(self):
        # rho splits the cofactor p^2 ~ 2^80, which has no factor below 2^40
        p = 1099511627791
        assert factorize(7 * p**2).factors == ((7, 1), (p, 2))

    def test_beyond_2_64_splits_a_least_factor_near_2_40(self):
        # rho splits p * q, p the least prime above 2^40 and q the least
        # above 2^63 + 2^40, in 2^20 - 2 steps, well inside its budget
        p, q = next_prime_after(2**40), next_prime_after(2**63 + 2**40)
        assert factorize(p * q).factors == ((p, 1), (q, 1))

    def test_beyond_2_64_refuses_a_probable_prime_part(self):
        p = 18446744073709551629  # the least prime above 2^64
        for n in (p, 2 * 3 * p, p << 64, 1031 * p):
            with pytest.raises(ValueError, match="probably prime"):
                factorize(n)

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.integers(min_value=1, max_value=2**64 - 1),
            # products of a few factors in the range Brent's rho splits
            st.lists(st.integers(2, 1 << 22), min_size=1, max_size=3).map(prod),
        )
    )
    def test_matches_sympy_below_2_64(self, n):
        assert factorize(n).factors == _sympy_factors(n)

    def test_all_reported_primes_pass_primality(self):
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randrange(2, 10**9)
            for p, a in factorize(n).factors:
                assert is_prime(p)
                assert a >= 1


class TestFactorizationType:
    def test_product_invariant_enforced(self):
        with pytest.raises(ValueError):
            Factorization(12, ((2, 1), (3, 1)))

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            Factorization(6, ((3, 1), (2, 1)))

    def test_exponent_positive(self):
        with pytest.raises(ValueError):
            Factorization(2, ((2, 1), (3, 0)))

    def test_unit_iff_empty(self):
        assert Factorization(1, ()).factors == ()
        with pytest.raises(ValueError):
            Factorization(2, ())


class TestMultiplicativeFunctions:
    def test_tau_examples(self):
        assert tau(factorize(1)) == 1
        assert tau(factorize(30)) == oracle_tau(30) == 8
        assert tau(factorize(144)) == oracle_tau(144) == 15

    def test_omega_examples(self):
        assert omega(factorize(1)) == 0
        assert omega(factorize(12)) == 2
        assert omega(factorize(30030)) == len(oracle_factor(30030)) == 6

    def test_phi_examples(self):
        assert euler_phi(factorize(1)) == 1
        assert euler_phi(factorize(10)) == oracle_phi(10) == 4
        assert euler_phi(factorize(9)) == oracle_phi(9) == 6

    def test_tau_against_divisor_count_up_to_10_4(self, small_tau_table):
        for n in range(1, 10**4 + 1):
            assert tau(factorize(n)) == small_tau_table[n]

    def test_multiplicativity_on_random_coprime_pairs(self):
        # tau and phi multiply, omega adds, across 10^4 coprime pairs
        rng = random.Random(20260808)
        checked = 0
        while checked < 10**4:
            m = rng.randrange(1, 10**5)
            n = rng.randrange(1, 10**5)
            if gcd(m, n) != 1:
                continue
            fm, fn, fmn = factorize(m), factorize(n), factorize(m * n)
            assert tau(fmn) == tau(fm) * tau(fn)
            assert omega(fmn) == omega(fm) + omega(fn)
            assert euler_phi(fmn) == euler_phi(fm) * euler_phi(fn)
            checked += 1

    def test_divisor_enumeration_matches_oracle(self):
        rng = random.Random(3)
        for _ in range(200):
            n = rng.randrange(1, 10**6)
            assert divisors_from_factorization(factorize(n)) == oracle_divisors(n)


class TestDivisorsUpToFourthRoot:
    def test_examples(self):
        assert divisors_up_to_fourth_root(1) == [1]
        assert divisors_up_to_fourth_root(30) == [1, 2]
        assert divisors_up_to_fourth_root(2431) == [1]

    def test_perfect_power_boundaries(self):
        assert 2 in divisors_up_to_fourth_root(16)
        assert divisors_up_to_fourth_root(15) == [1]
        assert 3 in divisors_up_to_fourth_root(81)
        assert 3 not in divisors_up_to_fourth_root(80)
        assert 10 in divisors_up_to_fourth_root(10**4)

    def test_oracle_equivalence_up_to_10_4(self):
        for n in range(1, 10**4 + 1):
            expected = [d for d in oracle_divisors(n) if d**4 <= n]
            assert divisors_up_to_fourth_root(n) == expected

    def test_exact_membership_up_to_10_5(self):
        # both directions of (d | n and d^4 <= n) <=> membership, with the
        # comparison done through Fraction to rule out any float drift
        for n in range(1, 10**5 + 1):
            got = set(divisors_up_to_fourth_root(n))
            for d in range(1, 18):
                member = n % d == 0 and Fraction(d) ** 4 <= n
                assert (d in got) == member, (n, d)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            divisors_up_to_fourth_root(0)


class TestSieveSegment:
    def test_example_2_to_10(self):
        seg = spf_sieve_segment(2, 10)
        assert list(seg.spf) == [2, 3, 2, 5, 2, 7, 2, 3, 2]

    def test_unit_sentinel(self):
        seg = spf_sieve_segment(1, 1)
        assert seg.spf_of(1) == 1

    def test_window_100_110(self):
        seg = spf_sieve_segment(100, 110)
        assert seg.spf_of(101) == 101
        assert seg.spf_of(105) == 3

    def test_entries_divide_and_are_least(self):
        seg = spf_sieve_segment(2, 5000)
        for n in range(2, 5001):
            p = seg.spf_of(n)
            assert n % p == 0
            assert p == oracle_factor(n)[0][0]

    def test_consistency_with_factorize(self):
        # at 10^12 the cofactor left after the smallest prime falls below the
        # table and is factored in one call; 997^2 starts its prime's pass
        # at p*p inside the window
        for lo, hi in [(1, 3000), (10**6 - 500, 10**6 + 500), (999983, 10**6),
                       (997**2 - 50, 997**2 + 50), (10**12, 10**12 + 2000)]:
            seg = spf_sieve_segment(lo, hi)
            for n in range(max(lo, 2), hi + 1):
                assert seg.factor(n) == list(factorize(n).factors)

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            spf_sieve_segment(10, 5)
        with pytest.raises(ValueError):
            spf_sieve_segment(0, 5)
        # refused before the table is allocated
        with pytest.raises(ValueError, match="exceeds"):
            spf_sieve_segment(1, DEFAULT_SEGMENT_SIZE + 1)

    def test_rejects_out_of_range_lookup(self):
        seg = spf_sieve_segment(10, 20)
        with pytest.raises(ValueError):
            seg.spf_of(9)


class TestPrimes:
    def test_is_prime_matches_oracle(self):
        for n in range(10**4):
            assert is_prime(n) == oracle_is_prime(n), n

    def test_is_prime_large(self):
        assert is_prime((1 << 61) - 1)  # Mersenne prime
        assert not is_prime((1 << 60) + 1)
        # 151 * 751 * 28351 passes bases 2, 3, 5 and 7 but not 61
        assert not is_prime(3215031751)

    def test_is_prime_matches_oracle_in_the_2_7_61_tier(self):
        # [25326001, 4759123141) is decided by bases 2, 7 and 61 alone.
        # The sample: the strong pseudoprimes to bases 2, 3 and 5 there,
        # the Carmichael numbers (6k+1)(12k+1)(18k+1) there, the 300
        # integers from the tier's start, and 300 seeded random ones.
        lo, hi = 25326001, 4759123141
        sample = [25326001, 161304001, 960946321, 1157839381, 3215031751]
        for k in range(1, 400):
            f = (6 * k + 1, 12 * k + 1, 18 * k + 1)
            if lo <= prod(f) < hi and all(map(oracle_is_prime, f)):
                sample.append(prod(f))
        sample += range(lo, lo + 300)
        rng = random.Random(20260808)
        sample += [rng.randrange(lo, hi) for _ in range(300)]
        for n in sample:
            assert is_prime(n) == oracle_is_prime(n), n

    def test_next_prime_in_examples(self):
        assert next_prime_in(11, 22) == 13
        assert next_prime_in(8, 9) is None
        assert next_prime_in(2, 4) == 3
        assert next_prime_in(1, 3) == 2

    def test_next_prime_after(self):
        assert next_prime_after(1) == 2
        assert next_prime_after(2) == 3
        assert next_prime_after(10**6) == 1000003

    def test_next_prime_after_matches_oracle(self):
        expected = 2
        for x in range(-3, 3000):
            if expected <= x:
                expected = x + 1
                while not oracle_is_prime(expected):
                    expected += 1
            assert next_prime_after(x) == expected, x

    def test_sieve_primes(self):
        assert sieve_primes(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert sieve_primes(1) == []

    @pytest.mark.parametrize("limit", [-1, 0, 1, 2, 3, 4, 24, 25, 26, 10**4])
    def test_sieve_primes_matches_oracle(self, limit):
        got = sieve_primes(limit)
        assert type(got) is list and all(type(p) is int for p in got)
        assert got == [n for n in range(2, limit + 1) if oracle_is_prime(n)]

    def test_sieve_primes_returns_a_fresh_list(self):
        first = sieve_primes(100)
        first.append(101)
        first[0] = 4
        second = sieve_primes(100)
        assert second == [n for n in range(2, 101) if oracle_is_prime(n)]
        assert second is not first


class TestIntegerKthRoot:
    def test_exact_on_powers(self):
        for base in (2, 3, 10, 99):
            for k in range(2, 8):
                n = base**k
                assert integer_kth_root(n, k) == base
                assert integer_kth_root(n - 1, k) == base - 1

    def test_floor_property_random(self):
        rng = random.Random(11)
        for _ in range(500):
            n = rng.randrange(0, 1 << 62)
            k = rng.randrange(2, 7)
            r = integer_kth_root(n, k)
            assert r**k <= n < (r + 1) ** k

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            integer_kth_root(-1, 2)
        with pytest.raises(ValueError):
            integer_kth_root(4, 0)
