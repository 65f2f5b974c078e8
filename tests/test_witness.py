from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import nextprime

from divbound.arith import Factorization, factorize, sieve_primes, tau
import divbound.witness as witness_module
from divbound.witness import (
    CertificationError,
    WitnessCertificate,
    construct_witness,
    floor_quarter_inequalities,
    obstruction_instance,
    split_by_exponent,
    witness_cube_part,
    witness_high_exponent,
    witness_square_part,
    witness_squarefree,
)
from oracles import oracle_tau

PRIMES = sieve_primes(10**4)

# small primes, where d^4 <= n binds, and primes just above 2^k up to 2^128,
# where n leaves the range any census or factorization can reach
PRIME_POOL = PRIMES[:100] + [
    nextprime(2**k) for k in (10, 20, 32, 40, 63, 64, 80, 100, 128)
]
# widths 2, 3 and 4 of an exponent-1, 2 or 3 part sit on the dispatch
# thresholds, so they are drawn about twice as often as the other widths
PART_WIDTH = st.one_of(st.sampled_from((2, 3, 4)), st.integers(0, 6))


@st.composite
def shapes(draw) -> list[tuple[int, int]]:
    exponents = [e for e in (1, 2, 3) for _ in range(draw(PART_WIDTH))]
    exponents += draw(st.lists(st.integers(4, 9), max_size=3))
    primes = draw(st.lists(
        st.sampled_from(PRIME_POOL),
        min_size=len(exponents), max_size=len(exponents), unique=True,
    ))
    return sorted(zip(primes, exponents))


SHAPES = shapes()


def shape_factorization(shape: list[tuple[int, int]]) -> Factorization:
    return Factorization(prod(p**a for p, a in shape), tuple(shape))


def tau_over(primes, d: int) -> int:
    """tau(d) from d's multiplicity at each of the given primes; d must
    have no other prime factor. Independent of divbound's tau."""
    t = 1
    for p in primes:
        e = 0
        while d % p == 0:
            d //= p
            e += 1
        t *= e + 1
    assert d == 1
    return t


def random_part(rng, exponent_choice, count) -> Factorization:
    primes = sorted(rng.sample(PRIMES, count))
    factors = tuple((p, exponent_choice(rng)) for p in primes)
    n = 1
    for p, a in factors:
        n *= p**a
    return Factorization(n, factors)


class TestFloorQuarterInequalities:
    def test_examples(self):
        assert floor_quarter_inequalities(4) == (True, True)
        assert floor_quarter_inequalities(7) == (True, True)
        assert floor_quarter_inequalities(100) == (True, True)

    def test_range_to_10_4(self):
        assert all(
            floor_quarter_inequalities(t) == (True, True) for t in range(4, 10**4)
        )

    def test_rejects_small_t(self):
        with pytest.raises(ValueError):
            floor_quarter_inequalities(3)


class TestSplitByExponent:
    def test_720(self):
        sp = split_by_exponent(factorize(720))
        assert sp.squarefree_part.n == 5
        assert sp.square_part.n == 9
        assert sp.cube_part.n == 1
        assert sp.high_part.n == 16

    def test_unit(self):
        sp = split_by_exponent(factorize(1))
        assert (sp.squarefree_part.n, sp.square_part.n, sp.cube_part.n,
                sp.high_part.n) == (1, 1, 1, 1)

    def test_pure_cubes(self):
        sp = split_by_exponent(factorize(216))
        assert sp.cube_part.n == 216
        assert sp.squarefree_part.n == sp.square_part.n == sp.high_part.n == 1

    def test_parts_multiply_back_and_are_coprime(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randrange(1, 10**9)
            f = factorize(n)
            sp = split_by_exponent(f)
            assert sp.n == n
            assert all(a == 1 for _, a in sp.squarefree_part.factors)
            assert all(a == 2 for _, a in sp.square_part.factors)
            assert all(a == 3 for _, a in sp.cube_part.factors)
            assert all(a >= 4 for _, a in sp.high_part.factors)


def check_guarantee(part: Factorization, d: int, c: Fraction, power: int):
    assert part.n % d == 0
    assert d**4 <= part.n
    t_part = tau(part)
    t_d = tau(factorize(d))
    assert t_part * c.denominator <= c.numerator * t_d**power


class TestPerPartChoices:
    def test_high_exponent_examples(self):
        assert witness_high_exponent(factorize(16)) == (2, Fraction(1, 2))
        assert witness_high_exponent(factorize(1)) == (1, Fraction(1))
        d, c = witness_high_exponent(factorize(2**5 * 3**8))
        assert d == 18
        assert 6**4 >= 4 * 54  # the certified inequality at this instance

    def test_high_exponent_rejects_low_exponent(self):
        with pytest.raises(ValueError):
            witness_high_exponent(factorize(8))

    def test_squarefree_examples(self):
        assert witness_squarefree(factorize(30)) == (1, Fraction(8))
        assert witness_squarefree(factorize(210)) == (2, Fraction(1))
        assert witness_squarefree(factorize(1)) == (1, Fraction(1))

    def test_squarefree_rejects_squares(self):
        with pytest.raises(ValueError):
            witness_squarefree(factorize(12))

    def test_square_part_examples(self):
        assert witness_square_part(factorize(9)) == (1, Fraction(3))
        assert witness_square_part(factorize(225)) == (3, Fraction(1, 4))
        assert witness_square_part(factorize(210**2)) == (4, Fraction(1))

    def test_square_part_rejects_wrong_exponent(self):
        with pytest.raises(ValueError):
            witness_square_part(factorize(8))

    def test_cube_part_examples(self):
        assert witness_cube_part(factorize(216)) == (2, Fraction(1, 8))
        assert 8 * tau(factorize(216)) == 2**7  # equality instance
        assert witness_cube_part(factorize(27000)) == (4, Fraction(1, 32))
        assert witness_cube_part(factorize(1)) == (1, Fraction(1))

    def test_cube_part_rejects_wrong_exponent(self):
        with pytest.raises(ValueError):
            witness_cube_part(factorize(4))

    def test_guarantees_on_random_parts(self):
        rng = random.Random(99)
        for _ in range(150):
            t = rng.randrange(1, 9)
            part = random_part(rng, lambda r: 1, t)
            d, c = witness_squarefree(part)
            check_guarantee(part, d, c, 7)

            part = random_part(rng, lambda r: 2, t)
            d, c = witness_square_part(part)
            check_guarantee(part, d, c, 7)

            part = random_part(rng, lambda r: 3, t)
            d, c = witness_cube_part(part)
            check_guarantee(part, d, c, 7)

            part = random_part(rng, lambda r: r.randrange(4, 12), t)
            d, c = witness_high_exponent(part)
            check_guarantee(part, d, c, 4)

    def test_composition_per_part_divisors(self):
        # each part's divisor has fourth power below its part, so the
        # product automatically has fourth power below n
        rng = random.Random(1234)
        for _ in range(300):
            n = rng.randrange(2, 10**12)
            sp = split_by_exponent(factorize(n))
            d1, _ = witness_squarefree(sp.squarefree_part)
            d2, _ = witness_square_part(sp.square_part)
            d3, _ = witness_cube_part(sp.cube_part)
            dh, _ = witness_high_exponent(sp.high_part)
            assert d1**4 <= sp.squarefree_part.n
            assert d2**4 <= sp.square_part.n
            assert d3**4 <= sp.cube_part.n
            assert dh**4 <= sp.high_part.n
            assert (d1 * d2 * d3 * dh) ** 4 <= n


class TestWitnessCertificate:
    def test_rejects_non_divisor(self):
        with pytest.raises(CertificationError):
            WitnessCertificate(30, 7, "x", 8, 2)

    def test_rejects_large_divisor(self):
        with pytest.raises(CertificationError):
            WitnessCertificate(30, 5, "x", 8, 2)

    def test_rejects_tau_violation(self):
        with pytest.raises(CertificationError):
            WitnessCertificate(2**30, 2, "x", 9 * 2**7, 1)


class TestConstructWitness:
    def test_squarefree_triple_equality(self):
        cert = construct_witness(30)
        assert cert.d == 1
        assert cert.tau_n == 8 == 8 * cert.tau_d**7
        assert cert.case_label == "squarefree-small"

    def test_square_times_cube(self):
        cert = construct_witness(72)
        assert cert.d == 2
        assert cert.tau_n == 12
        assert cert.case_label == "sq1-cu1-minprime-sf0"

    def test_unit(self):
        cert = construct_witness(1)
        assert cert.d == 1 and cert.tau_n == 1

    def test_high_and_squarefree_mix(self):
        n = 2**4 * 3 * 5 * 7 * 11
        cert = construct_witness(n)
        assert cert.n % cert.d == 0 and cert.d**4 <= n
        assert cert.tau_n == oracle_tau(n)
        assert cert.tau_n <= 8 * cert.tau_d**7
        assert cert.case_label.endswith("+high")

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            construct_witness(0)

    def test_rejects_mismatched_factorization(self):
        with pytest.raises(ValueError):
            construct_witness(10, factorize(12))

    def test_exhaustive_small(self, small_tau_table):
        for n in range(1, 20001):
            cert = construct_witness(n)
            assert n % cert.d == 0
            assert cert.d**4 <= n
            assert cert.tau_n <= 8 * cert.tau_d**7
            if n <= 10**4:
                assert cert.tau_n == small_tau_table[n]

    def test_random_40bit_sample(self):
        rng = random.Random(424242)
        for _ in range(2000):
            n = rng.randrange(1, 1 << 40)
            cert = construct_witness(n)
            assert n % cert.d == 0
            assert cert.d**4 <= n
            assert cert.tau_n <= 8 * cert.tau_d**7

    def test_equality_family_yields_unit_divisor(self):
        # squarefree p1 p2 p3 with min(p)^4 > n: the witness is d = 1 and
        # the bound is met with equality
        for n in (385, 455, 595, 1001, 2431, 11 * 13 * 17):
            f = factorize(n)
            assert len(f.factors) == 3
            assert min(f.primes) ** 4 > n
            cert = construct_witness(n)
            assert cert.d == 1
            assert cert.tau_n == 8 * cert.tau_d**7

    def test_deterministic(self):
        assert construct_witness(987654) == construct_witness(987654)

    @pytest.mark.parametrize("bad_d", [2 * 7, 2 * 3 * 5, 2 * 2])
    def test_recheck_rejects_a_wrong_choice(self, monkeypatch, bad_d):
        # a chooser whose d has a prime n lacks, a prime power n lacks or a
        # fourth power above n is a fault, whatever label it reports
        monkeypatch.setattr(witness_module, "_dispatch_m", lambda *parts: (bad_d, "rigged"))
        with pytest.raises(CertificationError):
            construct_witness(2 * 3 * 5 * 11 * 13)

    def test_every_label_shape_reachable(self):
        # one concrete n per dispatch branch
        cases = {
            "unit": 1,
            "squarefree-small": 30,
            "squarefree-large": 2 * 3 * 5 * 7 * 11,
            "high-exponent": 2**4 * 3**5,
            "heavy-square": (3 * 5) ** 2 * 2,
            "heavy-cube": (2 * 3) ** 3 * 7,
            "sq1-cu1-minprime-sf0": 72,
            "sq1-cu1-minprime-sf1": 5 * 3**2 * 2**3,
            "sq1-cu1-minprime-sf2": 5 * 7 * 3**2 * 2**3,
            "sq1-cu1-minprime-sf3": 5 * 7 * 11 * 3**2 * 2**3,
            "sq1-cu1-minprime-sf4p": 5 * 7 * 11 * 13 * 3**2 * 2**3,
            "sf2-sq1-minprime": 5 * 7 * 3**2,
            "sf3-sq1-minprime": 5 * 7 * 11 * 3**2,
            "sf2-cu1-minprime": 5 * 7 * 3**3,
            "sf3-cu1-minprime": 5 * 7 * 11 * 3**3,
            "parts-sf1-sq1-cu0": 5 * 3**2,
            "parts-sf0-sq1-cu0": 3**2,
            "parts-sf0-sq0-cu1": 3**3,
            "parts-sf1-sq0-cu1": 5 * 3**3,
        }
        for label, n in cases.items():
            cert = construct_witness(n)
            assert cert.case_label == label, (n, cert.case_label)


def bucket_shapes():
    """One Factorization per (squarefree, square, cube, high) width
    combination, built from distinct small primes; widths 0 and 5 reach past
    every dispatch threshold. 648 shapes in a fixed order."""
    primes = PRIMES[:20]
    for w1 in range(6):
        for w2 in range(6):
            for w3 in range(6):
                for wh in range(3):
                    it = iter(primes)
                    factors = []
                    factors += [(next(it), 1) for _ in range(w1)]
                    factors += [(next(it), 2) for _ in range(w2)]
                    factors += [(next(it), 3) for _ in range(w3)]
                    factors += [(next(it), 4 + i) for i in range(wh)]
                    yield shape_factorization(sorted(factors))


class TestCaseTreeExhaustive:
    def test_every_bucket_combination_certifies(self):
        for f in bucket_shapes():
            cert = construct_witness(f.n, f)
            assert f.n % cert.d == 0
            assert cert.d**4 <= f.n
            assert cert.tau_n == tau(f)
            assert cert.tau_n <= 8 * cert.tau_d**7

    def test_chosen_divisors_are_pinned(self):
        # every check above accepts any admissible d; this pins which d, and
        # which case label, the construction picks, so a refactor of the
        # choosers cannot change them unnoticed
        certs = [construct_witness(n) for n in range(1, 10**4 + 1)]
        certs += [construct_witness(f.n, f) for f in bucket_shapes()]
        digest = hashlib.sha256()
        for c in certs:
            digest.update(f"{c.n} {c.d} {c.case_label} {c.tau_d}\n".encode())
        assert len(certs) == 10_648
        assert digest.hexdigest() == (
            "742be45de97fa6f48ff22e65adfde873f29d63477fb0af0712dcd5e885d6ba60"
        )

    def test_worst_case_constant_is_attained_only_with_unit_divisor(self):
        # branches that return d = 1 must still meet the bound: tau <= 8
        for n in (2, 6, 30, 4, 9, 25, 8, 27):
            cert = construct_witness(n)
            if cert.d == 1:
                assert cert.tau_n <= 8


class TestWitnessByShape:
    """construct_witness on random exponent shapes over random primes, far
    beyond 2^64 included; the Factorization is passed in, so nothing is
    factored."""

    @settings(max_examples=300, deadline=None)
    @given(SHAPES)
    @example([(2, 2), (3, 3), (nextprime(2**100), 5), (nextprime(2**128), 1)])
    def test_every_shape_is_certified(self, shape):
        f = shape_factorization(shape)
        cert = construct_witness(f.n, f)
        assert cert.n == f.n
        assert f.n % cert.d == 0 and cert.d**4 <= f.n
        assert cert.tau_n == prod(a + 1 for _, a in shape)
        assert cert.tau_d == tau_over(f.primes, cert.d)
        assert cert.tau_n <= 8 * cert.tau_d**7

    @settings(max_examples=100, deadline=None)
    @given(SHAPES)
    def test_public_part_choices_return_fractions(self, shape):
        sp = split_by_exponent(shape_factorization(shape))
        for choose, part, power in (
            (witness_squarefree, sp.squarefree_part, 7),
            (witness_square_part, sp.square_part, 7),
            (witness_cube_part, sp.cube_part, 7),
            (witness_high_exponent, sp.high_part, 4),
        ):
            d, c = choose(part)
            assert type(c) is Fraction
            assert part.n % d == 0 and d**4 <= part.n
            tau_part = prod(a + 1 for a in part.exponents)
            assert tau_part <= c * tau_over(part.primes, d) ** power


class TestObstruction:
    def test_minimal_instance(self):
        f, d, ratio = obstruction_instance(4, 4)
        assert ratio == Fraction(3**4 * 4**4, (3 * 4) ** 6)
        assert f.n % d == 0 and d**4 <= f.n

    def test_tightness_at_7_7(self):
        f, d, ratio = obstruction_instance(7, 7)
        assert ratio == 12
        # re-derive the ratio from scratch
        assert Fraction(tau(f), tau(factorize(d)) ** 6) == 12

    def test_8_8_below_12(self):
        _, _, ratio = obstruction_instance(8, 8)
        assert ratio < 12

    def test_grid_never_exceeds_12(self):
        for t1 in range(4, 13):
            for t2 in range(4, 13):
                f, d, ratio = obstruction_instance(t1, t2)
                assert tau(f) <= 12 * tau(factorize(d)) ** 6
                if ratio == 12:
                    assert t1 % 4 == 3 and t2 % 4 == 3

    def test_reproducible_from_seed(self):
        a = obstruction_instance(4, 5, prime_seed=10)
        b = obstruction_instance(4, 5, prime_seed=10)
        assert a == b
        c = obstruction_instance(4, 5, prime_seed=100)
        assert c[0] != a[0] and c[2] == a[2]  # primes differ, ratio does not

    def test_rejects_small_blocks(self):
        with pytest.raises(ValueError):
            obstruction_instance(3, 4)
        with pytest.raises(ValueError):
            obstruction_instance(4, 3)
