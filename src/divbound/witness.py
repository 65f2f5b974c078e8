"""Constructive witness divisors: for every n >= 1, a divisor d with
d^4 <= n and tau(n) <= 8 * tau(d)^7.

The construction groups the prime powers of n by exponent (1, 2, 3, >= 4),
chooses a small divisor of each part whose tau is as large as the part
allows, and composes the choices. One rule, _choose, serves the parts of
exponent 1, 2 and 3; the constants of its cases below four primes sit in
the table _SMALL_PARTS. The high part keeps d = prod p^(a//4). Every
certificate is re-checked with plain integer arithmetic before it is
returned; a failed re-check is a hard fault, never a silent fallback.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .arith import Factorization, factorize, next_prime_after, tau

__all__ = [
    "CertificationError",
    "ExponentSplit",
    "WitnessCertificate",
    "floor_quarter_inequalities",
    "split_by_exponent",
    "witness_high_exponent",
    "witness_squarefree",
    "witness_square_part",
    "witness_cube_part",
    "construct_witness",
    "obstruction_instance",
]


class CertificationError(RuntimeError):
    """An internally constructed divisor failed its arithmetic re-check."""


def floor_quarter_inequalities(t: int) -> tuple[bool, bool]:
    """Truth of 7*floor(t/4) >= t and (floor(t/4)+1)^4 >= 2*(t+1).

    Both hold for every t >= 4; the function exists so the claim is
    directly testable.
    """
    if t < 4:
        raise ValueError(f"defined for t >= 4, got {t}")
    q = t // 4
    return (7 * q >= t, (q + 1) ** 4 >= 2 * (t + 1))


@dataclass(frozen=True)
class ExponentSplit:
    """n partitioned by prime-power exponent: parts with exponent exactly
    1, 2, 3, and at least 4. The parts are pairwise coprime and multiply
    back to n."""

    squarefree_part: Factorization
    square_part: Factorization
    cube_part: Factorization
    high_part: Factorization

    @property
    def n(self) -> int:
        return (
            self.squarefree_part.n
            * self.square_part.n
            * self.cube_part.n
            * self.high_part.n
        )


def _split_factors(
    factors: tuple[tuple[int, int], ...]
) -> tuple[list, list, list, list]:
    parts: tuple[list, list, list, list] = ([], [], [], [])
    for p, a in factors:
        parts[min(a, 4) - 1].append((p, a))
    return parts


def split_by_exponent(f: Factorization) -> ExponentSplit:
    """Group the prime powers of n by their exponents."""
    s1, s2, s3, hi = _split_factors(f.factors)

    def build(fs: list) -> Factorization:
        return Factorization(prod(p**a for p, a in fs), tuple(fs))

    return ExponentSplit(build(s1), build(s2), build(s3), build(hi))


# Per-part choices. Each chooser takes the part's (prime, exponent) list and
# returns (d, tau_d, c) such that d divides the part, d^4 <= part and
# tau(part) <= c * tau(d)^power with power = 4 for the high part, 7 otherwise.
# The constant c is an integer pair (num, den), so construct_witness builds
# no Fraction per n; the public witness_* functions return it as a Fraction.
#
# _choose covers the parts of t primes that all carry exponent e in {1, 2, 3}.
# From t = 4 on, d is the product of p^e over the t // 4 smallest primes and
# c = 1 (floor_quarter_inequalities). Below that, _SMALL_PARTS[e][t] holds
# (k, tau_d, c) with d = p_min^k: the paper's small-case constants 2^t for
# single primes, 3 and 1/4 for squares, 4, 1/8 and 1/32 for cubes.

_Constant = tuple[int, int]
_Choice = tuple[int, int, _Constant]

_SMALL_PARTS: dict[int, tuple[tuple[int, int, _Constant], ...]] = {
    1: ((0, 1, (1, 1)), (0, 1, (2, 1)), (0, 1, (4, 1)), (0, 1, (8, 1))),
    2: ((0, 1, (1, 1)), (0, 1, (3, 1)), (1, 2, (1, 4)), (1, 2, (1, 4))),
    3: ((0, 1, (1, 1)), (0, 1, (4, 1)), (1, 2, (1, 8)), (2, 3, (1, 32))),
}


def _choose_high(factors: list[tuple[int, int]]) -> _Choice:
    d = 1
    tau_d = 1
    for p, a in factors:
        d *= p ** (a // 4)
        tau_d *= a // 4 + 1
    return d, tau_d, (1, 2 ** len(factors))


def _choose(factors: list[tuple[int, int]], e: int) -> _Choice:
    t = len(factors)
    if t < 4:
        k, tau_d, c = _SMALL_PARTS[e][t]
        return (factors[0][0] ** k if k else 1), tau_d, c
    d = 1
    for p, _ in factors[: t // 4]:
        d *= p**e
    return d, (e + 1) ** (t // 4), (1, 1)


def _certify_part(
    part: Factorization, d: int, tau_d: int, c: _Constant, power: int
) -> None:
    n = part.n
    if n % d != 0 or d**4 > n:
        raise CertificationError(f"divisor {d} violates d | {n}, d^4 <= n")
    num, den = c
    lhs = tau(part) * den
    rhs = num * tau_d**power
    if lhs > rhs:
        raise CertificationError(
            f"tau bound failed for part {n}: {lhs} > {rhs} (d = {d})"
        )


def _witness_part(part: Factorization, e: int) -> tuple[int, Fraction]:
    """Validate, choose and certify the divisor of a part whose exponents
    all equal e, where e = 4 stands for every exponent >= 4."""
    if any(min(a, 4) != e for _, a in part.factors):
        raise ValueError(
            "every exponent must be >= 4" if e == 4
            else f"every exponent must equal {e}"
        )
    if e == 4:
        d, tau_d, c = _choose_high(list(part.factors))
    else:
        d, tau_d, c = _choose(list(part.factors), e)
    _certify_part(part, d, tau_d, c, 4 if e == 4 else 7)
    return d, Fraction(*c)


def witness_high_exponent(part: Factorization) -> tuple[int, Fraction]:
    """Divisor choice for a part whose exponents are all >= 4.

    Returns (d, c) with d = prod p^(a//4), certifying d^4 <= part and
    tau(part) <= c * tau(d)^4 where c = 2^-omega(part).
    """
    return _witness_part(part, 4)


def witness_squarefree(part: Factorization) -> tuple[int, Fraction]:
    """Divisor choice for a squarefree part.

    t <= 3 primes: d = 1 with constant c = 2^t; t >= 4: d = product of the
    floor(t/4) smallest primes with c = 1. Certifies tau(part) <= c * tau(d)^7.
    """
    return _witness_part(part, 1)


def witness_square_part(part: Factorization) -> tuple[int, Fraction]:
    """Divisor choice for a part that is a product of squares of distinct
    primes: c = 3 for one prime, d = smallest prime with c = 1/4 for two or
    three, squares of the floor(t/4) smallest primes with c = 1 beyond."""
    return _witness_part(part, 2)


def witness_cube_part(part: Factorization) -> tuple[int, Fraction]:
    """Divisor choice for a part that is a product of cubes of distinct
    primes: c = 4 / 1/8 / 1/32 for one / two / three primes (d = 1, smallest
    prime, its square), cubes of the floor(t/4) smallest primes beyond."""
    return _witness_part(part, 3)


@dataclass(frozen=True)
class WitnessCertificate:
    """A verified witness: d | n, d^4 <= n and tau(n) <= 8 * tau(d)^7."""

    n: int
    d: int
    case_label: str
    tau_n: int
    tau_d: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.d < 1:
            raise CertificationError("certificate values must be positive")
        if self.n % self.d != 0:
            raise CertificationError(f"{self.d} does not divide {self.n}")
        if self.d**4 > self.n:
            raise CertificationError(f"{self.d}^4 exceeds {self.n}")
        if self.tau_n > 8 * self.tau_d**7:
            raise CertificationError(
                f"tau bound failed: {self.tau_n} > 8 * {self.tau_d}^7"
            )


def _bucket(w: int) -> str:
    return str(w) if w < 4 else "4p"


def _min_prime_of(*factor_lists: list[tuple[int, int]]) -> int:
    return min(p for fs in factor_lists for p, _ in fs)


def _dispatch_m(s1: list, s2: list, s3: list) -> tuple[int, str]:
    """Choose (d, label) for the exponent-<=-3 part of n.

    Guarantees tau(part) <= 8 * tau(d)^7 and d^4 <= part; the branch
    constants multiply out to at most 8 in every reachable combination.
    """
    w1, w2, w3 = len(s1), len(s2), len(s3)

    if w2 in (2, 3) or w3 in (2, 3):
        d = _choose(s1, 1)[0] * _choose(s2, 2)[0] * _choose(s3, 3)[0]
        return d, "heavy-square" if w2 in (2, 3) else "heavy-cube"

    # from here on w2, w3 are 0, 1 or >= 4
    if w2 == 1 and w3 == 1:
        # one square times one cube: the smaller of the two primes has
        # fourth power below their product and tau 2, beating tau = 12
        dp = min(s2[0][0], s3[0][0])
        return _choose(s1, 1)[0] * dp, f"sq1-cu1-minprime-sf{_bucket(w1)}"

    if w1 in (2, 3) and w2 == 1:
        # 2-3 single primes plus one square: constants alone exceed 8, but
        # the minimum prime among them has d^4 below the combined part
        dp = _min_prime_of(s1, s2)
        suffix = "-cu4p" if w3 else ""
        return dp * _choose(s3, 3)[0], f"sf{w1}-sq1-minprime{suffix}"

    if w1 in (2, 3) and w3 == 1:
        dp = _min_prime_of(s1, s3)
        suffix = "-sq4p" if w2 else ""
        return dp * _choose(s2, 2)[0], f"sf{w1}-cu1-minprime{suffix}"

    # straight product of the per-part choices; constants multiply to <= 8
    d1, _, (num1, den1) = _choose(s1, 1)
    d2, _, (num2, den2) = _choose(s2, 2)
    d3, _, (num3, den3) = _choose(s3, 3)
    num, den = num1 * num2 * num3, den1 * den2 * den3
    if num > 8 * den:
        raise CertificationError(
            f"unreachable branch: constant product {Fraction(num, den)} > 8"
        )
    if w2 == 0 and w3 == 0:
        label = "empty" if w1 == 0 else (
            "squarefree-small" if w1 <= 3 else "squarefree-large"
        )
    else:
        label = f"parts-sf{_bucket(w1)}-sq{_bucket(w2)}-cu{_bucket(w3)}"
    return d1 * d2 * d3, label


def construct_witness(
    n: int, factorization: Factorization | None = None
) -> WitnessCertificate:
    """Produce a verified WitnessCertificate for n.

    Deterministic; the case label records which branch chose the divisor.
    The certificate is re-derived from n's factorization before return,
    independently of the branch bookkeeping.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if factorization is None:
        factorization = factorize(n)
    elif factorization.n != n:
        raise ValueError("factorization does not match n")
    factors = factorization.factors

    if not factors:
        return WitnessCertificate(1, 1, "unit", 1, 1)

    s1, s2, s3, hi = _split_factors(factors)
    d_hi, _, _ = _choose_high(hi)

    if s1 or s2 or s3:
        d_m, label = _dispatch_m(s1, s2, s3)
        if hi:
            label += "+high"
    else:
        d_m, label = 1, "high-exponent"
    d = d_m * d_hi

    # independent re-check from (factors, d) alone
    tau_d = 1
    rest = d
    for p, _ in factors:
        e = 0
        while rest % p == 0:
            rest //= p
            e += 1
        tau_d *= e + 1
    if rest != 1:
        raise CertificationError(f"chosen divisor {d} has factors outside n")
    return WitnessCertificate(n, d, label, tau(factorization), tau_d)


def obstruction_instance(
    t1: int, t2: int, prime_seed: int = 2
) -> tuple[Factorization, int, Fraction]:
    """A squares-times-cubes number showing why the exponent 7 cannot drop
    to 6 without extra assumptions.

    Builds n = p_1^2 ... p_t1^2 * q_1^3 ... q_t2^3 from consecutive primes
    starting at prime_seed (the q run follows the p run), the canonical
    divisor d keeping the first floor(t/4) primes of each block, and returns
    (n, d, tau(n) / tau(d)^6). The ratio never exceeds 12.
    """
    if t1 < 4 or t2 < 4:
        raise ValueError("both block lengths must be >= 4")
    if prime_seed < 1:
        raise ValueError("prime_seed must be positive")
    primes: list[int] = []
    p = prime_seed - 1
    for _ in range(t1 + t2):
        p = next_prime_after(p)
        primes.append(p)
    squares = [(p, 2) for p in primes[:t1]]
    cubes = [(q, 3) for q in primes[t1:]]
    factors = sorted(squares + cubes)
    f = Factorization(prod(p**a for p, a in factors), tuple(factors))

    d_sq, tau_sq, _ = _choose(squares, 2)
    d_cu, tau_cu, _ = _choose(cubes, 3)
    d = d_sq * d_cu
    ratio = Fraction(tau(f), (tau_sq * tau_cu) ** 6)

    if f.n % d != 0 or d**4 > f.n:
        raise CertificationError("obstruction divisor is not admissible")
    if ratio > 12:
        raise CertificationError(f"ratio {ratio} exceeds 12")
    return f, d, ratio
