"""Exact integer arithmetic and multiplicative-function primitives.

Factorization, segmented smallest-prime-factor sieves, tau / omega / phi,
divisor enumeration, exact integer roots and deterministic primality.
Everything here is pure and exact; no floats anywhere near a comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from math import gcd, inf, isqrt

import numpy as np

__all__ = [
    "Factorization",
    "SieveSegment",
    "DEFAULT_SEGMENT_SIZE",
    "factorize",
    "tau",
    "omega",
    "euler_phi",
    "divisors_from_factorization",
    "divisors_up_to_fourth_root",
    "spf_sieve_segment",
    "next_prime_in",
    "next_prime_after",
    "is_prime",
    "sieve_primes",
    "integer_kth_root",
]

DEFAULT_SEGMENT_SIZE = 1 << 22

# Deterministic Miller-Rabin witness tiers, exhaustive below 2^64.
_MR_TIERS = (
    (2047, (2,)),
    (1373653, (2, 3)),
    (9080191, (31, 73)),
    (25326001, (2, 3, 5)),
    (4759123141, (2, 7, 61)),
    (1122004669633, (2, 13, 23, 1662803)),
    (2152302898747, (2, 3, 5, 7, 11)),
    (3474749660383, (2, 3, 5, 7, 11, 13)),
    (341550071728321, (2, 3, 5, 7, 11, 13, 17)),
    (3825123056546413051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (1 << 64, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
)

# _factor_int trial-divides only by the primes up to _TRIAL_LIMIT; Brent's
# rho splits what is left. _RHO_BATCH differences share one gcd. Rho needs
# about sqrt(p) steps to find a prime p; on a part at or above 2^64 it stops
# after _RHO_BUDGET, enough for p up to about 2^42 (1.2 s on a 2-core Xeon).
_TRIAL_LIMIT = 1 << 10
_RHO_BATCH = 32
_RHO_BUDGET = 1 << 22


def sieve_primes(limit: int) -> list[int]:
    """All primes <= limit, ascending, as a fresh list.

    The package's one prime sieve: an Eratosthenes mask, nothing cached.
    """
    if limit < 2:
        return []
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask).tolist()


_TRIAL_PRIMES = sieve_primes(_TRIAL_LIMIT)


def _strong_probable_prime(n: int, bases: tuple[int, ...]) -> bool:
    """True when the odd n > max(bases) passes the strong (Miller-Rabin)
    test to every base."""
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 2^64."""
    if n >= 1 << 64:
        raise ValueError(f"primality test is only deterministic below 2^64, got {n}")
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    for bound, bases in _MR_TIERS:
        if n < bound:
            return _strong_probable_prime(n, bases)


def next_prime_in(lo_exclusive: int, hi_exclusive: int) -> int | None:
    """Smallest prime p with lo_exclusive < p < hi_exclusive, or None."""
    if lo_exclusive < 1:
        raise ValueError("lower bound must be a positive integer")
    c = lo_exclusive + 1
    if c <= 2:
        if 2 < hi_exclusive:
            return 2
        c = 3
    if c % 2 == 0:  # c >= 4 here, so even c is composite
        c += 1
    while c < hi_exclusive:
        if is_prime(c):
            return c
        c += 2
    return None


def next_prime_after(x: int) -> int:
    """Smallest prime strictly greater than x."""
    m = max(x, 1)
    # Bertrand's postulate: (m, 2m + 2) always holds a prime
    return next_prime_in(m, 2 * m + 2)


@dataclass(frozen=True)
class Factorization:
    """Canonical prime-power decomposition: n = prod p^a, primes ascending."""

    n: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"factored value must be positive, got {self.n}")
        object.__setattr__(self, "factors", tuple(tuple(f) for f in self.factors))
        prod = 1
        prev = 0
        for p, a in self.factors:
            if p <= prev:
                raise ValueError("primes must be strictly increasing")
            if a < 1:
                raise ValueError(f"exponent of {p} must be >= 1, got {a}")
            prev = p
            prod *= p**a
        if prod != self.n:
            raise ValueError(f"factor product {prod} does not equal n = {self.n}")

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    @property
    def exponents(self) -> tuple[int, ...]:
        return tuple(a for _, a in self.factors)


def _factor_int(n: int) -> list[tuple[int, int]]:
    factors: list[tuple[int, int]] = []
    m = n
    for p in _TRIAL_PRIMES:
        if p * p > m:
            primes = [m] if m > 1 else []  # no prime below p divides m < p^2
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
    else:
        # every prime factor of m exceeds the trial limit
        primes = _prime_divisors(m) if m > 1 else []
    return factors + [(q, primes.count(q)) for q in sorted(set(primes))]


def _prime_divisors(m: int) -> list[int]:
    """Prime factors of m > 1 with multiplicity, in no set order; m has
    no prime factor up to _TRIAL_LIMIT.

    A part at or above 2^64 that is a strong probable prime to the bases
    of the last _MR_TIERS row raises ValueError: is_prime cannot certify
    it, and rho would never end on it; so does one that rho cannot split in
    _RHO_BUDGET steps.
    """
    if m < 1 << 64:
        if is_prime(m):
            return [m]
    elif _strong_probable_prime(m, _MR_TIERS[-1][1]):
        raise ValueError(f"cannot factorize: the part {m} is at or above 2^64 and "
                         "probably prime, which is_prime cannot certify")
    d = _brent(m)
    return _prime_divisors(d) + _prime_divisors(m // d)


def _brent(n: int) -> int:
    """A proper divisor of the composite n, by Brent's cycle-finding variant
    of Pollard's rho (R. P. Brent, BIT 20, 1980).

    Iterates y -> y^2 + c (mod n) from y = 2 for c = 1, 2, ... and takes the
    gcd of _RHO_BATCH products of differences at a time. A batch whose gcd
    is n is replayed one step at a time; if that gives n as well, the next
    c starts over. Deterministic: the same n always yields the same divisor.
    """
    spent, budget = 0, _RHO_BUDGET if n >= 1 << 64 else inf
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            spent += 2 * r  # the round of r takes at most 2r steps
            if spent > budget:
                raise ValueError(f"cannot factorize: rho found no factor of the part "
                                 f"{n} in {budget} steps")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def factorize(n: int) -> Factorization:
    """Canonical Factorization of n >= 1.

    Trial-divides by the primes up to 2^10; a cofactor that is still
    composite is split by Brent's rho with fixed constants, every part
    below 2^64 tested by the deterministic is_prime. The result is
    deterministic. An n with a prime factor at or above 2^64 raises
    ValueError, because is_prime is only exact below 2^64: so does any
    part there that is a strong probable prime to the last _MR_TIERS
    bases, or any part rho cannot split in _RHO_BUDGET steps: rho takes
    about the square root of a part's least prime factor, so past 2^42.
    """
    if n < 1:
        raise ValueError(f"cannot factorize {n}; argument must be >= 1")
    if n == 1:
        return Factorization(1, ())
    return Factorization(n, tuple(_factor_int(n)))


def tau(f: Factorization) -> int:
    """Number of divisors: prod (a_i + 1)."""
    t = 1
    for _, a in f.factors:
        t *= a + 1
    return t


def omega(f: Factorization) -> int:
    """Number of distinct prime factors."""
    return len(f.factors)


def euler_phi(f: Factorization) -> int:
    """Euler totient: prod p^(a-1) * (p-1)."""
    phi = 1
    for p, a in f.factors:
        phi *= p ** (a - 1) * (p - 1)
    return phi


def divisors_from_factorization(f: Factorization) -> list[int]:
    """All divisors of n, ascending."""
    divs = [1]
    for p, a in f.factors:
        pk = 1
        block = []
        for _ in range(a):
            pk *= p
            block.extend(d * pk for d in divs)
        divs.extend(block)
    return sorted(divs)


def integer_kth_root(n: int, k: int) -> int:
    """floor(n^(1/k)) in exact integer arithmetic."""
    if n < 0:
        raise ValueError("root of a negative value")
    if k < 1:
        raise ValueError("root index must be >= 1")
    if n in (0, 1) or k == 1:
        return n
    if k == 2:
        return isqrt(n)
    if k == 4:
        return isqrt(isqrt(n))
    # Newton iteration with a bit-length start, then exact correction
    x = 1 << (-(-n.bit_length() // k))
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x**k > n:
        x -= 1
    while (x + 1) ** k <= n:
        x += 1
    return x


def divisors_up_to_fourth_root(n: int) -> list[int]:
    """All d with d | n and d^4 <= n, ascending.

    The membership test is d^4 <= n on integers; n = 16 includes d = 2,
    n = 15 does not.
    """
    if n < 1:
        raise ValueError(f"argument must be >= 1, got {n}")
    r = isqrt(isqrt(n))
    return [d for d in range(1, r + 1) if n % d == 0]


@dataclass(frozen=True)
class SieveSegment:
    """Smallest-prime-factor table for the inclusive range [lo, hi].

    spf[i] is the least prime factor of lo + i; the entry for 1 is the
    sentinel 1 ("unit").
    """

    lo: int
    hi: int
    spf: np.ndarray = field(repr=False)

    def spf_of(self, n: int) -> int:
        if not self.lo <= n <= self.hi:
            raise ValueError(f"{n} outside segment [{self.lo}, {self.hi}]")
        return int(self.spf[n - self.lo])

    def factor(self, n: int) -> list[tuple[int, int]]:
        """Prime-power factorization of n using the table for the first step.

        A cofactor that falls outside the segment is factored in one
        _factor_int call; with lo = 1 the whole chase stays inside the table.
        """
        if not self.lo <= n <= self.hi:
            raise ValueError(f"{n} outside segment [{self.lo}, {self.hi}]")
        factors: list[tuple[int, int]] = []
        m = n
        while m > 1:
            if not self.lo <= m <= self.hi:
                factors += _factor_int(m)
                break
            p = int(self.spf[m - self.lo])
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
        factors.sort()
        return factors


def spf_sieve_segment(lo: int, hi: int) -> SieveSegment:
    """Build the smallest-prime-factor table for [lo, hi].

    Rejects inverted ranges and ranges longer than DEFAULT_SEGMENT_SIZE.
    """
    if lo < 1 or hi < lo:
        raise ValueError(f"invalid range [{lo}, {hi}]")
    length = hi - lo + 1
    if length > DEFAULT_SEGMENT_SIZE:
        raise ValueError(f"segment of {length} entries exceeds {DEFAULT_SEGMENT_SIZE}")
    root = isqrt(hi)
    if root > 1 << 26:
        raise ValueError("segment sieve supports hi <= 2^52")
    spf = np.zeros(length, dtype=np.int64)
    # descending, so the smallest prime factor is the last one written
    for p in reversed(sieve_primes(root)):
        start = max(((lo + p - 1) // p) * p, p * p)
        if start <= hi:
            spf[start - lo :: p] = p
    rest = np.nonzero(spf == 0)[0]
    spf[rest] = rest + lo  # primes in range are their own least factor
    if lo == 1:
        spf[0] = 1  # unit sentinel
    return SieveSegment(lo, hi, spf)
