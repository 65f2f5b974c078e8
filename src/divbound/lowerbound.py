"""Prime families showing the constant 2^(k-1) cannot be beaten.

For a root exponent k, the product of k-1 primes packed tightly above
2^((k-1)(k-2)/2) has no divisor d > 1 with d^k <= n, so any multiplicative
weight sums to f(1) = 1 over the admissible divisors while tau(n) = 2^(k-1).
For k = 4 these n are exactly the equality cases of the census.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import (
    Factorization,
    divisors_from_factorization,
    factorize,
    is_prime,
    next_prime_in,
    tau,
)
from .witness import CertificationError

__all__ = ["LowerBoundInstance", "build_instance", "verify_instance"]

# Largest k whose leading prime stays inside the deterministic primality
# range: 2^((k-1)(k-2)/2) must leave headroom below 2^64.
MAX_K = 12


def _tau_pow7(d: int) -> int:
    return tau(factorize(d)) ** 7


@dataclass(frozen=True)
class LowerBoundInstance:
    """k-1 primes p_1 < ... < p_{k-1} with p_1 > 2^((k-1)(k-2)/2),
    p_2 < 2 p_1 and p_i < 2^(i-1) p_1, so that n = prod p_i satisfies
    p_1^k > n and tau(n)/S(n) = 2^(k-1) for every multiplicative weight."""

    k: int
    primes: tuple[int, ...]
    n: int
    ratio: Fraction


def build_instance(k: int, seed_above: int | None = None) -> LowerBoundInstance:
    """Canonical instance for k: each prime is the smallest admissible one.

    seed_above shifts the leading prime to the smallest prime exceeding it
    (still at least the default threshold), giving alternative families.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if k > MAX_K:
        raise OverflowError(
            f"k = {k} needs primes beyond the supported 64-bit range (max k = {MAX_K})"
        )
    threshold = 1 << ((k - 1) * (k - 2) // 2)
    if seed_above is not None:
        threshold = max(threshold, seed_above)
    primes = []
    p1 = next_prime_in(threshold, 2 * threshold + 2)
    if p1 is None:  # unreachable short of a Bertrand violation
        raise RuntimeError(f"no prime found above {threshold}")
    primes.append(p1)
    for i in range(2, k):
        upper = 2 ** (i - 1) * p1
        q = next_prime_in(primes[-1], upper)
        if q is None:
            raise RuntimeError(
                f"no prime between {primes[-1]} and {upper}; instance impossible"
            )
        primes.append(q)
    n = 1
    for p in primes:
        n *= p
    inst = LowerBoundInstance(k, tuple(primes), n, Fraction(2 ** (k - 1)))
    problems: list[str] = []
    if not verify_instance(inst, diagnostics=problems):
        raise CertificationError(
            "constructed instance failed verification: " + "; ".join(problems)
        )
    return inst


def verify_instance(
    inst: LowerBoundInstance,
    weight=None,
    diagnostics: list[str] | None = None,
) -> bool:
    """Recheck every invariant of an instance with exact arithmetic.

    weight is any multiplicative divisor weight (d -> number, f(1) = 1);
    default is tau(d)^7. Returns False and appends a diagnostic for each
    failed check rather than raising.
    """
    if weight is None:
        weight = _tau_pow7
    notes = diagnostics if diagnostics is not None else []
    ok = True

    def fail(msg: str) -> None:
        nonlocal ok
        ok = False
        notes.append(msg)

    k, primes = inst.k, inst.primes
    if k < 2:
        fail(f"k = {k} below 2")
        return False
    if len(primes) != k - 1:
        fail(f"expected {k - 1} primes, got {len(primes)}")
        return False
    if any(not is_prime(p) for p in primes):
        fail("list contains a composite")
    if list(primes) != sorted(set(primes)):
        fail("primes are not strictly increasing")
    p1 = primes[0]
    if p1 <= 1 << ((k - 1) * (k - 2) // 2):
        fail(f"p1 = {p1} not above 2^((k-1)(k-2)/2)")
    if k >= 3 and primes[1] >= 2 * p1:
        fail(f"p2 = {primes[1]} not below 2*p1")
    for i in range(3, k):
        if primes[i - 1] >= 2 ** (i - 1) * p1:
            fail(f"p{i} = {primes[i - 1]} not below 2^{i - 1}*p1")
    n = 1
    for p in primes:
        n *= p
    if n != inst.n:
        fail(f"product {n} does not match stored n = {inst.n}")
    rest = 1
    for p in primes[1:]:
        rest *= p
    if k >= 3 and p1 ** (k - 1) <= rest:
        fail("chained inequality p1^(k-1) > p2*...*p_{k-1} fails")
    if p1**k <= n:
        fail(f"p1^{k} does not exceed n")

    f = Factorization(n, tuple((p, 1) for p in sorted(primes)))
    small = [d for d in divisors_from_factorization(f) if d**k <= n]
    if small != [1]:
        fail(f"divisors with d^{k} <= n should be [1], got {small[:5]}")
    w1 = weight(1)
    if w1 != 1:
        fail(f"weight(1) = {w1}, multiplicative weights must give 1")
    s = sum(weight(d) for d in small)
    if s != 1:
        fail(f"S(n) = {s}, expected 1")
    tau_n = 2 ** (k - 1)
    if inst.ratio != tau_n:
        fail(f"stored ratio {inst.ratio} is not tau(n)/S(n) = {tau_n}")
    return ok
