"""Brute-force oracles, kept deliberately naive and independent of the
package implementation."""

from __future__ import annotations

from itertools import accumulate, product
from math import gcd, isqrt, prod


def oracle_divisors(n: int) -> list[int]:
    out = []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
    return sorted(out)


def oracle_tau(n: int) -> int:
    return len(oracle_divisors(n))


def oracle_factor(n: int) -> list[tuple[int, int]]:
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1
    if m > 1:
        out.append((m, 1))
    return out


def oracle_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def oracle_is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, isqrt(n) + 1))


def oracle_weight_sum(n: int, k: int = 4, eta: int = 7) -> int:
    """Direct S(n): enumerate divisors, filter d^k <= n, sum tau(d)^eta."""
    total = 0
    for d in oracle_divisors(n):
        if d**k <= n:
            t = 1
            for _, a in oracle_factor(d):
                t *= a + 1
            total += t**eta
    return total


def triple_count(n_max: int) -> int:
    """Number of n = pqr <= n_max with primes p < q < r and p^3 > qr.

    The paper's equality analysis, for k = 4, eta = 7 and C = 8. S(n) = 1
    exactly when the least prime p of n has p^4 > n. Then n has at most
    three prime factors, counted with multiplicity, so tau(n) <= 8, with
    equality exactly at n = pqr, p < q < r, where p^4 > n is p^3 > qr.
    Otherwise some d > 1 with d^4 <= n adds at least 2^7 to S(n), so
    8 S(n) >= 1032, and n is an equality or a violation only if
    tau(n) >= 1032. So the census's equality count is this count plus the
    equalities among the n <= n_max with tau(n) >= 1032, derived without
    its sieve; below 10^8 no tau(n) reaches 1032.
    """
    c = round(n_max ** (1 / 3))
    while c**3 > n_max:
        c -= 1
    while (c + 1) ** 3 <= n_max:
        c += 1
    limit = c * c  # p^3 < n_max, so p <= c and r < p^2 <= c^2
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\0\0"
    for i in range(2, isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, limit + 1, i)))
    pi = list(accumulate(sieve))  # pi[m] = number of primes <= m
    primes = [m for m in range(limit + 1) if sieve[m]]
    total = 0
    for p in primes:
        if p**3 >= n_max:
            break
        for q in primes[pi[p]:]:
            r_max = min(n_max // (p * q), (p**3 - 1) // q)
            if r_max <= q:
                break  # r_max only falls as q grows
            total += pi[r_max] - pi[q]
    return total


def high_tau_numbers(n_max: int, floor: int = 1032):
    """Every n <= n_max with tau(n) >= floor, as (n, [(p, e), ...]) in no
    set order, by a depth-first walk that picks each prime of n and its
    exponent in ascending order of the primes.

    A branch at m, with tau(m) = t and every further prime at least p, is
    cut when t * 2^K < floor, K the most prime factors, counted with
    multiplicity, that the rest of n can have: the largest K with
    p^K <= n_max // m. tau of the rest is at most 2^K, and K only falls as
    p grows, so no later prime is tried either. With floor = 1032 this
    lists the only n that can be an equality or a violation beyond the
    three-prime ones of triple_count.
    """
    primes = [2]

    def prime(i: int) -> int:
        while len(primes) <= i:
            q = primes[-1] + 1
            while not oracle_is_prime(q):
                q += 1
            primes.append(q)
        return primes[i]

    def walk(m: int, t: int, i: int, factors: list[tuple[int, int]]):
        if t >= floor:
            yield m, factors
        budget = n_max // m
        while True:
            p, K = prime(i), 0
            while p ** (K + 1) <= budget:
                K += 1
            if K == 0 or t << K < floor:
                return
            q, e = p, 1
            while q <= budget:
                yield from walk(m * q, t * (e + 1), i + 1, factors + [(p, e)])
                q, e = q * p, e + 1
            i += 1

    return walk(1, 1, 0, [])


def weight_sum_from_exponents(factors: list[tuple[int, int]], k: int = 4,
                              eta: int = 7) -> int:
    """S(n) for n = prod p^e over factors, from the exponents alone: the sum
    of tau(d)^eta over the d = prod p^a, 0 <= a <= e, with d^k <= n."""
    n = prod(p**e for p, e in factors)
    total = 0
    for exps in product(*(range(e + 1) for _, e in factors)):
        d = prod(p**a for (p, _), a in zip(factors, exps))
        if d**k <= n:
            total += prod(a + 1 for a in exps) ** eta
    return total
