"""Sequences supported on sums of two coprime squares, their congruence
sums over multiples of d, root counts of x^2 + 1 mod d, and the
equidistribution main terms, all computable exactly at desk scale.

a_n sums a coefficient gamma_l over ordered pairs (l, m) of positive
coprime integers with l^2 + m^2 = n; coefficients live on perfect r-th
powers and never exceed 1 in magnitude. A_d(x) sums a_n over multiples of
d, and M_d(x) is its expected size given that solutions of v^2 = -1 spread
evenly over the rho(d) residue classes.

Every loop over l walks one list, _support(x, gamma): the (l, gamma_l)
with l^2 < x and gamma_l != 0, ascending. discrepancy_table reads it once
and never materializes a_n: it counts residue progressions. Take a
support point l with M = isqrt(x - l^2) and a d with gcd(l, d) = 1. An
m with d | l^2 + m^2 has m = v*l (mod d) for exactly one root v of
v^2 + 1 = 0 (mod d). Moebius inversion over the squarefree e | l keeps
the m coprime to l: for m = e*t, e*t = v*l (mod d) holds exactly when
t = v*(l/e) (mod d), as gcd(e, d) = 1. So

  #{m <= M : gcd(m, l) = 1, d | l^2 + m^2}
    = sum over e | rad(l) of mu(e) * sum over roots v of
      #{1 <= t <= T : t = c (mod d)},  T = floor(M/e), c = v*(l/e) mod d,

where c is taken in [1, d] and the count is floor((T - c)/d) + 1. For
d >= 3 the roots pair as v, d - v, c is never 0 (v and l/e are units mod
d), and one pair counts floor((T - c)/d) + floor((T + c)/d) + 1. For
d <= 2 the one class is t = 1 (mod d). An l sharing a prime p with d
adds nothing, since p | l^2 + m^2 would force p | m. The table builds the
entries (l, e) with T > 0 once as flat arrays and, per d, takes the dot
product of their counts with mu(e) * L * gamma_l: its cost is about the
sum over d of rho(d)/2 times the number of entries, and it holds no
array indexed by n. The M_d summands are built once per table as arrays;
each M_d adds those with gcd(l, d) = 1 by np.cumsum, one at a time in
ascending l, so main_term_M and the table give the bits of a plain +=
loop.

The sums stay exact integers: every coefficient is scaled by L, the least
common multiple of their denominators, and A_d is returned as
Fraction(L * A_d, L), an int when whole. The counts of one entry over all
roots add up to at most T, since the classes are disjoint, and
sum over e | rad(l) of floor(M/e) <= M * prod over p | l of (1 + 1/p),
which is below 3M for every l < 10^4 = sqrt(DEFAULT_MAX_X) (the largest
product, at l = 2310, is 2.99). Summed over l, M counts the lattice
points (l, m) >= 1 of the quarter disc of radius sqrt(x), at most x. So
every partial sum of the products is at most 3 * L * x in magnitude; the
weights are int64 when 3 * L * x < 2^63 and Python ints (object dtype)
otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product as iter_product
from math import gcd, isqrt, lcm, sqrt

import numpy as np

from .arith import factorize, integer_kth_root, sieve_primes

__all__ = [
    "GammaSpec",
    "GaussianRow",
    "GaussianTable",
    "CostCeilingError",
    "sequence_a",
    "rho",
    "congruence_sum_A",
    "congruence_sum_A_via_residues",
    "main_term_M",
    "discrepancy_table",
]

# Largest x a table or sequence accepts. It keeps l < 10^4, which the
# int64 bound of the table's counting kernel relies on, and caps the dict
# of sequence_a. At this x, `gaussian --x 10^8 --d-max 10` takes 0.04-0.05 s
# and peaks at 43 MB RSS on a 2-core Xeon (Python 3.11.7, numpy 2.4.6).
DEFAULT_MAX_X = 10**8
DEFAULT_COST_CEILING = 10**9


class CostCeilingError(RuntimeError):
    """Requested table is beyond the configured desk-scale budget."""


def is_rth_power(l: int, r: int) -> bool:
    return integer_kth_root(l, r) ** r == l


@dataclass(frozen=True)
class GammaSpec:
    """Coefficient family gamma_l: zero off perfect r-th powers, magnitude
    at most 1. Mode "all_ones" puts 1 on every r-th power; mode "table"
    reads explicit rational coefficients."""

    r: int = 1
    mode: str = "all_ones"
    table: dict[int, Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError("power support r must be >= 1")
        if self.mode not in ("all_ones", "table"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "table":
            clean = {}
            for l, c in self.table.items():
                if l < 1:
                    raise ValueError(f"support point {l} must be positive")
                c = Fraction(c)
                if not is_rth_power(l, self.r):
                    raise ValueError(
                        f"coefficient at {l}: support must be a perfect {self.r}-th power"
                    )
                if abs(c) > 1:
                    raise ValueError(f"coefficient at {l} has magnitude {c} > 1")
                clean[l] = c
            object.__setattr__(self, "table", clean)
        elif self.table:
            raise ValueError("mode all_ones takes no table")

    def coefficient(self, l: int) -> int | Fraction:
        if self.mode == "all_ones":
            return 1 if is_rth_power(l, self.r) else 0
        return self.table.get(l, Fraction(0))

    @classmethod
    def from_file(cls, path: str, r: int = 1) -> "GammaSpec":
        """Parse whitespace-separated "l coefficient" lines; # comments ok."""
        table: dict[int, Fraction] = {}
        first_line: dict[int, int] = {}
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                parts = line.split()
                if len(parts) != 2:
                    raise ValueError(f"{path}:{line_no}: expected 'l coefficient'")
                try:
                    l = int(parts[0])
                    c = Fraction(parts[1])
                except (ValueError, ZeroDivisionError) as exc:
                    raise ValueError(f"{path}:{line_no}: {exc}")
                if l in first_line:
                    raise ValueError(
                        f"{path}:{line_no}: duplicate support point {l} "
                        f"(first given on line {first_line[l]})"
                    )
                first_line[l] = line_no
                table[l] = c
        return cls(r=r, mode="table", table=table)


def _check_x(x: int) -> None:
    if x < 1:
        raise ValueError("x must be >= 1")
    if x > DEFAULT_MAX_X:
        raise ValueError(f"x = {x} exceeds the memory ceiling {DEFAULT_MAX_X}")


def _support(x: int, gamma: GammaSpec) -> list[tuple[int, int | Fraction]]:
    """The (l, gamma_l) with l^2 < x and gamma_l != 0, l ascending."""
    if gamma.mode == "table":
        return sorted((l, c) for l, c in gamma.table.items() if c and l * l < x)
    return [(j**gamma.r, 1) for j in range(1, integer_kth_root(x - 1, 2 * gamma.r) + 1)]


def sequence_a(x: int, gamma: GammaSpec) -> dict[int, int | Fraction]:
    """a_n for n <= x as a sparse map, by enumerating ordered coprime pairs
    (l, m) with l^2 + m^2 <= x and adding gamma_l at l^2 + m^2. Exact."""
    _check_x(x)
    a: dict[int, int | Fraction] = {}
    for l, cl in _support(x, gamma):
        ll = l * l
        for m in range(1, isqrt(x - ll) + 1):
            if gcd(l, m) == 1:
                n = ll + m * m
                a[n] = a.get(n, 0) + cl
    return a


def _sqrt_minus_one_mod_p(p: int) -> int:
    """A root of v^2 = -1 mod p for p = 1 (mod 4), deterministically from
    the smallest quadratic non-residue."""
    for c in range(2, p):
        if pow(c, (p - 1) // 2, p) == p - 1:
            return pow(c, (p - 1) // 4, p)
    raise ArithmeticError(f"no non-residue found; {p} is not an odd prime")


def _lift_root(v: int, p: int, a: int) -> int:
    """Lift a root of v^2 + 1 = 0 from mod p to mod p^a (odd p)."""
    mod = p
    for _ in range(a - 1):
        mod *= p
        correction = (v * v + 1) % mod
        v = (v - correction * pow(2 * v, -1, mod)) % mod
    return v


def _roots_and_primes(d: int) -> tuple[list[int], list[int]]:
    """The residues v in [0, d) with v^2 + 1 = 0 (mod d), ascending, and
    the distinct primes of d, ascending, from one factorization of d."""
    if d < 1:
        raise ValueError("modulus must be a positive integer")
    if d == 1:
        return [0], []
    factors = factorize(d).factors
    primes = [p for p, _ in factors]
    components: list[tuple[int, list[int]]] = []
    for p, a in factors:
        pa = p**a
        if p == 2:
            if a >= 2:
                return [], primes
            components.append((2, [1]))
        elif p % 4 == 3:
            return [], primes
        else:
            v = _lift_root(_sqrt_minus_one_mod_p(p), p, a)
            components.append((pa, sorted((v, pa - v))))
    roots = []
    for combo in iter_product(*(r for _, r in components)):
        v, mod = 0, 1
        for (pa, _), residue in zip(components, combo):
            # CRT merge of (v mod mod) and (residue mod pa)
            inc = (residue - v) * pow(mod, -1, pa) % pa
            v += mod * inc
            mod *= pa
        roots.append(v)
    roots.sort()
    for v in roots:
        if (v * v + 1) % d != 0:
            raise ArithmeticError(f"internal error: {v} is not a root mod {d}")
    return roots, primes


def rho(d: int) -> tuple[int, list[int]]:
    """Count and list the residues v in [0, d) with v^2 + 1 = 0 (mod d).

    Multiplicative in d: 2 roots per prime power p^a with p = 1 (mod 4),
    one for d | 2, none once 4 | d or a prime 3 (mod 4) divides d.
    rho(1) = 1 by the empty-modulus convention (the single residue 0).
    """
    roots, _ = _roots_and_primes(d)
    return len(roots), roots


def congruence_sum_A(
    x: int,
    d: int,
    gamma: GammaSpec,
    seq: dict[int, int | Fraction] | None = None,
) -> int | Fraction:
    """A_d(x): sum of a_n over n <= x divisible by d, from the materialized
    sequence (built on demand when seq is not supplied)."""
    if x < 1 or d < 1:
        raise ValueError("x and d must be >= 1")
    if seq is None:
        seq = sequence_a(x, gamma)
    total: int | Fraction = 0
    for n in range(d, x + 1, d):
        if n in seq:
            total += seq[n]
    return total


def congruence_sum_A_via_residues(
    x: int, d: int, gamma: GammaSpec
) -> int | Fraction:
    """A_d(x) computed without materializing the sequence: for each l
    coprime to d, m walks the residue classes m = v*l (mod d) over the
    roots v of v^2 + 1 = 0. Must agree exactly with congruence_sum_A."""
    if x < 1 or d < 1:
        raise ValueError("x and d must be >= 1")
    count, roots = rho(d)
    if count == 0:
        return 0
    total: int | Fraction = 0
    for l, cl in _support(x, gamma):
        if gcd(l, d) == 1:
            m_max = isqrt(x - l * l)
            for v in roots:
                m = (v * l) % d
                if m == 0:
                    m = d
                while m <= m_max:
                    if gcd(l, m) == 1:
                        total += cl
                    m += d
    return total


def _phi_and_primes(limit: int) -> tuple[list[int], list[list[int]]]:
    """phi(l) for 0 <= l <= limit (phi(0) = 0) and the distinct primes of
    each l, ascending, from one pass over the package's one prime sieve."""
    phi = np.arange(limit + 1, dtype=np.int64)
    primes_of: list[list[int]] = [[] for _ in range(limit + 1)]
    for p in sieve_primes(limit):
        phi[p::p] -= phi[p::p] // p
        for l in range(p, limit + 1, p):
            primes_of[l].append(p)
    return phi.tolist(), primes_of


def _main_terms(x: int, support: list, phis: list[int]) -> np.ndarray:
    """The terms gamma_l * (phi(l)/l) * sqrt(x - l^2) of the support
    points l, as an array in ascending l."""
    terms = [float(c) * (phis[l] / l) * sqrt(x - l * l) for l, c in support]
    return np.array(terms, dtype=np.float64)


def _coprime_mask(ls: np.ndarray, primes: list[int], masks: dict) -> np.ndarray:
    """The ls divisible by none of primes; masks caches ls % p != 0 per p."""
    keep = np.ones(len(ls), dtype=bool)
    for p in primes:
        if p not in masks:
            masks[p] = ls % p != 0
        keep &= masks[p]
    return keep


def _scaled_main_sum(terms: np.ndarray, keep: np.ndarray, d: int, count: int) -> float:
    """(count/d) times the kept terms. np.cumsum adds them one at a time
    in ascending l, the bits of a plain += loop (np.sum adds pairwise and
    the builtin sum compensates from Python 3.12)."""
    kept = terms[keep]
    total = float(np.cumsum(kept)[-1]) if len(kept) else 0.0
    return count / d * total


def main_term_M(x: int, d: int, gamma: GammaSpec) -> float:
    """M_d(x) = (rho(d)/d) * sum over l < sqrt(x), gcd(l, d) = 1 of
    gamma_l * (phi(l)/l) * sqrt(x - l^2), in double precision."""
    if x < 1 or d < 1:
        raise ValueError("x and d must be >= 1")
    roots, primes = _roots_and_primes(d)
    if not roots:
        return 0.0
    support = _support(x, gamma)
    phis, _ = _phi_and_primes(isqrt(x))
    ls = np.array([l for l, _ in support], dtype=np.int64)
    keep = _coprime_mask(ls, primes, {})
    return _scaled_main_sum(_main_terms(x, support, phis), keep, d, len(roots))


@dataclass(frozen=True)
class GaussianRow:
    d: int
    A: int | Fraction
    rho: int
    M: float
    abs_err: float


@dataclass(frozen=True)
class GaussianTable:
    """Per-d rows of (A_d(x), rho(d), M_d(x), |A_d - M_d|) plus the total
    discrepancy; the d = 1 row is the unconditional sum."""

    x: int
    d_max: int
    rows: tuple[GaussianRow, ...]
    total_err: float

    def to_csv(self) -> str:
        lines = ["d,A_d,rho_d,M_d,abs_err"]
        for row in self.rows:
            a = row.A
            a_txt = str(a) if isinstance(a, int) else repr(float(a))
            lines.append(f"{row.d},{a_txt},{row.rho},{row.M!r},{row.abs_err!r}")
        return "\n".join(lines) + "\n"


def discrepancy_table(
    x: int,
    d_max: int,
    gamma: GammaSpec,
    cost_ceiling: int = DEFAULT_COST_CEILING,
) -> GaussianTable:
    """Full table of congruence sums against main terms for d <= d_max.

    Refuses politely when x * d_max exceeds the cost ceiling.
    """
    if x < 1 or d_max < 1:
        raise ValueError("x and d_max must be >= 1")
    cost = x * d_max
    if cost > cost_ceiling:
        raise CostCeilingError(
            f"estimated cost x*d_max = {cost} exceeds the ceiling {cost_ceiling}"
        )
    _check_x(x)
    support = _support(x, gamma)
    phis, primes_of = _phi_and_primes(isqrt(x))
    terms = _main_terms(x, support, phis)
    (l, q, t, w), scale = _progression_entries(x, support, primes_of)
    masks: dict[int, np.ndarray] = {}
    rows = []
    total_err = 0.0
    for d in range(1, d_max + 1):
        roots, primes = _roots_and_primes(d)
        count = len(roots)
        a_d: int | Fraction = 0
        m_d = 0.0
        if count:
            keep = _coprime_mask(l, primes, masks)
            m_d = _scaled_main_sum(terms, keep[: len(terms)], d, count)
            if d <= x:
                scaled = _scaled_count(d, roots, q[keep], t[keep], w[keep])
                a_d = Fraction(scaled, scale)
                if a_d.denominator == 1:
                    a_d = int(a_d)
        err = abs(float(a_d) - m_d)
        total_err += err
        rows.append(GaussianRow(d, a_d, count, m_d, err))
    return GaussianTable(x, d_max, tuple(rows), total_err)


def _progression_entries(
    x: int, support: list, primes_of: list[list[int]]
) -> tuple[tuple[np.ndarray, ...], int]:
    """The entries (l, e) of the counting kernel, one per support point l
    and squarefree e | l with T = floor(isqrt(x - l^2)/e) > 0, as flat
    arrays of l, q = l/e, T and the weight mu(e) * L * gamma_l; and the
    scale L, the least common multiple of the denominators of the gamma_l.
    The first len(support) entries are those with e = 1, in the order of
    support, so a mask over the entries starts with one over the support.
    The weights are int64 when 3 * L * x < 2^63 (the module docstring
    bounds every partial sum by 3 * L * x) and Python ints otherwise."""
    scale = lcm(1, *(c.denominator for _, c in support))
    ls = [l for l, _ in support]
    qs = ls.copy()
    ts = [isqrt(x - l * l) for l in ls]
    ws = [int(c * scale) for _, c in support]
    n = len(ls)  # the e = 1 entries; the others are appended after them
    for l, m_max, w_l in zip(ls[:n], ts[:n], ws[:n]):
        # (e, mu(e) * L * gamma_l); a multiple of an e > m_max has T = 0 too
        divisors = [(1, w_l)]
        for p in primes_of[l]:
            divisors += [(e * p, -w) for e, w in divisors if e * p <= m_max]
        for e, w in divisors[1:]:
            ls.append(l)
            qs.append(l // e)
            ts.append(m_max // e)
            ws.append(w)
    dtype = np.int64 if 3 * scale * x < 1 << 63 else object
    arrays = (np.array(col, dtype=np.int64) for col in (ls, qs, ts))
    return (*arrays, np.array(ws, dtype=dtype)), scale


def _scaled_count(
    d: int, roots: list[int], q: np.ndarray, t: np.ndarray, w: np.ndarray
) -> int:
    """L * A_d(x) from the entries with gcd(l, d) = 1: the dot product of
    the weights with the number of t <= T in the root classes mod d.

    The table passes the d <= x with rho(d) > 0; every other A_d(x) is 0.
    A d > x has no multiple in [1, x]. A d with rho(d) = 0 has 4 | d or a
    prime p = 3 (mod 4) with p | d, and divides no l^2 + m^2 with
    gcd(l, m) = 1. Coprime l and m are not both even, so l^2 + m^2 is not
    0 (mod 4). If p | l^2 + m^2, p divides neither l nor m (else both), so
    (l/m)^2 = -1 (mod p), which has no solution for p = 3 (mod 4)."""
    if d <= 2:
        # the one class t = 1 (mod d) holds ceil(T/d) of the t <= T
        counts = (t + d - 1) // d
    else:
        # A pair (v, d - v) counts floor((T - u)/d) + floor((T + u)/d) + 1
        # for u = v * q reduced mod d; shifting u by a multiple of d moves
        # the two floors oppositely, so u = v * q < d * l <= 10^12 will do.
        half = roots[: len(roots) // 2]
        signed = np.array([-v for v in half] + half, dtype=np.int64)
        counts = ((t + signed[:, None] * q) // d).sum(axis=0) + len(half)
    return int(counts @ w)
