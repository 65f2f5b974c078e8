"""Range verification and best-constant exploration.

Scans n in [1, n_max] and compares tau(n) against C * S(n), where S(n)
sums a divisor weight over the divisors d | n with d^k <= n. The scan is
segmented, and each segment is compared _WINDOW n at a time. In a window
tau comes from a strided sieve over prime powers p^j <= hi, which updates
tau in place on the basic slice of multiples of each p^j, and S from
harvesting multiples of each small d, so no n is factorized on its own.
Both start from patterns of period _PERIOD = 151200 in n. The tau start, a
read-only constant built at import by the sieve's own prime-power step,
holds the p^j that divide _PERIOD, and the sieve adds the other p^j of the
primes up to the cube root of hi, every one by the same rule
(_power_step). Alongside tau it keeps a uint16 word per n: its low
_LOG_BITS sum acc, a fixed-point 8 log2 of the sieved part of n, with each
r_p = round(8 log2 p) computed once per scan, and its high bits count the
small primes p with v_p(n) = 1, so that a prime's first pass is one add to
the word and none over tau. A prime between the cube and the square root
of hi divides n at most twice and touches only a second log sum, sieved
once per block of up to four windows, from which one shift of tau takes
the count of such primes, the word's count and the single prime above
sqrt(hi) that may be left over. S starts from two prefix patterns, of
periods _PERIOD and _PERIOD2 = 10296: the weights of the d with d^k <= lo
that divide _PERIOD, and of those that divide only _PERIOD2. Every other d
adds its weight from max(lo, d^k) on, one strided slice per d. Only
integer S takes the patterns: integer sums do not depend on the order of
the adds, and float64 sums keep the ascending order of d bit for bit.

Each worker thread of a scan keeps one _Workspace: tau, sqfree, S, a
scratch block for the sieve's word and log sum and then the ratios, the
block's second log sum, and the prefix patterns, updated only when the
window's prefix changes. All are reused from window to window, so a warm
window allocates no array of its length. verify_range makes them and
drops them when it returns; the module keeps no mutable state.

On the exact path the weights are clamped and C is replaced by a stand-in
c that orders every tau / S as C does (see _weight_table), so S is int32
or int64; clamping lowers only ratios below 1, and S(1) = 1.

The integer arrays are as narrow as a proven bound allows, with hi the
last n of the window's block. Each value the sieve gives tau is the tau
of a divisor of some n <= hi, and divisors pair up around sqrt(n), so it
is at most 2 sqrt(hi), or 4 tau(n / p^2) <= 2 sqrt(hi) at the multiples of
the square of a prime p above the cube root: int16 below 2^28, int32
below 2^60. acc and the second log sum stay below 8.5 log2 hi: uint8
below 2^28, uint16 above; the word is uint16 at every height. S takes the weight
table's dtype: int32 when c's numerator times the sum of the clamped
weights and c's denominator times 2 sqrt(n_max) stay below 2^31. tau is
widened to it only to be multiplied by c's denominator.

A window takes its counts, equality list and maximum from one candidate
set that provably holds every violation and equality (_compare_window).
Counters merge order-independently, and the equality list is sorted once
at the end, so reports are identical for any worker count, segment size
or window size.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from math import isfinite, isqrt, log10

import numpy as np

from .arith import (
    DEFAULT_SEGMENT_SIZE,
    divisors_from_factorization,
    factorize,
    integer_kth_root,
    sieve_primes,
    tau,
)

__all__ = [
    "CensusConfig",
    "CensusReport",
    "EqualityCase",
    "CheckpointError",
    "ScanInterrupted",
    "classify_equality_shape",
    "divisor_weight_sum",
    "ratio_payload",
    "verify_range",
    "equality_census",
    "best_constant_curve",
]

FLOAT_REL_TOL = 1e-9  # comparison tolerance on the non-integer-eta path
_RECORD_DIGITS = 4300  # Python's default digit limit on int <-> text, json's too

# Segments are compared this many n at a time, in a workspace of this
# many n per worker thread: 15.6 MB at the top of [1, 10^8], 4 MB of it
# the large primes' log sum of a block of up to _BLOCK n, sieved once for
# the block's windows. With it warm, a 2^22 segment there peaks at 0.4 MB
# in tracemalloc (1.5 MB with its equality list; 16.8 MB when it makes the
# workspace). The scan of [1, 10^8] on two threads took 2.30, 1.68, 1.27,
# 1.20 and 1.18 s with windows of 2^18 to 2^22 (medians of 3, 2-core Xeon,
# before blocks), at 46, 58, 81 and 127 MB peak RSS for 2^19 to 2^22;
# 2^20 keeps most of the speed and the RSS of a scan of fresh windows.
_WINDOW = 1 << 20
_BLOCK = 4 * _WINDOW


class CheckpointError(RuntimeError):
    """Checkpoint file unreadable, corrupt, or from a different config."""


class ScanInterrupted(RuntimeError):
    """Scan stopped on request; completed segments are in the checkpoint."""


@dataclass(frozen=True)
class CensusConfig:
    """Parameters of a range scan.

    weight "tau_power" scores a divisor as tau(d)^eta; "landreau" as
    (2^omega(d) * tau(d))^k, ignoring eta. Integer eta runs on the exact
    integer path; any other eta on float64 with FLOAT_REL_TOL comparisons.
    """

    n_max: int
    k: int = 4
    eta: int | float | Fraction = 7
    weight: str = "tau_power"
    constant: Fraction = Fraction(8)
    squarefree_only: bool = False
    segment_size: int = DEFAULT_SEGMENT_SIZE
    workers: int = 1

    def __post_init__(self) -> None:
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if self.segment_size < 1:
            raise ValueError("segment_size must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.weight not in ("tau_power", "landreau"):
            raise ValueError(f"unknown weight {self.weight!r}")
        eta = self.eta
        if isinstance(eta, float) and not isfinite(eta):
            raise ValueError("eta must be finite")
        if isinstance(eta, float) and eta.is_integer():
            eta = int(eta)
        if isinstance(eta, Fraction) and eta.denominator == 1:
            eta = int(eta)
        object.__setattr__(self, "eta", eta)
        if eta < 0:
            raise ValueError("eta must be nonnegative")
        c = self.constant
        if not isinstance(c, Fraction):
            c = Fraction(c)
            object.__setattr__(self, "constant", c)
        if c <= 0:
            raise ValueError("constant must be positive")

    @property
    def exact(self) -> bool:
        """True when every comparison runs in exact integer arithmetic."""
        return self.weight == "landreau" or isinstance(self.eta, int)

    def echo(self) -> dict:
        """Config as emitted in reports; excludes workers, which never
        affect the result."""
        eta = self.eta
        if isinstance(eta, Fraction):
            eta = str(eta)
        return {
            "n_max": self.n_max,
            "k": self.k,
            "eta": eta,
            "weight": self.weight,
            "constant": str(self.constant),
            "squarefree_only": self.squarefree_only,
            "segment_size": self.segment_size,
        }

    def digest(self) -> str:
        payload = json.dumps(self.echo(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()


@dataclass(frozen=True)
class EqualityCase:
    n: int
    shape: str
    matches_three_prime_form: bool


def ratio_payload(ratio: Fraction | float) -> dict:
    """JSON form of a max ratio: num, den and float when exact, else float."""
    if isinstance(ratio, Fraction):
        return {"num": ratio.numerator, "den": ratio.denominator, "float": float(ratio)}
    return {"float": ratio}


@dataclass
class CensusReport:
    config: CensusConfig
    violations: int
    equalities: int
    max_ratio: Fraction | float
    argmax_n: int
    elapsed: float
    segments_processed: int
    equality_ns: list[int] | None = None

    def payload(self) -> dict:
        """Deterministic JSON-ready dict; elapsed time is deliberately
        excluded so identical scans serialize identically."""
        out = {
            "config": self.config.echo(),
            "range_inclusive": [1, self.config.n_max],
            "arithmetic": "exact" if self.config.exact else "float64",
            "violations": self.violations,
            "equalities": self.equalities,
            "max_ratio": ratio_payload(self.max_ratio),
            "argmax_n": self.argmax_n,
            "segments_processed": self.segments_processed,
        }
        if not self.config.exact:
            out["float_rel_tol"] = FLOAT_REL_TOL
            out["note"] = (
                "float64 comparisons at the stated relative tolerance; "
                "exact claims require an integer eta"
            )
        if self.equality_ns is not None:
            out["equality_ns"] = self.equality_ns
        return out

    def to_json(self) -> str:
        return json.dumps(self.payload(), sort_keys=True, indent=2) + "\n"


# ----------------------------------------------------------------------
# weights


def _weight(d: int, cfg: CensusConfig) -> int | float:
    """weight(d): an exact integer on the exact path, float64 otherwise."""
    f = factorize(d)
    t = tau(f)
    if cfg.weight == "landreau":
        return (2 ** len(f.factors) * t) ** cfg.k
    if cfg.exact:
        return t**cfg.eta
    try:
        return float(t) ** float(cfg.eta)
    except OverflowError:
        raise OverflowError(f"float64 weight tau(d)^eta overflows at eta = {float(cfg.eta)}, "
                            f"d = {d}, tau(d) = {t}") from None


def divisor_weight_sum(n: int, cfg: CensusConfig) -> int | float:
    """S(n) = sum of weight(d) over d | n with d^k <= n, by direct divisor
    enumeration. Exact integer on the exact path, float64 otherwise."""
    if n < 1:
        raise ValueError("n must be >= 1")
    f = factorize(n)
    small = [d for d in divisors_from_factorization(f) if d**cfg.k <= n]
    return sum(_weight(d, cfg) for d in small)  # d = 1 makes a float sum float


def _weight_table(cfg: CensusConfig) -> tuple[np.ndarray, Fraction | None]:
    """Per-d weights for d up to floor(n_max^(1/k)), and the constant c
    that the exact compare uses in place of C (None on the float path).

    t = 2 isqrt(n_max) bounds tau, so each S / tau is a fraction of
    denominator at most t. Let x = 1 / C and y = x.limit_denominator(t);
    c = C if y = x. Else y is the closest such fraction to x and ends the
    open cell between them that holds x, a cell longer than
    1 / (y.denominator * t); 1 / c = y +- 1 / (y.denominator * (t + 1)),
    toward x, lies in it, so c orders every tau / S as C does. If
    C * (sum of the weights) < 1, every n is a violation; weights clamped
    at t + 1 and c = 1 / (their sum + 1) keep that. The weights are then
    clamped at cap = max(t, t / c) + 1: an S that changes stays >= cap >
    t / c, so its n is no violation or equality under c or C, and its
    ratio stays below 1. The dtype holds c's numerator times the clamped
    sum and c's denominator times t: int32 below 2^31, int64 below 2^62,
    else ValueError (a C far below 1 with huge weights).
    """
    d_max = integer_kth_root(cfg.n_max, cfg.k)
    if cfg.exact and cfg.weight == "tau_power" and d_max > 1:
        top = max(tau(factorize(d)) for d in range(2, d_max + 1))  # S <= d_max top^eta
        if cfg.eta >= (_RECORD_DIGITS - log10(d_max)) / log10(top):  # before any power
            raise ValueError(f"eta too large: weights up to {top}^eta "
                             f"pass {_RECORD_DIGITS} digits")
    weights = [0] + [_weight(d, cfg) for d in range(1, d_max + 1)]
    if not cfg.exact:
        if not isfinite(float(cfg.constant) * sum(weights)):  # bounds every C * S
            raise OverflowError("float64 sums of these weights times C overflow")
        return np.array(weights, dtype=np.float64), None
    t = 2 * isqrt(cfg.n_max)
    c = cfg.constant
    if c * sum(weights) < 1:
        weights = [min(v, t + 1) for v in weights]
        c = 1 / Fraction(sum(weights) + 1)
    else:
        x = 1 / c
        y = x.limit_denominator(t)
        if y != x:
            step = Fraction(1, y.denominator * (t + 1))
            c = 1 / (y + step if x > y else y - step)
    cap = max(t, c.denominator * t // c.numerator) + 1
    weights = [min(v, cap) for v in weights]
    bound = max(c.numerator * sum(weights), c.denominator * t + 1)
    if bound >= 1 << 62:
        raise ValueError(f"constant {cfg.constant} is too small for these weights: "
                         f"exact sums would need {bound.bit_length()} bits")
    return np.array(weights, dtype=np.int32 if bound < 1 << 31 else np.int64), c


# ----------------------------------------------------------------------
# segment kernels


def _scan_primes(limit: int) -> list[tuple[int, int]]:
    """The sieving primes p <= limit of a scan, ascending, each with its
    r_p = _log_weight(p)."""
    return [(p, _log_weight(p)) for p in sieve_primes(limit)]


# The tau sieve's uint16 word per n: the log in its low _LOG_BITS, the count
# of primes above them. Adding _UNIT counts a prime; adding _DOWN takes one
# back, modulo 2^16 (see _tau_segment).
_LOG_BITS = 11
_UNIT = 1 << _LOG_BITS
_DOWN = (1 << 16) - _UNIT


def _tau_dtypes(hi: int) -> tuple[type, type]:
    """The dtypes of _tau_segment's tau and acc arrays for a window ending
    at hi: tau <= 2 sqrt(hi) and acc < 8.5 log2 hi, as proved there."""
    if hi < 1 << 28:
        return np.int16, np.uint8
    return np.int32 if hi < 1 << 60 else np.int64, np.uint16


def _log_weight(p: int) -> int:
    """r_p = round(8 log2 p) for a prime p, in integers: the r with
    2^(2r-1) < p^16 < 2^(2r+1), so |r_p - 8 log2 p| < 1/2. With L the bit
    length of p^16, 2^(L-1) <= p^16 < 2^L, and r = L // 2 gives
    2r - 1 <= L - 1 and L <= 2r + 1; p^16 reaches neither bound, as it is
    a power of 2 only for p = 2, and then an even one."""
    return (p**16).bit_length() // 2


# The period of the harvest and of the tau sieve's start. 151200 =
# 2^5 * 3^3 * 5^2 * 7 is divisible by 42 of the 100 d of the default scan,
# every d <= 10 among them. The harvest's second period, 10296 =
# 2^3 * 3^2 * 11 * 13, takes 12 more: 11, 13, 22, 26, 33, 39, 44, 52, 66,
# 78, 88 and 99, the d that divide it but not _PERIOD.
_PERIOD = 151200
_PERIOD_DIVISORS = tuple(sorted(
    2**a * 3**b * 5**c * 7**e
    for a in range(6) for b in range(4) for c in range(3) for e in range(2)
))
_PERIOD2 = 10296
_PERIOD2_DIVISORS = tuple(sorted(
    2**a * 3**b * 11**c * 13**e
    for a in range(4) for b in range(3) for c in range(2) for e in range(2) if c or e
))


def _grow_pattern(state: tuple, w: np.ndarray, divisors: tuple, root: int) -> tuple:
    """state = (w, m, pattern) with pattern[i] the sum of w[d] over the
    first m divisors d that divide i, i in [0, len(pattern)), the period,
    which is the last of the divisors: the same state for the d <= root. Only new d are added when the set
    grows under the same w; another w or a smaller set rebuilds the pattern
    from zero, in its buffer when the dtype allows."""
    m = bisect_right(divisors, root)
    last_w, last_m, pattern = state
    if last_w is w and last_m == m:
        return state
    if last_w is not w or last_m > m:
        if pattern is None or pattern.dtype != w.dtype:
            pattern = np.empty(divisors[-1], dtype=w.dtype)
        pattern.fill(0)
        last_m = 0
    for d in divisors[last_m:m]:
        pattern[::d] += w[d]
    return w, m, pattern


class _Workspace:
    """One worker's window buffers, reused from window to window: tau,
    sqfree and S, each made on first use for size n and again only for
    another dtype, a scratch block of block_bytes per n, the large primes'
    log sum of the current block, and the prefix patterns. A kernel returns
    views into them, valid until its next window. verify_range makes one
    per worker thread for the scan; a kernel called without one makes its
    own, so it allocates as a fresh array would."""

    def __init__(self, size: int, block_bytes: int):
        self.size, self.block_bytes = size, block_bytes
        self._arrays: dict[str, np.ndarray] = {}
        self._prefix: tuple = (None, 0, None)  # w, d count and pattern of the last build
        self._prefix2: tuple = (None, 0, None)  # the same for _PERIOD2_DIVISORS
        self._large: tuple = (None, None, 0, [])  # block, primes, next lo, squares

    def take(self, name: str, dtype, length: int, width: int = 1) -> np.ndarray:
        """The first width * length elements of buffer name in dtype."""
        arr = self._arrays.get(name)
        if arr is None or arr.dtype != dtype or len(arr) < width * length:
            arr = np.empty(width * max(self.size, length), dtype=dtype)
            self._arrays[name] = arr
        return arr[: width * length]

    def block(self, length: int, width: int = 0) -> np.ndarray:
        """The scratch block's first max(block_bytes, width) * length bytes,
        as uint8."""
        return self.take("block", np.uint8, length, max(self.block_bytes, width))

    def prefix(self, w: np.ndarray, root: int) -> tuple | None:
        """The prefix patterns of period _PERIOD and _PERIOD2: at i, the
        sum of w[d] over the d <= root in _PERIOD_DIVISORS, and in
        _PERIOD2_DIVISORS, that divide i; None for float64 weights, and
        None in place of the second pattern while it holds no d. Each is
        kept in one buffer of w's dtype (0.6 MB and 41 KB in int32) and
        grows in place over a worker's ascending segments (_grow_pattern)."""
        if w.dtype.kind != "i":
            return None
        self._prefix = _grow_pattern(self._prefix, w, _PERIOD_DIVISORS, root)
        self._prefix2 = _grow_pattern(self._prefix2, w, _PERIOD2_DIVISORS, root)
        return self._prefix[2], self._prefix2[2] if self._prefix2[1] else None

    def large_primes(
        self, block: tuple[int, int], lo: int, hi: int, primes: list[tuple[int, int]],
        cube: int,
    ) -> tuple[np.ndarray, list[tuple[int, int]]]:
        """The window [lo, hi]'s slice of its block's big, the log sum of
        the primes p > cube (see _tau_segment), and the (first index, p^2) of
        each large p^2 with a multiple in the window. big is sieved over
        the whole block [blo, bhi] on its first window, once per block for
        windows taken in ascending order; each window then spends its slice
        in place, so a window at or below one already taken sieves the
        block again."""
        blo, bhi = block
        last_block, last_primes, next_lo, squares = self._large
        big = self.take("big", _tau_dtypes(bhi)[1], bhi - blo + 1)
        if last_block != block or last_primes is not primes or lo < next_lo:
            start = bisect_right(primes, cube, key=lambda pr: pr[0])
            big.fill(0)
            squares = []
            for p, r in primes[start:]:
                q = p * p
                if q > bhi:
                    break
                s = (-blo) % p
                if s <= bhi - blo:
                    big[s::p] += r
                    s = (-blo) % q
                    if s <= bhi - blo:
                        big[s::q] += r
                        squares.append(q)
        self._large = (block, primes, hi + 1, squares)
        return big[lo - blo : hi - blo + 1], [
            (s, q) for q in squares if (s := (-lo) % q) <= hi - lo]


def _tile(pattern: np.ndarray, lo: int, out: np.ndarray) -> None:
    """out[i] = pattern[(lo + i) % _PERIOD] for every i, in out's dtype."""
    off, i = lo % _PERIOD, 0
    while i < len(out):
        m = min(_PERIOD - off, len(out) - i)
        np.copyto(out[i : i + m], pattern[off : off + m])
        i, off = i + m, 0


def _add_tiled(pattern: np.ndarray, lo: int, out: np.ndarray) -> None:
    """out[i] += pattern[(lo + i) % len(pattern)] for every i: a head up to
    the first multiple of the period, one broadcast add over the whole
    periods as rows, and a tail."""
    period, n, off = len(pattern), len(out), lo % len(pattern)
    head = min(-lo % period, n)
    out[:head] += pattern[off : off + head]
    rows = (n - head) // period
    body = out[head : head + rows * period].reshape(rows, period)
    body += pattern
    tail = out[head + rows * period :]
    tail += pattern[: len(tail)]


def _power_step(tau, word, sqfree, s: int, q: int, j: int, r: int) -> None:
    """The tau sieve's pass over the multiples of q = p^j, the indices s,
    s + q, ..., and the one rule of every small sieving prime, with
    r = r_p. At j = 1 the word gains _UNIT + r: it counts p. At j = 2 tau
    triples, the word gains _DOWN + r, which is r - _UNIT modulo 2^16 and
    takes the count back, and sqfree is cleared. From j = 3 on tau is
    divided by j and multiplied by j + 1, and the word gains r. The
    division is exact: every multiple of p^j is one of p^(j-1), whose pass
    left the factor j in its tau (3 at j = 3). So after the passes up to
    p^j, with v_p = min(v_p(n), j), tau holds v_p + 1 where v_p >= 2, the
    count holds p where v_p = 1, and the word's low _LOG_BITS gain
    v_p r_p."""
    if j == 1:
        word[s::q] += _UNIT + r
        return
    view = tau[s::q]
    if j > 2:
        view //= j
    view *= j + 1
    word[s::q] += r if j > 2 else _DOWN + r
    if j == 2:
        sqfree[s::q] = False


def _tau_start() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """tau, the word and sqfree for the n with n % _PERIOD == i, i in
    [0, _PERIOD), from the p^e || _PERIOD alone (e = 5, 3, 2, 1 for
    p = 2, 3, 5, 7): the _power_step of every p^j | _PERIOD from index 0.
    With v = min(v_p(i), e), which is min(v_p(n), e) as p^e divides
    _PERIOD, tau is the product of v + 1 over the p with v >= 2, at most
    72, the word counts the p with v = 1 above its log, the sum of v r_p,
    and sqfree says v < 2 for every p. uint8, uint16 and bool, read-only."""
    tau = np.ones(_PERIOD, dtype=np.uint8)
    word = np.zeros(_PERIOD, dtype=np.uint16)
    sqfree = np.ones(_PERIOD, dtype=bool)
    for p in (2, 3, 5, 7):
        q, j = p, 1
        while _PERIOD % q == 0:
            _power_step(tau, word, sqfree, 0, q, j, _log_weight(p))
            q, j = q * p, j + 1
    for a in (tau, word, sqfree):
        a.flags.writeable = False
    return tau, word, sqfree


_TAU_START = _tau_start()  # the tau sieve's start, built once per process: 0.6 MB


def _tau_segment(
    lo: int, hi: int, primes: list[tuple[int, int]], ws: _Workspace | None = None,
    block: tuple[int, int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """tau(n) and a squarefree flag for every n in [lo, hi] (1 <= lo <= hi),
    a window of the block [blo, top], or its own block when block is None.

    Below, hi stands for top, the block's last n: E, the cube root and the
    dtypes come from it, so the proof covers every n of the block and its
    windows sieve alike. primes must hold every sieving prime, p^2 <= hi,
    ascending, as the (p, r_p) pairs of _scan_primes.

    tau, sqfree and a word per n start from a copy of _TAU_START, which
    holds every p^j | n with p^j | _PERIOD. The word's low _LOG_BITS are
    acc; above them, from _UNIT on, it counts primes. A strided sieve adds
    the other powers of the small sieving primes, p <= max(7, icbrt(hi)):
    for each q = p^j <= hi that does not divide _PERIOD, the multiples of q
    in the window are the basic slice [(-lo) % q :: q], which takes q's
    _power_step, the rule that built the start. So tau is the product of
    v_p(n) + 1 over the small p with v_p(n) >= 2, the count is the number
    of small p with v_p(n) = 1, and acc sums v_p(n) r_p over the small p.
    A p | _PERIOD with p^2 > hi divides n at most once, which the start
    holds.

    A large sieving prime, p > max(7, icbrt(hi)), has p^3 > hi, so an
    n <= hi has at most two of them, counted with multiplicity. Such a p
    takes no pass over tau or the word: it adds r_p to big, a second log
    sum, at its multiples and again at those of p^2, where it clears sqfree.
    big is sieved once for the whole block (_Workspace.large_primes) and
    each window spends its slice. Let 2^E <= hi < 2^(E + 1). One large
    prime leaves big = r_p < 8 log2 p + 1/2 <= 4 log2 hi + 1/2, so
    big <= 4E + 4; two leave big > 8 log2 (p1 p2) - 1 > (16/3) log2 hi - 1 >
    4E + 4, as E >= 6 once a large prime exists (p >= 11, so hi >= 121),
    and big < 8 log2 hi + 1, so big <= 8E + 8. So their count k is
    ceil(big / (4E + 4)), computed in place as
    ceil(ceil(big / 2) / (2E + 2)).

    acc + big is then the sum of v_p(n) r_p over the primes p | P of the
    part P of n built from the sieving primes and 2, 3, 5, 7. The cofactor
    n / P has no prime factor p with p^2 <= hi, so it is 1 or a single
    prime q > 7 with q^2 > hi: two such primes would make it larger than
    hi. P has at most log2 P prime factors, each with
    |r_p - 8 log2 p| < 1/2, so 7.5 log2 P < acc + big < 8.5 log2 P, or 0
    at P = 1. Let n be in [2^b, 2^(b + 1)), so b <= E. Without a cofactor
    acc + big >= 7.5 log2 n >= 7.5 b >= 8b - E. With one, q > 2^(E/2):
    n = q at P = 1, where the sum is 0 and E < 2(b + 1) < 8b, as n >= 11
    gives b >= 3; else n >= 2q > 22, so E >= b >= 4, and the sum is below
    8.5 log2 (n / q) < 8.5 (b + 1 - E/2), which is at most 8b - E when
    0.5 b + 8.5 <= 3.25 E, true for b <= E and E >= 4. So the cofactor is
    a prime exactly where acc + big < max(8b - E, 0), a flag that
    overwrites acc one power-of-two range at a time. Two large primes
    leave no room for a cofactor above sqrt(hi), so tau shifts once, by
    the count plus the flag plus k. That multiplies tau by 4 at the
    multiples of a large p^2, where v_p(n) + 1 is 3, so they take 3/4
    afterwards.

    tau, acc and big take the dtypes of _tau_dtypes(hi), which hold every
    value they pass through. Each value of tau, also between the division
    and the multiplication, is the tau of a divisor of n, so at most
    2 sqrt(hi), but at the multiples of a large p^2 before the 3/4: there
    it is 4 tau(n / p^2) <= 8 (hi / p^2)^(1/2) < 8 hi^(1/6) <= 2 sqrt(hi),
    as hi >= 64. So int64 tau holds below 2^124, and the word's layout is
    proved up to there. acc + big < 8.5 log2 hi, under 238 below 2^28 and
    1054 below 2^124, bounds acc, and big, and k's steps keep big at most
    8E + 9. The word is uint16 at every height: its log is acc, under
    2^_LOG_BITS = 2048, and its count, in the 5 bits above, is at most the
    number of primes from 2 on whose product is at most hi: 9 below 2^28,
    15 below 2^60 and 25 below 2^124. The count is at least 1 where the
    j = 2 pass takes it back, as every multiple of p^2 is one of p. The
    final shift is at most the count plus 2. The returned tau is therefore
    int16 below 2^28; callers widen it before any arithmetic that could
    leave that range. The word and acc take the first 2 + acc bytes per n
    of the workspace's scratch block, 3 below 2^28 and 4 above; tau and
    sqfree are its buffers.
    """
    length = hi - lo + 1
    blo, top = block or (lo, hi)
    tau_dtype, acc_dtype = _tau_dtypes(top)
    width = 2 + np.dtype(acc_dtype).itemsize  # scratch bytes per n: word and acc
    ws = ws or _Workspace(length, width)
    tau, sqfree = ws.take("tau", tau_dtype, length), ws.take("sqfree", bool, length)
    scratch = ws.block(length, width)
    word = scratch[: 2 * length].view(np.uint16)
    acc = scratch[2 * length : width * length].view(acc_dtype)
    for a, out in zip(_TAU_START, (tau, word, sqfree)):
        _tile(a, lo, out)
    cube = max(7, integer_kth_root(top, 3))
    for p, r in primes:
        if p > cube:
            break
        q, j = p, 1
        while _PERIOD % q == 0:  # the start holds p^j
            q, j = q * p, j + 1
        while q <= hi:
            s = (-lo) % q
            if s >= length:
                break  # no multiple of q here, nor of any higher power
            _power_step(tau, word, sqfree, s, q, j, r)
            q, j = q * p, j + 1
    big, squares = ws.large_primes((blo, top), lo, hi, primes, cube)
    for s, q in squares:
        sqfree[s::q] = False
    E = top.bit_length() - 1
    np.bitwise_and(word, _UNIT - 1, out=acc)
    word >>= _LOG_BITS  # the count of the small p with v_p(n) = 1
    acc += big  # the log of P
    big += 1  # big becomes k = ceil(ceil(big / 2) / (2E + 2))
    big >>= 1
    big += 2 * E + 1
    big //= 2 * E + 2
    for b in range(lo.bit_length() - 1, hi.bit_length()):
        a, z = max(lo, 1 << b) - lo, min(hi, (2 << b) - 1) - lo + 1
        np.less(acc[a:z], max(8 * b - E, 0), out=acc[a:z])
    acc += big
    acc += word
    tau <<= acc  # one pass over tau for the count, the cofactor and the large primes
    for s, q in squares:
        view = tau[s::q]
        view >>= 2
        view *= 3
    return tau, sqfree


def _harvest_segment(
    lo: int, hi: int, cfg: CensusConfig, w: np.ndarray, ws: _Workspace | None = None,
) -> np.ndarray:
    """S(n) for every n in [lo, hi]: each d with d^k <= hi contributes
    weight(d) to its multiples n >= d^k.

    S starts from the workspace's prefix patterns, which hold w[d] at the
    multiples of each d | _PERIOD with d^k <= lo (d | n exactly when
    d | n % _PERIOD), and of each d | _PERIOD2 with d^k <= lo that does not
    divide _PERIOD; every other d adds w[d] at its multiples from
    max(lo, d^k) on. S is only added to, so it stays in [0, sum of w] and
    the order of integer adds does not matter; float64 weights take no
    pattern and add in ascending d. S is the workspace's buffer.
    """
    length = hi - lo + 1
    ws = ws or _Workspace(length, 0)
    S = ws.take("S", w.dtype, length)
    root = integer_kth_root(lo, cfg.k)
    patterns = ws.prefix(w, root)
    if patterns is None:
        S.fill(0)
    else:
        _tile(patterns[0], lo, S)
        if patterns[1] is not None:
            _add_tiled(patterns[1], lo, S)
    d = 1
    while d**cfg.k <= hi:
        if patterns is None or d > root or (_PERIOD % d and _PERIOD2 % d):
            start = ((max(lo, d**cfg.k) + d - 1) // d) * d
            if start <= hi:
                S[start - lo :: d] += w[d]
        d += 1
    return S


@dataclass
class _SegmentResult:
    lo: int
    hi: int
    violations: int
    equalities: int
    max_num: int | float
    max_den: int
    argmax_n: int
    equality_ns: list[int] | None = None


def _ratio_greater(num_a, den_a, n_a: int, num_b, den_b, n_b: int) -> bool:
    """True when ratio a beats ratio b; ties go to the smaller n."""
    lhs = num_a * den_b
    rhs = num_b * den_a
    if lhs != rhs:
        return lhs > rhs
    return n_a < n_b


def _merge(out: _SegmentResult, r: _SegmentResult) -> None:
    """Fold r into out in place: counts add, r's equality list extends
    out's, and the better ratio stays (ties to the smaller n). The start
    value (0, 1, -1) loses to any real ratio."""
    out.violations += r.violations
    out.equalities += r.equalities
    if out.equality_ns is not None:
        out.equality_ns += r.equality_ns
    if _ratio_greater(
        r.max_num, r.max_den, r.argmax_n, out.max_num, out.max_den, out.argmax_n
    ):
        out.max_num, out.max_den, out.argmax_n = r.max_num, r.max_den, r.argmax_n


def _scan_segment(
    lo: int, hi: int, cfg: CensusConfig, w: np.ndarray, primes: list[tuple[int, int]],
    collect: bool, ws: _Workspace,
) -> _SegmentResult:
    """[lo, hi] compared _WINDOW n at a time in the worker's workspace,
    in blocks of at most _BLOCK n that end at hi at the latest, each
    window folded into one result as it finishes. Clamped weights lower
    only ratios below 1; a best ratio below 1 (no prime in a tiny segment)
    is redone n by n, so records keep exact S."""
    res = _SegmentResult(lo, hi, 0, 0, 0, 1, -1, [] if collect else None)
    for b_lo in range(lo, hi + 1, _BLOCK):
        block = (b_lo, min(b_lo + _BLOCK - 1, hi))
        for a in range(b_lo, block[1] + 1, _WINDOW):
            _merge(res, _compare_window(a, min(a + _WINDOW - 1, block[1]), cfg, w, primes,
                                        collect, ws, block))
    if cfg.exact and res.max_num < res.max_den:
        res.max_num, res.max_den, res.argmax_n = _scan_segment_python(lo, hi, cfg)
    return res


def _scan_segment_python(lo: int, hi: int, cfg: CensusConfig) -> tuple[int, int, int]:
    """(tau, S, n) of the largest exact ratio on [lo, hi], n by n; ties go
    to the smallest n, and with no eligible n (0, 1, -1) stays."""
    best = (0, 1, -1)
    for n in range(lo, hi + 1):
        f = factorize(n)
        if cfg.squarefree_only and any(a > 1 for a in f.exponents):
            continue
        cand = (tau(f), divisor_weight_sum(n, cfg), n)
        if _ratio_greater(*cand, *best):
            best = cand
    return best


def _exact_argmax(
    tau: np.ndarray, S: np.ndarray, cand: np.ndarray, lo: int
) -> tuple[int, int, int]:
    """(tau, S, n) of the largest exact ratio tau / S among the ascending
    indices cand, the n of index i being lo + i; ties go to the smallest n.

    A stable sort by (tau, S) keeps ascending index within a pair. In a
    run of one tau, S ascends, so the run's first candidate has the run's
    largest ratio and the smallest index among the copies of its pair;
    every other candidate of the run loses to it. Only those firsts are
    compared. At the top of [1, 10^8] nearly every candidate is an
    equality case with the pair (8, 1), so this replaces a Python loop over
    thousands of candidates per window by one over a handful.
    """
    t, s = tau[cand], S[cand]
    order = np.lexsort((s, t))
    t, s = t[order], s[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = t[1:] != t[:-1]
    best = (0, 1, -1)
    for num, den, i in zip(t[first].tolist(), s[first].tolist(),
                           cand[order[first]].tolist()):
        if _ratio_greater(num, den, lo + i, *best):
            best = (num, den, lo + i)
    return best


def _ratio_dtype(cfg: CensusConfig) -> type:
    return np.float32 if cfg.exact else np.float64


def _compare_window(
    lo: int, hi: int, cfg: CensusConfig, w: np.ndarray, primes: list[tuple[int, int]],
    collect: bool, ws: _Workspace | None = None, block: tuple[int, int] | None = None,
) -> _SegmentResult:
    """tau(n) against C * S(n) for every n in [lo, hi], C = cfg.constant
    (the stand-in c on the exact path), S in the dtype of w. block is the
    window's block for the tau sieve (_tau_segment).

    Ratios tau / S, float32 on the exact path and float64 on the float
    path, -inf where squarefree_only excludes n, pick the candidates with
    ratio >= min(peak, C) * (1 - 1e-5). Only they are compared exactly:
    for the counts, the equality list and, within 1e-5 of the peak, the
    exact maximum. Each n with tau / S >= C is a candidate. float32 holds
    tau (< 2^24) exactly and errs by about 1.2e-7 in S and the quotient. A
    float-path violation or equality has tau >= C S (1 - 1e-9) if C S >= 1,
    else tau >= 1 > C S; float64 gives a gathered subset the same bits.

    The ratios fill the workspace's scratch block, whose sieve scratch is
    spent by then, and the candidate mask the sqfree buffer, once it has
    masked the ratios: no array spans the window outside the workspace.
    """
    length, rdt = hi - lo + 1, _ratio_dtype(cfg)
    ws = ws or _Workspace(length, np.dtype(rdt).itemsize)
    tau, sqfree = _tau_segment(lo, hi, primes, ws, block)
    S = _harvest_segment(lo, hi, cfg, w, ws)
    ratio = ws.block(length).view(rdt)[:length]
    np.divide(tau, S, out=ratio, dtype=rdt)
    if cfg.squarefree_only:
        np.logical_not(sqfree, out=sqfree)
        np.copyto(ratio, -np.inf, where=sqfree)
    peak = float(ratio.max())
    if peak == float("-inf"):
        # nothing eligible (squarefree_only); (0, 1, -1) loses every merge
        return _SegmentResult(lo, hi, 0, 0, 0, 1, -1, [] if collect else None)
    C = cfg.constant
    cand = np.flatnonzero(
        np.greater_equal(ratio, min(peak, float(C)) * (1.0 - 1e-5), out=sqfree))
    t, s = tau[cand], S[cand]
    if cfg.exact:
        lhs, rhs = C.denominator * t.astype(s.dtype), C.numerator * s
        viol, eq = lhs > rhs, lhs == rhs
        best = _exact_argmax(tau, S, cand[ratio[cand] >= peak * (1.0 - 1e-5)], lo)
    else:
        rhs_f = float(C) * s
        tol = FLOAT_REL_TOL * np.maximum(rhs_f, 1.0)
        viol, eq = t > rhs_f + tol, np.abs(t - rhs_f) <= tol
        best = (peak, 1, lo + int(np.argmax(ratio)))  # the first (smallest n) peak
    return _SegmentResult(
        lo, hi, int(np.count_nonzero(viol)), int(np.count_nonzero(eq)), *best,
        (cand[eq] + lo).tolist() if collect else None,
    )


# ----------------------------------------------------------------------
# checkpointing

_CHECKPOINT_MAGIC = "divbound-checkpoint"
# Records carry "digest", the sha256 of the record's canonical JSON
# without that key. Version-1 files had none, so they are refused.
_CHECKPOINT_VERSION = 2


def _record_digest(rec: dict) -> str:
    return hashlib.sha256(json.dumps(rec, sort_keys=True).encode()).hexdigest()


class _Checkpoint:
    def __init__(self, path: str, cfg: CensusConfig, collect: bool):
        self.path = path
        self.cfg = cfg
        self.collect = collect
        self.lock = threading.Lock()
        self._fh = None
        self._valid_bytes = 0

    def load(self) -> dict[tuple[int, int], _SegmentResult]:
        """The file's records by (lo, hi), none when it is absent or empty."""
        done: dict[tuple[int, int], _SegmentResult] = {}
        if not os.path.exists(self.path):
            return done
        try:
            with open(self.path, "rb") as fh:
                raw_bytes = fh.read()
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint {self.path}: {exc}")
        lines = raw_bytes.split(b"\n")
        # bytes after the last newline are a record cut short mid-write: it
        # is dropped and redone, even when it happens to parse
        partial = lines.pop()
        body = [ln for ln in lines if ln]
        if not body:
            if partial:
                raise CheckpointError(f"corrupt checkpoint header in {self.path}")
            return done
        try:
            header = json.loads(body[0])
        except ValueError:  # also catches bytes that are not UTF-8
            raise CheckpointError(f"corrupt checkpoint header in {self.path}")
        if not isinstance(header, dict) or header.get("format") != _CHECKPOINT_MAGIC:
            raise CheckpointError(f"unrecognized checkpoint format in {self.path}")
        if header.get("version") != _CHECKPOINT_VERSION:
            raise CheckpointError(f"checkpoint {self.path} is version "
                                  f"{header.get('version')}; delete it and rescan")
        if header.get("config_hash") != self.cfg.digest():
            raise CheckpointError(
                "checkpoint was written for a different configuration"
            )
        for line in body[1:]:
            try:
                rec = json.loads(line)
                digest = rec.pop("digest", None)
                res = _SegmentResult(**rec)
            except (ValueError, TypeError, AttributeError):
                raise CheckpointError(f"corrupt checkpoint record in {self.path}")
            if digest != _record_digest(rec):
                raise CheckpointError(
                    f"checkpoint record digest mismatch in {self.path}"
                )
            if self.collect and res.equality_ns is None:
                raise CheckpointError(
                    "checkpoint lacks equality lists required by this run"
                )
            done[(res.lo, res.hi)] = res
        self._valid_bytes = len(raw_bytes) - len(partial)
        return done

    def open_for_append(self) -> None:
        self._fh = open(self.path, "a", encoding="utf-8")
        if self._fh.tell() > self._valid_bytes:
            # drop a half-written trailing record before appending
            self._fh.truncate(self._valid_bytes)
        if self._valid_bytes == 0:
            header = {
                "format": _CHECKPOINT_MAGIC,
                "version": _CHECKPOINT_VERSION,
                "config_hash": self.cfg.digest(),
            }
            self._fh.write(json.dumps(header, sort_keys=True) + "\n")
            self._flush()

    def record(self, res: _SegmentResult) -> None:
        with self.lock:
            if self._fh is not None:
                rec = asdict(res)
                if res.equality_ns is None:
                    del rec["equality_ns"]
                rec["digest"] = _record_digest(rec)
                self._fh.write(json.dumps(rec, sort_keys=True) + "\n")
                self._flush()

    def _flush(self) -> None:
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


# ----------------------------------------------------------------------
# drivers


def verify_range(
    cfg: CensusConfig,
    checkpoint: str | None = None,
    collect_equalities: bool = False,
    progress=None,
    stop_event: threading.Event | None = None,
) -> CensusReport:
    """Scan [1, n_max] and report violations / equalities / max ratio of
    tau(n) against constant * S(n).

    Resumable: with a checkpoint path, completed segments are skipped on
    restart and the merged report is identical to an uninterrupted run.
    A corrupt record, or one whose digest does not match, raises
    CheckpointError.
    Raises ScanInterrupted after checkpointing when stop_event is set.
    progress(done, total) is called from the worker threads, one call at
    a time.
    """
    t0 = time.monotonic()
    w, c = _weight_table(cfg)
    # the kernels compare with c; the report and the checkpoint keep cfg
    scan_cfg = cfg if c is None else replace(cfg, constant=c)
    primes = _scan_primes(max(isqrt(cfg.n_max), 2))
    size = min(_WINDOW, cfg.segment_size, cfg.n_max)
    block_bytes = np.dtype(_ratio_dtype(cfg)).itemsize

    starts = range(1, cfg.n_max + 1, cfg.segment_size)

    def segments():  # (lo, hi) of each segment, ascending
        return ((lo, min(lo + cfg.segment_size - 1, cfg.n_max)) for lo in starts)

    ckpt, done = None, {}
    if checkpoint is not None:
        ckpt = _Checkpoint(checkpoint, cfg, collect_equalities)
        done = ckpt.load()
        ckpt.open_for_append()

    # every segment is folded into total as it finishes, the resumed ones first
    total = _SegmentResult(1, cfg.n_max, 0, 0, 0, 1, -1, [] if collect_equalities else None)
    count, finished = len(starts), 0
    for seg in segments():
        if seg in done:
            _merge(total, done[seg])
            finished += 1
    pending = (seg for seg in segments() if seg not in done)
    lock, halt = threading.Lock(), threading.Event()

    def work() -> None:
        # Each worker pulls segments until none is left, stop_event is set,
        # or halt is: by a fault in any worker or the caller leaving. The
        # segment it is on still finishes and reaches the checkpoint.
        nonlocal finished
        ws = _Workspace(size, block_bytes)  # this worker's, for this scan only
        try:
            while True:
                with lock:
                    stop = halt.is_set() or (stop_event is not None and stop_event.is_set())
                    seg = None if stop else next(pending, None)
                if seg is None:
                    return
                res = _scan_segment(*seg, scan_cfg, w, primes, collect_equalities, ws)
                if ckpt is not None:
                    ckpt.record(res)
                with lock:
                    _merge(total, res)
                    finished += 1
                    if progress is not None:
                        progress(finished, count)
        finally:
            halt.set()  # a stop or a fault halts the others; after the last segment it is moot

    workers = max(1, min(cfg.workers, count - finished))
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        for fut in [pool.submit(work) for _ in range(workers)]:
            fut.result()
    finally:
        halt.set()
        pool.shutdown()
        if ckpt is not None:
            ckpt.close()
    if finished < count:
        raise ScanInterrupted("scan interrupted; completed segments checkpointed")

    if collect_equalities:
        total.equality_ns.sort()  # segments finish in any order
    if cfg.exact:
        max_ratio: Fraction | float = Fraction(int(total.max_num), int(total.max_den))
    else:
        max_ratio = float(total.max_num)

    return CensusReport(
        config=cfg,
        violations=total.violations,
        equalities=total.equalities,
        max_ratio=max_ratio,
        argmax_n=total.argmax_n,
        elapsed=time.monotonic() - t0,
        segments_processed=count,
        equality_ns=total.equality_ns,
    )


def classify_equality_shape(n: int) -> EqualityCase:
    """Factor an equality case and test the three-large-primes form:
    squarefree, exactly three primes, every prime above n^(1/4)."""
    f = factorize(n)
    shape = "*".join(
        f"p{i+1}" + (f"^{a}" if a > 1 else "") for i, (_, a) in enumerate(f.factors)
    )
    matches = (
        len(f.factors) == 3
        and all(a == 1 for _, a in f.factors)
        and min(f.primes) ** 4 > n
    )
    return EqualityCase(n, shape or "1", matches)


def equality_census(
    cfg: CensusConfig, checkpoint: str | None = None, progress=None
) -> list[EqualityCase]:
    """Every equality case tau(n) = constant * S(n) in range, classified
    by factorization shape. Any case that is not a product of three primes
    all above n^(1/4) deserves attention."""
    report = verify_range(
        cfg, checkpoint=checkpoint, collect_equalities=True, progress=progress
    )
    return [classify_equality_shape(n) for n in report.equality_ns or []]


def best_constant_curve(
    n_max: int,
    k: int = 4,
    eta_grid: list[int | float | Fraction] | None = None,
    squarefree_only: bool = False,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    workers: int = 1,
) -> list[tuple[int | float | Fraction, Fraction | float, int]]:
    """Empirical best constant max_n tau(n)/S_eta(n) for each eta in the
    grid, ascending; nonincreasing in eta since S_eta is nondecreasing."""
    if not eta_grid:
        raise ValueError("eta_grid must be nonempty")
    base = CensusConfig(
        n_max=n_max,
        k=k,
        squarefree_only=squarefree_only,
        segment_size=segment_size,
        workers=workers,
    )
    out = []
    for eta in sorted(eta_grid, key=float):
        cfg = replace(base, eta=eta)
        report = verify_range(cfg)
        out.append((cfg.eta, report.max_ratio, report.argmax_n))
    return out
