"""Range verification and best-constant exploration.

Scans n in [1, n_max] and compares tau(n) against C * S(n), where S(n)
sums a divisor weight over the divisors d | n with d^k <= n. The scan is
segmented, and each segment is compared _WINDOW n at a time. In a window
tau comes from a strided sieve over prime powers p^j <= hi, which updates
tau in place on the basic slice of multiples of each p^j, and S from
harvesting multiples of each small d, so no n is factorized on its own.
The d that divide _PERIOD = 151200 and have d^k <= lo add to S a pattern
of period _PERIOD in n, built once and copied into every window that
needs it; the others are added one strided slice per d. Only integer S
takes the pattern: integer sums do not depend on the order of the adds,
and float64 sums keep the ascending order of d bit for bit.

On the exact path the weights are clamped and C is replaced by a stand-in
c that orders every tau / S as C does (see _weight_table), so S is int32
or int64; clamping lowers only ratios below 1, and S(1) = 1.

The integer arrays are as narrow as a proven bound allows. Each value the
sieve gives tau is the tau of a divisor of some n <= hi, and divisors
pair up around sqrt(n), so it is at most 2 sqrt(hi): int16 below 2^28,
int32 below 2^60. The product of the sieved prime powers divides n, so
it fits int32 below 2^31. S takes the weight table's dtype: int32 when
c's numerator times the sum of the clamped weights and c's denominator
times 2 sqrt(n_max) stay below 2^31. tau is widened to it only to be
multiplied by c's denominator.

The exact maximum ratio is taken over the distinct (tau, S) pairs of the
candidates, not over every candidate. Counters merge order-independently,
which makes reports identical for any worker count, segment size or
window size.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from math import isfinite, isqrt

import numpy as np

from .arith import (
    DEFAULT_SEGMENT_SIZE,
    _prime_sieve,
    divisors_from_factorization,
    factorize,
    integer_kth_root,
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

# Segments are compared this many n at a time, which bounds the numpy
# temporaries of a segment: tracemalloc peaks at 20 MB for a 2^22 segment
# at the top of [1, 10^8], against 176 MB for whole-segment int64 arrays.
# With two threads scanning such segments side by side, windows of 2^19,
# 2^20 and 2^21 took 194-240 ms per segment, too close to rank, and 2^18
# and whole 2^22 segments 217-274 ms (two runs each, 2-core Xeon); 2^20 is
# the middle of the flat range.
_WINDOW = 1 << 20


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
    return float(t) ** float(cfg.eta)


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
    weights = [0] + [_weight(d, cfg) for d in range(1, d_max + 1)]
    if not cfg.exact:
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


def _scan_primes(limit: int) -> np.ndarray:
    """Sieving primes for a scan: the shared arith sieve, up to limit."""
    return _prime_sieve(limit)


def _tau_dtypes(hi: int) -> tuple[type, type]:
    """The dtypes of _tau_segment's tau and prod arrays for a window ending
    at hi: tau <= 2 sqrt(hi) and prod <= hi, as proved there."""
    tau_dtype = np.int16 if hi < 1 << 28 else np.int32 if hi < 1 << 60 else np.int64
    return tau_dtype, np.int32 if hi < 1 << 31 else np.int64


def _tau_segment(lo: int, hi: int, primes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """tau(n) and a squarefree flag for every n in [lo, hi] (1 <= lo <= hi).

    A strided sieve over prime powers: for each sieving prime p with
    p^2 <= hi (primes must hold every one, ascending) and each q = p^j <= hi,
    the multiples of q in the segment are the basic slice [(-lo) % q :: q].
    At j = 1 tau doubles; at j >= 2 tau is divided by j and multiplied by
    j + 1. The division is exact: every multiple of p^j is a multiple of
    p^(j-1), whose step left the factor j in its tau (j = 1 multiplied by
    2, and step j - 1 >= 2 multiplied by j). After the last power, tau
    holds prod (e + 1) over the sieving primes and prod holds the part of
    n built from them. The cofactor n / prod has no prime factor p with
    p^2 <= hi, so it is 1 or a single prime: two such primes would make it
    larger than hi. Where prod != n, tau doubles once for that prime: one
    shift of tau by the mask prod != n, by 1 there and by 0 elsewhere.

    tau and prod take the dtypes of _tau_dtypes(hi), which hold every value
    they pass through: each value of tau, also between the division and the
    multiplication, is the tau of a divisor of n, so at most 2 sqrt(hi);
    prod is a divisor of n, so at most hi. The returned tau is therefore
    int16 below 2^28; callers widen it before any arithmetic that could
    leave that range.
    """
    length = hi - lo + 1
    tau_dtype, prod_dtype = _tau_dtypes(hi)
    tau = np.ones(length, dtype=tau_dtype)
    sqfree = np.ones(length, dtype=bool)
    prod = np.ones(length, dtype=prod_dtype)
    for p in primes:
        p = int(p)
        if p * p > hi:
            break
        q, j = p, 1
        while q <= hi:
            s = (-lo) % q
            if s >= length:
                break  # no multiple of q here, nor of any higher power
            view = tau[s::q]
            if j == 1:
                view *= 2
            else:
                view //= j
                view *= j + 1
                if j == 2:
                    sqfree[s::q] = False
            prod[s::q] *= p
            q *= p
            j += 1
    n = np.arange(lo, hi + 1, dtype=prod_dtype)
    tau <<= prod != n  # a shift by 0 or 1: no mask pass over tau
    return tau, sqfree


# The period of the harvest. 151200 = 2^5 * 3^3 * 5^2 * 7 is divisible by
# 42 of the 100 d of the default scan, every d <= 10 among them.
_PERIOD = 151200
_PERIOD_DIVISORS = sorted(
    2**a * 3**b * 5**c * 7**e
    for a in range(6) for b in range(4) for c in range(3) for e in range(2)
)

# The one resident pattern, (key, pattern); see _period_pattern. One slot,
# not a cache of several: census windows ascend, so a pattern is not needed
# again once the next divisor of _PERIOD joins, and the one slot already
# raises census-headline's peak RSS from 84 to 86 MB.
_pattern_slot: tuple[tuple, np.ndarray] | None = None


def _period_pattern(ds: list[int], w: np.ndarray) -> np.ndarray:
    """pattern[i] = sum of w[d] over the d in ds that divide i, for i in
    [0, _PERIOD); every d in ds divides _PERIOD, so this is the weight they
    add to any n with n % _PERIOD == i. Read-only; the last one is kept."""
    global _pattern_slot
    key = (w.dtype.str, tuple(ds), tuple(w[ds].tolist()))
    slot = _pattern_slot
    if slot is not None and slot[0] == key:
        return slot[1]
    pattern = np.zeros(_PERIOD, dtype=w.dtype)
    for d in ds:
        pattern[::d] += w[d]
    pattern.flags.writeable = False
    _pattern_slot = (key, pattern)
    return pattern


def _harvest_segment(lo: int, hi: int, cfg: CensusConfig, w: np.ndarray) -> np.ndarray:
    """S(n) for every n in [lo, hi]: each d with d^k <= hi contributes
    weight(d) to its multiples n >= d^k.

    On int32 and int64 weights a window of at least _PERIOD / 8 n starts
    from the periodic pattern of the d that divide _PERIOD and have
    d^k <= lo: each of them adds w[d] to every multiple in the window, and
    d divides n exactly when it divides n % _PERIOD. The strided loop adds
    the other d. Integer sums do not depend on the order of the adds, so S
    is the same; float64 sums do, and float64 weights take the loop alone,
    in ascending d. Below _PERIOD / 8 n, copying even a resident pattern
    saves nothing over the loop (0.19 ms either way at the top of
    [1, 10^8]), and building one costs about 0.6 ms.
    """
    length = hi - lo + 1
    periodic: list[int] = []
    if w.dtype.kind == "i" and length >= _PERIOD // 8:
        root = integer_kth_root(lo, cfg.k)
        periodic = [d for d in _PERIOD_DIVISORS if d <= root]
    if periodic:
        pattern = _period_pattern(periodic, w)
        S = np.empty(length, dtype=w.dtype)
        off, i = lo % _PERIOD, 0
        while i < length:
            m = min(_PERIOD - off, length - i)
            S[i : i + m] = pattern[off : off + m]
            i, off = i + m, 0
    else:
        S = np.zeros(length, dtype=w.dtype)
    skip = set(periodic)
    d = 1
    while d**cfg.k <= hi:
        if d not in skip:
            first = max(lo, d**cfg.k)
            start = ((first + d - 1) // d) * d
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


def _merge(
    lo: int, hi: int, results: list[_SegmentResult], collect: bool
) -> _SegmentResult:
    """One result for [lo, hi] from results that cover it in order: counts
    add, equality lists concatenate, and the best ratio wins (ties to the
    smaller n). The start value (0, 1, -1) loses to any real ratio."""
    out = _SegmentResult(lo, hi, 0, 0, 0, 1, -1, [] if collect else None)
    for r in results:
        out.violations += r.violations
        out.equalities += r.equalities
        if collect:
            out.equality_ns += r.equality_ns
        if _ratio_greater(
            r.max_num, r.max_den, r.argmax_n, out.max_num, out.max_den, out.argmax_n
        ):
            out.max_num, out.max_den, out.argmax_n = r.max_num, r.max_den, r.argmax_n
    return out


def _scan_segment(
    lo: int, hi: int, cfg: CensusConfig, w: np.ndarray, primes: np.ndarray, collect: bool
) -> _SegmentResult:
    """[lo, hi] compared _WINDOW n at a time, merged into one result.
    Clamped weights lower only ratios below 1; a best ratio below 1 (no
    prime in a tiny segment) is redone n by n, so records keep exact S."""
    res = _merge(lo, hi, [
        _compare_window(a, min(a + _WINDOW - 1, hi), cfg, w, primes, collect)
        for a in range(lo, hi + 1, _WINDOW)
    ], collect)
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

    Only the distinct (tau, S) pairs are compared, each at its first
    index: a pair's later copies would lose the tie. At the top of
    [1, 10^8] nearly every candidate is an equality case with the pair
    (8, 1), so this replaces a Python loop over thousands of candidates
    per window by one over a handful.
    """
    pairs, at = np.unique(
        np.stack((tau[cand], S[cand]), axis=1), axis=0, return_index=True
    )
    best = (0, 1, -1)
    for num, den, i in zip(pairs[:, 0].tolist(), pairs[:, 1].tolist(), cand[at].tolist()):
        if _ratio_greater(num, den, lo + i, *best):
            best = (num, den, lo + i)
    return best


def _compare_window(
    lo: int, hi: int, cfg: CensusConfig, w: np.ndarray, primes: np.ndarray, collect: bool
) -> _SegmentResult:
    """tau(n) against constant * S(n) for every n in [lo, hi], S in the dtype
    _weight_table chose for w. The sieve's narrow tau is widened to it only
    to be multiplied by the constant's denominator; numpy compares and
    divides mixed dtypes exactly."""
    tau, sqfree = _tau_segment(lo, hi, primes)
    S = _harvest_segment(lo, hi, cfg, w)
    cn, cd = cfg.constant.numerator, cfg.constant.denominator

    # the products are freed before the ratio array is allocated
    if cfg.exact:
        lhs = tau if cd == 1 else cd * tau.astype(S.dtype)
        rhs = cn * S
        viol_mask = lhs > rhs
        eq_mask = lhs == rhs
        del lhs, rhs
    else:
        rhs_f = float(cfg.constant) * S
        tol = FLOAT_REL_TOL * np.maximum(rhs_f, 1.0)
        viol_mask = tau > rhs_f + tol
        eq_mask = np.abs(tau - rhs_f) <= tol
        del rhs_f, tol

    if cfg.squarefree_only:
        viol_mask &= sqfree
        eq_mask &= sqfree

    violations = int(np.count_nonzero(viol_mask))
    equalities = int(np.count_nonzero(eq_mask))
    equality_ns = (np.flatnonzero(eq_mask) + lo).tolist() if collect else None
    del viol_mask, eq_mask

    # exact path: float32 ratios within 1e-5 of the peak (float32 errs by
    # about 1e-7) only pick candidates; the float path reports float64
    ratio = np.divide(tau, S, dtype=np.float32) if cfg.exact else tau / S
    if cfg.squarefree_only:
        ratio[~sqfree] = -np.inf
    peak = float(ratio.max())
    # With nothing eligible in the window, the (0, 1, -1) start stays: it
    # loses every merge (n = 1 is always eligible, so no report keeps it).
    best_num, best_den, best_n = 0, 1, -1
    if peak == float("-inf"):
        pass
    elif cfg.exact:
        cand = np.flatnonzero(ratio >= peak * (1.0 - 1e-5))
        best_num, best_den, best_n = _exact_argmax(tau, S, cand, lo)
    else:
        i = int(np.argmax(ratio))  # argmax returns the first (smallest n) peak
        best_num, best_n = float(ratio[i]), lo + i
    return _SegmentResult(
        lo, hi, violations, equalities, best_num, best_den, best_n, equality_ns
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
        self.done: dict[tuple[int, int], _SegmentResult] = {}
        self._fh = None
        self._valid_bytes = 0

    def load(self) -> None:
        if not os.path.exists(self.path):
            return
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
            return
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
            self.done[(res.lo, res.hi)] = res
        self._valid_bytes = len(raw_bytes) - len(partial)

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
            self.done[(res.lo, res.hi)] = res
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


def _segments(cfg: CensusConfig) -> list[tuple[int, int]]:
    out = []
    lo = 1
    while lo <= cfg.n_max:
        hi = min(lo + cfg.segment_size - 1, cfg.n_max)
        out.append((lo, hi))
        lo = hi + 1
    return out


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
    """
    t0 = time.monotonic()
    w, c = _weight_table(cfg)
    # the kernels compare with c; the report and the checkpoint keep cfg
    scan_cfg = cfg if c is None else replace(cfg, constant=c)
    primes = _scan_primes(max(isqrt(cfg.n_max), 2))
    segments = _segments(cfg)

    ckpt = None
    if checkpoint is not None:
        ckpt = _Checkpoint(checkpoint, cfg, collect_equalities)
        ckpt.load()
        ckpt.open_for_append()

    done = ckpt.done if ckpt is not None else {}
    results = {seg: done[seg] for seg in segments if seg in done}
    pending = [seg for seg in segments if seg not in results]

    def check_stop() -> None:
        if stop_event is not None and stop_event.is_set():
            raise ScanInterrupted("scan interrupted; completed segments checkpointed")

    def run_one(seg: tuple[int, int]) -> _SegmentResult:
        # A worker left free while the main thread waits on a slow segment
        # must not start queued ones after a stop. It raises rather than
        # return a placeholder, which could race past the main thread's
        # check into the results.
        check_stop()
        lo, hi = seg
        res = _scan_segment(lo, hi, scan_cfg, w, primes, collect_equalities)
        if ckpt is not None:
            ckpt.record(res)
        return res

    # Results are read in submission order, with a stop check before each.
    # On a stop or an exception the queued segments are cancelled; the
    # running ones finish and reach the checkpoint before it closes.
    pool = ThreadPoolExecutor(max_workers=cfg.workers)
    try:
        futures = [pool.submit(run_one, seg) for seg in pending]
        for seg, fut in zip(pending, futures):
            check_stop()
            results[seg] = fut.result()
            if progress is not None:
                progress(len(results), len(segments))
    finally:
        pool.shutdown(cancel_futures=True)
        if ckpt is not None:
            ckpt.close()

    total = _merge(
        1, cfg.n_max, [results[seg] for seg in segments], collect_equalities
    )
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
        segments_processed=len(results),
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
