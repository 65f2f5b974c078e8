"""Layer tracing from outside the program.

`Tracer.install()` replaces functions and methods of the `divbound`
modules with timing wrappers; nothing under `src/` is edited. A target that
no longer exists is skipped and its metric is simply absent, so renamed or
deleted private kernels never crash a traced run.

Each wrapped call is a frame on a per-thread stack. A frame's self time is
its duration minus the time of the wrapped calls nested inside it. Coarse
layer calls are also kept as spans (name, start, end, parent span, thread)
and written out at the end of the run; hot per-`n` calls only aggregate
into per-name counts and times, which keeps the tracing cost bounded.

The wrappers' own cost is not left in the layer times: `calibrate()`
measures it per call on a no-op, and `summary()` subtracts it from the
self time of each wrapped call and of its caller, and from worker-seconds.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import threading
from time import perf_counter

SPAN = "span"    # timed, aggregated, and kept as a span
HOT = "hot"      # timed and aggregated only
COUNT = "count"  # counted only; its time stays in the caller's self time
WAIT = "wait"    # blocked on other threads: excluded from worker-seconds

# (module, attribute or Class.attribute, trace name, mode).
# Every module-level function is also re-patched wherever another divbound
# module bound it with `from .x import name`.
TARGETS = [
    ("divbound.cli", "main", "cli", SPAN),
    ("divbound.census", "verify_range", "census.verify_range", SPAN),
    ("divbound.census", "_weight_table", "census.weight_table", SPAN),
    ("divbound.census", "_scan_primes", "census.prime_sieve", SPAN),
    ("divbound.census", "_scan_segment", "census.compare", SPAN),
    ("divbound.census", "_tau_segment", "census.tau_sieve", SPAN),
    ("divbound.census", "_harvest_segment", "census.harvest", SPAN),
    ("divbound.census", "_scan_segment_python", "census.wide_scan", SPAN),
    ("divbound.census", "_Checkpoint.load", "census.checkpoint", SPAN),
    ("divbound.census", "_Checkpoint.open_for_append", "census.checkpoint", SPAN),
    ("divbound.census", "_Checkpoint.record", "census.checkpoint", SPAN),
    ("divbound.census", "_Checkpoint.close", "census.checkpoint", SPAN),
    ("divbound.arith", "factorize", "arith.factorize", HOT),
    ("divbound.arith", "is_prime", "arith.is_prime", COUNT),
    ("divbound.arith", "Factorization.__init__", "arith.Factorization", HOT),
    ("divbound.arith", "SieveSegment.factor", "arith.spf_factor", HOT),
    ("divbound.arith", "spf_sieve_segment", "arith.spf_sieve_segment", SPAN),
    ("divbound.arith", "divisors_from_factorization",
     "arith.divisors_from_factorization", HOT),
    ("divbound.witness", "construct_witness", "witness.construct", HOT),
    ("divbound.witness", "WitnessCertificate.__init__", "witness.certificate", HOT),
    ("divbound.gaussian", "discrepancy_table", "gaussian.table", SPAN),
    ("divbound.gaussian", "sequence_a", "gaussian.sequence_a", SPAN),
    ("divbound.gaussian", "congruence_sum_A", "gaussian.congruence_sum", HOT),
    ("divbound.gaussian", "main_term_M", "gaussian.main_term", HOT),
    ("divbound.gaussian", "rho", "gaussian.rho", HOT),
]

ROOT = "run"  # the benchmark's own frame around one workload call

# Frames whose self time takes in whatever code inside them is not wrapped.
# trace.leaf_coverage leaves them out, so time that a renamed kernel moves
# into its caller shows as a drop there.
CATCH_ALL = {"cli", "census.verify_range", "census.compare", "gaussian.table"}


def label_metric(label: str) -> str:
    return "witness.label." + label.replace("+", "_")


def _after_call(name: str):
    """Counters taken from a call's result, by trace name."""
    if name == "witness.construct":
        return lambda st, result: st.count(label_metric(result.case_label))
    if name == "gaussian.sequence_a":
        return lambda st, result: st.count(name + ".entries", len(result))
    return None


class _ThreadState:
    def __init__(self, ident: int):
        self.ident = ident
        # frames: [child seconds, span id, timed children, counted children]
        self.stack: list[list] = []
        # name -> [calls, total, self, max, timed children, counted children]
        self.stats: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        self.root_s = 0.0             # time in outermost frames of this thread

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        self._spans: list[tuple] = []
        self._next_id = 0
        self._wait_names: set[str] = set()
        self.missing: list[str] = []  # trace names whose target is gone
        self.pools: list[dict] = []

    # -- recording ---------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState(threading.get_ident())
            self._local.st = st
            with self._lock:
                self._threads.append(st)
        return st

    def wrap(self, fn, name: str, mode: str):
        after = _after_call(name)
        if mode == COUNT:
            def counted(*args, **kwargs):
                st = self._state()
                st.count(name + ".calls")
                if st.stack:
                    st.stack[-1][3] += 1
                return fn(*args, **kwargs)
            return functools.update_wrapper(counted, fn)
        if mode == WAIT:
            self._wait_names.add(name)
        keep_span = mode in (SPAN, WAIT)

        def timed(*args, **kwargs):
            t0 = perf_counter()
            st = self._state()
            stack = st.stack
            parent = stack[-1] if stack else None
            if keep_span:
                with self._lock:
                    span_id = self._next_id
                    self._next_id += 1
            else:
                span_id = parent[1] if parent else None
            frame = [0.0, span_id, 0, 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(st, result)
                return result
            finally:
                stack.pop()
                t1 = perf_counter()
                dur = t1 - t0
                s = st.stats.get(name)
                if s is None:
                    s = st.stats[name] = [0, 0.0, 0.0, 0.0, 0, 0]
                s[0] += 1
                s[1] += dur
                if dur > s[3]:
                    s[3] = dur
                s[4] += frame[2]
                s[5] += frame[3]
                if keep_span:
                    self._spans.append(
                        (span_id, name, t0, t1, parent[1] if parent else None, st.ident)
                    )
                spent = perf_counter() - t0
                s[2] += spent - frame[0]
                if parent is not None:
                    parent[0] += spent
                    parent[2] += 1
                else:
                    st.root_s += spent

        return functools.update_wrapper(timed, fn)

    def run(self, fn, *args, **kwargs):
        """Call fn as the root frame of the calling thread."""
        return self.wrap(fn, ROOT, SPAN)(*args, **kwargs)

    # -- patching ----------------------------------------------------

    def install(self) -> None:
        for module_name, attr, name, mode in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(leaf) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            wrapped = self.wrap(original, name, mode)
            if owner_name:
                setattr(owner, leaf, wrapped)
                continue
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").split(".")[0] != "divbound":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        self._install_pool()

    def _install_pool(self) -> None:
        """Time the census thread pool: its lifetime, its width, and how
        long the caller blocks on each future."""
        census = sys.modules.get("divbound.census")
        base = getattr(census, "ThreadPoolExecutor", None)
        if base is None:
            self.missing.append("census.pool_wait")
            return
        tracer = self

        class TracedPool(base):
            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                self._bench = {"workers": self._max_workers, "open": perf_counter()}
                tracer.pools.append(self._bench)

            def submit(self, fn, /, *args, **kwargs):
                fut = super().submit(fn, *args, **kwargs)
                fut.result = tracer.wrap(fut.result, "census.pool_wait", WAIT)
                return fut

            def shutdown(self, *args, **kwargs):
                super().shutdown(*args, **kwargs)
                self._bench.setdefault("close", perf_counter())

        census.ThreadPoolExecutor = TracedPool

    # -- results -----------------------------------------------------

    def merged(self) -> tuple[dict, dict]:
        stats: dict[str, list] = {}
        counts: dict[str, int] = {}
        for st in self._threads:
            for name, (calls, total, self_s, peak, timed, counted) in st.stats.items():
                s = stats.setdefault(name, [0, 0.0, 0.0, 0.0, 0, 0])
                s[0] += calls
                s[1] += total
                s[2] += self_s
                s[3] = max(s[3], peak)
                s[4] += timed
                s[5] += counted
            for name, n in st.counts.items():
                counts[name] = counts.get(name, 0) + n
        return stats, counts

    def summary(self) -> dict:
        """Per-layer numbers of this traced call, keyed by metric name,
        with the wrapper cost that calibrate() measures taken out."""
        cost = calibrate()
        stats, counts = self.merged()
        wait_s = sum(stats[n][1] for n in self._wait_names if n in stats)
        self_s: dict[str, float] = {}
        overhead_s = 0.0
        for name, (calls, _, raw, _, timed, counted) in stats.items():
            if name in self._wait_names:
                continue  # excluded from worker-seconds whole
            extra = (calls * cost["self"] + timed * cost["parent"]
                     + counted * cost["counted"])
            overhead_s += extra
            self_s[name] = max(raw - extra, 0.0)
        worker_s = sum(st.root_s for st in self._threads) - wait_s - overhead_s
        layers = {n: v for n, v in self_s.items() if n != ROOT}
        leaves = sum(v for n, v in layers.items() if n not in CATCH_ALL)

        out: dict[str, float] = dict(counts)
        for name, (calls, _, _, peak, _, _) in stats.items():
            if name == ROOT:
                continue
            out[name + ".calls"] = calls
            out[name + ".s"] = self_s.get(name, 0.0)
            out[name + ".max_s"] = peak
        out["trace.overhead_s"] = overhead_s
        out["trace.worker_s"] = worker_s
        out["trace.coverage"] = sum(layers.values()) / worker_s if worker_s > 0 else 0.0
        out["trace.leaf_coverage"] = leaves / worker_s if worker_s > 0 else 0.0
        seg = stats.get("census.compare")
        if seg is not None:
            out["census.segments"] = seg[0]
            out["census.segment_max_s"] = seg[3]
            if self.pools:
                scan_s = sum(p["close"] - p["open"] for p in self.pools if "close" in p)
                width = max(p["workers"] for p in self.pools)
            else:  # one worker scans inline in verify_range
                scan_s, width = stats.get("census.verify_range", [0, 0.0])[1], 1
            if scan_s > 0:
                out["census.worker_busy_ratio"] = seg[1] / (width * scan_s)
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["id", "name", "start", "end", "parent", "thread"],
                    "spans": sorted(self._spans),
                    "missing": self.missing,
                },
                fh,
            )


def _noop(x):
    return x


def calibrate(calls: int = 50_000, reps: int = 5) -> dict:
    """Seconds one wrapper adds per call, as the median over `reps` rounds
    of `calls` calls to a no-op, each round timed bare and wrapped:

    self     recorded in a timed call's own self time
    parent   landing in the caller's self time, beyond a bare call
    counted  a COUNT wrapper adds to its caller's self time
    """
    def loop(fn):
        t0 = perf_counter()
        for _ in range(calls):
            fn(1)
        return perf_counter() - t0

    rounds = []
    for _ in range(reps):
        probe = Tracer()
        hot = probe.wrap(_noop, "hot", HOT)
        bare = loop(_noop)
        probe.run(loop, hot)
        stats, _ = probe.merged()
        hot_self, root_self = stats["hot"][2], stats[ROOT][2]
        probe = Tracer()
        probe.run(loop, probe.wrap(_noop, "counted", COUNT))
        counted_self = probe.merged()[0][ROOT][2]
        rounds.append((hot_self / calls, (root_self - bare) / calls,
                       (counted_self - bare) / calls))
    return {key: max(statistics.median(r[i] for r in rounds), 0.0)
            for i, key in enumerate(("self", "parent", "counted"))}
