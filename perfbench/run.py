"""divbound benchmark: one workload per invocation, one fresh process per
iteration.

    python3 perfbench/run.py --workload census-headline --seed 1 --seconds 28 --trace 0

Workloads (see workloads.py):
  census-headline  verify --max 10^8 --threads 2, from an absent checkpoint
  census-wide      verify --max 5*10^5 --eta 40 --threads 2 (per-n Python path)
  witness-mixed    exhaustive [1, 2*10^5] plus 2*10^4 seeded random 40-bit n
  gaussian-table   gaussian --x 5*10^6 --d-max 200

With --trace 0 the run first times the interpreter start plus
`import divbound.cli` several times (setup_s), then runs untraced
iterations until the next one would end past 1.2 x --seconds. With
--trace 1 it runs traced iterations the same way and reports their
per-layer split (tracing.py).

Every output is checked (workloads.py); a failed check, an exception or a
crashed iteration counts as a failed output. The last stdout line is the
JSON result; the lines before it print each metric with its unit, the
error rate and the provenance of the run.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads
from tracing import label_metric

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(HERE, ".work")

SETUP_PROBES = 7
SLACK = 1.2  # start no iteration predicted to end later than SLACK x --seconds
WORKER_TIMEOUT_S = 150

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("item_p50_us", "us"),
    ("item_p99_us", "us"),
]

# Case labels seen on witness-mixed (exhaustive half and several seeds of
# the random half); any other label is counted in witness.label.other.
WITNESS_LABELS = [
    "heavy-cube", "heavy-cube+high", "heavy-square", "heavy-square+high",
    "high-exponent",
    "parts-sf0-sq0-cu1", "parts-sf0-sq0-cu1+high",
    "parts-sf0-sq1-cu0", "parts-sf0-sq1-cu0+high", "parts-sf0-sq4p-cu0",
    "parts-sf1-sq0-cu1", "parts-sf1-sq0-cu1+high",
    "parts-sf1-sq1-cu0", "parts-sf1-sq1-cu0+high", "parts-sf1-sq4p-cu0",
    "parts-sf4p-sq0-cu1", "parts-sf4p-sq0-cu1+high",
    "parts-sf4p-sq1-cu0", "parts-sf4p-sq1-cu0+high",
    "sf2-cu1-minprime", "sf2-cu1-minprime+high",
    "sf2-sq1-minprime", "sf2-sq1-minprime+high",
    "sf3-cu1-minprime", "sf3-cu1-minprime+high",
    "sf3-sq1-minprime", "sf3-sq1-minprime+high",
    "sq1-cu1-minprime-sf0", "sq1-cu1-minprime-sf0+high",
    "sq1-cu1-minprime-sf1", "sq1-cu1-minprime-sf1+high",
    "sq1-cu1-minprime-sf2", "sq1-cu1-minprime-sf2+high",
    "sq1-cu1-minprime-sf3", "sq1-cu1-minprime-sf3+high",
    "sq1-cu1-minprime-sf4p", "sq1-cu1-minprime-sf4p+high",
    "squarefree-large", "squarefree-large+high",
    "squarefree-small", "squarefree-small+high",
    "unit",
]


# Per-layer metric -> (unit, trace name it comes from). Times are self
# times: a call's duration minus the wrapped calls nested in it.
PER_LAYER = {
    "census.tau_sieve.s": ("s", "census.tau_sieve"),
    "census.harvest.s": ("s", "census.harvest"),
    "census.compare.s": ("s", "census.compare"),
    "census.wide_scan.s": ("s", "census.wide_scan"),
    "census.weight_table.s": ("s", "census.weight_table"),
    "census.prime_sieve.s": ("s", "census.prime_sieve"),
    "census.checkpoint.s": ("s", "census.checkpoint"),
    "census.checkpoint.bytes": ("bytes", "census.checkpoint"),
    "census.segments": ("count", "census.compare"),
    "census.segment_max_s": ("s", "census.compare"),
    "census.verify_range.s": ("s", "census.verify_range"),
    "census.pool_wait.s": ("s", "census.pool_wait"),
    "census.worker_busy_ratio": ("ratio", "census.compare"),
    "arith.factorize.calls": ("count", "arith.factorize"),
    "arith.factorize.s": ("s", "arith.factorize"),
    "arith.is_prime.calls": ("count", "arith.is_prime"),
    "arith.spf_sieve_segment.s": ("s", "arith.spf_sieve_segment"),
    "arith.spf_factor.calls": ("count", "arith.spf_factor"),
    "arith.spf_factor.s": ("s", "arith.spf_factor"),
    "arith.Factorization.calls": ("count", "arith.Factorization"),
    "arith.Factorization.s": ("s", "arith.Factorization"),
    "arith.divisors_from_factorization.calls": ("count", "arith.divisors_from_factorization"),
    "arith.divisors_from_factorization.s": ("s", "arith.divisors_from_factorization"),
    "witness.construct.calls": ("count", "witness.construct"),
    "witness.construct.s": ("s", "witness.construct"),
    "witness.certificate.s": ("s", "witness.certificate"),
    **{label_metric(lb): ("count", "witness.construct") for lb in WITNESS_LABELS},
    "witness.label.other": ("count", "witness.construct"),
    "gaussian.sequence_a.s": ("s", "gaussian.sequence_a"),
    "gaussian.sequence_a.entries": ("count", "gaussian.sequence_a"),
    "gaussian.congruence_sum.s": ("s", "gaussian.congruence_sum"),
    "gaussian.main_term.s": ("s", "gaussian.main_term"),
    "gaussian.rho.s": ("s", "gaussian.rho"),
    "gaussian.table.s": ("s", "gaussian.table"),
    "cli.s": ("s", "cli"),
    "trace.overhead_s": ("s", None),
    "trace.worker_s": ("s", None),
    "trace.coverage": ("ratio", None),
    "trace.leaf_coverage": ("ratio", None),
}


def percentile(values: list[float], q: float) -> float:
    """q-th percentile, linear between the closest ranks."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_probe() -> float:
    """Seconds from starting a fresh interpreter until `import divbound.cli`
    has completed."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", "import divbound.cli, time; print(repr(time.monotonic()))"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"cannot import divbound.cli: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip()) - t0


def run_iteration(name: str, seed: int, size: str, traced: bool) -> dict:
    argv = [sys.executable, os.path.join(HERE, "worker.py"), name, str(seed), size,
            "1" if traced else "0", WORKDIR]
    failed = {"ok": False}
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {**failed, "problems": [f"worker timed out after {WORKER_TIMEOUT_S} s"]}
    if proc.returncode != 0:
        return {**failed, "problems": [f"worker exit {proc.returncode}: {proc.stderr[-500:]}"]}
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {**failed, "problems": [f"worker printed no result: {proc.stdout[-500:]}"]}
    result["ok"] = True
    return result


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read().strip()


def provenance() -> dict:
    caches = []
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            fields = [_read(os.path.join(index, f))
                      for f in ("level", "type", "size", "shared_cpu_list")]
        except OSError:
            continue
        caches.append("L{} {} {} shared by cpus {}".format(*fields))
    cpu_model = platform.processor()
    try:
        cpu_model = next((ln.split(":", 1)[1].strip()
                          for ln in _read("/proc/cpuinfo").splitlines()
                          if ln.startswith("model name")), cpu_model)
    except OSError:
        pass
    sources = sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(os.path.relpath(path, SRC).encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


def end_to_end(runs: list[dict], setups: list[float]) -> dict:
    walls = [r["wall_s"] for r in runs]
    if "latencies_us" in runs[0]:
        items = [x for r in runs for x in r["latencies_us"]]
    else:
        items = [w * 1e6 for w in walls]  # a batch command's item is its result
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["rss_kb"] / 1024 for r in runs),
        "item_p50_us": percentile(items, 50),
        "item_p99_us": percentile(items, 99),
    }


def per_layer(traced: list[dict]) -> dict:
    missing = {m for r in traced for m in r["trace_missing"]}
    for m in sorted(missing):
        print(f"trace: {m} has no target in divbound; its metrics are absent",
              file=sys.stderr)
    known = {label_metric(lb) for lb in WITNESS_LABELS}
    summaries = []
    for r in traced:
        s = dict(r["trace"])
        s["census.checkpoint.bytes"] = r.get("checkpoint_bytes", 0)
        s["witness.label.other"] = sum(
            v for k, v in s.items() if k.startswith("witness.label.") and k not in known)
        summaries.append(s)
    out = {}
    for name, (_, source) in PER_LAYER.items():
        if source in missing:
            continue  # the wrapped function no longer exists: metric absent
        # a layer the workload never called did no work
        out[name] = statistics.median(s.get(name, 0) for s in summaries)
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: small inputs for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "divbound", "cli.py")):
        print(f"error: no divbound package under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(WORKDIR, exist_ok=True)
    start = time.monotonic()
    try:
        setups = [] if args.trace else [setup_probe() for _ in range(SETUP_PROBES)]
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    iterations: list[dict] = []
    while True:
        t0 = time.monotonic()
        iterations.append(run_iteration(args.workload, args.seed, args.size, bool(args.trace)))
        last = time.monotonic() - t0
        if time.monotonic() - start + last > SLACK * args.seconds:
            break

    per_iteration = workloads.outputs_per_iteration(args.workload, args.size)
    attempted = sum(r.get("attempted", per_iteration) for r in iterations)
    failed = sum(r["failed"] if r["ok"] else per_iteration for r in iterations)
    completed = [r for r in iterations if r["ok"]]
    for r in iterations:
        for problem in r["problems"]:
            print(f"check failed: {problem}", file=sys.stderr)
    if not completed or any(r.get("latencies_us") == [] for r in completed):
        print("error: no iteration completed its workload", file=sys.stderr)
        return 3

    if args.trace:
        metrics = per_layer(completed)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        metrics = end_to_end(completed, setups)
        units = dict(END_TO_END)
    print(f"perfbench {args.workload} seed={args.seed} size={args.size} "
          f"trace={args.trace}: {len(completed)} iterations, {len(setups)} setup probes")
    for name, value in metrics.items():
        print(f"  {name:<42} {value:.6g} {units[name]}")
    print(f"  {'error_rate':<42} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} outputs failed)")
    print("provenance " + json.dumps(provenance(), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
