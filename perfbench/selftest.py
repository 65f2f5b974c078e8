"""The benchmark's own tests: a plain script, run from the repository root.

    python3 perfbench/selftest.py

It runs every workload at smoke size, untraced and traced, and checks the
result line against BENCHMARK.json (metric names and units), the
correctness gates (each must reject a wrong output), that the seed reaches
only the generated witness inputs, that tracing survives a deleted kernel,
and that the benchmark fails cleanly where the program is absent.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def test_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json has exactly the contract keys")
    check([w["name"] for w in spec["workloads"]] == list(workloads.NAMES),
          "BENCHMARK.json lists the four workloads")
    check(all(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
              for w in spec["workloads"]), "every workload has a one-line why")
    check([(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END,
          "end_to_end metrics match run.py")
    check([(m["name"], m["unit"]) for m in spec["per_layer"]]
          == [(n, u) for n, (u, _) in run.PER_LAYER.items()], "per_layer metrics match run.py")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + \
        [w["name"] for w in spec["workloads"]]
    check(all(NAME.match(n) for n in names) and len(set(names)) == len(names),
          "names are valid and unique")
    check(all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"]),
          "units are valid")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    check(all(0 < b <= 0.25 for b in bounds.values())
          and bounds["setup_s"] == max(bounds.values()), "bounds <= 0.25, setup_s largest")
    check(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60,
          "run_seconds is a whole number in [1, 60]")
    return spec


def result_line(proc: subprocess.CompletedProcess) -> dict | None:
    try:
        return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return None


def test_workloads(spec: dict) -> None:
    for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        want = {m["name"]: m["unit"] for m in declared}
        for name in workloads.NAMES:
            proc = bench("--workload", name, "--seed", "5", "--seconds", "1",
                         "--trace", str(trace), "--size", "smoke")
            res = result_line(proc)
            what = f"{name} trace={trace}"
            check(proc.returncode == 0 and res is not None, f"{what}: exit 0 with a result")
            if res is None:
                print(proc.stderr[-2000:])
                continue
            check(set(res) == {"correct", "attempted", "failed", "metrics"}
                  and res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1,
                  f"{what}: correct, nothing failed")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == want, f"{what}: every declared metric, with its unit")
            values = [v["value"] for v in res["metrics"].values()]
            if trace == 0:
                check(all(isinstance(v, float) and v > 0 for v in values),
                      f"{what}: end-to-end values are positive measured numbers")
                check("error_rate" in proc.stdout and "provenance {" in proc.stdout,
                      f"{what}: prints error_rate and provenance")
            else:
                check(res["metrics"]["trace.coverage"]["value"] >= 0.9,
                      f"{what}: layer self times cover >= 90% of traced worker-seconds")


def test_gates() -> None:
    smoke = ("census-wide", "smoke")
    check(workloads.check_cli_output(*smoke, "{}\n") != [],
          "census gate rejects a wrong payload")
    check(workloads.check_cli_output("gaussian-table", "smoke", "d,A_d\n") != [],
          "gaussian gate rejects a wrong table")
    with tempfile.TemporaryDirectory(dir=run.WORKDIR) as tmp:
        path = os.path.join(tmp, "ckpt.jsonl")
        with open(path, "w") as fh:
            fh.write('{"format": "x"}\n{"lo": 1, "hi": 10}\n')
        check(workloads.check_checkpoint(path, 2) != [],
              "checkpoint gate rejects a resumed (short) scan")
    n = 720720
    tau = workloads.tau_table(n)
    good = (n, n, 2, int(tau[n]), 2)
    check(workloads.check_witnesses([good], 0) == [], "witness checker accepts a valid certificate")
    bad_random = [(n, n, 3, int(tau[n]) + 1, 2),  # wrong tau(n); index 0 is sampled by sympy
                  (n, n, 30, int(tau[n]), 8),     # 30 | n, but 30^4 > n
                  (n + 1, n, 2, int(tau[n]), 2)]  # valid, but for another n
    check(workloads.check_witnesses(bad_random, 0) == bad_random
          and workloads.check_witnesses([(30, 30, 1, 9, 1)], 30) == [(30, 30, 1, 9, 1)]
          and workloads.check_witnesses([(7, 1, 1, 1, 1)], 7) == [(7, 1, 1, 1, 1)],
          "witness checker rejects bad certificates, and one for another n")


def test_seed_isolation() -> None:
    a, b = workloads.witness_inputs(1, "smoke"), workloads.witness_inputs(2, "smoke")
    check(a == workloads.witness_inputs(1, "smoke"), "same seed, same witness inputs")
    check(a[0] == b[0] and a[1] != b[1], "the seed changes only the random witness inputs")
    check(all("seed" not in " ".join(args) for args in workloads.CLI_ARGS.values()),
          "CLI workloads take no seed")


def test_missing_kernel() -> None:
    import divbound.census as census

    saved = census._scan_segment_python
    del census._scan_segment_python
    try:
        tracer = tracing.Tracer()
        tracer.install()
        check("census.wide_scan" in tracer.missing, "a deleted kernel is reported missing")
        with tempfile.TemporaryDirectory(dir=run.WORKDIR) as tmp:
            res = workloads.run("census-headline", 0, "smoke", tmp, tracer)
        res.update(trace=tracer.summary(), trace_missing=tracer.missing)
        layers = run.per_layer([res])
        check(res["failed"] == 0 and "census.wide_scan.s" not in layers
              and layers["census.tau_sieve.s"] > 0,
              "traced run survives a deleted kernel; only its metric is absent")
    finally:
        census._scan_segment_python = saved


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_accounting() -> None:
    """The wrapper cost leaves the layer times, and time that a renamed
    kernel leaves to its catch-all caller shows in leaf coverage."""
    tracer = tracing.Tracer()
    noop = tracer.wrap(lambda: None, "arith.factorize", tracing.HOT)
    counted = tracer.wrap(lambda: None, "arith.is_prime", tracing.COUNT)

    def scan():
        for _ in range(20_000):
            noop()
            counted()

    tracer.run(tracer.wrap(scan, "census.compare", tracing.SPAN))
    stats, _ = tracer.merged()
    summary = tracer.summary()
    check(summary["arith.factorize.s"] < 0.25 * stats["arith.factorize"][2]
          and summary["census.compare.s"] < stats["census.compare"][2]
          and summary["trace.overhead_s"] > 0,
          "calibrated wrapper cost is taken out of callee and caller self times")

    def kernel():
        _busy(0.05)

    leaf = {}
    for wrapped in (True, False):
        tracer = tracing.Tracer()
        k = tracer.wrap(kernel, "census.tau_sieve", tracing.SPAN) if wrapped else kernel

        def segment():
            _busy(0.005)
            k()

        tracer.run(tracer.wrap(segment, "census.compare", tracing.SPAN))
        summary = tracer.summary()
        check(summary["trace.coverage"] >= 0.9, f"coverage >= 0.9, kernel wrapped={wrapped}")
        leaf[wrapped] = summary["trace.leaf_coverage"]
    check(leaf[True] >= 0.8 and leaf[False] <= 0.1,
          "leaf coverage drops when a kernel's time moves into its caller")


def test_without_program() -> None:
    with tempfile.TemporaryDirectory(dir=run.WORKDIR) as tmp:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = bench("--workload", "census-wide", "--seed", "1", "--seconds", "1", cwd=tmp)
        check(proc.returncode != 0 and result_line(proc) is None,
              "fails without a result where the program is absent")


def main() -> int:
    os.makedirs(run.WORKDIR, exist_ok=True)
    spec = test_spec()
    test_gates()
    test_seed_isolation()
    test_missing_kernel()
    test_accounting()
    test_without_program()
    test_workloads(spec)
    print(f"\n{len(failures)} failed" if failures else "\nall passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
