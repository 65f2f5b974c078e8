"""Run the benchmark over several seeds and record the spread of every
end-to-end metric, optionally with one traced run per workload.

    python3 perfbench/spread.py --runs 10 --label seed-5d00039 \
        --out perfbench/results/BENCH_seed-5d00039.json

For each workload and metric it prints the median and the distance
between the first and third quartiles (statistics.quantiles, n=4) as a
share of the median, next to the metric's bound in BENCHMARK.json. A
spread at or above a third of its bound is flagged; setup_s is reported
but not flagged. Seeds run 1..N, with the workloads interleaved.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, *spec["command"][1:], "--workload", workload,
            "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
            "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    provenance = next(json.loads(ln.split(" ", 1)[1]) for ln in lines
                      if ln.startswith("provenance "))
    return json.loads(lines[-1]), provenance


def quartile_spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--traced", action="store_true", help="add one traced run per workload")
    ap.add_argument("--label", default="local")
    ap.add_argument("--out", default=None, help="write a BENCH_<label>.json here")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    values = {w: {m["name"]: [] for m in spec["end_to_end"]} for w in names}
    runs = {w: [] for w in names}
    provenance = None
    for seed in seeds:
        for w in names:
            result, provenance = run_once(spec, w, seed, 0)
            runs[w].append({"seed": seed, **result})
            for m, v in result["metrics"].items():
                values[w][m].append(v["value"])
            print(f"{w} seed {seed}: correct={result['correct']} " + " ".join(
                f"{m}={v['value']:.6g}" for m, v in result["metrics"].items()), flush=True)

    report = {"label": args.label, "provenance": provenance,
              "run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    flagged = 0
    print(f"\n{'workload':<16} {'metric':<12} {'median':>12} {'spread':>8} {'bound':>6}")
    for w in names:
        entry = {"runs": runs[w], "end_to_end": {}}
        for m in spec["end_to_end"]:
            stats = quartile_spread(values[w][m["name"]])
            stats["bound"] = m["bound"]
            entry["end_to_end"][m["name"]] = stats
            flag = stats["spread"] >= m["bound"] / 3 and m["name"] != "setup_s"
            flagged += flag
            print(f"{w:<16} {m['name']:<12} {stats['median']:>12.6g} "
                  f"{stats['spread']:>8.4f} {m['bound']:>6}{'  WIDE' if flag else ''}")
        if args.traced:
            result, _ = run_once(spec, w, seeds[0], 1)
            entry["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
        report["workloads"][w] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
