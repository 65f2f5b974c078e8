"""One iteration of one workload in a fresh process.

Usage: python3 perfbench/worker.py <workload> <seed> <size> <trace 0|1> <workdir>

Prints one JSON object: wall time, peak RSS, outputs attempted and
failed, per-call latencies (witness workload) and, when traced, the
per-layer summary. run.py starts one of these per iteration.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import divbound.cli  # noqa: E402,F401  the program, before any benchmark code

import json  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def main(argv: list[str]) -> int:
    name, seed, size, traced, workdir = argv
    tracer = None
    if traced == "1":
        tracer = tracing.Tracer()
        tracer.install()
    result = workloads.run(name, int(seed), size, workdir, tracer)
    if tracer is not None:
        result["trace"] = tracer.summary()
        result["trace_missing"] = tracer.missing
        spans = os.path.join(workdir, f"trace-{name}-seed{seed}-{os.getpid()}.json")
        tracer.write_spans(spans)
        result["spans_file"] = os.path.relpath(spans, ROOT)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
