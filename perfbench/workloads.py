"""The four workloads: their inputs, the timed call into divbound, and the
correctness gate on every output.

Each `run` call is one iteration inside a fresh worker process (see
worker.py), which has imported divbound before this module. Only the
witness workload has generated inputs; the census and gaussian workloads
are fixed commands whose output must stay byte-identical to the digest
captured at the seed commit, so the seed never reaches them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
from time import perf_counter

import numpy as np

NAMES = ("census-headline", "census-wide", "witness-mixed", "gaussian-table")
DEFAULT_SEED = 20260808  # the seed of acceptance criterion 4

# CLI argument lists. "{checkpoint}" is replaced by a fresh file path.
CLI_ARGS = {
    ("census-headline", "full"): [
        "verify", "--max", "100000000", "--threads", "2",
        "--checkpoint", "{checkpoint}"],
    ("census-headline", "smoke"): [
        "verify", "--max", "1000000", "--threads", "2",
        "--segment-size", "65536", "--checkpoint", "{checkpoint}"],
    ("census-wide", "full"): [
        "verify", "--max", "500000", "--eta", "40", "--threads", "2"],
    ("census-wide", "smoke"): [
        "verify", "--max", "20000", "--eta", "40", "--threads", "2"],
    ("gaussian-table", "full"): ["gaussian", "--x", "5000000", "--d-max", "200"],
    ("gaussian-table", "smoke"): ["gaussian", "--x", "200000", "--d-max", "50"],
}

# What every output must equal: sha256 of the stdout payload captured at
# the seed commit, and for the census the counts of the paper's claim.
EXPECTED = {
    ("census-headline", "full"): {
        "sha256": "dc160f18520976be251e809ea3bb6c72f96181bba1ac4018961fc9b5c7ce42ff",
        "equalities": 733133, "segments": 24},
    ("census-headline", "smoke"): {
        "sha256": "2035c9dbc6471f007f874cfa5d2f9a8843be2786eb70ec66fc403b14079a7e31",
        "equalities": 7875, "segments": 16},
    ("census-wide", "full"): {
        "sha256": "0196b738640450c570997cef5e6164f26b4e6c9c5ca267834b61054a81258026",
        "equalities": 3732, "segments": 1},
    ("census-wide", "smoke"): {
        "sha256": "dbbe88144bb69f722968cd81cb972bfc990eebfc4cc7fd1effc22d5996b61a74",
        "equalities": 147, "segments": 1},
    ("gaussian-table", "full"): {
        "sha256": "651cddc88ddf3eba6b595c09b86c05d9b18c20425c4e309f67a45093dfb0e24f",
        "rows": 200},
    ("gaussian-table", "smoke"): {
        "sha256": "ad7aa98149e00525e69ebd98b333fcb7e4272ac2bbe1a4700e612ffdf7a7d2db",
        "rows": 50},
}

# witness-mixed: exhaustive [1, N] through the smallest-prime-factor table,
# then the random n in [1, 2^40) through trial-division factorization.
WITNESS_SIZE = {"full": (200_000, 20_000), "smoke": (20_000, 2_000)}
WITNESS_RANDOM_BITS = 40
SYMPY_SAMPLE_EVERY = 20  # the random certificates whose tau(n) sympy recomputes


def witness_inputs(seed: int, size: str) -> tuple[int, list[int]]:
    """(N, random inputs): the only place the seed is used."""
    exhaustive, count = WITNESS_SIZE[size]
    rng = random.Random(seed)
    return exhaustive, [rng.randrange(1, 1 << WITNESS_RANDOM_BITS) for _ in range(count)]


def outputs_per_iteration(name: str, size: str) -> int:
    if name == "witness-mixed":
        return sum(WITNESS_SIZE[size])
    return 1


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ----------------------------------------------------------------------
# CLI workloads


def run_cli(name: str, size: str, workdir: str, tracer=None) -> dict:
    import divbound.cli as cli

    ckpt = os.path.join(workdir, f"checkpoint-{os.getpid()}.jsonl")
    argv = [a.replace("{checkpoint}", ckpt) for a in CLI_ARGS[(name, size)]]
    problems = []
    if os.path.exists(ckpt):
        os.remove(ckpt)
    out, err = io.StringIO(), io.StringIO()
    call = cli.main if tracer is None else lambda a: tracer.run(cli.main, a)
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = call(argv)
    except Exception as exc:  # an exception is a failed output, not a crash
        rc = f"exception {exc!r}"
    wall = perf_counter() - t0
    rss_kb = _peak_rss_kb()

    if rc != 0:
        problems.append(f"exit {rc}: {err.getvalue()[-300:]}")
    else:
        problems += check_cli_output(name, size, out.getvalue())
    ckpt_bytes = 0
    if "{checkpoint}" in CLI_ARGS[(name, size)]:
        ckpt_bytes = os.path.getsize(ckpt) if os.path.exists(ckpt) else 0
        problems += check_checkpoint(ckpt, EXPECTED[(name, size)]["segments"])
        if os.path.exists(ckpt):
            os.remove(ckpt)
    return {
        "wall_s": wall,
        "rss_kb": rss_kb,
        "attempted": 1,
        "failed": 1 if problems else 0,
        "problems": problems,
        "checkpoint_bytes": ckpt_bytes,
    }


def check_cli_output(name: str, size: str, stdout: str) -> list[str]:
    expected = EXPECTED[(name, size)]
    problems = []
    digest = hashlib.sha256(stdout.encode()).hexdigest()
    if digest != expected["sha256"]:
        problems.append(f"payload sha256 {digest} != {expected['sha256']}")
    if name.startswith("census"):
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return problems + [f"payload is not JSON: {exc}"]
        got = (report.get("violations"), report.get("equalities"),
               report.get("max_ratio", {}).get("num"),
               report.get("max_ratio", {}).get("den"))
        want = (0, expected["equalities"], 8, 1)
        if got != want:
            problems.append(f"(violations, equalities, ratio num, den) {got} != {want}")
    else:
        rows = stdout.splitlines()
        if len(rows) != expected["rows"] + 1 or rows[0] != "d,A_d,rho_d,M_d,abs_err":
            problems.append(f"table has {len(rows)} lines, header {rows[:1]}")
    return problems


def check_checkpoint(path: str, segments: int) -> list[str]:
    """The run started from no checkpoint, so the file must hold one fresh
    record per segment: every segment was scanned, none resumed."""
    if not os.path.exists(path):
        return ["checkpoint file was not written"]
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    try:
        records = [json.loads(line) for line in lines[1:]]
    except json.JSONDecodeError:
        return ["checkpoint record is not JSON"]
    spans = sorted((r["lo"], r["hi"]) for r in records)
    contiguous = all(a[1] + 1 == b[0] for a, b in zip(spans, spans[1:]))
    if len(records) != segments or len(set(spans)) != segments or not contiguous \
            or (spans and spans[0][0] != 1):
        return [f"checkpoint holds {len(records)} records, expected {segments} "
                f"distinct contiguous segments from 1"]
    return []


# ----------------------------------------------------------------------
# witness workload


def run_witness(seed: int, size: str, tracer=None) -> dict:
    import divbound.arith as arith
    import divbound.witness as witness

    n_exhaustive, randoms = witness_inputs(seed, size)
    latencies_us: list[float] = []
    # (input n, certificate n, d, tau_n, tau_d); None: the call raised
    certs: list[tuple[int, int, int, int, int] | None] = []
    problems: list[str] = []

    def record(n: int, make) -> None:
        try:
            c = make()
        except Exception as exc:  # one failed output; the others still run
            problems.append(f"n = {n}: {exc!r}")
            certs.append(None)
        else:
            certs.append((n, c.n, c.d, c.tau_n, c.tau_d))

    def workload() -> None:
        # resolve names after any tracer installed its wrappers
        sieve, factorization = arith.spf_sieve_segment, arith.Factorization
        construct = witness.construct_witness
        seg = sieve(1, n_exhaustive)
        for n in range(1, n_exhaustive + 1):
            record(n, lambda: construct(n, factorization(n, tuple(seg.factor(n)))))
        for n in randoms:
            t = perf_counter()
            record(n, lambda: construct(n))
            latencies_us.append((perf_counter() - t) * 1e6)

    t0 = perf_counter()
    try:
        workload() if tracer is None else tracer.run(workload)
    except Exception as exc:  # the outputs not reached count as failed
        problems.append(f"exception {exc!r}")
    wall = perf_counter() - t0
    rss_kb = _peak_rss_kb()

    attempted = n_exhaustive + len(randoms)
    bad = check_witnesses(certs, n_exhaustive)
    problems += [f"certificate (input n, n, d, tau_n, tau_d) = {c} fails" for c in bad[:5]]
    return {
        "wall_s": wall,
        "rss_kb": rss_kb,
        "attempted": attempted,
        "failed": attempted - len(certs) + certs.count(None) + len(bad),
        "problems": problems[:10],
        "latencies_us": latencies_us,
    }


def tau_table(limit: int) -> np.ndarray:
    """tau(m) for m <= limit by a divisor-count sieve, independent of divbound."""
    tau = np.zeros(limit + 1, dtype=np.int64)
    for k in range(1, limit + 1):
        tau[k::k] += 1
    return tau


def check_witnesses(certs: list, n_exhaustive: int) -> list:
    """Certificates that fail: the certificate's n is the input n, d | n,
    d^4 <= n, tau(d) and (on the exhaustive half and a fixed sample of the
    rest) tau(n) recomputed without divbound, and tau(n) <= 8 tau(d)^7.
    None entries (calls that raised) are skipped; the caller counts them."""
    from sympy import divisor_count

    # d^4 <= n < 2^40 keeps every admissible d below 2^10
    tau_ref = tau_table(max(n_exhaustive, 1 << (WITNESS_RANDOM_BITS // 4))).tolist()
    bad = []
    for i, cert in enumerate(certs):
        if cert is None:
            continue
        n, cert_n, d, tau_n, tau_d = cert
        if cert_n != n:
            bad.append(cert)
            continue
        if i < n_exhaustive:
            tau_n_ref = tau_ref[n]
        elif (i - n_exhaustive) % SYMPY_SAMPLE_EVERY == 0:
            tau_n_ref = int(divisor_count(n))
        else:
            tau_n_ref = tau_n
        if not (
            d >= 1 and n % d == 0 and d**4 <= n
            and tau_ref[d] == tau_d
            and tau_n_ref == tau_n
            and tau_n <= 8 * tau_d**7
        ):
            bad.append(cert)
    return bad


def run(name: str, seed: int, size: str, workdir: str, tracer=None) -> dict:
    if name == "witness-mixed":
        return run_witness(seed, size, tracer)
    return run_cli(name, size, workdir, tracer)
