"""Command-line front end.

Subcommands: witness, verify, census-curve, lowerbound, gaussian, rho.
Scalar results go to stdout as JSON, tables as CSV; progress and
diagnostics go to stderr. Exit codes: 0 success, 1 a genuine mathematical
violation was found, 2 usage error, 3 runtime fault, 130 interrupted by
SIGINT (segments finished so far are in the checkpoint).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
import traceback
from fractions import Fraction

from .arith import DEFAULT_SEGMENT_SIZE
from .census import (
    CensusConfig,
    CheckpointError,
    ScanInterrupted,
    best_constant_curve,
    classify_equality_shape,
    ratio_payload,
    verify_range,
)
from .gaussian import CostCeilingError, GammaSpec, discrepancy_table, rho
from .lowerbound import build_instance
from .witness import CertificationError, construct_witness

CHECKPOINT_DIR_ENV = "DIVBOUND_CHECKPOINT_DIR"

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_FAULT = 3
EXIT_INTERRUPTED = 130


def _emit(payload: dict | list) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _eta_grid(text: str) -> list:
    return [_fraction(part) for part in text.split(",") if part.strip()]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _checkpoint_path(path: str | None) -> str | None:
    if path is None:
        return None
    base = os.environ.get(CHECKPOINT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divbound",
        description="Witness divisors, range censuses and coprime-square "
        "sequence tables for divisor-function inequalities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("witness", help="certified divisor d with d^4 <= n "
                       "and tau(n) <= 8 tau(d)^7")
    p.add_argument("n", type=_positive_int)

    p = sub.add_parser("verify", help="scan [1, max] for violations of "
                       "tau(n) <= C * sum of tau(d)^eta over d^k <= n")
    p.add_argument("--max", type=_positive_int, required=True)
    p.add_argument("--constant", type=_fraction, default=Fraction(8))
    p.add_argument("--eta", type=_fraction, default=7)
    p.add_argument("--k", type=_positive_int, default=4)
    p.add_argument("--weight", choices=("tau_power", "landreau"), default="tau_power")
    p.add_argument("--squarefree-only", action="store_true")
    p.add_argument("--threads", type=_positive_int, default=None)
    p.add_argument("--segment-size", type=_positive_int, default=None)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--census-equalities", action="store_true",
                   help="also classify every equality case by shape")

    p = sub.add_parser("census-curve", help="empirical best constant over "
                       "a grid of weight exponents")
    p.add_argument("--max", type=_positive_int, required=True)
    p.add_argument("--k", type=_positive_int, default=4)
    p.add_argument("--eta-grid", type=_eta_grid, required=True)
    p.add_argument("--squarefree-only", action="store_true")
    p.add_argument("--threads", type=_positive_int, default=None)
    p.add_argument("--segment-size", type=_positive_int, default=None)

    p = sub.add_parser("lowerbound", help="prime family with ratio exactly "
                       "2^(k-1)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed-above", type=_positive_int, default=None)

    p = sub.add_parser("gaussian", help="CSV table of congruence sums vs "
                       "main terms for the coprime-square sequence")
    p.add_argument("--x", type=_positive_int, required=True)
    p.add_argument("--d-max", type=_positive_int, required=True)
    p.add_argument("--r", type=_positive_int, default=1)
    p.add_argument("--gamma-file", default=None)
    p.add_argument("--cost-ceiling", type=_positive_int, default=None)

    p = sub.add_parser("rho", help="roots of v^2 + 1 = 0 modulo d")
    p.add_argument("d", type=_positive_int)

    return parser


def _cmd_witness(args) -> int:
    cert = construct_witness(args.n)
    _emit(
        {
            "n": cert.n,
            "d": cert.d,
            "tau_n": cert.tau_n,
            "tau_d": cert.tau_d,
            "case_label": cert.case_label,
            "bound_lhs": cert.tau_n,
            "bound_rhs": 8 * cert.tau_d**7,
        }
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    cfg = CensusConfig(
        n_max=args.max,
        k=args.k,
        eta=args.eta,
        weight=args.weight,
        constant=args.constant,
        squarefree_only=args.squarefree_only,
        segment_size=args.segment_size or DEFAULT_SEGMENT_SIZE,
        workers=args.threads or os.cpu_count() or 1,
    )
    stop = threading.Event()
    previous = signal.signal(signal.SIGINT, lambda *_: stop.set())
    try:
        report = verify_range(
            cfg,
            checkpoint=_checkpoint_path(args.checkpoint),
            collect_equalities=args.census_equalities,
            progress=lambda done, total: print(
                f"segment {done}/{total}", file=sys.stderr
            ),
            stop_event=stop,
        )
    finally:
        signal.signal(signal.SIGINT, previous)

    payload = report.payload()
    if args.census_equalities:
        cases = [classify_equality_shape(n) for n in report.equality_ns or []]
        mismatches = [c for c in cases if not c.matches_three_prime_form]
        payload["equality_census"] = {
            "count": len(cases),
            "all_match_three_prime_form": not mismatches,
            "non_matching": [
                {"n": c.n, "shape": c.shape} for c in mismatches
            ],
            "cases": [
                {"n": c.n, "shape": c.shape, "matches": c.matches_three_prime_form}
                for c in cases
            ],
        }
        del payload["equality_ns"]
        for c in mismatches:
            print(
                f"note: equality case n = {c.n} has unexpected shape {c.shape}",
                file=sys.stderr,
            )
    _emit(payload)
    ratio = report.max_ratio
    ratio_txt = (
        f"{ratio.numerator}/{ratio.denominator}"
        if isinstance(ratio, Fraction)
        else f"{ratio!r}"
    )
    print(
        f"scanned [1, {cfg.n_max}]: violations={report.violations} "
        f"equalities={report.equalities} max_ratio={ratio_txt} at "
        f"n={report.argmax_n} ({report.elapsed:.2f}s, "
        f"{report.segments_processed} segments)",
        file=sys.stderr,
    )
    return EXIT_VIOLATION if report.violations > 0 else EXIT_OK


def _cmd_census_curve(args) -> int:
    curve = best_constant_curve(
        n_max=args.max,
        k=args.k,
        eta_grid=args.eta_grid,
        squarefree_only=args.squarefree_only,
        segment_size=args.segment_size or DEFAULT_SEGMENT_SIZE,
        workers=args.threads or os.cpu_count() or 1,
    )
    rows = [
        {"eta": str(eta) if isinstance(eta, Fraction) else eta,
         "argmax_n": argmax_n,
         "max_ratio": ratio_payload(ratio)}
        for eta, ratio, argmax_n in curve
    ]
    _emit(rows)
    return EXIT_OK


def _cmd_lowerbound(args) -> int:
    inst = build_instance(args.k, seed_above=args.seed_above)
    _emit(
        {
            "k": inst.k,
            "primes": list(inst.primes),
            "n": inst.n,
            "tau_n": 2 ** (inst.k - 1),
            "weight_sum": 1,
            "ratio": {
                "num": inst.ratio.numerator,
                "den": inst.ratio.denominator,
            },
        }
    )
    return EXIT_OK


def _cmd_gaussian(args) -> int:
    if args.gamma_file is not None:
        gamma = GammaSpec.from_file(args.gamma_file, r=args.r)
    else:
        gamma = GammaSpec(r=args.r)
    kwargs = {}
    if args.cost_ceiling is not None:
        kwargs["cost_ceiling"] = args.cost_ceiling
    table = discrepancy_table(args.x, args.d_max, gamma, **kwargs)
    sys.stdout.write(table.to_csv())
    print(f"total_err: {table.total_err!r}", file=sys.stderr)
    return EXIT_OK


def _cmd_rho(args) -> int:
    count, roots = rho(args.d)
    _emit({"d": args.d, "rho": count, "roots": roots})
    return EXIT_OK


_HANDLERS = {
    "witness": _cmd_witness,
    "verify": _cmd_verify,
    "census-curve": _cmd_census_curve,
    "lowerbound": _cmd_lowerbound,
    "gaussian": _cmd_gaussian,
    "rho": _cmd_rho,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, CostCeilingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OverflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAULT
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return EXIT_FAULT
    except ScanInterrupted as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INTERRUPTED
    except CertificationError as exc:
        print(f"internal certification fault: {exc}", file=sys.stderr)
        return EXIT_FAULT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_FAULT
    except Exception as exc:  # exit 1 stays reserved for a violation
        traceback.print_exc()
        print(f"internal fault: {exc!r}", file=sys.stderr)
        return EXIT_FAULT


if __name__ == "__main__":
    sys.exit(main())
