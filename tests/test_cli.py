from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from divbound.arith import next_prime_after
from divbound.census import CensusConfig
from divbound.cli import main
from divbound.lowerbound import LowerBoundInstance, verify_instance
from divbound.witness import WitnessCertificate


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestWitnessCommand:
    def test_witness_30(self, capsys):
        code, out, _ = run_cli(capsys, "witness", "30")
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 30 and payload["d"] == 1
        assert payload["tau_n"] == 8 and payload["bound_lhs"] == 8
        assert payload["bound_rhs"] == 8
        assert payload["case_label"] == "squarefree-small"

    def test_witness_1(self, capsys):
        code, out, _ = run_cli(capsys, "witness", "1")
        assert code == 0
        assert json.loads(out)["d"] == 1

    def test_witness_0_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["witness", "0"])
        assert exc.value.code == 2

    def test_witness_prime_above_2_64_exits_2(self, capsys):
        t0 = time.monotonic()
        code, out, err = run_cli(capsys, "witness", "18446744073709551629")
        assert time.monotonic() - t0 < 2
        assert code == 2 and out == ""
        assert "at or above 2^64 and probably prime" in err

    def test_witness_two_primes_above_2_60_exits_2(self, capsys):
        # rho gives up on the part after its step budget instead of running
        # for about 2^30 steps
        p, q = next_prime_after(2**60), next_prime_after(2**61)
        t0 = time.monotonic()
        code, out, err = run_cli(capsys, "witness", str(p * q))
        assert time.monotonic() - t0 < 10
        assert code == 2 and out == ""
        assert f"rho found no factor of the part {p * q}" in err

    def test_witness_payload_reconstructs_certificate(self, capsys):
        _, out, _ = run_cli(capsys, "witness", "18480")
        p = json.loads(out)
        cert = WitnessCertificate(
            p["n"], p["d"], p["case_label"], p["tau_n"], p["tau_d"]
        )
        assert cert.tau_n <= 8 * cert.tau_d**7


class TestVerifyCommand:
    def test_verify_small_clean(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--max", "10000", "--threads", "1"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["violations"] == 0
        assert payload["max_ratio"] == {"num": 8, "den": 1, "float": 8.0}
        assert payload["argmax_n"] == 385
        assert payload["range_inclusive"] == [1, 10000]

    def test_verify_payload_reconstructs_config(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "--max", "5000", "--threads", "2")
        echo = json.loads(out)["config"]
        cfg = CensusConfig(
            n_max=echo["n_max"],
            k=echo["k"],
            eta=echo["eta"],
            weight=echo["weight"],
            constant=Fraction(echo["constant"]),
            squarefree_only=echo["squarefree_only"],
            segment_size=echo["segment_size"],
        )
        assert cfg.echo() == echo

    def test_forced_violation_exits_1(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--max", "1000", "--constant", "1", "--threads", "1"
        )
        assert code == 1
        assert json.loads(out)["violations"] > 0

    def test_census_equalities_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--max", "3000", "--census-equalities",
            "--threads", "1",
        )
        assert code == 0
        census = json.loads(out)["equality_census"]
        assert census["all_match_three_prime_form"] is True
        assert census["non_matching"] == []
        assert any(c["n"] == 2431 for c in census["cases"])

    def test_determinism_across_threads(self, capsys):
        _, out1, _ = run_cli(
            capsys, "verify", "--max", "50000", "--threads", "1",
            "--segment-size", "8192",
        )
        _, out8, _ = run_cli(
            capsys, "verify", "--max", "50000", "--threads", "8",
            "--segment-size", "8192",
        )
        assert out1 == out8

    def test_corrupt_checkpoint_exits_3(self, capsys, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_text("garbage\n")
        code, _, err = run_cli(
            capsys, "verify", "--max", "1000", "--checkpoint", str(bad),
            "--threads", "1",
        )
        assert code == 3
        assert "checkpoint" in err.lower()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_unexpected_exception_exits_3_not_1(self, capsys, monkeypatch, threads):
        # exit 1 is reserved for a violation; a fault nothing maps is exit 3
        def scan(*args):
            raise RuntimeError("kernel fault")

        monkeypatch.setattr("divbound.census._scan_segment", scan)
        code, out, err = run_cli(capsys, "verify", "--max", "1000", "--threads", threads)
        assert code == 3 and out == ""
        assert "internal fault: RuntimeError('kernel fault')" in err
        assert "Traceback" in err

    def test_constant_too_small_for_int64_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--max", "9000", "--eta", "40",
            "--constant", "1/100000000000000000000", "--threads", "1",
        )
        assert code == 2 and out == ""
        assert "too small" in err

    # 2^(10^400) would never finish; at eta 10000 the S of n = 256,
    # 1 + 2^10000 + 3^10000, has 4,772 digits, past the 4,300 json writes
    @pytest.mark.parametrize(
        "argv",
        [["--max", "100", "--eta", "1e400"],
         ["--max", "300", "--eta", "10000", "--segment-size", "1"]],
        ids=["eta1e400", "eta10000"],
    )
    def test_eta_too_large_for_records_exits_2(self, capsys, tmp_path, argv):
        ckpt = tmp_path / "F"
        t0 = time.monotonic()
        code, out, err = run_cli(capsys, "verify", *argv, "--threads", "1",
                                 "--checkpoint", str(ckpt))
        assert time.monotonic() - t0 < 1
        assert code == 2 and out == ""
        assert "eta too large" in err
        assert not ckpt.exists()

    def test_float_weight_overflow_names_eta_d_and_tau_exits_3(self, capsys):
        # 2^1023.5 is finite; 3^1023.5, the weight of d = 4, is not
        code, out, err = run_cli(capsys, "verify", "--max", "300", "--eta", "1023.5",
                                 "--threads", "1")
        assert code == 3 and out == ""
        assert "eta = 1023.5, d = 4, tau(d) = 3" in err

    def test_eta_2000_still_runs(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--max", "10000", "--eta", "2000",
                               "--threads", "1")
        assert code == 0
        assert json.loads(out)["config"]["eta"] == 2000

    def test_bad_eta_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--max", "10", "--eta", "seven"])
        assert exc.value.code == 2
        assert "not a rational number: 'seven'" in capsys.readouterr().err

    def test_checkpoint_dir_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("DIVBOUND_CHECKPOINT_DIR", str(tmp_path))
        code, _, _ = run_cli(
            capsys, "verify", "--max", "1000", "--checkpoint", "run.ckpt",
            "--threads", "1",
        )
        assert code == 0
        assert (tmp_path / "run.ckpt").exists()

    def test_resume_matches_fresh_run_via_cli(self, capsys, tmp_path):
        ckpt = tmp_path / "scan.ckpt"
        _, fresh, _ = run_cli(
            capsys, "verify", "--max", "20000", "--segment-size", "1024",
            "--threads", "1",
        )
        _, full, _ = run_cli(
            capsys, "verify", "--max", "20000", "--segment-size", "1024",
            "--checkpoint", str(ckpt), "--threads", "1",
        )
        lines = ckpt.read_text().splitlines(keepends=True)
        ckpt.write_text("".join(lines[:5]))
        _, resumed, _ = run_cli(
            capsys, "verify", "--max", "20000", "--segment-size", "1024",
            "--checkpoint", str(ckpt), "--threads", "1",
        )
        assert fresh == full == resumed


class TestLowerboundCommand:
    def test_k4(self, capsys):
        code, out, _ = run_cli(capsys, "lowerbound", "--k", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["primes"] == [11, 13, 17]
        assert payload["n"] == 2431
        assert payload["ratio"] == {"num": 8, "den": 1}

    def test_k2(self, capsys):
        code, out, _ = run_cli(capsys, "lowerbound", "--k", "2")
        assert code == 0
        assert json.loads(out)["n"] == 2

    def test_k1_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "lowerbound", "--k", "1")
        assert code == 2

    def test_width_overflow_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "lowerbound", "--k", "13")
        assert code == 3

    def test_failed_verification_exits_3(self, capsys, monkeypatch):
        # exit 1 is reserved for a genuine violation; an instance that fails
        # its own re-check is a runtime fault
        monkeypatch.setattr(
            "divbound.lowerbound.verify_instance", lambda *a, **k: False
        )
        code, out, err = run_cli(capsys, "lowerbound", "--k", "4")
        assert code == 3
        assert out == ""
        assert "failed verification" in err

    def test_payload_reconstructs_instance(self, capsys):
        _, out, _ = run_cli(capsys, "lowerbound", "--k", "5")
        p = json.loads(out)
        inst = LowerBoundInstance(
            p["k"], tuple(p["primes"]), p["n"],
            Fraction(p["ratio"]["num"], p["ratio"]["den"]),
        )
        assert verify_instance(inst)


class TestGaussianCommand:
    def test_minimal_table(self, capsys):
        code, out, _ = run_cli(capsys, "gaussian", "--x", "2", "--d-max", "1")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "d,A_d,rho_d,M_d,abs_err"
        d, a, r, m, err = lines[1].split(",")
        assert (d, a, r) == ("1", "1", "1")
        assert float(m) == pytest.approx(1.0)

    def test_hundred_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "gaussian", "--x", "10000", "--d-max", "100", "--r", "1"
        )
        assert code == 0
        assert len(out.strip().split("\n")) == 101

    def test_bad_gamma_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "gamma.txt"
        path.write_text("2 1.5\n")
        code, _, err = run_cli(
            capsys, "gaussian", "--x", "100", "--d-max", "5",
            "--gamma-file", str(path),
        )
        assert code == 2

    def test_pinned_csv_digest(self, capsys):
        # the benchmark's smoke table, byte for byte as the dict walk wrote it
        code, out, _ = run_cli(capsys, "gaussian", "--x", "200000", "--d-max", "50")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "ad7aa98149e00525e69ebd98b333fcb7e4272ac2bbe1a4700e612ffdf7a7d2db"
        )

    @pytest.mark.parametrize(
        "r, digest",
        [
            ("1", "14a978d8837dc2cac9791860b41b841090b010a442db6d3f645a28595045a1cb"),
            ("2", "3d1a127c60a5099dfcdc2dd176aa0a9eb3f061c628f76adde905dedbc3207c4b"),
        ],
        ids=["r1", "r2"],
    )
    def test_pinned_roadmap_size_digest(self, capsys, r, digest):
        # the end-to-end size of the roadmap, byte for byte as the
        # gcd-filtered blocks and the += main sums wrote it
        code, out, _ = run_cli(
            capsys, "gaussian", "--x", "1000000", "--d-max", "1000", "--r", r
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "x, d_max, r, digest",
        [
            ("100000000", "10", "1",
             "3a1841036c753b3322d9074f606bbf4da6835f9b3dd794b871460118621efabe"),
            ("100000000", "10", "2",
             "7980c1513029e934cd69c4c920edf4da71a1bb5ecc32f6a4b84689d940d9470d"),
            ("200000", "5000", "1",
             "bb1907d0477de1d609c5f71b1558b7b2eab6c0cce27ba56c55657abdb42ca5d2"),
            ("10000", "100000", "1",
             "f9a80b5e2fc2dbd5c9d3a5cc765afea6d5402cf63ad3f4189750aef60803f18f"),
        ],
        ids=["x_ceiling-r1", "x_ceiling-r2", "d_max_5000", "d_max_100000"],
    )
    def test_pinned_ceiling_size_digest(self, capsys, x, d_max, r, digest):
        # the largest x a table takes, and a d_max far above sqrt(x), byte
        # for byte as the dense n blocks wrote them
        code, out, _ = run_cli(
            capsys, "gaussian", "--x", x, "--d-max", d_max, "--r", r
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_pinned_table_mode_digest(self, capsys, tmp_path):
        path = tmp_path / "gamma.txt"
        path.write_text(
            "# signed rationals\n1 1\n2 -1/2\n3 1/3\n5 -3/4\n7 2/7\n"
            "11 -1/6\n12 5/9\n400 0.125\n"
        )
        code, out, _ = run_cli(
            capsys, "gaussian", "--x", "200000", "--d-max", "50",
            "--gamma-file", str(path),
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "7adb87add7ff9566f681899886da21357de1b583d3fe0c21082a60bac7c80441"
        )

    def test_duplicate_gamma_line_exits_2(self, capsys, tmp_path):
        path = tmp_path / "gamma.txt"
        path.write_text("4 -1/2\n4 1/3\n")
        code, out, err = run_cli(
            capsys, "gaussian", "--x", "100", "--d-max", "5", "--r", "2",
            "--gamma-file", str(path),
        )
        assert code == 2 and out == ""
        assert "duplicate" in err and "line 1" in err

    def test_cost_ceiling_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "gaussian", "--x", "100000", "--d-max", "100000"
        )
        assert code == 2
        assert "cost" in err.lower()


class TestRhoCommand:
    def test_rho_65(self, capsys):
        code, out, _ = run_cli(capsys, "rho", "65")
        assert code == 0
        payload = json.loads(out)
        assert payload["rho"] == 4
        assert all((v * v + 1) % 65 == 0 for v in payload["roots"])


class TestCensusCurveCommand:
    def test_curve(self, capsys):
        code, out, _ = run_cli(
            capsys, "census-curve", "--max", "2000", "--eta-grid", "6,7,8",
            "--threads", "1",
        )
        assert code == 0
        rows = json.loads(out)
        floats = [r["max_ratio"]["float"] for r in rows]
        assert floats == sorted(floats, reverse=True)

    def test_fractional_grid_squarefree(self, capsys):
        code, out, _ = run_cli(
            capsys, "census-curve", "--max", "2000",
            "--eta-grid", "0.70,0.76", "--squarefree-only", "--threads", "1",
        )
        assert code == 0
        rows = json.loads(out)
        assert [r["eta"] for r in rows] == ["7/10", "19/25"]
        assert rows[0]["max_ratio"]["float"] >= rows[1]["max_ratio"]["float"]


class TestEntryPoint:
    def test_console_script_runs(self):
        out = subprocess.run(
            [sys.executable, "-m", "divbound.cli", "witness", "97"],
            capture_output=True, text=True,
        )
        assert out.returncode == 0
        assert json.loads(out.stdout)["n"] == 97
