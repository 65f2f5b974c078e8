from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from fractions import Fraction

import pytest

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

    def test_constant_too_small_for_int64_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--max", "9000", "--eta", "40",
            "--constant", "1/100000000000000000000", "--threads", "1",
        )
        assert code == 2 and out == ""
        assert "too small" in err

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
