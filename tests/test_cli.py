import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from hyperfield.cli import main

SRC = str(Path(__file__).parent.parent / "src")


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


class TestNp:
    def test_basic(self, capsys):
        code, out, _ = run_cli(["np", "--poly", "-5,0,1", "--prime", "5"], capsys)
        assert code == 0
        assert "length 2, slope -1/2" in out

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(["np", "--poly", "-5,0,1", "--prime", "5", "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["prime", "segments", "cycles"]
        assert payload["segments"] == [{"length": 2, "slope_num": -1, "slope_den": 2}]

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run_cli(["np", "--poly", "nope", "--prime", "5"], capsys)
        assert code == 2
        assert "bad polynomial" in err

    def test_zero_poly_exit_3(self, capsys):
        code, _, _ = run_cli(["np", "--poly", "", "--prime", "5"], capsys)
        assert code == 3


class TestCertify:
    def test_known_s5_quintic(self, capsys):
        code, out, _ = run_cli(["certify", "--poly", "-1,-1,0,0,0,1", "--primes", "80"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["conclusion"] == "SN"
        assert payload["degree"] == 5

    def test_x4_plus_1_inconclusive(self, capsys):
        code, out, _ = run_cli(["certify", "--poly", "1,0,0,0,1"], capsys)
        assert code == 0
        assert json.loads(out)["conclusion"] == "INCONCLUSIVE"

    def test_reducible_exit_3_names_factor(self, capsys):
        code, _, err = run_cli(["certify", "--poly", "-1,0,1"], capsys)
        assert code == 3
        assert "factor" in err

    def test_degree_cap_exit_5(self, capsys):
        poly = ",".join(["1"] * 15)
        code, _, err = run_cli(["certify", "--poly", poly], capsys)
        assert code == 5
        assert "cap" in err


class TestWitness:
    def test_qcycle_report(self, capsys):
        code, out, _ = run_cli(
            ["witness", "--curve", "1,1,0,1", "--n", "5", "--recipe", "ODD_ODD_QCYCLE", "--seed", "3"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["recipe"] == "ODD_ODD_QCYCLE"
        assert any(c["cycle_length"] == 3 for c in payload["certificates"])
        assert set(payload["specialization"]) == {"a", "b"}

    def test_k_cycle_spelled(self, capsys):
        code, out, _ = run_cli(
            ["witness", "--curve", "1,1,0,1", "--n", "6", "--recipe", "K_CYCLE(3)"], capsys
        )
        assert code == 0
        assert any(c["cycle_length"] == 3 for c in json.loads(out)["certificates"])

    def test_even_recipe_normalizes(self, capsys):
        code, out, _ = run_cli(
            ["witness", "--curve", "3,1,0,0,0,0,1", "--n", "8", "--recipe", "EVEN_NCYCLE"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert "normalized_model" in payload
        assert any(c["cycle_length"] == 8 for c in payload["certificates"])

    def test_inadmissible_exit_3(self, capsys):
        code, _, err = run_cli(
            ["witness", "--curve", "1,1,0,1", "--n", "5", "--recipe", "ODD_ODD_NCYCLE", "--prime", "2"],
            capsys,
        )
        assert code == 3
        assert "odd" in err


class TestExponents:
    def test_table(self, capsys):
        code, out, _ = run_cli(["exponents", "--g", "1", "--d", "3", "--n", "100"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["c_n"] == "80767/330000"
        assert payload["c_n_improved"] == "49/200"

    def test_parity_violation_exit_4(self, capsys):
        code, _, err = run_cli(["exponents", "--g", "2", "--d", "6", "--n", "7"], capsys)
        assert code == 4
        assert "even n" in err

    def test_threshold(self, capsys):
        code, out, _ = run_cli(["exponents", "--g", "1", "--threshold"], capsys)
        assert code == 0
        assert json.loads(out) == {"g": 1, "improvement_threshold": 16052}


class TestCensus:
    def test_summary_and_csv(self, capsys, tmp_path):
        csv = tmp_path / "out.csv"
        code, out, _ = run_cli(
            ["census", "--curve", "1,1,0,1", "--n", "3", "--Y", "3", "--out-csv", str(csv)], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["counts"]["sn_certified"] > 0
        lines = csv.read_text().strip().split("\n")
        assert lines[0] == "spec_a;spec_b;F_coeffs;disc_F;status;fingerprint_hash;class_id"
        assert len(lines) == 1 + payload["diagnostics"]["box_cardinality"]

    def test_csv_bytes_reproducible(self, capsys, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            code, _, _ = run_cli(
                ["census", "--curve", "1,1,0,1", "--n", "3", "--Y", "4", "--out-csv", str(path)],
                capsys,
            )
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_sweep(self, capsys):
        code, out, _ = run_cli(
            ["census", "--curve", "1,1,0,1", "--n", "3", "--sweep", "2,3"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert [s["Y"] for s in payload] == ["2", "3"]

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("curve=1,1,0,1\nn=3\nY=2\n# comment\n", encoding="utf-8")
        code, out, _ = run_cli(["census", "--config", str(cfg)], capsys)
        assert code == 0
        assert json.loads(out)["diagnostics"]["box_cardinality"] == 15

    def test_unknown_config_key_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("curve=1,1,0,1\nwhatever=1\n", encoding="utf-8")
        code, _, err = run_cli(["census", "--config", str(cfg)], capsys)
        assert code == 2
        assert "unknown key" in err

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_config_fingerprint_primes_below_1_exit_2(self, capsys, tmp_path, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"curve=1,1,0,1\nn=3\nY=2\nfingerprint_primes={value}\n", encoding="utf-8")
        code, out, err = run_cli(["census", "--config", str(cfg)], capsys)
        assert code == 2
        assert out == ""
        assert "fingerprint_primes must be at least 1" in err

    @pytest.mark.parametrize(
        "line, message",
        [
            ("workers=0", "workers must be at least 1"),
            ("workers=-2", "workers must be at least 1"),
            ("factor_cap=-1", "factor_cap must be at least 1"),
        ],
    )
    def test_config_settings_below_1_exit_2(self, capsys, tmp_path, line, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"curve=1,1,0,1\nn=3\nY=2\n{line}\n", encoding="utf-8")
        code, out, err = run_cli(["census", "--config", str(cfg)], capsys)
        assert code == 2
        assert out == ""
        assert message in err

    def test_config_without_n_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("curve=1,1,0,1\nY=2\n", encoding="utf-8")
        code, out, err = run_cli(["census", "--config", str(cfg)], capsys)
        assert code == 2
        assert out == ""
        assert "census needs --n" in err

    def test_golden_digests(self, capsys, tmp_path):
        """CSV and summary JSON of a small census, byte for byte, against
        SHA-256 digests recorded when class grouping was a pairwise merge."""
        csv, summary = tmp_path / "out.csv", tmp_path / "out.json"
        code, _, _ = run_cli(
            ["census", "--curve", "1,1,0,1", "--n", "4", "--Y", "7/2",
             "--out-csv", str(csv), "--out-json", str(summary)],
            capsys,
        )
        assert code == 0
        assert hashlib.sha256(csv.read_bytes()).hexdigest() == (
            "3b92113c4120b4c98db75ae20bd91b82332e08b88fd919ac1b96d0885f453cd6"
        )
        assert hashlib.sha256(summary.read_bytes()).hexdigest() == (
            "3eb1064af4e9a835d20da9f2574ea055e5f3bb1d9947e01f2affbcf1480a6bfd"
        )

    def test_box_cap_exit_5(self, capsys):
        code, _, err = run_cli(
            ["census", "--curve", "1,1,0,1", "--n", "3", "--Y", "8", "--box-cap", "10"], capsys
        )
        assert code == 5
        assert "exceeds cap" in err


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hyperfield", "np", "--poly", "-5,0,1", "--prime", "5"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0
        assert "slope -1/2" in proc.stdout

    def test_threads_env_respected(self, capsys, monkeypatch):
        monkeypatch.setenv("HYPERFIELD_THREADS", "1")
        code, out, _ = run_cli(
            ["census", "--curve", "1,1,0,1", "--n", "3", "--Y", "2", "--workers", "4"], capsys
        )
        assert code == 0


class TestBoundary:
    """Inputs that once hung, crashed or printed answers for a composite
    "prime": each now exits with a typed code within seconds."""

    @pytest.mark.parametrize(
        "args, code",
        [
            (["np", "--poly", "6,0,1", "--prime", "1"], 3),
            (["np", "--poly", "6,0,1", "--prime", "0"], 3),
            (["np", "--poly", "6,0,1", "--prime", "4"], 3),
            (["np", "--poly", "6,0,1", "--prime", "-3"], 3),
            (["certify", "--poly", "1,1,0,1", "--primes", "0"], 2),
            (["certify", "--poly", "1,1,0,1", "--primes", "-2"], 2),
            (["witness", "--curve", "1,1,0,1", "--n", "5", "--recipe", "ODD_ODD_QCYCLE", "--prime", "0"], 3),
            (["witness", "--curve", "1,1,0,1", "--n", "5", "--recipe", "ODD_ODD_QCYCLE", "--prime", "4"], 3),
            (["census", "--curve", "1,1,0,1", "--n", "3", "--Y", "2", "--fingerprint-primes", "0"], 2),
            (["census", "--curve", "1,1,0,1", "--n", "3", "--Y", "2", "--fingerprint-primes", "-3"], 2),
            (["census", "--curve", "1,1,0,1", "--n", "3", "--Y", "2", "--workers", "0"], 2),
            (["census", "--curve", "1,1,0,1", "--n", "3", "--Y", "2", "--workers", "-2"], 2),
            (["census", "--curve", "1,1,0,1", "--n", "3", "--Y", "2", "--factor-cap", "-1"], 2),
            (["certify", "--poly", "1,1,0,1", "--factor-cap", "-1"], 2),
            (["certify", "--poly", "1,1,0,1", "--factor-cap", "0"], 2),
            (["census", "--curve", "1,1,0,1", "--Y", "2"], 2),
            (["census", "--curve", "1,1,0,1", "--n", "3", "--Y", "1/0"], 2),
            (["census", "--curve", "1,1,0,1", "--n", "3", "--sweep", "2,1/0"], 2),
            (["witness", "--curve", "2,1,0,1", "--n", "4", "--recipe", "ODD_EVEN_TRANSP", "--prime", "1000000000061"], 3),
            (["witness", "--curve", "1,1,0,1", "--n", "4", "--recipe", "ODD_EVEN_TRANSP", "--prime", "1000000000061"], 0),
        ],
    )
    def test_exit_code_within_10_s(self, args, code):
        proc = subprocess.run(
            [sys.executable, "-m", "hyperfield", *args],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin", "HYPERFIELD_PURE": "1"},
            timeout=10,
        )
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
