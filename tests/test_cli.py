import contextlib
import hashlib
import io
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hyperfield import cli
from hyperfield import errors as E
from hyperfield.census import CensusConfig
from hyperfield.cli import main
from hyperfield.factor import factor_mod_p, factor_over_q, good_splitting_types
from hyperfield.family import ALL_RECIPE_KINDS
from hyperfield.intpoly import IntPolynomial, parse_poly

SRC = str(Path(__file__).parent.parent / "src")


class Config(bytes):
    """The bytes of a config file, in a TestBoundary command."""


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

    @pytest.mark.parametrize("poly", ["1,1,0,1", "1,0,0,0,1", "-1,-1,0,0,0,1", "2,0,2", "0,3", "7,0,0,-3"])
    def test_evidence_is_the_census_sample(self, capsys, poly):
        code, out, _ = run_cli(["certify", "--poly", poly, "--primes", "20"], capsys)
        assert code == 0
        evidence = [
            (int(e["source"].removeprefix("frobenius p=")), tuple(e["cycle_type"]))
            for e in json.loads(out)["evidence"]
        ]
        F = parse_poly(poly)
        assert evidence == good_splitting_types(F, 20)
        assert evidence == [(q, factor_mod_p(F, q)) for q, _ in evidence]

    GOLDEN = [
        ["--poly", "-1,-1,0,0,0,1"],  # x^5 - x - 1: S_5
        ["--poly", "2,0,0,0,0,-1"],  # 2 - x^5: its group has order 20, INCONCLUSIVE
        ["--poly", "-1,0,1"],  # x^2 - 1: reducible, exit 3
        ["--poly", "3,2"],  # degree 1
    ]
    GOLDEN_DIGEST = "c1c728ae5d67846c9a3bb24e0aa4b5a2b69e4de6a4196f2f72bb11e6c6c0e752"

    @staticmethod
    def _digest(runs) -> str:
        """SHA-256 of the exit code, stdout and stderr of each run, in order."""
        return hashlib.sha256("".join(f"{code}\n{out}{err}" for code, out, err in runs).encode()).hexdigest()

    def test_golden_digest(self, capsys):
        """certify's bytes and exit codes on four inputs, recorded before
        recognize_sn stopped re-sorting and re-checking the kernels' types."""
        runs = [run_cli(["certify", *args], capsys) for args in self.GOLDEN]
        assert [code for code, _, _ in runs] == [0, 0, 3, 0]
        assert self._digest(runs) == self.GOLDEN_DIGEST

    def test_golden_digest_pure_backend(self):
        """The same bytes from the pure-Python kernels, whichever backend
        this process loaded."""
        env = {"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin", "HYPERFIELD_PURE": "1"}
        runs = []
        for args in self.GOLDEN:
            proc = subprocess.run(
                [sys.executable, "-m", "hyperfield", "certify", *args], capture_output=True, text=True, env=env, timeout=60
            )
            runs.append((proc.returncode, proc.stdout, proc.stderr))
        assert self._digest(runs) == self.GOLDEN_DIGEST


class TestCertifyText:
    def test_stdout_is_its_own_indented_json(self, capsys, monkeypatch):
        """certify writes its certificate as text: the same bytes as
        json.dumps(..., indent=2), and still through one call of the module
        global cli.recognize_sn, which the benchmark's tracer wraps by name."""
        rules = []
        original = cli.recognize_sn

        def traced(*args, **kwargs):
            out = original(*args, **kwargs)
            rules.append(out.rule)  # what the tracer reads
            return out

        monkeypatch.setattr(cli, "recognize_sn", traced)
        rng, certified = random.Random(13), 0
        while certified < 30:
            degree = rng.randint(1, 12)
            coeffs = [rng.randint(-20, 20) for _ in range(degree)] + [rng.choice((-3, -1, 1, 2))]
            if any(0 < f.degree < degree for f in factor_over_q(IntPolynomial(coeffs))):
                continue
            calls = len(rules)
            code, out, err = run_cli(["certify", "--poly", ",".join(map(str, coeffs))], capsys)
            assert (code, err) == (0, "")
            assert out == json.dumps(json.loads(out), indent=2) + "\n"
            assert rules[calls:] == [json.loads(out)["rule"]]
            certified += 1


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

    def test_sweep_equals_its_heights_run_alone(self, capsys, tmp_path, monkeypatch):
        """A sweep writes the rows and summaries of its heights run one by
        one, and classifies each distinct F of the nested boxes once."""
        from hyperfield import census

        calls = []
        real = census.classify_record

        def counting(F, cfg):
            calls.append(F.coeffs)
            return real(F, cfg)

        monkeypatch.setattr(census, "classify_record", counting)
        base = ["census", "--curve", "1,1,0,1", "--n", "4"]
        swept = tmp_path / "sweep.csv"
        code, out, _ = run_cli(base + ["--sweep", "2,3,4", "--out-csv", str(swept)], capsys)
        assert code == 0
        summaries = json.loads(out)
        assert len(calls) == len(set(calls))
        sweep_calls = set(calls)
        rows, union = [], set()
        for y, summary in zip(("2", "3", "4"), summaries):
            alone = tmp_path / f"y{y}.csv"
            code, out, _ = run_cli(base + ["--Y", y, "--out-csv", str(alone)], capsys)
            assert code == 0
            assert json.loads(out) == summary
            lines = alone.read_text(encoding="utf-8").splitlines()
            rows += lines[1:]
            union |= {line.split(";")[2] for line in lines[1:]}
        assert swept.read_text(encoding="utf-8").splitlines() == [lines[0], *rows]
        assert sweep_calls == {tuple(map(int, F.split(","))) for F in union}

    def test_even_curve_outputs_do_not_depend_on_workers_or_sweep(self, capsys, tmp_path, monkeypatch):
        """On x^4 + 1 one F per mirror pair is classified; the CSV and JSON
        bytes are the same with one worker or two, and the sweep writes the
        rows and summaries of its heights run alone."""
        monkeypatch.delenv("HYPERFIELD_THREADS", raising=False)
        base = ["census", "--curve", "1,0,0,0,1", "--n", "6"]

        def outputs(name, args):
            csv, js = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
            code, _, _ = run_cli(base + args + ["--out-csv", str(csv), "--out-json", str(js)], capsys)
            assert code == 0
            return csv.read_bytes(), js.read_bytes()

        swept = [outputs(f"w{w}", ["--sweep", "5/4,3/2", "--workers", str(w)]) for w in (1, 2)]
        assert swept[0] == swept[1]
        alone = [outputs(f"y{i}", ["--Y", y]) for i, y in enumerate(("5/4", "3/2"))]
        header, *rows = alone[0][0].decode().splitlines()
        rows += alone[1][0].decode().splitlines()[1:]
        assert swept[0][0].decode().splitlines() == [header, *rows]
        assert json.loads(swept[0][1]) == [json.loads(js) for _, js in alone]

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
            ("box_cap=0", "box_cap must be at least 1"),
            ("box_cap=-1", "box_cap must be at least 1"),
        ],
    )
    def test_config_settings_below_1_exit_2(self, capsys, tmp_path, line, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"curve=1,1,0,1\nn=3\nY=2\n{line}\n", encoding="utf-8")
        code, out, err = run_cli(["census", "--config", str(cfg)], capsys)
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("value", ["1", "yes", "True", "TRUE", "0", "no", ""])
    def test_config_monicize_not_true_or_false_exit_2(self, capsys, tmp_path, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"curve=1,1,0,2\nn=3\nY=1\nmonicize={value}\n", encoding="utf-8")
        code, out, err = run_cli(["census", "--config", str(cfg)], capsys)
        assert code == 2
        assert out == ""
        assert "monicize must be true or false" in err

    @pytest.mark.parametrize("value, flags", [("true", ["--monicize"]), ("false", [])])
    def test_config_monicize_true_or_false(self, capsys, tmp_path, value, flags):
        # monicize=true runs the monic model, as --monicize does; false, the curve as given.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"curve=1,1,0,2\nn=3\nY=1\nmonicize={value}\n", encoding="utf-8")
        code, out, _ = run_cli(["census", "--config", str(cfg)], capsys)
        assert code == 0
        want_code, want, _ = run_cli(["census", "--curve", "1,1,0,2", "--n", "3", "--Y", "1", *flags], capsys)
        assert want_code == 0
        assert out == want
        other_code, other, _ = run_cli(
            ["census", "--curve", "1,1,0,2", "--n", "3", "--Y", "1", *({"--monicize"} - set(flags))], capsys)
        assert other_code == 0
        assert other != want

    def test_config_without_n_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("curve=1,1,0,1\nY=2\n", encoding="utf-8")
        code, out, err = run_cli(["census", "--config", str(cfg)], capsys)
        assert code == 2
        assert out == ""
        assert "census needs --n" in err

    GOLDEN = [
        (["--curve", "1,1,0,1", "--n", "4", "--Y", "7/2"],
         "3b92113c4120b4c98db75ae20bd91b82332e08b88fd919ac1b96d0885f453cd6",
         "3eb1064af4e9a835d20da9f2574ea055e5f3bb1d9947e01f2affbcf1480a6bfd"),
        # An even curve: one F per mirror pair is classified, and the sweep
        # reuses the entries of its smaller box.
        (["--curve", "1,0,0,0,1", "--n", "6", "--sweep", "5/4,3/2"],
         "ff7bd0041518069afddb9f48c2dccdc8cf52704558341cd84582fcec12214c78",
         "9e7190de87ebb655dda84b287c9aa3769c2da0d6c3860289f17ed1bf3c4eb726"),
        # Odd n: h is monic and g is not, so the b side holds d_h free coefficients.
        (["--curve", "1,1,0,1", "--n", "5", "--Y", "2"],
         "6d11edcc3495ccfc4eefa95c345864815390db0098ac9c1849bb9c9e1d09cbb1",
         "6f4e8dcbf6b9c9f152e70fa1b05fdc81507141aa528fb64354be2bb823f1af2f"),
    ]

    def test_golden_digests(self, capsys, tmp_path):
        """CSV and summary JSON of small censuses, byte for byte, against
        SHA-256 digests: the first recorded when class grouping was a
        pairwise merge, the second when entries were still copied per box,
        the third before a record was reduced to its (spec, F) pair."""
        csv, summary = tmp_path / "out.csv", tmp_path / "out.json"
        for args, csv_digest, json_digest in self.GOLDEN:
            code, _, _ = run_cli(["census", *args, "--out-csv", str(csv), "--out-json", str(summary)], capsys)
            assert code == 0
            assert hashlib.sha256(csv.read_bytes()).hexdigest() == csv_digest
            assert hashlib.sha256(summary.read_bytes()).hexdigest() == json_digest

    def test_golden_digests_pure_backend(self, tmp_path):
        """The same bytes from the pure-Python kernels, whichever backend
        this process loaded."""
        csv, summary = tmp_path / "out.csv", tmp_path / "out.json"
        env = {"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin", "HYPERFIELD_PURE": "1"}
        for args, csv_digest, json_digest in self.GOLDEN:
            proc = subprocess.run(
                [sys.executable, "-m", "hyperfield", "census", *args, "--out-csv", str(csv), "--out-json", str(summary)],
                capture_output=True, env=env, timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            assert hashlib.sha256(csv.read_bytes()).hexdigest() == csv_digest
            assert hashlib.sha256(summary.read_bytes()).hexdigest() == json_digest

    def test_box_cap_exit_5(self, capsys):
        code, _, err = run_cli(
            ["census", "--curve", "1,1,0,1", "--n", "3", "--Y", "8", "--box-cap", "10"], capsys
        )
        assert code == 5
        assert "exceeds cap" in err

    @pytest.mark.parametrize(
        "n, Y",
        [("400", "2"), ("20", "1" + "0" * 300), ("200000", "1")],
        ids=["many_coefficients", "huge_height", "n_200000"],
    )
    def test_box_cap_refuses_any_size(self, capsys, n, Y):
        """A box whose cardinality has more digits than str() prints, or too
        many coefficients to enumerate the bounds of, is refused like any
        other box above the cap."""
        code, out, err = run_cli(["census", "--curve", "1,1,0,1", "--n", n, "--Y", Y], capsys)
        assert code == 5
        assert out == ""
        assert err.startswith("error: box cardinality ") and err.endswith(" exceeds cap 100000000\n")

    def test_factor_cap_exit_5(self, capsys):
        """A degree-3 F that the screen leaves open needs Zassenhaus, which a
        factor cap of 2 forbids."""
        code, out, err = run_cli(
            ["census", "--curve", "1,1,0,1", "--n", "3", "--Y", "3", "--factor-cap", "2"], capsys
        )
        assert code == 5
        assert out == ""
        assert err == "error: cannot decide irreducibility at degree 3 above factor cap 2\n"

    @pytest.mark.parametrize("flag, line, code", [("1000", "box_cap=10", 0), ("10", "box_cap=1000", 5), (None, "box_cap=10", 5)])
    def test_box_cap_flag_beats_config(self, capsys, tmp_path, flag, line, code):
        # The n = 3, Y = 2 box has 15 members.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"curve=1,1,0,1\nn=3\nY=2\n{line}\n", encoding="utf-8")
        args = ["census", "--config", str(cfg)] + (["--box-cap", flag] if flag else [])
        assert run_cli(args, capsys)[0] == code

    FLAGS = ["--curve", "1,1,0,1", "--n", "3", "--Y", "2", "--fingerprint-primes", "7", "--factor-cap", "9",
             "--box-cap", "99", "--workers", "2"]
    CONFIG = "curve=1,0,0,1,1\nn=6\nsweep=3,4\nfingerprint_primes=8\nfactor_cap=10\nbox_cap=999\nworkers=3\n"

    @pytest.mark.parametrize(
        "flags, config, want",
        [
            (FLAGS, None, ((1, 1, 0, 1), 3, [Fraction(2)], CensusConfig(7, 9, 99, 2))),
            (FLAGS, CONFIG, ((1, 1, 0, 1), 3, [Fraction(2)], CensusConfig(7, 9, 99, 2))),
            ([], CONFIG, ((1, 0, 0, 1, 1), 6, [Fraction(3), Fraction(4)], CensusConfig(8, 10, 999, 3))),
            (["--curve", "1,1,0,1", "--n", "3", "--Y", "2"], None, ((1, 1, 0, 1), 3, [Fraction(2)], CensusConfig())),
            (["--sweep", "2,3"], "curve=1,1,0,1\nn=3\nY=4\n", ((1, 1, 0, 1), 3, [Fraction(2), Fraction(3)], CensusConfig())),
        ],
    )
    def test_flag_beats_config_beats_default(self, capsys, tmp_path, monkeypatch, flags, config, want):
        """Every census setting: an explicit flag, else the config key, else the default."""
        seen = []

        def fake_census(curve, n, y, cfg, classified):
            seen.append((curve.f.coeffs, n, y, cfg))
            return SimpleNamespace(summary={}, csv_lines=[])

        monkeypatch.setattr(cli, "run_census", fake_census)  # after import: main must still reach the fake
        args = ["census", *flags]
        if config is not None:
            (tmp_path / "run.cfg").write_text(config, encoding="utf-8")
            args += ["--config", str(tmp_path / "run.cfg")]
        assert run_cli(args, capsys)[0] == 0
        curve, n, ys, cfg = want
        assert seen == [(curve, n, y, cfg) for y in ys]


class TestParserReuse:
    """In one process, each command gives what it gives run alone: main
    keeps no state between calls."""

    COMMANDS = [
        ["certify", "--poly", "1,1,0,1", "--primes", "0"],  # a parse error
        ["certify", "--poly", "-1,-1,0,0,0,1", "--primes", "30"],
        ["census", "--curve", "1,1,0,1", "--n", "3", "--Y", "2"],
    ]

    def test_one_process_matches_each_command_alone(self, capsys):
        env = {"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"}
        codes = []
        for argv in self.COMMANDS:
            alone = subprocess.run([sys.executable, "-m", "hyperfield", *argv], capture_output=True, text=True, env=env)
            got = run_cli(argv, capsys)
            assert got == (alone.returncode, alone.stdout, alone.stderr), argv
            codes.append(got[0])
        assert codes == [2, 0, 0]


class TestImportCost:
    def test_cli_import_loads_no_dataclasses(self):
        # dataclasses pulls in inspect, ast, dis and tokenize, which nothing
        # else needs: 10-12 ms of every certify and census process's start-up
        # on Python 3.11 (2-core x86-64 host), before its classes are built.
        code = (
            "import sys; before = set(sys.modules); import hyperfield.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"})
        loaded = proc.stdout.split()
        assert "hyperfield.cli" in loaded, proc.stderr
        assert "dataclasses" not in loaded
        assert "inspect" not in loaded

    def test_no_argparse_gettext_or_locale_after_import_or_a_command(self):
        # argparse (with gettext, which loads locale) took about 4.5 ms of the
        # first census or certify call in a fresh process; the option table
        # needs none of them.
        code = (
            "import sys\nimport hyperfield.cli as cli\nwatched = {'argparse', 'gettext', 'locale'}\n"
            "after_import = sorted(watched & set(sys.modules))\n"
            "code = cli.main(['certify', '--poly', '-1,-1,0,0,0,1'])\n"
            "print(after_import, sorted(watched & set(sys.modules)), code)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"})
        assert proc.stdout.splitlines()[-1] == "[] [] 0", proc.stderr


class TestOptionTable:
    """main walks argv against cli.COMMANDS: --name value or --name=value,
    exact names, the last of a repeated option winning. A parse error is
    one error: line and exit 2, with nothing on stdout."""

    NP = ["np", "--poly", "-5,0,1", "--prime", "5"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["np", "--poly=-5,0,1", "--prime=5"],
            ["np", "--poly", "-5,0,1", "--prime=5"],
            ["np", "--prime", "5", "--poly", "-5,0,1"],
            ["np", "--poly", "1,2", "--prime", "7", "--poly", "-5,0,1", "--prime", "5"],  # the last one wins
        ],
    )
    def test_spellings_of_one_command(self, argv, capsys):
        assert run_cli(argv, capsys) == run_cli(self.NP, capsys)

    def test_negative_values_are_values(self, capsys):
        assert run_cli(["np", "--poly", "6,0,1", "--prime", "-3"], capsys) == (3, "", "error: -3 is not prime\n")
        code, out, _ = run_cli(["certify", "--poly", "-1,-1,0,0,0,1", "--primes", "5"], capsys)
        assert (code, json.loads(out)["degree"]) == (0, 5)

    def test_argv_defaults_to_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["hyperfield", *self.NP])
        assert run_cli(None, capsys) == run_cli(self.NP, capsys)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["np", "--poly", "-5,0,1", "--prime"], "--prime needs a value"),
            (["np", "--poly", "-5,0,1", "--prime", "5", "--bogus"], "unknown option --bogus"),
            (["certify", "--poly", "1,1,0,1", "--prim", "5"], "unknown option --prim"),  # no prefix matching
            (["certify", "--poly", "1,1,0,1", "--primes=x"], "--primes must be an integer, got 'x'"),
            (["np", "--poly", "-5,0,1"], "np needs --prime"),
            (["np", "--poly", "-5,0,1", "--prime", "5", "--json=yes"], "--json takes no value"),
            (["np", "--poly", "-5,0,1", "--prime", "5", "json"], "unexpected argument 'json'"),
            (["nope", "--poly", "1"], "unknown command 'nope'"),
            ([], "a command is required"),
        ],
    )
    def test_parse_errors(self, argv, message, capsys):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err, err

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    @pytest.mark.parametrize("command", [None, *cli.COMMANDS])
    def test_help_lists_every_option(self, command, flag, capsys):
        code, out, err = run_cli([command, flag] if command else [flag], capsys)
        assert (code, err) == (0, "")
        for name in [command] if command else cli.COMMANDS:
            _, text, options = cli.COMMANDS[name]
            assert f"hyperfield {name}: {text}" in out
            assert all(f"--{option}" in out.split() for option in options), name


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
        real, workers = cli.run_census, []

        def recording(curve, n, Y, cfg, classified):
            workers.append(cfg.workers)
            return real(curve, n, Y, cfg, classified)

        monkeypatch.setattr(cli, "run_census", recording)
        code, out, _ = run_cli(
            ["census", "--curve", "1,1,0,1", "--n", "3", "--Y", "2", "--workers", "4"], capsys
        )
        assert code == 0
        assert workers == [1]  # the census gets the effective count


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
            (["certify", "--poly", "5"], 3),
            (["census", "--curve", "5", "--n", "4", "--Y", "2"], 4),
            (["census", "--curve", "5", "--monicize", "--n", "4", "--Y", "2"], 4),
            (["witness", "--curve", "5", "--monicize", "--n", "4", "--recipe", "ODD_EVEN_TRANSP"], 4),
            (["census", "--curve", "1,1,0,1", "--n", "3", "--Y", "abc"], 2),
            (["census", "--curve", "1,1,0,1", "--n", "3", "--sweep", ","], 2),
            (["witness", "--curve", "1,1,0,1", "--n", "6", "--recipe", "K_CYCLE(x)"], 2),
            (["witness", "--curve", "1,1,0,1", "--n", "6", "--recipe", "K_CYCLE()"], 2),
            (["census", "--config", Config(b"curve=1,1,0,1\nn=abc\nY=2\n")], 2),
            (["census", "--config", Config(b"curve=1,1,0,1\nn=3\nY=2\nbox_cap=abc\n")], 2),
            (["census", "--config", Config(b"curve=1,1,0,1\nn=3\nY=2\n# caf\xe9\n")], 2),
            (["HYPERFIELD_THREADS=x", "census", "--curve", "1,1,0,1", "--n", "3", "--Y", "2"], 2),
            (["census", "--config", "/nonexistent/run.cfg"], 2),
            (["census", "--curve", "1,1,0,1", "--n", "4", "--Y", "8", "--out-csv", "/nonexistent/dir/a.csv"], 2),
            (["census", "--curve", "1,1,0,1", "--n", "4", "--Y", "8", "--out-json", "/nonexistent/dir/a.json"], 2),
            (["census", "--curve", "1,1,0,1", "--n", "3", "--Y", "2", "--box-cap", "0"], 2),
            (["census", "--curve", "1,1,0,1", "--n", "3", "--Y", "2", "--box-cap", "-1"], 2),
            (["certify", "--poly", "1,1,0,1", "--primes", "10000"], 0),
            (["certify", "--poly", "1,1,0,1", "--primes", "10001"], 5),
            (["certify", "--poly", "1,1,0,1", "--primes", "1000000"], 5),
            (["census", "--curve", "1,1,0,1", "--n", "3", "--Y", "2", "--fingerprint-primes", "100000000"], 5),
            (["census", "--config", Config(b"curve=1,1,0,1\nn=3\nY=2\nfingerprint_primes=100000000\n")], 5),
            (["HYPERFIELD_THREADS=0", "census", "--curve", "1,1,0,1", "--n", "3", "--Y", "2"], 2),
            (["HYPERFIELD_THREADS=-2", "census", "--curve", "1,1,0,1", "--n", "3", "--Y", "2"], 2),
            (["exponents", "--g", "1", "--d", "3", "--n", "1" + "0" * 1500], 5),
            (["witness", "--curve", "1,1,0,1", "--n", "1000000001", "--recipe", "ODD_ODD_NCYCLE"], 5),
            (["witness", "--curve", "1,0,0,0,1", "--n", "4096", "--recipe", "K_CYCLE(2048)"], 0),
        ],
    )
    def test_exit_code_within_10_s(self, args, code, tmp_path):
        """Leading NAME=value tokens go to the environment, as in a shell;
        a Config is written to a file whose path replaces it."""
        env = {"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin", "HYPERFIELD_PURE": "1"}
        while "=" in args[0]:
            key, _, value = args[0].partition("=")
            env[key], args = value, args[1:]
        argv = []
        for i, arg in enumerate(args):
            if isinstance(arg, Config):
                (tmp_path / f"{i}.cfg").write_bytes(arg)
                arg = str(tmp_path / f"{i}.cfg")
            argv.append(arg)
        proc = subprocess.run(
            [sys.executable, "-m", "hyperfield", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=10,
        )
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr


def _coeff_text(max_size):
    return st.one_of(
        st.lists(st.integers(-6, 6), max_size=max_size).map(lambda cs: ",".join(map(str, cs))),
        st.sampled_from(["", "x", "1,,2", " 1, 2 ", "1/2,1"]),
    )


_SMALL = st.integers(-3, 40).map(str)
_RECIPES = st.sampled_from(
    [*ALL_RECIPE_KINDS, "K_CYCLE(-1)", "K_CYCLE(0)", "K_CYCLE(2)", "K_CYCLE(5)", "K_CYCLE(x)", "K_CYCLE()", "nope"]
)


def _optional(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


_NP = st.tuples(_coeff_text(7), _SMALL, st.sampled_from([[], ["--json"]])).map(
    lambda t: ["np", "--poly", t[0], "--prime", t[1], *t[2]]
)
_CERTIFY = st.tuples(
    _coeff_text(8), _optional("--primes", st.integers(-1, 20).map(str)), _optional("--factor-cap", _SMALL)
).map(lambda t: ["certify", "--poly", t[0], *t[1], *t[2]])
_CURVES = st.sampled_from(["1,1,0,1", "-1,1,0,-1", "2,1,0,1", "1,-1,0,0,0,1", "1,0,0,0,1", "3,1,0,0,0,0,1"])
_WITNESS = st.tuples(
    st.one_of(_CURVES, _coeff_text(6)),
    st.integers(-1, 8).map(str),
    _RECIPES,
    _optional("--prime", _SMALL),
    _optional("--seed", st.integers(0, 3).map(str)),
    st.sampled_from([[], ["--monicize"]]),
).map(lambda t: ["witness", "--curve", t[0], "--n", t[1], "--recipe", t[2], *t[3], *t[4], *t[5]])


class TestFuzz:
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(argv=st.one_of(_NP, _CERTIFY, _WITNESS))
    def test_main_returns_a_documented_exit_code(self, argv):
        """Small coefficients and primes: cli.main answers with an exit code
        of the table, and no exception escapes it."""
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in {0, 2, 3, 4, 5}, argv


def _error_classes(base=E.HyperfieldError):
    for cls in base.__subclasses__():
        yield cls
        yield from _error_classes(cls)


# The exit code of every package error, as the CLI documents it.
EXIT_CODES = {
    **dict.fromkeys(["ParseFailure", "PolyParseError", "BadPath"], 2),
    **dict.fromkeys(
        ["Inadmissible", "ZeroScale", "ZeroInput", "ZeroPolynomial", "ConstantPolynomial", "NotSquarefree",
         "BadPrime", "NonCoprimeH", "InadmissiblePrime", "WitnessFailed"],
        3,
    ),
    **dict.fromkeys(["OutsideHypotheses", "DegreeDrop", "NonMonic", "HypothesisViolated"], 4),
    **dict.fromkeys(
        ["ResourceCap", "DegreeCapExceeded", "SearchExhausted", "BoxTooLarge", "TooManyPrimes", "SearchWindowExceeded"],
        5,
    ),
}


class TestExitCodes:
    @pytest.mark.parametrize("cls", sorted(set(_error_classes()), key=lambda c: c.__name__), ids=lambda c: c.__name__)
    def test_every_error_exits_with_its_code(self, cls, capsys, monkeypatch):
        def fail(*args):
            raise cls(f"{cls.__name__} raised")

        monkeypatch.setattr(cli, "newton_polygon", fail)
        code, out, err = run_cli(["np", "--poly", "-5,0,1", "--prime", "5"], capsys)
        assert (code, out, err) == (EXIT_CODES[cls.__name__], "", f"error: {cls.__name__} raised\n")
