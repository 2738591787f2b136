import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from subrank import cli, modular
from subrank.cli import main
from subrank.certificate import certificate_to_json, find_certificate
from subrank.pattern import build_pattern

from reference_formats import pattern_from_json, pattern_to_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def forbid_pattern_build(monkeypatch):
    """Make any pattern construction by the CLI or the oracle fail loudly."""
    def refuse(*args):
        raise AssertionError("pattern built for a shape refused by size")

    monkeypatch.setattr(cli, "build_pattern", refuse)
    monkeypatch.setattr(modular, "PatternMatrix", refuse)


class TestModuleEntryPoint:
    def test_python_dash_m_matches_main(self, capsys):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run(
            [sys.executable, "-m", "subrank", "q", "--dims", "6,6,6"],
            cwd=root, env=env, capture_output=True, text=True, timeout=60,
        )
        code, out, _ = run(capsys, "q", "--dims", "6,6,6")
        assert (proc.returncode, proc.stdout) == (code, out)


class TestQ:
    def test_square_example(self, capsys):
        code, out, _ = run(capsys, "q", "--dims", "6,6,6")
        assert code == 0
        assert "Q(6,6,6) = 4" in out
        assert "24 rows x 24 columns" in out

    def test_tiny_cube(self, capsys):
        code, out, _ = run(capsys, "q", "--dims", "2,2,2")
        assert code == 0
        assert "Q(2,2,2) = 2" in out

    def test_order_four(self, capsys):
        code, out, _ = run(capsys, "q", "--dims", "3,3,3,3")
        assert code == 0
        assert "Q(3,3,3,3) = 2" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "q", "--dims", "6,6,6", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["q"] == 4
        assert doc["rows_at_q"] == doc["cols_at_q"] == 24

    def test_malformed_dims(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["q", "--dims", "6,six,6"])
        assert exc.value.code == 2

    def test_too_few_dims(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["q", "--dims", "6,6"])
        assert exc.value.code == 2


class TestCertificate:
    def test_writes_valid_json(self, capsys, tmp_path):
        out_path = tmp_path / "cert.json"
        code, out, _ = run(capsys, "certificate", "--dims", "6,6,6", "--r", "4",
                           "--out", str(out_path))
        assert code == 0
        assert "degree 24" in out
        doc = json.loads(out_path.read_text())
        assert doc["r"] == 4
        assert sum(m["power"] for m in doc["monomial"]) == 24

    def test_streamed_json_is_the_in_memory_text(self, capsys, tmp_path):
        text = certificate_to_json(find_certificate(build_pattern(4, (6, 6, 6))))
        path = tmp_path / "cert.json"
        _, head, _ = run(capsys, "certificate", "--dims", "6,6,6", "--r", "4",
                         "--out", str(path))
        assert path.read_text() == text
        code, out, _ = run(capsys, "certificate", "--dims", "6,6,6", "--r", "4")
        assert code == 0
        assert out == head.replace(f"wrote {path}\n", "") + text + "\n"

    def test_non_certificate_regime(self, capsys):
        code, _, err = run(capsys, "certificate", "--dims", "6,6,6", "--r", "5")
        assert code == 2
        assert "15 columns < 60 rows" in err

    def test_empty_certificate(self, capsys):
        code, out, _ = run(capsys, "certificate", "--dims", "3,3,3", "--r", "2")
        assert code == 0
        assert "degree 0" in out

    def test_refused_by_size_before_the_pattern_is_built(self, capsys, monkeypatch):
        # 5,088,276 rows: the search would hold about 11 GB.
        forbid_pattern_build(monkeypatch)
        start = time.perf_counter()
        code, out, err = run(capsys, "certificate", "--dims", "10000,10000,10000",
                             "--r", "173")
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        assert err == ("error: pattern has 5088276 rows, over the 524288 "
                       "that a certificate search holds in memory\n")

    def test_unwritable_out_fails_before_the_search(self, capsys, monkeypatch, tmp_path):
        forbid_pattern_build(monkeypatch)
        path = tmp_path / "missing" / "c.json"
        code, out, err = run(capsys, "certificate", "--dims", "6,6,6", "--r", "4",
                             "--out", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: [Errno 2] No such file or directory: '{path}'\n"


class TestVerify:
    def test_square_example(self, capsys):
        code, out, _ = run(capsys, "verify", "--dims", "6,6,6", "--r", "4",
                           "--trials", "3")
        assert code == 0
        assert "rank 24" in out
        assert out.strip().endswith("ok")

    def test_degree_six(self, capsys):
        code, out, _ = run(capsys, "verify", "--dims", "4,4,4", "--r", "3")
        assert code == 0

    def test_not_ok_when_columns_short(self, capsys):
        code, out, _ = run(capsys, "verify", "--dims", "6,6,6", "--r", "5")
        assert code == 1
        assert "NOT ok" in out

    def test_too_large_for_dense_matrix(self, capsys):
        code, out, err = run(capsys, "verify", "--dims", "200,200,200", "--r", "24")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "12144 x 12672" in err

    def test_refused_by_size_before_the_pattern_is_built(self, capsys, monkeypatch):
        # 5,088,276 rows: the row index alone would not fit in memory.
        forbid_pattern_build(monkeypatch)
        code, out, err = run(capsys, "verify", "--dims", "10000,10000,10000", "--r", "173")
        assert (code, out) == (2, "")
        assert err == ("error: dense 5088276 x 5100213 matrix needs 197992641 MiB, "
                       "over the 1024 MiB limit\n")

    def test_composite_prime_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "--dims", "6,6,6", "--r", "4", "--prime", "1000")
        assert code == 2
        assert err == "error: modulus 1000 is not prime\n"


class TestDim:
    def test_oracle_agreement(self, capsys):
        code, out, _ = run(capsys, "dim", "--dims", "3,3,3", "--r", "3", "--oracle")
        assert code == 0
        assert "dim = 21" in out
        assert "oracle agrees" in out

    def test_asymmetric_oracle(self, capsys):
        code, out, _ = run(capsys, "dim", "--dims", "4,3,3", "--r", "3", "--oracle")
        assert code == 0
        assert "dim = 33" in out

    def test_oracle_r_out_of_range(self, capsys):
        code, out, err = run(capsys, "dim", "--dims", "3,3,3", "--r", "4", "--oracle")
        assert code == 2
        assert out == ""
        assert err == "error: need 1 <= r <= min(dims), got r=4, dims=(3, 3, 3)\n"

    def test_oracle_too_large_for_dense_matrix(self, capsys):
        code, out, err = run(capsys, "dim", "--dims", "200,200,200", "--r", "25", "--oracle")
        assert code == 2
        assert out == ""
        assert err.startswith("error: dense 13800 x 13125 matrix")

    def test_oracle_refused_by_size_before_the_pattern_is_built(self, capsys, monkeypatch):
        forbid_pattern_build(monkeypatch)
        code, out, err = run(capsys, "dim", "--dims", "10000,10000,10000", "--r", "174",
                             "--oracle")
        assert (code, out) == (2, "")
        assert err == ("error: dense 5177544 x 5129172 matrix needs 202610120 MiB, "
                       "over the 1024 MiB limit\n")

    def test_oracle_composite_prime(self, capsys):
        code, out, err = run(capsys, "dim", "--dims", "3,3,3", "--r", "3", "--oracle",
                             "--prime", "1000")
        assert (code, out) == (2, "")
        assert err == "error: modulus 1000 is not prime\n"

    def test_full_regime(self, capsys):
        code, out, _ = run(capsys, "dim", "--dims", "6,6,6", "--r", "4")
        assert code == 0
        assert "dim = 216" in out
        assert "regime: full" in out


class TestTable:
    def test_verified_table(self, capsys):
        code, out, _ = run(capsys, "table", "--max", "6", "--verify")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,q,rows,cols,certificate_ok,rank_ok"
        assert len(lines) == 7
        assert all(line.endswith("true,true") for line in lines[1:])

    def test_single_row(self, capsys):
        code, out, _ = run(capsys, "table", "--max", "1")
        assert code == 0
        assert out.strip().split("\n")[1] == "1,1,0,0"

    def test_byte_identical_runs(self, capsys):
        _, out1, _ = run(capsys, "table", "--max", "8", "--verify")
        _, out2, _ = run(capsys, "table", "--max", "8", "--verify")
        assert out1 == out2

    def test_q_of_40(self, capsys):
        code, out, _ = run(capsys, "table", "--max", "40")
        rows = {int(line.split(",")[0]): line for line in out.strip().split("\n")[1:]}
        assert rows[40].startswith("40,10,")

    def test_closed_form_table_to_100_is_fast(self, capsys):
        import time

        start = time.time()
        code, out, _ = run(capsys, "table", "--max", "100")
        assert code == 0
        assert time.time() - start < 1.0
        lines = out.strip().split("\n")
        assert len(lines) == 101
        assert lines[100] == "100,17,4080,4233"

    def test_verified_table_refused_by_size_before_any_row(self, capsys, monkeypatch):
        # n = 193 is the first row whose dense matrix is over the limit; the
        # 192 rows before it would take minutes to rank, and none is printed.
        with monkeypatch.context() as mp:
            forbid_pattern_build(mp)
            start = time.time()
            code, out, err = run(capsys, "table", "--max", "193", "--verify")
            assert time.time() - start < 5.0
        assert (code, out) == (2, "")
        assert err == ("error: dense 12144 x 12168 matrix needs 1127 MiB, "
                       "over the 1024 MiB limit\n")
        code, out, _ = run(capsys, "table", "--max", "193")
        assert code == 0
        assert len(out.strip().split("\n")) == 194

    def test_unwritable_out_fails_before_any_row(self, capsys, monkeypatch, tmp_path):
        forbid_pattern_build(monkeypatch)
        path = tmp_path / "missing" / "x"
        code, out, err = run(capsys, "table", "--max", "3", "--verify", "--out", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: [Errno 2] No such file or directory: '{path}'\n"

    def test_verified_table_to_40_within_budget(self, cached_cli_run):
        code, out, elapsed = cached_cli_run("table", "--max", "40", "--verify")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 41
        assert all(line.endswith("true,true") for line in lines[1:])
        assert elapsed < 600


class TestExport:
    def test_json_export_round_trips(self, capsys, tmp_path):
        path = tmp_path / "pattern.json"
        code, _, _ = run(capsys, "export", "--dims", "6,6,6", "--r", "4",
                         "--format", "json", "--out", str(path))
        assert code == 0
        pm = pattern_from_json(path.read_text())
        assert pm.nnz == 144
        text = pattern_to_json(pm)
        assert path.read_text() == text
        code, out, _ = run(capsys, "export", "--dims", "6,6,6", "--r", "4", "--format", "json")
        assert (code, out) == (0, text + "\n")

    def test_coord_export_header_only(self, capsys):
        code, out, _ = run(capsys, "export", "--dims", "3,3,3", "--r", "2",
                           "--format", "coord")
        assert code == 0
        assert out.strip() == "0 6 0"

    def test_values_export(self, capsys):
        code, out, _ = run(capsys, "export", "--dims", "4,4,4", "--r", "3",
                           "--format", "values", "--seed", "1")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "6 9 18"
        assert len(lines) == 19

    def test_values_export_refused_by_size_before_the_pattern_is_built(
        self, capsys, monkeypatch
    ):
        forbid_pattern_build(monkeypatch)
        code, out, err = run(capsys, "export", "--dims", "10000,10000,10000", "--r", "173",
                             "--format", "values")
        assert (code, out) == (2, "")
        assert err.startswith("error: dense 5088276 x 5100213 matrix")

    def test_r_above_dims_rejected(self, capsys):
        code, _, err = run(capsys, "export", "--dims", "3,3,3", "--r", "4")
        assert code == 2
        assert "exceeds" in err

    @pytest.mark.parametrize("fmt", ["json", "coord"])
    def test_text_export_too_large_refused(self, capsys, fmt):
        code, out, err = run(capsys, "export", "--dims", "200,200,200", "--r", "24",
                             "--format", fmt)
        assert code == 2
        assert out == ""
        assert err == ("error: pattern has 6412032 nonzeros, over the 1048576 "
                       "that a text export builds in memory\n")

    @pytest.mark.parametrize("fmt", ["json", "coord"])
    def test_text_export_refused_by_size_before_the_pattern_is_built(
        self, capsys, monkeypatch, fmt
    ):
        # 2,532,014,100 nonzeros on 438,900 rows, whose index alone takes
        # seconds and hundreds of MB to build.
        forbid_pattern_build(monkeypatch)
        code, out, err = run(capsys, "export", "--dims", "2000,2000,2000", "--r", "77",
                             "--format", fmt)
        assert (code, out) == (2, "")
        assert err == ("error: pattern has 2532014100 nonzeros, over the 1048576 "
                       "that a text export builds in memory\n")


class TestSeedEnvFallback:
    def test_env_seed_changes_values(self, capsys, monkeypatch):
        monkeypatch.setenv("SUBRANK_SEED", "5")
        import importlib

        import subrank.cli as cli_module
        importlib.reload(cli_module)
        code = cli_module.main(["export", "--dims", "4,4,4", "--r", "3",
                                "--format", "values"])
        out_env = capsys.readouterr().out
        assert code == 0
        monkeypatch.delenv("SUBRANK_SEED")
        importlib.reload(cli_module)
        code = cli_module.main(["export", "--dims", "4,4,4", "--r", "3",
                                "--format", "values", "--seed", "5"])
        out_flag = capsys.readouterr().out
        assert out_env == out_flag


class TestBadInput:
    def test_non_integer_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("SUBRANK_SEED", "x")
        code, out, err = run(capsys, "verify", "--dims", "4,4,4", "--r", "3")
        assert code == 2
        assert out == ""
        assert err == "error: SUBRANK_SEED must be an integer, got 'x'\n"

    def test_prime_at_least_two_to_the_64(self, capsys):
        prime = str((1 << 64) + 13)  # the least prime above 2^64
        code, out, err = run(capsys, "verify", "--dims", "6,6,6", "--r", "4", "--prime", prime)
        assert (code, out) == (2, "")
        assert err == f"error: modulus {prime} is not below 2^64\n"

    @pytest.mark.parametrize("top", ["0", "-5"])
    def test_table_max_below_one(self, capsys, top):
        code, out, err = run(capsys, "table", "--max", top)
        assert code == 2
        assert out == ""
        assert err == f"error: --max must be at least 1, got {top}\n"
