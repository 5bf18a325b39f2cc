"""Command-line contract: exit codes, formats, determinism."""

import json

import jsonschema
import pytest

import bigmrf.validity
from bigmrf import LanczosNonConvergence, SPECTRUM_CSV_HEADER, VERDICT_SCHEMA
from bigmrf.cli import main


def _check_args(phi="0.5", method=None, n1="10", n2="10"):
    args = ["check", "--n1", n1, "--n2", n2, "--phi", phi, "--rho11", "0",
            "--rho12", "0", "--rho21", "0", "--rho22", "0"]
    if method:
        args += ["--method", method]
    return args


class TestCheck:
    def test_valid_exits_zero_with_json(self, capsys):
        code = main(_check_args("0.5"))
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        jsonschema.validate(payload, VERDICT_SCHEMA)
        assert payload["valid"] == "true"
        assert payload["min_eig"] == pytest.approx(0.5)
        assert payload["n1"] == 10

    def test_invalid_exits_one(self, capsys):
        assert main(_check_args("1.5")) == 1
        assert json.loads(capsys.readouterr().out)["valid"] == "false"

    def test_unknown_exits_two(self, capsys):
        args = ["check", "--n1", "10", "--n2", "10", "--phi", "0",
                "--rho11", "0.25", "--rho12", "0", "--rho21", "0",
                "--rho22", "0.25", "--method", "certified"]
        assert main(args) == 2
        assert json.loads(capsys.readouterr().out)["valid"] == "unknown"

    def test_all_methods_run(self, capsys):
        for method in ("dd", "circulant", "certified", "limit", "exact"):
            code = main(_check_args("0.2", method=method))
            assert code == 0, method
            payload = json.loads(capsys.readouterr().out)
            jsonschema.validate(payload, VERDICT_SCHEMA)

    def test_dd_zero_margin_exits_two(self, capsys):
        # singular precision (margin exactly 0): not a proof of validity
        assert main(_check_args("1", method="dd", n1="5", n2="5")) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["valid"] == "unknown" and payload["min_eig"] == 0.0

    def test_dd_not_dominant_exits_two(self, capsys):
        args = ["check", "--n1", "100", "--n2", "100", "--phi", "0.1",
                "--rho11", "0.2", "--rho12", "0.05", "--rho21", "-0.05",
                "--rho22", "0.2", "--method", "dd"]
        assert main(args) == 2
        assert json.loads(capsys.readouterr().out)["valid"] == "unknown"

    def test_bad_flag_exits_64(self, capsys):
        assert main(_check_args() + ["--frobnicate"]) == 64
        assert main(["check", "--n1", "10"]) == 64
        assert main(["frobnicate"]) == 64

    def test_removed_margin_and_tol_flags_exit_64(self, capsys):
        assert main(_check_args() + ["--margin", "0.1"]) == 64
        assert main(_check_args(method="limit") + ["--tol", "1e-6"]) == 64

    def test_bad_dims_exit_64(self, capsys):
        assert main(_check_args(n1="2")) == 64

    def test_oracle_nonconvergence_exits_65(self, capsys, monkeypatch):
        def fail(m, lower_bound):
            raise LanczosNonConvergence(0.1, 1e-3, 3)

        monkeypatch.setattr(bigmrf.validity, "lanczos_extreme", fail)
        # dims above the dense cap so the iterative oracle actually runs
        args = ["check", "--n1", "35", "--n2", "35", "--phi", "0.21",
                "--rho11", "0.17", "--rho12", "-0.08", "--rho21", "0.14",
                "--rho22", "0.11", "--method", "exact"]
        assert main(args) == 65
        assert "did not converge" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["check", "--help"]) == 0


class TestSpectrum:
    def test_stdout_table(self, capsys):
        args = ["spectrum", "--n1", "4", "--n2", "6", "--phi", ".1",
                "--rho11", ".1", "--rho12", ".05", "--rho21", "-.05",
                "--rho22", ".1"]
        assert main(args) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == SPECTRUM_CSV_HEADER
        assert len(lines) == 1 + 24

    def test_file_output(self, tmp_path, capsys):
        out = tmp_path / "spec.csv"
        args = ["spectrum", "--n1", "3", "--n2", "3", "--phi", "0",
                "--rho11", "0", "--rho12", "0", "--rho21", "0",
                "--rho22", "0", "-o", str(out)]
        assert main(args) == 0
        assert out.read_text().startswith(SPECTRUM_CSV_HEADER)

    def test_unwritable_path_exits_66(self, capsys):
        args = ["spectrum", "--n1", "3", "--n2", "3", "--phi", "0",
                "--rho11", "0", "--rho12", "0", "--rho21", "0",
                "--rho22", "0", "-o", "/nonexistent-dir/spec.csv"]
        assert main(args) == 66


class TestSample:
    def test_deterministic_csv(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["sample", "--n1", "8", "--n2", "8", "-N", "3000",
                "--seed", "7", "--include-rejected"]
        assert main(base + ["-o", str(out1)]) == 0
        assert main(base + ["-o", str(out2), "--threads", "3"]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        summary = capsys.readouterr().out
        assert "accepted" in summary

    def test_stdout_csv_with_summary_on_stderr(self, capsys):
        args = ["sample", "--n1", "8", "--n2", "8", "-N", "200", "--seed", "1"]
        assert main(args) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("idx,phi,rho11")
        assert "accepted" in captured.err

    def test_low_acceptance_exits_70(self, capsys):
        # diag_dominance accepts nothing here: the warm-up stops the run
        args = ["sample", "--n1", "5", "--n2", "5", "-N", "4096", "--method", "dd",
                "--seed", "5"]
        assert main(args) == 70
        assert capsys.readouterr().err == (
            "bigmrf: acceptance rate 0.00e+00 below 0.0001 after 4096 proposals "
            "(method=diag_dominance, dims=(5,5))\n")


class TestSlice:
    def test_csv_and_svg(self, tmp_path, capsys):
        # nonzero phi: the valid region then extends beyond the dominant one,
        # so both colour groups are populated
        csv_path = tmp_path / "slice.csv"
        svg_path = tmp_path / "slice.svg"
        args = ["slice", "--phi", "0.3", "--rho11", "0.05", "--rho22", "-0.1",
                "--n1", "12", "--n2", "12", "-N", "2000", "--seed", "7",
                "-o", str(csv_path), "--svg", str(svg_path)]
        assert main(args) == 0
        assert csv_path.read_text().startswith("idx,phi")
        svg = svg_path.read_text()
        assert svg.startswith("<svg") and "circle" in svg
        assert "#1f77b4" in svg  # valid points drawn
        summary = capsys.readouterr().out
        assert "ratio" in summary

    def test_unwritable_svg_exits_66(self, tmp_path, capsys):
        args = ["slice", "--phi", "0", "--rho11", "0", "--rho22", "0",
                "--n1", "8", "--n2", "8", "-N", "200", "--seed", "3",
                "-o", str(tmp_path / "s.csv"), "--svg", "/nonexistent-dir/s.svg"]
        assert main(args) == 66
        assert "cannot write" in capsys.readouterr().err

    def test_seed_reproducible_counts(self, tmp_path, capsys):
        args = ["slice", "--phi", "0", "--rho11", "0", "--rho22", "0",
                "--n1", "10", "--n2", "10", "-N", "1000", "--seed", "3",
                "-o", str(tmp_path / "s.csv")]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first


class TestStudy:
    def test_small_run_writes_files(self, tmp_path, capsys):
        prefix = str(tmp_path / "st")
        args = ["study", "--grids", "12:24:6", "-N", "2", "--seed", "5",
                "-o", prefix, "--svg"]
        assert main(args) == 0
        records = (tmp_path / "st_records.csv").read_text()
        fits = (tmp_path / "st_fits.csv").read_text()
        assert records.startswith("theta_idx,n1,n2")
        assert len(records.strip().split("\n")) == 1 + 2 * 3
        assert fits.startswith("theta_idx,field")
        assert (tmp_path / "st_delta.svg").read_text().startswith("<svg")
        assert "median delta slope" in capsys.readouterr().out

    def test_bad_grid_spec_exits_64(self, capsys):
        assert main(["study", "--grids", "banana"]) == 64


class TestBench:
    def test_small_run(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        args = ["bench", "--dims", "20x20", "--n-valid", "1", "--n-invalid", "1",
                "--reps", "2", "--seed", "1", "-o", str(out)]
        assert main(args) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "n1,n2,case,method,median_ns,ratio"
        assert len(lines) == 5
        assert "baseline/fast" in capsys.readouterr().out

    def test_bad_dims_exits_64(self, capsys):
        assert main(["bench", "--dims", "20by20"]) == 64


class TestThreadsEnv:
    def test_env_fallback(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GMRF_THREADS", "2")
        args = ["sample", "--n1", "8", "--n2", "8", "-N", "100", "--seed", "1",
                "-o", str(tmp_path / "x.csv")]
        assert main(args) == 0

    def test_env_invalid_exits_64(self, monkeypatch, capsys):
        monkeypatch.setenv("GMRF_THREADS", "zero")
        args = ["sample", "--n1", "8", "--n2", "8", "-N", "100", "--seed", "1"]
        assert main(args) == 64
