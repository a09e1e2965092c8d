"""CLI behaviour: subcommands, exit codes, reproducible outputs."""

import subprocess
import sys

import numpy as np
import pytest

from spectralvol.cli import (
    EX_CONFIG,
    EX_DATAERR,
    EX_IOERR,
    EX_OK,
    EX_USAGE,
    main,
)

NOISE_BOUNDS_CFG = """
[simulation]
vol = constant
vol_level = 0.0
drift = zero
n_schedule = 63, 255
refinement = 1

[noise]
variance = 0.01
include_initial = true
include_terminal = true

[estimators]
kinds = siml, ina_sine

[experiment]
type = noise_bounds
replications = 150
m_exponent = 0.4
base_seed = 42
"""


def _write_csv(path, values):
    with open(path, "w") as fh:
        fh.write("time,value\n")
        n = len(values) - 1
        for k, v in enumerate(values):
            fh.write(f"{k / n},{v}\n")


class TestBasisCheck:
    def test_small_sweep_passes(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        assert main(["basis-check", "--max-dim", "33", "--out", str(out)]) == EX_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "kind,dim,orthogonality_error,diagonalization_error"
        # 33 cosine dims + 33 sine dims + odd Fourier dims 3..33
        assert len(lines) == 1 + 33 + 33 + 16

    def test_max_dim_too_small_is_usage_error(self, tmp_path):
        out = tmp_path / "report.csv"
        assert main(["basis-check", "--max-dim", "2", "--out", str(out)]) == EX_USAGE

    def test_unwritable_output_is_io_error(self, tmp_path):
        target = tmp_path / "no-such-dir" / "report.csv"
        assert main(["basis-check", "--max-dim", "5", "--out", str(target)]) == EX_IOERR


class TestEstimate:
    def test_constant_series_estimates_zero(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        _write_csv(path, [5.0, 5.0, 5.0])
        assert main(["estimate", "--input", str(path), "--kind", "siml", "--m", "1"]) == EX_OK
        row = capsys.readouterr().out.strip()
        assert float(row.split(",")[6]) == 0.0

    def test_unit_jump_hand_value(self, tmp_path, capsys):
        path = tmp_path / "jump.csv"
        _write_csv(path, [0.0, 1.0, 1.0])
        assert main(["estimate", "--input", str(path), "--kind", "siml", "--m", "1"]) == EX_OK
        row = capsys.readouterr().out.strip()
        assert float(row.split(",")[6]) == pytest.approx(1.6 * np.cos(0.1 * np.pi) ** 2, rel=1e-9)

    def test_even_length_fourier_is_usage_error(self, tmp_path):
        path = tmp_path / "even.csv"
        _write_csv(path, [0.0, 1.0, 0.0])  # two increments
        code = main(["estimate", "--input", str(path), "--kind", "mm_fourier_real_zero", "--m", "0"])
        assert code == EX_USAGE

    def test_cutoff_too_large_is_usage_error(self, tmp_path):
        path = tmp_path / "short.csv"
        _write_csv(path, [0.0, 1.0, 0.5])
        assert main(["estimate", "--input", str(path), "--kind", "siml", "--m", "5"]) == EX_USAGE

    def test_malformed_csv_is_data_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,value\n0.0,not-a-number\n1.0,2.0\n")
        assert main(["estimate", "--input", str(path), "--kind", "siml", "--m", "1"]) == EX_DATAERR

    def test_missing_input_is_data_error(self, tmp_path):
        assert (
            main(["estimate", "--input", str(tmp_path / "nope.csv"), "--kind", "siml", "--m", "1"])
            == EX_DATAERR
        )

    def test_complex_kind_accepts_q(self, tmp_path, capsys):
        path = tmp_path / "series.csv"
        rng = np.random.default_rng(3)
        _write_csv(path, np.cumsum(rng.normal(size=12)))
        code = main(
            ["estimate", "--input", str(path), "--kind", "mm_fourier_complex", "--m", "2", "--q", "1"]
        )
        assert code == EX_OK
        assert capsys.readouterr().out.strip().split(",")[3] == "1"


class TestBadCsvInput:
    @pytest.mark.parametrize(
        "text",
        [
            "time,value\n0.0,1.0\n0.5\n1.0,2.0\n",
            "time,value\n0.0,1.0\n0.5,nan\n1.0,2.0\n",
            "time,value\n0.0,1.0\n0.5,inf\n1.0,2.0\n",
            "time,value\n0.0,1.0\n1.0,2.0\n0.5,1.5\n",
            "time,value\n0.0,1.0\n0.5,2.0\n0.5,1.5\n",
            "time,value,latent,noise\n0.0,1.0,1.0,0.0\n0.5,2.0\n1.0,1.5,1.4,0.1\n",
            "time,value,latent,noise\n0.0,1.0,1.0,0.0\n0.5,2.0,1.9\n1.0,1.5,1.4,0.1\n",
            "time,value\n0.0,1.0\n0.5,abc\n1.0,2.0\n",
            "time,value\n0.0,1.0\n0.5,2.0\n1.5,1.5\n",
        ],
        ids=["one_cell_row", "nan_value", "inf_value", "decreasing_time", "repeated_time",
             "two_cell_oracle_row", "three_cell_oracle_row", "non_numeric_cell",
             "time_outside_unit_interval"],
    )
    def test_exits_65_with_one_line_message(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        proc = subprocess.run(
            [sys.executable, "-m", "spectralvol.cli", "estimate", "--input", str(path),
             "--kind", "siml", "--m", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EX_DATAERR
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1


class TestExperimentCommand:
    def test_missing_config(self, tmp_path):
        code = main(
            ["experiment", "--config", str(tmp_path / "none.cfg"), "--out-dir", str(tmp_path)]
        )
        assert code == EX_CONFIG

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(NOISE_BOUNDS_CFG.replace("m_exponent", "m_exponnent"))
        assert main(["experiment", "--config", str(cfg), "--out-dir", str(tmp_path)]) == EX_CONFIG

    def test_noise_bounds_run_passes(self, tmp_path, capsys):
        cfg = tmp_path / "nb.cfg"
        cfg.write_text(NOISE_BOUNDS_CFG)
        out_dir = tmp_path / "out"
        assert main(["experiment", "--config", str(cfg), "--out-dir", str(out_dir)]) == EX_OK
        text = (out_dir / "noise_bounds.csv").read_text()
        assert text.startswith("experiment,kind,n,m,")
        assert "false" not in text
        assert "=> ok" in capsys.readouterr().out

    def test_byte_identical_across_thread_counts(self, tmp_path):
        cfg = tmp_path / "nb.cfg"
        cfg.write_text(NOISE_BOUNDS_CFG)
        outputs = {}
        for threads in ("1", "8"):
            out_dir = tmp_path / f"out{threads}"
            code = main(
                [
                    "experiment",
                    "--config",
                    str(cfg),
                    "--out-dir",
                    str(out_dir),
                    "--threads",
                    threads,
                ]
            )
            assert code == EX_OK
            outputs[threads] = (out_dir / "noise_bounds.csv").read_bytes()
        assert outputs["1"] == outputs["8"]

    def test_seed_override_changes_output(self, tmp_path):
        cfg = tmp_path / "nb.cfg"
        cfg.write_text(NOISE_BOUNDS_CFG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["experiment", "--config", str(cfg), "--out-dir", str(out_a)])
        main(["experiment", "--config", str(cfg), "--out-dir", str(out_b), "--seed", "999"])
        assert (out_a / "noise_bounds.csv").read_bytes() != (out_b / "noise_bounds.csv").read_bytes()


class TestBadConfig:
    """Configs an experiment cannot run exit 78 with one line and no traceback."""

    @pytest.mark.parametrize(
        "edits",
        [
            [("m_exponent = 0.4", "m_exponent = 1.5")],
            [("m_exponent = 0.4", "m_exponent = -1")],
            [("vol = constant", "vol = ou"), ("type = noise_bounds", "type = normality")],
            [("type = noise_bounds", "type = nope")],
            [("vol_level = 0.0", "vol_level = 1.0")],
            [("type = noise_bounds", "type = initial_noise_contrast"),
             ("include_initial = true", "include_initial = false")],
            [("refinement = 1", "refinement = 0")],
            [("base_seed = 42", "base_seed = 42\nthreads = 0")],
            [("vol_level = 0.0", "vol_level = nan")],
            [("replications = 150", "replications = 4294967297")],
        ],
        ids=["m_above_n", "m_below_one", "ou_vol_for_normality", "unknown_type",
             "noise_bounds_with_signal", "contrast_without_initial_noise", "zero_refinement",
             "zero_threads", "nan_vol_level", "replications_above_2_32"],
    )
    def test_exits_78_without_traceback(self, tmp_path, edits):
        text = NOISE_BOUNDS_CFG
        for old, new in edits:
            assert old in text
            text = text.replace(old, new)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        proc = subprocess.run(
            [sys.executable, "-m", "spectralvol.cli", "experiment", "--config", str(cfg),
             "--out-dir", str(tmp_path / "out")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EX_CONFIG
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1


class TestUsage:
    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == EX_USAGE

    def test_module_entry_point(self, tmp_path):
        out = tmp_path / "r.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "spectralvol.cli", "basis-check", "--max-dim", "5", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EX_OK
        assert "basis-check" in proc.stdout
