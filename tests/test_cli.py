"""CLI behaviour: subcommands, exit codes, reproducible outputs."""

import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spectralvol.cli as cli
from spectralvol.cli import (
    EX_CONFIG,
    EX_DATAERR,
    EX_FAIL,
    EX_IOERR,
    EX_OK,
    EX_USAGE,
    main,
)
from spectralvol.estimators import (
    ina,
    mm_fourier_complex,
    mm_fourier_real_zero,
    result_csv_rows,
    siml,
)
from spectralvol.experiments import ExperimentConfig
from spectralvol.market import (
    ConstantDrift,
    ConstantVol,
    NoiseModel,
    OrnsteinUhlenbeckVol,
    PiecewiseVol,
    ZeroDrift,
    read_observations_csv,
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


# The library call behind ``estimate --kind K --m M`` (q = 0) on a series.
LIBRARY_ESTIMATES = {
    "siml": lambda obs, m: siml([np.diff(obs.values)], m),
    "ina_sine": lambda obs, m: ina([np.diff(obs.values)], m),
    "mm_fourier_real_zero": lambda obs, m: mm_fourier_real_zero([np.diff(obs.values)], m),
    "mm_fourier_complex": lambda obs, m: mm_fourier_complex([obs], 0, m),
}


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

    def test_max_dim_above_the_cap_is_usage_error_before_any_work(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(cli, "_basis_check_rows", pytest.fail)
        out = tmp_path / "report.csv"
        args = ["basis-check", "--max-dim", str(cli.MAX_CHECK_DIM + 1), "--out", str(out)]
        assert main(args) == EX_USAGE
        err = capsys.readouterr().err
        assert str(cli.MAX_CHECK_DIM) in err and len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_unwritable_output_is_io_error(self, tmp_path):
        target = tmp_path / "no-such-dir" / "report.csv"
        assert main(["basis-check", "--max-dim", "5", "--out", str(target)]) == EX_IOERR

    def test_output_under_a_file_fails_before_any_row(self, tmp_path, monkeypatch):
        (tmp_path / "plain").write_text("")
        monkeypatch.setattr(cli, "_basis_check_rows", pytest.fail)
        target = tmp_path / "plain" / "report.csv"
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

    def test_byte_order_mark_is_skipped(self, tmp_path, capsys):
        """A UTF-8 BOM before the header once failed the header check with exit 65."""
        rows = []
        for name, prefix in (("plain.csv", b""), ("bom.csv", b"\xef\xbb\xbf")):
            path = tmp_path / name
            path.write_bytes(prefix + b"time,value\n0,0\n0.5,0.1\n1,0.3\n")
            assert main(["estimate", "--input", str(path), "--kind", "siml", "--m", "1"]) == EX_OK
            rows.append(capsys.readouterr().out)
        assert rows == ["siml,2,1,,0,0,0.0723606797749979,0.0\n"] * 2

    def test_even_length_fourier_is_usage_error(self, tmp_path):
        path = tmp_path / "even.csv"
        _write_csv(path, [0.0, 1.0, 0.0])  # two increments
        code = main(["estimate", "--input", str(path), "--kind", "mm_fourier_real_zero", "--m", "0"])
        assert code == EX_USAGE

    def test_cutoff_too_large_is_usage_error(self, tmp_path):
        path = tmp_path / "short.csv"
        _write_csv(path, [0.0, 1.0, 0.5])
        assert main(["estimate", "--input", str(path), "--kind", "siml", "--m", "5"]) == EX_USAGE

    @pytest.mark.parametrize("kind", sorted(LIBRARY_ESTIMATES))
    def test_overflowing_estimate_is_data_error(self, tmp_path, capsys, kind):
        """Finite increments whose squares overflow: the data's scale, once exit 64."""
        path = tmp_path / "big.csv"
        _write_csv(path, [0.0, 1e200, -1e200, 0.0])
        assert main(["estimate", "--input", str(path), "--kind", kind, "--m", "1"]) == EX_DATAERR
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: the estimate overflows float64 at the data's scale\n"

    def test_malformed_csv_is_data_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,value\n0.0,not-a-number\n1.0,2.0\n")
        assert main(["estimate", "--input", str(path), "--kind", "siml", "--m", "1"]) == EX_DATAERR

    def test_missing_input_is_data_error(self, tmp_path):
        assert (
            main(["estimate", "--input", str(tmp_path / "nope.csv"), "--kind", "siml", "--m", "1"])
            == EX_DATAERR
        )

    @pytest.mark.parametrize("kind", list(LIBRARY_ESTIMATES))
    def test_prints_the_library_rows(self, tmp_path, capsys, kind):
        path = tmp_path / "series.csv"
        _write_csv(path, np.cumsum(np.random.default_rng(8).normal(size=42)))
        assert main(["estimate", "--input", str(path), "--kind", kind, "--m", "3"]) == EX_OK
        with open(path, newline="") as fh:
            expected = result_csv_rows(LIBRARY_ESTIMATES[kind](read_observations_csv(fh), 3))
        assert capsys.readouterr().out.splitlines() == expected

    def test_complex_kind_accepts_q(self, tmp_path, capsys):
        path = tmp_path / "series.csv"
        rng = np.random.default_rng(3)
        _write_csv(path, np.cumsum(rng.normal(size=12)))
        code = main(
            ["estimate", "--input", str(path), "--kind", "mm_fourier_complex", "--m", "2", "--q", "1"]
        )
        assert code == EX_OK
        assert capsys.readouterr().out.strip().split(",")[3] == "1"


    @pytest.mark.parametrize("kind", ["siml", "ina_sine", "mm_fourier_real_zero"])
    def test_q_rejected_for_real_kinds(self, tmp_path, capsys, kind):
        path = tmp_path / "series.csv"
        _write_csv(path, np.cumsum(np.random.default_rng(8).normal(size=42)))
        args = ["estimate", "--input", str(path), "--kind", kind, "--m", "3"]
        assert main(args + ["--q", "3"]) == EX_USAGE
        out, err = capsys.readouterr()
        assert out == "" and "--q" in err and len(err.strip().splitlines()) == 1
        assert main(args + ["--q", "0"]) == EX_OK
        with_q_zero = capsys.readouterr().out
        assert main(args) == EX_OK
        assert capsys.readouterr().out == with_q_zero

    def test_complex_cutoff_beyond_series_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "series.csv"
        _write_csv(path, np.cumsum(np.random.default_rng(3).normal(size=12)))  # 11 increments
        args = ["estimate", "--input", str(path), "--kind", "mm_fourier_complex"]
        assert main(args + ["--m", "100000000000"]) == EX_USAGE
        assert main(args + ["--m", "9", "--q", "-3"]) == EX_USAGE
        out, err = capsys.readouterr()
        assert out == "" and len(err.strip().splitlines()) == 2
        assert main(args + ["--m", "8", "--q", "-3"]) == EX_OK

    @pytest.mark.parametrize("kind", ["siml", "ina_sine", "mm_fourier_real_zero"])
    def test_real_kinds_refuse_times_off_the_grid(self, tmp_path, capsys, kind):
        """The real kinds read t_k = k/n; an irregular series was once read in tick time."""
        values = [1.0, 1.1, 0.9, 1.3, 1.2, 1.25]
        on, off = tmp_path / "on.csv", tmp_path / "off.csv"
        _write_csv(on, values)
        off.write_text("time,value\n" + "".join(
            f"{t},{v}\n" for t, v in zip((0, 0.01, 0.02, 0.61, 0.9, 1), values)))
        args = ["--kind", kind, "--m", "1"]
        assert main(["estimate", "--input", str(on)] + args) == EX_OK
        capsys.readouterr()
        assert main(["estimate", "--input", str(off)] + args) == EX_DATAERR
        out, err = capsys.readouterr()
        assert out == "" and len(err.strip().splitlines()) == 1
        assert "time 0.01 is not 1/5" in err

    def test_times_within_ulps_of_the_grid_are_on_it(self, tmp_path, capsys):
        """np.linspace misses k/n by an ulp at some points, and counts as the grid."""
        n = 1561
        values = np.cumsum(np.random.default_rng(5).normal(size=n + 1))
        assert np.any(np.linspace(0, 1, n + 1) != np.arange(n + 1) / n)
        grid, spaced = tmp_path / "grid.csv", tmp_path / "linspace.csv"
        _write_csv(grid, values)
        spaced.write_text("time,value\n" + "".join(
            f"{t},{v}\n" for t, v in zip(np.linspace(0, 1, n + 1).tolist(), values)))
        rows = []
        for path in (grid, spaced):
            assert main(["estimate", "--input", str(path), "--kind", "siml", "--m", "4"]) == EX_OK
            rows.append(capsys.readouterr().out)
        assert rows[0] == rows[1]

    def test_complex_kind_reads_any_grid(self, tmp_path, capsys):
        path = tmp_path / "series.csv"
        path.write_text("time,value\n0,1\n0.01,1.1\n0.02,0.9\n0.9,1.3\n1,1.2\n")
        args = ["estimate", "--input", str(path), "--kind", "mm_fourier_complex", "--m", "1"]
        assert main(args) == EX_OK
        with open(path, newline="") as fh:
            expected = result_csv_rows(mm_fourier_complex([read_observations_csv(fh)], 0, 1))
        assert capsys.readouterr().out.splitlines() == expected


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
            "time,value\n0,0\n0.5,1e308\n1,-1e308\n",
            "time,value\n0," + "1" * 140000 + "\n1,2\n",
            "time,value\ninf,1\ninf,2\n",
        ],
        ids=["one_cell_row", "nan_value", "inf_value", "decreasing_time", "repeated_time",
             "two_cell_oracle_row", "three_cell_oracle_row", "non_numeric_cell",
             "time_outside_unit_interval", "overflowing_increment", "oversized_cell",
             "infinite_times"],
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

    def test_complex_kind_rejects_overflowing_increments(self, tmp_path):
        """Its estimate was nan,nan with exit 0 when the increments overflowed."""
        path = tmp_path / "big.csv"
        path.write_text("time,value\n0,0\n0.5,1e308\n1,-1e308\n")
        proc = subprocess.run(
            [sys.executable, "-m", "spectralvol.cli", "estimate", "--input", str(path),
             "--kind", "mm_fourier_complex", "--m", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EX_DATAERR
        assert proc.stdout == ""
        assert "overflows" in proc.stderr and len(proc.stderr.strip().splitlines()) == 1


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

    def test_out_dir_under_a_file_fails_before_the_study(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "nb.cfg"
        cfg.write_text(NOISE_BOUNDS_CFG)
        (tmp_path / "plain").write_text("")
        monkeypatch.setattr(cli, "run_experiment", pytest.fail)
        out_dir = tmp_path / "plain" / "out"
        assert main(["experiment", "--config", str(cfg), "--out-dir", str(out_dir)]) == EX_IOERR
        assert "cannot write to" in capsys.readouterr().err

    def test_failed_study_leaves_no_csv(self, tmp_path, monkeypatch):
        cfg = tmp_path / "nb.cfg"
        cfg.write_text(NOISE_BOUNDS_CFG)

        def fail(experiment, config):
            raise RuntimeError("study failed")

        monkeypatch.setattr(cli, "run_experiment", fail)
        out_dir = tmp_path / "out"
        with pytest.raises(RuntimeError, match="study failed"):
            main(["experiment", "--config", str(cfg), "--out-dir", str(out_dir)])
        assert list(out_dir.iterdir()) == []

    def test_noise_bounds_run_passes(self, tmp_path, capsys):
        cfg = tmp_path / "nb.cfg"
        cfg.write_text(NOISE_BOUNDS_CFG)
        out_dir = tmp_path / "out"
        assert main(["experiment", "--config", str(cfg), "--out-dir", str(out_dir)]) == EX_OK
        text = (out_dir / "noise_bounds.csv").read_text()
        assert text.startswith("experiment,kind,n,m,")
        assert "false" not in text
        assert "=> ok" in capsys.readouterr().out

    def test_byte_order_mark_is_skipped(self, tmp_path):
        """A config saved with a UTF-8 BOM once exited 78: 'File contains no section headers'."""
        outputs = []
        for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_bytes(prefix + b"# pure noise\n" + NOISE_BOUNDS_CFG.encode())
            out_dir = tmp_path / name
            assert main(["experiment", "--config", str(cfg), "--out-dir", str(out_dir)]) == EX_OK
            outputs.append((out_dir / "noise_bounds.csv").read_bytes())
        assert outputs[0] == outputs[1]

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
            [("m_exponent = 0.4", "m_exponent = 400")],
            [("vol = constant", "vol = ou"), ("type = noise_bounds", "type = normality")],
            [("type = noise_bounds", "type = nope")],
            [("vol_level = 0.0", "vol_level = 1.0")],
            [("drift = zero", "drift = constant\ndrift_level = 1.0")],
            [("type = noise_bounds", "type = initial_noise_contrast"),
             ("include_initial = true", "include_initial = false")],
            [("refinement = 1", "refinement = 0")],
            [("base_seed = 42", "base_seed = 42\nthreads = 0")],
            [("vol_level = 0.0", "vol_level = nan")],
            [("replications = 150", "replications = 4294967297")],
            [("[simulation]", "time,value\n[simulation]")],
            [("[estimators]", "[noise]\n\n[estimators]")],
            [("variance = 0.01", "variance = 0.01\nvariance = 0.02")],
            [("kinds = siml, ina_sine", "kinds = siml%")],
            [("vol = constant", "vol = ou"), ("type = noise_bounds", "type = consistency"),
             ("refinement = 1", "refinement = 99999999999999999999999999999")],
            [("kinds = siml, ina_sine", "kinds = siml, siml")],
        ],
        ids=["m_above_n", "m_below_one", "m_exponent_overflow", "ou_vol_for_normality",
             "unknown_type", "noise_bounds_with_signal", "noise_bounds_with_drift",
             "contrast_without_initial_noise",
             "zero_refinement", "zero_threads", "nan_vol_level", "replications_above_2_32",
             "no_section_header", "duplicate_section", "duplicate_key", "percent_in_value",
             "huge_refinement", "repeated_kind"],
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
        assert proc.stderr.startswith("config error: ")
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "edits",
        [
            [("vol_level = 0.0", "vol_level = 1e308"),
             ("drift = zero", "drift = constant\ndrift_level = 1e308"),
             ("variance = 0.01", "variance = 1e308")],
            [("vol = constant", "vol = ou\nvol_of_vol = 1e200\ninitial_level = 1e200")],
            [("vol_level = 0.0", "vol_level = 1.0"), ("variance = 0.01", "variance = 1e100"),
             ("type = consistency", "type = normality")],
        ],
        ids=["constant_levels_1e308", "ou_levels_1e200", "normality_moments"],
    )
    def test_overflowing_study_exits_78_and_leaves_no_csv(self, tmp_path, edits):
        """Finite levels whose simulation overflows: once inf or nan cells with exit 1, or,
        for the normality moments, an OverflowError traceback."""
        text = NOISE_BOUNDS_CFG.replace("type = noise_bounds", "type = consistency")
        for old, new in edits:
            assert old in text
            text = text.replace(old, new)
        cfg = tmp_path / "big.cfg"
        cfg.write_text(text)
        proc = subprocess.run(
            [sys.executable, "-m", "spectralvol.cli", "experiment", "--config", str(cfg),
             "--out-dir", str(tmp_path / "out")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EX_CONFIG
        assert proc.stdout == ""
        assert "overflow" in proc.stderr and len(proc.stderr.strip().splitlines()) == 1
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize(
        "old,new,named",
        [
            ("vol = constant", "vol = heston", "[simulation] vol"),
            ("drift = zero", "drift = linear", "[simulation] drift"),
            ("type = noise_bounds", "type = nope", "[experiment] type"),
        ],
        ids=["vol", "drift", "type"],
    )
    def test_unknown_model_names_its_key(self, tmp_path, capsys, old, new, named):
        """Values that fail to parse are named by tests/test_cli_fuzz.py, key by key."""
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(NOISE_BOUNDS_CFG.replace(old, new))
        assert main(["experiment", "--config", str(cfg), "--out-dir", str(tmp_path)]) == EX_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {named}:") and len(err.strip().splitlines()) == 1


    @pytest.mark.parametrize(
        "section,line",
        [("simulation", "n_schedule = 63, 255"), ("estimators", "kinds = siml, ina_sine"),
         ("experiment", "type = noise_bounds")],
        ids=["n_schedule", "kinds", "type"],
    )
    def test_required_key_is_named(self, tmp_path, capsys, section, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(NOISE_BOUNDS_CFG.replace(line + "\n", ""))
        assert main(["experiment", "--config", str(cfg), "--out-dir", str(tmp_path)]) == EX_CONFIG
        key = line.split()[0]
        assert capsys.readouterr().err == f"config error: [{section}] {key} is required\n"


    @pytest.mark.parametrize(
        "old,new,says",
        [("[estimators]", "[extra]\nkey = 1\n\n[estimators]", "unknown section [extra]"),
         ("[noise]\nvariance = 0.01\ninclude_initial = true\ninclude_terminal = true\n", "",
          "missing section [noise]")],
        ids=["unknown", "missing"],
    )
    def test_section_is_named(self, tmp_path, capsys, old, new, says):
        assert old in NOISE_BOUNDS_CFG
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(NOISE_BOUNDS_CFG.replace(old, new))
        out_dir = tmp_path / "out"
        assert main(["experiment", "--config", str(cfg), "--out-dir", str(out_dir)]) == EX_CONFIG
        assert capsys.readouterr().err == f"config error: {says}\n"
        assert not out_dir.exists()


# A consistency run of each volatility model the config file names, and of a
# constant drift: (its [simulation] lines, the models and refinement they read).
_MODEL_CONFIGS = {
    "piecewise": ("vol = piecewise\nbreakpoints = 0.25, 0.5\nlevels = 1.0, 4.0, 0.5\n"
                  "drift = zero\nrefinement = 1",
                  PiecewiseVol((0.25, 0.5), (1.0, 4.0, 0.5)), ZeroDrift(), 1),
    "ou": ("vol = ou\nmean_level = 0.8\nreversion_rate = 2.0\nvol_of_vol = 0.3\n"
           "initial_level = 1.2\ndrift = zero\nrefinement = 2",
           OrnsteinUhlenbeckVol(0.8, 2.0, 0.3, 1.2), ZeroDrift(), 2),
    "constant_drift": ("vol = constant\nvol_level = 1.5\ndrift = constant\ndrift_level = -0.4\n"
                       "refinement = 1",
                       ConstantVol(1.5), ConstantDrift(-0.4), 1),
}


class TestConfigModels:
    """Each model of a config file is built from every key it reads, and runs."""

    @pytest.mark.parametrize("name", sorted(_MODEL_CONFIGS))
    def test_parsed_and_run(self, tmp_path, capsys, name):
        lines, vol, drift, refinement = _MODEL_CONFIGS[name]
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(f"""
[simulation]
{lines}
n_schedule = 63, 511

[noise]
variance = 1e-4
include_initial = false
include_terminal = true

[estimators]
kinds = siml, ina_sine

[experiment]
type = consistency
replications = 60
m_exponent = 0.4
base_seed = 3
threads = 2
""")
        want = ExperimentConfig(
            kinds=("siml", "ina_sine"), n_schedule=(63, 511), vol=vol, drift=drift,
            noise=NoiseModel(1e-4, include_initial=False, include_terminal=True),
            replications=60, base_seed=3, m_exponent=0.4, refinement=refinement, threads=2,
        )
        assert cli.parse_config(str(cfg)) == ("consistency", want)
        out_dir = tmp_path / "out"
        code = main(["experiment", "--config", str(cfg), "--out-dir", str(out_dir)])
        # the verdict of 4 rows at 2 Monte Carlo SE and 60 replications is not checked here
        assert code in (EX_OK, EX_FAIL)
        assert "experiment=consistency rows=4 " in capsys.readouterr().out
        rows = (out_dir / "consistency.csv").read_text().splitlines()
        assert rows[0].startswith("experiment,kind,n,m,") and len(rows) == 5
        assert [row.split(",")[1:3] for row in rows[1:]] == [
            ["siml", "63"], ["ina_sine", "63"], ["siml", "511"], ["ina_sine", "511"]]


class TestConfigKeysInReadme:
    def test_table_matches_the_code(self):
        """README's (section, key, default) rows are the parser's table, in its order."""
        def cell(default):
            if default in (None, (), ""):
                return "(none)"
            return f"`{str(default).lower() if isinstance(default, bool) else default}`"

        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        rows = re.findall(r"^\| `\[(\w+)\]` \| `(\w+)` \| (.*?) \|$", readme, re.MULTILINE)
        assert rows == [
            (section, key, cell(default))
            for section, keys in cli._CONFIG_KEYS.items()
            for key, (default, _) in keys.items()
        ]


class TestUsage:
    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == EX_USAGE

    def test_import_loads_neither_random_nor_fft(self):
        """Importing the package leaves numpy.random and numpy.fft to the first caller."""
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, spectralvol; "
             "print(sorted(m for m in ('numpy.random', 'numpy.fft') if m in sys.modules))"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_module_entry_point(self, tmp_path):
        out = tmp_path / "r.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "spectralvol.cli", "basis-check", "--max-dim", "5", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EX_OK
        assert "basis-check" in proc.stdout
