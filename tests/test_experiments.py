"""Tests for the Monte Carlo harness: reproducibility, bookkeeping, bound flags."""

import csv
import dataclasses
import importlib
import importlib.util
import io
import json
import sys
import threading
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from spectralvol import estimators, experiments, market
from spectralvol.cli import parse_config
from spectralvol.basis import BasisKind, basis_columns
from spectralvol.errors import InvalidParameter
from spectralvol.estimators import EstimatorKind, _form, noise_expectation_exact
from spectralvol.experiments import (
    CSV_COLUMNS,
    MAX_ENGINE_BYTES,
    ExperimentConfig,
    _TILE_ROWS,
    _TILE_WIDTH,
    _engine_bytes,
    _run_replications,
    check_experiment,
    run_consistency,
    run_experiment,
    run_initial_noise_contrast,
    run_noise_bounds,
    run_normality,
)
from spectralvol.market import (
    ConstantDrift,
    ConstantVol,
    EquidistantScheme,
    NoiseModel,
    OrnsteinUhlenbeckVol,
    PiecewiseVol,
    ZeroDrift,
    _Streams,
    _tiles,
    derive_seed,
    observe,
    simulate_latent,
    simulate_latent_correlated,
)


def _config(**overrides):
    base = dict(
        kinds=(EstimatorKind.SIML,),
        n_schedule=(64, 128),
        vol=ConstantVol(1.0),
        drift=ZeroDrift(),
        noise=NoiseModel(0.0),
        replications=60,
        base_seed=123,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_unsorted_schedule_rejected(self):
        with pytest.raises(InvalidParameter):
            _config(n_schedule=(128, 64))

    def test_zero_replications_rejected(self):
        with pytest.raises(InvalidParameter):
            _config(replications=0)

    def test_replications_stay_below_key_collisions(self):
        """From replication 2**32 on, a path stream would be another replication's noise stream."""
        assert derive_seed(11, 2**32, 0) == derive_seed(11, 0, 1)
        assert _config(replications=2**32).replications == 2**32
        with pytest.raises(InvalidParameter):
            _config(replications=2**32 + 1)

    def test_fourier_kind_needs_odd_n(self):
        with pytest.raises(InvalidParameter):
            _config(kinds=(EstimatorKind.MM_FOURIER_REAL_ZERO,), n_schedule=(64,))

    def test_refinement_must_be_positive(self):
        with pytest.raises(InvalidParameter):
            _config(refinement=0)

    @pytest.mark.parametrize(
        "field,value",
        [("n_schedule", (64.7, 128)), ("replications", 10.5), ("base_seed", 1.5),
         ("refinement", 2.0), ("threads", float("nan"))],
    )
    def test_sizes_must_be_integers(self, field, value):
        """n_schedule = (64.7, 128) once ran at n = 64; replications = 10.5 ended in a TypeError."""
        with pytest.raises(InvalidParameter, match=field):
            _config(**{field: value})

    def test_repeated_kind_rejected(self):
        """A repeated kind would write every row twice and fail its own RMSE check."""
        with pytest.raises(InvalidParameter, match="each once"):
            _config(kinds=(EstimatorKind.SIML, EstimatorKind.INA_SINE, "siml"))

    def test_complex_kind_rejected(self):
        with pytest.raises(InvalidParameter):
            _config(kinds=(EstimatorKind.MM_FOURIER_COMPLEX,))

    def test_cutoff_rule(self):
        cfg = _config(m_exponent=0.4)
        assert cfg.cutoff(1024, 0.35) == 16
        assert _config().cutoff(1024, 0.35) == 11


class TestBlockedReplications:
    """_run_replications against the per-replication formula, written out here."""

    @staticmethod
    def _per_replication(config, n, m):
        def spec(kind):
            if kind is EstimatorKind.SIML:
                return basis_columns(BasisKind.SIML_COSINE, n, m), n / m
            if kind is EstimatorKind.INA_SINE:
                return basis_columns(BasisKind.DST_SINE, n, m), (n + 1) / m
            return basis_columns(BasisKind.FOURIER_REAL, n, 2 * m + 1), n / (2 * m + 1)

        specs = [spec(kind) for kind in config.kinds]
        scheme = EquidistantScheme(n)
        out = {key: [] for key in ("estimates", "noise_parts", "cross_parts", "truths")}
        for rep in range(config.replications):
            path = simulate_latent(
                config.vol, config.drift, scheme, config.refinement,
                derive_seed(config.base_seed, rep, 0),
            )
            obs = observe(path, config.noise, scheme, derive_seed(config.base_seed, rep, 1))
            out["truths"].append(path.true_integrated_vol)
            dy, dv, dx = np.diff(obs.values), np.diff(obs.noise), np.diff(obs.latent)
            for key in ("estimates", "noise_parts", "cross_parts"):
                out[key].append([])
            for cols, pref in specs:
                wy, wv, wx = cols.T @ dy, cols.T @ dv, cols.T @ dx
                out["estimates"][-1].append(pref * float(wy @ wy))
                out["noise_parts"][-1].append(pref * float(wv @ wv))
                out["cross_parts"][-1].append(2.0 * pref * float(wx @ wv))
        return {key: np.array(value).T for key, value in out.items()}

    @pytest.mark.parametrize("extra", [-1, 0, 1], ids=["below", "one_block", "one_more"])
    @pytest.mark.parametrize(
        "kinds,n,refinement,vol",
        [
            ((EstimatorKind.SIML, EstimatorKind.INA_SINE), _TILE_WIDTH - 1, 1, ConstantVol(1.0)),
            ((EstimatorKind.MM_FOURIER_REAL_ZERO, EstimatorKind.SIML), _TILE_WIDTH + 1, 3,
             ConstantVol(1.0)),
            ((EstimatorKind.INA_SINE, EstimatorKind.SIML), _TILE_WIDTH - 1, 3,
             PiecewiseVol(breakpoints=(0.3, 0.7), levels=(1.0, 3.0, 0.5))),
            ((EstimatorKind.SIML, EstimatorKind.MM_FOURIER_REAL_ZERO), _TILE_WIDTH + 1, 1,
             OrnsteinUhlenbeckVol(mean_level=1.0, reversion_rate=2.0, vol_of_vol=0.8,
                                  initial_level=0.5)),
        ],
        ids=["cos_sine", "fourier_refined", "piecewise_refined", "ou"],
    )
    def test_matches_per_replication_formula(self, kinds, n, refinement, vol, extra):
        """Replication counts around one tile of rows, n around one tile width."""
        reps = _TILE_ROWS + extra
        config = _config(
            kinds=kinds,
            n_schedule=(n,),
            vol=vol,
            drift=ConstantDrift(0.3),
            noise=NoiseModel(1e-3, include_initial=True),
            replications=reps,
            base_seed=8,
            refinement=refinement,
        )
        m = 9
        (got,) = _run_replications(config, (m,))
        want = self._per_replication(config, n, m)
        assert got["estimates"].shape == (len(kinds), reps)
        assert np.array_equal(got["truths"], want["truths"])
        for key in ("estimates", "noise_parts", "cross_parts"):
            scale = np.max(np.abs(want[key]))
            np.testing.assert_allclose(got[key], want[key], rtol=1e-12, atol=1e-12 * scale)

    def test_prefix_matches_shorter_run(self):
        """A replication's values do not depend on how many replications run with it."""
        n = _TILE_WIDTH + 5
        config = _config(
            kinds=(EstimatorKind.SIML, EstimatorKind.INA_SINE),
            n_schedule=(n,),
            noise=NoiseModel(1e-2, include_initial=True),
            replications=2 * _TILE_ROWS + 3,
            base_seed=21,
        )
        (full,) = _run_replications(config, (7,))
        for k in (1, _TILE_ROWS - 1, _TILE_ROWS + 2):
            (short,) = _run_replications(dataclasses.replace(config, replications=k), (7,))
            assert np.array_equal(short["truths"], full["truths"][:k])
            for key in ("estimates", "noise_parts", "cross_parts"):
                scale = np.max(np.abs(full[key]))
                np.testing.assert_allclose(
                    short[key], full[key][:, :k], rtol=1e-13, atol=1e-13 * scale
                )


_OU = OrnsteinUhlenbeckVol(mean_level=1.0, reversion_rate=2.0, vol_of_vol=0.8, initial_level=0.5)


class TestSchedule:
    """One run over a schedule of sample sizes, against one-size runs at each n."""

    @pytest.mark.parametrize("reps", [1, _TILE_ROWS + 1])
    @pytest.mark.parametrize(
        "kinds,vol,drift,noise,refinement",
        [
            ((EstimatorKind.SIML, EstimatorKind.MM_FOURIER_REAL_ZERO), ConstantVol(1.0),
             ConstantDrift(0.3), NoiseModel(1e-3), 1),
            ((EstimatorKind.INA_SINE, EstimatorKind.SIML),
             PiecewiseVol(breakpoints=(0.3, 0.7), levels=(1.0, 3.0, 0.5)), ZeroDrift(),
             NoiseModel(1e-2, include_initial=False), 3),
            ((EstimatorKind.MM_FOURIER_REAL_ZERO, EstimatorKind.INA_SINE), _OU,
             ConstantDrift(-0.2), NoiseModel(1e-3, include_terminal=False), 1),
            ((EstimatorKind.SIML,), ConstantVol(2.0), ConstantDrift(0.3),
             NoiseModel(1e-2, include_initial=False, include_terminal=False), 3),
            ((EstimatorKind.INA_SINE, EstimatorKind.SIML), ConstantVol(0.0), ZeroDrift(),
             NoiseModel(1e-2), 1),
        ],
        ids=["constant_drift", "piecewise_refined", "ou", "constant_refined_no_ends",
             "pure_noise"],
    )
    def test_each_n_matches_its_one_size_run(self, kinds, vol, drift, noise, refinement, reps):
        """Every n, across tile edges, has the bits of a run at that n alone."""
        schedule = (5, _TILE_WIDTH - 1, _TILE_WIDTH + 1, 2 * _TILE_WIDTH + 1)
        cutoffs = (2, 7, 8, 9)
        config = _config(kinds=kinds, n_schedule=schedule, vol=vol, drift=drift, noise=noise,
                         replications=reps, base_seed=19, refinement=refinement)
        runs = _run_replications(config, cutoffs)
        assert len(runs) == len(schedule)
        for n, m, got in zip(schedule, cutoffs, runs):
            (one,) = _run_replications(dataclasses.replace(config, n_schedule=(n,)), (m,))
            for key in ("estimates", "noise_parts", "cross_parts", "truths"):
                assert np.array_equal(got[key], one[key]), (n, key)

    @pytest.mark.parametrize("vol", [ConstantVol(1.0), _OU], ids=["constant", "ou"])
    def test_draws_only_the_largest_n(self, monkeypatch, vol):
        """A run draws each replication's normals once, as many as its largest n needs."""
        drawn = []
        fill = _Streams.fill
        monkeypatch.setattr(
            _Streams, "fill",
            lambda self, out, first=0: drawn.append(out.size) or fill(self, out, first),
        )
        config = _config(n_schedule=(64, 1000, 2100), vol=vol, noise=NoiseModel(1e-2),
                         replications=_TILE_ROWS + 3, refinement=2)
        run_consistency(config)
        # OU volatility draws each fine step, and its state has a stream of its own;
        # deterministic volatility draws one normal per observed step
        per_path = 2 * 2 if vol is _OU else 1
        assert sum(drawn) == config.replications * (per_path * 2100 + 2100 + 1)
        schedule_draws = sum(drawn)
        drawn.clear()
        run_consistency(dataclasses.replace(config, n_schedule=(2100,)))
        assert sum(drawn) == schedule_draws


class TestCheckExperiment:
    def test_returns_cutoffs(self):
        cfg = _config(n_schedule=(64, 1024), m_exponent=None)
        assert check_experiment("consistency", cfg) == (5, 16)
        assert check_experiment("normality", cfg) == (4, 11)
        pure = _config(vol=ConstantVol(0.0), drift=ConstantDrift(0.0))
        assert check_experiment("noise_bounds", pure) == (5, 6)

    @pytest.mark.parametrize(
        "experiment,overrides",
        [
            ("nope", {}),
            ("consistency", {"m_exponent": 1.5}),
            ("consistency", {"m_exponent": 0.99, "kinds": (EstimatorKind.MM_FOURIER_REAL_ZERO,),
                             "n_schedule": (63,)}),
            ("consistency", {"m_exponent": -1.0}),
            ("normality", {"vol": OrnsteinUhlenbeckVol(1.0, 1.0, 0.5, 1.0)}),
            ("noise_bounds", {"vol": ConstantVol(1.0)}),
            ("noise_bounds", {"vol": ConstantVol(0.0), "drift": ConstantDrift(1.0)}),
            ("initial_noise_contrast", {"noise": NoiseModel(0.01, include_initial=False)}),
            ("consistency", {"vol": OrnsteinUhlenbeckVol(1.0, 1.0, 0.5, 1.0), "refinement": 10**29}),
            ("consistency", {"replications": 2**32}),
            ("consistency", {"n_schedule": (64, 2**26)}),
            ("consistency", {"replications": 1}),
            ("normality", {"vol": ConstantVol(0.0)}),
            ("normality", {"vol": ConstantVol(1e200)}),
            ("consistency", {"m_exponent": float("nan")}),
        ],
        ids=["unknown", "m_above_n", "fourier_columns_above_n", "m_below_one", "normality_ou",
             "noise_bounds_vol", "noise_bounds_drift", "contrast_no_initial_noise", "huge_refinement",
             "coefficients_above_limit", "tables_above_limit", "one_replication",
             "normality_zero_limit_variance", "normality_limit_variance_overflow",
             "m_exponent_nan"],
    )
    def test_rejects(self, experiment, overrides):
        with pytest.raises(InvalidParameter):
            check_experiment(experiment, _config(**overrides))

    def test_buffer_limit_is_the_module_constant(self, monkeypatch):
        cfg = _config()
        need = _engine_bytes(cfg, check_experiment("consistency", cfg))
        assert need <= MAX_ENGINE_BYTES
        monkeypatch.setattr(experiments, "MAX_ENGINE_BYTES", need - 1)
        with pytest.raises(InvalidParameter, match="MAX_ENGINE_BYTES"):
            check_experiment("consistency", cfg)


_STUDY_CONFIGS = {
    "consistency": {},
    "normality": {},
    "noise_bounds": {"vol": ConstantVol(0.0), "noise": NoiseModel(0.01)},
    "initial_noise_contrast": {"noise": NoiseModel(0.01)},
}
_RUN = {"consistency": run_consistency, "normality": run_normality,
        "noise_bounds": run_noise_bounds, "initial_noise_contrast": run_initial_noise_contrast}


class TestOneDriver:
    """Every study is one run_experiment call: one preflight, under its errstate."""

    @pytest.mark.parametrize("by_name", [False, True], ids=["run_study", "run_experiment"])
    @pytest.mark.parametrize("study", list(_STUDY_CONFIGS))
    def test_one_preflight_per_call(self, monkeypatch, study, by_name):
        seen = []
        real = experiments.check_experiment
        monkeypatch.setattr(experiments, "check_experiment", lambda *a: seen.append(a) or real(*a))
        cfg = _config(n_schedule=(64,), replications=10, **_STUDY_CONFIGS[study])
        summary = run_experiment(study, cfg) if by_name else _RUN[study](cfg)
        assert summary.experiment == study
        assert seen == [(study, cfg)]

    @pytest.mark.parametrize(
        "study,overrides",
        [
            (run_consistency, {}),
            (run_normality, {"vol": ConstantVol(1.0), "drift": ZeroDrift(), "noise": NoiseModel(1e100)}),
            (run_noise_bounds, {"vol": ConstantVol(0.0), "drift": ZeroDrift()}),
            (run_initial_noise_contrast, {}),
        ],
        ids=["consistency", "normality", "noise_bounds", "initial_noise_contrast"],
    )
    def test_overflow_is_refused_without_a_warning(self, study, overrides):
        """Called directly, the runners printed numpy RuntimeWarnings before the refusal."""
        cfg = _config(**{"vol": ConstantVol(1e308), "drift": ConstantDrift(1e308),
                         "noise": NoiseModel(1e308), **overrides})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameter, match="overflow"):
                study(cfg)


class TestReproducibility:
    def test_identical_runs_identical_summaries(self):
        a = run_consistency(_config())
        b = run_consistency(_config())
        assert a == b

    def test_thread_count_does_not_change_results(self):
        serial = run_consistency(_config(threads=1))
        threaded = run_consistency(_config(threads=4))
        assert serial.rows == threaded.rows

    def test_different_seed_changes_results(self):
        a = run_consistency(_config(base_seed=1))
        b = run_consistency(_config(base_seed=2))
        assert a.rows != b.rows


def _csv(experiment, config):
    buf = io.StringIO()
    run_experiment(experiment, config).write_csv(buf)
    return buf.getvalue()


def _on_fresh_thread(fn, *args):
    """``fn(*args)`` on a fresh thread, whose generator pool starts empty."""
    out = []
    thread = threading.Thread(target=lambda: out.append(fn(*args)))
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    return out[0]


# Every stream role: OU path and state shocks, and noise on both end points.
_POOL_CONFIG = dict(vol=_OU, noise=NoiseModel(1e-3), n_schedule=(8, 1100),
                    replications=_TILE_ROWS + 3)


class TestGeneratorPool:
    """Each thread keeps its Philox generators from run to run; the bits do not notice."""

    def test_runs_in_a_row_and_on_a_fresh_thread(self):
        cfg = _config(**_POOL_CONFIG)
        first = _csv("consistency", cfg)
        assert _csv("consistency", cfg) == first
        assert _on_fresh_thread(_csv, "consistency", cfg) == first

    def test_concurrent_threads_give_the_serial_bytes(self):
        """More threads than cores, switching often, each running twice at once with the rest."""
        configs = [_config(**{**_POOL_CONFIG, "base_seed": seed}) for seed in (123, 7, 8, 9)]
        serial = [_csv("consistency", cfg) for cfg in configs]
        barrier = threading.Barrier(len(configs), timeout=60)
        got = [[] for _ in configs]

        def run(i):
            barrier.wait()
            got[i].extend(_csv("consistency", configs[i]) for _ in range(2))

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(configs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [[csv_text] * 2 for csv_text in serial]

    def test_single_path_samplers_between_runs_keep_their_bits(self):
        scheme = EquidistantScheme(50)

        def samplers():
            path = simulate_latent(_OU, ZeroDrift(), scheme, 2, 5)
            obs = observe(path, NoiseModel(0.01), scheme, 6)
            paths, _ = simulate_latent_correlated(np.array([[1.0, 0.5]]), scheme, 2, 7)
            return [a.tobytes() for a in (path.values, path.spot_variance, obs.noise,
                                           paths[0].values)]

        want = _on_fresh_thread(samplers)
        cfg = _config(**_POOL_CONFIG)
        first = _csv("consistency", cfg)
        assert samplers() == want
        assert _csv("consistency", cfg) == first
        assert samplers() == want

    def test_roles_hold_at_most_one_live_block(self):
        def run_and_count():
            cfg = _config(**{**_POOL_CONFIG, "n_schedule": (4, 8),
                             "replications": experiments._LIVE_ROWS + 5})
            run_consistency(cfg)
            run_consistency(dataclasses.replace(cfg, replications=3))
            return {role: len(pool) for role, pool in market._POOLS.generators.items()}

        sizes = _on_fresh_thread(run_and_count)
        assert sizes == dict.fromkeys(("path", "state", "noise"), experiments._LIVE_ROWS)


class TestConsistencyRun:
    def test_rmse_bookkeeping_identity(self):
        """rmse^2 = bias^2 + population variance of the errors (se carries ddof=1)."""
        summary = run_consistency(_config(replications=200))
        for row in summary.rows:
            var0 = row.se_mean**2 * (row.replications - 1)
            assert row.rmse**2 == pytest.approx(row.bias**2 + var0, abs=1e-9)

    def test_rmse_decreases_with_n(self):
        summary = run_consistency(_config(n_schedule=(64, 256, 1024), replications=150))
        assert dict(summary.checks)["rmse_decreasing[siml]"]

    def test_noise_free_bias_small_and_flag_consistent(self):
        summary = run_consistency(_config(replications=300))
        for row in summary.rows:
            # true bias is zero here, so the sample bias is pure MC noise
            assert abs(row.bias) <= 4 * row.se_mean
            assert row.bound_satisfied == (abs(row.bias) <= 2 * row.se_mean)
            assert row.bound_value == pytest.approx(2 * row.se_mean)


class TestNormalityRun:
    def test_moment_fields_populated(self):
        summary = run_normality(
            _config(n_schedule=(256,), replications=400, m_exponent=0.35)
        )
        row = summary.rows[0]
        assert row.std_err_mean is not None
        assert row.std_err_var is not None
        assert row.std_err_skew is not None
        assert row.std_err_kurt is not None
        assert abs(row.std_err_mean) < 0.5
        assert 0.5 < row.std_err_var < 2.0

    def test_stochastic_vol_rejected(self):
        vol = OrnsteinUhlenbeckVol(1.0, 1.0, 0.5, 1.0)
        with pytest.raises(InvalidParameter):
            run_normality(_config(vol=vol))


class TestNoiseBoundsRun:
    def _cfg(self, **kw):
        base = dict(
            kinds=(EstimatorKind.SIML, EstimatorKind.MM_FOURIER_REAL_ZERO, EstimatorKind.INA_SINE),
            n_schedule=(255,),
            vol=ConstantVol(0.0),
            noise=NoiseModel(0.01, include_initial=True, include_terminal=True),
            replications=400,
            base_seed=5,
        )
        base.update(kw)
        return _config(**base)

    def test_bounds_hold(self):
        summary = run_noise_bounds(self._cfg())
        assert summary.all_ok
        by_kind = {row.kind: row for row in summary.rows}
        assert by_kind["siml"].bound_value == pytest.approx(0.005)
        assert by_kind["mm_fourier_real_zero"].bound_value == pytest.approx(0.02)
        assert by_kind["siml"].noise_exact >= 0.005
        assert by_kind["mm_fourier_real_zero"].noise_exact >= 0.02
        assert by_kind["ina_sine"].noise_exact <= by_kind["ina_sine"].bound_value

    def test_exact_column_matches_oracle(self):
        summary = run_noise_bounds(self._cfg(kinds=(EstimatorKind.INA_SINE,)))
        row = summary.rows[0]
        assert row.noise_exact == noise_expectation_exact(
            EstimatorKind.INA_SINE, row.n, row.m, 0.01
        )

    def test_requires_pure_noise_design(self):
        with pytest.raises(InvalidParameter):
            run_noise_bounds(self._cfg(vol=ConstantVol(1.0)))

    def test_accepts_all_zero_piecewise_volatility(self):
        """A piecewise volatility with every level zero is the pure-noise design too."""
        zero = run_noise_bounds(self._cfg(vol=PiecewiseVol((0.5,), (0.0, 0.0))))
        assert zero.rows == run_noise_bounds(self._cfg()).rows
        with pytest.raises(InvalidParameter):
            run_noise_bounds(self._cfg(vol=PiecewiseVol((0.5,), (0.0, 1.0))))


class TestNoiseOracleColumns:
    """The engine builds each column tile once per live block; the oracle builds no columns."""

    @pytest.mark.parametrize(
        "study,kinds,ends",
        [
            (run_noise_bounds, (EstimatorKind.SIML, EstimatorKind.MM_FOURIER_REAL_ZERO), (True, True)),
            (run_noise_bounds, (EstimatorKind.INA_SINE,), (False, True)),
            (run_initial_noise_contrast, (EstimatorKind.SIML, EstimatorKind.INA_SINE), (True, False)),
        ],
        ids=["bounds_both_ends", "bounds_no_initial", "contrast_no_terminal"],
    )
    def test_one_column_build_per_kind_and_n(self, monkeypatch, study, kinds, ends):
        """Each (kind, n) builds each tile's rows (lo, hi) once per live block."""
        noise = NoiseModel(0.01, include_initial=ends[0], include_terminal=ends[1])
        cfg = _config(kinds=kinds, n_schedule=(63, _TILE_WIDTH + 1), noise=noise,
                      replications=_TILE_ROWS + 1, base_seed=4,
                      vol=ConstantVol(0.0 if study is run_noise_bounds else 1.0))
        built = []
        real = estimators.basis_columns
        monkeypatch.setattr(
            estimators, "basis_columns", lambda *a: built.append((a[0], a[1], a[4])) or real(*a)
        )
        monkeypatch.setattr(experiments, "_LIVE_ROWS", _TILE_ROWS)  # two live blocks
        summary = study(cfg)
        monkeypatch.undo()
        want = [
            (_form(kind, n, 1)[0], n, (lo, hi))
            for kind in kinds for n in cfg.n_schedule for lo, hi in _tiles(n)
        ]
        assert Counter(built) == Counter(want * 2)
        for row in summary.rows:
            assert row.noise_exact == noise_expectation_exact(
                EstimatorKind(row.kind), row.n, row.m, 0.01, *ends
            )


class TestLiveBlocks:
    """Replications walk the tiles in live blocks of _LIVE_ROWS; the block size changes nothing."""

    @pytest.mark.parametrize(
        "kinds,vol,drift,noise,refinement",
        [
            ((EstimatorKind.SIML, EstimatorKind.INA_SINE), ConstantVol(1.0), ConstantDrift(0.3),
             NoiseModel(1e-2, include_terminal=False), 1),
            ((EstimatorKind.MM_FOURIER_REAL_ZERO,), _OU, ZeroDrift(), NoiseModel(1e-3), 2),
            ((EstimatorKind.INA_SINE, EstimatorKind.SIML), ConstantVol(0.0), ZeroDrift(),
             NoiseModel(1e-2, include_initial=False), 1),
        ],
        ids=["constant_drift", "ou_refined", "pure_noise"],
    )
    def test_results_do_not_depend_on_the_live_block(
        self, monkeypatch, kinds, vol, drift, noise, refinement
    ):
        schedule, cutoffs = (5, _TILE_WIDTH + 1, 2 * _TILE_WIDTH + 1), (2, 8, 9)
        config = _config(kinds=kinds, n_schedule=schedule, vol=vol, drift=drift, noise=noise,
                         replications=2 * _TILE_ROWS + 3, base_seed=29, refinement=refinement)
        assert experiments._LIVE_ROWS >= config.replications  # one block by default
        whole = _run_replications(config, cutoffs)
        monkeypatch.setattr(experiments, "_LIVE_ROWS", _TILE_ROWS)  # three blocks
        blocks = _run_replications(config, cutoffs)
        for n, a, b in zip(schedule, whole, blocks):
            for key in ("estimates", "noise_parts", "cross_parts", "truths"):
                assert np.array_equal(a[key], b[key]), (n, key)


class TestMemory:
    def test_large_n_holds_no_full_columns(self):
        """At n = 2^16 the two kinds' full columns alone would take 2^16 x 168 x 8 B = 84 MiB."""
        cfg = _config(kinds=(EstimatorKind.SIML, EstimatorKind.INA_SINE), n_schedule=(2**12, 2**16),
                      noise=NoiseModel(0.01), replications=4, m_exponent=0.4)
        tracemalloc.start()
        try:
            run_initial_noise_contrast(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20


class TestEngineBytes:
    """The preflight's count of the engine's buffers against what a run allocates."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {"refinement": 40, "replications": _TILE_ROWS + 5},
            {"vol": _OU, "refinement": 6, "replications": 40},
            {"kinds": (EstimatorKind.SIML, EstimatorKind.INA_SINE), "n_schedule": (63, 255),
             "replications": 5000, "m_exponent": 0.9},
            {"n_schedule": (2**15,), "replications": 4},
            {"vol": PiecewiseVol((0.5,), (1.0, 2.0)), "n_schedule": (1024,), "refinement": 400,
             "replications": 2},
            {"kinds": (EstimatorKind.SIML, EstimatorKind.INA_SINE),
             "n_schedule": (1024, 4096, 16384), "replications": 200},
        ],
        ids=["raw_tile", "ou", "coefficients", "tables", "piecewise_spot", "contrast_shape"],
    )
    def test_bounds_the_traced_peak(self, overrides):
        cfg = _config(**{"n_schedule": (63, 1500), "noise": NoiseModel(0.01), **overrides})
        need = _engine_bytes(cfg, check_experiment("consistency", cfg))
        run_consistency(cfg)  # a process's first run also loads numpy.random
        tracemalloc.start()
        try:
            run_consistency(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert need / 2 < peak < need + 2**20


_ROOT = Path(__file__).resolve().parents[1]
_SHIPPED = ("prop1", "prop2", "ina_bound", "consistency", "contrast")
# Columns compared to a relative 1e-9, as the benchmark's verifier compares them.
_NUMERIC = ("true_value", "mean", "bias", "rmse", "se_mean", "std_err_mean", "std_err_var",
            "noise_mc_mean", "noise_exact", "bound_value")


class TestShippedReference:
    """The shipped configs at seed 11 against the benchmark's perfbench/reference.json."""

    @pytest.mark.parametrize("name", _SHIPPED)
    def test_matches_reference(self, name):
        with open(_ROOT / "perfbench" / "reference.json") as fh:
            want = list(csv.DictReader(io.StringIO(json.load(fh)["mc_configs"][name])))
        experiment, config = parse_config(str(_ROOT / "configs" / f"{name}.cfg"), 11, 1)
        buf = io.StringIO()
        run_experiment(experiment, config).write_csv(buf)
        got = list(csv.DictReader(io.StringIO(buf.getvalue())))
        assert len(got) == len(want)
        for row, ref in zip(got, want):
            for col, value in ref.items():
                if col == "bound_satisfied":  # the verifier skips it too
                    continue
                if col in _NUMERIC and value != "":
                    a, b = float(row[col]), float(value)
                    assert abs(a - b) <= 1e-9 * max(abs(a), abs(b)), (row["n"], col)
                else:
                    assert row[col] == value, (row["n"], col)


class TestPerfbenchWrapPoints:
    def test_every_wrap_point_resolves(self):
        """The benchmark's tracer wraps each name with a bare getattr on its module."""
        spec = importlib.util.spec_from_file_location("tracer", _ROOT / "perfbench" / "tracer.py")
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        assert tracer.WRAP_POINTS
        for module, attr, _ in tracer.WRAP_POINTS:
            assert module.startswith("spectralvol.")
            assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


class TestContrastRun:
    def test_cross_term_centered_and_flags_set(self):
        cfg = _config(
            kinds=(EstimatorKind.SIML, EstimatorKind.INA_SINE),
            n_schedule=(512, 1024),
            noise=NoiseModel(0.01, include_initial=True),
            replications=300,
            base_seed=77,
        )
        summary = run_initial_noise_contrast(cfg)
        assert len(summary.rows) == 4
        for row in summary.rows:
            assert row.cross_mean is not None
            assert abs(row.cross_mean) <= 3 * row.cross_se
        siml_rows = [r for r in summary.rows if r.kind == "siml"]
        assert all(r.bias >= 0.005 - 4 * r.se_mean for r in siml_rows)

    def test_requires_initial_noise(self):
        with pytest.raises(InvalidParameter):
            run_initial_noise_contrast(
                _config(noise=NoiseModel(0.01, include_initial=False))
            )

    def test_zero_noise_control_biases_agree(self):
        """With no noise at all, the two estimators' biases agree within 2 se."""
        cfg = _config(
            kinds=(EstimatorKind.SIML, EstimatorKind.INA_SINE),
            n_schedule=(1024,),
            noise=NoiseModel(0.0, include_initial=True),
            replications=300,
            base_seed=3,
        )
        rows = run_initial_noise_contrast(cfg).rows
        by_kind = {r.kind: r for r in rows}
        diff = by_kind["siml"].bias - by_kind["ina_sine"].bias
        se = np.hypot(by_kind["siml"].se_mean, by_kind["ina_sine"].se_mean)
        assert abs(diff) <= 2 * se


class TestCsvOutput:
    def test_header_and_shape(self):
        summary = run_consistency(_config(replications=20))
        buf = io.StringIO()
        summary.write_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + len(summary.rows)
        # floats are written with round-trip precision
        first = lines[1].split(",")
        assert float(first[CSV_COLUMNS.index("mean")]) == summary.rows[0].mean

    def test_dispatch_by_name(self):
        summary = run_experiment("consistency", _config(replications=10))
        assert summary.experiment == "consistency"
        with pytest.raises(InvalidParameter):
            run_experiment("nope", _config())
