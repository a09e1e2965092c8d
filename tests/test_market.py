"""Tests for path simulation, observation noise, and the series oracle fields."""

import io

import numpy as np
import pytest

from spectralvol.errors import GridMismatch, InvalidParameter, TooShort
from spectralvol.market import (
    ConstantDrift,
    ConstantVol,
    EquidistantScheme,
    NoiseModel,
    ObservationSeries,
    OrnsteinUhlenbeckVol,
    PiecewiseVol,
    ZeroDrift,
    derive_seed,
    increments,
    observe,
    _latent_block,
    _noise_block,
    read_observations_csv,
    simulate_latent,
    simulate_latent_correlated,
    write_observations_csv,
)


class TestSimulateLatent:
    def test_zero_vol_gives_constant_path(self):
        path = simulate_latent(ConstantVol(0.0), ZeroDrift(), EquidistantScheme(64), 1, 7)
        np.testing.assert_array_equal(path.values, np.zeros(65))
        assert path.true_integrated_vol == 0.0

    def test_unit_vol_has_exact_target(self):
        path = simulate_latent(ConstantVol(1.0), ZeroDrift(), EquidistantScheme(16), 1, 3)
        assert path.true_integrated_vol == 1.0

    def test_piecewise_target_is_exact(self):
        vol = PiecewiseVol(breakpoints=(0.25, 0.5), levels=(1.0, 4.0, 0.5))
        path = simulate_latent(vol, ZeroDrift(), EquidistantScheme(8), 4, 0)
        assert path.true_integrated_vol == pytest.approx(
            1.0 * 0.25 + 4.0 * 0.25 + 0.5 * 0.5, abs=1e-15
        )

    def test_constant_drift_shifts_endpoint(self):
        flat = simulate_latent(ConstantVol(0.0), ConstantDrift(2.0), EquidistantScheme(10), 1, 0)
        assert flat.values[-1] == pytest.approx(2.0, rel=1e-12)

    def test_terminal_variance_matches_level(self):
        """Monte Carlo moment oracle: Var(X_1 - X_0) = c over many seeds."""
        c = 2.3
        scheme = EquidistantScheme(1)
        n_seeds = 100_000
        ends = np.empty(n_seeds)
        for seed in range(n_seeds):
            ends[seed] = simulate_latent(ConstantVol(c), ZeroDrift(), scheme, 1, seed).values[-1]
        sample_var = np.var(ends, ddof=1)
        se = c * np.sqrt(2.0 / n_seeds)
        assert abs(sample_var - c) <= 3 * se

    def test_quadratic_sum_approaches_target(self):
        """Sum of squared increments on a fine grid lands within 5 se of c."""
        c, n = 1.7, 100_000
        path = simulate_latent(ConstantVol(c), ZeroDrift(), EquidistantScheme(n), 1, 11)
        qv = float(np.sum(np.diff(path.values) ** 2))
        se = c * np.sqrt(2.0 / n)
        assert abs(qv - c) <= 5 * se

    def test_ou_spot_variance_nonnegative(self):
        vol = OrnsteinUhlenbeckVol(mean_level=1.0, reversion_rate=2.0, vol_of_vol=0.8, initial_level=0.5)
        path = simulate_latent(vol, ZeroDrift(), EquidistantScheme(32), 10, 5)
        assert np.all(path.spot_variance >= 0)
        assert path.true_integrated_vol >= 0
        # trapezoid of the stored spot variance is the reported target
        dt = 1.0 / (len(path.spot_variance) - 1)
        trapezoid = getattr(np, "trapezoid", None) or np.trapz
        np.testing.assert_allclose(path.true_integrated_vol, trapezoid(path.spot_variance, dx=dt))

    def test_seed_determinism(self):
        a = simulate_latent(ConstantVol(1.0), ZeroDrift(), EquidistantScheme(32), 3, 42)
        b = simulate_latent(ConstantVol(1.0), ZeroDrift(), EquidistantScheme(32), 3, 42)
        np.testing.assert_array_equal(a.values, b.values)

    def test_bad_parameters(self):
        with pytest.raises(InvalidParameter):
            ConstantVol(-1.0)
        with pytest.raises(InvalidParameter):
            simulate_latent(ConstantVol(1.0), ZeroDrift(), EquidistantScheme(4), 0, 0)
        with pytest.raises(InvalidParameter):
            PiecewiseVol((0.5, 0.25), (1.0, 1.0, 1.0))


def _philox_normals(seed, size, spawn=None):
    key = () if spawn is None else (spawn,)
    ss = np.random.SeedSequence(seed, spawn_key=key)
    return np.random.Generator(np.random.Philox(ss)).standard_normal(size)


class TestSimulateLatentBits:
    """simulate_latent keeps the bits of the per-path Euler formula, written out here."""

    def test_constant_vol_with_drift(self):
        n, r, c, b, seed = 50, 3, 2.3, 0.7, 2**40 + 3
        dt = 1.0 / (n * r)
        dx = b * dt + np.sqrt(np.full(n * r, c) * dt) * _philox_normals(seed, n * r)
        path = simulate_latent(ConstantVol(c), ConstantDrift(b), EquidistantScheme(n), r, seed)
        assert path.values.tobytes() == np.concatenate(([0.0], np.cumsum(dx))).tobytes()
        assert path.spot_variance.tobytes() == np.full(n * r + 1, c).tobytes()

    def test_ou_vol(self):
        vol = OrnsteinUhlenbeckVol(mean_level=1.0, reversion_rate=2.0, vol_of_vol=0.8, initial_level=0.5)
        n_fine, seed = 40, 9
        dt = 1.0 / n_fine
        shocks = _philox_normals(seed, n_fine, spawn=1) * np.sqrt(dt)
        state = np.empty(n_fine + 1)
        state[0] = vol.initial_level
        for i in range(n_fine):
            state[i + 1] = (
                state[i]
                + vol.reversion_rate * (vol.mean_level - state[i]) * dt
                + vol.vol_of_vol * shocks[i]
            )
        spot = state**2
        dx = 0.0 * dt + np.sqrt(spot[:-1] * dt) * _philox_normals(seed, n_fine, spawn=0)
        path = simulate_latent(vol, ZeroDrift(), EquidistantScheme(n_fine), 1, seed)
        assert path.values.tobytes() == np.concatenate(([0.0], np.cumsum(dx))).tobytes()
        assert path.spot_variance.tobytes() == spot.tobytes()
        trapezoid = getattr(np, "trapezoid", None) or np.trapz
        assert path.true_integrated_vol == float(trapezoid(spot, dx=dt))


_VOLS = {
    "constant": ConstantVol(1.3),
    "piecewise": PiecewiseVol(breakpoints=(0.25, 0.5), levels=(1.0, 4.0, 0.5)),
    "ou": OrnsteinUhlenbeckVol(mean_level=1.0, reversion_rate=2.0, vol_of_vol=0.8, initial_level=0.5),
}


class TestBlockHelpers:
    """Rows of the block helpers against per-seed simulate_latent + observe."""

    @pytest.mark.parametrize("vol", sorted(_VOLS))
    @pytest.mark.parametrize("drift", [ZeroDrift(), ConstantDrift(-0.4)], ids=["zero", "const"])
    @pytest.mark.parametrize("refinement", [1, 3])
    @pytest.mark.parametrize("ends", [(True, True), (False, True), (True, False), (False, False)])
    def test_rows_match_single_seed_calls(self, vol, drift, refinement, ends):
        n = 37
        scheme = EquidistantScheme(n)
        noise = NoiseModel(0.01, include_initial=ends[0], include_terminal=ends[1])
        path_seeds = [derive_seed(4, rep, 0) for rep in range(5)]
        noise_seeds = [derive_seed(4, rep, 1) for rep in range(5)]
        dx, spot, truths = _latent_block(_VOLS[vol], drift, n, refinement, path_seeds)
        v = _noise_block(noise, n, noise_seeds)
        assert dx.shape == (5, n * refinement) and v.shape == (5, n + 1)
        assert truths.shape == (5,)
        for j, (ps, ns) in enumerate(zip(path_seeds, noise_seeds)):
            path = simulate_latent(_VOLS[vol], drift, scheme, refinement, ps)
            obs = observe(path, noise, scheme, ns)
            tol = 1e-12 * np.max(np.abs(path.values))
            np.testing.assert_allclose(dx[j], np.diff(path.values), rtol=0, atol=tol)
            np.testing.assert_array_equal(spot[j % len(spot)], path.spot_variance)
            np.testing.assert_array_equal(v[j], obs.noise)
            assert truths[j] == path.true_integrated_vol


class TestObserve:
    def _path(self, n=64, refinement=2, seed=0):
        return simulate_latent(ConstantVol(1.0), ZeroDrift(), EquidistantScheme(n), refinement, seed)

    def test_zero_noise_reproduces_latent(self):
        path = self._path()
        obs = observe(path, NoiseModel(0.0), EquidistantScheme(64), 1)
        np.testing.assert_array_equal(obs.values, obs.latent)
        np.testing.assert_array_equal(obs.noise, np.zeros(65))

    def test_initial_noise_suppressed(self):
        path = self._path()
        obs = observe(path, NoiseModel(0.01, include_initial=False), EquidistantScheme(64), 1)
        assert obs.noise[0] == 0.0
        assert obs.values[0] == obs.latent[0]

    def test_terminal_noise_suppressed(self):
        path = self._path()
        obs = observe(path, NoiseModel(0.01, include_terminal=False), EquidistantScheme(64), 1)
        assert obs.noise[-1] == 0.0

    def test_decomposition_is_exact(self):
        path = self._path()
        obs = observe(path, NoiseModel(0.04), EquidistantScheme(64), 9)
        np.testing.assert_array_equal(obs.values, obs.latent + obs.noise)

    def test_noise_variance_moment(self):
        """Sample variance of the noise vector within 3 se of (0.01)^2."""
        nu = 0.01**2
        path = simulate_latent(ConstantVol(0.0), ZeroDrift(), EquidistantScheme(10_000), 1, 0)
        obs = observe(path, NoiseModel(nu), EquidistantScheme(10_000), 77)
        sample = np.var(obs.noise, ddof=1)
        se = nu * np.sqrt(2.0 / len(obs.noise))
        assert abs(sample - nu) <= 3 * se

    def test_noise_stream_independent_of_path_seed(self):
        path_a = self._path(seed=1)
        path_b = self._path(seed=2)
        obs_a = observe(path_a, NoiseModel(0.01), EquidistantScheme(64), 5)
        obs_b = observe(path_b, NoiseModel(0.01), EquidistantScheme(64), 5)
        np.testing.assert_array_equal(obs_a.noise, obs_b.noise)

    def test_grid_mismatch(self):
        path = self._path(n=64, refinement=2)  # fine grid has 128 intervals
        with pytest.raises(GridMismatch):
            observe(path, NoiseModel(0.0), EquidistantScheme(100), 0)

    def test_subsampled_grid_accepted(self):
        path = self._path(n=64, refinement=2)
        obs = observe(path, NoiseModel(0.0), EquidistantScheme(32), 0)
        assert len(obs.values) == 33


class TestIncrements:
    def test_arithmetic(self):
        obs = ObservationSeries(
            times=np.array([0.0, 0.5, 1.0]),
            values=np.array([0.0, 1.0, 3.0]),
            latent=np.zeros(3),
            noise=np.zeros(3),
        )
        np.testing.assert_array_equal(increments(obs), [1.0, 2.0])

    def test_constant_series_gives_zeros(self):
        obs = ObservationSeries(
            times=np.linspace(0, 1, 5),
            values=np.full(5, 2.5),
            latent=np.full(5, 2.5),
            noise=np.zeros(5),
        )
        np.testing.assert_array_equal(increments(obs), np.zeros(4))

    def test_telescoping(self):
        path = simulate_latent(ConstantVol(1.0), ZeroDrift(), EquidistantScheme(128), 1, 13)
        obs = observe(path, NoiseModel(1e-4), EquidistantScheme(128), 14)
        total = float(np.sum(increments(obs)))
        assert total == pytest.approx(obs.values[-1] - obs.values[0], abs=1e-12)

    def test_too_short(self):
        obs = ObservationSeries(
            times=np.array([0.0]), values=np.array([1.0]), latent=np.array([1.0]), noise=np.array([0.0])
        )
        with pytest.raises(TooShort):
            increments(obs)


class TestSeedDerivation:
    def test_deterministic_and_distinct(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        seeds = {derive_seed(b, r, s) for b in (0, 1) for r in (0, 1, 2) for s in (0, 1)}
        assert len(seeds) == 12


class TestCorrelatedPaths:
    def test_cov_matrix_and_shapes(self):
        loadings = np.array([[1.0, 0.0], [0.5, 0.5]])
        paths, cov = simulate_latent_correlated(loadings, EquidistantScheme(16), 2, 0)
        assert len(paths) == 2
        np.testing.assert_allclose(cov, loadings @ loadings.T)
        assert paths[0].true_integrated_vol == pytest.approx(1.0)

    def test_perfectly_correlated_assets_coincide(self):
        loadings = np.array([[1.0], [1.0]])
        paths, _ = simulate_latent_correlated(loadings, EquidistantScheme(16), 1, 4)
        np.testing.assert_allclose(paths[0].values, paths[1].values)


class TestCsvRoundTrip:
    def test_full_round_trip(self):
        path = simulate_latent(ConstantVol(1.0), ZeroDrift(), EquidistantScheme(8), 1, 0)
        obs = observe(path, NoiseModel(1e-4), EquidistantScheme(8), 1)
        buf = io.StringIO()
        write_observations_csv(obs, buf)
        buf.seek(0)
        back = read_observations_csv(buf)
        np.testing.assert_array_equal(back.values, obs.values)
        np.testing.assert_array_equal(back.noise, obs.noise)

    def test_read_without_oracle_columns(self):
        text = "time,value\r\n0.0,1.0\r\n0.5,2.0\r\n1.0,1.5\r\n"
        back = read_observations_csv(io.StringIO(text))
        np.testing.assert_array_equal(back.values, [1.0, 2.0, 1.5])
        np.testing.assert_array_equal(back.noise, np.zeros(3))

    def test_ragged_oracle_row_rejected(self):
        """Under a time,value,latent,noise header every row needs all four cells."""
        for row in ("0.5,2.0", "0.5,2.0,1.9"):
            text = f"time,value,latent,noise\n0.0,1.0,1.0,0.0\n{row}\n1.0,1.5,1.4,0.1\n"
            with pytest.raises(InvalidParameter, match="line 3"):
                read_observations_csv(io.StringIO(text))

    def test_bad_header_rejected(self):
        with pytest.raises(InvalidParameter):
            read_observations_csv(io.StringIO("a,b\n1,2\n"))
