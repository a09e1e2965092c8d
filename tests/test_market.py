"""Tests for path simulation, observation noise, and the series oracle fields."""

import io
import math
import threading

import numpy as np
import pytest

from spectralvol.basis import BasisKind, build_basis
from spectralvol.errors import GridMismatch, InvalidParameter, ResultOverflow, TooShort
from spectralvol import market
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
    _TILE_ROWS,
    _TILE_WIDTH,
    _derive_seeds,
    _LatentTiles,
    _NoiseTiles,
    _seed_words,
    _step_scales,
    _Streams,
    _tiles,
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
        """Monte Carlo moment oracle: Var(X_1 - X_0) = c over many seeds.

        The one-step paths of seeds 0..n_seeds-1 are drawn through the keyed
        streams a block of live generators at a time, in groups of _TILE_ROWS;
        every 997th has the bits of its own simulate_latent call.
        """
        c = 2.3
        scheme = EquidistantScheme(1)
        n_seeds, block = 100_000, 1000
        latent = _LatentTiles(ConstantVol(c), ZeroDrift(), (1,), 1, np.arange(n_seeds))
        ends = np.empty((n_seeds, 1))
        for lo in range(0, n_seeds, block):
            latent.start(lo, lo + block)
            for first in range(0, block, _TILE_ROWS):
                group = slice(first, min(first + _TILE_ROWS, block))
                latent.draw(group, 0, 1)
                latent.tile(0, ends[lo + group.start : lo + group.stop])
        ends = ends[:, 0]
        for seed in range(0, n_seeds, 997):
            path = simulate_latent(ConstantVol(c), ZeroDrift(), scheme, 1, seed)
            assert ends[seed] == path.values[-1]
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


def _exact_scales(vol, n):
    """Each observed step's standard deviation under step volatility, written out step by step.

    A step inside one level has sqrt(level * (1.0 / n)); a step that
    breakpoints fall inside has the root of its levels' shares, summed.
    """
    edges = (0.0, *vol.breakpoints, 1.0)
    levels = list(zip(edges, edges[1:], vol.levels))
    times = np.arange(n + 1) / n
    scales = []
    for lo, hi in zip(times, times[1:]):
        whole = [level for a, b, level in levels if a <= lo and hi <= b]
        if whole:
            scales.append(math.sqrt(whole[0] * (1.0 / n)))
        else:
            shares = (level * (min(b, hi) - max(a, lo)) for a, b, level in levels if a < hi and b > lo)
            scales.append(math.sqrt(sum(shares)))
    return np.array(scales)


class TestSimulateLatentBits:
    """simulate_latent keeps the bits of the per-path formula, written out here: the exact
    observed-step law under deterministic volatility, Euler-Maruyama under OU."""

    def test_constant_vol_with_drift(self):
        """Refinement 3 draws the observed steps, one normal each, as refinement 1 does."""
        n, c, b, seed = 50, 2.3, 0.7, 2**40 + 3
        dx = b * (1.0 / n) + math.sqrt(c * (1.0 / n)) * _philox_normals(seed, n)
        for r in (1, 3):
            path = simulate_latent(ConstantVol(c), ConstantDrift(b), EquidistantScheme(n), r, seed)
            assert path.values.tobytes() == np.concatenate(([0.0], np.cumsum(dx))).tobytes()
            assert path.spot_variance.tobytes() == np.full(n + 1, c).tobytes()
            assert path.fine_times.tobytes() == EquidistantScheme(n).times().tobytes()

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


    def test_piecewise_vol(self):
        """Breakpoints on a grid point, just past one, and two inside the same step."""
        n, seed, vol = _TILE_WIDTH + 40, 17, _STEPS
        times = np.arange(n + 1) / n
        spot = np.asarray(vol.levels)[np.searchsorted(vol.breakpoints, times, side="right")]
        dx = _exact_scales(vol, n) * _philox_normals(seed, n)
        path = simulate_latent(vol, ZeroDrift(), EquidistantScheme(n), 3, seed)
        assert path.values.tobytes() == np.concatenate(([0.0], np.cumsum(dx))).tobytes()
        assert path.spot_variance.tobytes() == spot.tobytes()

    def test_streams_continue_across_tiles(self):
        """Paths over two tiles keep the bits of one long draw, OU state and truth included."""
        n = _TILE_WIDTH + 40
        assert len(_tiles(n)) == 2
        c, b, seed = 2.3, 0.7, 2**40 + 3
        dx = b * (1.0 / n) + math.sqrt(c * (1.0 / n)) * _philox_normals(seed, n)
        path = simulate_latent(ConstantVol(c), ConstantDrift(b), EquidistantScheme(n), 2, seed)
        assert path.values.tobytes() == np.concatenate(([0.0], np.cumsum(dx))).tobytes()

        vol = _VOLS["ou"]
        dt = 1.0 / n
        shocks = _philox_normals(seed, n, spawn=1) * np.sqrt(dt)
        state = np.empty(n + 1)
        state[0] = vol.initial_level
        for i in range(n):
            state[i + 1] = (
                state[i]
                + vol.reversion_rate * (vol.mean_level - state[i]) * dt
                + vol.vol_of_vol * shocks[i]
            )
        spot = state**2
        dx = np.sqrt(spot[:-1] * dt) * _philox_normals(seed, n, spawn=0)
        path = simulate_latent(vol, ZeroDrift(), EquidistantScheme(n), 1, seed)
        assert path.values.tobytes() == np.concatenate(([0.0], np.cumsum(dx))).tobytes()
        assert path.spot_variance.tobytes() == spot.tobytes()
        trapezoid = getattr(np, "trapezoid", None) or np.trapz
        k = _TILE_WIDTH
        assert path.true_integrated_vol == float(
            trapezoid(spot[: k + 1], dx=dt) + trapezoid(spot[k:], dx=dt)
        )

        for ends in ((True, False), (False, True)):
            noise = NoiseModel(0.01, include_initial=ends[0], include_terminal=ends[1])
            v = _philox_normals(seed, n + 1) * np.sqrt(0.01)
            v[[0, -1]] = np.where(ends, v[[0, -1]], 0.0)
            assert observe(path, noise, EquidistantScheme(n), seed).noise.tobytes() == v.tobytes()


# Breakpoints on a grid point of some n, just past one, and two close together.
_STEPS = PiecewiseVol((0.25, 0.1 * 3, 1 / 3, float(np.nextafter(0.5, 1.0)), 0.6, 0.6 + 1e-12),
                      (1.0, 4.0, 0.5, 2.0, 3.0, 0.7, 1.5))


def _count_fills(monkeypatch) -> list:
    """The shape of every _Streams.fill from now on, in call order."""
    drawn = []
    fill = _Streams.fill
    monkeypatch.setattr(
        _Streams, "fill",
        lambda self, out, first=0: drawn.append(out.shape) or fill(self, out, first),
    )
    return drawn


class TestExactStepLaw:
    """Under deterministic volatility each observed increment is drawn by its exact law."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 1064])
    def test_step_variances_integrate_the_spot_variance(self, n):
        """Whole steps have sqrt(level * (1.0 / n)) and the squares sum to the truth."""
        edges = (0.0, *_STEPS.breakpoints, 1.0)
        truth = math.fsum(level * (b - a) for a, b, level in zip(edges, edges[1:], _STEPS.levels))
        scales = _step_scales(_STEPS, n)
        assert scales.tobytes() == _exact_scales(_STEPS, n).tobytes()
        assert abs(math.fsum(scales**2) - truth) <= 1e-15 * truth

    def test_straddled_breakpoint_keeps_the_mean_realized_variance(self):
        """At n = 3 the breakpoint 0.5 falls inside the middle step; the realized variance
        must still average the truth 2.5 (the left level gave 2.058 +- 0.033)."""
        vol, scheme = PiecewiseVol((0.5,), (1.0, 4.0)), EquidistantScheme(3)
        rv = [np.sum(np.diff(simulate_latent(vol, ZeroDrift(), scheme, 1, seed).values) ** 2)
              for seed in range(4000)]
        se = np.std(rv, ddof=1) / np.sqrt(len(rv))
        assert abs(np.mean(rv) - 2.5) <= 3 * se

    def test_refinement_draws_only_under_ou(self, monkeypatch):
        """A refined deterministic path draws n normals; an OU path n * r per stream."""
        drawn = _count_fills(monkeypatch)
        n, r = 50, 4
        path = simulate_latent(_STEPS, ConstantDrift(0.3), EquidistantScheme(n), r, 3)
        assert drawn == [(1, n)] and len(path.values) == n + 1
        drawn.clear()
        path = simulate_latent(_VOLS["ou"], ZeroDrift(), EquidistantScheme(n), r, 3)
        assert drawn == [(1, n * r)] * 2 and len(path.values) == n * r + 1


_VOLS = {
    "constant": ConstantVol(1.3),
    "piecewise": PiecewiseVol(breakpoints=(0.25, 0.5), levels=(1.0, 4.0, 0.5)),
    "ou": OrnsteinUhlenbeckVol(mean_level=1.0, reversion_rate=2.0, vol_of_vol=0.8, initial_level=0.5),
}


def _tiled(vol, drift, noise, n, refinement, path_seeds, noise_seeds, group=2):
    """Rows of the tile helpers, walked as the Monte Carlo engine walks them.

    All rows start as one live block, and each tile is drawn and scaled for
    groups of ``group`` rows in turn, so every row's streams, OU state,
    truth and noise carry must persist from tile to tile.  Returns the
    latent increments, spot variances, truths and the noise with its
    excluded end points zeroed, as ``observe`` zeroes them.  Latent
    increments are per observed step, or per fine step under OU.
    """
    rows = len(path_seeds)
    seeds = [np.array(s, dtype=np.uint64) for s in (path_seeds, noise_seeds)]
    latent = _LatentTiles(vol, drift, (n,), refinement, seeds[0])
    r = latent.r
    sampler = _NoiseTiles(noise, seeds[1], np.empty((group, _TILE_WIDTH + 1)))
    latent.start(0, rows)
    sampler.start(0, rows)
    dx, spot = np.empty((rows, n * r)), np.empty((rows, n * r + 1))
    v = np.empty((rows, n + 1))
    for lo, hi in _tiles(n):
        w = hi - lo
        for first in range(0, rows, group):
            g = slice(first, min(first + group, rows))
            latent.draw(g, lo, w)
            spot[g, lo * r : hi * r + 1] = latent.tile(0, dx[g, lo * r : hi * r])
            sampler.draw(g, lo, w)
            v[g, lo : hi + 1] = sampler.values[: g.stop - first, : w + 1] * sampler.scale
    v[:, 0] = v[:, 0] if noise.include_initial else 0.0
    v[:, -1] = v[:, -1] if noise.include_terminal else 0.0
    return dx, spot, latent.truths[0], v


class TestBlockHelpers:
    """Rows of the tile helpers against per-seed simulate_latent + observe."""

    @pytest.mark.parametrize("vol", sorted(_VOLS))
    @pytest.mark.parametrize("drift", [ZeroDrift(), ConstantDrift(-0.4)], ids=["zero", "const"])
    @pytest.mark.parametrize("refinement", [1, 3])
    @pytest.mark.parametrize("ends", [(True, True), (False, True), (True, False), (False, False)])
    def test_rows_match_single_seed_calls(self, vol, drift, refinement, ends):
        n = _TILE_WIDTH + 37  # two tiles: the OU state, truths and noise carry over
        scheme = EquidistantScheme(n)
        noise = NoiseModel(0.01, include_initial=ends[0], include_terminal=ends[1])
        path_seeds = [derive_seed(4, rep, 0) for rep in range(5)]
        noise_seeds = [derive_seed(4, rep, 1) for rep in range(5)]
        dx, spot, truths, v = _tiled(
            _VOLS[vol], drift, noise, n, refinement, path_seeds, noise_seeds
        )
        steps = n * (refinement if vol == "ou" else 1)
        assert dx.shape == (5, steps) and v.shape == (5, n + 1)
        assert truths.shape == (5,)
        for j, (ps, ns) in enumerate(zip(path_seeds, noise_seeds)):
            path = simulate_latent(_VOLS[vol], drift, scheme, refinement, ps)
            obs = observe(path, noise, scheme, ns)
            tol = 1e-12 * np.max(np.abs(path.values))
            np.testing.assert_allclose(dx[j], np.diff(path.values), rtol=0, atol=tol)
            np.testing.assert_array_equal(spot[j], path.spot_variance)
            np.testing.assert_array_equal(v[j], obs.noise)
            assert truths[j] == path.true_integrated_vol


    def test_samplers_size_themselves(self):
        """The draw buffer from the seeds and grids; the generators and carry from start()."""
        many = np.arange(_TILE_ROWS + 5)
        latent = _LatentTiles(_VOLS["ou"], ZeroDrift(), (5, 40), 3, many)
        assert latent.raw.shape == (2, _TILE_ROWS, 120)
        for refinement in (1, 3):  # one normal per observed step under deterministic volatility
            latent = _LatentTiles(ConstantVol(1.0), ZeroDrift(), (5,), refinement, [1, 2, 3])
            assert latent.raw.shape == (1, 3, 6)
        sampler = _NoiseTiles(NoiseModel(0.01), many, np.empty((_TILE_ROWS, 6)))
        sampler.start(10, 17)
        assert sampler.carry.shape == (7,) and len(sampler.streams.pool) == 7

    @pytest.mark.parametrize("ends", [(True, True), (False, True), (True, False), (False, False)])
    def test_one_increment_series(self, ends):
        """At n = 1 both end points fall in the one noise difference."""
        scheme = EquidistantScheme(1)
        noise = NoiseModel(0.01, include_initial=ends[0], include_terminal=ends[1])
        seeds = [derive_seed(6, rep, 1) for rep in range(3)]
        _, _, _, v = _tiled(ConstantVol(1.0), ZeroDrift(), noise, 1, 1, seeds, seeds)
        for j, seed in enumerate(seeds):
            path = simulate_latent(ConstantVol(1.0), ZeroDrift(), scheme, 1, seed)
            obs = observe(path, noise, scheme, seed)
            np.testing.assert_array_equal(v[j], obs.noise)


# (vol, drift, refinement) of each latent setting of TestWeights; the four end
# settings of the noise take turns along them.
_LATENT_SETTINGS = [
    (vol, drift, r)
    for vol in sorted(_VOLS)
    for drift in (ZeroDrift(), ConstantDrift(-0.4))
    for r in (1, 3)
]
_ENDS = [(True, True), (False, True), (True, False), (False, False)]


class TestWeights:
    """The engine's weights against the dense oracle.

    Summed over the tiles of n, ``normals @ L + offset + values @ N`` must be
    ``(dX + dV) @ B[:, :columns]`` for the increments of simulate_latent and
    observe and the dense basis B of build_basis, for every basis and end
    setting: the weights fold in the path scale, the drift, the noise
    differencing and scale, and the excluded end points.
    """

    @staticmethod
    def _weighted(vol, drift, noise, n, r, path_seeds, noise_seeds, cols):
        rows = len(path_seeds)
        latent = _LatentTiles(vol, drift, (n,), r, path_seeds)
        sampler = _NoiseTiles(noise, noise_seeds, np.empty((rows, _TILE_WIDTH + 1)))
        latent.start(0, rows)
        sampler.start(0, rows)
        noi = np.empty((min(n, _TILE_WIDTH) + 1, cols.shape[1]))
        got = np.zeros((rows, cols.shape[1]))
        for lo, hi in _tiles(n):
            w, c = hi - lo, cols[lo:hi]
            latent.draw(slice(0, rows), lo, w)
            sampler.draw(slice(0, rows), lo, w)
            got += latent.normals(0, rows, w) @ latent.weights(0, lo, c.copy())
            got += latent.offset(0, c)
            got += sampler.values[:, : w + 1] @ sampler.weights(n, lo, c, noi)
        return got

    @pytest.mark.parametrize("n", [1, 2, _TILE_WIDTH, _TILE_WIDTH + 1, 2 * _TILE_WIDTH + 1])
    def test_match_dense_basis(self, n):
        kinds = [BasisKind.SIML_COSINE, BasisKind.DST_SINE]
        if n % 2:
            kinds.append(BasisKind.FOURIER_REAL)
        cols = np.hstack([build_basis(kind, n)[:, : min(n, 7)] for kind in kinds])
        path_seeds = np.array([derive_seed(8, rep, 0) for rep in range(2)], dtype=np.uint64)
        noise_seeds = np.array([derive_seed(8, rep, 1) for rep in range(2)], dtype=np.uint64)
        scheme = EquidistantScheme(n)
        for (vol, drift, r), ends in zip(_LATENT_SETTINGS, _ENDS * 3):
            noise = NoiseModel(0.01, include_initial=ends[0], include_terminal=ends[1])
            got = self._weighted(_VOLS[vol], drift, noise, n, r, path_seeds, noise_seeds, cols)
            for row, ps, ns in zip(got, path_seeds, noise_seeds):
                path = simulate_latent(_VOLS[vol], drift, scheme, r, int(ps))
                obs = observe(path, noise, scheme, int(ns))
                want = (np.diff(obs.latent) + np.diff(obs.noise)) @ cols
                np.testing.assert_allclose(
                    row, want, rtol=0, atol=1e-12 * np.max(np.abs(want)),
                    err_msg=f"{vol}, {drift}, refinement {r}, ends {ends}",
                )


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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_difference_rejected(self):
        values = np.array([0.0, 1e308, -1e308])
        obs = ObservationSeries(times=np.array([0.0, 0.5, 1.0]), values=values, latent=values,
                                noise=np.zeros(3))
        with pytest.raises(InvalidParameter, match="overflows"):
            increments(obs)


class TestSeedDerivation:
    def test_deterministic_and_distinct(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        seeds = {derive_seed(b, r, s) for b in (0, 1) for r in (0, 1, 2) for s in (0, 1)}
        assert len(seeds) == 12


_BASES = (0, 11, 2**32 - 1, 2**32, 2**63 + 12345, 2**70)
_REPS = [0, 1, 2**32 - 1, 2**32] + list(range(500))


def _oracle_seed(base, rep, stream):
    ss = np.random.SeedSequence((base, rep, stream))
    return int(ss.generate_state(1, np.uint64)[0])


class TestSeedingKernel:
    """The vectorised SeedSequence hash against numpy's SeedSequence, exactly."""

    @pytest.mark.parametrize("base", _BASES)
    @pytest.mark.parametrize("stream", [0, 1])
    def test_derive_seeds_match_seed_sequence(self, base, stream):
        want = [_oracle_seed(base, rep, stream) for rep in _REPS]
        got = _derive_seeds(base, np.array(_REPS, dtype=np.uint64), stream)
        assert got.dtype == np.uint64
        assert got.tolist() == want
        assert _derive_seeds(base, _REPS, stream).tolist() == want
        assert [derive_seed(base, rep, stream) for rep in _REPS[:6]] == want[:6]

    @pytest.mark.parametrize("spawn", [None, 0, 1])
    def test_second_level_words_match_seed_sequence(self, spawn):
        """Philox keys of seeds below and above 2**32, mixed in one call."""
        seeds = [0, 7, 2**32 - 1, 2**32, 2**40 + 3, 2**64 - 1] + [
            derive_seed(11, rep, s) for rep in range(20) for s in (0, 1)
        ]
        key = () if spawn is None else (spawn,)
        want = np.array(
            [np.random.SeedSequence(seed, spawn_key=key).generate_state(4) for seed in seeds]
        )
        np.testing.assert_array_equal(_seed_words((seeds,), 4, spawn), want)
        np.testing.assert_array_equal(
            _seed_words((np.array(seeds, dtype=np.uint64),), 4, spawn), want
        )

    @pytest.mark.parametrize("spawn", [None, 0, 1])
    def test_normals_rows_match_per_seed_philox(self, spawn):
        """A pool re-keyed per group of seeds, filled in uneven tiles, draws each seed's stream."""
        seeds = [3, 2**32 + 5] + [derive_seed(2, rep, 0) for rep in range(6)]
        streams = _Streams(seeds, spawn)
        for lo in range(0, len(seeds), 3):
            group = seeds[lo : lo + 3]
            streams.start(lo, lo + len(group))
            got = np.empty((len(group), 33))
            for a, b in ((0, 1), (1, 21), (21, 33)):
                streams.fill(got[:, a:b])
            for row, seed in zip(got, group):
                assert row.tobytes() == _philox_normals(seed, 33, spawn).tobytes()

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            derive_seed(-1, 0, 0)
        with pytest.raises(ValueError):
            _Streams(np.array([1, -2]))

    def test_golden_values(self):
        """Sub-seeds and first normals as numpy's SeedSequence and Philox give them."""
        assert [derive_seed(11, r, s) for r in (0, 1, 499) for s in (0, 1)] == [
            3926704849073358691,
            17787998696327163147,
            18161219428762539833,
            7916725605944229931,
            11501836680380069171,
            7327722223960360451,
        ]
        golden = {
            (3926704849073358691, None): ["0x1.a059369e3459dp-5", "-0x1.83abc3bd5a70cp+0"],
            (7916725605944229931, None): ["-0x1.8a8784dda21bfp-6", "-0x1.7750dc436e63fp-1"],
            (16489466604871712345, 1): ["0x1.79f26fabeaf63p-3", "0x1.56d30626663c7p+0"],
            (2**40 + 3, 0): ["-0x1.61aa7ce67268cp+0", "-0x1.c16e76747a979p-2"],
        }
        for (seed, spawn), want in golden.items():
            streams = _Streams(seed, spawn)
            streams.start(0, 1)
            assert [v.hex() for v in streams.fill(np.empty((1, 2)))[0].tolist()] == want


def _on_fresh_thread(fn):
    """``fn()`` on a new thread, whose generator pools start empty."""
    out = []
    thread = threading.Thread(target=lambda: out.append(fn()))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    return out[0]


class TestGeneratorPool:
    """Generators kept per thread and role, re-keyed by start(), keep every stream's bits."""

    def test_reused_generators_keep_the_bits(self):
        n, scheme, noise = _TILE_WIDTH + 9, EquidistantScheme(40), NoiseModel(0.01)
        seeds = [derive_seed(3, rep, s) for s in (0, 1) for rep in range(5)]

        def walk():
            parts = _tiled(_VOLS["ou"], ZeroDrift(), noise, n, 2, seeds[:5], seeds[5:])
            return [a.tobytes() for a in parts]

        def samplers():
            path = simulate_latent(_VOLS["ou"], ZeroDrift(), scheme, 3, 4)
            paths, _ = simulate_latent_correlated(np.eye(2), scheme, 2, 4)
            return [a.tobytes() for a in (path.values, observe(path, noise, scheme, 4).noise,
                                           paths[1].values)]

        want_walk, want_samplers = _on_fresh_thread(walk), _on_fresh_thread(samplers)
        for _ in range(2):
            assert walk() == want_walk
            assert samplers() == want_samplers

    def test_pool_grows_to_the_largest_block_and_is_reused(self):
        def streams():
            big = _Streams([1, 2, 3, 4, 5], None, "noise")
            big.start(0, 5)
            small = _Streams([6, 7], None, "noise")
            small.start(0, 2)
            return big.pool, small.pool, market._POOLS.generators["noise"]

        big, small, pool = _on_fresh_thread(streams)
        assert len(pool) == 5 and all(a is b for a, b in zip(big, pool))
        assert len(small) == 2 and all(a is b for a, b in zip(small, big))

    def test_roles_and_threads_share_no_generator(self):
        def pools():
            return [market._generators(role, 4) for role in ("path", "state", "noise")]

        ids = [id(gen) for roles in (pools(), _on_fresh_thread(pools)) for gens in roles
               for gen in gens]
        assert len(set(ids)) == len(ids) == 24

    def test_older_sampler_of_a_role_is_refused(self):
        """A newer _Streams of the same role takes the generators; the older one may not draw."""
        older = _Streams([1, 2], None, "noise")
        older.start(0, 2)
        newer = _Streams([3, 4], None, "noise")
        for draw in (lambda: older.start(0, 2), lambda: older.fill(np.empty((2, 3)))):
            with pytest.raises(RuntimeError, match="'noise'"):
                draw()
        newer.start(0, 2)
        newer.fill(np.empty((2, 3)))
        other_role = _Streams([5], None, "state")
        other_role.start(0, 1)
        newer.fill(np.empty((2, 3)))

    def test_fill_draws_only_started_streams(self):
        """A fill before any start, or past the started streams, raises instead of drawing."""
        streams = _Streams([1, 2, 3], None, "noise")
        with pytest.raises(ValueError):
            streams.fill(np.empty((1, 3)))
        streams.start(0, 2)
        for rows, first in ((3, 0), (2, 1)):
            with pytest.raises(ValueError):
                streams.fill(np.empty((rows, 3)), first)
        streams.fill(np.empty((1, 3)), 1)

    def test_sampler_of_another_thread_is_refused(self):
        streams = _Streams([1, 2], None, "path")
        streams.start(0, 2)

        def fill_elsewhere():
            try:
                streams.fill(np.empty((2, 3)))
            except RuntimeError as err:
                return str(err)

        assert "another thread" in _on_fresh_thread(fill_elsewhere)


class TestZeroVarianceBlock:
    @pytest.mark.parametrize("drift", [ZeroDrift(), ConstantDrift(0.3)], ids=["zero", "const"])
    def test_no_draws_and_exact_zero_increments(self, monkeypatch, drift):
        n, refinement = 40, 2
        noise = NoiseModel(0.01)
        seeds = [derive_seed(5, rep, 1) for rep in range(4)]
        drawn = _count_fills(monkeypatch)
        dx, spot, truths, v = _tiled(
            ConstantVol(0.0), drift, noise, n, refinement, seeds, seeds, group=4
        )
        assert drawn == [(4, n + 1)]  # the noise tile alone
        step = (drift.level if isinstance(drift, ConstantDrift) else 0.0) * (1.0 / n)
        assert dx.tobytes() == np.full((4, n), step).tobytes()
        assert not spot.any() and truths.tolist() == [0.0] * 4
        for row, seed in zip(v, seeds):
            assert row.tobytes() == (_philox_normals(seed, n + 1) * np.sqrt(0.01)).tobytes()

    def test_positive_variance_still_draws(self, monkeypatch):
        drawn = _count_fills(monkeypatch)
        latent = _LatentTiles(ConstantVol(1e-300), ZeroDrift(), (8,), 1, [1, 2])
        latent.start(0, 2)
        latent.draw(slice(0, 2), 0, 8)
        latent.tile(0, np.empty((2, 8)))
        assert drawn == [(2, 8)]


_NAN, _INF = math.nan, math.inf


class TestNonFiniteParameters:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: NoiseModel(_NAN),
            lambda: NoiseModel(_INF),
            lambda: ConstantVol(_NAN),
            lambda: ConstantVol(_INF),
            lambda: PiecewiseVol((0.5,), (1.0, _NAN)),
            lambda: PiecewiseVol((0.5,), (_INF, 1.0)),
            lambda: PiecewiseVol((_NAN,), (1.0, 1.0)),
            lambda: OrnsteinUhlenbeckVol(_NAN, 1.0, 0.5, 1.0),
            lambda: OrnsteinUhlenbeckVol(1.0, _NAN, 0.5, 1.0),
            lambda: OrnsteinUhlenbeckVol(1.0, 1.0, _NAN, 1.0),
            lambda: OrnsteinUhlenbeckVol(1.0, 1.0, 0.5, _NAN),
            lambda: OrnsteinUhlenbeckVol(1.0, _INF, 0.5, 1.0),
            lambda: ConstantDrift(_NAN),
            lambda: ConstantDrift(-_INF),
            lambda: EquidistantScheme(2.5),
            lambda: EquidistantScheme(_NAN),
        ],
        ids=["noise_nan", "noise_inf", "const_nan", "const_inf", "piecewise_level_nan",
             "piecewise_level_inf", "piecewise_breakpoint_nan", "ou_mean_nan", "ou_rate_nan",
             "ou_volvol_nan", "ou_initial_nan", "ou_rate_inf", "drift_nan", "drift_inf",
             "scheme_non_integer", "scheme_nan"],
    )
    def test_rejected(self, make):
        with pytest.raises(InvalidParameter):
            make()

    def test_finite_values_accepted(self):
        NoiseModel(0.0)
        ConstantVol(0.0)
        PiecewiseVol((0.5,), (0.0, 2.0))
        OrnsteinUhlenbeckVol(-1.0, 0.0, 0.0, -0.5)
        ConstantDrift(-3.0)


_FOUR = EquidistantScheme(4)


class TestSamplerArguments:
    """Sizes and seeds of the single-series samplers are integers, and their results finite."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: simulate_latent(ConstantVol(1.0), ZeroDrift(), _FOUR, 2.5, 1),
            lambda: simulate_latent(ConstantVol(1.0), ZeroDrift(), _FOUR, _NAN, 1),
            lambda: simulate_latent(ConstantVol(1.0), ZeroDrift(), _FOUR, 1, 1.5),
            lambda: simulate_latent(ConstantVol(1.0), ZeroDrift(), _FOUR, 1, -1),
            lambda: simulate_latent(ConstantVol(0.0), ZeroDrift(), _FOUR, 1, 1.5),
            lambda: simulate_latent(_VOLS["ou"], ZeroDrift(), _FOUR, 1, -1),
            lambda: observe(simulate_latent(ConstantVol(1.0), ZeroDrift(), _FOUR, 1, 1),
                            NoiseModel(0.01), _FOUR, 1.5),
            lambda: observe(simulate_latent(ConstantVol(1.0), ZeroDrift(), _FOUR, 1, 1),
                            NoiseModel(0.01), _FOUR, -1),
            lambda: simulate_latent_correlated(np.eye(2), _FOUR, 2.5, 1),
            lambda: simulate_latent_correlated(np.eye(2), _FOUR, 1, -1),
            lambda: simulate_latent_correlated(np.eye(2) * (1 + 1j), _FOUR, 1, 1),
            lambda: derive_seed(-1, 0, 0),
            lambda: derive_seed(1.5, 0, 0),
            lambda: derive_seed(0, -1, 0),
            lambda: derive_seed(0, 0, 1.5),
        ],
        ids=["refinement_non_integer", "refinement_nan", "seed_non_integer", "seed_negative",
             "silent_seed_non_integer", "ou_seed_negative", "observe_seed_non_integer",
             "observe_seed_negative", "correlated_refinement", "correlated_seed",
             "correlated_complex_loadings", "derive_base_negative", "derive_base_non_integer",
             "derive_replication_negative", "derive_stream_non_integer"],
    )
    def test_refused(self, call):
        with pytest.raises(InvalidParameter):
            call()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_refused_without_a_warning(self):
        with pytest.raises(ResultOverflow, match="path"):
            simulate_latent(OrnsteinUhlenbeckVol(1e200, 1.0, 1.0, 1e200), ZeroDrift(), _FOUR, 1, 1)
        with pytest.raises(ResultOverflow, match="covariance"):
            simulate_latent_correlated(np.eye(2) * 1e200, _FOUR, 1, 1)


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

    def test_zero_refinement_rejected_like_single_asset(self):
        with pytest.raises(InvalidParameter):
            simulate_latent(ConstantVol(1.0), ZeroDrift(), EquidistantScheme(4), refinement=0)
        with pytest.raises(InvalidParameter):
            simulate_latent_correlated(np.eye(2), EquidistantScheme(4), refinement=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_loadings_rejected(self, bad):
        with pytest.raises(InvalidParameter):
            simulate_latent_correlated([[bad, 1.0]], EquidistantScheme(4), refinement=1)


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

    def test_non_numeric_cell_rejected(self):
        for text in ("time,value\n0.0,1.0\n0.5,abc\n", "time,value,latent,noise\n0.5,1.0,x,0.0\n"):
            line = 3 if text.startswith("time,value\n") else 2
            with pytest.raises(InvalidParameter, match=f"line {line}"):
                read_observations_csv(io.StringIO(text))

    def test_time_outside_unit_interval_rejected(self):
        """Times must lie in [0, 1], the period of the Fourier estimator."""
        for text, line in (("time,value\n0.0,1.0\n0.5,2.0\n1.5,1.5\n", 4),
                           ("time,value\n-0.1,1.0\n0.5,2.0\n", 2)):
            with pytest.raises(InvalidParameter, match=rf"line {line}: .*rescale times to \[0, 1\]"):
                read_observations_csv(io.StringIO(text))
        back = read_observations_csv(io.StringIO("time,value\n0.0,1.0\n1.0,2.0\n"))
        np.testing.assert_array_equal(back.times, [0.0, 1.0])

    def test_bad_header_rejected(self):
        with pytest.raises(InvalidParameter):
            read_observations_csv(io.StringIO("a,b\n1,2\n"))
