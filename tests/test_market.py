"""Tests for path simulation, observation noise, and the series oracle fields."""

import io
import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    _coefficients,
    _derive_seeds,
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

        The one-step paths of seeds 0..n_seeds-1 are drawn by the Monte Carlo
        engine, a live block of generators at a time, in groups of
        _TILE_ROWS, with the identity for basis rows; every 997th has the bits
        of its own simulate_latent call.
        """
        c = 2.3
        scheme = EquidistantScheme(1)
        n_seeds = 100_000
        seeds = np.arange(n_seeds)
        (coef,), _ = _coefficients(ConstantVol(c), ZeroDrift(), NoiseModel(0.0), (1,), 1, seeds,
                                   seeds, (1,), _identity_rows)
        ends = coef[0, :, 0]
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
        with pytest.raises(InvalidParameter, match="len"):
            PiecewiseVol((0.5,), (1.0,))


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


def _count_normals(monkeypatch) -> list:
    """The size of every market._normals draw from now on, in call order."""
    drawn = []
    normals = market._normals
    monkeypatch.setattr(market, "_normals",
                        lambda seed, size, spawn=None: drawn.append(size) or normals(seed, size, spawn))
    return drawn


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
        scales = _step_scales(_STEPS, n, 0, n)
        assert scales.tobytes() == _exact_scales(_STEPS, n).tobytes()
        assert abs(math.fsum(scales**2) - truth) <= 1e-15 * truth

    @pytest.mark.parametrize("n", [3, 10, 1064, 3 * _TILE_WIDTH + 7])
    def test_steps_of_any_range_keep_the_bits_of_the_whole(self, n):
        """Steps lo..hi-1, taken alone as a tile takes them, are those steps of the whole grid,
        whether a breakpoint falls inside, at an end of or outside the range."""
        whole = _exact_scales(_STEPS, n)
        cuts = sorted({0, 1, n // 3, n // 2, n // 2 + 1, n - 1, n, *range(0, n, _TILE_WIDTH)})
        for lo in cuts:
            for hi in (h for h in cuts if h >= lo):
                assert _step_scales(_STEPS, n, lo, hi).tobytes() == whole[lo:hi].tobytes()

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
        drawn = _count_normals(monkeypatch)
        n, r = 50, 4
        path = simulate_latent(_STEPS, ConstantDrift(0.3), EquidistantScheme(n), r, 3)
        assert drawn == [n] and len(path.values) == n + 1
        drawn.clear()
        path = simulate_latent(_VOLS["ou"], ZeroDrift(), EquidistantScheme(n), r, 3)
        assert drawn == [n * r] * 2 and len(path.values) == n * r + 1


_VOLS = {
    "constant": ConstantVol(1.3),
    "piecewise": PiecewiseVol(breakpoints=(0.25, 0.5), levels=(1.0, 4.0, 0.5)),
    "ou": OrnsteinUhlenbeckVol(mean_level=1.0, reversion_rate=2.0, vol_of_vol=0.8, initial_level=0.5),
}


def _identity_rows(i, lo, out):
    """Rows lo..lo+w-1 of the identity, as basis rows of a grid of as many columns as steps."""
    out[...] = 0.0
    out[:, lo : lo + len(out)] = np.eye(len(out))


def _tiled(vol, drift, noise, n, refinement, path_seeds, noise_seeds, group=2):
    """Rows of the Monte Carlo engine on one grid, with the identity for basis rows.

    All rows start as one live block, and each tile is drawn for groups of
    ``group`` rows in turn (market._TILE_ROWS patched), so every row's
    streams, OU state, truth and noise carry must persist from tile to tile.
    Returns the latent increments per observed step (``dX``), the spot
    variance each call of ``market._euler_ou`` returns (None under
    deterministic volatility, which forms none), the truths, and the noise
    differences (``dV``).
    """
    rows = len(path_seeds)
    seeds = [np.array(s, dtype=np.uint64) for s in (path_seeds, noise_seeds)]
    spots, euler_ou = [], market._euler_ou
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(market, "_TILE_ROWS", group)
        monkeypatch.setattr(market, "_euler_ou", lambda *a: spots.append(euler_ou(*a)) or spots[-1])
        (coef,), truths = _coefficients(vol, drift, noise, (n,), refinement, *seeds, (n,),
                                        _identity_rows)
    if not spots:
        return coef[0], None, truths[0], coef[1]
    r = refinement
    spot = np.empty((rows, n * r + 1))
    for lo, hi in _tiles(n):  # one call per tile and group, in the engine's order
        for first in range(0, rows, group):
            spot[first : first + group, lo * r : hi * r + 1] = spots.pop(0)
    return coef[0], spot, truths[0], coef[1]


class TestBlockHelpers:
    """Rows of the tile helpers against per-seed simulate_latent + observe."""

    @pytest.mark.parametrize("vol", sorted(_VOLS))
    @pytest.mark.parametrize("drift", [ZeroDrift(), ConstantDrift(-0.4)], ids=["zero", "const"])
    @pytest.mark.parametrize("refinement", [1, 3])
    @pytest.mark.parametrize("ends", [(True, True), (False, True), (True, False), (False, False)])
    def test_rows_match_single_seed_calls(self, vol, drift, refinement, ends):
        """At unit noise variance the engine's noise differences are bit-exact (a smaller
        scale rounds differently where the product fuses a multiply and an add)."""
        n = _TILE_WIDTH + 37  # two tiles: the OU state, truths and noise carry over
        scheme = EquidistantScheme(n)
        noise = NoiseModel(1.0, include_initial=ends[0], include_terminal=ends[1])
        path_seeds = [derive_seed(4, rep, 0) for rep in range(5)]
        noise_seeds = [derive_seed(4, rep, 1) for rep in range(5)]
        dx, spot, truths, v = _tiled(
            _VOLS[vol], drift, noise, n, refinement, path_seeds, noise_seeds
        )
        r = refinement if vol == "ou" else 1
        assert dx.shape == (5, n) and v.shape == (5, n)
        assert truths.shape == (5,) and (spot is None) == (vol != "ou")
        for j, (ps, ns) in enumerate(zip(path_seeds, noise_seeds)):
            path = simulate_latent(_VOLS[vol], drift, scheme, refinement, ps)
            obs = observe(path, noise, scheme, ns)
            tol = 1e-12 * np.max(np.abs(path.values))
            np.testing.assert_allclose(dx[j], np.diff(path.values[::r]), rtol=0, atol=tol)
            if spot is not None:
                np.testing.assert_array_equal(spot[j], path.spot_variance)
            np.testing.assert_array_equal(v[j], np.diff(obs.noise))
            assert truths[j] == path.true_integrated_vol


    def test_samplers_size_themselves(self, monkeypatch):
        """Draws fill groups of up to _TILE_ROWS rows of a tile of the largest grid; live
        blocks of _LIVE_ROWS rows start the streams."""
        many, noise = np.arange(_TILE_ROWS + 5), NoiseModel(0.01)
        drawn = _count_fills(monkeypatch)
        _coefficients(_VOLS["ou"], ZeroDrift(), noise, (5, 40), 3, many, many, (5, 40),
                      _identity_rows)
        assert drawn == [(_TILE_ROWS, 120)] * 2 + [(_TILE_ROWS, 41)] + [(5, 120)] * 2 + [(5, 41)]
        for refinement in (1, 3):  # one normal per observed step under deterministic volatility
            drawn.clear()
            _coefficients(ConstantVol(1.0), ZeroDrift(), noise, (5,), refinement, [1, 2, 3],
                          [4, 5, 6], (5,), _identity_rows)
            assert drawn == [(3, 5), (3, 6)]
        started, start = [], _Streams.start
        monkeypatch.setattr(_Streams, "start",
                            lambda self, lo, hi: started.append((lo, hi)) or start(self, lo, hi))
        monkeypatch.setattr(market, "_TILE_ROWS", 2)
        monkeypatch.setattr(market, "_LIVE_ROWS", 4)
        drawn.clear()
        _coefficients(ConstantVol(1.0), ZeroDrift(), noise, (5,), 1, many[:7], many[:7], (5,),
                      _identity_rows)
        assert started == [(0, 4)] * 2 + [(4, 7)] * 2
        assert drawn == [(2, 5), (2, 6)] * 3 + [(1, 5), (1, 6)]

    @pytest.mark.parametrize("ends", [(True, True), (False, True), (True, False), (False, False)])
    def test_one_increment_series(self, ends):
        """At n = 1 both end points fall in the one noise difference."""
        scheme = EquidistantScheme(1)
        noise = NoiseModel(1.0, include_initial=ends[0], include_terminal=ends[1])
        seeds = [derive_seed(6, rep, 1) for rep in range(3)]
        _, _, _, v = _tiled(ConstantVol(1.0), ZeroDrift(), noise, 1, 1, seeds, seeds)
        for j, seed in enumerate(seeds):
            path = simulate_latent(ConstantVol(1.0), ZeroDrift(), scheme, 1, seed)
            obs = observe(path, noise, scheme, seed)
            np.testing.assert_array_equal(v[j], np.diff(obs.noise))


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

    The engine's ``dX @ B`` plus its ``dV @ B`` must be ``(dX + dV) @
    B[:, :columns]`` for the increments of simulate_latent and observe and
    the dense basis B of build_basis, for every basis and end setting: the
    weights fold in the path scale, the drift, the noise differencing and
    scale, and the excluded end points.
    """

    @staticmethod
    def _weighted(vol, drift, noise, n, r, path_seeds, noise_seeds, cols):
        def rows(i, lo, out):
            out[...] = cols[lo : lo + len(out)]

        (coef,), _ = _coefficients(vol, drift, noise, (n,), r, path_seeds, noise_seeds,
                                   (cols.shape[1],), rows)
        return coef[0] + coef[1]

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

    def test_boolean_values_are_differenced_as_floats(self):
        """np.diff of booleans is their not-equal, True where a value falls from 1 to 0."""
        flags = np.array([0, 1, 1, 0, 0], dtype=bool)
        obs = ObservationSeries(times=np.linspace(0, 1, 5), values=flags, latent=flags,
                                noise=np.zeros(5))
        got = increments(obs)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, [1.0, 0.0, -1.0, 0.0])

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
_REPS = [0, 1, 2**32 - 1] + list(range(500))


def _oracle_seed(base, rep, stream):
    ss = np.random.SeedSequence((base, rep, stream))
    return int(ss.generate_state(1, np.uint64)[0])


def _oracle_key(seed, spawn):
    """The Philox key ``Philox(SeedSequence(seed, spawn_key=(spawn,)))`` takes."""
    key = () if spawn is None else (spawn,)
    return np.random.SeedSequence(seed, spawn_key=key).generate_state(2, np.uint64).tolist()


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

    @given(base=st.integers(0, 2**70), reps=st.lists(st.integers(0, 2**32 - 1), max_size=8),
           stream=st.integers(0, 2**33))
    def test_derive_seeds_match_seed_sequence_anywhere(self, base, reps, stream):
        got = _derive_seeds(base, np.array(reps, dtype=np.uint64), stream)
        assert got.tolist() == [_oracle_seed(base, rep, stream) for rep in reps]

    @pytest.mark.parametrize("base", [0, 2**32 + 7])
    def test_replications_of_one_word_only(self, base):
        """The engine's hash takes a replication as one entropy word; derive_seed takes any."""
        with pytest.raises(InvalidParameter, match="2\\*\\*32"):
            _derive_seeds(base, np.array([0, 2**32], dtype=np.uint64), 0)
        assert derive_seed(base, 2**32, 1) == _oracle_seed(base, 2**32, 1)

    @pytest.mark.parametrize("spawn", [None, 0, 1])
    def test_keys_match_seed_sequence(self, spawn):
        """Philox keys of seeds below and above 2**32, mixed in one call."""
        seeds = [0, 7, 2**32 - 1, 2**32, 2**40 + 3, 2**64 - 1] + [
            derive_seed(11, rep, s) for rep in range(20) for s in (0, 1)
        ]
        want = [_oracle_key(seed, spawn) for seed in seeds]
        assert _Streams(seeds, spawn).keys.tolist() == want
        assert _Streams(np.array(seeds, dtype=np.uint64), spawn).keys.tolist() == want

    @given(seeds=st.lists(st.integers(0, 2**32 - 1) | st.integers(2**32, 2**64 - 1),
                          max_size=12), spawn=st.sampled_from([None, 0, 1]))
    def test_keys_match_seed_sequence_anywhere(self, seeds, spawn):
        """Seeds of one and of two words, mixed in one array, each get numpy's key."""
        got = _Streams(np.array(seeds, dtype=np.uint64), spawn).keys
        assert got.tolist() == [_oracle_key(seed, spawn) for seed in seeds]

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

    def test_negative_base_of_many_seeds_rejected(self):
        """The base seed's words refuse a negative int; the replications' array is checked
        apart."""
        with pytest.raises(InvalidParameter, match="non-negative"):
            _derive_seeds(-1, np.arange(3), 0)

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
            streams = _Streams([seed], spawn)
            streams.start(0, 1)
            assert [v.hex() for v in streams.fill(np.empty((1, 2)))[0].tolist()] == want


def _on_another_thread(fn):
    """``fn()`` on a new thread."""
    out = []
    thread = threading.Thread(target=lambda: out.append(fn()))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    return out[0]


def _lone_draws(seeds, tiles=2):
    """``tiles`` fills of three normals from each stream of a lone sampler of ``seeds``."""
    streams = _Streams(seeds)
    streams.start(0, len(seeds))
    return np.hstack([streams.fill(np.empty((len(seeds), 3))) for _ in range(tiles)])


class TestGeneratorPool:
    """Generators owned by one live sampler at a time, re-keyed by start(), keep every
    stream's bits; spare lists of them outlive their samplers and serve the next ones."""

    def test_reused_generators_keep_the_bits(self, monkeypatch):
        n, scheme, noise = _TILE_WIDTH + 9, EquidistantScheme(40), NoiseModel(0.01)
        seeds = [derive_seed(3, rep, s) for s in (0, 1) for rep in range(5)]

        def walk():
            parts = _tiled(_VOLS["ou"], ZeroDrift(), noise, n, 2, seeds[:5], seeds[5:])
            return [a.tobytes() for a in parts]

        def samplers():
            path = simulate_latent(_VOLS["ou"], ZeroDrift(), scheme, 3, 4)
            paths, _ = simulate_latent_correlated(np.eye(2), scheme, rng_seed=4)
            return [a.tobytes() for a in (path.values, observe(path, noise, scheme, 4).noise,
                                           paths[1].values)]

        monkeypatch.setattr(market, "_SPARES", [])
        want_walk = walk()
        monkeypatch.setattr(market, "_SPARES", [])
        want_samplers = samplers()
        for _ in range(2):
            assert walk() == want_walk
            assert samplers() == want_samplers

    def test_spare_list_grows_to_the_largest_block_and_is_reused(self, monkeypatch):
        monkeypatch.setattr(market, "_SPARES", [])
        streams = _Streams([1, 2, 3, 4, 5])
        for lo, hi in ((0, 2), (0, 5), (1, 3)):
            streams.start(lo, hi)
        owned = streams.owned
        assert len(owned) == 5 and streams.pool == owned[:2]
        del streams
        assert len(market._SPARES) == 1 and market._SPARES[0] is owned
        assert _Streams([6]).owned is owned and market._SPARES == []

    def test_live_samplers_share_no_generator(self):
        samplers = [_Streams([1, 2, 3], spawn) for spawn in (None, 0, 1, None)]
        for streams in samplers:
            streams.start(0, 3)
        ids = [id(gen) for streams in samplers for gen in streams.pool]
        assert len(set(ids)) == len(ids) == 12

    def test_interleaved_samplers_give_a_lone_samplers_bits(self):
        """Two samplers made one after the other and filled in turn each draw their own
        streams, however the older one is used after the newer one is made."""
        want = [_lone_draws([1, 2]), _lone_draws([3, 4])]
        older = _Streams([1, 2])
        older.start(0, 2)
        newer = _Streams([3, 4])
        newer.start(0, 2)
        got = [[], []]
        for _ in range(2):
            for out, streams in zip(got, (older, newer)):
                out.append(streams.fill(np.empty((2, 3))))
        for drawn, lone in zip(got, want):
            np.testing.assert_array_equal(np.hstack(drawn), lone)

    def test_fill_draws_only_started_streams(self):
        """A fill before any start, or past the started streams, raises instead of drawing."""
        streams = _Streams([1, 2, 3])
        with pytest.raises(ValueError):
            streams.fill(np.empty((1, 3)))
        streams.start(0, 2)
        for rows, first in ((3, 0), (2, 1)):
            with pytest.raises(ValueError):
                streams.fill(np.empty((rows, 3)), first)
        streams.fill(np.empty((1, 3)), 1)

    def test_sampler_filled_on_another_thread_gives_its_bits(self):
        want = _lone_draws([1, 2], tiles=1)
        streams = _Streams([1, 2])
        streams.start(0, 2)
        got = _on_another_thread(lambda: streams.fill(np.empty((2, 3))))
        np.testing.assert_array_equal(got, want)


class TestZeroVarianceBlock:
    @pytest.mark.parametrize("drift", [ZeroDrift(), ConstantDrift(0.3)], ids=["zero", "const"])
    def test_no_draws_and_exact_zero_increments(self, monkeypatch, drift):
        n, refinement = 40, 2
        noise = NoiseModel(1.0)
        seeds = [derive_seed(5, rep, 1) for rep in range(4)]
        drawn = _count_fills(monkeypatch)
        dx, spot, truths, v = _tiled(
            ConstantVol(0.0), drift, noise, n, refinement, seeds, seeds, group=4
        )
        assert drawn == [(4, n + 1)]  # the noise tile alone
        step = (drift.level if isinstance(drift, ConstantDrift) else 0.0) * (1.0 / n)
        assert dx.tobytes() == np.full((4, n), step).tobytes()
        assert spot is None and truths.tolist() == [0.0] * 4  # no spot variance is formed
        for row, seed in zip(v, seeds):
            assert row.tobytes() == np.diff(_philox_normals(seed, n + 1)).tobytes()

    def test_positive_variance_still_draws(self, monkeypatch):
        """A tiny spot variance draws the path; noise of variance 0 draws nothing, and
        ``dV @ B`` keeps the +0.0 it starts from."""
        drawn = _count_fills(monkeypatch)
        (coef,), _ = _coefficients(ConstantVol(1e-300), ZeroDrift(), NoiseModel(0.0), (8,), 1,
                                   [1, 2], [3, 4], (8,), _identity_rows)
        assert coef[0].any() and drawn == [(2, 8)]
        assert coef[1].tobytes() == np.zeros_like(coef[1]).tobytes()


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


def _traced_peak(call):
    """The traced peak of a warm call (a process's first also loads numpy.random), and its
    result."""
    call()
    tracemalloc.start()
    try:
        result = call()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


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
            lambda: simulate_latent_correlated(np.eye(2), _FOUR, rng_seed=-1),
            lambda: simulate_latent_correlated(np.eye(2) * (1 + 1j), _FOUR, rng_seed=1),
            lambda: derive_seed(-1, 0, 0),
            lambda: derive_seed(1.5, 0, 0),
            lambda: derive_seed(0, -1, 0),
            lambda: derive_seed(0, 0, 1.5),
            lambda: simulate_latent(_VOLS["ou"], ZeroDrift(), _FOUR, 10**20, 1),
        ],
        ids=["refinement_non_integer", "refinement_nan", "seed_non_integer", "seed_negative",
             "silent_seed_non_integer", "ou_seed_negative", "observe_seed_non_integer",
             "observe_seed_negative", "correlated_seed",
             "correlated_complex_loadings", "derive_base_negative", "derive_base_non_integer",
             "derive_replication_negative", "derive_stream_non_integer", "ou_refinement_huge"],
    )
    def test_refused(self, call):
        with pytest.raises(InvalidParameter):
            call()

    def test_grid_bound_is_the_module_constant(self, monkeypatch):
        """A grid whose arrays would pass market.MAX_BUFFER_BYTES is refused before any draw."""
        drawn = _count_normals(monkeypatch)
        monkeypatch.setattr(market, "MAX_BUFFER_BYTES", 8 * 8 * 41)  # 8 floats at 41 points
        simulate_latent(_VOLS["ou"], ZeroDrift(), _FOUR, 10, 1)
        simulate_latent(ConstantVol(1.0), ZeroDrift(), EquidistantScheme(40), 10**20, 1)
        simulate_latent_correlated(np.eye(2), _FOUR, rng_seed=1)  # 11 floats at 5 points
        drawn.clear()
        for call in (lambda: simulate_latent(_VOLS["ou"], ZeroDrift(), _FOUR, 11, 1),
                     lambda: simulate_latent(ConstantVol(1.0), ZeroDrift(), EquidistantScheme(41),
                                             1, 1),
                     lambda: simulate_latent_correlated(np.eye(2), EquidistantScheme(30),
                                                        rng_seed=1)):
            with pytest.raises(InvalidParameter, match="MAX_BUFFER_BYTES"):
                call()
        assert drawn == []

    @pytest.mark.parametrize("vol", [ConstantVol(1.3), _STEPS, _VOLS["ou"]],
                             ids=["constant", "piecewise", "ou"])
    def test_simulate_latent_peak_is_within_its_charge(self, vol):
        """At n = 4096 the traced peak stays within the 8 floats per fine point that
        _fine_points charges (refinement 10 refines only the OU grid)."""
        peak, path = _traced_peak(
            lambda: simulate_latent(vol, ConstantDrift(0.2), EquidistantScheme(4096), 10, 3))
        assert peak <= 8 * 8 * len(path.fine_times), peak / (8 * len(path.fine_times))

    def test_correlated_peak_is_within_its_charge(self):
        """3J + 2d + 1 floats per point at J = 3, d = 1."""
        peak, _ = _traced_peak(lambda: simulate_latent_correlated(
            np.array([[1.0], [0.5], [0.2]]), EquidistantScheme(4096), rng_seed=3))
        assert peak <= 8 * (3 * 3 + 2 * 1 + 1) * 4097, peak / (8 * 4097)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_refused_without_a_warning(self):
        with pytest.raises(ResultOverflow, match="path"):
            simulate_latent(OrnsteinUhlenbeckVol(1e200, 1.0, 1.0, 1e200), ZeroDrift(), _FOUR, 1, 1)
        with pytest.raises(ResultOverflow, match="covariance"):
            simulate_latent_correlated(np.eye(2) * 1e200, _FOUR, rng_seed=1)


class TestCorrelatedPaths:
    def test_cov_matrix_and_shapes(self):
        """Each observed step is drawn by its exact law, d normals each: the paths lie on
        the observation grid."""
        loadings, n, seed = np.array([[1.0, 0.0], [0.5, 0.5]]), 16, 0
        dx = (_philox_normals(seed, 2 * n) * np.sqrt(1.0 / n)).reshape(n, 2) @ loadings.T
        paths, cov = simulate_latent_correlated(loadings, EquidistantScheme(n), rng_seed=seed)
        assert len(paths) == 2
        np.testing.assert_allclose(cov, loadings @ loadings.T)
        assert paths[0].true_integrated_vol == pytest.approx(1.0)
        for j, path in enumerate(paths):
            assert path.values.tobytes() == np.concatenate(([0.0], np.cumsum(dx[:, j]))).tobytes()
            assert path.fine_times.tobytes() == EquidistantScheme(n).times().tobytes()
            assert path.spot_variance.tobytes() == np.full(n + 1, cov[j, j]).tobytes()

    def test_perfectly_correlated_assets_coincide(self):
        loadings = np.array([[1.0], [1.0]])
        paths, _ = simulate_latent_correlated(loadings, EquidistantScheme(16), rng_seed=4)
        np.testing.assert_allclose(paths[0].values, paths[1].values)

    def test_seed_is_keyword_only(self):
        """A call that still passes a refinement before the seed fails instead of reading the
        refinement as the seed."""
        with pytest.raises(TypeError):
            simulate_latent_correlated(np.eye(2), EquidistantScheme(4), 2, 4)
        with pytest.raises(InvalidParameter):
            simulate_latent(ConstantVol(1.0), ZeroDrift(), EquidistantScheme(4), refinement=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_loadings_rejected(self, bad):
        with pytest.raises(InvalidParameter):
            simulate_latent_correlated([[bad, 1.0]], EquidistantScheme(4))


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

    def test_blank_rows_are_skipped(self):
        """An empty line, a line of spaces and a row of empty cells carry no data."""
        for header, width in (("time,value", 2), ("time,value,latent,noise", 4)):
            text = f"{header}\n0.0,1.0{',0' * (width - 2)}\n\n   \n,,\n{',' * width}\n"
            text += f"1.0,1.5{',0' * (width - 2)}\n"
            back = read_observations_csv(io.StringIO(text))
            np.testing.assert_array_equal(back.values, [1.0, 1.5])

    @pytest.mark.parametrize(
        "text,line,says",
        [
            ("time,value\n0.0,1.0\n\n0.5,2.0\n0.4,3.0\n", 5, "strictly increasing"),
            ("time,value\n0.0,1.0\n0.5,2.0\n0.5,3.0\n", 4, "strictly increasing"),
            ("time,value\n0.0,1.0\nnan,2.0\n", 3, "finite"),
            ("time,value\n0.0,1.0\n\n0.5,inf\n", 4, "finite"),
            ("time,value,latent,noise\n0.0,1.0,1.0,0.0\n0.5,2.0,-inf,0.0\n", 3, "finite"),
            ("time,value,latent,noise\n0.0,1.0,1.0,0.0\n\n0.5,2.0,2.0,nan\n", 4, "finite"),
            ("time,value\n0.0,1.0\n\n1.5,nan\n", 4, "finite"),
            ("time,value\n0.5,1.0\n0.2,nan\n", 3, "finite"),
            ("time,value\n0.5,1.0\n0.2,2.0\n1.5,nan\n", 3, "strictly increasing"),
            ("time,value\n0.0,1.0\n0.5," + "1" * 140000 + "\n", 3, "field limit"),
            ("time,value\n0.0,1.0\n0.5,0." + "1" * 140000 + "\n", 3, "field limit"),
            ("time,value," + "x" * 140000 + "\n0.0,1.0\n", 1, "field limit"),
        ],
        ids=["unordered_after_blank", "tie", "nan_time", "inf_value_after_blank",
             "inf_latent", "nan_noise_after_blank", "nan_value_outside", "nan_value_unordered",
             "first_of_two_faults", "oversized_cell", "oversized_finite_cell",
             "oversized_header_cell"],
    )
    def test_refusals_name_the_file_line(self, text, line, says):
        with pytest.raises(InvalidParameter, match=rf"^line {line}: .*{says}") as err:
            read_observations_csv(io.StringIO(text))
        assert "rescale" not in str(err.value)

    def test_bad_header_rejected(self):
        with pytest.raises(InvalidParameter):
            read_observations_csv(io.StringIO("a,b\n1,2\n"))

    def test_written_series_is_parsed_in_one_call(self):
        """What write_observations_csv writes is a plain body, and gives the per-line bits."""
        scheme = EquidistantScheme(64)
        obs = observe(simulate_latent(ConstantVol(1.0), ZeroDrift(), scheme, 1, 2),
                      NoiseModel(1e-3), scheme, 3)
        buf = io.StringIO()
        write_observations_csv(obs, buf)
        table = market._plain_table(buf.getvalue())
        assert table is not None and table.shape == (65, 4)
        back = market._read_rows(buf.getvalue())
        for j, column in enumerate((back.times, back.values, back.latent, back.noise)):
            assert table[:, j].tobytes() == column.tobytes()

    @pytest.mark.filterwarnings("error")
    def test_header_only_body_reads_empty(self):
        """No rows and no warning (np.loadtxt, for one, warns on an empty body)."""
        for text in ("time,value\n", "time,value,latent,noise\n"):
            back = read_observations_csv(io.StringIO(text))
            assert back.times.shape == back.noise.shape == (0,)
