"""Latent price-path simulation, noisy observation, and ground-truth volatility.

The latent log-price follows an Ito process on [0, 1]: each observed
increment is drawn by its exact law under constant or piecewise-constant
volatility, and by Euler-Maruyama on a fine grid (``refinement`` steps per
observation interval) under OU volatility.  Observations are ``Y_k =
X_{t_k} + v_k`` on the equidistant grid ``t_k = k/n`` with i.i.d. Gaussian
noise whose presence at the first and last points is individually
switchable; the generated series keeps its latent/noise decomposition so
tests can use it as an oracle.

Randomness is counter-based (Philox) and fully keyed: every path or noise
stream is a pure function of its integer seed, and :func:`derive_seed`
produces independent sub-seeds from ``(base_seed, replication, stream)`` so
Monte Carlo replications can run in any order or in parallel.  Each job has
one seeding path.  :func:`derive_seed` is numpy's SeedSequence hash, and
:func:`simulate_latent`, :func:`observe` and the correlated paths draw from
numpy's own ``Generator(Philox(SeedSequence(seed)))``.  The Monte Carlo
engine is one call, ``_coefficients``; it evaluates the same hash on arrays,
for all replications (``_derive_seeds``) and all Philox keys (``_Streams``)
in one pass each, and re-keys Philox generators of its own, a spare list
that outlives runs, for each group of streams, so stream j has the bits of
``Philox(SeedSequence(seeds[j]))`` without either object being built per
stream or per run.  It draws its series, path and noise, in tiles of
``_TILE_WIDTH`` observed increments, each drawn once for series of several
lengths (each reading a prefix) and continuing its streams, so a
tile-by-tile draw has the bits of one long draw, and returns their basis
coefficients; its caller gives only the basis rows.  ``_engine_bytes``
counts its buffers before a run.  The single-series samplers are its
independent reference: they share with it only the formulas of a step.
Paths whose spot variance is zero everywhere draw no latent shocks, and
noise of variance zero draws no noise.
"""

from __future__ import annotations

import csv
import io
import math
import operator
import weakref
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import (DimensionMismatch, GridMismatch, InvalidParameter, ResultOverflow, TooShort,
                     _index, _real_array)

__all__ = [
    "ConstantVol",
    "PiecewiseVol",
    "OrnsteinUhlenbeckVol",
    "VolModel",
    "ZeroDrift",
    "ConstantDrift",
    "DriftModel",
    "NoiseModel",
    "EquidistantScheme",
    "LatentPath",
    "ObservationSeries",
    "derive_seed",
    "simulate_latent",
    "simulate_latent_correlated",
    "observe",
    "increments",
    "write_observations_csv",
    "read_observations_csv",
    "MAX_BUFFER_BYTES",
]

PATH_STREAM = 0
NOISE_STREAM = 1

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def _nonnegative(x: float) -> bool:
    """Whether x is a finite number >= 0 (NaN is not)."""
    return math.isfinite(x) and x >= 0


@dataclass(frozen=True)
class ConstantVol:
    """Constant spot variance ``level`` per unit time."""

    level: float

    def __post_init__(self):
        if not _nonnegative(self.level):
            raise InvalidParameter(f"variance level must be finite and >= 0, got {self.level}")


@dataclass(frozen=True)
class PiecewiseVol:
    """Deterministic step-function spot variance.

    ``levels[i]`` applies on [breakpoints[i-1], breakpoints[i]) with the
    implicit end points 0 and 1, so ``len(levels) == len(breakpoints) + 1``.
    """

    breakpoints: tuple[float, ...]
    levels: tuple[float, ...]

    def __post_init__(self):
        bps = tuple(self.breakpoints)
        lvs = tuple(self.levels)
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "levels", lvs)
        if len(lvs) != len(bps) + 1:
            raise InvalidParameter("need len(levels) == len(breakpoints) + 1")
        if not all(_nonnegative(lv) for lv in lvs):
            raise InvalidParameter("variance levels must be finite and >= 0")
        edges = (0.0,) + bps + (1.0,)
        if not all(b > a for a, b in zip(edges, edges[1:])):
            raise InvalidParameter("breakpoints must be strictly increasing inside (0, 1)")


@dataclass(frozen=True)
class OrnsteinUhlenbeckVol:
    """Spot variance is the square of an OU state driven by its own Brownian motion."""

    mean_level: float
    reversion_rate: float
    vol_of_vol: float
    initial_level: float

    def __post_init__(self):
        if not (_nonnegative(self.reversion_rate) and _nonnegative(self.vol_of_vol)):
            raise InvalidParameter("reversion_rate and vol_of_vol must be finite and >= 0")
        if not (math.isfinite(self.mean_level) and math.isfinite(self.initial_level)):
            raise InvalidParameter("mean_level and initial_level must be finite")


VolModel = Union[ConstantVol, PiecewiseVol, OrnsteinUhlenbeckVol]


@dataclass(frozen=True)
class ZeroDrift:
    pass


@dataclass(frozen=True)
class ConstantDrift:
    level: float

    def __post_init__(self):
        if not math.isfinite(self.level):
            raise InvalidParameter(f"drift level must be finite, got {self.level}")


DriftModel = Union[ZeroDrift, ConstantDrift]


@dataclass(frozen=True)
class NoiseModel:
    """Additive i.i.d. Gaussian observation noise of the given variance.

    ``include_initial``/``include_terminal`` control whether the first/last
    observation carries noise (``False`` forces that component to zero).
    """

    variance: float
    include_initial: bool = True
    include_terminal: bool = True

    def __post_init__(self):
        if not _nonnegative(self.variance):
            raise InvalidParameter(f"noise variance must be finite and >= 0, got {self.variance}")


@dataclass(frozen=True)
class EquidistantScheme:
    """Observation times t_k = k/n, k = 0..n."""

    n: int

    def __post_init__(self):
        _index(self.n, "n", 1)

    def times(self) -> np.ndarray:
        return np.arange(self.n + 1) / self.n


@dataclass(frozen=True)
class LatentPath:
    """A realization of the latent process on its grid, with its exact target value."""

    fine_times: np.ndarray
    values: np.ndarray
    spot_variance: np.ndarray
    true_integrated_vol: float


@dataclass(frozen=True)
class ObservationSeries:
    """Noisy observations with the retained latent/noise decomposition."""

    times: np.ndarray
    values: np.ndarray
    latent: np.ndarray
    noise: np.ndarray


# numpy's SeedSequence constants (bit_generator.pyx): pool of 4 words, the
# hashmix multipliers of the entropy and output hashes, the mix multipliers.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF

# Tiles of the Monte Carlo engine: up to _TILE_ROWS paths by _TILE_WIDTH observed
# increments, which fit in cache with the basis rows they meet.  Fixed, so
# that a path's values do not depend on how many paths are drawn with it.
_TILE_ROWS, _TILE_WIDTH = 128, 1024

# Series whose streams stay keyed while they walk the tiles, so that each
# tile of basis rows, built once, serves all of them.  A multiple of
# _TILE_ROWS; it bounds the per-series state held at once and the generators
# each _Streams' spare list grows to.
_LIVE_ROWS = 8 * _TILE_ROWS

#: Bytes a sampler's or Monte Carlo run's buffers may take, the one memory budget:
#: the single-series samplers refuse a finer grid, and check_experiment a larger run.
MAX_BUFFER_BYTES = 2**30


def _fine_points(n: int, refinement: int, floats_per_point: int) -> int:
    """The n * refinement points of a fine grid whose arrays hold ``floats_per_point``
    floats per point, once they fit :data:`MAX_BUFFER_BYTES`; nothing is allocated."""
    points = n * refinement
    if 8 * floats_per_point * (points + 1) > MAX_BUFFER_BYTES:
        raise InvalidParameter(f"a grid of {n} x {refinement} steps needs more than the "
                               f"{MAX_BUFFER_BYTES >> 20} MiB of market.MAX_BUFFER_BYTES")
    return points


def _words(x) -> list[int]:
    """Little-endian uint32 words of a non-negative int: max(1, ceil(bits / 32)) of them."""
    x = operator.index(x)
    if x < 0:
        raise InvalidParameter("seeds must be non-negative integers")
    return [x >> shift & _MASK32 for shift in range(0, max(1, x.bit_length()), 32)]


def _hash_entropy(entropy: list, n_words: int) -> list:
    """``SeedSequence(entropy).generate_state(n_words)``, word by word.

    Each entropy word is a Python int, or a uint32 array holding that word
    of many sequences; every operation below wraps to 32 bits on both.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        result = (_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32) & _MASK32
        return result ^ result >> 16

    k = len(entropy)
    pool = [hashmix(entropy[i] if i < k else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, k):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[src]))
    out = []
    hash_const = _INIT_B
    for i in range(n_words):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        out.append(value ^ value >> 16)
    return out


def _seed_words(words: list, n_words: int, spawn: int | None = None) -> np.ndarray:
    """``SeedSequence(entropy, spawn_key=(spawn,)).generate_state(n_words)``, a row each.

    A row's entropy is ``words`` in order, each a Python int that every row
    shares or a uint32 array holding that word of each row (at least one is).
    """
    if spawn is not None:  # the spawn key follows the entropy zero-padded to the pool size
        words = words + [0] * (_POOL_SIZE - len(words)) + _words(spawn)
    return np.column_stack(_hash_entropy(words, n_words))


def _uint64(words: np.ndarray) -> np.ndarray:
    """Pairs of little-endian uint32 words as uint64, row by row."""
    return np.ascontiguousarray(words, dtype="<u4").view("<u8")


def _derive_seeds(base_seed: int, replications, stream: int) -> np.ndarray:
    """:func:`derive_seed` of each replication, as a uint64 array, from one hash call.

    Each replication is one entropy word, so all must lie below 2**32
    (:class:`InvalidParameter` otherwise), as ExperimentConfig's do.
    """
    reps = np.asarray(replications)
    if np.any(reps < 0) or np.any(reps > _MASK32):
        raise InvalidParameter("replications must be integers in [0, 2**32)")
    words = _words(base_seed) + [reps.astype(np.uint32)] + _words(stream)
    return _uint64(_seed_words(words, 2))[:, 0]


def derive_seed(base_seed: int, replication: int, stream: int) -> int:
    """Deterministic 64-bit sub-seed keyed by (base_seed, replication, stream).

    Equals ``SeedSequence((base_seed, replication, stream)).generate_state(1, uint64)``.
    For one base seed, distinct (replication, stream) pairs below 2**32 hash
    distinct entropy words, so their seeds are as independent as SeedSequence
    makes them.  Beyond 2**32 that fails: entropy shorter than four words
    hashes like its zero-padded form, so ``derive_seed(b, 2**32, 0) ==
    derive_seed(b, 0, 1)`` for b < 2**32.  Raises :class:`InvalidParameter`
    for an argument that is not an integer >= 0.
    """
    entropy = (_index(base_seed, "base_seed", 0), _index(replication, "replication", 0),
               _index(stream, "stream", 0))
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


_EMPTY_BLOCK = (0, 0, 0, 0)

# Spare lists of Philox generators, one from each collected _Streams.  A list
# has one owner at a time, so no two live samplers share a generator.
_SPARES: list[list] = []


class _Streams:
    """The Philox streams of the Monte Carlo engine's seeds, drawn through generators of its own.

    Stream j is that of ``Philox(SeedSequence(seeds[j], spawn_key=(spawn,)))``:
    its key is the seed sequence's first two uint64 words and its counter and
    buffer start empty.  The keys of all seeds come from one hash call over
    each seed's two 32-bit words.  numpy hashes a seed below 2**32 as one
    word, but SeedSequence zero-pads entropy shorter than its 4-word pool,
    and pads it before it appends the spawn key, so a zero high word changes
    no key.  The generators are a spare list taken from :data:`_SPARES` (a
    new one if none is spare) and put back there once this sampler is
    collected.  :meth:`start` grows that list as needed and re-keys one of
    its generators to each stream of seeds[lo:hi], and each :meth:`fill`
    continues some of them, so a row filled tile by tile gets the bits of
    one long draw, and refuses rows not started.
    """

    def __init__(self, seeds, spawn: int | None = None):
        if np.any(np.asarray(seeds) < 0):
            raise InvalidParameter("seeds must be non-negative integers")
        v = np.asarray(seeds, dtype=np.uint64)
        words = [(v & _MASK32).astype(np.uint32), (v >> 32).astype(np.uint32)]
        self.keys = _uint64(_seed_words(words, 4, spawn))
        try:
            self.owned = _SPARES.pop()
        except IndexError:
            self.owned = []
        weakref.finalize(self, _SPARES.append, self.owned)
        self.pool = []

    def start(self, lo: int, hi: int) -> None:
        rows, owned = hi - lo, self.owned
        if len(owned) < rows:
            # the loop below replaces every key; a fixed placeholder seed reads no OS entropy
            placeholder = np.random.SeedSequence(0)
            owned.extend(np.random.Generator(np.random.Philox(placeholder))
                         for _ in range(rows - len(owned)))
        self.pool = owned[:rows]
        # The setter reads the dict, so one dict serves every generator; it
        # reads Python ints faster than numpy scalars.
        keyed = {"counter": _EMPTY_BLOCK, "key": None}
        state = {"bit_generator": "Philox", "state": keyed, "buffer": _EMPTY_BLOCK,
                 "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        for gen, key in zip(self.pool, self.keys[lo:hi].tolist()):
            keyed["key"] = key
            gen.bit_generator.state = state

    def fill(self, out: np.ndarray, first: int = 0) -> np.ndarray:
        """Standard normals into each row of ``out``, row j from started stream first + j."""
        for row, gen in zip(out, self.pool[first : first + len(out)], strict=True):
            gen.standard_normal(out=row)
        return out


def _normals(seed: int, size: int, spawn: int | None = None) -> np.ndarray:
    """The first ``size`` normals of ``Philox(SeedSequence(seed, spawn_key=(spawn,)))``."""
    key = () if spawn is None else (spawn,)
    bits = np.random.Philox(np.random.SeedSequence(seed, spawn_key=key))
    return np.random.Generator(bits).standard_normal(size)


def _as_piecewise(vol: VolModel) -> PiecewiseVol | None:
    """A deterministic volatility model as a PiecewiseVol (a constant is one level); None for OU."""
    if isinstance(vol, ConstantVol):
        return PiecewiseVol((), (vol.level,))
    return vol if isinstance(vol, PiecewiseVol) else None


def _levels_at(steps: PiecewiseVol, times: np.ndarray) -> np.ndarray:
    """The spot variance of step volatility at each of ``times``: the level in force there."""
    return np.array(steps.levels, dtype=float)[np.searchsorted(steps.breakpoints, times, "right")]


def _step_scales(steps: PiecewiseVol, n: int, lo: int, hi: int) -> np.ndarray:
    """The standard deviation of observed steps lo..hi-1 of n under step volatility: the root
    of ``level * (1.0 / n)``, or of the levels' shares of a step that breakpoints fall inside."""
    times = np.arange(lo, hi + 1) / n
    var = _levels_at(steps, times[:-1]) * (1.0 / n)
    edges = (0.0, *steps.breakpoints, 1.0)
    first = np.searchsorted(times, steps.breakpoints)  # the first point at or past each
    for k in {int(p) - 1 for p, b in zip(first, steps.breakpoints)
              if 0 < p < len(times) and times[p] != b}:
        start, end = times[k], times[k + 1]
        var[k] = sum(level * (min(b, end) - max(a, start))
                     for a, b, level in zip(edges, edges[1:], steps.levels)
                     if a < end and b > start)
    return np.sqrt(var, out=var)


def _tiles(n: int) -> list[tuple[int, int]]:
    """(start, stop) of each tile of n observed increments."""
    return [(k, min(k + _TILE_WIDTH, n)) for k in range(0, n, _TILE_WIDTH)]


def _step_truth(steps: PiecewiseVol) -> float:
    """The integrated variance of step volatility over [0, 1]."""
    edges = np.array((0.0,) + steps.breakpoints + (1.0,))
    return float(np.sum(np.array(steps.levels, dtype=float) * np.diff(edges)))


def _euler_ou(vol: OrnsteinUhlenbeckVol, state: np.ndarray, shocks: np.ndarray,
              dt: float) -> np.ndarray:
    """The spot variance, the squared OU state, at the w + 1 points of w Euler-Maruyama steps
    of size dt from ``state``, driven by the rows x w normals ``shocks``: one row per path,
    as its readers take it.  Leaves each path's last state in ``state``."""
    path = np.empty((len(state), shocks.shape[1] + 1))
    path[:, 0] = state
    np.multiply(shocks, np.sqrt(dt), out=path[:, 1:])
    path[:, 1:] *= vol.vol_of_vol
    for k in range(shocks.shape[1]):  # kick + (x + drift) has the bits of x + drift + kick
        path[:, k + 1] += path[:, k] + vol.reversion_rate * (vol.mean_level - path[:, k]) * dt
    state[...] = path[:, -1]
    return np.square(path, out=path)


def _coefficients(vol: VolModel, drift: DriftModel, noise: NoiseModel, ns, refinement: int,
                  path_seeds, noise_seeds, columns, rows) -> tuple[list[np.ndarray], np.ndarray]:
    """The Monte Carlo engine: basis coefficients of noisy series on several grids, and truths.

    Grid i has ``ns[i]`` observed steps and ``columns[i]`` basis columns B,
    whose rows for steps lo..lo+w-1 ``rows(i, lo, out)`` writes into ``out``
    (w x columns[i]).  Series j follows the path stream of ``path_seeds[j]``
    and the noise stream of ``noise_seeds[j]``, each grid reading a prefix.
    Returns each grid's (2, series, columns[i]) array, ``dX @ B`` then ``dV @
    B``, and the (grids, series) integrated variances.

    Under deterministic volatility step k is normal k of the path stream
    times the step's standard deviation (:func:`_step_scales`); under OU it
    is ``refinement`` Euler-Maruyama steps driven by normals of the stream of
    spawn key 0, the state (:func:`_euler_ou`) by spawn key 1.  The noise at
    time k is normal k of the noise stream times the noise scale, whatever
    the length n.  Paths whose spot variance is zero everywhere draw no
    shocks, and noise of variance zero draws none: ``dV @ B`` stays +0.0.

    Series run in live blocks of _LIVE_ROWS, whose streams stay keyed while
    the block walks the tiles of the largest grid.  For each tile, every grid
    that reaches it has its rows built once, straight into its latent
    weights; its noise weights (summation by parts) and drift offset are
    taken from them before they are scaled in place by the tile's step
    standard deviations.  Then each group of up to _TILE_ROWS series draws
    the tile's path normals into the one draw buffer, every such grid adds
    their products with its weights to ``dX @ B``, and the group draws its
    noise normals into the same buffer for ``dV @ B``.  OU state, truths and
    each series' noise carry (its normal at the last drawn time) carry over
    from tile to tile.
    """
    steps = _as_piecewise(vol)
    ou = steps is None
    r = refinement if ou else 1
    dts = [1.0 / (n * r) for n in ns]
    drift_level = drift.level if isinstance(drift, ConstantDrift) else 0.0
    noise_scale = np.sqrt(noise.variance)
    silent = not ou and not any(steps.levels)
    shocks = None if silent else _Streams(path_seeds, 0 if ou else None)
    vol_shocks = _Streams(path_seeds, 1) if ou else None
    noise_shocks = _Streams(noise_seeds) if noise.variance else None
    series = np.size(path_seeds)
    # the path normals, then the OU state shocks, of a tile of the largest grid; the
    # first is wide enough for the tile's noise normals, drawn once the path's are used
    width = min(max(ns), _TILE_WIDTH)
    raw = np.empty((1 + ou, min(_TILE_ROWS, series), max(width * r, width + 1)))
    latent = [np.empty((min(n, _TILE_WIDTH), k)) for n, k in zip(ns, columns)]
    noisy = [np.empty((min(n, _TILE_WIDTH) + 1, k)) for n, k in zip(ns, columns)]
    coefs = [np.zeros((2, series, k)) for k in columns]
    truths = np.empty((len(ns), series))
    for block in range(0, series, _LIVE_ROWS):
        stop = min(block + _LIVE_ROWS, series)
        for streams in (shocks, vol_shocks, noise_shocks):
            if streams is not None:
                streams.start(block, stop)
        if ou:
            state = np.full((len(ns), stop - block), float(vol.initial_level))
        truth = truths[:, block:stop]
        truth[...] = 0.0 if ou else _step_truth(steps)
        carry = np.empty(stop - block)
        for lo, hi in _tiles(max(ns)):
            reached = []  # (grid, width, latent and noise weights, coefficients) of each grid
            for i, n in enumerate(ns):
                if n <= lo:
                    continue
                w = min(hi, n) - lo
                lat, noi, coef = latent[i][:w], noisy[i][: w + 1], coefs[i][:, block:stop]
                rows(i, lo, lat)
                # sum_j (v_{j+1} - v_j) c_j = sum_t v_t (c_{t-1} - c_t), c_{-1} = c_w = 0
                noi[0] = 0.0
                noi[1:] = lat
                noi[:w] -= lat
                noi *= noise_scale
                if lo == 0 and not noise.include_initial:
                    noi[0] = 0.0
                if lo + w == n and not noise.include_terminal:
                    noi[w] = 0.0
                if drift_level:  # the same row for every series
                    coef[0] += drift_level * r * dts[i] * lat.sum(axis=0)
                if shocks is not None and not ou:  # OU scales each path's normals instead
                    lat *= _step_scales(steps, n, lo, lo + w)[:, np.newaxis]
                reached.append((i, w, lat, noi, coef))
            for first in range(0, stop - block, _TILE_ROWS):
                group = slice(first, min(first + _TILE_ROWS, stop - block))
                g = group.stop - first
                if shocks is not None:
                    shocks.fill(raw[0, :g, : (hi - lo) * r], first)
                    if ou:
                        vol_shocks.fill(raw[1, :g, : (hi - lo) * r], first)
                    for i, w, lat, _, coef in reached:
                        dx = raw[0, :g, : w * r]
                        if ou:  # an observed step sums r fine normals times their path's scale
                            spot = _euler_ou(vol, state[i, group], raw[1, :g, : w * r], dts[i])
                            truth[i, group] += _trapezoid(spot, dx=dts[i], axis=1)
                            scaled = spot[:, :-1] * dts[i]  # the one temporary: scales, then dx
                            np.multiply(dx, np.sqrt(scaled, out=scaled), out=scaled)
                            dx = scaled.reshape(g, w, r) @ np.ones(r)  # faster than sum(axis=2)
                            del spot, scaled  # the next grid steps with neither alive
                        coef[0, group] += dx @ lat
                if noise_shocks is None:
                    continue
                # the noise normals at times lo..hi, over the path normals; lo's is the carry
                v = values = raw[0, :g, : hi - lo + 1]
                if lo:
                    v[:, 0] = carry[group]
                    v = v[:, 1:]
                noise_shocks.fill(v, first)
                carry[group] = v[:, -1]
                for _, w, _, noi, coef in reached:
                    coef[1, group] += values[:, : w + 1] @ noi
    return coefs, truths


def _engine_bytes(vol: VolModel, ns, refinement: int, replications: int, columns) -> int:
    """Bytes of the buffers :func:`_coefficients` holds for these arguments, none built.

    The draw buffer, whose rows hold a tile's path normals and then its
    noise normals (OU: ``refinement`` normals per observed step and a row of
    state shocks; a group then holds two more arrays of a row's size, the
    path of :func:`_euler_ou` and the trapezoid's sums or the step scales,
    and no grid's while the next steps); per grid, the latent and noise
    weights, two temporaries of their size (a basis build's angle units
    among them), the coefficients and their sum; per replication its truths
    and seeds; and per live replication and stream a generator of about 640
    bytes.  No term grows with n except through ``columns``.  The generators
    are spare lists kept across runs, at most _LIVE_ROWS per stream
    (:class:`_Streams`), counted whether or not this run builds them.
    """
    ou = isinstance(vol, OrnsteinUhlenbeckVol)
    r = refinement if ou else 1
    width = min(max(ns), _TILE_WIDTH)
    reps = replications
    floats = min(_TILE_ROWS, reps) * (1 + 3 * ou) * max(width * r, width + 1)
    floats += reps * (len(ns) + 8) + min(_LIVE_ROWS, reps) * 80 * (2 + ou)
    for n, k in zip(ns, columns):
        floats += (4 * min(n, _TILE_WIDTH) + 1 + 3 * reps) * k
    return 8 * floats


@np.errstate(over="ignore", invalid="ignore")  # a path that overflows is refused
def simulate_latent(
    vol: VolModel,
    drift: DriftModel,
    scheme: EquidistantScheme,
    refinement: int = 10,
    rng_seed: int = 0,
) -> LatentPath:
    """A latent path and its integrated variance, deterministic given ``rng_seed``.

    Deterministic volatility draws each observed step by its exact law, as
    the Monte Carlo engine does: the path lies on the observation grid, and
    ``refinement`` is only checked.  OU volatility is Euler-Maruyama on the
    grid refined ``refinement`` times, its truth summed per tile of
    _TILE_WIDTH observed steps as the engine sums it.  Raises
    :class:`InvalidParameter` for a refinement < 1 or seed < 0 or either not
    an integer, or a path grid whose arrays would exceed
    :data:`MAX_BUFFER_BYTES`, and :class:`ResultOverflow` for a path or
    truth that overflows float64.
    """
    refinement = _index(refinement, "refinement", 1)
    seed = _index(rng_seed, "rng_seed", 0)
    n, steps = scheme.n, _as_piecewise(vol)
    # the increments, spot (the OU path, squared in place), sums, values, times and draws: a
    # traced peak of 6.09 floats per point at n = 4096, 5.21 under OU at refinement 10
    n_fine = _fine_points(n, refinement if steps is None else 1, 8)
    dt = 1.0 / n_fine
    if steps is None:
        spot = _euler_ou(vol, np.array([float(vol.initial_level)]),
                         _normals(seed, n_fine, 1)[np.newaxis], dt)
        truth = 0.0  # summed per tile, as the engine sums it
        for lo, hi in _tiles(n):
            truth += _trapezoid(spot[:, lo * refinement : hi * refinement + 1], dx=dt, axis=1)[0]
        spot = spot[0]
        dx = _normals(seed, n_fine, 0) * np.sqrt(spot[:-1] * dt)
    else:
        truth, spot = _step_truth(steps), _levels_at(steps, np.arange(n + 1) / n)
        dx = _normals(seed, n) * _step_scales(steps, n, 0, n) if any(steps.levels) else np.zeros(n)
    if isinstance(drift, ConstantDrift) and drift.level:
        dx += drift.level * dt
    values, truth = np.concatenate(([0.0], np.cumsum(dx))), float(truth)
    if not (math.isfinite(truth) and np.all(np.isfinite(values))):  # an inf spot makes truth inf
        raise ResultOverflow("the path overflows float64 at the model's scale")
    return LatentPath(np.arange(n_fine + 1) / n_fine, values, spot, truth)


@np.errstate(over="ignore", invalid="ignore")  # a covariance that overflows is refused
def simulate_latent_correlated(
    loadings: np.ndarray,
    scheme: EquidistantScheme,
    *,
    rng_seed: int = 0,
) -> tuple[list[LatentPath], np.ndarray]:
    """Simulate J latent paths sharing one d-dimensional Wiener driver.

    ``loadings`` is the constant J x d matrix sigma (a vector is one row);
    the exact integrated covariance matrix is ``loadings @ loadings.T`` and
    is returned alongside the per-asset paths.  Constant loadings make each
    observed step's law exact, so each is drawn by it: the paths lie on the
    observation grid.  Raises :class:`DimensionMismatch` for loadings that
    are not a non-empty J x d matrix, :class:`InvalidParameter` for a loading
    that is not a finite real number and for a seed as :func:`simulate_latent`
    does, and :class:`ResultOverflow` for a covariance that overflows float64.
    """
    sigma = np.atleast_2d(_real_array(loadings, "loadings"))
    if sigma.ndim != 2 or sigma.size == 0:
        raise DimensionMismatch(f"loadings must be a non-empty J x d matrix, got {sigma.shape}")
    if not np.all(np.isfinite(sigma)):
        raise InvalidParameter("loadings must be finite numbers")
    j_count, d = len(sigma), sigma.shape[1]
    # the shocks and their scaled copy, the increments, each path's sums, values and
    # spot, and the times (a traced peak of 11.10 floats per point at J = 3, d = 1)
    n = _fine_points(scheme.n, 1, 3 * j_count + 2 * d + 1)
    times = scheme.times()
    dw = _normals(_index(rng_seed, "rng_seed", 0), n * d) * np.sqrt(1.0 / n)
    dx = dw.reshape(n, -1) @ sigma.T
    cov = sigma @ sigma.T
    if not np.all(np.isfinite(cov)):
        raise ResultOverflow("the covariance overflows float64 at the loadings' scale")
    paths = [LatentPath(times, np.concatenate(([0.0], np.cumsum(dx[:, j]))),
                        np.full(n + 1, cov[j, j]), float(cov[j, j]))
             for j in range(j_count)]
    return paths, cov


def observe(
    path: LatentPath,
    noise: NoiseModel,
    scheme: EquidistantScheme,
    rng_seed: int = 0,
) -> ObservationSeries:
    """Sample the path on the observation grid and add keyed Gaussian noise.

    The noise stream is independent of the path stream by construction
    (separate seeds).  Raises :class:`GridMismatch` if the observation grid
    is not a subset of the path's grid and :class:`InvalidParameter` for a
    seed that is not an integer >= 0.
    """
    n_fine = len(path.fine_times) - 1
    if n_fine % scheme.n != 0:
        raise GridMismatch(
            f"observation grid n={scheme.n} does not divide fine grid n={n_fine}"
        )
    step = n_fine // scheme.n
    latent = path.values[::step].copy()
    v = _normals(_index(rng_seed, "rng_seed", 0), scheme.n + 1) * np.sqrt(noise.variance)
    if not noise.include_initial:
        v[0] = 0.0
    if not noise.include_terminal:
        v[-1] = 0.0
    return ObservationSeries(
        times=scheme.times(),
        values=latent + v,
        latent=latent,
        noise=v,
    )


def increments(obs: ObservationSeries) -> np.ndarray:
    """First differences Delta Y_k = Y_{t_k} - Y_{t_{k-1}}, k = 1..n, all finite.

    Boolean and integer values are differenced as floats; complex ones raise
    :class:`InvalidParameter`.
    """
    values = _real_array(obs.values, "values")
    if len(values) < 2:
        raise TooShort(f"need at least 2 observations, got {len(values)}")
    with np.errstate(over="ignore", invalid="ignore"):
        deltas = np.diff(values)
    if not np.all(np.isfinite(deltas)):
        raise InvalidParameter("increments must be finite; a difference of values overflows")
    return deltas


def write_observations_csv(obs: ObservationSeries, fileobj) -> None:
    """Write ``time,value,latent,noise`` rows (LF line endings)."""
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(["time", "value", "latent", "noise"])
    for t, y, x, v in zip(obs.times, obs.values, obs.latent, obs.noise):
        writer.writerow([repr(float(t)), repr(float(y)), repr(float(x)), repr(float(v))])


# The bytes of a plain body: unsigned or signed decimal cells, commas and LF.
_PLAIN_BYTES = b"0123456789+-.eE,\n"


def read_observations_csv(fileobj) -> ObservationSeries:
    """Read a ``time,value[,latent,noise]`` CSV; missing oracle columns are tolerated.

    Blank rows are skipped.  Raises :class:`InvalidParameter`, naming the
    file line of the first bad row, for a data row with fewer than two cells
    (four when the header names the oracle columns), a cell that is not a
    finite number or longer than the ``csv`` module's field limit, a time
    outside [0, 1], or a time that does not follow the one before it.

    The file is read once.  A plain body, as :func:`write_observations_csv`
    writes it, is parsed in one numpy call; any other body, and any body
    with a bad row, is read row by row, which words every refusal.  Both
    give the same bits.
    """
    text = fileobj.read()
    table = _plain_table(text)
    if table is None or _fault(table) is not None:
        return _read_rows(text)
    return _series(table)


def _header_width(header: list) -> int:
    """The cells a data row needs under ``header``: 4 when it names the oracle columns."""
    if [h.strip().lower() for h in header[:2]] != ["time", "value"]:
        raise InvalidParameter("expected a CSV header starting with 'time,value'")
    return 4 if len(header) >= 4 else 2


def _plain_table(text: str) -> np.ndarray | None:
    """The data rows of a plain CSV text, parsed in one call: a (rows, 2 or 4) array of
    the cells the reader keeps, or None for any other text.

    Plain: an unquoted header line without CR, then LF-ended rows of ASCII
    decimal cells, each row exactly as wide as the header and no line longer
    than the ``csv`` module's field limit.  Each cell is parsed by the same
    correctly rounded conversion as ``float(cell)``, and row k is file line
    k + 2.  Nothing is checked beyond the parse, except that a bad header
    raises what the per-line reader raises for it.
    """
    head, _, body = text.partition("\n")
    limit = csv.field_size_limit()
    if '"' in head or "\r" in head or len(head) > limit or not body.endswith("\n"):
        return None
    names = head.split(",")  # the csv module's cells of such a line
    width = _header_width(names)
    raw = body.encode()
    if raw.translate(None, _PLAIN_BYTES):
        return None
    chars = np.frombuffer(raw, np.uint8)
    ends = np.flatnonzero(chars == ord("\n"))
    commas = np.flatnonzero(chars == ord(","))
    per_row = len(names) - 1  # commas
    if (commas.size != per_row * ends.size
            or np.diff(ends, prepend=-1).max() > limit + 1
            or not np.array_equal(np.searchsorted(commas, ends),
                                  per_row * np.arange(1, ends.size + 1))):
        return None
    try:
        cells = np.fromstring(raw.replace(b"\n", b","), sep=",").reshape(ends.size, len(names))
    except ValueError:  # a cell that is not a number
        return None
    return cells[:, :width]


def _read_rows(text: str) -> ObservationSeries:
    """Read CSV text row by row: the reference reader, which words every refusal."""
    reader = csv.reader(io.StringIO(text, newline=""))
    rows, lines = [], []
    try:
        width = _header_width(next(reader, []))
        for row in reader:
            try:
                if len(row) < width:
                    raise ValueError(f"expected at least {width} cells, got {len(row)}")
                rows.append([float(cell) for cell in row[:width]])
            except ValueError as exc:
                if any(cell.strip() for cell in row):
                    raise InvalidParameter(f"line {reader.line_num}: {exc}") from None
                continue  # a blank row
            lines.append(reader.line_num)
    except csv.Error as exc:
        raise InvalidParameter(f"line {reader.line_num}: {exc}") from None
    table = np.array(rows, dtype=float).reshape(-1, width)
    fault = _fault(table)
    if fault is not None:
        k, why = fault
        raise InvalidParameter(f"line {lines[k]}: {why}")
    return _series(table)


def _fault(table: np.ndarray) -> tuple[int, str] | None:
    """The first row of a (rows, cells) table that is not finite, has a time outside
    [0, 1] or a time not above the one before it, with the reason; None if none."""
    times = table[:, 0]
    finite = np.isfinite(table).all(axis=1)
    inside = (0.0 <= times) & (times <= 1.0)
    with np.errstate(invalid="ignore"):  # inf - inf, in a row already not finite
        rising = np.concatenate(([True], np.diff(times) > 0))
    bad = np.flatnonzero(~(finite & inside & rising))
    if not bad.size:
        return None
    k = int(bad[0])
    if not finite[k]:
        return k, "cells must be finite numbers"
    if not inside[k]:
        return k, (f"time {float(times[k])!r} is outside [0, 1]; rescale times to [0, 1] "
                   "(the Fourier estimator is periodic on [0, 1])")
    return k, (f"times must be strictly increasing; {float(times[k])!r} follows "
               f"{float(times[k - 1])!r}")


def _series(table: np.ndarray) -> ObservationSeries:
    """The series of a checked (rows, 2 or 4) table, each column in a buffer of its own."""
    times, values, *oracle = (column.copy() for column in table.T)
    latent, noise = oracle or (values.copy(), np.zeros_like(values))
    return ObservationSeries(times=times, values=values, latent=latent, noise=noise)
