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
Monte Carlo replications can run in any order or in parallel.  Sub-seeds and
Philox keys are numpy's SeedSequence hash, computed here on Python ints for
one seed or on arrays for many seeds in one pass, and Philox generators
from a per-thread pool that outlives runs are re-keyed for each group of
streams: stream j has the bits of ``Philox(SeedSequence(seeds[j]))`` without
either object being built per stream or per run.  Paths, and the Monte Carlo
engine's noise (``_NoiseTiles``), are drawn in tiles of ``_TILE_WIDTH``
observed increments, each drawn once for paths of several lengths (each
reading a prefix) and continuing its streams, so a tile-by-tile draw has the
bits of one long draw: :func:`observe` and the correlated paths make that in
one fill.  The tile samplers size their buffers from their seeds and grids,
and their per-stream state from each ``start``.  Paths whose spot variance is
zero everywhere draw no latent shocks.
"""

from __future__ import annotations

import csv
import math
import operator
import threading
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import GridMismatch, InvalidParameter, ResultOverflow, TooShort, _index, _real_array

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

# Tiles of the samplers below: up to _TILE_ROWS paths by _TILE_WIDTH observed
# increments, which fit in cache with the basis rows they meet.  Fixed, so
# that a path's values do not depend on how many paths are drawn with it.
_TILE_ROWS, _TILE_WIDTH = 128, 1024


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


def _seed_words(parts, n_words: int, spawn: int | None = None) -> np.ndarray:
    """``SeedSequence(entropy, spawn_key=(spawn,)).generate_state(n_words)``, a row each.

    A row's entropy is the ints of ``parts`` in order.  Each part is an int,
    or (at most one part) a 1-D sequence of ints below 2**64, one per row.
    Rows whose int there takes one word and rows whose int takes two are
    hashed apart.
    """

    def hashed(words):
        if spawn is not None:  # the spawn key follows the entropy zero-padded to the pool size
            words = words + [0] * (_POOL_SIZE - len(words)) + _words(spawn)
        return _hash_entropy(words, n_words)

    def ints(some):
        return [w for part in some for w in _words(part)]

    per_row = [i for i, part in enumerate(parts) if hasattr(part, "__len__")]
    if not per_row:
        return np.array([hashed(ints(parts))], dtype=np.uint32)
    (at,) = per_row
    v = np.asarray(parts[at])
    if v.dtype.kind != "u":
        if np.any(v < 0):
            raise InvalidParameter("seeds must be non-negative integers")
        v = np.array(parts[at], dtype=np.uint64)
    lo, hi = (v & _MASK32).astype(np.uint32), (v >> 32).astype(np.uint32)
    head, tail = ints(parts[:at]), ints(parts[at + 1 :])
    out = np.empty((len(v), n_words), dtype=np.uint32)
    wide = hi > 0
    for rows, mid in ((~wide, [lo]), (wide, [lo, hi])):
        if rows.all():
            rows = slice(None)
        elif not rows.any():
            continue
        out[rows] = np.column_stack(hashed(head + [w[rows] for w in mid] + tail))
    return out


def _uint64(words: np.ndarray) -> np.ndarray:
    """Pairs of little-endian uint32 words as uint64, row by row."""
    return np.ascontiguousarray(words, dtype="<u4").view("<u8")


def _derive_seeds(base_seed: int, replications, stream: int) -> np.ndarray:
    """:func:`derive_seed` of each replication, as a uint64 array, from one hash call."""
    return _uint64(_seed_words((base_seed, replications, stream), 2))[:, 0]


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
    seeds = (_index(base_seed, "base_seed", 0), _index(replication, "replication", 0),
             _index(stream, "stream", 0))
    return int(_derive_seeds(*seeds)[0])


_EMPTY_BLOCK = (0, 0, 0, 0)

class _Pools(threading.local):
    """This thread's Philox generators, a list per stream role (path, state, noise).

    Streams drawn at the same time take different roles, so they never share
    a generator, and no two threads do.  Each list grows to the most streams
    its role has held live at once and outlives runs.  The newest _Streams of
    a role owns its list (``owners`` holds its id); an older one that starts
    or fills after that is refused rather than drawing from re-keyed streams.
    """

    def __init__(self):
        self.generators: dict[str, list] = {}
        self.owners: dict[str, int] = {}


_POOLS = _Pools()


def _generators(role: str, rows: int) -> list:
    """The first ``rows`` generators of this thread's pool for ``role``, built as needed."""
    pool = _POOLS.generators.setdefault(role, [])
    if len(pool) < rows:
        # start() replaces every key; a fixed placeholder seed reads no OS entropy
        placeholder = np.random.SeedSequence(0)
        pool.extend(np.random.Generator(np.random.Philox(placeholder))
                    for _ in range(rows - len(pool)))
    return pool[:rows]


class _Streams:
    """The Philox streams of some seeds, drawn through generators of one role.

    Stream j is that of ``Philox(SeedSequence(seeds[j], spawn_key=(spawn,)))``:
    its key is the seed sequence's first two uint64 words and its counter and
    buffer start empty.  The keys of all seeds come from one hash call;
    :meth:`start` re-keys one generator of this thread's pool for ``role``
    (:func:`_generators`, kept from run to run) to each stream of seeds[lo:hi],
    and each :meth:`fill` continues some of them, so a row filled tile by tile
    gets the bits of one long draw, and refuses rows not started.  Only the
    newest _Streams of a role on a thread may start or fill.
    """

    def __init__(self, seeds, spawn: int | None = None, role: str = "path"):
        self.keys = _uint64(_seed_words((seeds,), 4, spawn))
        self.role, self.pool = role, []
        _POOLS.owners[role] = id(self)

    def _check_owner(self) -> None:
        if _POOLS.owners.get(self.role) != id(self):
            raise RuntimeError(f"the {self.role!r} generators of this thread were taken "
                               "by a newer sampler, or belong to another thread")

    def start(self, lo: int, hi: int) -> None:
        self._check_owner()
        self.pool = _generators(self.role, hi - lo)
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
        self._check_owner()
        for row, gen in zip(out, self.pool[first : first + len(out)], strict=True):
            gen.standard_normal(out=row)
        return out


def _as_piecewise(vol: VolModel) -> PiecewiseVol | None:
    """A deterministic volatility model as a PiecewiseVol (a constant is one level); None for OU."""
    if isinstance(vol, ConstantVol):
        return PiecewiseVol((), (vol.level,))
    return vol if isinstance(vol, PiecewiseVol) else None


def _levels_at(steps: PiecewiseVol, times: np.ndarray) -> np.ndarray:
    """The spot variance of step volatility at each of ``times``: the level in force there."""
    return np.array(steps.levels, dtype=float)[np.searchsorted(steps.breakpoints, times, "right")]


def _step_scales(steps: PiecewiseVol, n: int) -> np.ndarray:
    """Each of n observed steps' standard deviation under step volatility: the root of
    ``level * (1.0 / n)``, or of the levels' shares of a step that breakpoints fall inside."""
    times = np.arange(n + 1) / n
    var = _levels_at(steps, times[:-1]) * (1.0 / n)
    edges = (0.0, *steps.breakpoints, 1.0)
    first = np.searchsorted(times, steps.breakpoints)  # the first grid point at or past each
    for k in {int(p) - 1 for p, b in zip(first, steps.breakpoints) if times[p] != b}:
        lo, hi = times[k], times[k + 1]
        var[k] = sum(level * (min(b, hi) - max(a, lo))
                     for a, b, level in zip(edges, edges[1:], steps.levels) if a < hi and b > lo)
    return np.sqrt(var, out=var)


def _tiles(n: int) -> list[tuple[int, int]]:
    """(start, stop) of each tile of n observed increments."""
    return [(k, min(k + _TILE_WIDTH, n)) for k in range(0, n, _TILE_WIDTH)]


class _LatentTiles:
    """Latent increments of paths on several grids, tile by tile.

    Grid i has ``ns[i]`` observed steps; row j follows the path stream of
    ``seeds[j]``.  Under deterministic volatility step k is normal k of the
    stream times the step's standard deviation (``scales[i]``); under OU it
    is ``refinement`` Euler-Maruyama steps driven by normals of the stream of
    spawn key 0, the state by spawn key 1.  :meth:`start` begins any run of
    paths, and :meth:`draw` draws one tile's normals for up to _TILE_ROWS of
    those, once, into ``raw``, sized for the largest grid.  :meth:`tile`
    scales a prefix of them into one grid's increments.  The Monte Carlo
    engine forms none: it multiplies :meth:`normals`, a column per observed
    step, by :meth:`weights` and adds :meth:`offset`, the drift's part.  OU
    state and truths carry over from tile to tile.  Paths whose spot
    variance is zero everywhere draw no shocks.
    """

    def __init__(self, vol: VolModel, drift: DriftModel, ns, refinement: int, seeds):
        steps = _as_piecewise(vol)
        ou = steps is None
        self.vol, self.steps, self.ns = vol, steps, list(ns)
        self.r = refinement if ou else 1
        self.dts = [1.0 / (n * self.r) for n in ns]
        self.drift_level = drift.level if isinstance(drift, ConstantDrift) else 0.0
        if not ou:
            edges = np.array((0.0,) + steps.breakpoints + (1.0,))
            self.exact = float(np.sum(np.array(steps.levels, dtype=float) * np.diff(edges)))
            self.scales = [_step_scales(steps, n) for n in ns]
        silent = not ou and not any(steps.levels)
        self.shocks = None if silent else _Streams(seeds, 0 if ou else None, "path")
        self.vol_shocks = _Streams(seeds, 1, "state") if ou else None
        # the path shocks, then the OU state shocks, of a tile of the largest grid; the
        # first is wide enough for a tile's noise normals too (see _NoiseTiles)
        width = min(max(ns), _TILE_WIDTH)
        rows = min(_TILE_ROWS, np.size(seeds))
        self.raw = np.empty((1 + ou, rows, max(width * self.r, width + 1)))

    def start(self, lo: int, hi: int) -> None:
        """Begin the paths of seeds[lo:hi] at time 0 on every grid."""
        for streams in (self.shocks, self.vol_shocks):
            if streams is not None:
                streams.start(lo, hi)
        shape = (len(self.ns), hi - lo)
        if self.vol_shocks is None:
            self.truths = np.full(shape, self.exact)
        else:
            self.state = np.full(shape, float(self.vol.initial_level))
            self.truths = np.zeros(shape)

    def draw(self, group: slice, lo: int, w: int) -> None:
        """Draw the shocks of the started paths ``group`` over observed increments lo..lo+w-1."""
        self.group, self.first = group, lo * self.r
        rows = group.stop - group.start
        for raw, streams in zip(self.raw, (self.shocks, self.vol_shocks)):
            if streams is not None:
                streams.fill(raw[:rows, : w * self.r], group.start)

    def tile(self, i: int, dx: np.ndarray):
        """Fill ``dx`` (rows x w) with grid i's increments over the first w drawn steps
        (observed steps, or fine steps under OU, which steps the group's state).  Returns the
        spot variance at their w + 1 points: a row per path under OU, one row otherwise."""
        rows, w = dx.shape
        if self.vol_shocks is None:
            spot = _levels_at(self.steps, np.arange(self.first, self.first + w + 1) / self.ns[i])
            scale = self.scales[i][self.first : self.first + w]
        else:
            spot = self._ou_spot(i, rows, w)
            scale = np.sqrt(spot[:, :-1] * self.dts[i])
        if self.shocks is None:
            dx[...] = self.drift_level * self.dts[i]
        else:
            np.multiply(self.raw[0, :rows, :w], scale, out=dx)
            if self.drift_level:
                dx += self.drift_level * self.dts[i]
        return spot

    def weights(self, i: int, lo: int, cols: np.ndarray) -> np.ndarray:
        """Weights L: ``normals(i, rows, w) @ L + offset(i, cols)`` is grid i's increments over
        observed steps lo..lo+w-1 times their basis rows ``cols`` (w x k).  L is ``cols``, scaled
        in place by each step's standard deviation unless :meth:`normals` scales per path (OU)."""
        if self.vol_shocks is None:
            cols *= self.scales[i][lo : lo + len(cols), np.newaxis]
        return cols

    def normals(self, i: int, rows: int, w: int) -> np.ndarray:
        """The drawn normals of w observed steps of grid i, a column each; under OU the
        sum of each observed step's r fine normals times their path's scale."""
        raw = self.raw[0, :rows, : w * self.r]
        if self.vol_shocks is None:
            return raw
        scaled = np.sqrt(self._ou_spot(i, rows, w * self.r)[:, :-1] * self.dts[i])
        np.multiply(raw, scaled, out=scaled)
        return scaled.reshape(rows, w, self.r) @ np.ones(self.r)  # faster than sum(axis=2)

    def offset(self, i: int, cols: np.ndarray) -> np.ndarray:
        """The drift's part of grid i's increments times ``cols``, the same for every path."""
        return self.drift_level * self.r * self.dts[i] * cols.sum(axis=0)

    def _ou_spot(self, i: int, rows: int, w: int) -> np.ndarray:
        # OU state stepped for all rows at once; the spot variance is the
        # squared state, hence nonnegative by construction.
        vol, dt, sqrt_dt = self.vol, self.dts[i], np.sqrt(self.dts[i])
        shocks = self.raw[1, :rows, :w]
        state = np.empty((w + 1, rows))
        state[0] = self.state[i, self.group]
        for k in range(w):
            state[k + 1] = (
                state[k]
                + vol.reversion_rate * (vol.mean_level - state[k]) * dt
                + vol.vol_of_vol * (shocks[:, k] * sqrt_dt)
            )
        self.state[i, self.group] = state[-1]
        spot = np.square(state, out=state).T.copy()  # the truths' bits need this layout
        self.truths[i, self.group] += _trapezoid(spot, dx=dt, axis=1)
        return spot


class _NoiseTiles:
    """Observation noise of the Monte Carlo engine's series of any length, tile by tile.

    Row j follows the noise stream of ``seeds[j]``: the noise at time k is
    normal k of the stream times the noise scale, whatever the length n.
    :meth:`start` begins any run of the series, each with a carry: its
    normal at the last drawn time.  :meth:`draw` draws the normals at a
    tile's w + 1 times for a group of up to ``len(values)`` of them into the
    buffer ``values`` (the one at the tile's first time is the carry), which
    the Monte Carlo engine multiplies by :meth:`weights`.  The engine passes
    the path normals' buffer (``_LatentTiles.raw[0]``) and draws the noise
    once it is done with them.
    """

    def __init__(self, noise: NoiseModel, seeds, values: np.ndarray):
        self.noise, self.scale = noise, np.sqrt(noise.variance)
        self.streams = _Streams(seeds, None, "noise")
        self.values = values

    def start(self, lo: int, hi: int) -> None:
        """Begin the series of seeds[lo:hi] at time 0."""
        self.streams.start(lo, hi)
        self.carry = np.empty(hi - lo)

    def draw(self, group: slice, lo: int, w: int) -> None:
        """Draw the normals of the started series ``group`` at times lo..lo+w."""
        v = self.values[: group.stop - group.start, : w + 1]
        if lo:
            v[:, 0] = self.carry[group]
            v = v[:, 1:]
        self.streams.fill(v, group.start)
        self.carry[group] = v[:, -1]

    def weights(self, n: int, lo: int, cols: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Weights N in ``out``: ``values[:, :w + 1] @ N`` is a series of n's noise
        differences over steps lo..lo+w-1 times their basis rows ``cols`` (w x k).

        Summation by parts, sum_j (v_{j+1} - v_j) c_j = sum_t v_t (c_{t-1} - c_t)
        with c_{-1} = c_w = 0, gives row t; the rows of excluded end points are zero.
        """
        w = len(cols)
        out = out[: w + 1]
        out[0] = 0.0
        out[1:] = cols
        out[:w] -= cols
        out *= self.scale
        if lo == 0 and not self.noise.include_initial:
            out[0] = 0.0
        if lo + w == n and not self.noise.include_terminal:
            out[w] = 0.0
        return out


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
    grid refined ``refinement`` times.  Raises :class:`InvalidParameter` for
    a refinement < 1 or seed < 0 or either not an integer, and
    :class:`ResultOverflow` for a path or truth that overflows float64.
    """
    _index(refinement, "refinement", 1)
    latent = _LatentTiles(vol, drift, (scheme.n,), refinement, _index(rng_seed, "rng_seed", 0))
    r, n_fine = latent.r, scheme.n * latent.r
    latent.start(0, 1)
    dx = np.empty((1, n_fine))
    spot = np.empty(n_fine + 1)
    for lo, hi in _tiles(scheme.n):
        latent.draw(slice(0, 1), lo, hi - lo)
        spot[lo * r : hi * r + 1] = latent.tile(0, dx[:, lo * r : hi * r])
    values, truth = np.concatenate(([0.0], np.cumsum(dx[0]))), float(latent.truths[0, 0])
    if not (math.isfinite(truth) and np.all(np.isfinite(values))):  # an inf spot makes truth inf
        raise ResultOverflow("the path overflows float64 at the model's scale")
    return LatentPath(np.arange(n_fine + 1) / n_fine, values, spot, truth)


@np.errstate(over="ignore", invalid="ignore")  # a covariance that overflows is refused
def simulate_latent_correlated(
    loadings: np.ndarray,
    scheme: EquidistantScheme,
    refinement: int = 10,
    rng_seed: int = 0,
) -> tuple[list[LatentPath], np.ndarray]:
    """Simulate J latent paths sharing one d-dimensional Wiener driver.

    ``loadings`` is the constant J x d matrix sigma; the exact integrated
    covariance matrix is ``loadings @ loadings.T`` and is returned alongside
    the per-asset paths.  Raises :class:`InvalidParameter` for a loading
    that is not a finite real number and for a refinement or seed as
    :func:`simulate_latent` does, and :class:`ResultOverflow` for a
    covariance that overflows float64.
    """
    refinement = _index(refinement, "refinement", 1)
    sigma = np.atleast_2d(_real_array(loadings, "loadings"))
    if not np.all(np.isfinite(sigma)):
        raise InvalidParameter("loadings must be finite numbers")
    n_fine = scheme.n * refinement
    fine_times = np.arange(n_fine + 1) / n_fine
    streams = _Streams(_index(rng_seed, "rng_seed", 0))
    streams.start(0, 1)
    dw = streams.fill(np.empty((1, n_fine * sigma.shape[1])))[0] * np.sqrt(1.0 / n_fine)
    dx = dw.reshape(n_fine, -1) @ sigma.T
    cov = sigma @ sigma.T
    if not np.all(np.isfinite(cov)):
        raise ResultOverflow("the covariance overflows float64 at the loadings' scale")
    paths = [LatentPath(fine_times, np.concatenate(([0.0], np.cumsum(dx[:, j]))),
                        np.full(n_fine + 1, cov[j, j]), float(cov[j, j]))
             for j in range(len(sigma))]
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
    streams = _Streams(_index(rng_seed, "rng_seed", 0), role="noise")
    streams.start(0, 1)
    v = streams.fill(np.empty((1, scheme.n + 1)))[0] * np.sqrt(noise.variance)
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
    """First differences Delta Y_k = Y_{t_k} - Y_{t_{k-1}}, k = 1..n, all finite."""
    if len(obs.values) < 2:
        raise TooShort(f"need at least 2 observations, got {len(obs.values)}")
    with np.errstate(over="ignore", invalid="ignore"):
        deltas = np.diff(obs.values)
    if not np.all(np.isfinite(deltas)):
        raise InvalidParameter("increments must be finite; a difference of values overflows")
    return deltas


def write_observations_csv(obs: ObservationSeries, fileobj) -> None:
    """Write ``time,value,latent,noise`` rows (LF line endings)."""
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(["time", "value", "latent", "noise"])
    for t, y, x, v in zip(obs.times, obs.values, obs.latent, obs.noise):
        writer.writerow([repr(float(t)), repr(float(y)), repr(float(x)), repr(float(v))])


def read_observations_csv(fileobj) -> ObservationSeries:
    """Read a ``time,value[,latent,noise]`` CSV; missing oracle columns are tolerated.

    Raises :class:`InvalidParameter` for a data row with fewer than two cells
    (four when the header names the oracle columns), a cell that is not a
    finite number, a time outside [0, 1], or times that do not strictly
    increase.
    """
    reader = csv.reader(fileobj)
    header = next(reader, None)
    if header is None or [h.strip().lower() for h in header[:2]] != ["time", "value"]:
        raise InvalidParameter("expected a CSV header starting with 'time,value'")
    has_oracle = len(header) >= 4
    width = 4 if has_oracle else 2
    times, values, latent, noise = [], [], [], []
    for row in reader:
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) < width:
            raise InvalidParameter(
                f"line {reader.line_num}: expected at least {width} cells, got {len(row)}"
            )
        try:
            times.append(float(row[0]))
            values.append(float(row[1]))
            if has_oracle:
                latent.append(float(row[2]))
                noise.append(float(row[3]))
        except ValueError as exc:
            raise InvalidParameter(f"line {reader.line_num}: {exc}") from None
        if not 0.0 <= times[-1] <= 1.0:
            raise InvalidParameter(
                f"line {reader.line_num}: time {row[0].strip()} is outside [0, 1]; rescale times "
                "to [0, 1] (the Fourier estimator is periodic on [0, 1])"
            )
    times = np.array(times)
    values = np.array(values)
    if not all(np.all(np.isfinite(col)) for col in (times, values, latent, noise)):
        raise InvalidParameter("times and values must be finite numbers")
    unordered = np.flatnonzero(np.diff(times) <= 0)
    if unordered.size:
        raise InvalidParameter(
            f"times must be strictly increasing; data row {unordered[0] + 2} is not"
        )
    if not latent:
        latent = values.copy()
        noise = np.zeros_like(values)
    return ObservationSeries(
        times=times,
        values=values,
        latent=np.asarray(latent),
        noise=np.asarray(noise),
    )
