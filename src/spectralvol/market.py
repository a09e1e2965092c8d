"""Latent price-path simulation, noisy observation, and ground-truth volatility.

The latent log-price follows an Ito process on [0, 1], simulated by
Euler-Maruyama on a fine grid (``refinement`` steps per observation
interval).  Observations are ``Y_k = X_{t_k} + v_k`` on the equidistant grid
``t_k = k/n`` with i.i.d. Gaussian noise whose presence at the first and
last points is individually switchable; the generated series keeps its
latent/noise decomposition so tests can use it as an oracle.

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
one fill.  Paths whose spot variance is zero everywhere draw no latent shocks.
"""

from __future__ import annotations

import csv
import math
import operator
import threading
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import GridMismatch, InvalidParameter, TooShort

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
        if self.n < 1:
            raise InvalidParameter(f"need n >= 1 observation intervals, got {self.n}")

    @property
    def mesh(self) -> float:
        return 1.0 / self.n

    def times(self) -> np.ndarray:
        return np.arange(self.n + 1) / self.n


@dataclass(frozen=True)
class LatentPath:
    """A fine-grid realization of the latent process with its exact target value."""

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

# Observed increments per tile of the samplers below.  Fixed, so that a
# path's values do not depend on how many paths are drawn with it.
_TILE_WIDTH = 1024


def _words(x) -> list[int]:
    """Little-endian uint32 words of a non-negative int: max(1, ceil(bits / 32)) of them."""
    x = operator.index(x)
    if x < 0:
        raise ValueError("seeds must be non-negative integers")
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
            raise ValueError("seeds must be non-negative integers")
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
    derive_seed(b, 0, 1)`` for b < 2**32.
    """
    return int(_derive_seeds(base_seed, replication, stream)[0])


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
    """The Philox streams of some seeds, drawn through ``rows`` generators of one role.

    Stream j is that of ``Philox(SeedSequence(seeds[j], spawn_key=(spawn,)))``:
    its key is the seed sequence's first two uint64 words and its counter and
    buffer start empty.  The keys of all seeds come from one hash call;
    :meth:`start` re-keys the generators to the streams of seeds[lo:hi], one
    each, and each :meth:`fill` continues some of them, so a row filled tile
    by tile gets the bits of one long draw.  The generators are this thread's
    pool for ``role`` (:func:`_generators`), kept from run to run; only the
    newest _Streams of a role on a thread may start or fill them.
    """

    def __init__(self, seeds, spawn: int | None = None, rows: int = 1, role: str = "path"):
        self.keys = _uint64(_seed_words((seeds,), 4, spawn))
        self.role, self.pool = role, _generators(role, rows)
        _POOLS.owners[role] = id(self)

    def _check_owner(self) -> None:
        if _POOLS.owners.get(self.role) != id(self):
            raise RuntimeError(f"the {self.role!r} generators of this thread were taken "
                               "by a newer sampler, or belong to another thread")

    def start(self, lo: int, hi: int) -> None:
        self._check_owner()
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
        for row, gen in zip(out, self.pool[first : first + len(out)]):
            gen.standard_normal(out=row)
        return out


def _as_piecewise(vol: VolModel) -> PiecewiseVol | None:
    """A deterministic volatility model as a PiecewiseVol (a constant is one level); None for OU."""
    if isinstance(vol, ConstantVol):
        return PiecewiseVol((), (vol.level,))
    return vol if isinstance(vol, PiecewiseVol) else None


def _first_point(b: float, n_fine: int) -> int:
    """The first fine point p at or past breakpoint b: p / n_fine >= b, as floats compare."""
    p = math.ceil(b * n_fine)
    while p > 0 and (p - 1) / n_fine >= b:
        p -= 1
    while p / n_fine < b:
        p += 1
    return p


def _tiles(n: int) -> list[tuple[int, int]]:
    """(start, stop) of each tile of n observed increments."""
    return [(k, min(k + _TILE_WIDTH, n)) for k in range(0, n, _TILE_WIDTH)]


class _LatentTiles:
    """Euler-Maruyama increments of latent paths on several grids, tile by tile.

    Grid i has ``ns[i] * refinement`` fine steps.  Row j follows the path
    stream of ``seeds[j]`` (spawn key 0 under OU volatility, whose state
    follows spawn key 1): on every grid, fine step k is driven by normal k
    of the stream.  :meth:`start` begins up to ``live`` paths and
    :meth:`draw` draws one tile's normals for a group of up to ``rows`` of
    them, once.  :meth:`tile` scales a prefix of them into one grid's
    increments.  The Monte Carlo engine forms no increments: it multiplies
    :meth:`normals` by :meth:`weights` and adds :meth:`offset`, the drift's
    part.  Each path's OU state on each grid and, for OU, its integrated
    variance (the trapezoid rule, summed tile by tile) carry over from tile
    to tile.  Paths whose spot variance is zero everywhere draw no shocks.
    """

    def __init__(
        self, vol: VolModel, drift: DriftModel, ns, refinement: int, seeds, rows: int = 1,
        live: int | None = None,
    ):
        live = rows if live is None else live
        self.vol, self.r, self.n_fines = vol, refinement, [n * refinement for n in ns]
        self.dts = [1.0 / n_fine for n_fine in self.n_fines]
        self.drift_level = drift.level if isinstance(drift, ConstantDrift) else 0.0
        steps = _as_piecewise(vol)
        ou = steps is None
        if not ou:
            self.levels = [float(level) for level in steps.levels]
            edges = np.array((0.0,) + steps.breakpoints + (1.0,))
            self.exact = float(np.sum(np.array(self.levels) * np.diff(edges)))
            # grid i's first fine point at or past each breakpoint, between 0 and the end
            self.cuts = [[0, *(_first_point(b, n_fine) for b in steps.breakpoints), n_fine + 1]
                         for n_fine in self.n_fines]
        silent = not ou and not any(self.levels)
        self.shocks = None if silent else _Streams(seeds, 0 if ou else None, live, "path")
        self.vol_shocks = _Streams(seeds, 1, live, "state") if ou else None
        # the path shocks, then the OU state shocks, of a tile of the largest grid; the
        # first is wide enough for a tile's noise normals too (see _NoiseTiles)
        width = min(max(ns), _TILE_WIDTH)
        self.raw = np.empty((1 + ou, rows, max(width * refinement, width + 1)))

    def start(self, lo: int, hi: int) -> None:
        """Begin the paths of seeds[lo:hi] at time 0 on every grid."""
        for streams in (self.shocks, self.vol_shocks):
            if streams is not None:
                streams.start(lo, hi)
        shape = (len(self.n_fines), hi - lo)
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

    def _runs(self, i: int, first: int, count: int):
        """(start, stop, level) of each run of one deterministic level over grid i's fine
        points first..first+count-1, start and stop counted from ``first``."""
        edges = self.cuts[i]
        for a, b, level in zip(edges, edges[1:], self.levels):
            a, b = max(a - first, 0), min(b - first, count)
            if a < b:
                yield a, b, level

    def tile(self, i: int, dx: np.ndarray):
        """Fill ``dx`` (rows x w) with grid i's increments over the first w drawn steps.

        Returns the spot variance at their w + 1 grid points: a row per path
        for OU (which steps the drawn group's state), one row shared by all
        paths otherwise.
        """
        rows, w = dx.shape
        if self.vol_shocks is None:
            spot = np.empty(w + 1)
            for a, b, level in self._runs(i, self.first, w + 1):
                spot[a:b] = level
        else:
            spot = self._ou_spot(i, rows, w)
        if self.shocks is None:
            dx[...] = self.drift_level * self.dts[i]
        else:
            np.multiply(self.raw[0, :rows, :w], np.sqrt(spot[..., :-1] * self.dts[i]), out=dx)
            if self.drift_level:
                dx += self.drift_level * self.dts[i]
        return spot

    def weights(self, i: int, lo: int, cols: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Weights L in ``out``: ``normals(i, rows, w) @ L + offset(i, cols)`` is grid i's
        increments over observed steps lo..lo+w-1 times their basis rows ``cols`` (w x k).

        Fine step k takes its observed step's row, times sqrt(spot dt) unless
        the scale is per path (OU), when :meth:`normals` applies it; the
        scale is one product per run of one level.  At refinement 1 ``cols``
        may be out's own first w rows, which are then scaled in place.
        """
        w, k = cols.shape
        out = out[: w * self.r]
        if self.r > 1:
            out.reshape(w, self.r, k)[...] = cols[:, np.newaxis]
        else:
            out[...] = cols  # no copy when cols is out
        if self.vol_shocks is None:
            for a, b, level in self._runs(i, lo * self.r, w * self.r):
                out[a:b] *= math.sqrt(level * self.dts[i])
        return out

    def normals(self, i: int, rows: int, w: int) -> np.ndarray:
        """The drawn normals of w observed steps of grid i, scaled per path under OU."""
        raw = self.raw[0, :rows, : w * self.r]
        if self.vol_shocks is None:
            return raw
        return raw * np.sqrt(self._ou_spot(i, rows, w * self.r)[:, :-1] * self.dts[i])

    def offset(self, i: int, cols: np.ndarray) -> np.ndarray:
        """The drift's part of grid i's increments times ``cols``, the same for every path."""
        return self.drift_level * self.r * self.dts[i] * cols.sum(axis=0)

    def _ou_spot(self, i: int, rows: int, w: int) -> np.ndarray:
        # OU state stepped for all rows at once; the spot variance is the
        # squared state, hence nonnegative by construction.
        vol, dt = self.vol, self.dts[i]
        shocks = self.raw[1, :rows, :w].T * np.sqrt(dt)
        state = np.empty((w + 1, rows))
        state[0] = self.state[i, self.group]
        for k in range(w):
            state[k + 1] = (
                state[k]
                + vol.reversion_rate * (vol.mean_level - state[k]) * dt
                + vol.vol_of_vol * shocks[k]
            )
        self.state[i, self.group] = state[-1]
        spot = (state**2).T.copy()
        self.truths[i, self.group] += _trapezoid(spot, dx=dt, axis=1)
        return spot


class _NoiseTiles:
    """Observation noise of the Monte Carlo engine's series of any length, tile by tile.

    Row j follows the noise stream of ``seeds[j]``: the noise at time k is
    normal k of the stream times the noise scale, whatever the length n.
    :meth:`start` begins up to ``live`` series; :meth:`draw` draws the
    normals at a tile's w + 1 times for a group of up to ``len(values)`` of
    them into the buffer ``values`` (the one at the tile's first time
    carries over from the previous tile), which the Monte Carlo engine
    multiplies by :meth:`weights`.  The engine passes the path normals'
    buffer (``_LatentTiles.raw[0]``) and draws the noise once it is done
    with them.
    """

    def __init__(self, noise: NoiseModel, seeds, values: np.ndarray, live: int | None = None):
        live = len(values) if live is None else live
        self.noise, self.scale = noise, np.sqrt(noise.variance)
        self.streams = _Streams(seeds, None, live, "noise")
        self.values = values
        self.carry = np.empty(live)  # each started series' normal at the last drawn time

    def start(self, lo: int, hi: int) -> None:
        """Begin the series of seeds[lo:hi] at time 0."""
        self.streams.start(lo, hi)

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


def simulate_latent(
    vol: VolModel,
    drift: DriftModel,
    scheme: EquidistantScheme,
    refinement: int = 10,
    rng_seed: int = 0,
) -> LatentPath:
    """Euler-Maruyama path of the latent process on the refined grid.

    For constant (or piecewise-constant) volatility and zero drift the scheme
    is exact in distribution.  Deterministic given ``rng_seed``.
    """
    if refinement < 1:
        raise InvalidParameter(f"refinement must be >= 1, got {refinement}")
    n_fine = scheme.n * refinement
    latent = _LatentTiles(vol, drift, (scheme.n,), refinement, rng_seed)
    latent.start(0, 1)
    dx = np.empty((1, n_fine))
    spot = np.empty(n_fine + 1)
    for lo, hi in _tiles(scheme.n):
        latent.draw(slice(0, 1), lo, hi - lo)
        spot[lo * refinement : hi * refinement + 1] = latent.tile(
            0, dx[:, lo * refinement : hi * refinement]
        )
    return LatentPath(
        fine_times=np.arange(n_fine + 1) / n_fine,
        values=np.concatenate(([0.0], np.cumsum(dx[0]))),
        spot_variance=spot,
        true_integrated_vol=float(latent.truths[0, 0]),
    )


def simulate_latent_correlated(
    loadings: np.ndarray,
    scheme: EquidistantScheme,
    refinement: int = 10,
    rng_seed: int = 0,
) -> tuple[list[LatentPath], np.ndarray]:
    """Simulate J latent paths sharing one d-dimensional Wiener driver.

    ``loadings`` is the constant J x d matrix sigma; the exact integrated
    covariance matrix is ``loadings @ loadings.T`` and is returned alongside
    the per-asset paths.  Raises :class:`InvalidParameter` for a non-finite
    loading.
    """
    if refinement < 1:
        raise InvalidParameter(f"refinement must be >= 1, got {refinement}")
    sigma = np.atleast_2d(np.asarray(loadings, dtype=float))
    if not np.all(np.isfinite(sigma)):
        raise InvalidParameter("loadings must be finite numbers")
    n_fine = scheme.n * refinement
    fine_times = np.arange(n_fine + 1) / n_fine
    streams = _Streams(rng_seed)
    streams.start(0, 1)
    dw = streams.fill(np.empty((1, n_fine * sigma.shape[1])))[0] * np.sqrt(1.0 / n_fine)
    dx = dw.reshape(n_fine, -1) @ sigma.T
    cov = sigma @ sigma.T
    paths = []
    for j in range(sigma.shape[0]):
        values = np.concatenate(([0.0], np.cumsum(dx[:, j])))
        paths.append(
            LatentPath(
                fine_times=fine_times,
                values=values,
                spot_variance=np.full(n_fine + 1, cov[j, j]),
                true_integrated_vol=float(cov[j, j]),
            )
        )
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
    is not a subset of the path's fine grid.
    """
    n_fine = len(path.fine_times) - 1
    if n_fine % scheme.n != 0:
        raise GridMismatch(
            f"observation grid n={scheme.n} does not divide fine grid n={n_fine}"
        )
    step = n_fine // scheme.n
    latent = path.values[::step].copy()
    streams = _Streams(rng_seed, role="noise")
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
