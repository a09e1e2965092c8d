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
one seed or on arrays for many seeds in one pass, and a pool of Philox
generators is re-keyed for each group of streams: stream j has the bits of
``Philox(SeedSequence(seeds[j]))`` without either object being built per
stream.  Paths and noise are drawn in tiles of ``_TILE_WIDTH`` observed
increments, each tile continuing its streams, so a group of paths drawn
tile by tile has the bits of single paths drawn whole.  Paths whose spot
variance is zero everywhere draw no latent shocks.
"""

from __future__ import annotations

import csv
import math
import operator
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
    distribution: str = "gaussian"

    def __post_init__(self):
        if not _nonnegative(self.variance):
            raise InvalidParameter(f"noise variance must be finite and >= 0, got {self.variance}")
        if self.distribution != "gaussian":
            raise InvalidParameter(f"unsupported noise distribution {self.distribution!r}")


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


_EMPTY_BLOCK = np.zeros(4, np.uint64)


class _Streams:
    """The Philox streams of some seeds, drawn through a pool of ``rows`` generators.

    Stream j is that of ``Philox(SeedSequence(seeds[j], spawn_key=(spawn,)))``:
    its key is the seed sequence's first two uint64 words and its counter and
    buffer start empty.  The keys of all seeds come from one hash call;
    :meth:`start` re-keys the pool to the streams of seeds[lo:hi], and each
    :meth:`fill` continues them, so a row filled tile by tile gets the bits
    of one long draw.
    """

    def __init__(self, seeds, spawn: int | None = None, rows: int = 1):
        self.keys = _uint64(_seed_words((seeds,), 4, spawn))
        # start() replaces every key; a fixed placeholder seed reads no OS entropy
        placeholder = np.random.SeedSequence(0)
        self.pool = [np.random.Generator(np.random.Philox(placeholder)) for _ in range(rows)]

    def start(self, lo: int, hi: int) -> None:
        for gen, key in zip(self.pool, self.keys[lo:hi]):
            gen.bit_generator.state = {
                "bit_generator": "Philox",
                "state": {"counter": _EMPTY_BLOCK, "key": key},
                "buffer": _EMPTY_BLOCK,
                "buffer_pos": 4,
                "has_uint32": 0,
                "uinteger": 0,
            }

    def fill(self, out: np.ndarray) -> np.ndarray:
        """Standard normals into each row of ``out``, row j from the j-th started stream."""
        for row, gen in zip(out, self.pool):
            gen.standard_normal(out=row)
        return out


def _tiles(n: int) -> list[tuple[int, int]]:
    """(start, stop) of each tile of n observed increments."""
    return [(k, min(k + _TILE_WIDTH, n)) for k in range(0, n, _TILE_WIDTH)]


class _LatentTiles:
    """Euler-Maruyama increments of a group of latent paths, tile by tile.

    Row j follows the path stream of ``seeds[j]`` (spawn key 0 under OU
    volatility, whose state follows spawn key 1) from the first fine step
    on.  The OU state and, for OU, each row's integrated variance (the
    trapezoid rule, summed tile by tile) carry over from tile to tile.
    Paths whose spot variance is zero everywhere draw no shocks.
    """

    def __init__(self, vol: VolModel, drift: DriftModel, n_fine: int, seeds, rows: int = 1):
        self.vol, self.n_fine, self.dt = vol, n_fine, 1.0 / n_fine
        self.shift = (drift.level if isinstance(drift, ConstantDrift) else 0.0) * self.dt
        ou = isinstance(vol, OrnsteinUhlenbeckVol)
        if isinstance(vol, ConstantVol):
            self.exact, silent = float(vol.level), vol.level == 0
        elif isinstance(vol, PiecewiseVol):
            edges = np.array((0.0,) + vol.breakpoints + (1.0,))
            self.exact = float(np.sum(np.asarray(vol.levels) * np.diff(edges)))
            silent = not any(vol.levels)
        else:
            silent = False
        self.shocks = None if silent else _Streams(seeds, 0 if ou else None, rows)
        self.vol_shocks = _Streams(seeds, 1, rows) if ou else None

    def start(self, lo: int, hi: int) -> None:
        """Begin the paths of seeds[lo:hi] at time 0."""
        for streams in (self.shocks, self.vol_shocks):
            if streams is not None:
                streams.start(lo, hi)
        self.step = 0
        if self.vol_shocks is None:
            self.truths = np.full(hi - lo, self.exact)
        else:
            self.state = np.full(hi - lo, float(self.vol.initial_level))
            self.truths = np.zeros(hi - lo)

    def tile(self, dx: np.ndarray) -> np.ndarray:
        """Fill ``dx`` (rows x w) with the next w fine increments.

        Returns the spot variance at their w + 1 grid points: a row per path
        for OU, one row shared by all paths otherwise.
        """
        w = dx.shape[1]
        first, self.step = self.step, self.step + w
        vol = self.vol
        if isinstance(vol, ConstantVol):
            spot = np.full((1, w + 1), self.exact)
        elif isinstance(vol, PiecewiseVol):
            times = np.arange(first, first + w + 1) / self.n_fine
            idx = np.searchsorted(np.array(vol.breakpoints), times, side="right")
            spot = np.asarray(vol.levels, dtype=float)[idx][np.newaxis]
        else:
            spot = self._ou_spot(len(dx), w)
        if self.shocks is None:
            dx[...] = 0.0
        else:
            self.shocks.fill(dx)
            dx *= np.sqrt(spot[:, :-1] * self.dt)
        if self.shift:
            dx += self.shift
        return spot

    def _ou_spot(self, rows: int, w: int) -> np.ndarray:
        # OU state stepped for all rows at once; the spot variance is the
        # squared state, hence nonnegative by construction.
        vol, dt = self.vol, self.dt
        shocks = self.vol_shocks.fill(np.empty((rows, w))).T * np.sqrt(dt)
        state = np.empty((w + 1, rows))
        state[0] = self.state
        for i in range(w):
            state[i + 1] = (
                state[i]
                + vol.reversion_rate * (vol.mean_level - state[i]) * dt
                + vol.vol_of_vol * shocks[i]
            )
        self.state = state[-1]
        spot = (state**2).T.copy()
        self.truths += _trapezoid(spot, dx=dt, axis=1)
        return spot


class _NoiseTiles:
    """Observation noise of a group of series at the n + 1 times, tile by tile.

    Row j follows the noise stream of ``seeds[j]``.  The tile of w
    increments from time k needs the noise at times k..k + w; the caller
    carries the value at time k over from the previous tile, except at k = 0.
    """

    def __init__(self, noise: NoiseModel, n: int, seeds, rows: int = 1):
        self.noise, self.n = noise, n
        self.scale = np.sqrt(noise.variance)
        self.streams = _Streams(seeds, None, rows)

    def start(self, lo: int, hi: int) -> None:
        """Begin the series of seeds[lo:hi] at time 0."""
        self.streams.start(lo, hi)
        self.time = 0

    def tile(self, v: np.ndarray) -> None:
        """Fill ``v`` (rows x (w + 1)) with the noise of the next tile of w increments."""
        first, self.time = self.time, self.time + v.shape[1] - 1
        new = v if first == 0 else v[:, 1:]
        self.streams.fill(new)
        new *= self.scale
        if first == 0 and not self.noise.include_initial:
            v[:, 0] = 0.0
        if self.time == self.n and not self.noise.include_terminal:
            v[:, -1] = 0.0


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
    latent = _LatentTiles(vol, drift, n_fine, rng_seed)
    latent.start(0, 1)
    dx = np.empty((1, n_fine))
    spot = np.empty(n_fine + 1)
    for lo, hi in _tiles(scheme.n):
        spot[lo * refinement : hi * refinement + 1] = latent.tile(
            dx[:, lo * refinement : hi * refinement]
        )[0]
    return LatentPath(
        fine_times=np.arange(n_fine + 1) / n_fine,
        values=np.concatenate(([0.0], np.cumsum(dx[0]))),
        spot_variance=spot,
        true_integrated_vol=float(latent.truths[0]),
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
    the per-asset paths.
    """
    sigma = np.atleast_2d(np.asarray(loadings, dtype=float))
    n_fine = scheme.n * refinement
    fine_times = np.arange(n_fine + 1) / n_fine
    dt = 1.0 / n_fine
    streams = _Streams(rng_seed)
    streams.start(0, 1)
    dw = streams.pool[0].standard_normal((n_fine, sigma.shape[1])) * np.sqrt(dt)
    dx = dw @ sigma.T
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
    sampler = _NoiseTiles(noise, scheme.n, rng_seed)
    sampler.start(0, 1)
    v = np.empty((1, scheme.n + 1))
    for lo, hi in _tiles(scheme.n):
        sampler.tile(v[:, lo : hi + 1])
    return ObservationSeries(
        times=scheme.times(),
        values=latent + v[0],
        latent=latent,
        noise=v[0],
    )


def increments(obs: ObservationSeries) -> np.ndarray:
    """First differences Delta Y_k = Y_{t_k} - Y_{t_{k-1}}, k = 1..n."""
    if len(obs.values) < 2:
        raise TooShort(f"need at least 2 observations, got {len(obs.values)}")
    return np.diff(obs.values)


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
