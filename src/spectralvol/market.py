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
Philox keys are numpy's SeedSequence hash, computed here for a whole array
of seeds in one pass, and one Philox generator is re-keyed for each stream:
stream j has the bits of ``Philox(SeedSequence(seeds[j]))`` without either
object being built per stream.  A block of paths whose spot variance is
zero everywhere draws no latent shocks.
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
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK32 = 0xFFFFFFFF


def _int_words(values) -> tuple[np.ndarray, np.ndarray]:
    """Little-endian uint32 words of non-negative ints, a row per int, and each int's word count.

    An int takes max(1, ceil(bits / 32)) words; the rest of its row is 0.
    """
    v = np.atleast_1d(values if isinstance(values, np.ndarray) else np.array(values, dtype=object))
    if v.dtype.kind not in "iu":  # Python ints, which may not fit in 64 bits
        ints = [operator.index(x) for x in v]
        if min(ints) < 0:
            raise ValueError("seeds must be non-negative integers")
        if max(ints) >= 2**64:
            counts = np.array([max(1, -(-x.bit_length() // 32)) for x in ints])
            words = [[(x >> (32 * i)) & _MASK32 for i in range(counts.max())] for x in ints]
            return np.array(words, dtype=np.uint32), counts
        v = np.array(ints, dtype=np.uint64)
    elif np.any(v < 0):
        raise ValueError("seeds must be non-negative integers")
    v = v.astype(np.uint64)
    words = np.stack(((v & _MASK32).astype(np.uint32), (v >> 32).astype(np.uint32)), axis=1)
    return words, 1 + (words[:, 1] > 0)


def _hash_entropy(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """``SeedSequence(row).generate_state(n_words)`` of every row of a (rows, k) uint32 array."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> 16)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> 16)

    k = entropy.shape[1]
    zero = np.zeros(len(entropy), dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < k else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, k):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))
    out = np.empty((len(entropy), n_words), dtype=np.uint32)
    hash_const = _INIT_B
    for i in range(n_words):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value *= np.uint32(hash_const)
        out[:, i] = value ^ (value >> 16)
    return out


def _seed_words(parts, n_words: int, spawn: int | None = None) -> np.ndarray:
    """``SeedSequence(entropy, spawn_key=(spawn,)).generate_state(n_words)`` per row.

    A row's entropy is the ints of ``parts`` in order; each part is one int
    shared by every row or a 1-D sequence with an int per row.  Rows whose
    ints take different word counts are hashed in separate groups.
    """
    words, counts = zip(*(_int_words(part) for part in parts))
    rows = max(len(w) for w in words)
    counts = np.stack([np.broadcast_to(c, rows) for c in counts], axis=1)
    if spawn is not None:
        spawn_words, spawn_count = _int_words(spawn)
        spawn_words = spawn_words[:, : spawn_count[0]]
    out = np.empty((rows, n_words), dtype=np.uint32)
    codes = np.ravel_multi_index(counts.T, counts.max(axis=0) + 1)
    _, first, group = np.unique(codes, return_index=True, return_inverse=True)
    for g, width in enumerate(counts[first]):
        sel = np.flatnonzero(group == g)
        entropy = [np.broadcast_to(w, (rows, w.shape[1]))[sel, :c] for w, c in zip(words, width)]
        if spawn is not None:
            # A spawn key follows the entropy zero-padded to the pool size.
            pad = max(0, _POOL_SIZE - int(width.sum()))
            entropy += [np.zeros((len(sel), pad), np.uint32), np.repeat(spawn_words, len(sel), 0)]
        out[sel] = _hash_entropy(np.hstack(entropy), n_words)
    return out


def _uint64(words: np.ndarray) -> np.ndarray:
    """Pairs of little-endian uint32 words as uint64, row by row."""
    w = words.astype(np.uint64)
    return w[:, 0::2] | (w[:, 1::2] << np.uint64(32))


def _derive_seeds(base_seed: int, replications, stream: int) -> np.ndarray:
    """:func:`derive_seed` of each replication, as a uint64 array, from one hash call."""
    return _uint64(_seed_words((base_seed, replications, stream), 2))[:, 0]


def derive_seed(base_seed: int, replication: int, stream: int) -> int:
    """Deterministic 64-bit sub-seed keyed by (base_seed, replication, stream).

    Equals ``SeedSequence((base_seed, replication, stream)).generate_state(1, uint64)``.
    """
    return int(_derive_seeds(base_seed, [replication], stream)[0])


def _generators(seeds, spawn: int | None = None):
    """One Generator, re-keyed in turn to the Philox stream of each seed.

    Stream j is that of ``Philox(SeedSequence(seeds[j], spawn_key=(spawn,)))``:
    its key is the seed sequence's first two uint64 words and its counter and
    buffer start empty.  All keys come from one hash call.
    """
    keys = _uint64(_seed_words((seeds,), 4, spawn))
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    empty = np.zeros(4, np.uint64)
    for key in keys:
        bitgen.state = {
            "bit_generator": "Philox",
            "state": {"counter": empty, "key": key},
            "buffer": empty,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield gen


def _normals(seeds, size: int, spawn: int | None = None) -> np.ndarray:
    """Standard normals, row j drawn from the Philox stream of ``seeds[j]``."""
    out = np.empty((len(seeds), size))
    for row, gen in zip(out, _generators(seeds, spawn)):
        gen.standard_normal(out=row)
    return out


def _spot_variance(vol: VolModel, fine_times: np.ndarray, seeds) -> np.ndarray:
    """Fine-grid spot variance: a row per seed for OU, one row shared by all seeds otherwise."""
    if isinstance(vol, ConstantVol):
        return np.full((1, len(fine_times)), float(vol.level))
    if isinstance(vol, PiecewiseVol):
        idx = np.searchsorted(np.array(vol.breakpoints), fine_times, side="right")
        return np.asarray(vol.levels, dtype=float)[idx][np.newaxis]
    # OU state on the fine grid, driven by an independent sub-stream and
    # stepped for all seeds at once; the spot variance is the squared state,
    # hence nonnegative by construction.
    n_steps = len(fine_times) - 1
    dt = 1.0 / n_steps
    shocks = _normals(seeds, n_steps, spawn=1).T * np.sqrt(dt)
    state = np.empty((n_steps + 1, len(seeds)))
    state[0] = vol.initial_level
    for i in range(n_steps):
        state[i + 1] = (
            state[i]
            + vol.reversion_rate * (vol.mean_level - state[i]) * dt
            + vol.vol_of_vol * shocks[i]
        )
    return (state**2).T.copy()


def _true_integrated_vol(vol: VolModel, spot: np.ndarray) -> np.ndarray:
    """Exact integrated variance of each spot row (trapezoid rule for OU)."""
    if isinstance(vol, ConstantVol):
        return np.full(len(spot), float(vol.level))
    if isinstance(vol, PiecewiseVol):
        edges = np.array((0.0,) + vol.breakpoints + (1.0,))
        return np.full(len(spot), float(np.sum(np.asarray(vol.levels) * np.diff(edges))))
    return _trapezoid(spot, dx=1.0 / (spot.shape[1] - 1), axis=1)


def _latent_block(vol: VolModel, drift: DriftModel, n: int, refinement: int, seeds):
    """(Euler-Maruyama increments on n * refinement steps, spot variance, truths), per seed."""
    if refinement < 1:
        raise InvalidParameter(f"refinement must be >= 1, got {refinement}")
    n_fine = n * refinement
    spot = _spot_variance(vol, np.arange(n_fine + 1) / n_fine, seeds)
    dt = 1.0 / n_fine
    if spot.any():
        dx = _normals(seeds, n_fine, spawn=0 if isinstance(vol, OrnsteinUhlenbeckVol) else None)
        dx *= np.sqrt(spot[:, :-1] * dt)
    else:  # zero variance everywhere: the shocks would all be scaled to zero
        dx = np.zeros((len(seeds), n_fine))
    dx += (drift.level if isinstance(drift, ConstantDrift) else 0.0) * dt
    return dx, spot, np.broadcast_to(_true_integrated_vol(vol, spot), len(seeds))


def _noise_block(noise: NoiseModel, n: int, seeds) -> np.ndarray:
    """Noise at the n + 1 observation times, a row per noise seed."""
    v = _normals(seeds, n + 1) * np.sqrt(noise.variance)
    if not noise.include_initial:
        v[:, 0] = 0.0
    if not noise.include_terminal:
        v[:, -1] = 0.0
    return v


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
    dx, spot, truths = _latent_block(vol, drift, scheme.n, refinement, [rng_seed])
    n_fine = dx.shape[1]
    return LatentPath(
        fine_times=np.arange(n_fine + 1) / n_fine,
        values=np.concatenate(([0.0], np.cumsum(dx[0]))),
        spot_variance=spot[0],
        true_integrated_vol=float(truths[0]),
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
    rng = next(_generators([rng_seed]))
    dw = rng.standard_normal((n_fine, sigma.shape[1])) * np.sqrt(dt)
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
    v = _noise_block(noise, scheme.n, [rng_seed])[0]
    return ObservationSeries(
        times=scheme.times(),
        values=latent + v,
        latent=latent,
        noise=v,
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
    finite number, or times that do not strictly increase.
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
