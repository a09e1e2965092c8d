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
Monte Carlo replications can run in any order or in parallel.
"""

from __future__ import annotations

import csv
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


@dataclass(frozen=True)
class ConstantVol:
    """Constant spot variance ``level`` per unit time."""

    level: float

    def __post_init__(self):
        if self.level < 0:
            raise InvalidParameter(f"variance level must be >= 0, got {self.level}")


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
        if any(lv < 0 for lv in lvs):
            raise InvalidParameter("variance levels must be >= 0")
        edges = (0.0,) + bps + (1.0,)
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise InvalidParameter("breakpoints must be strictly increasing inside (0, 1)")


@dataclass(frozen=True)
class OrnsteinUhlenbeckVol:
    """Spot variance is the square of an OU state driven by its own Brownian motion."""

    mean_level: float
    reversion_rate: float
    vol_of_vol: float
    initial_level: float

    def __post_init__(self):
        if self.reversion_rate < 0 or self.vol_of_vol < 0:
            raise InvalidParameter("reversion_rate and vol_of_vol must be >= 0")


VolModel = Union[ConstantVol, PiecewiseVol, OrnsteinUhlenbeckVol]


@dataclass(frozen=True)
class ZeroDrift:
    pass


@dataclass(frozen=True)
class ConstantDrift:
    level: float


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
        if self.variance < 0:
            raise InvalidParameter(f"noise variance must be >= 0, got {self.variance}")
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


def derive_seed(base_seed: int, replication: int, stream: int) -> int:
    """Deterministic 64-bit sub-seed keyed by (base_seed, replication, stream)."""
    ss = np.random.SeedSequence((int(base_seed), int(replication), int(stream)))
    return int(ss.generate_state(1, np.uint64)[0])


def _rng(seed: int, spawn: int | None = None) -> np.random.Generator:
    entropy = int(seed)
    ss = (
        np.random.SeedSequence(entropy)
        if spawn is None
        else np.random.SeedSequence(entropy, spawn_key=(spawn,))
    )
    return np.random.Generator(np.random.Philox(ss))


def _normals(seeds, size: int, spawn: int | None = None) -> np.ndarray:
    """Standard normals, row j drawn from the Philox stream of ``seeds[j]``."""
    out = np.empty((len(seeds), size))
    for row, seed in zip(out, seeds):
        _rng(seed, spawn).standard_normal(out=row)
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
    dx = _normals(seeds, n_fine, spawn=0 if isinstance(vol, OrnsteinUhlenbeckVol) else None)
    dx *= np.sqrt(spot[:, :-1] * dt)
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
    rng = _rng(rng_seed)
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
        times.append(float(row[0]))
        values.append(float(row[1]))
        if has_oracle:
            latent.append(float(row[2]))
            noise.append(float(row[3]))
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
