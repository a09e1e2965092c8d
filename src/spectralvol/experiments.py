"""Monte Carlo studies of the spectral estimators.

Four study types are provided, all reporting per-(kind, n) summary rows and
a dictionary of named pass/fail checks:

* :func:`run_consistency` -- bias and RMSE of the estimators along a growing
  sample-size schedule;
* :func:`run_normality` -- first four sample moments of the standardized
  errors sqrt(m) (V - truth) / sqrt(2 c^2);
* :func:`run_noise_bounds` -- pure-noise design (zero volatility): Monte
  Carlo mean of each estimator's noise functional next to its exact
  expectation and the applicable analytic bound;
* :func:`run_initial_noise_contrast` -- cosine-basis versus sine-basis bias
  when the first observation is noisy, on shared data.

Replication r draws its path and noise streams from sub-seeds keyed
(base_seed, r, stream), derived for all replications of a sample size at
once.  Replications run in tiles of _TILE_ROWS replications by _TILE_WIDTH
observed increments: each tile is drawn, scaled in place and multiplied
with the matching rows of all estimators' basis columns (one n x sum(m)
array), and the product is added to the replications' coefficients.  So
the working set does not grow with n, and within a replication every
configured estimator sees the same series.  The exact noise expectations
come from the same basis columns as the estimates.  ``threads`` is accepted
but changes nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis import basis_columns  # noqa: F401 -- perfbench/tracer.py wraps this name
from .errors import InvalidParameter
from .estimators import (  # noqa: F401 -- noise_expectation_exact: wrapped by perfbench/tracer.py
    EstimatorKind,
    _functional_columns,
    _noise_expectation,
    noise_expectation_exact,
)
from .market import (  # noqa: F401 -- derive_seed, observe, simulate_latent: wrapped by perfbench/tracer.py
    NOISE_STREAM,
    PATH_STREAM,
    ConstantVol,
    DriftModel,
    NoiseModel,
    PiecewiseVol,
    VolModel,
    _TILE_WIDTH,
    _derive_seeds,
    _LatentTiles,
    _NoiseTiles,
    _tiles,
    derive_seed,
    observe,
    simulate_latent,
)

__all__ = [
    "ExperimentConfig",
    "McRow",
    "McSummary",
    "run_consistency",
    "run_normality",
    "run_noise_bounds",
    "run_initial_noise_contrast",
    "run_experiment",
    "check_experiment",
    "CSV_COLUMNS",
]

# Replications per tile.  A tile of _TILE_ROWS x _TILE_WIDTH increments and
# the _TILE_WIDTH rows of basis columns it meets fit in cache together.  Fixed,
# like the tile width, so that a replication's coefficients do not depend on
# how many replications run.
_TILE_ROWS = 128

CSV_COLUMNS = [
    "experiment",
    "kind",
    "n",
    "m",
    "replications",
    "true_value",
    "mean",
    "bias",
    "rmse",
    "se_mean",
    "std_err_mean",
    "std_err_var",
    "noise_mc_mean",
    "noise_exact",
    "bound_value",
    "bound_satisfied",
]

_REAL_KINDS = (
    EstimatorKind.SIML,
    EstimatorKind.MM_FOURIER_REAL_ZERO,
    EstimatorKind.INA_SINE,
)


@dataclass(frozen=True)
class ExperimentConfig:
    kinds: tuple[EstimatorKind, ...]
    n_schedule: tuple[int, ...]
    vol: VolModel
    drift: DriftModel
    noise: NoiseModel
    replications: int
    base_seed: int
    m_exponent: float | None = None
    refinement: int = 1
    threads: int = 1

    def __post_init__(self):
        object.__setattr__(self, "kinds", tuple(EstimatorKind(k) for k in self.kinds))
        object.__setattr__(self, "n_schedule", tuple(int(n) for n in self.n_schedule))
        if not self.kinds:
            raise InvalidParameter("at least one estimator kind is required")
        if any(k not in _REAL_KINDS for k in self.kinds):
            raise InvalidParameter("experiments support the real-valued estimator kinds")
        if not 1 <= self.replications <= 2**32:
            # replication r keys its streams with r, whose keys collide from 2**32 on
            raise InvalidParameter("replications must be in [1, 2**32]")
        if not self.n_schedule or list(self.n_schedule) != sorted(set(self.n_schedule)):
            raise InvalidParameter("n_schedule must be strictly increasing and non-empty")
        if self.base_seed < 0:
            raise InvalidParameter("base_seed must be >= 0")
        if self.refinement < 1:
            raise InvalidParameter("refinement must be >= 1")
        if self.threads < 1:
            raise InvalidParameter("threads must be >= 1")
        if EstimatorKind.MM_FOURIER_REAL_ZERO in self.kinds and any(
            n % 2 == 0 for n in self.n_schedule
        ):
            raise InvalidParameter("the real Fourier kind needs odd increment counts")

    def cutoff(self, n: int, default_exponent: float) -> int:
        alpha = self.m_exponent if self.m_exponent is not None else default_exponent
        m = int(math.floor(n**alpha))
        if m < 1:
            raise InvalidParameter(f"cutoff rule n^{alpha} gives m < 1 at n={n}")
        return m


@dataclass(frozen=True)
class McRow:
    experiment: str
    kind: str
    n: int
    m: int
    replications: int
    true_value: float
    mean: float
    bias: float
    rmse: float
    se_mean: float
    std_err_mean: float | None = None
    std_err_var: float | None = None
    std_err_skew: float | None = None
    std_err_kurt: float | None = None
    noise_mc_mean: float | None = None
    noise_exact: float | None = None
    bound_value: float | None = None
    bound_satisfied: bool | None = None
    cross_mean: float | None = None
    cross_se: float | None = None


@dataclass(frozen=True)
class McSummary:
    experiment: str
    rows: tuple[McRow, ...]
    checks: tuple[tuple[str, bool], ...]

    @property
    def all_ok(self) -> bool:
        return all(ok for _, ok in self.checks) and all(
            row.bound_satisfied in (None, True) for row in self.rows
        )

    def write_csv(self, fileobj) -> None:
        def cell(value):
            if value is None:
                return ""
            if isinstance(value, bool):
                return "true" if value else "false"
            if isinstance(value, float):
                return repr(value)
            return str(value)

        fileobj.write(",".join(CSV_COLUMNS) + "\n")
        for row in self.rows:
            fileobj.write(",".join(cell(getattr(row, col)) for col in CSV_COLUMNS) + "\n")


def _column_count(kind: EstimatorKind, m: int) -> int:
    """Basis columns of a kind's quadratic form at cutoff m."""
    return 2 * m + 1 if kind is EstimatorKind.MM_FOURIER_REAL_ZERO else m


def check_experiment(experiment: str, config: ExperimentConfig) -> tuple[int, ...]:
    """The cutoff m at each n of the schedule, once ``experiment`` is known to run.

    Raises :class:`InvalidParameter`, before any simulation, for an unknown
    study, a design the study does not support, or a cutoff that needs more
    basis columns than there are increments for some kind at some n.
    """
    if experiment not in _RUNNERS:
        raise InvalidParameter(
            f"unknown experiment {experiment!r}; expected one of {sorted(_RUNNERS)}"
        )
    if experiment == "normality":
        _limit_variance(config.vol)
    if experiment == "noise_bounds" and not (
        isinstance(config.vol, ConstantVol) and config.vol.level == 0.0
    ):
        raise InvalidParameter("noise-bound runs use the pure-noise design (zero volatility)")
    if experiment == "initial_noise_contrast" and not config.noise.include_initial:
        raise InvalidParameter("contrast runs need noise on the initial observation")
    alpha = _RUNNERS[experiment][1]
    cutoffs = tuple(config.cutoff(n, alpha) for n in config.n_schedule)
    for n, m in zip(config.n_schedule, cutoffs):
        for kind in config.kinds:
            columns = _column_count(kind, m)
            if columns > n:
                raise InvalidParameter(
                    f"cutoff m={m} needs {columns} {kind.value} basis columns, more than n={n}"
                )
    return cutoffs


def _run_replications(
    config: ExperimentConfig,
    n: int,
    m: int,
    want_noise: bool = False,
    want_cross: bool = False,
    want_exact: bool = False,
) -> dict:
    """All replications at one sample size, tile by tile; every kind sees the same data.

    The kinds' basis columns sit side by side in one n x sum(m) array.  A
    tile holds up to _TILE_ROWS replications over _TILE_WIDTH observed
    increments: their latent increments and noise differences are drawn and
    scaled in place, and the tile's product with the matching rows of the
    columns is added to each replication's coefficients.  The estimates need
    only ``(dX + dV) @ cols``; for the noise or cross parts ``dX @ cols``
    and ``dV @ cols`` are accumulated apart.  With ``want_exact``,
    ``noise_exact`` holds each kind's exact noise expectation, from the same
    columns.
    """
    kinds, noise, reps, r = config.kinds, config.noise, config.replications, config.refinement
    edges = np.cumsum([0] + [_column_count(kind, m) for kind in kinds])
    cols = np.empty((n, edges[-1]))
    spans = [
        (slice(lo, hi), _functional_columns(kind, n, m, cols[:, lo:hi])[1])
        for kind, lo, hi in zip(kinds, edges, edges[1:])
    ]
    ends = (noise.include_initial, noise.include_terminal)
    noise_exact = (
        [_noise_expectation(cols[:, at], pref, noise.variance, *ends) for at, pref in spans]
        if want_exact
        else None
    )

    split = want_noise or want_cross
    rows = min(_TILE_ROWS, reps)
    path_seeds, noise_seeds = (
        _derive_seeds(config.base_seed, np.arange(reps), s) for s in (PATH_STREAM, NOISE_STREAM)
    )
    latent = _LatentTiles(config.vol, config.drift, n * r, path_seeds, rows)
    noisy = _NoiseTiles(noise, n, noise_seeds, rows)
    tile = np.empty((2 * rows, _TILE_WIDTH))  # latent increments, then noise differences
    fine = np.empty((rows, _TILE_WIDTH * r)) if r > 1 else None
    v = np.empty((rows, _TILE_WIDTH + 1))
    coef = np.zeros((2 if split else 1, reps, edges[-1]))
    truths = np.empty(reps)
    for first in range(0, reps, rows):
        group = slice(first, min(first + rows, reps))
        g = group.stop - first
        latent.start(first, group.stop)
        noisy.start(first, group.stop)
        for lo, hi in _tiles(n):
            w = hi - lo
            dx, dv = tile[:g, :w], tile[g : 2 * g, :w]
            if r > 1:  # an observed increment sums its r fine increments
                latent.tile(fine[:g, : w * r])
                fine[:g, : w * r].reshape(g, w, r).sum(axis=2, out=dx)
            else:
                latent.tile(dx)
            if lo:
                v[:g, 0] = v[:g, _TILE_WIDTH]
            noisy.tile(v[:g, : w + 1])
            np.subtract(v[:g, 1 : w + 1], v[:g, :w], out=dv)
            if split:
                coef[:, group] += (tile[: 2 * g, :w] @ cols[lo:hi]).reshape(2, g, -1)
            else:
                dx += dv
                coef[0, group] += dx @ cols[lo:hi]
        truths[group] = latent.truths

    wy = coef.sum(axis=0)  # (dX + dV) @ cols
    wx, wv = coef[0], coef[-1]  # dX @ cols and dV @ cols, when split

    def parts(a, b, scale=1.0):
        return np.array(
            [scale * pref * np.einsum("ij,ij->i", a[:, at], b[:, at]) for at, pref in spans]
        )

    return {
        "estimates": parts(wy, wy),
        "noise_parts": parts(wv, wv) if want_noise else None,
        "cross_parts": parts(wx, wv, 2.0) if want_cross else None,
        "truths": truths,
        "noise_exact": noise_exact,
    }


def _error_stats(estimates: np.ndarray, truths: np.ndarray) -> tuple[float, float, float, float, float]:
    errors = estimates - truths
    mean = float(np.mean(estimates))
    bias = float(np.mean(errors))
    rmse = float(np.sqrt(np.mean(errors**2)))
    se = float(np.std(errors, ddof=1) / np.sqrt(len(errors)))
    return mean, bias, rmse, se, float(np.mean(truths))


def _moments(x: np.ndarray) -> tuple[float, float, float, float]:
    mean = float(np.mean(x))
    centered = x - mean
    m2 = float(np.mean(centered**2))
    m3 = float(np.mean(centered**3))
    m4 = float(np.mean(centered**4))
    var = float(np.var(x, ddof=1))
    return mean, var, m3 / m2**1.5, m4 / m2**2


def run_consistency(config: ExperimentConfig) -> McSummary:
    """Bias and RMSE along the schedule; flags RMSE monotonicity per kind."""
    rows: list[McRow] = []
    rmse_by_kind: dict[EstimatorKind, list[float]] = {k: [] for k in config.kinds}
    for n, m in zip(config.n_schedule, check_experiment("consistency", config)):
        data = _run_replications(config, n, m)
        for i, kind in enumerate(config.kinds):
            mean, bias, rmse, se, truth = _error_stats(data["estimates"][i], data["truths"])
            rmse_by_kind[kind].append(rmse)
            rows.append(
                McRow(
                    experiment="consistency",
                    kind=kind.value,
                    n=n,
                    m=m,
                    replications=config.replications,
                    true_value=truth,
                    mean=mean,
                    bias=bias,
                    rmse=rmse,
                    se_mean=se,
                    bound_value=2.0 * se,
                    bound_satisfied=abs(bias) <= 2.0 * se,
                )
            )
    checks = tuple(
        (f"rmse_decreasing[{kind.value}]", all(a > b for a, b in zip(vals, vals[1:])))
        for kind, vals in rmse_by_kind.items()
    )
    return McSummary(experiment="consistency", rows=tuple(rows), checks=checks)


def _limit_variance(vol: VolModel) -> float:
    """Single-asset limit variance 2 * integral of Sigma(s)^2 ds (deterministic vol only)."""
    if isinstance(vol, ConstantVol):
        return 2.0 * vol.level**2
    if isinstance(vol, PiecewiseVol):
        edges = np.array((0.0,) + vol.breakpoints + (1.0,))
        return 2.0 * float(np.sum(np.asarray(vol.levels) ** 2 * np.diff(edges)))
    raise InvalidParameter("normality runs need a deterministic volatility model")


def run_normality(config: ExperimentConfig) -> McSummary:
    """Moments of standardized errors against the known limit variance."""
    cutoffs = check_experiment("normality", config)
    limit_var = _limit_variance(config.vol)
    rows: list[McRow] = []
    for n, m in zip(config.n_schedule, cutoffs):
        data = _run_replications(config, n, m)
        for i, kind in enumerate(config.kinds):
            ests = data["estimates"][i]
            mean, bias, rmse, se, truth = _error_stats(ests, data["truths"])
            std_err = np.sqrt(m) * (ests - data["truths"]) / np.sqrt(limit_var)
            e_mean, e_var, e_skew, e_kurt = _moments(std_err)
            rows.append(
                McRow(
                    experiment="normality",
                    kind=kind.value,
                    n=n,
                    m=m,
                    replications=config.replications,
                    true_value=truth,
                    mean=mean,
                    bias=bias,
                    rmse=rmse,
                    se_mean=se,
                    std_err_mean=e_mean,
                    std_err_var=e_var,
                    std_err_skew=e_skew,
                    std_err_kurt=e_kurt,
                    bound_satisfied=(abs(e_mean) <= 0.15) and (0.75 <= e_var <= 1.30),
                )
            )
    return McSummary(experiment="normality", rows=tuple(rows), checks=())


def _noise_bound(kind: EstimatorKind, n: int, m: int, noise: NoiseModel) -> tuple[float, bool]:
    """(bound value, is_lower_bound) for the pure-noise expectation of each kind."""
    nu = noise.variance
    if kind is EstimatorKind.SIML:
        return (0.5 * nu if noise.include_initial else 0.0), True
    if kind is EstimatorKind.MM_FOURIER_REAL_ZERO:
        ends = int(noise.include_initial) + int(noise.include_terminal)
        return nu * ends, True
    weights = float(np.sum(np.arange(1, m + 1) ** 2)) / m
    bound = 2.0 * nu * math.pi**2 * (1.0 / (n + 1) + 1.0 / (n + 1) ** 2) * weights
    return bound, False


def run_noise_bounds(config: ExperimentConfig) -> McSummary:
    """Pure-noise design: Monte Carlo noise functionals next to the exact oracle.

    Lower-bound kinds must sit above their floor (exactly, and within 4
    Monte Carlo standard errors empirically); the sine kind must sit below
    its explicit decay bound.
    """
    rows: list[McRow] = []
    for n, m in zip(config.n_schedule, check_experiment("noise_bounds", config)):
        data = _run_replications(config, n, m, want_exact=True)
        for i, kind in enumerate(config.kinds):
            mean, bias, rmse, se, truth = _error_stats(data["estimates"][i], data["truths"])
            exact = data["noise_exact"][i]
            bound, is_lower = _noise_bound(kind, n, m, config.noise)
            if is_lower:
                ok = exact >= bound - 1e-12 and mean >= bound - 4.0 * se
            else:
                ok = exact <= bound + 1e-12 and mean <= bound + 4.0 * se
            rows.append(
                McRow(
                    experiment="noise_bounds",
                    kind=kind.value,
                    n=n,
                    m=m,
                    replications=config.replications,
                    true_value=truth,
                    mean=mean,
                    bias=bias,
                    rmse=rmse,
                    se_mean=se,
                    noise_mc_mean=mean,
                    noise_exact=exact,
                    bound_value=bound,
                    bound_satisfied=ok,
                )
            )
    return McSummary(experiment="noise_bounds", rows=tuple(rows), checks=())


def run_initial_noise_contrast(config: ExperimentConfig) -> McSummary:
    """Cosine-basis bias floor versus sine-basis unbiasedness under initial noise.

    The cosine rows must stay above nu/2 minus 4 standard errors at every n;
    the sine row at the largest n must be unbiased within 2 standard errors
    (4 at smaller n, where the finite-sample noise term is still visible).
    """
    cutoffs = check_experiment("initial_noise_contrast", config)
    nu = config.noise.variance
    largest = config.n_schedule[-1]
    rows: list[McRow] = []
    for n, m in zip(config.n_schedule, cutoffs):
        data = _run_replications(
            config, n, m, want_noise=True, want_cross=True, want_exact=True
        )
        for i, kind in enumerate(config.kinds):
            mean, bias, rmse, se, truth = _error_stats(data["estimates"][i], data["truths"])
            noise_mc = float(np.mean(data["noise_parts"][i]))
            exact = data["noise_exact"][i]
            cross = data["cross_parts"][i]
            if kind is EstimatorKind.SIML:
                bound = 0.5 * nu
                ok = bias >= bound - 4.0 * se
            else:
                bound = (2.0 if n == largest else 4.0) * se
                ok = abs(bias) <= bound
            rows.append(
                McRow(
                    experiment="initial_noise_contrast",
                    kind=kind.value,
                    n=n,
                    m=m,
                    replications=config.replications,
                    true_value=truth,
                    mean=mean,
                    bias=bias,
                    rmse=rmse,
                    se_mean=se,
                    noise_mc_mean=noise_mc,
                    noise_exact=exact,
                    bound_value=bound,
                    bound_satisfied=ok,
                    cross_mean=float(np.mean(cross)),
                    cross_se=float(np.std(cross, ddof=1) / np.sqrt(len(cross))),
                )
            )
    return McSummary(experiment="initial_noise_contrast", rows=tuple(rows), checks=())


# Each study's runner and the cutoff exponent it uses when the config sets none.
_RUNNERS: dict[str, tuple[Callable[[ExperimentConfig], McSummary], float]] = {
    "consistency": (run_consistency, 0.4),
    "normality": (run_normality, 0.35),
    "noise_bounds": (run_noise_bounds, 0.4),
    "initial_noise_contrast": (run_initial_noise_contrast, 0.4),
}


def run_experiment(experiment: str, config: ExperimentConfig) -> McSummary:
    check_experiment(experiment, config)
    return _RUNNERS[experiment][0](config)
