"""Monte Carlo studies of the spectral estimators.

Every study is one call of :func:`run_experiment`, which takes the study's
default cutoff exponent, design check, row rule and checks over all rows
from the study table ``_STUDIES``.  :func:`run_consistency`,
:func:`run_normality`, :func:`run_noise_bounds` and
:func:`run_initial_noise_contrast` each name one study and say what it
checks.

Replication r draws its streams from sub-seeds keyed (base_seed, r,
stream), once per run for the largest n; every n reads a prefix of them
(common random numbers), and every configured estimator sees the same
series.  A group of replications draws a tile's path normals and then its
noise normals into one buffer, and each n builds a tile's basis rows
straight into its latent weights.  :func:`check_experiment` refuses a
config whose engine buffers (:func:`_engine_bytes`) would exceed
:data:`MAX_ENGINE_BYTES`.  ``threads`` is accepted but changes nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .basis import basis_columns  # noqa: F401 -- perfbench/tracer.py wraps this name
from .errors import InvalidParameter, ResultOverflow, _index
from .estimators import EstimatorKind, _form, _form_columns, noise_expectation_exact
from .market import (  # noqa: F401 -- derive_seed, observe, simulate_latent: wrapped by perfbench/tracer.py
    NOISE_STREAM,
    PATH_STREAM,
    DriftModel,
    NoiseModel,
    OrnsteinUhlenbeckVol,
    VolModel,
    _TILE_ROWS,
    _TILE_WIDTH,
    _as_piecewise,
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
    "MAX_ENGINE_BYTES",
]

# Replications whose streams stay keyed while they walk the tiles, so that
# each tile of basis columns, built once, serves all of them.  A multiple of
# _TILE_ROWS; it bounds the per-replication state held at once and the
# generators each stream role keeps in its thread's pool.
_LIVE_ROWS = 8 * _TILE_ROWS

#: Bytes a run's buffers (:func:`_engine_bytes`) may take; check_experiment refuses more.
MAX_ENGINE_BYTES = 2**30

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
        schedule = tuple(_index(n, "n_schedule") for n in self.n_schedule)
        object.__setattr__(self, "n_schedule", schedule)
        for name, low in (("replications", 1), ("base_seed", 0), ("refinement", 1), ("threads", 1)):
            _index(getattr(self, name), name, low)
        if not self.kinds or len(set(self.kinds)) < len(self.kinds):
            raise InvalidParameter("kinds must name at least one estimator kind, each once")
        if self.replications > 2**32:
            # replication r keys its streams with r, whose keys collide from 2**32 on
            raise InvalidParameter("replications must be in [1, 2**32]")
        if not self.n_schedule or list(self.n_schedule) != sorted(set(self.n_schedule)):
            raise InvalidParameter("n_schedule must be strictly increasing and non-empty")
        for kind in self.kinds:
            for n in self.n_schedule:
                _form(kind, n, 1)  # m = 1 is the smallest cutoff a run uses

    def cutoff(self, n: int, default_exponent: float) -> int:
        alpha = self.m_exponent if self.m_exponent is not None else default_exponent
        try:
            m = int(math.floor(n**alpha))
        except (ArithmeticError, ValueError):  # n^alpha overflows a float, or is nan
            raise InvalidParameter(f"cutoff rule n^{alpha} is out of range at n={n}") from None
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

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ResultOverflow(f"{self.kind} at n={self.n}: {name} is {value}; the "
                                     "results overflow float64 at the config's scales")


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


def _study_name(experiment: str) -> str:
    """``experiment``, once it names a study; :class:`InvalidParameter` lists them otherwise."""
    if experiment in _STUDIES:
        return experiment
    raise InvalidParameter(f"unknown experiment {experiment!r}; expected one of {sorted(_STUDIES)}")


def check_experiment(experiment: str, config: ExperimentConfig) -> tuple[int, ...]:
    """The cutoff m at each n of the schedule, once ``experiment`` is known to run.

    Raises :class:`InvalidParameter`, before any simulation, for an unknown
    study, a design the study does not support, a cutoff that needs more
    basis columns than there are increments for some kind at some n, or
    buffers larger than :data:`MAX_ENGINE_BYTES`.
    """
    alpha, design, _, _ = _STUDIES[_study_name(experiment)]
    if config.replications < 2:
        raise InvalidParameter("a study needs at least 2 replications for its standard errors")
    design(config)
    cutoffs = tuple(config.cutoff(n, alpha) for n in config.n_schedule)
    need = _engine_bytes(config, cutoffs)  # checks each kind's columns at each n first
    if need > MAX_ENGINE_BYTES:
        mib = need / 2**20 if need < 2**1000 else math.inf
        raise InvalidParameter(f"the run's buffers would take {mib:.3g} MiB, more than the "
                               f"{MAX_ENGINE_BYTES >> 20} MiB of experiments.MAX_ENGINE_BYTES")
    return cutoffs


def _engine_bytes(config: ExperimentConfig, cutoffs: tuple[int, ...]) -> int:
    """Bytes of the buffers :func:`_run_replications` holds for ``config``, from the config alone.

    A group's draw buffer, whose rows hold a tile's path normals and then
    its noise normals (OU: ``refinement`` normals per observed step, a row of
    state shocks, the state, its squared copy and the trapezoid's sums); per
    n, the latent and noise weights, two lookup temporaries, the coefficients
    and their sum, tables of at most 2(2n+1) floats per kind and the n step
    scales of deterministic volatility; per replication its truths and
    seeds; and per live replication and stream a generator of about 640
    bytes.  The generators persist per thread across runs, at most
    _LIVE_ROWS per stream role (market._generators); they are counted
    whether or not this run builds them.
    """
    reps = config.replications
    ou = isinstance(config.vol, OrnsteinUhlenbeckVol)
    r = config.refinement if ou else 1
    width = min(config.n_schedule[-1], _TILE_WIDTH)
    floats = min(_TILE_ROWS, reps) * (1 + 4 * ou) * max(width * r, width + 1)
    floats += reps * (len(config.n_schedule) + 8) + min(_LIVE_ROWS, reps) * 80 * (2 + ou)
    for n, m in zip(config.n_schedule, cutoffs):
        columns = sum(_form(kind, n, m)[1] for kind in config.kinds)
        w = min(n, _TILE_WIDTH)
        floats += (4 * w + 1 + 3 * reps) * columns + (not ou) * n
        floats += len(config.kinds) * 2 * (2 * n + 1)
    return 8 * floats


def _run_replications(config: ExperimentConfig, cutoffs: tuple[int, ...]) -> list[dict]:
    """All replications at every n of the schedule, at cutoff ``cutoffs[i]`` for the i-th n.

    Replications run in live blocks of _LIVE_ROWS, whose streams stay keyed
    while the block walks the tiles of the largest n; the samplers size the
    rest, and take each block's generators and state as it starts.  For each
    tile, every n that reaches it builds the matching rows of its kinds'
    basis columns once, side by side, from tables built once per run,
    straight into its latent weights: one row per observed step.  Its noise
    weights and drift offset are taken from these rows before they are
    scaled in place into latent weights.  Then each group of up to
    _TILE_ROWS replications of the block draws the tile's path normals,
    every such n adds their products with its latent weights to its
    coefficients ``dX @ cols``, and the group draws its noise normals into
    the same buffer for ``dV @ cols``.  Returns one result per n, in
    schedule order.
    """
    kinds, reps = config.kinds, config.replications
    sizes = []
    for n, m in zip(config.n_schedule, cutoffs):
        forms = [_form_columns(kind, n, m) for kind in kinds]
        edges = np.cumsum([0] + [columns for _, columns, _ in forms])
        w = min(n, _TILE_WIDTH)
        sizes.append({
            "n": n,
            "forms": [(build, slice(lo, hi), pref) for (build, _, pref), lo, hi in
                      zip(forms, edges, edges[1:])],
            "latent": np.empty((w, edges[-1])),
            "noise": np.empty((w + 1, edges[-1])),
            "coef": np.zeros((2, reps, edges[-1])),  # dX @ cols, then dV @ cols
        })

    path_seeds, noise_seeds = (
        _derive_seeds(config.base_seed, np.arange(reps), s) for s in (PATH_STREAM, NOISE_STREAM)
    )
    latent = _LatentTiles(config.vol, config.drift, [s["n"] for s in sizes], config.refinement,
                          path_seeds)
    # the noise normals go where the path normals were, once their products are added
    noisy = _NoiseTiles(config.noise, noise_seeds, latent.raw[0])
    truths = np.empty((len(sizes), reps))
    for block in range(0, reps, _LIVE_ROWS):
        stop = min(block + _LIVE_ROWS, reps)
        latent.start(block, stop)
        noisy.start(block, stop)
        for lo, hi in _tiles(sizes[-1]["n"]):
            reached = []  # (grid, width, latent and noise weights, coefficients) of each n
            for i, size in enumerate(sizes):
                n, coef = size["n"], size["coef"]
                if n <= lo:
                    continue
                w = min(hi, n) - lo
                cols = size["latent"][:w]
                for build, at, _ in size["forms"]:
                    build(lo, lo + w, cols[:, at])
                noi = noisy.weights(n, lo, cols, size["noise"])
                if latent.drift_level:  # the same row for every replication
                    coef[0, block:stop] += latent.offset(i, cols)
                lat = None if latent.shocks is None else latent.weights(i, lo, cols)
                reached.append((i, w, lat, noi, coef[:, block:stop]))
            for first in range(0, stop - block, _TILE_ROWS):
                group = slice(first, min(first + _TILE_ROWS, stop - block))
                g = group.stop - first
                latent.draw(group, lo, hi - lo)
                for i, w, lat, _, coef in reached:
                    if lat is not None:
                        coef[0, group] += latent.normals(i, g, w) @ lat
                noisy.draw(group, lo, hi - lo)
                for _, w, _, noi, coef in reached:
                    coef[1, group] += noisy.values[:g, : w + 1] @ noi
        truths[:, block:stop] = latent.truths

    def parts(forms, a, b, scale=1.0):
        return np.array(
            [scale * pref * np.einsum("ij,ij->i", a[:, at], b[:, at]) for _, at, pref in forms]
        )

    results = []
    for size, truth in zip(sizes, truths):
        forms, (wx, wv) = size["forms"], size["coef"]
        wy = wx + wv
        results.append({
            "estimates": parts(forms, wy, wy),
            "noise_parts": parts(forms, wv, wv),
            "cross_parts": parts(forms, wx, wv, 2.0),
            "truths": truth,
        })
    return results


def _consistency_row(row: McRow, config: ExperimentConfig, data: dict, i: int) -> McRow:
    """Flags a bias beyond 2 Monte Carlo standard errors."""
    bound = 2.0 * row.se_mean
    return replace(row, bound_value=bound, bound_satisfied=abs(row.bias) <= bound)


def _rmse_decreasing(rows: list[McRow]) -> tuple[tuple[str, bool], ...]:
    """Whether each kind's RMSE falls at every step of the schedule."""
    rmse: dict[str, list[float]] = {}
    for row in rows:
        rmse.setdefault(row.kind, []).append(row.rmse)
    return tuple((f"rmse_decreasing[{kind}]", all(a > b for a, b in zip(vals, vals[1:])))
                 for kind, vals in rmse.items())


def _limit_variance(config: ExperimentConfig) -> float:
    """Single-asset limit variance 2 * integral of Sigma(s)^2 ds: deterministic vol, > 0, finite."""
    vol = _as_piecewise(config.vol)
    if vol is None:
        raise InvalidParameter("normality runs need a deterministic volatility model")
    edges = np.array((0.0,) + vol.breakpoints + (1.0,))
    with np.errstate(over="ignore"):
        limit = 2.0 * float(np.sum(np.asarray(vol.levels) ** 2 * np.diff(edges)))
    if not 0.0 < limit < math.inf:
        raise InvalidParameter(f"normality runs need a limit variance in (0, inf), got {limit}")
    return limit


def _normality_row(row: McRow, config: ExperimentConfig, data: dict, i: int) -> McRow:
    """First four moments of sqrt(m) (V - truth) / sqrt(limit variance), flagged against N(0, 1)."""
    x = np.sqrt(row.m) * (data["estimates"][i] - data["truths"]) / np.sqrt(_limit_variance(config))
    mean = float(np.mean(x))
    centered = x - mean
    # numpy scalars: a power that overflows is inf (refused by McRow), not an OverflowError
    m2, m3, m4 = (np.mean(centered**p) for p in (2, 3, 4))
    var = float(np.var(x, ddof=1))
    return replace(row, std_err_mean=mean, std_err_var=var, std_err_skew=float(m3 / m2**1.5),
                   std_err_kurt=float(m4 / m2**2),
                   bound_satisfied=abs(mean) <= 0.15 and 0.75 <= var <= 1.30)


def _with_noise(row: McRow, config: ExperimentConfig, data: dict, i: int) -> McRow:
    """``row`` with the Monte Carlo mean of its noise functional and the oracle's exact value."""
    noise = config.noise
    exact = noise_expectation_exact(config.kinds[i], row.n, row.m, noise.variance,
                                    noise.include_initial, noise.include_terminal)
    return replace(row, noise_mc_mean=float(np.mean(data["noise_parts"][i])), noise_exact=exact)


def _pure_noise(config: ExperimentConfig) -> None:
    vol = _as_piecewise(config.vol)
    if vol is None or any(vol.levels) or getattr(config.drift, "level", 0.0):
        raise InvalidParameter("noise-bound runs use the pure-noise design: zero volatility and "
                               "zero drift")


def _noise_bounds_row(row: McRow, config: ExperimentConfig, data: dict, i: int) -> McRow:
    """Checks the exact and the Monte Carlo noise expectation against the kind's bound."""
    n, m, kind, noise, nu = row.n, row.m, config.kinds[i], config.noise, config.noise.variance
    row = _with_noise(row, config, data, i)
    if kind is EstimatorKind.SIML:
        bound = 0.5 * nu if noise.include_initial else 0.0
    elif kind is EstimatorKind.MM_FOURIER_REAL_ZERO:
        bound = nu * (int(noise.include_initial) + int(noise.include_terminal))
    else:
        weights = (m + 1) * (2 * m + 1) / 6  # the mean of l^2 over l = 1..m, exactly rounded
        bound = 2.0 * nu * math.pi**2 * (1.0 / (n + 1) + 1.0 / (n + 1) ** 2) * weights
        ok = row.noise_exact <= bound + 1e-12 and row.mean <= bound + 4.0 * row.se_mean
        return replace(row, bound_value=bound, bound_satisfied=ok)
    ok = row.noise_exact >= bound - 1e-12 and row.mean >= bound - 4.0 * row.se_mean
    return replace(row, bound_value=bound, bound_satisfied=ok)


def _initial_noise(config: ExperimentConfig) -> None:
    if not config.noise.include_initial:
        raise InvalidParameter("contrast runs need noise on the initial observation")


def _contrast_row(row: McRow, config: ExperimentConfig, data: dict, i: int) -> McRow:
    """Adds the noise and cross terms; flags the cosine floor or the sine kind's bias."""
    cross = data["cross_parts"][i]
    if config.kinds[i] is EstimatorKind.SIML:
        bound = 0.5 * config.noise.variance
        ok = row.bias >= bound - 4.0 * row.se_mean
    else:
        bound = (2.0 if row.n == config.n_schedule[-1] else 4.0) * row.se_mean
        ok = abs(row.bias) <= bound
    return replace(_with_noise(row, config, data, i), cross_mean=float(np.mean(cross)),
                   cross_se=float(np.std(cross, ddof=1) / np.sqrt(len(cross))),
                   bound_value=bound, bound_satisfied=ok)


# Each study: the cutoff exponent it uses when the config sets none, the check
# that refuses a design it does not support, the rule that completes a (kind,
# n) row from its error statistics, and the checks it makes over all rows.
_STUDIES: dict[str, tuple[float, Callable, Callable, Callable]] = {
    "consistency": (0.4, lambda config: None, _consistency_row, _rmse_decreasing),
    "normality": (0.35, _limit_variance, _normality_row, lambda rows: ()),
    "noise_bounds": (0.4, _pure_noise, _noise_bounds_row, lambda rows: ()),
    "initial_noise_contrast": (0.4, _initial_noise, _contrast_row, lambda rows: ()),
}


@np.errstate(over="ignore", invalid="ignore")  # McRow refuses a result that overflows
def run_experiment(experiment: str, config: ExperimentConfig) -> McSummary:
    """Run the study named ``experiment``: every ``run_*`` function is this call.

    One :func:`check_experiment` preflight, one engine pass over the
    schedule (:func:`_run_replications`), and for each (kind, n) the error
    statistics of the estimates against the truths, which the study's row
    rule completes.
    """
    cutoffs = check_experiment(experiment, config)
    _, _, complete, checks = _STUDIES[experiment]
    rows = []
    for n, m, data in zip(config.n_schedule, cutoffs, _run_replications(config, cutoffs)):
        truths = data["truths"]
        for i, kind in enumerate(config.kinds):
            estimates = data["estimates"][i]
            errors = estimates - truths
            row = McRow(
                experiment=experiment, kind=kind.value, n=n, m=m, replications=len(errors),
                true_value=float(np.mean(truths)), mean=float(np.mean(estimates)),
                bias=float(np.mean(errors)), rmse=float(np.sqrt(np.mean(errors**2))),
                se_mean=float(np.std(errors, ddof=1) / np.sqrt(len(errors))),
            )
            rows.append(complete(row, config, data, i))
    return McSummary(experiment=experiment, rows=tuple(rows), checks=checks(rows))


def run_consistency(config: ExperimentConfig) -> McSummary:
    """Bias and RMSE along the schedule; flags RMSE monotonicity per kind."""
    return run_experiment("consistency", config)


def run_normality(config: ExperimentConfig) -> McSummary:
    """Moments of standardized errors against the known limit variance."""
    return run_experiment("normality", config)


def run_noise_bounds(config: ExperimentConfig) -> McSummary:
    """Pure-noise design: Monte Carlo noise functionals next to the exact oracle.

    Lower-bound kinds must sit above their floor (exactly, and within 4
    Monte Carlo standard errors empirically); the sine kind must sit below
    its explicit decay bound.
    """
    return run_experiment("noise_bounds", config)


def run_initial_noise_contrast(config: ExperimentConfig) -> McSummary:
    """Cosine-basis bias floor versus sine-basis unbiasedness under initial noise.

    The cosine rows must stay above nu/2 minus 4 standard errors at every n;
    the sine row at the largest n must be unbiased within 2 standard errors
    (4 at smaller n, where the finite-sample noise term is still visible).
    """
    return run_experiment("initial_noise_contrast", config)
