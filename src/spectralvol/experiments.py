"""Monte Carlo studies of the spectral estimators.

Every study is one call of :func:`run_experiment`, which takes the study's
default cutoff exponent, design check, row rule and checks over all rows
from the study table ``_STUDIES``; a comment on each entry says what that
study checks.

Replication r draws its streams from sub-seeds keyed (base_seed, r,
stream), once per run for the largest n; every n reads a prefix of them
(common random numbers), and every configured estimator sees the same
series.  The draws, tiles and products are the engine's
(``market._coefficients``); this module gives it each n's basis rows and
turns its coefficients into estimates.  :func:`check_experiment` refuses a
config whose engine buffers (``market._engine_bytes``) would exceed
``market.MAX_BUFFER_BYTES``.  ``threads`` is accepted but changes nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import market
from .basis import basis_columns
from .errors import InvalidParameter, ResultOverflow, _index
from .estimators import _GRID_ULPS, EstimatorKind, _form, noise_expectation_exact
from .market import (  # noqa: F401 -- derive_seed, observe, simulate_latent: wrapped by perfbench/tracer.py
    NOISE_STREAM,
    PATH_STREAM,
    DriftModel,
    NoiseModel,
    VolModel,
    _as_piecewise,
    _derive_seeds,
    derive_seed,
    observe,
    simulate_latent,
)

__all__ = [
    "ExperimentConfig",
    "McRow",
    "McSummary",
    "run_experiment",
    "check_experiment",
    "CSV_COLUMNS",
]

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
        """floor(n^alpha), where n^alpha within _GRID_ULPS ulps of an integer counts as that
        integer: the float power misses an exact power such as 32^0.6 = 8 by an ulp or two."""
        alpha = self.m_exponent if self.m_exponent is not None else default_exponent
        try:
            power = n**alpha
            whole = round(power)
            m = whole if abs(power - whole) <= _GRID_ULPS * math.ulp(whole) else math.floor(power)
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
    buffers larger than ``market.MAX_BUFFER_BYTES``, read when it is called.
    """
    alpha, design, _, _ = _STUDIES[_study_name(experiment)]
    if config.replications < 2:
        raise InvalidParameter("a study needs at least 2 replications for its standard errors")
    design(config)
    cutoffs = tuple(config.cutoff(n, alpha) for n in config.n_schedule)
    columns = [sum(_form(kind, n, m)[1] for kind in config.kinds)
               for n, m in zip(config.n_schedule, cutoffs)]
    need = market._engine_bytes(config.vol, config.n_schedule, config.refinement,
                                config.replications, columns)
    if need > market.MAX_BUFFER_BYTES:
        mib = need / 2**20 if need < 2**1000 else math.inf
        raise InvalidParameter(f"the run's buffers would take {mib:.3g} MiB, more than the "
                               f"{market.MAX_BUFFER_BYTES >> 20} MiB of market.MAX_BUFFER_BYTES")
    return cutoffs


def _run_replications(config: ExperimentConfig, cutoffs: tuple[int, ...]) -> list[dict]:
    """All replications at every n of the schedule, at cutoff ``cutoffs[i]`` for the i-th n.

    One engine call (market._coefficients) gives each n's coefficients
    ``dX @ cols`` and ``dV @ cols`` and the truths; for each tile it reaches,
    it asks for the matching rows of the n's kinds' basis columns, which are
    built side by side from their formula.  Returns one result per n, in
    schedule order.
    """
    reps, ns = config.replications, config.n_schedule
    forms, widths = [], []
    for n, m in zip(ns, cutoffs):
        specs = [_form(kind, n, m) for kind in config.kinds]
        edges = np.cumsum([0] + [columns for _, columns, _ in specs])
        forms.append([(basis, slice(lo, hi), (n + shift) / columns)
                      for (basis, columns, shift), lo, hi in zip(specs, edges, edges[1:])])
        widths.append(edges[-1])

    def rows(i, lo, out):
        for basis, at, _ in forms[i]:
            basis_columns(basis, ns[i], at.stop - at.start, out[:, at], (lo, lo + len(out)))

    path_seeds, noise_seeds = (
        _derive_seeds(config.base_seed, np.arange(reps), s) for s in (PATH_STREAM, NOISE_STREAM)
    )
    coefs, truths = market._coefficients(config.vol, config.drift, config.noise, ns,
                                         config.refinement, path_seeds, noise_seeds, widths, rows)

    def parts(form, a, b, scale=1.0):
        return np.array(
            [scale * pref * np.einsum("ij,ij->i", a[:, at], b[:, at]) for _, at, pref in form]
        )

    results = []
    for form, (wx, wv), truth in zip(forms, coefs, truths):
        wy = wx + wv
        results.append({
            "estimates": parts(form, wy, wy),
            "noise_parts": parts(form, wv, wv),
            "cross_parts": parts(form, wx, wv, 2.0),
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
    # Bias and RMSE along the schedule; each kind's RMSE must fall at every step.
    "consistency": (0.4, lambda config: None, _consistency_row, _rmse_decreasing),
    # Moments of the standardized errors against the known limit variance.
    "normality": (0.35, _limit_variance, _normality_row, lambda rows: ()),
    # Pure noise: the Monte Carlo noise functional beside the exact oracle.  The
    # cosine and Fourier kinds sit above their floor (exactly, and within 4 Monte
    # Carlo SE); the sine kind sits below its explicit decay bound.
    "noise_bounds": (0.4, _pure_noise, _noise_bounds_row, lambda rows: ()),
    # Noise on the initial observation: the cosine rows stay above nu/2 less 4 SE
    # at every n; the sine row is unbiased within 2 SE at the largest n (4 below,
    # where the finite-sample noise term still shows).
    "initial_noise_contrast": (0.4, _initial_noise, _contrast_row, lambda rows: ()),
}


@np.errstate(over="ignore", invalid="ignore")  # McRow refuses a result that overflows
def run_experiment(experiment: str, config: ExperimentConfig) -> McSummary:
    """Run the study named ``experiment``, a key of ``_STUDIES``.

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
