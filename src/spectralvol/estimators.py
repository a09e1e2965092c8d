"""Spectral estimators of integrated volatility and their pure-noise functionals.

All real-valued estimators are one construction: project the increment
vector of each asset onto the first few columns of an orthogonal
trigonometric basis, average the squared (or cross-) coefficients, and
scale; each projection is one FFT (:func:`basis.basis_coefficients`).  One
table, ``_REAL_FORMS``, holds what tells them apart -- the basis, the number
of columns at cutoff m and the shift s of the scale sqrt(n + s), which makes
the prefactor (n + s)/columns:

* :func:`siml` -- shifted-cosine basis, m columns, prefactor n/m;
* :func:`mm_fourier_real_zero` -- real Fourier basis on an odd equidistant
  grid, columns l = 0..2m, prefactor n/(2m+1);
* :func:`ina` -- sine basis, m columns, prefactor (n+1)/m (robust to noise
  on the first observation);
* :func:`mm_fourier_complex` -- the complex-exponential form of the Fourier
  coefficient estimator on arbitrary grids, whose q = 0 value coincides with
  :func:`mm_fourier_real_zero` on the odd equidistant grid.

:func:`noise_functional` applies an estimator's quadratic form to a raw
noise vector (latent price identically zero), and
:func:`noise_expectation_exact` gives its exact expectation in O(m) from the
gaps and end rows of :func:`basis.spectrum`.  It is the single source of
truth for the noise floors of the cosine and Fourier forms (>= nu/2 and
>= 2 nu with noisy end points) and the vanishing noise term of the sine form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .basis import BasisKind, _basis_tables, basis_coefficients, basis_columns, spectrum
from .errors import (
    CutoffTooLarge,
    EmptyInput,
    EvenLength,
    InvalidParameter,
    ResultOverflow,
    _index,
    _real_array,
)
from .market import ObservationSeries, _nonnegative

__all__ = [
    "EstimatorKind",
    "EstimateResult",
    "siml",
    "mm_fourier_complex",
    "mm_fourier_real_zero",
    "ina",
    "noise_functional",
    "noise_expectation_exact",
    "result_csv_rows",
]


class EstimatorKind(str, Enum):
    SIML = "siml"
    MM_FOURIER_COMPLEX = "mm_fourier_complex"
    MM_FOURIER_REAL_ZERO = "mm_fourier_real_zero"
    INA_SINE = "ina_sine"


@dataclass(frozen=True)
class EstimateResult:
    """A J x J integrated-volatility estimate with its tuning parameters; its value is finite."""

    kind: EstimatorKind
    n_per_asset: tuple[int, ...]
    m: int
    value: np.ndarray
    q: int | None = None

    def __post_init__(self):
        if not np.all(np.isfinite(self.value)):
            raise ResultOverflow("the estimate overflows float64 at the data's scale")


def _as_delta_list(deltas) -> list[np.ndarray]:
    if isinstance(deltas, np.ndarray) and deltas.ndim == 1:
        deltas = [deltas]
    out = [_real_array(d, "increments") for d in deltas]
    if not out or any(d.size == 0 for d in out):
        raise EmptyInput("increment input is empty")
    return out


def _bilinear(weighted: list[np.ndarray], denom: int) -> np.ndarray:
    w = np.vstack(weighted)
    return (w @ w.T) / denom


# Each real kind's quadratic form: its basis, its column count
# ``per_mode * m + constant`` at cutoff m, and the shift s of its scale
# sqrt(n + s) on n increments.  The prefactor is (n + s) / columns.
_REAL_FORMS: dict[EstimatorKind, tuple[BasisKind, int, int, int]] = {
    EstimatorKind.SIML: (BasisKind.SIML_COSINE, 1, 0, 0),
    EstimatorKind.MM_FOURIER_REAL_ZERO: (BasisKind.FOURIER_REAL, 2, 1, 0),
    EstimatorKind.INA_SINE: (BasisKind.DST_SINE, 1, 0, 1),
}


def _form(kind: EstimatorKind, n: int, m: int) -> tuple[BasisKind, int, int]:
    """Basis, column count and scale shift of a real kind's form on n increments at cutoff m.

    Raises :class:`InvalidParameter` for a complex kind, an n or m that is
    not an integer or a cutoff that leaves no column, :class:`EvenLength` for
    the Fourier form on even n and :class:`CutoffTooLarge` for more columns
    than increments.
    """
    kind, n, m = EstimatorKind(kind), _index(n, "n"), _index(m, "m")
    if kind not in _REAL_FORMS:
        raise InvalidParameter(f"{kind.value} is not one of the real-valued kinds")
    basis, per_mode, constant, shift = _REAL_FORMS[kind]
    columns = per_mode * m + constant
    if columns < 1:
        raise InvalidParameter(f"m={m} leaves no {basis.value} basis column")
    if basis is BasisKind.FOURIER_REAL and n % 2 == 0:
        raise EvenLength(f"need an odd number of increments, got {n}")
    if columns > n:
        raise CutoffTooLarge(f"m={m} needs {columns} {basis.value} basis columns, more than n={n}")
    return basis, columns, shift


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused by EstimateResult
def _real_estimate(kind: EstimatorKind, deltas, m: int) -> EstimateResult:
    """A real kind's estimate from the first columns of its basis, scaled by its form.

    Entry (j, j') is sqrt((n_j + s)(n_j' + s)) / columns times the inner
    product of the two assets' coefficients; with equal sample sizes this
    is the plain (n + s)/columns prefactor.
    """
    ds = _as_delta_list(deltas)
    weighted = []
    for d in ds:
        basis, columns, shift = _form(kind, len(d), m)
        weighted.append(np.sqrt(len(d) + shift) * basis_coefficients(basis, d, columns))
    return EstimateResult(
        kind=EstimatorKind(kind),
        n_per_asset=tuple(len(d) for d in ds),
        m=m,
        value=_bilinear(weighted, columns),
    )


def siml(deltas, m: int) -> EstimateResult:
    """Cosine-basis estimator: (n/m) * sum of the first m squared coefficients."""
    return _real_estimate(EstimatorKind.SIML, deltas, m)


def ina(deltas, m: int) -> EstimateResult:
    """Sine-basis estimator: ((n+1)/m) * sum of the first m squared coefficients."""
    return _real_estimate(EstimatorKind.INA_SINE, deltas, m)


def mm_fourier_real_zero(deltas, m: int) -> EstimateResult:
    """Real Fourier estimator on the odd equidistant grid t_k = k/n_obs.

    Uses basis columns l = 0..2m (constant plus m sine/cosine pairs) with
    prefactor n_obs/(2m+1); row k-1 of the basis multiplies the k-th
    increment, matching the left-end-point convention of the complex form.
    """
    return _real_estimate(EstimatorKind.MM_FOURIER_REAL_ZERO, deltas, m)


# Times within this many ulps of k/n count as the grid t_k = k/n: np.linspace
# and k * (1/n) miss k/n by an ulp at some points.
_GRID_ULPS = 4


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused by EstimateResult
def mm_fourier_complex(
    obs: Sequence[ObservationSeries] | ObservationSeries, q: int, m: int
) -> EstimateResult:
    """Fourier-coefficient estimator from complex exponentials on arbitrary grids.

    Entry (j, j') is the average over |l| <= m of
    ``F_j(l+q) * F_j'(-l)`` where ``F_j(u) = sum_k exp(2 pi i u t_{k-1}) dY_k``.
    Only F_j(0..m+|q|) are computed; the negative frequencies follow by
    conjugation; on the grid t_k = k/n, to within a few ulps of each time
    (as ``np.linspace`` gives it), they are one inverse DFT,
    F(u) = n ifft(dY)[u mod n].  For q = 0 the diagonal entries are exactly
    real.  Raises :class:`InvalidParameter` for non-finite or non-real input, times
    that do not strictly increase, an m or q that is not an integer or an
    estimate that overflows, and
    :class:`CutoffTooLarge` when m + |q| exceeds the shortest series' n
    increments: on t_k = k/n the frequencies repeat with period n.
    """
    if isinstance(obs, ObservationSeries):
        obs = [obs]
    obs = list(obs)
    if not obs:
        raise EmptyInput("no observation series given")
    m, q = _index(m, "m"), _index(q, "q")
    if m < 0:
        raise InvalidParameter(f"m must be >= 0, got {m}")
    shortest = min(len(o.values) - 1 for o in obs)
    if shortest < 1:
        raise EmptyInput("observation series has fewer than 2 points")
    for o in obs:
        values, times = _real_array(o.values, "values"), _real_array(o.times, "times")
        if not (np.all(np.isfinite(values)) and np.all(np.isfinite(times))
                and np.all(np.diff(times) > 0)):
            raise InvalidParameter("values and times must be finite, times strictly increasing")
    # Real increments give F(-u) = conj(F(u)): compute u = 0..top only.
    top = m + abs(q)
    if top > shortest:
        raise CutoffTooLarge(f"m + |q| = {top} exceeds the {shortest} increments of a series")

    def transform(o: ObservationSeries) -> np.ndarray:
        """F(u) for u = -top..top, at index u + top."""
        dy = np.diff(o.values)
        n = len(dy)
        grid = np.arange(n + 1) / n
        if np.all(np.abs(o.times - grid) <= _GRID_ULPS * np.spacing(grid)):
            half = np.fft.ifft(dy, norm="forward")[np.arange(top + 1) % n]
        else:
            half = np.exp(2j * np.pi * np.outer(np.arange(top + 1), o.times[:-1])) @ dy
        return np.concatenate((np.conj(half[:0:-1]), half))

    ls = np.arange(-m, m + 1)
    spectra = [transform(o) for o in obs]
    left = [f[top + q + ls] for f in spectra]
    right = [f[top + ls] for f in spectra]
    j_count = len(obs)
    value = np.empty((j_count, j_count), dtype=complex)
    for j in range(j_count):
        for jp in range(j_count):
            # F_j(l+q) * conj(F_j'(l)), spelled out in real arithmetic so that
            # its imaginary part is exactly 0 when j = j' and q = 0.
            a, b = left[j], right[jp]
            re = np.sum(a.real * b.real + a.imag * b.imag)
            im = np.sum(a.imag * b.real - a.real * b.imag)
            value[j, jp] = complex(re, im) / (2 * m + 1)
    return EstimateResult(
        kind=EstimatorKind.MM_FOURIER_COMPLEX,
        n_per_asset=tuple(len(o.values) - 1 for o in obs),
        m=m,
        value=value,
        q=q,
    )


def _form_columns(kind: EstimatorKind, n: int, m: int):
    """Row builder, column count and prefactor of a kind's quadratic form on n increments.

    ``build(lo, hi, out=None)`` returns basis rows lo..hi-1 of the form's
    columns (written into ``out`` when given), looked up in one-period
    tables built once here.
    """
    basis, columns, shift = _form(kind, n, m)
    tables = _basis_tables(basis, n)

    def build(lo: int, hi: int, out: np.ndarray | None = None) -> np.ndarray:
        return basis_columns(basis, n, columns, out, (lo, hi), tables)

    return build, columns, (n + shift) / columns


@np.errstate(over="ignore", invalid="ignore")  # a difference that overflows is refused
def noise_functional(kind: EstimatorKind, noise: np.ndarray, m: int) -> float:
    """The estimator's quadratic form on a raw noise vector v_0..v_N: its estimate from diff(v).

    This is exactly the random variable whose expectation the noise-floor
    and noise-decay bounds control; the latent price is identically zero.
    """
    v = _real_array(noise, "noise")
    if v.size < 2:
        raise EmptyInput("noise vector needs at least 2 points")
    return float(_real_estimate(kind, np.diff(v), m).value[0, 0])


# The oracle's corner as a u.u + b v.v - c |u - v|^2, weights (a, b, c): so
# spelled, 2 u.v less the excluded ends loses no small gap to rounding.
_CORNERS = {BasisKind.SIML_COSINE: (1, 0, 0),  # e_1 e_1^T
            BasisKind.FOURIER_REAL: (1, 1, 1),  # e_1 e_n^T + e_n e_1^T
            BasisKind.DST_SINE: (0, 0, 0)}


def noise_expectation_exact(
    kind: EstimatorKind,
    n: int,
    m: int,
    variance: float,
    include_initial: bool = True,
    include_terminal: bool = True,
) -> float:
    """Exact expectation of :func:`noise_functional` under i.i.d. N(0, variance) noise.

    The covariance of the noise differences over nu is C = 2I - T, less
    e_1 e_1^T or e_n e_n^T for an excluded initial or terminal noise, with T
    the 0/1 tridiagonal.  The form's basis diagonalizes T plus a corner, so
    with the gaps and basis rows u (row 1) and v (row n) of
    :func:`basis.spectrum` the trace of C over the form's columns is

        sum gaps + corner - [initial out] u.u - [terminal out] v.v,

    the corner being u.u (cosine), 2 u.v (real Fourier) or 0 (sine).  O(m):
    nothing longer than the column count is built.  Raises
    :class:`InvalidParameter` for a variance that is not finite and >= 0, or
    an n or m that is not an integer, and :class:`ResultOverflow` when the
    expectation overflows float64.
    """
    if not _nonnegative(variance):
        raise InvalidParameter(f"variance must be finite and >= 0, got {variance}")
    _index(n, "n", 1)
    basis, columns, shift = _form(kind, n, m)
    gaps, u, v = spectrum(basis, n, columns)
    a, b, c = _CORNERS[basis]
    total = (np.sum(gaps) - c * np.sum((u - v) ** 2)
             + (a - (not include_initial)) * (u @ u) + (b - (not include_terminal)) * (v @ v))
    value = (n + shift) / columns * variance * float(total)  # Python floats overflow silently
    if not math.isfinite(value):
        raise ResultOverflow(f"the noise expectation overflows float64 at variance {variance}")
    # A trace of a positive semidefinite form: where it is exactly 0 (one
    # increment with both ends out), rounding must not make it negative.
    return max(value, 0.0)


def result_csv_rows(result: EstimateResult) -> list[str]:
    """Serialize to ``kind,n,m,q,j,jprime,value_re,value_im`` rows, one per pair."""
    rows = []
    q = "" if result.q is None else str(result.q)
    value = np.atleast_2d(result.value)
    for j in range(value.shape[0]):
        for jp in range(value.shape[1]):
            entry = complex(value[j, jp])
            rows.append(
                ",".join(
                    [
                        result.kind.value,
                        str(result.n_per_asset[j]),
                        str(result.m),
                        q,
                        str(j),
                        str(jp),
                        repr(entry.real),
                        repr(entry.imag),
                    ]
                )
            )
    return rows
