"""Spectral estimators of integrated volatility and their pure-noise functionals.

All real-valued estimators share one shape: project the increment vector of
each asset onto the first few columns of an orthogonal trigonometric basis,
average the squared (or cross-) coefficients, and scale:

* :func:`siml` -- shifted-cosine basis, prefactor n/m;
* :func:`mm_fourier_real_zero` -- real Fourier basis on an odd equidistant
  grid, columns l = 0..2m, prefactor n/(2m+1);
* :func:`ina` -- sine basis, prefactor (n+1)/m (robust to noise on the
  first observation);
* :func:`mm_fourier_complex` -- the complex-exponential form of the Fourier
  coefficient estimator on arbitrary grids, whose q = 0 value coincides with
  :func:`mm_fourier_real_zero` on the odd equidistant grid.

:func:`noise_functional` applies an estimator's quadratic form to a raw
noise vector (latent price identically zero), and
:func:`noise_expectation_exact` computes its exact expectation by
conjugating the tridiagonal covariance of noise first differences with the
basis columns.  The expectation oracle is the single source of truth for
the noise floors of the cosine and Fourier forms (>= nu/2 and >= 2 nu with
noisy end points) and the vanishing noise term of the sine form.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .basis import BasisKind, basis_columns
from .errors import (
    CutoffTooLarge,
    EmptyInput,
    EvenLength,
    InvalidParameter,
)
from .market import ObservationSeries

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
    """A J x J integrated-volatility estimate with its tuning parameters."""

    kind: EstimatorKind
    n_per_asset: tuple[int, ...]
    m: int
    value: np.ndarray
    q: int | None = None


def _as_delta_list(deltas) -> list[np.ndarray]:
    if isinstance(deltas, np.ndarray) and deltas.ndim == 1:
        deltas = [deltas]
    out = [np.asarray(d, dtype=float) for d in deltas]
    if not out or any(d.size == 0 for d in out):
        raise EmptyInput("increment input is empty")
    return out


def _bilinear(weighted: list[np.ndarray], denom: int) -> np.ndarray:
    w = np.vstack(weighted)
    return (w @ w.T) / denom


def siml(deltas, m: int) -> EstimateResult:
    """Cosine-basis estimator: (n/m) * sum of the first m squared coefficients.

    Cross-asset entries use the sqrt(n_j n_j') prefactor; with equal sample
    sizes this reduces to the plain n/m form.
    """
    ds = _as_delta_list(deltas)
    if m < 1:
        raise InvalidParameter(f"m must be >= 1, got {m}")
    if m > min(len(d) for d in ds):
        raise CutoffTooLarge(f"m={m} exceeds the smallest increment count")
    weighted = [
        np.sqrt(len(d)) * (basis_columns(BasisKind.SIML_COSINE, len(d), m).T @ d)
        for d in ds
    ]
    value = _bilinear(weighted, m)
    return EstimateResult(
        kind=EstimatorKind.SIML,
        n_per_asset=tuple(len(d) for d in ds),
        m=m,
        value=value,
    )


def ina(deltas, m: int) -> EstimateResult:
    """Sine-basis estimator: ((n+1)/m) * sum of the first m squared coefficients."""
    ds = _as_delta_list(deltas)
    if m < 1:
        raise InvalidParameter(f"m must be >= 1, got {m}")
    if m > min(len(d) for d in ds):
        raise CutoffTooLarge(f"m={m} exceeds the smallest increment count")
    weighted = [
        np.sqrt(len(d) + 1) * (basis_columns(BasisKind.DST_SINE, len(d), m).T @ d)
        for d in ds
    ]
    value = _bilinear(weighted, m)
    return EstimateResult(
        kind=EstimatorKind.INA_SINE,
        n_per_asset=tuple(len(d) for d in ds),
        m=m,
        value=value,
    )


def mm_fourier_real_zero(deltas, m: int) -> EstimateResult:
    """Real Fourier estimator on the odd equidistant grid t_k = k/n_obs.

    Uses basis columns l = 0..2m (constant plus m sine/cosine pairs) with
    prefactor n_obs/(2m+1); row k-1 of the basis multiplies the k-th
    increment, matching the left-end-point convention of the complex form.
    """
    ds = _as_delta_list(deltas)
    if m < 0:
        raise InvalidParameter(f"m must be >= 0, got {m}")
    for d in ds:
        if len(d) % 2 == 0:
            raise EvenLength(f"need an odd number of increments, got {len(d)}")
        if 2 * m + 1 > len(d):
            raise CutoffTooLarge(f"2m+1={2 * m + 1} exceeds increment count {len(d)}")
    weighted = [
        np.sqrt(len(d)) * (basis_columns(BasisKind.FOURIER_REAL, len(d), 2 * m + 1).T @ d)
        for d in ds
    ]
    value = _bilinear(weighted, 2 * m + 1)
    return EstimateResult(
        kind=EstimatorKind.MM_FOURIER_REAL_ZERO,
        n_per_asset=tuple(len(d) for d in ds),
        m=m,
        value=value,
    )


def mm_fourier_complex(
    obs: Sequence[ObservationSeries] | ObservationSeries, q: int, m: int
) -> EstimateResult:
    """Fourier-coefficient estimator from complex exponentials on arbitrary grids.

    Entry (j, j') is the average over |l| <= m of
    ``F_j(l+q) * F_j'(-l)`` where ``F_j(u) = sum_k exp(2 pi i u t_{k-1}) dY_k``.
    Only F_j(0..m+|q|) are computed; the negative frequencies follow by
    conjugation.  For q = 0 the diagonal entries are exactly real.
    """
    if isinstance(obs, ObservationSeries):
        obs = [obs]
    obs = list(obs)
    if not obs:
        raise EmptyInput("no observation series given")
    if m < 0:
        raise InvalidParameter(f"m must be >= 0, got {m}")
    for o in obs:
        if len(o.values) < 2:
            raise EmptyInput("observation series has fewer than 2 points")

    # Real increments give F(-u) = conj(F(u)): exponentiate u = 0..top only.
    top = m + abs(q)

    def spectrum(o: ObservationSeries) -> np.ndarray:
        """F(u) for u = -top..top, at index u + top."""
        dy = np.diff(o.values)
        half = np.exp(2j * np.pi * np.outer(np.arange(top + 1), o.times[:-1])) @ dy
        return np.concatenate((np.conj(half[:0:-1]), half))

    ls = np.arange(-m, m + 1)
    spectra = [spectrum(o) for o in obs]
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


def _functional_columns(
    kind: EstimatorKind, n: int, m: int, out: np.ndarray | None = None
) -> tuple[np.ndarray, float]:
    """Basis columns (written into ``out`` when given) and prefactor of a kind's quadratic form."""
    kind = EstimatorKind(kind)
    if kind is EstimatorKind.SIML:
        if not 1 <= m <= n:
            raise CutoffTooLarge(f"need 1 <= m <= {n}, got m={m}")
        return basis_columns(BasisKind.SIML_COSINE, n, m, out), n / m
    if kind is EstimatorKind.INA_SINE:
        if not 1 <= m <= n:
            raise CutoffTooLarge(f"need 1 <= m <= {n}, got m={m}")
        return basis_columns(BasisKind.DST_SINE, n, m, out), (n + 1) / m
    if kind is EstimatorKind.MM_FOURIER_REAL_ZERO:
        if n % 2 == 0:
            raise EvenLength(f"need an odd number of increments, got {n}")
        if m < 0 or 2 * m + 1 > n:
            raise CutoffTooLarge(f"need 0 <= 2m+1 <= {n}, got m={m}")
        return basis_columns(BasisKind.FOURIER_REAL, n, 2 * m + 1, out), n / (2 * m + 1)
    raise InvalidParameter("noise functionals are defined for the real-valued kinds only")


def noise_functional(kind: EstimatorKind, noise: np.ndarray, m: int) -> float:
    """The estimator's quadratic form applied to a raw noise vector v_0..v_N.

    This is exactly the random variable whose expectation the noise-floor
    and noise-decay bounds control; the latent price is identically zero.
    """
    v = np.asarray(noise, dtype=float)
    if v.size < 2:
        raise EmptyInput("noise vector needs at least 2 points")
    dv = np.diff(v)
    cols, pref = _functional_columns(kind, len(dv), m)
    coef = cols.T @ dv
    return float(pref * np.sum(coef**2))


def noise_expectation_exact(
    kind: EstimatorKind,
    n: int,
    m: int,
    variance: float,
    include_initial: bool = True,
    include_terminal: bool = True,
) -> float:
    """Exact expectation of :func:`noise_functional` under i.i.d. N(0, variance) noise.

    Builds the tridiagonal covariance of noise first differences (2*variance
    on the diagonal, reduced at an end point when that noise is excluded,
    -variance off the diagonal), conjugates it with the estimator's basis
    columns, applies the prefactor and takes the trace.
    """
    if variance < 0:
        raise InvalidParameter(f"variance must be >= 0, got {variance}")
    if n < 1:
        raise InvalidParameter(f"need n >= 1 increments, got {n}")
    cols, pref = _functional_columns(kind, n, m)
    return _noise_expectation(cols, pref, variance, include_initial, include_terminal)


def _noise_expectation(
    cols: np.ndarray, pref: float, variance: float, include_initial: bool, include_terminal: bool
) -> float:
    """:func:`noise_expectation_exact` from the estimator's columns and prefactor."""
    # (C u) for C = 2I - tridiag(1), with end-point reductions, times variance
    cu = 2.0 * cols
    cu[1:, :] -= cols[:-1, :]
    cu[:-1, :] -= cols[1:, :]
    if not include_initial:
        cu[0, :] -= cols[0, :]
    if not include_terminal:
        cu[-1, :] -= cols[-1, :]
    cu *= cols
    return float(pref * variance * np.sum(cu))


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
