"""Gaussian quasi-likelihood of spectral increment coefficients.

Working in the cosine-basis spectral domain, the scaled coefficients
``z_k = sqrt(n) * (column_k . dY)`` of equidistant increments are
independent zero-mean Gaussians with variance ``c + a_k * nu`` under the
constant-volatility working model with no noise on the first observation,
where ``a_k`` is n times the k-th cosine gap of :func:`basis.noise_law`
(:func:`a_coefficients`).  The quasi-log-likelihood

    L(c, nu) = -1/2 sum_k [ log(c + a_k nu) + z_k^2 / (c + a_k nu) ]

splits as ``2L = L1(c) + L2(nu) + Lr``: the low-frequency part L1 is
maximized by the cosine-basis volatility estimate (same m), the
high-frequency part L2 by an average of ``z_k^2 / a_k`` over the top l
frequencies, and Lr is the remainder.  :func:`spectral_transform` computes
all n coefficients with one FFT in O(n log n); :func:`joint_mle` maximizes
the full L with c profiled out, a search over the one ratio nu/c whose two
ends, nu = 0 and c = 0, are settled in closed form, and returns asymptotic
standard errors from the inverse Fisher information.  A coefficient vector
must hold n >= 1 finite numbers, and parameters must be finite and sizes
integers: anything else raises one of the package's errors, as does a result
that overflows float64 (:class:`ResultOverflow`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import BasisKind, basis_coefficients, noise_law
from .errors import (
    DegenerateData,
    DegenerateVariance,
    DimensionMismatch,
    EmptyInput,
    InvalidParameter,
    ResultOverflow,
    _index,
    _real_array,
)

__all__ = [
    "SpectralCoefficients",
    "LikelihoodParams",
    "PartitionChoice",
    "LikelihoodDecomposition",
    "MleResult",
    "spectral_transform",
    "a_coefficients",
    "log_likelihood",
    "decompose",
    "maximize_L1",
    "noise_variance_estimate",
    "joint_mle",
]

@dataclass(frozen=True)
class SpectralCoefficients:
    """All n scaled spectral coefficients of an increment vector: n >= 1 finite numbers."""

    z: np.ndarray
    n: int

    def __post_init__(self):
        z = _real_array(self.z, "coefficients")
        if z.ndim != 1 or len(z) < 1 or _index(self.n, "n") != len(z):
            raise DimensionMismatch(f"need a vector of n >= 1 coefficients, got shape {z.shape} "
                                    f"and n={self.n}")
        if not np.all(np.isfinite(z)):
            raise InvalidParameter("coefficients must be finite numbers")
        object.__setattr__(self, "z", z)


@dataclass(frozen=True)
class LikelihoodParams:
    """Working-model parameters: signal variance c and noise variance nu."""

    c: float
    nu: float


def _check_finite(params: LikelihoodParams) -> None:
    if not (math.isfinite(params.c) and math.isfinite(params.nu)):
        raise InvalidParameter(f"c and nu must be finite, got c={params.c}, nu={params.nu}")


def _refuse_overflow(*values: float) -> None:
    if not all(math.isfinite(v) for v in values):
        raise ResultOverflow("the likelihood overflows float64 at the data's scale")


@dataclass(frozen=True)
class PartitionChoice:
    """Low-frequency count m and high-frequency count l of the decomposition."""

    m: int
    l: int


@dataclass(frozen=True)
class LikelihoodDecomposition:
    total: float
    low_frequency: float
    high_frequency: float
    remainder: float
    params: LikelihoodParams
    partition: PartitionChoice

    def __post_init__(self):
        _refuse_overflow(self.total, self.low_frequency, self.high_frequency, self.remainder)


@dataclass(frozen=True)
class MleResult:
    """A joint fit: ``sweeps`` counts profile evaluations (0 on the boundary
    shortcuts); ``std_errors`` are the asymptotic standard errors of (c, nu)."""

    params: LikelihoodParams
    converged: bool
    sweeps: int
    log_likelihood: float
    std_errors: tuple[float, float]

    def __post_init__(self):
        _refuse_overflow(self.params.c, self.params.nu, self.log_likelihood)


@np.errstate(over="ignore", invalid="ignore")  # SpectralCoefficients refuses an overflow
def spectral_transform(deltas: np.ndarray) -> SpectralCoefficients:
    """z_k = sqrt(n) * sum_j p[j,k] dY_j for all n cosine-basis columns.

    The cosine basis is an odd-length DCT, taken by one FFT of length 2n+1
    (:func:`basis.basis_coefficients`, which rejects non-finite input).  By
    orthogonality, ||z||^2 = n ||dY||^2.
    """
    dy = _real_array(deltas, "increments")
    if dy.size == 0:
        raise EmptyInput("increment vector is empty")
    n = len(dy)
    z = math.sqrt(n) * basis_coefficients(BasisKind.SIML_COSINE, dy, n)
    return SpectralCoefficients(z=z, n=n)


def a_coefficients(n: int) -> np.ndarray:
    """a_k = n times the gap of cosine column k, k = 1..n, increasing: with the initial noise
    out and the terminal in, the cosine :func:`basis.noise_law` is diagonal and the model exact."""
    return n * noise_law(BasisKind.SIML_COSINE, n, n, include_initial=False)[0]


def _loglik(a: np.ndarray, z2: np.ndarray, c: float, nu: float) -> float:
    """L(c, nu) from the a_k and the squared coefficients z_k^2; c + a_k nu is not checked."""
    d = c + a * nu
    return float(-0.5 * np.sum(np.log(d)) - 0.5 * np.sum(z2 / d))


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused
def log_likelihood(z: SpectralCoefficients, params: LikelihoodParams) -> float:
    """L(c, nu) = -1/2 sum [log(c + a_k nu) + z_k^2/(c + a_k nu)]; c and nu must be finite."""
    _check_finite(params)
    a = a_coefficients(z.n)
    if np.any(params.c + a * params.nu <= 0):
        raise DegenerateVariance(
            f"c + a_k nu must be positive for all k (c={params.c}, nu={params.nu})"
        )
    value = _loglik(a, z.z**2, params.c, params.nu)
    _refuse_overflow(value)
    return value


@np.errstate(over="ignore", divide="ignore", invalid="ignore")  # an overflow is refused
def decompose(
    z: SpectralCoefficients, params: LikelihoodParams, partition: PartitionChoice
) -> LikelihoodDecomposition:
    """Split 2L into the low-frequency, high-frequency and remainder parts.

    ``L1(c) = -m log c - (1/c) sum_{k<=m} z_k^2`` depends only on the first m
    coefficients; ``L2(nu)`` only on the last l; the remainder is defined as
    ``2L - L1 - L2`` so the identity holds exactly.  Needs finite c and nu
    and integers m and l.
    """
    m, l = _index(partition.m, "m"), _index(partition.l, "l")
    if m < 1 or l < 1 or m + l > z.n:
        raise InvalidParameter(f"need 1 <= m, 1 <= l, m + l <= {z.n}; got m={m}, l={l}")
    _check_finite(params)
    if params.c <= 0:
        raise DegenerateVariance(f"c must be > 0 in the low-frequency part, got {params.c}")
    if params.nu <= 0:
        raise DegenerateVariance(f"nu must be > 0 in the high-frequency part, got {params.nu}")

    a, z2 = a_coefficients(z.n), z.z**2
    total = _loglik(a, z2, params.c, params.nu)
    low = -m * math.log(params.c) - float(np.sum(z2[:m])) / params.c
    a_tail = a[z.n - l :]
    high = -float(np.sum(np.log(a_tail * params.nu))) - float(
        np.sum(z2[z.n - l :] / a_tail)
    ) / params.nu
    return LikelihoodDecomposition(
        total=total,
        low_frequency=low,
        high_frequency=high,
        remainder=2.0 * total - low - high,
        params=params,
        partition=partition,
    )


@np.errstate(over="ignore")  # an overflow is refused
def maximize_L1(z: SpectralCoefficients, m: int) -> float:
    """Closed-form maximizer of the low-frequency part: mean of the first m z_k^2.

    Identical to the cosine-basis volatility estimate with the same cutoff.
    """
    if not 1 <= _index(m, "m") <= z.n:
        raise InvalidParameter(f"need 1 <= m <= {z.n}, got {m}")
    total = float(np.sum(z.z[:m] ** 2))
    if total == 0.0:
        raise DegenerateData("all low-frequency coefficients are zero")
    _refuse_overflow(total)
    return total / m


@np.errstate(over="ignore")  # an overflow is refused
def noise_variance_estimate(z: SpectralCoefficients, l: int) -> float:
    """Closed-form maximizer of the high-frequency part: mean of z_k^2/a_k over the top l."""
    if not 1 <= _index(l, "l") <= z.n:
        raise InvalidParameter(f"need 1 <= l <= {z.n}, got {l}")
    a_tail = a_coefficients(z.n)[z.n - l :]
    total = float(np.sum(z.z[z.n - l :] ** 2 / a_tail))
    if total == 0.0:
        raise DegenerateData("all high-frequency coefficients are zero")
    _refuse_overflow(total)
    return total / l


_RATIO_SPAN = 1e8
_CLIMB_STEP = 2.0
_STEP_TOL = 1e-9
_MAX_ITERATIONS = 100


def _std_errors(a: np.ndarray, c: float, nu: float) -> tuple[float, float]:
    """Square roots of the diagonal of the inverse of the Fisher information in (c, nu),
    1/2 sum_k (1, a_k)^T (1, a_k) / (c + a_k nu)^2: both nan when it is singular or not
    finite, and nan for a parameter on its boundary."""
    w = 0.5 / (c + a * nu) ** 2
    aw = a * w
    i00, i01, i11 = w.sum(), aw.sum(), (a * aw).sum()
    det = i00 * i11 - i01**2
    if not det > 1e-12 * i00 * i11:
        return math.nan, math.nan
    return (
        math.sqrt(i11 / det) if c > 0 else math.nan,
        math.sqrt(i00 / det) if nu > 0 else math.nan,
    )


@np.errstate(over="ignore", divide="ignore", invalid="ignore")  # MleResult refuses an overflow
def joint_mle(z: SpectralCoefficients, init: LikelihoodParams) -> MleResult:
    """Maximizer of the full quasi-log-likelihood over c >= 0, nu >= 0.

    At a ratio rho = nu/c, L peaks in c at c(rho) = mean(z_k^2 w_k),
    w_k = 1/(1 + a_k rho), so the fit maximizes that profile over s = log rho.
    With u_k = 1 - w_k and p_k = z_k^2 w_k / sum_j z_j^2 w_j, its slope in s
    is (n sum p_k u_k - sum u_k)/2 and its curvature
    (n (sum p_k u_k (w_k - u_k) + (sum p_k u_k)^2) - sum u_k w_k)/2.

    Its ends, rho = 0 at (c0, 0) with c0 = mean(z_k^2) and rho -> inf at
    (0, nu0) with nu0 = mean(z_k^2 / a_k), are settled first: an end is
    returned as converged, with ``sweeps`` 0, when L there is at least
    L(init) and the score into the domain, proportional to
    sum a_k (z_k^2 - c0) at (c0, 0) and to sum (z_k^2 - a_k nu0)/(a_k nu0)^2
    at (0, nu0), is not positive; the higher end when both are.

    Otherwise the search climbs from init's ratio in steps of 2 in s until
    the slope changes sign, then takes Newton steps inside that bracket,
    bisecting where one would leave it, until a step moves s by less than
    1e-9 (converged) or for 100 steps; it keeps 1e-8 <= a_k rho <= 1e8 at
    the extreme k.  L need not be concave: an end with a positive score that
    beats the climbed point is climbed from in turn, and returned, flagged
    as not converged, should it still win.  ``sweeps`` counts profile
    evaluations.

    The result never has a lower likelihood than ``init``.  All-zero
    coefficients, where L grows without bound as c and nu go to 0, raise
    :class:`DegenerateData`; a likelihood or parameter that overflows
    float64 raises :class:`ResultOverflow`.  ``std_errors`` are
    :func:`_std_errors` at the result.
    """
    if not (0 < init.c < math.inf and 0 < init.nu < math.inf):
        raise InvalidParameter("initial c and nu must be finite and strictly positive")
    a = a_coefficients(z.n)
    z2 = z.z**2
    c0 = float(np.mean(z2))
    if c0 == 0.0:
        raise DegenerateData("all coefficients are zero: the likelihood has no maximum")
    _refuse_overflow(c0)
    nu0 = float(np.mean(z2 / a))
    lo, hi = math.log(1 / _RATIO_SPAN / a[-1]), math.log(_RATIO_SPAN / a[0])

    def profile(s: float) -> tuple[float, tuple[float, float, float], float, float]:
        """(s, (L, c, nu), slope, curvature) of the profile at s = log rho."""
        rho = math.exp(s)
        w = 1.0 / (1.0 + a * rho)
        u = a * rho * w
        p = z2 * w
        c = float(np.mean(p))
        p /= p.sum()
        pu = float(p @ u)
        slope = 0.5 * (z.n * pu - float(u.sum()))
        curvature = 0.5 * (z.n * (float(p @ (u * (w - u))) + pu**2) - float(u @ w))
        return s, (_loglik(a, z2, c, rho * c), c, rho * c), slope, curvature

    def climb(s: float) -> tuple[tuple[float, float, float], bool, int]:
        """Ascend the profile from s: ((L, c, nu) at the maximum found, converged, evaluations)."""
        points = [profile(s)]
        step = math.copysign(_CLIMB_STEP, points[0][2])
        converged = False
        while points[-1][2] * step > 0:
            s = min(max(s + step, lo), hi)
            if s == points[-1][0]:  # still uphill at the end of the range
                break
            points.append(profile(s))
        else:  # the slope changed sign across the last step, or is 0 or nan
            left, right = min(q[0] for q in points[-2:]), max(q[0] for q in points[-2:])
            s, _, slope, curvature = max(points[-2:], key=lambda q: q[1][0])
            for _ in range(_MAX_ITERATIONS):
                if not abs(slope) > 0:
                    converged = slope == 0
                    break
                left, right = (s, right) if slope > 0 else (left, s)
                target = s - slope / curvature if curvature < 0 else math.nan
                if not left < target < right:
                    target = 0.5 * (left + right)
                move = abs(target - s)
                points.append(profile(target))
                s, _, slope, curvature = points[-1]
                if move < _STEP_TOL:
                    converged = True
                    break
        # Near the maximum L is flat to rounding: a converged climb ends at its last point.
        best = points[-1][1] if converged else max((q[1] for q in points), key=lambda v: v[0])
        return best, converged, len(points)

    start = _loglik(a, z2, init.c, init.nu)
    ends = [
        ((_loglik(a, z2, c0, 0.0), c0, 0.0), float(np.sum(a * (z2 - c0))), lo),
        ((_loglik(a, z2, 0.0, nu0), 0.0, nu0), float(np.sum((z2 - a * nu0) / (a * nu0) ** 2)), hi),
    ]
    settled = [end for end, score, _ in ends if score <= 0.0 and end[0] >= start]
    if settled:
        best, converged, sweeps = max(settled), True, 0
    else:
        best, converged, sweeps = climb(min(max(math.log(init.nu) - math.log(init.c), lo), hi))
        for end, score, s in ends:
            if score > 0.0 and end[0] > best[0]:
                # A local maximum below an end where L still rises into the domain.
                again, again_converged, more = climb(s)
                sweeps += more
                if again[0] > best[0]:
                    best, converged = again, again_converged
                if end[0] > best[0]:
                    best, converged = end, False
        if start > best[0]:  # the profile at init's own ratio can round below L(init)
            best = (start, init.c, init.nu)
    value, c, nu = best
    return MleResult(
        params=LikelihoodParams(c=c, nu=nu),
        converged=converged,
        sweeps=sweeps,
        log_likelihood=value,
        std_errors=_std_errors(a, c, nu),
    )
