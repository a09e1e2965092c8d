"""Gaussian quasi-likelihood of spectral increment coefficients.

Working in the cosine-basis spectral domain, the scaled coefficients
``z_k = sqrt(n) * (column_k . dY)`` of equidistant increments are
independent zero-mean Gaussians with variance ``c + a_k * nu`` under the
constant-volatility working model with no noise on the first observation,
where ``a_k`` is n times the k-th cosine gap of :func:`basis.spectrum`
(:func:`a_coefficients`).  The quasi-log-likelihood

    L(c, nu) = -1/2 sum_k [ log(c + a_k nu) + z_k^2 / (c + a_k nu) ]

splits as ``2L = L1(c) + L2(nu) + Lr``: the low-frequency part L1 is
maximized by the cosine-basis volatility estimate (same m), the
high-frequency part L2 by an average of ``z_k^2 / a_k`` over the top l
frequencies, and Lr is the remainder.  :func:`spectral_transform` computes
all n coefficients with one FFT in O(n log n); :func:`joint_mle` maximizes
the full L by Fisher scoring in (log c, log nu) with step halving, checks
the boundaries nu = 0 and c = 0 in closed form, and returns asymptotic
standard errors from the inverse Fisher information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import BasisKind, basis_coefficients, eigen_gaps
from .errors import (
    DegenerateData,
    DegenerateVariance,
    EmptyInput,
    InvalidParameter,
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
    """All n scaled spectral coefficients of an increment vector."""

    z: np.ndarray
    n: int


@dataclass(frozen=True)
class LikelihoodParams:
    """Working-model parameters: signal variance c and noise variance nu."""

    c: float
    nu: float


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


@dataclass(frozen=True)
class MleResult:
    """A joint fit: ``sweeps`` counts Fisher-scoring iterations (0 on the boundary
    shortcuts); ``std_errors`` are the asymptotic standard errors of (c, nu)."""

    params: LikelihoodParams
    converged: bool
    sweeps: int
    log_likelihood: float
    std_errors: tuple[float, float]


def spectral_transform(deltas: np.ndarray) -> SpectralCoefficients:
    """z_k = sqrt(n) * sum_j p[j,k] dY_j for all n cosine-basis columns.

    The cosine basis is an odd-length DCT, taken by one FFT of length 2n+1
    (:func:`basis.basis_coefficients`, which rejects non-finite input).  By
    orthogonality, ||z||^2 = n ||dY||^2.
    """
    dy = np.asarray(deltas, dtype=float)
    if dy.size == 0:
        raise EmptyInput("increment vector is empty")
    n = len(dy)
    z = math.sqrt(n) * basis_coefficients(BasisKind.SIML_COSINE, dy, n)
    return SpectralCoefficients(z=z, n=n)


def a_coefficients(n: int) -> np.ndarray:
    """a_k = n times the gap of cosine column k (:func:`basis.spectrum`), k = 1..n; increasing."""
    return n * eigen_gaps(BasisKind.SIML_COSINE, n, n)


def _loglik(a: np.ndarray, z2: np.ndarray, c: float, nu: float) -> float:
    """L(c, nu) from the a_k and the squared coefficients z_k^2; c + a_k nu is not checked."""
    d = c + a * nu
    return float(-0.5 * np.sum(np.log(d)) - 0.5 * np.sum(z2 / d))


def log_likelihood(z: SpectralCoefficients, params: LikelihoodParams) -> float:
    """L(c, nu) = -1/2 sum [log(c + a_k nu) + z_k^2/(c + a_k nu)]."""
    a = a_coefficients(z.n)
    if np.any(params.c + a * params.nu <= 0):
        raise DegenerateVariance(
            f"c + a_k nu must be positive for all k (c={params.c}, nu={params.nu})"
        )
    return _loglik(a, z.z**2, params.c, params.nu)


def decompose(
    z: SpectralCoefficients, params: LikelihoodParams, partition: PartitionChoice
) -> LikelihoodDecomposition:
    """Split 2L into the low-frequency, high-frequency and remainder parts.

    ``L1(c) = -m log c - (1/c) sum_{k<=m} z_k^2`` depends only on the first m
    coefficients; ``L2(nu)`` only on the last l; the remainder is defined as
    ``2L - L1 - L2`` so the identity holds exactly.
    """
    m, l = partition.m, partition.l
    if m < 1 or l < 1 or m + l > z.n:
        raise InvalidParameter(f"need 1 <= m, 1 <= l, m + l <= {z.n}; got m={m}, l={l}")
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


def maximize_L1(z: SpectralCoefficients, m: int) -> float:
    """Closed-form maximizer of the low-frequency part: mean of the first m z_k^2.

    Identical to the cosine-basis volatility estimate with the same cutoff.
    """
    if not 1 <= m <= z.n:
        raise InvalidParameter(f"need 1 <= m <= {z.n}, got {m}")
    total = float(np.sum(z.z[:m] ** 2))
    if total == 0.0:
        raise DegenerateData("all low-frequency coefficients are zero")
    return total / m


def noise_variance_estimate(z: SpectralCoefficients, l: int) -> float:
    """Closed-form maximizer of the high-frequency part: mean of z_k^2/a_k over the top l."""
    if not 1 <= l <= z.n:
        raise InvalidParameter(f"need 1 <= l <= {z.n}, got {l}")
    a_tail = a_coefficients(z.n)[z.n - l :]
    total = float(np.sum(z.z[z.n - l :] ** 2 / a_tail))
    if total == 0.0:
        raise DegenerateData("all high-frequency coefficients are zero")
    return total / l


_STEP_CLIP = 10.0
_STEP_TOL = 1e-8
_MAX_ITERATIONS = 500


def _information(a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Fisher information of L in (c, nu): 1/2 sum_k (1, a_k)^T (1, a_k) / d_k^2."""
    w = 0.5 / d**2
    aw = a * w
    return np.array([[w.sum(), aw.sum()], [aw.sum(), (a * aw).sum()]])


def _inverse(info: np.ndarray) -> np.ndarray | None:
    """Inverse of a 2 x 2 information matrix; None when it is singular or not finite."""
    det = info[0, 0] * info[1, 1] - info[0, 1] ** 2
    if not det > 1e-12 * info[0, 0] * info[1, 1]:
        return None
    return np.array([[info[1, 1], -info[0, 1]], [-info[0, 1], info[0, 0]]]) / det


def _std_errors(a: np.ndarray, c: float, nu: float) -> tuple[float, float]:
    inv = _inverse(_information(a, c + a * nu))
    if inv is None:
        return math.nan, math.nan
    return (
        math.sqrt(inv[0, 0]) if c > 0 else math.nan,
        math.sqrt(inv[1, 1]) if nu > 0 else math.nan,
    )


def joint_mle(z: SpectralCoefficients, init: LikelihoodParams) -> MleResult:
    """Fisher-scoring maximizer of the full quasi-log-likelihood.

    Works in theta = (log c, log nu).  With d_k = c + a_k nu, Jacobian rows
    J_k = (c, a_k nu) and r_k = (z_k^2 - d_k)/d_k^2, the score is
    g = J^T r / 2 and the Fisher information I = (J/d)^T (J/d) / 2.  Each
    iteration moves theta by t I^-1 g, each component clipped to +-10, halving
    t until L does not decrease, and stops once the move is below 1e-8 or
    after 500 iterations.

    On the boundaries nu = 0 and c = 0 the log of that parameter has no
    finite maximizer, so both are settled in closed form first.  L(c, 0)
    peaks at c0 = mean(z_k^2), and (c0, 0) is returned as converged when the
    nu-score there, proportional to sum a_k (z_k^2 - c0), is not positive
    and L(c0, 0) >= L(init).  Likewise L(0, nu) peaks at
    nu0 = mean(z_k^2 / a_k), and (0, nu0) is returned when the c-score
    there, proportional to sum (z_k^2 - a_k nu0) / (a_k nu0)^2, is not
    positive and L(0, nu0) >= L(init).  A boundary point with a positive
    score is not a maximizer; one below L(init) stays below the iterates,
    which never lose likelihood.

    L need not be concave in c: with a positive c-score at (0, nu0) the
    iterates can stop at a local maximum below L(0, nu0).  Scoring then
    starts again from (c1, nu0), c1 the Fisher step in c off that edge, and
    ``sweeps`` counts both runs; should the second run also end below
    L(0, nu0), (0, nu0) is returned, flagged as not converged.

    The returned point never has a lower likelihood than ``init``;
    non-convergence is flagged, not raised.  ``std_errors`` are the square
    roots of the diagonal of the inverse Fisher information in (c, nu) at
    the returned point; the entry of a parameter on its boundary is nan.
    """
    if init.c <= 0 or init.nu <= 0:
        raise InvalidParameter("initial c and nu must be strictly positive")
    a = a_coefficients(z.n)
    z2 = z.z**2

    def ascend(theta: np.ndarray, best: float) -> tuple[np.ndarray, float, bool, int]:
        """Fisher scoring from theta, whose likelihood is best: (theta, L, converged, iterations)."""
        iterations = 0
        for iterations in range(1, _MAX_ITERATIONS + 1):
            p = np.exp(theta)
            d = p[0] + a * p[1]
            r = (z2 - d) / d**2
            score = 0.5 * np.array([r.sum(), (a * r).sum()])
            inv = _inverse(_information(a, d))
            if inv is None:
                break
            # The theta step I^-1 g is the (c, nu) step divided by (c, nu).
            step = np.clip((inv @ score) / p, -_STEP_CLIP, _STEP_CLIP)
            span = float(np.max(np.abs(step)))
            if not math.isfinite(span):
                break
            t = 1.0
            while True:
                trial = theta + t * step
                value = _loglik(a, z2, *np.exp(trial))
                if value >= best or t * span < _STEP_TOL:
                    break
                t *= 0.5
            if value >= best:
                theta, best = trial, value
            if t * span < _STEP_TOL:
                return theta, best, True, iterations
        return theta, best, False, iterations

    best = _loglik(a, z2, init.c, init.nu)
    c0 = float(np.mean(z2))
    nu0 = float(np.mean(z2 / a))
    c_score = float(np.sum((z2 - a * nu0) / (a * nu0) ** 2)) if nu0 > 0 else math.nan
    boundary = []
    if c0 > 0 and float(np.sum(a * (z2 - c0))) <= 0.0:
        boundary.append((c0, 0.0))
    if c_score <= 0.0:
        boundary.append((0.0, nu0))
    for c, nu in boundary:
        value = _loglik(a, z2, c, nu)
        if value >= best:
            return MleResult(
                params=LikelihoodParams(c=c, nu=nu),
                converged=True,
                sweeps=0,
                log_likelihood=value,
                std_errors=_std_errors(a, c, nu),
            )

    # Should the iterates still head for a boundary, or with all-zero data,
    # a parameter underflows and the information overflows: clipping bounds
    # the step, a singular information or a nan step ends the loop, and the
    # fit is flagged as not converged.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        theta, best, converged, iterations = ascend(np.log([init.c, init.nu]), best)
        edge = _loglik(a, z2, 0.0, nu0) if c_score > 0 else -math.inf
        if edge > best:
            # A local maximum below the c = 0 edge, where L still rises in c:
            # climb again from one Fisher step in c off that edge.
            c1 = c_score / float(np.sum((a * nu0) ** -2.0))
            theta, best, converged, more = ascend(np.log([c1, nu0]), _loglik(a, z2, c1, nu0))
            iterations += more
            if best < edge:
                theta, best, converged = np.log([0.0, nu0]), edge, False
        c, nu = (float(v) for v in np.exp(theta))
        std_errors = _std_errors(a, c, nu)
    return MleResult(
        params=LikelihoodParams(c=c, nu=nu),
        converged=converged,
        sweeps=iterations,
        log_likelihood=best,
        std_errors=std_errors,
    )
