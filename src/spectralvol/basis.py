"""Orthogonal trigonometric bases and the tridiagonal matrices they diagonalize.

``SIML_COSINE`` is the shifted cosine matrix
``p[k,l] = sqrt(2/(n+1/2)) cos((l-1/2)(k-1/2)pi/(n+1/2))``, ``DST_SINE`` the
type-I sine matrix ``r[k,l] = sqrt(2/(n+1)) sin(k l pi/(n+1))`` (k, l = 1..n)
and ``FOURIER_REAL`` the real discrete Fourier matrix on an odd dimension,
with columns constant, sin(1), cos(1), sin(2), ....  Each diagonalizes the
0/1 tridiagonal ("Jacobi-type") matrix of one end-point convention for the
covariance of noise first differences (``DIAGONALIZING_BASIS``): ``JN`` has
an extra 1 in the (1,1) corner (no noise on the first observation),
``JN_TILDE`` wrap-around corners (first and last noise identified) and
``JN_TILDE_PRIME`` none (independent noise at both ends).  :func:`noise_law`
is that diagonalization as the rest of the package reads it, in O(columns):
the eigen-gaps 2 - lambda_l (:func:`eigen_gaps`, the only code that evaluates
an eigen-angle) plus rank-one terms in basis rows 1 and n.

:func:`basis_columns` is the only code that computes a basis entry, from
exact integer products reduced modulo the period before multiplying by pi,
so orthogonality holds to ~1e-13 even at dimension 513 and beyond; rows
lo..hi-1 need no buffer that grows with the dimension.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .errors import (DimensionMismatch, InvalidDimension, InvalidParameter, ResultOverflow,
                     _index, _real_array)

__all__ = [
    "BasisKind",
    "JacobiKind",
    "basis_columns",
    "basis_coefficients",
    "build_basis",
    "build_jacobi",
    "eigen_gaps",
    "eigenvalues_closed_form",
    "cosine_square_sum",
    "noise_law",
]


class BasisKind(str, Enum):
    SIML_COSINE = "siml_cosine"
    FOURIER_REAL = "fourier_real"
    DST_SINE = "dst_sine"


class JacobiKind(str, Enum):
    JN = "jn"
    JN_TILDE = "jn_tilde"
    JN_TILDE_PRIME = "jn_tilde_prime"


#: Basis family that diagonalizes each Jacobi-type matrix, in the row order of ``basis-check``.
DIAGONALIZING_BASIS = {
    JacobiKind.JN: BasisKind.SIML_COSINE,
    JacobiKind.JN_TILDE_PRIME: BasisKind.DST_SINE,
    JacobiKind.JN_TILDE: BasisKind.FOURIER_REAL,
}

# Each basis's corner in the basis, as weights w of w r r^T for its end rows
# r = u - v, u, v (rows 1 and n): e_1 e_1^T is u u^T, and the wrap-around corner
# e_1 e_n^T + e_n e_1^T is u u^T + v v^T - (u - v)(u - v)^T, so spelled that
# excluded ends cancel exactly and small gaps keep their digits.
_CORNERS = {BasisKind.SIML_COSINE: (0, 1, 0), BasisKind.FOURIER_REAL: (-1, 1, 1),
            BasisKind.DST_SINE: (0, 0, 0)}


def _check_modes(kind: BasisKind, dim: int, num_modes: int) -> None:
    if _index(dim, "dim") < 1:
        raise InvalidDimension(f"dim must be >= 1, got {dim}")
    if kind is BasisKind.FOURIER_REAL and dim % 2 == 0:
        raise InvalidDimension(f"fourier_real needs an odd dimension, got {dim}")
    if not 1 <= _index(num_modes, "num_modes") <= dim:
        raise InvalidDimension(f"num_modes must be in [1, {dim}], got {num_modes}")


def eigen_gaps(kind: BasisKind, dim: int, columns: int) -> np.ndarray:
    """Gaps 2 - lambda_l = 4 sin^2 t_l of the first ``columns`` columns, t_l their eigen-angles."""
    kind = BasisKind(kind)
    _check_modes(kind, dim, columns)
    l = np.arange(1, columns + 1)
    if kind is BasisKind.SIML_COSINE:
        t = (2 * l - 1) * np.pi / (2 * (2 * dim + 1))
    elif kind is BasisKind.DST_SINE:
        t = l * np.pi / (2 * (dim + 1))
    else:  # FOURIER_REAL: column l-1 has frequency l // 2
        t = l // 2 * np.pi / dim
    return 4.0 * np.sin(t) ** 2


def noise_law(kind: BasisKind, dim: int, columns: int, include_initial: bool = True,
              include_terminal: bool = True) -> tuple[np.ndarray, list[tuple[int, np.ndarray]]]:
    """``(gaps, terms)``: ``B^T C B = diag(gaps) + sum w outer(r, r)`` over ``(w, r)`` in terms.

    B is the first ``columns`` columns of the basis on dim rows; C = 2I - T,
    less e_1 e_1^T or e_dim e_dim^T for an excluded initial or terminal noise,
    is the covariance of noise first differences over the noise variance.
    Terms of weight 0 are dropped and their rows never built: ``terms`` is empty
    where the law is diagonal, cosine with only the initial noise out and sine
    with both in.  O(columns).
    """
    gaps = eigen_gaps(kind, dim, columns)
    w_diff, w_u, w_v = _CORNERS[BasisKind(kind)]
    w_u, w_v = w_u - (not include_initial), w_v - (not include_terminal)
    u, v = (basis_columns(kind, dim, columns, rows=(k, k + 1))[0] if w_diff or w else None
            for k, w in ((0, w_u), (dim - 1, w_v)))
    terms = [(w_diff, u - v)] if w_diff else []
    return gaps, terms + [(w, r) for w, r in ((w_u, u), (w_v, v)) if w]


# Basis rows whose integer angle units are formed at a time.
_ROW_BLOCK = 4096


def _entries(func, rows: np.ndarray, cols: np.ndarray, period: int, step: float, scale: float,
             out: np.ndarray) -> np.ndarray:
    """``scale * func(step * (outer(rows, cols) % period))`` in ``out``, for int rows and cols.

    The units are formed and reduced a block of rows at a time, and each
    block of entries is computed in place in ``out``, which may be strided.
    """
    for first in range(0, len(rows), _ROW_BLOCK):
        units = np.multiply.outer(rows[first : first + _ROW_BLOCK], cols)
        units %= period
        block = out[first : first + _ROW_BLOCK]
        np.multiply(units, step, out=block)
        func(block, out=block)
        block *= scale
    return out


def basis_columns(
    kind: BasisKind,
    dim: int,
    num_modes: int,
    out: np.ndarray | None = None,
    rows: tuple[int, int] | None = None,
) -> np.ndarray:
    """Return the first ``num_modes`` columns of the basis as a (dim, num_modes) array.

    O(dim * num_modes), for the Monte Carlo engine, where one tile of
    columns serves many replications; one vector is projected by
    :func:`basis_coefficients`.  With ``rows = (lo, hi)`` only basis rows
    lo..hi-1 are built, a (hi - lo, num_modes) array, in O(hi - lo) memory
    beyond it whatever dim is.  The columns are written into ``out`` when
    given; the full matrix is materialized only by :func:`build_basis`.
    Raises :class:`InvalidParameter` for ``rows`` that are not two integers
    or an ``out`` that is not a writeable float64 array (it may be strided),
    and :class:`DimensionMismatch` for one not of shape (hi - lo, num_modes).
    """
    kind = BasisKind(kind)
    _check_modes(kind, dim, num_modes)
    try:
        lo, hi = (0, dim) if rows is None else rows
    except (TypeError, ValueError):
        raise InvalidParameter(f"rows must be a pair (lo, hi), got {rows!r}") from None
    lo, hi = _index(lo, "lo"), _index(hi, "hi")
    if not 0 <= lo <= hi <= dim:
        raise InvalidDimension(f"rows must satisfy 0 <= lo <= hi <= {dim}, got {rows}")
    if out is None:
        out = np.empty((hi - lo, num_modes))
    elif not (isinstance(out, np.ndarray) and out.dtype == np.float64 and out.flags.writeable):
        raise InvalidParameter("out must be a writeable float64 array")
    elif out.shape != (hi - lo, num_modes):
        raise DimensionMismatch(f"out must have shape {(hi - lo, num_modes)}, got {out.shape}")
    k = np.arange(lo + 1, hi + 1, dtype=np.int64)
    l = np.arange(1, num_modes + 1, dtype=np.int64)

    if kind is BasisKind.SIML_COSINE:
        # angle (2k-1)(2l-1) pi / (2(2n+1)); cos has a period of 4(2n+1) units
        return _entries(np.cos, 2 * k - 1, 2 * l - 1, 4 * (2 * dim + 1),
                        np.pi / (2 * (2 * dim + 1)), np.sqrt(2.0 / (dim + 0.5)), out)
    if kind is BasisKind.DST_SINE:
        # angle k l pi / (n+1); sin has a period of 2(n+1) units
        return _entries(np.sin, k, l, 2 * (dim + 1), np.pi / (dim + 1),
                        np.sqrt(2.0 / (dim + 1)), out)
    # FOURIER_REAL, rows k = 0..N-1, angle k f 2pi / N of period N units.  Column 0
    # is constant; odd column c is the sine and even column c the cosine of
    # integer frequency f = (c+1)//2.
    freq, step, scale = l // 2, 2.0 * np.pi / dim, np.sqrt(2.0 / dim)  # l = c + 1
    _entries(np.sin, k - 1, freq[1::2], dim, step, scale, out[:, 1::2])
    _entries(np.cos, k - 1, freq[0::2], dim, step, scale, out[:, 0::2])
    out[:, 0] = 1.0 / np.sqrt(dim)
    return out


@np.errstate(over="ignore", invalid="ignore")  # coefficients that overflow are refused
def basis_coefficients(kind: BasisKind, x: np.ndarray, num_modes: int) -> np.ndarray:
    """``basis_columns(kind, len(x), num_modes).T @ x`` by one FFT, in O(n log n).

    With N = 2n+1, j = k-1 and b = l-1 the cosine angle (2k-1)(2l-1)pi/(2N)
    is 2 pi j b/N + pi j/N + pi(2b+1)/(2N), a length-N DFT between two turns.
    The sine sums are -Im of a real DFT of length 2(n+1) with x_k at index
    k; the real Fourier columns are read off the real DFT of x.  Raises
    :class:`ResultOverflow` when a coefficient overflows float64 and
    :class:`InvalidParameter` for an x that is not finite and real.
    """
    kind = BasisKind(kind)
    x = _real_array(x, "x")
    if x.ndim != 1:
        raise DimensionMismatch(f"x must be a vector, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InvalidParameter("x must hold finite numbers only")
    dim = len(x)
    _check_modes(kind, dim, num_modes)
    if kind is BasisKind.SIML_COSINE:
        period = 2 * dim + 1
        turned = x * np.exp(-1j * np.pi / period * np.arange(dim))
        bins = np.fft.fft(turned, period)[:num_modes]
        bins *= np.exp(-1j * np.pi / (2 * period) * np.arange(1, 2 * num_modes, 2))
        out = math.sqrt(2.0 / (dim + 0.5)) * bins.real
    elif kind is BasisKind.DST_SINE:
        bins = np.fft.rfft(np.concatenate(([0.0], x)), 2 * (dim + 1))[1 : num_modes + 1]
        out = -math.sqrt(2.0 / (dim + 1)) * bins.imag
    else:
        # FOURIER_REAL: -Im and Re of bins 0, 1, ... interleaved, less -Im F_0, are the
        # constant, sin(1), cos(1), sin(2), ... sums; the constant column is 1/sqrt(n).
        bins = np.fft.rfft(x)[: num_modes // 2 + 1]
        out = math.sqrt(2.0 / dim) * np.column_stack((-bins.imag, bins.real)).ravel()
        out = out[1 : num_modes + 1]
        out[0] /= math.sqrt(2.0)
    if not np.all(np.isfinite(out)):
        raise ResultOverflow("basis coefficients overflow float64 at the data's scale")
    return out


def build_basis(kind: BasisKind, dim: int) -> np.ndarray:
    """The full dim x dim orthogonal matrix of the given family; column l is the l-th basis column."""
    return basis_columns(kind, dim, dim)


def build_jacobi(kind: JacobiKind, dim: int) -> np.ndarray:
    """Build the 0/1 tridiagonal matrix of the given kind.

    ``JN`` is defined for dim >= 1 (dim 1 gives [[1]]); ``JN_TILDE_PRIME``
    for dim >= 1 (dim 1 gives [[0]]); ``JN_TILDE`` only for odd dim >= 3,
    since at smaller sizes the wrap-around corners collide with the
    off-diagonal band.
    """
    kind, dim = JacobiKind(kind), _index(dim, "dim")
    if dim < 1:
        raise InvalidDimension(f"dim must be >= 1, got {dim}")
    if kind is JacobiKind.JN_TILDE and (dim < 3 or dim % 2 == 0):
        raise InvalidDimension(f"jn_tilde needs an odd dimension >= 3, got {dim}")

    mat = np.zeros((dim, dim))
    idx = np.arange(dim - 1)
    mat[idx, idx + 1] = 1.0
    mat[idx + 1, idx] = 1.0
    if kind is JacobiKind.JN:
        mat[0, 0] = 1.0
    elif kind is JacobiKind.JN_TILDE:
        mat[0, -1] = 1.0
        mat[-1, 0] = 1.0
    return mat


def eigenvalues_closed_form(kind: JacobiKind, dim: int) -> np.ndarray:
    """Eigenvalues 2 - :func:`eigen_gaps` in basis column order; ``JN_TILDE`` needs odd dim >= 3."""
    kind, dim = JacobiKind(kind), _index(dim, "dim")
    if kind is JacobiKind.JN_TILDE and (dim < 3 or dim % 2 == 0):
        raise InvalidDimension(f"jn_tilde needs an odd dimension >= 3, got {dim}")
    return 2.0 - eigen_gaps(DIAGONALIZING_BASIS[kind], dim, dim)


def cosine_square_sum(m: int, n: int) -> float:
    """Closed form of sum_{l=1..m} cos^2((2l-1)pi / (2(2n+1))).

    Equals ``m/2 + sin(2m pi/(2n+1)) / (4 sin(pi/(2n+1)))``; this is the
    exact first-coordinate weight that drives the initial-noise floor of the
    cosine-basis estimator.  Raises :class:`InvalidParameter` for an m or n
    that is not an integer.
    """
    m, n = _index(m, "m"), _index(n, "n")
    if n < 1 or not 1 <= m <= n:
        raise InvalidDimension(f"need 1 <= m <= n, got m={m}, n={n}")
    return m / 2.0 + 0.25 * math.sin(2.0 * m * math.pi / (2 * n + 1)) / math.sin(
        math.pi / (2 * n + 1)
    )
