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
``JN_TILDE_PRIME`` none (independent noise at both ends).  :func:`spectrum`
is what the rest of the package reads of that diagonalization: the
eigen-gaps 2 - lambda_l and basis rows 1 and n of the leading columns, in
O(columns), from eigen-angles that no code but ``_angles`` evaluates.

Basis entries are computed from exact integer products reduced modulo the
period before multiplying by pi, so orthogonality holds to ~1e-13 even at
dimension 513 and beyond.  The reduced units take one period of values,
so each entry is looked up in a table of the function over one period
(for the cosine basis, whose units are all odd, over its odd units).
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
    "spectrum",
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


def _check_modes(kind: BasisKind, dim: int, num_modes: int) -> None:
    if _index(dim, "dim") < 1:
        raise InvalidDimension(f"dim must be >= 1, got {dim}")
    if kind is BasisKind.FOURIER_REAL and dim % 2 == 0:
        raise InvalidDimension(f"fourier_real needs an odd dimension, got {dim}")
    if not 1 <= _index(num_modes, "num_modes") <= dim:
        raise InvalidDimension(f"num_modes must be in [1, {dim}], got {num_modes}")


def _angles(kind: BasisKind, dim: int, columns: int) -> np.ndarray:
    """The eigen-angles t_l of columns l = 1..columns of a basis on dim rows."""
    _check_modes(kind, dim, columns)
    l = np.arange(1, columns + 1)
    if kind is BasisKind.SIML_COSINE:
        return (2 * l - 1) * np.pi / (2 * (2 * dim + 1))
    if kind is BasisKind.DST_SINE:
        return l * np.pi / (2 * (dim + 1))
    return l // 2 * np.pi / dim  # FOURIER_REAL: column l-1 has frequency l // 2


def eigen_gaps(kind: BasisKind, dim: int, columns: int) -> np.ndarray:
    """The gaps of the first ``columns`` basis columns, as in :func:`spectrum`, in O(columns)."""
    return 4.0 * np.sin(_angles(BasisKind(kind), dim, columns)) ** 2


def spectrum(kind: BasisKind, dim: int, columns: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(gaps, first_row, last_row)`` of the first ``columns`` columns of a basis on dim rows.

    Column l's gap is 2 - lambda_l = 4 sin^2 t_l, lambda_l its eigenvalue in
    the Jacobi-type matrix the basis diagonalizes; the rows are rows 1 and dim
    of :func:`build_basis`, in closed form in t_l.  O(columns).
    """
    kind = BasisKind(kind)
    gaps, t = eigen_gaps(kind, dim, columns), _angles(kind, dim, columns)
    twice = np.sin(2.0 * t)
    if kind is BasisKind.FOURIER_REAL:  # rows k = 0, -1: s sin(2k t_l), s cos(2k t_l)
        s = math.sqrt(2.0 / dim)
        first, last = np.full(columns, s), s * np.cos(2.0 * t)
        first[1::2], last[1::2] = 0.0, -s * twice[1::2]
        first[0] = last[0] = 1.0 / math.sqrt(dim)
        return gaps, first, last
    # row 1 is s cos t_l (cosine) or s sin 2t_l (sine); row dim (-1)^(l+1) s sin 2t_l
    cosine = kind is BasisKind.SIML_COSINE
    s = math.sqrt(2.0 / (dim + (0.5 if cosine else 1)))
    first, last = s * (np.cos(t) if cosine else twice), s * twice
    last[1::2] *= -1.0
    return gaps, first, last


# Basis rows whose integer angle units are formed at a time.
_ROW_BLOCK = 4096


def _table(func, period: int, step: float, scale: float, odd: bool = False) -> np.ndarray:
    """``scale * func(step * u)`` for the units u = 0..period-1 of one period, or its odd units."""
    table = np.arange(int(odd), period, 1 + odd, dtype=float)
    table *= step
    func(table, out=table)
    table *= scale
    return table


def _lookup(table: np.ndarray, rows: np.ndarray, cols: np.ndarray, out,
            odd: bool = False) -> np.ndarray:
    """``table[outer(rows, cols) % len(table)]`` in ``out``, for int rows and cols.

    The units are reduced into one period of the table, whose values were
    computed with the formula's operations: the bits are those of the
    formula.  With ``odd`` every unit is odd and the table holds the odd
    units 1, 3, ... of a period twice its length, so unit u is entry
    (u mod period) // 2.  Units are formed a block of rows at a time and
    gathered straight into ``out``.
    """
    period = 2 * len(table) if odd else len(table)
    for first in range(0, len(rows), _ROW_BLOCK):
        units = np.multiply.outer(rows[first : first + _ROW_BLOCK], cols)
        units %= period
        if odd:
            units >>= 1
        # the units are in range; any mode but the default "raise" lets take
        # write into a contiguous out without buffering it
        np.take(table, units, mode="clip", out=out[first : first + _ROW_BLOCK])
    return out


def _basis_tables(kind: BasisKind, dim: int) -> tuple[np.ndarray, ...]:
    """The one-period tables :func:`basis_columns` looks the entries of a valid basis up in.

    2(2n+1) cosines for the cosine basis, 2(n+1) sines for the sine basis,
    and N sines and N cosines for the real Fourier basis on N = dim rows.
    """
    if kind is BasisKind.SIML_COSINE:
        # angle = (2k-1)(2l-1)pi / (2(2n+1)); period of cos is 4(2n+1) units,
        # of which the odd products (2k-1)(2l-1) reach only the odd half
        return (_table(np.cos, 4 * (2 * dim + 1), np.pi / (2 * (2 * dim + 1)),
                       np.sqrt(2.0 / (dim + 0.5)), odd=True),)
    if kind is BasisKind.DST_SINE:
        # angle = k*l*pi / (n+1); period of sin is 2(n+1) units
        return (_table(np.sin, 2 * (dim + 1), np.pi / (dim + 1), np.sqrt(2.0 / (dim + 1))),)
    # FOURIER_REAL: angle = k * freq * 2pi / N, of period N units
    step, scale = 2.0 * np.pi / dim, np.sqrt(2.0 / dim)
    return _table(np.sin, dim, step, scale), _table(np.cos, dim, step, scale)


def basis_columns(
    kind: BasisKind,
    dim: int,
    num_modes: int,
    out: np.ndarray | None = None,
    rows: tuple[int, int] | None = None,
    tables: tuple[np.ndarray, ...] | None = None,
) -> np.ndarray:
    """Return the first ``num_modes`` columns of the basis as a (dim, num_modes) array.

    O(dim * num_modes), for the Monte Carlo engine, where one tile of
    columns serves many replications; one vector is projected by
    :func:`basis_coefficients`.  With ``rows = (lo, hi)`` only basis rows
    lo..hi-1 are built, a (hi - lo, num_modes) array.  The columns are
    written into ``out`` when given, and looked up in ``tables`` (the
    one-period tables of the same kind and dim, built once for several row
    ranges) when given; the full matrix is materialized only by
    :func:`build_basis`.
    """
    kind = BasisKind(kind)
    _check_modes(kind, dim, num_modes)
    lo, hi = (0, dim) if rows is None else rows
    if not 0 <= lo <= hi <= dim:
        raise InvalidDimension(f"rows must satisfy 0 <= lo <= hi <= {dim}, got {rows}")
    if tables is None:
        tables = _basis_tables(kind, dim)
    if out is None:
        out = np.empty((hi - lo, num_modes))
    k = np.arange(lo + 1, hi + 1, dtype=np.int64)
    l = np.arange(1, num_modes + 1, dtype=np.int64)

    if kind is BasisKind.SIML_COSINE:
        return _lookup(tables[0], 2 * k - 1, 2 * l - 1, out, odd=True)
    if kind is BasisKind.DST_SINE:
        return _lookup(tables[0], k, l, out)
    # FOURIER_REAL, rows k = 0..N-1.  Column 0 is constant; odd column c is
    # the sine and even column c the cosine of integer frequency (c+1)//2.
    freq = l // 2  # l = c + 1
    _lookup(tables[0], k - 1, freq, out)
    _lookup(tables[1], k - 1, freq[0::2], out[:, 0::2])
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
