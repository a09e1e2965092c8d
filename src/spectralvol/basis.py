"""Orthogonal trigonometric bases and the tridiagonal matrices they diagonalize.

Three closed-form orthogonal families are provided:

* ``SIML_COSINE`` -- the shifted cosine matrix
  ``p[k,l] = sqrt(2/(n+1/2)) * cos((l-1/2)(k-1/2)pi/(n+1/2))``, k,l = 1..n;
* ``FOURIER_REAL`` -- the real discrete Fourier matrix on an odd dimension
  ``N = 2n+1`` with columns ordered constant, sin(1), cos(1), sin(2), cos(2), ...;
* ``DST_SINE`` -- the type-I discrete sine matrix
  ``r[k,l] = sqrt(2/(n+1)) * sin(k*l*pi/(n+1))``, k,l = 1..n.

Each family diagonalizes one member of a family of 0/1 tridiagonal
("Jacobi-type") matrices that arise as scaled covariances of first
differences of i.i.d. noise under three end-point conventions:

* ``JN`` -- tridiagonal with a single extra 1 in the (1,1) corner
  (no noise on the first observation), diagonalized by ``SIML_COSINE``;
* ``JN_TILDE`` -- tridiagonal with wrap-around corners (first and last
  noise identified), diagonalized by ``FOURIER_REAL``;
* ``JN_TILDE_PRIME`` -- plain tridiagonal (independent noise at both ends),
  diagonalized by ``DST_SINE``.

Angles are computed from exact integer products reduced modulo the period
before multiplying by pi, so orthogonality holds to ~1e-13 even at
dimension 513 and beyond.  The reduced units take one period of values,
so each entry is looked up in a table of the function over one period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionMismatch, InvalidDimension

__all__ = [
    "BasisKind",
    "JacobiKind",
    "SpectralBasis",
    "basis_columns",
    "build_basis",
    "build_jacobi",
    "eigenvalues_closed_form",
    "project",
    "cosine_square_sum",
]


class BasisKind(str, Enum):
    SIML_COSINE = "siml_cosine"
    FOURIER_REAL = "fourier_real"
    DST_SINE = "dst_sine"


class JacobiKind(str, Enum):
    JN = "jn"
    JN_TILDE = "jn_tilde"
    JN_TILDE_PRIME = "jn_tilde_prime"


#: Basis family that diagonalizes each Jacobi-type matrix.
DIAGONALIZING_BASIS = {
    JacobiKind.JN: BasisKind.SIML_COSINE,
    JacobiKind.JN_TILDE: BasisKind.FOURIER_REAL,
    JacobiKind.JN_TILDE_PRIME: BasisKind.DST_SINE,
}


@dataclass(frozen=True)
class SpectralBasis:
    """A fully materialized dim x dim orthogonal basis.

    ``entries[:, l]`` is the l-th basis column (unit Euclidean norm);
    ``entries.T @ entries`` is the identity to ~1e-13.
    """

    kind: BasisKind
    dim: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        if self.entries.shape != (self.dim, self.dim):
            raise DimensionMismatch(
                f"entries shape {self.entries.shape} != ({self.dim}, {self.dim})"
            )


def _check_dim(kind: BasisKind, dim: int) -> None:
    if dim < 1:
        raise InvalidDimension(f"dim must be >= 1, got {dim}")
    if kind is BasisKind.FOURIER_REAL and dim % 2 == 0:
        raise InvalidDimension(f"fourier_real needs an odd dimension, got {dim}")


# Basis rows whose integer angle units are formed at a time.
_ROW_BLOCK = 4096


def _periodic(
    func, rows: np.ndarray, cols: np.ndarray, period: int, step: float, scale: float, out
) -> np.ndarray:
    """``scale * func(step * (outer(rows, cols) % period))`` in ``out``, for int rows and cols.

    The units lie in one period, so each entry is looked up in the values of
    one period, computed with the same operations: the bits are those of the
    formula.  Units are formed a block of rows at a time.
    """
    table = np.arange(period, dtype=float)
    table *= step
    func(table, out=table)
    table *= scale
    for first in range(0, len(rows), _ROW_BLOCK):
        units = np.multiply.outer(rows[first : first + _ROW_BLOCK], cols)
        units %= period
        out[first : first + _ROW_BLOCK] = table[units]
    return out


def basis_columns(
    kind: BasisKind, dim: int, num_modes: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Return the first ``num_modes`` columns of the basis as a (dim, num_modes) array.

    This is the O(dim * num_modes) work-horse used by the estimators, which
    only ever need m << dim columns; the full matrix is materialized only by
    :func:`build_basis`.  The columns are written into ``out`` when given.
    """
    kind = BasisKind(kind)
    _check_dim(kind, dim)
    if not 1 <= num_modes <= dim:
        raise InvalidDimension(f"num_modes must be in [1, {dim}], got {num_modes}")
    if out is None:
        out = np.empty((dim, num_modes))
    k = np.arange(1, dim + 1, dtype=np.int64)
    l = np.arange(1, num_modes + 1, dtype=np.int64)

    if kind is BasisKind.SIML_COSINE:
        # angle = (2k-1)(2l-1)pi / (2(2n+1)); period of cos is 4(2n+1) units
        step, scale = np.pi / (2 * (2 * dim + 1)), np.sqrt(2.0 / (dim + 0.5))
        return _periodic(np.cos, 2 * k - 1, 2 * l - 1, 4 * (2 * dim + 1), step, scale, out)

    if kind is BasisKind.DST_SINE:
        # angle = k*l*pi / (n+1); period of sin is 2(n+1) units
        step, scale = np.pi / (dim + 1), np.sqrt(2.0 / (dim + 1))
        return _periodic(np.sin, k, l, 2 * (dim + 1), step, scale, out)

    # FOURIER_REAL, rows k = 0..N-1.  Column 0 is constant; odd column c is
    # the sine and even column c the cosine of integer frequency (c+1)//2;
    # angle = k * freq * 2pi / N, of period N units.
    freq = l // 2  # l = c + 1
    step, scale = 2.0 * np.pi / dim, np.sqrt(2.0 / dim)
    _periodic(np.sin, k - 1, freq, dim, step, scale, out)
    _periodic(np.cos, k - 1, freq[0::2], dim, step, scale, out[:, 0::2])
    out[:, 0] = 1.0 / np.sqrt(dim)
    return out


def build_basis(kind: BasisKind, dim: int) -> SpectralBasis:
    """Materialize the full dim x dim orthogonal matrix of the given family."""
    kind = BasisKind(kind)
    _check_dim(kind, dim)
    return SpectralBasis(kind=kind, dim=dim, entries=basis_columns(kind, dim, dim))


def build_jacobi(kind: JacobiKind, dim: int) -> np.ndarray:
    """Build the 0/1 tridiagonal matrix of the given kind.

    ``JN`` is defined for dim >= 1 (dim 1 gives [[1]]); ``JN_TILDE_PRIME``
    for dim >= 1 (dim 1 gives [[0]]); ``JN_TILDE`` only for odd dim >= 3,
    since at smaller sizes the wrap-around corners collide with the
    off-diagonal band.
    """
    kind = JacobiKind(kind)
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
    """Closed-form eigenvalues, ordered to match the columns of the diagonalizing basis.

    * ``JN``:             2*cos((2k-1)pi/(2*dim+1)), k = 1..dim (strictly decreasing);
    * ``JN_TILDE_PRIME``: 2*cos(k pi/(dim+1)),       k = 1..dim;
    * ``JN_TILDE`` (dim = 2n+1): 2, then 2*cos(2f pi/(2n+1)) twice for each
      integer frequency f = 1..n, matching the (constant, sin, cos, sin, cos, ...)
      column order of the real Fourier basis.
    """
    kind = JacobiKind(kind)
    if dim < 1:
        raise InvalidDimension(f"dim must be >= 1, got {dim}")
    if kind is JacobiKind.JN:
        k = np.arange(1, dim + 1)
        return 2.0 * np.cos((2 * k - 1) * np.pi / (2 * dim + 1))
    if kind is JacobiKind.JN_TILDE_PRIME:
        k = np.arange(1, dim + 1)
        return 2.0 * np.cos(k * np.pi / (dim + 1))
    if dim < 3 or dim % 2 == 0:
        raise InvalidDimension(f"jn_tilde needs an odd dimension >= 3, got {dim}")
    freqs = np.repeat(np.arange(1, (dim - 1) // 2 + 1), 2)
    return np.concatenate(([2.0], 2.0 * np.cos(2.0 * np.pi * freqs / dim)))


def project(basis: SpectralBasis, x: np.ndarray, num_modes: int) -> np.ndarray:
    """Project ``x`` onto the first ``num_modes`` basis columns.

    Returns the vector of inner products (B[:, l] . x) for l < num_modes.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (basis.dim,):
        raise DimensionMismatch(f"x has shape {x.shape}, expected ({basis.dim},)")
    if not 1 <= num_modes <= basis.dim:
        raise DimensionMismatch(f"num_modes must be in [1, {basis.dim}], got {num_modes}")
    return basis.entries[:, :num_modes].T @ x


def cosine_square_sum(m: int, n: int) -> float:
    """Closed form of sum_{l=1..m} cos^2((2l-1)pi / (2(2n+1))).

    Equals ``m/2 + sin(2m pi/(2n+1)) / (4 sin(pi/(2n+1)))``; this is the
    exact first-coordinate weight that drives the initial-noise floor of the
    cosine-basis estimator.
    """
    if n < 1 or not 1 <= m <= n:
        raise InvalidDimension(f"need 1 <= m <= n, got m={m}, n={n}")
    return m / 2.0 + 0.25 * math.sin(2.0 * m * math.pi / (2 * n + 1)) / math.sin(
        math.pi / (2 * n + 1)
    )
