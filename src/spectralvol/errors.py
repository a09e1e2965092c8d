"""Exception types shared across the package, and the input checks that raise them."""

import operator

import numpy as np


class SpectralVolError(ValueError):
    """Base class for all input-validation errors raised by this package."""


class InvalidDimension(SpectralVolError):
    """A dimension is out of range or incompatible with the requested family."""


class DimensionMismatch(SpectralVolError):
    """An input vector does not match the dimension of a basis."""


class InvalidParameter(SpectralVolError):
    """A numeric parameter violates its contract (sign, range, ...)."""


class ResultOverflow(InvalidParameter):
    """A result overflows float64 at the scale of the data or the config."""


class GridMismatch(SpectralVolError):
    """An observation grid is not a subset of the simulated fine grid."""


class TooShort(SpectralVolError):
    """A series has too few points for the requested operation."""


class CutoffTooLarge(InvalidParameter):
    """The frequency cutoff m exceeds what the data length allows."""


class EmptyInput(SpectralVolError):
    """An input series or collection is empty."""


class EvenLength(InvalidParameter):
    """An increment series must have odd length for the real Fourier form."""


class DegenerateVariance(SpectralVolError):
    """A variance parameter makes the likelihood undefined (log of <= 0)."""


class DegenerateData(SpectralVolError):
    """Data is degenerate (all-zero where a positive sum is required)."""


def _index(value, name: str, low: int | None = None) -> int:
    """``value`` as an int when it is an integer (``operator.index``) and at least ``low``
    when that is given; InvalidParameter if not."""
    try:
        value = operator.index(value)
    except TypeError:
        raise InvalidParameter(f"{name} must be an integer, got {value!r}") from None
    if low is not None and value < low:
        raise InvalidParameter(f"{name} must be >= {low}, got {value}")
    return value


def _real_array(value, name: str) -> np.ndarray:
    """``value`` as a float array if its dtype is boolean, integer or real; InvalidParameter if not
    (a cast would drop an imaginary part with only a warning)."""
    array = np.asarray(value)
    if array.dtype.kind not in "biuf":
        raise InvalidParameter(f"{name} must be real numbers, got dtype {array.dtype}")
    return array.astype(float, copy=False)
