"""Exception types shared across the package, and the size check that raises one."""

import operator


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


def _index(value, name: str) -> int:
    """``value`` as an int when it is an integer (``operator.index``); InvalidParameter if not."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidParameter(f"{name} must be an integer, got {value!r}") from None
