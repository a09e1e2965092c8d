"""Library fuzz suite: non-finite values and non-integer sizes end in a package error.

Each case mixes NaN, +-inf or a non-integer size into otherwise valid
arguments of a public function of the library (the CLI has its own suite,
``test_cli_fuzz.py``).  The call must return finite values or raise a
:class:`SpectralVolError`: any other exception, a non-finite result or a
numpy ``RuntimeWarning`` (raised as an error here) fails.  Runs under
``conftest.py``'s derandomized hypothesis profile.
"""

import math
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spectralvol.basis import BasisKind, basis_coefficients
from spectralvol.errors import SpectralVolError
from spectralvol.estimators import (
    EstimateResult,
    EstimatorKind,
    ina,
    mm_fourier_complex,
    mm_fourier_real_zero,
    noise_expectation_exact,
    siml,
)
from spectralvol.likelihood import (
    LikelihoodDecomposition,
    LikelihoodParams,
    MleResult,
    PartitionChoice,
    SpectralCoefficients,
    decompose,
    joint_mle,
    log_likelihood,
    maximize_L1,
    noise_variance_estimate,
    spectral_transform,
)
from spectralvol.market import ObservationSeries

_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
# Finite values, of ordinary and of extreme scale.
_FINITE = st.one_of(st.floats(-1e3, 1e3), st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([1e308, -1e308, 1e-300, 5e-324]))
_NON_INTEGER = st.one_of(st.sampled_from([math.nan, math.inf, 2.5, 3.0]), st.floats(0.5, 9.5))


def _maybe(valid, hostile):
    """``valid``, or now and then ``hostile`` in its place."""
    return st.one_of(valid, valid, hostile)


def _number(low=None, high=None):
    return _maybe(_FINITE if low is None else st.floats(low, high), _NON_FINITE)


def _size(low, high):
    return _maybe(st.integers(low, high), _NON_INTEGER)


@st.composite
def _vectors(draw, min_size=1, max_size=12):
    """A finite vector, one entry of which may be non-finite."""
    values = draw(st.lists(_FINITE, min_size=min_size, max_size=max_size))
    if values and draw(st.booleans()):
        values[draw(st.integers(0, len(values) - 1))] = draw(_NON_FINITE)
    return np.array(values, dtype=float)


def _finite(value) -> bool:
    if isinstance(value, EstimateResult):
        return bool(np.all(np.isfinite(value.value)))
    if isinstance(value, SpectralCoefficients):
        return bool(np.all(np.isfinite(value.z)))
    if isinstance(value, MleResult):
        # a parameter on its boundary has a nan standard error, as documented
        return (_finite([value.params.c, value.params.nu, value.log_likelihood])
                and not np.any(np.isinf(value.std_errors)))
    if isinstance(value, LikelihoodDecomposition):
        return _finite([value.total, value.low_frequency, value.high_frequency, value.remainder])
    return bool(np.all(np.isfinite(np.asarray(value, dtype=float))))


def _check(call):
    """``call()`` returns finite values or raises a SpectralVolError, and nothing else."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            result = call()
        except SpectralVolError:
            return
    assert _finite(result), result


def _coefficients(z):
    """Where coefficients are expected, a drawn vector goes through the checked constructor."""
    return SpectralCoefficients(z, len(z))


_REAL_KINDS = [EstimatorKind.SIML, EstimatorKind.MM_FOURIER_REAL_ZERO, EstimatorKind.INA_SINE]
_EXAMPLES = settings(max_examples=50)


@_EXAMPLES
@given(kind=st.sampled_from(_REAL_KINDS), n=_size(1, 40), m=_size(0, 6),
       variance=_number(0.0, 1.7e308), ends=st.tuples(st.booleans(), st.booleans()))
def test_noise_expectation_exact(kind, n, m, variance, ends):
    _check(lambda: noise_expectation_exact(kind, n, m, variance, *ends))


@_EXAMPLES
@given(z=_vectors(), c=_number(), nu=_number())
def test_log_likelihood(z, c, nu):
    _check(lambda: log_likelihood(_coefficients(z), LikelihoodParams(c, nu)))


@_EXAMPLES
@given(z=_vectors(), c=_number(), nu=_number(), m=_size(1, 6), l=_size(1, 6))
def test_decompose(z, c, nu, m, l):
    _check(lambda: decompose(_coefficients(z), LikelihoodParams(c, nu), PartitionChoice(m, l)))


@_EXAMPLES
@given(z=_vectors(), m=_size(1, 12))
def test_maximize_L1(z, m):
    _check(lambda: maximize_L1(_coefficients(z), m))


@_EXAMPLES
@given(z=_vectors(), l=_size(1, 12))
def test_noise_variance_estimate(z, l):
    _check(lambda: noise_variance_estimate(_coefficients(z), l))


@_EXAMPLES
@given(z=_vectors(), c=_number(), nu=_number())
def test_joint_mle(z, c, nu):
    _check(lambda: joint_mle(_coefficients(z), LikelihoodParams(c, nu)))


@_EXAMPLES
@given(deltas=_vectors(min_size=0))
def test_spectral_transform(deltas):
    _check(lambda: spectral_transform(deltas))


@_EXAMPLES
@given(kind=st.sampled_from(list(BasisKind)), x=_vectors(), columns=_size(1, 12))
def test_basis_coefficients(kind, x, columns):
    _check(lambda: basis_coefficients(kind, x, columns))


@_EXAMPLES
@given(estimator=st.sampled_from([siml, ina, mm_fourier_real_zero]),
       deltas=st.lists(_vectors(), min_size=1, max_size=2), m=_size(0, 6))
def test_real_estimators(estimator, deltas, m):
    _check(lambda: estimator(deltas, m))


def _series(values, times):
    return ObservationSeries(times=times, values=values, latent=values, noise=np.zeros(len(values)))


@_EXAMPLES
@given(values=_vectors(min_size=2), nudge=_maybe(st.just(0.0), _NON_FINITE), q=_size(-3, 3),
       m=_size(0, 6))
def test_mm_fourier_complex(values, nudge, q, m):
    times = np.linspace(0.0, 1.0, len(values))
    times[len(values) // 2] += nudge
    _check(lambda: mm_fourier_complex(_series(values, times), q, m))
