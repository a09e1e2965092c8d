"""Library fuzz suite: non-finite, complex or non-integer input ends in a package error.

Each case mixes NaN, +-inf, a complex value, a negative seed, a
non-integer size or an array of the wrong shape into otherwise valid
arguments of a public function of the library (the CLI has its own suite,
``test_cli_fuzz.py``).  The call must return finite values or raise a
:class:`SpectralVolError`: any other exception, a non-finite result or a
numpy ``RuntimeWarning`` (raised as an error here) fails.  Runs under
``conftest.py``'s derandomized hypothesis profile.  Where a wrong shape
used to give a quiet wrong answer, a direct test pins the refusal.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectralvol.basis import (
    BasisKind,
    JacobiKind,
    basis_coefficients,
    basis_columns,
    build_jacobi,
    cosine_square_sum,
    eigenvalues_closed_form,
)
from spectralvol.errors import DimensionMismatch, InvalidParameter, SpectralVolError
from spectralvol.estimators import (
    EstimateResult,
    EstimatorKind,
    ina,
    mm_fourier_complex,
    mm_fourier_real_zero,
    noise_expectation_exact,
    noise_functional,
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
from spectralvol.market import (
    ConstantDrift,
    ConstantVol,
    EquidistantScheme,
    LatentPath,
    NoiseModel,
    ObservationSeries,
    OrnsteinUhlenbeckVol,
    PiecewiseVol,
    derive_seed,
    observe,
    simulate_latent,
    simulate_latent_correlated,
)

_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
# Finite values, of ordinary and of extreme scale.
_FINITE = st.one_of(st.floats(-1e3, 1e3), st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([1e308, -1e308, 1e-300, 5e-324]))
_NON_INTEGER = st.one_of(st.sampled_from([math.nan, math.inf, 2.5, 3.0]), st.floats(0.5, 9.5))
_COMPLEX = st.sampled_from([1 + 5j, 2j, complex(1.0, 0.0)])


def _maybe(valid, hostile):
    """``valid``, or now and then ``hostile`` in its place."""
    return st.one_of(valid, valid, hostile)


def _number(low=None, high=None):
    return _maybe(_FINITE if low is None else st.floats(low, high), _NON_FINITE)


def _size(low, high):
    return _maybe(st.integers(low, high), _NON_INTEGER)


@st.composite
def _vectors(draw, min_size=1, max_size=12):
    """A finite vector, one entry of which may be non-finite or complex (a complex vector)."""
    values = draw(st.lists(_FINITE, min_size=min_size, max_size=max_size))
    if values and draw(st.booleans()):
        values[draw(st.integers(0, len(values) - 1))] = draw(st.one_of(_NON_FINITE, _COMPLEX))
    return np.array(values)


# Each turns an array into one of another shape, with the same or fewer entries.
_MANGLES = {
    "row": lambda a: a[np.newaxis],
    "column": lambda a: a[..., np.newaxis],
    "block": lambda a: a[np.newaxis, np.newaxis],
    "empty": lambda a: a[:0],
    "short": lambda a: a[:-1],
}
_MANGLE = st.sampled_from(sorted(_MANGLES))


def _finite(value) -> bool:
    if isinstance(value, (LatentPath, ObservationSeries)):
        return all(_finite(getattr(value, field.name)) for field in dataclasses.fields(value))
    if isinstance(value, (tuple, list)):
        return all(_finite(part) for part in value)
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


@_EXAMPLES
@given(values=_vectors(min_size=2), m=_size(0, 3), mangle=_MANGLE, of_times=st.booleans())
def test_mm_fourier_complex_mangled_shapes(values, m, mangle, of_times):
    times = np.linspace(0.0, 1.0, len(values))
    if of_times:
        times = _MANGLES[mangle](times)
    else:
        values = _MANGLES[mangle](values)
    _check(lambda: mm_fourier_complex(_series(values, times), 0, m))


@pytest.mark.parametrize("values,times", [
    (np.arange(10.0).reshape(2, 5), np.linspace(0.0, 1.0, 5)),
    (np.arange(5.0), np.linspace(0.0, 1.0, 6)),
    (np.arange(6.0), np.linspace(0.0, 1.0, 5)),
], ids=["matrix_values", "more_times", "more_values"])
def test_mm_fourier_complex_refuses_series_of_two_shapes(values, times):
    with pytest.raises(DimensionMismatch):
        mm_fourier_complex(_series(values, times), 0, 1)


_SEEDS = (st.integers(0, 2**64 - 1), st.sampled_from([-1, 1.5, math.nan, math.inf]))
_SIZES = (st.integers(1, 40), _NON_INTEGER)
_LEVELS = (st.floats(0.0, 1.7e308), _NON_FINITE)


@st.composite
def _one_hostile(draw, **fields):
    """A value for each field from its (valid, hostile) pair of strategies: all valid, or
    one of them hostile, so that each argument's check is reached on its own."""
    hostile = draw(st.sampled_from([None, *fields]))
    return {name: draw(pair[name == hostile]) for name, pair in fields.items()}


def _vol(kind, level, a, b, c):
    """A volatility model of ``kind`` from drawn parameters, built inside the checked call."""
    if kind == "constant":
        return ConstantVol(level)
    if kind == "piecewise":
        return PiecewiseVol((min(abs(a), 0.99) or 0.5,), (level, abs(b)))
    return OrnsteinUhlenbeckVol(level, abs(a), abs(b), c)


@_EXAMPLES
@given(kind=st.sampled_from(["constant", "piecewise", "ou"]),
       shape=st.tuples(_FINITE, _FINITE, _FINITE),
       args=_one_hostile(level=_LEVELS, drift=(_FINITE, _NON_FINITE), n=_SIZES,
                         refinement=(st.integers(1, 4), _NON_INTEGER), seed=_SEEDS))
def test_simulate_latent(kind, shape, args):
    _check(lambda: simulate_latent(_vol(kind, args["level"], *shape), ConstantDrift(args["drift"]),
                                   EquidistantScheme(args["n"]), args["refinement"], args["seed"]))


@_EXAMPLES
@given(every=st.integers(1, 3), args=_one_hostile(level=_LEVELS, variance=_LEVELS, n=_SIZES,
                                                  seed=_SEEDS))
def test_observe(every, args):
    def call():
        scheme = EquidistantScheme(args["n"])
        path = simulate_latent(ConstantVol(args["level"]), ConstantDrift(0.0), scheme, 1, 3)
        return observe(path, NoiseModel(args["variance"]),
                       EquidistantScheme(max(1, args["n"] // every)), args["seed"])

    _check(call)


@_EXAMPLES
@given(loadings=_vectors(min_size=3, max_size=6), assets=st.integers(1, 3),
       args=_one_hostile(n=_SIZES, seed=_SEEDS))
def test_simulate_latent_correlated(loadings, assets, args):
    sigma = loadings[: len(loadings) // assets * assets].reshape(assets, -1)
    _check(lambda: simulate_latent_correlated(sigma, EquidistantScheme(args["n"]),
                                              rng_seed=args["seed"]))


@_EXAMPLES
@given(loadings=_vectors(min_size=3, max_size=6), assets=st.integers(1, 3), mangle=_MANGLE)
def test_simulate_latent_correlated_mangled_shapes(loadings, assets, mangle):
    sigma = _MANGLES[mangle](loadings[: len(loadings) // assets * assets].reshape(assets, -1))
    _check(lambda: simulate_latent_correlated(sigma, EquidistantScheme(4), rng_seed=3))


@pytest.mark.parametrize("loadings", [[], np.ones((0, 2)), np.ones((2, 2, 2))],
                         ids=["empty_list", "no_asset", "three_dimensional"])
def test_simulate_latent_correlated_refuses_loadings_that_are_not_a_matrix(loadings):
    with pytest.raises(DimensionMismatch):
        simulate_latent_correlated(loadings, EquidistantScheme(4), rng_seed=3)


def test_simulate_latent_correlated_reads_a_vector_as_one_asset():
    paths, cov = simulate_latent_correlated([0.3, 0.4], EquidistantScheme(4), rng_seed=3)
    assert len(paths) == 1 and cov.shape == (1, 1) and cov[0, 0] == pytest.approx(0.25, rel=1e-15)


@_EXAMPLES
@given(args=_one_hostile(base=_SEEDS, replication=_SEEDS, stream=_SEEDS))
def test_derive_seed(args):
    _check(lambda: derive_seed(args["base"], args["replication"], args["stream"]))


@_EXAMPLES
@given(kind=st.sampled_from(list(JacobiKind)), dim=_size(0, 12))
def test_jacobi_matrices_and_eigenvalues(kind, dim):
    _check(lambda: build_jacobi(kind, dim))
    _check(lambda: eigenvalues_closed_form(kind, dim))


@_EXAMPLES
@given(m=_size(0, 12), n=_size(0, 12))
def test_cosine_square_sum(m, n):
    _check(lambda: cosine_square_sum(m, n))


@_EXAMPLES
@given(kind=st.sampled_from(list(BasisKind)), dim=_size(0, 12), columns=_size(0, 12))
def test_basis_columns(kind, dim, columns):
    _check(lambda: basis_columns(kind, dim, columns))


# (rows, out) for basis_columns on 9 rows and 3 columns, each refused with its error.
_BAD_ROWS_AND_OUT = {
    "non_integer_row": ((0.5, 2), None, InvalidParameter),
    "one_row_bound": ((1,), None, InvalidParameter),
    "bare_integer_rows": (5, None, InvalidParameter),
    "out_of_too_few_columns": (None, np.empty((9, 2)), DimensionMismatch),
    "out_of_too_many_rows": ((2, 4), np.empty((3, 3)), DimensionMismatch),
    "vector_out": ((2, 3), np.empty(3), DimensionMismatch),
    "int_out": (None, np.empty((9, 3), dtype=np.int64), InvalidParameter),
    "float32_out": (None, np.empty((9, 3), dtype=np.float32), InvalidParameter),
    "complex_out": (None, np.empty((9, 3), dtype=complex), InvalidParameter),
    "list_out": (None, [[0.0] * 3] * 9, InvalidParameter),
    "read_only_out": (None, np.broadcast_to(np.empty(3), (9, 3)), InvalidParameter),
}


@pytest.mark.parametrize("kind", list(BasisKind))
@pytest.mark.parametrize("case", sorted(_BAD_ROWS_AND_OUT))
def test_basis_columns_refuses_bad_rows_and_out(kind, case):
    rows, out, error = _BAD_ROWS_AND_OUT[case]
    with pytest.raises(error):
        basis_columns(kind, 9, 3, out, rows)


@_EXAMPLES
@given(kind=st.sampled_from(_REAL_KINDS), noise=_vectors(min_size=0), m=_size(0, 6))
def test_noise_functional(kind, noise, m):
    _check(lambda: noise_functional(kind, noise, m))


@_EXAMPLES
@given(kind=st.sampled_from(_REAL_KINDS), noise=_vectors(min_size=0), m=_size(0, 6),
       mangle=_MANGLE)
def test_noise_functional_mangled_shapes(kind, noise, m, mangle):
    _check(lambda: noise_functional(kind, _MANGLES[mangle](noise), m))


@pytest.mark.parametrize("shape", [(1, 9), (9, 1), (3, 3)])
def test_noise_functional_refuses_a_matrix(shape):
    noise = np.random.default_rng(5).normal(size=shape)
    with pytest.raises(DimensionMismatch):
        noise_functional(EstimatorKind.SIML, noise, 1)
