"""Tests for the estimators and their pure-noise functionals."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectralvol.errors import (
    CutoffTooLarge,
    EmptyInput,
    EvenLength,
    InvalidParameter,
    ResultOverflow,
)
from spectralvol.basis import BasisKind, JacobiKind, build_basis, build_jacobi
from spectralvol.estimators import (
    _REAL_FORMS,
    EstimatorKind,
    ina,
    mm_fourier_complex,
    mm_fourier_real_zero,
    noise_expectation_exact,
    noise_functional,
    result_csv_rows,
    siml,
)
from spectralvol.experiments import ExperimentConfig, check_experiment
from spectralvol.market import ConstantVol, NoiseModel, ObservationSeries, ZeroDrift

# The public estimator of each real kind.
REAL_ESTIMATORS = {
    EstimatorKind.SIML: siml,
    EstimatorKind.INA_SINE: ina,
    EstimatorKind.MM_FOURIER_REAL_ZERO: mm_fourier_real_zero,
}


def _series_from_deltas(deltas: np.ndarray) -> ObservationSeries:
    """Equidistant observation series whose increments are the given vector."""
    n = len(deltas)
    values = np.concatenate(([0.0], np.cumsum(deltas)))
    return ObservationSeries(
        times=np.arange(n + 1) / n, values=values, latent=values, noise=np.zeros(n + 1)
    )


class TestHandValues:
    def test_cosine_basis_two_increments(self):
        """n=2, m=1, dY=(1,0): value = 2 * 0.8 * cos^2(pi/10)."""
        result = siml([np.array([1.0, 0.0])], 1)
        assert result.value[0, 0] == pytest.approx(1.6 * np.cos(0.1 * np.pi) ** 2, rel=1e-12)
        assert result.value[0, 0] == pytest.approx(1.4472135955, rel=1e-9)

    def test_sine_basis_single_increment(self):
        """n=1, m=1, dY=(x): value = 2 x^2."""
        for x in (1.0, -2.5):
            assert ina([np.array([x])], 1).value[0, 0] == pytest.approx(2 * x * x, rel=1e-14)

    def test_fourier_m_zero_telescopes(self):
        """With only the constant column the estimate is (Y_n - Y_0)^2."""
        deltas = np.array([0.3, -1.2, 2.0, 0.1, -0.4])
        result = mm_fourier_real_zero([deltas], 0)
        assert result.value[0, 0] == pytest.approx(np.sum(deltas) ** 2, rel=1e-12)

    def test_complex_m_zero_q_zero_telescopes(self):
        deltas = np.array([0.5, 1.5, -0.25])
        obs = _series_from_deltas(deltas)
        result = mm_fourier_complex([obs], 0, 0)
        assert result.value[0, 0].real == pytest.approx(np.sum(deltas) ** 2, rel=1e-12)
        assert abs(result.value[0, 0].imag) < 1e-12


class TestZeroInput:
    @pytest.mark.parametrize(
        "call",
        [
            lambda z: siml([z], 2).value,
            lambda z: ina([z], 2).value,
            lambda z: mm_fourier_real_zero([z], 1).value,
        ],
    )
    def test_zero_increments_give_zero(self, call):
        np.testing.assert_array_equal(call(np.zeros(9)), np.zeros((1, 1)))

    def test_complex_zero(self):
        obs = _series_from_deltas(np.zeros(7))
        assert mm_fourier_complex([obs], 3, 2).value[0, 0] == 0


class TestEquivalences:
    def test_real_zero_matches_complex_on_odd_grid(self):
        """Cross-implementation oracle at q = 0 on the equidistant odd grid."""
        rng = np.random.default_rng(123)
        for _ in range(10):
            n_inc = 2 * int(rng.integers(5, 60)) + 1
            m = int(rng.integers(0, (n_inc - 1) // 2 + 1))
            deltas = rng.normal(size=n_inc)
            real = mm_fourier_real_zero([deltas], m).value[0, 0]
            cplx = mm_fourier_complex([_series_from_deltas(deltas)], 0, m).value[0, 0]
            assert abs(cplx.imag) <= 1e-10 * max(1.0, abs(real))
            assert real == pytest.approx(cplx.real, rel=1e-10)

    def test_complex_conjugate_pairing_keeps_cross_terms_real(self):
        rng = np.random.default_rng(5)
        obs = [_series_from_deltas(rng.normal(size=21)), _series_from_deltas(rng.normal(size=21))]
        value = mm_fourier_complex(obs, 0, 4).value
        assert np.max(np.abs(value.imag)) < 1e-10

    def test_complex_supports_asynchronous_grids(self):
        """Two assets on unrelated sampling grids: q=0 matrix is Hermitian-symmetric."""
        rng = np.random.default_rng(6)
        obs = []
        for n_obs in (17, 29):
            times = np.sort(np.concatenate(([0.0, 1.0], rng.uniform(0, 1, n_obs - 2))))
            values = np.cumsum(rng.normal(size=n_obs) * 0.1)
            obs.append(
                ObservationSeries(times=times, values=values, latent=values, noise=np.zeros(n_obs))
            )
        value = mm_fourier_complex(obs, 0, 3).value
        assert value.shape == (2, 2)
        np.testing.assert_allclose(value, value.conj().T, atol=1e-12)
        assert value[0, 0].real >= 0 and value[1, 1].real >= 0


def _full_exp_reference(obs, q, m):
    """The estimator with F_j(l+q) and F_j'(-l) each exponentiated directly."""
    ls = np.arange(-m, m + 1)

    def transform(o, freqs):
        return np.exp(2j * np.pi * np.outer(freqs, o.times[:-1])) @ np.diff(o.values)

    left = [transform(o, ls + q) for o in obs]
    right = [transform(o, -ls) for o in obs]
    return np.array([[np.sum(lt * rt) for rt in right] for lt in left]) / (2 * m + 1)


class TestHalfSpectrum:
    @pytest.mark.parametrize("equidistant", [True, False])
    @pytest.mark.parametrize("q", [0, 2, -3])
    def test_matches_full_exponential_formula(self, q, equidistant):
        rng = np.random.default_rng(40 + q)
        n_obs, m = 391, 9
        if equidistant:
            times = np.arange(n_obs) / (n_obs - 1)
        else:
            times = np.sort(np.concatenate(([0.0, 1.0], rng.uniform(0, 1, n_obs - 2))))
        obs = []
        for _ in range(2):
            values = np.cumsum(rng.normal(size=n_obs))
            obs.append(ObservationSeries(times=times, values=values, latent=values, noise=0 * values))
        value = mm_fourier_complex(obs, q, m).value
        reference = _full_exp_reference(obs, q, m)
        assert np.max(np.abs(value - reference)) <= 1e-13 * np.max(np.abs(reference))
        if q == 0:
            assert np.all(value.diagonal().imag == 0.0)
            assert mm_fourier_complex(obs[:1], 0, m).value[0, 0].imag == 0.0


def _equidistant_series(rng, n_inc):
    values = np.cumsum(rng.normal(size=n_inc + 1))
    times = np.arange(n_inc + 1) / n_inc
    return ObservationSeries(times=times, values=values, latent=values, noise=0 * values)


class TestEquidistantFft:
    """On t_k = k/n, to a few ulps, the Fourier coefficients come from one inverse DFT."""

    @pytest.mark.parametrize(
        "sizes, q, m",
        [((31,), 0, 9), ((31,), 4, 9), ((31,), -5, 26), ((31,), 0, 31), ((390,), -3, 387),
         ((20, 33), 0, 7), ((20, 33), 3, 17), ((33, 20), -6, 14)],
        ids=["q0", "q_pos", "m_plus_q_is_n", "m_is_n", "desk_n_m_plus_q_is_n",
             "two_n_q0", "two_n_m_plus_q_is_shortest", "two_n_q_neg"],
    )
    def test_matches_full_exponential_formula(self, sizes, q, m):
        rng = np.random.default_rng(sum(sizes) + q)
        obs = [_equidistant_series(rng, n) for n in sizes]
        value = mm_fourier_complex(obs, q, m).value
        reference = _full_exp_reference(obs, q, m)
        assert np.max(np.abs(value - reference)) <= 1e-13 * np.max(np.abs(reference))

    @pytest.mark.parametrize("nudge", [0, 1, -1, 1e-12])
    def test_only_the_exact_grid_takes_the_fft(self, monkeypatch, nudge):
        """Times within a few ulps of t_k = k/n take the FFT; a time 1e-12 off, the exp formula."""
        obs = _equidistant_series(np.random.default_rng(8), 25)
        if nudge in (1, -1):  # one ulp either way
            obs.times[7] = np.nextafter(obs.times[7], nudge * np.inf)
        else:
            obs.times[7] += nudge
        calls = []
        ifft = np.fft.ifft
        monkeypatch.setattr(np.fft, "ifft", lambda *a, **k: calls.append(1) or ifft(*a, **k))
        value = mm_fourier_complex([obs], 2, 6).value
        reference = _full_exp_reference([obs], 2, 6)
        assert np.max(np.abs(value - reference)) <= 1e-13 * np.max(np.abs(reference))
        assert len(calls) == (0 if nudge == 1e-12 else 1)

    @pytest.mark.parametrize("n", [390, 1560, 4680])
    def test_linspace_grid_takes_the_fft(self, monkeypatch, n):
        """np.linspace misses k/n by an ulp at some points; such a grid still takes the FFT."""
        rng = np.random.default_rng(n)
        values = np.cumsum(rng.normal(size=n + 1))
        times = np.linspace(0.0, 1.0, n + 1)
        assert not np.array_equal(times, np.arange(n + 1) / n)
        obs = ObservationSeries(times=times, values=values, latent=values, noise=0 * values)
        calls = []
        ifft = np.fft.ifft
        monkeypatch.setattr(np.fft, "ifft", lambda *a, **k: calls.append(1) or ifft(*a, **k))
        m = int(n**0.4)
        value = mm_fourier_complex([obs], 1, m).value
        reference = _full_exp_reference([obs], 1, m)
        assert np.max(np.abs(value - reference)) <= 1e-13 * np.max(np.abs(reference))
        assert len(calls) == 1


class TestNonFiniteAndUnordered:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_real_estimators_reject_non_finite(self, bad):
        for estimator in REAL_ESTIMATORS.values():
            with pytest.raises(InvalidParameter):
                estimator([np.array([1.0, bad, 2.0])], 1)
        with pytest.raises(InvalidParameter):
            siml([np.ones(3), np.array([1.0, 2.0, bad])], 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_noise_functional_rejects_non_finite(self, bad):
        with pytest.raises(InvalidParameter):
            noise_functional(EstimatorKind.SIML, np.array([0.0, bad, 1.0, 0.5]), 1)

    @pytest.mark.parametrize("column", ["values", "times"])
    def test_complex_rejects_non_finite(self, column):
        obs = _series_from_deltas(np.array([0.5, -0.25, 1.0]))
        getattr(obs, column)[1] = np.nan
        with pytest.raises(InvalidParameter):
            mm_fourier_complex([obs], 0, 1)

    def test_complex_input_rejected(self):
        """siml once returned 13.0165 here, dropping the imaginary part with only a warning."""
        deltas = np.array([1 + 5j, 2.0, 0.5])
        for estimator in REAL_ESTIMATORS.values():
            with pytest.raises(InvalidParameter, match="real"):
                estimator([deltas], 1)
            with pytest.raises(InvalidParameter, match="real"):
                estimator(deltas, 1)
        with pytest.raises(InvalidParameter, match="real"):
            noise_functional(EstimatorKind.SIML, np.array([0.0, 1 + 2j, 1.0, 0.5]), 1)
        for column in ("values", "times"):  # mm_fourier_complex returned 10.809+0j for 1+2j
            obs = _series_from_deltas(np.array([0.5, -0.25, 1.0]))
            hostile = getattr(obs, column).astype(complex)
            hostile[1] += 2j
            with pytest.raises(InvalidParameter, match="real"):
                mm_fourier_complex([dataclasses.replace(obs, **{column: hostile})], 0, 1)

    @pytest.mark.parametrize("times", [[0, 0.5, 0.25, 1], [0, 0.5, 0.5, 1]], ids=["swap", "tie"])
    def test_complex_rejects_unordered_times(self, times):
        values = np.array([0.0, 1.0, 0.5, 2.0])
        obs = ObservationSeries(
            times=np.array(times, dtype=float), values=values, latent=values, noise=0 * values
        )
        with pytest.raises(InvalidParameter):
            mm_fourier_complex([obs], 0, 1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_complex_rejects_overflowing_increments(self):
        values = np.array([0.0, 1e308, -1e308])
        obs = ObservationSeries(times=np.array([0.0, 0.5, 1.0]), values=values, latent=values,
                                noise=0 * values)
        with pytest.raises(InvalidParameter, match="overflows"):
            mm_fourier_complex([obs], 0, 1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_finite_increments_whose_estimate_overflows_are_rejected(self):
        deltas = np.array([1e200, -1e200, 1e200])
        for estimator in REAL_ESTIMATORS.values():
            with pytest.raises(InvalidParameter, match="overflows"):
                estimator([deltas], 1)
        with pytest.raises(InvalidParameter, match="overflows"):
            mm_fourier_complex([_series_from_deltas(deltas)], 0, 1)
        with pytest.raises(InvalidParameter, match="overflows"):
            noise_functional(EstimatorKind.SIML, np.concatenate(([0.0], np.cumsum(deltas))), 1)


class TestMonteCarloMeans:
    def test_cosine_basis_unbiased_without_noise(self):
        """E[V] = c exactly when Cov(dX) = (c/n) I; MC mean within 3 se."""
        c, n, m, reps = 1.0, 64, 4, 10_000
        rng = np.random.default_rng(2024)
        ests = np.empty(reps)
        for r in range(reps):
            deltas = rng.normal(0.0, np.sqrt(c / n), n)
            ests[r] = siml([deltas], m).value[0, 0]
        se = ests.std(ddof=1) / np.sqrt(reps)
        assert abs(ests.mean() - c) <= 3 * se

    def test_sine_basis_unbiased_without_noise(self):
        c, n, m, reps = 1.0, 4096, 25, 800
        rng = np.random.default_rng(99)
        ests = np.empty(reps)
        for r in range(reps):
            deltas = rng.normal(0.0, np.sqrt(c / n), n)
            ests[r] = ina([deltas], m).value[0, 0]
        se = ests.std(ddof=1) / np.sqrt(reps)
        assert abs(ests.mean() - c) <= 3 * se


class TestMultiAsset:
    def test_symmetry_and_positive_diagonal(self):
        rng = np.random.default_rng(8)
        deltas = [rng.normal(size=32), rng.normal(size=32)]
        for estimator in (siml, ina):
            value = estimator(deltas, 5).value
            np.testing.assert_array_equal(value, value.T)
            assert value[0, 0] >= 0 and value[1, 1] >= 0

    def test_identical_assets_agree_with_single(self):
        rng = np.random.default_rng(9)
        d = rng.normal(size=16)
        single = siml([d], 3).value[0, 0]
        pair = siml([d, d], 3).value
        np.testing.assert_allclose(pair, single * np.ones((2, 2)), rtol=1e-12)


@settings(max_examples=25)
@given(
    st.lists(st.floats(-10, 10), min_size=8, max_size=8),
    st.floats(-4, 4).filter(lambda s: abs(s) > 1e-6),
)
def test_quadratic_scaling(values, scale):
    """Scaling increments by s scales every estimator by s^2."""
    deltas = np.array(values)
    base = siml([deltas], 3).value[0, 0]
    scaled = siml([scale * deltas], 3).value[0, 0]
    assert scaled == pytest.approx(scale**2 * base, rel=1e-9, abs=1e-12)


class TestNoiseFunctional:
    def test_constant_noise_vanishes(self):
        for kind in (EstimatorKind.SIML, EstimatorKind.INA_SINE):
            assert noise_functional(kind, np.full(9, 3.7), 2) == 0.0

    def test_initial_spike_hand_value(self):
        """v=(1,0,0), m=1: value = 2 * p_{1,1}^2 = 1.6 cos^2(pi/10)."""
        value = noise_functional(EstimatorKind.SIML, np.array([1.0, 0.0, 0.0]), 1)
        assert value == pytest.approx(1.6 * np.cos(0.1 * np.pi) ** 2, rel=1e-12)

    @pytest.mark.parametrize(
        "kind,n_inc,m",
        [
            (EstimatorKind.SIML, 32, 4),
            (EstimatorKind.INA_SINE, 32, 4),
            (EstimatorKind.MM_FOURIER_REAL_ZERO, 33, 4),
        ],
    )
    def test_mc_mean_matches_exact_expectation(self, kind, n_inc, m):
        """Sample mean over 10^4 draws within 4 se of the trace oracle."""
        nu = 0.5
        exact = noise_expectation_exact(kind, n_inc, m, nu)
        rng = np.random.default_rng(31)
        draws = np.empty(10_000)
        for r in range(len(draws)):
            v = rng.normal(0.0, np.sqrt(nu), n_inc + 1)
            draws[r] = noise_functional(kind, v, m)
        se = draws.std(ddof=1) / np.sqrt(len(draws))
        assert abs(draws.mean() - exact) <= 4 * se

    def test_complex_kind_rejected(self):
        with pytest.raises(InvalidParameter):
            noise_functional(EstimatorKind.MM_FOURIER_COMPLEX, np.zeros(5), 1)

    @pytest.mark.parametrize("kind", list(REAL_ESTIMATORS), ids=lambda k: k.value)
    @pytest.mark.parametrize("n, m", [(5, 1), (5, 2), (63, 4), (1025, 12)])
    def test_equals_public_estimator_on_increments(self, kind, n, m):
        """One form: the functional of v is the estimator applied to diff(v)."""
        v = np.random.default_rng(n + m).standard_normal(n + 1)
        estimate = REAL_ESTIMATORS[kind]([np.diff(v)], m).value[0, 0]
        assert noise_functional(kind, v, m) == pytest.approx(estimate, rel=1e-12)

    @pytest.mark.parametrize("kind", list(REAL_ESTIMATORS), ids=lambda k: k.value)
    @pytest.mark.parametrize("n, m", [(5, 1), (5, 2), (63, 4), (1025, 12)])
    def test_is_public_estimator_bit_for_bit(self, kind, n, m):
        """The functional is computed by the estimator itself, not by a second copy of its form."""
        v = np.random.default_rng(n + m).standard_normal(n + 1)
        estimate = REAL_ESTIMATORS[kind]([np.diff(v)], m).value[0, 0]
        assert noise_functional(kind, v, m) == estimate


class TestNoiseExpectationExact:
    def test_zero_variance(self):
        assert noise_expectation_exact(EstimatorKind.SIML, 16, 3, 0.0) == 0.0

    @pytest.mark.parametrize(
        "n,m,variance",
        [(64, 4, math.nan), (64, 4, math.inf), (64.5, 4, 1.0), (64, 4.5, 1.0), (64.0, 4, 1.0),
         (math.nan, 4, 1.0)],
        ids=["variance_nan", "variance_inf", "n_half", "m_half", "n_float", "n_nan"],
    )
    def test_refuses_bad_variance_and_non_integer_sizes(self, n, m, variance):
        with pytest.raises(InvalidParameter):
            noise_expectation_exact(EstimatorKind.SIML, n, m, variance)

    def test_refuses_an_overflowing_expectation(self):
        with pytest.raises(ResultOverflow):
            noise_expectation_exact(EstimatorKind.SIML, 40, 4, 1e308)

    def test_never_negative(self):
        """The trace of a positive semidefinite form; 0.0 for one increment with both ends out."""
        for kind, (basis, per_mode, constant, _) in _REAL_FORMS.items():
            for n in range(1, 9):
                if basis is BasisKind.FOURIER_REAL and n % 2 == 0:
                    continue
                for m in range(1 - constant, (n - constant) // per_mode + 1):
                    for ends in [(True, True), (False, True), (True, False), (False, False)]:
                        value = noise_expectation_exact(kind, n, m, 0.37, *ends)
                        assert value >= 0.0, (kind, n, m, ends)
                        if n == 1 and ends == (False, False):
                            assert value == 0.0, kind

    @pytest.mark.parametrize("kind", sorted(_REAL_FORMS, key=lambda k: k.value),
                             ids=lambda k: k.value)
    def test_builds_nothing_longer_than_its_columns(self, kind):
        """At n = 2^20 + 1 a one-period cosine table alone would take 64 MiB."""
        tracemalloc.start()
        try:
            noise_expectation_exact(kind, 2**20 + 1, 256, 1.0, False, True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_cosine_floor_with_initial_noise(self):
        """The exact expectation sits above nu/2 whenever m <= n/2 (sampled)."""
        nu = 0.3
        for n in (3, 16, 65, 257):
            for m in range(1, n // 2 + 1):
                value = noise_expectation_exact(EstimatorKind.SIML, n, m, nu)
                assert value >= nu / 2

    def test_cosine_noise_free_initial_observation_decays(self):
        """Without initial noise the cosine expectation is the small a-term only."""
        nu = 1.0
        with_v0 = noise_expectation_exact(EstimatorKind.SIML, 1024, 16, nu, include_initial=True)
        without_v0 = noise_expectation_exact(EstimatorKind.SIML, 1024, 16, nu, include_initial=False)
        assert without_v0 < 0.9  # ~ pi^2 m^2 / (3n)
        assert with_v0 - without_v0 >= nu / 2

    def test_fourier_floor_with_end_noise(self):
        nu = 0.7
        for n_inc in (5, 33, 101):
            for m in range(0, (n_inc - 1) // 2):
                value = noise_expectation_exact(EstimatorKind.MM_FOURIER_REAL_ZERO, n_inc, m, nu)
                assert value >= 2 * nu - 1e-12

    def test_sine_term_below_explicit_bound(self):
        nu = 1.0
        for n in (64, 256, 1024):
            m = int(n**0.4)
            value = noise_expectation_exact(EstimatorKind.INA_SINE, n, m, nu)
            bound = 2 * nu * np.pi**2 * (1 / (n + 1) + 1 / (n + 1) ** 2) * np.sum(
                np.arange(1.0, m + 1) ** 2
            ) / m
            assert value <= bound

    def test_fourier_small_gaps_survive_excluded_ends(self):
        """With both ends out the Fourier trace is (1 - 1/n) sum gaps, 7e-11 here: rows 1
        and n, each of norm^2 columns/n = 3e-6, must cancel without rounding it away."""
        n = 2**20 + 1
        expected = n / 3 * (1 - 1 / n) * np.sum(4 * np.sin(np.array([0, 1, 1]) * np.pi / n) ** 2)
        got = noise_expectation_exact(EstimatorKind.MM_FOURIER_REAL_ZERO, n, 1, 1.0, False, False)
        assert got == pytest.approx(expected, rel=1e-14)

    def test_sine_closed_form_expectation(self):
        """Full-noise sine expectation equals ((n+1)/m) nu sum 4 sin^2(l pi / (2(n+1)))."""
        n, m, nu = 40, 6, 2.0
        l = np.arange(1, m + 1)
        expected = (n + 1) / m * nu * np.sum(4 * np.sin(l * np.pi / (2 * (n + 1))) ** 2)
        assert noise_expectation_exact(EstimatorKind.INA_SINE, n, m, nu) == pytest.approx(
            expected, rel=1e-12
        )


def _trace_cases():
    """(kind, n, full) for the dense check: the n^0.5 cutoff, and the whole basis."""
    cases = []
    for kind in sorted(_REAL_FORMS, key=lambda k: k.value):
        odd_only = _REAL_FORMS[kind][0] is BasisKind.FOURIER_REAL
        for n, full in [(n, False) for n in (1, 2, 3, 5, 1023, 1024, 1025, 2049)] + [
            (n, True) for n in (2, 3, 5, 64, 65, 1023, 1024)
        ]:
            if n % 2 or not odd_only:
                name = f"{kind.value}-{n}" + ("-full" if full else "")
                cases.append(pytest.param(kind, n, full, id=name))
    return cases


class TestTiledNoiseTrace:
    """The closed-form oracle against the dense pref * nu * trace(B.T @ C @ B)."""

    @pytest.mark.parametrize("ends", [(True, True), (False, True), (True, False), (False, False)])
    @pytest.mark.parametrize("kind,n,full", _trace_cases())
    def test_matches_dense_trace(self, kind, n, full, ends):
        basis, per_mode, constant, shift = _REAL_FORMS[kind]
        m = (n - constant) // per_mode if full else max(1 - constant, int(n**0.5) // per_mode)
        columns = per_mode * m + constant
        b = build_basis(basis, n)[:, :columns]
        c = 2.0 * np.eye(n) - build_jacobi(JacobiKind.JN_TILDE_PRIME, n)
        c[0, 0] -= 0.0 if ends[0] else 1.0
        c[-1, -1] -= 0.0 if ends[1] else 1.0
        nu = 0.37
        dense = (n + shift) / columns * nu * np.trace(b.T @ c @ b)
        got = noise_expectation_exact(kind, n, m, nu, *ends)
        # Where the form is exactly 0 (with both ends out: n = 1, and the sine
        # basis's constant column at n = 2) the dense trace is rounding, 1.4e-32.
        assert abs(got - dense) <= 1e-12 * abs(dense) + 1e-30


class TestErrors:
    def test_cutoff_too_large(self):
        with pytest.raises(CutoffTooLarge):
            siml([np.ones(4)], 5)
        with pytest.raises(CutoffTooLarge):
            mm_fourier_real_zero([np.ones(5)], 3)

    def test_complex_cutoff_within_shortest_series(self):
        """On t_k = k/n the frequencies repeat with period n, so m + |q| may not exceed n."""
        rng = np.random.default_rng(9)
        obs = [_series_from_deltas(rng.normal(size=k)) for k in (12, 7)]
        for q in (0, 3, -3):
            assert mm_fourier_complex(obs, q, 7 - abs(q)).value.shape == (2, 2)
            with pytest.raises(CutoffTooLarge):
                mm_fourier_complex(obs, q, 8 - abs(q))
        assert mm_fourier_complex(obs[:1], 0, 12).value.shape == (1, 1)
        with pytest.raises(CutoffTooLarge):
            mm_fourier_complex(obs[:1], 0, 13)

    def test_even_length_rejected(self):
        with pytest.raises(EvenLength):
            mm_fourier_real_zero([np.ones(6)], 1)

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            siml([], 1)
        with pytest.raises(EmptyInput):
            noise_functional(EstimatorKind.SIML, np.array([1.0]), 1)

    def test_nonpositive_cutoff(self):
        with pytest.raises(InvalidParameter):
            siml([np.ones(4)], 0)

    @pytest.mark.parametrize("size", [1.5, 2.0, math.nan])
    def test_non_integer_cutoff_or_shift(self, size):
        for estimator in REAL_ESTIMATORS.values():
            with pytest.raises(InvalidParameter):
                estimator([np.ones(5)], size)
        obs = _series_from_deltas(np.ones(5))
        for q, m in ((0, size), (size, 1)):
            with pytest.raises(InvalidParameter):
                mm_fourier_complex(obs, q, m)

    @pytest.mark.parametrize(
        "kind, n, m, error",
        [
            (EstimatorKind.MM_FOURIER_REAL_ZERO, 6, 1, EvenLength),
            (EstimatorKind.SIML, 5, 0, InvalidParameter),
            (EstimatorKind.INA_SINE, 5, 0, InvalidParameter),
            (EstimatorKind.SIML, 5, 6, CutoffTooLarge),
            (EstimatorKind.INA_SINE, 5, 6, CutoffTooLarge),
            (EstimatorKind.MM_FOURIER_REAL_ZERO, 5, 3, CutoffTooLarge),
        ],
        ids=["fourier_even_n", "siml_m0", "ina_m0", "siml_m_above_n", "ina_m_above_n",
             "fourier_columns_above_n"],
    )
    def test_bad_form_raises_one_class_everywhere(self, kind, n, m, error):
        """Estimator, noise oracle and study check reject a bad (kind, n, m) alike."""
        assert issubclass(error, InvalidParameter)

        def study():
            config = ExperimentConfig(
                kinds=(kind,),
                n_schedule=(n,),
                vol=ConstantVol(1.0),
                drift=ZeroDrift(),
                noise=NoiseModel(0.0),
                replications=2,
                base_seed=0,
                m_exponent=math.log(m + 0.5) / math.log(n),  # cutoff floor(n^alpha) = m
            )
            check_experiment("consistency", config)

        calls = {
            "estimator": lambda: REAL_ESTIMATORS[kind]([np.ones(n)], m),
            "noise_expectation_exact": lambda: noise_expectation_exact(kind, n, m, 1.0),
            "noise_functional": lambda: noise_functional(kind, np.zeros(n + 1), m),
            "check_experiment": study,
        }
        for name, call in calls.items():
            with pytest.raises(InvalidParameter) as info:
                call()
            assert info.type is error, name


class TestCsvRows:
    def test_row_shape(self):
        result = siml([np.array([1.0, 0.0])], 1)
        rows = result_csv_rows(result)
        assert len(rows) == 1
        kind, n, m, q, j, jp, re_, im_ = rows[0].split(",")
        assert (kind, n, m, q, j, jp) == ("siml", "2", "1", "", "0", "0")
        assert float(re_) == pytest.approx(1.4472135955, rel=1e-9)
        assert float(im_) == 0.0

    def test_complex_rows_carry_q(self):
        obs = _series_from_deltas(np.array([0.5, 1.5, -0.25]))
        rows = result_csv_rows(mm_fourier_complex([obs], 2, 1))
        assert rows[0].split(",")[3] == "2"
