"""Tests for the spectral quasi-likelihood and its separating decomposition."""

import importlib.util
import math
from dataclasses import is_dataclass
from pathlib import Path

import numpy as np
import pytest

from spectralvol.basis import BasisKind, JacobiKind, basis_columns, eigenvalues_closed_form, noise_law
from spectralvol.errors import (
    DegenerateData,
    DegenerateVariance,
    DimensionMismatch,
    EmptyInput,
    InvalidParameter,
    ResultOverflow,
)
from spectralvol.estimators import ina, mm_fourier_complex, siml
from spectralvol.likelihood import (
    LikelihoodParams,
    PartitionChoice,
    SpectralCoefficients,
    a_coefficients,
    decompose,
    joint_mle,
    log_likelihood,
    maximize_L1,
    noise_variance_estimate,
    spectral_transform,
)
from spectralvol.market import (
    ConstantVol,
    EquidistantScheme,
    NoiseModel,
    ZeroDrift,
    observe,
    simulate_latent,
)

_ROOT = Path(__file__).resolve().parents[1]


class TestSpectralTransform:
    def test_single_increment_is_identity(self):
        z = spectral_transform(np.array([2.5]))
        np.testing.assert_allclose(z.z, [2.5], rtol=1e-15)

    def test_zero_maps_to_zero(self):
        np.testing.assert_array_equal(spectral_transform(np.zeros(8)).z, np.zeros(8))

    def test_norm_identity(self):
        """||z||^2 = n ||dY||^2 by orthogonality."""
        rng = np.random.default_rng(0)
        for n in (2, 17, 333, 2000):
            dy = rng.normal(size=n)
            z = spectral_transform(dy)
            assert np.sum(z.z**2) == pytest.approx(n * np.sum(dy**2), rel=1e-10)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            spectral_transform(np.array([]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(InvalidParameter):
            spectral_transform(np.array([1.0, bad, 2.0]))

    def test_complex_rejected(self):
        with pytest.raises(InvalidParameter, match="real"):
            spectral_transform(np.array([1 + 5j, 2.0, 0.5]))

    @pytest.mark.parametrize(
        "z,n,error",
        [
            (np.array([1.0, np.nan, 0.5]), 3, InvalidParameter),
            (np.array([1.0, np.inf, 0.5]), 3, InvalidParameter),
            (np.array([-np.inf]), 1, InvalidParameter),
            (np.array([1.0, 2.0]), 3, DimensionMismatch),
            (np.array([1.0, 2.0, 3.0]), 2, DimensionMismatch),
            (np.array([]), 0, DimensionMismatch),
            (np.ones((2, 2)), 2, DimensionMismatch),
            (np.array([1.0, 2.0]), 2.0, InvalidParameter),
            (np.array([1 + 5j, 2.0, 0.5]), 3, InvalidParameter),
        ],
        ids=["nan", "inf", "minus_inf", "short", "long", "empty", "matrix", "float_n", "complex"],
    )
    def test_coefficients_are_checked_where_made(self, z, n, error):
        """A NaN coefficient once came back from joint_mle as its start point, with L = nan."""
        with pytest.raises(error):
            SpectralCoefficients(z, n)

    def test_matches_dense_cosine_basis(self):
        """The FFT path equals sqrt(n) P^T dY with the dense basis, to 1e-12 ||z||.

        n = 1560 makes the FFT length 2n + 1 = 3121, a prime; n = 4096 makes
        it 8193 = 3 * 2731; the rest cover the smallest sizes and seeded random n.
        """
        rng = np.random.default_rng(2024)
        sizes = [1, 2, 3, 97, 390, 1560, 4096] + [int(v) for v in rng.integers(4, 700, 6)]
        for n in sizes:
            dy = rng.normal(size=n)
            z = spectral_transform(dy).z
            dense = math.sqrt(n) * (basis_columns(BasisKind.SIML_COSINE, n, n).T @ dy)
            norm = float(np.linalg.norm(z))
            assert np.max(np.abs(z - dense)) <= 1e-12 * norm, n
            assert norm**2 == pytest.approx(n * float(np.sum(dy**2)), rel=1e-10)


class TestACoefficients:
    def test_dim_one(self):
        """4 sin^2(pi/6) = 1."""
        np.testing.assert_allclose(a_coefficients(1), [1.0], rtol=1e-14)

    def test_strictly_increasing(self):
        for n in (2, 33, 500):
            assert np.all(np.diff(a_coefficients(n)) > 0)

    def test_consistency_with_closed_form_eigenvalues(self):
        """a_k = n (2 - lambda_k) to 1e-10."""
        for n in (1, 5, 64, 257):
            lam = eigenvalues_closed_form(JacobiKind.JN, n)
            np.testing.assert_allclose(a_coefficients(n), n * (2.0 - lam), atol=1e-10)

    def test_n_times_cosine_gaps_bit_for_bit(self):
        """The cosine law with the initial noise out and the terminal in is its gaps alone."""
        for n in (1, 2, 390, 1560, 4680, 16384):
            gaps, terms = noise_law(BasisKind.SIML_COSINE, n, n, False, True)
            assert terms == []
            assert a_coefficients(n).tobytes() == (n * gaps).tobytes()

    def test_top_coefficient_near_four_n(self):
        for n in (50, 200, 1000):
            assert a_coefficients(n)[-1] >= 3.9 * n


class TestLogLikelihood:
    def test_clean_zero_case(self):
        z = SpectralCoefficients(z=np.array([0.0]), n=1)
        assert log_likelihood(z, LikelihoodParams(c=1.0, nu=0.0)) == 0.0

    def test_direct_formula(self):
        z = SpectralCoefficients(z=np.array([1.0, 2.0]), n=2)
        params = LikelihoodParams(c=0.5, nu=0.25)
        d = 0.5 + a_coefficients(2) * 0.25
        expected = -0.5 * np.sum(np.log(d)) - 0.5 * np.sum(np.array([1.0, 4.0]) / d)
        assert log_likelihood(z, params) == pytest.approx(expected, rel=1e-14)

    def test_monotone_in_squared_coefficients(self):
        params = LikelihoodParams(c=1.0, nu=0.1)
        small = SpectralCoefficients(z=np.array([1.0, 1.0]), n=2)
        large = SpectralCoefficients(z=np.array([1.0, 3.0]), n=2)
        assert log_likelihood(large, params) < log_likelihood(small, params)

    def test_degenerate_variance(self):
        z = SpectralCoefficients(z=np.array([1.0]), n=1)
        with pytest.raises(DegenerateVariance):
            log_likelihood(z, LikelihoodParams(c=0.0, nu=0.0))

    @pytest.mark.parametrize("c,nu", [(np.nan, 0.1), (1.0, np.nan), (np.inf, 0.1), (1.0, -np.inf)])
    def test_non_finite_params_rejected(self, c, nu):
        z = SpectralCoefficients(z=np.array([1.0, 0.5, 0.7]), n=3)
        with pytest.raises(InvalidParameter):
            log_likelihood(z, LikelihoodParams(c, nu))

    def test_grid_maximum_near_truth(self):
        """Averaged over replications, the likelihood peaks at the generating point."""
        n, c_true, nu_true, reps = 256, 1.0, 1e-3, 200
        a = a_coefficients(n)
        rng = np.random.default_rng(7)
        c_grid = np.array([0.25, 0.5, 1.0, 2.0, 4.0])
        nu_grid = np.array([2.5e-4, 5e-4, 1e-3, 2e-3, 4e-3])
        totals = np.zeros((len(c_grid), len(nu_grid)))
        for _ in range(reps):
            z = SpectralCoefficients(z=np.sqrt(c_true + a * nu_true) * rng.standard_normal(n), n=n)
            for i, c in enumerate(c_grid):
                for j, nu in enumerate(nu_grid):
                    totals[i, j] += log_likelihood(z, LikelihoodParams(c, nu))
        best = np.unravel_index(np.argmax(totals), totals.shape)
        assert best == (2, 2)


class TestDecompose:
    def _z(self):
        return SpectralCoefficients(z=np.array([1.0, 2.0]), n=2)

    def test_defining_identity(self):
        out = decompose(self._z(), LikelihoodParams(0.5, 0.25), PartitionChoice(m=1, l=1))
        assert 2 * out.total == pytest.approx(
            out.low_frequency + out.high_frequency + out.remainder, abs=1e-9
        )

    def test_hand_arithmetic(self):
        """All four values by direct arithmetic at n=2, m=l=1, z=(1,2), c=1/2, nu=1/4."""
        out = decompose(self._z(), LikelihoodParams(0.5, 0.25), PartitionChoice(m=1, l=1))
        a = a_coefficients(2)
        d = 0.5 + a * 0.25
        total = -0.5 * (math.log(d[0]) + math.log(d[1])) - 0.5 * (1.0 / d[0] + 4.0 / d[1])
        low = -1 * math.log(0.5) - (1.0 / 0.5) * 1.0
        high = -math.log(a[1] * 0.25) - (1.0 / 0.25) * (4.0 / a[1])
        assert out.total == pytest.approx(total, rel=1e-12)
        assert out.low_frequency == pytest.approx(low, rel=1e-12)
        assert out.high_frequency == pytest.approx(high, rel=1e-12)
        assert out.remainder == pytest.approx(2 * total - low - high, rel=1e-12)

    def test_low_part_ignores_high_coefficients(self):
        params = LikelihoodParams(1.0, 0.5)
        z1 = SpectralCoefficients(z=np.array([1.0, 2.0, 3.0, 4.0]), n=4)
        z2 = SpectralCoefficients(z=np.array([1.0, 2.0, -9.0, 0.5]), n=4)
        part = PartitionChoice(m=2, l=1)
        assert (
            decompose(z1, params, part).low_frequency
            == decompose(z2, params, part).low_frequency
        )

    def test_degenerate_parameters(self):
        with pytest.raises(DegenerateVariance):
            decompose(self._z(), LikelihoodParams(0.0, 0.25), PartitionChoice(1, 1))
        with pytest.raises(DegenerateVariance):
            decompose(self._z(), LikelihoodParams(0.5, 0.0), PartitionChoice(1, 1))

    def test_bad_partition(self):
        with pytest.raises(InvalidParameter):
            decompose(self._z(), LikelihoodParams(1.0, 1.0), PartitionChoice(2, 1))

    @pytest.mark.parametrize(
        "params,partition",
        [
            (LikelihoodParams(np.nan, 0.1), PartitionChoice(1, 1)),
            (LikelihoodParams(0.5, np.inf), PartitionChoice(1, 1)),
            (LikelihoodParams(0.5, 0.25), PartitionChoice(1.0, 1)),
            (LikelihoodParams(0.5, 0.25), PartitionChoice(1, 1.0)),
        ],
        ids=["c_nan", "nu_inf", "float_m", "float_l"],
    )
    def test_non_finite_params_and_non_integer_partition_rejected(self, params, partition):
        with pytest.raises(InvalidParameter):
            decompose(self._z(), params, partition)


class TestClosedFormMaximizers:
    def test_single_mode(self):
        z = SpectralCoefficients(z=np.array([2.0, 0.0, 0.0]), n=3)
        assert maximize_L1(z, 1) == 4.0

    def test_matches_cosine_estimator(self):
        """The low-frequency maximizer is the cosine-basis estimate (same m)."""
        rng = np.random.default_rng(17)
        for _ in range(10):
            n = int(rng.integers(2, 200))
            m = int(rng.integers(1, n + 1))
            deltas = rng.normal(size=n)
            direct = siml([deltas], m).value[0, 0]
            via_likelihood = maximize_L1(spectral_transform(deltas), m)
            assert via_likelihood == pytest.approx(direct, rel=1e-10)

    def test_siml_is_the_low_part_maximizer_to_rounding(self):
        """Both read the same FFT coefficients, so they agree to a few ulps."""
        rng = np.random.default_rng(18)
        for n in (1, 2, 7, 390, 1560, 4680, 4681):
            deltas = rng.normal(size=n)
            for m in sorted({1, int(n**0.4), n}):
                direct = siml([deltas], m).value[0, 0]
                assert maximize_L1(spectral_transform(deltas), m) == pytest.approx(
                    direct, rel=1e-14
                )

    def test_stationary_point_of_low_part(self):
        "Finite differences: d/dc of the low part vanishes at the maximizer."
        rng = np.random.default_rng(3)
        z = spectral_transform(rng.normal(size=32))
        m = 5
        c_star = maximize_L1(z, m)

        def low(c):
            return -m * math.log(c) - float(np.sum(z.z[:m] ** 2)) / c

        h = 1e-6 * c_star
        deriv = (low(c_star + h) - low(c_star - h)) / (2 * h)
        assert abs(deriv) < 1e-6

    def test_noise_estimate_single_mode(self):
        """n=1, l=1, z=(2): nu* = 4 / a_{1,1} = 4."""
        z = SpectralCoefficients(z=np.array([2.0]), n=1)
        assert noise_variance_estimate(z, 1) == pytest.approx(4.0, rel=1e-14)

    def test_noise_estimate_stationary_point(self):
        rng = np.random.default_rng(4)
        z = spectral_transform(rng.normal(size=64))
        l = 8
        nu_star = noise_variance_estimate(z, l)
        a = a_coefficients(64)

        def high(nu):
            tail = slice(64 - l, None)
            return -float(np.sum(np.log(a[tail] * nu))) - float(
                np.sum(z.z[tail] ** 2 / a[tail])
            ) / nu

        h = 1e-6 * nu_star
        deriv = (high(nu_star + h) - high(nu_star - h)) / (2 * h)
        assert abs(deriv) < 1e-6

    def test_pure_noise_recovery(self):
        """With zero volatility, E[z_k^2] = a_k nu, so nu* is unbiased (3 se)."""
        n, l, nu, reps = 1024, 64, 1e-4, 400
        rng = np.random.default_rng(12)
        draws = np.empty(reps)
        for r in range(reps):
            v = rng.normal(0.0, np.sqrt(nu), n + 1)
            v[0] = 0.0
            draws[r] = noise_variance_estimate(spectral_transform(np.diff(v)), l)
        se = draws.std(ddof=1) / np.sqrt(reps)
        assert abs(draws.mean() - nu) <= 3 * se

    def test_degenerate_data(self):
        z = SpectralCoefficients(z=np.zeros(4), n=4)
        with pytest.raises(DegenerateData):
            maximize_L1(z, 2)
        with pytest.raises(DegenerateData):
            noise_variance_estimate(z, 2)

    @pytest.mark.parametrize("size", [1.5, 2.0])
    def test_non_integer_sizes_rejected(self, size):
        z = SpectralCoefficients(z=np.array([1.0, 0.5, 0.7]), n=3)
        with pytest.raises(InvalidParameter):
            maximize_L1(z, size)
        with pytest.raises(InvalidParameter):
            noise_variance_estimate(z, size)

    @pytest.mark.parametrize("size", [0, 4])
    def test_sizes_outside_one_to_n_rejected(self, size):
        z = SpectralCoefficients(z=np.array([1.0, 0.5, 0.7]), n=3)
        with pytest.raises(InvalidParameter, match="1 <= l <= 3"):
            noise_variance_estimate(z, size)


class TestOverflowRefused:
    """Finite input whose likelihood or estimate overflows float64 raises, without a warning."""

    pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

    def test_transform(self):
        with pytest.raises(InvalidParameter, match="overflow"):
            spectral_transform(np.array([1e308, 1e308]))

    def test_closed_form_maximizers(self):
        z = SpectralCoefficients(np.array([1e308, 1.0]), 2)
        with pytest.raises(ResultOverflow):
            maximize_L1(z, 1)
        with pytest.raises(ResultOverflow):
            noise_variance_estimate(SpectralCoefficients(np.array([1.0, 1e308]), 2), 1)

    @pytest.mark.parametrize("c,nu", [(5e-324, 0.0), (1.0, 1e308)])
    def test_likelihood_and_decomposition(self, c, nu):
        z = SpectralCoefficients(np.array([0.0, 1e308]), 2)
        with pytest.raises(ResultOverflow):
            log_likelihood(z, LikelihoodParams(c, nu))
        with pytest.raises(ResultOverflow):
            decompose(z, LikelihoodParams(c, nu or 1.0), PartitionChoice(1, 1))

    def test_joint_mle(self):
        with pytest.raises(ResultOverflow):
            joint_mle(SpectralCoefficients(np.array([1e200, 1.0, 1e200]), 3),
                      LikelihoodParams(1.0, 0.1))


class TestCovarianceModel:
    def test_spectral_variances(self):
        """Var(z_k) = c + a_k nu at spot-checked k, within 4 se over 10^4 draws."""
        n, c, nu, reps = 64, 1.0, 0.01, 10_000
        rng = np.random.default_rng(21)
        dx = rng.normal(0.0, np.sqrt(c / n), size=(reps, n))
        v = rng.normal(0.0, np.sqrt(nu), size=(reps, n + 1))
        v[:, 0] = 0.0
        dy = dx + np.diff(v, axis=1)
        from spectralvol.basis import BasisKind, basis_columns

        cols = basis_columns(BasisKind.SIML_COSINE, n, n)[:, [0, n // 2 - 1, n - 1]]
        z = np.sqrt(n) * dy @ cols
        a = a_coefficients(n)[[0, n // 2 - 1, n - 1]]
        target = c + a * nu
        sample_var = z.var(axis=0, ddof=1)
        se = target * np.sqrt(2.0 / reps)
        assert np.all(np.abs(sample_var - target) <= 4 * se)


def _gradient_and_hessian(z, c, nu):
    """Gradient and Hessian of L in (c, nu)."""
    a = a_coefficients(z.n)
    z2 = z.z**2
    d = c + a * nu
    g = 0.5 * (z2 - d) / d**2
    h = 0.5 / d**2 - z2 / d**3
    grad = np.array([g.sum(), (a * g).sum()])
    hess = np.array([[h.sum(), (a * h).sum()], [(a * h).sum(), (a * a * h).sum()]])
    return grad, hess


def _profile(z, rho):
    """The profile likelihood max_c L(c, rho c) at each ratio rho = nu/c.

    The maximizer is c(rho) = mean(z_k^2 / (1 + a_k rho)), where
    sum z_k^2 / (c + a_k nu) = n, so the profile is -(n log c(rho) + sum log(1 + a_k rho) + n)/2.
    """
    scale = 1.0 + a_coefficients(z.n) * np.asarray(rho)[:, None]
    c = np.mean(z.z**2 / scale, axis=1)
    return -0.5 * (z.n * np.log(c) + np.sum(np.log(scale), axis=1) + z.n)


def _profile_grid_best(z):
    """Best L over both ends and the profile at 400 log-spaced rho, 1e-6 <= a_k rho <= 1e6."""
    a, z2 = a_coefficients(z.n), z.z**2
    rho = np.logspace(math.log10(1e-6 / a[-1]), math.log10(1e6 / a[0]), 400)
    ends = [LikelihoodParams(float(np.mean(z2)), 0.0),
            LikelihoodParams(0.0, float(np.mean(z2 / a)))]
    return max(float(_profile(z, rho).max()), *(log_likelihood(z, end) for end in ends))


def _zero_score_coefficients(a, seed):
    """Coefficients whose score at (c0, 0), sum a_k (z_k^2 - c0), is 0 up to rounding and
    positive: squares drawn uniform, the top one solved for a zero score, and the top
    coefficient raised an ulp at a time until the computed score is positive."""
    z2 = np.random.default_rng(seed).uniform(0.5, 1.5, len(a))
    z2[:-1] *= 1 + (a[:-1] < a.mean())  # weight on the low modes leaves the top square positive
    z2[-1] = -np.sum((a[:-1] - a.mean()) * z2[:-1]) / (a[-1] - a.mean())
    z = np.sqrt(z2)
    while not np.sum(a * (z**2 - np.mean(z**2))) > 0:
        z[-1] = np.nextafter(z[-1], np.inf)
    return SpectralCoefficients(z=z, n=len(a))


def _desk_fit(n, nu, noisy_start, seed):
    """A constant-volatility day series, fitted from the closed-form L1 and L2 maximizers."""
    scheme = EquidistantScheme(n)
    path = simulate_latent(ConstantVol(1.0), ZeroDrift(), scheme, refinement=1, rng_seed=seed)
    obs = observe(path, NoiseModel(nu, include_initial=noisy_start), scheme, rng_seed=seed + 1)
    z = spectral_transform(np.diff(obs.values))
    m = int(math.floor(n**0.4))
    init = LikelihoodParams(c=maximize_L1(z, m), nu=noise_variance_estimate(z, n // 4))
    return z, joint_mle(z, init)


class TestJointMle:
    def test_fit_is_the_maximum(self):
        """Every fit is a local maximum of L over c > 0, nu >= 0, in few iterations.

        Interior fits: the Hessian is negative definite and a Newton step gains
        at most 1e-12 |L|.  Boundary fits (nu = 0): the nu-score at
        c0 = mean(z^2) is <= 0 and L reaches L(c0, 0).
        """
        kinds = set()
        seed = 100
        for n in (390, 1560, 4680):
            for nu in (0.0, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2):
                for noisy_start in (False, True):
                    seed += 2
                    z, fit = _desk_fit(n, nu, noisy_start, seed)
                    label = (n, nu, noisy_start)
                    assert fit.converged and fit.sweeps <= 50, label
                    slack = 1e-12 * abs(fit.log_likelihood)
                    if fit.params.nu > 0:
                        grad, hess = _gradient_and_hessian(z, fit.params.c, fit.params.nu)
                        assert np.all(np.linalg.eigvalsh(hess) < 0), label
                        assert 0.5 * grad @ np.linalg.solve(-hess, grad) <= slack, label
                        kinds.add("interior")
                    else:
                        a = a_coefficients(z.n)
                        c0 = float(np.mean(z.z**2))
                        assert np.sum(a * (z.z**2 - c0)) <= 0.0, label
                        at_c0 = log_likelihood(z, LikelihoodParams(c0, 0.0))
                        assert fit.log_likelihood >= at_c0 - slack, label
                        kinds.add("boundary")
        assert kinds == {"interior", "boundary"}

    def test_fit_is_the_global_maximum(self):
        """The fits of test_fit_is_the_maximum and the ten pure-noise draws of
        test_local_maximum_below_zero_signal_edge_is_left beat both ends and a
        400-point profile grid, to 1e-12 |L|."""
        fits = []
        seed = 100
        for n in (390, 1560, 4680):
            for nu in (0.0, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2):
                for noisy_start in (False, True):
                    seed += 2
                    fits.append(((n, nu, noisy_start), *_desk_fit(n, nu, noisy_start, seed)))
        a = a_coefficients(512)
        rng = np.random.default_rng(12)
        for draw in range(10):
            z = SpectralCoefficients(z=np.sqrt(a * 1e-3) * rng.standard_normal(512), n=512)
            fits.append((("pure noise", draw), z, joint_mle(z, LikelihoodParams(0.5, 1e-4))))
        for label, z, fit in fits:
            slack = 1e-12 * abs(fit.log_likelihood)
            assert fit.log_likelihood >= _profile_grid_best(z) - slack, label

    def test_std_errors_match_observed_information(self):
        """At an interior fit, SEs from the Fisher information agree with -H^-1 to 5%."""
        z, fit = _desk_fit(4096, 1e-3, False, 31)
        assert fit.params.nu > 0
        _, hess = _gradient_and_hessian(z, fit.params.c, fit.params.nu)
        observed = np.sqrt(np.diag(np.linalg.inv(-hess)))
        np.testing.assert_allclose(fit.std_errors, observed, rtol=0.05)

    def test_recovers_generating_point(self):
        n, c_true, nu_true = 512, 1.0, 1e-3
        a = a_coefficients(n)
        rng = np.random.default_rng(6)
        cs, nus = [], []
        for _ in range(20):
            z = SpectralCoefficients(z=np.sqrt(c_true + a * nu_true) * rng.standard_normal(n), n=n)
            out = joint_mle(z, LikelihoodParams(0.5, 1e-4))
            assert out.converged
            cs.append(out.params.c)
            nus.append(out.params.nu)
        assert np.mean(cs) == pytest.approx(c_true, rel=0.15)
        assert np.mean(nus) == pytest.approx(nu_true, rel=0.25)

    def test_noise_free_data_hits_boundary(self):
        n = 512
        rng = np.random.default_rng(8)
        z = SpectralCoefficients(z=rng.standard_normal(n), n=n)
        out = joint_mle(z, LikelihoodParams(0.5, 1e-4))
        assert out.params.nu <= 1e-6
        assert out.std_errors[0] > 0 and math.isnan(out.std_errors[1])

    def test_maximizer_at_zero_signal_is_settled_in_closed_form(self):
        """With the maximizer at c = 0 the fit is (0, mean(z^2/a)), converged at once."""
        z = SpectralCoefficients(z=np.array([0.3, -1.0]), n=2)
        out = joint_mle(z, LikelihoodParams(0.7, 0.02))
        assert out.converged and out.sweeps == 0
        assert out.params.c == 0.0
        assert out.params.nu == pytest.approx(np.mean(z.z**2 / a_coefficients(2)), rel=1e-15)
        assert math.isnan(out.std_errors[0]) and out.std_errors[1] > 0
        grid_best = max(
            log_likelihood(z, LikelihoodParams(c, nu))
            for c in np.logspace(-12, 1, 40)
            for nu in np.logspace(-4, 1, 40)
        )
        assert out.log_likelihood >= grid_best

    def test_pure_noise_fits_with_nonpositive_c_score_stop_on_boundary(self):
        """Pure-noise spectra whose c-score at (0, nu0) is <= 0 fit (0, nu0) at once."""
        n, nu = 512, 1e-3
        a = a_coefficients(n)
        rng = np.random.default_rng(12)
        on_boundary = 0
        for _ in range(10):
            z = SpectralCoefficients(z=np.sqrt(a * nu) * rng.standard_normal(n), n=n)
            z2 = z.z**2
            nu0 = float(np.mean(z2 / a))
            if np.sum((z2 - a * nu0) / (a * nu0) ** 2) > 0:
                continue
            out = joint_mle(z, LikelihoodParams(0.5, 1e-4))
            assert out.converged and out.sweeps == 0
            assert (out.params.c, out.params.nu) == (0.0, nu0)
            on_boundary += 1
        assert on_boundary >= 3

    def test_local_maximum_below_zero_signal_edge_is_left(self):
        """Pure noise, 7th draw: from (0.5, 1e-4) the fit climbs past L(0, nu0) to a maximum.

        The c-score at (0, nu0) is positive, so the closed-form shortcut does
        not apply; the profile climb reaches the interior maximum (15
        evaluations, about 0.011 above L(0, nu0)).  The fit must reach
        L(0, nu0), and a fit reported converged must be a maximum (negative
        definite Hessian, Newton gain at most 1e-12 |L|).
        """
        n, nu = 512, 1e-3
        a = a_coefficients(n)
        rng = np.random.default_rng(12)
        for _ in range(7):
            z = SpectralCoefficients(z=np.sqrt(a * nu) * rng.standard_normal(n), n=n)
        z2 = z.z**2
        nu0 = float(np.mean(z2 / a))
        assert np.sum((z2 - a * nu0) / (a * nu0) ** 2) > 0
        edge = log_likelihood(z, LikelihoodParams(0.0, nu0))
        out = joint_mle(z, LikelihoodParams(0.5, 1e-4))
        assert out.log_likelihood >= edge
        assert out.log_likelihood == pytest.approx(log_likelihood(z, out.params), rel=1e-12)
        if out.converged:
            grad, hess = _gradient_and_hessian(z, out.params.c, out.params.nu)
            assert np.all(np.linalg.eigvalsh(hess) < 0)
            assert 0.5 * grad @ np.linalg.solve(-hess, grad) <= 1e-12 * abs(out.log_likelihood)

    def test_local_maximum_below_an_end_is_left_by_a_second_climb(self):
        """Pure noise, n = 16: from (0.5, 1e-4) the profile peaks near rho = 0.04, below
        L(0, nu0), whose c-score is positive; the fit climbs again from that end and
        reaches the global maximum near rho = 20."""
        n = 16
        a = a_coefficients(n)
        noise = np.random.default_rng(790).standard_normal(n)
        z = SpectralCoefficients(z=np.sqrt(a * 1e-3) * noise, n=n)
        z2 = z.z**2
        nu0 = float(np.mean(z2 / a))
        assert np.sum((z2 - a * nu0) / (a * nu0) ** 2) > 0
        edge = log_likelihood(z, LikelihoodParams(0.0, nu0))
        near = _profile(z, np.logspace(math.log10(2e-4), 0.0, 200))
        assert near.max() < edge and near.argmax() < len(near) - 1
        out = joint_mle(z, LikelihoodParams(0.5, 1e-4))
        assert out.converged and out.params.c > 0 and out.params.nu / out.params.c > 1
        assert out.log_likelihood >= _profile_grid_best(z) - 1e-12 * abs(out.log_likelihood)

    def test_restart_at_a_fit_keeps_its_likelihood(self):
        """The profile at a fit's own ratio can round below the fit (n = 64, seed 70):
        started there, joint_mle still returns at least the fit's likelihood."""
        n = 64
        a = a_coefficients(n)
        draws = np.random.default_rng(70).standard_normal(n)
        z = SpectralCoefficients(z=np.sqrt(1 + a * 1e-3) * draws, n=n)
        fit = joint_mle(z, LikelihoodParams(0.5, 1e-4))
        assert fit.params.c > 0 and fit.params.nu > 0
        again = joint_mle(z, fit.params)
        assert again.converged and again.log_likelihood >= fit.log_likelihood

    def test_climb_stops_where_the_ratio_range_ends(self):
        """Coefficients whose score at (c0, 0) is 0 up to rounding, and positive: that end
        is not settled, and the profile still rises toward rho = 0 where the searched
        range ends (a_n rho = 1e-8).  The climb stops there, unconverged, at least at
        L(init) and within 1e-12 |L| of L(c0, 0)."""
        a = a_coefficients(8)
        for seed in range(4):
            z = _zero_score_coefficients(a, seed)
            c0 = float(np.mean(z.z**2))
            init = LikelihoodParams(c0, c0)
            out = joint_mle(z, init)
            assert not out.converged
            assert out.params.nu <= out.params.c * 1e-8 / a[-1] * (1 + 1e-12)
            assert out.log_likelihood >= log_likelihood(z, init)
            end = log_likelihood(z, LikelihoodParams(c0, 0.0))
            assert out.log_likelihood == pytest.approx(end, rel=1e-12)

    def test_an_end_that_still_beats_the_second_climb_is_returned(self):
        """For the coefficients of test_climb_stops_where_the_ratio_range_ends, L(c0, 0) can
        round above every point of both climbs (about one draw in four): the end is then
        the fit, flagged unconverged.  The fit never falls below an end whose score is
        positive."""
        a = a_coefficients(8)
        returned = 0
        for seed in range(32):
            z = _zero_score_coefficients(a, seed)
            c0 = float(np.mean(z.z**2))
            out = joint_mle(z, LikelihoodParams(c0, c0))
            assert out.log_likelihood >= log_likelihood(z, LikelihoodParams(c0, 0.0))
            if (out.params.c, out.params.nu) == (c0, 0.0):
                assert not out.converged
                returned += 1
        assert returned >= 1

    def test_init_that_rounds_above_the_fit_is_returned(self):
        """Noise-free draws fit (c0, 0), whose score is negative.  Started a few ulps from c0
        at nu = 1e-300, below the searched ratios, L(init) can round above L(c0, 0), so no
        end is settled; the climb stops at once at the range end, below L(init), and the
        fit is init itself.  The fit never falls below L(init)."""
        n = 64
        a = a_coefficients(n)
        returned = 0
        for seed in range(8):
            z = SpectralCoefficients(z=np.random.default_rng(seed).standard_normal(n), n=n)
            c0 = float(np.mean(z.z**2))
            if np.sum(a * (z.z**2 - c0)) >= 0:  # an interior fit
                continue
            for ulps in range(-8, 9):
                c = c0 + ulps * np.spacing(c0)
                init = LikelihoodParams(c, 1e-300)
                out = joint_mle(z, init)
                assert out.log_likelihood >= log_likelihood(z, init)
                if out.params == init:
                    assert not out.converged
                    returned += 1
        assert returned >= 1

    def test_higher_of_two_settled_ends_is_returned(self):
        """One coefficient at a mode whose a_k lies between the geometric and the arithmetic
        mean of the a_k: both ends have a non-positive score, and L(0, nu0) is the higher.
        The first end, (c0, 0), was once returned."""
        n = 64
        a = a_coefficients(n)
        k = int(np.flatnonzero((np.exp(np.mean(np.log(a))) < a) & (a < a.mean()))[0])
        z = SpectralCoefficients(z=np.eye(n)[k], n=n)
        c0, nu0 = 1.0 / n, 1.0 / (n * a[k])
        ends = [log_likelihood(z, LikelihoodParams(c0, 0.0)),
                log_likelihood(z, LikelihoodParams(0.0, nu0))]
        assert ends[1] > ends[0]
        out = joint_mle(z, LikelihoodParams(c0, 1e-3 * c0))
        assert out.converged and out.sweeps == 0 and out.params.c == 0.0
        assert out.log_likelihood == pytest.approx(ends[1], rel=1e-15)

    def test_never_below_initial_likelihood(self):
        rng = np.random.default_rng(9)
        z = spectral_transform(rng.normal(size=128))
        init = LikelihoodParams(0.123, 4.5e-3)
        out = joint_mle(z, init)
        assert out.log_likelihood >= log_likelihood(z, init) - 1e-12

    def test_beats_coarse_grid(self):
        n, c_true, nu_true = 512, 1.0, 1e-3
        a = a_coefficients(n)
        rng = np.random.default_rng(10)
        z = SpectralCoefficients(z=np.sqrt(c_true + a * nu_true) * rng.standard_normal(n), n=n)
        out = joint_mle(z, LikelihoodParams(0.5, 1e-4))
        grid_best = max(
            log_likelihood(z, LikelihoodParams(c, nu))
            for c in np.logspace(-2, 1, 20)
            for nu in np.logspace(-6, -1, 20)
        )
        assert out.log_likelihood >= grid_best - 1e-6

    def test_all_zero_coefficients_raise(self):
        """L has no maximum there: it grows without bound as c and nu go to 0."""
        with pytest.raises(DegenerateData):
            joint_mle(SpectralCoefficients(np.zeros(8), 8), LikelihoodParams(0.5, 1e-3))

    def test_bad_init(self):
        z = SpectralCoefficients(z=np.ones(4), n=4)
        with pytest.raises(InvalidParameter):
            joint_mle(z, LikelihoodParams(0.0, 1e-4))

    @pytest.mark.parametrize("c,nu", [(np.nan, 0.1), (1.0, np.inf), (np.inf, 0.1)])
    def test_non_finite_init(self, c, nu):
        """A NaN start once came back as c = nan; nu = inf as a converged boundary fit."""
        z = SpectralCoefficients(z=np.ones(4), n=4)
        with pytest.raises(InvalidParameter):
            joint_mle(z, LikelihoodParams(c, nu))


def _held_arrays(obj) -> list:
    """Every numpy array an object holds, through dataclass attributes, tuples and lists."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if is_dataclass(obj):
        obj = list(vars(obj).values())
    if isinstance(obj, (tuple, list)):
        return [a for item in obj for a in _held_arrays(item)]
    return []


def _buffer_bytes(a: np.ndarray) -> int:
    """Bytes of the buffer an array keeps alive: its own, or those of the array it views."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a.nbytes


class TestDeskBenchmarkCheck:
    def test_seed_11_requests_pass_every_check(self):
        """The benchmark's desk_series op and verifier on all 72 seed-11 requests.

        With perfbench/reference.json loaded, the verifier compares siml, ina and
        fourier to 1e-9, c and nu to 1e-4 and L to 1e-7, and checks mle_at_maximum.
        """
        path = _ROOT / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        desk = workloads.DeskSeries(11, _ROOT)
        desk.reference = workloads.load_reference()
        failed = {}
        for i in range(desk.POOL):
            count, names = desk.verify(desk.op(i))
            if count:
                failed[i] = names
        assert desk.POOL == 72 and not failed, failed

    def test_results_retain_no_series(self):
        """The desk outputs hold only what they must: z its own 8n bytes, the estimates and
        fits no n-sized array.

        The benchmark keeps every desk output until it verifies them, so its
        peak_rss_mib grows with the calls a run makes.  A result object that
        grows, or that views a larger buffer, pushes that figure past its 0.15
        bound the moment the desk path gets faster.
        """
        n = 1560
        scheme = EquidistantScheme(n)
        path = simulate_latent(ConstantVol(1.0), ZeroDrift(), scheme, 1, 5)
        obs = observe(path, NoiseModel(1e-3), scheme, 6)
        dy, m = np.diff(obs.values), int(n**0.4)
        z = spectral_transform(dy)
        assert z.z.base is None and z.z.nbytes == 8 * n
        init = LikelihoodParams(c=maximize_L1(z, m), nu=noise_variance_estimate(z, n // 4))
        results = [siml([dy], m), ina([dy], m), mm_fourier_complex([obs], 0, m), init,
                   joint_mle(z, init)]
        for result in results:
            for a in _held_arrays(result):
                assert _buffer_bytes(a) <= 16, (type(result).__name__, a.shape)  # a 1 x 1 value
