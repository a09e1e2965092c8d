"""Tests for the orthogonal bases, Jacobi-type matrices, and closed-form spectra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectralvol.basis import (
    BasisKind,
    JacobiKind,
    basis_columns,
    build_basis,
    build_jacobi,
    cosine_square_sum,
    eigenvalues_closed_form,
    project,
)
from spectralvol.errors import DimensionMismatch, InvalidDimension

PAIRINGS = [
    (BasisKind.SIML_COSINE, JacobiKind.JN),
    (BasisKind.FOURIER_REAL, JacobiKind.JN_TILDE),
    (BasisKind.DST_SINE, JacobiKind.JN_TILDE_PRIME),
]

SAMPLE_DIMS = [1, 2, 3, 4, 5, 8, 16, 33, 64, 129, 257, 513]


def _valid_dims(kind: BasisKind):
    if kind is BasisKind.FOURIER_REAL:
        return [d for d in SAMPLE_DIMS if d % 2 == 1 and d >= 3]
    return SAMPLE_DIMS


class TestBuildBasis:
    def test_cosine_dim_one_is_exactly_one(self):
        """sqrt(2/1.5) * cos(pi/6) = 1 by direct arithmetic."""
        b = build_basis(BasisKind.SIML_COSINE, 1)
        np.testing.assert_allclose(b.entries, [[1.0]], atol=1e-15)

    def test_sine_dim_one_is_exactly_one(self):
        """sqrt(2/2) * sin(pi/2) = 1."""
        b = build_basis(BasisKind.DST_SINE, 1)
        np.testing.assert_allclose(b.entries, [[1.0]], atol=1e-15)

    def test_fourier_constant_column(self):
        """Column 0 of the odd real Fourier basis is the constant 1/sqrt(N)."""
        b = build_basis(BasisKind.FOURIER_REAL, 3)
        np.testing.assert_allclose(b.entries[:, 0], np.full(3, 1 / np.sqrt(3)), rtol=1e-15)

    def test_cosine_entries_match_direct_formula(self):
        """Spot-check the shifted-cosine entry formula at n = 2."""
        b = build_basis(BasisKind.SIML_COSINE, 2)
        expected = np.sqrt(0.8) * np.cos(
            np.array([[1 * 1, 1 * 3], [3 * 1, 3 * 3]]) * np.pi / 10
        )
        np.testing.assert_allclose(b.entries, expected, atol=1e-15)

    def test_fourier_even_dim_rejected(self):
        with pytest.raises(InvalidDimension):
            build_basis(BasisKind.FOURIER_REAL, 4)

    def test_nonpositive_dim_rejected(self):
        with pytest.raises(InvalidDimension):
            build_basis(BasisKind.SIML_COSINE, 0)

    def test_columns_prefix_of_full_matrix(self):
        full = build_basis(BasisKind.DST_SINE, 17).entries
        np.testing.assert_array_equal(basis_columns(BasisKind.DST_SINE, 17, 5), full[:, :5])


@pytest.mark.parametrize("kind", list(BasisKind))
def test_orthogonality(kind):
    """B^T B = I to 1e-10 across a dimension sweep (full sweep in acceptance)."""
    for dim in _valid_dims(kind):
        b = build_basis(kind, dim).entries
        err = np.max(np.abs(b.T @ b - np.eye(dim)))
        assert err < 1e-10, f"{kind} dim={dim}: {err}"


@pytest.mark.parametrize("kind", list(BasisKind))
def test_columns_unit_norm(kind):
    for dim in [1, 7, 64] if kind is not BasisKind.FOURIER_REAL else [3, 7, 65]:
        b = build_basis(kind, dim).entries
        np.testing.assert_allclose(np.linalg.norm(b, axis=0), 1.0, atol=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 7, 64, 390, 1023, 4680])
def test_cosine_and_sine_columns_keep_their_bits(dim):
    """The one-period table lookup equals scale * f(units * step), the formula written out."""
    for m in sorted({1, min(dim, 27), dim if dim <= 64 else 1}):
        k = np.arange(1, dim + 1, dtype=np.int64)[:, None]
        l = np.arange(1, m + 1, dtype=np.int64)[None, :]
        units = (2 * k - 1) * (2 * l - 1) % (4 * (2 * dim + 1))
        cosine = np.sqrt(2.0 / (dim + 0.5)) * np.cos(units * (np.pi / (2 * (2 * dim + 1))))
        sine = np.sqrt(2.0 / (dim + 1)) * np.sin((k * l) % (2 * (dim + 1)) * (np.pi / (dim + 1)))
        assert basis_columns(BasisKind.SIML_COSINE, dim, m).tobytes() == cosine.tobytes()
        assert basis_columns(BasisKind.DST_SINE, dim, m).tobytes() == sine.tobytes()
        if dim % 2:
            angles = (k - 1) * (l // 2) % dim * (2.0 * np.pi / dim)
            fourier = np.where(l % 2 == 0, np.sin(angles), np.cos(angles)) * np.sqrt(2.0 / dim)
            fourier[:, 0] = 1.0 / np.sqrt(dim)
            assert basis_columns(BasisKind.FOURIER_REAL, dim, m).tobytes() == fourier.tobytes()


class TestJacobi:
    def test_corner_matrix(self):
        np.testing.assert_array_equal(build_jacobi(JacobiKind.JN, 2), [[1, 1], [1, 0]])

    def test_plain_tridiagonal(self):
        np.testing.assert_array_equal(
            build_jacobi(JacobiKind.JN_TILDE_PRIME, 3), [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
        )

    def test_wraparound_matrix(self):
        np.testing.assert_array_equal(
            build_jacobi(JacobiKind.JN_TILDE, 3), [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
        )

    def test_dim_one_corners(self):
        np.testing.assert_array_equal(build_jacobi(JacobiKind.JN, 1), [[1.0]])
        np.testing.assert_array_equal(build_jacobi(JacobiKind.JN_TILDE_PRIME, 1), [[0.0]])

    def test_wraparound_needs_odd_dim_at_least_three(self):
        for dim in (1, 2, 4):
            with pytest.raises(InvalidDimension):
                build_jacobi(JacobiKind.JN_TILDE, dim)


class TestEigenvalues:
    def test_corner_matrix_dim_two_roots(self):
        """Eigenvalues of [[1,1],[1,0]] are the roots of x^2 - x - 1."""
        lam = eigenvalues_closed_form(JacobiKind.JN, 2)
        np.testing.assert_allclose(lam, [(1 + np.sqrt(5)) / 2, (1 - np.sqrt(5)) / 2], rtol=1e-14)

    def test_plain_tridiagonal_dim_one_is_zero(self):
        np.testing.assert_allclose(eigenvalues_closed_form(JacobiKind.JN_TILDE_PRIME, 1), [0.0], atol=1e-15)

    def test_wraparound_dim_three(self):
        np.testing.assert_allclose(
            eigenvalues_closed_form(JacobiKind.JN_TILDE, 3), [2.0, -1.0, -1.0], rtol=1e-14
        )

    def test_corner_matrix_spectrum_is_decreasing(self):
        for dim in (2, 17, 128):
            lam = eigenvalues_closed_form(JacobiKind.JN, dim)
            assert np.all(np.diff(lam) < 0)

    @pytest.mark.parametrize("kind,dim", [(JacobiKind.JN, 31), (JacobiKind.JN_TILDE, 31), (JacobiKind.JN_TILDE_PRIME, 31)])
    def test_matches_numerical_eigensolver(self, kind, dim):
        """Independent oracle: closed form equals numpy.linalg.eigvalsh up to ordering."""
        lam = np.sort(eigenvalues_closed_form(kind, dim))
        num = np.sort(np.linalg.eigvalsh(build_jacobi(kind, dim)))
        np.testing.assert_allclose(lam, num, atol=1e-12)


@pytest.mark.parametrize("basis_kind,jacobi_kind", PAIRINGS)
def test_diagonalization(basis_kind, jacobi_kind):
    """B^T J B = diag(closed-form eigenvalues), column by column, to 1e-10."""
    for dim in _valid_dims(basis_kind):
        if basis_kind is BasisKind.FOURIER_REAL and dim < 3:
            continue
        b = build_basis(basis_kind, dim).entries
        jac = build_jacobi(jacobi_kind, dim)
        lam = eigenvalues_closed_form(jacobi_kind, dim)
        err = np.max(np.abs(b.T @ jac @ b - np.diag(lam)))
        assert err < 1e-10, f"{basis_kind} dim={dim}: {err}"


class TestProject:
    def test_identity_like_case(self):
        b = build_basis(BasisKind.DST_SINE, 1)
        np.testing.assert_allclose(project(b, np.array([3.0]), 1), [3.0], rtol=1e-15)

    def test_first_cosine_coefficient(self):
        """project(B, e_1, 1) picks the (1,1) entry sqrt(0.8) cos(pi/10)."""
        b = build_basis(BasisKind.SIML_COSINE, 2)
        out = project(b, np.array([1.0, 0.0]), 1)
        np.testing.assert_allclose(out, [np.sqrt(0.8) * np.cos(0.1 * np.pi)], rtol=1e-14)

    def test_zero_vector(self):
        b = build_basis(BasisKind.SIML_COSINE, 8)
        np.testing.assert_array_equal(project(b, np.zeros(8), 5), np.zeros(5))

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-1e3, 1e3), min_size=6, max_size=6), st.floats(-5, 5))
    def test_linearity(self, values, scale):
        b = build_basis(BasisKind.DST_SINE, 6)
        x = np.array(values)
        np.testing.assert_allclose(
            project(b, scale * x, 4), scale * project(b, x, 4), atol=1e-9
        )

    def test_dimension_mismatch(self):
        b = build_basis(BasisKind.SIML_COSINE, 4)
        with pytest.raises(DimensionMismatch):
            project(b, np.zeros(5), 2)
        with pytest.raises(DimensionMismatch):
            project(b, np.zeros(4), 5)


class TestCosineSquareSum:
    def test_single_term(self):
        """cos^2(pi/6) = 3/4 at (m, n) = (1, 1)."""
        assert cosine_square_sum(1, 1) == pytest.approx(0.75, abs=1e-15)

    def test_matches_brute_force(self):
        """Closed form equals the direct sum for a grid of (m, n) pairs."""
        for n in (2, 3, 5, 17, 64):
            angles = (2 * np.arange(1, n + 1) - 1) * np.pi / (2 * (2 * n + 1))
            partial = np.cumsum(np.cos(angles) ** 2)
            for m in range(1, n + 1):
                assert cosine_square_sum(m, n) == pytest.approx(partial[m - 1], abs=1e-12)

    def test_large_n_first_term(self):
        """At (1, 1000) the sum is the single term cos^2(pi/4002)."""
        assert cosine_square_sum(1, 1000) == pytest.approx(
            np.cos(np.pi / 4002) ** 2, abs=1e-14
        )

    def test_bad_arguments(self):
        with pytest.raises(InvalidDimension):
            cosine_square_sum(0, 4)
        with pytest.raises(InvalidDimension):
            cosine_square_sum(5, 4)
