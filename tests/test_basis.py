"""Tests for the orthogonal bases, Jacobi-type matrices, and closed-form spectra."""

import numpy as np
import pytest

from spectralvol.basis import (
    BasisKind,
    JacobiKind,
    basis_coefficients,
    basis_columns,
    build_basis,
    build_jacobi,
    cosine_square_sum,
    eigen_gaps,
    eigenvalues_closed_form,
    noise_law,
)
from spectralvol.errors import DimensionMismatch, InvalidDimension, InvalidParameter

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
        np.testing.assert_allclose(b, [[1.0]], atol=1e-15)

    def test_sine_dim_one_is_exactly_one(self):
        """sqrt(2/2) * sin(pi/2) = 1."""
        b = build_basis(BasisKind.DST_SINE, 1)
        np.testing.assert_allclose(b, [[1.0]], atol=1e-15)

    def test_fourier_constant_column(self):
        """Column 0 of the odd real Fourier basis is the constant 1/sqrt(N)."""
        b = build_basis(BasisKind.FOURIER_REAL, 3)
        np.testing.assert_allclose(b[:, 0], np.full(3, 1 / np.sqrt(3)), rtol=1e-15)

    def test_cosine_entries_match_direct_formula(self):
        """Spot-check the shifted-cosine entry formula at n = 2."""
        b = build_basis(BasisKind.SIML_COSINE, 2)
        expected = np.sqrt(0.8) * np.cos(
            np.array([[1 * 1, 1 * 3], [3 * 1, 3 * 3]]) * np.pi / 10
        )
        np.testing.assert_allclose(b, expected, atol=1e-15)

    def test_fourier_even_dim_rejected(self):
        with pytest.raises(InvalidDimension):
            build_basis(BasisKind.FOURIER_REAL, 4)

    def test_nonpositive_dim_rejected(self):
        with pytest.raises(InvalidDimension):
            build_basis(BasisKind.SIML_COSINE, 0)

    def test_columns_prefix_of_full_matrix(self):
        full = build_basis(BasisKind.DST_SINE, 17)
        np.testing.assert_array_equal(basis_columns(BasisKind.DST_SINE, 17, 5), full[:, :5])

    @pytest.mark.parametrize("kind", list(BasisKind))
    def test_row_ranges_keep_the_bits_of_the_full_columns(self, kind):
        """Rows lo..hi-1, built alone into a strided ``out``, are those rows of the full columns."""
        for dim in (1, 9, 4681):
            if kind is BasisKind.FOURIER_REAL and dim == 1:
                continue
            m = min(dim, 11)
            full = basis_columns(kind, dim, m)
            for lo, hi in ((0, dim), (0, 1), (dim // 3, dim // 3 + 5), (dim - 1, dim), (2, 2)):
                lo, hi = min(lo, dim), min(hi, dim)
                out = np.full((hi - lo, 2 * m), np.nan)[:, ::2]
                got = basis_columns(kind, dim, m, out, rows=(lo, hi))
                assert got is out and got.tobytes() == full[lo:hi].tobytes()
        for rows in ((-1, 2), (2, 1), (0, 10)):
            with pytest.raises(InvalidDimension):
                basis_columns(kind, 9, 3, rows=rows)


@pytest.mark.parametrize("kind", list(BasisKind))
def test_orthogonality(kind):
    """B^T B = I to 1e-10 across a dimension sweep (full sweep in acceptance)."""
    for dim in _valid_dims(kind):
        b = build_basis(kind, dim)
        err = np.max(np.abs(b.T @ b - np.eye(dim)))
        assert err < 1e-10, f"{kind} dim={dim}: {err}"


@pytest.mark.parametrize("kind", list(BasisKind))
def test_columns_unit_norm(kind):
    for dim in [1, 7, 64] if kind is not BasisKind.FOURIER_REAL else [3, 7, 65]:
        b = build_basis(kind, dim)
        np.testing.assert_allclose(np.linalg.norm(b, axis=0), 1.0, atol=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 7, 64, 390, 1023, 4680, 16384])
def test_cosine_and_sine_columns_keep_their_bits(dim):
    """The one-period table lookup equals scale * f(units * step), the formula written out."""
    for m in sorted({1, min(dim, 27), min(dim, 48), dim if dim <= 64 else 1}):
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

    @pytest.mark.parametrize("dim", [2.5, np.nan, np.inf])
    def test_non_integer_dim_rejected(self, dim):
        for kind in JacobiKind:
            with pytest.raises(InvalidParameter):
                build_jacobi(kind, dim)
            with pytest.raises(InvalidParameter):
                eigenvalues_closed_form(kind, dim)


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


def _spectrum_dims(kind: BasisKind):
    """Every dim to 65 and a few to 513; odd dims >= 3 for the Fourier family."""
    dims = list(range(1, 66)) + [127, 128, 255, 256, 257, 511, 512, 513]
    if kind is BasisKind.FOURIER_REAL:
        return [d for d in dims if d % 2 == 1 and d >= 3]
    return dims


_ENDS = [(True, True), (True, False), (False, True), (False, False)]


def _noise_difference_covariance(dim: int, include_initial: bool, include_terminal: bool):
    """C = 2I - T, less e_1 e_1^T or e_dim e_dim^T for an excluded end, built densely."""
    cov = 2.0 * np.eye(dim) - build_jacobi(JacobiKind.JN_TILDE_PRIME, dim)
    cov[0, 0] -= not include_initial
    cov[-1, -1] -= not include_terminal
    return cov


class TestNoiseLaw:
    """basis.noise_law against the dense B^T C B, the eigensolver and its own prefixes."""

    @pytest.mark.parametrize("include_initial,include_terminal", _ENDS)
    @pytest.mark.parametrize("kind", list(BasisKind))
    def test_matches_dense_covariance(self, kind, include_initial, include_terminal):
        """diag(gaps) + sum w r r^T is B^T C B to 1e-12; it is diagonal at exactly two settings."""
        diagonal = {(BasisKind.SIML_COSINE, False, True), (BasisKind.DST_SINE, True, True)}
        for dim in (1, 2, 3, 5, 8, 64, 257):
            if kind is BasisKind.FOURIER_REAL and dim % 2 == 0:
                continue
            cov = _noise_difference_covariance(dim, include_initial, include_terminal)
            for columns in sorted({1, -(-dim // 2), dim}):
                b = basis_columns(kind, dim, columns)
                gaps, terms = noise_law(kind, dim, columns, include_initial, include_terminal)
                law = np.diag(gaps) + sum(w * np.outer(r, r) for w, r in terms)
                np.testing.assert_allclose(law, b.T @ cov @ b, rtol=0, atol=1e-12,
                                           err_msg=f"dim={dim} columns={columns}")
                assert all(w != 0 for w, _ in terms)
                assert (not terms) == ((kind, include_initial, include_terminal) in diagonal)

    @pytest.mark.parametrize("basis_kind,jacobi_kind", PAIRINGS)
    def test_gaps_match_numerical_eigensolver(self, basis_kind, jacobi_kind):
        for dim in _spectrum_dims(basis_kind):
            gaps = noise_law(basis_kind, dim, dim)[0]
            num = np.linalg.eigvalsh(build_jacobi(jacobi_kind, dim))
            np.testing.assert_allclose(np.sort(2.0 - gaps), num, rtol=0, atol=1e-13,
                                       err_msg=f"dim={dim}")

    @pytest.mark.parametrize("kind", list(BasisKind))
    def test_leading_columns_are_a_prefix(self, kind):
        """Fewer columns give the same values; the gaps are :func:`eigen_gaps` bit for bit."""
        dim = 65
        for ends in _ENDS:
            full = noise_law(kind, dim, dim, *ends)
            for columns in (1, 2, 7, 64):
                gaps, terms = noise_law(kind, dim, columns, *ends)
                assert gaps.tobytes() == full[0][:columns].tobytes()
                assert eigen_gaps(kind, dim, columns).tobytes() == gaps.tobytes()
                assert [w for w, _ in terms] == [w for w, _ in full[1]]
                for (_, piece), (_, whole) in zip(terms, full[1]):
                    assert piece.tobytes() == whole[:columns].tobytes()

    @pytest.mark.parametrize("kind,dim,columns", [
        (BasisKind.FOURIER_REAL, 4, 1), (BasisKind.SIML_COSINE, 0, 1),
        (BasisKind.DST_SINE, 5, 6), (BasisKind.SIML_COSINE, 5, 0)])
    def test_invalid_shapes_rejected(self, kind, dim, columns):
        with pytest.raises(InvalidDimension):
            noise_law(kind, dim, columns)


@pytest.mark.parametrize("basis_kind,jacobi_kind", PAIRINGS)
def test_diagonalization(basis_kind, jacobi_kind):
    """B^T J B = diag(closed-form eigenvalues), column by column, to 1e-10."""
    for dim in _valid_dims(basis_kind):
        if basis_kind is BasisKind.FOURIER_REAL and dim < 3:
            continue
        b = build_basis(basis_kind, dim)
        jac = build_jacobi(jacobi_kind, dim)
        lam = eigenvalues_closed_form(jacobi_kind, dim)
        err = np.max(np.abs(b.T @ jac @ b - np.diag(lam)))
        assert err < 1e-10, f"{basis_kind} dim={dim}: {err}"


class TestBasisCoefficients:
    """The one-FFT projection against the dense product with the basis columns."""

    @staticmethod
    def _error(kind, x, num_modes):
        dense = basis_columns(kind, len(x), num_modes).T @ x
        return np.max(np.abs(basis_coefficients(kind, x, num_modes) - dense)) / np.linalg.norm(x)

    @pytest.mark.parametrize("kind", list(BasisKind))
    def test_every_cutoff_up_to_64(self, kind):
        rng = np.random.default_rng(70)
        for n in range(1, 65):
            if kind is BasisKind.FOURIER_REAL and n % 2 == 0:
                continue
            x = rng.normal(size=n)
            for num_modes in range(1, n + 1):
                assert self._error(kind, x, num_modes) <= 1e-13, (n, num_modes)

    @pytest.mark.parametrize(
        "kind, n",
        [(kind, n) for kind in BasisKind for n in (1560, 4680, 4681)
         if kind is not BasisKind.FOURIER_REAL or n % 2 == 1],
    )
    def test_desk_sizes(self, kind, n):
        x = np.random.default_rng(n).normal(size=n)
        assert self._error(kind, x, int(n**0.4)) <= 1e-13

    def test_rejects_what_basis_columns_rejects(self):
        with pytest.raises(InvalidDimension):
            basis_coefficients(BasisKind.FOURIER_REAL, np.ones(4), 1)
        with pytest.raises(InvalidDimension):
            basis_coefficients(BasisKind.SIML_COSINE, np.ones(4), 5)
        with pytest.raises(InvalidDimension):
            basis_coefficients(BasisKind.DST_SINE, np.ones(4), 0)
        with pytest.raises(DimensionMismatch):
            basis_coefficients(BasisKind.DST_SINE, np.ones((2, 2)), 1)

    @pytest.mark.parametrize("kind", list(BasisKind))
    def test_complex_input_rejected(self, kind):
        """A cast to float would drop the imaginary part with only a warning."""
        with pytest.raises(InvalidParameter, match="real"):
            basis_coefficients(kind, np.array([1 + 5j, 2.0, 0.5]), 1)


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

    @pytest.mark.parametrize("m,n", [(2.5, 10), (1, np.inf), (1, np.nan), (1.0, 4)])
    def test_non_integer_arguments_rejected(self, m, n):
        """(2.5, 10) returned 2.3909 and (1, inf) raised ZeroDivisionError."""
        with pytest.raises(InvalidParameter):
            cosine_square_sum(m, n)
