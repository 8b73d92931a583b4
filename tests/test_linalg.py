import numpy as np
import pytest

from modemix import (
    DimensionError,
    MatrixFormatError,
    format_matrix,
    haar_random_unitary,
    is_unitary,
    parse_matrix,
    svd,
    unitarity_defect,
)

from conftest import max_abs


def random_complex(rows, cols, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


class TestIsUnitary:
    def test_identity(self):
        assert is_unitary(np.eye(5), 1e-12)

    def test_rejects_scaled_diagonal(self):
        assert not is_unitary(np.diag([1.0, 2.0]), 1e-12)

    def test_haar_sample_from_qr(self):
        # independent construction: QR of a complex Gaussian matrix
        rng = np.random.default_rng(6)
        z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        q, _ = np.linalg.qr(z)
        assert is_unitary(q, 1e-10)

    def test_non_square_raises(self):
        with pytest.raises(DimensionError):
            is_unitary(np.zeros((2, 3)))

    def test_defect_measures_deviation(self):
        m = np.eye(3)
        m[0, 0] = 1.0 + 1e-6
        assert unitarity_defect(m) == pytest.approx(2e-6, rel=1e-3)


def svd_reconstruct(result, rows, cols):
    diag = np.zeros((rows, cols))
    k = min(rows, cols)
    diag[:k, :k] = np.diag(result.singulars)
    return result.left @ diag @ result.right.conj().T


class TestSvd:
    def test_diagonal_matrix(self):
        result = svd(np.diag([3.0, 1.0]))
        assert np.allclose(result.singulars, [3.0, 1.0])
        # factors are diagonal phase matrices for diagonal input
        assert np.allclose(np.abs(result.left), np.eye(2), atol=1e-14)
        assert np.allclose(np.abs(result.right), np.eye(2), atol=1e-14)

    def test_zero_rectangular(self):
        result = svd(np.zeros((2, 3)))
        assert np.allclose(result.singulars, 0.0)
        assert is_unitary(result.left, 1e-12)
        assert is_unitary(result.right, 1e-12)
        assert max_abs(svd_reconstruct(result, 2, 3), np.zeros((2, 3))) < 1e-15

    def test_random_against_eigen_oracle(self):
        m = random_complex(3, 3, 7)
        result = svd(m)
        assert max_abs(svd_reconstruct(result, 3, 3), m) < 1e-12
        # independent oracle: singular values are the square roots of the
        # eigenvalues of M†M
        eigvals = np.linalg.eigvalsh(m.conj().T @ m)[::-1]
        assert np.allclose(result.singulars**2, eigvals, atol=1e-12)

    def test_singulars_non_increasing_and_nonnegative(self):
        result = svd(random_complex(5, 4, 8))
        assert np.all(result.singulars >= 0)
        assert np.all(np.diff(result.singulars) <= 0)

    @pytest.mark.parametrize("dim", [1, 2, 3, 7, 16, 33, 64])
    def test_reconstruction_up_to_dim_64(self, dim):
        m = random_complex(dim, dim, dim) * 3.0
        result = svd(m)
        bound = 1e-11 * max(1.0, float(np.max(np.abs(m))))
        assert max_abs(svd_reconstruct(result, dim, dim), m) <= bound

    def test_rejects_nonfinite(self):
        bad = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(ValueError):
            svd(bad)


class TestHaarRandomUnitary:
    def test_dim1_unit_modulus(self):
        u = haar_random_unitary(1, 0)
        assert u.shape == (1, 1)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-14

    def test_deterministic_per_seed(self):
        a = haar_random_unitary(4, 7)
        b = haar_random_unitary(4, 7)
        assert np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        assert max_abs(haar_random_unitary(4, 0), haar_random_unitary(4, 1)) > 1e-3

    def test_unitary_dim6(self):
        assert is_unitary(haar_random_unitary(6, 1), 1e-10)

    def test_unitary_all_dims_and_seeds(self):
        for dim in range(1, 65):
            for seed in range(100):
                assert is_unitary(haar_random_unitary(dim, seed), 1e-10)

    def test_rejects_dim_zero(self):
        with pytest.raises(DimensionError):
            haar_random_unitary(0, 0)


class TestMatrixTextFormat:
    def test_round_trip_is_exact(self):
        m = random_complex(3, 4, 9) * 1e-7
        m[0, 0] = 0.5 - 0.25j
        m[1, 2] = 1e300 + 1e-300j
        assert np.array_equal(parse_matrix(format_matrix(m)), m)

    def test_header_form(self):
        text = format_matrix(np.eye(2))
        assert text.splitlines()[0] == "2 2"
        assert "1+0j" in text.splitlines()[1]

    def test_parses_documented_example_entry(self):
        m = parse_matrix("1 1\n0.5-0.25j\n")
        assert m[0, 0] == 0.5 - 0.25j

    def test_rejects_empty(self):
        with pytest.raises(MatrixFormatError):
            parse_matrix("")

    def test_rejects_bad_header(self):
        with pytest.raises(MatrixFormatError):
            parse_matrix("2\n1+0j 0+0j\n")

    def test_rejects_wrong_entry_count(self):
        with pytest.raises(MatrixFormatError):
            parse_matrix("2 2\n1+0j 0+0j 0+0j\n")

    def test_rejects_garbage_entries(self):
        with pytest.raises(MatrixFormatError):
            parse_matrix("1 2\n1+0j spam\n")

    def test_rejects_nonfinite_entries(self):
        with pytest.raises(MatrixFormatError):
            parse_matrix("1 1\ninf+0j\n")
