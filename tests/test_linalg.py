import re

import numpy as np
import pytest

from modemix import (
    DimensionError,
    MatrixFormatError,
    format_matrix,
    haar_random_unitary,
    parse_matrix,
    save_matrix,
    unitarity_defect,
)
from modemix.linalg import _require_fits, svd

from conftest import max_abs


def random_complex(rows, cols, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


class TestIsUnitary:
    def test_identity(self):
        assert unitarity_defect(np.eye(5)) <= 1e-12

    def test_rejects_scaled_diagonal(self):
        assert unitarity_defect(np.diag([1.0, 2.0])) > 1e-12

    def test_haar_sample_from_qr(self):
        # independent construction: QR of a complex Gaussian matrix
        rng = np.random.default_rng(6)
        z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        q, _ = np.linalg.qr(z)
        assert unitarity_defect(q) <= 1e-10

    def test_non_square_raises(self):
        with pytest.raises(DimensionError):
            unitarity_defect(np.zeros((2, 3)))

    def test_defect_measures_deviation(self):
        m = np.eye(3)
        m[0, 0] = 1.0 + 1e-6
        assert unitarity_defect(m) == pytest.approx(2e-6, rel=1e-3)

    def test_stack_is_max_over_slices(self):
        stack = np.array([haar_random_unitary(4, seed) for seed in range(5)])
        stack[3] *= 1.0 + 1e-7
        stack[1, 0, 2] += 1e-5
        slices = [unitarity_defect(m) for m in stack]
        assert unitarity_defect(stack) == pytest.approx(max(slices), rel=1e-12)
        assert unitarity_defect(stack) > 1e-6

    def test_empty_stack_has_no_defect(self):
        assert unitarity_defect(np.zeros((0, 3, 3))) == 0.0

    def test_vector_raises(self):
        with pytest.raises(DimensionError):
            unitarity_defect(np.ones(3))


def svd_reconstruct(left, singulars, right):
    diag = np.zeros((left.shape[0], right.shape[0]))
    k = singulars.size
    diag[:k, :k] = np.diag(singulars)
    return left @ diag @ right.conj().T


class TestSvd:
    def test_diagonal_matrix(self):
        left, singulars, right = svd(np.diag([3.0, 1.0]))
        assert np.allclose(singulars, [3.0, 1.0])
        # factors are diagonal phase matrices for diagonal input
        assert np.allclose(np.abs(left), np.eye(2), atol=1e-14)
        assert np.allclose(np.abs(right), np.eye(2), atol=1e-14)

    def test_zero_rectangular(self):
        left, singulars, right = svd(np.zeros((2, 3)))
        assert np.allclose(singulars, 0.0)
        assert unitarity_defect(left) <= 1e-12
        assert unitarity_defect(right) <= 1e-12
        assert max_abs(svd_reconstruct(left, singulars, right), np.zeros((2, 3))) < 1e-15

    def test_random_against_eigen_oracle(self):
        m = random_complex(3, 3, 7)
        left, singulars, right = svd(m)
        assert max_abs(svd_reconstruct(left, singulars, right), m) < 1e-12
        # independent oracle: singular values are the square roots of the
        # eigenvalues of M†M
        eigvals = np.linalg.eigvalsh(m.conj().T @ m)[::-1]
        assert np.allclose(singulars**2, eigvals, atol=1e-12)

    def test_singulars_non_increasing_and_nonnegative(self):
        _, singulars, _ = svd(random_complex(5, 4, 8))
        assert np.all(singulars >= 0)
        assert np.all(np.diff(singulars) <= 0)

    @pytest.mark.parametrize("dim", [1, 2, 3, 7, 16, 33, 64])
    def test_reconstruction_up_to_dim_64(self, dim):
        m = random_complex(dim, dim, dim) * 3.0
        left, singulars, right = svd(m)
        bound = 1e-11 * max(1.0, float(np.max(np.abs(m))))
        assert max_abs(svd_reconstruct(left, singulars, right), m) <= bound

    def test_stack_matches_each_matrix(self):
        stack = np.array([random_complex(3, 2, seed) for seed in range(4)])
        lefts, singulars, rights = svd(stack)
        assert lefts.shape == (4, 3, 3) and singulars.shape == (4, 2) and rights.shape == (4, 2, 2)
        for i, m in enumerate(stack):
            left, s, right = svd(m)
            assert max_abs(lefts[i], left) == 0.0
            assert max_abs(singulars[i], s) == 0.0
            assert max_abs(rights[i], right) == 0.0

    def test_rejects_nonfinite(self):
        bad = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(ValueError):
            svd(bad)

    def test_rejects_vector(self):
        with pytest.raises(DimensionError):
            svd(np.ones(3))


class TestValueRule:
    """The matrix functions hold their input to the value rule of the compilers and the circuit walk."""

    REFUSED = [([["1", "0"], ["0", "1"]], "<U1"), (np.eye(2, dtype=bool), "bool"), (np.eye(2).astype(object), "object")]

    @pytest.mark.parametrize("m,dtype", REFUSED)
    @pytest.mark.parametrize("function", [unitarity_defect, svd, format_matrix])
    def test_refuses_what_a_circuit_refuses(self, function, m, dtype):
        message = f"{function.__name__} input must be numbers, got dtype {dtype}"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            function(m)

    @pytest.mark.parametrize("m,dtype", REFUSED)
    def test_save_matrix_refuses_and_writes_nothing(self, tmp_path, m, dtype):
        path = tmp_path / "m.mat"
        with pytest.raises(TypeError, match=f"got dtype {re.escape(dtype)}$"):
            save_matrix(path, m)
        assert not path.exists()

    @pytest.mark.parametrize("dtype", [np.int8, int, np.float32, float, np.complex64])
    def test_takes_integers_floats_and_complex(self, dtype):
        m = np.array([[1, -2, 0], [3, 0, 5], [0, 7, -1]])
        got, expected = m.astype(dtype), m.astype(complex)
        assert unitarity_defect(got) == unitarity_defect(expected)
        assert format_matrix(got) == format_matrix(expected)
        for a, b in zip(svd(got), svd(expected)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


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
        assert unitarity_defect(haar_random_unitary(6, 1)) <= 1e-10

    def test_unitary_all_dims_and_seeds(self):
        for dim in range(1, 65):
            for seed in range(100):
                assert unitarity_defect(haar_random_unitary(dim, seed)) <= 1e-10

    def test_rejects_dim_zero(self):
        with pytest.raises(DimensionError):
            haar_random_unitary(0, 0)

    @pytest.mark.parametrize("dim", [10**400, 759250125], ids=["10**400", "759250125"])
    def test_rejects_dim_too_large_for_any_array(self, dim):
        with pytest.raises(DimensionError, match=f"^dimension {dim} is too large for a {dim}x{dim} complex array$"):
            haar_random_unitary(dim, 0)

    def test_array_limit_boundary(self):
        # 759250124^2 complex128 entries are the most whose bytes an int64 can count.
        _require_fits(759_250_124)
        with pytest.raises(DimensionError, match="^dimension 759250125 is too large"):
            _require_fits(759_250_125)


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

    def test_format_rejects_stack(self, tmp_path):
        # An empty matrix is refused too: "0 3" is a header parse_matrix
        # refuses. save_matrix then leaves no file, not even an empty one.
        path = tmp_path / "m.mat"
        for m in (np.zeros((2, 2, 2)), np.zeros((0, 3)), np.zeros((3, 0))):
            with pytest.raises(DimensionError):
                format_matrix(m)
            with pytest.raises(DimensionError):
                save_matrix(path, m)
            assert not path.exists()

    def test_parses_documented_example_entry(self):
        m = parse_matrix("1 1\n0.5-0.25j\n")
        assert m[0, 0] == 0.5 - 0.25j

    def test_rejects_empty(self):
        with pytest.raises(MatrixFormatError):
            parse_matrix("")

    def test_rejects_bad_header(self):
        for text in ("2\n1+0j 0+0j\n", "2 x\n1+0j 0+0j\n", "0 3\n"):
            with pytest.raises(MatrixFormatError):
                parse_matrix(text)

    def test_rejects_wrong_entry_count(self):
        with pytest.raises(MatrixFormatError):
            parse_matrix("2 2\n1+0j 0+0j 0+0j\n")

    def test_rejects_garbage_entries(self):
        with pytest.raises(MatrixFormatError):
            parse_matrix("1 2\n1+0j spam\n")

    def test_rejects_nonfinite_entries(self):
        with pytest.raises(MatrixFormatError):
            parse_matrix("1 1\ninf+0j\n")

    def test_edge_float_bytes_are_pinned(self):
        m = np.array(
            [
                [complex(-0.0, -0.0), complex(5e-324, -5e-324)],
                [complex(2.2e-308, 1e308), complex(-1e308, -0.0)],
            ]
        )
        text = format_matrix(m)
        assert text == (
            "2 2\n-0-0j 4.9406564584124654e-324-4.9406564584124654e-324j\n"
            "2.2000000000000002e-308+1e+308j -1e+308-0j\n"
        )
        assert np.array_equal(parse_matrix(text).view(np.uint64), m.view(np.uint64))

    def test_haar_bytes_match_per_entry_format(self):
        u = haar_random_unitary(64, 3)
        rows = (" ".join(f"{z.real:.17g}{z.imag:+.17g}j" for z in row) for row in u)
        assert format_matrix(u) == "64 64\n" + "\n".join(rows) + "\n"
