import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modemix import (
    CSDResult,
    DimensionError,
    UnitarityError,
    block_partition,
    cs_matrix,
    csd,
    haar_random_unitary,
    unitarity_defect,
)
from modemix.csd import csd_stack

from conftest import block_diag_unitary, cs_conjugated, max_abs


class TestCsMatrix:
    def test_zero_angle_is_identity(self):
        assert max_abs(cs_matrix([0.0], 2), np.eye(2)) == 0.0

    def test_right_angle_is_signed_swap(self):
        assert max_abs(cs_matrix([np.pi / 2], 2), [[0.0, 1.0], [-1.0, 0.0]]) < 1e-16

    def test_two_angle_layout(self):
        t1, t2 = 0.3, 0.7
        expected = np.array(
            [
                [np.cos(t1), 0, np.sin(t1), 0],
                [0, np.cos(t2), 0, np.sin(t2)],
                [-np.sin(t1), 0, np.cos(t1), 0],
                [0, -np.sin(t2), 0, np.cos(t2)],
            ]
        )
        assert max_abs(cs_matrix([t1, t2], 4), expected) == 0.0

    def test_identity_padding(self):
        s = cs_matrix([0.5], 4)
        assert max_abs(s[2:, 2:], np.eye(2)) == 0.0
        assert np.all(s[2:, :2] == 0.0) and np.all(s[:2, 2:][:, 1:] == 0.0)

    @pytest.mark.parametrize("m,total", [(1, 2), (2, 5), (3, 6), (4, 11)])
    def test_orthogonal(self, m, total):
        rng = np.random.default_rng(m + total)
        s = cs_matrix(rng.uniform(0, np.pi / 2, m), total)
        assert max_abs(s.T @ s, np.eye(total)) <= 1e-14

    def test_rejects_too_small_dimension(self):
        with pytest.raises(DimensionError):
            cs_matrix([0.1, 0.2], 3)


class TestBlockPartition:
    def test_identity(self):
        a, b, c, d = block_partition(np.eye(4), 2)
        assert max_abs(a, np.eye(2)) == 0.0
        assert np.all(b == 0) and np.all(c == 0)
        assert max_abs(d, np.eye(2)) == 0.0

    def test_cs_matrix_block_structure(self):
        t1, t2 = 0.3, 0.7
        a, b, c, d = block_partition(cs_matrix([t1, t2], 4), 2)
        assert max_abs(a, np.diag([np.cos(t1), np.cos(t2)])) < 1e-16
        assert max_abs(b, np.diag([np.sin(t1), np.sin(t2)])) < 1e-16
        assert max_abs(c, -b) < 1e-16
        assert max_abs(d, a) < 1e-16

    def test_concatenation_reproduces_input(self):
        u = haar_random_unitary(5, 0)
        a, b, c, d = block_partition(u, 2)
        rebuilt = np.block([[a, b], [c, d]])
        assert np.array_equal(rebuilt, u)

    def test_unitarity_relation_on_blocks(self):
        a, b, _, _ = block_partition(haar_random_unitary(5, 1), 2)
        assert max_abs(a @ a.conj().T + b @ b.conj().T, np.eye(2)) <= 1e-12

    @pytest.mark.parametrize("m", [0, 4, 5])
    def test_rejects_out_of_range_m(self, m):
        with pytest.raises(DimensionError):
            block_partition(np.eye(4), m)


def all_block_relations_hold(u, m, tol=1e-12):
    n = u.shape[0] - m
    a, b, c, d = block_partition(u, m)
    return (
        max_abs(a @ a.conj().T + b @ b.conj().T, np.eye(m)) <= tol
        and max_abs(c @ c.conj().T + d @ d.conj().T, np.eye(n)) <= tol
        and max_abs(a.conj().T @ a + c.conj().T @ c, np.eye(m)) <= tol
        and max_abs(b.conj().T @ b + d.conj().T @ d, np.eye(n)) <= tol
    )


def assert_canonical(result, u, tol=1e-10):
    """Check every CSDResult invariant, not just reassembly."""
    m, n = result.m, result.n
    assert unitarity_defect(result.left_top) <= 1e-10
    assert unitarity_defect(result.left_bottom) <= 1e-10
    assert unitarity_defect(result.right_top) <= 1e-10
    assert unitarity_defect(result.right_bottom) <= 1e-10
    assert np.all(result.thetas >= 0.0) and np.all(result.thetas <= np.pi / 2)
    assert np.all(np.diff(np.cos(result.thetas)) <= 1e-8)
    assert max_abs(result.assemble(), u) <= tol
    # the middle factor is real with a non-negative upper sine diagonal and
    # a non-positive lower one
    _, b, c, _ = block_partition(u, m)
    lam_b = result.left_top.conj().T @ b @ result.right_bottom
    lam_c = result.left_bottom.conj().T @ c @ result.right_top
    sines = np.diagonal(lam_b)
    assert np.all(np.abs(sines.imag) <= 1e-10)
    assert np.all(sines.real >= -1e-10)
    minus_sines = np.diagonal(lam_c)
    assert np.all(np.abs(minus_sines.imag) <= 1e-10)
    assert np.all(minus_sines.real <= 1e-10)
    # off-diagonal residue of both middle blocks is noise
    assert max_abs(lam_b, _rect_diag(sines, m, n)) <= tol
    assert max_abs(lam_c, _rect_diag(minus_sines, n, m)) <= tol


def _rect_diag(values, rows, cols):
    out = np.zeros((rows, cols), dtype=complex)
    k = min(rows, cols)
    out[:k, :k] = np.diag(values[:k])
    return out


class TestCsd:
    def test_identity(self):
        result = csd(np.eye(4), 2)
        assert np.allclose(result.thetas, 0.0)
        assert max_abs(result.assemble(), np.eye(4)) <= 1e-12
        # corner factors are phase-equivalent to the identity
        assert np.allclose(np.abs(result.left_top), np.eye(2), atol=1e-12)

    def test_recovers_cs_matrix_angles(self):
        u = cs_matrix([0.3, 0.7], 4)
        result = csd(u, 2)
        assert np.allclose(result.thetas, [0.3, 0.7], atol=1e-12)
        assert max_abs(result.assemble(), u) <= 1e-12

    def test_haar_6x6_m2(self):
        u = haar_random_unitary(6, 3)
        result = csd(u, 2)
        assert_canonical(result, u)
        # the middle factor equals the cosine-sine matrix with identity tail
        left = block_diag_unitary(result.left_top, result.left_bottom)
        right = block_diag_unitary(result.right_top, result.right_bottom)
        middle = left.conj().T @ u @ right
        assert max_abs(middle, cs_matrix(result.thetas, 6)) <= 1e-10

    @pytest.mark.parametrize("m,n", [(1, 1), (1, 5), (2, 2), (2, 6), (3, 4), (4, 4)])
    def test_haar_grid_canonical(self, m, n):
        for seed in range(5):
            u = haar_random_unitary(m + n, seed)
            assert all_block_relations_hold(u, m)
            assert_canonical(csd(u, m), u)

    def test_known_angles_recovered_after_conjugation(self):
        thetas = [0.2, 0.9, 1.3]
        u = cs_conjugated(thetas, 3, 4, 5)
        result = csd(u, 3)
        assert np.allclose(np.sort(result.thetas), np.sort(thetas), atol=1e-10)
        assert_canonical(result, u)

    def test_permutation_matrices(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            dim = int(rng.integers(4, 10))
            m = int(rng.integers(1, dim // 2 + 1))
            p = np.eye(dim)[rng.permutation(dim)].astype(complex)
            assert_canonical(csd(p, m), p, tol=1e-12)

    def test_real_orthogonal(self):
        rng = np.random.default_rng(3)
        for trial in range(5):
            q, _ = np.linalg.qr(rng.standard_normal((7, 7)))
            assert_canonical(csd(q.astype(complex), 3), q)

    def test_tensor_product(self):
        u = np.kron(haar_random_unitary(2, 4), haar_random_unitary(3, 5))
        assert_canonical(csd(u, 3), u)

    def test_block_diagonal(self):
        u = block_diag_unitary(haar_random_unitary(2, 6), haar_random_unitary(4, 7))
        result = csd(u, 2)
        assert np.allclose(result.thetas, 0.0, atol=1e-12)
        assert_canonical(result, u, tol=1e-12)

    @pytest.mark.parametrize(
        "thetas",
        [
            [0.4, 0.4, 0.4],
            [0.0, 0.0, 0.7],
            [np.pi / 2, np.pi / 2, 0.3],
            [0.0, 0.4, 0.4],
            [0.9, 0.9, 0.0],
            [0.0, 0.0, 0.0],
            [np.pi / 2, np.pi / 2, np.pi / 2],
            [1e-5, 2e-5, 0.5],
            [0.5, 0.5 + 1e-7, 1.0],
            [np.pi / 2 - 1e-7, 0.4, 0.5],
            [np.pi / 2 - 1e-9, np.pi / 2 - 2e-9, 0.3],
        ],
    )
    def test_degenerate_angle_clusters(self, thetas):
        u = cs_conjugated(thetas, 3, 5, 11)
        assert_canonical(csd(u, 3), u)

    def test_non_unitary_rejected_with_deviation(self):
        bad = np.eye(4) * 1.001
        with pytest.raises(UnitarityError) as excinfo:
            csd(bad, 2)
        assert excinfo.value.deviation == pytest.approx(1.001**2 - 1, rel=1e-6)

    def test_unitarity_gate_is_unitary_tol(self):
        # csd takes no tolerance: a defect of about 2e-11 passes the
        # UNITARY_TOL = 1e-10 gate and one of about 2e-10 does not.
        csd(np.eye(4) * (1 + 1e-11), 2)
        with pytest.raises(UnitarityError) as excinfo:
            csd(np.eye(4) * (1 + 1e-10), 2)
        assert excinfo.value.deviation == pytest.approx((1 + 1e-10) ** 2 - 1, rel=1e-6)

    def test_m_larger_than_n_rejected(self):
        with pytest.raises(DimensionError):
            csd(haar_random_unitary(6, 0), 4)

    @pytest.mark.parametrize("m", [0, 6, 7])
    def test_m_out_of_range_rejected(self, m):
        with pytest.raises(DimensionError):
            csd(haar_random_unitary(6, 0), m)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            csd(np.zeros((2, 3)), 1)

    @given(m=st.integers(1, 4), extra=st.integers(0, 6), seed=st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_reassembly_property(self, m, extra, seed):
        n = m + extra
        u = haar_random_unitary(m + n, seed)
        result = csd(u, m)
        assert max_abs(result.assemble(), u) <= 1e-10


class TestCsdStack:
    """The stacked kernel behind ``csd`` and stage 1."""

    N_P = 4

    @classmethod
    def stack(cls):
        """Unitaries whose counts k of cosines above 1/√2 cover 0..n_p."""
        m = cls.N_P
        rng = np.random.default_rng(21)
        small, large = np.pi / 8, 3 * np.pi / 8
        members = []
        for k in range(m + 1):
            members.append(cs_conjugated([small] * k + [large] * (m - k), m, m, 30 + k))
            # exact zero and right angles
            members.append(cs_conjugated([0.0] * k + [np.pi / 2] * (m - k), m, m, 40 + k))
        members.append(np.eye(2 * m, dtype=complex))
        members.append(np.roll(np.eye(2 * m), m, axis=0).astype(complex))
        for _ in range(3):
            members.append(np.eye(2 * m)[rng.permutation(2 * m)].astype(complex))
        members.extend(haar_random_unitary(2 * m, seed) for seed in range(4))
        return np.array(members)

    def test_stack_covers_every_k(self):
        cosines = np.linalg.svd(self.stack()[:, : self.N_P, : self.N_P], compute_uv=False)
        ks = np.count_nonzero(cosines > np.sqrt(0.5), axis=-1)
        assert set(ks.tolist()) == set(range(self.N_P + 1))

    def test_each_slice_matches_csd_alone(self):
        stack, m = self.stack(), self.N_P
        factors = csd_stack(stack, m)
        for i, u in enumerate(stack):
            alone = csd(u, m)
            single = (alone.left_top, alone.left_bottom, alone.thetas, alone.right_top, alone.right_bottom)
            for stacked_factor, factor in zip(factors, single):
                assert max_abs(stacked_factor[i], factor) <= 1e-14, i
            result = CSDResult(*(f[i] for f in factors), m, m)
            assert max_abs(result.assemble(), u) <= 1e-13, i

    def test_slice_reassembly_envelope(self):
        # Each slice reassembles to within c·(2n_p)·ε. Over 200 seeds each of
        # Haar and phased permutation slices, plus the identity, at these n_p
        # the worst error measured was 3.5·(2n_p)·ε (n_p = 3); c = 12 keeps 3x
        # of headroom, and CS angles rounded to 1e-12 fail it.
        eps = np.finfo(float).eps
        above = []
        for n_p in (1, 2, 3, 4, 8, 16):
            dim = 2 * n_p
            stack = [np.eye(dim, dtype=complex)]
            for seed in range(20):
                rng = np.random.default_rng(seed)
                stack.append(haar_random_unitary(dim, seed))
                stack.append(np.eye(dim)[rng.permutation(dim)] * np.exp(2j * np.pi * rng.random(dim)))
            factors = csd_stack(np.array(stack), n_p)
            for i, u in enumerate(stack):
                error = max_abs(CSDResult(*(f[i] for f in factors), n_p, n_p).assemble(), u)
                if error > 12 * dim * eps:
                    above.append(f"slice {i} at n_p={n_p}: {error / (dim * eps):.2f}·(2n_p)·ε")
        assert not above
