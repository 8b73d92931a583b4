import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modemix import (
    Beamsplitter,
    CSBlock,
    DimensionError,
    InternalOp,
    ModeSpace,
    PhaseBlock,
    UnitarityError,
    cs_matrix,
    decompose,
    decompose_stage1,
    embed,
    expand_cs_block,
    haar_random_unitary,
    is_unitary,
    reconstruct,
)

from conftest import block_diag_unitary, max_abs


def count_kinds(circuit):
    counts = {InternalOp: 0, Beamsplitter: 0, PhaseBlock: 0, CSBlock: 0}
    for element in circuit.elements:
        counts[type(element)] += 1
    return counts


class TestStage1:
    def test_single_spatial_mode_short_circuits(self):
        u = haar_random_unitary(4, 0)
        circuit = decompose_stage1(u, ModeSpace(1, 4))
        assert len(circuit.elements) == 1
        element = circuit.elements[0]
        assert isinstance(element, InternalOp) and element.mode == 1
        assert max_abs(element.matrix, u) == 0.0

    @pytest.mark.parametrize("n_p", [1, 2, 3])
    def test_four_mode_structure(self, n_p):
        space = ModeSpace(4, n_p)
        circuit = decompose_stage1(haar_random_unitary(space.dim, 1), space)
        counts = count_kinds(circuit)
        assert counts[InternalOp] == 16
        assert counts[CSBlock] == 6
        assert counts[Beamsplitter] == 0 and counts[PhaseBlock] == 0

    def test_reconstruction(self):
        space = ModeSpace(3, 2)
        u = haar_random_unitary(6, 11)
        circuit = decompose_stage1(u, space)
        assert max_abs(reconstruct(circuit), u) <= 1e-10

    def test_internal_ops_are_unitary_and_cs_blocks_adjacent(self):
        space = ModeSpace(4, 2)
        circuit = decompose_stage1(haar_random_unitary(8, 3), space)
        for element in circuit.elements:
            if isinstance(element, InternalOp):
                assert is_unitary(element.matrix, 1e-10)
            else:
                assert isinstance(element, CSBlock)
                k, l = element.pair
                assert l == k + 1
                assert np.all(element.thetas >= 0) and np.all(element.thetas <= np.pi / 2)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            decompose_stage1(haar_random_unitary(6, 0), ModeSpace(2, 2))

    def test_rejects_non_unitary(self):
        with pytest.raises(UnitarityError):
            decompose_stage1(np.eye(4) * 1.01, ModeSpace(2, 2))

    def test_nan_tolerance_admits_nothing(self):
        with pytest.raises(UnitarityError):
            decompose(np.diag([1.0, 2.0, 1.0, 1.0]), ModeSpace(2, 2), tol=float("nan"))


class TestExpandCsBlock:
    def test_zero_angles_expand_to_identity(self):
        space = ModeSpace(2, 3)
        block = CSBlock((1, 2), np.zeros(3))
        product = np.eye(space.dim, dtype=complex)
        for element in expand_cs_block(block):
            product = embed(element, space) @ product
        assert max_abs(product, np.eye(space.dim)) <= 1e-15

    def test_structure(self):
        block = CSBlock((2, 3), np.array([0.1, 0.2]))
        seq = expand_cs_block(block)
        assert [type(e) for e in seq] == [Beamsplitter, PhaseBlock, PhaseBlock, Beamsplitter]
        first, plus, minus, last = seq
        assert first.conjugate and not last.conjugate
        assert first.pair == (2, 3) and last.pair == (2, 3)
        assert plus.mode == 2 and minus.mode == 3
        assert np.array_equal(plus.phases, [0.1, 0.2])
        assert np.array_equal(minus.phases, [-0.1, -0.2])

    def test_two_internal_modes_match_cs_matrix(self):
        space = ModeSpace(2, 2)
        thetas = np.array([0.3, 0.7])
        product = np.eye(4, dtype=complex)
        for element in expand_cs_block(CSBlock((1, 2), thetas)):
            product = embed(element, space) @ product
        assert max_abs(product, cs_matrix(thetas, 4)) <= 1e-13

    def test_three_internal_modes_match_cs_matrix(self):
        space = ModeSpace(2, 3)
        rng = np.random.default_rng(5)
        thetas = rng.uniform(0, np.pi / 2, 3)
        product = np.eye(6, dtype=complex)
        for element in expand_cs_block(CSBlock((1, 2), thetas)):
            product = embed(element, space) @ product
        assert max_abs(product, cs_matrix(thetas, 6)) <= 1e-13

    @pytest.mark.parametrize("n_p", [1, 2, 3, 4])
    def test_expansion_equals_embedded_block(self, n_p):
        space = ModeSpace(3, n_p)
        rng = np.random.default_rng(n_p)
        block = CSBlock((2, 3), rng.uniform(0, np.pi / 2, n_p))
        product = np.eye(space.dim, dtype=complex)
        for element in expand_cs_block(block):
            product = embed(element, space) @ product
        assert max_abs(product, embed(block, space)) <= 1e-12


class TestDecompose:
    def test_identity_input(self):
        space = ModeSpace(3, 2)
        circuit = decompose(np.eye(6), space)
        assert max_abs(reconstruct(circuit), np.eye(6)) <= 1e-12
        for element in circuit.elements:
            if isinstance(element, PhaseBlock):
                assert np.allclose(element.phases, 0.0, atol=1e-12)

    def test_two_by_two_application_order(self):
        space = ModeSpace(2, 2)
        circuit = decompose(haar_random_unitary(4, 9), space)
        kinds = [type(e) for e in circuit.elements]
        assert kinds == [
            InternalOp,
            InternalOp,
            Beamsplitter,
            PhaseBlock,
            PhaseBlock,
            Beamsplitter,
            InternalOp,
            InternalOp,
        ]

    def test_five_by_three_counts_and_error(self):
        space = ModeSpace(5, 3)
        u = haar_random_unitary(15, 2)
        circuit = decompose(u, space)
        counts = count_kinds(circuit)
        assert counts[Beamsplitter] == 20
        assert counts[InternalOp] == 25
        assert counts[PhaseBlock] == 20
        assert counts[CSBlock] == 0
        assert max_abs(reconstruct(circuit), u) <= 1e-9

    @pytest.mark.parametrize("n_s,n_p", [(1, 1), (1, 3), (2, 1), (2, 3), (3, 1), (4, 2), (6, 1)])
    def test_counts_formulas(self, n_s, n_p):
        space = ModeSpace(n_s, n_p)
        circuit = decompose(haar_random_unitary(space.dim, 0), space)
        counts = count_kinds(circuit)
        assert counts[Beamsplitter] == n_s * (n_s - 1)
        assert counts[InternalOp] == n_s**2
        assert counts[PhaseBlock] == n_s * (n_s - 1)

    def test_adjacency(self):
        space = ModeSpace(5, 2)
        circuit = decompose(haar_random_unitary(10, 4), space)
        for element in circuit.elements:
            if isinstance(element, Beamsplitter):
                assert element.pair[1] == element.pair[0] + 1

    def test_permutation_input(self):
        rng = np.random.default_rng(8)
        # Many repeated angles at 8x4: a CSD that pairs SVDs of its diagonal
        # blocks by clustering their singular values compiled this one 1.4e-8 off.
        found = [0, 10, 18, 30, 17, 16, 8, 24, 4, 3, 27, 6, 15, 2, 28, 1,
                 21, 26, 13, 19, 7, 29, 12, 23, 9, 31, 11, 22, 25, 20, 5, 14]
        for space, perm in ((ModeSpace(4, 3), rng.permutation(12)), (ModeSpace(8, 4), found)):
            p = np.eye(space.dim)[perm].astype(complex)
            circuit = decompose(p, space)
            assert max_abs(reconstruct(circuit), p) <= 1e-9

    def test_real_orthogonal_input(self):
        rng = np.random.default_rng(9)
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        circuit = decompose(q.astype(complex), ModeSpace(4, 2))
        assert max_abs(reconstruct(circuit), q) <= 1e-9

    def test_tensor_product_input(self):
        u = np.kron(haar_random_unitary(3, 1), haar_random_unitary(2, 2))
        circuit = decompose(u, ModeSpace(3, 2))
        assert max_abs(reconstruct(circuit), u) <= 1e-9

    def test_block_diagonal_input(self):
        u = block_diag_unitary(haar_random_unitary(3, 5), haar_random_unitary(5, 6))
        circuit = decompose(u, ModeSpace(4, 2))
        assert max_abs(reconstruct(circuit), u) <= 1e-9

    @given(n_s=st.integers(1, 4), n_p=st.integers(1, 3), seed=st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_property(self, n_s, n_p, seed):
        space = ModeSpace(n_s, n_p)
        u = haar_random_unitary(space.dim, seed)
        assert max_abs(reconstruct(decompose(u, space)), u) <= 1e-9
