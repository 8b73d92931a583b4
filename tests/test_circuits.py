import numpy as np
import pytest

from modemix import (
    BEAMSPLITTER_2,
    Beamsplitter,
    Circuit,
    CSBlock,
    DimensionError,
    InternalOp,
    ModeSpace,
    PhaseBlock,
    cs_matrix,
    embed,
    haar_random_unitary,
    reconstruct,
)

from conftest import max_abs


class TestModeSpace:
    def test_dim(self):
        assert ModeSpace(3, 2).dim == 6

    @pytest.mark.parametrize("n_s,n_p", [(0, 1), (1, 0), (-1, 2)])
    def test_rejects_nonpositive(self, n_s, n_p):
        with pytest.raises(DimensionError):
            ModeSpace(n_s, n_p)


class TestEmbed:
    def test_internal_identity(self):
        space = ModeSpace(3, 2)
        assert max_abs(embed(InternalOp(1, np.eye(2)), space), np.eye(6)) == 0.0

    def test_internal_placement_is_spatial_major(self):
        space = ModeSpace(3, 2)
        u = haar_random_unitary(2, 0)
        full = embed(InternalOp(2, u), space)
        assert max_abs(full[2:4, 2:4], u) == 0.0
        full[2:4, 2:4] = np.eye(2)
        assert max_abs(full, np.eye(6)) == 0.0

    def test_internal_locality(self):
        # basis vectors of the other spatial modes pass through untouched
        space = ModeSpace(4, 3)
        full = embed(InternalOp(2, haar_random_unitary(3, 1)), space)
        for k in (1, 3, 4):
            for l in range(space.n_p):
                basis = np.zeros(space.dim)
                basis[(k - 1) * space.n_p + l] = 1.0
                assert max_abs(full @ basis, basis) == 0.0

    def test_beamsplitter_single_internal_mode(self):
        space = ModeSpace(2, 1)
        expected = np.array([[1, 1j], [1j, 1]]) / np.sqrt(2)
        assert max_abs(embed(Beamsplitter((1, 2)), space), expected) < 1e-16

    def test_beamsplitter_conjugate_flag(self):
        space = ModeSpace(2, 1)
        plain = embed(Beamsplitter((1, 2)), space)
        conj = embed(Beamsplitter((1, 2), conjugate=True), space)
        assert max_abs(conj, plain.conj().T) == 0.0
        assert max_abs(plain @ conj, np.eye(2)) < 1e-15

    def test_beamsplitter_tensors_identity_on_internal_modes(self):
        space = ModeSpace(3, 2)
        full = embed(Beamsplitter((2, 3)), space)
        expected = np.eye(6, dtype=complex)
        expected[2:, 2:] = np.kron(BEAMSPLITTER_2, np.eye(2))
        assert max_abs(full, expected) == 0.0

    def test_phase_block(self):
        space = ModeSpace(2, 2)
        phases = np.array([0.3, -1.2])
        full = embed(PhaseBlock(2, phases), space)
        expected = np.eye(4, dtype=complex)
        expected[2:, 2:] = np.diag(np.exp(1j * phases))
        assert max_abs(full, expected) == 0.0

    def test_cs_block_matches_cs_matrix(self):
        space = ModeSpace(2, 2)
        full = embed(CSBlock((1, 2), np.array([0.3, 0.7])), space)
        assert max_abs(full, cs_matrix([0.3, 0.7], 4)) == 0.0

    def test_cs_block_embedded_with_offset(self):
        space = ModeSpace(3, 2)
        full = embed(CSBlock((2, 3), np.array([0.3, 0.7])), space)
        expected = np.eye(6, dtype=complex)
        expected[2:, 2:] = cs_matrix([0.3, 0.7], 4)
        assert max_abs(full, expected) == 0.0

    def test_rejects_mode_out_of_range(self):
        space = ModeSpace(2, 2)
        with pytest.raises(DimensionError):
            embed(InternalOp(3, np.eye(2)), space)
        with pytest.raises(DimensionError):
            embed(InternalOp(0, np.eye(2)), space)

    def test_rejects_non_adjacent_pair(self):
        space = ModeSpace(3, 1)
        with pytest.raises(DimensionError):
            embed(Beamsplitter((1, 3)), space)

    def test_rejects_pair_out_of_range(self):
        space = ModeSpace(2, 1)
        with pytest.raises(DimensionError):
            embed(Beamsplitter((2, 3)), space)

    def test_rejects_wrong_internal_shape(self):
        space = ModeSpace(2, 2)
        with pytest.raises(DimensionError):
            embed(InternalOp(1, np.eye(3)), space)

    def test_rejects_unknown_element(self):
        with pytest.raises(TypeError):
            embed("mirror", ModeSpace(2, 1))

    def test_rejects_wrong_phase_count(self):
        space = ModeSpace(2, 2)
        with pytest.raises(DimensionError):
            embed(PhaseBlock(1, np.array([0.1])), space)


class TestReconstruct:
    def test_empty_circuit_is_identity(self):
        assert max_abs(reconstruct(Circuit(ModeSpace(2, 2))), np.eye(4)) == 0.0

    def test_single_internal_op(self):
        u = haar_random_unitary(4, 2)
        circuit = Circuit(ModeSpace(1, 4), [InternalOp(1, u)])
        assert max_abs(reconstruct(circuit), u) == 0.0

    def test_application_order(self):
        # elements[0] acts first, so it is the rightmost matrix factor
        space = ModeSpace(1, 2)
        a = haar_random_unitary(2, 0)
        b = haar_random_unitary(2, 1)
        circuit = Circuit(space, [InternalOp(1, a), InternalOp(1, b)])
        assert max_abs(reconstruct(circuit), b @ a) < 1e-15

    def test_mixed_circuit_matches_product_of_embeds(self):
        space = ModeSpace(4, 3)
        rng = np.random.default_rng(5)
        elements = [Beamsplitter((3, 4)), CSBlock((3, 4), rng.uniform(0, np.pi / 2, 3))]
        for i in range(38):
            k = int(rng.integers(1, 5))
            pair = (min(k, 3), min(k, 3) + 1)
            kind = i % 5
            if kind == 0:
                elements.append(InternalOp(k, haar_random_unitary(3, i)))
            elif kind == 1:
                elements.append(PhaseBlock(k, rng.uniform(-np.pi, np.pi, 3)))
            elif kind == 2:
                elements.append(CSBlock(pair, rng.uniform(0, np.pi / 2, 3)))
            else:
                elements.append(Beamsplitter(pair, conjugate=kind == 4))
        product = np.eye(space.dim, dtype=complex)
        for element in elements:
            product = embed(element, space) @ product
        assert max_abs(reconstruct(Circuit(space, elements)), product) <= 1e-13
