import re
import sys

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
    UNITARY_TOL,
    UnitarityError,
    cost_report,
    cs_matrix,
    decompose,
    decompose_stage1,
    deserialize,
    embed,
    expand_cs_block,
    haar_random_unitary,
    reconstruct,
    serialize,
    unitarity_defect,
)

from conftest import block_diag_unitary, cs_conjugated, max_abs
from paper_cascade import cascade_stage1, column_stage1
from test_serialization import assert_bit_identical


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
                assert unitarity_defect(element.matrix) <= 1e-10
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

    def test_input_is_checked_once(self, monkeypatch):
        # Every block stage 1 decomposes is unitary by construction; only the
        # input needs the gate.
        linalg = sys.modules["modemix.linalg"]
        defect = linalg.unitarity_defect
        calls = []
        monkeypatch.setattr(linalg, "unitarity_defect", lambda m: calls.append(1) or defect(m))
        decompose_stage1(haar_random_unitary(16, 0), ModeSpace(16, 1))
        assert len(calls) == 1


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


class TestValueRule:
    """The matrix is refused as circuit values are: integers, floats and complex numbers only."""

    @pytest.mark.parametrize("compiler", [decompose, decompose_stage1])
    @pytest.mark.parametrize(
        "u,n_s,dtype",
        [
            (np.array([[True]]), 1, "bool"),
            ([["1"]], 1, "<U1"),
            (np.eye(4, dtype=bool), 2, "bool"),
            (np.eye(4).astype(object), 2, "object"),
        ],
    )
    def test_refuses_what_a_circuit_refuses(self, compiler, u, n_s, dtype):
        message = f"{compiler.__name__} input must be numbers, got dtype {dtype}"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            compiler(u, ModeSpace(n_s, len(u) // n_s))

    @pytest.mark.parametrize("compiler", [decompose, decompose_stage1])
    @pytest.mark.parametrize("dtype", [np.int8, int, np.float32, float, np.complex64])
    def test_takes_integers_floats_and_complex(self, compiler, dtype):
        space = ModeSpace(3, 2)
        u = np.eye(6)[[1, 0, 3, 2, 5, 4]]
        assert serialize(compiler(u.astype(dtype), space)) == serialize(compiler(u.astype(complex), space))
        assert serialize(compiler(u.astype(dtype).tolist(), space)) == serialize(compiler(u, space))


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

    def test_precision_envelope(self):
        # Products of Householder and Givens factors are backward stable,
        # with error linear in the number of factors that touch an entry
        # (Higham, Accuracy and Stability of Numerical Algorithms, ch. 19),
        # so the error is held to c·N·ε. The worst input measured here is at
        # about 1.1·N·ε; c = 8 leaves room for BLAS differences, while a
        # change that loses even three digits fails.
        eps = np.finfo(float).eps
        above = []
        for n_s, n_p, kind, u in envelope_inputs():
            error = max_abs(reconstruct(decompose(u, ModeSpace(n_s, n_p))), u)
            if error > 8 * n_s * n_p * eps:
                above.append(f"{kind} {n_s}x{n_p}: {error / (n_s * n_p * eps):.2f}·N·ε")
        assert not above

    def test_internal_op_unitarity_envelope(self):
        # Every emitted internal op is unitary to within c·N·ε on the inputs
        # of the precision envelope. The worst here is 1.25·N·ε; over five
        # more seeds of the same kinds and shapes it was 3.0·N·ε, at 1x1
        # where N·ε is smallest. c = 10 keeps more than 3x of headroom.
        eps = np.finfo(float).eps
        above = []
        for n_s, n_p, kind, u in envelope_inputs():
            circuit = decompose(u, ModeSpace(n_s, n_p))
            ops = np.array([e.matrix for e in circuit.elements if isinstance(e, InternalOp)])
            defect = unitarity_defect(ops)
            if defect > 10 * n_s * n_p * eps:
                above.append(f"{kind} {n_s}x{n_p}: {defect / (n_s * n_p * eps):.2f}·N·ε")
        assert not above

    @pytest.mark.parametrize(
        "n_s,n_p,kind",
        [(1, 4, "haar"), (2, 1, "haar"), (2, 2, "haar"), (3, 2, "haar"), (5, 3, "haar"), (16, 1, "haar"),
         (8, 16, "haar"), (2, 128, "haar"), (4, 3, "permutation"), (3, 2, "identity")],
    )
    def test_is_stage1_with_every_mixer_expanded(self, n_s, n_p, kind):
        # Bit for bit, signed zeros included: the identity's angles are all zero.
        space = ModeSpace(n_s, n_p)
        u = {
            "haar": lambda: haar_random_unitary(space.dim, n_s + n_p),
            "permutation": lambda: np.eye(space.dim, dtype=complex)[np.random.default_rng(3).permutation(space.dim)],
            "identity": lambda: np.eye(space.dim, dtype=complex),
        }[kind]()
        expanded = []
        for element in decompose_stage1(u, space).elements:
            expanded += expand_cs_block(element) if type(element) is CSBlock else [element]
        assert_bit_identical(decompose(u, space).elements, expanded)

    @given(n_s=st.integers(1, 4), n_p=st.integers(1, 3), seed=st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_property(self, n_s, n_p, seed):
        space = ModeSpace(n_s, n_p)
        u = haar_random_unitary(space.dim, seed)
        assert max_abs(reconstruct(decompose(u, space)), u) <= 1e-9


def envelope_inputs():
    """Haar, permutation and Kronecker-product inputs on a grid of shapes, plus two wide ones."""
    for n_s in (1, 2, 3, 5, 8):
        for n_p in (1, 2, 3, 4):
            dim = n_s * n_p
            yield n_s, n_p, "haar", haar_random_unitary(dim, dim)
            perm = np.random.default_rng(dim).permutation(dim)
            yield n_s, n_p, "permutation", np.eye(dim, dtype=complex)[perm]
            yield n_s, n_p, "kron", np.kron(haar_random_unitary(n_s, dim), haar_random_unitary(n_p, dim + 1))
    yield 64, 1, "haar", haar_random_unitary(64, 64)
    yield 2, 128, "haar", haar_random_unitary(256, 256)


def structured_inputs(n_s, n_p, seed):
    """Inputs whose off-diagonal blocks are mostly zero, so most nulling steps are trivial."""
    rng = np.random.default_rng(seed)
    dim = n_s * n_p
    yield np.eye(dim, dtype=complex)
    spatial_permutation = np.eye(n_s)[rng.permutation(n_s)]
    yield np.kron(spatial_permutation, haar_random_unitary(n_p, seed))
    per_mode = np.zeros((dim, dim), dtype=complex)
    for k in range(n_s):
        per_mode[k * n_p : (k + 1) * n_p, k * n_p : (k + 1) * n_p] = haar_random_unitary(n_p, seed + k)
    yield per_mode
    if dim > 1:
        split = int(rng.integers(1, dim))
        yield block_diag_unitary(haar_random_unitary(split, seed), haar_random_unitary(dim - split, seed + 1))


class TestAgainstPaperCascade:
    """Stage 1 and the paper's cascade build circuits of the same shape."""

    # The shapes of acceptance criterion 1.
    GRID = [(n_s, n_p) for n_s in range(1, 7) for n_p in range(1, 5)]

    @staticmethod
    def assert_both_compile(u, space):
        for circuit in (decompose_stage1(u, space), cascade_stage1(u, space)):
            assert max_abs(reconstruct(circuit), u) <= 1e-9
            counts = count_kinds(circuit)
            assert counts[InternalOp] == space.n_s**2
            assert counts[CSBlock] == space.n_s * (space.n_s - 1) // 2
            assert counts[Beamsplitter] == 0 and counts[PhaseBlock] == 0

    @pytest.mark.parametrize("n_s,n_p", GRID)
    def test_haar_grid(self, n_s, n_p):
        space = ModeSpace(n_s, n_p)
        for seed in range(3):
            self.assert_both_compile(haar_random_unitary(space.dim, seed), space)

    @pytest.mark.parametrize("n_p", [1, 2, 3, 4])
    @pytest.mark.parametrize("n_s", [1, 2, 3, 5, 8])
    def test_structured_inputs(self, n_s, n_p):
        space = ModeSpace(n_s, n_p)
        for seed in range(2):
            for u in structured_inputs(n_s, n_p, seed):
                self.assert_both_compile(u, space)

    def test_two_spatial_modes_give_the_cascade_circuit(self):
        # At n_s = 2 both routes are one CSD of the whole input.
        space = ModeSpace(2, 3)
        u = haar_random_unitary(6, 4)
        new, old = decompose_stage1(u, space).elements, cascade_stage1(u, space).elements
        assert [type(e) for e in new] == [type(e) for e in old]
        for a, b in zip(new, old):
            if isinstance(a, InternalOp):
                assert a.mode == b.mode and np.array_equal(a.matrix, b.matrix)
            else:
                assert a.pair == b.pair and np.array_equal(a.thetas, b.thetas)


class TestAgainstColumnOrder:
    """Nulling in waves gives the circuit of the column-by-column order."""

    @pytest.mark.parametrize("n_p", [1, 2, 3, 4])
    @pytest.mark.parametrize("n_s", [1, 2, 3, 4, 5, 8, 16])
    def test_same_elements_in_the_same_order(self, n_s, n_p):
        space = ModeSpace(n_s, n_p)
        u = haar_random_unitary(space.dim, 10 * n_s + n_p)
        waves, columns = decompose_stage1(u, space), column_stage1(u, space)
        assert len(waves.elements) == len(columns.elements)
        for a, b in zip(waves.elements, columns.elements):
            assert type(a) is type(b)
            if isinstance(a, InternalOp):
                assert a.mode == b.mode and max_abs(a.matrix, b.matrix) <= 1e-13
            else:
                assert a.pair == b.pair and max_abs(a.thetas, b.thetas) <= 1e-13
        if n_s <= 2:
            assert serialize(waves) == serialize(columns)

    @pytest.mark.parametrize("n_s,n_p", [(2, 3), (3, 1), (8, 2), (16, 1)])
    def test_one_qr_per_wave_and_one_for_the_csd(self, monkeypatch, n_s, n_p):
        u, qr, calls = haar_random_unitary(n_s * n_p, 0), np.linalg.qr, []
        monkeypatch.setattr(np.linalg, "qr", lambda *args, **kwargs: calls.append(1) or qr(*args, **kwargs))
        decompose_stage1(u, ModeSpace(n_s, n_p))
        assert 0 < len(calls) <= 2 * n_s - 3


# Mixing angles cluster at the CSD's degenerate points, with gaps down to 1e-12.
ANGLE_CENTRES = (0.0, np.pi / 4, np.pi / 2)
ANGLE_OFFSETS = (0.0, 1e-12, -1e-12, 1e-9, -1e-6, 1e-3)
STRUCTURED_KINDS = ("phased permutation", "kronecker", "block diagonal", "cs conjugated", "near identity")


@st.composite
def structured_unitaries(draw):
    """A mode space and a unitary on it from one of the structured families.

    A 1x1 input has no block split, so its block-diagonal and CS-conjugated
    draws fall back to a phase.
    """
    space = ModeSpace(draw(st.integers(1, 4)), draw(st.integers(1, 3)))
    dim = space.dim
    kind = draw(st.sampled_from(STRUCTURED_KINDS))
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    if kind == "kronecker":
        outer = draw(st.sampled_from([d for d in range(1, dim + 1) if dim % d == 0]))
        u = np.kron(haar_random_unitary(outer, seed), haar_random_unitary(dim // outer, seed + 1))
    elif kind == "block diagonal" and dim > 1:
        split = draw(st.integers(1, dim - 1))
        u = block_diag_unitary(haar_random_unitary(split, seed), haar_random_unitary(dim - split, seed + 1))
    elif kind == "cs conjugated" and dim > 1:
        m = draw(st.integers(1, dim // 2))
        angles = st.tuples(st.sampled_from(ANGLE_CENTRES), st.sampled_from(ANGLE_OFFSETS))
        thetas = [centre + offset for centre, offset in draw(st.lists(angles, min_size=m, max_size=m))]
        u = cs_conjugated(thetas, m, dim - m, seed)
    elif kind == "near identity":
        h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        w, v = np.linalg.eigh(h + h.conj().T)
        scale = 10.0 ** -draw(st.integers(3, 12))
        u = (v * np.exp(1j * scale * w)) @ v.conj().T
    else:
        phases = np.exp(1j * rng.uniform(-np.pi, np.pi, dim))
        u = np.eye(dim)[rng.permutation(dim)] * phases
    return space, u.astype(complex)


@st.composite
def near_unitaries(draw):
    """A structured unitary u moved to u + s·E, Gaussian E, inside the unitarity gate.

    To first order the defect of u + s·E is s·max|u†E + E†u|, so
    s = 0.9·UNITARY_TOL / max|u†E + E†u| puts it at 0.9·UNITARY_TOL.
    """
    space, u = draw(structured_unitaries())
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    e = rng.standard_normal(u.shape) + 1j * rng.standard_normal(u.shape)
    first_order = u.conj().T @ e + e.conj().T @ u
    return space, u + 0.9 * UNITARY_TOL / np.max(np.abs(first_order)) * e


class TestStructuredInputProperties:
    @given(case=structured_unitaries())
    @settings(max_examples=150, deadline=None)
    def test_compiles_counts_and_files_round_trip(self, case):
        space, u = case
        try:
            circuit = decompose(u, space)
        except UnitarityError:
            # refusing is right only for an input outside the tolerance
            assert unitarity_defect(u) > UNITARY_TOL
            return
        assert max_abs(reconstruct(circuit), u) <= UNITARY_TOL
        counts, report = count_kinds(circuit), cost_report(space)
        assert counts[Beamsplitter] == report.beamsplitters
        assert counts[InternalOp] == report.internal_arbitrary
        assert counts[PhaseBlock] == report.internal_phase_blocks
        assert counts[CSBlock] == 0
        restored = deserialize(serialize(circuit))
        assert restored.space == space
        assert_bit_identical(circuit.elements, restored.elements)

    @given(case=near_unitaries())
    @settings(max_examples=100, deadline=None)
    def test_near_unitary_inputs_compile_and_files_read_back(self, case):
        # Every input the gate admits compiles, and the reader, which holds
        # internal ops to the same gate, takes back the file written for it.
        # The ops carry the input's defect, and the reconstruction may stray
        # past it, so the end-to-end bound of 1e-9 applies.
        space, u = case
        assert unitarity_defect(u) <= UNITARY_TOL
        circuit = decompose(u, space)
        assert max_abs(reconstruct(circuit), u) <= 1e-9
        restored = deserialize(serialize(circuit))
        assert_bit_identical(circuit.elements, restored.elements)

    @pytest.mark.xfail(
        strict=True,
        reason="the unitarity gate bounds entries of M†M - 1, so it admits a row scaled just inside it, "
        "whose nearest unitary is already 7e-10 away: its circuit reconstructs to 1.2e-9",
    )
    def test_row_scaled_to_the_gate_is_refused_or_compiles_to_1e_9(self):
        # Scaling row i by 1 + s moves entry (k, l) of M†M by (2s + s^2) |u_ik| |u_il|.
        # The gate then admits the largest s for the row whose largest entry is
        # smallest: row 239 of this input.
        space = ModeSpace(8, 128)
        u = haar_random_unitary(space.dim, 0)
        row = int(np.argmin(np.max(np.abs(u), axis=1)))
        assert row == 239
        peak = np.max(np.abs(u[row])) ** 2
        u[row] *= np.sqrt(1 + 0.999 * UNITARY_TOL / peak)
        assert 0.998 * UNITARY_TOL <= unitarity_defect(u) <= UNITARY_TOL
        try:
            circuit = decompose(u, space)
        except UnitarityError:
            return
        assert max_abs(reconstruct(circuit), u) <= 1e-9
