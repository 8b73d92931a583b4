import copy
import dataclasses
import gc
import pickle
import re
import weakref

import numpy as np
import pytest

from modemix import (
    Beamsplitter,
    Circuit,
    CSBlock,
    DimensionError,
    InternalOp,
    ModeSpace,
    PhaseBlock,
    audit_circuit,
    cs_matrix,
    decompose,
    decompose_stage1,
    deserialize,
    embed,
    expand_cs_block,
    haar_random_unitary,
    reconstruct,
    serialize,
)
from modemix import circuits
from modemix.circuits import BEAMSPLITTER_2, _check_mode, _check_pair, _walk

from conftest import max_abs


class TestModeSpace:
    def test_dim(self):
        assert ModeSpace(3, 2).dim == 6

    @pytest.mark.parametrize("n_s,n_p", [(0, 1), (1, 0), (-1, 2), (2.0, 1), (2.5, 2)])
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

    # One fault appended after a valid 3x2 circuit, which already holds
    # beamsplitters of both flags: each fault keeps its class and message.
    FAULTS = [
        (InternalOp(4, np.eye(2)), DimensionError, "spatial index 4 out of range 1..3"),
        (
            Beamsplitter((1, 3)),
            DimensionError,
            "spatial pair (1, 3) is not adjacent; only (k, k+1) is allowed",
        ),
        (Beamsplitter((3, 4)), DimensionError, "spatial pair (3, 4) out of range for 3 spatial modes"),
        (InternalOp(1, np.eye(3)), DimensionError, "InternalOp needs a 2x2 block, got shape (3, 3)"),
        (PhaseBlock(2, np.array([0.1])), DimensionError, "PhaseBlock needs a 2x2 block, got shape (1, 1)"),
        (
            CSBlock((1, 2), np.array([0.1, 0.2, 0.3])),
            DimensionError,
            "CSBlock needs a 4x4 block, got shape (6, 6)",
        ),
        ("mirror", TypeError, "unknown circuit element type: str"),
        # A pair that does not unpack into two values.
        (Beamsplitter((1, 2, 3)), DimensionError, "spatial pair (1, 2, 3) is not two spatial indices"),
        (CSBlock((1,), np.zeros(2)), DimensionError, "spatial pair (1,) is not two spatial indices"),
        (Beamsplitter(1), DimensionError, "spatial pair 1 is not two spatial indices"),
    ]

    @pytest.mark.parametrize("fault,kind,message", FAULTS)
    def test_fault_in_last_element(self, fault, kind, message):
        space = ModeSpace(3, 2)
        circuit = decompose(haar_random_unitary(6, 1), space)
        assert {e.conjugate for e in circuit.elements if isinstance(e, Beamsplitter)} == {False, True}
        with pytest.raises(kind, match=f"^{re.escape(message)}$"):
            Circuit(space, [*circuit.elements, fault])

    def test_writing_into_an_embedded_beamsplitter_changes_no_later_call(self):
        space = ModeSpace(3, 2)
        for conjugate in (False, True):
            element = Beamsplitter((1, 2), conjugate=conjugate)
            first = embed(element, space)
            expected = first.copy()
            first[:] = 7.0
            assert np.array_equal(embed(element, space), expected)
            circuit = Circuit(space, [element, Beamsplitter((2, 3), conjugate=conjugate)])
            before = reconstruct(circuit)
            before[:] = 7.0
            assert np.array_equal(reconstruct(circuit), kron_oracle(circuit))

    def test_alternating_spaces_give_the_same_bits(self):
        # the beamsplitter block depends on n_p, so a block kept from one
        # call must never reach a call on another mode space
        first = decompose(haar_random_unitary(6, 4), ModeSpace(3, 2))
        other = decompose(haar_random_unitary(6, 4), ModeSpace(2, 3))
        runs = [reconstruct(c) for c in (first, other, first, other, first)]
        assert_same_bits(runs[0], runs[2])
        assert_same_bits(runs[0], runs[4])
        assert_same_bits(runs[1], runs[3])
        assert_same_bits(runs[0], kron_oracle(first))
        assert_same_bits(runs[1], kron_oracle(other))


def kron_oracle(circuit):
    """The product of a circuit's elements, with np.kron called for every beamsplitter."""
    n_p = circuit.space.n_p
    out = np.eye(circuit.space.dim, dtype=complex)
    for element in circuit.elements:
        if isinstance(element, Beamsplitter):
            b = BEAMSPLITTER_2.conj().T if element.conjugate else BEAMSPLITTER_2
            first, block = element.pair[0], np.kron(b, np.eye(n_p))
        elif isinstance(element, CSBlock):
            thetas = np.asarray(element.thetas, dtype=float)
            first, block = element.pair[0], cs_matrix(thetas, 2 * thetas.size)
        elif isinstance(element, PhaseBlock):
            phases = np.asarray(element.phases, dtype=float)
            first, block = element.mode, np.diag(np.exp(1j * phases))
        else:
            first, block = element.mode, np.asarray(element.matrix, dtype=complex)
        rows = slice((first - 1) * n_p, (first - 1) * n_p + block.shape[0])
        out[rows] = block @ out[rows]
    return out


def assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


class TestReconstructBits:
    """reconstruct equals the per-element np.kron product bit for bit."""

    @pytest.mark.parametrize("n_s,n_p", [(1, 4), (3, 2), (5, 3), (16, 1)])
    @pytest.mark.parametrize("compile_", [decompose, decompose_stage1])
    def test_compiled_circuits(self, n_s, n_p, compile_):
        space = ModeSpace(n_s, n_p)
        circuit = compile_(haar_random_unitary(space.dim, n_s + n_p), space)
        assert_same_bits(reconstruct(circuit), kron_oracle(circuit))

    @pytest.mark.parametrize("n_p", [1, 2, 3])
    def test_conjugate_flags_read_by_truth(self, n_p):
        space = ModeSpace(4, n_p)
        rng = np.random.default_rng(n_p)
        flags = [1, 0, np.True_, np.False_, True, False]
        pairs = [(k, k + 1) for k in [1, 2, 3, 2, 1, 3] * 3]
        elements = [Beamsplitter(pair, conjugate=flags[i % 6]) for i, pair in enumerate(pairs)]
        elements.insert(5, PhaseBlock(2, rng.uniform(-np.pi, np.pi, n_p)))
        elements.insert(9, InternalOp(3, haar_random_unitary(n_p, n_p)))
        circuit = Circuit(space, elements)
        assert_same_bits(reconstruct(circuit), kron_oracle(circuit))
        for flag in flags:
            element = Beamsplitter((2, 3), conjugate=flag)
            assert_same_bits(embed(element, space), kron_oracle(Circuit(space, [element])))
            written = serialize(Circuit(space, [Beamsplitter((2, 3), conjugate=bool(flag))]))
            assert serialize(Circuit(space, [element])) == written


class TestLayeredWalker:
    """Same-layer groups that do not tile one band, mixed kinds and edge cases, bit for bit."""

    @staticmethod
    def circuit(n_s, n_p, specs, seed=0):
        """Elements from (kind, index) specs, with seeded values."""
        rng = np.random.default_rng(seed)
        make = {
            "op": lambda k: InternalOp(k, haar_random_unitary(n_p, int(rng.integers(1000)))),
            "phase": lambda k: PhaseBlock(k, rng.uniform(-np.pi, np.pi, n_p)),
            "bs": lambda pair: Beamsplitter(pair),
            "bs*": lambda pair: Beamsplitter(pair, conjugate=True),
            "cs": lambda pair: CSBlock(pair, rng.uniform(0, np.pi / 2, n_p)),
        }
        return Circuit(ModeSpace(n_s, n_p), [make[kind](index) for kind, index in specs])

    CASES = {
        # The first six leave a gap in their first layer, so that layer splits into
        # several groups, each a run of elements on abutting rows.
        "ops on modes 1 and 3 of 4": (4, 2, [("op", 1), ("op", 3), ("op", 1), ("phase", 3)]),
        "phases on modes 1 and 4 of 4": (4, 3, [("phase", 1), ("phase", 4), ("op", 4), ("op", 1)]),
        "pairs (1, 2) and (4, 5)": (5, 2, [("bs", (1, 2)), ("bs", (4, 5)), ("op", 2), ("op", 5)]),
        "CS pairs (1, 2) and (4, 5)": (5, 1, [("cs", (1, 2)), ("cs", (4, 5)), ("bs*", (2, 3))]),
        "ops on modes 1, 2, 4 and 5 of 6": (
            6, 2, [("op", 5), ("op", 1), ("op", 4), ("op", 2), ("bs", (2, 3)), ("op", 2), ("op", 4)],
        ),
        "pairs (1, 2), (3, 4), (6, 7) and (8, 9) of 9": (
            9, 2, [("bs", (8, 9)), ("bs", (1, 2)), ("bs", (6, 7)), ("bs", (3, 4)), ("op", 4), ("bs*", (4, 5))],
        ),
        "both flags in one layer": (
            4, 2, [("bs", (1, 2)), ("bs*", (3, 4)), ("bs*", (1, 2)), ("bs", (3, 4)), ("bs", (2, 3))],
        ),
        "CS blocks beside beamsplitters": (
            6, 2, [("cs", (1, 2)), ("bs", (3, 4)), ("cs", (5, 6)), ("bs*", (2, 3)), ("cs", (4, 5))],
        ),
        "upper mode first": (
            4, 2, [("op", 4), ("op", 3), ("op", 2), ("op", 1), ("bs", (3, 4)), ("bs", (1, 2)), ("phase", 2)],
        ),
        "one spatial mode": (1, 3, [("op", 1), ("phase", 1), ("op", 1), ("phase", 1)]),
        "one mode of one": (1, 1, [("phase", 1), ("op", 1)]),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_hand_built_circuit(self, name):
        n_s, n_p, specs = self.CASES[name]
        circuit = self.circuit(n_s, n_p, specs)
        assert_same_bits(reconstruct(circuit), kron_oracle(circuit))

    @pytest.mark.parametrize("n_s,n_p", [(1, 2), (2, 1), (4, 3)])
    def test_empty_circuit_is_the_identity_bit_for_bit(self, n_s, n_p):
        space = ModeSpace(n_s, n_p)
        assert_same_bits(reconstruct(Circuit(space)), np.eye(space.dim, dtype=complex))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_placements(self, seed):
        # Random kinds on random modes: layers of every kind, tiled or not.
        rng = np.random.default_rng(seed)
        n_s, n_p = 6, 1 + seed % 3
        specs = []
        for _ in range(60):
            kind = ["op", "phase", "bs", "bs*", "cs"][int(rng.integers(5))]
            k = int(rng.integers(1, n_s + (kind in ("op", "phase"))))
            specs.append((kind, k if kind in ("op", "phase") else (k, k + 1)))
        circuit = self.circuit(n_s, n_p, specs, seed)
        assert_same_bits(reconstruct(circuit), kron_oracle(circuit))
        for element in circuit.elements[::7]:
            one = Circuit(circuit.space, [element])
            assert_same_bits(embed(element, circuit.space), kron_oracle(one))

    @pytest.mark.parametrize("n_s", [10**400, 759250125], ids=["10**400", "759250125"])
    def test_space_too_large_for_any_array_is_named(self, n_s):
        # 759250125 is the first n with n x n complex128 entries past numpy's bytes limit.
        circuit = deserialize(serialize(Circuit(ModeSpace(n_s, 1), [Beamsplitter((1, 2))])))
        message = f"^dimension {n_s} is too large for a {n_s}x{n_s} complex array$"
        for walk in (reconstruct, lambda c: embed(c.elements[0], c.space)):
            with pytest.raises(DimensionError, match=message):
                walk(circuit)

    def test_first_fault_in_document_order_is_named(self):
        # The phase block sits in layer 3 of mode 1; the later pair would sit in layer 1.
        space = ModeSpace(3, 2)
        u = haar_random_unitary(2, 0)
        elements = [InternalOp(1, u), InternalOp(1, u), PhaseBlock(1, np.array([0.1])), Beamsplitter((2, 4))]
        with pytest.raises(DimensionError, match=re.escape("PhaseBlock needs a 2x2 block, got shape (1, 1)")):
            reconstruct(Circuit(space, elements))
        elements[2] = InternalOp(1, u)
        with pytest.raises(DimensionError, match=re.escape("spatial pair (2, 4) is not adjacent")):
            reconstruct(Circuit(space, elements))


class TestIndexRule:
    """The walker and the writer take indices through operator.index, as Python ints."""

    @pytest.mark.parametrize(
        "element,message",
        [
            (InternalOp(1.5, np.eye(2)), "spatial index 1.5 is not an integer"),
            (PhaseBlock(2.0, np.zeros(2)), "spatial index 2.0 is not an integer"),
            (Beamsplitter((1.0, 2.0)), "spatial pair (1.0, 2.0) is not two integers"),
            (CSBlock((1, 2.0), np.zeros(2)), "spatial pair (1, 2.0) is not two integers"),
        ],
    )
    def test_non_integer_index_is_named(self, element, message):
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            Circuit(ModeSpace(3, 2), [element])

    def test_numpy_integers_work(self):
        space = ModeSpace(3, 2)
        u, i64 = haar_random_unitary(2, 3), np.int64
        plain = [InternalOp(2, u), Beamsplitter((1, 2)), PhaseBlock(3, np.array([0.2, 0.4]))]
        numpy = [InternalOp(i64(2), u), Beamsplitter((i64(1), i64(2))), PhaseBlock(i64(3), np.array([0.2, 0.4]))]
        assert_same_bits(reconstruct(Circuit(space, numpy)), reconstruct(Circuit(space, plain)))
        assert serialize(Circuit(space, numpy)) == serialize(Circuit(space, plain))

    def test_checks_return_python_ints(self):
        space = ModeSpace(3, 1)
        assert type(_check_mode(np.int64(2), space)) is int
        pair = _check_pair(np.array([2, 3]), space)
        assert pair == (2, 3) and all(type(k) is int for k in pair)


class TestValueShapes:
    """A circuit refuses every value shape the reader refuses, with DimensionError, when it is built."""

    @pytest.mark.parametrize(
        "space,element,message",
        [
            (ModeSpace(2, 1), PhaseBlock(1, np.float64(0.3)), "PhaseBlock needs phases of shape (1,), got shape ()"),
            (ModeSpace(2, 2), PhaseBlock(1, np.float64(0.3)), "PhaseBlock needs phases of shape (2,), got shape ()"),
            (ModeSpace(2, 2), PhaseBlock(1, np.zeros((2, 2))), "PhaseBlock needs phases of shape (2,), got shape (2, 2)"),
            (ModeSpace(2, 2), CSBlock((1, 2), np.zeros((1, 2))), "CSBlock needs thetas of shape (2,), got shape (1, 2)"),
            (ModeSpace(2, 1), CSBlock((1, 2), np.float64(0.3)), "CSBlock needs thetas of shape (1,), got shape ()"),
        ],
    )
    def test_walker_and_writer_refuse(self, space, element, message):
        with pytest.raises(DimensionError, match=f"^{re.escape(message)}$"):
            Circuit(space, [element])


class TestValueTypes:
    """Angles must be integer or float arrays, matrices integer, float or complex; nothing is coerced."""

    @pytest.mark.parametrize(
        "element,message",
        [
            (PhaseBlock(1, np.array([0.5 + 0.3j])), "PhaseBlock phases must be real numbers, got dtype complex128"),
            (CSBlock((1, 2), [0.2 + 1j]), "CSBlock thetas must be real numbers, got dtype complex128"),
            (PhaseBlock(1, ["0.5"]), "PhaseBlock phases must be real numbers, got dtype <U3"),
            (PhaseBlock(1, [True]), "PhaseBlock phases must be real numbers, got dtype bool"),
            (CSBlock((1, 2), np.array([0.1], dtype=object)), "CSBlock thetas must be real numbers, got dtype object"),
            (InternalOp(1, [["1"]]), "InternalOp matrix must be numbers, got dtype <U1"),
            (InternalOp(1, [[True]]), "InternalOp matrix must be numbers, got dtype bool"),
        ],
    )
    def test_every_walk_refuses(self, element, message):
        space = ModeSpace(2, 1)
        for walk in (reconstruct, lambda c: embed(c.elements[0], space), serialize, audit_circuit):
            with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
                walk(Circuit(space, [element]))

    def test_expand_cs_block_refuses_complex_thetas(self):
        with pytest.raises(TypeError, match=r"^CSBlock thetas must be real numbers, got dtype complex128$"):
            expand_cs_block(CSBlock((1, 2), [0.2 + 1j]))

    def test_integers_are_taken_as_numbers(self):
        space = ModeSpace(2, 2)
        ints = [InternalOp(1, [[0, 1], [1, 0]]), PhaseBlock(2, [1, -2]), CSBlock((1, 2), np.array([0, 1], np.uint8))]
        floats = [InternalOp(1, [[0.0, 1.0], [1.0, 0.0]]), PhaseBlock(2, [1.0, -2.0]), CSBlock((1, 2), [0.0, 1.0])]
        assert_same_bits(reconstruct(Circuit(space, ints)), reconstruct(Circuit(space, floats)))
        assert serialize(Circuit(space, ints)) == serialize(Circuit(space, floats))

    @pytest.mark.parametrize(
        "flag,name",
        [
            ("false", "str"),
            (0.5, "float"),
            (None, "NoneType"),
            (np.float64(1.0), "float64"),
            (np.array([True, False]), "ndarray"),
        ],
    )
    def test_conjugate_flag_is_a_bool_or_an_integer(self, flag, name):
        space = ModeSpace(2, 1)
        message = f"Beamsplitter conjugate must be a bool or an integer, got {name}"
        for walk in (reconstruct, lambda c: embed(c.elements[0], space), serialize, audit_circuit):
            with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
                walk(Circuit(space, [Beamsplitter((1, 2), conjugate=flag)]))


class TestExactKinds:
    """Elements are dispatched on exact type: a subclass is no kind of the file format."""

    @pytest.mark.parametrize(
        "base,args",
        [
            (InternalOp, (1, np.eye(1))),
            (PhaseBlock, (1, np.zeros(1))),
            (Beamsplitter, ((1, 2),)),
            (CSBlock, ((1, 2), np.zeros(1))),
        ],
    )
    def test_subclass_is_refused_by_every_walk(self, base, args):
        element = type("Op", (base,), {})(*args)
        space = ModeSpace(2, 1)
        for walk in (reconstruct, lambda c: embed(c.elements[0], space), serialize, audit_circuit):
            with pytest.raises(TypeError, match="^unknown circuit element type: Op$"):
                walk(Circuit(space, [element]))


class TestEquality:
    """Elements are equal when of one exact type with every field equal under np.array_equal."""

    @pytest.mark.parametrize("compiler", [decompose, decompose_stage1])
    @pytest.mark.parametrize("n_s,n_p", [(2, 2), (3, 2)])
    def test_equal_compiled_circuits_compare_equal(self, compiler, n_s, n_p):
        space = ModeSpace(n_s, n_p)
        u = haar_random_unitary(space.dim, n_s + n_p)
        circuit = compiler(u, space)
        assert circuit == compiler(u, space) and not circuit != compiler(u, space)
        assert deserialize(serialize(circuit)) == circuit
        assert Circuit(space, [dataclasses.replace(e) for e in circuit.elements]) == circuit

    @pytest.mark.parametrize("compiler", [decompose, decompose_stage1])
    def test_a_changed_value_mode_or_flag_compares_unequal(self, compiler):
        space = ModeSpace(3, 2)
        u = haar_random_unitary(space.dim, 3)
        circuit = compiler(u, space)
        changes = {
            InternalOp: lambda e: dataclasses.replace(e, mode=e.mode % 3 + 1),
            PhaseBlock: lambda e: dataclasses.replace(e, phases=e.phases + [0.0, 1e-12]),
            Beamsplitter: lambda e: dataclasses.replace(e, conjugate=not e.conjugate),
            CSBlock: lambda e: dataclasses.replace(e, thetas=e.thetas + [0.0, 1e-12]),
        }
        elements = circuit.elements
        for i, element in enumerate(elements):
            changed = Circuit(space, [*elements[:i], changes[type(element)](element), *elements[i + 1 :]])
            for other in (changed, deserialize(serialize(changed))):
                assert circuit != other and not circuit == other, i

    @pytest.mark.parametrize("compiler", [decompose, decompose_stage1])
    def test_the_same_elements_in_another_kind_order_are_unequal(self, compiler):
        # Swapping two elements of different kinds keeps each kind's modes and values.
        space = ModeSpace(3, 2)
        circuit = compiler(haar_random_unitary(space.dim, 3), space)
        elements = list(circuit.elements)
        elements[1], elements[2] = elements[2], elements[1]
        assert type(elements[1]) is not type(elements[2])
        swapped = Circuit(space, elements)
        assert circuit != swapped and not circuit == swapped

    @pytest.mark.parametrize(
        "element,changed",
        [
            (InternalOp(1, np.eye(2)), InternalOp(2, np.eye(2))),
            (InternalOp(1, np.eye(2)), InternalOp(1, np.eye(2)[::-1])),
            (InternalOp(1, np.eye(2)), InternalOp(1, np.eye(3))),
            (PhaseBlock(1, [0.1, 0.2]), PhaseBlock(1, [0.1, 0.3])),
            (PhaseBlock(1, [0.1, 0.2]), PhaseBlock(2, [0.1, 0.2])),
            (CSBlock((1, 2), [0.1]), CSBlock((1, 2), [0.2])),
            (CSBlock((1, 2), [0.1]), CSBlock((2, 3), [0.1])),
            (Beamsplitter((1, 2)), Beamsplitter((1, 2), conjugate=True)),
        ],
    )
    def test_a_changed_field_is_unequal(self, element, changed):
        assert element != changed and not element == changed
        assert element == copy.deepcopy(element)

    def test_fields_are_compared_as_arrays(self):
        assert Beamsplitter(np.array([1, 2])) == Beamsplitter((1, 2)) == Beamsplitter([1, 2])
        assert Beamsplitter((1, 2), conjugate=np.True_) == Beamsplitter((1, 2), conjugate=True)
        assert PhaseBlock(1, [0, 1]) == PhaseBlock(np.int64(1), np.array([0.0, 1.0]))
        space = ModeSpace(2, 1)
        circuit = Circuit(space, [Beamsplitter([1, 2]), PhaseBlock(2, [1])])
        assert deserialize(serialize(circuit)) == circuit
        assert len({Beamsplitter((1, 2)), Beamsplitter((1, 2), conjugate=False)}) == 1  # still hashable

    @pytest.mark.parametrize(
        "base,args",
        [
            (InternalOp, (1, np.eye(1))),
            (PhaseBlock, (1, np.zeros(1))),
            (Beamsplitter, ((1, 2),)),
            (CSBlock, ((1, 2), np.zeros(1))),
        ],
    )
    def test_a_subclass_instance_is_unequal(self, base, args):
        element, sub = base(*args), type("Op", (base,), {})(*args)
        assert element != sub and sub != element
        assert not element == sub and not sub == element

    @pytest.mark.parametrize(
        "element", [InternalOp(1, np.eye(1)), PhaseBlock(1, np.zeros(1)), CSBlock((1, 2), np.zeros(1))]
    )
    def test_elements_with_arrays_are_unhashable(self, element):
        with pytest.raises(TypeError):
            hash(element)


def outcome(function, circuit):
    """What ``function`` gives for ``circuit``: a matrix's bits, a text, a report's repr, or the error's class and message."""
    try:
        result = function(circuit)
    except Exception as exc:  # the class and message are what is compared
        return type(exc), str(exc)
    if isinstance(result, np.ndarray):
        return result.view(np.uint64).tobytes()
    return result if isinstance(result, str) else repr(result)


OUTPUTS = (reconstruct, serialize, audit_circuit)


class TestCompiledAndReadCircuits:
    """A circuit from decompose, decompose_stage1 or deserialize gives what its element list gives."""

    MAKERS = {
        "decompose": decompose,
        "decompose_stage1": decompose_stage1,
        "deserialize": lambda u, space: deserialize(serialize(decompose(u, space))),
        "deserialize stage 1": lambda u, space: deserialize(serialize(decompose_stage1(u, space))),
    }

    @staticmethod
    def plain(circuit):
        return Circuit(circuit.space, list(circuit.elements))

    @pytest.mark.parametrize("maker", list(MAKERS))
    @pytest.mark.parametrize(
        "n_s,n_p,matrix",
        [(1, 4, "haar"), (2, 1, "haar"), (3, 2, "haar"), (16, 1, "haar"), (8, 16, "haar"), (2, 128, "haar"),
         (4, 2, "identity"), (4, 3, "permutation")],
    )
    def test_same_bits_and_bytes_as_its_element_list(self, maker, n_s, n_p, matrix):
        space = ModeSpace(n_s, n_p)
        u = {
            "haar": lambda: haar_random_unitary(space.dim, n_s + n_p),
            "identity": lambda: np.eye(space.dim),
            "permutation": lambda: np.eye(space.dim)[np.random.default_rng(n_s).permutation(space.dim)],
        }[matrix]()
        make = self.MAKERS[maker]
        got = [outcome(function, make(u, space)) for function in OUTPUTS]  # each on a fresh circuit
        circuit = make(u, space)
        assert [outcome(function, circuit) for function in OUTPUTS] == got  # a circuit may be read again
        plain = self.plain(circuit)
        assert [outcome(function, plain) for function in OUTPUTS] == got
        assert [outcome(function, circuit) for function in OUTPUTS] == got

    @pytest.mark.parametrize("maker", list(MAKERS))
    @pytest.mark.parametrize("n_s,n_p", [(1, 2), (2, 1), (4, 3), (6, 1)])
    def test_held_record_is_the_walk_of_its_elements(self, maker, n_s, n_p):
        space = ModeSpace(n_s, n_p)
        circuit = self.MAKERS[maker](haar_random_unitary(space.dim, n_s), space)
        record = modes, values, sequence = circuit._record
        assert "elements" not in vars(circuit)  # no element built yet
        walk_modes, walk_values, walk_sequence = _walk(circuit)
        assert circuit._record is record  # kept once its elements are built
        assert modes == walk_modes and sequence == walk_sequence
        assert all(type(k) is int for kind in modes for k in kind)
        for value, walked in zip(values, walk_values):
            assert len(value) == len(walked)
            if len(value):
                assert_same_bits(np.asarray(value), walked)

    @staticmethod
    def fresh(maker):
        space = ModeSpace(3, 2)
        return TestCompiledAndReadCircuits.MAKERS[maker](haar_random_unitary(space.dim, 7), space)

    @pytest.mark.parametrize("maker", list(MAKERS))
    @pytest.mark.parametrize("n_s,n_p", [(4, 2), (2, 2), (3, 3), (3, 1)])
    def test_a_replaced_space_is_walked(self, maker, n_s, n_p):
        # On 2x2 an index and on 3x3 and 3x1 a matrix shape is refused, as Circuit refuses it.
        space = ModeSpace(n_s, n_p)
        expected = outcomes(lambda: Circuit(space, list(self.fresh(maker).elements)))
        assert outcomes(lambda: dataclasses.replace(self.fresh(maker), space=space)) == expected
        assert isinstance(expected, tuple) == ((n_s, n_p) != (4, 2))

    @pytest.mark.parametrize("maker", list(MAKERS))
    def test_repr_reads_the_elements(self, maker):
        circuit = self.fresh(maker)
        assert repr(circuit) == repr(self.plain(self.fresh(maker)))
        assert repr(circuit).startswith("Circuit(space=ModeSpace(n_s=3, n_p=2), elements=(InternalOp(mode=3, ")
        other = Circuit(circuit.space, [e for e in circuit.elements if not isinstance(e, InternalOp)])
        assert circuit != other and other == self.plain(other)
        assert dataclasses.replace(circuit) == dataclasses.replace(self.plain(circuit))


def outcomes(make):
    """What each of OUTPUTS gives for the circuit ``make()`` builds, or the class and message of its refusal."""
    try:
        circuit = make()
    except Exception as exc:  # the class and message are what is compared
        return type(exc), str(exc)
    return [outcome(function, circuit) for function in OUTPUTS]


class TestFixedCircuits:
    """A circuit is fixed when it is built: its elements are read once and every reader reads its one record."""

    MAKERS = TestCompiledAndReadCircuits.MAKERS

    def test_a_generator_of_elements_is_read_once(self):
        space = ModeSpace(2, 1)
        elements = list(decompose(haar_random_unitary(2, 1), space).elements)
        circuit, plain = Circuit(space, (e for e in elements)), Circuit(space, elements)
        expected = [outcome(function, plain) for function in OUTPUTS]
        for _ in range(2):
            assert [outcome(function, circuit) for function in OUTPUTS] == expected
            assert circuit == plain and circuit.elements == tuple(elements)

    @pytest.mark.parametrize("compiler", [decompose, decompose_stage1])
    def test_equality_builds_no_element(self, compiler, monkeypatch):
        space = ModeSpace(16, 1)
        u = haar_random_unitary(space.dim, 16)
        circuit, again, read = compiler(u, space), compiler(u, space), deserialize(serialize(compiler(u, space)))
        other = compiler(haar_random_unitary(space.dim, 17), space)

        def refuse(record):
            raise AssertionError("an element object was built")

        monkeypatch.setattr(circuits, "_elements", refuse)
        assert circuit == again and circuit == read and read == circuit
        assert circuit != other and not circuit == other
        assert "elements" not in vars(circuit) and "elements" not in vars(read)

    def test_a_circuit_has_no_hash(self):
        with pytest.raises(TypeError):
            hash(Circuit(ModeSpace(2, 1), [Beamsplitter((1, 2))]))
        with pytest.raises(TypeError):
            hash(deserialize(serialize(Circuit(ModeSpace(2, 1), [Beamsplitter((1, 2))]))))

    @pytest.mark.parametrize("maker", list(MAKERS))
    def test_space_and_elements_cannot_change(self, maker):
        held = TestCompiledAndReadCircuits.fresh(maker)
        expected = [outcome(function, held) for function in OUTPUTS]
        for circuit in (held, Circuit(held.space, list(held.elements))):
            with pytest.raises(dataclasses.FrozenInstanceError):
                circuit.space = ModeSpace(4, 2)
            with pytest.raises(dataclasses.FrozenInstanceError):
                circuit.elements = []
            with pytest.raises(AttributeError):
                circuit.elements.append(Beamsplitter((1, 2)))
            assert [outcome(function, circuit) for function in OUTPUTS] == expected  # a refused change changes nothing

    @pytest.mark.parametrize("maker", list(MAKERS))
    def test_an_element_put_in_after_a_read_is_checked(self, maker):
        circuit = TestCompiledAndReadCircuits.fresh(maker)
        expected = [outcome(function, circuit) for function in OUTPUTS]
        elements = circuit.elements
        refused = outcomes(lambda: Circuit(circuit.space, [*elements, PhaseBlock(4, np.zeros(2))]))
        assert refused == (DimensionError, "spatial index 4 out of range 1..3")
        assert circuit.elements is elements and [outcome(function, circuit) for function in OUTPUTS] == expected

    @pytest.mark.parametrize("maker", list(MAKERS))
    def test_a_replaced_element_list_is_the_circuit(self, maker):
        circuit, other = TestCompiledAndReadCircuits.fresh(maker), TestCompiledAndReadCircuits.fresh(maker)
        refused = outcomes(lambda: dataclasses.replace(circuit, elements=[*other.elements, Beamsplitter((3, 4))]))
        assert refused == (DimensionError, "spatial pair (3, 4) out of range for 3 spatial modes")
        replaced = dataclasses.replace(circuit, elements=other.elements[:3])
        assert replaced.elements == other.elements[:3] and replaced == Circuit(circuit.space, other.elements[:3])
        assert outcomes(lambda: replaced) == outcomes(lambda: Circuit(circuit.space, list(other.elements[:3])))
        assert replaced != circuit and circuit == other

    @pytest.mark.parametrize("maker", list(MAKERS))
    @pytest.mark.parametrize(
        "duplicate",
        [copy.copy, copy.deepcopy, lambda circuit: pickle.loads(pickle.dumps(circuit))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_a_copy_reads_the_same(self, maker, duplicate):
        # Before and after the elements are first read; the copy is as fixed as the circuit.
        for read in (False, True):
            circuit = TestCompiledAndReadCircuits.fresh(maker)
            expected = [outcome(function, TestCompiledAndReadCircuits.fresh(maker)) for function in OUTPUTS]
            if read:
                circuit.elements
            twin = duplicate(circuit)
            assert "elements" not in vars(twin)  # a copy never carries a built tuple
            assert twin == circuit and [outcome(function, twin) for function in OUTPUTS] == expected
            assert twin.elements == circuit.elements
            with pytest.raises(dataclasses.FrozenInstanceError):
                twin.space = ModeSpace(4, 2)

    BUILDERS = {
        **MAKERS,
        "list": lambda u, space: Circuit(space, list(decompose(u, space).elements)),
        "generator": lambda u, space: Circuit(space, (e for e in decompose_stage1(u, space).elements)),
    }
    DUPLICATES = {
        "copy": copy.copy,
        "deepcopy": copy.deepcopy,
        "pickle": lambda circuit: pickle.loads(pickle.dumps(circuit)),
    }

    @staticmethod
    def built(maker):
        space = ModeSpace(3, 2)
        return TestFixedCircuits.BUILDERS[maker](haar_random_unitary(space.dim, 7), space)

    @pytest.mark.parametrize("maker", list(BUILDERS))
    def test_element_arrays_are_read_only(self, maker):
        circuit = self.built(maker)
        expected = [outcome(function, circuit) for function in OUTPUTS]
        stage1 = maker in ("decompose_stage1", "deserialize stage 1", "generator")
        assert refuse_writes(circuit) == ({"matrix", "thetas"} if stage1 else {"matrix", "phases"})
        assert [outcome(function, circuit) for function in OUTPUTS] == expected  # a refused write changes nothing
        assert Circuit(circuit.space, circuit.elements) == circuit

    @pytest.mark.parametrize("maker", list(BUILDERS))
    def test_a_circuit_and_its_copies_hold_only_their_record(self, maker):
        # Copies made before and after a read; each builds its own read-only elements when first read.
        for read in (False, True):
            circuit = self.built(maker)
            if read:
                circuit.elements
            for twin in [circuit, *(duplicate(circuit) for duplicate in self.DUPLICATES.values())]:
                assert set(vars(twin)) == {"space", "_record"} | ({"elements"} if read and twin is circuit else set())
                assert twin.elements == circuit.elements and set(vars(twin)) == {"space", "_record", "elements"}
                refuse_writes(twin)
                assert Circuit(twin.space, twin.elements) == twin == circuit

    def test_a_built_circuit_keeps_no_element(self):
        space = ModeSpace(3, 2)
        elements = copy.deepcopy(decompose(haar_random_unitary(space.dim, 7), space).elements)
        first, expected = weakref.ref(elements[0]), copy.deepcopy(elements)
        circuit = Circuit(space, elements)
        del elements
        gc.collect()
        assert first() is None and circuit.elements == expected

    @pytest.mark.parametrize("maker", list(MAKERS))
    @pytest.mark.parametrize("read", [False, True], ids=["unread", "read"])
    def test_a_write_into_a_passed_array_changes_nothing(self, maker, read):
        source = TestCompiledAndReadCircuits.fresh(maker)
        elements, kept = copy.deepcopy(source.elements), copy.deepcopy(source.elements)  # writable arrays
        circuit = Circuit(source.space, elements)
        if read:
            circuit.elements
        for _, array in value_arrays(elements):
            array[...] = 7
        assert circuit.elements == kept and circuit == source
        assert [outcome(function, circuit) for function in OUTPUTS] == [outcome(function, source) for function in OUTPUTS]


def value_arrays(elements):
    """Each element's value array with its field name, in document order; a beamsplitter has none."""
    return [(name, getattr(e, name)) for e in elements for name in ("matrix", "phases", "thetas") if hasattr(e, name)]


def refuse_writes(circuit):
    """Check that every value array of ``circuit``'s elements refuses a write; the field names met."""
    arrays = value_arrays(circuit.elements)
    for _, array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 7
    return {name for name, _ in arrays}
