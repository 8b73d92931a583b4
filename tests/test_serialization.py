import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modemix import (
    Beamsplitter,
    Circuit,
    CircuitFormatError,
    CSBlock,
    DimensionError,
    InternalOp,
    ModeSpace,
    PhaseBlock,
    UnitarityError,
    UnsupportedVersionError,
    decompose,
    decompose_stage1,
    deserialize,
    haar_random_unitary,
    reconstruct,
    serialize,
    save_matrix,
    unitarity_defect,
)
from modemix.cli import main


def assert_elements_equal(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert type(a) is type(b)
        if isinstance(a, InternalOp):
            assert a.mode == b.mode
            assert np.array_equal(np.asarray(a.matrix, complex), np.asarray(b.matrix, complex))
        elif isinstance(a, Beamsplitter):
            assert a.pair == b.pair and a.conjugate == b.conjugate
        elif isinstance(a, PhaseBlock):
            assert a.mode == b.mode
            assert np.array_equal(np.asarray(a.phases, float), np.asarray(b.phases, float))
        elif isinstance(a, CSBlock):
            assert a.pair == b.pair
            assert np.array_equal(np.asarray(a.thetas, float), np.asarray(b.thetas, float))


def assert_bit_identical(left, right):
    """Same element types, indices and flags, and every float equal bit for bit."""
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert type(a) is type(b)
        assert getattr(a, "mode", None) == getattr(b, "mode", None)
        assert getattr(a, "pair", None) == getattr(b, "pair", None)
        assert getattr(a, "conjugate", None) == getattr(b, "conjugate", None)
        for field in ("matrix", "phases", "thetas"):
            if hasattr(a, field):
                x, y = np.ascontiguousarray(getattr(a, field)), getattr(b, field)
                assert y.dtype == x.dtype and y.shape == x.shape
                assert np.array_equal(x.view(np.uint64), y.view(np.uint64))


# Floats whose text form is easy to get wrong: signed zeros, subnormals, the
# edges of the normal range and values with no short decimal form.
EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.5e-320, 2.2250738585072014e-308, 2.2e-308,
    1e308, -1e308, 1.7976931348623157e308, 0.1, -1 / 3, np.pi, 1.0, -1.0,
]


@st.composite
def random_circuits(draw):
    """Circuits of all four element kinds in random order, with edge-float parameters."""
    n_s, n_p = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    space = ModeSpace(n_s, n_p)
    modes = st.integers(1, n_s)
    floats = st.lists(st.sampled_from(EDGE_FLOATS), min_size=n_p, max_size=n_p).map(np.array)
    kinds = [
        st.builds(InternalOp, modes, st.integers(0, 2**31).map(lambda s: haar_random_unitary(n_p, s))),
        st.builds(PhaseBlock, modes, floats),
    ]
    if n_s > 1:
        pairs = st.integers(1, n_s - 1).map(lambda k: (k, k + 1))
        kinds += [st.builds(Beamsplitter, pairs, st.booleans()), st.builds(CSBlock, pairs, floats)]
    return Circuit(space, draw(st.lists(st.one_of(kinds), max_size=12)))


class TestSerialize:
    def test_empty_circuit_header_only(self):
        doc = json.loads(serialize(Circuit(ModeSpace(2, 2))))
        assert doc == {"format_version": "1", "n_s": 2, "n_p": 2, "elements": []}

    def test_header_line_then_one_element_per_line(self):
        circuit = decompose(haar_random_unitary(6, 4), ModeSpace(3, 2))
        text = serialize(circuit)
        lines = text.splitlines()
        assert lines[0] == '{"format_version": "1", "n_s": 3, "n_p": 2, "elements": ['
        assert len(lines) == 1 + len(circuit.elements)
        assert lines[-1].endswith("]}") and text.endswith("}\n")
        element_lines = lines[1:-1] + [lines[-1][:-2]]
        elements = [json.loads(line.removesuffix(",")) for line in element_lines]
        assert elements == json.loads(text)["elements"]

    def test_beamsplitter_schema(self):
        doc = json.loads(serialize(Circuit(ModeSpace(2, 1), [Beamsplitter((1, 2), True)])))
        assert doc["elements"] == [
            {"kind": "beamsplitter", "spatial_pair": [1, 2], "conjugate": True}
        ]

    def test_internal_schema_uses_re_im_pairs(self):
        circuit = Circuit(ModeSpace(1, 1), [InternalOp(1, np.array([[1j]]))])
        doc = json.loads(serialize(circuit))
        assert doc["elements"][0]["kind"] == "internal"
        assert doc["elements"][0]["spatial_index"] == 1
        assert doc["elements"][0]["matrix"] == [[[0.0, 1.0]]]

    def test_phase_block_schema(self):
        circuit = Circuit(ModeSpace(2, 2), [PhaseBlock(2, np.array([0.25, -0.5]))])
        doc = json.loads(serialize(circuit))
        assert doc["elements"][0] == {
            "kind": "phase_block",
            "spatial_index": 2,
            "phases": [0.25, -0.5],
        }

    def test_rejects_unknown_element(self):
        with pytest.raises(TypeError):
            serialize(Circuit(ModeSpace(2, 1), ["mirror"]))


class TestRoundTrip:
    def test_decompose_output_is_bit_identical(self):
        space = ModeSpace(3, 2)
        circuit = decompose(haar_random_unitary(6, 7), space)
        restored = deserialize(serialize(circuit))
        assert restored.space == space
        assert_elements_equal(circuit.elements, restored.elements)

    def test_stage1_output_round_trips(self):
        space = ModeSpace(3, 2)
        circuit = decompose_stage1(haar_random_unitary(6, 8), space)
        restored = deserialize(serialize(circuit))
        assert_elements_equal(circuit.elements, restored.elements)

    def test_edge_floats_round_trip_bit_for_bit(self):
        edge = np.array([-0.0, 5e-324, 2.2e-308, 1e308, -1e308])
        tiny = 2.5e-320
        matrix = np.array(
            [[complex(1.0, -0.0), complex(tiny, -0.0)], [complex(-tiny, 5e-324), complex(-0.0, 1.0)]]
        )
        circuit = Circuit(
            ModeSpace(2, 5),
            [PhaseBlock(1, edge), CSBlock((1, 2), -edge[::-1]), PhaseBlock(2, edge[::-1])],
        )
        internal = Circuit(ModeSpace(2, 2), [InternalOp(2, matrix), InternalOp(1, matrix.T)])
        for original in (circuit, internal):
            restored = deserialize(serialize(original))
            for a, b in zip(original.elements, restored.elements):
                for field in ("phases", "thetas", "matrix"):
                    if hasattr(a, field):
                        x, y = np.ascontiguousarray(getattr(a, field)), getattr(b, field)
                        assert y.dtype == x.dtype and y.shape == x.shape
                        assert np.array_equal(x.view(np.uint64), y.view(np.uint64))

    def test_double_round_trip_is_stable(self):
        space = ModeSpace(2, 3)
        circuit = decompose(haar_random_unitary(6, 9), space)
        once = serialize(circuit)
        twice = serialize(deserialize(once))
        assert once == twice


class TestRandomCircuitClosure:
    @given(circuit=random_circuits())
    @settings(max_examples=100, deadline=None)
    def test_round_trip_is_bit_exact(self, circuit):
        restored = deserialize(serialize(circuit))
        assert restored.space == circuit.space
        assert_bit_identical(circuit.elements, restored.elements)


class TestDeserializeValidation:
    def valid_doc(self):
        return {
            "format_version": "1",
            "n_s": 2,
            "n_p": 1,
            "elements": [{"kind": "beamsplitter", "spatial_pair": [1, 2], "conjugate": False}],
        }

    def test_rejects_invalid_json(self):
        with pytest.raises(CircuitFormatError):
            deserialize("{not json")

    def test_rejects_non_object(self):
        with pytest.raises(CircuitFormatError):
            deserialize("[1, 2]")

    def test_rejects_unknown_version(self):
        doc = self.valid_doc()
        doc["format_version"] = "2"
        with pytest.raises(UnsupportedVersionError):
            deserialize(json.dumps(doc))

    def test_rejects_missing_version(self):
        doc = self.valid_doc()
        del doc["format_version"]
        with pytest.raises(UnsupportedVersionError):
            deserialize(json.dumps(doc))

    def test_rejects_bad_mode_counts(self):
        for value in (0, True):
            doc = self.valid_doc()
            doc["n_s"] = value
            with pytest.raises(CircuitFormatError):
                deserialize(json.dumps(doc))

    def test_rejects_unknown_kind(self):
        doc = self.valid_doc()
        doc["elements"] = [{"kind": "mirror"}]
        with pytest.raises(CircuitFormatError):
            deserialize(json.dumps(doc))

    def test_rejects_zero_spatial_index(self):
        doc = self.valid_doc()
        doc["n_p"] = 2
        doc["elements"] = [{"kind": "internal", "spatial_index": 0, "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}]
        with pytest.raises(DimensionError):
            deserialize(json.dumps(doc))

    def test_rejects_out_of_range_pair(self):
        doc = self.valid_doc()
        doc["elements"] = [{"kind": "beamsplitter", "spatial_pair": [2, 3], "conjugate": False}]
        with pytest.raises(DimensionError):
            deserialize(json.dumps(doc))

    def test_rejects_non_adjacent_pair(self):
        doc = self.valid_doc()
        doc["n_s"] = 3
        doc["elements"] = [{"kind": "beamsplitter", "spatial_pair": [1, 3], "conjugate": False}]
        with pytest.raises(DimensionError):
            deserialize(json.dumps(doc))

    def test_rejects_non_unitary_internal_matrix(self):
        doc = self.valid_doc()
        doc["n_p"] = 2
        doc["elements"] = [
            {
                "kind": "internal",
                "spatial_index": 1,
                "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]],
            }
        ]
        with pytest.raises(UnitarityError):
            deserialize(json.dumps(doc))

    def test_one_unitarity_check_per_document(self, monkeypatch):
        circuit = decompose(haar_random_unitary(16, 2), ModeSpace(16, 1))
        assert sum(isinstance(e, InternalOp) for e in circuit.elements) == 256
        text = serialize(circuit)
        linalg = sys.modules["modemix.linalg"]
        calls = []
        counted = linalg.unitarity_defect
        monkeypatch.setattr(linalg, "unitarity_defect", lambda m: calls.append(1) or counted(m))
        deserialize(text)
        assert len(calls) == 1

    def test_one_bad_internal_op_among_good_ones(self):
        doc = json.loads(serialize(decompose(haar_random_unitary(6, 3), ModeSpace(3, 2))))
        internal = [e for e in doc["elements"] if e["kind"] == "internal"]
        bad = internal[len(internal) // 2]
        bad["matrix"][0][1][0] += 1e-6
        matrix = np.array(bad["matrix"]).view(complex)[..., 0]
        with pytest.raises(UnitarityError) as caught:
            deserialize(json.dumps(doc))
        assert caught.value.deviation == pytest.approx(unitarity_defect(matrix), rel=1e-12)
        assert caught.value.deviation > 1e-7

    def test_rejects_wrong_matrix_shape(self):
        doc = self.valid_doc()
        doc["n_p"] = 2
        for matrix in (
            [[[1.0, 0.0]]],
            [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]],
            [[[[1.0, 0.0]], [[0.0, 0.0]]], [[[0.0, 0.0]], [[1.0, 0.0]]]],
            [[1.0, 0.0], [0.0, 1.0]],
        ):
            doc["elements"] = [{"kind": "internal", "spatial_index": 1, "matrix": matrix}]
            with pytest.raises(CircuitFormatError):
                deserialize(json.dumps(doc))

    def test_rejects_wrong_phase_count(self):
        doc = self.valid_doc()
        for element in (
            {"kind": "phase_block", "spatial_index": 1, "phases": [0.1, 0.2]},
            {"kind": "phase_block", "spatial_index": 1, "phases": 0.1},
            {"kind": "phase_block", "spatial_index": 1, "phases": {"0": 0.1}},
            {"kind": "phase_block", "spatial_index": 1},
            {"kind": "cs_block", "spatial_pair": [1, 2], "thetas": [[0.1]]},
        ):
            doc["elements"] = [element]
            with pytest.raises(CircuitFormatError):
                deserialize(json.dumps(doc))

    def test_rejects_nonfinite_phases(self):
        doc = self.valid_doc()
        doc["elements"] = [{"kind": "phase_block", "spatial_index": 1, "phases": [float("nan")]}]
        with pytest.raises(CircuitFormatError):
            deserialize(json.dumps(doc))
        # The writer refuses what the reader would refuse, rather than write a NaN token.
        with pytest.raises(ValueError, match="not JSON compliant"):
            serialize(Circuit(ModeSpace(2, 1), [PhaseBlock(1, np.array([float("nan")]))]))

    @pytest.mark.parametrize(
        "element",
        [
            {"kind": "beamsplitter", "spatial_pair": [True, 2], "conjugate": False},
            {"kind": "cs_block", "spatial_pair": [1, True], "thetas": [0.5]},
            {"kind": "phase_block", "spatial_index": True, "phases": [0.5]},
            {"kind": "phase_block", "spatial_index": 1, "phases": ["0.5"]},
            {"kind": "phase_block", "spatial_index": 1, "phases": [True]},
            {"kind": "cs_block", "spatial_pair": [1, 2], "thetas": ["0.5"]},
            {"kind": "cs_block", "spatial_pair": [1, 2], "thetas": [False]},
            {"kind": "internal", "spatial_index": 1, "matrix": [[["1", 0]]]},
            {"kind": "internal", "spatial_index": 1, "matrix": [[[True, 0]]]},
            {"kind": "internal", "spatial_index": 1, "matrix": [[[1, "0"]]]},
            {"kind": "phase_block", "spatial_index": 1, "phases": [10**400]},
            {"kind": "internal", "spatial_index": 1, "matrix": [[[10**400, 0]]]},
        ],
    )
    def test_rejects_strings_and_booleans_as_numbers(self, element):
        doc = self.valid_doc()
        doc["elements"] = [element]
        with pytest.raises(CircuitFormatError):
            deserialize(json.dumps(doc))

    @pytest.mark.parametrize("kind", [["internal"], {}, {"kind": "internal"}])
    def test_rejects_unhashable_kind(self, kind):
        doc = self.valid_doc()
        doc["elements"].append({"kind": kind, "spatial_index": 1, "matrix": [[[1.0, 0.0]]]})
        with pytest.raises(CircuitFormatError):
            deserialize(json.dumps(doc))

    def test_reads_documents_with_one_kind_missing(self):
        space = ModeSpace(3, 2)
        circuit = decompose(haar_random_unitary(6, 11), space)
        no_internal = [e for e in circuit.elements if not isinstance(e, InternalOp)]
        only_internal = [e for e in circuit.elements if isinstance(e, InternalOp)]
        for elements in (no_internal, only_internal):
            restored = deserialize(serialize(Circuit(space, elements)))
            assert_bit_identical(elements, restored.elements)


# One fault each, placed in the last element of a valid 3x2 document: the
# exception class of deserialize and the exit code of verify.
SINGLE_FAULTS = [
    ({"kind": "phase_block", "spatial_index": True, "phases": [0.0, 0.0]}, CircuitFormatError, 2),
    ({"kind": "phase_block", "spatial_index": 4, "phases": [0.0, 0.0]}, DimensionError, 4),
    ({"kind": "internal", "spatial_index": 0, "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}, DimensionError, 4),
    ({"kind": "beamsplitter", "spatial_pair": [1, 3], "conjugate": False}, DimensionError, 4),
    ({"kind": "cs_block", "spatial_pair": [3, 4], "thetas": [0.0, 0.0]}, DimensionError, 4),
    ({"kind": "beamsplitter", "spatial_pair": [1, 2], "conjugate": 1}, CircuitFormatError, 2),
    ({"kind": "phase_block", "spatial_index": 1, "phases": [0.0, 0.0, 0.0]}, CircuitFormatError, 2),
    ({"kind": "cs_block", "spatial_pair": [1, 2], "thetas": [0.5, float("nan")]}, CircuitFormatError, 2),
    ({"kind": "internal", "spatial_index": 2, "matrix": [[[1, 0], [0, 0]], [[0, 0], [2, 0]]]}, UnitarityError, 3),
]


class TestSingleFaultInLastElement:
    @pytest.fixture
    def files(self, tmp_path):
        u = haar_random_unitary(6, 5)
        doc = json.loads(serialize(decompose(u, ModeSpace(3, 2))))
        matrix_path = tmp_path / "u.mat"
        save_matrix(matrix_path, u)
        return doc, matrix_path, tmp_path / "circuit.json"

    def test_valid_document_verifies(self, files):
        doc, matrix_path, circuit_path = files
        circuit_path.write_text(json.dumps(doc))
        assert main(["verify", str(circuit_path), str(matrix_path)]) == 0

    @pytest.mark.parametrize("fault,error,exit_code", SINGLE_FAULTS)
    def test_fault_keeps_class_and_exit_code(self, files, fault, error, exit_code):
        doc, matrix_path, circuit_path = files
        doc["elements"].append(fault)
        text = json.dumps(doc)
        with pytest.raises(error) as caught:
            deserialize(text)
        assert type(caught.value) is error
        circuit_path.write_text(text)
        assert main(["verify", str(circuit_path), str(matrix_path)]) == exit_code


class TestSeveralOffenders:
    def test_reader_names_the_first_offender_as_the_walker_does(self):
        space = ModeSpace(3, 2)
        doc = json.loads(serialize(decompose(haar_random_unitary(6, 5), space)))
        elements = doc["elements"]
        phase_blocks = [e for e in elements if e["kind"] == "phase_block"]
        beamsplitters = [e for e in elements if e["kind"] == "beamsplitter"]
        # Beamsplitters come before phase blocks in the document, so their kind
        # is read first. Neither first offender is the extreme of its kind.
        assert elements.index(beamsplitters[0]) < elements.index(phase_blocks[0])
        for element, k in zip(phase_blocks[1::2], (4, 0, 7)):
            element["spatial_index"] = k
        good_pairs = [e["spatial_pair"] for e in beamsplitters]
        for element, pair in zip(beamsplitters[2:], ([2, 4], [3, 4], [0, 1])):
            element["spatial_pair"] = pair

        def reader_message(error):
            with pytest.raises(error) as caught:
                deserialize(json.dumps(doc))
            return str(caught.value)

        def walker_message(element):
            with pytest.raises(DimensionError) as caught:
                reconstruct(Circuit(space, [element]))
            return str(caught.value)

        assert reader_message(DimensionError) == walker_message(Beamsplitter((2, 4)))
        assert reader_message(DimensionError) == "spatial pair (2, 4) is not adjacent; only (k, k+1) is allowed"
        for element, pair in zip(beamsplitters, good_pairs):
            element["spatial_pair"] = pair
        assert reader_message(DimensionError) == walker_message(PhaseBlock(4, np.zeros(2)))
        assert reader_message(DimensionError) == "spatial index 4 out of range 1..3"
        # Within a kind a type fault is reported before any range fault.
        phase_blocks[-1]["spatial_index"] = True
        assert reader_message(CircuitFormatError) == "spatial_index must be an integer"
