import dataclasses
import gc
import re
import json
import operator
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
                assert np.array_equal(x.view(np.uint64), np.ascontiguousarray(y).view(np.uint64))


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

    @pytest.mark.parametrize(
        "space,element,error",
        [
            (ModeSpace(2, 1), PhaseBlock(5, np.zeros(1)), DimensionError),
            (ModeSpace(3, 1), Beamsplitter((1, 3)), DimensionError),
            (ModeSpace(2, 2), InternalOp(1, 2 * np.eye(2)), UnitarityError),
            (ModeSpace(2, 1), PhaseBlock(1, np.zeros(2)), DimensionError),
            (ModeSpace(2, 2), CSBlock((1, 2), np.zeros(1)), DimensionError),
            (ModeSpace(2, 2), InternalOp(2, np.eye(3)), DimensionError),
            # int() would write index 1, a different circuit.
            (ModeSpace(2, 1), PhaseBlock(1.7, np.zeros(1)), TypeError),
            # Pairs that do not unpack into two values.
            (ModeSpace(3, 1), Beamsplitter((1, 2, 3)), DimensionError),
            (ModeSpace(3, 1), Beamsplitter((1,)), DimensionError),
            (ModeSpace(3, 1), Beamsplitter(1), DimensionError),
        ],
    )
    def test_refuses_what_the_reader_refuses(self, space, element, error):
        with pytest.raises(error):
            serialize(Circuit(space, [element]))


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

    def test_numpy_integer_mode_counts_round_trip(self):
        circuit = Circuit(ModeSpace(np.int64(2), np.int64(1)), [Beamsplitter((1, 2))])
        assert deserialize(serialize(circuit)).space == ModeSpace(2, 1)

    def test_mode_count_beyond_any_list_round_trips(self):
        # The walk keeps per-mode state only for the modes its elements touch.
        circuit = Circuit(ModeSpace(10**400, 1), [Beamsplitter((1, 2)), PhaseBlock(10**400, np.zeros(1))])
        text = serialize(circuit)
        assert text == oracle_serialize(circuit)
        assert serialize(deserialize(text)) == text

    def test_double_round_trip_is_stable(self):
        space = ModeSpace(2, 3)
        circuit = decompose(haar_random_unitary(6, 9), space)
        once = serialize(circuit)
        twice = serialize(deserialize(once))
        assert once == twice


def hand_written_document(space, elements):
    """The JSON document of ``elements`` on ``space``, written field by field without ``serialize``."""
    def obj(e):
        if isinstance(e, InternalOp):
            matrix = [[[z.real, z.imag] for z in row] for row in np.asarray(e.matrix).tolist()]
            return {"kind": "internal", "spatial_index": e.mode, "matrix": matrix}
        if isinstance(e, Beamsplitter):
            return {"kind": "beamsplitter", "spatial_pair": list(e.pair), "conjugate": e.conjugate}
        if isinstance(e, PhaseBlock):
            return {"kind": "phase_block", "spatial_index": e.mode, "phases": list(e.phases)}
        return {"kind": "cs_block", "spatial_pair": list(e.pair), "thetas": list(e.thetas)}

    objs = [obj(e) for e in elements]
    return json.dumps({"format_version": "1", "n_s": space.n_s, "n_p": space.n_p, "elements": objs})


def spoils(element, space):
    """(field, value) pairs that each make one field of ``element`` invalid.

    For a pair, an index spoil moves its first mode.
    """
    n_s, n_p = space.n_s, space.n_p
    if isinstance(element, (InternalOp, PhaseBlock)):
        out = [("mode", 0), ("mode", n_s + 1), ("mode", 1.5)]
    else:
        k = element.pair[0]
        out = [("pair", (0, 1)), ("pair", (n_s, n_s + 1)), ("pair", (1.5, 2.5)), ("pair", (k, k + 2))]
    if isinstance(element, InternalOp):
        out.append(("matrix", 2 * np.eye(n_p)))
    if isinstance(element, PhaseBlock):
        out.append(("phases", np.zeros(n_p + 1)))
    if isinstance(element, CSBlock):
        out.append(("thetas", np.zeros(n_p + 1)))
    return out


def refuses(function, argument):
    try:
        function(argument)
    except (TypeError, ValueError):
        return True
    return False


class TestRandomCircuitClosure:
    @given(circuit=random_circuits())
    @settings(max_examples=100, deadline=None)
    def test_round_trip_is_bit_exact(self, circuit):
        restored = deserialize(serialize(circuit))
        assert restored.space == circuit.space
        assert_bit_identical(circuit.elements, restored.elements)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_writer_refuses_what_the_reader_refuses(self, data):
        circuit = data.draw(random_circuits().filter(lambda c: c.elements))
        i = data.draw(st.integers(0, len(circuit.elements) - 1))
        field, value = data.draw(st.sampled_from(spoils(circuit.elements[i], circuit.space)))
        elements = list(circuit.elements)
        elements[i] = dataclasses.replace(elements[i], **{field: value})
        assert refuses(deserialize, hand_written_document(circuit.space, elements))  # each spoil is a fault
        assert refuses(lambda spoiled: serialize(Circuit(circuit.space, spoiled)), elements)


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
        # Circuit(...) refuses it at the value gate, so no circuit holds a NaN for the writer to write.
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


class TestFaultDeepInLargeDocument:
    """One fault planted deep in a compiled 64x1 document keeps its class and exact message."""

    SPACE = ModeSpace(64, 1)

    @pytest.fixture(scope="class")
    def text(self):
        text = serialize(decompose(haar_random_unitary(64, 4), self.SPACE))
        assert len(json.loads(text)["elements"]) == 12160
        return text

    @staticmethod
    def spoiled(text, kind, spoil):
        """The document with ``spoil`` applied to the element of ``kind`` nearest three quarters through it."""
        doc = json.loads(text)
        elements = doc["elements"]
        at = next(i for i in range(3 * len(elements) // 4, len(elements)) if elements[i]["kind"] == kind)
        assert elements.index(next(e for e in elements if e["kind"] == kind)) < at  # not the first of its kind
        spoil(elements[at])
        return json.dumps(doc)

    @staticmethod
    def message(error, text):
        with pytest.raises(error) as caught:
            deserialize(text)
        assert type(caught.value) is error
        return str(caught.value)

    def walker_message(self, element):
        with pytest.raises(DimensionError) as caught:
            Circuit(self.SPACE, [element])
        return str(caught.value)

    def test_out_of_range_index(self, text):
        spoiled = self.spoiled(text, "phase_block", lambda e: e.update(spatial_index=65))
        assert self.message(DimensionError, spoiled) == self.walker_message(PhaseBlock(65, np.zeros(1)))
        assert self.message(DimensionError, spoiled) == "spatial index 65 out of range 1..64"

    def test_non_adjacent_pair(self, text):
        spoiled = self.spoiled(text, "beamsplitter", lambda e: e.update(spatial_pair=[30, 32]))
        assert self.message(DimensionError, spoiled) == self.walker_message(Beamsplitter((30, 32)))
        assert self.message(DimensionError, spoiled) == "spatial pair (30, 32) is not adjacent; only (k, k+1) is allowed"

    def test_true_inside_a_pair(self, text):
        spoiled = self.spoiled(text, "beamsplitter", lambda e: e["spatial_pair"].__setitem__(0, True))
        assert self.message(CircuitFormatError, spoiled) == "spatial_pair must be a two-element integer array"

    def test_text_leaf_in_a_matrix(self, text):
        spoiled = self.spoiled(text, "internal", lambda e: e["matrix"][0][0].__setitem__(1, "0.5"))
        assert self.message(CircuitFormatError, spoiled) == "matrix contains non-numeric values"

    def test_leaf_nested_one_level_too_deep(self, text):
        spoiled = self.spoiled(text, "internal", lambda e: e["matrix"][0][0].__setitem__(0, [e["matrix"][0][0][0]]))
        assert self.message(CircuitFormatError, spoiled) == "matrix must be a nested array of shape [1, 1, 2]"

    def test_ragged_row(self, text):
        spoiled = self.spoiled(text, "internal", lambda e: e["matrix"][0].append([0.0, 0.0]))
        assert self.message(CircuitFormatError, spoiled) == "matrix must be a nested array of shape [1, 1, 2]"

    def test_leaf_too_large_for_a_float(self, text):
        spoiled = self.spoiled(text, "phase_block", lambda e: e["phases"].__setitem__(0, 10**400))
        assert self.message(CircuitFormatError, spoiled) == "phases contains non-finite values"


class TestCollector:
    """``deserialize`` reads with the cyclic collector off and leaves the caller's setting as it found it."""

    @pytest.fixture(scope="class")
    def text(self):
        return serialize(decompose(haar_random_unitary(6, 5), ModeSpace(3, 2)))

    def test_json_read_runs_with_the_collector_off(self, monkeypatch, caller, text):
        seen, loads = [], json.loads
        monkeypatch.setattr(json, "loads", lambda text: seen.append(gc.isenabled()) or loads(text))
        deserialize(text)
        assert seen == [False] and gc.isenabled() is caller

    def test_state_is_restored_after_a_read(self, caller, text):
        assert serialize(deserialize(text)) == text
        assert gc.isenabled() is caller

    @pytest.mark.parametrize(
        "document,error",
        [
            ("{not json", CircuitFormatError),
            ('{"format_version": "2"}', UnsupportedVersionError),
            ('{"format_version": "1", "n_s": 2, "n_p": 1, "elements": [{"kind": "beamsplitter", "spatial_pair": [2, 3]}]}', DimensionError),
            ('{"format_version": "1", "n_s": 1, "n_p": 1, "elements": [{"kind": "internal", "spatial_index": 1, "matrix": [[[2.0, 0.0]]]}]}', UnitarityError),
        ],
        ids=["format", "version", "dimension", "unitarity"],
    )
    def test_state_is_restored_after_a_reader_error(self, caller, document, error):
        with pytest.raises(error):
            deserialize(document)
        assert gc.isenabled() is caller


# The writer as it was before per-kind line templates, kept as the byte oracle:
# one JSON object and one encode call per element.
_ORACLE_ENCODER = json.JSONEncoder(allow_nan=False, check_circular=False)


def oracle_element(element):
    if isinstance(element, InternalOp):
        array = np.ascontiguousarray(element.matrix, dtype=complex)
        matrix = array.view(float).reshape(*array.shape, 2).tolist()
        return {"kind": "internal", "spatial_index": operator.index(element.mode), "matrix": matrix}
    if isinstance(element, PhaseBlock):
        phases = np.asarray(element.phases, dtype=float).tolist()
        return {"kind": "phase_block", "spatial_index": operator.index(element.mode), "phases": phases}
    pair = list(map(operator.index, element.pair))
    if isinstance(element, Beamsplitter):
        return {"kind": "beamsplitter", "spatial_pair": pair, "conjugate": bool(element.conjugate)}
    thetas = np.asarray(element.thetas, dtype=float).tolist()
    return {"kind": "cs_block", "spatial_pair": pair, "thetas": thetas}


def oracle_serialize(circuit):
    space = circuit.space
    header = _ORACLE_ENCODER.encode({"format_version": "1", "n_s": space.n_s, "n_p": space.n_p})
    elements = ",\n".join([_ORACLE_ENCODER.encode(oracle_element(e)) for e in circuit.elements])
    return f'{header[:-1]}, "elements": [\n{elements}]}}\n'


class TestByteOracle:
    """serialize writes, byte for byte, what one encode call per element object writes."""

    @given(circuit=random_circuits())
    @settings(max_examples=100, deadline=None)
    def test_random_circuits(self, circuit):
        assert serialize(circuit) == oracle_serialize(circuit)

    @pytest.mark.parametrize("n_s,n_p", [(1, 4), (2, 1), (3, 2), (5, 3), (16, 1), (8, 16), (2, 128)])
    @pytest.mark.parametrize("compile_", [decompose, decompose_stage1])
    def test_compiled_circuits(self, n_s, n_p, compile_):
        space = ModeSpace(n_s, n_p)
        circuit = compile_(haar_random_unitary(space.dim, n_s + n_p), space)
        assert serialize(circuit) == oracle_serialize(circuit)

    def test_edge_floats_and_both_flags(self):
        edge = np.array([-0.0, 5e-324, 2.5e-320, 1e308, -1e308])
        matrix = np.diag([complex(-0.0, 1.0), complex(1.0, -0.0), -1.0, 1j, complex(1, 5e-324) / abs(1 + 0j)])
        circuit = Circuit(
            ModeSpace(3, 5),
            [
                PhaseBlock(1, edge),
                Beamsplitter((1, 2), True),
                CSBlock((2, 3), -edge[::-1]),
                InternalOp(3, matrix),
                Beamsplitter((2, 3), False),
                PhaseBlock(np.int64(2), list(edge[::-1])),
            ],
        )
        assert serialize(circuit) == oracle_serialize(circuit)

    def test_indices_past_float_precision(self):
        # 2**60 + 1 has no float64 of its own: an index written through a float reads as 2**60.
        top = 2**60 + 1
        circuit = Circuit(
            ModeSpace(top, 1),
            [
                PhaseBlock(top, [0.5]),
                InternalOp(top, np.array([[1j]])),
                Beamsplitter((top - 1, top), True),
                CSBlock((top - 1, top), [-0.25]),
            ],
        )
        text = serialize(circuit)
        assert text == oracle_serialize(circuit)
        assert deserialize(text) == circuit


class TestWriterFaultOrder:
    """Circuit(...) reports an index before a value, as the reader does: its walk, then the value gate, before any writer."""

    def circuit(self):
        return decompose(haar_random_unitary(6, 5), ModeSpace(3, 2))

    def test_a_later_index_fault_comes_before_an_earlier_value_fault(self):
        circuit = self.circuit()
        nan = PhaseBlock(1, np.array([0.0, np.nan]))
        late = Beamsplitter((3, 4))
        with pytest.raises(DimensionError) as caught:
            Circuit(circuit.space, [late])
        with pytest.raises(DimensionError, match=f"^{re.escape(str(caught.value))}$"):
            serialize(Circuit(circuit.space, [nan, *circuit.elements, late]))

    def test_value_faults_alone(self):
        circuit = self.circuit()
        nan = PhaseBlock(1, np.array([0.0, np.nan]))
        with pytest.raises(ValueError, match="not JSON compliant") as caught:
            serialize(Circuit(circuit.space, [*circuit.elements, nan]))
        assert type(caught.value) is ValueError
        infinite = InternalOp(2, np.array([[np.inf, 0], [0, 1]]))
        with pytest.raises(ValueError, match="not JSON compliant"):
            serialize(Circuit(circuit.space, [infinite, *circuit.elements]))
        skewed = InternalOp(2, np.array([[1, 0], [0, 1.5]]))
        with pytest.raises(UnitarityError):
            serialize(Circuit(circuit.space, [*circuit.elements, skewed]))
        # As in the reader, a value that is not finite comes before one that is not unitary.
        with pytest.raises(ValueError, match="not JSON compliant"):
            serialize(Circuit(circuit.space, [skewed, *circuit.elements, nan]))

    def test_one_unitarity_check_per_circuit(self, monkeypatch):
        # The check runs once, when the circuit is built; the writer only formats.
        circuit = decompose(haar_random_unitary(16, 2), ModeSpace(16, 1))
        elements = circuit.elements
        linalg = sys.modules["modemix.linalg"]
        calls = []
        counted = linalg.unitarity_defect
        monkeypatch.setattr(linalg, "unitarity_defect", lambda m: calls.append(1) or counted(m))
        serialize(circuit)
        assert len(calls) == 0
        Circuit(circuit.space, elements)
        assert len(calls) == 1

    def test_of_two_index_offenders_the_first_is_named(self):
        circuit = self.circuit()
        elements = list(circuit.elements)
        elements[7] = dataclasses.replace(elements[7], **self.spoil(elements[7], 0))
        elements[3] = dataclasses.replace(elements[3], **self.spoil(elements[3], 9))
        with pytest.raises(DimensionError) as caught:
            reconstruct(Circuit(circuit.space, [elements[3]]))
        with pytest.raises(DimensionError, match=f"^{re.escape(str(caught.value))}$"):
            serialize(Circuit(circuit.space, elements))

    @staticmethod
    def spoil(element, k):
        return {"pair": (k, k + 1)} if hasattr(element, "pair") else {"mode": k}


# The reader's four error classes; anything else escaping deserialize is a bug.
READER_ERRORS = (CircuitFormatError, UnsupportedVersionError, DimensionError, UnitarityError)
# Values that each break some field of a circuit document, or of its header.
SPOIL_VALUES = [
    None, True, False, 0, -1, 1, 2, 4, 1.5, 10**400, -(10**400), "1", "", [], [1], [1, 2], [1, 2, 3],
    [[1, 0]], [0.5, "x"], [[[1, 0]]], {}, {"kind": "internal"}, "internal", "cs_block", "beamsplitter",
]


def spoiled_documents(text, rng, count):
    """``count`` one-fault variants of a circuit document, drawn from ``rng``."""
    keys = ("kind", "spatial_index", "spatial_pair", "matrix", "phases", "thetas", "conjugate")
    for _ in range(count):
        spoiled, where = json.loads(text), rng.integers(8)
        spoil = SPOIL_VALUES[rng.integers(len(SPOIL_VALUES))]
        if where == 0:  # the header
            spoiled[str(rng.choice(["format_version", "n_s", "n_p", "elements"]))] = spoil
        elif where == 1:  # the text itself
            cut = int(rng.integers(len(text)))
            yield text[:cut] + str(rng.choice(["", "]", "}", ",", "x", "NaN", "1e999"])) + text[cut + 1 :]
            continue
        else:
            element = spoiled["elements"][rng.integers(len(spoiled["elements"]))]
            key = str(rng.choice(keys))
            if where == 2:
                element.pop(key, None)
            elif where == 3 and isinstance(element.get(key), list):
                nested = element[key]  # one leaf deep inside an array
                while isinstance(nested[0], list):
                    nested = nested[rng.integers(len(nested))]
                nested[rng.integers(len(nested))] = spoil
            else:
                element[key] = spoil
        yield json.dumps(spoiled)


class TestSpoiledDocumentFuzz:
    """Seeded one-fault documents: a reader error or a file that round-trips."""

    def test_reader_errors_only_and_stable_round_trips(self):
        outcomes = set()
        for seed, (n_s, n_p) in enumerate([(3, 2), (4, 1)]):
            space = ModeSpace(n_s, n_p)
            text = serialize(decompose(haar_random_unitary(space.dim, seed), space))
            for spoiled in spoiled_documents(text, np.random.default_rng(seed), 400):
                try:
                    circuit = deserialize(spoiled)
                except READER_ERRORS as exc:
                    outcomes.add(type(exc))
                    continue
                written = serialize(circuit)
                restored = deserialize(written)
                assert_bit_identical(circuit.elements, restored.elements)
                assert serialize(restored) == written
                outcomes.add("read")
        assert outcomes == {*READER_ERRORS, "read"}  # the generator reaches every outcome

    # For each of the first 120 documents drawn for the 3x2 circuit at seed 0:
    # deserialize's exception class, or "read", and the exit code of verify.
    F, V, D, U, R = CircuitFormatError, UnsupportedVersionError, DimensionError, UnitarityError, "read"
    PINNED = [
        (F, 2), (F, 2), (F, 2), (R, 0), (F, 2), (F, 2), (F, 2), (R, 0), (V, 2), (F, 2),
        (F, 2), (F, 2), (R, 0), (R, 0), (R, 0), (R, 0), (F, 2), (R, 0), (R, 0), (R, 0),
        (R, 0), (F, 2), (R, 0), (R, 0), (F, 2), (R, 0), (R, 0), (F, 2), (R, 0), (F, 2),
        (F, 2), (F, 2), (R, 0), (F, 2), (R, 0), (F, 2), (R, 0), (R, 0), (F, 2), (R, 0),
        (R, 0), (R, 0), (F, 2), (R, 0), (F, 2), (F, 2), (F, 2), (F, 2), (F, 2), (R, 0),
        (R, 0), (R, 0), (U, 3), (F, 2), (F, 2), (R, 0), (F, 2), (F, 2), (R, 0), (F, 2),
        (R, 0), (R, 0), (F, 2), (F, 2), (R, 0), (R, 0), (F, 2), (R, 0), (F, 2), (R, 0),
        (R, 0), (F, 2), (F, 2), (R, 0), (R, 0), (F, 2), (R, 0), (V, 2), (F, 2), (F, 2),
        (R, 0), (F, 2), (F, 2), (F, 2), (R, 0), (R, 0), (F, 2), (R, 0), (F, 2), (R, 0),
        (F, 2), (F, 2), (R, 0), (F, 2), (F, 2), (R, 0), (R, 0), (F, 2), (F, 2), (R, 0),
        (R, 1), (R, 0), (D, 4), (F, 2), (R, 0), (F, 2), (R, 0), (F, 2), (R, 0), (R, 0),
        (R, 0), (R, 0), (F, 2), (F, 2), (F, 2), (F, 2), (R, 0), (V, 2), (F, 2), (F, 2),
    ]
    del F, V, D, U, R

    def test_pinned_sample_keeps_class_and_exit_code(self, tmp_path):
        u = haar_random_unitary(6, 0)
        text = serialize(decompose(u, ModeSpace(3, 2)))
        save_matrix(tmp_path / "u.mat", u)
        circuit_path = tmp_path / "circuit.json"
        outcomes = []
        for spoiled in spoiled_documents(text, np.random.default_rng(0), len(self.PINNED)):
            try:
                deserialize(spoiled)
                outcome = "read"
            except READER_ERRORS as exc:
                outcome = type(exc)
            circuit_path.write_text(spoiled)
            outcomes.append((outcome, main(["verify", str(circuit_path), str(tmp_path / "u.mat")])))
        assert outcomes == self.PINNED
