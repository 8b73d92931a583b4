import json
import sys

import numpy as np
import pytest

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
    serialize,
    unitarity_defect,
)


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
