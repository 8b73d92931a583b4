"""Versioned JSON documents for circuits.

Schema (format_version "1"): a top-level object with keys
``format_version``, ``n_s``, ``n_p`` and ``elements``. Each element is
tagged by ``kind``:

    {"kind": "internal", "spatial_index": k, "matrix": [[[re, im], ...], ...]}
    {"kind": "beamsplitter", "spatial_pair": [k, k+1], "conjugate": false}
    {"kind": "phase_block", "spatial_index": k, "phases": [...]}
    {"kind": "cs_block", "spatial_pair": [k, k+1], "thetas": [...]}

The writer puts the header on the first line and each element on a line
of its own. numpy turns every value into a Python float, which JSON writes
with ``repr`` precision, so a serialize/deserialize round trip is
bit-exact. Complex matrix entries are [re, im] pairs, the memory layout of
one complex128.

The reader takes every numeric array through one rule (fixed shape, JSON
numbers only, all finite) and checks the internal matrices of a document
for unitarity in one call, over their stack. Unknown versions are rejected
outright; silent misreads of a circuit are worse than failures.
"""

from __future__ import annotations

import json

import numpy as np

from .circuits import Beamsplitter, Circuit, CSBlock, InternalOp, ModeSpace, PhaseBlock
from .circuits import _check_mode, _check_pair
from .errors import CircuitFormatError, UnsupportedVersionError
from .linalg import UNITARY_TOL, require_unitary

FORMAT_VERSION = "1"


def _element_to_obj(element) -> dict:
    if isinstance(element, InternalOp):
        matrix = np.ascontiguousarray(element.matrix, dtype=complex)
        return {
            "kind": "internal",
            "spatial_index": int(element.mode),
            "matrix": matrix.view(float).reshape(*matrix.shape, 2).tolist(),
        }
    if isinstance(element, Beamsplitter):
        return {
            "kind": "beamsplitter",
            "spatial_pair": [int(element.pair[0]), int(element.pair[1])],
            "conjugate": bool(element.conjugate),
        }
    if isinstance(element, PhaseBlock):
        return {
            "kind": "phase_block",
            "spatial_index": int(element.mode),
            "phases": np.asarray(element.phases, dtype=float).tolist(),
        }
    if isinstance(element, CSBlock):
        return {
            "kind": "cs_block",
            "spatial_pair": [int(element.pair[0]), int(element.pair[1])],
            "thetas": np.asarray(element.thetas, dtype=float).tolist(),
        }
    raise TypeError(f"unknown circuit element type: {type(element).__name__}")


def serialize(circuit: Circuit) -> str:
    """Render a circuit as a JSON document: the header line, then one element per line."""
    header = json.dumps(
        {"format_version": FORMAT_VERSION, "n_s": circuit.space.n_s, "n_p": circuit.space.n_p}
    )
    elements = ",\n".join(json.dumps(_element_to_obj(e)) for e in circuit.elements)
    return f'{header[:-1]}, "elements": [\n{elements}]}}\n'


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CircuitFormatError(message)


# Exact type tests: JSON true and false parse as bool, a subclass of int,
# and are neither indices nor numbers.
_NUMBER_TYPES = {float, int}


def _is_int(value) -> bool:
    return type(value) is int


def _as_index(value, space: ModeSpace) -> int:
    _require(_is_int(value), "spatial_index must be an integer")
    _check_mode(value, space)
    return value


def _as_pair(value, space: ModeSpace) -> tuple[int, int]:
    _require(
        isinstance(value, list) and len(value) == 2 and all(_is_int(v) for v in value),
        "spatial_pair must be a two-element integer array",
    )
    pair = (value[0], value[1])
    _check_pair(pair, space)
    return pair


def _numbers(value, shape: tuple[int, ...], what: str) -> np.ndarray:
    """Float array of nested JSON numbers of exactly ``shape``.

    A ragged array or one of the wrong depth has another object-array shape;
    an integer too large for a float counts as non-finite.
    """
    items = np.array(value, dtype=object)
    _require(items.shape == shape, f"{what} must be a nested array of shape {list(shape)}")
    _require(set(map(type, items.flat)) <= _NUMBER_TYPES, f"{what} contains non-numeric values")
    try:
        out = items.astype(float)
    except OverflowError:
        raise CircuitFormatError(f"{what} contains non-finite values") from None
    _require(np.isfinite(out).all(), f"{what} contains non-finite values")
    return out


def _obj_to_element(obj, space: ModeSpace):
    _require(isinstance(obj, dict), "elements must be objects")
    kind = obj.get("kind")
    n_p = space.n_p
    if kind == "internal":
        mode = _as_index(obj.get("spatial_index"), space)
        # The view keeps every bit of each [re, im] pair, the sign of a zero included.
        matrix = _numbers(obj.get("matrix"), (n_p, n_p, 2), "matrix").view(complex)[..., 0]
        return InternalOp(mode, matrix)
    if kind == "beamsplitter":
        pair = _as_pair(obj.get("spatial_pair"), space)
        conjugate = obj.get("conjugate", False)
        _require(isinstance(conjugate, bool), "conjugate must be a boolean")
        return Beamsplitter(pair, conjugate)
    if kind == "phase_block":
        mode = _as_index(obj.get("spatial_index"), space)
        return PhaseBlock(mode, _numbers(obj.get("phases"), (n_p,), "phases"))
    if kind == "cs_block":
        pair = _as_pair(obj.get("spatial_pair"), space)
        return CSBlock(pair, _numbers(obj.get("thetas"), (n_p,), "thetas"))
    raise CircuitFormatError(f"unknown element kind {kind!r}")


def deserialize(text: str) -> Circuit:
    """Parse a circuit JSON document, validating the schema as it goes.

    Raises ``CircuitFormatError`` for malformed documents,
    ``UnsupportedVersionError`` for unknown versions, ``DimensionError``
    for out-of-range mode indices and, once the whole document has parsed,
    ``UnitarityError`` if any internal operation is not unitary.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CircuitFormatError(f"not valid JSON: {exc}") from exc
    _require(isinstance(doc, dict), "top-level document must be an object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise UnsupportedVersionError(
            f"unsupported format_version {version!r}, expected {FORMAT_VERSION!r}"
        )
    for key in ("n_s", "n_p"):
        value = doc.get(key)
        _require(_is_int(value) and value >= 1, f"{key} must be a positive integer")
    space = ModeSpace(doc["n_s"], doc["n_p"])
    elements_obj = doc.get("elements")
    _require(isinstance(elements_obj, list), "elements must be an array")
    elements = [_obj_to_element(obj, space) for obj in elements_obj]
    matrices = [e.matrix for e in elements if isinstance(e, InternalOp)]
    stack = np.array(matrices, dtype=complex).reshape(-1, space.n_p, space.n_p)
    require_unitary(stack, UNITARY_TOL, "an internal operation")
    return Circuit(space, elements)
