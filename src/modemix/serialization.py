"""Versioned JSON documents for circuits.

Schema (format_version "1"): a top-level object with keys
``format_version``, ``n_s``, ``n_p`` and ``elements``. Each element is
tagged by ``kind``:

    {"kind": "internal", "spatial_index": k, "matrix": [[[re, im], ...], ...]}
    {"kind": "beamsplitter", "spatial_pair": [k, k+1], "conjugate": false}
    {"kind": "phase_block", "spatial_index": k, "phases": [...]}
    {"kind": "cs_block", "spatial_pair": [k, k+1], "thetas": [...]}

Complex matrix entries are two-element [re, im] arrays. Floats are written
with ``repr`` precision, so a serialize/deserialize round trip is
bit-exact. Unknown versions are rejected outright; silent misreads of a
circuit are worse than failures.
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
        matrix = np.asarray(element.matrix, dtype=complex)
        return {
            "kind": "internal",
            "spatial_index": int(element.mode),
            "matrix": [[[z.real, z.imag] for z in row] for row in matrix],
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
            "phases": [float(p) for p in np.asarray(element.phases, dtype=float)],
        }
    if isinstance(element, CSBlock):
        return {
            "kind": "cs_block",
            "spatial_pair": [int(element.pair[0]), int(element.pair[1])],
            "thetas": [float(t) for t in np.asarray(element.thetas, dtype=float)],
        }
    raise TypeError(f"unknown circuit element type: {type(element).__name__}")


def serialize(circuit: Circuit) -> str:
    """Render a circuit as a JSON document."""
    doc = {
        "format_version": FORMAT_VERSION,
        "n_s": circuit.space.n_s,
        "n_p": circuit.space.n_p,
        "elements": [_element_to_obj(e) for e in circuit.elements],
    }
    return json.dumps(doc, indent=2) + "\n"


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CircuitFormatError(message)


# Exact type tests: JSON true and false parse as bool, a subclass of int,
# and are neither indices nor numbers.
_NUMBER_TYPES = (float, int)


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


def _finite_floats(value, what: str) -> np.ndarray:
    """Float array of JSON numbers; an integer too large for a float is not finite either."""
    try:
        out = np.asarray(value, dtype=float)
    except OverflowError:
        raise CircuitFormatError(f"{what} contains non-finite values") from None
    _require(bool(np.all(np.isfinite(out))), f"{what} contains non-finite values")
    return out


def _as_floats(value, n_p: int, what: str) -> np.ndarray:
    _require(isinstance(value, list) and len(value) == n_p, f"{what} must hold {n_p} numbers")
    _require(all(type(v) in _NUMBER_TYPES for v in value), f"{what} contains non-numeric values")
    return _finite_floats(value, what)


def _as_internal_matrix(value, n_p: int) -> np.ndarray:
    _require(isinstance(value, list) and len(value) == n_p, f"matrix must have {n_p} rows")
    for row in value:
        _require(isinstance(row, list) and len(row) == n_p, f"matrix rows must have {n_p} entries")
        for entry in row:
            _require(
                isinstance(entry, list)
                and len(entry) == 2
                and type(entry[0]) in _NUMBER_TYPES
                and type(entry[1]) in _NUMBER_TYPES,
                "matrix entries must be numeric [re, im] pairs",
            )
    # Each [re, im] pair is the memory layout of one complex128, so the view
    # keeps every bit, the sign of a zero included.
    matrix = _finite_floats(value, "matrix").view(complex)[..., 0]
    require_unitary(matrix, UNITARY_TOL, "internal operation")
    return matrix


def _obj_to_element(obj, space: ModeSpace):
    _require(isinstance(obj, dict), "elements must be objects")
    kind = obj.get("kind")
    if kind == "internal":
        mode = _as_index(obj.get("spatial_index"), space)
        return InternalOp(mode, _as_internal_matrix(obj.get("matrix"), space.n_p))
    if kind == "beamsplitter":
        pair = _as_pair(obj.get("spatial_pair"), space)
        conjugate = obj.get("conjugate", False)
        _require(isinstance(conjugate, bool), "conjugate must be a boolean")
        return Beamsplitter(pair, conjugate)
    if kind == "phase_block":
        mode = _as_index(obj.get("spatial_index"), space)
        return PhaseBlock(mode, _as_floats(obj.get("phases"), space.n_p, "phases"))
    if kind == "cs_block":
        pair = _as_pair(obj.get("spatial_pair"), space)
        return CSBlock(pair, _as_floats(obj.get("thetas"), space.n_p, "thetas"))
    raise CircuitFormatError(f"unknown element kind {kind!r}")


def deserialize(text: str) -> Circuit:
    """Parse a circuit JSON document, validating the schema as it goes.

    Raises ``CircuitFormatError`` for malformed documents,
    ``UnsupportedVersionError`` for unknown versions, ``DimensionError``
    for out-of-range mode indices and ``UnitarityError`` for internal
    operations that are not unitary.
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
    return Circuit(space, elements)
