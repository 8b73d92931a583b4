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

The reader checks each field of each element kind as one stack (one rule
for all numeric arrays: fixed shape, JSON numbers only, all finite) and the
internal matrices of a document for unitarity in one call. Unknown versions
are rejected outright; silent misreads of a circuit are worse than failures.
"""

from __future__ import annotations

import json

import numpy as np

from .circuits import Beamsplitter, Circuit, CSBlock, InternalOp, ModeSpace, PhaseBlock
from .circuits import _check_mode, _check_pair
from .errors import CircuitFormatError, UnsupportedVersionError
from .linalg import require_unitary

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


_KINDS = ("internal", "beamsplitter", "phase_block", "cs_block")

# Exact type tests: JSON true and false parse as bool, a subclass of int,
# and are neither indices nor numbers.
_NUMBER_TYPES = {float, int}


def _numbers(values: list, shape: tuple[int, ...], what: str) -> np.ndarray:
    """Float stack of the nested JSON numbers ``values``, each of exactly ``shape``.

    A ragged array or one of the wrong depth gives another object-array
    shape, or list leaves; an integer too large for a float is non-finite.
    """
    items = np.array(values, dtype=object)
    leaves = set(map(type, items.flat))
    _require(
        items.shape[1:] == shape and list not in leaves,
        f"{what} must be a nested array of shape {list(shape)}",
    )
    _require(leaves <= _NUMBER_TYPES, f"{what} contains non-numeric values")
    try:
        out = items.astype(float)
    except OverflowError:
        raise CircuitFormatError(f"{what} contains non-finite values") from None
    _require(np.isfinite(out).all(), f"{what} contains non-finite values")
    return out


def _modes(values: list, space: ModeSpace) -> list[int]:
    _require(set(map(type, values)) <= {int}, "spatial_index must be an integer")
    if values and not 1 <= min(values) <= max(values) <= space.n_s:
        for k in values:  # raises on the first index out of range
            _check_mode(k, space)
    return values


def _pairs(values: list, space: ModeSpace) -> list[tuple[int, int]]:
    items = np.array(values, dtype=object)
    _require(
        items.shape[1:] == (2,) and set(map(type, items.flat)) <= {int},
        "spatial_pair must be a two-element integer array",
    )
    k, l = items.T
    bad = (l != k + 1) | (k < 1) | (k >= space.n_s)
    if bad.any():
        _check_pair(tuple(values[bad.argmax()]), space)
    return list(map(tuple, values))


def _columns(kind: str, objs: list, space: ModeSpace) -> tuple:
    """Element class and its two constructor arguments, one column each, for one kind."""
    def field(key, default=None):
        return [obj.get(key, default) for obj in objs]

    n_p = space.n_p
    if kind == "internal":
        modes = _modes(field("spatial_index"), space)
        # The view keeps every bit of each [re, im] pair, the sign of a zero included.
        matrices = _numbers(field("matrix"), (n_p, n_p, 2), "matrix").view(complex)[..., 0]
        return InternalOp, modes, matrices
    if kind == "beamsplitter":
        pairs, conjugate = _pairs(field("spatial_pair"), space), field("conjugate", False)
        _require(set(map(type, conjugate)) <= {bool}, "conjugate must be a boolean")
        return Beamsplitter, pairs, conjugate
    if kind == "phase_block":
        modes = _modes(field("spatial_index"), space)
        return PhaseBlock, modes, _numbers(field("phases"), (n_p,), "phases")
    return CSBlock, _pairs(field("spatial_pair"), space), _numbers(field("thetas"), (n_p,), "thetas")


def deserialize(text: str) -> Circuit:
    """Parse a circuit JSON document, validating the schema one element kind at a time.

    Raises ``CircuitFormatError`` for malformed documents,
    ``UnsupportedVersionError`` for unknown versions, ``DimensionError``
    for out-of-range mode indices and, once the whole document has parsed,
    ``UnitarityError`` if any internal operation is not unitary. Of several
    faults, one of the kind met first is reported, an index before a value.
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
        _require(type(value) is int and value >= 1, f"{key} must be a positive integer")
    space = ModeSpace(doc["n_s"], doc["n_p"])
    objs = doc.get("elements")
    _require(isinstance(objs, list), "elements must be an array")
    _require(set(map(type, objs)) <= {dict}, "elements must be objects")
    kinds = [obj.get("kind") for obj in objs]
    groups = {}
    for kind, obj in zip(kinds, objs):
        if kind not in _KINDS:  # a tuple test, so an unhashable kind is refused too
            raise CircuitFormatError(f"unknown element kind {kind!r}")
        groups.setdefault(kind, []).append(obj)
    columns = {kind: _columns(kind, group, space) for kind, group in groups.items()}
    if "internal" in columns:
        require_unitary(columns["internal"][2], "an internal operation")
    made = {kind: map(cls, first, second) for kind, (cls, first, second) in columns.items()}
    return Circuit(space, [next(made[kind]) for kind in kinds])
