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
one complex128. The writer refuses what the reader refuses: an index or
pair the walker's checks refuse, a value of the wrong shape for ``n_p``, a
non-unitary internal matrix and a value that is not finite.

The reader checks the numeric fields of each element kind as one stack
(fixed shape, JSON numbers only, all finite), each index and pair with the
walker's own checks and all internal matrices for unitarity in one call. It
rejects unknown versions; silent misreads are worse than failures. Both
dispatch on element kind through one table, ``_ROWS``.
"""

from __future__ import annotations

import json
import operator

import numpy as np

from .circuits import Beamsplitter, Circuit, CSBlock, InternalOp, ModeSpace, PhaseBlock
from .circuits import _check_mode, _check_pair
from .errors import CircuitFormatError, DimensionError, UnsupportedVersionError
from .linalg import require_unitary

FORMAT_VERSION = "1"
# NaN and infinity are not JSON (RFC 8259), so the writer raises ValueError
# on them. One encoder serves every call; json.dumps would build one per call.
# The writer builds each object afresh from numbers, so none can contain
# itself, and the encoder need not track the containers it is inside.
_ENCODER = json.JSONEncoder(allow_nan=False, check_circular=False)


# One row per element class: the class, its file kind, its index key and its value key.
_ROWS = (
    (InternalOp, "internal", "spatial_index", "matrix"),
    (Beamsplitter, "beamsplitter", "spatial_pair", "conjugate"),
    (PhaseBlock, "phase_block", "spatial_index", "phases"),
    (CSBlock, "cs_block", "spatial_pair", "thetas"),
)
# The writer reads an element's two fields in the order its dataclass declares
# them: the spatial index or pair, then the value.
_BY_CLASS = {row[0]: (*row[1:], operator.attrgetter(*row[0].__match_args__)) for row in _ROWS}
_BY_KIND = {row[1]: row for row in _ROWS}


def _element_to_obj(element, space: ModeSpace, matrices: list) -> dict:
    """JSON object of one element; its internal matrix goes to ``matrices``."""
    row = _BY_CLASS.get(type(element))
    if row is None:
        raise TypeError(f"unknown circuit element type: {type(element).__name__}")
    kind, index_key, value_key, fields = row
    index, value = fields(element)
    # The walker's checks return the index or pair as Python ints.
    if index_key == "spatial_index":
        index = _check_mode(index, space)
    else:
        index = _check_pair(index, space)  # the encoder writes a tuple as an array
    if value_key == "conjugate":
        return {"kind": kind, index_key: index, value_key: bool(value)}
    n_p = space.n_p
    if value_key == "matrix":
        array, shape = np.ascontiguousarray(value, dtype=complex), (n_p, n_p)
        matrices.append(array)
        value = array.view(float).reshape(*array.shape, 2)
    else:
        array = value = np.asarray(value, dtype=float)
        shape = (n_p,)
    if array.shape != shape:
        raise DimensionError(
            f"{type(element).__name__} needs {value_key} of shape {shape}, got shape {array.shape}"
        )
    return {"kind": kind, index_key: index, value_key: value.tolist()}


def serialize(circuit: Circuit) -> str:
    """Render a circuit as a JSON document: the header line, then one element per line.

    Refuses what ``deserialize`` would refuse: ``DimensionError`` for an
    index or pair the walker refuses or a value of the wrong shape for
    ``n_p``, ``TypeError`` for an index that is not an integer,
    ``UnitarityError`` if any internal operation is not unitary and
    ``ValueError`` for a value that is not finite.
    """
    space, matrices = circuit.space, []
    header = _ENCODER.encode({"format_version": FORMAT_VERSION, "n_s": space.n_s, "n_p": space.n_p})
    elements = ",\n".join([_ENCODER.encode(_element_to_obj(e, space, matrices)) for e in circuit.elements])
    if matrices:
        require_unitary(matrices, "an internal operation")
    return f'{header[:-1]}, "elements": [\n{elements}]}}\n'


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CircuitFormatError(message)


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


def _columns(kind: str, objs: list, space: ModeSpace) -> tuple:
    """Element class and its two constructor arguments, one column each, for one kind."""
    cls, _, index_key, value_key = _BY_KIND[kind]
    indices = [obj.get(index_key) for obj in objs]
    # A missing conjugate reads as false; a missing array fails its shape test.
    values = [obj.get(value_key, False) for obj in objs]
    if index_key == "spatial_index":
        _require(set(map(type, indices)) <= {int}, "spatial_index must be an integer")
        check = _check_mode
    else:
        _require(
            all(type(p) is list and len(p) == 2 and type(p[0]) is type(p[1]) is int for p in indices),
            "spatial_pair must be a two-element integer array",
        )
        indices, check = list(map(tuple, indices)), _check_pair
    for index in indices:
        check(index, space)
    n_p = space.n_p
    if value_key == "conjugate":
        _require(set(map(type, values)) <= {bool}, "conjugate must be a boolean")
    elif value_key == "matrix":
        # The view keeps every bit of each [re, im] pair, the sign of a zero included.
        values = _numbers(values, (n_p, n_p, 2), "matrix").view(complex)[..., 0]
    else:
        values = _numbers(values, (n_p,), value_key)
    return cls, indices, values


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
        if type(kind) is not str or kind not in _BY_KIND:  # an unhashable kind is refused too
            raise CircuitFormatError(f"unknown element kind {kind!r}")
        groups.setdefault(kind, []).append(obj)
    columns = {kind: _columns(kind, group, space) for kind, group in groups.items()}
    if "internal" in columns:
        require_unitary(columns["internal"][2], "an internal operation")
    made = {kind: map(cls, first, second) for kind, (cls, first, second) in columns.items()}
    return Circuit(space, [next(made[kind]) for kind in kinds])
