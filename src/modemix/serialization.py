"""Versioned JSON documents for circuits.

Schema (format_version "1"): a top-level object with keys
``format_version``, ``n_s``, ``n_p`` and ``elements``. Each element is
tagged by ``kind``:

    {"kind": "internal", "spatial_index": k, "matrix": [[[re, im], ...], ...]}
    {"kind": "beamsplitter", "spatial_pair": [k, k+1], "conjugate": false}
    {"kind": "phase_block", "spatial_index": k, "phases": [...]}
    {"kind": "cs_block", "spatial_pair": [k, k+1], "thetas": [...]}

The writer puts the header on the first line and each element on a line
of its own. It reads the circuit's record, as ``reconstruct`` and the
counts do, and writes it by kind: one line template per kind with ``%r``
float slots, the text ``json`` writes, repeated once per element and
filled in one ``%`` call from the kind's indices as Python ints and its
floats, and one finiteness check per kind. Floats are written with
``repr`` precision, so a round trip is bit-exact. Complex matrix entries
are [re, im] pairs, as complex128 holds them.

What the reader refuses, ``Circuit`` or the writer refuses, and of
several faults both report an index before a value. The reader checks
each kind's numeric fields as one stack (fixed shape, JSON numbers only,
all finite), each index and pair with the walker's own checks and all
internal matrices for unitarity in one call, and returns a circuit that
holds the record of these columns, whose element objects are built when
first read. A compiled circuit read back equals the one written,
``deserialize(serialize(c)) == c``. The reader rejects unknown versions;
silent misreads are worse than failures. Both take each
kind's keys from one table, ``_ROWS``, keyed by kind code.
"""

from __future__ import annotations

import json

import numpy as np

from .circuits import BEAMSPLITTER, CS, INTERNAL, PHASE, Circuit, ModeSpace
from .circuits import _check_mode, _check_pair, _held
from .errors import CircuitFormatError, UnsupportedVersionError
from .linalg import require_unitary

FORMAT_VERSION = "1"


# One row per kind code: its file kind, its index key and its value key.
_ROWS = {
    INTERNAL: ("internal", "spatial_index", "matrix"),
    PHASE: ("phase_block", "spatial_index", "phases"),
    BEAMSPLITTER: ("beamsplitter", "spatial_pair", "conjugate"),
    CS: ("cs_block", "spatial_pair", "thetas"),
}
_CODES = {kind: code for code, (kind, _, _) in _ROWS.items()}


def _template(code: int, n_p: int) -> str:
    """One kind's line: %d slots for the index or pair, %r slots (``json``'s float text) for floats, %s for a flag."""
    kind, index_key, value_key = _ROWS[code]
    index = "%d" if index_key == "spatial_index" else "[%d, %d]"
    if value_key == "conjugate":
        value = "%s"
    elif value_key == "matrix":  # each complex entry as an [re, im] pair
        value = "[%s]" % ", ".join(["[%s]" % ", ".join(["[%r, %r]"] * n_p)] * n_p)
    else:
        value = "[%s]" % ", ".join(["%r"] * n_p)
    return f'{{"kind": "{kind}", "{index_key}": {index}, "{value_key}": {value}}}'


def _lines(code: int, modes: list, values: list, n_p: int):
    """The lines of one kind's elements in document order, once their values are checked."""
    kind, index_key, value_key = _ROWS[code]
    stack = np.array(values)
    if not np.isfinite(stack).all():
        raise ValueError(f"{kind} values must be finite; NaN and infinity are not JSON compliant")
    if value_key == "matrix":
        require_unitary(stack, "an internal operation")
        stack = stack.view(float).reshape(len(stack), -1)
    elif value_key == "conjugate":  # each flag as JSON spells it
        stack = np.where(stack, "true", "false")[:, None]
    # One row per element: its index or pair as Python ints (through a float, an
    # index past 2**53 would round), then its Python floats or flag text.
    width = 1 if index_key == "spatial_index" else 2
    table = np.empty((len(stack), width + stack.shape[1]), dtype=object)
    table[:, 0] = modes
    if width == 2:
        table[:, 1] = table[:, 0] + 1
    table[:, width:] = stack
    args = tuple(table.ravel().tolist())
    del stack, table  # so that only args holds the kind's values through the %
    # The whole kind in one % call, one template per element. Every float of the
    # kind is held at once: at 2x128 the writer peaks at 10.2 MB, under the
    # 12.9 MB at which deserialize reads the same text.
    text = "\n".join([_template(code, n_p)] * len(modes)) % args
    return iter(text.split("\n"))


def serialize(circuit: Circuit) -> str:
    """Render a circuit as a JSON document: the header line, then one element per line.

    Refuses what ``deserialize`` would refuse and ``Circuit`` has not
    refused: ``ValueError`` for a value that is not finite, then
    ``UnitarityError`` if any internal operation is not unitary.
    """
    space = circuit.space
    modes, values, sequence = circuit._record
    lines = {}
    # Internal ops last, so that every kind is checked finite before any op for unitarity.
    for code in (CS, BEAMSPLITTER, PHASE, INTERNAL):
        if modes[code]:
            lines[code] = _lines(code, modes[code], values[code], space.n_p)
    elements = [next(lines[code]) for code in sequence]
    lines.clear()  # so that each kind's list of line strings is freed before the join
    elements = ",\n".join(elements)
    header = f'{{"format_version": "{FORMAT_VERSION}", "n_s": {space.n_s}, "n_p": {space.n_p}'
    return f'{header}, "elements": [\n{elements}]}}\n'


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


def _columns(code: int, objs: list, space: ModeSpace) -> tuple:
    """One kind's elements as record columns: each one's first mode and their value stack."""
    _, index_key, value_key = _ROWS[code]
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
        check = _check_pair
    for index in indices:
        check(index, space)
    firsts = indices if index_key == "spatial_index" else [pair[0] for pair in indices]
    if value_key == "conjugate":
        _require(set(map(type, values)) <= {bool}, "conjugate must be a boolean")
        values = np.array(values)
    elif value_key == "matrix":
        # The view keeps every bit of each [re, im] pair, the sign of a zero included.
        values = _numbers(values, (space.n_p, space.n_p, 2), "matrix").view(complex)[..., 0]
    else:
        values = _numbers(values, (space.n_p,), value_key)
    return firsts, values


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
    sequence, groups = [], {}
    for obj in objs:
        kind = obj.get("kind")
        if type(kind) is not str or kind not in _CODES:  # an unhashable kind is refused too
            raise CircuitFormatError(f"unknown element kind {kind!r}")
        sequence.append(_CODES[kind])
        groups.setdefault(sequence[-1], []).append(obj)
    modes, values = [[] for _ in range(4)], [[] for _ in range(4)]
    for code, group in groups.items():
        modes[code], values[code] = _columns(code, group, space)
    if INTERNAL in groups:
        require_unitary(values[INTERNAL], "an internal operation")
    return _held(space, (modes, values, sequence))
