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
floats. Floats are written with ``repr`` precision, so a round trip is
bit-exact. Complex matrix entries are [re, im] pairs, as complex128 holds
them.

The writer only formats: what the reader refuses, no circuit holds,
since ``Circuit`` and the value gate in ``circuits`` refuse it when a
circuit is built, and of several faults both the walk and the reader
report an index before a value. The reader checks only the file's format,
one whole column at a time, with no check per element: the kinds as one
set, each kind's elements grouped with ``itertools.compress``, its indices
or pairs by the sets of their types and lengths and by the ``min`` and
``max`` of their first modes (Python ints, so n_s may exceed any machine
integer), and each numeric field as one stack, flattened one nesting level
at a time with each level's types and lengths checked as sets, its leaves
made into one float array (fixed shape, JSON numbers only, all finite).
Only when the kind test, or an index or pair test, fails does the reader
go element by element (for an index or pair, with the walker's own
``_check_mode`` and ``_check_pair``), to name the first offender with the
walk's message. ``deserialize`` runs with the cyclic garbage collector
off, through the pause that ``cli.main`` also uses, and then restores the
caller's setting: ``json.loads`` and the column passes make only acyclic
containers, which die when the read returns, so the collector's passes
over them are wasted work. It returns a circuit that holds the record of
these columns, whose element objects are built when first read, and which
the value gate checks for unitarity in one call over all internal
matrices. A compiled circuit read back equals the one written,
``deserialize(serialize(c)) == c``. The reader rejects unknown versions;
silent misreads are worse than failures.
This module holds only each kind code's file kind, ``_FILE_KINDS``. Both
take a kind's value key, number type and rank from ``circuits._VALUES``,
the kind table the walker checks with, and its index key from
``circuits._PAIRED``: ``spatial_pair`` for a kind on a pair,
``spatial_index`` for the others.
"""

from __future__ import annotations

import gc
import json
from contextlib import contextmanager
from itertools import chain, compress

import numpy as np

from .circuits import BEAMSPLITTER, CS, INTERNAL, PHASE, Circuit, ModeSpace
from .circuits import _PAIRED, _VALUES, _check_mode, _check_pair, _held
from .errors import CircuitFormatError, UnsupportedVersionError

FORMAT_VERSION = "1"


# Each kind code's file kind; its keys and value shape come from the kind table in ``circuits``.
_FILE_KINDS = {INTERNAL: "internal", PHASE: "phase_block", BEAMSPLITTER: "beamsplitter", CS: "cs_block"}
_CODES = {kind: code for code, kind in _FILE_KINDS.items()}


def _index_key(code: int) -> str:
    """The key of a kind's spatial index, or of its pair."""
    return "spatial_pair" if code in _PAIRED else "spatial_index"


def _template(code: int, n_p: int) -> str:
    """One kind's line: %d slots for the index or pair, %r slots (``json``'s float text) for floats, %s for a flag."""
    value_key, number, rank = _VALUES[code]
    index = "[%d, %d]" if code in _PAIRED else "%d"
    value = {bool: "%s", float: "%r", complex: "[%r, %r]"}[number]  # a complex entry as an [re, im] pair
    for _ in range(rank):
        value = "[%s]" % ", ".join([value] * n_p)
    return f'{{"kind": "{_FILE_KINDS[code]}", "{_index_key(code)}": {index}, "{value_key}": {value}}}'


def _lines(code: int, modes: list, values: list, n_p: int):
    """The lines of one kind's elements in document order."""
    number = _VALUES[code][1]
    stack = np.array(values)
    if number is complex:
        stack = stack.view(float)
    elif number is bool:  # each flag as JSON spells it
        stack = np.where(stack, "true", "false")
    stack = stack.reshape(len(stack), -1)
    # One row per element: its index or pair as Python ints (through a float, an
    # index past 2**53 would round), then its Python floats or flag text.
    width = 2 if code in _PAIRED else 1
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

    Only formats, and refuses no circuit: every circuit's values passed the
    gate in ``circuits`` when it was built, so ``deserialize`` reads back
    whatever this writes.
    """
    space = circuit.space
    modes, values, sequence = circuit._record
    lines = {code: _lines(code, firsts, values[code], space.n_p) for code, firsts in enumerate(modes) if firsts}
    elements = [next(lines[code]) for code in sequence]
    lines.clear()  # so that each kind's list of line strings is freed before the join
    elements = ",\n".join(elements)
    header = f'{{"format_version": "{FORMAT_VERSION}", "n_s": {space.n_s}, "n_p": {space.n_p}'
    return f'{header}, "elements": [\n{elements}]}}\n'


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CircuitFormatError(message)


@contextmanager
def _collector_paused():
    """Run the body with the cyclic garbage collector off, then restore the caller's setting, however it ends."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


# Exact type tests: JSON true and false parse as bool, a subclass of int,
# and are neither indices nor numbers.
_NUMBER_TYPES = {float, int}


def _numbers(values: list, shape: tuple[int, ...], what: str) -> np.ndarray:
    """Float stack of the nested JSON numbers ``values``, each of exactly ``shape``.

    Flattened one nesting level at a time: each level must hold only lists,
    each of that level's length, and the leaves no list. An integer too
    large for a float is non-finite.
    """
    misshapen, leaves = f"{what} must be a nested array of shape {list(shape)}", values
    for length in shape:
        _require(set(map(type, leaves)) == {list} and set(map(len, leaves)) == {length}, misshapen)
        leaves = list(chain.from_iterable(leaves))
    types = set(map(type, leaves))
    _require(list not in types, misshapen)
    _require(types <= _NUMBER_TYPES, f"{what} contains non-numeric values")
    try:
        out = np.array(leaves, dtype=float)
    except OverflowError:
        raise CircuitFormatError(f"{what} contains non-finite values") from None
    _require(np.isfinite(out).all(), f"{what} contains non-finite values")
    return out.reshape(len(values), *shape)


def _columns(code: int, objs: list, space: ModeSpace) -> tuple:
    """One kind's elements as record columns: each one's first mode and their value stack."""
    value_key, number, rank = _VALUES[code]
    index_key = _index_key(code)
    indices = [obj.get(index_key) for obj in objs]
    # A missing conjugate reads as false; a missing array fails its shape test.
    values = [obj.get(value_key, False) for obj in objs]
    if code in _PAIRED:
        _require(
            set(map(type, indices)) == {list}
            and set(map(len, indices)) == {2}
            and set(map(type, flat := list(chain.from_iterable(indices)))) == {int},
            "spatial_pair must be a two-element integer array",
        )
        check, firsts = _check_pair, flat[0::2]
        held = flat[1::2] == [k + 1 for k in firsts] and 1 <= min(firsts) and max(firsts) < space.n_s
    else:
        _require(set(map(type, indices)) <= {int}, "spatial_index must be an integer")
        check, firsts = _check_mode, indices
        held = 1 <= min(firsts) and max(firsts) <= space.n_s
    if not held:  # the walker's own check names the first offender
        for index in indices:
            check(index, space)
    if number is bool:
        _require(set(map(type, values)) <= {bool}, f"{value_key} must be a boolean")
        return firsts, np.array(values)
    shape = (space.n_p,) * rank
    if number is complex:  # each entry an [re, im] pair; the view keeps every bit, the sign of a zero included
        return firsts, _numbers(values, (*shape, 2), value_key).view(complex)[..., 0]
    return firsts, _numbers(values, shape, value_key)


def deserialize(text: str) -> Circuit:
    """Parse a circuit JSON document, validating the schema one element kind at a time.

    Raises ``CircuitFormatError`` for malformed documents,
    ``UnsupportedVersionError`` for unknown versions and ``DimensionError``
    for out-of-range mode indices. Of several faults, one of the kind met
    first is reported, an index before a value. Once the whole document has
    parsed, the circuit passes the value gate of every circuit, which raises
    ``UnitarityError`` if any internal operation is not unitary. Runs with
    the cyclic garbage collector off and restores the caller's setting.
    """
    with _collector_paused():
        return _read(text)


def _read(text: str) -> Circuit:
    """``deserialize``'s work; the parsed document dies when this returns, before the collector is restored."""
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
    if not (set(map(type, kinds)) <= {str} and set(kinds) <= _CODES.keys()):
        for kind in kinds:  # the first unknown kind; an unhashable one is refused too
            if type(kind) is not str or kind not in _CODES:
                raise CircuitFormatError(f"unknown element kind {kind!r}")
    sequence = list(map(_CODES.__getitem__, kinds))
    modes, values = [[] for _ in range(4)], [[] for _ in range(4)]
    codes = np.array(sequence, dtype=np.int8)
    for code in dict.fromkeys(sequence):  # kinds in order of first appearance, so the first kind's faults come first
        modes[code], values[code] = _columns(code, list(compress(objs, (codes == code).tolist())), space)
    return _held(space, (modes, values, sequence))
