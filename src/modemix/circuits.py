"""Circuit data model: mode spaces, elementary operations and embeddings.

A circuit acts on ``n_s`` spatial modes, each carrying ``n_p`` internal
modes (polarization, time bins, orbital angular momentum, ...). The
composite basis is spatial-major: basis vector ``(k - 1) * n_p + (l - 1)``
is internal mode ``l`` of spatial mode ``k``, with both indices 1-based.

Elements are stored in application order: ``elements[0]`` hits the light
first, so in the matrix product ``elements[-1]`` is the leftmost factor.

Every reader of a circuit (``reconstruct``, ``serialize``, ``audit_circuit``
and the CLI counts) reads its record: per kind code, the elements' first
spatial modes and a stack of their values, plus the kind code of every
element in document order. Each element class has one kind code, and a
beamsplitter's value is its conjugate flag. A circuit is fixed when it is
built and holds only its space and record: ``Circuit(space, elements)``
walks its elements with ``_walk``, so a bad element is refused there, and
keeps none of them; ``decompose``, ``decompose_stage1`` and ``deserialize``
hand over the record they built. ``elements`` is built from the record when
first read, each array a read-only view, so a new value needs a new circuit.
Only ``reconstruct`` needs layers, and it scans the record for them itself.

Two circuits are equal (``==``) when their spaces, kind sequences and first
modes are equal and their value stacks are equal under ``np.array_equal``,
which builds no element. Two elements are equal when they have the same
exact type and every field is equal under ``np.array_equal``. An element
that holds an array has no hash, and no circuit has one.
"""

from __future__ import annotations

import heapq
import operator
from collections import defaultdict
from dataclasses import dataclass, field, fields

import numpy as np

from .csd import cs_matrix
from .errors import DimensionError
from .linalg import _numbers, _require_fits

# Balanced 50:50 beamsplitter acting on a pair of spatial modes.
BEAMSPLITTER_2 = np.array([[1, 1j], [1j, 1]], dtype=complex) / np.sqrt(2)


@dataclass(frozen=True)
class ModeSpace:
    """Dimensions of the composite spatial ⊗ internal mode space."""

    n_s: int
    n_p: int

    def __post_init__(self):
        try:  # kept as Python ints, so 2.0 is refused and a numpy integer serializes
            n_s, n_p = int(operator.index(self.n_s)), int(operator.index(self.n_p))
        except TypeError:
            raise DimensionError(
                f"mode counts must be integers, got n_s={self.n_s!r}, n_p={self.n_p!r}"
            ) from None
        if n_s < 1 or n_p < 1:
            raise DimensionError(f"mode counts must be positive, got n_s={n_s}, n_p={n_p}")
        object.__setattr__(self, "n_s", n_s)
        object.__setattr__(self, "n_p", n_p)

    @property
    def dim(self) -> int:
        return self.n_s * self.n_p


def _same(a, b):
    """Element equality: one exact type, and every field equal under ``np.array_equal``."""
    if type(a) is not type(b):
        return NotImplemented
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))


@dataclass(frozen=True)
class InternalOp:
    """Arbitrary n_p x n_p unitary on the internal modes of one spatial mode."""

    mode: int
    matrix: np.ndarray
    __eq__ = _same


@dataclass(frozen=True)
class Beamsplitter:
    """Balanced beamsplitter on an adjacent spatial mode pair (k, k+1)."""

    pair: tuple[int, int]
    conjugate: bool = False
    __eq__ = _same


@dataclass(frozen=True)
class PhaseBlock:
    """Diagonal internal operation diag(exp(i*phases)) on one spatial mode."""

    mode: int
    phases: np.ndarray
    __eq__ = _same


@dataclass(frozen=True)
class CSBlock:
    """Cosine-sine mixer on an adjacent spatial mode pair; stage-1 intermediate."""

    pair: tuple[int, int]
    thetas: np.ndarray
    __eq__ = _same


@dataclass(frozen=True, eq=False)  # eq=True would hash a circuit of hashable elements
class Circuit:
    """Ordered element sequence over a mode space, in application order, fixed when built.

    ``elements`` may be any iterable; it is read once, checked and kept only
    as its record. Every circuit builds its element tuple from that record
    when ``elements`` is first read, with read-only arrays.
    """

    space: ModeSpace
    elements: tuple = field(default_factory=tuple)  # no class attribute, which would hide __getattr__

    def __post_init__(self):
        object.__setattr__(self, "_record", _walk(self))
        object.__delattr__(self, "elements")  # the record is all a circuit keeps

    def __getattr__(self, name):
        # Called only for a name the instance lacks: elements not yet built from the record.
        if name != "elements":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        object.__setattr__(self, "elements", _elements(self._record))
        return self.elements

    def __reduce__(self):  # copy, deepcopy and pickle rebuild through _held; a copy builds its own elements
        return _held, (self.space, self._record)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        (modes, values, sequence), theirs = self._record, other._record
        # The elements' equality pair by pair; a kind with no elements may hold [] or an empty array.
        return (self.space, sequence, modes) == (other.space, theirs[2], theirs[0]) and all(
            np.array_equal(a, b) for firsts, a, b in zip(modes, values, theirs[1]) if firsts
        )


def _held(space: ModeSpace, record: tuple) -> Circuit:
    """A circuit on ``space`` that holds ``record``, as ``Circuit(space, elements)`` does once walked.

    For the builders of circuits whose record is checked by construction
    (``decompose``, ``decompose_stage1`` and ``deserialize``), and for copies
    and pickles through ``Circuit.__reduce__``.
    """
    circuit = Circuit.__new__(Circuit)
    circuit.__dict__.update(space=space, _record=record)
    return circuit


def _check_mode(k, space: ModeSpace) -> int:
    """The spatial index ``k`` as a Python int, held to 1..n_s."""
    try:  # operator.index refuses a non-integer index where int() would truncate it
        k = operator.index(k)
    except TypeError:
        raise TypeError(f"spatial index {k!r} is not an integer") from None
    if not 1 <= k <= space.n_s:
        raise DimensionError(f"spatial index {k} out of range 1..{space.n_s}")
    return k


def _check_pair(pair, space: ModeSpace) -> tuple[int, int]:
    """The spatial pair as two Python ints (k, k+1), held to 1 <= k < n_s."""
    try:
        k, l = pair
    except (TypeError, ValueError):  # not iterable, or not two long
        raise DimensionError(f"spatial pair {pair!r} is not two spatial indices") from None
    try:
        k, l = operator.index(k), operator.index(l)
    except TypeError:
        raise TypeError(f"spatial pair {pair!r} is not two integers") from None
    if l != k + 1:
        raise DimensionError(f"spatial pair ({k}, {l}) is not adjacent; only (k, k+1) is allowed")
    if not 1 <= k <= space.n_s - 1:
        raise DimensionError(f"spatial pair ({k}, {l}) out of range for {space.n_s} spatial modes")
    return k, l


def _flag(flag) -> bool:
    """A beamsplitter's conjugate flag, read by truth only from a bool, a numpy bool or an integer."""
    try:  # operator.index takes bools and integers; it refuses numpy bools, text, floats and arrays
        return bool(flag if isinstance(flag, np.bool_) else operator.index(flag))
    except TypeError:
        raise TypeError(f"Beamsplitter conjugate must be a bool or an integer, got {type(flag).__name__}") from None


def _block_fault(element, width: int, shape: tuple) -> DimensionError:
    return DimensionError(f"{type(element).__name__} needs a {width}x{width} block, got shape {shape}")


def _angles(element, values, name: str, n_p: int, span: int) -> np.ndarray:
    """The n_p angles of a phase block (span 1) or CS block (span 2) as floats."""
    angles = _numbers(type(element), values, name, float)
    if angles.shape == (n_p,):
        return angles
    if angles.ndim == 1:  # named by the block that many angles would build
        raise _block_fault(element, span * n_p, (span * angles.size,) * 2)
    raise DimensionError(
        f"{type(element).__name__} needs {name} of shape {(n_p,)}, got shape {angles.shape}"
    )


def _phase_blocks(phases: np.ndarray, n_p: int) -> np.ndarray:
    """Stack of diag(exp(i*phases[j])), one n_p x n_p block per row of ``phases``."""
    blocks = np.zeros((len(phases), n_p, n_p), dtype=complex)
    diagonal = np.arange(n_p)
    blocks[:, diagonal, diagonal] = np.exp(1j * phases)
    return blocks


def _kron_eye(b: np.ndarray, n_p: int) -> np.ndarray:
    """np.kron(b[j], np.eye(n_p)) for each 2x2 ``b[j]`` of a stack, bit for bit, without its dense outer product."""
    block = np.zeros((len(b), 2, n_p, 2, n_p), dtype=complex)
    diagonal = np.arange(n_p)
    block[:, :, diagonal, :, diagonal] = b * 1.0  # np.kron multiplies each entry by 1 + 0j
    return block.reshape(len(b), 2 * n_p, 2 * n_p)


# Kind codes, by exact type: a subclass may mean something the file format
# cannot hold.
INTERNAL, PHASE, BEAMSPLITTER, CS = range(4)
_KINDS = {InternalOp: INTERNAL, PhaseBlock: PHASE, Beamsplitter: BEAMSPLITTER, CSBlock: CS}


def _walk(circuit: Circuit) -> tuple[list, list, list]:
    """The one checking pass over a circuit's elements, in document order.

    Checks each element's type, index or pair and value type and shape.
    Returns the circuit's record: for each kind code, the first spatial modes
    of its elements as Python ints and the stack of their values (an empty
    list for a kind with no elements), then every element's kind code in
    document order. A beamsplitter's value is its conjugate flag.
    """
    space = circuit.space
    n_p = space.n_p
    modes, values = ([[] for _ in range(4)] for _ in range(2))
    sequence = []
    for element in circuit.elements:
        kind = _KINDS.get(type(element))
        if kind is None:
            raise TypeError(f"unknown circuit element type: {type(element).__name__}")
        if kind < BEAMSPLITTER:
            k = _check_mode(element.mode, space)
            if kind == INTERNAL:
                value = _numbers(type(element), element.matrix, "matrix", complex)
                if value.shape != (n_p, n_p):
                    raise _block_fault(element, n_p, value.shape)
            else:
                value = _angles(element, element.phases, "phases", n_p, 1)
        else:
            k = _check_pair(element.pair, space)[0]
            if kind == CS:
                value = _angles(element, element.thetas, "thetas", n_p, 2)
            else:
                value = _flag(element.conjugate)
        modes[kind].append(k)
        values[kind].append(value)
        sequence.append(kind)
    return modes, [np.array(stack) if stack else stack for stack in values], sequence


def _elements(record: tuple) -> tuple:
    """The element objects of a record, in document order; elements on one pair share its tuple."""
    modes, values, sequence = record
    values = [np.asarray(stack).view() for stack in values]
    for stack in values:  # the one place record arrays are handed out, so no element can change its circuit
        stack.flags.writeable = False
    pairs = {k: (k, k + 1) for kind in (BEAMSPLITTER, CS) for k in modes[kind]}
    made = (
        map(InternalOp, modes[INTERNAL], values[INTERNAL]),
        map(PhaseBlock, modes[PHASE], values[PHASE]),
        map(Beamsplitter, map(pairs.get, modes[BEAMSPLITTER]), map(bool, values[BEAMSPLITTER])),
        map(CSBlock, map(pairs.get, modes[CS]), values[CS]),
    )
    return tuple([next(made[kind]) for kind in sequence])


def _layers(modes: list, sequence: list) -> list:
    """Each element's as-soon-as-possible layer, one list per kind code: one after every earlier element on its modes."""
    depth = defaultdict(int)  # deepest layer on each mode met; a list would take O(n_s)
    firsts = list(map(iter, modes))
    layers = [[] for _ in modes]
    for kind in sequence:
        k = next(firsts[kind])
        if kind < BEAMSPLITTER:
            layer = depth[k] = depth[k] + 1
        else:
            layer = depth[k] = depth[k + 1] = max(depth[k], depth[k + 1]) + 1
        layers[kind].append(layer)
    return layers


def reconstruct(circuit: Circuit) -> np.ndarray:
    """Total matrix of a circuit: the product of its elements.

    Reads the circuit's record and layers its elements in one scan; those of
    one layer act on disjoint rows and commute. Each kind's blocks are built
    in one call, in (layer, first mode) order: a beamsplitter's block is kron(B, 1),
    or kron(B†, 1) when its conjugate flag is set. A group is a run of one
    kind's elements in one layer on abutting rows, so it is one batched
    product on one band view. The result is bit for bit that of applying the
    elements one at a time; an empty circuit gives the identity.
    """
    n_p, dim = circuit.space.n_p, circuit.space.dim
    modes, values, sequence = circuit._record
    _require_fits(dim)  # and so every mode and row index fits an intp

    runs = []  # each kind's groups in layer order: (layer, first row, element count, blocks)
    builders = (  # each kind's blocks, given the order of its elements
        lambda order: values[INTERNAL][order],
        lambda order: _phase_blocks(values[PHASE][order], n_p),
        lambda order: _kron_eye(
            np.where(values[BEAMSPLITTER][order, None, None], BEAMSPLITTER_2.conj().T, BEAMSPLITTER_2), n_p
        ),
        lambda order: cs_matrix(values[CS][order], 2 * n_p),
    )
    for kind_modes, kind_layers, build in zip(modes, _layers(modes, sequence), builders):
        if not kind_modes:
            continue
        firsts, group_layers = np.array([kind_modes, kind_layers], dtype=np.intp)
        order = np.lexsort((firsts, group_layers))
        group_layers, starts = group_layers[order], (firsts[order] - 1) * n_p
        blocks = build(order)
        width = blocks.shape[-1]  # a group ends at a new layer or at a gap between its bands
        ends = (np.diff(group_layers) != 0) | (np.diff(starts) != width)
        bounds = [0, *(np.flatnonzero(ends) + 1).tolist(), len(order)]
        runs.append([(group_layers[a], starts[a], b - a, blocks[a:b]) for a, b in zip(bounds, bounds[1:])])

    out = np.eye(dim, dtype=complex)
    for _, first, g, blocks in heapq.merge(*runs, key=operator.itemgetter(0)):
        width = blocks.shape[-1]
        band = out[first : first + g * width].reshape(g, width, dim)
        band[...] = blocks @ band
    return out


def embed(element, space: ModeSpace) -> np.ndarray:
    """Composite-basis matrix of a single element, identity elsewhere."""
    return reconstruct(Circuit(space, [element]))
