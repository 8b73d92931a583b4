"""Circuit data model: mode spaces, elementary operations and embeddings.

A circuit acts on ``n_s`` spatial modes, each carrying ``n_p`` internal
modes (polarization, time bins, orbital angular momentum, ...). The
composite basis is spatial-major: basis vector ``(k - 1) * n_p + (l - 1)``
is internal mode ``l`` of spatial mode ``k``, with both indices 1-based.

Elements are stored in application order: ``elements[0]`` hits the light
first, so in the matrix product ``elements[-1]`` is the leftmost factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .csd import cs_matrix
from .errors import DimensionError

# Balanced 50:50 beamsplitter acting on a pair of spatial modes.
BEAMSPLITTER_2 = np.array([[1, 1j], [1j, 1]], dtype=complex) / np.sqrt(2)


@dataclass(frozen=True)
class ModeSpace:
    """Dimensions of the composite spatial ⊗ internal mode space."""

    n_s: int
    n_p: int

    def __post_init__(self):
        if self.n_s < 1 or self.n_p < 1:
            raise DimensionError(f"mode counts must be positive, got n_s={self.n_s}, n_p={self.n_p}")

    @property
    def dim(self) -> int:
        return self.n_s * self.n_p


@dataclass(frozen=True)
class InternalOp:
    """Arbitrary n_p x n_p unitary on the internal modes of one spatial mode."""

    mode: int
    matrix: np.ndarray


@dataclass(frozen=True)
class Beamsplitter:
    """Balanced beamsplitter on an adjacent spatial mode pair (k, k+1)."""

    pair: tuple[int, int]
    conjugate: bool = False


@dataclass(frozen=True)
class PhaseBlock:
    """Diagonal internal operation diag(exp(i*phases)) on one spatial mode."""

    mode: int
    phases: np.ndarray


@dataclass(frozen=True)
class CSBlock:
    """Cosine-sine mixer on an adjacent spatial mode pair; stage-1 intermediate."""

    pair: tuple[int, int]
    thetas: np.ndarray


CircuitElement = Union[InternalOp, Beamsplitter, PhaseBlock, CSBlock]


@dataclass
class Circuit:
    """Ordered element sequence over a mode space, in application order."""

    space: ModeSpace
    elements: list = field(default_factory=list)


def _check_mode(k: int, space: ModeSpace) -> None:
    if not 1 <= k <= space.n_s:
        raise DimensionError(f"spatial index {k} out of range 1..{space.n_s}")


def _check_pair(pair, space: ModeSpace) -> None:
    k, l = pair
    if l != k + 1:
        raise DimensionError(f"spatial pair {pair} is not adjacent; only (k, k+1) is allowed")
    if not 1 <= k <= space.n_s - 1:
        raise DimensionError(f"spatial pair {pair} out of range for {space.n_s} spatial modes")


def _placement(element: CircuitElement, space: ModeSpace, beamsplitters: tuple) -> tuple[slice, np.ndarray]:
    """Composite-basis rows an element acts on, and its block on those rows."""
    n_p = space.n_p
    if isinstance(element, InternalOp):
        _check_mode(element.mode, space)
        first, width, block = element.mode, n_p, np.asarray(element.matrix, dtype=complex)
    elif isinstance(element, PhaseBlock):
        _check_mode(element.mode, space)
        phases = np.asarray(element.phases, dtype=float)
        first, width, block = element.mode, n_p, np.diag(np.exp(1j * phases))
    elif isinstance(element, Beamsplitter):
        _check_pair(element.pair, space)
        first, width, block = element.pair[0], 2 * n_p, beamsplitters[bool(element.conjugate)]
    elif isinstance(element, CSBlock):
        _check_pair(element.pair, space)
        thetas = np.asarray(element.thetas, dtype=float)
        first, width, block = element.pair[0], 2 * n_p, cs_matrix(thetas, 2 * thetas.size)
    else:
        raise TypeError(f"unknown circuit element type: {type(element).__name__}")
    if block.shape != (width, width):
        raise DimensionError(
            f"{type(element).__name__} needs a {width}x{width} block, got shape {block.shape}"
        )
    start = (first - 1) * n_p
    return slice(start, start + width), block


def reconstruct(circuit: Circuit) -> np.ndarray:
    """Total matrix of a circuit: the product of its elements.

    Elements are applied in storage order, so each one multiplies from the
    left, and each touches only the rows of the modes it acts on. The two
    beamsplitter blocks, kron(B, 1) and kron(B†, 1), are built once per
    call. An empty circuit reconstructs to the identity.
    """
    out = np.eye(circuit.space.dim, dtype=complex)
    eye = np.eye(circuit.space.n_p)
    beamsplitters = (np.kron(BEAMSPLITTER_2, eye), np.kron(BEAMSPLITTER_2.conj().T, eye))
    for element in circuit.elements:
        rows, block = _placement(element, circuit.space, beamsplitters)
        out[rows] = block @ out[rows]
    return out


def embed(element: CircuitElement, space: ModeSpace) -> np.ndarray:
    """Composite-basis matrix of a single element, identity elsewhere."""
    return reconstruct(Circuit(space, [element]))
