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


def embed(element: CircuitElement, space: ModeSpace) -> np.ndarray:
    """Composite-basis matrix of a single element, identity elsewhere."""
    n_p = space.n_p
    if isinstance(element, InternalOp):
        _check_mode(element.mode, space)
        first = element.mode
        block = np.asarray(element.matrix, dtype=complex)
        if block.shape != (n_p, n_p):
            raise DimensionError(
                f"internal operation has shape {block.shape}, expected {(n_p, n_p)}"
            )
    elif isinstance(element, Beamsplitter):
        _check_pair(element.pair, space)
        first = element.pair[0]
        b = BEAMSPLITTER_2.conj().T if element.conjugate else BEAMSPLITTER_2
        block = np.kron(b, np.eye(n_p))
    elif isinstance(element, PhaseBlock):
        _check_mode(element.mode, space)
        first = element.mode
        phases = np.asarray(element.phases, dtype=float)
        if phases.shape != (n_p,):
            raise DimensionError(f"phase block has {phases.size} phases, expected {n_p}")
        block = np.diag(np.exp(1j * phases))
    elif isinstance(element, CSBlock):
        _check_pair(element.pair, space)
        first = element.pair[0]
        thetas = np.asarray(element.thetas, dtype=float)
        if thetas.shape != (n_p,):
            raise DimensionError(f"CS block has {thetas.size} angles, expected {n_p}")
        block = cs_matrix(thetas, 2 * n_p)
    else:
        raise TypeError(f"unknown circuit element type: {type(element).__name__}")
    out = np.eye(space.dim, dtype=complex)
    start = (first - 1) * n_p
    stop = start + block.shape[0]
    out[start:stop, start:stop] = block
    return out


def reconstruct(circuit: Circuit) -> np.ndarray:
    """Total matrix of a circuit: the product of its embedded elements.

    Elements are applied in storage order, so each one multiplies from the
    left. An empty circuit reconstructs to the identity.
    """
    out = np.eye(circuit.space.dim, dtype=complex)
    for element in circuit.elements:
        out = embed(element, circuit.space) @ out
    return out
