"""Two-stage compilation of a unitary into elementary optical operations.

Stage 1 peels off one spatial mode per iteration by repeated cosine-sine
decomposition, leaving only internal operations and CS mixers between
adjacent spatial modes. Stage 2 replaces every CS mixer with two balanced
beamsplitters and two diagonal phase blocks, so the final circuit contains
nothing an optics bench cannot provide.

For an ``n_s`` x ``n_p`` mode space the output holds exactly n_s^2
internal operations and n_s(n_s-1)/2 CS mixers after stage 1, hence
n_s(n_s-1) beamsplitters and n_s(n_s-1) phase blocks after stage 2.
"""

from __future__ import annotations

import numpy as np

from .circuits import Beamsplitter, Circuit, CSBlock, InternalOp, ModeSpace, PhaseBlock
from .csd import csd
from .errors import DimensionError
from .linalg import UNITARY_TOL, require_unitary


def decompose_stage1(u, space: ModeSpace, tol: float = UNITARY_TOL) -> Circuit:
    """Factor ``u`` into internal operations and CS mixers.

    Iteration j decouples spatial mode j from the rest: the current
    unitary is CS-decomposed with top block size n_p, the bottom-left
    factor is CS-decomposed again, and so on down the mode ladder. Each
    step emits an internal operation and a CS mixer and hands its
    bottom-right factor to an accumulator; the accumulated product acts on
    modes j+1..n_s only, commutes past everything emitted later in the
    iteration, and becomes the next iteration's input.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (space.dim, space.dim):
        raise DimensionError(
            f"matrix shape {u.shape} does not match mode space "
            f"{space.n_s}x{space.n_p} (dimension {space.dim})"
        )
    require_unitary(u, tol, "input")
    n_s, n_p = space.n_s, space.n_p
    if n_s == 1:
        return Circuit(space, [InternalOp(1, u.copy())])

    # ops collects factors in operator order: ops[0] is the leftmost
    # factor of the matrix product.
    ops = []
    current = u
    for j in range(1, n_s):
        steps = n_s - j
        left_ops = []
        mixers = []
        accum = np.eye(steps * n_p, dtype=complex)
        block = current
        for step in range(steps):
            k = j + step
            result = csd(block, n_p, tol=tol)
            left_ops.append(InternalOp(k, result.left_top))
            mixers.append(
                (CSBlock((k, k + 1), result.thetas), InternalOp(k, result.right_top.conj().T))
            )
            # The bottom-right adjoint acts on modes k+1..n_s; embed it at
            # its block offset and fold it into the accumulator.
            offset = step * n_p
            accum[offset:, :] = result.right_bottom.conj().T @ accum[offset:, :]
            block = result.left_bottom
        ops.extend(left_ops)
        ops.append(InternalOp(n_s, block))
        for mixer, right_internal in reversed(mixers):
            ops.append(mixer)
            ops.append(right_internal)
        current = accum
    ops.append(InternalOp(n_s, current))
    return Circuit(space, list(reversed(ops)))


def expand_cs_block(block: CSBlock) -> list:
    """Realize a CS mixer as beamsplitters and phase blocks.

    S(θ) equals (B ⊗ 1) (Θ ⊕ Θ†) (B† ⊗ 1) with Θ = diag(exp(iθ)), so in
    application order the mixer becomes: conjugated beamsplitter, +θ phase
    block on the lower mode, -θ phase block on the upper mode, plain
    beamsplitter.
    """
    k, l = block.pair
    thetas = np.asarray(block.thetas, dtype=float)
    return [
        Beamsplitter((k, l), conjugate=True),
        PhaseBlock(k, thetas.copy()),
        PhaseBlock(l, -thetas),
        Beamsplitter((k, l)),
    ]


def decompose(u, space: ModeSpace, tol: float = UNITARY_TOL) -> Circuit:
    """Full compilation: stage 1 followed by expansion of every CS mixer."""
    stage1 = decompose_stage1(u, space, tol=tol)
    elements = []
    for element in stage1.elements:
        if isinstance(element, CSBlock):
            elements.extend(expand_cs_block(element))
        else:
            elements.append(element)
    return Circuit(space, elements)
