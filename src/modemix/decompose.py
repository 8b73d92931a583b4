"""Two-stage compilation of a unitary into elementary optical operations.

Stage 1 reduces the unitary to block-diagonal form by nulling its
off-diagonal blocks one at a time with unitaries on adjacent spatial
mode pairs, as Reck et al. (PRL 73, 58, 1994) null single entries with
beamsplitters. All these 2n_p x 2n_p unitaries are then cosine-sine
decomposed in one stacked call, leaving only internal operations and CS
mixers between adjacent spatial modes. Stage 2 replaces every CS mixer
with two balanced beamsplitters and two diagonal phase blocks, so the
final circuit contains nothing an optics bench cannot provide.

For an ``n_s`` x ``n_p`` mode space the output holds exactly n_s^2
internal operations and n_s(n_s-1)/2 CS mixers after stage 1, hence
n_s(n_s-1) beamsplitters and n_s(n_s-1) phase blocks after stage 2.
"""

from __future__ import annotations

import numpy as np

from .circuits import Beamsplitter, Circuit, CSBlock, InternalOp, ModeSpace, PhaseBlock
from .csd import csd_stack
from .errors import DimensionError
from .linalg import require_unitary


def decompose_stage1(u, space: ModeSpace) -> Circuit:
    """Factor ``u`` into internal operations and CS mixers.

    Column block by column block, and from the bottom row block up, one
    complete QR of blocks (r-1, c) and (r, c) stacked gives a unitary Q on
    spatial modes (r-1, r) whose adjoint zeros block (r, c). Once a column
    is done its diagonal block is unitary and stands alone. The last
    2n_p x 2n_p block is taken whole instead of nulled, so that
    U = Q_1 ... Q_K-1 (D ⊕ V) with D block diagonal. V and the Q's are
    CS-decomposed together; each gives a CS mixer with an internal
    operation on either side on both of its modes, and the internal
    operations that meet on one mode between two of its mixers are
    multiplied into one.
    """
    # A copy, because the nulling works in place and, at n_s = 1, the
    # input itself is the one internal op.
    u = np.array(u, dtype=complex)
    if u.shape != (space.dim, space.dim):
        raise DimensionError(
            f"matrix shape {u.shape} does not match mode space "
            f"{space.n_s}x{space.n_p} (dimension {space.dim})"
        )
    require_unitary(u, "input")
    n_s, n_p = space.n_s, space.n_p
    if n_s == 1:
        return Circuit(space, [InternalOp(1, u)])

    # The 2n_p x 2n_p unitaries in application order, V first and then the
    # Q's from last to first, each with the upper of its two spatial modes.
    # Block indices r and c are 1-based, like spatial modes.
    count = n_s * (n_s - 1) // 2
    modes = np.empty(count, dtype=int)
    unitaries = np.empty((count, 2 * n_p, 2 * n_p), dtype=complex)
    pending = {}  # mode -> internal op not yet emitted
    for c in range(1, n_s - 1):
        column = slice((c - 1) * n_p, c * n_p)
        for r in range(n_s, c, -1):
            rows = slice((r - 2) * n_p, r * n_p)
            q, _ = np.linalg.qr(u[rows, column], mode="complete")
            u[rows, column.start :] = q.conj().T @ u[rows, column.start :]
            count -= 1
            modes[count], unitaries[count] = r - 1, q
        pending[c] = u[column, column]
    modes[0], unitaries[0] = n_s - 1, u[-2 * n_p :, -2 * n_p :]

    left_top, left_bottom, thetas, right_top, right_bottom = csd_stack(unitaries, n_p)
    right_top, right_bottom = right_top.conj().swapaxes(1, 2), right_bottom.conj().swapaxes(1, 2)
    elements = []
    for j, k in enumerate(modes.tolist()):
        for mode, op in ((k + 1, right_bottom[j]), (k, right_top[j])):
            before = pending.pop(mode, None)
            elements.append(InternalOp(mode, op if before is None else op @ before))
        elements.append(CSBlock((k, k + 1), thetas[j]))
        pending[k], pending[k + 1] = left_top[j], left_bottom[j]
    elements.extend(InternalOp(mode, pending[mode]) for mode in sorted(pending, reverse=True))
    return Circuit(space, elements)


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


def decompose(u, space: ModeSpace) -> Circuit:
    """Full compilation: stage 1 followed by expansion of every CS mixer."""
    stage1 = decompose_stage1(u, space)
    elements = []
    for element in stage1.elements:
        if isinstance(element, CSBlock):
            elements.extend(expand_cs_block(element))
        else:
            elements.append(element)
    return Circuit(space, elements)
