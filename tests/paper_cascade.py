"""Two references for stage 1, meant for tests.

``cascade_stage1`` is the paper's iterative CS cascade. It builds the same
kind of circuit as ``decompose_stage1``, n_s^2 internal operations and
n_s(n_s-1)/2 CS mixers, by a different route: n_s(n_s-1)/2 CSDs of
shrinking full-size blocks instead of nulling adjacent block pairs. It
runs in O(n_s^2 N^3).

``column_stage1`` nulls the same blocks as ``decompose_stage1``, one QR at
a time in column-by-column order, and merges the internal operations one
product at a time. ``decompose_stage1`` must give the same circuit.
"""

import numpy as np

from modemix import Circuit, CSBlock, InternalOp, ModeSpace, csd
from modemix.csd import csd_stack


def cascade_stage1(u, space: ModeSpace) -> Circuit:
    """Factor ``u`` into internal operations and CS mixers by the cascade.

    Iteration j decouples spatial mode j from the rest: the current
    unitary is CS-decomposed with top block size n_p, the bottom-left
    factor is CS-decomposed again, and so on down the mode ladder. Each
    step emits an internal operation and a CS mixer and hands its
    bottom-right factor to an accumulator; the accumulated product acts on
    modes j+1..n_s only, commutes past everything emitted later in the
    iteration, and becomes the next iteration's input.
    """
    u = np.array(u, dtype=complex)
    n_s, n_p = space.n_s, space.n_p
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
            result = csd(block, n_p)
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


def column_stage1(u, space: ModeSpace) -> Circuit:
    """Stage 1 with the nulling steps taken one by one, column by column."""
    u = np.array(u, dtype=complex)
    n_s, n_p = space.n_s, space.n_p
    if n_s == 1:
        return Circuit(space, [InternalOp(1, u)])
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
