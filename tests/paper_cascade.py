"""The paper's iterative CS cascade, kept as a reference for stage 1.

It builds the same kind of circuit as ``decompose_stage1``, n_s^2
internal operations and n_s(n_s-1)/2 CS mixers, by a different route:
n_s(n_s-1)/2 CSDs of shrinking full-size blocks instead of nulling
adjacent block pairs. It runs in O(n_s^2 N^3) and is meant for tests.
"""

import numpy as np

from modemix import Circuit, CSBlock, InternalOp, ModeSpace, csd


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
