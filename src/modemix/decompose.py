"""Two-stage compilation of a unitary into elementary optical operations.

Stage 1 reduces the unitary to block-diagonal form by nulling its
off-diagonal blocks with unitaries on adjacent spatial mode pairs, as
Reck et al. (PRL 73, 58, 1994) null single entries with beamsplitters.
The nulling steps run in 2n_s - 4 waves of steps on disjoint mode pairs,
the parallel Givens ordering of Sameh and Kuck (J. ACM 25, 81, 1978), so
each wave is one stacked QR. All these 2n_p x 2n_p unitaries are then
cosine-sine decomposed in one stacked call, leaving only internal
operations and CS mixers between adjacent spatial modes. Stage 2
replaces every CS mixer with two balanced beamsplitters and two diagonal
phase blocks, so the final circuit contains nothing an optics bench
cannot provide.

For an ``n_s`` x ``n_p`` mode space the output holds exactly n_s^2
internal operations and n_s(n_s-1)/2 CS mixers after stage 1, hence
n_s(n_s-1) beamsplitters and n_s(n_s-1) phase blocks after stage 2.
"""

from __future__ import annotations

import numpy as np

from .circuits import BEAMSPLITTER, CS, INTERNAL, PHASE, Beamsplitter, Circuit, CSBlock, ModeSpace, PhaseBlock
from .circuits import _held
from .csd import csd_stack
from .errors import DimensionError
from .linalg import _numbers, require_unitary


def _factor(u, space: ModeSpace, owner) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stage 1's factors of ``u``: the core that both ``decompose_stage1`` and ``decompose`` build from.

    Step (c, r), for column block c and row block r > c, takes one complete
    QR of blocks (r-1, c) and (r, c) stacked; its Q is a unitary on spatial
    modes (r-1, r) whose adjoint zeros block (r, c). Done column by column,
    and from the bottom row block up, the steps leave each diagonal block
    unitary and alone in its column. Step (c, r) runs in wave
    t = (n_s - r) + 2(c - 1). Every step that this order puts before it on
    row block r-1 or r is in an earlier wave, and the steps of one wave act
    on disjoint row pairs, so the 2n_s - 4 waves, each one stacked QR and
    one stacked update, compute the column-by-column product. This is the
    parallel Givens ordering of Sameh and Kuck (J. ACM 25, 81, 1978). The
    last 2n_p x 2n_p block is taken whole instead of nulled, so that
    U = Q_1 ... Q_K-1 (D ⊕ V) with D block diagonal. V and the Q's are
    CS-decomposed together; each gives a CS mixer with an internal
    operation on either side on both of its modes, and the internal
    operations that meet on one mode between two of its mixers are
    multiplied into one, all in one stacked product.

    ``u`` must hold integers, floats or complex numbers; ``owner``, the
    compiler called, names it in the ``TypeError``.

    Returns the first spatial mode k of each mixer in application order, as
    an integer array; the mixers' angles, one row each; and the stack of internal
    ops in application order: ops[2j] on mode k+1 and ops[2j+1] on mode k
    before mixer j, then the n_s ops after the last mixer, on modes n_s down
    to 1.
    """
    # A copy, because the nulling works in place and, at n_s = 1, the
    # input itself is the one internal op.
    u = np.array(_numbers(owner, u, "input", complex))
    if u.shape != (space.dim, space.dim):
        raise DimensionError(
            f"matrix shape {u.shape} does not match mode space "
            f"{space.n_s}x{space.n_p} (dimension {space.dim})"
        )
    require_unitary(u, "input")
    n_s, n_p = space.n_s, space.n_p
    if n_s == 1:
        return np.empty(0, dtype=int), np.empty((0, n_p)), u[None]

    # The 2n_p x 2n_p unitaries in application order, V first and then the
    # Q's from last to first, each with the upper of its two spatial modes.
    # Block indices r and c are 1-based, like spatial modes. The steps are
    # listed column by column and from the bottom up, the order that gives
    # each Q its slot; the last column's one step is V's, taken whole.
    count = n_s * (n_s - 1) // 2
    unitaries = np.empty((count, 2 * n_p, 2 * n_p), dtype=complex)
    above, below = np.triu_indices(n_s, 1)
    c, r = above[:-1] + 1, (n_s + 1 + above - below)[:-1]
    modes = np.concatenate([[n_s - 1], r[::-1] - 1])  # by slot: V's, then each step's r - 1, last step first
    wave = (n_s - r) + 2 * (c - 1)
    order = np.argsort(wave, kind="stable")
    widths = np.bincount(wave)
    ends = np.cumsum(widths)
    heads, slots = order[ends - widths], count - 1 - order
    # Per wave, read once as Python ints: its width, first column and row
    # blocks, and the end of its steps' slots.
    for w, c0, r0, end in zip(widths.tolist(), c[heads].tolist(), r[heads].tolist(), ends.tolist()):
        # Across a wave c steps by 1 and r by 2, so its row pairs tile one band,
        # and step s nulls column block s: the steps' blocks are a diagonal view.
        # Left of that block its rows hold nulled blocks, read by nothing.
        band = u[(r0 - 2) * n_p : (r0 - 2 + 2 * w) * n_p, (c0 - 1) * n_p :].reshape(w, 2 * n_p, -1)
        blocks = band[..., : w * n_p].reshape(w, 2 * n_p, w, n_p).diagonal(axis1=0, axis2=2)
        q, _ = np.linalg.qr(blocks.transpose(2, 0, 1), mode="complete")
        band[...] = q.conj().swapaxes(1, 2) @ band
        unitaries[slots[end - w : end]] = q
    unitaries[0] = u[-2 * n_p :, -2 * n_p :]

    left_top, left_bottom, thetas, right_top, right_bottom = csd_stack(unitaries, n_p)
    del unitaries  # so that the merge's stacks stay under csd_stack's memory peak
    # Mixer j's right factors act first, lower mode first: for j >= 1,
    # rights[2j-2] on mode k+1 and rights[2j-1] on mode k. lefts holds its
    # left factors L' at j and L at count + j, then the diagonal blocks
    # D_1 .. D_(n_s-2). A scan over the mixers keeps in last[mode] the index
    # in lefts of the op that mode carries; V's two right factors meet
    # nothing. The ops stack is a new array, so that the circuit keeps none
    # of the rest of those stacks alive.
    rights = np.stack([right_bottom[1:], right_top[1:]], axis=1).reshape(-1, n_p, n_p).conj().swapaxes(1, 2)
    diagonal = u.reshape(n_s, n_p, n_s, n_p)[range(n_s - 2), :, range(n_s - 2)]
    lefts = np.concatenate([left_bottom, left_top, diagonal])
    last = [None, *range(2 * count, 2 * count + n_s - 2), count, 0]
    before = []
    for j, k in enumerate(modes[1:].tolist(), 1):
        before += [last[k + 1], last[k]]
        last[k + 1], last[k] = j, count + j
    first = np.stack([right_bottom[0], right_top[0]]).conj().swapaxes(1, 2)
    ops = np.concatenate([first, rights @ lefts[before], lefts[last[:0:-1]]])
    return modes, thetas, ops


def _circuit(u, space: ModeSpace, expand: bool) -> Circuit:
    """The circuit of ``u`` as a record of ``_factor``'s stacks: the one builder of both compilers.

    Before each mixer come its two internal ops, lower mode first; after the
    last mixer come the n_s closing ops. A mixer is one CS block or, with
    ``expand``, ``expand_cs_block``'s four elements: conjugated beamsplitter,
    +θ phase block on its first mode, -θ phase block on its second, plain
    beamsplitter. The circuit builds its element objects when they are read.
    """
    firsts, thetas, ops = _factor(u, space, decompose if expand else decompose_stage1)
    pairs = np.stack([firsts, firsts + 1], axis=1)  # each mixer's modes k, k + 1
    modes, values = [[] for _ in range(4)], [[] for _ in range(4)]
    modes[INTERNAL] = pairs[:, ::-1].ravel().tolist() + list(range(space.n_s, 0, -1))
    values[INTERNAL] = ops
    if expand:
        modes[BEAMSPLITTER] = pairs[:, [0, 0]].ravel().tolist()
        values[BEAMSPLITTER] = np.tile([True, False], len(firsts))
        modes[PHASE] = pairs.ravel().tolist()
        values[PHASE] = np.stack([thetas, -thetas], axis=1).reshape(-1, space.n_p)
        mixer = [BEAMSPLITTER, PHASE, PHASE, BEAMSPLITTER]
    else:
        modes[CS], values[CS], mixer = firsts.tolist(), thetas, [CS]
    sequence = [INTERNAL, INTERNAL, *mixer] * len(firsts) + [INTERNAL] * space.n_s
    return _held(space, (modes, values, sequence))


def decompose_stage1(u, space: ModeSpace) -> Circuit:
    """Factor ``u`` into internal operations and CS mixers.

    Each mixer is one ``CSBlock`` on its row of ``_factor``'s angle stack,
    after the two internal ops before it.

    Raises ``TypeError`` for a matrix that is not of numbers,
    ``DimensionError`` for one whose shape does not match ``space``, and
    ``UnitarityError`` for an input outside ``UNITARY_TOL`` or, as the
    circuit is built, for internal ops that the input's defect plus
    rounding carries past it.
    """
    return _circuit(u, space, expand=False)


def expand_cs_block(block: CSBlock) -> list:
    """Realize a CS mixer as beamsplitters and phase blocks.

    S(θ) equals (B ⊗ 1) (Θ ⊕ Θ†) (B† ⊗ 1) with Θ = diag(exp(iθ)), so in
    application order the mixer becomes: conjugated beamsplitter, +θ phase
    block on the first mode of its pair, -θ phase block on the second, plain
    beamsplitter. ``decompose`` builds every mixer by this rule.
    """
    k, l = block.pair
    thetas = _numbers(type(block), block.thetas, "thetas", float)
    pair = (k, l)  # both beamsplitters share one pair tuple
    return [Beamsplitter(pair, conjugate=True), PhaseBlock(k, thetas.copy()), PhaseBlock(l, -thetas), Beamsplitter(pair)]


def decompose(u, space: ModeSpace) -> Circuit:
    """Full compilation: ``decompose_stage1`` with ``expand_cs_block`` applied to every mixer, bit for bit.

    Built from ``_factor``'s stacks with no stage-1 circuit on the way: the
    mixers' phase blocks are the rows of the angle stack and of its negation.
    Raises as ``decompose_stage1`` does, so the circuit it returns is one
    that ``serialize`` writes and ``deserialize`` reads back.
    """
    return _circuit(u, space, expand=True)
