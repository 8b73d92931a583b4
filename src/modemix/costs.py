"""Element counting and cost ratios against a spatial-only mesh.

The baseline is the classic triangular mesh realizing an N x N unitary on
N spatial modes with N(N-1)/2 biased beamsplitters and N(N+1)/2 phase
shifters, N = n_s * n_p. The internal element estimate uses the generic
counting rules: n_p^2 optical elements per arbitrary internal operation
and n_p per diagonal phase block.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .circuits import BEAMSPLITTER, CS, INTERNAL, PHASE, Circuit, ModeSpace


@dataclass(frozen=True)
class CostReport:
    """Element counts and comparison ratios for one mode space.

    ``eta`` is the beamsplitter reduction factor relative to the
    spatial-only baseline, ``xi`` the internal element increase factor.
    Both are None for n_s = 1, where the baseline ratio is undefined.
    """

    n_s: int
    n_p: int
    beamsplitters: int
    internal_arbitrary: int
    internal_phase_blocks: int
    internal_element_estimate: int
    reck_beamsplitters: int
    reck_phase_shifters: int
    eta: Optional[float]
    xi: Optional[float]


def _report(space: ModeSpace, beamsplitters: int, arbitrary: int, phase_blocks: int) -> CostReport:
    n_s, n_p = space.n_s, space.n_p
    total = n_s * n_p
    estimate = arbitrary * n_p**2 + phase_blocks * n_p
    reck_bs = total * (total - 1) // 2
    reck_ps = total * (total + 1) // 2
    undefined = n_s == 1
    return CostReport(
        n_s=n_s,
        n_p=n_p,
        beamsplitters=beamsplitters,
        internal_arbitrary=arbitrary,
        internal_phase_blocks=phase_blocks,
        internal_element_estimate=estimate,
        reck_beamsplitters=reck_bs,
        reck_phase_shifters=reck_ps,
        eta=None if undefined or beamsplitters == 0 else reck_bs / beamsplitters,
        xi=None if undefined else estimate / reck_ps,
    )


def cost_report(space: ModeSpace) -> CostReport:
    """Predicted element counts and ratios for a full decomposition."""
    n_s = space.n_s
    return _report(space, beamsplitters=n_s * (n_s - 1), arbitrary=n_s**2, phase_blocks=n_s * (n_s - 1))


def audit_circuit(circuit: Circuit) -> CostReport:
    """Tally the element kinds of a compiled circuit (see ``_tally``) into a report.

    Refuses stage-1 circuits, which still contain CS mixers: expand them
    first.
    """
    beamsplitters, internal, phase_blocks, cs_blocks = _tally(circuit)
    if cs_blocks:
        raise ValueError("circuit contains CS blocks; expand them (stage 2) before auditing")
    return _report(circuit.space, beamsplitters, internal, phase_blocks)


def _tally(circuit: Circuit) -> tuple[int, int, int, int]:
    """Beamsplitters of either flag, internal ops, phase blocks and CS blocks in a circuit's record."""
    counts = Counter(circuit._record[-1])
    return counts[BEAMSPLITTER], counts[INTERNAL], counts[PHASE], counts[CS]
