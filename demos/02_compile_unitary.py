"""
Compiling a unitary onto spatial and internal modes
===================================================

An 8 x 8 unitary can be realized on 4 spatial modes carrying 2 internal
modes each (polarization, say). Stage 1 nulls the off-diagonal blocks
with unitaries on adjacent spatial mode pairs and cosine-sine decomposes
all of them at once, leaving internal operations and CS mixers; stage 2
turns every mixer into two balanced beamsplitters plus two phase blocks.
"""

import numpy as np

from modemix import (
    Beamsplitter,
    CSBlock,
    InternalOp,
    ModeSpace,
    PhaseBlock,
    decompose,
    decompose_stage1,
    haar_random_unitary,
    reconstruct,
)

space = ModeSpace(n_s=4, n_p=2)
u = haar_random_unitary(space.dim, seed=5)

stage1 = decompose_stage1(u, space)
internal = sum(isinstance(e, InternalOp) for e in stage1.elements)
mixers = sum(isinstance(e, CSBlock) for e in stage1.elements)
print(f"stage 1: {internal} internal operations + {mixers} CS mixers "
      f"(expected {space.n_s**2} and {space.n_s * (space.n_s - 1) // 2})")
print(f"stage 1 reconstruction error: {np.max(np.abs(reconstruct(stage1) - u)):.2e}")

circuit = decompose(u, space)
beamsplitters = sum(isinstance(e, Beamsplitter) for e in circuit.elements)
phases = sum(isinstance(e, PhaseBlock) for e in circuit.elements)
internal = sum(isinstance(e, InternalOp) for e in circuit.elements)
print(f"\nstage 2: {beamsplitters} beamsplitters, {internal} internal operations, "
      f"{phases} phase blocks")

# the first few elements, in the order the light meets them
def describe(element):
    if isinstance(element, InternalOp):
        return f"internal op on spatial mode {element.mode}"
    if isinstance(element, Beamsplitter):
        tag = "conjugated " if element.conjugate else ""
        return f"{tag}beamsplitter on modes {element.pair}"
    if isinstance(element, PhaseBlock):
        return f"phase block on mode {element.mode}, phases {np.round(element.phases, 3)}"
    return str(element)

print("\nfirst elements in application order:")
for element in circuit.elements[:6]:
    print("  ", describe(element))

error = np.max(np.abs(reconstruct(circuit) - u))
print(f"\nfull circuit reconstruction error: {error:.2e}")
