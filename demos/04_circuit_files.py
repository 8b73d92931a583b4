"""
Circuit and matrix files
========================

Circuits serialize to versioned JSON and matrices to a plain text format,
both at full float64 precision, so a decomposition can be stored, shipped
and re-verified bit for bit. This is the same pipeline the command line
exposes as `modemix random | decompose | verify`.
"""

import json

import numpy as np

from modemix import (
    ModeSpace,
    decompose,
    deserialize,
    format_matrix,
    haar_random_unitary,
    parse_matrix,
    reconstruct,
    serialize,
)

space = ModeSpace(2, 2)
u = haar_random_unitary(4, seed=8)

# matrix text round trip is exact
text = format_matrix(u)
print("matrix file starts with:")
print("\n".join(text.splitlines()[:2]))
assert np.array_equal(parse_matrix(text), u)

# circuit JSON round trip is exact too
circuit = decompose(u, space)
document = serialize(circuit)
head = json.loads(document)
print(f"\ncircuit document: format_version={head['format_version']}, "
      f"n_s={head['n_s']}, n_p={head['n_p']}, {len(head['elements'])} elements")
print("first element:", json.dumps(head["elements"][2]))

restored = deserialize(document)
assert restored == circuit  # the same elements, every value equal
error = np.max(np.abs(reconstruct(restored) - u))
print(f"\nread circuit equals the written one: {restored == circuit}")
print(f"reconstruction error after round trip: {error:.2e}")

# tampering with a single phase is caught by re-verification
head["elements"][3]["phases"][0] += 0.1
tampered = deserialize(json.dumps(head))
error = np.max(np.abs(reconstruct(tampered) - u))
print(f"reconstruction error after tampering one phase: {error:.2e}")
