"""Computations the benchmark checks the program against, written apart from it.

Nothing here imports the program. Circuits are handled as lists of
``(kind, spatial_index, payload)`` tuples in application order, where kind
is ``"internal"`` (payload: an n_p x n_p matrix), ``"phase_block"``
(payload: n_p phases) or ``"beamsplitter"`` (payload: the conjugate flag;
the index is the lower mode k of the adjacent pair (k, k+1)). Indices are
1-based and the composite basis is spatial-major, as in the paper.
"""

from __future__ import annotations

import numpy as np

# The paper's balanced beamsplitter on a pair of spatial modes; it acts as
# B ⊗ 1 on the pair's 2 n_p internal modes.
BEAMSPLITTER = np.array([[1, 1j], [1j, 1]]) / np.sqrt(2)

KINDS = ("internal", "beamsplitter", "phase_block")


def max_abs(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def unitarity_defect(m) -> float:
    m = np.asarray(m)
    return max_abs(m.conj().T @ m, np.eye(m.shape[0]))


def paper_counts(n_s: int) -> dict:
    """Element counts of a full decomposition, as the paper derives them."""
    return {"internal": n_s**2, "beamsplitter": n_s * (n_s - 1), "phase_block": n_s * (n_s - 1)}


def count_elements(elements) -> dict:
    counts = dict.fromkeys(KINDS, 0)
    for kind, _, _ in elements:
        counts[kind] += 1
    return counts


def _lower_mode(pair) -> int:
    k, l = (int(v) for v in pair)
    if l != k + 1:
        raise ValueError(f"beamsplitter pair {tuple(pair)} is not adjacent")
    return k


def elements_from_circuit(circuit) -> list:
    """Reference form of a program ``Circuit``, read by attribute only."""
    out = []
    for element in circuit.elements:
        kind = type(element).__name__
        if kind == "InternalOp":
            out.append(("internal", int(element.mode), np.asarray(element.matrix)))
        elif kind == "PhaseBlock":
            out.append(("phase_block", int(element.mode), np.asarray(element.phases)))
        elif kind == "Beamsplitter":
            out.append(("beamsplitter", _lower_mode(element.pair), bool(element.conjugate)))
        else:
            raise ValueError(f"unexpected element type {kind}")
    return out


def elements_from_json(doc) -> list:
    """Reference form of a circuit document already read with plain ``json``."""
    out = []
    for obj in doc["elements"]:
        kind = obj["kind"]
        if kind == "internal":
            matrix = np.array([[complex(re, im) for re, im in row] for row in obj["matrix"]])
            out.append(("internal", obj["spatial_index"], matrix))
        elif kind == "phase_block":
            out.append(("phase_block", obj["spatial_index"], np.array(obj["phases"], dtype=float)))
        elif kind == "beamsplitter":
            out.append(("beamsplitter", _lower_mode(obj["spatial_pair"]), obj["conjugate"]))
        else:
            raise ValueError(f"unexpected element kind {kind!r}")
    return out


def reconstruct(n_s: int, n_p: int, elements) -> np.ndarray:
    """Total matrix of a circuit, applying each element to its own rows only.

    An internal op multiplies the n_p rows of its spatial mode, a phase
    block scales them, and a beamsplitter mixes the rows of its two modes
    pairwise. No dense N x N element matrix is ever formed.
    """
    out = np.eye(n_s * n_p, dtype=complex)
    for kind, k, payload in elements:
        last = n_s - 1 if kind == "beamsplitter" else n_s
        if not 1 <= k <= last:
            raise ValueError(f"{kind} on spatial mode {k} is out of range for {n_s} modes")
        rows = slice((k - 1) * n_p, k * n_p)
        if kind == "internal":
            if payload.shape != (n_p, n_p):
                raise ValueError(f"internal op of shape {payload.shape} on {n_p} internal modes")
            out[rows] = payload @ out[rows]
        elif kind == "phase_block":
            if payload.shape != (n_p,):
                raise ValueError(f"phase block of shape {payload.shape} on {n_p} internal modes")
            out[rows] *= np.exp(1j * payload)[:, None]
        else:
            b = BEAMSPLITTER.conj().T if payload else BEAMSPLITTER
            upper, lower = out[rows].copy(), out[k * n_p : (k + 1) * n_p].copy()
            out[rows] = b[0, 0] * upper + b[0, 1] * lower
            out[k * n_p : (k + 1) * n_p] = b[1, 0] * upper + b[1, 1] * lower
    return out


def parse_matrix_text(text: str) -> np.ndarray:
    """Read the program's matrix text format: a 'rows cols' line, then entries."""
    header, _, body = text.strip().partition("\n")
    rows, cols = (int(field) for field in header.split())
    return np.array([complex(token) for token in body.split()]).reshape(rows, cols)


def cosine_sine(thetas, dim: int) -> np.ndarray:
    """S(θ): cos on both diagonals, +sin top-right, -sin bottom-left, identity tail."""
    m = len(thetas)
    s = np.eye(dim)
    i = np.arange(m)
    s[i, i] = s[i + m, i + m] = np.cos(thetas)
    s[i, i + m] = np.sin(thetas)
    s[i + m, i] = -np.sin(thetas)
    return s


def csd_residual(u, left_top, left_bottom, thetas, right_top, right_bottom) -> float:
    """max|(L ⊕ L') S(θ) (R† ⊕ R'†) - U|, assembled block by block."""
    u = np.asarray(u)
    m = len(thetas)
    c, s = np.cos(thetas), np.sin(thetas)
    c_bottom = np.ones(left_bottom.shape[0])
    c_bottom[:m] = c
    rt_h, rb_h = right_top.conj().T, right_bottom.conj().T
    return max(
        max_abs((left_top * c) @ rt_h, u[:m, :m]),
        max_abs((left_top * s) @ rb_h[:m], u[:m, m:]),
        max_abs(-(left_bottom[:, :m] * s) @ rt_h, u[m:, :m]),
        max_abs((left_bottom * c_bottom) @ rb_h, u[m:, m:]),
    )
