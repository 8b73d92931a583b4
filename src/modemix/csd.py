"""Cosine-sine decomposition (CSD) of unitary matrices.

Any (m+n) x (m+n) unitary U with m <= n factors as

    U = (L ⊕ L') · S · (R† ⊕ R'†)

where L, R are m x m unitary, L', R' are n x n unitary and S is the real
orthogonal cosine-sine matrix: diagonal cosine blocks, a +sin diagonal in
the top-right corner, a -sin diagonal in the bottom-left corner and an
identity tail of size n - m.

All four factors follow from one SVD of the top-left block, after
Stewart (Numer. Math. 40, 297-306, 1982). The SVD A = L·cos(θ)·R† fixes L
and R together, so no second SVD has to be paired with it by clustering
equal singular values. The columns of C·R are orthogonal with norms
sin(θ). Taken in order of decreasing sine, their QR factorization
C·R = L'·T has a T that is diagonal to rounding in every column whose sine
is at least 1/√2: an off-diagonal entry there is rounding over a sine. The
columns with smaller sines form one square block of T, and one SVD of that
block rotates them onto the diagonal. Applied to L and R alike, the
rotation keeps the cosine block diagonal to rounding, because above 1/√2
cosines move less than sines do. R' is then read off U†(L ⊕ L')S with no
division by a sine.

The construction is written once, over a stack of unitaries of one size:
stage 1 decomposes all its adjacent-mode unitaries in one call, and
``csd`` is the case of a single matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .linalg import _numbers, require_unitary, svd


@dataclass(frozen=True)
class CSDResult:
    """The five factors of one cosine-sine decomposition."""

    left_top: np.ndarray      # L, m x m unitary
    left_bottom: np.ndarray   # L', n x n unitary
    thetas: np.ndarray        # m mixing angles in [0, pi/2], cosines non-increasing
    right_top: np.ndarray     # R, m x m unitary; enters the product as R†
    right_bottom: np.ndarray  # R', n x n unitary; enters the product as R'†
    m: int
    n: int

    def assemble(self) -> np.ndarray:
        """Multiply the factors back together: (L ⊕ L') S (R† ⊕ R'†)."""
        dim = self.m + self.n
        left = np.zeros((dim, dim), dtype=complex)
        left[: self.m, : self.m] = self.left_top
        left[self.m :, self.m :] = self.left_bottom
        right = np.zeros((dim, dim), dtype=complex)
        right[: self.m, : self.m] = self.right_top.conj().T
        right[self.m :, self.m :] = self.right_bottom.conj().T
        return left @ cs_matrix(self.thetas, dim) @ right


def cs_matrix(thetas, total_dim: int) -> np.ndarray:
    """Cosine-sine matrix for the given mixing angles, padded with identity.

    Returns the real orthogonal ``total_dim`` x ``total_dim`` matrix with
    cos(theta_i) at positions (i, i) and (i+m, i+m), +sin(theta_i) at
    (i, i+m), -sin(theta_i) at (i+m, i) and ones on the remaining diagonal.
    A stack of angle vectors, shape (..., m), gives a stack of matrices.
    Angles that are not integers or floats raise ``TypeError``, as in a circuit.
    """
    thetas = np.atleast_1d(_numbers(cs_matrix, thetas, "thetas", float))
    m = thetas.shape[-1]
    if total_dim < 2 * m:
        raise DimensionError(
            f"total dimension {total_dim} cannot hold {m} mixing angles (needs at least {2 * m})"
        )
    s = np.zeros((*thetas.shape[:-1], total_dim, total_dim))
    diagonal = np.arange(total_dim)
    s[..., diagonal, diagonal] = 1.0
    idx = np.arange(m)
    cos, sin = np.cos(thetas), np.sin(thetas)
    s[..., idx, idx] = cos
    s[..., idx, idx + m] = sin
    s[..., idx + m, idx] = -sin
    s[..., idx + m, idx + m] = cos
    return s


def block_partition(u, m: int):
    """Split a square matrix into blocks A (m x m), B, C and D.

    A is the top-left m x m block, B the m x n top-right, C the n x m
    bottom-left and D the n x n bottom-right, with n = dim - m. Raises
    ``TypeError`` for a matrix that does not hold integers, floats or
    complex numbers.
    """
    u = _numbers(block_partition, u, "input", complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {u.shape}")
    dim = u.shape[0]
    if not 1 <= m < dim:
        raise DimensionError(f"block size m={m} must satisfy 1 <= m < {dim}")
    return u[:m, :m].copy(), u[:m, m:].copy(), u[m:, :m].copy(), u[m:, m:].copy()


def csd(u, m: int) -> CSDResult:
    """Cosine-sine decompose a unitary matrix with top block size ``m``.

    Only m <= n is supported. Raises ``TypeError`` for an input that does
    not hold integers, floats or complex numbers, ``UnitarityError``
    (carrying the measured deviation) if it fails ``require_unitary`` and
    ``DimensionError`` for invalid block sizes.
    """
    u = _numbers(csd, u, "input", complex)
    block_partition(u, m)  # for its square and block-size checks
    n = u.shape[0] - m
    if m > n:
        raise DimensionError(f"top block m={m} exceeds bottom block n={n}; only m <= n is supported")
    require_unitary(u, "input")
    factors = csd_stack(u[np.newaxis], m)
    return CSDResult(*(f[0] for f in factors), m, n)


def csd_stack(u: np.ndarray, m: int) -> tuple:
    """CSD factors (L, L', θ, R, R') of every unitary in a (K, m+n, m+n) stack.

    The inputs are taken as unitary and m <= n, unchecked. Each factor
    gains the leading stack axis. The one step that differs between
    matrices, straightening the k columns whose sine is below 1/√2, runs
    once per distinct k.
    """
    n = u.shape[-1] - m
    a, b, c, d = u[:, :m, :m], u[:, :m, m:], u[:, m:, :m], u[:, m:, m:]
    # Reverse the SVD's columns so that sines decrease from left to right.
    lt, cosines, rt = svd(a)
    lt, rt = lt[..., ::-1], rt[..., ::-1]
    lb, tri = np.linalg.qr(c @ rt, mode="complete")
    ks = np.count_nonzero(cosines > np.sqrt(0.5), axis=-1)
    # The distinct k > 0 in ascending order; np.unique would import numpy.ma.
    for k in np.flatnonzero(np.bincount(ks)[1:]) + 1:
        group = np.flatnonzero(ks == k)
        x, _, y = svd(tri[group, m - k : m, m - k :])
        lt[group, :, m - k :] = lt[group, :, m - k :] @ y
        rt[group, :, m - k :] = rt[group, :, m - k :] @ y
        lb[group, :, m - k : m] = lb[group, :, m - k : m] @ x
    lt, rt = lt[..., ::-1], rt[..., ::-1]
    lb[..., :m] = lb[..., m - 1 :: -1]

    # Give L' the phases that make diag(L'†CR) = -sin θ. Zero sines carry
    # no phase information and keep phase 1.
    diag_c = np.einsum("kij,kij->kj", lb[..., :m].conj(), c @ rt)
    sines = np.abs(diag_c)
    lb[..., :m] *= np.where(sines > 0, -diag_c / np.where(sines > 0, sines, 1.0), 1.0)[:, np.newaxis]
    diag_a = np.einsum("kij,kij->kj", lt.conj(), a @ rt).real
    thetas = np.clip(np.arctan2(sines, diag_a), 0.0, np.pi / 2)

    # R' is the bottom-right block of U†(L ⊕ L')S.
    scale = np.concatenate([np.cos(thetas), np.ones((len(u), n - m))], axis=-1)
    rb = d.conj().swapaxes(1, 2) @ (lb * scale[:, np.newaxis])
    rb[..., :m] += b.conj().swapaxes(1, 2) @ (lt * np.sin(thetas)[:, np.newaxis])
    return lt, lb, thetas, rt, rb
