"""Cosine-sine decomposition (CSD) of unitary matrices.

Any (m+n) x (m+n) unitary U with m <= n factors as

    U = (L ⊕ L') · S · (R† ⊕ R'†)

where L, R are m x m unitary, L', R' are n x n unitary and S is the real
orthogonal cosine-sine matrix: diagonal cosine blocks, a +sin diagonal in
the top-right corner, a -sin diagonal in the bottom-left corner and an
identity tail of size n - m.

The factors are built from singular value decompositions of the diagonal
blocks of U. Because the SVD of a block only pins its singular vectors up
to rotations inside degenerate singular value clusters, a repair pass
re-rotates the factors cluster by cluster until the off-diagonal blocks
are diagonal too. Without this pass the construction fails on exactly the
inputs that matter in practice: permutations, real orthogonal matrices
and tensor products, all of which have heavily repeated singular values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .linalg import UNITARY_TOL, require_unitary, svd

# Cosines closer than this are treated as one degenerate cluster and
# repaired jointly.
DEGENERACY_TOL = 1e-8

# Cosine gaps slightly above the cluster tolerance sit in a blind spot:
# too wide to be repaired as one cluster, too narrow for the block SVDs
# to resolve the singular subspaces cleanly. When the first pass leaves a
# residual above _RETRY_TOL the repair reruns with coarser clustering and
# the best result wins.
_RETRY_TOL = 1e-12
_CLUSTER_LADDER = (DEGENERACY_TOL, 1e-6, 1e-4)


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
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    m = thetas.size
    if total_dim < 2 * m:
        raise DimensionError(
            f"total dimension {total_dim} cannot hold {m} mixing angles (needs at least {2 * m})"
        )
    s = np.eye(total_dim)
    idx = np.arange(m)
    cos, sin = np.cos(thetas), np.sin(thetas)
    s[idx, idx] = cos
    s[idx, idx + m] = sin
    s[idx + m, idx] = -sin
    s[idx + m, idx + m] = cos
    return s


def block_partition(u, m: int):
    """Split a square matrix into blocks A (m x m), B, C and D.

    A is the top-left m x m block, B the m x n top-right, C the n x m
    bottom-left and D the n x n bottom-right, with n = dim - m.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {u.shape}")
    dim = u.shape[0]
    if not 1 <= m < dim:
        raise DimensionError(f"block size m={m} must satisfy 1 <= m < {dim}")
    return (
        u[:m, :m].copy(),
        u[:m, m:].copy(),
        u[m:, :m].copy(),
        u[m:, m:].copy(),
    )


def _clusters(values, tol: float) -> list[list[int]]:
    """Maximal runs of a non-increasing sequence with gaps <= tol."""
    groups = []
    start = 0
    for i in range(1, len(values)):
        if values[i - 1] - values[i] > tol:
            groups.append(list(range(start, i)))
            start = i
    groups.append(list(range(start, len(values))))
    return groups


def _pairing_order(values, m: int) -> np.ndarray:
    """Column order putting the m smallest of ``values`` first, stably.

    ``values`` is non-increasing. The plain choice is a rotation by
    n - m, but any two entries closer than DEGENERACY_TOL are
    interchangeable, so within each such cluster columns keep their
    original relative positions. Fully degenerate spectra (an identity
    block, say) then keep their columns in place instead of being
    scrambled for nothing.
    """
    n = len(values)
    groups = _clusters(values, DEGENERACY_TOL)
    cluster = np.repeat(np.arange(len(groups)), [len(group) for group in groups])
    rotation = np.r_[np.arange(n - m, n), np.arange(n - m)]
    # The clusters are consecutive runs, so handing each cluster's indices
    # out in order to the positions it fills is a stable sort by cluster.
    perm = np.empty(n, dtype=int)
    perm[np.argsort(cluster[rotation], kind="stable")] = np.arange(n)
    return perm


def _group_svd_factors(sub, k: int):
    """Rotations diagonalizing one cluster's sub-block of L†BR' or L'†CR.

    The SVD sorts the cluster's sines in decreasing order while the global
    convention is decreasing cosines, i.e. increasing sines, so when the
    sines within the cluster are resolvable the column order is reversed
    on both sides. Clusters of equal sines are left in SVD order, which
    keeps the factors of already-diagonal inputs untouched.
    """
    x, s, yh = np.linalg.svd(sub)
    y = yh.conj().T
    if k > 1 and s[0] - s[k - 1] > 1e-12:
        order = np.r_[np.arange(k)[::-1], np.arange(k, y.shape[1])]
        x = x[:, order[:k]]
        y = y[:, order]
    return x, y


def _repair_and_extract(blocks, factors, cosines, m, n, cluster_tol) -> CSDResult:
    """Rotate the raw SVD factors into exact cosine-sine form.

    Repairs the rotation freedom inside each degenerate cosine cluster so
    that L†BR' and L'†CR become diagonal. A cluster at cos ≈ 1 shares
    singular values with D's identity tail, so the tail columns join its
    repair. A cluster at cos ≈ 0 leaves A's left and right singular
    vectors unpaired, so its C-side is fixed by a second, independent
    rotation.
    """
    a, b, c, _ = blocks
    lt, rt, lb, rb = (f.copy() for f in factors)
    for group in _clusters(cosines, cluster_tol):
        near_one = 1.0 - cosines[group[0]] <= cluster_tol
        near_zero = cosines[group[-1]] <= cluster_tol
        if len(group) == 1 and not (near_one or near_zero):
            continue
        cols = group + list(range(m, n)) if near_one else group
        x, y = _group_svd_factors(lt[:, group].conj().T @ b @ rb[:, cols], len(group))
        lt[:, group] = lt[:, group] @ x
        if not near_zero:
            rt[:, group] = rt[:, group] @ x
        rb[:, cols] = rb[:, cols] @ y
        lb[:, cols] = lb[:, cols] @ y
        if near_zero:
            xc, yc = _group_svd_factors(lb[:, group].conj().T @ c @ rt[:, group], len(group))
            lb[:, group] = -(lb[:, group] @ xc)
            rt[:, group] = rt[:, group] @ yc

    # Absorb the residual phases of the sine diagonal into L and R. Both
    # factors take the same phase so the cosine diagonal stays real; the
    # minus-sine diagonal then comes out real automatically by unitarity.
    # Zero sines carry no phase information and keep phase 1.
    diag_b = np.diagonal(lt.conj().T @ b @ rb).copy()
    sines = np.abs(diag_b)
    phases = np.where(sines > 0, diag_b / np.where(sines > 0, sines, 1.0), 1.0 + 0.0j)
    lt = lt * phases
    rt = rt * phases

    diag_a = np.diagonal(lt.conj().T @ a @ rt).real
    thetas = np.clip(np.arctan2(sines, diag_a), 0.0, np.pi / 2)
    return CSDResult(lt, lb, thetas, rt, rb, m, n)


def csd(u, m: int, tol: float = UNITARY_TOL) -> CSDResult:
    """Cosine-sine decompose a unitary matrix with top block size ``m``.

    Only m <= n is supported. Raises ``UnitarityError`` (carrying the
    measured deviation) if the input is not unitary within ``tol`` and
    ``DimensionError`` for invalid block sizes.
    """
    u = np.asarray(u, dtype=complex)
    blocks = block_partition(u, m)
    n = u.shape[0] - m
    if m > n:
        raise DimensionError(f"top block m={m} exceeds bottom block n={n}; only m <= n is supported")
    require_unitary(u, tol, "input")

    a, _, _, d = blocks
    lt, cosines, rt = svd(a)
    lb, d_singulars, rb = svd(d)

    # The singular values of D are the m cosines plus n - m ones. Reorder
    # the D factors so their diagonal reads (cos θ_1 .. cos θ_m, 1, .., 1):
    # the m smallest values, still in non-increasing order, come first.
    order = _pairing_order(d_singulars, m)
    factors = (lt, rt, lb[:, order], rb[:, order])

    best = None
    best_error = np.inf
    for cluster_tol in _CLUSTER_LADDER:
        result = _repair_and_extract(blocks, factors, cosines, m, n, cluster_tol)
        error = float(np.max(np.abs(result.assemble() - u)))
        if error <= _RETRY_TOL:
            return result
        if error < best_error:
            best, best_error = result, error
    return best
