"""Dense complex matrix arithmetic used by every other module.

Matrices are plain 2-D ``numpy.ndarray`` objects with dtype complex128,
row-major; ``svd`` and ``unitarity_defect`` also take a stack of them.
All operations are pure functions; nothing here mutates its arguments.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, MatrixFormatError, UnitarityError

# The one unitarity gate, read only by ``require_unitary``: every matrix the
# program factors or reads as an op must be unitary to within it. End-to-end
# reconstructions are held to 1e-9 instead (CLI ``--tol``), which leaves room
# for error growth over the O(n_s^2) factor multiplications of a decomposition.
UNITARY_TOL = 1e-10


def _as_stack(a) -> np.ndarray:
    """Coerce ``a`` to a finite complex128 matrix or stack of matrices."""
    m = np.asarray(a, dtype=complex)
    if m.ndim < 2:
        raise DimensionError(f"expected a matrix or a stack of matrices, got {m.ndim} dimensions")
    if m.size and not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    return m


def unitarity_defect(m) -> float:
    """Largest absolute entry of M†M - 1 for a square matrix M, or over a stack of them."""
    m = _as_stack(m)
    if m.shape[-1] != m.shape[-2]:
        raise DimensionError(f"unitarity is defined for square matrices, got shape {m.shape}")
    eye = np.eye(m.shape[-1])
    return float(np.max(np.abs(m.conj().swapaxes(-1, -2) @ m - eye))) if m.size else 0.0


def require_unitary(m, what: str) -> None:
    """Raise ``UnitarityError``, naming ``what``, unless max|M†M - 1| is at most ``UNITARY_TOL``."""
    defect = unitarity_defect(m)
    if not defect <= UNITARY_TOL:  # a defect that overflowed to NaN admits nothing
        raise UnitarityError(
            f"{what} is not unitary: deviation {defect:.3e} exceeds tolerance {UNITARY_TOL:.1e}",
            deviation=defect,
        )


def svd(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular value decomposition ``M = left @ diag(singulars) @ right†``.

    Returns ``(left, singulars, right)``. For an m x n matrix ``left`` is
    m x m unitary, ``right`` is n x n unitary (V itself, not its adjoint)
    and ``singulars`` holds the min(m, n) singular values in non-increasing
    order. A stack of matrices gives a stack of each factor. Delegates to
    LAPACK through numpy.
    """
    m = _as_stack(m)
    left, singulars, vh = np.linalg.svd(m, full_matrices=True)
    return left, singulars, vh.conj().swapaxes(-1, -2)


def haar_random_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-distributed random unitary, deterministic for a fixed seed.

    Uses the standard construction: QR of a complex Gaussian matrix with
    the R diagonal's phases folded back into Q so the distribution is
    exactly Haar rather than QR-convention biased.
    """
    if dim < 1:
        raise DimensionError(f"dimension must be at least 1, got {dim}")
    if dim > math.isqrt(np.iinfo(np.intp).max // 16):  # numpy's limit on an array's bytes
        raise DimensionError(f"dimension {dim} is too large for a {dim}x{dim} complex array")
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    phases = d / np.abs(np.where(d == 0, 1, d))
    return q * phases


# --- matrix text format -------------------------------------------------
#
# First line: "rows cols". Then rows x cols whitespace-separated complex
# entries in row-major order, each written as re+imj (e.g. 0.5-0.25j) with
# 17 significant digits so float64 values round-trip exactly.


def format_matrix(m) -> str:
    """Render a matrix in the text format, one row per line.

    Each row goes through one format string over its float view, so no
    Python float list of the whole matrix is held.
    """
    m = _as_stack(m)
    if m.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got {m.ndim} dimensions")
    if not m.size:  # the text format has no empty matrix
        raise DimensionError(f"expected a non-empty matrix, got shape {m.shape}")
    row_format = " ".join(["%.17g%+.17gj"] * m.shape[1])
    rows = (row_format % tuple(row.tolist()) for row in np.ascontiguousarray(m).view(float))
    return f"{m.shape[0]} {m.shape[1]}\n" + "\n".join(rows) + "\n"


def parse_matrix(text: str) -> np.ndarray:
    """Parse the matrix text format back into a complex array."""
    stripped = text.strip()
    if not stripped:
        raise MatrixFormatError("empty matrix document")
    header, _, body = stripped.partition("\n")
    fields = header.split()
    if len(fields) != 2:
        raise MatrixFormatError(f"expected header 'rows cols', got {header!r}")
    try:
        rows, cols = int(fields[0]), int(fields[1])
    except ValueError as exc:
        raise MatrixFormatError(f"non-integer matrix dimensions in header {header!r}") from exc
    if rows < 1 or cols < 1:
        raise MatrixFormatError(f"matrix dimensions must be positive, got {rows}x{cols}")
    tokens = body.split()
    if len(tokens) != rows * cols:
        raise MatrixFormatError(
            f"expected {rows * cols} entries for a {rows}x{cols} matrix, found {len(tokens)}"
        )
    try:
        entries = [complex(token) for token in tokens]
    except ValueError as exc:
        raise MatrixFormatError(f"unparseable complex entry: {exc}") from exc
    m = np.array(entries, dtype=complex).reshape(rows, cols)
    if not np.all(np.isfinite(m)):
        raise MatrixFormatError("matrix contains non-finite entries")
    return m


def save_matrix(path, m) -> None:
    text = format_matrix(m)  # before the file is opened, so a refused matrix writes nothing
    with open(path, "w", encoding="ascii") as handle:
        handle.write(text)


def load_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as handle:
        return parse_matrix(handle.read())
