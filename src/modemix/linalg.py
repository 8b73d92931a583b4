"""Dense complex matrix arithmetic used by every other module.

Matrices are plain 2-D ``numpy.ndarray`` objects with dtype complex128,
row-major. All operations are pure functions; nothing here mutates its
arguments.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DimensionError, MatrixFormatError, UnitarityError

# Default tolerance for unitarity checks. End-to-end reconstructions are
# held to 1e-9 instead, which leaves room for error growth over the
# O(n_s^2) factor multiplications of a full decomposition.
UNITARY_TOL = 1e-10


class SVDResult(NamedTuple):
    """Singular value decomposition ``M = left @ diag(singulars) @ right†``.

    ``left`` is m x m unitary, ``right`` is n x n unitary and ``singulars``
    holds the min(m, n) singular values in non-increasing order. For
    rectangular input the diagonal factor is rectangular as well.
    """

    left: np.ndarray
    singulars: np.ndarray
    right: np.ndarray


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a finite 2-D complex128 array."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got {m.ndim} dimensions")
    if m.size and not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    return m


def unitarity_defect(m) -> float:
    """Largest absolute entry of M†M - 1 for a square matrix M."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"unitarity is defined for square matrices, got shape {m.shape}")
    eye = np.eye(m.shape[0])
    return float(np.max(np.abs(m.conj().T @ m - eye))) if m.size else 0.0


def is_unitary(m, tol: float = UNITARY_TOL) -> bool:
    """Whether max|M†M - 1| is at most ``tol``."""
    return unitarity_defect(m) <= tol


def require_unitary(m, tol: float, what: str) -> None:
    """Raise ``UnitarityError``, naming ``what``, unless max|M†M - 1| is at most ``tol``."""
    defect = unitarity_defect(m)
    if not defect <= tol:  # a NaN tolerance admits nothing
        raise UnitarityError(
            f"{what} is not unitary: deviation {defect:.3e} exceeds tolerance {tol:.1e}",
            deviation=defect,
        )


def svd(m) -> SVDResult:
    """Singular value decomposition of a finite complex matrix.

    Delegates to LAPACK through numpy; the returned ``right`` factor is V
    itself (not its adjoint), so reconstruction reads
    ``left @ diag(singulars) @ right.conj().T``.
    """
    m = as_matrix(m)
    left, singulars, vh = np.linalg.svd(m, full_matrices=True)
    return SVDResult(left, singulars, vh.conj().T)


def haar_random_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-distributed random unitary, deterministic for a fixed seed.

    Uses the standard construction: QR of a complex Gaussian matrix with
    the R diagonal's phases folded back into Q so the distribution is
    exactly Haar rather than QR-convention biased.
    """
    if dim < 1:
        raise DimensionError(f"dimension must be at least 1, got {dim}")
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


def _format_entry(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}j"


def format_matrix(m) -> str:
    """Render a matrix in the text format, one row per line."""
    m = as_matrix(m)
    lines = [f"{m.shape[0]} {m.shape[1]}"]
    for row in m:
        lines.append(" ".join(_format_entry(z) for z in row))
    return "\n".join(lines) + "\n"


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
    with open(path, "w", encoding="ascii") as handle:
        handle.write(format_matrix(m))


def load_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as handle:
        return parse_matrix(handle.read())
