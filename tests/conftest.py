import gc

import numpy as np
import pytest

from modemix import UNITARY_TOL, cs_matrix, haar_random_unitary


def max_abs(a, b) -> float:
    """Largest entrywise deviation between two matrices."""
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def block_diag_unitary(top: np.ndarray, bottom: np.ndarray) -> np.ndarray:
    m, n = top.shape[0], bottom.shape[0]
    out = np.zeros((m + n, m + n), dtype=complex)
    out[:m, :m] = top
    out[m:, m:] = bottom
    return out


def cs_conjugated(thetas, m: int, n: int, seed: int) -> np.ndarray:
    """Unitary with prescribed mixing angles: (L ⊕ L') S(θ) (R† ⊕ R'†).

    Sorting the angles keeps the cosines non-increasing, so the returned
    matrix has a known canonical decomposition.
    """
    thetas = np.sort(np.asarray(thetas, dtype=float))
    left = block_diag_unitary(haar_random_unitary(m, seed), haar_random_unitary(n, seed + 1))
    right = block_diag_unitary(
        haar_random_unitary(m, seed + 2).conj().T,
        haar_random_unitary(n, seed + 3).conj().T,
    )
    return left @ cs_matrix(thetas, m + n) @ right


def gate_edge_unitary(dim: int, seed: int) -> np.ndarray:
    """A Haar unitary with one row scaled to just inside the unitarity gate.

    Scaling row i by s moves entry (k, l) of M†M by (s^2 - 1) conj(u_ik) u_il,
    so the row whose largest entry is smallest takes the largest scaling,
    and its defect reaches 0.99999999 UNITARY_TOL. Rounding may push the
    defect past the gate for some seeds.
    """
    u = haar_random_unitary(dim, seed)
    row = int(np.argmin(np.max(np.abs(u), axis=1)))
    u[row] *= np.sqrt(1 + 0.99999999 * UNITARY_TOL / np.max(np.abs(u[row])) ** 2)
    return u


@pytest.fixture(params=[True, False], ids=["caller-enabled", "caller-disabled"])
def caller(request):
    """A caller with the cyclic collector on, or off; the test session's own setting is restored after."""
    was = gc.isenabled()
    gc.enable() if request.param else gc.disable()
    yield request.param
    gc.enable() if was else gc.disable()
