"""Job lists of the three workloads, built from the workload seed.

The seed only chooses inputs; the program receives nothing but matrices
(and, in ``cli``, the seeds of ``modemix random``). Every workload has a
fixed list of shapes, so two seeds do the same amount of work.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from benchenv import WORKLOADS, import_program
from reference import cosine_sine

modemix = import_program()

# Many spatial modes, n_p <= 2: stage 1 runs n_s(n_s-1)/2 small CSDs per job
# and reconstruct multiplies about 3 n_s^2 dense N x N matrices.
SPATIAL_SHAPES = ((64, 1), (48, 1), (40, 2), (32, 2))

# n_s <= 8 with wide internal modes: a handful of LAPACK-bound CSDs on large
# blocks per job, and JSON for large internal matrices. Each shape runs
# twice with different inputs so that compile_s is long enough to be steady.
INTERNAL_SHAPES = ((2, 128), (4, 64), (8, 16), (3, 48)) * 2

# Haar chains random -> decompose -> verify. The large ones keep compute in
# the cli times; the small ones add samples of the random command.
CLI_HAAR_SHAPES = ((32, 2), (16, 4), (8, 2), (4, 4), (8, 1), (2, 4), (4, 2), (2, 2))

# (L ⊕ L') S(θ) (R† ⊕ R'†) with top block n_p and angles clustered at gaps
# of 1e-4..1e-3: the blind spot of the CSD repair ladder.
CLUSTERED_SHAPES = ((4, 4), (8, 4), (2, 4), (4, 2), (6, 4), (8, 2), (3, 4), (5, 2))


@dataclass(frozen=True, eq=False)
class Job:
    """One input of a workload.

    ``matrix`` is None for ``cli`` jobs whose input ``modemix random`` writes
    on every pass, from ``haar_seed``. ``near_unitary`` inputs are
    deliberately off-unitary by about 1e-9; for them a loud refusal is a
    success too.
    """

    name: str
    n_s: int
    n_p: int
    matrix: Optional[np.ndarray] = None
    haar_seed: Optional[int] = None
    near_unitary: bool = False

    @property
    def dim(self) -> int:
        return self.n_s * self.n_p


def near_unitary_jobs() -> list:
    """The two inputs of ROADMAP item 2, as stated there; independent of the seed.

    ``haar_random_unitary(4, 4)`` + 2e-10·N(0,1) at 1x4, and
    ``haar_random_unitary(8, 4)`` + 3e-10·N(0,1) at 4x2, noise from
    ``default_rng(0)``. Today ``decompose`` exits 0 on both and ``verify``
    then rejects the circuit (exit 3 and exit 1).
    """
    jobs = []
    for n_s, n_p, amplitude in ((1, 4, 2e-10), (4, 2, 3e-10)):
        dim = n_s * n_p
        noise = np.random.default_rng(0).standard_normal((dim, dim))
        matrix = modemix.haar_random_unitary(dim, 4) + amplitude * noise
        jobs.append(Job(f"near-unitary-{n_s}x{n_p}", n_s, n_p, matrix, near_unitary=True))
    return jobs


def build_jobs(workload: str, seed: int) -> list:
    rng = np.random.default_rng(seed % 2**32)

    def next_seed() -> int:
        return int(rng.integers(2**31))

    def haar(dim: int) -> np.ndarray:
        return modemix.haar_random_unitary(dim, next_seed())

    if workload == "spatial":
        return [Job(f"haar-{n_s}x{n_p}", n_s, n_p, haar(n_s * n_p)) for n_s, n_p in SPATIAL_SHAPES]
    if workload == "internal":
        return [
            Job(f"haar-{n_s}x{n_p}-{i}", n_s, n_p, haar(n_s * n_p))
            for i, (n_s, n_p) in enumerate(INTERNAL_SHAPES)
        ]
    if workload != "cli":
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")

    jobs = [Job(f"haar-{n_s}x{n_p}", n_s, n_p, haar_seed=next_seed()) for n_s, n_p in CLI_HAAR_SHAPES]
    # A permutation at 8x4 is left out: about one seed in fifty gives one
    # whose circuit misses 1e-9, so its failures would depend on the seed.
    jobs.append(Job("permutation-16x1", 16, 1, np.eye(16, dtype=complex)[rng.permutation(16)]))
    q, r = np.linalg.qr(rng.standard_normal((32, 32)))
    jobs.append(Job("orthogonal-8x4", 8, 4, (q * np.sign(np.diagonal(r))).astype(complex)))
    jobs.append(Job("kron-4x8", 4, 8, np.kron(haar(4), haar(8))))
    cuts = np.sort(rng.choice(np.arange(1, 32), size=3, replace=False))
    block = np.zeros((32, 32), dtype=complex)
    for start, stop in zip(np.r_[0, cuts], np.r_[cuts, 32]):
        block[start:stop, start:stop] = haar(stop - start)
    jobs.append(Job("blockdiag-8x4", 8, 4, block))
    for n_s, n_p in CLUSTERED_SHAPES:
        dim = n_s * n_p
        gap = 10 ** rng.uniform(-4, -3)
        thetas = rng.uniform(0.2, 1.3) + gap * np.arange(n_p)
        left = _block_diag(haar(n_p), haar(dim - n_p))
        right = _block_diag(haar(n_p), haar(dim - n_p))
        matrix = left @ cosine_sine(thetas, dim) @ right.conj().T
        jobs.append(Job(f"clustered-{n_s}x{n_p}", n_s, n_p, matrix))
    return jobs + near_unitary_jobs()


def _block_diag(top: np.ndarray, bottom: np.ndarray) -> np.ndarray:
    m, n = len(top), len(bottom)
    out = np.zeros((m + n, m + n), dtype=complex)
    out[:m, :m] = top
    out[m:, m:] = bottom
    return out


def matrix_path(workdir: Path, job: Job) -> Path:
    return workdir / f"{job.name}.mat"


def circuit_path(workdir: Path, job: Job) -> Path:
    return workdir / f"{job.name}.circuit.json"


def write_inputs(jobs, workdir: Path) -> None:
    """Write the inputs that exist at set-up time, in the program's matrix format."""
    workdir.mkdir(parents=True, exist_ok=True)
    for job in jobs:
        if job.matrix is not None:
            modemix.save_matrix(matrix_path(workdir, job), job.matrix)
