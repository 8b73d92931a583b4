"""Independent checks of the program's outputs, run outside the timed regions.

No stored copy of earlier outputs is used: every circuit is rebuilt by the
reference reconstruction in ``reference.py`` and held to the input, to the
paper's element counts and to the program's own reports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

import reference
from jobs import Job, circuit_path, matrix_path, modemix

INPUT_TOL = 1e-9      # reference reconstruction against the input
PROGRAM_TOL = 1e-12   # reference reconstruction against the program's reconstruct
INTERNAL_TOL = 1e-10  # unitarity of every internal op


@dataclass
class Outcome:
    """What one pass's checks found."""

    failed: list = field(default_factory=list)    # names of jobs the program failed
    problems: list = field(default_factory=list)  # check failures on jobs it did not fail
    worst_error: float = 0.0                      # over exactly unitary inputs

    def fold(self, job: Job, error: Optional[float]) -> None:
        if error is not None and not job.near_unitary:
            self.worst_error = max(self.worst_error, error)


def _check_counts(job: Job, counts: dict, audit, problems: list) -> None:
    expected = reference.paper_counts(job.n_s)
    report = modemix.cost_report(modemix.ModeSpace(job.n_s, job.n_p))
    for name, value in (
        ("paper", expected),
        ("cost_report", _report_counts(report)),
        ("audit_circuit", _report_counts(audit)),
    ):
        if value != counts:
            problems.append(f"{job.name}: element counts {counts} differ from {name} {value}")


def _report_counts(report) -> dict:
    return {
        "internal": report.internal_arbitrary,
        "beamsplitter": report.beamsplitters,
        "phase_block": report.internal_phase_blocks,
    }


def _check_elements(job: Job, matrix, elements, problems: list) -> tuple:
    """Counts-free checks shared by both front ends; returns (rebuilt, error)."""
    for kind, k, payload in elements:
        if kind == "internal" and reference.unitarity_defect(payload) > INTERNAL_TOL:
            problems.append(f"{job.name}: internal op on mode {k} is not unitary")
    rebuilt = reference.reconstruct(job.n_s, job.n_p, elements)
    error = reference.max_abs(rebuilt, matrix)
    if error > INPUT_TOL:
        problems.append(f"{job.name}: reference reconstruction is {error:.3e} from the input")
    return rebuilt, error


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _same_elements(first, second) -> bool:
    if len(first) != len(second):
        return False
    for (kind_a, k_a, p_a), (kind_b, k_b, p_b) in zip(first, second):
        if kind_a != kind_b or k_a != k_b:
            return False
        if not (p_a == p_b if kind_a == "beamsplitter" else _same_bits(p_a, p_b)):
            return False
    return True


@dataclass
class LibraryResult:
    """The program's outputs for one library job in one pass."""

    job: Job
    circuit: object = None
    rebuilt: Optional[np.ndarray] = None
    error: Optional[float] = None  # the program's own max-abs reconstruction error
    back: object = None  # deserialize(serialize(circuit))
    matrix_back: Optional[np.ndarray] = None


def check_library(results, outcome: Outcome) -> None:
    for res in results:
        job = res.job
        if res.circuit is None or res.error > INPUT_TOL:
            outcome.failed.append(job.name)
            continue
        problems = outcome.problems
        try:
            elements = reference.elements_from_circuit(res.circuit)
            rebuilt, error = _check_elements(job, job.matrix, elements, problems)
        except ValueError as exc:
            problems.append(f"{job.name}: {exc}")
            continue
        if reference.max_abs(rebuilt, res.rebuilt) > PROGRAM_TOL:
            problems.append(f"{job.name}: reference and program reconstructions differ")
        _check_counts(job, reference.count_elements(elements), modemix.audit_circuit(res.circuit), problems)
        back_space = (res.back.space.n_s, res.back.space.n_p)
        if back_space != (job.n_s, job.n_p) or not _same_elements(
            elements, reference.elements_from_circuit(res.back)
        ):
            problems.append(f"{job.name}: deserialize(serialize(c)) is not bit-identical")
        if not _same_bits(res.matrix_back, job.matrix):
            problems.append(f"{job.name}: parse_matrix(format_matrix(u)) is not bit-identical")
        outcome.fold(job, error)


@dataclass
class Step:
    """One ``modemix`` command of a cli job."""

    code: int
    stdout: str
    seconds: float
    peak_rss_mb: float = 0.0  # of the command's own process; 0 when run in-process


def cli_succeeded(job: Job, steps: dict) -> bool:
    """Every command exits 0; a near-unitary input may instead be refused."""
    if job.near_unitary and steps["decompose"].code != 0:
        return True
    return all(step.code == 0 for step in steps.values())


def _key_values(line: str) -> dict:
    return dict(field.split("=", 1) for field in line.split())


def check_cli(jobs, records, workdir: Path, outcome: Outcome) -> None:
    """Check one pass of cli jobs; ``records`` maps each job to its steps."""
    for job in jobs:
        steps = records[job.name]
        if not cli_succeeded(job, steps):
            outcome.failed.append(job.name)
            continue
        if steps["decompose"].code != 0:
            continue  # a near-unitary input, refused loudly: nothing was written
        problems = outcome.problems
        try:
            error = _check_cli_job(job, steps, workdir, problems)
        except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
            problems.append(f"{job.name}: {type(exc).__name__}: {exc}")
            continue
        outcome.fold(job, error)


def _check_cli_job(job: Job, steps: dict, workdir: Path, problems: list) -> float:
    matrix = reference.parse_matrix_text(matrix_path(workdir, job).read_text())
    if not job.near_unitary and reference.unitarity_defect(matrix) > INTERNAL_TOL:
        problems.append(f"{job.name}: the input file is not unitary")
    doc = json.loads(circuit_path(workdir, job).read_text())
    if (doc["n_s"], doc["n_p"]) != (job.n_s, job.n_p):
        problems.append(f"{job.name}: circuit file is for {doc['n_s']}x{doc['n_p']}")
    elements = reference.elements_from_json(doc)
    _, error = _check_elements(job, matrix, elements, problems)
    counts = reference.count_elements(elements)
    printed = _key_values(steps["decompose"].stdout.splitlines()[0])
    printed = {
        "internal": int(printed["internal"]),
        "beamsplitter": int(printed["beamsplitters"]),
        "phase_block": int(printed["phase_blocks"]),
    }
    if printed != counts:
        problems.append(f"{job.name}: counts line {printed} differs from the file {counts}")
    _check_counts(job, counts, modemix.audit_circuit(_program_circuit(job, elements)), problems)
    reported = float(_key_values(steps["verify"].stdout.strip())["reconstruction_error"])
    # verify prints 7 significant digits of max|reconstruct - u|.
    if abs(reported - error) > PROGRAM_TOL + 1e-6 * error:
        problems.append(f"{job.name}: verify reports {reported:.6e}, the reference gives {error:.6e}")
    return error


def _program_circuit(job: Job, elements):
    """The program's Circuit object for elements read with plain json, for audit_circuit."""
    built = []
    for kind, k, payload in elements:
        if kind == "internal":
            built.append(modemix.InternalOp(k, payload))
        elif kind == "phase_block":
            built.append(modemix.PhaseBlock(k, payload))
        else:
            built.append(modemix.Beamsplitter((k, k + 1), payload))
    return modemix.Circuit(modemix.ModeSpace(job.n_s, job.n_p), built)
