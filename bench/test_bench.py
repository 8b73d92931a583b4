"""Fast tests of the benchmark itself, on tiny shapes.

Run from the repository root with ``python -m pytest bench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import benchenv
import calibration
import reference
import run
import tracing
import worker
from checks import Outcome, check_cli
from jobs import Job, build_jobs, modemix, near_unitary_jobs, write_inputs

SPEC = json.loads((benchenv.ROOT / "BENCHMARK.json").read_text())
NEAR_UNITARY = ["near-unitary-1x4", "near-unitary-4x2"]


def test_reference_reconstruction_of_a_hand_computed_2x1_circuit():
    # Phase i on mode 1, then the balanced beamsplitter, then phase pi/2 on
    # mode 2: diag(1, i) · [[1, i], [i, 1]]/√2 · diag(i, 1).
    elements = [
        ("internal", 1, np.array([[1j]])),
        ("beamsplitter", 1, False),
        ("phase_block", 2, np.array([np.pi / 2])),
    ]
    expected = np.array([[1j, 1j], [-1j, 1j]]) / np.sqrt(2)
    assert reference.max_abs(reference.reconstruct(2, 1, elements), expected) < 1e-15

    there_and_back = [("beamsplitter", 1, True), ("beamsplitter", 1, False)]
    assert reference.max_abs(reference.reconstruct(2, 1, there_and_back), np.eye(2)) < 1e-15
    twice = [("beamsplitter", 1, False)] * 2
    assert reference.max_abs(reference.reconstruct(2, 1, twice), [[0, 1j], [1j, 0]]) < 1e-15


def test_reference_reconstruction_matches_the_program_on_a_compiled_circuit():
    u = modemix.haar_random_unitary(6, 3)
    circuit = modemix.decompose(u, modemix.ModeSpace(3, 2))
    rebuilt = reference.reconstruct(3, 2, reference.elements_from_circuit(circuit))
    assert reference.max_abs(rebuilt, modemix.reconstruct(circuit)) < 1e-13
    assert reference.max_abs(rebuilt, u) < 1e-12


def test_csd_residual_matches_the_program_assembly():
    u = modemix.haar_random_unitary(7, 2)
    r = modemix.csd(u, 3)
    residual = reference.csd_residual(u, r.left_top, r.left_bottom, r.thetas, r.right_top, r.right_bottom)
    assert abs(residual - reference.max_abs(r.assemble(), u)) < 1e-14


def test_inputs_depend_only_on_the_seed():
    first, second, other = build_jobs("cli", 5), build_jobs("cli", 5), build_jobs("cli", 6)
    assert [j.name for j in first] == [j.name for j in other]
    for a, b in zip(first, second):
        assert a.haar_seed == b.haar_seed
        assert (a.matrix is None and b.matrix is None) or np.array_equal(a.matrix, b.matrix)
    assert any(a.haar_seed != c.haar_seed for a, c in zip(first, other) if a.haar_seed is not None)


def _cli_outcome(jobs, workdir, runner) -> Outcome:
    write_inputs(jobs, workdir)
    _, records = worker.cli_pass(jobs, workdir, runner)
    outcome = Outcome()
    check_cli(jobs, records, workdir, outcome)
    return outcome


def test_failure_accounting_marks_exactly_the_near_unitary_jobs(tmp_path):
    # The two inputs of ROADMAP item 2 fail today: decompose exits 0 and
    # verify rejects its circuit. Every other cli input passes every check.
    jobs = build_jobs("cli", 0)
    assert [job.name for job in jobs if job.near_unitary] == NEAR_UNITARY
    outcome = _cli_outcome(jobs, tmp_path, worker.inprocess_runner)
    assert outcome.problems == []
    assert outcome.failed == NEAR_UNITARY
    assert 1e-13 < outcome.worst_error < 1e-10


def test_failure_accounting_through_subprocesses(tmp_path):
    jobs = near_unitary_jobs() + [Job("haar-2x1", 2, 1, haar_seed=7)]
    outcome = _cli_outcome(jobs, tmp_path, worker.subprocess_runner)
    assert outcome.problems == []
    assert outcome.failed == NEAR_UNITARY


def test_a_wrong_circuit_is_caught(tmp_path):
    job = Job("haar-2x2", 2, 2, modemix.haar_random_unitary(4, 1))
    write_inputs([job], tmp_path)
    _, records = worker.cli_pass([job], tmp_path, worker.inprocess_runner)
    path = tmp_path / "haar-2x2.circuit.json"
    doc = json.loads(path.read_text())
    splitter = next(obj for obj in doc["elements"] if obj["kind"] == "beamsplitter")
    splitter["conjugate"] = not splitter["conjugate"]
    path.write_text(json.dumps(doc))
    outcome = Outcome()
    check_cli([job], records, tmp_path, outcome)
    assert outcome.failed == []
    assert any("from the input" in problem for problem in outcome.problems)


def test_times_are_scaled_by_the_reference_work_of_their_pass():
    # Reference work at twice its reference seconds halves every time; the
    # products alone pace verify_s.
    slow = {"all": 2 * 0.040, "products": 4 * 0.008}
    assert calibration.COMPUTE.scale([slow] * 3) == pytest.approx({"all": 0.5, "products": 0.25})
    job = Job("haar-2x2", 2, 2, modemix.haar_random_unitary(4, 1))
    timed, _ = worker.library_pass([job], pace=lambda: slow)
    assert timed["pace"] == [slow, slow]
    totals = {"compile_s": 4.0, "verify_s": 2.0, "files_s": 1.0, "wall_s": 8.0}
    scaled = calibration.COMPUTE.scaled(totals, [slow])
    assert scaled == pytest.approx({"compile_s": 2.0, "verify_s": 0.5, "files_s": 0.5, "wall_s": 4.0})
    report = {
        "jobs": 1,
        "passes": [{"scaled": scaled}] * 3,
        "setup_samples_s": [{"scaled_s": 0.15}],
        "worst_error": 1e-14,
        "peak_rss_mb": 50.0,
    }
    metrics = run.end_to_end(report)
    values = [metrics[name]["value"] for name in ("compile_s", "verify_s", "files_s", "jobs_per_s", "setup_s")]
    assert values == pytest.approx([2.0, 0.5, 0.5, 0.25, 0.15])


def _traced(workload: str, jobs, workdir) -> dict:
    runner = worker.inprocess_runner
    tracer = tracing.Tracer()
    tracer.job = "setup"
    tracer.install()
    jobs = jobs()
    if workload == "cli":
        write_inputs(jobs, workdir)
    tracer.uninstall()
    bench = worker.Workload(workload, jobs, workdir, runner)
    return worker.measure_traced(bench, 0.3, tracer, tracer.take_spans())


def test_traced_run_emits_every_per_layer_metric(tmp_path):
    names = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}
    assert names == tracing.METRICS
    spatial = _traced("spatial", lambda: [Job("haar-3x2", 3, 2, modemix.haar_random_unitary(6, 1))], tmp_path)
    cli = _traced("cli", lambda: near_unitary_jobs() + [Job("haar-3x1", 3, 1, haar_seed=2)], tmp_path)
    for report in (spatial, cli):
        assert set(report["layers"]) == set(names)
        assert report["correct"]
        cycles = report["spans"]["cycles"]
        assert len(cycles) >= 2
        for key in ("csd.calls", "csd.work_n3", "circuits.embed_calls", "serialization.bytes"):
            assert len({cycle[key] for cycle in cycles}) == 1, key
    # 3x2: three CSDs of dims 6, 4 and 4; 3 spatial modes give 9 + 6 + 6 elements.
    assert spatial["layers"]["csd.calls"] == 3
    assert spatial["layers"]["csd.work_n3"] == 6**3 + 4**3 + 4**3
    assert spatial["layers"]["circuits.embed_calls"] == 21
    assert cli["failed"] == 2 * len(cli["spans"]["cycles"])


def test_benchmark_spec_matches_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(benchenv.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.UNITS


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(benchenv.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(benchenv.ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "spatial", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
