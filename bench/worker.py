"""One single-threaded worker process of a benchmark workload.

``run.py`` starts it; it builds the inputs, runs an untimed warm-up pass,
then timed passes of the fixed job list until the run's seconds are used,
checking every pass's outputs outside the timed regions. Between the jobs
of a pass it runs the reference work of ``calibration.py``. It prints one
JSON report as its last line. With ``--setup-only`` it stops after
set-up, printing ``ready``, so that ``run.py`` can time fresh starts.
"""

from __future__ import annotations

import benchenv

benchenv.pin_threads()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import calibration  # noqa: E402
from checks import LibraryResult, Outcome, Step, check_cli, check_library  # noqa: E402
from jobs import build_jobs, circuit_path, matrix_path, modemix, write_inputs  # noqa: E402

# Imported up front: the package does not import its cli module, and the
# tracer only wraps functions of modules already in ``sys.modules``.
cli_module = importlib.import_module("modemix.cli")

CLI_START_RUNS = 5
SETUP_PROBES_PER_PASS = 2


def library_pass(jobs, on_job=None, pace=None):
    """One pass of decompose, reconstruct and the file round trips.

    Returns the pass record (see ``_pass_record``) and the outputs.
    """
    times, paces, results = [], [], []
    for job in jobs:
        if pace is not None:
            paces.append(pace())
        if on_job is not None:
            on_job(job.name)
        start = time.perf_counter()
        space = modemix.ModeSpace(job.n_s, job.n_p)
        res = LibraryResult(job)
        results.append(res)
        t0 = time.perf_counter()
        try:
            res.circuit = modemix.decompose(job.matrix, space)
        except ValueError:
            t1 = t2 = t3 = time.perf_counter()
        else:
            t1 = time.perf_counter()
            res.rebuilt = modemix.reconstruct(res.circuit)
            res.error = float(np.max(np.abs(res.rebuilt - job.matrix)))
            t2 = time.perf_counter()
            res.back = modemix.deserialize(modemix.serialize(res.circuit))
            res.matrix_back = modemix.parse_matrix(modemix.format_matrix(job.matrix))
            t3 = time.perf_counter()
        times.append({"compile_s": t1 - t0, "verify_s": t2 - t1, "files_s": t3 - t2, "wall_s": t3 - start})
    if pace is not None:
        paces.append(pace())
    return _pass_record(times, paces), results


def _pass_record(times, paces) -> dict:
    """Raw totals of a pass, its per-job times, and the seconds of the
    reference work run before each job and after the last."""
    record = {key: sum(t[key] for t in times) for key in calibration.TOTALS}
    record["jobs"] = times
    record["pace"] = paces
    return record


def subprocess_runner(argv) -> Step:
    """One ``python -m modemix`` process; its own peak memory comes from wait4."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-m", "modemix", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=benchenv.child_env(),
    ) as child:
        stdout = child.stdout.read()
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
    return Step(child.returncode, stdout, time.perf_counter() - start, usage.ru_maxrss / 1024)


def time_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until its inputs are ready."""
    command = [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-only"]
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=benchenv.child_env()) as child:
        line = child.stdout.readline()
        seconds = time.perf_counter() - start
        child.stdout.read()
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {child.returncode}")
    return seconds


def inprocess_runner(argv) -> Step:
    """``modemix.cli.main`` in this process, so the wrappers see inside each command."""
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_module.main(argv)
    return Step(code, out.getvalue(), time.perf_counter() - start)


def cli_pass(jobs, workdir, runner, on_job=None, pace=None):
    """One pass of ``random → decompose → verify`` chains.

    Every command of every job runs whatever the exit codes before it, so
    a job that fails is timed like one that passes.
    """
    times, paces, records = [], [], {}
    for job in jobs:
        if pace is not None:
            paces.append(pace())
        if on_job is not None:
            on_job(job.name)
        start = time.perf_counter()
        mat, circ = matrix_path(workdir, job), circuit_path(workdir, job)
        # Every command writes a new file. Truncating an existing one would
        # add a synchronous ext4 flush on close (auto_da_alloc) of ~80 ms.
        circ.unlink(missing_ok=True)
        steps = {}
        if job.haar_seed is not None:
            mat.unlink(missing_ok=True)
            steps["random"] = runner(["random", str(mat), "--dim", str(job.dim), "--seed", str(job.haar_seed)])
        steps["decompose"] = runner(["decompose", str(mat), str(circ), "--ns", str(job.n_s), "--np", str(job.n_p)])
        steps["verify"] = runner(["verify", str(circ), str(mat)])
        records[job.name] = steps
        times.append({
            "compile_s": steps["decompose"].seconds,
            "verify_s": steps["verify"].seconds,
            "files_s": steps["random"].seconds if "random" in steps else 0.0,
            "wall_s": time.perf_counter() - start,
        })
    if pace is not None:
        paces.append(pace())
    return _pass_record(times, paces), records


class Workload:
    """The pass and the checks of one workload, with a chosen cli runner."""

    def __init__(self, name, jobs, workdir, runner):
        self.name, self.jobs, self.workdir, self.runner = name, jobs, workdir, runner
        # Process starts pace the cli commands; the library jobs run in process.
        self.reference = calibration.INTERPRETER if name == "cli" else calibration.COMPUTE

    def run_pass(self, on_job=None, pace=None):
        gc.collect()
        if self.name == "cli":
            return cli_pass(self.jobs, self.workdir, self.runner, on_job, pace)
        return library_pass(self.jobs, on_job, pace)

    def check(self, outputs) -> Outcome:
        outcome = Outcome()
        if self.name == "cli":
            check_cli(self.jobs, outputs, self.workdir, outcome)
        else:
            check_library(outputs, outcome)
        return outcome


def cli_start_s() -> float:
    """Median wall time of the cheapest command: the floor under every cli time."""
    times = [subprocess_runner(["cost", "--ns", "1", "--np", "1"]).seconds for _ in range(CLI_START_RUNS)]
    return statistics.median(times)


def measure(workload, seconds, seed):
    """Untraced run: warm-up, then timed passes, each checked.

    Fresh-interpreter set-up probes run between the passes, so that they
    sample the same stretch of time as the passes do. Each pass and each
    probe records its reference work, which ``run.py`` scales by.
    """
    _, warm_outputs = workload.run_pass(pace=workload.reference.run)
    report = _new_report(len(workload.jobs))
    _account(report, workload.check(warm_outputs), timed=False)
    del warm_outputs
    setup = []
    start = time.perf_counter()
    while not report["passes"] or time.perf_counter() - start < seconds:
        totals, outputs = workload.run_pass(pace=workload.reference.run)
        totals["scaled"] = workload.reference.scaled(totals, totals["pace"])
        report["passes"].append(totals)
        _account(report, workload.check(outputs), timed=True)
        if workload.name == "cli":
            commands = [step.peak_rss_mb for steps in outputs.values() for step in steps.values()]
            report["peak_rss_mb"] = max(report["peak_rss_mb"], *commands)
        del outputs
        for _ in range(SETUP_PROBES_PER_PASS):
            interpreter = calibration.INTERPRETER.run()
            probe_s = time_setup(workload.name, seed)
            scale = calibration.INTERPRETER.scale([interpreter])["all"]
            setup.append({"setup_s": probe_s, "interpreter": interpreter["all"], "scaled_s": probe_s * scale})
    report["setup_samples_s"] = setup
    return report


def measure_traced(workload, seconds, tracer, setup_spans):
    """Traced run: warm-up and untraced passes, then traced passes with their checks."""
    import tracing

    report = _new_report(len(workload.jobs))
    _, outputs = workload.run_pass()
    _account(report, workload.check(outputs), timed=False)
    untraced = []
    for _ in range(2):
        totals, outputs = workload.run_pass()
        untraced.append(totals["wall_s"])
        _account(report, workload.check(outputs), timed=False)
    del outputs
    inexact = {job.name for job in workload.jobs if job.near_unitary}
    setup = tracing.phase_metrics(setup_spans, inexact)
    cycles, traced, first_cycle = [], [], None

    def on_job(name):
        tracer.job = name

    tracer.install()
    try:
        start = time.perf_counter()
        while not cycles or time.perf_counter() - start < seconds:
            tracer.take_spans()
            pass_start = tracer.clock()
            totals, outputs = workload.run_pass(on_job)
            traced.append(tracer.clock() - pass_start)
            tracer.job = "checks"
            _account(report, workload.check(outputs), timed=True)
            del outputs
            spans = tracer.take_spans()
            cycles.append(tracing.phase_metrics(spans, inexact))
            first_cycle = first_cycle if first_cycle is not None else spans
    finally:
        tracer.uninstall()
    report["layers"] = tracing.combine(setup, cycles, cli_start_s())
    untraced_s, traced_s = statistics.median(untraced), statistics.median(traced)
    report["trace_overhead"] = {
        "untraced_pass_s": untraced_s,
        "traced_pass_s": traced_s,
        "overhead_s": traced_s - untraced_s,
        "overhead_frac": (traced_s - untraced_s) / untraced_s,
    }
    report["spans"] = {
        "fields": list(tracing.FIELDS),
        "setup": setup_spans.rows(),
        "first_cycle": first_cycle.rows(),
        "cycles": cycles,
    }
    return report


def _new_report(jobs: int) -> dict:
    return {
        "jobs": jobs,
        "passes": [],
        "attempted": 0,
        "failed": 0,
        "failed_jobs": [],
        "correct": True,
        "problems": [],
        "worst_error": 0.0,
        "peak_rss_mb": 0.0,
    }


def _account(report, outcome: Outcome, timed: bool) -> None:
    """Fold one pass's checks into the report; only timed passes count as attempts."""
    report["problems"] += outcome.problems[: max(0, 20 - len(report["problems"]))]
    report["correct"] = report["correct"] and not outcome.problems
    report["worst_error"] = max(report["worst_error"], outcome.worst_error)
    if timed:
        report["attempted"] += report["jobs"]
        report["failed"] += len(outcome.failed)
        report["failed_jobs"] = sorted(set(report["failed_jobs"]) | set(outcome.failed))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=benchenv.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = benchenv.OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    tracer = None
    try:
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.job = "setup"
            tracer.install()
        jobs = build_jobs(args.workload, args.seed)
        if args.workload == "cli":
            write_inputs(jobs, workdir)
        setup_spans = None
        if tracer is not None:
            tracer.uninstall()
            setup_spans = tracer.take_spans()
        if args.setup_only:
            print("ready", flush=True)
            return 0
        runner = inprocess_runner if args.trace else subprocess_runner
        workload = Workload(args.workload, jobs, workdir, runner)
        if tracer is None:
            report = measure(workload, args.seconds, args.seed)
        else:
            report = measure_traced(workload, args.seconds, tracer, setup_spans)
        if args.workload != "cli":
            report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
