"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload {spatial,internal,cli} --seed N --seconds S --trace {0,1}

With ``--trace 0`` the metrics are the end-to-end ones, each a median
over the passes of one worker process (see ``worker.py``). With ``--trace 1`` the metrics are per-layer, from
a run that wraps the program's layers (see ``tracing.py``). A fuller
record of the run (environment, every pass, spans) goes to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys

import benchenv

benchenv.pin_threads()

WORKER_TIMEOUT_S = 170

UNITS = {
    "compile_s": "s",
    "verify_s": "s",
    "files_s": "s",
    "jobs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "accuracy_digits": "digits",
}


def run_worker(args) -> dict:
    """Run the worker in its own process group, so a timeout stops its children too."""
    command = [
        sys.executable,
        str(benchenv.ROOT / "bench" / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    with subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, env=benchenv.child_env(), start_new_session=True
    ) as worker:
        try:
            stdout, _ = worker.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(worker.pid, signal.SIGKILL)
            worker.communicate()
            raise
    if worker.returncode != 0:
        raise RuntimeError(f"worker failed with exit code {worker.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def end_to_end(report: dict) -> dict:
    """Medians over passes (and set-up probes) of times scaled to the reference pace."""
    passes = report["passes"]
    worst = max(report["worst_error"], sys.float_info.min)
    values = {
        "compile_s": statistics.median(p["scaled"]["compile_s"] for p in passes),
        "verify_s": statistics.median(p["scaled"]["verify_s"] for p in passes),
        "files_s": statistics.median(p["scaled"]["files_s"] for p in passes),
        "jobs_per_s": statistics.median(report["jobs"] / p["scaled"]["wall_s"] for p in passes),
        "setup_s": statistics.median(s["scaled_s"] for s in report["setup_samples_s"]),
        "peak_rss_mb": report["peak_rss_mb"],
        "accuracy_digits": -math.log10(worst),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}


def per_layer(report: dict) -> dict:
    import tracing

    return {name: {"value": report["layers"][name], "unit": unit} for name, unit in tracing.METRICS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=benchenv.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    program = benchenv.SRC / "modemix" / "__init__.py"
    if not program.is_file():
        print(f"error: {program} is missing; run from the root of a full checkout", file=sys.stderr)
        return 2
    benchenv.OUT.mkdir(exist_ok=True)
    try:
        report = run_worker(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = per_layer(report) if args.trace else end_to_end(report)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": benchenv.environment(),
        "metrics": metrics,
        **report,
    }
    suffix = "trace" if args.trace else "run"
    with open(benchenv.OUT / f"{args.workload}-seed{args.seed}-{suffix}.json", "w") as handle:
        json.dump(record, handle)
    for problem in report["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.trace:
        overhead = report["trace_overhead"]
        print(
            f"trace overhead: {overhead['overhead_s']:.4f} s per pass "
            f"({100 * overhead['overhead_frac']:.1f}% of {overhead['untraced_pass_s']:.4f} s)",
            file=sys.stderr,
        )
    result = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
