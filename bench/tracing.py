"""Outside-in tracing of the program's layers, for the traced run only.

Each public function of a layer is wrapped from here, without touching the
program's source. ``from .x import f`` binds ``f`` in every importing
module, and the package namespace shadows the ``modemix.decompose`` and
``modemix.csd`` submodules with functions of the same name, so a wrapper
is installed by looking the defining module up in ``sys.modules`` and
replacing every binding of the original function in every ``modemix``
module.

A span records its name, start, end, parent span and job id. Spans of
one phase (set-up, or one pass with its checks) stay in memory and are
folded into per-layer metrics when the phase ends. The benchmark's own
bookkeeping inside a wrapper (such as the CSD residual) runs on a paused
clock, so it adds to no span.
"""

from __future__ import annotations

import statistics
import sys
import time
from typing import Optional

import reference

# (defining module, function, span name): the functions behind the metrics.
LAYERS = (
    ("modemix.linalg", "haar_random_unitary", "linalg.haar"),
    ("modemix.linalg", "format_matrix", "linalg.format"),
    ("modemix.linalg", "parse_matrix", "linalg.parse"),
    ("modemix.linalg", "unitarity_defect", "linalg.unitarity_defect"),
    ("modemix.linalg", "svd", "linalg.svd"),
    ("modemix.csd", "csd", "csd"),
    ("modemix.decompose", "decompose", "decompose"),
    ("modemix.decompose", "decompose_stage1", "decompose.stage1"),
    ("modemix.circuits", "reconstruct", "circuits.reconstruct"),
    ("modemix.circuits", "embed", "circuits.embed"),
    ("modemix.costs", "audit_circuit", "costs.audit"),
    ("modemix.serialization", "serialize", "serialization.serialize"),
    ("modemix.serialization", "deserialize", "serialization.deserialize"),
    ("modemix.cli", "main", "cli"),
)

# A CSD whose own reassembly misses this after the repair ladder is a
# silent best effort of the program.
BEST_EFFORT_TOL = 1e-12

# Every per-layer metric, with its unit.
METRICS = {
    "linalg.haar_s": "s",
    "linalg.format_s": "s",
    "linalg.parse_s": "s",
    "linalg.matrix_bytes": "bytes",
    "linalg.unitarity_defect_calls": "count",
    "linalg.unitarity_defect_s": "s",
    "linalg.svd_s": "s",
    "csd.calls": "count",
    "csd.work_n3": "count",
    "csd.s": "s",
    "csd.self_s": "s",
    "csd.assemble_calls": "count",
    "csd.assemble_s": "s",
    "csd.residual_max": "abs",
    "csd.best_effort_calls": "count",
    "decompose.stage1_s": "s",
    "decompose.stage1_self_s": "s",
    "decompose.stage2_s": "s",
    "circuits.reconstruct_s": "s",
    "circuits.embed_calls": "count",
    "costs.audit_s": "s",
    "serialization.serialize_s": "s",
    "serialization.deserialize_s": "s",
    "serialization.bytes": "bytes",
    "cli.start_s": "s",
}


FIELDS = ("name", "start", "end", "parent", "job", "size", "residual")


class Spans:
    """The spans of one phase, stored column by column.

    ``parent`` is the index of the parent span in the same phase, -1 at top
    level. ``size`` is a CSD's dimension, or the characters a text layer
    wrote or read. Columns of strings and numbers hold no object the
    garbage collector tracks. One small object per span did: it made the
    collector run more often inside the program and cost ``spatial``
    about a fifth of its pass.
    """

    def __init__(self):
        for field in FIELDS:
            setattr(self, field, [])

    def __len__(self) -> int:
        return len(self.name)

    def rows(self) -> list:
        return [list(row) for row in zip(*(getattr(self, field) for field in FIELDS))]


class Tracer:
    def __init__(self):
        self.spans = Spans()
        self.job: Optional[str] = None
        self._stack: list = []
        self._paused = 0.0
        self._patched: list = []

    def clock(self) -> float:
        """Wall time minus the time spent in the tracer's own bookkeeping."""
        return time.perf_counter() - self._paused

    def take_spans(self) -> Spans:
        """End the current phase: return its spans and start an empty one."""
        spans, self.spans = self.spans, Spans()
        return spans

    def _wrap(self, name: str, fn, measure=None):
        stack = self._stack

        def wrapper(*args, **kwargs):
            spans = self.spans
            index = len(spans)
            spans.name.append(f"cli.{args[0][0]}" if name == "cli" else name)
            spans.parent.append(stack[-1] if stack else -1)
            spans.job.append(self.job)
            spans.size.append(0)
            spans.residual.append(0.0)
            spans.end.append(0.0)
            stack.append(index)
            spans.start.append(self.clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.end[index] = self.clock()
                stack.pop()
            if measure is not None:
                paused_at = time.perf_counter()
                measure(spans, index, args, result)
                self._paused += time.perf_counter() - paused_at
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        programs = [m for key, m in list(sys.modules.items()) if key == "modemix" or key.startswith("modemix.")]
        for module_name, attr, name in LAYERS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original, _MEASURES.get(name))
            for module in programs:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)
        result_type = sys.modules["modemix.csd"].CSDResult
        assemble = result_type.assemble
        self._patched.append((result_type, "assemble", assemble))
        result_type.assemble = self._wrap("csd.assemble", assemble)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()


def _measure_csd(spans: Spans, index: int, args, result) -> None:
    u = args[0]
    spans.size[index] = len(u)
    spans.residual[index] = reference.csd_residual(
        u, result.left_top, result.left_bottom, result.thetas, result.right_top, result.right_bottom
    )


def _measure_output(spans: Spans, index: int, args, result) -> None:
    spans.size[index] = len(result)


def _measure_input(spans: Spans, index: int, args, result) -> None:
    spans.size[index] = len(args[0])


_MEASURES = {
    "csd": _measure_csd,
    "linalg.format": _measure_output,
    "linalg.parse": _measure_input,
    "serialization.serialize": _measure_output,
    "serialization.deserialize": _measure_input,
}


def phase_metrics(spans: Spans, inexact_jobs=frozenset()) -> dict:
    """Per-layer totals of one phase (cli.start_s is measured apart).

    CSD residuals of ``inexact_jobs``, whose inputs are deliberately off
    unitary, are left out of the residual metrics, as they are left out of
    accuracy_digits.
    """
    total = dict.fromkeys(METRICS, 0.0)
    names = spans.name
    seconds = [end - start for start, end in zip(spans.start, spans.end)]
    child = [0.0] * len(spans)
    stage1_in_decompose = 0.0
    for i, parent in enumerate(spans.parent):
        if parent >= 0:
            child[parent] += seconds[i]
            if names[i] == "decompose.stage1" and names[parent] == "decompose":
                stage1_in_decompose += seconds[i]

    def add(key, value):
        total[key] += value

    for i, name in enumerate(names):
        if name == "linalg.haar":
            add("linalg.haar_s", seconds[i])
        elif name in ("linalg.format", "linalg.parse"):
            add(name + "_s", seconds[i])
            add("linalg.matrix_bytes", spans.size[i])
        elif name == "linalg.unitarity_defect":
            add("linalg.unitarity_defect_calls", 1)
            add("linalg.unitarity_defect_s", seconds[i])
        elif name == "linalg.svd":
            add("linalg.svd_s", seconds[i])
        elif name == "csd":
            add("csd.calls", 1)
            add("csd.work_n3", spans.size[i] ** 3)
            add("csd.s", seconds[i])
            add("csd.self_s", seconds[i] - child[i])
            if spans.job[i] not in inexact_jobs:
                residual = spans.residual[i]
                total["csd.residual_max"] = max(total["csd.residual_max"], residual)
                add("csd.best_effort_calls", residual > BEST_EFFORT_TOL)
        elif name == "csd.assemble":
            add("csd.assemble_calls", 1)
            add("csd.assemble_s", seconds[i])
        elif name == "decompose":
            add("decompose.stage2_s", seconds[i])
        elif name == "decompose.stage1":
            add("decompose.stage1_s", seconds[i])
            add("decompose.stage1_self_s", seconds[i] - child[i])
        elif name == "circuits.reconstruct":
            add("circuits.reconstruct_s", seconds[i])
        elif name == "circuits.embed":
            add("circuits.embed_calls", 1)
        elif name == "costs.audit":
            add("costs.audit_s", seconds[i])
        elif name in ("serialization.serialize", "serialization.deserialize"):
            add(name + "_s", seconds[i])
            add("serialization.bytes", spans.size[i])
    total["decompose.stage2_s"] -= stage1_in_decompose
    return total


def combine(setup: dict, cycles: list, cli_start_s: float) -> dict:
    """Set-up totals plus the median over traced cycles; the worst residual overall."""
    out = {}
    for key in METRICS:
        if key == "csd.residual_max":
            out[key] = max([setup[key]] + [c[key] for c in cycles])
        elif key == "cli.start_s":
            out[key] = cli_start_s
        else:
            out[key] = setup[key] + statistics.median(c[key] for c in cycles)
        if METRICS[key] in ("count", "bytes"):
            out[key] = int(round(out[key]))
    return out
