"""Fixed reference work that shows how fast the machine runs at the moment.

The benchmark runs on a shared virtual machine whose speed drifts by tens
of percent over minutes, for every process alike. The worker runs one
kind of reference work before every job of a pass and after its last,
outside the timed regions, and a reference interpreter start before
every set-up probe. Each timed total is then scaled to the pace at which
a part of the reference work takes its ``seconds``. Nothing here calls
the program, so a change to the program moves the scaled times by the
same share as the raw ones; the raw times stay in the run's record.

- ``COMPUTE`` mixes what the library jobs do: small LAPACK SVDs called
  from Python, complex matrix products, and float text and JSON. The
  whole mix paces ``compile_s``, ``files_s`` and the pass wall time. Its
  matrix products alone pace ``verify_s``, which is bound by the products
  of ``reconstruct``.
- ``INTERPRETER`` starts a fresh Python that imports numpy, which is most
  of what a ``modemix`` command or a set-up probe does.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import benchenv

_rng = np.random.default_rng(20150824)
_SMALL = [_rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4)) for _ in range(60)]
_MID = _rng.standard_normal((96, 96)) + 1j * _rng.standard_normal((96, 96))
_FLOATS = _rng.standard_normal(1500).tolist()
_ROUNDS = 12


def compute() -> dict:
    """Seconds taken by a fixed mix of numpy calls and float text (``all``),
    and by its complex matrix products alone (``products``)."""
    products = 0.0
    start = time.perf_counter()
    for _ in range(_ROUNDS):
        for m in _SMALL:
            u, s, vh = np.linalg.svd(m)
            (u * s) @ vh
        products_start = time.perf_counter()
        acc = _MID
        for _ in range(6):
            acc = acc @ _MID
            acc /= np.abs(acc).max()
        products += time.perf_counter() - products_start
        json.loads(json.dumps(_FLOATS))
        [float(x) for x in " ".join(repr(x) for x in _FLOATS).split()]
    return {"all": time.perf_counter() - start, "products": products}


def interpreter() -> float:
    """Seconds from starting a fresh interpreter to the end of ``import numpy``."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=benchenv.child_env(), check=True)
    return time.perf_counter() - start


def _interpreter_parts() -> dict:
    return {"all": interpreter()}


@dataclass(frozen=True)
class Reference:
    """A kind of reference work: the seconds each of its parts takes at the
    reference pace, and the part that paces each timed total (``all``
    unless named)."""

    run: Callable[[], dict]
    seconds: dict
    part_for: dict

    def scale(self, samples) -> dict:
        """Factor per part that takes raw seconds measured next to ``samples`` to the reference pace."""
        return {part: ref * len(samples) / sum(s[part] for s in samples) for part, ref in self.seconds.items()}

    def scaled(self, totals: dict, samples) -> dict:
        """A pass's raw totals at the reference pace."""
        factor = self.scale(samples)
        return {key: totals[key] * factor[self.part_for.get(key, "all")] for key in TOTALS}


TOTALS = ("compile_s", "verify_s", "files_s", "wall_s")

# The reference seconds are about what the work takes on the 2-CPU machine
# of bench/README.md when it is quiet (5th percentiles of 32–36 ms for the
# mix, 7 ms for its products, 80 ms for an interpreter start). They only
# fix the unit of the scaled times.
COMPUTE = Reference(compute, {"all": 0.040, "products": 0.008}, {"verify_s": "products"})
INTERPRETER = Reference(_interpreter_parts, {"all": 0.080}, {})
