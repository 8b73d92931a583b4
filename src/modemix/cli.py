"""Command-line front end for scripted use.

Machine-readable output (key=value lines, JSON) goes to stdout;
diagnostics go to stderr. Exit codes: 0 success, 1 reconstruction error
above ``--tol`` (``decompose`` and ``verify``), 2 parse failure,
3 non-unitary input, 4 dimension or argument error (including a
dimension too large to allocate), 141 stdout closed by its reader,
printing nothing. ``--tol`` bounds only the reconstruction error; the
matrix that ``decompose`` or ``csd`` factors, and every internal op of the
circuit ``decompose`` compiles, pass the library's one unitarity gate, at
1e-10, before any file is opened. ``main`` runs each command with the cyclic
garbage collector off and then restores the caller's setting, through the
same helper with which ``deserialize`` reads.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .circuits import ModeSpace, reconstruct
from .costs import _tally, cost_report
from .csd import csd
from .decompose import decompose, decompose_stage1
from .errors import CircuitFormatError, DimensionError, MatrixFormatError, UnitarityError
from .linalg import haar_random_unitary, load_matrix, save_matrix
from .serialization import _collector_paused, deserialize, serialize

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_NOT_UNITARY = 3
EXIT_USAGE = 4
_EXIT_CLOSED_STDOUT = 128 + 13  # as a shell reports a writer killed by SIGPIPE


# The exit code of each error class that main reports, checked in order.
_EXIT_CODES = {
    MatrixFormatError: EXIT_PARSE,
    CircuitFormatError: EXIT_PARSE,
    UnitarityError: EXIT_NOT_UNITARY,
    DimensionError: EXIT_USAGE,
    MemoryError: EXIT_USAGE,
    OSError: EXIT_PARSE,
    UnicodeDecodeError: EXIT_PARSE,
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad arguments; route usage problems
    # through the dimension/argument exit code instead.
    def error(self, message):
        raise DimensionError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="modemix",
        description="Compile unitary matrices into beamsplitters and internal-mode operations.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("decompose", help="decompose a unitary matrix into a circuit file")
    p.add_argument("input", help="matrix text file holding the unitary")
    p.add_argument("output", help="circuit JSON file to write")
    p.add_argument("--ns", type=int, required=True, help="number of spatial modes")
    p.add_argument("--np", type=int, required=True, help="number of internal modes")
    p.add_argument(
        "--tol", type=float, default=1e-9, help="reconstruction tolerance only (default 1e-9)"
    )
    p.add_argument(
        "--stage1-only",
        action="store_true",
        help="stop after stage 1, keeping CS blocks unexpanded",
    )
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("verify", help="check a circuit file against a matrix file")
    p.add_argument("circuit", help="circuit JSON file")
    p.add_argument("matrix", help="matrix text file")
    p.add_argument("--tol", type=float, default=1e-9, help="acceptance tolerance (default 1e-9)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("cost", help="print element counts and comparison ratios")
    p.add_argument("--ns", type=int, required=True, help="number of spatial modes")
    p.add_argument("--np", type=int, required=True, help="number of internal modes")
    p.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    p.set_defaults(func=_cmd_cost)

    p = sub.add_parser("random", help="write a seeded Haar-random unitary matrix file")
    p.add_argument("output", help="matrix text file to write")
    p.add_argument("--dim", type=int, required=True, help="matrix dimension")
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.set_defaults(func=_cmd_random)

    p = sub.add_parser("csd", help="cosine-sine decompose a unitary matrix into factor files")
    p.add_argument("input", help="matrix text file holding the unitary")
    p.add_argument("output_prefix", help="prefix for the factor files")
    p.add_argument("--m", type=int, required=True, help="top block size")
    p.set_defaults(func=_cmd_csd)

    return parser


def _tolerance_ok(tol: float) -> None:
    if not 0 < tol < math.inf:
        raise DimensionError(f"tolerance must be finite and positive, got {tol}")


def _cmd_decompose(args) -> int:
    _tolerance_ok(args.tol)
    u = load_matrix(args.input)
    compiler = decompose_stage1 if args.stage1_only else decompose
    # The file, the counts and the verdict read the record the compiler built; no element object is made.
    circuit = compiler(u, ModeSpace(args.ns, args.np))
    with open(args.output, "w", encoding="ascii") as handle:
        handle.write(serialize(circuit))
    beamsplitters, internal, phase_blocks, cs_blocks = _tally(circuit)
    if args.stage1_only:  # the compiler that ran picks the form, even for a circuit with no CS block
        print(f"internal={internal} cs_blocks={cs_blocks}")
    else:
        print(f"beamsplitters={beamsplitters} internal={internal} phase_blocks={phase_blocks}")
    return _verdict(circuit, u, args.tol)


def _cmd_verify(args) -> int:
    _tolerance_ok(args.tol)
    with open(args.circuit, "r", encoding="ascii") as handle:
        circuit = deserialize(handle.read())
    u = load_matrix(args.matrix)
    return _verdict(circuit, u, args.tol)


def _verdict(circuit, u, tol: float) -> int:
    """Print max|reconstruct(circuit) - u| and pass the circuit if it is within ``tol``."""
    space = circuit.space
    if u.shape != (space.dim, space.dim):
        raise DimensionError(
            f"matrix dimension {u.shape[0]} does not match circuit dimension {space.dim}"
        )
    error = float(np.max(np.abs(reconstruct(circuit) - u)))
    print(f"reconstruction_error={error:.6e}")
    return EXIT_OK if error <= tol else EXIT_VERIFY_FAILED


def _cmd_cost(args) -> int:
    fields = dataclasses.asdict(cost_report(ModeSpace(args.ns, args.np)))
    if args.json:
        print(json.dumps(fields, indent=2))
    else:
        width = max(len(name) for name in fields)
        for name, value in fields.items():
            text = "undefined" if value is None else f"{value:g}" if isinstance(value, float) else str(value)
            print(f"{name:<{width}}  {text}")
    return EXIT_OK


def _cmd_random(args) -> int:
    if args.seed < 0:
        raise DimensionError(f"seed must be non-negative, got {args.seed}")
    save_matrix(args.output, haar_random_unitary(args.dim, args.seed))
    return EXIT_OK


def _cmd_csd(args) -> int:
    u = load_matrix(args.input)
    result = csd(u, args.m)
    prefix = args.output_prefix
    for name in ("left_top", "left_bottom", "right_top", "right_bottom"):
        save_matrix(f"{prefix}.{name}.mat", getattr(result, name))
    with open(f"{prefix}.thetas.txt", "w", encoding="ascii") as handle:
        for theta in result.thetas:
            handle.write(f"{theta:.17g}\n")
    error = float(np.max(np.abs(result.assemble() - u)))
    print(f"reassembly_error={error:.6e}")
    return EXIT_OK


def main(argv=None) -> int:
    # A command's objects live until it returns, so the collector's passes
    # over them, most of all in verify's JSON read, are wasted work.
    with _collector_paused():
        try:
            args = build_parser().parse_args(argv)
            code = args.func(args)
            sys.stdout.flush()
            return code
        except BrokenPipeError:
            # The reader of stdout is gone, which is not a fault of ours. Point
            # stdout at devnull so the flush at interpreter exit cannot fail too.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return _EXIT_CLOSED_STDOUT
        except tuple(_EXIT_CODES) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


def entrypoint() -> None:
    sys.exit(main())
