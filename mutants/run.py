"""Checked-in mutants: each one must make the tests named in its row fail.

For every row of ``MUTANTS`` the runner copies ``src/``, ``tests/`` and
``pyproject.toml`` into a fresh temporary directory, replaces the row's old
text with its new text and runs ``python -m pytest -x -q`` on the row's test
files there. It exits 1 if any mutant survives or if any old text does not
occur exactly once in its file, so the table has to keep up with the code.
Standard library only; run it from anywhere:

    python mutants/run.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SERIALIZATION = "src/modemix/serialization.py"
CIRCUITS = "src/modemix/circuits.py"

# (what the mutant does, file, old text, new text, test files that must fail)
MUTANTS = [
    (
        "the reader adds 0.0 to every phase",
        SERIALIZATION,
        "values = _numbers(values, (space.n_p,), value_key)",
        "values = _numbers(values, (space.n_p,), value_key) + 0.0",
        ["tests/test_serialization.py"],
    ),
    (
        "the kind test goes through a set",
        SERIALIZATION,
        "if type(kind) is not str or kind not in _CODES:",
        "if kind not in set(_CODES):",
        ["tests/test_serialization.py"],
    ),
    (
        "the reader records its kind codes grouped by kind",
        SERIALIZATION,
        "return _held(space, (modes, values, sequence))",
        "return _held(space, (modes, values, sorted(sequence, key=list(groups).index)))",
        ["tests/test_serialization.py"],
    ),
    (
        "the reader reads every conjugate flag as false",
        SERIALIZATION,
        "values = np.array(values)",
        "values = np.zeros(len(values), dtype=bool)",
        ["tests/test_serialization.py"],
    ),
    (
        "format_matrix writes 16 significant digits",
        "src/modemix/linalg.py",
        '"%.17g%+.17gj"',
        '"%.16g%+.16gj"',
        ["tests/test_linalg.py"],
    ),
    (
        "the walker reads conjugate with `is True`",
        CIRCUITS,
        "return bool(flag if isinstance(flag, np.bool_) else operator.index(flag))",
        "return flag is True",
        ["tests/test_circuits.py"],
    ),
    (
        "the walker reads a text conjugate flag by its truth again",
        CIRCUITS,
        "isinstance(flag, np.bool_)",
        "isinstance(flag, (np.bool_, str))",
        ["tests/test_circuits.py"],
    ),
    (
        "the layering scan gives a pair the layer after its lower mode's, not after both modes'",
        CIRCUITS,
        "max(depth[k], depth[k + 1]) + 1",
        "depth[k] + 1",
        ["tests/test_circuits.py"],
    ),
    (
        "a gap in first modes does not end a group",
        CIRCUITS,
        "(np.diff(group_layers) != 0) | (np.diff(starts) != width)",
        "np.diff(group_layers) != 0",
        ["tests/test_circuits.py"],
    ),
    (
        "the walker applies diagonal blocks, such as phase blocks, by row scaling",
        CIRCUITS,
        "        band[...] = blocks @ band\n",
        "        diagonal = np.diagonal(blocks, 0, -2, -1)[..., None]\n"
        "        diagonal_only = np.array_equal(blocks, diagonal * np.eye(width))\n"
        "        band[...] = diagonal * band if diagonal_only else blocks @ band\n",
        ["tests/test_circuits.py"],
    ),
    (
        "one module-level stack of beamsplitter blocks serves every circuit",
        CIRCUITS,
        "        lambda order: _kron_eye(\n"
        "            np.where(values[BEAMSPLITTER][order, None, None], BEAMSPLITTER_2.conj().T, BEAMSPLITTER_2), n_p\n"
        "        ),\n",
        '        lambda order: globals().setdefault("_BLOCKS", _kron_eye(\n'
        "            np.where(values[BEAMSPLITTER][order, None, None], BEAMSPLITTER_2.conj().T, BEAMSPLITTER_2), n_p\n"
        "        )),\n",
        ["tests/test_circuits.py"],
    ),
    (
        "reconstruct builds B, not B†, for a beamsplitter whose conjugate flag is set",
        CIRCUITS,
        "BEAMSPLITTER_2.conj().T, BEAMSPLITTER_2), n_p",
        "BEAMSPLITTER_2, BEAMSPLITTER_2.conj().T), n_p",
        ["tests/test_circuits.py"],
    ),
    (
        "embed is memoised by element",
        CIRCUITS,
        "    return reconstruct(Circuit(space, [element]))",
        '    return globals().setdefault(("embed", id(element)), reconstruct(Circuit(space, [element])))',
        ["tests/test_circuits.py"],
    ),
    (
        "the walk casts angles with dtype=float again",
        CIRCUITS,
        "angles = _numbers(type(element), values, name, float)",
        "angles = np.asarray(values, dtype=float)",
        ["tests/test_circuits.py"],
    ),
    (
        "the walk skips the range check of a spatial index",
        CIRCUITS,
        "k = _check_mode(element.mode, space)",
        "k = element.mode",
        ["tests/test_serialization.py"],
    ),
    (
        "the walk skips the range and adjacency check of a spatial pair",
        CIRCUITS,
        "k = _check_pair(element.pair, space)[0]",
        "k = element.pair[0]",
        ["tests/test_serialization.py"],
    ),
    (
        "the index check truncates a spatial index with int()",
        CIRCUITS,
        "k = operator.index(k)",
        "k = int(k)",
        ["tests/test_serialization.py"],
    ),
    (
        "the walk skips the shape check of an internal matrix",
        CIRCUITS,
        "if value.shape != (n_p, n_p):",
        "if False:",
        ["tests/test_serialization.py"],
    ),
    (
        "the writer skips the unitarity check of the internal matrices",
        SERIALIZATION,
        '        require_unitary(stack, "an internal operation")\n',
        "        pass\n",
        ["tests/test_serialization.py"],
    ),
    (
        "the writer emits its lines grouped by kind, not in document order",
        SERIALIZATION,
        "[next(lines[code]) for code in sequence]",
        "[line for column in lines.values() for line in column]",
        ["tests/test_serialization.py"],
    ),
    (
        "the writer drops its per-kind finiteness check",
        SERIALIZATION,
        "if not np.isfinite(stack).all():",
        "if False:",
        ["tests/test_serialization.py"],
    ),
    (
        "the writer formats phases and thetas with %.16g, not %r",
        SERIALIZATION,
        'value = "[%s]" % ", ".join(["%r"] * n_p)',
        'value = "[%s]" % ", ".join(["%.16g"] * n_p)',
        ["tests/test_serialization.py"],
    ),
    (
        "the writer checks internal ops for unitarity before other kinds for finiteness",
        SERIALIZATION,
        "for code in (CS, BEAMSPLITTER, PHASE, INTERNAL):",
        "for code in (INTERNAL, CS, BEAMSPLITTER, PHASE):",
        ["tests/test_serialization.py"],
    ),
    (
        "the writer swaps true and false in the conjugate slot",
        SERIALIZATION,
        'np.where(stack, "true", "false")',
        'np.where(stack, "false", "true")',
        ["tests/test_serialization.py"],
    ),
    (
        "the writer writes a pair as [k, k]",
        SERIALIZATION,
        "table[:, 1] = table[:, 0] + 1",
        "table[:, 1] = table[:, 0]",
        ["tests/test_serialization.py"],
    ),
    (
        "the writer casts its indices through float64",
        SERIALIZATION,
        "table[:, 0] = modes",
        "table[:, 0] = np.array(modes, dtype=float)",
        ["tests/test_serialization.py"],
    ),
    (
        "the writer repeats a kind's line template count - 1 times",
        SERIALIZATION,
        "[_template(code, n_p)] * len(modes)",
        "[_template(code, n_p)] * (len(modes) - 1)",
        ["tests/test_serialization.py"],
    ),
    (
        "the writer puts each kind's lines back in reverse document order",
        SERIALIZATION,
        'iter(text.split("\\n"))',
        'iter(text.split("\\n")[::-1])',
        ["tests/test_serialization.py"],
    ),
    (
        "the walk dispatches on element kind through isinstance",
        CIRCUITS,
        "kind = _KINDS.get(type(element))",
        "kind = next((code for cls, code in _KINDS.items() if isinstance(element, cls)), None)",
        ["tests/test_circuits.py"],
    ),
    (
        "the walk records the mode after each element's first spatial mode",
        CIRCUITS,
        "modes[kind].append(k)",
        "modes[kind].append(k + 1)",
        ["tests/test_circuits.py"],
    ),
    (
        "reconstruct sorts each kind's elements by mode before layer",
        CIRCUITS,
        "np.lexsort((firsts, group_layers))",
        "np.lexsort((group_layers, firsts))",
        ["tests/test_circuits.py"],
    ),
    (
        "main runs its command with the collector on",
        "src/modemix/cli.py",
        "    gc.disable()\n",
        "",
        ["tests/test_cli.py"],
    ),
    (
        "main leaves the collector off after a command",
        "src/modemix/cli.py",
        "        if collecting:\n            gc.enable()\n",
        "        pass\n",
        ["tests/test_cli.py"],
    ),
    (
        "the beamsplitter tally of audit_circuit and the CLI counts only conjugate beamsplitters",
        "src/modemix/costs.py",
        "return counts[BEAMSPLITTER],",
        "return int(sum(circuit._record[1][BEAMSPLITTER])),",
        ["tests/test_costs.py", "tests/test_cli.py"],
    ),
    (
        "stage 1 takes each wave's blocks one column block to the right",
        "src/modemix/decompose.py",
        "band[..., : w * n_p]",
        "band[..., n_p : (w + 1) * n_p]",
        ["tests/test_decompose.py"],
    ),
    (
        "stage 1 puts step (c, r) in wave (n_s - r) + (c - 1)",
        "src/modemix/decompose.py",
        "wave = (n_s - r) + 2 * (c - 1)",
        "wave = (n_s - r) + (c - 1)",
        ["tests/test_decompose.py"],
    ),
    (
        "stage 1 merges each right factor with the other mode's left factor",
        "src/modemix/decompose.py",
        "before += [last[k + 1], last[k]]",
        "before += [last[k], last[k + 1]]",
        ["tests/test_decompose.py"],
    ),
    (
        "the record builder puts +θ on mode k+1 and -θ on mode k",
        "src/modemix/decompose.py",
        "modes[PHASE] = pairs.ravel().tolist()",
        "modes[PHASE] = pairs[:, ::-1].ravel().tolist()",
        ["tests/test_decompose.py"],
    ),
    (
        "the record builder puts each mixer's first internal op on mode k and its second on mode k+1",
        "src/modemix/decompose.py",
        "pairs[:, ::-1].ravel().tolist() + list(",
        "pairs.ravel().tolist() + list(",
        ["tests/test_decompose.py"],
    ),
    (
        "stage 1 writes each wave's Q's to its steps' slots in reverse",
        "src/modemix/decompose.py",
        "unitaries[slots[end - w : end]] = q",
        "unitaries[slots[end - w : end][::-1]] = q",
        ["tests/test_decompose.py"],
    ),
    (
        "stage 1 gives each mixer the mode of the slot before its own",
        "src/modemix/decompose.py",
        "np.concatenate([[n_s - 1], r[::-1] - 1])",
        "np.concatenate([r[::-1] - 1, [n_s - 1]])",
        ["tests/test_decompose.py"],
    ),
    (
        "expand_cs_block's first beamsplitter loses its conjugate flag",
        "src/modemix/decompose.py",
        "Beamsplitter(pair, conjugate=True)",
        "Beamsplitter(pair)",
        ["tests/test_decompose.py"],
    ),
    (
        "the record builder gives both phase blocks of a mixer +θ",
        "src/modemix/decompose.py",
        "np.stack([thetas, -thetas]",
        "np.stack([thetas, thetas]",
        ["tests/test_decompose.py"],
    ),
    (
        "the record builder swaps the +θ and -θ phases",
        "src/modemix/decompose.py",
        "np.stack([thetas, -thetas]",
        "np.stack([-thetas, thetas]",
        ["tests/test_decompose.py"],
    ),
    (
        "the record builder's mixers put the second beamsplitter before the -θ phase block",
        "src/modemix/decompose.py",
        "mixer = [BEAMSPLITTER, PHASE, PHASE, BEAMSPLITTER]",
        "mixer = [BEAMSPLITTER, PHASE, BEAMSPLITTER, PHASE]",
        ["tests/test_decompose.py"],
    ),
    (
        "the record builder's mixers start with a plain beamsplitter and end with a conjugate one",
        "src/modemix/decompose.py",
        "np.tile([True, False]",
        "np.tile([False, True]",
        ["tests/test_decompose.py"],
    ),
    (
        "_elements drops the conjugate flag",
        CIRCUITS,
        "map(pairs.get, modes[BEAMSPLITTER]), map(bool, values[BEAMSPLITTER]))",
        "map(pairs.get, modes[BEAMSPLITTER]))",
        ["tests/test_circuits.py"],
    ),
    (
        "circuit equality skips the value stacks",
        CIRCUITS,
        "np.array_equal(a, b) for firsts",
        "True for firsts",
        ["tests/test_circuits.py"],
    ),
    (
        "circuit equality skips the kind sequence",
        CIRCUITS,
        "(self.space, sequence, modes) == (other.space, theirs[2], theirs[0])",
        "(self.space, modes) == (other.space, theirs[0])",
        ["tests/test_circuits.py"],
    ),
    (
        "_elements hands out writable views of the record",
        CIRCUITS,
        "stack.flags.writeable = False",
        "stack.flags.writeable = True",
        ["tests/test_circuits.py"],
    ),
    (
        "Circuit.__reduce__ is removed, so a copy carries the built elements",
        CIRCUITS,
        "    def __reduce__(self):",
        "    def _unused_reduce(self):",
        ["tests/test_circuits.py"],
    ),
    (
        "__post_init__ keeps the caller's elements as a tuple beside the record",
        CIRCUITS,
        '        object.__delattr__(self, "elements")  # the record is all a circuit keeps\n',
        '        object.__setattr__(self, "elements", tuple(self.elements))\n',
        ["tests/test_circuits.py"],
    ),
    (
        "a circuit is left hashable",
        CIRCUITS,
        "@dataclass(frozen=True, eq=False)",
        "@dataclass(frozen=True)",
        ["tests/test_circuits.py"],
    ),
    (
        "element equality takes a subclass instance as its base's",
        CIRCUITS,
        "    if type(a) is not type(b):\n",
        "    if not isinstance(b, type(a)):\n",
        ["tests/test_circuits.py"],
    ),
    (
        "Beamsplitter keeps the dataclass equality, which compares a pair array's truth value",
        CIRCUITS,
        "    conjugate: bool = False\n    __eq__ = _same\n",
        "    conjugate: bool = False\n",
        ["tests/test_circuits.py"],
    ),
    (
        "_factor casts its matrix with dtype=complex again",
        "src/modemix/decompose.py",
        'u = np.array(_numbers(owner, u, "input", complex))',
        "u = np.array(u, dtype=complex)",
        ["tests/test_decompose.py"],
    ),
    (
        "csd casts its matrix with dtype=complex again",
        "src/modemix/csd.py",
        'u = _numbers(csd, u, "input", complex)',
        "u = np.asarray(u, dtype=complex)",
        ["tests/test_csd.py"],
    ),
    (
        "_as_stack casts with dtype=complex again",
        "src/modemix/linalg.py",
        'm = _numbers(owner, a, "input", complex)',
        "m = np.asarray(a, dtype=complex)",
        ["tests/test_linalg.py"],
    ),
    (
        "block_partition casts with dtype=complex again",
        "src/modemix/csd.py",
        'u = _numbers(block_partition, u, "input", complex)',
        "u = np.asarray(u, dtype=complex)",
        ["tests/test_csd.py"],
    ),
    (
        "_require_fits divides the index limit by 17, not 16",
        "src/modemix/linalg.py",
        "np.iinfo(np.intp).max // 16",
        "np.iinfo(np.intp).max // 17",
        ["tests/test_linalg.py"],
    ),
    (
        "cs_matrix casts angles with dtype=float again",
        "src/modemix/csd.py",
        '_numbers(cs_matrix, thetas, "thetas", float)',
        "np.asarray(thetas, dtype=float)",
        ["tests/test_csd.py"],
    ),
    (
        "csd_stack puts every stacked slice in one k group",
        "src/modemix/csd.py",
        "group = np.flatnonzero(ks == k)",
        "group = np.flatnonzero(ks > 0)",
        ["tests/test_csd.py"],
    ),
    (
        "csd_stack straightens each group by k - 1: k = 0 included, the largest k skipped",
        "src/modemix/csd.py",
        "np.flatnonzero(np.bincount(ks)[1:]) + 1:",
        "np.flatnonzero(np.bincount(ks)[1:]):",
        ["tests/test_csd.py"],
    ),
    (
        "csd_stack skips the group of the largest k",
        "src/modemix/csd.py",
        "np.flatnonzero(np.bincount(ks)[1:]) + 1:",
        "np.flatnonzero(np.bincount(ks)[1:-1]) + 1:",
        ["tests/test_csd.py"],
    ),
]


def run(name: str, path: str, old: str, new: str, tests: list[str]) -> bool:
    """Apply one mutant to a copy of the tree; True when its tests fail."""
    source = (ROOT / path).read_text()
    count = source.count(old)
    if count != 1:
        print(f"STALE    {name}: old text occurs {count} times in {path}")
        return False
    with tempfile.TemporaryDirectory(prefix="modemix-mutant-") as tmp:
        work = Path(tmp)
        shutil.copytree(ROOT / "src", work / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", work / "tests", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", work / "pyproject.toml")
        (work / path).write_text(source.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(work / "src"))
        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", *tests],
            cwd=work, env=env, capture_output=True, text=True,
        )
        seconds = time.perf_counter() - start
    # pytest exits 1 when tests ran and some failed; any other code is no kill.
    if result.returncode == 1:
        print(f"killed   {name} ({seconds:.1f} s)")
        return True
    verdict = "SURVIVED" if result.returncode == 0 else f"ERROR {result.returncode}"
    print(f"{verdict} {name}\n{result.stdout[-2000:]}{result.stderr[-2000:]}")
    return False


def main() -> int:
    killed = [run(*row) for row in MUTANTS]
    print(f"{sum(killed)} of {len(killed)} mutants killed")
    return 0 if all(killed) else 1


if __name__ == "__main__":
    sys.exit(main())
