import gc
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from modemix import (
    ModeSpace,
    decompose,
    deserialize,
    haar_random_unitary,
    load_matrix,
    parse_matrix,
    save_matrix,
    serialize,
    unitarity_defect,
)
from modemix.cli import main

from conftest import block_diag_unitary, gate_edge_unitary
from test_serialization import assert_bit_identical


def run(args):
    return main([str(a) for a in args])


def src_env() -> dict:
    """This environment with the checkout's ``src`` first on ``PYTHONPATH``, for a fresh interpreter."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def count_walks(monkeypatch) -> list:
    """A list that gains an entry at each call of the element walk, which ``Circuit`` reaches through its module."""
    calls, circuits = [], sys.modules["modemix.circuits"]
    walk = circuits._walk
    monkeypatch.setattr(circuits, "_walk", lambda circuit: calls.append(1) or walk(circuit))
    return calls


@pytest.fixture
def haar_file(tmp_path):
    def make(dim, seed, name="input.mat"):
        path = tmp_path / name
        assert run(["random", path, "--dim", dim, "--seed", seed]) == 0
        return path

    return make


class TestRandom:
    def test_writes_unitary_matrix(self, tmp_path, haar_file):
        path = haar_file(6, 1)
        assert unitarity_defect(load_matrix(path)) <= 1e-10

    def test_deterministic(self, tmp_path, haar_file):
        a = haar_file(4, 3, "a.mat")
        b = haar_file(4, 3, "b.mat")
        assert a.read_text() == b.read_text()

    def test_dim1_unit_modulus(self, tmp_path, haar_file):
        u = load_matrix(haar_file(1, 0))
        assert abs(abs(u[0, 0]) - 1.0) < 1e-14

    def test_rejects_dim_zero(self, tmp_path):
        assert run(["random", tmp_path / "x.mat", "--dim", 0, "--seed", 0]) == 4

    def test_rejects_negative_seed(self, tmp_path):
        assert run(["random", tmp_path / "x.mat", "--dim", 4, "--seed", -1]) == 4

    def test_dimension_too_large_to_allocate_exits_4(self, tmp_path, capsys):
        # 10^8 x 10^8 complex entries exceed any address space, so the
        # allocation fails at once instead of touching memory. At 10^10 the
        # byte count exceeds what numpy can index, so no such array can exist.
        path = tmp_path / "x.mat"
        for dim in (10**8, 10**10):
            assert run(["random", path, "--dim", dim, "--seed", 0]) == 4
            assert capsys.readouterr().err.startswith("error: ")
            assert not path.exists()


class TestDecompose:
    def test_identity_4x4(self, tmp_path, capsys):
        from modemix import save_matrix

        inp = tmp_path / "id.mat"
        save_matrix(inp, np.eye(4))
        out = tmp_path / "id.circuit.json"
        assert run(["decompose", inp, out, "--ns", 2, "--np", 2]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "beamsplitters=2 internal=4 phase_blocks=2"
        error = float(lines[1].split("=", 1)[1])
        assert error <= 1e-12
        assert out.exists()

    def test_haar_8x8_counts(self, tmp_path, capsys, haar_file):
        inp = haar_file(8, 5)
        out = tmp_path / "c.json"
        assert run(["decompose", inp, out, "--ns", 4, "--np", 2]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "beamsplitters=12 internal=16 phase_blocks=12"

    # At 1 x 4 there is no CS block; the line's form follows the flag, not the counts.
    @pytest.mark.parametrize(
        "n_s,n_p,line,cs_blocks", [(4, 2, "internal=16 cs_blocks=6", 6), (1, 4, "internal=1 cs_blocks=0", 0)]
    )
    def test_stage1_only_counts(self, tmp_path, capsys, haar_file, n_s, n_p, line, cs_blocks):
        inp = haar_file(n_s * n_p, 5)
        out = tmp_path / "c1.json"
        assert run(["decompose", inp, out, "--ns", n_s, "--np", n_p, "--stage1-only"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == line
        doc = json.loads(out.read_text())
        assert sum(e["kind"] == "cs_block" for e in doc["elements"]) == cs_blocks

    @pytest.mark.parametrize("flags", [[], ["--stage1-only"]])
    def test_walks_no_circuit(self, tmp_path, monkeypatch, haar_file, flags):
        # The file, the counts line and the verdict all read the record the compiler built.
        calls = count_walks(monkeypatch)
        inp, out = haar_file(8, 5), tmp_path / "c.json"
        assert run(["decompose", inp, out, "--ns", 4, "--np", 2, *flags]) == 0
        assert len(calls) == 0

    def test_error_above_tol_exits_1(self, tmp_path, capsys):
        from modemix import save_matrix

        # An exact permutation passes the input check at any tolerance, and
        # its circuit rebuilds it a few 1e-16 off, which 1e-300 does not admit.
        inp = tmp_path / "perm.mat"
        save_matrix(inp, np.eye(8)[np.random.default_rng(3).permutation(8)])
        out = tmp_path / "perm.json"
        assert run(["decompose", inp, out, "--ns", 4, "--np", 2, "--tol", "1e-300"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "beamsplitters=12 internal=16 phase_blocks=12"
        assert float(lines[1].split("=", 1)[1]) > 0
        assert run(["verify", out, inp, "--tol", "1e-300"]) == 1

    def test_parse_failure_exits_2(self, tmp_path):
        bad = tmp_path / "bad.mat"
        for text in ("this is not a matrix\n", "0 3\n"):
            bad.write_text(text)
            assert run(["decompose", bad, tmp_path / "o.json", "--ns", 2, "--np", 2]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        missing = tmp_path / "nope.mat"
        assert run(["decompose", missing, tmp_path / "o.json", "--ns", 2, "--np", 2]) == 2

    def test_non_ascii_matrix_exits_2(self, tmp_path, haar_file):
        inp = haar_file(4, 0)
        inp.write_bytes(inp.read_bytes() + b"\xff\n")
        assert run(["decompose", inp, tmp_path / "o.json", "--ns", 2, "--np", 2]) == 2

    def test_non_unitary_exits_3(self, tmp_path, capsys):
        from modemix import save_matrix

        inp = tmp_path / "nu.mat"
        save_matrix(inp, np.eye(4) * 1.5)
        code = run(["decompose", inp, tmp_path / "o.json", "--ns", 2, "--np", 2])
        assert code == 3
        assert "deviation" in capsys.readouterr().err

    @pytest.mark.parametrize("n_s,n_p,amplitude", [(1, 4, 2e-10), (4, 2, 3e-10)])
    def test_near_unitary_input_is_refused_at_any_tol(self, tmp_path, capsys, n_s, n_p, amplitude):
        # Haar plus Gaussian noise, with a defect of a few 1e-10: inside a
        # loose --tol, but its ops would carry the defect into a file that
        # the reader refuses. The input gate does not depend on --tol.
        dim = n_s * n_p
        noise = np.random.default_rng(0).standard_normal((dim, dim))
        inp, out = tmp_path / "near.mat", tmp_path / "near.json"
        save_matrix(inp, haar_random_unitary(dim, 4) + amplitude * noise)
        for tol in ([], ["--tol", "1e-3"]):
            assert run(["decompose", inp, out, "--ns", n_s, "--np", n_p, *tol]) == 3
            assert "deviation" in capsys.readouterr().err
            assert not out.exists()

    def test_gate_edge_input_leaves_the_output_as_it_was_or_readable(self, tmp_path):
        # The input passes the gate, but its first internal op carries its
        # defect plus rounding past it. decompose refuses before the output
        # file is opened; a BLAS that rounds the op inside the gate writes a file.
        inp, out = tmp_path / "edge.mat", tmp_path / "edge.json"
        save_matrix(inp, gate_edge_unitary(2, 11))
        out.write_text('{"written": "before"}\n')
        before = out.read_bytes()
        code = run(["decompose", inp, out, "--ns", 2, "--np", 1])
        if code == 3:
            assert out.read_bytes() == before
        else:
            assert code in (0, 1)
            assert run(["verify", out, inp]) in (0, 1)

    @pytest.mark.parametrize(
        "n_s,n_p,u",
        [
            (4, 2, np.eye(8)[np.random.default_rng(5).permutation(8)] * np.exp(1j * np.arange(8))),
            (2, 3, np.kron(haar_random_unitary(2, 6), haar_random_unitary(3, 7))),
            (3, 2, block_diag_unitary(haar_random_unitary(2, 8), haar_random_unitary(4, 9))),
        ],
        ids=["phased permutation", "kronecker", "block diagonal"],
    )
    def test_structured_input_file_matches_library(self, tmp_path, n_s, n_p, u):
        inp, out = tmp_path / "u.mat", tmp_path / "u.json"
        save_matrix(inp, u)
        assert run(["decompose", inp, out, "--ns", n_s, "--np", n_p]) == 0
        restored = deserialize(out.read_text())
        assert_bit_identical(decompose(u, ModeSpace(n_s, n_p)).elements, restored.elements)
        assert run(["verify", out, inp]) == 0

    def test_dimension_mismatch_exits_4(self, tmp_path, haar_file):
        inp = haar_file(6, 0)
        assert run(["decompose", inp, tmp_path / "o.json", "--ns", 2, "--np", 2]) == 4

    def test_missing_flags_exit_4(self, tmp_path, haar_file):
        inp = haar_file(4, 0)
        assert run(["decompose", inp, tmp_path / "o.json"]) == 4


class TestVerify:
    def test_pipeline_closure(self, tmp_path, capsys, haar_file):
        inp = haar_file(6, 2)
        out = tmp_path / "c.json"
        assert run(["decompose", inp, out, "--ns", 3, "--np", 2]) == 0
        assert run(["verify", out, inp]) == 0

    @pytest.mark.parametrize("flags", [[], ["--stage1-only"]])
    def test_walks_no_circuit(self, tmp_path, monkeypatch, haar_file, flags):
        # The verdict reads the record the reader built.
        inp, out = haar_file(8, 5), tmp_path / "c.json"
        assert run(["decompose", inp, out, "--ns", 4, "--np", 2, *flags]) == 0
        calls = count_walks(monkeypatch)
        assert run(["verify", out, inp]) == 0
        assert len(calls) == 0

    def test_wrong_matrix_exits_1(self, tmp_path, haar_file):
        inp = haar_file(6, 2)
        other = haar_file(6, 3, "other.mat")
        out = tmp_path / "c.json"
        assert run(["decompose", inp, out, "--ns", 3, "--np", 2]) == 0
        assert run(["verify", out, other]) == 1

    def test_tampered_phase_exits_1(self, tmp_path, haar_file):
        inp = haar_file(6, 2)
        out = tmp_path / "c.json"
        assert run(["decompose", inp, out, "--ns", 3, "--np", 2]) == 0
        doc = json.loads(out.read_text())
        for element in doc["elements"]:
            if element["kind"] == "phase_block":
                element["phases"][0] += 0.1
                break
        out.write_text(json.dumps(doc))
        assert run(["verify", out, inp]) == 1

    def test_non_numeric_phase_exits_2(self, tmp_path, haar_file):
        inp = haar_file(6, 2)
        out = tmp_path / "c.json"
        assert run(["decompose", inp, out, "--ns", 3, "--np", 2]) == 0
        doc = json.loads(out.read_text())
        for element in doc["elements"]:
            if element["kind"] == "phase_block":
                element["phases"][0] = str(element["phases"][0])
                break
        out.write_text(json.dumps(doc))
        assert run(["verify", out, inp]) == 2

    def test_phase_too_large_for_a_float_exits_2(self, tmp_path, haar_file):
        inp = haar_file(6, 2)
        out = tmp_path / "c.json"
        assert run(["decompose", inp, out, "--ns", 3, "--np", 2]) == 0
        doc = json.loads(out.read_text())
        for element in doc["elements"]:
            if element["kind"] == "phase_block":
                element["phases"][0] = 10**400
                break
        out.write_text(json.dumps(doc))
        assert run(["verify", out, inp]) == 2

    def test_non_ascii_circuit_exits_2(self, tmp_path, haar_file):
        inp = haar_file(4, 1)
        out = tmp_path / "c.json"
        assert run(["decompose", inp, out, "--ns", 2, "--np", 2]) == 0
        out.write_bytes(out.read_bytes().replace(b'"elements"', b'"el\xc3\xa9ments"', 1))
        assert run(["verify", out, inp]) == 2

    def test_schema_violation_exits_2(self, tmp_path, haar_file):
        inp = haar_file(4, 1)
        bad = tmp_path / "bad.json"
        bad.write_text('{"format_version": "99"}')
        assert run(["verify", bad, inp]) == 2

    def test_dimension_mismatch_exits_4(self, tmp_path, haar_file):
        inp = haar_file(6, 2)
        other = haar_file(4, 1, "small.mat")
        out = tmp_path / "c.json"
        assert run(["decompose", inp, out, "--ns", 3, "--np", 2]) == 0
        assert run(["verify", out, other]) == 4


@pytest.mark.parametrize("command", ["decompose", "verify"])
@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_tolerance_must_be_finite_and_positive(tmp_path, command, tol):
    from modemix import save_matrix

    # A non-unitary matrix. An infinite --tol would let verify pass it
    # against the identity circuit; decompose refuses it at the unitarity
    # gate whatever --tol is, but the bad tolerance is reported first.
    bad = tmp_path / "bad.mat"
    save_matrix(bad, np.diag([1.0, 2.0, 1.0, 1.0]))
    if command == "decompose":
        args = ["decompose", bad, tmp_path / "o.json", "--ns", 2, "--np", 2]
    else:
        identity = tmp_path / "id.mat"
        save_matrix(identity, np.eye(4))
        circuit = tmp_path / "id.json"
        assert run(["decompose", identity, circuit, "--ns", 2, "--np", 2]) == 0
        args = ["verify", circuit, bad]
    assert run(args + ["--tol", tol]) == 4


class TestCost:
    def test_table(self, capsys):
        assert run(["cost", "--ns", 3, "--np", 2]) == 0
        out = capsys.readouterr().out
        assert "eta" in out and "2.5" in out

    def test_output_is_pinned(self, capsys):
        assert run(["cost", "--ns", 3, "--np", 2]) == 0
        assert capsys.readouterr().out == (
            "n_s                        3\n"
            "n_p                        2\n"
            "beamsplitters              6\n"
            "internal_arbitrary         9\n"
            "internal_phase_blocks      6\n"
            "internal_element_estimate  48\n"
            "reck_beamsplitters         15\n"
            "reck_phase_shifters        21\n"
            "eta                        2.5\n"
            "xi                         2.28571\n"
        )
        assert run(["cost", "--ns", 3, "--np", 2, "--json"]) == 0
        assert capsys.readouterr().out == (
            "{\n"
            '  "n_s": 3,\n'
            '  "n_p": 2,\n'
            '  "beamsplitters": 6,\n'
            '  "internal_arbitrary": 9,\n'
            '  "internal_phase_blocks": 6,\n'
            '  "internal_element_estimate": 48,\n'
            '  "reck_beamsplitters": 15,\n'
            '  "reck_phase_shifters": 21,\n'
            '  "eta": 2.5,\n'
            '  "xi": 2.2857142857142856\n'
            "}\n"
        )

    def test_json(self, capsys):
        assert run(["cost", "--ns", 3, "--np", 2, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["eta"] == 2.5
        assert doc["reck_beamsplitters"] == 15
        assert doc["beamsplitters"] == 6

    def test_single_spatial_mode_undefined(self, capsys):
        assert run(["cost", "--ns", 1, "--np", 4]) == 0
        assert "undefined" in capsys.readouterr().out


class TestCsdCommand:
    def test_identity_thetas_zero(self, tmp_path, capsys):
        from modemix import save_matrix

        inp = tmp_path / "id.mat"
        save_matrix(inp, np.eye(4))
        prefix = tmp_path / "factors"
        assert run(["csd", inp, prefix, "--m", 2]) == 0
        thetas = [float(line) for line in (tmp_path / "factors.thetas.txt").read_text().split()]
        assert thetas == [0.0, 0.0]

    def test_haar_reassembly(self, tmp_path, capsys, haar_file):
        inp = haar_file(6, 4)
        prefix = tmp_path / "f"
        assert run(["csd", inp, prefix, "--m", 2]) == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("reassembly_error=")
        assert float(line.split("=", 1)[1]) <= 1e-10
        for suffix in ("left_top", "left_bottom", "right_top", "right_bottom"):
            assert (tmp_path / f"f.{suffix}.mat").exists()
        left_top = load_matrix(tmp_path / "f.left_top.mat")
        assert left_top.shape == (2, 2)
        assert unitarity_defect(left_top) <= 1e-10

    def test_m_exceeding_n_exits_4(self, tmp_path, haar_file):
        inp = haar_file(6, 4)
        assert run(["csd", inp, tmp_path / "f", "--m", 4]) == 4


class TestCollector:
    """``main`` runs each command with the cyclic collector off and leaves the caller's setting as it found it."""

    @pytest.mark.parametrize(
        "args,code",
        [
            (["cost", "--ns", 3, "--np", 2], 0),
            (["decompose", "{dir}/bad.mat", "{dir}/o.json", "--ns", 2, "--np", 2], 2),
            (["decompose", "{dir}/nu.mat", "{dir}/o.json", "--ns", 2, "--np", 2], 3),
            (["random", "{dir}/x.mat", "--dim", 0], 4),
        ],
        ids=["exit-0", "exit-2", "exit-3", "exit-4"],
    )
    def test_state_is_restored(self, tmp_path, capsys, caller, args, code):
        (tmp_path / "bad.mat").write_text("this is not a matrix\n")
        save_matrix(tmp_path / "nu.mat", np.eye(4) * 1.5)
        assert run([str(a).format(dir=tmp_path) for a in args]) == code
        assert gc.isenabled() is caller

    def test_command_runs_with_the_collector_off(self, monkeypatch, caller):
        seen = []
        monkeypatch.setattr(sys.modules["modemix.cli"], "_cmd_cost", lambda args: seen.append(gc.isenabled()) or 0)
        assert run(["cost", "--ns", 3, "--np", 2]) == 0
        assert seen == [False] and gc.isenabled() is caller

    def test_state_is_restored_when_a_command_raises(self, monkeypatch, caller):
        def fail(args):
            raise RuntimeError("fault inside a command")

        monkeypatch.setattr(sys.modules["modemix.cli"], "_cmd_cost", fail)
        with pytest.raises(RuntimeError):
            run(["cost", "--ns", 3, "--np", 2])
        assert gc.isenabled() is caller


class TestSubprocessEntry:
    def test_module_invocation(self, tmp_path):
        env = src_env()
        out = tmp_path / "u.mat"
        result = subprocess.run(
            [sys.executable, "-m", "modemix", "random", str(out), "--dim", "3", "--seed", "1"],
            env=env,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert unitarity_defect(parse_matrix(out.read_text())) <= 1e-10

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_closed_stdout_exits_141_silently(self, unbuffered):
        # The read end is closed before the child starts, so its first write
        # to stdout meets a broken pipe, buffered (at the final flush) or not.
        env = src_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "modemix", "cost", "--ns", "3", "--np", "2", "--json"],
                env=env,
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
            )
        finally:
            os.close(write_end)
        assert result.returncode == 141
        assert result.stderr == ""


# Runs ``main`` on its arguments in a fresh interpreter, then prints, as its
# last line, the numpy modules that the command loaded beyond what
# ``import numpy, modemix.cli`` had loaded.
LOADED_BY_COMMAND = """
import json, sys
import numpy, modemix.cli
before = set(sys.modules)
code = modemix.cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in set(sys.modules) - before if m.split(".")[0] == "numpy")]))
"""


class TestStartUp:
    """A command loads no numpy module beyond those its imports load.

    Compared against that baseline, not against a list of names: numpy 1.x
    imports numpy.ma with numpy itself, numpy 2.x only when it is first used.
    """

    @pytest.mark.parametrize(
        "command",
        [
            ["decompose", "{u}", "{dir}/out.json", "--ns", "3", "--np", "2"],
            ["decompose", "{u}", "{dir}/out.json", "--ns", "3", "--np", "2", "--stage1-only"],
            ["verify", "{dir}/c.json", "{u}"],
            ["csd", "{u}", "{dir}/factors", "--m", "2"],
        ],
        ids=["decompose", "stage1-only", "verify", "csd"],
    )
    def test_command_loads_no_further_numpy_module(self, tmp_path, command):
        space = ModeSpace(3, 2)
        u = haar_random_unitary(space.dim, 7)
        save_matrix(tmp_path / "u.mat", u)
        (tmp_path / "c.json").write_text(serialize(decompose(u, space)))
        argv = [arg.format(u=tmp_path / "u.mat", dir=tmp_path) for arg in command]
        result = subprocess.run(
            [sys.executable, "-c", LOADED_BY_COMMAND, *argv], env=src_env(), capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout.splitlines()[-1]) == [0, []]
