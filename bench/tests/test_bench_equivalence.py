import contextlib
import io

import pytest

import equivalence
from parqc import DensitySpec, generate_with_density, write_qasm
from parqc.cli import main


@pytest.fixture(scope="module", params=[("grid", "basic", 3), ("linear", "lookahead", 2)])
def compiled(request, tmp_path_factory):
    """(original text, compiled text) of a real 9-qubit compile."""
    topology, router, n_sc = request.param
    d = tmp_path_factory.mktemp("eq")
    src, out = d / "in.qasm", d / "out.qasm"
    write_qasm(generate_with_density(DensitySpec(width=9, depth=30, density=0.8, seed=5)), src)
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["compile", str(src), "--topology", topology, "--router", router,
                     "--n-sc", str(n_sc), "-o", str(out), "--report", str(d / "r.json")])
    assert code == 0
    return src.read_text(), out.read_text()


def check(original: str, compiled: str):
    return equivalence.check_equivalent(equivalence.read_program(original), equivalence.read_program(compiled))


def gate_lines(text: str) -> list[int]:
    """Indices of non-SWAP gate lines."""
    return [i for i, line in enumerate(text.splitlines())
            if line.endswith(";") and not line.startswith(("OPENQASM", "include", "qreg", "barrier", "swap"))]


def test_accepts_real_output(compiled):
    original, out = compiled
    assert equivalence.swap_count(equivalence.read_program(out)) > 0
    assert check(original, out) is None


def test_rejects_dropped_gate(compiled):
    original, out = compiled
    lines = out.splitlines()
    del lines[gate_lines(out)[len(gate_lines(out)) // 2]]
    assert "differs" in check(original, "\n".join(lines))


def test_rejects_two_reordered_gates(compiled):
    original, out = compiled
    lines = out.splitlines()
    idx = gate_lines(out)
    i, j = next((a, b) for a, b in zip(idx, idx[1:]) if lines[a] != lines[b])
    lines[i], lines[j] = lines[j], lines[i]
    assert "differs" in check(original, "\n".join(lines))


def test_rejects_wrong_final_layout(compiled):
    original, out = compiled
    program = equivalence.read_program(out)
    wrong = list(program.final_layout)
    wrong[0], wrong[1] = wrong[1], wrong[0]
    body = "\n".join(line for line in out.splitlines() if not line.startswith("// final_layout"))
    text = body + "\n// final_layout: [" + ", ".join(map(str, wrong)) + "]\n"
    assert "final_layout" in check(original, text)


def test_input_swaps_are_relabels():
    original = 'OPENQASM 2.0;\nqreg q[3];\nswap q[0],q[2];\ncx q[0],q[1];\n'
    # same program with the SWAP folded into the layout instead of executed
    compiled = 'OPENQASM 2.0;\nqreg q[3];\ncx q[2],q[1];\n// final_layout: [2, 1, 0]\n'
    assert check(original, compiled) is None


def test_depth_ignores_barriers():
    program = equivalence.read_program(
        "OPENQASM 2.0;\nqreg q[3];\nh q[0];\nbarrier q;\nh q[1];\ncx q[0],q[1];\n")
    assert equivalence.depth(program) == 2


def test_reader_rejects_qubit_outside_register():
    with pytest.raises(ValueError, match="out of range"):
        equivalence.read_program("OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[2];\n")
