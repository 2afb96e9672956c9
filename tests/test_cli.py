import csv
import dataclasses
import json
import multiprocessing
import os
import pickle
import subprocess
import sys

import pytest

import parqc.pipeline
from parqc.circuit import compute_metrics, read_qasm, serialize_qasm, write_qasm
from parqc.cli import (
    EXIT_ERROR,
    EXIT_IO,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_ROUTE,
    EXIT_TOPOLOGY,
    SWEEP_COLUMNS,
    _build_topology,
    main,
)
from parqc.densitygen import DensitySpec, generate_with_density
from parqc.pipeline import CompileReport


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="workers only see the patched route under the fork start method",
)
def test_dying_worker_exits_with_routing_code(monkeypatch, tmp_path, capsys):
    real_route = parqc.pipeline.route

    def dying_route(circuit, *args, **kwargs):
        if circuit.name == "chunk1":
            os._exit(3)
        return real_route(circuit, *args, **kwargs)

    monkeypatch.setattr(parqc.pipeline, "route", dying_route)
    monkeypatch.setenv(parqc.pipeline.MAX_WORKERS_ENV, "2")  # a pool, whatever the CPU count
    src, out = tmp_path / "in.qasm", tmp_path / "out.qasm"
    write_qasm(generate_with_density(DensitySpec(width=6, depth=10, seed=0)), src)
    out.write_bytes(b"precious\n")
    assert main(["compile", str(src), "--n-sc", "2", "-o", str(out)]) == EXIT_ROUTE
    assert "routing error: a worker process died" in capsys.readouterr().err
    # the output is written to a temporary file, renamed over it only on success
    assert out.read_bytes() == b"precious\n"
    assert sorted(os.listdir(tmp_path)) == ["in.qasm", "out.qasm"]


QASM_HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[4];\n'
SRC_DIR = os.path.dirname(os.path.dirname(parqc.__file__))
BAD_MAP_FILES = {
    "not-json": "n_phys: 4",
    "not-an-object": "[[0, 1], [1, 2], [2, 3]]",
    "float-n-phys": '{"n_phys": 4.9, "edges": [[0, 1], [1, 2], [2, 3]]}',
    "float-edge": '{"n_phys": 4, "edges": [[0, 1], [1, 2.7], [2, 3]]}',
    "bool-edge": '{"n_phys": 4, "edges": [[0, 1], [true, 2], [2, 3]]}',
}


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--help"], EXIT_OK),
        (["compile", "{good}", "--bogus", "x"], EXIT_ERROR),
        (["compile"], EXIT_ERROR),
        (["frobnicate"], EXIT_ERROR),
        (["compile", "{bad}"], EXIT_PARSE),
        (["compile", "{good}", "--topology", "hexagonal"], EXIT_TOPOLOGY),
        (["compile", "{good}", "--n-sc", "0"], EXIT_ROUTE),
        (["compile", "{good}", "--n-sc", "3"], EXIT_ROUTE),
        (["compile", "{good}", "--router", "lookahead", "--lookahead-window", "0"], EXIT_ERROR),
        (["compile", "{good}", "--lookahead-window", "-1"], EXIT_ERROR),
        (["compile", "{missing}"], EXIT_IO),
        (["verify", "{good}", "{good}", "--layout", "5"], EXIT_ERROR),
        (["verify", "{good}", "{good}", "--layout", "null"], EXIT_ERROR),
        (["verify", "{good}", "{good}", "--layout", "[[1]]"], EXIT_ERROR),
        (["verify", "{good}", "{good}", "--layout", "[true, 0, 1, 2]"], EXIT_ERROR),
        (["verify", "{good}", "{good}", "--layout", "[0, 0, 1, 2]"], EXIT_ERROR),
        (["compile", "{good}", "--topology", "{map:not-json}"], EXIT_TOPOLOGY),
        (["compile", "{good}", "--topology", "{map:not-an-object}"], EXIT_TOPOLOGY),
        (["compile", "{good}", "--topology", "{map:float-n-phys}"], EXIT_TOPOLOGY),
        (["compile", "{good}", "--topology", "{map:float-edge}"], EXIT_TOPOLOGY),
        (["compile", "{good}", "--topology", "{map:bool-edge}"], EXIT_TOPOLOGY),
        (["verify", "{good}", "{good}", "--topology", "{map:not-json}"], EXIT_TOPOLOGY),
        (["verify", "{good}", "{good}", "--topology", "{map:float-edge}"], EXIT_TOPOLOGY),
        (["gen", "--width", "1", "--depth", "4", "-o", "{missing}"], EXIT_ERROR),
        (["gen", "--width", "4", "--depth", "4", "-o", "{missing}", "--manifest", "{missing}"], EXIT_ERROR),
    ],
    ids=[
        "help",
        "unknown-option",
        "missing-argument",
        "unknown-command",
        "bad-qasm",
        "unknown-map",
        "n-sc-0",
        "n-sc-above-gate-count",
        "lookahead-window-0",
        "basic-lookahead-window-negative",
        "missing-input",
        "layout-number",
        "layout-null",
        "layout-nested",
        "layout-bool",
        "layout-not-a-permutation",
        "map-not-json",
        "map-not-an-object",
        "map-float-n-phys",
        "map-float-edge",
        "map-bool-edge",
        "verify-map-not-json",
        "verify-map-float-edge",
        "gen-width-1",
        "gen-manifest",
    ],
)
def test_documented_exit_codes(tmp_path, argv, code):
    good, bad = tmp_path / "good.qasm", tmp_path / "bad.qasm"
    good.write_text(QASM_HEADER + "cx q[0],q[3];\nh q[1];\n")
    bad.write_text(QASM_HEADER + "cx q[0],q[9];\n")
    paths = {"{good}": str(good), "{bad}": str(bad), "{missing}": str(tmp_path / "missing.qasm")}
    for name, content in BAD_MAP_FILES.items():
        (tmp_path / f"{name}.json").write_text(content)
        paths[f"{{map:{name}}}"] = f"custom:{tmp_path / name}.json"
    assert main([paths.get(arg, arg) for arg in argv]) == code


def _refuse_chunks(monkeypatch):
    def no_chunk(*args, **kwargs):
        raise AssertionError("a chunk was routed or a pool started")

    monkeypatch.setattr(parqc.pipeline, "route", no_chunk)
    monkeypatch.setattr(parqc.pipeline, "ProcessPoolExecutor", no_chunk)


@pytest.mark.parametrize(
    "command", [["compile"], ["compile", "--profile"], ["verify"]], ids=["compile", "profile", "verify"]
)
def test_map_narrower_than_the_circuit_exits_with_topology_code(monkeypatch, tmp_path, capsys, command):
    _refuse_chunks(monkeypatch)
    src, path = tmp_path / "in.qasm", tmp_path / "map.json"
    write_qasm(generate_with_density(DensitySpec(width=7, depth=10, seed=0)), src)
    path.write_text('{"n_phys": 3, "edges": [[0, 1], [1, 2]]}')
    if command[0] == "verify":
        argv = ["verify", str(src), str(src)]
    else:
        argv = [*command, str(src), "--n-sc", "2", "-o", str(tmp_path / "out.qasm")]
    assert main([*argv, "--topology", f"custom:{path}"]) == EXIT_TOPOLOGY
    message = f"coupling map {path} has 3 physical qubits, fewer than the circuit's 7"
    assert capsys.readouterr().err == f"topology error: {message}\n"
    assert sorted(os.listdir(tmp_path)) == ["in.qasm", "map.json"]


@pytest.mark.parametrize("report", ["out.qasm", "./out.qasm", "{tmp}/out.qasm"])
def test_report_at_the_output_path_is_refused_before_the_input_is_read(monkeypatch, tmp_path, capsys, report):
    def no_read(path):
        raise AssertionError("the input was read")

    monkeypatch.setattr(parqc.cli, "_read_timed", no_read)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in.qasm").write_text(QASM_HEADER + "h q[0];\n")
    report = report.format(tmp=tmp_path)
    assert main(["compile", "in.qasm", "-o", "out.qasm", "--report", report]) == EXIT_ERROR
    assert capsys.readouterr().err == f"error: --report {report} is the output file\n"
    assert os.listdir(tmp_path) == ["in.qasm"]


def test_output_and_report_on_one_device_are_both_written_in_place(tmp_path, capsys):
    # neither write replaces the other, so the shared path is no conflict
    src = tmp_path / "in.qasm"
    src.write_text(QASM_HEADER + "cx q[0],q[3];\n")
    assert main(["compile", str(src), "-o", os.devnull, "--report", os.devnull]) == EXIT_OK
    assert capsys.readouterr().err == ""
    assert os.listdir(tmp_path) == ["in.qasm"]


@pytest.mark.parametrize("layout", ["[1, 0,]", "[1 0]"])
def test_malformed_final_layout_line_is_named(tmp_path, capsys, layout):
    src, compiled = tmp_path / "in.qasm", tmp_path / "out.qasm"
    src.write_text(QASM_HEADER + "h q[0];\n")
    compiled.write_text(QASM_HEADER + "h q[0];\n" + f"// final_layout: {layout}\n")
    assert main(["verify", str(src), str(compiled)]) == EXIT_ERROR
    assert capsys.readouterr().err == f"error: malformed final_layout line: // final_layout: {layout}\n"


def test_empty_final_layout_line_is_checked_like_an_empty_layout_option(tmp_path, capsys):
    # an empty list is a layout, not a missing line: it is no permutation of 4 qubits
    src, compiled = tmp_path / "in.qasm", tmp_path / "out.qasm"
    src.write_text(QASM_HEADER + "h q[0];\n")
    compiled.write_text(QASM_HEADER + "h q[0];\n// final_layout: []\n")
    assert main(["verify", str(src), str(src), "--layout", "[]"]) == EXIT_ERROR
    expected = capsys.readouterr().err
    assert main(["verify", str(src), str(compiled)]) == EXIT_ERROR
    assert capsys.readouterr().err == expected


def test_map_narrower_than_a_pool_sized_circuit_starts_no_worker(monkeypatch, tmp_path, capsys):
    _refuse_chunks(monkeypatch)
    monkeypatch.setenv(parqc.pipeline.MAX_WORKERS_ENV, "2")
    src, path = tmp_path / "in.qasm", tmp_path / "map.json"
    write_qasm(generate_with_density(DensitySpec(width=200, depth=20, seed=1)), src)
    path.write_text('{"n_phys": 3, "edges": [[0, 1], [1, 2]]}')
    argv = ["compile", str(src), "--topology", f"custom:{path}", "--n-sc", "8", "-o", str(tmp_path / "out.qasm")]
    assert main(argv) == EXIT_TOPOLOGY
    assert "fewer than the circuit's 200" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["in.qasm", "map.json"]


def _python_alone(code, *args):
    """The finished run of `python -c code args` in a new process that imports parqc from src/."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, timeout=120, capture_output=True, text=True)


def _main_alone(argv):
    """Exit code, stdout and stderr of `main(argv)` as the first call in a new process."""
    done = _python_alone("import sys\nfrom parqc.cli import main\nsys.exit(main(sys.argv[1:]))\n", *argv)
    return done.returncode, done.stdout, done.stderr


def test_a_fresh_process_imports_only_what_it_runs(tmp_path):
    src = tmp_path / "c.qasm"
    write_qasm(generate_with_density(DensitySpec(width=6, depth=12, seed=3)), src)
    compile_and_stats = (
        "import sys\n"
        "import parqc.cli\n"
        "assert 'numpy' not in sys.modules\n"
        "assert parqc.cli.main(['compile', sys.argv[1], '--n-sc', '2']) == 0\n"
        "assert parqc.cli.main(['stats', sys.argv[1]]) == 0\n"
        "assert 'numpy' not in sys.modules\n"
    )
    generate_and_resolve = (
        "import sys\n"
        "from parqc import DensitySpec, generate_with_density, write_qasm\n"
        "assert not {'parqc.pipeline', 'parqc.verifier'} & set(sys.modules), sorted(sys.modules)\n"
        "import parqc\n"
        "resolved = {name: getattr(parqc, name) for name in parqc.__all__}\n"
        "star = {}\n"
        "exec('from parqc import *', star)\n"
        "assert all(star[name] is value for name, value in resolved.items())\n"
    )
    for code in (compile_and_stats, generate_and_resolve):
        done = _python_alone(code, str(src))
        assert done.returncode == 0, done.stderr


def test_calls_to_main_in_one_process_match_calls_alone(tmp_path, capsys):
    src, out = tmp_path / "c.qasm", tmp_path / "c.out.qasm"
    write_qasm(generate_with_density(DensitySpec(width=6, depth=12, seed=3)), src)
    compile_argv = ["compile", str(src), "--n-sc", "2", "-o", str(out)]
    calls = [compile_argv, ["compile", str(src), "--bogus", "x"], ["verify", str(src), str(out)], compile_argv]
    alone = [_main_alone(argv) for argv in calls]
    together = []
    for argv in calls:
        code = main(argv)
        captured = capsys.readouterr()
        together.append((code, captured.out, captured.err))
    assert [code for code, _, _ in together] == [EXIT_OK, EXIT_ERROR, EXIT_OK, EXIT_OK]
    assert together == alone


def test_built_in_maps_are_reused_and_custom_maps_reread(tmp_path):
    assert _build_topology("grid", 30) is _build_topology("grid", 30)
    assert _build_topology("linear", 30) is _build_topology("linear", 30)
    assert _build_topology("grid", 30) is not _build_topology("linear", 30)
    path = tmp_path / "map.json"
    path.write_text('{"n_phys": 3, "edges": [[0, 1], [1, 2]]}')
    first = _build_topology(f"custom:{path}", 3)
    assert first.edges == ((0, 1), (1, 2))
    path.write_text('{"n_phys": 3, "edges": [[0, 1], [1, 2], [0, 2]]}')
    assert _build_topology(f"custom:{path}", 3).edges == ((0, 1), (0, 2), (1, 2))


def test_compile_leaves_a_reused_map_unchanged(tmp_path):
    def tables(cmap):
        return pickle.dumps((cmap.dist, cmap.neighbors, cmap.swap_of, cmap.rows, cmap.row_swaps))

    src = tmp_path / "c.qasm"
    write_qasm(generate_with_density(DensitySpec(width=13, depth=30, density=1.0, seed=5)), src)
    for topology in ("grid", "linear"):
        cmap = _build_topology(topology, 13)
        before = tables(cmap)
        for router in ("basic", "lookahead"):
            out = tmp_path / f"{topology}.{router}.qasm"
            argv = ["compile", str(src), "--topology", topology, "--router", router, "--n-sc", "3", "-o", str(out)]
            assert main(argv) == EXIT_OK
            assert main(["verify", str(src), str(out), "--topology", topology]) == EXIT_OK
        assert _build_topology(topology, 13) is cmap
        assert tables(cmap) == before


@pytest.mark.parametrize("value", ["5", "null", "[[1]]", "[true, 0, 1, 2]"])
def test_layout_option_must_be_a_list_of_integers(tmp_path, capsys, value):
    src = tmp_path / "c.qasm"
    src.write_text(QASM_HEADER + "h q[1];\n")
    assert main(["verify", str(src), str(src), "--layout", value]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: --layout must be a JSON list of integers")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("body", ["", "barrier q;\n"], ids=["empty", "barrier-only"])
def test_gateless_circuit_compiles_and_checks(tmp_path, capsys, body):
    src, out = tmp_path / "in.qasm", tmp_path / "out.qasm"
    src.write_text(QASM_HEADER + body)
    assert main(["compile", str(src), "-o", str(out)]) == EXIT_OK
    plain = out.read_bytes()
    assert plain == (QASM_HEADER + body + "// final_layout: [0, 1, 2, 3]\n").encode()
    report = json.loads((tmp_path / "out.qasm.report.json").read_text())
    assert (report["gates_parallel"], report["depth_parallel"]) == (0, 0)

    assert main(["compile", str(src), "-o", str(out), "--profile"]) == EXIT_OK
    assert out.read_bytes() == plain
    report = json.loads((tmp_path / "out.qasm.report.json").read_text())
    assert report["depth_monolithic"] == 0 and report["overhead_depth"] is None
    capsys.readouterr()

    assert main(["stats", str(src)]) == EXIT_OK
    stats = json.loads(capsys.readouterr().out)
    assert (stats["depth"], stats["n_gates"], stats["density"]) == (0, 0, 0.0)
    assert main(["verify", str(src), str(out)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == {"fidelity": pytest.approx(1.0), "violations": []}


@pytest.mark.parametrize("value", ["abc", "0", "-3"])
def test_worker_cap_must_be_a_positive_integer(monkeypatch, tmp_path, capsys, value):
    src = tmp_path / "in.qasm"
    src.write_text(QASM_HEADER + "cx q[0],q[3];\nh q[1];\n")
    monkeypatch.setenv(parqc.pipeline.MAX_WORKERS_ENV, value)
    assert main(["compile", str(src), "--n-sc", "2", "-o", str(tmp_path / "out.qasm")]) == EXIT_ERROR
    assert f"PARQC_MAX_WORKERS must be a positive integer, got {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "statement",
    [
        "rx(pi/0) q[0];",
        "rx(" + "-" * 3000 + "1) q[0];",
        "rx(" + "(" * 3000 + "1" + ")" * 3000 + ") q[0];",
        "rx(1e999) q[0];",
        "barrier(0.5) q;",
        "rx(1_0) q[0];",
        "h q[0]; rx(1_0) q[0];",
    ],
    ids=["division-by-zero", "long-unary-chain", "deeply-nested", "overflow", "barrier-parameter",
         "underscore", "underscore-second-statement"],
)
def test_malformed_program_exits_with_parse_code_and_position(tmp_path, capsys, statement):
    src = tmp_path / "bad.qasm"
    src.write_text(QASM_HEADER + statement + "\n")
    assert main(["stats", str(src)]) == EXIT_PARSE
    err = capsys.readouterr().err
    col = 9 if statement.startswith("h ") else 1
    assert err.startswith(f"parse error: line 4, col {col}: ")
    assert len(err.splitlines()) == 1


def _faulty_program(fault: str) -> str:
    """A generated 8-qubit program, whose 4 chunks at --n-sc 4 are a quarter
    of its statements each, with faults written into it."""
    text = serialize_qasm(generate_with_density(DensitySpec(width=8, depth=40, density=0.8, seed=2)))
    lines = text.splitlines()
    late, early = len(lines) * 9 // 10, len(lines) * 3 // 10  # in the last chunk, and in the second
    if fault == "last-chunk":
        lines[late] = "cx q[0],q[99];"
    elif fault == "two-chunks":
        lines[early] = "rx(pi/0) q[1];"
        lines[late] = "cx q[0],q[99];"
    elif fault == "unterminated":
        lines[-1] = lines[-1].rstrip(";")
    elif fault == "second-register":
        lines[late] = "qreg r[2];"
    elif fault == "shared-line-crlf":
        lines[late] = "h q[2];  rx(1_0) q[1];"
        return "\r\n".join(lines) + "\r\n"
    elif fault == "after-comments":
        lines[early] += " // a comment; with two; semicolons"
        lines[late] = "h q[0]; h q; barrier q[1],r[0];"
    return "\n".join(lines) + "\n"


FAULTS = ["last-chunk", "two-chunks", "unterminated", "second-register", "shared-line-crlf", "after-comments"]


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("fault", FAULTS)
def test_parse_error_in_a_chunk_is_the_whole_file_parse_error(monkeypatch, tmp_path, capsys, fault, workers):
    """The chunks parse their own statements, in worker processes with two
    workers, yet a fault is reported as parse_qasm reports it for the whole
    file (stats parses the whole file), the first in the file when there
    are two, and an existing output is left as it was."""
    src, out = tmp_path / "bad.qasm", tmp_path / "out.qasm"
    src.write_bytes(_faulty_program(fault).encode())
    out.write_bytes(b"precious\n")
    assert main(["stats", str(src)]) == EXIT_PARSE
    expected = capsys.readouterr().err
    assert expected.startswith("parse error: line ")
    monkeypatch.setenv(parqc.pipeline.MAX_WORKERS_ENV, workers)
    for extra in ([], ["--profile"]):
        assert main(["compile", str(src), "--n-sc", "4", "-o", str(out), *extra]) == EXIT_PARSE
        assert capsys.readouterr().err == expected
        assert out.read_bytes() == b"precious\n"
        assert sorted(os.listdir(tmp_path)) == ["bad.qasm", "out.qasm"]


@pytest.mark.parametrize(
    "text",
    [
        'OPENQASM 2.0;\ninclude "qelib1.inc";\n',
        "OPENQASM 2.0;\nqreg q[8]\n",
        "OPENQASM 3.0;\nqreg q[8];\nh q[0];\n",
        "OPENQASM 2.0;\nh q[0];\nqreg q[8];\n",
        "OPENQASM 2.0;\nqreg q[0];\n",
        "OPENQASM 2.0; // qreg q[8];\nqreg  q [ 8 ] ; qreg r[2];\nh q[0];\n",
        "OPENQASM 2.0;\nmyqreg q[8];\n",
        "OPENQASM 2.0;\nqreg;\n",
    ],
    ids=["no-register", "unterminated-register", "version", "gate-first", "empty-register", "second-register",
         "qreg-suffix", "bare-qreg"],
)
def test_header_fault_is_the_whole_file_parse_error(tmp_path, capsys, text):
    """compile reads only the header itself, and reports its faults as a
    parse of the whole file does."""
    src = tmp_path / "bad.qasm"
    src.write_text(text)
    assert main(["stats", str(src)]) == EXIT_PARSE
    expected = capsys.readouterr().err
    assert main(["compile", str(src), "-o", str(tmp_path / "out.qasm")]) == EXIT_PARSE
    assert capsys.readouterr().err == expected


def test_parse_errors_in_two_chunks_report_the_first(monkeypatch, tmp_path, capsys):
    src = tmp_path / "bad.qasm"
    src.write_text(_faulty_program("two-chunks"))
    line = _faulty_program("two-chunks").splitlines().index("rx(pi/0) q[1];") + 1
    monkeypatch.setenv(parqc.pipeline.MAX_WORKERS_ENV, "2")
    assert main(["compile", str(src), "--n-sc", "4", "-o", str(tmp_path / "out.qasm")]) == EXIT_PARSE
    assert capsys.readouterr().err.startswith(f"parse error: line {line}, col 1: bad angle expression 'pi/0'")


# A report's run-to-run timings and memory; every other field is a pure function of the cell.
MEASURED_FIELDS = {"wall_time_parallel", "wall_time_sequential", "speedup", "phase_times", "peak_memory_per_phase"}


def test_sweep_columns_are_the_cell_inputs_then_the_report():
    cell = ["width", "depth", "density", "two_qubit_fraction", "seed", "n_sc", "router", "topology"]
    report = [f.name for f in dataclasses.fields(CompileReport) if f.name not in cell]
    assert SWEEP_COLUMNS == cell + ["status", "error"] + report


def _decode(text: str):
    """A sweep CSV cell as the report's JSON value: '' is null, JSON text is decoded."""
    if text == "":
        return None
    try:
        return json.loads(text)
    except ValueError:
        return text


def _sweep(tmp_path, capsys, **axes):
    """Run `parqc sweep` on depth 10, density 1.0 and the given axes; return
    the CSV's header and rows and the command's output."""
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"depths": [10], "densities": [1.0], **axes}))
    assert main(["sweep", "--config", str(config)]) == EXIT_OK
    with open(tmp_path / "sweep.csv", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    return reader.fieldnames, rows, capsys.readouterr().out


def test_sweep_rows_match_profile_compiles_and_resume(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv(parqc.pipeline.MAX_WORKERS_ENV, "1")
    header, rows, out = _sweep(tmp_path, capsys, widths=[6, 8], n_sc=[1, 2])
    assert header == SWEEP_COLUMNS
    assert [(r["width"], r["n_sc"], r["status"]) for r in rows] == [
        ("6", "1", "ok"), ("6", "2", "ok"), ("8", "1", "ok"), ("8", "2", "ok"),
    ]
    assert "(4 new cells)" in out
    for row in rows:
        src = tmp_path / "circuits" / f"w{row['width']}_d10_p1_f0.5_s{row['seed']}.qasm"
        out_path = tmp_path / "profile.qasm"
        assert main(["compile", str(src), "--n-sc", row["n_sc"], "--profile", "-o", str(out_path)]) == EXIT_OK
        report = json.loads((tmp_path / "profile.qasm.report.json").read_text())
        assert set(report) <= set(header)
        decoded = {key: _decode(row[key]) for key in report}
        for key in MEASURED_FIELDS:  # present and numeric; the values change from run to run
            measured = decoded.pop(key)
            assert type(measured) is type(report[key]), key
            if isinstance(measured, dict):
                assert measured.keys() == report[key].keys(), key
            values = measured.values() if isinstance(measured, dict) else [measured]
            assert all(type(v) in (int, float) for v in values), key
        assert decoded == {key: report[key] for key in decoded}
    capsys.readouterr()

    header, again, out = _sweep(tmp_path, capsys, widths=[6, 8], n_sc=[1, 2])
    assert again == rows
    assert "(0 new cells)" in out

    # n_sc 1000 exceeds every cell's instruction count
    _, rows, out = _sweep(tmp_path, capsys, widths=[6, 8, 10], n_sc=[1, 2, 1000])
    assert [(r["width"], r["n_sc"], r["status"]) for r in rows[4:]] == [
        ("6", "1000", "error"), ("8", "1000", "error"), ("10", "1", "ok"), ("10", "2", "ok"), ("10", "1000", "error"),
    ]
    assert all(r["error"].startswith("PipelineError: cannot split") for r in rows if r["status"] == "error")
    assert "(5 new cells)" in out


def test_sweep_cell_files_are_named_by_every_input(tmp_path, capsys):
    _sweep(tmp_path, capsys, widths=[8], n_sc=[1], two_qubit_fraction=0.5)
    _, rows, out = _sweep(tmp_path, capsys, widths=[8], n_sc=[1], two_qubit_fraction=0.0)
    assert "(1 new cells)" in out
    assert [(r["two_qubit_fraction"], r["status"]) for r in rows] == [("0.5", "ok"), ("0.0", "ok")]
    circuits = tmp_path / "circuits"
    assert sorted(os.listdir(circuits)) == ["w8_d10_p1_f0.5_s0.qasm", "w8_d10_p1_f0_s0.qasm"]
    assert compute_metrics(read_qasm(circuits / "w8_d10_p1_f0_s0.qasm")).n_q2 == 0
    assert rows[1]["swaps_parallel"] == "0" and rows[0]["swaps_parallel"] != "0"

    _, rows, out = _sweep(tmp_path, capsys, widths=[8], n_sc=[1], two_qubit_fraction=0.5, topology="linear")
    assert "(1 new cells)" in out
    assert sorted(os.listdir(tmp_path / "compiled")) == [
        "w8_d10_p1_f0.5_s0_grid_basic_n1.qasm",
        "w8_d10_p1_f0.5_s0_linear_basic_n1.qasm",
        "w8_d10_p1_f0_s0_grid_basic_n1.qasm",
    ]


def test_sweep_cell_written_as_int_or_float_is_one_cell(tmp_path, capsys):
    _sweep(tmp_path, capsys, widths=[6], n_sc=[1], densities=[1.0], two_qubit_fraction=0.0)
    _, rows, out = _sweep(tmp_path, capsys, widths=[6], n_sc=[1], densities=[1], two_qubit_fraction=0)
    assert "(0 new cells)" in out
    assert [r["status"] for r in rows] == ["ok"]
    assert os.listdir(tmp_path / "circuits") == ["w6_d10_p1_f0_s0.qasm"]


def test_sweep_refuses_a_csv_with_other_columns(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    # the header the previous version wrote, with its own names for report fields
    old_header = (
        "width,depth,density,seed,n_sc,router,topology,status,error,t_seq,t_par,speedup,gates_mono,gates_par,"
        "swaps_mono,swaps_par,depth_mono,depth_par,overhead_gate,overhead_swap,overhead_depth,"
        "mem_worker_peak_bytes,mem_aggregate_bytes,workers,work_estimate"
    )
    csv_path.write_text(old_header + "\n6,10,1.0,0,1,basic,grid,ok\n")
    before = csv_path.read_bytes()
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"widths": [6, 8], "depths": [10], "densities": [1.0], "n_sc": [1]}))
    assert main(["sweep", "--config", str(config)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"error: {csv_path} has other columns than this sweep writes")
    assert len(err.splitlines()) == 1
    assert csv_path.read_bytes() == before


@pytest.mark.parametrize(
    "config, message",
    [
        ({"widths": {"start": 4}}, "sweep axis 'widths' needs integer start, stop and step"),
        ({"widths": "abc"}, "sweep axis 'widths' must hold positive integers, got 'abc'"),
        (5, "sweep config must be a JSON object"),
        ({"widths": [6], "seed_base": "x"}, "sweep config key 'seed_base' must be a non-negative integer, got 'x'"),
        ({"widths": [6], "seed_base": -1}, "sweep config key 'seed_base' must be a non-negative integer, got -1"),
        ({"widths": [6], "seed_base": True}, "sweep config key 'seed_base' must be a non-negative integer, got True"),
        ({"widths": [6], "router": "sabre"}, "sweep config key 'router' must be basic or lookahead, got 'sabre'"),
        ({"widths": [6], "topology": "ring"}, "sweep config key 'topology' must be grid or linear, got 'ring'"),
        (
            {"widths": [6], "two_qubit_fraction": 1.5},
            "sweep config key 'two_qubit_fraction' must be a number in [0, 1], got 1.5",
        ),
        (
            {"widths": [6], "two_qubit_fraction": "half"},
            "sweep config key 'two_qubit_fraction' must be a number in [0, 1], got 'half'",
        ),
    ],
    ids=[
        "range-without-stop", "string-axis", "not-an-object", "string-seed", "negative-seed", "bool-seed",
        "unknown-router", "unknown-topology", "fraction-above-one", "string-fraction",
    ],
)
def test_malformed_sweep_config_exits_with_error(tmp_path, capsys, config, message):
    if isinstance(config, dict):
        config = {"depths": [10], "densities": [1.0], "n_sc": [1], **config}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(config))
    assert main(["sweep", "--config", str(path)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert len(err.splitlines()) == 1
