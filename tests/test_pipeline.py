import dataclasses
import gc
import io
import json
import multiprocessing
import os
import random
import stat
import subprocess
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parqc
from parqc.circuit import (
    BARRIER,
    KINDS,
    Circuit,
    Instruction,
    compute_metrics,
    parse_qasm,
    read_qasm,
    serialize_qasm,
    write_qasm,
)
from parqc.cli import EXIT_IO, EXIT_ROUTE, main
from parqc.densitygen import DensitySpec, generate_with_density
from parqc.pipeline import (
    MAX_WORKERS_ENV,
    POOL_WORK_THRESHOLD,
    PipelineError,
    _init_worker,
    _work_estimate,
    _worker_count,
    compile_parallel,
    partition,
    profile_run,
)
from parqc.router import RouteError
from parqc.topology import CouplingMap, build_grid, build_linear

SRC_DIR = os.path.dirname(os.path.dirname(parqc.__file__))
# the CPUs this process may run on, which cap the pool
USABLE_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def test_partition_matches_owner_oracle():
    for n_g in range(25):
        for n_sc in range(1, max(n_g, 1) + 1):
            g_sc = n_g // n_sc
            # instruction i belongs to chunk i // g_sc; the last chunk takes the remainder
            owner = [min(i // g_sc, n_sc - 1) for i in range(n_g)]
            expected = [[i for i in range(n_g) if owner[i] == k] for k in range(n_sc)]
            assert [list(range(s, e)) for s, e in partition(n_g, n_sc)] == expected


@pytest.mark.parametrize("n_g, n_sc", [(5, 0), (5, -1), (5, 6), (0, 2)])
def test_partition_out_of_range(n_g, n_sc):
    with pytest.raises(PipelineError):
        partition(n_g, n_sc)


def test_partition_counts_instructions_not_gates():
    # a barrier is an instruction but not a gate, and the message says so
    barrier_only = Circuit(4, [Instruction(BARRIER, (0, 1, 2, 3))])
    with pytest.raises(PipelineError, match="^cannot split 1 statements into 2 sub-circuits$"):
        compile_parallel(serialize_qasm(barrier_only), build_grid(4), 2, io.StringIO())


def compile_text(circuit, cmap, n_sc, **kwargs):
    """The program compile_parallel writes, as a string, and its report."""
    out = io.StringIO()
    report = compile_parallel(serialize_qasm(circuit), cmap, n_sc, out, **kwargs)
    return out.getvalue(), report


def _compile(circuit, cmap, router):
    text, report = compile_text(circuit, cmap, 3, router=router)
    compiled = parse_qasm(text)
    counts = (report.final_layout, report.chunk_gates, report.chunk_routing_swaps, report.chunk_permutation_swaps)
    return serialize_qasm(compiled), counts


@pytest.mark.parametrize("router", ["basic", "lookahead"])
@pytest.mark.parametrize("cmap", [build_grid(9), build_linear(9)], ids=["grid", "linear"])
def test_output_independent_of_parallel_and_worker_cap(monkeypatch, cmap, router):
    circuit = generate_with_density(DensitySpec(width=9, depth=25, density=0.8, seed=5))
    monkeypatch.setenv(MAX_WORKERS_ENV, "1")  # in-process
    expected = _compile(circuit, cmap, router)
    monkeypatch.delenv(MAX_WORKERS_ENV)
    assert _compile(circuit, cmap, router) == expected
    monkeypatch.setenv(MAX_WORKERS_ENV, "2")
    assert _compile(circuit, cmap, router) == expected


@pytest.mark.parametrize("router", ["basic", "lookahead"])
@pytest.mark.parametrize("build, kind", [(build_grid, "grid"), (build_linear, "linear")], ids=["grid", "linear"])
def test_map_given_its_kind_compiles_as_the_built_in_map(monkeypatch, build, kind, router):
    built = build(9)
    cmap = CouplingMap(built.n_phys, built.edges, kind=kind)
    circuit = generate_with_density(DensitySpec(width=9, depth=25, density=0.8, seed=5))
    for workers in ("1", "2"):
        monkeypatch.setenv(MAX_WORKERS_ENV, workers)
        expected, _ = compile_text(circuit, built, 3, router=router)
        assert compile_text(circuit, cmap, 3, router=router)[0] == expected


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("build", [build_grid, build_linear], ids=["grid", "linear"])
def test_depth_carried_across_chunks_matches_the_written_program(monkeypatch, build, workers):
    monkeypatch.setenv(MAX_WORKERS_ENV, workers)
    cmap = build(7)
    rng = random.Random(11)
    cases = [(Circuit(7, []), 1)]  # one empty chunk
    for n_sc in (1, 2, 3, 8):
        for _ in range(3):
            instructions = [
                Instruction("cx", tuple(rng.sample(range(7), 2))) if rng.random() < 0.6
                else Instruction(rng.choice(["h", "t"]), (rng.randrange(7),))
                for _ in range(24)
            ]
            # instructions 8-15 are barriers: chunk 1 of 3 and chunks 3 and 4 of 8 hold nothing else
            instructions[8:16] = [Instruction(BARRIER, tuple(sorted(rng.sample(range(7), 3)))) for _ in range(8)]
            cases.append((Circuit(7, instructions), n_sc))
    for circuit, n_sc in cases:
        text, report = compile_text(circuit, cmap, n_sc)
        metrics = compute_metrics(parse_qasm(text))
        assert report.depth_parallel == metrics.depth
        assert (report.gates_parallel, report.swaps_parallel) == (metrics.n_gates, metrics.swap_count)


def dag_depth(circuit) -> int:
    """Independent depth oracle: ASAP levels through the circuit's DAG. An
    instruction's predecessors are, on each of its qubits, the last earlier
    instruction there. A gate takes one level and a barrier none, so a
    barrier finishes with its latest predecessor and holds back every later
    instruction on its qubits until then. The depth is the latest finish."""
    barriers = iter(circuit.barriers)
    it = iter(circuit.ops)
    preds, durations, last = [], [], {}
    for i, (code, a, b) in enumerate(zip(circuit.kinds, it, it)):
        barrier = KINDS[code] == BARRIER
        qubits = next(barriers) if barrier else (a,) if b < 0 else (a, b)
        preds.append({last[q] for q in qubits if q in last})
        durations.append(0 if barrier else 1)
        for q in qubits:
            last[q] = i
    finish = []
    for node_preds, duration in zip(preds, durations):  # instruction order is a topological order
        finish.append(duration + max((finish[p] for p in node_preds), default=0))
    return max(finish, default=0)


@st.composite
def circuits_with_partial_barriers(draw):
    width = draw(st.integers(2, 6))
    qubit = st.integers(0, width - 1)
    instructions = []
    for _ in range(draw(st.integers(0, 24))):
        kind = draw(st.sampled_from(["h", "cx", "swap", BARRIER]))
        size = 1 if kind == "h" else 2 if kind != BARRIER else draw(st.integers(1, width))
        instructions.append(Instruction(kind, tuple(draw(st.lists(qubit, min_size=size, max_size=size, unique=True)))))
    return Circuit(width, instructions)


@settings(max_examples=30, deadline=None)
@given(circuits_with_partial_barriers(), st.sampled_from([build_grid, build_linear]))
def test_depth_matches_an_asap_oracle_through_the_dag(circuit, build):
    assert compute_metrics(circuit).depth == dag_depth(circuit)
    for workers in ("1", "2"):
        with mock.patch.dict(os.environ, {MAX_WORKERS_ENV: workers}):
            for n_sc in range(1, min(3, max(len(circuit), 1)) + 1):
                text, report = compile_text(circuit, build(circuit.width), n_sc)
                compiled = parse_qasm(text)
                assert report.depth_parallel == compute_metrics(compiled).depth == dag_depth(compiled)


def test_failed_compile_leaves_the_output_and_no_temporary_file(monkeypatch, tmp_path):
    monkeypatch.setenv(MAX_WORKERS_ENV, "1")  # chunk 0 is written before chunk 1 fails
    real_route = parqc.pipeline.route

    def failing_route(circuit, *args, **kwargs):
        if circuit.name == "chunk1":
            raise RouteError("chunk 1 cannot be routed")
        return real_route(circuit, *args, **kwargs)

    src, out = tmp_path / "in.qasm", tmp_path / "out.qasm"
    write_qasm(generate_with_density(DensitySpec(width=6, depth=10, seed=0)), src)
    out.write_bytes(b"precious\n")
    monkeypatch.setattr(parqc.pipeline, "route", failing_route)
    for extra in ([], ["--profile"]):
        assert main(["compile", str(src), "--n-sc", "2", "-o", str(out), *extra]) == EXIT_ROUTE
        assert out.read_bytes() == b"precious\n"
        assert sorted(os.listdir(tmp_path)) == ["in.qasm", "out.qasm"]


@pytest.mark.parametrize("extra", [[], ["--profile"]], ids=["plain", "profile"])
def test_new_output_gets_the_mode_of_a_plain_open(tmp_path, extra):
    src = tmp_path / "in.qasm"
    write_qasm(generate_with_density(DensitySpec(width=6, depth=10, seed=0)), src)
    old_umask = os.umask(0o027)
    try:
        with open(tmp_path / "plain", "w"):
            pass
        assert main(["compile", str(src), "--n-sc", "2", "-o", str(tmp_path / "out.qasm"), *extra]) == 0
    finally:
        os.umask(old_umask)
    mode = stat.S_IMODE(os.stat(tmp_path / "plain").st_mode)
    assert mode == 0o640
    assert stat.S_IMODE(os.stat(tmp_path / "out.qasm").st_mode) == mode


def test_existing_output_keeps_its_permission_bits(tmp_path):
    src, out = tmp_path / "in.qasm", tmp_path / "out.qasm"
    write_qasm(generate_with_density(DensitySpec(width=6, depth=10, seed=0)), src)
    out.write_bytes(b"old\n")
    os.chmod(out, 0o604)
    assert main(["compile", str(src), "--n-sc", "2", "-o", str(out)]) == 0
    assert stat.S_IMODE(os.stat(out).st_mode) == 0o604
    assert out.read_bytes() != b"old\n"


@pytest.mark.parametrize("kind", ["symlink", "hard link"])
def test_linked_output_is_written_through_not_replaced(tmp_path, kind):
    src, target, out = tmp_path / "in.qasm", tmp_path / "target.qasm", tmp_path / "out.qasm"
    write_qasm(generate_with_density(DensitySpec(width=6, depth=10, seed=0)), src)
    target.write_bytes(b"old\n")
    if kind == "symlink":
        out.symlink_to(target.name)
    else:
        os.link(target, out)
    assert main(["compile", str(src), "--n-sc", "2", "-o", str(out), "--report", str(tmp_path / "r.json")]) == 0
    assert out.is_symlink() == (kind == "symlink")
    assert os.path.samefile(out, target)
    assert read_qasm(target).n_gates > 0
    assert sorted(os.listdir(tmp_path)) == ["in.qasm", "out.qasm", "r.json", "target.qasm"]


def test_fifo_output_is_written_through(tmp_path):
    src, fifo = tmp_path / "in.qasm", tmp_path / "out.fifo"
    write_qasm(generate_with_density(DensitySpec(width=6, depth=10, seed=0)), src)
    os.mkfifo(fifo)
    reader = subprocess.Popen([sys.executable, "-c", f"import sys; sys.stdout.write(open({str(fifo)!r}).read())"],
                              stdout=subprocess.PIPE, text=True)
    try:
        assert main(["compile", str(src), "-o", str(fifo), "--report", str(tmp_path / "r.json")]) == 0
        text = reader.communicate(timeout=60)[0]
    finally:
        reader.kill()
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert parse_qasm(text).n_gates > 0
    assert sorted(os.listdir(tmp_path)) == ["in.qasm", "out.fifo", "r.json"]


@pytest.mark.parametrize("extra", [[], ["--profile"]], ids=["plain", "profile"])
def test_unwritable_output_is_named_in_the_io_error(tmp_path, capsys, extra):
    src, out = tmp_path / "in.qasm", tmp_path / "no-such-dir" / "out.qasm"
    write_qasm(generate_with_density(DensitySpec(width=6, depth=10, seed=0)), src)
    assert main(["compile", str(src), "--n-sc", "2", "-o", str(out), *extra]) == EXIT_IO
    err = capsys.readouterr().err
    assert err == f"io error: [Errno 2] No such file or directory: {str(out)!r}\n"
    assert sorted(os.listdir(tmp_path)) == ["in.qasm"]


@pytest.mark.parametrize("extra", [[], ["--profile"]], ids=["plain", "profile"])
def test_unwritable_report_leaves_the_output_as_it_was(tmp_path, capsys, extra):
    src, out = tmp_path / "in.qasm", tmp_path / "out.qasm"
    write_qasm(generate_with_density(DensitySpec(width=6, depth=10, seed=0)), src)
    out.write_bytes(b"old\n")
    report = tmp_path / "no-such-dir" / "r.json"
    assert main(["compile", str(src), "--n-sc", "2", "-o", str(out), "--report", str(report), *extra]) == EXIT_IO
    assert capsys.readouterr().err == f"io error: [Errno 2] No such file or directory: {str(report)!r}\n"
    assert out.read_bytes() == b"old\n"
    assert sorted(os.listdir(tmp_path)) == ["in.qasm", "out.qasm"]


def test_output_name_may_take_the_longest_length_the_directory_allows(tmp_path):
    src = tmp_path / "in.qasm"
    write_qasm(generate_with_density(DensitySpec(width=6, depth=10, seed=0)), src)
    name = "c" * (os.pathconf(tmp_path, "PC_NAME_MAX") - len(".qasm")) + ".qasm"
    assert main(["compile", str(src), "-o", str(tmp_path / name), "--report", str(tmp_path / "r.json")]) == 0
    assert sorted(os.listdir(tmp_path)) == sorted(["in.qasm", name, "r.json"])


@pytest.mark.parametrize("workers", ["1", "2"])
def test_compile_path_builds_no_instruction(monkeypatch, tmp_path, workers):
    """Generate, write, read, compile and write again with Instruction
    refusing to be built, in the calling process and in forked workers,
    which inherit the refusal."""
    if workers == "2" and multiprocessing.get_context().get_start_method() != "fork":
        pytest.skip("only forked workers inherit the patched class")

    def refuse(self):
        raise AssertionError("an Instruction was built on the compile path")

    monkeypatch.setattr(Instruction, "__post_init__", refuse)
    monkeypatch.setenv(MAX_WORKERS_ENV, workers)
    jobs = []
    compile_chunk = parqc.pipeline._compile_chunk

    def recording_compile_chunk(*job):  # the in-process path only
        jobs.append(job)
        return compile_chunk(*job)

    monkeypatch.setattr(parqc.pipeline, "_compile_chunk", recording_compile_chunk)
    src, out = tmp_path / "in.qasm", tmp_path / "out.qasm"
    write_qasm(generate_with_density(DensitySpec(width=20, depth=30, density=0.8, seed=4)), src)
    text = src.read_text()
    with open(out, "w", encoding="utf-8") as fh:
        report = compile_parallel(text, build_grid(20), 4, fh)
    assert report.gates_parallel == read_qasm(out).n_gates
    assert len(jobs) == (4 if workers == "1" else 0)
    if jobs:
        # a job is the chunk's name, the register, its slice of the text, the slice's
        # offset and whether it is the last; the slices are the body, in order
        names, registers, slices, starts, finals = zip(*(job[:5] for job in jobs))
        assert names == ("chunk0", "chunk1", "chunk2", "chunk3") and finals == (False, False, False, True)
        assert set(registers) == {("q", 20)}
        assert "".join(slices) == text[starts[0]:]
        assert all(text.startswith(piece, at) for piece, at in zip(slices, starts))


def test_profile_of_an_output_written_in_place_keeps_its_baseline_off_the_device(monkeypatch, tmp_path):
    """-o /dev/null is written in place, and a user other than root may not
    create files in /dev: the one-chunk output goes to the default temporary
    directory instead."""
    named_temporary_file = tempfile.NamedTemporaryFile

    def refusing_devices(*args, dir=None, **kwargs):
        if dir is not None and os.path.realpath(dir) == os.path.dirname(os.devnull):
            raise PermissionError(13, "Permission denied", dir)
        return named_temporary_file(*args, dir=dir, **kwargs)

    monkeypatch.setattr(tempfile, "NamedTemporaryFile", refusing_devices)
    src, report = tmp_path / "in.qasm", tmp_path / "r.json"
    write_qasm(generate_with_density(DensitySpec(width=6, depth=10, seed=0)), src)
    assert main(["compile", str(src), "--n-sc", "2", "-o", os.devnull, "--profile", "--report", str(report)]) == 0
    assert json.loads(report.read_text())["gates_monolithic"] > 0
    assert sorted(os.listdir(tmp_path)) == ["in.qasm", "r.json"]


def test_profile_writes_to_any_text_stream():
    circuit = generate_with_density(DensitySpec(width=8, depth=20, density=0.7, seed=2))
    text, _ = compile_text(circuit, build_grid(8), 3)
    out = io.StringIO()
    report = profile_run(serialize_qasm(circuit), 0.0, build_grid(8), 3, out)
    assert out.getvalue() == text
    assert report.gates_monolithic > 0


def test_aggregate_estimate_counts_started_workers(monkeypatch):
    circuit = generate_with_density(DensitySpec(width=6, depth=12, seed=2))
    for workers in (1, 2):
        monkeypatch.setenv(MAX_WORKERS_ENV, str(workers))
        _, report = compile_text(circuit, build_grid(6), 3)
        mem = report.peak_memory_per_phase
        assert set(mem) == {"compile_worker_peak", "compile_aggregate_estimate"}  # the compile phase's only
        assert mem["compile_aggregate_estimate"] == workers * mem["compile_worker_peak"]
        # an explicit count starts a pool even for this 6-qubit circuit's small estimate
        assert report.workers == workers and report.work_estimate < POOL_WORK_THRESHOLD


def test_in_process_chunks_do_not_read_the_peak_each(monkeypatch):
    reads = []
    peak_rss_bytes = parqc.pipeline.peak_rss_bytes

    def counted():
        reads.append(peak_rss_bytes())
        return reads[-1]

    monkeypatch.setattr(parqc.pipeline, "peak_rss_bytes", counted)
    monkeypatch.setenv(MAX_WORKERS_ENV, "1")
    circuit = generate_with_density(DensitySpec(width=8, depth=40, seed=5))
    per_n_sc = []
    for n_sc in (1, 6):
        reads.clear()
        _, report = compile_text(circuit, build_grid(8), n_sc)
        per_n_sc.append(len(reads))
        assert report.peak_memory_per_phase["compile_worker_peak"] in reads
    assert per_n_sc[0] == per_n_sc[1]


def test_report_json_is_the_report_as_a_dict(tmp_path):
    circuit = generate_with_density(DensitySpec(width=8, depth=20, density=0.7, seed=2))
    with open(tmp_path / "out.qasm", "w", encoding="utf-8") as out:
        report = profile_run(serialize_qasm(circuit), 0.001, build_grid(8), 3, out, router="lookahead")
    assert report.phase_times and report.chunk_gates and report.overhead_swap is not None
    assert report.to_json() == json.dumps(dataclasses.asdict(report), indent=2, sort_keys=True) + "\n"


def test_pool_workers_freeze_the_heap_they_start_with():
    # frozen objects are skipped by the worker's collections, so a forked
    # worker never walks, and copies, the parent's heap
    with ProcessPoolExecutor(1, initializer=_init_worker, initargs=(build_linear(3), "basic", 20)) as pool:
        assert pool.submit(gc.get_freeze_count).result(timeout=60) > 0


def test_worker_count_starts_a_pool_only_above_the_threshold(monkeypatch):
    monkeypatch.delenv(MAX_WORKERS_ENV, raising=False)
    assert _worker_count(8, POOL_WORK_THRESHOLD - 1) == 1
    assert _worker_count(8, POOL_WORK_THRESHOLD) == min(8, USABLE_CPUS)
    assert _worker_count(1, 100 * POOL_WORK_THRESHOLD) == 1  # one chunk, one process
    # an explicit worker count holds whatever the estimate, up to n_sc
    monkeypatch.setenv(MAX_WORKERS_ENV, "2")
    assert _worker_count(8, 0) == 2
    assert _worker_count(1, 0) == 1


def test_worker_count_counts_only_the_cpus_the_process_may_run_on(monkeypatch):
    monkeypatch.delenv(MAX_WORKERS_ENV, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    # taskset -c 0 on a 2-CPU machine: one CPU to run on, so no pool
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _worker_count(8, POOL_WORK_THRESHOLD) == 1
    # an OS without affinity sets falls back to the CPU count
    monkeypatch.delattr(os, "sched_getaffinity")
    assert _worker_count(8, POOL_WORK_THRESHOLD) == 2


def test_work_estimate_is_two_qubit_gates_times_mean_hops_times_router_weight(monkeypatch):
    circuit = Circuit(4, [Instruction("cx", (0, 3)), Instruction("h", (1,)), Instruction("swap", (1, 2)),
                          Instruction(BARRIER, (0, 1))])
    linear = build_linear(4)  # hop distances 1, 2, 3, 1, 2, 1 over the 6 pairs: mean 5/3
    assert _work_estimate(circuit.n_q2, linear, "basic") == round(2 * 5 / 3)
    assert _work_estimate(circuit.n_q2, linear, "lookahead") == round(8 * 2 * 5 / 3)
    # a one-node map has no pair of qubits to route between
    assert _work_estimate(0, CouplingMap(1, []), "basic") == 0
    # compile_parallel counts the text's two-qubit gates without parsing it, by the `],` between
    # their operands, so a barrier listing k qubits counts k - 1 more
    monkeypatch.setenv(MAX_WORKERS_ENV, "1")
    assert compile_text(circuit, linear, 1)[1].work_estimate == round((2 + 1) * 5 / 3)
    no_barrier = Circuit(4, [Instruction("cx", (0, 3)), Instruction("h", (1,)), Instruction("swap", (1, 2))])
    assert compile_text(no_barrier, linear, 1)[1].work_estimate == round(2 * 5 / 3)


@pytest.mark.parametrize("router", ["basic", "lookahead"])
@pytest.mark.parametrize(
    "instructions", [[], [Instruction(BARRIER, (0, 1, 2, 3))]], ids=["empty", "barrier-only"]
)
def test_gateless_circuit_has_no_work_and_runs_in_process(monkeypatch, instructions, router):
    monkeypatch.delenv(MAX_WORKERS_ENV, raising=False)
    _, report = compile_text(Circuit(4, instructions), build_grid(4), 1, router=router)
    assert (report.work_estimate, report.workers) == (0, 1)


@pytest.mark.parametrize("width, depth, pool", [(14, 40, False), (50, 100, True)], ids=["below", "above"])
def test_either_side_of_the_threshold_writes_the_in_process_bytes(monkeypatch, width, depth, pool):
    circuit = generate_with_density(DensitySpec(width=width, depth=depth, seed=1))
    cmap = build_linear(width)
    monkeypatch.setenv(MAX_WORKERS_ENV, "1")
    expected, _ = compile_text(circuit, cmap, 8, router="lookahead")
    monkeypatch.delenv(MAX_WORKERS_ENV)
    text, report = compile_text(circuit, cmap, 8, router="lookahead")
    assert (report.work_estimate >= POOL_WORK_THRESHOLD) == pool
    assert report.workers == (min(8, USABLE_CPUS) if pool else 1)
    assert text == expected


def _compile_in_subprocess(method, src, out):
    code = (
        "import multiprocessing, sys\n"
        f"multiprocessing.set_start_method({method!r})\n"
        "from parqc.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")])))
    env[MAX_WORKERS_ENV] = "2"  # a pool under every start method, whatever the circuit's work estimate
    argv = ["compile", str(src), "--router", "lookahead", "--n-sc", "3", "-o", str(out)]
    subprocess.run([sys.executable, "-c", code, *argv], env=env, check=True, timeout=120, capture_output=True)
    assert json.loads(out.with_name(out.name + ".report.json").read_text())["workers"] == 2
    return out.read_bytes()


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method to compare with"
)
@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_start_method_does_not_change_output(tmp_path, method):
    src = tmp_path / "in.qasm"
    write_qasm(generate_with_density(DensitySpec(width=8, depth=20, density=0.7, seed=3)), src)
    forked = _compile_in_subprocess("fork", src, tmp_path / "fork.qasm")
    assert _compile_in_subprocess(method, src, tmp_path / f"{method}.qasm") == forked


def test_profile_writes_plain_output_and_removes_monolithic(monkeypatch, tmp_path):
    src = tmp_path / "in.qasm"
    write_qasm(generate_with_density(DensitySpec(width=8, depth=20, density=0.7, seed=4)), src)
    plain, mono = tmp_path / "plain.qasm", tmp_path / "mono.qasm"
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    profiled = out_dir / "prof.qasm"
    precious = out_dir / "prof.mono.qasm"  # where earlier versions put the monolithic output
    precious.write_bytes(b"precious\n")
    assert main(["compile", str(src), "--n-sc", "2", "-o", str(plain)]) == 0
    parsed = []
    parse_statements = parqc.pipeline.parse_statements

    def counting_parse(text, name, register):
        parsed.append(name)
        return parse_statements(text, name, register)

    monkeypatch.setattr(parqc.pipeline, "parse_statements", counting_parse)
    monkeypatch.setenv(MAX_WORKERS_ENV, "1")  # in-process, where the patched parse runs
    assert main(["compile", str(src), "--n-sc", "2", "-o", str(profiled), "--profile"]) == 0
    # each side parses the input in its own chunks, inside its window: two, then one
    assert parsed == ["chunk0", "chunk1", "chunk0"]
    monkeypatch.undo()
    assert profiled.read_bytes() == plain.read_bytes()
    assert precious.read_bytes() == b"precious\n"
    assert sorted(os.listdir(out_dir)) == ["prof.mono.qasm", "prof.qasm", "prof.qasm.report.json"]

    # the monolithic side is a one-chunk compile of the whole circuit
    assert main(["compile", str(src), "--n-sc", "1", "-o", str(mono)]) == 0
    report = json.loads((out_dir / "prof.qasm.report.json").read_text())
    mono_report = json.loads((tmp_path / "mono.qasm.report.json").read_text())
    assert (report["gates_monolithic"], report["swaps_monolithic"], report["depth_monolithic"]) == (
        mono_report["gates_parallel"],
        mono_report["swaps_parallel"],
        mono_report["depth_parallel"],
    )
    assert report["inserted_swaps_monolithic"] == mono_report["chunk_routing_swaps"][0]


def test_profile_removes_monolithic_output_when_its_compile_fails(monkeypatch, tmp_path):
    src = tmp_path / "in.qasm"
    write_qasm(generate_with_density(DensitySpec(width=6, depth=10, seed=4)), src)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    real_compile = parqc.pipeline.compile_parallel

    def failing_monolithic(circuit, cmap, n_sc, *args):
        if n_sc == 1:
            raise PipelineError("monolithic compile failed")
        return real_compile(circuit, cmap, n_sc, *args)

    monkeypatch.setattr(parqc.pipeline, "compile_parallel", failing_monolithic)
    assert main(["compile", str(src), "--n-sc", "2", "--profile", "-o", str(out_dir / "prof.qasm")]) == EXIT_ROUTE
    assert os.listdir(out_dir) == []  # nor is the parallel output or the report written
