"""
Parallel compilation: slice the instruction list into chunks, route every
chunk from the trivial layout on its own worker, append a permutation circuit
to each non-final chunk so its layout returns to trivial, then concatenate the
compiled chunks in order. Chunk k+1 may assume the trivial layout precisely
because chunk k restored it, so the concatenation is NNA-compliant and
equivalent to the original circuit under the last chunk's final layout.

Chunk sizing: g_sc = floor(n_g / n_sc); the remainder lands in the final
chunk, which also skips permutation synthesis, balancing the extra gates.

Each job carries its own slice of the instruction list, and the coupling
map goes to each pool worker once, through the pool's initializer, so a job
is the same under every process start method (fork, spawn, forkserver).
Workers hand back their compiled chunk as QASM statement text, not as
circuit objects, and Executor.map returns results in job order, so the
chunks are joined in chunk order whatever the worker scheduling.

The text is the product: compile_parallel returns it exactly as `parqc
compile` writes it, and nothing parses it back. The router emits each
chunk's QASM lines and compact operand stream (the pairs circuit.gate_operands
gives) as it routes, and append_permutation extends both; the worker joins
the lines and returns the stream with its chunk's gate and swap counts. The
parent takes the report's gate count, swap count and depth from these with
one frontier scan (circuit.frontier_depth, the loop compute_metrics runs
too), timed with the join as the "concatenate" phase.

With one worker (n_sc == 1, PARQC_MAX_WORKERS=1 or a single CPU) the chunks
run in the calling process, one after another, with the same output.

Profiling conventions: wall-clock windows run file-to-file (timing starts
when the input QASM is read and stops when the compiled QASM is written).
profile_run gets the input already parsed, with the time that one read
took, and charges that read to both of its windows. Its monolithic side is
a one-chunk compile_parallel, so each side's metrics come from the frontier
scan inside its own window. Peak memory is
the per-process high-water mark (VmHWM / ru_maxrss): exact for workers,
which live exactly one phase, and a lifetime-peak approximation for phases
running in the parent. The aggregate concurrent estimate multiplies the worst
worker peak by the number of worker processes started (1 when the chunks run
in the calling process): the resident memory if every worker reached that
peak at once.
"""
from __future__ import annotations

import json
import os
import resource
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field

from .circuit import Circuit, final_layout_comment, frontier_depth, qasm_header
# unused here, kept because bench/tracer.py looks up these names when it starts
from .circuit import format_instruction, parse_qasm  # noqa: F401
from .permuter import append_permutation, build_permutation
from .router import route
from .topology import CouplingMap

MAX_WORKERS_ENV = "PARQC_MAX_WORKERS"
REPORT_SCHEMA_VERSION = 1


class PipelineError(RuntimeError):
    pass


def partition(n_g: int, n_sc: int) -> tuple[tuple[int, int], ...]:
    """(start, end) bounds of n_sc contiguous chunks of an n_g-instruction
    list: n_g // n_sc each, the remainder in the last. No gate is cut or
    reordered; a list with no instructions is one empty chunk."""
    if n_sc < 1:
        raise PipelineError(f"need at least 1 sub-circuit, got {n_sc}")
    if n_sc > max(n_g, 1):
        raise PipelineError(f"cannot split {n_g} instructions into {n_sc} sub-circuits")
    g_sc = n_g // n_sc
    bounds = [(i * g_sc, (i + 1) * g_sc) for i in range(n_sc - 1)]
    return tuple(bounds) + (((n_sc - 1) * g_sc, n_g),)


def peak_rss_bytes() -> int:
    """Lifetime peak RSS of this process (VmHWM on Linux, ru_maxrss fallback)."""
    if sys.platform.startswith("linux"):
        try:
            with open("/proc/self/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) * 1024
        except OSError:
            pass
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS
    return rss * 1024 if sys.platform.startswith("linux") else rss


@dataclass
class CompileReport:
    """Per-run record: timings, per-phase peak memory, counts and overheads.

    Overheads are fractions, not percentages: 0.05 means 5% more than the
    monolithic baseline. Fields tied to the baseline stay None when only the
    parallel side ran. swaps_* count swap gates in the output (metrics), while
    inserted_swaps_* count router insertions only, which is what the gate
    accounting identity reconciles against.
    """

    schema_version: int = REPORT_SCHEMA_VERSION
    router: str = "basic"
    n_sc: int = 1
    topology: str = "custom"
    n_phys: int = 0
    wall_time_parallel: float | None = None
    wall_time_sequential: float | None = None
    speedup: float | None = None
    phase_times: dict = field(default_factory=dict)
    peak_memory_per_phase: dict = field(default_factory=dict)
    gates_parallel: int | None = None
    swaps_parallel: int | None = None
    depth_parallel: int | None = None
    gates_monolithic: int | None = None
    swaps_monolithic: int | None = None
    depth_monolithic: int | None = None
    inserted_swaps_monolithic: int | None = None
    overhead_gate: float | None = None
    overhead_swap: float | None = None
    overhead_depth: float | None = None
    final_layout: tuple[int, ...] = ()
    chunk_gates: tuple = ()
    chunk_routing_swaps: tuple = ()
    chunk_permutation_swaps: tuple = ()

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())


def _compile_chunk(job, cmap: CouplingMap):
    """Route one chunk from the trivial layout; non-final chunks get their
    permutation circuit appended so they end back at trivial. Returns the
    compiled chunk as QASM statement text (one line per instruction), its
    operand stream, and its gate and SWAP counts."""
    idx, instructions, width, router, window, is_final = job
    try:
        sub = Circuit._unchecked(width, instructions, f"chunk{idx}")
        routed = route(sub, cmap, router=router, lookahead_window=window)
        perm_swaps = 0
        if not is_final:
            plan = build_permutation(routed.final_layout, cmap)
            append_permutation(routed, plan)
            perm_swaps = len(plan.swap_list)
        lines = routed.lines
        body = "\n".join(lines) + "\n" if lines else ""
    except Exception as exc:
        raise PipelineError(f"chunk {idx} failed: {exc}") from exc
    return (
        body,
        routed.ops,
        len(routed.ops) // 2,
        routed.swap_gates,
        routed.final_layout,
        routed.inserted_swaps,
        perm_swaps,
        peak_rss_bytes(),
    )


_worker_cmap: CouplingMap | None = None  # set once per pool worker by _init_worker


def _init_worker(cmap: CouplingMap) -> None:
    global _worker_cmap
    _worker_cmap = cmap


def _compile_chunk_in_worker(job):
    return _compile_chunk(job, _worker_cmap)


def _worker_count(n_sc: int) -> int:
    """One worker per chunk, capped by PARQC_MAX_WORKERS (a positive integer),
    or else by the CPU count: idle processes beyond the core count only add
    spawn cost."""
    raw = os.environ.get(MAX_WORKERS_ENV)
    if raw is None:
        return min(n_sc, os.cpu_count() or 1)
    if not (raw.isdecimal() and int(raw) >= 1):
        raise ValueError(f"{MAX_WORKERS_ENV} must be a positive integer, got {raw!r}")
    return min(n_sc, int(raw))


def compile_parallel(
    circuit: Circuit,
    cmap: CouplingMap,
    n_sc: int,
    router: str = "basic",
    lookahead_window: int = 20,
) -> tuple[str, CompileReport]:
    """Partition, route chunks concurrently, stitch, concatenate in order.

    Returns the compiled program text, exactly as `parqc compile` writes it
    (header, chunk bodies, `// final_layout` line), and a report carrying
    phase times, per-phase memory, per-chunk swap accounting and the output's
    gate count, swap count and depth. parse_qasm(text) gives the Circuit.

    The output is independent of worker scheduling: chunks are pure functions
    of their slice and are joined in chunk order, in worker processes or,
    with one worker, in the calling process.
    """
    report = CompileReport(router=router, n_sc=n_sc, topology=cmap.kind, n_phys=cmap.n_phys)

    t0 = time.perf_counter()
    bounds = partition(len(circuit.instructions), n_sc)
    jobs = [
        (i, circuit.instructions[start:end], circuit.width, router, lookahead_window, i == n_sc - 1)
        for i, (start, end) in enumerate(bounds)
    ]
    t1 = time.perf_counter()
    report.phase_times["decompose"] = t1 - t0
    report.peak_memory_per_phase["decompose"] = peak_rss_bytes()

    workers = _worker_count(n_sc)
    if workers > 1:
        try:
            with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker, initargs=(cmap,)) as pool:
                results = list(pool.map(_compile_chunk_in_worker, jobs))
        except BrokenProcessPool as exc:
            raise PipelineError(f"a worker process died: {exc}") from exc
    else:
        results = [_compile_chunk(job, cmap) for job in jobs]
    t2 = time.perf_counter()
    report.phase_times["compile"] = t2 - t1
    bodies, streams, gates, swaps, layouts, routing_swaps, permutation_swaps, peaks = zip(*results)
    worker_peak = max(peaks)
    report.peak_memory_per_phase["compile_worker_peak"] = worker_peak
    report.peak_memory_per_phase["compile_aggregate_estimate"] = worker_peak * workers

    report.final_layout = layouts[-1]
    text = qasm_header(cmap.n_phys) + "".join(bodies) + final_layout_comment(layouts[-1])
    report.gates_parallel = sum(gates)
    report.swaps_parallel = sum(swaps)
    report.depth_parallel = frontier_depth(cmap.n_phys, streams)
    t3 = time.perf_counter()
    report.phase_times["concatenate"] = t3 - t2
    report.peak_memory_per_phase["concatenate"] = peak_rss_bytes()

    report.chunk_gates = tuple(end - start for start, end in bounds)
    report.chunk_routing_swaps = routing_swaps
    report.chunk_permutation_swaps = permutation_swaps
    return text, report


def _fractional_overhead(parallel: int, monolithic: int) -> float | None:
    if monolithic == 0:
        return None
    return (parallel - monolithic) / monolithic


def profile_run(
    circuit: Circuit,
    read_time: float,
    cmap: CouplingMap,
    n_sc: int,
    output_path,
    router: str = "basic",
    lookahead_window: int = 20,
) -> CompileReport:
    """Run the parallel and monolithic compilations under identical conditions.

    The caller reads and parses the input once and passes the circuit with
    the seconds that read took; both wall-time windows are charged that read
    and run on through compile and write, so each covers read -> write. The
    monolithic side is the same compile with one chunk, and each side's
    quality metrics come with its report, from the frontier scan inside its
    window. The monolithic output lands next to the parallel one with a
    .mono.qasm suffix and is removed at the end.
    """
    output_path = os.fspath(output_path)
    mono_path = os.path.splitext(output_path)[0] + ".mono.qasm"

    t0 = time.perf_counter()
    text, report = compile_parallel(circuit, cmap, n_sc, router, lookahead_window)
    with open(output_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    report.wall_time_parallel = read_time + time.perf_counter() - t0

    t0 = time.perf_counter()
    text, mono = compile_parallel(circuit, cmap, 1, router, lookahead_window)
    with open(mono_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    report.wall_time_sequential = read_time + time.perf_counter() - t0
    report.speedup = report.wall_time_sequential / report.wall_time_parallel

    report.gates_monolithic = mono.gates_parallel
    report.swaps_monolithic = mono.swaps_parallel
    report.depth_monolithic = mono.depth_parallel
    report.inserted_swaps_monolithic = mono.chunk_routing_swaps[0]
    report.overhead_gate = _fractional_overhead(report.gates_parallel, mono.gates_parallel)
    report.overhead_swap = _fractional_overhead(report.swaps_parallel, mono.swaps_parallel)
    report.overhead_depth = _fractional_overhead(report.depth_parallel, mono.depth_parallel)

    os.remove(mono_path)
    return report
