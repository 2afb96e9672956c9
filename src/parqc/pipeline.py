"""
Parallel compilation: slice the instruction list into chunks, route every
chunk from the trivial layout on its own worker, append a permutation circuit
to each non-final chunk so its layout returns to trivial, then concatenate the
compiled chunks in order. Chunk k+1 may assume the trivial layout precisely
because chunk k restored it, so the concatenation is NNA-compliant and
equivalent to the original circuit under the last chunk's final layout.

Chunk sizing: g_sc = floor(n_g / n_sc); the remainder lands in the final
chunk, which also skips permutation synthesis, balancing the extra gates.

Workers hand back their compiled chunk as serialized QASM statements, not as
circuit objects: concatenation is then pure text and the dominant IPC cost is
one string per chunk. On a fork-capable platform the input instruction list
reaches workers through inherited memory, so nothing large is pickled in
either direction. Results are gathered by chunk index, making the output
independent of worker scheduling.

Profiling conventions: wall-clock windows run file-to-file (timing starts
when the input QASM is read and stops when the compiled QASM is written).
Peak memory is the per-process high-water mark (VmHWM / ru_maxrss): exact for
workers, which live exactly one phase, and a lifetime-peak approximation for
phases running in the parent. The aggregate concurrent estimate multiplies
the worst worker peak by the worker count.
"""
from __future__ import annotations

import json
import multiprocessing
import os
import resource
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field

from .circuit import (
    Circuit,
    compute_metrics,
    format_instruction,
    parse_qasm,
    qasm_header,
    read_qasm,
)
from .permuter import append_permutation, build_permutation
from .router import route
from .topology import CouplingMap

MAX_WORKERS_ENV = "PARQC_MAX_WORKERS"
REPORT_SCHEMA_VERSION = 1


class PipelineError(RuntimeError):
    pass


@dataclass(frozen=True)
class PartitionPlan:
    """Index ranges slicing an instruction list into n_sc contiguous chunks."""

    n_sc: int
    g_sc: int
    boundaries: tuple[tuple[int, int], ...]

    @classmethod
    def for_size(cls, n_g: int, n_sc: int) -> "PartitionPlan":
        if n_sc < 1:
            raise PipelineError(f"need at least 1 sub-circuit, got {n_sc}")
        if n_sc > n_g:
            raise PipelineError(f"cannot split {n_g} gates into {n_sc} sub-circuits")
        g_sc = n_g // n_sc
        bounds = [(i * g_sc, (i + 1) * g_sc) for i in range(n_sc - 1)]
        bounds.append(((n_sc - 1) * g_sc, n_g))
        return cls(n_sc, g_sc, tuple(bounds))

    @property
    def chunk_sizes(self) -> tuple[int, ...]:
        return tuple(end - start for start, end in self.boundaries)


def partition(circuit: Circuit, n_sc: int) -> PartitionPlan:
    """Naive instruction-list split; no gate is cut or reordered."""
    return PartitionPlan.for_size(len(circuit.instructions), n_sc)


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
    final_layout: tuple = ()
    chunk_gates: tuple = ()
    chunk_routing_swaps: tuple = ()
    chunk_permutation_swaps: tuple = ()

    def to_dict(self) -> dict:
        d = asdict(self)
        for key in ("final_layout", "chunk_gates", "chunk_routing_swaps", "chunk_permutation_swaps"):
            d[key] = list(d[key])
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    @classmethod
    def from_dict(cls, d: dict) -> "CompileReport":
        d = dict(d)
        for key in ("final_layout", "chunk_gates", "chunk_routing_swaps", "chunk_permutation_swaps"):
            if key in d:
                d[key] = tuple(d[key])
        return cls(**d)

    @classmethod
    def read(cls, path) -> "CompileReport":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


# Input handoff for forked workers: set in the parent immediately before the
# pool is created, inherited copy-on-write, never mutated. Job tuples then
# carry only slice bounds.
_FORK_INPUT: tuple | None = None


def _compile_chunk(args):
    """Route one chunk from the trivial layout; non-final chunks get their
    permutation circuit appended so they end back at trivial. Returns the
    compiled chunk as QASM statement text (one line per instruction)."""
    idx, start, end, instructions, width, cmap, router, window, is_final = args
    try:
        if instructions is None:
            instructions = _FORK_INPUT[start:end]
        sub = Circuit(width, instructions, name=f"chunk{idx}")
        routed = route(sub, cmap, router=router, lookahead_window=window)
        if is_final:
            circ = routed.circuit
            perm_swaps = 0
        else:
            plan = build_permutation(routed.final_layout, cmap)
            circ = append_permutation(routed, plan)
            perm_swaps = len(plan.swap_list)
            if not routed.final_layout.apply_swaps(plan.swap_list).is_trivial:
                raise PipelineError("permutation failed to restore the trivial layout")
        n_phys = cmap.n_phys
        body = "".join(format_instruction(ins, n_phys) + "\n" for ins in circ.instructions)
    except Exception as exc:
        raise PipelineError(f"chunk {idx} failed: {exc}") from exc
    return (
        idx,
        body,
        routed.final_layout.phys_to_logical,
        routed.inserted_swaps,
        perm_swaps,
        peak_rss_bytes(),
    )


def _max_workers(n_sc: int, max_workers: int | None) -> int:
    if max_workers is None:
        env = os.environ.get(MAX_WORKERS_ENV)
        if env:
            max_workers = int(env)
    if max_workers is None:
        # one chunk per worker is the model, but idle processes beyond the
        # core count only add spawn cost
        max_workers = os.cpu_count() or 1
    return max(1, min(n_sc, max_workers))


def _compile_to_text(
    circuit: Circuit,
    cmap: CouplingMap,
    n_sc: int,
    router: str,
    lookahead_window: int,
    parallel: bool,
    max_workers: int | None,
) -> tuple[str, CompileReport]:
    """The pipeline engine: returns the compiled program text and a report
    carrying phase times, per-phase memory and per-chunk swap accounting."""
    global _FORK_INPUT
    report = CompileReport(router=router, n_sc=n_sc, topology=cmap.kind, n_phys=cmap.n_phys)

    t0 = time.perf_counter()
    plan = partition(circuit, n_sc)
    use_fork = (
        parallel and n_sc > 1 and multiprocessing.get_start_method(allow_none=False) == "fork"
    )
    jobs = [
        (
            i,
            start,
            end,
            None if use_fork else circuit.instructions[start:end],
            circuit.width,
            cmap,
            router,
            lookahead_window,
            i == n_sc - 1,
        )
        for i, (start, end) in enumerate(plan.boundaries)
    ]
    t1 = time.perf_counter()
    report.phase_times["decompose"] = t1 - t0
    report.peak_memory_per_phase["decompose"] = peak_rss_bytes()

    if parallel and n_sc > 1:
        workers = _max_workers(n_sc, max_workers)
        if use_fork:
            _FORK_INPUT = circuit.instructions
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_compile_chunk, jobs))
        except BrokenProcessPool as exc:
            raise PipelineError(f"a worker process died: {exc}") from exc
        finally:
            _FORK_INPUT = None
    else:
        results = [_compile_chunk(job) for job in jobs]
    results.sort(key=lambda r: r[0])
    for idx in range(n_sc):
        if results[idx][0] != idx:
            raise PipelineError(f"missing result for chunk {idx}")
    t2 = time.perf_counter()
    report.phase_times["compile"] = t2 - t1
    worker_peak = max(r[5] for r in results)
    report.peak_memory_per_phase["compile_worker_peak"] = worker_peak
    report.peak_memory_per_phase["compile_aggregate_estimate"] = worker_peak * n_sc

    text = qasm_header(cmap.n_phys) + "".join(r[1] for r in results)
    t3 = time.perf_counter()
    report.phase_times["concatenate"] = t3 - t2
    report.peak_memory_per_phase["concatenate"] = peak_rss_bytes()

    report.final_layout = results[-1][2]
    report.chunk_gates = plan.chunk_sizes
    report.chunk_routing_swaps = tuple(r[3] for r in results)
    report.chunk_permutation_swaps = tuple(r[4] for r in results)
    return text, report


def compile_parallel(
    circuit: Circuit,
    cmap: CouplingMap,
    n_sc: int,
    router: str = "basic",
    lookahead_window: int = 20,
    parallel: bool = True,
    max_workers: int | None = None,
) -> tuple[Circuit, CompileReport]:
    """Partition, route chunks concurrently, stitch, concatenate in order.

    The output is independent of worker scheduling: chunks are pure functions
    of their slice and assembly is ordered by chunk index. parallel=False runs
    the identical chunk code in-process (handy for tests and for n_sc == 1).
    """
    text, report = _compile_to_text(
        circuit, cmap, n_sc, router, lookahead_window, parallel, max_workers
    )
    compiled = parse_qasm(text, name=f"{circuit.name}-par{n_sc}")
    return compiled, report


def _fractional_overhead(parallel: int, monolithic: int) -> float | None:
    if monolithic == 0:
        return None
    return (parallel - monolithic) / monolithic


def _final_layout_comment(layout) -> str:
    return "// final_layout: [" + ", ".join(str(x) for x in layout) + "]\n"


def profile_run(
    input_path,
    cmap: CouplingMap,
    n_sc: int,
    router: str = "basic",
    output_path=None,
    lookahead_window: int = 20,
    parallel: bool = True,
    max_workers: int | None = None,
) -> CompileReport:
    """Run the parallel and monolithic compilations under identical conditions.

    Both wall-time windows cover read -> write; quality metrics are computed
    afterwards, outside the windows. The monolithic output lands next to the
    parallel one with a .mono.qasm suffix and is removed at the end.
    """
    input_path = os.fspath(input_path)
    if output_path is None:
        root, _ = os.path.splitext(input_path)
        output_path = root + f".compiled-{router}-n{n_sc}.qasm"
    output_path = os.fspath(output_path)
    mono_path = os.path.splitext(output_path)[0] + ".mono.qasm"

    t0 = time.perf_counter()
    circuit = read_qasm(input_path)
    text, report = _compile_to_text(
        circuit, cmap, n_sc, router, lookahead_window, parallel, max_workers
    )
    with open(output_path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write(_final_layout_comment(report.final_layout))
    report.wall_time_parallel = time.perf_counter() - t0

    t0 = time.perf_counter()
    circuit_again = read_qasm(input_path)
    routed = route(circuit_again, cmap, router=router, lookahead_window=lookahead_window)
    mono_text = qasm_header(cmap.n_phys) + "".join(
        format_instruction(ins, cmap.n_phys) + "\n" for ins in routed.circuit.instructions
    )
    with open(mono_path, "w", encoding="utf-8") as fh:
        fh.write(mono_text)
        fh.write(_final_layout_comment(routed.final_layout.phys_to_logical))
    report.wall_time_sequential = time.perf_counter() - t0
    report.speedup = report.wall_time_sequential / report.wall_time_parallel

    par_metrics = compute_metrics(read_qasm(output_path))
    mono_metrics = compute_metrics(routed.circuit)
    report.gates_parallel = par_metrics.n_gates
    report.swaps_parallel = par_metrics.swap_count
    report.depth_parallel = par_metrics.depth
    report.gates_monolithic = mono_metrics.n_gates
    report.swaps_monolithic = mono_metrics.swap_count
    report.depth_monolithic = mono_metrics.depth
    report.inserted_swaps_monolithic = routed.inserted_swaps
    report.overhead_gate = _fractional_overhead(par_metrics.n_gates, mono_metrics.n_gates)
    report.overhead_swap = _fractional_overhead(par_metrics.swap_count, mono_metrics.swap_count)
    report.overhead_depth = _fractional_overhead(par_metrics.depth, mono_metrics.depth)

    os.remove(mono_path)
    return report
