"""
Parallel compilation: cut the program's statements into chunks, parse and
route every chunk from the trivial layout on its own worker, append a
permutation circuit to each non-final chunk so its layout returns to
trivial, then concatenate the compiled chunks in order. Chunk k+1 may assume
the trivial layout precisely because chunk k restored it, so the
concatenation is NNA-compliant and equivalent to the original circuit under
the last chunk's final layout.

The calling process does no per-gate work. It reads the program's header up
to `qreg` (circuit.split_header) for the width, counts the body's statements
(its `;`s) and cuts it after every g_sc = floor(n / n_sc) of them; the
remainder lands in the final chunk, which also skips permutation synthesis,
balancing the extra gates. A job is the chunk's name, the register's name
and width that the header declares, the chunk's slice of the text, the
slice's offset in the program and whether it is the final chunk. The worker
parses the slice with parse_qasm's statement loop (circuit.parse_statements)
and routes the chunk, whose depth the router tracks as it emits. In a
non-final chunk, the blocked gates among the last half of its 2-qubit gates
meet their operands nearest home (router.route's `tail`), which shortens the
permutation the chunk ends with; the final chunk routes as one chunk would.
A malformed statement comes back as a StatementError at its offset in the
program, which the calling process locates as parse_qasm would in the
whole text; results arrive in chunk order, so the first fault in the text
is the one reported. The coupling map, router name and lookahead window go
to each pool worker once, through the pool's initializer, so a job is the
same under every process start method. Workers hand back their compiled chunk
as QASM statement text, not as circuit objects, and Executor.map returns
results in job order, so the chunks are joined in chunk order whatever the
worker scheduling.

The text is the product: compile_parallel writes it to a text stream
exactly as `parqc compile` writes it, and nothing parses it back. The router
emits each chunk's QASM lines as it routes and tracks their depth, under
the rule of circuit.frontier_depth, the scan compute_metrics runs: a
barrier adds no layer but lifts its qubits to the highest level among them.
append_permutation extends both. The worker joins the lines and returns
them with the chunk's counts and depth. Each non-final chunk ends with a
barrier over every qubit, its restoring SWAPs and another such barrier, so
the output's depth is the sum of the chunks' depths. The parent consumes
the results one at a time, in chunk order, as they arrive: it writes the
chunk's text and keeps only its counts, so it holds the chunks in flight,
not the whole program.
Only the work left after the last chunk arrives (its write, the pool's
shutdown and the final layout line) is timed as the "concatenate" phase.

compile_parallel is the one place a compile's arguments are checked: the
router name, the lookahead window and the program's width against the map,
before the header is written or a worker starts (partition checks n_sc
there too). route trusts them.

A compile that fails part way, such as one whose worker dies, has already
written some chunks. `parqc compile` therefore writes through atomic_output:
to a new file beside the output, renamed over it only when the compile
completes, so a failed compile leaves an existing output as it was. An
output that a rename would turn into another kind of file (a symlink, or a
device such as /dev/null) is written in place instead.

A pool is started only when the routing work can pay for its start-up.
The work estimate is the body's two-qubit gate count (its `],`s, a count
that can move only the worker count, never the output) times the map's mean
hop distance times the router's weight (1 basic, 8 lookahead); below
POOL_WORK_THRESHOLD the chunks run in the calling process, one after
another, and at or above it one worker per chunk is started, up to the CPU
count. PARQC_MAX_WORKERS, when set, gives the worker count instead (up to
n_sc), whatever the estimate. With one worker (n_sc == 1, a small estimate,
PARQC_MAX_WORKERS=1 or a single CPU) no process is started, and the output
is the same either way.

Profiling conventions: wall-clock windows run file-to-file, from reading
the input QASM to writing the compiled QASM (profile_run). Peak memory is
the per-process high-water mark (VmHWM / ru_maxrss), read for the compile
phase only: exact for workers, which live exactly one phase, and the
calling process's lifetime peak when the chunks run there. The aggregate
concurrent estimate multiplies the worst worker peak by the number of worker
processes started (1 when the chunks run in the calling process): the
resident memory if every worker reached that peak at once.
"""
from __future__ import annotations

import gc
import json
import os
import re
import resource
import stat
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import closing, contextmanager, suppress
from dataclasses import dataclass, field, fields

from .circuit import (
    SWAP_CODE,
    StatementError,
    final_layout_comment,
    log_dropped_measures,
    parse_statements,
    qasm_header,
    split_header,
)
# unused here, kept because bench/tracer.py looks up these names when it starts
from .circuit import format_instruction, parse_qasm  # noqa: F401
from .permuter import append_permutation, build_permutation
from .router import RouteError, route
from .topology import CouplingMap

MAX_WORKERS_ENV = "PARQC_MAX_WORKERS"
REPORT_SCHEMA_VERSION = 5

# The routing-work estimate (_work_estimate) below which the chunks run in
# the calling process: under it, starting a pool costs more than the routing
# it spreads out. Measured with compile_parallel on 2 CPUs, n_sc 8, density
# 1.0 (DensitySpec seed 1): the median over four runs of each run's median
# of 7 or 11 alternating 1-worker/2-worker compiles, and in how many of the
# four runs one worker was faster. Basic routing moves a qubit along a row
# in one slice, so a lookahead compile costs several times basic's per unit
# of estimate: hence lookahead's weight of 8. By the medians, every row
# lands on the side of 100,000 where it runs as fast or faster:
#
#   cell                       estimate  1 worker  2 workers  1 faster
#   basic grid 100 x 50           29k      28 ms     44 ms      4/4
#   basic grid 150 x 50           64k      37 ms     56 ms      4/4
#   basic grid 200 x 30           68k      60 ms     62 ms      2/4
#   basic grid 200 x 60          135k      94 ms     81 ms      0/4
#   basic grid 200 x 80          180k      95 ms     90 ms      2/4
#   basic grid 200 x 100         226k     114 ms    103 ms      2/4
#   basic linear 100 x 50         56k      32 ms     41 ms      4/4
#   basic linear 150 x 50        126k      84 ms     78 ms      1/4
#   basic linear 200 x 40        178k     108 ms     91 ms      1/4
#   basic linear 200 x 50        221k     124 ms    106 ms      0/4
#   lookahead grid 50 x 40        47k      20 ms     26 ms      4/4
#   lookahead grid 50 x 100      118k      50 ms     43 ms      0/4
#   lookahead grid 50 x 150      177k      72 ms     54 ms      0/4
#   lookahead grid 50 x 200      236k      83 ms     62 ms      0/4
#   lookahead linear 50 x 40      90k      29 ms     30 ms      3/4
#   lookahead linear 50 x 100    223k      51 ms     49 ms      2/4
POOL_WORK_THRESHOLD = 100_000


class PipelineError(RuntimeError):
    pass


def partition(n_g: int, n_sc: int) -> tuple[tuple[int, int], ...]:
    """(start, end) bounds of n_sc contiguous chunks of n_g statements:
    n_g // n_sc each, the remainder in the last. No statement is cut or
    reordered; a body with no statements is one empty chunk."""
    if n_sc < 1:
        raise PipelineError(f"need at least 1 sub-circuit, got {n_sc}")
    if n_sc > max(n_g, 1):
        raise PipelineError(f"cannot split {n_g} statements into {n_sc} sub-circuits")
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
    accounting identity reconciles against. chunk_gates counts each chunk's
    instructions, barriers included, as its worker parsed them. The gate and
    swap counts and depth_parallel are the sums of the workers' per-chunk
    figures; a depth counts a barrier as no layer that lifts its qubits to
    the highest level among them (circuit.frontier_depth), as Qiskit's
    QuantumCircuit.depth does. peak_memory_per_phase holds the compile
    phase's compile_worker_peak and compile_aggregate_estimate; when the
    chunks run in the calling process, the worker peak is that process's
    lifetime high-water mark at the read, not the phase's own peak.
    """

    schema_version: int = REPORT_SCHEMA_VERSION
    router: str = "basic"
    n_sc: int = 1
    workers: int = 1
    work_estimate: int = 0
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
        # a shallow dict: asdict would deep-copy every dict and tuple only for json.dumps to read them
        return json.dumps({f.name: getattr(self, f.name) for f in fields(self)}, indent=2, sort_keys=True) + "\n"


def _compile_chunk(name: str, register: tuple[str, int], body: str, start: int, is_final: bool,
                   cmap: CouplingMap, router: str, window: int):
    """Parse one chunk, its slice of the program's body on the register
    (name, width) the header declared, beginning at offset `start` of the
    comment-free program, and route it from the trivial layout; non-final
    chunks get their
    permutation circuit appended so they end back at trivial. Returns the
    compiled chunk as QASM statement text (one line per instruction), then
    the chunk's instruction count, its output's gate count, swap count and
    depth, its final layout, its routing and permutation SWAPs and the
    measures its parse dropped. A malformed statement raises StatementError
    at its offset in the program."""
    try:
        chunk, dropped = parse_statements(body, name, register)
    except StatementError as exc:
        message, offset = exc.args
        raise StatementError(message, start + offset) from None
    try:
        tail = None if is_final else chunk.n_q2 // 2  # the last half routes toward home
        routed = route(chunk, cmap, router=router, lookahead_window=window, tail=tail)
        if not is_final:
            append_permutation(routed, build_permutation(routed.final_layout, cmap), cmap)
        routed.lines.append("")  # the body's last newline, without a second copy of the body
        text = "\n".join(routed.lines)
    except Exception as exc:
        raise PipelineError(f"{name} failed: {exc}") from exc
    added = routed.inserted_swaps + routed.permutation_swaps
    return (text, len(chunk), chunk.n_gates + added, chunk.kinds.count(SWAP_CODE) + added, routed.depth,
            routed.final_layout, routed.inserted_swaps, routed.permutation_swaps, dropped)


_worker_settings = ()  # (cmap, router, window), set once per pool worker by _init_worker


def _init_worker(cmap: CouplingMap, router: str, window: int) -> None:
    global _worker_settings
    # A forked worker shares the parent's heap copy-on-write; a full collection
    # would walk every inherited object and copy the pages it writes to. Freeze
    # them so the worker's collections see only what it allocates itself.
    gc.freeze()
    _worker_settings = cmap, router, window


def _compile_chunk_in_worker(job):
    """_compile_chunk's result and the worker's peak RSS after the chunk."""
    return *_compile_chunk(*job, *_worker_settings), peak_rss_bytes()


def _work_estimate(n_q2: int, cmap: CouplingMap, router: str) -> int:
    """The compile's routing work: two-qubit gates x the map's mean hop
    distance between distinct qubits x the router's weight (1 basic, 8
    lookahead, whose swap choice rescores a window of gates)."""
    n = cmap.n_phys
    if n < 2:
        return 0
    mean_hops = sum(map(sum, cmap.dist)) / (n * (n - 1))
    return round(n_q2 * mean_hops * (8 if router == "lookahead" else 1))


def _worker_count(n_sc: int, estimate: int) -> int:
    """PARQC_MAX_WORKERS (a positive integer) workers when it is set, up to
    n_sc. Otherwise 1, the calling process, when the work estimate is below
    POOL_WORK_THRESHOLD, and else one worker per chunk up to the CPUs this
    process may run on (its affinity set, or the CPU count where the OS has
    none): idle processes beyond those CPUs only add spawn cost."""
    raw = os.environ.get(MAX_WORKERS_ENV)
    if raw is None:
        if estimate < POOL_WORK_THRESHOLD:
            return 1
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        return min(n_sc, cpus)
    if not (raw.isdecimal() and int(raw) >= 1):
        raise ValueError(f"{MAX_WORKERS_ENV} must be a positive integer, got {raw!r}")
    return min(n_sc, int(raw))


def _chunk_results(jobs, settings: tuple, workers: int):
    """Each job's _compile_chunk result under `settings` (map, router,
    window) and a peak RSS, in chunk order, as soon as it and every chunk
    before it are done: from a pool of `workers` processes, each given the
    settings once, with the worker's peak after the chunk, or, with one
    worker, compiled in the calling process when asked for, with none."""
    if workers == 1:
        for job in jobs:
            yield *_compile_chunk(*job, *settings), None
        return
    try:
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker, initargs=settings) as pool:
            yield from pool.map(_compile_chunk_in_worker, jobs)
    except BrokenProcessPool as exc:
        raise PipelineError(f"a worker process died: {exc}") from exc


def _cut_offsets(text: str, start: int, n_sc: int) -> list[int]:
    """The n_sc + 1 offsets that cut the body, from `start` to the end of
    the text, into partition's runs of statements, each cut just after a
    `;`. Every `;` of comment-free text ends a statement."""
    bounds = partition(text.count(";", start), n_sc)
    cuts = [start]
    if n_sc > 1:
        run = re.compile(r"(?:[^;]*;){%d}" % bounds[0][1])  # g_sc statements
        for _ in bounds[:-1]:
            cuts.append(run.match(text, cuts[-1]).end())
    return cuts + [len(text)]


def compile_parallel(
    text: str,
    cmap: CouplingMap,
    n_sc: int,
    out,
    router: str = "basic",
    lookahead_window: int = 20,
) -> CompileReport:
    """Cut an OpenQASM 2.0 program's text into chunks, parse and route them
    concurrently, stitch, and write them in order.

    Writes the compiled program to the text stream `out`, exactly as `parqc
    compile` writes it (header, chunk bodies, `// final_layout` line), and
    returns a report carrying phase times, per-phase memory, per-chunk swap
    accounting and the output's gate count, swap count and depth.
    parse_qasm of the written text gives the Circuit. A caller holding a
    Circuit passes serialize_qasm's text for it.

    This process reads only the header and cuts the body into runs of
    statements; each chunk is parsed where it is routed (see the module
    docstring). A malformed statement raises the QasmError that parse_qasm
    raises for the whole text, the first in the text when there are several.
    Each chunk's body is written as it arrives, in chunk order, and then
    dropped. A compile that fails part way has written part of the program
    to `out`; atomic_output gives a file stream that replaces the file only
    when the compile completes.

    The output is independent of worker scheduling: chunks are pure functions
    of their slice and are joined in chunk order, in worker processes or,
    with one worker, in the calling process. The report records how many
    processes ran the chunks and the work estimate that chose it.

    The router name, the lookahead window (lookahead only) and the program's
    width against the map are checked here, before anything is written or a
    worker starts, and a bad one raises RouteError; route trusts them.
    """
    if router not in ("basic", "lookahead"):
        raise RouteError(f"unknown router {router!r} (expected basic or lookahead)")
    if router == "lookahead" and lookahead_window < 1:
        raise RouteError(f"lookahead_window must be >= 1, got {lookahead_window}")
    t0 = time.perf_counter()
    text, register, start, dropped = split_header(text)
    width = register[1]
    if width > cmap.n_phys:
        raise RouteError(f"circuit width {width} exceeds {cmap.n_phys} physical qubits")
    report = CompileReport(router=router, n_sc=n_sc, topology=cmap.kind, n_phys=cmap.n_phys)

    cuts = _cut_offsets(text, start, n_sc)
    jobs = [(f"chunk{i}", register, text[s:e], s, i == n_sc - 1) for i, (s, e) in enumerate(zip(cuts, cuts[1:]))]
    # a 2-qubit gate's operands meet at `],`: an estimate that can only move the worker count
    report.work_estimate = _work_estimate(text.count("],", start), cmap, router)
    report.workers = workers = _worker_count(n_sc, report.work_estimate)
    t1 = time.perf_counter()
    report.phase_times["decompose"] = t1 - t0

    out.write(qasm_header(cmap.n_phys))
    counts = []  # per chunk: _compile_chunk's counts and the worker's peak
    try:
        with closing(_chunk_results(jobs, (cmap, router, lookahead_window), workers)) as results:
            for body, *chunk_counts in results:
                arrived = time.perf_counter()
                out.write(body)
                counts.append(chunk_counts)
    except StatementError as exc:
        raise exc.located(text) from None
    (report.chunk_gates, gates, swaps, depths, layouts, report.chunk_routing_swaps,
     report.chunk_permutation_swaps, dropped_in_chunks, peaks) = zip(*counts)
    out.write(final_layout_comment(layouts[-1]))
    log_dropped_measures(dropped + sum(dropped_in_chunks))
    report.phase_times["compile"] = arrived - t1
    # in the calling process the peak is its lifetime high-water mark, read
    # once after the last chunk
    worker_peak = max(peaks) if workers > 1 else peak_rss_bytes()
    report.peak_memory_per_phase["compile_worker_peak"] = worker_peak
    report.peak_memory_per_phase["compile_aggregate_estimate"] = worker_peak * workers

    report.final_layout = layouts[-1]
    report.gates_parallel = sum(gates)
    report.swaps_parallel = sum(swaps)
    # every chunk but the last ends with a barrier over every qubit, so the depths add up
    report.depth_parallel = sum(depths)
    report.phase_times["concatenate"] = time.perf_counter() - arrived
    return report


@contextmanager
def atomic_output(path):
    """A text stream whose content replaces the file at `path` only when the
    with-block completes.

    The stream writes a new file beside `path`, so the final os.replace stays
    on one filesystem and readers of `path` see the old content or the whole
    new one. Its name is short whatever the length of `path`'s. A new output
    gets the mode a plain open gives it, and an existing one keeps its
    permission bits. If the block raises, the new file is removed and `path`
    is left as it was.

    The rename is taken only where it changes nothing but the content: when
    `path` is absent, or is a regular file with one link, owned by this
    process's user and group. Any other output (a symlink, a device such as
    /dev/null, a FIFO, a hard-linked or foreign file) is written in place,
    as open(path, "w") writes it, and a block that raises leaves it partly
    written.
    """
    try:
        st = os.lstat(path)
    except FileNotFoundError:
        st = None
    if st is not None and not (
        stat.S_ISREG(st.st_mode) and st.st_nlink == 1 and (st.st_uid, st.st_gid) == (os.geteuid(), os.getegid())
    ):
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
        return
    tmp = os.path.join(os.path.dirname(os.fspath(path)), f"parqc-{os.urandom(6).hex()}.tmp")
    try:
        fh = open(tmp, "x", encoding="utf-8")
    except OSError as exc:  # name the output asked for, not the temporary file
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with fh:
            if st is not None:
                os.fchmod(fh.fileno(), stat.S_IMODE(st.st_mode))
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _fractional_overhead(parallel: int, monolithic: int) -> float | None:
    if monolithic == 0:
        return None
    return (parallel - monolithic) / monolithic


def profile_run(
    text: str,
    read_time: float,
    cmap: CouplingMap,
    n_sc: int,
    out,
    router: str = "basic",
    lookahead_window: int = 20,
) -> CompileReport:
    """Run the parallel and monolithic compilations under identical conditions.

    The caller reads the input's text once and passes it with the seconds
    that read took; both wall-time windows are charged that read and run on
    through parse, compile, write and flush, so each covers read -> write.
    The parallel output goes to `out`, any text stream, as for
    compile_parallel. The monolithic side is the same compile with one
    chunk, which parses the whole body in that chunk, and each side's
    quality metrics come with its report, from the depth scans inside its
    window. Its output goes to a temporary file,
    removed whether the run succeeds or fails: beside out's file when `out`
    names a regular file, on the same filesystem, and otherwise (a device
    such as /dev/null, a FIFO, a StringIO) in the default temporary directory.
    """
    t0 = time.perf_counter()
    report = compile_parallel(text, cmap, n_sc, out, router, lookahead_window)
    out.flush()
    report.wall_time_parallel = read_time + time.perf_counter() - t0

    name = getattr(out, "name", None)
    out_dir = os.path.dirname(os.path.abspath(name)) if isinstance(name, str) and os.path.isfile(name) else None
    with tempfile.NamedTemporaryFile("w", encoding="utf-8", dir=out_dir, suffix=".mono.qasm") as mono_file:
        t0 = time.perf_counter()
        mono = compile_parallel(text, cmap, 1, mono_file, router, lookahead_window)
        mono_file.flush()
        report.wall_time_sequential = read_time + time.perf_counter() - t0
    report.speedup = report.wall_time_sequential / report.wall_time_parallel

    report.gates_monolithic = mono.gates_parallel
    report.swaps_monolithic = mono.swaps_parallel
    report.depth_monolithic = mono.depth_parallel
    report.inserted_swaps_monolithic = mono.chunk_routing_swaps[0]
    report.overhead_gate = _fractional_overhead(report.gates_parallel, mono.gates_parallel)
    report.overhead_swap = _fractional_overhead(report.swaps_parallel, mono.swaps_parallel)
    report.overhead_depth = _fractional_overhead(report.depth_parallel, mono.depth_parallel)
    return report
