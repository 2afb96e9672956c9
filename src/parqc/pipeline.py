"""
Parallel compilation: slice the instruction list into chunks, route every
chunk from the trivial layout on its own worker, append a permutation circuit
to each non-final chunk so its layout returns to trivial, then concatenate the
compiled chunks in order. Chunk k+1 may assume the trivial layout precisely
because chunk k restored it, so the concatenation is NNA-compliant and
equivalent to the original circuit under the last chunk's final layout.

Chunk sizing: g_sc = floor(n_g / n_sc); the remainder lands in the final
chunk, which also skips permutation synthesis, balancing the extra gates.

Each job carries its chunk's slice of the circuit's columns (Circuit.columns):
kind codes as bytes and operand pairs and angles as arrays, which pickle as
flat buffers, plus the chunk's barrier qubit tuples; the worker wraps them
as a Circuit. The coupling map goes to each pool worker once, through the
pool's initializer, so a job is the same under every process start method.
Workers hand back their compiled chunk as QASM statement text, not as
circuit objects, and Executor.map returns results in job order, so the
chunks are joined in chunk order whatever the worker scheduling.

The text is the product: compile_parallel writes it to a text stream
exactly as `parqc compile` writes it, and nothing parses it back. The router
emits each chunk's QASM lines and operand stream (Circuit.ops's pairs,
without barriers) as it routes, and append_permutation extends both; the
worker joins the lines and returns the stream with its SWAP counts. The
parent consumes the results one at a time, in chunk order, as they arrive:
it writes the chunk's text, advances the per-qubit depth frontier
(circuit.frontier_depth, the loop compute_metrics runs too) over its operand
stream and keeps only its counts, so it holds the chunks in flight, not the
whole program. Only the work left after the last chunk arrives (its write
and scan, the pool's shutdown and the final layout line) is timed as the
"concatenate" phase.

compile_parallel is the one place a compile's arguments are checked: the
router name, the lookahead window and the circuit's width against the map,
before the header is written or a worker starts (partition checks n_sc
there too). route trusts them.

A compile that fails part way, such as one whose worker dies, has already
written some chunks. `parqc compile` therefore writes through atomic_output:
to a new file beside the output, renamed over it only when the compile
completes, so a failed compile leaves an existing output as it was. An
output that a rename would turn into another kind of file (a symlink, or a
device such as /dev/null) is written in place instead.

A pool is started only when the routing work can pay for its start-up.
The work estimate is the circuit's two-qubit gate count times the map's mean
hop distance times the router's weight (1 basic, 8 lookahead); below
POOL_WORK_THRESHOLD the chunks run in the calling process, one after
another, and at or above it one worker per chunk is started, up to the CPU
count. PARQC_MAX_WORKERS, when set, gives the worker count instead (up to
n_sc), whatever the estimate. With one worker (n_sc == 1, a small estimate,
PARQC_MAX_WORKERS=1 or a single CPU) no process is started, and the output
is the same either way.

Profiling conventions: wall-clock windows run file-to-file, from reading
the input QASM to writing the compiled QASM (profile_run). Peak memory is
the per-process high-water mark (VmHWM / ru_maxrss): exact for workers,
which live exactly one phase, and a lifetime-peak approximation for phases
running in the parent. The aggregate concurrent estimate multiplies the worst
worker peak by the number of worker processes started (1 when the chunks run
in the calling process): the resident memory if every worker reached that
peak at once.
"""
from __future__ import annotations

import gc
import json
import os
import resource
import stat
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import closing, contextmanager, suppress
from dataclasses import asdict, dataclass, field

from .circuit import SWAP_CODE, Circuit, final_layout_comment, frontier_depth, qasm_header
# unused here, kept because bench/tracer.py looks up these names when it starts
from .circuit import format_instruction, parse_qasm  # noqa: F401
from .permuter import append_permutation, build_permutation
from .router import RouteError, route
from .topology import CouplingMap

MAX_WORKERS_ENV = "PARQC_MAX_WORKERS"
REPORT_SCHEMA_VERSION = 3

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
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"


def _compile_chunk(job, cmap: CouplingMap):
    """Route one chunk from the trivial layout; non-final chunks get their
    permutation circuit appended so they end back at trivial. Returns the
    compiled chunk as QASM statement text (one line per instruction), its
    operand stream, final layout and inserted SWAP counts."""
    idx, width, kinds, ops, params, barriers, router, window, is_final = job
    try:
        sub = Circuit._from_columns(width, kinds, ops, params, barriers, f"chunk{idx}")
        routed = route(sub, cmap, router=router, lookahead_window=window)
        perm_swaps = 0
        if not is_final:
            plan = build_permutation(routed.final_layout, cmap)
            append_permutation(routed, plan, cmap)
            perm_swaps = len(plan.swap_list)
        lines = routed.lines
        lines.append("")  # the body's last newline, without a second copy of the body
        body = "\n".join(lines)
    except Exception as exc:
        raise PipelineError(f"chunk {idx} failed: {exc}") from exc
    return body, routed.ops, routed.final_layout, routed.inserted_swaps, perm_swaps, peak_rss_bytes()


_worker_cmap: CouplingMap | None = None  # set once per pool worker by _init_worker


def _init_worker(cmap: CouplingMap) -> None:
    global _worker_cmap
    # A forked worker shares the parent's heap copy-on-write; a full collection
    # would walk every inherited object and copy the pages it writes to. Freeze
    # them so the worker's collections see only what it allocates itself.
    gc.freeze()
    _worker_cmap = cmap


def _compile_chunk_in_worker(job):
    return _compile_chunk(job, _worker_cmap)


def _work_estimate(circuit: Circuit, cmap: CouplingMap, router: str) -> int:
    """The compile's routing work: two-qubit gates x the map's mean hop
    distance between distinct qubits x the router's weight (1 basic, 8
    lookahead, whose swap choice rescores a window of gates)."""
    n = cmap.n_phys
    if n < 2:
        return 0
    mean_hops = sum(map(sum, cmap.dist)) / (n * (n - 1))
    return round(circuit.n_q2 * mean_hops * (8 if router == "lookahead" else 1))


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


def _chunk_results(jobs, cmap: CouplingMap, workers: int):
    """Each chunk's _compile_chunk result in chunk order, as soon as it and
    every chunk before it are done: from a pool of `workers` processes, or,
    with one worker, compiled in the calling process when asked for."""
    if workers == 1:
        for job in jobs:
            yield _compile_chunk(job, cmap)
        return
    try:
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker, initargs=(cmap,)) as pool:
            yield from pool.map(_compile_chunk_in_worker, jobs)
    except BrokenProcessPool as exc:
        raise PipelineError(f"a worker process died: {exc}") from exc


def compile_parallel(
    circuit: Circuit,
    cmap: CouplingMap,
    n_sc: int,
    out,
    router: str = "basic",
    lookahead_window: int = 20,
) -> CompileReport:
    """Partition, route chunks concurrently, stitch, concatenate in order.

    Writes the compiled program to the text stream `out`, exactly as `parqc
    compile` writes it (header, chunk bodies, `// final_layout` line), and
    returns a report carrying phase times, per-phase memory, per-chunk swap
    accounting and the output's gate count, swap count and depth.
    parse_qasm of the written text gives the Circuit.

    Each chunk's body is written as it arrives, in chunk order, and its
    operand stream advances the depth frontier; then the chunk is dropped, so
    the calling process holds only the chunks in flight, never the whole
    program. A compile that fails part way has written part of the program
    to `out`; atomic_output gives a file stream that replaces the file only
    when the compile completes.

    The output is independent of worker scheduling: chunks are pure functions
    of their slice and are joined in chunk order, in worker processes or,
    with one worker, in the calling process. The report records how many
    processes ran the chunks and the work estimate that chose it.

    The router name, the lookahead window (lookahead only) and the circuit's
    width against the map are checked here, before anything is written or a
    worker starts, and a bad one raises RouteError; route trusts them.
    """
    if router not in ("basic", "lookahead"):
        raise RouteError(f"unknown router {router!r} (expected basic or lookahead)")
    if router == "lookahead" and lookahead_window < 1:
        raise RouteError(f"lookahead_window must be >= 1, got {lookahead_window}")
    if circuit.width > cmap.n_phys:
        raise RouteError(f"circuit width {circuit.width} exceeds {cmap.n_phys} physical qubits")
    report = CompileReport(router=router, n_sc=n_sc, topology=cmap.kind, n_phys=cmap.n_phys)

    t0 = time.perf_counter()
    bounds = partition(len(circuit), n_sc)
    jobs = [
        (i, circuit.width, *circuit.columns(start, end), router, lookahead_window, i == n_sc - 1)
        for i, (start, end) in enumerate(bounds)
    ]
    report.work_estimate = _work_estimate(circuit, cmap, router)
    report.workers = workers = _worker_count(n_sc, report.work_estimate)
    t1 = time.perf_counter()
    report.phase_times["decompose"] = t1 - t0
    report.peak_memory_per_phase["decompose"] = peak_rss_bytes()

    out.write(qasm_header(cmap.n_phys))
    frontier = [0] * cmap.n_phys
    gates = 0
    counts = []  # per chunk: final layout, routing and permutation SWAPs, worker peak
    with closing(_chunk_results(jobs, cmap, workers)) as results:
        for body, ops, *chunk_counts in results:
            arrived = time.perf_counter()
            out.write(body)
            report.depth_parallel = frontier_depth(frontier, ops)
            gates += len(ops) // 2
            counts.append(chunk_counts)
    layouts, routing_swaps, permutation_swaps, peaks = zip(*counts)
    out.write(final_layout_comment(layouts[-1]))
    report.phase_times["compile"] = arrived - t1
    worker_peak = max(peaks)
    report.peak_memory_per_phase["compile_worker_peak"] = worker_peak
    report.peak_memory_per_phase["compile_aggregate_estimate"] = worker_peak * workers

    report.final_layout = layouts[-1]
    report.gates_parallel = gates
    report.swaps_parallel = circuit.kinds.count(SWAP_CODE) + sum(routing_swaps) + sum(permutation_swaps)
    report.phase_times["concatenate"] = time.perf_counter() - arrived
    report.peak_memory_per_phase["concatenate"] = peak_rss_bytes()

    report.chunk_gates = tuple(end - start for start, end in bounds)
    report.chunk_routing_swaps = routing_swaps
    report.chunk_permutation_swaps = permutation_swaps
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
    circuit: Circuit,
    read_time: float,
    cmap: CouplingMap,
    n_sc: int,
    out,
    router: str = "basic",
    lookahead_window: int = 20,
) -> CompileReport:
    """Run the parallel and monolithic compilations under identical conditions.

    The caller reads and parses the input once and passes the circuit with
    the seconds that read took; both wall-time windows are charged that read
    and run on through compile, write and flush, so each covers read ->
    write. The parallel output goes to `out`, a file stream such as
    atomic_output gives. The monolithic side is the same compile with one
    chunk, and each side's quality metrics come with its report, from the
    frontier scan inside its window. Its output goes to a temporary file in
    the directory of out's file, so it is written to the same filesystem,
    and that file is removed whether the run succeeds or fails.
    """
    t0 = time.perf_counter()
    report = compile_parallel(circuit, cmap, n_sc, out, router, lookahead_window)
    out.flush()
    report.wall_time_parallel = read_time + time.perf_counter() - t0

    out_dir = os.path.dirname(os.path.abspath(out.name))
    with tempfile.NamedTemporaryFile("w", encoding="utf-8", dir=out_dir, suffix=".mono.qasm") as mono_file:
        t0 = time.perf_counter()
        mono = compile_parallel(circuit, cmap, 1, mono_file, router, lookahead_window)
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
