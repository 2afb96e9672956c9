"""
parqc benchmark: seeded compile workloads driven through parqc's CLI entry
point, one operation at a time from one process (a closed loop with a single
client). A compile uses parqc's default worker count.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run sets up its inputs in a fresh process, measures the peak RSS of one
compile in a fresh process, then compiles and verifies the workload's cells
in whole passes until S seconds have gone, repeating the set-up in fresh
processes at even intervals of that time. Outputs are checked afterwards:
every compile of a cell must write the same bytes, and that output must pass
the structural equivalence check (equivalence.py), parqc's NNA check and,
for cells of at most 14 qubits, `parqc verify` with fidelity >= 1 - 1e-9.

With --trace 1, every other pass runs with the layer tracer installed; the
per-layer figures come from those passes and the tracing overhead is the
traced minus the untraced median compile time. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics (end-to-end metrics with --trace 0, per-layer metrics with
--trace 1). The lines before it print the same figures as a table, stamped
with the machine, versions and commit. The run's record, and with --trace 1
a Chrome Trace Event file, are written to .bench_work/ in the checkout.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import multiprocessing
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import parqc.cli  # noqa: E402
from parqc.circuit import read_qasm  # noqa: E402
from parqc.topology import build_grid, build_linear  # noqa: E402
from parqc.verifier import check_nna  # noqa: E402

import equivalence  # noqa: E402
from tracer import Tracer, chrome_events, compile_layers, verify_layers  # noqa: E402
from workloads import WORKLOADS, Cell, write_cells  # noqa: E402

SETUP_REPEATS = 9
FIDELITY_TOL = 1e-9
CHILD_TIMEOUT_S = 150
TAIL_MIN_SAMPLES = 100  # from here on at least ten samples lie above the 90th percentile

PER_LAYER = (
    "circuit.read_qasm_s", "circuit.parse_out_s", "circuit.write_qasm_s", "circuit.compute_metrics_s",
    "circuit.format_s", "circuit.format_calls", "densitygen.generate_s",
    "topology.astar_s", "topology.astar_calls",
    "router.route_s", "router.inserted_swaps", "router.swaps_per_2q",
    "permuter.build_s", "permuter.append_s", "permuter.swaps",
    "pipeline.compile_phase_s", "pipeline.concatenate_s", "pipeline.chunk_max_s",
    "pipeline.worker_busy_frac", "pipeline.pool_overhead_s", "pipeline.result_bytes",
    "verifier.simulate_s", "verifier.simulate_calls", "verifier.check_nna_s",
    "cli.other_s", "trace.overhead_s",
)


def unit(name: str) -> str:
    for suffix, u in (("_s", "s"), ("_mb", "MB"), ("_frac", "fraction"), ("_bytes", "B"), ("_per_2q", "ratio")):
        if name.endswith(suffix):
            return u
    return "count"


def tail(times: list[float]) -> float:
    """The 90th percentile of compile time when at least ten samples lie above
    it; in shorter runs, the slowest compile.

    The tail is printed and recorded but not gated. On a shared 2-CPU host,
    the sample with ten above it moved by a third between runs of one build,
    and even the 90th percentile spread 22-37% (quartile distance over median,
    ten runs of small-batch), more than the largest bound a metric may have.
    """
    if len(times) < TAIL_MIN_SAMPLES:
        return max(times)
    return statistics.quantiles(times, n=10)[-1]


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout read from .git, without walking above the checkout."""
    git = root / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def stamp() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "start_method": multiprocessing.get_start_method(),
        "git_commit": git_commit(ROOT),
        "parqc_max_workers_env": os.environ.get(parqc.pipeline.MAX_WORKERS_ENV),
        "machine": platform.machine(),
    }


def child_json(*args) -> dict:
    """Run a benchmark script in a fresh interpreter and parse its last line."""
    proc = subprocess.run([sys.executable, *map(str, args)], cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


class Runner:
    """Issues CLI operations and counts them; every failure is recorded."""

    def __init__(self, inputs: Path, outputs: Path):
        self.inputs = inputs
        self.outputs = outputs
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.good: dict[str, int] = {}  # cell -> compiles that wrote the reference output
        self.digests: dict[str, str] = {}  # cell -> sha256 of its reference output
        self.tracer: Tracer | None = None

    def fail(self, ops: int, message: str) -> None:
        self.failed += ops
        self.failures.append(message)
        print(f"FAILED ({ops} op(s)): {message}", file=sys.stderr)

    def paths(self, cell: Cell) -> tuple[Path, Path, Path]:
        return (self.inputs / f"{cell.name}.qasm", self.outputs / f"{cell.name}.qasm",
                self.outputs / f"{cell.name}.report.json")

    def _cli(self, argv: list[str]) -> tuple[int | None, str, float]:
        self.attempted += 1
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = parqc.cli.main(argv)
        except Exception:  # a crash is one failed operation; the run goes on
            traceback.print_exc()
            code = None
        t1 = time.perf_counter()
        if self.tracer is not None and self.tracer.active:
            self.tracer.record(f"cli.{argv[0]}", t0, t1)
        return code, buf.getvalue(), t1 - t0

    def peak_rss_mb(self, cell: Cell) -> float:
        """Compile once in a fresh process; its output becomes the reference."""
        src, out, report = self.paths(cell)
        self.attempted += 1
        result = child_json(BENCH / "peak_rss.py", *cell.compile_argv(str(src), str(out), str(report)))
        if result["exit"] != 0:
            self.fail(1, f"{cell.name}: fresh-process compile exited with {result['exit']}")
        else:
            self.digests[cell.name] = hashlib.sha256(out.read_bytes()).hexdigest()
            self.good[cell.name] = 1
        return result["peak_rss_kib"] * 1024 / 1e6

    def compile(self, cell: Cell) -> float | None:
        src, out, report = self.paths(cell)
        code, _, wall = self._cli(cell.compile_argv(str(src), str(out), str(report)))
        if code != 0:
            self.fail(1, f"{cell.name}: compile exited with {code}")
            return None
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        if self.digests.setdefault(cell.name, digest) != digest:
            self.fail(1, f"{cell.name}: output differs from this input's first compile")
            return None
        self.good[cell.name] = self.good.get(cell.name, 0) + 1
        return wall

    def verify(self, cell: Cell) -> float | None:
        src, out, _ = self.paths(cell)
        code, stdout, wall = self._cli(["verify", str(src), str(out), "--topology", cell.topology])
        if code != 0:
            self.fail(1, f"{cell.name}: verify exited with {code}")
            return None
        result = json.loads(stdout.splitlines()[-1])
        if result["violations"] or result["fidelity"] < 1 - FIDELITY_TOL:
            self.fail(1, f"{cell.name}: verify found fidelity {result['fidelity']}, "
                         f"{len(result['violations'])} NNA violation(s)")
            return None
        return wall

    def check(self, cell: Cell, original: equivalence.Program) -> equivalence.Program | None:
        """Full check of the cell's reference output; a bad output fails every
        compile that wrote it."""
        if cell.name not in self.digests:
            return None
        _, out, _ = self.paths(cell)
        try:
            compiled = equivalence.read_program(out.read_text())
        except ValueError as exc:
            problem, compiled = f"unreadable output: {exc}", None
        else:
            problem = equivalence.check_equivalent(original, compiled)
        if problem is None:
            cmap = (build_grid if cell.topology == "grid" else build_linear)(original.width)
            violations = check_nna(read_qasm(out), cmap)
            if violations:
                problem = f"{len(violations)} NNA violation(s), first {violations[0]}"
        if problem is not None:
            self.fail(self.good.get(cell.name, 0), f"{cell.name}: {problem}")
        return compiled


def run_workload(cells: list[Cell], seconds: float, trace: bool, workdir: Path) -> dict:
    """Set up, measure and check one workload; returns the run's record."""
    shutil.rmtree(workdir, ignore_errors=True)
    inputs, outputs, span_dir = workdir / "inputs", workdir / "out", workdir / "spans"
    spare_inputs = workdir / "setup"  # where the repeated set-ups write
    for d in (inputs, outputs, span_dir, spare_inputs):
        d.mkdir(parents=True)
    write_cells(cells, workdir / "cells.json")
    setups = [child_json(BENCH / "workloads.py", workdir / "cells.json", inputs)]
    originals = {c.name: equivalence.read_program((inputs / f"{c.name}.qasm").read_text()) for c in cells}

    runner = Runner(inputs, outputs)
    compile_cells = [c for c in cells if c.role in ("compile", "both")]
    verify_cells = [c for c in cells if c.role in ("verify", "both")]
    largest = max(compile_cells, key=lambda c: len(originals[c.name].gates))
    peak_rss_mb = runner.peak_rss_mb(largest)
    for cell in cells:
        if cell.role == "verify":  # companions: compiled once, verified in the loop
            runner.compile(cell)

    tracer = Tracer(span_dir) if trace else None
    runner.tracer = tracer
    times = {"compile": [], "verify": [], "traced_compile": [], "traced_verify": []}
    layers = {"compile": [], "verify": []}
    traced_spans, traced_chunks = [], []

    def measure(kind: str, cell: Cell, traced: bool) -> None:
        op = runner.compile if kind == "compile" else runner.verify
        if not traced:
            wall = op(cell)
            if wall is not None:
                times[kind].append(wall)
            return
        tracer.op += 1
        tracer.install()
        try:
            wall = op(cell)
        finally:
            tracer.uninstall()
        spans, chunks, workers = tracer.take()
        if wall is None:
            return
        times["traced_" + kind].append(wall)
        traced_spans.extend(spans)
        traced_chunks.extend(chunks)
        if kind == "compile":
            report = json.loads(runner.paths(cell)[2].read_text())
            layers[kind].append(compile_layers(spans, chunks, workers, report["phase_times"], wall,
                                               equivalence.two_qubit_count(originals[cell.name])))
        else:
            layers[kind].append(verify_layers(spans))

    # The other set-ups are spread over the measuring window, so that their
    # median samples the host over the whole run rather than over a few
    # seconds. Their time does not count towards the window.
    setup_spent = 0.0

    def setup_again() -> None:
        nonlocal setup_spent
        t0 = time.perf_counter()
        setups.append(child_json(BENCH / "workloads.py", workdir / "cells.json", spare_inputs))
        setup_spent += time.perf_counter() - t0

    start = time.perf_counter()
    passes = 0
    while passes < (2 if trace else 1) or time.perf_counter() - start - setup_spent < seconds:
        traced = trace and passes % 2 == 1  # a traced run alternates untraced and traced passes
        ops = [("compile", c) for c in compile_cells] + [("verify", c) for c in verify_cells]
        for kind, cell in ops:
            measure(kind, cell, traced)
            measured = time.perf_counter() - start - setup_spent
            if len(setups) < SETUP_REPEATS and measured >= len(setups) * seconds / SETUP_REPEATS:
                setup_again()
        passes += 1
    while len(setups) < SETUP_REPEATS:
        setup_again()

    swaps_out = depth_out = 0
    for cell in cells:
        compiled = runner.check(cell, originals[cell.name])
        if compiled is not None:
            swaps_out += equivalence.swap_count(compiled)
            depth_out += equivalence.depth(compiled)

    end_to_end = {
        "setup_s": median(s["setup_s"] for s in setups),
        "compile_s": median(times["compile"]),
        "verify_s": median(times["verify"]),
        "peak_rss_mb": peak_rss_mb,
        "swaps_out": swaps_out,
        "depth_out": depth_out,
    }
    machine = stamp()
    per_layer = None
    if trace:
        per_layer = {name: 0.0 for name in PER_LAYER}
        for group in layers.values():
            for name in group[0] if group else ():
                per_layer[name] = median(op[name] for op in group)
        per_layer["densitygen.generate_s"] = median(s["generate_s"] for s in setups)
        per_layer["trace.overhead_s"] = median(times["traced_compile"]) - median(times["compile"])
        events = chrome_events(traced_spans, traced_chunks, tracer.pid, start)
        (workdir / "trace.json").write_text(json.dumps(
            {"traceEvents": events, "displayTimeUnit": "ms", "otherData": machine}))

    for d in (inputs, outputs, span_dir, spare_inputs):
        shutil.rmtree(d)
    record = {
        "stamp": machine,
        "cells": len(cells),
        "passes": passes,
        "compiles_timed": len(times["compile"]),
        "verifies_timed": len(times["verify"]),
        # printed, not gated; see tail()
        "compile_tail_s": tail(times["compile"]) if times["compile"] else 0.0,
        "compile_tail_rule": "p90" if len(times["compile"]) >= TAIL_MIN_SAMPLES else "max",
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failed_frac": runner.failed / runner.attempted,
        "failures": runner.failures,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "traced_compile_s": median(times["traced_compile"]) if trace else None,
        "times": times,
    }
    (workdir / "record.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = run_workload(WORKLOADS[args.workload](args.seed), args.seconds, bool(args.trace), workdir)

    s = record["stamp"]
    print(f"# parqc benchmark  workload={args.workload} seed={args.seed} trace={args.trace}  "
          f"nproc={s['nproc']} python={s['python']} numpy={s['numpy']} "
          f"start_method={s['start_method']} commit={s['git_commit'] or 'unknown'}")
    print(f"# {record['compiles_timed']} timed compiles, {record['verifies_timed']} timed verifies, "
          f"{record['passes']} passes; compile_tail_s rule: {record['compile_tail_rule']}; "
          f"record: {workdir / 'record.json'}")
    metrics = record["per_layer"] if args.trace else record["end_to_end"]
    table = dict(metrics)
    if not args.trace:
        table["compile_tail_s"] = record["compile_tail_s"]
        table["failed_frac"] = record["failed_frac"]
    else:
        print(f"# tracing overhead: traced {record['traced_compile_s']:.6g} s - untraced "
              f"{record['end_to_end']['compile_s']:.6g} s per compile; trace: {workdir / 'trace.json'}")
    for name, value in table.items():
        print(f"{name:<28} {value:>16.8g} {unit(name)}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
