"""
Per-layer tracing of parqc from outside the package.

The tracer replaces the public functions each layer exports, as seen by the
module that imports them, with timing wrappers (setattr on the importing
module; nothing in parqc changes). Pool workers are forked while the wrappers
are installed, so they inherit them; each worker writes its spans to a file
when it exits, and the benchmark collects the files after the compile.

Work inside a chunk is keyed by the chunk's circuit name, `chunk{idx}`: a
chunk starts when `route` is called on it and ends with the last traced call
of that chunk in the same process. Functions called once per gate (QASM
formatting, A* queries) are summed per chunk as a call count and a total time
instead of one span per call. A span's self time is its duration minus the
traced calls nested inside it.
"""
from __future__ import annotations

import json
import multiprocessing.util
import os
import time
from pathlib import Path

import parqc.cli
import parqc.permuter
import parqc.pipeline
import parqc.router
import parqc.verifier

# (importing module, attribute, span name, kind). kind: "span" is one span per
# call; "chunk-begin" also opens a new chunk; "chunk" is a span inside the
# current chunk; "sum" and "sum-bytes" aggregate per chunk (the latter also
# counts the characters returned, plus the newline the pipeline appends).
WRAPS = (
    (parqc.cli, "read_qasm", "circuit.read_qasm", "span"),
    (parqc.cli, "write_qasm", "circuit.write_qasm", "span"),
    (parqc.cli, "compute_metrics", "circuit.compute_metrics", "span"),
    (parqc.cli, "compile_parallel", "pipeline.compile_parallel", "span"),
    (parqc.cli, "check_nna", "verifier.check_nna", "span"),
    (parqc.cli, "fidelity_under_layout", "verifier.fidelity", "span"),
    (parqc.verifier, "simulate", "verifier.simulate", "span"),
    (parqc.pipeline, "parse_qasm", "circuit.parse_out", "span"),
    (parqc.pipeline, "route", "router.route", "chunk-begin"),
    (parqc.pipeline, "build_permutation", "permuter.build", "chunk"),
    (parqc.pipeline, "append_permutation", "permuter.append", "chunk"),
    (parqc.pipeline, "format_instruction", "circuit.format", "sum-bytes"),
    (parqc.router, "astar_path", "topology.astar", "sum"),
    (parqc.permuter, "astar_path", "topology.astar", "sum"),
)

RESULT_ARGS = {
    "router.route": lambda r: {"inserted_swaps": r.inserted_swaps},
    "permuter.build": lambda r: {"swaps": len(r.swap_list)},
}


class Tracer:
    def __init__(self, span_dir: Path):
        self.span_dir = span_dir
        self.pid = os.getpid()
        self.op = 0  # id of the operation in flight; forked workers inherit it
        self.active = False
        self._originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in WRAPS]
        self._wrappers = [
            (mod, attr, self._wrap(getattr(mod, attr), name, kind)) for mod, attr, name, kind in WRAPS
        ]
        self._reset()
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def _reset(self):
        self.spans = []
        self.chunks = []
        self._stack = []
        self._chunk = {"agg": {}}  # calls outside any chunk land here and are dropped

    def install(self):
        for mod, attr, wrapper in self._wrappers:
            setattr(mod, attr, wrapper)
        self.active = True

    def uninstall(self):
        for mod, attr, original in self._originals:
            setattr(mod, attr, original)
        self.active = False

    def _after_fork(self):
        if self.active:
            self._reset()
            multiprocessing.util.Finalize(self, self._dump, exitpriority=10)

    def _dump(self):
        data = {"spans": self.spans, "chunks": self.chunks}
        (self.span_dir / f"spans-{os.getpid()}.json").write_text(json.dumps(data))

    def record(self, name: str, start: float, end: float) -> None:
        """A span measured by the benchmark itself, such as a whole CLI call."""
        self.spans.append({"name": name, "pid": self.pid, "op": self.op, "chunk": None,
                           "start": start, "end": end, "child": 0.0})

    def take(self) -> tuple[list, list, int]:
        """Spans and chunks recorded since the last take, from this process and
        from every worker that has exited since, plus the number of workers."""
        spans, chunks = self.spans, self.chunks
        self._reset()
        workers = 0
        for path in sorted(self.span_dir.glob("spans-*.json")):
            data = json.loads(path.read_text())
            path.unlink()
            spans += data["spans"]
            chunks += data["chunks"]
            workers += 1
        return spans, chunks, workers

    def _wrap(self, fn, name, kind):
        perf = time.perf_counter

        if kind in ("sum", "sum-bytes"):
            count_bytes = kind == "sum-bytes"

            def aggregate(*args, **kwargs):
                t0 = perf()
                result = fn(*args, **kwargs)
                t1 = perf()
                chunk = self._chunk
                entry = chunk["agg"].get(name)
                if entry is None:
                    entry = chunk["agg"][name] = [0, 0.0, 0]
                entry[0] += 1
                entry[1] += t1 - t0
                if count_bytes:
                    entry[2] += len(result) + 1
                chunk["end"] = t1
                if self._stack:
                    self._stack[-1]["child"] += t1 - t0
                return result

            return aggregate

        info = RESULT_ARGS.get(name)

        def span(*args, **kwargs):
            if kind == "chunk-begin":
                self._chunk = {"chunk": args[0].name, "pid": os.getpid(), "op": self.op,
                               "start": perf(), "end": None, "agg": {}}
                self.chunks.append(self._chunk)
            rec = {"name": name, "pid": os.getpid(), "op": self.op,
                   "chunk": self._chunk.get("chunk") if kind != "span" else None,
                   "start": perf(), "child": 0.0}
            self._stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = perf()
                self._stack.pop()
                if self._stack:
                    self._stack[-1]["child"] += rec["end"] - rec["start"]
                self.spans.append(rec)
            if kind != "span":
                self._chunk["end"] = rec["end"]
            if info is not None:
                rec["args"] = info(result)
            return result

        return span


def _dur(s) -> float:
    return s["end"] - s["start"]


def compile_layers(spans, chunks, workers, phase_times, wall, input_2q) -> dict:
    """Per-layer metrics of one traced compile.

    Every time here is either a parent-side step that blocks the compile or
    work nested inside the compile phase, so cli.other_s, the wall time left
    after the parent-side steps, cannot be negative.
    """

    def total(name):
        return sum(_dur(s) for s in spans if s["name"] == name)

    def self_time(name):
        return sum(_dur(s) - s["child"] for s in spans if s["name"] == name)

    def arg(name, key):
        return sum(s["args"][key] for s in spans if s["name"] == name)

    def agg(name, i):
        return sum(c["agg"].get(name, (0, 0.0, 0))[i] for c in chunks)

    work = [c["end"] - c["start"] for c in chunks]
    per_process = {}
    for c, w in zip(chunks, work):
        per_process[c["pid"]] = per_process.get(c["pid"], 0.0) + w
    phase = phase_times["compile"]
    parent_steps = {
        "circuit.read_qasm_s": total("circuit.read_qasm"),
        "circuit.parse_out_s": total("circuit.parse_out"),
        "circuit.write_qasm_s": total("circuit.write_qasm"),
        "circuit.compute_metrics_s": total("circuit.compute_metrics"),
        "pipeline.compile_phase_s": phase,
        "pipeline.concatenate_s": phase_times["concatenate"],
    }
    inserted = arg("router.route", "inserted_swaps")
    return {
        **parent_steps,
        "circuit.format_s": agg("circuit.format", 1),
        "circuit.format_calls": agg("circuit.format", 0),
        "topology.astar_s": agg("topology.astar", 1),
        "topology.astar_calls": agg("topology.astar", 0),
        "router.route_s": self_time("router.route"),
        "router.inserted_swaps": inserted,
        "router.swaps_per_2q": inserted / input_2q if input_2q else 0.0,
        "permuter.build_s": self_time("permuter.build"),
        "permuter.append_s": total("permuter.append"),
        "permuter.swaps": arg("permuter.build", "swaps"),
        "pipeline.chunk_max_s": max(work, default=0.0),
        "pipeline.worker_busy_frac": sum(work) / (max(workers, 1) * phase),
        "pipeline.pool_overhead_s": phase - max(per_process.values(), default=0.0),
        "pipeline.result_bytes": agg("circuit.format", 2),
        "cli.other_s": wall - sum(parent_steps.values()) - phase_times.get("decompose", 0.0),
    }


def verify_layers(spans) -> dict:
    sims = [s for s in spans if s["name"] == "verifier.simulate"]
    return {
        "verifier.simulate_s": sum(_dur(s) for s in sims),
        "verifier.simulate_calls": len(sims),
        "verifier.check_nna_s": sum(_dur(s) for s in spans if s["name"] == "verifier.check_nna"),
    }


def chrome_events(spans, chunks, parent_pid: int, base: float) -> list[dict]:
    """Chrome Trace Event records (complete events, microseconds)."""

    def event(name, cat, start, end, pid, args):
        return {"name": name, "cat": cat, "ph": "X", "ts": (start - base) * 1e6,
                "dur": (end - start) * 1e6, "pid": pid, "tid": pid, "args": args}

    events = [
        event(s["name"], s["name"].split(".")[0], s["start"], s["end"], s["pid"],
              {"op": s["op"], "chunk": s["chunk"], **s.get("args", {})})
        for s in spans
    ]
    for c in chunks:
        sums = {name: {"calls": e[0], "total_s": e[1], **({"bytes": e[2]} if e[2] else {})}
                for name, e in c["agg"].items()}
        events.append(event(c["chunk"], "pipeline", c["start"], c["end"], c["pid"], {"op": c["op"], **sums}))
    for pid in sorted({e["pid"] for e in events}):
        label = "benchmark (parqc parent)" if pid == parent_pid else "parqc worker"
        events.append({"name": "process_name", "ph": "M", "pid": pid, "tid": pid, "args": {"name": label}})
    return events
