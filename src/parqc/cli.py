"""
Command-line surface: gen, compile, verify, stats, sweep.

Exit codes: 0 ok, 1 validation/generic, 2 QASM parse, 3 topology, 4 routing,
5 I/O. Set PARQC_MAX_WORKERS to cap concurrent worker processes without
changing the sub-circuit count.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from .circuit import (
    QasmError,
    compute_metrics,
    read_final_layout_comment,
    read_qasm,
    write_qasm,
)
from .densitygen import DensityError, DensitySpec, generate_with_density
from .permuter import PermuterError
from .pipeline import PipelineError, compile_parallel, profile_run
from .router import Layout, RouteError
from .topology import TopologyError, build_grid, build_linear, load_coupling_map
from .verifier import check_nna, fidelity_under_layout

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARSE = 2
EXIT_TOPOLOGY = 3
EXIT_ROUTE = 4
EXIT_IO = 5

SWEEP_COLUMNS = [
    "width",
    "depth",
    "density",
    "seed",
    "n_sc",
    "router",
    "topology",
    "status",
    "error",
    "t_seq",
    "t_par",
    "speedup",
    "gates_mono",
    "gates_par",
    "swaps_mono",
    "swaps_par",
    "depth_mono",
    "depth_par",
    "overhead_gate",
    "overhead_swap",
    "overhead_depth",
    "mem_worker_peak_bytes",
    "mem_aggregate_bytes",
]


def _build_topology(kind: str, width: int):
    if kind == "grid":
        return build_grid(width)
    if kind == "linear":
        return build_linear(width)
    if kind.startswith("custom:"):
        return load_coupling_map(kind.split(":", 1)[1])
    raise TopologyError(f"unknown topology {kind!r} (grid | linear | custom:FILE)")


def cmd_gen(args) -> int:
    spec = DensitySpec(
        width=args.width,
        depth=args.depth,
        density=args.density,
        seed=args.seed,
        two_qubit_fraction=args.two_qubit_fraction,
    )
    circuit = generate_with_density(spec)
    write_qasm(circuit, args.output)
    metrics = compute_metrics(circuit)
    entry = {
        "width": spec.width,
        "depth": spec.depth,
        "density": spec.density,
        "seed": spec.seed,
        "two_qubit_fraction": spec.two_qubit_fraction,
        "achieved_density": metrics.density,
        "achieved_depth": metrics.depth,
        "n_q1": metrics.n_q1,
        "n_q2": metrics.n_q2,
        "n_gates": metrics.n_gates,
        "qasm": os.fspath(args.output),
    }
    if args.manifest:
        with open(args.manifest, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
    print(json.dumps(entry, sort_keys=True))
    return EXIT_OK


def cmd_compile(args) -> int:
    circuit = read_qasm(args.input)
    cmap = _build_topology(args.topology, circuit.width)
    if args.output is None:
        root, _ = os.path.splitext(args.input)
        args.output = root + f".compiled-{args.router}-n{args.n_sc}.qasm"
    if args.profile:
        report = profile_run(
            args.input,
            cmap,
            args.n_sc,
            router=args.router,
            output_path=args.output,
            lookahead_window=args.lookahead_window,
            parallel=not args.no_parallel,
        )
    else:
        compiled, report = compile_parallel(
            circuit,
            cmap,
            args.n_sc,
            router=args.router,
            lookahead_window=args.lookahead_window,
            parallel=not args.no_parallel,
        )
        write_qasm(compiled, args.output, final_layout=report.final_layout)
        metrics = compute_metrics(compiled)
        report.gates_parallel = metrics.n_gates
        report.swaps_parallel = metrics.swap_count
        report.depth_parallel = metrics.depth
    report_path = args.report or args.output + ".report.json"
    report.write(report_path)
    print(f"compiled {args.input} -> {args.output} (report: {report_path})")
    return EXIT_OK


def cmd_verify(args) -> int:
    original = read_qasm(args.original)
    compiled = read_qasm(args.compiled)
    if args.layout:
        layout = Layout(json.loads(args.layout))
    else:
        comment = read_final_layout_comment(args.compiled)
        layout = Layout(comment) if comment else Layout.trivial(compiled.width)
    cmap = _build_topology(args.topology, compiled.width)
    violations = check_nna(compiled, cmap)
    fidelity = fidelity_under_layout(original, compiled, layout)
    out = {
        "fidelity": fidelity,
        "violations": [
            {"index": v.index, "kind": v.kind, "qubits": list(v.qubits)} for v in violations
        ],
    }
    print(json.dumps(out, sort_keys=True))
    return EXIT_OK


def cmd_stats(args) -> int:
    circuit = read_qasm(args.input)
    m = compute_metrics(circuit)
    out = {
        "width": m.width,
        "depth": m.depth,
        "n_q1": m.n_q1,
        "n_q2": m.n_q2,
        "swap_count": m.swap_count,
        "n_gates": m.n_gates,
        "density": m.density,
        "instructions": len(circuit.instructions),
    }
    print(json.dumps(out, sort_keys=True))
    return EXIT_OK


def _expand_axis(value) -> list:
    """A sweep axis is either an explicit list or {"start","stop","step"} (stop inclusive)."""
    if isinstance(value, list):
        return value
    if isinstance(value, dict):
        return list(range(value["start"], value["stop"] + 1, value["step"]))
    return [value]


def load_sweep_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    for key in ("widths", "depths", "densities", "n_sc"):
        if key not in cfg:
            raise ValueError(f"sweep config missing {key!r}")
        cfg[key] = _expand_axis(cfg[key])
        if not cfg[key]:
            raise ValueError(f"sweep axis {key!r} is empty")
    cfg.setdefault("router", "basic")
    cfg.setdefault("topology", "grid")
    cfg.setdefault("seed_base", 0)
    cfg.setdefault("two_qubit_fraction", 0.5)
    cfg.setdefault("output_dir", os.path.dirname(os.path.abspath(path)) or ".")
    min_width = min(cfg["widths"])
    for d in cfg["densities"]:
        if not 1.0 / min_width <= d <= 1.0:
            raise ValueError(f"density {d} outside [1/{min_width}, 1]")
    return cfg


def sweep_cells(cfg: dict):
    """Deterministic cell enumeration; the circuit seed depends only on the
    (width, depth, density) index so every n_sc row reuses the same circuit."""
    circuit_index = 0
    for width in cfg["widths"]:
        for depth in cfg["depths"]:
            for density in cfg["densities"]:
                seed = cfg["seed_base"] + circuit_index
                circuit_index += 1
                for n_sc in cfg["n_sc"]:
                    yield {
                        "width": width,
                        "depth": depth,
                        "density": density,
                        "seed": seed,
                        "n_sc": n_sc,
                        "router": cfg["router"],
                        "topology": cfg["topology"],
                    }


def _row_key(row: dict) -> tuple:
    return (
        str(row["width"]),
        str(row["depth"]),
        str(row["density"]),
        str(row["seed"]),
        str(row["n_sc"]),
        row["router"],
        row["topology"],
    )


def _run_sweep_cell(cell: dict, cfg: dict) -> dict:
    row = dict(cell)
    circuits_dir = os.path.join(cfg["output_dir"], "circuits")
    compiled_dir = os.path.join(cfg["output_dir"], "compiled")
    os.makedirs(circuits_dir, exist_ok=True)
    os.makedirs(compiled_dir, exist_ok=True)
    qasm = os.path.join(
        circuits_dir,
        f"w{cell['width']}_d{cell['depth']}_p{cell['density']:g}_s{cell['seed']}.qasm",
    )
    if not os.path.exists(qasm):
        spec = DensitySpec(
            width=cell["width"],
            depth=cell["depth"],
            density=cell["density"],
            seed=cell["seed"],
            two_qubit_fraction=cfg["two_qubit_fraction"],
        )
        write_qasm(generate_with_density(spec), qasm)
    cmap = _build_topology(cell["topology"], cell["width"])
    out = os.path.join(
        compiled_dir,
        os.path.splitext(os.path.basename(qasm))[0] + f"_{cell['router']}_n{cell['n_sc']}.qasm",
    )
    report = profile_run(qasm, cmap, cell["n_sc"], router=cell["router"], output_path=out)
    row.update(
        status="ok",
        error="",
        t_seq=report.wall_time_sequential,
        t_par=report.wall_time_parallel,
        speedup=report.speedup,
        gates_mono=report.gates_monolithic,
        gates_par=report.gates_parallel,
        swaps_mono=report.swaps_monolithic,
        swaps_par=report.swaps_parallel,
        depth_mono=report.depth_monolithic,
        depth_par=report.depth_parallel,
        overhead_gate=report.overhead_gate,
        overhead_swap=report.overhead_swap,
        overhead_depth=report.overhead_depth,
        mem_worker_peak_bytes=report.peak_memory_per_phase.get("compile_worker_peak"),
        mem_aggregate_bytes=report.peak_memory_per_phase.get("compile_aggregate_estimate"),
    )
    return row


def cmd_sweep(args) -> int:
    cfg = load_sweep_config(args.config)
    os.makedirs(cfg["output_dir"], exist_ok=True)
    csv_path = args.output or os.path.join(cfg["output_dir"], "sweep.csv")

    done: set[tuple] = set()
    if os.path.exists(csv_path):
        with open(csv_path, newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                if row.get("status") == "ok":
                    done.add(_row_key(row))
    new_file = not os.path.exists(csv_path)

    cells = [c for c in sweep_cells(cfg) if _row_key(c) not in done]
    with open(csv_path, "a", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS, restval="")
        if new_file:
            writer.writeheader()
        for cell in cells:
            try:
                row = _run_sweep_cell(cell, cfg)
            except Exception as exc:  # record and continue with remaining cells
                row = dict(cell)
                row.update(status="error", error=f"{type(exc).__name__}: {exc}")
            writer.writerow(row)
            fh.flush()
    print(f"sweep complete: {csv_path} ({len(cells)} new cells)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parqc",
        description="Generate density-controlled random circuits and compile "
        "them for nearest-neighbor processors, in parallel.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random circuit with exact density")
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--density", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--two-qubit-fraction", type=float, default=0.5)
    p.add_argument("--output", "-o", required=True)
    p.add_argument("--manifest", help="append a JSON line per generated circuit")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("compile", help="route a QASM circuit for a processor topology")
    p.add_argument("input")
    p.add_argument("--topology", default="grid", help="grid | linear | custom:FILE")
    p.add_argument("--router", choices=["basic", "lookahead"], default="basic")
    p.add_argument("--n-sc", type=int, default=1, help="sub-circuit / worker count")
    p.add_argument("--lookahead-window", type=int, default=20)
    p.add_argument("--output", "-o")
    p.add_argument("--report", help="report JSON path (default: OUTPUT.report.json)")
    p.add_argument("--profile", action="store_true", help="also time the monolithic baseline")
    p.add_argument("--no-parallel", action="store_true", help="run chunks in-process")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("verify", help="fidelity + NNA compliance of a compiled circuit")
    p.add_argument("original")
    p.add_argument("compiled")
    p.add_argument("--topology", default="grid")
    p.add_argument("--layout", help="JSON list phys->logical; default: trailing comment")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("stats", help="print circuit metrics as JSON")
    p.add_argument("input")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("sweep", help="run a benchmark grid and emit a CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--output", help="CSV path (default: OUTPUT_DIR/sweep.csv)")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except QasmError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except TopologyError as exc:
        print(f"topology error: {exc}", file=sys.stderr)
        return EXIT_TOPOLOGY
    except (RouteError, PermuterError, PipelineError) as exc:
        print(f"routing error: {exc}", file=sys.stderr)
        return EXIT_ROUTE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (DensityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
