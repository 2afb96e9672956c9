"""
Command-line surface: gen, compile, verify, stats, sweep.

Exit codes: 0 ok, 1 bad command line or validation/generic, 2 QASM parse,
3 topology, 4 routing, 5 I/O. Set PARQC_MAX_WORKERS to a positive integer to
set the number of worker processes (at most the sub-circuit count, which it
leaves unchanged); unset, a pool is started only for circuits with enough
routing work (pipeline.POOL_WORK_THRESHOLD).
"""
from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import os
import sys
import time
from dataclasses import asdict, fields

from .circuit import (
    QasmError,
    compute_metrics,
    parse_final_layout_comment,
    parse_qasm,
    read_qasm,
    write_qasm,
)
from .densitygen import DensitySpec, generate_with_density
from .pipeline import CompileReport, PipelineError, atomic_output, compile_parallel, profile_run
from .router import RouteError
from .topology import TopologyError, build_grid, build_linear, load_coupling_map
from .verifier import check_nna, fidelity_under_layout

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARSE = 2
EXIT_TOPOLOGY = 3
EXIT_ROUTE = 4
EXIT_IO = 5

ROUTERS = ("basic", "lookahead")
BUILT_IN_MAPS = ("grid", "linear")

# Every input of a sweep cell; the rest of a row is its CompileReport, field for field.
_CELL_COLUMNS = ("width", "depth", "density", "two_qubit_fraction", "seed", "n_sc", "router", "topology")
_NUMBER_COLUMNS = ("density", "two_qubit_fraction")  # the cell inputs that may be written 1 or 1.0
SWEEP_COLUMNS = [
    *_CELL_COLUMNS,
    "status",
    "error",
    *(f.name for f in fields(CompileReport) if f.name not in _CELL_COLUMNS),
]


@functools.lru_cache(maxsize=4)
def _built_in_map(kind: str, width: int):
    """A grid or linear map, kept for the last few (kind, width) asked for:
    a sweep, or a verify after a compile, asks for the same map again, and a
    map of n qubits holds an n x n hop table that takes milliseconds to build."""
    return build_grid(width) if kind == "grid" else build_linear(width)


def _build_topology(kind: str, width: int):
    """The map named by --topology, for a circuit of `width` qubits; a
    custom map narrower than the circuit is refused before any chunk runs."""
    if kind in BUILT_IN_MAPS:
        return _built_in_map(kind, width)
    if not kind.startswith("custom:"):
        raise TopologyError(f"unknown topology {kind!r} (grid | linear | custom:FILE)")
    path = kind.split(":", 1)[1]
    cmap = load_coupling_map(path)  # read every time: the file may have changed
    if cmap.n_phys < width:
        raise TopologyError(
            f"coupling map {path} has {cmap.n_phys} physical qubits, fewer than the circuit's {width}"
        )
    return cmap


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
        **asdict(spec),
        "achieved_density": metrics.density,
        "achieved_depth": metrics.depth,
        "n_q1": metrics.n_q1,
        "n_q2": metrics.n_q2,
        "n_gates": metrics.n_gates,
        "qasm": os.fspath(args.output),
    }
    print(json.dumps(entry, sort_keys=True))
    return EXIT_OK


def _read_timed(path):
    """The parsed input and the seconds its read took; profile_run charges
    that read to both of its file-to-file windows."""
    t0 = time.perf_counter()
    circuit = read_qasm(path)
    return circuit, time.perf_counter() - t0


def cmd_compile(args) -> int:
    circuit, read_time = _read_timed(args.input)
    cmap = _build_topology(args.topology, circuit.width)
    if args.output is None:
        root, _ = os.path.splitext(args.input)
        args.output = root + f".compiled-{args.router}-n{args.n_sc}.qasm"
    report_path = args.report or args.output + ".report.json"
    # Both files are opened before the compile, the output first: an unwritable
    # path fails before any work, naming the output when neither can be written,
    # and neither file is replaced unless the compile and the other file succeed.
    with atomic_output(args.output) as out, atomic_output(report_path) as report_out:
        if args.profile:
            report = profile_run(circuit, read_time, cmap, args.n_sc, out, args.router, args.lookahead_window)
        else:
            report = compile_parallel(circuit, cmap, args.n_sc, out, args.router, args.lookahead_window)
        report_out.write(report.to_json())
    print(f"compiled {args.input} -> {args.output} (report: {report_path})")
    return EXIT_OK


def _layout_option(raw: str) -> tuple[int, ...]:
    """--layout's JSON list of integers, physical -> logical. Whether it is a
    permutation of the compiled width is fidelity_under_layout's check."""
    try:
        layout = json.loads(raw)
    except ValueError:
        layout = None
    if not (isinstance(layout, list) and all(type(x) is int for x in layout)):
        raise ValueError(f"--layout must be a JSON list of integers, got {raw}")
    return tuple(layout)


def _window_option(raw: str) -> int:
    """--lookahead-window's value: an integer of at least 1, whatever the router."""
    try:
        window = int(raw)
    except ValueError:
        window = 0
    if window < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {raw!r}")
    return window


def cmd_verify(args) -> int:
    original = read_qasm(args.original)
    with open(args.compiled, "r", encoding="utf-8") as fh:
        text = fh.read()
    compiled = parse_qasm(text)
    if args.layout:
        layout = _layout_option(args.layout)
    else:
        layout = parse_final_layout_comment(text) or tuple(range(compiled.width))
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
    out = {**asdict(m), "n_gates": m.n_gates, "instructions": len(circuit)}
    print(json.dumps(out, sort_keys=True))
    return EXIT_OK


def _expand_axis(key: str, value) -> list:
    """A sweep axis is an explicit list, one value, or {"start","stop","step"}
    (stop inclusive). Densities are numbers, every other axis positive integers."""
    if isinstance(value, dict):
        try:
            value = list(range(value["start"], value["stop"] + 1, value["step"]))
        except (KeyError, TypeError, ValueError):
            raise ValueError(f"sweep axis {key!r} needs integer start, stop and step: {value}") from None
    values = value if isinstance(value, list) else [value]
    if not values:
        raise ValueError(f"sweep axis {key!r} is empty")
    if key == "densities":
        kind, ok = "numbers", lambda v: type(v) in (int, float)
    else:
        kind, ok = "positive integers", lambda v: type(v) is int and v >= 1
    for v in values:
        if not ok(v):
            raise ValueError(f"sweep axis {key!r} must hold {kind}, got {v!r}")
    return values


def load_sweep_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("sweep config must be a JSON object")
    for key in ("widths", "depths", "densities", "n_sc"):
        if key not in cfg:
            raise ValueError(f"sweep config missing {key!r}")
        cfg[key] = _expand_axis(key, cfg[key])
    cfg.setdefault("router", "basic")
    cfg.setdefault("topology", "grid")
    cfg.setdefault("seed_base", 0)
    cfg.setdefault("two_qubit_fraction", 0.5)
    checks = (
        ("seed_base", "a non-negative integer", lambda v: type(v) is int and v >= 0),
        ("router", " or ".join(ROUTERS), lambda v: v in ROUTERS),
        ("topology", " or ".join(BUILT_IN_MAPS), lambda v: v in BUILT_IN_MAPS),
        ("two_qubit_fraction", "a number in [0, 1]", lambda v: type(v) in (int, float) and 0 <= v <= 1),
    )
    for key, want, ok in checks:
        if not ok(cfg[key]):
            raise ValueError(f"sweep config key {key!r} must be {want}, got {cfg[key]!r}")
    cfg.setdefault("output_dir", os.path.dirname(os.path.abspath(path)) or ".")
    min_width = min(cfg["widths"])
    for d in cfg["densities"]:
        if not 1.0 / min_width <= d <= 1.0:
            raise ValueError(f"density {d} outside [1/{min_width}, 1]")
    return cfg


def sweep_cells(cfg: dict):
    """Deterministic cell enumeration; the circuit seed depends only on the
    (width, depth, density) index so every n_sc row reuses the same circuit."""
    circuits = itertools.product(cfg["widths"], cfg["depths"], cfg["densities"])
    for index, (width, depth, density) in enumerate(circuits):
        for n_sc in cfg["n_sc"]:
            cell = (
                width, depth, density, cfg["two_qubit_fraction"], cfg["seed_base"] + index,
                n_sc, cfg["router"], cfg["topology"],
            )
            yield dict(zip(_CELL_COLUMNS, cell))


def _row_key(row: dict) -> tuple:
    """A cell's identity, the same for its dict and its CSV row. The number
    columns compare as numbers, so 1 and 1.0 (or "1" and "1.0" in the CSV)
    are one cell, as they share one circuit file."""
    return tuple(float(row[key]) if key in _NUMBER_COLUMNS else str(row[key]) for key in _CELL_COLUMNS)


def _run_sweep_cell(cell: dict, cfg: dict) -> dict:
    circuits_dir = os.path.join(cfg["output_dir"], "circuits")
    compiled_dir = os.path.join(cfg["output_dir"], "compiled")
    os.makedirs(circuits_dir, exist_ok=True)
    os.makedirs(compiled_dir, exist_ok=True)
    name = "w{width}_d{depth}_p{density:g}_f{two_qubit_fraction:g}_s{seed}".format(**cell)
    qasm = os.path.join(circuits_dir, name + ".qasm")
    if not os.path.exists(qasm):
        spec = DensitySpec(**{f.name: cell[f.name] for f in fields(DensitySpec)})
        write_qasm(generate_with_density(spec), qasm)
    cmap = _build_topology(cell["topology"], cell["width"])
    out = os.path.join(compiled_dir, name + "_{topology}_{router}_n{n_sc}.qasm".format(**cell))
    circuit, read_time = _read_timed(qasm)
    with atomic_output(out) as fh:
        report = profile_run(circuit, read_time, cmap, cell["n_sc"], fh, router=cell["router"])
    # dicts and tuples go into the CSV as JSON text
    row = {key: json.dumps(v) if isinstance(v, (dict, tuple)) else v for key, v in asdict(report).items()}
    row.update(cell, status="ok", error="")
    return row


def cmd_sweep(args) -> int:
    cfg = load_sweep_config(args.config)
    os.makedirs(cfg["output_dir"], exist_ok=True)
    csv_path = args.output or os.path.join(cfg["output_dir"], "sweep.csv")

    done: set[tuple] = set()
    header = None  # the existing CSV's columns; None when there is no header yet
    if os.path.exists(csv_path):
        with open(csv_path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames
            if header is not None and header != SWEEP_COLUMNS:
                # appending would put this sweep's values under the wrong columns
                raise ValueError(f"{csv_path} has other columns than this sweep writes; use a new --output")
            done = {_row_key(row) for row in reader if row["status"] == "ok"}

    cells = [c for c in sweep_cells(cfg) if _row_key(c) not in done]
    with open(csv_path, "a", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS, restval="")
        if header is None:
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parse_args leaves it
    unchanged, so every call to main shares it."""
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
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("compile", help="route a QASM circuit for a processor topology")
    p.add_argument("input")
    p.add_argument("--topology", default="grid", help="grid | linear | custom:FILE")
    p.add_argument("--router", choices=ROUTERS, default="basic")
    p.add_argument("--n-sc", type=int, default=1, help="sub-circuit / worker count")
    p.add_argument("--lookahead-window", type=_window_option, default=20)
    p.add_argument("--output", "-o")
    p.add_argument("--report", help="report JSON path (default: OUTPUT.report.json)")
    p.add_argument("--profile", action="store_true", help="also time the monolithic baseline")
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help and 2 on a usage error
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    try:
        return args.func(args)
    except QasmError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except TopologyError as exc:
        print(f"topology error: {exc}", file=sys.stderr)
        return EXIT_TOPOLOGY
    except (RouteError, PipelineError) as exc:
        print(f"routing error: {exc}", file=sys.stderr)
        return EXIT_ROUTE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
