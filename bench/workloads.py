"""
Benchmark workloads: which circuits are generated and how each is compiled.

A workload is a list of cells. A cell is one seeded random circuit plus the
compile settings it runs with. Its role says what the timed loop does with
it: "compile" cells are compiled, "verify" cells are compiled once before the
loop and then checked with `parqc verify`, and "both" cells are compiled and
then verified. `parqc verify` simulates a statevector of at most 14 qubits,
so the two wide workloads carry reduced companion cells (width 12, with their
own density, map, router and n_sc) and every workload reports every
end-to-end metric.

Run as a script, this module is the set-up step measured by `setup_s`: it
imports parqc, generates every cell's circuit and writes it as QASM.

    python3 bench/workloads.py CELLS.json OUTDIR
"""
from __future__ import annotations

import json
import random
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

COMPANION_WIDTH = 12
COMPANION_DEPTH = 40
COMPANIONS = 4


@dataclass(frozen=True)
class Cell:
    name: str
    width: int
    depth: int
    density: float
    seed: int
    topology: str
    router: str
    n_sc: int
    role: str  # "compile", "verify" or "both"; see the module docstring

    def compile_argv(self, src: str, out: str, report: str) -> list[str]:
        argv = ["compile", src, "--topology", self.topology, "--router", self.router,
                "--n-sc", str(self.n_sc), "-o", out, "--report", report]
        if self.router == "lookahead":
            argv += ["--lookahead-window", "20"]
        return argv


def _seeds(workload: str, seed: int, count: int) -> list[int]:
    rng = random.Random(f"{workload}/{seed}")
    return [rng.randrange(2**32) for _ in range(count)]


def _wide(name, seed, width, depth, density, router, n_sc) -> list[Cell]:
    seeds = _seeds(name, seed, 1 + COMPANIONS)
    main = Cell("main", width, depth, density, seeds[0], "grid", router, n_sc, "compile")
    return [main] + [
        Cell(f"companion{i}", COMPANION_WIDTH, COMPANION_DEPTH, density, s, "grid", router, n_sc, "verify")
        for i, s in enumerate(seeds[1:])
    ]


def lookahead_deep(seed: int) -> list[Cell]:
    # density 1.0: below it the generator draws the 1q/2q split uniformly per
    # seed, and one wide circuit then varies ~2.5x in 2q gates across seeds
    return _wide("lookahead-deep", seed, 50, 900, 1.0, "lookahead", 1)


def basic_wide_chunked(seed: int) -> list[Cell]:
    return _wide("basic-wide-chunked", seed, 200, 100, 1.0, "basic", 8)


def small_batch(seed: int) -> list[Cell]:
    # five circuits per (width, density) so the sums over the batch vary
    # little between seeds despite the per-circuit 1q/2q split draw
    specs = [(w, p) for w in range(8, 15) for p in (0.3, 0.6, 1.0) for _ in range(5)]
    cells = []
    for i, ((width, density), s) in enumerate(zip(specs, _seeds("small-batch", seed, len(specs)))):
        topology = "grid" if i % 2 == 0 else "linear"
        router = "basic" if (i // 2) % 2 == 0 else "lookahead"
        # each small cell is both compiled and verified in the timed loop
        cells.append(Cell(f"c{i:03d}", width, 40, density, s, topology, router, 4, "both"))
    return cells


WORKLOADS = {
    "lookahead-deep": lookahead_deep,
    "basic-wide-chunked": basic_wide_chunked,
    "small-batch": small_batch,
}


def write_cells(cells: list[Cell], path: Path) -> None:
    path.write_text(json.dumps([asdict(c) for c in cells]))


def read_cells(path: Path) -> list[Cell]:
    return [Cell(**d) for d in json.loads(path.read_text())]


def _setup(cells_path: str, outdir: str) -> None:
    t0 = time.perf_counter()
    from parqc import DensitySpec, generate_with_density, write_qasm

    gen_s = 0.0
    for cell in read_cells(Path(cells_path)):
        t = time.perf_counter()
        circuit = generate_with_density(
            DensitySpec(width=cell.width, depth=cell.depth, density=cell.density, seed=cell.seed)
        )
        gen_s += time.perf_counter() - t
        write_qasm(circuit, Path(outdir) / f"{cell.name}.qasm")
    print(json.dumps({"setup_s": time.perf_counter() - t0, "generate_s": gen_s}))


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    _setup(*sys.argv[1:])
