"""Byte-for-byte pins of compiled output.

Each cell generates a seeded circuit, compiles it through the CLI and
compares the sha256 of the written QASM (final-layout comment included) with
the digest recorded in data/golden_sha256.json. A refactor that changes any
routed gate, swap or layout shows up here. After a deliberate behaviour
change, rewrite the digests with

    PYTHONPATH=src python3 tests/test_golden.py
"""
import hashlib
import json
import os
import sys
import tempfile

import pytest

from parqc.circuit import write_qasm
from parqc.cli import main
from parqc.densitygen import DensitySpec, generate_with_density

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_sha256.json")

# a 10-node ring with three chords: many equal-length paths, so the routing
# tie-break rule decides the output
CUSTOM_MAP = {
    "n_phys": 10,
    "edges": [[i, (i + 1) % 10] for i in range(10)] + [[0, 5], [2, 7], [3, 8]],
}

# (topology, width, density, seed); every map runs both routers at n_sc 1 and 3
MAPS = [
    ("grid", 9, 0.6, 11),
    ("linear", 10, 1.0, 12),
    ("custom", 10, 0.8, 13),
]
CELLS = [
    f"{topo}-w{width}-p{density:g}-s{seed}-{router}-n{n_sc}"
    for topo, width, density, seed in MAPS
    for router in ("basic", "lookahead")
    for n_sc in (1, 3)
] + [
    # the benchmark's wide chunked and deep lookahead shapes, at depth 30
    "grid-w200-p1-s1-basic-n8",
    "grid-w50-p1-s1-lookahead-n1",
]


def compile_digest(cell: str, workdir: str) -> str:
    topo, w, p, s, router, n = cell.split("-")
    width, density, seed, n_sc = int(w[1:]), float(p[1:]), int(s[1:]), int(n[1:])
    src = os.path.join(workdir, f"{cell}.qasm")
    out = os.path.join(workdir, f"{cell}.out.qasm")
    write_qasm(generate_with_density(DensitySpec(width=width, depth=30, density=density, seed=seed)), src)
    if topo == "custom":
        map_path = os.path.join(workdir, "map.json")
        with open(map_path, "w", encoding="utf-8") as fh:
            json.dump(CUSTOM_MAP, fh)
        topo = f"custom:{map_path}"
    argv = ["compile", src, "--topology", topo, "--router", router, "--n-sc", str(n_sc),
            "-o", out, "--report", out + ".json"]
    assert main(argv) == 0
    with open(out, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_covers_every_cell(golden):
    assert sorted(golden) == sorted(CELLS)


@pytest.mark.parametrize("cell", CELLS)
def test_compiled_output_is_pinned(cell, golden, tmp_path):
    assert compile_digest(cell, str(tmp_path)) == golden[cell]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = {cell: compile_digest(cell, tmp) for cell in CELLS}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {GOLDEN_PATH}", file=sys.stderr)
