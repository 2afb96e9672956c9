import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import bfs_hops, dense_statevector
from parqc.circuit import BARRIER, GATES_1Q, PARAM_COUNTS, Circuit, Instruction, compute_metrics
from parqc.pipeline import compile_parallel
from parqc.router import RouteError, route
from parqc.topology import CouplingMap, astar_path, build_grid, build_linear
from parqc.verifier import check_nna

_ANGLE = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)


@st.composite
def connected_maps(draw, max_nodes):
    """A random spanning tree over a shuffled node order plus random chords."""
    n = draw(st.integers(2, max_nodes))
    order = draw(st.permutations(range(n)))
    edges = {(order[i], order[draw(st.integers(0, i - 1))]) for i in range(1, n)}
    edges |= set(draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n)))
    return CouplingMap(n, [e for e in edges if e[0] != e[1]])


@st.composite
def circuits(draw, width):
    instrs = []
    for _ in range(draw(st.integers(3, 30))):
        choice = draw(st.integers(0, 5))
        if choice <= 1:
            kind = draw(st.sampled_from(sorted(GATES_1Q)))
            params = tuple(draw(_ANGLE) for _ in range(PARAM_COUNTS.get(kind, 0)))
            instrs.append(Instruction(kind, (draw(st.integers(0, width - 1)),), params))
        elif choice == 5:
            qs = draw(st.sets(st.integers(0, width - 1), min_size=1))
            instrs.append(Instruction(BARRIER, tuple(sorted(qs))))
        else:
            a, b = draw(st.permutations(range(width)))[:2]
            instrs.append(Instruction(draw(st.sampled_from(["cx", "cz", "swap"])), (a, b)))
    instrs.append(Instruction("cx", (0, width - 1)))  # at least one gate, often a blocked one
    return Circuit(width, instrs)


@st.composite
def compile_cases(draw):
    kind = draw(st.sampled_from(["grid", "linear", "custom"]))
    if kind == "custom":
        cmap = draw(connected_maps(10))
        width = draw(st.integers(2, cmap.n_phys))
    else:
        width = draw(st.integers(2, 10))
        cmap = build_grid(width) if kind == "grid" else build_linear(width)
    return (
        draw(circuits(width)),
        cmap,
        draw(st.sampled_from(["basic", "lookahead"])),
        draw(st.sampled_from([1, 3, 20])),
        draw(st.sampled_from([1, 3])),
    )


def oracle_fidelity(original: Circuit, compiled: Circuit, final_layout) -> float:
    """Overlap of the compiled state with the original one (padded with |0>
    spare qubits) once physical axis p is read as logical qubit layout[p]."""
    n = compiled.width
    psi_o = dense_statevector(Circuit(n, original.instructions))
    expected = np.transpose(psi_o.reshape([2] * n), final_layout).reshape(-1)
    return abs(np.vdot(expected, dense_statevector(compiled))) ** 2


@settings(max_examples=120, deadline=None)
@given(compile_cases())
def test_compiled_chunks_are_nna_equivalent_and_accounted(case):
    circuit, cmap, router, window, n_sc = case
    compiled, report = compile_parallel(
        circuit, cmap, n_sc, router=router, lookahead_window=window, parallel=False
    )
    assert check_nna(compiled, cmap) == []
    assert oracle_fidelity(circuit, compiled, report.final_layout) == pytest.approx(1.0, abs=1e-9)
    assert compute_metrics(compiled).n_gates == (
        compute_metrics(circuit).n_gates
        + sum(report.chunk_routing_swaps)
        + sum(report.chunk_permutation_swaps)
    )


def oracle_path(cmap: CouplingMap, src: int, dst: int) -> list[int]:
    """Brute force: every walk of BFS-hop-count length from src that ends at
    dst is a shortest path; take the one whose reversed node list is
    lexicographically smallest."""
    walks = [[src]]
    for _ in range(bfs_hops(cmap.neighbors, src, dst)):
        walks = [w + [v] for w in walks for v in cmap.neighbors[w[-1]]]
    return min((w for w in walks if w[-1] == dst), key=lambda w: w[::-1])


@settings(max_examples=100, deadline=None)
@given(connected_maps(9))
def test_astar_path_matches_brute_force_on_custom_maps(cmap):
    for src in range(cmap.n_phys):
        for dst in range(cmap.n_phys):
            assert astar_path(cmap, src, dst) == oracle_path(cmap, src, dst)


@pytest.mark.parametrize("width", range(2, 10))
def test_astar_path_matches_brute_force_on_builtin_maps(width):
    for cmap in (build_grid(width), build_linear(width)):
        for src in range(cmap.n_phys):
            for dst in range(cmap.n_phys):
                assert astar_path(cmap, src, dst) == oracle_path(cmap, src, dst)


def test_basic_router_swaps_along_the_path():
    # 0 and 5 sit at opposite corners of the 2x3 grid; the path is 0-1-2-5,
    # so logical 0 rides two swaps up to physical 2, next to 5
    circuit = Circuit(6, [Instruction("cx", (0, 5)), Instruction(BARRIER, (0, 1)), Instruction("h", (0,))])
    routed = route(circuit, build_grid(6))
    assert [(ins.kind, ins.qubits) for ins in routed.circuit.instructions] == [
        ("swap", (0, 1)),
        ("swap", (1, 2)),
        ("cx", (2, 5)),
        (BARRIER, (0, 2)),
        ("h", (2,)),
    ]
    assert routed.final_layout.phys_to_logical == (1, 2, 0, 3, 4, 5)
    assert routed.inserted_swaps == 2


@pytest.mark.parametrize(
    "kwargs, width, match",
    [
        ({"router": "sabre"}, 4, "unknown router 'sabre'"),
        ({"router": "lookahead", "lookahead_window": 0}, 4, "lookahead_window must be >= 1"),
        ({"router": "basic"}, 5, "circuit width 5 exceeds 4 physical qubits"),
        ({"router": "lookahead"}, 5, "circuit width 5 exceeds 4 physical qubits"),
    ],
)
def test_route_errors(kwargs, width, match):
    with pytest.raises(RouteError, match=match):
        route(Circuit(width, [Instruction("h", (0,))]), build_linear(4), **kwargs)
