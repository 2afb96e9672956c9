import io
import os
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
import parqc.pipeline
import parqc.router
from helpers import (
    as_instructions,
    bfs_hops,
    dense_statevector,
    frontier_replay,
    full_window_chooser,
    instruction_route,
)
from parqc.circuit import (
    BARRIER,
    GATES_1Q,
    PARAM_COUNTS,
    Circuit,
    Instruction,
    compute_metrics,
    final_layout_comment,
    format_instruction,
    parse_qasm,
    qasm_header,
    serialize_qasm,
)
from parqc.densitygen import DensitySpec, generate_with_density
from parqc.permuter import append_permutation, build_permutation
from parqc.pipeline import MAX_WORKERS_ENV, compile_parallel
from parqc.router import RouteError, route
from parqc.topology import CouplingMap, astar_path, build_grid, build_linear
from parqc.verifier import check_nna

_ANGLE = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)
# negative, tiny and large angles, which the 17-digit QASM text must carry exactly
_ANY_ANGLE = st.one_of(_ANGLE, st.floats(-1e-300, 1e-300), st.floats(min_value=-1e300, max_value=1e300))


@st.composite
def connected_maps(draw, max_nodes):
    """A random spanning tree over a shuffled node order plus random chords."""
    n = draw(st.integers(2, max_nodes))
    order = draw(st.permutations(range(n)))
    edges = {(order[i], order[draw(st.integers(0, i - 1))]) for i in range(1, n)}
    edges |= set(draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n)))
    return CouplingMap(n, [e for e in edges if e[0] != e[1]])


@st.composite
def circuits(draw, width, angles):
    instrs = []
    for _ in range(draw(st.integers(3, 30))):
        choice = draw(st.integers(0, 5))
        if choice <= 1:
            kind = draw(st.sampled_from(sorted(GATES_1Q)))
            params = tuple(draw(angles) for _ in range(PARAM_COUNTS.get(kind, 0)))
            instrs.append(Instruction(kind, (draw(st.integers(0, width - 1)),), params))
        elif choice == 5:
            qs = draw(st.just(range(width)) | st.sets(st.integers(0, width - 1), min_size=1))
            instrs.append(Instruction(BARRIER, tuple(sorted(qs))))
        else:
            a, b = draw(st.permutations(range(width)))[:2]
            instrs.append(Instruction(draw(st.sampled_from(["cx", "cz", "swap"])), (a, b)))
    instrs.append(Instruction("cx", (0, width - 1)))  # at least one gate, often a blocked one
    return Circuit(width, instrs)


@st.composite
def compile_cases(draw, angles=_ANGLE, n_scs=(1, 3)):
    kind = draw(st.sampled_from(["grid", "linear", "custom"]))
    if kind == "custom":
        cmap = draw(connected_maps(10))
        width = draw(st.integers(2, cmap.n_phys))
    else:
        width = draw(st.integers(2, 10))
        cmap = build_grid(width) if kind == "grid" else build_linear(width)
    return (
        draw(circuits(width, angles)),
        cmap,
        draw(st.sampled_from(["basic", "lookahead"])),
        draw(st.sampled_from([1, 3, 20])),
        draw(st.sampled_from(n_scs)),
    )


def oracle_fidelity(original: Circuit, compiled: Circuit, final_layout) -> float:
    """Overlap of the compiled state with the original one (padded with |0>
    spare qubits) once physical axis p is read as logical qubit layout[p]."""
    n = compiled.width
    psi_o = dense_statevector(Circuit(n, as_instructions(original)))
    expected = np.transpose(psi_o.reshape([2] * n), final_layout).reshape(-1)
    return abs(np.vdot(expected, dense_statevector(compiled))) ** 2


@settings(max_examples=120, deadline=None)
@given(compile_cases())
def test_compiled_chunks_are_nna_equivalent_and_accounted(case):
    circuit, cmap, router, window, n_sc = case
    with mock.patch.dict(os.environ, {MAX_WORKERS_ENV: "1"}):  # in-process
        out = io.StringIO()
        report = compile_parallel(serialize_qasm(circuit), cmap, n_sc, out, router=router, lookahead_window=window)
    text = out.getvalue()
    compiled = parse_qasm(text)
    assert check_nna(compiled, cmap) == []
    assert oracle_fidelity(circuit, compiled, report.final_layout) == pytest.approx(1.0, abs=1e-9)
    assert compute_metrics(compiled).n_gates == (
        compute_metrics(circuit).n_gates
        + sum(report.chunk_routing_swaps)
        + sum(report.chunk_permutation_swaps)
    )


@settings(max_examples=100, deadline=None)
@given(compile_cases(angles=_ANY_ANGLE, n_scs=(1, 2, 3)))
def test_report_metrics_and_text_round_trip_match_oracles(case):
    circuit, cmap, router, window, n_sc = case
    with mock.patch.dict(os.environ, {MAX_WORKERS_ENV: "1"}):  # in-process
        out = io.StringIO()
        report = compile_parallel(serialize_qasm(circuit), cmap, n_sc, out, router=router, lookahead_window=window)
    text = out.getvalue()
    compiled = parse_qasm(text)
    depth, ones, twos = frontier_replay(compiled)
    assert (report.gates_parallel, report.depth_parallel) == (ones + twos, depth)
    _, in_ones, in_twos = frontier_replay(circuit)
    inserted = sum(report.chunk_routing_swaps) + sum(report.chunk_permutation_swaps)
    assert (ones, twos) == (in_ones, in_twos + inserted)
    assert report.swaps_parallel == sum(ins.kind == "swap" for ins in as_instructions(compiled))
    # the text is the product: rebuilding it from the parsed circuit changes no byte
    assert serialize_qasm(compiled) + final_layout_comment(report.final_layout) == text


def oracle_path(cmap: CouplingMap, src: int, dst: int) -> list[int]:
    """Brute force: every walk of BFS-hop-count length from src that ends at
    dst is a shortest path; take the one whose reversed node list is
    lexicographically smallest. A shortest path's t-th node is t hops from
    src, so only such walks are extended: that keeps maps of 24 nodes
    cheap."""
    hops = [bfs_hops(cmap.neighbors, src, v) for v in range(cmap.n_phys)]
    walks = [[src]]
    for t in range(1, hops[dst] + 1):
        walks = [w + [v] for w in walks for v in cmap.neighbors[w[-1]] if hops[v] == t]
    return min((w for w in walks if w[-1] == dst), key=lambda w: w[::-1])


@settings(max_examples=100, deadline=None)
@given(connected_maps(9))
def test_astar_path_matches_brute_force_on_custom_maps(cmap):
    for src in range(cmap.n_phys):
        for dst in range(cmap.n_phys):
            assert astar_path(cmap, src, dst) == oracle_path(cmap, src, dst)


@pytest.mark.parametrize("width", range(2, 25))
def test_astar_path_matches_brute_force_on_builtin_maps(width):
    # the rows' path arithmetic: long runs, and odd widths with a spare node
    for cmap in (build_grid(width), build_linear(width)):
        for src in range(cmap.n_phys):
            for dst in range(cmap.n_phys):
                assert list(astar_path(cmap, src, dst)) == oracle_path(cmap, src, dst)


def routed_instructions(routed, n_phys):
    """The routed chunk's emitted lines, read back as instructions."""
    return as_instructions(parse_qasm(qasm_header(n_phys) + "".join(line + "\n" for line in routed.lines)))


def test_basic_router_swaps_along_the_path():
    # 0 and 5 sit at opposite corners of the 2x3 grid; the path is 0-1-2-5,
    # so logical 0 rides two swaps up to physical 2, next to 5
    circuit = Circuit(6, [Instruction("cx", (0, 5)), Instruction(BARRIER, (0, 1)), Instruction("h", (0,))])
    routed = route(circuit, build_grid(6))
    assert [(ins.kind, ins.qubits) for ins in routed_instructions(routed, 6)] == [
        ("swap", (0, 1)),
        ("swap", (1, 2)),
        ("cx", (2, 5)),
        (BARRIER, (0, 2)),
        ("h", (2,)),
    ]
    assert routed.final_layout == (1, 2, 0, 3, 4, 5)
    assert routed.inserted_swaps == 2


def test_lookahead_router_takes_the_swap_the_window_prefers():
    # on the 2x3 grid (0 1 2 / 3 4 5) cx(0,5) is blocked. basic swaps along
    # 0-1-2; lookahead sees the next gate, cx(0,3): swap (0,1) would cost it 1
    # hop, while (0,3) is a gate on the swapped pair (its distance stays 1), so
    # (0,3) is the first edge to improve the window. Then logical 5 steps to 4.
    circuit = Circuit(6, [Instruction("cx", (0, 5)), Instruction("cx", (0, 3))])
    assert routed_instructions(route(circuit, build_grid(6)), 6)[0] == Instruction("swap", (0, 1))
    routed = route(circuit, build_grid(6), "lookahead", lookahead_window=2)
    assert [(ins.kind, ins.qubits) for ins in routed_instructions(routed, 6)] == [
        ("swap", (0, 3)),
        ("swap", (4, 5)),
        ("cx", (3, 4)),
        ("cx", (3, 0)),
    ]
    assert routed.final_layout == (3, 1, 2, 0, 5, 4)
    assert routed.inserted_swaps == 2


def assert_emits_oracle(routed, instructions, n_phys):
    """The emitted lines are the formatted instructions, and the depth the
    router tracked is their replay onto per-qubit clocks."""
    assert routed.lines == [format_instruction(ins, n_phys) for ins in instructions]
    assert routed.depth == frontier_replay(Circuit(n_phys, instructions))[0]


# signed zeros, which compare and hash equal yet print differently, and angles
# that repeat within a circuit
_EMIT_ANGLE = st.sampled_from([0.0, -0.0, 0.5, -0.5]) | _ANY_ANGLE


@st.composite
def emit_cases(draw):
    """A map, a circuit on as many of its qubits or fewer, possibly with no
    instructions at all, a router and window, and whether to append the
    layout's permutation circuit."""
    kind = draw(st.sampled_from(["grid", "linear", "custom"]))
    if kind == "custom":
        cmap = draw(connected_maps(10))
    else:
        n = draw(st.integers(2, 11))
        cmap = build_grid(n) if kind == "grid" else build_linear(n)
    width = draw(st.integers(2, cmap.n_phys))
    instrs = as_instructions(draw(circuits(width, _EMIT_ANGLE)))
    instrs = instrs[: draw(st.integers(0, len(instrs)))]
    return (
        Circuit(width, instrs),
        cmap,
        draw(st.sampled_from(["basic", "lookahead"])),
        draw(st.sampled_from([1, 3, 20])),
        draw(st.booleans()),
    )


_SIGNED_ZEROS = Circuit(2, [Instruction("rx", (0,), (0.0,)), Instruction("rx", (1,), (-0.0,)),
                            Instruction("rx", (0,), (0.0,)), Instruction("u", (1,), (-0.0, 0.0, -0.0))])


@settings(max_examples=200, deadline=None)
@given(emit_cases())
@example((_SIGNED_ZEROS, build_linear(2), "basic", 20, False))
@example((Circuit(3), build_grid(4), "lookahead", 20, True))
def test_emitted_lines_and_depth_match_instruction_oracle(case):
    circuit, cmap, router, window, permute = case
    routed = route(circuit, cmap, router, window)
    choose = full_window_chooser(circuit, cmap, window) if router == "lookahead" else None
    instructions, layout, swaps = instruction_route(circuit, cmap, choose)
    assert (routed.final_layout, routed.inserted_swaps) == (layout, swaps)
    assert_emits_oracle(routed, instructions, cmap.n_phys)
    if permute:
        plan = build_permutation(routed.final_layout, cmap)
        append_permutation(routed, plan, cmap)
        every = Instruction(BARRIER, tuple(range(cmap.n_phys)))
        instructions += [every, *(Instruction("swap", e) for e in plan.swap_list), every]
        assert_emits_oracle(routed, instructions, cmap.n_phys)
        assert routed.final_layout == tuple(range(cmap.n_phys))


@st.composite
def lookahead_cases(draw):
    """A map, a circuit on it and a lookahead window. Odd grid widths and
    narrow circuits on custom maps leave physical qubits with no window gates;
    runs of one pair put many gates on the same pair into one window."""
    kind = draw(st.sampled_from(["grid", "linear", "custom"]))
    if kind == "custom":
        cmap = draw(connected_maps(10))
        width = draw(st.integers(2, cmap.n_phys))
    else:
        width = draw(st.integers(2, 11))
        cmap = build_grid(width) if kind == "grid" else build_linear(width)
    instrs = list(as_instructions(draw(circuits(width, _ANGLE))))
    for _ in range(draw(st.integers(0, 4))):
        a, b = draw(st.permutations(range(width)))[:2]
        run = [Instruction(draw(st.sampled_from(["cx", "cz"])), (a, b))] * draw(st.integers(2, 8))
        at = draw(st.integers(0, len(instrs)))
        instrs[at:at] = run
    circuit = Circuit(width, instrs)
    n_2q = sum(ins.kind != BARRIER and len(ins.qubits) == 2 for ins in instrs)
    window = draw(st.sampled_from([1, 2, 20, n_2q + 1, n_2q + 50]))
    return circuit, cmap, window


# blocked gates on a line, one pair repeated, so a qubit's window queue
# changes, stands still and changes again across choices
_BLOCKED = Circuit(6, [Instruction("cx", pair) for pair in [(0, 5), (1, 4), (0, 5), (2, 3), (5, 1), (0, 4)]])
# With window 1 on a 4-node line, gate 0 swaps (0, 1), then (1, 2); gate 1's
# best swap is (1, 2) again, which would undo gate 0's last choice.
_UNDO_NEXT_GATE = Circuit(4, [Instruction("cx", (0, 3)), Instruction("cx", (2, 3))])
# With window 3, gate 0 swaps (0, 1), finds no improving swap and takes the
# shortest-path move; gate 2's best swap is (0, 1) again.
_UNDO_AFTER_FALLBACK = Circuit(4, [Instruction("cx", pair) for pair in [(0, 3), (0, 2), (0, 1)]])


_LIBRARY_CHOOSER = parqc.router._lookahead_chooser


def checked_chooser(seen):
    """A stand-in for parqc.router._lookahead_chooser whose choices are
    asserted equal to full_window_chooser's, stopping at the first that
    differs, before a wrong chooser can swap back and forth forever. Each
    call appends (k, the routed circuit's 2-qubit gate count) to seen."""

    def make(circuit, cmap, window_size):
        fast = _LIBRARY_CHOOSER(circuit, cmap, window_size)
        slow = full_window_chooser(circuit, cmap, window_size)

        def choose(k, lay, pos, pa, pb):
            seen.append((k, circuit.n_q2))
            best = fast(k, lay, pos, pa, pb)
            edge = best and best[0][0][0]
            # a choice is a move of one hop, on a coupling edge touching pa or pb
            assert best is None or (best == (((edge,), None),) and edge in cmap.edges and {pa, pb} & set(edge)), best
            assert edge == slow(k, lay, pos, pa, pb), (k, lay, pa, pb)
            return best

        return choose

    return make


@settings(max_examples=200, deadline=None)
@given(lookahead_cases())
@example((_BLOCKED, build_linear(6), 1))
@example((_BLOCKED, build_linear(6), 100))  # a window longer than the chunk
# the swap back is skipped only at the gate that chose it
@example((_UNDO_NEXT_GATE, build_linear(4), 1))
@example((_UNDO_AFTER_FALLBACK, build_linear(4), 3))
def test_lookahead_chooser_matches_full_window_oracle(case):
    circuit, cmap, window = case
    with mock.patch("parqc.router._lookahead_chooser", checked_chooser([])):
        routed = route(circuit, cmap, "lookahead", window)
    instructions, layout, swaps = instruction_route(circuit, cmap, full_window_chooser(circuit, cmap, window))
    assert routed.lines == [format_instruction(ins, cmap.n_phys) for ins in instructions]
    assert routed.final_layout == layout
    assert routed.inserted_swaps == swaps


def _blocked_runs(width, window, seed):
    """Random 2-qubit gates, each repeated over twice the window: once the
    first of a run is routed the rest are adjacent, so k jumps past the end
    of the last window between choices."""
    rng = random.Random(seed)
    instrs = []
    for _ in range(60):
        instrs += [Instruction("cx", tuple(rng.sample(range(width), 2)))] * (2 * window + rng.randrange(10))
    return Circuit(width, instrs)


@pytest.mark.parametrize("case", ["generated", "blocked runs", "chunks"])
def test_lookahead_chooser_matches_full_window_oracle_at_benchmark_shape(case):
    # the lookahead benchmark's shape: a 50-qubit grid, density 1.0, window 20
    window = 20
    cmap = build_grid(50)
    if case == "blocked runs":
        circuit = _blocked_runs(50, window, seed=7)
    else:
        circuit = generate_with_density(DensitySpec(width=50, depth=100, density=1.0, seed=1))
    seen = []
    with mock.patch("parqc.router._lookahead_chooser", checked_chooser(seen)):
        if case == "chunks":  # four route calls, each with its own chooser
            with mock.patch.dict(os.environ, {MAX_WORKERS_ENV: "1"}):  # in-process
                text = serialize_qasm(circuit)
                compile_parallel(text, cmap, 4, io.StringIO(), router="lookahead", lookahead_window=window)
        else:
            route(circuit, cmap, "lookahead", window)
    assert len(seen) > 300
    if case == "blocked runs":  # k jumps past the end of the last window
        assert any(k1 + window < k2 for (k1, _), (k2, _) in zip(seen, seen[1:]))
    else:  # the window runs past the last gate of the routed circuit or chunk
        assert any(k + window > n_q2 for k, n_q2 in seen)


def hop_walk(cmap, lay, pos, lines, pa, pb):
    """The shortest move's oracle: a hop-by-hop walk along astar_path, every
    hop but the last swapped. Returns the SWAP count."""
    path = astar_path(cmap, pa, pb)
    for u, v in zip(path, path[1:-1]):
        lines.append(cmap.swap_of[u][v])
        lay[u], lay[v] = lay[v], lay[u]
        pos[lay[u]], pos[lay[v]] = u, v
    return len(path) - 2


# every shape of shortest path on a line or a 2 x m grid, odd widths (a
# spare node) included: same row, row 0 to row 1 and row 1 to row 0; and the
# golden test's 10-node ring with three chords, with many equal-length paths
MOVE_MAPS = {
    "grid": [build_grid(w) for w in range(2, 25)],
    "linear": [build_linear(w) for w in range(2, 25)],
    "custom": [CouplingMap(10, [(i, (i + 1) % 10) for i in range(10)] + [(0, 5), (2, 7), (3, 8)])],
}


def blocked_pairs(cmap):
    """Every ordered pair of distinct, uncoupled nodes."""
    n = cmap.n_phys
    return [(pa, pb) for pa in range(n) for pb in range(n) if pa != pb and cmap.dist[pa][pb] != 1]


@pytest.mark.parametrize("kind", MOVE_MAPS)
def test_shortest_move_is_the_hop_walk_on_every_pair(kind):
    checked = expected = 0
    for cmap in MOVE_MAPS[kind]:
        n = cmap.n_phys
        expected += n * (n - 1) - 2 * len(cmap.edges)
        for pa, pb in blocked_pairs(cmap):
            (hops, run), second = cmap.move(pa, pb)
            assert second == ((), None)  # the qubit at pb stays
            lines = [cmap.swap_of[u][v] for u, v in hops]
            assert (run is None) == (kind == "custom")
            if run:
                p, q, statements = run
                path = astar_path(cmap, pa, pb)
                assert (p, q) == (path[len(hops)], path[-2]), (n, pa, pb)
                lines += statements
            want_lines = []
            hop_walk(cmap, list(range(n)), list(range(n)), want_lines, pa, pb)
            assert lines == want_lines, (n, pa, pb)
            checked += 1
    assert checked == expected


@pytest.mark.parametrize("kind", MOVE_MAPS)
def test_route_moves_a_blocked_gate_as_the_hop_walk_on_every_pair(kind):
    for cmap in MOVE_MAPS[kind]:
        n = cmap.n_phys
        for pa, pb in blocked_pairs(cmap):
            routed = route(Circuit(n, [Instruction("cx", (pa, pb))]), cmap)
            lay, pos, lines = list(range(n)), list(range(n)), []
            swaps = hop_walk(cmap, lay, pos, lines, pa, pb)
            lines.append(f"cx q[{pos[pa]}],q[{pos[pb]}];")
            # every swap and the gate act on the moving qubit, one after another
            got = (routed.lines, routed.depth, routed.final_layout, routed.inserted_swaps)
            assert got == (lines, swaps + 1, tuple(lay), swaps), (n, pa, pb)


@st.composite
def homeward_cases(draw):
    """A small line, 2 x m grid or the ring with chords, a layout and an
    uncoupled pair of nodes."""
    cmap = draw(st.one_of(
        st.integers(3, 9).map(build_linear),
        st.integers(3, 16).map(build_grid),
        st.just(MOVE_MAPS["custom"][0]),
    ))
    lay = draw(st.permutations(range(cmap.n_phys)))
    pa, pb = draw(st.sampled_from(blocked_pairs(cmap)))
    return cmap, lay, pa, pb


def walked_lines(cmap, lay, parts):
    """The SWAP lines of a move's parts, each run checked against its walk
    one hop at a time; the parts are applied to lay."""
    lines = []
    for hops, run in parts:
        walk = list(hops)
        if run:
            p, q, statements = run
            step = 1 if p < q else -1
            row_hops = list(zip(range(p, q, step), range(p + step, q + step, step)))
            assert list(statements) == [cmap.swap_of[u][v] for u, v in row_hops]
            walk += row_hops
        for u, v in walk:
            lines.append(cmap.swap_of[u][v])
            lay[u], lay[v] = lay[v], lay[u]
    return lines


@settings(max_examples=300, deadline=None)
@given(homeward_cases())
def test_homeward_move_meets_the_operands_nearest_home(case):
    cmap, lay, pa, pb = case
    path = astar_path(cmap, pa, pb)
    costs = helpers.split_costs(cmap, lay, path)
    a, b = lay[pa], lay[pb]
    after = list(lay)
    lines = walked_lines(cmap, after, cmap.move(pa, pb, lay))
    assert cmap.dist[after.index(a)][after.index(b)] == 1
    assert len(lines) == cmap.dist[pa][pb] - 1
    assert sum(cmap.dist[after[p]][p] for p in path) == min(costs)
    oracle = helpers.split_hops(path, helpers.homeward_split(cmap, lay, path))
    assert lines == [cmap.swap_of[u][v] for u, v in oracle]
    if costs[-1] == min(costs):  # split L - 1 is among the minima: the move without lay
        assert lines == walked_lines(cmap, list(lay), cmap.move(pa, pb))


def counting_move(calls):
    """A stand-in for CouplingMap.move that appends each (pa, pb) to calls."""
    real = CouplingMap.move

    def move(cmap, pa, pb, lay=None):
        calls.append((pa, pb))
        return real(cmap, pa, pb, lay)

    return move


def oracle_chooser(circuit, cmap, router):
    """The library's chooser, each choice read as its edge for
    instruction_route. It is checked against full_window_chooser elsewhere:
    here only the shortest-path moves between its choices are under test."""
    if router != "lookahead":
        return None
    choose = parqc.router._lookahead_chooser(circuit, cmap, 20)

    def edge(k, lay, pos, pa, pb):
        best = choose(k, lay, pos, pa, pb)
        return best and best[0][0][0]

    return edge


@pytest.mark.parametrize("router", ["basic", "lookahead"])
@pytest.mark.parametrize("kind, width", [("grid", 200), ("grid", 201), ("linear", 150)])
def test_row_moves_route_as_the_instruction_oracle_at_benchmark_shape(kind, width, router):
    cmap = build_grid(width) if kind == "grid" else build_linear(width)
    circuit = generate_with_density(DensitySpec(width=width, depth=20, density=1.0, seed=2))
    calls = []
    with mock.patch.object(CouplingMap, "move", counting_move(calls)):
        routed = route(circuit, cmap, router, 20)
    instructions, layout, swaps = instruction_route(circuit, cmap, oracle_chooser(circuit, cmap, router))
    assert (routed.final_layout, routed.inserted_swaps) == (layout, swaps)
    assert_emits_oracle(routed, instructions, cmap.n_phys)
    assert len(calls) > (100 if router == "basic" else 0)


def counting_astar_path(calls):
    """A stand-in for the oracle's astar_path that appends each (src, dst)
    to calls: the oracle walks a path exactly where it makes a fallback move."""
    real = helpers.astar_path

    def astar(cmap, src, dst):
        calls.append((src, dst))
        return real(cmap, src, dst)

    return astar


def no_astar_path(*args):
    raise AssertionError("route walked a path itself")


@pytest.mark.parametrize("router", ["basic", "lookahead"])
@pytest.mark.parametrize("kind", ["grid", "linear", "custom"])
def test_every_fallback_move_comes_from_the_map(kind, router):
    width = 24
    if kind == "custom":  # a 6 x 4 square grid, which has no rows
        cmap = CouplingMap(width, [(p, p + 1) for p in range(width) if p % 4 < 3] + [(p, p + 4) for p in range(20)])
    else:
        cmap = build_grid(width) if kind == "grid" else build_linear(width)
    circuit = generate_with_density(DensitySpec(width=width, depth=30, density=1.0, seed=4))
    calls, oracle_calls = [], []
    with mock.patch.object(CouplingMap, "move", counting_move(calls)), \
            mock.patch.object(parqc.router, "astar_path", no_astar_path):
        routed = route(circuit, cmap, router, 20)
    with mock.patch.object(helpers, "astar_path", counting_astar_path(oracle_calls)):
        instructions, layout, swaps = instruction_route(circuit, cmap, oracle_chooser(circuit, cmap, router))
    assert (routed.final_layout, routed.inserted_swaps) == (layout, swaps)
    assert_emits_oracle(routed, instructions, cmap.n_phys)
    assert calls == oracle_calls
    assert len(calls) > 10


@pytest.mark.parametrize("router", ["basic", "lookahead"])
@pytest.mark.parametrize("kind, width", [("grid", 200), ("grid", 201), ("linear", 150)])
def test_row_moves_route_every_chunk_as_the_instruction_oracle(monkeypatch, kind, width, router):
    cmap = build_grid(width) if kind == "grid" else build_linear(width)
    circuit = generate_with_density(DensitySpec(width=width, depth=24, density=1.0, seed=3))
    real_route = parqc.pipeline.route
    chunks = []

    def checked_route(chunk, cmap, router, lookahead_window, tail):
        # the last half of a non-final chunk's 2-qubit gates routes toward home
        assert tail == (None if chunk.name == "chunk7" else chunk.n_q2 // 2)
        routed = real_route(chunk, cmap, router, lookahead_window, tail)
        instructions, layout, swaps = instruction_route(chunk, cmap, oracle_chooser(chunk, cmap, router), tail)
        assert (routed.final_layout, routed.inserted_swaps) == (layout, swaps)
        assert_emits_oracle(routed, instructions, cmap.n_phys)
        chunks.append(chunk.name)
        return routed

    monkeypatch.setattr(parqc.pipeline, "route", checked_route)
    monkeypatch.setenv(MAX_WORKERS_ENV, "1")  # in-process, where the patched route runs
    compile_parallel(serialize_qasm(circuit), cmap, 8, io.StringIO(), router=router, lookahead_window=20)
    assert chunks == [f"chunk{i}" for i in range(8)]


@pytest.mark.parametrize(
    "kwargs, width, match",
    [
        ({"router": "sabre"}, 4, "unknown router 'sabre'"),
        ({"router": "lookahead", "lookahead_window": 0}, 4, "lookahead_window must be >= 1"),
        ({"router": "basic"}, 5, "circuit width 5 exceeds 4 physical qubits"),
        ({"router": "lookahead"}, 5, "circuit width 5 exceeds 4 physical qubits"),
    ],
)
def test_route_errors(monkeypatch, kwargs, width, match):
    """compile_parallel refuses a bad router, window or width before it
    writes the header or starts a pool: route itself trusts them."""

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(parqc.pipeline, "ProcessPoolExecutor", no_pool)
    monkeypatch.setenv(MAX_WORKERS_ENV, "2")
    out = io.StringIO()
    circuit = Circuit(width, [Instruction("h", (0,)), Instruction("h", (1,))])
    with pytest.raises(RouteError, match=match):
        compile_parallel(serialize_qasm(circuit), build_linear(4), 2, out, **kwargs)
    assert out.getvalue() == ""
