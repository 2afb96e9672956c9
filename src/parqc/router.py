"""
NNA routing: rewrite a logical circuit onto physical indices, inserting SWAPs
so every 2-qubit gate lands on a coupled pair.

There is one routing loop, `route`. It reads the circuit's kind, operand and
parameter columns in order from the trivial layout, keeps the layout arrays,
maps barriers and 1-qubit gates, and tests each 2-qubit gate for adjacency.
Only the choice of SWAPs for a blocked gate varies, through a swap chooser:

- "basic" has no chooser: the loop takes the map's shortest-path move
  (CouplingMap.shortest_move), which swaps the first operand along
  topology.astar_path until it sits next to the second. The move comes as
  hops, coupled pairs swapped one at a time, and on a linear or grid map a
  run along a row, whose statements and operands are slices of the map's
  tables and along which the layout rotates by one step.
- "lookahead" scores every coupling edge touching either operand by the
  summed distance of the next `lookahead_window` 2-qubit gates and picks the
  lowest strictly-improving one (ties to the lowest edge). A swap moves only
  two logical qubits, so only the window gates on those two are rescored,
  read from per-qubit queues of window partners that slide with the gate
  index; the choices are those of rescoring the whole window. When no
  candidate improves the window score, the loop takes the map's
  shortest-path move, as basic does, which guarantees termination.

The loop emits its output as it goes, with no object per output gate: each
statement's QASM line (serialize_qasm's text for a register of n_phys
qubits, so a barrier over every physical qubit is `barrier q;`) and each
instruction's (a, b) operand pair, in the shape of Circuit.ops, with each
barrier's physical qubits beside it, so circuit.frontier_depth scans the
output as it scans a parsed circuit.
Each coupling edge's `swap` line is formatted once per map, in
CouplingMap.swap_of. The final layout comes back as a plain tuple,
final_layout[p] being the logical qubit at physical position p: the one
layout shape the permuter, pipeline, report and verifier share.
"""
from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass, field

from .circuit import Circuit, barrier_statement, statement_heads
from .topology import CouplingMap
# unused here, kept because bench/tracer.py looks up this name when it starts
from .topology import astar_path  # noqa: F401


class RouteError(ValueError):
    pass


@dataclass
class RoutedCircuit:
    """A routed chunk as emitted: one QASM statement per output instruction
    (without its newline), the operand stream and each barrier's qubits,
    plus the layout its SWAPs produced and how many SWAPs the router
    inserted. append_permutation extends lines, ops and barriers, makes the
    layout trivial and counts its SWAPs."""

    lines: list[str]
    ops: array
    final_layout: tuple[int, ...]
    inserted_swaps: int
    barriers: list = field(default_factory=list)
    permutation_swaps: int = 0


def _lookahead_chooser(circuit: Circuit, cmap: CouplingMap, window_size: int):
    """Swap chooser scoring candidate edges over the window of the next
    window_size 2-qubit gates. choose(k, lay, pos, pa, pb) is asked while the
    k-th 2-qubit gate, on physical qubits pa and pb, is blocked; it returns the
    best edge or None.

    A swap of p and q moves only the logical qubits lay[p] and lay[q], so an
    edge is scored by the change it makes to the summed distance of the window
    gates on those two qubits; a gate on exactly that pair keeps its distance
    and is skipped. Each logical qubit keeps the partners of its window gates
    in a queue, in gate order. k never falls within one route call, so the
    window only slides: each call appends the gates its end has reached to
    the backs of their operands' queues and pops the gates its start has
    passed from the fronts, so each gate is queued and popped once per route
    call. The candidate edges of each blocked (pa, pb) are sorted once. The
    first edge, in that order, with a negative change wins, and a later one
    only with a strictly lower change: the same choices as rescoring the
    whole window for every edge.
    """
    dist = cmap.dist
    # physical qubit -> the coupling edges touching it, each one shared
    # (low, high, dist[low], dist[high]) tuple
    edges_at = [[] for _ in range(cmap.n_phys)]
    for e in [(p, q, dist[p], dist[q]) for p, q in cmap.edges]:
        edges_at[e[0]].append(e)
        edges_at[e[1]].append(e)
    # the operands of each 2-qubit gate, in gate order
    ops = circuit.ops
    pairs = array("i", [v for x, y in zip(ops[::2], ops[1::2]) if y >= 0 for v in (x, y)])
    n_gates = len(pairs) // 2
    queues = [deque() for _ in range(cmap.n_phys)]  # logical qubit -> its window gates' partners
    lo = hi = 0  # the gates queued: [lo, hi)
    candidates = {}  # (pa, pb) -> the edges touching pa or pb, sorted

    def choose(k, lay, pos, pa, pb):
        nonlocal lo, hi
        end = min(k + window_size, n_gates)
        while hi < end:  # a jump past hi queues gates the next loop pops at once
            x, y = pairs[2 * hi], pairs[2 * hi + 1]
            queues[x].append(y)
            queues[y].append(x)
            hi += 1
        while lo < k:
            queues[pairs[2 * lo]].popleft()
            queues[pairs[2 * lo + 1]].popleft()
            lo += 1
        edges = candidates.get((pa, pb))
        if edges is None:  # pa and pb are not coupled, so no edge touches both
            edges = candidates[pa, pb] = tuple(sorted(edges_at[pa] + edges_at[pb]))
        best = None
        best_delta = 0
        for p, q, dp, dq in edges:
            lp, lq = lay[p], lay[q]
            delta = 0
            for y in queues[lp]:  # lp's gates move from p to q
                if y != lq:  # the gate on the swapped pair keeps its distance
                    r = pos[y]
                    delta += dq[r] - dp[r]
            for y in queues[lq]:
                if y != lp:
                    r = pos[y]
                    delta += dp[r] - dq[r]
            if delta < best_delta:
                best = (p, q)
                best_delta = delta
        return best

    return choose


def route(circuit: Circuit, cmap: CouplingMap, router: str = "basic", lookahead_window: int = 20) -> RoutedCircuit:
    """Route with the named swap chooser ("basic" | "lookahead"), on a map
    at least as wide as the circuit; the caller has checked all three."""
    choose = _lookahead_chooser(circuit, cmap, lookahead_window) if router == "lookahead" else None
    n = cmap.n_phys
    lay = list(range(n))  # physical -> logical
    pos = list(range(n))  # logical -> physical
    dist = cmap.dist
    swap_of = cmap.swap_of  # [u][v]: the swap line of coupled u and v, and its low and high operand
    shortest_move = cmap.shortest_move
    lines: list[str] = []
    emit = lines.append
    ops = array("i")
    push = ops.append
    swaps = 0
    barriers = iter(circuit.barriers)
    routed_barriers = []
    k = 0  # index of the current 2-qubit gate, for the chooser's window
    for head, a, b in statement_heads(circuit):
        if head is None:
            qubits = sorted(pos[q] for q in next(barriers))
            emit(barrier_statement(qubits, n))
            push(-1)
            push(-1)
            routed_barriers.append(qubits)
            continue
        if b < 0:
            p = pos[a]
            emit(f"{head} q[{p}];")
            push(p)
            push(-1)
            continue
        pa, pb = pos[a], pos[b]
        while dist[pa][pb] != 1:
            best = choose(k, lay, pos, pa, pb) if choose else None
            hops, run = ((best,), None) if best else shortest_move(pa, pb)
            for u, v in hops:
                line, lo, hi = swap_of[u][v]
                emit(line)
                push(lo)
                push(hi)
                lu, lv = lay[u], lay[v]
                lay[u], lay[v] = lv, lu
                pos[lu], pos[lv] = v, u
                swaps += 1
            if run:
                p, q, statements, operands = run
                lines.extend(statements)
                ops.extend(operands)
                # the qubit moves from p to q and every qubit between shifts one step back
                lay.insert(q, lay.pop(p))
                for x in range(min(p, q), max(p, q) + 1):
                    pos[lay[x]] = x
                swaps += abs(q - p)
            pa, pb = pos[a], pos[b]
        k += 1
        emit(f"{head} q[{pa}],q[{pb}];")
        push(pa)
        push(pb)
    return RoutedCircuit(lines, ops, tuple(lay), swaps, routed_barriers)
