"""
NNA routing: rewrite a logical circuit onto physical indices, inserting SWAPs
so every 2-qubit gate lands on a coupled pair.

There is one routing loop, `route`. It reads the circuit's kind, operand and
parameter columns in order from the trivial layout, keeps the layout arrays,
maps barriers and 1-qubit gates, and tests each 2-qubit gate for adjacency.
Whatever the router, a blocked gate's SWAPs come as a move of
CouplingMap.move's shape: parts, each hops, coupled pairs swapped one at a
time, and on a linear or grid map a run along a row, whose statements are a
slice of the map's tables and along which the layout rotates by one step.
The loop applies the parts in order. Only the choice of the move varies,
through a swap chooser:

- "basic" has no chooser: the loop takes the map's shortest-path move
  (CouplingMap.move), which swaps the first operand along
  topology.astar_path until it sits next to the second.
- "lookahead" scores every coupling edge touching either operand by the
  summed distance of the next `lookahead_window` 2-qubit gates and picks the
  lowest strictly-improving one (ties to the lowest edge), as the one-hop
  move built once per edge. A swap moves only two logical qubits, so only
  the window gates on those two are rescored, read from per-qubit queues of
  window partners that slide with the gate index, one lookup in the edge's
  step row per partner; the swap that would undo the gate's last choice is
  never rescored, since it cannot improve. The choices are those of
  rescoring the whole window. When no candidate improves the window score,
  the loop takes the map's shortest-path move, as basic does, which
  guarantees termination.

From the 2-qubit gate numbered `tail` on, that shortest-path move is given
the layout: the two operands meet at the split of the same path that
leaves the qubits on it with the lowest summed hop distance from home, for
the same number of SWAPs, and each operand's walk is a part of its own. The
pipeline sets `tail` to half of a non-final chunk's 2-qubit gates, so the
chunk ends nearer the trivial layout and the permutation that restores it
is shorter; a final chunk, whose layout is kept, and a one-chunk compile
never take it.

The loop emits its output as it goes, with no object per output gate: each
statement's QASM line (serialize_qasm's text for a register of n_phys
qubits, so a barrier over every physical qubit is `barrier q;`). It tracks
the output's depth as it emits, one level per physical qubit, under
circuit.frontier_depth's rule: a gate or SWAP takes one level above its
qubits' highest, and a barrier lifts its qubits to the highest among them.
Each coupling edge's `swap` line is formatted once per map, in
CouplingMap.swap_of. The final layout comes back as a plain tuple,
final_layout[p] being the logical qubit at physical position p: the one
layout shape the permuter, pipeline, report and verifier share.
"""
from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from operator import sub

from .circuit import Circuit, barrier_statement, statement_heads
from .topology import CouplingMap
# unused here, kept because bench/tracer.py looks up this name when it starts
from .topology import astar_path  # noqa: F401


class RouteError(ValueError):
    pass


@dataclass
class RoutedCircuit:
    """A routed chunk as emitted: one QASM statement per output instruction
    (without its newline), the layout its SWAPs produced, how many SWAPs the
    router inserted and the statements' depth, under circuit.frontier_depth's
    rule. append_permutation extends lines and depth, makes the layout
    trivial and counts its SWAPs."""

    lines: list[str]
    final_layout: tuple[int, ...]
    inserted_swaps: int
    depth: int = 0
    permutation_swaps: int = 0


def _lookahead_chooser(circuit: Circuit, cmap: CouplingMap, window_size: int):
    """Swap chooser scoring candidate edges over the window of the next
    window_size 2-qubit gates. choose(k, lay, pos, pa, pb) is asked while the
    k-th 2-qubit gate, on physical qubits pa and pb, is blocked; it returns the
    swap of the best edge, as a move of CouplingMap.move's shape, or None.

    A swap of p and q moves only the logical qubits lay[p] and lay[q], so an
    edge is scored by the change it makes to the summed distance of the window
    gates on those two qubits; a gate on exactly that pair keeps its distance
    and is skipped. Each edge (p, q) carries its step row, step[r] =
    dist[q][r] - dist[p][r], built the first time the edge is a candidate: a
    partner at r of the qubit moving from p to q adds step[r], and one of the
    qubit moving from q to p subtracts it. Each logical qubit keeps the
    partners of its window gates in a queue, in gate order. k never falls
    within one route call, so the window only slides, when k changes, and
    each gate is queued and popped once per route call. The candidate edges
    of each blocked (pa, pb) are sorted once. The first edge, in that order,
    with a negative change wins, and a later one only with a strictly lower
    change: the same choices as rescoring the whole window for every edge.
    At the same gate, the router has just swapped the last edge chosen, and
    swapping it back scores minus that edge's negative change: it cannot win
    and is not scored.
    """
    dist = cmap.dist
    edges_at = [[] for _ in range(cmap.n_phys)]  # physical qubit -> the coupling edges touching it
    for e in cmap.edges:
        edges_at[e[0]].append(e)
        edges_at[e[1]].append(e)
    entries = {}  # edge (p, q) -> its (p, q, step row, move), shared by every candidate tuple
    # the operands of each 2-qubit gate, in gate order
    ops = circuit.ops
    pairs = array("i", [v for x, y in zip(ops[::2], ops[1::2]) if y >= 0 for v in (x, y)])
    n_gates = len(pairs) // 2
    queues = [deque() for _ in range(cmap.n_phys)]  # logical qubit -> its window gates' partners
    lo = hi = 0  # the gates queued: [lo, hi)
    at = -1  # the gate of the last call
    last = None  # the entry chosen by the last call, at gate `at`
    candidates = {}  # (pa, pb) -> the entries of the edges touching pa or pb, sorted

    def entry(e):
        got = entries.get(e)
        if got is None:
            p, q = e
            # the move is the one-hop swap of the edge, in CouplingMap.move's shape
            got = entries[e] = (p, q, tuple(map(sub, dist[q], dist[p])), (((e,), None),))
        return got

    def choose(k, lay, pos, pa, pb):
        nonlocal lo, hi, at, last
        if k != at:
            at, last = k, None
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
            edges = candidates[pa, pb] = tuple(map(entry, sorted(edges_at[pa] + edges_at[pb])))
        best = None
        best_delta = 0
        for e in edges:
            if e is last:  # the swap back
                continue
            p, q, step, _ = e
            lp, lq = lay[p], lay[q]
            delta = 0
            for y in queues[lp]:  # lp's gates move from p to q
                if y != lq:  # the gate on the swapped pair keeps its distance
                    delta += step[pos[y]]
            for y in queues[lq]:
                if y != lp:
                    delta -= step[pos[y]]
            if delta < best_delta:
                best = e
                best_delta = delta
        last = best
        return best and best[3]

    return choose


def route(circuit: Circuit, cmap: CouplingMap, router: str = "basic", lookahead_window: int = 20,
          tail: int | None = None) -> RoutedCircuit:
    """Route with the named swap chooser ("basic" | "lookahead"), on a map
    at least as wide as the circuit; the caller has checked all three.
    From the tail-th 2-qubit gate on (counted from 0; None for none), a
    blocked gate the chooser leaves takes the map's move given the layout,
    which meets the operands nearest home."""
    choose = _lookahead_chooser(circuit, cmap, lookahead_window) if router == "lookahead" else None
    if tail is None:
        tail = len(circuit.kinds)  # past the last 2-qubit gate
    n = cmap.n_phys
    lay = list(range(n))  # physical -> logical
    pos = list(range(n))  # logical -> physical
    front = [0] * n  # physical -> the depth of its last gate so far
    dist = cmap.dist
    swap_of = cmap.swap_of  # [u][v]: the swap line of coupled u and v
    move = cmap.move
    lines: list[str] = []
    emit = lines.append
    swaps = 0
    barriers = iter(circuit.barriers)
    k = 0  # index of the current 2-qubit gate, for the chooser's window
    for head, a, b in statement_heads(circuit):
        if head is None:
            qubits = sorted(pos[q] for q in next(barriers))
            emit(barrier_statement(qubits, n))
            level = max([front[p] for p in qubits])
            for p in qubits:
                front[p] = level
            continue
        if b < 0:
            p = pos[a]
            emit(f"{head} q[{p}];")
            front[p] += 1
            continue
        pa, pb = pos[a], pos[b]
        while dist[pa][pb] != 1:
            parts = (choose and choose(k, lay, pos, pa, pb)) or move(pa, pb, lay if k >= tail else None)
            for hops, run in parts:
                for u, v in hops:
                    emit(swap_of[u][v])
                    lu, lv = lay[u], lay[v]
                    lay[u], lay[v] = lv, lu
                    pos[lu], pos[lv] = v, u
                    t, f = front[u], front[v]
                    front[u] = front[v] = (t if t > f else f) + 1
                    swaps += 1
                if run:
                    p, q, statements = run
                    lines.extend(statements)
                    # the qubit at p moves to q, one swap a step, and each
                    # qubit it passes shifts one step back
                    step = 1 if p < q else -1
                    moving, t = lay[p], front[p]
                    for x in range(p, q, step):
                        lay[x] = y = lay[x + step]
                        pos[y] = x
                        f = front[x + step]
                        front[x] = t = (t if t > f else f) + 1
                    lay[q], pos[moving], front[q] = moving, q, t
                    swaps += abs(q - p)
            pa, pb = pos[a], pos[b]
        k += 1
        emit(f"{head} q[{pa}],q[{pb}];")
        t, f = front[pa], front[pb]
        front[pa] = front[pb] = (t if t > f else f) + 1
    return RoutedCircuit(lines, tuple(lay), swaps, max(front))
