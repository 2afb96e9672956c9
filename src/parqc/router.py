"""
NNA routing: rewrite a logical circuit onto physical indices, inserting SWAPs
so every 2-qubit gate lands on a coupled pair.

There is one routing loop, `route`. It streams the instruction list in order
from the trivial layout, keeps the layout arrays, maps barriers and 1-qubit
gates, and tests each 2-qubit gate for adjacency. Only the choice of SWAPs for
a blocked gate varies, through a swap chooser:

- "basic" has no chooser: the loop walks the shortest path between the
  operands (topology.astar_path: the lowest-index predecessor at each step,
  walked back from the target), swapping the first operand up next to the
  second (all hops but the last).
- "lookahead" scores every coupling edge touching either operand by the
  summed distance of the next `lookahead_window` 2-qubit gates and picks the
  lowest strictly-improving one (ties to the lowest edge). A swap moves only
  two logical qubits, so only the window gates on those two are rescored,
  found through a per-qubit index of 2-qubit gates that each `route` call
  (one per chunk) builds once; the choices are those of rescoring the whole
  window. When no candidate improves the window score, the loop finishes the
  gate along the shortest path, which guarantees termination.

The final layout comes back as a plain tuple, final_layout[p] being the
logical qubit at physical position p: the one layout shape the permuter,
pipeline, report and verifier share.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .circuit import BARRIER, Circuit, Instruction
from .topology import CouplingMap, astar_path


class RouteError(ValueError):
    pass


@dataclass(frozen=True)
class RoutedCircuit:
    """Physical-index circuit plus the layout its SWAPs produced."""

    circuit: Circuit
    final_layout: tuple[int, ...]
    inserted_swaps: int


def _lookahead_chooser(circuit: Circuit, cmap: CouplingMap, window_size: int):
    """Swap chooser scoring candidate edges over the window of the next
    window_size 2-qubit gates. choose(k, lay, pos, pa, pb) is asked while the
    k-th 2-qubit gate, on physical qubits pa and pb, is blocked; it returns the
    best edge or None.

    A swap of p and q moves only the logical qubits lay[p] and lay[q], so an
    edge is scored by the change it makes to the summed distance of the window
    gates on those two qubits; a gate on exactly that pair keeps its distance
    and is skipped. The per-qubit index below finds those gates by bisection.
    The first edge, in sorted order, with a negative change wins, and a later
    one only with a strictly lower change: the same choices as rescoring the
    whole window for every edge.
    """
    dist = cmap.dist
    neighbors = cmap.neighbors
    # physical qubit -> the coupling edges touching it, as (low, high) pairs
    edges_at = [tuple((p, nb) if p < nb else (nb, p) for nb in neighbors[p]) for p in range(cmap.n_phys)]
    # logical qubit -> numbers of its 2-qubit gates (ascending) and their partners
    gates = [[] for _ in range(cmap.n_phys)]
    partners = [[] for _ in range(cmap.n_phys)]
    g = 0
    for ins in circuit.instructions:
        if not ins.is_barrier and len(ins.qubits) == 2:
            x, y = ins.qubits
            gates[x].append(g)
            partners[x].append(y)
            gates[y].append(g)
            partners[y].append(x)
            g += 1

    def choose(k, lay, pos, pa, pb):
        end = k + window_size
        # physical qubit -> window partners of the logical qubit there
        moved = {}
        for p in (pa, pb, *neighbors[pa], *neighbors[pb]):
            x = lay[p]
            gs = gates[x]
            lo = bisect_left(gs, k)
            moved[p] = partners[x][lo : bisect_left(gs, end, lo)]
        best = None
        best_delta = 0
        # pa and pb are not coupled, so no edge touches both
        for p, q in sorted(edges_at[pa] + edges_at[pb]):
            dp, dq = dist[p], dist[q]
            lp, lq = lay[p], lay[q]
            delta = 0
            for y in moved[p]:  # lay[p]'s gates move from p to q
                if y != lq:  # the gate on the swapped pair keeps its distance
                    r = pos[y]
                    delta += dq[r] - dp[r]
            for y in moved[q]:
                if y != lp:
                    r = pos[y]
                    delta += dp[r] - dq[r]
            if delta < best_delta:
                best = (p, q)
                best_delta = delta
        return best

    return choose


def route(circuit: Circuit, cmap: CouplingMap, router: str = "basic", lookahead_window: int = 20) -> RoutedCircuit:
    """Route with the named swap chooser ("basic" | "lookahead")."""
    if router not in ("basic", "lookahead"):
        raise RouteError(f"unknown router {router!r} (expected basic or lookahead)")
    if router == "lookahead" and lookahead_window < 1:
        raise RouteError(f"lookahead_window must be >= 1, got {lookahead_window}")
    if circuit.width > cmap.n_phys:
        raise RouteError(f"circuit width {circuit.width} exceeds {cmap.n_phys} physical qubits")
    # built after the width check: the chooser indexes logical qubits by physical count
    choose = _lookahead_chooser(circuit, cmap, lookahead_window) if router == "lookahead" else None
    n = cmap.n_phys
    lay = list(range(n))  # physical -> logical
    pos = list(range(n))  # logical -> physical
    dist = cmap.dist
    out: list[Instruction] = []
    swaps = 0
    k = 0  # index of the current 2-qubit gate, for the chooser's window
    for ins in circuit.instructions:
        qs = ins.qubits
        if ins.is_barrier:
            out.append(Instruction(BARRIER, tuple(sorted(pos[q] for q in qs))))
            continue
        if len(qs) == 1:
            out.append(Instruction(ins.kind, (pos[qs[0]],), ins.params))
            continue
        a, b = qs
        pa, pb = pos[a], pos[b]
        while dist[pa][pb] != 1:
            best = choose(k, lay, pos, pa, pb) if choose else None
            if best:
                hops = (best,)
            else:
                path = astar_path(cmap, pa, pb)
                hops = zip(path, path[1:-1])
            for u, v in hops:
                out.append(Instruction("swap", (u, v) if u < v else (v, u)))
                lu, lv = lay[u], lay[v]
                lay[u], lay[v] = lv, lu
                pos[lu], pos[lv] = v, u
                swaps += 1
            pa, pb = pos[a], pos[b]
        k += 1
        out.append(Instruction(ins.kind, (pa, pb), ins.params))
    routed = Circuit(n, out, name=circuit.name + "-routed")
    return RoutedCircuit(routed, tuple(lay), swaps)
