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
  lowest strictly-improving one (ties to the lowest edge). When no candidate
  improves the window score, the loop finishes the gate along the shortest
  path, which guarantees termination.
"""
from __future__ import annotations

from dataclasses import dataclass

from .circuit import BARRIER, Circuit, Instruction
from .topology import CouplingMap, astar_path


class RouteError(ValueError):
    pass


class Layout:
    """Bijection physical position -> logical qubit. Trivial = identity."""

    __slots__ = ("_p2l",)

    def __init__(self, phys_to_logical):
        p2l = tuple(int(x) for x in phys_to_logical)
        if sorted(p2l) != list(range(len(p2l))):
            raise ValueError(f"not a permutation: {p2l}")
        self._p2l = p2l

    @classmethod
    def trivial(cls, n_phys: int) -> "Layout":
        return cls(range(n_phys))

    @property
    def phys_to_logical(self) -> tuple[int, ...]:
        return self._p2l

    def inverse(self) -> tuple[int, ...]:
        """logical -> physical position."""
        inv = [0] * len(self._p2l)
        for p, l in enumerate(self._p2l):
            inv[l] = p
        return tuple(inv)

    def apply_swaps(self, pairs) -> "Layout":
        lst = list(self._p2l)
        for p, q in pairs:
            lst[p], lst[q] = lst[q], lst[p]
        return Layout(lst)

    @property
    def is_trivial(self) -> bool:
        return self._p2l == tuple(range(len(self._p2l)))

    def __len__(self):
        return len(self._p2l)

    def __iter__(self):
        return iter(self._p2l)

    def __eq__(self, other):
        if not isinstance(other, Layout):
            return NotImplemented
        return self._p2l == other._p2l

    def __hash__(self):
        return hash(self._p2l)

    def __repr__(self):
        return f"Layout({list(self._p2l)})"


@dataclass(frozen=True)
class RoutedCircuit:
    """Physical-index circuit plus the layout its SWAPs produced."""

    circuit: Circuit
    final_layout: Layout
    inserted_swaps: int


def _lookahead_chooser(circuit: Circuit, cmap: CouplingMap, window_size: int):
    """Swap chooser scoring candidate edges over the next window_size 2-qubit
    gates. choose(k, pos, pa, pb) is asked while the k-th 2-qubit gate, on
    physical qubits pa and pb, is blocked; it returns the best edge or None."""
    dist = cmap.distance_matrix()
    neighbors = cmap.neighbors
    twoq_pairs = [ins.qubits for ins in circuit.instructions if not ins.is_barrier and len(ins.qubits) == 2]

    def choose(k, pos, pa, pb):
        window = twoq_pairs[k : k + window_size]
        best = None
        best_score = sum(dist[pos[x]][pos[y]] for x, y in window)
        cands = sorted({(p, nb) if p < nb else (nb, p) for p in (pa, pb) for nb in neighbors[p]})
        for p, q in cands:
            score = 0
            for x, y in window:
                px = pos[x]
                if px == p:
                    px = q
                elif px == q:
                    px = p
                py = pos[y]
                if py == p:
                    py = q
                elif py == q:
                    py = p
                score += dist[px][py]
            if score < best_score:
                best = (p, q)
                best_score = score
        return best

    return choose


def route(circuit: Circuit, cmap: CouplingMap, router: str = "basic", lookahead_window: int = 20) -> RoutedCircuit:
    """Route with the named swap chooser ("basic" | "lookahead")."""
    if router == "basic":
        choose = None
    elif router == "lookahead":
        if lookahead_window < 1:
            raise RouteError(f"lookahead_window must be >= 1, got {lookahead_window}")
        choose = _lookahead_chooser(circuit, cmap, lookahead_window)
    else:
        raise RouteError(f"unknown router {router!r} (expected basic or lookahead)")
    if circuit.width > cmap.n_phys:
        raise RouteError(f"circuit width {circuit.width} exceeds {cmap.n_phys} physical qubits")
    n = cmap.n_phys
    lay = list(range(n))  # physical -> logical
    pos = list(range(n))  # logical -> physical
    edge_set = cmap.edge_set
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
        while ((pa, pb) if pa < pb else (pb, pa)) not in edge_set:
            best = choose(k, pos, pa, pb) if choose else None
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
    return RoutedCircuit(routed, Layout(lay), swaps)
