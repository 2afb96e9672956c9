"""
Permutation-circuit synthesis: SWAP a displaced layout back to the identity.

A layout is a plain tuple, layout[p] being the logical qubit at physical
position p; build_permutation rejects any layout that is not a permutation
of range(n_phys) for the map.

The planner repeatedly picks the displaced logical qubit with the shortest
home path (ties to the lowest qubit index), walks that shortest path
(topology.astar_path) swapping adjacent pairs so the qubit travels all the
way home, then recomputes every distance. It returns only when every qubit
sits at its home position, so appending the planned SWAPs to a routed
sub-circuit restores the trivial layout, which is what lets compiled chunks
concatenate directly. The pipeline does not check this again per chunk;
tests/test_permuter.py checks it on every layout of the small maps.
"""
from __future__ import annotations

from dataclasses import dataclass

from .circuit import BARRIER, Circuit, Instruction
from .router import RoutedCircuit
from .topology import CouplingMap, astar_path


class PermuterError(RuntimeError):
    pass


@dataclass(frozen=True)
class PermutationPlan:
    """Ordered coupling-edge swaps taking source_layout to the identity."""

    swap_list: tuple[tuple[int, int], ...]
    source_layout: tuple[int, ...]


def build_permutation(final_layout: tuple[int, ...], cmap: CouplingMap) -> PermutationPlan:
    n = cmap.n_phys
    source = tuple(final_layout)
    if sorted(source) != list(range(n)):
        raise PermuterError(f"layout {list(source)} is not a permutation of range({n})")
    lay = list(source)
    pos = [0] * n  # logical -> physical
    for p, l in enumerate(lay):
        pos[l] = p
    dist = cmap.distance_matrix()
    swaps: list[tuple[int, int]] = []

    def displaced_total() -> int:
        return sum(dist[q][pos[q]] for q in range(n))

    # Transporting the closest displaced qubit home shifts every other qubit
    # on its path one hop, +-1 each, so the total can stall at one value for a
    # stretch (e.g. [1,2,0] on a 3-line) but can never grow. Stall runs stay
    # tiny in practice; the cap only catches a genuinely stuck custom map.
    total = displaced_total()
    stall_run = 0
    stall_cap = max(16, n * n)
    while True:
        # the displaced qubit with minimum path node count > 1; node count is
        # hop distance + 1, so this is min positive hop distance
        pick = None
        pick_d = None
        for q in range(n):
            d = dist[q][pos[q]]
            if d > 0 and (pick_d is None or d < pick_d):
                pick, pick_d = q, d
        if pick is None:
            break
        path = astar_path(cmap, pick, pos[pick])  # home -> current position
        # walk in reverse so `pick` rides each swap one hop toward home
        for i in range(len(path) - 2, -1, -1):
            u, v = path[i], path[i + 1]
            swaps.append((u, v) if u < v else (v, u))
            lu, lv = lay[u], lay[v]
            lay[u], lay[v] = lv, lu
            pos[lu], pos[lv] = v, u
        new_total = displaced_total()
        if new_total > total:
            raise PermuterError(
                f"displaced distance grew from {total} to {new_total}; "
                "this should be impossible on an undirected map"
            )
        if new_total == total:
            stall_run += 1
            if stall_run > stall_cap:
                raise PermuterError(
                    f"no progress after {stall_run} iterations at displaced distance {total}"
                )
        else:
            stall_run = 0
        total = new_total
    return PermutationPlan(tuple(swaps), source)


def append_permutation(sub: RoutedCircuit, plan: PermutationPlan) -> Circuit:
    """Sub-circuit + barrier + plan swaps + barrier; net layout becomes trivial."""
    if plan.source_layout != sub.final_layout:
        raise PermuterError("plan was built for a different layout than the sub-circuit's")
    circ = sub.circuit
    all_q = tuple(range(circ.width))
    instrs = list(circ.instructions)
    instrs.append(Instruction(BARRIER, all_q))
    for u, v in plan.swap_list:
        instrs.append(Instruction("swap", (u, v)))
    instrs.append(Instruction(BARRIER, all_q))
    return Circuit(circ.width, instrs, name=circ.name + "+perm")
