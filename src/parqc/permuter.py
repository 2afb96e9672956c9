"""
Permutation-circuit synthesis: SWAP a displaced layout back to the identity.

A layout is a plain tuple, layout[p] being the logical qubit at physical
position p; build_permutation rejects any layout that is not a permutation
of range(n_phys) for the map. Logical qubit q's home is physical position q.

The plan depends on the map:

- Grid and linear maps (those with CouplingMap.rows) are sorted by a network
  of rounds of disjoint swaps. A line is a single row, sorted by home
  position with odd-even transposition sort (Knuth, TAOCP vol. 3, 5.3.4):
  every swap removes one inversion, so the plan has exactly as many swaps as
  the layout has inversions, the fewest any plan on a path can use, in at
  most n rounds. A 2 x m grid takes the three phases of Alon, Chung & Graham
  ("Routing permutations on graphs via matchings", SIAM J. Discrete Math.
  1994): rung swaps that leave each row holding m distinct home columns, an
  odd-even transposition sort of both rows by home column in at most m
  rounds, and rung swaps into the home rows. Plan depth is at most n on a
  line and m + 2 on a grid.
- Custom maps take a greedy walk: it repeatedly picks the displaced logical
  qubit with the shortest home path (ties to the lowest qubit index), walks
  that shortest path (topology.astar_path) swapping adjacent pairs so the
  qubit travels all the way home, then recomputes every distance.

Either way the plan ends with every qubit at its home position, so appending
its SWAPs to a routed sub-circuit restores the trivial layout, which is what
lets compiled chunks concatenate directly. append_permutation adds them to
the routed chunk's QASM lines and operand stream (router.RoutedCircuit) the
way the router emits its own SWAPs. The pipeline does not check the
restoration again per chunk; tests/test_permuter.py checks it on every
layout of the small maps.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .circuit import barrier_statement, swap_statement
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
    if cmap.rows is None:
        swaps = _greedy_walk(source, cmap)
    else:
        swaps = _sorting_network(source, cmap.rows)
    return PermutationPlan(tuple(swaps), source)


def _edge(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def _sorting_network(layout: tuple[int, ...], rows) -> list[tuple[int, int]]:
    m = len(rows[0])
    home_row = [0] * len(layout)  # physical p, the home of logical p -> its row and column
    home_col = [0] * len(layout)
    for r, row in enumerate(rows):
        for c, p in enumerate(row):
            home_row[p], home_col[p] = r, c
    grid = [[layout[p] for p in row] for row in rows]  # logical qubit at each (row, column)
    swaps: list[tuple[int, int]] = []
    if len(rows) == 2:
        _rung_swaps(grid, rows, _distinct_column_flips(grid, home_col), swaps)
    for rnd in range(m):
        for line, row in zip(grid, rows):
            for c in range(rnd % 2, m - 1, 2):
                a, b = line[c], line[c + 1]
                if home_col[a] > home_col[b]:
                    line[c], line[c + 1] = b, a
                    swaps.append(_edge(row[c], row[c + 1]))
    if len(rows) == 2:
        _rung_swaps(grid, rows, [home_row[q] == 1 for q in grid[0]], swaps)
    return swaps


def _rung_swaps(grid, rows, flips, swaps) -> None:
    top, bottom = grid
    for c, flip in enumerate(flips):
        if flip:
            top[c], bottom[c] = bottom[c], top[c]
            swaps.append(_edge(rows[0][c], rows[1][c]))


def _distinct_column_flips(grid, home_col) -> list[bool]:
    """The columns to rung-swap so that each row holds every home column once.

    Every logical qubit is an edge from its current column to its home
    column. Each column has two qubits on either side, so this bipartite
    multigraph is a union of even cycles. Giving a cycle's edges alternate
    rows splits both the two qubits of a column and the two qubits of a home
    column between the rows. A cycle has two such colourings, and one moves
    the columns the other keeps; take the one with fewer rung swaps, and on
    a tie the one that keeps the cycle's first qubit in its row.
    """
    top, bottom = grid
    m = len(top)
    cur_col = [0] * (2 * m)
    mate = [0] * (2 * m)  # the other qubit in the same current column
    twin = [0] * (2 * m)  # the other qubit with the same home column
    first = [-1] * m
    for c in range(m):
        a, b = top[c], bottom[c]
        cur_col[a] = cur_col[b] = c
        mate[a], mate[b] = b, a
    for q in range(2 * m):
        t = home_col[q]
        if first[t] < 0:
            first[t] = q
        else:
            twin[q], twin[first[t]] = first[t], q
    flips = [False] * m
    seen = [False] * m
    for start in range(m):
        if seen[start]:
            continue
        # the walk gives q the top row, so its mate the bottom row, so the
        # twin of its mate the top row again, until the cycle closes
        cycle = []
        q = top[start]
        while not seen[cur_col[q]]:
            c = cur_col[q]
            seen[c] = True
            cycle.append((c, q != top[c]))
            q = twin[mate[q]]
        other = 2 * sum(flip for _, flip in cycle) > len(cycle)
        for c, flip in cycle:
            flips[c] = flip != other
    return flips


def _greedy_walk(source: tuple[int, ...], cmap: CouplingMap) -> list[tuple[int, int]]:
    n = cmap.n_phys
    lay = list(source)
    pos = [0] * n  # logical -> physical
    for p, l in enumerate(lay):
        pos[l] = p
    dist = cmap.dist
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
            swaps.append(_edge(u, v))
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
    return swaps


def append_permutation(sub: RoutedCircuit, plan: PermutationPlan) -> None:
    """Extend the routed chunk's lines and operand stream with a barrier over
    every qubit, the plan's swaps and another such barrier; its net layout
    becomes trivial."""
    if plan.source_layout != sub.final_layout:
        raise PermuterError("plan was built for a different layout than the sub-circuit's")
    n = len(plan.source_layout)
    every = barrier_statement(range(n), n)
    lines = sub.lines
    lines.append(every)
    lines.extend(swap_statement(u, v) for u, v in plan.swap_list)
    lines.append(every)
    sub.ops.extend(chain.from_iterable(plan.swap_list))
