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
- Custom maps take the token-swapping loop of Miltzow et al.
  ("Approximation and Hardness of Token Swapping", ESA 2016). A misplaced
  qubit has an arc to each neighbour one hop closer to its home. From a
  misplaced position the loop follows arcs, each time to the lowest-index
  such neighbour (read from the map's hop table), until the walk either
  closes a cycle or reaches a position whose qubit is already home. A cycle
  of k positions is rotated by k - 1 swaps walked back from its end, which
  takes every qubit on it one hop closer; otherwise one unhappy swap on the
  walk's last arc moves its qubit closer and the home qubit one hop out.
  Walks start from each position in turn until its qubit is home, and one
  pass over the positions leaves every qubit home. The paper proves that it
  ends within 2 * sum of the qubits' hop distances from home, and since a
  swap moves two qubits one hop each, no plan has fewer than half that sum:
  the plan is within 4x of the fewest swaps.

Either way the plan ends with every qubit at its home position, so appending
its SWAPs to a routed sub-circuit restores the trivial layout, which is what
lets compiled chunks concatenate directly. append_permutation adds them to
the routed chunk's QASM lines and operand stream (router.RoutedCircuit) the
way the router emits its own SWAPs. The pipeline does not check the
restoration again per chunk; tests/test_permuter.py checks it on every
layout of the small maps and on sampled layouts of larger custom maps.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .circuit import barrier_statement, swap_statement
from .router import RoutedCircuit
from .topology import CouplingMap
# unused here, kept because bench/tracer.py looks up this name when it starts
from .topology import astar_path  # noqa: F401


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
        swaps = _token_swap(source, cmap)
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


def _token_swap(source: tuple[int, ...], cmap: CouplingMap) -> list[tuple[int, int]]:
    dist, neighbors = cmap.dist, cmap.neighbors
    lay = list(source)
    swaps: list[tuple[int, int]] = []

    def swap(u: int, v: int) -> None:
        lay[u], lay[v] = lay[v], lay[u]
        swaps.append(_edge(u, v))

    # One pass over the positions suffices. A walk only ever changes its own
    # tail, and a qubit that an unhappy swap pushes out of its home points
    # straight back there, so every later walk from `start` passes through
    # it, and the rotation that finally brings `start` its own qubit, a cycle
    # through the whole walk, brings that one home too.
    for start in range(len(lay)):
        while lay[start] != start:
            walk, seen = [start], {start: 0}
            while lay[walk[-1]] != walk[-1]:
                u = walk[-1]
                home = dist[lay[u]]
                v = next(v for v in neighbors[u] if home[v] < home[u])
                if v in seen:  # rotate the cycle: each of its qubits one hop closer
                    cycle = walk[seen[v]:]
                    for i in range(len(cycle) - 2, -1, -1):
                        swap(cycle[i], cycle[i + 1])
                    break
                seen[v] = len(walk)
                walk.append(v)
            else:  # the walk met a qubit at home: one unhappy swap on the last arc
                swap(walk[-2], walk[-1])
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
