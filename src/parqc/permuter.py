"""
Permutation-circuit synthesis: SWAP a displaced layout back to the identity.

A layout is a plain tuple, layout[p] being the logical qubit at physical
position p; build_permutation rejects any layout that is not a permutation
of range(n_phys) for the map. Logical qubit q's home is physical position q.

The plan depends on the map:

- Maps of kind linear or grid, whose rows number the positions row-major,
  are sorted by a network of rounds of disjoint swaps; a qubit's home column
  is its index modulo the row length. A line is a single row, sorted by home
  position with odd-even transposition sort (Knuth, TAOCP vol. 3, 5.3.4):
  every swap removes one inversion, so the plan has exactly as many swaps as
  the layout has inversions, the fewest any plan on a path can use, in at
  most n rounds. A 2 x m grid takes the three phases of Alon, Chung & Graham
  ("Routing permutations on graphs via matchings", SIAM J. Discrete Math.
  1994): rung swaps that leave each row holding m distinct home columns, an
  odd-even transposition sort of both rows by home column in at most m
  rounds, and rung swaps into the home rows. Qubits q and q + m share home
  column q % m, so the first phase walks from a qubit to the other qubit of
  its column and on to that one's twin q +- m, giving them the rows in turn.
  Plan depth is at most n on a line and m + 2 on a grid.
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
way the router emits its own SWAPs: each statement comes from the map's SWAP
table (CouplingMap.swap_of), the one the router reads. The pipeline does not
check the restoration again per chunk; tests/test_permuter.py checks it on
every layout of the small maps and on sampled layouts of larger custom maps.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .circuit import barrier_statement
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
        swaps = _sorting_network(source, len(cmap.rows))
    return PermutationPlan(tuple(swaps), source)


def _sorting_network(layout: tuple[int, ...], n_rows: int) -> list[tuple[int, int]]:
    m = len(layout) // n_rows  # row r holds positions r*m .. r*m + m - 1; q's home column is q % m
    grid = [list(layout[r * m : r * m + m]) for r in range(n_rows)]  # logical qubit at each (row, column)
    swaps: list[tuple[int, int]] = []

    def rung_swaps(flips) -> None:
        top, bottom = grid
        for c, flip in enumerate(flips):
            if flip:
                top[c], bottom[c] = bottom[c], top[c]
                swaps.append((c, m + c))

    if n_rows == 2:
        rung_swaps(_distinct_column_flips(grid))
    for rnd in range(m):
        for r, line in enumerate(grid):
            for c in range(rnd % 2, m - 1, 2):
                a, b = line[c], line[c + 1]
                if a % m > b % m:
                    line[c], line[c + 1] = b, a
                    swaps.append((r * m + c, r * m + c + 1))
    if n_rows == 2:
        rung_swaps([q >= m for q in grid[0]])
    return swaps


def _distinct_column_flips(grid) -> list[bool]:
    """The columns to rung-swap so that each row holds every home column once.

    Every logical qubit is an edge from its current column to its home
    column, shared by q and q + m; each column has two qubits on either
    side, so this bipartite multigraph is a union of even cycles. The walk
    gives a qubit the top row, the other qubit of its column the bottom row
    and that one's twin the top row, around the cycle, so each column's and
    each home column's two qubits take both rows. The other colouring moves
    the columns this one keeps: take the one with fewer rung swaps, and on
    a tie the one that keeps the cycle's first qubit in its row.
    """
    top, bottom = grid
    m = len(top)
    col = [0] * (2 * m)  # logical qubit -> current column
    for c in range(m):
        col[top[c]] = col[bottom[c]] = c
    flips = [False] * m
    seen = [False] * m
    for start in range(m):
        if seen[start]:
            continue
        cycle, q = [], top[start]
        while not seen[col[q]]:
            c = col[q]
            seen[c] = True
            cycle.append(c)
            flips[c] = flip = q != top[c]
            q = ((top[c] if flip else bottom[c]) + m) % (2 * m)  # the column's other qubit's twin
        if 2 * sum([flips[c] for c in cycle]) > len(cycle):
            for c in cycle:
                flips[c] = not flips[c]
    return flips


def _token_swap(source: tuple[int, ...], cmap: CouplingMap) -> list[tuple[int, int]]:
    dist, neighbors = cmap.dist, cmap.neighbors
    lay = list(source)
    swaps: list[tuple[int, int]] = []

    def swap(u: int, v: int) -> None:
        lay[u], lay[v] = lay[v], lay[u]
        swaps.append((u, v) if u < v else (v, u))

    # One pass over the positions suffices. A walk only ever changes its own
    # tail, and a qubit that an unhappy swap pushes out of its home points
    # straight back there, so every later walk from `start` passes through
    # it, and the rotation that finally brings `start` its own qubit, a cycle
    # through the whole walk, brings that one home too. The qubits before the
    # changed tail have not moved, so a walk restarted from `start` would
    # retrace them: the walk keeps that prefix and continues from its end.
    for start in range(len(lay)):
        walk, seen = [start], {start: 0}
        while lay[start] != start:
            u = walk[-1]
            if lay[u] == u:  # the walk met a qubit at home: one unhappy swap on the last arc
                swap(walk[-2], u)
                del seen[walk.pop()]
                continue
            home = dist[lay[u]]
            v = next(v for v in neighbors[u] if home[v] < home[u])
            if v in seen:  # rotate the cycle: each of its qubits one hop closer
                cycle = walk[seen[v]:]
                for i in range(len(cycle) - 2, -1, -1):
                    swap(cycle[i], cycle[i + 1])
                for p in cycle[1:]:
                    del seen[p]
                del walk[seen[v] + 1:]
                continue
            seen[v] = len(walk)
            walk.append(v)
    return swaps


def append_permutation(sub: RoutedCircuit, plan: PermutationPlan, cmap: CouplingMap) -> None:
    """Extend the routed chunk's lines and operand stream with a barrier over
    every qubit, the plan's swaps and another such barrier, and set its
    final_layout to the trivial layout they leave. cmap is the map the plan
    was built for; its swap_of table spells the swaps."""
    if plan.source_layout != sub.final_layout:
        raise PermuterError("plan was built for a different layout than the sub-circuit's")
    n = len(plan.source_layout)
    every = barrier_statement(range(n), n)
    lines = sub.lines
    lines.append(every)
    swap_of = cmap.swap_of
    lines.extend(swap_of[u][v][0] for u, v in plan.swap_list)
    lines.append(every)
    sub.ops.extend(chain.from_iterable(plan.swap_list))
    sub.final_layout = tuple(range(n))
