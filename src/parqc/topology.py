"""
Processor connectivity graphs and shortest-path queries.

A map's kind is its shape: "linear" is one row and "grid" two rows of equal
length, numbered row-major, whose edges must be exactly the rows' (with each
column's pair on a grid); "custom" has no rows, even when its edges happen
to form a line or a grid. Rows are what let the permuter sort instead of
search. build_grid gives the 2 x m grid (m = ceil(width/2), one spare qubit
for odd widths) and build_linear the line; custom maps load from JSON files
that hold JSON integers only.

Each map builds its all-pairs hop table once, with the map, and the table
travels with it in pickles, so a worker that receives a map uses the table
as is. There is one path rule for every map: the shortest src -> dst path is
walked back from dst, stepping each time to the lowest-index neighbour one
hop closer to src, and then reversed. Identical inputs therefore always yield
identical paths. On a line or a grid, numbered row-major, that rule makes
every path one straight run along a row, or a run along row 0 joined to row
1 by one rung: at the end of the run when src is in row 0, at its start when
src is in row 1. Such a map also holds, per row, the SWAPs of its
consecutive pairs in both directions (row_swaps), built once with it.
CouplingMap.shortest_move, the router's one move along a shortest path,
slices each run from them; on a custom map it is the path hop by hop.
"""
from __future__ import annotations

import json
import math
from array import array
from collections import deque

from .circuit import swap_statement


class TopologyError(ValueError):
    pass


_ROW_COUNT = {"custom": 0, "linear": 1, "grid": 2}  # a map's kind -> its number of rows


class CouplingMap:
    """Undirected, connected physical-qubit graph and its all-pairs hop table.

    dist[a][b] is the hop count between nodes a and b. The constructor builds
    it once, one BFS per node, and it answers every graph question: the map
    is connected when row 0 has no -1 (unreachable), a and b are coupled when
    dist[a][b] is 1, and shortest paths walk it. swap_of[a][b], for coupled
    a and b, is the SWAP statement on them (operands low then high) with its
    two operands; the router and the permuter emit every SWAP from it. A
    pickle carries the tables and the checked fields as they are, so
    unpickling neither re-checks the map nor rebuilds a table.

    kind is "custom", "linear" or "grid". A linear or grid map has rows, one
    or two tuples of n_phys / len(rows) consecutive nodes, and row_swaps,
    per row its consecutive pairs' SWAP statements and (low, high) operand
    stream, left to right and then right to left; a custom map has neither.
    shortest_move, the router's move along a shortest path, reads row_swaps.
    """

    __slots__ = ("n_phys", "edges", "kind", "rows", "neighbors", "dist", "swap_of", "row_swaps")

    def __init__(self, n_phys: int, edges, kind: str = "custom"):
        if kind not in _ROW_COUNT:
            raise TopologyError(f"unknown map kind {kind!r} (custom | linear | grid)")
        if n_phys < 1:
            raise TopologyError(f"need at least 1 physical qubit, got {n_phys}")
        norm = set()
        for a, b in edges:
            a, b = int(a), int(b)
            if a == b:
                raise TopologyError(f"self-loop on node {a}")
            if not (0 <= a < n_phys and 0 <= b < n_phys):
                raise TopologyError(f"edge ({a},{b}) out of range for {n_phys} nodes")
            norm.add((a, b) if a < b else (b, a))
        self.n_phys = n_phys
        self.edges = tuple(sorted(norm))
        self.kind = kind
        nbrs = [[] for _ in range(n_phys)]
        for a, b in self.edges:
            nbrs[a].append(b)
            nbrs[b].append(a)
        self.neighbors = tuple(tuple(sorted(ns)) for ns in nbrs)
        n_rows = _ROW_COUNT[kind]
        self.rows = None
        if n_rows:
            if n_phys % n_rows:
                raise TopologyError(f"a grid map needs an even number of nodes, got {n_phys}")
            m = n_phys // n_rows
            self.rows = tuple(tuple(range(r * m, r * m + m)) for r in range(n_rows))
            if _row_edges(self.rows) != norm:
                raise TopologyError(f"the edges are not those of a {kind} map of {n_phys} nodes")
        # the hop table's row 0 alone decides connectivity, so a disconnected
        # map fails before the other n_phys - 1 table rows are built
        row0 = _bfs_hops(self.neighbors, 0)
        reached = n_phys - row0.count(-1)
        if reached != n_phys:
            raise TopologyError(f"coupling map is disconnected ({reached}/{n_phys} reachable)")
        self.dist = (row0,) + tuple(_bfs_hops(self.neighbors, src) for src in range(1, n_phys))
        swap_of = tuple({} for _ in range(n_phys))
        for a, b in self.edges:
            swap_of[a][b] = swap_of[b][a] = (swap_statement(a, b), a, b)
        self.swap_of = swap_of
        self.row_swaps = None if self.rows is None else tuple(_row_swaps(row, swap_of) for row in self.rows)

    def shortest_move(self, pa: int, pb: int):
        """The SWAPs that move the qubit at pa along astar_path(self, pa, pb)
        until it sits next to pb (pa and pb uncoupled), as (hops, run): hops
        are coupled pairs swapped one at a time, in order, and run is None or
        (p, q, statements, operands), a run along a row that moves the qubit
        at p to q and every qubit between one step back, as slices of
        row_swaps. A custom map's move is all hops; a linear or grid map's is
        the rung up if pa is below pb (a rung down is the path's last hop,
        never taken) and a run."""
        if self.rows is None:
            path = astar_path(self, pa, pb)
            return tuple(zip(path, path[1:-1])), None
        m = len(self.rows[0])
        r, i = divmod(pa, m)
        rb, j = divmod(pb, m)
        hops = ()
        if r > rb:  # the rung up
            hops, r = ((pa, i),), 0
        if r == rb:  # stop in the column next to pb's
            j += 1 if j < i else -1
        (right, right_ops), (left, left_ops) = self.row_swaps[r]
        if i < j:
            statements, operands = right[i:j], right_ops[2 * i : 2 * j]
        else:  # the right-to-left tables count columns from the right
            ri, rj = m - 1 - i, m - 1 - j
            statements, operands = left[ri:rj], left_ops[2 * ri : 2 * rj]
        return hops, (r * m + i, r * m + j, statements, operands)

    def __eq__(self, other):
        if not isinstance(other, CouplingMap):
            return NotImplemented
        return (self.n_phys, self.edges, self.kind) == (other.n_phys, other.edges, other.kind)

    def __hash__(self):
        return hash((self.n_phys, self.edges, self.kind))

    def __repr__(self):
        return f"CouplingMap({self.kind}, n_phys={self.n_phys}, {len(self.edges)} edges)"


def _bfs_hops(neighbors, src: int) -> tuple[int, ...]:
    """Hop counts from src to every node; -1 marks an unreachable node."""
    row = [-1] * len(neighbors)
    row[src] = 0
    queue = deque([src])
    while queue:
        u = queue.popleft()
        du = row[u] + 1
        for v in neighbors[u]:
            if row[v] < 0:
                row[v] = du
                queue.append(v)
    return tuple(row)


def build_grid(width: int) -> CouplingMap:
    """2 x m grid for m = ceil(width/2); odd widths leave one spare node."""
    if width < 2:
        raise TopologyError(f"grid needs width >= 2, got {width}")
    m = math.ceil(width / 2)
    return CouplingMap(2 * m, _row_edges((range(m), range(m, 2 * m))), kind="grid")


def build_linear(width: int) -> CouplingMap:
    if width < 2:
        raise TopologyError(f"linear needs width >= 2, got {width}")
    return CouplingMap(width, _row_edges((range(width),)), kind="linear")


def _row_swaps(row, swap_of):
    """The SWAPs of each consecutive pair of a row, left to right and then
    right to left: each direction as its statements and its operand stream
    of (low, high) pairs."""
    right = [swap_of[u][v] for u, v in zip(row, row[1:])]
    return tuple(
        (tuple(line for line, _, _ in run), array("i", [p for _, lo, hi in run for p in (lo, hi)]))
        for run in (right, right[::-1])
    )


def _row_edges(rows) -> set[tuple[int, int]]:
    """Consecutive nodes of each row, and with two rows each column's pair."""
    pairs = [pair for row in rows for pair in zip(row, row[1:])]
    if len(rows) == 2:
        pairs += zip(*rows)
    return {(a, b) if a < b else (b, a) for a, b in pairs}


def load_coupling_map(path) -> CouplingMap:
    """Custom map file: {"n_phys": N, "edges": [[a, b], ...]}, JSON integers only."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # undecodable bytes or malformed JSON
            raise TopologyError(f"bad coupling map file {path}: not JSON: {exc}") from exc
    if not isinstance(data, dict):
        problem = "not a JSON object"
    elif not _is_json_int(data.get("n_phys")):
        problem = f"n_phys must be a JSON integer, got {data.get('n_phys')!r}"
    elif not isinstance(data.get("edges"), list):
        problem = f"edges must be a list of pairs, got {data.get('edges')!r}"
    else:
        bad = [e for e in data["edges"]
               if not (isinstance(e, list) and len(e) == 2 and all(map(_is_json_int, e)))]
        problem = bad and f"edge {bad[0]!r} is not a pair of JSON integers"
    if problem:
        raise TopologyError(f"bad coupling map file {path}: {problem}")
    try:
        return CouplingMap(data["n_phys"], data["edges"], kind="custom")
    except TopologyError as exc:  # disconnected, self-loop, edge out of range
        raise TopologyError(f"bad coupling map file {path}: {exc}") from exc


def _is_json_int(value) -> bool:
    return type(value) is int  # bool is a subclass of int but not a JSON integer


def astar_path(cmap: CouplingMap, src: int, dst: int) -> list[int]:
    """Shortest node path including both endpoints; src == dst gives [src].

    Walks back from dst over the map's hop table, each step to the
    lowest-index neighbour one hop closer to src. The name is historical: no
    search runs. src and dst are trusted to be nodes of the map: the router
    takes them from its layout of the map's positions.
    """
    dist = cmap.dist[src]
    neighbors = cmap.neighbors
    path = [dst]
    node = dst
    for d in range(dist[dst] - 1, -1, -1):
        # neighbours are sorted, so the first one found at hop count d is the
        # lowest-index one; a connected map always has one
        for node in neighbors[node]:
            if dist[node] == d:
                break
        path.append(node)
    path.reverse()
    return path
