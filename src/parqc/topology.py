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
The router moves along a shortest path with CouplingMap.move, which meets
the two qubits at a split of the path: by default the one next to the
second qubit, so the first qubit walks to it, and given the layout the one
that leaves the qubits on the path nearest home. On a line or a grid
astar_path works the path out from the rows, and a move slices each run
from row_swaps, from both ends of a row; on a custom map a move is the path
hop by hop.
"""
from __future__ import annotations

import json
import math
from collections import deque

from .circuit import swap_statement


class TopologyError(ValueError):
    pass


_ROW_COUNT = {"custom": 0, "linear": 1, "grid": 2}  # a map's kind -> its number of rows
_NO_WALK = (), None  # the (hops, run) of a qubit that stays


class CouplingMap:
    """Undirected, connected physical-qubit graph and its all-pairs hop table.

    dist[a][b] is the hop count between nodes a and b. The constructor builds
    it once, one BFS per node, and it answers every graph question: the map
    is connected when row 0 has no -1 (unreachable), a and b are coupled when
    dist[a][b] is 1, and shortest paths walk it. swap_of[a][b], for coupled
    a and b, is the SWAP statement on them (operands low then high); the
    router and the permuter emit every SWAP from it. A pickle carries the
    tables and the checked fields as they are, so unpickling neither
    re-checks the map nor rebuilds a table.

    kind is "custom", "linear" or "grid". A linear or grid map has rows, one
    or two tuples of n_phys / len(rows) consecutive nodes, and row_swaps,
    per row its consecutive pairs' SWAP statements, left to right and then
    right to left; a custom map has neither. move, the router's move along
    a shortest path, reads row_swaps.
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
            swap_of[a][b] = swap_of[b][a] = swap_statement(a, b)
        self.swap_of = swap_of
        self.row_swaps = None if self.rows is None else tuple(_row_swaps(row, swap_of) for row in self.rows)

    def move(self, pa: int, pb: int, lay=None):
        """The SWAPs that meet the qubits at pa and pb (uncoupled) on
        astar_path(self, pa, pb), p_0 = pa .. p_L = pb. Split s puts the
        qubit at pa on p_s and the one at pb on p_{s+1}, so every split takes
        L - 1 SWAPs. Without lay the split is L - 1: the qubit at pa walks
        until it sits next to pb. With lay, the layout (physical -> logical;
        logical q's home is physical q), the split is the one that leaves the
        qubits on the path nearest home, the largest on a tie, so a tie keeps
        split L - 1. Returns two parts, each (hops, run): the walk of the
        qubit at pa to p_s, then that of the qubit at pb back to p_{s+1}.
        hops are coupled pairs swapped one at a time, in order, and run is
        None or (p, q, statements), a run along a row that moves the qubit at
        p to q and every qubit between one step back, its statements a slice
        of row_swaps. On a linear or grid map each walk is at most a rung up
        and a run; on a custom map it is hops."""
        path = astar_path(self, pa, pb)
        end = len(path) - 1
        s = end - 1 if lay is None else _homeward_split(path, lay, self.dist)
        if self.rows is None:
            back = path[:s:-1]
            return (tuple(zip(path, path[1 : s + 1])), None), (tuple(zip(back, back[1:])), None)
        return (self._row_walk(pa, path[s]) if s else _NO_WALK,
                self._row_walk(pb, path[s + 1]) if s + 1 < end else _NO_WALK)

    def _row_walk(self, p: int, q: int):
        """(hops, run), a part of a move, that moves the qubit at
        p (on a linear or grid map) to q != p along the map's path rule: the
        rung up first when p is in row 1 and q in row 0, then the run along
        q's row."""
        m = len(self.rows[0])
        hops = ()
        if p // m != q // m:
            hops, p = ((p, p - m),), p - m
        r, i = divmod(p, m)
        j = q - r * m
        right, left = self.row_swaps[r]
        # the right-to-left table counts columns from the right
        return hops, (p, q, right[i:j] if i < j else left[m - 1 - i : m - 1 - j])

    def __eq__(self, other):
        if not isinstance(other, CouplingMap):
            return NotImplemented
        return (self.n_phys, self.edges, self.kind) == (other.n_phys, other.edges, other.kind)

    def __hash__(self):
        return hash((self.n_phys, self.edges, self.kind))

    def __repr__(self):
        return f"CouplingMap({self.kind}, n_phys={self.n_phys}, {len(self.edges)} edges)"


def _homeward_split(path, lay, dist) -> int:
    """The split s of path, p_0 .. p_L, that meets the qubits at p_0 and p_L
    with the lowest summed hop distance from home of the qubits at p_0 ..
    p_L, the largest s on a tie. The qubits at p_1 .. p_s each step back one
    node and those at p_{s+1} .. p_{L-1} each step on one, so from split
    s + 1 to s only the qubit at p_{s+1} changes its step, from p_s to
    p_{s+2}: one pass from s = L - 1 down keeps the cost, relative to
    s = L - 1's, as a running sum."""
    nodes = reversed(path)
    z = next(nodes)  # p_{s+2}, then p_{s+1} and p_s as the pass goes
    y = next(nodes)
    da = dist[lay[path[0]]]
    db = dist[lay[z]]
    best = da[y] + db[z]
    best_x = y
    ahead = 0  # how much farther from home the qubits at p_{s+1} .. p_{L-1} end than at s = L - 1
    for x in nodes:
        dy = dist[lay[y]]
        ahead += dy[z] - dy[x]
        cost = da[x] + db[y] + ahead
        if cost < best:
            best = cost
            best_x = x
        z = y
        y = x
    return path.index(best_x)


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
    """The SWAP statements of each consecutive pair of a row, left to right
    and then right to left."""
    right = tuple(swap_of[u][v] for u, v in zip(row, row[1:]))
    return right, right[::-1]


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


def astar_path(cmap: CouplingMap, src: int, dst: int) -> list[int] | range:
    """Shortest node path including both endpoints; src == dst gives src alone.

    Walks back from dst over the map's hop table, each step to the
    lowest-index neighbour one hop closer to src. On a linear or grid map
    the same path comes from the rows: a range along one row, or a list of a
    run along row 0 and a rung. The name is historical: no search runs. src
    and dst are trusted to be nodes of the map: the router takes them from
    its layout of the map's positions.
    """
    if cmap.rows is not None:
        m = len(cmap.rows[0])
        i, j = src % m, dst % m
        step = 1 if i < j else -1
        if src < m <= dst:  # the run, then the rung down
            return [*range(i, j + step, step), dst]
        if dst < m <= src:  # the rung up, then the run
            return [src, *range(i, j + step, step)]
        return range(src, dst + step, step)
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
