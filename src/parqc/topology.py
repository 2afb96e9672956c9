"""
Processor connectivity graphs and shortest-path queries.

Two built-in shapes: the 2 x m grid (m = ceil(width/2), row-major numbering,
one spare qubit for odd widths) and the 1-D line. Custom maps load from JSON.
The built-in maps record their rows (two rows of m for the grid, one row for
the line), which is what lets the permuter sort instead of search; a custom
map has none, even when its edges happen to form a line or a grid.

Path queries read one cached all-pairs hop-count matrix. There is one path
rule for every map: the shortest src -> dst path is walked back from dst,
stepping each time to the lowest-index neighbour one hop closer to src, and
then reversed. Identical inputs therefore always yield identical paths.
"""
from __future__ import annotations

import json
import math
from collections import deque


class TopologyError(ValueError):
    pass


class CouplingMap:
    """Undirected, connected physical-qubit graph.

    rows, when given, is one or two equal-length tuples of physical nodes
    whose edges must be exactly the map's: consecutive nodes of a row are
    coupled, and with two rows so is each pair of nodes in the same column.
    """

    __slots__ = ("n_phys", "edges", "kind", "rows", "neighbors", "_edge_set", "_dist")

    def __init__(self, n_phys: int, edges, kind: str = "custom", rows=None):
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
        self._edge_set = frozenset(self.edges)
        self._dist = None
        self.rows = None if rows is None else self._check_rows(rows)
        if n_phys > 1:
            self._check_connected()

    def _check_rows(self, rows) -> tuple[tuple[int, ...], ...]:
        rows = tuple(tuple(int(p) for p in row) for row in rows)
        if len(rows) not in (1, 2) or len({len(row) for row in rows}) != 1:
            raise TopologyError("rows must be one or two rows of equal length")
        if sorted(p for row in rows for p in row) != list(range(self.n_phys)):
            raise TopologyError(f"rows must hold every node of range({self.n_phys}) once")
        if _row_edges(rows) != self._edge_set:
            raise TopologyError("the edges the rows imply are not the map's edges")
        return rows

    def _check_connected(self):
        seen = bytearray(self.n_phys)
        seen[0] = 1
        queue = deque([0])
        count = 1
        while queue:
            u = queue.popleft()
            for v in self.neighbors[u]:
                if not seen[v]:
                    seen[v] = 1
                    count += 1
                    queue.append(v)
        if count != self.n_phys:
            raise TopologyError(f"coupling map is disconnected ({count}/{self.n_phys} reachable)")

    def is_edge(self, a: int, b: int) -> bool:
        return ((a, b) if a < b else (b, a)) in self._edge_set

    @property
    def edge_set(self) -> frozenset:
        return self._edge_set

    def distance_matrix(self) -> list[list[int]]:
        """All-pairs hop counts via BFS, built on first use and cached."""
        if self._dist is None:
            dist = []
            for src in range(self.n_phys):
                row = [-1] * self.n_phys
                row[src] = 0
                queue = deque([src])
                while queue:
                    u = queue.popleft()
                    du = row[u] + 1
                    for v in self.neighbors[u]:
                        if row[v] < 0:
                            row[v] = du
                            queue.append(v)
                dist.append(row)
            self._dist = dist
        return self._dist

    # the lazy distance cache is cheap to rebuild, so leave it out of pickles
    def __getstate__(self):
        return (self.n_phys, self.edges, self.kind, self.rows)

    def __setstate__(self, state):
        n_phys, edges, kind, rows = state
        self.__init__(n_phys, edges, kind=kind, rows=rows)

    def __eq__(self, other):
        if not isinstance(other, CouplingMap):
            return NotImplemented
        return (self.n_phys, self.edges, self.rows) == (other.n_phys, other.edges, other.rows)

    def __hash__(self):
        return hash((self.n_phys, self.edges, self.rows))

    def __repr__(self):
        return f"CouplingMap({self.kind}, n_phys={self.n_phys}, {len(self.edges)} edges)"


def build_grid(width: int) -> CouplingMap:
    """2 x m grid for m = ceil(width/2); odd widths leave one spare node."""
    if width < 2:
        raise TopologyError(f"grid needs width >= 2, got {width}")
    m = math.ceil(width / 2)
    rows = (range(m), range(m, 2 * m))
    return CouplingMap(2 * m, _row_edges(rows), kind="grid", rows=rows)


def build_linear(width: int) -> CouplingMap:
    if width < 2:
        raise TopologyError(f"linear needs width >= 2, got {width}")
    rows = (range(width),)
    return CouplingMap(width, _row_edges(rows), kind="linear", rows=rows)


def _row_edges(rows) -> set[tuple[int, int]]:
    """Consecutive nodes of each row, and with two rows each column's pair."""
    pairs = [pair for row in rows for pair in zip(row, row[1:])]
    if len(rows) == 2:
        pairs += zip(*rows)
    return {(a, b) if a < b else (b, a) for a, b in pairs}


def load_coupling_map(path) -> CouplingMap:
    """Custom map file: {"n_phys": N, "edges": [[a, b], ...]}."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        n_phys = int(data["n_phys"])
        edges = [(int(a), int(b)) for a, b in data["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise TopologyError(f"bad coupling map file {path}: {exc}") from exc
    return CouplingMap(n_phys, edges, kind="custom")


def astar_path(cmap: CouplingMap, src: int, dst: int) -> list[int]:
    """Shortest node path including both endpoints; src == dst gives [src].

    Walks back from dst over the cached distance matrix, each step to the
    lowest-index neighbour one hop closer to src. The name is historical: no
    search runs.
    """
    n = cmap.n_phys
    if not (0 <= src < n and 0 <= dst < n):
        raise TopologyError(f"node out of range: src={src}, dst={dst}, n_phys={n}")
    dist = cmap.distance_matrix()[src]
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
