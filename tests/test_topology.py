import json
import pickle
import random

import pytest

import parqc.topology
from helpers import bfs_hops, floyd_warshall
from parqc.topology import (
    CouplingMap,
    TopologyError,
    astar_path,
    build_grid,
    build_linear,
    load_coupling_map,
)


def test_grid6_matches_published_layout():
    g = build_grid(6)
    assert g.n_phys == 6
    assert set(g.edges) == {(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)}


def test_grid2_single_edge():
    g = build_grid(2)
    assert g.n_phys == 2
    assert g.edges == ((0, 1),)


def test_grid_odd_width_has_spare_qubit():
    g = build_grid(5)
    assert g.n_phys == 6  # m = ceil(5/2) = 3, one spare physical qubit
    assert len(g.edges) == 3 * 3 - 2


@pytest.mark.parametrize("width", [2, 3, 6, 11, 40, 75])
def test_grid_edge_count_formula(width):
    g = build_grid(width)
    m = (width + 1) // 2
    assert g.n_phys == 2 * m
    assert len(g.edges) == 3 * m - 2


@pytest.mark.parametrize("width", [2, 5, 17, 101])
def test_linear_edge_count(width):
    g = build_linear(width)
    assert g.n_phys == width
    assert len(g.edges) == width - 1
    assert all(b - a == 1 for a, b in g.edges)


def test_astar_trivial_and_published_paths():
    g = build_grid(6)
    assert astar_path(g, 0, 0) == [0]
    assert astar_path(g, 0, 5) == [0, 1, 2, 5]  # lowest-index tie-break
    line = build_linear(5)
    assert astar_path(line, 0, 4) == [0, 1, 2, 3, 4]


def test_astar_path_is_walkable():
    g = build_grid(11)
    path = astar_path(g, 0, g.n_phys - 1)
    for a, b in zip(path, path[1:]):
        assert (min(a, b), max(a, b)) in g.edges


def test_astar_matches_bfs_on_large_maps():
    rng = random.Random(1)
    maps = [build_grid(400 // 2), build_linear(400), build_grid(37), build_linear(9)]
    checked = 0
    for cmap in maps:
        for _ in range(250):
            src = rng.randrange(cmap.n_phys)
            dst = rng.randrange(cmap.n_phys)
            path = astar_path(cmap, src, dst)
            assert path[0] == src and path[-1] == dst
            assert len(path) - 1 == bfs_hops(cmap.neighbors, src, dst)
            checked += 1
    assert checked == 1000


def test_astar_deterministic():
    g = build_grid(20)
    first = [astar_path(g, s, d) for s in range(8) for d in range(g.n_phys)]
    second = [astar_path(g, s, d) for s in range(8) for d in range(g.n_phys)]
    assert first == second


def test_distance_matrix_matches_astar():
    g = build_grid(14)
    dist = g.dist
    for s in range(g.n_phys):
        for d in range(g.n_phys):
            assert dist[s][d] == len(astar_path(g, s, d)) - 1


def test_build_errors():
    with pytest.raises(TopologyError):
        build_grid(1)
    with pytest.raises(TopologyError):
        build_linear(1)
    with pytest.raises(TopologyError, match="disconnected"):
        CouplingMap(4, [(0, 1), (2, 3)])
    with pytest.raises(TopologyError, match="self-loop"):
        CouplingMap(3, [(0, 0), (0, 1), (1, 2)])
    with pytest.raises(TopologyError, match="out of range"):
        CouplingMap(3, [(0, 5)])


def test_custom_map_json_roundtrip(tmp_path):
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"n_phys": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]}))
    cmap = load_coupling_map(path)
    assert cmap.kind == "custom"
    assert cmap.rows is None
    assert cmap.n_phys == 4
    assert len(cmap.edges) == 4
    # two shortest paths, 0-1-2 and 0-3-2: the walk back from 2 takes the
    # lower-index predecessor, 1
    assert astar_path(cmap, 0, 2) == [0, 1, 2]


def test_custom_map_ties_break_walking_back_from_target():
    # two disjoint shortest paths 0-1-4-5 and 0-2-3-5: a forward walk would
    # take the lower first hop (1), but the rule picks the lower predecessor
    # of each node walking back from the target (3, then 2)
    cmap = CouplingMap(6, [(0, 1), (1, 4), (4, 5), (0, 2), (2, 3), (3, 5)])
    assert astar_path(cmap, 0, 5) == [0, 2, 3, 5]
    assert astar_path(cmap, 5, 0) == [5, 4, 1, 0]


def test_custom_map_bad_file(tmp_path):
    ring = [[0, 1], [1, 2], [2, 3]]
    bad_files = [
        json.dumps({"edges": [[0, 1]]}),  # no n_phys
        "n_phys: 4",  # not JSON
        b"\xff\xfe",  # not UTF-8 text
        json.dumps([[0, 1], [1, 2]]),  # not a JSON object
        json.dumps({"n_phys": 4.9, "edges": ring}),
        json.dumps({"n_phys": "4", "edges": ring}),
        json.dumps({"n_phys": True, "edges": [[0, 1]]}),
        json.dumps({"n_phys": 4}),  # no edges
        json.dumps({"n_phys": 2, "edges": "01"}),
        json.dumps({"n_phys": 4, "edges": [[0, 1], [1, 2.7], [2, 3]]}),
        json.dumps({"n_phys": 4, "edges": [[0, 1], [True, 2], [2, 3]]}),
        json.dumps({"n_phys": 4, "edges": [[0, 1], [1, 2, 3]]}),
        json.dumps({"n_phys": 4, "edges": [[0, 1], "12", [2, 3]]}),
        # well-formed files that CouplingMap itself rejects
        (json.dumps({"n_phys": 4, "edges": [[0, 1]]}), r"disconnected \(2/4 reachable\)"),
        (json.dumps({"n_phys": 4, "edges": [[0, 1], [1, 1], [2, 3]]}), "self-loop on node 1"),
        (json.dumps({"n_phys": 4, "edges": [[0, 1], [1, 4], [2, 3]]}), r"edge \(1,4\) out of range"),
    ]
    for i, content in enumerate(bad_files):
        content, reason = content if isinstance(content, tuple) else (content, "")
        path = tmp_path / f"bad{i}.json"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        with pytest.raises(TopologyError, match="bad coupling map file .*" + reason) as info:
            load_coupling_map(path)
        assert str(path) in str(info.value), content


def test_hop_table_matches_floyd_warshall(monkeypatch):
    bfs_runs = []
    real_bfs = parqc.topology._bfs_hops

    def counting_bfs(neighbors, src):
        bfs_runs.append(src)
        return real_bfs(neighbors, src)

    monkeypatch.setattr(parqc.topology, "_bfs_hops", counting_bfs)
    rng = random.Random(8)
    connected = disconnected = 0
    for _ in range(400):
        n = rng.randint(1, 9)
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        edges = rng.sample(pairs, rng.randint(0, len(pairs)))
        oracle = floyd_warshall(n, edges)
        reached = n - oracle[0].count(-1)
        bfs_runs.clear()
        if reached < n:
            with pytest.raises(TopologyError, match=rf"disconnected \({reached}/{n} reachable\)"):
                CouplingMap(n, edges)
            assert bfs_runs == [0]  # no table is built for a map that is refused
            disconnected += 1
            continue
        cmap = CouplingMap(n, edges)
        assert sorted(bfs_runs) == list(range(n))  # one BFS per node
        assert [list(row) for row in cmap.dist] == oracle
        assert {(a, b) for a in range(n) for b in range(a + 1, n) if cmap.dist[a][b] == 1} == set(cmap.edges)
        assert set(cmap.edges) == set(edges)
        connected += 1
    assert connected >= 100 and disconnected >= 100


@pytest.mark.parametrize("build", [build_grid, build_linear], ids=["grid", "linear"])
def test_built_in_hop_tables_match_row_distance(build):
    # an independent oracle: on a line or a 2 x m grid, nodes in columns c and
    # c' are |c - c'| hops apart, and one more when they sit in different rows
    for width in range(2, 65):
        cmap = build(width)
        place = {p: (r, c) for r, row in enumerate(cmap.rows) for c, p in enumerate(row)}
        nodes = range(cmap.n_phys)
        expected = [
            [abs(place[a][1] - place[b][1]) + (place[a][0] != place[b][0]) for b in nodes] for a in nodes
        ]
        assert [list(row) for row in cmap.dist] == expected, width


def test_coupling_map_pickles_with_its_table(monkeypatch):
    maps = [build_grid(10), build_linear(7), CouplingMap(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), CouplingMap(1, []),
            CouplingMap(6, build_grid(6).edges, kind="grid"), CouplingMap(3, [(1, 2), (0, 1)], kind="linear")]
    blobs = [(g, pickle.dumps(g, protocol)) for g in maps for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)]

    def no_bfs(*args):
        raise AssertionError("unpickling rebuilt the hop table")

    monkeypatch.setattr(parqc.topology, "_bfs_hops", no_bfs)
    for g, blob in blobs:
        back = pickle.loads(blob)
        assert back == g
        assert (back.kind, back.rows, back.neighbors, back.dist) == (g.kind, g.rows, g.neighbors, g.dist)
        assert back.row_swaps == g.row_swaps
    assert pickle.loads(blobs[0][1]).rows == ((0, 1, 2, 3, 4), (5, 6, 7, 8, 9))
    # maps given their kind, not built by build_grid or build_linear, have rows
    # and row tables too, which the loop above saw survive the pickle
    assert all(g.rows and g.row_swaps for g in maps[-2:])


def test_built_in_maps_record_their_rows():
    assert build_grid(5).rows == ((0, 1, 2), (3, 4, 5))
    assert build_grid(2).rows == ((0,), (1,))
    assert build_linear(4).rows == ((0, 1, 2, 3),)
    line = [(0, 1), (1, 2), (2, 3)]
    assert CouplingMap(4, line).rows is None
    # a map is equal to another only if it would be permuted the same way
    assert CouplingMap(4, line) != build_linear(4)
    assert CouplingMap(4, line, kind="linear") == build_linear(4)


@pytest.mark.parametrize("build", [build_grid, build_linear], ids=["grid", "linear"])
def test_row_swap_tables_list_each_row_both_ways(build):
    for width in (2, 3, 9, 10):
        cmap = build(width)
        assert len(cmap.row_swaps) == len(cmap.rows)
        for row, (right, left) in zip(cmap.rows, cmap.row_swaps):
            pairs = [(row[c], row[c + 1]) for c in range(len(row) - 1)]
            for (lines, ops), order in ((right, pairs), (left, pairs[::-1])):
                assert lines == tuple(f"swap q[{a}],q[{b}];" for a, b in order)
                assert list(ops) == [p for pair in order for p in pair]


def test_row_swap_tables_only_on_linear_and_grid_maps():
    line = [(0, 1), (1, 2), (2, 3)]
    assert CouplingMap(4, line).row_swaps is None
    assert CouplingMap(4, line, kind="linear").row_swaps == build_linear(4).row_swaps
    assert CouplingMap(6, build_grid(6).edges).row_swaps is None
    assert CouplingMap(6, build_grid(6).edges, kind="grid").row_swaps == build_grid(6).row_swaps


@pytest.mark.parametrize("build, kind", [(build_grid, "grid"), (build_linear, "linear")], ids=["grid", "linear"])
@pytest.mark.parametrize("width", [2, 3, 6, 9])
def test_kind_and_edges_make_the_built_in_map(build, kind, width):
    built = build(width)
    cmap = CouplingMap(built.n_phys, built.edges, kind=kind)
    assert cmap == built and hash(cmap) == hash(built)
    assert (cmap.kind, cmap.rows, cmap.row_swaps) == (built.kind, built.rows, built.row_swaps)
    # the same edges as a custom map are another map, permuted by token swapping
    assert CouplingMap(built.n_phys, built.edges) != built


@pytest.mark.parametrize("kind", ["ring", "Grid", "", None])
def test_unknown_kind_is_refused(kind):
    with pytest.raises(TopologyError, match="unknown map kind"):
        CouplingMap(4, [(0, 1), (1, 2), (2, 3)], kind=kind)


@pytest.mark.parametrize(
    "n_phys, edges, kind, message",
    [
        (4, [(0, 1), (1, 3), (3, 2)], "linear", "not those of a linear map of 4 nodes"),
        (4, [(0, 1), (1, 2), (2, 3), (0, 3)], "linear", "not those of a linear map of 4 nodes"),
        (4, [(0, 1), (2, 3), (0, 3), (1, 2)], "grid", "not those of a grid map of 4 nodes"),
        (5, [(0, 1), (1, 2), (3, 4), (0, 3), (1, 4)], "grid", "even number of nodes, got 5"),
        (6, [(0, 1), (2, 3), (4, 5), (0, 2), (1, 3), (2, 4), (3, 5)], "grid", "not those of a grid map of 6 nodes"),
        (4, [(0, 1), (1, 2), (2, 3)], "grid", "not those of a grid map of 4 nodes"),
    ],
    ids=["line-out-of-order", "ring", "grid-crossed-rungs", "ragged", "three-rows", "line-as-grid"],
)
def test_rows_must_match_the_edges(n_phys, edges, kind, message):
    # a linear or grid map's rows come from its kind: consecutive nodes,
    # row-major, and its edges must be exactly theirs
    with pytest.raises(TopologyError, match=message):
        CouplingMap(n_phys, edges, kind=kind)
