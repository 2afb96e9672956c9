import json
import pickle
import random

import pytest

from helpers import bfs_hops
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
        assert g.is_edge(a, b)


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
    dist = g.distance_matrix()
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


def test_astar_input_validation():
    g = build_grid(4)
    with pytest.raises(TopologyError, match="out of range"):
        astar_path(g, 0, 99)


def test_custom_map_json_roundtrip(tmp_path):
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"n_phys": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]}))
    cmap = load_coupling_map(path)
    assert cmap.kind == "custom"
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
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"edges": [[0, 1]]}))
    with pytest.raises(TopologyError, match="bad coupling map"):
        load_coupling_map(path)


def test_coupling_map_pickles_without_cache():
    g = build_grid(10)
    g.distance_matrix()
    back = pickle.loads(pickle.dumps(g))
    assert back == g
    assert back.kind == g.kind
    assert back.distance_matrix() == g.distance_matrix()
