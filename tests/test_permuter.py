import itertools
import json
from array import array
import random
import re

import pytest

from helpers import frontier_replay, min_swaps_to_identity
from parqc.circuit import Circuit, Instruction
from parqc.permuter import PermuterError, append_permutation, build_permutation
from parqc.router import RoutedCircuit
from parqc.topology import CouplingMap, build_grid, build_linear, load_coupling_map

# Token swapping on a graph can be approximated within 4x of the fewest swaps
# (Miltzow et al., ESA 2016); the planner must stay inside that bound.
APPROX_FACTOR = 4
# the sorting networks on grid and linear maps reach exactly 2x on some
# layouts of the 2 x 2 and 2 x 3 grids, and never more on these maps
NETWORK_FACTOR = 2


def check_plan(layout, cmap):
    plan = build_permutation(layout, cmap)
    assert set(plan.swap_list) <= set(cmap.edges)
    restored = list(layout)
    for a, b in plan.swap_list:
        restored[a], restored[b] = restored[b], restored[a]
    assert restored == list(range(cmap.n_phys))
    assert len(plan.swap_list) <= APPROX_FACTOR * min_swaps_to_identity(layout, cmap.edges)


# grid widths 3 and 5 give the same maps as 4 and 6
SMALL_MAPS = [build_grid(w) for w in (2, 4, 6)] + [build_linear(w) for w in range(2, 7)]
LARGER_MAPS = [build_grid(8), build_linear(7), build_linear(8)]
# custom maps take the greedy walk, even where their edges are a line or a grid
CUSTOM_MAPS = [
    CouplingMap(5, [(i, i + 1) for i in range(4)]),
    CouplingMap(6, build_grid(6).edges),
    CouplingMap(5, [(i, (i + 1) % 5) for i in range(5)]),
    CouplingMap(6, [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)]),
]


@pytest.mark.parametrize("cmap", SMALL_MAPS + CUSTOM_MAPS, ids=lambda m: f"{m.kind}{m.n_phys}")
def test_every_layout_restores_identity_within_bound(cmap):
    for layout in itertools.permutations(range(cmap.n_phys)):
        check_plan(layout, cmap)


@pytest.mark.parametrize("cmap", LARGER_MAPS, ids=lambda m: f"{m.kind}{m.n_phys}")
def test_sampled_layouts_restore_identity_within_bound(cmap):
    rng = random.Random(cmap.n_phys)
    for _ in range(8):
        layout = list(range(cmap.n_phys))
        rng.shuffle(layout)
        check_plan(layout, cmap)


def plan_depth(plan, n_phys) -> int:
    depth, _, _ = frontier_replay(Circuit(n_phys, [Instruction("swap", e) for e in plan.swap_list]))
    return depth


def inversions(layout) -> int:
    return sum(a > b for a, b in itertools.combinations(layout, 2))


def network_layouts(cmap):
    """Every layout of a small map; the reversal and 30 shuffles of a larger one."""
    if cmap.n_phys <= 6:
        return itertools.permutations(range(cmap.n_phys))
    rng = random.Random(cmap.n_phys)
    layouts = [tuple(reversed(range(cmap.n_phys)))]
    for _ in range(30):
        layout = list(range(cmap.n_phys))
        rng.shuffle(layout)
        layouts.append(tuple(layout))
    return layouts


@pytest.mark.parametrize("cmap", SMALL_MAPS, ids=lambda m: f"{m.kind}{m.n_phys}")
def test_sorting_network_within_twice_fewest_swaps(cmap):
    for layout in itertools.permutations(range(cmap.n_phys)):
        plan = build_permutation(layout, cmap)
        assert len(plan.swap_list) <= NETWORK_FACTOR * min_swaps_to_identity(layout, cmap.edges), layout


@pytest.mark.parametrize("cmap", SMALL_MAPS + LARGER_MAPS, ids=lambda m: f"{m.kind}{m.n_phys}")
def test_sorting_network_depth_bound(cmap):
    # n rounds sort a line of n; a 2 x m grid adds one rung round either side
    bound = cmap.n_phys if len(cmap.rows) == 1 else len(cmap.rows[0]) + 2
    for layout in network_layouts(cmap):
        plan = build_permutation(layout, cmap)
        assert plan_depth(plan, cmap.n_phys) <= bound, layout


@pytest.mark.parametrize("width", range(2, 9))
def test_linear_plan_swaps_are_the_inversion_count(width):
    cmap = build_linear(width)
    for layout in network_layouts(cmap):
        assert len(build_permutation(layout, cmap).swap_list) == inversions(layout), layout


def test_custom_path_map_takes_the_greedy_walk(tmp_path):
    path = tmp_path / "path.json"
    path.write_text(json.dumps({"n_phys": 3, "edges": [[0, 1], [1, 2]]}))
    cmap = load_coupling_map(path)
    assert cmap.rows is None
    # worked by hand: qubit 1 steps home, then qubit 0 walks 2 -> 0, pushing
    # qubit 1 out again, and qubit 1 steps home once more; the odd-even sort
    # takes the two inversions directly
    assert build_permutation((1, 2, 0), cmap).swap_list == ((0, 1), (1, 2), (0, 1), (1, 2))
    assert build_permutation((1, 2, 0), build_linear(3)).swap_list == ((1, 2), (0, 1))
    for layout in itertools.permutations(range(3)):
        check_plan(layout, cmap)


def test_plan_and_layout_must_match():
    cmap = build_linear(4)
    for layout in ([2, 0, 1], [0, 0, 1, 2]):
        with pytest.raises(PermuterError, match=re.escape(f"layout {layout} is not a permutation of range(4)")):
            build_permutation(layout, cmap)
    plan = build_permutation((1, 0, 2, 3), cmap)
    routed = RoutedCircuit([], array("i"), (0, 1, 3, 2), 0)
    with pytest.raises(PermuterError, match="different layout"):
        append_permutation(routed, plan)
