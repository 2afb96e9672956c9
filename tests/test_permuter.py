import itertools
import random
import re

import pytest

from helpers import min_swaps_to_identity
from parqc.circuit import Circuit
from parqc.permuter import PermuterError, append_permutation, build_permutation
from parqc.router import RoutedCircuit
from parqc.topology import build_grid, build_linear

# Token swapping on a graph can be approximated within 4x of the fewest swaps
# (Miltzow et al., ESA 2016); the planner must stay inside that bound.
APPROX_FACTOR = 4


def check_plan(layout, cmap):
    plan = build_permutation(layout, cmap)
    assert all(cmap.is_edge(a, b) for a, b in plan.swap_list)
    restored = list(layout)
    for a, b in plan.swap_list:
        restored[a], restored[b] = restored[b], restored[a]
    assert restored == list(range(cmap.n_phys))
    assert len(plan.swap_list) <= APPROX_FACTOR * min_swaps_to_identity(layout, cmap.edges)


# grid widths 3 and 5 give the same maps as 4 and 6
SMALL_MAPS = [build_grid(w) for w in (2, 4, 6)] + [build_linear(w) for w in range(2, 7)]
LARGER_MAPS = [build_grid(8), build_linear(7), build_linear(8)]


@pytest.mark.parametrize("cmap", SMALL_MAPS, ids=lambda m: f"{m.kind}{m.n_phys}")
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


def test_plan_and_layout_must_match():
    cmap = build_linear(4)
    for layout in ([2, 0, 1], [0, 0, 1, 2]):
        with pytest.raises(PermuterError, match=re.escape(f"layout {layout} is not a permutation of range(4)")):
            build_permutation(layout, cmap)
    plan = build_permutation((1, 0, 2, 3), cmap)
    routed = RoutedCircuit(Circuit(4), (0, 1, 3, 2), 0)
    with pytest.raises(PermuterError, match="different layout"):
        append_permutation(routed, plan)
