import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import as_instructions, dense_unitary, reference_simulate
from parqc.circuit import BARRIER, GATES_1Q, PARAM_COUNTS, Circuit, Instruction
from parqc.topology import CouplingMap, build_grid, build_linear
from parqc.verifier import MAX_SIM_QUBITS, check_nna, fidelity_under_layout, simulate

_ANGLE = st.floats(min_value=-7, max_value=7, allow_nan=False, allow_infinity=False)


@st.composite
def small_circuits(draw, widths=st.integers(1, 6)):
    """Any gate of the canonical set, and barriers, on a drawn width."""
    width = draw(widths)
    kinds = sorted(GATES_1Q) + (["cx", "cz", "swap"] if width > 1 else [])
    instrs = []
    for _ in range(draw(st.integers(0, 25))):
        if draw(st.integers(0, 9)) == 0:
            qubits = draw(st.lists(st.integers(0, width - 1), min_size=1, max_size=width, unique=True))
            instrs.append(Instruction(BARRIER, tuple(qubits)))
            continue
        kind = draw(st.sampled_from(kinds))
        arity = 1 if kind in GATES_1Q else 2
        qubits = tuple(draw(st.lists(st.integers(0, width - 1), min_size=arity, max_size=arity, unique=True)))
        params = tuple(draw(_ANGLE) for _ in range(PARAM_COUNTS.get(kind, 0)))
        instrs.append(Instruction(kind, qubits, params))
    return Circuit(width, instrs)


@settings(max_examples=150, deadline=None)
@given(small_circuits())
def test_simulate_matches_first_column_of_dense_unitary(circuit):
    # U|0...0> is U's first column; the oracle builds U from 2^n-sized products
    np.testing.assert_allclose(simulate(circuit), dense_unitary(circuit)[:, 0], atol=1e-10)


@st.composite
def swap_heavy_circuits(draw):
    """Blocks of: 1-qubit gates on a pair, a run of SWAPs that starts by
    exchanging that pair, 1-qubit gates on the pair again, then cx or cz on
    the pair, lower-numbered qubit first. The SWAPs often leave that control
    on a higher tensor axis than its target."""
    width = draw(st.integers(7, 12))
    pair = st.lists(st.integers(0, width - 1), min_size=2, max_size=2, unique=True).map(sorted)
    instrs = []

    def one_qubit_gates(qubits):
        for q in qubits:
            kind = draw(st.sampled_from(sorted(GATES_1Q)))
            instrs.append(Instruction(kind, (q,), tuple(draw(_ANGLE) for _ in range(PARAM_COUNTS.get(kind, 0)))))

    for _ in range(draw(st.integers(1, 12))):
        a, b = draw(pair)
        one_qubit_gates((a, b))
        swaps = [(a, b)] + draw(st.lists(pair, max_size=6))
        instrs += [Instruction("swap", tuple(p)) for p in swaps]
        one_qubit_gates((a, b))
        instrs.append(Instruction(draw(st.sampled_from(["cx", "cz"])), (a, b)))
    return Circuit(width, instrs)


@settings(max_examples=60, deadline=None)
@given(swap_heavy_circuits())
def test_simulate_matches_the_gate_by_gate_reference_on_swap_heavy_circuits(circuit):
    np.testing.assert_allclose(simulate(circuit), reference_simulate(circuit), atol=1e-10)


def test_swaps_on_a_product_state_permute_its_factors():
    angles = [0.3, 0.9, 1.4, 2.0, 2.7]
    swaps = [(0, 4), (1, 3), (0, 1), (2, 4)]
    circuit = Circuit(5, [Instruction("ry", (q,), (t,)) for q, t in enumerate(angles)]
                      + [Instruction("swap", p) for p in swaps])
    holder = (3, 4, 0, 1, 2)  # the qubit whose ry factor ends at each position, worked by hand
    expected = np.array([1.0])
    for q in holder:
        expected = np.kron(expected, [math.cos(angles[q] / 2), math.sin(angles[q] / 2)])
    np.testing.assert_allclose(simulate(circuit), expected, atol=1e-12)


def test_simulate_rejects_more_than_the_qubit_cap():
    assert MAX_SIM_QUBITS == 14
    with pytest.raises(ValueError, match="at most 14 qubits, got 15"):
        simulate(Circuit(15, [Instruction("h", (0,))]))


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 5), st.integers(0, 1), st.data())
def test_fidelity_is_one_only_under_the_true_final_layout(width, spare, data):
    n_phys = width + spare
    # a product state whose qubits all differ from each other and from the
    # spare qubit's |0>, so exchanging any two positions changes it
    angles = data.draw(st.permutations([(k + 1) * math.pi / (width + 1) for k in range(width)]))
    original = Circuit(width, [Instruction("ry", (q,), (a,)) for q, a in enumerate(angles)])
    swaps = data.draw(
        st.lists(st.lists(st.integers(0, n_phys - 1), min_size=2, max_size=2, unique=True), max_size=8)
    )
    compiled = Circuit(n_phys, as_instructions(original) + tuple(Instruction("swap", tuple(p)) for p in swaps))
    holder = list(range(n_phys))  # physical position -> the logical qubit it holds
    for a, b in swaps:
        holder[a], holder[b] = holder[b], holder[a]
    assert fidelity_under_layout(original, compiled, tuple(holder)) == pytest.approx(1.0, abs=1e-9)

    a, b = data.draw(st.lists(st.integers(0, n_phys - 1), min_size=2, max_size=2, unique=True))
    holder[a], holder[b] = holder[b], holder[a]
    assert fidelity_under_layout(original, compiled, tuple(holder)) < 0.99


@pytest.mark.parametrize("layout", [(2, 0, 1), (0, 0, 1, 2)], ids=["wrong-length", "not-a-permutation"])
def test_fidelity_rejects_a_layout_that_is_not_a_permutation(layout):
    circuit = Circuit(4, [Instruction("h", (0,))])
    with pytest.raises(ValueError, match=re.escape(f"layout {list(layout)} is not a permutation of range(4)")):
        fidelity_under_layout(circuit, circuit, layout)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_check_nna_returns_exactly_the_uncoupled_two_qubit_gates(data):
    width = data.draw(st.integers(2, 8))
    cmap = data.draw(
        st.sampled_from([build_grid(width), build_linear(width), CouplingMap(width, [(0, k) for k in range(1, width)])])
    )
    edges = [tuple(e) for e in cmap.edges]
    circuit = data.draw(small_circuits(st.just(cmap.n_phys)))
    coupled = {frozenset(e) for e in edges}
    expected = [
        (i, ins.kind, ins.qubits)
        for i, ins in enumerate(as_instructions(circuit))
        if ins.kind != BARRIER and len(ins.qubits) == 2 and frozenset(ins.qubits) not in coupled
    ]
    assert [(v.index, v.kind, v.qubits) for v in check_nna(circuit, cmap)] == expected
