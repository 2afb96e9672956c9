"""
Width-independent equivalence check of a compiled circuit against its input.

The compiler never reorders gates; it only inserts SWAPs and barriers and
renames qubits. So walk both programs, treat every SWAP in either one as a
relabel of the wires, and require the remaining gates to match in order on
the same qubit states. The layout this walk implies at the end must equal the
output's `// final_layout` comment. This is the known-permutation case of
Burgholzer & Wille (IEEE TCAD 2021) and runs in time linear in the gate count
at any width.

The QASM reader here is deliberately separate from parqc's parser, so a
parser defect cannot hide itself. It reads the canonical form that parqc
writes: one statement per line over a single register.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import zip_longest

_GATE = re.compile(r"([a-z]+)(?:\(([^()]*)\))? q\[(\d+)\](?:, ?q\[(\d+)\])?;")
_QREG = re.compile(r"qreg q\[(\d+)\];")
_LAYOUT = re.compile(r"// final_layout: \[([\d, ]*)\]")


@dataclass
class Program:
    width: int
    gates: list  # (kind, params, qubits); barriers are dropped
    final_layout: list | None


def read_program(text: str) -> Program:
    width = None
    gates = []
    layout = None
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith(("OPENQASM", "include", "barrier")):
            continue
        if line.startswith("//"):
            if (m := _LAYOUT.fullmatch(line)) is not None:
                layout = [int(x) for x in m.group(1).split(",")] if m.group(1).strip() else []
            continue
        m = _GATE.fullmatch(line)
        if m is not None and width is not None:
            kind, ptext, q0, q1 = m.groups()
            params = tuple(float(p) for p in ptext.split(",")) if ptext else ()
            qs = (int(q0),) if q1 is None else (int(q0), int(q1))
            if max(qs) >= width:
                raise ValueError(f"qubit out of range for q[{width}]: {line!r}")
            gates.append((kind, params, qs))
        elif (m := _QREG.fullmatch(line)) is not None and width is None:
            width = int(m.group(1))
        else:
            raise ValueError(f"unexpected statement {line!r}")
    if width is None:
        raise ValueError("no qreg q[N] declaration")
    return Program(width, gates, layout)


def _logical_gates(program: Program, n_wires: int):
    """Non-SWAP gates with operands renamed to the qubit state each wire holds;
    returns the gate list and the final wire -> state map."""
    state = list(range(n_wires))
    out = []
    for kind, params, qs in program.gates:
        if kind == "swap":
            a, b = qs
            state[a], state[b] = state[b], state[a]
        else:
            out.append((kind, params, tuple(state[q] for q in qs)))
    return out, state


def check_equivalent(original: Program, compiled: Program) -> str | None:
    """None when the compiled program is equivalent to the original under its
    final_layout comment; otherwise a description of the first difference."""
    n = compiled.width
    if original.width > n:
        return f"compiled width {n} is narrower than the original's {original.width}"
    if compiled.final_layout is None:
        return "compiled program has no final_layout comment"
    if sorted(compiled.final_layout) != list(range(n)):
        return f"final_layout is not a permutation of {n} qubits"
    want, orig_state = _logical_gates(original, n)
    got, comp_state = _logical_gates(compiled, n)
    for i, (a, b) in enumerate(zip_longest(want, got)):
        if a != b:
            return f"gate {i} differs: original {a}, compiled {b}"
    # physical wire p ends up holding the state of original wire implied[p]
    wire_of = {s: w for w, s in enumerate(orig_state)}
    implied = [wire_of[s] for s in comp_state]
    if implied != compiled.final_layout:
        return f"final_layout comment {compiled.final_layout} != implied layout {implied}"
    return None


def swap_count(program: Program) -> int:
    return sum(1 for kind, _, _ in program.gates if kind == "swap")


def two_qubit_count(program: Program) -> int:
    return sum(1 for _, _, qs in program.gates if len(qs) == 2)


def depth(program: Program) -> int:
    """Critical-path length; barriers do not synchronise, as in parqc's metrics."""
    frontier = [0] * program.width
    for _, _, qs in program.gates:
        t = max(frontier[q] for q in qs) + 1
        for q in qs:
            frontier[q] = t
    return max(frontier, default=0)
