"""Shared independent oracles for the test suite.

Everything here deliberately re-derives results through a different route
than the library: textbook matrices applied as dense products or by basis
index arithmetic instead of tensor contractions, BFS and Floyd-Warshall instead
of the map's hop table, per-qubit time counters instead of the metrics scan, a
whole-window rescore instead of the lookahead chooser's per-qubit deltas, a
routing loop that builds Instructions instead of emitting QASM lines. A library
bug and an oracle bug would have to coincide for a test to pass wrongly.
"""
from __future__ import annotations

import math
from collections import deque

import numpy as np

from parqc.circuit import BARRIER, KINDS, PARAM_COUNTS, Instruction
from parqc.topology import astar_path

# textbook gate matrices, written out independently of parqc.verifier
_S2 = 1.0 / math.sqrt(2.0)
ORACLE_1Q = {
    "h": np.array([[_S2, _S2], [_S2, -_S2]], dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "s": np.diag([1, 1j]).astype(complex),
    "t": np.diag([1, np.exp(1j * np.pi / 4)]).astype(complex),
}
ORACLE_2Q = {
    "cx": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
    "cz": np.diag([1, 1, 1, -1]).astype(complex),
    "swap": np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
}


def as_instructions(circuit) -> tuple[Instruction, ...]:
    """The circuit's instructions, rebuilt one by one from its columns."""
    out = []
    barriers = iter(circuit.barriers)
    at = 0
    it = iter(circuit.ops)
    for code, a, b in zip(circuit.kinds, it, it):
        kind = KINDS[code]
        n = PARAM_COUNTS.get(kind, 0)
        qubits = next(barriers) if kind == BARRIER else (a,) if b < 0 else (a, b)
        out.append(Instruction(kind, qubits, tuple(circuit.params[at : at + n])))
        at += n
    return tuple(out)


def oracle_1q_matrix(kind: str, params) -> np.ndarray:
    if kind in ORACLE_1Q:
        return ORACLE_1Q[kind]
    if kind == "rx":
        (a,) = params
        return np.array(
            [
                [math.cos(a / 2), -1j * math.sin(a / 2)],
                [-1j * math.sin(a / 2), math.cos(a / 2)],
            ],
            dtype=complex,
        )
    if kind == "ry":
        (a,) = params
        return np.array(
            [
                [math.cos(a / 2), -math.sin(a / 2)],
                [math.sin(a / 2), math.cos(a / 2)],
            ],
            dtype=complex,
        )
    if kind == "rz":
        (a,) = params
        return np.diag([np.exp(-1j * a / 2), np.exp(1j * a / 2)]).astype(complex)
    if kind == "u":
        th, ph, la = params
        return np.array(
            [
                [math.cos(th / 2), -np.exp(1j * la) * math.sin(th / 2)],
                [
                    np.exp(1j * ph) * math.sin(th / 2),
                    np.exp(1j * (ph + la)) * math.cos(th / 2),
                ],
            ],
            dtype=complex,
        )
    raise ValueError(kind)


def _embed_1q(mat: np.ndarray, q: int, n: int) -> np.ndarray:
    # qubit 0 is the most significant bit, so it sits on the outer kron factor
    return np.kron(np.kron(np.eye(2**q), mat), np.eye(2 ** (n - q - 1)))


def _embed_2q(mat4: np.ndarray, a: int, b: int, n: int) -> np.ndarray:
    dim = 2**n
    full = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        bits = [(col >> (n - 1 - k)) & 1 for k in range(n)]
        src = (bits[a] << 1) | bits[b]
        for dst in range(4):
            amp = mat4[dst, src]
            if amp != 0:
                nb = list(bits)
                nb[a] = (dst >> 1) & 1
                nb[b] = dst & 1
                row = 0
                for bit in nb:
                    row = (row << 1) | bit
                full[row, col] += amp
    return full


def dense_unitary(circuit) -> np.ndarray:
    """Full 2^n unitary assembled gate by gate with dense matrix products."""
    n = circuit.width
    U = np.eye(2**n, dtype=complex)
    for ins in as_instructions(circuit):
        if ins.is_barrier:
            continue
        if len(ins.qubits) == 1:
            full = _embed_1q(oracle_1q_matrix(ins.kind, ins.params), ins.qubits[0], n)
        else:
            full = _embed_2q(ORACLE_2Q[ins.kind], ins.qubits[0], ins.qubits[1], n)
        U = full @ U
    return U


def _basis_groups(qubits, n: int) -> list[np.ndarray]:
    """Basis indices grouped by the value the gate's qubits take there (first
    gate qubit most significant); the groups are aligned over the rest."""
    shifts = [n - 1 - q for q in qubits]
    rest = np.arange(2**n)
    for s in shifts:
        rest = rest[((rest >> s) & 1) == 0]
    groups = []
    for v in range(2 ** len(shifts)):
        idx = rest.copy()
        for j, s in enumerate(shifts):
            idx |= ((v >> (len(shifts) - 1 - j)) & 1) << s
        groups.append(idx)
    return groups


def dense_statevector(circuit) -> np.ndarray:
    """|0...0> evolved by each gate's textbook matrix, applied through basis
    index arithmetic rather than 2^n matrices, so 10 qubits stay cheap."""
    n = circuit.width
    psi = np.zeros(2**n, dtype=complex)
    psi[0] = 1.0
    for ins in as_instructions(circuit):
        if ins.is_barrier:
            continue
        if len(ins.qubits) == 1:
            mat = oracle_1q_matrix(ins.kind, ins.params)
        else:
            mat = ORACLE_2Q[ins.kind]
        groups = _basis_groups(ins.qubits, n)
        new = np.zeros_like(psi)
        for dst, rows in enumerate(groups):
            for src, cols in enumerate(groups):
                if mat[dst, src] != 0:
                    new[rows] += mat[dst, src] * psi[cols]
        psi = new
    return psi


def bfs_hops(neighbors, src: int, dst: int) -> int:
    """Plain BFS hop count, the shortest-path oracle."""
    if src == dst:
        return 0
    seen = {src}
    queue = deque([(src, 0)])
    while queue:
        node, d = queue.popleft()
        for nb in neighbors[node]:
            if nb == dst:
                return d + 1
            if nb not in seen:
                seen.add(nb)
                queue.append((nb, d + 1))
    raise ValueError(f"no path {src}->{dst}")


def floyd_warshall(n: int, edges) -> list[list[int]]:
    """All-pairs hop counts by Floyd-Warshall relaxation; -1 where no path."""
    inf = n  # no shortest path has n hops
    d = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    for a, b in edges:
        d[a][b] = d[b][a] = 1
    for k in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    return [[-1 if x == inf else x for x in row] for row in d]


def frontier_replay(circuit):
    """Independent metrics: replay instructions onto per-qubit time counters."""
    clock = {}
    ones = twos = 0
    for ins in as_instructions(circuit):
        if ins.is_barrier:
            continue
        start = max((clock.get(q, 0) for q in ins.qubits), default=0)
        for q in ins.qubits:
            clock[q] = start + 1
        if len(ins.qubits) == 1:
            ones += 1
        else:
            twos += 1
    depth = max(clock.values(), default=0)
    return depth, ones, twos


def operand_stream(instructions) -> list[int]:
    """The gates' operands as flat (a, b) pairs, b = -1 for a 1-qubit gate,
    barriers left out: the router's operand stream."""
    out = []
    for ins in instructions:
        if not ins.is_barrier:
            out += ins.qubits if len(ins.qubits) == 2 else (ins.qubits[0], -1)
    return out


def fewest_swaps_table(n: int, edges) -> dict[tuple[int, ...], int]:
    """Brute-force BFS over layouts from the identity: the fewest
    coupling-edge swaps between every layout and the identity. A swap undoes
    itself, so the count is the same in both directions."""
    goal = tuple(range(n))
    fewest = {goal: 0}
    queue = deque([goal])
    while queue:
        state = queue.popleft()
        d = fewest[state] + 1
        for a, b in edges:
            nxt = list(state)
            nxt[a], nxt[b] = nxt[b], nxt[a]
            nxt = tuple(nxt)
            if nxt not in fewest:
                fewest[nxt] = d
                queue.append(nxt)
    return fewest


def full_window_chooser(circuit, cmap, window_size):
    """Brute-force lookahead swap chooser with the library chooser's call
    shape: for every coupling edge touching a blocked operand, swap it in a
    copy of the layout and rescore every 2-qubit gate of the window, with
    Floyd-Warshall distances. The first edge below the unswapped score wins,
    and a later one only with a strictly lower score."""
    dist = floyd_warshall(cmap.n_phys, cmap.edges)
    pairs = [ins.qubits for ins in as_instructions(circuit) if not ins.is_barrier and len(ins.qubits) == 2]

    def choose(k, lay, pos, pa, pb):
        window = pairs[k : k + window_size]

        def score(where):
            return sum(dist[where[x]][where[y]] for x, y in window)

        best, best_score = None, score(pos)
        for p, q in sorted(e for e in cmap.edges if pa in e or pb in e):
            swapped = list(pos)
            swapped[lay[p]], swapped[lay[q]] = q, p
            s = score(swapped)
            if s < best_score:
                best, best_score = (p, q), s
        return best

    return choose


def instruction_route(circuit, cmap, choose=None):
    """The routing loop as it was before the router emitted text: every output
    gate, barrier and SWAP is a validated Instruction on physical qubits.
    choose is a swap chooser with the library's call shape, None for basic
    routing. Returns the instructions, the final layout (physical -> logical)
    and the inserted SWAP count."""
    n = cmap.n_phys
    lay = list(range(n))
    pos = list(range(n))
    out = []
    swaps = 0
    k = 0
    for ins in as_instructions(circuit):
        qs = ins.qubits
        if ins.is_barrier:
            out.append(Instruction(BARRIER, tuple(sorted(pos[q] for q in qs))))
            continue
        if len(qs) == 1:
            out.append(Instruction(ins.kind, (pos[qs[0]],), ins.params))
            continue
        a, b = qs
        pa, pb = pos[a], pos[b]
        while cmap.dist[pa][pb] != 1:
            best = choose(k, lay, pos, pa, pb) if choose else None
            if best:
                hops = (best,)
            else:
                path = astar_path(cmap, pa, pb)
                hops = zip(path, path[1:-1])
            for u, v in hops:
                out.append(Instruction("swap", (u, v) if u < v else (v, u)))
                lu, lv = lay[u], lay[v]
                lay[u], lay[v] = lv, lu
                pos[lu], pos[lv] = v, u
                swaps += 1
            pa, pb = pos[a], pos[b]
        k += 1
        out.append(Instruction(ins.kind, (pa, pb), ins.params))
    return out, tuple(lay), swaps
