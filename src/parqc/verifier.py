"""
Desk-scale correctness oracles: noiseless statevector simulation,
permutation-aware fidelity, and NNA-compliance checking.

simulate() is capped at 14 qubits (a 2^14 complex vector stays well under
1 GiB); these oracles exist to validate the compiler on reduced instances,
not to be a simulator in their own right.

simulate() moves no amplitudes for a SWAP. It keeps axis[q], the tensor axis
that holds circuit qubit q, and a SWAP only exchanges two entries of axis
(the known-permutation case of Burgholzer & Wille, "Advanced Equivalence
Checking for Quantum Circuits", IEEE TCAD 2021). 1-qubit gates are not
applied one by one: each axis keeps a pending 2x2 product, so a SWAP carries
it along with the qubit, and the product is applied to the state when a cx or
cz touches that qubit, or at the end. cx and cz update the one state buffer in
place, on a (2^lo, 2, 2^mid, 2, 2^rest) view of it: cx exchanges two slices,
cz negates one. One transpose at the end puts qubit q back on axis q.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .circuit import BARRIER_CODE, KIND_CODE, KINDS, N_PARAMS, SWAP_CODE, Circuit
from .topology import CouplingMap

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without the cost of importing typing
if TYPE_CHECKING:
    import numpy as np

MAX_SIM_QUBITS = 14
_CZ_CODE = KIND_CODE["cz"]

_SQRT2_INV = 1.0 / math.sqrt(2.0)


@functools.cache
def _gate_matrices() -> tuple:
    """Per kind code, the function from a 1-qubit gate's angles to its 2x2
    unitary (None for the other kinds). Built by the first simulation, so
    importing this module does not load numpy."""
    import numpy as np

    def fixed(matrix):
        return lambda: matrix

    def rx(t):
        return np.array(
            [[math.cos(t / 2), -1j * math.sin(t / 2)], [-1j * math.sin(t / 2), math.cos(t / 2)]],
            dtype=complex,
        )

    def ry(t):
        return np.array(
            [[math.cos(t / 2), -math.sin(t / 2)], [math.sin(t / 2), math.cos(t / 2)]],
            dtype=complex,
        )

    def rz(t):
        return np.array([[np.exp(-1j * t / 2), 0], [0, np.exp(1j * t / 2)]], dtype=complex)

    def u(theta, phi, lam):
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        return np.array(
            [
                [c, -np.exp(1j * lam) * s],
                [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c],
            ],
            dtype=complex,
        )

    builders = {
        "h": fixed(np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT2_INV),
        "x": fixed(np.array([[0, 1], [1, 0]], dtype=complex)),
        "y": fixed(np.array([[0, -1j], [1j, 0]], dtype=complex)),
        "z": fixed(np.array([[1, 0], [0, -1]], dtype=complex)),
        "s": fixed(np.array([[1, 0], [0, 1j]], dtype=complex)),
        "t": fixed(np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex)),
        "rx": rx,
        "ry": ry,
        "rz": rz,
        "u": u,
    }
    return tuple(builders.get(kind) for kind in KINDS)


def _apply_pending(state: np.ndarray, mat: np.ndarray, k: int, n: int) -> None:
    """Apply the 2x2 mat to tensor axis k of the flat state, in place;
    a diagonal mat touches only the halves whose factor is not 1."""
    v = state.reshape(1 << k, 2, 1 << (n - k - 1))
    s0, s1 = v[:, 0], v[:, 1]
    (a, b), (c, d) = mat.tolist()
    if b == 0 and c == 0:
        if a != 1:
            s0 *= a
        if d != 1:
            s1 *= d
        return
    new0 = s0 * a
    new0 += s1 * b
    s1 *= d
    s1 += s0 * c
    s0[...] = new0


def simulate(circuit: Circuit) -> np.ndarray:
    """Apply the instruction list to |0...0>; barriers are skipped.

    Amplitude index convention: qubit 0 is the most significant bit, i.e.
    amplitudes reshape to [2]*width with axis q holding qubit q.
    """
    import numpy as np

    n = circuit.width
    if n > MAX_SIM_QUBITS:
        raise ValueError(f"simulate supports at most {MAX_SIM_QUBITS} qubits, got {n}")
    matrices = _gate_matrices()
    state = np.zeros(2**n, dtype=complex)
    state[0] = 1.0
    axis = list(range(n))  # axis[q]: the tensor axis that holds circuit qubit q
    pending = [None] * n  # pending[k]: the 1-qubit product not yet applied to axis k
    params = circuit.params
    at = 0  # where the next gate's angles start in params
    for code, a, b in zip(circuit.kinds, circuit.ops[::2], circuit.ops[1::2]):
        if b < 0:
            if code != BARRIER_CODE:
                n_params = N_PARAMS[code]
                mat = matrices[code](*params[at : at + n_params])
                at += n_params
                k = axis[a]
                pending[k] = mat if pending[k] is None else mat @ pending[k]
        elif code == SWAP_CODE:
            axis[a], axis[b] = axis[b], axis[a]
        else:
            ka, kb = axis[a], axis[b]
            for k in (ka, kb):
                if pending[k] is not None:
                    _apply_pending(state, pending[k], k, n)
                    pending[k] = None
            lo, hi = sorted((ka, kb))
            v = state.reshape(1 << lo, 2, 1 << (hi - lo - 1), 2, 1 << (n - hi - 1))
            if code == _CZ_CODE:
                v[:, 1, :, 1] *= -1
            elif ka < kb:  # cx, control on the lower axis: flip the target within control 1
                v[:, 1] = v[:, 1, :, ::-1]
            else:
                v[:, :, :, 1] = v[:, ::-1, :, 1]
    for k, mat in enumerate(pending):
        if mat is not None:
            _apply_pending(state, mat, k, n)
    state = np.transpose(state.reshape([2] * n), axis).reshape(-1)
    # np.linalg.norm of a complex array runs two BLAS dots over strided views,
    # which now and then take milliseconds; the squares of the flat floats do not
    norm = math.sqrt(np.square(state.view(np.float64)).sum())
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"statevector norm drifted to {norm}")
    return state


def fidelity_under_layout(original: Circuit, compiled: Circuit, final_layout: tuple[int, ...]) -> float:
    """|<psi_orig | P(final_layout) psi_compiled>|^2 with physical axes relabeled to logical.

    final_layout[p] is the logical qubit at physical position p, and must be
    a permutation of range(compiled.width). The compiled circuit may be wider
    (spare physical qubits); those logical slots must end in |0>, matching
    the original state extended with |0>s.
    """
    import numpy as np

    n_c = compiled.width
    n_o = original.width
    if sorted(final_layout) != list(range(n_c)):
        raise ValueError(f"layout {list(final_layout)} is not a permutation of range({n_c})")
    if n_o > n_c:
        raise ValueError(f"original ({n_o} qubits) wider than compiled ({n_c})")
    psi_o = simulate(original)
    psi_c = simulate(compiled)
    # output axis l takes the input axis holding logical qubit l: the inverse
    # permutation, logical -> physical
    axes = np.argsort(final_layout)
    psi_p = np.transpose(psi_c.reshape([2] * n_c), axes)
    sub = psi_p[(slice(None),) * n_o + (0,) * (n_c - n_o)].reshape(-1)
    return float(abs(np.vdot(psi_o, sub)) ** 2)


@dataclass(frozen=True)
class Violation:
    """A 2-qubit gate acting on an uncoupled physical pair."""

    index: int
    kind: str
    qubits: tuple[int, int]


def check_nna(circuit: Circuit, cmap: CouplingMap) -> list[Violation]:
    """Every 2-qubit non-barrier gate on an uncoupled pair; empty iff compliant."""
    if circuit.width > cmap.n_phys:
        raise ValueError(
            f"circuit width {circuit.width} exceeds {cmap.n_phys} physical qubits"
        )
    dist = cmap.dist
    out = []
    for i, (a, b) in enumerate(zip(circuit.ops[::2], circuit.ops[1::2])):
        if b >= 0 and dist[a][b] != 1:
            out.append(Violation(i, KINDS[circuit.kinds[i]], (a, b)))
    return out
