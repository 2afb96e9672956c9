"""
Random circuit generation with exact width, depth and gate density.

Generation runs in two stages. First a fully dense circuit is laid down:
every qubit is busy in every layer, so depth and density (1.0) are exact by
construction. Then gates are removed one at a time, never touching a randomly
chosen "safe" qubit whose unbroken per-layer activity pins the depth, until
exactly ops_to_remove = depth*width - ceil(depth*width*density) operation
slots are freed (a 2-qubit gate frees two slots).

RNG is numpy's PCG64; identical spec + seed reproduces identical circuits on
any platform. At density 1.0 nothing is removed, and the circuit is the dense
stage's. numpy is imported by the first generation, not with this module.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace
from itertools import accumulate, chain, compress

from .circuit import GATES_1Q, GATES_2Q, KIND_CODE, N_PARAMS, Circuit

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without the cost of importing typing
if TYPE_CHECKING:
    import numpy as np

ONE_QUBIT_KINDS = tuple(sorted(GATES_1Q))
TWO_QUBIT_KINDS = tuple(sorted(GATES_2Q))
_CODES_1Q = tuple(KIND_CODE[kind] for kind in ONE_QUBIT_KINDS)
_CODES_2Q = tuple(KIND_CODE[kind] for kind in TWO_QUBIT_KINDS)

_TWO_PI = 2.0 * math.pi
_SAFE_QUBIT_ATTEMPTS = 64


class DensityError(ValueError):
    """Requested density cannot be realised (quota infeasible for every safe qubit)."""


@dataclass(frozen=True)
class DensitySpec:
    width: int
    depth: int
    density: float = 1.0
    seed: int = 0
    two_qubit_fraction: float = 0.5

    def __post_init__(self):
        if self.width < 2:
            raise ValueError(f"width must be >= 2, got {self.width}")
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")
        if not 0.0 <= self.two_qubit_fraction <= 1.0:
            raise ValueError(f"two_qubit_fraction must be in [0, 1], got {self.two_qubit_fraction}")
        floor = 1.0 / self.width
        if not floor <= self.density <= 1.0:
            raise ValueError(
                f"density must be in [1/width, 1] = [{floor:.6g}, 1], got {self.density}"
            )

    @property
    def max_ops(self) -> int:
        return self.depth * self.width

    @property
    def target_ops(self) -> int:
        """ceil(max_ops * density), guarded against float round-off in the product."""
        return math.ceil(round(self.max_ops * self.density, 9))


def _rng(seed: int) -> np.random.Generator:
    import numpy as np

    return np.random.Generator(np.random.PCG64(seed))


def _dense_columns(spec: DensitySpec, rng: np.random.Generator) -> tuple[bytearray, array, array]:
    """The kinds, ops and params columns of a fully dense layered circuit.

    Each layer's angles, in gate order, come from one uniform draw after its
    gates are laid: nothing else draws in between, so it is the same stream
    as one draw per parametric gate."""
    width = spec.width
    kinds = bytearray()
    ops = array("i")
    params = array("d")
    for _ in range(spec.depth):
        order = rng.permutation(width).tolist()
        pair_draw = rng.random(width).tolist()
        kind1_draw = rng.integers(0, len(_CODES_1Q), size=width).tolist()
        kind2_draw = rng.integers(0, len(_CODES_2Q), size=width).tolist()
        i = slot = n_angles = 0
        while i < width:
            if i + 1 < width and pair_draw[slot] < spec.two_qubit_fraction:
                kinds.append(_CODES_2Q[kind2_draw[slot]])
                ops.extend((order[i], order[i + 1]))
                i += 2
            else:
                code = _CODES_1Q[kind1_draw[slot]]
                kinds.append(code)
                n_angles += N_PARAMS[code]
                ops.extend((order[i], -1))
                i += 1
            slot += 1
        params.extend(rng.uniform(0.0, _TWO_PI, size=n_angles).tolist())
    return kinds, ops, params


def _fraction_ladder(start: float):
    """The requested two-qubit fraction, then halvings, then 0 (all-1q, which
    is always feasible: only the safe qubit's own column must survive)."""
    yield start
    f = start
    while f > 1e-3:
        f /= 2
        yield f
    yield 0.0


def _pick_quota(spec: DensitySpec, ops, rng, ops_to_remove):
    """Safe qubit + removal quota, or None if no safe qubit works for this base."""
    width = spec.width
    c1 = [0] * width
    c2 = [0] * width
    t1 = t2 = 0
    for a, b in zip(ops[::2], ops[1::2]):
        if b < 0:
            t1 += 1
            c1[a] += 1
        else:
            t2 += 1
            c2[a] += 1
            c2[b] += 1
    for _ in range(_SAFE_QUBIT_ATTEMPTS):
        safe = int(rng.integers(width))
        r1 = t1 - c1[safe]
        r2 = t2 - c2[safe]
        # feasible quotas: n1 + 2*n2 == ops_to_remove, n1 <= r1, n2 <= r2,
        # n1 matching ops_to_remove's parity
        lo = max(0, ops_to_remove - 2 * r2)
        hi = min(r1, ops_to_remove)
        if lo % 2 != ops_to_remove % 2:
            lo += 1
        if hi % 2 != ops_to_remove % 2:
            hi -= 1
        if lo > hi:
            continue  # re-pick the safe qubit
        n1 = lo + 2 * int(rng.integers((hi - lo) // 2 + 1))
        return safe, n1, (ops_to_remove - n1) // 2
    return None


def generate_with_density(spec: DensitySpec) -> Circuit:
    """Random circuit with depth == spec.depth and density ceil(max_ops*density)/max_ops.

    If the removal quota is infeasible for every safe qubit (low densities at
    small widths leave too many slots pinned by 2-qubit gates touching the
    safe qubit), the dense base is regenerated with a halved two-qubit
    fraction until verification passes; at fraction 0 it always does. The
    whole procedure consumes one seeded RNG stream, so identical specs still
    produce identical circuits.
    """
    rng = _rng(spec.seed)
    ops_to_remove = spec.max_ops - spec.target_ops
    name = f"rand-w{spec.width}-d{spec.depth}-p{spec.density:g}-s{spec.seed}"

    quota = None
    tried = []
    for fraction in _fraction_ladder(spec.two_qubit_fraction):
        kinds, ops, params = _dense_columns(replace(spec, two_qubit_fraction=fraction), rng)
        if ops_to_remove == 0:
            return Circuit._from_columns(spec.width, bytes(kinds), ops, params, (), name)
        quota = _pick_quota(spec, ops, rng, ops_to_remove)
        if quota is not None:
            break
        tried.append(fraction)
    if quota is None:
        raise DensityError(
            f"cannot remove {ops_to_remove} ops for density {spec.density} "
            f"(two-qubit fractions tried: {tried})"
        )
    safe, n1, n2 = quota

    pool1 = []
    pool2 = []
    for idx, (a, b) in enumerate(zip(ops[::2], ops[1::2])):
        if a == safe or b == safe:
            continue
        (pool1 if b < 0 else pool2).append(idx)

    removed = bytearray(len(kinds))
    ops_removed = 0
    while n1 > 0 or n2 > 0:
        # one draw over the pools that still owe removals, pool1's indices first
        size1 = len(pool1) if n1 > 0 else 0
        j = int(rng.integers(size1 + (len(pool2) if n2 > 0 else 0)))
        if j < size1:
            pool, n1 = pool1, n1 - 1
            ops_removed += 1
        else:
            pool, j, n2 = pool2, j - size1, n2 - 1
            ops_removed += 2
        removed[pool[j]] = 1
        pool[j] = pool[-1]
        pool.pop()
    if ops_removed != ops_to_remove:
        raise AssertionError(f"removed {ops_removed} ops, wanted {ops_to_remove}")

    keep = [not r for r in removed]
    kept_ops = array("i", chain.from_iterable(compress(zip(ops[::2], ops[1::2]), keep)))
    starts = list(accumulate((N_PARAMS[code] for code in kinds), initial=0))  # where each gate's angles start
    kept_params = array("d", chain.from_iterable(params[a:b] for a, b, k in zip(starts, starts[1:], keep) if k))
    return Circuit._from_columns(spec.width, bytes(compress(kinds, keep)), kept_ops, kept_params, (), name)
