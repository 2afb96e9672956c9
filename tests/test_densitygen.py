import hashlib
import json
import os
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

import parqc.densitygen
from helpers import as_instructions
from parqc.circuit import compute_metrics, serialize_qasm
from parqc.densitygen import DensityError, DensitySpec, generate_with_density

PINS_PATH = os.path.join(os.path.dirname(__file__), "data", "generator_sha256.json")

# Specs whose generated QASM is pinned byte for byte: the pins guard the RNG
# stream (which draw feeds which choice, in which order), not only the
# properties the other tests check. After a deliberate change to the stream,
# rewrite the digests with
#
#     PYTHONPATH=src python3 tests/test_densitygen.py
PINNED_SPECS = {
    "w2-d6-p0.5-s1": DensitySpec(width=2, depth=6, density=0.5, seed=1),  # walks the fraction ladder
    "w5-d12-p0.7-s3": DensitySpec(width=5, depth=12, density=0.7, seed=3),
    "w7-d10-p1-s4": DensitySpec(width=7, depth=10, density=1.0, seed=4),
    "w9-d20-p0.6-s11-f0": DensitySpec(width=9, depth=20, density=0.6, seed=11, two_qubit_fraction=0.0),
    "w200-d10-p1-s1": DensitySpec(width=200, depth=10, density=1.0, seed=1),
    "w200-d6-p0.55-s2": DensitySpec(width=200, depth=6, density=0.55, seed=2),
}


def generated_digest(spec: DensitySpec) -> str:
    return hashlib.sha256(serialize_qasm(generate_with_density(spec)).encode()).hexdigest()


def exact_target(width: int, depth: int, density) -> int:
    """ceil(max_ops * density) in exact rational arithmetic."""
    max_ops = width * depth
    frac = Fraction(density).limit_denominator(10**9)
    return -((-max_ops * frac.numerator) // frac.denominator)


# ---------------------------------------------------------------------------
# dense stage
# ---------------------------------------------------------------------------


def test_dense_small_is_exactly_full():
    c = generate_with_density(DensitySpec(width=6, depth=6, seed=0))
    m = compute_metrics(c)
    assert m.depth == 6
    assert m.density == 1.0


def test_dense_large_is_exactly_full():
    c = generate_with_density(DensitySpec(width=200, depth=500, seed=42))
    m = compute_metrics(c)
    assert m.depth == 500
    assert m.density == 1.0
    assert m.n_q1 + 2 * m.n_q2 == 200 * 500


def test_dense_two_qubit_fraction_extremes():
    all_1q = generate_with_density(DensitySpec(width=5, depth=10, seed=1, two_qubit_fraction=0.0))
    assert all(len(i.qubits) == 1 for i in as_instructions(all_1q))
    all_2q = generate_with_density(DensitySpec(width=4, depth=10, seed=1, two_qubit_fraction=1.0))
    assert all(len(i.qubits) == 2 for i in as_instructions(all_2q))


def test_seed_determinism_bytes():
    spec = DensitySpec(width=8, depth=30, density=0.6, seed=123)
    a = serialize_qasm(generate_with_density(spec))
    b = serialize_qasm(generate_with_density(spec))
    assert a == b
    different = serialize_qasm(generate_with_density(DensitySpec(width=8, depth=30, density=0.6, seed=124)))
    assert a != different


@pytest.fixture(scope="module")
def generator_pins():
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def test_generator_pins_cover_every_spec(generator_pins):
    assert sorted(generator_pins) == sorted(PINNED_SPECS)


@pytest.mark.parametrize("name", sorted(PINNED_SPECS))
def test_generated_output_is_pinned(name, generator_pins):
    assert generated_digest(PINNED_SPECS[name]) == generator_pins[name]


def test_pinned_specs_cover_angles_removal_and_the_fraction_ladder(monkeypatch):
    picks = []
    pick_quota = parqc.densitygen._pick_quota

    def counted(*args):
        picks.append(pick_quota(*args))
        return picks[-1]

    monkeypatch.setattr(parqc.densitygen, "_pick_quota", counted)
    for name, spec in PINNED_SPECS.items():
        picks.clear()
        circuit = generate_with_density(spec)
        assert circuit.params, name  # every pin draws angles
        assert (spec.density < 1) == bool(picks), name  # removal runs exactly below density 1
        if name == "w2-d6-p0.5-s1":
            assert None in picks  # at least one dense base was regenerated at a lower fraction


# ---------------------------------------------------------------------------
# density stage
# ---------------------------------------------------------------------------


def test_density_paper_scale_cell():
    spec = DensitySpec(width=20, depth=10_000, density=0.20, seed=0)
    m = compute_metrics(generate_with_density(spec))
    assert m.depth == 10_000
    assert abs(m.density - 0.20) <= 1 / (20 * 10_000)
    assert m.n_q1 + 2 * m.n_q2 == exact_target(20, 10_000, 0.20)


@pytest.mark.parametrize("width", [4, 5, 9])
@pytest.mark.parametrize("depth", [1, 8, 37])
@pytest.mark.parametrize("density", [0.3, 0.55, 0.9, 1.0])
def test_density_exactness_and_depth_preservation(width, depth, density):
    if density < 1.0 / width:
        pytest.skip("below the representable floor")
    spec = DensitySpec(width=width, depth=depth, density=density, seed=width * 1000 + depth)
    m = compute_metrics(generate_with_density(spec))
    assert m.depth == depth
    assert m.n_q1 + 2 * m.n_q2 == exact_target(width, depth, density)
    assert abs(m.density - density) <= 1 / (width * depth)


def test_minimum_density_leaves_only_safe_column():
    # with 2q gates absent the paper's minimum-density picture is reachable:
    # exactly `depth` 1q gates survive, all on one qubit, depth preserved
    spec = DensitySpec(width=6, depth=25, density=1 / 6, seed=3, two_qubit_fraction=0.0)
    c = generate_with_density(spec)
    m = compute_metrics(c)
    assert m.depth == 25
    assert m.n_q1 == 25 and m.n_q2 == 0
    touched = {q for ins in as_instructions(c) for q in ins.qubits}
    assert len(touched) == 1


def test_fraction_ladder_rescues_tight_quotas():
    # all-2q layers leave nothing removable (every gate spans two qubits and
    # half of them touch any candidate safe qubit); the generator must walk
    # the fraction ladder down until verification passes and still hit the
    # exact density
    spec = DensitySpec(width=4, depth=50, density=0.25, seed=0, two_qubit_fraction=1.0)
    m = compute_metrics(generate_with_density(spec))
    assert m.depth == 50
    assert m.n_q1 + 2 * m.n_q2 == exact_target(4, 50, 0.25)


def test_low_density_small_width_cells_are_exact():
    # structurally tight cells (criterion-style width 6 at density 0.2)
    for depth in (100, 750):
        spec = DensitySpec(width=6, depth=depth, density=0.2, seed=depth)
        m = compute_metrics(generate_with_density(spec))
        assert m.depth == depth
        assert m.n_q1 + 2 * m.n_q2 == exact_target(6, depth, 0.2)


def test_safe_qubit_untouched_by_removal():
    spec = DensitySpec(width=7, depth=15, density=0.5, seed=11)
    base = generate_with_density(replace(spec, density=1.0))
    thin = generate_with_density(spec)
    removed = Counter(as_instructions(base)) - Counter(as_instructions(thin))
    untouched = [
        q
        for q in range(7)
        if all(q not in ins.qubits for ins in removed)
    ]
    assert untouched, "some qubit must be exempt from removal"
    # the safe qubit's own gate sequence is preserved verbatim
    q = untouched[0]
    seq_base = [i for i in as_instructions(base) if q in i.qubits]
    seq_thin = [i for i in as_instructions(thin) if q in i.qubits]
    assert seq_base == seq_thin


def test_removal_accounting_identity():
    for seed in range(30):
        spec = DensitySpec(width=6, depth=20, density=0.45, seed=seed)
        base = compute_metrics(generate_with_density(replace(spec, density=1.0)))
        thin = compute_metrics(generate_with_density(spec))
        removed_ops = (base.n_q1 - thin.n_q1) + 2 * (base.n_q2 - thin.n_q2)
        assert removed_ops == spec.max_ops - exact_target(6, 20, 0.45)


def test_order_of_survivors_is_preserved():
    spec = DensitySpec(width=5, depth=12, density=0.6, seed=2)
    base = generate_with_density(replace(spec, density=1.0))
    thin = generate_with_density(spec)
    it = iter(as_instructions(base))
    assert all(ins in it for ins in as_instructions(thin))  # subsequence check


def test_target_ops_float_guard():
    # 200000 * 0.7 == 140000.00000000003 in IEEE; naive ceil says 140001
    spec = DensitySpec(width=20, depth=10_000, density=0.7, seed=0)
    assert spec.target_ops == 140_000
    assert spec.target_ops == exact_target(20, 10_000, 0.7)
    for width, depth, density in [(6, 100, 0.2), (50, 10_000, 0.7), (3, 7, 0.41)]:
        spec = DensitySpec(width=width, depth=depth, density=density, seed=0)
        assert spec.target_ops == exact_target(width, depth, density)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(width=1, depth=5),
        dict(width=4, depth=0),
        dict(width=4, depth=5, density=0.0),
        dict(width=4, depth=5, density=0.2),  # below 1/4
        dict(width=4, depth=5, density=1.2),
        dict(width=4, depth=5, two_qubit_fraction=1.5),
    ],
)
def test_spec_validation(kwargs):
    with pytest.raises(ValueError):
        DensitySpec(**kwargs)


if __name__ == "__main__":
    digests = {name: generated_digest(spec) for name, spec in PINNED_SPECS.items()}
    with open(PINS_PATH, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {PINS_PATH}", file=sys.stderr)
