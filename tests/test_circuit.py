import math
import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import as_instructions, frontier_replay
from parqc.circuit import (
    BARRIER,
    Circuit,
    Instruction,
    QasmError,
    _GATE_RE,
    compute_metrics,
    final_layout_comment,
    parse_final_layout_comment,
    parse_qasm,
    serialize_qasm,
)
from parqc.densitygen import DensitySpec, generate_with_density


def _random_circuit(seed, width=6, depth=12, density=0.8):
    return generate_with_density(DensitySpec(width=width, depth=depth, density=density, seed=seed))


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_example_circuit(example6q):
    assert example6q.width == 6
    assert len(as_instructions(example6q)) == 29
    kinds = [ins.kind for ins in as_instructions(example6q)]
    assert kinds.count("cx") == 7


def test_parse_header_only():
    c = parse_qasm("OPENQASM 2.0;\nqreg q[3];\n")
    assert c.width == 3
    assert as_instructions(c) == ()


def test_parse_creg_and_measure_dropped(caplog):
    text = (
        "OPENQASM 2.0;\n"
        'include "qelib1.inc";\n'
        "qreg q[2];\n"
        "creg c[2];\n"
        "h q[0];\n"
        "measure q[0] -> c[0];\n"
        "measure q[1] -> c[1];\n"
    )
    with caplog.at_level(logging.WARNING, logger="parqc.circuit"):
        c = parse_qasm(text)
    assert [r.getMessage() for r in caplog.records] == [
        "dropped 2 measure statement(s); routing works on the unitary prefix"
    ]
    assert [ins.kind for ins in as_instructions(c)] == ["h"]


def test_parse_broadcast_expands_in_index_order():
    c = parse_qasm("OPENQASM 2.0;\nqreg q[3];\nh q;\n")
    assert [ins.qubits for ins in as_instructions(c)] == [(0,), (1,), (2,)]


def test_parse_barrier_operands_dedupe_in_order():
    c = parse_qasm("OPENQASM 2.0;\nqreg q[3];\nbarrier q[2],q[2];\nbarrier q[1],q;\n")
    assert [(ins.kind, ins.qubits) for ins in as_instructions(c)] == [(BARRIER, (2,)), (BARRIER, (1, 0, 2))]


def test_parse_angle_expressions():
    c = parse_qasm(
        "OPENQASM 2.0;\nqreg q[1];\nrx(pi/2) q[0];\nrz(-pi) q[0];\nry(2*pi/3) q[0];\nrx(1e-3) q[0];\nu(pi/4,0.5,-0.25) q[0];\n"
    )
    assert as_instructions(c)[0].params[0] == pytest.approx(math.pi / 2, abs=0)
    assert as_instructions(c)[1].params[0] == pytest.approx(-math.pi, abs=0)
    assert as_instructions(c)[2].params[0] == pytest.approx(2 * math.pi / 3, abs=1e-15)
    assert as_instructions(c)[3].params[0] == 1e-3
    assert as_instructions(c)[4].params == (math.pi / 4, 0.5, -0.25)


def at_line_3(text, match, message):
    """A case whose whole error message is pinned to the start of line 3. Its
    id is the one the plain (text, match) pair gets, so the case keeps its name."""
    return pytest.param(text, "^line 3, col 1: " + message, id=f"{text}-{match}")


@pytest.mark.parametrize(
    "text, match",
    [
        ("OPENQASM 3.0;\nqreg q[2];\n", "unsupported OpenQASM version"),
        ("qreg q[2];\n", "expected 'OPENQASM 2.0;'"),
        ("OPENQASM 2.0;\nqreg q[2];\nqreg r[2];\n", "multiple quantum registers"),
        at_line_3("OPENQASM 2.0;\nqreg q[2];\nfoo q[0];\n", "unknown gate 'foo'", "unknown gate 'foo'"),
        at_line_3("OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[5];\n", "out of range", r"qubit index 5 out of range for q\[2\]"),
        ("OPENQASM 2.0;\nqreg q[2];\nh q[0]\n", "not terminated"),
        at_line_3("OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[0];\n", "distinct", r"cx qubits must be distinct: \(0, 0\)"),
        at_line_3(
            "OPENQASM 2.0;\nqreg q[2];\nrx(0.5,0.5) q[0];\n", "takes 1 parameter", r"rx takes 1 parameter\(s\), got 2"
        ),
        pytest.param(
            "OPENQASM 2.0;\nqreg q[2];\ncx q[0];\n",
            r"^line 3, col 1: cx takes 2 qubit\(s\), got \(0,\)",
            id="two-qubit-gate-on-one-qubit",
        ),
        pytest.param(
            "OPENQASM 2.0;\nqreg q[2];\nh q[0],q[1];\n",
            r"^line 3, col 1: h takes 1 qubit\(s\), got \(0, 1\)",
            id="one-qubit-gate-on-two-qubits",
        ),
        ("OPENQASM 2.0;\nqreg q[2];\nh r[0];\n", "unknown register"),
        ("OPENQASM 2.0;\nh q[0];\nqreg q[2];\n", "before qreg"),
        ("OPENQASM 2.0;\nqreg q[2];\nrx(pi**2) q[0];\n", "angle"),
        # each of these is reported at the offending statement's line and column
        pytest.param(
            "OPENQASM 2.0;\nqreg r[2];\nh q[0];\n",
            r"^line 3, col 1: unknown register 'q'",
            id="undeclared-register-on-a-canonical-line",
        ),
        pytest.param(
            "OPENQASM 2.0;\nqreg q[2];\nrx(pi/0) q[0];\n",
            r"^line 3, col 1: bad angle expression 'pi/0': .*division by zero",
            id="division-by-zero",
        ),
        pytest.param(
            "OPENQASM 2.0;\nqreg q[2];\nrx(" + "-" * 3000 + "1) q[0];\n",
            r"^line 3, col 1: bad angle expression '-+\.\.\.-+1'",
            id="long-unary-chain",
        ),
        pytest.param(
            "OPENQASM 2.0;\nqreg q[2];\nrx(" + "-" * 10000 + "1) q[0];\n",
            r"^line 3, col 1: bad angle expression '-+\.\.\.-+1'",
            id="very-long-unary-chain",
        ),
        pytest.param(
            "OPENQASM 2.0;\nqreg q[2];\nrx(" + "(" * 3000 + "1" + ")" * 3000 + ") q[0];\n",
            r"^line 3, col 1: bad angle expression '\(+\.\.\.\)+'",
            id="deeply-nested-parentheses",
        ),
        pytest.param(
            "OPENQASM 2.0;\nqreg q[2];\nrx(1e999) q[0];\n",
            r"^line 3, col 1: rx parameter inf is not finite",
            id="overflow",
        ),
        pytest.param(
            "OPENQASM 2.0;\nqreg q[2];\nbarrier(0.5) q;\n",
            r"^line 3, col 1: barrier takes no parameters",
            id="barrier-parameter",
        ),
        pytest.param(
            "OPENQASM 2.0;\nqreg q[2];\nrx(1_0) q[0];\n",
            r"^line 3, col 1: bad angle expression '1_0'",
            id="underscore",
        ),
        pytest.param(
            "OPENQASM 2.0;\nqreg q[2];\nh q[0]; rx(1_0) q[0];\n",
            r"^line 3, col 9: bad angle expression '1_0'",
            id="underscore-second-statement",
        ),
    ],
)
def test_parse_errors(text, match):
    with pytest.raises(QasmError, match=match) as excinfo:
        parse_qasm(text)
    assert excinfo.value.line is not None and excinfo.value.col is not None


def test_parse_error_reports_position():
    try:
        parse_qasm("OPENQASM 2.0;\nqreg q[4];\nh q[0];\nfrob q[1];\n")
    except QasmError as exc:
        assert exc.line == 4
        assert exc.col == 1
        assert "line 4" in str(exc)
    else:
        pytest.fail("expected QasmError")


def test_comments_end_at_every_line_break():
    plain = "OPENQASM 2.0;\nqreg q[3];\nh q[0];\ncx q[0],\nq[1];\nrz(0.5) q[2];\n"
    commented = (
        "OPENQASM 2.0; // header\r\nqreg q[3];\r\n// a comment; with a semicolon\r\n"
        "h q[0]; // cx q[1],q[2];\x85cx q[0], // split\u2028q[1];\rrz(0.5) q[2];\r\n"
        "// final_layout: [0, 1, 2]\r\n"
    )
    assert parse_qasm(commented) == parse_qasm(plain)
    with pytest.raises(QasmError) as err:
        parse_qasm("OPENQASM 2.0;\r\nqreg q[2]; // two\r\n// frob q[0];\r\nh q[0];\u2028  frob q[1];\r\n")
    assert (err.value.line, err.value.col) == (5, 3)


def test_statement_may_span_lines():
    c = parse_qasm("OPENQASM 2.0;\nqreg q[2];\ncx\n  q[0],\n  q[1];\n")
    assert as_instructions(c) == (Instruction("cx", (0, 1)),)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_serialize_single_cx():
    text = serialize_qasm(Circuit(2, [Instruction("cx", (0, 1))]))
    cx_lines = [ln for ln in text.splitlines() if ln.startswith("cx")]
    assert cx_lines == ["cx q[0],q[1];"]


def test_roundtrip_seeded_circuits():
    for seed in range(100):
        c = _random_circuit(seed, width=2 + seed % 7, depth=1 + seed % 20, density=1.0)
        assert parse_qasm(serialize_qasm(c)) == c


def test_serializer_byte_stable():
    c = _random_circuit(3)
    assert serialize_qasm(c) == serialize_qasm(parse_qasm(serialize_qasm(c)))


def test_serializer_injective_on_distinct_circuits():
    seen = {}
    for seed in range(1000):
        c = _random_circuit(seed, width=2 + seed % 4, depth=1 + seed % 5, density=1.0)
        digest = hash(serialize_qasm(c))
        if digest in seen:
            assert seen[digest] == as_instructions(c)  # hash collision would be a real clash
        seen[digest] = as_instructions(c)
    assert len(seen) > 900  # distinct instruction lists serialize distinctly


def test_barrier_roundtrip():
    c = Circuit(
        4,
        [
            Instruction("h", (0,)),
            Instruction(BARRIER, (0, 1, 2, 3)),
            Instruction("cx", (1, 2)),
            Instruction(BARRIER, (0, 2)),
        ],
    )
    text = serialize_qasm(c)
    assert "barrier q;" in text
    assert "barrier q[0],q[2];" in text
    assert parse_qasm(text) == c


def test_final_layout_comment_roundtrip(tmp_path):
    from parqc.circuit import read_qasm

    c = Circuit(3, [Instruction("h", (0,))])
    path = tmp_path / "c.qasm"
    path.write_text(serialize_qasm(c) + final_layout_comment([2, 0, 1]))
    assert parse_final_layout_comment(path.read_text()) == (2, 0, 1)
    assert read_qasm(path) == c


def test_angle_precision_survives_roundtrip():
    angles = [math.pi, 1 / 3, 2.220446049250313e-16, 6.283185307179586, 0.1 + 0.2]
    c = Circuit(1, [Instruction("rz", (0,), (a,)) for a in angles])
    back = parse_qasm(serialize_qasm(c))
    for ins, a in zip(as_instructions(back), angles):
        assert ins.params[0] == a  # 17 significant digits are lossless for float64


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def test_metrics_example_circuit(example6q):
    m = compute_metrics(example6q)
    assert m.depth == 6
    assert m.width == 6
    assert m.n_q1 == 22
    assert m.n_q2 == 7
    assert m.density == 1.0


def test_metrics_single_layer_of_h():
    for w in (1, 3, 8):
        c = Circuit(w, [Instruction("h", (q,)) for q in range(w)])
        m = compute_metrics(c)
        assert m.depth == 1
        assert m.n_q1 == w
        assert m.density == 1.0


def test_metrics_against_replay_oracle():
    for seed in range(1000):
        c = _random_circuit(
            seed,
            width=4 + seed % 6,
            depth=2 + seed % 17,
            density=(0.5, 0.75, 1.0)[seed % 3],
        )
        m = compute_metrics(c)
        depth, ones, twos = frontier_replay(c)
        assert (m.depth, m.n_q1, m.n_q2) == (depth, ones, twos)
        assert m.density == (ones + 2 * twos) / (depth * c.width)


def test_metrics_gateless_circuit_has_depth_zero():
    for c in (Circuit(3), Circuit(3, [Instruction(BARRIER, (0, 1, 2))])):
        m = compute_metrics(c)
        assert (m.width, m.depth, m.n_gates, m.swap_count, m.density) == (3, 0, 0, 0, 0.0)


def test_depth_monotone_under_append():
    c = _random_circuit(1, width=5, depth=9, density=1.0)
    base = compute_metrics(c)
    for q in range(5):
        grown = Circuit(5, as_instructions(c) + (Instruction("h", (q,)),))
        assert compute_metrics(grown).depth >= base.depth
    # a gate on a critical-path qubit extends depth by exactly one
    frontier = [0] * 5
    for ins in as_instructions(c):
        t = 1 + max(frontier[q] for q in ins.qubits)
        for q in ins.qubits:
            frontier[q] = t
    critical = frontier.index(max(frontier))
    grown = Circuit(5, as_instructions(c) + (Instruction("h", (critical,)),))
    assert compute_metrics(grown).depth == base.depth + 1


def test_barriers_do_not_change_metrics():
    c = _random_circuit(2, width=4, depth=7, density=1.0)
    interleaved = []
    for ins in as_instructions(c):
        interleaved.append(ins)
        interleaved.append(Instruction(BARRIER, (0, 1, 2, 3)))
    m0 = compute_metrics(c)
    m1 = compute_metrics(Circuit(4, interleaved))
    assert m0 == m1


def test_density_identity_is_exact_in_integers():
    for seed in range(50):
        c = _random_circuit(seed, width=4 + seed % 5, depth=6, density=0.5)
        m = compute_metrics(c)
        assert m.n_q1 + 2 * m.n_q2 == round(m.density * m.depth * m.width)


# ---------------------------------------------------------------------------
# instruction validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kind, qubits, params",
    [
        ("nope", (0,), ()),
        ("h", (0, 1), ()),
        ("cx", (0,), ()),
        ("cx", (1, 1), ()),
        ("rx", (0,), ()),
        ("u", (0,), (0.1,)),
        ("h", (0,), (0.1,)),
        ("rz", (0,), (float("nan"),)),
        ("barrier", (), ()),
    ],
)
def test_instruction_validation(kind, qubits, params):
    with pytest.raises(ValueError):
        Instruction(kind, qubits, params)


def test_circuit_rejects_out_of_range_qubits():
    # the parser and the pipeline build circuits without this check; the
    # public constructor keeps it for every operand position
    for ins in (Instruction("h", (2,)), Instruction("cx", (0, 2)), Instruction(BARRIER, (1, 2))):
        with pytest.raises(ValueError, match="out of range"):
            Circuit(2, [Instruction("h", (0,)), ins])


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

_KIND_1Q = st.sampled_from(sorted({"h", "x", "y", "z", "s", "t"}))
_ANGLE = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)


@st.composite
def circuits(draw):
    width = draw(st.integers(min_value=2, max_value=6))
    n = draw(st.integers(min_value=0, max_value=30))
    instrs = []
    for _ in range(n):
        choice = draw(st.integers(min_value=0, max_value=3))
        if choice == 0:
            instrs.append(Instruction(draw(_KIND_1Q), (draw(st.integers(0, width - 1)),)))
        elif choice == 1:
            kind = draw(st.sampled_from(["rx", "ry", "rz"]))
            instrs.append(Instruction(kind, (draw(st.integers(0, width - 1)),), (draw(_ANGLE),)))
        elif choice == 2:
            instrs.append(
                Instruction("u", (draw(st.integers(0, width - 1)),), tuple(draw(_ANGLE) for _ in range(3)))
            )
        else:
            a = draw(st.integers(0, width - 1))
            b = draw(st.integers(0, width - 2))
            if b >= a:
                b += 1
            instrs.append(Instruction(draw(st.sampled_from(["cx", "cz", "swap"])), (a, b)))
    return Circuit(width, instrs)


@settings(max_examples=150, deadline=None)
@given(circuits(), st.data())
def test_column_slice_is_the_instruction_slice(c, data):
    """A chunk's columns, as the pipeline sends them, hold exactly that run of
    instructions, angles and barriers included."""
    instrs = list(as_instructions(c))
    for _ in range(data.draw(st.integers(0, 4))):
        qubits = data.draw(st.sets(st.integers(0, c.width - 1), min_size=1))
        instrs.insert(data.draw(st.integers(0, len(instrs))), Instruction(BARRIER, tuple(sorted(qubits))))
    whole = Circuit(c.width, instrs)
    start = data.draw(st.integers(0, len(instrs)))
    end = data.draw(st.integers(start, len(instrs)))
    assert Circuit._from_columns(c.width, *whole.columns(start, end), "chunk") == Circuit(c.width, instrs[start:end])


@settings(max_examples=150, deadline=None)
@given(circuits())
def test_roundtrip_property(c):
    back = parse_qasm(serialize_qasm(c))
    assert back.width == c.width
    assert as_instructions(back) == as_instructions(c)


def _spell_angle(rnd, value):
    """An exact spelling of value: its 17-digit literal under parentheses,
    unary plus and double negation, which change no bit of the float."""
    text = f"{value:.17g}"
    for _ in range(rnd.randint(0, 3)):
        text = rnd.choice(["( {} )", "({})", "+{}", "+ {}", "-(-{})", "- ( -{} )"]).format(text)
    return text


def _print_loosely(rnd, circuit):
    """QASM for circuit with random whitespace, line breaks inside and between
    statements, several statements per line and // comments."""

    def gap():
        return rnd.choice(["", " ", "  ", "\t", "\n", " \n\t", " // note\n", "\r\n"])

    reg = rnd.choice(["q", "qr", "_r1"])
    statements = ["OPENQASM 2.0", 'include "qelib1.inc"', f"qreg {reg}{gap()}[{gap()}{circuit.width}{gap()}]"]
    for ins in as_instructions(circuit):
        text = ins.kind + gap()
        if ins.params:
            text += "(" + ",".join(gap() + _spell_angle(rnd, p) + gap() for p in ins.params) + ")"
        operands = [f"{reg}{gap()}[{gap()}{q}{gap()}]" for q in ins.qubits]
        statements.append(text + rnd.choice([" ", "\n", " // note\n"]) + ("," + gap()).join(operands))
    return "".join(
        rnd.choice(["", " ", "\n"]) + stmt + gap() + ";" + rnd.choice(["", " ", "\n", " // note\n"])
        for stmt in statements
    )


@settings(max_examples=150, deadline=None)
@given(circuits(), st.randoms(use_true_random=False))
def test_loosely_printed_circuit_parses_to_the_same_circuit(c, rnd):
    assert parse_qasm(_print_loosely(rnd, c)) == c


def test_canonical_text_and_its_loosely_spaced_twin_parse_to_equal_columns():
    extra = [Instruction("rx", (0,), (-0.5,)), Instruction("u", (3,), (1e-300, -2.5, 3.0)),
             Instruction(BARRIER, (1, 2)), Instruction(BARRIER, tuple(range(6))), Instruction("swap", (5, 0))]
    c = Circuit(6, [*extra, *as_instructions(_random_circuit(8)), *extra])
    canonical = serialize_qasm(c)
    # every gate statement the serializer writes takes the canonical-gate match
    statements = canonical.split(";")[3:-1]
    assert all(_GATE_RE.fullmatch(s) for s in statements if not s.startswith("\nbarrier"))
    loose = canonical
    for old, new in (("(", " ( "), (",", " , "), ("[", " [ "), ("]", "] "), (" q", "  q"), ("\n", "\r\n\t")):
        loose = loose.replace(old, new)
    assert not any(map(_GATE_RE.fullmatch, loose.split(";")))
    for text in (canonical, loose):
        parsed = parse_qasm(text)
        assert (parsed.width, parsed.kinds, parsed.ops, parsed.params, parsed.barriers) == (
            c.width, c.kinds, c.ops, c.params, c.barriers)


@settings(max_examples=100, deadline=None)
@given(circuits())
def test_density_consistency_property(c):
    if c.n_gates == 0:
        return
    m = compute_metrics(c)
    assert m.n_q1 + m.n_q2 == c.n_gates
    assert m.density * m.depth * m.width == pytest.approx(m.n_q1 + 2 * m.n_q2, abs=1e-9)
    assert 0 < m.density <= 1.0
