"""
Circuit IR, OpenQASM 2.0 I/O, and structural metrics.

The representation is deliberately flat: a Circuit is a qubit count plus an
ordered tuple of Instructions. That instruction order is the single temporal
truth used for splitting, routing and concatenation, so nothing here ever
reorders gates. Circuits are immutable once built and safe to share across
worker processes.
"""
from __future__ import annotations

import ast
import math
import operator
import os
import re
import reprlib
import warnings
from array import array
from dataclasses import dataclass

GATES_1Q = frozenset({"h", "x", "y", "z", "s", "t", "rx", "ry", "rz", "u"})
GATES_2Q = frozenset({"cx", "cz", "swap"})
BARRIER = "barrier"
PARAM_COUNTS = {"rx": 1, "ry": 1, "rz": 1, "u": 3}

_ALL_KINDS = GATES_1Q | GATES_2Q | {BARRIER}


class QasmError(ValueError):
    """OpenQASM parse failure, carrying the source position when known."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            where = f"line {line}" + (f", col {col}" if col is not None else "")
            message = f"{where}: {message}"
        super().__init__(message)


@dataclass(frozen=True, slots=True)
class Instruction:
    """One gate (or barrier) acting on register indices."""

    kind: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in _ALL_KINDS:
            raise ValueError(f"unknown gate {self.kind!r}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"{self.kind} qubits must be distinct: {self.qubits}")
        if self.kind == BARRIER:
            if not self.qubits:
                raise ValueError("barrier needs at least one qubit")
            if self.params:
                raise ValueError("barrier takes no parameters")
            return
        arity = 1 if self.kind in GATES_1Q else 2
        if len(self.qubits) != arity:
            raise ValueError(f"{self.kind} takes {arity} qubit(s), got {self.qubits}")
        want = PARAM_COUNTS.get(self.kind, 0)
        if len(self.params) != want:
            raise ValueError(f"{self.kind} takes {want} parameter(s), got {len(self.params)}")
        for p in self.params:
            if not math.isfinite(p):
                raise ValueError(f"{self.kind} parameter {p!r} is not finite")

    @property
    def is_barrier(self) -> bool:
        return self.kind == BARRIER


class Circuit:
    """Ordered instruction list over a single qubit register."""

    __slots__ = ("width", "instructions", "name")

    def __init__(self, width: int, instructions=(), name: str = "circuit"):
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        instructions = tuple(instructions)
        for ins in instructions:
            for q in ins.qubits:
                if not 0 <= q < width:
                    raise ValueError(f"qubit {q} out of range for width {width} in {ins.kind}")
        self.width = width
        self.instructions = instructions
        self.name = name

    @classmethod
    def _unchecked(cls, width: int, instructions: tuple, name: str) -> Circuit:
        """A circuit over instructions already known to fit the width: the
        parser's, which range-checks every operand as it reads it, and a
        slice of a circuit's own tuple. Skips __init__'s checks."""
        circuit = cls.__new__(cls)
        circuit.width = width
        circuit.instructions = instructions
        circuit.name = name
        return circuit

    @property
    def n_gates(self) -> int:
        """Instruction count excluding barriers."""
        return sum(1 for ins in self.instructions if not ins.is_barrier)

    def __len__(self) -> int:
        return len(self.instructions)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        return self.width == other.width and self.instructions == other.instructions

    def __hash__(self):
        return hash((self.width, self.instructions))

    def __repr__(self) -> str:
        return f"Circuit({self.name!r}, width={self.width}, {len(self.instructions)} instructions)"


@dataclass(frozen=True, slots=True)
class CircuitMetrics:
    """Structural measures: critical-path depth, gate counts and density."""

    width: int
    depth: int
    n_q1: int
    n_q2: int
    swap_count: int
    density: float

    @property
    def n_gates(self) -> int:
        return self.n_q1 + self.n_q2


def gate_operands(instructions) -> tuple[array, int, int, int]:
    """The gates' operands as one flat stream of (a, b) pairs, b = -1 for a
    1-qubit gate, barriers skipped; plus the 1-qubit, 2-qubit and SWAP counts.

    The stream is all frontier_depth needs, and an array pickles compactly, so
    pool workers hand it back with their chunk instead of Instruction objects."""
    ops = array("i")
    push = ops.append
    n_q1 = n_q2 = swap_count = 0
    for ins in instructions:
        kind = ins.kind
        if kind == BARRIER:
            continue
        qs = ins.qubits
        if len(qs) == 1:
            n_q1 += 1
            push(qs[0])
            push(-1)
        else:
            n_q2 += 1
            if kind == "swap":
                swap_count += 1
            push(qs[0])
            push(qs[1])
    return ops, n_q1, n_q2, swap_count


def frontier_depth(width: int, streams) -> int:
    """Critical-path depth of gate_operands streams applied in order to one
    register: scan per-qubit frontiers once. No gates means depth 0."""
    frontier = [0] * width
    for ops in streams:
        it = iter(ops)
        for a, b in zip(it, it):
            if b < 0:
                frontier[a] += 1
                continue
            t = frontier[a]
            fb = frontier[b]
            if fb > t:
                t = fb
            t += 1
            frontier[a] = t
            frontier[b] = t
    return max(frontier)


def compute_metrics(circuit: Circuit) -> CircuitMetrics:
    """Depth, counts and density = (n_q1 + 2*n_q2)/(depth*width).

    A circuit with no gates (none at all, or only barriers) has depth 0 and
    density 0.0."""
    ops, n_q1, n_q2, swap_count = gate_operands(circuit.instructions)
    depth = frontier_depth(circuit.width, (ops,))
    density = (n_q1 + 2 * n_q2) / (depth * circuit.width) if depth else 0.0
    return CircuitMetrics(circuit.width, depth, n_q1, n_q2, swap_count, density)


# --------------------------------------------------------------------------
# OpenQASM 2.0
# --------------------------------------------------------------------------

_HEADER_RE = re.compile(r"OPENQASM\s+(\S+)")
_QREG_RE = re.compile(r"qreg\s+([A-Za-z_]\w*)\s*\[\s*(\d+)\s*\]")
_CREG_RE = re.compile(r"creg\s+([A-Za-z_]\w*)\s*\[\s*(\d+)\s*\]")
_STATEMENT_RE = re.compile(r"([A-Za-z_]\w*)\s*(?:\((.*)\))?\s*(.*)")
_OPERAND_RE = re.compile(r"([A-Za-z_]\w*)\s*(?:\[\s*(\d+)\s*\])?")
# A gate on one or two indexed operands; directives and barriers never match.
# It and _DECIMALS_RE match ASCII only, which is faster: a statement with
# other whitespace or digits goes to the Unicode-aware statement path instead.
_GATE_RE = re.compile(
    r"\s*(?!barrier\b|qreg\b|creg\b|include|measure)([A-Za-z_]\w*)\b\s*(?:\((.*)\))?"
    r"\s*([A-Za-z_]\w*)\s*\[\s*(\d+)\s*\]"
    r"(?:\s*,\s*([A-Za-z_]\w*)\s*\[\s*(\d+)\s*\])?\s*",
    re.S | re.A,
)

_NUMBER = r"(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
_NUMBER_RE = re.compile(_NUMBER)
_DECIMALS_RE = re.compile(rf"\s*[-+]?{_NUMBER}\s*(?:,\s*[-+]?{_NUMBER}\s*)*", re.A)
_ANGLE_CHARS_RE = re.compile(r"[\d.eEpi+\-*/()\s]*")
_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul, ast.Div: operator.truediv}


def _angle_value(node) -> float:
    if isinstance(node, ast.Constant) and type(node.value) is float:
        return node.value
    if isinstance(node, ast.Name) and node.id == "pi":
        return math.pi
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        value = _angle_value(node.operand)
        return value if isinstance(node.op, ast.UAdd) else -value
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        return _BINOPS[type(node.op)](_angle_value(node.left), _angle_value(node.right))
    raise SyntaxError("only finite numbers, pi, parentheses and + - * / are allowed")


def _angle_expression(text: str) -> float:
    """An angle over numbers and pi with unary + -, binary + - * / and
    parentheses, parsed with ast and never evaluated by Python. Each number is
    read by float(), as a lone literal is, and enters the tree as its repr."""
    try:
        if not _ANGLE_CHARS_RE.fullmatch(text):
            raise SyntaxError("unexpected character")
        expr = _NUMBER_RE.sub(lambda m: repr(float(m[0])), " ".join(text.split()))
        return _angle_value(ast.parse(expr, mode="eval").body)
    # ast.parse reports an expression nested too deeply as RecursionError and
    # one nested deeper still as MemoryError
    except (SyntaxError, RecursionError, MemoryError, ArithmeticError) as exc:
        raise ValueError(f"bad angle expression {reprlib.repr(text.strip())}: {exc}") from None


def _angles(text: str) -> tuple[float, ...]:
    """A gate's comma-separated angles. Plain decimal literals, the
    serializer's form, go to float() as they are."""
    if _DECIMALS_RE.fullmatch(text):
        return tuple(map(float, text.split(",")))
    return tuple(map(_angle_expression, text.split(",")))


def parse_qasm(text: str, name: str = "circuit") -> Circuit:
    """Parse an OpenQASM 2.0 program with one quantum register.

    Only the canonical gate set, barrier, creg and measure are accepted;
    measures are dropped (with a single warning) so downstream passes see a
    pure unitary instruction list. The gate checks are Instruction's; any
    error is a QasmError at the line and column of the offending statement.
    """
    if "//" in text:
        text = "\n".join(line.split("//", 1)[0] for line in text.splitlines())
    *statements, tail = text.split(";")
    width = None
    reg_name = None
    saw_header = False
    dropped_measures = 0
    instructions: list[Instruction] = []
    append = instructions.append
    gate_match = _GATE_RE.fullmatch

    def index(idx: str) -> int:
        q = int(idx)
        if q >= width:
            raise QasmError(f"qubit index {q} out of range for {reg_name}[{width}]")
        return q

    def other_statement(stmt: str) -> None:
        """A whitespace-normalized statement that is not a plain gate: a
        directive, barrier, broadcast, or a gate with an error to report."""
        nonlocal width, reg_name, saw_header, dropped_measures
        if not saw_header:
            m = _HEADER_RE.fullmatch(stmt)
            if m is None:
                raise QasmError("expected 'OPENQASM 2.0;' header")
            if m.group(1) != "2.0":
                raise QasmError(f"unsupported OpenQASM version {m.group(1)}")
            saw_header = True
            return
        if stmt.startswith("include") or _CREG_RE.fullmatch(stmt):
            return
        m = _QREG_RE.fullmatch(stmt)
        if m is not None:
            if width is not None:
                raise QasmError("multiple quantum registers are not supported")
            reg_name, width = m.group(1), int(m.group(2))
            if width < 1:
                raise QasmError("quantum register must hold at least 1 qubit")
            return
        if stmt.startswith("measure"):
            dropped_measures += 1
            return
        m = _STATEMENT_RE.fullmatch(stmt)
        if m is None:
            raise QasmError(f"cannot parse statement {stmt!r}")
        if width is None:
            raise QasmError(f"statement before qreg declaration: {stmt!r}")
        kind, ptext, argtext = m.groups()
        operands = []
        for piece in argtext.split(","):
            m = _OPERAND_RE.fullmatch(piece.strip())
            if m is None:
                raise QasmError(f"bad operand {piece.strip()!r}")
            if m.group(1) != reg_name:
                raise QasmError(f"unknown register {m.group(1)!r}")
            operands.append(m.group(2))
        params = () if ptext is None else _angles(ptext)
        if kind == BARRIER:  # a bare register name stands for all its qubits
            qubits = (q for idx in operands for q in (range(width) if idx is None else (index(idx),)))
            append(Instruction(BARRIER, tuple(dict.fromkeys(qubits)), params))
        elif operands == [None]:  # register broadcast: one gate per qubit
            for q in range(width):
                append(Instruction(kind, (q,), params))
        elif None in operands:
            raise QasmError("register broadcast not allowed here")
        else:
            append(Instruction(kind, tuple(map(index, operands)), params))

    try:
        for i, stmt in enumerate(statements):
            m = gate_match(stmt)
            if m is not None and width is not None:
                kind, ptext, reg0, idx0, reg1, idx1 = m.groups()
                q0 = int(idx0)
                q1 = q0 if idx1 is None else int(idx1)
                if q0 < width and q1 < width and reg0 == reg_name and (idx1 is None or reg1 == reg_name):
                    qubits = (q0,) if idx1 is None else (q0, q1)
                    append(Instruction(kind, qubits, () if ptext is None else _angles(ptext)))
                    continue
            stmt = " ".join(stmt.split())
            if stmt:
                other_statement(stmt)
        i = len(statements)
        if tail.strip():
            raise QasmError("statement not terminated by ';'")
    except ValueError as exc:  # reported at the statement's first non-blank character
        start = sum(map(len, statements[:i])) + i
        start = len(text) - len(text[start:].lstrip())
        lines = (text[:start] + "^").splitlines()
        raise QasmError(str(exc), len(lines), len(lines[-1])) from None

    if width is None:
        raise QasmError("no quantum register declared")
    if dropped_measures:
        warnings.warn(f"dropped {dropped_measures} measure statement(s); routing works on the unitary prefix")
    return Circuit._unchecked(width, tuple(instructions), name)


def _fmt_angle(value: float) -> str:
    return f"{value:.17g}"


def qasm_header(width: int) -> str:
    return f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[{width}];\n'


def gate_head(kind: str, params: tuple[float, ...]) -> str:
    """A gate statement up to its operands: the kind, then any angles in
    parentheses, 17 significant digits each, which round-trip floats exactly."""
    if not params:
        return kind
    return kind + "(" + ",".join(_fmt_angle(p) for p in params) + ")"


def swap_statement(u: int, v: int) -> str:
    """The statement swapping qubits u and v, operands in that order."""
    return f"swap q[{u}],q[{v}];"


def barrier_statement(qubits, width: int) -> str:
    """A barrier over a width-qubit register: `barrier q;` when the qubits are
    the whole register in order, else each one listed."""
    if len(qubits) == width and tuple(qubits) == tuple(range(width)):
        return "barrier q;"
    return "barrier " + ",".join(f"q[{q}]" for q in qubits) + ";"


def format_instruction(ins: Instruction, width: int) -> str:
    """One deterministic QASM statement."""
    if ins.is_barrier:
        return barrier_statement(ins.qubits, width)
    if ins.kind == "swap":
        return swap_statement(*ins.qubits)
    return gate_head(ins.kind, ins.params) + " " + ",".join(f"q[{q}]" for q in ins.qubits) + ";"


def serialize_qasm(circuit: Circuit) -> str:
    """Deterministic, byte-stable QASM text: one instruction per line, source order."""
    width = circuit.width
    lines = [qasm_header(width)[:-1]]
    lines.extend(format_instruction(ins, width) for ins in circuit.instructions)
    return "\n".join(lines) + "\n"


def write_qasm(circuit: Circuit, path, final_layout=None) -> None:
    """Write QASM; optionally append the final layout as a trailing comment."""
    text = serialize_qasm(circuit)
    if final_layout is not None:
        text += final_layout_comment(final_layout)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_qasm(path) -> Circuit:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_qasm(text, name=os.path.splitext(os.path.basename(str(path)))[0])


# one line of text, as in `// final_layout: [1, 0, 2]`; [^\S\n] is whitespace
# that does not end the line
_LAYOUT_COMMENT_RE = re.compile(
    r"^[^\S\n]*//[^\S\n]*final_layout:[^\S\n]*\[([\d, \t]*)\][^\S\n]*$", re.M
)


def final_layout_comment(layout) -> str:
    """The trailing `// final_layout: [...]` line, physical -> logical."""
    return "// final_layout: [" + ", ".join(str(x) for x in layout) + "]\n"


def parse_final_layout_comment(text: str) -> tuple[int, ...] | None:
    """The layout on the last `// final_layout: [...]` line of a program's
    text, or None when it has no such line."""
    found = _LAYOUT_COMMENT_RE.findall(text)
    if not found:
        return None
    body = found[-1].strip()
    return tuple(int(x) for x in body.split(",")) if body else ()
