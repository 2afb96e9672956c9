"""
Circuit IR, OpenQASM 2.0 I/O, and structural metrics.

A Circuit is a qubit count plus its instructions as columns, in order:
kinds (bytes, one code per instruction, indexing KINDS); ops (array('i'),
one (a, b) operand pair per instruction, b = -1 for a 1-qubit gate and
(-1, -1) for a barrier); params (array('d'), the N_PARAMS[code] angles of
each instruction, back to back); and barriers (each barrier's qubit tuple).
Nothing from the parser through the router to the writer builds an object
per gate. Instruction is only a construction helper, which the public
constructor validates.

A program can also be parsed in pieces: split_header reads the statements
up to `qreg`, and parse_statements, the loop parse_qasm runs, parses any
run of the body's statements given the register that header declared. A fault in a piece is a
StatementError at a character offset, which is located in the whole
program's text only when it is reported. Within one call, a gate statement
without angles that repeats an earlier one, character for character, takes
that one's kind and operands without being matched or checked again.

The instruction order is the single temporal truth used for splitting,
routing and concatenation, so nothing here ever reorders gates. Circuits are
not changed once built and are safe to share across worker processes.
"""
from __future__ import annotations

import ast
import logging
import math
import operator
import os
import re
import reprlib
from array import array
from dataclasses import dataclass

GATES_1Q = frozenset({"h", "x", "y", "z", "s", "t", "rx", "ry", "rz", "u"})
GATES_2Q = frozenset({"cx", "cz", "swap"})
BARRIER = "barrier"
PARAM_COUNTS = {"rx": 1, "ry": 1, "rz": 1, "u": 3}

# kind codes: the 1-qubit gates, then the 2-qubit gates, then barrier
KINDS = (*sorted(GATES_1Q), *sorted(GATES_2Q), BARRIER)
KIND_CODE = {kind: code for code, kind in enumerate(KINDS)}
N_PARAMS = tuple(PARAM_COUNTS.get(kind, 0) for kind in KINDS)
BARRIER_CODE = KIND_CODE[BARRIER]
SWAP_CODE = KIND_CODE["swap"]
_CODE_1Q = {kind: KIND_CODE[kind] for kind in GATES_1Q}
_CODE_2Q = {kind: KIND_CODE[kind] for kind in GATES_2Q}
_PLAIN_HEADS = (*KINDS[:BARRIER_CODE], None)  # statement_heads' head of a gate without angles
_log = logging.getLogger(__name__)


class QasmError(ValueError):
    """OpenQASM parse failure, carrying the source position when known."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            where = f"line {line}" + (f", col {col}" if col is not None else "")
            message = f"{where}: {message}"
        super().__init__(message)


def _checked_code(kind: str, qubits: tuple[int, ...], params) -> int:
    """kind's code once an instruction passes Instruction's checks, else ValueError."""
    code = KIND_CODE.get(kind)
    if code is None:
        raise ValueError(f"unknown gate {kind!r}")
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"{kind} qubits must be distinct: {qubits}")
    if code == BARRIER_CODE:
        if not qubits:
            raise ValueError("barrier needs at least one qubit")
        if params:
            raise ValueError("barrier takes no parameters")
        return code
    arity = 1 if kind in GATES_1Q else 2
    if len(qubits) != arity:
        raise ValueError(f"{kind} takes {arity} qubit(s), got {qubits}")
    want = N_PARAMS[code]
    if len(params) != want:
        raise ValueError(f"{kind} takes {want} parameter(s), got {len(params)}")
    for p in params:
        if not math.isfinite(p):
            raise ValueError(f"{kind} parameter {p!r} is not finite")
    return code


@dataclass(frozen=True, slots=True)
class Instruction:
    """One gate (or barrier) acting on register indices."""

    kind: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()

    def __post_init__(self):
        _checked_code(self.kind, self.qubits, self.params)


def _append(columns, kind: str, qubits: tuple[int, ...], angles) -> None:
    """Check one instruction and append it to (kinds, ops, params, barriers)."""
    kinds, ops, params, barriers = columns
    code = _checked_code(kind, qubits, angles)
    kinds.append(code)
    if code == BARRIER_CODE:
        barriers.append(qubits)
        ops.extend((-1, -1))
    else:
        ops.extend(qubits if len(qubits) == 2 else (qubits[0], -1))
        params.extend(angles)


class Circuit:
    """Ordered instructions over a single qubit register, held as columns."""

    __slots__ = ("width", "kinds", "ops", "params", "barriers", "name")

    def __init__(self, width: int, instructions=(), name: str = "circuit"):
        """A circuit over Instructions, every operand range-checked."""
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        columns = kinds, ops, params, barriers = bytearray(), array("i"), array("d"), []
        for ins in instructions:
            for q in ins.qubits:
                if not 0 <= q < width:
                    raise ValueError(f"qubit {q} out of range for width {width} in {ins.kind}")
            _append(columns, ins.kind, ins.qubits, ins.params)
        self.width, self.kinds, self.ops, self.params = width, bytes(kinds), ops, params
        self.barriers, self.name = tuple(barriers), name

    @classmethod
    def _from_columns(cls, width: int, kinds: bytes, ops: array, params: array, barriers: tuple, name: str):
        """A circuit over well-formed columns that fit the width, unchecked."""
        circuit = cls.__new__(cls)
        circuit.width, circuit.kinds, circuit.ops, circuit.params = width, kinds, ops, params
        circuit.barriers, circuit.name = barriers, name
        return circuit

    @property
    def n_gates(self) -> int:
        """Instruction count excluding barriers."""
        return len(self.kinds) - len(self.barriers)

    @property
    def n_q2(self) -> int:
        """Two-qubit gate count, read from the kind codes."""
        return sum(map(self.kinds.count, _CODE_2Q.values()))

    def __len__(self) -> int:
        return len(self.kinds)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        return (self.width, self.kinds, self.ops, self.params, self.barriers) == (
            other.width, other.kinds, other.ops, other.params, other.barriers)

    def __repr__(self) -> str:
        return f"Circuit({self.name!r}, width={self.width}, {len(self.kinds)} instructions)"


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


def frontier_depth(width: int, ops, barriers) -> int:
    """The critical-path depth of an operand stream like Circuit.ops over a
    width-qubit register, whose barriers' qubit tuples are `barriers`, in
    order. A barrier, as in Qiskit's QuantumCircuit.depth, adds no layer of
    its own but lifts its qubits to the highest level among them. So after a
    barrier over every qubit the levels are equal, and the depth of streams
    joined at such barriers is the sum of their depths. No gates means
    depth 0."""
    frontier = [0] * width
    bars = iter(barriers)
    it = iter(ops)
    for a, b in zip(it, it):
        if b < 0:
            if a >= 0:
                frontier[a] += 1
            else:
                qubits = next(bars)
                level = max([frontier[q] for q in qubits])
                for q in qubits:
                    frontier[q] = level
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
    """Depth (frontier_depth: a barrier adds no layer but lifts its qubits to
    the highest level among them), counts and density =
    (n_q1 + 2*n_q2)/(depth*width).

    A circuit with no gates (none at all, or only barriers) has depth 0 and
    density 0.0."""
    n_q2 = circuit.n_q2
    n_q1 = circuit.n_gates - n_q2
    depth = frontier_depth(circuit.width, circuit.ops, circuit.barriers)
    density = (n_q1 + 2 * n_q2) / (depth * circuit.width) if depth else 0.0
    return CircuitMetrics(circuit.width, depth, n_q1, n_q2, circuit.kinds.count(SWAP_CODE), density)


# --------------------------------------------------------------------------
# OpenQASM 2.0
# --------------------------------------------------------------------------

_HEADER_RE = re.compile(r"OPENQASM\s+(\S+)")
_QREG_RE = re.compile(r"qreg\s+([A-Za-z_]\w*)\s*\[\s*(\d+)\s*\]")
# where a statement (just after a `;`, or at the start) begins with `qreg`
_QREG_START_RE = re.compile(r"(?<![^;])\s*qreg\s")
_CREG_RE = re.compile(r"creg\s+([A-Za-z_]\w*)\s*\[\s*(\d+)\s*\]")
_STATEMENT_RE = re.compile(r"([A-Za-z_]\w*)\s*(?:\((.*)\))?\s*(.*)")
_OPERAND_RE = re.compile(r"([A-Za-z_]\w*)\s*(?:\[\s*(\d+)\s*\])?")
# A statement as serialize_qasm spells a gate on one or two indexed operands,
# after its line break: `kind(angles) reg[i],reg[j]`. Any other spelling, and
# every directive and barrier, whose kind has no gate code, goes to the
# statement path, which normalizes whitespace and checks it. It and
# _DECIMALS_RE match ASCII only, which is faster.
_GATE_RE = re.compile(r"\n?(\w+)(?:\(([^()]*)\))? (\w+)\[(\d+)\](?:,(\w+)\[(\d+)\])?", re.A)

_NUMBER = r"(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
_NUMBER_RE = re.compile(_NUMBER)
# a `//` comment runs to the next line break that str.splitlines recognises,
# so stripping it keeps every line, and error positions, where they were
_COMMENT_RE = re.compile(r"//[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*")
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


class StatementError(Exception):
    """A malformed statement at a character offset of comment-free program
    text: the fault parse_qasm reports, before it is given a line and column.
    A program parsed in pieces raises it at its offset in the piece, which
    is moved to the whole program's before located() is called on that. Its
    args are (message, offset)."""

    def located(self, text: str) -> QasmError:
        """The QasmError at the offset's line and column in `text`, counted
        from 1; the offset is moved on to the statement's first non-blank
        character."""
        message, offset = self.args
        offset = len(text) - len(text[offset:].lstrip())
        lines = (text[:offset] + "^").splitlines()
        return QasmError(message, len(lines), len(lines[-1]))


def parse_statements(text: str, name: str, register: tuple[str, int] | None = None) -> tuple[Circuit, int]:
    """parse_qasm's statement loop over comment-free text: the circuit and
    the number of measures it dropped. With `register`, the (name, width)
    that split_header read, the text is a run of the statements after the
    header. A malformed statement raises StatementError at its offset in
    the text, and a program without a register QasmError. A gate statement
    without angles that passed every check is remembered for this call
    only, so a repeat of it skips the match and the checks."""
    *statements, tail = text.split(";")
    reg_name, width = register or (None, None)
    saw_header = register is not None
    dropped_measures = 0
    columns = kinds, ops, params, barriers = bytearray(), array("i"), array("d"), []
    add_kind = kinds.append
    push = ops.append
    add_params = params.extend
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
        angles = () if ptext is None else _angles(ptext)
        if kind == BARRIER:  # a bare register name stands for all its qubits
            qubits = (q for idx in operands for q in (range(width) if idx is None else (index(idx),)))
            _append(columns, BARRIER, tuple(dict.fromkeys(qubits)), angles)
        elif operands == [None]:  # register broadcast: one gate per qubit
            for q in range(width):
                _append(columns, kind, (q,), angles)
        elif None in operands:
            raise QasmError("register broadcast not allowed here")
        else:
            _append(columns, kind, tuple(map(index, operands)), angles)

    # a statement without angles that passed every check -> its (code, q0, q1),
    # for this call's register only
    seen = {}
    try:
        for i, stmt in enumerate(statements):
            got = seen.get(stmt)
            if got is not None:
                code, q0, q1 = got
                add_kind(code)
                push(q0)
                push(q1)
                continue
            # a canonical gate that passes every check; any other statement,
            # a faulty gate included, goes to other_statement, which reports it
            m = gate_match(stmt)
            if m is not None and width is not None:
                kind, ptext, reg0, idx0, reg1, idx1 = m.groups()
                q0 = int(idx0)
                q1 = -1 if idx1 is None else int(idx1)
                code = (_CODE_1Q if idx1 is None else _CODE_2Q).get(kind)
                if (code is not None and q0 < width and q1 < width and q0 != q1 and reg0 == reg_name
                        and (idx1 is None or reg1 == reg_name)):
                    angles = () if ptext is None else _angles(ptext)
                    if len(angles) == N_PARAMS[code] and all(map(math.isfinite, angles)):
                        if ptext is None:
                            seen[stmt] = code, q0, q1
                        add_kind(code)
                        push(q0)
                        push(q1)
                        add_params(angles)
                        continue
            stmt = " ".join(stmt.split())
            if stmt:
                other_statement(stmt)
        i = len(statements)
        if tail.strip():
            raise QasmError("statement not terminated by ';'")
    except ValueError as exc:
        raise StatementError(str(exc), sum(map(len, statements[:i])) + i) from None

    if width is None:
        raise QasmError("no quantum register declared")
    return Circuit._from_columns(width, bytes(kinds), ops, params, tuple(barriers), name), dropped_measures


def _strip_comments(text: str) -> str:
    return _COMMENT_RE.sub("", text) if "//" in text else text


def split_header(text: str) -> tuple[str, tuple[str, int], int, int]:
    """A program's header read on its own, so that its body can be parsed in
    pieces: the program without comments, its register's (name, width), the
    offset where the body starts (just after the `qreg` statement) and the
    measures dropped before it. The statements up to `qreg` are parsed by
    parse_statements, so a fault is the QasmError that parse_qasm raises
    for it."""
    text = _strip_comments(text)
    m = _QREG_START_RE.search(text)
    end = text.find(";", m.end()) + 1 if m else 0
    try:  # without a qreg statement, the whole text's parse reports the fault
        header, dropped = parse_statements(text[:end] if end else text, "header")
    except StatementError as exc:
        raise exc.located(text) from None
    reg_name = _QREG_RE.fullmatch(" ".join(text[m.start() : end - 1].split())).group(1)
    return text, (reg_name, header.width), end, dropped


def log_dropped_measures(count: int) -> None:
    if count:
        _log.warning("dropped %d measure statement(s); routing works on the unitary prefix", count)


def parse_qasm(text: str, name: str = "circuit") -> Circuit:
    """Parse an OpenQASM 2.0 program with one quantum register.

    Only the canonical gate set, barrier, creg and measure are accepted;
    measures are dropped (with one warning logged) so downstream passes see a
    pure unitary instruction list. Statements fill the columns after
    Instruction's checks; any error is a QasmError at the line and column
    of the offending statement.
    """
    text = _strip_comments(text)
    try:
        circuit, dropped = parse_statements(text, name)
    except StatementError as exc:
        raise exc.located(text) from None
    log_dropped_measures(dropped)
    return circuit


def qasm_header(width: int) -> str:
    return f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[{width}];\n'


def gate_head(kind: str, params: tuple[float, ...]) -> str:
    """A gate statement up to its operands: the kind, then any angles in
    parentheses, 17 significant digits each, which round-trip floats exactly."""
    if not params:
        return kind
    return kind + "(" + ",".join(f"{p:.17g}" for p in params) + ")"


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
    """One deterministic QASM statement, as serialize_qasm writes it."""
    if ins.kind == BARRIER:
        return barrier_statement(ins.qubits, width)
    return gate_head(ins.kind, ins.params) + " " + ",".join(f"q[{q}]" for q in ins.qubits) + ";"


def statement_heads(circuit: Circuit):
    """(head, a, b) per instruction: gate_head's text (None for a barrier) and its operands."""
    params = circuit.params
    at = 0
    ops = circuit.ops
    for code, a, b in zip(circuit.kinds, ops[::2], ops[1::2]):
        n = N_PARAMS[code]
        if n:
            yield gate_head(KINDS[code], params[at : at + n]), a, b
            at += n
        else:
            yield _PLAIN_HEADS[code], a, b


def serialize_qasm(circuit: Circuit) -> str:
    """Deterministic, byte-stable QASM text: one instruction per line, source order."""
    width = circuit.width
    lines = [qasm_header(width)[:-1]]
    emit = lines.append
    barriers = iter(circuit.barriers)
    for head, a, b in statement_heads(circuit):
        if head is None:
            emit(barrier_statement(next(barriers), width))
        else:
            emit(f"{head} q[{a}];" if b < 0 else f"{head} q[{a}],q[{b}];")
    return "\n".join(lines) + "\n"


def write_qasm(circuit: Circuit, path) -> None:
    """Write serialize_qasm's text for the circuit to path."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_qasm(circuit))


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
    text, or None when it has no such line; a ValueError names a line whose
    list is not integers separated by commas."""
    found = _LAYOUT_COMMENT_RE.findall(text)
    if not found:
        return None
    body = found[-1].strip()
    try:
        return tuple(int(x) for x in body.split(",")) if body else ()
    except ValueError:  # an empty or space-separated entry, as in [1, 0,] or [1 0]
        raise ValueError(f"malformed final_layout line: // final_layout: [{found[-1]}]") from None
