"""
Circuit IR, OpenQASM 2.0 I/O, and structural metrics.

The representation is deliberately flat: a Circuit is a qubit count plus an
ordered tuple of Instructions. That instruction order is the single temporal
truth used for splitting, routing and concatenation, so nothing here ever
reorders gates. Circuits are immutable once built and safe to share across
worker processes.
"""
from __future__ import annotations

import math
import re
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
            raise ValueError(f"unknown gate kind {self.kind!r}")
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

_QREG_RE = re.compile(r"^qreg\s+([A-Za-z_]\w*)\s*\[\s*(\d+)\s*\]$")
_CREG_RE = re.compile(r"^creg\s+([A-Za-z_]\w*)\s*\[\s*(\d+)\s*\]$")
_GATE_RE = re.compile(r"^([A-Za-z_]\w*)\s*(?:\(([^)]*)\))?\s*(.*)$", re.S)
_ARG_RE = re.compile(r"^([A-Za-z_]\w*)\s*(?:\[\s*(\d+)\s*\])?$")

_NUM_RE = re.compile(r"\d+\.?\d*(?:[eE][-+]?\d+)?|\.\d+(?:[eE][-+]?\d+)?")
_EXPR_TOKEN_RE = re.compile(r"\s*(pi|\d+\.?\d*(?:[eE][-+]?\d+)?|\.\d+(?:[eE][-+]?\d+)?|[-+*/()])")


def _eval_angle(text: str, line: int, col: int) -> float:
    """Evaluate a QASM angle expression: numbers, pi, + - * /, parentheses."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _EXPR_TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise QasmError(f"bad angle expression {text.strip()!r}", line, col)
            break
        tokens.append(m.group(1))
        pos = m.end()
    if not tokens:
        raise QasmError("empty angle expression", line, col)

    idx = 0

    def peek():
        return tokens[idx] if idx < len(tokens) else None

    def take():
        nonlocal idx
        tok = tokens[idx]
        idx += 1
        return tok

    def atom() -> float:
        tok = peek()
        if tok is None:
            raise QasmError(f"truncated angle expression {text.strip()!r}", line, col)
        if tok == "(":
            take()
            v = expr()
            if peek() != ")":
                raise QasmError("unbalanced parentheses in angle", line, col)
            take()
            return v
        if tok in "+-":
            take()
            return atom() if tok == "+" else -atom()
        if tok in ("*", "/", ")"):
            raise QasmError(f"unexpected {tok!r} in angle expression {text.strip()!r}", line, col)
        take()
        if tok == "pi":
            return math.pi
        return float(tok)

    def term() -> float:
        v = atom()
        while peek() in ("*", "/"):
            op = take()
            rhs = atom()
            v = v * rhs if op == "*" else v / rhs
        return v

    def expr() -> float:
        v = term()
        while peek() in ("+", "-"):
            op = take()
            rhs = term()
            v = v + rhs if op == "+" else v - rhs
        return v

    value = expr()
    if idx != len(tokens):
        raise QasmError(f"trailing tokens in angle expression {text.strip()!r}", line, col)
    return value


# canonical single-statement lines, exactly as the serializer writes them;
# anything else drops to the general statement machinery
_FAST_LINE_RE = re.compile(
    r"(h|x|y|z|s|t|rx|ry|rz|u|cx|cz|swap)"
    r"(?:\(([^()]+)\))?"
    r" q\[(\d+)\](?:, ?q\[(\d+)\])?;"
)


def parse_qasm(text: str, name: str = "circuit") -> Circuit:
    """Parse an OpenQASM 2.0 program with one quantum register.

    Only the canonical gate set, barrier, creg and measure are accepted;
    measures are dropped (with a single warning) so downstream passes see a
    pure unitary instruction list.
    """
    width = None
    reg_name = None
    cregs: set[str] = set()
    instructions: list[Instruction] = []
    saw_header = False
    dropped_measures = 0
    full_register: tuple[int, ...] = ()

    def parse_args(argtext: str, line: int, col: int) -> list[tuple[str, int | None]]:
        out = []
        for piece in argtext.split(","):
            m = _ARG_RE.match(piece.strip())
            if m is None:
                raise QasmError(f"bad operand {piece.strip()!r}", line, col)
            out.append((m.group(1), None if m.group(2) is None else int(m.group(2))))
        return out

    def resolve(reg: str, idx: int | None, line: int, col: int) -> int:
        if reg != reg_name:
            raise QasmError(f"unknown register {reg!r}", line, col)
        if idx is None:
            raise QasmError("register broadcast not allowed here", line, col)
        if idx >= width:
            raise QasmError(f"qubit index {idx} out of range for {reg}[{width}]", line, col)
        return idx

    def handle_statement(line: int, col: int, stmt: str) -> None:
        nonlocal width, reg_name, saw_header, dropped_measures, full_register
        if not saw_header:
            m = re.match(r"^OPENQASM\s+(\S+)$", stmt)
            if m is None:
                raise QasmError("expected 'OPENQASM 2.0;' header", line, col)
            if m.group(1) != "2.0":
                raise QasmError(f"unsupported OpenQASM version {m.group(1)}", line, col)
            saw_header = True
            return
        if stmt.startswith("include"):
            return
        m = _QREG_RE.match(stmt)
        if m is not None:
            if width is not None:
                raise QasmError("multiple quantum registers are not supported", line, col)
            reg_name = m.group(1)
            width = int(m.group(2))
            if width < 1:
                raise QasmError("quantum register must hold at least 1 qubit", line, col)
            full_register = tuple(range(width))
            return
        m = _CREG_RE.match(stmt)
        if m is not None:
            cregs.add(m.group(1))
            return
        if stmt.startswith("measure"):
            dropped_measures += 1
            return
        m = _GATE_RE.match(stmt)
        if m is None:
            raise QasmError(f"cannot parse statement {stmt!r}", line, col)
        kind, paramtext, argtext = m.group(1), m.group(2), m.group(3)
        if width is None:
            raise QasmError(f"statement before qreg declaration: {stmt!r}", line, col)
        if kind == BARRIER:
            qubits = []
            for reg, idx in parse_args(argtext, line, col):
                if reg != reg_name:
                    raise QasmError(f"unknown register {reg!r}", line, col)
                if idx is None:
                    qubits.extend(range(width))
                else:
                    qubits.append(resolve(reg, idx, line, col))
            instructions.append(Instruction(BARRIER, tuple(dict.fromkeys(qubits))))
            return
        if kind not in GATES_1Q and kind not in GATES_2Q:
            raise QasmError(f"unknown gate {kind!r}", line, col)
        params = ()
        if paramtext is not None:
            params = tuple(_eval_angle(p, line, col) for p in paramtext.split(","))
        want = PARAM_COUNTS.get(kind, 0)
        if len(params) != want:
            raise QasmError(f"{kind} takes {want} parameter(s), got {len(params)}", line, col)
        args = parse_args(argtext, line, col)
        if kind in GATES_1Q:
            if len(args) != 1:
                raise QasmError(f"{kind} takes 1 operand", line, col)
            reg, idx = args[0]
            if idx is None:  # register broadcast: one gate per qubit
                if reg != reg_name:
                    raise QasmError(f"unknown register {reg!r}", line, col)
                for q in range(width):
                    instructions.append(Instruction(kind, (q,), params))
            else:
                instructions.append(Instruction(kind, (resolve(reg, idx, line, col),), params))
        else:
            if len(args) != 2:
                raise QasmError(f"{kind} takes 2 operands", line, col)
            qs = tuple(resolve(reg, idx, line, col) for reg, idx in args)
            if qs[0] == qs[1]:
                raise QasmError(f"{kind} operands must be distinct", line, col)
            instructions.append(Instruction(kind, qs, params))

    append = instructions.append
    fast_match = _FAST_LINE_RE.fullmatch
    buf: list[str] = []
    buf_start: tuple[int, int] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("//", 1)[0]
        if not buf:
            stripped = line.strip()
            if not stripped:
                continue
            if width is not None:
                m = fast_match(stripped)
                if m is not None:
                    kind, ptext, q0, q1 = m.groups()
                    try:
                        if ptext is None:
                            params = ()
                        else:
                            params = tuple(float(p) for p in ptext.split(","))
                        q0 = int(q0)
                        if q1 is None:
                            if q0 < width:
                                append(Instruction(kind, (q0,), params))
                                continue
                        else:
                            q1 = int(q1)
                            if q0 < width and q1 < width:
                                append(Instruction(kind, (q0, q1), params))
                                continue
                    except ValueError:
                        pass  # odd arity/params/angles: let the general path diagnose
                elif stripped == "barrier q;":
                    append(Instruction(BARRIER, full_register))
                    continue
        # general path: accumulate until ';', tracking the statement position
        pos = 0
        while pos < len(line):
            if buf_start is None:
                while pos < len(line) and line[pos].isspace():
                    pos += 1
                if pos >= len(line):
                    break
                buf_start = (lineno, pos + 1)
            end = line.find(";", pos)
            if end == -1:
                buf.append(line[pos:])
                pos = len(line)
            else:
                buf.append(line[pos:end])
                stmt = " ".join(" ".join(buf).split())
                if stmt:
                    handle_statement(buf_start[0], buf_start[1], stmt)
                buf = []
                buf_start = None
                pos = end + 1
    if buf and "".join(buf).strip():
        raise QasmError("statement not terminated by ';'", buf_start[0], buf_start[1])

    if width is None:
        raise QasmError("no quantum register declared")
    if dropped_measures:
        warnings.warn(f"dropped {dropped_measures} measure statement(s); routing works on the unitary prefix")
    return Circuit(width, instructions, name=name)


def _fmt_angle(value: float) -> str:
    return f"{value:.17g}"


def qasm_header(width: int) -> str:
    return f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[{width}];\n'


def format_instruction(ins: Instruction, width: int) -> str:
    """One deterministic QASM statement; 17 significant digits round-trip floats exactly."""
    if ins.is_barrier:
        if len(ins.qubits) == width and ins.qubits == tuple(range(width)):
            return "barrier q;"
        return "barrier " + ",".join(f"q[{q}]" for q in ins.qubits) + ";"
    head = ins.kind
    if ins.params:
        head += "(" + ",".join(_fmt_angle(p) for p in ins.params) + ")"
    return head + " " + ",".join(f"q[{q}]" for q in ins.qubits) + ";"


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
    import os

    return parse_qasm(text, name=os.path.splitext(os.path.basename(str(path)))[0])


_LAYOUT_COMMENT_RE = re.compile(r"^//\s*final_layout:\s*\[([\d,\s]*)\]\s*$")


def final_layout_comment(layout) -> str:
    """The trailing `// final_layout: [...]` line, physical -> logical."""
    return "// final_layout: [" + ", ".join(str(x) for x in layout) + "]\n"


def read_final_layout_comment(path) -> list[int] | None:
    """Recover the layout comment written by write_qasm, if present."""
    result = None
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            m = _LAYOUT_COMMENT_RE.match(line.strip())
            if m is not None:
                body = m.group(1).strip()
                result = [int(x) for x in body.split(",")] if body else []
    return result
