"""Circuit text format (.iqc) and its parser.

Grammar, one operation per line:

    qubits <n>            header, required first
    <GATE> q<i> [q<j> ...] [<angle>]
    # comment             (also allowed after an operation)

Gates: X, H, MEASURE (one operand, no angle); RZ (one operand, angle);
CNOT (two distinct operands, no angle); MS (two distinct operands, angle);
GLOBAL_MS (two or more distinct operands, angle). Angles are radians.
Blank lines are ignored. Errors carry 1-based line and column numbers.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import ParseError
from .jsondoc import read_text


class GateKind(enum.Enum):
    X = "X"
    H = "H"
    RZ = "RZ"
    MS = "MS"
    CNOT = "CNOT"
    GLOBAL_MS = "GLOBAL_MS"
    MEASURE = "MEASURE"


# (min operands, max operands or None, takes angle)
_ARITY: dict[GateKind, tuple[int, int | None, bool]] = {
    GateKind.X: (1, 1, False),
    GateKind.H: (1, 1, False),
    GateKind.RZ: (1, 1, True),
    GateKind.MS: (2, 2, True),
    GateKind.CNOT: (2, 2, False),
    GateKind.GLOBAL_MS: (2, None, True),
    GateKind.MEASURE: (1, 1, False),
}

TWO_QUBIT_KINDS = (GateKind.MS, GateKind.CNOT)
ENTANGLING_KINDS = (GateKind.MS, GateKind.CNOT, GateKind.GLOBAL_MS)


@dataclass(frozen=True)
class GateOp:
    kind: GateKind
    operands: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        lo, hi, takes_angle = _ARITY[self.kind]
        if len(self.operands) < lo or (hi is not None and len(self.operands) > hi):
            raise ValueError(f"{self.kind.value} takes {lo}"
                             + (f"..{hi}" if hi != lo else "")
                             + f" operands, got {len(self.operands)}")
        if len(set(self.operands)) != len(self.operands):
            raise ValueError(f"{self.kind.value} operands must be distinct")
        if takes_angle:
            if self.angle is None or not math.isfinite(self.angle):
                raise ValueError(f"{self.kind.value} requires a finite angle")
        elif self.angle is not None:
            raise ValueError(f"{self.kind.value} takes no angle")

    @property
    def is_multi_qubit(self) -> bool:
        return len(self.operands) >= 2


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    ops: tuple[GateOp, ...]

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be >= 1, got {self.n_qubits}")
        for op in self.ops:
            for q in op.operands:
                if not 0 <= q < self.n_qubits:
                    raise ValueError(f"operand q{q} out of range for {self.n_qubits} qubits")

    def interaction_weights(self) -> dict[tuple[int, int], int]:
        """Number of entangling ops per unordered qubit pair (mapping heuristic input)."""
        weights: dict[tuple[int, int], int] = {}
        for op in self.ops:
            if op.kind in ENTANGLING_KINDS:
                qs = sorted(op.operands)
                for i in range(len(qs)):
                    for j in range(i + 1, len(qs)):
                        key = (qs[i], qs[j])
                        weights[key] = weights.get(key, 0) + 1
        return weights


def _column_of(line: str, token_index: int) -> int:
    col = 1
    tokens_seen = 0
    i = 0
    while i < len(line):
        if line[i].isspace():
            i += 1
            continue
        start = i
        while i < len(line) and not line[i].isspace():
            i += 1
        if tokens_seen == token_index:
            return start + 1
        tokens_seen += 1
        col = start + 1
    return col


def parse_circuit(text: str) -> Circuit:
    """Parse .iqc circuit text; raises ParseError with line/column diagnostics."""
    n_qubits: int | None = None
    ops: list[GateOp] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = line.split()
        if not tokens:
            continue

        if n_qubits is None:
            if tokens[0] != "qubits":
                raise ParseError("expected header 'qubits <n>'", line_no,
                                 _column_of(line, 0))
            if len(tokens) != 2:
                raise ParseError("header takes exactly one count", line_no,
                                 _column_of(line, min(2, len(tokens) - 1)))
            try:
                n_qubits = int(tokens[1])
            except ValueError:
                raise ParseError(f"malformed qubit count {tokens[1]!r}", line_no,
                                 _column_of(line, 1)) from None
            if n_qubits < 1:
                raise ParseError("qubit count must be >= 1", line_no,
                                 _column_of(line, 1))
            continue

        name = tokens[0]
        try:
            kind = GateKind(name)
        except ValueError:
            raise ParseError(f"unknown gate {name!r}", line_no,
                             _column_of(line, 0)) from None
        lo, hi, takes_angle = _ARITY[kind]

        args = tokens[1:]
        angle = None
        if takes_angle:
            if not args:
                raise ParseError(f"{name} requires an angle", line_no,
                                 _column_of(line, 0))
            angle_tok = args[-1]
            args = args[:-1]
            try:
                angle = float(angle_tok)
            except ValueError:
                raise ParseError(f"malformed angle {angle_tok!r}", line_no,
                                 _column_of(line, len(tokens) - 1)) from None
            if not math.isfinite(angle):
                raise ParseError(f"angle must be finite, got {angle_tok}", line_no,
                                 _column_of(line, len(tokens) - 1))

        operands = []
        for k, tok in enumerate(args):
            if not tok.startswith("q") or not tok[1:].isdecimal():
                raise ParseError(f"expected operand like 'q0', got {tok!r}",
                                 line_no, _column_of(line, 1 + k))
            q = int(tok[1:])
            if q >= n_qubits:
                raise ParseError(f"q{q} out of range, circuit has {n_qubits} qubits",
                                 line_no, _column_of(line, 1 + k))
            if q in operands:
                raise ParseError(f"duplicate operand q{q}", line_no,
                                 _column_of(line, 1 + k))
            operands.append(q)

        if len(operands) < lo or (hi is not None and len(operands) > hi):
            want = str(lo) if hi == lo else (f"{lo}+" if hi is None else f"{lo}..{hi}")
            raise ParseError(f"{name} takes {want} operand(s), got {len(operands)}",
                             line_no, _column_of(line, 0))
        ops.append(GateOp(kind, tuple(operands), angle))

    if n_qubits is None:
        raise ParseError("missing 'qubits <n>' header", 1)
    return Circuit(n_qubits, tuple(ops))


def load_circuit(path) -> Circuit:
    return parse_circuit(read_text(path))
