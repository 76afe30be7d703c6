"""Circuit text format (.iqc) and its parser.

Grammar, one operation per line:

    qubits <n>            header, required first
    <GATE> q<i> [q<j> ...] [<angle>]
    # comment             (also allowed after an operation)

Gates: X, H, MEASURE (one operand, no angle); RZ (one operand, angle);
CNOT (two distinct operands, no angle); MS (two distinct operands, angle);
GLOBAL_MS (two to MAX_IONS_PER_ELU distinct operands, angle). Angles are
radians. Blank lines are ignored. A circuit has at most MAX_QUBITS qubits
and MAX_OPS operations. Errors carry 1-based line and column numbers.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass

from .arch import MAX_IONS_PER_ELU
from .errors import ParseError


class GateKind(enum.Enum):
    """A gate, valued by its name. ``arity`` is (min operands, max operands,
    takes angle): a plain attribute, because ``Enum.__hash__`` is
    Python code and a dict keyed by the kind pays for it on every op."""

    X = ("X", 1, 1, False)
    H = ("H", 1, 1, False)
    RZ = ("RZ", 1, 1, True)
    MS = ("MS", 2, 2, True)
    CNOT = ("CNOT", 2, 2, False)
    GLOBAL_MS = ("GLOBAL_MS", 2, MAX_IONS_PER_ELU, True)  # the ions of one ELU
    MEASURE = ("MEASURE", 1, 1, False)

    def __new__(cls, name: str, lo: int, hi: int, takes_angle: bool):
        kind = object.__new__(cls)
        kind._value_ = name
        kind.arity = (lo, hi, takes_angle)
        return kind


# Gate name -> kind, one dict lookup per parsed line.
_KIND_OF_NAME: dict[str, GateKind] = {kind.value: kind for kind in GateKind}

# Size caps, so that mapping and scheduling a parsed circuit take bounded work.
MAX_QUBITS = 1000
MAX_OPS = 10_000

TWO_QUBIT_KINDS = (GateKind.MS, GateKind.CNOT)
ENTANGLING_KINDS = (GateKind.MS, GateKind.CNOT, GateKind.GLOBAL_MS)


@dataclass(frozen=True)
class GateOp:
    kind: GateKind
    operands: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        lo, hi, takes_angle = self.kind.arity
        n = len(self.operands)
        if not lo <= n <= hi:
            want = str(lo) if hi == lo else (f"{lo}+" if n < lo else f"at most {hi}")
            raise ValueError(f"{self.kind.value} takes {want} operand(s), got {n}")
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


def parse_circuit(text: str) -> Circuit:
    """Parse .iqc circuit text; raises ParseError with line/column diagnostics."""
    n_qubits: int | None = None
    ops: list[GateOp] = []

    def error(message: str, token: int) -> ParseError:
        """ParseError at token ``token`` of the current line; the columns
        come from the whitespace-run rule that str.split uses."""
        return ParseError(message, line_no,
                          [m.start() + 1 for m in re.finditer(r"\S+", line)][token])

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = line.split()
        if not tokens:
            continue

        if n_qubits is None:
            if tokens[0] != "qubits":
                raise error("expected header 'qubits <n>'", 0)
            if len(tokens) != 2:
                raise error("header takes exactly one count", min(2, len(tokens) - 1))
            try:
                n_qubits = int(tokens[1])
            except ValueError:
                raise error(f"malformed qubit count {tokens[1]!r}", 1) from None
            if n_qubits < 1:
                raise error("qubit count must be >= 1", 1)
            if n_qubits > MAX_QUBITS:
                raise error(f"qubit count must be <= {MAX_QUBITS}", 1)
            continue

        if len(ops) == MAX_OPS:
            raise error(f"more than {MAX_OPS} operations", 0)
        name = tokens[0]
        kind = _KIND_OF_NAME.get(name)
        if kind is None:
            raise error(f"unknown gate {name!r}", 0)

        args = tokens[1:]
        angle = None
        _, hi, takes_angle = kind.arity
        if takes_angle:
            if not args:
                raise error(f"{name} requires an angle", 0)
            angle_tok = args.pop()
            try:
                angle = float(angle_tok)
            except ValueError:
                raise error(f"malformed angle {angle_tok!r}", -1) from None
            if not math.isfinite(angle):
                raise error(f"angle must be finite, got {angle_tok}", -1)

        operands = []
        seen = set()  # operands as a set, so a k-operand line checks in O(k)
        for k, tok in enumerate(args, start=1):
            if not tok.startswith("q") or not tok[1:].isdecimal():
                raise error(f"expected operand like 'q0', got {tok!r}", k)
            q = int(tok[1:])
            if q >= n_qubits:
                raise error(f"q{q} out of range, circuit has {n_qubits} qubits", k)
            if q in seen:
                raise error(f"duplicate operand q{q}", k)
            seen.add(q)
            operands.append(q)

        try:
            ops.append(GateOp(kind, tuple(operands), angle))
        except ValueError as exc:  # the arity rule: at the first extra operand
            raise error(str(exc), hi + 1 if len(operands) > hi else 0) from None

    if n_qubits is None:
        raise ParseError("missing 'qubits <n>' header", 1)
    return Circuit(n_qubits, tuple(ops))
