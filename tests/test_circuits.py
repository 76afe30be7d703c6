import pytest

from conftest import FIXTURES_DIR
from ionfab.arch import MAX_IONS_PER_ELU
from ionfab.circuits import (MAX_OPS, MAX_QUBITS, Circuit, GateKind, GateOp,
                             parse_circuit)
from ionfab.errors import ParseError


class TestParseBasics:
    def test_single_cnot(self):
        c = parse_circuit("qubits 2\nCNOT q0 q1\n")
        assert c.n_qubits == 2
        assert len(c.ops) == 1
        assert c.ops[0] == GateOp(GateKind.CNOT, (0, 1))

    def test_golden_fixture_parse_tree(self):
        c = parse_circuit((FIXTURES_DIR / "golden3.iqc").read_text())
        assert c == Circuit(3, (
            GateOp(GateKind.H, (0,)),
            GateOp(GateKind.CNOT, (0, 1)),
            GateOp(GateKind.RZ, (2,), -0.5),
        ))

    def test_comments_and_blank_lines(self):
        c = parse_circuit("# header comment\n\nqubits 1\n\nX q0  # inline\n")
        assert c.ops == (GateOp(GateKind.X, (0,)),)

    def test_global_ms(self):
        c = parse_circuit("qubits 4\nGLOBAL_MS q0 q2 q3 0.5\n")
        assert c.ops[0].kind is GateKind.GLOBAL_MS
        assert c.ops[0].operands == (0, 2, 3)
        assert c.ops[0].angle == 0.5

    def test_measure(self):
        c = parse_circuit("qubits 1\nMEASURE q0\n")
        assert c.ops[0].kind is GateKind.MEASURE


class TestParseErrors:
    def test_duplicate_operand(self):
        with pytest.raises(ParseError, match="duplicate operand q0") as err:
            parse_circuit("qubits 1\nCNOT q0 q0\n")
        assert err.value.line == 2

    def test_duplicate_operand_at_the_end_of_a_wide_line(self):
        # 999 distinct operands, then q5 again as the 1,000th.
        line = "GLOBAL_MS " + " ".join(f"q{k}" for k in range(999)) + " q5 0.5"
        with pytest.raises(ParseError, match="duplicate operand q5") as err:
            parse_circuit(f"qubits 1000\n{line}\n")
        assert err.value.line == 2
        assert err.value.column == line.rfind(" q5 ") + 2

    def test_unknown_gate(self):
        with pytest.raises(ParseError, match="unknown gate 'TOFFOLI'") as err:
            parse_circuit("qubits 3\nTOFFOLI q0 q1 q2\n")
        assert err.value.line == 2 and err.value.column == 1

    def test_index_out_of_range(self):
        with pytest.raises(ParseError, match="q7 out of range") as err:
            parse_circuit("qubits 2\nX q7\n")
        assert err.value.column == 3

    def test_malformed_angle(self):
        with pytest.raises(ParseError, match="malformed angle"):
            parse_circuit("qubits 1\nRZ q0 fast\n")

    def test_missing_angle(self):
        with pytest.raises(ParseError, match="angle"):
            parse_circuit("qubits 2\nMS q0 q1\n")

    def test_angle_on_angle_free_gate(self):
        with pytest.raises(ParseError):
            parse_circuit("qubits 2\nCNOT q0 q1 0.5\n")

    def test_arity_mismatch(self):
        with pytest.raises(ParseError, match="takes 2 operand"):
            parse_circuit("qubits 3\nCNOT q0 q1 q2\n")

    def test_missing_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_circuit("X q0\n")

    def test_empty_text(self):
        with pytest.raises(ParseError, match="missing 'qubits"):
            parse_circuit("")

    def test_bad_header_count(self):
        with pytest.raises(ParseError, match="malformed qubit count"):
            parse_circuit("qubits many\n")

    def test_bad_operand_token(self):
        with pytest.raises(ParseError, match="expected operand"):
            parse_circuit("qubits 2\nCNOT 0 1\n")

    def test_superscript_digit_is_not_an_index(self):
        # "²".isdigit() is true, but int() rejects it
        with pytest.raises(ParseError, match="expected operand") as exc:
            parse_circuit("qubits 2\nH q\u00b2\n")
        assert (exc.value.line, exc.value.column) == (2, 3)

    def test_non_finite_angle(self):
        with pytest.raises(ParseError, match="finite"):
            parse_circuit("qubits 1\nRZ q0 inf\n")

    def test_arity_reported_at_the_gate_token(self):
        with pytest.raises(ParseError) as err:
            parse_circuit("qubits 4\n  GLOBAL_MS q0 0.5\n")
        assert str(err.value) == "line 2, col 3: GLOBAL_MS takes 2+ operand(s), got 1"

    def test_columns_follow_whitespace_runs(self):
        # a tab, a no-break and an ideographic space separate tokens, as in str.split
        with pytest.raises(ParseError) as err:
            parse_circuit("qubits 3\nCNOT\tq0\u00a0\u3000q9\n")
        assert (err.value.line, err.value.column) == (2, 10)


class TestSizeCaps:
    def test_qubits_at_cap(self):
        assert parse_circuit(f"qubits {MAX_QUBITS}\n").n_qubits == MAX_QUBITS

    def test_qubits_over_cap(self):
        with pytest.raises(ParseError) as err:
            parse_circuit(f"qubits  {MAX_QUBITS + 1}\n")
        assert str(err.value) == f"line 1, col 9: qubit count must be <= {MAX_QUBITS}"

    def test_ops_at_cap(self):
        assert len(parse_circuit("qubits 1\n" + "X q0\n" * MAX_OPS).ops) == MAX_OPS

    def test_global_ms_operands_at_cap(self):
        line = "GLOBAL_MS " + " ".join(f"q{k}" for k in range(MAX_IONS_PER_ELU)) + " 0.5"
        (op,) = parse_circuit(f"qubits 1000\n{line}\n").ops
        assert len(op.operands) == MAX_IONS_PER_ELU

    def test_global_ms_operands_over_cap(self):
        operands = [f"q{k}" for k in range(MAX_IONS_PER_ELU + 1)]
        line = "GLOBAL_MS " + " ".join(operands) + " 0.5"
        with pytest.raises(ParseError) as err:
            parse_circuit(f"qubits 1000\n{line}\n")
        assert str(err.value) == (
            f"line 2, col {line.rfind(operands[-1]) + 1}: GLOBAL_MS takes at most "
            f"{MAX_IONS_PER_ELU} operand(s), got {MAX_IONS_PER_ELU + 1}")

    def test_ops_over_cap(self):
        text = "qubits 1\n" + "X q0\n" * MAX_OPS + "  # done\n bogus\n"
        with pytest.raises(ParseError) as err:
            parse_circuit(text)
        assert str(err.value) == (f"line {MAX_OPS + 3}, col 2: "
                                  f"more than {MAX_OPS} operations")


class TestConstructorChecks:
    """GateOp and Circuit check themselves when built without the parser."""

    @pytest.mark.parametrize("kind, operands, angle, message", [
        (GateKind.X, (), None, "X takes 1 operand(s), got 0"),
        (GateKind.CNOT, (0, 1, 2), None, "CNOT takes 2 operand(s), got 3"),
        (GateKind.GLOBAL_MS, (0,), 0.5, "GLOBAL_MS takes 2+ operand(s), got 1"),
        (GateKind.GLOBAL_MS, tuple(range(MAX_IONS_PER_ELU + 1)), 0.5,
         f"GLOBAL_MS takes at most {MAX_IONS_PER_ELU} operand(s), "
         f"got {MAX_IONS_PER_ELU + 1}"),
        (GateKind.MS, (1, 1), 0.5, "MS operands must be distinct"),
        (GateKind.RZ, (0,), None, "RZ requires a finite angle"),
        (GateKind.MS, (0, 1), float("nan"), "MS requires a finite angle"),
        (GateKind.GLOBAL_MS, (0, 1, 2), float("-inf"),
         "GLOBAL_MS requires a finite angle"),
        (GateKind.X, (0,), 0.5, "X takes no angle"),
    ], ids=["too_few", "too_many", "global_ms_one", "global_ms_wide", "repeated",
            "no_angle", "nan_angle", "inf_angle", "angle_on_x"])
    def test_bad_gate(self, kind, operands, angle, message):
        with pytest.raises(ValueError) as err:
            GateOp(kind, operands, angle)
        assert str(err.value) == message

    def test_zero_qubits(self):
        with pytest.raises(ValueError, match=r"^n_qubits must be >= 1, got 0$"):
            Circuit(0, ())

    def test_operand_out_of_range(self):
        with pytest.raises(ValueError,
                           match=r"^operand q2 out of range for 2 qubits$"):
            Circuit(2, (GateOp(GateKind.CNOT, (0, 2)),))


class TestInteractionWeights:
    def test_counts_entangling_pairs(self):
        c = parse_circuit(
            "qubits 3\nCNOT q0 q1\nCNOT q0 q1\nMS q1 q2 0.5\nX q0\n")
        assert c.interaction_weights() == {(0, 1): 2, (1, 2): 1}

    def test_global_ms_counts_all_pairs(self):
        c = parse_circuit("qubits 3\nGLOBAL_MS q0 q1 q2 0.5\n")
        assert c.interaction_weights() == {(0, 1): 1, (0, 2): 1, (1, 2): 1}
