import pytest

from conftest import FIXTURES_DIR
from ionfab.circuits import (Circuit, GateKind, GateOp, load_circuit,
                             parse_circuit)
from ionfab.errors import ParseError


class TestParseBasics:
    def test_single_cnot(self):
        c = parse_circuit("qubits 2\nCNOT q0 q1\n")
        assert c.n_qubits == 2
        assert len(c.ops) == 1
        assert c.ops[0] == GateOp(GateKind.CNOT, (0, 1))

    def test_golden_fixture_parse_tree(self):
        c = load_circuit(FIXTURES_DIR / "golden3.iqc")
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


class TestInteractionWeights:
    def test_counts_entangling_pairs(self):
        c = parse_circuit(
            "qubits 3\nCNOT q0 q1\nCNOT q0 q1\nMS q1 q2 0.5\nX q0\n")
        assert c.interaction_weights() == {(0, 1): 2, (1, 2): 1}

    def test_global_ms_counts_all_pairs(self):
        c = parse_circuit("qubits 3\nGLOBAL_MS q0 q1 q2 0.5\n")
        assert c.interaction_weights() == {(0, 1): 1, (0, 2): 1, (1, 2): 1}
