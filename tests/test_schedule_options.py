"""Communication exclusivity, pinned on every circuit fixture.

``tests/golden/schedule_options.json`` holds what ``schedule`` returned for
each ``tests/fixtures/*.iqc`` on a two-ELU machine of four memory ions each
with ``fast_gate_distance`` 1, so that the greedy map leaves remote gates.
Each circuit is run on that machine with ``dual_species_comm`` false and
true, with ideal pairs and with buffered pairs at seed 7. The file was
generated before the scheduler's placement bookkeeping was merged into one
function; regenerate it with ``write_golden()`` only for a change meant to
move a schedule.
"""

import dataclasses
import json

from conftest import EXAMPLE_JSON, FIXTURES_DIR, GOLDEN_DIR
from ionfab.arch import load_architecture
from ionfab.circuits import parse_circuit
from ionfab.errors import DomainError
from ionfab.scheduler import assign_qubits, schedule

OPTIONS_GOLDEN = GOLDEN_DIR / "schedule_options.json"
MODES = (("ideal", None), ("buffered", 7))


def machine(dual_species_comm: bool):
    """Two ELUs A and B of 6 ions, communication ions at both ends."""
    base = load_architecture(EXAMPLE_JSON)
    return dataclasses.replace(base, dual_species_comm=dual_species_comm, elus=tuple(
        dataclasses.replace(e, n_ions=6, comm_ion_indices=(0, 5), fast_gate_distance=1)
        for e in base.elus))


def result_doc(r, qmap) -> dict:
    return {
        "makespan": r.makespan,
        "pairs_consumed": r.pairs_consumed,
        "swaps_inserted": r.swaps_inserted,
        "fidelity": repr(r.fidelity_estimate),
        "per_qubit_idle": [r.per_qubit_idle[q] for q in sorted(r.per_qubit_idle)],
        "final_map": [list(qmap.mapping[q]) for q in sorted(qmap.mapping)],
        "timeline": r.timeline_csv().splitlines(),
    }


def schedules() -> dict[str, dict]:
    results = {}
    for path in sorted(FIXTURES_DIR.glob("*.iqc")):
        circuit = parse_circuit(path.read_text())
        for dual in (False, True):
            spec = machine(dual)
            qmap = assign_qubits(circuit, spec, "greedy_interaction_cut")
            for mode, seed in MODES:
                key = f"{path.name} {mode} dual_species_comm={int(dual)}"
                try:
                    results[key] = result_doc(
                        schedule(circuit, qmap, spec, mode, seed), qmap)
                except DomainError as exc:
                    results[key] = {"error": str(exc)}
    return results


def write_golden(path=OPTIONS_GOLDEN):
    """Regenerate the golden file, one schedule per line."""
    items = [f" {json.dumps(k)}: {json.dumps(v)}" for k, v in schedules().items()]
    path.write_text("{\n" + ",\n".join(items) + "\n}\n")


def test_schedules_match_golden():
    assert schedules() == json.loads(OPTIONS_GOLDEN.read_text())


def test_dual_species_comm_moves_a_pinned_result():
    golden = json.loads(OPTIONS_GOLDEN.read_text())
    off, on = "dual_species_comm=0", "dual_species_comm=1"
    pairs = [(golden[key], golden[key.replace(off, on)])
             for key in golden if off in key.split()]
    assert len(pairs) == len(golden) // 2
    assert any(a != b for a, b in pairs)
