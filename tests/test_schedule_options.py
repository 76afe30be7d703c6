"""The three scheduler options, pinned on every circuit fixture.

``tests/golden/schedule_options.json`` holds what ``schedule`` returned for
each ``tests/fixtures/*.iqc`` on a two-ELU machine of four memory ions each
with ``fast_gate_distance`` 1, so that strict proximity inserts swaps and
the greedy map leaves remote gates. At six ions per chain the swap time
``3 * tau_fast`` differs in its last bit from ``3 * tau_slow / 5``. Every
combination of ``strict_proximity``, ``measure_isolation`` and
``comm_attempts_during_gates`` is run with ideal pairs and with buffered
pairs at seed 7. The file was generated before the scheduler's placement
bookkeeping was merged into one function; regenerate it with
``write_golden()`` only for a change meant to move a schedule.
"""

import dataclasses
import itertools
import json

import pytest

from conftest import EXAMPLE_JSON, FIXTURES_DIR, GOLDEN_DIR
from ionfab.arch import load_architecture
from ionfab.circuits import load_circuit
from ionfab.errors import DomainError
from ionfab.scheduler import assign_qubits, schedule

OPTIONS_GOLDEN = GOLDEN_DIR / "schedule_options.json"
OPTIONS = ("strict_proximity", "measure_isolation", "comm_attempts_during_gates")
MODES = (("ideal", None), ("buffered", 7))


def machine():
    """Two ELUs A and B of 6 ions, communication ions at both ends."""
    base = load_architecture(EXAMPLE_JSON)
    return dataclasses.replace(base, elus=tuple(
        dataclasses.replace(e, n_ions=6, comm_ion_indices=(0, 5), fast_gate_distance=1)
        for e in base.elus))


def result_doc(r) -> dict:
    return {
        "makespan": r.makespan,
        "pairs_consumed": r.pairs_consumed,
        "swaps_inserted": r.swaps_inserted,
        "fidelity": repr(r.fidelity_estimate),
        "per_qubit_idle": [r.per_qubit_idle[q] for q in sorted(r.per_qubit_idle)],
        "final_map": [list(r.qmap.mapping[q]) for q in sorted(r.qmap.mapping)],
        "timeline": r.timeline_csv().splitlines(),
    }


def schedules() -> dict[str, dict]:
    spec = machine()
    results = {}
    for path in sorted(FIXTURES_DIR.glob("*.iqc")):
        circuit = load_circuit(path)
        qmap = assign_qubits(circuit, spec, "greedy_interaction_cut")
        for values in itertools.product((False, True), repeat=len(OPTIONS)):
            options = dict(zip(OPTIONS, values))
            for mode, seed in MODES:
                key = " ".join([path.name, mode]
                               + [f"{name}={int(v)}" for name, v in options.items()])
                try:
                    results[key] = result_doc(
                        schedule(circuit, qmap, spec, mode, seed, **options))
                except DomainError as exc:
                    results[key] = {"error": str(exc)}
    return results


def write_golden(path=OPTIONS_GOLDEN):
    """Regenerate the golden file, one schedule per line."""
    items = [f" {json.dumps(k)}: {json.dumps(v)}" for k, v in schedules().items()]
    path.write_text("{\n" + ",\n".join(items) + "\n}\n")


@pytest.fixture(scope="module")
def golden():
    return json.loads(OPTIONS_GOLDEN.read_text())


def test_schedules_match_golden(golden):
    assert schedules() == golden


@pytest.mark.parametrize("option", OPTIONS)
def test_each_option_moves_a_pinned_result(golden, option):
    off, on = f"{option}=0", f"{option}=1"
    pairs = [(golden[key], golden[key.replace(off, on)])
             for key in golden if off in key.split()]
    assert len(pairs) == len(golden) // 2
    assert any(a != b for a, b in pairs)
