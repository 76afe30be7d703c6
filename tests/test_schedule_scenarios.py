"""Whole schedules pinned at the benchmark's scale.

``tests/golden/schedule_scenarios.json`` holds, for each of 40 seeded
clustered circuits of 62-80 qubits and 620-800 operations on five copies of
the example machine's first ELU, the sha256 digest of the greedy-mapped
schedule's timeline CSV, makespan, fidelity breakdown and per-qubit idle
time, with ideal pairs and with buffered pairs at seed 7. The small
fixtures of ``test_schedule_options.py`` pin each option; these pin the
regime the ``schedule-buffered`` benchmark times, where most two-qubit
gates stay in one ELU and a share crosses. Regenerate the file with
``write_golden()`` only for a change meant to move a schedule.
"""

import copy
import hashlib
import json
import math
import random

import pytest

from conftest import EXAMPLE_JSON, GOLDEN_DIR
from ionfab.arch import parse_architecture
from ionfab.circuits import parse_circuit
from ionfab.scheduler import assign_qubits, schedule

SCENARIOS_GOLDEN = GOLDEN_DIR / "schedule_scenarios.json"
N_SCENARIOS = 40
N_ELUS = 5
CLUSTER_SHARE = 0.85  # two-qubit gates drawn inside one qubit cluster
MODES = (("ideal", None), ("buffered", 7))


def machine():
    """Five copies E00..E04 of the example's first ELU, 50 ms pair lifetime."""
    doc = json.loads(EXAMPLE_JSON.read_text())
    base = doc["elus"][0]
    doc["elus"] = [dict(copy.deepcopy(base), id=f"E{k:02d}") for k in range(N_ELUS)]
    doc["switch"]["port_count"] = N_ELUS * len(base["comm_ion_indices"])
    doc["link"]["pair_lifetime_s"] = 0.05
    return parse_architecture(doc)


def circuit_text(k: int) -> str:
    """Circuit ``k``: qubits dealt into one cluster per ELU, 62 % two-qubit gates."""
    rng = random.Random(1000 + k)
    n_qubits = 80 - 2 * (k % 10)
    n_ops = 620 + 20 * ((3 * k) % 10)
    cluster_of = [q % N_ELUS for q in range(n_qubits)]
    rng.shuffle(cluster_of)
    clusters = [[q for q in range(n_qubits) if cluster_of[q] == c]
                for c in range(N_ELUS)]
    lines = [f"qubits {n_qubits}"]
    for _ in range(n_ops):
        u = rng.random()
        q = rng.randrange(n_qubits)
        if u < 0.30:
            gate = rng.choice(("X", "H", "RZ"))
            angle = f" {rng.uniform(-math.pi, math.pi)!r}" if gate == "RZ" else ""
            lines.append(f"{gate} q{q}{angle}")
        elif u < 0.38:
            lines.append(f"MEASURE q{q}")
        else:
            pool = (clusters[cluster_of[q]] if rng.random() < CLUSTER_SHARE
                    else range(n_qubits))
            p = q
            while p == q:
                p = rng.choice(pool)
            if rng.random() < 0.5:
                lines.append(f"CNOT q{q} q{p}")
            else:
                lines.append(f"MS q{q} q{p} {rng.uniform(-math.pi, math.pi)!r}")
    return "\n".join(lines) + "\n"


def result_digest(r) -> str:
    f = r.fidelity
    doc = {
        "timeline": r.timeline_csv(),
        "makespan": repr(r.makespan),
        "fidelity": [repr(f.total), repr(f.gate_factor), repr(f.idle_factor)],
        "per_qubit_idle": [[q, repr(t)] for q, t in sorted(r.per_qubit_idle.items())],
    }
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def digests() -> dict[str, str]:
    spec = machine()
    out = {}
    for k in range(N_SCENARIOS):
        circuit = parse_circuit(circuit_text(k))
        qmap = assign_qubits(circuit, spec, "greedy_interaction_cut")
        for mode, seed in MODES:
            out[f"{k} {mode}"] = result_digest(schedule(circuit, qmap, spec, mode, seed))
    return out


def write_golden(path=SCENARIOS_GOLDEN):
    """Regenerate the golden file, one digest per line."""
    items = [f" {json.dumps(k)}: {json.dumps(v)}" for k, v in digests().items()]
    path.write_text("{\n" + ",\n".join(items) + "\n}\n")


@pytest.fixture(scope="module")
def golden():
    return json.loads(SCENARIOS_GOLDEN.read_text())


def test_scenarios_cross_elus():
    # The scenarios exercise remote gates and pair waits, not just local ones.
    spec = machine()
    circuit = parse_circuit(circuit_text(0))
    qmap = assign_qubits(circuit, spec, "greedy_interaction_cut")
    ideal = schedule(circuit, qmap, spec, "ideal")
    buffered = schedule(circuit, qmap, spec, "buffered", 7)
    assert buffered.pairs_consumed > 0
    assert buffered.makespan > ideal.makespan


def test_digests_unchanged(golden):
    assert len(golden) == N_SCENARIOS * len(MODES)
    assert digests() == golden
