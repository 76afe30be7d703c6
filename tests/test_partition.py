"""The ELU partitioner behind qubit mapping and the modular QEC embedding.

``tests/golden/partitions.json`` pins the assignments that ``assign_qubits``
and ``embed_on_modular`` made before both were moved onto the shared
round-robin and greedy-cut functions of ``ionfab.graph``. Regenerate it
with ``write_golden()`` only for a change meant to move a partition.
"""

import dataclasses
import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EXAMPLE_JSON, FIXTURES_DIR, GOLDEN_DIR
from ionfab.arch import load_architecture
from ionfab.circuits import parse_circuit
from ionfab.errors import CapacityError
from ionfab.graph import deal_round_robin, greedy_cut
from ionfab.qec import (embed_on_modular, hypergraph_product_graph,
                        repetition_check_matrix, steane_concat_graph,
                        surface_code_graph)
from ionfab.scheduler import assign_qubits

PARTITIONS_GOLDEN = GOLDEN_DIR / "partitions.json"


def circuit_machines():
    """Two ELUs of 3 and 5 memory ions; five ELUs of 1-3, ids out of order."""
    base = load_architecture(EXAMPLE_JSON)
    elu = base.elus[0]

    def machine(ids, memory):
        return dataclasses.replace(base, elus=tuple(
            dataclasses.replace(elu, id=eid, n_ions=m + 2, comm_ion_indices=(0, m + 1),
                                fast_gate_distance=2)
            for eid, m in zip(ids, memory)))

    return {"two_elu": machine("AB", (3, 5)),
            "five_elu": machine("ECADB", (1, 3, 2, 1, 2))}


def codes():
    rep5 = repetition_check_matrix(5)
    return {"surface5": surface_code_graph(5),
            "steane2": steane_concat_graph(2),
            "hgp_rep5": hypergraph_product_graph(rep5, rep5)}


def fitted_machine(n_nodes):
    """The fewest 20-ion ELUs E00, E01, ... that hold ``n_nodes``."""
    base = load_architecture(EXAMPLE_JSON)
    n_elus = -(-n_nodes // base.elus[0].n_ions)
    return dataclasses.replace(base, elus=tuple(
        dataclasses.replace(base.elus[0], id=f"E{k:02d}") for k in range(n_elus)))


def partitions():
    qubits = {}
    for path in sorted(FIXTURES_DIR.glob("*.iqc")):
        circuit = parse_circuit(path.read_text())
        for machine, spec in circuit_machines().items():
            for strategy in ("greedy_interaction_cut", "round_robin"):
                qmap = assign_qubits(circuit, spec, strategy)
                qubits[f"{path.name} {machine} {strategy}"] = [
                    list(qmap.mapping[q]) for q in range(circuit.n_qubits)]
    nodes = {}
    for name, code in codes().items():
        for partition in ("greedy_cut", "round_robin"):
            rep = embed_on_modular(code, fitted_machine(code.n_nodes), partition)
            nodes[f"{name} {partition}"] = list(rep.assignment)
    return {"assign_qubits": qubits, "embed_on_modular": nodes}


def write_golden(path=PARTITIONS_GOLDEN):
    """Regenerate the golden file, one assignment per line."""
    lines = []
    for section, entries in partitions().items():
        items = [f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in entries.items()]
        lines.append(f" {json.dumps(section)}: {{\n" + ",\n".join(items) + "\n }")
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")


@pytest.mark.parametrize("section", ["assign_qubits", "embed_on_modular"])
def test_partitions_match_golden(section):
    golden = json.loads(PARTITIONS_GOLDEN.read_text())[section]
    assert partitions()[section] == golden


@st.composite
def weighted_graphs(draw):
    """(order, neighbours, capacity) with room for every node."""
    n = draw(st.integers(1, 12))
    neighbours = [[] for _ in range(n)]
    for a, b, w in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                           st.integers(1, 5)), max_size=30)):
        if a != b:
            neighbours[a].append((b, w))
            neighbours[b].append((a, w))
    slots = draw(st.lists(st.integers(0, n), min_size=1, max_size=5))
    slots[-1] += max(0, n - sum(slots))
    order = draw(st.permutations(range(n)))
    return order, neighbours, {f"E{k}": m for k, m in enumerate(slots)}


@settings(max_examples=200)
@given(weighted_graphs())
def test_partitions_fill_within_capacity_and_follow_renaming(graph):
    order, neighbours, capacity = graph
    rename = {eid: f"{len(capacity) - k}x" for k, eid in enumerate(capacity)}
    renamed = {rename[eid]: m for eid, m in capacity.items()}
    for place in (lambda cap: deal_round_robin(len(order), cap),
                  lambda cap: greedy_cut(order, neighbours, cap)):
        placed = place(capacity)
        assert len(placed) == len(order)
        assert all(Counter(placed)[eid] <= m for eid, m in capacity.items())
        assert set(placed) <= set(capacity)
        assert place(renamed) == [rename[eid] for eid in placed]


def documented_greedy_cut(order, neighbours, capacity):
    """``greedy_cut``'s docstring restated: each node, in order, goes to the
    ELU with room of lowest (cut weight to placed neighbours, -spare room,
    position in ``capacity``)."""
    elus = list(capacity)
    spare = dict(capacity)
    placed = {}
    for node in order:
        def key(eid):
            cut = sum(w for other, w in neighbours[node]
                      if other in placed and placed[other] != eid)
            return cut, -spare[eid], elus.index(eid)
        placed[node] = min((eid for eid in elus if spare[eid] > 0), key=key)
        spare[placed[node]] -= 1
    return [placed[node] for node in range(len(order))]


@settings(max_examples=300)
@given(weighted_graphs())
def test_greedy_cut_follows_its_documented_rule(graph):
    order, neighbours, capacity = graph
    assert (greedy_cut(order, neighbours, capacity)
            == documented_greedy_cut(order, neighbours, capacity))


def test_partitions_reject_too_few_slots():
    with pytest.raises(CapacityError, match="3 nodes exceed 2 ELU slots"):
        deal_round_robin(3, {"A": 1, "B": 1})
    with pytest.raises(CapacityError, match="3 nodes exceed 2 ELU slots"):
        greedy_cut([0, 1, 2], [[], [], []], {"A": 1, "B": 1})
