"""The ELU partitioner behind qubit mapping and the modular QEC embedding.

``tests/golden/partitions.json`` pins the assignments that ``assign_qubits``
and ``embed_on_modular`` made before both were moved onto the shared
round-robin and greedy-cut functions of ``ionfab.graph``. Regenerate it
with ``write_golden()`` only for a change meant to move a partition.
"""

import dataclasses
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ionfab.qec
import ionfab.scheduler
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


def machine(ids, memory):
    """The example machine with ELUs ``ids`` of ``memory`` memory ions each."""
    base = load_architecture(EXAMPLE_JSON)
    elu = base.elus[0]
    return dataclasses.replace(base, elus=tuple(
        dataclasses.replace(elu, id=eid, n_ions=m + 2, comm_ion_indices=(0, m + 1),
                            fast_gate_distance=2)
        for eid, m in zip(ids, memory)))


def circuit_machines():
    """Two ELUs of 3 and 5 memory ions; five ELUs of 1-3, ids out of order."""
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


def draw_neighbours(draw, n, max_edges, max_weight):
    """Symmetric ``(other, weight)`` lists of a random multigraph on n nodes,
    weights 0 to ``max_weight``: a weight of 0 keeps a neighbour that pulls
    no ELU ahead."""
    neighbours = [[] for _ in range(n)]
    for a, b, w in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                           st.integers(0, max_weight)),
                                 max_size=max_edges)):
        if a != b:
            neighbours[a].append((b, w))
            neighbours[b].append((a, w))
    return neighbours


@st.composite
def weighted_graphs(draw):
    """(order, neighbours, capacity) with room for every node."""
    n = draw(st.integers(1, 12))
    neighbours = draw_neighbours(draw, n, 30, 5)
    slots = draw(st.lists(st.integers(0, n), min_size=1, max_size=5))
    slots[-1] += max(0, n - sum(slots))
    order = draw(st.permutations(range(n)))
    return order, neighbours, {f"E{k}": m for k, m in enumerate(slots)}


@st.composite
def wide_machines(draw):
    """(order, neighbours, capacity) on up to 60 ELUs, most of one slot
    count and some of none, so ties on spare room and on ELU order decide."""
    n = draw(st.integers(1, 40))
    neighbours = draw_neighbours(draw, n, 80, 3)
    m = draw(st.integers(1, 4))
    slots = draw(st.lists(st.sampled_from((0, m, m, m)), min_size=1, max_size=60))
    for k in range(n - sum(slots)):
        slots[k % len(slots)] += 1
    order = draw(st.permutations(range(n)))
    return order, neighbours, {f"E{k:02d}": m for k, m in enumerate(slots)}


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


@settings(max_examples=400)
@given(st.one_of(weighted_graphs(), wide_machines()))
def test_greedy_cut_follows_its_documented_rule(graph):
    order, neighbours, capacity = graph
    assert (greedy_cut(order, neighbours, capacity)
            == documented_greedy_cut(order, neighbours, capacity))


def embed_code(code):
    """``embed_on_modular`` with ``greedy_cut`` on the code's fitted machine."""
    spec = fitted_machine(code.n_nodes)
    return ionfab.qec, lambda: embed_on_modular(code, spec, "greedy_cut")


def map_clustered_circuit():
    """``assign_qubits`` greedy for 300 qubits and 3,000 CNOTs, mostly within
    blocks of 10, on 64 ELUs of 4-6 memory ions with ids out of order."""
    rng = random.Random(15)
    lines = ["qubits 300"]
    for _ in range(3000):
        a = rng.randrange(300)
        b = (a // 10 * 10 + rng.randrange(10) if rng.random() < 0.8
             else rng.randrange(300))
        if a != b:
            lines.append(f"CNOT q{a} q{b}")
    circuit = parse_circuit("\n".join(lines) + "\n")
    ids = [f"E{k:02d}" for k in rng.sample(range(64), 64)]
    spec = machine(ids, [4 + k % 3 for k in range(64)])
    return ionfab.scheduler, lambda: assign_qubits(circuit, spec, "greedy_interaction_cut")


@pytest.mark.parametrize("caller, n_elus", [
    (lambda: embed_code(surface_code_graph(21)), 45),
    (lambda: embed_code(steane_concat_graph(3)), 35),
    (lambda: embed_code(hypergraph_product_graph(repetition_check_matrix(13),
                                                 repetition_check_matrix(13))), 32),
    (map_clustered_circuit, 64),
], ids=["surface21", "steane3", "hgp_rep13", "circuit300"])
def test_greedy_cut_follows_its_documented_rule_at_real_sizes(monkeypatch, caller, n_elus):
    """The inputs a caller builds, captured on their way to ``greedy_cut``."""
    module, run = caller()
    calls = []

    def record(order, neighbours, capacity):
        calls.append((order, neighbours, capacity))
        return greedy_cut(order, neighbours, capacity)

    monkeypatch.setattr(module, "greedy_cut", record)
    run()
    ((order, neighbours, capacity),) = calls
    assert len(capacity) == n_elus
    assert (greedy_cut(order, neighbours, capacity)
            == documented_greedy_cut(order, neighbours, capacity))


class CountedId(str):
    """An ELU id that counts its hashes, one per dict lookup of the id."""

    hashes = 0

    def __hash__(self):
        CountedId.hashes += 1
        return str.__hash__(self)


def lookups_to_place_a_path(n_elus, n_nodes=1000):
    """ELU-id lookups ``greedy_cut`` makes to place a path on ``n_elus`` ELUs."""
    neighbours = [[(k + d, 1) for d in (-1, 1) if 0 <= k + d < n_nodes]
                  for k in range(n_nodes)]
    capacity = {CountedId(f"E{k:03d}"): n_nodes // n_elus for k in range(n_elus)}
    CountedId.hashes = 0
    placed = greedy_cut(list(range(n_nodes)), neighbours, capacity)
    assert Counter(placed) == capacity
    return CountedId.hashes


def test_greedy_cut_work_per_node_does_not_grow_with_the_elu_count():
    # A scan over every ELU per node makes ten times the lookups on ten
    # times the ELUs; the heap adds only O(ELUs) set-up and O(log ELUs)
    # per node.
    assert lookups_to_place_a_path(100) < 1.5 * lookups_to_place_a_path(10)


def test_partitions_reject_too_few_slots():
    with pytest.raises(CapacityError, match="3 nodes exceed 2 ELU slots"):
        deal_round_robin(3, {"A": 1, "B": 1})
    with pytest.raises(CapacityError, match="3 nodes exceed 2 ELU slots"):
        greedy_cut([0, 1, 2], [[], [], []], {"A": 1, "B": 1})
