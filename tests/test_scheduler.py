import dataclasses
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EXAMPLE_JSON, FIXTURES_DIR
from ionfab.arch import load_architecture
from ionfab.circuits import ENTANGLING_KINDS, Circuit, GateKind, GateOp, parse_circuit
from ionfab.errors import CapacityError, DomainError
from ionfab.rates import elu_gate_rate, slow_gate_time
import ionfab.netsim
from ionfab.netsim import NetworkSim, SwitchConfig, make_link
from ionfab.scheduler import (QubitMap, assign_qubits, brute_force_best_map,
                              crossing_count, schedule)

FIXTURE_NAMES = ["ring4.iqc", "line6.iqc", "star5.iqc", "clusters6.iqc",
                 "mixed8.iqc"]


def two_elu_spec(built_spec, n_ions=6, comm=(0, 5), d=2):
    elus = tuple(dataclasses.replace(e, n_ions=n_ions, comm_ion_indices=comm,
                                     fast_gate_distance=d)
                 for e in built_spec.elus)
    return dataclasses.replace(built_spec, elus=elus,
                               switch=dataclasses.replace(built_spec.switch,
                                                          port_count=8))


def reference_min_crossing(circuit, spec):
    """Independent exhaustive search over qubit -> ELU vectors."""
    elu_ids = [e.id for e in spec.elus]
    capacity = {e.id: e.memory_ion_count for e in spec.elus}
    spans = [op.operands for op in circuit.ops if op.is_multi_qubit]
    best = None
    for vec in itertools.product(elu_ids, repeat=circuit.n_qubits):
        counts = {eid: 0 for eid in elu_ids}
        for eid in vec:
            counts[eid] += 1
        if any(counts[eid] > capacity[eid] for eid in elu_ids):
            continue
        cross = sum(1 for ops in spans if len({vec[q] for q in ops}) > 1)
        best = cross if best is None else min(best, cross)
    return best


class TestAssignment:
    def test_fits_one_elu_zero_crossing(self, example_spec):
        c = parse_circuit((FIXTURES_DIR / "line6.iqc").read_text())
        qmap = assign_qubits(c, example_spec, "greedy_interaction_cut")
        assert crossing_count(c, qmap) == 0

    def test_round_robin_deals_across_elus(self, example_spec):
        c = parse_circuit((FIXTURES_DIR / "ring4.iqc").read_text())
        qmap = assign_qubits(c, example_spec, "round_robin")
        assert {qmap.mapping[q][0] for q in range(4)} == {"A", "B"}

    def test_capacity_exceeded(self, built_spec):
        spec = two_elu_spec(built_spec, n_ions=3, comm=(0,), d=1)
        c = parse_circuit("qubits 5\n" + "".join(f"X q{i}\n" for i in range(5)))
        with pytest.raises(CapacityError):
            assign_qubits(c, spec, "round_robin")

    def test_user_map_duplicate_target(self, example_spec):
        c = parse_circuit("qubits 2\nCNOT q0 q1\n")
        with pytest.raises(DomainError, match="injective"):
            QubitMap({0: ("A", 2), 1: ("A", 2)}).validate(c, example_spec)

    def test_user_map_comm_position_rejected(self, example_spec):
        c = parse_circuit("qubits 1\nX q0\n")
        with pytest.raises(DomainError, match="memory ion"):
            QubitMap({0: ("A", 0)}).validate(c, example_spec)

    def test_user_map_unknown_elu_rejected(self, example_spec):
        c = parse_circuit("qubits 1\nX q0\n")
        with pytest.raises(DomainError, match="^q0 mapped to unknown ELU 'Z'$"):
            QubitMap({0: ("Z", 2)}).validate(c, example_spec)

    def test_unknown_strategy(self, example_spec):
        c = parse_circuit("qubits 1\nX q0\n")
        with pytest.raises(DomainError, match="strategy"):
            assign_qubits(c, example_spec, "left_to_right")

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_greedy_no_worse_than_round_robin(self, built_spec, name):
        spec = two_elu_spec(built_spec)
        c = parse_circuit((FIXTURES_DIR / name).read_text())
        greedy = crossing_count(c, assign_qubits(c, spec, "greedy_interaction_cut"))
        rr = crossing_count(c, assign_qubits(c, spec, "round_robin"))
        assert greedy <= rr


class TestBruteForceOracle:
    def test_one_elu_instance_zero(self, built_spec):
        spec = dataclasses.replace(built_spec, elus=built_spec.elus[:1],
                                   switch=dataclasses.replace(
                                       built_spec.switch, port_count=4))
        c = parse_circuit((FIXTURES_DIR / "ring4.iqc").read_text())
        _, cross = brute_force_best_map(c, spec)
        assert cross == 0

    def test_ring4_on_2x2_elus(self, built_spec):
        spec = two_elu_spec(built_spec, n_ions=4, comm=(0, 3), d=2)
        c = parse_circuit((FIXTURES_DIR / "ring4.iqc").read_text())
        qmap, cross = brute_force_best_map(c, spec)
        assert cross == 2
        assert crossing_count(c, qmap) == 2

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_matches_independent_enumeration(self, built_spec, name):
        spec = two_elu_spec(built_spec)
        c = parse_circuit((FIXTURES_DIR / name).read_text())
        _, cross = brute_force_best_map(c, spec)
        assert cross == reference_min_crossing(c, spec)

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_greedy_never_beats_oracle(self, built_spec, name):
        spec = two_elu_spec(built_spec)
        c = parse_circuit((FIXTURES_DIR / name).read_text())
        _, oracle = brute_force_best_map(c, spec)
        greedy = crossing_count(c, assign_qubits(c, spec, "greedy_interaction_cut"))
        assert greedy >= oracle

    def test_size_guard(self, built_spec):
        c = parse_circuit("qubits 9\n" + "".join(f"X q{i}\n" for i in range(9)))
        with pytest.raises(DomainError, match="oracle cap"):
            brute_force_best_map(c, built_spec)

    def test_elu_guard(self, built_spec):
        spec = dataclasses.replace(built_spec, elus=tuple(
            dataclasses.replace(built_spec.elus[0], id=f"E{k}") for k in range(4)))
        c = parse_circuit("qubits 2\nCNOT q0 q1\n")
        with pytest.raises(DomainError, match="^4 ELUs exceed oracle cap 3$"):
            brute_force_best_map(c, spec)


@st.composite
def circuits_on_elus(draw):
    """A circuit of every gate kind, GLOBAL_MS up to 12 operands in any
    order, with a map of its qubits over one to five ELUs."""
    n = draw(st.integers(1, 16))
    elus = [f"E{k}" for k in range(draw(st.integers(1, 5)))]
    qmap = QubitMap({q: (draw(st.sampled_from(elus)), q) for q in range(n)})
    kinds = [k for k in GateKind if k.arity[0] <= n]
    ops = []
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(kinds))
        lo, hi, takes_angle = kind.arity
        operands = draw(st.lists(st.integers(0, n - 1), min_size=lo,
                                 max_size=min(hi, 12, n), unique=True))
        ops.append(GateOp(kind, tuple(operands), 0.5 if takes_angle else None))
    return Circuit(n, tuple(ops)), qmap


class TestOpWalks:
    """crossing_count and interaction_weights against their definitions."""

    @settings(max_examples=100)
    @given(mapped=circuits_on_elus())
    def test_crossing_count(self, mapped):
        circuit, qmap = mapped
        assert crossing_count(circuit, qmap) == sum(
            1 for op in circuit.ops
            if len(op.operands) >= 2
            and len({qmap.mapping[q][0] for q in op.operands}) > 1)

    @settings(max_examples=100)
    @given(mapped=circuits_on_elus())
    def test_interaction_weights_and_their_order(self, mapped):
        # greedy_cut's neighbour lists follow the weights' key order.
        circuit, _ = mapped
        expected = {}
        for op in circuit.ops:
            if op.kind in ENTANGLING_KINDS:
                qs = sorted(op.operands)
                for i in range(len(qs)):
                    for j in range(i + 1, len(qs)):
                        expected[(qs[i], qs[j])] = expected.get((qs[i], qs[j]), 0) + 1
        assert list(circuit.interaction_weights().items()) == list(expected.items())


class TestScheduleDurations:
    def test_adjacent_local_cnot(self, example_spec):
        c = parse_circuit("qubits 2\nCNOT q0 q1\n")
        qmap = QubitMap({0: ("A", 2), 1: ("A", 3)})
        r = schedule(c, qmap, example_spec)
        tau_fast = slow_gate_time(elu_gate_rate(example_spec, "A")) / 5.0
        assert r.makespan == tau_fast
        assert r.pairs_consumed == 0

    def test_distant_local_cnot_uses_collective(self, example_spec):
        c = parse_circuit("qubits 2\nCNOT q0 q1\n")
        qmap = QubitMap({0: ("A", 2), 1: ("A", 15)})
        r = schedule(c, qmap, example_spec)
        assert r.makespan == slow_gate_time(elu_gate_rate(example_spec, "A"))

    def test_remote_cnot_ideal_formula(self, example_spec):
        c = parse_circuit("qubits 2\nCNOT q0 q1\n")
        qmap = QubitMap({0: ("A", 2), 1: ("B", 2)})
        r = schedule(c, qmap, example_spec)
        tau_fast = slow_gate_time(elu_gate_rate(example_spec, "A")) / 5.0
        correction = tau_fast + example_spec.species.detection_time
        expected = (example_spec.teleport_overhead_time + correction
                    + example_spec.classical_latency)
        assert r.makespan == pytest.approx(expected, rel=1e-12)
        assert r.pairs_consumed == 1

    @pytest.mark.parametrize("mode, lifetime", [("ideal", None), ("buffered", 0.05)])
    def test_overflowing_time_rejected(self, example_spec, mode, lifetime):
        spec = dataclasses.replace(
            example_spec, pair_lifetime=lifetime,
            elus=tuple(dataclasses.replace(e, single_qubit_gate_time=1e308)
                       for e in example_spec.elus))
        c = parse_circuit("qubits 2\nX q0\nX q0\nCNOT q0 q1\n")
        qmap = QubitMap({0: ("A", 2), 1: ("B", 2)})
        with pytest.raises(DomainError, match="schedule time overflows"):
            schedule(c, qmap, spec, pair_supply_mode=mode, seed=1)

    def test_elu_without_comm_ions(self, example_spec):
        spec = dataclasses.replace(example_spec, elus=(
            example_spec.elus[0],
            dataclasses.replace(example_spec.elus[1], comm_ion_indices=())))
        c = parse_circuit("qubits 2\nCNOT q0 q1\n")
        local = schedule(c, QubitMap({0: ("A", 2), 1: ("A", 3)}), spec)
        assert local.pairs_consumed == 0
        with pytest.raises(CapacityError, match="^ELU B has no communication ion"):
            schedule(c, QubitMap({0: ("A", 2), 1: ("B", 3)}), spec)

    def test_measure_duration(self, example_spec):
        c = parse_circuit("qubits 1\nMEASURE q0\n")
        qmap = assign_qubits(c, example_spec, "round_robin")
        r = schedule(c, qmap, example_spec)
        assert r.makespan == example_spec.species.detection_time

    def test_global_ms_duration_and_confinement(self, example_spec):
        c = parse_circuit("qubits 3\nGLOBAL_MS q0 q1 q2 0.5\n")
        local = QubitMap({0: ("A", 2), 1: ("A", 3), 2: ("A", 9)})
        r = schedule(c, local, example_spec)
        assert r.makespan == slow_gate_time(elu_gate_rate(example_spec, "A"))
        spanning = QubitMap({0: ("A", 2), 1: ("A", 3), 2: ("B", 2)})
        with pytest.raises(DomainError, match="GLOBAL_MS spans"):
            schedule(c, spanning, example_spec)


class TestScheduleInvariants:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_per_ion_exclusivity(self, built_spec, name):
        spec = two_elu_spec(built_spec, n_ions=8, comm=(0, 7), d=2)
        c = parse_circuit((FIXTURES_DIR / name).read_text())
        r = schedule(c, assign_qubits(c, spec, "greedy_interaction_cut"), spec)
        by_ion = {}
        for entry in r.timeline:
            for ion in entry.ions:
                by_ion.setdefault(ion, []).append((entry.start, entry.end))
        for intervals in by_ion.values():
            intervals.sort()
            for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
                assert s2 >= e1 - 1e-15

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_dependency_preservation(self, built_spec, name):
        spec = two_elu_spec(built_spec, n_ions=8, comm=(0, 7), d=2)
        c = parse_circuit((FIXTURES_DIR / name).read_text())
        r = schedule(c, assign_qubits(c, spec, "greedy_interaction_cut"), spec)
        gate_entries = [e for e in r.timeline if e.op is not None]
        assert len(gate_entries) == len(c.ops)
        last_start = {}
        for entry, op in zip(gate_entries, c.ops):
            assert entry.op == op
            for q in op.operands:
                if q in last_start:
                    assert entry.start >= last_start[q]
                last_start[q] = entry.start

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_pair_ledger(self, built_spec, name):
        spec = two_elu_spec(built_spec, n_ions=8, comm=(0, 7), d=2)
        c = parse_circuit((FIXTURES_DIR / name).read_text())
        qmap = assign_qubits(c, spec, "greedy_interaction_cut")
        r = schedule(c, qmap, spec)
        remote = sum(
            1 for op in c.ops
            if op.is_multi_qubit
            and len({qmap.mapping[q][0] for q in op.operands}) > 1)
        assert r.pairs_consumed == remote
        assert sum(1 for e in r.timeline if len(e.elus) == 2) == remote

    @pytest.mark.parametrize("seed", range(10))
    def test_ideal_no_slower_than_buffered(self, built_spec, seed):
        spec = two_elu_spec(built_spec, n_ions=8, comm=(0, 7), d=2)
        c = parse_circuit((FIXTURES_DIR / "clusters6.iqc").read_text())
        qmap = assign_qubits(c, spec, "round_robin")
        ideal = schedule(c, qmap, spec, "ideal")
        buffered = schedule(c, qmap, spec, "buffered", seed=seed)
        assert ideal.makespan <= buffered.makespan + 1e-15

    def test_buffered_requires_seed(self, built_spec):
        spec = two_elu_spec(built_spec)
        c = parse_circuit((FIXTURES_DIR / "ring4.iqc").read_text())
        qmap = assign_qubits(c, spec, "round_robin")
        with pytest.raises(DomainError, match="seed"):
            schedule(c, qmap, spec, "buffered")

    def test_buffered_deterministic(self, built_spec):
        spec = two_elu_spec(built_spec, n_ions=8, comm=(0, 7), d=2)
        c = parse_circuit((FIXTURES_DIR / "clusters6.iqc").read_text())
        qmap = assign_qubits(c, spec, "round_robin")
        a = schedule(c, qmap, spec, "buffered", seed=5)
        b = schedule(c, qmap, spec, "buffered", seed=5)
        assert a.timeline == b.timeline and a.makespan == b.makespan

    def test_comm_exclusivity_delays_request(self, built_spec):
        spec = two_elu_spec(built_spec, n_ions=8, comm=(0, 7), d=2)
        text = "qubits 4\nMS q0 q2 0.5\nCNOT q1 q3\n"
        c = parse_circuit(text)
        qmap = QubitMap({0: ("A", 1), 2: ("A", 2), 1: ("A", 3), 3: ("B", 1)})
        free = schedule(c, qmap, spec)
        strict = schedule(c, qmap, dataclasses.replace(spec, dual_species_comm=False))
        assert strict.makespan >= free.makespan

    def test_hundred_remote_cnots_match_waiting_time_oracle(self, built_spec):
        big = dataclasses.replace(built_spec, elus=tuple(
            dataclasses.replace(e, n_ions=104, comm_ion_indices=(0, 1, 102, 103))
            for e in built_spec.elus))
        lines = ["qubits 200"] + [f"CNOT q{i} q{i + 100}" for i in range(100)]
        c = parse_circuit("\n".join(lines))
        user = {i: ("A", 2 + i) for i in range(100)}
        user |= {100 + i: ("B", 2 + i) for i in range(100)}
        qmap = QubitMap(user)
        p = 2e-4
        rate = big.attempt_rate * p
        mean = 100 / rate
        sd = math.sqrt(100 * (1 - p)) / rate
        for seed in (0, 1, 2):
            r = schedule(c, qmap, big, "buffered", seed=seed)
            assert r.pairs_consumed == 100
            assert mean - 3 * sd <= r.makespan <= mean + 3 * sd + 0.01


class TestPairSupplyCap:
    """With expiring or colliding pairs a request at t simulates up to about
    t, so a request past SIM_MAX_EVENTS expected events, counted from time
    0, raises at once; the cap bounds the run however it is split."""

    @staticmethod
    def sim(spec, pairs=(("A", "B"),), lifetime=0.05):
        spec = dataclasses.replace(spec, pair_lifetime=lifetime)
        links = {make_link((a, 0), (b, 1)) for a, b in pairs}
        return NetworkSim(spec, [(0.0, SwitchConfig(frozenset(links)))], [], seed=1)

    @staticmethod
    def colliding(spec):
        return dataclasses.replace(spec, elus=tuple(
            dataclasses.replace(e, collision_rate_per_ion=1.0) for e in spec.elus))

    def test_huge_time_raises_before_simulating(self, example_spec):
        self.assert_huge_time_raises_before_simulating(self.sim(example_spec))

    def test_huge_time_on_a_colliding_machine_raises_before_simulating(
            self, example_spec):
        self.assert_huge_time_raises_before_simulating(
            self.sim(self.colliding(example_spec), lifetime=None))

    @staticmethod
    def assert_huge_time_raises_before_simulating(sim):
        assert sim.request(("A", "B"), 0.1) >= 0.1
        stream = sim.success_times[("A", "B")]
        before = len(stream)
        with pytest.raises(DomainError, match=r"simulating to 1e\+300 s means about "
                                              r".* over the cap of 10000000"):
            sim.request(("A", "B"), 1e300)
        assert len(stream) == before

    def test_cap_counts_expected_pairs_over_all_links(self, example_spec,
                                                      monkeypatch):
        monkeypatch.setattr(ionfab.netsim, "SIM_MAX_EVENTS", 1000)
        three = dataclasses.replace(example_spec, elus=(
            *example_spec.elus, dataclasses.replace(example_spec.elus[0], id="C")))
        sim = self.sim(three, [("A", "B"), ("B", "C")])
        rate = sim.rate * sim.p  # per link; two links
        assert sim.request(("A", "B"), 499 / rate) >= 499 / rate
        before = sim.now
        with pytest.raises(DomainError, match="over the cap of 1000$"):
            sim.request(("B", "C"), 501 / rate)
        assert sim.now == before

    def test_small_steps_add_up_to_the_cap(self, example_spec, monkeypatch):
        # each request is a step of about 45 expected events past the last
        monkeypatch.setattr(ionfab.netsim, "SIM_MAX_EVENTS", 1000)
        sim = self.sim(self.colliding(example_spec), lifetime=None)
        step = 45 / sim.event_rate
        with pytest.raises(DomainError, match="over the cap of 1000$"):
            for k in range(1, 100):
                sim.request(("A", "B"), k * step)
        assert k * step * sim.event_rate <= 1080
        assert sim.now * sim.event_rate <= 1000

    def test_no_lifetime_no_cap(self, example_spec):
        assert self.sim(example_spec, lifetime=None).request(("A", "B"), 1e300) == 1e300


class TestFidelity:
    def test_empty_circuit(self, example_spec):
        c = parse_circuit("qubits 2\n")
        r = schedule(c, assign_qubits(c, example_spec, "round_robin"),
                     example_spec)
        assert r.fidelity_estimate == 1.0
        assert r.makespan == 0.0

    def test_ten_parallel_two_qubit_gates(self, example_spec):
        lines = ["qubits 20"] + [f"MS q{2 * i} q{2 * i + 1} 0.5"
                                 for i in range(10)]
        c = parse_circuit("\n".join(lines))
        user = {}
        for i in range(10):
            eid = "A" if i < 5 else "B"
            base = 2 + 2 * (i % 5)
            user[2 * i] = (eid, base)
            user[2 * i + 1] = (eid, base + 1)
        qmap = QubitMap(user)
        r = schedule(c, qmap, example_spec)
        # all gates start at t = 0 on disjoint ions: zero idle time
        assert all(v == 0.0 for v in r.per_qubit_idle.values())
        assert r.fidelity_estimate == pytest.approx(0.999 ** 10, rel=1e-12)
        assert r.fidelity_estimate == pytest.approx(0.990045, abs=5e-6)

    def test_idle_equal_to_t2_costs_e_inverse(self, built_spec):
        t1q = built_spec.elus[0].single_qubit_gate_time
        spec = dataclasses.replace(
            built_spec,
            species=dataclasses.replace(built_spec.species,
                                        qubit_coherence_time=2 * t1q))
        c = parse_circuit("qubits 2\nRZ q1 0.1\nRZ q1 0.1\nCNOT q0 q1\n")
        qmap = QubitMap({0: ("A", 2), 1: ("A", 3)})
        r = schedule(c, qmap, spec)
        assert r.per_qubit_idle[0] == pytest.approx(2 * t1q, rel=1e-12)
        assert r.per_qubit_idle[1] == 0.0
        assert r.fidelity.idle_factor == pytest.approx(math.exp(-1.0), rel=1e-9)
        assert r.fidelity.gate_factor == pytest.approx(0.999, rel=1e-12)

    def test_breakdown_matches_schedule_estimate(self, built_spec):
        spec = two_elu_spec(built_spec, n_ions=8, comm=(0, 7), d=2)
        c = parse_circuit((FIXTURES_DIR / "mixed8.iqc").read_text())
        r = schedule(c, assign_qubits(c, spec, "greedy_interaction_cut"), spec)
        breakdown = r.fidelity
        assert isinstance(r.fidelity_estimate, float)
        assert r.fidelity_estimate == breakdown.total
        assert breakdown.total == breakdown.gate_factor * breakdown.idle_factor

    def test_monotone_under_added_gates(self, example_spec):
        base = parse_circuit("qubits 2\nCNOT q0 q1\n")
        more = parse_circuit("qubits 2\nCNOT q0 q1\nCNOT q0 q1\n")
        qmap = QubitMap({0: ("A", 2), 1: ("A", 3)})
        r1 = schedule(base, qmap, example_spec)
        r2 = schedule(more, qmap, example_spec)
        assert r2.fidelity_estimate <= r1.fidelity_estimate

    def test_unmapped_qubit_rejected(self, example_spec):
        c = parse_circuit("qubits 2\nCNOT q0 q1\n")
        with pytest.raises(DomainError, match="cover exactly"):
            schedule(c, QubitMap({0: ("A", 2)}), example_spec)


class TestTimelineCsv:
    def test_header_and_rows(self, example_spec):
        c = parse_circuit("qubits 2\nCNOT q0 q1\nMEASURE q0\n")
        qmap = QubitMap({0: ("A", 2), 1: ("A", 3)})
        csv = schedule(c, qmap, example_spec).timeline_csv()
        lines = csv.splitlines()
        assert lines[0] == "start_s,dur_s,gate,operands,elus,resource"
        assert lines[1].split(",")[2] == "CNOT"
        assert "A.2" in lines[1]


EXAMPLE = load_architecture(EXAMPLE_JSON)
ONE_QUBIT = (GateKind.X, GateKind.H, GateKind.RZ, GateKind.MEASURE)


@st.composite
def mapped_circuits(draw):
    """A random circuit on the example machine with its round-robin map.

    Every gate kind appears; a GLOBAL_MS takes its operands from one ELU,
    and up to 32 qubits put distant pairs in one chain, so both the fast and
    the slow two-qubit gate occur.
    """
    n = draw(st.integers(2, 32))
    qmap = assign_qubits(Circuit(n, ()), EXAMPLE, "round_robin")
    by_elu = {}
    for q in range(n):
        by_elu.setdefault(qmap.mapping[q][0], []).append(q)
    groups = [qs for qs in by_elu.values() if len(qs) >= 2]
    kinds = [k for k in GateKind if groups or k is not GateKind.GLOBAL_MS]
    angle = st.floats(-math.pi, math.pi)
    ops = []
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(kinds))
        if kind in ONE_QUBIT:
            operands = (draw(st.integers(0, n - 1)),)
        elif kind is GateKind.GLOBAL_MS:
            group = draw(st.sampled_from(groups))
            operands = tuple(draw(st.lists(st.sampled_from(group), min_size=2,
                                           max_size=4, unique=True)))
        else:
            operands = tuple(draw(st.lists(st.integers(0, n - 1), min_size=2,
                                           max_size=2, unique=True)))
        takes_angle = kind.arity[2]
        ops.append(GateOp(kind, operands, draw(angle) if takes_angle else None))
    return Circuit(n, tuple(ops)), qmap


class TestOnePassTotals:
    """The totals kept while placing equal a re-scan of the timeline."""

    @pytest.mark.parametrize("mode", ["ideal", "buffered"])
    @pytest.mark.parametrize("dual", [False, True])
    @settings(max_examples=20)
    @given(mapped=mapped_circuits(), seed=st.integers(0, 2**31 - 1))
    def test_totals_match_a_rescan(self, mode, dual, mapped, seed):
        circuit, qmap = mapped
        r = schedule(circuit, qmap, dataclasses.replace(EXAMPLE, dual_species_comm=dual),
                     mode, seed=seed if mode == "buffered" else None)
        assert r.makespan == (max(e.end for e in r.timeline) if r.timeline else 0.0)
        assert r.pairs_consumed == sum(1 for e in r.timeline if len(e.elus) == 2)
        f = EXAMPLE.two_qubit_gate_fidelity
        gate_factor = 1.0
        for e in r.timeline:
            if e.op.kind in ENTANGLING_KINDS:
                gate_factor *= f
        assert r.fidelity.gate_factor == gate_factor
        for e in r.timeline:
            assert e.elus == tuple(sorted({eid for eid, _ in e.ions}))

    def test_entries_are_hashable_and_immutable(self, example_spec):
        c = parse_circuit("qubits 2\nCNOT q0 q1\nX q0\n")
        qmap = QubitMap({0: ("A", 2), 1: ("B", 2)})
        timeline = schedule(c, qmap, example_spec).timeline
        assert len(set(timeline)) == len(timeline) == 2
        for field in ("start", "duration", "op", "ions", "elus"):
            with pytest.raises(AttributeError):
                setattr(timeline[0], field, None)


class TestIdealBoundsBuffered:
    """IDEAL <= BUFFERED: every duration is the same in both modes and every
    start time is a maximum of end times, so waiting for pairs only delays."""

    @pytest.mark.parametrize("collision_rate", [0.0, 1.0])
    @pytest.mark.parametrize("lifetime", [None, 0.002])
    @settings(max_examples=20)
    @given(mapped=mapped_circuits(), seed=st.integers(0, 2**31 - 1),
           dual=st.booleans())
    def test_ideal_makespan_bounds_buffered(self, collision_rate, lifetime,
                                            mapped, seed, dual):
        spec = dataclasses.replace(
            EXAMPLE, pair_lifetime=lifetime, dual_species_comm=dual, elus=tuple(
                dataclasses.replace(e, collision_rate_per_ion=collision_rate)
                for e in EXAMPLE.elus))
        circuit, qmap = mapped
        ideal = schedule(circuit, qmap, spec, "ideal")
        buffered = schedule(circuit, qmap, spec, "buffered", seed=seed)
        assert ideal.makespan <= buffered.makespan
        assert ideal.pairs_consumed == buffered.pairs_consumed
