"""Qubit assignment and ASAP gate scheduling against the pair supply.

Program qubits live on memory ions (communication ions are reserved for the
photonic interface). A map is either computed by :func:`assign_qubits`,
which places qubits on ELUs with the partitioners of :mod:`ionfab.graph`, or
given by hand as a :class:`QubitMap`; :func:`schedule` validates whichever
map it is given, once. Scheduling processes operations in program order and
starts each as soon as every ion it touches is free, which preserves
program-order dependencies between operations sharing a qubit.

Every timeline entry (gate, measurement, remote gate or inserted swap) is
placed by one rule: it holds its ions from start to end and adds its
duration to the busy time of the qubits it acts on. The same rule keeps the
result's totals in one pass, in timeline order: ``makespan`` (the latest
end), ``swaps_inserted`` and ``pairs_consumed`` (the swap entries and the
pair-using entries) and the fidelity's gate factor. A
:class:`TimelineEntry` is an immutable ``typing.NamedTuple``.

Operations inside one ELU differ only in duration:

* single-qubit gates: the host ELU's ``single_qubit_gate_time``;
* two-qubit gates: tau_fast = tau_slow/kappa on a fast edge (positions
  within the fast-gate distance), else tau_slow = 2*pi/R_gate(N). With
  ``strict_proximity`` a distant pair is first brought within the fast-gate
  distance by chain swaps of 3*tau_fast each;
* GLOBAL_MS: tau_slow, operands confined to one ELU;
* MEASURE: the species detection time (plus the shuttle cost when
  ``measure_isolation`` is on and another ion of the ELU is busy).

A two-qubit gate across ELUs consumes one entangled pair (waited for in
BUFFERED mode) and takes teleport_overhead_time + the slower side's local
gate-and-measure sequence + classical_latency. Each side charges one local
two-qubit gate between the program ion and its nearest communication ion
plus one detection; the two sides run in parallel. BUFFERED pairs come
from :meth:`NetworkSim.request` on one seeded, demand-free sim with a
static link per needed ELU pair: expiry and collisions are honoured,
buffer capacity is not.

The fidelity estimate is the product of ``two_qubit_gate_fidelity`` over
entangling operations (swaps count as three) times exp(-idle/T2) per qubit,
where idle time is measured from circuit start to the qubit's last
operation, minus its busy time. :func:`schedule` computes it once, as the
result's ``fidelity`` breakdown (total, gate factor, idle factor);
``fidelity_estimate`` is its total.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

from .arch import ArchitectureSpec
from .circuits import ENTANGLING_KINDS, TWO_QUBIT_KINDS, Circuit, GateKind, GateOp
from .errors import CapacityError, DomainError
from .netsim import NetworkSim, static_links
from .rates import elu_gate_rate, slow_gate_time
from .graph import FAST_GATE_SPEEDUP, deal_round_robin, greedy_cut

# A swap decomposes into three proximity CNOTs.
SWAP_GATE_COUNT = 3

BRUTE_FORCE_MAX_QUBITS = 8
BRUTE_FORCE_MAX_ELUS = 3


@dataclass(frozen=True)
class QubitMap:
    """Injective program-qubit -> (ELU id, chain position) assignment."""

    mapping: dict[int, tuple[str, int]]

    def elu_of(self, q: int) -> str:
        return self.mapping[q][0]

    def validate(self, circuit: Circuit, spec: ArchitectureSpec) -> None:
        if set(self.mapping) != set(range(circuit.n_qubits)):
            raise DomainError("map must cover exactly the circuit's qubits")
        targets = list(self.mapping.values())
        if len(set(targets)) != len(targets):
            raise DomainError("map is not injective")
        memory = {e.id: set(e.memory_positions()) for e in spec.elus}
        for q, (eid, pos) in self.mapping.items():
            if eid not in memory:
                raise DomainError(f"q{q} mapped to unknown ELU {eid!r}")
            if pos not in memory[eid]:
                raise DomainError(
                    f"q{q} mapped to {eid}.{pos}, not a memory ion position")


def crossing_count(circuit: Circuit, qmap: QubitMap) -> int:
    """Multi-qubit operations whose operands span more than one ELU."""
    return sum(
        1 for op in circuit.ops
        if op.is_multi_qubit
        and len({qmap.elu_of(q) for q in op.operands}) > 1
    )


def _fill_positions(elu_for: list[str], spec: ArchitectureSpec) -> QubitMap:
    """Give qubit q, in qubit order, the next memory position of ELU elu_for[q]."""
    cursors = {e.id: iter(e.memory_positions()) for e in spec.elus}
    return QubitMap({q: (eid, next(cursors[eid])) for q, eid in enumerate(elu_for)})


def assign_qubits(circuit: Circuit, spec: ArchitectureSpec,
                  strategy: str = "greedy_interaction_cut") -> QubitMap:
    """Map program qubits to memory ions with one of the ELU partitioners.

    ``round_robin`` deals qubits across ELUs cyclically;
    ``greedy_interaction_cut`` greedily minimizes entangling operations that
    cross ELUs, placing heavy qubits first. Each ELU offers its memory ions
    as slots, and the partitioner raises ``CapacityError`` when the circuit
    does not fit. A map given by hand is a :class:`QubitMap` built directly;
    :func:`schedule` validates it.
    """
    capacity = {e.id: e.memory_ion_count for e in spec.elus}
    if strategy == "round_robin":
        return _fill_positions(deal_round_robin(circuit.n_qubits, capacity), spec)

    if strategy == "greedy_interaction_cut":
        neighbours: list[list[tuple[int, int]]] = [[] for _ in range(circuit.n_qubits)]
        for (a, b), w in circuit.interaction_weights().items():
            neighbours[a].append((b, w))
            neighbours[b].append((a, w))
        degree = [sum(w for _, w in pairs) for pairs in neighbours]
        order = sorted(range(circuit.n_qubits), key=lambda q: (-degree[q], q))
        return _fill_positions(greedy_cut(order, neighbours, capacity), spec)

    raise DomainError(f"unknown assignment strategy {strategy!r}")


def brute_force_best_map(circuit: Circuit,
                         spec: ArchitectureSpec) -> tuple[QubitMap, int]:
    """Exhaustive minimum-crossing assignment; the optimality oracle.

    Only the qubit -> ELU partition matters for crossing counts, so the
    search enumerates ELU assignment vectors in lexicographic order (ties
    resolved to the first minimum found).
    """
    if circuit.n_qubits > BRUTE_FORCE_MAX_QUBITS:
        raise DomainError(
            f"{circuit.n_qubits} qubits exceed oracle cap {BRUTE_FORCE_MAX_QUBITS}")
    if len(spec.elus) > BRUTE_FORCE_MAX_ELUS:
        raise DomainError(
            f"{len(spec.elus)} ELUs exceed oracle cap {BRUTE_FORCE_MAX_ELUS}")
    capacity = {e.id: e.memory_ion_count for e in spec.elus}
    if circuit.n_qubits > sum(capacity.values()):
        raise CapacityError("circuit does not fit on the machine")

    elu_ids = spec.elu_ids()
    spans = [tuple(op.operands) for op in circuit.ops if op.is_multi_qubit]
    best_vec, best_cross = None, None
    for vec in itertools.product(range(len(elu_ids)), repeat=circuit.n_qubits):
        counts = [0] * len(elu_ids)
        for e in vec:
            counts[e] += 1
        if any(counts[i] > capacity[elu_ids[i]] for i in range(len(elu_ids))):
            continue
        cross = sum(1 for ops in spans if len({vec[q] for q in ops}) > 1)
        if best_cross is None or cross < best_cross:
            best_vec, best_cross = vec, cross
    if best_vec is None:
        raise CapacityError("no feasible assignment")
    return _fill_positions([elu_ids[e] for e in best_vec], spec), best_cross


# ---------------------------------------------------------------------------
# Scheduling
# ---------------------------------------------------------------------------

class TimelineEntry(NamedTuple):
    start: float
    duration: float
    op: GateOp | None  # None for inserted swaps
    ions: tuple[tuple[str, int], ...]  # every physical ion held by the operation
    elus: tuple[str, ...]
    used_pair: bool = False

    @property
    def end(self) -> float:
        return self.start + self.duration

    @property
    def label(self) -> str:
        return self.op.kind.value if self.op is not None else "SWAP"

    @property
    def operand_text(self) -> str:
        if self.op is None:
            return ""
        return " ".join(f"q{q}" for q in self.op.operands)


@dataclass(frozen=True)
class FidelityBreakdown:
    total: float
    gate_factor: float
    idle_factor: float


@dataclass(frozen=True)
class ScheduleResult:
    timeline: tuple[TimelineEntry, ...]
    makespan: float
    pairs_consumed: int
    swaps_inserted: int
    fidelity: FidelityBreakdown
    per_qubit_idle: dict[int, float]
    qmap: QubitMap
    mode: str
    seed: int | None = None

    @property
    def fidelity_estimate(self) -> float:
        return self.fidelity.total

    def timeline_csv(self) -> str:
        lines = ["start_s,dur_s,gate,operands,elus,resource"]
        for e in self.timeline:
            ions = " ".join(f"{eid}.{pos}" for eid, pos in e.ions)
            lines.append(f"{e.start!r},{e.duration!r},{e.label},"
                         f"{e.operand_text},{'+'.join(e.elus)},{ions}")
        return "\n".join(lines) + "\n"


def schedule(
    circuit: Circuit,
    qmap: QubitMap,
    spec: ArchitectureSpec,
    pair_supply_mode: str = "ideal",
    seed: int | None = None,
    strict_proximity: bool = False,
    measure_isolation: bool = False,
    comm_attempts_during_gates: bool = True,
) -> ScheduleResult:
    """ASAP list schedule of a mapped circuit.

    ``pair_supply_mode`` is ``ideal`` (pairs always available) or
    ``buffered`` (pair waits from the seeded network simulation; ``seed``
    required). ``strict_proximity`` forbids collective-tier gates and
    inserts chain swaps instead. ``comm_attempts_during_gates=False`` makes
    remote operations wait until both ELUs are fully idle before requesting
    a pair (communication exclusivity).
    """
    qmap.validate(circuit, spec)
    elu_spec = {e.id: e for e in spec.elus}
    tau_slow = {e.id: slow_gate_time(elu_gate_rate(spec, e.id)) for e in spec.elus}
    tau_fast = {eid: tau / FAST_GATE_SPEEDUP for eid, tau in tau_slow.items()}
    # The nearest communication ion of every position (ties: the lower
    # index), for each ELU that has one.
    nearest_comm = {
        e.id: [min(e.comm_ion_indices, key=lambda c: (abs(c - pos), c))
               for pos in range(e.n_ions)]
        for e in spec.elus if e.comm_ion_indices}
    position_of = dict(qmap.mapping)  # mutates under strict-proximity swaps
    qubit_at: dict[tuple[str, int], int] = {
        ion: q for q, ion in position_of.items()}

    sim = None  # ideal: a pair is there whenever it is asked for
    if pair_supply_mode == "buffered":
        if seed is None:
            raise DomainError("buffered mode requires a seed")
        needed = set()
        for op in circuit.ops:
            if op.kind in TWO_QUBIT_KINDS:
                q0, q1 = op.operands
                eid_a, eid_b = position_of[q0][0], position_of[q1][0]
                if eid_a != eid_b:
                    needed.add((eid_a, eid_b) if eid_a < eid_b else (eid_b, eid_a))
        if needed:
            sim = NetworkSim(spec, [(0.0, static_links(spec, needed))], [], seed)
    elif pair_supply_mode != "ideal":
        raise DomainError(f"unknown pair supply mode {pair_supply_mode!r}")

    ion_free = {(e.id, pos): 0.0 for e in spec.elus for pos in range(e.n_ions)}
    timeline: list[TimelineEntry] = []
    busy: dict[int, float] = {q: 0.0 for q in range(circuit.n_qubits)}
    last_end: dict[int, float] = {q: 0.0 for q in range(circuit.n_qubits)}
    # The result's totals, kept in timeline order as entries are placed.
    makespan, pairs_consumed, swaps_inserted, gate_factor = 0.0, 0, 0, 1.0
    gate_fidelity = spec.two_qubit_gate_fidelity
    swap_fidelity = gate_fidelity ** SWAP_GATE_COUNT

    def place(start: float, duration: float, op: GateOp | None,
              ions: list[tuple[str, int]], elus: tuple[str, ...],
              qubits: tuple[int, ...], used_pair: bool = False) -> None:
        """Append one entry: hold ``ions`` and charge ``qubits`` until its end.

        ``elus`` is the sorted ELU ids of ``ions``, known to every caller."""
        nonlocal makespan, pairs_consumed, swaps_inserted, gate_factor
        end = start + duration
        if not math.isfinite(end):
            raise DomainError(f"schedule time overflows: an operation ends at {end!r} s")
        for ion in ions:
            ion_free[ion] = end
        timeline.append(TimelineEntry(start, duration, op, tuple(ions), elus, used_pair))
        for q in qubits:
            busy[q] += duration
            last_end[q] = end
        if end > makespan:
            makespan = end
        if op is None:  # inserted swap, three proximity gates
            swaps_inserted += 1
            gate_factor *= swap_fidelity
        elif op.kind in ENTANGLING_KINDS:
            gate_factor *= gate_fidelity
        if used_pair:
            pairs_consumed += 1

    def two_qubit_time(eid: str, pos_a: int, pos_b: int) -> float:
        if abs(pos_a - pos_b) <= elu_spec[eid].fast_gate_distance:
            return tau_fast[eid]
        return tau_slow[eid]

    def elu_busy_until(eid: str) -> float:
        return max(ion_free[(eid, pos)] for pos in range(elu_spec[eid].n_ions))

    # Hoisted: a member lookup on an Enum class is slow Python-level work.
    measure, global_ms = GateKind.MEASURE, GateKind.GLOBAL_MS
    for op in circuit.ops:
        kind = op.kind
        touched = [position_of[q] for q in op.operands]
        eid = touched[0][0]
        local = True
        start = 0.0
        for ion in touched:
            free = ion_free[ion]
            if free > start:
                start = free
            if ion[0] != eid:
                local = False

        if local:
            elu = elu_spec[eid]
            if kind is measure:
                duration = spec.species.detection_time
                if measure_isolation and any(
                        ion_free[(eid, p)] > start
                        for p in range(elu.n_ions) if p != touched[0][1]):
                    duration += elu.shuttle_cost_time
            elif kind is global_ms:
                duration = tau_slow[eid]
            elif kind in TWO_QUBIT_KINDS:
                if strict_proximity:
                    # Swap operand 0 along the chain with its neighbour ion
                    # (occupied or not) until operand 1 is within reach.
                    q0, q1 = op.operands
                    step = 1 if position_of[q1][1] > position_of[q0][1] else -1
                    while abs(position_of[q1][1] - position_of[q0][1]) > elu.fast_gate_distance:
                        cur = position_of[q0]
                        nxt = (eid, cur[1] + step)
                        other = qubit_at.get(nxt)
                        swap_start = max(start, ion_free[cur], ion_free[nxt])
                        swap_time = SWAP_GATE_COUNT * tau_fast[eid]
                        place(swap_start, swap_time, None, [cur, nxt], (eid,),
                              (q0,) if other is None else (other, q0))
                        start = swap_start + swap_time
                        position_of[q0], qubit_at[nxt] = nxt, q0
                        if other is None:
                            del qubit_at[cur]
                        else:
                            position_of[other], qubit_at[cur] = cur, other
                    touched = [position_of[q] for q in op.operands]
                duration = two_qubit_time(eid, touched[0][1], touched[1][1])
            else:
                duration = elu.single_qubit_gate_time
            place(start, duration, op, touched, (eid,), op.operands)

        elif kind is global_ms:
            raise DomainError(f"GLOBAL_MS spans ELUs "
                              f"{sorted({eid for eid, _ in touched})} after mapping")
        else:
            # Remote two-qubit gate: consume one pair, teleport.
            (eid_a, pos_a), (eid_b, pos_b) = touched
            pair = (eid_a, eid_b) if eid_a < eid_b else (eid_b, eid_a)
            if not comm_attempts_during_gates:
                start = max(start, elu_busy_until(eid_a), elu_busy_until(eid_b))
            if sim is not None:
                start = sim.request(pair, start)
            try:
                comm_a = (eid_a, nearest_comm[eid_a][pos_a])
                comm_b = (eid_b, nearest_comm[eid_b][pos_b])
            except KeyError as exc:
                raise CapacityError(f"ELU {exc.args[0]} has no communication ion "
                                    "for a remote gate") from None
            start = max(start, ion_free[comm_a], ion_free[comm_b])
            side_a = (two_qubit_time(eid_a, pos_a, comm_a[1])
                      + spec.species.detection_time)
            side_b = (two_qubit_time(eid_b, pos_b, comm_b[1])
                      + spec.species.detection_time)
            duration = (spec.teleport_overhead_time + max(side_a, side_b)
                        + spec.classical_latency)
            place(start, duration, op, touched + [comm_a, comm_b], pair, op.operands,
                  used_pair=True)

    idle = {q: max(0.0, last_end[q] - busy[q]) for q in busy}
    idle_factor = math.exp(-sum(idle.values()) / spec.species.qubit_coherence_time)
    return ScheduleResult(
        timeline=tuple(timeline),
        makespan=makespan,
        pairs_consumed=pairs_consumed,
        swaps_inserted=swaps_inserted,
        fidelity=FidelityBreakdown(gate_factor * idle_factor, gate_factor, idle_factor),
        per_qubit_idle=idle,
        qmap=QubitMap(dict(position_of)),
        mode=pair_supply_mode,
        seed=seed,
    )
