"""Multi-tier qubit interaction graph of a machine.

Three edge tiers:

* COLLECTIVE: any pair inside one ELU (motional bus makes a complete graph),
* FAST: pairs within the ELU's fast-gate distance; always a subset of the
  collective tier,
* PHOTONIC: communication-ion to communication-ion edges between distinct
  ELUs, one per crossconnect link passed to :func:`build_interaction_graph`.

Graphs are immutable once built.

:func:`deal_round_robin` and :func:`greedy_cut` place the nodes of a
weighted graph on ELUs, for circuit mapping and for the modular QEC
embedding alike; every edge cut between ELUs costs a heralded photonic pair.
"""

from __future__ import annotations

import enum
import itertools
from collections import deque
from dataclasses import dataclass

from .arch import ArchitectureSpec
from .errors import CapacityError, DomainError
from .rates import elu_gate_rate, mean_connection_rate, slow_gate_time

# Speed ratio of proximity gates to collective-bus gates.
FAST_GATE_SPEEDUP = 5.0


class Tier(enum.Enum):
    FAST = "fast"
    COLLECTIVE = "collective"
    PHOTONIC = "photonic"


class Role(enum.Enum):
    MEMORY = "memory"
    COMMUNICATION = "communication"


@dataclass(frozen=True)
class QubitNode:
    elu_id: str
    position: int
    role: Role

    @property
    def label(self) -> str:
        return f"{self.elu_id}.{self.position}"


@dataclass(frozen=True)
class Edge:
    a: int  # node indices
    b: int
    tier: Tier
    time_cost: float  # s
    fidelity: float


@dataclass(frozen=True)
class InteractionGraph:
    nodes: tuple[QubitNode, ...]
    edges: tuple[Edge, ...]

    def tier_edges(self, tier: Tier) -> list[Edge]:
        return [e for e in self.edges if e.tier is tier]


def build_interaction_graph(spec: ArchitectureSpec, links=()) -> InteractionGraph:
    """Graph of a machine: the tiers of its ELUs plus one PHOTONIC edge per link.

    ``links`` is an iterable of ((elu_a, pos_a), (elu_b, pos_b)) pairs of
    communication ions in distinct ELUs, the wiring the crossconnect makes.
    A photonic edge costs the expected pair wait 1/mean_connection_rate plus
    the teleport and classical overheads.
    """
    nodes: list[QubitNode] = []
    edges: list[Edge] = []
    fid = spec.two_qubit_gate_fidelity
    for elu in spec.elus:
        comm = set(elu.comm_ion_indices)
        offset = len(nodes)
        for pos in range(elu.n_ions):
            role = Role.COMMUNICATION if pos in comm else Role.MEMORY
            nodes.append(QubitNode(elu.id, pos, role))
        tau_slow = slow_gate_time(elu_gate_rate(spec, elu.id))
        tau_fast = tau_slow / FAST_GATE_SPEEDUP
        for i in range(elu.n_ions):
            for j in range(i + 1, elu.n_ions):
                edges.append(Edge(offset + i, offset + j, Tier.COLLECTIVE,
                                  tau_slow, fid))
                if j - i <= elu.fast_gate_distance:
                    edges.append(Edge(offset + i, offset + j, Tier.FAST,
                                      tau_fast, fid))
    links = list(links)
    if links:
        index = {(n.elu_id, n.position): i for i, n in enumerate(nodes)}
        rate = mean_connection_rate(spec.attempt_rate, spec.collection_fraction,
                                    spec.detector_efficiency)
        wait = 1.0 / rate + spec.teleport_overhead_time + spec.classical_latency
    for (elu_a, pos_a), (elu_b, pos_b) in links:
        for end in ((elu_a, pos_a), (elu_b, pos_b)):
            if end not in index:
                raise DomainError(f"photonic link endpoint {end[0]}.{end[1]} "
                                  "is not a qubit of the machine")
        ia, ib = index[elu_a, pos_a], index[elu_b, pos_b]
        na, nb = nodes[ia], nodes[ib]
        if na.elu_id == nb.elu_id:
            raise DomainError("photonic link endpoints must be in distinct ELUs")
        if na.role is not Role.COMMUNICATION or nb.role is not Role.COMMUNICATION:
            raise DomainError("photonic link endpoints must be communication ions")
        edges.append(Edge(ia, ib, Tier.PHOTONIC, wait, fid))
    return InteractionGraph(tuple(nodes), tuple(edges))


@dataclass(frozen=True)
class DistanceProfile:
    histogram: dict[int, int]   # hop count -> number of unordered pairs
    unreachable_pairs: int

    @property
    def max_distance(self) -> int:
        return max(self.histogram) if self.histogram else 0


_PROFILE_TIERS = {
    "fast": (Tier.FAST,),
    "collective": (Tier.COLLECTIVE,),
    "fast+photonic": (Tier.FAST, Tier.PHOTONIC),
}


def graph_distance_profile(g: InteractionGraph, tier: str) -> DistanceProfile:
    """Histogram of shortest-path hop counts between all qubit pairs.

    ``tier`` is one of ``fast``, ``collective``, ``fast+photonic``.
    """
    try:
        tiers = _PROFILE_TIERS[tier]
    except KeyError:
        raise DomainError(
            f"tier must be one of {sorted(_PROFILE_TIERS)}, got {tier!r}") from None
    n = len(g.nodes)
    adj: list[list[int]] = [[] for _ in range(n)]
    for e in g.edges:
        if e.tier in tiers:
            adj[e.a].append(e.b)
            adj[e.b].append(e.a)
    hist: dict[int, int] = {}
    unreachable = 0
    for src in range(n):
        dist = [-1] * n
        dist[src] = 0
        q = deque([src])
        while q:
            u = q.popleft()
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    q.append(w)
        for other in range(src + 1, n):
            if dist[other] < 0:
                unreachable += 1
            else:
                hist[dist[other]] = hist.get(dist[other], 0) + 1
    return DistanceProfile(dict(sorted(hist.items())), unreachable)


def to_dot(g: InteractionGraph, tier: str | None = None) -> str:
    """Graph in DOT text form; ``tier`` limits output to one tier name."""
    lines = ["graph ionfab {"]
    for node in g.nodes:
        lines.append(f'  "{node.label}" [role={node.role.value}];')
    colors = {Tier.FAST: "red", Tier.COLLECTIVE: "blue", Tier.PHOTONIC: "purple"}
    for e in g.edges:
        if tier is not None and e.tier.value != tier:
            continue
        a, b = g.nodes[e.a].label, g.nodes[e.b].label
        lines.append(f'  "{a}" -- "{b}" [tier={e.tier.value}, color={colors[e.tier]}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _spare(n_nodes: int, capacity: dict[str, int]) -> dict[str, int]:
    """A copy of ``capacity`` to count down; the partitioners' one capacity check."""
    total = sum(capacity.values())
    if n_nodes > total:
        raise CapacityError(f"{n_nodes} nodes exceed {total} ELU slots")
    return dict(capacity)


def deal_round_robin(n_nodes: int, capacity: dict[str, int]) -> list[str]:
    """ELU id of each node, dealt cyclically in ``capacity`` order.

    ``capacity`` maps ELU id -> slots, in ELU order; a full ELU is skipped.
    """
    spare = _spare(n_nodes, capacity)
    ring = itertools.cycle(capacity)
    dealt = []
    for _ in range(n_nodes):
        eid = next(e for e in ring if spare[e])
        spare[eid] -= 1
        dealt.append(eid)
    return dealt


def greedy_cut(order: list[int], neighbours, capacity: dict[str, int]) -> list[str]:
    """ELU id of each node 0..len(order)-1, placed greedily in ``order``.

    ``neighbours[node]`` lists the node's ``(other, weight)`` pairs and
    ``capacity`` maps ELU id -> slots, in ELU order. Each node goes to the
    ELU with room that cuts the least weight to already-placed neighbours,
    ties going to the most spare room, then to the earlier ELU.
    """
    spare = _spare(len(order), capacity)
    placed: list[str | None] = [None] * len(order)
    for node in order:
        weight_on: dict[str, int] = {}
        for other, w in neighbours[node]:
            eid = placed[other]
            if eid is not None:
                weight_on[eid] = weight_on.get(eid, 0) + w
        # Least cut weight is most weight kept on the ELU; max keeps the
        # first of equal keys, so the earlier ELU wins a full tie.
        best = max((eid for eid in capacity if spare[eid]),
                   key=lambda eid: (weight_on.get(eid, 0), spare[eid]))
        placed[node] = best
        spare[best] -= 1
    return placed
