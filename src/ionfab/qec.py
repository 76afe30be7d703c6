"""QEC check-operator (Tanner) graph families and embedding-cost analysis.

Three generators: a rotated-layout surface-code patch (planar, low-weight
checks), a recursively concatenated Steane [7,1,3] code (check weight grows
with level), and the hypergraph product of two classical check matrices
(fixed-weight but spatially non-local checks). Embedders place a code on a
2D swap grid or on the modular machine and report routing cost, swap
counts, and entangled-pair consumption per syndrome-extraction round.

Swap convention, used consistently everywhere: moving syndrome information
across one check-to-data arm of Manhattan length d costs 2*(d - 1) swaps
(there and back past d - 1 intermediate cells), zero when already adjacent.
See :func:`swaps_for_distance`.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .arch import ArchitectureSpec
from .errors import CapacityError, DomainError, SchemaError
from .graph import deal_round_robin, greedy_cut
from .jsondoc import each, fixed_array, integer, number, require_keys, string

QEC_SCHEMA_ID = "ionfab-qec/1"
# Cap on a code document's data nodes: the embedders place every node.
MAX_DOC_DATA = 100_000


@dataclass(frozen=True)
class Check:
    kind: str  # "X" or "Z"
    data: frozenset[int]

    @property
    def weight(self) -> int:
        return len(self.data)


@dataclass(frozen=True)
class QecGraph:
    """Bipartite data/check graph; edges run only between checks and data."""

    n_data: int
    checks: tuple[Check, ...]
    family: str
    params: dict = field(default_factory=dict)
    rate: float | None = None  # k/n when known
    data_coords: tuple[tuple[int, int], ...] | None = None
    check_coords: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self):
        for c in self.checks:
            if c.kind not in ("X", "Z"):
                raise DomainError(f"check kind must be X or Z, got {c.kind!r}")
            if not c.data:
                raise DomainError("every check must touch at least one data node")
            if any(not 0 <= d < self.n_data for d in c.data):
                raise DomainError("check touches data index out of range")
        if (self.data_coords is None) != (self.check_coords is None):
            raise DomainError("data_coords and check_coords must be given together")
        if self.data_coords is not None and (
                len(self.data_coords) != self.n_data
                or len(self.check_coords) != len(self.checks)):
            raise DomainError("coords must give one cell per data node and per check")

    @property
    def n_checks(self) -> int:
        return len(self.checks)

    @property
    def n_nodes(self) -> int:
        return self.n_data + self.n_checks

    def css_commutation_ok(self) -> bool:
        """Every X-check / Z-check pair overlaps on an even number of data nodes.

        A sparse parity walk rather than an all-pairs intersection: map each
        data node to the Z checks that touch it, then XOR those Z-check sets
        over each X check's data nodes. What is left are the Z checks that
        overlap that X check an odd number of times, so a non-empty set fails.
        The cost is the sum over X checks of their data nodes' Z degrees.
        """
        z_of: dict[int, set[int]] = {}
        for zi, c in enumerate(self.checks):
            if c.kind == "Z":
                for d in c.data:
                    z_of.setdefault(d, set()).add(zi)
        for c in self.checks:
            if c.kind == "X":
                odd: set[int] = set()
                for d in c.data:
                    odd.symmetric_difference_update(z_of.get(d, ()))
                if odd:
                    return False
        return True


def swaps_for_distance(distance: int) -> int:
    """Swap cost of one check-to-data arm at the given Manhattan distance."""
    return 2 * max(0, distance - 1)


# ---------------------------------------------------------------------------
# Surface code (rotated layout)
# ---------------------------------------------------------------------------

def surface_code_graph(distance: int) -> QecGraph:
    """Rotated-layout planar surface-code patch.

    d^2 data nodes and d^2 - 1 alternating X/Z checks of weight 2 or 4. The
    stored integer coordinates are a planar straight-line embedding in which
    every check sits at Manhattan distance 1 from each of its data nodes
    (used by the grid embedder's ``native`` placement).
    """
    if distance < 3 or distance % 2 == 0:
        raise DomainError(f"distance must be odd and >= 3, got {distance}")
    d = distance
    span = 2 * d  # lattice coordinates run over 0..2d on the doubled grid

    data_id: dict[tuple[int, int], int] = {}
    for j in range(1, span, 2):
        for i in range(1, span, 2):
            data_id[(j, i)] = len(data_id)

    def rotate(j: int, i: int) -> tuple[int, int]:
        # 45-degree rotation of the even sublattice onto the integer grid;
        # diagonal lattice neighbors become orthogonal grid neighbors.
        return (i + j) // 2, (j - i + span) // 2

    checks: list[Check] = []
    check_coords: list[tuple[int, int]] = []

    def maybe_add(kind: str, j: int, i: int) -> None:
        members = frozenset(
            data_id[(j + dj, i + di)]
            for dj in (-1, 1) for di in (-1, 1)
            if (j + dj, i + di) in data_id
        )
        if members:
            checks.append(Check(kind, members))
            check_coords.append(rotate(j, i))

    for j in range(0, span + 1, 2):
        for i in range(2, span - 1, 2):
            if (i % 4 == 2 and j % 4 == 0) or (i % 4 == 0 and j % 4 == 2):
                maybe_add("X", j, i)
    for j in range(2, span - 1, 2):
        for i in range(0, span + 1, 2):
            if (i % 4 == 0 and j % 4 == 0) or (i % 4 == 2 and j % 4 == 2):
                maybe_add("Z", j, i)

    data_coords = [None] * len(data_id)
    for (j, i), idx in data_id.items():
        data_coords[idx] = rotate(j, i)

    return QecGraph(
        n_data=d * d,
        checks=tuple(checks),
        family="surface",
        params={"distance": d},
        rate=1.0 / (d * d),
        data_coords=tuple(data_coords),
        check_coords=tuple(check_coords),
    )


# ---------------------------------------------------------------------------
# Concatenated Steane code
# ---------------------------------------------------------------------------

# Steane [7,1,3] parity sets, 0-indexed; the same sets serve X and Z checks.
STEANE_PARITY_SETS = (frozenset({3, 4, 5, 6}),
                      frozenset({1, 2, 5, 6}),
                      frozenset({0, 2, 4, 6}))


def steane_concat_graph(levels: int) -> QecGraph:
    """Steane [7,1,3] concatenated ``levels`` times.

    Level L replaces each data node of level L-1 with a 7-qubit block and
    lifts each top-level check transversally over its blocks, so data count
    is 7^L and the top-level check weight is 4 * 7^(L-1).
    """
    if levels < 1:
        raise DomainError(f"levels must be >= 1, got {levels}")

    def build(level: int) -> tuple[int, list[Check]]:
        if level == 1:
            checks = [Check(kind, s) for kind in ("X", "Z")
                      for s in STEANE_PARITY_SETS]
            return 7, checks
        inner_n, inner_checks = build(level - 1)
        checks = []
        for b in range(7):
            offset = b * inner_n
            checks.extend(
                Check(c.kind, frozenset(q + offset for q in c.data))
                for c in inner_checks
            )
        for kind in ("X", "Z"):
            for s in STEANE_PARITY_SETS:
                members = frozenset(
                    q for b in s for q in range(b * inner_n, (b + 1) * inner_n))
                checks.append(Check(kind, members))
        return 7 * inner_n, checks

    n, checks = build(levels)
    return QecGraph(n_data=n, checks=tuple(checks), family="steane",
                    params={"levels": levels}, rate=1.0 / n)


# ---------------------------------------------------------------------------
# Hypergraph product codes
# ---------------------------------------------------------------------------

def repetition_check_matrix(r: int) -> np.ndarray:
    """Full-rank (r-1) x r check matrix of the [r, 1] repetition code."""
    if r < 2:
        raise DomainError(f"repetition length must be >= 2, got {r}")
    h = np.zeros((r - 1, r), dtype=np.uint8)
    for a in range(r - 1):
        h[a, a] = h[a, a + 1] = 1
    return h


def _as_binary_matrix(m, name: str) -> np.ndarray:
    try:
        arr = np.asarray(m)
    except ValueError as exc:
        raise DomainError(f"{name} has mismatched row lengths") from exc
    if arr.ndim != 2 or arr.size == 0:
        raise DomainError(f"{name} must be a non-empty 2D matrix")
    if not np.isin(arr, (0, 1)).all():
        raise DomainError(f"{name} must contain only 0/1 entries")
    if not arr.any():
        raise DomainError(f"{name} must be nonzero")
    return arr.astype(np.uint8)


def gf2_rank(m: np.ndarray) -> int:
    rows = [int("".join(str(int(b)) for b in row), 2) for row in m]
    rank = 0
    while rows:
        pivot = max(rows)
        rows.remove(pivot)
        if pivot == 0:
            continue
        rank += 1
        high = pivot.bit_length() - 1
        rows = [r ^ pivot if (r >> high) & 1 else r for r in rows]
    return rank


def hypergraph_product_graph(h1, h2) -> QecGraph:
    """Standard hypergraph-product CSS construction from two check matrices.

    hx = [H1 (x) I_n2 | I_m1 (x) H2^T] and hz = [I_n1 (x) H2 | H1^T (x) I_m2]
    (Tillich & Zemor); each row is one check, X checks first. Data nodes:
    n1*n2 (sector one) followed by m1*m2 (sector two); X-checks indexed
    (a, b) over m1 x n2, Z-checks (i, c) over n1 x m2. X/Z commutation holds
    by construction and is re-verified before return.

    The number of logical qubits comes from the Tillich-Zemor dimension
    formula, k = (n1 - r1)(n2 - r2) + (m1 - r1)(m2 - r2) with r_i the GF(2)
    rank of H_i (Tillich & Zemor, IEEE Trans. IT 60, 1193 (2014)). It equals
    n_data - rank(hx) - rank(hz) but ranks only the two small inputs.
    """
    h1 = _as_binary_matrix(h1, "h1")
    h2 = _as_binary_matrix(h2, "h2")
    m1, n1 = h1.shape
    m2, n2 = h2.shape

    hx = np.hstack([np.kron(h1, np.eye(n2, dtype=np.uint8)),
                    np.kron(np.eye(m1, dtype=np.uint8), h2.T)])
    hz = np.hstack([np.kron(np.eye(n1, dtype=np.uint8), h2),
                    np.kron(h1.T, np.eye(m2, dtype=np.uint8))])
    checks = [Check(kind, frozenset(np.flatnonzero(row).tolist()))
              for kind, h in (("X", hx), ("Z", hz)) for row in h]
    n_data = n1 * n2 + m1 * m2
    r1, r2 = gf2_rank(h1), gf2_rank(h2)
    k = (n1 - r1) * (n2 - r2) + (m1 - r1) * (m2 - r2)

    graph = QecGraph(
        n_data=n_data,
        checks=tuple(checks),
        family="hypergraph_product",
        params={"m1": m1, "n1": n1, "m2": m2, "n2": n2, "k": k},
        rate=k / n_data,
    )
    if not graph.css_commutation_ok():
        raise DomainError("hypergraph product produced non-commuting checks")
    return graph


# ---------------------------------------------------------------------------
# Grid embedding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EmbeddingReport:
    host: str                                # "grid2d" or "modular"
    per_check_route_length: tuple[int, ...]  # sum of arm costs per check
    per_check_span: tuple[int, ...]          # max arm cost per check
    max_check_span: int
    swap_count: int                          # grid host only, 0 for modular
    pairs_per_round: int                     # modular host only, 0 for grid
    grid_side: int | None = None
    assignment: tuple = ()                   # node -> cell (grid) or ELU id (modular)
    per_check_remote_elus: tuple[int, ...] = ()

    @property
    def mean_route_length(self) -> float:
        if not self.per_check_route_length:
            return 0.0
        return sum(self.per_check_route_length) / len(self.per_check_route_length)


def _grid_cells(code: QecGraph, placement: str, side: int,
                seed: int | None) -> list[tuple[int, int]]:
    total = code.n_nodes
    if placement == "row_major":
        return [(k // side, k % side) for k in range(total)]
    if placement == "random":
        if seed is None:
            raise DomainError("random placement requires a seed")
        rng = random.Random(seed)
        flat = rng.sample(range(side * side), total)
        return [(k // side, k % side) for k in flat]
    if placement == "native":
        if code.data_coords is None or code.check_coords is None:
            raise DomainError(
                f"{code.family} code carries no planar coordinates for native placement")
        return list(code.data_coords) + list(code.check_coords)
    raise DomainError(f"unknown placement {placement!r}")


def embed_on_grid(code: QecGraph, placement: str = "row_major",
                  seed: int | None = None) -> EmbeddingReport:
    """Place all nodes on distinct cells of a square grid and cost each check.

    The grid is the smallest square holding every node (the native placement
    may need a larger side, which is then used). Each check-to-data arm of
    Manhattan length d costs d hops of routing and ``swaps_for_distance(d)``
    swaps.
    """
    side = math.isqrt(code.n_nodes)
    if side * side < code.n_nodes:
        side += 1
    cells = _grid_cells(code, placement, side, seed)
    if placement == "native":
        side = max(max(x, y) for x, y in cells) + 1
    if len(set(cells)) != len(cells):
        raise DomainError("placement assigned two nodes to one cell")
    if any(not (0 <= x < side and 0 <= y < side) for x, y in cells):
        raise CapacityError(f"placement overflows the {side}x{side} grid")

    data_cells = cells[: code.n_data]
    check_cells = cells[code.n_data:]
    routes, spans = [], []
    swaps = 0
    for check, cell in zip(code.checks, check_cells):
        arms = [abs(cell[0] - data_cells[d][0]) + abs(cell[1] - data_cells[d][1])
                for d in sorted(check.data)]
        routes.append(sum(arms))
        spans.append(max(arms))
        swaps += sum(swaps_for_distance(a) for a in arms)

    return EmbeddingReport(
        host="grid2d",
        per_check_route_length=tuple(routes),
        per_check_span=tuple(spans),
        max_check_span=max(spans) if spans else 0,
        swap_count=swaps,
        pairs_per_round=0,
        grid_side=side,
        assignment=tuple(cells),
    )


# ---------------------------------------------------------------------------
# Modular embedding
# ---------------------------------------------------------------------------

def _partition_nodes(code: QecGraph, spec: ArchitectureSpec,
                     partition: str) -> list[str]:
    capacities = {e.id: e.n_ions for e in spec.elus}
    if partition == "round_robin":
        return deal_round_robin(code.n_nodes, capacities)
    if partition != "greedy_cut":
        raise DomainError(f"unknown partition strategy {partition!r}")

    # Unit-weight Tanner neighbours over data nodes 0..n_data-1, then checks.
    neighbours: list[list[tuple[int, int]]] = [[] for _ in range(code.n_nodes)]
    for ci, check in enumerate(code.checks):
        c_node = code.n_data + ci
        for d in sorted(check.data):
            neighbours[c_node].append((d, 1))
            neighbours[d].append((c_node, 1))
    # BFS order over the Tanner graph keeps local neighborhoods together.
    order: list[int] = []
    seen = [False] * code.n_nodes
    for root in range(code.n_nodes):
        if seen[root]:
            continue
        seen[root] = True
        queue = deque([root])
        while queue:
            u = queue.popleft()
            order.append(u)
            for w, _ in neighbours[u]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
    return greedy_cut(order, neighbours, capacities)


def embed_on_modular(code: QecGraph, spec: ArchitectureSpec,
                     partition: str = "greedy_cut") -> EmbeddingReport:
    """Partition a code over the machine's ELUs and cost one syndrome round.

    ``partition`` is ``greedy_cut`` (Tanner nodes in breadth-first order,
    unit weights) or ``round_robin``; both are the partitioners of
    :mod:`ionfab.graph`, with each ELU's ``n_ions`` as its slots, and they
    raise ``CapacityError`` when the code does not fit. Inside an ELU every
    interaction is distance 1 on the collective tier; each distinct remote
    ELU touched by a check consumes one entangled pair plus a teleport.
    Route length per check counts its intra-ELU arms (1 hop each);
    ``per_check_remote_elus`` and ``pairs_per_round`` carry the photonic
    cost.
    """
    assignment = _partition_nodes(code, spec, partition)
    routes, spans, remote_counts = [], [], []
    for ci, check in enumerate(code.checks):
        host = assignment[code.n_data + ci]
        intra = sum(1 for d in check.data if assignment[d] == host)
        remote = {assignment[d] for d in check.data} - {host}
        routes.append(intra)
        spans.append(1 if intra else 0)
        remote_counts.append(len(remote))
    return EmbeddingReport(
        host="modular",
        per_check_route_length=tuple(routes),
        per_check_span=tuple(spans),
        max_check_span=max(spans) if spans else 0,
        swap_count=0,
        pairs_per_round=sum(remote_counts),
        assignment=tuple(assignment),
        per_check_remote_elus=tuple(remote_counts),
    )


# ---------------------------------------------------------------------------
# JSON I/O ("ionfab-qec/1") and CSV check matrices
# ---------------------------------------------------------------------------

def qec_to_doc(code: QecGraph) -> dict:
    doc = {
        "schema": QEC_SCHEMA_ID,
        "family": code.family,
        "n_data": code.n_data,
        "checks": [{"kind": c.kind, "data": sorted(c.data)} for c in code.checks],
        "params": code.params,
        "rate": code.rate,
    }
    if code.data_coords is not None:
        doc["coords"] = {"data": [list(c) for c in code.data_coords],
                         "checks": [list(c) for c in code.check_coords]}
    return doc


def _check(doc: object) -> Check:
    require_keys(doc, "$", {"kind", "data"})
    data = doc["data"]
    if not (isinstance(data, list) and data
            and all(type(d) is int and d >= 0 for d in data)):
        raise SchemaError("expected a non-empty array of integers >= 0", "$.data")
    return Check(string(doc, "kind", "$"), frozenset(data))


def _coord(row: object) -> tuple[int, int]:
    fixed_array(row, 2, "[x, y]")
    return integer(row, 0, "$"), integer(row, 1, "$")


def parse_qec(doc: object) -> QecGraph:
    """Parse an ionfab-qec/1 document; rejects all that the schema rejects."""
    require_keys(doc, "$", {"schema", "family", "n_data", "checks"},
                 {"params", "rate", "coords"})
    if doc["schema"] != QEC_SCHEMA_ID:
        raise SchemaError(f"expected schema {QEC_SCHEMA_ID!r}, got {doc['schema']!r}",
                          "$.schema")
    n_data = integer(doc, "n_data", "$")
    if n_data < 1:
        raise SchemaError(f"must be >= 1, got {n_data}", "$.n_data")
    if n_data > MAX_DOC_DATA:
        raise SchemaError(f"must be <= {MAX_DOC_DATA}, got {n_data}", "$.n_data")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise SchemaError(f"expected object, got {type(params).__name__}", "$.params")
    if doc.get("rate") is not None:
        number(doc, "rate", "$")
    data_coords = check_coords = None
    if "coords" in doc:
        coords = doc["coords"]
        require_keys(coords, "$.coords", {"data", "checks"})
        data_coords = tuple(each(coords["data"], "$.coords.data", _coord))
        check_coords = tuple(each(coords["checks"], "$.coords.checks", _coord))
    return QecGraph(
        n_data=n_data,
        checks=tuple(each(doc["checks"], "$.checks", _check)),
        family=string(doc, "family", "$"),
        params=params,
        rate=doc.get("rate"),
        data_coords=data_coords,
        check_coords=check_coords,
    )


def parse_check_matrix_csv(text: str) -> np.ndarray:
    """Dense 0/1 check matrix from comma-separated rows; SchemaError if malformed."""
    rows = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            row = [int(tok) for tok in line.split(",")]
        except ValueError as exc:
            raise SchemaError(f"non-integer entry on line {line_no}") from exc
        rows.append(row)
    if not rows:
        raise SchemaError("empty check matrix file")
    if len({len(r) for r in rows}) != 1:
        raise SchemaError("ragged rows in check matrix file")
    try:
        return _as_binary_matrix(np.array(rows), "check matrix")
    except DomainError as exc:
        raise SchemaError(str(exc)) from None
