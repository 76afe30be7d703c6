"""QEC check-operator (Tanner) graph families and embedding-cost analysis.

Three generators, each written from its code's definition: a rotated-layout
surface-code patch from its plaquette rule on the d x d grid (planar,
low-weight checks), a concatenated Steane [7,1,3] code built one level per
loop pass (check weight grows with level), and the hypergraph product of
two classical check matrices (fixed-weight but spatially non-local checks),
built from the row and column supports of its two factors. No generator
builds a code of more than ``MAX_DOC_DATA`` data nodes, the most a code
document may hold: each raises ``DomainError`` first. Embedders place a
code on a 2D swap grid or on the modular machine and report routing cost,
swap counts, and entangled-pair consumption per syndrome-extraction round;
the grid embedder costs every check-to-data arm in one numpy pass.

A :class:`Check` is an immutable ``(kind, data)`` tuple record. A code is a
:class:`QecGraph`, which checks its invariants when built by hand or by
:func:`parse_qec`. The generators build codes that are valid by
construction, so they build their checks and graphs without a second
check; the one invariant a hypergraph product can break, an empty check,
:func:`hypergraph_product_graph` refuses before it builds anything.

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
from itertools import chain
from typing import NamedTuple

import numpy as np

from .arch import ArchitectureSpec
from .errors import CapacityError, DomainError, SchemaError
from .graph import deal_round_robin, greedy_cut
from .jsondoc import (each, fixed_array, integer, number, require_keys,
                      require_schema, string)

QEC_SCHEMA_ID = "ionfab-qec/1"
# Cap on a code document's data nodes: the embedders place every node.
MAX_DOC_DATA = 100_000


class Check(NamedTuple):
    """One check: an immutable ``(kind, data)`` record.

    As a tuple, a check equals, and hashes like, any check or plain tuple
    with the same kind and data. ``QecGraph(...)`` checks the fields.
    """

    kind: str  # "X" or "Z"
    data: frozenset[int]

    @property
    def weight(self) -> int:
        return len(self.data)


@dataclass(frozen=True)
class QecGraph:
    """Bipartite data/check graph; edges run only between checks and data.

    ``QecGraph(...)`` checks every invariant below; the generators build
    graphs that hold them by construction with :func:`_valid_graph`.
    """

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
            if min(c.data) < 0 or max(c.data) >= self.n_data:
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


def _valid_graph(**fields) -> QecGraph:
    """A graph from all of QecGraph's fields, without ``__post_init__``.

    For generators only, whose codes are valid by construction; the same
    unchecked build as ``parse_circuit``'s ``Circuit``.
    """
    graph = object.__new__(QecGraph)
    for name, value in fields.items():
        object.__setattr__(graph, name, value)
    return graph


def swaps_for_distance(distance: int) -> int:
    """Swap cost of one check-to-data arm at the given Manhattan distance."""
    return 2 * max(0, distance - 1)


# ---------------------------------------------------------------------------
# Surface code (rotated layout)
# ---------------------------------------------------------------------------

def surface_code_graph(distance: int) -> QecGraph:
    """Rotated-layout planar surface-code patch, from its plaquette rule.

    Data (r, c) of the d x d grid is node r*d + c. The plaquette at corner
    (r, c), 0 <= r, c <= d, touches the data (r-1 or r, c-1 or c) that
    exist. X checks are the plaquettes with r + c odd on rows 0..d and
    columns 1..d-1; Z checks those with r + c even on rows 1..d-1 and
    columns 0..d. That gives d^2 - 1 checks of weight 2 or 4, listed X
    first, then rows outer and columns inner. Coordinates rotate the grid
    by 45 degrees: (r + c + 1, r - c + d) for data and (r + c, r - c + d)
    for plaquettes, a planar straight-line embedding in which every check
    sits at Manhattan distance 1 from each of its data nodes (used by the
    grid embedder's ``native`` placement).
    """
    if distance < 3 or distance % 2 == 0:
        raise DomainError(f"distance must be odd and >= 3, got {distance}")
    d = distance
    if d * d > MAX_DOC_DATA:
        raise DomainError(f"surface code of distance {d} has {d * d} data nodes, "
                          f"over the cap of {MAX_DOC_DATA}")
    new = tuple.__new__
    checks: list[Check] = []
    check_coords: list[tuple[int, int]] = []
    for kind, parity, rows, cols in (("X", 1, range(d + 1), range(1, d)),
                                     ("Z", 0, range(1, d), range(d + 1))):
        for r in rows:
            for c in cols:
                if (r + c) % 2 == parity:
                    checks.append(new(Check, (kind, frozenset(
                        i * d + j for i in (r - 1, r) if 0 <= i < d
                        for j in (c - 1, c) if 0 <= j < d))))
                    check_coords.append((r + c, r - c + d))
    return _valid_graph(
        n_data=d * d,
        checks=tuple(checks),
        family="surface",
        params={"distance": d},
        rate=1.0 / (d * d),
        data_coords=tuple((r + c + 1, r - c + d)
                          for r in range(d) for c in range(d)),
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
    """Steane [7,1,3] concatenated ``levels`` times, one level per loop pass.

    Starting from one data node and no checks, each level takes seven
    copies of the previous checks, copy b offset by b times the previous
    data count n, then appends the six block checks: for each kind (X, then
    Z) and each of ``STEANE_PARITY_SETS``, the union of the blocks in the
    set. Then n grows sevenfold. So data count is 7^L and the top-level
    check weight is 4 * 7^(L-1).
    """
    if levels < 1:
        raise DomainError(f"levels must be >= 1, got {levels}")
    # 7^bit_length is already over the cap, so min() spares forming 7^levels.
    if 7 ** min(levels, MAX_DOC_DATA.bit_length()) > MAX_DOC_DATA:
        raise DomainError(f"Steane code of {levels} levels has 7^{levels} data "
                          f"nodes, over the cap of {MAX_DOC_DATA}")
    new = tuple.__new__
    n, checks = 1, []
    for _ in range(levels):
        checks = [new(Check, (c.kind, frozenset(q + offset for q in c.data)))
                  for offset in range(0, 7 * n, n) for c in checks]
        blocks = [frozenset().union(*[range(b * n, (b + 1) * n) for b in s])
                  for s in STEANE_PARITY_SETS]
        checks += [new(Check, (kind, s)) for kind in ("X", "Z") for s in blocks]
        n *= 7
    return _valid_graph(n_data=n, checks=tuple(checks), family="steane",
                        params={"levels": levels}, rate=1.0 / n,
                        data_coords=None, check_coords=None)


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


def _row_supports(m: np.ndarray, scale: int, offset: int) -> list[list[int]]:
    """Each row's support in ``m``, as ``column * scale + offset`` ints."""
    rows, cols = np.nonzero(m)
    flat = (cols * scale + offset).tolist()
    ends = np.cumsum(np.bincount(rows, minlength=len(m))).tolist()
    return [flat[start:end] for start, end in zip([0] + ends, ends)]


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

    The checks are the rows of hx = [H1 (x) I_n2 | I_m1 (x) H2^T] and
    hz = [I_n1 (x) H2 | H1^T (x) I_m2] (Tillich & Zemor), X checks first,
    but neither matrix is formed: each check is the product of a row or
    column support of H1 with one of H2. Data nodes: n1*n2 (sector one,
    node (i, j) = i*n2 + j) followed by m1*m2 (sector two, node (a, c) =
    n1*n2 + a*m2 + c). X check (a, b), over m1 x n2, is
    {i*n2 + b : H1[a, i] = 1} | {n1*n2 + a*m2 + c : H2[c, b] = 1}; Z check
    (i, c), over n1 x m2, is {i*n2 + j : H2[c, j] = 1} |
    {n1*n2 + a*m2 + c : H1[a, i] = 1}. So the work and memory follow the
    number of ones, not n_data times the number of checks. X/Z commutation
    holds by construction and is re-verified before return. Two inputs are
    refused with ``DomainError`` before any check is built: a product of
    more than ``MAX_DOC_DATA`` data nodes, which a code document could not
    hold, and one with an empty check. X check (a, b) is empty when row a
    of H1 and column b of H2 are both zero, Z check (i, c) when column i of
    H1 and row c of H2 are. Every other invariant of :class:`QecGraph`
    holds by construction, so the graph is built without a second check.

    The number of logical qubits comes from the Tillich-Zemor dimension
    formula, k = (n1 - r1)(n2 - r2) + (m1 - r1)(m2 - r2) with r_i the GF(2)
    rank of H_i (Tillich & Zemor, IEEE Trans. IT 60, 1193 (2014)). It equals
    n_data - rank(hx) - rank(hz) but ranks only the two small inputs.
    """
    h1 = _as_binary_matrix(h1, "h1")
    h2 = _as_binary_matrix(h2, "h2")
    m1, n1 = h1.shape
    m2, n2 = h2.shape
    n_data = n1 * n2 + m1 * m2
    if n_data > MAX_DOC_DATA:
        raise DomainError(f"hypergraph product of {m1}x{n1} and {m2}x{n2} check "
                          f"matrices has {n_data} data nodes, over the cap of "
                          f"{MAX_DOC_DATA}")

    # Each support is scaled and offset to its share of a node index.
    sector_two = n1 * n2
    h1_rows = _row_supports(h1, n2, 0)            # i*n2 with H1[a, i] = 1, per a
    h1_cols = _row_supports(h1.T, m2, sector_two)  # n1*n2 + a*m2, per i
    h2_rows = _row_supports(h2, 1, 0)             # j with H2[c, j] = 1, per c
    h2_cols = _row_supports(h2.T, 1, sector_two)  # n1*n2 + c, per b
    # X check (a, b) is empty when h1_rows[a] and h2_cols[b] both are, and
    # Z check (i, c) when h1_cols[i] and h2_rows[c] both are.
    if not ((all(h1_rows) or all(h2_cols)) and (all(h1_cols) or all(h2_rows))):
        raise DomainError("every check must touch at least one data node")
    new = tuple.__new__
    checks = [new(Check, ("X", frozenset([i + b for i in h1_rows[a]]
                                         + [c + a * m2 for c in h2_cols[b]])))
              for a in range(m1) for b in range(n2)]
    checks += [new(Check, ("Z", frozenset([j + i * n2 for j in h2_rows[c]]
                                          + [a + c for a in h1_cols[i]])))
               for i in range(n1) for c in range(m2)]
    r1, r2 = gf2_rank(h1), gf2_rank(h2)
    k = (n1 - r1) * (n2 - r2) + (m1 - r1) * (m2 - r2)

    graph = _valid_graph(
        n_data=n_data,
        checks=tuple(checks),
        family="hypergraph_product",
        params={"m1": m1, "n1": n1, "m2": m2, "n2": n2, "k": k},
        rate=k / n_data,
        data_coords=None,
        check_coords=None,
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
    swaps. All arms are costed together over one flat array of check
    members, and every count in the report is a Python int.
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

    # Every arm in one pass: the members of all checks in check order, each
    # paired with its check's node; reduceat folds the arms back per check.
    weights = np.array([len(c.data) for c in code.checks], dtype=np.int64)
    members = np.fromiter(chain.from_iterable([c.data for c in code.checks]),
                          dtype=np.int64, count=int(weights.sum()))
    # Coordinates are below side and an arm below 2 * side, so no value
    # below can pass this bound.
    if 2 * side * (len(members) + 1) > np.iinfo(np.int64).max:
        raise CapacityError(f"a {side}x{side} grid is too wide to cost exactly")
    owners = np.repeat(np.arange(code.n_data, code.n_nodes), weights)
    xy = np.fromiter(chain.from_iterable(cells), dtype=np.int64,
                     count=2 * len(cells)).reshape(-1, 2)
    arms = np.abs(xy[owners] - xy[members]).sum(axis=1)
    starts = np.cumsum(weights) - weights
    spans = np.maximum.reduceat(arms, starts).tolist()

    return EmbeddingReport(
        host="grid2d",
        per_check_route_length=tuple(np.add.reduceat(arms, starts).tolist()),
        per_check_span=tuple(spans),
        max_check_span=max(spans, default=0),
        swap_count=2 * int(np.maximum(arms - 1, 0).sum()),
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
    neighbours: list[list[tuple[int, int]]] = [[] for _ in range(code.n_data)]
    for c_node, check in enumerate(code.checks, start=code.n_data):
        members = sorted(check.data)
        neighbours.append([(d, 1) for d in members])
        edge = (c_node, 1)
        for d in members:
            neighbours[d].append(edge)
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
        intra, remote = 0, set()
        for d in check.data:
            if assignment[d] == host:
                intra += 1
            else:
                remote.add(assignment[d])
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
    kind = string(doc, "kind", "$")
    if kind not in ("X", "Z"):
        raise SchemaError(f"must be X or Z, got {kind!r}", "$.kind")
    return Check(kind, frozenset(data))


def _coord(row: object) -> tuple[int, int]:
    fixed_array(row, 2, "[x, y]")
    return integer(row, 0, "$"), integer(row, 1, "$")


def parse_qec(doc: object) -> QecGraph:
    """Parse an ionfab-qec/1 document; rejects all that the schema rejects."""
    require_keys(doc, "$", {"schema", "family", "n_data", "checks"},
                 {"params", "rate", "coords"})
    require_schema(doc, QEC_SCHEMA_ID)
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
