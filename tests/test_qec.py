import dataclasses
import hashlib
import itertools
import json
import math
import random
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ionfab.qec
from ionfab.errors import CapacityError, DomainError, SchemaError
from ionfab.graph import deal_round_robin, greedy_cut
from ionfab.qec import (MAX_DOC_DATA, Check, EmbeddingReport, QecGraph,
                        embed_on_grid, embed_on_modular, gf2_rank,
                        hypergraph_product_graph, parse_qec, qec_to_doc,
                        repetition_check_matrix, steane_concat_graph,
                        surface_code_graph, swaps_for_distance)


def reference_gf2_rank(m):
    """Independent elimination over GF(2) using numpy row ops."""
    a = np.array(m, dtype=np.uint8) % 2
    rank = 0
    rows, cols = a.shape
    for c in range(cols):
        pivot = None
        for r in range(rank, rows):
            if a[r, c]:
                pivot = r
                break
        if pivot is None:
            continue
        a[[rank, pivot]] = a[[pivot, rank]]
        for r in range(rows):
            if r != rank and a[r, c]:
                a[r] ^= a[rank]
        rank += 1
    return rank


def check_matrices(code):
    hx = np.zeros((sum(1 for c in code.checks if c.kind == "X"), code.n_data),
                  dtype=np.uint8)
    hz = np.zeros((sum(1 for c in code.checks if c.kind == "Z"), code.n_data),
                  dtype=np.uint8)
    xi = zi = 0
    for c in code.checks:
        if c.kind == "X":
            hx[xi, sorted(c.data)] = 1
            xi += 1
        else:
            hz[zi, sorted(c.data)] = 1
            zi += 1
    return hx, hz


def all_pairs_commute(code):
    """The definition the sparse parity walk must agree with."""
    xs = [c.data for c in code.checks if c.kind == "X"]
    zs = [c.data for c in code.checks if c.kind == "Z"]
    return all(len(x & z) % 2 == 0 for x in xs for z in zs)


@st.composite
def check_matrices_without_zero_lines(draw):
    """A 0/1 matrix up to 7 x 7 with a one in every row and every column."""
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    bits = draw(st.lists(st.lists(st.integers(0, 1), min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    m = np.array(bits, dtype=np.uint8)
    for r in np.flatnonzero(~m.any(axis=1)):
        m[r, draw(st.integers(0, cols - 1))] = 1
    for c in np.flatnonzero(~m.any(axis=0)):
        m[draw(st.integers(0, rows - 1)), c] = 1
    return m


@st.composite
def css_graphs(draw):
    """A QecGraph of up to 8 random X and Z checks on up to 6 data nodes."""
    n = draw(st.integers(1, 6))
    checks = draw(st.lists(st.builds(
        Check, st.sampled_from("XZ"),
        st.frozensets(st.integers(0, n - 1), min_size=1)), max_size=8))
    return QecGraph(n_data=n, checks=tuple(checks), family="random")


@st.composite
def check_matrices_with_zero_lines(draw, max_rows=7, max_cols=7):
    """Any 0/1 matrix up to max_rows x max_cols: zero rows, zero columns,
    even all zeros."""
    rows, cols = draw(st.integers(1, max_rows)), draw(st.integers(1, max_cols))
    bits = draw(st.lists(st.lists(st.integers(0, 1), min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    return np.array(bits, dtype=np.uint8)


def reference_hypergraph_product_fields(h1, h2):
    """The dense construction's QecGraph fields: hx and hz as Kronecker
    blocks, one row per check."""
    h1 = ionfab.qec._as_binary_matrix(h1, "h1")
    h2 = ionfab.qec._as_binary_matrix(h2, "h2")
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
    return dict(n_data=n_data, checks=tuple(checks), family="hypergraph_product",
                params={"m1": m1, "n1": n1, "m2": m2, "n2": n2, "k": k},
                rate=k / n_data, data_coords=None, check_coords=None)


def reference_hypergraph_product(h1, h2):
    """The dense construction, through QecGraph's checks and the CSS walk."""
    graph = QecGraph(**reference_hypergraph_product_fields(h1, h2))
    if not graph.css_commutation_ok():
        raise DomainError("hypergraph product produced non-commuting checks")
    return graph


def graph_or_error(build, *args):
    try:
        return build(*args)
    except DomainError as exc:
        return f"DomainError: {exc}"


def reference_embed_on_grid(code, placement="row_major", seed=None):
    """The per-arm loop: each check's arms summed, maxed and swapped in Python."""
    side = math.isqrt(code.n_nodes)
    if side * side < code.n_nodes:
        side += 1
    cells = ionfab.qec._grid_cells(code, placement, side, seed)
    if placement == "native":
        side = max(max(x, y) for x, y in cells) + 1
    if len(set(cells)) != len(cells):
        raise DomainError("placement assigned two nodes to one cell")
    if any(not (0 <= x < side and 0 <= y < side) for x, y in cells):
        raise CapacityError(f"placement overflows the {side}x{side} grid")
    data_cells = cells[: code.n_data]
    routes, spans, swaps = [], [], 0
    for check, cell in zip(code.checks, cells[code.n_data:]):
        arms = [abs(cell[0] - data_cells[d][0]) + abs(cell[1] - data_cells[d][1])
                for d in sorted(check.data)]
        routes.append(sum(arms))
        spans.append(max(arms))
        swaps += sum(swaps_for_distance(a) for a in arms)
    return EmbeddingReport(
        host="grid2d", per_check_route_length=tuple(routes),
        per_check_span=tuple(spans), max_check_span=max(spans) if spans else 0,
        swap_count=swaps, pairs_per_round=0, grid_side=side,
        assignment=tuple(cells))


def reference_embed_on_modular(code, spec, partition="greedy_cut"):
    """Per-node neighbour appends, breadth-first order and a per-check loop."""
    capacities = {e.id: e.n_ions for e in spec.elus}
    if partition == "round_robin":
        assignment = deal_round_robin(code.n_nodes, capacities)
    else:
        neighbours = [[] for _ in range(code.n_nodes)]
        for ci, check in enumerate(code.checks):
            c_node = code.n_data + ci
            for d in sorted(check.data):
                neighbours[c_node].append((d, 1))
                neighbours[d].append((c_node, 1))
        order, seen = [], [False] * code.n_nodes
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
        assignment = greedy_cut(order, neighbours, capacities)
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
        host="modular", per_check_route_length=tuple(routes),
        per_check_span=tuple(spans), max_check_span=max(spans) if spans else 0,
        swap_count=0, pairs_per_round=sum(remote_counts),
        assignment=tuple(assignment), per_check_remote_elus=tuple(remote_counts))


def assert_plain_ints(rep):
    """Every count in a report is a Python int, which render_json can write."""
    scalars = [rep.max_check_span, rep.swap_count, rep.pairs_per_round,
               *rep.per_check_route_length, *rep.per_check_span,
               *rep.per_check_remote_elus]
    if rep.host == "grid2d":
        scalars += [rep.grid_side, *itertools.chain.from_iterable(rep.assignment)]
    assert all(type(x) is int for x in scalars)


def machine_of(spec, n_elus):
    """``n_elus`` copies of the machine's first ELU."""
    return dataclasses.replace(spec, elus=tuple(
        dataclasses.replace(spec.elus[0], id=f"E{k:02d}") for k in range(n_elus)))


def rep_square(r):
    """The hypergraph product of the [r, 1] repetition code with itself."""
    h = repetition_check_matrix(r)
    return hypergraph_product_graph(h, h)


# The three families at the sizes the qec-codes benchmark builds, plus smaller.
ORACLE_CODES = {
    **{f"surface{d}": (surface_code_graph, d) for d in (3, 9, 15, 21)},
    **{f"steane{n}": (steane_concat_graph, n) for n in (1, 2, 3)},
    **{f"hgp_rep{r}": (rep_square, r) for r in (3, 8, 11, 13, 15, 17)},
}


def segments_cross(p1, p2, p3, p4):
    """Proper intersection of open segments p1-p2 and p3-p4."""
    def orient(a, b, c):
        v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        return (v > 0) - (v < 0)

    if len({p1, p2, p3, p4}) < 4:
        return False  # shared endpoints do not count as crossings
    return (orient(p1, p2, p3) != orient(p1, p2, p4)
            and orient(p3, p4, p1) != orient(p3, p4, p2)
            and orient(p1, p2, p3) != 0 and orient(p3, p4, p1) != 0)


class TestSurfaceCode:
    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_node_counts(self, d):
        g = surface_code_graph(d)
        assert g.n_data == d * d
        assert g.n_checks == d * d - 1

    def test_d3_check_weights_by_boundary_enumeration(self):
        g = surface_code_graph(3)
        weights = sorted(c.weight for c in g.checks)
        # (d-1)^2 interior weight-4 plaquettes, 2(d-1) boundary weight-2
        assert weights == [2, 2, 2, 2, 4, 4, 4, 4]

    @pytest.mark.parametrize("d", [3, 5])
    def test_weights_at_most_four(self, d):
        g = surface_code_graph(d)
        assert all(c.weight in (2, 4) for c in g.checks)

    @pytest.mark.parametrize("d", [3, 5])
    def test_planarity_certificate(self, d):
        g = surface_code_graph(d)
        coords = list(g.data_coords) + list(g.check_coords)
        assert len(set(coords)) == len(coords)
        edges = []
        for ci, check in enumerate(g.checks):
            for dq in check.data:
                edges.append((g.check_coords[ci], g.data_coords[dq]))
        for e1, e2 in itertools.combinations(edges, 2):
            assert not segments_cross(e1[0], e1[1], e2[0], e2[1])

    def test_alternating_kinds_present(self):
        g = surface_code_graph(3)
        kinds = [c.kind for c in g.checks]
        assert kinds.count("X") == 4 and kinds.count("Z") == 4

    def test_css_commutation(self):
        assert surface_code_graph(5).css_commutation_ok()

    def test_rate_metadata(self):
        assert surface_code_graph(3).rate == pytest.approx(1 / 9)

    @pytest.mark.parametrize("d", [2, 1, 4])
    def test_rejects_bad_distance(self, d):
        with pytest.raises(DomainError):
            surface_code_graph(d)


class TestSteane:
    def test_level_one_parameters(self):
        g = steane_concat_graph(1)
        assert g.n_data == 7 and g.n_checks == 6
        assert all(c.weight == 4 for c in g.checks)

    def test_level_one_is_7_1_3(self):
        g = steane_concat_graph(1)
        hx, hz = check_matrices(g)
        k = g.n_data - reference_gf2_rank(hx) - reference_gf2_rank(hz)
        assert k == 1
        # distance: lightest X logical = lightest v in ker(Hz) \ rowspace(Hx)
        row_space = set()
        for bits in itertools.product((0, 1), repeat=hx.shape[0]):
            v = np.zeros(7, dtype=np.uint8)
            for i, b in enumerate(bits):
                if b:
                    v ^= hx[i]
            row_space.add(tuple(v))
        best = 7
        for bits in itertools.product((0, 1), repeat=7):
            v = np.array(bits, dtype=np.uint8)
            if v.any() and not (hz @ v % 2).any() and tuple(v) not in row_space:
                best = min(best, int(v.sum()))
        assert best == 3

    def test_level_two_counts(self):
        g = steane_concat_graph(2)
        assert g.n_data == 49
        assert g.n_checks == 48
        assert max(c.weight for c in g.checks) == 28

    def test_level_three_counts(self):
        g = steane_concat_graph(3)
        assert g.n_data == 343
        assert max(c.weight for c in g.checks) == 4 * 49

    def test_css_commutation(self):
        assert steane_concat_graph(2).css_commutation_ok()

    def test_rejects_level_zero(self):
        with pytest.raises(DomainError):
            steane_concat_graph(0)


class TestHypergraphProduct:
    def test_repetition_3_counts(self):
        g = hypergraph_product_graph(repetition_check_matrix(3),
                                     repetition_check_matrix(3))
        assert g.n_data == 13
        assert g.n_checks == 12
        assert g.params["k"] == 1

    def test_even_overlaps_exhaustive(self):
        g = hypergraph_product_graph(repetition_check_matrix(3),
                                     repetition_check_matrix(3))
        xs = [c.data for c in g.checks if c.kind == "X"]
        zs = [c.data for c in g.checks if c.kind == "Z"]
        assert len(xs) == 6 and len(zs) == 6
        for x in xs:
            for z in zs:
                assert len(x & z) % 2 == 0

    def test_single_bit_check(self):
        g = hypergraph_product_graph([[1]], [[1]])
        assert g.n_data == 2
        assert g.n_checks == 2

    @pytest.mark.parametrize("seed", range(5))
    def test_fixed_weight_bound_on_circulants(self, seed):
        # circulant matrices have equal row and column weight w, so every
        # product check has weight at most 2w regardless of size
        rng = random.Random(seed)
        size = rng.choice([5, 6, 7])
        w = 3
        first = [0] * size
        for i in rng.sample(range(size), w):
            first[i] = 1
        h = np.array([np.roll(first, s) for s in range(size)], dtype=np.uint8)
        g = hypergraph_product_graph(h, h)
        assert max(c.weight for c in g.checks) <= 2 * w
        assert g.css_commutation_ok()

    def test_gf2_rank_matches_reference(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            m = rng.integers(0, 2, size=(5, 8), dtype=np.uint8)
            if not m.any():
                continue
            assert gf2_rank(m) == reference_gf2_rank(m)

    @settings(max_examples=150)
    @given(check_matrices_without_zero_lines(), check_matrices_without_zero_lines())
    def test_dimension_formula_matches_full_ranks(self, h1, h2):
        g = hypergraph_product_graph(h1, h2)
        hx, hz = check_matrices(g)
        assert g.params["k"] == (g.n_data - reference_gf2_rank(hx)
                                 - reference_gf2_rank(hz))
        assert g.css_commutation_ok() == all_pairs_commute(g)

    def test_ranks_only_the_input_matrices(self, monkeypatch):
        # k comes from the ranks of H1 and H2; ranking hx or hz again would
        # show up here as a (m1*n2) x n_data or (n1*m2) x n_data shape
        shapes, rank = [], ionfab.qec.gf2_rank

        def recording_rank(m):
            shapes.append(np.shape(m))
            return rank(m)

        monkeypatch.setattr(ionfab.qec, "gf2_rank", recording_rank)
        rep5 = repetition_check_matrix(5)
        assert hypergraph_product_graph(rep5, rep5).params["k"] == 1
        assert shapes == [(4, 5), (4, 5)]

    @settings(max_examples=300)
    @given(check_matrices_with_zero_lines(), check_matrices_with_zero_lines())
    @example(np.array([[1, 0], [0, 0]]), np.array([[1, 0]]))  # X check (1, 1) is empty
    def test_matches_dense_reference(self, h1, h2):
        assert (graph_or_error(hypergraph_product_graph, h1, h2)
                == graph_or_error(reference_hypergraph_product, h1, h2))

    def test_empty_check_is_refused(self):
        # row 1 of H1 and column 1 of H2 are zero, so X check (1, 1) is empty
        with pytest.raises(DomainError,
                           match="^every check must touch at least one data node$"):
            hypergraph_product_graph([[1, 0], [0, 0]], [[1, 0]])

    @pytest.mark.parametrize("r", [8, 11, 13, 15, 17])
    def test_repetition_squares_match_dense_reference(self, r):
        h = repetition_check_matrix(r)
        assert hypergraph_product_graph(h, h) == reference_hypergraph_product(h, h)

    def test_peak_memory_is_a_small_multiple_of_the_code(self):
        # rep(60)^2 has 7,081 data nodes; dense hx and hz alone would be 50 MB
        h = repetition_check_matrix(60)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            graph = hypergraph_product_graph(h, h)
            retained, peak = (m - before for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert graph.n_data == 60 * 60 + 59 * 59
        assert peak <= 2 * retained

    def test_rejects_zero_matrix(self):
        with pytest.raises(DomainError, match="nonzero"):
            hypergraph_product_graph(np.zeros((2, 3), dtype=int),
                                     repetition_check_matrix(3))

    def test_rejects_non_binary(self):
        with pytest.raises(DomainError, match="0/1"):
            hypergraph_product_graph([[2, 0], [0, 1]], [[1]])

    def test_rejects_ragged(self):
        with pytest.raises(DomainError):
            hypergraph_product_graph([[1, 0], [1]], [[1]])


# sha256 of each generator's sorted-key code document. Counts, weights and
# planarity leave check order and coordinates free, but partitions.json and
# the qec-codes bench digest depend on both.
PINNED_CODE_DOCS = {
    ("surface", 3): "89df9179e1bfac2b495d41ee39dbae36b603317ead31f86ab156d2267d4a4734",
    ("surface", 5): "02bd7ea9675f13c02bac993a781acedd2a57a7d190db5841c1689ae22300ec77",
    ("surface", 9): "b5fcf0344293b8457a413d508735838232151305a99698ca3afeb92fbf28175c",
    ("surface", 15): "06c00973c879e4f6db08590640d9a7bd5719ee0be392ec6a3a30bfbefa82fa84",
    ("surface", 21): "c691f4cb2942ae768a7dc1b090e605e70c7aed9823a7622062e4e169f9c2454c",
    ("steane", 1): "7a0e3624b34fef7ebd97a2d3f08596fad4a5306e19906d00a88389f6034ef503",
    ("steane", 2): "07dfad478a5986747c65aa6e7b222a9e81cd8bd12fc2cf4e7e60e16232c59e97",
    ("steane", 3): "28fb56e37f6da103547320fd5e605e633e44897997ebc73f98e21461a5623364",
    # rep(r1) x rep(r2): the squares the qec-codes benchmark builds and one
    # non-square product, whose sectors have unequal shapes
    ("hgp", (3, 3)): "8186da2ff38e1c0b3773bb12f9f61058535f9e37da5e87cddd9be8f26627adb1",
    ("hgp", (8, 8)): "b77b662e6e54046168f47a574426b1d9fa0a6aa61a573b562120fe1985bc3058",
    ("hgp", (17, 17)): "521f6ecaa64c5ecbfb2e7a562ab927eadf1523ee75990ea47d5fcf264bc220ca",
    ("hgp", (3, 5)): "651862726b766ab8c65efe7fcf07dde0b2f81be740fd44d40e7d31b3a4729f8a",
}


def rep_product(rs):
    """The hypergraph product of the [r1, 1] and [r2, 1] repetition codes."""
    return hypergraph_product_graph(*map(repetition_check_matrix, rs))


def pinned_id(family, arg):
    return f"{family}{arg}" if type(arg) is int else f"{family}{arg[0]}x{arg[1]}"


@pytest.mark.parametrize("family, arg", sorted(PINNED_CODE_DOCS),
                         ids=[pinned_id(f, a) for f, a in sorted(PINNED_CODE_DOCS)])
def test_generator_output_is_pinned(family, arg):
    build = {"surface": surface_code_graph, "steane": steane_concat_graph,
             "hgp": rep_product}[family]
    doc = json.dumps(qec_to_doc(build(arg)), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == PINNED_CODE_DOCS[family, arg]


class TestGeneratorDataCap:
    """Each generator refuses, before building, a code the reader would refuse."""

    @pytest.mark.parametrize("build, arg, n_data", [
        (surface_code_graph, 315, 99_225),
        (steane_concat_graph, 5, 16_807),
        (rep_square, 224, 99_905),
    ], ids=["surface315", "steane5", "hgp_rep224"])
    def test_largest_code_under_the_cap_builds(self, build, arg, n_data):
        code = build(arg)
        assert code.n_data == n_data <= MAX_DOC_DATA
        assert parse_qec(qec_to_doc(code)).n_data == n_data

    @pytest.mark.parametrize("build, arg, message", [
        (surface_code_graph, 317,
         "surface code of distance 317 has 100489 data nodes"),
        (steane_concat_graph, 6, "Steane code of 6 levels has 7^6 data nodes"),
        (steane_concat_graph, 10**9,
         "Steane code of 1000000000 levels has 7^1000000000 data nodes"),
        (rep_square, 225,
         "hypergraph product of 224x225 and 224x225 check matrices has 100801 "
         "data nodes"),
    ], ids=["surface317", "steane6", "steane_huge", "hgp_rep225"])
    def test_first_code_over_the_cap_is_refused(self, build, arg, message):
        with pytest.raises(DomainError) as exc:
            build(arg)
        assert str(exc.value) == f"{message}, over the cap of 100000"


def revalidated(code):
    """``code`` rebuilt from all of its fields through ``QecGraph(...)``'s checks."""
    rebuilt = QecGraph(**vars(code))
    assert vars(rebuilt).keys() == vars(code).keys()
    return rebuilt


class TestGeneratorsBuildOnlyValidCodes:
    """The generators skip ``QecGraph``'s checks; each code must pass them."""

    @pytest.mark.parametrize("build, arg", [
        *[(surface_code_graph, d) for d in (3, 5, 9)],
        *[(steane_concat_graph, n) for n in (1, 2, 3)],
    ], ids=["surface3", "surface5", "surface9", "steane1", "steane2", "steane3"])
    def test_named_families(self, build, arg):
        code = build(arg)
        assert revalidated(code) == code

    @settings(max_examples=300)
    @given(check_matrices_with_zero_lines(4, 5), check_matrices_with_zero_lines(4, 5))
    @example(np.array([[1, 0], [0, 0]]), np.array([[1, 0]]))  # X check (1, 1) is empty
    @example(np.array([[1, 0]]), np.array([[1, 0], [0, 0]]))  # Z check (1, 1) is empty
    def test_hypergraph_products(self, h1, h2):
        # the dense construction's fields pass QecGraph's checks exactly when
        # the generator builds, and then give the generator's code
        built = graph_or_error(hypergraph_product_graph, h1, h2)
        checked = graph_or_error(
            lambda: QecGraph(**reference_hypergraph_product_fields(h1, h2)))
        assert built == checked
        if isinstance(built, QecGraph):
            assert revalidated(built) == built

    @given(st.sampled_from("XZ"), st.frozensets(st.integers(0, 50)))
    def test_check_is_its_kind_and_data(self, kind, data):
        # the hash of the frozen dataclass it replaced, so sets and dicts
        # keyed by checks are unchanged
        check = Check(kind, data)
        assert check == (kind, data) and check.weight == len(data)
        assert hash(check) == hash((kind, data))


class TestCssCommutationGuard:
    """The parity walk flags an odd X/Z overlap and passes even ones."""

    @pytest.mark.parametrize("checks, ok", [
        ([Check("X", frozenset({0, 1})), Check("Z", frozenset({1, 2}))], False),
        ([Check("Z", frozenset({0, 1})), Check("X", frozenset({0, 1})),
          Check("X", frozenset({0, 1, 2, 3})), Check("Z", frozenset({0, 1, 2}))],
         False),
        ([Check("X", frozenset({0, 1})), Check("X", frozenset({1, 2, 3}))], True),
        ([Check("X", frozenset({0, 1, 2})), Check("Z", frozenset({1, 2, 3}))], True),
    ], ids=["one_node_overlap", "three_node_overlap", "x_only", "two_node_overlap"])
    def test_hand_built_graphs(self, checks, ok):
        code = QecGraph(n_data=4, checks=tuple(checks), family="hand")
        assert code.css_commutation_ok() is ok
        assert all_pairs_commute(code) is ok

    @settings(max_examples=300)
    @given(css_graphs())
    def test_walk_matches_all_pairs(self, code):
        assert code.css_commutation_ok() == all_pairs_commute(code)


class TestGridEmbedding:
    def test_surface_native_zero_swaps(self):
        for d in (3, 5):
            g = surface_code_graph(d)
            rep = embed_on_grid(g, "native")
            assert rep.swap_count == 0
            assert rep.max_check_span == 1
            # route length equals check weight when every arm is adjacent
            assert rep.per_check_route_length == tuple(c.weight for c in g.checks)

    def test_corner_to_corner_manhattan_arithmetic(self):
        # one check in the last cell of a 10x10 row-major grid querying the
        # opposite corner: arm length 18, swaps 2*17
        code = QecGraph(n_data=99, checks=(Check("X", frozenset({0})),),
                        family="custom")
        rep = embed_on_grid(code, "row_major")
        assert rep.grid_side == 10
        assert rep.per_check_route_length == (18,)
        assert rep.max_check_span == 18
        assert rep.swap_count == 2 * 17

    def test_swaps_for_distance_convention(self):
        assert swaps_for_distance(1) == 0
        assert swaps_for_distance(18) == 34
        assert swaps_for_distance(0) == 0

    def test_per_arm_swaps_bounded_by_twice_span(self):
        g = surface_code_graph(3)
        rep = embed_on_grid(g, "row_major")
        for ci, check in enumerate(g.checks):
            cell = rep.assignment[g.n_data + ci]
            for dq in check.data:
                dc = rep.assignment[dq]
                dist = abs(cell[0] - dc[0]) + abs(cell[1] - dc[1])
                assert swaps_for_distance(dist) <= 2 * dist

    def test_random_placement_reproducible_and_nonnegative(self):
        g = surface_code_graph(3)
        a = embed_on_grid(g, "random", seed=5)
        b = embed_on_grid(g, "random", seed=5)
        assert a == b
        for seed in range(10_000):
            rep = embed_on_grid(g, "random", seed=seed)
            assert rep.swap_count >= 0

    @pytest.mark.parametrize("name", sorted(ORACLE_CODES))
    def test_matches_per_arm_reference(self, name):
        build, size = ORACLE_CODES[name]
        code = build(size)
        placements = [("row_major", None), ("random", 7), ("random", 12345)]
        if code.data_coords is not None:
            placements.append(("native", None))
        for placement, seed in placements:
            rep = embed_on_grid(code, placement, seed)
            assert rep == reference_embed_on_grid(code, placement, seed)
            assert_plain_ints(rep)

    @settings(max_examples=200)
    @given(css_graphs(), st.sampled_from(["row_major", "random"]),
           st.integers(0, 2**31))
    def test_random_graphs_match_per_arm_reference(self, code, placement, seed):
        rep = embed_on_grid(code, placement, seed)
        assert rep == reference_embed_on_grid(code, placement, seed)
        assert_plain_ints(rep)

    @pytest.mark.parametrize("placement, seed", [("row_major", None), ("random", 3)])
    def test_no_checks(self, placement, seed):
        code = QecGraph(n_data=5, checks=(), family="empty")
        rep = embed_on_grid(code, placement, seed)
        assert rep == reference_embed_on_grid(code, placement, seed)
        assert (rep.per_check_route_length, rep.per_check_span) == ((), ())
        assert (rep.max_check_span, rep.swap_count) == (0, 0)
        assert_plain_ints(rep)

    def test_too_wide_grid_is_refused(self):
        # a native coordinate near 2^62 could wrap a 64-bit arm sum
        code = QecGraph(n_data=2, checks=(Check("X", frozenset({0, 1})),),
                        family="custom", data_coords=((0, 0), (2**62, 0)),
                        check_coords=((1, 0),))
        with pytest.raises(CapacityError, match="too wide to cost exactly"):
            embed_on_grid(code, "native")

    def test_random_requires_seed(self):
        with pytest.raises(DomainError, match="seed"):
            embed_on_grid(surface_code_graph(3), "random")

    def test_unknown_placement(self):
        with pytest.raises(DomainError, match="^unknown placement 'spiral'$"):
            embed_on_grid(surface_code_graph(3), "spiral")

    def test_native_requires_coords(self):
        g = steane_concat_graph(1)
        with pytest.raises(DomainError, match="coordinates"):
            embed_on_grid(g, "native")


class TestModularEmbedding:
    def test_fits_one_elu(self, built_spec):
        big = dataclasses.replace(
            built_spec,
            elus=(dataclasses.replace(built_spec.elus[0], n_ions=20),))
        code = surface_code_graph(3)
        rep = embed_on_modular(code, big, "greedy_cut")
        assert rep.pairs_per_round == 0
        assert all(r == c.weight for r, c in
                   zip(rep.per_check_route_length, code.checks))
        assert all(n == 0 for n in rep.per_check_remote_elus)
        assert all(s == 1 for s in rep.per_check_span)

    def test_split_check_consumes_one_pair(self, built_spec):
        # weight-4 check split 2/2 with the ancilla local to one side
        code = QecGraph(n_data=4, checks=(Check("Z", frozenset({0, 1, 2, 3})),),
                        family="custom")
        # round robin on two ELUs: data 0-3 on A, B, A, B and the check on A
        rep = embed_on_modular(code, built_spec, "round_robin")
        assert rep.assignment == ("A", "B", "A", "B", "A")
        assert rep.pairs_per_round == 1
        assert rep.per_check_remote_elus == (1,)
        assert rep.per_check_route_length == (2,)  # two local arms

    def test_greedy_beats_round_robin_on_surface_d3(self, built_spec):
        code = surface_code_graph(3)
        greedy = embed_on_modular(code, built_spec, "greedy_cut")
        rr = embed_on_modular(code, built_spec, "round_robin")
        assert greedy.pairs_per_round <= rr.pairs_per_round

    def test_relabeling_invariance(self, built_spec):
        code = surface_code_graph(3)
        renamed = dataclasses.replace(
            built_spec,
            elus=tuple(dataclasses.replace(e, id=e.id + "x")
                       for e in built_spec.elus))
        a = embed_on_modular(code, built_spec, "round_robin")
        b = embed_on_modular(code, renamed, "round_robin")
        assert a.pairs_per_round == b.pairs_per_round
        assert a.per_check_route_length == b.per_check_route_length

    @pytest.mark.parametrize("name", sorted(ORACLE_CODES))
    def test_matches_per_check_reference(self, built_spec, name):
        build, size = ORACLE_CODES[name]
        code = build(size)
        n_ions = built_spec.elus[0].n_ions
        machine = machine_of(built_spec, -(-code.n_nodes // n_ions))
        for partition in ("greedy_cut", "round_robin"):
            rep = embed_on_modular(code, machine, partition)
            assert rep == reference_embed_on_modular(code, machine, partition)
            assert_plain_ints(rep)

    @settings(max_examples=200)
    @given(css_graphs(), st.sampled_from(["greedy_cut", "round_robin"]))
    def test_random_graphs_match_per_check_reference(self, built_spec, code,
                                                     partition):
        rep = embed_on_modular(code, built_spec, partition)
        assert rep == reference_embed_on_modular(code, built_spec, partition)
        assert_plain_ints(rep)

    def test_no_checks(self, built_spec):
        code = QecGraph(n_data=5, checks=(), family="empty")
        for partition in ("greedy_cut", "round_robin"):
            rep = embed_on_modular(code, built_spec, partition)
            assert rep == reference_embed_on_modular(code, built_spec, partition)
            assert (rep.per_check_route_length, rep.pairs_per_round) == ((), 0)

    def test_unknown_partition(self, built_spec):
        with pytest.raises(DomainError, match="^unknown partition strategy 'spectral'$"):
            embed_on_modular(surface_code_graph(3), built_spec, "spectral")

    def test_capacity_guard(self, built_spec):
        code = surface_code_graph(5)  # 49 nodes > 40 ions
        with pytest.raises(CapacityError, match="49 nodes exceed 40 ELU slots"):
            embed_on_modular(code, built_spec)


class TestQecIO:
    def test_round_trip_with_coords(self):
        g = surface_code_graph(3)
        loaded = parse_qec(qec_to_doc(g))
        assert loaded.n_data == g.n_data
        assert loaded.checks == g.checks
        assert loaded.data_coords == g.data_coords

    def test_round_trip_without_coords(self):
        g = steane_concat_graph(1)
        loaded = parse_qec(qec_to_doc(g))
        assert loaded.checks == g.checks
        assert loaded.data_coords is None

    @pytest.mark.parametrize("change", [
        {"family": None}, {"n_data": 0}, {"params": []}, {"rate": "1"},
        {"checks": [{"kind": "X", "data": []}]},
        {"checks": [{"kind": "X", "data": [-1]}]},
        {"coords": {"data": [[0, 0, 0]], "checks": []}},
    ])
    def test_rejects_what_the_schema_rejects(self, change):
        doc = {"schema": "ionfab-qec/1", "family": "f", "n_data": 1,
               "checks": [{"kind": "X", "data": [0]}]}
        doc.update(change)
        doc = {k: v for k, v in doc.items() if v is not None}
        with pytest.raises(SchemaError):
            parse_qec(doc)

    def test_coords_must_cover_every_node(self):
        doc = qec_to_doc(surface_code_graph(3))
        doc["coords"]["data"].pop()
        with pytest.raises(DomainError, match="one cell per data node"):
            parse_qec(doc)

    @pytest.mark.parametrize("given", ["data_coords", "check_coords"])
    def test_coords_come_in_pairs(self, given):
        g = surface_code_graph(3)
        with pytest.raises(DomainError, match="must be given together"):
            QecGraph(n_data=g.n_data, checks=g.checks, family=g.family,
                     **{given: getattr(g, given)})
