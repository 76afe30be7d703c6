import dataclasses
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ionfab.qec
from ionfab.errors import CapacityError, DomainError, SchemaError
from ionfab.qec import (Check, QecGraph, embed_on_grid, embed_on_modular,
                        gf2_rank, hypergraph_product_graph, parse_qec,
                        qec_to_doc, repetition_check_matrix,
                        steane_concat_graph, surface_code_graph,
                        swaps_for_distance)


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
