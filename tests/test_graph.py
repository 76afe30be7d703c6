import dataclasses

import pytest

from ionfab.errors import DomainError
from ionfab.graph import (Role, Tier, build_interaction_graph,
                          graph_distance_profile, to_dot)
from ionfab.ising import boltzmann_topology, power_law_couplings


def single_elu_spec(built_spec, n_ions=20, d=4, comm=(0, 1, 18, 19)):
    elus = (dataclasses.replace(built_spec.elus[0], n_ions=n_ions,
                                comm_ion_indices=comm, fast_gate_distance=d),)
    return dataclasses.replace(built_spec, elus=elus)


class TestBuildInteractionGraph:
    def test_edge_counts_20_ions_distance_4(self, built_spec):
        g = build_interaction_graph(single_elu_spec(built_spec))
        # brute-force recount: all pairs, and pairs within 4 spacings
        pairs = [(i, j) for i in range(20) for j in range(i + 1, 20)]
        near = [p for p in pairs if p[1] - p[0] <= 4]
        assert len(pairs) == 190 and len(near) == 70
        assert len(g.tier_edges(Tier.COLLECTIVE)) == 190
        assert len(g.tier_edges(Tier.FAST)) == 70

    def test_two_ions_one_edge_per_tier(self, built_spec):
        g = build_interaction_graph(
            single_elu_spec(built_spec, n_ions=2, d=1, comm=(0,)))
        assert len(g.tier_edges(Tier.COLLECTIVE)) == 1
        assert len(g.tier_edges(Tier.FAST)) == 1

    def test_no_inter_elu_edges(self, example_spec):
        g = build_interaction_graph(example_spec)
        for e in g.edges:
            assert g.nodes[e.a].elu_id == g.nodes[e.b].elu_id
        assert not g.tier_edges(Tier.PHOTONIC)

    def test_fast_subset_of_collective(self, example_spec):
        g = build_interaction_graph(example_spec)
        collective = {frozenset((e.a, e.b)) for e in g.tier_edges(Tier.COLLECTIVE)}
        fast = {frozenset((e.a, e.b)) for e in g.tier_edges(Tier.FAST)}
        assert fast <= collective

    def test_collective_complete_per_elu(self, example_spec):
        g = build_interaction_graph(example_spec)
        collective = {frozenset((e.a, e.b)) for e in g.tier_edges(Tier.COLLECTIVE)}
        by_elu = {}
        for i, n in enumerate(g.nodes):
            by_elu.setdefault(n.elu_id, []).append(i)
        for members in by_elu.values():
            for x in range(len(members)):
                for y in range(x + 1, len(members)):
                    assert frozenset((members[x], members[y])) in collective

    def test_roles(self, example_spec):
        g = build_interaction_graph(example_spec)
        comm = [n for n in g.nodes if n.role is Role.COMMUNICATION]
        assert len(comm) == 8
        assert {n.position for n in comm} == {0, 1, 18, 19}

    def test_fast_edges_faster_than_collective(self, example_spec):
        g = build_interaction_graph(example_spec)
        slow = g.tier_edges(Tier.COLLECTIVE)[0].time_cost
        fast = g.tier_edges(Tier.FAST)[0].time_cost
        assert fast == slow / 5.0


class TestPhotonicLinks:
    def test_adds_edge_between_comm_ions(self, example_spec):
        g = build_interaction_graph(example_spec, links=[(("A", 0), ("B", 0))])
        photonic = g.tier_edges(Tier.PHOTONIC)
        assert len(photonic) == 1
        assert photonic[0].time_cost > 1.0 / 100.01  # expected pair wait dominates

    def test_rejects_memory_ion_endpoint(self, example_spec):
        with pytest.raises(DomainError, match="communication"):
            build_interaction_graph(example_spec, links=[(("A", 5), ("B", 0))])

    def test_rejects_same_elu(self, example_spec):
        with pytest.raises(DomainError, match="distinct"):
            build_interaction_graph(example_spec, links=[(("A", 0), ("A", 19))])

    @pytest.mark.parametrize("end", [("A", 99), ("C", 0)])
    def test_rejects_endpoint_outside_machine(self, example_spec, end):
        label = f"{end[0]}.{end[1]}"
        with pytest.raises(DomainError, match=f"endpoint {label} is not a qubit"):
            build_interaction_graph(example_spec, links=[(("B", 0), end)])

    def test_no_links_no_photonic_edges(self, example_spec):
        g = build_interaction_graph(example_spec)
        assert g.tier_edges(Tier.PHOTONIC) == []
        linked = build_interaction_graph(example_spec, links=[(("A", 0), ("B", 0))])
        assert linked.edges[:-1] == g.edges


class TestDistanceProfile:
    def test_collective_all_distance_one(self, built_spec):
        g = build_interaction_graph(single_elu_spec(built_spec))
        profile = graph_distance_profile(g, "collective")
        assert profile.histogram == {1: 190}
        assert profile.unreachable_pairs == 0

    def test_fast_tier_max_distance(self, built_spec):
        g = build_interaction_graph(single_elu_spec(built_spec))
        profile = graph_distance_profile(g, "fast")
        # chain hop bound: ceil(19 / 4) = 5
        assert profile.max_distance == 5
        assert sum(profile.histogram.values()) == 190

    def test_unlinked_elus_unreachable(self, example_spec):
        g = build_interaction_graph(example_spec)
        profile = graph_distance_profile(g, "fast+photonic")
        assert profile.unreachable_pairs == 20 * 20

    def test_photonic_bridges_elus(self, example_spec):
        g = build_interaction_graph(example_spec, links=[(("A", 0), ("B", 0))])
        profile = graph_distance_profile(g, "fast+photonic")
        assert profile.unreachable_pairs == 0

    def test_unknown_tier(self, example_spec):
        g = build_interaction_graph(example_spec)
        with pytest.raises(DomainError):
            graph_distance_profile(g, "warp")


class TestDotExport:
    def test_contains_nodes_and_tiers(self, built_spec):
        g = build_interaction_graph(single_elu_spec(built_spec, n_ions=3, d=1,
                                                    comm=(0,)))
        dot = to_dot(g)
        assert dot.startswith("graph ionfab {")
        assert '"A.0" [role=communication];' in dot
        assert "tier=fast" in dot and "tier=collective" in dot

    def test_tier_filter(self, built_spec):
        g = build_interaction_graph(single_elu_spec(built_spec, n_ions=3, d=1,
                                                    comm=(0,)))
        dot = to_dot(g, tier="fast")
        assert "tier=collective" not in dot


class TestPowerLawCouplings:
    def test_alpha_zero_infinite_range(self):
        inst = power_law_couplings(5, 0.0, 2.5)
        assert all(v == 2.5 for v in inst.couplings.values())
        assert len(inst.couplings) == 10

    def test_alpha_three_dipole(self):
        inst = power_law_couplings(3, 3.0, 1.0)
        assert inst.couplings[(0, 2)] == 1.0 / 8.0

    def test_alpha_one_matches_loop_oracle(self):
        inst = power_law_couplings(4, 1.0, 1.0)
        expected = {}
        for i in range(4):
            for j in range(4):
                if i < j:
                    expected[(i, j)] = 1.0 / (j - i)
        assert inst.couplings == expected

    def test_alpha_out_of_range(self):
        with pytest.raises(DomainError, match="alpha"):
            power_law_couplings(4, 3.5, 1.0)

    def test_override_flag(self):
        inst = power_law_couplings(4, 6.0, 1.0, allow_any_alpha=True)
        assert inst.couplings[(0, 2)] == 1.0 / 64.0

    def test_monotone_in_alpha(self):
        alphas = [0.0, 0.5, 1.0, 2.0, 3.0]
        instances = [power_law_couplings(6, a, 1.0) for a in alphas]
        for lo, hi in zip(instances, instances[1:]):
            for key in lo.couplings:
                assert lo.couplings[key] >= hi.couplings[key]

    def test_zero_local_fields(self):
        assert power_law_couplings(4, 1.0, 1.0).local_fields == {}


class TestBoltzmannTopology:
    def test_reduced_two_layer(self):
        inst = boltzmann_topology([2, 3])
        assert len(inst.support_edges()) == 6

    def test_full_machine(self):
        inst = boltzmann_topology([2, 3], full=True)
        assert len(inst.support_edges()) == 10

    def test_deep_reduced_counted_by_oracle(self):
        inst = boltzmann_topology([4, 4, 2])
        # adjacent-layer block sizes: 4*4 + 4*2
        assert len(inst.support_edges()) == 24

    def test_field_support_everywhere(self):
        inst = boltzmann_topology([3, 2])
        assert set(inst.local_fields) == set(range(5))

    def test_reduced_is_bipartite_per_block(self):
        layers = [3, 4, 2]
        inst = boltzmann_topology(layers)
        # explicit 2-coloring by layer parity certifies bipartiteness of
        # every adjacent-layer block
        color = {}
        start = 0
        for li, size in enumerate(layers):
            for q in range(start, start + size):
                color[q] = li % 2
            start += size
        for (i, j) in inst.support_edges():
            assert color[i] != color[j]

    def test_couplings_start_at_zero(self):
        inst = boltzmann_topology([2, 2], full=True)
        assert all(v == 0.0 for v in inst.couplings.values())

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            boltzmann_topology([])
        with pytest.raises(DomainError):
            boltzmann_topology([3, 0])
