"""The three-tier interaction graph of a modular machine.

Inside a chain the motional bus makes every qubit pair a neighbor (a
complete graph); proximity gates form a faster sub-tier; photonic links
between communication ions stitch chains together. The hop-distance
profile makes the hierarchy visible.
"""

from pathlib import Path

from ionfab import build_interaction_graph, graph_distance_profile, load_architecture
from ionfab.graph import Tier, to_dot

spec = load_architecture(Path(__file__).parents[1] / "docs" / "example.json")
graph = build_interaction_graph(spec)

print("=== edge census (2 chains x 20 ions, fast distance 4) ===")
for tier in (Tier.COLLECTIVE, Tier.FAST):
    edges = graph.tier_edges(tier)
    print(f"{tier.value:>12}: {len(edges):4d} edges, "
          f"gate time {edges[0].time_cost * 1e6:.1f} us")

print("\n=== hop distances before linking ===")
for tier in ("collective", "fast", "fast+photonic"):
    profile = graph_distance_profile(graph, tier)
    print(f"{tier:>15}: histogram {profile.histogram}, "
          f"{profile.unreachable_pairs} unreachable pairs")

print("\n=== one photonic link changes the topology ===")
linked = build_interaction_graph(spec, links=[(("A", 0), ("B", 0))])
profile = graph_distance_profile(linked, "fast+photonic")
print(f"fast+photonic: max distance {profile.max_distance}, "
      f"{profile.unreachable_pairs} unreachable pairs")

out = Path("interaction_graph.dot")
out.write_text(to_dot(graph, tier="fast"))
print(f"\nDOT export of the fast tier written to {out} in the current directory")
