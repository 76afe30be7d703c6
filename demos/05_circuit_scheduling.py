"""Mapping and scheduling a circuit across two chains.

A six-qubit circuit with two tight clusters is mapped with the greedy
interaction-cut heuristic (verified against the exhaustive oracle),
scheduled in ideal-pair mode, and then rescheduled against the simulated
photonic pair supply to see what heralded entanglement really costs.
"""

import dataclasses
from pathlib import Path

from ionfab import (assign_qubits, brute_force_best_map, crossing_count,
                    load_architecture, parse_circuit, schedule)

CIRCUIT = """\
qubits 6
MS q0 q1 1.5707963267948966
MS q1 q2 1.5707963267948966
MS q0 q2 1.5707963267948966
MS q3 q4 1.5707963267948966
MS q4 q5 1.5707963267948966
MS q3 q5 1.5707963267948966
CNOT q2 q3
MEASURE q0
MEASURE q5
"""

spec = load_architecture(Path(__file__).parents[1] / "docs" / "example.json")
spec = dataclasses.replace(spec, elus=tuple(
    dataclasses.replace(e, n_ions=6, comm_ion_indices=(0, 5),
                        fast_gate_distance=2) for e in spec.elus))

circuit = parse_circuit(CIRCUIT)
greedy = assign_qubits(circuit, spec, "greedy_interaction_cut")
rr = assign_qubits(circuit, spec, "round_robin")
_, oracle = brute_force_best_map(circuit, spec)
print("=== cross-chain operations by mapping strategy ===")
print(f"greedy cut  : {crossing_count(circuit, greedy)}")
print(f"round robin : {crossing_count(circuit, rr)}")
print(f"exhaustive  : {oracle}")

print("\n=== ideal pair supply ===")
ideal = schedule(circuit, greedy, spec, "ideal")
print(f"makespan {ideal.makespan * 1e3:.3f} ms, pairs {ideal.pairs_consumed}, "
      f"fidelity {ideal.fidelity_estimate:.6f}")
breakdown = ideal.fidelity
print(f"  gates {breakdown.gate_factor:.6f} x idle {breakdown.idle_factor:.6f}")

print("\n=== buffered pair supply (seeded network co-simulation) ===")
for seed in (1, 2, 3):
    buffered = schedule(circuit, greedy, spec, "buffered", seed=seed)
    wait = buffered.makespan - ideal.makespan
    print(f"seed {seed}: makespan {buffered.makespan * 1e3:8.3f} ms "
          f"(+{wait * 1e3:.3f} ms pair wait)")

print("\n=== timeline (ideal mode) ===")
print(ideal.timeline_csv())
