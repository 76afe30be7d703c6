"""Heralded entanglement generation through the crossconnect switch.

A seeded run of the event simulator: periodic attempts at rate R, heralded
successes with probability (F*eta_D)^2/2, FIFO pair buffering, blocking
pair requests, and a mid-run switch reconfiguration. The measured rate is
compared against the analytic prediction, and the pair ledger is checked
for exact conservation.
"""

import dataclasses
from pathlib import Path

from ionfab import (load_architecture, mean_connection_rate, run_sim,
                    theoretical_rate_check)
from ionfab.netsim import SwitchConfig, make_link

spec = load_architecture(Path(__file__).parents[1] / "docs" / "example.json")
spec = dataclasses.replace(spec, buffer_capacity=100_000)

link_a = make_link(("A", 0), ("B", 0))
link_b = make_link(("A", 1), ("B", 1))
schedule = [
    (0.0, SwitchConfig(frozenset({link_a}))),
    (5.0, SwitchConfig(frozenset({link_b}))),  # swap ports mid-run
]
demand = [(0.5 * k, ("A", "B")) for k in range(1, 19)]

result = run_sim(spec, schedule, demand, horizon=10.0, seed=2026)

print("=== 10 s run, one active link, reconfigured at t = 5 s ===")
for label, stats in result.per_link.items():
    print(f"link {label}: {stats.attempts} attempts, {stats.successes} pairs, "
          f"{stats.measured_rate:.1f} Hz measured")
analytic = mean_connection_rate(spec.attempt_rate, spec.collection_fraction,
                                spec.detector_efficiency)
print(f"analytic rate: {analytic:.1f} Hz")

ledger = result.ledger
print("\n=== pair ledger (conservation is exact) ===")
print(f"successes   {ledger.successes:6d}")
print(f"delivered   {ledger.delivered:6d}   (requests served)")
print(f"expired     {ledger.expired:6d}")
print(f"invalidated {ledger.invalidated:6d}   (collision losses)")
print(f"residual    {ledger.residual:6d}   (left in buffers)")
print(f"conserved:  {ledger.conserved}")
print(f"request latency: mean {result.latency_mean * 1e3:.2f} ms, "
      f"max {result.latency_max * 1e3:.2f} ms")

print("\n=== standardized million-attempt cross-check ===")
check = theoretical_rate_check(spec, seed=7)
print(f"measured {check.measured_rate:.2f} Hz vs analytic "
      f"{check.analytic_rate:.2f} Hz (z = {check.z_score:+.2f})")
