"""Acceptance gate: one test per release criterion, each printing a
pass/fail line (run with `pytest tests/test_acceptance.py -v -s`).

Tolerances are pinned here and nowhere else:
  C1  closed-form rate == 100 Hz (rel 1e-12); sim within 3 sigma
      (sigma = 1.0 Hz) for >= 95 of 100 seeds; < 10 s.
  C2  gate_rate(N)*sqrt(N) constant to rel 1e-12 for N in 1..100;
      recoil_frequency exactly proportional to 1/N.
  C3  R_gate/2pi inside 10-100 kHz at Yb171 defaults; recoil matches the
      independent arithmetic oracle to rel 1e-9.
  C4  ledger conservation exact on every scenario; byte-identical logs.
  C5  grid max_check_span log-log slope 0.5 +/- 0.1 over data sizes
      {13, 41, 85, 145}; modular intra-ELU route lengths all 1; < 60 s.
  C6  family counts (d^2, d^2-1), 7^L, (13, 12); even X/Z overlaps.
  C7  greedy vs exhaustive crossing on the <= 8-qubit suite; IDEAL <=
      BUFFERED for 100 seeds; pair ledger exact.
  C8  brute force == dual enumerator on 50 seeded n=10 instances;
      adiabatic overlap > 0.99 at the pinned fixture, monotone over
      doublings within 1e-3; annealing never beats brute force; < 120 s.
"""

import dataclasses
import itertools
import math
import random
import time

import numpy as np
import pytest

from conftest import EXAMPLE_JSON, FIXTURES_DIR
from ionfab.arch import default_species, load_architecture
from ionfab.circuits import parse_circuit
from ionfab.constants import TWO_PI
from ionfab.ising import (AnnealSchedule, IsingInstance, adiabatic_evolve,
                          anneal_classical, brute_force_ground_state)
from ionfab.netsim import (SwitchConfig, default_link, link_label, make_link,
                           run_sim)
from ionfab.qec import (embed_on_grid, embed_on_modular,
                        hypergraph_product_graph, repetition_check_matrix,
                        steane_concat_graph, surface_code_graph)
from ionfab.rates import (gate_rate, mean_connection_rate, rate_report,
                          recoil_frequency)
from ionfab.scheduler import (assign_qubits, brute_force_best_map,
                              crossing_count, schedule)


def note(criterion, ok, detail):
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def spec():
    return load_architecture(EXAMPLE_JSON)


def test_c1_connection_rate_reproduction(spec):
    started = time.monotonic()
    closed_form = mean_connection_rate(5e5, 0.1, 0.2)
    assert closed_form == pytest.approx(100.0, rel=1e-12)
    assert rate_report(spec, "A").mean_connection_rate == pytest.approx(
        100.0, rel=1e-12)

    schedule_ = [(0.0, SwitchConfig(frozenset({default_link(spec)})))]
    label = link_label(default_link(spec))
    sigma = math.sqrt(5e5 * 2e-4 * 100.0) / 100.0  # about 1.0 Hz
    hits = 0
    for seed in range(100):
        result = run_sim(spec, schedule_, [], 100.0, seed=seed)
        if abs(result.per_link[label].measured_rate - 100.0) <= 3.0 * sigma:
            hits += 1
    elapsed = time.monotonic() - started
    note(1, hits >= 95 and elapsed < 10.0,
         f"closed form 100 Hz; {hits}/100 seeds within 3 sigma in {elapsed:.1f}s")


def test_c2_scaling_laws(spec):
    species = default_species("Yb171")
    k = spec.drive.effective_wavevector
    omega = spec.elus[0].trap_frequency
    rabi = spec.drive.rabi_frequency

    base_recoil = recoil_frequency(k, species.mass, 1)
    reference = None
    worst = 0.0
    for n in range(1, 101):
        recoil = recoil_frequency(k, species.mass, n)
        assert recoil == base_recoil / n  # exact floating-point equality
        value = gate_rate(rabi, recoil, omega) * math.sqrt(n)
        if reference is None:
            reference = value
        worst = max(worst, abs(value - reference) / reference)
    note(2, worst <= 1e-12,
         f"gate_rate*sqrt(N) constant to {worst:.2e}; recoil exactly 1/N")


def test_c3_gate_rate_band_and_recoil_oracle(spec):
    species = default_species("Yb171")
    k = 2 * TWO_PI / 355e-9
    # independent arithmetic: (hbar / 2m) * k^2 with hbar restated literally
    oracle = (1.054571817e-34 / (2.0 * species.mass)) * k * k
    recoil = recoil_frequency(k, species.mass, 1)
    rel = abs(recoil - oracle) / oracle
    rg_hz = gate_rate(TWO_PI * 1e6, recoil, TWO_PI * 5e6) / TWO_PI
    in_band = 10e3 < rg_hz < 100e3
    report = rate_report(spec, "A")
    chain_in_band = 10e3 < report.gate_rate < 100e3
    note(3, rel <= 1e-9 and in_band and chain_in_band,
         f"R_gate/2pi = {rg_hz / 1e3:.1f} kHz (N=1), "
         f"{report.gate_rate / 1e3:.1f} kHz (N=20); recoil rel err {rel:.1e}")


def test_c4_netsim_ledger_and_determinism(spec):
    link = default_link(spec)
    base = [(0.0, SwitchConfig(frozenset({link})))]
    two_cfg = base + [(1.0, SwitchConfig(frozenset({make_link(("A", 1), ("B", 1))})))]
    colliding = dataclasses.replace(spec, elus=tuple(
        dataclasses.replace(e, collision_rate_per_ion=0.1, reload_time=0.1)
        for e in spec.elus))
    roomy = dataclasses.replace(spec, buffer_capacity=100_000)
    expiring = dataclasses.replace(roomy, pair_lifetime=0.01)
    scenarios = [
        ("steady", roomy, base, []),
        ("demand", roomy, base, [(0.02 * k, ("A", "B")) for k in range(1, 60)]),
        ("expiry", expiring, base, [(1.0, ("A", "B"))]),
        ("collisions", dataclasses.replace(colliding, buffer_capacity=100_000),
         base, []),
        ("reconfig", roomy, two_cfg, []),
    ]
    for name, s, sched, demand in scenarios:
        result = run_sim(s, sched, demand, 2.0, seed=7)
        ledger = result.ledger
        strict = (ledger.delivered + ledger.expired + ledger.invalidated
                  + ledger.residual == ledger.successes)
        assert ledger.overflow_dropped == 0, name
        assert strict and ledger.conserved, name

    logs = {run_sim(spec, base, [(0.1, ("A", "B"))], 1.0, seed=11,
                    store_log=True).events_csv() for _ in range(3)}
    note(4, len(logs) == 1,
         "conservation exact on 5 scenarios; logs byte-identical across reruns")


def test_c5_qec_locality_contrast(spec):
    started = time.monotonic()
    sizes, spans = [], []
    codes = []
    for r in (3, 5, 7, 9):
        h = repetition_check_matrix(r)
        code = hypergraph_product_graph(h, h)
        codes.append(code)
        sizes.append(code.n_data)
        spans.append(embed_on_grid(code, "row_major").max_check_span)
    assert sizes == [13, 41, 85, 145]
    slope = float(np.polyfit(np.log(sizes), np.log(spans), 1)[0])

    modular_spec = dataclasses.replace(spec, elus=tuple(
        dataclasses.replace(spec.elus[0], id=f"E{i}", n_ions=50,
                            comm_ion_indices=(0, 1, 48, 49))
        for i in range(6)),
        switch=dataclasses.replace(spec.switch, port_count=24))
    all_intra_one = True
    for code in codes:
        rep = embed_on_modular(code, modular_spec, "greedy_cut")
        all_intra_one &= all(s == 1 for s in rep.per_check_span)
    elapsed = time.monotonic() - started
    note(5, 0.4 <= slope <= 0.6 and all_intra_one and elapsed < 60.0,
         f"grid span slope {slope:.3f} over n={sizes}; modular intra routes "
         f"all 1 in {elapsed:.1f}s")


def test_c6_code_family_counts():
    for d in (3, 5, 7):
        g = surface_code_graph(d)
        assert (g.n_data, g.n_checks) == (d * d, d * d - 1)
    for levels in (1, 2):
        g = steane_concat_graph(levels)
        assert g.n_data == 7 ** levels
    h = repetition_check_matrix(3)
    g = hypergraph_product_graph(h, h)
    assert (g.n_data, g.n_checks) == (13, 12)
    xs = [c.data for c in g.checks if c.kind == "X"]
    zs = [c.data for c in g.checks if c.kind == "Z"]
    overlaps_even = all(len(x & z) % 2 == 0 for x in xs for z in zs)
    note(6, overlaps_even,
         "surface (d^2, d^2-1); Steane 7^L; HGP (13, 12) with even overlaps")


def test_c7_scheduler_oracle_equivalence(spec):
    suite = ["ring4.iqc", "line6.iqc", "star5.iqc", "clusters6.iqc",
             "mixed8.iqc"]
    small = dataclasses.replace(spec, elus=tuple(
        dataclasses.replace(e, n_ions=8, comm_ion_indices=(0, 7),
                            fast_gate_distance=2) for e in spec.elus),
        switch=dataclasses.replace(spec.switch, port_count=4))
    for name in suite:
        circuit = parse_circuit((FIXTURES_DIR / name).read_text())
        _, oracle = brute_force_best_map(circuit, small)
        greedy = crossing_count(
            circuit, assign_qubits(circuit, small, "greedy_interaction_cut"))
        assert greedy >= oracle, name

    circuit = parse_circuit((FIXTURES_DIR / "clusters6.iqc").read_text())
    qmap = assign_qubits(circuit, small, "round_robin")
    remote = sum(1 for op in circuit.ops
                 if op.is_multi_qubit
                 and len({qmap.elu_of(q) for q in op.operands}) > 1)
    ideal = schedule(circuit, qmap, small, "ideal")
    assert ideal.pairs_consumed == remote
    holds = 0
    for seed in range(100):
        buffered = schedule(circuit, qmap, small, "buffered", seed=seed)
        assert buffered.pairs_consumed == remote
        if ideal.makespan <= buffered.makespan + 1e-15:
            holds += 1
    note(7, holds == 100,
         f"greedy >= oracle on {len(suite)} fixtures; IDEAL <= BUFFERED for "
         f"{holds}/100 seeds; pair ledger exact ({remote} pairs)")


def test_c8_ising_oracle():
    started = time.monotonic()

    def reference_ground(instance):
        best = math.inf
        best_set = []
        for spins in itertools.product((1, -1), repeat=instance.n_spins):
            e = 0.0
            for (i, j), val in instance.couplings.items():
                e += val * spins[i] * spins[j]
            for i, val in instance.local_fields.items():
                e += val * spins[i]
            if e < best - 1e-12:
                best, best_set = e, [spins]
            elif abs(e - best) <= 1e-12:
                best_set.append(spins)
        return best, set(best_set)

    slow = AnnealSchedule(t_start=20.0, t_factor=0.92, t_min=0.05,
                          sweeps_per_temp=3)
    for seed in range(50):
        rng = random.Random(seed)
        couplings = {}
        for i in range(10):
            for j in range(i + 1, 10):
                if rng.random() < 0.6:
                    couplings[(i, j)] = float(rng.choice([-2, -1, 1, 2]))
        fields = {i: float(rng.choice([-1, 0, 1])) for i in range(10)}
        inst = IsingInstance(10, couplings, fields)
        configs, best = brute_force_ground_state(inst, max_configs=2048)
        ref_best, ref_set = reference_ground(inst)
        assert best == pytest.approx(ref_best, abs=1e-9), seed
        assert {c.spins for c in configs} == ref_set, seed
        _, annealed = anneal_classical(inst, slow, seed)
        assert annealed >= best - 1e-9, seed

    ferro6 = IsingInstance(6, {(i, j): -1.0 for i in range(6)
                               for j in range(i + 1, 6)})
    pinned = adiabatic_evolve(ferro6, 50.0, 5000)
    assert pinned.ground_overlap > 0.99
    overlaps = [adiabatic_evolve(ferro6, T, 5000).ground_overlap
                for T in (6.25, 12.5, 25.0, 50.0)]
    monotone = all(hi >= lo - 1e-3 for lo, hi in zip(overlaps, overlaps[1:]))
    elapsed = time.monotonic() - started
    note(8, monotone and elapsed < 120.0,
         f"50/50 dual-enumerator matches; overlap {pinned.ground_overlap:.5f} "
         f"> 0.99, monotone {[f'{o:.4f}' for o in overlaps]}; {elapsed:.1f}s")
