"""The four benchmark workloads: seeded generators, tasks, checks, digests.

Each workload class owns one machine document and a closed loop of tasks.
``inputs(i)`` generates task ``i`` from the workload seed alone (the same
seed gives the same inputs); ``run`` makes the task's ionfab calls, the only
timed part of a task; ``check`` returns the failed output checks; ``record``
returns the simulated statistics that go into the digest.

Task sizes depend only on the slot ``i % 10``, so every block of ten tasks
does the same amount of work whatever the seed; the seed chooses the
contents (couplings, circuits, demand, placements, the order of sizes inside
a block). The task in slot CLI_SLOT runs through ``ionfab.cli.main``
in-process instead, on documents written to the run directory; its check
repeats the work through the library, untimed, and compares the reports.
"""

from __future__ import annotations

import copy
import dataclasses
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import ionfab.cli
import ionfab.ising
import ionfab.qec
import ionfab.scheduler
from ionfab import (AnnealSchedule, IsingInstance, SwitchConfig,
                    adiabatic_evolve, anneal_classical, assign_qubits,
                    brute_force_ground_state, crossing_count, embed_on_grid,
                    embed_on_modular, energy, hypergraph_product_graph,
                    load_architecture, parse_circuit, power_law_couplings,
                    run_sim, schedule, steane_concat_graph, surface_code_graph,
                    validate_architecture)
from ionfab.netsim import make_link
from ionfab.qec import QecGraph
from clock import clock

CLI_SLOT = 9   # i % 10 == CLI_SLOT: the task runs through cli.main


def machine_doc(example: dict, n_elus: int, collision_rate_per_ion_hz=0.0,
                pair_lifetime_s=None) -> dict:
    """``n_elus`` copies of the example machine's first ELU, ids E00, E01, ...

    The switch gets one port per communication ion, the fewest that
    validation accepts.
    """
    doc = copy.deepcopy(example)
    base = doc["elus"][0]
    doc["elus"] = [dict(base, id=f"E{k:02d}",
                        collision_rate_per_ion_hz=collision_rate_per_ion_hz)
                   for k in range(n_elus)]
    doc["switch"]["port_count"] = n_elus * len(base["comm_ion_indices"])
    if pair_lifetime_s is not None:
        doc["link"]["pair_lifetime_s"] = pair_lifetime_s
    return doc


def write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


class Workload:
    """Set-up, the CLI slot and the layer counters; subclasses define tasks.

    A subclass provides ``machine``, ``inputs``, ``library`` (the task's
    ionfab calls, which also set ``out["cli_equiv_s"]`` to the time of the
    calls its CLI subcommand repeats), ``check_output``, ``cli_agrees`` and
    ``record``.
    """

    name = ""
    cli_subcommand = ""

    def __init__(self, root: Path, seed: int, tmp: Path, tracer):
        self.seed = seed
        self.tmp = tmp
        self.tracer = tracer
        self.counts: dict[str, float] = {}
        example = json.loads((root / "docs" / "example.json").read_text())
        self.arch_path = write_json(tmp / "arch.json", self.machine(example))
        self.spec = tracer.call("arch.load_architecture", load_architecture,
                                self.arch_path)
        report = tracer.call("arch.validate_architecture",
                             validate_architecture, self.spec)
        if not report.ok:
            raise RuntimeError(f"{self.name} machine is invalid: {report}")

    def rng(self, key) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{key}")

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def install_wraps(self) -> dict[str, list[str]]:
        """Attribute nested layer calls; returns absent targets and their metrics."""
        wraps = (
            (ionfab.scheduler, "run_sim", "netsim.run_sim:supply", self.count_sim,
             ["scheduler.supply_s", "scheduler.supply_sim_calls"]),
            (ionfab.ising, "ground_state_indices", "ising.ground_state_indices",
             None, ["ising.adiabatic_enum_s"]),
            (ionfab.qec, "gf2_rank", "qec.gf2_rank", None, ["qec.gf2_rank_s"]),
            (QecGraph, "css_commutation_ok", "qec.css_commutation_ok", None,
             ["qec.css_check_s"]),
        )
        return {f"{owner.__name__}.{attr}": metrics
                for owner, attr, span, after, metrics in wraps
                if not self.tracer.wrap(owner, attr, span, after)}

    def count_sim(self, result) -> None:
        ledger = result.ledger
        self.add("netsim.sim_s", result.horizon)
        self.add("netsim.successes", ledger.successes)
        self.add("netsim.delivered", ledger.delivered)
        self.add("netsim.expired", ledger.expired)
        self.add("netsim.invalidated", ledger.invalidated)
        self.add("netsim.collisions", result.collisions)
        self.add("netsim.requests", result.request_count)
        self.add("netsim.served", result.requests_served)

    def run(self, inp, i):
        if i % 10 != CLI_SLOT:
            return self.library(inp, i)
        stdout, stderr = io.StringIO(), io.StringIO()
        t0 = clock()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = self.tracer.call("cli.main", ionfab.cli.main, inp["argv"])
        return {"cli": {"code": code, "seconds": clock() - t0,
                        "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}}

    def check(self, inp, out, i) -> list[str]:
        if "cli" not in out:
            return self.check_output(inp, out)
        cli = out["cli"]
        out.update(self.library(inp, i))
        self.add("cli.overhead_s", cli["seconds"] - out["cli_equiv_s"])
        bad = self.check_output(inp, out)
        if cli["code"] != 0:
            return bad + [f"cli exit code {cli['code']}: {cli['stderr'].strip()}"]
        lines = cli["stderr"].splitlines()
        if len(lines) != 1:
            return bad + [f"cli stderr has {len(lines)} lines, expected one manifest"]
        subcommand = json.loads(lines[0]).get("subcommand")
        if subcommand != self.cli_subcommand:
            bad.append(f"cli manifest names {subcommand!r}, "
                       f"expected {self.cli_subcommand!r}")
        if not self.cli_agrees(json.loads(cli["stdout"]), out):
            bad.append(f"cli {self.cli_subcommand} report differs from the library")
        return bad


# ---------------------------------------------------------------------------
# netsim-multiplex
# ---------------------------------------------------------------------------

class NetsimMultiplex(Workload):
    """The paper's time-multiplexed crossconnect regime.

    Eight ELUs share the switch, which cycles the seven round-robin perfect
    matchings, two links per matched pair, and pays the reconfiguration time
    on every change. Poisson requests over all 28 ELU pairs arrive at about
    the delivered capacity. netsim does nearly all the work: the event heap,
    reconfiguration, expiry, collisions and the request path. No other
    engine runs. The task in slot LOG_SLOT also takes the event-log write
    path, whose ledger must equal the no-log run's.
    """

    name = "netsim-multiplex"
    cli_subcommand = "simulate"
    N_ELUS = 8
    HORIZON_S = 1.0
    DWELL_S = 0.005     # per switch configuration, 1 ms of it reconfiguring
    DEMAND_HZ = 600.0   # about 8 links x 100 Hz x 4/5 duty, less collisions
    LOG_SLOT = 4

    def machine(self, example):
        return machine_doc(example, self.N_ELUS, collision_rate_per_ion_hz=0.0025,
                           pair_lifetime_s=0.05)

    def __init__(self, *args):
        super().__init__(*args)
        ids = self.spec.elu_ids()
        ports = sorted(self.spec.elus[0].comm_ion_indices)[:2]
        n = len(ids)
        self.matchings = []    # circle method: round r pairs r with n-1
        for r in range(n - 1):
            pairs = [(r, n - 1)] + [((r + k) % (n - 1), (r - k) % (n - 1))
                                    for k in range(1, n // 2)]
            self.matchings.append(SwitchConfig(frozenset(
                make_link((ids[a], p), (ids[b], p)) for a, b in pairs for p in ports)))
        self.pairs = [(ids[a], ids[b]) for a in range(n) for b in range(a + 1, n)]

    def inputs(self, i):
        rng = self.rng(i)
        order = rng.sample(range(len(self.matchings)), len(self.matchings))
        steps = round(self.HORIZON_S / self.DWELL_S)
        switch = [(k * self.DWELL_S, self.matchings[order[k % len(order)]])
                  for k in range(steps)]
        demand = []
        t = rng.expovariate(self.DEMAND_HZ)
        while t < self.HORIZON_S:
            demand.append((t, self.pairs[rng.randrange(len(self.pairs))]))
            t += rng.expovariate(self.DEMAND_HZ)
        inp = {"switch": switch, "demand": demand, "sim_seed": rng.randrange(2**31)}
        if i % 10 == CLI_SLOT:
            inp["argv"] = [
                "simulate", self.arch_path,
                "--schedule", write_json(self.tmp / "schedule.json", [
                    {"time_s": t, "links": [[a[0], a[1], b[0], b[1]]
                                            for a, b in sorted(cfg.active_links)]}
                    for t, cfg in switch]),
                "--demand", write_json(self.tmp / "demand.json", [
                    {"time_s": t, "elus": list(pair)} for t, pair in demand]),
                "--horizon", repr(self.HORIZON_S), "--seed", str(inp["sim_seed"])]
        return inp

    def library(self, inp, i):
        call = self.tracer.call
        t0 = clock()
        result = call("netsim.run_sim", run_sim, self.spec, inp["switch"],
                      inp["demand"], self.HORIZON_S, inp["sim_seed"])
        out = {"result": result, "cli_equiv_s": clock() - t0}
        if i % 10 == self.LOG_SLOT:
            logged = call("netsim.run_sim:log", run_sim, self.spec, inp["switch"],
                          inp["demand"], self.HORIZON_S, inp["sim_seed"],
                          store_log=True)
            out["logged"] = logged
            out["csv"] = call("netsim.events_csv", logged.events_csv)
        return out

    def check_output(self, inp, out):
        result = out["result"]
        self.count_sim(result)
        bad = []
        if not result.ledger.conserved:
            bad.append(f"ledger not conserved: {result.ledger}")
        if result.requests_served > result.request_count:
            bad.append("served more requests than were made")
        if "logged" in out:
            logged = out["logged"]
            self.add("netsim.log_events", len(logged.events))
            if (logged.ledger, logged.per_link) != (result.ledger, result.per_link):
                bad.append("log-path ledger differs from the no-log run")
            if out["csv"].count("\n") != len(logged.events) + 1:
                bad.append("events_csv row count differs from the event log")
        return bad

    def cli_agrees(self, doc, out):
        result = out["result"]
        ledger = dataclasses.asdict(result.ledger)
        return ({k: doc["ledger"][k] for k in ledger} == ledger
                and doc["requests"]["served"] == result.requests_served)

    def record(self, inp, out):
        r = out["result"]
        return [dataclasses.astuple(r.ledger), r.collisions, r.request_count,
                r.requests_served, r.latency_mean, r.latency_max,
                [[label, s.attempts, s.successes] for label, s in r.per_link.items()]]


# ---------------------------------------------------------------------------
# schedule-buffered
# ---------------------------------------------------------------------------

class ScheduleBuffered(Workload):
    """Circuit parsing, greedy mapping and ASAP scheduling in both pair modes.

    Five example ELUs with four communication ions each, so every ELU pair
    gets a link and the buffered supply's CapacityError cannot trigger.
    scheduler and circuits do most of the work; netsim runs differently from
    netsim-multiplex: one long demand-free run per schedule that collects
    success times, so a netsim change that slows stream generation shows
    here. Circuits are clustered so that most two-qubit gates can stay in
    one ELU and a share must cross.
    """

    name = "schedule-buffered"
    cli_subcommand = "schedule"
    N_ELUS = 5
    CLUSTER_SHARE = 0.85      # two-qubit gates drawn inside one qubit cluster

    def machine(self, example):
        return machine_doc(example, self.N_ELUS, pair_lifetime_s=0.05)

    def inputs(self, i):
        rng = self.rng(i)
        n_qubits = 80 - 2 * (i % 10)             # 80 .. 62
        n_ops = 620 + 20 * ((3 * i) % 10)        # 620 .. 800
        cluster_of = [q % self.N_ELUS for q in range(n_qubits)]
        rng.shuffle(cluster_of)
        clusters = [[q for q in range(n_qubits) if cluster_of[q] == c]
                    for c in range(self.N_ELUS)]
        lines = [f"qubits {n_qubits}"]
        for _ in range(n_ops):
            u = rng.random()
            q = rng.randrange(n_qubits)
            if u < 0.30:
                gate = rng.choice(("X", "H", "RZ"))
                angle = f" {rng.uniform(-math.pi, math.pi)!r}" if gate == "RZ" else ""
                lines.append(f"{gate} q{q}{angle}")
            elif u < 0.38:
                lines.append(f"MEASURE q{q}")
            else:
                pool = (clusters[cluster_of[q]] if rng.random() < self.CLUSTER_SHARE
                        else range(n_qubits))
                p = q
                while p == q:
                    p = rng.choice(pool)
                if rng.random() < 0.5:
                    lines.append(f"CNOT q{q} q{p}")
                else:
                    lines.append(f"MS q{q} q{p} {rng.uniform(-math.pi, math.pi)!r}")
        text = "\n".join(lines) + "\n"
        inp = {"text": text, "sim_seed": rng.randrange(2**31)}
        if i % 10 == CLI_SLOT:
            circuit_path = self.tmp / "circuit.iqc"
            circuit_path.write_text(text)
            inp["argv"] = ["schedule", self.arch_path, str(circuit_path),
                           "--map", "greedy", "--pairs", "buffered",
                           "--seed", str(inp["sim_seed"])]
        return inp

    def library(self, inp, i):
        call, spec = self.tracer.call, self.spec
        t0 = clock()
        circuit = call("circuits.parse_circuit", parse_circuit, inp["text"])
        qmap = call("scheduler.assign_qubits", assign_qubits, circuit, spec,
                    "greedy_interaction_cut")
        buffered = call("scheduler.schedule:buffered", schedule, circuit, qmap,
                        spec, "buffered", seed=inp["sim_seed"])
        cli_equiv_s = clock() - t0
        ideal = call("scheduler.schedule:ideal", schedule, circuit, qmap, spec,
                     "ideal")
        crossings = call("scheduler.crossing_count", crossing_count, circuit, qmap)
        return {"circuit": circuit, "ideal": ideal, "buffered": buffered,
                "crossings": crossings, "cli_equiv_s": cli_equiv_s}

    def check_output(self, inp, out):
        ideal, buffered = out["ideal"], out["buffered"]
        ops = len(out["circuit"].ops)
        self.add("circuits.ops", ops)
        self.add("scheduler.ops", ops)
        self.add("scheduler.remote_ops", buffered.pairs_consumed)
        self.add("scheduler.crossings", out["crossings"])
        self.add("scheduler.pair_wait_s", buffered.makespan - ideal.makespan)
        bad = []
        if not ideal.makespan <= buffered.makespan:
            bad.append(f"ideal makespan {ideal.makespan!r} > buffered "
                       f"{buffered.makespan!r}")
        if ideal.pairs_consumed != buffered.pairs_consumed:
            bad.append("pairs_consumed differs between ideal and buffered")
        for res in (ideal, buffered):
            if not 0.0 < res.fidelity_estimate <= 1.0:
                bad.append(f"{res.mode} fidelity {res.fidelity_estimate!r} "
                           "outside (0, 1]")
        return bad

    def cli_agrees(self, doc, out):
        b = out["buffered"]
        return ((doc["makespan_s"], doc["pairs_consumed"], doc["mode"])
                == (b.makespan, b.pairs_consumed, "buffered"))

    def record(self, inp, out):
        ideal, buffered = out["ideal"], out["buffered"]
        return [ideal.makespan, buffered.makespan, buffered.pairs_consumed,
                buffered.swaps_inserted, out["crossings"]]


# ---------------------------------------------------------------------------
# ising-oracles
# ---------------------------------------------------------------------------

class IsingOracles(Workload):
    """The three exact/heuristic Ising kernels on the same instances.

    The numpy enumerator (memory-bound, sets peak RSS), the Python
    statevector loop of the adiabatic sweep and the pure-Python Metropolis
    loop do all the work. Slots 0-4 take integer-coupling instances (exact
    ties), slots 5-9 power-law J0/|i-j|^alpha chains, so every size appears
    once per family in each block of ten.
    """

    name = "ising-oracles"
    cli_subcommand = "ising"
    SIZES = (13, 14, 15, 16, 17, 17, 16, 15, 14, 13)   # spins, by i % 10
    ADIABATIC_SPINS = 10
    ADIABATIC_STEPS = 100
    ADIABATIC_TIME = 5.0
    ANNEAL = AnnealSchedule(t_start=5.0)
    REL_TOL = 1e-9    # float64 power-law energies summed in another order

    def machine(self, example):
        return example

    def __init__(self, *args):
        super().__init__(*args)
        self.sweeps = len(self.ANNEAL.temperatures()) * self.ANNEAL.sweeps_per_temp

    def instance(self, rng, n, integer):
        if integer:
            couplings = {(a, b): float(rng.randint(-3, 3))
                         for a in range(n) for b in range(a + 1, n)}
            fields = {a: float(rng.randint(-2, 2)) for a in range(n)}
            return IsingInstance(n, couplings, fields)
        return power_law_couplings(n, rng.uniform(0.5, 2.5), 1.0)

    def inputs(self, i):
        rng = self.rng(i)
        integer = i % 10 < 5
        inp = {"integer": integer,
               "inst": self.instance(rng, self.SIZES[i % 10], integer),
               "small": self.instance(rng, self.ADIABATIC_SPINS, integer),
               "anneal_seed": rng.randrange(2**31)}
        if i % 10 == CLI_SLOT:
            inst = inp["inst"]
            inp["argv"] = ["ising", "solve", write_json(self.tmp / "instance.json", {
                "schema": "ionfab-ising/1", "n": inst.n_spins,
                "alpha": inst.alpha, "j0": inst.j0,
                "couplings": [[a, b, v] for (a, b), v in sorted(inst.couplings.items())],
                "fields": [[a, v] for a, v in sorted(inst.local_fields.items())]})]
        return inp

    def library(self, inp, i):
        call = self.tracer.call
        t0 = clock()
        configs, best = call("ising.brute_force_ground_state",
                             brute_force_ground_state, inp["inst"])
        cli_equiv_s = clock() - t0
        _, annealed = call("ising.anneal_classical", anneal_classical,
                           inp["inst"], self.ANNEAL, inp["anneal_seed"])
        sweep = call("ising.adiabatic_evolve", adiabatic_evolve, inp["small"],
                     self.ADIABATIC_TIME, self.ADIABATIC_STEPS)
        return {"configs": configs, "best": best, "annealed": annealed,
                "sweep": sweep, "cli_equiv_s": cli_equiv_s}

    def check_output(self, inp, out):
        inst, best = inp["inst"], out["best"]
        tol = 0.0 if inp["integer"] else self.REL_TOL * max(1.0, abs(best))
        drift = abs(1.0 - out["sweep"].final_norm)
        self.add("ising.configs", 2 ** inst.n_spins)
        self.add("ising.trotter_steps", self.ADIABATIC_STEPS)
        self.add("ising.spin_updates", self.sweeps * inst.n_spins)
        self.add("ising.anneal_misses", out["annealed"] > best + tol)
        self.counts["ising.norm_drift_max"] = max(
            self.counts.get("ising.norm_drift_max", 0.0), drift)
        bad = []
        if not out["configs"]:
            bad.append("brute force returned no configuration")
        for config in out["configs"]:
            e = energy(inst, config)
            if abs(e - best) > tol:
                bad.append(f"ground state energy {e!r} != minimum {best!r}")
                break
        if out["annealed"] < best - tol:
            bad.append(f"anneal energy {out['annealed']!r} below minimum {best!r}")
        if not drift < 1e-9:
            bad.append(f"adiabatic norm drift {drift!r}")
        return bad

    def cli_agrees(self, doc, out):
        return (doc["minimum_energy"] == out["best"] and doc["ground_states"]
                == [list(c.spins) for c in out["configs"]])

    def record(self, inp, out):
        return [inp["inst"].n_spins, out["best"], len(out["configs"]),
                out["annealed"]]


# ---------------------------------------------------------------------------
# qec-codes
# ---------------------------------------------------------------------------

class QecCodes(Workload):
    """Code construction and grid/modular embedding of the three families.

    gf2_rank and the set-based CSS check inside the hypergraph product
    dominate the slow decile; the embedders' Python loops fill the rest. No
    other layer runs. Surface codes use the native planar placement, Steane
    codes row-major and HGP codes a seeded random placement; every code is
    also partitioned over a machine of example ELUs sized to fit it.
    """

    name = "qec-codes"
    cli_subcommand = "qec"
    FAMILIES = ("surface", "hgp", "steane", "hgp", "surface",
                "hgp", "surface", "hgp", "steane", "hgp")   # by i % 10
    # Per block of ten, each family's slots take these sizes in a seeded order.
    SIZES = {"surface": (9, 15, 21),                # distance d
             "steane": (2, 3),                      # levels L
             "hgp": (8, 11, 13, 15, 17)}            # rep(r) x rep(r)
    N_ELUS = 55       # holds the largest code, rep(17)^2 with 1089 nodes

    def machine(self, example):
        return machine_doc(example, self.N_ELUS)

    def inputs(self, i):
        slot = i % 10
        family = self.FAMILIES[slot]
        sizes = self.SIZES[family]
        order = self.rng(f"block{i // 10}").sample(sizes, len(sizes))
        size = order[self.FAMILIES[:slot].count(family)]
        inp = {"family": family, "size": size,
               "placement_seed": self.rng(i).randrange(2**31)}
        if family == "hgp":
            h = np.zeros((size - 1, size), dtype=np.uint8)
            h[np.arange(size - 1), np.arange(size - 1)] = 1
            h[np.arange(size - 1), np.arange(1, size)] = 1
            inp["h"] = h
            if slot == CLI_SLOT:
                path = self.tmp / "rep.csv"
                path.write_text("\n".join(",".join(map(str, row)) for row in h) + "\n")
                inp["argv"] = ["qec", "hgp", "--h1", str(path), "--h2", str(path)]
        return inp

    def library(self, inp, i):
        call, family, size = self.tracer.call, inp["family"], inp["size"]
        t0 = clock()
        if family == "surface":
            code = call("qec.surface_code_graph", surface_code_graph, size)
            grid = call("qec.embed_on_grid", embed_on_grid, code, "native")
        elif family == "steane":
            code = call("qec.steane_concat_graph", steane_concat_graph, size)
            grid = call("qec.embed_on_grid", embed_on_grid, code, "row_major")
        else:
            code = call("qec.hypergraph_product_graph", hypergraph_product_graph,
                        inp["h"], inp["h"])
            cli_equiv_s = clock() - t0
            grid = call("qec.embed_on_grid", embed_on_grid, code, "random",
                        seed=inp["placement_seed"])
        n_ions = self.spec.elus[0].n_ions
        fitted = dataclasses.replace(
            self.spec, elus=self.spec.elus[:-(-code.n_nodes // n_ions)])
        modular = call("qec.embed_on_modular", embed_on_modular, code, fitted,
                       "greedy_cut")
        out = {"code": code, "grid": grid, "modular": modular, "machine": fitted}
        if family == "hgp":
            out["cli_equiv_s"] = cli_equiv_s
        return out

    def check_output(self, inp, out):
        code, size = out["code"], inp["size"]
        self.add("qec.nodes", code.n_nodes)
        self.add("qec.swap_count", out["grid"].swap_count)
        self.add("qec.pairs_per_round", out["modular"].pairs_per_round)
        expected = {"surface": (size * size, size * size - 1),
                    "steane": (7 ** size, 7 ** size - 1),
                    "hgp": (size * size + (size - 1) ** 2, 2 * size * (size - 1))}
        bad = []
        if (code.n_data, code.n_checks) != expected[inp["family"]]:
            bad.append(f"{inp['family']}({size}) has {code.n_data} data and "
                       f"{code.n_checks} checks, expected {expected[inp['family']]}")
        load: dict[str, int] = {}
        for elu_id in out["modular"].assignment:
            load[elu_id] = load.get(elu_id, 0) + 1
        for elu in out["machine"].elus:
            if load.get(elu.id, 0) > elu.n_ions:
                bad.append(f"ELU {elu.id} holds {load[elu.id]} > {elu.n_ions} nodes")
        return bad

    def cli_agrees(self, doc, out):
        code = out["code"]
        return ((doc["family"], doc["n_data"], len(doc["checks"]))
                == ("hypergraph_product", code.n_data, code.n_checks))

    def record(self, inp, out):
        return [inp["family"], inp["size"], out["code"].n_data, out["code"].n_checks,
                out["grid"].swap_count, out["grid"].max_check_span,
                out["modular"].pairs_per_round]


WORKLOADS = {w.name: w for w in (NetsimMultiplex, ScheduleBuffered,
                                 IsingOracles, QecCodes)}
