"""One workload in a fresh interpreter: set up, then a closed loop of tasks.

Started by ``bench/run.py``; not meant to be run by hand. Set-up imports
ionfab and ionfab.cli from ``src/`` and loads and validates the workload's
machine; the worker then prints ``READY`` with its set-up CPU time in
reference seconds (see ``clock.py``). Unless ``--setup-only`` is given,
one client then runs tasks back to back, in blocks of BLOCK, until
``--seconds`` have passed and at least MIN_TASKS tasks are done, and prints
one JSON result line. Task times are in reference seconds: each block's
CPU times are scaled by the mean of the reference-kernel times measured
just before and just after the block.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
# Every run completes tasks 0..MIN_TASKS-1: at least 10 tasks lie beyond the
# 90th percentile, and the digest covers exactly these tasks.
MIN_TASKS = 100
BLOCK = 10            # tasks per throughput block: one of each task slot
MAX_REPORTED_FAILURES = 5


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    RUN_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUN_DIR))
    try:
        return run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run(args, tmp: Path) -> int:
    import ionfab
    import ionfab.cli  # noqa: F401  (part of the timed set-up)
    import numpy
    import tracing
    import workloads
    from clock import REF_S, clock, reference_seconds

    if Path(ionfab.__file__).resolve().parent != (SRC / "ionfab").resolve():
        print(f"worker: imported ionfab from {ionfab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    tracer = tracing.Tracer() if args.trace else tracing.Untraced()
    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed, tmp, tracer)
    setup_cpu = clock()
    ref = statistics.median(reference_seconds() for _ in range(3))
    print(f"READY {setup_cpu * REF_S / ref!r}", flush=True)
    if args.setup_only:
        return 0

    absent = wl.install_wraps() if args.trace else {}
    times: list[float] = []         # CPU seconds per task
    ref_times: list[float] = []     # reference seconds per task
    block_rates: list[float] = []   # correct tasks per reference second
    ok: list[bool] = []
    failures: list[str] = []
    attempted = failed = 0
    digest = hashlib.sha256()
    start, cpu_start = time.perf_counter(), clock()
    deadline = start + args.seconds
    i = 0
    while i < MIN_TASKS or i % BLOCK or time.perf_counter() < deadline:
        tracer.task = i
        inp = wl.inputs(i)
        t0 = clock()
        try:
            out = wl.run(inp, i)
        except Exception as exc:  # a raising task counts as failed
            out, problems = None, [f"{type(exc).__name__}: {exc}"]
            traceback.print_exc()
        times.append(clock() - t0)
        if out is not None:
            try:
                problems = wl.check(inp, out, i)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
                traceback.print_exc()
        if i < MIN_TASKS:
            record = ["failed"] if problems else wl.record(inp, out)
            digest.update(json.dumps(record).encode() + b"\n")
        attempted += 1
        ok.append(not problems)
        if problems:
            failed += 1
            if len(failures) < MAX_REPORTED_FAILURES:
                failures.append(f"task {i}: {'; '.join(problems)}")
        i += 1
        if i % BLOCK == 0:
            before, ref = ref, reference_seconds()
            scale = 2 * REF_S / (before + ref)
            ref_times += [t * scale for t in times[-BLOCK:]]
            block_rates.append(sum(ok[-BLOCK:]) / sum(ref_times[-BLOCK:]))
    elapsed, cpu_s = time.perf_counter() - start, clock() - cpu_start

    deciles = statistics.quantiles(ref_times, n=10)
    result = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "elapsed_s": elapsed,
        "cpu_s": cpu_s,
        "tasks_per_s": statistics.median(block_rates),
        "cpu_tasks_per_s": attempted / sum(times),
        "task_p50_s": statistics.median(ref_times),
        "task_p90_s": deciles[8],
        "samples": len(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": digest.hexdigest(),
        "machine": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
            .get("version", "unknown"),
        },
    }
    if args.trace:
        total, calls, self_s = tracing.summarize(tracer.spans)
        result["layers"] = layer_metrics(total, calls, self_s, wl.counts)
        result["self_s"] = self_s
        result["absent"] = absent
        spans_path = RUN_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps([
            {"name": n, "start": s, "end": e, "parent": p, "task": t}
            for n, s, e, p, t in tracer.spans]))
        result["spans_file"] = str(spans_path.relative_to(ROOT))
        result["spans"] = len(tracer.spans)
    print(json.dumps(result), flush=True)
    return 0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(total, calls, self_s, counts) -> dict[str, float]:
    """Per-layer metrics of a traced run, by the names in BENCHMARK.json.

    Times are summed busy seconds over the run, including calls ionfab makes
    inside ``cli.main``; a layer that does not run on a workload reads 0.
    """
    c = lambda key: counts.get(key, 0.0)  # noqa: E731
    sim_s = total["netsim.run_sim"] + total["netsim.run_sim:supply"]
    qec_s = sum(total[f"qec.{f}"] for f in (
        "surface_code_graph", "steane_concat_graph", "hypergraph_product_graph",
        "embed_on_grid", "embed_on_modular"))
    return {
        "arch.load_s": total["arch.load_architecture"],
        "cli.main_s": total["cli.main"],
        "cli.overhead_s": c("cli.overhead_s"),
        "netsim.busy_s": sum(v for k, v in total.items() if k.startswith("netsim.")),
        "netsim.successes_per_s": ratio(c("netsim.successes"), sim_s),
        "netsim.sim_s_per_host_s": ratio(c("netsim.sim_s"), sim_s),
        "netsim.log_s": total["netsim.run_sim:log"] + total["netsim.events_csv"],
        "netsim.log_events": c("netsim.log_events"),
        "netsim.successes": c("netsim.successes"),
        "netsim.requests": c("netsim.requests"),
        "netsim.delivered": c("netsim.delivered"),
        "netsim.expired": c("netsim.expired"),
        "netsim.invalidated": c("netsim.invalidated"),
        "netsim.collisions": c("netsim.collisions"),
        "netsim.delivered_ratio": ratio(c("netsim.delivered"), c("netsim.successes")),
        "netsim.served_ratio": ratio(c("netsim.served"), c("netsim.requests")),
        "circuits.parse_s": total["circuits.parse_circuit"],
        "circuits.ops": c("circuits.ops"),
        "scheduler.assign_s": total["scheduler.assign_qubits"],
        "scheduler.ideal_s": total["scheduler.schedule:ideal"],
        "scheduler.buffered_s": total["scheduler.schedule:buffered"],
        "scheduler.us_per_op": ratio(1e6 * self_s.get("scheduler", 0.0),
                                     c("scheduler.ops")),
        "scheduler.supply_s": total["netsim.run_sim:supply"],
        "scheduler.supply_sim_calls": calls["netsim.run_sim:supply"],
        "scheduler.ops": c("scheduler.ops"),
        "scheduler.remote_ops": c("scheduler.remote_ops"),
        "scheduler.crossings": c("scheduler.crossings"),
        "scheduler.pair_wait_s": c("scheduler.pair_wait_s"),
        "ising.brute_force_s": total["ising.brute_force_ground_state"],
        "ising.configs_per_s": ratio(c("ising.configs"),
                                     total["ising.brute_force_ground_state"]),
        "ising.adiabatic_s": total["ising.adiabatic_evolve"],
        "ising.trotter_steps_per_s": ratio(c("ising.trotter_steps"),
                                           total["ising.adiabatic_evolve"]),
        "ising.adiabatic_enum_s": total["ising.ground_state_indices"],
        "ising.anneal_s": total["ising.anneal_classical"],
        "ising.spin_updates_per_s": ratio(c("ising.spin_updates"),
                                          total["ising.anneal_classical"]),
        "ising.anneal_misses": c("ising.anneal_misses"),
        "ising.norm_drift_max": c("ising.norm_drift_max"),
        "qec.hgp_s": total["qec.hypergraph_product_graph"],
        "qec.gf2_rank_s": total["qec.gf2_rank"],
        "qec.css_check_s": total["qec.css_commutation_ok"],
        "qec.surface_s": total["qec.surface_code_graph"],
        "qec.steane_s": total["qec.steane_concat_graph"],
        "qec.embed_grid_s": total["qec.embed_on_grid"],
        "qec.embed_modular_s": total["qec.embed_on_modular"],
        "qec.nodes_per_s": ratio(c("qec.nodes"), qec_s),
        "qec.swap_count": c("qec.swap_count"),
        "qec.pairs_per_round": c("qec.pairs_per_round"),
    }


if __name__ == "__main__":
    sys.exit(main())
