"""ionfab benchmark: one workload, one seed, one run.

Usage, from the repository root:

    python3 bench/run.py --workload netsim-multiplex --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json from an
untraced worker process, with set-up timed over several fresh interpreters.
``--trace 1`` runs the workload twice, untraced and traced, and reports the
per-layer metrics and the tracing overhead. Human-readable lines come
first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_SAMPLES = 9      # timed set-ups per run; the median is reported
RUN_BUDGET_S = 170.0   # the whole run, every worker included
# One BLAS thread and a fixed string-hash seed, so that runs on a shared
# 2-CPU host differ only in their seed and the host's load.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class RunFailed(Exception):
    pass


def spawn(worker_args: list[str], deadline: float) -> tuple[float, dict | None]:
    """Start a worker; return its set-up seconds and its JSON result.

    Set-up is the worker's CPU time from the start of its interpreter until
    it prints READY, in reference seconds (see ``clock.py``). A worker still
    running at ``deadline`` is killed.
    """
    proc = subprocess.Popen([sys.executable, str(WORKER), *worker_args],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            env=dict(os.environ, **WORKER_ENV))
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline().split()
        rest = proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait()
        watchdog.cancel()
    if ready[:1] != ["READY"] or proc.returncode != 0:
        raise RunFailed(f"worker {' '.join(worker_args)} exited with code "
                        f"{proc.returncode}")
    lines = rest.splitlines()
    return float(ready[1]), json.loads(lines[-1]) if lines else None


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in config["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "ionfab" / "__init__.py").is_file():
        print(f"bench: no ionfab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    worker_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds)]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    try:
        # Untimed warm-up: byte-code caches and the file cache fill here.
        spawn(worker_args + ["--setup-only"], deadline)
        if args.trace:
            _, plain = spawn(worker_args, deadline)
            _, traced = spawn(worker_args + ["--trace"], deadline)
            runs = [plain, traced]
            values = dict(traced["layers"])
            values["trace.overhead_share"] = 1.0 - traced["tasks_per_s"] / plain["tasks_per_s"]
            metrics = config["per_layer"]
        else:
            setups = [spawn(worker_args + ["--setup-only"], deadline)[0]
                      for _ in range(SETUP_SAMPLES - 1)]
            setup_s, plain = spawn(worker_args, deadline)
            setups.append(setup_s)
            runs = [plain]
            values = {key: plain[key] for key in
                      ("tasks_per_s", "task_p50_s", "task_p90_s", "peak_rss_mb")}
            values["setup_s"] = statistics.median(setups)
            values["ok_share"] = 1.0 - plain["failed"] / plain["attempted"]
            print("setup_s samples " + " ".join(f"{s:.4f}" for s in setups))
            metrics = config["end_to_end"]
    except RunFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    m = plain["machine"]
    print(f"machine python {m['python']} numpy {m['numpy']} openblas {m['blas']} "
          f"nproc {os.cpu_count()} "
          + " ".join(f"{k}={v}" for k, v in sorted(WORKER_ENV.items())))
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for r in runs:
        print(f"tasks {r['attempted']} attempted, {r['failed']} failed "
              f"(failed_share {r['failed'] / r['attempted']:.4g}), "
              f"{r['samples']} timed samples; {r['cpu_tasks_per_s']:.4f} tasks "
              f"per CPU second unscaled; {r['cpu_s']:.3f} CPU s over "
              f"{r['elapsed_s']:.3f} s")
        for line in r["failures"]:
            print(f"FAILED {line}")
    print(f"digest {args.workload} sha256={plain['digest']} (tasks 0-99)")
    correct = failed == 0
    if args.trace:
        if traced["digest"] != plain["digest"]:
            print("FAILED traced run digest differs from the untraced run")
            correct = False
        print(f"tracing overhead: tasks_per_s {plain['tasks_per_s']:.4f} untraced, "
              f"{traced['tasks_per_s']:.4f} traced; {traced['spans']} spans "
              f"written to {traced['spans_file']}")
        for layer, seconds in sorted(traced["self_s"].items()):
            print(f"self_s {layer} {seconds:.6f} s")
    for metric in metrics:
        name = metric["name"]
        note = ""
        if args.trace:
            missing = [t for t, names in traced["absent"].items() if name in names]
            if missing:
                note = f"  (absent: wrap target {missing[0]} no longer exists)"
            elif name.split(".", 1)[0] not in set(traced["self_s"]) | {"trace"}:
                note = "  (absent: layer does not run on this workload)"
        print(f"metric {name} {values[name]!r} {metric['unit']}{note}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric["name"]: {"value": values[metric["name"]],
                                     "unit": metric["unit"]} for metric in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
