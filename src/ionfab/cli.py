"""Single-entry command line tool.

Exit codes: 0 success, 1 domain error (bad inputs, failed validation),
2 usage error. Diagnostics and the run manifest go to stderr; data goes to
stdout or to ``--out``. Reports are bit-stable: identical inputs produce
byte-identical files (sorted keys, shortest round-trip float formatting).

Each subcommand handler takes ``(args, read)`` and returns ``(exit_code,
files)``, where ``files`` is a list of ``(path, text)`` and a ``None`` path
means stdout. A handler reads input files only through ``read(parse,
path)``, which reads the bytes once, hashes them and parses their text (so
a pipe such as ``/dev/stdin`` works), and writes nothing itself, apart from
printing its ``--summary`` line.
:func:`main` owns the rest of the run: the ``--seed`` rule, the input
hashes, writing the files in order, one ``ionfab: warning:`` line per
library warning, the one ``ionfab: error:`` line and the manifest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
import warnings
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .arch import parse_architecture
from .circuits import parse_circuit
from .errors import InvalidArchitecture, IonfabError, ParseError, SchemaError
from .graph import build_interaction_graph, graph_distance_profile, to_dot
from .ising import (AnnealSchedule, adiabatic_evolve, anneal_classical,
                    brute_force_ground_state, instance_to_doc, parse_instance,
                    power_law_couplings)
from .jsondoc import (decode, each, fixed_array, integer, number, parse_json,
                      require_keys, string)
from .netsim import Link, SwitchConfig, make_link, run_sim
from .qec import (embed_on_grid, embed_on_modular, hypergraph_product_graph,
                  parse_check_matrix_csv, parse_qec, qec_to_doc,
                  steane_concat_graph, surface_code_graph)
from .rates import rate_report
from .scheduler import QubitMap, assign_qubits, schedule

_STOCHASTIC_HINT = "stochastic command requires --seed (no hidden entropy)"

Files = list[tuple[str | None, str]]  # (path, text); path None is stdout


def render_json(doc) -> str:
    try:
        return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise IonfabError("report holds a non-finite number, "
                          "which JSON cannot represent") from None


def render_csv_row(doc: dict) -> str:
    keys = sorted(doc)
    head = ",".join(keys)
    row = ",".join(repr(doc[k]) if isinstance(doc[k], float) else str(doc[k])
                   for k in keys)
    return f"{head}\n{row}\n"


def _json(parse):
    """A text parser that hands the decoded JSON document to ``parse``."""
    return lambda text: parse(parse_json(text))


def _needs_seed(args) -> bool:
    """Whether the run draws random numbers, and so must be given --seed."""
    return (args.command == "simulate"
            or getattr(args, "ising_cmd", None) == "anneal"
            or getattr(args, "pairs", None) == "buffered"
            or (getattr(args, "host", None) == "grid"
                and getattr(args, "placement", None) == "random"))


# ---------------------------------------------------------------------------
# Subcommand handlers; each takes (args, read) and returns (exit_code, files)
# ---------------------------------------------------------------------------

def _cmd_validate(args, read) -> tuple[int, Files]:
    try:
        read(_json(parse_architecture), args.arch)
    except InvalidArchitecture as exc:
        doc = {"ok": False,
               "violations": [{"path": v.path, "message": v.message}
                              for v in exc.report.violations]}
        return 1, [(args.out, render_json(doc))]
    return 0, [(args.out, render_json({"ok": True, "violations": []}))]


def _cmd_rates(args, read) -> tuple[int, Files]:
    spec = read(_json(parse_architecture), args.arch)
    elu_id = args.elu or spec.elus[0].id
    report = rate_report(spec, elu_id)
    if args.summary:
        print(f"ELU {elu_id}: gate rate {report.gate_rate / 1e3:.1f} kHz, "
              f"connection rate {report.mean_connection_rate:.1f} Hz "
              f"(p = {report.link_success_probability:.2e})")
    doc = asdict(report)
    text = render_csv_row(doc) if args.format == "csv" else render_json(doc)
    return 0, [(args.out, text)]


def _cmd_graph(args, read) -> tuple[int, Files]:
    g = build_interaction_graph(read(_json(parse_architecture), args.arch))
    if args.format == "dot":
        text = to_dot(g, tier=args.tier)
    else:
        edges = [
            {"a": g.nodes[e.a].label, "b": g.nodes[e.b].label,
             "tier": e.tier.value, "time_s": e.time_cost, "fidelity": e.fidelity}
            for e in g.edges if args.tier is None or e.tier.value == args.tier
        ]
        doc = {
            "nodes": [{"elu": n.elu_id, "position": n.position,
                       "role": n.role.value} for n in g.nodes],
            "edges": edges,
        }
        text = render_json(doc)
    if args.summary:
        profile = graph_distance_profile(g, args.tier or "collective")
        print(f"{len(g.nodes)} qubits; tier {args.tier or 'collective'}: "
              f"max hop distance {profile.max_distance}, "
              f"{profile.unreachable_pairs} unreachable pairs")
    return 0, [(args.out, text)]


def _cmd_ising(args, read) -> tuple[int, Files]:
    sub = args.ising_cmd
    if sub is None:
        if args.n is None or args.alpha is None:
            raise IonfabError("generation requires --n and --alpha "
                              "(or use: ionfab ising solve|adiabatic|anneal)")
        inst = power_law_couplings(args.n, args.alpha, args.j0)
        return 0, [(args.out, render_json(instance_to_doc(inst)))]

    inst = read(_json(parse_instance), args.instance)
    if sub == "solve":
        configs, best = brute_force_ground_state(inst)
        doc = {"minimum_energy": best,
               "ground_states": [list(c.spins) for c in configs],
               "n": inst.n_spins}
        if args.summary:
            print(f"minimum energy {best} with {len(configs)} optimal "
                  f"configuration(s) reported")
        return 0, [(args.out, render_json(doc))]
    if sub == "adiabatic":
        run = adiabatic_evolve(inst, args.time, args.steps)
        doc = {"ground_overlap": run.ground_overlap,
               "total_time": run.total_time, "steps": run.steps,
               "final_norm": run.final_norm,
               "final_ising_energy": run.final_ising_energy}
        if args.summary:
            print(f"overlap with ground space: {run.ground_overlap:.4f}")
        files = [(args.out, render_json(doc))]
        if args.trace:
            rows = ["step,energy"] + [f"{i},{e!r}" for i, e in
                                      enumerate(run.energy_trace)]
            files.append((args.trace, "\n".join(rows) + "\n"))
        return 0, files
    schedule_ = AnnealSchedule(t_start=args.t_start, t_factor=args.t_factor,
                               t_min=args.t_min, sweeps_per_temp=args.sweeps)
    config, best = anneal_classical(inst, schedule_, args.seed)
    if args.summary:
        print(f"best energy {best}")
    return 0, [(args.out, render_json({"energy": best, "config": list(config.spins)}))]


def _cmd_qec(args, read) -> tuple[int, Files]:
    sub = args.qec_cmd
    if sub == "embed":
        grid = args.host == "grid"
        if grid and args.partition is not None:
            raise IonfabError("--partition applies only to a machine file --host")
        if not grid and args.placement is not None:
            raise IonfabError("--placement applies only to --host grid")
        code = read(_json(parse_qec), args.code)
        if grid:
            rep = embed_on_grid(code, args.placement or "row_major", seed=args.seed)
            doc = {
                "host": rep.host, "grid_side": rep.grid_side,
                "swap_count": rep.swap_count,
                "max_check_span": rep.max_check_span,
                "mean_route_length": rep.mean_route_length,
                "per_check_route_length": list(rep.per_check_route_length),
            }
            if args.summary:
                print(f"grid {rep.grid_side}x{rep.grid_side}: "
                      f"{rep.swap_count} swaps, max span {rep.max_check_span}")
        else:
            rep = embed_on_modular(code, read(_json(parse_architecture), args.host),
                                   args.partition or "greedy_cut")
            doc = {
                "host": rep.host, "pairs_per_round": rep.pairs_per_round,
                "max_check_span": rep.max_check_span,
                "per_check_route_length": list(rep.per_check_route_length),
                "per_check_remote_elus": list(rep.per_check_remote_elus),
            }
            if args.summary:
                print(f"modular: {rep.pairs_per_round} pairs per round")
        return 0, [(args.out, render_json(doc))]
    if sub == "surface":
        code = surface_code_graph(args.d)
    elif sub == "steane":
        code = steane_concat_graph(args.levels)
    else:
        code = hypergraph_product_graph(read(parse_check_matrix_csv, args.h1),
                                        read(parse_check_matrix_csv, args.h2))
    if args.summary:
        print(f"{code.family}: {code.n_data} data, {code.n_checks} checks, "
              f"max weight {max(c.weight for c in code.checks)}")
    return 0, [(args.out, render_json(qec_to_doc(code)))]


def _switch_entry(entry: object) -> tuple[float, SwitchConfig]:
    require_keys(entry, "$", {"time_s", "links"})
    links = each(entry["links"], "$.links", _link)
    return number(entry, "time_s", "$"), SwitchConfig(frozenset(links))


def _link(row: object) -> Link:
    fixed_array(row, 4, "[elu_a, port_a, elu_b, port_b]")
    return make_link((string(row, 0, "$"), integer(row, 1, "$")),
                     (string(row, 2, "$"), integer(row, 3, "$")))


def _request(entry: object) -> tuple[float, tuple[str, str]]:
    require_keys(entry, "$", {"time_s", "elus"})
    elus = fixed_array(entry["elus"], 2, "[elu_a, elu_b]", "$.elus")
    return (number(entry, "time_s", "$"),
            (string(elus, 0, "$.elus"), string(elus, 1, "$.elus")))


def _qubit_map(doc: object) -> dict[int, tuple[str, int]]:
    if not isinstance(doc, dict):
        raise SchemaError(f"expected object, got {type(doc).__name__}")
    user_map = {}
    for q, target in doc.items():
        try:
            qubit = int(q)
        except ValueError:
            qubit = -1
        if qubit < 0 or str(qubit) != q:
            raise SchemaError("expected a qubit index as key", f"$.{q}")
        try:
            fixed_array(target, 2, "[elu, position]")
            user_map[qubit] = string(target, 0, "$"), integer(target, 1, "$")
        except SchemaError as exc:
            raise exc.under(f"$.{q}") from None
    return user_map


def sim_result_doc(result) -> dict:
    return {
        "schema": "ionfab-sim/1",
        "horizon_s": result.horizon,
        "seed": result.seed,
        "links": {label: {"attempts": s.attempts, "successes": s.successes,
                          "measured_rate_hz": s.measured_rate}
                  for label, s in result.per_link.items()},
        "mean_connection_rate_hz": result.mean_connection_rate,
        "ledger": {**asdict(result.ledger), "conserved": result.ledger.conserved},
        "collisions": result.collisions,
        "requests": {"count": result.request_count,
                     "served": result.requests_served,
                     "latency_mean_s": result.latency_mean,
                     "latency_max_s": result.latency_max},
    }


def _cmd_simulate(args, read) -> tuple[int, Files]:
    spec = read(_json(parse_architecture), args.arch)
    switch_schedule = read(_json(lambda doc: each(doc, "$", _switch_entry)),
                           args.schedule)
    demand = (read(_json(lambda doc: each(doc, "$", _request)), args.demand)
              if args.demand else [])
    result = run_sim(spec, switch_schedule, demand, args.horizon, args.seed,
                     p_override=args.p, store_log=args.log is not None)
    if args.summary:
        print(f"{result.ledger.successes} pairs generated, "
              f"{result.ledger.delivered} delivered, "
              f"mean rate {result.mean_connection_rate:.2f} Hz")
    files = [(args.out, render_json(sim_result_doc(result)))]
    if args.log:
        files.append((args.log, result.events_csv()))
    return 0, files


def _cmd_schedule(args, read) -> tuple[int, Files]:
    spec = read(_json(parse_architecture), args.arch)
    circuit = read(parse_circuit, args.circuit)
    if args.map.startswith("file:"):
        qmap = QubitMap(read(_json(_qubit_map), args.map[5:]))
    elif args.map == "greedy":
        qmap = assign_qubits(circuit, spec, "greedy_interaction_cut")
    elif args.map == "roundrobin":
        qmap = assign_qubits(circuit, spec, "round_robin")
    else:
        raise IonfabError(f"unknown map strategy {args.map!r}")
    result = schedule(circuit, qmap, spec, pair_supply_mode=args.pairs,
                      seed=args.seed)
    doc = {
        "makespan_s": result.makespan,
        "pairs_consumed": result.pairs_consumed,
        "swaps_inserted": result.swaps_inserted,
        "fidelity_estimate": result.fidelity_estimate,
        "mode": result.mode,
        "operations": len(result.timeline),
    }
    if args.summary:
        print(f"makespan {result.makespan * 1e3:.3f} ms, "
              f"{result.pairs_consumed} pairs, "
              f"fidelity {result.fidelity_estimate:.4f}")
    files = [(args.out, render_json(doc))]
    if args.timeline:
        files.append((args.timeline, result.timeline_csv()))
    return 0, files


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ionfab",
        description="Resource estimation and simulation for modular "
                    "trapped-ion machines.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    # SUPPRESS keeps a nested subparser from clobbering a value the parent
    # parser already set (e.g. `ionfab ising --out f.json solve x`).
    def common(p):
        p.add_argument("--out", metavar="PATH", default=argparse.SUPPRESS,
                       help="write the report here instead of stdout")
        p.add_argument("--summary", action="store_true",
                       default=argparse.SUPPRESS,
                       help="also print a human-readable summary")
        p.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                       help="RNG seed (required for stochastic runs)")

    p = sub.add_parser("validate", help="check an architecture file")
    p.add_argument("arch", help="ionfab-arch/1 JSON file")
    common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("rates", help="physical rate report for one ELU")
    p.add_argument("arch")
    p.add_argument("--elu", help="ELU id (default: first)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    common(p)
    p.set_defaults(func=_cmd_rates)

    p = sub.add_parser("graph", help="interaction graph export")
    p.add_argument("arch")
    p.add_argument("--tier", choices=("fast", "collective"), default=None)
    p.add_argument("--format", choices=("json", "dot"), default="json")
    common(p)
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("ising", help="Ising instances and solvers")
    p.add_argument("--n", type=int, help="spin count (generation mode)")
    p.add_argument("--alpha", type=float, help="power-law exponent in [0,3]")
    p.add_argument("--j0", type=float, default=1.0, help="coupling scale")
    common(p)
    isub = p.add_subparsers(dest="ising_cmd", metavar="ACTION")
    ps = isub.add_parser("solve", help="brute-force ground states")
    ps.add_argument("instance")
    common(ps)
    pa = isub.add_parser("adiabatic", help="statevector sweep")
    pa.add_argument("instance")
    pa.add_argument("--time", type=float, required=True,
                    help="total schedule time in units of 1/|j0|")
    pa.add_argument("--steps", type=int, required=True)
    pa.add_argument("--trace", metavar="CSV", help="write the energy trace here")
    common(pa)
    pn = isub.add_parser("anneal", help="Metropolis annealing")
    pn.add_argument("instance")
    pn.add_argument("--t-start", type=float, default=5.0)
    pn.add_argument("--t-factor", type=float, default=0.95)
    pn.add_argument("--t-min", type=float, default=1e-2)
    pn.add_argument("--sweeps", type=int, default=2)
    common(pn)
    p.set_defaults(func=_cmd_ising)

    p = sub.add_parser("qec", help="QEC graph families and embeddings")
    qsub = p.add_subparsers(dest="qec_cmd", metavar="FAMILY", required=True)
    pq = qsub.add_parser("surface", help="rotated surface-code patch")
    pq.add_argument("--d", type=int, required=True, help="odd code distance")
    common(pq)
    pq = qsub.add_parser("steane", help="concatenated Steane code")
    pq.add_argument("--levels", type=int, required=True)
    common(pq)
    pq = qsub.add_parser("hgp", help="hypergraph product of two check matrices")
    pq.add_argument("--h1", required=True, help="dense 0/1 CSV")
    pq.add_argument("--h2", required=True, help="dense 0/1 CSV")
    common(pq)
    pq = qsub.add_parser("embed", help="cost a code on a host")
    pq.add_argument("--code", required=True, help="ionfab-qec/1 JSON")
    pq.add_argument("--host", required=True,
                    help="'grid' or an architecture JSON path")
    pq.add_argument("--placement", choices=("row_major", "random", "native"))
    pq.add_argument("--partition", choices=("greedy_cut", "round_robin"))
    common(pq)
    p.set_defaults(func=_cmd_qec)

    p = sub.add_parser("simulate", help="photonic network simulation")
    p.add_argument("arch")
    p.add_argument("--schedule", required=True, help="switch schedule JSON")
    p.add_argument("--demand", help="pair request JSON")
    p.add_argument("--horizon", type=float, required=True, help="seconds")
    p.add_argument("--log", metavar="CSV", help="write the event log here")
    p.add_argument("--p", type=float, default=None,
                   help="override the per-attempt success probability")
    common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("schedule", help="map and schedule a circuit")
    p.add_argument("arch")
    p.add_argument("circuit", help=".iqc circuit file")
    p.add_argument("--map", default="greedy",
                   help="greedy | roundrobin | file:PATH")
    p.add_argument("--pairs", choices=("ideal", "buffered"), default="ideal")
    p.add_argument("--timeline", metavar="CSV", help="write the timeline here")
    common(p)
    p.set_defaults(func=_cmd_schedule)

    return parser


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    parser = build_parser()
    args = parser.parse_args(argv)
    for name, default in (("out", None), ("summary", False), ("seed", None)):
        if not hasattr(args, name):
            setattr(args, name, default)
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 2

    inputs: dict[str, str | None] = {}  # path -> sha256 of the bytes read
    outputs: list[str] = []

    def read(parse, path: str):
        """``parse`` of the text of the file at ``path``, read once and
        hashed; a malformed file's SchemaError or ParseError names it."""
        inputs[path] = None  # stays null if the read fails
        data = Path(path).read_bytes()
        inputs[path] = hashlib.sha256(data).hexdigest()
        try:
            return parse(decode(data))
        except (SchemaError, ParseError) as exc:
            raise IonfabError(f"{path}: {exc}") from exc

    with warnings.catch_warnings():
        warnings.simplefilter("always", UserWarning)
        warnings.showwarning = lambda message, *_: print(
            f"ionfab: warning: {message}", file=sys.stderr)
        try:
            if args.seed is None and _needs_seed(args):
                raise IonfabError(_STOCHASTIC_HINT)
            code, files = args.func(args, read)
            for path, text in files:
                if path is None:
                    sys.stdout.write(text)
                else:
                    Path(path).write_text(text)
                    outputs.append(path)
        except (IonfabError, OSError) as exc:
            print(f"ionfab: error: {exc}", file=sys.stderr)
            code = 1
    print(json.dumps({"tool_version": __version__, "subcommand": args.command,
                      "inputs": inputs, "seed": args.seed,
                      "wall_time_s": round(time.monotonic() - started, 6),
                      "outputs": outputs}, sort_keys=True), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
