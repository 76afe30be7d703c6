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

A run pays only for its own work. The parser holds only the command that
``argv[0]`` names and, for ``ising`` and ``qec``, the action that
``argv[1]`` names; an option or an unknown name in either place gets
every command or action there, so help, usage and errors read the same
(:func:`build_parser`). :func:`render_json` writes a
report's bytes as ``json.dumps(doc, sort_keys=True, indent=2,
allow_nan=False)`` does, without the pure-Python encoder that ``indent``
selects. ``simulate`` checks each distinct switch configuration of its
schedule once, however many entries repeat it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import marshal
import sys
import time
import warnings
from dataclasses import asdict
from json.encoder import encode_basestring_ascii as _json_string
from math import isfinite
from pathlib import Path

from . import __version__
from .arch import parse_architecture
from .circuits import parse_circuit
from .errors import (DomainError, InvalidArchitecture, IonfabError, ParseError,
                     SchemaError)
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
    """``json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\\n"``,
    byte for byte, written without the pure-Python encoder that json's
    ``indent`` selects; a non-finite float is an IonfabError. Report keys
    are str: any other key, like any value json cannot write, is a
    TypeError."""
    out: list[str] = []
    _write_json(doc, out, "\n")
    out.append("\n")
    return "".join(out)


_INT = frozenset((int,))  # the element type of a list written in one join


def _write_json(o, out: list[str], nl: str) -> None:
    """Append the JSON text of ``o`` to ``out``: leaves as json writes
    them, tested in json's order, and containers one item a line, where
    ``nl`` is the newline and indent of the line ``o`` ends on."""
    if isinstance(o, str):
        out.append(_json_string(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        if not isfinite(o):
            raise IonfabError("report holds a non-finite number, "
                              "which JSON cannot represent")
        out.append(float.__repr__(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = nl + "  "
        if _INT.issuperset(map(type, o)):
            out.append(f"[{inner}{(',' + inner).join(map(int.__repr__, o))}{nl}]")
            return
        sep = "[" + inner
        for item in o:
            out.append(sep)
            _write_json(item, out, inner)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, value in sorted(o.items()):
            out.append(f"{sep}{_json_string(key)}: ")  # a non-str key is a TypeError
            _write_json(value, out, inner)
            sep = "," + inner
        out.append(nl + "}")
    else:
        raise TypeError(f"Object of type {type(o).__name__} "
                        f"is not JSON serializable")


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
            doc = {"grid_side": rep.grid_side, "swap_count": rep.swap_count,
                   "mean_route_length": rep.mean_route_length}
            if args.summary:
                print(f"grid {rep.grid_side}x{rep.grid_side}: "
                      f"{rep.swap_count} swaps, max span {rep.max_check_span}")
        else:
            rep = embed_on_modular(code, read(_json(parse_architecture), args.host),
                                   args.partition or "greedy_cut")
            doc = {"pairs_per_round": rep.pairs_per_round,
                   "per_check_remote_elus": list(rep.per_check_remote_elus)}
            if args.summary:
                print(f"modular: {rep.pairs_per_round} pairs per round")
        doc.update(host=rep.host, max_check_span=rep.max_check_span,
                   per_check_route_length=list(rep.per_check_route_length))
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


def _switch_schedule(doc: object) -> list[tuple[float, SwitchConfig]]:
    """The (time, config) entries of a switch schedule document.

    A schedule repeats a few configurations many times, so each distinct
    ``links`` array is checked once and its entries share one SwitchConfig.
    Arrays are told apart by their marshal bytes, which, unlike ``==``,
    tell ``true``, ``1`` and ``1.0`` apart (each has its own type code),
    and which cost a quarter of a repr.
    """
    configs: dict[bytes, SwitchConfig] = {}  # marshal of a valid links array

    def entry(item: object) -> tuple[float, SwitchConfig]:
        require_keys(item, "$", {"time_s", "links"})
        key = marshal.dumps(item["links"])
        cfg = configs.get(key)
        if cfg is not None:
            return number(item, "time_s", "$"), cfg
        links = each(item["links"], "$.links", _link)
        t = number(item, "time_s", "$")
        try:
            cfg = configs[key] = SwitchConfig(frozenset(links))
        except DomainError as exc:
            raise SchemaError(str(exc), "$.links") from None
        return t, cfg

    return each(doc, "$", entry)


def _link(row: object) -> Link:
    fixed_array(row, 4, "[elu_a, port_a, elu_b, port_b]")
    a = (string(row, 0, "$"), integer(row, 1, "$"))
    b = (string(row, 2, "$"), integer(row, 3, "$"))
    try:
        return make_link(a, b)
    except DomainError as exc:
        raise SchemaError(str(exc)) from None


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
    switch_schedule = read(_json(_switch_schedule), args.schedule)
    demand = (read(_json(lambda doc: each(doc, "$", _request)), args.demand)
              if args.demand else [])
    try:
        result = run_sim(spec, switch_schedule, demand, args.horizon, args.seed,
                         p_override=args.p, store_log=args.log is not None)
    except DomainError as exc:
        if exc.where is None:
            raise
        arg, path = exc.where  # the entry or request at fault, by its file
        file = args.schedule if arg == "switch_schedule" else args.demand
        raise IonfabError(f"{file}: {path}: {exc}") from exc
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

def _seed(text: str) -> int:
    """A ``--seed`` value: an integer >= 0. ``random.Random`` seeds with the
    seed's absolute value, so a negative seed would repeat another's run."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def _common(p) -> None:
    """The options of every command parser and every action parser, added
    after the parser's own."""
    # SUPPRESS keeps a nested subparser from clobbering a value the parent
    # parser already set (e.g. `ionfab ising --out f.json solve x`).
    p.add_argument("--out", metavar="PATH", default=argparse.SUPPRESS,
                   help="write the report here instead of stdout")
    p.add_argument("--summary", action="store_true", default=argparse.SUPPRESS,
                   help="also print a human-readable summary")
    p.add_argument("--seed", type=_seed, default=argparse.SUPPRESS,
                   help="RNG seed (required for stochastic runs)")


def _validate_options(p) -> None:
    p.add_argument("arch", help="ionfab-arch/1 JSON file")


def _rates_options(p) -> None:
    p.add_argument("arch")
    p.add_argument("--elu", help="ELU id (default: first)")
    p.add_argument("--format", choices=("json", "csv"), default="json")


def _graph_options(p) -> None:
    p.add_argument("arch")
    p.add_argument("--tier", choices=("fast", "collective"), default=None)
    p.add_argument("--format", choices=("json", "dot"), default="json")


def _ising_options(p) -> None:
    p.add_argument("--n", type=int, help="spin count (generation mode)")
    p.add_argument("--alpha", type=float, help="power-law exponent in [0,3]")
    p.add_argument("--j0", type=float, default=1.0, help="coupling scale")


def _solve_options(p) -> None:
    p.add_argument("instance")


def _adiabatic_options(p) -> None:
    p.add_argument("instance")
    p.add_argument("--time", type=float, required=True,
                   help="total schedule time in units of 1/|j0|")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--trace", metavar="CSV", help="write the energy trace here")


def _anneal_options(p) -> None:
    p.add_argument("instance")
    p.add_argument("--t-start", type=float, default=5.0)
    p.add_argument("--t-factor", type=float, default=0.95)
    p.add_argument("--t-min", type=float, default=1e-2)
    p.add_argument("--sweeps", type=int, default=2)


def _surface_options(p) -> None:
    p.add_argument("--d", type=int, required=True, help="odd code distance")


def _steane_options(p) -> None:
    p.add_argument("--levels", type=int, required=True)


def _hgp_options(p) -> None:
    p.add_argument("--h1", required=True, help="dense 0/1 CSV")
    p.add_argument("--h2", required=True, help="dense 0/1 CSV")


def _embed_options(p) -> None:
    p.add_argument("--code", required=True, help="ionfab-qec/1 JSON")
    p.add_argument("--host", required=True,
                   help="'grid' or an architecture JSON path")
    p.add_argument("--placement", choices=("row_major", "random", "native"))
    p.add_argument("--partition", choices=("greedy_cut", "round_robin"))


def _simulate_options(p) -> None:
    p.add_argument("arch")
    p.add_argument("--schedule", required=True, help="switch schedule JSON")
    p.add_argument("--demand", help="pair request JSON")
    p.add_argument("--horizon", type=float, required=True, help="seconds")
    p.add_argument("--log", metavar="CSV", help="write the event log here")
    p.add_argument("--p", type=float, default=None,
                   help="override the per-attempt success probability")


def _schedule_options(p) -> None:
    p.add_argument("arch")
    p.add_argument("circuit", help=".iqc circuit file")
    p.add_argument("--map", default="greedy",
                   help="greedy | roundrobin | file:PATH")
    p.add_argument("--pairs", choices=("ideal", "buffered"), default="ideal")
    p.add_argument("--timeline", metavar="CSV", help="write the timeline here")


# name -> (help line, options, handler), in the order of ``ionfab --help``;
# options None: the command takes no option before its action, not even
# the common ones
_COMMANDS = {
    "validate": ("check an architecture file", _validate_options, _cmd_validate),
    "rates": ("physical rate report for one ELU", _rates_options, _cmd_rates),
    "graph": ("interaction graph export", _graph_options, _cmd_graph),
    "ising": ("Ising instances and solvers", _ising_options, _cmd_ising),
    "qec": ("QEC graph families and embeddings", None, _cmd_qec),
    "simulate": ("photonic network simulation", _simulate_options, _cmd_simulate),
    "schedule": ("map and schedule a circuit", _schedule_options, _cmd_schedule),
}

# command -> (dest, metavar, required, {action: (help line, options)}), for
# the commands whose action is a second, nested subcommand
_ACTIONS = {
    "ising": ("ising_cmd", "ACTION", False, {
        "solve": ("brute-force ground states", _solve_options),
        "adiabatic": ("statevector sweep", _adiabatic_options),
        "anneal": ("Metropolis annealing", _anneal_options),
    }),
    "qec": ("qec_cmd", "FAMILY", True, {
        "surface": ("rotated surface-code patch", _surface_options),
        "steane": ("concatenated Steane code", _steane_options),
        "hgp": ("hypergraph product of two check matrices", _hgp_options),
        "embed": ("cost a code on a host", _embed_options),
    }),
}


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The ``ionfab`` parser for ``argv``, or the full parser when None.

    When ``argv[0]`` names a command, the parser holds that command
    alone, and when ``argv[1]`` names one of its actions (``ising`` and
    ``qec`` have them), that action alone. argparse hands the rest of
    argv to the parser of that command and action, so each help text,
    usage line and ``invalid choice`` list it prints is the full
    parser's. An option or an unknown name in place of the command gets
    the full parser, and in place of the action every action.
    """
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    actions = _ACTIONS[command][3] if command in _ACTIONS else {}
    action = argv[1] if len(argv or ()) > 1 and argv[1] in actions else None
    parser = argparse.ArgumentParser(
        prog="ionfab",
        description="Resource estimation and simulation for modular "
                    "trapped-ion machines.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, (help_line, options, handler) in _COMMANDS.items():
        if command not in (None, name):
            continue
        p = sub.add_parser(name, help=help_line)
        if options is not None:
            options(p)
            _common(p)
        p.set_defaults(func=handler)
        if name in _ACTIONS:
            dest, metavar, required, actions = _ACTIONS[name]
            psub = p.add_subparsers(dest=dest, metavar=metavar, required=required)
            for a, (a_help, a_options) in actions.items():
                if action in (None, a):
                    ap = psub.add_parser(a, help=a_help)
                    a_options(ap)
                    _common(ap)
    return parser


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv)
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
