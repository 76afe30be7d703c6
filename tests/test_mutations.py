"""Mutated input files end in a result or in one diagnostic, never a traceback.

Each example takes one input document, mutates one node of it and runs
``cli.main`` in-process. A mutation drops the node, gives it a value of
another type, NaN, +inf, -inf, a negative or a huge value. The return code
must be 0 or 1, an exit 1 must print exactly one ``ionfab: error:`` line,
an exit 0 must hash exactly the files its command line names, no exception
may escape, and the run must stay within ``RUN_CPU_LIMIT_S`` of CPU time
(the size caps bound the work a huge value can ask for). For architecture,
Ising and QEC documents every mutant that the published schema rejects must
be rejected by the parser too.
"""

import copy
import functools
import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from operator import getitem
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EXAMPLE_JSON, FIXTURES_DIR, SCHEMAS_DIR
from ionfab.arch import parse_architecture
from ionfab.cli import main
from ionfab.errors import IonfabError
from ionfab.ising import instance_to_doc, parse_instance, power_law_couplings
from ionfab.qec import (hypergraph_product_graph, parse_qec, qec_to_doc,
                        repetition_check_matrix, steane_concat_graph,
                        surface_code_graph)

OTHER_VALUES = ("x", [], {}, True, None, 1.5, 7)
HUGE_INT = 10**18  # far above every size cap
# CPU seconds one run may take; every mutant runs in well under one.
RUN_CPU_LIMIT_S = 10.0
KINDS = ("drop", "type", "nan", "inf", "-inf", "negative", "huge")

ARCH = str(FIXTURES_DIR / "netsim_arch.json")
SCHEDULE = str(FIXTURES_DIR / "netsim_schedule.json")
DEMAND = str(FIXTURES_DIR / "netsim_demand.json")
MUX_ARCH = str(FIXTURES_DIR / "multiplex_arch.json")
MUX_SCHEDULE = str(FIXTURES_DIR / "multiplex_schedule.json")
MUX_DEMAND = str(FIXTURES_DIR / "multiplex_demand.json")
HORIZON = ["--horizon", "0.05", "--seed", "3"]

# argv for each fixture, given the path of its mutant.
FIXTURE_RUNS = {
    "netsim_arch.json": lambda p: ["simulate", p, "--schedule", SCHEDULE,
                                   "--demand", DEMAND, *HORIZON],
    "netsim_schedule.json": lambda p: ["simulate", ARCH, "--schedule", p,
                                       "--demand", DEMAND, *HORIZON],
    "netsim_demand.json": lambda p: ["simulate", ARCH, "--schedule", SCHEDULE,
                                     "--demand", p, *HORIZON],
    "mixed8_split_map.json": lambda p: ["schedule", ARCH,
                                        str(FIXTURES_DIR / "mixed8.iqc"),
                                        "--map", f"file:{p}"],
    "multiplex_arch.json": lambda p: ["simulate", p, "--schedule", MUX_SCHEDULE,
                                      "--demand", MUX_DEMAND, *HORIZON],
    "multiplex_schedule.json": lambda p: ["simulate", MUX_ARCH, "--schedule", p,
                                          "--demand", MUX_DEMAND, *HORIZON],
    "multiplex_demand.json": lambda p: ["simulate", MUX_ARCH, "--schedule",
                                        MUX_SCHEDULE, "--demand", p, *HORIZON],
    "ising_powerlaw12.json": lambda p: ["ising", "solve", p],
    "ising_degenerate11.json": lambda p: ["ising", "solve", p],
    "invalid_arch.json": lambda p: ["rates", p],
}

EXAMPLE_RUNS = (
    lambda p, sched: ["rates", p],
    lambda p, sched: ["graph", p, "--tier", "fast"],
    lambda p, sched: ["simulate", p, "--schedule", sched, *HORIZON],
)

QEC_HOSTS = (["grid"], ["grid", "--placement", "native"], [str(EXAMPLE_JSON)])

QEC_DOCS = [qec_to_doc(code) for code in (
    surface_code_graph(3), steane_concat_graph(1),
    hypergraph_product_graph(repetition_check_matrix(3), repetition_check_matrix(3)))]


def node_paths(doc, path=()):
    """Key paths of every node of a decoded document, the root first."""
    yield path
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list):
        children = enumerate(doc)
    else:
        return
    for key, val in children:
        yield from node_paths(val, path + (key,))


def mutated_text(doc, path, kind, other):
    """JSON text of ``doc`` with the node at ``path`` mutated."""
    if kind == "drop" and not path:
        return ""
    doc = copy.deepcopy(doc)
    if path:
        parent, key = functools.reduce(getitem, path[:-1], doc), path[-1]
        old = parent[key]
    else:
        old = doc
    if kind == "drop":
        del parent[key]
        return json.dumps(doc)
    number = isinstance(old, (int, float)) and not isinstance(old, bool)
    if kind == "negative":
        new = -abs(old) - 1 if number else -1
    elif kind == "huge":
        new = HUGE_INT if isinstance(old, int) and number else 1e300
    else:
        new = {"type": other, "nan": float("nan"), "inf": float("inf"),
               "-inf": float("-inf")}[kind]
    if not path:
        return json.dumps(new)
    parent[key] = new
    return json.dumps(doc)


def draw_mutant(data, doc) -> str:
    paths = list(node_paths(doc))
    path = paths[data.draw(st.integers(0, len(paths) - 1), label="node")]
    kind = data.draw(st.sampled_from(KINDS), label="mutation")
    other = data.draw(st.sampled_from(OTHER_VALUES), label="other value")
    return mutated_text(doc, path, kind, other)


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_contract(argv):
    started = time.process_time()
    code, err = run_main(argv)
    assert time.process_time() - started < RUN_CPU_LIMIT_S, (argv, err)
    errors = [line for line in err.splitlines() if line.startswith("ionfab: error:")]
    assert code in (0, 1), (argv, err)
    assert len(errors) == (1 if code == 1 else 0), (argv, err)
    if code == 0:
        named = {a.removeprefix("file:") for a in argv}
        inputs = json.loads(err.splitlines()[-1])["inputs"]
        assert set(inputs) == {a for a in named if Path(a).is_file()}, (argv, err)


@functools.cache
def schema_validator(schema_name):
    schema = json.loads((SCHEMAS_DIR / schema_name).read_text())
    return jsonschema.Draft202012Validator(schema)


def assert_parser_as_strict(parse, schema_name, text):
    """A document that the published schema rejects, the parser rejects too."""
    if not text or schema_validator(schema_name).is_valid(json.loads(text)):
        return
    with pytest.raises(IonfabError):
        parse(json.loads(text))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutants")


def test_every_fixture_has_a_run():
    assert set(FIXTURE_RUNS) == {p.name for p in FIXTURES_DIR.glob("*.json")}


@pytest.mark.parametrize("name", sorted(FIXTURE_RUNS))
@settings(max_examples=60)
@given(data=st.data())
def test_mutated_fixture(workdir, name, data):
    doc = json.loads((FIXTURES_DIR / name).read_text())
    path = workdir / name
    path.write_text(draw_mutant(data, doc))
    assert_contract(FIXTURE_RUNS[name](str(path)))


@settings(max_examples=120)
@given(data=st.data())
def test_mutated_example_machine(workdir, data):
    sched = workdir / "one_link.json"
    sched.write_text('[{"time_s": 0.0, "links": [["A", 0, "B", 0]]}]')
    path = workdir / "example.json"
    path.write_text(draw_mutant(data, json.loads(EXAMPLE_JSON.read_text())))
    run = data.draw(st.sampled_from(EXAMPLE_RUNS), label="command")
    assert_contract(run(str(path), str(sched)))
    assert_parser_as_strict(parse_architecture, "ionfab-arch-1.schema.json",
                            path.read_text())


# Drives with mu or E0 given: one next to a Rabi frequency, whose bounds
# nothing else checks, and both, from which the Rabi frequency is derived.
COMPONENT_DRIVES = [
    {"effective_wavevector_rad_m": 3.5e7, "rabi_frequency_hz": 1e6,
     "dipole_coupling": 1e-29},
    {"effective_wavevector_rad_m": 3.5e7, "dipole_coupling": 1e-29,
     "field_amplitude": 1e4}]


@settings(max_examples=100)
@given(drive=st.sampled_from(COMPONENT_DRIVES), data=st.data())
def test_mutated_drive_components(drive, data):
    """The example machine with a mutant of ``drive`` as its drive."""
    doc = json.loads(EXAMPLE_JSON.read_text())
    text = draw_mutant(data, drive)
    if text:
        doc["drive"] = json.loads(text)
    else:
        del doc["drive"]
    assert_parser_as_strict(parse_architecture, "ionfab-arch-1.schema.json",
                            json.dumps(doc))


ising_docs = st.builds(
    lambda n, alpha, j0, fields: {**instance_to_doc(power_law_couplings(n, alpha, j0)),
                                  "fields": [[i, b] for i, b in enumerate(fields[:n])]},
    st.integers(2, 6), st.floats(0, 3), st.sampled_from([-1.0, 0.5, 2]),
    st.lists(st.floats(-2, 2), max_size=6))


@settings(max_examples=150)
@given(doc=ising_docs, data=st.data())
def test_mutated_ising_doc(workdir, doc, data):
    text = draw_mutant(data, doc)
    path = workdir / "instance.json"
    path.write_text(text)
    assert_contract(["ising", "solve", str(path)])
    assert_parser_as_strict(parse_instance, "ionfab-ising-1.schema.json", text)


@settings(max_examples=150)
@given(doc=st.sampled_from(QEC_DOCS), data=st.data())
def test_mutated_qec_doc(workdir, doc, data):
    text = draw_mutant(data, doc)
    path = workdir / "code.json"
    path.write_text(text)
    host = data.draw(st.sampled_from(QEC_HOSTS), label="host")
    assert_contract(["qec", "embed", "--code", str(path), "--host", *host])
    assert_parser_as_strict(parse_qec, "ionfab-qec-1.schema.json", text)
