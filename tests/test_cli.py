import contextlib
import hashlib
import io
import json
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EXAMPLE_JSON, FIXTURES_DIR, GOLDEN_DIR, cli_env, run_cli
from ionfab.cli import _link, _switch_schedule, build_parser, main, render_json
from ionfab.errors import DomainError, IonfabError, SchemaError
from ionfab.jsondoc import each, number, require_keys
from ionfab.netsim import SwitchConfig
from ionfab.qec import (hypergraph_product_graph, qec_to_doc,
                        repetition_check_matrix, surface_code_graph)
from ionfab.scheduler import QubitMap

ONE_LINK = '[{"time_s": 0.0, "links": [["A", 0, "B", 0]]}]'

HELP_GOLDENS = {
    "main": [],
    "validate": ["validate"],
    "rates": ["rates"],
    "graph": ["graph"],
    "ising": ["ising"],
    "qec": ["qec"],
    "simulate": ["simulate"],
    "schedule": ["schedule"],
    "qec_embed": ["qec", "embed"],
    "ising_anneal": ["ising", "anneal"],
}


@pytest.mark.parametrize("name", sorted(HELP_GOLDENS))
def test_help_matches_golden(name):
    r = run_cli([*HELP_GOLDENS[name], "--help"])
    assert r.returncode == 0
    golden = (GOLDEN_DIR / "help" / f"{name}.txt").read_text()
    assert r.stdout == golden


def test_every_flag_listed_in_help():
    for sub, flags in [("rates", ["--elu", "--format", "--out", "--summary"]),
                       ("simulate", ["--schedule", "--demand", "--horizon",
                                     "--seed", "--log", "--p"]),
                       ("schedule", ["--map", "--pairs", "--timeline",
                                     "--seed"])]:
        out = run_cli([sub, "--help"]).stdout
        for flag in flags:
            assert flag in out, (sub, flag)


class TestExitCodes:
    def test_validate_ok(self):
        r = run_cli(["validate", str(EXAMPLE_JSON)])
        assert r.returncode == 0
        assert json.loads(r.stdout)["ok"] is True

    def test_validate_bad_spec(self, tmp_path):
        doc = json.loads(EXAMPLE_JSON.read_text())
        doc["link"]["collection_fraction"] = 1.5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        r = run_cli(["validate", str(bad)])
        assert r.returncode == 1
        out = json.loads(r.stdout)
        assert out["ok"] is False
        assert any("collection_fraction" in v["path"] for v in out["violations"])

    def test_unknown_subcommand_is_usage_error(self):
        r = run_cli(["bogus"])
        assert r.returncode == 2

    def test_no_subcommand_is_usage_error(self):
        assert run_cli([]).returncode == 2

    def test_missing_file_is_domain_error(self, tmp_path):
        r = run_cli(["schedule", str(EXAMPLE_JSON), str(tmp_path / "nope.iqc")])
        assert r.returncode == 1
        assert "nope.iqc" in r.stderr

    def test_simulate_without_seed_fails(self, tmp_path):
        sched = tmp_path / "sched.json"
        sched.write_text('[{"time_s": 0.0, "links": [["A", 0, "B", 0]]}]')
        r = run_cli(["simulate", str(EXAMPLE_JSON), "--schedule", str(sched),
                     "--horizon", "1"])
        assert r.returncode == 1
        assert "--seed" in r.stderr

    def test_anneal_without_seed_fails(self, tmp_path):
        inst = tmp_path / "inst.json"
        run_cli(["ising", "--n", "4", "--alpha", "1.0", "--out", str(inst)])
        r = run_cli(["ising", "anneal", str(inst)])
        assert r.returncode == 1
        assert "--seed" in r.stderr

    @pytest.mark.parametrize("seed", ["-5", "five"])
    def test_seed_must_be_an_integer_ge_0(self, seed):
        # random.Random seeds with |seed|: --seed -5 would rerun --seed 5
        r = run_cli(["ising", "anneal", str(FIXTURES_DIR / "ising_powerlaw12.json"),
                     "--seed", seed])
        assert r.returncode == 2
        assert f"argument --seed: expected an integer >= 0, got '{seed}'" in r.stderr

    def test_random_embed_without_seed_fails(self, tmp_path):
        code = tmp_path / "code.json"
        run_cli(["qec", "surface", "--d", "3", "--out", str(code)])
        r = run_cli(["qec", "embed", "--code", str(code), "--host", "grid",
                     "--placement", "random"])
        assert r.returncode == 1
        assert "--seed" in r.stderr


class TestManifest:
    def test_emitted_on_stderr_with_hashes(self):
        r = run_cli(["rates", str(EXAMPLE_JSON)])
        manifest = json.loads(r.stderr.strip().splitlines()[-1])
        assert manifest["subcommand"] == "rates"
        assert manifest["tool_version"]
        assert len(manifest["inputs"][str(EXAMPLE_JSON)]) == 64
        assert manifest["wall_time_s"] >= 0

    def test_input_hash_reproducible(self):
        a = json.loads(run_cli(["rates", str(EXAMPLE_JSON)]).stderr.splitlines()[-1])
        b = json.loads(run_cli(["rates", str(EXAMPLE_JSON)]).stderr.splitlines()[-1])
        assert a["inputs"] == b["inputs"]

    def test_map_file_is_hashed(self, capsys):
        map_path = FIXTURES_DIR / "mixed8_split_map.json"
        code = main(["schedule", str(FIXTURES_DIR / "netsim_arch.json"),
                     str(FIXTURES_DIR / "mixed8.iqc"), "--map", f"file:{map_path}"])
        assert code == 0
        manifest = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert manifest["inputs"][str(map_path)] == hashlib.sha256(
            map_path.read_bytes()).hexdigest()

    def test_emitted_even_on_error(self, tmp_path):
        r = run_cli(["rates", str(tmp_path / "nope.json")])
        assert r.returncode == 1
        manifest = json.loads(r.stderr.strip().splitlines()[-1])
        assert manifest["subcommand"] == "rates"

    def test_modular_host_is_hashed(self, tmp_path, capsys):
        code = tmp_path / "c.json"
        code.write_text(json.dumps(qec_to_doc(surface_code_graph(3))))
        assert main(["qec", "embed", "--code", str(code), "--host", str(EXAMPLE_JSON)]) == 0
        manifest = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert manifest["inputs"] == {
            str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in (code, EXAMPLE_JSON)}

    def test_hash_is_of_the_bytes_read(self, tmp_path, capsys):
        inst = tmp_path / "i.json"
        inst.write_bytes((FIXTURES_DIR / "ising_degenerate11.json").read_bytes())
        before = hashlib.sha256(inst.read_bytes()).hexdigest()
        assert main(["ising", "solve", str(inst), "--out", str(inst)]) == 0
        manifest = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert hashlib.sha256(inst.read_bytes()).hexdigest() != before
        assert manifest["inputs"] == {str(inst): before}

    @pytest.mark.parametrize("argv, piped", [
        (["validate", "/dev/stdin"], EXAMPLE_JSON.read_bytes()),
        (["schedule", str(EXAMPLE_JSON), "/dev/stdin"], b"qubits 2\nCNOT q0 q1\n"),
        (["qec", "hgp", "--h1", "/dev/stdin", "--h2", "{good_csv}"], b"1,1,0\n0,1,1\n"),
    ], ids=["json", "iqc", "csv"])
    def test_piped_input_is_parsed_and_hashed(self, tmp_path, argv, piped):
        good_csv = tmp_path / "good.csv"
        good_csv.write_text("1,1\n")
        r = subprocess.run([sys.executable, "-m", "ionfab",
                            *(a.format(good_csv=good_csv) for a in argv)],
                           input=piped, capture_output=True, env=cli_env())
        assert r.returncode == 0, r.stderr
        manifest = json.loads(r.stderr.splitlines()[-1])
        assert manifest["inputs"]["/dev/stdin"] == hashlib.sha256(piped).hexdigest()


class TestRates:
    def test_json_keys_match_rate_report_fields(self):
        r = run_cli(["rates", str(EXAMPLE_JSON)])
        doc = json.loads(r.stdout)
        assert sorted(doc) == ["gate_rate", "link_success_probability",
                               "mean_connection_rate", "recoil_frequency",
                               "state_dependent_force"]

    def test_csv_format(self):
        r = run_cli(["rates", str(EXAMPLE_JSON), "--format", "csv"])
        lines = r.stdout.splitlines()
        assert len(lines) == 2
        assert lines[0].split(",") == ["gate_rate", "link_success_probability",
                                       "mean_connection_rate",
                                       "recoil_frequency",
                                       "state_dependent_force"]

    def test_elu_selector(self):
        a = run_cli(["rates", str(EXAMPLE_JSON), "--elu", "A"]).stdout
        b = run_cli(["rates", str(EXAMPLE_JSON), "--elu", "B"]).stdout
        assert json.loads(a) == json.loads(b)  # identical ELUs in the fixture


class TestGraph:
    def test_dot_output(self):
        r = run_cli(["graph", str(EXAMPLE_JSON), "--tier", "fast",
                     "--format", "dot"])
        assert r.stdout.startswith("graph ionfab {")
        assert "tier=fast" in r.stdout and "tier=collective" not in r.stdout

    def test_json_output(self):
        r = run_cli(["graph", str(EXAMPLE_JSON), "--tier", "collective"])
        doc = json.loads(r.stdout)
        assert len(doc["nodes"]) == 40
        assert len(doc["edges"]) == 2 * 190


class TestBitStableOutput:
    def test_identical_sim_runs_are_byte_identical(self, tmp_path):
        sched = tmp_path / "sched.json"
        sched.write_text('[{"time_s": 0.0, "links": [["A", 0, "B", 0]]}]')
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            log = tmp_path / f"{name}.csv"
            r = run_cli(["simulate", str(EXAMPLE_JSON), "--schedule",
                         str(sched), "--horizon", "0.5", "--seed", "42",
                         "--out", str(out), "--log", str(log)])
            assert r.returncode == 0, r.stderr
            outs.append((out.read_bytes(), log.read_bytes()))
        assert outs[0] == outs[1]

    def test_event_csv_header(self, tmp_path):
        sched = tmp_path / "sched.json"
        sched.write_text('[{"time_s": 0.0, "links": [["A", 0, "B", 0]]}]')
        log = tmp_path / "events.csv"
        run_cli(["simulate", str(EXAMPLE_JSON), "--schedule", str(sched),
                 "--horizon", "0.05", "--seed", "1", "--log", str(log)])
        assert log.read_text().splitlines()[0] == "time_s,kind,link,elu_a,elu_b,seq"


class TestIsingFlow:
    def test_generate_solve_adiabatic_anneal(self, tmp_path):
        inst = tmp_path / "inst.json"
        r = run_cli(["ising", "--n", "6", "--alpha", "0.0", "--j0", "-1.0",
                     "--out", str(inst)])
        assert r.returncode == 0, r.stderr
        doc = json.loads(inst.read_text())
        assert doc["schema"] == "ionfab-ising/1"
        assert doc["n"] == 6

        r = run_cli(["ising", "solve", str(inst)])
        solved = json.loads(r.stdout)
        assert solved["minimum_energy"] == -15.0
        assert len(solved["ground_states"]) == 2

        r = run_cli(["ising", "adiabatic", str(inst), "--time", "20",
                     "--steps", "400"])
        assert json.loads(r.stdout)["ground_overlap"] > 0.9

        r = run_cli(["ising", "anneal", str(inst), "--seed", "3"])
        assert json.loads(r.stdout)["energy"] == -15.0

    def test_solve_at_the_brute_force_cap(self, tmp_path, capsys):
        inst, out = tmp_path / "ferro24.json", tmp_path / "solved.json"
        assert main(["ising", "--n", "24", "--alpha", "0", "--j0", "-1",
                     "--out", str(inst)]) == 0
        assert main(["ising", "solve", str(inst), "--out", str(out)]) == 0
        solved = json.loads(out.read_text())
        assert solved["minimum_energy"] == -276.0  # -C(24, 2)
        assert solved["ground_states"] == [[1] * 24, [-1] * 24]

    def test_generation_requires_n_and_alpha(self):
        r = run_cli(["ising"])
        assert r.returncode == 1
        assert "--n" in r.stderr


class TestQecFlow:
    def test_hgp_from_csv(self, tmp_path):
        h = tmp_path / "rep3.csv"
        h.write_text("1,1,0\n0,1,1\n")
        r = run_cli(["qec", "hgp", "--h1", str(h), "--h2", str(h)])
        doc = json.loads(r.stdout)
        assert doc["n_data"] == 13
        assert len(doc["checks"]) == 12

    def test_surface_to_embed_pipeline(self, tmp_path):
        code = tmp_path / "surface.json"
        run_cli(["qec", "surface", "--d", "3", "--out", str(code)])
        r = run_cli(["qec", "embed", "--code", str(code), "--host", "grid",
                     "--placement", "native"])
        doc = json.loads(r.stdout)
        assert doc["swap_count"] == 0

    def test_modular_embed(self, tmp_path):
        code = tmp_path / "surface.json"
        run_cli(["qec", "surface", "--d", "3", "--out", str(code)])
        r = run_cli(["qec", "embed", "--code", str(code), "--host",
                     str(EXAMPLE_JSON), "--partition", "greedy_cut"])
        doc = json.loads(r.stdout)
        assert doc["host"] == "modular"
        assert doc["pairs_per_round"] >= 0


class TestScheduleFlow:
    def test_timeline_csv_written(self, tmp_path):
        timeline = tmp_path / "timeline.csv"
        r = run_cli(["schedule", str(EXAMPLE_JSON),
                     str(FIXTURES_DIR / "ring4.iqc"), "--timeline",
                     str(timeline)])
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        assert doc["operations"] == 4
        lines = timeline.read_text().splitlines()
        assert lines[0] == "start_s,dur_s,gate,operands,elus,resource"
        assert len(lines) == 5

    def test_buffered_requires_seed(self):
        r = run_cli(["schedule", str(EXAMPLE_JSON),
                     str(FIXTURES_DIR / "ring4.iqc"), "--pairs", "buffered"])
        assert r.returncode == 1
        assert "--seed" in r.stderr

    def test_buffered_with_seed(self):
        r = run_cli(["schedule", str(EXAMPLE_JSON),
                     str(FIXTURES_DIR / "ring4.iqc"), "--map", "roundrobin",
                     "--pairs", "buffered", "--seed", "7"])
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        assert doc["pairs_consumed"] > 0

    def test_same_species_comm_waits_for_idle_elus(self, tmp_path, capsys):
        doc = json.loads(EXAMPLE_JSON.read_text())
        doc["link"]["dual_species_comm"] = False
        same_species = tmp_path / "arch.json"
        same_species.write_text(json.dumps(doc))
        makespans = []
        for arch in (EXAMPLE_JSON, same_species):
            assert main(["schedule", str(arch), str(FIXTURES_DIR / "clusters6.iqc"),
                         "--map", "roundrobin"]) == 0
            makespans.append(json.loads(capsys.readouterr().out)["makespan_s"])
        assert makespans[1] > makespans[0]

    def test_overflowing_time_exits_1(self, tmp_path, capsys):
        doc = json.loads(EXAMPLE_JSON.read_text())
        for elu in doc["elus"]:
            elu["single_qubit_gate_time_s"] = 1e308
        arch, circuit, qmap = (tmp_path / "arch.json", tmp_path / "c.iqc",
                               tmp_path / "map.json")
        arch.write_text(json.dumps(doc))
        circuit.write_text("qubits 2\nX q0\nX q0\nCNOT q0 q1\n")
        qmap.write_text('{"0": ["A", 2], "1": ["B", 2]}')
        code = main(["schedule", str(arch), str(circuit), "--map", f"file:{qmap}"])
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines()
                  if line.startswith("ionfab: error:")]
        assert code == 1
        assert captured.out == ""
        assert errors == ["ionfab: error: schedule time overflows: "
                          "an operation ends at inf s"]

    def test_file_map_validated_once(self, tmp_path, monkeypatch):
        calls = []
        validate = QubitMap.validate

        def counted(qmap, *args):
            calls.append(qmap)
            return validate(qmap, *args)

        monkeypatch.setattr(QubitMap, "validate", counted)
        qmap = tmp_path / "map.json"
        qmap.write_text('{"0": ["A", 2], "1": ["B", 2]}')
        circuit = tmp_path / "c.iqc"
        circuit.write_text("qubits 2\nCNOT q0 q1\n")
        assert main(["schedule", str(EXAMPLE_JSON), str(circuit),
                     "--map", f"file:{qmap}"]) == 0
        assert len(calls) == 1

    def test_expiring_pairs_at_huge_time_exit_1(self, tmp_path, capsys):
        """A remote gate at t = 1e300 s would need the pair sim run that far."""
        doc = json.loads(EXAMPLE_JSON.read_text())
        doc["link"]["pair_lifetime_s"] = 0.05
        for elu in doc["elus"]:
            elu["single_qubit_gate_time_s"] = 1e300
        arch, circuit, qmap = (tmp_path / "arch.json", tmp_path / "c.iqc",
                               tmp_path / "map.json")
        arch.write_text(json.dumps(doc))
        circuit.write_text("qubits 2\nX q0\nCNOT q0 q1\n")
        qmap.write_text('{"0": ["A", 2], "1": ["B", 2]}')
        argv = ["schedule", str(arch), str(circuit), "--map", f"file:{qmap}"]
        assert main(argv) == 0  # ideal pairs need no simulation
        assert json.loads(capsys.readouterr().out)["makespan_s"] >= 1e300
        code = main([*argv, "--pairs", "buffered", "--seed", "1"])
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines()
                  if line.startswith("ionfab: error:")]
        assert code == 1
        assert captured.out == ""
        assert errors == ["ionfab: error: simulating to 1e+300 s means about "
                          "1e+302 random events, over the cap of 10000000"]


class TestGoldenOutputs:
    """Byte-identical reports pinned across versions, not just reruns."""

    def test_simulate_report_and_log(self, tmp_path):
        out, log = tmp_path / "report.json", tmp_path / "events.csv"
        code = main([
            "simulate", str(FIXTURES_DIR / "netsim_arch.json"),
            "--schedule", str(FIXTURES_DIR / "netsim_schedule.json"),
            "--demand", str(FIXTURES_DIR / "netsim_demand.json"),
            "--horizon", "0.5", "--seed", "11",
            "--out", str(out), "--log", str(log)])
        assert code == 0
        assert out.read_bytes() == (GOLDEN_DIR / "simulate_netsim_report.json").read_bytes()
        assert log.read_bytes() == (GOLDEN_DIR / "simulate_netsim_events.csv").read_bytes()

    def test_simulate_multiplexed_report_and_log(self, tmp_path):
        # six ELUs cycle the round-robin matchings every 5 ms, two entries
        # share t = 0.1 s, and collisions, expiry and Poisson demand are on
        out, log = tmp_path / "report.json", tmp_path / "events.csv"
        code = main([
            "simulate", str(FIXTURES_DIR / "multiplex_arch.json"),
            "--schedule", str(FIXTURES_DIR / "multiplex_schedule.json"),
            "--demand", str(FIXTURES_DIR / "multiplex_demand.json"),
            "--horizon", "0.2", "--seed", "5",
            "--out", str(out), "--log", str(log)])
        assert code == 0
        assert out.read_bytes() == (
            GOLDEN_DIR / "simulate_multiplex_report.json").read_bytes()
        assert log.read_bytes() == (
            GOLDEN_DIR / "simulate_multiplex_events.csv").read_bytes()

    def test_buffered_schedule_report_and_timeline(self, tmp_path):
        out, timeline = tmp_path / "report.json", tmp_path / "timeline.csv"
        code = main([
            "schedule", str(FIXTURES_DIR / "netsim_arch.json"),
            str(FIXTURES_DIR / "mixed8.iqc"),
            "--map", f"file:{FIXTURES_DIR / 'mixed8_split_map.json'}",
            "--pairs", "buffered", "--seed", "5",
            "--out", str(out), "--timeline", str(timeline)])
        assert code == 0
        assert out.read_bytes() == (GOLDEN_DIR / "schedule_mixed8_report.json").read_bytes()
        assert timeline.read_bytes() == (
            GOLDEN_DIR / "schedule_mixed8_timeline.csv").read_bytes()

    # The DOT golden is not named *.dot, which .gitignore excludes.
    @pytest.mark.parametrize("args, golden", [
        (["--tier", "fast"], "graph_example_fast.json"),
        (["--tier", "collective"], "graph_example_collective.json"),
        (["--format", "dot"], "graph_example.gv"),
    ])
    def test_graph_export(self, tmp_path, args, golden):
        out = tmp_path / golden
        assert main(["graph", str(EXAMPLE_JSON), *args, "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN_DIR / golden).read_bytes()

    # the embedding reads the surface golden back, so the three reports pin
    # the generators, the code document and the modular embedder together
    def test_qec_reports(self, tmp_path):
        rep3 = str(FIXTURES_DIR / "rep3.csv")
        surface = str(GOLDEN_DIR / "qec_surface_d3.json")
        runs = {
            "qec_surface_d3.json": ["surface", "--d", "3"],
            "qec_hgp_rep3.json": ["hgp", "--h1", rep3, "--h2", rep3],
            "qec_embed_surface_d3_example.json": [
                "embed", "--code", surface, "--host", str(EXAMPLE_JSON)],
        }
        for golden, args in runs.items():
            out = tmp_path / golden
            assert main(["qec", *args, "--out", str(out)]) == 0
            assert out.read_bytes() == (GOLDEN_DIR / golden).read_bytes()

    # powerlaw12: alpha 1.3, zero fields, so float energies tie in Z2 pairs;
    # degenerate11: integer couplings and fields with six ground states
    @pytest.mark.parametrize("name", ["powerlaw12", "degenerate11"])
    def test_ising_solve_and_adiabatic_trace(self, tmp_path, name):
        instance = str(FIXTURES_DIR / f"ising_{name}.json")
        solved, run, trace = (tmp_path / f for f in ("solve.json", "run.json", "trace.csv"))
        assert main(["ising", "solve", instance, "--out", str(solved)]) == 0
        assert main(["ising", "adiabatic", instance, "--time", "4", "--steps", "120",
                     "--out", str(run), "--trace", str(trace)]) == 0
        assert solved.read_bytes() == (GOLDEN_DIR / f"ising_solve_{name}.json").read_bytes()
        assert run.read_bytes() == (GOLDEN_DIR / f"ising_adiabatic_{name}.json").read_bytes()
        assert trace.read_bytes() == (
            GOLDEN_DIR / f"ising_adiabatic_{name}_trace.csv").read_bytes()

    # coupling rows that mix ints and floats, and an empty fields list
    def test_ising_generation(self, tmp_path):
        out = tmp_path / "instance.json"
        assert main(["ising", "--n", "6", "--alpha", "1.3", "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN_DIR / "ising_generate_n6.json").read_bytes()

    # a duplicate ELU id with quotes, a backslash and non-ASCII characters,
    # quoted again in its violation message
    def test_validate_invalid_machine(self, tmp_path):
        out = tmp_path / "violations.json"
        code = main(["validate", str(FIXTURES_DIR / "invalid_arch.json"),
                     "--out", str(out)])
        assert code == 1
        assert out.read_bytes() == (GOLDEN_DIR / "validate_invalid_arch.json").read_bytes()


# strings json must escape: quotes, backslashes, control and non-ASCII
# characters, a lone surrogate
JSON_TEXT = st.text(st.one_of(st.characters(), st.sampled_from(
    '"\\\x00\x1f\x7f\n\t\u00e9\u2028\ud800\U0001f600')), max_size=6)
JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2**200, 2**200),
    st.floats(allow_nan=False, allow_infinity=False), JSON_TEXT,
    st.sampled_from([-0.0, 5e-324, 1e308, np.float64(0.1)]),
    st.lists(st.integers(), max_size=5))
JSON_DOCS = st.recursive(JSON_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(JSON_TEXT, inner, max_size=4)), max_leaves=30)


def holding(bad):
    """JSON documents that hold one of ``bad`` at some depth."""
    return st.recursive(st.sampled_from(bad), lambda inner: st.one_of(
        st.builds(lambda good, x, i: [*good[:i], x, *good[i:]],
                  st.lists(JSON_DOCS, max_size=3), inner, st.integers(0, 3)),
        st.builds(lambda good, key, x: {**good, key: x},
                  st.dictionaries(JSON_TEXT, JSON_DOCS, max_size=3), JSON_TEXT,
                  inner)), max_leaves=4)


class TestRenderJson:
    """render_json writes what json.dumps writes, byte for byte."""

    @settings(max_examples=400)
    @given(JSON_DOCS)
    def test_equals_json_dumps(self, doc):
        expected = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
        assert render_json(doc) == expected

    @settings(max_examples=100)
    @given(holding([float("nan"), float("inf"), float("-inf")]))
    def test_non_finite_number_is_a_domain_error(self, doc):
        with pytest.raises(IonfabError) as err:
            render_json(doc)
        assert str(err.value) == ("report holds a non-finite number, "
                                  "which JSON cannot represent")

    # reports have str keys, so the writer takes no other key
    @settings(max_examples=100)
    @given(holding([{1, 2}, np.int64(3), {1: "x"}, {None: 0.5}]))
    def test_unsupported_object_is_a_type_error(self, doc):
        with pytest.raises(TypeError):
            render_json(doc)


class TestBadSimulateInputs:
    """Bad simulate inputs end in exit 1 and one diagnostic, not a hang or traceback."""

    def simulate(self, tmp_path, capsys, schedule_text, horizon="0.5"):
        sched = tmp_path / "sched.json"
        sched.write_text(schedule_text)
        code = main(["simulate", str(EXAMPLE_JSON), "--schedule", str(sched),
                     "--horizon", horizon, "--seed", "1"])
        return code, capsys.readouterr().err

    def test_infinite_horizon(self, tmp_path, capsys):
        code, err = self.simulate(tmp_path, capsys, ONE_LINK, horizon="inf")
        assert code == 1
        assert "ionfab: error: horizon must be finite" in err

    def test_nan_schedule_time(self, tmp_path, capsys):
        code, err = self.simulate(
            tmp_path, capsys, '[{"time_s": NaN, "links": [["A", 0, "B", 0]]}]')
        assert code == 1
        assert (f"ionfab: error: {tmp_path / 'sched.json'}: $[0].time_s: "
                "switch schedule times must be finite") in err

    def test_negative_schedule_time(self, tmp_path, capsys):
        code, err = self.simulate(
            tmp_path, capsys, '[{"time_s": -1.0, "links": [["A", 0, "B", 0]]}]',
            horizon="0.01")
        assert code == 1
        assert [line for line in err.splitlines() if line.startswith("ionfab: error:")] == [
            f"ionfab: error: {tmp_path / 'sched.json'}: $[0].time_s: "
            "switch schedule times must be >= 0, got -1.0"]

    def test_malformed_schedule_json(self, tmp_path, capsys):
        code, err = self.simulate(tmp_path, capsys, ONE_LINK[:-1])
        assert code == 1
        assert f"ionfab: error: {tmp_path / 'sched.json'}: $: invalid JSON at line 1" in err

    # Each links array has two faults, and a walk in the hash order of the
    # set of links names different ones under these two seeds.
    @pytest.mark.parametrize("links, hash_seeds, named", [
        ('[["A", 5, "B", 0], ["A", 0, "B", 7], ["A", 1, "B", 1]]', ("0", "4"),
         "port B.7 is not a communication ion"),
        ('[["A", 0, "B", 0], ["A", 0, "B", 1], ["A", 1, "B", 0]]', ("0", "1"),
         "port A.0 used by two links"),
    ], ids=["comm-ions", "ports"])
    def test_the_diagnostic_is_the_same_under_any_hash_seed(self, tmp_path, links,
                                                            hash_seeds, named):
        sched = tmp_path / "sched.json"
        sched.write_text(f'[{{"time_s": 0.0, "links": {links}}}]')
        stderrs = []
        for hash_seed in hash_seeds:
            r = subprocess.run([sys.executable, "-m", "ionfab", "simulate",
                                str(EXAMPLE_JSON), "--schedule", str(sched),
                                "--horizon", "0.01", "--seed", "1"],
                               capture_output=True, text=True,
                               env={**cli_env(), "PYTHONHASHSEED": hash_seed})
            assert r.returncode == 1
            *lines, manifest = r.stderr.splitlines()
            manifest = json.loads(manifest)
            del manifest["wall_time_s"]  # the one field a rerun may change
            stderrs.append((lines, manifest))
        assert stderrs[0] == stderrs[1]
        assert stderrs[0][0] == [f"ionfab: error: {sched}: $[0].links: {named}"]


def per_entry_schedule(doc):
    """The switch schedule read entry by entry, each links array checked
    and made a SwitchConfig of its own."""
    def entry(item):
        require_keys(item, "$", {"time_s", "links"})
        links = each(item["links"], "$.links", _link)
        t = number(item, "time_s", "$")
        try:
            return t, SwitchConfig(frozenset(links))
        except DomainError as exc:
            raise SchemaError(str(exc), "$.links") from None
    return each(doc, "$", entry)


def read_schedule(read, doc):
    """``read(doc)`` as a comparable value: each entry's time repr and
    links, or the SchemaError's ``path: message``."""
    try:
        return [(repr(t), cfg.active_links) for t, cfg in read(doc)]
    except SchemaError as exc:
        return str(exc)


# links arrays that are valid, and ones that are equal under == to a valid
# one but not JSON integers, reuse a port, hold a bad row, or are not arrays
VALID_LINKS = [[["A", 0, "B", 0]], [["A", 1, "B", 0]],
               [["A", 0, "B", 0], ["A", 1, "C", 1]], [], [["B", 0, "A", 1]]]
BAD_LINKS = [
    [["A", True, "B", 0]], [["A", 1.0, "B", 0]], [["A", 0, "B", 0.0]],
    [["A", 0, "B", 0], ["A", 0, "C", 1]], [["A", 0, "A", 1]],
    [["A", 0, "B"]], [[1, 0, "B", 0]], [["A", 0, "B", 0], "row"],
    "links", 5, None, {"A": 0},
]
# times the reader takes (it does not check their order or range), then not
GOOD_TIMES, BAD_TIMES = [0.0, 0.25, 1, -1.0, float("nan")], [True, "0.5", None]


@st.composite
def schedule_docs(draw):
    """A switch schedule document of entries whose links and times are
    drawn mostly from the good lists, and in half the documents one entry
    of the wrong keys or no object; decoded from its JSON text, so no two
    entries share a links array."""
    entry = st.builds(lambda t, links: {"time_s": t, "links": links},
                      st.sampled_from(GOOD_TIMES * 4 + BAD_TIMES),
                      st.sampled_from(VALID_LINKS * 4 + BAD_LINKS))
    entries = draw(st.lists(entry, max_size=10))
    if draw(st.booleans()):
        entries.insert(draw(st.integers(0, len(entries))), draw(st.sampled_from(
            [3, [], {"links": []}, {"time_s": 0.0, "links": [], "x": 1}])))
    return json.loads(json.dumps(entries))


class TestScheduleReader:
    """simulate's schedule reader checks each distinct links array once."""

    @settings(max_examples=400)
    @given(schedule_docs())
    def test_reads_as_the_per_entry_reader(self, doc):
        assert read_schedule(_switch_schedule, doc) == read_schedule(per_entry_schedule, doc)

    def test_entries_that_repeat_links_share_one_config(self):
        doc = json.loads('[{"time_s": 0.0, "links": [["A", 0, "B", 0]]},'
                         ' {"time_s": 0.1, "links": [["A", 1, "B", 1]]},'
                         ' {"time_s": 0.2, "links": [["A", 0, "B", 0]]}]')
        (_, a), (_, b), (_, c) = _switch_schedule(doc)
        assert a is c and a is not b

    @pytest.mark.parametrize("port", ["true", "1.0"])
    def test_port_equal_to_a_seen_integer_is_rejected(self, port):
        doc = json.loads('[{"time_s": 0.0, "links": [["A", 1, "B", 0]]},'
                         f' {{"time_s": 0.1, "links": [["A", {port}, "B", 0]]}}]')
        with pytest.raises(SchemaError) as err:
            _switch_schedule(doc)
        shown = "True" if port == "true" else port
        assert str(err.value) == f"$[1].links[0][1]: expected integer, got {shown}"

    def test_bad_links_reported_before_bad_time(self):
        doc = [{"time_s": 0.0, "links": [["A", 0, "B", 0]]},
               {"time_s": "x", "links": [["A", 0, "B"]]}]
        with pytest.raises(SchemaError) as err:
            _switch_schedule(doc)
        assert str(err.value) == "$[1].links[0]: expected [elu_a, port_a, elu_b, port_b]"

    def test_bad_time_of_an_entry_with_seen_links(self):
        doc = [{"time_s": 0.0, "links": [["A", 0, "B", 0]]},
               {"time_s": "x", "links": [["A", 0, "B", 0]]}]
        with pytest.raises(SchemaError) as err:
            _switch_schedule(doc)
        assert str(err.value) == "$[1].time_s: expected number, got 'x'"


def parse_outcome(parser, argv):
    """What ``parser.parse_args(argv)`` gives: the Namespace's fields (None
    if it exits), the exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            fields, code = vars(parser.parse_args(argv)), None
        except SystemExit as exc:
            fields, code = None, exc.code
    return fields, code, out.getvalue(), err.getvalue()


EX = str(EXAMPLE_JSON)
PARSER_ARGVS = [
    [], ["--version"], ["-h"], ["--", "simulate", EX, "--schedule", "s.json",
                                "--horizon", "1"],
    ["bogus"], ["bogus", "--out", "x"], ["-", "simulate"], ["--seed", "1", "rates", EX],
    ["validate", EX], ["validate"], ["validate", EX, "--summary", "--out", "v.json"],
    ["rates", EX, "--elu", "B", "--format", "csv"], ["rates", EX, "--format", "xml"],
    ["graph", EX, "--tier", "fast", "--format", "dot"], ["graph", "--help"],
    ["ising", "--n", "5", "--alpha", "1.5"], ["ising", "--out", "f.json", "solve", "i.json"],
    ["ising", "adiabatic", "i.json", "--time", "2", "--steps", "9", "--trace", "t.csv"],
    ["ising", "adiabatic", "i.json", "--time", "2"],
    ["ising", "anneal", "i.json", "--t-min", "0.1", "--sweeps", "3", "--seed", "4"],
    ["ising", "anneal", "--help"], ["ising", "bogus"],
    ["qec"], ["qec", "surface", "--d", "5", "--summary"], ["qec", "steane", "--levels", "2"],
    ["qec", "hgp", "--h1", "a.csv", "--h2", "b.csv"],
    ["qec", "embed", "--code", "c.json", "--host", "grid", "--placement", "random",
     "--seed", "1"], ["qec", "embed", "--help"], ["rates", EX, "--seed", "-1"],
    ["simulate", EX, "--schedule", "s.json", "--demand", "d.json", "--horizon", "0.5",
     "--log", "e.csv", "--p", "0.25", "--seed", "7"],
    ["simulate", EX, "--schedule", "s.json"], ["simulate", EX, "--bogus"],
    ["simulate", "--help"],
    ["schedule", EX, "c.iqc", "--map", "roundrobin", "--pairs", "buffered",
     "--timeline", "t.csv", "--seed", "2"], ["schedule", EX],
    ["-h", "qec"], ["--he", "simulate"], ["qec", "hgp", "--h1", "a.csv"],
    ["qec", "hgp", "--help"], ["qec", "bogus"], ["ising", "solve"],
    ["ising", "anneal", "i.json", "--sweeps", "x"],
]


class TestParserBuildsOnlyTheCommand:
    """The parser ``main`` builds for an argv parses it like the full parser."""

    @pytest.mark.parametrize("argv", PARSER_ARGVS, ids=" ".join)
    def test_same_outcome_as_the_full_parser(self, argv, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        full = parse_outcome(build_parser(), argv)
        assert parse_outcome(build_parser(argv), argv) == full
        assert full[1] in (None, 0, 2)

    def test_other_commands_are_not_built(self):
        for built, argv in [
                (["simulate"], ["rates", EX]),
                (["qec", "surface"], ["qec", "steane", "--levels", "2"]),
                (["ising", "solve"], ["ising", "anneal", "i.json", "--seed", "1"])]:
            _, code, _, err = parse_outcome(build_parser(built), argv)
            assert code == 2 and "invalid choice" in err, (built, argv)


class TestSubnormalLinkProbability:
    """A valid machine whose link probability is subnormal (F = 1e-160 gives
    p ~ 2e-322) never yields a pair: simulate reports zero successes, and the
    buffered schedule, which needs pairs, exits 1 naming the rate."""

    @staticmethod
    def machine(tmp_path, collection_fraction=1e-160):
        doc = json.loads(EXAMPLE_JSON.read_text())
        doc["link"]["collection_fraction"] = collection_fraction
        path = tmp_path / "arch.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 0
        return path

    @pytest.mark.parametrize("p_flag", [[], ["--p", "1e-320"]])
    def test_simulate_never_succeeds(self, tmp_path, capsys, p_flag):
        sched = tmp_path / "sched.json"
        sched.write_text(ONE_LINK)
        out = tmp_path / "report.json"
        machine = EXAMPLE_JSON if p_flag else self.machine(tmp_path)
        code = main(["simulate", str(machine), "--schedule", str(sched),
                     "--horizon", "1", "--seed", "1", "--out", str(out), *p_flag])
        assert code == 0, capsys.readouterr().err
        ledger = json.loads(out.read_text())["ledger"]
        assert ledger["successes"] == 0
        assert ledger["conserved"]

    # 1e-155: the first supply horizon, 10/rate ~ 1e307, is finite, but
    # the pairs never arrive and doubling it overflows
    # 1e-170: p underflows to 0.0, a rate of exactly zero
    @pytest.mark.parametrize("collection_fraction", [1e-170, 1e-160, 1e-155])
    def test_buffered_schedule_names_the_rate(self, tmp_path, capsys,
                                              collection_fraction):
        arch = self.machine(tmp_path, collection_fraction)
        capsys.readouterr()
        code = main(["schedule", str(arch), str(FIXTURES_DIR / "mixed8.iqc"),
                     "--map", f"file:{FIXTURES_DIR / 'mixed8_split_map.json'}",
                     "--pairs", "buffered", "--seed", "1"])
        err = capsys.readouterr().err
        assert code == 1
        errors = [line for line in err.splitlines() if line.startswith("ionfab: error:")]
        assert len(errors) == 1
        assert "link pair rate" in errors[0] and "too low" in errors[0]


DEGENERATE11 = str(FIXTURES_DIR / "ising_degenerate11.json")
NETSIM = ["simulate", str(FIXTURES_DIR / "netsim_arch.json"),
          "--schedule", str(FIXTURES_DIR / "netsim_schedule.json"),
          "--demand", str(FIXTURES_DIR / "netsim_demand.json")]

# name -> (argv, summary line); the lines were generated with the CLI before
# every summary moved ahead of its report, and simulate's again from
# tests/netsim_reference.py when the simulator's draw order changed.
# {surface3}, {hgp_rep3} and {rep3} are files the test writes.
SUMMARIES = {
    "rates": (["rates", str(EXAMPLE_JSON)],
              "ELU A: gate rate 19.2 kHz, connection rate 100.0 Hz (p = 2.00e-04)"),
    "graph": (["graph", str(EXAMPLE_JSON), "--tier", "fast"],
              "40 qubits; tier fast: max hop distance 5, 400 unreachable pairs"),
    "ising_solve": (["ising", "solve", DEGENERATE11],
                    "minimum energy -18.0 with 6 optimal configuration(s) reported"),
    "ising_adiabatic": (["ising", "adiabatic", DEGENERATE11, "--time", "4",
                         "--steps", "120"], "overlap with ground space: 0.5807"),
    "ising_anneal": (["ising", "anneal", DEGENERATE11, "--seed", "1"],
                     "best energy -18.0"),
    "qec_surface": (["qec", "surface", "--d", "3"],
                    "surface: 9 data, 8 checks, max weight 4"),
    "qec_steane": (["qec", "steane", "--levels", "1"],
                   "steane: 7 data, 6 checks, max weight 4"),
    "qec_hgp": (["qec", "hgp", "--h1", "{rep3}", "--h2", "{rep3}"],
                "hypergraph_product: 13 data, 12 checks, max weight 4"),
    "qec_embed_grid": (["qec", "embed", "--code", "{surface3}", "--host", "grid"],
                       "grid 5x5: 124 swaps, max span 6"),
    "qec_embed_modular": (["qec", "embed", "--code", "{hgp_rep3}",
                           "--host", str(EXAMPLE_JSON)],
                          "modular: 4 pairs per round"),
    "simulate": ([*NETSIM, "--horizon", "0.05", "--seed", "3"],
                 "8 pairs generated, 3 delivered, mean rate 32.00 Hz"),
    "schedule": (["schedule", str(FIXTURES_DIR / "netsim_arch.json"),
                  str(FIXTURES_DIR / "mixed8.iqc"),
                  "--map", f"file:{FIXTURES_DIR / 'mixed8_split_map.json'}"],
                 "makespan 0.424 ms, 3 pairs, fidelity 0.9930"),
}


class TestSummary:
    """``--summary`` prints one line to stdout, ahead of a report sent there."""

    @pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
    @pytest.mark.parametrize("name", sorted(SUMMARIES))
    def test_summary_line(self, tmp_path, capsys, name, to_file):
        rep3 = tmp_path / "rep3.csv"
        rep3.write_text("1,1,0\n0,1,1\n")
        codes = {"surface3": surface_code_graph(3),
                 "hgp_rep3": hypergraph_product_graph(repetition_check_matrix(3),
                                                      repetition_check_matrix(3))}
        for key, code in codes.items():
            (tmp_path / f"{key}.json").write_text(json.dumps(qec_to_doc(code)))
        argv, line = SUMMARIES[name]
        argv = [a.format(rep3=rep3, **{k: tmp_path / f"{k}.json" for k in codes})
                for a in argv]
        out = tmp_path / "report.json"
        assert main([*argv, "--summary", *(["--out", str(out)] if to_file else [])]) == 0
        stdout = capsys.readouterr().out
        if to_file:
            assert stdout == line + "\n"
            report = out.read_text()
        else:
            first, report = stdout.split("\n", 1)
            assert first == line
        json.loads(report)


class TestBadAdiabaticInputs:
    """An oversized step count ends in exit 1 before any allocation, not a traceback."""

    def test_step_cap(self, capsys):
        code = main(["ising", "adiabatic", DEGENERATE11, "--time", "1",
                     "--steps", "100000000000"])
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("ionfab: error:")]
        assert code == 1
        assert errors == ["ionfab: error: steps must be <= 1000000, got 100000000000"]


class TestBadAnnealInputs:
    """A non-finite or oversized anneal schedule ends in exit 1, not a hang or a run."""

    @pytest.mark.parametrize("flag, value", [
        ("--t-start", "inf"), ("--t-start", "nan"), ("--t-min", "inf"),
    ])
    def test_non_finite_temperature(self, capsys, flag, value):
        code = main(["ising", "anneal", str(FIXTURES_DIR / "ising_degenerate11.json"),
                     flag, value, "--seed", "1"])
        err = capsys.readouterr().err
        assert code == 1
        errors = [line for line in err.splitlines() if line.startswith("ionfab: error:")]
        assert len(errors) == 1
        assert "t_start and t_min must be finite" in errors[0]

    # about 6.2e12 temperatures; 1e12 sweeps at each of 122 temperatures
    @pytest.mark.parametrize("flag, value", [
        ("--t-factor", "0.999999999999"), ("--sweeps", "1000000000000"),
    ])
    def test_oversized_schedule(self, capsys, flag, value):
        start = time.perf_counter()
        code = main(["ising", "anneal", str(FIXTURES_DIR / "ising_degenerate11.json"),
                     flag, value, "--seed", "1"])
        assert time.perf_counter() - start < 5.0
        err = capsys.readouterr().err
        assert code == 1
        errors = [line for line in err.splitlines() if line.startswith("ionfab: error:")]
        assert len(errors) == 1
        assert "anneal schedule exceeds 1000000 sweeps" in errors[0]

    def test_schedule_over_the_term_cap(self, tmp_path, capsys):
        # 124,286 sweeps of a dense 200-spin chain: about 5e9 local-field
        # terms, hours of work, though under the sweep cap
        chain = tmp_path / "c.json"
        assert main(["ising", "--n", "200", "--alpha", "1", "--out", str(chain)]) == 0
        capsys.readouterr()
        start = time.perf_counter()
        code = main(["ising", "anneal", str(chain), "--seed", "1",
                     "--t-factor", "0.9999"])
        assert time.perf_counter() - start < 5.0
        err = capsys.readouterr().err
        assert code == 1
        errors = [line for line in err.splitlines() if line.startswith("ionfab: error:")]
        assert len(errors) == 1
        assert "local-field terms, over the cap of 250000000" in errors[0]


SURFACE3 = ('{"schema": "ionfab-qec/1", "family": "surface", "n_data": 4, '
            '"checks": [{"kind": "Z", "data": [0, 1, 2, 3]}]')
ISING = '{"schema": "ionfab-ising/1", "n": 3, "couplings": %s, "fields": %s}'
QEC_EMBED = ["qec", "embed", "--code", "{f}", "--host", "grid"]
ISING_SOLVE = ["ising", "solve", "{f}"]
SIMULATE = ["simulate", str(EXAMPLE_JSON), "--horizon", "0.5", "--seed", "1"]
SCHEDULE = ["schedule", str(EXAMPLE_JSON), str(FIXTURES_DIR / "mixed8.iqc")]


def example_with(edit) -> str:
    """The text of docs/example.json after ``edit`` changed the decoded document."""
    doc = json.loads(EXAMPLE_JSON.read_text())
    edit(doc)
    return json.dumps(doc)


def one_comm_elus(n_elus: int):
    """An edit giving the example machine ``n_elus`` ELUs of one comm ion each."""
    def edit(doc):
        doc["elus"] = [dict(doc["elus"][0], id=f"E{k}", comm_ion_indices=[0])
                       for k in range(n_elus)]
        doc["switch"]["port_count"] = n_elus
    return edit


# name -> (argv, file text, the error line after "ionfab: error: "); a
# malformed file is named, a domain error found after parsing is not
BAD_INPUTS = {
    "unknown_elu": (["rates", str(EXAMPLE_JSON), "--elu", "Z"], None,
                    "no ELU with id 'Z'"),
    "qec_without_n_data": (
        QEC_EMBED, SURFACE3.replace('"n_data": 4, ', "") + "}",
        "{f}: $: missing required key(s): n_data"),
    "qec_string_n_data": (
        QEC_EMBED, SURFACE3.replace('"n_data": 4', '"n_data": "4"') + "}",
        "{f}: $.n_data: expected integer, got '4'"),
    "qec_scalar_check_data": (
        QEC_EMBED, SURFACE3.replace("[0, 1, 2, 3]", "5") + "}",
        "{f}: $.checks[0].data: expected a non-empty array of integers >= 0"),
    "qec_coords_without_checks": (
        QEC_EMBED, SURFACE3 + ', "coords": {"data": [[0, 0]]}}',
        "{f}: $.coords: missing required key(s): checks"),
    "qec_check_kind_y": (
        QEC_EMBED, SURFACE3.replace('"kind": "Z"', '"kind": "Y"') + "}",
        "{f}: $.checks[0].kind: must be X or Z, got 'Y'"),
    "qec_without_family": (
        QEC_EMBED, SURFACE3.replace('"family": "surface", ', "") + "}",
        "{f}: $: missing required key(s): family"),
    "ising_string_coupling_index": (
        ISING_SOLVE, ISING % ('[["a", 1, 2]]', "[]"),
        "{f}: $.couplings[0][0]: expected integer, got 'a'"),
    "ising_negative_coupling_index": (
        ISING_SOLVE, ISING % ("[[0, 1, 1.0], [-1, 2, 1.0]]", "[]"),
        "{f}: $.couplings[1][0]: must be >= 0, got -1"),
    "ising_negative_second_coupling_index": (
        ISING_SOLVE, ISING % ("[[2, -1, 1.0]]", "[]"),
        "{f}: $.couplings[0][1]: must be >= 0, got -1"),
    "ising_string_coupling": (
        ISING_SOLVE, ISING % ('[[0, 1, "x"]]', "[]"),
        "{f}: $.couplings[0][2]: expected number, got 'x'"),
    "ising_string_field_index": (
        ISING_SOLVE, ISING % ("[]", '[["q", 1]]'),
        "{f}: $.fields[0][0]: expected integer, got 'q'"),
    "ising_negative_field_index": (
        ISING_SOLVE, ISING % ("[]", "[[0, 1], [-2, 1]]"),
        "{f}: $.fields[1][0]: must be >= 0, got -2"),
    "ising_zero_spins": (
        ISING_SOLVE, '{"schema": "ionfab-ising/1", "n": 0, "couplings": [], "fields": []}',
        "{f}: $.n: must be >= 1, got 0"),
    "ising_duplicate_field": (
        ISING_SOLVE, ISING % ("[]", "[[0, 1], [2, 1], [0, -1]]"),
        "{f}: $.fields[2]: duplicate field 0"),
    "ising_nan_coupling": (
        ISING_SOLVE, ISING % ("[[0, 1, NaN]]", "[]"),
        "coupling (0, 1) must be finite, got nan"),
    "ising_without_couplings": (
        ISING_SOLVE, '{"schema": "ionfab-ising/1", "n": 3, "fields": []}',
        "{f}: $: missing required key(s): couplings"),
    "schedule_of_numbers": (
        [*SIMULATE, "--schedule", "{f}"], "[1, 2]",
        "{f}: $[0]: expected object, got int"),
    "schedule_port_on_two_links": (
        [*SIMULATE, "--schedule", "{f}"],
        '[{"time_s": 0.0, "links": [["A", 0, "B", 0], ["A", 0, "B", 1]]}]',
        "{f}: $[0].links: port A.0 used by two links"),
    "schedule_link_within_one_elu": (
        [*SIMULATE, "--schedule", "{f}"],
        '[{"time_s": 0.0, "links": [["A", 0, "A", 19]]}]',
        "{f}: $[0].links[0]: link endpoints must be in distinct ELUs, "
        "got A.0 and A.19"),
    # a links array read before does not pass a later one equal to it under ==
    "schedule_true_port_after_int_port": (
        [*SIMULATE, "--schedule", "{f}"],
        '[{"time_s": 0.0, "links": [["A", 1, "B", 0]]},'
        ' {"time_s": 0.1, "links": [["A", true, "B", 0]]}]',
        "{f}: $[1].links[0][1]: expected integer, got True"),
    "schedule_float_port_after_int_port": (
        [*SIMULATE, "--schedule", "{f}"],
        '[{"time_s": 0.0, "links": [["A", 1, "B", 0]]},'
        ' {"time_s": 0.1, "links": [["A", 1.0, "B", 0]]}]',
        "{f}: $[1].links[0][1]: expected integer, got 1.0"),
    "schedule_bad_time_and_links": (
        [*SIMULATE, "--schedule", "{f}"],
        '[{"time_s": "x", "links": [["A", 0, "B"]]}]',
        "{f}: $[0].links[0]: expected [elu_a, port_a, elu_b, port_b]"),
    "demand_with_one_elu": (
        [*SIMULATE, "--schedule", "{one_link}", "--demand", "{f}"],
        '[{"time_s": 0.1, "elus": ["A"]}]',
        "{f}: $[0].elus: expected [elu_a, elu_b]"),
    "demand_string_time": (
        [*SIMULATE, "--schedule", "{one_link}", "--demand", "{f}"],
        '[{"time_s": "x", "elus": ["A", "B"]}]',
        "{f}: $[0].time_s: expected number, got 'x'"),
    # the sim's own checks of one entry or request, named by file and index
    "schedule_port_not_comm_ion": (
        [*SIMULATE, "--schedule", "{f}"],
        '[{"time_s": 0.0, "links": [["A", 5, "B", 0]]}]',
        "{f}: $[0].links: port A.5 is not a communication ion"),
    "schedule_unsorted": (
        [*SIMULATE, "--schedule", "{f}"],
        '[{"time_s": 0.2, "links": []}, {"time_s": 0.1, "links": []}]',
        "{f}: $[1].time_s: switch schedule times must be sorted"),
    "demand_unconnectable_pair": (
        [*SIMULATE, "--schedule", "{one_link}", "--demand", "{f}"],
        '[{"time_s": 0.1, "elus": ["A", "C"]}]',
        "{f}: $[0].elus: request for ELU pair ('A', 'C') that no scheduled "
        "link can serve"),
    "demand_negative_time": (
        [*SIMULATE, "--schedule", "{one_link}", "--demand", "{f}"],
        '[{"time_s": -0.1, "elus": ["A", "B"]}]',
        "{f}: $[0].time_s: request times must be >= 0, got -0.1"),
    "map_malformed_json": (
        [*SCHEDULE, "--map", "file:{f}"], '{"0": ["A", 2]',
        "{f}: $: invalid JSON at line 1: Expecting ',' delimiter"),
    "map_short_target": (
        [*SCHEDULE, "--map", "file:{f}"], '{"0": ["A"]}',
        "{f}: $.0: expected [elu, position]"),
    "map_non_index_key": (
        [*SCHEDULE, "--map", "file:{f}"], '{"01": ["A", 2]}',
        "{f}: $.01: expected a qubit index as key"),
    "demand_malformed_json": (
        [*SIMULATE, "--schedule", "{one_link}", "--demand", "{f}"],
        '[{"time_s": 0.1, "elus": ["A", "B"]}',
        "{f}: $: invalid JSON at line 1: Expecting ',' delimiter"),
    "circuit_bad_operand": (
        ["schedule", str(EXAMPLE_JSON), "{f}"], "qubits 2\nH x1\n",
        "{f}: line 2, col 3: expected operand like 'q0', got 'x1'"),
    "hgp_bad_h2": (
        ["qec", "hgp", "--h1", "{good_csv}", "--h2", "{f}"], "1,1\n1,x\n",
        "{f}: $: non-integer entry on line 2"),
    "hgp_empty_h2": (
        ["qec", "hgp", "--h1", "{good_csv}", "--h2", "{f}"], "",
        "{f}: $: empty check matrix file"),
    "hgp_ragged_h2": (
        ["qec", "hgp", "--h1", "{good_csv}", "--h2", "{f}"], "1,1\n1\n",
        "{f}: $: ragged rows in check matrix file"),
    "circuit_line_separator": (
        ["schedule", str(EXAMPLE_JSON), "{f}"], "qubits 2\nH q0\u2028H q5\n",
        "{f}: line 2, col 6: expected operand like 'q0', got 'H'"),
    "circuit_two_counts": (
        ["schedule", str(EXAMPLE_JSON), "{f}"], "qubits 2 3\n",
        "{f}: line 1, col 10: header takes exactly one count"),
    "circuit_zero_qubits": (
        ["schedule", str(EXAMPLE_JSON), "{f}"], "qubits 0\n",
        "{f}: line 1, col 8: qubit count must be >= 1"),
    "circuit_rz_without_angle": (
        ["schedule", str(EXAMPLE_JSON), "{f}"], "qubits 1\nRZ\n",
        "{f}: line 2, col 1: RZ requires an angle"),
    "circuit_rz_operand_without_angle": (
        ["schedule", str(EXAMPLE_JSON), "{f}"], "qubits 1\nRZ q0\n",
        "{f}: line 2, col 1: RZ requires a finite angle"),
    "circuit_ms_without_angle": (
        ["schedule", str(EXAMPLE_JSON), "{f}"], "qubits 2\nMS q0 q1\n",
        "{f}: line 2, col 1: MS requires a finite angle"),
    "circuit_angle_on_x": (
        ["schedule", str(EXAMPLE_JSON), "{f}"], "qubits 1\nX q0 0.5\n",
        "{f}: line 2, col 6: X takes no angle"),
    "simulate_p_above_one": (
        [*SIMULATE, "--schedule", "{one_link}", "--p", "2"], None,
        "p_override out of [0,1]: 2.0"),
    # finite couplings whose energies would overflow to -inf and inf
    "ising_overflowing_couplings": (
        ISING_SOLVE, ISING % ("[[0, 1, 1e308], [0, 2, 1e308], [1, 2, 1e308]]", "[]"),
        "couplings and fields too large: 2 * (sum |J| + sum |B|) overflows"),
    # finite phases time * energy that would overflow in the Trotter loop
    "ising_adiabatic_overflowing_time": (
        ["ising", "adiabatic", "{f}", "--time", "1e300", "--steps", "10"],
        ISING % ("[[0, 1, 1e10], [0, 2, 1e10], [1, 2, 1e10]]", "[]"),
        "total_time too large for these couplings and fields: "
        "total_time * 2 * (sum |J| + sum |B|) overflows"),
    # one spin over each solver's size cap
    "ising_solve_over_cap": (
        ISING_SOLVE, '{"schema": "ionfab-ising/1", "n": 25, "couplings": [], "fields": []}',
        "n = 25 exceeds brute-force cap 24"),
    "ising_power_law_over_cap": (
        ["ising", "--n", "1001", "--alpha", "1"], None,
        "n = 1001 exceeds power-law cap 1000"),
    "ising_adiabatic_over_cap": (
        ["ising", "adiabatic", "{f}", "--time", "1", "--steps", "10"],
        '{"schema": "ionfab-ising/1", "n": 13, "couplings": [], "fields": []}',
        "n = 13 exceeds adiabatic cap 12"),
    "embed_placement_on_machine": (
        ["qec", "embed", "--code", "{f}", "--host", str(EXAMPLE_JSON),
         "--placement", "row_major"], SURFACE3 + "}",
        "--placement applies only to --host grid"),
    "embed_partition_on_grid": (
        [*QEC_EMBED, "--partition", "round_robin"], SURFACE3 + "}",
        "--partition applies only to a machine file --host"),
    # the partitioner's one capacity check: n_ions slots per ELU for a code,
    # memory ions for a circuit
    "embed_code_too_big": (
        ["qec", "embed", "--code", "{f}", "--host", str(EXAMPLE_JSON)],
        json.dumps(qec_to_doc(surface_code_graph(5))),
        "49 nodes exceed 40 ELU slots"),
    "schedule_circuit_too_big": (
        ["schedule", str(EXAMPLE_JSON), "{f}"], "qubits 40\nX q0\n",
        "40 nodes exceed 32 ELU slots"),
    "arch_wrong_schema_id": (
        ["rates", "{f}"], example_with(lambda d: d.update(schema="ionfab-arch/2")),
        "{f}: $.schema: expected schema 'ionfab-arch/1', got 'ionfab-arch/2'"),
    "ising_wrong_schema_id": (
        ISING_SOLVE, ISING.replace("ionfab-ising/1", "ionfab-ising/2") % ("[]", "[]"),
        "{f}: $.schema: expected schema 'ionfab-ising/1', got 'ionfab-ising/2'"),
    "qec_wrong_schema_id": (
        QEC_EMBED, SURFACE3.replace("ionfab-qec/1", "ionfab-qec/2") + "}",
        "{f}: $.schema: expected schema 'ionfab-qec/1', got 'ionfab-qec/2'"),
    "arch_mass_u_and_mass_kg": (
        ["rates", "{f}"], example_with(lambda d: d["species"].update(mass_u=171.0)),
        "{f}: $.species: give mass_u or mass_kg, not both"),
    "arch_unknown_species": (
        ["rates", "{f}"], example_with(lambda d: d["species"].update(name="Xx1")),
        "{f}: $.species.name: unknown species 'Xx1' (known: Yb171)"),
    "arch_string_dual_species_comm": (
        ["rates", "{f}"],
        example_with(lambda d: d["link"].update(dual_species_comm="yes")),
        "{f}: $.link.dual_species_comm: expected boolean"),
    # the measurement-isolation mode and its shuttle cost are gone
    "arch_shuttle_cost_time": (
        ["validate", "{f}"],
        example_with(lambda d: d["elus"][0].update(shuttle_cost_time_s=0.0001)),
        "{f}: $.elus[0]: unknown key(s): shuttle_cost_time_s"),
    # the size caps; each is also the schema's maximum
    "arch_too_many_elus": (
        ["graph", "{f}"], example_with(one_comm_elus(129)),
        "architecture invalid: elus: at most 128 ELUs, got 129"),
    "arch_too_many_ions": (
        ["graph", "{f}"], example_with(lambda d: d["elus"][1].update(n_ions=101)),
        "architecture invalid: elus[1].n_ions: must be <= 100"),
    "arch_too_many_ports": (
        ["graph", "{f}"], example_with(lambda d: d["switch"].update(port_count=513)),
        "architecture invalid: switch.port_count: must be <= 512"),
    "arch_buffer_too_big": (
        ["graph", "{f}"],
        example_with(lambda d: d["link"].update(buffer_capacity=1_000_001)),
        "architecture invalid: buffer_capacity: must be <= 1000000"),
    "circuit_too_many_qubits": (
        ["schedule", str(EXAMPLE_JSON), "{f}"], "qubits 1001\n",
        "{f}: line 1, col 8: qubit count must be <= 1000"),
    "circuit_too_many_ops": (
        ["schedule", str(EXAMPLE_JSON), "{f}"], "qubits 1\n" + "X q0\n" * 10_001,
        "{f}: line 10002, col 1: more than 10000 operations"),
    "qec_n_data_over_cap": (
        QEC_EMBED, SURFACE3.replace('"n_data": 4', '"n_data": 100001') + "}",
        "{f}: $.n_data: must be <= 100000, got 100001"),
    # the generators refuse what the reader would: rep(225)^2 has 100,801 data nodes
    "qec_surface_over_cap": (
        ["qec", "surface", "--d", "317"], None,
        "surface code of distance 317 has 100489 data nodes, over the cap of 100000"),
    "qec_steane_over_cap": (
        ["qec", "steane", "--levels", "6"], None,
        "Steane code of 6 levels has 7^6 data nodes, over the cap of 100000"),
    "qec_hgp_over_cap": (
        ["qec", "hgp", "--h1", "{f}", "--h2", "{f}"],
        "".join(",".join("1" if c in (r, r + 1) else "0" for c in range(225)) + "\n"
                for r in range(224)),
        "hypergraph product of 224x225 and 224x225 check matrices has 100801 "
        "data nodes, over the cap of 100000"),
    # 20 ions colliding at 1e300 Hz each would need about 1e301 events in 0.5 s
    "simulate_collision_storm": (
        ["simulate", "{f}", "--schedule", "{one_link}", "--horizon", "0.5",
         "--seed", "1"],
        example_with(lambda d: d["elus"][0].update(collision_rate_per_ion_hz=1e300)),
        "simulating to 0.5 s means about 1e+301 random events, "
        "over the cap of 10000000"),
}


class TestLibraryWarnings:
    """A library warning is one stderr line ahead of the manifest."""

    def test_lamb_dicke_warning(self, tmp_path, capsys):
        arch = tmp_path / "soft_trap.json"
        arch.write_text(example_with(
            lambda d: d["elus"][0].update(trap_frequency_rad_s=1e4)))
        assert main(["rates", str(arch)]) == 0
        warning, manifest = capsys.readouterr().err.splitlines()
        assert warning == ("ionfab: warning: Lamb-Dicke parameter 1.079 > 0.3 for "
                           "ELU 'A'; plane-wave force model may not apply")
        assert json.loads(manifest)["subcommand"] == "rates"


class TestBadInputFiles:
    """Each bad input file ends in exit 1 and one `path: message` line."""

    @pytest.mark.parametrize("name", sorted(BAD_INPUTS))
    def test_exit_1_with_one_diagnostic(self, tmp_path, capsys, name):
        argv, text, expected = BAD_INPUTS[name]
        bad, one_link = tmp_path / "input.json", tmp_path / "one_link.json"
        good_csv = tmp_path / "good.csv"
        one_link.write_text(ONE_LINK)
        good_csv.write_text("1,1\n")
        if text is not None:
            bad.write_text(text)
        code = main([a.format(f=bad, one_link=one_link, good_csv=good_csv)
                     for a in argv])
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("ionfab: error: ")]
        assert code == 1
        assert errors == [f"ionfab: error: {expected.format(f=bad)}"]

    @pytest.mark.parametrize("argv, content", [
        (["schedule", str(EXAMPLE_JSON), "{f}"], b"qubits 2\nH q0 \xff\n"),
        (["qec", "hgp", "--h1", "{f}", "--h2", "{f}"], b"1,0\xff\n"),
    ], ids=["iqc", "csv"])
    def test_non_utf8_text(self, tmp_path, capsys, argv, content):
        bad = tmp_path / "input.txt"
        bad.write_bytes(content)
        code = main([a.format(f=bad) for a in argv])
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("ionfab: error: ")]
        assert code == 1
        assert errors == [f"ionfab: error: {bad}: $: not UTF-8 text: invalid start byte"]
