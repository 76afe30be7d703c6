import hashlib
import json
import subprocess
import sys
import time

import pytest

from conftest import EXAMPLE_JSON, FIXTURES_DIR, GOLDEN_DIR, cli_env, run_cli
from ionfab.cli import main
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
        assert errors == ["ionfab: error: pair request at t = 1e+300 s "
                          "exceeds 1000000 simulated pairs"]


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
        assert "ionfab: error: switch schedule times must be finite" in err

    def test_malformed_schedule_json(self, tmp_path, capsys):
        code, err = self.simulate(tmp_path, capsys, ONE_LINK[:-1])
        assert code == 1
        assert f"ionfab: error: {tmp_path / 'sched.json'}: $: invalid JSON at line 1" in err


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
# every summary moved ahead of its report. {surface3}, {hgp_rep3} and {rep3}
# are files the test writes.
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
                 "9 pairs generated, 3 delivered, mean rate 36.00 Hz"),
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
    "qec_without_family": (
        QEC_EMBED, SURFACE3.replace('"family": "surface", ', "") + "}",
        "{f}: $: missing required key(s): family"),
    "ising_string_coupling_index": (
        ISING_SOLVE, ISING % ('[["a", 1, 2]]', "[]"),
        "{f}: $.couplings[0][0]: expected integer, got 'a'"),
    "ising_string_coupling": (
        ISING_SOLVE, ISING % ('[[0, 1, "x"]]', "[]"),
        "{f}: $.couplings[0][2]: expected number, got 'x'"),
    "ising_string_field_index": (
        ISING_SOLVE, ISING % ("[]", '[["q", 1]]'),
        "{f}: $.fields[0][0]: expected integer, got 'q'"),
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
    "demand_with_one_elu": (
        [*SIMULATE, "--schedule", "{one_link}", "--demand", "{f}"],
        '[{"time_s": 0.1, "elus": ["A"]}]',
        "{f}: $[0].elus: expected [elu_a, elu_b]"),
    "demand_string_time": (
        [*SIMULATE, "--schedule", "{one_link}", "--demand", "{f}"],
        '[{"time_s": "x", "elus": ["A", "B"]}]',
        "{f}: $[0].time_s: expected number, got 'x'"),
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
    "circuit_two_counts": (
        ["schedule", str(EXAMPLE_JSON), "{f}"], "qubits 2 3\n",
        "{f}: line 1, col 10: header takes exactly one count"),
    "circuit_zero_qubits": (
        ["schedule", str(EXAMPLE_JSON), "{f}"], "qubits 0\n",
        "{f}: line 1, col 8: qubit count must be >= 1"),
    "circuit_rz_without_angle": (
        ["schedule", str(EXAMPLE_JSON), "{f}"], "qubits 1\nRZ\n",
        "{f}: line 2, col 1: RZ requires an angle"),
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
    "arch_mass_u_and_mass_kg": (
        ["rates", "{f}"], example_with(lambda d: d["species"].update(mass_u=171.0)),
        "{f}: $.species: give mass_u or mass_kg, not both"),
    "arch_string_dual_species_comm": (
        ["rates", "{f}"],
        example_with(lambda d: d["link"].update(dual_species_comm="yes")),
        "{f}: $.link.dual_species_comm: expected boolean"),
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
