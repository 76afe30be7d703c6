import json

import jsonschema
import pytest

from conftest import EXAMPLE_JSON, SCHEMAS_DIR
from ionfab.arch import (MAX_BUFFER_CAPACITY, MAX_ELUS, MAX_IONS_PER_ELU,
                         MAX_SWITCH_PORTS, architecture_to_doc, load_architecture)
from ionfab.cli import sim_result_doc
from ionfab.ising import instance_to_doc, power_law_couplings
from ionfab.netsim import SwitchConfig, default_link, run_sim
from ionfab.qec import (MAX_DOC_DATA, hypergraph_product_graph, qec_to_doc,
                        repetition_check_matrix, steane_concat_graph,
                        surface_code_graph)


def load_schema(name):
    return json.loads((SCHEMAS_DIR / name).read_text())


def validate(doc, schema_name):
    jsonschema.validate(doc, load_schema(schema_name),
                        format_checker=jsonschema.FormatChecker())


class TestArchSchema:
    def test_example_file_validates(self):
        validate(json.loads(EXAMPLE_JSON.read_text()), "ionfab-arch-1.schema.json")

    def test_generated_doc_validates(self):
        validate(architecture_to_doc(load_architecture(EXAMPLE_JSON)),
                 "ionfab-arch-1.schema.json")

    def test_unknown_key_fails_schema(self):
        doc = json.loads(EXAMPLE_JSON.read_text())
        doc["bogus"] = 1
        with pytest.raises(jsonschema.ValidationError):
            validate(doc, "ionfab-arch-1.schema.json")

    def test_bad_fraction_fails_schema(self):
        doc = json.loads(EXAMPLE_JSON.read_text())
        doc["link"]["collection_fraction"] = 1.5
        with pytest.raises(jsonschema.ValidationError):
            validate(doc, "ionfab-arch-1.schema.json")

    def test_size_caps_match_the_parser(self):
        props = load_schema("ionfab-arch-1.schema.json")["properties"]
        assert props["elus"]["maxItems"] == MAX_ELUS
        assert props["elus"]["items"]["properties"]["n_ions"]["maximum"] == \
            MAX_IONS_PER_ELU
        assert props["switch"]["properties"]["port_count"]["maximum"] == \
            MAX_SWITCH_PORTS
        assert props["link"]["properties"]["buffer_capacity"]["maximum"] == \
            MAX_BUFFER_CAPACITY

    def test_ions_over_cap_fail_schema(self):
        doc = json.loads(EXAMPLE_JSON.read_text())
        doc["elus"][0]["n_ions"] = MAX_IONS_PER_ELU + 1
        with pytest.raises(jsonschema.ValidationError):
            validate(doc, "ionfab-arch-1.schema.json")


class TestIsingSchema:
    def test_generated_instance_validates(self):
        validate(instance_to_doc(power_law_couplings(6, 1.3, -1.0)),
                 "ionfab-ising-1.schema.json")

    def test_bad_coupling_row_fails(self):
        doc = instance_to_doc(power_law_couplings(3, 1.0, 1.0))
        doc["couplings"][0] = [0, 1]
        with pytest.raises(jsonschema.ValidationError):
            validate(doc, "ionfab-ising-1.schema.json")


class TestQecSchema:
    @pytest.mark.parametrize("code", [
        surface_code_graph(3),
        steane_concat_graph(2),
        hypergraph_product_graph(repetition_check_matrix(3),
                                 repetition_check_matrix(3)),
    ], ids=["surface", "steane", "hgp"])
    def test_generated_codes_validate(self, code):
        validate(qec_to_doc(code), "ionfab-qec-1.schema.json")

    def test_data_cap_matches_the_parser(self):
        schema = load_schema("ionfab-qec-1.schema.json")
        assert schema["properties"]["n_data"]["maximum"] == MAX_DOC_DATA

    def test_bad_kind_fails(self):
        doc = qec_to_doc(surface_code_graph(3))
        doc["checks"][0]["kind"] = "Y"
        with pytest.raises(jsonschema.ValidationError):
            validate(doc, "ionfab-qec-1.schema.json")


class TestSimSchema:
    def test_result_doc_validates(self, example_spec):
        cfg = SwitchConfig(frozenset({default_link(example_spec)}))
        result = run_sim(example_spec, [(0.0, cfg)],
                         [(0.05, ("A", "B"))], 0.2, seed=3)
        validate(sim_result_doc(result), "ionfab-sim-1.schema.json")
