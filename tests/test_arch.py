import dataclasses
import json
import math

import pytest

from ionfab.arch import (MAX_BUFFER_CAPACITY, MAX_ELUS, MAX_IONS_PER_ELU,
                         MAX_SWITCH_PORTS, DriveField, SwitchSpec,
                         architecture_to_doc, default_species,
                         load_architecture, validate_architecture)
from ionfab.constants import ATOMIC_MASS_KG, HBAR, TWO_PI
from ionfab.errors import InvalidArchitecture, SchemaError, UnknownSpecies
from conftest import EXAMPLE_JSON

EXAMPLE_TEXT = EXAMPLE_JSON.read_text()


class TestDefaultSpecies:
    def test_yb171_hyperfine_splitting(self):
        assert default_species("Yb171").hyperfine_splitting == 12.642812e9

    def test_yb171_linewidth(self):
        assert default_species("Yb171").linewidth == 2 * math.pi * 10e6

    def test_yb171_detection_time(self):
        assert default_species("Yb171").detection_time == 20e-6

    def test_yb171_coherence_time(self):
        assert default_species("Yb171").qubit_coherence_time >= 1000.0

    def test_yb171_mass_plausible(self):
        # 171 u within a percent; the table stores the isotopic mass
        assert default_species("Yb171").mass == pytest.approx(
            171 * 1.6605e-27, rel=1e-2)

    def test_unknown_species(self):
        with pytest.raises(UnknownSpecies):
            default_species("Unobtainium1")


class TestValidation:
    def test_example_passes(self, example_spec):
        assert validate_architecture(example_spec).ok

    def test_collection_fraction_out_of_range(self, built_spec):
        bad = dataclasses.replace(built_spec, collection_fraction=1.5)
        report = validate_architecture(bad)
        assert not report.ok
        assert any(v.path == "collection_fraction" and "out of (0,1]" in v.message
                   for v in report.violations)

    def test_duplicate_comm_ion(self, built_spec):
        elus = (dataclasses.replace(built_spec.elus[0],
                                    comm_ion_indices=(0, 0)),) + built_spec.elus[1:]
        report = validate_architecture(dataclasses.replace(built_spec, elus=elus))
        assert any("duplicate communication ion" in v.message
                   for v in report.violations)

    def test_comm_index_out_of_range(self, built_spec):
        elus = (dataclasses.replace(built_spec.elus[0],
                                    comm_ion_indices=(0, 25)),) + built_spec.elus[1:]
        report = validate_architecture(dataclasses.replace(built_spec, elus=elus))
        assert any("comm_ion_indices" in v.path for v in report.violations)

    def test_attempt_rate_bounded_by_emission(self, built_spec):
        bad = dataclasses.replace(built_spec, attempt_rate=2e7)  # gamma/2pi = 1e7
        report = validate_architecture(bad)
        assert any("emission-rate bound" in v.message for v in report.violations)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_total_over_non_finite(self, built_spec, value):
        bad = dataclasses.replace(built_spec, detector_efficiency=value)
        report = validate_architecture(bad)  # must not raise
        assert any(v.path == "detector_efficiency" for v in report.violations)

    def test_nan_trap_frequency_reported(self, built_spec):
        elus = (dataclasses.replace(built_spec.elus[0],
                                    trap_frequency=float("nan")),) + built_spec.elus[1:]
        report = validate_architecture(dataclasses.replace(built_spec, elus=elus))
        assert any("trap_frequency" in v.path for v in report.violations)

    def test_no_elus(self, built_spec):
        report = validate_architecture(dataclasses.replace(built_spec, elus=()))
        assert any(v.path == "elus" for v in report.violations)

    def test_rabi_consistency(self, built_spec):
        drive = DriveField(effective_wavevector=1e7, rabi_frequency=1.0,
                           dipole_coupling=HBAR, field_amplitude=2.0)
        report = validate_architecture(dataclasses.replace(built_spec, drive=drive))
        assert any("mu*E0/hbar" in v.message for v in report.violations)

    def test_fast_gate_distance_bounds(self, built_spec):
        elus = (dataclasses.replace(built_spec.elus[0],
                                    fast_gate_distance=20),) + built_spec.elus[1:]
        report = validate_architecture(dataclasses.replace(built_spec, elus=elus))
        assert any("fast_gate_distance" in v.path for v in report.violations)

    def test_switch_ports_cover_comm_ions(self, built_spec):
        small = dataclasses.replace(
            built_spec, switch=SwitchSpec(port_count=2, reconfiguration_time=1e-3))
        report = validate_architecture(small)
        assert any("switch ports" in v.message for v in report.violations)


def capped_spec(spec, n_elus, n_ions, ports, buffer_capacity):
    """``spec`` with ``n_elus`` copies of its first ELU, each of ``n_ions``
    ions with one communication ion."""
    elu = dataclasses.replace(spec.elus[0], n_ions=n_ions, comm_ion_indices=(0,),
                              fast_gate_distance=1)
    return dataclasses.replace(
        spec, elus=tuple(dataclasses.replace(elu, id=f"E{k}") for k in range(n_elus)),
        switch=SwitchSpec(port_count=ports, reconfiguration_time=1e-3),
        buffer_capacity=buffer_capacity)


class TestSizeCaps:
    def test_machine_at_every_cap_passes(self, built_spec):
        spec = capped_spec(built_spec, MAX_ELUS, MAX_IONS_PER_ELU,
                           MAX_SWITCH_PORTS, MAX_BUFFER_CAPACITY)
        assert validate_architecture(spec).ok

    @pytest.mark.parametrize("over, path, message", [
        ({"n_elus": MAX_ELUS + 1}, "elus",
         f"at most {MAX_ELUS} ELUs, got {MAX_ELUS + 1}"),
        ({"n_ions": MAX_IONS_PER_ELU + 1}, "elus[0].n_ions",
         f"must be <= {MAX_IONS_PER_ELU}"),
        ({"ports": MAX_SWITCH_PORTS + 1}, "switch.port_count",
         f"must be <= {MAX_SWITCH_PORTS}"),
        ({"buffer_capacity": MAX_BUFFER_CAPACITY + 1}, "buffer_capacity",
         f"must be <= {MAX_BUFFER_CAPACITY}"),
    ], ids=["elus", "n_ions", "ports", "buffer"])
    def test_one_over_a_cap_is_one_violation(self, built_spec, over, path, message):
        sizes = {"n_elus": 1, "n_ions": 20, "ports": MAX_SWITCH_PORTS,
                 "buffer_capacity": 64}
        report = validate_architecture(capped_spec(built_spec, **{**sizes, **over}))
        assert [(v.path, v.message) for v in report.violations] == [(path, message)]


class TestLoadSave:
    def test_example_fixture_loads(self, example_spec):
        assert len(example_spec.elus) == 2
        assert all(e.n_ions == 20 for e in example_spec.elus)
        assert example_spec.species.name == "Yb171"

    def test_round_trip_example(self, built_spec, tmp_path):
        path = tmp_path / "arch.json"
        path.write_text(json.dumps(architecture_to_doc(built_spec), indent=2,
                                   sort_keys=True))
        assert load_architecture(path) == built_spec

    def test_round_trip_with_lifetime_and_components(self, built_spec, tmp_path):
        drive = DriveField(effective_wavevector=built_spec.drive.effective_wavevector,
                           rabi_frequency=1e-29 * 1e4 / HBAR,
                           dipole_coupling=1e-29, field_amplitude=1e4)
        spec = dataclasses.replace(built_spec, drive=drive, pair_lifetime=0.5,
                                   dual_species_comm=True)
        path = tmp_path / "arch.json"
        path.write_text(json.dumps(architecture_to_doc(spec), indent=2,
                                   sort_keys=True))
        assert load_architecture(path) == spec

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        with pytest.raises(SchemaError, match="empty"):
            load_architecture(path)

    def test_missing_drive_names_field(self, tmp_path):
        doc = json.loads(EXAMPLE_TEXT)
        del doc["drive"]
        path = tmp_path / "arch.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="drive"):
            load_architecture(path)

    def test_unknown_key_rejected(self, tmp_path):
        doc = json.loads(EXAMPLE_TEXT)
        doc["extras"] = {}
        path = tmp_path / "arch.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="unknown key"):
            load_architecture(path)

    def test_unknown_nested_key_rejected(self, tmp_path):
        doc = json.loads(EXAMPLE_TEXT)
        doc["link"]["bogus"] = 1
        path = tmp_path / "arch.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=r"\$\.link"):
            load_architecture(path)

    def test_invalid_json_diagnostics(self, tmp_path):
        path = tmp_path / "arch.json"
        path.write_text("{\n  broken\n}")
        with pytest.raises(SchemaError, match="line 2"):
            load_architecture(path)

    def test_validation_failure_raises(self, tmp_path):
        doc = json.loads(EXAMPLE_TEXT)
        doc["link"]["collection_fraction"] = 2.0
        path = tmp_path / "arch.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidArchitecture):
            load_architecture(path)

    def test_hz_and_rad_s_are_exclusive(self, tmp_path):
        doc = json.loads(EXAMPLE_TEXT)
        doc["elus"][0]["trap_frequency_hz"] = 5e6
        # the save format already carries trap_frequency_rad_s
        path = tmp_path / "arch.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="exactly one"):
            load_architecture(path)

    def test_hz_suffix_multiplies_by_two_pi(self, tmp_path):
        doc = json.loads(EXAMPLE_TEXT)
        del doc["elus"][0]["trap_frequency_rad_s"]
        doc["elus"][0]["trap_frequency_hz"] = 3e6
        path = tmp_path / "arch.json"
        path.write_text(json.dumps(doc))
        spec = load_architecture(path)
        assert spec.elus[0].trap_frequency == TWO_PI * 3e6

    def test_mass_in_atomic_units(self, tmp_path):
        doc = json.loads(EXAMPLE_TEXT)
        del doc["species"]["mass_kg"]
        doc["species"]["mass_u"] = 171.0
        path = tmp_path / "arch.json"
        path.write_text(json.dumps(doc))
        assert load_architecture(path).species.mass == 171.0 * ATOMIC_MASS_KG

    def test_drive_from_components_only(self, tmp_path):
        doc = json.loads(EXAMPLE_TEXT)
        doc["drive"] = {"effective_wavevector_rad_m": 3.5e7,
                        "dipole_coupling": 1e-29, "field_amplitude": 1e4}
        path = tmp_path / "arch.json"
        path.write_text(json.dumps(doc))
        spec = load_architecture(path)
        assert spec.drive.rabi_frequency == 1e-29 * 1e4 / HBAR

