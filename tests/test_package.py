import json
import subprocess
import sys

from conftest import cli_env

# What `from ionfab import *` binds in a fresh interpreter. The package has
# no __all__, so this is every public name of ionfab/__init__.py: the names
# it imports and the submodules that importing them loads.
STAR_NAMES = [
    "AdiabaticRun", "AnnealSchedule", "ArchitectureSpec", "CapacityError", "Circuit",
    "DomainError", "DriveField", "EluSpec", "EmbeddingReport", "GateKind", "GateOp",
    "InteractionGraph", "InvalidArchitecture", "IonSpecies", "IonfabError",
    "IsingInstance", "NetworkSim", "ParseError", "QecGraph", "QubitMap", "RateReport",
    "ScheduleResult", "SchemaError", "SimResult", "SpinConfig", "SwitchConfig",
    "SwitchSpec", "Tier", "UnknownSpecies", "ValidationReport", "adiabatic_evolve",
    "anneal_classical", "arch", "assign_qubits", "boltzmann_topology",
    "brute_force_best_map", "brute_force_ground_state", "build_interaction_graph",
    "circuits", "constants", "crossing_count", "data", "default_species",
    "embed_on_grid", "embed_on_modular", "energy", "errors", "gate_rate", "graph",
    "graph_distance_profile", "hypergraph_product_graph", "ising", "jsondoc",
    "link_success_probability", "load_architecture", "mean_connection_rate", "netsim",
    "parse_circuit", "power_law_couplings", "qec", "rabi_frequency", "rate_report",
    "rates", "recoil_frequency", "repetition_check_matrix", "run_sim", "schedule",
    "scheduler", "slow_gate_time", "state_dependent_force", "steane_concat_graph",
    "surface_code_graph", "theoretical_rate_check", "validate_architecture",
]


def test_star_import_names():
    code = ("from ionfab import *\n"
            "names = sorted(n for n in dir() if not n.startswith('_'))\n"
            "import json; print(json.dumps(names))")
    r = subprocess.run([sys.executable, "-c", code], text=True, capture_output=True,
                       env=cli_env(), check=True)
    assert json.loads(r.stdout) == STAR_NAMES
