"""ionfab: resource estimation and discrete-event simulation for modular
trapped-ion quantum computers.

The library models a machine as elementary logic units (ion chains with
full internal connectivity and designated communication ions) wired through
a reconfigurable photonic crossconnect. It computes the closed-form
physical rates, builds the hierarchical interaction graph, simulates
heralded pair generation with FIFO buffering, generates and embeds QEC
check-operator graphs, maps circuits onto the hardware, and solves
desk-scale Ising instances exactly for cross-validation.
"""

__version__ = "0.1.0"

from .arch import (ArchitectureSpec, DriveField, EluSpec, IonSpecies,
                   SwitchSpec, ValidationReport, default_species,
                   load_architecture, validate_architecture)
from .circuits import Circuit, GateKind, GateOp, parse_circuit
from .errors import (CapacityError, DomainError, InvalidArchitecture,
                     IonfabError, ParseError, SchemaError, UnknownSpecies)
from .graph import (InteractionGraph, Tier, build_interaction_graph,
                    graph_distance_profile)
from .ising import (AdiabaticRun, AnnealSchedule, IsingInstance, SpinConfig,
                    adiabatic_evolve, anneal_classical,
                    brute_force_ground_state, boltzmann_topology, energy,
                    power_law_couplings)
from .netsim import (NetworkSim, SimResult, SwitchConfig, run_sim,
                     theoretical_rate_check)
from .qec import (EmbeddingReport, QecGraph, embed_on_grid, embed_on_modular,
                  hypergraph_product_graph, repetition_check_matrix,
                  steane_concat_graph, surface_code_graph)
from .rates import (RateReport, gate_rate, link_success_probability,
                    mean_connection_rate, rabi_frequency, rate_report,
                    recoil_frequency, slow_gate_time, state_dependent_force)
from .scheduler import (QubitMap, ScheduleResult, assign_qubits,
                        brute_force_best_map, crossing_count, schedule)
