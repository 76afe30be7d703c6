"""Architecture description: parameter types, species defaults, validation, JSON I/O.

Internal units are SI throughout; angular frequencies are rad/s. The JSON
file format ("ionfab-arch/1") accepts angular quantities as plain
frequencies via ``*_hz`` keys (multiplied by 2*pi on load) or directly via
``*_rad_s`` keys; :func:`architecture_to_doc` always emits ``*_rad_s`` so
that a round trip through JSON is bit exact.

All types are immutable after construction and safe to share between
threads or processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .constants import ATOMIC_MASS_KG, HBAR, TWO_PI, species_entry
from .errors import DomainError, InvalidArchitecture, SchemaError
from .jsondoc import decode, integer, number, parse_json, require_keys, string

SCHEMA_ID = "ionfab-arch/1"

# Relative tolerance for the mu*E0/hbar vs rabi_frequency consistency check.
RABI_CONSISTENCY_RTOL = 1e-12

# Size caps, so that every machine takes bounded work: the interaction graph
# alone holds up to n_ions^2 edges per ELU. The schema gives the same bounds.
MAX_ELUS = 128
MAX_IONS_PER_ELU = 100
MAX_SWITCH_PORTS = 512
MAX_BUFFER_CAPACITY = 1_000_000


@dataclass(frozen=True)
class IonSpecies:
    name: str
    mass: float                  # kg
    hyperfine_splitting: float   # Hz
    linewidth: float             # rad/s, excited-state radiative linewidth
    detection_time: float        # s
    qubit_coherence_time: float  # s, T2 memory time


@dataclass(frozen=True)
class DriveField:
    """Qubit-control field. ``rabi_frequency`` may be given directly or derived
    as mu*E0/hbar when both components are supplied."""

    effective_wavevector: float          # rad/m
    rabi_frequency: float                # rad/s
    dipole_coupling: float | None = None  # J*m/V
    field_amplitude: float | None = None  # V/m


@dataclass(frozen=True)
class EluSpec:
    id: str
    n_ions: int
    comm_ion_indices: tuple[int, ...]
    fast_gate_distance: int        # ion spacings
    trap_frequency: float          # rad/s
    single_qubit_gate_time: float  # s
    collision_rate_per_ion: float = 0.0  # 1/s, 0 disables collisions
    reload_time: float = 0.1       # s
    shuttle_cost_time: float = 0.0  # s

    @property
    def memory_ion_count(self) -> int:
        return self.n_ions - len(self.comm_ion_indices)

    def memory_positions(self) -> list[int]:
        comm = set(self.comm_ion_indices)
        return [p for p in range(self.n_ions) if p not in comm]


@dataclass(frozen=True)
class SwitchSpec:
    port_count: int
    reconfiguration_time: float  # s


@dataclass(frozen=True)
class ArchitectureSpec:
    species: IonSpecies
    drive: DriveField
    elus: tuple[EluSpec, ...]
    switch: SwitchSpec
    buffer_capacity: int            # pairs per ELU pair
    attempt_rate: float             # 1/s, repetition rate R of the photonic interface
    collection_fraction: float      # F
    detector_efficiency: float      # eta_D
    two_qubit_gate_fidelity: float
    teleport_overhead_time: float   # s
    classical_latency: float        # s
    pair_lifetime: float | None = None  # s, None = pairs never expire
    dual_species_comm: bool = False     # metadata only, no behavioral difference

    def elu(self, elu_id: str) -> EluSpec:
        for e in self.elus:
            if e.id == elu_id:
                return e
        raise DomainError(f"no ELU with id {elu_id!r}")

    def elu_ids(self) -> list[str]:
        return [e.id for e in self.elus]


@dataclass(frozen=True)
class Violation:
    path: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "pass"
        return "\n".join(f"{v.path}: {v.message}" for v in self.violations)


def default_species(name: str) -> IonSpecies:
    """Species with table constants filled in; raises UnknownSpecies otherwise."""
    rec = species_entry(name)
    return IonSpecies(
        name=name,
        mass=rec["mass_u"] * ATOMIC_MASS_KG,
        hyperfine_splitting=rec["hyperfine_splitting_hz"],
        linewidth=TWO_PI * rec["linewidth_hz"],
        detection_time=rec["detection_time_s"],
        qubit_coherence_time=rec["qubit_coherence_time_s"],
    )


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def _bad(value) -> bool:
    return not isinstance(value, (int, float)) or not math.isfinite(value)


def validate_architecture(spec: ArchitectureSpec) -> ValidationReport:
    """Check every documented invariant; violations are returned, never raised.

    Total over arbitrary finite or non-finite numeric inputs: NaN and
    infinities are reported as violations.
    """
    v: list[Violation] = []

    def check(cond: bool, path: str, message: str) -> None:
        if not cond:
            v.append(Violation(path, message))

    def finite(value, path: str) -> bool:
        if _bad(value):
            v.append(Violation(path, f"not a finite number: {value!r}"))
            return False
        return True

    sp = spec.species
    for name in ("mass", "linewidth", "detection_time", "qubit_coherence_time"):
        val = getattr(sp, name)
        if finite(val, f"species.{name}"):
            check(val > 0, f"species.{name}", f"must be > 0, got {val!r}")
    finite(sp.hyperfine_splitting, "species.hyperfine_splitting")

    dr = spec.drive
    if finite(dr.effective_wavevector, "drive.effective_wavevector"):
        check(dr.effective_wavevector > 0, "drive.effective_wavevector",
              "must be > 0")
    if finite(dr.rabi_frequency, "drive.rabi_frequency"):
        check(dr.rabi_frequency > 0, "drive.rabi_frequency", "must be > 0")
    if dr.dipole_coupling is not None and dr.field_amplitude is not None:
        if finite(dr.dipole_coupling, "drive.dipole_coupling") and \
           finite(dr.field_amplitude, "drive.field_amplitude") and \
           not _bad(dr.rabi_frequency) and dr.rabi_frequency > 0:
            derived = dr.dipole_coupling * dr.field_amplitude / HBAR
            check(
                abs(derived - dr.rabi_frequency)
                <= RABI_CONSISTENCY_RTOL * abs(derived),
                "drive.rabi_frequency",
                f"inconsistent with mu*E0/hbar = {derived!r}",
            )

    check(len(spec.elus) >= 1, "elus", "at least one ELU required")
    check(len(spec.elus) <= MAX_ELUS, "elus",
          f"at most {MAX_ELUS} ELUs, got {len(spec.elus)}")
    seen_ids: set[str] = set()
    total_comm = 0
    for i, elu in enumerate(spec.elus):
        base = f"elus[{i}]"
        check(elu.id not in seen_ids, f"{base}.id", f"duplicate ELU id {elu.id!r}")
        seen_ids.add(elu.id)
        check(elu.n_ions >= 1, f"{base}.n_ions", "must be >= 1")
        check(elu.n_ions <= MAX_IONS_PER_ELU, f"{base}.n_ions",
              f"must be <= {MAX_IONS_PER_ELU}")
        idx = elu.comm_ion_indices
        check(len(set(idx)) == len(idx), f"{base}.comm_ion_indices",
              "duplicate communication ion")
        for j, pos in enumerate(idx):
            check(0 <= pos < elu.n_ions, f"{base}.comm_ion_indices[{j}]",
                  f"chain position {pos} out of range [0, {elu.n_ions})")
        total_comm += len(idx)
        check(1 <= elu.fast_gate_distance < max(elu.n_ions, 2),
              f"{base}.fast_gate_distance",
              f"must satisfy 1 <= d < n_ions, got {elu.fast_gate_distance}")
        if finite(elu.trap_frequency, f"{base}.trap_frequency"):
            check(elu.trap_frequency > 0, f"{base}.trap_frequency", "must be > 0")
        for name in ("single_qubit_gate_time", "collision_rate_per_ion",
                     "reload_time", "shuttle_cost_time"):
            val = getattr(elu, name)
            if finite(val, f"{base}.{name}"):
                check(val >= 0, f"{base}.{name}", "must be >= 0")

    check(spec.switch.port_count >= 0, "switch.port_count", "must be >= 0")
    check(spec.switch.port_count <= MAX_SWITCH_PORTS, "switch.port_count",
          f"must be <= {MAX_SWITCH_PORTS}")
    check(total_comm <= spec.switch.port_count, "switch.port_count",
          f"{total_comm} communication ions exceed {spec.switch.port_count} switch ports")
    if finite(spec.switch.reconfiguration_time, "switch.reconfiguration_time"):
        check(spec.switch.reconfiguration_time >= 0,
              "switch.reconfiguration_time", "must be >= 0")

    if finite(spec.collection_fraction, "collection_fraction"):
        check(0 < spec.collection_fraction <= 1, "collection_fraction",
              "out of (0,1]")
    if finite(spec.detector_efficiency, "detector_efficiency"):
        check(0 < spec.detector_efficiency <= 1, "detector_efficiency",
              "out of (0,1]")
    if finite(spec.attempt_rate, "attempt_rate"):
        check(spec.attempt_rate > 0, "attempt_rate", "must be > 0")
        if not _bad(sp.linewidth):
            emission_rate = sp.linewidth / TWO_PI
            check(spec.attempt_rate <= emission_rate, "attempt_rate",
                  f"exceeds emission-rate bound linewidth/2pi = {emission_rate!r}")
    check(spec.buffer_capacity >= 1, "buffer_capacity", "must be >= 1")
    check(spec.buffer_capacity <= MAX_BUFFER_CAPACITY, "buffer_capacity",
          f"must be <= {MAX_BUFFER_CAPACITY}")
    if spec.pair_lifetime is not None and finite(spec.pair_lifetime, "pair_lifetime"):
        check(spec.pair_lifetime > 0, "pair_lifetime", "must be > 0 when set")
    if finite(spec.two_qubit_gate_fidelity, "two_qubit_gate_fidelity"):
        check(0 < spec.two_qubit_gate_fidelity <= 1,
              "two_qubit_gate_fidelity", "out of (0,1]")
    for name in ("teleport_overhead_time", "classical_latency"):
        val = getattr(spec, name)
        if finite(val, name):
            check(val >= 0, name, "must be >= 0")

    return ValidationReport(tuple(v))


# ---------------------------------------------------------------------------
# JSON I/O
# ---------------------------------------------------------------------------

def _angular(obj: dict, stem: str, path: str) -> float:
    """Read ``<stem>_hz`` (times 2*pi) or ``<stem>_rad_s`` (as is); exactly one."""
    hz_key, rad_key = f"{stem}_hz", f"{stem}_rad_s"
    has_hz, has_rad = hz_key in obj, rad_key in obj
    if has_hz == has_rad:
        raise SchemaError(f"exactly one of {hz_key} / {rad_key} required", path)
    if has_hz:
        return TWO_PI * number(obj, hz_key, path)
    return number(obj, rad_key, path)


def _parse_species(obj: dict, path: str) -> IonSpecies:
    require_keys(obj, path, {"name"},
                 {"mass_u", "mass_kg", "hyperfine_splitting_hz",
                  "linewidth_hz", "linewidth_rad_s",
                  "detection_time_s", "qubit_coherence_time_s"})
    name = string(obj, "name", path)
    base = default_species(name)
    if "mass_u" in obj and "mass_kg" in obj:
        raise SchemaError("give mass_u or mass_kg, not both", path)
    mass = base.mass
    if "mass_u" in obj:
        mass = number(obj, "mass_u", path) * ATOMIC_MASS_KG
    elif "mass_kg" in obj:
        mass = number(obj, "mass_kg", path)
    linewidth = base.linewidth
    if "linewidth_hz" in obj or "linewidth_rad_s" in obj:
        linewidth = _angular(obj, "linewidth", path)
    return IonSpecies(
        name=name,
        mass=mass,
        hyperfine_splitting=number(obj, "hyperfine_splitting_hz", path)
        if "hyperfine_splitting_hz" in obj else base.hyperfine_splitting,
        linewidth=linewidth,
        detection_time=number(obj, "detection_time_s", path)
        if "detection_time_s" in obj else base.detection_time,
        qubit_coherence_time=number(obj, "qubit_coherence_time_s", path)
        if "qubit_coherence_time_s" in obj else base.qubit_coherence_time,
    )


def _parse_drive(obj: dict, path: str) -> DriveField:
    require_keys(obj, path, {"effective_wavevector_rad_m"},
                 {"dipole_coupling", "field_amplitude",
                  "rabi_frequency_hz", "rabi_frequency_rad_s"})
    k = number(obj, "effective_wavevector_rad_m", path)
    mu = number(obj, "dipole_coupling", path) if "dipole_coupling" in obj else None
    e0 = number(obj, "field_amplitude", path) if "field_amplitude" in obj else None
    has_rabi = "rabi_frequency_hz" in obj or "rabi_frequency_rad_s" in obj
    if has_rabi:
        rabi = _angular(obj, "rabi_frequency", path)
    elif mu is not None and e0 is not None:
        rabi = mu * e0 / HBAR
    else:
        raise SchemaError(
            "rabi_frequency_hz/_rad_s required unless both dipole_coupling "
            "and field_amplitude are given", path)
    return DriveField(effective_wavevector=k, rabi_frequency=rabi,
                      dipole_coupling=mu, field_amplitude=e0)


def _parse_elu(obj: dict, path: str) -> EluSpec:
    require_keys(
        obj, path,
        {"id", "n_ions", "comm_ion_indices", "fast_gate_distance",
         "single_qubit_gate_time_s"},
        {"trap_frequency_hz", "trap_frequency_rad_s",
         "collision_rate_per_ion_hz", "reload_time_s", "shuttle_cost_time_s"})
    idx = obj["comm_ion_indices"]
    if not isinstance(idx, list) or any(isinstance(x, bool) or not isinstance(x, int) for x in idx):
        raise SchemaError("expected list of integers", f"{path}.comm_ion_indices")
    return EluSpec(
        id=string(obj, "id", path),
        n_ions=integer(obj, "n_ions", path),
        comm_ion_indices=tuple(idx),
        fast_gate_distance=integer(obj, "fast_gate_distance", path),
        trap_frequency=_angular(obj, "trap_frequency", path),
        single_qubit_gate_time=number(obj, "single_qubit_gate_time_s", path),
        collision_rate_per_ion=number(obj, "collision_rate_per_ion_hz", path)
        if "collision_rate_per_ion_hz" in obj else 0.0,
        reload_time=number(obj, "reload_time_s", path)
        if "reload_time_s" in obj else 0.1,
        shuttle_cost_time=number(obj, "shuttle_cost_time_s", path)
        if "shuttle_cost_time_s" in obj else 0.0,
    )


def parse_architecture(doc: object) -> ArchitectureSpec:
    """Parse and validate a decoded ionfab-arch/1 document: SchemaError on
    structural problems (unknown keys too), InvalidArchitecture on invariants."""
    if not isinstance(doc, dict):
        raise SchemaError(f"expected top-level object, got {type(doc).__name__}")
    require_keys(doc, "$", {"schema", "species", "drive", "elus", "switch",
                            "link", "costs"})
    if doc["schema"] != SCHEMA_ID:
        raise SchemaError(f"expected schema {SCHEMA_ID!r}, got {doc['schema']!r}",
                          "$.schema")
    species = _parse_species(doc["species"], "$.species")
    drive = _parse_drive(doc["drive"], "$.drive")
    if not isinstance(doc["elus"], list) or not doc["elus"]:
        raise SchemaError("expected non-empty array", "$.elus")
    elus = tuple(_parse_elu(e, f"$.elus[{i}]") for i, e in enumerate(doc["elus"]))

    sw = doc["switch"]
    require_keys(sw, "$.switch", {"port_count", "reconfiguration_time_s"})
    switch = SwitchSpec(port_count=integer(sw, "port_count", "$.switch"),
                        reconfiguration_time=number(sw, "reconfiguration_time_s", "$.switch"))

    link = doc["link"]
    require_keys(link, "$.link",
                 {"attempt_rate_hz", "collection_fraction",
                  "detector_efficiency", "buffer_capacity"},
                 {"pair_lifetime_s", "dual_species_comm"})
    lifetime = None
    if "pair_lifetime_s" in link and link["pair_lifetime_s"] is not None:
        lifetime = number(link, "pair_lifetime_s", "$.link")
    dual = link.get("dual_species_comm", False)
    if not isinstance(dual, bool):
        raise SchemaError("expected boolean", "$.link.dual_species_comm")

    costs = doc["costs"]
    require_keys(costs, "$.costs",
                 {"two_qubit_gate_fidelity", "teleport_overhead_time_s",
                  "classical_latency_s"})

    spec = ArchitectureSpec(
        species=species,
        drive=drive,
        elus=elus,
        switch=switch,
        buffer_capacity=integer(link, "buffer_capacity", "$.link"),
        attempt_rate=number(link, "attempt_rate_hz", "$.link"),
        collection_fraction=number(link, "collection_fraction", "$.link"),
        detector_efficiency=number(link, "detector_efficiency", "$.link"),
        two_qubit_gate_fidelity=number(costs, "two_qubit_gate_fidelity", "$.costs"),
        teleport_overhead_time=number(costs, "teleport_overhead_time_s", "$.costs"),
        classical_latency=number(costs, "classical_latency_s", "$.costs"),
        pair_lifetime=lifetime,
        dual_species_comm=dual,
    )
    report = validate_architecture(spec)
    if not report.ok:
        raise InvalidArchitecture(report)
    return spec


def architecture_to_doc(spec: ArchitectureSpec) -> dict:
    """Spec as an ionfab-arch/1 document; inverse of :func:`parse_architecture`."""
    sp, dr = spec.species, spec.drive
    drive_doc: dict = {"effective_wavevector_rad_m": dr.effective_wavevector,
                       "rabi_frequency_rad_s": dr.rabi_frequency}
    if dr.dipole_coupling is not None:
        drive_doc["dipole_coupling"] = dr.dipole_coupling
    if dr.field_amplitude is not None:
        drive_doc["field_amplitude"] = dr.field_amplitude
    link_doc: dict = {
        "attempt_rate_hz": spec.attempt_rate,
        "collection_fraction": spec.collection_fraction,
        "detector_efficiency": spec.detector_efficiency,
        "buffer_capacity": spec.buffer_capacity,
    }
    if spec.pair_lifetime is not None:
        link_doc["pair_lifetime_s"] = spec.pair_lifetime
    if spec.dual_species_comm:
        link_doc["dual_species_comm"] = True
    return {
        "schema": SCHEMA_ID,
        "species": {
            "name": sp.name,
            "mass_kg": sp.mass,
            "hyperfine_splitting_hz": sp.hyperfine_splitting,
            "linewidth_rad_s": sp.linewidth,
            "detection_time_s": sp.detection_time,
            "qubit_coherence_time_s": sp.qubit_coherence_time,
        },
        "drive": drive_doc,
        "elus": [
            {
                "id": e.id,
                "n_ions": e.n_ions,
                "comm_ion_indices": list(e.comm_ion_indices),
                "fast_gate_distance": e.fast_gate_distance,
                "trap_frequency_rad_s": e.trap_frequency,
                "single_qubit_gate_time_s": e.single_qubit_gate_time,
                "collision_rate_per_ion_hz": e.collision_rate_per_ion,
                "reload_time_s": e.reload_time,
                "shuttle_cost_time_s": e.shuttle_cost_time,
            }
            for e in spec.elus
        ],
        "switch": {
            "port_count": spec.switch.port_count,
            "reconfiguration_time_s": spec.switch.reconfiguration_time,
        },
        "link": link_doc,
        "costs": {
            "two_qubit_gate_fidelity": spec.two_qubit_gate_fidelity,
            "teleport_overhead_time_s": spec.teleport_overhead_time,
            "classical_latency_s": spec.classical_latency,
        },
    }


def load_architecture(path: str | Path) -> ArchitectureSpec:
    """:func:`parse_architecture` of the JSON file at ``path``."""
    return parse_architecture(parse_json(decode(Path(path).read_bytes())))
