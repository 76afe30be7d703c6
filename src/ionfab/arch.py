"""Architecture description: parameter types, species defaults, validation, JSON reader.

Internal units are SI throughout; angular frequencies are rad/s. The JSON
file format ("ionfab-arch/1") accepts angular quantities as plain
frequencies via ``*_hz`` keys (multiplied by 2*pi on load) or directly via
``*_rad_s`` keys.

Every scalar field is declared once, by :func:`_field` in its class body:
its JSON key (for an angular quantity, the stem of its ``*_hz`` and
``*_rad_s`` keys), its reader, its bounds and its default. One reader
(:func:`_read`) and one bounds check (:func:`_check`) walk these
declarations. Only the rules that tie fields together are written out: ELU
count and ids, communication ions, the fast-gate distance, switch ports,
the emission-rate bound, the Rabi frequency against mu*E0/hbar, and
``mass_u`` against ``mass_kg``. The species table is read by the same
declarations as a document's species object. A new machine field
is therefore one declaration here and one property in
``schemas/ionfab-arch-1.schema.json``, and a test holds the bounds of the
two equal.

All types are immutable after construction and safe to share between
threads or processes.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import cache
from pathlib import Path

from .constants import ATOMIC_MASS_KG, HBAR, TWO_PI, species_entry
from .errors import DomainError, InvalidArchitecture, SchemaError, UnknownSpecies
from .jsondoc import (decode, integer, number, parse_json, require_keys,
                      require_schema, string)

SCHEMA_ID = "ionfab-arch/1"

# Relative tolerance for the mu*E0/hbar vs rabi_frequency consistency check.
RABI_CONSISTENCY_RTOL = 1e-12

# Size caps, so that every machine takes bounded work: the interaction graph
# alone holds up to n_ions^2 edges per ELU. The schema gives the same bounds.
MAX_ELUS = 128
MAX_IONS_PER_ELU = 100
MAX_SWITCH_PORTS = 512
MAX_BUFFER_CAPACITY = 1_000_000


# ---------------------------------------------------------------------------
# Field readers: each takes (object, key, path) and returns the field's value
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


def _mass(obj: dict, key: str, path: str) -> float:
    """Read ``mass_kg`` or ``mass_u`` (times the atomic mass unit); not both."""
    if "mass_u" not in obj:
        return number(obj, key, path)
    if key in obj:
        raise SchemaError("give mass_u or mass_kg, not both", path)
    return number(obj, "mass_u", path) * ATOMIC_MASS_KG


def _indices(obj: dict, key: str, path: str) -> tuple[int, ...]:
    idx = obj[key]
    if not isinstance(idx, list) or any(isinstance(x, bool) or not isinstance(x, int)
                                        for x in idx):
        raise SchemaError("expected list of integers", f"{path}.{key}")
    return tuple(idx)


def _boolean(obj: dict, key: str, path: str) -> bool:
    if not isinstance(obj[key], bool):
        raise SchemaError("expected boolean", f"{path}.{key}")
    return obj[key]


def _number_or_null(obj: dict, key: str, path: str) -> float | None:
    return None if obj[key] is None else number(obj, key, path)


# The default of a field that a cross-field rule fills in when the document
# leaves it out: the species table, or mu*E0/hbar for the Rabi frequency.
_DERIVED = object()
_GOT = ", got {!r}"


def _field(key: str, read=number, default=MISSING, *, section: str | None = None,
           gt=None, ge=None, le=None, note: str = ""):
    """Declare one machine field: its JSON key, reader, bounds and default.

    ``key`` is the stem for :func:`_angular`. A bound is a value's
    ``exclusiveMinimum`` (``gt``), ``minimum`` (``ge``) or ``maximum``
    (``le``); ``note``, formatted with the value, ends the message of a
    broken lower bound. ``section`` names the document object that holds
    an :class:`ArchitectureSpec` field.
    """
    keys = ((f"{key}_hz", f"{key}_rad_s") if read is _angular
            else ("mass_u", key) if read is _mass else (key,))
    return field(default=MISSING if default is _DERIVED else default, metadata={
        "key": key, "keys": keys, "read": read, "default": default,
        "section": section, "gt": gt, "ge": ge, "le": le, "note": note})


@dataclass(frozen=True)
class IonSpecies:
    """An ion species; fields a document leaves out come from the species table."""

    name: str = _field("name", string)
    mass: float = _field("mass_kg", _mass, _DERIVED, gt=0, note=_GOT)  # kg
    hyperfine_splitting: float = _field("hyperfine_splitting_hz",
                                        default=_DERIVED)  # Hz
    # rad/s, excited-state radiative linewidth
    linewidth: float = _field("linewidth", _angular, _DERIVED, gt=0, note=_GOT)
    detection_time: float = _field("detection_time_s", default=_DERIVED,
                                   gt=0, note=_GOT)  # s
    qubit_coherence_time: float = _field("qubit_coherence_time_s", default=_DERIVED,
                                         gt=0, note=_GOT)  # s, T2 memory time


@dataclass(frozen=True)
class DriveField:
    """Qubit-control field. ``rabi_frequency`` may be given directly or derived
    as mu*E0/hbar when both components are supplied."""

    effective_wavevector: float = _field("effective_wavevector_rad_m", gt=0)  # rad/m
    rabi_frequency: float = _field("rabi_frequency", _angular, _DERIVED, gt=0)  # rad/s
    dipole_coupling: float | None = _field("dipole_coupling", default=None,
                                           gt=0, note=" when set")  # J*m/V
    field_amplitude: float | None = _field("field_amplitude", default=None,
                                           gt=0, note=" when set")  # V/m


@dataclass(frozen=True)
class EluSpec:
    id: str = _field("id", string)
    n_ions: int = _field("n_ions", integer, ge=1, le=MAX_IONS_PER_ELU)
    comm_ion_indices: tuple[int, ...] = _field("comm_ion_indices", _indices)
    fast_gate_distance: int = _field("fast_gate_distance", integer)  # ion spacings
    trap_frequency: float = _field("trap_frequency", _angular, gt=0)  # rad/s
    single_qubit_gate_time: float = _field("single_qubit_gate_time_s", ge=0)  # s
    collision_rate_per_ion: float = _field("collision_rate_per_ion_hz", default=0.0,
                                           ge=0)  # 1/s, 0 disables collisions
    reload_time: float = _field("reload_time_s", default=0.1, ge=0)  # s

    @property
    def memory_ion_count(self) -> int:
        return self.n_ions - len(self.comm_ion_indices)

    def memory_positions(self) -> list[int]:
        comm = set(self.comm_ion_indices)
        return [p for p in range(self.n_ions) if p not in comm]


@dataclass(frozen=True)
class SwitchSpec:
    port_count: int = _field("port_count", integer, ge=0, le=MAX_SWITCH_PORTS)
    reconfiguration_time: float = _field("reconfiguration_time_s", ge=0)  # s


@dataclass(frozen=True)
class ArchitectureSpec:
    species: IonSpecies
    drive: DriveField
    elus: tuple[EluSpec, ...]
    switch: SwitchSpec
    # pairs per ELU pair
    buffer_capacity: int = _field("buffer_capacity", integer, section="link",
                                  ge=1, le=MAX_BUFFER_CAPACITY)
    # 1/s, repetition rate R of the photonic interface
    attempt_rate: float = _field("attempt_rate_hz", section="link", gt=0)
    collection_fraction: float = _field("collection_fraction", section="link",
                                        gt=0, le=1)  # F
    detector_efficiency: float = _field("detector_efficiency", section="link",
                                        gt=0, le=1)  # eta_D
    two_qubit_gate_fidelity: float = _field("two_qubit_gate_fidelity", section="costs",
                                            gt=0, le=1)
    teleport_overhead_time: float = _field("teleport_overhead_time_s", section="costs",
                                           ge=0)  # s
    classical_latency: float = _field("classical_latency_s", section="costs", ge=0)  # s
    # s, None = pairs never expire
    pair_lifetime: float | None = _field("pair_lifetime_s", _number_or_null, None,
                                         section="link", gt=0, note=" when set")
    # communication ions of a second species; with False they are of the memory
    # species, and a remote gate asks for its pair only once both ELUs are idle
    dual_species_comm: bool = _field("dual_species_comm", _boolean, True, section="link")

    def elu(self, elu_id: str) -> EluSpec:
        for e in self.elus:
            if e.id == elu_id:
                return e
        raise DomainError(f"no ELU with id {elu_id!r}")

    def elu_ids(self) -> list[str]:
        return [e.id for e in self.elus]


@cache
def _tables(cls: type, section: str | None) -> tuple:
    """The declarations of ``cls`` (of ``section``) as flat tuples for the
    reader and the bounds check, built on first use."""
    decls = [(f.name, f.type, f.metadata) for f in fields(cls)
             if f.metadata and f.metadata["section"] == section]
    required = frozenset(m["key"] for _, _, m in decls
                         if m["default"] is MISSING and len(m["keys"]) == 1)
    keys = frozenset(k for _, _, m in decls for k in m["keys"])
    reads = tuple((name, m["key"], m["keys"][0], m["keys"][-1], m["read"], m["default"])
                  for name, _, m in decls)
    # a field annotated float must be finite; None is an optional field unset
    checks = tuple((name, "float" in type_, m["default"] is None,
                    m["gt"], m["ge"], m["le"], m["note"]) for name, type_, m in decls)
    return (required, keys, reads), checks


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
    """The species table's entry ``name``, read as a document's species
    object; raises UnknownSpecies for a name the table lacks."""
    return IonSpecies(**_read(IonSpecies, {"name": name, **species_entry(name)},
                              "$.species"))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def _bad(value) -> bool:
    return not isinstance(value, (int, float)) or not math.isfinite(value)


def _check(obj, prefix: str, v: list[Violation], section: str | None = None) -> None:
    """Append to ``v`` one violation per declared bound that a field of
    ``obj`` (of ``section``) breaks; a non-finite float breaks all at once."""
    for name, finite, optional, gt, ge, le, note in _tables(type(obj), section)[1]:
        val = getattr(obj, name)
        if val is None and optional:
            continue
        if finite and _bad(val):
            v.append(Violation(prefix + name, f"not a finite number: {val!r}"))
        elif gt is not None and le is not None:
            if not gt < val <= le:
                v.append(Violation(prefix + name, f"out of ({gt},{le}]"))
        else:
            if gt is not None and not val > gt:
                v.append(Violation(prefix + name, f"must be > {gt}{note.format(val)}"))
            if ge is not None and not val >= ge:
                v.append(Violation(prefix + name, f"must be >= {ge}"))
            if le is not None and not val <= le:
                v.append(Violation(prefix + name, f"must be <= {le}"))


def validate_architecture(spec: ArchitectureSpec) -> ValidationReport:
    """Check every documented invariant; violations are returned, never raised.

    Total over arbitrary finite or non-finite numeric inputs: NaN and
    infinities are reported as violations.
    """
    v: list[Violation] = []

    def check(cond: bool, path: str, message: str) -> None:
        if not cond:
            v.append(Violation(path, message))

    sp, dr = spec.species, spec.drive
    _check(sp, "species.", v)
    _check(dr, "drive.", v)
    mu, e0, rabi = dr.dipole_coupling, dr.field_amplitude, dr.rabi_frequency
    if mu is not None and e0 is not None and not (_bad(mu) or _bad(e0) or _bad(rabi)) \
            and rabi > 0:
        derived = mu * e0 / HBAR
        check(abs(derived - rabi) <= RABI_CONSISTENCY_RTOL * abs(derived),
              "drive.rabi_frequency", f"inconsistent with mu*E0/hbar = {derived!r}")

    check(len(spec.elus) >= 1, "elus", "at least one ELU required")
    check(len(spec.elus) <= MAX_ELUS, "elus",
          f"at most {MAX_ELUS} ELUs, got {len(spec.elus)}")
    seen_ids: set[str] = set()
    total_comm = 0
    for i, elu in enumerate(spec.elus):
        base = f"elus[{i}]"
        _check(elu, base + ".", v)
        check(elu.id not in seen_ids, f"{base}.id", f"duplicate ELU id {elu.id!r}")
        seen_ids.add(elu.id)
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

    _check(spec.switch, "switch.", v)
    check(total_comm <= spec.switch.port_count, "switch.port_count",
          f"{total_comm} communication ions exceed {spec.switch.port_count} switch ports")

    _check(spec, "", v, "link")
    _check(spec, "", v, "costs")
    if not _bad(spec.attempt_rate) and not _bad(sp.linewidth):
        emission_rate = sp.linewidth / TWO_PI
        check(spec.attempt_rate <= emission_rate, "attempt_rate",
              f"exceeds emission-rate bound linewidth/2pi = {emission_rate!r}")
    return ValidationReport(tuple(v))


# ---------------------------------------------------------------------------
# JSON reader
# ---------------------------------------------------------------------------

def _read(cls: type, obj: object, path: str, section: str | None = None) -> dict:
    """The declared fields of ``cls`` (of ``section``) that the JSON object
    ``obj`` at ``path`` gives or that have a default of their own; a
    ``_DERIVED`` field the object leaves out is left to the caller."""
    (required, keys, entries), _ = _tables(cls, section)
    require_keys(obj, path, required, keys)
    values = {}
    for name, key, first, last, read, default in entries:
        if first in obj or last in obj or default is MISSING:
            values[name] = read(obj, key, path)
        elif default is not _DERIVED:
            values[name] = default
    return values


def parse_architecture(doc: object) -> ArchitectureSpec:
    """Parse and validate a decoded ionfab-arch/1 document: SchemaError on
    structural problems (unknown keys too), InvalidArchitecture on invariants."""
    if not isinstance(doc, dict):
        raise SchemaError(f"expected top-level object, got {type(doc).__name__}")
    require_keys(doc, "$", {"schema", "species", "drive", "elus", "switch",
                            "link", "costs"})
    require_schema(doc, SCHEMA_ID)
    species = _read(IonSpecies, doc["species"], "$.species")
    try:
        base = default_species(species["name"])
    except UnknownSpecies as exc:
        raise SchemaError(str(exc), "$.species.name") from None
    drive = _read(DriveField, doc["drive"], "$.drive")
    if "rabi_frequency" not in drive:
        mu, e0 = drive["dipole_coupling"], drive["field_amplitude"]
        if mu is None or e0 is None:
            raise SchemaError(
                "rabi_frequency_hz/_rad_s required unless both dipole_coupling "
                "and field_amplitude are given", "$.drive")
        drive["rabi_frequency"] = mu * e0 / HBAR
    if not isinstance(doc["elus"], list) or not doc["elus"]:
        raise SchemaError("expected non-empty array", "$.elus")
    spec = ArchitectureSpec(
        species=replace(base, **species),
        drive=DriveField(**drive),
        elus=tuple(EluSpec(**_read(EluSpec, e, f"$.elus[{i}]"))
                   for i, e in enumerate(doc["elus"])),
        switch=SwitchSpec(**_read(SwitchSpec, doc["switch"], "$.switch")),
        **_read(ArchitectureSpec, doc["link"], "$.link", "link"),
        **_read(ArchitectureSpec, doc["costs"], "$.costs", "costs"),
    )
    report = validate_architecture(spec)
    if not report.ok:
        raise InvalidArchitecture(report)
    return spec


def load_architecture(path: str | Path) -> ArchitectureSpec:
    """:func:`parse_architecture` of the JSON file at ``path``."""
    return parse_architecture(parse_json(decode(Path(path).read_bytes())))
