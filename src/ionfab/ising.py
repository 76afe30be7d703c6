"""Ising instances and desk-scale exact solvers.

Hamiltonian sign convention, fixed project-wide:

    H(s) = sum_{i<j} J_ij s_i s_j + sum_i B_i s_i,   s_i in {-1, +1}

so a ferromagnet has J < 0. Couplings are stored sparsely as an (i, j) -> J
map with i < j; ``support_edges`` doubles as the coupling-support mask for
Boltzmann-machine topologies (entries may be exactly 0).

Spin configurations enumerate as integers: bit i of the index set means
spin i is -1, so index 0 is the all-up configuration.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SchemaError
from .jsondoc import each, fixed_array, integer, number, require_keys

ISING_SCHEMA_ID = "ionfab-ising/1"

BRUTE_FORCE_MAX_SPINS = 24
ADIABATIC_MAX_SPINS = 12
ANNEAL_MAX_SPINS = 10_000
ANNEAL_MAX_SWEEPS = 1_000_000  # temperatures x sweeps per temperature
ADIABATIC_MAX_STEPS = 1_000_000
_ENUM_CHUNK = 1 << 18


@dataclass(frozen=True)
class IsingInstance:
    n_spins: int
    couplings: dict[tuple[int, int], float]  # keys (i, j) with i < j
    local_fields: dict[int, float] = field(default_factory=dict)
    alpha: float | None = None
    j0: float | None = None

    def __post_init__(self):
        if self.n_spins < 1:
            raise DomainError(f"n_spins must be >= 1, got {self.n_spins}")
        for (i, j) in self.couplings:
            if not (0 <= i < j < self.n_spins):
                raise DomainError(f"bad coupling key ({i}, {j}) for n = {self.n_spins}")
        for i in self.local_fields:
            if not 0 <= i < self.n_spins:
                raise DomainError(f"bad field index {i} for n = {self.n_spins}")
        for what, values in (("coupling", self.couplings), ("field", self.local_fields)):
            for key, val in values.items():
                if not math.isfinite(val):
                    raise DomainError(f"{what} {key} must be finite, got {val!r}")
        # Energies sum each coupling twice, and a flip costs twice a local field.
        scale = (sum(map(abs, self.couplings.values()))
                 + sum(map(abs, self.local_fields.values())))
        if not math.isfinite(2 * scale):
            raise DomainError("couplings and fields too large: "
                              "2 * (sum |J| + sum |B|) overflows")

    def support_edges(self) -> set[tuple[int, int]]:
        return set(self.couplings)

    def coupling_matrix(self) -> np.ndarray:
        """Dense symmetric J with zero diagonal."""
        J = np.zeros((self.n_spins, self.n_spins))
        for (i, j), val in self.couplings.items():
            J[i, j] = J[j, i] = val
        return J

    def field_vector(self) -> np.ndarray:
        B = np.zeros(self.n_spins)
        for i, val in self.local_fields.items():
            B[i] = val
        return B


@dataclass(frozen=True)
class SpinConfig:
    spins: tuple[int, ...]  # entries in {-1, +1}

    def __post_init__(self):
        if any(s not in (-1, 1) for s in self.spins):
            raise DomainError("spins must be +1 or -1")

    @property
    def n(self) -> int:
        return len(self.spins)

    @classmethod
    def from_index(cls, index: int, n: int) -> "SpinConfig":
        return cls(tuple(1 - 2 * ((index >> i) & 1) for i in range(n)))


@dataclass(frozen=True)
class AdiabaticRun:
    instance: IsingInstance
    total_time: float       # units of 1/|j0| (dimensionless schedule length)
    steps: int
    ground_overlap: float   # probability of ending in the exact ground space
    energy_trace: tuple[float, ...]
    final_norm: float
    final_ising_energy: float  # <H_Ising> of the final state (s = 1 Hamiltonian)


@dataclass(frozen=True)
class AnnealSchedule:
    """Geometric temperature ladder: t_start * t_factor^k until t_min."""

    t_start: float
    t_factor: float = 0.95
    t_min: float = 1e-2
    sweeps_per_temp: int = 2

    def temperatures(self) -> list[float]:
        """The ladder; raises DomainError past ANNEAL_MAX_SWEEPS total sweeps."""
        if not (math.isfinite(self.t_start) and math.isfinite(self.t_min)):
            raise DomainError(f"t_start and t_min must be finite: {self}")
        if self.t_start < 0 or not (0 < self.t_factor < 1) \
                or self.sweeps_per_temp < 1:
            raise DomainError(f"malformed anneal schedule: {self}")
        max_temps = ANNEAL_MAX_SWEEPS // self.sweeps_per_temp
        if max_temps < 1:
            raise DomainError(
                f"anneal schedule exceeds {ANNEAL_MAX_SWEEPS} sweeps: {self}")
        if self.t_start == 0:
            return [0.0]
        if not self.t_min > 0:
            raise DomainError(f"t_min must be > 0 for a geometric ladder: {self}")
        temps = []
        t = self.t_start
        while t >= self.t_min and t > 0:
            if len(temps) == max_temps:
                raise DomainError(
                    f"anneal schedule exceeds {ANNEAL_MAX_SWEEPS} sweeps: {self}")
            temps.append(t)
            t *= self.t_factor
        return temps or [self.t_min]


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def power_law_couplings(n: int, alpha: float, j0: float,
                        allow_any_alpha: bool = False) -> IsingInstance:
    """1D chain with J_ij = j0 / |i-j|^alpha at unit spacing and zero fields.

    alpha is restricted to the tunable range [0, 3] (infinite-range to
    dipole-dipole) unless ``allow_any_alpha`` is set.
    """
    if n < 2:
        raise DomainError(f"need at least 2 spins, got {n}")
    if not math.isfinite(alpha):
        raise DomainError(f"alpha must be finite, got {alpha!r}")
    if not allow_any_alpha and not 0 <= alpha <= 3:
        raise DomainError(
            f"alpha = {alpha!r} outside [0, 3]; pass allow_any_alpha=True to override")
    couplings = {(i, j): j0 / float(j - i) ** alpha
                 for i in range(n) for j in range(i + 1, n)}
    return IsingInstance(n_spins=n, couplings=couplings, alpha=alpha, j0=j0)


def boltzmann_topology(layer_sizes: list[int], full: bool = False) -> IsingInstance:
    """Boltzmann-machine coupling support over layered spins, J initialized to 0.

    ``full=False``: edges only between adjacent layers (reduced machine);
    ``full=True``: complete-graph support. Field support on every spin.
    """
    if not layer_sizes:
        raise DomainError("at least one layer required")
    if any(s < 1 for s in layer_sizes):
        raise DomainError(f"layer sizes must be >= 1, got {layer_sizes}")
    n = sum(layer_sizes)
    couplings: dict[tuple[int, int], float] = {}
    if full:
        for i in range(n):
            for j in range(i + 1, n):
                couplings[(i, j)] = 0.0
    else:
        starts = np.cumsum([0] + list(layer_sizes))
        for layer in range(len(layer_sizes) - 1):
            for i in range(starts[layer], starts[layer + 1]):
                for j in range(starts[layer + 1], starts[layer + 2]):
                    couplings[(i, j)] = 0.0
    return IsingInstance(n_spins=n, couplings=couplings,
                         local_fields={i: 0.0 for i in range(n)})


# ---------------------------------------------------------------------------
# Energy and ground states
# ---------------------------------------------------------------------------

def energy(instance: IsingInstance, config: SpinConfig) -> float:
    """Exact double-sum energy of one configuration."""
    if config.n != instance.n_spins:
        raise DomainError(
            f"config has {config.n} spins, instance has {instance.n_spins}")
    s = config.spins
    total = sum(val * s[i] * s[j] for (i, j), val in instance.couplings.items())
    total += sum(val * s[i] for i, val in instance.local_fields.items())
    return float(total)


def _energy_blocks(instance: IsingInstance) -> Iterator[tuple[int, np.ndarray]]:
    """Energies of all 2^n configurations in ascending index order, yielded
    as (first index, energies) blocks of ``_ENUM_CHUNK`` configurations."""
    n = instance.n_spins
    if n > BRUTE_FORCE_MAX_SPINS:
        raise DomainError(f"n = {n} exceeds brute-force cap {BRUTE_FORCE_MAX_SPINS}")
    J = instance.coupling_matrix()
    B = instance.field_vector()
    total, chunk = 1 << n, _ENUM_CHUNK
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        spins = 1.0 - 2.0 * ((idx[:, None] >> np.arange(n)) & 1)
        energies = 0.5 * np.einsum("ci,ci->c", spins @ J, spins) + spins @ B
        del idx, spins  # hold one block's spins at a time, not two
        yield start, energies


def brute_force_ground_state(
    instance: IsingInstance, max_configs: int = 64,
) -> tuple[list[SpinConfig], float]:
    """Exhaustive minimum over all 2^n configurations.

    Returns every optimal configuration (in ascending enumeration order, up
    to ``max_configs``) and the minimum energy. Ties at the minimum use exact
    float equality; energies are integer-valued for integer inputs so this is
    well defined at desk scale.
    """
    best = math.inf
    best_idx: list[int] = []
    for start, e in _energy_blocks(instance):
        block_min = float(e.min())
        if block_min < best:
            best = block_min
            best_idx = []
        if block_min <= best:
            hits = np.flatnonzero(e == best)[:max(0, max_configs - len(best_idx))]
            best_idx.extend(start + int(h) for h in hits)
    return [SpinConfig.from_index(i, instance.n_spins) for i in best_idx], best


# ---------------------------------------------------------------------------
# Adiabatic statevector evolution
# ---------------------------------------------------------------------------

def _apply_uniform_x_rotation(psi: np.ndarray, n: int, theta: float) -> np.ndarray:
    """exp(+i*theta*X) applied to every qubit of a dense statevector."""
    c, s = math.cos(theta), 1j * math.sin(theta)
    for q in range(n):
        shaped = psi.reshape(1 << (n - 1 - q), 2, 1 << q)
        a = shaped[:, 0, :].copy()
        b = shaped[:, 1, :]
        shaped[:, 0, :] = c * a + s * b
        shaped[:, 1, :] = s * a + c * b
    return psi


def adiabatic_evolve(instance: IsingInstance, total_time: float,
                     steps: int) -> AdiabaticRun:
    """First-order Trotter simulation of H(s) = -(1-s)*sum_i X_i + s*H_Ising.

    The schedule parameter is s = t/total_time sampled at step midpoints;
    the initial state is the uniform superposition (the transverse-field
    ground state) and the transverse-field coefficient is 1 in units of
    |j0|. Returns the overlap with the exact (brute-force) ground space and
    the energy expectation trace.
    """
    n = instance.n_spins
    if n > ADIABATIC_MAX_SPINS:
        raise DomainError(f"n = {n} exceeds adiabatic cap {ADIABATIC_MAX_SPINS}")
    if not (total_time > 0) or not math.isfinite(total_time):
        raise DomainError(f"total_time must be positive and finite, got {total_time!r}")
    if steps < 10:
        raise DomainError(f"steps must be >= 10, got {steps}")
    if steps > ADIABATIC_MAX_STEPS:
        raise DomainError(f"steps must be <= {ADIABATIC_MAX_STEPS}, got {steps}")

    dim = 1 << n
    diag = np.concatenate([e for _, e in _energy_blocks(instance)])
    psi = np.full(dim, 1.0 / math.sqrt(dim), dtype=complex)
    dt = total_time / steps
    trace = np.empty(steps)

    for k in range(steps):
        s = (k + 0.5) / steps
        # exp(-i*dt*s*H_z) then exp(-i*dt*(1-s)*(-sum X)) = exp(+i*dt*(1-s)*sum X)
        psi *= np.exp(-1j * dt * s * diag)
        psi = _apply_uniform_x_rotation(psi, n, dt * (1.0 - s))
        x_expect = _sum_x_expectation(psi, n)
        trace[k] = s * float(np.real(np.vdot(psi, diag * psi))) - (1.0 - s) * x_expect

    ground_idx = np.flatnonzero(diag == diag.min())
    overlap = float(np.sum(np.abs(psi[ground_idx]) ** 2))
    return AdiabaticRun(
        instance=instance,
        total_time=total_time,
        steps=steps,
        ground_overlap=overlap,
        energy_trace=tuple(trace.tolist()),
        final_norm=float(np.linalg.norm(psi)),
        final_ising_energy=float(np.real(np.vdot(psi, diag * psi))),
    )


def _sum_x_expectation(psi: np.ndarray, n: int) -> float:
    total = 0.0
    for q in range(n):
        shaped = psi.reshape(1 << (n - 1 - q), 2, 1 << q)
        total += 2.0 * float(np.real(np.sum(np.conj(shaped[:, 0, :]) * shaped[:, 1, :])))
    return total


# ---------------------------------------------------------------------------
# Classical annealing
# ---------------------------------------------------------------------------

def anneal_classical(instance: IsingInstance, schedule: AnnealSchedule,
                     seed: int,
                     initial: SpinConfig | None = None) -> tuple[SpinConfig, float]:
    """Single-spin-flip Metropolis annealing; deterministic for a given seed.

    Uses the stdlib Mersenne Twister (random.Random) so runs reproduce across
    platforms. Starts from ``initial`` when given, else from a seeded random
    configuration. Returns the best configuration seen, not the final one.
    """
    n = instance.n_spins
    if n > ANNEAL_MAX_SPINS:
        raise DomainError(f"n = {n} exceeds anneal cap {ANNEAL_MAX_SPINS}")
    temps = schedule.temperatures()
    rng = random.Random(seed)

    neighbors: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for (i, j), val in instance.couplings.items():
        if val != 0.0:
            neighbors[i].append((j, val))
            neighbors[j].append((i, val))
    fields = [instance.local_fields.get(i, 0.0) for i in range(n)]

    if initial is not None:
        if initial.n != n:
            raise DomainError("initial config size mismatch")
        spins = list(initial.spins)
    else:
        spins = [rng.choice((-1, 1)) for _ in range(n)]
    current = energy(instance, SpinConfig(tuple(spins)))
    best = current
    best_spins = list(spins)

    for t in temps:
        for _ in range(schedule.sweeps_per_temp):
            for i in range(n):
                local = fields[i]
                for j, val in neighbors[i]:
                    local += val * spins[j]
                delta = -2.0 * spins[i] * local
                if delta <= 0.0 or (t > 0.0 and rng.random() < math.exp(-delta / t)):
                    spins[i] = -spins[i]
                    current += delta
                    if current < best:
                        best = current
                        best_spins = list(spins)
    return SpinConfig(tuple(best_spins)), best


# ---------------------------------------------------------------------------
# JSON I/O ("ionfab-ising/1")
# ---------------------------------------------------------------------------

def instance_to_doc(instance: IsingInstance) -> dict:
    return {
        "schema": ISING_SCHEMA_ID,
        "n": instance.n_spins,
        "alpha": instance.alpha,
        "j0": instance.j0,
        "couplings": [[i, j, val] for (i, j), val in sorted(instance.couplings.items())],
        "fields": [[i, val] for i, val in sorted(instance.local_fields.items())],
    }


def _coupling_row(row: object) -> tuple[int, int, float]:
    fixed_array(row, 3, "[i, j, J]")
    return integer(row, 0, "$"), integer(row, 1, "$"), number(row, 2, "$")


def _field_row(row: object) -> tuple[int, float]:
    fixed_array(row, 2, "[i, B]")
    return integer(row, 0, "$"), number(row, 1, "$")


def parse_instance(doc: object) -> IsingInstance:
    """Parse an ionfab-ising/1 document; rejects all that the schema rejects."""
    require_keys(doc, "$", {"schema", "n", "couplings", "fields"}, {"alpha", "j0"})
    if doc["schema"] != ISING_SCHEMA_ID:
        raise SchemaError(f"expected schema {ISING_SCHEMA_ID!r}, got {doc['schema']!r}",
                          "$.schema")
    n = integer(doc, "n", "$")
    for key in ("alpha", "j0"):
        if doc.get(key) is not None:
            number(doc, key, "$")
    couplings: dict[tuple[int, int], float] = {}
    for row_i, (i, j, val) in enumerate(each(doc["couplings"], "$.couplings",
                                               _coupling_row)):
        key = (min(i, j), max(i, j))
        if key in couplings:
            raise SchemaError(f"duplicate coupling {key}", f"$.couplings[{row_i}]")
        couplings[key] = val
    fields: dict[int, float] = {}
    for row_i, (i, val) in enumerate(each(doc["fields"], "$.fields", _field_row)):
        if i in fields:
            raise SchemaError(f"duplicate field {i}", f"$.fields[{row_i}]")
        fields[i] = val
    return IsingInstance(n_spins=n, couplings=couplings, local_fields=fields,
                         alpha=doc.get("alpha"), j0=doc.get("j0"))
