"""Ising instances and desk-scale exact solvers.

Hamiltonian sign convention, fixed project-wide:

    H(s) = sum_{i<j} J_ij s_i s_j + sum_i B_i s_i,   s_i in {-1, +1}

so a ferromagnet has J < 0. Couplings are stored sparsely as an (i, j) -> J
map with i < j; ``support_edges`` doubles as the coupling-support mask for
Boltzmann-machine topologies (entries may be exactly 0).

Spin configurations enumerate as integers: bit i of the index set means
spin i is -1, so index 0 is the all-up configuration.

Both exact kernels split the register once: spins 0..lo-1 form the low
half and spins lo..n-1 the high half, with lo = min(n // 2, log2
_ENUM_CHUNK) and hi = n - lo. A configuration's index is h * 2^lo + l, so a
row-major (2^hi, 2^lo) matrix holds every configuration in ascending index
order. The enumerator yields blocks of rows of

    E[h, l] = E_hi[h] + E_lo[l] + (S_hi J_hl S_lo^T)[h, l],

where S_k is the (2^k, k) matrix of spins of each half-index. A block is
_ENUM_CHUNK = 2^14 configurations, 128 KB of float64: the largest size
whose temporaries take no minor page faults (``ru_minflt``) for n = 13-17
in a warm process; 2 MB blocks were mapped afresh on every call, and the
faults cost more than the arithmetic. With it lo is n // 2 for every n up
to BRUTE_FORCE_MAX_SPINS. The Trotter
step of the adiabatic sweep reshapes the statevector to that matrix M. The
uniform X rotation exp(i theta sum X) factors as A_hi (x) A_lo, with

    A_k[i, j] = cos(theta)^(k - d) * (i sin(theta))^d,   d = popcount(i ^ j).

Since i^d = i^|i| i^|j| (-1)^|i & j|, A_k = P_k R_k P_k with the fixed
diagonal P_k = diag(i^|i|) and R_k real. So the sweep holds the state in the
frame N = P_hi^-1 M P_lo^-1, where a step with phase Phi is

    N <- Q_hi (Phi o N) Q_lo^T,   Q_k[i, j] = cos^(k-d) sin^d (-1)^(|i & j| + |j|),

and Q_k = P_k^-1 A_k P_k is real: two real products on the float64 view of
N, the second on N^T, which is copied between the halves (one Q serves both
sides when hi == lo). Likewise P_k^-1 X_k P_k = i T_k, with X_k the mask
d == 1 and T_k real and antisymmetric (the sign of |j| - |i| where d == 1),
so <sum X> = -Im <N, T_hi N> - Im <N^T, T_lo N^T>. sum X_k commutes with
the rotation, so the stacked [Q_k; T_k] gives both the rotated half and
T_k's input in one product per half. |N| = |M| entrywise, so energies and
the ground overlap read N as it is. The phase exp(-i dt s H_z) is computed
once per distinct energy level and gathered to the 2^n entries: integer
instances have few levels. The level phases and the rotation weights are
made for B = _TROTTER_BLOCK // levels steps at once (at least one), a
(B, levels) table of the same products, cosines and sines that each step
made alone.
"""

from __future__ import annotations

import functools
import math
import random
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SchemaError
from .jsondoc import each, fixed_array, integer, number, require_keys, require_schema

ISING_SCHEMA_ID = "ionfab-ising/1"

POWER_LAW_MAX_SPINS = 1000  # n(n-1)/2 couplings; the size of circuits.MAX_QUBITS
BRUTE_FORCE_MAX_SPINS = 24
ADIABATIC_MAX_SPINS = 12
ANNEAL_MAX_SPINS = 10_000
ANNEAL_MAX_SWEEPS = 1_000_000  # temperatures x sweeps per temperature
# Local-field terms an anneal may sum: sweeps x (spins + 2 x nonzero
# couplings), the work of recomputing every field on every visit. The
# default ladder (244 sweeps) on a dense 1,000-spin chain is 244,000,000.
ANNEAL_MAX_TERMS = 250_000_000
ADIABATIC_MAX_STEPS = 1_000_000
_ENUM_CHUNK = 1 << 14
_TROTTER_BLOCK = 4096  # entries (steps x levels) of one block of level phases


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
        if not math.isfinite(2 * self.magnitude()):
            raise DomainError("couplings and fields too large: "
                              "2 * (sum |J| + sum |B|) overflows")

    def magnitude(self) -> float:
        """sum |J| + sum |B|, a bound on |H(s)| for every configuration."""
        return (sum(map(abs, self.couplings.values()))
                + sum(map(abs, self.local_fields.values())))

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
    total_time: float       # units of 1/|j0| (dimensionless schedule length)
    steps: int
    ground_overlap: float   # probability of ending in the exact ground space
    energy_trace: tuple[float, ...]
    final_norm: float
    final_ising_energy: float  # <H_Ising> of the final state (s = 1 Hamiltonian)


@dataclass(frozen=True)
class AnnealSchedule:
    """Geometric temperature ladder: t_start * t_factor^k until t_min, and
    at least the one rung t_start."""

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
        return temps or [self.t_start]


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def power_law_couplings(n: int, alpha: float, j0: float) -> IsingInstance:
    """1D chain with J_ij = j0 / |i-j|^alpha at unit spacing and zero fields.

    alpha is restricted to the tunable range [0, 3] (infinite-range to
    dipole-dipole).
    """
    if n < 2:
        raise DomainError(f"need at least 2 spins, got {n}")
    if n > POWER_LAW_MAX_SPINS:
        raise DomainError(f"n = {n} exceeds power-law cap {POWER_LAW_MAX_SPINS}")
    if not 0 <= alpha <= 3:  # also catches NaN
        raise DomainError(f"alpha = {alpha!r} outside [0, 3]")
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


def _split(n: int) -> int:
    """Spins in the low half: at most n // 2, and a low row fits one block."""
    return min(n // 2, _ENUM_CHUNK.bit_length() - 1)


def _spin_matrix(k: int) -> np.ndarray:
    """(2^k, k) matrix of +-1 spins; row i holds the spins of index i."""
    return 1.0 - 2.0 * ((np.arange(1 << k)[:, None] >> np.arange(k)) & 1)


def _popcount_xor(k: int) -> np.ndarray:
    """(2^k, 2^k) table of popcount(i ^ j): the spins two indices differ in."""
    idx = np.arange(1 << k)
    return ((idx[:, None] ^ idx)[..., None] >> np.arange(k) & 1).sum(axis=-1)


def _energy_blocks(instance: IsingInstance) -> Iterator[tuple[int, np.ndarray]]:
    """Energies of all 2^n configurations in ascending index order, yielded
    as (first index, energies) blocks of ``_ENUM_CHUNK`` configurations."""
    n = instance.n_spins
    if n > BRUTE_FORCE_MAX_SPINS:
        raise DomainError(f"n = {n} exceeds brute-force cap {BRUTE_FORCE_MAX_SPINS}")
    J = instance.coupling_matrix()
    B = instance.field_vector()
    lo = _split(n)
    s_lo, s_hi = _spin_matrix(lo), _spin_matrix(n - lo)
    e_lo = 0.5 * np.einsum("ci,ci->c", s_lo @ J[:lo, :lo], s_lo) + s_lo @ B[:lo]
    e_hi = 0.5 * np.einsum("ci,ci->c", s_hi @ J[lo:, lo:], s_hi) + s_hi @ B[lo:]
    cross = s_hi @ J[lo:, :lo]
    rows = _ENUM_CHUNK >> lo
    for h in range(0, len(s_hi), rows):
        block = e_hi[h:h + rows, None] + e_lo + cross[h:h + rows] @ s_lo.T
        yield h << lo, block.ravel()


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

@functools.lru_cache(maxsize=None)
def _frame_tables(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (2^k, 2^k) tables of the diagonal frame P = diag(i^|i|).

    ``index`` picks each entry of the real Q = P^-1 exp(i theta sum X) P
    from ``_signed_weights(k, theta)``: weight d = popcount(i ^ j), negated
    where |i & j| + |j| is odd. ``t`` is T = -i P^-1 (sum X) P: +1 where i
    and j differ in one bit and |j| > |i|, -1 where |j| < |i|. Both depend
    on k alone, so each k is built once per process.
    """
    d = _popcount_xor(k)
    ones = d[0]  # popcount(j)
    both = (ones[:, None] + ones - d) // 2  # popcount(i & j)
    index = d + (k + 1) * ((both + ones) & 1)
    t = np.where(d == 1, np.sign(ones - ones[:, None]), 0).astype(float)
    index.setflags(write=False)
    t.setflags(write=False)
    return index, t


def _signed_weights(k: int, theta: float) -> list[float]:
    """cos(theta)^(k-d) sin(theta)^d for d = 0..k, then the same negated:
    the values that ``_frame_tables(k)[0]`` indexes."""
    c, s = math.cos(theta), math.sin(theta)
    w = [c ** (k - d) * s ** d for d in range(k + 1)]
    return w + [-x for x in w]


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
    # Every phase dt * s * E is at most total_time * magnitude in size; the
    # factor 2 keeps the margin of the instance's own bound.
    if not math.isfinite(total_time * 2 * instance.magnitude()):
        raise DomainError("total_time too large for these couplings and fields: "
                          "total_time * 2 * (sum |J| + sum |B|) overflows")

    lo = _split(n)
    hi = n - lo
    rows, cols = 1 << hi, 1 << lo
    diag = np.concatenate([e for _, e in _energy_blocks(instance)])
    levels, level_of = np.unique(diag, return_inverse=True)
    level_of = level_of.reshape(rows, cols)
    diag2 = np.repeat(diag, 2).reshape(rows, 2 * cols)  # on the float view
    index_hi, t_hi = _frame_tables(hi)
    index_lo, t_lo = _frame_tables(lo)
    # [Q_k; T_k]: one real product gives the rotated half and T_k's input
    g_hi = np.empty((2 * rows, rows))
    g_hi[rows:] = t_hi
    g_lo = g_hi if hi == lo else np.empty((2 * cols, cols))
    g_lo[cols:] = t_lo
    # N[h, l] = i^-(|h| + |l|) / sqrt(2^n); the state, and its transpose
    # between the two halves of a step, in preallocated buffers
    ones = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).sum(axis=1)
    state = (np.array([1, -1j, -1, 1j])[ones % 4] / math.sqrt(1 << n)).reshape(rows, cols)
    state_t = np.empty((cols, rows), dtype=complex)
    out_hi, out_lo = np.empty((2 * rows, 2 * cols)), np.empty((2 * cols, 2 * rows))
    v, v_t, sq = state.view(np.float64), state_t.view(np.float64), np.empty(diag2.shape)
    q_hi, q_lo = g_hi[:rows], g_lo[:cols]
    rot_hi, rot_lo = out_hi[:rows].view(complex).T, out_lo[:cols].view(complex).T
    tx_hi, tx_lo = out_hi[rows:].view(complex), out_lo[cols:].view(complex)
    dt = total_time / steps
    trace = np.empty(steps)
    block = max(1, _TROTTER_BLOCK // len(levels))

    for first in range(0, steps, block):
        ss = [(k + 0.5) / steps for k in range(first, min(first + block, steps))]
        # exp(-i*dt*s*H_z) then exp(-i*dt*(1-s)*(-sum X)) = exp(+i*dt*(1-s)*sum X):
        # each step's level phases, one row a step, and its rotation weights
        angle = np.multiply.outer([-dt * s for s in ss], levels)
        phases = np.empty(angle.shape, dtype=complex)
        np.cos(angle, out=phases.real)
        np.sin(angle, out=phases.imag)
        w_hi = np.array([_signed_weights(hi, dt * (1.0 - s)) for s in ss])
        w_lo = w_hi if lo == hi else np.array(
            [_signed_weights(lo, dt * (1.0 - s)) for s in ss])
        for j, s in enumerate(ss):
            state *= phases[j][level_of]
            # every index is in range; mode "raise" would buffer ``out``
            np.take(w_hi[j], index_hi, out=q_hi, mode="clip")
            if lo != hi:
                np.take(w_lo[j], index_lo, out=q_lo, mode="clip")
            # sum X_k commutes with the rotation, so each half's input gives
            # its share -Im <N, T_k N> of <sum X> after the step
            np.matmul(g_hi, v, out=out_hi)
            x_expect = -np.vdot(state, tx_hi).imag
            np.copyto(state_t, rot_hi)
            np.matmul(g_lo, v_t, out=out_lo)
            x_expect -= np.vdot(state_t, tx_lo).imag
            np.copyto(state, rot_lo)
            np.multiply(v, v, out=sq)
            trace[first + j] = s * float(np.vdot(diag2, sq)) - (1.0 - s) * x_expect

    # |N| = |M| entrywise: the frame leaves every probability as it is
    prob = (state.real ** 2 + state.imag ** 2).ravel()
    return AdiabaticRun(
        total_time=total_time,
        steps=steps,
        ground_overlap=float(prob[diag == diag.min()].sum()),
        energy_trace=tuple(trace.tolist()),
        final_norm=float(np.linalg.norm(state)),
        final_ising_energy=float(diag @ prob),
    )


# ---------------------------------------------------------------------------
# Classical annealing
# ---------------------------------------------------------------------------

def anneal_classical(instance: IsingInstance, schedule: AnnealSchedule,
                     seed: int) -> tuple[SpinConfig, float]:
    """Single-spin-flip Metropolis annealing; deterministic for a given seed.

    Uses the stdlib Mersenne Twister (random.Random) so runs reproduce across
    platforms. Starts from a seeded random configuration and returns the
    best configuration seen, not the final one.

    Each spin's local field is cached and recomputed, with the same sum in
    the same neighbour order, only after a neighbour flips; so the fields,
    the RNG draws and the result are those of summing on every visit.
    A schedule that would sum more than ``ANNEAL_MAX_TERMS`` terms raises
    DomainError before the first draw.
    """
    if seed is None:
        raise DomainError("annealing requires a seed")
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
    terms = len(temps) * schedule.sweeps_per_temp * (n + sum(map(len, neighbors)))
    if terms > ANNEAL_MAX_TERMS:
        raise DomainError(f"anneal would sum up to {terms} local-field terms, "
                          f"over the cap of {ANNEAL_MAX_TERMS}")
    fields = [instance.local_fields.get(i, 0.0) for i in range(n)]

    spins = [rng.choice((-1, 1)) for _ in range(n)]
    current = energy(instance, SpinConfig(tuple(spins)))
    best = current
    best_spins = list(spins)

    # local[i] is spin i's field, or None until it is summed and after a
    # neighbour flips.
    local: list[float | None] = [None] * n
    for t in temps:
        for _ in range(schedule.sweeps_per_temp):
            for i in range(n):
                h = local[i]
                if h is None:
                    h = fields[i]
                    for j, val in neighbors[i]:
                        h += val * spins[j]
                    local[i] = h
                delta = -2.0 * spins[i] * h
                if delta <= 0.0 or (t > 0.0 and rng.random() < math.exp(-delta / t)):
                    spins[i] = -spins[i]
                    for j, _ in neighbors[i]:
                        local[j] = None
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


def _spin(row: list, k: int) -> int:
    i = integer(row, k, "$")
    if i < 0:
        raise SchemaError(f"must be >= 0, got {i}", f"$[{k}]")
    return i


def _coupling_row(row: object) -> tuple[int, int, float]:
    fixed_array(row, 3, "[i, j, J]")
    return _spin(row, 0), _spin(row, 1), number(row, 2, "$")


def _field_row(row: object) -> tuple[int, float]:
    fixed_array(row, 2, "[i, B]")
    return _spin(row, 0), number(row, 1, "$")


def parse_instance(doc: object) -> IsingInstance:
    """Parse an ionfab-ising/1 document; rejects all that the schema rejects."""
    require_keys(doc, "$", {"schema", "n", "couplings", "fields"}, {"alpha", "j0"})
    require_schema(doc, ISING_SCHEMA_ID)
    n = integer(doc, "n", "$")
    if n < 1:
        raise SchemaError(f"must be >= 1, got {n}", "$.n")
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
