import csv
import itertools
import json
import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ionfab.ising
from conftest import FIXTURES_DIR, GOLDEN_DIR
from ionfab.errors import DomainError
from ionfab.ising import (AnnealSchedule, IsingInstance, SpinConfig,
                          adiabatic_evolve, anneal_classical,
                          brute_force_ground_state, energy, instance_to_doc,
                          parse_instance, power_law_couplings)


def ferromagnet(n):
    return IsingInstance(n, {(i, j): -1.0 for i in range(n)
                             for j in range(i + 1, n)})


def random_instance(n, seed, density=0.6):
    rng = random.Random(seed)
    couplings = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                couplings[(i, j)] = rng.choice([-2, -1, 1, 2]) * 1.0
    fields = {i: rng.choice([-1, 0, 0, 1]) * 1.0 for i in range(n)}
    return IsingInstance(n, couplings, fields)


def unit_instance(n, seed, free=0):
    """Couplings drawn from {-1, 0, 1}, no fields; spins below ``free`` are
    left uncoupled, so each ground state comes with its 2^free neighbours."""
    rng = random.Random(seed)
    return IsingInstance(n, {(i, j): float(rng.choice((-1, 0, 1)))
                             for i in range(free, n) for j in range(i + 1, n)})


def float_instance(n, seed, density=1.0):
    """Couplings and fields drawn uniformly from [-1, 1]."""
    rng = random.Random(seed)
    couplings = {(i, j): rng.uniform(-1.0, 1.0) for i in range(n)
                 for j in range(i + 1, n) if rng.random() < density}
    return IsingInstance(n, couplings, {i: rng.uniform(-1.0, 1.0) for i in range(n)})


def spins_index(spins):
    """Enumeration index of a spin tuple (bit i set where spin i is -1)."""
    return sum(1 << i for i, s in enumerate(spins) if s == -1)


def reference_energy(instance, spins):
    """Independent double-loop implementation of the energy convention."""
    J = instance.coupling_matrix()
    total = 0.0
    for i in range(instance.n_spins):
        for j in range(i + 1, instance.n_spins):
            total += J[i, j] * spins[i] * spins[j]
        total += instance.local_fields.get(i, 0.0) * spins[i]
    return total


def reference_trotter(instance, total_time, steps):
    """Per-qubit loop of the adiabatic sweep: each Trotter step applies the
    X rotation as one butterfly per qubit and sums <X_q> one qubit at a time.
    Returns (trace, ground_overlap, final_ising_energy, final_norm)."""
    n, dim = instance.n_spins, 1 << instance.n_spins
    diag = np.array([reference_energy(instance, SpinConfig.from_index(i, n).spins)
                     for i in range(dim)])
    psi = np.full(dim, 1.0 / math.sqrt(dim), dtype=complex)
    dt = total_time / steps
    trace = []
    for k in range(steps):
        s = (k + 0.5) / steps
        psi *= np.exp(-1j * dt * s * diag)
        c, i_s = math.cos(dt * (1.0 - s)), 1j * math.sin(dt * (1.0 - s))
        x_expect = 0.0
        for q in range(n):
            shaped = psi.reshape(1 << (n - 1 - q), 2, 1 << q)
            a = shaped[:, 0, :].copy()
            b = shaped[:, 1, :]
            shaped[:, 0, :] = c * a + i_s * b
            shaped[:, 1, :] = i_s * a + c * b
        for q in range(n):
            shaped = psi.reshape(1 << (n - 1 - q), 2, 1 << q)
            x_expect += 2.0 * float(np.real(np.sum(
                np.conj(shaped[:, 0, :]) * shaped[:, 1, :])))
        trace.append(s * float(np.real(np.vdot(psi, diag * psi)))
                     - (1.0 - s) * x_expect)
    overlap = float(np.sum(np.abs(psi[diag == diag.min()]) ** 2))
    return (trace, overlap, float(np.real(np.vdot(psi, diag * psi))),
            float(np.linalg.norm(psi)))


def reference_anneal(instance, schedule, seed):
    """Metropolis loop that sums every spin's local field on every visit;
    ``anneal_classical`` caches the fields and must match it bit for bit."""
    n = instance.n_spins
    temps = schedule.temperatures()
    rng = random.Random(seed)

    neighbors = [[] for _ in range(n)]
    for (i, j), val in instance.couplings.items():
        if val != 0.0:
            neighbors[i].append((j, val))
            neighbors[j].append((i, val))
    fields = [instance.local_fields.get(i, 0.0) for i in range(n)]

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


def reference_ground(instance):
    """Second enumeration implementation: pure-python itertools sweep."""
    best = math.inf
    best_set = []
    for spins in itertools.product((1, -1), repeat=instance.n_spins):
        e = reference_energy(instance, spins)
        if e < best - 1e-12:
            best, best_set = e, [spins]
        elif abs(e - best) <= 1e-12:
            best_set.append(spins)
    return best, set(best_set)


class TestEnergy:
    def test_aligned_ferromagnet(self):
        inst = ferromagnet(4)
        assert energy(inst, SpinConfig((1, 1, 1, 1))) == -6.0

    def test_frustrated_triangle_minimum(self):
        inst = IsingInstance(3, {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0})
        energies = [energy(inst, SpinConfig(c))
                    for c in itertools.product((1, -1), repeat=3)]
        assert min(energies) == -1.0

    def test_global_flip_symmetry(self):
        inst = random_instance(6, seed=3)
        inst = IsingInstance(6, inst.couplings)  # drop fields for Z2 symmetry
        for c in itertools.product((1, -1), repeat=6):
            flipped = tuple(-s for s in c)
            assert energy(inst, SpinConfig(c)) == energy(inst, SpinConfig(flipped))

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            energy(ferromagnet(4), SpinConfig((1, 1, 1)))

    def test_matches_reference(self):
        inst = random_instance(8, seed=11)
        rng = random.Random(0)
        for _ in range(20):
            spins = tuple(rng.choice((-1, 1)) for _ in range(8))
            assert energy(inst, SpinConfig(spins)) == pytest.approx(
                reference_energy(inst, spins), rel=1e-12)


class TestPowerLawCap:
    """The chain generator refuses a size over its cap before building."""

    @pytest.mark.parametrize("n", [ionfab.ising.POWER_LAW_MAX_SPINS + 1, 10**9])
    def test_over_the_cap_fails_at_once(self, n):
        cap = ionfab.ising.POWER_LAW_MAX_SPINS
        with pytest.raises(DomainError, match=f"^n = {n} exceeds power-law cap {cap}$"):
            power_law_couplings(n, 1.0, 1.0)

    def test_mid_size_builds(self):
        assert len(power_law_couplings(200, 1.0, 1.0).couplings) == 200 * 199 // 2


class TestBruteForce:
    def test_ferromagnet_two_ground_states(self):
        configs, best = brute_force_ground_state(ferromagnet(8))
        assert best == -28.0  # -C(8,2)
        assert {c.spins for c in configs} == {(1,) * 8, (-1,) * 8}

    def test_alpha_zero_equals_ferromagnet(self):
        inst = power_law_couplings(6, 0.0, -1.0)
        configs, best = brute_force_ground_state(inst)
        assert best == -15.0
        assert {c.spins for c in configs} == {(1,) * 6, (-1,) * 6}

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_dual_enumerator(self, seed):
        inst = random_instance(10, seed=seed)
        configs, best = brute_force_ground_state(inst, max_configs=2048)
        ref_best, ref_set = reference_ground(inst)
        assert best == pytest.approx(ref_best, abs=1e-9)
        assert {c.spins for c in configs} == ref_set

    def test_ground_set_closed_under_flip_without_fields(self):
        inst = IsingInstance(8, random_instance(8, seed=5).couplings)
        configs, _ = brute_force_ground_state(inst, max_configs=2048)
        ground = {c.spins for c in configs}
        assert all(tuple(-s for s in g) in ground for g in ground)

    def test_size_guard(self):
        with pytest.raises(DomainError):
            brute_force_ground_state(ferromagnet(25))


class TestBlockBoundaries:
    """Blocks of 16 configurations, so every n=10 enumeration spans 64 blocks."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(ionfab.ising, "_ENUM_CHUNK", 16)

    def test_enumerator_reads_the_block_size(self):
        starts = [start for start, _ in ionfab.ising._energy_blocks(unit_instance(10, 0))]
        assert starts == list(range(0, 1024, 16))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dual_enumerator(self, seed):
        inst = unit_instance(10, seed)
        configs, best = brute_force_ground_state(inst, max_configs=1024)
        ref_best, ref_set = reference_ground(inst)
        assert best == ref_best
        assert [c.spins for c in configs] == sorted(ref_set, key=spins_index)
        # without fields every ground state's flip ties with it in another block
        assert len({spins_index(c.spins) // 16 for c in configs}) >= 2

    @pytest.mark.parametrize("cap", [1, 2, 3, 5, 6, 7])
    def test_cap_lands_mid_block(self, cap):
        inst = unit_instance(10, seed=3, free=2)
        configs, _ = brute_force_ground_state(inst, max_configs=cap)
        _, ref_set = reference_ground(inst)
        ordered = sorted(ref_set, key=spins_index)
        assert [c.spins for c in configs] == ordered[:cap]
        # the cap falls between two ground states of one block
        assert spins_index(ordered[cap - 1]) // 16 == spins_index(ordered[cap]) // 16


@st.composite
def enumerator_cases(draw):
    """An instance of 1-10 spins with integer or float couplings and fields
    (float ones with or without fields), and a block size."""
    n = draw(st.integers(1, 10))
    kind = draw(st.sampled_from(["integer", "float", "float_no_fields"]))
    if kind == "integer":
        value = st.integers(-3, 3).map(float)
    else:
        value = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
    couplings = {(i, j): draw(value) for i in range(n) for j in range(i + 1, n)}
    fields = {} if kind == "float_no_fields" else {i: draw(value) for i in range(n)}
    chunk = draw(st.sampled_from([1, 2, 16, ionfab.ising._ENUM_CHUNK, 1 << 18]))
    return IsingInstance(n, couplings, fields), kind, chunk


class TestEnumeratorProperty:
    """The half-split enumerator against the double loop, for any block size."""

    @settings(max_examples=120)
    @given(enumerator_cases())
    def test_blocks_match_reference(self, case):
        inst, kind, chunk = case
        n, total = inst.n_spins, 1 << inst.n_spins
        with mock.patch.object(ionfab.ising, "_ENUM_CHUNK", chunk):
            blocks = list(ionfab.ising._energy_blocks(inst))
            configs, _ = brute_force_ground_state(inst, max_configs=total)
        assert [start for start, _ in blocks] == list(range(0, total, chunk))
        assert all(len(e) == min(chunk, total - start) for start, e in blocks)
        energies = np.concatenate([e for _, e in blocks])
        expected = [reference_energy(inst, SpinConfig.from_index(i, n).spins)
                    for i in range(total)]
        if kind == "integer":
            assert energies.tolist() == expected
        else:
            assert energies.tolist() == pytest.approx(expected, rel=1e-12, abs=1e-12)
        if kind == "float_no_fields":
            ground = {c.spins for c in configs}
            assert all(tuple(-s for s in g) in ground for g in ground)

    def test_memory_bound_at_n20(self):
        inst = power_law_couplings(20, 1.3, 1.0)
        tracemalloc.start()
        try:
            configs, _ = brute_force_ground_state(inst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(configs) == 2
        # 128 KB blocks peak near 0.76 MB; 2 MB blocks took 6.3 MB
        assert peak < 2**20


class TestDefaultBlocks:
    """The default blocks against 2 MB ones: the same halves, and energies
    and ground states equal bit for bit."""

    @pytest.mark.parametrize("n", range(15, 21))
    @pytest.mark.parametrize("family", ["power_law", "integer"])
    def test_equal_to_large_blocks(self, n, family):
        inst = (power_law_couplings(n, 1.3, 1.0) if family == "power_law"
                else random_instance(n, seed=n))
        runs = []
        for chunk in (ionfab.ising._ENUM_CHUNK, 1 << 18):
            with mock.patch.object(ionfab.ising, "_ENUM_CHUNK", chunk):
                energies = np.concatenate(
                    [e for _, e in ionfab.ising._energy_blocks(inst)])
                runs.append((energies, brute_force_ground_state(inst)))
        (default, ground), (large, large_ground) = runs
        assert np.array_equal(default, large)
        assert ground == large_ground

    def test_split_is_half_up_to_the_cap(self):
        for n in range(1, ionfab.ising.BRUTE_FORCE_MAX_SPINS + 1):
            assert ionfab.ising._split(n) == n // 2


class TestAdiabatic:
    def test_sudden_limit(self):
        run = adiabatic_evolve(ferromagnet(6), 1e-9, 10)
        assert run.ground_overlap == pytest.approx(2 / 64, abs=1e-6)
        inst = unit_instance(8, seed=2)  # 12 ground states
        ground, _ = brute_force_ground_state(inst, max_configs=1 << 8)
        assert len(ground) == 12
        run = adiabatic_evolve(inst, 1e-9, 10)
        assert run.ground_overlap == pytest.approx(len(ground) / (1 << 8), abs=1e-6)

    def test_overlap_monotone_in_total_time(self):
        overlaps = [adiabatic_evolve(ferromagnet(2), T, 2000).ground_overlap
                    for T in (2.0, 4.0, 8.0, 16.0)]
        for lo, hi in zip(overlaps, overlaps[1:]):
            assert hi >= lo - 1e-3

    def test_pinned_n6_fixture(self):
        # recorded from the first execution of this fixture
        run = adiabatic_evolve(ferromagnet(6), 50.0, 5000)
        assert run.ground_overlap > 0.99
        assert run.ground_overlap == pytest.approx(0.9999750087362151, rel=1e-9)

    def test_norm_conserved(self):
        run = adiabatic_evolve(random_instance(7, seed=2), 10.0, 1500)
        assert abs(run.final_norm - 1.0) < 1e-9

    def test_final_energy_above_minimum(self):
        inst = random_instance(7, seed=4)
        _, best = brute_force_ground_state(inst)
        run = adiabatic_evolve(inst, 5.0, 500)
        assert run.final_ising_energy >= best - 1e-9

    def test_energy_trace_length(self):
        run = adiabatic_evolve(ferromagnet(3), 1.0, 50)
        assert len(run.energy_trace) == 50

    def test_guards(self):
        with pytest.raises(DomainError):
            adiabatic_evolve(ferromagnet(13), 1.0, 100)
        with pytest.raises(DomainError):
            adiabatic_evolve(ferromagnet(4), 1.0, 5)
        with pytest.raises(DomainError):
            adiabatic_evolve(ferromagnet(4), float("nan"), 100)

    def test_step_cap(self):
        cap = ionfab.ising.ADIABATIC_MAX_STEPS
        with pytest.raises(DomainError, match=f"steps must be <= {cap}, got {cap + 1}"):
            adiabatic_evolve(ferromagnet(4), 1.0, cap + 1)

    # n = 11 splits into unequal halves, n = 12 is the cap, and random float
    # fields give 2^n distinct energies, so the phase gather saves nothing.
    # The 2000- and 5000-step sweeps show that rounding does not drift.
    # Steps come in blocks of _TROTTER_BLOCK // levels: the n = 10 chain's
    # 400 levels make blocks of 10, which 97 steps end seven steps into, and
    # n = 12 with float fields makes blocks of one step.
    @pytest.mark.parametrize("n, family, steps", [
        pytest.param(n, family, steps,
                     id=f"{n}-{family}" + ("" if steps == 200 else f"-{steps}steps"))
        for n, family, steps in [
            *((n, "integer", 200) for n in range(1, 13)),
            *((n, "power_law", 200) for n in range(2, 13)),
            *((n, "float", 200) for n in (5, 11, 12)),
            *((n, family, steps) for n, steps in ((6, 5000), (8, 2000))
              for family in ("integer", "power_law")),
            (10, "power_law", 97), (12, "float", 97)]])
    def test_matches_per_qubit_reference(self, n, family, steps):
        if family == "integer":
            inst = random_instance(n, seed=n)
        elif family == "power_law":
            inst = power_law_couplings(n, 1.3, 1.0)
        else:
            inst = float_instance(n, seed=n)
        energies = np.concatenate([e for _, e in ionfab.ising._energy_blocks(inst)])
        levels = len(np.unique(energies))
        if family == "float":
            assert levels == 1 << n
        if steps == 97:
            assert ionfab.ising._TROTTER_BLOCK // levels == (10 if n == 10 else 1)
        total_time = steps / 40  # dt = 0.025 at every length
        run = adiabatic_evolve(inst, total_time, steps)
        trace, overlap, final_energy, norm = reference_trotter(inst, total_time, steps)
        close = dict(rel=1e-12, abs=1e-12)
        assert list(run.energy_trace) == pytest.approx(trace, **close)
        assert run.ground_overlap == pytest.approx(overlap, **close)
        assert run.final_ising_energy == pytest.approx(final_energy, **close)
        assert run.final_norm == pytest.approx(norm, **close)

    # The CLI goldens pin bytes; this ties them to the per-qubit loop.
    @pytest.mark.parametrize("name", ["powerlaw12", "degenerate11"])
    def test_goldens_match_per_qubit_reference(self, name):
        inst = parse_instance(json.loads(
            (FIXTURES_DIR / f"ising_{name}.json").read_text()))
        doc = json.loads((GOLDEN_DIR / f"ising_adiabatic_{name}.json").read_text())
        with open(GOLDEN_DIR / f"ising_adiabatic_{name}_trace.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert (doc["total_time"], doc["steps"]) == (4.0, 120)
        trace, overlap, final_energy, norm = reference_trotter(inst, 4.0, 120)
        close = dict(rel=1e-12, abs=1e-12)
        assert [int(r["step"]) for r in rows] == list(range(120))
        assert [float(r["energy"]) for r in rows] == pytest.approx(trace, **close)
        assert doc["ground_overlap"] == pytest.approx(overlap, **close)
        assert doc["final_ising_energy"] == pytest.approx(final_energy, **close)
        assert doc["final_norm"] == pytest.approx(norm, **close)


class TestRotationFrame:
    """The identity the Trotter step rests on: in the frame P = diag(i^|i|),
    the transverse-field rotation and sum X are real."""

    @staticmethod
    def dense(k, theta):
        """exp(i theta sum X) on k qubits as a Kronecker product, and sum X."""
        c, s = math.cos(theta), 1j * math.sin(theta)
        rotation, sum_x = np.ones((1, 1)), np.zeros((1, 1))
        for _ in range(k):
            rotation = np.kron(rotation, [[c, s], [s, c]])
            sum_x = np.kron(sum_x, np.eye(2)) + np.kron(np.eye(len(sum_x)), [[0, 1], [1, 0]])
        return rotation, sum_x

    @staticmethod
    def frame(k):
        """P = diag(i^|i|) with |i| the popcount of i."""
        return np.diag([1j ** bin(i).count("1") for i in range(1 << k)])

    @pytest.mark.parametrize("k", range(7))
    @pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 2, 2.0])
    def test_rotation_is_p_r_p(self, k, theta):
        index, _ = ionfab.ising._frame_tables(k)
        q = np.take(ionfab.ising._signed_weights(k, theta), index)
        p = self.frame(k)
        r = q @ np.linalg.inv(p @ p)  # Q = R P^2, and R is real and symmetric
        assert np.array_equal(r, r.T)
        assert np.abs(p @ r @ p - self.dense(k, theta)[0]).max() <= 1e-14

    @pytest.mark.parametrize("k", range(7))
    def test_sum_x_is_i_t(self, k):
        _, t = ionfab.ising._frame_tables(k)
        p = self.frame(k)
        assert np.array_equal(t, -t.T)
        assert np.abs(np.linalg.inv(p) @ self.dense(k, 0.0)[1] @ p - 1j * t).max() <= 1e-14

    def test_tables_are_read_only_and_built_once(self):
        index, t = ionfab.ising._frame_tables(4)
        assert ionfab.ising._frame_tables(4)[0] is index
        for table in (index, t):
            with pytest.raises(ValueError):
                table[0, 0] = 0


class TestAnneal:
    SLOW = AnnealSchedule(t_start=20.0, t_factor=0.92, t_min=0.05,
                          sweeps_per_temp=3)

    def test_ferromagnet_reaches_ground(self):
        inst = ferromagnet(20)
        hits = sum(
            1 for seed in range(100)
            if anneal_classical(inst, self.SLOW, seed)[1] == -190.0)
        assert hits >= 95

    def test_frustrated_triangle(self):
        inst = IsingInstance(3, {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0})
        for seed in range(5):
            _, best = anneal_classical(inst, self.SLOW, seed)
            assert best == -1.0

    @pytest.mark.parametrize("seed", range(8))
    def test_never_beats_brute_force(self, seed):
        inst = random_instance(10, seed=seed + 100)
        _, exact = brute_force_ground_state(inst)
        _, annealed = anneal_classical(inst, self.SLOW, seed)
        assert annealed >= exact - 1e-9

    def test_deterministic(self):
        inst = random_instance(10, seed=0)
        a = anneal_classical(inst, self.SLOW, seed=7)
        b = anneal_classical(inst, self.SLOW, seed=7)
        assert a == b

    def test_missing_seed_rejected(self):
        # no hidden entropy: a None seed would seed from the OS
        with pytest.raises(DomainError, match="requires a seed"):
            anneal_classical(random_instance(4, seed=0), self.SLOW, None)

    @pytest.mark.parametrize("bounds", [
        {"t_start": math.inf}, {"t_start": math.nan},
        {"t_start": 1.0, "t_min": math.inf}, {"t_start": 0.0, "t_min": math.nan},
    ])
    def test_non_finite_temperatures(self, bounds):
        with pytest.raises(DomainError, match="must be finite"):
            AnnealSchedule(**bounds).temperatures()

    @pytest.mark.parametrize("t_start", [0.005, 1e-300, 0.01])
    def test_ladder_starts_at_t_start(self, t_start):
        # a start below t_min is the one rung, not t_min
        assert AnnealSchedule(t_start=t_start).temperatures() == [t_start]

    def test_malformed_schedule(self):
        with pytest.raises(DomainError):
            AnnealSchedule(t_start=1.0, t_factor=1.5).temperatures()
        with pytest.raises(DomainError):
            AnnealSchedule(t_start=1.0, t_min=0.0).temperatures()

    def test_term_cap_counts_sweeps_times_spins_and_coupling_ends(self):
        # 3 spins, 3 couplings, one zero: each sweep sums 3 + 2*2 terms
        inst = IsingInstance(3, {(0, 1): 1.0, (0, 2): 0.0, (1, 2): -1.0})
        terms = len(self.SLOW.temperatures()) * 3 * 7
        with mock.patch.object(ionfab.ising, "ANNEAL_MAX_TERMS", terms):
            anneal_classical(inst, self.SLOW, seed=1)
        with mock.patch.object(ionfab.ising, "ANNEAL_MAX_TERMS", terms - 1), \
                pytest.raises(DomainError, match=f"sum up to {terms} local-field "
                                                 f"terms, over the cap of {terms - 1}"):
            anneal_classical(inst, self.SLOW, seed=1)

    def test_default_ladder_on_1000_spins_is_within_the_term_cap(self):
        # `ising --n 1000 --alpha 1` writes every coupling nonzero; the CLI's
        # default ladder is AnnealSchedule's, from t_start 5; counted, not run
        inst = power_law_couplings(1000, 1.0, 1.0)
        assert all(inst.couplings.values())
        sweeps = len(AnnealSchedule(t_start=5.0).temperatures()) * 2
        terms = sweeps * (1000 + 2 * len(inst.couplings))
        assert terms == 244_000_000 <= ionfab.ising.ANNEAL_MAX_TERMS


@st.composite
def anneal_cases(draw):
    """An instance (integer, power-law, float-field, sparse or zero
    couplings), a schedule that may be frozen, a seed and maybe a start."""
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["integer", "power_law", "float_fields",
                                 "sparse", "zero"]))
    seed = draw(st.integers(0, 2**31 - 1))
    if kind == "integer":
        inst = random_instance(n, seed)
    elif kind == "power_law":
        inst = power_law_couplings(max(n, 2), draw(st.floats(0.0, 3.0)),
                                   draw(st.sampled_from([1.0, -1.0])))
    elif kind == "float_fields":
        inst = IsingInstance(n, random_instance(n, seed).couplings,
                             float_instance(n, seed).local_fields)
    elif kind == "sparse":
        inst = float_instance(n, seed, density=0.2)
    else:
        inst = IsingInstance(n, {(i, j): 0.0 for i in range(n) for j in range(i + 1, n)},
                             float_instance(n, seed).local_fields)
    schedule = AnnealSchedule(
        t_start=draw(st.sampled_from([0.0, 0.005, 0.5, 5.0])),
        t_factor=draw(st.sampled_from([0.5, 0.9])),
        sweeps_per_temp=draw(st.integers(1, 3)))
    return inst, schedule, draw(st.integers(0, 2**31 - 1))


class TestAnnealProperty:
    """The cached-field anneal against the loop that sums on every visit."""

    @settings(max_examples=150)
    @given(anneal_cases())
    def test_matches_reference_anneal(self, case):
        inst, schedule, seed = case
        config, best = anneal_classical(inst, schedule, seed)
        ref_config, ref_best = reference_anneal(inst, schedule, seed)
        assert config == ref_config
        assert best == ref_best and repr(best) == repr(ref_best)


class TestInstanceIO:
    def test_round_trip(self):
        inst = power_law_couplings(5, 1.3, -0.7)
        assert parse_instance(json.loads(json.dumps(instance_to_doc(inst)))) == inst

    def test_round_trip_with_fields(self):
        inst = random_instance(6, seed=0)
        assert parse_instance(json.loads(json.dumps(instance_to_doc(inst)))) == inst

    def test_rejects_duplicate_coupling(self):
        doc = {"schema": "ionfab-ising/1", "n": 3,
               "couplings": [[0, 1, 1.0], [1, 0, 2.0]], "fields": []}
        from ionfab.errors import SchemaError
        with pytest.raises(SchemaError, match="duplicate"):
            parse_instance(doc)

    def test_rejects_wrong_schema(self):
        from ionfab.errors import SchemaError
        with pytest.raises(SchemaError, match="schema"):
            parse_instance({"schema": "other/9", "n": 2, "couplings": [],
                            "fields": []})

    @pytest.mark.parametrize("couplings, fields", [
        ({(0, 1): math.nan}, {}),
        ({(0, 1): 1.0}, {1: math.inf}),
        ({}, {0: -math.inf}),
    ])
    def test_rejects_non_finite_values(self, couplings, fields):
        with pytest.raises(DomainError, match="must be finite"):
            IsingInstance(2, couplings, fields)

    @pytest.mark.parametrize("couplings, fields", [
        ({(0, 1): 6e307, (0, 2): 6e307, (1, 2): 6e307}, {}),
        ({(0, 1): -5e307}, {0: 5e307, 2: -5e307}),  # finite sum, twice overflows
    ])
    def test_rejects_overflowing_magnitudes(self, couplings, fields):
        with pytest.raises(DomainError, match="overflows"):
            IsingInstance(3, couplings, fields)

    def test_largest_accepted_magnitudes_stay_finite(self):
        # 2 * (sum |J| + sum |B|) just below the float range; every solver's
        # energies stay finite (a numpy overflow warning fails the suite)
        inst = IsingInstance(3, {(0, 1): 2.9e307, (0, 2): -2.9e307,
                                 (1, 2): 2.9e307}, {0: 1e306})
        _, best = brute_force_ground_state(inst)
        run = adiabatic_evolve(inst, 1.0, 10)
        _, annealed = anneal_classical(inst, AnnealSchedule(t_start=1.0), seed=1)
        assert all(map(math.isfinite, (best, run.final_ising_energy, annealed)))

    @pytest.mark.parametrize("change", [
        {"couplings": None}, {"fields": None}, {"alpha": "1"}, {"n": 2.0},
        {"fields": [[0, 1.0], [0, 2.0]]}, {"couplings": [[0, 1]]},
    ])
    def test_rejects_what_the_schema_rejects(self, change):
        from ionfab.errors import SchemaError
        doc = {"schema": "ionfab-ising/1", "n": 2, "couplings": [[0, 1, 1.0]],
               "fields": []}
        doc.update(change)
        doc = {k: v for k, v in doc.items() if v is not None}
        with pytest.raises(SchemaError):
            parse_instance(doc)
