import itertools
import json
import math
import random

import pytest

import ionfab.ising
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


class TestAnneal:
    SLOW = AnnealSchedule(t_start=20.0, t_factor=0.92, t_min=0.05,
                          sweeps_per_temp=3)

    def test_ferromagnet_reaches_ground(self):
        inst = ferromagnet(20)
        hits = sum(
            1 for seed in range(100)
            if anneal_classical(inst, self.SLOW, seed)[1] == -190.0)
        assert hits >= 95

    def test_zero_temperature_stays_at_optimum(self):
        inst = ferromagnet(12)
        frozen = AnnealSchedule(t_start=0.0)
        config, best = anneal_classical(inst, frozen, seed=9,
                                        initial=SpinConfig((1,) * 12))
        assert best == -66.0
        assert config.spins == (1,) * 12

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

    @pytest.mark.parametrize("bounds", [
        {"t_start": math.inf}, {"t_start": math.nan},
        {"t_start": 1.0, "t_min": math.inf}, {"t_start": 0.0, "t_min": math.nan},
    ])
    def test_non_finite_temperatures(self, bounds):
        with pytest.raises(DomainError, match="must be finite"):
            AnnealSchedule(**bounds).temperatures()

    def test_malformed_schedule(self):
        with pytest.raises(DomainError):
            AnnealSchedule(t_start=1.0, t_factor=1.5).temperatures()
        with pytest.raises(DomainError):
            AnnealSchedule(t_start=1.0, t_min=0.0).temperatures()


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
