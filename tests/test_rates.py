import dataclasses
import json
import math

import pytest

from ionfab.arch import DriveField, default_species
from ionfab.constants import HBAR, TWO_PI
from ionfab.errors import DomainError
from ionfab.rates import (gate_rate, lamb_dicke_parameter,
                          link_success_probability, mean_connection_rate,
                          rabi_frequency, rate_report, recoil_frequency,
                          slow_gate_time, state_dependent_force)
from conftest import GOLDEN_DIR

# Frozen by hand arithmetic: hbar*k*Omega and (hbar/2m)*k^2 for the Yb171
# 355 nm counter-propagating Raman drive (k = 2*2pi/355e-9, m = 170.9363 u).
K_RAMAN = 2 * TWO_PI / 355e-9
FORCE_ORACLE = 2.3455113569189858e-20
RECOIL_ORACLE = 232769.3481604589


class TestRabiFrequency:
    def test_units_identity(self):
        assert rabi_frequency(HBAR, 1.0) == 1.0

    def test_linearity(self):
        assert rabi_frequency(2 * HBAR, 3.0) == pytest.approx(6.0, rel=1e-15)

    @pytest.mark.parametrize("mu", [1e-30, 3.3e-29, 7e-28])
    def test_homogeneity_in_field(self, mu):
        assert rabi_frequency(mu, 2e4) == pytest.approx(
            2 * rabi_frequency(mu, 1e4), rel=1e-15)

    def test_rejects_non_positive(self):
        with pytest.raises(DomainError):
            rabi_frequency(0.0, 1.0)
        with pytest.raises(DomainError):
            rabi_frequency(1e-29, -1.0)


class TestStateDependentForce:
    def test_definition(self):
        assert state_dependent_force(1.0, 1.0) == HBAR

    def test_raman_oracle(self):
        got = state_dependent_force(K_RAMAN, TWO_PI * 1e6)
        assert got == pytest.approx(FORCE_ORACLE, rel=1e-12)

    def test_scaling_in_wavevector(self):
        assert state_dependent_force(2 * K_RAMAN, 1e6) == pytest.approx(
            2 * state_dependent_force(K_RAMAN, 1e6), rel=1e-15)

    def test_rejects_non_positive(self):
        with pytest.raises(DomainError):
            state_dependent_force(-1.0, 1.0)


class TestRecoilFrequency:
    def test_quarter_at_four_ions(self):
        one = recoil_frequency(K_RAMAN, 2.84e-25, 1)
        assert recoil_frequency(K_RAMAN, 2.84e-25, 4) == one / 4

    def test_yb171_raman_oracle(self):
        mass = default_species("Yb171").mass
        got = recoil_frequency(K_RAMAN, mass, 1)
        assert got == pytest.approx(RECOIL_ORACLE, rel=1e-9)
        # the paper-level magnitude: about 2pi x 3.7e4 rad/s
        assert got / TWO_PI == pytest.approx(3.7e4, rel=2e-2)

    def test_constants_cancel(self):
        assert recoil_frequency(1.0, HBAR / 2.0, 1) == 1.0

    def test_exact_inverse_n(self):
        mass = default_species("Yb171").mass
        base = recoil_frequency(K_RAMAN, mass, 1)
        for n in range(1, 101):
            assert recoil_frequency(K_RAMAN, mass, n) == base / n

    def test_rejects_bad_count(self):
        with pytest.raises(DomainError):
            recoil_frequency(1.0, 1.0, 0)


class TestGateRate:
    def test_equal_frequencies_return_rabi(self):
        assert gate_rate(1234.5, 7.7, 7.7) == 1234.5

    def test_quadrupling_ions_halves_rate(self):
        mass = default_species("Yb171").mass
        w = TWO_PI * 5e6
        r1 = gate_rate(TWO_PI * 1e6, recoil_frequency(K_RAMAN, mass, 5), w)
        r4 = gate_rate(TWO_PI * 1e6, recoil_frequency(K_RAMAN, mass, 20), w)
        assert r4 == pytest.approx(r1 / 2, rel=1e-12)

    def test_yb171_defaults_in_operating_band(self):
        mass = default_species("Yb171").mass
        recoil = recoil_frequency(K_RAMAN, mass, 1)
        rg_hz = gate_rate(TWO_PI * 1e6, recoil, TWO_PI * 5e6) / TWO_PI
        assert 10e3 < rg_hz < 100e3

    def test_sqrt_n_invariant(self):
        mass = default_species("Yb171").mass
        w = TWO_PI * 5e6
        ref = None
        for n in range(1, 101):
            recoil = recoil_frequency(K_RAMAN, mass, n)
            value = gate_rate(TWO_PI * 1e6, recoil, w) * math.sqrt(n)
            if ref is None:
                ref = value
            assert value == pytest.approx(ref, rel=1e-12)

    def test_slow_gate_time_is_one_period(self):
        assert slow_gate_time(TWO_PI) == 1.0


class TestLinkSuccessProbability:
    def test_paper_ranges_give_2e4(self):
        # (0.1 * 0.2)^2 / 2, checked by independent arithmetic
        assert link_success_probability(0.1, 0.2) == pytest.approx(2e-4, rel=1e-12)

    def test_beamsplitter_ceiling(self):
        assert link_success_probability(1.0, 1.0) == 0.5

    def test_monotone_in_both(self):
        grid = [0.05, 0.1, 0.3, 0.7, 1.0]
        for eta in grid:
            values = [link_success_probability(f, eta) for f in grid]
            assert values == sorted(values)
        for f in grid:
            values = [link_success_probability(f, eta) for eta in grid]
            assert values == sorted(values)

    def test_never_exceeds_half(self):
        for f in (0.01, 0.2, 0.5, 0.99, 1.0):
            for eta in (0.01, 0.2, 0.5, 0.99, 1.0):
                assert link_success_probability(f, eta) <= 0.5

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            link_success_probability(0.0, 0.5)
        with pytest.raises(DomainError):
            link_success_probability(0.5, 1.1)


class TestMeanConnectionRate:
    def test_paper_100_hz(self):
        # R = 5e5 Hz back-solved from rate = R*(F*eta_D)^2/2 = 100 Hz at
        # F = 0.1, eta_D = 0.2 (p = 2e-4)
        assert mean_connection_rate(5e5, 0.1, 0.2) == pytest.approx(100.0, rel=1e-12)

    def test_rejects_zero_rate(self):
        with pytest.raises(DomainError):
            mean_connection_rate(0.0, 0.1, 0.2)

    def test_linear_in_attempt_rate(self):
        assert mean_connection_rate(2e5, 0.1, 0.2) == pytest.approx(
            2 * mean_connection_rate(1e5, 0.1, 0.2), rel=1e-15)


class TestRateReport:
    def test_single_ion_elu_composes_scalars(self, built_spec):
        elus = (dataclasses.replace(built_spec.elus[0], n_ions=1,
                                    comm_ion_indices=(), fast_gate_distance=1),)
        spec = dataclasses.replace(built_spec, elus=elus)
        report = rate_report(spec, spec.elus[0].id)
        k = spec.drive.effective_wavevector
        recoil = recoil_frequency(k, spec.species.mass, 1)
        assert report.recoil_frequency == recoil
        assert report.gate_rate == gate_rate(
            spec.drive.rabi_frequency, recoil, spec.elus[0].trap_frequency) / TWO_PI
        assert report.state_dependent_force == state_dependent_force(
            k, spec.drive.rabi_frequency)

    def test_20_vs_5_ion_ratio(self, built_spec):
        elus = (
            dataclasses.replace(built_spec.elus[0], id="big", n_ions=20),
            dataclasses.replace(built_spec.elus[1], id="small", n_ions=5,
                                comm_ion_indices=(0, 4), fast_gate_distance=3),
        )
        spec = dataclasses.replace(built_spec, elus=elus)
        big = rate_report(spec, "big").gate_rate
        small = rate_report(spec, "small").gate_rate
        assert big / small == pytest.approx(0.5, rel=1e-12)

    def test_golden_report(self, example_spec):
        report = rate_report(example_spec, "A")
        golden = json.loads((GOLDEN_DIR / "rate_report_example.json").read_text())
        assert report.recoil_frequency == golden["recoil_frequency"]
        assert report.gate_rate == golden["gate_rate"]
        assert report.state_dependent_force == golden["state_dependent_force"]
        assert report.link_success_probability == golden["link_success_probability"]
        assert report.mean_connection_rate == golden["mean_connection_rate"]

    def test_unknown_elu(self, example_spec):
        with pytest.raises(DomainError):
            rate_report(example_spec, "nope")

    def test_representation_invariance(self, built_spec):
        omega = built_spec.drive.rabi_frequency
        e0 = 1e4
        mu = omega * HBAR / e0
        via_components = dataclasses.replace(
            built_spec,
            drive=DriveField(
                effective_wavevector=built_spec.drive.effective_wavevector,
                rabi_frequency=mu * e0 / HBAR, dipole_coupling=mu,
                field_amplitude=e0))
        direct = rate_report(built_spec, "A")
        indirect = rate_report(via_components, "A")
        assert indirect.gate_rate == pytest.approx(direct.gate_rate, rel=1e-12)
        assert indirect.state_dependent_force == pytest.approx(
            direct.state_dependent_force, rel=1e-12)

    def test_lamb_dicke_warning(self, built_spec):
        elus = (dataclasses.replace(built_spec.elus[0],
                                    trap_frequency=1e-3),) + built_spec.elus[1:]
        spec = dataclasses.replace(built_spec, elus=elus)
        assert lamb_dicke_parameter(
            spec.drive.effective_wavevector, spec.species.mass, 20, 1e-3) > 0.3
        with pytest.warns(UserWarning, match="Lamb-Dicke"):
            rate_report(spec, "A")
