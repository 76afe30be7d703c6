"""Closed-form physical rate formulas and their per-ELU aggregation.

Conventions:

* angular quantities in and out are rad/s unless a name says otherwise;
  ``RateReport.gate_rate`` is the one user-facing exception and is reported
  in Hz (R_gate / 2*pi), matching the usual 10-100 kHz operating band.
* the characteristic two-qubit gate duration used downstream is one period
  of the gate rate, tau_slow = 2*pi / R_gate (see :func:`slow_gate_time`).
  Higher order field gradients are neglected; a warning is emitted when the
  Lamb-Dicke parameter k*sqrt(hbar/(2*N*m*omega)) exceeds 0.3.

All functions are pure and re-entrant.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .arch import ArchitectureSpec
from .constants import HBAR, TWO_PI
from .errors import DomainError

# Lamb-Dicke parameter above which the plane-wave force model is suspect.
LAMB_DICKE_WARN_THRESHOLD = 0.3


@dataclass(frozen=True)
class RateReport:
    recoil_frequency: float         # rad/s
    gate_rate: float                # Hz (R_gate / 2*pi)
    state_dependent_force: float    # N
    link_success_probability: float
    mean_connection_rate: float     # 1/s


def _require_positive(**values: float) -> None:
    for name, val in values.items():
        if not (val > 0):  # also catches NaN
            raise DomainError(f"{name} must be > 0, got {val!r}")


def rabi_frequency(mu: float, e0: float) -> float:
    """Field-qubit coupling rate mu*E0/hbar in rad/s."""
    _require_positive(mu=mu, e0=e0)
    return mu * e0 / HBAR


def state_dependent_force(k: float, omega_rabi: float) -> float:
    """Magnitude of the qubit-state-dependent plane-wave force, hbar*k*Omega."""
    _require_positive(k=k, omega_rabi=omega_rabi)
    return HBAR * k * omega_rabi


def recoil_frequency(k: float, mass: float, n_ions: int = 1) -> float:
    """Recoil frequency hbar*k^2/(2*N*m) of an N-ion crystal, rad/s.

    Computed as (hbar*k^2/(2*m)) / N so the 1/N proportionality is exact in
    floating point.
    """
    _require_positive(k=k, mass=mass, n_ions=n_ions)
    return (HBAR * k * k / (2.0 * mass)) / n_ions


def gate_rate(omega_rabi: float, recoil: float, trap_freq: float) -> float:
    """Characteristic motional-gate speed Omega*sqrt(omega_R/omega), rad/s."""
    _require_positive(omega_rabi=omega_rabi, recoil=recoil, trap_freq=trap_freq)
    return omega_rabi * math.sqrt(recoil / trap_freq)


def slow_gate_time(gate_rate_rad_s: float) -> float:
    """Two-qubit gate duration convention: one period of the gate rate."""
    _require_positive(gate_rate_rad_s=gate_rate_rad_s)
    return TWO_PI / gate_rate_rad_s


def link_success_probability(f: float, eta_d: float) -> float:
    """Heralding probability (F*eta_D)^2/2 per attempt; at most 1/2."""
    if not (0 < f <= 1):
        raise DomainError(f"collection fraction out of (0,1]: {f!r}")
    if not (0 < eta_d <= 1):
        raise DomainError(f"detector efficiency out of (0,1]: {eta_d!r}")
    return (f * eta_d) ** 2 / 2.0


def mean_connection_rate(attempt_rate: float, f: float, eta_d: float) -> float:
    """Mean heralded-pair rate R*(F*eta_D)^2/2 in 1/s."""
    _require_positive(attempt_rate=attempt_rate)
    return attempt_rate * link_success_probability(f, eta_d)


def lamb_dicke_parameter(k: float, mass: float, n_ions: int, trap_freq: float) -> float:
    _require_positive(k=k, mass=mass, n_ions=n_ions, trap_freq=trap_freq)
    return k * math.sqrt(HBAR / (2.0 * n_ions * mass * trap_freq))


def elu_gate_rate(spec: ArchitectureSpec, elu_id: str) -> float:
    """Gate rate in rad/s for one ELU, with N = that ELU's ion count."""
    elu = spec.elu(elu_id)
    recoil = recoil_frequency(spec.drive.effective_wavevector,
                              spec.species.mass, elu.n_ions)
    return gate_rate(spec.drive.rabi_frequency, recoil, elu.trap_frequency)


def rate_report(spec: ArchitectureSpec, elu_id: str) -> RateReport:
    """All rate formulas evaluated for one ELU of a validated spec."""
    elu = spec.elu(elu_id)
    k = spec.drive.effective_wavevector
    recoil = recoil_frequency(k, spec.species.mass, elu.n_ions)
    eta = lamb_dicke_parameter(k, spec.species.mass, elu.n_ions, elu.trap_frequency)
    if eta > LAMB_DICKE_WARN_THRESHOLD:
        warnings.warn(
            f"Lamb-Dicke parameter {eta:.3f} > {LAMB_DICKE_WARN_THRESHOLD} for "
            f"ELU {elu_id!r}; plane-wave force model may not apply",
            stacklevel=2,
        )
    return RateReport(
        recoil_frequency=recoil,
        gate_rate=elu_gate_rate(spec, elu_id) / TWO_PI,
        state_dependent_force=state_dependent_force(k, spec.drive.rabi_frequency),
        link_success_probability=link_success_probability(
            spec.collection_fraction, spec.detector_efficiency),
        mean_connection_rate=mean_connection_rate(
            spec.attempt_rate, spec.collection_fraction, spec.detector_efficiency),
    )
