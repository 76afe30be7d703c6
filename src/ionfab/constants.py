"""Physical constants and the data-driven ion species table.

All internal quantities are SI: angular frequencies in rad/s, times in
seconds, rates (event frequencies) in Hz. The species file stores masses
in u and plain frequencies under ``_hz`` keys, as an architecture
document's species object does; ``arch``'s field declarations convert them
to SI on load, for the table and for a document alike.
"""

from __future__ import annotations

import json
import math
from importlib import resources

from .errors import UnknownSpecies

# Reduced Planck constant, J*s (2019 SI definition, h = 6.62607015e-34 exact).
HBAR = 1.054571817e-34

# Unified atomic mass unit, kg (CODATA 2018).
ATOMIC_MASS_KG = 1.66053906660e-27

TWO_PI = 2.0 * math.pi


def _load_species_table() -> dict[str, dict]:
    text = resources.files("ionfab.data").joinpath("species.json").read_text()
    return json.loads(text)


_SPECIES_TABLE = _load_species_table()


def species_entry(name: str) -> dict:
    """Raw species record (mass in u, frequencies in Hz) for a table entry."""
    try:
        return _SPECIES_TABLE[name]
    except KeyError:
        known = ", ".join(sorted(_SPECIES_TABLE))
        raise UnknownSpecies(f"unknown species {name!r} (known: {known})") from None

