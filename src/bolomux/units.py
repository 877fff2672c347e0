"""Unit conversions and deterministic random stream derivation.

Conventions used throughout the package:

* frequencies in Hz, powers in dBm or W, times in s, temperatures in K,
  voltages in V.  Argument and field names carry the unit as a suffix
  (``f_hz``, ``p_dbm``, ``p_w``, ...); converting between dBm and W is
  always explicit, never implied.
* random streams are derived from a single master seed plus a tuple of
  non-negative integer labels.  The construction is counter based (Philox
  keyed through a SeedSequence spawn key), so a stream depends only on
  (master, labels) and never on the order in which streams are created.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Seed", "dbm_to_watts", "db_to_power_ratio", "derive_stream", "tone_amplitude_volts",
           "watts_to_dbm"]

_DBM_REF_W = 1e-3
_Z0_OHM = 50.0


def dbm_to_watts(p_dbm: float) -> float:
    """Convert a power in dBm to W.  0 dBm = 1 mW."""
    p_dbm = float(p_dbm)
    if not math.isfinite(p_dbm):
        raise ValueError(f"power must be finite, got {p_dbm}")
    return _DBM_REF_W * 10.0 ** (p_dbm / 10.0)


def watts_to_dbm(p_w: float) -> float:
    """Convert a power in W to dBm.  Requires p_w > 0."""
    p_w = float(p_w)
    if not math.isfinite(p_w) or p_w <= 0.0:
        raise ValueError(f"power must be finite and > 0 W, got {p_w}")
    return 10.0 * math.log10(p_w / _DBM_REF_W)


def db_to_power_ratio(x_db: float) -> float:
    """Convert a dB value to a linear power ratio."""
    x_db = float(x_db)
    if not math.isfinite(x_db):
        raise ValueError(f"dB value must be finite, got {x_db}")
    return 10.0 ** (x_db / 10.0)


def tone_amplitude_volts(p_dbm: float) -> float:
    """Peak voltage amplitude of a sinusoid carrying p_dbm into the 50 ohm line.

    P = a**2 / (2 Z0), hence a = sqrt(2 P Z0).  0 dBm gives 0.3162 V.
    """
    return math.sqrt(2.0 * dbm_to_watts(p_dbm) * _Z0_OHM)


_MASTER_MAX = 2**64


@dataclass(frozen=True)
class Seed:
    """The master seed every random stream of a run derives from."""

    master: int

    def __post_init__(self) -> None:
        if not isinstance(self.master, int) or not 0 <= self.master < _MASTER_MAX:
            raise ValueError(f"master seed must be an int in [0, 2**64), got {self.master!r}")


def derive_stream(seed: Seed, *labels: int) -> np.random.Generator:
    """Generator for the stream (seed.master, labels); numpy refuses a label
    that is not a non-negative int."""
    ss = np.random.SeedSequence(seed.master, spawn_key=labels)
    return np.random.Generator(np.random.Philox(ss))
