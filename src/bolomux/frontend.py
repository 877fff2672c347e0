"""Heater filters, probe/heater tone bookkeeping and heater scheduling.

The heater line is shared: one wideband input feeds every channel through
that channel's band-pass filter, so a tone aimed at one filter leaks into
the others at their stopband floor.  Filters are Lorentzian passbands with a
hard stopband floor; the heater path is modelled as a power envelope (the
GHz carrier itself is never sampled), and powers from distinct heater tones
add incoherently.  A trigger pattern picks which heater tones fire; every
tone of a run shares the run's one heater window, so a tone carries only
its frequency and power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .units import db_to_power_ratio

__all__ = [
    "FilterParams",
    "ToneSpec",
    "TriggerPattern",
    "filter_transmission",
    "schedule_heaters",
]


@dataclass(frozen=True)
class FilterParams:
    """One heater band-pass filter.

    Passband is a Lorentzian in power: IL / (1 + (2 (f - f_c)/fwhm)^2),
    clipped from below by the stopband floor.  stopband_floors optionally
    lists (frequency, floor_db) pairs; a filter that lists them uses the
    nearest listed floor at every frequency, however far, and never reads
    stopband_floor_db, which serves only a filter without a list.
    """

    f_center_hz: float
    fwhm_hz: float
    insertion_loss_db: float = 0.0
    stopband_floor_db: float = -18.0
    stopband_floors: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.f_center_hz) or self.f_center_hz <= 0.0:
            raise ValueError(f"filter center must be finite and > 0 Hz, got {self.f_center_hz}")
        if not math.isfinite(self.fwhm_hz) or self.fwhm_hz <= 0.0:
            raise ValueError(f"filter fwhm must be finite and > 0 Hz, got {self.fwhm_hz}")
        if not math.isfinite(self.insertion_loss_db) or self.insertion_loss_db > 0.0:
            raise ValueError(
                f"insertion loss must be finite and <= 0 dB, got {self.insertion_loss_db}")
        if not math.isfinite(self.stopband_floor_db) or self.stopband_floor_db >= 0.0:
            raise ValueError(
                f"stopband floor must be finite and < 0 dB, got {self.stopband_floor_db}")
        if self.stopband_floors is not None:
            floors = tuple((float(f), float(db)) for f, db in self.stopband_floors)
            for f, db in floors:
                if not math.isfinite(f) or f <= 0.0:
                    raise ValueError(f"stopband floor frequency must be > 0 Hz, got {f}")
                if not math.isfinite(db) or db >= 0.0:
                    raise ValueError(f"stopband floor must be < 0 dB, got {db}")
            object.__setattr__(self, "stopband_floors", floors)

    def floor_db_at(self, f_hz):
        """Stopband floor in dB in effect at f_hz; floats or arrays alike."""
        if not self.stopband_floors:
            return np.full(np.shape(f_hz), self.stopband_floor_db)
        listed = np.array(self.stopband_floors)
        nearest = np.abs(np.subtract.outer(f_hz, listed[:, 0])).argmin(axis=-1)
        return listed[nearest, 1]


def filter_transmission(filt: FilterParams, f_hz):
    """Power transmission |H(f)|^2 of the filter, linear scale in [0, 1].

    max(Lorentzian passband, stopband floor); both include the insertion
    loss at the passband peak.  Floats or arrays alike; every frequency
    must be finite and > 0.
    """
    f_hz = np.asarray(f_hz, dtype=float)
    if not (np.isfinite(f_hz) & (f_hz > 0.0)).all():
        raise ValueError(f"frequency must be finite and > 0 Hz, got {f_hz}")
    il = db_to_power_ratio(filt.insertion_loss_db)
    detuning = 2.0 * (f_hz - filt.f_center_hz) / filt.fwhm_hz
    passband = il / (1.0 + detuning * detuning)
    return np.maximum(passband, 10.0 ** (filt.floor_db_at(f_hz) / 10.0))


@dataclass(frozen=True)
class ToneSpec:
    """One CW tone: frequency and source power."""

    f_hz: float
    p_dbm: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.f_hz) or self.f_hz <= 0.0:
            raise ValueError(f"tone frequency must be finite and > 0 Hz, got {self.f_hz}")
        if not math.isfinite(self.p_dbm):
            raise ValueError(f"tone power must be finite, got {self.p_dbm}")


@dataclass(frozen=True)
class TriggerPattern:
    """On/off heater bits, ordered by increasing bolometer probe frequency.

    The string label reads left to right in that same order, so for three
    channels "001" fires only the highest-probe-frequency bolometer's
    heater.
    """

    bits: tuple[bool, ...]

    def __post_init__(self) -> None:
        if not 1 <= len(self.bits) <= 16:
            raise ValueError(f"pattern length must be in [1, 16], got {len(self.bits)}")
        object.__setattr__(self, "bits", tuple(bool(b) for b in self.bits))

    @classmethod
    def from_label(cls, label: str) -> "TriggerPattern":
        if not label or any(c not in "01" for c in label):
            raise ValueError(f"pattern label must be a non-empty string of 0/1, got {label!r}")
        return cls(tuple(c == "1" for c in label))

    @property
    def label(self) -> str:
        return "".join("1" if b else "0" for b in self.bits)

    @property
    def value(self) -> int:
        return int(self.label, 2) if self.bits else 0

    def __len__(self) -> int:
        return len(self.bits)

    @classmethod
    def all_patterns(cls, n_channels: int) -> list["TriggerPattern"]:
        """All 2**n patterns in ascending label order."""
        if not 1 <= n_channels <= 16:
            raise ValueError(f"channel count must be in [1, 16], got {n_channels}")
        return [cls.from_label(format(v, f"0{n_channels}b")) for v in range(2 ** n_channels)]


def schedule_heaters(pattern: TriggerPattern, filters, channel_map,
                     p_dbm: float) -> list[ToneSpec]:
    """Heater tones implementing a trigger pattern.

    Channel i's bit, when set, produces one tone at p_dbm at the center of
    the filter assigned to channel i by channel_map.  Every tone is gated
    on for the run's one heater window (RunSettings.pulse_start_s and
    pulse_duration_s).
    """
    filters = list(filters)
    channel_map = list(channel_map)
    if len(pattern) != len(channel_map):
        raise ValueError(
            f"pattern length {len(pattern)} does not match {len(channel_map)} channels")
    if sorted(channel_map) != list(range(len(filters))):
        raise ValueError(f"channel_map {channel_map} is not a bijection onto the filters")
    return [ToneSpec(f_hz=filters[channel_map[ch]].f_center_hz, p_dbm=p_dbm)
            for ch, bit in enumerate(pattern.bits) if bit]
