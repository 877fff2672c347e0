"""Experiment configuration: schema-validated JSON with shipped defaults.

A config document has five top-level sections: seed, chip, run, sweeps and
notes.  User files are deep-merged over the shipped defaults (dicts merge
key by key, lists and scalars replace), checked against the packaged JSON
schema; a preset's posture and a seed override are then set in that same
document, which is turned once into a ChipConfig, RunSettings and Seed.
The document is the run's configuration, and config_hash names it.  The
package checks the schema itself: it implements the subset of JSON Schema
keywords that the packaged schema uses and refuses a schema carrying any
other.  A violation names the JSON pointer of the first offending field in
document order.
"""
import copy
import functools
import hashlib
import json
import math
import operator
from dataclasses import dataclass
from importlib import resources

from .device import BolometerParams
from .frontend import FilterParams
from .units import Seed

__all__ = ["PRESETS", "ChipConfig", "ConfigError", "ExperimentConfig", "RunSettings",
           "config_hash", "load_config", "merge_config", "validate_config"]


class ConfigError(ValueError):
    """Configuration rejected: bad JSON, schema violation or bad value."""


def _load_packaged(name: str) -> dict:
    with resources.files("bolomux.data").joinpath(name).open("r", encoding="utf-8") as fh:
        return json.load(fh)


def _default_config_dict() -> dict:
    """A fresh copy of the shipped desk-scale default document."""
    return _load_packaged("default_config.json")


def _pointer(path) -> str:
    return "/" + "/".join(str(p) for p in path) if path else "/"


# Counts, seeds and indices must be JSON integers (51.0 is not one, unlike
# in JSON Schema), since the program uses them as Python ints; a bool is
# neither an integer nor a number
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
}
# keyword, test that breaks it, wording; NaN breaks none of them
_BOUNDS = (("minimum", operator.lt, "less than the minimum of"),
           ("maximum", operator.gt, "greater than the maximum of"),
           ("exclusiveMinimum", operator.le, "less than or equal to the minimum of"),
           ("exclusiveMaximum", operator.ge, "greater than or equal to the maximum of"))
_KEYWORDS = {"$schema", "title", "type", "required", "properties", "additionalProperties",
             "items", "prefixItems", "minItems", "maxItems", *(key for key, _, _ in _BOUNDS)}


def _check_keywords(schema, path=()) -> None:
    """Refuse a schema using a keyword or type the checker does not implement."""
    if not isinstance(schema, dict):
        raise ConfigError(f"config schema at {_pointer(path)} is not an object")
    unknown, kind = sorted(set(schema) - _KEYWORDS), schema.get("type", "object")
    if unknown or not (isinstance(kind, str) and kind in _TYPES):
        what = f"keyword {unknown[0]!r}" if unknown else f"type {kind!r}"
        raise ConfigError(f"config schema {what} at {_pointer(path)} is not supported")
    subs = [(("properties", key), sub) for key, sub in schema.get("properties", {}).items()]
    subs += [(("prefixItems", i), sub) for i, sub in enumerate(schema.get("prefixItems", ()))]
    subs += [((key,), schema[key]) for key in ("items", "additionalProperties")
             if key in schema and schema[key] is not False]
    for where, sub in subs:
        _check_keywords(sub, path + where)


def _violations(value, schema: dict, path=()):
    """Yield (path, message) for every rule `value` breaks, in document order."""
    kind = schema.get("type")
    if kind is not None and not _TYPES[kind](value):
        yield path, f"{value!r} is not of type {kind!r}"
    elif _TYPES["number"](value):
        for key, breaks, wording in _BOUNDS:
            if key in schema and breaks(value, schema[key]):
                yield path, f"{value!r} is {wording} {schema[key]!r}"
    elif isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            short = "should be non-empty" if schema["minItems"] == 1 else "is too short"
            yield path, f"{value!r} {short}"
        if "maxItems" in schema and len(value) > schema["maxItems"]:
            yield path, f"{value!r} is too long"
        prefix = schema.get("prefixItems", [])
        for i, item in enumerate(value):
            sub = prefix[i] if i < len(prefix) else schema.get("items")
            if sub is not None:
                yield from _violations(item, sub, path + (i,))
    elif isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                yield path, f"{key!r} is a required property"
        props, extra = schema.get("properties", {}), schema.get("additionalProperties", {})
        unexpected = [key for key in value if key not in props]
        if extra is False and unexpected:
            verb = "was" if len(unexpected) == 1 else "were"
            names = ", ".join(map(repr, unexpected))
            yield path, f"Additional properties are not allowed ({names} {verb} unexpected)"
        for key, item in value.items():
            sub = props.get(key, extra)
            if sub is not False:
                yield from _violations(item, sub, path + (key,))


def _raise_first_violation(doc: dict, schema: dict) -> None:
    found = next(_violations(doc, schema), None)
    if found is not None:
        raise ConfigError(f"config error at {_pointer(found[0])}: {found[1]}")


@functools.cache
def _packaged_schema() -> dict:
    """The packaged schema, read and keyword-checked once per process; read only."""
    schema = _load_packaged("config_schema.json")
    _check_keywords(schema)
    return schema


def validate_config(doc: dict) -> None:
    """Schema-check a complete (merged) document; ConfigError on violation."""
    _raise_first_violation(doc, _packaged_schema())


def _deep_merge(base: dict, override: dict) -> dict:
    """Dicts merge recursively; lists and scalars in override replace base.

    Neither input changes: the result copies what it takes from override and
    shares the rest with base.
    """
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def merge_config(user_doc: dict) -> dict:
    """user_doc merged over a fresh copy of the defaults and schema-checked;
    the caller owns the result."""
    merged = _deep_merge(_default_config_dict(), user_doc)
    validate_config(merged)
    return merged


PRESETS = ("desk", "paper", "fig3")


def _apply_preset(doc: dict, name: str) -> None:
    """Set a named measurement posture in the document, in place.

    desk: the shipped defaults (1 GS/s, 100 averages, noise scaled down 10x
    so the averaged noise per raw sample matches the paper posture's).
    "paper": the full-scale posture, 6 GS/s and 10^4 averages at full
    noise; the same noise per sample over 6x the bandwidth leaves its
    in-band floor sqrt(6) lower, so it reads about sqrt(6) higher SNR.
    "fig3": long-pulse single-trigger posture, 1 ms pulses and 2^14 averages.
    """
    if name == "paper":
        doc["chip"]["sample_rate_hz"] = 6e9
        doc["chip"]["noise_sigma_v"] *= 10.0
        doc["run"]["n_avg"] = 10_000
    elif name == "fig3":
        doc["run"].update(window_s=2e-3, pulse_start_s=0.5e-3, pulse_duration_s=1e-3,
                          n_avg=2 ** 14, baseline_window_s=[0.1e-3, 0.4e-3],
                          signal_window_s=[1.4e-3, 1.5e-3])
    elif name != "desk":
        raise ConfigError(f"unknown preset {name!r}; expected desk, paper or fig3")


@dataclass(frozen=True)
class ChipConfig:
    """Static description of one readout chip.

    Bolometers are ordered by increasing probe resonance; trigger-pattern
    bits use the same order.  channel_map[i] is the index of the heater
    filter feeding bolometer i (a bijection).  noise_sigma_v is the
    digitizer-referred white noise per raw sample.  No field has a default:
    load_config builds the shipped chip.
    """

    bolometers: tuple[BolometerParams, ...]
    filters: tuple[FilterParams, ...]
    channel_map: tuple[int, ...]
    noise_sigma_v: float
    sample_rate_hz: float
    line_attenuation_db: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "bolometers", tuple(self.bolometers))
        object.__setattr__(self, "filters", tuple(self.filters))
        object.__setattr__(self, "channel_map", tuple(int(m) for m in self.channel_map))
        n = len(self.bolometers)
        if n == 0:
            raise ValueError("chip needs at least one bolometer")
        if len(self.filters) != n or len(self.channel_map) != n:
            raise ValueError(
                f"bolometers ({n}), filters ({len(self.filters)}) and channel_map "
                f"({len(self.channel_map)}) must have equal length")
        if sorted(self.channel_map) != list(range(n)):
            raise ValueError(f"channel_map {self.channel_map} is not a bijection")
        probes = [b.f_r0_hz for b in self.bolometers]
        if probes != sorted(probes):
            raise ValueError("bolometers must be ordered by increasing probe resonance")
        if not math.isfinite(self.noise_sigma_v) or self.noise_sigma_v < 0.0:
            raise ValueError(f"noise sigma must be finite and >= 0 V, got {self.noise_sigma_v}")
        if not math.isfinite(self.sample_rate_hz) or self.sample_rate_hz <= 0.0:
            raise ValueError(f"sample rate must be finite and > 0, got {self.sample_rate_hz}")
        if not math.isfinite(self.line_attenuation_db) or self.line_attenuation_db < 0.0:
            raise ValueError(
                f"line attenuation must be finite and >= 0 dB, got {self.line_attenuation_db}")

    @property
    def n_channels(self) -> int:
        return len(self.bolometers)

    def matched_filter(self, channel: int) -> FilterParams:
        return self.filters[self.channel_map[channel]]


@dataclass(frozen=True)
class RunSettings:
    """Timing, drive and reduction parameters of one time-domain run.

    Every heater tone of a run is on for the one window pulse_start_s,
    pulse_duration_s.
    probe_detuning_fraction places the probe tone this many total linewidths
    above the power-shifted resonance.  0.0 probes the dip minimum, where
    the magnitude response to small leaked-heater shifts is quadratically
    suppressed (best channel isolation); 0.5 probes the flank, where the
    response is linear in the shift (used for compression and
    time-constant runs).  No field has a default: load_config builds the
    shipped settings.
    """

    window_s: float
    thermal_dt_s: float
    pulse_start_s: float
    pulse_duration_s: float
    demod_bandwidth_hz: float
    output_rate_hz: float
    n_avg: int
    probe_power_dbm: float
    heater_power_dbm: float
    probe_detuning_fraction: float
    baseline_window_s: tuple[float, float]
    signal_window_s: tuple[float, float]
    allow_nonlinear: bool

    def __post_init__(self) -> None:
        for name in ("window_s", "thermal_dt_s", "pulse_duration_s",
                     "demod_bandwidth_hz", "output_rate_hz"):
            v = getattr(self, name)
            if not math.isfinite(v) or v <= 0.0:
                raise ValueError(f"{name} must be finite and > 0, got {v}")
        if not math.isfinite(self.pulse_start_s) or self.pulse_start_s < 0.0:
            raise ValueError(f"pulse_start_s must be finite and >= 0, got {self.pulse_start_s}")
        if not isinstance(self.n_avg, int) or self.n_avg < 1:
            raise ValueError(f"n_avg must be a positive integer, got {self.n_avg!r}")
        object.__setattr__(self, "baseline_window_s", tuple(self.baseline_window_s))
        object.__setattr__(self, "signal_window_s", tuple(self.signal_window_s))

    def validate_against(self, chip: ChipConfig) -> tuple[int, int, int, int]:
        """Timing commensurability and window checks; raises ValueError.

        Returns the record's geometry at the chip's sample rate: (samples,
        thermal steps, samples per step, decimation to the output rate).
        """
        fs = chip.sample_rate_hz
        n = self.window_s * fs
        if abs(n - round(n)) > 1e-6 or round(n) < 1:
            raise ValueError(f"window {self.window_s} s is not an integer number of samples "
                             f"at {fs} S/s")
        block = self.thermal_dt_s * fs
        if abs(block - round(block)) > 1e-6 or round(block) < 1:
            raise ValueError(f"thermal dt {self.thermal_dt_s} s is not an integer number of "
                             f"samples at {fs} S/s")
        steps = self.window_s / self.thermal_dt_s
        if abs(steps - round(steps)) > 1e-6:
            raise ValueError("window must be an integer number of thermal steps")
        dec = fs / self.output_rate_hz
        if abs(dec - round(dec)) > 1e-6 or round(dec) < 1:
            raise ValueError(f"output rate {self.output_rate_hz} must divide the sample rate")
        if round(n) % round(dec) != 0:
            raise ValueError("decimation must divide the trace length")
        if self.pulse_start_s + self.pulse_duration_s > self.window_s:
            raise ValueError("heater pulse must end inside the window")
        for w in (self.baseline_window_s, self.signal_window_s):
            if not 0.0 <= w[0] < w[1] <= self.window_s:
                raise ValueError(f"window {w} must lie inside the record")
        if self.baseline_window_s[1] > self.signal_window_s[0]:
            raise ValueError("baseline window must end before the signal window")
        return round(n), round(steps), round(n) // round(steps), round(dec)


def _build_chip(doc: dict) -> ChipConfig:
    """The chip section as live objects; optional keys a bolometers[] or filters[]
    entry omits take the model defaults."""
    chip = doc["chip"]
    try:
        return ChipConfig(**{
            **chip,
            "bolometers": tuple(BolometerParams(**b) for b in chip["bolometers"]),
            "filters": tuple(FilterParams(**f) for f in chip["filters"]),
        })
    except ValueError as exc:
        raise ConfigError(f"config error at /chip: {exc}") from exc


def _build_settings(doc: dict, chip: ChipConfig) -> RunSettings:
    """The run section as live settings, checked against the chip's sample rate."""
    try:
        settings = RunSettings(**doc["run"])
        settings.validate_against(chip)
    except ValueError as exc:
        raise ConfigError(f"config error at /run: {exc}") from exc
    return settings


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated configuration plus the effective document it was built from."""

    chip: ChipConfig
    settings: RunSettings
    seed: Seed
    doc: dict

    @property
    def sweeps(self) -> dict:
        return self.doc["sweeps"]


def load_config(path, preset: str = "desk", seed: int | None = None) -> ExperimentConfig:
    """The JSON file at path (None: no user file) merged over the shipped
    defaults, with the named preset's posture and the seed override set in
    that document, as live objects.  The document is the run's whole
    configuration: what config_hash of `.doc` names is what ran."""
    user_doc = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                user_doc = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(user_doc, dict):
            raise ConfigError(f"config {path} must contain a JSON object")
    doc = merge_config(user_doc)
    _apply_preset(doc, preset)
    if seed is not None:
        doc["seed"] = seed
    chip = _build_chip(doc)
    return ExperimentConfig(chip=chip, settings=_build_settings(doc, chip),
                            seed=Seed(doc["seed"]), doc=doc)


def config_hash(doc: dict) -> str:
    """sha256 of the document's canonical JSON (sorted keys, no whitespace);
    stable under key order."""
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
