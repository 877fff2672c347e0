"""Experiment configuration: schema-validated JSON with shipped defaults.

A config document has four top-level sections: seed, chip, run and notes.
User files are deep-merged over the shipped defaults (dicts merge key by
key, lists and scalars replace), validated against the packaged JSON
schema, and only then turned into live objects.  Validation errors carry
the JSON pointer of the offending field.
"""
import copy
import hashlib
import json
from dataclasses import dataclass
from importlib import resources

import jsonschema

from .device import BolometerParams
from .experiments import ChipConfig, RunSettings
from .frontend import FilterParams
from .units import Seed


class ConfigError(ValueError):
    """Configuration rejected: bad JSON, schema violation or bad value."""


def _load_packaged(name: str) -> dict:
    with resources.files("bolomux.data").joinpath(name).open("r", encoding="utf-8") as fh:
        return json.load(fh)


def default_config_dict() -> dict:
    """Deep copy of the shipped desk-scale default document."""
    return copy.deepcopy(_load_packaged("default_config.json"))


def config_schema() -> dict:
    return copy.deepcopy(_load_packaged("config_schema.json"))


def _pointer(path) -> str:
    return "/" + "/".join(str(p) for p in path) if path else "/"


# JSON Schema counts 51.0 as an integer; counts, seeds and indices here must
# be written as JSON integers, since the program uses them as Python ints
_Validator = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda _, value: isinstance(value, int) and not isinstance(value, bool)))


def validate_config(doc: dict) -> None:
    """Schema-check a complete (merged) document; ConfigError on violation."""
    validator = _Validator(config_schema())
    errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
    if errors:
        err = jsonschema.exceptions.best_match(errors)
        raise ConfigError(f"config error at {_pointer(err.absolute_path)}: {err.message}")


def deep_merge(base: dict, override: dict) -> dict:
    """Dicts merge recursively; lists and scalars in override replace base."""
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def merge_config(user_doc: dict) -> dict:
    merged = deep_merge(default_config_dict(), user_doc)
    validate_config(merged)
    return merged


def load_config_dict(path) -> dict:
    """Read a user JSON file and merge it over the defaults."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            user_doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(user_doc, dict):
        raise ConfigError(f"config {path} must contain a JSON object")
    return merge_config(user_doc)


def build_chip(doc: dict) -> ChipConfig:
    """The chip section as live objects; omitted optional keys take the defaults."""
    chip = doc["chip"]
    try:
        return ChipConfig(**{
            **chip,
            "bolometers": tuple(BolometerParams(**b) for b in chip["bolometers"]),
            "filters": tuple(FilterParams(**f) for f in chip["filters"]),
        })
    except ValueError as exc:
        raise ConfigError(f"config error at /chip: {exc}") from exc


def build_settings(doc: dict) -> RunSettings:
    """The run section as live settings; omitted optional keys take the defaults."""
    try:
        return RunSettings(**doc["run"])
    except ValueError as exc:
        raise ConfigError(f"config error at /run: {exc}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated configuration plus the canonical merged document."""

    chip: ChipConfig
    settings: RunSettings
    seed: Seed
    doc: dict

    @property
    def sweeps(self) -> dict:
        return self.doc["sweeps"]


def load_config(path=None) -> ExperimentConfig:
    """Load path (or the shipped defaults when None) into live objects."""
    if path is None:
        doc = default_config_dict()
        validate_config(doc)
    else:
        doc = load_config_dict(path)
    return ExperimentConfig(
        chip=build_chip(doc),
        settings=build_settings(doc),
        seed=Seed(doc["seed"]),
        doc=doc,
    )


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def config_hash(doc: dict) -> str:
    """sha256 of the canonicalized document; stable under key order."""
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()
