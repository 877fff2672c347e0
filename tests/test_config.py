"""Config loading: shipped defaults, schema validation with JSON pointers,
deep merge semantics, and canonical hashing."""

import copy
import hashlib
import json
import os
import pathlib
import subprocess
import sys
from dataclasses import fields

import pytest

from bolomux import config
from bolomux.config import (
    PRESETS,
    ChipConfig,
    ConfigError,
    ExperimentConfig,
    RunSettings,
    _build_chip,
    _build_settings,
    _check_keywords,
    _deep_merge,
    _default_config_dict,
    _load_packaged,
    _pointer,
    _raise_first_violation,
    config_hash,
    load_config,
    merge_config,
    validate_config,
)
from bolomux.device import BolometerParams
from bolomux.experiments import run_trigger
from bolomux.frontend import FilterParams, TriggerPattern
from bolomux.units import Seed


# ----------------------------------------------------------------- defaults


def test_shipped_defaults_validate():
    doc = _default_config_dict()
    validate_config(doc)  # must not raise
    assert doc["seed"] == 15


def test_shipped_chip_values(default_config):
    chip = default_config.chip
    assert [b.f_r0_hz for b in chip.bolometers] == [156.7e6, 179.3e6, 193.7e6]
    assert chip.channel_map == (1, 0, 2)
    assert [f.f_center_hz for f in chip.filters] == [4.4e9, 5.8e9, 7.6e9]
    assert all(f.fwhm_hz == 100e6 for f in chip.filters)
    assert chip.sample_rate_hz == 1e9
    assert chip.noise_sigma_v > 0.0
    # total linewidths match the published dips
    totals = [b.kappa_total_hz for b in chip.bolometers]
    assert totals[0] == pytest.approx(0.31e6, rel=1e-6)
    assert totals[1] == pytest.approx(0.14e6, rel=1e-6)
    assert totals[2] == pytest.approx(0.61e6, rel=1e-6)


def test_shipped_settings(default_config):
    s = default_config.settings
    assert s.window_s == 100e-6
    assert s.thermal_dt_s == 100e-9
    assert s.pulse_start_s == 40e-6
    assert s.pulse_duration_s == 10e-6
    assert s.n_avg == 100
    assert s.probe_detuning_fraction == 0.0
    s.validate_against(default_config.chip)


def test_load_config_without_path_uses_defaults(default_config):
    assert isinstance(default_config, ExperimentConfig)
    assert default_config.seed == Seed(15)
    assert default_config.doc == merge_config({})
    assert set(default_config.sweeps) >= {"characterize", "filterscan",
                                          "powersweep", "capacity"}


# ----------------------------------------------------------------- schema


def test_schema_rejects_with_pointer():
    doc = _default_config_dict()
    doc["chip"]["filters"][0]["fwhm_hz"] = -1.0
    with pytest.raises(ConfigError, match="/chip/filters/0/fwhm_hz"):
        validate_config(doc)


def test_schema_rejects_unknown_key():
    doc = _default_config_dict()
    doc["chip"]["bolometers"][1]["quality_factor"] = 1e5
    with pytest.raises(ConfigError, match="/chip/bolometers/1"):
        validate_config(doc)


def test_schema_rejects_wrong_type():
    doc = _default_config_dict()
    doc["run"]["n_avg"] = "many"
    with pytest.raises(ConfigError, match="/run/n_avg"):
        validate_config(doc)


def test_schema_rejects_bad_seed():
    for bad in (-1, 2 ** 64, 1.5):
        doc = _default_config_dict()
        doc["seed"] = bad
        with pytest.raises(ConfigError, match="seed"):
            validate_config(doc)


def test_schema_rejects_missing_section():
    doc = _default_config_dict()
    del doc["chip"]
    with pytest.raises(ConfigError, match="chip"):
        validate_config(doc)


def test_schema_is_self_contained():
    schema = _load_packaged("config_schema.json")
    assert schema["$schema"].endswith("2020-12/schema")
    assert schema["additionalProperties"] is False


def test_schema_sections_are_the_dataclass_fields():
    # the builders pass each section's keys straight to its dataclass
    props = _load_packaged("config_schema.json")["properties"]
    chip = props["chip"]["properties"]
    for section, cls in ((chip, ChipConfig),
                         (chip["bolometers"]["items"]["properties"], BolometerParams),
                         (chip["filters"]["items"]["properties"], FilterParams),
                         (props["run"]["properties"], RunSettings)):
        assert set(section) == {f.name for f in fields(cls)}, cls.__name__


def test_schema_valid_config_can_still_fail_at_runtime():
    # a 600 MHz resonator passes the schema but cannot be synthesized at
    # 1 GS/s; the refusal happens in the experiment layer, naming Nyquist
    doc = _default_config_dict()
    doc["chip"]["bolometers"][2]["f_r0_hz"] = 600e6
    validate_config(doc)
    chip = _build_chip(doc)
    settings = _build_settings(doc, chip)
    with pytest.raises(ValueError, match="Nyquist"):
        run_trigger(chip, TriggerPattern.from_label("000"), settings, Seed(0))


# ----------------------------------------------------------------- merging


def test_deep_merge_nested_dicts():
    base = {"a": {"x": 1, "y": 2}, "b": 3}
    override = {"a": {"y": 20, "z": 30}}
    merged = _deep_merge(base, override)
    assert merged == {"a": {"x": 1, "y": 20, "z": 30}, "b": 3}
    # inputs are untouched
    assert base == {"a": {"x": 1, "y": 2}, "b": 3}
    assert override == {"a": {"y": 20, "z": 30}}


def test_deep_merge_replaces_lists_and_scalars():
    base = {"l": [1, 2, 3], "s": "old"}
    merged = _deep_merge(base, {"l": [9], "s": "new"})
    assert merged == {"l": [9], "s": "new"}


def test_merge_config_overrides_defaults():
    doc = merge_config({"run": {"n_avg": 7}})
    assert doc["run"]["n_avg"] == 7
    # untouched siblings keep their defaults
    assert doc["run"]["window_s"] == _default_config_dict()["run"]["window_s"]
    settings = _build_settings(doc, _build_chip(doc))
    assert settings.n_avg == 7


def test_merge_config_validates_result():
    with pytest.raises(ConfigError, match="/run/n_avg"):
        merge_config({"run": {"n_avg": 0}})


# ----------------------------------------------------------------- files


def test_load_config_dict_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="missing.json"):
        load_config(tmp_path / "missing.json")


def test_load_config_dict_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_merges_user_file(tmp_path):
    path = tmp_path / "override.json"
    path.write_text(json.dumps({"seed": 99, "run": {"heater_power_dbm": -140.0}}))
    cfg = load_config(path)
    assert cfg.seed == Seed(99)
    assert cfg.settings.heater_power_dbm == -140.0
    assert cfg.settings.window_s == 100e-6  # default survives


def test_load_config_entries_take_dataclass_defaults(tmp_path):
    # user lists replace the shipped ones, so optional entry keys are absent
    chip = _default_config_dict()["chip"]
    bolometers = [{k: v for k, v in b.items() if k != "p_nonlinear_dbm"}
                  for b in chip["bolometers"]]
    filters = [{k: f[k] for k in ("f_center_hz", "fwhm_hz")} for f in chip["filters"]]
    path = tmp_path / "sparse.json"
    path.write_text(json.dumps({"chip": {"bolometers": bolometers, "filters": filters}}))
    cfg = load_config(path)
    assert [b.p_nonlinear_dbm for b in cfg.chip.bolometers] == [-125.0] * 3
    assert [b.f_r0_hz for b in cfg.chip.bolometers] == [156.7e6, 179.3e6, 193.7e6]
    for filt, entry in zip(cfg.chip.filters, filters):
        assert filt == FilterParams(entry["f_center_hz"], entry["fwhm_hz"])
        assert (filt.insertion_loss_db, filt.stopband_floor_db) == (0.0, -18.0)
        assert filt.stopband_floors is None


def test_load_config_rejects_bad_user_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"chip": {"sample_rate_hz": -5.0}}))
    with pytest.raises(ConfigError, match="/chip/sample_rate_hz"):
        load_config(path)
    # NaN passes the schema's type check; the dataclass refuses it
    bolometers = _default_config_dict()["chip"]["bolometers"]
    bolometers[1]["p_nonlinear_dbm"] = float("nan")
    path.write_text(json.dumps({"chip": {"bolometers": bolometers}}))
    with pytest.raises(ConfigError, match="/chip: p_nonlinear_dbm must be finite"):
        load_config(path)


# ----------------------------------------------------------------- hashing


def test_canonical_json_is_sorted_and_compact():
    assert config_hash({"b": 1, "a": [1, 2]}) == hashlib.sha256(b'{"a":[1,2],"b":1}').hexdigest()


def test_config_hash_ignores_key_order():
    doc = _default_config_dict()
    # rebuild with reversed key insertion order
    reordered = {k: doc[k] for k in reversed(list(doc))}
    assert list(reordered) != list(doc)
    assert config_hash(doc) == config_hash(reordered)


def test_config_hash_tracks_content():
    doc = _default_config_dict()
    changed = _default_config_dict()
    changed["run"]["n_avg"] = 101
    assert config_hash(doc) != config_hash(changed)
    assert len(config_hash(doc)) == 64  # sha256 hex


# ----------------------------------------------------------------- checker

_BAD_VALUES = (-1, 0, 1.5, 51.0, 2 ** 64, "x", None, True, False, [], {},
               float("nan"), float("inf"), float("-inf"))


def _nodes(value, path=()):
    """Every (path, value) of a JSON document, the root first."""
    yield path, value
    children = (value.items() if isinstance(value, dict)
                else enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        yield from _nodes(child, path + (key,))


def _edited(doc, path, edit):
    """A deep copy of doc with edit(container, key) applied at path."""
    out = copy.deepcopy(doc)
    node = out
    for key in path[:-1]:
        node = node[key]
    edit(node, path[-1])
    return out


def _mutations(doc):
    """(path, mutated doc): every node set to each bad value, every key
    deleted, one extra key or item in every container."""
    for path, value in _nodes(doc):
        if path:
            for bad in _BAD_VALUES:
                yield path, _edited(doc, path, lambda node, key, bad=bad: node.__setitem__(key, bad))
        if path and isinstance(path[-1], str):
            yield path, _edited(doc, path, lambda node, key: node.pop(key))
        if isinstance(value, dict):
            yield path, _edited(doc, path + ("extra",), lambda node, key: node.__setitem__(key, 1))
        elif isinstance(value, list) and value:
            yield path, _edited(doc, path + (0,), lambda node, key: node.append(node[-1]))


def test_checker_matches_jsonschema_oracle():
    jsonschema = pytest.importorskip("jsonschema")
    # the oracle counts only JSON integers as integers, as the checker does
    base = jsonschema.Draft202012Validator
    oracle = jsonschema.validators.extend(base, type_checker=base.TYPE_CHECKER.redefine(
        "integer", lambda _, value: isinstance(value, int) and not isinstance(value, bool)))(
            _load_packaged("config_schema.json"))
    schema = _load_packaged("config_schema.json")
    # an edit below a top-level section leaves the root's own rules and the
    # other sections as valid as the defaults, so the oracle reads only that
    # section (half the time); the checker always reads the whole doc
    sections = {name: oracle.evolve(schema=sub) for name, sub in schema["properties"].items()}
    _check_keywords(schema)
    seen, rejected, mismatches = 0, 0, []
    for path, doc in _mutations(_default_config_dict()):
        seen += 1
        if len(path) > 1:
            errors = [(path[0], *e.absolute_path) for e in
                      sections[path[0]].iter_errors(doc[path[0]])]
        else:
            errors = [tuple(e.absolute_path) for e in oracle.iter_errors(doc)]
        try:
            _raise_first_violation(doc, schema)
            pointer = None
        except ConfigError as exc:
            rejected += 1
            pointer = str(exc).removeprefix("config error at ").split(": ", 1)[0]
        if (pointer is None) != (not errors) or (len(errors) == 1
                                                 and pointer != _pointer(errors[0])):
            mismatches.append((_pointer(path), pointer, errors))
    assert mismatches == []
    assert seen > 1800 and 0 < rejected < seen


def test_checker_names_first_violation_in_document_order():
    doc = _default_config_dict()
    doc["chip"]["channel_map"] = [-1, 0, -2]
    with pytest.raises(ConfigError, match=r"^config error at /chip/channel_map/0: -1 is less "):
        validate_config(doc)
    doc["chip"]["extra"] = 1
    with pytest.raises(ConfigError, match=r"^config error at /chip: Additional properties"):
        validate_config(doc)


def test_checker_passes_nan_and_refuses_infinity():
    doc = _default_config_dict()
    doc["run"]["window_s"] = float("nan")
    validate_config(doc)
    doc["run"]["window_s"] = float("-inf")
    with pytest.raises(ConfigError, match="/run/window_s: -inf is less than or equal to"):
        validate_config(doc)


@pytest.mark.parametrize("where, keyword", [
    ((), "pattern"),
    (("properties", "chip", "properties", "filters", "items", "properties",
      "stopband_floors", "items", "prefixItems", 0), "multipleOf"),
    (("properties", "notes", "additionalProperties"), "enum"),
])
def test_checker_refuses_unsupported_keyword(where, keyword):
    # refused before any value is read, even where the document has no value
    schema = _load_packaged("config_schema.json")
    node = schema
    for key in where:
        node = node[key]
    node[keyword] = 1
    doc = _default_config_dict()
    del doc["notes"]
    with pytest.raises(ConfigError, match=f"keyword '{keyword}' at {_pointer(where)} "
                                          "is not supported"):
        _check_keywords(schema)
        _raise_first_violation(doc, schema)


def test_checker_refuses_unsupported_type():
    schema = _load_packaged("config_schema.json")
    schema["properties"]["seed"]["type"] = ["integer", "null"]
    with pytest.raises(ConfigError, match=r"type \['integer', 'null'\] at /properties/seed"):
        _check_keywords(schema)
        _raise_first_violation(_default_config_dict(), schema)


def test_cached_schema_stays_read_only(tmp_path, monkeypatch):
    # the schema is read and keyword-checked once per process, and loading the
    # shipped document, one the schema refuses and every preset leaves it as
    # packaged
    read = []

    def counted(name):
        read.append(name)
        return _load_packaged(name)

    monkeypatch.setattr(config, "_load_packaged", counted)
    config._packaged_schema.cache_clear()
    refused = tmp_path / "refused.json"
    refused.write_text(json.dumps({"run": {"n_avg": 0}, "chip": {"extra": 1}}))
    load_config(None)
    with pytest.raises(ConfigError, match="^config error at /chip: Additional properties"):
        load_config(str(refused))
    for preset in PRESETS:
        load_config(None, preset=preset, seed=3)
    validate_config(_default_config_dict())
    assert read.count("config_schema.json") == 1
    assert config._packaged_schema() is config._packaged_schema()
    assert config._packaged_schema() == _load_packaged("config_schema.json")
    # an edited copy is still checked for keywords, and the cached schema
    # stays as packaged
    schema = _load_packaged("config_schema.json")
    schema["properties"]["run"]["pattern"] = "x"
    with pytest.raises(ConfigError, match="keyword 'pattern' at /properties/run is not"):
        _check_keywords(schema)
    assert config._packaged_schema() == _load_packaged("config_schema.json")


def test_cli_import_loads_no_validator_or_thread_pool():
    modules = ("jsonschema", "referencing", "attrs", "rpds")
    code = ("import sys, bolomux.cli; bolomux.config.load_config(None); "
            f"print([m for m in {modules!r} if m in sys.modules])")
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
