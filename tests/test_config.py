"""Config loading: shipped defaults, schema validation with JSON pointers,
deep merge semantics, and canonical hashing."""

import json
from dataclasses import fields

import pytest

from bolomux.config import (
    ConfigError,
    ExperimentConfig,
    build_chip,
    build_settings,
    canonical_json,
    config_hash,
    config_schema,
    deep_merge,
    default_config_dict,
    load_config,
    load_config_dict,
    merge_config,
    validate_config,
)
from bolomux.device import BolometerParams
from bolomux.experiments import ChipConfig, RunSettings, run_trigger
from bolomux.frontend import FilterParams, TriggerPattern
from bolomux.units import Seed


# ----------------------------------------------------------------- defaults


def test_shipped_defaults_validate():
    doc = default_config_dict()
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
    doc = default_config_dict()
    doc["chip"]["filters"][0]["fwhm_hz"] = -1.0
    with pytest.raises(ConfigError, match="/chip/filters/0/fwhm_hz"):
        validate_config(doc)


def test_schema_rejects_unknown_key():
    doc = default_config_dict()
    doc["chip"]["bolometers"][1]["quality_factor"] = 1e5
    with pytest.raises(ConfigError, match="/chip/bolometers/1"):
        validate_config(doc)


def test_schema_rejects_wrong_type():
    doc = default_config_dict()
    doc["run"]["n_avg"] = "many"
    with pytest.raises(ConfigError, match="/run/n_avg"):
        validate_config(doc)


def test_schema_rejects_bad_seed():
    for bad in (-1, 2 ** 64, 1.5):
        doc = default_config_dict()
        doc["seed"] = bad
        with pytest.raises(ConfigError, match="seed"):
            validate_config(doc)


def test_schema_rejects_missing_section():
    doc = default_config_dict()
    del doc["chip"]
    with pytest.raises(ConfigError, match="chip"):
        validate_config(doc)


def test_schema_is_self_contained():
    schema = config_schema()
    assert schema["$schema"].endswith("2020-12/schema")
    assert schema["additionalProperties"] is False


def test_schema_sections_are_the_dataclass_fields():
    # the builders pass each section's keys straight to its dataclass
    props = config_schema()["properties"]
    chip = props["chip"]["properties"]
    for section, cls in ((chip, ChipConfig),
                         (chip["bolometers"]["items"]["properties"], BolometerParams),
                         (chip["filters"]["items"]["properties"], FilterParams),
                         (props["run"]["properties"], RunSettings)):
        assert set(section) == {f.name for f in fields(cls)}, cls.__name__


def test_schema_valid_config_can_still_fail_at_runtime():
    # a 600 MHz resonator passes the schema but cannot be synthesized at
    # 1 GS/s; the refusal happens in the experiment layer, naming Nyquist
    doc = default_config_dict()
    doc["chip"]["bolometers"][2]["f_r0_hz"] = 600e6
    validate_config(doc)
    chip = build_chip(doc)
    settings = build_settings(doc)
    with pytest.raises(ValueError, match="Nyquist"):
        run_trigger(chip, TriggerPattern.from_label("000"), settings, Seed(0))


# ----------------------------------------------------------------- merging


def test_deep_merge_nested_dicts():
    base = {"a": {"x": 1, "y": 2}, "b": 3}
    override = {"a": {"y": 20, "z": 30}}
    merged = deep_merge(base, override)
    assert merged == {"a": {"x": 1, "y": 20, "z": 30}, "b": 3}
    # inputs are untouched
    assert base == {"a": {"x": 1, "y": 2}, "b": 3}
    assert override == {"a": {"y": 20, "z": 30}}


def test_deep_merge_replaces_lists_and_scalars():
    base = {"l": [1, 2, 3], "s": "old"}
    merged = deep_merge(base, {"l": [9], "s": "new"})
    assert merged == {"l": [9], "s": "new"}


def test_merge_config_overrides_defaults():
    doc = merge_config({"run": {"n_avg": 7}})
    assert doc["run"]["n_avg"] == 7
    # untouched siblings keep their defaults
    assert doc["run"]["window_s"] == default_config_dict()["run"]["window_s"]
    settings = build_settings(doc)
    assert settings.n_avg == 7


def test_merge_config_validates_result():
    with pytest.raises(ConfigError, match="/run/n_avg"):
        merge_config({"run": {"n_avg": 0}})


# ----------------------------------------------------------------- files


def test_load_config_dict_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="missing.json"):
        load_config_dict(tmp_path / "missing.json")


def test_load_config_dict_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config_dict(path)


def test_load_config_merges_user_file(tmp_path):
    path = tmp_path / "override.json"
    path.write_text(json.dumps({"seed": 99, "run": {"heater_power_dbm": -140.0}}))
    cfg = load_config(path)
    assert cfg.seed == Seed(99)
    assert cfg.settings.heater_power_dbm == -140.0
    assert cfg.settings.window_s == 100e-6  # default survives


def test_load_config_entries_take_dataclass_defaults(tmp_path):
    # user lists replace the shipped ones, so optional entry keys are absent
    chip = default_config_dict()["chip"]
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
    bolometers = default_config_dict()["chip"]["bolometers"]
    bolometers[1]["p_nonlinear_dbm"] = float("nan")
    path.write_text(json.dumps({"chip": {"bolometers": bolometers}}))
    with pytest.raises(ConfigError, match="/chip: p_nonlinear_dbm must be finite"):
        load_config(path)


# ----------------------------------------------------------------- hashing


def test_canonical_json_is_sorted_and_compact():
    assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


def test_config_hash_ignores_key_order():
    doc = default_config_dict()
    scrambled = json.loads(canonical_json(doc))
    # rebuild with reversed key insertion order
    reordered = {k: scrambled[k] for k in reversed(list(scrambled))}
    assert config_hash(doc) == config_hash(reordered)


def test_config_hash_tracks_content():
    doc = default_config_dict()
    changed = default_config_dict()
    changed["run"]["n_avg"] = 101
    assert config_hash(doc) != config_hash(changed)
    assert len(config_hash(doc)) == 64  # sha256 hex
