"""Room-temperature side of the readout: heater filters, trigger patterns,
and heater scheduling."""

from dataclasses import replace

import numpy as np
import pytest

from bolomux.config import load_config
from bolomux.engine import _engine_plan, _relaxations
from bolomux.experiments import _heater_power_w, operating_tones
from bolomux.frontend import (
    FilterParams,
    ToneSpec,
    TriggerPattern,
    filter_transmission,
    schedule_heaters,
)
from bolomux.units import dbm_to_watts
from test_thermal_trajectory import thermal_stage


def make_filter(**overrides) -> FilterParams:
    base = dict(f_center_hz=5.0e9, fwhm_hz=100e6, insertion_loss_db=0.0,
                stopband_floor_db=-15.0)
    base.update(overrides)
    return FilterParams(**base)


def three_filter_chip(default_chip, floor_db: float = -15.0):
    # channel_map [1, 0, 2]: channel 0's matched filter is filters[1]
    filters = (make_filter(f_center_hz=4.4e9, stopband_floor_db=floor_db),
               make_filter(f_center_hz=5.8e9, stopband_floor_db=floor_db),
               make_filter(f_center_hz=7.2e9, stopband_floor_db=floor_db))
    return replace(default_chip, filters=filters, channel_map=(1, 0, 2),
                   line_attenuation_db=0.0)


# a 100 x 1 us thermal grid whose heater window is on for steps 40..49
STEP_GRID = replace(load_config(None).settings, thermal_dt_s=1e-6)


def heater_power_w(chip, tones):
    """_heater_power_w's amplitude per STEP_GRID step, on for the pulse of
    chip's engine plan: a (channels, steps) array."""
    plan = _engine_plan(chip, STEP_GRID, operating_tones(chip, STEP_GRID))
    heater_w = np.zeros((chip.n_channels, plan.steps))
    heater_w[:, plan.pulse] = _heater_power_w(chip, [tones])[0][:, None]
    return heater_w


# -------------------------------------------------------------- filter shape


def test_transmission_peak_and_half_power():
    filt = make_filter()
    assert filter_transmission(filt, filt.f_center_hz) == pytest.approx(1.0, abs=1e-12)
    # Lorentzian in power: half transmission at +-fwhm/2
    for sign in (+1, -1):
        t = filter_transmission(filt, filt.f_center_hz + sign * filt.fwhm_hz / 2)
        assert t == pytest.approx(0.5, rel=1e-12)


def test_transmission_insertion_loss_scales_peak():
    filt = make_filter(insertion_loss_db=-3.0)
    t = filter_transmission(filt, filt.f_center_hz)
    assert t == pytest.approx(10 ** -0.3, rel=1e-12)


def test_transmission_floor_far_from_passband():
    filt = make_filter(stopband_floor_db=-15.0)
    assert filter_transmission(filt, 2.0e9) == pytest.approx(10 ** -1.5, rel=1e-12)
    assert filter_transmission(filt, 9.0e9) == pytest.approx(10 ** -1.5, rel=1e-12)


def test_transmission_never_below_floor_never_above_peak():
    filt = make_filter(stopband_floor_db=-20.0)
    freqs = np.linspace(1e9, 9e9, 1001)
    values = np.array([filter_transmission(filt, f) for f in freqs])
    assert np.all(values >= 10 ** -2.0 - 1e-15)
    assert np.all(values <= 1.0 + 1e-15)


def test_transmission_frequency_dependent_floors():
    filt = make_filter(stopband_floors=[(4.0e9, -20.0), (6.0e9, -10.0)])
    # the floor in effect is the listed one closest in frequency, however far
    # from the listed ones, and the scalar floor is never read
    assert filt.floor_db_at(4.2e9) == -20.0
    assert filt.floor_db_at(5.9e9) == -10.0
    assert filt.floor_db_at(1.0e9) == -20.0
    assert filt.floor_db_at(9.0e9) == -10.0
    f = np.array([1.0e9, 4.0e9, 5.0e9, 6.0e9, 9.0e9])
    assert np.array_equal(filter_transmission(replace(filt, stopband_floor_db=-3.0), f),
                          filter_transmission(filt, f))
    assert filter_transmission(filt, 4.0e9) == pytest.approx(10 ** -2.0, rel=1e-12)
    assert filter_transmission(filt, 6.0e9) == pytest.approx(10 ** -1.0, rel=1e-12)


def test_transmission_floor_fallback_without_list():
    filt = make_filter(stopband_floor_db=-17.0, stopband_floors=None)
    assert filt.floor_db_at(1.0e9) == -17.0


def test_filter_validation():
    with pytest.raises(ValueError):
        make_filter(f_center_hz=0.0)
    with pytest.raises(ValueError):
        make_filter(fwhm_hz=-1.0)
    with pytest.raises(ValueError):
        make_filter(insertion_loss_db=1.0)
    with pytest.raises(ValueError):
        make_filter(stopband_floor_db=0.0)
    with pytest.raises(ValueError):
        make_filter(stopband_floors=[(4.0e9, 1.0)])
    with pytest.raises(ValueError):
        filter_transmission(make_filter(), -1.0)


# ----------------------------------------------------------- delivered power


def test_heater_power_default_chip_selectivity(default_chip):
    # each channel's filter passes its own heater tone at full strength and
    # attenuates the other channels' tones by at least 10 dB
    n = default_chip.n_channels
    for ch in range(n):
        filt = default_chip.matched_filter(ch)
        for other in range(n):
            t = filter_transmission(filt, default_chip.matched_filter(other).f_center_hz)
            if ch == other:
                assert t == pytest.approx(1.0, rel=1e-9)
            else:
                assert t < 0.1


def test_heater_power_matched_channel(default_chip):
    # the tone at filters[1]'s center reaches channel 0 through channel_map
    chip = three_filter_chip(default_chip)
    heater_w = heater_power_w(chip, [ToneSpec(f_hz=5.8e9, p_dbm=-135.0)])
    assert heater_w[0, 40] == pytest.approx(dbm_to_watts(-135.0), rel=1e-12)
    assert heater_w[0, 40] == pytest.approx(3.1623e-17, rel=1e-4)


def test_heater_power_mismatched_channel_hits_floor(default_chip):
    chip = three_filter_chip(default_chip, floor_db=-12.0)
    heater_w = heater_power_w(chip, [ToneSpec(f_hz=4.4e9, p_dbm=-135.0)])
    assert heater_w[0, 40] == pytest.approx(dbm_to_watts(-135.0) * 10 ** -1.2, rel=1e-9)


def test_heater_power_sums_incoherently(default_chip):
    chip = three_filter_chip(default_chip, floor_db=-12.0)
    matched = ToneSpec(f_hz=5.8e9, p_dbm=-140.0)
    leak = ToneSpec(f_hz=8.0e9, p_dbm=-130.0)
    both = heater_power_w(chip, [matched, leak])
    solo = (heater_power_w(chip, [matched])
            + heater_power_w(chip, [leak]))
    np.testing.assert_allclose(both, solo, rtol=1e-12, atol=0.0)


# ------------------------------------------------------------ pulses


def test_pulse_window_is_half_open(default_chip):
    # 40 us + 10 us at 1 us steps: on for steps 40..49, off at 39 and 50, in
    # the plan and in the thermal pass, whose t_inf jumps by the heater's
    # share at step 40 and falls back at step 50
    chip = three_filter_chip(default_chip)
    plan = _engine_plan(chip, STEP_GRID, operating_tones(chip, STEP_GRID))
    assert plan.pulse == slice(40, 50)
    heater_w = heater_power_w(chip, [ToneSpec(f_hz=5.8e9, p_dbm=-135.0)])
    assert heater_w[0, 39] == 0.0
    assert heater_w[0, 40] > 0.0
    assert heater_w[0, 49] > 0.0
    assert heater_w[0, 50] == 0.0
    assert np.count_nonzero(heater_w[0]) == 10
    _, t_inf = _relaxations(plan, thermal_stage(plan, heater_w[None, :, 40])[0])
    t_inf = t_inf[0]
    jump = heater_w[0, 40] / chip.bolometers[0].g_th_w_per_k
    assert np.all(t_inf[:40] == t_inf[0])
    assert np.all(t_inf[40:50] - t_inf[0] > 0.5 * jump)
    assert np.all(np.abs(t_inf[50:] - t_inf[0]) < 0.5 * jump)


# ------------------------------------------------------- trigger patterns


def test_pattern_label_round_trip():
    for label in ("000", "001", "010", "101", "111", "1", "1010"):
        pat = TriggerPattern.from_label(label)
        assert pat.label == label
        assert TriggerPattern.from_label(pat.label) == pat


def test_pattern_value_is_big_endian():
    assert TriggerPattern.from_label("001").value == 1
    assert TriggerPattern.from_label("100").value == 4
    assert TriggerPattern.from_label("111").value == 7


def test_pattern_all_patterns_ascending():
    pats = TriggerPattern.all_patterns(3)
    assert len(pats) == 8
    assert [p.value for p in pats] == list(range(8))
    assert pats[0].label == "000"
    assert pats[-1].label == "111"


def test_pattern_validation():
    with pytest.raises(ValueError):
        TriggerPattern.from_label("")
    with pytest.raises(ValueError):
        TriggerPattern.from_label("102")
    with pytest.raises(ValueError):
        TriggerPattern.all_patterns(0)
    with pytest.raises(ValueError):
        TriggerPattern.all_patterns(17)


# ------------------------------------------------------- heater scheduling


def test_schedule_routes_bits_through_channel_map(default_chip):
    filters = default_chip.filters
    cmap = default_chip.channel_map
    tones = schedule_heaters(TriggerPattern.from_label("001"), filters, cmap, -135.0)
    # last bit is channel 2; its filter under the shipped map is the 7.6 GHz one
    assert tones == [ToneSpec(f_hz=filters[cmap[2]].f_center_hz, p_dbm=-135.0)]


def test_schedule_all_on_uses_every_filter_once(default_chip):
    filters = default_chip.filters
    tones = schedule_heaters(TriggerPattern.from_label("111"), filters,
                             default_chip.channel_map, -135.0)
    assert sorted(t.f_hz for t in tones) == sorted(f.f_center_hz for f in filters)


def test_schedule_all_off_is_empty(default_chip):
    tones = schedule_heaters(TriggerPattern.from_label("000"),
                             default_chip.filters, default_chip.channel_map, -135.0)
    assert tones == []


def test_schedule_validation(default_chip):
    filters = default_chip.filters
    with pytest.raises(ValueError):
        schedule_heaters(TriggerPattern.from_label("01"), filters,
                         default_chip.channel_map, -135.0)
    with pytest.raises(ValueError):
        schedule_heaters(TriggerPattern.from_label("111"), filters, (0, 0, 1), -135.0)
