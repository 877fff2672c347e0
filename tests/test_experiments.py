"""End-to-end measurement drivers on the shipped chip: trigger patterns,
sweeps, and calibration."""

import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from bolomux import analysis, engine, experiments
from bolomux.analysis import FitError, fit_compressions, fit_lorentzians
from bolomux.config import PRESETS, ChipConfig, load_config
from bolomux.device import _absorption, _gamma, _steady_state, solve_operating_point
from bolomux.dsp import (IQTrace, _band_iq, _baseline_std_per_volt, _demod_band, _white_bins,
                         response_metric)
from bolomux.experiments import (
    _KIND_TRIGGER,
    CalibrationError,
    NonlinearOperationError,
    calibrate_chip,
    characterize,
    operating_tones,
    power_sweep_matrix,
    run_filter_sweep,
    run_full_multiplex,
    run_probe_sweep,
    run_trigger,
)
from bolomux.frontend import ToneSpec, TriggerPattern, filter_transmission, schedule_heaters
from bolomux.units import Seed, dbm_to_watts, derive_stream, tone_amplitude_volts, watts_to_dbm
from test_device import scalar_steady_state
from test_dsp import mixer_demodulate
from test_thermal_trajectory import beyond_rounding, exact_block_starts


def predicted_floor(chip, settings):
    """Expected baseline std of |IQ| from the chip's digitizer noise."""
    fs = chip.sample_rate_hz
    per_volt = _baseline_std_per_volt(round(settings.window_s * fs), fs,
                                      settings.demod_bandwidth_hz,
                                      round(fs / settings.output_rate_hz),
                                      settings.baseline_window_s)
    return chip.noise_sigma_v / math.sqrt(settings.n_avg) * per_volt


# the shipped settings at the flank posture, as power sweeps run them
FLANK = replace(load_config(None).settings, probe_detuning_fraction=0.5)


@pytest.fixture(scope="module")
def noiseless_chip(default_chip):
    return replace(default_chip, noise_sigma_v=0.0)


@pytest.fixture(scope="module")
def mux15(default_chip, default_settings):
    """Full pattern set on the shipped chip at the shipped seed."""
    return run_full_multiplex(default_chip, default_settings, Seed(15))


@pytest.fixture(scope="module")
def noiseless_runs(noiseless_chip, default_settings):
    settings = replace(default_settings, n_avg=1)
    return {
        pat.label: run_trigger(noiseless_chip, pat, settings, Seed(0))
        for pat in TriggerPattern.all_patterns(noiseless_chip.n_channels)
    }


# ---------------------------------------------------------------- settings


def test_settings_defaults_skip_settling(default_settings):
    # metrics never look at the first 10 us of the record
    s = default_settings
    assert s.baseline_window_s[0] >= 10e-6
    assert s.signal_window_s[0] > s.baseline_window_s[1]


def test_settings_validation(default_chip, default_settings):
    ok = default_settings
    with pytest.raises(ValueError):
        replace(ok, n_avg=0)
    with pytest.raises(ValueError):
        replace(ok, window_s=-1.0)
    with pytest.raises(ValueError):
        replace(ok, pulse_start_s=-1e-6)
    with pytest.raises(ValueError):
        replace(ok, pulse_duration_s=0.0)
    ok.validate_against(default_chip)
    with pytest.raises(ValueError, match="thermal"):
        replace(ok, thermal_dt_s=150.4e-9).validate_against(default_chip)
    with pytest.raises(ValueError, match="divide"):
        replace(ok, output_rate_hz=3e8).validate_against(default_chip)
    with pytest.raises(ValueError, match="pulse"):
        replace(ok, pulse_start_s=95e-6).validate_against(default_chip)
    with pytest.raises(ValueError, match="baseline window must end"):
        replace(ok, baseline_window_s=(10e-6, 60e-6)).validate_against(default_chip)
    with pytest.raises(ValueError, match="inside"):
        replace(ok, signal_window_s=(90e-6, 120e-6)).validate_against(default_chip)


def test_presets(default_chip, default_settings):
    assert PRESETS == ("desk", "paper", "fig3")
    cfg = load_config(None, preset="desk")
    assert cfg.chip == default_chip and cfg.settings == default_settings
    cfg = load_config(None, preset="paper")
    assert cfg.chip.sample_rate_hz == 6e9
    assert cfg.chip.noise_sigma_v == pytest.approx(10 * default_chip.noise_sigma_v)
    assert cfg.settings.n_avg == 10_000
    cfg = load_config(None, preset="fig3")
    chip, settings = cfg.chip, cfg.settings
    assert settings.window_s == 2e-3
    assert settings.pulse_duration_s == 1e-3
    assert settings.n_avg == 2 ** 14
    settings.validate_against(chip)
    with pytest.raises(ValueError, match="preset"):
        load_config(None, preset="bench")


def test_chip_validation(default_chip):
    with pytest.raises(ValueError, match="bijection"):
        replace(default_chip, channel_map=(0, 0, 1))
    with pytest.raises(ValueError, match="increasing"):
        replace(default_chip, bolometers=tuple(reversed(default_chip.bolometers)))
    with pytest.raises(ValueError):
        replace(default_chip, noise_sigma_v=-1e-9)
    with pytest.raises(ValueError, match="equal length"):
        ChipConfig(
            bolometers=default_chip.bolometers,
            filters=default_chip.filters[:2],
            channel_map=(1, 0, 2),
            noise_sigma_v=0.0,
            sample_rate_hz=default_chip.sample_rate_hz,
            line_attenuation_db=default_chip.line_attenuation_db,
        )


# ------------------------------------------------------------ probe tones


def test_operating_tones_dip_posture(default_chip, default_settings):
    assert default_settings.probe_detuning_fraction == 0.0
    tones, ops = operating_tones(default_chip, default_settings)
    grid = 1.0 / default_settings.window_s
    for tone, op, par in zip(tones, ops, default_chip.bolometers):
        # tone is bin-centered on the record-length DFT grid
        assert tone.f_hz / grid == pytest.approx(round(tone.f_hz / grid), abs=1e-6)
        # and sits on the power-shifted dip to within one grid step
        assert abs(tone.f_hz - op.f_r_star_hz) <= grid
        # the power balance holds at the solved temperature
        p_abs = dbm_to_watts(tone.p_dbm) * _absorption(par.kappa_ext_hz, par.kappa_int_hz)(
            tone.f_hz - op.f_r_star_hz)
        assert abs(par.g_th_w_per_k * (op.t_star_k - par.t_bath_k) - p_abs) < 1e-18
        assert not op.multivalued


def test_operating_tones_flank_posture(default_chip, default_settings):
    settings = replace(default_settings, probe_detuning_fraction=0.5)
    tones, ops = operating_tones(default_chip, settings)
    grid = 1.0 / settings.window_s
    for tone, op, par in zip(tones, ops, default_chip.bolometers):
        offset = tone.f_hz - op.f_r_star_hz
        assert offset == pytest.approx(0.5 * par.kappa_total_hz, abs=2 * grid)


@pytest.mark.parametrize("fraction", [0.0, 0.5, -0.5])
def test_operating_tones_sit_at_the_offset_on_a_fine_grid(default_chip, default_settings,
                                                          fraction):
    # on a 1 Hz grid (a 1 s window) every tone lies within half a bin of its
    # offset above the power-shifted resonance it is read at: the placement
    # is exact at the offset, and only the snap to the grid is left
    settings = replace(default_settings, window_s=1.0, probe_detuning_fraction=fraction)
    tones, ops = operating_tones(default_chip, settings)
    for tone, op, par in zip(tones, ops, default_chip.bolometers):
        assert abs(tone.f_hz - op.f_r_star_hz - fraction * par.kappa_total_hz) <= 0.5


def test_operating_tones_nonlinear_guard(default_chip, default_settings):
    hot = replace(default_settings, probe_power_dbm=-124.0)
    with pytest.raises(NonlinearOperationError, match="allow_nonlinear"):
        operating_tones(default_chip, hot)
    tones, _ = operating_tones(default_chip, replace(hot, allow_nonlinear=True))
    assert len(tones) == default_chip.n_channels


# ----------------------------------------------------------- trigger runs


# Unheated SNR is pure noise plus a small leakage (sd about 0.54 over seeds
# 0-63), so a single run bounds it only at the 7-sigma level; its statistics
# are checked over the seed ensemble (snr_ensemble) instead.
UNHEATED_SNR_BOUND = 4.0


def test_trigger_single_channel_pattern(default_chip, default_settings):
    run = run_trigger(default_chip, TriggerPattern.from_label("001"),
                      default_settings, Seed(15))
    assert run.pattern.label == "001"
    assert run.n_avg == default_settings.n_avg
    # only the triggered channel responds; the others stay in the noise
    assert run.metrics[2].snr > 5.0
    assert abs(run.metrics[0].snr) < UNHEATED_SNR_BOUND
    assert abs(run.metrics[1].snr) < UNHEATED_SNR_BOUND


def test_trigger_all_off_and_all_on(default_chip, default_settings):
    quiet = run_trigger(default_chip, TriggerPattern.from_label("000"),
                        default_settings, Seed(15))
    assert all(abs(m.snr) < UNHEATED_SNR_BOUND for m in quiet.metrics)
    loud = run_trigger(default_chip, TriggerPattern.from_label("111"),
                       default_settings, Seed(15))
    assert all(m.snr > 5.0 for m in loud.metrics)


def test_trigger_traces_shape(default_chip, default_settings):
    run = run_trigger(default_chip, TriggerPattern.from_label("010"),
                      default_settings, Seed(15))
    n_out = round(default_settings.window_s * default_settings.output_rate_hz)
    for iq, tone in zip(run.iq, run.probe_tones):
        assert len(iq) == n_out
        assert iq.sample_rate_hz == default_settings.output_rate_hz
        assert iq.carrier_hz == tone.f_hz
        assert iq.t0_s == 0.0


def test_trigger_is_reproducible(default_chip, default_settings):
    pat = TriggerPattern.from_label("101")
    a = run_trigger(default_chip, pat, default_settings, Seed(15))
    b = run_trigger(default_chip, pat, default_settings, Seed(15))
    c = run_trigger(default_chip, pat, default_settings, Seed(16))
    for x, y in zip(a.iq, b.iq):
        assert np.array_equal(x.samples, y.samples)
    assert not np.array_equal(a.iq[0].samples, c.iq[0].samples)


def test_trigger_rejects_wrong_pattern_arity(default_chip, default_settings):
    with pytest.raises(ValueError, match="bits"):
        run_trigger(default_chip, TriggerPattern.from_label("01"),
                    default_settings, Seed(0))


# ------------------------------------------------------------- multiplex


def test_multiplex_covers_all_patterns_in_order(mux15):
    assert len(mux15) == 8
    assert [r.pattern.label for r in mux15] == [format(v, "03b") for v in range(8)]


def test_multiplex_matched_beats_leakage(snr_ensemble):
    # over 64 seeds: every channel's heated SNR exceeds 5 at its 5% quantile,
    # and its unheated SNR, once the noiseless leakage is taken out, is pure
    # noise: mean 0 within 3 standard errors, spread within 3 standard
    # errors of a pre-pulse noise window's
    for snrs in snr_ensemble["matched"]:
        assert np.quantile(snrs, 0.05) > 5.0
    leakage, control = snr_ensemble["leakage"], snr_ensemble["control"]
    n = leakage.size
    assert abs(np.mean(leakage)) <= 3.0 * np.std(leakage, ddof=1) / np.sqrt(n)
    spread = np.std(leakage, ddof=1) / np.std(control, ddof=1)
    assert abs(np.log(spread)) <= 3.0 / np.sqrt(n - 1)


def test_baseline_std_matches_predicted_floor(default_chip, default_settings, snr_ensemble):
    # per pattern and channel over seeds 0-63: the RMS of the baseline std
    # matches the closed-form floor within 3 standard errors estimated from
    # the same samples (the floor is the root of the expected variance).  The
    # mean SNR is not compared with response / floor: a baseline window holds
    # about 20 effective samples, so E[response / std] runs about 3% high
    # (all-on at the calibrated sigma, weakest channel: mean SNR 7.74 +- 0.15
    # over these seeds, response / RMS std 7.42)
    floor = predicted_floor(default_chip, default_settings)
    var = snr_ensemble["baseline_std"] ** 2
    n = var.shape[1]
    rms = np.sqrt(np.mean(var, axis=1))
    se = np.std(var, axis=1, ddof=1) / np.sqrt(n) / (2.0 * rms)
    assert np.all(np.abs(rms - floor) <= 3.0 * se)


def test_multiplex_runs_do_not_depend_on_the_batch(default_chip, default_settings):
    # the 8 patterns as one batch, or each alone through run_trigger: every
    # pattern draws its noise from its own label's stream, so each entry is
    # the lone run bit for bit
    settings = replace(default_settings, n_avg=10)
    batch = run_full_multiplex(default_chip, settings, Seed(15))
    assert [run.pattern for run in batch] == TriggerPattern.all_patterns(default_chip.n_channels)
    for run in batch:
        alone = run_trigger(default_chip, run.pattern, settings, Seed(15))
        assert alone.metrics == run.metrics
        for x, y in zip(alone.iq, run.iq):
            assert x.samples.tobytes() == y.samples.tobytes()


def averaged_noise_oracle(n, sigma_v, n_avg, seed, labels):
    """The per-realization averaging the engine replaced, kept as its oracle.

    n_avg white records, record r drawn from the stream (seed, *labels, r),
    summed and divided by n_avg.
    """
    total = np.zeros(n)
    for r in range(n_avg):
        total += derive_stream(seed, *labels, r).normal(0.0, sigma_v, n)
    return total / n_avg


def test_averaged_noise_matches_per_realization_oracle(default_chip, noiseless_chip,
                                                       default_settings):
    # short, low-average posture over 64 seeds: the per-sample variance of
    # the engine's noise IQ (noisy minus noiseless), of the mixer-demodulated
    # per-realization average, and the analytic (2h+1) sigma^2 / (n n_avg)
    # for 2h+1 in-band bins all agree within 3 standard errors
    settings = replace(default_settings, window_s=20e-6, pulse_start_s=5e-6,
                       pulse_duration_s=5e-6, baseline_window_s=(1e-6, 4e-6),
                       signal_window_s=(11e-6, 12e-6), n_avg=4)
    fs, sigma = default_chip.sample_rate_hz, default_chip.noise_sigma_v
    n = round(settings.window_s * fs)
    decimation = round(fs / settings.output_rate_hz)
    pattern = TriggerPattern.from_label("000")
    quiet = run_trigger(noiseless_chip, pattern, settings, Seed(0))
    engine, oracle = [], []
    for master in range(64):
        noisy = run_trigger(default_chip, pattern, settings, Seed(master))
        record = averaged_noise_oracle(n, sigma, settings.n_avg, Seed(master),
                                       (_KIND_TRIGGER, pattern.value))
        for ch, tone in enumerate(noisy.probe_tones):
            engine.append(np.mean(np.abs(noisy.iq[ch].samples - quiet.iq[ch].samples) ** 2))
            oracle.append(np.mean(np.abs(mixer_demodulate(
                record, fs, tone.f_hz, settings.demod_bandwidth_hz, decimation)) ** 2))
    bins = 2 * round(0.5 * settings.demod_bandwidth_hz * settings.window_s) + 1
    analytic = bins * sigma ** 2 / (n * settings.n_avg)

    def mean_and_se(x):
        x = np.array(x)
        return float(np.mean(x)), float(np.std(x, ddof=1)) / np.sqrt(x.size)

    (v_e, se_e), (v_o, se_o) = mean_and_se(engine), mean_and_se(oracle)
    assert abs(v_e - analytic) <= 3.0 * se_e
    assert abs(v_o - analytic) <= 3.0 * se_o
    assert abs(v_e - v_o) <= 3.0 * np.hypot(se_e, se_o)


# ------------------------------------------------------ spectral synthesis


def scalar_thermal_oracle(chip, operating, heater_w, dt):
    """The per-channel scalar thermal loop the closed-form pass replaced, kept as
    a reference its stepping error bounds.

    heater_w is one run's (channels, steps) heater power; returns (t_start,
    t_inf) of that shape.  Every channel is stepped on Python floats over
    every step: an exact exponential relaxation toward t_bath + p_abs/g_th,
    the absorbed power re-evaluated at a predicted half-step temperature.
    """
    tones, ops = operating
    t_start, t_inf_of = np.empty_like(heater_w), np.empty_like(heater_w)
    for ch, par in enumerate(chip.bolometers):
        tone = tones[ch]
        p_probe_w = dbm_to_watts(tone.p_dbm)
        ke, ki = par.kappa_ext_hz, par.kappa_int_hz
        t_bath, g_th, dfdt = par.t_bath_k, par.g_th_w_per_k, par.dfdt_hz_per_k
        decay = math.exp(-dt / par.tau_th_s)
        decay_half = math.exp(-0.5 * dt / par.tau_th_s)
        t_e = ops[ch].t_star_k
        for s, heater in enumerate(heater_w[ch].tolist()):
            detuning = tone.f_hz - (par.f_r0_hz - dfdt * (t_e - t_bath))
            p_abs = p_probe_w * _absorption(ke, ki)(detuning) + heater
            t_mid = t_bath + p_abs / g_th + (t_e - t_bath - p_abs / g_th) * decay_half
            detuning = tone.f_hz - (par.f_r0_hz - dfdt * (t_mid - t_bath))
            p_abs = p_probe_w * _absorption(ke, ki)(detuning) + heater
            t_inf = t_bath + p_abs / g_th
            t_start[ch, s], t_inf_of[ch, s] = t_e, t_inf
            t_e = t_inf + (t_e - t_inf) * decay
    return t_start, t_inf_of


def composite_engine_oracle(chip, heater_tones, settings, operating):
    """The mixer-per-channel readout of a noiseless chip, kept as the engine's oracle.

    Takes each channel's exact thermal trajectory (exact_block_starts) under
    the heater tones, each on for the settings' heater window, relaxes each
    step from its start exponentially toward the t_inf that ends it where the
    trajectory does, builds its reflected tone Re(a Gamma(t) exp(i (2 pi f t +
    phase))) on the record's time axis from a record-length carrier, adds the
    tones into one composite record and mixes that record down once per
    channel with a record-length mixer (mixer_demodulate), where the engine
    reads the tones' bands from each probe's per-step expansion.  Returns the
    IQ samples, one row per channel.
    """
    assert chip.noise_sigma_v == 0.0
    fs = chip.sample_rate_hz
    n = round(settings.window_s * fs)
    steps = round(settings.window_s / settings.thermal_dt_s)
    dt, start = settings.thermal_dt_s, settings.pulse_start_s
    tones, ops = operating
    pulse = slice(round(start / dt), round((start + settings.pulse_duration_s) / dt))
    trajectories = []
    for ch, par in enumerate(chip.bolometers):
        heat = sum(experiments._delivered_w(chip, ch, tone.f_hz, tone.p_dbm)
                   for tone in heater_tones)
        temps = exact_block_starts(par, tones[ch].f_hz, dbm_to_watts(tones[ch].p_dbm),
                                   ops[ch].t_star_k, heat, pulse, steps, dt)
        trajectories.append((temps[:-1], temps[:-1] + np.diff(temps)
                             / (1.0 - math.exp(-dt / par.tau_th_s))))
    t = np.arange(n) / fs
    composite = np.zeros(n)
    for ch, par in enumerate(chip.bolometers):
        tone = tones[ch]
        ke, ki = par.kappa_ext_hz, par.kappa_int_hz
        t_bath, dfdt = par.t_bath_k, par.dfdt_hz_per_k
        t_start, t_inf_of = trajectories[ch]
        fade = np.exp(-np.arange(n // steps) / (fs * par.tau_th_s))
        t_samples = (t_inf_of[:, None] + (t_start - t_inf_of)[:, None] * fade).ravel()
        gam = _gamma(tone.f_hz - (par.f_r0_hz - dfdt * (t_samples - t_bath)), ke, ki)
        carrier = np.exp(1j * 2.0 * np.pi * tone.f_hz * t)
        composite += np.real(gam * (tone_amplitude_volts(tone.p_dbm) * carrier))
    decimation = round(fs / settings.output_rate_hz)
    return np.array([mixer_demodulate(composite, fs, tone.f_hz, settings.demod_bandwidth_hz,
                                      decimation) for tone in tones])


def band_noise_iq(chip, settings, operating, seed, labels):
    """The averaged noise's IQ, one row per channel: every probe's band bins of
    a white record of std sigma/sqrt(n_avg) drawn in the band (_white_bins)
    from the stream (seed, *labels), sliced as the pipeline slices them."""
    fs = chip.sample_rate_hz
    n, decimation = round(settings.window_s * fs), round(fs / settings.output_rate_hz)
    planned = [_demod_band(n, fs, tone.f_hz, settings.demod_bandwidth_hz, decimation)
               for tone in operating[0]]
    bins = np.array([k_c + offsets for k_c, offsets in planned])
    bands = _white_bins(derive_stream(seed, *labels), bins, n,
                        chip.noise_sigma_v / math.sqrt(settings.n_avg))
    return _band_iq(bands, planned[0][1], n, decimation)


def seam_iq(chip, heater_tones, settings, operating, seed, labels):
    """One run through the engine's seam: its plan, its thermal pass, its
    trajectories as the pipeline relaxes each step (engine._relaxations) and
    its readout (with the noise of the stream (seed, *labels) on a noisy
    chip), the bands sliced to IQ as the pipeline slices them.  Returns the IQ
    samples, one row per channel."""
    plan = engine._engine_plan(chip, settings, operating)
    temps = engine._thermal_stage(plan, experiments._heater_power_w(chip, [heater_tones]))
    bands = engine._readout(plan, *engine._relaxations(plan, temps[0]),
                            derive_stream(seed, *labels) if plan.noise_scale > 0.0 else None)
    return _band_iq(bands, plan.offsets, plan.n, plan.decimation)


def assert_close_to(got, oracle, rel=1e-9):
    assert np.max(np.abs(got - oracle)) <= rel * np.max(np.abs(oracle))


@pytest.mark.parametrize("preset", ["desk", "paper"])
@pytest.mark.parametrize("label", ["000", "101", "111"])
def test_spectral_engine_matches_composite_oracle(preset, label):
    # noiseless and noisy at the same seed: the noiseless IQ matches the
    # oracle, the noisy-minus-noiseless IQ, the noise alone, matches the band
    # draw from the run's stream to the same tolerance of its own scale, and
    # run_trigger returns the seam's IQ bit for bit
    cfg = load_config(None, preset=preset)
    chip, settings = cfg.chip, cfg.settings
    pattern = TriggerPattern.from_label(label)
    heater_tones = schedule_heaters(pattern, chip.filters, chip.channel_map,
                                    settings.heater_power_dbm)
    quiet, labels = replace(chip, noise_sigma_v=0.0), (_KIND_TRIGGER, pattern.value)
    operating = operating_tones(chip, settings)
    seam = [seam_iq(c, heater_tones, settings, operating, Seed(7), labels) for c in (quiet, chip)]
    assert_close_to(seam[0], composite_engine_oracle(quiet, heater_tones, settings, operating))
    assert_close_to(seam[1] - seam[0], band_noise_iq(chip, settings, operating, Seed(7), labels))
    for c, iq in zip((quiet, chip), seam):
        run = run_trigger(c, pattern, settings, Seed(7))
        assert np.array_equal(np.array([trace.samples for trace in run.iq]), iq)


def test_spectral_engine_matches_composite_oracle_on_a_flank_power_sweep_run(default_chip):
    # deep in compression on bolometer 0's matched path, read on every probe
    settings = FLANK
    quiet = replace(default_chip, noise_sigma_v=0.0)
    tone = ToneSpec(f_hz=quiet.matched_filter(0).f_center_hz, p_dbm=-90.0)
    operating = operating_tones(quiet, settings)
    assert_close_to(seam_iq(quiet, [tone], settings, operating, Seed(0), ()),
                    composite_engine_oracle(quiet, [tone], settings, operating))


@pytest.mark.parametrize("preset", ["desk", "paper"])
def test_chebyshev_expansion_matches_gamma_at_every_sample(preset, monkeypatch):
    # random steps of the posture's plan with the coefficient ratio |beta|
    # from 0 (no drive) past the expansion bound: each expanded step's series
    # sum_k C[k] T_k(u_m) meets Gamma at every sample to 2 |beta|^9 / (1 -
    # |beta|) of |kappa_ext / (z r)| plus rounding, and every step past the
    # bound is left out, its coefficients zeroed
    cfg = load_config(None, preset=preset)
    quiet = replace(cfg.chip, noise_sigma_v=0.0)
    plan = engine._engine_plan(quiet, cfg.settings, operating_tones(quiet, cfg.settings))
    c = plan.channels
    rng = np.random.default_rng(5)
    shape = (quiet.n_channels, plan.steps)
    kappa = c.kappa_ext + c.kappa_int
    z = 0.5 * kappa + 1j * kappa * rng.uniform(-3.0, 3.0, shape)
    ratio = rng.uniform(0.0, 0.0905, shape)
    ratio[:, :3] = [0.0, 0.0897, 0.0903]      # w = 0, and either side of the bound
    drive = rng.choice([-1.0, 1.0], shape) * ratio * np.abs(z) / plan.spread
    w = 1j * drive * plan.spread / z
    r = np.sqrt(1.0 - w * w)
    beta = np.abs(-w / (1.0 + r))
    assert beta[:, 0].max() == 0.0 and beta[:, 1].max() < engine._EXPANSION_BOUND
    assert beta[:, 2].min() > engine._EXPANSION_BOUND
    coefficients = []
    fft = np.fft.fft

    def captured(a, *args, **kwargs):
        coefficients.append(a.copy())
        return fft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", captured)
    _, dense = engine._expanded_bins(plan, z.imag - drive * plan.x0, drive)
    monkeypatch.undo()
    assert np.array_equal(dense, beta > engine._EXPANSION_BOUND)
    coeffs = coefficients[0]
    assert not coeffs.transpose(0, 2, 1)[dense].any()
    u = (plan.fade - plan.x0) / plan.spread
    for ch in range(quiet.n_channels):
        keep = ~dense[ch]
        series = np.polynomial.chebyshev.chebval(u[ch], coeffs[ch][:, keep])
        detuning = z.imag[ch, keep, None] + drive[ch, keep, None] * (plan.fade[ch] - plan.x0[ch])
        gamma = _gamma(detuning, c.kappa_ext[ch], c.kappa_int[ch])
        bound = (2.0 * beta[ch, keep] ** 9 / (1.0 - beta[ch, keep])
                 * np.abs(c.kappa_ext[ch] / (z[ch, keep] * r[ch, keep])))
        assert np.all(np.max(np.abs(series - gamma), axis=1) <= bound + 1e-14)


def record_dense_steps(monkeypatch):
    """Wrap the readout's expansion; returns the list its step masks are appended to."""
    masks = []
    expanded = engine._expanded_bins

    def recorded(*args):
        bands, dense = expanded(*args)
        masks.append(dense)
        return bands, dense

    monkeypatch.setattr(engine, "_expanded_bins", recorded)
    return masks


@pytest.mark.parametrize("preset", ["paper", "fig3"])
def test_band_readout_matches_composite_oracle_on_expanded_and_dense_steps(preset,
                                                                          monkeypatch):
    # the flank power-sweep run deep in compression at the other postures: the
    # pulse edges' steps are summed sample by sample, all others expanded,
    # and together they meet the oracle
    cfg = load_config(None, preset=preset)
    settings = replace(cfg.settings, probe_detuning_fraction=0.5)
    quiet = replace(cfg.chip, noise_sigma_v=0.0)
    tone = ToneSpec(f_hz=quiet.matched_filter(0).f_center_hz, p_dbm=-90.0)
    operating = operating_tones(quiet, settings)
    masks = record_dense_steps(monkeypatch)
    seam = seam_iq(quiet, [tone], settings, operating, Seed(0), ())
    dense, = masks
    assert dense.any() and not dense.all()
    assert_close_to(seam, composite_engine_oracle(quiet, [tone], settings, operating))


@pytest.mark.parametrize("change", [
    {"thermal_dt_s": 5e-6},           # 20 steps of 5000 samples
    {"demod_bandwidth_hz": 40e6},     # neighbouring channels' bands overlap, sharing bins
])
def test_spectral_engine_matches_composite_oracle_at_other_shapes(default_chip,
                                                                  default_settings, change):
    settings = replace(default_settings, **change)
    pattern = TriggerPattern.from_label("101")
    heater_tones = schedule_heaters(pattern, default_chip.filters, default_chip.channel_map,
                                    settings.heater_power_dbm)
    quiet, labels = replace(default_chip, noise_sigma_v=0.0), (_KIND_TRIGGER, pattern.value)
    operating = operating_tones(default_chip, settings)
    seam = [seam_iq(c, heater_tones, settings, operating, Seed(7), labels)
            for c in (quiet, default_chip)]
    assert_close_to(seam[0], composite_engine_oracle(quiet, heater_tones, settings, operating))
    assert_close_to(seam[1] - seam[0],
                    band_noise_iq(default_chip, settings, operating, Seed(7), labels))


@pytest.mark.parametrize("noisy", [False, True])
def test_engine_takes_no_record_length_transform(default_chip, default_settings, monkeypatch,
                                                 noisy):
    # a run's tones are read from one FFT along the steps axis of its
    # (channels, K+1, steps) expansion coefficients, and its noise is drawn
    # in the band, so neither a noiseless nor a noisy run takes a transform
    # of a (steps, block) array.  A record-length transform, a per-channel
    # or repeated transform, or a transform of a digitizer-rate signal or
    # noise array would show up here
    n = round(default_settings.window_s * default_chip.sample_rate_hz)
    steps = round(default_settings.window_s / default_settings.thermal_dt_s)
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft"):
        original = getattr(np.fft, name)

        def counted(a, *args, _name=name, _original=original, **kwargs):
            calls.append((_name, np.shape(a), kwargs.get("axis", -1)))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    chip = default_chip if noisy else replace(default_chip, noise_sigma_v=0.0)
    patterns = [TriggerPattern.from_label(label) for label in ("101", "110")]
    experiments._trigger_runs(chip, patterns, default_settings, Seed(3))
    assert [c for c in calls if np.prod(c[1]) >= n] == []
    expansion = (chip.n_channels, engine._EXPANSION_ORDER + 1, steps)
    tones = [c for c in calls if c == ("fft", expansion, -1)]
    assert len(tones) == len(patterns)
    # the rest are the band slices' inverse transforms, one of every channel's
    # band per run, and the readout's short chirp-z transforms (the batch's
    # plan, and the steps past the expansion bound); none holds half a record
    rest = [c for c in calls if c not in tones]
    decimation = round(default_chip.sample_rate_hz / default_settings.output_rate_hz)
    assert rest.count(("ifft", (chip.n_channels, n // decimation), -1)) == len(patterns)
    assert all(np.prod(c[1]) < n // 2 for c in rest)


# ------------------------------------------------------ batched thermal stage


def thermal_batch(chip, settings, batch):
    """Heater tone lists of a test batch: "101" (one pattern), "sweep" (one
    power-sweep tone deep in compression) or "27" (all eight patterns and
    nineteen power-sweep tones from -160 to -90 dBm, mixed in one batch); a
    power-sweep run's one tone sits at bolometer 0's matched filter."""
    labels, powers = {"101": (["101"], []),
                      "sweep": ([], [-90.0]),
                      "27": ([format(v, "03b") for v in range(8)],
                             np.linspace(-160.0, -90.0, 19).tolist())}[batch]
    return ([schedule_heaters(TriggerPattern.from_label(label), chip.filters, chip.channel_map,
                              settings.heater_power_dbm) for label in labels]
            + [[ToneSpec(f_hz=chip.matched_filter(0).f_center_hz, p_dbm=p)] for p in powers])


@pytest.mark.parametrize("posture, batch, change", [
    ("dip", "101", {}),
    ("dip", "sweep", {}),
    ("dip", "27", {}),
    ("flank", "101", {}),
    ("flank", "sweep", {}),
    ("flank", "27", {}),
    ("flank", "27", {"thermal_dt_s": 5e-6}),
    ("fig3", "101", {}),
])
def test_thermal_stage_matches_scalar_oracle(posture, batch, change):
    # every (run, channel) trajectory of one batched pass equals the pass run
    # on its run alone and on every third run, bit for bit, and the scalar
    # closed form (exact_block_starts) run on that trajectory alone, within
    # one ulp of the temperature and 1e-12 of the run's rise beyond it.  The
    # scalar loop it replaced lies within that loop's second-order stepping
    # error: 1.49e-7 of the rise at the shipped 100 ns step, 1.14e-4 at 5 us
    cfg = load_config(None, preset="fig3" if posture == "fig3" else "desk")
    chip = cfg.chip
    settings = replace(cfg.settings,
                       probe_detuning_fraction=0.5 if posture == "flank" else 0.0, **change)
    operating = operating_tones(chip, settings)
    plan = engine._engine_plan(chip, settings, operating)
    heater_w = experiments._heater_power_w(chip, thermal_batch(chip, settings, batch))
    temps = engine._thermal_stage(plan, heater_w)
    assert temps.shape == (*heater_w.shape, plan.steps + 1)
    assert np.array_equal(engine._thermal_stage(plan, heater_w[::3]), temps[::3])
    (tones, ops), t_star = operating, plan.channels.t_star
    for r in range(heater_w.shape[0]):
        assert np.array_equal(engine._thermal_stage(plan, heater_w[r:r + 1])[0], temps[r])
        oracle = np.array([exact_block_starts(par, tone.f_hz, dbm_to_watts(tone.p_dbm),
                                              op.t_star_k, heat, plan.pulse, plan.steps,
                                              settings.thermal_dt_s)
                           for par, tone, op, heat in zip(chip.bolometers, tones, ops,
                                                          heater_w[r])])
        rise = np.max(oracle - t_star)
        assert np.all(beyond_rounding(temps[r], oracle) <= 1e-12 * rise)
        per_step = np.zeros((chip.n_channels, plan.steps))
        per_step[:, plan.pulse] = heater_w[r][:, None]
        stepped, _ = scalar_thermal_oracle(chip, operating, per_step, settings.thermal_dt_s)
        step_error = 2e-7 * (settings.thermal_dt_s / 100e-9) ** 2 * rise
        assert np.all(np.abs(temps[r, :, :-1] - stepped) <= step_error)
    # the pre-pulse, and a run without heat throughout, sit at the operating
    # point, bit for bit; on the long fig3 record the state also settles bit
    # for bit under the pulse, after the first heater edge
    t_start, t_inf = np.array([engine._relaxations(plan, t) for t in temps]).transpose(1, 0, 2, 3)
    on = round(settings.pulse_start_s / settings.thermal_dt_s)
    assert np.all(t_start[..., :on] == t_star) and np.all(t_inf[..., :on] == t_star)
    assert np.all(temps[heater_w == 0.0] == np.broadcast_to(t_star, temps.shape)[heater_w == 0.0])
    if posture == "fig3":
        off = round((settings.pulse_start_s + settings.pulse_duration_s) / settings.thermal_dt_s)
        settled = np.all(t_start[..., on + 1:off] == t_start[..., on:off - 1], axis=(0, 1))
        assert settled.any() and not settled[0]


def per_tone_heater_w(chip, heater_tones):
    """The batch's heater powers tone by tone: each run's tones' _delivered_w on
    each channel, added in order by Python's sum, (runs, channels)."""
    return np.array([[sum(experiments._delivered_w(chip, ch, tone.f_hz, tone.p_dbm)
                          for tone in tones) for ch in range(chip.n_channels)]
                     for tones in heater_tones], dtype=float)


def test_heater_power_matches_per_tone_sum(default_chip, default_config):
    # the batch pads each run with silent tones and adds each channel's column
    # in tone order, so every power keeps its bits: the 8 trigger patterns
    # (0 to 3 tones), the 81 runs of the shipped sweep (1 tone each), and both
    # in one batch, where the sweep's runs are padded to 3 tones
    chip, settings = default_chip, default_config.settings
    patterns = [schedule_heaters(TriggerPattern.from_label(format(v, "03b")), chip.filters,
                                 chip.channel_map, settings.heater_power_dbm) for v in range(8)]
    ps = default_config.sweeps["powersweep"]
    powers = np.linspace(ps["p_min_dbm"], ps["p_max_dbm"], int(ps["n_points"])).tolist()
    sweep = [[ToneSpec(f_hz=filt.f_center_hz, p_dbm=p)] for filt in chip.filters for p in powers]
    assert len(sweep) == 81
    for batch in (patterns, sweep, patterns + sweep):
        got = experiments._heater_power_w(chip, batch)
        assert got.shape == (len(batch), chip.n_channels)
        assert got.tobytes() == per_tone_heater_w(chip, batch).tobytes()
    assert not experiments._heater_power_w(chip, patterns[:1]).any()


def test_multiplex_matched_response_consistency(noiseless_runs):
    # a channel's pulse response barely depends on which other heaters fire
    # alongside it: every matched response within 10% of that channel's mean
    # (noiseless, so this isolates model behavior from estimator scatter)
    for ch in range(3):
        resp = [run.metrics[ch].response
                for run in noiseless_runs.values() if run.pattern.bits[ch]]
        assert len(resp) == 4
        mean = float(np.mean(resp))
        for r in resp:
            assert abs(r - mean) <= 0.10 * mean


def test_multiplex_unheated_channels_silent_without_noise(noiseless_runs):
    # noiseless leakage responses stay a decade below any matched response
    matched_floor = min(
        run.metrics[ch].response
        for run in noiseless_runs.values()
        for ch in range(3) if run.pattern.bits[ch])
    for run in noiseless_runs.values():
        for ch in range(3):
            if not run.pattern.bits[ch]:
                assert abs(run.metrics[ch].response) < 0.10 * matched_floor


# ------------------------------------------------------------ probe sweeps


def test_probe_sweep_shapes_and_dip_position(default_chip):
    sweep, _ = characterize(default_chip, [-160.0, -144.0], span_linewidths=6.0, n_points=51,
                            allow_nonlinear=False)
    assert sweep.magnitude.shape == (3, 2, 51)
    assert not np.isnan(sweep.magnitude).any()
    for ch in range(3):
        # dip sits near the cold resonance at these powers
        i_min = int(np.argmin(sweep.magnitude[ch, 0]))
        par = default_chip.bolometers[ch]
        assert abs(sweep.f_hz[ch][i_min] - par.f_r0_hz) < 0.2 * par.kappa_total_hz


def test_probe_sweep_validation(default_chip):
    grids = [par.f_r0_hz + np.linspace(-1e6, 1e6, 11) for par in default_chip.bolometers]
    with pytest.raises(ValueError):
        run_probe_sweep(default_chip, [], grids, False)
    with pytest.raises(NonlinearOperationError):
        run_probe_sweep(default_chip, [-120.0], grids, False)
    with pytest.raises(ValueError, match="per channel"):
        run_probe_sweep(default_chip, [-144.0], [np.linspace(1e8, 2e8, 11)], False)
    with pytest.raises(ValueError, match="equal length"):
        run_probe_sweep(default_chip, [-144.0], [*grids[:2], grids[2][:5]], False)


@pytest.mark.parametrize("span", [math.nan, math.inf, -math.inf, 0.0, -2.0])
def test_probe_sweep_rejects_bad_span(default_chip, span):
    with pytest.raises(ValueError, match="span_linewidths must be finite and > 0"):
        characterize(default_chip, [-160.0], span_linewidths=span, n_points=11,
                     allow_nonlinear=False)


def test_characterize_recovers_chip_parameters(default_chip, default_config):
    sweep, fits = characterize(default_chip, **default_config.sweeps["characterize"],
                               allow_nonlinear=False)
    for ch, par in enumerate(default_chip.bolometers):
        fit = fits[ch][0]  # lowest power row is the headline estimate
        assert fit is not None
        assert abs(fit.f_r_hz - par.f_r0_hz) < 100.0
        assert fit.fwhm_hz == pytest.approx(par.kappa_total_hz, rel=0.05)


def test_characterize_dip_depth_shrinks_with_power(default_chip):
    powers = (-160.0, -150.0, -144.0, -137.0, -130.0)
    _, fits = characterize(default_chip, powers_dbm=powers, span_linewidths=6.0, n_points=201,
                           allow_nonlinear=False)
    for ch in range(3):
        depths = [f.depth for f in fits[ch]]
        assert all(f is not None for f in fits[ch])
        for a, b in zip(depths, depths[1:]):
            assert b <= a + 1e-12


def test_characterize_fits_rows_that_nan_cells_shortened(default_chip, monkeypatch):
    # NaN cells leave one channel rows of two lengths, and one row too short
    # to fit: each row's fit is its finite cells fitted alone, or None.  The
    # rows of all channels are stacked by length: the 161- and 201-point rows
    # make one solve each, and the 3-point row fails before any solve
    real, real_solve = experiments.run_probe_sweep, analysis._lm_least_squares
    solves = []

    def with_nan_cells(*args):
        sweep = real(*args)
        sweep.magnitude[1, 0, :40] = np.nan
        sweep.magnitude[1, 2, -40:] = np.nan
        sweep.magnitude[1, 3, 3:] = np.nan
        return sweep

    def counted(model, x, y, p0):
        solves.append(x.shape)
        return real_solve(model, x, y, p0)

    monkeypatch.setattr(experiments, "run_probe_sweep", with_nan_cells)
    monkeypatch.setattr(analysis, "_lm_least_squares", counted)
    sweep, fits = characterize(default_chip, (-160.0, -150.0, -144.0, -137.0),
                               span_linewidths=6.0, n_points=201, allow_nonlinear=False)
    assert sorted(solves) == [(2, 161), (9, 201)]
    assert [int(np.isfinite(row).sum()) for row in sweep.magnitude[1]] == [161, 201, 161, 3]
    assert fits[1][3] is None and None not in fits[1][:3]
    for ch in range(3):
        for row, fit in zip(sweep.magnitude[ch], fits[ch]):
            ok = np.isfinite(row)
            [alone] = fit_lorentzians([(sweep.f_hz[ch][ok], row[ok])])
            assert fit == (None if isinstance(alone, (FitError, ValueError)) else alone)


@pytest.fixture(scope="module")
def tiny_kappa_chip(default_chip):
    """Shipped chip whose middle bolometer has a 1e-70 Hz linewidth.

    Probed far off resonance its cubic overflows, so a sweep there has a
    cell with no finite steady state.
    """
    bolos = list(default_chip.bolometers)
    bolos[1] = replace(bolos[1], kappa_ext_hz=1e-70, kappa_int_hz=1e-70)
    return replace(default_chip, bolometers=tuple(bolos))


def scalar_gamma_at(par, f_p, p_w, extra=0.0):
    """Reflection at f_p in one cell's steady state, per-cell scalar reference."""
    t_e, multivalued = scalar_steady_state(par, f_p, p_w, extra)
    f_r = par.f_r0_hz - par.dfdt_hz_per_k * (t_e - par.t_bath_k)
    return _gamma(f_p - f_r, par.kappa_ext_hz, par.kappa_int_hz), multivalued


def test_probe_sweep_matches_per_cell_loop(tiny_kappa_chip):
    chip = tiny_kappa_chip
    grids = [par.f_r0_hz + np.linspace(-3.0, 3.0, 7) * par.kappa_total_hz
             for par in chip.bolometers]
    grids[1] = chip.bolometers[1].f_r0_hz + np.array([-1e3, -1.0, 0.0, 1.0, 1e3, 1e6, 1e10])
    powers = (-150.0, -144.0)
    sweep = run_probe_sweep(chip, powers, grids, False)
    mag = np.full(sweep.magnitude.shape, np.nan)
    multi = np.zeros(mag.shape, dtype=bool)
    bad = []
    for ch, par in enumerate(chip.bolometers):
        for pi, p_dbm in enumerate(powers):
            for fi, f in enumerate(grids[ch]):
                gamma, multi[ch, pi, fi] = scalar_gamma_at(par, float(f), dbm_to_watts(p_dbm))
                if np.isnan(gamma.real):
                    bad.append((ch, pi, fi))
                else:
                    mag[ch, pi, fi] = abs(gamma)
    assert bad == [(1, 0, 6), (1, 1, 6)]
    assert np.argwhere(np.isnan(sweep.magnitude)).tolist() == [list(cell) for cell in bad]
    np.testing.assert_allclose(sweep.magnitude, mag, rtol=1e-12, atol=0.0)
    assert np.array_equal(sweep.multivalued, multi) and multi.any()


def test_probe_sweep_is_one_kernel_call_per_power_bit_for_bit(tiny_kappa_chip):
    # each channel's one call over (powers, 1) x freqs gives every row of a
    # call per power, past the nonlinear threshold (allow_nonlinear), where
    # cells fold, and on the narrow channel, whose far cells are NaN
    chip, powers = tiny_kappa_chip, (-150.0, -120.0, -100.0)
    grids = [par.f_r0_hz + np.linspace(-3.0, 3.0, 41) * par.kappa_total_hz
             for par in chip.bolometers]
    grids[1] = chip.bolometers[1].f_r0_hz + np.linspace(-1e3, 1e10, 41)
    sweep = run_probe_sweep(chip, powers, grids, True)
    assert sweep.multivalued.any() and np.isnan(sweep.magnitude).any()
    for ch, par in enumerate(chip.bolometers):
        for pi, p_w in enumerate(device_watts(chip, powers)):
            _, _, gamma, multi = _steady_state(par, grids[ch], float(p_w))
            assert np.array_equal(sweep.magnitude[ch, pi], np.abs(gamma), equal_nan=True)
            assert np.array_equal(sweep.multivalued[ch, pi], multi)


def test_filter_sweep_matches_per_cell_loop(tiny_kappa_chip, default_settings):
    chip = tiny_kappa_chip
    grid = np.linspace(4.0e9, 8.0e9, 41)
    sweep = run_filter_sweep(chip, grid, heater_power_dbm=-145.0, settings=default_settings)
    tones, ops = operating_tones(chip, default_settings)
    p_heat_w = dbm_to_watts(-145.0 - chip.line_attenuation_db)
    resp = np.empty(sweep.response.shape)
    for ch, par in enumerate(chip.bolometers):
        for i, f_h in enumerate(grid):
            extra = p_heat_w * filter_transmission(chip.matched_filter(ch), float(f_h))
            gamma, _ = scalar_gamma_at(par, tones[ch].f_hz, dbm_to_watts(tones[ch].p_dbm),
                                       float(extra))
            resp[ch, i] = abs(gamma - ops[ch].gamma)
    assert np.all(np.isfinite(resp))
    np.testing.assert_allclose(sweep.response, resp, rtol=1e-12, atol=0.0)


def test_filter_sweep_lists_non_finite_cells(tiny_kappa_chip, default_settings):
    # a strong heater drives the narrow channel's cubic past overflow near
    # its filter's passband; cells out in the stopband still solve
    grid = np.linspace(4.0e9, 8.0e9, 41)
    sweep = run_filter_sweep(tiny_kappa_chip, grid, heater_power_dbm=-110.0,
                             settings=default_settings)
    nan_cells = np.argwhere(np.isnan(sweep.response))
    assert nan_cells.size and set(nan_cells[:, 0]) == {1}
    assert np.isfinite(sweep.response[1]).any()


# ----------------------------------------------------------- filter sweep


def test_filter_sweep_finds_every_filter(default_chip, default_settings):
    grid = np.linspace(4.0e9, 8.0e9, 401)
    sweep = run_filter_sweep(default_chip, grid, -145.0, default_settings)
    assert sweep.response.shape == (3, 401)
    assert not np.isnan(sweep.response).any()
    pitch = grid[1] - grid[0]
    peaks = sweep.peaks()
    for ch in range(3):
        f_pk, width = peaks[ch]
        f_center = default_chip.matched_filter(ch).f_center_hz
        fwhm = default_chip.matched_filter(ch).fwhm_hz
        assert abs(f_pk - f_center) <= pitch / 2
        assert width == pytest.approx(fwhm, rel=0.10)


def test_filter_sweep_response_is_positive_and_selective(default_chip, default_settings):
    grid = np.linspace(4.0e9, 8.0e9, 201)
    sweep = run_filter_sweep(default_chip, grid, -145.0, default_settings)
    assert np.all(sweep.response >= 0.0)
    for ch in range(3):
        y = sweep.response[ch]
        f_center = default_chip.matched_filter(ch).f_center_hz
        on_peak = y[np.argmin(np.abs(grid - f_center))]
        far = y[np.abs(grid - f_center) > 1e9]
        assert on_peak > 5 * np.max(far)


def test_filter_sweep_rejects_short_grid(default_chip, default_settings):
    with pytest.raises(ValueError):
        run_filter_sweep(default_chip, [4.4e9, 5.8e9], -145.0, default_settings)


@pytest.mark.parametrize("grid", [
    np.linspace(5e9, 4e9, 11),                 # inverted band
    np.full(11, 4.4e9),                        # f_min == f_max
    np.linspace(math.nan, 8e9, 2001),
    [4.0e9, 6.0e9, math.inf],
    [4.0e9, 4.4e9, 4.2e9, 5.0e9],              # not monotonic
])
def test_filter_sweep_rejects_unordered_or_non_finite_grid(default_chip, default_settings, grid):
    with pytest.raises(ValueError, match="finite and strictly increasing") as info:
        run_filter_sweep(default_chip, grid, -145.0, default_settings)
    assert "\n" not in str(info.value) and len(str(info.value)) < 120


# ----------------------------------------------------------- power sweeps


def device_watts(chip, powers_dbm):
    return np.array([dbm_to_watts(p - chip.line_attenuation_db) for p in powers_dbm])


def sweep_paths(chip, f_heater_hz, powers_dbm, settings):
    """_quiet_responses on chip over one share: one heater frequency's powers.
    Returns (n_bolometers, n_powers)."""
    runs = [[ToneSpec(f_hz=f_heater_hz, p_dbm=p)] for p in powers_dbm]
    return experiments._quiet_responses(chip, settings, runs).T


def test_power_sweep_linear_at_low_power(default_chip):
    f_heat = default_chip.matched_filter(0).f_center_hz
    powers = [-160.0, -157.5, -155.0, -152.5, -150.0]
    responses = sweep_paths(default_chip, f_heat, powers, FLANK)[0]
    gains = responses / device_watts(default_chip, powers)
    spread = (max(gains) - min(gains)) / np.mean(gains)
    assert spread < 0.02


def test_power_sweep_concave_in_linear_watts(default_chip):
    f_heat = default_chip.matched_filter(0).f_center_hz
    watts = np.linspace(1e-17, 4e-16, 10)
    powers = [watts_to_dbm(w) for w in watts]
    responses = sweep_paths(default_chip, f_heat, powers, FLANK)[0]
    second = np.diff(responses, n=2)
    assert np.all(second <= 1e-12 * max(responses))


@pytest.fixture(scope="module")
def shipped_matrix(default_chip, default_config):
    """(powers, power_sweep_matrix result, every run's dense-step mask) of the
    shipped powersweep."""
    ps = default_config.sweeps["powersweep"]
    powers = np.linspace(ps["p_min_dbm"], ps["p_max_dbm"], int(ps["n_points"]))
    with pytest.MonkeyPatch.context() as monkeypatch:
        masks = record_dense_steps(monkeypatch)
        result = power_sweep_matrix(default_chip, powers, default_config.settings)
    return powers, result, masks


def test_power_sweep_fit_yields_compression_point(default_chip, shipped_matrix):
    powers, (_, _, p1db, _), _ = shipped_matrix
    matched = p1db[1, default_chip.channel_map[1]]
    assert powers[0] < matched < powers[-1]


# the shipped powersweep's 1 dB points and crosstalk extremes as the benchmark
# records them (noiseless, so the same for every seed), and its tolerance
SHIPPED_P1DB_DBM = [
    [-121.00648370891864, -142.52095180237202, -123.1689100501485],
    [-143.70649836621325, -131.61711604062145, -131.60603380648132],
    [-122.58658752043546, -118.00057136549887, -144.8443689911021],
]
SHIPPED_WORST_DB, SHIPPED_BEST_DB = -12.0893823255918, -26.84379762560323
P1DB_TOLERANCE_DB = 1e-3


def test_power_sweep_matrix_matches_the_recorded_reference(shipped_matrix):
    _, (_, _, p1db, xtalk), _ = shipped_matrix
    assert np.max(np.abs(p1db - SHIPPED_P1DB_DBM)) <= P1DB_TOLERANCE_DB
    assert abs(xtalk.worst_db - SHIPPED_WORST_DB) <= P1DB_TOLERANCE_DB
    assert abs(xtalk.best_db - SHIPPED_BEST_DB) <= P1DB_TOLERANCE_DB


def test_power_sweep_sums_few_steps_sample_by_sample(default_chip, shipped_matrix):
    # 325 of the 243,000 (run, channel, step) rows of the shipped sweep pass
    # the expansion bound on the Chebyshev ratio |beta| (659 passed the power
    # series' bound on rho, about 2 |beta|); a bound that slipped toward
    # all-dense, or a series that converged more slowly, shows here
    powers, _, masks = shipped_matrix
    assert len(masks) == len(default_chip.filters) * len(powers)
    assert sum(mask.size for mask in masks) == 243_000
    assert 0 < sum(int(mask.sum()) for mask in masks) <= 330


def test_power_sweep_mismatched_path_attenuated_by_floor(default_chip):
    # equal source power through the wrong filter: response drops by the
    # configured stopband floor (linear regime, so the ratio is the floor)
    matched_f = default_chip.matched_filter(1).f_center_hz
    wrong_f = 5.8e9
    floor_db = default_chip.matched_filter(1).floor_db_at(wrong_f)
    powers = [-152.0, -150.0]
    matched = sweep_paths(default_chip, matched_f, powers, FLANK)[1]
    leaked = sweep_paths(default_chip, wrong_f, powers, FLANK)[1]
    for r_m, r_l in zip(matched, leaked):
        ratio_db = 10 * np.log10(r_l / r_m)
        assert ratio_db == pytest.approx(floor_db, abs=1.0)


def test_power_sweep_validation(default_chip, default_settings):
    with pytest.raises(ValueError, match="sorted"):
        power_sweep_matrix(default_chip, [-150.0, -160.0], default_settings)
    with pytest.raises(ValueError, match="non-empty"):
        power_sweep_matrix(default_chip, [], default_settings)


SHORT_POWERS_DBM = [-155.0, -140.0, -125.0, -112.5, -100.0, -90.0]


def test_power_sweep_matrix_raises_the_first_failed_paths_error(default_chip, default_settings,
                                                               monkeypatch):
    # the n x n compression fits are one call; of two paths that cannot be
    # fitted, the first in (i, j) order raises what it raises fitted alone
    real, n_p = experiments._quiet_responses, len(SHORT_POWERS_DBM)

    def with_bad_paths(*args):
        paths = real(*args)
        paths[2 * n_p:3 * n_p, 1] = 0.5   # path (1, 2): flat
        paths[:n_p, 2] = -1.0             # path (2, 0): not positive
        return paths

    monkeypatch.setattr(experiments, "_quiet_responses", with_bad_paths)
    with pytest.raises(FitError) as raised:
        power_sweep_matrix(default_chip, SHORT_POWERS_DBM, default_settings)
    powers_w = device_watts(default_chip, SHORT_POWERS_DBM)
    [alone] = fit_compressions([(powers_w, np.full(n_p, 0.5))])
    assert isinstance(alone, FitError) and str(raised.value) == str(alone)


@pytest.fixture(scope="module")
def short_matrix(default_chip):
    return FLANK, power_sweep_matrix(default_chip, SHORT_POWERS_DBM, FLANK)


@pytest.mark.parametrize("batch", ["powersweep", "multiplex", "calibrate"])
def test_power_sweep_matrix_runs_each_drive_once(default_chip, default_settings, monkeypatch,
                                                 batch):
    # each time-domain batch is set up once: one operating-tone solve, one
    # engine plan and one thermal pass of every (run, channel) in the batch,
    # then one per-run readout per run, read on every bolometer.  The power
    # sweep's (filter, power) runs and calibration's all-on run are
    # noiseless, so none derives a noise stream; a multiplex run derives
    # (seed, _KIND_TRIGGER, v) for its pattern v
    calls, passes, plans, tone_calls, streams = [], [], [], [], []
    run = experiments._timedomain_run
    thermal = experiments._thermal_stage
    plan_of = experiments._engine_plan
    tones = experiments.operating_tones
    derive = experiments.derive_stream

    def counted(*args, **kwargs):
        calls.append(args)
        return run(*args, **kwargs)

    def counted_thermal(plan, heater_w):
        passes.append(heater_w.shape)
        return thermal(plan, heater_w)

    def counted_plan(*args):
        plans.append(args)
        return plan_of(*args)

    def counted_tones(*args):
        tone_calls.append(args)
        return tones(*args)

    def counted_derive(*args):
        streams.append(args)
        return derive(*args)

    monkeypatch.setattr(experiments, "_timedomain_run", counted)
    monkeypatch.setattr(experiments, "_thermal_stage", counted_thermal)
    monkeypatch.setattr(experiments, "_engine_plan", counted_plan)
    monkeypatch.setattr(experiments, "operating_tones", counted_tones)
    monkeypatch.setattr(experiments, "derive_stream", counted_derive)
    if batch == "powersweep":
        power_sweep_matrix(default_chip, SHORT_POWERS_DBM, default_settings)
        runs, expected = len(default_chip.filters) * len(SHORT_POWERS_DBM), []
    elif batch == "multiplex":
        run_full_multiplex(default_chip, default_settings, Seed(3))
        runs = 2 ** default_chip.n_channels
        expected = [(Seed(3), _KIND_TRIGGER, v) for v in range(runs)]
    else:
        calibrate_chip(default_chip, default_settings)
        runs, expected = 1, []
    assert len(calls) == runs
    assert passes == [(runs, default_chip.n_channels)]
    assert len(plans) == len(tone_calls) == 1
    assert [args[3] for args in calls] == (expected or [None] * runs)
    assert streams == expected


def test_power_sweep_path_allocates_one_gamma_matrix(default_chip):
    # a noiseless path holds no array at the digitizer rate: its traced peak
    # (the engine plan, the thermal pass and one run's readout, at -90 dBm
    # with 15 steps summed sample by sample) is 0.96 complex (steps x block)
    # matrices (one is 1.53 MiB on the shipped posture), and a real float64
    # (steps x block) array on top (half a matrix) would pass 1.25
    settings = FLANK
    n = round(settings.window_s * default_chip.sample_rate_hz)
    matrix_bytes = np.dtype(complex).itemsize * n
    f_heater = default_chip.filters[0].f_center_hz
    # once untraced, so cached twiddle tables are not counted
    sweep_paths(default_chip, f_heater, SHORT_POWERS_DBM, settings)
    tracemalloc.start()
    try:
        sweep_paths(default_chip, f_heater, SHORT_POWERS_DBM, settings)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * matrix_bytes


def test_power_sweep_matrix_peak_memory(default_chip, default_config):
    # the shipped 27-power sweep, every run in one pass at one thread: its
    # traced peak (the plan, the pass's rows for all 81 runs and one run's
    # readout) is 2.33 complex (steps x block) matrices.  The bound is the
    # peak of the sweep that made one pass per filter, 2.498-2.503 matrices
    # (4.0 MB) over three traced calls
    ps = default_config.sweeps["powersweep"]
    powers = np.linspace(ps["p_min_dbm"], ps["p_max_dbm"], int(ps["n_points"]))
    n = round(default_config.settings.window_s * default_chip.sample_rate_hz)
    matrix_bytes = np.dtype(complex).itemsize * n
    # once untraced, so cached twiddle tables are not counted
    power_sweep_matrix(default_chip, powers, default_config.settings)
    tracemalloc.start()
    try:
        power_sweep_matrix(default_chip, powers, default_config.settings)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * matrix_bytes


def test_noisy_batch_holds_no_noise_record(default_chip, default_settings):
    # the eight desk patterns as one batch: the noisy batch draws each run's
    # noise in the band, so its traced peak stays within 0.1 real (steps x
    # block) record (800 kB on the shipped posture) of the quiet batch's; a
    # drawn record and its transform would put it 1.7 records above
    n = round(default_settings.window_s * default_chip.sample_rate_hz)
    record_bytes = np.dtype(float).itemsize * n
    patterns = TriggerPattern.all_patterns(default_chip.n_channels)
    peaks = []
    for chip in (replace(default_chip, noise_sigma_v=0.0), default_chip):
        # once untraced, so cached transform kernels are not counted
        experiments._trigger_runs(chip, patterns, default_settings, Seed(3))
        tracemalloc.start()
        try:
            experiments._trigger_runs(chip, patterns, default_settings, Seed(3))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 0.1 * record_bytes


def test_multiplex_derives_one_stream_per_pattern(default_chip, default_settings, monkeypatch):
    streams = []
    derive = experiments.derive_stream

    def counted_derive(*args):
        streams.append(args[1:])
        return derive(*args)

    monkeypatch.setattr(experiments, "derive_stream", counted_derive)
    settings = replace(default_settings, window_s=20e-6, pulse_start_s=5e-6,
                       pulse_duration_s=5e-6, baseline_window_s=(1e-6, 4e-6),
                       signal_window_s=(11e-6, 12e-6))
    run_full_multiplex(default_chip, settings, Seed(3))
    assert streams == [(_KIND_TRIGGER, v) for v in range(2 ** default_chip.n_channels)]


def direct_responses(chip, tone, settings, operating):
    """Every bolometer's response_metric response in one direct noiseless
    single-pulse run under the heater tone: the seam's IQ of the run alone,
    each channel's row as an IQTrace at the output rate."""
    rate = chip.sample_rate_hz / round(chip.sample_rate_hz / settings.output_rate_hz)
    iq = seam_iq(chip, [tone], settings, operating, Seed(0), ())
    return [response_metric(IQTrace(probe.f_hz, rate, 0.0, row), settings.baseline_window_s,
                            settings.signal_window_s).response
            for probe, row in zip(operating[0], iq)]


def test_power_sweep_matrix_matches_direct_runs(default_chip, short_matrix):
    # oracle: responses[i, j, p] is bolometer i's response in a direct
    # noiseless single-pulse run at filter j's center and power p
    settings, (responses, powers_w, _, _) = short_matrix
    assert np.array_equal(powers_w, device_watts(default_chip, SHORT_POWERS_DBM))
    quiet = replace(default_chip, noise_sigma_v=0.0)
    operating = operating_tones(quiet, settings)
    for j, filt in enumerate(default_chip.filters):
        for p, p_dbm in enumerate(SHORT_POWERS_DBM):
            direct = direct_responses(quiet, ToneSpec(f_hz=filt.f_center_hz, p_dbm=p_dbm),
                                      settings, operating)
            assert responses[:, j, p].tolist() == direct


def test_power_sweep_matrix_loads_no_masked_arrays():
    # np.median imports numpy.ma, 11-19 ms per process; the compression
    # fits take their median without it
    code = ("import sys, numpy as np; from bolomux.config import load_config; "
            "from bolomux.experiments import power_sweep_matrix; cfg = load_config(None); "
            "ps = cfg.sweeps['powersweep']; power_sweep_matrix(cfg.chip, np.linspace("
            "ps['p_min_dbm'], ps['p_max_dbm'], int(ps['n_points'])), cfg.settings); "
            "print('numpy.ma' in sys.modules)")
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


_OTHER_THREADS_CPU = """
import time
import numpy as np
from bolomux.config import load_config
from bolomux.experiments import characterize, power_sweep_matrix, run_full_multiplex

def settled_other_threads_s():
    # BLAS worker threads spin for a while after their last task: wait until
    # their CPU stops rising, then read it
    seen, still, deadline = -1.0, 0, time.monotonic() + 5.0
    while still < 2 and time.monotonic() < deadline:
        time.sleep(0.05)
        now = time.process_time() - time.thread_time()
        still, seen = (still + 1 if abs(now - seen) < 1e-3 else 0), now
    return seen

cfg = load_config(None)
before, main0 = settled_other_threads_s(), time.thread_time()
run_full_multiplex(cfg.chip, cfg.settings, cfg.seed)
ps = cfg.sweeps["powersweep"]
power_sweep_matrix(cfg.chip, np.linspace(ps["p_min_dbm"], ps["p_max_dbm"], int(ps["n_points"])),
                   cfg.settings)
characterize(cfg.chip, **cfg.sweeps["characterize"], allow_nonlinear=cfg.settings.allow_nonlinear)
main_s = time.thread_time() - main0
print(settled_other_threads_s() - before, main_s)
"""


def test_the_engine_stays_single_threaded():
    # a multithreaded BLAS call wakes worker threads that spin for the rest of
    # the call and beyond; the engine, sweeps and fits run on the main thread,
    # so the other threads' CPU stays a small share of its CPU.  Every bolomux
    # entry point imports bolomux before numpy, which loads OpenBLAS at one
    # thread, so there no worker is ever started; this script imports numpy
    # first, so OpenBLAS keeps its default pool and a threaded call would show
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = {key: value for key, value in os.environ.items() if not key.endswith("_NUM_THREADS")}
    out = subprocess.run([sys.executable, "-c", _OTHER_THREADS_CPU], capture_output=True,
                         text=True, check=True, env={**env, "PYTHONPATH": src})
    other_s, main_s = map(float, out.stdout.split())
    assert main_s > 0.0 and other_s < 0.1 * main_s, (other_s, main_s)


def test_power_sweep_paths_do_not_depend_on_the_batch(default_chip, short_matrix):
    # the short sweep's 18 (filter, power) runs as one batch, which is what
    # power_sweep_matrix runs, or cut into 2 to 5 contiguous batches of 9, 6,
    # 4-5 and 3-4 runs, most cutting across a filter boundary: a batch's
    # composition decides where the thermal pass fast-forwards, and moves no
    # number
    settings, (responses, *_) = short_matrix
    runs = [[ToneSpec(f_hz=filt.f_center_hz, p_dbm=p)]
            for filt in default_chip.filters for p in SHORT_POWERS_DBM]
    whole = experiments._quiet_responses(default_chip, settings, runs)
    assert whole.T.reshape(responses.shape).tobytes() == responses.tobytes()
    for k in (2, 3, 4, 5):
        cuts = [runs[i * len(runs) // k:(i + 1) * len(runs) // k] for i in range(k)]
        parts = [experiments._quiet_responses(default_chip, settings, cut) for cut in cuts]
        assert np.concatenate(parts).tobytes() == whole.tobytes()


# ------------------------------------------------------- pulse time constant


def decay_tau_s(t_s, magnitude, baseline):
    """Time constant of a relaxation toward baseline: a straight line through
    log(magnitude - baseline), up to where the decay falls below 1% of its
    first value.  Without that cut the 4 us channel reads +16%: its tail
    reaches the band slice's ringing, which crosses the baseline."""
    decay = magnitude - baseline
    below = np.flatnonzero(decay < 0.01 * decay[0])
    n = below[0] if below.size else decay.size
    slope, _ = np.polyfit(t_s[:n], np.log(decay[:n]), 1)
    return -1.0 / slope


def test_pulse_decay_recovers_time_constants(noiseless_chip):
    # flank posture, weak matched heater: the post-pulse magnitude relaxes
    # with the channel's thermal time constant
    settings = replace(FLANK, heater_power_dbm=-150.0, n_avg=1)
    t_end = settings.pulse_start_s + settings.pulse_duration_s
    for ch in range(3):
        label = "".join("1" if k == ch else "0" for k in range(3))
        run = run_trigger(noiseless_chip, TriggerPattern.from_label(label),
                          settings, Seed(0))
        iq = run.iq[ch]
        t = iq.times()
        keep = (t >= t_end + 2e-6) & (t <= 95e-6)
        tau = decay_tau_s(t[keep], iq.magnitude()[keep], run.metrics[ch].baseline_mean)
        assert tau == pytest.approx(noiseless_chip.bolometers[ch].tau_th_s, rel=0.02)


# -------------------------------------------------------- probe isolation


def test_halving_thermal_step_leaves_metrics_unchanged(noiseless_chip,
                                                       default_settings):
    # the stepping is second order in dt: halving the shipped 100 ns step moves
    # each reported number by at most 1.15e-7 (response), 1.2e-12
    # (baseline_mean), 1.24e-6 (baseline_std, the noiseless pulse's ringing)
    # and 2.2e-9 (signal_mean), relative; each bound is twice that
    bounds = {"response": 2.5e-7, "baseline_mean": 2.5e-12, "baseline_std": 2.5e-6,
              "signal_mean": 4.5e-9}
    coarse_settings = replace(default_settings, n_avg=1, thermal_dt_s=100e-9)
    fine_settings = replace(default_settings, n_avg=1, thermal_dt_s=50e-9)
    pattern = TriggerPattern.from_label("111")
    coarse = run_trigger(noiseless_chip, pattern, coarse_settings, Seed(0))
    fine = run_trigger(noiseless_chip, pattern, fine_settings, Seed(0))
    for m_c, m_f in zip(coarse.metrics, fine.metrics):
        for name, bound in bounds.items():
            a = getattr(m_c, name)
            b = getattr(m_f, name)
            scale = max(abs(a), abs(b), 1e-30)
            assert abs(a - b) / scale < bound


def test_probe_comb_does_not_disturb_neighbors(noiseless_chip, default_settings):
    # channel 0 read out alone versus inside the full three-tone comb
    settings = replace(default_settings, n_avg=1)
    full = run_trigger(noiseless_chip, TriggerPattern.from_label("100"),
                       settings, Seed(0))
    solo_chip = ChipConfig(
        bolometers=(noiseless_chip.bolometers[0],),
        filters=(noiseless_chip.matched_filter(0),),
        channel_map=(0,),
        noise_sigma_v=0.0,
        sample_rate_hz=noiseless_chip.sample_rate_hz,
        line_attenuation_db=noiseless_chip.line_attenuation_db,
    )
    solo = run_trigger(solo_chip, TriggerPattern.from_label("1"), settings, Seed(0))
    r_full = full.metrics[0].response
    r_solo = solo.metrics[0].response
    assert abs(r_full - r_solo) / abs(r_solo) < 0.01


# ------------------------------------------------------------- calibration


def test_calibration_closed_loop(default_chip, default_settings, monkeypatch):
    # detune the chip, then ask calibration to pull it back onto target; the
    # noise follows from one noiseless all-on run, so the chip's own noise
    # does not matter
    warped = replace(
        default_chip,
        bolometers=tuple(replace(b, dfdt_hz_per_k=2.5 * b.dfdt_hz_per_k)
                         for b in default_chip.bolometers),
    )
    batches = []
    iq_runs = experiments._iq_runs

    def counted(chip, settings, heater_tones, streams):
        batches.append((chip.noise_sigma_v, heater_tones, streams))
        return iq_runs(chip, settings, heater_tones, streams)

    monkeypatch.setattr(experiments, "_iq_runs", counted)
    cal_chip, report = calibrate_chip(warped, default_settings)
    all_on = schedule_heaters(TriggerPattern.from_label("111"), warped.filters,
                              warped.channel_map, default_settings.heater_power_dbm)
    assert batches == [(0.0, [all_on], None)]
    for entry in report["channels"]:
        err = abs(entry["achieved_shift_hz"] - entry["target_shift_hz"])
        assert err <= experiments._CAL_SHIFT_TOLERANCE * entry["target_shift_hz"] * 1.001
    noise = report["noise"]
    assert noise["sigma_v"] == cal_chip.noise_sigma_v
    assert noise["target_snr"] == experiments._CAL_SNR
    # the weakest expected SNR of the tuned chip, outside the calibration loop
    quiet = run_trigger(replace(cal_chip, noise_sigma_v=0.0), TriggerPattern.from_label("111"),
                        default_settings, Seed(0))
    floor = predicted_floor(cal_chip, default_settings)
    expected = [m.response / floor for m in quiet.metrics]
    assert min(expected) == pytest.approx(experiments._CAL_SNR, rel=1e-12)
    assert noise["expected_snr"] == pytest.approx(expected, rel=1e-12)
    # at four times the noise, the same chip comes back
    again, _ = calibrate_chip(replace(warped, noise_sigma_v=4.0 * warped.noise_sigma_v),
                              default_settings)
    assert again == cal_chip


@pytest.mark.parametrize("fraction", [0.0, 0.5])
def test_calibration_meets_the_shift_target(default_chip, default_settings, fraction):
    # dfdt comes from the explicit power balance at the placed tone, so each
    # channel's matched-heater shift is its target, in the dip and the flank
    # posture alike
    settings = replace(default_settings, probe_detuning_fraction=fraction)
    _, report = calibrate_chip(default_chip, settings)
    for entry in report["channels"]:
        assert entry["achieved_shift_hz"] == pytest.approx(entry["target_shift_hz"], rel=1e-6)


def test_calibration_shift_is_read_at_the_run_tone(default_chip, default_settings):
    # calibration places the probe where the runs do: each reported shift is
    # the one a matched heater causes at the calibrated chip's probe tone
    cal_chip, report = calibrate_chip(default_chip, default_settings)
    tones, ops = operating_tones(cal_chip, default_settings)
    for ch, par in enumerate(cal_chip.bolometers):
        filt = cal_chip.matched_filter(ch)
        extra = (dbm_to_watts(experiments._CAL_HEATER_POWER_DBM)
                 * filter_transmission(filt, filt.f_center_hz))
        heated = solve_operating_point(par, tones[ch].f_hz, dbm_to_watts(tones[ch].p_dbm),
                                       extra_power_w=extra)
        assert report["channels"][ch]["achieved_shift_hz"] == \
            ops[ch].f_r_star_hz - heated.f_r_star_hz


def test_calibration_rejects_unreachable_shift(default_chip, default_settings):
    # 200 dB of line loss leaves the matched heater too weak to shift any
    # resonance by half a linewidth: the probe's own heating falls as the
    # resonance moves off it, so no positive dfdt closes the balance
    with pytest.raises(CalibrationError, match="not reachable"):
        calibrate_chip(replace(default_chip, line_attenuation_db=200.0), default_settings)


def test_calibration_rejects_non_positive_response(default_chip, default_settings):
    # probing below the resonance, heating pulls the dip onto the probe and
    # |IQ| falls: no noise level gives a positive SNR target
    below = replace(default_settings, probe_detuning_fraction=-0.5)
    with pytest.raises(CalibrationError, match="not positive"):
        calibrate_chip(default_chip, below)
