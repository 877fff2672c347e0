"""End-to-end measurement drivers on the shipped chip: trigger patterns,
sweeps, and calibration."""

import time
from dataclasses import replace

import numpy as np
import pytest

from bolomux.analysis import fit_exponential
from bolomux.device import solve_operating_point
from bolomux.experiments import (
    PRESETS,
    _fan_out,
    CalibrationError,
    CalibrationTargets,
    ChipConfig,
    NonlinearOperationError,
    RunSettings,
    apply_preset,
    calibrate_chip,
    characterize,
    operating_tones,
    power_sweep_matrix,
    run_filter_sweep,
    run_full_multiplex,
    run_power_sweep,
    run_probe_sweep,
    run_trigger,
)
from bolomux.frontend import TriggerPattern
from bolomux.units import Seed, dbm_to_watts, watts_to_dbm


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


def test_settings_defaults_skip_settling():
    # metrics never look at the first 10 us of the record
    s = RunSettings()
    assert s.baseline_window_s[0] >= 10e-6
    assert s.signal_window_s[0] > s.baseline_window_s[1]


def test_settings_validation(default_chip):
    with pytest.raises(ValueError):
        RunSettings(n_avg=0)
    with pytest.raises(ValueError):
        RunSettings(window_s=-1.0)
    with pytest.raises(ValueError):
        RunSettings(pulse_start_s=-1e-6)
    ok = RunSettings()
    ok.validate_against(default_chip)
    with pytest.raises(ValueError, match="thermal"):
        RunSettings(thermal_dt_s=150.4e-9).validate_against(default_chip)
    with pytest.raises(ValueError, match="divide"):
        RunSettings(output_rate_hz=3e8).validate_against(default_chip)
    with pytest.raises(ValueError, match="pulse"):
        RunSettings(pulse_start_s=95e-6).validate_against(default_chip)
    with pytest.raises(ValueError, match="baseline window must end"):
        RunSettings(baseline_window_s=(10e-6, 60e-6)).validate_against(default_chip)
    with pytest.raises(ValueError, match="inside"):
        RunSettings(signal_window_s=(90e-6, 120e-6)).validate_against(default_chip)


def test_presets(default_chip, default_settings):
    assert PRESETS == ("desk", "paper", "fig3")
    chip, settings = apply_preset(default_chip, default_settings, "desk")
    assert chip == default_chip and settings == default_settings
    chip, settings = apply_preset(default_chip, default_settings, "paper")
    assert chip.sample_rate_hz == 6e9
    assert chip.noise_sigma_v == pytest.approx(10 * default_chip.noise_sigma_v)
    assert settings.n_avg == 10_000
    chip, settings = apply_preset(default_chip, default_settings, "fig3")
    assert settings.window_s == 2e-3
    assert settings.pulse_duration_s == 1e-3
    assert settings.n_avg == 2 ** 14
    settings.validate_against(chip)
    with pytest.raises(ValueError, match="preset"):
        apply_preset(default_chip, default_settings, "bench")


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
        assert abs(op.residual_w) < 1e-18
        assert not op.multivalued


def test_operating_tones_flank_posture(default_chip, default_settings):
    settings = replace(default_settings, probe_detuning_fraction=0.5)
    tones, ops = operating_tones(default_chip, settings)
    grid = 1.0 / settings.window_s
    for tone, op, par in zip(tones, ops, default_chip.bolometers):
        offset = tone.f_hz - op.f_r_star_hz
        assert offset == pytest.approx(0.5 * par.kappa_total_hz, abs=2 * grid)


def test_operating_tones_nonlinear_guard(default_chip, default_settings):
    hot = replace(default_settings, probe_power_dbm=-124.0)
    with pytest.raises(NonlinearOperationError, match="allow_nonlinear"):
        operating_tones(default_chip, hot)
    tones, _ = operating_tones(default_chip, replace(hot, allow_nonlinear=True))
    assert len(tones) == default_chip.n_channels


# ----------------------------------------------------------- trigger runs


def test_trigger_single_channel_pattern(default_chip, default_settings):
    run = run_trigger(default_chip, TriggerPattern.from_label("001"),
                      default_settings, Seed(15))
    assert run.pattern.label == "001"
    assert run.n_avg == default_settings.n_avg
    # only the triggered channel responds; the others stay in the noise
    assert run.metrics[2].snr > 5.0
    assert abs(run.metrics[0].snr) < 1.0
    assert abs(run.metrics[1].snr) < 1.0


def test_trigger_all_off_and_all_on(default_chip, default_settings):
    quiet = run_trigger(default_chip, TriggerPattern.from_label("000"),
                        default_settings, Seed(15))
    assert all(abs(m.snr) < 1.0 for m in quiet.metrics)
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


def test_multiplex_matched_beats_leakage(mux15):
    n = 3
    matched, leaked = [], []
    for run in mux15:
        for ch in range(n):
            if run.pattern.bits[ch]:
                matched.append(run.metrics[ch].snr)
            else:
                leaked.append(abs(run.metrics[ch].snr))
    assert min(matched) > 5.0
    assert max(leaked) < 1.0


def test_multiplex_threaded_schedule_is_bit_identical(default_chip):
    settings = RunSettings(n_avg=10)
    serial = run_full_multiplex(default_chip, settings, Seed(15), threads=1)
    threaded = run_full_multiplex(default_chip, settings, Seed(15), threads=4)
    for a, b in zip(serial, threaded):
        assert a.metrics == b.metrics
        for x, y in zip(a.iq, b.iq):
            assert np.array_equal(x.samples, y.samples)


def test_fan_out_keeps_job_order():
    # later jobs finish first; results still come back in job order
    def job(i):
        time.sleep(0.002 * (8 - i))
        return i * i

    jobs = [(i,) for i in range(8)]
    assert _fan_out(job, jobs, 4) == [i * i for i in range(8)]
    assert _fan_out(job, jobs, 1) == [i * i for i in range(8)]
    with pytest.raises(ValueError, match="threads"):
        _fan_out(job, jobs, 0)


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


def test_probe_sweep_shapes_and_normalization(default_chip):
    sweep = run_probe_sweep(default_chip, [-160.0, -144.0], n_points=51)
    assert sweep.magnitude.shape == (3, 2, 51)
    assert sweep.unconverged == ()
    for ch in range(3):
        for pi in range(2):
            row = sweep.normalized[ch, pi]
            assert np.min(row) == 0.0
            assert np.max(row) == 1.0
        # dip sits near the cold resonance at these powers
        i_min = int(np.argmin(sweep.magnitude[ch, 0]))
        par = default_chip.bolometers[ch]
        assert abs(sweep.f_hz[ch][i_min] - par.f_r0_hz) < 0.2 * par.kappa_total_hz


def test_probe_sweep_validation(default_chip):
    with pytest.raises(ValueError):
        run_probe_sweep(default_chip, [])
    with pytest.raises(NonlinearOperationError):
        run_probe_sweep(default_chip, [-120.0])
    with pytest.raises(ValueError, match="per channel"):
        run_probe_sweep(default_chip, [-144.0], f_hz=[np.linspace(1e8, 2e8, 11)])


def test_characterize_recovers_chip_parameters(default_chip):
    sweep, fits = characterize(default_chip)
    for ch, par in enumerate(default_chip.bolometers):
        fit = fits[ch][0]  # lowest power row is the headline estimate
        assert fit is not None
        assert abs(fit.f_r_hz - par.f_r0_hz) < 100.0
        assert fit.fwhm_hz == pytest.approx(par.kappa_total_hz, rel=0.05)


def test_characterize_dip_depth_shrinks_with_power(default_chip):
    powers = (-160.0, -150.0, -144.0, -137.0, -130.0)
    _, fits = characterize(default_chip, powers_dbm=powers)
    for ch in range(3):
        depths = [f.depth for f in fits[ch]]
        assert all(f is not None for f in fits[ch])
        for a, b in zip(depths, depths[1:]):
            assert b <= a + 1e-12


# ----------------------------------------------------------- filter sweep


def test_filter_sweep_finds_every_filter(default_chip):
    grid = np.linspace(4.0e9, 8.0e9, 401)
    sweep = run_filter_sweep(default_chip, grid, heater_power_dbm=-145.0)
    assert sweep.response.shape == (3, 401)
    assert sweep.unconverged == ()
    pitch = grid[1] - grid[0]
    peaks = sweep.peaks()
    for ch in range(3):
        f_pk, width = peaks[ch]
        f_center = default_chip.matched_filter(ch).f_center_hz
        fwhm = default_chip.matched_filter(ch).fwhm_hz
        assert abs(f_pk - f_center) <= pitch / 2
        assert width == pytest.approx(fwhm, rel=0.10)


def test_filter_sweep_response_is_positive_and_selective(default_chip):
    grid = np.linspace(4.0e9, 8.0e9, 201)
    sweep = run_filter_sweep(default_chip, grid, heater_power_dbm=-145.0)
    assert np.all(sweep.response >= 0.0)
    for ch in range(3):
        y = sweep.response[ch]
        f_center = default_chip.matched_filter(ch).f_center_hz
        on_peak = y[np.argmin(np.abs(grid - f_center))]
        far = y[np.abs(grid - f_center) > 1e9]
        assert on_peak > 5 * np.max(far)


def test_filter_sweep_rejects_short_grid(default_chip):
    with pytest.raises(ValueError):
        run_filter_sweep(default_chip, [4.4e9, 5.8e9])


# ----------------------------------------------------------- power sweeps


def test_power_sweep_linear_at_low_power(default_chip):
    f_heat = default_chip.matched_filter(0).f_center_hz
    powers = [-160.0, -157.5, -155.0, -152.5, -150.0]
    sweep = run_power_sweep(default_chip, 0, f_heat, powers)
    gains = [r / w for r, w in zip(sweep.responses, sweep.powers_w)]
    spread = (max(gains) - min(gains)) / np.mean(gains)
    assert spread < 0.02


def test_power_sweep_concave_in_linear_watts(default_chip):
    f_heat = default_chip.matched_filter(0).f_center_hz
    watts = np.linspace(1e-17, 4e-16, 10)
    powers = [watts_to_dbm(w) for w in watts]
    sweep = run_power_sweep(default_chip, 0, f_heat, powers)
    second = np.diff(np.array(sweep.responses), n=2)
    assert np.all(second <= 1e-12 * max(sweep.responses))


def test_power_sweep_fit_yields_compression_point(default_chip, default_config):
    ps = default_config.sweeps["powersweep"]
    powers = np.linspace(ps["p_min_dbm"], ps["p_max_dbm"], int(ps["n_points"]))
    f_heat = default_chip.matched_filter(1).f_center_hz
    sweep = run_power_sweep(default_chip, 1, f_heat, [float(p) for p in powers])
    fit = sweep.fit()
    assert powers[0] < fit.p_1db_dbm < powers[-1]
    assert fit.p_sat_w > 0


def test_power_sweep_mismatched_path_attenuated_by_floor(default_chip):
    # equal source power through the wrong filter: response drops by the
    # configured stopband floor (linear regime, so the ratio is the floor)
    matched_f = default_chip.matched_filter(1).f_center_hz
    wrong_f = 5.8e9
    floor_db = default_chip.matched_filter(1).floor_db_at(wrong_f)
    powers = [-152.0, -150.0]
    matched = run_power_sweep(default_chip, 1, matched_f, powers)
    leaked = run_power_sweep(default_chip, 1, wrong_f, powers)
    for r_m, r_l in zip(matched.responses, leaked.responses):
        ratio_db = 10 * np.log10(r_l / r_m)
        assert ratio_db == pytest.approx(floor_db, abs=1.0)


def test_power_sweep_validation(default_chip):
    f_heat = default_chip.matched_filter(0).f_center_hz
    with pytest.raises(ValueError, match="sorted"):
        run_power_sweep(default_chip, 0, f_heat, [-150.0, -160.0])
    with pytest.raises(ValueError, match="channel"):
        run_power_sweep(default_chip, 5, f_heat, [-160.0, -150.0])


# ------------------------------------------------------- pulse time constant


def test_pulse_decay_recovers_time_constants(noiseless_chip):
    # flank posture, weak matched heater: the post-pulse magnitude relaxes
    # with the channel's thermal time constant
    settings = RunSettings(probe_detuning_fraction=0.5, heater_power_dbm=-150.0,
                           n_avg=1)
    t_end = settings.pulse_start_s + settings.pulse_duration_s
    for ch in range(3):
        label = "".join("1" if k == ch else "0" for k in range(3))
        run = run_trigger(noiseless_chip, TriggerPattern.from_label(label),
                          settings, Seed(0))
        iq = run.iq[ch]
        t = iq.times()
        keep = (t >= t_end + 2e-6) & (t <= 95e-6)
        fit = fit_exponential(t[keep], iq.magnitude()[keep])
        tau_true = noiseless_chip.bolometers[ch].tau_th_s
        assert fit.tau_s == pytest.approx(tau_true, rel=0.02)


# -------------------------------------------------------- probe isolation


def test_halving_thermal_step_leaves_metrics_unchanged(noiseless_chip,
                                                       default_settings):
    # the exponential relaxation update is exact per step, so refining the
    # step grid must not move any reported number by more than 0.1%
    coarse_settings = replace(default_settings, n_avg=1, thermal_dt_s=100e-9)
    fine_settings = replace(default_settings, n_avg=1, thermal_dt_s=50e-9)
    pattern = TriggerPattern.from_label("111")
    coarse = run_trigger(noiseless_chip, pattern, coarse_settings, Seed(0))
    fine = run_trigger(noiseless_chip, pattern, fine_settings, Seed(0))
    for m_c, m_f in zip(coarse.metrics, fine.metrics):
        for name in ("response", "baseline_mean", "baseline_std", "signal_mean"):
            a = getattr(m_c, name)
            b = getattr(m_f, name)
            scale = max(abs(a), abs(b), 1e-30)
            assert abs(a - b) / scale < 1e-3


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


def test_calibration_closed_loop(default_chip):
    # detune the chip, then ask calibration to pull it back onto target
    warped = replace(
        default_chip,
        bolometers=tuple(replace(b, dfdt_hz_per_k=2.5 * b.dfdt_hz_per_k)
                         for b in default_chip.bolometers),
        noise_sigma_v=4.0 * default_chip.noise_sigma_v,
    )
    targets = CalibrationTargets()
    cal_chip, report = calibrate_chip(warped, targets, seed=Seed(3))
    for entry in report["channels"]:
        err = abs(entry["achieved_shift_hz"] - entry["target_shift_hz"])
        assert err <= targets.shift_tolerance * entry["target_shift_hz"] * 1.001
    noise = report["noise"]
    assert noise["achieved_min_matched_snr"] == pytest.approx(
        targets.snr, rel=targets.snr_tolerance * 1.001)
    assert noise["target_snr"] == targets.snr
    # the tuned chip reproduces the SNR outside the calibration loop
    check = run_trigger(cal_chip, TriggerPattern.from_label("111"),
                        RunSettings(), Seed(3).child(3))
    assert min(m.snr for m in check.metrics) == pytest.approx(targets.snr, rel=0.10)


def test_calibration_rejects_unreachable_shift(default_chip):
    targets = CalibrationTargets(shift_fraction=1e-12)
    with pytest.raises(CalibrationError, match="not reachable"):
        calibrate_chip(default_chip, targets, seed=Seed(3))
