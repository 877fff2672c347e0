"""End-to-end checks of the headline capabilities on the shipped defaults.

Every test pins an explicit tolerance, and the interactive commands carry a
wall-clock budget.  All randomness comes from the shipped seed, so the
numbers here are reproducible bit for bit.
"""

import json
import math
import pathlib
import time
from dataclasses import asdict, replace

import numpy as np
import pytest

from bolomux.analysis import _P_1DB_FACTOR, crosstalk_matrix, fit_compressions
from bolomux.cli import main
from bolomux.config import load_config
from bolomux.experiments import run_trigger
from bolomux.frontend import TriggerPattern
from bolomux.units import Seed, dbm_to_watts, tone_amplitude_volts, watts_to_dbm
from test_device import state_at, thermal_step
from test_dsp import mixer_demodulate
from test_experiments import decay_tau_s


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def characterize_dir(tmp_path_factory):
    """One shared `characterize` run over the shipped power list."""
    out = tmp_path_factory.mktemp("characterize")
    t0 = time.monotonic()
    assert main(["characterize", "--out", str(out)]) == 0
    assert time.monotonic() - t0 < 10.0
    return out


def test_characterize_recovers_frequencies_and_linewidths(characterize_dir,
                                                          default_chip):
    # lowest-power row of the standard sweep: resonance to 10 kHz, total
    # linewidth to 5%
    fits = _load_json(characterize_dir / "characterize_fits.json")
    assert fits["powers_dbm"][0] == -160.0
    for ch_row in fits["channels"]:
        par = default_chip.bolometers[ch_row["channel"]]
        head = ch_row["fits"][0]
        assert head is not None
        assert abs(head["f_r_hz"] - par.f_r0_hz) < 0.01e6
        assert head["fwhm_hz"] == pytest.approx(par.kappa_total_hz, rel=0.05)


def test_readme_python_example_characterizes_as_the_cli_does(characterize_dir, capsys):
    # the README's Python API example, run as written, fits what
    # `bolomux characterize` writes on the shipped config
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Python API", 1)[1]
    example = section.split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(example, scope)
    capsys.readouterr()
    written = _load_json(characterize_dir / "characterize_fits.json")
    assert list(scope["sweep"].powers_dbm) == written["powers_dbm"]
    assert [[None if fit is None else asdict(fit) for fit in row] for row in scope["fits"]] == \
        [entry["fits"] for entry in written["channels"]]


def test_dip_frequency_never_rises_with_probe_power(characterize_dir):
    # probe heating only pulls the resonance down, so across the -160 to
    # -130 dBm sweep the fitted dip frequency must be non-increasing
    fits = _load_json(characterize_dir / "characterize_fits.json")
    powers = fits["powers_dbm"]
    assert powers[0] == -160.0 and powers[-1] == -130.0
    assert powers == sorted(powers)
    for ch_row in fits["channels"]:
        f_r = [fit["f_r_hz"] for fit in ch_row["fits"]]
        assert all(b <= a for a, b in zip(f_r, f_r[1:]))


def test_filterscan_locates_passbands(tmp_path, default_chip):
    # heater-frequency scan on the shipped 10 MHz grid: each channel peaks
    # at its own filter center with the configured 100 MHz width
    t0 = time.monotonic()
    out = tmp_path / "scan"
    assert main(["filterscan", "--out", str(out)]) == 0
    assert time.monotonic() - t0 < 30.0
    peaks = _load_json(out / "filterscan_peaks.json")["peaks"]
    grid_step = 10e6
    for entry in peaks:
        filt = default_chip.matched_filter(entry["channel"])
        assert abs(entry["f_peak_hz"] - filt.f_center_hz) <= grid_step
        assert entry["fwhm_hz"] == pytest.approx(filt.fwhm_hz, rel=0.20)


def test_power_sweep_fit_recovers_known_compression_point():
    # a sweep whose responses follow the saturating model exactly must fit
    # back to the closed-form 1 dB point of the known saturation power
    p_sat_w = 2.2e-12
    gain = 3.0e6
    p_w = np.logspace(-14.2, -10.8, 25)
    [p_1db_dbm] = fit_compressions([(p_w, gain * p_w / (1.0 + p_w / p_sat_w))])
    assert abs(p_1db_dbm - watts_to_dbm(_P_1DB_FACTOR * p_sat_w)) < 0.5
    # closed form at a 1 pW saturation power
    assert watts_to_dbm(_P_1DB_FACTOR * 1e-12) == pytest.approx(-99.14, abs=0.05)


# 1 dB compression thresholds (dBm) of each bolometer against each heater
# path, in the shipped channel order: rows are bolometers, columns the
# filter centers 4.4 / 5.8 / 7.6 GHz.
P1DB_TABLE_DBM = (
    (-114.3, -135.5, -116.4),
    (-132.0, -120.0, -120.0),
    (-106.3, -101.9, -128.2),
)


def test_crosstalk_matrix_reproduces_reference_isolation():
    xt = crosstalk_matrix(P1DB_TABLE_DBM, (1, 0, 2))
    expected = {
        (0, 0): -21.2, (0, 2): -19.1,
        (1, 1): -12.0, (1, 2): -12.0,
        (2, 0): -21.9, (2, 1): -26.3,
    }
    for (i, j), value in expected.items():
        assert xt.crosstalk_db[i, j] == pytest.approx(value, abs=0.01)
    # the 4.4 GHz bolometer driven through the 5.8 GHz path is the weakest
    # isolation; the 7.6 GHz bolometer through the same path is the best
    assert xt.crosstalk_db[1, 1] == pytest.approx(-12.0, abs=0.01)
    assert xt.crosstalk_db[2, 1] == pytest.approx(-26.3, abs=0.01)
    assert xt.worst_db == pytest.approx(-12.0, abs=0.01)
    assert xt.best_db == pytest.approx(-26.3, abs=0.01)


def test_multiplex_separates_matched_from_unmatched(tmp_path, default_chip, default_settings,
                                                   snr_ensemble):
    # all eight patterns on the desk preset at the default -135 dBm heater;
    # the CLI reports the library's SNRs, and over 64 seeds heated channels
    # read out loud (5% quantile above 5) while unheated ones carry only
    # their noiseless leakage plus noise (mean 0 within 3 standard errors,
    # spread within 3 standard errors of a pre-pulse noise window's)
    t0 = time.monotonic()
    out = tmp_path / "mux"
    assert main(["multiplex", "--out", str(out), "--preset", "desk"]) == 0
    assert time.monotonic() - t0 < 120.0
    runs = {run["pattern"]: run for run in _load_json(out / "metrics.json")["runs"]}
    assert len(runs) == 8
    for label in ("101", "010"):
        lib = run_trigger(default_chip, TriggerPattern.from_label(label), default_settings,
                          Seed(15))
        assert [m["snr"] for m in runs[label]["metrics"]] == [m.snr for m in lib.metrics]

    for snrs in snr_ensemble["matched"]:
        assert np.quantile(snrs, 0.05) > 5.0
    leakage, control = snr_ensemble["leakage"], snr_ensemble["control"]
    n = leakage.size
    assert abs(np.mean(leakage)) <= 3.0 * np.std(leakage, ddof=1) / np.sqrt(n)
    spread = np.std(leakage, ddof=1) / np.std(control, ddof=1)
    assert abs(np.log(spread)) <= 3.0 / np.sqrt(n - 1)


def test_pulse_decay_matches_configured_time_constants(default_chip, default_settings):
    # flank posture, weak matched heater, noise off: the post-pulse decay
    # of each channel magnitude is the bolometer's thermal relaxation
    t0 = time.monotonic()
    assert sorted(b.tau_th_s for b in default_chip.bolometers) == [4e-6, 8e-6, 13e-6]
    chip = replace(default_chip, noise_sigma_v=0.0)
    settings = replace(default_settings, probe_detuning_fraction=0.5,
                       heater_power_dbm=-150.0, n_avg=1)
    t_end = settings.pulse_start_s + settings.pulse_duration_s
    for ch in range(3):
        label = "".join("1" if k == ch else "0" for k in range(3))
        run = run_trigger(chip, TriggerPattern.from_label(label), settings, Seed(15))
        iq = run.iq[ch]
        t = iq.times()
        keep = (t >= t_end + 2e-6) & (t <= 95e-6)
        tau = decay_tau_s(t[keep], iq.magnitude()[keep], run.metrics[ch].baseline_mean)
        assert tau == pytest.approx(chip.bolometers[ch].tau_th_s, rel=0.05)
    assert time.monotonic() - t0 < 30.0


def test_baseline_noise_scales_as_sqrt_of_averages(default_chip, default_settings):
    # quiet pattern, long noise-only baseline window: 64x more averages
    # shrink the baseline deviation by 8; the paper preset keeps the desk
    # noise per sample but spreads it over 6x the bandwidth, so its in-band
    # baseline deviation is sqrt(6) lower
    quiet = TriggerPattern.from_label("000")
    windows = dict(baseline_window_s=(5e-6, 94e-6), signal_window_s=(95e-6, 99e-6))

    def baseline_stds(chip, settings):
        run = run_trigger(chip, quiet, settings, Seed(15))
        return np.array([m.baseline_std for m in run.metrics])

    def rms_ratio(a, b):
        return math.sqrt(float(np.mean(a ** 2) / np.mean(b ** 2)))

    stds = {n_avg: baseline_stds(default_chip, replace(default_settings, n_avg=n_avg, **windows))
            for n_avg in (16, 1024)}
    assert rms_ratio(stds[16], stds[1024]) == pytest.approx(8.0, rel=0.20)

    desk, paper = (load_config(None, preset=name) for name in ("desk", "paper"))
    assert rms_ratio(baseline_stds(desk.chip, replace(desk.settings, **windows)),
                     baseline_stds(paper.chip, replace(paper.settings, **windows))) == \
        pytest.approx(math.sqrt(6.0), rel=0.20)


def test_capacity_command_prints_channel_count(capsys):
    code = main(["capacity", "--fmin", "100e6", "--fmax", "1e9",
                 "--spacing", "5e6"])
    assert code == 0
    assert capsys.readouterr().out == "180\n"


def test_dsp_invariant_suite(default_chip):
    t0 = time.monotonic()
    fs = 1e9
    duration = 100e-6
    tones_hz = (156.7e6, 179.3e6, 193.7e6)
    p_dbm = -144.0
    t = np.arange(round(duration * fs)) / fs
    comb = sum(tone_amplitude_volts(p_dbm) * np.cos(2.0 * np.pi * f * t) for f in tones_hz)

    # demodulating each comb line recovers that tone's a/2 envelope
    for f_hz in tones_hz:
        iq = mixer_demodulate(comb, fs, f_hz, 2e6, 100)
        half_amp = 0.5 * math.sqrt(2.0 * dbm_to_watts(p_dbm) * 50.0)
        err = np.abs(np.abs(iq) - half_amp) / half_amp
        assert float(np.max(err)) < 1e-3

    # exact relaxation update: two half steps equal one full step
    par = default_chip.bolometers[0]
    state = state_at(par, par.t_bath_k + 1e-3)
    p_abs = 1e-15
    one = thermal_step(par, state, 2e-6, p_abs)
    half = thermal_step(par, thermal_step(par, state, 1e-6, p_abs), 1e-6, p_abs)
    assert half.t_e_k == pytest.approx(one.t_e_k, rel=1e-12)
    assert half.f_r_hz == pytest.approx(one.f_r_hz, rel=1e-12)

    assert time.monotonic() - t0 < 60.0
