"""Experiment drivers tying device, frontend and signal chain together.

Steady-state sweeps (probe and heater filter scans) run on the device's
array kernel alone, one call per channel; a cell with no finite steady
state comes out NaN.  Time-domain runs come in batches, each set up by _iq_runs
on one engine plan: one thermal pass solves a batch's every (run, channel) and
streams them in groups of runs, and _timedomain_run turns each run into
(channels, M) IQ as its group arrives, which a trigger run
reduces per channel (response_metric), a quiet batch at once.  Every random
draw comes from a stream derived from (master seed, kind, pattern); a quiet
batch draws none, and no number depends on the batching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import analysis
from .config import ChipConfig, RunSettings
from .device import (BolometerParams, OperatingPoint, _absorption, _steady_state,
                     solve_operating_point)
from .dsp import (IQTrace, ResponseMetric, _band_iq, _baseline_std_per_volt, _window_means,
                  response_metric)
from .engine import _engine_plan, _EnginePlan, _readout, _relaxations, _thermal_groups
from .frontend import ToneSpec, TriggerPattern, filter_transmission, schedule_heaters
from .units import Seed, dbm_to_watts, derive_stream

__all__ = [
    "MultiplexRun",
    "ProbeSweepResult",
    "FilterSweepResult",
    "CalibrationError",
    "NonlinearOperationError",
    "characterize",
    "run_filter_sweep",
    "power_sweep_matrix",
    "run_trigger",
    "run_full_multiplex",
    "calibrate_chip",
]

# stream-label namespace; first label of every derived stream
_KIND_TRIGGER = 1


class NonlinearOperationError(ValueError):
    """Requested drive power enters the regime the model does not cover."""


class CalibrationError(RuntimeError):
    """Calibration target unreachable within the parameter bounds."""


def _device_dbm(chip: ChipConfig, p_dbm: float) -> float:
    return p_dbm - chip.line_attenuation_db


def _delivered_w(chip: ChipConfig, channel: int, f_hz, p_dbm: float):
    """Heater power reaching channel's absorber from a source tone at p_dbm:
    line attenuation, then the channel's matched filter.  f_hz may be an array."""
    return (dbm_to_watts(_device_dbm(chip, p_dbm))
            * filter_transmission(chip.matched_filter(channel), f_hz))


def _check_probe_power(chip: ChipConfig, p_dbm: float, allow_nonlinear: bool) -> None:
    p_dev = _device_dbm(chip, p_dbm)
    for ch, par in enumerate(chip.bolometers):
        if p_dev > par.p_nonlinear_dbm and not allow_nonlinear:
            raise NonlinearOperationError(
                f"probe power {p_dev:.1f} dBm exceeds the nonlinear threshold "
                f"{par.p_nonlinear_dbm:.1f} dBm of channel {ch}; the model does not cover "
                f"this regime (set allow_nonlinear to override)")


def _place_probe(par: BolometerParams, p_w: float, settings: RunSettings):
    """One bolometer's probe tone and its operating point at probe power p_w.

    The tone sits probe_detuning_fraction total linewidths above the
    power-shifted resonance, snapped to the record's DFT grid so the tone
    is bin-centered in a window-long transform.  At that detuning the power
    balance is explicit, g_th x = p_w A(offset), so the resonance the tone
    sits above is f_r0 - dfdt x; the operating point is solved at the
    snapped tone.
    """
    grid = 1.0 / settings.window_s
    offset = settings.probe_detuning_fraction * par.kappa_total_hz
    rise = p_w * _absorption(par.kappa_ext_hz, par.kappa_int_hz)(offset) / par.g_th_w_per_k
    f_op = round((par.f_r0_hz - par.dfdt_hz_per_k * rise + offset) / grid) * grid
    return f_op, solve_operating_point(par, f_op, p_w)


def operating_tones(chip: ChipConfig, settings: RunSettings):
    """Choose the probe tone per channel (see _place_probe) and its operating point."""
    _check_probe_power(chip, settings.probe_power_dbm, settings.allow_nonlinear)
    p_dev_dbm = _device_dbm(chip, settings.probe_power_dbm)
    placed = [_place_probe(par, dbm_to_watts(p_dev_dbm), settings) for par in chip.bolometers]
    return (tuple(ToneSpec(f_hz=f_op, p_dbm=p_dev_dbm) for f_op, _ in placed),
            tuple(op for _, op in placed))


@dataclass(frozen=True)
class MultiplexRun:
    """One averaged time-domain run: traces and metrics for every channel."""

    pattern: TriggerPattern
    probe_tones: tuple[ToneSpec, ...]
    operating_points: tuple[OperatingPoint, ...]
    iq: tuple[IQTrace, ...]
    metrics: tuple[ResponseMetric, ...]
    n_avg: int


def _heater_power_w(chip: ChipConfig, heater_tones) -> np.ndarray:
    """(runs, channels) heater power into each absorber during the pulse:
    each tone passes the channel's matched filter, and a run's tones (padded with
    0 W ones) add in order, bit for bit a tone-by-tone sum."""
    width = max([*map(len, heater_tones), 1])
    f, w = np.array([[(t.f_hz, dbm_to_watts(_device_dbm(chip, t.p_dbm))) for t in tones]
                     + [(1.0, 0.0)] * (width - len(tones)) for tones in heater_tones]).T
    return np.stack([np.cumsum(w * filter_transmission(chip.matched_filter(ch), f), axis=0)[-1]
                     for ch in range(chip.n_channels)], axis=1)


def _iq_runs(chip: ChipConfig, settings: RunSettings, heater_tones, streams):
    """One time-domain batch on chip: ((tones, points), output rate, runs).  The probes
    are placed and the engine planned once, and one thermal pass (_thermal_groups)
    streams the runs' temperatures in groups of consecutive runs.  runs lazily yields
    each run's (channels, M) IQ, its step relaxations derived from its temperatures
    just before its readout, with noise from streams[r], (seed, *labels), on a noisy
    chip; a quiet chip draws from no stream (streams may be None).  It reads the
    groups as it goes, so it holds one group's temperatures at a time."""
    operating = operating_tones(chip, settings)
    plan = _engine_plan(chip, settings, operating)
    groups = _thermal_groups(plan, _heater_power_w(chip, heater_tones))
    runs = (_timedomain_run(plan, *_relaxations(plan, t),
                            streams[r] if plan.noise_scale > 0.0 else None)
            for r, t in enumerate(t for group in groups for t in group))
    return operating, plan.sample_rate_hz / plan.decimation, runs


def _timedomain_run(plan: _EnginePlan, t_start, t_inf_of, stream) -> np.ndarray:
    """One run's (channels, M) IQ: the band-sliced _readout of its trajectories, with
    noise from the stream (seed, *labels), none where stream is None."""
    rng = None if stream is None else derive_stream(*stream)
    return _band_iq(_readout(plan, t_start, t_inf_of, rng), plan.offsets, plan.n,
                    plan.decimation)


def run_trigger(chip: ChipConfig, pattern: TriggerPattern, settings: RunSettings,
                seed: Seed) -> MultiplexRun:
    """Fire one heater on/off pattern and read out every probe channel.

    Heater pulses sit at the center of each triggered channel's filter.  The
    result's per-channel metrics carry the windowed SNR against the
    pre-pulse baseline.
    """
    if len(pattern) != chip.n_channels:
        raise ValueError(
            f"pattern has {len(pattern)} bits for a {chip.n_channels}-channel chip")
    return _trigger_runs(chip, [pattern], settings, seed)[0]


def _trigger_runs(chip: ChipConfig, patterns, settings: RunSettings,
                  seed: Seed) -> list[MultiplexRun]:
    """run_trigger for each pattern, as one batch of the engine."""
    heater_tones = [schedule_heaters(pat, chip.filters, chip.channel_map,
                                     settings.heater_power_dbm) for pat in patterns]
    (tones, ops), rate, runs = _iq_runs(chip, settings, heater_tones,
                                        [(seed, _KIND_TRIGGER, pat.value) for pat in patterns])
    traces = [tuple(IQTrace(rate, row) for row in samples) for samples in runs]
    return [MultiplexRun(pat, tones, ops, iqs, tuple(
        response_metric(iq, settings.baseline_window_s, settings.signal_window_s) for iq in iqs),
        settings.n_avg) for pat, iqs in zip(patterns, traces)]


def run_full_multiplex(chip: ChipConfig, settings: RunSettings, seed: Seed) -> list[MultiplexRun]:
    """Run every 2**n trigger pattern as one batch; results ordered by pattern label.

    Every pattern derives its noise stream from its own label, so each run
    is bit-identical to the same pattern's run_trigger.
    """
    return _trigger_runs(chip, TriggerPattern.all_patterns(chip.n_channels), settings, seed)


@dataclass(frozen=True)
class ProbeSweepResult:
    """Raw |Gamma| versus probe frequency and power, one panel per channel."""

    f_hz: tuple[np.ndarray, ...]
    powers_dbm: tuple[float, ...]
    magnitude: np.ndarray          # (n_ch, n_powers, n_freqs)
    multivalued: np.ndarray        # bool, same shape as magnitude


def run_probe_sweep(chip: ChipConfig, powers_dbm, f_hz, allow_nonlinear: bool) -> ProbeSweepResult:
    """Sweep the probe over each resonance at each power.

    f_hz holds one probe frequency grid per channel, all of one length.
    Every cell is an independent steady state (no hysteresis): its one value
    is the raw |Gamma(f_p)| at the solved state, with no per-row rescaling.
    Each channel is one call of the array kernel behind solve_operating_point,
    on a (powers, 1) x freqs grid.  Powers above a channel's nonlinear
    threshold are refused unless allow_nonlinear is set.  Cells with no finite
    steady state are NaN, not an exception; multivalued cells are flagged.
    """
    powers = [float(p) for p in powers_dbm]
    if not powers:
        raise ValueError("need at least one probe power")
    for p in powers:
        _check_probe_power(chip, p, allow_nonlinear)
    grids = [np.asarray(g, dtype=float) for g in f_hz]
    if len(grids) != chip.n_channels:
        raise ValueError(f"need one frequency grid per channel ({chip.n_channels})")
    n_f = len(grids[0])
    if any(len(g) != n_f for g in grids):
        raise ValueError("per-channel frequency grids must have equal length")

    mag = np.empty((chip.n_channels, len(powers), n_f))
    multi = np.empty_like(mag, dtype=bool)
    p_w = np.array([[dbm_to_watts(_device_dbm(chip, p))] for p in powers])
    for ch, par in enumerate(chip.bolometers):
        _, _, gamma, multi[ch] = _steady_state(par, grids[ch], p_w)
        mag[ch] = np.abs(gamma)
    return ProbeSweepResult(f_hz=tuple(grids), powers_dbm=tuple(powers), magnitude=mag,
                            multivalued=multi)


def characterize(chip: ChipConfig, powers_dbm, span_linewidths: float, n_points: int,
                 allow_nonlinear: bool):
    """Probe sweep plus a Lorentzian dip fit per channel and power.

    Each channel's grid holds n_points probe frequencies spanning
    span_linewidths total linewidths, centred on its cold resonance.
    Returns (sweep, fits) where fits[ch][pi] is the fit for that panel row,
    or None where fitting failed.  Every row of every channel, less its NaN
    cells, goes into one call of the stacked fit, which makes one solve per
    row length.  The lowest-power row is the headline estimate of f_r0 and
    the total linewidth.
    """
    if not (math.isfinite(span_linewidths) and span_linewidths > 0.0):
        raise ValueError(f"span_linewidths must be finite and > 0, got {span_linewidths}")
    grids = []
    for par in chip.bolometers:
        half = 0.5 * span_linewidths * par.kappa_total_hz
        grids.append(np.linspace(par.f_r0_hz - half, par.f_r0_hz + half, n_points))
    sweep = run_probe_sweep(chip, powers_dbm, grids, allow_nonlinear)
    traces = [(f[ok], row[ok]) for f, rows in zip(sweep.f_hz, sweep.magnitude)
              for row, ok in zip(rows, np.isfinite(rows))]
    fits = [None if isinstance(fit, Exception) else fit for fit in analysis.fit_lorentzians(traces)]
    n = len(sweep.powers_dbm)
    return sweep, tuple(tuple(fits[i:i + n]) for i in range(0, len(fits), n))


@dataclass(frozen=True)
class FilterSweepResult:
    """Steady-state response of every channel versus heater frequency."""

    f_heater_hz: np.ndarray
    response: np.ndarray       # (n_ch, n_freqs), |Gamma shift| at the probe tone
    heater_power_dbm: float

    def peaks(self):
        """(peak frequency, half-max full width) per channel, interpolated."""
        out = []
        for ch in range(self.response.shape[0]):
            y = self.response[ch]
            i_pk = int(np.nanargmax(y))
            half = 0.5 * y[i_pk]
            lo = hi = math.nan
            for i in range(i_pk, 0, -1):
                if y[i - 1] <= half <= y[i]:
                    frac = (half - y[i - 1]) / (y[i] - y[i - 1])
                    lo = self.f_heater_hz[i - 1] + frac * (self.f_heater_hz[i] - self.f_heater_hz[i - 1])
                    break
            for i in range(i_pk, len(y) - 1):
                if y[i + 1] <= half <= y[i]:
                    frac = (y[i] - half) / (y[i] - y[i + 1])
                    hi = self.f_heater_hz[i] + frac * (self.f_heater_hz[i + 1] - self.f_heater_hz[i])
                    break
            out.append((float(self.f_heater_hz[i_pk]), float(hi - lo)))
        return out


def run_filter_sweep(chip: ChipConfig, f_heater_hz, heater_power_dbm: float,
                     settings: RunSettings) -> FilterSweepResult:
    """Sweep a CW heater tone and record each channel's steady-state response.

    The response is |Gamma(with heater) - Gamma(without)| at the channel's
    probe tone, both from steady-state solves, one kernel call per channel;
    the peak sits at the channel's own filter center.  Cells with no finite
    steady state are NaN.
    """
    f_grid = np.asarray(f_heater_hz, dtype=float)
    if f_grid.ndim != 1 or f_grid.size < 3:
        raise ValueError("heater frequency grid must be 1-d with >= 3 points")
    if not (np.all(np.isfinite(f_grid)) and np.all(np.diff(f_grid) > 0.0)):
        raise ValueError("heater frequency grid must be finite and strictly increasing, "
                         f"got {f_grid[0]:g} to {f_grid[-1]:g} Hz")
    tones, ops = operating_tones(chip, settings)

    resp = np.empty((chip.n_channels, f_grid.size))
    for ch, par in enumerate(chip.bolometers):
        extra = _delivered_w(chip, ch, f_grid, heater_power_dbm)
        _, _, gamma, _ = _steady_state(par, tones[ch].f_hz, dbm_to_watts(tones[ch].p_dbm),
                                       extra)
        resp[ch] = np.abs(gamma - ops[ch].gamma)
    return FilterSweepResult(f_heater_hz=f_grid, response=resp, heater_power_dbm=heater_power_dbm)


def _quiet_responses(chip: ChipConfig, settings: RunSettings, heater_tones) -> np.ndarray:
    """One batch of runs on chip's quiet copy (noise_sigma_v 0): (runs, n_bolometers)
    responses, two window means per run over all channels."""
    _, rate, runs = _iq_runs(replace(chip, noise_sigma_v=0.0), settings, heater_tones, None)
    means = (_window_means(np.abs(iq), rate, settings.baseline_window_s,
                           settings.signal_window_s) for iq in runs)
    return np.array([signal - baseline for _, baseline, signal in means])


def power_sweep_matrix(chip: ChipConfig, powers_dbm, settings: RunSettings):
    """Heater power sweeps for every (bolometer, filter) pair.

    Returns (responses, powers_w, p_1db_dbm, crosstalk).  responses[i, j, p]
    is bolometer i's windowed pulse response with the heater at filter j's
    center and source power powers_dbm[p]; powers_w is that power axis at
    the device plane (after line attenuation), against which every path is
    fitted; p_1db_dbm[i, j] is the fitted 1 dB compression point of path
    (i, j).  Each (filter, power) is one noiseless run read on every
    bolometer, so the result does not depend on any seed; one operating
    point and engine plan serve every run, and the runs are one batch.
    Whatever settings' detuning fraction, the runs probe the flank (0.5),
    where the response is linear in small resonance shifts, as the
    compression fit needs.
    """
    settings = replace(settings, probe_detuning_fraction=0.5)
    powers = [float(p) for p in powers_dbm]
    if not powers or sorted(powers) != powers:
        raise ValueError("powers must be non-empty and sorted ascending")
    runs = [[ToneSpec(f_hz=filt.f_center_hz, p_dbm=p)] for filt in chip.filters for p in powers]
    n = chip.n_channels
    responses = _quiet_responses(chip, settings, runs).T.reshape(n, len(chip.filters), len(powers))
    powers_w = np.array([dbm_to_watts(_device_dbm(chip, p)) for p in powers])
    fitted = analysis.fit_compressions([(powers_w, path) for path in responses.reshape(n * n, -1)])
    failed = [fit for fit in fitted if isinstance(fit, Exception)]
    if failed:
        raise failed[0]
    p1db = np.reshape(fitted, (n, n))
    return responses, powers_w, p1db, analysis.crosstalk_matrix(p1db, chip.channel_map)


# calibrate_chip's targets; its docstring states what each means
_CAL_SHIFT_FRACTION = 0.5
_CAL_HEATER_POWER_DBM = -135.0
_CAL_SNR = 7.5
_CAL_SHIFT_TOLERANCE = 0.05


def calibrate_chip(chip: ChipConfig, settings: RunSettings):
    """Fix dfdt per channel and the noise level to meet two fixed targets.

    A matched heater tone at -135 dBm (source power) shifts each resonance
    by S = 0.5 total linewidths in steady state at the run's probe tone, and
    the weakest channel of the all-on pattern reads an expected matched SNR
    of 7.5.  At a probe detuning D the power balance is explicit, g_th S /
    dfdt = p_probe (A(D + S) - A(D)) + P_heater (A the absorption), so dfdt
    is taken at the nominal D, the probe placed (_place_probe) and dfdt taken
    again at the placed tone's D.  The noise follows from one noiseless
    all-on run: sigma = min over channels of response / (snr * floor), floor
    the expected baseline std of |IQ| per volt of raw noise
    (dsp._baseline_std_per_volt over sqrt(n_avg)).  So snr is the weakest
    channel's SNR at the expected floor, not the minimum over one noise
    realization; the floor holds while the carrier magnitude dominates the
    noise (past that, |IQ| is Rician and biased).  Raises CalibrationError
    when no finite positive dfdt meets the shift (to 5%, as the solver reads
    it at the placed tone) or the weakest response is not positive.
    """
    n, _, _, decimation = settings.validate_against(chip)
    report: dict = {"channels": []}
    p_w = dbm_to_watts(_device_dbm(chip, settings.probe_power_dbm))

    bolos = []
    for ch, par in enumerate(chip.bolometers):
        delivered = _delivered_w(chip, ch, chip.matched_filter(ch).f_center_hz,
                                 _CAL_HEATER_POWER_DBM)
        target_shift = _CAL_SHIFT_FRACTION * par.kappa_total_hz
        absorbed = _absorption(par.kappa_ext_hz, par.kappa_int_hz)
        unreachable = f"channel {ch}: shift target {target_shift:.3g} Hz not reachable"
        detuning = settings.probe_detuning_fraction * par.kappa_total_hz
        for _ in range(2):
            drive = float(p_w * (absorbed(detuning + target_shift) - absorbed(detuning))
                          + delivered)
            dfdt = target_shift * par.g_th_w_per_k / drive if drive > 0.0 else math.inf
            if not math.isfinite(dfdt):
                raise CalibrationError(f"{unreachable}: heating drive {drive:.3g} W")
            trial = replace(par, dfdt_hz_per_k=dfdt)
            f_op, base = _place_probe(trial, p_w, settings)
            detuning = f_op - base.f_r_star_hz
        heated = solve_operating_point(trial, f_op, p_w, extra_power_w=delivered)
        shift = base.f_r_star_hz - heated.f_r_star_hz
        if not abs(shift - target_shift) <= _CAL_SHIFT_TOLERANCE * target_shift:
            raise CalibrationError(f"{unreachable}: the heated balance shifts it {shift:.3g} Hz")
        bolos.append(trial)
        report["channels"].append({
            "channel": ch,
            "dfdt_hz_per_k": dfdt,
            "achieved_shift_hz": shift,
            "target_shift_hz": target_shift,
        })
    tuned = replace(chip, bolometers=tuple(bolos))
    all_on = schedule_heaters(TriggerPattern((True,) * chip.n_channels), chip.filters,
                              chip.channel_map, settings.heater_power_dbm)
    responses = _quiet_responses(tuned, settings, [all_on])[0].tolist()
    if not min(responses) > 0.0:
        raise CalibrationError(f"weakest all-on response {min(responses):.3g} V is not positive")
    floor = (_baseline_std_per_volt(n, chip.sample_rate_hz, settings.demod_bandwidth_hz,
                                    decimation, settings.baseline_window_s)
             / math.sqrt(settings.n_avg))
    sigma = min(responses) / (_CAL_SNR * floor)
    report["noise"] = {"sigma_v": sigma, "target_snr": _CAL_SNR,
                       "expected_snr": [r / (sigma * floor) for r in responses]}
    return replace(tuned, noise_sigma_v=sigma), report
