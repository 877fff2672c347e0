"""Experiment drivers tying device, frontend and signal chain together.

Steady-state sweeps (probe characterization, heater filter scans) run on the
operating-point solver alone.  Time-domain runs integrate the electrothermal
state at a fixed step, build the reflected probe comb with each channel's
tone scaled by its instantaneous reflection, push averaged noisy
realizations through digital down-conversion, and reduce the result to
windowed response metrics.  Every random draw comes from a stream derived
from (master seed, experiment kind, pattern, realization), so any execution
order, including threaded pattern sweeps, produces bit-identical results.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import analysis
from .device import (BolometerParams, OperatingPoint, SolverError, _absorbed_fraction,
                     _gamma, solve_operating_point)
from .dsp import (IQTrace, PairwiseAccumulator, ResponseMetric, TimeTrace,
                  demodulate, response_metric)
from .frontend import (FilterParams, PulseSpec, ToneSpec, TriggerPattern,
                       filter_transmission, schedule_heaters)
from .units import Seed, dbm_to_watts, derive_stream, tone_amplitude_volts

__all__ = [
    "ChipConfig",
    "RunSettings",
    "MultiplexRun",
    "ProbeSweepResult",
    "FilterSweepResult",
    "PowerSweepResult",
    "CalibrationTargets",
    "CalibrationError",
    "NonlinearOperationError",
    "PRESETS",
    "apply_preset",
    "operating_tones",
    "run_probe_sweep",
    "characterize",
    "run_filter_sweep",
    "run_power_sweep",
    "power_sweep_matrix",
    "run_trigger",
    "run_full_multiplex",
    "calibrate_chip",
]

# stream-label namespaces; first label of every derived stream
_KIND_TRIGGER = 1
_KIND_POWERSWEEP = 2
_KIND_CALIBRATION = 3


class NonlinearOperationError(ValueError):
    """Requested drive power enters the regime the model does not cover."""


class CalibrationError(RuntimeError):
    """Calibration target unreachable within the parameter bounds."""


@dataclass(frozen=True)
class ChipConfig:
    """Static description of one readout chip.

    Bolometers are ordered by increasing probe resonance; trigger-pattern
    bits use the same order.  channel_map[i] is the index of the heater
    filter feeding bolometer i (a bijection).  noise_sigma_v is the
    digitizer-referred white noise per raw sample.
    """

    bolometers: tuple[BolometerParams, ...]
    filters: tuple[FilterParams, ...]
    channel_map: tuple[int, ...]
    noise_sigma_v: float
    sample_rate_hz: float = 1e9
    line_attenuation_db: float = 0.0

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

    probe_detuning_fraction places the probe tone this many total linewidths
    above the power-shifted resonance.  0.0 probes the dip minimum, where
    the magnitude response to small leaked-heater shifts is quadratically
    suppressed (best channel isolation); 0.5 probes the flank, where the
    response is linear in the shift (used for compression and
    time-constant runs).
    """

    window_s: float = 100e-6
    thermal_dt_s: float = 100e-9
    pulse_start_s: float = 40e-6
    pulse_duration_s: float = 10e-6
    demod_bandwidth_hz: float = 1e6
    output_rate_hz: float = 10e6
    n_avg: int = 100
    probe_power_dbm: float = -144.0
    heater_power_dbm: float = -135.0
    probe_detuning_fraction: float = 0.0
    baseline_window_s: tuple[float, float] = (10e-6, 30e-6)
    signal_window_s: tuple[float, float] = (47e-6, 52e-6)
    allow_nonlinear: bool = False

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

    def validate_against(self, chip: ChipConfig) -> None:
        """Timing commensurability and window checks; raises ValueError."""
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


def apply_preset(chip: ChipConfig, settings: RunSettings, name: str):
    """Return (chip, settings) adjusted to a named measurement posture.

    desk: the shipped defaults (1 GS/s, 100 averages, noise scaled down 10x
    so the averaged noise matches the full posture at 1% of the runtime).
    "paper": the full-scale posture, 6 GS/s and 10^4 averages at full
    noise.  "fig3": long-pulse single-trigger posture, 1 ms pulses and
    2^14 averages.
    """
    if name == "desk":
        return chip, settings
    if name == "paper":
        chip2 = replace(chip, sample_rate_hz=6e9, noise_sigma_v=chip.noise_sigma_v * 10.0)
        return chip2, replace(settings, n_avg=10_000)
    if name == "fig3":
        settings2 = replace(
            settings,
            window_s=2e-3,
            pulse_start_s=0.5e-3,
            pulse_duration_s=1e-3,
            n_avg=2 ** 14,
            baseline_window_s=(0.1e-3, 0.4e-3),
            signal_window_s=(1.4e-3, 1.5e-3),
        )
        return chip, settings2
    raise ValueError(f"unknown preset {name!r}; expected desk, paper or fig3")


PRESETS = ("desk", "paper", "fig3")


def _device_dbm(chip: ChipConfig, p_dbm: float) -> float:
    return p_dbm - chip.line_attenuation_db


def _check_probe_power(chip: ChipConfig, p_dbm: float, allow_nonlinear: bool) -> None:
    p_dev = _device_dbm(chip, p_dbm)
    for ch, par in enumerate(chip.bolometers):
        if p_dev > par.p_nonlinear_dbm and not allow_nonlinear:
            raise NonlinearOperationError(
                f"probe power {p_dev:.1f} dBm exceeds the nonlinear threshold "
                f"{par.p_nonlinear_dbm:.1f} dBm of channel {ch}; the model does not cover "
                f"this regime (set allow_nonlinear to override)")


def operating_tones(chip: ChipConfig, settings: RunSettings):
    """Choose the probe tone per channel and solve its operating point.

    The tone sits probe_detuning_fraction total linewidths above the
    power-shifted resonance, snapped to the record's DFT grid so the tone
    is bin-centered in a window-long transform.  The placement is iterated
    once: probing at the tone moves the resonance again through
    self-heating, so the offset is re-applied to the re-solved resonance
    before snapping.
    """
    _check_probe_power(chip, settings.probe_power_dbm, settings.allow_nonlinear)
    p_dev_dbm = _device_dbm(chip, settings.probe_power_dbm)
    p_w = dbm_to_watts(p_dev_dbm)
    grid = 1.0 / settings.window_s
    tones, ops = [], []
    for par in chip.bolometers:
        offset = settings.probe_detuning_fraction * par.kappa_total_hz
        op0 = solve_operating_point(par, par.f_r0_hz, p_w)
        op1 = solve_operating_point(par, op0.f_r_star_hz + offset, p_w)
        f_op = round((op1.f_r_star_hz + offset) / grid) * grid
        op = solve_operating_point(par, f_op, p_w)
        tones.append(ToneSpec(f_hz=f_op, p_dbm=p_dev_dbm))
        ops.append(op)
    return tuple(tones), tuple(ops)


@dataclass(frozen=True)
class MultiplexRun:
    """One averaged time-domain run: traces and metrics for every channel."""

    pattern: TriggerPattern
    probe_tones: tuple[ToneSpec, ...]
    operating_points: tuple[OperatingPoint, ...]
    iq: tuple[IQTrace, ...]
    metrics: tuple[ResponseMetric, ...]
    n_avg: int


def _timedomain_run(chip: ChipConfig, pulses, settings: RunSettings, seed: Seed,
                    stream_labels: tuple[int, ...],
                    pattern: TriggerPattern | None = None) -> MultiplexRun:
    """Shared engine for trigger and power-sweep runs."""
    settings.validate_against(chip)
    fs = chip.sample_rate_hz
    n = round(settings.window_s * fs)
    steps = round(settings.window_s / settings.thermal_dt_s)
    block = n // steps
    dt = settings.thermal_dt_s
    decimation = round(fs / settings.output_rate_hz)

    tones, ops = operating_tones(chip, settings)
    for tone in tones:
        if 2.0 * tone.f_hz >= fs:
            raise ValueError(
                f"probe tone at {tone.f_hz:.6g} Hz violates Nyquist at {fs:.6g} S/s")

    # per-pulse delivered power into each channel's absorber (time-invariant)
    att = chip.line_attenuation_db
    delivered = []
    for ch in range(chip.n_channels):
        filt = chip.matched_filter(ch)
        delivered.append([
            dbm_to_watts(pl.tone.p_dbm - att) * filter_transmission(filt, pl.tone.f_hz)
            for pl in pulses])
    # edge steps as integers: s*dt rounds below the start time for typical
    # microsecond edges, which would delay every edge by one step and make
    # the stepping first order in dt
    edges = [(round(pl.t_start_s / dt), round((pl.t_start_s + pl.duration_s) / dt))
             for pl in pulses]

    t = np.arange(n) / fs
    composite = np.zeros(n)
    for ch, par in enumerate(chip.bolometers):
        tone = tones[ch]
        p_probe_w = dbm_to_watts(tone.p_dbm)
        # scalar inline of thermal_step (the exact exponential update with
        # precomputed decay factors); the public op expresses the same
        # arithmetic one step at a time.  The absorbed power is re-evaluated
        # at a predicted half-step temperature, which makes the stepping
        # second order in dt and leaves a true fixed point exactly
        # stationary; heater edges are step-aligned by validation.
        ke, ki = par.kappa_ext_hz, par.kappa_int_hz
        t_bath, g_th, dfdt = par.t_bath_k, par.g_th_w_per_k, par.dfdt_hz_per_k
        decay = math.exp(-dt / par.tau_th_s)
        decay_half = math.exp(-0.5 * dt / par.tau_th_s)
        t_e = ops[ch].t_star_k
        t_start = np.empty(steps)
        t_inf_of = np.empty(steps)
        for s in range(steps):
            heater = 0.0
            for k, (on, off) in enumerate(edges):
                if on <= s < off:
                    heater += delivered[ch][k]
            detuning = tone.f_hz - (par.f_r0_hz - dfdt * (t_e - t_bath))
            p_abs = p_probe_w * _absorbed_fraction(detuning, ke, ki) + heater
            t_mid = t_bath + p_abs / g_th + (t_e - t_bath - p_abs / g_th) * decay_half
            detuning = tone.f_hz - (par.f_r0_hz - dfdt * (t_mid - t_bath))
            p_abs = p_probe_w * _absorbed_fraction(detuning, ke, ki) + heater
            t_inf = t_bath + p_abs / g_th
            t_start[s] = t_e
            t_inf_of[s] = t_inf
            t_e = t_inf + (t_e - t_inf) * decay
        # the reflection is sampled per digitizer sample on the exact
        # within-step exponential, not held constant over a step, so the
        # composite has no zero-order-hold rolloff tied to thermal_dt_s
        fade = np.tile(np.exp(-np.arange(block) / (fs * par.tau_th_s)), steps)
        idx = np.repeat(np.arange(steps), block)
        t_samples = t_inf_of[idx] + (t_start[idx] - t_inf_of[idx]) * fade
        det_samples = tone.f_hz - (par.f_r0_hz - dfdt * (t_samples - t_bath))
        gam = _gamma(det_samples, ke, ki)
        amp = tone_amplitude_volts(tone.p_dbm)
        carrier = np.exp(1j * (2.0 * np.pi * tone.f_hz * t + tone.phase_rad))
        composite += np.real(gam * (amp * carrier))

    acc = PairwiseAccumulator()
    if chip.noise_sigma_v == 0.0:
        acc.push(composite)
        n_pushed = 1
    else:
        for r in range(settings.n_avg):
            stream = derive_stream(seed, *stream_labels, r)
            noise = stream.normal(0.0, chip.noise_sigma_v, n)
            acc.push(composite + noise)
        n_pushed = settings.n_avg
    averaged = TimeTrace(fs, 0.0, acc.total() / n_pushed)

    iqs, metrics = [], []
    for ch in range(chip.n_channels):
        iq = demodulate(averaged, tones[ch].f_hz, settings.demod_bandwidth_hz, decimation)
        iqs.append(iq)
        metrics.append(response_metric(iq, settings.baseline_window_s,
                                       settings.signal_window_s))
    return MultiplexRun(
        pattern=pattern if pattern is not None else TriggerPattern((False,) * chip.n_channels),
        probe_tones=tones,
        operating_points=ops,
        iq=tuple(iqs),
        metrics=tuple(metrics),
        n_avg=settings.n_avg,
    )


def _fan_out(fn, jobs, threads: int) -> list:
    """[fn(*job) for job in jobs], run on up to `threads` worker threads.

    Results keep job order whatever the completion order; every future is
    read, so a job's exception reaches the caller.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if threads == 1:
        return [fn(*job) for job in jobs]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(fn, *job) for job in jobs]
        return [f.result() for f in futures]


def run_trigger(chip: ChipConfig, pattern: TriggerPattern, settings: RunSettings | None = None,
                seed: Seed = Seed(0)) -> MultiplexRun:
    """Fire one heater on/off pattern and read out every probe channel.

    Heater pulses sit at the center of each triggered channel's filter.  The
    result's per-channel metrics carry the windowed SNR against the
    pre-pulse baseline.
    """
    settings = settings if settings is not None else RunSettings()
    if len(pattern) != chip.n_channels:
        raise ValueError(
            f"pattern has {len(pattern)} bits for a {chip.n_channels}-channel chip")
    pulses = schedule_heaters(pattern, chip.filters, chip.channel_map,
                              settings.heater_power_dbm, settings.pulse_start_s,
                              settings.pulse_duration_s)
    labels = (_KIND_TRIGGER, pattern.value)
    return _timedomain_run(chip, pulses, settings, seed, labels, pattern=pattern)


def run_full_multiplex(chip: ChipConfig, settings: RunSettings | None = None,
                       seed: Seed = Seed(0), threads: int = 1) -> list[MultiplexRun]:
    """Run every 2**n trigger pattern; results ordered by pattern label.

    Each pattern derives its noise streams from its own label, so the
    threaded and serial schedules produce bit-identical results.
    """
    settings = settings if settings is not None else RunSettings()
    patterns = TriggerPattern.all_patterns(chip.n_channels)
    return _fan_out(run_trigger, [(chip, pat, settings, seed) for pat in patterns], threads)


@dataclass(frozen=True)
class ProbeSweepResult:
    """|Gamma| versus probe frequency and power, one panel per channel."""

    f_hz: tuple[np.ndarray, ...]
    powers_dbm: tuple[float, ...]
    magnitude: np.ndarray          # (n_ch, n_powers, n_freqs)
    normalized: np.ndarray         # per-panel min-max normalization
    multivalued: np.ndarray        # bool, same shape as magnitude
    unconverged: tuple[tuple[int, int, int], ...]


def run_probe_sweep(chip: ChipConfig, powers_dbm, f_hz=None, span_linewidths: float = 6.0,
                    n_points: int = 201, allow_nonlinear: bool = False) -> ProbeSweepResult:
    """Sweep the probe over each resonance at each power.

    Every cell is an independent operating-point solve (no hysteresis): the
    recorded value is |Gamma(f_p)| at the solved state.  Powers above a
    channel's nonlinear threshold are refused unless allow_nonlinear is set.
    Cells where the solver fails are NaN and listed in `unconverged`;
    multivalued cells are flagged but still reported.
    """
    powers = [float(p) for p in powers_dbm]
    if not powers:
        raise ValueError("need at least one probe power")
    for p in powers:
        _check_probe_power(chip, p, allow_nonlinear)
    if f_hz is None:
        grids = []
        for par in chip.bolometers:
            half = 0.5 * span_linewidths * par.kappa_total_hz
            grids.append(np.linspace(par.f_r0_hz - half, par.f_r0_hz + half, n_points))
    else:
        grids = [np.asarray(g, dtype=float) for g in f_hz]
        if len(grids) != chip.n_channels:
            raise ValueError(f"need one frequency grid per channel ({chip.n_channels})")
    n_f = len(grids[0])
    if any(len(g) != n_f for g in grids):
        raise ValueError("per-channel frequency grids must have equal length")

    mag = np.full((chip.n_channels, len(powers), n_f), np.nan)
    multi = np.zeros_like(mag, dtype=bool)
    bad = []
    for ch, par in enumerate(chip.bolometers):
        for pi, p_dbm in enumerate(powers):
            p_w = dbm_to_watts(_device_dbm(chip, p_dbm))
            for fi, f in enumerate(grids[ch]):
                try:
                    op = solve_operating_point(par, float(f), p_w)
                except SolverError:
                    bad.append((ch, pi, fi))
                    continue
                mag[ch, pi, fi] = abs(op.gamma)
                multi[ch, pi, fi] = op.multivalued

    norm = np.full_like(mag, np.nan)
    for ch in range(chip.n_channels):
        for pi in range(len(powers)):
            row = mag[ch, pi]
            finite = row[np.isfinite(row)]
            if finite.size == 0:
                continue
            lo, hi = float(np.min(finite)), float(np.max(finite))
            norm[ch, pi] = (row - lo) / (hi - lo) if hi > lo else 0.0
    return ProbeSweepResult(
        f_hz=tuple(grids),
        powers_dbm=tuple(powers),
        magnitude=mag,
        normalized=norm,
        multivalued=multi,
        unconverged=tuple(bad),
    )


def characterize(chip: ChipConfig, powers_dbm=(-160.0, -155.0, -150.0, -145.0, -140.0),
                 span_linewidths: float = 6.0, n_points: int = 201,
                 allow_nonlinear: bool = False):
    """Probe sweep plus a Lorentzian dip fit per channel and power.

    Returns (sweep, fits) where fits[ch][pi] is the fit for that panel row,
    or None where fitting failed.  The lowest-power row is the headline
    estimate of f_r0 and the total linewidth.
    """
    sweep = run_probe_sweep(chip, powers_dbm, span_linewidths=span_linewidths,
                            n_points=n_points, allow_nonlinear=allow_nonlinear)
    fits = []
    for ch in range(chip.n_channels):
        row_fits = []
        for pi in range(len(sweep.powers_dbm)):
            row = sweep.magnitude[ch, pi]
            ok = np.isfinite(row)
            try:
                row_fits.append(analysis.fit_lorentzian(sweep.f_hz[ch][ok], row[ok]))
            except (analysis.FitError, ValueError):
                row_fits.append(None)
        fits.append(tuple(row_fits))
    return sweep, tuple(fits)


@dataclass(frozen=True)
class FilterSweepResult:
    """Steady-state response of every channel versus heater frequency."""

    f_heater_hz: np.ndarray
    response: np.ndarray       # (n_ch, n_freqs), |Gamma shift| at the probe tone
    heater_power_dbm: float
    unconverged: tuple[tuple[int, int], ...]

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


def run_filter_sweep(chip: ChipConfig, f_heater_hz, heater_power_dbm: float = -145.0,
                     settings: RunSettings | None = None) -> FilterSweepResult:
    """Sweep a CW heater tone and record each channel's steady-state response.

    The response is |Gamma(with heater) - Gamma(without)| at the channel's
    probe tone, both from operating-point solves; the peak sits at the
    channel's own filter center.  Solver failures flag the cell NaN.
    """
    settings = settings if settings is not None else RunSettings()
    f_grid = np.asarray(f_heater_hz, dtype=float)
    if f_grid.ndim != 1 or f_grid.size < 3:
        raise ValueError("heater frequency grid must be 1-d with >= 3 points")
    tones, ops = operating_tones(chip, settings)
    p_heat_w = dbm_to_watts(heater_power_dbm - chip.line_attenuation_db)

    resp = np.full((chip.n_channels, f_grid.size), np.nan)
    bad = []
    for ch, par in enumerate(chip.bolometers):
        filt = chip.matched_filter(ch)
        p_probe_w = dbm_to_watts(tones[ch].p_dbm)
        gamma0 = ops[ch].gamma
        for i, f_h in enumerate(f_grid):
            extra = p_heat_w * filter_transmission(filt, float(f_h))
            try:
                op = solve_operating_point(par, tones[ch].f_hz, p_probe_w, extra_power_w=extra)
            except SolverError:
                bad.append((ch, i))
                continue
            resp[ch, i] = abs(op.gamma - gamma0)
    return FilterSweepResult(
        f_heater_hz=f_grid,
        response=resp,
        heater_power_dbm=heater_power_dbm,
        unconverged=tuple(bad),
    )


@dataclass(frozen=True)
class PowerSweepResult:
    """Pulse response of one bolometer versus heater power at one frequency."""

    channel: int
    f_heater_hz: float
    powers_dbm: tuple[float, ...]
    powers_w: tuple[float, ...]     # device-plane power at the filter input
    responses: tuple[float, ...]

    def fit(self) -> analysis.CompressionFit:
        return analysis.fit_compression(np.array(self.powers_w), np.array(self.responses))


def run_power_sweep(chip: ChipConfig, channel: int, f_heater_hz: float, powers_dbm,
                    settings: RunSettings | None = None, seed: Seed = Seed(0),
                    noiseless: bool = True, stream_tag: int = 0) -> PowerSweepResult:
    """Heater power sweep through the full time-domain pipeline.

    Each power runs one pulse-response experiment (noiseless single shot by
    default, since the compression curve is deterministic) and records the
    windowed response amplitude of the target channel.  Defaults to the
    flank posture (detuning fraction 0.5) where the response is linear in
    small resonance shifts, which the compression fit relies on.
    """
    settings = settings if settings is not None else RunSettings(probe_detuning_fraction=0.5)
    if not 0 <= channel < chip.n_channels:
        raise ValueError(f"channel {channel} out of range")
    powers = [float(p) for p in powers_dbm]
    if sorted(powers) != powers:
        raise ValueError("powers must be sorted ascending")
    run_chip = replace(chip, noise_sigma_v=0.0) if noiseless else chip
    run_settings = replace(settings, n_avg=1) if noiseless else settings

    responses = []
    powers_w = []
    for i, p_dbm in enumerate(powers):
        pulse = PulseSpec(
            tone=ToneSpec(f_hz=f_heater_hz, p_dbm=p_dbm),
            t_start_s=settings.pulse_start_s,
            duration_s=settings.pulse_duration_s,
        )
        labels = (_KIND_POWERSWEEP, stream_tag, channel, i)
        run = _timedomain_run(run_chip, [pulse], run_settings, seed, labels)
        responses.append(run.metrics[channel].response)
        powers_w.append(dbm_to_watts(p_dbm - chip.line_attenuation_db))
    return PowerSweepResult(
        channel=channel,
        f_heater_hz=float(f_heater_hz),
        powers_dbm=tuple(powers),
        powers_w=tuple(powers_w),
        responses=tuple(responses),
    )


def power_sweep_matrix(chip: ChipConfig, powers_dbm, settings: RunSettings | None = None,
                       seed: Seed = Seed(0), threads: int = 1):
    """Power sweeps for every (bolometer, filter) pair.

    Returns (sweeps, p_1db_dbm, crosstalk) where sweeps[i][j] drives
    bolometer i through filter j's center and p_1db_dbm[i][j] is the fitted
    1 dB compression point of that path.
    """
    settings = settings if settings is not None else RunSettings(probe_detuning_fraction=0.5)
    n = chip.n_channels

    def one(i: int, j: int) -> PowerSweepResult:
        return run_power_sweep(chip, i, chip.filters[j].f_center_hz, powers_dbm,
                               settings, seed, stream_tag=j)

    flat = _fan_out(one, [(i, j) for i in range(n) for j in range(n)], threads)
    sweeps = [flat[i * n:(i + 1) * n] for i in range(n)]

    p1db = np.full((n, n), np.nan)
    for i in range(n):
        for j in range(n):
            p1db[i, j] = sweeps[i][j].fit().p_1db_dbm
    xtalk = analysis.crosstalk_matrix(p1db, chip.channel_map)
    return sweeps, p1db, xtalk


@dataclass(frozen=True)
class CalibrationTargets:
    """What calibrate_chip should achieve on the default posture.

    A matched heater tone at heater_power_dbm shifts each resonance by
    shift_fraction total linewidths in steady state; the averaged matched
    SNR of the all-on pattern reaches snr within tolerance.
    """

    shift_fraction: float = 0.5
    heater_power_dbm: float = -135.0
    snr: float = 7.5
    shift_tolerance: float = 0.05
    snr_tolerance: float = 0.05
    dfdt_bounds_hz_per_k: tuple[float, float] = (1e3, 1e15)
    sigma_bounds_v: tuple[float, float] = (1e-12, 1e-3)


def _steady_shift_hz(par: BolometerParams, chip: ChipConfig, settings: RunSettings,
                     extra_power_w: float) -> float:
    """Resonance shift caused by a constant extra load, probe feedback included."""
    p_w = dbm_to_watts(_device_dbm(chip, settings.probe_power_dbm))
    op0 = solve_operating_point(par, par.f_r0_hz, p_w)
    f_op = op0.f_r_star_hz + settings.probe_detuning_fraction * par.kappa_total_hz
    base = solve_operating_point(par, f_op, p_w)
    heated = solve_operating_point(par, f_op, p_w, extra_power_w=extra_power_w)
    return base.f_r_star_hz - heated.f_r_star_hz


def calibrate_chip(chip: ChipConfig, targets: CalibrationTargets | None = None,
                   settings: RunSettings | None = None, seed: Seed = Seed(0)):
    """Fix dfdt per channel and the noise level to meet the stated targets.

    Both knobs are set by bisection: dfdt against the steady-state matched
    heater shift (monotone in dfdt), then the digitizer noise against the
    minimum matched SNR of the all-on pattern (monotone decreasing in
    sigma).  Raises CalibrationError when a target is not bracketed by the
    allowed parameter range.
    """
    targets = targets if targets is not None else CalibrationTargets()
    settings = settings if settings is not None else RunSettings()
    report: dict = {"channels": [], "noise": {}}

    bolos = []
    for ch, par in enumerate(chip.bolometers):
        filt = chip.filters[chip.channel_map[ch]]
        delivered = (dbm_to_watts(targets.heater_power_dbm - chip.line_attenuation_db)
                     * filter_transmission(filt, filt.f_center_hz))
        target_shift = targets.shift_fraction * par.kappa_total_hz

        def shift_of(dfdt: float) -> float:
            return _steady_shift_hz(replace(par, dfdt_hz_per_k=dfdt), chip, settings, delivered)

        lo, hi = targets.dfdt_bounds_hz_per_k
        s_lo, s_hi = shift_of(lo), shift_of(hi)
        if not (s_lo <= target_shift <= s_hi):
            raise CalibrationError(
                f"channel {ch}: shift target {target_shift:.3g} Hz not reachable within "
                f"dfdt bounds (achievable {s_lo:.3g}..{s_hi:.3g} Hz)")
        for _ in range(200):
            mid = math.sqrt(lo * hi)
            s_mid = shift_of(mid)
            if abs(s_mid - target_shift) <= targets.shift_tolerance * target_shift:
                break
            if s_mid < target_shift:
                lo = mid
            else:
                hi = mid
        else:
            raise CalibrationError(f"channel {ch}: dfdt bisection did not converge")
        bolos.append(replace(par, dfdt_hz_per_k=mid))
        report["channels"].append({
            "channel": ch,
            "dfdt_hz_per_k": mid,
            "achieved_shift_hz": s_mid,
            "target_shift_hz": target_shift,
        })
    chip = replace(chip, bolometers=tuple(bolos))

    all_on = TriggerPattern((True,) * chip.n_channels)

    def min_matched_snr(sigma: float) -> float:
        trial = replace(chip, noise_sigma_v=sigma)
        run = run_trigger(trial, all_on, settings,
                          seed.child(_KIND_CALIBRATION))
        return min(m.snr for m in run.metrics)

    lo, hi = targets.sigma_bounds_v
    snr_lo, snr_hi = min_matched_snr(lo), min_matched_snr(hi)
    if not (snr_hi <= targets.snr <= snr_lo):
        raise CalibrationError(
            f"SNR target {targets.snr} not reachable within sigma bounds "
            f"(achievable {snr_hi:.3g}..{snr_lo:.3g})")
    sigma = lo
    achieved = snr_lo
    for _ in range(200):
        sigma = math.sqrt(lo * hi)
        achieved = min_matched_snr(sigma)
        if abs(achieved - targets.snr) <= targets.snr_tolerance * targets.snr:
            break
        if achieved > targets.snr:
            lo = sigma
        else:
            hi = sigma
    else:
        raise CalibrationError("noise bisection did not converge")
    chip = replace(chip, noise_sigma_v=sigma)
    report["noise"] = {"sigma_v": sigma, "achieved_min_matched_snr": achieved,
                       "target_snr": targets.snr}
    return chip, report
