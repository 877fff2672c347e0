"""The time-domain engine: one plan, read by the thermal pass and the readout.

`_engine_plan` holds what every run on a chip shares, and is read-only once
built.  `_thermal_stage` steps a batch's every (run, channel) together, one
row per loop iteration; `_readout` reads one run's demod band bins: its
tones Re(a Gamma(t) exp(2 pi i k_ch i / n)), Gamma on the exact
within-step relaxation at every digitizer sample, from a short Chebyshev
series in each step (_expanded_bins) or, where that converges too slowly,
sample by sample, and on a noisy chip the averaged noise, drawn in the
band: no digitizer-rate array for the tones or for the noise.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .device import _absorption, _gamma
from .dsp import _demod_band, _white_bins, _zoom_dft
from .units import dbm_to_watts, tone_amplitude_volts

if TYPE_CHECKING:
    from .config import ChipConfig, RunSettings

__all__: list[str] = []

# Gamma's Chebyshev expansion within one thermal step (see _expanded_bins): its
# order K, and the bound on its coefficients' ratio |beta| past which a step is
# summed sample by sample.  An expanded step's truncation error is at most 2
# |beta|^(K+1) / (1 - |beta|) <= 2 * 0.045^9 / 0.955, 1.6e-12 of |kappa_ext / g|.
_EXPANSION_ORDER = 8
_EXPANSION_BOUND = 0.045


class _Channels(NamedTuple):
    """Each channel's constants in a batch, every one a (channels, 1) column."""

    f_probe: np.ndarray         # probe tone frequency
    p_probe: np.ndarray         # probe tone power at the device, W
    f_r0: np.ndarray
    dfdt: np.ndarray
    t_bath: np.ndarray
    kappa_ext: np.ndarray
    kappa_int: np.ndarray
    g_th: np.ndarray
    decay: np.ndarray           # exp(-dt / tau_th), one thermal step's relaxation
    decay_half: np.ndarray      # exp(-dt / (2 tau_th))
    t_star: np.ndarray          # the operating point's temperature, where runs start

    def detuning(self, rise):
        """Probe tone minus resonance at a temperature rise above the bath."""
        return self.f_probe - (self.f_r0 - self.dfdt * rise)


class _EnginePlan(NamedTuple):
    """A batch's constants, planned once by _engine_plan."""

    n: int                      # record length
    steps: int                  # thermal steps
    decimation: int             # to the output rate
    sample_rate_hz: float
    pulse: slice                # the heater window's steps, [on:off)
    noise_scale: float          # sigma / sqrt(n_avg), 0.0 on a quiet chip
    channels: _Channels
    carrier_bins: np.ndarray    # (ch,) each probe tone's DFT bin
    offsets: np.ndarray         # band offsets around a carrier, shared by every channel
    fade: np.ndarray            # (ch, block) x^m, the within-step relaxation
    x0: np.ndarray              # (ch, 1) expansion point, the middle of x^m's range
    spread: np.ndarray          # (ch, 1) half x^m's range, max_m |x^m - x0|
    starts: np.ndarray          # (ch, 2, windows) first spectrum bin read per tone, term, window
    rotations: np.ndarray       # (ch, 2, windows, block) a/2 exp(-2 pi i starts m / n)
    table: np.ndarray           # (ch, 2, windows, K+1, width) the expansion's bin weights
    picks: np.ndarray           # (ch, 2, windows, K+1, width) flat indices into the step spectra


def _engine_plan(chip: ChipConfig, settings: RunSettings, operating) -> _EnginePlan:
    """The constants of every run on chip, each channel probed as operating_tones places it."""
    n, steps, block, decimation = settings.validate_against(chip)
    fs, n_ch, order = chip.sample_rate_hz, chip.n_channels, _EXPANSION_ORDER
    dt, start, (tones, ops) = settings.thermal_dt_s, settings.pulse_start_s, operating
    # edge steps are rounded: s*dt lies below a typical microsecond edge, and
    # flooring would delay each edge one step, making the stepping first order
    pulse = slice(round(start / dt), round((start + settings.pulse_duration_s) / dt))
    channels = _Channels(*(np.array(column)[:, None] for column in zip(*(
        (tone.f_hz, dbm_to_watts(tone.p_dbm), p.f_r0_hz, p.dfdt_hz_per_k, p.t_bath_k,
         p.kappa_ext_hz, p.kappa_int_hz, p.g_th_w_per_k, math.exp(-dt / p.tau_th_s),
         math.exp(-0.5 * dt / p.tau_th_s), op.t_star_k)
        for tone, p, op in zip(tones, chip.bolometers, ops)))))
    planned = [_demod_band(n, fs, tone.f_hz, settings.demod_bandwidth_hz, decimation)
               for tone in tones]
    carrier_bins, offsets = np.array([k_c for k_c, _ in planned]), planned[0][1]
    width = offsets.size
    fade = np.exp(-np.arange(block) / (fs * np.array([[p.tau_th_s] for p in chip.bolometers])))
    x0, spread = 0.5 * (fade[:, :1] + fade[:, -1:]), 0.5 * (fade[:, :1] - fade[:, -1:])
    # window w holds bins k_w + offsets of the record; tone ch's Re(a Gamma
    # carrier) puts there a/2 times Gamma's spectrum at k_w - k_ch + offsets
    # (term 0) plus conj(Gamma)'s at k_w + k_ch + offsets (term 1, its image);
    # phases are integers reduced mod n, so exact at any record length
    starts = np.stack([carrier_bins - carrier_bins[:, None],
                       carrier_bins + carrier_bins[:, None]], axis=1) + offsets[0]
    half_amplitude = np.array([0.5 * tone_amplitude_volts(tone.p_dbm) for tone in tones])
    rotations = (half_amplitude[:, None, None, None]
                 * np.exp(-2j * np.pi / n * ((starts[..., None] % n) * np.arange(block) % n)))
    # table[..., k, j] = a/2 sum_m T_k(u_m) exp(-2 pi i (starts + j) m / n), u_m in [-1, 1]
    basis = np.ones((n_ch, order + 1, block))
    u = basis[:, 1] = np.divide(fade - x0, spread, out=np.zeros_like(fade), where=spread > 0.0)
    for k in range(2, order + 1):
        basis[:, k] = 2.0 * u * basis[:, k - 1] - basis[:, k - 2]
    table = _zoom_dft(basis[:, None, None] * rotations[:, :, :, None, :], n, width)
    # term 1 reads conj(Gamma)'s spectrum at q: the conjugate of Gamma's at -q
    q = (starts[..., None] + np.arange(width)) * np.array([1, -1])[:, None, None]
    picks = ((np.arange(n_ch)[:, None, None, None, None] * (order + 1)
              + np.arange(order + 1)[:, None]) * steps + (q % steps)[:, :, :, None, :])
    return _EnginePlan(n, steps, decimation, fs, pulse,
                       chip.noise_sigma_v / math.sqrt(settings.n_avg), channels, carrier_bins,
                       offsets, fade, x0, spread, starts, rotations, table, picks)


def _thermal_stage(plan: _EnginePlan, heater_w: np.ndarray):
    """Every (run, channel) trajectory under a (runs, channels) heater power on
    for the plan's pulse, stepped together: each step relaxes exactly from
    t_start toward t_inf = t_bath + p_abs/g_th, p_abs taken at a predicted
    half-step temperature (second order in dt).  Once a step maps the whole
    state onto itself bit for bit, it is repeated up to the next pulse edge.
    Returns t_start and t_inf, (runs, channels, iterations) views of one
    step-major row per loop iteration, and each step's row, (steps,).
    """
    runs, n_ch = heater_w.shape
    c = plan.channels._make(np.tile(column[:, 0], runs) for column in plan.channels)
    absorbed, t_bath, t_e = _absorption(c.kappa_ext, c.kappa_int), c.t_bath, c.t_star
    rows, index, i, s = np.empty((16, 2, runs * n_ch)), np.empty(plan.steps, dtype=np.intp), 0, 0
    for end, heat in ((plan.pulse.start, 0.0), (plan.pulse.stop, heater_w.ravel()),
                      (plan.steps, 0.0)):
        while s < end:
            rise = t_e - t_bath
            rise_inf = (c.p_probe * absorbed(c.detuning(rise)) + heat) / c.g_th
            t_mid = t_bath + rise_inf + (rise - rise_inf) * c.decay_half
            t_inf = t_bath + (c.p_probe * absorbed(c.detuning(t_mid - t_bath)) + heat) / c.g_th
            t_next = t_inf + (t_e - t_inf) * c.decay
            stop = end if t_next.tobytes() == t_e.tobytes() else s + 1
            if i == len(rows):      # realloc'd in place: no view of it exists yet
                rows.resize((i + i // 4, *rows.shape[1:]), refcheck=False)
            rows[i, 0], rows[i, 1], index[s:stop] = t_e, t_inf, i
            t_e, s, i = t_next, stop, i + 1
    rows.resize((i, *rows.shape[1:]), refcheck=False)
    return (*rows.reshape(i, 2, runs, n_ch).transpose(1, 2, 3, 0), index)


def _expanded_bins(plan: _EnginePlan, det_inf: np.ndarray, drive: np.ndarray):
    """The window bins of every step Gamma's expansion covers, and the steps it does not.

    Within step s, with z = kappa/2 + i (det_inf + drive x0), c = drive spread and
    u = (x^m - x0) / spread, Gamma = 1 - kappa_ext / (z + i c u) = sum_k C[k] T_k(u),
    where g = sqrt(z^2 + c^2) (principal branch), beta = -i c / (z + g) (|beta| <=
    1), C[0] = 1 - kappa_ext/g and C[k] = -2 (kappa_ext/g) beta^k.  The steps whose
    |beta| passes _EXPANSION_BOUND are left out (their C zeroed).  A spectrum bin q
    is sum_k FFT_steps(C[k])[q mod steps] times the plan's table.  Returns the
    (windows, width) bins and the (ch, steps) mask of the steps left out.
    """
    (n_ch, steps), ke, ki = det_inf.shape, plan.channels.kappa_ext, plan.channels.kappa_int
    coeffs = np.empty((n_ch, _EXPANSION_ORDER + 1, steps), dtype=complex)
    z, c = 0.5 * (ke + ki) + 1j * (det_inf + drive * plan.x0), plan.spread * drive
    g = np.sqrt(z * z + c * c)
    beta = -1j * c / (z + g)
    dense = np.abs(beta) > _EXPANSION_BOUND
    scale = np.divide(ke, g, out=coeffs[:, 0])
    np.multiply(scale, -2.0 * beta, out=coeffs[:, 1])
    for k in range(2, _EXPANSION_ORDER + 1):
        np.multiply(coeffs[:, k - 1], beta, out=coeffs[:, k])
    np.subtract(1.0, scale, out=coeffs[:, 0])
    coeffs.transpose(0, 2, 1)[dense] = 0.0
    del z, c, g, beta, scale        # made after coeffs, so the picked spectra reuse them
    picked = np.take(np.fft.fft(coeffs, axis=-1, out=coeffs), plan.picks)
    del coeffs                      # freed before the contraction's buffer
    np.conjugate(picked[:, 1], out=picked[:, 1])
    return np.einsum("ctwkj,ctwkj->wj", plan.table, picked), dense


def _dense_bins(plan: _EnginePlan, det_inf: np.ndarray, drive: np.ndarray,
                dense: np.ndarray) -> np.ndarray:
    """The window bins of the (channel, step) pairs dense marks, each step summed
    over its own samples."""
    ke, ki = plan.channels.kappa_ext, plan.channels.kappa_int
    rows, s = np.nonzero(dense)
    gamma = _gamma(drive[rows, s, None] * plan.fade[rows] + det_inf[rows, s, None],
                   ke[rows], ki[rows])
    steps, width = det_inf.shape[1], plan.offsets.size
    sums = _zoom_dft(np.stack([gamma, gamma.conj()], axis=1)[:, :, None, :]
                     * plan.rotations[rows], plan.n, width)
    # step s starts s * block samples in: bin starts + j takes the phase
    # exp(-2 pi i (starts + j) s / steps)
    return np.einsum(
        "rtwj,rtw,rj->wj", sums,
        np.exp(-2j * np.pi / steps * (plan.starts[rows] * s[:, None, None] % steps)),
        np.exp(-2j * np.pi / steps * (np.outer(s, np.arange(width)) % steps)))


def _readout(plan: _EnginePlan, t_start: np.ndarray, t_inf_of: np.ndarray, rng) -> np.ndarray:
    """The record's DFT over every channel's band window, (windows, width), from
    one run's (channels, steps) trajectories: Gamma's per-step expansion
    (_expanded_bins), the steps it leaves out (_dense_bins) and on a noisy
    chip the mean of n_avg noise records, a white record of std noise_scale
    whose window bins are drawn from rng in the band (_white_bins); on a
    quiet chip rng is None.
    """
    c = plan.channels
    det_inf, drive = c.detuning(t_inf_of - c.t_bath), c.dfdt * (t_start - t_inf_of)
    bands, dense = _expanded_bins(plan, det_inf, drive)
    if dense.any():
        bands += _dense_bins(plan, det_inf, drive, dense)
    if rng is not None:
        bands += _white_bins(rng, plan.carrier_bins[:, None] + plan.offsets, plan.n,
                             plan.noise_scale)
    return bands
