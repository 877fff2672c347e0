"""The engine's readout: every channel's demod band bins of one run's record,
read from each probe's per-thermal-step expansion of its reflection.

One probe line and one digitizer carry every channel's tone Re(a Gamma(t)
exp(2 pi i k_ch i / n)), Gamma sampled per digitizer sample on the exact
within-step exponential relaxation.  Each channel's band is a window of the
record's DFT around its carrier bin.  `_readout` computes those windows
without any array at the digitizer rate: within a step Gamma is a short
power series in the sample's fade, so a window bin is a sum over K+1
length-`steps` FFTs of the series coefficients times a table planned once
per batch (`_readout_plan`).  The few steps where the series would
converge too slowly are summed sample by sample instead.  Every tone feeds
every window, through its own spectrum and through its Re() image.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .device import _gamma
from .dsp import _demod_band, _zoom_dft
from .units import tone_amplitude_volts

if TYPE_CHECKING:
    from .experiments import ChipConfig, RunSettings

__all__: list[str] = []

# Gamma's expansion within one thermal step (see _readout): its order K, and
# the bound on a step's ratio rho = |D| max_m |x^m - x0| / |z| past which the
# step is summed sample by sample.  An expanded step's truncation error is at
# most rho^(K+1) / (1 - rho) <= 0.05^9 / 0.95, about 2e-12 of |kappa_ext / z|.
_EXPANSION_ORDER = 8
_EXPANSION_BOUND = 0.05


class _ReadoutPlan(NamedTuple):
    """A batch's readout constants, planned once by _readout_plan (see _readout)."""

    n: int                      # record length
    decimation: int
    carrier_bins: np.ndarray    # (ch,) each probe tone's DFT bin
    offsets: np.ndarray         # band offsets around a carrier, shared by every channel
    device: tuple               # (ch, 1) columns f_probe, f_r0, dfdt, t_bath, kappa_ext, kappa_int
    fade: np.ndarray            # (ch, block) x^m, the within-step relaxation
    x0: np.ndarray              # (ch, 1) expansion point, the middle of x^m's range
    spread: np.ndarray          # (ch, 1) max_m |x^m - x0|
    starts: np.ndarray          # (ch, 2, windows) first spectrum bin read per tone, term, window
    rotations: np.ndarray       # (ch, 2, windows, block) a/2 exp(-2 pi i starts m / n)
    table: np.ndarray           # (ch, 2, windows, K+1, width) the expansion's bin weights
    picks: np.ndarray           # (ch, 2, windows, K+1, width) flat indices into the step spectra


def _readout_plan(chip: ChipConfig, settings: RunSettings, tones) -> _ReadoutPlan:
    """The readout constants of a batch on chip, each channel probed at tones[ch]."""
    n, steps, block, decimation = settings.validate_against(chip)
    fs, n_ch, order = chip.sample_rate_hz, chip.n_channels, _EXPANSION_ORDER
    planned = [_demod_band(n, fs, tone.f_hz, settings.demod_bandwidth_hz, decimation)
               for tone in tones]
    carrier_bins, offsets = np.array([k_c for k_c, _ in planned]), planned[0][1]
    width = offsets.size
    device = tuple(np.array(column)[:, None] for column in zip(*(
        (tone.f_hz, p.f_r0_hz, p.dfdt_hz_per_k, p.t_bath_k, p.kappa_ext_hz, p.kappa_int_hz)
        for tone, p in zip(tones, chip.bolometers))))
    fade = np.exp(-np.arange(block) / (fs * np.array([[p.tau_th_s] for p in chip.bolometers])))
    x0 = 0.5 * (fade[:, :1] + fade[:, -1:])
    # window w holds bins k_w + offsets of the record; tone ch's Re(a Gamma
    # carrier) puts there a/2 times Gamma's spectrum at k_w - k_ch + offsets
    # (term 0) plus conj(Gamma)'s at k_w + k_ch + offsets (term 1, its image);
    # phases are integers reduced mod n, so exact at any record length
    starts = np.stack([carrier_bins - carrier_bins[:, None],
                       carrier_bins + carrier_bins[:, None]], axis=1) + offsets[0]
    half_amplitude = np.array([0.5 * tone_amplitude_volts(tone.p_dbm) for tone in tones])
    rotations = (half_amplitude[:, None, None, None]
                 * np.exp(-2j * np.pi / n * ((starts[..., None] % n) * np.arange(block) % n)))
    # table[..., k, j] = a/2 sum_m (x^m - x0)^k exp(-2 pi i (starts + j) m / n)
    powers = (fade - x0)[:, None, :] ** np.arange(order + 1)[:, None]
    table = _zoom_dft(powers[:, None, None] * rotations[:, :, :, None, :], n, width)
    # term 1 reads conj(Gamma)'s spectrum at q: the conjugate of Gamma's at -q
    q = (starts[..., None] + np.arange(width)) * np.array([1, -1])[:, None, None]
    picks = ((np.arange(n_ch)[:, None, None, None, None] * (order + 1)
              + np.arange(order + 1)[:, None]) * steps + (q % steps)[:, :, :, None, :])
    return _ReadoutPlan(n, decimation, carrier_bins, offsets, device, fade, x0,
                        np.max(np.abs(fade - x0), axis=1, keepdims=True), starts, rotations,
                        table, picks)


def _expanded_bins(plan: _ReadoutPlan, det_inf: np.ndarray, drive: np.ndarray):
    """The window bins of every step Gamma's expansion covers, and the steps it does not.

    Within step s the detuning is det_inf[s] + drive[s] x^m, so with z =
    kappa/2 + i (det_inf + drive x0), Gamma = sum_k C[k] (x^m - x0)^k, where
    C[0] = 1 - kappa_ext/z and C[k] = -(kappa_ext/z) (-i drive/z)^k.  The
    steps whose ratio passes _EXPANSION_BOUND are left out (their C zeroed).
    A spectrum bin q of the expansion is sum_k FFT_steps(C[k])[q mod steps]
    times the plan's table.  Returns the (windows, width) bins and the
    (ch, steps) mask of the steps left out.
    """
    _, _, _, _, ke, ki = plan.device
    n_ch, steps = det_inf.shape
    z = 0.5 * (ke + ki) + 1j * (det_inf + drive * plan.x0)
    dense = np.abs(drive) * plan.spread > _EXPANSION_BOUND * np.abs(z)
    coeffs = np.empty((n_ch, _EXPANSION_ORDER + 1, steps), dtype=complex)
    scale = np.divide(ke, z, out=coeffs[:, 0])
    ratio = -1j * drive / z
    np.multiply(scale, -ratio, out=coeffs[:, 1])
    for k in range(2, _EXPANSION_ORDER + 1):
        np.multiply(coeffs[:, k - 1], ratio, out=coeffs[:, k])
    np.subtract(1.0, scale, out=coeffs[:, 0])
    coeffs.transpose(0, 2, 1)[dense] = 0.0
    picked = np.take(np.fft.fft(coeffs, axis=-1, out=coeffs), plan.picks)
    np.conjugate(picked[:, 1], out=picked[:, 1])
    return np.einsum("ctwkj,ctwkj->wj", plan.table, picked), dense


def _dense_bins(plan: _ReadoutPlan, det_inf: np.ndarray, drive: np.ndarray,
                dense: np.ndarray) -> np.ndarray:
    """The window bins of the (channel, step) pairs dense marks, each step summed
    over its own samples."""
    _, _, _, _, ke, ki = plan.device
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


def _readout(plan: _ReadoutPlan, t_start: np.ndarray, t_inf_of: np.ndarray) -> np.ndarray:
    """The noiseless record's DFT over every channel's band window, a (windows,
    width) array, from one run's (channels, steps) trajectories.

    The record is the sum of the tones Re(a Gamma(t) exp(2 pi i k_ch i / n)),
    Gamma on the exact within-step exponential at every digitizer sample, as
    one digitizer carries them.  Its bins are read from Gamma's per-step
    expansion (_expanded_bins), with no array at the digitizer rate, plus
    the steps the expansion leaves out, summed sample by sample (_dense_bins).
    """
    f_p, f_r0, dfdt, t_bath, _, _ = plan.device
    det_inf = f_p - (f_r0 - dfdt * (t_inf_of - t_bath))
    drive = dfdt * (t_start - t_inf_of)
    bands, dense = _expanded_bins(plan, det_inf, drive)
    if dense.any():
        bands += _dense_bins(plan, det_inf, drive, dense)
    return bands
