"""Deterministic signal chain: IQ traces, the demodulation band slice, response metrics.

Filtering is exact DFT bin selection (brick-wall), which keeps the whole
chain reproducible to the bit.  A down-conversion keeps the inclusive bin
range carrier +- bandwidth/2 from `_band_offsets` (a guard of 1e-6 of a bin
spacing keeps edge bins against rounding of the edge), and `_band_iq`, the
one band slice, folds those bins onto the output rate and inverse
transforms them.  `_white_bins` draws the band bins of a white record's DFT
directly, so the engine's averaged noise needs no record.  `_zoom_dft`
gives a few bins of the DFT of a short sequence zero-padded to any length;
the engine's readout plans and sums its tones with it.  For a carrier on
the record's DFT grid the chain equals a full-record mixer.  An `IQTrace`
is a rate and its samples, the first at t = 0, so a window in seconds is
one slice of sample indices (`_window_slice`).  `_window_means` holds the
one copy of the response windows' arithmetic: `response_metric` reduces
one trace with it, and a power sweep all of a run's channels at once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "IQTrace",
    "ResponseMetric",
    "response_metric",
]


@dataclass(frozen=True)
class IQTrace:
    """Complex baseband trace of one probe tone, its first sample at t = 0; the
    tone's carrier is the run's `probe_tones` entry."""

    sample_rate_hz: float
    samples: np.ndarray

    def __post_init__(self) -> None:
        if not math.isfinite(self.sample_rate_hz) or self.sample_rate_hz <= 0.0:
            raise ValueError(f"sample rate must be finite and > 0, got {self.sample_rate_hz}")
        samples = np.asarray(self.samples, dtype=complex)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("samples must be a non-empty 1-d array")
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.size

    def times(self) -> np.ndarray:
        return np.arange(self.samples.size) / self.sample_rate_hz

    def magnitude(self) -> np.ndarray:
        return np.abs(self.samples)


def _band_offsets(n: int, bin_hz: float, lp_bandwidth_hz: float) -> np.ndarray:
    """Offsets j = -h..h with |j| * bin_hz <= lp_bandwidth/2; for even n, -n/2 is +n/2."""
    h = math.floor(0.5 * lp_bandwidth_hz / bin_hz + 1e-6)
    return np.arange(-h, min(h, (n - 1) // 2) + 1)


def _demod_band(n: int, sample_rate_hz: float, f_carrier_hz: float, lp_bandwidth_hz: float,
                decimation: int) -> tuple[int, np.ndarray]:
    """Carrier bin and band offsets of a down-conversion of an n-sample record.

    Raises ValueError unless the carrier lies below Nyquist on the record's
    DFT grid (to 1e-9 of a bin), the band fits the sampled band and
    decimation is a positive integer dividing n.
    """
    fs = sample_rate_hz
    if not 0.0 < f_carrier_hz < 0.5 * fs:
        raise ValueError(f"carrier {f_carrier_hz:.6g} Hz must lie between 0 and the Nyquist "
                         f"frequency {0.5 * fs:.6g} Hz")
    if not math.isfinite(lp_bandwidth_hz) or lp_bandwidth_hz <= 0.0:
        raise ValueError(f"low-pass bandwidth must be finite and > 0, got {lp_bandwidth_hz}")
    if 0.5 * lp_bandwidth_hz > 0.5 * fs:
        raise ValueError("low-pass bandwidth exceeds the sampled band")
    if not isinstance(decimation, int) or decimation < 1:
        raise ValueError(f"decimation must be a positive integer, got {decimation!r}")
    if n % decimation != 0:
        raise ValueError(f"decimation {decimation} must divide the trace length {n}")
    bin_hz = fs / n
    k_c = round(f_carrier_hz / bin_hz)
    if abs(f_carrier_hz - k_c * bin_hz) > 1e-9 * bin_hz:
        raise ValueError(f"carrier {f_carrier_hz:.12g} Hz is off the DFT grid of {bin_hz:.12g} Hz")
    return k_c, _band_offsets(n, bin_hz, lp_bandwidth_hz)


def _white_bins(rng, bins: np.ndarray, n: int, sigma: float) -> np.ndarray:
    """The bins (any integers, read mod n) of the DFT of an n-sample white record of
    std sigma, drawn in the band, exact in distribution.

    Bins q and n - q are conjugates, and the distinct folded bins min(q, n - q)
    independent: complex normals with E|X|**2 = n sigma**2, real at 0 and n/2.
    One (2, distinct) draw from rng, in sorted folded-bin order, serves them all,
    so windows that share a bin share its value.
    """
    q = bins % n
    folded, index = np.unique(np.minimum(q, n - q), return_inverse=True)
    draw = rng.standard_normal((2, folded.size)) * (sigma * math.sqrt(0.5 * n))
    edge = (folded == 0) | (2 * folded == n)
    draw[0, edge] *= math.sqrt(2.0)
    draw[1, edge] = 0.0
    values = (draw[0] + 1j * draw[1])[index.reshape(q.shape)]
    return np.where(2 * q > n, values.conj(), values)


def _chirp(n: int, k: np.ndarray) -> np.ndarray:
    """exp(-i pi k^2 / n), the phase reduced mod 2 pi in integers, so exact at any n."""
    return np.exp(-1j * np.pi / n * (k * k % (2 * n)))


@functools.lru_cache(maxsize=8)
def _zoom_kernel(n: int, m: int, width: int) -> tuple[int, np.ndarray]:
    """_zoom_dft's transform length and the transform of its chirp filter."""
    size = 1 << (m + width - 2).bit_length()
    lags = np.arange(size)
    lags[width:] -= size        # lags -(size - width) .. -1 cover -(m - 1) .. -1
    kernel = np.fft.fft(np.conj(_chirp(n, lags)))
    kernel.flags.writeable = False   # one cached array serves every caller
    return size, kernel


def _zoom_dft(y: np.ndarray, n: int, width: int) -> np.ndarray:
    """sum_m y[..., m] exp(-2 pi i j m / n) for j < width, for any n.

    Bins 0..width-1 of the n-point DFT of y zero-padded, by Bluestein's
    chirp-z transform: j m = (j^2 + m^2 - (j - m)^2) / 2 makes the sum one
    convolution with a chirp, done by FFTs of a power-of-two length >=
    y.shape[-1] + width - 1 on 24 rows at a time, so no table of y.shape[-1] x
    width and no zero-padded copy of all of y.
    """
    m = y.shape[-1]
    size, kernel = _zoom_kernel(n, m, width)
    rows, head, tail = y.reshape(-1, m), _chirp(n, np.arange(m)), _chirp(n, np.arange(width))
    out = np.empty((len(rows), width), dtype=complex)
    for lo in range(0, len(rows), 24):
        spectrum = np.zeros((min(24, len(rows) - lo), size), dtype=complex)
        np.multiply(rows[lo:lo + 24], head, out=spectrum[:, :m])
        np.fft.fft(spectrum, axis=-1, out=spectrum)
        spectrum *= kernel
        np.fft.ifft(spectrum, axis=-1, out=spectrum)
        np.multiply(spectrum[:, :width], tail, out=out[lo:lo + 24])
    return out.reshape(*y.shape[:-1], width)


def _band_iq(bands: np.ndarray, offsets: np.ndarray, n: int, decimation: int) -> np.ndarray:
    """The band slice: rows of DFT bins carrier + offsets of an n-sample record,
    referred to its start, folded onto the n/decimation output bins (a band wider
    than the output rate aliases as decimation would) and inverse transformed to IQ."""
    folded = np.zeros((*bands.shape[:-1], n // decimation), dtype=complex)
    np.add.at(folded, (..., offsets % folded.shape[-1]), bands)
    return np.fft.ifft(folded, axis=-1) / decimation


def _baseline_std_per_volt(n: int, sample_rate_hz: float, lp_bandwidth_hz: float,
                           decimation: int, baseline_window_s) -> float:
    """Expected baseline std of |IQ| per volt of white noise on an n-sample record.

    The band slice makes each output sample of variance B/n per V**2 (B band
    bins), correlated by r(d) = mean_j exp(2 pi i j d / M) over the band
    offsets j (M output samples).  While the carrier dominates the noise,
    |IQ| follows the in-phase half, so N baseline samples have expected
    variance B/n/2 * (1 - sum_ij Re r(i - j) / N**2).  Past that, |IQ| is Rician.
    """
    offsets = _band_offsets(n, sample_rate_hz / n, lp_bandwidth_hz)
    m = n // decimation
    window = _window_slice(sample_rate_hz / decimation, m, baseline_window_s)
    n_base = window.stop - window.start
    lags = np.arange(1 - n_base, n_base)
    r = np.mean(np.cos(2.0 * np.pi * np.outer(lags, offsets) / m), axis=1)
    mean_r = float(np.sum((n_base - np.abs(lags)) * r)) / n_base ** 2
    return math.sqrt(offsets.size / n / 2.0 * (1.0 - mean_r))


@dataclass(frozen=True)
class ResponseMetric:
    """Windowed pulse-response summary of a demodulated magnitude trace.

    snr = (signal_mean - baseline_mean) / baseline_std.  zero_noise marks a
    perfectly quiet baseline (std == 0), in which case snr is reported as 0
    rather than raising.
    """

    signal_mean: float
    baseline_mean: float
    baseline_std: float
    snr: float
    zero_noise: bool

    @property
    def response(self) -> float:
        return self.signal_mean - self.baseline_mean


def _window_slice(rate_hz: float, n: int, window_s) -> slice:
    w0, w1 = float(window_s[0]), float(window_s[1])
    if not (math.isfinite(w0) and math.isfinite(w1)) or w1 <= w0:
        raise ValueError(f"window must satisfy start < end, got ({w0}, {w1})")
    # half-open [w0, w1); a sample exactly on the start edge is included
    i0 = math.ceil(w0 * rate_hz - 1e-9)
    i1 = math.ceil(w1 * rate_hz - 1e-9)
    if i0 < 0 or i1 > n:
        raise ValueError(f"window ({w0}, {w1}) s falls outside the trace")
    if i1 <= i0:
        raise ValueError(f"window ({w0}, {w1}) s contains no samples")
    return slice(i0, i1)


def _window_means(mag: np.ndarray, rate_hz: float, baseline_window_s, signal_window_s):
    """mag's baseline window, and its mean and the signal window's mean, along the
    last axis: a run's every channel in one reduction each."""
    if float(baseline_window_s[1]) > float(signal_window_s[0]):
        raise ValueError("baseline window must end before the signal window starts")
    base = mag[..., _window_slice(rate_hz, mag.shape[-1], baseline_window_s)]
    sig = mag[..., _window_slice(rate_hz, mag.shape[-1], signal_window_s)]
    return base, np.mean(base, axis=-1), np.mean(sig, axis=-1)


def response_metric(iq: IQTrace, baseline_window_s, signal_window_s) -> ResponseMetric:
    """Compare |IQ| in a signal window against a pre-pulse baseline window."""
    base, baseline_mean, signal_mean = _window_means(iq.magnitude(), iq.sample_rate_hz,
                                                     baseline_window_s, signal_window_s)
    baseline_std = float(np.std(base))
    baseline_mean, signal_mean = float(baseline_mean), float(signal_mean)
    if baseline_std == 0.0:
        return ResponseMetric(signal_mean, baseline_mean, 0.0, 0.0, True)
    snr = (signal_mean - baseline_mean) / baseline_std
    return ResponseMetric(signal_mean, baseline_mean, baseline_std, float(snr), False)
