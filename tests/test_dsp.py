"""Digitizer-side processing: demodulation, the predicted noise floor and
pulse-response metrics."""

import math

import numpy as np
import pytest

from bolomux.dsp import (IQTrace, _band_iq, _baseline_std_per_volt, _demod_band, _white_bins,
                         _zoom_dft, response_metric)
from bolomux.units import Seed, derive_stream, tone_amplitude_volts


def stream(master, *labels):
    return derive_stream(Seed(master), *labels)


def cosines(fs, n, tones):
    """Sum of a cos(2 pi f t + phase), a = sqrt(2 P 50 ohm), over (f, dBm, phase)."""
    t = np.arange(n) / fs
    return sum(tone_amplitude_volts(p_dbm) * np.cos(2.0 * np.pi * f_hz * t + phase)
               for f_hz, p_dbm, phase in tones)


def tone_record(f_hz=10e6, p_dbm=0.0, fs=1e9, dur=2e-6, phase=0.0):
    return cosines(fs, round(dur * fs), [(f_hz, p_dbm, phase)])


def with_noise(record, sigma_v, gen):
    """record plus white Gaussian noise of std sigma_v drawn from gen."""
    return record + gen.normal(0.0, sigma_v, record.size)


def band_demodulate(record, fs, f_carrier_hz, lp_bandwidth_hz, decimation, t0_s=0.0):
    """Down-convert a real record sampled from t0_s through the engine's chain.

    _demod_band plans the carrier bin and band, whose bins of the record's
    DFT are rotated by exp(-i w_c t0) to refer them to the record's start,
    and _band_iq slices them to IQ.  A pure tone a*cos(2 pi f_c t)
    demodulates to a/2.
    """
    n = record.size
    k_c, offsets = _demod_band(n, fs, f_carrier_hz, lp_bandwidth_hz, decimation)
    band = np.fft.fft(record)[(k_c + offsets) % n] * np.exp(-2j * np.pi * f_carrier_hz * t0_s)
    return IQTrace(f_carrier_hz, fs / decimation, t0_s, _band_iq(band, offsets, n, decimation))


def mixer_demodulate(record, fs, f_carrier_hz, lp_bandwidth_hz, decimation, t0_s=0.0):
    """The record-length mixer that the band slice replaced, kept as its oracle.

    Mixes the whole record, sampled from t0_s, down by exp(-2 pi i f_c t),
    brick-wall low-passes it with one complex FFT pair and keeps every
    decimation-th sample.
    """
    n = record.size
    times = t0_s + np.arange(n) / fs
    mixed = record * np.exp(-2j * np.pi * f_carrier_hz * times)
    freqs = np.abs(np.fft.fftfreq(n, 1.0 / fs))
    keep = freqs <= 0.5 * lp_bandwidth_hz + 1e-6 * fs / n
    baseband = np.fft.ifft(np.where(keep, np.fft.fft(mixed), 0.0))
    return baseband[::decimation]


# ----------------------------------------------------------------- traces


def test_iq_trace_magnitude():
    iq = IQTrace(156.7e6, 1e7, 0.0, np.full(10, 3.0 + 4.0j))
    assert np.allclose(iq.magnitude(), 5.0)
    assert len(iq) == 10


# ----------------------------------------------------------------- demod


def test_demod_pure_carrier_gives_half_amplitude():
    a = math.sqrt(0.1)  # 0 dBm tone
    iq = band_demodulate(tone_record(f_hz=10e6, p_dbm=0.0), 1e9, 10e6, 2e6, 100)
    assert np.max(np.abs(iq.magnitude() - a / 2)) < 1e-9
    assert iq.sample_rate_hz == 1e7
    assert iq.carrier_hz == 10e6


def test_demod_carries_phase():
    phase = 0.7
    iq = band_demodulate(tone_record(f_hz=10e6, phase=phase), 1e9, 10e6, 2e6, 100)
    assert np.angle(iq.samples[3]) == pytest.approx(phase, abs=1e-9)


def test_demod_rejects_distant_tone():
    # a tone 40 MHz off carrier is outside the 2 MHz low-pass
    iq = band_demodulate(tone_record(f_hz=50e6), 1e9, 10e6, 2e6, 100)
    assert np.max(iq.magnitude()) < 1e-12


def test_demod_is_linear():
    fs, dur = 1e9, 2e-6
    x = with_noise(tone_record(fs=fs, dur=dur), 1e-3, stream(4, 0))
    y = with_noise(tone_record(fs=fs, dur=dur), 1e-3, stream(4, 1))
    direct = band_demodulate(2.0 * x + 3.0 * y, fs, 10e6, 2e6, 100)
    parts = (2.0 * band_demodulate(x, fs, 10e6, 2e6, 100).samples
             + 3.0 * band_demodulate(y, fs, 10e6, 2e6, 100).samples)
    assert np.max(np.abs(direct.samples - parts)) < 1e-12


@pytest.mark.parametrize("t0, f_c, lp_bw, dec", [
    (3.7e-6, 156.5e6, 2e6, 100),    # on-grid carrier, record not at t = 0
    (0.0, 1.0e6, 5e6, 10),          # band crosses DC
    (1.3e-6, 498.5e6, 5e6, 10),     # band reaches past Nyquist
    (0.0, 120.0e6, 40e6, 100),      # low-pass wider than the output rate
    (2.0e-6, 250.0e6, 1e9, 4),      # low-pass as wide as the sample rate
])
def test_demod_matches_mixer_oracle(t0, f_c, lp_bw, dec):
    fs, n = 1e9, 2000
    neighbors = [f for f in (f_c + 1.5e6, f_c - 2.5e6) if 0.0 < f < 0.5 * fs]
    comb = cosines(fs, n, [(f_c, -40.0, 0.3)] + [(f, -45.0, 1.1) for f in neighbors])
    record = with_noise(comb, 1e-4, stream(12, 0))
    oracle = mixer_demodulate(record, fs, f_c, lp_bw, dec, t0)
    iq = band_demodulate(record, fs, f_c, lp_bw, dec, t0)
    assert iq.t0_s == t0 and iq.sample_rate_hz == fs / dec
    assert np.max(np.abs(iq.samples - oracle)) <= 1e-9 * np.max(np.abs(oracle))


def test_demod_rejects_off_grid_carrier():
    n, fs = 2000, 1e9  # grid spacing 500 kHz
    with pytest.raises(ValueError, match="grid"):
        _demod_band(n, fs, 10.25e6, 2e6, 100)
    with pytest.raises(ValueError, match="grid"):
        _demod_band(n, fs, 10e6 + 1e-3, 2e6, 100)


def test_demod_validation():
    n, fs = 2000, 1e9
    with pytest.raises(ValueError):
        _demod_band(n, fs, 0.0, 2e6, 100)
    with pytest.raises(ValueError):
        _demod_band(n, fs, 600e6, 2e6, 100)
    with pytest.raises(ValueError):
        _demod_band(n, fs, 10e6, 0.0, 100)
    with pytest.raises(ValueError):
        _demod_band(n, fs, 10e6, 2e6, 0)
    with pytest.raises(ValueError):
        _demod_band(n, fs, 10e6, 2e6, 3)  # does not divide 2000 samples
    with pytest.raises(ValueError):
        _demod_band(n, fs, 10e6, 2e6, 100.0)  # float decimation


# ------------------------------------------------------ noise in the band


class BasisDraw:
    """A generator stub whose standard_normal(shape) is the unit vector e_i of
    that shape, i its flat index: the helper's linear map, column by column."""

    def __init__(self, i):
        self.i, self.shapes = i, []

    def standard_normal(self, shape):
        self.shapes.append(shape)
        z = np.zeros(shape)
        z.flat[self.i] = 1.0
        return z


@pytest.mark.parametrize("n", [63, 64])
def test_white_bins_is_exact_in_distribution(n):
    # oracle: a white record x of std sigma has DFT bins F x, F the full
    # DFT's rows at the bins, so the stacked (Re, Im) bins have covariance
    # sigma^2 [Re F; Im F][Re F; Im F]^T.  The helper is linear in its
    # normals, so its covariance is the Gram matrix of its basis responses.
    # Bins are negative, at and past n, a repeated start, and windows across
    # DC and across n/2 (odd n has no real Nyquist bin)
    width, sigma = 9, 0.37
    starts = np.array([-7, 3, n, 2 * n + 11, 3, -n - 1, n // 2 - 4])
    bins = starts[:, None] + np.arange(width)
    probe = BasisDraw(0)
    _white_bins(probe, bins, n, sigma)
    (shape,) = probe.shapes
    columns = []
    for i in range(math.prod(shape)):
        out = _white_bins(BasisDraw(i), bins, n, sigma).ravel()
        columns.append(np.concatenate([out.real, out.imag]))
    got = np.array(columns).T
    f = np.exp(-2j * np.pi / n * (np.outer(bins.ravel() % n, np.arange(n)) % n))
    stacked = np.concatenate([f.real, f.imag])
    expected = sigma ** 2 * stacked @ stacked.T
    assert np.max(np.abs(got @ got.T - expected)) <= 1e-12 * np.max(np.abs(expected))
    # one draw: windows sharing a bin (mod n) share its value bit for bit,
    # and bin n - q is bin q's exact conjugate
    draw = _white_bins(stream(21, n), bins, n, sigma)
    assert np.array_equal(draw[1], draw[4])                 # bins 3..11, twice
    assert np.array_equal(draw[0, 7:], draw[2, :2])         # bins 0, 1 and n, n + 1
    assert np.array_equal(draw[1, :6], draw[2, 3:])         # bins 3..8 and n + 3..n + 8
    assert np.array_equal(draw[0, :7], np.conj(draw[2, 7:0:-1]))   # n - 7..n - 1 and 7..1


def test_zoom_dft_matches_direct_sum_in_row_batches():
    # 35 rows, more than one batch of 24: every row's bins match the direct
    # sum of the zero-padded DFT, and each row comes out bit for bit as alone
    rng = np.random.default_rng(5)
    y = rng.standard_normal((5, 7, 37)) + 1j * rng.standard_normal((5, 7, 37))
    n, width = 1001, 11
    got = _zoom_dft(y, n, width)
    direct = y @ np.exp(-2j * np.pi / n * (np.outer(np.arange(37), np.arange(width)) % n))
    assert got.shape == (5, 7, width)
    assert np.max(np.abs(got - direct)) <= 1e-12 * np.max(np.abs(direct))
    alone = np.array([_zoom_dft(row, n, width) for row in y.reshape(-1, 37)])
    assert np.array_equal(got.reshape(-1, width), alone)


def test_band_iq_slices_rows_as_alone():
    # a run's channel bands are folded and inverse transformed together; each
    # row comes out bit for bit as its own slice, with the band wider than the
    # output rate (61 bins onto 40), so folding adds
    rng = np.random.default_rng(6)
    offsets = np.arange(-30, 31)
    bands = rng.standard_normal((3, 61)) + 1j * rng.standard_normal((3, 61))
    got = _band_iq(bands, offsets, 4000, 100)
    assert got.shape == (3, 40)
    assert np.array_equal(got, [_band_iq(band, offsets, 4000, 100) for band in bands])


# ------------------------------------------------------- predicted floor


FLOOR_FS, FLOOR_N, FLOOR_CARRIER = 1e6, 4000, 100e3   # 250 Hz bins
FLOOR_WINDOW = (0.5e-3, 2.5e-3)


@pytest.mark.parametrize("lp_bw, dec", [(25e3, 10), (25e3, 40), (60e3, 20)])
def test_baseline_floor_matches_exact_covariance(lp_bw, dec):
    # oracle: mix every unit impulse down to get the linear map from the
    # record to the baseline IQ samples, then the expected population
    # variance of their real and of their imaginary parts for unit white
    # noise; dec 40 and the 60 kHz band make the band wider than the
    # output rate, so bins fold
    def impulse(k):
        record = np.zeros(FLOOR_N)
        record[k] = 1.0
        return record

    rows = np.array([mixer_demodulate(impulse(k), FLOOR_FS, FLOOR_CARRIER, lp_bw, dec)
                     for k in range(FLOOR_N)]).T
    rate = FLOOR_FS / dec
    i0, i1 = (math.ceil(w * rate - 1e-9) for w in FLOOR_WINDOW)
    predicted = _baseline_std_per_volt(FLOOR_N, FLOOR_FS, lp_bw, dec, FLOOR_WINDOW)
    for part in (rows.real[i0:i1], rows.imag[i0:i1]):
        cov = part @ part.T
        expected_var = np.trace(cov) / cov.shape[0] - np.sum(cov) / cov.shape[0] ** 2
        assert predicted == pytest.approx(math.sqrt(expected_var), rel=1e-12)


def test_baseline_floor_holds_while_the_carrier_dominates():
    # |IQ| = |c + z| follows z's in-phase part only while |c| >> |z|; with
    # no carrier it is Rayleigh and its spread falls well below the floor
    lp_bw, dec, sigma, draws = 25e3, 10, 0.1, 400
    floor = sigma * _baseline_std_per_volt(FLOOR_N, FLOOR_FS, lp_bw, dec, FLOOR_WINDOW)
    carrier = np.cos(2.0 * np.pi * FLOOR_CARRIER * np.arange(FLOOR_N) / FLOOR_FS)
    rng = stream(5, 1)
    for amplitude, lo, hi in ((1.0, None, None), (0.0, 0.0, 0.8)):
        var = np.array([
            response_metric(IQTrace(FLOOR_CARRIER, FLOOR_FS / dec, 0.0, mixer_demodulate(
                amplitude * carrier + rng.normal(0.0, sigma, FLOOR_N), FLOOR_FS,
                FLOOR_CARRIER, lp_bw, dec)), FLOOR_WINDOW, (3e-3, 3.5e-3)).baseline_std ** 2
            for _ in range(draws)])
        ratio = math.sqrt(np.mean(var)) / floor
        if lo is None:
            # within 3 standard errors of the RMS, from the same draws
            assert abs(ratio - 1.0) <= 3.0 * np.std(var, ddof=1) / math.sqrt(draws) \
                / (2.0 * np.mean(var))
        else:
            assert lo < ratio < hi


# ----------------------------------------------------------------- metrics


def step_iq(base=1.0, top=2.0, sigma=0.0, seed=0):
    """|IQ| flat at `base` for t < 50 us then at `top`, 10 MS/s, 100 us."""
    n = 1000
    mag = np.full(n, float(base))
    mag[n // 2:] = top
    if sigma:
        mag = mag + np.random.default_rng(seed).normal(0.0, sigma, n)
    return IQTrace(1e6, 1e7, 0.0, mag.astype(complex))


def test_response_metric_on_clean_step():
    iq = step_iq(base=1.0, top=2.0)
    m = response_metric(iq, (10e-6, 30e-6), (60e-6, 90e-6))
    assert m.baseline_mean == pytest.approx(1.0, rel=1e-12)
    assert m.signal_mean == pytest.approx(2.0, rel=1e-12)
    assert m.response == pytest.approx(1.0, rel=1e-12)
    # perfectly quiet baseline: flagged, snr forced to zero
    assert m.zero_noise
    assert m.snr == 0.0
    assert m.baseline_std == 0.0


def test_response_metric_with_noise():
    iq = step_iq(base=1.0, top=2.0, sigma=0.1, seed=3)
    m = response_metric(iq, (10e-6, 30e-6), (60e-6, 90e-6))
    assert not m.zero_noise
    assert m.baseline_std == pytest.approx(0.1, rel=0.2)
    assert m.snr == pytest.approx(m.response / m.baseline_std, rel=1e-12)
    assert m.snr == pytest.approx(10.0, rel=0.3)


def test_response_metric_window_edges_are_half_open():
    # samples land on exact microseconds; a window (a, b) takes [a, b)
    mag = np.arange(10, dtype=float)
    iq = IQTrace(1e6, 1e6, 0.0, mag.astype(complex))
    m = response_metric(iq, (1e-6, 3e-6), (5e-6, 8e-6))
    assert m.baseline_mean == pytest.approx(1.5)   # samples 1, 2
    assert m.signal_mean == pytest.approx(6.0)     # samples 5, 6, 7


def test_response_metric_honors_trace_origin():
    mag = np.arange(10, dtype=float)
    iq = IQTrace(1e6, 1e6, 10e-6, mag.astype(complex))
    m = response_metric(iq, (11e-6, 13e-6), (15e-6, 18e-6))
    assert m.baseline_mean == pytest.approx(1.5)
    assert m.signal_mean == pytest.approx(6.0)


def test_response_metric_validation():
    iq = step_iq()
    with pytest.raises(ValueError, match="baseline window must end"):
        response_metric(iq, (10e-6, 70e-6), (60e-6, 90e-6))
    with pytest.raises(ValueError):
        response_metric(iq, (30e-6, 10e-6), (60e-6, 90e-6))
    with pytest.raises(ValueError):
        response_metric(iq, (10e-6, 30e-6), (60e-6, 200e-6))
    with pytest.raises(ValueError):
        response_metric(iq, (-10e-6, 30e-6), (60e-6, 90e-6))
