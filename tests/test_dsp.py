"""Digitizer-side processing: noise injection, brick-wall filtering,
demodulation, deterministic averaging, and pulse-response metrics."""

import math

import numpy as np
import pytest

from bolomux.dsp import (
    IQTrace,
    PairwiseAccumulator,
    TimeTrace,
    add_noise,
    average_traces,
    brickwall_bandpass,
    demodulate,
    response_metric,
)
from bolomux.frontend import ToneSpec, make_probe_comb
from bolomux.units import Seed, derive_stream


def stream(master, *labels):
    return derive_stream(Seed(master), *labels)


def tone_trace(f_hz=10e6, p_dbm=0.0, fs=1e9, dur=2e-6, phase=0.0):
    return make_probe_comb([ToneSpec(f_hz=f_hz, p_dbm=p_dbm, phase_rad=phase)],
                           fs, dur)


# ----------------------------------------------------------------- traces


def test_time_trace_basics():
    trace = TimeTrace(1e9, 1e-6, np.zeros(100))
    assert len(trace) == 100
    assert trace.duration_s == pytest.approx(1e-7, rel=1e-12)
    times = trace.times()
    assert times[0] == 1e-6
    assert times[1] - times[0] == pytest.approx(1e-9, rel=1e-12)


def test_iq_trace_magnitude():
    iq = IQTrace(156.7e6, 1e7, 0.0, np.full(10, 3.0 + 4.0j))
    assert np.allclose(iq.magnitude(), 5.0)
    assert len(iq) == 10


# ----------------------------------------------------------------- noise


def test_add_noise_zero_sigma_is_identity():
    trace = tone_trace()
    out = add_noise(trace, 0.0, stream(1, 0))
    assert np.array_equal(out.samples, trace.samples)


def test_add_noise_statistics():
    trace = TimeTrace(1e9, 0.0, np.zeros(200_000))
    sigma = 2.5e-7
    out = add_noise(trace, sigma, stream(5, 0))
    assert float(np.std(out.samples)) == pytest.approx(sigma, rel=0.02)
    assert float(np.mean(out.samples)) == pytest.approx(0.0, abs=5 * sigma / 400)


def test_add_noise_deterministic_per_stream():
    trace = tone_trace()
    a = add_noise(trace, 1e-8, stream(9, 3, 1))
    b = add_noise(trace, 1e-8, stream(9, 3, 1))
    c = add_noise(trace, 1e-8, stream(9, 3, 2))
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_add_noise_rejects_negative_sigma():
    with pytest.raises(ValueError):
        add_noise(tone_trace(), -1e-9, stream(1, 0))


# ----------------------------------------------------------------- bandpass


def test_bandpass_keeps_in_band_tone():
    trace = tone_trace(f_hz=10e6)
    out = brickwall_bandpass(trace, 10e6, 2e6)
    assert np.max(np.abs(out.samples - trace.samples)) < 1e-9


def test_bandpass_removes_out_of_band_tone():
    fs, dur = 1e9, 2e-6
    in_band = tone_trace(f_hz=10e6, fs=fs, dur=dur)
    out_band = tone_trace(f_hz=50e6, fs=fs, dur=dur)
    both = TimeTrace(fs, 0.0, in_band.samples + out_band.samples)
    filtered = brickwall_bandpass(both, 10e6, 2e6)
    assert np.max(np.abs(filtered.samples - in_band.samples)) < 1e-12


def test_bandpass_is_bitwise_idempotent():
    trace = add_noise(tone_trace(), 1e-3, stream(2, 0))
    once = brickwall_bandpass(trace, 10e6, 4e6)
    twice = brickwall_bandpass(once, 10e6, 4e6)
    assert np.array_equal(once.samples, twice.samples)


def test_bandpass_edges_inclusive():
    # tone sitting exactly on the upper band edge must survive
    fs, dur = 1e9, 2e-6
    trace = tone_trace(f_hz=12e6, fs=fs, dur=dur)
    out = brickwall_bandpass(trace, 10e6, 4e6)
    assert np.max(np.abs(out.samples - trace.samples)) < 1e-9


def test_bandpass_output_is_real():
    trace = add_noise(tone_trace(), 1e-3, stream(3, 0))
    out = brickwall_bandpass(trace, 10e6, 4e6)
    assert out.samples.dtype == np.float64


def test_bandpass_validation():
    trace = tone_trace()
    with pytest.raises(ValueError):
        brickwall_bandpass(trace, 10e6, 0.0)
    with pytest.raises(ValueError):
        brickwall_bandpass(trace, 499e6, 10e6)  # upper edge beyond fs/2
    with pytest.raises(ValueError):
        brickwall_bandpass(trace, 1e6, 10e6)  # lower edge below zero


# ----------------------------------------------------------------- demod


def test_demod_pure_carrier_gives_half_amplitude():
    a = math.sqrt(0.1)  # 0 dBm tone
    iq = demodulate(tone_trace(f_hz=10e6, p_dbm=0.0), 10e6, 2e6, 100)
    assert np.max(np.abs(iq.magnitude() - a / 2)) < 1e-9
    assert iq.sample_rate_hz == 1e7
    assert iq.carrier_hz == 10e6


def test_demod_carries_phase():
    phase = 0.7
    iq = demodulate(tone_trace(f_hz=10e6, phase=phase), 10e6, 2e6, 100)
    assert np.angle(iq.samples[3]) == pytest.approx(phase, abs=1e-9)


def test_demod_rejects_distant_tone():
    # a tone 40 MHz off carrier is outside the 2 MHz low-pass
    iq = demodulate(tone_trace(f_hz=50e6), 10e6, 2e6, 100)
    assert np.max(iq.magnitude()) < 1e-12


def test_demod_is_linear():
    fs, dur = 1e9, 2e-6
    x = add_noise(tone_trace(fs=fs, dur=dur), 1e-3, stream(4, 0))
    y = add_noise(tone_trace(fs=fs, dur=dur), 1e-3, stream(4, 1))
    combo = TimeTrace(fs, 0.0, 2.0 * x.samples + 3.0 * y.samples)
    direct = demodulate(combo, 10e6, 2e6, 100)
    parts = (2.0 * demodulate(x, 10e6, 2e6, 100).samples
             + 3.0 * demodulate(y, 10e6, 2e6, 100).samples)
    assert np.max(np.abs(direct.samples - parts)) < 1e-12


def test_demod_after_bandpass_matches_direct():
    # brick-wall band around the carrier wider than the low-pass: filtering
    # first must not change the demodulated baseband
    trace = add_noise(tone_trace(f_hz=10e6), 1e-4, stream(6, 0))
    direct = demodulate(trace, 10e6, 2e6, 100)
    filtered = demodulate(brickwall_bandpass(trace, 10e6, 8e6), 10e6, 2e6, 100)
    assert np.max(np.abs(direct.samples - filtered.samples)) < 1e-9


def mixer_demodulate(trace, f_carrier_hz, lp_bandwidth_hz, decimation):
    """The record-length mixer that `demodulate` replaced, kept as its oracle.

    Mixes the whole record down by exp(-2 pi i f_c t), brick-wall low-passes
    it with one complex FFT pair and keeps every decimation-th sample.
    """
    fs = trace.sample_rate_hz
    n = trace.samples.size
    mixed = trace.samples * np.exp(-2j * np.pi * f_carrier_hz * trace.times())
    freqs = np.abs(np.fft.fftfreq(n, 1.0 / fs))
    keep = freqs <= 0.5 * lp_bandwidth_hz + 1e-6 * fs / n
    baseband = np.fft.ifft(np.where(keep, np.fft.fft(mixed), 0.0))
    return baseband[::decimation]


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
    comb = make_probe_comb([ToneSpec(f_c, -40.0, 0.3)]
                           + [ToneSpec(f, -45.0, 1.1) for f in neighbors], fs, n / fs)
    trace = add_noise(TimeTrace(fs, t0, comb.samples), 1e-4, stream(12, 0))
    oracle = mixer_demodulate(trace, f_c, lp_bw, dec)
    iq = demodulate(trace, f_c, lp_bw, dec)
    assert iq.t0_s == t0 and iq.sample_rate_hz == fs / dec
    assert np.max(np.abs(iq.samples - oracle)) <= 1e-9 * np.max(np.abs(oracle))


def test_demod_rejects_off_grid_carrier():
    trace = tone_trace(f_hz=10e6)  # 2000 samples: grid spacing 500 kHz
    with pytest.raises(ValueError, match="grid"):
        demodulate(trace, 10.25e6, 2e6, 100)
    with pytest.raises(ValueError, match="grid"):
        demodulate(trace, 10e6 + 1e-3, 2e6, 100)


def test_demod_validation():
    trace = tone_trace()
    with pytest.raises(ValueError):
        demodulate(trace, 0.0, 2e6, 100)
    with pytest.raises(ValueError):
        demodulate(trace, 600e6, 2e6, 100)
    with pytest.raises(ValueError):
        demodulate(trace, 10e6, 0.0, 100)
    with pytest.raises(ValueError):
        demodulate(trace, 10e6, 2e6, 0)
    with pytest.raises(ValueError):
        demodulate(trace, 10e6, 2e6, 3)  # does not divide 2000 samples
    with pytest.raises(ValueError):
        demodulate(trace, 10e6, 2e6, 100.0)  # float decimation


# ----------------------------------------------------------------- averaging


def test_accumulator_matches_plain_sum():
    rng = np.random.default_rng(0)
    arrays = [rng.normal(size=257) for _ in range(37)]
    acc = PairwiseAccumulator()
    for a in arrays:
        acc.push(a)
    assert acc.count == 37
    assert np.allclose(acc.total(), np.sum(arrays, axis=0), rtol=1e-12)


def test_accumulator_deterministic():
    rng = np.random.default_rng(1)
    arrays = [rng.normal(size=64) for _ in range(19)]

    def run():
        acc = PairwiseAccumulator()
        for a in arrays:
            acc.push(a)
        return acc.total()

    assert np.array_equal(run(), run())


def test_accumulator_empty_raises():
    with pytest.raises(ValueError):
        PairwiseAccumulator().total()


def test_average_traces_mean():
    t1 = TimeTrace(1e9, 0.0, np.full(8, 1.0))
    t2 = TimeTrace(1e9, 0.0, np.full(8, 3.0))
    out = average_traces([t1, t2])
    assert np.array_equal(out.samples, np.full(8, 2.0))


def test_average_traces_sequence_form_is_bit_identical():
    traces = [add_noise(TimeTrace(1e9, 0.0, np.zeros(128)), 1.0,
                        stream(8, i)) for i in range(12)]
    from_list = average_traces(traces)
    from_gen = average_traces(tr for tr in traces)
    assert np.array_equal(from_list.samples, from_gen.samples)


def test_average_traces_noise_shrinks_like_sqrt_n():
    # white noise: averaging n traces divides the std by sqrt(n)
    def std_of_mean(n, master):
        traces = [add_noise(TimeTrace(1e9, 0.0, np.zeros(4096)), 1.0,
                            stream(master, i)) for i in range(n)]
        return float(np.std(average_traces(traces).samples))

    s1 = std_of_mean(1, 21)
    s16 = std_of_mean(16, 22)
    s256 = std_of_mean(256, 23)
    assert s1 / s16 == pytest.approx(4.0, rel=0.2)
    assert s1 / s256 == pytest.approx(16.0, rel=0.2)


def test_average_traces_iq_support():
    a = IQTrace(1e6, 1e7, 0.0, np.full(4, 1 + 1j))
    b = IQTrace(1e6, 1e7, 0.0, np.full(4, 3 + 3j))
    out = average_traces([a, b])
    assert isinstance(out, IQTrace)
    assert np.array_equal(out.samples, np.full(4, 2 + 2j))


def test_average_traces_validation():
    base = TimeTrace(1e9, 0.0, np.zeros(8))
    with pytest.raises(ValueError):
        average_traces([])
    with pytest.raises(ValueError):
        average_traces([base, TimeTrace(1e9, 0.0, np.zeros(9))])
    with pytest.raises(ValueError):
        average_traces([base, TimeTrace(2e9, 0.0, np.zeros(8))])
    with pytest.raises(ValueError):
        average_traces([base, TimeTrace(1e9, 1e-6, np.zeros(8))])
    with pytest.raises(ValueError):
        average_traces([base, IQTrace(1e6, 1e9, 0.0, np.zeros(8, complex))])
    with pytest.raises(ValueError):
        average_traces([IQTrace(1e6, 1e7, 0.0, np.zeros(4, complex)),
                        IQTrace(2e6, 1e7, 0.0, np.zeros(4, complex))])


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
