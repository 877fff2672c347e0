"""Unit conversion and seeded stream derivation."""
import math

import numpy as np
import pytest

from bolomux.units import (
    Seed,
    db_to_power_ratio,
    dbm_to_watts,
    derive_stream,
    tone_amplitude_volts,
    watts_to_dbm,
)


def test_dbm_to_watts_known_points():
    assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-12)
    assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-12)
    assert dbm_to_watts(-144.0) == pytest.approx(10.0 ** (-17.4), rel=1e-12)
    assert dbm_to_watts(-144.0) == pytest.approx(3.981e-18, rel=1e-3)
    assert dbm_to_watts(-135.0) == pytest.approx(3.162e-17, rel=1e-3)


def test_watts_to_dbm_known_points():
    assert watts_to_dbm(1e-3) == pytest.approx(0.0, abs=1e-12)
    assert watts_to_dbm(1.0) == pytest.approx(30.0, rel=1e-12)


def test_round_trip_dbm_watts():
    rng = np.random.default_rng(0)
    for p_dbm in np.concatenate([np.arange(-170.0, 31.0, 7.0),
                                 rng.uniform(-180.0, 30.0, 200)]):
        back = watts_to_dbm(dbm_to_watts(p_dbm))
        assert back == pytest.approx(p_dbm, abs=1e-10)
    for p_w in 10.0 ** rng.uniform(-20.0, 0.0, 200):
        assert dbm_to_watts(watts_to_dbm(p_w)) == pytest.approx(p_w, rel=1e-12)


@pytest.mark.parametrize("bad", [0.0, -1e-6, math.inf, math.nan])
def test_watts_to_dbm_rejects(bad):
    with pytest.raises(ValueError):
        watts_to_dbm(bad)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_dbm_to_watts_rejects_nonfinite(bad):
    with pytest.raises(ValueError):
        dbm_to_watts(bad)


def test_db_ratio_round_trip():
    assert db_to_power_ratio(-12.0) == pytest.approx(10.0 ** -1.2, rel=1e-12)
    for x in np.linspace(-40.0, 40.0, 33):
        assert 10.0 * math.log10(db_to_power_ratio(x)) == pytest.approx(x, abs=1e-10)


def test_tone_amplitude():
    # 0 dBm into 50 ohm: a = sqrt(2 * 1e-3 * 50)
    assert tone_amplitude_volts(0.0) == pytest.approx(0.3162, abs=1e-4)
    assert tone_amplitude_volts(0.0) == pytest.approx(math.sqrt(0.1), abs=1e-9)
    # 20 dB less power is 10x less amplitude
    ratio = tone_amplitude_volts(-124.0) / tone_amplitude_volts(-144.0)
    assert ratio == pytest.approx(10.0, rel=1e-12)


def test_stream_reproducible():
    a = derive_stream(Seed(12345), 3, 1).normal(size=1000)
    b = derive_stream(Seed(12345), 3, 1).normal(size=1000)
    assert np.array_equal(a, b)


def test_stream_label_independence():
    a = derive_stream(Seed(1), 0).normal(size=100_000)
    b = derive_stream(Seed(1), 1).normal(size=100_000)
    assert not np.array_equal(a[:10], b[:10])
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.01


def test_stream_master_sensitivity():
    a = derive_stream(Seed(1), 7).normal(size=16)
    b = derive_stream(Seed(2), 7).normal(size=16)
    assert not np.array_equal(a, b)


def test_stream_order_free():
    # a stream depends only on (master, labels), not on creation order
    first = derive_stream(Seed(9), 4).normal(size=64)
    derive_stream(Seed(9), 5).normal(size=999)
    again = derive_stream(Seed(9), 4).normal(size=64)
    assert np.array_equal(first, again)


@pytest.mark.parametrize("bad", [-1, 2**64, 1.5, "x"])
def test_seed_rejects_bad_master(bad):
    with pytest.raises(ValueError):
        Seed(bad)
