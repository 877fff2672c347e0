from dataclasses import replace

import numpy as np
import pytest

from bolomux.config import load_config
from bolomux.dsp import response_metric
from bolomux.experiments import run_trigger
from bolomux.frontend import TriggerPattern
from bolomux.units import Seed


@pytest.fixture(scope="session")
def default_config():
    return load_config(None)


@pytest.fixture(scope="session")
def default_chip(default_config):
    return default_config.chip


@pytest.fixture(scope="session")
def default_settings(default_config):
    return default_config.settings


@pytest.fixture(scope="session")
def snr_ensemble(default_chip, default_settings):
    """SNR statistics of the shipped chip and posture over seeds 0..63.

    Patterns 101 and 010 heat every channel once and leave it unheated once.
    Per channel, `matched` holds the heated SNRs.  `leakage` holds the
    unheated SNRs minus their systematic part (the noiseless leakage response
    over the run's baseline std); `control` holds pure-noise SNRs from the
    same unheated traces, read in a pre-pulse window as long as the signal
    window.  `baseline_std` holds every run's per-channel baseline std,
    indexed (pattern, seed, channel).
    """
    quiet = replace(default_chip, noise_sigma_v=0.0)
    length = default_settings.signal_window_s[1] - default_settings.signal_window_s[0]
    end = default_settings.pulse_start_s - 2e-6
    control_window = (end - length, end)
    matched = [[] for _ in range(default_chip.n_channels)]
    leakage, control, baseline_std = [], [], []
    for label in ("101", "010"):
        pattern = TriggerPattern.from_label(label)
        systematic = run_trigger(quiet, pattern, default_settings, Seed(0)).metrics
        baseline_std.append([])
        for seed in range(64):
            run = run_trigger(default_chip, pattern, default_settings, Seed(seed))
            baseline_std[-1].append([m.baseline_std for m in run.metrics])
            for ch, heated in enumerate(pattern.bits):
                metric = run.metrics[ch]
                if heated:
                    matched[ch].append(metric.snr)
                    continue
                leakage.append(metric.snr - systematic[ch].response / metric.baseline_std)
                control.append(response_metric(run.iq[ch], default_settings.baseline_window_s,
                                               control_window).snr)
    return {"matched": np.array(matched), "leakage": np.array(leakage),
            "control": np.array(control), "baseline_std": np.array(baseline_std)}
