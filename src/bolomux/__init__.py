"""Simulation bench for frequency-multiplexed thermal bolometer readout.

A chip of resonant microwave bolometers shares one probe line; each
bolometer's heater sits behind a dedicated bandpass filter, so tone
frequency selects the channel.  The package models the full loop: filter
bank, electrothermal operating point, time-domain thermal stepping, the
probe line's composite record with averaged digitizer noise, read band by
band from each probe's per-step expansion of its reflection, and the fits and
tables the bench produces (resonance characterization, compression
points, crosstalk, per-pattern SNR).
"""
from .analysis import (
    CrosstalkMatrix,
    FitError,
    LorentzianFit,
    capacity_estimate,
    crosstalk_matrix,
    fit_compressions,
    fit_lorentzians,
    snr_table,
)
from .config import (
    PRESETS,
    ChipConfig,
    ConfigError,
    ExperimentConfig,
    RunSettings,
    config_hash,
    load_config,
    merge_config,
    validate_config,
)
from .device import (
    BolometerParams,
    OperatingPoint,
    SolverError,
    solve_operating_point,
)
from .dsp import (
    IQTrace,
    ResponseMetric,
    response_metric,
)
from .experiments import (
    CalibrationError,
    FilterSweepResult,
    MultiplexRun,
    NonlinearOperationError,
    ProbeSweepResult,
    calibrate_chip,
    characterize,
    power_sweep_matrix,
    run_filter_sweep,
    run_full_multiplex,
    run_trigger,
)
from .frontend import (
    FilterParams,
    ToneSpec,
    TriggerPattern,
    filter_transmission,
    schedule_heaters,
)
from .traceio import (
    TraceFormatError,
    read_manifest,
    read_trace,
    verify_manifest,
    write_manifest,
    write_trace,
)
from .units import (
    Seed,
    dbm_to_watts,
    db_to_power_ratio,
    derive_stream,
    tone_amplitude_volts,
    watts_to_dbm,
)

__version__ = "0.1.0"
