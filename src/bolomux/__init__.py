"""Simulation bench for frequency-multiplexed thermal bolometer readout.

A chip of resonant microwave bolometers shares one probe line; each
bolometer's heater sits behind a dedicated bandpass filter, so tone
frequency selects the channel.  The package models the full loop: filter
bank, electrothermal operating point, time-domain thermal stepping, the
probe line's composite record with averaged digitizer noise, read band by
band from each probe's per-step expansion of its reflection, and the fits and
tables the bench produces (resonance characterization, compression
points, crosstalk, per-pattern SNR).

The public surface is each module's `__all__`, star-imported here; every
module that declares a non-empty one is listed below.

numpy is first imported here with OpenBLAS asked for one thread, unless the
caller set OPENBLAS_NUM_THREADS: no BLAS call in the package is large enough
to use a worker, the pool's spinning workers slow every start, and a threaded
dot product splits its sum by core count, which moves the last bits of fits
to traces longer than about 10k points.  The environment is left as found.
"""
import os

if "OPENBLAS_NUM_THREADS" in os.environ:
    import numpy
else:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]
del os, numpy

from .analysis import *
from .config import *
from .device import *
from .dsp import *
from .experiments import *
from .frontend import *
from .traceio import *
from .units import *

__version__ = "0.1.0"
