"""One benchmark repetition, run in a fresh process by bench/run.py.

    python bench/child.py SPEC_JSON

SPEC_JSON names the source tree, the workload's command list, the output
directory, whether to trace, and where to write the result.  The process
imports bolomux and loads the workload config (the set-up the parent
times from spawn), then calls bolomux.cli.main once per command, timing
the sequence, and finally checks every output.  With "setup_only" it
exits right after set-up.

A host probe times a fixed pure-Python kernel in this same thread: a burst
after set-up, one after the commands, and in untraced runs one sample every
PROBE_PERIOD_S while the commands run (on SIGALRM, between bytecodes).  The
probe's own time is taken out of the sequence time; the parent divides
times by the host speed the samples show.
"""
import contextlib
import io
import json
import os
import signal
import sys
import time
import traceback

_HERE = os.path.dirname(os.path.abspath(__file__))
PROBE_LOOP = 40_000          # about 2 ms of interpreter work
PROBE_PERIOD_S = 0.05
PROBE_BURST = 8


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class HostProbe:
    """Durations of a fixed pure-Python kernel, run in the calling thread."""

    def __init__(self):
        self.samples = []

    def sample(self, *_):
        t0 = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOP):
            acc += i
        self.samples.append(time.perf_counter() - t0)

    def burst(self):
        for _ in range(PROBE_BURST):
            self.sample()

    @contextlib.contextmanager
    def periodic(self, enabled):
        """Sample on SIGALRM every PROBE_PERIOD_S while the block runs."""
        if not enabled:
            yield
            return
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


def main(spec_path):
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    sys.path.insert(0, _HERE)

    from bolomux import cli, config

    tracer = None
    if spec.get("trace"):
        import tracer as tracemod
        tracer = tracemod.install(tracemod.Tracer())
    config.load_config(spec["config"])
    ready = _now()
    import numpy
    probe = HostProbe()
    probe.burst()
    result = {"ready_monotonic": ready, "numpy": numpy.__version__,
              "setup_probe_s": probe.samples[:]}
    if spec.get("setup_only"):
        _write(spec["result"], result)
        return 0

    # spans of a traced run must not contain probe samples
    run_cli = cli.main if tracer is None else tracer.span("cli", cli.main)
    ops = []
    n_before = len(probe.samples)
    with probe.periodic(tracer is None):
        t0 = time.perf_counter()
        for argv in spec["commands"]:
            out = io.StringIO()
            c0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out):
                    rc = run_cli(argv)
            except Exception:   # a crash is a failed operation, not a lost run
                traceback.print_exc()
                rc = None
            ops.append({"argv": argv, "rc": rc, "s": time.perf_counter() - c0,
                        "stdout": out.getvalue()})
        elapsed = time.perf_counter() - t0
    result["wall_s"] = elapsed - sum(probe.samples[n_before:])
    probe.burst()
    result["probe_s"] = probe.samples

    import checks
    result["ops"] = checks.check(spec["config"], ops)
    result["digest"] = checks.digest(spec["out"])
    try:
        result["info"] = checks.info(spec["workload"], spec["out"])
    except (OSError, KeyError, ValueError) as exc:
        result["info"] = {"unavailable": f"{type(exc).__name__}: {exc}"}
    if tracer is not None:
        result["self_s"] = dict(tracer.self_time)
        result["layers"] = tracemod.layer_metrics(tracer)
        result["missing_hooks"] = tracer.missing
    _write(spec["result"], result)
    return 0


def _write(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
