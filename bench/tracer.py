"""Outside-in tracing of bolomux: wrap public functions where callers look them up.

Nothing under src/ is edited.  Each hook replaces one attribute of a
bolomux module (the name the caller resolves at call time) with a wrapper
that records a span in a bucket.  Spans nest: a span's self time is its
duration minus the durations of the wrapped calls made inside it, so the
self times of all buckets add up to the duration of the outermost spans.

Every wrapper passes arguments and results through untouched, so a traced
run writes the same bytes as an untraced one (the benchmark checks this).
"""
import os
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    """Span and counter store for one traced process."""

    def __init__(self):
        self._stack = []                      # child-time accumulators of open spans
        self.total = defaultdict(float)       # bucket -> summed span duration
        self.self_time = defaultdict(float)   # bucket -> summed self time
        self.calls = defaultdict(int)         # bucket -> number of spans
        self.counts = defaultdict(int)        # named counters
        self.solve_us = []                    # per-solve durations, microseconds
        self.missing = []                     # hooks whose target was not found

    def span(self, bucket, fn, on_result=None, on_error=None):
        """Wrap fn so that each call records a span in bucket.

        on_result(result, args, seconds) runs after a normal return,
        on_error(exc) before an exception propagates.
        """
        stack = self._stack

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                dt = _clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                self.total[bucket] += dt
                self.self_time[bucket] += dt - frame[0]
                self.calls[bucket] += 1
            if on_result is not None:
                on_result(result, args, dt)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", bucket)
        return wrapper

    def hook(self, module, name, bucket=None, make=None, **callbacks):
        """Replace module.name by a span wrapper, or by make(original).

        A missing target is noted in self.missing and left alone.
        """
        fn = getattr(module, name, None)
        if fn is None:
            self.missing.append(f"{module.__name__}.{name}")
            return
        setattr(module, name, make(fn) if make else self.span(bucket, fn, **callbacks))


class _CountingGenerator:
    """Proxy for a numpy Generator that times and counts normal() draws."""

    def __init__(self, tracer, gen):
        self._tracer = tracer
        self._gen = gen
        self._draw = tracer.span("units.noise", gen.normal)

    def normal(self, *args, **kwargs):
        out = self._draw(*args, **kwargs)
        self._tracer.counts["noise_draws"] += int(getattr(out, "size", 1))
        return out

    def __getattr__(self, attr):
        return getattr(self._gen, attr)


def install(tracer):
    """Hook every layer of an imported bolomux; returns tracer."""
    from bolomux import analysis, cli, config, experiments

    t = tracer

    def count(name, amount=lambda result, args: 1):
        def on_result(result, args, dt):
            t.counts[name] += amount(result, args)
        return on_result

    def solved(op, args, dt):
        t.solve_us.append(dt * 1e6)
        t.counts["solve_iters"] += int(getattr(op, "iterations", 0))
        t.counts["multivalued"] += int(bool(getattr(op, "multivalued", False)))

    def solve_failed(exc):
        if type(exc).__name__ == "SolverError":
            t.counts["unconverged"] += 1

    t.hook(experiments, "solve_operating_point", "device.solve",
           on_result=solved, on_error=solve_failed)

    # noise: time the stream derivation and every draw on the derived stream
    def counting(derive):
        traced = t.span("units.noise", derive)

        def derive_stream(*args, **kwargs):
            t.counts["streams"] += 1
            return _CountingGenerator(t, traced(*args, **kwargs))
        return derive_stream

    t.hook(experiments, "derive_stream", make=counting)

    def accumulator(base):
        class TracedAccumulator(base):
            push = t.span("dsp.accumulate", base.push,
                          on_result=count("accumulate_pushes"))
            total = t.span("dsp.accumulate", base.total)
        return TracedAccumulator

    t.hook(experiments, "PairwiseAccumulator", make=accumulator)

    t.hook(experiments, "demodulate", "dsp.demod",
           on_result=count("demod_samples", lambda iq, args: len(args[0].samples)))
    t.hook(experiments, "response_metric", "dsp.metric")
    # the time-domain engine: thermal stepping and carrier synthesis are its
    # self time once the noise, accumulation, demod and metric spans inside
    # it are subtracted
    t.hook(experiments, "_timedomain_run", "experiments.engine")
    t.hook(experiments, "operating_tones", "experiments.operating_tones")
    for name in ("run_trigger", "run_power_sweep", "run_probe_sweep"):
        t.hook(experiments, name, "experiments.sweep")
    for name in ("run_full_multiplex", "power_sweep_matrix", "characterize",
                 "run_filter_sweep"):
        t.hook(cli, name, "experiments.sweep")
    for name in ("filter_transmission", "schedule_heaters"):
        t.hook(experiments, name, "frontend")

    def fit_failed(exc):
        t.counts["fit_failed"] += 1

    for name in sorted(n for n in vars(analysis) if n.startswith("fit_")):
        t.hook(analysis, name, "analysis.fit", on_error=fit_failed)
    t.hook(analysis, "crosstalk_matrix", "analysis.table")
    t.hook(cli, "snr_table", "analysis.table")

    t.hook(cli, "write_trace", "traceio.write",
           on_result=count("bytes_written", lambda r, args: os.path.getsize(args[1])))
    t.hook(cli, "write_manifest", "traceio.write",
           on_result=count("bytes_written", lambda r, args: os.path.getsize(
               os.path.join(args[0], "manifest.json"))))
    t.hook(cli, "read_trace", "traceio.read")
    t.hook(cli, "read_manifest", "traceio.read")
    t.hook(cli, "verify_manifest", "traceio.verify")

    t.hook(config, "load_config", "config.load")
    return tracer


def _quantile(values, q):
    """Nearest-rank quantile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, round(q * (len(ordered) - 1)))]


def layer_metrics(tracer):
    """Per-layer metric values of a finished traced process."""
    t = tracer
    return {
        "units.noise_draws": t.counts["noise_draws"],
        "units.noise_draw_s": t.total["units.noise"],
        "units.streams": t.counts["streams"],
        "dsp.accumulate_pushes": t.counts["accumulate_pushes"],
        "dsp.accumulate_s": t.total["dsp.accumulate"],
        "dsp.demod_calls": t.calls["dsp.demod"],
        "dsp.demod_samples": t.counts["demod_samples"],
        "dsp.demod_s": t.total["dsp.demod"],
        "dsp.metric_s": t.total["dsp.metric"],
        "experiments.engine_runs": t.calls["experiments.engine"],
        "experiments.engine_s": t.total["experiments.engine"],
        "experiments.engine_self_s": t.self_time["experiments.engine"],
        "experiments.operating_tones_s": t.total["experiments.operating_tones"],
        "experiments.sweep_self_s": t.self_time["experiments.sweep"],
        "device.solves": t.calls["device.solve"],
        "device.solve_s": t.total["device.solve"],
        "device.solve_p50_us": _quantile(t.solve_us, 0.50),
        "device.solve_p99_us": _quantile(t.solve_us, 0.99),
        "device.solve_iters": t.counts["solve_iters"],
        "device.unconverged": t.counts["unconverged"],
        "device.multivalued": t.counts["multivalued"],
        "analysis.fits": t.calls["analysis.fit"],
        "analysis.fit_failed": t.counts["fit_failed"],
        "analysis.fit_s": t.total["analysis.fit"] + t.total["analysis.table"],
        "traceio.writes": t.calls["traceio.write"],
        "traceio.bytes_written": t.counts["bytes_written"],
        "traceio.write_s": t.total["traceio.write"],
        "traceio.read_s": t.total["traceio.read"],
        "traceio.verify_s": t.total["traceio.verify"],
        "frontend.calls": t.calls["frontend"],
        "frontend.s": t.total["frontend"],
        "config.load_s": t.total["config.load"],
        "cli.self_s": t.self_time["cli"],
    }
