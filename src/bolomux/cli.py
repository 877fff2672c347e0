"""Command line front end.

Every run command loads the config (shipped defaults unless --config),
applies --preset and --seed overrides, writes its outputs plus a
checksummed manifest.json into --out, and prints a short summary.

Exit codes: 0 success, 1 bad arguments or config, 2 runtime failure
(failed fit or calibration, a non-finite operating point, or a manifest
integrity mismatch).
"""
import argparse
import json
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from . import config as configmod
from .analysis import FitError, capacity_estimate, snr_table
from .device import SolverError
from .experiments import (
    CalibrationError,
    ChipConfig,
    NonlinearOperationError,
    RunSettings,
    apply_preset,
    calibrate_chip,
    characterize,
    power_sweep_matrix,
    run_filter_sweep,
    run_full_multiplex,
    run_trigger,
)
from .frontend import TriggerPattern
from .traceio import (
    TraceFormatError,
    read_manifest,
    read_trace,
    verify_manifest,
    write_manifest,
    write_trace,
)
from .units import Seed


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _thread_count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _common_flags() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--config", metavar="FILE",
                        help="JSON config merged over the shipped defaults")
    common.add_argument("--seed", type=int, metavar="N",
                        help="override the config's master seed")
    common.add_argument("--out", metavar="DIR",
                        help="output directory (default bolomux_<command>)")
    common.add_argument("--preset", choices=("desk", "paper", "fig3"),
                        help="sampling/averaging posture override")
    common.add_argument("--threads", type=_thread_count, default=1, metavar="N",
                        help="worker threads; results are identical for any value")
    return common


def build_parser() -> _Parser:
    common = _common_flags()
    parser = _Parser(prog="bolomux",
                     description="frequency-multiplexed bolometer readout bench")
    parser.add_argument("--version", action="version", version=f"bolomux {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    sub.required = True

    def command(name, handler, summary):
        p = sub.add_parser(name, parents=[common], help=summary)
        p.set_defaults(handler=handler)
        return p

    command("characterize", cmd_characterize,
            "sweep and fit every resonance dip across probe powers")
    command("filterscan", cmd_filterscan, "sweep a CW heater tone to map the filter bank")
    command("powersweep", cmd_powersweep,
            "heater power sweeps, compression fits and crosstalk")
    p = command("trigger", cmd_trigger, "run one heater on/off pattern")
    p.add_argument("--pattern", required=True, metavar="BITS",
                   help="heater bits, e.g. 101")
    command("multiplex", cmd_multiplex, "run every heater pattern and build the SNR table")
    p = command("analyze", cmd_analyze, "verify a results directory and summarize it")
    p.add_argument("results_dir")
    p = command("report", cmd_report, "emit plot-ready tables from a results directory")
    p.add_argument("results_dir")
    command("calibrate", cmd_calibrate,
            "retune responsivity and noise to the shipped targets")
    p = command("capacity", cmd_capacity, "channel count fitting in a readout band")
    p.add_argument("--fmin", type=float, metavar="HZ")
    p.add_argument("--fmax", type=float, metavar="HZ")
    p.add_argument("--spacing", type=float, metavar="HZ")
    return parser


@dataclass(frozen=True)
class _Context:
    chip: ChipConfig
    settings: RunSettings
    seed: Seed
    doc: dict
    sweeps: dict
    out_dir: str
    threads: int


def _load_context(args) -> _Context:
    cfg = configmod.load_config(args.config)
    chip, settings, seed = cfg.chip, cfg.settings, cfg.seed
    doc = dict(cfg.doc)
    if args.preset:
        chip, settings = apply_preset(chip, settings, args.preset)
    if args.seed is not None:
        seed = Seed(args.seed)
        doc["seed"] = args.seed
    settings.validate_against(chip)
    out_dir = args.out if args.out else f"bolomux_{args.command}"
    return _Context(chip=chip, settings=settings, seed=seed, doc=doc,
                    sweeps=cfg.sweeps, out_dir=out_dir, threads=args.threads)


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path, columns, rows) -> None:
    lines = [",".join(columns)]
    lines.extend(",".join(_fmt(c) for c in row) for row in rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _finish(ctx: _Context, command: str) -> None:
    write_manifest(ctx.out_dir, command, ctx.seed.master, ctx.doc, __version__)


def _lorentzian_dict(fit):
    if fit is None:
        return None
    return {
        "f_r_hz": fit.f_r_hz,
        "f_r_err_hz": fit.f_r_err_hz,
        "fwhm_hz": fit.fwhm_hz,
        "fwhm_err_hz": fit.fwhm_err_hz,
        "depth": fit.depth,
        "offset": fit.offset,
    }


def cmd_characterize(ctx: _Context, args) -> int:
    sw = ctx.sweeps.get("characterize", {})
    powers = sw.get("powers_dbm", [-160.0, -150.0, -144.0, -137.0, -130.0])
    sweep, fits = characterize(
        ctx.chip, powers,
        span_linewidths=sw.get("span_linewidths", 8.0),
        n_points=sw.get("n_points", 201))
    os.makedirs(ctx.out_dir, exist_ok=True)
    for ch in range(ctx.chip.n_channels):
        rows = []
        for pi, p in enumerate(sweep.powers_dbm):
            for fi, f in enumerate(sweep.f_hz[ch]):
                rows.append((p, f, sweep.magnitude[ch, pi, fi], sweep.normalized[ch, pi, fi]))
        _write_csv(os.path.join(ctx.out_dir, f"characterize_ch{ch}.csv"),
                   ("power_dbm", "f_probe_hz", "magnitude", "normalized"), rows)
    _write_json(os.path.join(ctx.out_dir, "characterize_fits.json"), {
        "powers_dbm": list(sweep.powers_dbm),
        "channels": [
            {"channel": ch, "fits": [_lorentzian_dict(f) for f in fits[ch]]}
            for ch in range(ctx.chip.n_channels)
        ],
    })
    _finish(ctx, "characterize")
    for ch in range(ctx.chip.n_channels):
        head = fits[ch][0]
        if head is None:
            print(f"channel {ch}: fit failed at {sweep.powers_dbm[0]} dBm")
            continue
        print(f"channel {ch}: f_r {head.f_r_hz / 1e6:.6f} MHz, "
              f"linewidth {head.fwhm_hz / 1e6:.4f} MHz at {sweep.powers_dbm[0]} dBm")
    return 0


def cmd_filterscan(ctx: _Context, args) -> int:
    sw = ctx.sweeps.get("filterscan", {})
    grid = np.linspace(sw.get("f_min_hz", 4.0e9), sw.get("f_max_hz", 8.0e9),
                       int(sw.get("n_points", 401)))
    result = run_filter_sweep(ctx.chip, grid,
                              heater_power_dbm=sw.get("heater_power_dbm", -145.0),
                              settings=ctx.settings)
    os.makedirs(ctx.out_dir, exist_ok=True)
    columns = ["f_heater_hz"] + [f"response_ch{ch}" for ch in range(ctx.chip.n_channels)]
    rows = [(f, *result.response[:, i]) for i, f in enumerate(result.f_heater_hz)]
    _write_csv(os.path.join(ctx.out_dir, "filterscan.csv"), columns, rows)
    peaks = result.peaks()
    _write_json(os.path.join(ctx.out_dir, "filterscan_peaks.json"), {
        "heater_power_dbm": result.heater_power_dbm,
        "peaks": [
            {"channel": ch, "f_peak_hz": pk, "fwhm_hz": wd}
            for ch, (pk, wd) in enumerate(peaks)
        ],
    })
    _finish(ctx, "filterscan")
    for ch, (pk, wd) in enumerate(peaks):
        print(f"channel {ch}: peak {pk / 1e9:.3f} GHz, width {wd / 1e6:.1f} MHz")
    return 0


def cmd_powersweep(ctx: _Context, args) -> int:
    sw = ctx.sweeps.get("powersweep", {})
    powers = np.linspace(sw.get("p_min_dbm", -150.0), sw.get("p_max_dbm", -120.0),
                         int(sw.get("n_points", 16)))
    # compression fits need the flank posture, where small shifts map to
    # response linearly
    settings = replace(ctx.settings, probe_detuning_fraction=0.5)
    sweeps, p1db, xtalk = power_sweep_matrix(ctx.chip, powers, settings,
                                             ctx.seed, threads=ctx.threads)
    os.makedirs(ctx.out_dir, exist_ok=True)
    rows = []
    for i, row in enumerate(sweeps):
        for j, sweep in enumerate(row):
            for p_dbm, p_w, resp in zip(sweep.powers_dbm, sweep.powers_w, sweep.responses):
                rows.append((i, j, p_dbm, p_w, resp))
    _write_csv(os.path.join(ctx.out_dir, "powersweep.csv"),
               ("bolometer", "filter", "power_dbm", "power_w", "response"), rows)
    n = ctx.chip.n_channels
    _write_csv(os.path.join(ctx.out_dir, "p1db_matrix.csv"),
               ("bolometer", *(f"filter{j}" for j in range(n))),
               [(i, *p1db[i]) for i in range(n)])
    _write_json(os.path.join(ctx.out_dir, "crosstalk.json"), {
        "p_1db_dbm": [[float(v) for v in row] for row in xtalk.p_1db_dbm],
        "row_crosstalk_db": [[None if np.isnan(v) else float(v) for v in row]
                             for row in xtalk.crosstalk_db],
        "column_crosstalk_db": [[None if np.isnan(v) else float(v) for v in row]
                                for row in xtalk.column_crosstalk_db],
        "worst_db": xtalk.worst_db,
        "best_db": xtalk.best_db,
    })
    _finish(ctx, "powersweep")
    print(f"crosstalk worst {xtalk.worst_db:.1f} dB, best {xtalk.best_db:.1f} dB")
    return 0


def _metric_dict(metric):
    return {
        "signal_mean": metric.signal_mean,
        "baseline_mean": metric.baseline_mean,
        "baseline_std": metric.baseline_std,
        "response": metric.response,
        "snr": metric.snr,
        "zero_noise": metric.zero_noise,
    }


def _run_dict(run):
    return {
        "pattern": run.pattern.label,
        "n_avg": run.n_avg,
        "probe_tones": [{"f_hz": t.f_hz, "p_dbm": t.p_dbm} for t in run.probe_tones],
        "operating_points": [
            {"t_star_k": op.t_star_k, "f_r_star_hz": op.f_r_star_hz}
            for op in run.operating_points
        ],
        "metrics": [_metric_dict(m) for m in run.metrics],
    }


def cmd_trigger(ctx: _Context, args) -> int:
    pattern = TriggerPattern.from_label(args.pattern)
    run = run_trigger(ctx.chip, pattern, ctx.settings, ctx.seed)
    os.makedirs(ctx.out_dir, exist_ok=True)
    for ch, iq in enumerate(run.iq):
        write_trace(iq, os.path.join(ctx.out_dir, f"trace_ch{ch}.csv"))
    _write_json(os.path.join(ctx.out_dir, "metrics.json"), _run_dict(run))
    _finish(ctx, f"trigger --pattern {pattern.label}")
    for ch, m in enumerate(run.metrics):
        print(f"channel {ch}: snr {m.snr:.2f}")
    return 0


def cmd_multiplex(ctx: _Context, args) -> int:
    runs = run_full_multiplex(ctx.chip, ctx.settings, ctx.seed, threads=ctx.threads)
    os.makedirs(ctx.out_dir, exist_ok=True)
    for run in runs:
        for ch, iq in enumerate(run.iq):
            write_trace(iq, os.path.join(ctx.out_dir, f"pattern_{run.pattern.label}_ch{ch}.csv"))
    _write_json(os.path.join(ctx.out_dir, "metrics.json"),
                {"runs": [_run_dict(run) for run in runs]})
    names = [f"ch{ch}" for ch in range(ctx.chip.n_channels)]
    table = snr_table({run.pattern.label: [m.snr for m in run.metrics] for run in runs},
                      names)
    records = table.records()
    _write_json(os.path.join(ctx.out_dir, "snr_table.json"), {"records": records})
    _write_csv(os.path.join(ctx.out_dir, "snr_table.csv"),
               ("channel", "pattern", "kind", "snr"),
               [(r["channel"], r["pattern"], r["kind"], r["snr"]) for r in records])
    _finish(ctx, "multiplex")
    worst_matched = min(table.matched_snr)
    worst_leak = max(abs(s) for leaks in table.leakage_snr for s in leaks)
    print(f"matched snr >= {worst_matched:.2f}, max |leakage snr| {worst_leak:.2f}")
    return 0


def cmd_analyze(ctx: _Context, args) -> int:
    results_dir = args.results_dir
    problems = verify_manifest(results_dir)
    if problems:
        for problem in problems:
            print(f"integrity: {problem}", file=sys.stderr)
        return 2
    manifest = read_manifest(results_dir)
    summary = {
        "command": manifest.command,
        "tool_version": manifest.tool_version,
        "seed": manifest.seed,
        "files_verified": len(manifest.files),
    }
    snr_path = os.path.join(results_dir, "snr_table.json")
    if os.path.isfile(snr_path):
        with open(snr_path, "r", encoding="utf-8") as fh:
            records = json.load(fh)["records"]
        matched = [r["snr"] for r in records if r["kind"] == "matched"]
        leaks = [abs(r["snr"]) for r in records if r["kind"] == "leakage"]
        summary["min_matched_snr"] = min(matched) if matched else None
        summary["max_abs_leakage_snr"] = max(leaks) if leaks else None
    metrics_path = os.path.join(results_dir, "metrics.json")
    if os.path.isfile(metrics_path):
        with open(metrics_path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        runs = doc["runs"] if "runs" in doc else [doc]
        summary["n_runs"] = len(runs)
        summary["snr_by_pattern"] = {
            r["pattern"]: [m["snr"] for m in r["metrics"]] for r in runs
        }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def cmd_report(ctx: _Context, args) -> int:
    results_dir = args.results_dir
    problems = verify_manifest(results_dir)
    if problems:
        for problem in problems:
            print(f"integrity: {problem}", file=sys.stderr)
        return 2
    manifest = read_manifest(results_dir)
    out_dir = ctx.out_dir if ctx.out_dir != "bolomux_report" else os.path.join(results_dir, "report")
    os.makedirs(out_dir, exist_ok=True)
    written = []

    traces = sorted(name for name, _ in manifest.files
                    if name.endswith(".csv") and (name.startswith("trace_")
                                                  or name.startswith("pattern_")))
    if traces:
        series = [read_trace(os.path.join(results_dir, name)) for name in traces]
        n = min(len(tr.samples) for tr in series)
        rate = series[0].sample_rate_hz
        columns = ["time_s"] + [name[:-4] for name in traces]
        rows = []
        for i in range(n):
            t = series[0].t0_s + i / rate
            rows.append((t, *(float(np.abs(tr.samples[i])) for tr in series)))
        path = os.path.join(out_dir, "report_magnitude.csv")
        _write_csv(path, columns, rows)
        written.append(path)

    fits_path = os.path.join(results_dir, "characterize_fits.json")
    if os.path.isfile(fits_path):
        with open(fits_path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        rows = []
        for entry in doc["channels"]:
            for p_dbm, fit in zip(doc["powers_dbm"], entry["fits"]):
                if fit is None:
                    continue
                rows.append((entry["channel"], p_dbm, fit["f_r_hz"], fit["fwhm_hz"],
                             fit["depth"], fit["offset"]))
        path = os.path.join(out_dir, "report_fits.csv")
        _write_csv(path, ("channel", "power_dbm", "f_r_hz", "fwhm_hz", "depth", "offset"), rows)
        written.append(path)

    peaks_path = os.path.join(results_dir, "filterscan_peaks.json")
    if os.path.isfile(peaks_path):
        with open(peaks_path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        path = os.path.join(out_dir, "report_peaks.csv")
        _write_csv(path, ("channel", "f_peak_hz", "fwhm_hz"),
                   [(p["channel"], p["f_peak_hz"], p["fwhm_hz"]) for p in doc["peaks"]])
        written.append(path)

    snr_path = os.path.join(results_dir, "snr_table.csv")
    if os.path.isfile(snr_path):
        path = os.path.join(out_dir, "report_snr.csv")
        with open(snr_path, "r", encoding="utf-8") as src:
            body = src.read()
        with open(path, "w", encoding="utf-8", newline="\n") as dst:
            dst.write(body)
        written.append(path)

    for path in written:
        print(f"wrote {path}")
    if not written:
        print("nothing to report", file=sys.stderr)
    return 0


def cmd_calibrate(ctx: _Context, args) -> int:
    chip, report = calibrate_chip(ctx.chip, settings=ctx.settings, seed=ctx.seed)
    doc = configmod.deep_merge(ctx.doc, {})
    for ch, entry in enumerate(report["channels"]):
        doc["chip"]["bolometers"][ch]["dfdt_hz_per_k"] = entry["dfdt_hz_per_k"]
    doc["chip"]["noise_sigma_v"] = report["noise"]["sigma_v"]
    configmod.validate_config(doc)
    os.makedirs(ctx.out_dir, exist_ok=True)
    _write_json(os.path.join(ctx.out_dir, "calibrated_config.json"), doc)
    _write_json(os.path.join(ctx.out_dir, "calibration_report.json"), report)
    _finish(ctx, "calibrate")
    for entry in report["channels"]:
        print(f"channel {entry['channel']}: dfdt {entry['dfdt_hz_per_k']:.4g} Hz/K "
              f"(shift {entry['achieved_shift_hz'] / 1e3:.1f} kHz)")
    print(f"noise sigma {report['noise']['sigma_v']:.4g} V "
          f"(min matched snr {report['noise']['achieved_min_matched_snr']:.2f})")
    return 0


def cmd_capacity(ctx: _Context, args) -> int:
    sw = ctx.sweeps.get("capacity", {})
    f_min = args.fmin if args.fmin is not None else sw.get("f_min_hz", 100.0e6)
    f_max = args.fmax if args.fmax is not None else sw.get("f_max_hz", 1.0e9)
    spacing = args.spacing if args.spacing is not None else sw.get("spacing_hz", 5.0e6)
    print(capacity_estimate(f_min, f_max, spacing))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(parser.format_usage().rstrip(), file=sys.stderr)
        return 1

    try:
        return args.handler(_load_context(args), args)
    except (SolverError, FitError, CalibrationError, TraceFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (configmod.ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
