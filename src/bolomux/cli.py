"""Command line front end.

Every run command loads the config (shipped defaults unless --config),
applies --preset and --seed overrides, writes its outputs plus a
checksummed manifest.json into --out, and prints a short summary.

Exit codes: 0 success, 1 bad arguments or config, 2 runtime failure
(failed fit or calibration, a non-finite operating point, or a manifest
integrity mismatch).
"""
import argparse
import copy
import json
import math
import os
import shutil
import sys
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import __version__
from . import config as configmod
from .analysis import FitError, capacity_estimate, snr_table
from .device import SolverError
from .experiments import (
    PRESETS,
    CalibrationError,
    ChipConfig,
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
    _read_json,
    _write_json,
    _write_table,
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
    common.add_argument("--preset", choices=PRESETS,
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
    preset: str | None


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
                    sweeps=cfg.sweeps, out_dir=out_dir, threads=args.threads,
                    preset=args.preset)


def _finish(ctx: _Context, command: str) -> None:
    if ctx.preset:
        command += f" --preset {ctx.preset}"
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
    sw = ctx.sweeps["characterize"]
    sweep, fits = characterize(ctx.chip, sw["powers_dbm"],
                               span_linewidths=sw["span_linewidths"], n_points=sw["n_points"],
                               allow_nonlinear=ctx.settings.allow_nonlinear)
    os.makedirs(ctx.out_dir, exist_ok=True)
    n_p, n_f = len(sweep.powers_dbm), len(sweep.f_hz[0])
    for ch in range(ctx.chip.n_channels):
        _write_table(os.path.join(ctx.out_dir, f"characterize_ch{ch}.csv"),
                     ("power_dbm", "f_probe_hz", "magnitude", "normalized"),
                     (np.repeat(sweep.powers_dbm, n_f), np.tile(sweep.f_hz[ch], n_p),
                      sweep.magnitude[ch].ravel(), sweep.normalized[ch].ravel()))
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
    sw = ctx.sweeps["filterscan"]
    f_min, f_max = sw["f_min_hz"], sw["f_max_hz"]
    # refuse the bounds before np.linspace turns a bad one into a numpy warning;
    # the schema already holds n_points to an integer >= 5
    if not (math.isfinite(f_min) and math.isfinite(f_max) and f_min < f_max):
        raise ValueError("heater frequency grid must be finite and strictly increasing, "
                         f"got {f_min:g} to {f_max:g} Hz")
    grid = np.linspace(f_min, f_max, int(sw["n_points"]))
    result = run_filter_sweep(ctx.chip, grid, heater_power_dbm=sw["heater_power_dbm"],
                              settings=ctx.settings)
    os.makedirs(ctx.out_dir, exist_ok=True)
    columns = ["f_heater_hz"] + [f"response_ch{ch}" for ch in range(ctx.chip.n_channels)]
    _write_table(os.path.join(ctx.out_dir, "filterscan.csv"), columns,
                 (result.f_heater_hz, *result.response))
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
    sw = ctx.sweeps["powersweep"]
    powers = np.linspace(sw["p_min_dbm"], sw["p_max_dbm"], int(sw["n_points"]))
    # compression fits need the flank posture, where small shifts map to
    # response linearly
    settings = replace(ctx.settings, probe_detuning_fraction=0.5)
    responses, powers_w, p1db, xtalk = power_sweep_matrix(ctx.chip, powers, settings,
                                                          threads=ctx.threads)
    os.makedirs(ctx.out_dir, exist_ok=True)
    n = ctx.chip.n_channels
    bolo, filt, p = (axis.ravel() for axis in np.indices(responses.shape))
    _write_table(os.path.join(ctx.out_dir, "powersweep.csv"),
                 ("bolometer", "filter", "power_dbm", "power_w", "response"),
                 (bolo, filt, powers[p], powers_w[p], responses.ravel()))
    _write_table(os.path.join(ctx.out_dir, "p1db_matrix.csv"),
                 ("bolometer", *(f"filter{j}" for j in range(n))),
                 (np.arange(n), *p1db.T))
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


def _run_dict(run):
    return {
        "pattern": run.pattern.label,
        "n_avg": run.n_avg,
        "probe_tones": [{"f_hz": t.f_hz, "p_dbm": t.p_dbm} for t in run.probe_tones],
        "operating_points": [
            {"t_star_k": op.t_star_k, "f_r_star_hz": op.f_r_star_hz}
            for op in run.operating_points
        ],
        "metrics": [{**asdict(m), "response": m.response} for m in run.metrics],
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
    header = ("channel", "pattern", "kind", "snr")
    _write_table(os.path.join(ctx.out_dir, "snr_table.csv"), header,
                 [[r[key] for r in records] for key in header])
    _finish(ctx, "multiplex")
    worst_matched = min(table.matched_snr)
    worst_leak = max(abs(s) for leaks in table.leakage_snr for s in leaks)
    print(f"matched snr >= {worst_matched:.2f}, max |leakage snr| {worst_leak:.2f}")
    return 0


def _verified_manifest(results_dir):
    """The directory's manifest, or None after printing each integrity problem."""
    problems = verify_manifest(results_dir)
    for problem in problems:
        print(f"integrity: {problem}", file=sys.stderr)
    return None if problems else read_manifest(results_dir)


def cmd_analyze(ctx: _Context, args) -> int:
    results_dir = args.results_dir
    manifest = _verified_manifest(results_dir)
    if manifest is None:
        return 2
    summary = {
        "command": manifest.command,
        "tool_version": manifest.tool_version,
        "seed": manifest.seed,
        "files_verified": len(manifest.files),
    }
    snr_path = os.path.join(results_dir, "snr_table.json")
    if os.path.isfile(snr_path):
        records = _read_json(snr_path)["records"]
        matched = [r["snr"] for r in records if r["kind"] == "matched"]
        leaks = [abs(r["snr"]) for r in records if r["kind"] == "leakage"]
        summary["min_matched_snr"] = min(matched) if matched else None
        summary["max_abs_leakage_snr"] = max(leaks) if leaks else None
    metrics_path = os.path.join(results_dir, "metrics.json")
    if os.path.isfile(metrics_path):
        doc = _read_json(metrics_path)
        runs = doc["runs"] if "runs" in doc else [doc]
        summary["n_runs"] = len(runs)
        summary["snr_by_pattern"] = {
            r["pattern"]: [m["snr"] for m in r["metrics"]] for r in runs
        }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def cmd_report(ctx: _Context, args) -> int:
    results_dir = args.results_dir
    manifest = _verified_manifest(results_dir)
    if manifest is None:
        return 2
    out_dir = ctx.out_dir if ctx.out_dir != "bolomux_report" else os.path.join(results_dir, "report")
    os.makedirs(out_dir, exist_ok=True)
    written = []

    traces = sorted(name for name, _ in manifest.files
                    if name.endswith(".csv") and (name.startswith("trace_")
                                                  or name.startswith("pattern_")))
    if traces:
        series = [read_trace(os.path.join(results_dir, name)) for name in traces]
        n = min(len(tr) for tr in series)
        path = os.path.join(out_dir, "report_magnitude.csv")
        _write_table(path, ["time_s"] + [name[:-4] for name in traces],
                     [series[0].times()[:n]] + [tr.magnitude()[:n] for tr in series])
        written.append(path)

    fits_path = os.path.join(results_dir, "characterize_fits.json")
    if os.path.isfile(fits_path):
        doc = _read_json(fits_path)
        fits = [{"channel": entry["channel"], "power_dbm": p_dbm, **fit}
                for entry in doc["channels"]
                for p_dbm, fit in zip(doc["powers_dbm"], entry["fits"]) if fit is not None]
        header = ("channel", "power_dbm", "f_r_hz", "fwhm_hz", "depth", "offset")
        path = os.path.join(out_dir, "report_fits.csv")
        _write_table(path, header, [[fit[key] for fit in fits] for key in header])
        written.append(path)

    peaks_path = os.path.join(results_dir, "filterscan_peaks.json")
    if os.path.isfile(peaks_path):
        peaks = _read_json(peaks_path)["peaks"]
        header = ("channel", "f_peak_hz", "fwhm_hz")
        path = os.path.join(out_dir, "report_peaks.csv")
        _write_table(path, header, [[peak[key] for peak in peaks] for key in header])
        written.append(path)

    snr_path = os.path.join(results_dir, "snr_table.csv")
    if os.path.isfile(snr_path):
        path = os.path.join(out_dir, "report_snr.csv")
        shutil.copyfile(snr_path, path)
        written.append(path)

    for path in written:
        print(f"wrote {path}")
    if not written:
        print("nothing to report", file=sys.stderr)
    return 0


def cmd_calibrate(ctx: _Context, args) -> int:
    if ctx.preset not in (None, "desk"):  # only apply_preset knows a preset's scaling
        raise ValueError(f"calibrate writes a desk-scale config; --preset {ctx.preset} is refused")
    chip, report = calibrate_chip(ctx.chip, settings=ctx.settings)
    doc = copy.deepcopy(ctx.doc)
    for ch, entry in enumerate(report["channels"]):
        doc["chip"]["bolometers"][ch]["dfdt_hz_per_k"] = entry["dfdt_hz_per_k"]
    doc["chip"]["noise_sigma_v"] = report["noise"]["sigma_v"]
    # the input's notes describe the input's values; restate them from the report
    shifts = ", ".join(f"{e['achieved_shift_hz'] / 1e3:.1f} kHz" for e in report["channels"])
    snrs = ", ".join(f"{s:.2f}" for s in report["noise"]["expected_snr"])
    doc.setdefault("notes", {}).update(
        dfdt_hz_per_k=f"calibrated: matched-heater steady-state shifts {shifts} per channel",
        noise_sigma_v=f"calibrated: expected all-on SNRs {snrs} per channel at the predicted "
                      f"baseline floor")
    configmod.validate_config(doc)
    os.makedirs(ctx.out_dir, exist_ok=True)
    _write_json(os.path.join(ctx.out_dir, "calibrated_config.json"), doc)
    _write_json(os.path.join(ctx.out_dir, "calibration_report.json"), report)
    _finish(ctx, "calibrate")
    for entry in report["channels"]:
        print(f"channel {entry['channel']}: dfdt {entry['dfdt_hz_per_k']:.4g} Hz/K "
              f"(shift {entry['achieved_shift_hz'] / 1e3:.1f} kHz)")
    print(f"noise sigma {report['noise']['sigma_v']:.4g} V "
          f"(weakest expected snr {min(report['noise']['expected_snr']):.2f})")
    return 0


def cmd_capacity(ctx: _Context, args) -> int:
    sw = ctx.sweeps["capacity"]
    f_min = args.fmin if args.fmin is not None else sw["f_min_hz"]
    f_max = args.fmax if args.fmax is not None else sw["f_max_hz"]
    spacing = args.spacing if args.spacing is not None else sw["spacing_hz"]
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
