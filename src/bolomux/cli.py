"""Command line front end.

Every run command loads the config (shipped defaults unless --config)
with --preset and --seed set in its document, writes its outputs into
--out plus a manifest.json naming that document and checksumming exactly
the files the command wrote, and prints a short summary; --out is made
before the model runs and removed if no file was written.  analyze and
report read such a directory through its manifest and load no config.
capacity takes only --config and its band flags, and writes no file.
The parser is built on the first main call and reused by every later
call in the process.

Exit codes: 0 success, 1 bad arguments or config, 2 runtime failure
(failed fit or calibration, a non-finite operating point, a malformed
or mismatched manifest, a malformed trace or other listed file, or an
output that cannot be written).
"""
import argparse
import contextlib
import copy
import functools
import json
import math
import os
import pathlib
import shutil
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from . import config as configmod
from .analysis import FitError, capacity_estimate, snr_table
from .device import SolverError
from .experiments import (
    CalibrationError,
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


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@functools.cache
def build_parser() -> _Parser:
    config_flag = _Parser(add_help=False)
    config_flag.add_argument("--config", metavar="FILE",
                             help="JSON config merged over the shipped defaults")
    run_flags = _Parser(add_help=False, parents=[config_flag])
    run_flags.add_argument("--seed", type=int, metavar="N",
                           help="override the config's master seed")
    run_flags.add_argument("--preset", choices=configmod.PRESETS,
                           help="sampling/averaging posture override")
    run_flags.add_argument("--threads", metavar="N", help="accepted and ignored")
    parser = _Parser(prog="bolomux",
                     description="frequency-multiplexed bolometer readout bench")
    parser.add_argument("--version", action="version", version=f"bolomux {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    sub.required = True

    def command(name, handler, summary):
        """A subcommand that loads the config and writes its files into --out."""
        p = sub.add_parser(name, parents=[run_flags], help=summary)
        p.set_defaults(handler=handler, loads_config=True)
        p.add_argument("--out", metavar="DIR", help=f"output directory (default bolomux_{name})")
        return p

    def reader(name, handler, summary):
        """A subcommand that reads a results directory and loads no config: the
        directory's manifest records the config that made it."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler, loads_config=False)
        p.add_argument("results_dir")
        p.add_argument("--config", metavar="FILE", help="accepted and ignored")
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
    reader("analyze", cmd_analyze, "verify a results directory and summarize it")
    p = reader("report", cmd_report, "emit plot-ready tables from a results directory")
    p.add_argument("--out", metavar="DIR", help="output directory (default RESULTS_DIR/report)")
    command("calibrate", cmd_calibrate,
            "retune responsivity and noise to the shipped targets")
    # capacity reads only the config's capacity sweep, and its handler loads it
    p = sub.add_parser("capacity", parents=[config_flag],
                       help="channel count fitting in a readout band")
    p.set_defaults(handler=cmd_capacity, loads_config=False)
    p.add_argument("--fmin", type=float, metavar="HZ", help="band low edge")
    p.add_argument("--fmax", type=float, metavar="HZ", help="band high edge")
    p.add_argument("--spacing", type=float, metavar="HZ", help="channel spacing")
    return parser


def _out_dir(args) -> str:
    """--out, else DIR/report for `report DIR`, else bolomux_<command>; the
    subcommands' --out help states the same defaults."""
    if args.out:
        return args.out
    if args.command == "report":
        return os.path.join(args.results_dir, "report")
    return f"bolomux_{args.command}"


def _output(args, name: str) -> str:
    """The path of output file `name`, whose name joins args.written: the
    files this command wrote, which the manifest hashes.  report makes its
    output directory here, on first use."""
    out_dir = _out_dir(args)
    os.makedirs(out_dir, exist_ok=True)
    args.written.append(name)
    return os.path.join(out_dir, name)


def _finish(cfg: configmod.ExperimentConfig, args, command: str) -> None:
    if args.preset:
        command += f" --preset {args.preset}"
    write_manifest(_out_dir(args), command, cfg.doc, __version__, args.written)


def cmd_characterize(cfg: configmod.ExperimentConfig, args) -> int:
    sweep, fits = characterize(cfg.chip, **cfg.sweeps["characterize"],
                               allow_nonlinear=cfg.settings.allow_nonlinear)
    n_p, n_f = len(sweep.powers_dbm), len(sweep.f_hz[0])
    for ch in range(cfg.chip.n_channels):
        _write_table(_output(args, f"characterize_ch{ch}.csv"),
                     ("power_dbm", "f_probe_hz", "magnitude"),
                     (np.repeat(sweep.powers_dbm, n_f), np.tile(sweep.f_hz[ch], n_p),
                      sweep.magnitude[ch].ravel()))
    _write_json(_output(args, "characterize_fits.json"), {
        "powers_dbm": list(sweep.powers_dbm),
        "channels": [
            {"channel": ch, "fits": [None if f is None else asdict(f) for f in fits[ch]]}
            for ch in range(cfg.chip.n_channels)
        ],
    })
    _finish(cfg, args, "characterize")
    for ch in range(cfg.chip.n_channels):
        head = fits[ch][0]
        if head is None:
            print(f"channel {ch}: fit failed at {sweep.powers_dbm[0]} dBm")
            continue
        print(f"channel {ch}: f_r {head.f_r_hz / 1e6:.6f} MHz, "
              f"linewidth {head.fwhm_hz / 1e6:.4f} MHz at {sweep.powers_dbm[0]} dBm")
    return 0


def cmd_filterscan(cfg: configmod.ExperimentConfig, args) -> int:
    sw = cfg.sweeps["filterscan"]
    f_min, f_max = sw["f_min_hz"], sw["f_max_hz"]
    # refuse the bounds before np.linspace turns a bad one into a numpy warning;
    # the schema already holds n_points to an integer >= 5
    if not (math.isfinite(f_min) and math.isfinite(f_max) and f_min < f_max):
        raise ValueError("heater frequency grid must be finite and strictly increasing, "
                         f"got {f_min:g} to {f_max:g} Hz")
    grid = np.linspace(f_min, f_max, int(sw["n_points"]))
    result = run_filter_sweep(cfg.chip, grid, sw["heater_power_dbm"], cfg.settings)
    columns = ["f_heater_hz"] + [f"response_ch{ch}" for ch in range(cfg.chip.n_channels)]
    _write_table(_output(args, "filterscan.csv"), columns, (result.f_heater_hz, *result.response))
    peaks = result.peaks()
    _write_json(_output(args, "filterscan_peaks.json"), {
        "heater_power_dbm": result.heater_power_dbm,
        "peaks": [
            {"channel": ch, "f_peak_hz": pk, "fwhm_hz": wd}
            for ch, (pk, wd) in enumerate(peaks)
        ],
    })
    _finish(cfg, args, "filterscan")
    for ch, (pk, wd) in enumerate(peaks):
        print(f"channel {ch}: peak {pk / 1e9:.3f} GHz, width {wd / 1e6:.1f} MHz")
    return 0


def cmd_powersweep(cfg: configmod.ExperimentConfig, args) -> int:
    sw = cfg.sweeps["powersweep"]
    p_min, p_max = sw["p_min_dbm"], sw["p_max_dbm"]
    # refuse the bounds before np.linspace turns a bad one into a numpy warning;
    # a finite span also rules out NaN, an infinite bound and an overflowing span
    if not math.isfinite(p_max - p_min):
        raise ValueError(f"sweep powers must span a finite range, got {p_min:g} to {p_max:g} dBm")
    powers = np.linspace(p_min, p_max, int(sw["n_points"]))
    responses, powers_w, p1db, xtalk = power_sweep_matrix(cfg.chip, powers, cfg.settings)
    n = cfg.chip.n_channels
    bolo, filt, p = (axis.ravel() for axis in np.indices(responses.shape))
    _write_table(_output(args, "powersweep.csv"),
                 ("bolometer", "filter", "power_dbm", "power_w", "response"),
                 (bolo, filt, powers[p], powers_w[p], responses.ravel()))
    _write_table(_output(args, "p1db_matrix.csv"),
                 ("bolometer", *(f"filter{j}" for j in range(n))),
                 (np.arange(n), *p1db.T))
    _write_json(_output(args, "crosstalk.json"), {
        "p_1db_dbm": p1db.tolist(),
        "row_crosstalk_db": xtalk.crosstalk_db.tolist(),
        "column_crosstalk_db": xtalk.column_crosstalk_db.tolist(),
        "worst_db": xtalk.worst_db,
        "best_db": xtalk.best_db,
    })
    _finish(cfg, args, "powersweep")
    print(f"crosstalk worst {xtalk.worst_db:.1f} dB, best {xtalk.best_db:.1f} dB")
    return 0


def _run_dict(run):
    return {
        "pattern": run.pattern.label,
        "n_avg": run.n_avg,
        "probe_tones": [asdict(t) for t in run.probe_tones],
        "operating_points": [
            {"t_star_k": op.t_star_k, "f_r_star_hz": op.f_r_star_hz}
            for op in run.operating_points
        ],
        "metrics": [{**asdict(m), "response": m.response} for m in run.metrics],
    }


def cmd_trigger(cfg: configmod.ExperimentConfig, args) -> int:
    pattern = TriggerPattern.from_label(args.pattern)
    run = run_trigger(cfg.chip, pattern, cfg.settings, cfg.seed)
    for ch, iq in enumerate(run.iq):
        write_trace(iq, _output(args, f"trace_ch{ch}.csv"))
    _write_json(_output(args, "metrics.json"), {"runs": [_run_dict(run)]})
    _finish(cfg, args, f"trigger --pattern {pattern.label}")
    for ch, m in enumerate(run.metrics):
        print(f"channel {ch}: snr {m.snr:.2f}")
    return 0


def cmd_multiplex(cfg: configmod.ExperimentConfig, args) -> int:
    runs = run_full_multiplex(cfg.chip, cfg.settings, cfg.seed)
    for run in runs:
        for ch, iq in enumerate(run.iq):
            write_trace(iq, _output(args, f"pattern_{run.pattern.label}_ch{ch}.csv"))
    _write_json(_output(args, "metrics.json"), {"runs": [_run_dict(run) for run in runs]})
    names = [f"ch{ch}" for ch in range(cfg.chip.n_channels)]
    records = snr_table({run.pattern.label: [m.snr for m in run.metrics] for run in runs},
                        names)
    _write_json(_output(args, "snr_table.json"), {"records": records})
    header = ("channel", "pattern", "kind", "snr")
    _write_table(_output(args, "snr_table.csv"), header,
                 [[r[key] for r in records] for key in header])
    _finish(cfg, args, "multiplex")
    worst_matched, worst_leak = _snr_summary(records)
    print(f"matched snr >= {worst_matched:.2f}, max |leakage snr| {worst_leak:.2f}")
    return 0


def _snr_summary(records):
    """(min matched SNR, max |leakage SNR|) of SNR table records, None where
    the table has no record of that kind."""
    return (min((r["snr"] for r in records if r["kind"] == "matched"), default=None),
            max((abs(r["snr"]) for r in records if r["kind"] == "leakage"), default=None))


def _verified_manifest(results_dir):
    """The directory's manifest, or None after printing each integrity problem.
    Readers take only the files it lists: a reused directory may hold another
    command's."""
    problems = verify_manifest(results_dir)
    for problem in problems:
        print(f"integrity: {problem}", file=sys.stderr)
    return None if problems else read_manifest(results_dir)


@contextlib.contextmanager
def _listed_json(results_dir, name):
    """The document of a JSON file the manifest lists.  The checksum vouches
    only for its bytes: a file that is not JSON, or that its reader cannot
    index, is malformed, a TraceFormatError naming the file."""
    try:
        yield _read_json(os.path.join(results_dir, name))
    except (ValueError, KeyError, TypeError) as exc:
        what = f"no key {exc}" if isinstance(exc, KeyError) else exc
        raise TraceFormatError(f"{name} is malformed: {what}") from exc


def cmd_analyze(args) -> int:
    results_dir = args.results_dir
    manifest = _verified_manifest(results_dir)
    if manifest is None:
        return 2
    listed = manifest["files"]
    summary = {
        "command": manifest["command"],
        "tool_version": manifest["tool_version"],
        "seed": manifest["seed"],
        "files_verified": len(listed),
    }
    if "snr_table.json" in listed:
        with _listed_json(results_dir, "snr_table.json") as doc:
            summary["min_matched_snr"], summary["max_abs_leakage_snr"] = _snr_summary(
                doc["records"])
    if "metrics.json" in listed:
        with _listed_json(results_dir, "metrics.json") as doc:
            summary["n_runs"] = len(doc["runs"])
            summary["snr_by_pattern"] = {
                r["pattern"]: [m["snr"] for m in r["metrics"]] for r in doc["runs"]
            }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def cmd_report(args) -> int:
    results_dir = args.results_dir
    manifest = _verified_manifest(results_dir)
    if manifest is None:
        return 2
    listed = manifest["files"]

    traces = sorted(name for name in listed
                    if name.endswith(".csv") and (name.startswith("trace_")
                                                  or name.startswith("pattern_")))
    if traces:
        series = [read_trace(os.path.join(results_dir, name)) for name in traces]
        n = min(len(tr) for tr in series)
        _write_table(_output(args, "report_magnitude.csv"),
                     ["time_s"] + [name[:-4] for name in traces],
                     [series[0].times()[:n]] + [tr.magnitude()[:n] for tr in series])

    if "characterize_fits.json" in listed:
        header = ("channel", "power_dbm", "f_r_hz", "fwhm_hz", "depth", "offset")
        with _listed_json(results_dir, "characterize_fits.json") as doc:
            fits = [{"channel": entry["channel"], "power_dbm": p_dbm, **fit}
                    for entry in doc["channels"]
                    for p_dbm, fit in zip(doc["powers_dbm"], entry["fits"]) if fit is not None]
            columns = [[fit[key] for fit in fits] for key in header]
        _write_table(_output(args, "report_fits.csv"), header, columns)

    if "filterscan_peaks.json" in listed:
        # a width cut off by the scan edge is null in the JSON and nan in the table
        with _listed_json(results_dir, "filterscan_peaks.json") as doc:
            columns = [[peak["channel"] for peak in doc["peaks"]],
                       *(np.array([peak[key] for peak in doc["peaks"]], dtype=float)
                         for key in ("f_peak_hz", "fwhm_hz"))]
        _write_table(_output(args, "report_peaks.csv"), ("channel", "f_peak_hz", "fwhm_hz"),
                     columns)

    if "snr_table.csv" in listed:
        shutil.copyfile(os.path.join(results_dir, "snr_table.csv"),
                        _output(args, "report_snr.csv"))

    for name in args.written:
        print(f"wrote {os.path.join(_out_dir(args), name)}")
    if not args.written:
        print("nothing to report", file=sys.stderr)
    return 0


def cmd_calibrate(cfg: configmod.ExperimentConfig, args) -> int:
    # a preset scales the noise relative to the config, so a written preset-scale
    # config would be scaled again when loaded under that preset
    if args.preset not in (None, "desk"):
        raise ValueError(
            f"calibrate writes a desk-scale config; --preset {args.preset} is refused")
    chip, report = calibrate_chip(cfg.chip, cfg.settings)
    doc = copy.deepcopy(cfg.doc)
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
    _write_json(_output(args, "calibrated_config.json"), doc)
    _write_json(_output(args, "calibration_report.json"), report)
    _finish(cfg, args, "calibrate")
    for entry in report["channels"]:
        print(f"channel {entry['channel']}: dfdt {entry['dfdt_hz_per_k']:.4g} Hz/K "
              f"(shift {entry['achieved_shift_hz'] / 1e3:.1f} kHz)")
    print(f"noise sigma {report['noise']['sigma_v']:.4g} V "
          f"(weakest expected snr {min(report['noise']['expected_snr']):.2f})")
    return 0


def cmd_capacity(args) -> int:
    sw = configmod.load_config(args.config).sweeps["capacity"]
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

    args.written, made = [], []
    try:
        if not args.loads_config:
            return args.handler(args)
        cfg = configmod.load_config(args.config, preset=args.preset or "desk", seed=args.seed)
        out_dir = pathlib.Path(_out_dir(args)).absolute()
        made = [path for path in (out_dir, *out_dir.parents) if not path.exists()]
        out_dir.mkdir(parents=True, exist_ok=True)  # an unusable --out fails here
        return args.handler(cfg, args)
    except (SolverError, FitError, CalibrationError, TraceFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (configmod.ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if not args.written:  # a failed command leaves no directory it made
            for path in made:  # deepest first
                with contextlib.suppress(OSError):
                    path.rmdir()


if __name__ == "__main__":
    sys.exit(main())
