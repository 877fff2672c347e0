"""Command-line interface: subcommands, exit codes, output files, and the
analyze/report pipeline."""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from bolomux import analysis, cli
from bolomux.analysis import FitError
from bolomux.cli import main
from bolomux.config import _default_config_dict, config_hash, load_config
from bolomux.experiments import calibrate_chip
from bolomux.traceio import read_manifest, read_trace, verify_manifest, write_manifest


@pytest.fixture()
def fast_config(tmp_path):
    """Config override that keeps time-domain runs quick."""
    path = tmp_path / "fast.json"
    path.write_text(json.dumps({"run": {"n_avg": 2}}))
    return str(path)


def run_cli(*argv):
    return main(list(argv))


# ----------------------------------------------------------------- capacity


def test_capacity_prints_bare_count(capsys):
    assert run_cli("capacity", "--fmin", "100e6", "--fmax", "1e9",
                   "--spacing", "5e6") == 0
    assert capsys.readouterr().out == "180\n"


def test_capacity_uses_config_sweep_defaults(capsys):
    assert run_cli("capacity") == 0
    assert capsys.readouterr().out == "180\n"


@pytest.mark.parametrize("flag", [["--threads", "2"], ["--seed", "3"], ["--preset", "paper"]],
                         ids=["threads", "seed", "preset"])
def test_capacity_refuses_flags_it_would_ignore(capsys, flag):
    # capacity reads only the config's capacity sweep and its own band flags
    assert run_cli("capacity", *flag) == 1
    assert flag[0] in capsys.readouterr().err


def test_capacity_rejects_inverted_band(capsys):
    assert run_cli("capacity", "--fmin", "1e9", "--fmax", "1e8",
                   "--spacing", "5e6") == 1
    assert "error" in capsys.readouterr().err


# ----------------------------------------------------------------- usage


def test_unknown_subcommand_is_usage_error(capsys):
    assert run_cli("frobnicate") == 1
    assert "usage" in capsys.readouterr().err


def test_trigger_requires_pattern(capsys):
    assert run_cli("trigger") == 1
    assert "pattern" in capsys.readouterr().err


def test_threads_flag_is_accepted_and_ignored(capsys, tmp_path, fast_config):
    # every run is one batch: --threads 4 writes the files a run without it
    # writes, and the manifests differ only in created_utc
    dirs = [tmp_path / "plain", tmp_path / "threads"]
    assert run_cli("multiplex", "--config", fast_config, "--out", str(dirs[0])) == 0
    assert run_cli("multiplex", "--config", fast_config, "--threads", "4",
                   "--out", str(dirs[1])) == 0
    capsys.readouterr()
    names = sorted(p.name for p in dirs[0].iterdir())
    assert names == sorted(p.name for p in dirs[1].iterdir())
    assert len(names) == 28  # 24 traces, metrics, snr table json and csv, manifest
    for name in names:
        if name != "manifest.json":
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name
    plain, threads = ({k: v for k, v in read_manifest(d).items() if k != "created_utc"}
                      for d in dirs)
    assert plain == threads


def test_missing_config_file(capsys, tmp_path):
    assert run_cli("capacity", "--config", str(tmp_path / "nope.json")) == 1
    assert "error" in capsys.readouterr().err


def test_invalid_config_content(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"run": {"n_avg": -3}}))
    assert run_cli("capacity", "--config", str(bad)) == 1
    assert "/run/n_avg" in capsys.readouterr().err


@pytest.mark.parametrize("doc, pointer", [
    ({"sweeps": {"characterize": {"n_points": 51.0}}}, "/sweeps/characterize/n_points"),
    ({"run": {"n_avg": 2.0}}, "/run/n_avg"),
])
def test_integral_float_for_integer_field_is_config_error(capsys, tmp_path, doc, pointer):
    # 51.0 is an integer to JSON Schema but not to np.linspace or RunSettings
    path = tmp_path / "float.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run_cli("characterize", "--config", str(path), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config error at {pointer}: ")
    assert "Traceback" not in err and not out.exists()


def test_config_entries_may_omit_optional_keys(capsys, tmp_path):
    # bolometers without p_nonlinear_dbm and filters with only their center
    # and width run on the dataclass defaults; a bad value still exits 1
    chip = _default_config_dict()["chip"]
    bolometers = [{k: v for k, v in b.items() if k != "p_nonlinear_dbm"}
                  for b in chip["bolometers"]]
    filters = [{k: f[k] for k in ("f_center_hz", "fwhm_hz")} for f in chip["filters"]]
    sparse = tmp_path / "sparse.json"
    sparse.write_text(json.dumps({"chip": {"bolometers": bolometers, "filters": filters},
                                  "run": {"n_avg": 2}}))
    assert run_cli("trigger", "--pattern", "101", "--config", str(sparse),
                   "--out", str(tmp_path / "out")) == 0
    capsys.readouterr()
    bolometers[0]["p_nonlinear_dbm"] = float("nan")
    sparse.write_text(json.dumps({"chip": {"bolometers": bolometers}}))
    assert run_cli("trigger", "--pattern", "101", "--config", str(sparse),
                   "--out", str(tmp_path / "bad")) == 1
    assert capsys.readouterr().err.startswith("error: ")


# ----------------------------------------------------------------- trigger


def test_trigger_writes_traces_and_manifest(capsys, tmp_path, fast_config):
    out = tmp_path / "out"
    assert run_cli("trigger", "--pattern", "001", "--config", fast_config,
                   "--out", str(out)) == 0
    for ch in range(3):
        trace = read_trace(out / f"trace_ch{ch}.csv")
        assert len(trace) == 1000
    # one run, in the shape multiplex writes its eight in
    runs = json.loads((out / "metrics.json").read_text())["runs"]
    assert len(runs) == 1
    metrics = runs[0]
    assert metrics["pattern"] == "001"
    assert len(metrics["metrics"]) == 3
    assert all("snr" in m for m in metrics["metrics"])
    assert verify_manifest(out) == []
    manifest = read_manifest(out)
    assert manifest["command"] == "trigger --pattern 001"
    assert manifest["seed"] == 15
    assert "snr" in capsys.readouterr().out


def test_trigger_rejects_bad_pattern(capsys, fast_config, tmp_path):
    assert run_cli("trigger", "--pattern", "012", "--config", fast_config,
                   "--out", str(tmp_path / "x")) == 1
    assert "error" in capsys.readouterr().err


def test_trigger_seed_flag_overrides_config(tmp_path, fast_config, capsys):
    a, b, c = (tmp_path / n for n in ("a", "b", "c"))
    run_cli("trigger", "--pattern", "010", "--config", fast_config,
            "--out", str(a), "--seed", "7")
    run_cli("trigger", "--pattern", "010", "--config", fast_config,
            "--out", str(b), "--seed", "7")
    run_cli("trigger", "--pattern", "010", "--config", fast_config,
            "--out", str(c), "--seed", "8")
    capsys.readouterr()
    for ch in range(3):
        fa = (a / f"trace_ch{ch}.csv").read_bytes()
        fb = (b / f"trace_ch{ch}.csv").read_bytes()
        fc = (c / f"trace_ch{ch}.csv").read_bytes()
        assert fa == fb
        assert fa != fc
    assert read_manifest(a)["seed"] == 7
    assert read_manifest(c)["seed"] == 8


# ----------------------------------------------------------------- sweeps


def test_characterize_writes_fits(capsys, tmp_path, monkeypatch):
    swept, characterize = [], cli.characterize

    def characterize_with_a_nan_cell(*args, **kwargs):
        # the shipped grid has no cell without a steady state, so mark one
        # as the sweep marks such a cell
        sweep, fits = characterize(*args, **kwargs)
        sweep.magnitude[2, 1, 7] = np.nan
        swept.append(sweep)
        return sweep, fits

    monkeypatch.setattr(cli, "characterize", characterize_with_a_nan_cell)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "sweeps": {"characterize": {"powers_dbm": [-160.0, -150.0],
                                    "n_points": 61}}}))
    out = tmp_path / "char"
    assert run_cli("characterize", "--config", str(cfg), "--out", str(out)) == 0
    fits = json.loads((out / "characterize_fits.json").read_text())
    assert fits["powers_dbm"] == [-160.0, -150.0]
    assert len(fits["channels"]) == 3
    expected = [156.7e6, 179.3e6, 193.7e6]
    for ch_fit, f_r0 in zip(fits["channels"], expected):
        assert ch_fit["fits"][0]["f_r_hz"] == pytest.approx(f_r0, abs=1e4)
    assert verify_manifest(out) == []
    assert "MHz" in capsys.readouterr().out

    # one row per (power, frequency) cell, power-major, raw |Gamma| only
    (sweep,) = swept
    for ch in range(3):
        header, *rows = (out / f"characterize_ch{ch}.csv").read_text().splitlines()
        assert header == "power_dbm,f_probe_hz,magnitude"
        cells = [row.split(",") for row in rows]
        assert len(cells) == 2 * 61 and {len(row) for row in cells} == {3}
        table = np.array([[float(cell) for cell in row] for row in cells])
        assert np.array_equal(table[:, 0], np.repeat(sweep.powers_dbm, 61))
        assert np.array_equal(table[:, 1], np.tile(sweep.f_hz[ch], 2))
        assert np.array_equal(table[:, 2], sweep.magnitude[ch].ravel(), equal_nan=True)
        assert [i for i, row in enumerate(cells) if row[2] == "nan"] == \
            ([61 + 7] if ch == 2 else [])


@pytest.mark.parametrize("allow", [True, False])
def test_characterize_honours_allow_nonlinear(capsys, tmp_path, allow):
    # -120 dBm is above every channel's nonlinear threshold; run.allow_nonlinear
    # lifts the guard for characterize as it does for trigger
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "run": {"allow_nonlinear": allow},
        "sweeps": {"characterize": {"powers_dbm": [-160.0, -120.0]}}}))
    out = tmp_path / "char"
    code = run_cli("characterize", "--config", str(cfg), "--out", str(out))
    err = capsys.readouterr().err
    if allow:
        assert code == 0 and verify_manifest(out) == []
    else:
        assert code == 1 and "allow_nonlinear" in err and not out.exists()


def test_filterscan_finds_peaks(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sweeps": {"filterscan": {"n_points": 81}}}))
    out = tmp_path / "scan"
    assert run_cli("filterscan", "--config", str(cfg), "--out", str(out)) == 0
    peaks = json.loads((out / "filterscan_peaks.json").read_text())
    centers = sorted(p["f_peak_hz"] for p in peaks["peaks"])
    assert centers == pytest.approx([4.4e9, 5.8e9, 7.6e9], abs=5e7)
    assert verify_manifest(out) == []
    capsys.readouterr()


def test_filterscan_writes_a_width_cut_off_by_the_scan_edge_as_null(capsys, tmp_path):
    # channel 1's filter is centred on the first grid point, so its peak has
    # no lower half-maximum crossing and no finite width
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sweeps": {"filterscan": {"f_min_hz": 4.4e9, "n_points": 81}}}))
    out = tmp_path / "scan"
    assert run_cli("filterscan", "--config", str(cfg), "--out", str(out)) == 0
    assert run_cli("report", str(out)) == 0
    capsys.readouterr()

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    docs = {path.name: json.loads(path.read_text(), parse_constant=refuse)
            for path in out.glob("*.json")}
    assert sorted(docs) == ["filterscan_peaks.json", "manifest.json"]
    assert [peak["fwhm_hz"] is None for peak in docs["filterscan_peaks.json"]["peaks"]] == \
        [False, True, False]
    # the report table keeps nan for that cell, as the scan's own CSV does
    assert (out / "report" / "report_peaks.csv").read_text().splitlines()[2] == \
        "1,4400000000.0,nan"


@pytest.mark.parametrize("command, sweep", [
    ("filterscan", {"f_min_hz": 5e9, "f_max_hz": 4e9}),
    ("filterscan", {"f_min_hz": float("nan")}),
    ("filterscan", {"f_max_hz": float("inf")}),
    ("characterize", {"span_linewidths": float("nan")}),
    ("characterize", {"span_linewidths": float("inf")}),
    ("powersweep", {"p_max_dbm": float("inf")}),
    ("powersweep", {"p_min_dbm": float("nan")}),
    ("powersweep", {"p_min_dbm": -1e308, "p_max_dbm": 1e308}),
])
def test_sweep_rejects_bad_grid(capsys, tmp_path, command, sweep):
    # the schema passes these; the sweep refuses them in one line, exit 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sweeps": {command: sweep}}))
    out = tmp_path / "out"
    assert run_cli(command, "--config", str(cfg), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 120
    assert not out.exists()


def test_powersweep_writes_crosstalk(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sweeps": {"powersweep": {"n_points": 12}}}))
    out = tmp_path / "ps"
    assert run_cli("powersweep", "--config", str(cfg), "--out", str(out)) == 0
    xt = json.loads((out / "crosstalk.json").read_text())
    assert xt["worst_db"] < 0.0
    assert xt["best_db"] <= xt["worst_db"]
    rows = xt["row_crosstalk_db"]
    assert len(rows) == 3 and len(rows[0]) == 3
    # matched diagonal cells are null in JSON
    cmap = (1, 0, 2)
    for i in range(3):
        assert rows[i][cmap[i]] is None
    # the P1dB table in the JSON is the one in the CSV, value for value
    lines = (out / "p1db_matrix.csv").read_text().splitlines()[1:]
    assert xt["p_1db_dbm"] == [[float(cell) for cell in line.split(",")[1:]] for line in lines]
    assert verify_manifest(out) == []
    capsys.readouterr()


# ------------------------------------------------------------- calibrate


def test_calibrate_writes_tuned_config(capsys, tmp_path, fast_config):
    out = tmp_path / "cal"
    assert run_cli("calibrate", "--config", fast_config, "--out", str(out)) == 0
    tuned = load_config(out / "calibrated_config.json").doc
    report = json.loads((out / "calibration_report.json").read_text())
    assert len(report["channels"]) == 3
    for entry in report["channels"]:
        assert entry["dfdt_hz_per_k"] == pytest.approx(
            tuned["chip"]["bolometers"][entry["channel"]]["dfdt_hz_per_k"])
    assert tuned["chip"]["noise_sigma_v"] == pytest.approx(
        report["noise"]["sigma_v"])
    # the notes describe the calibrated values, not the shipped ones
    shipped = _default_config_dict()["notes"]
    for key in ("dfdt_hz_per_k", "noise_sigma_v"):
        assert tuned["notes"][key] != shipped[key]
    assert ", ".join(f"{s:.2f}" for s in report["noise"]["expected_snr"]) in \
        tuned["notes"]["noise_sigma_v"]
    assert all(f"{e['achieved_shift_hz'] / 1e3:.1f} kHz" in tuned["notes"]["dfdt_hz_per_k"]
               for e in report["channels"])
    assert verify_manifest(out) == []
    capsys.readouterr()


def test_calibrated_config_reloads_to_the_calibrated_chip(capsys, tmp_path, fast_config):
    out = tmp_path / "cal"
    assert run_cli("calibrate", "--config", fast_config, "--out", str(out)) == 0
    cfg = load_config(fast_config)
    calibrated, _ = calibrate_chip(cfg.chip, settings=cfg.settings)
    reloaded = load_config(out / "calibrated_config.json").chip
    assert reloaded == calibrated
    assert reloaded.noise_sigma_v != cfg.chip.noise_sigma_v
    capsys.readouterr()


def test_calibration_report_does_not_depend_on_seed(capsys, tmp_path, fast_config):
    reports = []
    for seed in ("7", "8"):
        out = tmp_path / f"cal{seed}"
        assert run_cli("calibrate", "--config", fast_config, "--seed", seed,
                       "--out", str(out)) == 0
        reports.append((out / "calibration_report.json").read_bytes())
    assert reports[0] == reports[1]
    capsys.readouterr()


@pytest.mark.parametrize("preset", ["paper", "fig3"])
def test_calibrate_refuses_scaled_presets(capsys, tmp_path, preset):
    out = tmp_path / "cal"
    assert run_cli("calibrate", "--preset", preset, "--out", str(out)) == 1
    assert f"--preset {preset}" in capsys.readouterr().err
    assert not out.exists()


# --------------------------------------------------------- analyze/report


def test_analyze_summarizes_multiplex(capsys, tmp_path, fast_config):
    out = tmp_path / "mux"
    assert run_cli("multiplex", "--config", fast_config, "--out", str(out)) == 0
    capsys.readouterr()
    assert run_cli("analyze", str(out)) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["command"] == "multiplex"
    assert summary["files_verified"] == len(read_manifest(out)["files"])
    assert summary["n_runs"] == 8
    assert set(summary["snr_by_pattern"]) == {format(v, "03b") for v in range(8)}
    assert "min_matched_snr" in summary


def test_multiplex_summary_line_agrees_with_analyze(capsys, tmp_path, fast_config):
    out = tmp_path / "mux"
    assert run_cli("multiplex", "--config", fast_config, "--out", str(out)) == 0
    line = capsys.readouterr().out.strip()
    assert run_cli("analyze", str(out)) == 0
    summary = json.loads(capsys.readouterr().out)
    assert line == (f"matched snr >= {summary['min_matched_snr']:.2f}, "
                    f"max |leakage snr| {summary['max_abs_leakage_snr']:.2f}")


def test_reused_out_directory_certifies_only_the_last_run(capsys, tmp_path, fast_config):
    # a trigger run into a multiplex directory: its manifest lists only its
    # own files, and analyze and report read nothing of the stale multiplex
    out = tmp_path / "d"
    assert run_cli("multiplex", "--config", fast_config, "--out", str(out)) == 0
    assert run_cli("trigger", "--pattern", "101", "--config", fast_config,
                   "--out", str(out)) == 0
    assert (out / "snr_table.json").exists()
    assert sorted(read_manifest(out)["files"]) == [
        "metrics.json", "trace_ch0.csv", "trace_ch1.csv", "trace_ch2.csv"]
    capsys.readouterr()
    assert run_cli("analyze", str(out)) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["command"] == "trigger --pattern 101"
    assert summary["files_verified"] == 4 and summary["n_runs"] == 1
    assert "min_matched_snr" not in summary and "max_abs_leakage_snr" not in summary
    assert run_cli("report", str(out)) == 0
    capsys.readouterr()
    assert sorted(os.listdir(out / "report")) == ["report_magnitude.csv"]
    check_magnitude_table(out, [f"trace_ch{ch}" for ch in range(3)])


def test_analyze_flags_tampering(capsys, tmp_path, fast_config):
    out = tmp_path / "mux"
    run_cli("trigger", "--pattern", "000", "--config", fast_config,
            "--out", str(out))
    capsys.readouterr()
    target = out / "trace_ch1.csv"
    target.write_text(target.read_text().replace("0,", "0, ", 1))
    assert run_cli("analyze", str(out)) == 2
    err = capsys.readouterr().err
    assert "integrity" in err
    assert "trace_ch1.csv" in err


@pytest.mark.parametrize("command", ["analyze", "report"])
def test_readers_load_no_config(capsys, tmp_path, fast_config, command):
    # a clean directory is read from its manifest alone; --config is still
    # accepted, and a file that does not exist is not opened
    out = tmp_path / "trig"
    assert run_cli("trigger", "--pattern", "101", "--config", fast_config,
                   "--out", str(out)) == 0
    assert run_cli(command, str(out), "--config", str(tmp_path / "nonexistent.json")) == 0
    assert "error" not in capsys.readouterr().err


@pytest.mark.parametrize("command, default", [
    ("report", "RESULTS_DIR/report"),
    ("powersweep", "bolomux_powersweep"),
    ("trigger", "bolomux_trigger"),
])
def test_out_help_states_the_real_default(capsys, command, default):
    with pytest.raises(SystemExit) as exit_info:
        run_cli(command, "--help")
    assert exit_info.value.code == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert f"--out DIR output directory (default {default})" in help_text


@pytest.mark.parametrize("command", ["analyze", "capacity"])
def test_commands_that_write_no_files_take_no_out(capsys, tmp_path, command):
    assert run_cli(command, *([str(tmp_path)] if command == "analyze" else []),
                   "--out", str(tmp_path / "x")) == 1
    assert "--out" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["trigger", "--pattern", "000"], ["characterize"], ["filterscan"], ["powersweep"],
    ["multiplex"], ["calibrate"], ["report"],
], ids=lambda argv: argv[0])
def test_unwritable_out_is_a_runtime_failure(capsys, tmp_path, fast_config, command):
    # an --out naming an existing file is one error line and exit 2, not a
    # traceback, and the file is left as it was
    target = tmp_path / "taken"
    target.write_text("not a directory\n")
    if command == ["report"]:
        results = tmp_path / "trig"
        assert run_cli("trigger", "--pattern", "000", "--config", fast_config,
                       "--out", str(results)) == 0
        command = ["report", str(results)]
    else:
        command = [*command, "--config", fast_config]
    capsys.readouterr()
    assert run_cli(*command, "--out", str(target)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert target.read_text() == "not a directory\n"


@pytest.mark.parametrize("command", [
    ["trigger", "--pattern", "111", "--preset", "fig3"], ["characterize"], ["filterscan"],
    ["powersweep"], ["multiplex"], ["calibrate"],
], ids=lambda argv: argv[0])
def test_unusable_out_fails_before_the_model_runs(capsys, tmp_path, monkeypatch, command):
    # the output directory is made before the model runs, so an --out that
    # names a file, or lies under one, fails at once
    def model(*args, **kwargs):
        raise AssertionError("the model ran")

    for name in ("characterize", "run_filter_sweep", "power_sweep_matrix", "run_trigger",
                 "run_full_multiplex", "calibrate_chip"):
        monkeypatch.setattr(cli, name, model)
    target = tmp_path / "taken"
    target.write_text("not a directory\n")
    for out in (target, target / "sub"):
        assert run_cli(*command, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    assert target.read_text() == "not a directory\n"


def test_a_failed_fit_leaves_no_directory(capsys, tmp_path, monkeypatch):
    # powersweep runs the model, then its compression fit fails before any
    # file is written: the directories the command made go again, and one
    # that was there before stays
    monkeypatch.setattr(analysis, "fit_compressions",
                        lambda traces: [FitError("stub fit failure")] * len(traces))
    (tmp_path / "kept").mkdir()
    for out in (tmp_path / "new" / "deeper" / "sweep", tmp_path / "kept" / "sweep",
                tmp_path / "kept"):
        assert run_cli("powersweep", "--out", str(out)) == 2
        assert capsys.readouterr().err == "error: stub fit failure\n"
    assert [path.name for path in tmp_path.iterdir()] == ["kept"]
    assert list((tmp_path / "kept").iterdir()) == []


def test_analyze_missing_directory(capsys, tmp_path):
    assert run_cli("analyze", str(tmp_path / "nowhere")) == 2
    capsys.readouterr()


def check_magnitude_table(out, names):
    # one time_s column from the first trace, then |z| of every trace read back
    lines = (out / "report" / "report_magnitude.csv").read_text().splitlines()
    assert lines[0] == ",".join(["time_s"] + names)
    traces = [read_trace(out / f"{name}.csv") for name in names]
    assert len(lines) == 1 + len(traces[0])
    columns = list(zip(*(line.split(",") for line in lines[1:])))
    assert list(columns[0]) == [repr(t) for t in traces[0].times().tolist()]
    for column, trace in zip(columns[1:], traces):
        # the np.abs ufunc, sample by sample: abs() of a complex, Python's or
        # numpy's scalar method, can differ from it in the last bit
        assert list(column) == [repr(float(np.abs(z))) for z in trace.samples]


def test_report_renders_tables(capsys, tmp_path, fast_config):
    out = tmp_path / "trig"
    run_cli("trigger", "--pattern", "111", "--config", fast_config,
            "--out", str(out))
    capsys.readouterr()
    assert run_cli("report", str(out)) == 0
    report_dir = out / "report"
    assert (report_dir / "report_magnitude.csv").exists()
    produced = capsys.readouterr().out
    assert "wrote" in produced
    check_magnitude_table(out, [f"trace_ch{ch}" for ch in range(3)])

    mux = tmp_path / "mux"
    assert run_cli("multiplex", "--config", fast_config, "--out", str(mux)) == 0
    assert run_cli("report", str(mux)) == 0
    check_magnitude_table(mux, [f"pattern_{v:03b}_ch{ch}" for v in range(8) for ch in range(3)])
    assert (mux / "report" / "report_snr.csv").read_bytes() == \
        (mux / "snr_table.csv").read_bytes()


def test_report_writes_to_an_explicit_out(capsys, tmp_path, fast_config, monkeypatch):
    # an explicit --out wins even when it names the default directory
    out = tmp_path / "trig"
    run_cli("trigger", "--pattern", "111", "--config", fast_config, "--out", str(out))
    monkeypatch.chdir(tmp_path)
    assert run_cli("report", str(out), "--out", "bolomux_report") == 0
    assert (tmp_path / "bolomux_report" / "report_magnitude.csv").exists()
    assert not (out / "report").exists()
    capsys.readouterr()


@pytest.mark.parametrize("command", ["analyze", "report"])
@pytest.mark.parametrize("doc", [{"command": "x"}, [1, 2]])
def test_malformed_manifest_is_one_error_line(capsys, tmp_path, command, doc):
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    assert run_cli(command, str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: manifest ") and err.count("\n") == 1


def test_report_refuses_corrupt_input(capsys, tmp_path, fast_config):
    out = tmp_path / "trig"
    run_cli("trigger", "--pattern", "100", "--config", fast_config,
            "--out", str(out))
    capsys.readouterr()
    (out / "metrics.json").unlink()
    assert run_cli("report", str(out)) == 2
    assert "integrity" in capsys.readouterr().err


def test_report_refuses_a_checksummed_trace_with_a_bad_header(capsys, tmp_path, fast_config):
    # the manifest vouches for the file, but a zero sample rate is still a
    # malformed trace: a runtime failure (2), not a bad argument (1)
    out = tmp_path / "trig"
    assert run_cli("trigger", "--pattern", "100", "--config", fast_config,
                   "--out", str(out)) == 0
    target = out / "trace_ch0.csv"
    text = target.read_text()
    rate = text.split("\n", 1)[0]
    target.write_text(text.replace(rate, "# sample_rate_hz=0.0", 1))
    manifest = read_manifest(out)
    manifest["files"]["trace_ch0.csv"] = hashlib.sha256(target.read_bytes()).hexdigest()
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert verify_manifest(out) == []
    capsys.readouterr()
    assert run_cli("report", str(out)) == 2
    assert "line 1: bad sample_rate_hz '0.0'" in capsys.readouterr().err


@pytest.mark.parametrize("command, name", [
    ("analyze", "snr_table.json"), ("analyze", "metrics.json"),
    ("report", "characterize_fits.json"), ("report", "filterscan_peaks.json"),
])
@pytest.mark.parametrize("text", ["not json", '{"rows": []}'], ids=["invalid", "missing-key"])
def test_readers_refuse_a_checksummed_malformed_json_file(capsys, tmp_path, command, name, text):
    # the manifest vouches for the bytes, but a file its reader cannot parse
    # or index is malformed: a runtime failure (2) on one error line naming it
    (tmp_path / name).write_text(text)
    write_manifest(tmp_path, command, _default_config_dict(), "0.1.0", [name])
    assert verify_manifest(tmp_path) == []
    assert run_cli(command, str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name} is malformed: ") and err.count("\n") == 1
    assert not (tmp_path / "report").exists()


# ------------------------------------------------------------- presets


def test_preset_flag_accepted(capsys, tmp_path, fast_config):
    # the manifest command names the preset only when the flag is given
    commands = {}
    for preset in (None, "desk", "paper"):
        out = tmp_path / f"pre_{preset}"
        flags = ("--preset", preset) if preset else ()
        assert run_cli("trigger", "--pattern", "000", "--config", fast_config,
                       "--out", str(out), *flags) == 0
        commands[preset] = read_manifest(out)["command"]
    capsys.readouterr()
    assert commands == {None: "trigger --pattern 000",
                        "desk": "trigger --pattern 000 --preset desk",
                        "paper": "trigger --pattern 000 --preset paper"}


def test_preset_manifests_hash_the_effective_config(capsys, tmp_path):
    # seed 15 is the shipped one, so the desk run's document is the shipped
    # default document; each preset's edits show in its own hash
    hashes = {}
    for preset in ("desk", "paper", "fig3"):
        out = tmp_path / preset
        assert run_cli("trigger", "--pattern", "000", "--seed", "15", "--preset", preset,
                       "--out", str(out)) == 0
        hashes[preset] = read_manifest(out)["config_sha256"]
        assert hashes[preset] == config_hash(load_config(None, preset=preset, seed=15).doc)
    capsys.readouterr()
    assert len(set(hashes.values())) == 3
    assert hashes["desk"] == config_hash(_default_config_dict())


def test_unknown_preset_rejected(capsys, fast_config, tmp_path):
    assert run_cli("trigger", "--pattern", "000", "--config", fast_config,
                   "--preset", "lab", "--out", str(tmp_path / "x")) == 1
    capsys.readouterr()


# --------------------------------------------------------- one process


def fresh_process(argv):
    """(exit code, stdout, stderr) of argv run by bolomux.cli.main in a new process."""
    code = "import sys; from bolomux.cli import main; sys.exit(main(sys.argv[1:]))"
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    return done.returncode, done.stdout, done.stderr


def test_one_process_writes_what_fresh_processes_write(capsys, tmp_path):
    # the benchmark's steady-dense sequence, a usage error among its commands,
    # run in one process builds the parser once, and every command prints and
    # writes what it does alone in a new process
    config = tmp_path / "dense.json"
    config.write_text(json.dumps({"sweeps": {
        "characterize": {"powers_dbm": [-160.0 + 3.75 * k for k in range(9)],
                         "span_linewidths": 8.0, "n_points": 801},
        "filterscan": {"f_min_hz": 4.0e9, "f_max_hz": 8.0e9, "n_points": 2001,
                       "heater_power_dbm": -145.0}}}))

    def sequence(root):
        def run(command):
            return [command, "--config", str(config), "--seed", "7", "--threads", "1",
                    "--out", str(root / command)]

        def read(command):
            return ["analyze", str(root / command), "--config", str(config)]
        return [run("characterize"), run("filterscan"), ["characterize", "--bogus"],
                read("characterize"), read("filterscan")]

    cli.build_parser.cache_clear()
    in_process = []
    for argv in sequence(tmp_path / "one"):
        rc = main(argv)
        captured = capsys.readouterr()
        in_process.append((rc, captured.out, captured.err))
    assert cli.build_parser.cache_info()[:2] == (4, 1)  # hits, misses
    assert in_process[2][0] == 1
    assert in_process[2][2].startswith("error: unrecognized arguments: --bogus\nusage: ")
    assert in_process == [fresh_process(argv) for argv in sequence(tmp_path / "fresh")]
    for command in ("characterize", "filterscan"):
        one, fresh = tmp_path / "one" / command, tmp_path / "fresh" / command
        names = sorted(path.name for path in one.iterdir())
        assert names == sorted(path.name for path in fresh.iterdir())
        for name in names:
            if name != "manifest.json":
                assert (one / name).read_bytes() == (fresh / name).read_bytes(), name
        manifests = [read_manifest(d) for d in (one, fresh)]
        for manifest in manifests:
            del manifest["created_utc"]
        assert manifests[0] == manifests[1]
