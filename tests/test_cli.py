"""Command-line interface: subcommands, exit codes, output files, and the
analyze/report pipeline."""

import json
import os

import pytest

from bolomux.cli import main
from bolomux.config import ConfigError, load_config_dict
from bolomux.traceio import read_manifest, read_trace, verify_manifest


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


def test_threads_below_one_rejected_before_running(capsys, tmp_path):
    out = tmp_path / "ps"
    assert run_cli("powersweep", "--threads", "0", "--out", str(out)) == 1
    assert "--threads" in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_file(capsys, tmp_path):
    assert run_cli("capacity", "--config", str(tmp_path / "nope.json")) == 1
    assert "error" in capsys.readouterr().err


def test_invalid_config_content(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"run": {"n_avg": -3}}))
    assert run_cli("capacity", "--config", str(bad)) == 1
    assert "/run/n_avg" in capsys.readouterr().err


# ----------------------------------------------------------------- trigger


def test_trigger_writes_traces_and_manifest(capsys, tmp_path, fast_config):
    out = tmp_path / "out"
    assert run_cli("trigger", "--pattern", "001", "--config", fast_config,
                   "--out", str(out)) == 0
    for ch in range(3):
        trace = read_trace(out / f"trace_ch{ch}.csv")
        assert len(trace) == 1000
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["pattern"] == "001"
    assert len(metrics["metrics"]) == 3
    assert all("snr" in m for m in metrics["metrics"])
    assert verify_manifest(out) == []
    manifest = read_manifest(out)
    assert manifest.command == "trigger --pattern 001"
    assert manifest.seed == 15
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
    assert read_manifest(a).seed == 7
    assert read_manifest(c).seed == 8


# ----------------------------------------------------------------- sweeps


def test_characterize_writes_fits(capsys, tmp_path):
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
    assert verify_manifest(out) == []
    capsys.readouterr()


# ------------------------------------------------------------- calibrate


def test_calibrate_writes_tuned_config(capsys, tmp_path, fast_config):
    out = tmp_path / "cal"
    assert run_cli("calibrate", "--config", fast_config, "--out", str(out)) == 0
    tuned = load_config_dict(out / "calibrated_config.json")
    report = json.loads((out / "calibration_report.json").read_text())
    assert len(report["channels"]) == 3
    for entry in report["channels"]:
        assert entry["dfdt_hz_per_k"] == pytest.approx(
            tuned["chip"]["bolometers"][entry["channel"]]["dfdt_hz_per_k"])
    assert tuned["chip"]["noise_sigma_v"] == pytest.approx(
        report["noise"]["sigma_v"])
    assert verify_manifest(out) == []
    capsys.readouterr()


# --------------------------------------------------------- analyze/report


def test_analyze_summarizes_multiplex(capsys, tmp_path, fast_config):
    out = tmp_path / "mux"
    assert run_cli("multiplex", "--config", fast_config, "--out", str(out)) == 0
    capsys.readouterr()
    assert run_cli("analyze", str(out)) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["command"] == "multiplex"
    assert summary["files_verified"] == len(read_manifest(out).files)
    assert summary["n_runs"] == 8
    assert set(summary["snr_by_pattern"]) == {format(v, "03b") for v in range(8)}
    assert "min_matched_snr" in summary


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


def test_analyze_missing_directory(capsys, tmp_path):
    assert run_cli("analyze", str(tmp_path / "nowhere")) == 2
    capsys.readouterr()


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


def test_report_refuses_corrupt_input(capsys, tmp_path, fast_config):
    out = tmp_path / "trig"
    run_cli("trigger", "--pattern", "100", "--config", fast_config,
            "--out", str(out))
    capsys.readouterr()
    (out / "metrics.json").unlink()
    assert run_cli("report", str(out)) == 2
    assert "integrity" in capsys.readouterr().err


# ------------------------------------------------------------- presets


def test_preset_flag_accepted(capsys, tmp_path, fast_config):
    out = tmp_path / "pre"
    assert run_cli("trigger", "--pattern", "000", "--config", fast_config,
                   "--preset", "desk", "--out", str(out)) == 0
    capsys.readouterr()


def test_unknown_preset_rejected(capsys, fast_config, tmp_path):
    assert run_cli("trigger", "--pattern", "000", "--config", fast_config,
                   "--preset", "lab", "--out", str(tmp_path / "x")) == 1
    capsys.readouterr()
