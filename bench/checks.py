"""Output checks, digests and summaries for one benchmark repetition.

An operation is one CLI command plus the check of what it wrote; a nonzero
exit or a failed check marks the operation failed.  Every bound below
holds for any seed, not just the shipped one.
"""
import hashlib
import json
import math
import os

from workloads import CHAR_DIR, FSCAN_DIR, MUX_DIR, PSWEEP_DIR

# mux-desk noise bounds, on the SNR of every channel of every pattern.
# Across seeds 0-95 of the shipped config, heated channels read mean 10.9,
# sd 2.0 (the lowest per seed 6.5-9.8) and unheated ones mean 0.03, sd 0.53
# (the largest |SNR| per seed 0.53-1.97).  A heated SNR below 4 needs the
# baseline std to come out 2.5x its true value, and an unheated |SNR| above
# 4 a 7.5-sigma excursion: both far rarer than once in the benchmark's life,
# so a failure means the program changed, not that the seed was unlucky.
HEATED_SNR_FLOOR = 4.0
UNHEATED_SNR_BOUND = 4.0
MUX_PATTERNS = [format(v, "03b") for v in range(8)]
MUX_SAMPLES = 1000          # 100 us record at the 10 MHz output rate

# powersweep-desk reference, recorded from the shipped config (noiseless,
# so the same for every seed).  Tightening the solver tolerance from
# tol_k = 1e-9 K to 1e-12 K moves every 1 dB point by at most 6e-5 dB;
# loosening it to 1e-7 K moves them by up to 8e-3 dB.  1e-3 dB admits a
# more exact solver and rejects any change of the modelled physics.
P1DB_TOLERANCE_DB = 1e-3
P1DB_REFERENCE_DBM = [
    [-121.00648370891864, -142.52095180237202, -123.1689100501485],
    [-143.70649836621325, -131.61711604062145, -131.60603380648132],
    [-122.58658752043546, -118.00057136549887, -144.8443689911021],
]
WORST_DB_REFERENCE = -12.0893823255918
BEST_DB_REFERENCE = -26.84379762560323

# f_r of a fitted dip: the coverage factor on the fit's stated error
ERROR_COVERAGE = 3.0


class CheckFailed(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _data_rows(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [line.rstrip("\n").split(",") for line in fh][1:]


def _check_analyze(out_dir, stdout, doc):
    summary = json.loads(stdout)
    files = [n for n in os.listdir(out_dir)
             if n != "manifest.json" and os.path.isfile(os.path.join(out_dir, n))]
    _require(summary["files_verified"] == len(files),
             f"analyze verified {summary['files_verified']} of {len(files)} files")


def _check_multiplex(out_dir, stdout, doc):
    runs = _load(os.path.join(out_dir, "metrics.json"))["runs"]
    _require(sorted(r["pattern"] for r in runs) == MUX_PATTERNS,
             "multiplex did not write the 8 patterns")
    for label in MUX_PATTERNS:
        for ch in range(3):
            name = f"pattern_{label}_ch{ch}.csv"
            _require(os.path.isfile(os.path.join(out_dir, name)), f"missing {name}")
    for run in runs:
        for ch, metric in enumerate(run["metrics"]):
            snr = metric["snr"]
            if run["pattern"][ch] == "1":
                _require(snr >= HEATED_SNR_FLOOR,
                         f"pattern {run['pattern']} ch{ch}: heated snr {snr:.3f} "
                         f"< {HEATED_SNR_FLOOR}")
            else:
                _require(abs(snr) <= UNHEATED_SNR_BOUND,
                         f"pattern {run['pattern']} ch{ch}: unheated |snr| {abs(snr):.3f} "
                         f"> {UNHEATED_SNR_BOUND}")
    records = _load(os.path.join(out_dir, "snr_table.json"))["records"]
    kinds = sorted(r["kind"] for r in records)
    _require(kinds == ["leakage"] * 12 + ["matched"] * 3,
             "snr table needs 3 matched and 12 leakage records")


def _check_report(out_dir, stdout, doc):
    rows = _data_rows(os.path.join(out_dir, "report", "report_magnitude.csv"))
    _require(len(rows) == MUX_SAMPLES, f"report has {len(rows)} rows, not {MUX_SAMPLES}")
    _require(all(len(r) == 25 for r in rows), "report rows need time plus 24 traces")
    with open(os.path.join(out_dir, "snr_table.csv"), "rb") as a, \
            open(os.path.join(out_dir, "report", "report_snr.csv"), "rb") as b:
        _require(a.read() == b.read(), "report_snr.csv differs from snr_table.csv")


def _check_powersweep(out_dir, stdout, doc):
    xtalk = _load(os.path.join(out_dir, "crosstalk.json"))
    got = [[float(v) for v in row[1:]]
           for row in _data_rows(os.path.join(out_dir, "p1db_matrix.csv"))]
    for name, matrix in (("p1db_matrix.csv", got), ("crosstalk.json", xtalk["p_1db_dbm"])):
        for i, row in enumerate(P1DB_REFERENCE_DBM):
            for j, ref in enumerate(row):
                _require(abs(matrix[i][j] - ref) <= P1DB_TOLERANCE_DB,
                         f"{name} p1db[{i}][{j}] {matrix[i][j]!r} != {ref!r}")
    for key, ref in (("worst_db", WORST_DB_REFERENCE), ("best_db", BEST_DB_REFERENCE)):
        _require(abs(xtalk[key] - ref) <= P1DB_TOLERANCE_DB,
                 f"crosstalk {key} {xtalk[key]!r} != {ref!r}")


def _check_characterize(out_dir, stdout, doc):
    fits = _load(os.path.join(out_dir, "characterize_fits.json"))
    powers = doc["sweeps"]["characterize"]["powers_dbm"]
    _require(fits["powers_dbm"] == powers, "characterize swept other powers")
    chip = doc["chip"]
    p_dev_w = 1e-3 * 10.0 ** ((powers[0] - chip.get("line_attenuation_db", 0.0)) / 10.0)
    for entry in fits["channels"]:
        par = chip["bolometers"][entry["channel"]]
        head = entry["fits"][0]
        _require(head is not None, f"channel {entry['channel']}: lowest-power fit failed")
        # probe heating only pulls the dip down, by at most the shift the
        # largest absorbed fraction 4 ke ki / (ke + ki)^2 (on resonance)
        # can cause at this probe power
        ke, ki = par["kappa_ext_hz"], par["kappa_int_hz"]
        pull = (par["dfdt_hz_per_k"] * p_dev_w * 4.0 * ke * ki / (ke + ki) ** 2
                / par["g_th_w_per_k"])
        err = ERROR_COVERAGE * head["f_r_err_hz"]
        f0 = par["f_r0_hz"]
        _require(f0 - pull - err <= head["f_r_hz"] <= f0 + err,
                 f"channel {entry['channel']}: f_r {head['f_r_hz']!r} outside "
                 f"[{f0 - pull - err!r}, {f0 + err!r}]")
        _require(abs(head["fwhm_hz"] / (ke + ki) - 1.0) <= 0.05,
                 f"channel {entry['channel']}: linewidth {head['fwhm_hz']!r} off by > 5%")


def _check_filterscan(out_dir, stdout, doc):
    sw = doc["sweeps"]["filterscan"]
    pitch = (sw["f_max_hz"] - sw["f_min_hz"]) / (sw["n_points"] - 1)
    chip = doc["chip"]
    peaks = _load(os.path.join(out_dir, "filterscan_peaks.json"))["peaks"]
    _require(len(peaks) == len(chip["bolometers"]), "filterscan lost a channel")
    for entry in peaks:
        filt = chip["filters"][chip["channel_map"][entry["channel"]]]
        _require(abs(entry["f_peak_hz"] - filt["f_center_hz"]) <= pitch,
                 f"channel {entry['channel']}: peak {entry['f_peak_hz']!r} is more than "
                 f"one pitch from {filt['f_center_hz']!r}")
        _require(abs(entry["fwhm_hz"] / filt["fwhm_hz"] - 1.0) <= 0.20,
                 f"channel {entry['channel']}: width {entry['fwhm_hz']!r} off by > 20%")


def check(config_path, ops):
    """Mark each op ok or failed; returns [{"command", "ok", "why", "s"}]."""
    from bolomux import config
    doc = config.merge_config(_load(config_path))
    out = []
    for op in ops:
        argv = op["argv"]
        reads = argv[0] in ("analyze", "report")
        out_dir = argv[1] if reads else argv[argv.index("--out") + 1]
        why = ""
        try:
            _require(op["rc"] == 0, f"exit code {op['rc']}")
            _CHECKS[argv[0]](out_dir, op["stdout"], doc)
        except (CheckFailed, OSError, KeyError, IndexError, TypeError, ValueError) as exc:
            why = f"{type(exc).__name__}: {exc}"
        out.append({"command": argv[0], "ok": not why, "why": why, "s": op["s"]})
    return out


_CHECKS = {
    "multiplex": _check_multiplex,
    "report": _check_report,
    "powersweep": _check_powersweep,
    "characterize": _check_characterize,
    "filterscan": _check_filterscan,
    "analyze": _check_analyze,
}


def digest(rep_dir):
    """sha256 of every output file; manifest.json without its timestamp."""
    out = {}
    for root, _, names in os.walk(rep_dir):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                body = fh.read()
            if name == "manifest.json":
                doc = json.loads(body)
                doc.pop("created_utc", None)
                body = json.dumps(doc, sort_keys=True).encode()
            out[os.path.relpath(path, rep_dir)] = hashlib.sha256(body).hexdigest()
    return out


def info(workload, rep_dir):
    """Figures worth printing beside the metrics (not gated here)."""
    if workload == "mux-desk":
        records = _load(os.path.join(rep_dir, MUX_DIR, "snr_table.json"))["records"]
        return {
            "min_matched_snr": min(r["snr"] for r in records if r["kind"] == "matched"),
            "max_abs_leakage_snr": max(abs(r["snr"]) for r in records
                                       if r["kind"] == "leakage"),
        }
    if workload == "powersweep-desk":
        xtalk = _load(os.path.join(rep_dir, PSWEEP_DIR, "crosstalk.json"))
        return {"worst_db": xtalk["worst_db"], "best_db": xtalk["best_db"]}
    # a failed solve leaves its cell NaN: the magnitude column of a
    # characterize row, one response column of a filterscan row
    cells = 0
    for ch in range(3):
        rows = _data_rows(os.path.join(rep_dir, CHAR_DIR, f"characterize_ch{ch}.csv"))
        cells += sum(1 for row in rows if math.isnan(float(row[2])))
    rows = _data_rows(os.path.join(rep_dir, FSCAN_DIR, "filterscan.csv"))
    cells += sum(1 for row in rows for v in row[1:] if math.isnan(float(v)))
    return {"unconverged_cells": cells}
