"""Every file bolomux writes: trace CSVs, tables, JSON and run manifests.

One writer serves all of them.  A cell is `repr(float(v))` for a float
(numpy floats included) and `str(v)` for anything else, so floats carry
shortest round-trip precision; files are utf-8 with `\n` newlines and a
trailing newline; JSON is `indent=2, sort_keys=True`, with a non-finite
float written as `null`.

Trace format: `#`-prefixed header lines (`# key=value`, with `kind=iq`
and a `carrier_hz`), then one complex baseband sample per `index,re,im`
row.  Write -> read -> write is byte-identical.  The reader converts the
body in one `np.loadtxt` call and refuses a body that call refuses.

Each run directory gets a `manifest.json` naming the tool version, the
seed, the sha256 of the canonical config document the run used (after
preset and seed overrides) and of every output file.  The manifest is the
only place a timestamp appears.
"""
import hashlib
import io
import json
import math
import os
from datetime import datetime, timezone

import numpy as np

from .config import config_hash
from .dsp import IQTrace

__all__ = ["TraceFormatError", "read_manifest", "read_trace", "verify_manifest", "write_manifest",
           "write_trace"]

MANIFEST_NAME = "manifest.json"


class TraceFormatError(ValueError):
    """Malformed trace, manifest or other listed file (exit 2 from the CLI); a
    trace's message names the line its error is counted from."""


def _cells(column) -> list[str]:
    """The text of each cell; the rule is chosen once for an array column."""
    kind = column.dtype.kind if isinstance(column, np.ndarray) else None
    if kind == "f":
        return _float_cells(column.astype(float, copy=False))
    if kind in ("b", "i", "u"):
        return list(map(str, column.tolist()))
    values = column.tolist() if kind else column
    return [repr(float(v)) if isinstance(v, (float, np.floating)) else str(v) for v in values]


def _float_cells(values: np.ndarray) -> list[str]:
    """`repr` of each float64, formatting each distinct bit pattern once, so
    -0.0, 0.0 and every NaN payload keep their own text.  A column that is
    mostly distinct, as one sort of the bit patterns tells, is formatted
    directly.
    """
    keys = values.view(np.int64)
    ordered = np.sort(keys)
    fresh = ordered[1:] != ordered[:-1]
    if 2 * (1 + np.count_nonzero(fresh)) > values.size:
        return list(map(repr, values.tolist()))
    bits = ordered[np.concatenate(([True], fresh))]
    texts = list(map(repr, bits.view(np.float64).tolist()))
    return list(map(texts.__getitem__, np.searchsorted(bits, keys).tolist()))


def _write_lines(path, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def _write_csv(path, head, columns) -> None:
    """Write the `head` lines, then one comma-joined row per index of the equal-length columns."""
    _write_lines(path, [*head, *map(",".join, zip(*map(_cells, columns)))])


def _write_table(path, header, columns) -> None:
    _write_csv(path, [",".join(header)], columns)


def _finite_or_null(obj):
    """obj with every non-finite float replaced by None, which JSON writes as null."""
    if isinstance(obj, dict):
        return {key: _finite_or_null(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(value) for value in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _write_json(path, obj) -> None:
    """Write obj as JSON, a non-finite float as null: NaN and Infinity are not JSON."""
    _write_lines(path, [json.dumps(_finite_or_null(obj), indent=2, sort_keys=True,
                                   allow_nan=False)])


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_trace(trace: IQTrace, path) -> None:
    """Write an IQTrace as a headered CSV."""
    samples = trace.samples
    _write_csv(path, [
        f"# sample_rate_hz={trace.sample_rate_hz!r}",
        f"# t0_s={trace.t0_s!r}",
        "# kind=iq",
        f"# carrier_hz={trace.carrier_hz!r}",
    ], (np.arange(samples.size), samples.real, samples.imag))


def _header_float(headers: dict, key: str, positive: bool = False) -> float:
    """A finite float header, and > 0 if positive; anything else is a TraceFormatError."""
    try:
        value = float(headers[key])
    except ValueError:
        value = math.nan
    if not math.isfinite(value) or (positive and value <= 0.0):
        raise TraceFormatError(f"line 1: bad {key} {headers[key]!r}")
    return value


# one body row as the writer puts it: an integer index, then re and im
_ROW = np.dtype([("index", np.int64), ("iq", np.float64, (2,))])


def _bulk_iq(body: str, first_line: int) -> np.ndarray:
    """The (n, 2) re/im array of a trace body starting on line first_line.

    One `np.loadtxt` call converts the body's `index,re,im` rows, skipping
    blank lines, and the indices must run 0..n-1.  A body it refuses raises
    TraceFormatError carrying numpy's message, whose row counts the body's
    non-blank rows: from 0 for a bad cell, from 1 for a wrong cell count.
    """
    where = f"trace body from line {first_line}"
    if not body.strip():
        raise TraceFormatError(f"{where}: trace has no samples")
    try:
        rows = np.loadtxt(io.StringIO(body), dtype=_ROW, delimiter=",", comments=None, ndmin=1)
    except ValueError as exc:
        raise TraceFormatError(f"{where}: {exc}") from None
    bad = np.flatnonzero(rows["index"] != np.arange(rows.size))
    if bad.size:
        raise TraceFormatError(f"{where}: sample index {rows['index'][bad[0]]} out of order "
                               f"at row {bad[0]}")
    return np.ascontiguousarray(rows["iq"])


def _scan_headers(lines) -> dict:
    """The `# key=value` headers of a trace's header lines."""
    headers = {}
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        key, sep, value = line[1:].strip().partition("=")
        if not sep or not key.strip():
            raise TraceFormatError(f"line {lineno}: malformed header {line!r}")
        headers[key.strip()] = value.strip()
    return headers


def read_trace(path) -> IQTrace:
    """Read a trace CSV back into an IQTrace.

    The file is read once: its leading header and blank lines are scanned,
    and the body after them is converted in one call (_bulk_iq).
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    head_end = 0  # past the leading header and blank lines
    while text.startswith(("#", "\n"), head_end):
        head_end = text.find("\n", head_end) + 1 or len(text)
    headers = _scan_headers(text[:head_end].split("\n"))

    for key in ("sample_rate_hz", "t0_s", "kind"):
        if key not in headers:
            raise TraceFormatError(f"line 1: missing header '# {key}='")
    kind = headers["kind"]
    if kind != "iq":
        raise TraceFormatError(f"line 1: unknown kind {kind!r}")
    sample_rate = _header_float(headers, "sample_rate_hz", positive=True)
    t0 = _header_float(headers, "t0_s")
    if "carrier_hz" not in headers:
        raise TraceFormatError("line 1: iq trace missing header '# carrier_hz='")
    carrier = _header_float(headers, "carrier_hz")
    values = _bulk_iq(text[head_end:], text.count("\n", 0, head_end) + 1)
    # a view of the (re, im) pairs keeps -0.0 and infinite parts as written
    return IQTrace(carrier_hz=carrier, sample_rate_hz=sample_rate, t0_s=t0,
                   samples=values.view(complex).ravel())


def _sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


_MANIFEST_KEYS = ("tool_version", "command", "seed", "config_sha256", "created_utc", "files")


def write_manifest(out_dir, command: str, config_doc: dict, tool_version: str,
                   files) -> dict:
    """Hash the named files of out_dir, the ones the run wrote, and drop
    manifest.json beside them; any other file in out_dir goes unlisted.

    The seed is the document's; config_sha256 is the hash of the document as
    the run used it, after preset and seed overrides.
    """
    names = sorted(files)
    manifest = {
        "tool_version": tool_version,
        "command": command,
        "seed": config_doc["seed"],
        "config_sha256": config_hash(config_doc),
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "files": {name: _sha256_file(os.path.join(out_dir, name)) for name in names},
    }
    _write_json(os.path.join(out_dir, MANIFEST_NAME), manifest)
    return manifest


def read_manifest(out_dir) -> dict:
    """The manifest.json object of out_dir; TraceFormatError unless it holds
    every manifest key and maps plain file names to digest strings."""
    path = os.path.join(out_dir, MANIFEST_NAME)
    try:
        doc = _read_json(path)
    except OSError as exc:
        raise TraceFormatError(f"missing manifest: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"manifest {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise TraceFormatError(f"manifest {path} is not a JSON object")
    missing = next((key for key in _MANIFEST_KEYS if key not in doc), None)
    if missing is not None:
        raise TraceFormatError(f"manifest {path} lacks {missing!r}")
    files = doc["files"]
    if not (isinstance(files, dict) and all(isinstance(v, str) for v in files.values())):
        raise TraceFormatError(f"manifest {path}: 'files' must map file names to digests")
    bad = next((name for name in files
                if name in ("", ".", "..") or os.path.basename(name) != name), None)
    if bad is not None:
        raise TraceFormatError(f"manifest {path}: {bad!r} is not a file name in its directory")
    return doc


def verify_manifest(out_dir) -> list[str]:
    """Recompute checksums against manifest.json; return a list of problems."""
    problems = []
    for name, expected in sorted(read_manifest(out_dir)["files"].items()):
        path = os.path.join(out_dir, name)
        if not os.path.isfile(path):
            problems.append(f"missing file {name}")
            continue
        actual = _sha256_file(path)
        if actual != expected:
            problems.append(f"checksum mismatch for {name}")
    return problems
