"""Every file bolomux writes: trace CSVs, tables, JSON and run manifests.

One writer serves all of them.  A cell is `repr(float(v))` for a float
(numpy floats included) and `str(v)` for anything else, so floats carry
shortest round-trip precision; files are utf-8 with `\n` newlines and a
trailing newline; JSON is `indent=2, sort_keys=True`.

Trace format: `#`-prefixed header lines (`# key=value`, with `kind=iq`
and a `carrier_hz`), then one complex baseband sample per `index,re,im`
row.  Write -> read -> write is byte-identical.  The reader converts a
body in the writer's form with one `np.loadtxt` call and parses any other
body line by line.

Each run directory gets a `manifest.json` naming the tool version, the
seed, the sha256 of the canonical config and of every output file.  The
manifest is the only place a timestamp appears.
"""
import hashlib
import io
import json
import os
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .config import config_hash
from .dsp import IQTrace

__all__ = ["RunManifest", "TraceFormatError", "read_manifest", "read_trace", "verify_manifest",
           "write_manifest", "write_trace"]

MANIFEST_NAME = "manifest.json"


class TraceFormatError(ValueError):
    """Malformed trace file; message carries the 1-based line number."""


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
    """`repr` of each float64, formatting each distinct bit pattern once.

    Sorting brings equal values together; a group is a run of equal bits,
    so -0.0, 0.0 and every NaN payload keep their own text.  A column that
    is mostly distinct is formatted directly.
    """
    order = np.argsort(values)
    bits = values.view(np.int64)[order]
    starts = np.empty(bits.size, dtype=bool)
    starts[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=starts[1:])
    firsts = order[starts]
    if 2 * firsts.size > values.size:
        return list(map(repr, values.tolist()))
    texts = list(map(repr, values[firsts].tolist()))
    group = np.empty(values.size, dtype=np.intp)
    group[order] = np.cumsum(starts) - 1
    return list(map(texts.__getitem__, group.tolist()))


def _write_lines(path, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def _write_csv(path, head, columns) -> None:
    """Write the `head` lines, then one comma-joined row per index of the equal-length columns."""
    _write_lines(path, [*head, *map(",".join, zip(*map(_cells, columns)))])


def _write_table(path, header, columns) -> None:
    _write_csv(path, [",".join(header)], columns)


def _write_json(path, obj) -> None:
    _write_lines(path, [json.dumps(obj, indent=2, sort_keys=True)])


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


def _parse_float(text: str, lineno: int, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise TraceFormatError(f"line {lineno}: bad {what} {text!r}") from None


# one body row as the writer puts it: an integer index, then re and im
_ROW = np.dtype([("index", np.int64), ("iq", np.float64, (2,))])


def _bulk_iq(body: str):
    """The (n, 2) re/im array of a body in the writer's own form, else None.

    One `np.loadtxt` call converts the body.  Every cell it accepts, `int`
    and `float` accept with the same value, so a body it converts with the
    index column 0..n-1 reads as the per-line pass would read it.
    """
    if not body:
        return None
    try:
        rows = np.loadtxt(io.StringIO(body), dtype=_ROW, delimiter=",", comments=None, ndmin=1)
    except ValueError:
        return None
    if not np.array_equal(rows["index"], np.arange(rows.size)):
        return None
    return np.ascontiguousarray(rows["iq"])


def _scan_lines(lines):
    """Headers and (line number, cells) rows of a trace's lines, in file order."""
    headers = {}
    rows = []
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        if line.startswith("#"):
            if rows:
                raise TraceFormatError(f"line {lineno}: header after data rows")
            body = line[1:].strip()
            key, sep, value = body.partition("=")
            if not sep or not key.strip():
                raise TraceFormatError(f"line {lineno}: malformed header {line!r}")
            headers[key.strip()] = value.strip()
            continue
        parts = line.split(",")
        idx_text = parts[0]
        try:
            idx = int(idx_text)
        except ValueError:
            raise TraceFormatError(f"line {lineno}: bad sample index {idx_text!r}") from None
        if idx != len(rows):
            raise TraceFormatError(f"line {lineno}: sample index {idx} out of order")
        rows.append((lineno, parts[1:]))
    return headers, rows


def read_trace(path) -> IQTrace:
    """Read a trace CSV back into an IQTrace.

    The file is read once.  A body in the writer's own form is converted in
    one call; any other body takes the per-line pass, which accepts every
    further form `int` and `float` read and names the first bad line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    head_end = 0  # past the leading header and blank lines
    while text.startswith(("#", "\n"), head_end):
        head_end = text.find("\n", head_end) + 1 or len(text)
    values = _bulk_iq(text[head_end:])
    headers, rows = _scan_lines(text[:head_end].split("\n") if values is not None
                                else text.split("\n"))

    for key in ("sample_rate_hz", "t0_s", "kind"):
        if key not in headers:
            raise TraceFormatError(f"line 1: missing header '# {key}='")
    kind = headers["kind"]
    if kind != "iq":
        raise TraceFormatError(f"line 1: unknown kind {kind!r}")
    sample_rate = _parse_float(headers["sample_rate_hz"], 1, "sample_rate_hz")
    t0 = _parse_float(headers["t0_s"], 1, "t0_s")
    if values is None and not rows:
        raise TraceFormatError("line 1: trace has no samples")

    if "carrier_hz" not in headers:
        raise TraceFormatError("line 1: iq trace missing header '# carrier_hz='")
    carrier = _parse_float(headers["carrier_hz"], 1, "carrier_hz")
    if values is None:
        try:
            values = np.array([cells for _, cells in rows], dtype=float)
        except ValueError:
            values = None
        if values is None or values.shape != (len(rows), 2):
            for lineno, cells in rows:  # name the first bad row
                if len(cells) != 2:
                    raise TraceFormatError(f"line {lineno}: expected index,re,im row")
                _parse_float(cells[0], lineno, "re")
                _parse_float(cells[1], lineno, "im")
    # a view of the (re, im) pairs keeps -0.0 and infinite parts as written
    return IQTrace(carrier_hz=carrier, sample_rate_hz=sample_rate, t0_s=t0,
                   samples=values.view(complex).ravel())


def _sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass(frozen=True)
class RunManifest:
    """Integrity record for one run directory."""

    tool_version: str
    command: str
    seed: int
    config_sha256: str
    created_utc: str
    files: tuple[tuple[str, str], ...]  # (relative path, sha256)

    def to_dict(self) -> dict:
        return {
            "tool_version": self.tool_version,
            "command": self.command,
            "seed": self.seed,
            "config_sha256": self.config_sha256,
            "created_utc": self.created_utc,
            "files": {name: digest for name, digest in self.files},
        }

    @staticmethod
    def from_dict(doc: dict) -> "RunManifest":
        return RunManifest(
            tool_version=doc["tool_version"],
            command=doc["command"],
            seed=doc["seed"],
            config_sha256=doc["config_sha256"],
            created_utc=doc["created_utc"],
            files=tuple(sorted(doc["files"].items())),
        )


def write_manifest(out_dir, command: str, seed: int, config_doc: dict,
                   tool_version: str) -> RunManifest:
    """Hash every file already in out_dir and drop manifest.json beside them."""
    names = sorted(
        name for name in os.listdir(out_dir)
        if name != MANIFEST_NAME and os.path.isfile(os.path.join(out_dir, name)))
    files = tuple((name, _sha256_file(os.path.join(out_dir, name))) for name in names)
    manifest = RunManifest(
        tool_version=tool_version,
        command=command,
        seed=seed,
        config_sha256=config_hash(config_doc),
        created_utc=datetime.now(timezone.utc).isoformat(),
        files=files,
    )
    _write_json(os.path.join(out_dir, MANIFEST_NAME), manifest.to_dict())
    return manifest


def read_manifest(out_dir) -> RunManifest:
    path = os.path.join(out_dir, MANIFEST_NAME)
    try:
        doc = _read_json(path)
    except OSError as exc:
        raise TraceFormatError(f"missing manifest: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"manifest {path} is not valid JSON: {exc}") from exc
    return RunManifest.from_dict(doc)


def verify_manifest(out_dir) -> list[str]:
    """Recompute checksums against manifest.json; return a list of problems."""
    manifest = read_manifest(out_dir)
    problems = []
    for name, expected in manifest.files:
        path = os.path.join(out_dir, name)
        if not os.path.isfile(path):
            problems.append(f"missing file {name}")
            continue
        actual = _sha256_file(path)
        if actual != expected:
            problems.append(f"checksum mismatch for {name}")
    return problems
