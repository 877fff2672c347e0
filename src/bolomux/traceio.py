"""Trace CSV files and checksummed run manifests.

Trace format: `#`-prefixed header lines (`# key=value`, with `kind=iq`
and a `carrier_hz`), then one complex baseband sample per `index,re,im`
row.  Values are written with shortest round-trip precision, so write ->
read -> write is byte-identical.

Each run directory gets a `manifest.json` naming the tool version, the
seed, the sha256 of the canonical config and of every output file.  The
manifest is the only place a timestamp appears.
"""
import hashlib
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


def write_trace(trace: IQTrace, path) -> None:
    """Write an IQTrace as a headered CSV."""
    lines = [
        f"# sample_rate_hz={trace.sample_rate_hz!r}",
        f"# t0_s={trace.t0_s!r}",
        "# kind=iq",
        f"# carrier_hz={trace.carrier_hz!r}",
    ]
    for i, z in enumerate(trace.samples):
        lines.append(f"{i},{float(z.real)!r},{float(z.imag)!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def _parse_float(text: str, lineno: int, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise TraceFormatError(f"line {lineno}: bad {what} {text!r}") from None


def read_trace(path) -> IQTrace:
    """Read a trace CSV back into an IQTrace."""
    headers = {}
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
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

    for key in ("sample_rate_hz", "t0_s", "kind"):
        if key not in headers:
            raise TraceFormatError(f"line 1: missing header '# {key}='")
    kind = headers["kind"]
    if kind != "iq":
        raise TraceFormatError(f"line 1: unknown kind {kind!r}")
    sample_rate = _parse_float(headers["sample_rate_hz"], 1, "sample_rate_hz")
    t0 = _parse_float(headers["t0_s"], 1, "t0_s")
    if not rows:
        raise TraceFormatError("line 1: trace has no samples")

    if "carrier_hz" not in headers:
        raise TraceFormatError("line 1: iq trace missing header '# carrier_hz='")
    carrier = _parse_float(headers["carrier_hz"], 1, "carrier_hz")
    values = np.empty(len(rows), dtype=complex)
    for i, (lineno, cells) in enumerate(rows):
        if len(cells) != 2:
            raise TraceFormatError(f"line {lineno}: expected index,re,im row")
        re = _parse_float(cells[0], lineno, "re")
        im = _parse_float(cells[1], lineno, "im")
        values[i] = complex(re, im)
    return IQTrace(carrier_hz=carrier, sample_rate_hz=sample_rate, t0_s=t0, samples=values)


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
    with open(os.path.join(out_dir, MANIFEST_NAME), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def read_manifest(out_dir) -> RunManifest:
    path = os.path.join(out_dir, MANIFEST_NAME)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
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
