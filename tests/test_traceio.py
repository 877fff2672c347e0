"""Trace CSV round trips, format diagnostics with line numbers, and the
checksum manifest."""

import json

import numpy as np
import pytest

from bolomux import traceio
from bolomux.cli import main
from bolomux.dsp import IQTrace
from bolomux.traceio import (
    MANIFEST_NAME,
    RunManifest,
    TraceFormatError,
    _cells,
    _sha256_file,
    _write_table,
    read_manifest,
    read_trace,
    verify_manifest,
    write_manifest,
    write_trace,
)


IQ_HEADER = "# sample_rate_hz=1e6\n# t0_s=0.0\n# kind=iq\n# carrier_hz=1e5\n"


def iq_trace():
    rng = np.random.default_rng(1)
    samples = rng.normal(size=32) + 1j * rng.normal(size=32)
    return IQTrace(156.7e6, 1e7, 1e-5, samples)


# ---------------------------------------------------------------- traces


def test_iq_trace_round_trip_exact(tmp_path):
    trace = iq_trace()
    path = tmp_path / "iq.csv"
    write_trace(trace, path)
    back = read_trace(path)
    assert isinstance(back, IQTrace)
    assert back.carrier_hz == trace.carrier_hz
    assert back.sample_rate_hz == trace.sample_rate_hz
    assert back.t0_s == trace.t0_s
    # repr round trip: values are restored bit for bit
    assert np.array_equal(back.samples, trace.samples)

    # signed zeros, infinities, nan and the extremes keep every bit in both
    # parts; set without arithmetic, since re + 1j*im loses a -0.0 or inf imag
    parts = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e308, -1e308, 0.1])
    samples = np.empty(parts.size, dtype=complex)
    samples.real, samples.imag = parts, np.roll(parts, 3)
    write_trace(IQTrace(1e5, 1e6, 0.0, samples), path)
    assert np.array_equal(read_trace(path).samples.view(np.uint64), samples.view(np.uint64))


def test_write_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace(iq_trace(), a)
    write_trace(iq_trace(), b)
    assert a.read_bytes() == b.read_bytes()


def test_trace_file_shape(tmp_path):
    path = tmp_path / "t.csv"
    write_trace(IQTrace(1e5, 1e6, 0.0, np.array([0.5 - 2.0j, -1.25 + 0.0j])), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# sample_rate_hz=1000000.0"
    assert lines[1] == "# t0_s=0.0"
    assert lines[2] == "# kind=iq"
    assert lines[3] == "# carrier_hz=100000.0"
    assert lines[4] == "0,0.5,-2.0"
    assert lines[5] == "1,-1.25,0.0"


def special_trace():
    # signed zeros, infinities, a nan and the extremes next to plain values
    parts = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, 1e308, 0.1, -2.5, 1e-9, 3.0, 7.25])
    samples = np.empty(parts.size, dtype=complex)
    samples.real, samples.imag = parts, np.roll(parts, 5)
    return IQTrace(1e5, 1e6, 0.0, samples)


@pytest.fixture()
def bulk_results(monkeypatch):
    """Record whether each read_trace call took the one-call body conversion."""
    results = []
    bulk = traceio._bulk_iq

    def spy(body):
        values = bulk(body)
        results.append(values is not None)
        return values

    monkeypatch.setattr(traceio, "_bulk_iq", spy)
    return results


def same_bits(a, b):
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_canonical_trace_takes_the_bulk_path(tmp_path, bulk_results):
    path = tmp_path / "t.csv"
    for trace in (iq_trace(), special_trace(), IQTrace(1e5, 1e6, 0.0, np.array([1.5 - 0.0j]))):
        write_trace(trace, path)
        assert same_bits(read_trace(path).samples, trace.samples)
    assert bulk_results == [True, True, True]


def edit_rows(text, edit):
    """Apply edit(index, row) to every body row of a trace file's text."""
    lines = text.split("\n")
    rows = [i for i, line in enumerate(lines) if line and not line.startswith("#")]
    for k, i in enumerate(rows):
        lines[i] = edit(k, lines[i])
    return "\n".join(lines)


NON_CANONICAL = {
    "blank line between rows": lambda t: edit_rows(t, lambda k, r: r + "\n" if k == 2 else r),
    "crlf line ends": lambda t: t.replace("\n", "\r\n"),
    "index written 01": lambda t: edit_rows(t, lambda k, r: "0" + r if k == 1 else r),
    "no trailing newline": lambda t: t.rstrip("\n"),
    "spaces around a cell": lambda t: edit_rows(
        t, lambda k, r: ",".join(f" {c}  " for c in r.split(","))),
    "no-break space around a cell": lambda t: edit_rows(
        t, lambda k, r: r.replace(",", ",\u00a0") if k == 3 else r),
    # forms np.loadtxt refuses and int() accepts: the per-line pass
    "underscore in an index": lambda t: edit_rows(t, lambda k, r: "1_0" + r[2:] if k == 10 else r),
    "full-width index digit": lambda t: edit_rows(t, lambda k, r: "\uff13" + r[1:] if k == 3 else r),
}
PER_LINE = ("underscore in an index", "full-width index digit")


@pytest.mark.parametrize("variant", sorted(NON_CANONICAL))
def test_non_canonical_trace_reads_the_same_bits(tmp_path, bulk_results, variant):
    trace = special_trace()
    path = tmp_path / "t.csv"
    write_trace(trace, path)
    text = NON_CANONICAL[variant](path.read_text(encoding="utf-8"))
    assert text != path.read_text(encoding="utf-8")
    path.write_bytes(text.encode("utf-8"))
    back = read_trace(path)
    assert (back.carrier_hz, back.sample_rate_hz, back.t0_s) == (1e5, 1e6, 0.0)
    assert same_bits(back.samples, trace.samples)
    assert bulk_results == [variant not in PER_LINE]


def test_multiplex_traces_round_trip_byte_for_byte(tmp_path, capsys, bulk_results):
    cfg = tmp_path / "fast.json"
    cfg.write_text(json.dumps({"run": {"n_avg": 2}}))
    out = tmp_path / "mux"
    assert main(["multiplex", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    paths = sorted(out.glob("pattern_*.csv"))
    assert len(paths) == 24
    for path in paths:
        copy = tmp_path / "copy.csv"
        write_trace(read_trace(path), copy)
        assert copy.read_bytes() == path.read_bytes()
    assert bulk_results == [True] * len(paths)


def test_read_rejects_missing_header(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("# sample_rate_hz=1e6\n# kind=iq\n# carrier_hz=1e5\n0,1.0,0.0\n")
    with pytest.raises(TraceFormatError, match="t0_s"):
        read_trace(path)


def test_read_rejects_bad_kind(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("# sample_rate_hz=1e6\n# t0_s=0.0\n# kind=polar\n0,1.0\n")
    with pytest.raises(TraceFormatError, match="polar"):
        read_trace(path)


def test_read_rejects_real_kind(tmp_path):
    # real-valued records are no longer read: `real` is an unknown kind
    path = tmp_path / "t.csv"
    path.write_text("# sample_rate_hz=1e6\n# t0_s=0.0\n# kind=real\n0,1.0\n")
    with pytest.raises(TraceFormatError, match="unknown kind 'real'"):
        read_trace(path)


def test_read_rejects_out_of_order_rows(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(IQ_HEADER + "0,1.0,0.0\n2,2.0,0.0\n")
    with pytest.raises(TraceFormatError, match="line 6"):
        read_trace(path)


def test_read_rejects_bad_value_with_line_number(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(IQ_HEADER + "0,1.0,0.0\n1,oops,0.0\n")
    with pytest.raises(TraceFormatError, match="line 6"):
        read_trace(path)
    # the first bad cell names its line and column, not a later bad row
    path.write_text(IQ_HEADER + "0,1.0,0.0\n1,2.0,0.0\n2,3.0,oops\n3,bad,0.0\n")
    with pytest.raises(TraceFormatError, match="line 7: bad im 'oops'"):
        read_trace(path)


def test_read_rejects_wrong_arity_rows(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(IQ_HEADER + "0,1.0\n")
    with pytest.raises(TraceFormatError, match="line 5"):
        read_trace(path)


def test_read_rejects_iq_without_carrier(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("# sample_rate_hz=1e6\n# t0_s=0.0\n# kind=iq\n0,1.0,2.0\n")
    with pytest.raises(TraceFormatError, match="carrier_hz"):
        read_trace(path)


def test_read_rejects_empty_body(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(IQ_HEADER)
    with pytest.raises(TraceFormatError, match="no samples"):
        read_trace(path)


def test_read_rejects_header_after_data(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(IQ_HEADER + "0,1.0,0.0\n# late=1\n")
    with pytest.raises(TraceFormatError, match="header after data"):
        read_trace(path)


def test_table_cells_share_one_float_rule(tmp_path):
    # floats, numpy's included, print as repr(float(v)); anything else as str(v)
    path = tmp_path / "table.csv"
    _write_table(path, ("a", "b", "c", "d", "e", "f"), (
        np.array([-0.0, np.nan, np.inf, 5e-324, 0.1, 1e16]),
        [-np.inf, 1e308, 2.5, 0.0, -1.0, 1e-05],
        [0, -1, 2, 30, 400, 5000],
        np.arange(6, dtype=np.int64) - 3,
        ["ch0", "x", "", "011", "leakage", "None"],
        [np.float64(-0.0), np.int64(-7), np.float64(1e16), np.int64(2**40), True,
         np.float32(0.1)],
    ))
    assert path.read_bytes() == (
        b"a,b,c,d,e,f\n"
        b"-0.0,-inf,0,-3,ch0,-0.0\n"
        b"nan,1e+308,-1,-2,x,-7\n"
        b"inf,2.5,2,-1,,1e+16\n"
        b"5e-324,0.0,30,0,011,1099511627776\n"
        b"0.1,-1.0,400,1,leakage,True\n"
        b"1e+16,1e-05,5000,2,None,0.10000000149011612\n")


def per_cell(column):
    # the rule every cell follows: repr(float(v)) for a float, str(v) otherwise
    return [repr(float(v)) if isinstance(v, (float, np.floating)) else str(v) for v in column]


SPECIAL = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e16, 0.1, -160.0])
NAN_PAYLOADS = np.array([0x7FF8000000000001, 0xFFF8000000000000, 0x7FF8000000000000],
                        dtype=np.uint64).view(np.float64)

ARRAY_COLUMNS = {
    "distinct float64": np.random.default_rng(3).normal(size=500) * 1e-9,
    "special values": SPECIAL,
    "np.repeat": np.repeat(SPECIAL, 7),
    "np.tile": np.tile(SPECIAL, 7),
    "both zero signs repeated": np.tile([0.0, -0.0, -0.0, 0.0, 2.0], 20),
    "nan payloads repeated": np.repeat(NAN_PAYLOADS, 4),
    "half repeated": np.concatenate([np.repeat([1.5, -0.0], 30), np.linspace(0, 1, 60)]),
    "strided float64": np.tile(np.arange(12.0).reshape(3, 4).T, (4, 1))[:, 1],
    "float32": np.repeat(np.array([0.1, -0.0, 3.4e38, np.nan, 1e-45], dtype=np.float32), 3),
    "float16": np.array([0.1, 65504.0, -0.0], dtype=np.float16),
    "empty float64": np.array([], dtype=np.float64),
    "int64": np.repeat(np.arange(-3, 3, dtype=np.int64), 2) * 2**40,
    "uint8": np.arange(250, 256, dtype=np.uint8),
    "bool": np.array([True, False, True, True]),
}


@pytest.mark.parametrize("name", sorted(ARRAY_COLUMNS))
def test_array_cells_follow_the_per_cell_rule(name):
    column = ARRAY_COLUMNS[name]
    cells = _cells(column)
    assert cells == per_cell(column)
    assert cells == per_cell(column.tolist())
    # the plain-list path gives the same text
    assert _cells(list(column)) == cells


# ---------------------------------------------------------------- manifest


def make_results(tmp_path):
    out = tmp_path / "results"
    out.mkdir()
    (out / "a.csv").write_text("0,1.0\n")
    (out / "b.json").write_text("{}\n")
    return out


def test_manifest_round_trip(tmp_path):
    out = make_results(tmp_path)
    written = write_manifest(out, "trigger", 15, {"seed": 15}, "0.1.0")
    back = read_manifest(out)
    assert back == written
    assert back.command == "trigger"
    assert back.seed == 15
    assert back.tool_version == "0.1.0"
    assert [name for name, _ in back.files] == ["a.csv", "b.json"]
    assert all(len(digest) == 64 for _, digest in back.files)


def test_manifest_intact_directory_verifies_clean(tmp_path):
    out = make_results(tmp_path)
    write_manifest(out, "trigger", 15, {"seed": 15}, "0.1.0")
    assert verify_manifest(out) == []


def test_manifest_detects_tampering(tmp_path):
    out = make_results(tmp_path)
    write_manifest(out, "trigger", 15, {"seed": 15}, "0.1.0")
    (out / "a.csv").write_text("0,2.0\n")
    problems = verify_manifest(out)
    assert len(problems) == 1
    assert "a.csv" in problems[0]
    assert "mismatch" in problems[0]


def test_manifest_detects_missing_file(tmp_path):
    out = make_results(tmp_path)
    write_manifest(out, "trigger", 15, {"seed": 15}, "0.1.0")
    (out / "b.json").unlink()
    problems = verify_manifest(out)
    assert any("b.json" in p and "missing" in p for p in problems)


def test_manifest_excludes_itself(tmp_path):
    out = make_results(tmp_path)
    write_manifest(out, "trigger", 15, {"seed": 15}, "0.1.0")
    manifest = read_manifest(out)
    assert MANIFEST_NAME not in [name for name, _ in manifest.files]
    # re-hashing with the manifest present must not change the file list
    write_manifest(out, "trigger", 15, {"seed": 15}, "0.1.0")
    assert [n for n, _ in read_manifest(out).files] == ["a.csv", "b.json"]


def test_manifest_dict_round_trip():
    manifest = RunManifest(
        tool_version="0.1.0",
        command="multiplex",
        seed=7,
        config_sha256="ab" * 32,
        created_utc="2026-01-01T00:00:00+00:00",
        files=(("x.csv", "cd" * 32),),
    )
    assert RunManifest.from_dict(manifest.to_dict()) == manifest


def test_sha256_file_matches_known_digest(tmp_path):
    path = tmp_path / "f.txt"
    path.write_bytes(b"abc")
    assert _sha256_file(path) == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")
