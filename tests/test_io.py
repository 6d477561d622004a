import json
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgmeasure.core import SampleStream
from sgmeasure.errors import ClippedOutput, CorruptFile, UnsupportedFormat
from sgmeasure.reports import _CSV_BLOCK_ROWS, AnalysisReport, read_report, write_report
from sgmeasure.wavio import read_audio, write_audio

from oracles import pcm24_samples, report_csv, report_json

FS = 44100


def sine_stream(freq=1000.0, n=4410, amp=0.5):
    t = np.arange(n) / FS
    return SampleStream(amp * np.sin(2 * np.pi * freq * t), FS)


def test_float_round_trip_is_lossless(tmp_path):
    path = tmp_path / "f32.wav"
    stream = SampleStream(sine_stream().samples.astype(np.float32), FS)
    write_audio(path, stream)
    back = read_audio(path)
    assert back.sample_rate == FS
    assert np.array_equal(back.samples, stream.samples)


def test_pcm16_round_trip_quantization_bound(tmp_path):
    path = tmp_path / "p16.wav"
    stream = sine_stream()
    write_audio(path, stream, encoding="pcm16")
    back = read_audio(path)
    assert np.max(np.abs(back.samples - stream.samples)) <= 2.0**-15


def test_pcm24_round_trip_quantization_bound(tmp_path):
    path = tmp_path / "p24.wav"
    stream = sine_stream()
    write_audio(path, stream, encoding="pcm24")
    back = read_audio(path)
    assert np.max(np.abs(back.samples - stream.samples)) <= 2.0**-23


@pytest.mark.parametrize("encoding", ["pcm16", "pcm24"])
def test_pcm_write_refuses_to_clip(tmp_path, encoding):
    path = tmp_path / "clip.wav"
    with pytest.raises(ClippedOutput, match=r"2 samples .*peak 2\.0"):
        write_audio(path, SampleStream([0.5, 1.7, -2.0], FS), encoding=encoding)
    assert not path.exists()
    # negative full scale is representable; one step past the top code is not
    bits = 16 if encoding == "pcm16" else 24
    write_audio(path, SampleStream([-1.0, 1.0 - 2.0 ** (1 - bits)], FS), encoding=encoding)
    assert read_audio(path).samples.tolist() == [-1.0, 1.0 - 2.0 ** (1 - bits)]
    with pytest.raises(ClippedOutput, match="1 samples"):
        write_audio(path, SampleStream([1.0], FS), encoding=encoding)


def test_float_write_keeps_samples_beyond_full_scale(tmp_path):
    path = tmp_path / "f32.wav"
    write_audio(path, SampleStream([0.5, 1.7, -2.0], FS))
    assert read_audio(path).samples.tolist() == np.float32([0.5, 1.7, -2.0]).tolist()


def test_float_write_refuses_samples_beyond_float32_range(tmp_path, capsys):
    from sgmeasure.cli import main

    path = tmp_path / "f32.wav"
    with pytest.raises(ClippedOutput, match=r"1 samples beyond float32 range \(peak 3\.5e\+38"):
        write_audio(path, SampleStream([0.5, 3.5e38, -2.0], FS))
    assert not path.exists()
    # flooring a float32 period near full range lifts samples beyond it
    write_audio(path, SampleStream(np.full(64, 3.0e38), FS))
    out, report = tmp_path / "o.wav", tmp_path / "r.json"
    assert main(["safeguard", "--in", str(path), "--period", "64",
                 "--out", str(out), "--report", str(report)]) == 4
    assert json.loads(capsys.readouterr().err)["error"] == "ClippedOutput"
    assert not out.exists()


def test_write_refuses_a_sample_rate_the_header_cannot_hold(tmp_path, capsys):
    from sgmeasure.cli import main

    path = tmp_path / "f32.wav"
    with pytest.raises(UnsupportedFormat, match="byte rate"):
        write_audio(path, SampleStream([0.5, -0.5], 2**32 - 1))
    assert not path.exists()
    fmt = struct.pack("<HHIIHH", 3, 1, 2**32 - 1, 0, 4, 32)
    path.write_bytes(riff((b"fmt ", fmt), (b"data", np.float32([0.5, -0.5]).tobytes())))
    assert main(["make-test", "--in", str(path), "--repeats", "2",
                 "--out", str(tmp_path / "o.wav")]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "UnsupportedFormat"


def write_stereo_pcm16(path, left, right, rate):
    frames = np.empty(left.size * 2, dtype="<i2")
    frames[0::2] = np.round(left * 2.0**15).astype("<i2")
    frames[1::2] = np.round(right * 2.0**15).astype("<i2")
    payload = frames.tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload), b"WAVE",
        b"fmt ", 16, 1, 2, rate, rate * 4, 4, 16,
        b"data", len(payload),
    )
    path.write_bytes(header + payload)


def test_stereo_averages_to_mono(tmp_path):
    path = tmp_path / "stereo.wav"
    a = sine_stream(amp=0.25).samples
    write_stereo_pcm16(path, a, -a, FS)
    back = read_audio(path)
    assert np.max(np.abs(back.samples)) == 0.0


def test_unsupported_format_rejected(tmp_path):
    path = tmp_path / "alaw.wav"
    payload = b"\x00" * 32
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload), b"WAVE",
        b"fmt ", 16, 6, 1, FS, FS, 1, 8,  # format 6 = a-law
        b"data", len(payload),
    )
    path.write_bytes(header + payload)
    with pytest.raises(UnsupportedFormat):
        read_audio(path)


def test_corrupt_file_rejected(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"not a riff file at all")
    with pytest.raises(CorruptFile):
        read_audio(path)


def test_truncated_data_chunk_rejected(tmp_path):
    path = tmp_path / "trunc.wav"
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + 1000, b"WAVE",
        b"fmt ", 16, 1, 1, FS, FS * 2, 2, 16,
        b"data", 1000,
    )
    path.write_bytes(header + b"\x00" * 10)
    with pytest.raises(CorruptFile):
        read_audio(path)


PCM_GUID = bytes.fromhex("0100000000001000800000aa00389b71")
FLOAT_GUID = bytes.fromhex("0300000000001000800000aa00389b71")


def as_extensible(plain: bytes, guid: bytes, cb_size: int = 22) -> bytes:
    """The same audio with its 16-byte fmt chunk rewritten as WAVE_FORMAT_EXTENSIBLE."""
    _, channels, rate, byte_rate, align, bits = struct.unpack_from("<HHIIHH", plain, 20)
    fmt = struct.pack("<HHIIHHHHI", 0xFFFE, channels, rate, byte_rate, align, bits,
                      cb_size, bits, 0x4) + guid
    data = plain[36:]  # "data" chunk header and payload
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt + data
    return b"RIFF" + struct.pack("<I", len(body)) + body


@pytest.mark.parametrize("encoding,guid", [
    ("pcm16", PCM_GUID), ("pcm24", PCM_GUID), ("float32", FLOAT_GUID),
])
def test_extensible_reads_like_plain_format(tmp_path, encoding, guid):
    plain, extensible = tmp_path / "plain.wav", tmp_path / "ext.wav"
    write_audio(plain, sine_stream(), encoding=encoding)
    extensible.write_bytes(as_extensible(plain.read_bytes(), guid))
    a, b = read_audio(plain), read_audio(extensible)
    assert b.sample_rate == a.sample_rate
    assert np.array_equal(b.samples, a.samples)


def test_extensible_unknown_subformat_is_unsupported(tmp_path):
    plain, extensible = tmp_path / "plain.wav", tmp_path / "ext.wav"
    write_audio(plain, sine_stream(), encoding="pcm16")
    alaw = bytes.fromhex("0600000000001000800000aa00389b71")
    other = bytes(range(16))  # not a KSDATAFORMAT_SUBTYPE GUID at all
    for guid in (alaw, other):
        extensible.write_bytes(as_extensible(plain.read_bytes(), guid))
        with pytest.raises(UnsupportedFormat):
            read_audio(extensible)


@pytest.mark.parametrize("cut", ["cb_size", "guid"])
def test_extensible_truncated_extension_is_corrupt(tmp_path, capsys, cut):
    from sgmeasure.cli import main

    plain, extensible = tmp_path / "plain.wav", tmp_path / "ext.wav"
    write_audio(plain, sine_stream(), encoding="float32")
    raw = as_extensible(plain.read_bytes(), FLOAT_GUID, cb_size=0 if cut == "cb_size" else 22)
    if cut == "guid":  # fmt chunk of 32 bytes: the GUID is cut in half
        raw = raw[:16] + struct.pack("<I", 32) + raw[20:52] + raw[60:]
    extensible.write_bytes(raw)
    with pytest.raises(CorruptFile):
        read_audio(extensible)
    rc = main([
        "safeguard", "--in", str(extensible), "--period", "1024",
        "--out", str(tmp_path / "o.wav"), "--report", str(tmp_path / "r.json"),
    ])
    assert rc == 3
    assert '"CorruptFile"' in capsys.readouterr().err


def riff(*chunks: tuple[bytes, bytes]) -> bytes:
    """A RIFF/WAVE file of (id, body) chunks, each odd-sized body followed by its pad byte."""
    body = b"WAVE" + b"".join(
        cid + struct.pack("<I", len(data)) + data + b"\0" * (len(data) & 1)
        for cid, data in chunks
    )
    return b"RIFF" + struct.pack("<I", len(body)) + body


def pcm24_fmt(channels: int) -> bytes:
    return struct.pack("<HHIIHH", 1, channels, FS, FS * 3 * channels, 3 * channels, 24)


# Layouts a PCM24 data chunk is read from; the file ends with the data chunk
# unless a chunk follows it.
PCM24_LAYOUTS = ("plain", "after odd chunk", "after LIST", "before LIST", "stereo", "extensible")
PCM24_EDGES = (-(2**23), -1, 0, 1, 2**23 - 1)


def pcm24_file(layout: str, payload: bytes) -> bytes:
    channels = 2 if layout == "stereo" else 1
    fmt = (b"fmt ", pcm24_fmt(channels))
    data = (b"data", payload)
    info = (b"LIST", b"INFOISFT" + struct.pack("<I", 6) + b"test\0\0")
    if layout == "after odd chunk":
        return riff(fmt, (b"junk", b"abc"), data)
    if layout == "after LIST":
        return riff(fmt, info, data)
    if layout == "before LIST":
        return riff(fmt, data, info)
    plain = riff(fmt, data)
    return as_extensible(plain, PCM_GUID) if layout == "extensible" else plain


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    codes=st.lists(st.integers(-(2**23), 2**23 - 1), max_size=40),
    layout=st.sampled_from(PCM24_LAYOUTS),
)
def test_pcm24_decode_equals_byte_assembly(tmp_path_factory, codes, layout):
    codes = np.array([*PCM24_EDGES, *codes], dtype="<i4")
    if layout == "stereo" and codes.size % 2:
        codes = codes[:-1]
    payload = codes.view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
    path = tmp_path_factory.mktemp("pcm24") / "p24.wav"
    path.write_bytes(pcm24_file(layout, payload))
    expected = pcm24_samples(payload)
    if layout == "stereo":
        expected = expected.reshape(-1, 2).mean(axis=1)
    else:
        assert np.array_equal(expected * 2.0**23, codes)
    assert np.array_equal(read_audio(path).samples, expected)


def test_pcm24_data_size_not_a_multiple_of_three_is_corrupt(tmp_path, capsys):
    from sgmeasure.cli import main

    path = tmp_path / "p24.wav"
    path.write_bytes(riff((b"fmt ", pcm24_fmt(1)), (b"data", bytes(3 * 2048 + 1))))
    with pytest.raises(CorruptFile, match="multiple of the frame size"):
        read_audio(path)
    rc = main([
        "safeguard", "--in", str(path), "--period", "1024",
        "--out", str(tmp_path / "o.wav"), "--report", str(tmp_path / "r.json"),
    ])
    assert rc == 3
    assert '"CorruptFile"' in capsys.readouterr().err


@pytest.mark.parametrize("fmt,data,message", [
    (struct.pack("<HHIIHH", 1, 1, FS, FS * 2, 2, 16), bytes(3), "multiple of the frame size"),
    (struct.pack("<HHIIHH", 3, 1, FS, FS * 4, 4, 32), bytes(129), "multiple of the frame size"),
    (struct.pack("<HHIIHH", 1, 2, FS, FS * 4, 4, 16), bytes(6), "multiple of the frame size"),
    (struct.pack("<HHIIHH", 3, 1, 0, 0, 4, 32), bytes(128), "sample rate of 0"),
], ids=["pcm16 3 bytes", "float32 129 bytes", "stereo pcm16 6 bytes", "rate 0"])
def test_data_size_or_sample_rate_the_fmt_chunk_rules_out_is_corrupt(
    tmp_path, capsys, fmt, data, message
):
    from sgmeasure.cli import main

    path = tmp_path / "bad.wav"
    path.write_bytes(riff((b"fmt ", fmt), (b"data", data)))
    with pytest.raises(CorruptFile, match=message):
        read_audio(path)
    assert main(["make-test", "--in", str(path), "--repeats", "2",
                 "--out", str(tmp_path / "o.wav")]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "CorruptFile"


def write_float32(path, samples):
    payload = np.asarray(samples, dtype="<f4").tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload), b"WAVE",
        b"fmt ", 16, 3, 1, FS, FS * 4, 4, 32,
        b"data", len(payload),
    )
    path.write_bytes(header + payload)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_nonfinite_float_sample_is_corrupt_file(tmp_path, bad):
    path = tmp_path / "nan.wav"
    samples = sine_stream().samples
    samples[100] = bad
    write_float32(path, samples)
    with pytest.raises(CorruptFile):
        read_audio(path)


def test_nonfinite_float_sample_exits_as_input_error(tmp_path, capsys):
    from sgmeasure.cli import main

    path = tmp_path / "nan.wav"
    samples = sine_stream().samples
    samples[7] = float("nan")
    write_float32(path, samples)
    rc = main([
        "safeguard", "--in", str(path), "--period", "1024",
        "--out", str(tmp_path / "o.wav"), "--report", str(tmp_path / "r.json"),
    ])
    assert rc == 3
    assert '"CorruptFile"' in capsys.readouterr().err


def test_read_audio_holds_the_file_bytes_once(tmp_path):
    """The data chunk is decoded from the file's bytes, not from a copy of them."""
    path = tmp_path / "long.wav"
    n = 1 << 18
    write_float32(path, np.linspace(-1.0, 1.0, n))
    tracemalloc.start()
    try:
        read_audio(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 4 bytes a sample read, 8 decoded and a 1-byte finiteness mask; a copy adds 4
    assert peak < 14 * n


def sample_report():
    return AnalysisReport(
        summary={"m_count": 4, "p_count": 2, "normalization_db": -3.0104, "note": None},
        table={
            "frequency_hz": [0.0, 10.7666015625, 21.533203125],
            "lti_gain_db": [0.1234567890123456, None, -41.5],
            "random_level_db": [-60.0, -61.25, -59.97213],
        },
    )


def test_report_json_round_trip(tmp_path):
    path = tmp_path / "report.json"
    report = sample_report()
    write_report(path, report)
    back = read_report(path)
    assert back.summary == report.summary
    assert back.table == report.table
    assert back.schema_version == report.schema_version


def test_report_csv_round_trip(tmp_path):
    path = tmp_path / "report.csv"
    report = sample_report()
    write_report(path, report)
    back = read_report(path)
    assert back.table == report.table
    assert back.summary["normalization_db"] == report.summary["normalization_db"]


def test_report_nonfinite_becomes_null(tmp_path):
    report = AnalysisReport(
        summary={}, table={"level_db": [float("-inf"), 1.0]}
    )
    path = tmp_path / "r.json"
    write_report(path, report)
    assert read_report(path).table["level_db"] == [None, 1.0]


def test_report_write_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_report(a, sample_report())
    write_report(b, sample_report())
    assert a.read_bytes() == b.read_bytes()


def mixed_report():
    return AnalysisReport(
        summary={"k": np.float64(1.25), "inf": float("inf"), "nested": {"a": [1, 2]}},
        table={
            "z": [0, 1, -2],
            "a": [0.5, None, float("inf")],
            "é,\"q": [np.float64(-0.0), np.float64("nan"), -1e-320],
            "b": [1e300, -float("inf"), 0.1 + 0.2],
        },
    )


def reference_cell(value):
    if value is None or (isinstance(value, float) and not np.isfinite(value)):
        return None
    return float(value) if isinstance(value, float) else value


def array_report():
    return AnalysisReport(
        summary={"n": 5},
        table={
            "f": np.arange(5.0) * 10.7666015625,
            "level_db": np.array([-np.inf, -0.0, 5e-324, np.nan, 0.1 + 0.2]),
        },
    )


@pytest.mark.parametrize("report", [mixed_report(), AnalysisReport(summary={}, table={}),
                                    AnalysisReport(summary={"x": 1}, table={"e": []}),
                                    array_report()])
def test_report_json_layout_is_json_dumps(tmp_path, report):
    path = tmp_path / "r.json"
    write_report(path, report)
    doc = {
        "schema_version": report.schema_version,
        "summary": {k: reference_cell(v) for k, v in report.summary.items()},
        "table": {k: [reference_cell(v) for v in col] for k, col in report.table.items()},
    }
    assert path.read_text() == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_report_csv_cells_are_repr_or_empty(tmp_path):
    for report in (mixed_report(), array_report()):
        path = tmp_path / "r.csv"
        write_report(path, report)
        rows = path.read_text().splitlines()[3:]
        cells = [reference_cell(v) for col in report.table.values() for v in col]
        expected = ["" if v is None else repr(v) for v in cells]
        n = len(rows)
        columns = [expected[i * n : (i + 1) * n] for i in range(len(report.table))]
        assert rows == [",".join(row) for row in zip(*columns)]


# Cells a report may hold: ints, None, both infinities, NaN, -0.0, subnormals.
LIST_SPECIALS = (None, 0, 7, -3, math.inf, -math.inf, math.nan, -0.0, 5e-324, -2.5e-310, 1e300)
ARRAY_SPECIALS = (math.inf, -math.inf, math.nan, -0.0, 5e-324, -2.5e-310)


@st.composite
def report_tables(draw):
    """Tables of list and float64-array columns, with special cells at CSV block edges."""
    block = _CSV_BLOCK_ROWS
    rows = draw(st.integers(0, 40) | st.sampled_from(
        [block - 1, block, block + 1, 2 * block, 2 * block + 1]
    ))
    names = draw(st.lists(st.text("abé\",_", min_size=1, max_size=4), max_size=4, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edges = [i for i in (0, block - 1, block, 2 * block - 1, 2 * block, rows - 1) if 0 <= i < rows]
    table = {}
    for name in names:
        values = rng.standard_normal(rows) * 10.0 ** rng.uniform(-320, 300, rows)
        where = edges + list(rng.integers(0, max(rows, 1), rng.integers(0, 5) if rows else 0))
        if draw(st.booleans()):
            values[where] = rng.choice(ARRAY_SPECIALS, len(where))
            table[name] = values
        else:
            column = values.tolist()
            for i in where:
                column[i] = LIST_SPECIALS[rng.integers(len(LIST_SPECIALS))]
            table[name] = column
    return table


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(
    table=report_tables(),
    summary=st.dictionaries(st.text(max_size=3), st.none() | st.integers() | st.floats()),
)
def test_streamed_report_bytes_equal_whole_text(tmp_path_factory, table, summary):
    """write_report's bytes are those of the report formatted as one string."""
    report = AnalysisReport(summary=summary, table=table)
    tmp = tmp_path_factory.mktemp("r")
    for suffix, oracle in ((".json", report_json), (".csv", report_csv)):
        written, expected = tmp / f"written{suffix}", tmp / f"expected{suffix}"
        write_report(written, report)
        expected.write_text(oracle(report))
        assert written.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("suffix", [".json", ".csv"])
def test_report_write_holds_one_column_or_row_block(tmp_path, suffix):
    """An 11 x 32,769 table (L = 65536 with smoothing) is written in under 8 MiB.

    The whole report as text takes about 30 MiB (JSON) and 48 MiB (CSV).
    """
    rng = np.random.default_rng(8)
    table = {f"c{i}": 10.0 * np.log10(rng.random(32769)) for i in range(11)}
    table["c3"][::5] = -np.inf
    report = AnalysisReport(summary={"period_length": 65536}, table=table)
    tracemalloc.start()
    try:
        write_report(tmp_path / f"r{suffix}", report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


@pytest.mark.parametrize("suffix", [".json", ".csv"])
@pytest.mark.parametrize("report,error", [
    (AnalysisReport(summary={"x": object()}, table={"a": [1.0]}), TypeError),
    (AnalysisReport(summary={}, table={"a": [1.0, "text"]}), ValueError),
])
def test_report_that_cannot_be_written_leaves_no_file(tmp_path, suffix, report, error):
    path = tmp_path / f"r{suffix}"
    with pytest.raises(error):
        write_report(path, report)
    assert not path.exists()


def test_array_column_must_be_one_dimensional():
    with pytest.raises(ValueError, match="1-D"):
        AnalysisReport(summary={}, table={"a": np.zeros((2, 3))})
