import json
import struct

import numpy as np
import pytest

from sgmeasure.core import SampleStream
from sgmeasure.errors import CorruptFile, UnsupportedFormat
from sgmeasure.reports import AnalysisReport, read_report, write_report
from sgmeasure.wavio import read_audio, write_audio

FS = 44100


def sine_stream(freq=1000.0, n=4410, amp=0.5):
    t = np.arange(n) / FS
    return SampleStream(amp * np.sin(2 * np.pi * freq * t), FS, label="sine")


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


@pytest.mark.parametrize("report", [mixed_report(), AnalysisReport(summary={}, table={}),
                                    AnalysisReport(summary={"x": 1}, table={"e": []})])
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
    path = tmp_path / "r.csv"
    report = mixed_report()
    write_report(path, report)
    rows = path.read_text().splitlines()[3:]
    cells = [reference_cell(v) for col in report.table.values() for v in col]
    expected = ["" if v is None else repr(v) for v in cells]
    n = len(rows)
    columns = [expected[i * n : (i + 1) * n] for i in range(len(report.table))]
    assert rows == [",".join(row) for row in zip(*columns)]
