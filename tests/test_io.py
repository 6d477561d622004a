import json
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgmeasure.errors import ClippedOutput, CorruptFile, UnsupportedFormat
from sgmeasure.reports import _CSV_BLOCK_ROWS, SCHEMA_VERSION, AnalysisReport, write_report
from sgmeasure import wavio
from sgmeasure.wavio import open_audio, read_audio, write_audio

from oracles import float32_samples, pcm_samples, read_report, report_csv, report_json

FS = 44100
FLOAT32_MAX = float(np.finfo(np.float32).max)
# (format code, bits) of each encoding the reader decodes
ENCODINGS = {"pcm16": (1, 16), "pcm24": (1, 24), "float32": (3, 32)}


def sine(freq=1000.0, n=4410, amp=0.5):
    t = np.arange(n) / FS
    return amp * np.sin(2 * np.pi * freq * t)


def riff(*chunks: tuple[bytes, bytes]) -> bytes:
    """A RIFF/WAVE file of (id, body) chunks, each odd-sized body followed by its pad byte."""
    body = b"WAVE" + b"".join(
        cid + struct.pack("<I", len(data)) + data + b"\0" * (len(data) & 1)
        for cid, data in chunks
    )
    return b"RIFF" + struct.pack("<I", len(body)) + body


def fmt_chunk(encoding: str, channels: int = 1, rate: int = FS) -> bytes:
    code, bits = ENCODINGS[encoding]
    align = channels * bits // 8
    return struct.pack("<HHIIHH", code, channels, rate, rate * align, align, bits)


def encode(samples, encoding: str) -> bytes:
    """Samples as the data bytes of ``encoding``; PCM codes are rounded from full scale 1."""
    x = np.asarray(samples, dtype=np.float64)
    if encoding == "float32":
        return x.astype("<f4").tobytes()
    width = ENCODINGS[encoding][1] // 8
    codes = np.round(x * 2.0 ** (8 * width - 1)).astype("<i4")
    return codes.view(np.uint8).reshape(-1, 4)[:, :width].tobytes()


def wav_bytes(samples, encoding: str, channels: int = 1) -> bytes:
    """A plain-fmt WAV file of interleaved ``samples``, written here in any encoding
    the reader decodes (:func:`write_audio` writes float32 only)."""
    return riff((b"fmt ", fmt_chunk(encoding, channels)), (b"data", encode(samples, encoding)))


def test_float_round_trip_is_lossless(tmp_path):
    path = tmp_path / "f32.wav"
    samples = sine().astype(np.float32)
    write_audio(path, samples, FS)
    back, rate = read_audio(path)
    assert rate == FS
    assert np.array_equal(back, samples)


# Finite float64 samples within float32's range, with the edges a float32 write meets:
# signed zeros, float32 and float64 subnormals, |x| > 1 and float32's largest magnitude.
WRITABLE_SAMPLES = st.one_of(
    st.floats(-FLOAT32_MAX, FLOAT32_MAX),
    st.floats(width=32, allow_nan=False, allow_infinity=False),
    st.floats(-1e-36, 1e-36),
    st.sampled_from([0.0, -0.0, 1e-45, -1.4e-45, 5e-324, 1.5, -2.0, FLOAT32_MAX, -FLOAT32_MAX]),
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    samples=st.lists(WRITABLE_SAMPLES, max_size=40),
    rate=st.one_of(st.sampled_from([1, FS, 48000, 2**30 - 1]), st.integers(1, 2**30 - 1)),
)
def test_float_write_then_read_is_float32_bit_for_bit(tmp_path_factory, samples, rate):
    path = tmp_path_factory.mktemp("f32") / "f32.wav"
    samples = np.array(samples, dtype=np.float64)
    write_audio(path, samples, rate)
    back, back_rate = read_audio(path)
    assert back_rate == rate
    expected = samples.astype(np.float32).astype(np.float64)
    assert back.view(np.uint64).tolist() == expected.view(np.uint64).tolist()


def test_float_write_keeps_samples_beyond_full_scale(tmp_path):
    path = tmp_path / "f32.wav"
    write_audio(path, [0.5, 1.7, -2.0], FS)
    assert read_audio(path)[0].tolist() == np.float32([0.5, 1.7, -2.0]).tolist()


def test_float_write_refuses_samples_beyond_float32_range(tmp_path, capsys):
    from sgmeasure.cli import main

    path = tmp_path / "f32.wav"
    with pytest.raises(ClippedOutput,
                       match=r"1 samples not finite or beyond float32 range \(peak 3\.5e\+38"):
        write_audio(path, [0.5, 3.5e38, -2.0], FS)
    assert not path.exists()
    # flooring a float32 period near full range lifts samples beyond it
    write_audio(path, np.full(64, 3.0e38), FS)
    out, report = tmp_path / "o.wav", tmp_path / "r.json"
    assert main(["safeguard", "--in", str(path), "--period", "64",
                 "--out", str(out), "--report", str(report)]) == 4
    assert json.loads(capsys.readouterr().err)["error"] == "ClippedOutput"
    assert not out.exists()


def test_write_refuses_a_sample_rate_the_header_cannot_hold(tmp_path, capsys):
    from sgmeasure.cli import main

    path = tmp_path / "f32.wav"
    with pytest.raises(UnsupportedFormat, match="byte rate"):
        write_audio(path, [0.5, -0.5], 2**32 - 1)
    assert not path.exists()
    fmt = struct.pack("<HHIIHH", 3, 1, 2**32 - 1, 0, 4, 32)
    path.write_bytes(riff((b"fmt ", fmt), (b"data", np.float32([0.5, -0.5]).tobytes())))
    assert main(["make-test", "--in", str(path), "--repeats", "2",
                 "--out", str(tmp_path / "o.wav")]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "UnsupportedFormat"


@pytest.mark.parametrize("channels", [2, 3])
@pytest.mark.parametrize("encoding", ["pcm16", "float32"])
def test_multichannel_file_is_unsupported(tmp_path, capsys, encoding, channels):
    """No channel is mixed into another: a file of more than one channel is refused,
    by the reader and by every command that reads one, and no output is written."""
    from sgmeasure.cli import main

    path = tmp_path / "multi.wav"
    # a loopback reference beside the measured channel: mixing them would halve the path
    frames = np.tile(sine(n=2048, amp=0.25), (channels, 1))
    frames[1] = -1.0
    path.write_bytes(wav_bytes(frames.T.ravel(), encoding, channels))
    with pytest.raises(UnsupportedFormat, match=f"{channels} channels; give the measured channel"):
        read_audio(path)
    mono = tmp_path / "mono.wav"
    write_audio(mono, sine(n=2048), FS)
    manifest = {"sample_rate": FS, "period_length": 512, "segments_per_recording": 2,
                "entries": [{"excitation": mono.name, "recording": path.name}]}
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    out, report = tmp_path / "o.wav", tmp_path / "r.json"
    for argv in (
        ["safeguard", "--in", str(path), "--period", "512", "--out", str(out),
         "--report", str(report)],
        ["make-test", "--in", str(path), "--repeats", "2", "--out", str(out)],
        ["analyze", "--manifest", str(tmp_path / "m.json"), "--out", str(report)],
    ):
        assert main(argv) == 3, argv
        assert json.loads(capsys.readouterr().err)["error"] == "UnsupportedFormat"
        assert not out.exists() and not report.exists()


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
    plain.write_bytes(wav_bytes(sine(), encoding))
    extensible.write_bytes(as_extensible(plain.read_bytes(), guid))
    (a, a_rate), (b, b_rate) = read_audio(plain), read_audio(extensible)
    assert b_rate == a_rate
    assert np.array_equal(b, a)


def test_extensible_unknown_subformat_is_unsupported(tmp_path):
    plain, extensible = tmp_path / "plain.wav", tmp_path / "ext.wav"
    plain.write_bytes(wav_bytes(sine(), "pcm16"))
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
    write_audio(plain, sine(), FS)
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


# Layouts a data chunk is read from; the file ends with the data chunk unless a
# chunk follows it.  A stereo file is refused whatever its data.
LAYOUTS = ("plain", "after odd chunk", "after LIST", "before LIST", "stereo", "extensible")
PCM_EDGES = {"pcm16": (-(2**15), -1, 0, 1, 2**15 - 1), "pcm24": (-(2**23), -1, 0, 1, 2**23 - 1)}
FLOAT32_EDGES = (0.0, -0.0, 1e-45, -FLOAT32_MAX, FLOAT32_MAX, 1.5)


def wav_file(encoding: str, layout: str, payload: bytes) -> bytes:
    fmt = (b"fmt ", fmt_chunk(encoding, 2 if layout == "stereo" else 1))
    data = (b"data", payload)
    info = (b"LIST", b"INFOISFT" + struct.pack("<I", 6) + b"test\0\0")
    if layout == "after odd chunk":
        return riff(fmt, (b"junk", b"abc"), data)
    if layout == "after LIST":
        return riff(fmt, info, data)
    if layout == "before LIST":
        return riff(fmt, data, info)
    plain = riff(fmt, data)
    guid = FLOAT_GUID if encoding == "float32" else PCM_GUID
    return as_extensible(plain, guid) if layout == "extensible" else plain


@st.composite
def encoded_samples(draw):
    """(encoding, data bytes, the values they hold): PCM codes over 2**(bits-1), or float32s."""
    encoding = draw(st.sampled_from(sorted(ENCODINGS)))
    if encoding == "float32":
        values = st.floats(width=32, allow_nan=False, allow_infinity=False)
        x = np.array([*FLOAT32_EDGES, *draw(st.lists(values, max_size=40))], dtype="<f4")
        return encoding, x.tobytes(), x.astype(np.float64)
    bits = ENCODINGS[encoding][1]
    codes = st.integers(-(2 ** (bits - 1)), 2 ** (bits - 1) - 1)
    x = np.array([*PCM_EDGES[encoding], *draw(st.lists(codes, max_size=40))]) / 2.0 ** (bits - 1)
    return encoding, encode(x, encoding), x


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(encoded=encoded_samples(), layout=st.sampled_from(LAYOUTS))
def test_pcm24_decode_equals_byte_assembly(tmp_path_factory, encoded, layout):
    """PCM16, PCM24 and float32 data decode to the values their bytes assemble to, bit for bit."""
    encoding, payload, values = encoded
    path = tmp_path_factory.mktemp("decode") / "in.wav"
    path.write_bytes(wav_file(encoding, layout, payload))
    if layout == "stereo":
        with pytest.raises(UnsupportedFormat, match="2 channels"):
            read_audio(path)
        return
    if encoding == "float32":
        expected = float32_samples(payload)
    else:
        expected = pcm_samples(payload, ENCODINGS[encoding][1] // 8)
    assert expected.view(np.uint64).tolist() == values.view(np.uint64).tolist()
    assert read_audio(path)[0].view(np.uint64).tolist() == expected.view(np.uint64).tolist()


def test_pcm24_data_size_not_a_multiple_of_three_is_corrupt(tmp_path, capsys):
    from sgmeasure.cli import main

    path = tmp_path / "p24.wav"
    path.write_bytes(riff((b"fmt ", fmt_chunk("pcm24")), (b"data", bytes(3 * 2048 + 1))))
    with pytest.raises(CorruptFile, match="multiple of the frame size"):
        read_audio(path)
    rc = main([
        "safeguard", "--in", str(path), "--period", "1024",
        "--out", str(tmp_path / "o.wav"), "--report", str(tmp_path / "r.json"),
    ])
    assert rc == 3
    assert '"CorruptFile"' in capsys.readouterr().err


@pytest.mark.parametrize("fmt,data,error,message", [
    (fmt_chunk("pcm16"), bytes(3), CorruptFile, "multiple of the frame size"),
    (fmt_chunk("float32"), bytes(129), CorruptFile, "multiple of the frame size"),
    # whole stereo frames or not, a stereo file is refused before its size is checked
    (fmt_chunk("pcm16", channels=2), bytes(6), UnsupportedFormat, "2 channels"),
    (fmt_chunk("float32", rate=0), bytes(128), CorruptFile, "sample rate of 0"),
], ids=["pcm16 3 bytes", "float32 129 bytes", "stereo pcm16 6 bytes", "rate 0"])
def test_data_size_or_sample_rate_the_fmt_chunk_rules_out_is_corrupt(
    tmp_path, capsys, fmt, data, error, message
):
    from sgmeasure.cli import main

    path = tmp_path / "bad.wav"
    path.write_bytes(riff((b"fmt ", fmt), (b"data", data)))
    with pytest.raises(error, match=message):
        read_audio(path)
    assert main(["make-test", "--in", str(path), "--repeats", "2",
                 "--out", str(tmp_path / "o.wav")]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == error.__name__


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_nonfinite_float_sample_is_corrupt_file(tmp_path, bad):
    path = tmp_path / "nan.wav"
    samples = sine()
    samples[100] = bad
    path.write_bytes(wav_bytes(samples, "float32"))
    with pytest.raises(CorruptFile):
        read_audio(path)


def test_nonfinite_float_sample_exits_as_input_error(tmp_path, capsys):
    from sgmeasure.cli import main

    path = tmp_path / "nan.wav"
    samples = sine()
    samples[7] = float("nan")
    path.write_bytes(wav_bytes(samples, "float32"))
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
    path.write_bytes(wav_bytes(np.linspace(-1.0, 1.0, n), "float32"))
    tracemalloc.start()
    try:
        read_audio(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 4 bytes a sample read, 8 decoded and a 1-byte finiteness mask; a copy adds 4
    assert peak < 14 * n


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    encoding=st.sampled_from(list(ENCODINGS)),
    n=st.integers(0, 700),
    junk=st.none() | st.binary(max_size=5),
    ranges=st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_range_reads_equal_slices_of_the_whole_read(
    tmp_path_factory, encoding, n, junk, ranges, seed
):
    """Every range an opened file reads is that slice of read_audio's samples, bit for bit.

    A chunk before the data, of odd size or none, moves the data to every
    byte alignment.
    """
    samples = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
    chunks = [(b"fmt ", fmt_chunk(encoding))]
    if junk is not None:
        chunks.append((b"LIST", junk))
    path = tmp_path_factory.mktemp("range") / "r.wav"
    path.write_bytes(riff(*chunks, (b"data", encode(samples, encoding))))
    whole = read_audio(path)[0]
    audio = open_audio(path)
    assert audio.length == whole.size == n and audio.sample_rate == FS
    spans = [sorted((round(a * n), round(b * n))) for a, b in [(0, 1), *ranges, (1, 1)]]
    pieces = list(audio.read_ranges(spans))  # in any order, through one open file
    assert len(pieces) == len(spans)
    for (start, stop), piece in zip(spans, pieces):
        assert piece.dtype == np.float64
        assert piece.tobytes() == whole[start:stop].tobytes()


def test_range_read_of_a_file_cut_after_opening_is_corrupt(tmp_path):
    path = tmp_path / "cut.wav"
    path.write_bytes(wav_bytes(np.linspace(-0.5, 0.5, 1000), "pcm24"))
    audio = open_audio(path)
    path.write_bytes(path.read_bytes()[:-30])
    pieces = audio.read_ranges([(0, 990), (980, 1000)])
    assert next(pieces).size == 990
    with pytest.raises(CorruptFile, match="shorter than its data chunk"):
        next(pieces)


def test_range_read_of_a_file_removed_after_opening_is_corrupt(tmp_path):
    path = tmp_path / "gone.wav"
    path.write_bytes(wav_bytes(np.linspace(-0.5, 0.5, 100), "pcm24"))
    audio = open_audio(path)
    path.unlink()
    with pytest.raises(CorruptFile, match="cannot read"):
        next(audio.read_ranges([(0, 100)]))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_open_checks_every_float_sample(tmp_path, bad):
    path = tmp_path / "nan.wav"
    samples = sine()
    samples[-1] = bad
    path.write_bytes(wav_bytes(samples, "float32"))
    with pytest.raises(CorruptFile, match="NaN or infinite"):
        open_audio(path)


@pytest.mark.parametrize("index", [0, 1 << 16, (1 << 16) - 1, 3 << 16])
def test_open_checks_float_samples_in_every_piece(tmp_path, index):
    """Float data is checked 2**16 samples at a time: a NaN in any piece is found."""
    path = tmp_path / "nan.wav"
    samples = np.linspace(-0.5, 0.5, (3 << 16) + 1)
    samples[index] = float("nan")
    path.write_bytes(wav_bytes(samples, "float32"))
    with pytest.raises(CorruptFile, match="NaN or infinite"):
        open_audio(path)


@pytest.mark.parametrize("encoding", ["pcm16", "pcm24", "float32"])
def test_open_holds_no_copy_of_the_file(tmp_path, encoding):
    """Opening reads the chunk headers, and float data in pieces of 256 KiB, not the file."""
    n = 1 << 20
    path = tmp_path / "long.wav"
    path.write_bytes(wav_bytes(np.linspace(-0.5, 0.5, n), encoding))
    tracemalloc.start()
    try:
        audio = open_audio(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert audio.length == n
    # one piece of float data and its 64 KiB finiteness mask; the file is 2 to 4 MiB
    assert peak < (400_000 if encoding == "float32" else 20_000)


@pytest.mark.parametrize("n, repeats", [(3, 1), (3, 5), (0, 5), (3, 0)])
def test_repeated_write_is_the_write_of_the_tiled_stream(tmp_path, n, repeats):
    """One header, then the samples ``repeats`` times: the bytes of the samples tiled first."""
    samples = np.linspace(-1.0, 1.0, n)
    write_audio(tmp_path / "repeated.wav", samples, FS, repeats)
    write_audio(tmp_path / "tiled.wav", np.tile(samples, repeats), FS)
    assert (tmp_path / "repeated.wav").read_bytes() == (tmp_path / "tiled.wav").read_bytes()


def test_repeated_write_refuses_more_samples_than_a_data_chunk_holds(tmp_path, monkeypatch):
    monkeypatch.setattr(wavio, "MAX_FLOAT_SAMPLES", 99)
    write_audio(tmp_path / "fits.wav", np.zeros(33), FS, 3)
    with pytest.raises(UnsupportedFormat, match="3 repeats of 34 samples"):
        write_audio(tmp_path / "w.wav", np.zeros(34), FS, 3)
    assert not (tmp_path / "w.wav").exists()


def test_repeated_write_refuses_a_negative_count(tmp_path):
    with pytest.raises(ValueError, match="non-negative"):
        write_audio(tmp_path / "w.wav", np.zeros(4), FS, -1)
    assert not (tmp_path / "w.wav").exists()


@pytest.mark.parametrize("rate", [0, -1, 48000.0, 44100.5, True])
def test_write_refuses_a_rate_that_is_not_an_integer_of_at_least_1(tmp_path, rate):
    """A float rate does not pack into the header, and True would write a file read at 1 Hz."""
    with pytest.raises(ValueError, match="sample_rate must be an integer of at least 1"):
        write_audio(tmp_path / "w.wav", np.zeros(4), rate)
    assert not (tmp_path / "w.wav").exists()


@pytest.mark.parametrize("encoding", ["pcm24", "float32"])
def test_whole_read_reads_each_data_byte_once(tmp_path, encoding, monkeypatch):
    """read_audio checks float data on the decoded samples, not in a read of its own."""
    n = (1 << 17) + 3
    path = tmp_path / "w.wav"
    path.write_bytes(wav_bytes(np.linspace(-0.5, 0.5, n), encoding))
    sizes = []
    read_into = wavio._read_into

    def counted(fh, buffer, position, size, path):
        sizes.append(size)
        return read_into(fh, buffer, position, size, path)

    monkeypatch.setattr(wavio, "_read_into", counted)
    assert read_audio(path)[0].size == n
    width = ENCODINGS[encoding][1] // 8
    assert sizes == [n * width + 1]  # from the byte before the first sample


def test_safeguard_reads_only_its_period(tmp_path):
    """A long PCM24 input is read for its first period alone: memory grows with L, not the file."""
    from sgmeasure.cli import main

    L, peaks = 1024, []
    for periods in (2, 2, 256):  # the first run warms up; the last file is 768 KiB of PCM24
        path = tmp_path / f"in{periods}.wav"
        path.write_bytes(wav_bytes(0.5 * np.sin(np.arange(periods * L) * 0.3), "pcm24"))
        out, report = tmp_path / f"out{periods}.wav", tmp_path / f"r{periods}.json"
        tracemalloc.start()
        try:
            assert main(["safeguard", "--in", str(path), "--period", str(L),
                         "--out", str(out), "--report", str(report)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert out.read_bytes() == (tmp_path / "out2.wav").read_bytes()
    assert peaks[2] < peaks[1] + 16384 and peaks[2] < 16 * 8 * L  # the file decodes to 2 MiB


def test_safeguard_refuses_a_nan_after_its_period(tmp_path, capsys):
    """Only the period is floored, but the whole float file is checked when it is opened."""
    from sgmeasure.cli import main

    path = tmp_path / "nan.wav"
    samples = sine(n=4096)
    samples[-1] = float("nan")
    path.write_bytes(wav_bytes(samples, "float32"))
    rc = main(["safeguard", "--in", str(path), "--period", "1024",
               "--out", str(tmp_path / "o.wav"), "--report", str(tmp_path / "r.json")])
    assert rc == 3
    assert json.loads(capsys.readouterr().err)["error"] == "CorruptFile"
    assert not (tmp_path / "o.wav").exists()


def test_float_write_holds_no_copy_of_the_samples(tmp_path):
    """The header and then the float32 samples are written: no bytes copy of them is made."""
    n = 1 << 18
    samples = np.linspace(-1.0, 1.0, n)
    tracemalloc.start()
    try:
        write_audio(tmp_path / "w.wav", samples, FS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 4 bytes a sample of float32 and a 1-byte finiteness mask; a bytes copy adds 4
    assert peak <= 5.5 * n
    assert read_audio(tmp_path / "w.wav")[0].tobytes() == (
        samples.astype(np.float32).astype(np.float64).tobytes()
    )


def test_float_write_refuses_more_samples_than_a_data_chunk_holds(tmp_path, monkeypatch):
    monkeypatch.setattr(wavio, "MAX_FLOAT_SAMPLES", 99)
    write_audio(tmp_path / "fits.wav", np.zeros(99), FS)
    with pytest.raises(UnsupportedFormat, match="data chunk"):
        write_audio(tmp_path / "w.wav", np.zeros(100), FS)
    assert not (tmp_path / "w.wav").exists()


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


def strict_summary(path):
    """A written report's summary, parsed as strict JSON parsers do: NaN and infinities refused."""

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    text = path.read_text()
    if path.suffix == ".json":
        return json.loads(text, parse_constant=refuse)["summary"]
    return json.loads(text.splitlines()[1].removeprefix("# summary: "), parse_constant=refuse)


@pytest.mark.parametrize("suffix", [".json", ".csv"])
def test_report_nonfinite_nested_in_the_summary_becomes_null(tmp_path, suffix):
    report = AnalysisReport(
        summary={"calibration": {"gain_db": math.nan, "taps": [1.0, -math.inf, (math.inf, 2)]}},
        table={"a": [1.0]},
    )
    path = tmp_path / f"r{suffix}"
    write_report(path, report)
    assert strict_summary(path) == {"calibration": {"gain_db": None,
                                                    "taps": [1.0, None, [None, 2]]}}


@pytest.mark.parametrize("suffix", [".json", ".csv"])
def test_simulate_noise_off_config_is_echoed_as_null(tmp_path, suffix):
    """An infinite SNR (noise off) is accepted, and the summary's config echoes it as null."""
    from sgmeasure.cli import main

    config = tmp_path / "config.json"
    config.write_text('{"snr_db": Infinity, "period_length": 64, "theta_db_list": [0.0]}')
    out = tmp_path / f"random{suffix}"
    assert main(["simulate", "--config", str(config), "--experiment", "random",
                 "--out", str(out)]) == 0
    config = strict_summary(out)["config"]
    assert (config["snr_db"], config["theta_db_list"]) == (None, [0.0])


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
        "schema_version": SCHEMA_VERSION,
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


def test_json_report_write_holds_one_block_of_cells(tmp_path):
    """The 11 x 32,769 JSON table is written a block of cells at a time, in under 1 MiB.

    Formatted a whole column at a time, the write peaks at about 4.3 MiB.
    """
    rng = np.random.default_rng(8)
    table = {f"c{i}": 10.0 * np.log10(rng.random(32769)) for i in range(11)}
    table["c3"][::5] = -np.inf
    report = AnalysisReport(summary={"period_length": 65536}, table=table)
    tracemalloc.start()
    try:
        write_report(tmp_path / "r.json", report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert (tmp_path / "r.json").read_text() == report_json(report)


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


def test_table_columns_must_have_equal_lengths():
    with pytest.raises(ValueError, match="unequal lengths"):
        AnalysisReport(summary={}, table={"a": [1.0, 2.0], "b": [1.0]})

