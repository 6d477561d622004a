"""Analyze sessions read a piece at a time: the same report as whole reads, in less memory."""

import json
import tracemalloc
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sgmeasure import session, wavio
from sgmeasure.cli import main
from sgmeasure.errors import SgMeasureError
from sgmeasure.reports import write_report
from sgmeasure.session import analyze_session, load_manifest

from oracles import ENCODINGS, expected_analyze, read_report, whole_recording_report, write_wav

FS = 48000


def write_session(root, periods, recordings, background=None, encoding="float32", **keys):
    """Write the files and manifest of a session; ``keys`` go into the manifest."""
    entries = []
    for p, (period, recording) in enumerate(zip(periods, recordings)):
        write_wav(root / f"exc{p}.wav", period, encoding)
        write_wav(root / f"rec{p}.wav", recording, encoding)
        entries.append({"excitation": f"exc{p}.wav", "recording": f"rec{p}.wav"})
    manifest = {"sample_rate": FS, "entries": entries, **keys}
    if background is not None:
        write_wav(root / "bg.wav", background, encoding)
        manifest["background_recording"] = "bg.wav"
    (root / "session.json").write_text(json.dumps(manifest))
    return root / "session.json"


def measured(period, count, rng, noise):
    """``count`` samples of the repeated period through a short FIR, plus noise."""
    h = np.array([0.8, 0.3, -0.1])
    y = np.convolve(np.resize(period, count), h)[:count]
    return y + noise * rng.standard_normal(count)


def outcome(run, path):
    """The bytes of the report ``run()`` returns as written to ``path``, or the error it raises."""
    try:
        report = run()
    except SgMeasureError as exc:
        return type(exc)
    write_report(path, report)
    return path.read_bytes()


@st.composite
def sessions(draw):
    return {
        "encoding": draw(st.sampled_from(list(ENCODINGS))),
        "L": draw(st.integers(2, 300)),
        "M": draw(st.integers(1, 6)),
        "P": draw(st.integers(1, 3)),
        "skip": draw(st.integers(0, 600)),
        "tail": draw(st.integers(-1, 300)),  # -1: the last segment is one sample short
        "background": draw(st.none() | st.integers(0, 3)),  # whole segments after the skip
        "piece": draw(st.sampled_from([1, 7, 64, 1 << 16])),  # samples decoded at once
        "fraction": draw(st.none() | st.sampled_from([1.0 / 3.0, 1.0])),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


SHORT = {  # the last of 3 segments one sample short, read a segment at a time
    "encoding": "pcm24", "L": 100, "M": 3, "P": 2, "skip": 50, "tail": -1,
    "background": 1, "piece": 100, "fraction": None, "seed": 1,
}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=sessions())
@example(case=SHORT)
def test_pieces_give_the_report_of_whole_recordings(tmp_path_factory, case):
    """Any encoding, period, segment count, preamble, tail and piece size: the same bytes.

    Inputs the analysis refuses raise the same error on both paths.
    """
    L, M, skip = case["L"], case["M"], case["skip"]
    rng = np.random.default_rng(case["seed"])
    periods = [rng.uniform(-0.4, 0.4, L) for _ in range(case["P"])]
    length = max(skip + M * L + case["tail"], 0)
    recordings = [measured(x, length, rng, 0.01) for x in periods]
    background = None
    if case["background"] is not None:
        background = 0.01 * rng.standard_normal(skip + case["background"] * L + case["tail"] + 1)
    root = tmp_path_factory.mktemp("session")
    path = write_session(
        root, periods, recordings, background, case["encoding"],
        period_length=L, segments_per_recording=M, skip_preamble=skip,
    )
    manifest = load_manifest(path)
    with mock.patch.object(session, "_PIECE_SAMPLES", case["piece"]):
        pieces = outcome(lambda: analyze_session(manifest, case["fraction"]), root / "a.json")
    whole = outcome(lambda: whole_recording_report(manifest, case["fraction"]), root / "w.json")
    assert pieces == whole


def test_analyze_holds_one_estimate_and_one_piece(tmp_path):
    """A P = 2, M = 32 session with a background peaks below the estimate and half a recording.

    Reading a whole recording holds its float64 samples beside the estimate,
    which passes this bound by more than half a recording.
    """
    L, M, P = 16384, 32, 2
    rng = np.random.default_rng(53)
    periods = [0.1 * rng.standard_normal(L) for _ in range(P)]
    recordings = [np.tile(x, M + 1) + 1e-3 * rng.standard_normal((M + 1) * L) for x in periods]
    background = 1e-3 * rng.standard_normal((M + 1) * L)
    path = write_session(
        tmp_path, periods, recordings, background,
        period_length=L, segments_per_recording=M, skip_preamble=L,
    )
    manifest = load_manifest(path)
    recording_bytes = (M + 1) * L * 8
    estimate_bytes = M * (L // 2 + 1) * 16
    tracemalloc.start()
    try:
        analyze_session(manifest)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < estimate_bytes + 0.5 * recording_bytes


@st.composite
def pieced_values(draw):
    """Random magnitudes of squares, and the piece lengths they arrive in (cycled)."""
    n = draw(st.integers(1, 8) | st.integers(1, 129) | st.integers(1, 300_000))
    spans = draw(st.lists(st.integers(max(1, n // 3000), n), min_size=1, max_size=4))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    values = (rng.standard_normal(n) * 10.0 ** rng.uniform(-30, 30, n)) ** 2
    return values, spans


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=pieced_values())
@example(case=(np.arange(7.0) ** 2, [1]))
@example(case=(np.linspace(0, 3, 129) ** 2, [1, 127]))
@example(case=(np.linspace(0, 3, 300_000) ** 2, [65536]))
def test_streamed_power_sum_is_numpys_pairwise_sum(case):
    """Summed a piece at a time, the squares give np.add.reduce and np.mean of all, bit for bit.

    Pieces shorter than 128 values make a leaf of numpy's tree cross several.
    """
    values, spans = case
    n = len(values)
    cuts, at = [], 0
    while at < n:
        at += spans[len(cuts) % len(spans)]
        cuts.append(min(at, n))
    pieces = iter(np.split(values, cuts[:-1]))
    total = session._pairwise_sum(n, [np.empty(0)], pieces)
    assert next(pieces, None) is None
    assert total.hex() == float(np.add.reduce(values)).hex()
    assert (total / n).hex() == float(np.mean(values)).hex()


def test_each_recording_sample_is_decoded_once(tmp_path, monkeypatch):
    """Each recording's M·L samples are decoded once, in pieces read through one open file,
    the background's usable·L samples once, and each excitation's L samples once."""
    L, M, P, skip, usable = 256, 10, 2, 300, 5
    rng = np.random.default_rng(57)
    periods = [rng.uniform(-0.5, 0.5, L) for _ in range(P)]
    recordings = [measured(x, skip + M * L + 50, rng, 1e-3) for x in periods]
    background = 1e-3 * rng.standard_normal(skip + usable * L + 17)
    path = write_session(
        tmp_path, periods, recordings, background, "pcm24",
        period_length=L, segments_per_recording=M, skip_preamble=skip,
    )
    manifest = load_manifest(path)
    decoded, opened = [], Counter()
    decode, open_path = wavio._decode, Path.open

    def counting_decode(buffer, offset, count, bits):
        decoded.append(count)
        return decode(buffer, offset, count, bits)

    def counting_open(self, *args, **kwargs):
        opened[self.name] += 1
        return open_path(self, *args, **kwargs)

    monkeypatch.setattr(wavio, "_decode", counting_decode)
    monkeypatch.setattr(Path, "open", counting_open)
    monkeypatch.setattr(session, "_PIECE_SAMPLES", 3 * L)  # pieces of 3, 3, 3 and 1 segments
    analyze_session(manifest)
    # each excitation is read whole once, and its spectrum serves the estimate and the background
    assert sum(decoded) == P * M * L + usable * L + P * L
    assert len(decoded) == P * 4 + 2 + P
    # a recording is opened to check it, then once for all its pieces; an excitation once
    assert opened == {"rec0.wav": 2, "rec1.wav": 2, "bg.wav": 2, "exc0.wav": 1, "exc1.wav": 1}


def test_nan_in_an_unanalyzed_preamble_is_corrupt_file(tmp_path, capsys):
    L, M = 64, 3
    rng = np.random.default_rng(54)
    period = rng.uniform(-0.5, 0.5, L)
    recording = np.tile(period, M + 1)
    recording[5] = np.nan
    path = write_session(
        tmp_path, [period, period[::-1]], [recording, np.tile(period[::-1], M + 1)],
        period_length=L, segments_per_recording=M, skip_preamble=L,
    )
    rc = main(["analyze", "--manifest", str(path), "--out", str(tmp_path / "r.json")])
    assert rc == 3
    assert json.loads(capsys.readouterr().err)["error"] == "CorruptFile"
    assert not (tmp_path / "r.json").exists()


def test_skip_preamble_defaults_to_one_period(tmp_path):
    L, M = 256, 4
    rng = np.random.default_rng(55)
    periods = [rng.uniform(-0.5, 0.5, L) for _ in range(2)]
    recordings = [measured(x, (M + 1) * L, rng, 1e-3) for x in periods]
    reports = []
    for name, keys in (("given", {"skip_preamble": L}), ("default", {})):
        root = tmp_path / name
        root.mkdir()
        path = write_session(
            root, periods, recordings, period_length=L, segments_per_recording=M, **keys
        )
        assert main(["analyze", "--manifest", str(path), "--out", str(root / "r.csv")]) == 0
        reports.append((root / "r.csv").read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("encoding", ["float32", "pcm24"])
def test_unequal_noise_per_signal_matches_the_plain_model(tmp_path, encoding):
    """P = 4 signals with noise levels 40 dB apart, checked cell by cell.

    Each signal's random level differs, so a statistic over P other than
    the mean (a median, say) moves every random-level cell.
    """
    L, M, P, skip = 512, 5, 4, 700
    rng = np.random.default_rng(56)
    periods = [rng.uniform(-0.5, 0.5, L) for _ in range(P)]
    noise = [1e-4, 1e-3, 1e-2, 1e-4]
    recordings = [measured(x, skip + M * L + 37, rng, s) for x, s in zip(periods, noise)]
    background = 1e-3 * rng.standard_normal(skip + 3 * L + 100)
    path = write_session(
        tmp_path, periods, recordings, background, encoding,
        period_length=L, segments_per_recording=M, skip_preamble=skip,
    )
    out = tmp_path / "r.json"
    assert main(["analyze", "--manifest", str(path), "--smooth", "1/3", "--out", str(out)]) == 0
    report = read_report(out)

    def decoded(x):  # the samples as the file holds them
        if encoding == "float32":
            return x.astype(np.float32).astype(np.float64)
        return np.clip(np.round(x * 2.0**23), -(2.0**23), 2.0**23 - 1) / 2.0**23

    summary, columns = expected_analyze(
        [decoded(x) for x in periods], [decoded(r) for r in recordings], decoded(background),
        L, M, skip, FS, 1.0 / 3.0,
    )
    for key, want in summary.items():
        assert report.summary[key] == pytest.approx(want, abs=1e-9), key
    assert sorted(report.table) == sorted(columns)
    for name, want in columns.items():
        got = np.array([np.nan if v is None else v for v in report.table[name]])
        want = np.where(np.isfinite(want), want, np.nan)
        assert np.array_equal(np.isnan(got), np.isnan(want)), name
        assert np.allclose(got, want, rtol=0, atol=1e-6, equal_nan=True), name


def test_analyze_refuses_a_smoothing_fraction_of_zero(tmp_path):
    period = np.random.default_rng(4).standard_normal(64) * 0.1
    manifest = write_session(tmp_path, [period], [np.tile(period, 3)], period_length=64,
                             segments_per_recording=2)
    with pytest.raises(ValueError, match="fraction must be positive"):
        analyze_session(load_manifest(manifest), smooth_fraction=0)
