"""Fuzz test of the CLI's error contract.

Whatever argv, manifest, simulate config or WAV file it is given,
``cli.main`` returns 0, or 3 or 4 with a package error named on stderr, or
argparse exits with 2; any other exception is a bug.  A WAV file of other
than one channel never exits 0, and a report written with exit 0 has
finite summary levels and a finite fitted line.  Each input starts valid
and each of its parts is mutated now and then; a manifest or config may
also have raw bytes spliced in (bad UTF-8, an integer longer than Python
parses).  Inputs stay small (periods of at most 64 samples but in an
explicit example, at most 4 repeats, WAV files of at most 2 KiB, JSON files
of at most 5 KB), so no run allocates much.
"""

import contextlib
import inspect
import io
import json
import math
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sgmeasure import errors, simulate
from sgmeasure.cli import main
from sgmeasure.wavio import read_audio

from oracles import read_report

FS = 8000
FUZZ = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=200,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
GUID_TAIL = bytes.fromhex("000000001000800000aa00389b71")
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70), st.text(max_size=4),
    st.floats(allow_nan=False, allow_infinity=False), st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=1),
)
# Levels in dB that reach float64's limits through 10**(dB/10) or 10**(dB/20).
EXTREME_DB = st.one_of(
    st.floats(-7000.0, 7000.0),
    st.sampled_from([-6200.0, -3100.0, -3080.0, -3060.0, 64.0, 3000.0, 3100.0, 6160.0]),
)
LEVELS_DB = st.one_of(st.floats(-60.0, 40.0), EXTREME_DB)
# Bytes that are not UTF-8 or not JSON, and more digits than int() takes.
RAW_INSERTS = st.one_of(st.binary(min_size=1, max_size=8), st.just(b"9" * 4301))


def mutations(draw, kinds: tuple[str, ...]) -> set[str]:
    """No mutation about half the time, else one or two of ``kinds``."""
    return draw(st.one_of(st.just(set()), st.sets(st.sampled_from(kinds), min_size=1, max_size=2)))


def json_bytes(draw, doc, splice: bool) -> bytes:
    """``doc`` as JSON, or with raw bytes spliced in, often just before a value."""
    blob = json.dumps(doc).encode()
    if splice:
        values = [i + 2 for i in range(len(blob)) if blob[i:i + 2] == b": "]
        at = draw(st.one_of(st.sampled_from(values or [0]), st.integers(0, len(blob))))
        blob = blob[:at] + draw(RAW_INSERTS) + blob[at:]
    return blob


def riff(chunks) -> bytes:
    body = b"WAVE" + b"".join(
        cid + struct.pack("<I", len(data)) + data + b"\0" * (len(data) & 1)
        for cid, data in chunks
    )
    return b"RIFF" + struct.pack("<I", len(body)) + body


WAV_MUTATIONS = (
    "code", "bits", "channels", "rate", "extensible", "samples", "odd size", "layout", "cut",
)


@st.composite
def wav_files(draw, min_samples: int = 0):
    """(file, channel count): a mono WAV file, valid or with one or two of its fmt fields,
    sizes or chunks mutated; a file of any other channel count must never be read."""
    mutate = mutations(draw, WAV_MUTATIONS)
    code, bits = draw(st.sampled_from([(1, 16), (1, 24), (3, 32)]))
    channels, rate = 1, FS
    if "code" in mutate:
        code = draw(st.sampled_from([6, 0xFFFE, 1, 3]))
    if "bits" in mutate:
        bits = draw(st.sampled_from([8, 16, 24, 32, 64]))
    if "channels" in mutate:
        channels = draw(st.sampled_from([0, 2, 3]))
    if "rate" in mutate:
        rate = draw(st.sampled_from([0, 1, 2**32 - 1]))
    extensible = code == 0xFFFE or "extensible" in mutate
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", 0xFFFE if extensible else code, channels, rate,
                      rate * block % 2**32, block % 2**16, bits)
    if extensible:
        sub = code if code in (1, 3) else draw(st.sampled_from([1, 3, 6]))
        tail = draw(st.sampled_from([GUID_TAIL, bytes(14)]))
        fmt += struct.pack("<HHIH", draw(st.sampled_from([22, 0])), bits, 0, sub) + tail
        fmt = fmt[: draw(st.sampled_from([40, 30, 16]))]
    size = min(min_samples * max(block, 1), 1200)
    if code == 3 and bits == 32:
        # any float32 holds NaN, infinities and values near float32's range
        values = st.floats(width=32) if "samples" in mutate else st.floats(-1.0, 1.0, width=32)
        samples = draw(st.lists(values, min_size=size // 4, max_size=300))
        data = np.asarray(samples, dtype="<f4").tobytes()
    else:
        data = draw(st.binary(min_size=size, max_size=1200))
    data = data[: len(data) - (len(data) % block if block else 0)]
    if "odd size" in mutate:
        data = data[: len(data) - draw(st.integers(1, 3))]
    chunks = [(b"fmt ", fmt), (b"data", data)]
    if draw(st.booleans()):
        chunks.insert(draw(st.integers(0, 2)), (b"LIST", draw(st.binary(max_size=9))))
    if "layout" in mutate:
        chunks = draw(st.sampled_from([chunks[::-1], chunks[:1], chunks[1:]]))
    blob = riff(chunks)
    if "cut" in mutate:  # anywhere, the chunk sizes left as written
        blob = blob[: draw(st.integers(0, len(blob)))]
    assert len(blob) <= 2048
    return blob, channels


def run(argv: list[str]) -> int:
    """``main(argv)``'s exit code, with argparse's exit as 2; any other exception propagates.

    An exit of 3 or 4 must report a package error, named in the JSON on stderr.
    """
    stderr = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            rc = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            return 2
    assert rc in (0, 3, 4), argv
    if rc:
        error = getattr(errors, json.loads(stderr.getvalue())["error"], None)
        assert isinstance(error, type) and issubclass(error, errors.SgMeasureError), argv
        assert issubclass(error, errors.InputFormatError) == (rc == 3), argv
    return rc


def assert_finite(summary: dict, keys) -> None:
    """Each of ``keys`` in a written report's summary is a finite number (a non-finite one is
    written as null)."""
    for key in keys:
        value = summary[key]
        assert value is not None and math.isfinite(value), (key, summary)


def option(valid, junk=("", "x", "2.5", "1e3", "-1")):
    """An option's text: a value of ``valid``, or text argparse may refuse."""
    return st.one_of(valid.map(str), st.sampled_from(junk))


@FUZZ
@given(
    wav=wav_files(min_samples=64),
    period=st.one_of(st.integers(2, 64).map(str), option(st.integers(-3, 64))),
    theta_db=st.one_of(st.floats(-60.0, 40.0).map(repr), option(EXTREME_DB, ("nan", "1e400"))),
    missing_input=st.sampled_from([False] * 7 + [True]),
)
def test_safeguard_exits_with_a_documented_code(wav, period, theta_db, missing_input):
    blob, channels = wav
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        infile, out = tmp / "in.wav", tmp / "out.wav"
        if not missing_input:
            infile.write_bytes(blob)
        rc = run(["safeguard", "--in", str(infile), "--period", period,
                  f"--theta-db={theta_db}", "--out", str(out), "--report", str(tmp / "r.json")])
        if rc == 0:
            assert channels == 1
            assert read_audio(out)[0].size == int(period)


@FUZZ
@given(wav=wav_files(), repeats=st.one_of(st.integers(1, 4).map(str), option(st.integers(-1, 4))))
def test_make_test_exits_with_a_documented_code(wav, repeats):
    blob, channels = wav
    with tempfile.TemporaryDirectory() as tmp:
        infile, out = Path(tmp) / "in.wav", Path(tmp) / "out.wav"
        infile.write_bytes(blob)
        rc = run(["make-test", "--in", str(infile), "--repeats", repeats, "--out", str(out)])
        if rc == 0:
            assert channels == 1
            assert read_audio(out)[0].size == int(repeats) * read_audio(infile)[0].size


def periodic_wav(period: np.ndarray, repeats: int) -> bytes:
    payload = np.tile(period, repeats).astype("<f4").tobytes()
    return riff([(b"fmt ", struct.pack("<HHIIHH", 3, 1, FS, FS * 4, 4, 32)), (b"data", payload)])


MANIFEST_KEYS = (
    "schema_version", "sample_rate", "period_length", "segments_per_recording",
    "skip_preamble", "entries", "background_recording", "seed", "theta_reference_db",
    "calibration", "channel",
)


SESSION_MUTATIONS = (
    "gain", "entry key", "missing file", "bad file", "key dropped", "key set", "raw bytes",
)


@st.composite
def sessions(draw):
    """(files, manifest bytes, whether a WAV has other than one channel): a small session of
    float32 WAVs, valid or mutated once or twice."""
    mutate = mutations(draw, SESSION_MUTATIONS)
    length, m_count = draw(st.integers(2, 64)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    gain = draw(st.sampled_from([0.0, 1e-30, 1e30])) if "gain" in mutate else 1.0
    files, entries, multichannel = {}, [], False
    for p in range(draw(st.integers(1, 3))):
        period = rng.uniform(-0.5, 0.5, length)
        files[f"x{p}.wav"] = periodic_wav(period, 1)
        recorded = gain * period + 1e-3 * rng.standard_normal(length)
        files[f"y{p}.wav"] = periodic_wav(recorded, m_count + 1)
        entries.append({"excitation": f"x{p}.wav", "recording": f"y{p}.wav"})
    manifest = {
        "sample_rate": FS, "period_length": length, "segments_per_recording": m_count,
        "skip_preamble": length, "entries": entries,
    }
    if draw(st.booleans()):
        files["bg.wav"] = periodic_wav(1e-3 * rng.standard_normal(length), draw(st.integers(0, 3)))
        manifest["background_recording"] = "bg.wav"
    if "entry key" in mutate:
        entries[0]["gain"] = 1
    if "missing file" in mutate:
        entries[0]["excitation"] = "nowhere.wav"
    if "bad file" in mutate:
        files["bad.wav"], channels = draw(wav_files())
        multichannel = channels != 1
        entries[0][draw(st.sampled_from(["excitation", "recording"]))] = "bad.wav"
    if "key dropped" in mutate:
        manifest.pop(draw(st.sampled_from(MANIFEST_KEYS)), None)
    if "key set" in mutate:
        manifest[draw(st.sampled_from(MANIFEST_KEYS))] = draw(JSON_VALUES)
    return files, json_bytes(draw, manifest, "raw bytes" in mutate), multichannel


@FUZZ
@given(
    session=sessions(),
    smooth=st.one_of(
        st.sampled_from(["none", "1/3", "1", "200", "3000"]), option(st.just("1/6"), ("0", "1/0")),
    ),
    suffix=st.sampled_from([".json", ".csv"]),
)
def test_analyze_exits_with_a_documented_code(session, smooth, suffix):
    files, manifest, multichannel = session
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, data in files.items():
            (tmp / name).write_bytes(data)
        (tmp / "m.json").write_bytes(manifest)
        out = tmp / f"report{suffix}"
        rc = run(["analyze", "--manifest", str(tmp / "m.json"), "--smooth", smooth,
                  "--out", str(out)])
        assert not (rc == 0 and multichannel)
        if rc == 0:
            assert_finite(read_report(out).summary,
                          ("normalization_db", "output_power_db", "excitation_power_db"))


EXPERIMENTS = {
    "regression": simulate.run_flooring_regression,
    "max-deviation": simulate.run_max_deviation_sweep,
    "random": simulate.run_random_response_experiment,
    "nonlinearity": simulate.run_nonlinearity_experiment,
}
CONFIG_VALUES = {
    "seed": st.integers(0, 2**32),
    "period_length": st.integers(2, 64),
    "m_count": st.integers(2, 4),
    "p_count": st.integers(2, 4),
    "min_changed_bins": st.integers(0, 64),
    "max_changed_fraction": st.floats(0.0, 1.0),
    "alpha": st.one_of(st.floats(0.0, 2.0), st.floats(0.0, 1000.0)),
    "snr_db": st.one_of(LEVELS_DB, st.just(float("inf"))),
    "theta_db": LEVELS_DB,
    "theta_db_list": st.lists(LEVELS_DB, min_size=1, max_size=4),
    "theta_db_grid": st.lists(LEVELS_DB, min_size=1, max_size=4),
    "input_level_db_list": st.lists(LEVELS_DB, min_size=1, max_size=3),
    "snr_db_list": st.lists(st.one_of(LEVELS_DB, st.just(float("inf"))), min_size=1, max_size=3),
}


@st.composite
def simulate_runs(draw):
    """(experiment, config bytes): a few of the runner's parameters set, now and then one mutated
    or raw bytes spliced in."""
    experiment = draw(st.sampled_from(sorted(EXPERIMENTS)))
    params = sorted(inspect.signature(EXPERIMENTS[experiment]).parameters)
    config = {"period_length": draw(st.integers(2, 64))}
    for key in draw(st.lists(st.sampled_from(params), max_size=3, unique=True)):
        config[key] = draw(CONFIG_VALUES[key])
    if draw(st.integers(0, 2)) == 0:
        config[draw(st.sampled_from([*params, "unknown"]))] = draw(JSON_VALUES)
    for key in ("m_count", "p_count", "period_length"):  # larger sizes allocate, up to the budget
        if type(config.get(key)) is int and config[key] > 64:
            config[key] = 64
    return experiment, json_bytes(draw, config, draw(st.integers(0, 5)) == 0)


# flooring changes no bin of this noise period at -80 or -70 dB: those points are not fitted
NO_BIN_CHANGED = json.dumps({
    "seed": 1, "period_length": 4096, "theta_db_grid": [-80.0, -70.0, -10.0, 0.0],
    "min_changed_bins": 0,
}).encode()


@FUZZ
@given(experiment_config=simulate_runs(), suffix=st.sampled_from([".json", ".csv"]))
@example(experiment_config=("regression", NO_BIN_CHANGED), suffix=".json")
def test_simulate_exits_with_a_documented_code(experiment_config, suffix):
    experiment, config = experiment_config
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "c.json").write_bytes(config)
        out = tmp / f"o{suffix}"
        rc = run(["simulate", "--config", str(tmp / "c.json"), "--experiment", experiment,
                  "--out", str(out)])
        if rc == 0:
            summary = read_report(out).summary
            assert_finite(summary, {"slope", "intercept"} & summary.keys())
