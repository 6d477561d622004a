"""Golden reports: the SHA-256 and the values of every report a small fixed session gives.

The session and the simulation configs are built with plain numpy, so the
hashes pin the numbers and the layout of the reports, not the code that
built the inputs.  A change to any value or to the serialization must
update these hashes on purpose.

``golden_values.json`` holds the cells of the same reports.  They are
compared with a tolerance (1e-9 absolute for float cells, exact for the
rest), so a hash that fails while its values pass is a rounding-level
change, and one that fails together with its values is a real change.
Re-record them with ``python tests/test_golden.py NAME...`` only together
with such a real change.
"""

import hashlib
import json
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from sgmeasure.cli import main

from oracles import read_report

FS = 48000
L = 512
M = 3
P = 2


def write_float_wav(path, samples, rate=FS):
    payload = np.asarray(samples, dtype="<f4").tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload), b"WAVE",
        b"fmt ", 16, 3, 1, rate, rate * 4, 4, 32,
        b"data", len(payload),
    )
    path.write_bytes(header + payload)


def floored_period(rng):
    """A decaying-tone period with every DFT magnitude raised to the mean."""
    n = np.arange(L)
    period = np.sin(2 * np.pi * 7 * n / L) * np.exp(-n / 90.0)
    period += 0.05 * rng.standard_normal(L)
    bins = np.fft.rfft(period)
    mag = np.abs(bins)
    floor = np.mean(mag)
    phase = np.where(mag > 0, bins / np.where(mag > 0, mag, 1.0), 1.0)
    bins = np.where(mag < floor, floor * phase, bins)
    out = np.fft.irfft(bins, n=L)
    return (0.25 * out / np.max(np.abs(out))).astype(np.float32)


def room(x, rng):
    """Short FIR, mild tanh and additive noise over a whole tiled stream."""
    h = rng.standard_normal(24) * np.exp(-np.arange(24) / 5.0)
    y = np.fft.irfft(np.fft.rfft(x) * np.fft.rfft(h, n=x.size), n=x.size)
    y = np.tanh(1.5 * y) / 1.5
    return y + 1e-3 * rng.standard_normal(y.size)


def build_session(root):
    """Write the session's WAVs and manifest into ``root``."""
    rng = np.random.default_rng(20211)
    entries = []
    for p in range(P):
        period = floored_period(rng)
        write_float_wav(root / f"exc{p}.wav", period)
        stream = np.tile(period.astype(np.float64), M + 1)
        write_float_wav(root / f"rec{p}.wav", room(stream, rng))
        entries.append({"excitation": f"exc{p}.wav", "recording": f"rec{p}.wav"})
    write_float_wav(root / "bg.wav", 1e-3 * rng.standard_normal(L + 2 * L + 100))
    manifest = {
        "schema_version": 1,
        "sample_rate": FS,
        "period_length": L,
        "segments_per_recording": M,
        "skip_preamble": L,
        "entries": entries,
        "background_recording": "bg.wav",
        "seed": 7,
        "theta_reference_db": 0.0,
        "calibration": {"mic": "test", "gain_db": -3.5},
    }
    (root / "session.json").write_text(json.dumps(manifest))
    return root


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    return build_session(tmp_path_factory.mktemp("golden"))


SIMULATE_CONFIGS = {
    "regression": {"seed": 5, "period_length": 4096, "min_changed_bins": 10},
    "max-deviation": {
        "seed": 5, "snr_db_list": [20.0, 60.0], "theta_db_list": [-20.0, 0.0, 20.0],
        "period_length": 1024,
    },
    "random": {
        "seed": 5, "theta_db_list": [-10.0, 10.0], "snr_db": 40.0, "m_count": 3,
        "period_length": 1024,
    },
    "nonlinearity": {
        "seed": 5, "input_level_db_list": [0.0, -12.0, -24.0], "p_count": 2,
        "m_count": 3, "period_length": 1024,
    },
}

# Report bytes are part of the interface: change a hash only together with a
# deliberate change to the numbers or the format.
GOLDEN = {
    "analyze-smooth.csv":
        "c127c9f744b711973b292149a114e4e7c4aa81dd979cc1b7ed6972d86fd7e696",
    "analyze-smooth.json":
        "c2d25290338532970cb9cb5bcd8614882c40381247e02cd6bc561371ca82d8d0",
    "analyze-none.csv":
        "b54fd3e1b1074316ee3d34972c140204e6e4aef9405dcebe2115679cbf7a10b8",
    "analyze-none.json":
        "0edbeccdfa2a0be502714433634d42ae4d4fa5b9990b9335d676393422401b78",
    "regression.csv":
        "3d5f15c24c6df6810f65f94ca77d603bab0d971e9608e361d81bd19edd5d6b81",
    "regression.json":
        "5d2aba990da7c48285110a0ad686a59901591c268b5245d935dc883c211763cc",
    "max-deviation.csv":
        "a2830ca269c461037ee490a8698610fd8bc760c4404efb4adb0f0c8c5b9862a1",
    "random.json":
        "003151c24846bc200965577d30d34bcd64637a2140437fe2ecb953b1d18ef15b",
    "nonlinearity.csv":
        "68fcc75ca047f2ebb81d92019de4db04f8a599cbb4968373d86bde68caaff1eb",
}


VALUES = Path(__file__).with_name("golden_values.json")
FLOAT_TOLERANCE = 1e-9


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_golden_report(name, session, out_dir):
    """Run the CLI command that writes report ``name`` into ``out_dir``; return its path."""
    out = out_dir / name
    if name.startswith("analyze"):
        smooth = "1/3" if "smooth" in name else "none"
        argv = ["analyze", "--manifest", str(session / "session.json"), "--smooth", smooth]
    else:
        experiment = name.rsplit(".", 1)[0]
        config = out_dir / f"{experiment}.config.json"
        config.write_text(json.dumps(SIMULATE_CONFIGS[experiment]))
        argv = ["simulate", "--config", str(config), "--experiment", experiment]
    assert main(argv + ["--out", str(out)]) == 0
    return out


def report_values(path):
    report = read_report(path)
    return {"summary": report.summary, "table": report.table}


def assert_values_match(actual, expected, where=""):
    """Float cells within FLOAT_TOLERANCE absolute; integer, null and text cells exactly."""
    if isinstance(expected, dict):
        assert isinstance(actual, dict) and list(actual) == list(expected), where
        for key in expected:
            assert_values_match(actual[key], expected[key], f"{where}/{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), where
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_values_match(a, e, f"{where}[{i}]")
    elif type(expected) is float:
        assert type(actual) is float, f"{where}: {actual!r} is not a float"
        assert abs(actual - expected) <= FLOAT_TOLERANCE, f"{where}: {actual!r} != {expected!r}"
    else:
        assert type(actual) is type(expected) and actual == expected, (
            f"{where}: {actual!r} != {expected!r}"
        )


@pytest.mark.parametrize("name", [n for n in GOLDEN if n.startswith("analyze")])
def test_analyze_report_bytes(session, tmp_path, name):
    assert sha256(write_golden_report(name, session, tmp_path)) == GOLDEN[name]


@pytest.mark.parametrize("name", [n for n in GOLDEN if not n.startswith("analyze")])
def test_simulate_report_bytes(tmp_path, name):
    assert sha256(write_golden_report(name, None, tmp_path)) == GOLDEN[name]


@pytest.mark.parametrize("name", list(GOLDEN))
def test_report_values_match_recorded(session, tmp_path, name):
    expected = json.loads(VALUES.read_text())[name]
    assert_values_match(report_values(write_golden_report(name, session, tmp_path)), expected)


def record_values(names):
    """Write the current values of the named golden reports into golden_values.json."""
    values = json.loads(VALUES.read_text()) if VALUES.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        session = build_session(root)
        for name in names:
            values[name] = report_values(write_golden_report(name, session, root))
    VALUES.write_text(
        json.dumps({n: values[n] for n in GOLDEN if n in values}, indent=1) + "\n"
    )


if __name__ == "__main__":
    record_values(sys.argv[1:] or list(GOLDEN))
