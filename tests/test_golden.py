"""Golden report bytes: SHA-256 of every report a small fixed session gives.

The session and the simulation configs are built with plain numpy, so the
hashes pin the numbers and the layout of the reports, not the code that
built the inputs.  A change to any value or to the serialization must
update these hashes on purpose.
"""

import hashlib
import json
import struct

import numpy as np
import pytest

from sgmeasure.cli import main

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


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
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
        "8e85a5752c8e03212740add816d50543aee60c69309fd296c0fae6e57a9b9ab5",
    "analyze-smooth.json":
        "d37097802ef3585956c5da9d3a09e826cded0dc2003353c780384cbc0bc99602",
    "analyze-none.csv":
        "341f902e8482bf81bc551b97316322e72491984f0f4955695af6964b2f8b5727",
    "analyze-none.json":
        "e00aabe6d7024fcb8216a5c15222a838992ba645d15d7320cc8aa11a6743a0f0",
    "regression.csv":
        "62f6a127648d65ebb70fd71412f15ae6d53a828f7eff6eecbcf67fe7b319950b",
    "regression.json":
        "84a690d1a8ce4d6cbe02937d5fcdfff0a4cfc7bb45d849d1f00181d8dfa98fb4",
    "max-deviation.csv":
        "fbf988cb85fa7b01175d7bde11d58ba3d5915bb9182a388bf4e349bf01e591d5",
    "random.json":
        "003151c24846bc200965577d30d34bcd64637a2140437fe2ecb953b1d18ef15b",
    "nonlinearity.csv":
        "4fed07845b1724483eba3877a7ef6ee268deb0474fcc9f3e4d50d194479ee2af",
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", [n for n in GOLDEN if n.startswith("analyze")])
def test_analyze_report_bytes(session, tmp_path, name):
    smooth = "1/3" if "smooth" in name else "none"
    out = tmp_path / name
    argv = ["analyze", "--manifest", str(session / "session.json"), "--smooth", smooth]
    assert main(argv + ["--out", str(out)]) == 0
    assert sha256(out) == GOLDEN[name]


@pytest.mark.parametrize("name", [n for n in GOLDEN if not n.startswith("analyze")])
def test_simulate_report_bytes(tmp_path, name):
    experiment = name.rsplit(".", 1)[0]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SIMULATE_CONFIGS[experiment]))
    out = tmp_path / name
    argv = ["simulate", "--config", str(config), "--experiment", experiment]
    assert main(argv + ["--out", str(out)]) == 0
    assert sha256(out) == GOLDEN[name]
