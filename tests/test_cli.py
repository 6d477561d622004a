import errno
import functools
import json
import os
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import sgmeasure
from sgmeasure import cli
from sgmeasure.cli import main
from sgmeasure.safeguard import safeguard_period
from sgmeasure.simulate import simulate_chain, white_noise_period
from sgmeasure.wavio import read_audio, write_audio

from oracles import read_report

FS = 44100
L = 1024


def write_period(path, seed):
    write_audio(path, white_noise_period(L, seed=seed) * 0.05, FS)


def make_session(tmp_path, p_count=2, m_count=4, snr_db=float("inf"), seed=9):
    """Simulated session on disk: safeguarded excitations + recordings + manifest."""
    entries = []
    for p in range(p_count):
        safeguarded, _ = safeguard_period(white_noise_period(L, seed=seed + p), 0.0)
        exc_path = tmp_path / f"exc{p}.wav"
        write_audio(exc_path, safeguarded, FS)
        # re-read so the recording is built from the same float32 period
        period = read_audio(exc_path)[0]
        recorded = simulate_chain(np.tile(period, m_count + 1), snr_db=snr_db, seed=seed + 50 + p)
        rec_path = tmp_path / f"rec{p}.wav"
        write_audio(rec_path, recorded, FS)
        entries.append({"excitation": exc_path.name, "recording": rec_path.name})
    manifest = {
        "schema_version": 1,
        "sample_rate": FS,
        "period_length": L,
        "segments_per_recording": m_count,
        "skip_preamble": L,
        "entries": entries,
    }
    path = tmp_path / "session.json"
    path.write_text(json.dumps(manifest))
    return path


def test_safeguard_command_vacuous_floor(tmp_path):
    infile = tmp_path / "in.wav"
    write_period(infile, seed=1)
    out = tmp_path / "out.wav"
    report = tmp_path / "report.json"
    rc = main([
        "safeguard", "--in", str(infile), "--period", str(L),
        "--theta-db", "-200", "--out", str(out), "--report", str(report),
    ])
    assert rc == 0
    doc = json.loads(report.read_text())
    assert doc["bins_changed"] == 0
    assert doc["added_component_db"] is None
    assert np.array_equal(read_audio(out)[0], read_audio(infile)[0])


def test_safeguard_command_added_level(tmp_path):
    infile = tmp_path / "in.wav"
    write_audio(infile, white_noise_period(100000, seed=2) * 0.01, FS)
    out = tmp_path / "out.wav"
    report = tmp_path / "report.json"
    rc = main([
        "safeguard", "--in", str(infile), "--period", "100000",
        "--theta-db", "0", "--out", str(out), "--report", str(report),
    ])
    assert rc == 0
    doc = json.loads(report.read_text())
    assert doc["added_component_db"] == pytest.approx(-10.3, abs=1.0)
    assert 0 < doc["fraction_changed"] < 1


def test_safeguard_command_short_input(tmp_path):
    infile = tmp_path / "in.wav"
    write_period(infile, seed=3)
    rc = main([
        "safeguard", "--in", str(infile), "--period", str(L * 2),
        "--out", str(tmp_path / "o.wav"), "--report", str(tmp_path / "r.json"),
    ])
    assert rc == 3


@pytest.mark.parametrize("option", [
    "--period=-4000", "--period=0", "--period=1", "--theta-db=nan", "--theta-db=inf",
    "--theta-db=-inf", "--theta-db=abc",
])
def test_safeguard_bad_period_or_level_is_usage_error(tmp_path, capsys, option):
    # a negative period once sliced from the end and floored the last samples
    infile = tmp_path / "in.wav"
    write_audio(infile, white_noise_period(4096, seed=3) * 0.05, FS)
    out, report = tmp_path / "o.wav", tmp_path / "r.json"
    args = ["--period=4096", option] if option.startswith("--theta-db") else [option]
    with pytest.raises(SystemExit) as exc:
        main(["safeguard", "--in", str(infile), *args, "--out", str(out), "--report", str(report)])
    assert exc.value.code == 2
    assert option.split("=")[0] in capsys.readouterr().err
    assert not out.exists() and not report.exists()


@pytest.mark.parametrize("theta_db,error", [
    ("3000", "ClippedOutput"), ("6160", "LevelOutOfRange"), ("7000", "LevelOutOfRange"),
    ("-7000", "LevelOutOfRange"),
])
def test_safeguard_level_beyond_float_range_is_analysis_error(tmp_path, capsys, theta_db, error):
    """The floored period exceeds float32's range, or float64's in the inverse DFT, or the
    threshold itself overflows float64 (7000 dB) or underflows to zero (-7000 dB)."""
    infile = tmp_path / "in.wav"
    write_audio(infile, white_noise_period(64, seed=3) * 0.05, FS)
    out, report = tmp_path / "o.wav", tmp_path / "r.json"
    rc = main(["safeguard", "--in", str(infile), "--period", "64", "--theta-db", theta_db,
               "--out", str(out), "--report", str(report)])
    assert rc == 4
    assert json.loads(capsys.readouterr().err)["error"] == error
    assert not out.exists() and not report.exists()


def test_safeguard_all_zero_period_is_analysis_error(tmp_path, capsys):
    """A silent period has no mean magnitude to set the level against."""
    infile = tmp_path / "in.wav"
    write_audio(infile, np.zeros(64), FS)
    out, report = tmp_path / "o.wav", tmp_path / "r.json"
    rc = main(["safeguard", "--in", str(infile), "--period", "64",
               "--out", str(out), "--report", str(report)])
    assert rc == 4
    assert json.loads(capsys.readouterr().err)["error"] == "DegenerateSpectrum"
    assert not out.exists() and not report.exists()


def test_make_test_identity(tmp_path):
    infile = tmp_path / "in.wav"
    write_period(infile, seed=4)
    out = tmp_path / "out.wav"
    assert main(["make-test", "--in", str(infile), "--repeats", "1", "--out", str(out)]) == 0
    assert np.array_equal(read_audio(out)[0], read_audio(infile)[0])


def test_make_test_six_repeats_length(tmp_path):
    infile = tmp_path / "in.wav"
    write_period(infile, seed=5)
    out = tmp_path / "out.wav"
    assert main(["make-test", "--in", str(infile), "--repeats", "6", "--out", str(out)]) == 0
    assert read_audio(out)[0].size == 6 * L


def test_make_test_writes_the_tiled_stream(tmp_path):
    infile, out, tiled = tmp_path / "in.wav", tmp_path / "out.wav", tmp_path / "tiled.wav"
    write_period(infile, seed=7)
    assert main(["make-test", "--in", str(infile), "--repeats", "5", "--out", str(out)]) == 0
    write_audio(tiled, np.tile(read_audio(infile)[0], 5), FS)
    assert out.read_bytes() == tiled.read_bytes()


def test_make_test_holds_one_period(tmp_path):
    """2048 repeats of 1024 samples: the stream as float64 and as float32 would be 24 MiB."""
    infile, out = tmp_path / "in.wav", tmp_path / "out.wav"
    write_period(infile, seed=8)
    tracemalloc.start()
    try:
        assert main(["make-test", "--in", str(infile), "--repeats", "2048",
                     "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert out.stat().st_size == 44 + 4 * 2048 * L


def test_make_test_zero_repeats_is_usage_error(tmp_path):
    infile = tmp_path / "in.wav"
    write_period(infile, seed=6)
    with pytest.raises(SystemExit) as exc:
        main(["make-test", "--in", str(infile), "--repeats", "0", "--out", str(tmp_path / "o.wav")])
    assert exc.value.code == 2


@pytest.mark.parametrize("samples", [0, 1])
def test_make_test_shorter_than_a_period_is_input_error(tmp_path, capsys, samples):
    infile, out = tmp_path / "in.wav", tmp_path / "o.wav"
    write_audio(infile, np.full(samples, 0.5), FS)
    assert main(["make-test", "--in", str(infile), "--repeats", "2", "--out", str(out)]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "InputFormatError"
    assert not out.exists()


@pytest.mark.parametrize("repeats", [2**24, 2**40])
def test_make_test_beyond_a_wav_data_chunk_is_input_error(tmp_path, capsys, repeats):
    """Repeats of 64 samples whose float32 data passes 2**32 - 37 bytes (2**24 repeats
    pass it by 37 bytes) are refused from the sizes, before any stream is made."""
    infile, out = tmp_path / "in.wav", tmp_path / "o.wav"
    write_audio(infile, np.linspace(-0.5, 0.5, 64), FS)
    argv = ["make-test", "--in", str(infile), "--repeats", str(repeats), "--out", str(out)]
    assert main(argv) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "UnsupportedFormat"
    assert not out.exists()


RUNNERS = ("run_flooring_regression", "run_max_deviation_sweep",
           "run_random_response_experiment", "run_nonlinearity_experiment")


@pytest.mark.parametrize("experiment,config", [
    ("regression", {"period_length": 10**16}),
    ("regression", {"period_length": 2**26 + 1}),
    ("max-deviation", {"period_length": 2**25 + 1}),
    ("random", {"period_length": 2**24 + 1, "m_count": 3}),
    ("random", {"period_length": 2, "m_count": 2**25}),
    ("nonlinearity", {"period_length": 2**24 + 1, "m_count": 3}),
    ("nonlinearity", {"period_length": 2, "p_count": 2**25 + 1}),
], ids=["regression 10**16", "regression", "max-deviation", "random", "random m_count",
        "nonlinearity", "nonlinearity p_count"])
def test_simulate_beyond_the_sample_budget_is_input_error(
    tmp_path, capsys, monkeypatch, experiment, config
):
    """A config whose largest array passes 2**26 samples (by at most 4) is refused from
    its sizes; the runners are stubbed, so a missing check fails without allocating."""
    for name in RUNNERS:
        @functools.wraps(getattr(cli, name))
        def never(*args, **kwargs):
            raise AssertionError("the runner was called")
        monkeypatch.setattr(cli, name, never)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "o.csv"
    rc = main(["simulate", "--config", str(path), "--experiment", experiment, "--out", str(out)])
    assert rc == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "InputFormatError"
    assert "budget of 67108864" in json.loads(lines[0])["message"]
    assert not out.exists()


@pytest.mark.parametrize("experiment,config,key", [
    ("regression", {"period_length": 256, "min_changed_bins": 0}, "period_length"),
    ("max-deviation", {"period_length": 128, "theta_db_list": [0.0]}, "period_length"),
    ("random", {"period_length": 64, "m_count": 3, "theta_db_list": [0.0]}, "m_count"),
    ("nonlinearity", {"period_length": 64, "m_count": 3, "input_level_db_list": [0.0]},
     "m_count"),
    ("nonlinearity", {"period_length": 32, "p_count": 8, "input_level_db_list": [0.0]},
     "p_count"),
])
def test_simulate_runs_at_the_sample_budget_and_refuses_one_more(
    tmp_path, capsys, monkeypatch, experiment, config, key
):
    """With the budget set to 256 samples, each runner's largest array at 256 runs."""
    monkeypatch.setattr(cli, "SIMULATE_MAX_SAMPLES", 256)
    for change, rc in (({}, 0), ({key: config[key] + 1}, 3)):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**config, **change}))
        out = tmp_path / f"o{rc}.csv"
        argv = ["simulate", "--config", str(path), "--experiment", experiment, "--out", str(out)]
        assert main(argv) == rc
        assert out.exists() == (rc == 0)
    assert "budget of 256" in json.loads(capsys.readouterr().err)["message"]


def test_analyze_noiseless_session_recovers_unit_gain(tmp_path):
    manifest = make_session(tmp_path)
    out = tmp_path / "report.json"
    rc = main(["analyze", "--manifest", str(manifest), "--out", str(out)])
    assert rc == 0
    report = read_report(out)
    gains = report.table["lti_gain_db"]
    assert max(abs(g) for g in gains) < 1e-6
    assert report.summary["p_count"] == 2
    assert report.table["frequency_hz"][1] == pytest.approx(FS / L)
    assert len(gains) == L // 2 + 1


def test_analyze_insufficient_repetitions_exit_code(tmp_path, capsys):
    manifest = make_session(tmp_path, m_count=1)
    rc = main(["analyze", "--manifest", str(manifest), "--out", str(tmp_path / "r.json")])
    assert rc == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InsufficientRepetitions"


def test_analyze_recording_shorter_than_its_segments_is_analysis_error(tmp_path, capsys):
    """A recording of 3 periods cannot hold a preamble and M = 4 segments."""
    manifest = make_session(tmp_path, m_count=4)
    period = read_audio(tmp_path / "exc1.wav")[0]
    write_audio(tmp_path / "rec1.wav", np.tile(period, 3), FS)
    rc = main(["analyze", "--manifest", str(manifest), "--out", str(tmp_path / "r.json")])
    assert rc == 4
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "StreamTooShort"
    assert not (tmp_path / "r.json").exists()


def test_analyze_with_background_column(tmp_path):
    manifest_path = make_session(tmp_path, snr_db=40.0)
    doc = json.loads(manifest_path.read_text())
    noise = np.random.default_rng(77).standard_normal(3 * L) * 1e-4
    write_audio(tmp_path / "bg.wav", noise, FS)
    doc["background_recording"] = "bg.wav"
    manifest_path.write_text(json.dumps(doc))
    out = tmp_path / "report.csv"
    rc = main(["analyze", "--manifest", str(manifest_path), "--smooth", "1/3", "--out", str(out)])
    assert rc == 0
    report = read_report(out)
    assert "background_level_db" in report.table
    assert "lti_gain_smooth_db" in report.table
    assert report.summary["smoothing_fraction"] == pytest.approx(1 / 3)


def test_analyze_zero_bin_excitation_exit_code(tmp_path, capsys):
    manifest = make_session(tmp_path)
    write_audio(tmp_path / "exc1.wav", np.full(L, 0.25), FS)
    rc = main(["analyze", "--manifest", str(manifest), "--out", str(tmp_path / "r.json")])
    assert rc == 4
    assert json.loads(capsys.readouterr().err)["error"] == "ZeroBinExcitation"


def test_analyze_silent_recordings_is_analysis_error(tmp_path, capsys):
    manifest = make_session(tmp_path)
    for p in range(2):
        write_audio(tmp_path / f"rec{p}.wav", np.zeros(5 * L), FS)
    rc = main(["analyze", "--manifest", str(manifest), "--out", str(tmp_path / "r.json")])
    assert rc == 4
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "SilentRecording"
    assert "rec0.wav" in error["message"]


def test_analyze_file_rate_unlike_the_manifest_is_input_error(tmp_path, capsys):
    manifest = make_session(tmp_path, m_count=2)
    doc = json.loads(manifest.read_text())
    doc["sample_rate"] = 48000
    manifest.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    assert main(["analyze", "--manifest", str(manifest), "--out", str(out)]) == 3
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "SampleRateMismatch"
    assert str(tmp_path / "exc0.wav") in error["message"]
    assert "44100 Hz" in error["message"] and "48000 Hz" in error["message"]
    assert not out.exists()


@pytest.mark.parametrize("smooth", ["1/0", "0/0", "abc", "-1/3", "0.0", "1e400"])
def test_analyze_invalid_smooth_is_usage_error(tmp_path, capsys, smooth):
    manifest = make_session(tmp_path, p_count=2, m_count=2)
    out = tmp_path / "r.json"
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--manifest", str(manifest), f"--smooth={smooth}", "--out", str(out)])
    assert exc.value.code == 2
    assert "--smooth" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("smooth", ["none", "off", "OFF", "0"])
def test_analyze_smooth_off_spellings(tmp_path, smooth):
    manifest = make_session(tmp_path, p_count=2, m_count=2)
    out = tmp_path / "r.json"
    rc = main(["analyze", "--manifest", str(manifest), "--smooth", smooth, "--out", str(out)])
    assert rc == 0
    report = read_report(out)
    assert report.summary["smoothing_fraction"] is None
    assert not any(name.endswith("_smooth_db") for name in report.table)


def test_analyze_missing_file_exit_code(tmp_path):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({
        "schema_version": 1, "sample_rate": FS, "period_length": L,
        "segments_per_recording": 2,
        "entries": [{"excitation": "nope.wav", "recording": "nope.wav"}],
    }))
    rc = main(["analyze", "--manifest", str(manifest), "--out", str(tmp_path / "r.json")])
    assert rc == 3


@pytest.mark.parametrize(
    "change",
    [
        {"skip_preamble": -5},
        {"period_length": 0},
        {"period_length": -4096},
        {"period_length": 1},
        {"segments_per_recording": 0},
        {"sample_rate": 0},
        {"segmnts": 4},
        {"schema_version": 99},
        {"period_length": "long"},
        {"period_length": 1024.5},
        {"segments_per_recording": "4"},
        {"skip_preamble": 1e400},
        {"sample_rate": True},
        {"entries": [{"excitation": "exc0.wav", "recording": "rec0.wav", "gain": 2}]},
        {"seed": "abc"},
        {"seed": 1.5},
        {"seed": True},
        {"calibration": [1, 2]},
        {"calibration": None},
        {"theta_reference_db": "-inf"},
        {"theta_reference_db": "0"},
        {"theta_reference_db": float("nan")},
        {"theta_reference_db": False},
        {"background_recording": ""},
        {"background_recording": 5},
        {"entries": []},
    ],
)
def test_analyze_invalid_manifest_is_input_error(tmp_path, capsys, change):
    manifest = make_session(tmp_path)
    doc = json.loads(manifest.read_text())
    doc.update(change)
    manifest.write_text(json.dumps(doc))
    rc = main(["analyze", "--manifest", str(manifest), "--out", str(tmp_path / "r.json")])
    assert rc == 3
    assert json.loads(capsys.readouterr().err)["error"] == "ManifestError"


@pytest.mark.parametrize("key", ["excitation", "recording", "background_recording"])
def test_analyze_file_name_the_os_refuses_is_input_error(tmp_path, capsys, key):
    """A name too long to stat is a ManifestError, not a leaked OSError."""
    manifest = make_session(tmp_path)
    doc = json.loads(manifest.read_text())
    name = "x" * 300 + ".wav"
    if key == "background_recording":
        doc[key] = name
    else:
        doc["entries"][1][key] = name
    manifest.write_text(json.dumps(doc))
    rc = main(["analyze", "--manifest", str(manifest), "--out", str(tmp_path / "r.json")])
    assert rc == 3
    [line] = capsys.readouterr().err.splitlines()
    assert json.loads(line)["error"] == "ManifestError"


@pytest.mark.parametrize("period_length", [2**40, 2**62])
def test_analyze_period_beyond_every_file_is_input_error(tmp_path, capsys, period_length):
    """Each excitation is checked against L before any L-sized array is made."""
    manifest = make_session(tmp_path)
    doc = json.loads(manifest.read_text())
    doc["period_length"] = period_length
    manifest.write_text(json.dumps(doc))
    rc = main(["analyze", "--manifest", str(manifest), "--out", str(tmp_path / "r.json")])
    assert rc == 3
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "ManifestError"
    assert "excitation shorter than period length" in error["message"]


def test_analyze_summary_keys_are_echoed(tmp_path):
    """Valid summary keys pass through; a null background is no background."""
    manifest = make_session(tmp_path, snr_db=40.0)
    plain = tmp_path / "plain.csv"
    assert main(["analyze", "--manifest", str(manifest), "--out", str(plain)]) == 0
    doc = json.loads(manifest.read_text())
    doc.update(seed=None, theta_reference_db=-3, calibration={"mic": "a"},
               background_recording=None)
    manifest.write_text(json.dumps(doc))
    out = tmp_path / "echo.csv"
    assert main(["analyze", "--manifest", str(manifest), "--out", str(out)]) == 0
    report = read_report(out)
    assert report.summary["seed"] is None
    assert report.summary["theta_reference_db"] == -3.0
    assert report.summary["calibration"] == {"mic": "a"}
    assert out.read_bytes().split(b"\n")[2:] == plain.read_bytes().split(b"\n")[2:]


def test_analyze_manifest_not_an_object(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_text("[1, 2]")
    rc = main(["analyze", "--manifest", str(manifest), "--out", str(tmp_path / "r.json")])
    assert rc == 3
    assert json.loads(capsys.readouterr().err)["error"] == "ManifestError"


@pytest.mark.parametrize("text", [
    b'{"period_length": 8, "a": "\xff"}',
    b"RIFF\x24\x00\x00\x00WAVEfmt \x10\x00\x00\x00\x01\x00\x01\x00\x44\xac\x00\x00",
    b'{"period_length": ' + b"9" * 5000 + b"}",
], ids=["bad utf-8", "wav header", "5000 digits"])
def test_analyze_manifest_not_utf8_or_json_is_input_error(tmp_path, capsys, text):
    """Bad UTF-8 (a WAV given as the manifest) and integers longer than int() parses."""
    manifest = tmp_path / "m.json"
    manifest.write_bytes(text)
    rc = main(["analyze", "--manifest", str(manifest), "--out", str(tmp_path / "r.json")])
    assert rc == 3
    assert json.loads(capsys.readouterr().err)["error"] == "ManifestError"


def test_analyze_is_deterministic(tmp_path):
    manifest = make_session(tmp_path, snr_db=40.0)
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert main(["analyze", "--manifest", str(manifest), "--out", str(out1)]) == 0
    assert main(["analyze", "--manifest", str(manifest), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_regression_csv(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 0}))
    out = tmp_path / "regression.csv"
    rc = main([
        "simulate", "--config", str(config), "--experiment", "regression",
        "--out", str(out),
    ])
    assert rc == 0
    report = read_report(out)
    assert report.summary["slope"] == pytest.approx(1.995, abs=0.10)
    assert report.summary["intercept"] == pytest.approx(-10.321, abs=1.0)
    assert "sigma_db" in report.table


def test_simulate_random_full_floor_row(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "seed": 1, "theta_db_list": [20.0], "snr_db": 40.0,
        "period_length": 8192,
    }))
    out = tmp_path / "random.csv"
    rc = main(["simulate", "--config", str(config), "--experiment", "random", "--out", str(out)])
    assert rc == 0
    report = read_report(out)
    assert report.table["random_level_db"][0] == pytest.approx(-40.0, abs=1.0)


def test_simulate_nonlinearity_monotone_then_saturating(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 2, "period_length": 8192}))
    out = tmp_path / "nl.csv"
    rc = main(["simulate", "--config", str(config), "--experiment", "nonlinearity", "--out", str(out)])
    assert rc == 0
    report = read_report(out)
    sdr = report.table["signal_dependent_level_norm_db"]
    rand = report.table["random_level_norm_db"]
    assert all(b < a for a, b in zip(sdr[:6], sdr[1:6]))  # top of sweep decreasing
    assert -5.5 < sdr[-1] - rand[-1] < -0.5  # saturated near the averaged noise floor


def test_simulate_nonlinearity_distortion_falls_with_drive_level(tmp_path):
    """The second-order distortion falls 2 dB per dB of drive, down to -280 dB: no cancellation."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "input_level_db_list": [0, -40, -120, -200, -280], "period_length": 1024,
        "snr_db": 1e9, "seed": 1,
    }))
    out = tmp_path / "nl.csv"
    assert main(["simulate", "--config", str(config), "--experiment", "nonlinearity",
                 "--out", str(out)]) == 0
    sdr = read_report(out).table["signal_dependent_level_norm_db"]
    assert sdr[3] - sdr[2] == pytest.approx(-80.0, abs=1.0)
    assert sdr[4] - sdr[3] == pytest.approx(-80.0, abs=1.0)


@pytest.mark.parametrize("levels,named", [
    ([0.0, 7000.0, 8000.0], 7000.0), ([0.0, 0.0, 8000.0, 7000.0], 8000.0),
])
def test_simulate_sweep_refuses_its_first_out_of_range_level(tmp_path, capsys, levels, named):
    """Drive levels run two at a time; the error is still that of the first failing level."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 1, "period_length": 256, "input_level_db_list": levels}))
    assert main(["simulate", "--config", str(config), "--experiment", "nonlinearity",
                 "--out", str(tmp_path / "nl.csv")]) == 4
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "LevelOutOfRange"
    assert f"input level {named} dB" in error["message"]
    assert str(15000.0 - named) not in error["message"]


def test_simulate_unknown_config_key(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 1, "typo_key": 5}))
    rc = main(["simulate", "--config", str(config), "--experiment", "regression",
               "--out", str(tmp_path / "o.csv")])
    assert rc == 3


@pytest.mark.parametrize("experiment", ["regression", "max-deviation", "random", "nonlinearity"])
def test_simulate_sample_rate_is_an_unknown_key(tmp_path, capsys, experiment):
    """No simulate report has a frequency axis, so no runner takes a sample rate."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 1, "sample_rate": 44100}))
    rc = main(["simulate", "--config", str(config), "--experiment", experiment,
               "--out", str(tmp_path / "o.csv")])
    assert rc == 3
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "InputFormatError"
    assert "unknown config keys: ['sample_rate']" in error["message"]


def test_simulate_config_not_an_object_is_input_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text("[1, 2]")
    rc = main(["simulate", "--config", str(config), "--experiment", "random",
               "--out", str(tmp_path / "o.csv")])
    assert rc == 3
    assert json.loads(capsys.readouterr().err)["error"] == "InputFormatError"


def test_simulate_is_byte_deterministic(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "seed": 3, "theta_db_list": [0.0, 20.0], "snr_db": 40.0, "period_length": 4096,
    }))
    outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for out in outs:
        assert main(["simulate", "--config", str(config), "--experiment", "random",
                     "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_seed_env_var_override(tmp_path, monkeypatch):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--experiment", "random", "--out"]
    monkeypatch.setenv("SGMEASURE_SEED", "11")
    assert main(args + [str(out1)]) == 0
    monkeypatch.setenv("SGMEASURE_SEED", "12")
    assert main(args + [str(out2)]) == 0
    assert out1.read_bytes() != out2.read_bytes()


@pytest.mark.parametrize("experiment,change", [
    ("random", {"period_length": 2.5}),
    ("random", {"period_length": -5}),
    ("random", {"period_length": 1}),
    ("random", {"theta_db_list": 3}),
    ("random", {"theta_db_list": []}),
    ("random", {"theta_db_list": [0.0, "a"]}),
    ("random", {"snr_db": "a"}),
    ("random", {"snr_db": float("nan")}),
    ("random", {"m_count": True}),
    ("random", {"m_count": 1}),
    ("random", {"seed": -1}),
    ("max-deviation", {"theta_db_list": [0.0, float("inf")]}),
    ("max-deviation", {"snr_db_list": [20.0, True]}),
    ("regression", {"min_changed_bins": 10.0}),
    ("nonlinearity", {"p_count": 1}),
    ("nonlinearity", {"alpha": -0.5}),
])
def test_simulate_invalid_config_value_is_input_error(tmp_path, capsys, experiment, change):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 1, **change}))
    rc = main(["simulate", "--config", str(config), "--experiment", experiment,
               "--out", str(tmp_path / "o.csv")])
    assert rc == 3
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "InputFormatError"
    assert repr(next(iter(change))) in error["message"]


@pytest.mark.parametrize("experiment,change", [
    ("nonlinearity", {"alpha": 1000}),
    ("nonlinearity", {"theta_db": 400}),
    ("nonlinearity", {"theta_db": 1e300}),
    ("nonlinearity", {"input_level_db_list": [1e300]}),
    ("random", {"theta_db_list": [1e300]}),
    ("random", {"theta_db_list": [-1e300]}),
    ("random", {"snr_db": -1e300}),
    ("nonlinearity", {"input_level_db_list": [-1e300]}),
    ("nonlinearity", {"alpha": 0, "input_level_db_list": [6160]}),
    ("nonlinearity", {"input_level_db_list": [-6000]}),
    ("nonlinearity", {"alpha": 0, "input_level_db_list": [-6000]}),
    ("nonlinearity", {"input_level_db_list": [-400, -6000]}),
    ("random", {"snr_db": -3080}),
    ("nonlinearity", {"period_length": 2, "theta_db": 64}),
    ("random", {"snr_db": -3060}),
    ("regression", {"theta_db_grid": [0.0, 10.0, 3100.0], "max_changed_fraction": 1.0}),
    ("nonlinearity", {"period_length": 2, "m_count": 2, "alpha": 0.0, "theta_db": 3079.0,
                      "input_level_db_list": [-3000.0]}),
])
def test_simulate_level_beyond_float_range_is_analysis_error(
    tmp_path, capsys, experiment, change
):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 1, "period_length": 256, **change}))
    rc = main(["simulate", "--config", str(config), "--experiment", experiment,
               "--out", str(tmp_path / "o.csv")])
    assert rc == 4
    assert json.loads(capsys.readouterr().err)["error"] == "LevelOutOfRange"


def test_simulate_noise_off_writes_zero_power_as_null(tmp_path):
    """With the noise off every period is identical: the random level is -inf dB, a null."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 2, "snr_db": float("inf"), "theta_db_list": [0.0, 20.0],
                                  "period_length": 256}))
    out = tmp_path / "random.json"
    assert main(["simulate", "--config", str(config), "--experiment", "random",
                 "--out", str(out)]) == 0
    assert read_report(out).table["random_level_db"] == [None, None]


@pytest.mark.parametrize("text", [
    b'{"seed": 1, "a": "\xff"}', b'{"seed": ' + b"9" * 5000 + b"}",
], ids=["bad utf-8", "5000 digits"])
def test_simulate_config_not_utf8_or_json_is_input_error(tmp_path, capsys, text):
    config = tmp_path / "config.json"
    config.write_bytes(text)
    rc = main(["simulate", "--config", str(config), "--experiment", "random",
               "--out", str(tmp_path / "o.csv")])
    assert rc == 3
    assert json.loads(capsys.readouterr().err)["error"] == "InputFormatError"


def test_simulate_config_numbers_pass_unconverted(tmp_path):
    """Integers are accepted for float parameters and echoed as configured."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "seed": 3, "theta_db_list": [0, 20], "snr_db": 40, "m_count": 2,
        "period_length": 256,
    }))
    out = tmp_path / "random.csv"
    assert main(["simulate", "--config", str(config), "--experiment", "random",
                 "--out", str(out)]) == 0
    report = read_report(out)
    assert report.summary["config"]["snr_db"] == 40
    assert report.table["theta_db"] == [0, 20]


@pytest.mark.parametrize("seed", ["abc", "1.5", "-3", "9" * 5000],
                         ids=["abc", "1.5", "-3", "5000 digits"])
def test_seed_env_var_must_be_non_negative_integer(tmp_path, capsys, monkeypatch, seed):
    monkeypatch.setenv("SGMEASURE_SEED", seed)
    rc = main(["simulate", "--experiment", "random", "--out", str(tmp_path / "o.csv")])
    assert rc == 3
    assert json.loads(capsys.readouterr().err)["error"] == "InputFormatError"


@pytest.mark.parametrize("target", ["missing directory", "directory"])
@pytest.mark.parametrize("command,option", [
    ("safeguard", "--out"), ("safeguard", "--report"), ("make-test", "--out"),
    ("analyze", "--out"), ("simulate", "--out"),
])
def test_unwritable_output_path_is_input_error(tmp_path, capsys, command, option, target):
    infile, config = tmp_path / "in.wav", tmp_path / "c.json"
    write_period(infile, seed=8)
    config.write_text(json.dumps({"period_length": 256, "theta_db_list": [0.0]}))
    if target == "directory":
        bad = tmp_path / "taken.json"
        bad.mkdir()
    else:
        bad = tmp_path / "nowhere" / "o.json"
    paths = {"--out": str(tmp_path / "o.json"), "--report": str(tmp_path / "r.json")}
    paths[option] = str(bad)
    argv = {
        "safeguard": ["--in", str(infile), "--period", str(L), "--report", paths["--report"]],
        "make-test": ["--in", str(infile), "--repeats", "2"],
        "analyze": ["--manifest", str(make_session(tmp_path, m_count=2))],
        "simulate": ["--config", str(config), "--experiment", "random"],
    }[command]
    assert main([command, *argv, "--out", paths["--out"]]) == 3
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "UnwritableOutput"
    assert str(bad) in error["message"]
    assert bad.is_dir() == (target == "directory")
    assert not any(Path(path).is_file() for path in paths.values())


class FullDisk:
    """An open file whose first ``room`` writes go through and whose later ones raise ENOSPC."""

    def __init__(self, file, room):
        self.file, self.room = file, room

    def write(self, data):
        if self.room == 0:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.room -= 1
        return self.file.write(data)

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.file.close()


def fill_disk(monkeypatch, path, room=1):
    """Writes to ``path`` fail with ENOSPC after its first ``room``; other files are untouched."""
    real_open = Path.open

    def open_(self, mode="r", *args, **kwargs):
        file = real_open(self, mode, *args, **kwargs)
        return FullDisk(file, room) if self == Path(path) and "w" in mode else file

    monkeypatch.setattr(Path, "open", open_)


def assert_unwritable(argv, capsys):
    """``main(argv)`` exits 3 with one JSON ``UnwritableOutput`` line on stderr."""
    assert main(argv) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "UnwritableOutput"


@pytest.mark.parametrize("suffix", [".csv", ".json"])
@pytest.mark.parametrize("command", ["analyze", "simulate"])
def test_report_write_that_fills_the_disk_is_input_error(tmp_path, capsys, monkeypatch, command,
                                                         suffix):
    """A failed write of the report exits 3, not with a traceback, and leaves no partial file."""
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"period_length": 256, "theta_db_list": [0.0]}))
    argv = {
        "analyze": ["--manifest", str(make_session(tmp_path, m_count=2))],
        "simulate": ["--config", str(config), "--experiment", "random"],
    }[command]
    out = tmp_path / f"o{suffix}"
    fill_disk(monkeypatch, out)
    assert_unwritable([command, *argv, "--out", str(out)], capsys)
    assert not out.exists()


@pytest.mark.parametrize("command,full,room", [
    ("make-test", "o.wav", 1), ("safeguard", "o.wav", 1), ("safeguard", "r.json", 0),
])
def test_wav_or_safeguard_report_that_fills_the_disk_leaves_no_output(
    tmp_path, capsys, monkeypatch, command, full, room
):
    infile, out, report = tmp_path / "in.wav", tmp_path / "o.wav", tmp_path / "r.json"
    write_period(infile, seed=8)
    argv = {
        "make-test": ["--in", str(infile), "--repeats", "2"],
        "safeguard": ["--in", str(infile), "--period", str(L), "--report", str(report)],
    }[command]
    fill_disk(monkeypatch, tmp_path / full, room)
    assert_unwritable([command, *argv, "--out", str(out)], capsys)
    assert not out.exists() and not report.exists()


@pytest.mark.parametrize("command,name", [("simulate", "o.csv"), ("make-test", "o.wav")])
def test_failed_write_to_a_fifo_leaves_the_fifo(tmp_path, capsys, monkeypatch, command, name):
    """Only a regular file is removed: a FIFO, a device or ``/dev/stdout`` stays in place."""
    infile, config, fifo = tmp_path / "in.wav", tmp_path / "c.json", tmp_path / name
    write_period(infile, seed=8)
    config.write_text(json.dumps({"period_length": 256, "theta_db_list": [0.0]}))
    argv = {
        "simulate": ["--config", str(config), "--experiment", "random"],
        "make-test": ["--in", str(infile), "--repeats", "2"],
    }[command]
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # so opening to write does not block
    try:
        fill_disk(monkeypatch, fifo)
        assert_unwritable([command, *argv, "--out", str(fifo)], capsys)
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)


def test_failed_write_through_a_symlink_removes_its_file_and_keeps_the_link(
    tmp_path, capsys, monkeypatch
):
    config, link, target = tmp_path / "c.json", tmp_path / "link.csv", tmp_path / "o.csv"
    config.write_text(json.dumps({"period_length": 256, "theta_db_list": [0.0]}))
    link.symlink_to(target)
    fill_disk(monkeypatch, link)
    assert_unwritable(
        ["simulate", "--config", str(config), "--experiment", "random", "--out", str(link)], capsys
    )
    assert link.is_symlink() and not target.exists()


def assert_only_analysis_error(argv: list[str], error: str = "LevelOutOfRange") -> None:
    """The CLI, run in a fresh interpreter, exits 4 with one JSON line naming ``error`` on
    stderr and no numpy warning or LAPACK message before it."""
    src = str(Path(sgmeasure.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               PYTHONWARNINGS="default")
    result = subprocess.run([sys.executable, "-m", "sgmeasure.cli", *argv],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 4
    lines = result.stderr.splitlines()
    assert len(lines) == 1, result.stderr
    assert json.loads(lines[0])["error"] == error


@pytest.mark.parametrize("experiment,config", [
    ("random", {"seed": 1, "period_length": 256, "snr_db": -3080}),
    ("regression", {"period_length": 256, "theta_db_grid": [0.0, 10.0, 3100.0]}),
    ("nonlinearity", {"period_length": 2, "m_count": 2, "alpha": 0.0, "theta_db": 3079.0,
                      "input_level_db_list": [-3000.0]}),
])
def test_simulate_overflow_prints_only_the_json_error(tmp_path, experiment, config):
    (tmp_path / "c.json").write_text(json.dumps(config))
    assert_only_analysis_error(["simulate", "--experiment", experiment,
                                "--config", str(tmp_path / "c.json"),
                                "--out", str(tmp_path / "o.csv")])
    assert not (tmp_path / "o.csv").exists()


def test_simulate_regression_on_one_level_is_a_degenerate_fit(tmp_path):
    """Three usable points at one flooring level fit no line."""
    (tmp_path / "c.json").write_text(json.dumps(
        {"seed": 1, "period_length": 4096, "theta_db_grid": [0.0, 0.0, 0.0]}))
    assert_only_analysis_error(["simulate", "--experiment", "regression",
                                "--config", str(tmp_path / "c.json"),
                                "--out", str(tmp_path / "o.csv")], "DegenerateFit")
    assert not (tmp_path / "o.csv").exists()


def test_simulate_regression_fits_no_point_where_no_bin_changed(tmp_path):
    """With min_changed_bins 0, the -80 and -70 dB points change no bin: their added level
    is -inf dB and they are not fitted, which leaves two points and no stable fit."""
    (tmp_path / "c.json").write_text(json.dumps({
        "seed": 1, "period_length": 4096, "theta_db_grid": [-80.0, -70.0, -10.0, 0.0],
        "min_changed_bins": 0,
    }))
    assert_only_analysis_error(["simulate", "--experiment", "regression",
                                "--config", str(tmp_path / "c.json"),
                                "--out", str(tmp_path / "o.csv")], "DegenerateFit")
    assert not (tmp_path / "o.csv").exists()


def test_simulate_regression_line_ignores_a_point_where_no_bin_changed(tmp_path):
    def regression(grid):
        config, out = tmp_path / "c.json", tmp_path / "o.json"
        config.write_text(json.dumps({
            "seed": 1, "period_length": 4096, "theta_db_grid": grid, "min_changed_bins": 0,
        }))
        assert main(["simulate", "--config", str(config), "--experiment", "regression",
                     "--out", str(out)]) == 0
        return read_report(out)

    report = regression([-80.0, -10.0, -5.0, 0.0])
    assert report.table["bins_changed"][0] == 0.0
    assert report.table["used_in_fit"] == [0.0, 1.0, 1.0, 1.0]
    line = regression([-10.0, -5.0, 0.0]).summary
    assert (report.summary["slope"], report.summary["intercept"]) == (
        line["slope"], line["intercept"]) == (2.0017185155211736, -10.494848475103291)


@pytest.mark.parametrize("snr_db_list", [[20, 20.0], [20.0, 20.0], [20.0000001, 20.0000002]])
def test_simulate_max_deviation_refuses_snrs_that_name_one_column(tmp_path, capsys, snr_db_list):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"snr_db_list": snr_db_list, "period_length": 256}))
    out = tmp_path / "o.csv"
    rc = main(["simulate", "--config", str(config), "--experiment", "max-deviation",
               "--out", str(out)])
    assert rc == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "InputFormatError"
    assert "max_deviation_db_snr20" in error["message"]
    assert not out.exists()


@pytest.mark.parametrize("period", [
    0.01 * np.random.default_rng(14).standard_normal(2048),
    np.array([0.9, -0.8, 0.5, 0.1, 0.0, 0.3]),  # the floored bins themselves overflow
], ids=["noise", "full scale"])
def test_safeguard_overflow_prints_only_the_json_error(tmp_path, period):
    write_audio(tmp_path / "in.wav", period, FS)
    out, report = tmp_path / "o.wav", tmp_path / "r.json"
    assert_only_analysis_error(["safeguard", "--in", str(tmp_path / "in.wav"),
                                "--period", str(min(len(period), 1024)), "--theta-db", "6160",
                                "--out", str(out), "--report", str(report)])
    assert not out.exists() and not report.exists()
