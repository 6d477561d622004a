import json

import numpy as np
import pytest

from sgmeasure.cli import main
from sgmeasure.core import SampleStream, forward_dft
from sgmeasure.reports import read_report
from sgmeasure.safeguard import default_threshold, safeguard_signal
from sgmeasure.simulate import SimulationConfig, simulate_chain, white_noise_period
from sgmeasure.wavio import read_audio, write_audio

FS = 44100
L = 1024


def write_period(path, seed):
    period = white_noise_period(L, FS, seed=seed)
    write_audio(path, SampleStream(period.samples * 0.05, FS))


def make_session(tmp_path, p_count=2, m_count=4, snr_db=float("inf"), seed=9):
    """Simulated session on disk: safeguarded excitations + recordings + manifest."""
    entries = []
    for p in range(p_count):
        raw = white_noise_period(L, FS, seed=seed + p)
        safeguarded, _ = safeguard_signal(raw, default_threshold(forward_dft(raw)))
        exc_path = tmp_path / f"exc{p}.wav"
        write_audio(exc_path, SampleStream(safeguarded.samples, FS))
        # re-read so the recording is built from the same float32 period
        period = read_audio(exc_path)
        stream = SampleStream(np.tile(period.samples, m_count + 1), FS)
        recorded = simulate_chain(stream, SimulationConfig(snr_db=snr_db, seed=seed + 50 + p))
        rec_path = tmp_path / f"rec{p}.wav"
        write_audio(rec_path, recorded)
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
    assert np.array_equal(read_audio(out).samples, read_audio(infile).samples)


def test_safeguard_command_added_level(tmp_path):
    infile = tmp_path / "in.wav"
    period = white_noise_period(100000, FS, seed=2)
    write_audio(infile, SampleStream(period.samples * 0.01, FS))
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


def test_make_test_identity(tmp_path):
    infile = tmp_path / "in.wav"
    write_period(infile, seed=4)
    out = tmp_path / "out.wav"
    assert main(["make-test", "--in", str(infile), "--repeats", "1", "--out", str(out)]) == 0
    assert np.array_equal(read_audio(out).samples, read_audio(infile).samples)


def test_make_test_six_repeats_length(tmp_path):
    infile = tmp_path / "in.wav"
    write_period(infile, seed=5)
    out = tmp_path / "out.wav"
    assert main(["make-test", "--in", str(infile), "--repeats", "6", "--out", str(out)]) == 0
    assert len(read_audio(out)) == 6 * L


def test_make_test_zero_repeats_is_usage_error(tmp_path):
    infile = tmp_path / "in.wav"
    write_period(infile, seed=6)
    with pytest.raises(SystemExit) as exc:
        main(["make-test", "--in", str(infile), "--repeats", "0", "--out", str(tmp_path / "o.wav")])
    assert exc.value.code == 2


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


def test_analyze_with_background_column(tmp_path):
    manifest_path = make_session(tmp_path, snr_db=40.0)
    doc = json.loads(manifest_path.read_text())
    noise = np.random.default_rng(77).standard_normal(3 * L) * 1e-4
    write_audio(tmp_path / "bg.wav", SampleStream(noise, FS))
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
    write_audio(tmp_path / "exc1.wav", SampleStream(np.full(L, 0.25), FS))
    rc = main(["analyze", "--manifest", str(manifest), "--out", str(tmp_path / "r.json")])
    assert rc == 4
    assert json.loads(capsys.readouterr().err)["error"] == "ZeroBinExcitation"


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


def test_analyze_manifest_not_an_object(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_text("[1, 2]")
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


def test_simulate_unknown_config_key(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 1, "typo_key": 5}))
    rc = main(["simulate", "--config", str(config), "--experiment", "regression",
               "--out", str(tmp_path / "o.csv")])
    assert rc == 3


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
