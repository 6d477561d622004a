"""Every ```python block in README.md runs as written, and so does its shell walk-through."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from sgmeasure.cli import main
from sgmeasure.wavio import read_audio

from oracles import music_period, read_report, readme_session

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(BLOCKS[index], f"README.md[python block {index}]", "exec"), {})


def test_readme_walkthrough_measures_a_known_fir(tmp_path):
    """The README's shell lines and manifest, run as written on music, give |H| of a known FIR.

    Each music period, PCM24 and half a period longer than the period, is
    safeguarded and tiled by the README's commands, and the test stream is
    played through a 24-tap FIR by circular convolution, so every segment is
    in steady state, with no noise.  The recording is then written as
    float32, which rounds each sample y_n to y_n + e_n, |e_n| <= 2**-24 |y_n|
    + 2**-150 (round to nearest, the second term for subnormals).  A segment's
    estimate is (Y + E)/X_s, so it is off H[k] by at most sum|e_n| / |X_s[k]|,
    and so is its mean over M and over P: the bound below is that sum over the
    worst segment of each signal, with X_s the safeguarded excitation as
    written.  float64 rounding in the FFTs that make the recording and the
    estimate and in H itself is about 2**-53 * log2(L) relative, covered by
    a further 2**-40 relative to |H| and to the sum.
    """
    rate, rng = 48000, np.random.default_rng(2021)
    length = 16384
    music = [music_period(length * 3 // 2, rate, rng) for _ in range(2)]
    h = rng.standard_normal(24) * np.exp(-np.arange(24) / 5.0)

    def play(x):
        return np.fft.irfft(np.fft.rfft(x) * np.fft.rfft(h, n=x.size), n=x.size)

    analyze = readme_session(tmp_path, music, rate, play)
    assert main(analyze) == 0

    manifest = json.loads((tmp_path / "session.json").read_text())
    L, M, skip = (manifest[k] for k in ("period_length", "segments_per_recording",
                                        "skip_preamble"))
    assert L == length and len(manifest["entries"]) == len(music)
    bound = 0.0
    for p, entry in enumerate(manifest["entries"]):
        floor = json.loads((tmp_path / f"floor_report_{p}.json").read_text())
        assert floor["bins_changed"] > 0  # music needs the flooring
        x_bins = np.abs(np.fft.rfft(read_audio(tmp_path / entry["excitation"])[0]))
        y = read_audio(tmp_path / entry["recording"])[0]
        segments = np.abs(y[skip : skip + M * L]).reshape(M, L)
        worst = np.max(np.sum(segments, axis=1)) * (1 + 2.0**-23)  # sum |y_n| from the written
        bound = bound + ((2.0**-24 + 2.0**-40) * worst + L * 2.0**-150) / x_bins
    truth = np.abs(np.fft.rfft(h, n=L))
    bound = bound / len(music) + 2.0**-40 * truth
    gain = np.array(read_report(tmp_path / "result.csv").table["lti_gain_db"])
    err = np.abs(10.0 ** (gain / 20.0) - truth)
    assert np.all(err <= bound)
    # the bound is tight enough to mean something: at most a few thousandths of a dB
    assert np.max(20 * np.log10(1 + bound / truth)) < 0.01


def test_readme_walkthrough_reads_a_known_noise_level(tmp_path):
    """The README's walk-through with white noise of variance sigma**2 added in playback.

    Segment m of the recording is the test stream plus noise N_m, so its
    estimate is H + N_m[k]/X_s[k] with E|N_m[k]|**2 = L * sigma**2, and the
    variance over M of each bin estimates L * sigma**2 / |X_s,p[k]|**2.
    ``random_level`` is its mean over the P signals: averaged over the bins,
    it must read its expected value within 0.5 dB.
    """
    rate, rng = 48000, np.random.default_rng(2022)
    length, sigma = 16384, 1e-3
    music = [music_period(length * 3 // 2, rate, rng) for _ in range(2)]
    noise = np.random.default_rng(7)

    def play(x):
        return x + sigma * noise.standard_normal(x.size)

    analyze = readme_session(tmp_path, music, rate, play)
    assert main(analyze) == 0

    manifest = json.loads((tmp_path / "session.json").read_text())
    L = manifest["period_length"]
    expected = np.mean([
        L * sigma**2 / np.abs(np.fft.rfft(read_audio(tmp_path / entry["excitation"])[0])) ** 2
        for entry in manifest["entries"]
    ], axis=0)
    level_db = np.array(read_report(tmp_path / "result.csv").table["random_level_db"])
    assert level_db.size == expected.size == L // 2 + 1
    error_db = 10 * np.log10(np.mean(10.0 ** (level_db / 10.0)) / np.mean(expected))
    assert abs(error_db) <= 0.5
