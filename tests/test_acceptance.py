"""Acceptance suite: one test (and one printed pass/fail line) per criterion."""

import json
import time

import numpy as np

from sgmeasure.cli import main
from sgmeasure.safeguard import safeguard_period
from sgmeasure.separation import (
    estimate_transfer,
    excitation_bins,
    segment_block,
    separate_signals,
    smooth_one_sided,
)
from sgmeasure.simulate import (
    run_flooring_regression,
    run_max_deviation_sweep,
    run_nonlinearity_experiment,
    run_random_response_experiment,
    simulate_chain,
    white_noise_period,
)

from oracles import circular_convolve

FS = 44100


def _verdict(number, description, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def safeguarded(length, seed, theta_db=0.0):
    out, _ = safeguard_period(white_noise_period(length, seed=seed), theta_db)
    return out, excitation_bins(out)


def test_criterion_1_exact_lti_recovery():
    t0 = time.monotonic()
    L = 1024
    rng = np.random.default_rng(100)
    h = rng.standard_normal(128) * np.exp(-np.arange(128) / 20.0)
    h_true = np.fft.rfft(h, n=L)
    worst = 0.0
    for seed in (0, 1, 2):
        excitation, x_bins = safeguarded(L, seed=seed)
        period_out = circular_convolve(excitation, h)
        stream = np.tile(period_out, 4)
        k = np.arange(L // 2 + 1)
        # every admissible start; an offset d within the period shows up as
        # the known phase ramp exp(2j*pi*k*d/L), compensated before comparing
        for start in range(L, 3 * L + 1):
            est = estimate_transfer(segment_block(stream, L, 1, start), x_bins)[0]
            aligned = est * np.exp(-2j * np.pi * k * (start - L) / L)
            rel = np.max(np.abs(aligned - h_true) / np.abs(h_true))
            worst = max(worst, rel)
    # identity and pure-delay chains
    excitation, x_bins = safeguarded(L, seed=3)
    stream = np.tile(excitation, 3)
    est = estimate_transfer(segment_block(stream, L, 1, L), x_bins)[0]
    worst = max(worst, float(np.max(np.abs(est - 1.0))))
    delayed = np.roll(stream, 5)
    est = estimate_transfer(segment_block(delayed, L, 1, L), x_bins)[0]
    ramp = np.exp(-2j * np.pi * np.arange(L // 2 + 1) * 5 / L)
    worst = max(worst, float(np.max(np.abs(est - ramp))))
    # impulse-response recovery at the documented size
    L2 = 8192
    excitation, x_bins = safeguarded(L2, seed=4)
    h2 = np.random.default_rng(101).standard_normal(512) * np.exp(-np.arange(512) / 64.0)
    stream = np.tile(circular_convolve(excitation, h2), 3)
    recovered = np.fft.irfft(
        estimate_transfer(segment_block(stream, L2, 1, L2), x_bins)[0], n=L2
    )
    ir_err = max(
        float(np.max(np.abs(recovered[:512] - h2))), float(np.max(np.abs(recovered[512:])))
    )
    elapsed = time.monotonic() - t0
    _verdict(
        1,
        f"exact LTI recovery (rel err {worst:.2e} < 1e-8, IR err {ir_err:.2e} < 1e-7, "
        f"{elapsed:.1f}s < 5s)",
        worst < 1e-8 and ir_err < 1e-7 and elapsed < 5.0,
    )


def test_criterion_2_regression_law():
    t0 = time.monotonic()
    slopes, intercepts = [], []
    for seed in range(5):
        result = run_flooring_regression(seed=seed)
        slopes.append(result.summary["slope"])
        intercepts.append(result.summary["intercept"])
    slope = float(np.mean(slopes))
    intercept = float(np.mean(intercepts))
    elapsed = time.monotonic() - t0
    _verdict(
        2,
        f"flooring regression (slope {slope:.3f} in 1.995+-0.10, "
        f"intercept {intercept:.3f} in -10.321+-1.0, {elapsed:.1f}s < 30s)",
        abs(slope - 1.995) <= 0.10 and abs(intercept + 10.321) <= 1.0 and elapsed < 30.0,
    )


def test_criterion_3_flooring_benefit():
    t0 = time.monotonic()
    unfloored, floored = [], []
    for seed in range(5):
        result = run_max_deviation_sweep(
            snr_db_list=(40.0,), theta_db_list=(-50.0, 0.0), seed=seed,
            period_length=16384,
        )
        col = result.table["max_deviation_db_snr40"]
        unfloored.append(col[0])
        floored.append(col[1])
    gain = float(np.median(unfloored) - np.median(floored))
    elapsed = time.monotonic() - t0
    _verdict(
        3,
        f"flooring benefit at SNR 40 dB (median max-deviation reduction "
        f"{gain:.1f} dB >= 6 dB, {elapsed:.1f}s < 30s)",
        gain >= 6.0 and elapsed < 30.0,
    )


def test_criterion_4_minus10db_flooring_snr():
    _, report = safeguard_period(white_noise_period(100000, seed=0), -10.0)
    snr = -report.added_component_db
    _verdict(4, f"-10 dB flooring adds component at SNR {snr:.2f} dB (30 +- 1.5)",
             abs(snr - 30.0) <= 1.5)


def test_criterion_5_random_response_recovery():
    errors = []
    for snr_db in (40.0, 60.0):
        result = run_random_response_experiment(
            theta_db_list=(20.0,), snr_db=snr_db, m_count=4, seed=0,
            period_length=16384,
        )
        errors.append(abs(result.table["random_level_db"][0] - (-snr_db)))
    worst = max(errors)
    _verdict(5, f"full-floor random level within {worst:.2f} dB of injected (< 1 dB)",
             worst < 1.0)


def test_criterion_6_nonlinearity_separation():
    result = run_nonlinearity_experiment(seed=0)
    rand = np.array(result.table["random_level_norm_db"])
    sdr = np.array(result.table["signal_dependent_level_norm_db"])
    levels = np.array(result.table["input_level_db"])
    spread = float(np.max(rand) - np.min(rand))
    top = sdr[levels >= levels[0] - 20.0]
    decreasing = bool(np.all(np.diff(top) < 0))
    floor = float(sdr[-1] - rand[-1])
    ok = spread <= 2.0 and decreasing and abs(floor - (-3.0)) <= 2.0
    _verdict(
        6,
        f"nonlinearity separation (random spread {spread:.2f} dB <= 2, top-20dB "
        f"strictly decreasing = {decreasing}, floor {floor:.2f} dB in -3 +- 2)",
        ok,
    )


def test_criterion_7_smoothing_reduces_deviation():
    L = 16384
    ok = True
    detail = []
    for snr_db in (20.0, 40.0, 60.0):
        excitation, x_bins = safeguarded(L, seed=8)
        stream = np.tile(excitation, 2)
        recorded = simulate_chain(stream, snr_db=snr_db, seed=9)
        block = segment_block(recorded, L, 1, L)
        power = np.abs(estimate_transfer(block, x_bins)[0]) ** 2
        half = slice(1, L // 2 + 1)
        raw_sd = float(np.std(10 * np.log10(power[half])))
        smooth_sd = float(np.std(10 * np.log10(smooth_one_sided(power, 1 / 3)[half])))
        detail.append(f"SNR {snr_db:g}: {smooth_sd:.3f} < {raw_sd:.3f}")
        ok = ok and smooth_sd < raw_sd
    _verdict(7, "1/3-octave smoothing reduces gain SD (" + "; ".join(detail) + ")", ok)


def test_criterion_8_estimator_algebra():
    rng = np.random.default_rng(200)
    # three segments of length 14, whose estimates have 8 bins
    block = rng.standard_normal((3, 14))
    x_bins = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    per_segment = estimate_transfer(block, x_bins)
    (h_sti,), (d_stv_sq,), _, _ = separate_signals([estimate_transfer(block, x_bins)])

    # independent direct-summation implementation of the sample statistics
    def direct_mean_var(rows):
        L = len(rows[0])
        n = len(rows)
        mean = [sum(row[k] for row in rows) / n for k in range(L)]
        var = [
            sum(
                (row[k] - mean[k]).real ** 2 + (row[k] - mean[k]).imag ** 2
                for row in rows
            )
            / (n - 1)
            for k in range(L)
        ]
        return mean, var

    mean_m, var_m = direct_mean_var([list(h) for h in per_segment])
    exact_m = all(h_sti[k] == mean_m[k] for k in range(8)) and all(
        d_stv_sq[k] == var_m[k] for k in range(8)
    )

    per_signal = [rng.standard_normal(8) + 1j * rng.standard_normal(8) for _ in range(3)]
    # two equal rows reduce over M to that row exactly, so these are the P rows reduced
    _, _, h_slti, h_ssdr_sq = separate_signals([np.vstack([h, h]) for h in per_signal])
    mean_p, var_p = direct_mean_var([list(h) for h in per_signal])
    exact_p = all(h_slti[k] == mean_p[k] for k in range(8)) and all(
        h_ssdr_sq[k] == var_p[k] for k in range(8)
    )
    _verdict(8, "separation statistics match direct summation exactly",
             exact_m and exact_p)


def test_criterion_9_determinism(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "seed": 5, "theta_db_list": [0.0, 20.0], "snr_db": 40.0, "period_length": 8192,
    }))
    sim_outs = [tmp_path / "sim_a.csv", tmp_path / "sim_b.csv"]
    for out in sim_outs:
        assert main(["simulate", "--config", str(config), "--experiment", "random",
                     "--out", str(out)]) == 0
    sim_ok = sim_outs[0].read_bytes() == sim_outs[1].read_bytes()

    from sgmeasure.wavio import write_audio

    L = 1024
    entries = []
    for p in range(2):
        excitation, _ = safeguarded(L, seed=20 + p)
        exc = tmp_path / f"exc{p}.wav"
        write_audio(exc, excitation, FS)
        recorded = simulate_chain(np.tile(excitation, 5), snr_db=40.0, seed=30 + p)
        rec = tmp_path / f"rec{p}.wav"
        write_audio(rec, recorded, FS)
        entries.append({"excitation": exc.name, "recording": rec.name})
    manifest = tmp_path / "session.json"
    manifest.write_text(json.dumps({
        "schema_version": 1, "sample_rate": FS, "period_length": L,
        "segments_per_recording": 4, "entries": entries,
    }))
    ana_outs = [tmp_path / "ana_a.json", tmp_path / "ana_b.json"]
    for out in ana_outs:
        assert main(["analyze", "--manifest", str(manifest), "--smooth", "1/3",
                     "--out", str(out)]) == 0
    ana_ok = ana_outs[0].read_bytes() == ana_outs[1].read_bytes()
    _verdict(9, f"byte-identical reports (simulate: {sim_ok}, analyze: {ana_ok})",
             sim_ok and ana_ok)
