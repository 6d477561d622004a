"""Deterministic virtual measurement chain and experiment runners.

The chain is fixed as gain -> memoryless nonlinearity -> circular-periodic
LTI convolution -> additive Gaussian noise.  Noise power is set relative to
the pre-noise output power (the safeguarded signal's own level), so the
configured SNR refers to what actually reaches the virtual microphone.
All randomness flows through counter-based Philox generators keyed on the
configured seed, so identical configs give bit-identical streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PeriodicSignal, SampleStream, circular_convolve_fast, forward_dft
from .errors import DegenerateFit
from .safeguard import safeguard_signal, threshold_from_db
from .separation import (
    estimate_transfer,
    excitation_bins,
    segment_block,
    signal_dependent_response,
    time_invariant_response,
)

__all__ = [
    "SimulationConfig",
    "ExperimentResult",
    "white_noise_period",
    "nonlinearity",
    "simulate_chain",
    "least_squares_line",
    "run_flooring_regression",
    "run_max_deviation_sweep",
    "run_random_response_experiment",
    "run_nonlinearity_experiment",
]

SNR_OFF = math.inf

DEFAULT_THETA_DB_GRID = tuple(float(t) for t in range(-50, 25, 5))
DEFAULT_INPUT_LEVEL_GRID = tuple(float(t) for t in range(0, -44, -4))


def _rng(seed: int, *stream: int) -> np.random.Generator:
    """Independent generator for one sweep point, keyed on (seed, indices)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, *stream])))


@dataclass(frozen=True)
class SimulationConfig:
    """Virtual measurement chain description."""

    impulse_response: tuple[float, ...] = (1.0,)
    alpha: float = 0.0
    snr_db: float = SNR_OFF
    input_level_db: float = 0.0
    seed: int = 0
    repeats_per_signal: int = 4
    signal_count: int = 4

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if not (math.isfinite(self.snr_db) or self.snr_db == SNR_OFF):
            raise ValueError("snr_db must be finite or +inf (noise off)")
        object.__setattr__(
            self, "impulse_response", tuple(float(v) for v in self.impulse_response)
        )


@dataclass(frozen=True)
class ExperimentResult:
    """Tabular output of one experiment: a sweep axis plus named metric columns."""

    axis_name: str
    axis: tuple[float, ...]
    metrics: dict[str, tuple[float, ...]]
    slope: float | None = None
    intercept: float | None = None

    def __post_init__(self):
        for name, col in self.metrics.items():
            if len(col) != len(self.axis):
                raise ValueError(f"metric {name!r} length disagrees with axis")


def white_noise_period(length: int, sample_rate: int, seed: int) -> PeriodicSignal:
    """Seeded unit-variance Gaussian white-noise period."""
    return PeriodicSignal(_rng(seed).standard_normal(length), sample_rate)


def nonlinearity(x: np.ndarray, alpha: float) -> np.ndarray:
    """Memoryless exponential nonlinearity (exp(alpha*x) - 1)/alpha.

    alpha = 0 is the analytic linear limit and returns x exactly.
    """
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    x = np.asarray(x, dtype=np.float64)
    if alpha == 0.0:
        return x.copy()
    peak = float(np.max(np.abs(x))) if x.size else 0.0
    if alpha * peak > 700.0:  # exp overflow bound for float64
        raise OverflowError(f"exp({alpha * peak:.1f}) exceeds float64 range")
    return (np.exp(alpha * x) - 1.0) / alpha


def simulate_chain(test: SampleStream, config: SimulationConfig) -> SampleStream:
    """Run a test stream through the virtual chain.

    The LTI stage wraps circularly over the full stream length, which for a
    stream of whole periods equals the periodic steady state everywhere.
    """
    gain = 10.0 ** (config.input_level_db / 20.0)
    driven = nonlinearity(gain * test.samples, config.alpha)
    out = circular_convolve_fast(driven, np.asarray(config.impulse_response))
    if math.isfinite(config.snr_db):
        pre_noise_power = float(np.mean(out**2))
        sigma = math.sqrt(pre_noise_power * 10.0 ** (-config.snr_db / 10.0))
        out = out + sigma * _rng(config.seed, 0xD1CE).standard_normal(out.size)
    return SampleStream(out, test.sample_rate, label="simulated")


def least_squares_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Ordinary least squares fit y ~ intercept + slope*x."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size < 3:
        raise DegenerateFit(f"need at least 3 points for a stable fit, got {x.size}")
    slope, intercept = np.polyfit(x, y, 1)
    return float(slope), float(intercept)


def run_flooring_regression(
    seed: int = 0,
    period_length: int = 100000,
    sample_rate: int = 44100,
    theta_db_grid: tuple[float, ...] = DEFAULT_THETA_DB_GRID,
    min_changed_bins: int = 100,
    max_changed_fraction: float = 0.9,
) -> ExperimentResult:
    """Sweep the flooring level on white noise and regress the added level.

    The fit uses only sweep points where flooring is statistically in its
    linear regime: at least ``min_changed_bins`` bins changed (below that
    the added level is extreme-value noise) and at most
    ``max_changed_fraction`` of all bins changed (above that the floor
    saturates and the relation bends toward slope 1).
    """
    signal = white_noise_period(period_length, sample_rate, seed)
    spectrum = forward_dft(signal)
    sigma_db: list[float] = []
    bins_changed: list[float] = []
    used: list[float] = []
    for theta_db in theta_db_grid:
        theta = threshold_from_db(spectrum, theta_db)
        _, report = safeguard_signal(signal, theta)
        sigma_db.append(report.added_component_db)
        bins_changed.append(float(report.bins_changed))
        usable = (
            report.bins_changed >= min_changed_bins
            and report.fraction_changed <= max_changed_fraction
        )
        used.append(1.0 if usable else 0.0)
    mask = np.asarray(used, dtype=bool)
    slope, intercept = least_squares_line(
        np.asarray(theta_db_grid)[mask], np.asarray(sigma_db)[mask]
    )
    return ExperimentResult(
        axis_name="theta_db",
        axis=tuple(theta_db_grid),
        metrics={
            "sigma_db": tuple(sigma_db),
            "bins_changed": tuple(bins_changed),
            "used_in_fit": tuple(used),
        },
        slope=slope,
        intercept=intercept,
    )


def _safeguarded_excitation(period_length, sample_rate, theta_db, seed):
    """A safeguarded white-noise period and its L excitation bins, checked for zeros."""
    signal = white_noise_period(period_length, sample_rate, seed)
    theta = threshold_from_db(forward_dft(signal), theta_db)
    safeguarded, _ = safeguard_signal(signal, theta)
    return safeguarded, excitation_bins(forward_dft(safeguarded))


def _measured_estimates(excitation, x_bins, config, m_count):
    """Tile, run the chain, and estimate H on all L bins of each post-preamble segment.

    Returns the recorded stream and the (m_count, L) transfer estimates.
    """
    stream = SampleStream(
        np.tile(excitation.samples, m_count + 1), excitation.sample_rate
    )
    recorded = simulate_chain(stream, config)
    L = excitation.period_length
    block = segment_block(recorded.samples, L, m_count, skip=L)
    return recorded, estimate_transfer(block, x_bins)


def run_max_deviation_sweep(
    snr_db_list: tuple[float, ...] = (20.0, 40.0, 60.0),
    theta_db_list: tuple[float, ...] = DEFAULT_THETA_DB_GRID,
    seed: int = 0,
    period_length: int = 16384,
    sample_rate: int = 44100,
) -> ExperimentResult:
    """Max gain deviation from the identity ground truth per (SNR, flooring level)."""
    cols: list[list[float]] = [[] for _ in snr_db_list]
    for j, theta_db in enumerate(theta_db_list):
        excitation, x_bins = _safeguarded_excitation(
            period_length, sample_rate, theta_db, seed
        )
        for i, snr_db in enumerate(snr_db_list):
            config = SimulationConfig(snr_db=snr_db, seed=seed + 7919 * (i + 1) + j)
            _, h = _measured_estimates(excitation, x_bins, config, 1)
            gain_db = 20.0 * np.log10(np.abs(h[0]))
            cols[i].append(float(np.max(np.abs(gain_db))))
    metrics = {
        f"max_deviation_db_snr{snr_db:g}": tuple(col)
        for snr_db, col in zip(snr_db_list, cols)
    }
    return ExperimentResult(axis_name="theta_db", axis=tuple(theta_db_list), metrics=metrics)


def run_random_response_experiment(
    theta_db_list: tuple[float, ...] = DEFAULT_THETA_DB_GRID,
    snr_db: float = 40.0,
    m_count: int = 4,
    seed: int = 0,
    period_length: int = 16384,
    sample_rate: int = 44100,
) -> ExperimentResult:
    """Estimated random-response level versus flooring level.

    At full flooring the excitation is periodic pseudo-random noise and the
    estimate recovers the injected noise level (-snr dB) directly.
    """
    if m_count < 2:
        raise ValueError("m_count must be >= 2")
    levels = []
    for j, theta_db in enumerate(theta_db_list):
        excitation, x_bins = _safeguarded_excitation(
            period_length, sample_rate, theta_db, seed
        )
        config = SimulationConfig(snr_db=snr_db, seed=seed + 104729 + j)
        _, h = _measured_estimates(excitation, x_bins, config, m_count)
        _, d_stv_sq = time_invariant_response(h)
        levels.append(10.0 * math.log10(float(np.mean(d_stv_sq))))
    return ExperimentResult(
        axis_name="theta_db",
        axis=tuple(theta_db_list),
        metrics={"random_level_db": tuple(levels)},
    )


def run_nonlinearity_experiment(
    input_level_db_list: tuple[float, ...] = DEFAULT_INPUT_LEVEL_GRID,
    alpha: float = 0.4,
    snr_db: float = 40.0,
    p_count: int = 4,
    m_count: int = 4,
    seed: int = 0,
    theta_db: float = 0.0,
    period_length: int = 16384,
    sample_rate: int = 44100,
) -> ExperimentResult:
    """Random vs signal-dependent level across a drive-level sweep.

    Uses ``p_count`` distinct safeguarded white-noise periods, each
    repeated ``m_count`` times.  Normalized columns are referenced to the
    measured output power so levels are comparable across drive levels.
    """
    if p_count < 2 or m_count < 2:
        raise ValueError("need p_count >= 2 and m_count >= 2")
    excitations = [
        _safeguarded_excitation(period_length, sample_rate, theta_db, seed + 1000 + p)
        for p in range(p_count)
    ]
    excitation_power = float(
        np.mean([np.mean(e.samples**2) for e, _ in excitations])
    )
    rand_raw, sdr_raw, rand_norm, sdr_norm = [], [], [], []
    for j, level_db in enumerate(input_level_db_list):
        per_signal_h_sti = []
        per_signal_rand = []
        output_power = []
        for p, (excitation, x_bins) in enumerate(excitations):
            config = SimulationConfig(
                alpha=alpha,
                snr_db=snr_db,
                input_level_db=level_db,
                seed=seed + 4099 * (j + 1) + p,
            )
            recorded, h = _measured_estimates(excitation, x_bins, config, m_count)
            output_power.append(float(np.mean(recorded.samples**2)))
            h_sti, d_stv_sq = time_invariant_response(h)
            per_signal_h_sti.append(h_sti)
            per_signal_rand.append(float(np.mean(d_stv_sq)))
        _, h_ssdr_sq = signal_dependent_response(per_signal_h_sti)
        norm_db = 10.0 * math.log10(float(np.mean(output_power)) / excitation_power)
        rand_db = 10.0 * math.log10(float(np.mean(per_signal_rand)))
        sdr_db = 10.0 * math.log10(float(np.mean(h_ssdr_sq)))
        rand_raw.append(rand_db)
        sdr_raw.append(sdr_db)
        rand_norm.append(rand_db - norm_db)
        sdr_norm.append(sdr_db - norm_db)
    return ExperimentResult(
        axis_name="input_level_db",
        axis=tuple(input_level_db_list),
        metrics={
            "random_level_db": tuple(rand_raw),
            "signal_dependent_level_db": tuple(sdr_raw),
            "random_level_norm_db": tuple(rand_norm),
            "signal_dependent_level_norm_db": tuple(sdr_norm),
        },
    )
