"""Deterministic virtual measurement chain and experiment runners.

The chain is fixed as gain -> memoryless nonlinearity -> additive Gaussian
noise; the deterministic stages run on one period.  Noise power is set
relative to the pre-noise output power (the safeguarded signal's own
level), so the configured SNR refers to what actually reaches the virtual
microphone.  All randomness flows through counter-based Philox generators
keyed on the configured seed, so identical configs give bit-identical
streams.  Each sweep point draws from its own Philox key, so the chain
runners run their points two at a time (:func:`_sweep`) and still write
the report bytes of a loop.  Each experiment runner returns the report
the ``simulate`` command writes: a table of its sweep axis followed by
its metric columns, and the fitted line in the summary where it has
one.  Zero power is -inf dB (a null cell).
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .core import forward_dft_raw, full_spectrum_mean
from .errors import (
    DegenerateFit,
    InputFormatError,
    InsufficientRepetitions,
    InsufficientSignals,
    LevelOutOfRange,
)
from .reports import AnalysisReport
from .safeguard import floor_period, floor_report, floor_threshold
from .separation import estimate_transfer, excitation_bins, segment_block, separate_signals

__all__ = [
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


def _sweep(point, count):
    """``[point(j) for j in range(count)]``, even j on this thread and odd j on one more.

    numpy releases the GIL in Philox fills, FFTs and large ufuncs, so the sides overlap.
    Each side stops at its first failure; the error of the least failing j is
    raised, as the loop raises it.  A point sets the ``np.errstate`` it needs
    itself: a thread does not inherit its caller's.
    """
    results, errors = [None] * count, {}

    def side(start):
        for j in range(start, count, 2):
            try:
                results[j] = point(j)
            except Exception as exc:
                errors[j] = exc
                return

    worker = threading.Thread(target=side, args=(1,))
    worker.start()
    try:
        side(0)
    finally:
        worker.join()
    if errors:
        raise errors[min(errors)]
    return results


def _db(power: float) -> float:
    """10*log10 of a power; -inf for zero power, :class:`LevelOutOfRange` for an overflowed one."""
    if not power < math.inf:
        raise LevelOutOfRange(f"a power of {power} overflows float64")
    return 10.0 * math.log10(power) if power > 0 else -math.inf


def white_noise_period(length: int, seed: int) -> np.ndarray:
    """Seeded unit-variance Gaussian white-noise period."""
    return _rng(seed).standard_normal(length)


def nonlinearity(x: np.ndarray, alpha: float) -> np.ndarray:
    """Memoryless exponential nonlinearity (exp(alpha*x) - 1)/alpha.

    alpha = 0 is the analytic linear limit and returns x exactly.  ``expm1``
    keeps the numerator precise at small drive levels, where it would cancel.
    """
    x = np.asarray(x, dtype=np.float64)
    if alpha == 0.0:
        return x.copy()
    peak = float(np.max(np.abs(x))) if x.size else 0.0
    if abs(alpha) * peak > 700.0:  # exp overflow bound for float64, for either sign of alpha
        raise LevelOutOfRange(f"exp({abs(alpha) * peak:.1f}) exceeds float64 range")
    return np.expm1(alpha * x) / alpha


def simulate_chain(
    test: np.ndarray, *, alpha: float = 0.0, snr_db: float = SNR_OFF,
    input_level_db: float = 0.0, seed: int = 0, repeats: int = 1,
) -> np.ndarray:
    """Play ``repeats`` back-to-back copies of the period ``test`` through the virtual chain.

    Gain and the nonlinearity run once on the period: their output tiled
    ``repeats`` times is the periodic steady state of the whole stream.
    Noise is drawn over the whole stream, scaled to the period's output power.
    A drive level whose gain underflows to zero, whose gain, output power
    or noise power overflows or is undefined (a NaN or -inf SNR), or whose
    output from a non-zero period has zero power raises :class:`LevelOutOfRange`.
    """
    try:
        gain = 10.0 ** (input_level_db / 20.0)
        noise_ratio = 10.0 ** (-snr_db / 10.0)
    except OverflowError:
        raise LevelOutOfRange(
            f"input level {input_level_db} dB or SNR {snr_db} dB exceeds float64 range"
        ) from None
    if gain == 0.0:
        raise LevelOutOfRange(f"input level {input_level_db} dB underflows to zero gain")
    with np.errstate(over="ignore", invalid="ignore"):  # checked here, without a warning
        out = nonlinearity(gain * test, alpha)
        power = float(np.mean(out**2))  # finite only if every output sample is
        if not (math.isfinite(power) and math.isfinite(power * noise_ratio)):
            raise LevelOutOfRange(
                f"input level {input_level_db} dB, SNR {snr_db} dB: output/noise power not finite"
            )
    if power == 0.0 and np.any(test):
        raise LevelOutOfRange(
            f"input level {input_level_db} dB underflows the output power to zero"
        )
    if not math.isfinite(snr_db):
        return np.tile(out, repeats)
    samples = _rng(seed, 0xD1CE).standard_normal(repeats * out.size)
    samples *= math.sqrt(power * noise_ratio)
    samples.reshape(repeats, out.size)[...] += out  # the tiled output, without a copy
    return samples


def least_squares_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Ordinary least squares fit y ~ intercept + slope*x."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size < 3:
        raise DegenerateFit(f"need at least 3 points for a stable fit, got {x.size}")
    if x.min() == x.max():
        raise DegenerateFit(f"need 2 distinct x values for a line, all are {float(x[0])}")
    slope, intercept = np.polyfit(x, y, 1)
    return float(slope), float(intercept)


def run_flooring_regression(
    seed: int = 0,
    period_length: int = 100000,
    theta_db_grid: tuple[float, ...] = DEFAULT_THETA_DB_GRID,
    min_changed_bins: int = 100,
    max_changed_fraction: float = 0.9,
) -> AnalysisReport:
    """Sweep the flooring level on white noise and regress the added level.

    The fit uses only sweep points where flooring is statistically in its
    linear regime: at least one and at least ``min_changed_bins`` bins
    changed (with none the added level is -inf dB, and below
    ``min_changed_bins`` it is extreme-value noise) and at most
    ``max_changed_fraction`` of all bins changed (above that the floor
    saturates and the relation bends toward slope 1).
    """
    magnitude = np.abs(forward_dft_raw(white_noise_period(period_length, seed)))
    sigma_db: list[float] = []
    bins_changed: list[float] = []
    used: list[float] = []
    for theta_db in theta_db_grid:
        theta = floor_threshold(magnitude, period_length, theta_db)
        report = floor_report(magnitude, period_length, theta)
        if report.added_component_db == math.inf:  # white noise is not silent: an overflow
            raise LevelOutOfRange(f"flooring at {theta_db} dB adds a power beyond float64")
        sigma_db.append(report.added_component_db)
        bins_changed.append(float(report.bins_changed))
        usable = (
            report.bins_changed >= max(1, min_changed_bins)
            and report.fraction_changed <= max_changed_fraction
        )
        used.append(1.0 if usable else 0.0)
    mask = np.asarray(used, dtype=bool)
    slope, intercept = least_squares_line(
        np.asarray(theta_db_grid)[mask], np.asarray(sigma_db)[mask]
    )
    return AnalysisReport(
        summary={"slope": slope, "intercept": intercept},
        table={
            "theta_db": list(theta_db_grid),
            "sigma_db": sigma_db,
            "bins_changed": bins_changed,
            "used_in_fit": used,
        },
    )


def _flooring(period):
    """theta_db -> ``period`` floored at theta_db and its excitation bins, checked for zeros.

    The period is transformed once, for every flooring level.
    """
    bins = forward_dft_raw(period)
    magnitude = np.abs(bins)

    def floored(theta_db):
        theta = floor_threshold(magnitude, period.size, theta_db)
        excitation = floor_period(period, bins, magnitude, theta)
        return excitation, excitation_bins(excitation)

    return floored


def _measured_block(excitation, m_count, **levels):
    """Run m_count + 1 periods through the chain at ``levels``, :func:`simulate_chain`'s keywords.

    The first period is the preamble.  Returns the recorded stream and the
    (m_count, L) segment block of the periods after it.
    """
    recorded = simulate_chain(excitation, repeats=m_count + 1, **levels)
    L = excitation.size
    return recorded, segment_block(recorded, L, m_count, skip=L)


def run_max_deviation_sweep(
    snr_db_list: tuple[float, ...] = (20.0, 40.0, 60.0),
    theta_db_list: tuple[float, ...] = DEFAULT_THETA_DB_GRID,
    seed: int = 0,
    period_length: int = 16384,
) -> AnalysisReport:
    """Max gain deviation from the identity ground truth per (SNR, flooring level)."""
    names = [f"max_deviation_db_snr{snr_db:g}" for snr_db in snr_db_list]
    if len(set(names)) < len(names):
        raise InputFormatError(f"snr_db_list {list(snr_db_list)} names a column twice: {names}")
    floored = _flooring(white_noise_period(period_length, seed))

    def point(j):
        excitation, x_bins = floored(theta_db_list[j])
        deviations = []
        for i, snr_db in enumerate(snr_db_list):
            _, block = _measured_block(
                excitation, 1, snr_db=snr_db, seed=seed + 7919 * (i + 1) + j
            )
            gain_db = 20.0 * np.log10(np.abs(estimate_transfer(block, x_bins)[0]))
            deviations.append(float(np.max(np.abs(gain_db))))
        return deviations

    rows = _sweep(point, len(theta_db_list))
    cols = {name: [row[i] for row in rows] for i, name in enumerate(names)}
    return AnalysisReport(summary={}, table={"theta_db": list(theta_db_list), **cols})


def run_random_response_experiment(
    theta_db_list: tuple[float, ...] = DEFAULT_THETA_DB_GRID,
    snr_db: float = 40.0,
    m_count: int = 4,
    seed: int = 0,
    period_length: int = 16384,
) -> AnalysisReport:
    """Estimated random-response level versus flooring level.

    At full flooring the excitation is periodic pseudo-random noise and the
    estimate recovers the injected noise level (-snr dB) directly.
    """
    if m_count < 2:
        raise InsufficientRepetitions(f"need M >= 2 repeated estimates, got {m_count}")
    floored = _flooring(white_noise_period(period_length, seed))

    def point(j):
        excitation, x_bins = floored(theta_db_list[j])
        _, block = _measured_block(excitation, m_count, snr_db=snr_db, seed=seed + 104729 + j)
        with np.errstate(over="ignore"):  # _db refuses an overflowed level
            _, d_stv_sq, _, _ = separate_signals([estimate_transfer(block, x_bins)])
            level = full_spectrum_mean(d_stv_sq[0], period_length)
        return _db(level)

    levels = _sweep(point, len(theta_db_list))
    return AnalysisReport(
        summary={}, table={"theta_db": list(theta_db_list), "random_level_db": levels}
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
) -> AnalysisReport:
    """Random vs signal-dependent level across a drive-level sweep.

    Uses ``p_count`` distinct safeguarded white-noise periods, each
    repeated ``m_count`` times.  Normalized columns are referenced to the
    measured output power so levels are comparable across drive levels.
    """
    if p_count < 2:
        raise InsufficientSignals(f"need P >= 2 distinct signals, got {p_count}")
    if m_count < 2:
        raise InsufficientRepetitions(f"need M >= 2 repeated estimates, got {m_count}")
    excitations = [
        _flooring(white_noise_period(period_length, seed + 1000 + p))(theta_db)
        for p in range(p_count)
    ]
    with np.errstate(over="ignore"):  # refused below
        excitation_power = float(np.mean([np.mean(e**2) for e, _ in excitations]))
    if not excitation_power < math.inf:
        raise LevelOutOfRange(f"an excitation power of {excitation_power} overflows float64")

    def point(j):
        output_power = []

        def measured(p):
            excitation, x_bins = excitations[p]
            recorded, block = _measured_block(
                excitation, m_count, alpha=alpha, snr_db=snr_db,
                input_level_db=input_level_db_list[j], seed=seed + 4099 * (j + 1) + p,
            )
            estimate = estimate_transfer(block, x_bins)  # block views recorded, squared next
            output_power.append(float(np.mean(np.square(recorded, out=recorded))))
            return estimate

        with np.errstate(over="ignore"):  # _db refuses an overflowed level
            _, d_stv_sq, _, h_ssdr_sq = separate_signals(map(measured, range(p_count)))
            norm = float(np.mean(output_power)) / excitation_power
            rand = float(np.mean([full_spectrum_mean(d, period_length) for d in d_stv_sq]))
            sdr = full_spectrum_mean(h_ssdr_sq, period_length)
        norm_db, rand_db, sdr_db = _db(norm), _db(rand), _db(sdr)
        return rand_db, sdr_db, rand_db - norm_db, sdr_db - norm_db

    rows = _sweep(point, len(input_level_db_list))
    names = ("random_level_db", "signal_dependent_level_db",
             "random_level_norm_db", "signal_dependent_level_norm_db")
    cols = {name: [row[i] for row in rows] for i, name in enumerate(names)}
    return AnalysisReport(summary={}, table={"input_level_db": list(input_level_db_list), **cols})
