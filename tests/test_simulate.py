import math
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgmeasure.errors import (
    AnalysisError, DegenerateFit, InputFormatError, InsufficientRepetitions, InsufficientSignals,
    LevelOutOfRange,
)
from sgmeasure.safeguard import safeguard_period
import sgmeasure.simulate
from sgmeasure.simulate import (
    DEFAULT_INPUT_LEVEL_GRID,
    DEFAULT_THETA_DB_GRID,
    full_spectrum_mean,
    least_squares_line,
    nonlinearity,
    run_flooring_regression,
    run_max_deviation_sweep,
    run_nonlinearity_experiment,
    run_random_response_experiment,
    simulate_chain,
    white_noise_period,
)

from oracles import chain_full_stream, power_db


def test_nonlinearity_linear_limit_is_exact():
    x = np.array([-3.0, 0.0, 0.5, 100.0])
    assert np.array_equal(nonlinearity(x, 0.0), x)


def test_nonlinearity_fixed_point_at_zero():
    assert nonlinearity(np.array([0.0]), 0.4)[0] == 0.0


def test_nonlinearity_direct_evaluation():
    # (e^0.4 - 1)/0.4
    expected = (math.exp(0.4) - 1.0) / 0.4
    assert nonlinearity(np.array([1.0]), 0.4)[0] == pytest.approx(expected, rel=1e-15)
    assert expected == pytest.approx(1.2295617, abs=1e-7)


def test_nonlinearity_taylor_control():
    # for |alpha*x| tiny, y ~ x + alpha*x^2/2 to 1e-10
    x = np.array([1e-5, -1e-5, 5e-5])
    alpha = 1e-2
    y = nonlinearity(x, alpha)
    assert np.max(np.abs(y - x - alpha * x**2 / 2.0)) < 1e-10


def test_nonlinearity_overflow():
    with pytest.raises(OverflowError):
        nonlinearity(np.array([4000.0]), 0.4)


def test_nonlinearity_overflow_is_an_analysis_error():
    with pytest.raises(AnalysisError, match="float64"):
        nonlinearity(np.array([4000.0]), 0.4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before expm1 overflows
        with pytest.raises(AnalysisError, match="float64"):
            nonlinearity(np.array([-4000.0]), -0.4)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    length=st.integers(2, 2000),
    scale=st.sampled_from([1e-12, 1.0, 1e6]),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_sided_mean_equals_full_spectrum_mean(length, scale, seed):
    """The weighted mean over bins 0..L//2 is np.mean of the mirrored L-bin spectrum."""
    one_sided = scale * np.random.default_rng(seed).exponential(size=length // 2 + 1)
    full = np.concatenate([one_sided, one_sided[1 : (length + 1) // 2][::-1]])
    assert full.size == length
    expected = float(np.mean(full))
    assert abs(full_spectrum_mean(one_sided, length) - expected) <= 1e-15 * expected


def test_transparent_chain():
    stream = np.tile(white_noise_period(256, seed=1), 3)
    out = simulate_chain(stream, input_level_db=-6.0)
    assert np.max(np.abs(out - stream * 10 ** (-6.0 / 20.0))) < 1e-12


def test_noise_power_bookkeeping():
    stream = np.tile(white_noise_period(16384, seed=2), 8)
    out = simulate_chain(stream, snr_db=40.0, seed=3)
    noise_db = power_db(out - stream)
    assert noise_db == pytest.approx(power_db(stream) - 40.0, abs=0.2)


def test_chain_is_deterministic():
    stream = np.tile(white_noise_period(512, seed=4), 4)
    a = simulate_chain(stream, snr_db=30.0, alpha=0.2, seed=5)
    b = simulate_chain(stream, snr_db=30.0, alpha=0.2, seed=5)
    assert np.array_equal(a, b)


@st.composite
def chain_cases(draw):
    """A period of odd or even length and a chain's levels; a negative alpha mirrors the curve."""
    length = draw(st.integers(2, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = dict(
        alpha=draw(st.sampled_from([0.0, 1e-3, 0.4, 2.0])) * draw(st.sampled_from([1.0, -1.0])),
        input_level_db=draw(st.floats(-40.0, 12.0)),
        seed=draw(st.integers(0, 2**16)),
    )
    return rng.standard_normal(length), levels, draw(st.integers(1, 5))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=chain_cases(), snr_db=st.sampled_from([0.0, 30.0]))
def test_period_chain_matches_tiled_stream_chain(case, snr_db):
    """The period's chain output, tiled, is the stream's; its noise is sigma times the draws."""
    period, levels, repeats = case
    quiet = simulate_chain(period, **levels, repeats=repeats)
    oracle = chain_full_stream(period, levels["alpha"], levels["input_level_db"], repeats)
    assert quiet.size == oracle.size == repeats * period.size
    assert np.array_equal(quiet, oracle)
    noisy = simulate_chain(period, **levels, snr_db=snr_db, repeats=repeats)
    one_period = quiet[: period.size]
    sigma = math.sqrt(np.mean(one_period**2) * 10.0 ** (-snr_db / 10.0))
    philox = np.random.Philox(np.random.SeedSequence([levels["seed"], 0xD1CE]))
    draws = np.random.Generator(philox).standard_normal(quiet.size)
    assert np.max(np.abs((noisy - quiet) - sigma * draws)) <= 4e-16 * np.max(np.abs(noisy))


@pytest.mark.parametrize("level_db", [-1e300, -7000.0])
def test_level_that_underflows_the_gain_is_out_of_range(level_db):
    test = white_noise_period(64, seed=8)
    with pytest.raises(LevelOutOfRange, match="zero gain"):
        simulate_chain(test, input_level_db=level_db, repeats=3)


@pytest.mark.parametrize("alpha,snr_db", [(0.4, 40.0), (0.0, 40.0), (0.0, math.inf)])
def test_level_that_underflows_the_output_power_is_out_of_range(alpha, snr_db):
    """A gain of 1e-300 is representable, but the output's squares are not."""
    test = white_noise_period(64, seed=8)
    with pytest.raises(LevelOutOfRange, match="output power"):
        simulate_chain(test, alpha=alpha, snr_db=snr_db, input_level_db=-6000.0, repeats=2)


def test_silent_period_gives_a_silent_stream():
    out = simulate_chain(np.zeros(64), alpha=0.4, repeats=2)
    assert out.shape == (128,) and not np.any(out)


def test_level_that_overflows_the_output_is_out_of_range():
    test = white_noise_period(64, seed=9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the CLI's stderr carries only the JSON error
        with pytest.raises(LevelOutOfRange, match="output"):
            simulate_chain(test, input_level_db=6160.0, repeats=3)


@pytest.mark.parametrize("input_level_db,snr_db", [
    (3100.0, math.inf), (3100.0, 40.0), (20.0, -3080.0), (20.0, math.nan), (20.0, -math.inf),
])
def test_output_or_noise_power_beyond_float_range_is_out_of_range(input_level_db, snr_db):
    """Every output sample is finite, but the output's power or its noise power is not.

    A NaN or -inf SNR gives an undefined or infinite noise power.
    """
    test = white_noise_period(64, seed=9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the CLI's stderr carries only the JSON error
        with pytest.raises(LevelOutOfRange, match="noise power"):
            simulate_chain(test, snr_db=snr_db, input_level_db=input_level_db, repeats=3)


def test_fit_oracle_exact_line():
    x = np.array([-20.0, -10.0, 0.0, 10.0])
    slope, intercept = least_squares_line(x, 2.0 * x - 10.0)
    assert slope == pytest.approx(2.0, abs=1e-12)
    assert intercept == pytest.approx(-10.0, abs=1e-12)


def test_fit_rejects_degenerate_input():
    with pytest.raises(DegenerateFit):
        least_squares_line(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before np.polyfit warns
        with pytest.raises(DegenerateFit, match="2 distinct x values"):
            least_squares_line(np.array([-5.0, -5.0, -5.0]), np.array([1.0, 2.0, 3.0]))


def test_regression_degenerate_when_grid_unusable():
    # a grid entirely inside the saturated regime leaves < 3 usable points
    with pytest.raises(DegenerateFit):
        run_flooring_regression(
            seed=0, period_length=4096, theta_db_grid=(10.0, 15.0, 20.0)
        )


def test_regression_experiment_meets_reported_relation():
    result = run_flooring_regression(seed=0)
    assert result.summary["slope"] == pytest.approx(1.995, abs=0.10)
    assert result.summary["intercept"] == pytest.approx(-10.321, abs=1.0)
    assert result.table["bins_changed"][-1] == 100000  # +20 dB floors every bin


def test_max_deviation_noise_off_recovers_exactly():
    result = run_max_deviation_sweep(
        snr_db_list=(math.inf,), theta_db_list=(-50.0, 0.0, 20.0), seed=1,
        period_length=2048,
    )
    assert max(result.table["max_deviation_db_snrinf"]) < 1e-7


def test_max_deviation_flooring_benefit():
    result = run_max_deviation_sweep(
        snr_db_list=(40.0,), theta_db_list=(-50.0, 0.0), seed=2, period_length=16384
    )
    col = result.table["max_deviation_db_snr40"]
    assert col[1] < col[0]


@pytest.mark.parametrize("snr_db_list", [(20, 20.0), (40.0, 20.0, 40.0), (20.0000001, 20.0000002)])
def test_max_deviation_refuses_snrs_that_name_one_column(monkeypatch, snr_db_list):
    def chain(*args, **kwargs):
        raise AssertionError("a chain ran before the SNRs were checked")

    monkeypatch.setattr(sgmeasure.simulate, "simulate_chain", chain)
    with pytest.raises(InputFormatError, match="names a column twice"):
        run_max_deviation_sweep(snr_db_list=snr_db_list, theta_db_list=(0.0,), period_length=256)


def test_max_deviation_trend_over_grid():
    # medians over 5 seeds are non-increasing in the flooring level
    grid = (-50.0, -25.0, 0.0, 20.0)
    per_seed = [
        run_max_deviation_sweep(
            snr_db_list=(40.0,), theta_db_list=grid, seed=s, period_length=8192
        ).table["max_deviation_db_snr40"]
        for s in range(5)
    ]
    medians = np.median(np.array(per_seed), axis=0)
    assert np.all(np.diff(medians) <= 0)


def test_random_response_full_floor_recovers_noise_level():
    result = run_random_response_experiment(
        theta_db_list=(20.0,), snr_db=40.0, m_count=4, seed=3, period_length=16384
    )
    assert result.table["random_level_db"][0] == pytest.approx(-40.0, abs=1.0)


def test_random_response_noise_off_is_negligible():
    result = run_random_response_experiment(
        theta_db_list=(20.0,), snr_db=math.inf, m_count=4, seed=4, period_length=4096
    )
    assert result.table["random_level_db"][0] < -140.0


def test_full_floor_excitation_has_flat_magnitude():
    safeguarded, report = safeguard_period(white_noise_period(4096, seed=5), 20.0)
    assert report.bins_changed == 4096
    mags = np.abs(np.fft.rfft(safeguarded))
    assert np.max(np.abs(mags - report.theta_linear)) < 1e-12 * report.theta_linear


def count_calls(monkeypatch, name, modules):
    """Count calls of ``name`` through its binding in each of ``modules``."""
    calls = []
    original = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("runner", [run_random_response_experiment, run_max_deviation_sweep])
def test_theta_sweep_transforms_its_noise_period_once(monkeypatch, runner):
    """One spectrum of the shared noise period and one per floored excitation."""
    dfts = count_calls(monkeypatch, "forward_dft_raw", [sgmeasure.simulate])
    excitations = count_calls(monkeypatch, "excitation_bins", [sgmeasure.simulate])
    runner(period_length=1024)
    assert len(dfts) == 1 and len(excitations) == len(DEFAULT_THETA_DB_GRID)


@pytest.mark.parametrize("runner,counts,error", [
    (run_random_response_experiment, {"m_count": 1}, InsufficientRepetitions),
    (run_nonlinearity_experiment, {"m_count": 1}, InsufficientRepetitions),
    (run_nonlinearity_experiment, {"p_count": 1}, InsufficientSignals),
    (run_random_response_experiment, {"m_count": 0}, InsufficientRepetitions),
    (run_random_response_experiment, {"m_count": -1}, InsufficientRepetitions),
    (run_nonlinearity_experiment, {"m_count": 0}, InsufficientRepetitions),
    (run_nonlinearity_experiment, {"m_count": -1}, InsufficientRepetitions),
])
def test_runner_with_too_few_periods_raises_the_typed_error(runner, counts, error):
    """A library caller gets the same typed error as a session analysis: M and P are >= 2.

    Any M below 2 is refused before a chain runs, with the count in the message.
    """
    (count,) = counts.values()
    with pytest.raises(error, match=f">= 2 .*, got {count}$"):
        runner(period_length=64, **counts)


def test_nonlinearity_transforms_each_period_once(monkeypatch):
    dfts = count_calls(monkeypatch, "forward_dft_raw", [sgmeasure.simulate])
    excitations = count_calls(monkeypatch, "excitation_bins", [sgmeasure.simulate])
    result = run_nonlinearity_experiment(period_length=1024)
    assert len(result.table["input_level_db"]) == len(DEFAULT_INPUT_LEVEL_GRID)
    assert len(dfts) == 4 and len(excitations) == 4  # per period: its spectrum, the excitation's


def test_flooring_regression_transforms_its_period_once(monkeypatch):
    """One forward transform; every report comes from the spectrum, with no inverse."""
    dfts = count_calls(monkeypatch, "forward_dft_raw", [sgmeasure.simulate])
    inverses = count_calls(monkeypatch, "irfft", [np.fft])
    result = run_flooring_regression()
    assert len(result.table["theta_db"]) == len(DEFAULT_THETA_DB_GRID)
    assert len(dfts) == 1
    assert inverses == []


@pytest.mark.parametrize("count", [0, 1, 2, 5])
def test_sweep_returns_the_points_in_index_order(count):
    before = threading.active_count()
    assert sgmeasure.simulate._sweep(lambda j: 10 * j, count) == [10 * j for j in range(count)]
    assert threading.active_count() == before


def test_sweep_runs_even_points_here_and_odd_points_on_one_worker():
    threads = sgmeasure.simulate._sweep(lambda j: threading.get_ident(), 5)
    assert threads[0] == threads[2] == threads[4] == threading.get_ident()
    assert threads[1] == threads[3] != threading.get_ident()


@pytest.mark.parametrize("failing,raised,run", [({1, 2}, 1, {0, 1, 2}), ({2}, 2, {0, 1, 2, 3})])
def test_sweep_raises_the_error_of_the_least_failing_point(failing, raised, run):
    """Each side stops at its own first failure; the loop's error is raised, whatever came first."""
    before = threading.active_count()
    ran = set()
    caller_failed = threading.Event()

    def point(j):
        ran.add(j)
        if j in failing:
            if j % 2 == 0:
                caller_failed.set()
            else:
                assert caller_failed.wait(timeout=10)  # the worker fails after the caller
            raise LevelOutOfRange(str(j))
        return j

    with pytest.raises(LevelOutOfRange, match=f"^{raised}$"):
        sgmeasure.simulate._sweep(point, 5)
    assert ran == run
    assert threading.active_count() == before


def test_concurrent_sweeps_under_frequent_thread_switches_keep_their_points():
    """Four sweeps at once (eight threads on any core count) each give the loop's list and error."""
    def point(j):
        if j == 37:
            raise LevelOutOfRange(str(j))
        return float(np.sum(np.arange(j + 1.0)))

    def sweep(count, into):
        try:
            into.append(sgmeasure.simulate._sweep(point, count))
        except LevelOutOfRange as exc:
            into.append(str(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        outcomes = [[] for _ in range(4)]
        callers = [threading.Thread(target=sweep, args=(count, into))
                   for count, into in zip((30, 37, 38, 60), outcomes)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    loop = [float(np.sum(np.arange(j + 1.0))) for j in range(37)]
    assert outcomes == [[loop[:30]], [loop], ["37"], ["37"]]
