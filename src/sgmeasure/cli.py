"""Command-line surface: safeguard, make-test, analyze, simulate.

Exit codes: 0 success, 2 usage, 3 input format, 4 analysis precondition.
Package errors are reported as one machine-readable JSON object on stderr;
any other exception is a bug and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

from .errors import InputFormatError, SgMeasureError, discard, output_file
from .reports import SCHEMA_VERSION, _clean, write_report
from .safeguard import safeguard_period
from .session import analyze_session, load_manifest
from .simulate import (
    run_flooring_regression,
    run_max_deviation_sweep,
    run_nonlinearity_experiment,
    run_random_response_experiment,
)
from .wavio import open_audio, read_audio, write_audio

SEED_ENV_VAR = "SGMEASURE_SEED"


def _default_seed() -> int:
    text = os.environ.get(SEED_ENV_VAR, "0")
    try:
        return int(text)
    except ValueError:
        raise InputFormatError(f"{SEED_ENV_VAR} must be an integer, got {text!r}") from None


def _octave_fraction(text: str) -> float | None:
    """``--smooth``'s text as a float, such as 1/3; none, off and 0 turn smoothing off."""
    if text.lower() in ("none", "off", "0"):
        return None
    return float(Fraction(text))


def _argument(parse, ok, expected: str):
    """argparse type: ``parse(text)`` where ``ok`` takes it, else ``not <expected>: <text>``."""
    def convert(text: str):
        try:
            value = parse(text)
            if ok(value):
                return value
        except (ValueError, ZeroDivisionError, OverflowError):
            pass
        raise argparse.ArgumentTypeError(f"not {expected}: {text!r}")
    return convert


def _cmd_safeguard(args) -> int:
    audio = open_audio(args.infile)
    if audio.length < args.period:
        raise InputFormatError(
            f"{args.infile}: {audio.length} samples, need a full period of {args.period}"
        )
    period = next(audio.read_ranges([(0, args.period)]))  # the period alone is read
    safeguarded, report = safeguard_period(period, args.theta_db)
    write_audio(args.out, safeguarded, audio.sample_rate)
    doc = _clean({
        "schema_version": SCHEMA_VERSION,
        "period_length": args.period,
        "sample_rate": audio.sample_rate,
        "theta_db": args.theta_db,
        **dataclasses.asdict(report),  # added_component_db is null when no bin changed
    })
    try:
        with output_file(args.report, "w") as out:
            out.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    except BaseException:
        discard(args.out)  # no half of the command's output is left
        raise
    return 0


def _cmd_make_test(args) -> int:
    samples, sample_rate = read_audio(args.infile)
    if samples.size < 2:
        raise InputFormatError(f"{args.infile}: {samples.size} samples, a period needs at least 2")
    write_audio(args.out, samples, sample_rate, args.repeats)
    return 0


def _cmd_analyze(args) -> int:
    manifest = load_manifest(args.manifest)
    report = analyze_session(manifest, smooth_fraction=args.smooth)
    write_report(args.out, report)
    return 0


def _experiments() -> dict:
    """Experiment name -> runner; built per call, so a rebound runner is the one used."""
    return {
        "regression": run_flooring_regression,
        "max-deviation": run_max_deviation_sweep,
        "random": run_random_response_experiment,
        "nonlinearity": run_nonlinearity_experiment,
    }


# Smallest value a runner parameter accepts, where it has one.
_MINIMUMS = {
    "seed": 0,
    "period_length": 2,
    "m_count": 2,
    "p_count": 2,
    "min_changed_bins": 0,
    "alpha": 0,
}


# The most samples a simulate runner's largest array may hold (512 MiB as float64),
# refused from the config before anything is made.  That array holds period_length
# samples times: 1 for the regression's noise period, 2 for the max-deviation chain
# stream, m_count + 1 for the other chain streams, or p_count for the nonlinearity runner's
# (p_count, L/2 + 1) complex per-signal stack when that is larger.  A chain runner
# runs two sweep points at once, so it may hold two such arrays.
SIMULATE_MAX_SAMPLES = 2**26
_PERIODS_HELD = {
    "regression": lambda k: 1,
    "max-deviation": lambda k: 2,
    "random": lambda k: k["m_count"] + 1,
    "nonlinearity": lambda k: max(k["m_count"] + 1, k["p_count"]),
}


def _is_number(name: str, value) -> bool:
    """A JSON number (not a boolean), finite except that an SNR may be +inf (noise off)."""
    if type(value) is int:
        return True
    return type(value) is float and (
        math.isfinite(value) or (name.startswith("snr_db") and value == math.inf)
    )


def _runner_kwargs(runner, config: dict) -> dict:
    """Check each config value against the type of its parameter's default.

    An int parameter takes an integer, a float parameter any number, a
    tuple parameter a non-empty list of numbers; values are not converted,
    so the report echoes exactly what was configured.
    """
    params = inspect.signature(runner).parameters
    unknown = set(config) - set(params)
    if unknown:
        raise InputFormatError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {}
    for name, value in config.items():
        default = params[name].default
        minimum = _MINIMUMS.get(name, -math.inf)
        if isinstance(default, tuple):
            expected = "a non-empty list of numbers"
            ok = isinstance(value, list) and value and all(_is_number(name, v) for v in value)
            value = tuple(value) if ok else value
        elif isinstance(default, int):
            expected = f"an integer >= {minimum}"
            ok = type(value) is int and value >= minimum
        else:
            expected = "a number" + (f" >= {minimum}" if name in _MINIMUMS else "")
            ok = _is_number(name, value) and value >= minimum
        if not ok:
            raise InputFormatError(f"config {name!r} must be {expected}, got {value!r}")
        kwargs[name] = value
    return kwargs


def _cmd_simulate(args) -> int:
    config = {}
    if args.config:
        try:
            config = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:  # also bad UTF-8 and over-long integers
            raise InputFormatError(f"cannot load config {args.config}: {exc}") from exc
        if not isinstance(config, dict):
            raise InputFormatError("simulation config must be a JSON object")
    config.setdefault("seed", _default_seed())
    runner = _experiments()[args.experiment]
    kwargs = _runner_kwargs(runner, config)
    sizes = {name: p.default for name, p in inspect.signature(runner).parameters.items()} | kwargs
    held = sizes["period_length"] * _PERIODS_HELD[args.experiment](sizes)
    if held > SIMULATE_MAX_SAMPLES:
        raise InputFormatError(
            f"{args.experiment}: its largest array would hold {held} samples, "
            f"beyond the budget of {SIMULATE_MAX_SAMPLES}"
        )
    report = runner(**kwargs)
    report.summary.update(experiment=args.experiment, config=config)
    write_report(args.out, report)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgmeasure",
        description="Safeguarded-excitation transfer function measurement tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("safeguard", help="floor a period's DFT magnitudes")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument(
        "--period", type=_argument(int, lambda n: n >= 2, "an integer of at least 2"),
        required=True, help="period length L >= 2 in samples",
    )
    p.add_argument(
        "--theta-db",
        type=_argument(float, math.isfinite, "a finite level in dB"),
        default=0.0,
        help="flooring level in dB relative to the mean bin magnitude",
    )
    p.add_argument("--out", required=True)
    p.add_argument("--report", required=True, help="SafeguardReport JSON path")
    p.set_defaults(func=_cmd_safeguard)

    p = sub.add_parser("make-test", help="concatenate a period into a test stream")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--repeats", required=True,
                   type=_argument(int, lambda n: n >= 1, "an integer of at least 1"))
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_make_test)

    p = sub.add_parser("analyze", help="analyze a measurement session")
    p.add_argument("--manifest", required=True)
    p.add_argument(
        "--smooth", help="octave fraction, e.g. 1/3, or none",
        type=_argument(_octave_fraction, lambda f: f is None or f > 0,
                       "a positive octave fraction"),
    )
    p.add_argument("--out", required=True, help=".csv or .json report path")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("simulate", help="run a numerical experiment")
    p.add_argument("--config", help="JSON config; defaults used when omitted")
    p.add_argument(
        "--experiment",
        required=True,
        choices=list(_experiments()),
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputFormatError as exc:
        _emit_error(exc)
        return 3
    except SgMeasureError as exc:
        _emit_error(exc)
        return 4


def _emit_error(exc: Exception) -> None:
    sys.stderr.write(
        json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
    )


if __name__ == "__main__":
    sys.exit(main())
