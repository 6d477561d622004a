"""Command-line surface: safeguard, make-test, analyze, simulate.

Exit codes: 0 success, 2 usage, 3 input format, 4 analysis precondition.
Module errors are reported as one machine-readable JSON object on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from .core import PeriodicSignal, SampleStream
from .errors import AnalysisError, InputFormatError, SgMeasureError
from .reports import SCHEMA_VERSION, AnalysisReport, write_report
from .core import forward_dft
from .safeguard import build_test_stream, safeguard_signal, threshold_from_db
from .session import analyze_session, load_manifest
from .simulate import (
    ExperimentResult,
    run_flooring_regression,
    run_max_deviation_sweep,
    run_nonlinearity_experiment,
    run_random_response_experiment,
)
from .wavio import read_audio, write_audio

SEED_ENV_VAR = "SGMEASURE_SEED"


def _default_seed() -> int:
    return int(os.environ.get(SEED_ENV_VAR, "0"))


def _smooth_fraction(text: str) -> float | None:
    """argparse type of ``--smooth``: a positive octave fraction, or none/off/0."""
    if text.lower() in ("none", "off", "0"):
        return None
    try:
        fraction = float(Fraction(text))
    except (ValueError, ZeroDivisionError, OverflowError):
        fraction = 0.0
    if fraction <= 0:
        raise argparse.ArgumentTypeError(f"not a positive octave fraction: {text!r}")
    return fraction


def _cmd_safeguard(args) -> int:
    stream = read_audio(args.infile)
    if len(stream) < args.period:
        raise InputFormatError(
            f"{args.infile}: {len(stream)} samples, need a full period of {args.period}"
        )
    period = PeriodicSignal(stream.samples[: args.period], stream.sample_rate)
    theta = threshold_from_db(forward_dft(period), args.theta_db)
    safeguarded, report = safeguard_signal(period, theta)
    write_audio(args.out, SampleStream(safeguarded.samples, period.sample_rate))
    doc = {
        "schema_version": SCHEMA_VERSION,
        "period_length": period.period_length,
        "sample_rate": period.sample_rate,
        "theta_db": args.theta_db,
        "theta_linear": theta.theta_linear,
        "bins_changed": report.bins_changed,
        "fraction_changed": report.fraction_changed,
        "added_component_db": (
            report.added_component_db
            if report.added_component_db != float("-inf")
            else None
        ),
    }
    Path(args.report).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_make_test(args) -> int:
    stream = read_audio(args.infile)
    period = PeriodicSignal(stream.samples, stream.sample_rate)
    write_audio(args.out, build_test_stream(period, args.repeats))
    return 0


def _cmd_analyze(args) -> int:
    manifest = load_manifest(args.manifest)
    report = analyze_session(manifest, smooth_fraction=args.smooth)
    write_report(args.out, report)
    return 0


def _experiment_report(name: str, result: ExperimentResult, config: dict) -> AnalysisReport:
    summary = {"experiment": name, "config": config}
    if result.slope is not None:
        summary["slope"] = result.slope
        summary["intercept"] = result.intercept
    table: dict[str, list] = {result.axis_name: list(result.axis)}
    for metric, col in result.metrics.items():
        table[metric] = list(col)
    return AnalysisReport(summary=summary, table=table)


def _cmd_simulate(args) -> int:
    config = {}
    if args.config:
        try:
            config = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise InputFormatError(f"cannot load config {args.config}: {exc}") from exc
        if not isinstance(config, dict):
            raise InputFormatError("simulation config must be a JSON object")
    config.setdefault("seed", _default_seed())

    def pick(*names):
        kwargs = {}
        for name in names:
            if name in config:
                value = config[name]
                kwargs[name] = tuple(value) if isinstance(value, list) else value
        unknown = set(config) - set(names)
        if unknown:
            raise InputFormatError(f"unknown config keys: {sorted(unknown)}")
        return kwargs

    if args.experiment == "regression":
        result = run_flooring_regression(
            **pick(
                "seed",
                "period_length",
                "sample_rate",
                "theta_db_grid",
                "min_changed_bins",
                "max_changed_fraction",
            )
        )
    elif args.experiment == "max-deviation":
        result = run_max_deviation_sweep(
            **pick("snr_db_list", "theta_db_list", "seed", "period_length", "sample_rate")
        )
    elif args.experiment == "random":
        result = run_random_response_experiment(
            **pick(
                "theta_db_list", "snr_db", "m_count", "seed", "period_length", "sample_rate"
            )
        )
    else:
        result = run_nonlinearity_experiment(
            **pick(
                "input_level_db_list",
                "alpha",
                "snr_db",
                "p_count",
                "m_count",
                "seed",
                "theta_db",
                "period_length",
                "sample_rate",
            )
        )
    write_report(args.out, _experiment_report(args.experiment, result, config))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgmeasure",
        description="Safeguarded-excitation transfer function measurement tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("safeguard", help="floor a period's DFT magnitudes")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--period", type=int, required=True, help="period length L in samples")
    p.add_argument(
        "--theta-db",
        type=float,
        default=0.0,
        help="flooring level in dB relative to the mean bin magnitude",
    )
    p.add_argument("--out", required=True)
    p.add_argument("--report", required=True, help="SafeguardReport JSON path")
    p.set_defaults(func=_cmd_safeguard)

    p = sub.add_parser("make-test", help="concatenate a period into a test stream")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--repeats", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_make_test)

    p = sub.add_parser("analyze", help="analyze a measurement session")
    p.add_argument("--manifest", required=True)
    p.add_argument(
        "--smooth",
        type=_smooth_fraction,
        default=None,
        help="octave fraction, e.g. 1/3, or none",
    )
    p.add_argument("--out", required=True, help=".csv or .json report path")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("simulate", help="run a numerical experiment")
    p.add_argument("--config", help="JSON config; defaults used when omitted")
    p.add_argument(
        "--experiment",
        required=True,
        choices=["regression", "max-deviation", "random", "nonlinearity"],
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "repeats", None) is not None and args.repeats < 1:
        parser.error("--repeats must be >= 1")
    try:
        return args.func(args)
    except InputFormatError as exc:
        _emit_error(exc)
        return 3
    except (AnalysisError, SgMeasureError, ValueError) as exc:
        _emit_error(exc)
        return 4


def _emit_error(exc: Exception) -> None:
    sys.stderr.write(
        json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
    )


if __name__ == "__main__":
    sys.exit(main())
