"""Mutation probe of the tier-1 suite: does some test fail when one line of the source is wrong?

Each mutant below changes part of one line of ``src/sgmeasure``.  The probe applies
it in a temporary copy of ``src/``, ``tests/``, ``perfbench/`` (whose tracer
``tests/test_trace_compat.py`` loads), ``README.md`` and ``pyproject.toml``,
runs the tier-1 suite there with ``-x``, and prints whether the mutant was
killed (a test failed, named) or survived (the suite passed).  A mutant whose text is not in its module exactly once is reported
stale: update or drop it with the change that moved the line.  Tier-1 checks
that no mutant is stale (``tests/test_mutation_probe.py``); the probe does not
run that test, which every mutant's copy would fail.

The probe needs only the standard library and the test suite's own
dependencies.  pytest does not collect it (its name does not start with
``test_``), and it is not part of tier-1: each mutant runs the suite up to
its first failure.  Run it from anywhere:

    python tests/mutation_probe.py              # every mutant
    python tests/mutation_probe.py --list       # their names
    python tests/mutation_probe.py NAME [NAME]  # the named mutants

It exits 0 when every mutant run was killed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "README.md", "pyproject.toml")
TIMEOUT_S = 900

# (name, module under src/sgmeasure, text within one line as it is, that text mutated)
MUTANTS = [
    ("background divisor", "session.py",
     "    return acc / (len(x_bins) * usable)",
     "    return acc / usable"),
    ("background first excitation", "session.py",
     "            acc += np.abs(y / x) ** 2",
     "            acc += np.abs(y / x_bins[0]) ** 2"),
    ("normalization", "session.py",
     "    normalization_db = 10.0 * math.log10(output_power / excitation_power)",
     "    normalization_db = 10.0 * math.log10(output_power)"),
    ("silent recording check", "session.py",
     "    if power == 0.0:",
     "    if power < 0.0:"),
    ("skip_preamble default", "session.py",
     '        skip = integer("skip_preamble", doc.get("skip_preamble", period_length), 0)',
     '        skip = integer("skip_preamble", doc.get("skip_preamble", 0), 0)'),
    ("median over P", "session.py",
     '        "random_level": np.mean(d_stv_sq, axis=0),',
     '        "random_level": np.median(d_stv_sq, axis=0),'),
    ("power sum split rounding", "session.py",
     "        half = n // 2 - (n // 2) % 8",
     "        half = n // 2 - (n // 2) % 4"),
    ("power sum leaf size", "session.py",
     "    if n > 128 and n > len(rest[0]):",
     "    if n > 64 and n > len(rest[0]):"),
    ("smoothing band edges", "separation.py",
     "factor = 2.0 ** min(fraction / 2.0, 64.0)",
     "factor = 2.0 ** min(fraction, 64.0)"),
    ("variance denominator", "separation.py",
     "    var /= n - 1",
     "    var /= n"),
    ("flooring ulp guard", "safeguard.py",
     "_GUARD = 1.0 - 2.0**-50",
     "_GUARD = 1.0"),
    ("flooring fraction", "safeguard.py",
     "    return SafeguardReport(theta, changed, changed / length, added_db)",
     "    return SafeguardReport(theta, changed, changed / (length // 2 + 1), added_db)"),
    ("period length check", "safeguard.py",
     "    if period.ndim != 1 or period.size < 2:",
     "    if period.ndim != 1 or period.size < 1:"),
    ("threshold range check", "safeguard.py",
     "    if not 0.0 < theta < math.inf:",
     "    if not 0.0 <= theta < math.inf:"),
    ("random seed offset", "simulate.py",
     "_measured_block(excitation, m_count, snr_db=snr_db, seed=seed + 104729 + j)",
     "_measured_block(excitation, m_count, snr_db=snr_db, seed=seed + 104729)"),
    ("nonlinearity seed offset", "simulate.py",
     "seed=seed + 4099 * (j + 1) + p,",
     "seed=seed + 4099 * (j + 1),"),
    ("PCM24 scale", "wavio.py",
     "        return np.right_shift(words, 8) / 2.0**23",
     "        return np.right_shift(words, 8) / 2.0**24"),
    ("decode twice", "wavio.py",
     "        yield _decode(raw, 1, stop - start, audio.bits)",
     "        yield _decode(raw, 1, stop - start, audio.bits) + 0.0 * "
     "_decode(raw, 1, stop - start, audio.bits)"),
    ("--smooth 0 spelling", "cli.py",
     '    if text.lower() in ("none", "off", "0"):',
     '    if text.lower() in ("none", "off"):'),
    ("simulate budget boundary", "cli.py",
     "    if held > SIMULATE_MAX_SAMPLES:",
     "    if held >= SIMULATE_MAX_SAMPLES:"),
    ("chain stream periods", "cli.py",
     '    "random": lambda k: k["m_count"] + 1,',
     '    "random": lambda k: k["m_count"],'),
    ("hermitian_sum Nyquist bin", "core.py",
     "    if length % 2 == 0:",
     "    if length % 2 == 1:"),
    ("write sample rate check", "wavio.py",
     '        raise ValueError(f"sample_rate must be an integer of at least 1, got {sample_rate!r}")',
     "        pass"),
    ("write 1-D check", "wavio.py",
     '        raise ValueError("samples must be 1-D")',
     "        pass"),
    ("--repeats minimum", "cli.py",
     "type=_argument(int, lambda n: n >= 1,",
     "type=_argument(int, lambda n: n >= 0,"),
    ("nonlinearity p_count check", "simulate.py",
     "    if p_count < 2:",
     "    if p_count < 1:"),
    ("no normalized signal-dependent level", "session.py",
     '        if name in ("random_level", "signal_dependent_level"):',
     '        if name in ("random_level",):'),
    ("background not smoothed", "session.py",
     'table[f"{name}_smooth_db"] = _db_power(',
     'if name != "background_level": table[f"{name}_smooth_db"] = _db_power('),
    ("--theta-db text", "cli.py",
     "            pass",
     "            return 0.0"),
    ("config not an object", "cli.py",
     "        if not isinstance(config, dict):",
     "        if not isinstance(config, (dict, list)):"),
    ("manifest without entries", "session.py",
     "    if not entries:",
     "    if entries is None:"),
    ("unequal table columns", "reports.py",
     '            raise ValueError("table columns have unequal lengths")',
     "            pass"),
    ("smoothing fraction of zero", "separation.py",
     "    if fraction <= 0:",
     "    if fraction < 0:"),
    ("range read of a removed file", "wavio.py",
     '        raise CorruptFile(f"cannot read {path}: {exc}") from exc',
     "        raise"),
    ("line through one x value", "simulate.py",
     "    if x.min() == x.max():",
     "    if x.min() > x.max():"),
    ("SNRs naming one column", "simulate.py",
     "    if len(set(names)) < len(names):",
     "    if len(names) < len(snr_db_list):"),
    ("regression fits a point where no bin changed", "simulate.py",
     "            report.bins_changed >= max(1, min_changed_bins)",
     "            report.bins_changed >= min_changed_bins"),
    ("non-finite mean accepted", "separation.py",
     "    if not np.all(np.isfinite(mean)):",
     "    if False:"),
    ("float check of the first piece only", "wavio.py",
     "raw = _read_into(fh, buffer, start + at,",
     "raw = _read_into(fh, buffer, start,"),
    ("whole read leaves float data unchecked", "wavio.py",
     "        _check_finite(samples, path)",
     "        pass"),
    ("one repeat written", "wavio.py",
     "        for _ in range(repeats):",
     "        for _ in range(1):"),
    ("sweep runs on past a failure", "simulate.py",
     "            if j > min(errors, default=j):",
     "            if False:"),
    ("chain takes a float repeats", "simulate.py",
     "if not isinstance(repeats, numbers.Integral) or isinstance(repeats, bool) or repeats < 1:",
     "if repeats < 1:"),
    ("write takes a bool repeats", "wavio.py",
     "or isinstance(repeats, bool) or repeats < 0:",
     "or repeats < 0:"),
]


def mutated(text: str, before: str, after: str) -> str | None:
    """``text`` with ``before``, part of one line found once, made ``after``; else None."""
    if "\n" in before or text.count(before) != 1:
        return None
    return text.replace(before, after)


def run(module: str, before: str, after: str) -> tuple[str, str]:
    """(outcome, detail) of one mutant: killed by a test, survived, or stale."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        for item in COPIED:
            source = ROOT / item
            if source.is_dir():
                shutil.copytree(source, copy / item,
                                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(source, copy / item)
        path = copy / "src" / "sgmeasure" / module
        text = mutated(path.read_text(), before, after)
        if text is None:
            return "stale", f"{module} does not hold this once: {before.strip()!r}"
        path.write_text(text)
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
                   "--ignore", "tests/test_mutation_probe.py", "tests"]
        try:
            done = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "killed", f"timeout after {TIMEOUT_S} s"
    if done.returncode == 0:
        return "survived", ""
    failed = re.findall(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.M)
    return "killed", failed[0] if failed else f"pytest exit {done.returncode}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="print the mutant names and exit")
    args = parser.parse_args(argv)
    if args.list:
        print("\n".join(name for name, *_ in MUTANTS))
        return 0
    unknown = set(args.names) - {name for name, *_ in MUTANTS}
    if unknown:
        parser.error(f"unknown mutants: {sorted(unknown)}")
    chosen = [m for m in MUTANTS if not args.names or m[0] in args.names]
    killed = 0
    for name, module, before, after in chosen:
        start = time.perf_counter()
        outcome, detail = run(module, before, after)
        killed += outcome == "killed"
        print(f"{outcome:8}  {name:28}  {time.perf_counter() - start:6.1f} s  {detail}",
              flush=True)
    print(f"{killed} of {len(chosen)} mutants killed")
    return 0 if killed == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main())
