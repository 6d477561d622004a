"""Regenerate the stored references under ``perfbench/reference/``.

Run in a source checkout whose reports are meant to be the reference:

    python3 perfbench/make_reference.py

``simulate.json`` holds, per shipped seed, the tables of the four default
experiments, which the benchmark uses as the expected values for the
simulate-suite workload.  ``golden.json`` holds the SHA-256 of every report
each workload writes, per shipped seed; the benchmark counts byte-identical
reports against it but never fails a job on it.  Analyze reports are also
checked here against the numpy oracle before their hashes are stored.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
from pathlib import Path

import inputs
import oracle
from run import HERE, REFERENCE, SHIPPED_SEEDS


def main() -> int:
    root = HERE.parent
    sys.path.insert(0, str(root / "src"))
    import sgmeasure.cli

    workdir = root / ".perfbench-work" / "reference"
    shutil.rmtree(workdir, ignore_errors=True)
    golden: dict = {"analyze-wide": {}, "analyze-deep": {}, "simulate-suite": {}}
    tables: dict = {}
    for seed in range(SHIPPED_SEEDS):
        for workload in inputs.ANALYZE_SPECS:
            session = inputs.write_analyze_session(workload, seed, workdir / workload)
            if sgmeasure.cli.main(session.argv) != 0:
                raise SystemExit(f"{workload} seed {seed}: analyze failed")
            oracle.compare(workload, oracle.read_report(session.report),
                           oracle.expected_analyze(session),
                           ordered=session.report.suffix == ".csv")
            digest = hashlib.sha256(session.report.read_bytes()).hexdigest()
            golden[workload][str(seed)] = {workload: digest}
        tables[str(seed)] = {}
        golden["simulate-suite"][str(seed)] = {}
        for name, argv, report in inputs.write_simulate_configs(seed, workdir / "simulate"):
            if sgmeasure.cli.main(argv) != 0:
                raise SystemExit(f"{name} seed {seed}: simulate failed")
            summary, columns, table = oracle.read_report(report)
            tables[str(seed)][name] = {"summary": summary, "columns": columns, "table": table}
            golden["simulate-suite"][str(seed)][name] = hashlib.sha256(
                report.read_bytes()).hexdigest()
        print(f"seed {seed} done", file=sys.stderr)
    shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE.mkdir(exist_ok=True)
    (REFERENCE / "simulate.json").write_text(json.dumps(tables, sort_keys=True) + "\n")
    (REFERENCE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
