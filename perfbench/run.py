"""sgmeasure benchmark: closed-loop CLI jobs, timed end to end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload analyze-deep --seed 1 --seconds 20 --trace 0

One client runs jobs back to back in this process (a closed loop); a job
is one or more in-process ``sgmeasure.cli.main(argv)`` calls, the next job
starting when the previous one returns.  Inputs are written from ``--seed``
before anything is timed, and every job's exit code and report are
checked.  Times are scaled by a host-speed probe taken between timed
intervals (:class:`SpeedLog`).  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` alternates plain and traced jobs and prints the
per-layer metrics.  The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import inputs
import oracle
from tracer import PER_LAYER, Tracer

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"
WORKLOADS = ("analyze-wide", "analyze-deep", "simulate-suite")
SHIPPED_SEEDS = 32  # reference tables and golden hashes exist for seeds 0..31
SETUP_SAMPLES = 21
TAIL_BEYOND = 10

# Peak RSS is read in a fresh interpreter that only imports sgmeasure and
# runs one job on inputs that already exist.  VmHWM belongs to the new
# address space; ru_maxrss would keep this process's peak across exec.
RSS_CHILD = """\
import json, sys
import sgmeasure.cli
for argv in json.loads(sys.argv[1]):
    if sgmeasure.cli.main(argv) != 0:
        sys.exit(1)
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


class Job:
    """The CLI calls of one job and the checks of its reports."""

    def __init__(self, workload: str, case: int, workdir: Path) -> None:
        golden = json.loads((REFERENCE / "golden.json").read_text())
        self.argvs: list[list[str]] = []
        # (label, report path, expected, same column order required)
        self.outputs: list[tuple[str, Path, tuple, bool]] = []
        if workload == "simulate-suite":
            tables = json.loads((REFERENCE / "simulate.json").read_text())[str(case)]
            for name, argv, report in inputs.write_simulate_configs(case, workdir):
                expected = tables[name]
                self.argvs.append(argv)
                self.outputs.append(
                    (name, report, (expected["summary"], expected["columns"],
                                    expected["table"]), True)
                )
        else:
            session = inputs.write_analyze_session(workload, case, workdir)
            self.argvs.append(session.argv)
            self.outputs.append(
                (workload, session.report, oracle.expected_analyze(session),
                 session.report.suffix == ".csv")
            )
        self.golden = golden[workload][str(case)]
        self.verified: dict[str, bytes] = {}

    def clear_outputs(self) -> None:
        for _, path, _, _ in self.outputs:
            path.unlink(missing_ok=True)

    def check(self) -> int:
        """Raise oracle.Mismatch on a wrong report; return golden-byte matches."""
        matches = 0
        for label, path, expected, ordered in self.outputs:
            if not path.exists():
                raise oracle.Mismatch(f"{label}: no report written")
            data = path.read_bytes()
            if self.verified.get(label) != data:
                oracle.compare(label, oracle.read_report(path), expected, ordered)
                self.verified.setdefault(label, data)
            matches += hashlib.sha256(data).hexdigest() == self.golden[label]
        return matches


PROBE_SMALL = np.random.default_rng(0).standard_normal(16384)
PROBE_LARGE = np.random.default_rng(1).standard_normal(1 << 18)  # beyond L2
PROBE_EVERY_S = 0.25  # at most one probe per this much timed work
# Probes on each side of an interval that set its speed.  The nearest one
# on each side gave steadier medians and tails than wider windows in trials:
# host speed swings within seconds.
PROBE_NEIGHBOURS = 1


def _small_ffts() -> None:
    x = PROBE_SMALL
    for _ in range(16):
        x = np.fft.irfft(np.fft.rfft(x), n=x.size)


def _large_fft() -> None:
    np.fft.irfft(np.fft.rfft(PROBE_LARGE), n=PROBE_LARGE.size)


def _interpreter_loop() -> None:
    total = 0
    for i in range(80000):
        total += i * i


# (part, its median seconds on the 2-vCPU VM the benchmark was tuned on).
# Cache-resident FFTs, an FFT that spills out of L2 and interpreted code
# together follow the host-speed swings of all three workloads; in trials,
# job time moved with this mix at an elasticity of 0.8 to 1.25.
PROBE_PARTS = ((_small_ffts, 0.0055), (_large_fft, 0.018), (_interpreter_loop, 0.0065))


def probe() -> float:
    """Host slowness: mean of each probe part's time over its nominal time.

    It runs between timed intervals, never inside one, and reads about 1
    on the host the nominal times were taken on.
    """
    slowness = 0.0
    for part, nominal in PROBE_PARTS:
        start = time.perf_counter()
        part()
        slowness += (time.perf_counter() - start) / nominal
    return slowness / len(PROBE_PARTS)


class SpeedLog:
    """Host-speed probes taken between timed intervals, in run order.

    On a shared machine host speed swings by half within seconds and
    drifts by up to 1.8x over minutes, and every job slows with it.  A timed
    interval is therefore divided by the median slowness of the
    PROBE_NEIGHBOURS probes taken just before it and just after it, so it
    reads as seconds on the host the probe's nominal times were taken on.
    """

    def __init__(self) -> None:
        self.probes: list[float] = []
        self.unprobed_s = 0.0

    def probe(self) -> None:
        self.probes.append(probe())
        self.unprobed_s = 0.0

    def after(self, seconds: float) -> None:
        """Account for a timed interval; probe once enough work has gone by."""
        self.unprobed_s += seconds
        if self.unprobed_s >= PROBE_EVERY_S:
            self.probe()

    def scale(self, before: int) -> float:
        """Scale for an interval that started after ``before`` probes."""
        near = self.probes[max(0, before - PROBE_NEIGHBOURS):before + PROBE_NEIGHBOURS]
        return 1.0 / statistics.median(near)


def cold_start(env: dict) -> float:
    """Wall time of a fresh interpreter importing sgmeasure.cli."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import sgmeasure.cli"], env=env, check=True)
    return time.perf_counter() - start


def peak_rss_mib(env: dict, job: Job) -> float:
    done = subprocess.run(
        [sys.executable, "-c", RSS_CHILD, json.dumps(job.argvs)],
        env=env, check=True, capture_output=True, text=True,
    )
    return int(done.stdout.split()[-1]) / 1024.0


def tail(times: list[float]) -> tuple[float, int, int]:
    """Highest whole percentile with at least TAIL_BEYOND jobs above it (nearest rank).

    Returns (value, percentile, jobs beyond it).  With too few jobs for
    that, the maximum is returned as percentile 100.
    """
    n = len(times)
    ordered = sorted(times)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100, 0
    pct = (100 * (n - TAIL_BEYOND)) // n
    rank = math.ceil(pct * n / 100)
    return ordered[rank - 1], pct, n - rank


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = HERE.parent
    src = root / "src"
    sys.path.insert(0, str(src))
    try:
        import sgmeasure.cli
    except ImportError as exc:
        print(f"cannot import sgmeasure from {src}: {exc}", file=sys.stderr)
        return 2
    if src.resolve() not in Path(sgmeasure.cli.__file__).resolve().parents:
        print(f"sgmeasure was imported from outside {src}", file=sys.stderr)
        return 2

    case = args.seed % SHIPPED_SEEDS
    workdir = root / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        return run(args, case, workdir, src)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args: argparse.Namespace, case: int, workdir: Path, src: Path) -> int:
    import sgmeasure.cli

    job = Job(args.workload, case, workdir)
    env = dict(os.environ, PYTHONPATH=str(src))
    diagnostics: dict = {"case_seed": case}
    metrics: dict[str, tuple[float, str]] = {}
    if not args.trace:
        cold_start(env)  # may compile bytecode, which users pay once
        metrics["peak_rss_mib"] = (peak_rss_mib(env, job), "MiB")

    tracer = Tracer() if args.trace else None
    speed = SpeedLog()
    attempted = failed = 0
    traced_wall: dict[bool, list[float]] = {False: [], True: []}
    # per plain timed job: (probes before the call, wall s, cpu s) of each call
    calls: list[list[tuple[int, float, float]]] = []
    setup: list[tuple[int, float]] = []  # (probes before, wall s) per cold start
    golden: list[int] = []
    traced_jobs: list[int] = []

    def one_job(traced: bool, timed: bool) -> None:
        nonlocal attempted, failed
        job.clear_outputs()
        attempted += 1
        if traced:
            tracer.job = attempted
            tracer.install()
        ok, matches = True, 0
        timings: list[tuple[int, float, float]] = []
        try:
            for argv in job.argvs:
                before = len(speed.probes)
                c0, t0 = time.process_time(), time.perf_counter()
                status = sgmeasure.cli.main(argv)
                t1, c1 = time.perf_counter(), time.process_time()
                timings.append((before, t1 - t0, c1 - c0))
                if timed and not args.trace:
                    speed.after(t1 - t0)
                if status != 0:
                    ok = False
                    break
        except Exception:  # a crashing job is a failed job; keep measuring
            traceback.print_exc()
            ok = False
        if traced:
            tracer.uninstall()
        if ok:
            try:
                matches = job.check()
            except (oracle.Mismatch, ValueError, KeyError) as exc:
                print(f"job {attempted}: {exc}", file=sys.stderr)
                ok = False
        if not ok:
            failed += 1
        if not timed:
            return
        if args.trace:
            traced_wall[traced].append(sum(wall for _, wall, _ in timings))
            if traced:
                traced_jobs.append(attempted)
                golden.append(matches)
        else:
            calls.append(timings)

    def one_cold_start() -> None:
        before = len(speed.probes)
        setup.append((before, cold_start(env)))
        speed.after(setup[-1][1])

    one_job(traced=False, timed=False)  # warm-up: caches, lazy imports
    for _ in range(PROBE_NEIGHBOURS):
        speed.probe()
    start = time.perf_counter()
    deadline = start + args.seconds
    count = 0
    while time.perf_counter() < deadline or count < (2 if args.trace else 1):
        # cold starts are spread over the run, so they see the same host as the jobs
        due = start + len(setup) * args.seconds / SETUP_SAMPLES
        if not args.trace and len(setup) < SETUP_SAMPLES and time.perf_counter() >= due:
            one_cold_start()
            continue
        one_job(traced=bool(args.trace) and count % 2 == 1, timed=True)
        count += 1
    while not args.trace and len(setup) < SETUP_SAMPLES:
        one_cold_start()
    for _ in range(PROBE_NEIGHBOURS):
        speed.probe()

    if args.trace:
        layer = tracer.layer_metrics(traced_jobs)
        for metric, unit, _, _ in PER_LAYER:
            metrics[metric] = (layer[metric], unit)
        metrics["reports.golden_bytes_match"] = (float(statistics.median(golden)), "count")
        overhead = statistics.median(traced_wall[True]) - statistics.median(traced_wall[False])
        metrics["trace.overhead_s"] = (overhead, "s")
        spans = workdir.parent / f"spans-{args.workload}.jsonl"
        tracer.write_spans(spans)
        diagnostics.update(traced_jobs=len(traced_wall[True]),
                           plain_jobs=len(traced_wall[False]),
                           spans=len(tracer.spans), spans_file=str(spans.name))
    else:
        wall = [sum(w for _, w, _ in timings) for timings in calls]
        cpu = [sum(c for _, _, c in timings) for timings in calls]
        wall_norm = [sum(w * speed.scale(b) for b, w, _ in timings) for timings in calls]
        cpu_norm = [sum(c * speed.scale(b) for b, _, c in timings) for timings in calls]
        setup_raw = [w for _, w in setup]
        setup_norm = [w * speed.scale(b) for b, w in setup]
        value, pct, beyond = tail(wall_norm)
        metrics["setup_s"] = (statistics.median(setup_norm), "s")
        metrics["job_s"] = (statistics.median(wall_norm), "s")
        metrics["job_s_tail"] = (value, "s")
        metrics["cpu_s"] = (statistics.median(cpu_norm), "s")
        metrics["success_share"] = ((attempted - failed) / attempted, "share")
        diagnostics.update(
            raw={"job_s": statistics.median(wall), "job_s_tail": tail(wall)[0],
                 "cpu_s": statistics.median(cpu), "setup_s": statistics.median(setup_raw)},
            slowness=statistics.median(speed.probes), probes=len(speed.probes),
            jobs=len(wall), job_s_tail_percentile=pct, job_s_tail_beyond=beyond,
        )
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
