"""Outside-in tracer: timing wrappers around the public functions of each layer.

The wrappers are installed into the namespace of every ``sgmeasure``
module that holds the original function, because ``from … import`` binds
the name in the importing module too (``estimate_transfer`` lives in both
``sgmeasure.session`` and ``sgmeasure.simulate``).  Nothing under ``src/``
is edited, and :meth:`Tracer.uninstall` puts every original back, so
untraced jobs run the plain code.

Each call records a span ``(name, start, end, parent, job)`` in memory;
spans are written out only when the run ends.  A span's self time is its
duration minus that of its child spans.  Counters are recorded at the same
boundaries, keyed by job.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import json
import os
import statistics
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "session", "wavio", "core", "safeguard", "separation", "simulate", "reports")
RUN_FUNCTIONS = (
    "simulate.run_flooring_regression",
    "simulate.run_max_deviation_sweep",
    "simulate.run_random_response_experiment",
    "simulate.run_nonlinearity_experiment",
)

# (metric name, unit, better, what it is); every metric is a per-job median.
PER_LAYER = [
    ("cli.main.self_s", "s", "lower", ("self", "cli.main")),
    ("session.load_manifest.s", "s", "lower", ("total", "session.load_manifest")),
    ("session.analyze_session.self_s", "s", "lower", ("self", "session.analyze_session")),
    ("wavio.read_audio.s", "s", "lower", ("total", "wavio.read_audio")),
    ("wavio.read_audio.calls", "count", "lower", ("calls", "wavio.read_audio")),
    ("wavio.samples_decoded", "count", "lower", ("counter", "wavio.samples_decoded")),
    ("wavio.reads_per_file", "ratio", "lower", ("reads_per_file", None)),
    ("core.forward_dft_raw.s", "s", "lower", ("total", "core.forward_dft_raw")),
    ("core.forward_dft_raw.calls", "count", "lower", ("calls", "core.forward_dft_raw")),
    ("core.forward_dft.s", "s", "lower", ("total", "core.forward_dft")),
    ("core.forward_dft.calls", "count", "lower", ("calls", "core.forward_dft")),
    ("core.inverse_dft.s", "s", "lower", ("total", "core.inverse_dft")),
    ("core.inverse_dft.calls", "count", "lower", ("calls", "core.inverse_dft")),
    ("core.circular_convolve_fast.s", "s", "lower", ("total", "core.circular_convolve_fast")),
    ("core.circular_convolve_fast.calls", "count", "lower",
     ("calls", "core.circular_convolve_fast")),
    ("core.dft_points", "count", "lower", ("counter", "core.dft_points")),
    ("safeguard.safeguard_signal.self_s", "s", "lower", ("self", "safeguard.safeguard_signal")),
    ("safeguard.safeguard_signal.calls", "count", "lower",
     ("calls", "safeguard.safeguard_signal")),
    ("safeguard.threshold_from_db.s", "s", "lower", ("total", "safeguard.threshold_from_db")),
    ("safeguard.useful_ratio", "ratio", "higher", ("useful_ratio", None)),
    ("separation.estimate_transfer.self_s", "s", "lower",
     ("self", "separation.estimate_transfer")),
    ("separation.estimate_transfer.calls", "count", "lower",
     ("calls", "separation.estimate_transfer")),
    ("separation.time_invariant_response.s", "s", "lower",
     ("total", "separation.time_invariant_response")),
    ("separation.signal_dependent_response.s", "s", "lower",
     ("total", "separation.signal_dependent_response")),
    ("separation.fractional_octave_smooth.s", "s", "lower",
     ("total", "separation.fractional_octave_smooth")),
    ("separation.plan_segments.calls", "count", "lower", ("calls", "separation.plan_segments")),
    ("simulate.simulate_chain.self_s", "s", "lower", ("self", "simulate.simulate_chain")),
    ("simulate.simulate_chain.calls", "count", "lower", ("calls", "simulate.simulate_chain")),
    ("simulate.samples_simulated", "count", "lower", ("counter", "simulate.samples_simulated")),
    ("simulate.run.self_s", "s", "lower", ("self_sum", RUN_FUNCTIONS)),
    ("reports.write_report.s", "s", "lower", ("total", "reports.write_report")),
    ("reports.bytes_written", "B", "lower", ("counter", "reports.bytes_written")),
    ("reports.cells", "count", "lower", ("counter", "reports.cells")),
]


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_work(tracer: "Tracer", name: str, args: tuple, kwargs: dict, result) -> None:
    """Work counters taken from a call's arguments and result."""
    count = tracer.counts[tracer.job]
    if name == "core.forward_dft_raw":
        count["core.dft_points"] += len(_arg(args, kwargs, 0, "samples"))
    elif name == "core.forward_dft":
        count["core.dft_points"] += _arg(args, kwargs, 0, "signal").period_length
    elif name == "core.inverse_dft":
        count["core.dft_points"] += _arg(args, kwargs, 0, "spectrum").length
    elif name == "core.circular_convolve_fast":
        # FFT of h and of the block, then the inverse FFT, all at block length
        count["core.dft_points"] += 3 * len(_arg(args, kwargs, 0, "samples"))
    elif name == "wavio.read_audio":
        count["wavio.samples_decoded"] += len(result)
        tracer.paths[tracer.job].add(os.path.abspath(_arg(args, kwargs, 0, "path")))
    elif name == "simulate.simulate_chain":
        count["simulate.samples_simulated"] += len(_arg(args, kwargs, 0, "test"))
    elif name == "reports.write_report":
        report = _arg(args, kwargs, 1, "report")
        count["reports.cells"] += sum(len(col) for col in report.table.values())
        count["reports.bytes_written"] += os.path.getsize(_arg(args, kwargs, 0, "path"))
    elif name == "safeguard.safeguard_signal":
        start = perf_counter()
        signal = _arg(args, kwargs, 0, "signal")
        theta = _arg(args, kwargs, 1, "theta")
        digest = hashlib.blake2b(signal.samples.tobytes(), digest_size=16).digest()
        # one experiment is one cli.main call, the outermost span
        tracer.safeguard_keys[tracer.job].add(
            (tracer.root, digest, signal.sample_rate, theta.theta_linear)
        )
        # hashing is the tracer's work: a child span keeps it out of the caller's self time
        parent = tracer.stack[-1] if tracer.stack else -1
        tracer.spans.append(("trace.hash", start, perf_counter(), parent, tracer.job))


class Tracer:
    """Install/uninstall wrappers; keep spans and counters in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (name, start, end, parent index, job)
        self.stack: list[int] = []
        self.root = -1
        self.job = -1
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.paths: dict[int, set] = defaultdict(set)
        self.safeguard_keys: dict[int, set] = defaultdict(set)
        self._installed: list[tuple] = []
        self._wrappers: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            module = importlib.import_module(f"sgmeasure.{layer}")
            names = ["main"] if layer == "cli" else getattr(module, "__all__", [])
            for attr in names:
                fn = getattr(module, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    self._wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            if parent < 0:
                self.root = index
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.job)
            self.counts[self.job][name] += 1
            _count_work(self, name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace every binding of a wrapped function in every sgmeasure module."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "sgmeasure"
                                      or module_name.startswith("sgmeasure.")):
                continue
            for attr, value in list(vars(module).items()):
                pair = self._wrappers.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(module, attr, pair[1])
                    self._installed.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def write_spans(self, path: Path) -> None:
        """Write all spans as JSON lines: name, start, end, parent, job."""
        with path.open("w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps([name, start, end, parent, job]) + "\n")

    def per_job(self) -> dict[int, dict]:
        """Per job: call counts, total and self seconds per span name."""
        total: dict[int, Counter] = defaultdict(Counter)
        child: list[float] = [0.0] * len(self.spans)
        for name, start, end, parent, job in self.spans:
            total[job][name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[int, Counter] = defaultdict(Counter)
        for index, (name, start, end, parent, job) in enumerate(self.spans):
            self_s[job][name] += end - start - child[index]
        return {job: {"total": total[job], "self": self_s[job], "calls": self.counts[job]}
                for job in total}

    def layer_metrics(self, jobs: list[int]) -> dict[str, float]:
        """Median over ``jobs`` of each per-layer metric in :data:`PER_LAYER`."""
        stats = self.per_job()
        values: dict[str, list[float]] = defaultdict(list)
        for job in jobs:
            s = stats[job]
            calls = self.counts[job]
            for metric, _, _, (kind, key) in PER_LAYER:
                if kind == "total":
                    v = s["total"][key]
                elif kind == "self":
                    v = s["self"][key]
                elif kind == "self_sum":
                    v = sum(s["self"][k] for k in key)
                elif kind == "calls" or kind == "counter":
                    v = calls[key]
                elif kind == "reads_per_file":
                    files = len(self.paths[job])
                    v = calls["wavio.read_audio"] / files if files else 0.0
                else:  # useful_ratio
                    attempts = calls["safeguard.safeguard_signal"]
                    v = len(self.safeguard_keys[job]) / attempts if attempts else 0.0
                values[metric].append(float(v))
        return {metric: statistics.median(v) for metric, v in values.items()}
