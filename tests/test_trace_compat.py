"""The benchmark's trace mode still reads what the library passes and returns.

``perfbench/tracer.py`` wraps the package's public functions and reads
their arguments to count work (``_count_work``): the length of the samples
transformed and of the period played through the chain, a stream's length,
a report's table.  A change of those signatures or types would break
``perfbench/run.py --trace 1`` with no tier-1 test failing, so this test
runs one small job of each command under the tracer, and checks that each
command passes through the functions it is metered by.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np

from sgmeasure import cli
from sgmeasure.core import SampleStream
from sgmeasure.wavio import write_audio

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
FS = 8000
L = 256
COUNTED = (
    "core.forward_dft_raw", "safeguard.safeguard_period",
    "simulate.simulate_chain", "wavio.read_audio", "reports.write_report",
)


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_every_command_runs_under_the_benchmark_tracer(tmp_path):
    source = tmp_path / "source.wav"
    write_audio(source, SampleStream(0.1 * np.random.default_rng(1).standard_normal(L), FS))
    config = tmp_path / "config.json"
    # two levels, so the sweep's second point runs on its worker thread under the tracer
    config.write_text(json.dumps({"seed": 1, "period_length": 64, "theta_db_list": [0.0, -10.0]}))
    manifest = tmp_path / "session.json"
    manifest.write_text(json.dumps({
        "schema_version": 1, "sample_rate": FS, "period_length": L,
        "segments_per_recording": 2, "skip_preamble": L,
        "entries": [{"excitation": "excitation.wav", "recording": "stream.wav"}],
    }))
    jobs = [
        ["safeguard", "--in", str(source), "--period", str(L), "--theta-db", "0",
         "--out", str(tmp_path / "excitation.wav"), "--report", str(tmp_path / "floor.json")],
        ["make-test", "--in", str(tmp_path / "excitation.wav"), "--repeats", "3",
         "--out", str(tmp_path / "stream.wav")],
        ["simulate", "--experiment", "random", "--config", str(config),
         "--out", str(tmp_path / "random.csv")],
        ["analyze", "--manifest", str(manifest), "--out", str(tmp_path / "result.json")],
    ]
    tracer = load_tracer()
    tracer.job = 0
    tracer.install()
    try:
        codes = [cli.main(argv) for argv in jobs]
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0, 0]
    counts = tracer.counts[0]
    assert {name: counts[name] > 0 for name in COUNTED} == dict.fromkeys(COUNTED, True)
    assert tracer.layer_metrics([0])["core.dft_points"] > 0
