"""Safeguarded-excitation acoustic measurement.

Turn arbitrary periodic audio into well-conditioned measurement
excitations by DFT-magnitude flooring, estimate transfer functions from
recordings of their repeated playback, and separate the LTI,
random/time-varying, and signal-dependent parts of the response.
"""

from .safeguard import (
    SafeguardReport,
    floor_period,
    floor_report,
    floor_threshold,
    safeguard_period,
)
from .separation import (
    estimate_transfer,
    excitation_bins,
    segment_block,
    separate_signals,
)
from .session import SessionManifest, analyze_session, load_manifest
from .simulate import (
    nonlinearity,
    run_flooring_regression,
    run_max_deviation_sweep,
    run_nonlinearity_experiment,
    run_random_response_experiment,
    simulate_chain,
    white_noise_period,
)
from .wavio import read_audio, write_audio

__version__ = "0.1.0"
