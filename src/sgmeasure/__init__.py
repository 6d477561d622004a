"""Safeguarded-excitation acoustic measurement.

Turn arbitrary periodic audio into well-conditioned measurement
excitations by DFT-magnitude flooring, estimate transfer functions from
recordings of their repeated playback, and separate the LTI,
random/time-varying, and signal-dependent parts of the response.
"""

from .core import (
    PeriodicSignal,
    SampleStream,
    Spectrum,
    circular_convolve,
    forward_dft,
    inverse_dft,
    power_db,
)
from .safeguard import (
    FloorThreshold,
    SafeguardReport,
    apply_floor,
    build_test_stream,
    default_threshold,
    safeguard_signal,
    threshold_from_db,
)
from .separation import (
    SeparationResult,
    estimate_transfer,
    excitation_bins,
    fractional_octave_smooth,
    impulse_response,
    segment_block,
    signal_dependent_response,
    time_invariant_response,
)
from .session import SessionManifest, analyze_session, load_manifest
from .simulate import (
    ExperimentResult,
    SimulationConfig,
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
