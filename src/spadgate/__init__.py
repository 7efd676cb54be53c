"""Adaptive gating for single-photon time-of-flight depth sensing.

A SPAD pixel in synchronous time-correlated mode detects at most one
photon per laser cycle, and at high photon rates the first-arrival bias
(pile-up) makes naive histograms useless.  This package models that
acquisition process exactly, simulates it, and implements gating
policies, chief among them a Thompson-sampling scheme that gates where
the current depth posterior says the surface probably is, plus the
estimators (bias-corrected histograms, Bayesian depth posteriors) and an
experiment harness for comparing policies under matched time budgets.
"""

from .core import (
    AcquisitionRecord,
    DetectedHistogram,
    SceneTransient,
    SpadConfig,
    bin_to_depth,
    depth_to_bin,
    derive_num_bins,
    detection_distribution,
    no_detection_probability,
    sequence_log_likelihood,
    timestamps_to_histogram,
)
from .estimators import (
    BackgroundEstimate,
    DepthPosterior,
    TransientEstimate,
    coates_depth,
    coates_transient,
    default_flux_grid,
    dither_depth,
    estimate_background,
    log1mexp,
    map_depth,
    posterior_entropy,
    posterior_from_record,
    posterior_init,
    posterior_update,
)
from .harness import (
    AggregateRow,
    ConfigError,
    ExperimentConfig,
    PolicySpec,
    ResultRow,
    RowSpec,
    aggregate_rows,
    build_sweep_specs,
    compute_metrics,
    normalization_check,
    parse_config,
    proposition_check,
    run_pixel_experiment,
    run_scene_scan,
    run_sweep,
    serialize_config,
    write_aggregates_csv,
    write_map_csv,
    write_results_csv,
)
from .policies import (
    AdaptiveGatePolicy,
    ExposureControl,
    FixedGatePolicy,
    FreeRunningPolicy,
    UniformGatePolicy,
    reward,
    termination_value,
)
from .scene import (
    SceneGrid,
    external_prior_mass,
    flatness_prior,
    load_depth_map,
    load_external_prior,
    load_flux_map,
    mismatch_transient,
    prior_params_to_bins,
    scan_order,
)
from .spadsim import (
    FREE_RUN,
    CycleOutcome,
    arm_free_running,
    arm_triggered,
    run_acquisition,
    sample_cycle,
    stream_rng,
)

__version__ = "0.1.0"
