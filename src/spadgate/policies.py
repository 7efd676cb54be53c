"""Gating policies: fixed, uniform cycling, free running, and adaptive.

The adaptive policy is Thompson sampling on the depth posterior: each
cycle it draws a depth from the current flux-marginalized posterior and
gates there (minus an optional offset).  Gating at the sampled depth
maximizes the expected reward -E[0-1 loss] for that hypothesis, because
the gate position only attenuates the sampled bin through the rates
scanned before it; an exhaustive check over all gates backs the closed
form in the tests.

Fixed, uniform and free running are open loop: besides the per-cycle
``next_gate`` they give the gates of cycles ``start .. start+count-1`` at
once through ``gates(start, count)`` (an int64 array, or FREE_RUN), which
``run_acquisition`` uses to simulate them in blocks.  The adaptive policy
has no ``gates``: it chooses each gate after seeing the last outcome.

Adaptive exposure stops an acquisition once the posterior is confident:
when 1 - (posterior mass at the MAP bin), or optionally the posterior
entropy, drops below a threshold after a minimum cycle count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SceneTransient, detection_distribution, detection_likelihood, no_detection_probability
from .estimators import (
    BackgroundEstimate,
    DepthPosterior,
    default_flux_grid,
    estimate_background,
    posterior_entropy,
    posterior_from_record,
    posterior_update,
)
from .spadsim import FREE_RUN, CycleOutcome, outcomes_record


def termination_value(post: DepthPosterior, metric: str = "termination") -> float:
    """Confidence metric driving adaptive exposure; smaller is more confident.

    "termination" is 1 - max marginal posterior mass; "entropy" is the
    depth-marginal Shannon entropy in nats.
    """
    if metric == "termination":
        peak = float(post.depth_log_marginal().max())
        return 0.0 - math.expm1(min(peak, 0.0))  # +0.0, not -0.0, at a point mass
    if metric == "entropy":
        return posterior_entropy(post)
    raise ValueError(f"unknown termination metric {metric!r}")


@dataclass(frozen=True)
class ExposureControl:
    """Adaptive-exposure stop rule: halt once confident enough.

    Stops at the first cycle index >= min_cycles whose metric value falls
    below epsilon.  min_cycles None resolves to calibration cycles + 10.
    """

    epsilon: float = 0.25
    metric: str = "termination"
    min_cycles: int | None = None

    def __post_init__(self) -> None:
        if not 0 < self.epsilon:
            raise ValueError("epsilon must be positive")
        if self.metric not in ("termination", "entropy"):
            raise ValueError(f"unknown termination metric {self.metric!r}")


def should_stop(control: ExposureControl, post: DepthPosterior, cycle_index: int, min_cycles: int) -> bool:
    """True once past the minimum cycles and below the confidence threshold."""
    if cycle_index < min_cycles:
        return False
    return termination_value(post, control.metric) < control.epsilon


class FixedGatePolicy:
    """Gate every cycle at one constant bin."""

    def __init__(self, gate: int, num_bins: int):
        if not 0 <= gate < num_bins:
            raise ValueError(f"gate {gate} outside [0, {num_bins})")
        self.gate = int(gate)
        self.num_bins = int(num_bins)
        self.cycle_index = 0
        self.calibration_cycles = 0

    def next_gate(self, rng: np.random.Generator):
        return self.gate

    def gates(self, start: int, count: int) -> np.ndarray:
        return np.full(count, self.gate, dtype=np.int64)

    def observe(self, outcome: CycleOutcome) -> None:
        self.cycle_index += 1

    def should_stop(self) -> bool:
        return False


class UniformGatePolicy:
    """Cycle the gate through every bin in order (cycle index mod B)."""

    def __init__(self, num_bins: int):
        self.num_bins = int(num_bins)
        self.cycle_index = 0
        self.calibration_cycles = 0

    def next_gate(self, rng: np.random.Generator):
        return self.cycle_index % self.num_bins

    def gates(self, start: int, count: int) -> np.ndarray:
        return np.arange(start, start + count, dtype=np.int64) % self.num_bins

    def observe(self, outcome: CycleOutcome) -> None:
        self.cycle_index += 1

    def should_stop(self) -> bool:
        return False


class FreeRunningPolicy:
    """No gating: re-arm the instant the dead time ends."""

    def __init__(self):
        self.cycle_index = 0
        self.calibration_cycles = 0

    def next_gate(self, rng: np.random.Generator):
        return FREE_RUN

    def gates(self, start: int, count: int):
        return FREE_RUN

    def observe(self, outcome: CycleOutcome) -> None:
        self.cycle_index += 1

    def should_stop(self) -> bool:
        return False


class AdaptiveGatePolicy:
    """Thompson-sampling gate selection on a depth-and-flux posterior.

    The first ``calibration_cycles`` cycles use uniformly spread gates and
    are buffered; the background flux is then estimated from them (unless
    known up front) and the posterior is folded from them in one step.
    The posterior's flux grid is ``default_flux_grid(background,
    *flux_grid_spec)``, spec (size, lo, hi).
    Every later cycle samples a depth from the posterior marginal and
    gates at (depth - gate_offset) mod B.
    """

    def __init__(
        self,
        num_bins: int,
        prior: np.ndarray | None = None,
        bkg_flux: float | None = None,
        calibration_cycles: int = 0,
        gate_offset: int = 0,
        exposure: ExposureControl | None = None,
        background_fallback: float = 0.01,
        flux_grid_spec: tuple[int, float, float] = (16, 0.1, 100.0),
    ):
        if bkg_flux is None and calibration_cycles < 1:
            raise ValueError("unknown background needs calibration cycles to estimate it")
        self.num_bins = int(num_bins)
        self.prior = prior
        self.known_bkg = bkg_flux
        self.flux_grid_spec = flux_grid_spec
        self.calibration_cycles = int(calibration_cycles)
        self.gate_offset = int(gate_offset) % int(num_bins)
        self.exposure = exposure
        self.background_fallback = float(background_fallback)
        self.cycle_index = 0
        self.posterior: DepthPosterior | None = None
        self.bkg_flux: float | None = None
        self.background_estimate: BackgroundEstimate | None = None
        self.last_sampled_depth: int | None = None
        self._buffer: list[CycleOutcome] = []
        if self.calibration_cycles == 0:
            self._finalize()

    @property
    def min_cycles(self) -> int:
        if self.exposure is not None and self.exposure.min_cycles is not None:
            return self.exposure.min_cycles
        return self.calibration_cycles + 10

    def next_gate(self, rng: np.random.Generator):
        if self.posterior is None:
            # Calibration: spread gates evenly across the period.
            return (self.cycle_index * self.num_bins) // self.calibration_cycles % self.num_bins
        self.last_sampled_depth = self.sample_depth(rng)
        return (self.last_sampled_depth - self.gate_offset) % self.num_bins

    def sample_depth(self, rng: np.random.Generator) -> int:
        """One Thompson draw from the depth marginal (one uniform consumed)."""
        cdf = np.exp(self.posterior.depth_log_marginal()).cumsum()
        idx = int(cdf.searchsorted(rng.random() * cdf[-1], side="right"))
        return min(idx, self.num_bins - 1)

    def observe(self, outcome: CycleOutcome) -> None:
        self.cycle_index += 1
        if self.posterior is None:
            self._buffer.append(outcome)
            if len(self._buffer) >= self.calibration_cycles:
                self._finalize()
            return
        t = outcome.timestamp if outcome.detected else None
        posterior_update(self.posterior, t, outcome.gate, self.bkg_flux)

    def should_stop(self) -> bool:
        if self.exposure is None or self.posterior is None:
            return False
        return should_stop(self.exposure, self.posterior, self.cycle_index, self.min_cycles)

    def ensure_posterior(self) -> None:
        """Finalize early if the run ended while still buffering calibration."""
        if self.posterior is None:
            self._finalize()

    def _finalize(self) -> None:
        record = outcomes_record(self.num_bins, self._buffer, len(self._buffer))
        if self.known_bkg is not None:
            self.bkg_flux = float(self.known_bkg)
        else:
            est = estimate_background(record, fallback_flux=self.background_fallback)
            self.background_estimate = est
            self.bkg_flux = est.value
        grid = default_flux_grid(self.bkg_flux, *self.flux_grid_spec)
        self.posterior = posterior_from_record(record, self.bkg_flux, prior=self.prior, flux_grid=grid)
        self._buffer = []


def reward(
    sampled_depth: int,
    gate: int,
    num_bins: int,
    bkg_flux: float,
    signal_flux: float,
    method: str = "closed",
) -> float:
    """Expected reward -E[0-1 loss] of gating at ``gate`` for a depth hypothesis.

    Under the hypothesis the scene has one peak at ``sampled_depth``.  The
    MAP after a single detection is the detection bin, so the expected
    reward is -(1 - p(detection folds onto the sampled bin)); a cycle with
    no detection within the period counts as a full loss.  The closed form
    evaluates one detection likelihood; "brute" sums the loss over every
    possible outcome and must agree to float precision.
    """
    if not 0 <= sampled_depth < num_bins:
        raise ValueError(f"depth {sampled_depth} outside [0, {num_bins})")
    if not 0 <= gate < num_bins:
        raise ValueError(f"gate {gate} outside [0, {num_bins})")
    scene = SceneTransient(num_bins=num_bins, ambient_flux=bkg_flux, peaks=((sampled_depth, signal_flux),))
    if method == "closed":
        t = gate + (sampled_depth - gate) % num_bins
        return -(1.0 - detection_likelihood(scene, t, gate))
    if method == "brute":
        dist = detection_distribution(scene, gate)
        hit = float(dist[(sampled_depth - gate) % num_bins])
        loss = (float(dist.sum()) - hit) + no_detection_probability(scene)
        return -loss
    raise ValueError(f"unknown reward method {method!r}")

