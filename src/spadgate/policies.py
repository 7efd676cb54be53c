"""Gating policies: fixed, uniform cycling, free running, and adaptive.

The adaptive policy is Thompson sampling on the depth posterior: it gates
at depths drawn from the flux-marginalized posterior (minus an optional
offset).  Gating at the sampled depth maximizes the expected reward
-E[0-1 loss] for that hypothesis, because the gate position only
attenuates the sampled bin through the rates scanned before it; an
exhaustive check over all gates backs the closed form in the tests.

Every policy gives ``gates(start, count, rng)``, the gates of the next
block of cycles, which ``run_acquisition`` simulates in one pass (see
``spadsim``).  Fixed, uniform and free running are gate schedules and
nothing else: all ``count`` gates of cycles ``start .. start+count-1``
(an int64 array, or FREE_RUN); they draw nothing, see no outcome and
never stop early.  The adaptive policy updates its gate periodically:
without a stop rule, a block is its calibration, or Thompson draws from
one posterior read, and ``observe_block`` folds the block's outcomes in
one step before the next block is drawn.  The blocks grow with the
cycles run (``spadsim.FEEDBACK_DIVISOR``).  With a stop rule it runs per
cycle instead (``per_cycle``), since the rule reads the posterior after
every cycle: ``next_gate`` draws one gate, ``observe`` folds one outcome
and ``should_stop`` ends the run.

Adaptive exposure stops an acquisition once the posterior is confident:
when 1 - (posterior mass at the MAP bin), or optionally the posterior
entropy, drops below a threshold after a minimum cycle count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SceneTransient, detection_distribution, detection_likelihood, law_statistics, no_detection_probability
from .estimators import (
    BackgroundEstimate,
    DepthPosterior,
    _fold,
    default_flux_grid,
    estimate_background,
    posterior_entropy,
    posterior_from_record,
    posterior_update,
)
from .spadsim import FEEDBACK_DIVISOR, FREE_RUN, CycleOutcome, cycles_record


def termination_value(post: DepthPosterior, metric: str = "termination") -> float:
    """Confidence metric driving adaptive exposure; smaller is more confident.

    "termination" is 1 - max marginal posterior mass; "entropy" is the
    depth-marginal Shannon entropy in nats.
    """
    if metric == "termination":
        return 1.0 - float(post.rows.max()) / post.total
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


class FixedGatePolicy:
    """Gate every cycle at one constant bin."""

    def __init__(self, gate: int, num_bins: int):
        if not 0 <= gate < num_bins:
            raise ValueError(f"gate {gate} outside [0, {num_bins})")
        self.gate = int(gate)
        self.num_bins = int(num_bins)

    def gates(self, start: int, count: int, rng: np.random.Generator | None = None) -> np.ndarray:
        return np.full(count, self.gate, dtype=np.int64)


class UniformGatePolicy:
    """Cycle the gate through every bin in order (cycle index mod B)."""

    def __init__(self, num_bins: int):
        self.num_bins = int(num_bins)

    def gates(self, start: int, count: int, rng: np.random.Generator | None = None) -> np.ndarray:
        return np.arange(start, start + count, dtype=np.int64) % self.num_bins


class FreeRunningPolicy:
    """No gating: re-arm the instant the dead time ends."""

    def gates(self, start: int, count: int, rng: np.random.Generator | None = None):
        return FREE_RUN


class AdaptiveGatePolicy:
    """Thompson-sampling gate selection on a depth-and-flux posterior.

    The first ``calibration_cycles`` cycles use uniformly spread gates and
    are buffered; the background flux is then estimated from them (unless
    known up front) and the posterior is folded from them in one step.
    The posterior's flux grid is ``default_flux_grid(background,
    *flux_grid_spec)``, spec (size, lo, hi).
    Every later cycle samples a depth from the posterior marginal and
    gates at (depth - gate_offset) mod B.  ``calibration_cycles`` is the
    policy's own count: the record of its run does not mark them.

    Without a stop rule the policy runs in blocks (``gates`` and
    ``observe_block``): the calibration is one block, and each later
    block is up to max(1, cycles run // FEEDBACK_DIVISOR) draws from one
    posterior read, folded in one step once simulated.  With a stop rule
    it runs per cycle (``next_gate``, ``observe`` and ``should_stop``).
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
        if exposure is not None and exposure.min_cycles is not None:
            self.min_cycles = exposure.min_cycles
        else:
            self.min_cycles = self.calibration_cycles + 10
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
    def per_cycle(self) -> bool:
        """True with a stop rule, which reads the posterior after every cycle."""
        return self.exposure is not None

    def gates(self, start: int, count: int, rng: np.random.Generator) -> np.ndarray:
        """Gates of the next block of at most ``count`` cycles from cycle ``start``.

        The rest of the calibration (evenly spread gates, no draws), or
        max(1, start // FEEDBACK_DIVISOR) Thompson draws, capped at
        ``count``, from the current posterior (one uniform each).
        """
        b = self.num_bins
        if self.posterior is None:
            n = min(count, self.calibration_cycles - start)
            return np.arange(start, start + n, dtype=np.int64) * b // self.calibration_cycles % b
        n = min(count, max(1, start // FEEDBACK_DIVISOR))
        return (self.sample_depth(rng, n) - self.gate_offset) % b

    def observe_block(self, gates, timestamps, detected, periods, durations) -> None:
        """Take in a block's outcomes: buffer calibration, else fold them in one step."""
        self.cycle_index += len(gates)
        if self.posterior is None:
            self._buffer.extend(zip(gates.tolist(), timestamps.tolist(), periods.tolist(), durations.tolist()))
            if len(self._buffer) >= self.calibration_cycles:
                self._finalize()
        elif len(gates) == 1:  # the one-cycle update gives the fold's bits, faster
            timestamp = int(timestamps[0])
            posterior_update(self.posterior, timestamp if timestamp >= 0 else None, int(gates[0]), self.bkg_flux)
        else:
            _fold(self.posterior, law_statistics(self.num_bins, gates, timestamps, detected), self.bkg_flux)

    def next_gate(self, rng: np.random.Generator):
        if self.posterior is None:
            # Calibration: spread gates evenly across the period.
            return (self.cycle_index * self.num_bins) // self.calibration_cycles % self.num_bins
        self.last_sampled_depth = self.sample_depth(rng)
        return (self.last_sampled_depth - self.gate_offset) % self.num_bins

    def sample_depth(self, rng: np.random.Generator, count: int | None = None):
        """Thompson draws from the depth marginal, one uniform each: one
        depth (an int), or an int64 array of ``count`` from one read."""
        cdf = np.add.accumulate(self.posterior.rows)
        if count is None:
            idx = int(cdf.searchsorted(rng.random() * cdf[-1], "right"))
            return idx if idx < self.num_bins else self.num_bins - 1
        return np.minimum(cdf.searchsorted(rng.random(count) * cdf[-1], "right"), self.num_bins - 1)

    def observe(self, outcome: CycleOutcome) -> None:
        self.cycle_index += 1
        if self.posterior is None:
            self._buffer.append(outcome)
            if len(self._buffer) >= self.calibration_cycles:
                self._finalize()
            return
        gate, timestamp = outcome[0], outcome[1]
        posterior_update(self.posterior, timestamp if timestamp >= 0 else None, gate, self.bkg_flux)

    def should_stop(self) -> bool:
        """True once past ``min_cycles`` with the exposure metric below epsilon."""
        control = self.exposure
        if control is None or self.posterior is None or self.cycle_index < self.min_cycles:
            return False
        return termination_value(self.posterior, control.metric) < control.epsilon

    def ensure_posterior(self) -> None:
        """Finalize early if the run ended while still buffering calibration."""
        if self.posterior is None:
            self._finalize()

    def _finalize(self) -> None:
        record = cycles_record(self.num_bins, self._buffer)
        if self.known_bkg is not None:
            self.bkg_flux = float(self.known_bkg)
        else:
            est = estimate_background(record, fallback_flux=self.background_fallback)
            self.background_estimate = est
            self.bkg_flux = est.value
        grid = default_flux_grid(self.bkg_flux, *self.flux_grid_spec)
        self.posterior = posterior_from_record(record, self.bkg_flux, grid, self.prior)
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

