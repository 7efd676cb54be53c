"""Gating policies: fixed, uniform cycling, free running, and adaptive.

The adaptive policy is Thompson sampling on the depth posterior: it gates
at depths drawn from the flux-marginalized posterior (minus an optional
offset).  Gating at the sampled depth maximizes the expected reward
-E[0-1 loss] for that hypothesis, because the gate position only
attenuates the sampled bin through the rates scanned before it; an
exhaustive check over all gates backs this (``harness.proposition_check``).

Every policy gives ``gates(start, count, rng)``, the gates of the next
block of cycles, which ``run_acquisition`` simulates in one pass (see
``spadsim``).  Fixed, uniform and free running are gate schedules and
nothing else: all ``count`` gates of cycles ``start .. start+count-1``
(an int64 array, or FREE_RUN); they draw nothing, see no outcome and
never stop early.  The adaptive policy updates its gate periodically: a
block is its calibration, or Thompson draws from one posterior read, and
``observe_block`` takes the block's outcomes before the next block is
drawn.  The blocks grow with the cycles run (``spadsim.FEEDBACK_DIVISOR``).
Without a stop rule a block is folded in one step; with one, it is taken
one cycle at a time (``observe``), and the block ends at the first cycle
after which ``should_stop`` holds.

Adaptive exposure stops an acquisition once the posterior is confident:
when 1 - (posterior mass at the MAP bin), or optionally the posterior
entropy, drops below a threshold after a minimum cycle count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    AcquisitionRecord,
    SceneTransient,
    detection_distribution,
    law_statistics,
)
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
from .spadsim import FEEDBACK_DIVISOR, FREE_RUN


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
        if self.min_cycles is not None and self.min_cycles < 0:
            raise ValueError("min_cycles cannot be negative")


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

    The policy runs in blocks (``gates`` and ``observe_block``): the
    calibration is one block, and each later block is up to max(1, cycles
    run // FEEDBACK_DIVISOR) draws from one posterior read.  Without a
    stop rule a block is folded in one step once simulated.  With one,
    ``observe`` takes it cycle by cycle and ``should_stop`` is asked after
    each, so the run ends at the first cycle at which the rule holds.
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
        if calibration_cycles < 0:
            raise ValueError("calibration_cycles cannot be negative")
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
        self.background_estimate: BackgroundEstimate | None = None
        self._buffer: list[tuple[np.ndarray, ...]] = []  # calibration blocks' record columns
        if self.calibration_cycles == 0:
            self._finalize()

    def gates(self, start: int, count: int, rng: np.random.Generator) -> np.ndarray:
        """Gates of the next block of at most ``count`` cycles from cycle ``start``.

        The rest of the calibration (evenly spread gates, no draws), or
        max(1, start // FEEDBACK_DIVISOR) Thompson draws, capped at
        ``count``, from the current posterior (one uniform each); none
        once ``should_stop`` holds.
        """
        b = self.num_bins
        if self.posterior is None:
            n = min(count, self.calibration_cycles - start)
            return np.arange(start, start + n, dtype=np.int64) * b // self.calibration_cycles % b
        if self.should_stop():
            return np.zeros(0, dtype=np.int64)
        n = min(count, max(1, start // FEEDBACK_DIVISOR))
        return (self.sample_depth(rng, n) - self.gate_offset) % b

    def observe_block(self, gates, timestamps, detected, periods, durations) -> int:
        """Take in a block's outcomes and return how many cycles were taken.

        Calibration is buffered.  Without a stop rule a block of several
        cycles is folded in one step.  Otherwise the cycles go one at a
        time through ``observe``, and the block ends at the first after
        which ``should_stop`` holds.
        """
        n = len(gates)
        if self.posterior is None:
            self.cycle_index += n
            self._buffer.append((gates, timestamps, detected, periods, durations))
            if self.cycle_index >= self.calibration_cycles:
                self._finalize()
            return n
        if self.exposure is None and n > 1:  # a one-cycle block takes observe: the fold's bits, faster
            self.cycle_index += n
            _fold(self.posterior, law_statistics(self.num_bins, gates, timestamps, detected))
            return n
        for taken, (gate, timestamp) in enumerate(zip(gates.tolist(), timestamps.tolist()), 1):
            self.observe(gate, timestamp)
            if self.should_stop():
                return taken
        return n

    def observe(self, gate: int, timestamp: int) -> None:
        """Fold one cycle after calibration; ``timestamp`` -1 is a censored cycle."""
        self.cycle_index += 1
        posterior_update(self.posterior, timestamp if timestamp >= 0 else None, gate)

    def next_gate(self, rng: np.random.Generator) -> int:
        """The next cycle's gate, as a block of one.

        Kept because ``bench/tracing.py`` patches it by name; it goes with
        ROADMAP item 1's change to the benchmark.
        """
        return int(self.gates(self.cycle_index, 1, rng)[0])

    def sample_depth(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """``count`` Thompson draws from one read of the depth marginal, one
        uniform each, as an int64 array."""
        cdf = np.add.accumulate(self.posterior.rows)
        return np.minimum(cdf.searchsorted(rng.random(count) * cdf[-1], "right"), self.num_bins - 1)

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
        columns = [np.concatenate(c) for c in zip(*self._buffer)] if self._buffer else [()] * 5
        record = AcquisitionRecord(self.num_bins, *columns, exposure_bins=int(np.sum(columns[4])))
        if self.known_bkg is not None:
            bkg = float(self.known_bkg)
        else:
            self.background_estimate = estimate_background(record, fallback_flux=self.background_fallback)
            bkg = self.background_estimate.value
        grid = default_flux_grid(bkg, *self.flux_grid_spec)
        self.posterior = posterior_from_record(record, bkg, grid, self.prior)
        self._buffer = []


def reward(sampled_depth: int, gate: int, num_bins: int, bkg_flux: float, signal_flux: float) -> float:
    """Expected reward -E[0-1 loss] of gating at ``gate`` for a depth hypothesis.

    Under the hypothesis the scene has one peak at ``sampled_depth``.  The
    MAP after a single detection is the detection bin, so the expected
    reward is -(1 - p(the first period's detection lands on the sampled
    bin)); a cycle with no detection within the period counts as a full
    loss.
    """
    if not 0 <= sampled_depth < num_bins:
        raise ValueError(f"depth {sampled_depth} outside [0, {num_bins})")
    scene = SceneTransient(num_bins=num_bins, ambient_flux=bkg_flux, peaks=((sampled_depth, signal_flux),))
    return -(1.0 - float(detection_distribution(scene, gate)[(sampled_depth - gate) % num_bins]))
