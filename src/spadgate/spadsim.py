"""Photon-level Monte Carlo simulation of a gated SPAD pixel.

One cycle: the pixel arms (at a requested gate bin in triggered mode, or
immediately when free running), scans bins in time order drawing Bernoulli
photon detections with per-bin probability 1 - exp(-r[i]), and on its
first detection goes dead for the configured dead time.  A cycle with no
detection within ``max_active_periods`` pulse periods is censored.

The per-bin Bernoulli walk is exactly a discretized exponential clock, so
a cycle draws one unit exponential and locates the detection bin in the
cumulative rate profile; the tests check the resulting outcome law
against ``detection_likelihood``.

Determinism: all randomness flows through one numpy PCG64 generator.
Identical seeds give bit-identical records; per-pixel streams come from
``stream_rng``, which mixes (global_seed, stream_index) through numpy's
SeedSequence, a documented, platform-stable construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import AcquisitionRecord, SceneTransient, SpadConfig


class _FreeRunDirective:
    """Sentinel a policy returns to arm immediately instead of gating."""

    def __repr__(self) -> str:  # pragma: no cover
        return "FREE_RUN"


FREE_RUN = _FreeRunDirective()


def stream_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Independent generator for (seed, stream), stable across platforms."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, stream))))


@dataclass
class SimState:
    """Mutable per-pixel simulation state; single-owner, not shared."""

    rng: np.random.Generator
    ready_time: int = 0
    cycles: int = 0


@dataclass(frozen=True, slots=True)
class CycleOutcome:
    """One armed cycle: effective gate, folded timestamp, time spent."""

    gate: int
    timestamp: int
    detected: bool
    elapsed_periods: int
    cycle_duration_bins: int


def arm_triggered(ready_time: int, gate: int, num_bins: int) -> int:
    """Earliest absolute bin >= ready_time congruent to ``gate``."""
    if not 0 <= gate < num_bins:
        raise ValueError(f"gate {gate} outside [0, {num_bins})")
    if ready_time < 0:
        raise ValueError("ready_time cannot be negative")
    return ready_time + (gate - ready_time) % num_bins


def arm_free_running(ready_time: int) -> int:
    """Free-running mode arms the moment the pixel is ready."""
    if ready_time < 0:
        raise ValueError("ready_time cannot be negative")
    return ready_time


def _scan_exponential(
    scene: SceneTransient, arm_phase: int, e: float, max_periods: int
) -> int | None:
    """Detection offset for a unit-exponential draw, or None if censored.

    The offset is the largest n with cumsum(rates scanned) <= e; bins with
    zero rate are skipped for free.  Exactly matches a per-bin Bernoulli
    walk in distribution.
    """
    b = scene.num_bins
    prefix = scene.scan_prefix
    total = scene.total_rate
    if total <= 0.0:
        return None
    target = float(prefix[arm_phase]) + e
    k, x = divmod(target, total)
    k = int(k)
    if x >= total:  # float remainder can round up to the divisor
        k += 1
        x = 0.0
    j = int(np.searchsorted(prefix, x, side="right")) - 1
    offset = k * b + j - arm_phase
    if offset >= max_periods * b:
        return None
    return offset


def sample_cycle(
    scene: SceneTransient,
    config: SpadConfig,
    state: SimState,
    gate: int | _FreeRunDirective,
) -> CycleOutcome:
    """Run one armed cycle and advance ``state`` past its dead time.

    ``gate`` is a bin index (triggered arming at the next occurrence of
    that bin) or FREE_RUN (arm immediately; the effective gate is the
    arming time mod num_bins, and is recorded so estimators see the true
    gate sequence).  Censored cycles consume the full active-period cap
    with no dead time (no avalanche happened).
    """
    b = scene.num_bins
    if config.num_bins != b:
        raise ValueError("config and scene have mismatched num_bins")
    start = state.ready_time
    if isinstance(gate, _FreeRunDirective):
        arm = arm_free_running(start)
    else:
        arm = arm_triggered(start, int(gate), b)
    arm_phase = arm % b
    cap = config.max_active_periods
    offset = _scan_exponential(scene, arm_phase, float(state.rng.exponential()), cap)
    if offset is None:
        ready = arm + cap * b
        outcome = CycleOutcome(
            gate=arm_phase,
            timestamp=-1,
            detected=False,
            elapsed_periods=cap,
            cycle_duration_bins=ready - start,
        )
    else:
        detect = arm + offset
        ready = detect + config.dead_time_bins
        outcome = CycleOutcome(
            gate=arm_phase,
            timestamp=detect % b,
            detected=True,
            elapsed_periods=offset // b,
            cycle_duration_bins=ready - start,
        )
    state.ready_time = ready
    state.cycles += 1
    return outcome


def run_acquisition(
    scene: SceneTransient,
    config: SpadConfig,
    policy,
    budget_bins: int | None = None,
    max_cycles: int | None = None,
    seed: int | np.random.Generator = 0,
) -> AcquisitionRecord:
    """Acquire cycles under a gating policy until a stop condition.

    Stops when the policy says so, when ``max_cycles`` is reached, or when
    the minimal possible next cycle (one bin plus dead time) no longer
    fits in ``budget_bins``; so a budget smaller than one cycle yields an
    empty record, and exposure never overshoots the budget by more than
    one cycle's duration.  The policy sees every outcome through
    ``observe`` and may consume randomness in ``next_gate``.
    """
    if budget_bins is None and max_cycles is None:
        raise ValueError("need a budget, a cycle cap, or both")
    rng = seed if isinstance(seed, np.random.Generator) else stream_rng(int(seed))
    state = SimState(rng=rng)
    min_cycle = 1 + config.dead_time_bins
    outcomes: list[CycleOutcome] = []
    while True:
        if policy.should_stop():
            break
        if max_cycles is not None and state.cycles >= max_cycles:
            break
        if budget_bins is not None and state.ready_time + min_cycle > budget_bins:
            break
        outcome = sample_cycle(scene, config, state, policy.next_gate(rng))
        outcomes.append(outcome)
        policy.observe(outcome)
    return outcomes_record(scene.num_bins, outcomes, int(getattr(policy, "calibration_cycles", 0)))


def outcomes_record(num_bins: int, outcomes: list[CycleOutcome], calibration_cycles: int = 0) -> AcquisitionRecord:
    """Record of consecutive cycles from the start of a run.

    A run that ends inside calibration marks every cycle it has.
    """
    return AcquisitionRecord(
        num_bins=num_bins,
        gates=np.array([o.gate for o in outcomes], dtype=np.int64),
        timestamps=np.array([o.timestamp for o in outcomes], dtype=np.int64),
        detected=np.array([o.detected for o in outcomes], dtype=bool),
        elapsed_periods=np.array([o.elapsed_periods for o in outcomes], dtype=np.int64),
        cycle_durations=np.array([o.cycle_duration_bins for o in outcomes], dtype=np.int64),
        exposure_bins=sum(o.cycle_duration_bins for o in outcomes),
        calibration_cycles=min(calibration_cycles, len(outcomes)),
    )
