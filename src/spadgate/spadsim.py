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

``run_acquisition`` takes one of two paths:

- Closed loop, per cycle.  A policy without a ``gates`` method (the
  adaptive policy, calibration included) chooses each gate after seeing
  the previous outcome: ``next_gate``, ``sample_cycle`` and ``observe``
  run once per cycle, and ``should_stop`` is asked before each.
- Open loop, in blocks of ``BLOCK_CYCLES``.  Fixed, uniform and
  free-running policies draw no randomness and never stop early, so their
  gates are known up front through ``gates(start, count)``.  A block draws
  its unit exponentials in one call.  Triggered gates then locate every
  detection with one ``divmod`` and one ``searchsorted`` over the block,
  and the ready times are a cumulative sum, because the phase a triggered
  cycle leaves the pixel in depends only on its own gate and draw.  Free
  running re-arms at that phase, so it walks the phase recurrence one
  cycle at a time through ``_scan_exponential``, the scalar scan
  ``sample_cycle`` also uses.

Draw order: both paths draw exactly one unit exponential per cycle, in
cycle order, and nothing else, so they give identical records.  A block
cut short by the budget restores the generator and redraws only the
cycles it kept, so the caller's generator ends where the per-cycle loop
would leave it.  ``tests/test_spadsim.py`` checks both to the bit.

Determinism: all randomness flows through one numpy PCG64 generator.
Identical seeds give bit-identical records; per-pixel streams come from
``stream_rng``, which mixes (global_seed, stream_index) through numpy's
SeedSequence, a documented, platform-stable construction.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .core import AcquisitionRecord, SceneTransient, SpadConfig


class _FreeRunDirective:
    """Sentinel a policy returns to arm immediately instead of gating."""

    def __repr__(self) -> str:  # pragma: no cover
        return "FREE_RUN"


FREE_RUN = _FreeRunDirective()

# Cycles an open-loop block draws at once.  Fixed, not scaled to the
# budget: at zero dead time a budget allows as many cycles as it has bins.
BLOCK_CYCLES = 4096


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
    walk in distribution.  ``_locate_block`` is the same scan over arrays.
    """
    b = scene.num_bins
    total = scene.total_rate
    if total <= 0.0:
        return None
    prefix = scene.scan_prefix_list
    k, x = divmod(prefix[arm_phase] + e, total)
    if x >= total:  # float remainder can round up to the divisor
        k += 1.0
        x = 0.0
    if k > max_periods:  # censored whatever the bin; a tiny total makes k inf
        return None
    offset = int(k) * b + bisect_right(prefix, x) - 1 - arm_phase
    if offset >= max_periods * b:
        return None
    return offset


def _locate_block(
    scene: SceneTransient, gates: np.ndarray, e: np.ndarray, max_periods: int
) -> tuple[np.ndarray, np.ndarray]:
    """``_scan_exponential`` for arrays of arm phases and draws.

    Returns the offsets and a censored mask; censored offsets are
    meaningless.  Same float operations as the scalar scan, element by
    element, so the same offsets.
    """
    b = scene.num_bins
    total = scene.total_rate
    if total <= 0.0:
        return np.zeros_like(gates), np.ones(gates.shape, dtype=bool)
    prefix = scene.scan_prefix
    with np.errstate(over="ignore", invalid="ignore"):  # a tiny total overflows k; clipped below
        k, x = np.divmod(prefix[gates] + e, total)
    up = x >= total
    k[up] += 1.0
    x[up] = 0.0
    j = np.searchsorted(prefix, x, side="right") - 1
    k = np.minimum(k, max_periods + 1).astype(np.int64)  # censored anyway; keeps the cast finite
    offsets = k * b + j - gates
    return offsets, offsets >= max_periods * b


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
    one cycle's duration.  A policy with a ``gates`` method is open loop
    and runs in blocks (see the module docstring); any other policy sees
    every outcome through ``observe`` and may consume randomness in
    ``next_gate``.
    """
    if budget_bins is None and max_cycles is None:
        raise ValueError("need a budget, a cycle cap, or both")
    rng = seed if isinstance(seed, np.random.Generator) else stream_rng(int(seed))
    if hasattr(policy, "gates"):
        return _run_open_loop(scene, config, policy, budget_bins, max_cycles, rng)
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


def _run_open_loop(
    scene: SceneTransient,
    config: SpadConfig,
    policy,
    budget_bins: int | None,
    max_cycles: int | None,
    rng: np.random.Generator,
) -> AcquisitionRecord:
    """``run_acquisition`` for a policy whose gates are known up front."""
    b = scene.num_bins
    if config.num_bins != b:
        raise ValueError("config and scene have mismatched num_bins")
    cap, dead = config.max_active_periods, config.dead_time_bins
    last_start = sys.maxsize if budget_bins is None else budget_bins - (1 + dead)
    ready, done = 0, 0
    blocks = []
    while ready <= last_start:
        n = BLOCK_CYCLES if max_cycles is None else min(BLOCK_CYCLES, max_cycles - done)
        if n <= 0:
            break
        gates = policy.gates(policy.cycle_index, n)
        saved = rng.bit_generator.state
        e = rng.exponential(size=n)
        if gates is FREE_RUN:
            gates, offsets = _free_run_offsets(scene, e.tolist(), ready, dead, cap, last_start)
            gates, offsets = np.array(gates, dtype=np.int64), np.array(offsets, dtype=np.int64)
            censored = offsets < 0
        else:
            offsets, censored = _locate_block(scene, gates, e, cap)
        # Bins from arming to ready; a censored cycle leaves the pixel at its
        # arm phase, a detected one dead time past the detection.
        active = np.where(censored, cap * b, offsets + dead)
        left_at = np.concatenate(([ready % b], (gates[:-1] + active[:-1]) % b))
        durations = (gates - left_at) % b + active
        ends = ready + np.cumsum(durations)
        m = int(np.searchsorted(ends - durations, last_start, side="right"))
        if m < n:  # the budget ends the run inside this block
            rng.bit_generator.state = saved
            rng.exponential(size=m)
        blocks.append((
            gates[:m],
            np.where(censored, -1, (gates + offsets) % b)[:m],
            ~censored[:m],
            np.where(censored, cap, offsets // b)[:m],
            durations[:m],
        ))
        policy.cycle_index += m
        done += m
        ready = int(ends[m - 1])
    columns = [np.concatenate(c) for c in zip(*blocks)] if blocks else [()] * 5
    return AcquisitionRecord(b, *columns, exposure_bins=ready)


def _free_run_offsets(
    scene: SceneTransient, e: list[float], ready: int, dead: int, cap: int, last_start: int
) -> tuple[list[int], list[int]]:
    """Arm phases and scan offsets (-1 if censored) of free-running cycles.

    Free running arms where the last cycle left the pixel, so only this
    phase recurrence is sequential.  Stops early at the first cycle that
    would start after ``last_start``.
    """
    b = scene.num_bins
    phases, offsets = [], []
    for x in e:
        if ready > last_start:
            break
        phase = ready % b
        offset = _scan_exponential(scene, phase, x, cap)
        phases.append(phase)
        if offset is None:
            offsets.append(-1)
            ready += cap * b
        else:
            offsets.append(offset)
            ready += offset + dead
    return phases, offsets


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
