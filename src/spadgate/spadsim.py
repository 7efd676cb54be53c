"""Photon-level Monte Carlo simulation of a gated SPAD pixel.

One cycle: the pixel arms (at a requested gate bin in triggered mode, or
immediately when free running), scans bins in time order drawing Bernoulli
photon detections with per-bin probability 1 - exp(-r[i]), and on its
first detection goes dead for the configured dead time, at least the
detection bin itself (``SpadConfig.dead_time_bins``).  A cycle with no
detection within ``max_active_periods`` pulse periods is censored.

The per-bin Bernoulli walk is exactly a discretized exponential clock, so
a cycle draws one unit exponential and locates the detection bin in the
cumulative rate profile; the tests check the resulting outcome law
against ``detection_likelihood``.

``run_acquisition`` runs every policy in blocks of cycles.  A policy
gives the gates of a block, ``gates(start, count, rng)``: cycles start ..
start+n-1 for some n <= count (or FREE_RUN, to arm immediately, for all
count cycles); an empty block ends the run.  Fixed, uniform and free
running are gate schedules: they draw no randomness, see no outcome and
give all count gates.  The adaptive policy gives its calibration as one
block, then blocks of Thompson draws from one posterior read, each at most
``1 / FEEDBACK_DIVISOR`` of the cycles run before it (at least one), and
an empty block once its stop rule holds.  Its ``observe_block`` takes each
block's kept cycles before the next block is drawn, and returns how many
of them it took: a stop rule reads the posterior after every cycle, so it
can end the run inside a block.  ``count`` is at most ``BLOCK_CYCLES``, at
most the cycle cap's remainder, and at most as many cycles as could still
start if each took the shortest possible time (the dead time after a
detection in its arm bin, or a censored scan, whichever is shorter).  A
block draws its unit exponentials in one call, after whatever ``gates``
drew.  Triggered gates then locate every detection with one ``divmod`` and
one ``searchsorted`` over the block, and the ready times are a cumulative
sum, because the phase a triggered cycle leaves the pixel in depends only
on its own gate and draw.  Free running re-arms at that phase, so
``_free_run_offsets`` walks the phase recurrence one cycle at a time, in
one loop with the scalar scan inlined, and keeps only the offsets; the arm
phases are then one cumulative sum of the cycles' active times.

Draw order: a block draws what ``gates`` draws (n uniforms for a block of
Thompson draws, nothing for a schedule) and then n unit exponentials.  A
block cut short, by the budget or by a stop rule, restores the generator
to just before its exponentials and redraws only the cycles it kept, so a
schedule leaves the caller's generator where a per-cycle loop would, and a
block of Thompson draws leaves it after its n uniforms and its kept
exponentials.  ``tests/test_spadsim.py`` checks every policy to the bit
against a reference loop over ``sample_cycle`` (``tests/conftest.py``).

Determinism: all randomness flows through one numpy PCG64 generator.
Identical seeds give bit-identical records; per-pixel streams come from
``stream_rng``, which mixes (global_seed, stream_index) through numpy's
SeedSequence, a documented, platform-stable construction.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import AcquisitionRecord, SceneTransient, SpadConfig


class _FreeRunDirective:
    """Sentinel a policy returns to arm immediately instead of gating."""

    def __repr__(self) -> str:  # pragma: no cover
        return "FREE_RUN"


FREE_RUN = _FreeRunDirective()

# The most cycles a block draws at once.  A block also draws no more
# cycles than the rest of the budget can start at the shortest cycle
# possible, so a short acquisition draws only what it can use.
BLOCK_CYCLES = 4096
# A block of a policy that learns from its outcomes holds at most
# 1 / FEEDBACK_DIVISOR of the cycles run before it (at least one), so a
# run of T cycles reads its posterior O(log T) times.
FEEDBACK_DIVISOR = 4


def stream_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Independent generator for (seed, stream), stable across platforms."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, stream))))


@dataclass
class SimState:
    """Mutable per-pixel simulation state; single-owner, not shared."""

    rng: np.random.Generator
    ready_time: int = 0
    cycles: int = 0


class CycleOutcome(NamedTuple):
    """One armed cycle: effective gate, folded timestamp (-1 if censored), time spent."""

    gate: int
    timestamp: int
    elapsed_periods: int
    cycle_duration_bins: int

    @property
    def detected(self) -> bool:
        return self.timestamp >= 0


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
    walk in distribution.  ``_locate_block`` is the same scan over arrays,
    and ``_free_run_offsets`` has an inlined copy: a change here goes there.
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
        outcome = CycleOutcome(gate=arm_phase, timestamp=-1, elapsed_periods=cap, cycle_duration_bins=ready - start)
    else:
        detect = arm + offset
        ready = detect + config.dead_time_bins
        outcome = CycleOutcome(
            gate=arm_phase,
            timestamp=detect % b,
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
    one cycle's duration.  The policy gives its gates a block at a time
    (see the module docstring).  Its ``observe_block``, if it has one,
    gets the record columns (gates, timestamps, detected, elapsed periods,
    durations) of each block's kept cycles before the next block's gates
    are asked for, and returns how many of them it took; the block ends
    after those.  Every block is kept until the run ends;
    ``harness.parse_config`` bounds a configured row to
    ``harness.MAX_ROW_CYCLES`` cycles.
    """
    if budget_bins is None and max_cycles is None:
        raise ValueError("need a budget, a cycle cap, or both")
    rng = seed if isinstance(seed, np.random.Generator) else stream_rng(int(seed))
    b = scene.num_bins
    if config.num_bins != b:
        raise ValueError("config and scene have mismatched num_bins")
    cap, dead = config.max_active_periods, config.dead_time_bins
    # The last ready time at which the minimal cycle (one bin plus dead
    # time) still fits in the budget.
    last_start = sys.maxsize if budget_bins is None else budget_bins - (1 + dead)
    observe = getattr(policy, "observe_block", None)
    ready, done = 0, 0
    blocks = []
    shortest = min(dead, cap * b)  # at least one bin: dead_time_bins >= 1
    while ready <= last_start:
        n = min(BLOCK_CYCLES, (last_start - ready) // shortest + 1)
        if max_cycles is not None:
            n = min(n, max_cycles - done)
        if n <= 0:
            break
        gates = policy.gates(done, n, rng)
        free = gates is FREE_RUN
        if not free:
            n = len(gates)
            if n == 0:  # the policy ended the run
                break
        saved = rng.bit_generator.state
        e = rng.exponential(size=n)
        if free:
            offsets = np.array(_free_run_offsets(scene, e.tolist(), ready, dead, cap, last_start), dtype=np.int64)
            censored = offsets < 0
        else:
            offsets, censored = _locate_block(scene, gates, e, cap)
        # Bins from arming to ready; a censored cycle leaves the pixel at its
        # arm phase, a detected one dead time past the detection.
        active = np.where(censored, cap * b, offsets + dead)
        if free:  # each cycle arms where the last one left the pixel
            gates = (ready + np.cumsum(active) - active) % b
        left_at = np.concatenate(([ready % b], (gates[:-1] + active[:-1]) % b))
        durations = (gates - left_at) % b + active
        ends = ready + np.cumsum(durations)
        m = int(np.searchsorted(ends - durations, last_start, side="right"))
        kept = (
            gates[:m],
            np.where(censored, -1, (gates + offsets) % b)[:m],
            ~censored[:m],
            np.where(censored, cap, offsets // b)[:m],
            durations[:m],
        )
        if observe is not None:
            m = observe(*kept)
            kept = tuple(column[:m] for column in kept)
        if m < n:  # the budget or the policy ends the run inside this block
            rng.bit_generator.state = saved
            rng.exponential(size=m)
        blocks.append(kept)
        done += m
        ready = int(ends[m - 1])
    columns = [np.concatenate(c) for c in zip(*blocks)] if blocks else [()] * 5
    return AcquisitionRecord(b, *columns, exposure_bins=ready)


def _free_run_offsets(
    scene: SceneTransient, e: list[float], ready: int, dead: int, cap: int, last_start: int
) -> list[int]:
    """Scan offsets (-1 if censored) of consecutive free-running cycles.

    Free running arms where the last cycle left the pixel, so only this
    phase recurrence is sequential; the caller rebuilds the arm phases
    from the offsets.  The loop is ``_scan_exponential`` inlined, with the
    scene constants hoisted: the same float operations in the same order.
    Stops early at the first cycle that would start after ``last_start``.
    """
    b = scene.num_bins
    span = cap * b
    total = scene.total_rate
    if total <= 0.0:  # every cycle censored; the phase never moves
        return [-1] * min(len(e), (last_start - ready) // span + 1)
    prefix = scene.scan_prefix_list
    offsets = []
    append = offsets.append
    for draw in e:
        if ready > last_start:
            break
        phase = ready % b
        k, x = divmod(prefix[phase] + draw, total)
        if x >= total:  # float remainder can round up to the divisor
            k += 1.0
            x = 0.0
        if k > cap:  # censored whatever the bin; a tiny total makes k inf
            append(-1)
            ready += span
            continue
        offset = int(k) * b + bisect_right(prefix, x) - 1 - phase
        if offset >= span:
            append(-1)
            ready += span
        else:
            append(offset)
            ready += offset + dead
    return offsets

