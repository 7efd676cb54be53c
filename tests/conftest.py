"""Shared brute-force oracles and record builders for the test suite."""

from __future__ import annotations

import bisect
import math

import numpy as np
import pytest

from spadgate import AcquisitionRecord
from spadgate.core import law_statistics, peak_log_likelihood
from spadgate.estimators import _fold, posterior_update
from spadgate.policies import termination_value
from spadgate.spadsim import BLOCK_CYCLES, FEEDBACK_DIVISOR, FREE_RUN, CycleOutcome, SimState, sample_cycle, stream_rng


def logsumexp(a: np.ndarray, axis: int | None = None) -> np.ndarray | float:
    """Max-shifted log(sum(exp(a))); tolerates all -inf slices."""
    a = np.asarray(a, dtype=float)
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True)) + m
    if axis is None:
        return float(out.item())
    return np.squeeze(out, axis=axis)


def flux_log_marginal(post) -> np.ndarray:
    """Depth-marginalized flux log mass of a joint posterior, normalized."""
    with np.errstate(divide="ignore"):
        return np.log(post.mass.sum(axis=0)) - math.log(post.total)


def outcomes_record(num_bins: int, outcomes: list[CycleOutcome]) -> AcquisitionRecord:
    """Record of consecutive cycles from the start of a run."""
    return AcquisitionRecord(
        num_bins=num_bins,
        gates=np.array([o.gate for o in outcomes], dtype=np.int64),
        timestamps=np.array([o.timestamp for o in outcomes], dtype=np.int64),
        detected=np.array([o.detected for o in outcomes], dtype=bool),
        elapsed_periods=np.array([o.elapsed_periods for o in outcomes], dtype=np.int64),
        cycle_durations=np.array([o.cycle_duration_bins for o in outcomes], dtype=np.int64),
        exposure_bins=sum(o.cycle_duration_bins for o in outcomes),
    )


def reference_acquisition(scene, config, policy, budget_bins=None, max_cycles=None, seed=0) -> AcquisitionRecord:
    """Reference for ``run_acquisition``: one ``sample_cycle`` per cycle.

    A gate schedule (a policy without ``observe_block``) gives cycle i's
    gate as ``gates(i, 1)``.  An adaptive policy runs its calibration on
    evenly spread gates, then blocks of Thompson draws.  Before each cycle
    the cycle cap and the budget are checked; the run ends once either
    leaves no room for the minimal cycle (one bin plus the dead time).
    Each Thompson block holds the least of ``BLOCK_CYCLES``, the cycles
    the rest of the budget could start at the shortest cycle (the dead
    time or a censored scan), the cycle cap's remainder and max(1, cycles
    run // FEEDBACK_DIVISOR).  Its gates are draws from the policy's
    posterior as it stands, one uniform each, bisected in the cumulative
    depth marginal.  Without a stop rule, the block's kept cycles are
    folded from their law statistics in one step.  With one, each cycle
    is folded on its own, and the run ends at the first cycle index at or
    after ``min_cycles`` whose termination value is below epsilon,
    whether at a block's start or inside one.
    """
    rng = seed if isinstance(seed, np.random.Generator) else stream_rng(int(seed))
    state = SimState(rng=rng)
    b = scene.num_bins
    dead = config.dead_time_bins
    shortest = min(dead, config.max_active_periods * b)
    outcomes: list[CycleOutcome] = []

    def room() -> int:
        """Cycles that may still start: the cap's remainder, and those the budget holds."""
        left = max_cycles - state.cycles if max_cycles is not None else BLOCK_CYCLES
        if budget_bins is not None:
            left = min(left, max(0, (budget_bins - 1 - dead - state.ready_time) // shortest + 1))
        return left

    if not hasattr(policy, "observe_block"):
        while room() > 0:
            gates = policy.gates(state.cycles, 1)
            outcomes.append(sample_cycle(scene, config, state, FREE_RUN if gates is FREE_RUN else int(gates[0])))
        return outcomes_record(b, outcomes)

    control = policy.exposure

    def stopped() -> bool:
        if control is None or policy.cycle_index < policy.min_cycles:
            return False
        return termination_value(policy.posterior, control.metric) < control.epsilon

    n_cal = policy.calibration_cycles
    while policy.posterior is None and room() > 0:
        outcomes.append(sample_cycle(scene, config, state, state.cycles * b // n_cal % b))
        if state.cycles == n_cal or room() == 0:  # calibration done, or the run ends inside it
            calibration = outcomes_record(b, outcomes)
            policy.observe_block(calibration.gates, calibration.timestamps, calibration.detected,
                                 calibration.elapsed_periods, calibration.cycle_durations)
    while room() > 0 and not stopped():
        n = min(BLOCK_CYCLES, room(), max(1, state.cycles // FEEDBACK_DIVISOR))
        cdf = np.cumsum(policy.posterior.rows).tolist()
        depths = [min(bisect.bisect_right(cdf, u * cdf[-1]), b - 1) for u in rng.random(n)]
        block = []
        for depth in depths:
            if room() == 0:
                break
            block.append(sample_cycle(scene, config, state, (depth - policy.gate_offset) % b))
            if control is not None:
                timestamp = block[-1].timestamp
                posterior_update(policy.posterior, timestamp if timestamp >= 0 else None, block[-1].gate,
                                 policy.bkg_flux)
                policy.cycle_index += 1
                if stopped():
                    break
        outcomes += block
        if control is None:
            policy.cycle_index += len(block)
            stats = law_statistics(b, [o.gate for o in block], [o.timestamp for o in block],
                                   [o.detected for o in block])
            _fold(policy.posterior, stats, policy.bkg_flux)
    return outcomes_record(b, outcomes)


def full_period_cycle_rows(post, bkg_flux: float) -> tuple:
    """Reference for the row templates of ``estimators._cycle_rows``: (hit, window, other, censored).

    Reads each row type off the law evaluated over all B depth rows, on
    template cycles: a detection at its own gate, bin 0 (so the last bin
    is neither hit nor passed over); a detection at bin 0 whose window
    wrapped from the last bin; a censored cycle.  At B = 1 the window and
    other entries are the hit row.
    """
    b = post.num_bins

    def law(gate: int, timestamp: int) -> np.ndarray:
        return peak_log_likelihood(law_statistics(b, [gate], [timestamp], [timestamp >= 0]), bkg_flux, post.flux_grid)

    at_gate, wrapped = law(0, 0), law(b - 1, 0)
    return at_gate[0], wrapped[-1], at_gate[-1], law(0, -1)[0]


def brute_detection_likelihood(rates, t: int, gate: int) -> float:
    """Independent per-bin product oracle for the first-detection probability.

    Walks every bin from arming at ``gate`` to ``t``, multiplying survival
    factors, then the trigger probability at ``t``.  Deliberately naive.
    """
    rates = np.asarray(rates, dtype=float)
    b = rates.size
    p = 1.0
    for tau in range(gate, t):
        p *= math.exp(-rates[tau % b])
    return p * -math.expm1(-rates[t % b])


def make_record(
    num_bins: int,
    cycles,
    duration: int = 1000,
) -> AcquisitionRecord:
    """Record from (gate, folded_timestamp_or_None, elapsed_periods) triples."""
    gates, stamps, flags, periods = [], [], [], []
    for entry in cycles:
        gate, ts = entry[0], entry[1]
        elapsed = entry[2] if len(entry) > 2 else 0
        gates.append(gate)
        stamps.append(-1 if ts is None else ts)
        flags.append(ts is not None)
        periods.append(elapsed)
    n = len(gates)
    return AcquisitionRecord(
        num_bins=num_bins,
        gates=np.array(gates, dtype=np.int64),
        timestamps=np.array(stamps, dtype=np.int64),
        detected=np.array(flags, dtype=bool),
        elapsed_periods=np.array(periods, dtype=np.int64),
        cycle_durations=np.full(n, duration, dtype=np.int64),
        exposure_bins=duration * n,
    )


def assert_marginal_is_the_stored_rows(post) -> None:
    """The installed rows are the mass's flux-axis sums, the total is in its
    range, and the depth marginal is exactly log(rows) - log(total) and
    agrees with the row logsumexp of the normalized log mass."""
    assert np.array_equal(post.rows, post.mass.sum(axis=1))
    assert 2.0**500 <= post.total <= 2.0**1000
    marginal = post.depth_log_marginal()
    with np.errstate(divide="ignore"):
        assert np.array_equal(marginal, np.log(post.rows) - math.log(post.total))
    exact = logsumexp(post.log_mass, axis=1)  # shifted row by row
    assert np.array_equal(marginal == -np.inf, exact == -np.inf)  # rows with no mass left
    near = exact > -np.inf
    assert np.allclose(marginal[near], exact[near], rtol=0.0, atol=1e-12)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
