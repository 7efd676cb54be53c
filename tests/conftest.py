"""Shared brute-force oracles and record builders for the test suite."""

from __future__ import annotations

import bisect
import csv
import math
from dataclasses import fields

import numpy as np
import pytest

from spadgate import AcquisitionRecord, ResultRow
from spadgate.core import LawStatistics, _count_times, law_statistics, log1mexp
from spadgate.estimators import _factor_steps, _fold, _install, posterior_update
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


def log_mass(post) -> np.ndarray:
    """Normalized joint log mass of a posterior, -inf at cells of zero mass."""
    with np.errstate(divide="ignore"):
        return np.log(post.mass) - math.log(post.total)


def depth_log_marginal(post) -> np.ndarray:
    """Flux-marginalized depth log mass of a posterior, normalized."""
    with np.errstate(divide="ignore"):
        return np.log(post.rows) - math.log(post.total)


def flux_log_marginal(post) -> np.ndarray:
    """Depth-marginalized flux log mass of a joint posterior, normalized."""
    with np.errstate(divide="ignore"):
        return np.log(post.mass.sum(axis=0)) - math.log(post.total)


_CELL_TYPES = {"int": int, "float": float, "str": str}


def load_results_csv(path) -> list[ResultRow]:
    """Read back a results CSV as typed rows; its header must be the ResultRow fields."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == [f.name for f in fields(ResultRow)]
        return [ResultRow(**{f.name: _CELL_TYPES[f.type](rec[f.name]) for f in fields(ResultRow)}) for rec in reader]


def _window_counts(starts: np.ndarray, lengths: np.ndarray, num_bins: int) -> np.ndarray:
    """Per-bin count of cyclic windows [start, start + length), one per pass.

    Windows may span whole periods; partial windows go through a
    difference array over two periods.
    """
    full, rem = np.divmod(lengths, num_bins)
    size = 2 * num_bins
    covered = np.cumsum(np.bincount(starts, minlength=size) - np.bincount(starts + rem, minlength=size))
    return int(full.sum()) + covered[:num_bins] + covered[num_bins:]


def reference_law_statistics(num_bins: int, gates, timestamps, detected) -> LawStatistics:
    """Reference for ``core.law_statistics``: each detected cycle's window
    [gate, timestamp) counted as a cyclic window of (timestamp - gate) mod B
    bins by ``_window_counts``."""
    det = np.asarray(detected, dtype=bool)
    gates = np.asarray(gates, dtype=np.int64)[det]
    stamps = np.asarray(timestamps, dtype=np.int64)[det]
    passed = _window_counts(gates, (stamps - gates) % num_bins, num_bins)
    return LawStatistics(np.bincount(stamps, minlength=num_bins), passed, stamps.size, det.size - stamps.size)


def reference_peak_log_likelihood(stats, bkg_flux: float, flux: np.ndarray) -> np.ndarray:
    """Reference for ``core.peak_log_likelihood``: the (B, K) array built row-major,
    each term broadcast from (B, 1) row statistics over the K flux values.

    Same terms in the same order per cell: c log1mexp(bkg + f), plus
    (N_det - c) log1mexp(bkg), minus P f, minus N_det log1mexp(B bkg + f)
    (0 where B bkg + f is 0), minus N_cens (B bkg + f).  0 * -inf is 0.
    """
    k = flux.size
    total = stats.counts.size * bkg_flux + flux
    logs = log1mexp(np.concatenate((bkg_flux + flux, total, [bkg_flux])))
    counts = stats.counts[:, None].astype(float)
    ll = _count_times(counts, logs[:k])
    ll += _count_times(stats.detected - counts, logs[-1:])
    ll = ll - stats.passed[:, None].astype(float) * flux
    if stats.detected:
        ll -= stats.detected * np.where(total > 0.0, logs[k:-1], 0.0)
    if stats.censored:
        ll -= stats.censored * total
    return ll


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
                posterior_update(policy.posterior, timestamp if timestamp >= 0 else None, block[-1].gate)
                policy.cycle_index += 1
                if stopped():
                    break
        outcomes += block
        if control is None:
            policy.cycle_index += len(block)
            stats = law_statistics(b, [o.gate for o in block], [o.timestamp for o in block],
                                   [o.detected for o in block])
            _fold(policy.posterior, stats)
    return outcomes_record(b, outcomes)


def full_period_cycle_rows(post) -> tuple:
    """Reference for the row templates of ``estimators._cycle_rows``: (hit, window, other, censored).

    Reads each row type off the law evaluated over all B depth rows, on
    template cycles: a detection at its own gate, bin 0 (so the last bin
    is neither hit nor passed over); a detection at bin 0 whose window
    wrapped from the last bin; a censored cycle.  At B = 1 the window and
    other entries are the hit row.
    """
    b = post.num_bins

    def law(gate: int, timestamp: int) -> np.ndarray:
        stats = reference_law_statistics(b, [gate], [timestamp], [timestamp >= 0])
        return reference_peak_log_likelihood(stats, post.bkg_flux, post.flux_grid)

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
    range, and the depth marginal log(rows) - log(total) agrees with the row
    logsumexp of the normalized log mass."""
    assert np.array_equal(post.rows, post.mass.sum(axis=1))
    assert 2.0**500 <= post.total <= 2.0**1000
    marginal = depth_log_marginal(post)
    exact = logsumexp(log_mass(post), axis=1)  # shifted row by row
    assert np.array_equal(marginal == -np.inf, exact == -np.inf)  # rows with no mass left
    near = exact > -np.inf
    assert np.allclose(marginal[near], exact[near], rtol=0.0, atol=1e-12)


def reference_fold(post, stats):
    """Reference for ``estimators._fold``: the row-major likelihood of
    ``reference_peak_log_likelihood``, minus its largest cell, applied in the
    steps of ``_factor_steps`` (one step unless it spans more than 700 nats),
    each product written to a new array and installed."""
    like = reference_peak_log_likelihood(stats, post.bkg_flux, post.flux_grid)
    cycles = stats.detected + stats.censored
    c = like.max()
    if not math.isfinite(c):
        post.degraded_cycles += cycles
        return post
    for factor in _factor_steps(like - c):
        if not _install(post, np.multiply(post.mass, factor, out=np.empty_like(post.mass)), cycles):
            break
    return post


def _flux_axis_sum(calls, a, axis):
    if np.ndim(a) == 2 and axis in (1, -1):
        calls.append("flux-axis sum")


class _CountingAdd:
    """``np.add`` whose ``reduce`` records sums over the flux axis."""

    def __init__(self, calls):
        self.calls = calls

    def __getattr__(self, name):
        return getattr(np.add, name)

    def reduce(self, a, axis=0, **kwargs):
        _flux_axis_sum(self.calls, a, axis)
        return np.add.reduce(a, axis=axis, **kwargs)


class NumpyCounter:
    """Stands in for numpy in a module (``estimators``, ``policies``); records
    every exp, log or multiply over a 2-d array (a multiply with the array's
    shape) and every sum over its flux axis."""

    def __init__(self):
        self.calls = []
        self.add = _CountingAdd(self.calls)

    def __getattr__(self, name):
        fn = getattr(np, name)
        if name not in ("exp", "expm1", "log", "log1p", "logaddexp", "multiply"):
            return fn

        def counted(a, *args, **kwargs):
            if np.ndim(a) == 2:
                self.calls.append(f"multiply {np.shape(a)}" if name == "multiply" else name)
            return fn(a, *args, **kwargs)

        return counted

    def sum(self, a, axis=None, **kwargs):
        _flux_axis_sum(self.calls, a, axis)
        return np.sum(a, axis=axis, **kwargs)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
