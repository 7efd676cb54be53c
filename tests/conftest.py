"""Shared brute-force oracles and record builders for the test suite."""

from __future__ import annotations

import math

import numpy as np
import pytest

from spadgate import AcquisitionRecord


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
    calibration_cycles: int = 0,
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
        calibration_cycles=calibration_cycles,
    )


def assert_marginal_is_the_stored_rows(post) -> None:
    """The installed rows are the mass's flux-axis sums, the total is in its
    range, and the depth marginal is exactly log(rows) - log(total) and
    agrees with the row logsumexp of the normalized log mass."""
    from spadgate import logsumexp

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
