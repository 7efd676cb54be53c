"""Event-driven SPAD cycle simulation: arming, sampling, budgets, determinism."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spadgate as sg
from spadgate import spadsim
from conftest import brute_detection_likelihood, reference_acquisition
from spadgate.spadsim import SimState


def test_stream_rng_reproducible_and_separated():
    a = sg.stream_rng(42, 3).random(5)
    b = sg.stream_rng(42, 3).random(5)
    c = sg.stream_rng(42, 4).random(5)
    d = sg.stream_rng(43, 3).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_arm_triggered_frozen_and_brute():
    assert sg.arm_triggered(812, 300, 500) == 1300
    assert sg.arm_triggered(300, 300, 500) == 300  # already at the right phase
    assert sg.arm_triggered(301, 300, 500) == 800
    rng = np.random.default_rng(9)
    for _ in range(200):
        b = int(rng.integers(2, 50))
        ready = int(rng.integers(0, 10_000))
        gate = int(rng.integers(0, b))
        t = ready
        while t % b != gate:
            t += 1
        assert sg.arm_triggered(ready, gate, b) == t


def test_arm_free_running_is_immediate():
    for ready in (0, 7, 812):
        assert sg.arm_free_running(ready) == ready


def test_sample_cycle_deterministic_detection():
    # one enormous rate bin, zero elsewhere: the sampler must skip the
    # zero-rate bins for free and always detect at that bin
    rates = np.zeros(10)
    rates[6] = 50.0
    scene = sg.SceneTransient.from_rates(rates)
    spad = sg.SpadConfig(num_bins=10, dead_time_ns=0.5, max_active_periods=4)
    state = SimState(rng=sg.stream_rng(1))
    for gate in (0, 6, 9):
        out = sg.sample_cycle(scene, spad, state, gate)
        assert out.detected
        assert out.timestamp == 6
        assert out.elapsed_periods == 0
        assert out.gate == gate


def test_sample_cycle_censored_shape():
    scene = sg.SceneTransient(num_bins=8, ambient_flux=0.0)  # no flux at all
    spad = sg.SpadConfig(num_bins=8, dead_time_ns=1.0, max_active_periods=3)
    state = SimState(rng=sg.stream_rng(2))
    out = sg.sample_cycle(scene, spad, state, 5)
    assert not out.detected
    assert out.timestamp == -1
    assert out.elapsed_periods == 3
    # censored cycles burn the full cap but no dead time
    assert out.cycle_duration_bins == (sg.arm_triggered(0, 5, 8) - 0) + 3 * 8
    assert state.ready_time == sg.arm_triggered(0, 5, 8) + 24


def test_detection_advances_dead_time():
    rates = np.zeros(6)
    rates[2] = 50.0
    scene = sg.SceneTransient.from_rates(rates)
    spad = sg.SpadConfig(num_bins=6, dead_time_ns=1.1, max_active_periods=4)  # 11 bins
    assert spad.dead_time_bins == 11
    state = SimState(rng=sg.stream_rng(3))
    out = sg.sample_cycle(scene, spad, state, 2)
    assert state.ready_time == 2 + 11
    assert out.cycle_duration_bins == 13


def _offset_histogram(record, num_bins, cap):
    """Empirical distribution over scan offsets, censoring in the last slot."""
    hist = np.zeros(cap * num_bins + 1)
    for i in range(len(record)):
        if record.detected[i]:
            offset = int(record.elapsed_periods[i]) * num_bins + (
                int(record.timestamps[i]) - int(record.gates[i])
            ) % num_bins
            hist[offset] += 1
        else:
            hist[-1] += 1
    return hist / hist.sum()


def _analytic_offsets(scene, gate, cap):
    probs = [brute_detection_likelihood(scene.rates, gate + n, gate) for n in range(cap * scene.num_bins)]
    q = sg.no_detection_probability(scene)
    return np.array(probs + [q**cap])


def test_sampler_matches_analytic_distribution():
    b, cap, gate = 16, 2, 5
    scene = sg.SceneTransient(num_bins=b, ambient_flux=0.04, peaks=((11, 0.8),))
    spad = sg.SpadConfig(num_bins=b, dead_time_ns=0.0, max_active_periods=cap)
    record = sg.run_acquisition(
        scene, spad, sg.FixedGatePolicy(gate, b), max_cycles=20_000, seed=101
    )
    emp = _offset_histogram(record, b, cap)
    ana = _analytic_offsets(scene, gate, cap)
    assert ana.sum() == pytest.approx(1.0, abs=1e-12)
    tv = 0.5 * np.abs(emp - ana).sum()
    assert tv < 0.04  # ~4x the Monte Carlo noise floor at n=20k


def test_skip_sampler_handles_zero_rate_bins():
    rates = np.array([0.0, 0.3, 0.0, 0.8, 0.0, 0.1])
    scene = sg.SceneTransient.from_rates(rates)
    spad = sg.SpadConfig(num_bins=6, dead_time_ns=0.0, max_active_periods=3)
    record = sg.run_acquisition(scene, spad, sg.UniformGatePolicy(6), max_cycles=15_000, seed=55)
    detected_bins = set(np.unique(record.timestamps[record.detected]))
    assert detected_bins <= {1, 3, 5}  # zero-rate bins can never trigger
    # and the offset distribution still matches the analytic one
    gates = record.gates[record.detected]
    offs = (record.timestamps[record.detected] - gates) % 6 + record.elapsed_periods[record.detected] * 6
    emp = np.bincount(offs.astype(int), minlength=18) / len(record)
    ana = np.array([
        np.mean([brute_detection_likelihood(rates, g + n, g) for g in range(6)]) for n in range(18)
    ])
    assert 0.5 * np.abs(emp - ana[: emp.size]).sum() < 0.04


def test_run_acquisition_budget_semantics():
    rates = np.zeros(10)
    rates[0] = 50.0
    scene = sg.SceneTransient.from_rates(rates)
    spad = sg.SpadConfig(num_bins=10, dead_time_ns=0.5, max_active_periods=4)  # dead = 5 bins
    policy = sg.FixedGatePolicy(0, 10)
    # budget smaller than the minimal cycle (1 + dead = 6): nothing runs
    empty = sg.run_acquisition(scene, spad, sg.FixedGatePolicy(0, 10), budget_bins=5, seed=0)
    assert len(empty) == 0
    assert empty.exposure_bins == 0
    # deterministic detections at bin 0: durations are 5, 10, 10, ... and
    # ready times 0, 5, 15, 25, ...; a cycle starts iff ready + 6 <= budget
    rec = sg.run_acquisition(scene, spad, sg.FixedGatePolicy(0, 10), budget_bins=30, seed=0)
    assert len(rec) == 3
    assert list(rec.cycle_durations) == [5, 10, 10]
    # at 31 the minimal cycle still fits at ready=25; the realized cycle
    # overshoots to 35, by less than one cycle's duration
    rec4 = sg.run_acquisition(scene, spad, sg.FixedGatePolicy(0, 10), budget_bins=31, seed=0)
    assert len(rec4) == 4
    assert rec4.exposure_bins == 35


def test_run_acquisition_overshoot_bounded_by_one_cycle():
    scene = sg.SceneTransient(num_bins=20, ambient_flux=0.01)
    spad = sg.SpadConfig(num_bins=20, dead_time_ns=3.0, max_active_periods=16)
    budget = 5_000
    rec = sg.run_acquisition(scene, spad, sg.UniformGatePolicy(20), budget_bins=budget, seed=8)
    assert rec.exposure_bins == rec.cycle_durations.sum()
    last = int(rec.cycle_durations[-1])
    assert rec.exposure_bins - last + 1 + spad.dead_time_bins <= budget  # pre-check held when it started
    assert rec.exposure_bins <= budget + (20 - 1) + 16 * 20 + spad.dead_time_bins


def test_run_acquisition_max_cycles():
    scene = sg.SceneTransient(num_bins=8, ambient_flux=0.1)
    spad = sg.SpadConfig(num_bins=8, dead_time_ns=1.0)
    rec = sg.run_acquisition(scene, spad, sg.FreeRunningPolicy(), max_cycles=37, seed=4)
    assert len(rec) == 37
    with pytest.raises(ValueError):
        sg.run_acquisition(scene, spad, sg.FreeRunningPolicy(), seed=4)  # no stop condition at all


def test_run_acquisition_deterministic():
    scene = sg.SceneTransient(num_bins=30, ambient_flux=0.02, peaks=((17, 0.6),))
    spad = sg.SpadConfig(num_bins=30, dead_time_ns=5.0)

    def run(seed):
        pol = sg.AdaptiveGatePolicy(num_bins=30, calibration_cycles=8)
        return sg.run_acquisition(scene, spad, pol, max_cycles=300, seed=seed)

    a, b, c = run(6), run(6), run(7)
    for field in ("gates", "timestamps", "detected", "elapsed_periods", "cycle_durations"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    assert a.exposure_bins == b.exposure_bins
    assert not np.array_equal(a.timestamps, c.timestamps)


def test_free_running_gates_equal_ready_phase():
    scene = sg.SceneTransient(num_bins=12, ambient_flux=0.15)
    spad = sg.SpadConfig(num_bins=12, dead_time_ns=2.7, max_active_periods=4)
    rec = sg.run_acquisition(scene, spad, sg.FreeRunningPolicy(), max_cycles=200, seed=10)
    ready = 0
    for i in range(len(rec)):
        assert int(rec.gates[i]) == ready % 12  # armed the instant it was ready
        ready += int(rec.cycle_durations[i])
    assert ready == rec.exposure_bins


def test_triggered_cycle_bookkeeping():
    gate = 7
    scene = sg.SceneTransient(num_bins=12, ambient_flux=0.08, peaks=((3, 0.5),))
    spad = sg.SpadConfig(num_bins=12, dead_time_ns=2.0, max_active_periods=3)
    rec = sg.run_acquisition(scene, spad, sg.FixedGatePolicy(gate, 12), max_cycles=300, seed=11)
    assert np.all(rec.gates == gate)
    ready = 0
    for i in range(len(rec)):
        arm = sg.arm_triggered(ready, gate, 12)
        if rec.detected[i]:
            offset = int(rec.elapsed_periods[i]) * 12 + (int(rec.timestamps[i]) - gate) % 12
            expect = (arm - ready) + offset + spad.dead_time_bins
        else:
            expect = (arm - ready) + 3 * 12
        assert int(rec.cycle_durations[i]) == expect
        ready += expect


def _assert_matches_the_reference(scene, spad, make_policy, budget, max_cycles, seed=3):
    """``run_acquisition`` and the reference loop, each with a fresh policy, agree to the bit."""
    run_policy, cycle_policy = make_policy(), make_policy()
    run_rng, cycle_rng = sg.stream_rng(seed), sg.stream_rng(seed)
    run = sg.run_acquisition(scene, spad, run_policy, budget_bins=budget, max_cycles=max_cycles, seed=run_rng)
    cycle = reference_acquisition(scene, spad, cycle_policy, budget_bins=budget, max_cycles=max_cycles, seed=cycle_rng)
    for field in ("gates", "timestamps", "detected", "elapsed_periods", "cycle_durations"):
        assert np.array_equal(getattr(run, field), getattr(cycle, field)), field
    assert run.exposure_bins == cycle.exposure_bins
    assert getattr(run_policy, "cycle_index", None) == getattr(cycle_policy, "cycle_index", None)
    assert np.array_equal(run_rng.random(4), cycle_rng.random(4))  # the generator ends in the same state
    return run


_OPEN_LOOP = {
    "fixed": lambda b, gate: sg.FixedGatePolicy(gate % b, b),
    "uniform": lambda b, gate: sg.UniformGatePolicy(b),
    "free_running": lambda b, gate: sg.FreeRunningPolicy(),
}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    b=st.integers(1, 60),
    ambient=st.one_of(st.just(0.0), st.floats(0.0, 0.2), st.floats(0.5, 3.0)),
    peak=st.one_of(st.none(), st.tuples(st.integers(0, 59), st.floats(0.0, 5.0))),
    dead_bins=st.one_of(st.just(0), st.integers(0, 120)),
    cap=st.one_of(st.just(1), st.integers(1, 16)),
    budget=st.one_of(st.none(), st.integers(0, 40_000)),
    max_cycles=st.one_of(st.none(), st.integers(0, 3000)),
    gate=st.integers(0, 59),
    seed=st.integers(0, 2**16),
)
def test_open_loop_blocks_match_the_per_cycle_loop(b, ambient, peak, dead_bins, cap, budget, max_cycles, gate, seed):
    if budget is None and max_cycles is None:
        max_cycles = 500
    peaks = () if peak is None else ((peak[0] % b, peak[1]),)
    scene = sg.SceneTransient(num_bins=b, ambient_flux=ambient, peaks=peaks)
    spad = sg.SpadConfig(num_bins=b, bin_resolution_ps=100.0, dead_time_ns=dead_bins / 10, max_active_periods=cap)
    assert spad.dead_time_bins == max(dead_bins, 1)  # the detection bin is spent at zero dead time
    for make in _OPEN_LOOP.values():
        _assert_matches_the_reference(scene, spad, lambda: make(b, gate), budget, max_cycles, seed)


@pytest.mark.parametrize("kind", sorted(_OPEN_LOOP))
def test_open_loop_runs_longer_than_one_block(kind):
    scene = sg.SceneTransient(num_bins=50, ambient_flux=0.02, peaks=((27, 0.3),))
    spad = sg.SpadConfig(num_bins=50, dead_time_ns=8.1, max_active_periods=4)
    rec = _assert_matches_the_reference(scene, spad, lambda: _OPEN_LOOP[kind](50, 22), 1_500_000, None)
    assert len(rec) > 2 * spadsim.BLOCK_CYCLES
    capped = _assert_matches_the_reference(
        scene, spad, lambda: _OPEN_LOOP[kind](50, 22), None, 2 * spadsim.BLOCK_CYCLES + 5)
    assert len(capped) == 2 * spadsim.BLOCK_CYCLES + 5


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("ambient", [0.0, 1e-310])  # zero rate, and one so small that e / total overflows
@pytest.mark.parametrize("kind", sorted(_OPEN_LOOP))
def test_open_loop_record_with_every_cycle_censored(kind, ambient):
    scene = sg.SceneTransient(num_bins=12, ambient_flux=ambient)
    spad = sg.SpadConfig(num_bins=12, dead_time_ns=2.0, max_active_periods=2)
    rec = _assert_matches_the_reference(scene, spad, lambda: _OPEN_LOOP[kind](12, 5), 10_000, None)
    assert len(rec) > 0 and not rec.detected.any()
    assert np.all(rec.timestamps == -1) and np.all(rec.elapsed_periods == 2)


def _count_block_draws(monkeypatch) -> list[int]:
    """Record the number of draws each open-loop block hands to its scan."""
    handed = []
    locate, free_run = spadsim._locate_block, spadsim._free_run_detections

    def counted_locate(scene, gates, e, cap):
        handed.append(len(e))
        return locate(scene, gates, e, cap)

    def counted_free_run(scene, e, *args):
        handed.append(len(e))
        return free_run(scene, e, *args)

    monkeypatch.setattr(spadsim, "_locate_block", counted_locate)
    monkeypatch.setattr(spadsim, "_free_run_detections", counted_free_run)
    return handed


_PEAKED_50 = sg.SceneTransient(num_bins=50, ambient_flux=0.02, peaks=((27, 0.3),))
_DEAD_81 = sg.SpadConfig(num_bins=50, dead_time_ns=8.1, max_active_periods=4)
# (scene, spad, budget, max_cycles): each run takes exactly one block.
_SIZED_BLOCK_CASES = {
    "budget ends inside the block": (_PEAKED_50, _DEAD_81, 30_000, None),
    "cycle cap below the bound": (_PEAKED_50, _DEAD_81, 30_000, 100),
    # Every cycle detects in its arm bin and lasts the 20-bin dead time (two
    # periods), so fixed gate 0 and free running start as many cycles as the
    # bound allows.
    "budget ends at the bound": (sg.SceneTransient(num_bins=10, ambient_flux=50.0),
                                 sg.SpadConfig(num_bins=10, dead_time_ns=2.0, max_active_periods=3), 1000, None),
    # Every cycle is censored after cap * b = 20 bins, less than the 50-bin
    # dead time, and fills the block the same way.
    "censored scans shorter than the dead time": (sg.SceneTransient(num_bins=10, ambient_flux=0.0),
                                                  sg.SpadConfig(num_bins=10, dead_time_ns=5.0, max_active_periods=2),
                                                  1000, None),
}


@pytest.mark.parametrize("case", sorted(_SIZED_BLOCK_CASES))
@pytest.mark.parametrize("kind", sorted(_OPEN_LOOP))
def test_blocks_sized_to_the_budget_match_the_per_cycle_loop(monkeypatch, kind, case):
    scene, spad, budget, max_cycles = _SIZED_BLOCK_CASES[case]
    handed = _count_block_draws(monkeypatch)
    rec = _assert_matches_the_reference(scene, spad, lambda: _OPEN_LOOP[kind](scene.num_bins, 0),
                                                  budget, max_cycles)
    shortest = min(spad.dead_time_bins, spad.max_active_periods * scene.num_bins)
    bound = (budget - 1 - spad.dead_time_bins) // shortest + 1  # cycles that could start
    assert handed == [bound if max_cycles is None else min(bound, max_cycles)]
    if case in ("budget ends at the bound", "censored scans shorter than the dead time") and kind != "uniform":
        assert len(rec) == bound


@pytest.mark.parametrize("kind", sorted(_OPEN_LOOP))
def test_a_short_acquisition_draws_only_the_cycles_it_can_start(monkeypatch, kind):
    # The dark-scan operating point: 200 bins (100 ps at 50 MHz), 81 ns dead
    # time (810 bins) and a 30 us budget (300,000 bins), in which at most
    # (300_000 - 811) // 810 + 1 = 370 cycles can start.
    spad = sg.SpadConfig(num_bins=200, rep_rate_hz=50e6, dead_time_ns=81.0)
    scene = sg.SceneTransient(num_bins=200, ambient_flux=0.02, peaks=((120, 0.06),))
    handed = _count_block_draws(monkeypatch)
    rec = sg.run_acquisition(scene, spad, _OPEN_LOOP[kind](200, 115), budget_bins=300_000, seed=9)
    assert 250 < len(rec) <= sum(handed) <= 370


@pytest.mark.parametrize("kind", [*sorted(_OPEN_LOOP), "adaptive"])
def test_zero_dead_time_cycles_are_bounded_by_the_budget(kind):
    # At saturating ambient 95% of cycles detect in the bin they armed in.
    # That bin is spent even at zero dead time, so a budget of N bins holds
    # at most N cycles.
    b, budget = 50, 2000
    scene = sg.SceneTransient(num_bins=b, ambient_flux=3.0)
    spad = sg.SpadConfig(num_bins=b, dead_time_ns=0.0)
    if kind == "adaptive":
        def make():
            return sg.AdaptiveGatePolicy(b, bkg_flux=3.0)
    else:
        def make():
            return _OPEN_LOOP[kind](b, 7)
    rec = _assert_matches_the_reference(scene, spad, make, budget, None)
    assert rec.detected.any() and rec.cycle_durations.min() >= 1
    assert len(rec) <= budget


def test_a_calibration_longer_than_a_block_matches_the_reference():
    # The calibration spans two blocks and is folded once the second ends;
    # Thompson blocks follow.
    n_cal = spadsim.BLOCK_CYCLES + 100
    scene = sg.SceneTransient(num_bins=8, ambient_flux=0.1, peaks=((5, 0.4),))
    spad = sg.SpadConfig(num_bins=8, dead_time_ns=1.0)
    policies = []

    def make():
        policies.append(sg.AdaptiveGatePolicy(num_bins=8, calibration_cycles=n_cal))
        return policies[-1]

    rec = _assert_matches_the_reference(scene, spad, make, None, n_cal + 3000)
    assert len(rec) == n_cal + 3000
    run_post, reference_post = (pol.posterior for pol in policies)
    assert run_post.mass.tobytes() == reference_post.mass.tobytes()
    assert sg.map_depth(run_post) == 5


# The gated-sweep operating point (500 bins, 81 ns dead time), run for 2000 us.
_SWEEP_SPAD = sg.SpadConfig(num_bins=500, bin_resolution_ps=100.0, dead_time_ns=81.0, max_active_periods=16)
_SWEEP_SCENES = {
    **{f"ambient {a}": sg.SceneTransient(num_bins=500, ambient_flux=a, peaks=((275, 2.0 * a),))
       for a in (0.00025, 0.02, 0.5)},
    # bins 0-299 have zero rate, so every scan skips them for free before the first rate
    "leading zero bins": sg.SceneTransient(num_bins=500, ambient_flux=0.0, peaks=((300, 0.05), (420, 0.3))),
}


@pytest.mark.parametrize("name", sorted(_SWEEP_SCENES))
def test_free_running_matches_the_per_cycle_loop_at_sweep_scale(name):
    assert _SWEEP_SPAD.dead_time_bins == 810
    rec = _assert_matches_the_reference(
        _SWEEP_SCENES[name], _SWEEP_SPAD, sg.FreeRunningPolicy, 20_000_000, None, seed=41)
    assert len(rec) > spadsim.BLOCK_CYCLES and len(rec) % spadsim.BLOCK_CYCLES  # ends inside a later block
    assert rec.detected.any()


def _count_searchsorted(monkeypatch) -> list[int]:
    """Record the number of keys of each ``np.searchsorted`` call."""
    sizes = []
    searchsorted = np.searchsorted

    def counted(a, v, *args, **kwargs):
        sizes.append(np.size(v))
        return searchsorted(a, v, *args, **kwargs)

    monkeypatch.setattr(spadsim.np, "searchsorted", counted)
    return sizes


@pytest.mark.parametrize("name", sorted(_SWEEP_SCENES))
@pytest.mark.parametrize("kind", ["fixed", "uniform"])
def test_gate_schedules_match_the_per_cycle_loop_at_sweep_scale(monkeypatch, kind, name):
    # Blocks of BUCKET_SEARCH_MIN draws or more find their bins through the
    # scene's bucket table, never through a bisection.
    scene = _SWEEP_SCENES[name]
    sizes = _count_searchsorted(monkeypatch)
    rec = _assert_matches_the_reference(
        scene, _SWEEP_SPAD, lambda: _OPEN_LOOP[kind](500, 270), 20_000_000, None, seed=41)
    assert len(rec) > spadsim.BLOCK_CYCLES and len(rec) % spadsim.BLOCK_CYCLES  # ends inside a later block
    assert rec.detected.any()
    assert scene.scan_buckets is not None
    assert all(size < spadsim.BUCKET_SEARCH_MIN for size in sizes)


_SMALLEST_NORMAL = np.finfo(float).tiny


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    b=st.integers(1, 600),
    decades=st.tuples(st.integers(-12, 3), st.integers(-12, 3)),
    zero_runs=st.integers(0, 4),
    total=st.sampled_from([None, 0.5, 1.0, 3.0, 1e3, 1e6]),  # times the smallest normal float
    n=st.sampled_from([1, 2, 500, spadsim.BUCKET_SEARCH_MIN - 1, spadsim.BUCKET_SEARCH_MIN,
                       spadsim.BUCKET_SEARCH_MIN + 1, 4096]),
    seed=st.integers(0, 2**16),
)
def test_block_search_gives_the_bisection_bins(b, decades, zero_runs, total, n, seed):
    # Rates log-uniform between two decades of 1e-12 .. 1e3, with runs of
    # zeros, or scaled to a total near the smallest normal float.  Keys are
    # uniform, or prefix entries, or bucket edges and their neighbours.
    rng = np.random.default_rng(seed)
    lo, hi = sorted(decades)
    rates = 10.0 ** rng.uniform(lo, hi + 1, b)
    for _ in range(zero_runs):
        start = rng.integers(b)
        rates[start:start + rng.integers(1, b + 1)] = 0.0
    if total is not None:
        rates *= total * _SMALLEST_NORMAL / max(rates.sum(), 1e-300)
    if not rates.sum() > 0.0:
        return
    scene = sg.SceneTransient.from_rates(rates)
    prefix, table = scene.scan_prefix, scene.scan_buckets
    keys = [rng.uniform(0.0, scene.total_rate, n), prefix]
    if table is not None:
        edges = np.arange(len(table.first)) / table.scale
        keys += [edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)]
    keys = np.concatenate(keys)
    keys = keys[(keys >= 0.0) & (keys < scene.total_rate)]
    x = rng.choice(keys, n)
    expect = np.searchsorted(prefix, x, side="right") - 1
    searched = []
    searchsorted = np.searchsorted
    spadsim.np.searchsorted = lambda *args, **kwargs: searched.append(1) or searchsorted(*args, **kwargs)
    try:
        got = spadsim._scan_bins(scene, x)
    finally:
        spadsim.np.searchsorted = searchsorted
    assert np.array_equal(got, expect)
    # A block long enough for the table, on a scene that has one, is never bisected.
    assert searched == ([] if table is not None and n >= spadsim.BUCKET_SEARCH_MIN else [1])


def test_scenes_without_a_bucket_table():
    assert sg.SceneTransient(num_bins=8, ambient_flux=0.0, peaks=((3, 1e-320),)).scan_buckets is None  # subnormal
    # Rates from 1e-12 to 1e3 put hundreds of lower ends in the first buckets.
    assert sg.SceneTransient.from_rates(10.0 ** np.linspace(-12, 3, 400)).scan_buckets is None
    uniform = sg.SceneTransient(num_bins=500, ambient_flux=0.02).scan_buckets
    assert uniform.steps == 1 and len(uniform.first) == 2 * 500 + 1


def test_a_wrong_bucket_table_still_gives_the_bisection_bins():
    # The search checks every bin the table finds, so a table whose starts
    # are one bucket late falls back on the bisection.
    scene = sg.SceneTransient(num_bins=500, ambient_flux=0.02, peaks=((275, 0.04),))
    table = scene.scan_buckets
    scene.scan_buckets = table._replace(first=np.append(table.first[1:], table.first[-1]))
    x = np.random.default_rng(5).uniform(0.0, scene.total_rate, 4096)
    assert np.array_equal(spadsim._scan_bins(scene, x), np.searchsorted(scene.scan_prefix, x, side="right") - 1)


def _count_scalar_scans(monkeypatch) -> list[tuple]:
    """Record every call of ``_scan_exponential``."""
    calls = []
    scan = spadsim._scan_exponential
    monkeypatch.setattr(spadsim, "_scan_exponential", lambda *args: calls.append(args) or scan(*args))
    return calls


def _block_schedule(rec, spad, budget=None, max_cycles=None, calibration=0) -> list[tuple[int, int]]:
    """(cycles drawn, cycles kept) of each block of an adaptive row, replayed
    from its record: the calibration block, then max(1, cycles run //
    FEEDBACK_DIVISOR) Thompson draws, each block capped by ``BLOCK_CYCLES``,
    the cycle cap and the cycles the budget could still start."""
    b, dead = rec.num_bins, spad.dead_time_bins
    shortest = min(dead, spad.max_active_periods * b)
    last_start = sys.maxsize if budget is None else budget - 1 - dead
    ends = np.cumsum(rec.cycle_durations).tolist()
    schedule, done = [], 0
    while done < len(rec):
        ready = ends[done - 1] if done else 0
        n = min(spadsim.BLOCK_CYCLES, (last_start - ready) // shortest + 1)
        if max_cycles is not None:
            n = min(n, max_cycles - done)
        n = min(n, calibration - done if done < calibration else max(1, done // spadsim.FEEDBACK_DIVISOR))
        schedule.append((n, min(n, len(rec) - done)))
        done += schedule[-1][1]
    return schedule


def test_only_short_triggered_blocks_call_the_scalar_scan(monkeypatch):
    calls = _count_scalar_scans(monkeypatch)
    scene, short = _SWEEP_SCENES["ambient 0.02"], spadsim.SHORT_BLOCK
    rec = sg.run_acquisition(scene, _SWEEP_SPAD, sg.FreeRunningPolicy(), budget_bins=200_000, seed=5)
    assert len(rec) > 100 and calls == []
    # A budget row scans each cycle it keeps: every cycle that starts.
    rec = sg.run_acquisition(scene, _SWEEP_SPAD, sg.AdaptiveGatePolicy(500, bkg_flux=0.02), budget_bins=200_000,
                             seed=5)
    schedule = _block_schedule(rec, _SWEEP_SPAD, budget=200_000)
    assert len(rec) > 100 and any(n >= short for n, _ in schedule)
    assert len(calls) == sum(kept for n, kept in schedule if n < short) > 0
    # A row with a stop rule and no budget scans its whole last block, the
    # cycles after the stop included.
    calls.clear()
    stopping = sg.AdaptiveGatePolicy(500, bkg_flux=0.02, exposure=sg.ExposureControl(epsilon=0.25))
    rec = sg.run_acquisition(scene, _SWEEP_SPAD, stopping, max_cycles=300, seed=5)
    schedule = _block_schedule(rec, _SWEEP_SPAD, max_cycles=300)
    assert len(rec) > 100 and any(n >= short for n, _ in schedule)
    assert len(calls) == sum(n for n, _ in schedule if n < short) > 0
    # Calibration of 4 * SHORT_BLOCK cycles, then blocks of SHORT_BLOCK and
    # 5 * SHORT_BLOCK // 4 draws: none is short.
    calls.clear()
    n_cal, max_cycles = 4 * short, 5 * short + 5 * short // 4
    estimated = sg.AdaptiveGatePolicy(500, calibration_cycles=n_cal)
    rec = sg.run_acquisition(scene, _SWEEP_SPAD, estimated, max_cycles=max_cycles, seed=5)
    assert _block_schedule(rec, _SWEEP_SPAD, max_cycles=max_cycles, calibration=n_cal) == [
        (n_cal, n_cal), (short, short), (5 * short // 4, 5 * short // 4)]
    assert calls == []


def _assert_adaptive_matches_the_reference(scene, spad, budget, max_cycles, seed=3, **policy_args):
    """``_assert_matches_the_reference`` for an adaptive policy, and the two
    posteriors' masses agree to the bit as well."""
    policies = []

    def policy():
        policies.append(sg.AdaptiveGatePolicy(num_bins=scene.num_bins, **policy_args))
        return policies[-1]

    rec = _assert_matches_the_reference(scene, spad, policy, budget, max_cycles, seed)
    for pol in policies:
        pol.ensure_posterior()  # a run that ended inside calibration folds what it has
    run_post, cycle_post = (pol.posterior for pol in policies)
    assert run_post.mass.tobytes() == cycle_post.mass.tobytes()
    assert run_post.degraded_cycles == cycle_post.degraded_cycles
    return rec


_PEAKED_100 = sg.SceneTransient(num_bins=100, ambient_flux=0.02, peaks=((40, 0.1),))
_DEAD_8 = sg.SpadConfig(num_bins=100, bin_resolution_ps=100.0, dead_time_ns=8.1, max_active_periods=4)


def test_a_stop_inside_a_short_block_matches_the_reference(monkeypatch):
    calls = _count_scalar_scans(monkeypatch)
    control = sg.ExposureControl(epsilon=0.9, min_cycles=0)
    rec = _assert_adaptive_matches_the_reference(_PEAKED_100, _DEAD_8, None, 300, seed=2, bkg_flux=0.02,
                                                 exposure=control)
    schedule = _block_schedule(rec, _DEAD_8, max_cycles=300)
    n, kept = schedule[-1]
    assert 1 <= kept < n < spadsim.SHORT_BLOCK  # the stop cut a short block
    # The run scans its whole last block; the reference scans only the kept cycles.
    assert len(calls) == sum(n for n, _ in schedule) + len(rec)


def test_a_budget_ending_inside_a_short_block_matches_the_reference():
    budget = 15_000
    rec = _assert_adaptive_matches_the_reference(_PEAKED_100, _DEAD_8, budget, None, seed=4, bkg_flux=0.02)
    n, kept = _block_schedule(rec, _DEAD_8, budget=budget)[-1]
    assert 1 <= kept < n < spadsim.SHORT_BLOCK
    assert rec.exposure_bins > budget - 1 - _DEAD_8.dead_time_bins  # no further cycle could start


@pytest.mark.parametrize("cap", [1, 3])
def test_short_blocks_with_censored_and_wrapping_cycles_match_the_reference(cap):
    # A total rate of 0.6 per period: a third of the scans outlast one period.
    scene = sg.SceneTransient(num_bins=30, ambient_flux=0.01, peaks=((12, 0.3),))
    spad = sg.SpadConfig(num_bins=30, bin_resolution_ps=100.0, dead_time_ns=2.0, max_active_periods=cap)
    assert scene.total_rate < 1.0
    rec = _assert_adaptive_matches_the_reference(scene, spad, None, 97, seed=6, bkg_flux=0.01)
    assert all(n < spadsim.SHORT_BLOCK for n, _ in _block_schedule(rec, spad, max_cycles=97))
    assert (~rec.detected).any() and (rec.detected & (rec.timestamps < rec.gates)).any()
    if cap > 1:
        assert (rec.detected & (rec.elapsed_periods > 0)).any()
        assert set(rec.elapsed_periods[~rec.detected].tolist()) == {cap}


@pytest.mark.parametrize("exposure", [None, sg.ExposureControl(epsilon=0.01, min_cycles=0)])
def test_short_blocks_of_a_zero_rate_scene_match_the_reference(exposure):
    scene = sg.SceneTransient(num_bins=20, ambient_flux=0.0)
    spad = sg.SpadConfig(num_bins=20, bin_resolution_ps=100.0, dead_time_ns=5.0, max_active_periods=2)
    rec = _assert_adaptive_matches_the_reference(scene, spad, 20_000, None, seed=7, bkg_flux=0.01,
                                                 exposure=exposure)
    assert len(rec) > 0 and not rec.detected.any() and set(rec.elapsed_periods.tolist()) == {2}


def test_a_cycle_that_starts_at_the_last_start_runs():
    # One bin and no light: every cycle is censored after 3 bins, three
    # times the shortest cycle (the one-bin dead time), so the budget's bound
    # on a block overshoots.  In a budget of 44 bins the last start is 42, and
    # the 15th cycle, the last of a block of 3, starts there.
    scene = sg.SceneTransient(num_bins=1, ambient_flux=0.0)
    spad = sg.SpadConfig(num_bins=1, bin_resolution_ps=100.0, dead_time_ns=0.1, max_active_periods=3)
    rec = _assert_adaptive_matches_the_reference(scene, spad, 44, None, bkg_flux=0.01)
    assert len(rec) == 15 and rec.exposure_bins == 45
    assert _block_schedule(rec, spad, budget=44)[-1] == (3, 3)


@pytest.mark.parametrize("n", [spadsim.SHORT_BLOCK - 1, spadsim.SHORT_BLOCK])
def test_blocks_at_the_short_block_threshold_match_the_reference(monkeypatch, n):
    # Calibration of 4n cycles, then one block of n Thompson draws.
    calls = _count_scalar_scans(monkeypatch)
    spad = sg.SpadConfig(num_bins=100, bin_resolution_ps=100.0, dead_time_ns=8.1, max_active_periods=4)
    rec = _assert_adaptive_matches_the_reference(_PEAKED_100, spad, None, 5 * n, seed=8, calibration_cycles=4 * n)
    assert _block_schedule(rec, spad, max_cycles=5 * n, calibration=4 * n) == [(4 * n, 4 * n), (n, n)]
    reference_scans = 5 * n
    assert len(calls) == reference_scans + (n if n < spadsim.SHORT_BLOCK else 0)


# Zero-rate bins at both ends of the period: scan prefix [0, 0, 0.5, 1, 1],
# total rate 1.  Every prefix plus a draw below is exact in binary, so some
# draws land exactly on the period's end (prefix[phase] + draw == total),
# where divmod gives k = 1 and the scan goes on into the next period.
_EDGE_SCENE = sg.SceneTransient.from_rates(np.array([0.0, 0.5, 0.5, 0.0]))
_EDGE_DRAWS = (0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 2.0, 3.0, 4.5)


def _scan_offset(scene, phase, draw, cap) -> int:
    offset = spadsim._scan_exponential(scene, phase, draw, cap)
    return -1 if offset is None else offset


@pytest.mark.parametrize("cap", [1, 3])
@pytest.mark.parametrize("dead", [1, 2, 3])
def test_free_running_draws_on_the_period_end_match_the_scalar_scan(cap, dead):
    scene, b = _EDGE_SCENE, _EDGE_SCENE.num_bins
    prefix, total = scene.scan_prefix_list, scene.total_rate
    draws = np.random.default_rng(10 * cap + dead).choice(_EDGE_DRAWS, 300).tolist()
    expect, ready, on_the_end = [], 0, 0
    for draw in draws:  # the scalar scan, cycle by cycle
        on_the_end += prefix[ready % b] + draw == total
        offset = _scan_offset(scene, ready % b, draw, cap)
        expect.append(-1 - ready % b if offset < 0 else ready % b + offset)
        ready += cap * b if offset < 0 else offset + dead
    assert on_the_end >= 10 and 0.0 in draws
    assert spadsim._free_run_detections(scene, draws, 0, dead, cap, sys.maxsize) == expect


@pytest.mark.parametrize("cap", [1, 3])
def test_triggered_blocks_with_draws_on_the_period_end_match_the_scalar_scan(cap):
    scene, b = _EDGE_SCENE, _EDGE_SCENE.num_bins
    prefix, total = scene.scan_prefix_list, scene.total_rate
    pairs = [(gate, draw) for gate in range(b) for draw in _EDGE_DRAWS]
    blocks = {
        "empty": [],
        "in period": [(g, d) for g, d in pairs if prefix[g] + d < total],
        "in period or on the end": [(g, d) for g, d in pairs if prefix[g] + d <= total],
        "in period, on the end and wrapping": pairs,
    }
    for name, block in blocks.items():
        gates = np.array([g for g, _ in block], dtype=np.int64)
        draws = np.array([d for _, d in block], dtype=float)
        offsets, censored = spadsim._locate_block(scene, gates, draws, cap)
        expect = [_scan_offset(scene, g, d, cap) for g, d in block]
        assert censored.tolist() == [o < 0 for o in expect], name
        assert np.where(censored, -1, offsets).tolist() == expect, name


# Every scan ends by the last bin, whose rate of 60 no unit exponential
# passes in practice: every draw lands in the period it armed in.
_IN_PERIOD_SCENE = sg.SceneTransient(num_bins=500, ambient_flux=0.5, peaks=((499, 60.0),))


def test_in_period_draws_take_no_divmod(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return divmod(*args)

    monkeypatch.setattr(spadsim, "divmod", counted, raising=False)  # shadows the builtin in spadsim
    rec = sg.run_acquisition(_IN_PERIOD_SCENE, _SWEEP_SPAD, sg.FreeRunningPolicy(), budget_bins=5_000_000, seed=5)
    assert len(rec) > spadsim.BLOCK_CYCLES and calls == []
    # At ambient 0.5 a few scans cross the period's end, and only those divide.
    rec = sg.run_acquisition(_SWEEP_SCENES["ambient 0.5"], _SWEEP_SPAD, sg.FreeRunningPolicy(),
                             budget_bins=5_000_000, seed=5)
    crossed = ~rec.detected | (rec.elapsed_periods > 0) | (rec.timestamps < rec.gates)
    assert 0 < len(calls) == crossed.sum()


@pytest.mark.parametrize("kind", ["fixed", "uniform"])
def test_triggered_blocks_in_period_take_no_np_divmod(monkeypatch, kind):
    calls = []
    np_divmod = np.divmod

    def counted(*args):
        calls.append(len(args[0]))
        return np_divmod(*args)

    monkeypatch.setattr(spadsim.np, "divmod", counted)
    rec = sg.run_acquisition(_IN_PERIOD_SCENE, _SWEEP_SPAD, _OPEN_LOOP[kind](500, 270), budget_bins=5_000_000, seed=5)
    assert len(rec) > spadsim.BLOCK_CYCLES and calls == []
    # At ambient 0.02 every block holds scans that cross the period's end.
    rec = sg.run_acquisition(_SWEEP_SCENES["ambient 0.02"], _SWEEP_SPAD, _OPEN_LOOP[kind](500, 270),
                             budget_bins=5_000_000, seed=5)
    assert sum(calls) >= len(rec) > spadsim.BLOCK_CYCLES


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    b=st.integers(1, 60),
    ambient=st.one_of(st.just(0.0), st.just(1e-310), st.floats(0.5, 3.0), st.floats(0.0, 0.2)),
    peak=st.one_of(st.none(), st.tuples(st.integers(0, 59), st.floats(0.0, 5.0))),
    dead_bins=st.one_of(st.just(0), st.integers(0, 120)),
    cap=st.one_of(st.just(1), st.integers(1, 16)),
    budget=st.one_of(st.none(), st.integers(0, 8000)),
    max_cycles=st.one_of(st.none(), st.integers(0, 400)),
    calibration=st.one_of(st.none(), st.integers(1, 40)),
    exposure=st.one_of(st.none(), st.tuples(st.floats(0.05, 0.9), st.sampled_from(["termination", "entropy"]),
                                            st.one_of(st.none(), st.integers(0, 60)))),
    seed=st.integers(0, 2**16),
)
def test_adaptive_blocks_match_the_per_cycle_reference(
        b, ambient, peak, dead_bins, cap, budget, max_cycles, calibration, exposure, seed):
    # Adaptive acquisitions, background known (no calibration) or estimated
    # from calibration cycles, with exposure control (a block taken cycle by
    # cycle, and cut at the stop) and without (a block folded at once),
    # against the reference's one sample_cycle per cycle: the records, the
    # generator's state, cycle_index and the final mass agree to the bit.
    if budget is None and max_cycles is None:
        max_cycles = 300
    peaks = () if peak is None else ((peak[0] % b, peak[1]),)
    scene = sg.SceneTransient(num_bins=b, ambient_flux=ambient, peaks=peaks)
    spad = sg.SpadConfig(num_bins=b, bin_resolution_ps=100.0, dead_time_ns=dead_bins / 10, max_active_periods=cap)
    control = None if exposure is None else sg.ExposureControl(*exposure)
    known = None if calibration is not None else (ambient if ambient > 0 else 0.01)
    _assert_adaptive_matches_the_reference(scene, spad, budget, max_cycles, seed, bkg_flux=known,
                                           calibration_cycles=calibration or 0, exposure=control)
