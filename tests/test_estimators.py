"""Pile-up correction, depth posteriors, background and sub-bin estimation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spadgate as sg
from conftest import brute_detection_likelihood, make_record
from spadgate.core import law_statistics
from spadgate.estimators import _fold


# ---------------------------------------------------------------------------
# Log-space primitives


def test_log1mexp_scalar_and_vector():
    # convention: log(1 - exp(-x)) for x >= 0 (trigger log-probability of a rate)
    x = 0.1
    assert isinstance(sg.log1mexp(x), float)
    assert sg.log1mexp(x) == pytest.approx(math.log(0.09516258196404048), rel=1e-14)
    xs = np.array([1e-12, 0.5, 0.69, 0.7, 5.0, 50.0])
    assert np.allclose(sg.log1mexp(xs), np.log(-np.expm1(-xs)), rtol=1e-13)


def test_log1mexp_boundary():
    assert sg.log1mexp(0.0) == float("-inf")
    assert sg.log1mexp(-1.0) == float("-inf")
    assert sg.log1mexp(1e-300) == pytest.approx(math.log(1e-300), rel=1e-12)
    assert sg.log1mexp(800.0) == pytest.approx(-math.exp(-800.0), rel=1e-12)


def test_logsumexp_matches_naive():
    a = np.array([-1.0, -2.0, -3.0, -700.0])
    assert sg.logsumexp(a) == pytest.approx(math.log(sum(math.exp(v) for v in a[:3])), rel=1e-13)
    assert sg.logsumexp(np.array([-np.inf, -np.inf])) == float("-inf")


def test_logsumexp_axis():
    a = np.log(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert np.allclose(sg.logsumexp(a, axis=0), np.log([4.0, 6.0]), rtol=1e-13)
    assert np.allclose(sg.logsumexp(a, axis=1), np.log([3.0, 7.0]), rtol=1e-13)


# ---------------------------------------------------------------------------
# Coates estimation


def test_coates_frozen_value():
    hist = sg.DetectedHistogram(counts=np.array([1, 0]), denominators=np.array([2, 2]))
    est = sg.coates_transient(hist)
    # D=2, N=1: ln(2/(2-1)) = ln 2
    assert est.rates[0] == pytest.approx(0.6931471805599453, rel=1e-14)
    assert est.rates[1] == 0.0
    assert not est.saturated.any()
    assert not est.degenerate


def test_coates_never_armed_and_saturated():
    hist = sg.DetectedHistogram(counts=np.array([0, 3, 5]), denominators=np.array([0, 10, 5]))
    est = sg.coates_transient(hist)
    assert est.rates[0] == 0.0
    assert est.rates[1] == pytest.approx(math.log(10 / 7), rel=1e-12)
    # saturated bin: clamped to half an undetected pass, flagged
    assert est.rates[2] == pytest.approx(math.log(5 / 0.5), rel=1e-12)
    assert list(est.saturated) == [False, False, True]


def test_coates_inverts_detection_probability():
    # N/D estimates the per-pass trigger probability 1-exp(-r); Coates
    # inverts it, so feeding the exact expectation recovers the rate.
    r = 0.37
    d = 10**9
    n = round(d * -math.expm1(-r))
    hist = sg.DetectedHistogram(counts=np.array([n]), denominators=np.array([d]))
    assert sg.coates_transient(hist).rates[0] == pytest.approx(r, rel=1e-6)


def test_coates_depth_argmax():
    est = sg.TransientEstimate(rates=np.array([0.1, 0.9, 0.9, 0.2]), saturated=np.zeros(4, bool))
    assert sg.coates_depth(est) == 1  # ties break low
    empty = sg.coates_transient(sg.DetectedHistogram(counts=np.zeros(4, int), denominators=np.zeros(4, int)))
    assert empty.degenerate
    assert sg.coates_depth(empty) == 0


def test_default_flux_grid_shape():
    grid = sg.default_flux_grid(0.2)
    assert grid.shape == (17,)
    assert grid[0] == 0.0
    assert grid[1] == pytest.approx(0.02, rel=1e-12)
    assert grid[-1] == pytest.approx(20.0, rel=1e-12)
    assert np.all(np.diff(grid) > 0)
    with pytest.raises(ValueError):
        sg.default_flux_grid(0.0)


# ---------------------------------------------------------------------------
# Posterior updates


def test_posterior_init_uniform_and_prior():
    post = sg.posterior_init(5)
    assert not post.joint
    assert np.allclose(np.exp(post.log_mass), 0.2, rtol=1e-14)
    prior = np.array([0.5, 0.5, 0.0, 0.0])
    post2 = sg.posterior_init(4, prior=prior)
    mass = np.exp(post2.log_mass)
    assert mass[0] == pytest.approx(0.5, rel=1e-14)
    assert mass[2] == 0.0
    with pytest.raises(ValueError):
        sg.posterior_init(4, prior=np.zeros(4))
    with pytest.raises(ValueError):
        sg.posterior_init(4, prior=np.ones(3))


def test_posterior_init_joint_shape():
    post = sg.posterior_init(6, flux_grid=np.array([0.0, 0.5, 1.0]))
    assert post.joint
    assert post.log_mass.shape == (6, 3)
    assert sg.logsumexp(post.log_mass) == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(np.exp(post.depth_log_marginal()), 1 / 6, rtol=1e-12)
    assert np.allclose(np.exp(post.flux_log_marginal()), 1 / 3, rtol=1e-12)


def test_posterior_update_frozen_ratio():
    # One detection at the armed bin, two depth hypotheses: the armed-bin
    # hypothesis has trigger rate bkg+signal, the other just bkg.
    post = sg.posterior_init(2)
    sg.posterior_update(post, 0, 0, 0.1, signal_flux=1.0)
    mass = np.exp(post.log_mass)
    assert mass[0] / mass[1] == pytest.approx(7.010412102458628, rel=1e-12)


def _brute_posterior(num_bins, flux_grid, bkg, outcomes, prior=None):
    """Exhaustive reference: per-hypothesis folded likelihood products."""
    prior = np.full(num_bins, 1.0 / num_bins) if prior is None else prior / prior.sum()
    mass = np.zeros((num_bins, len(flux_grid)))
    for d in range(num_bins):
        for k, phi in enumerate(flux_grid):
            rates = np.full(num_bins, bkg)
            rates[d] += phi
            q = math.exp(-rates.sum())
            p = prior[d] / len(flux_grid)
            for gate, ts in outcomes:
                if ts is None:
                    p *= q
                else:
                    t = gate + (ts - gate) % num_bins
                    p *= brute_detection_likelihood(rates, t, gate) / (1.0 - q)
            mass[d, k] = p
    return mass / mass.sum()


def test_posterior_update_matches_brute_enumeration():
    num_bins, bkg = 6, 0.15
    grid = np.array([0.0, 0.4, 1.1])
    outcomes = [(0, 3), (2, None), (4, 4), (5, 0), (1, None)]
    post = sg.posterior_init(num_bins, flux_grid=grid)
    for gate, ts in outcomes:
        sg.posterior_update(post, ts, gate, bkg)
    expected = _brute_posterior(num_bins, grid, bkg, outcomes)
    assert np.allclose(np.exp(post.log_mass), expected, atol=1e-12)


def test_posterior_update_with_informative_prior():
    num_bins, bkg = 5, 0.2
    grid = np.array([0.3, 0.9])
    prior = np.array([0.1, 0.4, 0.3, 0.15, 0.05])
    outcomes = [(1, 2), (3, 3)]
    post = sg.posterior_init(num_bins, prior=prior, flux_grid=grid)
    for gate, ts in outcomes:
        sg.posterior_update(post, ts, gate, bkg)
    expected = _brute_posterior(num_bins, grid, bkg, outcomes, prior=prior)
    assert np.allclose(np.exp(post.log_mass), expected, atol=1e-12)


def test_depth_only_posterior_equals_single_flux_joint():
    num_bins, bkg, phi = 7, 0.1, 0.6
    outcomes = [(0, 4), (3, None), (5, 2)]
    depth_only = sg.posterior_init(num_bins)
    joint = sg.posterior_init(num_bins, flux_grid=np.array([phi]))
    for gate, ts in outcomes:
        sg.posterior_update(depth_only, ts, gate, bkg, signal_flux=phi)
        sg.posterior_update(joint, ts, gate, bkg)
    assert np.allclose(depth_only.log_mass, joint.log_mass[:, 0], atol=1e-12)


def test_censored_update_preserves_depth_marginal_from_uniform():
    # From a factorized state the censored likelihood is depth-independent,
    # so only the flux marginal moves.
    post = sg.posterior_init(8, flux_grid=np.array([0.0, 0.5, 2.0]))
    before_depth = np.exp(post.depth_log_marginal())
    before_flux = np.exp(post.flux_log_marginal())
    sg.posterior_update(post, None, 3, 0.1)
    after_depth = np.exp(post.depth_log_marginal())
    after_flux = np.exp(post.flux_log_marginal())
    assert np.allclose(after_depth, before_depth, atol=1e-14)
    assert after_flux[0] > before_flux[0]  # no detection favors weaker signal
    assert after_flux[2] < before_flux[2]


def test_zero_flux_slice_stays_flat():
    # The signal-free hypothesis has no depth dependence; its slice of the
    # joint must stay exactly flat through arbitrary updates.
    post = sg.posterior_init(6, flux_grid=np.array([0.0, 0.7]))
    for gate, ts in [(0, 2), (3, None), (4, 4), (1, 0)]:
        sg.posterior_update(post, ts, gate, 0.12)
    slice0 = post.log_mass[:, 0]
    assert np.ptp(slice0) < 1e-12


def test_impossible_observation_degrades_not_crashes():
    post = sg.posterior_init(4)
    before = post.log_mass.copy()
    sg.posterior_update(post, 2, 0, 0.0, signal_flux=0.0)  # zero rate everywhere: p=0
    assert post.degraded_cycles == 1
    assert np.array_equal(post.log_mass, before)


def test_posterior_from_record_matches_brute(rng):
    num_bins, bkg = 8, 0.08
    grid = np.array([0.0, 0.3, 1.0])
    scene = sg.SceneTransient(num_bins=num_bins, ambient_flux=bkg, peaks=((5, 0.3),))
    spad = sg.SpadConfig(bin_resolution_ps=100.0, rep_rate_hz=20e6, num_bins=num_bins, dead_time_ns=1.0)
    uniform = sg.run_acquisition(scene, spad, sg.UniformGatePolicy(num_bins), max_cycles=50, seed=123)
    # free running arms wherever the dead time ends, so gates are irregular
    # and many cycles scan past a period boundary
    free = sg.run_acquisition(scene, spad, sg.FreeRunningPolicy(), max_cycles=50, seed=124)
    assert np.any(free.elapsed_periods > 0)
    for record in (uniform, free):
        post = sg.posterior_from_record(record, bkg, flux_grid=grid)
        outcomes = [
            (int(record.gates[i]), int(record.timestamps[i]) if record.detected[i] else None)
            for i in range(len(record))
        ]
        expected = _brute_posterior(num_bins, grid, bkg, outcomes)
        assert np.allclose(np.exp(post.log_mass), expected, atol=1e-10)
        folded = sg.posterior_init(num_bins, flux_grid=grid)
        for gate, ts in outcomes:
            sg.posterior_update(folded, ts, gate, bkg)
        assert np.allclose(post.log_mass, folded.log_mass, rtol=0.0, atol=1e-10)


def test_posterior_from_record_is_the_sequence_likelihood_per_cell():
    # Both evaluations of the law must agree cell by cell: the batch
    # posterior's log mass is log prior + sequence_log_likelihood under the
    # single-peak scene of that cell, up to one constant.
    num_bins, bkg = 6, 0.15
    grid = np.array([0.0, 0.4, 1.1])
    prior = np.array([0.1, 0.3, 0.2, 0.2, 0.15, 0.05])
    scene = sg.SceneTransient(num_bins=num_bins, ambient_flux=bkg, peaks=((2, 0.5),))
    spad = sg.SpadConfig(num_bins=num_bins, dead_time_ns=0.3, max_active_periods=2)
    simulated = sg.run_acquisition(scene, spad, sg.FreeRunningPolicy(), max_cycles=60, seed=9)
    hand = make_record(num_bins, [(0, 4, 2), (3, None, 2), (5, 1, 1), (2, 2), (4, None, 2)])
    for record in (simulated, hand):
        assert np.any(record.elapsed_periods[record.detected] > 0)
        assert not record.detected.all()
        post = sg.posterior_from_record(record, bkg, prior=prior, flux_grid=grid)
        expected = np.array([
            [
                math.log(prior[d] / prior.sum())
                + sg.sequence_log_likelihood(
                    sg.SceneTransient(num_bins=num_bins, ambient_flux=bkg, peaks=((d, f),)), record
                )
                for f in grid
            ]
            for d in range(num_bins)
        ])
        offset = post.log_mass - expected
        assert np.ptp(offset) < 1e-10


def test_impossible_record_keeps_prior_and_counts_every_cycle():
    # With no background only the peak bin can fire, so detections on two
    # different bins rule out every depth: the record is skipped as a whole.
    record = make_record(4, [(0, 1), (0, 2), (3, None)])
    post = sg.posterior_from_record(record, 0.0, signal_flux=0.5)
    assert post.degraded_cycles == 3
    assert np.array_equal(post.log_mass, sg.posterior_init(4).log_mass)


@st.composite
def _one_cycle_cases(draw):
    """A posterior state and two cycles to fold into it."""
    b = draw(st.one_of(st.integers(1, 3), st.integers(1, 600)))
    bkg = draw(st.floats(1e-6, 2.0))
    grid = signal = None
    if draw(st.booleans()):
        grid = np.array(draw(st.lists(st.floats(0.0, 50.0), min_size=1, max_size=20)))
    else:
        signal = draw(st.floats(0.0, 50.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    prior = rng.random(b) + 0.01
    if draw(st.booleans()):
        prior[rng.random(b) < 0.5] = 0.0
        prior[rng.integers(b)] = 1.0
    # a folded history, so the state is not a product of prior and flux
    history = make_record(b, [(int(g), None if c else int(t)) for g, t, c in
                              zip(rng.integers(b, size=5), rng.integers(b, size=5), rng.random(5) < 0.2)])
    cycles = []
    for _ in range(2):
        gate = draw(st.integers(0, b - 1))
        kind = draw(st.sampled_from(["censored", "at gate", "wrapped", "any"]))
        if kind == "censored":
            t = None
        elif kind == "at gate":
            t = gate
        elif kind == "wrapped" and gate > 0:
            t = draw(st.integers(0, gate - 1))
        else:
            t = draw(st.integers(0, b - 1))
        cycles.append((gate, t))
    return b, bkg, grid, signal, prior, history, cycles


@settings(max_examples=300, deadline=None)
@given(_one_cycle_cases())
def test_posterior_update_is_the_one_cycle_fold_to_the_bit(case):
    b, bkg, grid, signal, prior, history, cycles = case
    post = sg.posterior_from_record(history, bkg, prior=prior, flux_grid=grid, signal_flux=signal)
    ref = post.copy()
    for gate, t in cycles:  # the second cycle reads the cached rows
        sg.posterior_update(post, t, gate, bkg, signal)
        _fold(ref, law_statistics(b, [gate], [-1 if t is None else t], [t is not None]), bkg, signal)
        assert np.array_equal(post.log_mass, ref.log_mass)
        assert post.degraded_cycles == ref.degraded_cycles


def test_posterior_update_validation():
    post = sg.posterior_init(4)
    with pytest.raises(ValueError):
        sg.posterior_update(post, 4, 0, 0.1, signal_flux=0.5)
    with pytest.raises(ValueError):
        sg.posterior_update(post, 1, 4, 0.1, signal_flux=0.5)
    with pytest.raises(ValueError):
        sg.posterior_update(post, 1, 0, 0.1)  # depth-only needs signal_flux
    joint = sg.posterior_init(4, flux_grid=np.array([0.5]))
    with pytest.raises(ValueError):
        sg.posterior_update(joint, 1, 0, 0.1, signal_flux=0.5)


# ---------------------------------------------------------------------------
# Flux-major layout and the depth marginal built by the normalization


def test_joint_mass_stays_flux_major():
    grid = np.array([0.0, 0.3, 1.0])
    post = sg.posterior_init(7, flux_grid=grid)
    assert post.log_mass.flags.f_contiguous
    sg.posterior_update(post, 3, 1, 0.1)  # detected
    assert post.log_mass.flags.f_contiguous
    sg.posterior_update(post, None, 5, 0.1)  # censored
    assert post.log_mass.flags.f_contiguous
    record = make_record(7, [(0, 2), (4, None), (6, 1)])
    assert sg.posterior_from_record(record, 0.1, flux_grid=grid).log_mass.flags.f_contiguous
    twin = post.copy()
    assert twin.log_mass.flags.f_contiguous
    sg.posterior_update(twin, 0, 6, 0.1)
    assert twin.log_mass.flags.f_contiguous
    assert not twin.log_mass.flags.c_contiguous  # (7, 3): the flags tell the layouts apart


@st.composite
def _marginal_cases(draw):
    b = draw(st.integers(1, 600))
    bkg = draw(st.floats(1e-6, 3.0))
    grid = np.array(draw(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=20)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Prior rows spread over up to 800 nats, so some sit below float range
    # next to the peak, and a share of rows with no mass at all.
    prior = np.exp(-rng.uniform(0.0, draw(st.sampled_from([1.0, 700.0, 750.0, 800.0])), b))
    prior[rng.random(b) < draw(st.sampled_from([0.0, 0.3, 0.9]))] = 0.0
    prior[rng.integers(b)] = 1.0
    n = draw(st.integers(0, 40))
    history = make_record(b, [(int(g), None if c else int(t)) for g, t, c in
                              zip(rng.integers(b, size=n), rng.integers(b, size=n), rng.random(n) < 0.2)])
    cycles = [(int(g), None if c else int(t)) for g, t, c in
              zip(rng.integers(b, size=3), rng.integers(b, size=3), rng.random(3) < 0.2)]
    return b, bkg, grid, prior, history, cycles


def _assert_marginal_is_the_row_logsumexp(post):
    cached = post.depth_log_marginal()
    exact = sg.logsumexp(post.log_mass, axis=1)  # shifted row by row
    peak = post.log_mass.max()
    near = exact > peak - 700.0
    assert np.allclose(cached[near], exact[near], rtol=0.0, atol=1e-12)
    assert np.all(cached[exact == -np.inf] == -np.inf)  # zero-prior rows
    lost = cached == -np.inf
    assert np.all(post.log_mass[lost] < peak - 740.0)  # -inf only below float64 range


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_marginal_cases())
def test_cached_depth_marginal_matches_the_row_logsumexp(case):
    b, bkg, grid, prior, history, cycles = case
    post = sg.posterior_from_record(history, bkg, prior=prior, flux_grid=grid)
    _assert_marginal_is_the_row_logsumexp(post)
    for gate, t in cycles:
        sg.posterior_update(post, t, gate, bkg)
        assert post._marginal[0] is post.log_mass  # built by the update, not on demand
        _assert_marginal_is_the_row_logsumexp(post)


# ---------------------------------------------------------------------------
# Summaries


def test_map_depth_and_entropy():
    post = sg.posterior_init(500)
    assert sg.posterior_entropy(post) == pytest.approx(6.214608098422191, rel=1e-12)
    assert sg.map_depth(post) == 0  # uniform ties break low
    sharp = sg.posterior_init(4, prior=np.array([0.0, 0.0, 1.0, 0.0]))
    assert sg.map_depth(sharp) == 2
    assert sg.posterior_entropy(sharp) == pytest.approx(0.0, abs=1e-12)


def test_entropy_of_joint_uses_depth_marginal():
    post = sg.posterior_init(4, flux_grid=np.array([0.1, 1.0]))
    assert sg.posterior_entropy(post) == pytest.approx(math.log(4), rel=1e-12)


# ---------------------------------------------------------------------------
# Background estimation


def test_estimate_background_flat_scene():
    bkg = 0.05
    scene = sg.SceneTransient(num_bins=100, ambient_flux=bkg)
    spad = sg.SpadConfig(num_bins=100, dead_time_ns=10.0)
    record = sg.run_acquisition(scene, spad, sg.UniformGatePolicy(100), max_cycles=2000, seed=77)
    est = sg.estimate_background(record)
    assert not est.low_confidence
    assert est.value == pytest.approx(bkg, rel=0.15)


def test_estimate_background_uses_calibration_head():
    bkg = 0.05
    flat = sg.SceneTransient(num_bins=50, ambient_flux=bkg)
    spad = sg.SpadConfig(num_bins=50, dead_time_ns=5.0)
    cal = sg.run_acquisition(flat, spad, sg.UniformGatePolicy(50), max_cycles=1500, seed=3)
    # append a long censored tail: pure denominator mass that would drag a
    # whole-record estimate toward zero
    tail = make_record(50, [(0, None, 16)] * 3000)

    def with_marker(marker):
        merged = sg.AcquisitionRecord.concatenate([cal, tail])
        return sg.AcquisitionRecord(
            num_bins=50,
            gates=merged.gates,
            timestamps=merged.timestamps,
            detected=merged.detected,
            elapsed_periods=merged.elapsed_periods,
            cycle_durations=merged.cycle_durations,
            exposure_bins=merged.exposure_bins,
            calibration_cycles=marker,
        )

    est_head = sg.estimate_background(with_marker(len(cal)))
    assert est_head.value == pytest.approx(bkg, rel=0.2)
    assert est_head.detections >= 10
    est_whole = sg.estimate_background(with_marker(0))
    assert est_whole.value < 0.5 * bkg  # marker ignored: censored tail dilutes the rates


def test_estimate_background_fallback():
    est = sg.estimate_background(make_record(20, [(0, None)] * 5), fallback_flux=0.02)
    assert est.low_confidence
    assert est.value == 0.02
    assert est.detections == 0


# ---------------------------------------------------------------------------
# Sub-bin refinement


def test_dither_depth_frozen():
    est = sg.TransientEstimate(rates=np.array([0.1, 1.0, 2.0, 1.5, 0.1]), saturated=np.zeros(5, bool))
    assert sg.dither_depth(est, 2) == pytest.approx(2 + 0.20669505261142374, rel=1e-12)


def test_dither_depth_recovers_gaussian_center():
    # the fit is a parabola on log rate, so an exact Gaussian bump (log-
    # quadratic) with center 2.3 must be recovered exactly
    x = np.arange(5, dtype=float)
    rates = np.exp(1.0 - 0.5 * (x - 2.3) ** 2)
    est = sg.TransientEstimate(rates=rates, saturated=np.zeros(5, bool))
    assert sg.dither_depth(est, 2) == pytest.approx(2.3, abs=1e-12)
    assert sg.dither_depth(est, 2, window=5) == pytest.approx(2.3, abs=1e-9)


def test_dither_depth_symmetric_peak_stays_centered():
    est = sg.TransientEstimate(rates=np.array([0.2, 1.0, 0.2]), saturated=np.zeros(3, bool))
    assert sg.dither_depth(est, 1) == 1.0


def test_dither_depth_degenerate_and_clamped():
    flat = sg.TransientEstimate(rates=np.zeros(5), saturated=np.zeros(5, bool))
    assert sg.dither_depth(flat, 2) == 2.0
    # offset can never leave the fit window
    est = sg.TransientEstimate(rates=np.array([1.0, 1.0 + 1e-15, 1.0]), saturated=np.zeros(3, bool))
    assert abs(sg.dither_depth(est, 1) - 1.0) <= 1.0


def test_dither_depth_wraps_at_period_edges():
    # peak at bin 0: the window wraps around the period boundary
    rates = np.array([2.0, 1.5, 0.1, 0.1, 1.0])
    est = sg.TransientEstimate(rates=rates, saturated=np.zeros(5, bool))
    val = sg.dither_depth(est, 0)
    assert 0.0 <= val < 1.0  # pulled toward bin 1, never past the window


def test_dither_depth_window_validation():
    est = sg.TransientEstimate(rates=np.ones(5), saturated=np.zeros(5, bool))
    with pytest.raises(ValueError):
        sg.dither_depth(est, 2, window=2)
    with pytest.raises(ValueError):
        sg.dither_depth(est, 2, window=4)
