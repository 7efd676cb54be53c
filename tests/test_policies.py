"""Gating policies: termination metrics, calibration, Thompson sampling, reward."""

import hashlib
import math

import numpy as np
import pytest

import spadgate as sg
from spadgate import estimators, policies
from spadgate.core import law_statistics
from spadgate.estimators import _fold
from spadgate.spadsim import CycleOutcome


def _outcome(gate, ts=None, periods=0, duration=100):
    return CycleOutcome(
        gate=gate,
        timestamp=-1 if ts is None else ts,
        detected=ts is not None,
        elapsed_periods=periods,
        cycle_duration_bins=duration,
    )


# ---------------------------------------------------------------------------
# Termination metrics and exposure control


def test_termination_value_uniform_and_sharp():
    post = sg.posterior_init(4)
    assert sg.termination_value(post) == pytest.approx(0.75, rel=1e-12)
    assert sg.termination_value(post, "entropy") == pytest.approx(math.log(4), rel=1e-12)
    sharp = sg.posterior_init(4, prior=np.array([0.0, 1.0, 0.0, 0.0]))
    sharp_joint = sg.posterior_init(4, prior=np.array([0.0, 1.0, 0.0, 0.0]), flux_grid=np.array([0.5]))
    for point in (sharp, sharp_joint):
        for metric in ("termination", "entropy"):
            # +0.0 exactly: a -0.0 would print as "-0" in results.csv
            assert math.copysign(1.0, sg.termination_value(point, metric)) == 1.0
            assert sg.termination_value(point, metric) == 0.0
    with pytest.raises(ValueError):
        sg.termination_value(post, "wat")


def test_exposure_control_validation():
    with pytest.raises(ValueError):
        sg.ExposureControl(epsilon=0.0)
    with pytest.raises(ValueError):
        sg.ExposureControl(metric="nope")


def test_should_stop_respects_min_cycles():
    from spadgate.policies import should_stop

    control = sg.ExposureControl(epsilon=0.25)
    sharp = sg.posterior_init(4, prior=np.array([0.0, 1.0, 0.0, 0.0]))
    assert not should_stop(control, sharp, cycle_index=9, min_cycles=10)
    assert should_stop(control, sharp, cycle_index=10, min_cycles=10)
    flat = sg.posterior_init(4)
    assert not should_stop(control, flat, cycle_index=50, min_cycles=10)


# ---------------------------------------------------------------------------
# Non-adaptive policies


def test_fixed_gate_policy():
    pol = sg.FixedGatePolicy(gate=7, num_bins=10)
    rng = sg.stream_rng(0)
    assert [pol.next_gate(rng) for _ in range(3)] == [7, 7, 7]
    assert not pol.should_stop()
    with pytest.raises(ValueError):
        sg.FixedGatePolicy(gate=10, num_bins=10)


def test_uniform_gate_policy_cycles_every_bin():
    pol = sg.UniformGatePolicy(num_bins=4)
    rng = sg.stream_rng(0)
    seen = []
    for _ in range(6):
        g = pol.next_gate(rng)
        seen.append(g)
        pol.observe(_outcome(g, ts=g))
    assert seen == [0, 1, 2, 3, 0, 1]


def test_free_running_policy_returns_sentinel():
    pol = sg.FreeRunningPolicy()
    assert pol.next_gate(sg.stream_rng(0)) is sg.FREE_RUN


# ---------------------------------------------------------------------------
# Adaptive policy: calibration phase


def test_adaptive_requires_calibration_when_background_unknown():
    with pytest.raises(ValueError):
        sg.AdaptiveGatePolicy(num_bins=8)
    with pytest.raises(ValueError):
        sg.AdaptiveGatePolicy(num_bins=8, bkg_flux=0.0)
    sg.AdaptiveGatePolicy(num_bins=8, calibration_cycles=1)  # fine
    sg.AdaptiveGatePolicy(num_bins=8, bkg_flux=0.1)  # fine, no calibration needed


def test_adaptive_known_background_skips_calibration():
    pol = sg.AdaptiveGatePolicy(num_bins=8, bkg_flux=0.1)
    assert pol.posterior is not None
    assert pol.calibration_cycles == 0
    assert pol.bkg_flux == 0.1


def test_adaptive_calibration_gates_spread_evenly():
    pol = sg.AdaptiveGatePolicy(num_bins=100, calibration_cycles=5)
    rng = sg.stream_rng(1)
    gates = []
    for _ in range(5):
        g = pol.next_gate(rng)
        gates.append(g)
        pol.observe(_outcome(g))
    assert gates == [0, 20, 40, 60, 80]
    pol8 = sg.AdaptiveGatePolicy(num_bins=8, calibration_cycles=3)
    gates8 = []
    for _ in range(3):
        g = pol8.next_gate(rng)
        gates8.append(g)
        pol8.observe(_outcome(g))
    assert gates8 == [0, 2, 5]


def test_adaptive_finalizes_after_calibration_and_replays_buffer():
    num_bins, n_cal = 10, 4
    prior = np.full(num_bins, 0.1)
    pol = sg.AdaptiveGatePolicy(num_bins=num_bins, prior=prior, calibration_cycles=n_cal)
    rng = sg.stream_rng(2)
    timestamps = [3, None, 5, 0]
    gates = []
    for ts in timestamps:
        g = pol.next_gate(rng)  # calibration chooses the gate
        gates.append(g)
        pol.observe(_outcome(g, ts=ts))
    assert gates == [0, 2, 5, 7]
    assert pol.posterior is not None
    assert pol.bkg_flux is not None
    # replay must equal a batch posterior over the same outcomes
    import conftest

    record = conftest.make_record(num_bins, list(zip(gates, timestamps)))
    batch = sg.posterior_from_record(
        record, pol.bkg_flux, prior=prior, flux_grid=pol.posterior.flux_grid
    )
    assert np.allclose(pol.posterior.log_mass, batch.log_mass, atol=1e-12)


def test_adaptive_ensure_posterior_with_partial_buffer():
    pol = sg.AdaptiveGatePolicy(num_bins=8, calibration_cycles=10, background_fallback=0.03)
    rng = sg.stream_rng(3)
    for _ in range(2):
        g = pol.next_gate(rng)
        pol.observe(_outcome(g))
    assert pol.posterior is None
    pol.ensure_posterior()
    assert pol.posterior is not None
    # 2 censored cycles cannot clear the detection floor: fallback applies
    assert pol.background_estimate.low_confidence
    assert pol.bkg_flux == 0.03


# ---------------------------------------------------------------------------
# Adaptive policy: Thompson sampling


def _sharpen(pol, depth):
    mass = np.full(pol.posterior.log_mass.shape, -np.inf)
    mass[depth] = 0.0
    if pol.posterior.joint:
        mass[depth, :] = -math.log(mass.shape[1])
    pol.posterior.log_mass = mass


def test_thompson_gate_tracks_sampled_depth():
    pol = sg.AdaptiveGatePolicy(num_bins=12, bkg_flux=0.1)
    _sharpen(pol, 9)
    rng = sg.stream_rng(4)
    assert pol.next_gate(rng) == 9
    assert pol.last_sampled_depth == 9
    offset_pol = sg.AdaptiveGatePolicy(num_bins=12, bkg_flux=0.1, gate_offset=3)
    _sharpen(offset_pol, 2)
    assert offset_pol.next_gate(rng) == (2 - 3) % 12


def test_sample_depth_consumes_exactly_one_uniform():
    pol = sg.AdaptiveGatePolicy(num_bins=16, bkg_flux=0.1)
    a = sg.stream_rng(5)
    b = sg.stream_rng(5)
    pol.sample_depth(a)
    b.random()
    assert a.random() == b.random()


def test_sample_depth_uniform_posterior_chi_squared():
    # 100k draws over 100 equiprobable bins; chi^2 at the 0.1% point of
    # the chi^2(99) distribution
    num_bins, draws = 100, 100_000
    pol = sg.AdaptiveGatePolicy(num_bins=num_bins, bkg_flux=0.1)
    rng = sg.stream_rng(6)
    samples = np.array([pol.sample_depth(rng) for _ in range(draws)])
    counts = np.bincount(samples, minlength=num_bins)
    expected = draws / num_bins
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 148.23035916510173


def test_sample_depth_respects_posterior_mass():
    pol = sg.AdaptiveGatePolicy(num_bins=4, bkg_flux=0.1, prior=np.array([0.7, 0.3, 0.0, 0.0]))
    rng = sg.stream_rng(7)
    samples = np.array([pol.sample_depth(rng) for _ in range(20_000)])
    freq = np.bincount(samples, minlength=4) / samples.size
    assert freq[0] == pytest.approx(0.7, abs=0.02)
    assert freq[1] == pytest.approx(0.3, abs=0.02)
    assert freq[2] == 0.0 and freq[3] == 0.0


def test_adaptive_exposure_stop():
    control = sg.ExposureControl(epsilon=0.25, min_cycles=6)
    pol = sg.AdaptiveGatePolicy(num_bins=8, bkg_flux=0.1, exposure=control)
    _sharpen(pol, 3)
    assert not pol.should_stop()  # cycle_index still below min_cycles
    pol.cycle_index = 6
    assert pol.should_stop()
    pol.exposure = None
    assert not pol.should_stop()


def test_adaptive_min_cycles_default_covers_calibration():
    pol = sg.AdaptiveGatePolicy(num_bins=8, calibration_cycles=20)
    assert pol.min_cycles == 30
    pol2 = sg.AdaptiveGatePolicy(
        num_bins=8, bkg_flux=0.1, exposure=sg.ExposureControl(min_cycles=3)
    )
    assert pol2.min_cycles == 3


# ---------------------------------------------------------------------------
# Reward and the optimal gate


def test_reward_closed_matches_brute_small():
    for b, bkg, phi in [(10, 0.05, 0.5), (10, 0.3, 1.2)]:
        for d in range(b):
            for g in range(b):
                closed = sg.reward(d, g, b, bkg, phi, method="closed")
                brute = sg.reward(d, g, b, bkg, phi, method="brute")
                assert closed == pytest.approx(brute, abs=1e-12)


def test_reward_is_negative_expected_loss():
    b, bkg, phi = 6, 0.1, 0.8
    d, g = 4, 1
    scene = sg.SceneTransient(num_bins=b, ambient_flux=bkg, peaks=((d, phi),))
    hit = sg.detection_likelihood(scene, g + (d - g) % b, g)
    assert sg.reward(d, g, b, bkg, phi) == pytest.approx(-(1.0 - hit), rel=1e-12)


def test_optimal_gate_is_sampled_depth():
    b, bkg, phi = 10, 0.08, 0.6
    for d in range(b):
        rewards = [sg.reward(d, g, b, bkg, phi, method="brute") for g in range(b)]
        best = int(np.argmax(rewards))
        assert best == d
        ordered = sorted(rewards)
        assert ordered[-1] > ordered[-2]  # strictly unique peak


def test_reward_validation():
    with pytest.raises(ValueError):
        sg.reward(10, 0, 10, 0.1, 0.5)
    with pytest.raises(ValueError):
        sg.reward(0, 10, 10, 0.1, 0.5)
    with pytest.raises(ValueError):
        sg.reward(0, 0, 10, 0.1, 0.5, method="guess")


# ---------------------------------------------------------------------------
# The per-cycle fast path: one-cycle rows and the cached depth marginal


def _general_update(post, timestamp, gate, bkg_flux, signal_flux=None):
    """posterior_update written as the general fold of one-cycle statistics."""
    detected = timestamp is not None
    stats = law_statistics(post.num_bins, [gate], [timestamp if detected else -1], [detected])
    return _fold(post, stats, bkg_flux, signal_flux)


def test_thompson_draws_match_the_general_fold(monkeypatch):
    num_bins = 100
    scene = sg.SceneTransient(num_bins=num_bins, ambient_flux=0.01, peaks=((60, 0.02),))
    spad = sg.SpadConfig(rep_rate_hz=100e6, num_bins=num_bins, dead_time_ns=8.1)

    def acquire():
        pol = sg.AdaptiveGatePolicy(num_bins=num_bins, calibration_cycles=20,
                                    exposure=sg.ExposureControl(epsilon=0.25))
        return sg.run_acquisition(scene, spad, pol, max_cycles=3000, seed=11), pol.posterior

    fast, fast_post = acquire()
    monkeypatch.setattr(policies, "posterior_update", _general_update)
    general, general_post = acquire()
    assert 20 < len(fast) < 3000  # Thompson cycles ran, and the stop rule ended the run
    assert np.array_equal(fast.gates, general.gates)
    assert np.array_equal(fast.timestamps, general.timestamps)
    assert fast_post.log_mass.tobytes() == general_post.log_mass.tobytes()


def test_depth_marginal_follows_log_mass_reassignment():
    post = sg.posterior_init(5, flux_grid=np.array([0.2, 1.0]))
    first = post.depth_log_marginal()
    assert post.depth_log_marginal() is first
    with pytest.raises(ValueError):
        first[0] = 0.0  # read-only: the cache cannot be edited through it
    mass = np.full((5, 2), -np.inf)
    mass[3] = -math.log(2)
    post.log_mass = mass
    assert sg.map_depth(post) == 3
    assert sg.termination_value(post) == 0.0
    sg.posterior_update(post, 1, 0, 0.1)
    assert np.array_equal(post.depth_log_marginal(), sg.logsumexp(post.log_mass, axis=1))


def test_copy_does_not_serve_a_stale_marginal():
    post = sg.posterior_init(6, flux_grid=np.array([0.0, 0.5]))
    sg.posterior_update(post, 2, 0, 0.1)
    before = post.depth_log_marginal().copy()
    twin = post.copy()
    sg.posterior_update(twin, 4, 4, 0.1)
    assert np.array_equal(twin.depth_log_marginal(), sg.logsumexp(twin.log_mass, axis=1))
    assert not np.array_equal(twin.depth_log_marginal(), before)
    assert np.array_equal(post.depth_log_marginal(), before)


class _JointExpCounter:
    """Stands in for numpy in ``estimators``; counts ``exp`` passes over 2-d arrays."""

    def __init__(self):
        self.passes = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, a, *args, **kwargs):
        self.passes += np.ndim(a) == 2
        return np.exp(a, *args, **kwargs)


def test_one_controlled_cycle_builds_the_depth_marginal_once(monkeypatch):
    # One pass over the joint per cycle: the normalization's exp gives the
    # depth marginal that the stop rule and the next Thompson draw read.
    axis1_calls, normalized = [], []
    real_logsumexp, real_normalize = estimators.logsumexp, estimators._normalize

    def counting_logsumexp(a, axis=None):
        if axis == 1:
            axis1_calls.append(a.shape)
        return real_logsumexp(a, axis)

    def counting_normalize(post, updated, cycles):
        normalized.append(updated.shape)
        return real_normalize(post, updated, cycles)

    numpy = _JointExpCounter()
    monkeypatch.setattr(estimators, "logsumexp", counting_logsumexp)
    monkeypatch.setattr(estimators, "_normalize", counting_normalize)
    monkeypatch.setattr(estimators, "np", numpy)
    num_bins = 20
    control = sg.ExposureControl(epsilon=1e-9, min_cycles=0)
    pol = sg.AdaptiveGatePolicy(num_bins=num_bins, bkg_flux=0.05, exposure=control)
    k = pol.posterior.flux_grid.size
    rng = sg.stream_rng(3)
    assert not pol.should_stop()  # the prior's marginal, built once per posterior
    for cycle in range(6):
        axis1_calls.clear()
        normalized.clear()
        numpy.passes = 0
        gate = pol.next_gate(rng)
        pol.observe(_outcome(gate, ts=None if cycle == 2 else (gate + cycle) % num_bins))
        assert not pol.should_stop()
        assert normalized == [(num_bins, k)]
        assert numpy.passes == 1
        assert axis1_calls == []


def _golden_acquisitions():
    """Three adaptive acquisitions and their final posteriors."""
    # B = 500: the paper-point scene, background estimated from calibration.
    spad = sg.SpadConfig(rep_rate_hz=20e6, num_bins=500, dead_time_ns=81.0)
    scene = sg.SceneTransient(num_bins=500, ambient_flux=0.02, peaks=((275, 0.04),))
    pol = sg.AdaptiveGatePolicy(num_bins=500, calibration_cycles=40)
    yield sg.run_acquisition(scene, spad, pol, budget_bins=500 * 2000, seed=5), pol.posterior
    # B = 100 with exposure control, known background.
    spad = sg.SpadConfig(rep_rate_hz=100e6, num_bins=100, dead_time_ns=8.1)
    scene = sg.SceneTransient(num_bins=100, ambient_flux=0.01, peaks=((60, 0.02),))
    pol = sg.AdaptiveGatePolicy(num_bins=100, bkg_flux=0.01, exposure=sg.ExposureControl(epsilon=0.25))
    yield sg.run_acquisition(scene, spad, pol, max_cycles=4000, seed=6), pol.posterior
    # B = 200 under a flatness prior centred off the true depth.
    spad = sg.SpadConfig(rep_rate_hz=50e6, num_bins=200, dead_time_ns=81.0)
    scene = sg.SceneTransient(num_bins=200, ambient_flux=0.02, peaks=((90, 0.06),))
    pol = sg.AdaptiveGatePolicy(num_bins=200, prior=sg.flatness_prior(200, prev_depth=80.0), calibration_cycles=10)
    yield sg.run_acquisition(scene, spad, pol, budget_bins=200 * 600, seed=7), pol.posterior


def test_adaptive_decisions_are_pinned():
    # Every gate (so every Thompson draw), every outcome, the stop and the
    # final MAP of three acquisitions, hashed.  A change to the per-cycle
    # path that flips one draw or moves one stop fails here, even if the
    # bits of the posterior are free to move at rounding level.
    digest = hashlib.sha256()
    summary = []
    for record, post in _golden_acquisitions():
        for column in (record.gates, record.timestamps, record.detected):
            digest.update(column.tobytes())
        digest.update(str(sg.map_depth(post)).encode())
        summary.append((len(record), sg.map_depth(post)))
    assert summary == [(930, 275), (329, 60), (121, 90)]
    assert digest.hexdigest() == "05a7aa9310b886a4b18b601192230762826fd98efd4e8771d248b5fd82263f56"
