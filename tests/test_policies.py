"""Gating policies: termination metrics, calibration, Thompson sampling, reward."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

import spadgate as sg
from conftest import (NumpyCounter, assert_marginal_is_the_stored_rows, brute_detection_likelihood, depth_log_marginal,
                      log_mass)
from spadgate import estimators, policies
from spadgate.core import law_statistics
from spadgate.estimators import _fold


def _block(gates, timestamps):
    """Record columns of a block (timestamp None if censored): no elapsed periods, 100 bins per cycle."""
    stamps = np.array([-1 if ts is None else ts for ts in timestamps], dtype=np.int64)
    return np.array(gates, dtype=np.int64), stamps, stamps >= 0, np.zeros_like(stamps), np.full_like(stamps, 100)


# ---------------------------------------------------------------------------
# Termination metrics and exposure control


def test_termination_value_uniform_and_sharp():
    post = sg.posterior_init(4, np.array([0.5]), 0.1)
    assert sg.termination_value(post) == pytest.approx(0.75, rel=1e-12)
    assert sg.termination_value(post, "entropy") == pytest.approx(math.log(4), rel=1e-12)
    sharp = sg.posterior_init(4, np.array([0.5]), 0.1, prior=np.array([0.0, 1.0, 0.0, 0.0]))
    sharp_joint = sg.posterior_init(4, np.array([0.0, 0.5]), 0.1, prior=np.array([0.0, 1.0, 0.0, 0.0]))
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
    with pytest.raises(ValueError):
        sg.ExposureControl(min_cycles=-4)  # as parse_config rejects exposure.min_cycles below 0
    sg.ExposureControl(min_cycles=0)  # fine: may stop before the first cycle


def test_should_stop_respects_min_cycles():
    def should_stop(control, post, cycle_index, min_cycles):
        pol = sg.AdaptiveGatePolicy(num_bins=4, bkg_flux=0.1, exposure=replace(control, min_cycles=min_cycles))
        pol.posterior, pol.cycle_index = post, cycle_index
        return pol.should_stop()

    for metric in ("termination", "entropy"):
        control = sg.ExposureControl(epsilon=0.25, metric=metric)
        sharp = sg.posterior_init(4, np.array([0.5]), 0.1, prior=np.array([0.0, 1.0, 0.0, 0.0]))
        assert not should_stop(control, sharp, cycle_index=9, min_cycles=10)
        assert should_stop(control, sharp, cycle_index=10, min_cycles=10)
        flat = sg.posterior_init(4, np.array([0.5]), 0.1)
        assert not should_stop(control, flat, cycle_index=50, min_cycles=10)


# ---------------------------------------------------------------------------
# Non-adaptive policies


def test_fixed_gate_policy():
    pol = sg.FixedGatePolicy(gate=7, num_bins=10)
    gates = pol.gates(0, 3)
    assert gates.dtype == np.int64 and gates.tolist() == [7, 7, 7]
    assert pol.gates(5, 0).size == 0
    with pytest.raises(ValueError):
        sg.FixedGatePolicy(gate=10, num_bins=10)


def test_uniform_gate_policy_cycles_every_bin():
    pol = sg.UniformGatePolicy(num_bins=4)
    gates = pol.gates(0, 6)
    assert gates.dtype == np.int64 and gates.tolist() == [0, 1, 2, 3, 0, 1]


def test_uniform_gates_start_at_any_cycle():
    # A block from cycle 11 on continues the schedule, whatever came before.
    pol = sg.UniformGatePolicy(num_bins=16)
    assert pol.gates(11, 7).tolist() == [11, 12, 13, 14, 15, 0, 1]
    assert np.array_equal(pol.gates(11, 7), pol.gates(0, 18)[11:])


def test_free_running_policy_returns_sentinel():
    pol = sg.FreeRunningPolicy()
    assert pol.gates(0, 3) is sg.FREE_RUN


# ---------------------------------------------------------------------------
# Adaptive policy: calibration phase


def test_adaptive_requires_calibration_when_background_unknown():
    with pytest.raises(ValueError):
        sg.AdaptiveGatePolicy(num_bins=8)
    with pytest.raises(ValueError):
        sg.AdaptiveGatePolicy(num_bins=8, bkg_flux=0.0)
    sg.AdaptiveGatePolicy(num_bins=8, calibration_cycles=1)  # fine
    sg.AdaptiveGatePolicy(num_bins=8, bkg_flux=0.1)  # fine, no calibration needed


def test_adaptive_rejects_a_negative_calibration():
    # Rejected here, not left to fail later inside run_acquisition.
    with pytest.raises(ValueError, match="calibration_cycles"):
        sg.AdaptiveGatePolicy(8, bkg_flux=0.1, calibration_cycles=-3)


def test_adaptive_known_background_skips_calibration():
    pol = sg.AdaptiveGatePolicy(num_bins=8, bkg_flux=0.1)
    assert pol.posterior is not None
    assert pol.calibration_cycles == 0
    assert pol.posterior.bkg_flux == 0.1


def test_adaptive_calibration_gates_spread_evenly():
    pol = sg.AdaptiveGatePolicy(num_bins=100, calibration_cycles=5)
    assert pol.gates(0, 4096, sg.stream_rng(1)).tolist() == [0, 20, 40, 60, 80]
    assert pol.gates(2, 2, sg.stream_rng(1)).tolist() == [40, 60]  # any stretch of it, capped at count
    pol8 = sg.AdaptiveGatePolicy(num_bins=8, calibration_cycles=3)
    assert pol8.gates(0, 4096, sg.stream_rng(1)).tolist() == [0, 2, 5]


def test_adaptive_finalizes_after_calibration_and_replays_buffer():
    num_bins, n_cal = 10, 4
    prior = np.full(num_bins, 0.1)
    pol = sg.AdaptiveGatePolicy(num_bins=num_bins, prior=prior, calibration_cycles=n_cal)
    rng = sg.stream_rng(2)
    timestamps = [3, None, 5, 0]
    gates = pol.gates(0, 4096, rng)  # calibration chooses the gates
    assert gates.tolist() == [0, 2, 5, 7]
    # two blocks of calibration: buffered until the count is reached, then folded
    assert pol.observe_block(*_block(gates[:1], timestamps[:1])) == 1
    assert pol.posterior is None
    assert pol.observe_block(*_block(gates[1:], timestamps[1:])) == 3
    assert pol.posterior is not None
    assert pol.posterior.bkg_flux is not None
    # replay must equal a batch posterior over the same outcomes
    import conftest

    record = conftest.make_record(num_bins, list(zip(gates.tolist(), timestamps)))
    batch = sg.posterior_from_record(
        record, pol.posterior.bkg_flux, prior=prior, flux_grid=pol.posterior.flux_grid
    )
    assert np.allclose(log_mass(pol.posterior), log_mass(batch), atol=1e-12)


def test_adaptive_ensure_posterior_with_partial_buffer():
    pol = sg.AdaptiveGatePolicy(num_bins=8, calibration_cycles=10, background_fallback=0.03)
    pol.observe_block(*_block(pol.gates(0, 2, sg.stream_rng(3)), [None, None]))
    assert pol.posterior is None
    pol.ensure_posterior()
    assert pol.posterior is not None
    # 2 censored cycles cannot clear the detection floor: fallback applies
    assert pol.background_estimate.low_confidence
    assert pol.posterior.bkg_flux == 0.03


# ---------------------------------------------------------------------------
# Adaptive policy: Thompson sampling


def _sharpen(pol, depth):
    mass = np.zeros(pol.posterior.mass.shape)
    mass[depth] = 1.0
    pol.posterior = sg.DepthPosterior(mass, pol.posterior.flux_grid, pol.posterior.bkg_flux)


def test_thompson_gate_tracks_sampled_depth():
    pol = sg.AdaptiveGatePolicy(num_bins=12, bkg_flux=0.1)
    _sharpen(pol, 9)
    rng = sg.stream_rng(4)
    assert pol.gates(0, 1, rng).tolist() == [9]
    assert pol.gates(40, 4096, rng).tolist() == [9] * 10  # 40 // FEEDBACK_DIVISOR draws
    assert pol.next_gate(rng) == 9  # the one-gate form the bench tracer times


def test_sample_depth_consumes_exactly_one_uniform():
    # One uniform per draw, so a block of n draws is n uniforms.
    pol = sg.AdaptiveGatePolicy(num_bins=16, bkg_flux=0.1)
    for count in (1, 5):
        a = sg.stream_rng(5)
        b = sg.stream_rng(5)
        depths = pol.sample_depth(a, count)
        assert depths.dtype == np.int64 and depths.shape == (count,)
        b.random(count)
        assert a.random() == b.random()


def test_sample_depth_uniform_posterior_chi_squared():
    # 100k draws over 100 equiprobable bins; chi^2 at the 0.1% point of
    # the chi^2(99) distribution
    num_bins, draws = 100, 100_000
    pol = sg.AdaptiveGatePolicy(num_bins=num_bins, bkg_flux=0.1)
    rng = sg.stream_rng(6)
    samples = pol.sample_depth(rng, draws)
    counts = np.bincount(samples, minlength=num_bins)
    expected = draws / num_bins
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 148.23035916510173


def test_sample_depth_respects_posterior_mass():
    pol = sg.AdaptiveGatePolicy(num_bins=4, bkg_flux=0.1, prior=np.array([0.7, 0.3, 0.0, 0.0]))
    rng = sg.stream_rng(7)
    samples = pol.sample_depth(rng, 20_000)
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
    # The reward's one detection probability against the per-bin oracle.
    for b, bkg, phi in [(10, 0.05, 0.5), (10, 0.3, 1.2)]:
        for d in range(b):
            rates = sg.SceneTransient(num_bins=b, ambient_flux=bkg, peaks=((d, phi),)).rates
            for g in range(b):
                hit = brute_detection_likelihood(rates, g + (d - g) % b, g)
                assert sg.reward(d, g, b, bkg, phi) == pytest.approx(-(1.0 - hit), abs=1e-12)


def test_reward_is_negative_expected_loss():
    # The loss is the probability of every other outcome of the period:
    # a detection on another bin, or none at all.
    b, bkg, phi = 6, 0.1, 0.8
    d, g = 4, 1
    scene = sg.SceneTransient(num_bins=b, ambient_flux=bkg, peaks=((d, phi),))
    misses = sum(brute_detection_likelihood(scene.rates, t, g) for t in range(g, g + b) if t % b != d)
    assert sg.reward(d, g, b, bkg, phi) == pytest.approx(-(misses + sg.no_detection_probability(scene)), rel=1e-12)


def test_optimal_gate_is_sampled_depth():
    b, bkg, phi = 10, 0.08, 0.6
    for d in range(b):
        rewards = [sg.reward(d, g, b, bkg, phi) for g in range(b)]
        best = int(np.argmax(rewards))
        assert best == d
        ordered = sorted(rewards)
        assert ordered[-1] > ordered[-2]  # strictly unique peak


def test_reward_validation():
    with pytest.raises(ValueError):
        sg.reward(10, 0, 10, 0.1, 0.5)
    with pytest.raises(ValueError):
        sg.reward(0, 10, 10, 0.1, 0.5)


# ---------------------------------------------------------------------------
# The per-cycle fast path: one-cycle rows and the cached depth marginal


def _general_update(post, timestamp, gate):
    """posterior_update written as the general fold of one-cycle statistics."""
    detected = timestamp is not None
    stats = law_statistics(post.num_bins, [gate], [timestamp if detected else -1], [detected])
    return _fold(post, stats)


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
    assert fast_post.mass.tobytes() == general_post.mass.tobytes()


def test_a_point_mass_posterior_is_read_by_every_readout():
    mass = np.zeros((5, 2))
    mass[3] = 0.5
    post = sg.DepthPosterior(mass, np.array([0.2, 1.0]), 0.1)
    assert sg.map_depth(post) == 3
    assert sg.termination_value(post) == 0.0
    assert_marginal_is_the_stored_rows(post)
    sg.posterior_update(post, 1, 0)
    assert_marginal_is_the_stored_rows(post)


def test_copy_does_not_serve_a_stale_marginal():
    post = sg.posterior_init(6, flux_grid=np.array([0.0, 0.5]), bkg_flux=0.1)
    sg.posterior_update(post, 2, 0)
    before = depth_log_marginal(post)
    twin = post.copy()
    assert twin.mass is not post.mass and twin.rows is not post.rows
    sg.posterior_update(twin, 4, 4)
    assert_marginal_is_the_stored_rows(twin)
    assert not np.array_equal(depth_log_marginal(twin), before)
    assert np.array_equal(depth_log_marginal(post), before)


def test_one_controlled_cycle_builds_the_depth_marginal_once(monkeypatch):
    # A controlled cycle (Thompson draw, stop check, update, stop check) touches the
    # joint mass only to multiply it whole, once, and to sum it once over
    # the flux axis: no exp or log over the joint.  The stop rule and the
    # next draw read the rows that sum installed.
    numpy = NumpyCounter()
    monkeypatch.setattr(estimators, "np", numpy)
    monkeypatch.setattr(policies, "np", numpy)
    num_bins = 20
    control = sg.ExposureControl(epsilon=1e-9, min_cycles=0)
    pol = sg.AdaptiveGatePolicy(num_bins=num_bins, bkg_flux=0.05, exposure=control)
    rng = sg.stream_rng(3)
    assert not pol.should_stop()  # the prior's rows, installed with it
    # (timestamp - gate) mod B: 0 has no window row, 19 no other row, None is censored
    whole = f"multiply {pol.posterior.mass.shape}"
    for cycle, shift in enumerate([3, 0, None, 19, 7, 1, None, 12]):
        numpy.calls.clear()
        gate = int(pol.gates(cycle, 1, rng)[0])
        mass = pol.posterior.mass
        assert pol.observe_block(*_block([gate], [None if shift is None else (gate + shift) % num_bins])) == 1
        assert numpy.calls == [whole, "flux-axis sum"], cycle
        assert pol.posterior.mass is mass  # multiplied in place


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
    # final MAP of three acquisitions, each hashed on its own.  A change to
    # either path that flips one draw or moves one stop fails here, even if
    # the bits of the posterior are free to move at rounding level.  The
    # second acquisition has a stop rule, so it folds its blocks cycle by
    # cycle and stops inside one; the other two fold each block at once.
    pinned = []
    for record, post in _golden_acquisitions():
        digest = hashlib.sha256()
        for column in (record.gates, record.timestamps, record.detected):
            digest.update(column.tobytes())
        digest.update(str(sg.map_depth(post)).encode())
        pinned.append((len(record), sg.map_depth(post), digest.hexdigest()[:16]))
    assert pinned == [(971, 275, "f36326a4cd52904f"), (1190, 60, "0af31e4c68905621"), (120, 90, "3e9b0be5db3a8e98")]


def _posterior_digest(post) -> str:
    digest = hashlib.sha256()
    for part in (post.mass, post.rows, np.float64(post.total)):
        digest.update(np.ascontiguousarray(part).tobytes())
    return digest.hexdigest()[:16]


def test_posterior_bits_are_pinned():
    # The bits of two final posteriors: a dark-scan-style adaptive row (B =
    # 200, known background, flatness prior, 30 us; one-cycle updates, then
    # block folds) and a free-running record's MAP posterior, folded in one
    # step.  A change to the arithmetic of either path fails here, even when
    # no draw or MAP moves.
    spad = sg.SpadConfig(rep_rate_hz=50e6, num_bins=200, dead_time_ns=81.0)
    scene = sg.SceneTransient(num_bins=200, ambient_flux=0.02, peaks=((90, 0.06),))
    pol = sg.AdaptiveGatePolicy(num_bins=200, prior=sg.flatness_prior(200, prev_depth=88.0), bkg_flux=0.02)
    rec = sg.run_acquisition(scene, spad, pol, budget_bins=200 * 1500, seed=8)
    assert (len(rec), sg.map_depth(pol.posterior), _posterior_digest(pol.posterior)) == (303, 90, "b17b30242dce9eb0")
    rec = sg.run_acquisition(_PAPER_SCENE, _PAPER_SPAD, sg.FreeRunningPolicy(), budget_bins=_PAPER_BUDGET, seed=9)
    bkg = sg.estimate_background(rec).value
    post = sg.posterior_from_record(rec, bkg, sg.default_flux_grid(bkg))
    assert (len(rec), sg.map_depth(post), _posterior_digest(post)) == (1162, 275, "ad08c3002abde54d")


# ---------------------------------------------------------------------------
# Periodic Thompson sampling: every adaptive row runs in blocks

_PAPER_SPAD = sg.SpadConfig(rep_rate_hz=20e6, num_bins=500, dead_time_ns=81.0)
_PAPER_SCENE = sg.SceneTransient(num_bins=500, ambient_flux=0.02, peaks=((275, 0.04),))
_PAPER_BUDGET = 500 * 2000  # 100 us of 100 ps bins


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_stop_rule_keeps_the_calibration_block(seed):
    # The calibration block draws no uniforms and reads no stop rule, so a
    # row with a stop rule (one that never fires here) runs the same
    # calibration cycles as a row without, and estimates the same background.
    never = sg.ExposureControl(epsilon=1e-300, min_cycles=10**9)
    block, stopping = (sg.AdaptiveGatePolicy(num_bins=500, calibration_cycles=40, exposure=control)
                       for control in (None, never))
    records = [sg.run_acquisition(_PAPER_SCENE, _PAPER_SPAD, pol, budget_bins=_PAPER_BUDGET, seed=seed)
               for pol in (block, stopping)]
    for field in ("gates", "timestamps", "detected", "elapsed_periods", "cycle_durations"):
        first = [getattr(rec, field)[:40] for rec in records]
        assert np.array_equal(*first), field
    assert block.posterior.bkg_flux == stopping.posterior.bkg_flux
    assert block.background_estimate == stopping.background_estimate


@pytest.mark.parametrize("seed", [4, 5])
@pytest.mark.parametrize("known", [False, True])
def test_block_posterior_is_the_posterior_of_its_record(seed, known):
    # Folding block by block is the batch posterior of the whole record,
    # calibration included, up to rounding.
    prior = sg.flatness_prior(500, prev_depth=270.0)
    pol = sg.AdaptiveGatePolicy(num_bins=500, prior=prior, bkg_flux=0.02 if known else None,
                                calibration_cycles=0 if known else 40)
    rec = sg.run_acquisition(_PAPER_SCENE, _PAPER_SPAD, pol, budget_bins=_PAPER_BUDGET, seed=seed)
    batch = sg.posterior_from_record(rec, pol.posterior.bkg_flux, pol.posterior.flux_grid, prior)
    assert len(rec) > 900
    assert sg.map_depth(pol.posterior) == sg.map_depth(batch)
    assert np.allclose(pol.posterior.mass / pol.posterior.total, batch.mass / batch.total, rtol=1e-9, atol=1e-300)


def _block_sizes(monkeypatch) -> tuple[list[int], list[int]]:
    """Gates each adaptive block drew and cycles the policy took of each, in order."""
    drawn, kept = [], []
    gates, observe = sg.AdaptiveGatePolicy.gates, sg.AdaptiveGatePolicy.observe_block

    def counted_gates(self, start, count, rng):
        out = gates(self, start, count, rng)
        drawn.append(len(out))
        return out

    def counted_observe(self, *columns):
        kept.append(observe(self, *columns))
        return kept[-1]

    monkeypatch.setattr(sg.AdaptiveGatePolicy, "gates", counted_gates)
    monkeypatch.setattr(sg.AdaptiveGatePolicy, "observe_block", counted_observe)
    return drawn, kept


def test_a_block_cut_by_the_budget_stays_within_one_cycle_of_it(monkeypatch):
    drawn, kept = _block_sizes(monkeypatch)
    b, cap, dead = 500, _PAPER_SPAD.max_active_periods, _PAPER_SPAD.dead_time_bins
    longest = (b - 1) + cap * b + dead  # a wait to the gate, a full scan, then the dead time
    cut = 0
    for seed in range(6):
        drawn.clear()
        kept.clear()
        pol = sg.AdaptiveGatePolicy(num_bins=b, calibration_cycles=40)
        rec = sg.run_acquisition(_PAPER_SCENE, _PAPER_SPAD, pol, budget_bins=_PAPER_BUDGET, seed=seed)
        assert sum(kept) == len(rec) == pol.cycle_index
        assert drawn[:-1] == kept[:-1]  # only the last block can be cut
        cut += kept[-1] < drawn[-1]
        started = rec.exposure_bins - int(rec.cycle_durations[-1])
        assert started + 1 + dead <= _PAPER_BUDGET  # the minimal cycle fitted when the last one started
        assert rec.exposure_bins + 1 + dead > _PAPER_BUDGET  # and no longer fits after it
        assert rec.exposure_bins <= _PAPER_BUDGET + longest
    assert cut >= 3  # most runs end inside a block


def _replayed_stop(record, make_policy) -> int | None:
    """Cycles up to the first stop of a fresh stop-rule policy fed ``record``
    cycle by cycle (known background), or None if it never stops."""
    pol = make_policy()
    for i, (gate, timestamp) in enumerate(zip(record.gates.tolist(), record.timestamps.tolist())):
        pol.observe(gate, timestamp)
        if i + 1 >= pol.min_cycles and sg.termination_value(pol.posterior) < pol.exposure.epsilon:
            return i + 1
    return None


def test_a_stop_inside_a_block_ends_the_record_at_the_stop(monkeypatch):
    # A stop-rule row draws its blocks like a budget row, but takes them a
    # cycle at a time: the record ends at the first cycle at or after
    # min_cycles whose termination value is below epsilon, most often inside
    # the block that reached it, and its exposure is the sum of the kept
    # durations.
    drawn, kept = _block_sizes(monkeypatch)
    spad = sg.SpadConfig(rep_rate_hz=100e6, num_bins=100, dead_time_ns=81.0)
    scene = sg.SceneTransient(num_bins=100, ambient_flux=0.01, peaks=((60, 0.05),))

    def make():
        return sg.AdaptiveGatePolicy(num_bins=100, bkg_flux=0.01, exposure=sg.ExposureControl(0.25, min_cycles=30))

    cut = 0
    for seed in range(6):
        drawn.clear()
        kept.clear()
        pol = make()
        rec = sg.run_acquisition(scene, spad, pol, max_cycles=4000, seed=seed)
        assert 30 <= len(rec) < 4000 and pol.cycle_index == len(rec)
        assert _replayed_stop(rec, make) == len(rec)
        assert rec.exposure_bins == int(rec.cycle_durations.sum())
        assert drawn[-1] == 0  # the stop rule held at the next block's start
        assert sum(kept) == len(rec) and drawn[:-2] == kept[:-1]
        cut += kept[-1] < drawn[-2]  # the stop cut its block short
    assert cut >= 3


def test_a_stop_before_the_first_cycle_leaves_an_empty_record():
    # With min_cycles 0 and epsilon above the prior's termination value
    # (1 - 1/B), the rule holds before any cycle runs.
    spad = sg.SpadConfig(rep_rate_hz=100e6, num_bins=100, dead_time_ns=81.0)
    scene = sg.SceneTransient(num_bins=100, ambient_flux=0.01, peaks=((60, 0.05),))
    pol = sg.AdaptiveGatePolicy(num_bins=100, bkg_flux=0.01, exposure=sg.ExposureControl(0.995, min_cycles=0))
    rng = sg.stream_rng(4)
    rec = sg.run_acquisition(scene, spad, pol, max_cycles=4000, seed=rng)
    assert len(rec) == 0 and rec.exposure_bins == 0 and pol.cycle_index == 0
    assert rng.random() == sg.stream_rng(4).random()  # nothing was drawn


def test_a_paper_point_row_folds_in_few_blocks(monkeypatch):
    # A regression guard, by counting: an adaptive row without a stop rule
    # reads and folds its posterior O(log T) times, not once per cycle.
    # One-cycle blocks (fewer than FEEDBACK_DIVISOR * 2 cycles run) take
    # the one-cycle update; every other block is one fold.
    drawn, kept = _block_sizes(monkeypatch)
    folds = {"batch": 0, "fold": 0, "one-cycle": 0}

    def counting(name, fn):
        def counted(*args):
            folds[name] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(policies, "posterior_from_record", counting("batch", policies.posterior_from_record))
    monkeypatch.setattr(policies, "_fold", counting("fold", policies._fold))
    monkeypatch.setattr(policies, "posterior_update", counting("one-cycle", policies.posterior_update))
    config = sg.parse_config({
        "experiment": {"id": "paper-point", "seeds": 1, "global_seed": 77},
        "spad": {"bin_resolution_ps": 100.0, "rep_rate_mhz": 20.0, "dead_time_ns": 81.0},
        "scene": {"depth_bin": 275, "ambient_flux": 0.02, "sbr": 2.0},
        "policies": [{"name": "adaptive", "kind": "adaptive"}],
        "budget_us": 100.0,
        "background": {"mode": "estimated"},
    })
    rows, _, failures = sg.run_sweep(config, threads=1)
    assert not failures and 900 < rows[0].cycles < 1000
    assert folds["batch"] == 1 and drawn[0] == 40  # the calibration block, folded from its record
    assert folds["batch"] + folds["fold"] + folds["one-cycle"] <= 20
    assert folds["one-cycle"] == kept.count(1) == 0

    # A known background has no calibration: the first eight blocks hold one cycle each.
    kept.clear()
    folds.update({"batch": 0, "fold": 0, "one-cycle": 0})
    known = sg.parse_config({**config.to_dict(), "background": {"mode": "known"}})
    rows, _, failures = sg.run_sweep(known, threads=1)
    assert not failures and 900 < rows[0].cycles < 1100
    assert kept[:10] == [1] * 8 + [2, 2]
    assert folds["one-cycle"] == kept.count(1) == 8
    assert folds["fold"] == len(kept) - 8 and len(kept) <= 40
