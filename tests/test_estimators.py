"""Pile-up correction, depth posteriors, background and sub-bin estimation."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spadgate as sg
from conftest import (NumpyCounter, assert_marginal_is_the_stored_rows, brute_detection_likelihood,
                      depth_log_marginal, flux_log_marginal, full_period_cycle_rows, log_mass, logsumexp,
                      make_record, reference_fold)
from spadgate import estimators
from spadgate.core import law_statistics, peak_columns
from spadgate.estimators import _cycle_rows, _factor_steps, _fold


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
    assert logsumexp(a) == pytest.approx(math.log(sum(math.exp(v) for v in a[:3])), rel=1e-13)
    assert logsumexp(np.array([-np.inf, -np.inf])) == float("-inf")


def test_logsumexp_axis():
    a = np.log(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert np.allclose(logsumexp(a, axis=0), np.log([4.0, 6.0]), rtol=1e-13)
    assert np.allclose(logsumexp(a, axis=1), np.log([3.0, 7.0]), rtol=1e-13)


# ---------------------------------------------------------------------------
# Coates estimation


def test_coates_frozen_value():
    hist = sg.DetectedHistogram(counts=np.array([1, 0]), denominators=np.array([2, 2]))
    est = sg.coates_transient(hist)
    # D=2, N=1: ln(2/(2-1)) = ln 2
    assert est.rates[0] == pytest.approx(0.6931471805599453, rel=1e-14)
    assert est.rates[1] == 0.0
    assert not est.saturated.any()


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


def test_default_flux_grid_names_an_out_of_range_background():
    with pytest.raises(ValueError, match="^bkg_flux must be positive to scale the grid$"):
        sg.default_flux_grid(-1.0)
    with pytest.raises(ValueError, match="0.1 \\* bkg_flux underflows to 0"):
        sg.default_flux_grid(5e-324)
    with pytest.raises(ValueError, match="100.0 \\* bkg_flux overflows"):
        sg.default_flux_grid(1e307)
    assert sg.default_flux_grid(1e-322)[1] > 0.0


# ---------------------------------------------------------------------------
# Posterior updates


def test_posterior_init_uniform_and_prior():
    known = np.array([0.6])  # a known signal flux is a one-value grid
    post = sg.posterior_init(5, known, 0.1)
    assert log_mass(post).shape == (5, 1)
    assert np.allclose(np.exp(log_mass(post)), 0.2, rtol=1e-14)
    prior = np.array([0.5, 0.5, 0.0, 0.0])
    post2 = sg.posterior_init(4, known, 0.1, prior=prior)
    mass = np.exp(log_mass(post2)[:, 0])
    assert mass[0] == pytest.approx(0.5, rel=1e-14)
    assert mass[2] == 0.0
    with pytest.raises(ValueError):
        sg.posterior_init(4, known, 0.1, prior=np.zeros(4))
    with pytest.raises(ValueError):
        sg.posterior_init(4, known, 0.1, prior=np.ones(3))
    with pytest.raises(ValueError, match="not \\(depth bins, 2 flux values\\)"):
        sg.DepthPosterior(np.ones(4), np.array([0.0, 0.6]), 0.1)
    with pytest.raises(ValueError, match="not \\(depth bins, 2 flux values\\)"):
        sg.DepthPosterior(np.ones((4, 3)), np.array([0.0, 0.6]), 0.1)


def test_a_posterior_rejects_a_negative_background_when_built():
    with pytest.raises(ValueError, match="bkg_flux cannot be negative"):
        sg.posterior_init(4, np.array([0.5]), -0.1)
    with pytest.raises(ValueError, match="bkg_flux cannot be negative"):
        sg.DepthPosterior(np.ones((4, 1)), np.array([0.5]), -0.1)
    assert sg.posterior_init(4, np.array([0.5]), 0.0).bkg_flux == 0.0  # no background is allowed


@pytest.mark.parametrize("bkg", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_a_posterior_rejects_a_non_finite_background_when_built(bkg):
    # Built, a NaN background would make every update a degraded cycle and
    # an infinite one would still move the rows, both without a word.
    message = re.escape(f"bkg_flux must be finite, got {bkg!r}")
    with pytest.raises(ValueError, match=message):
        sg.posterior_init(4, np.array([0.5]), bkg)
    with pytest.raises(ValueError, match=message):
        sg.DepthPosterior(np.ones((4, 1)), np.array([0.5]), bkg)
    with pytest.raises(ValueError, match=message):
        sg.posterior_from_record(make_record(4, [(0, 1)]), bkg, np.array([0.5]), None)


def test_posterior_init_joint_shape():
    post = sg.posterior_init(6, flux_grid=np.array([0.0, 0.5, 1.0]), bkg_flux=0.1)
    assert log_mass(post).shape == (6, 3)
    assert logsumexp(log_mass(post)) == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(np.exp(depth_log_marginal(post)), 1 / 6, rtol=1e-12)
    assert np.allclose(np.exp(flux_log_marginal(post)), 1 / 3, rtol=1e-12)


def test_posterior_update_frozen_ratio():
    # One detection at the armed bin, two depth hypotheses: the armed-bin
    # hypothesis has trigger rate bkg+signal, the other just bkg.
    post = sg.posterior_init(2, np.array([1.0]), 0.1)
    sg.posterior_update(post, 0, 0)
    mass = np.exp(log_mass(post)[:, 0])
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
    post = sg.posterior_init(num_bins, flux_grid=grid, bkg_flux=bkg)
    for gate, ts in outcomes:
        sg.posterior_update(post, ts, gate)
    expected = _brute_posterior(num_bins, grid, bkg, outcomes)
    assert np.allclose(np.exp(log_mass(post)), expected, atol=1e-12)


def test_posterior_update_with_informative_prior():
    num_bins, bkg = 5, 0.2
    grid = np.array([0.3, 0.9])
    prior = np.array([0.1, 0.4, 0.3, 0.15, 0.05])
    outcomes = [(1, 2), (3, 3)]
    post = sg.posterior_init(num_bins, prior=prior, flux_grid=grid, bkg_flux=bkg)
    for gate, ts in outcomes:
        sg.posterior_update(post, ts, gate)
    expected = _brute_posterior(num_bins, grid, bkg, outcomes, prior=prior)
    assert np.allclose(np.exp(log_mass(post)), expected, atol=1e-12)


def test_censored_update_preserves_depth_marginal_from_uniform():
    # From a factorized state the censored likelihood is depth-independent,
    # so only the flux marginal moves.
    post = sg.posterior_init(8, flux_grid=np.array([0.0, 0.5, 2.0]), bkg_flux=0.1)
    before_depth = np.exp(depth_log_marginal(post))
    before_flux = np.exp(flux_log_marginal(post))
    sg.posterior_update(post, None, 3)
    after_depth = np.exp(depth_log_marginal(post))
    after_flux = np.exp(flux_log_marginal(post))
    assert np.allclose(after_depth, before_depth, atol=1e-14)
    assert after_flux[0] > before_flux[0]  # no detection favors weaker signal
    assert after_flux[2] < before_flux[2]


def test_zero_flux_slice_stays_flat():
    # The signal-free hypothesis has no depth dependence; its slice of the
    # joint must stay exactly flat through arbitrary updates.
    post = sg.posterior_init(6, flux_grid=np.array([0.0, 0.7]), bkg_flux=0.12)
    for gate, ts in [(0, 2), (3, None), (4, 4), (1, 0)]:
        sg.posterior_update(post, ts, gate)
    slice0 = log_mass(post)[:, 0]
    assert np.ptp(slice0) < 1e-12


def test_impossible_observation_degrades_not_crashes():
    post = sg.posterior_init(4, np.array([0.0]), 0.0)
    before = log_mass(post)
    sg.posterior_update(post, 2, 0)  # zero rate everywhere: p=0
    assert post.degraded_cycles == 1
    assert np.array_equal(log_mass(post), before)


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
        assert np.allclose(np.exp(log_mass(post)), expected, atol=1e-10)
        folded = sg.posterior_init(num_bins, flux_grid=grid, bkg_flux=bkg)
        for gate, ts in outcomes:
            sg.posterior_update(folded, ts, gate)
        assert np.allclose(log_mass(post), log_mass(folded), rtol=0.0, atol=1e-10)


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
        offset = log_mass(post) - expected
        assert np.ptp(offset) < 1e-10


def test_impossible_record_keeps_prior_and_counts_every_cycle():
    # With no background only the peak bin can fire, so detections on two
    # different bins rule out every depth: the record is skipped as a whole.
    record = make_record(4, [(0, 1), (0, 2), (3, None)])
    post = sg.posterior_from_record(record, 0.0, np.array([0.5]))
    assert post.degraded_cycles == 3
    assert np.array_equal(log_mass(post), log_mass(sg.posterior_init(4, np.array([0.5]), 0.0)))


@st.composite
def _one_cycle_cases(draw):
    """A posterior state and 2 to 12 cycles to fold into it one at a time.

    Flux values of hundreds of nats give cycles whose factors span more
    than 700 nats (several steps).  The background may be 0, where an
    outcome can be impossible under every cell of positive mass; and
    before a cycle the posterior may be copied, the copy updated by another
    cycle in between.
    """
    b = draw(st.one_of(st.integers(1, 3), st.integers(1, 600)))
    bkg = draw(st.one_of(st.just(0.0), st.floats(1e-6, 2.0)))
    flux = st.one_of(st.floats(0.0, 50.0), st.floats(700.0, 3000.0))
    if draw(st.booleans()):
        grid = np.array(draw(st.lists(flux, min_size=1, max_size=20)))
    else:  # a known signal flux
        grid = np.array([draw(flux)])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    prior = rng.random(b) + 0.01
    if draw(st.booleans()):
        prior[rng.random(b) < 0.5] = 0.0
        prior[rng.integers(b)] = 1.0
    # a folded history, so the state is not a product of prior and flux
    history = make_record(b, [(int(g), None if c else int(t)) for g, t, c in
                              zip(rng.integers(b, size=5), rng.integers(b, size=5), rng.random(5) < 0.2)])

    def cycle():
        gate = draw(st.integers(0, b - 1))
        kind = draw(st.sampled_from(["censored", "at gate", "wrapped", "any"]))
        if kind == "censored":
            return gate, None
        if kind == "at gate":
            return gate, gate
        if kind == "wrapped" and gate > 0:
            return gate, draw(st.integers(0, gate - 1))
        return gate, draw(st.integers(0, b - 1))

    cycles = []
    for _ in range(draw(st.integers(2, 12))):
        twin = cycle() if draw(st.integers(0, 3)) == 0 else None
        cycles.append((*cycle(), twin))
    return b, bkg, grid, prior, history, cycles


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


_log_uniform_background = st.floats(-300.0, math.log10(3.0)).map(lambda e: 10.0**e)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    b=st.one_of(st.integers(1, 3), st.integers(1, 600)),
    bkg=st.one_of(st.just(0.0), _log_uniform_background),
    grid=st.lists(st.floats(0.0, 100.0), min_size=0, max_size=19),
    signal=st.one_of(st.none(), st.just(0.0), st.floats(0.0, 100.0)),
    cycles=st.lists(st.tuples(st.integers(0, 599), st.one_of(st.none(), st.integers(0, 599))), max_size=3),
)
def test_cycle_rows_match_the_full_period_templates(b, bkg, grid, signal, cycles):
    # A grid with the zero column (1 to 20 values), or a known signal flux
    # (a one-value grid); the templates are read after a few updates, or
    # built by the check itself when there were none.
    grid = np.array([0.0, *grid]) if signal is None else np.array([signal])
    post = sg.posterior_init(b, grid, bkg)
    for gate, t in cycles:
        sg.posterior_update(post, None if t is None else t % b, gate % b)
    _cycle_rows(post, None)
    rows, reference = post._templates, full_period_cycle_rows(post)
    read = (0, 3) if b == 1 else (0, 1, 2, 3)  # at one bin only the hit and censored rows are read
    for i in read:
        assert _same_bits(rows[i], reference[i]), i


def _update_both(post, ref, gate, t):
    """``posterior_update`` on ``post`` and the one-cycle fold on ``ref``; they must agree to the bit."""
    sg.posterior_update(post, t, gate)
    _fold(ref, law_statistics(post.num_bins, [gate], [-1 if t is None else t], [t is not None]))
    assert np.array_equal(post.mass, ref.mass)
    assert np.array_equal(post.rows, ref.rows) and post.total == ref.total
    assert post.degraded_cycles == ref.degraded_cycles


@settings(max_examples=300, deadline=None)
@given(_one_cycle_cases())
def test_posterior_update_is_the_one_cycle_fold_to_the_bit(case):
    b, bkg, grid, prior, history, cycles = case
    post = sg.posterior_from_record(history, bkg, prior=prior, flux_grid=grid)
    ref = post.copy()
    for gate, t, twin in cycles:  # later cycles read the kept templates and refill the kept buffer
        if twin is not None:  # the copy keeps a buffer of its own
            _update_both(post.copy(), ref.copy(), *twin)
        _update_both(post, ref, gate, t)


def test_posterior_update_validation():
    post = sg.posterior_init(4, np.array([0.5]), 0.1)
    with pytest.raises(ValueError):
        sg.posterior_update(post, 4, 0)
    with pytest.raises(ValueError):
        sg.posterior_update(post, 1, 4)


# ---------------------------------------------------------------------------
# Flux-major layout and the depth marginal built by the normalization


def test_joint_mass_stays_flux_major():
    grid = np.array([0.0, 0.3, 1.0])
    post = sg.posterior_init(7, flux_grid=grid, bkg_flux=0.1)
    assert post.mass.flags.f_contiguous
    sg.posterior_update(post, 3, 1)  # detected
    assert post.mass.flags.f_contiguous
    sg.posterior_update(post, None, 5)  # censored
    assert post.mass.flags.f_contiguous
    record = make_record(7, [(0, 2), (4, None), (6, 1)])
    assert sg.posterior_from_record(record, 0.1, flux_grid=grid).mass.flags.f_contiguous
    twin = post.copy()
    assert twin.mass.flags.f_contiguous
    sg.posterior_update(twin, 0, 6)
    assert twin.mass.flags.f_contiguous
    assert not twin.mass.flags.c_contiguous  # (7, 3): the flags tell the layouts apart
    assert sg.DepthPosterior(np.ones((7, 3)), grid, 0.1).mass.flags.f_contiguous  # built from a C-ordered array


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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_marginal_cases())
def test_cached_depth_marginal_matches_the_row_logsumexp(case):
    b, bkg, grid, prior, history, cycles = case
    post = sg.posterior_from_record(history, bkg, prior=prior, flux_grid=grid)
    assert_marginal_is_the_stored_rows(post)
    for gate, t in cycles:
        sg.posterior_update(post, t, gate)
        assert_marginal_is_the_stored_rows(post)


def _log_domain_marginal(record, bkg, grid, prior):
    """Independent reference: log prior + ``sequence_log_likelihood`` per cell,
    reduced to the normalized depth log marginal in the log domain."""
    b = record.num_bins
    with np.errstate(divide="ignore"):
        log_prior = np.log(prior / prior.sum())
    cells = np.array([
        [log_prior[d] + sg.sequence_log_likelihood(
            sg.SceneTransient(num_bins=b, ambient_flux=bkg, peaks=((d, f),)), record) for f in grid]
        for d in range(b)
    ])
    rows = logsumexp(cells, axis=1)
    return rows - logsumexp(rows)


def _assert_matches_the_log_domain(post, reference):
    marginal = depth_log_marginal(post)
    near = reference > reference.max() - 700.0
    assert np.all(np.abs(marginal[near] - reference[near]) <= 1e-9)
    # A row reads -inf only once every cell fell below float range under a
    # total of at least 2**500: about 1090 nats below the total.
    assert np.all(reference[marginal == -np.inf] < -1000.0)


@st.composite
def _long_record_cases(draw):
    """Up to 3000 simulated open-loop cycles at saturating or tiny ambient,
    under a prior spread over hundreds of nats."""
    b = draw(st.one_of(st.integers(1, 3), st.integers(1, 600)))
    bkg = draw(st.one_of(st.floats(0.5, 3.0), st.floats(1e-6, 1e-3)))
    grid = np.array(draw(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    prior = np.exp(-rng.uniform(0.0, draw(st.sampled_from([1.0, 300.0, 700.0])), b))
    prior[rng.integers(b)] = 1.0
    scene = sg.SceneTransient(num_bins=b, ambient_flux=bkg,
                              peaks=((int(rng.integers(b)), draw(st.floats(0.0, 3.0))),))
    spad = sg.SpadConfig(num_bins=b, dead_time_ns=draw(st.sampled_from([0.0, 1.0, 81.0])),
                         max_active_periods=draw(st.integers(1, 16)))
    policy = draw(st.sampled_from([sg.FreeRunningPolicy(), sg.UniformGatePolicy(b),
                                   sg.FixedGatePolicy(int(rng.integers(b)), b)]))
    record = sg.run_acquisition(scene, spad, policy, max_cycles=draw(st.integers(1, 3000)), seed=rng)
    return bkg, grid, prior, record


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_long_record_cases())
def test_long_records_match_the_log_domain_reference(case):
    bkg, grid, prior, record = case
    reference = _log_domain_marginal(record, bkg, grid, prior)
    _assert_matches_the_log_domain(sg.posterior_from_record(record, bkg, prior=prior, flux_grid=grid), reference)
    post = sg.posterior_init(record.num_bins, prior=prior, flux_grid=grid, bkg_flux=bkg)
    for gate, t, detected in zip(record.gates, record.timestamps, record.detected):
        sg.posterior_update(post, int(t) if detected else None, int(gate))
    _assert_matches_the_log_domain(post, reference)


def test_fold_keeps_a_prior_the_record_overturns():
    # The prior favours bin 0 by 650 nats and 73 detections at bin 1 favour
    # bin 1 by about 1000: bin 0 ends some 350 nats down, though its
    # likelihood alone is about 1000 nats below the best cell's.
    b, bkg, grid = 2, 1e-6, np.array([10.0])
    prior = np.array([1.0, math.exp(-650.0)])
    record = make_record(b, [(1, 1)] * 73)
    reference = _log_domain_marginal(record, bkg, grid, prior)
    assert -400.0 < reference[0] < -300.0
    _assert_matches_the_log_domain(sg.posterior_from_record(record, bkg, prior=prior, flux_grid=grid), reference)


def test_rescales_keep_a_concentrating_posterior_exact():
    # B = 500 after 3000 cycles, 30% of the detections at one bin: most
    # cells fall hundreds of nats below the peak, and the total falls far
    # enough to be rescaled several times on the way.
    b, bkg = 500, 0.02
    grid = sg.default_flux_grid(bkg)
    rng = np.random.default_rng(39)
    n = 3000
    stamps = np.where(rng.random(n) < 0.3, 275, rng.integers(b, size=n))
    censored = rng.random(n) < 0.1
    record = make_record(b, [(int(g), None if c else int(t))
                             for g, t, c in zip(rng.integers(b, size=n), stamps, censored)])
    post = sg.posterior_init(b, flux_grid=grid, bkg_flux=bkg)
    totals = []
    for gate, t, detected in zip(record.gates, record.timestamps, record.detected):
        sg.posterior_update(post, int(t) if detected else None, int(gate))
        totals.append(post.total)
    totals = np.array(totals)
    assert np.all((2.0**500 <= totals) & (totals <= 2.0**1000))
    assert np.count_nonzero(np.diff(totals) > 0) >= 2  # updates alone only lower it
    reference = _log_domain_marginal(record, bkg, grid, np.ones(b))
    assert reference.max() - np.sort(reference)[-2] > 100.0  # concentrated
    _assert_matches_the_log_domain(post, reference)


# ---------------------------------------------------------------------------
# The block fold: one exp in place, or steps


def _random_stats(rng, b: int, n: int, peak_share: float = 0.5, censored_share: float = 0.1):
    """Law statistics of n random cycles, ``peak_share`` of the detections at one bin."""
    stamps = np.where(rng.random(n) < peak_share, int(rng.integers(b)), rng.integers(b, size=n))
    censored = rng.random(n) < censored_share
    return law_statistics(b, rng.integers(b, size=n), np.where(censored, -1, stamps), ~censored)


def _fold_both(post, ref, stats):
    """``_fold`` on ``post`` and the reference fold on ``ref``; they must agree to the bit."""
    _fold(post, stats)
    reference_fold(ref, stats)
    assert _same_bits(post.mass, ref.mass) and post.mass.flags.f_contiguous
    assert _same_bits(post.rows, ref.rows) and post.total == ref.total
    assert post.degraded_cycles == ref.degraded_cycles


@st.composite
def _fold_cases(draw):
    """A prior with some empty rows and a few blocks: empty, of one cycle, or
    of thousands of cycles piled on one bin (a likelihood spanning more than
    700 nats), under backgrounds that leave -inf cells (0) or sit at the
    bottom of float range."""
    b = draw(st.integers(1, 300))
    bkg = draw(st.one_of(st.just(0.0), st.just(5e-324), st.floats(1e-6, 3.0)))
    grid = np.array([0.0, *draw(st.lists(st.floats(0.0, 100.0), max_size=19))])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    prior = np.exp(-rng.uniform(0.0, draw(st.sampled_from([1.0, 700.0])), b))
    prior[rng.random(b) < draw(st.sampled_from([0.0, 0.5]))] = 0.0
    prior[rng.integers(b)] = 1.0
    blocks = [_random_stats(rng, b, draw(st.sampled_from([0, 1, 16, 3000])), censored_share=draw(
        st.sampled_from([0.0, 0.1, 1.0]))) for _ in range(draw(st.integers(1, 4)))]
    return b, bkg, grid, prior, blocks


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_fold_cases())
def test_fold_is_the_reference_fold_to_the_bit(case):
    b, bkg, grid, prior, blocks = case
    post = sg.posterior_init(b, grid, bkg, prior)
    ref = post.copy()
    for stats in blocks:
        _fold_both(post, ref, stats)


@pytest.mark.parametrize("n, peak_share, bkg, steps", [
    (64, 0.3, 0.02, False),  # within 700 nats: one exp in place
    (3000, 0.3, 0.02, True),  # more than 700 nats
    (64, 1.0, 0.0, True),  # no background: -inf cells beside the detections' bin
])
def test_both_fold_paths_are_the_reference_fold(monkeypatch, n, peak_share, bkg, steps):
    calls = []
    monkeypatch.setattr(estimators, "_factor_steps", lambda a: calls.append(a.shape) or _factor_steps(a))
    b = 500
    post = sg.posterior_init(b, sg.default_flux_grid(0.02), bkg, sg.flatness_prior(b, prev_depth=270.0))
    ref = post.copy()
    _fold_both(post, ref, _random_stats(np.random.default_rng(11), b, n, peak_share))
    assert post.degraded_cycles == 0
    assert calls == ([(b, 17)] if steps else [])


def test_a_finite_fold_makes_one_exp_and_reads_the_columns_once(monkeypatch):
    # A fold within 700 nats takes one exp over the joint, in place, one
    # multiply of the mass and one flux-axis sum; it never takes the steps
    # (and their boolean masks).  The column terms are computed once per
    # posterior, when it is built, not once per fold.
    numpy = NumpyCounter()
    monkeypatch.setattr(estimators, "np", numpy)
    steps, columns = [], []
    monkeypatch.setattr(estimators, "_factor_steps", lambda a: steps.append(a) or _factor_steps(a))
    monkeypatch.setattr(estimators, "peak_columns", lambda *args: columns.append(args) or peak_columns(*args))
    b, bkg = 50, 0.05
    post = sg.posterior_init(b, sg.default_flux_grid(bkg), bkg)
    assert len(columns) == 1
    rng = np.random.default_rng(12)
    for _ in range(4):
        numpy.calls.clear()
        _fold(post, _random_stats(rng, b, 16))
        assert numpy.calls == ["exp", f"multiply {post.mass.shape}", "flux-axis sum"]
    assert steps == [] and len(columns) == 1
    sg.posterior_update(post, 3, 1)  # the one-cycle templates read the same columns
    assert len(columns) == 1


# ---------------------------------------------------------------------------
# Summaries


def test_map_depth_and_entropy():
    post = sg.posterior_init(500, np.array([0.5]), 0.1)
    assert sg.posterior_entropy(post) == pytest.approx(6.214608098422191, rel=1e-12)
    assert sg.map_depth(post) == 0  # uniform ties break low
    sharp = sg.posterior_init(4, np.array([0.5]), 0.1, prior=np.array([0.0, 0.0, 1.0, 0.0]))
    assert sg.map_depth(sharp) == 2
    assert sg.posterior_entropy(sharp) == pytest.approx(0.0, abs=1e-12)


def test_entropy_of_joint_uses_depth_marginal():
    post = sg.posterior_init(4, flux_grid=np.array([0.1, 1.0]), bkg_flux=0.1)
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
    # An edge bin has one neighbour in the period, so it is not refined:
    # the parabola needs a bin on each side.
    rates = np.array([2.0, 1.5, 0.1, 0.1, 1.0])
    est = sg.TransientEstimate(rates=rates, saturated=np.zeros(5, bool))
    assert sg.dither_depth(est, 0) == 0.0
    assert sg.dither_depth(est, 4) == 4.0
