"""Timing model, analytic detection probabilities, histogram accumulation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spadgate as sg
from conftest import brute_detection_likelihood, make_record, reference_law_statistics, reference_peak_log_likelihood
from spadgate.core import law_statistics, peak_columns, peak_log_likelihood


# ---------------------------------------------------------------------------
# Timing and unit conversions


def test_derive_num_bins_defaults():
    # 100 ps bins at 20 MHz: period 50 ns, exactly 500 bins.
    assert sg.derive_num_bins(100.0, 20e6) == 500


def test_derive_num_bins_floor_and_edge():
    assert sg.derive_num_bins(1000.0, 1e9) == 1
    # 1/(300 ps * 11 MHz) = 303.03..., floor to 303
    assert sg.derive_num_bins(300.0, 11e6) == 303
    # an exact-division case must not lose a bin to float noise
    assert sg.derive_num_bins(250.0, 4e6) == 1000


def test_depth_bin_round_trip():
    assert sg.depth_to_bin(3.75, 100.0) == 250
    assert sg.depth_to_bin(0.0, 100.0) == 0
    assert sg.bin_to_depth(1, 100.0) == pytest.approx(0.0149896229, rel=1e-12)
    # bin widths scale linearly with resolution
    assert sg.bin_to_depth(10, 50.0) == pytest.approx(5 * sg.bin_to_depth(1, 100.0), rel=1e-12)


def test_spad_config_dead_time_bins():
    cfg = sg.SpadConfig()
    assert cfg.num_bins == 500
    assert cfg.dead_time_bins == 810  # 81 ns / 100 ps exactly
    assert sg.SpadConfig(dead_time_ns=81.05).dead_time_bins == 811  # partial bin blocks the whole bin
    assert sg.SpadConfig(dead_time_ns=0.0).dead_time_bins == 1  # the detection bin is spent at any dead time


def test_spad_config_validation():
    with pytest.raises(ValueError):
        sg.SpadConfig(num_bins=0)
    with pytest.raises(ValueError):
        sg.SpadConfig(dead_time_ns=-1.0)
    with pytest.raises(ValueError):
        sg.SpadConfig(max_active_periods=0)


# ---------------------------------------------------------------------------
# Scene transients


def test_scene_transient_rates_layout():
    scene = sg.SceneTransient(num_bins=8, ambient_flux=0.1, peaks=((3, 0.5),))
    expected = np.full(8, 0.1)
    expected[3] += 0.5
    assert np.array_equal(scene.rates, expected)
    assert scene.total_rate == pytest.approx(1.3)


def test_scene_transient_peaks_accumulate():
    scene = sg.SceneTransient(num_bins=4, ambient_flux=0.0, peaks=((1, 0.2), (1, 0.3)))
    assert scene.rates[1] == pytest.approx(0.5)


def test_scene_transient_rates_read_only():
    scene = sg.SceneTransient(num_bins=4, ambient_flux=0.1)
    with pytest.raises(ValueError):
        scene.rates[0] = 9.0


def test_scene_transient_validation():
    with pytest.raises(ValueError):
        sg.SceneTransient(num_bins=4, ambient_flux=-0.1)
    with pytest.raises(ValueError):
        sg.SceneTransient(num_bins=4, ambient_flux=0.1, peaks=((4, 0.5),))
    with pytest.raises(ValueError):
        sg.SceneTransient(num_bins=4, ambient_flux=0.1, peaks=((1, -0.5),))
    with pytest.raises(ValueError):
        sg.SceneTransient(num_bins=4, ambient_flux=0.1, tail=(0.5, 1.0))  # tail needs a peak to anchor


def test_scene_transient_rejects_a_total_rate_that_is_not_finite():
    with pytest.raises(ValueError, match="^the rates sum to inf over one period; the total must be finite$"):
        sg.SceneTransient(num_bins=16, ambient_flux=1e308)
    with pytest.raises(ValueError, match="the rates sum to inf"):
        sg.SceneTransient(num_bins=4, ambient_flux=0.0, peaks=((1, 1e308), (2, 1e308)))
    with pytest.raises(ValueError, match="the rates sum to inf"):
        sg.SceneTransient(num_bins=16, ambient_flux=0.0, peaks=((0, 1.0),), tail=(1e308, 0.1))
    with pytest.raises(ValueError, match="the rates sum to nan"):
        sg.SceneTransient(num_bins=4, ambient_flux=float("nan"))
    assert sg.SceneTransient(num_bins=16, ambient_flux=1e306).total_rate == pytest.approx(1.6e307, rel=1e-12)


def test_scene_from_rates_round_trip():
    rates = np.array([0.0, 0.3, 0.05, 1.2, 0.0])
    scene = sg.SceneTransient.from_rates(rates)
    assert np.allclose(scene.rates, rates, rtol=0, atol=0)
    assert scene.num_bins == 5


def test_scene_prefix_consistency():
    scene = sg.SceneTransient(num_bins=7, ambient_flux=0.03, peaks=((5, 0.9),))
    assert scene.scan_prefix.shape == (8,)
    assert scene.scan_prefix[0] == 0.0
    assert scene.total_rate == scene.scan_prefix[-1]


# ---------------------------------------------------------------------------
# Detection probabilities


def test_no_detection_probability_flat():
    scene = sg.SceneTransient(num_bins=8, ambient_flux=0.1)
    assert sg.no_detection_probability(scene) == pytest.approx(math.exp(-0.8), rel=1e-12)
    scene500 = sg.SceneTransient(num_bins=500, ambient_flux=0.01)
    assert sg.no_detection_probability(scene500) == pytest.approx(0.006737946999085467, rel=1e-12)


def test_detection_likelihood_frozen_values():
    scene = sg.SceneTransient(num_bins=8, ambient_flux=0.1, peaks=((3, 0.5),))
    assert sg.detection_distribution(scene, 0)[5] == pytest.approx(0.035008357473362776, rel=1e-12)
    flat = sg.SceneTransient(num_bins=8, ambient_flux=0.1)
    # detection at the armed bin itself: no survival factors at all
    assert sg.detection_distribution(flat, 2)[0] == pytest.approx(0.09516258196404048, rel=1e-12)


@st.composite
def _scenes_and_gates(draw):
    """A scene of 1 to 24 bins, some of them (or all) with zero rate, and any gate."""
    b = draw(st.integers(1, 24))
    rates = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-4, 3.0)), min_size=b, max_size=b))
    return sg.SceneTransient.from_rates(np.array(rates)), draw(st.integers(0, b - 1))


@settings(max_examples=150, deadline=None)
@given(_scenes_and_gates())
def test_detection_distribution_matches_scalar(scene_gate):
    # The per-bin product oracle in conftest, written apart from src: entry
    # n is the first detection at gate + n, and a detection k periods later
    # has probability q**k times it.
    scene, gate = scene_gate
    b = scene.num_bins
    dist = sg.detection_distribution(scene, gate)
    q = sg.no_detection_probability(scene)
    for k in range(3):
        for n in range(b):
            assert q**k * dist[n] == pytest.approx(
                brute_detection_likelihood(scene.rates, gate + k * b + n, gate), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("num_bins", [5, 12])
def test_detection_likelihood_matches_brute_force(num_bins, rng):
    # Random peaked scenes over two periods after arming: the first
    # detection at gate + t has probability q**(t // B) * dist[t % B].
    for _ in range(8):
        ambient = float(rng.uniform(1e-3, 0.4))
        peaks = tuple(
            (int(rng.integers(0, num_bins)), float(rng.uniform(0.0, 1.5)))
            for _ in range(int(rng.integers(0, 3)))
        )
        scene = sg.SceneTransient(num_bins=num_bins, ambient_flux=ambient, peaks=peaks)
        gate = int(rng.integers(0, num_bins))
        dist = sg.detection_distribution(scene, gate)
        q = sg.no_detection_probability(scene)
        for t in range(2 * num_bins):
            assert q ** (t // num_bins) * dist[t % num_bins] == pytest.approx(
                brute_detection_likelihood(scene.rates, gate + t, gate), rel=1e-12
            )


def test_detection_likelihood_rotation_invariance():
    # Shifting the scene and the gate together scans the exact same rate
    # sequence, so the distributions must match to the last bit.
    scene = sg.SceneTransient(num_bins=9, ambient_flux=0.07, peaks=((2, 0.8), (6, 0.3)))
    for shift in (1, 4, 8):
        shifted = sg.SceneTransient.from_rates(np.roll(scene.rates, shift))
        for gate in (0, 3):
            g2 = (gate + shift) % 9
            assert np.array_equal(sg.detection_distribution(scene, gate), sg.detection_distribution(shifted, g2))


def test_detection_distribution_normalizes_with_censoring():
    for ambient, peaks in [(0.02, ()), (0.1, ((3, 0.5),)), (0.4, ((1, 2.0), (5, 0.7)))]:
        scene = sg.SceneTransient(num_bins=8, ambient_flux=ambient, peaks=peaks)
        for gate in range(8):
            # over one period: sum of detection masses plus survival is exactly 1
            total = sg.detection_distribution(scene, gate).sum() + sg.no_detection_probability(scene)
            assert total == pytest.approx(1.0, abs=1e-12)


def test_detection_likelihood_later_periods_scale_by_survival():
    scene = sg.SceneTransient(num_bins=6, ambient_flux=0.08, peaks=((4, 0.9),))
    gate = 2
    q = sg.no_detection_probability(scene)
    dist = sg.detection_distribution(scene, gate)
    for j in (1, 2, 3):
        for k in (0, 3, 5):
            assert brute_detection_likelihood(scene.rates, gate + k + j * 6, gate) == pytest.approx(
                (q**j) * dist[k], rel=1e-12
            )


def test_pileup_skews_early():
    # high flux piles detections onto the bins right after arming
    scene = sg.SceneTransient(num_bins=10, ambient_flux=0.5)
    dist = sg.detection_distribution(scene, 0)
    assert np.all(np.diff(dist) < 0)


# ---------------------------------------------------------------------------
# Sequence likelihood


def test_sequence_log_likelihood_frozen():
    scene = sg.SceneTransient(num_bins=8, ambient_flux=0.1, peaks=((4, 1.0),))
    record = make_record(8, [(0, 4), (2, 6), (5, 1)])
    assert sg.no_detection_probability(scene) == pytest.approx(0.1652988882215865, rel=1e-12)
    assert sg.sequence_log_likelihood(scene, record) == pytest.approx(-6.767064191486568, rel=1e-12)


def test_sequence_log_likelihood_single_cycle_matches_folded():
    scene = sg.SceneTransient(num_bins=8, ambient_flux=0.1, peaks=((4, 1.0),))
    q = sg.no_detection_probability(scene)
    for gate, ts in [(0, 4), (3, 1), (7, 7)]:
        record = make_record(8, [(gate, ts)])
        # the law of the folded timestamp given a detection, indexed by absolute bin
        folded = np.roll(sg.detection_distribution(scene, gate), gate) / (1.0 - q)
        assert sg.sequence_log_likelihood(scene, record) == pytest.approx(math.log(folded[ts]), rel=1e-12)


def test_sequence_log_likelihood_censored_and_empty():
    scene = sg.SceneTransient(num_bins=8, ambient_flux=0.1, peaks=((4, 1.0),))
    q = sg.no_detection_probability(scene)
    assert sg.sequence_log_likelihood(scene, make_record(8, [(0, None), (5, None)])) == pytest.approx(
        2 * math.log(q), rel=1e-12
    )
    assert sg.sequence_log_likelihood(scene, make_record(8, [])) == 0.0


def test_sequence_log_likelihood_folds_out_elapsed_periods():
    # folded timestamps marginalize the period index, so the recorded
    # period count cannot change the likelihood
    scene = sg.SceneTransient(num_bins=8, ambient_flux=0.1, peaks=((4, 1.0),))
    a = make_record(8, [(0, 4, 0)])
    b = make_record(8, [(0, 4, 3)])
    assert sg.sequence_log_likelihood(scene, a) == sg.sequence_log_likelihood(scene, b)


def test_sequence_log_likelihood_impossible_observation():
    rates = np.array([0.2, 0.0, 0.3, 0.1])
    scene = sg.SceneTransient.from_rates(rates)
    record = make_record(4, [(0, 1)])  # detection in a zero-rate bin
    assert sg.sequence_log_likelihood(scene, record) == float("-inf")


def test_sequence_log_likelihood_is_additive():
    scene = sg.SceneTransient(num_bins=8, ambient_flux=0.1, peaks=((4, 1.0),))
    r1 = make_record(8, [(0, 4), (2, None)])
    r2 = make_record(8, [(5, 1)])
    both = make_record(8, [(0, 4), (2, None), (5, 1)])
    assert sg.sequence_log_likelihood(scene, both) == pytest.approx(
        sg.sequence_log_likelihood(scene, r1) + sg.sequence_log_likelihood(scene, r2), rel=1e-12
    )


def test_law_statistics_hand_example():
    # gate 3 -> bin 1 two periods later passes over bins 3 and 0 of one pass;
    # a detection at its own gate passes over nothing
    record = make_record(4, [(3, 1, 2), (0, 0), (1, None, 16)])
    stats = law_statistics(4, record.gates, record.timestamps, record.detected)
    assert np.array_equal(stats.counts, [1, 1, 0, 0])
    assert np.array_equal(stats.passed, [1, 0, 0, 1])
    assert (stats.detected, stats.censored) == (2, 1)


@st.composite
def _cycle_outcomes(draw, max_bins=600, max_cycles=60):
    """(B, gates, timestamps, detected): wrapping windows, timestamps at their
    gate, all cycles censored and empty blocks among them."""
    b = draw(st.integers(1, max_bins))
    n = draw(st.sampled_from([0, 1, draw(st.integers(0, max_cycles))]))
    gates = draw(st.lists(st.integers(0, b - 1), min_size=n, max_size=n))
    shifts = draw(st.lists(st.integers(0, b - 1), min_size=n, max_size=n))
    if draw(st.booleans()):  # every detection at its own gate
        shifts = [0] * n
    share = draw(st.sampled_from([0.0, 0.3, 1.0]))  # of censored cycles
    censored = [draw(st.floats(0.0, 1.0)) < share for _ in range(n)]
    stamps = [-1 if c else (g + s) % b for g, s, c in zip(gates, shifts, censored)]
    return b, gates, stamps, [not c for c in censored]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_cycle_outcomes(), st.booleans())
def test_law_statistics_match_the_window_count_reference(outcomes, as_arrays):
    b, gates, stamps, detected = outcomes
    if as_arrays:
        gates, stamps, detected = np.array(gates, np.int64), np.array(stamps, np.int64), np.array(detected, bool)
    stats = law_statistics(b, gates, stamps, detected)
    reference = reference_law_statistics(b, gates, stamps, detected)
    for got, want in zip(stats, reference):
        assert np.asarray(got).dtype == np.asarray(want).dtype
        assert np.array_equal(got, want)
    assert stats.counts.shape == stats.passed.shape == (b,)


_backgrounds = st.one_of(st.just(0.0), st.just(5e-324), st.floats(1e-300, 1e-280), st.floats(1e-6, 3.0))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    outcomes=_cycle_outcomes(),
    bkg=_backgrounds,
    grid=st.lists(st.floats(0.0, 100.0), min_size=0, max_size=19),
    with_zero=st.booleans(),
)
def test_peak_log_likelihood_is_the_row_major_law_to_the_bit(outcomes, bkg, grid, with_zero):
    # The flux-major build takes each cell's terms in the order of the
    # row-major one, -inf cells (no background, zero flux) included, and
    # comes out laid out like a posterior's mass.
    b, gates, stamps, detected = outcomes
    flux = np.array([0.0, *grid] if with_zero or not grid else grid)
    stats = law_statistics(b, gates, stamps, detected)
    like = peak_log_likelihood(stats, peak_columns(bkg, flux, b))
    reference = reference_peak_log_likelihood(stats, bkg, flux)
    assert like.shape == reference.shape == (b, flux.size)
    assert like.flags.f_contiguous
    assert like.tobytes() == reference.tobytes()


@pytest.mark.parametrize("cycles", [1, 64, 2000])
def test_peak_log_likelihood_of_simulated_blocks_is_the_row_major_law(cycles):
    # Paper-point blocks under the default flux grid: reordering any two
    # terms moves a few cells of each by an ulp.
    spad = sg.SpadConfig(num_bins=500)
    scene = sg.SceneTransient(num_bins=500, ambient_flux=0.02, peaks=((275, 0.04),))
    record = sg.run_acquisition(scene, spad, sg.UniformGatePolicy(500), max_cycles=cycles, seed=cycles)
    stats = law_statistics(500, record.gates, record.timestamps, record.detected)
    for bkg in (0.02, 0.0173):
        flux = sg.default_flux_grid(bkg)
        like = peak_log_likelihood(stats, peak_columns(bkg, flux, 500))
        assert like.tobytes() == reference_peak_log_likelihood(stats, bkg, flux).tobytes()


# ---------------------------------------------------------------------------
# Histogram accumulation


def test_histogram_hand_example():
    record = make_record(3, [(0, 1), (1, 2), (2, 0)])
    hist = sg.timestamps_to_histogram(record)
    assert np.array_equal(hist.counts, [1, 1, 1])
    assert np.array_equal(hist.denominators, [2, 2, 2])


def test_histogram_counts_multi_period_passes():
    # detection one full period after arming: every bin armed twice except
    # those after the detection bin in the second pass
    record = make_record(3, [(0, 1, 1)])
    hist = sg.timestamps_to_histogram(record)
    assert np.array_equal(hist.counts, [0, 1, 0])
    assert np.array_equal(hist.denominators, [2, 2, 1])
    censored = make_record(3, [(1, None, 2)])
    hist2 = sg.timestamps_to_histogram(censored)
    assert np.array_equal(hist2.counts, [0, 0, 0])
    assert np.array_equal(hist2.denominators, [2, 2, 2])


def _brute_histogram(record):
    counts = np.zeros(record.num_bins, dtype=np.int64)
    denoms = np.zeros(record.num_bins, dtype=np.int64)
    for i in range(len(record)):
        g = int(record.gates[i])
        if record.detected[i]:
            offset = (int(record.timestamps[i]) - g) % record.num_bins
            length = int(record.elapsed_periods[i]) * record.num_bins + offset + 1
            counts[int(record.timestamps[i])] += 1
        else:
            length = int(record.elapsed_periods[i]) * record.num_bins
        for step in range(length):
            denoms[(g + step) % record.num_bins] += 1
    return counts, denoms


def test_histogram_matches_brute_force_on_simulated_record():
    scene = sg.SceneTransient(num_bins=7, ambient_flux=0.05, peaks=((3, 0.4),))
    # a 2-period cap keeps survival high enough that censored cycles occur
    spad = sg.SpadConfig(bin_resolution_ps=100.0, rep_rate_hz=20e6, num_bins=7, dead_time_ns=2.0, max_active_periods=2)
    record = sg.run_acquisition(scene, spad, sg.UniformGatePolicy(7), max_cycles=400, seed=5)
    assert record.detected.any() and not record.detected.all()  # both cycle kinds exercised
    hist = sg.timestamps_to_histogram(record)
    counts, denoms = _brute_histogram(record)
    assert np.array_equal(hist.counts, counts)
    assert np.array_equal(hist.denominators, denoms)
    assert int(hist.counts.sum()) == int(record.detected.sum())


@st.composite
def _histogram_records(draw):
    """Records of arbitrary cycles: any gate, detections at any offset
    (B - 1 included, a window of a whole period), censored cycles, and any
    elapsed period count for either kind; B = 1 and empty records too."""
    b = draw(st.one_of(st.just(1), st.integers(1, 40)))
    cycles = []
    for _ in range(draw(st.integers(0, 20))):
        gate = draw(st.integers(0, b - 1))
        periods = draw(st.integers(0, 8))
        kind = draw(st.sampled_from(["censored", "whole period", "any"]))
        if kind == "censored":
            cycles.append((gate, None, periods))
        else:
            offset = b - 1 if kind == "whole period" else draw(st.integers(0, b - 1))
            cycles.append((gate, (gate + offset) % b, periods))
    return make_record(b, cycles)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_histogram_records())
def test_histogram_matches_brute_force_on_arbitrary_records(record):
    hist = sg.timestamps_to_histogram(record)
    counts, denoms = _brute_histogram(record)
    assert np.array_equal(hist.counts, counts)
    assert np.array_equal(hist.denominators, denoms)


def test_histogram_empty_record():
    hist = sg.timestamps_to_histogram(make_record(5, []))
    assert np.array_equal(hist.counts, np.zeros(5, dtype=np.int64))
    assert np.array_equal(hist.denominators, np.zeros(5, dtype=np.int64))


def test_detected_histogram_validation():
    with pytest.raises(ValueError):
        sg.DetectedHistogram(counts=np.array([2, 0]), denominators=np.array([1, 1]))


# ---------------------------------------------------------------------------
# Record plumbing


def test_record_rejects_negative_elapsed_periods():
    with pytest.raises(ValueError, match="elapsed_periods cannot be negative"):
        make_record(4, [(0, 2, 1), (1, None, -1)])
    with pytest.raises(ValueError, match="elapsed_periods cannot be negative"):
        make_record(4, [(3, 1, -2)])
    assert len(make_record(4, [(1, None)])) == 1  # a censored cycle with 0 periods stays valid


def test_record_validation():
    with pytest.raises(ValueError):
        make_record(4, [(0, 4)])  # timestamp outside the period
    with pytest.raises(ValueError):
        sg.AcquisitionRecord(
            num_bins=4,
            gates=np.array([0]),
            timestamps=np.array([2]),
            detected=np.array([False]),  # censored cycles must store -1
            elapsed_periods=np.array([1]),
            cycle_durations=np.array([10]),
            exposure_bins=10,
        )
