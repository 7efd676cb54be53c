"""End-to-end acceptance gate.

Eleven numbered criteria covering the analytic model, the simulator, the
estimators, the gating policies, and the experiment harness. Each test
prints one ``[PASS]``/``[FAIL]`` line (through pytest's capture) with the
measured values, then asserts the criterion, so the printed ledger is
complete even when a criterion fails.

Criterion 6 is known-red and left failing on purpose: at its operating
point (total ambient 10 photons per period, signal only twice the per-bin
background, 100 us budget, uniform prior, single point) no tested variant
of the adaptive policy beats a free-running baseline whose estimator is
given the per-cycle arm phases. The free-running mode banks ~28% more
detection cycles, and the budget is an order of magnitude too small for
Thompson sampling to exit its exploration phase over 500 candidate bins,
so adaptive gating degenerates to uniform gating with extra idle time.
Measured on its 200 seeds: adaptive loss 0.680 and RMSE 1.867 m, against
free running's 0.675 and 1.741 m. The assertion is kept at the stated
direction rather than weakened.
"""

from __future__ import annotations

import time
from collections import Counter

import numpy as np
import pytest

import spadgate as sg

GLOBAL_SEED = 2026


def _announce(capsys, ok: bool, text: str) -> None:
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {text}")


# ---------------------------------------------------------------------------
# Shared harness-level runner for the policy-benchmark criteria.
# ---------------------------------------------------------------------------

def _policy_stats(rows, policy):
    sub = [r for r in rows if r.policy == policy]
    loss = float(np.mean([r.zero_one_loss for r in sub]))
    rmse = float(np.sqrt(np.mean([(r.est_depth_m - r.true_depth_m) ** 2 for r in sub])))
    return loss, rmse


def _run_budget_benchmark(dead_time_ns: float, bkg_mode: str):
    """200-seed adaptive vs free-running comparison at a fixed time budget."""
    cfg = {
        "experiment": {"id": "acceptance", "seeds": 200, "global_seed": GLOBAL_SEED},
        "spad": {"bin_resolution_ps": 100.0, "rep_rate_mhz": 20.0,
                 "dead_time_ns": dead_time_ns},
        "scene": {"depth_bin": 275, "ambient_flux": 0.02, "sbr": 2.0},
        "policies": [{"name": "adaptive", "kind": "adaptive"},
                     {"name": "free", "kind": "free_running", "estimator": "map"}],
        "budget_us": 100.0,
        "background": {"mode": bkg_mode},
    }
    rows, _aggs, failures = sg.run_sweep(sg.parse_config(cfg), threads=1)
    assert not failures
    return rows


# ---------------------------------------------------------------------------
# 1. Every gated outcome distribution is normalized.
# ---------------------------------------------------------------------------

def test_criterion_01_outcome_normalization(capsys):
    t0 = time.perf_counter()
    deviation = sg.normalization_check()
    elapsed = time.perf_counter() - t0
    ok = deviation < 1e-12 and elapsed < 1.0
    _announce(capsys, ok,
              f"criterion 1: outcome distributions sum to one over 50 random "
              f"configurations (max deviation {deviation:.3e} < 1e-12, "
              f"{elapsed:.2f}s < 1s)")
    assert deviation < 1e-12
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 2. The reward-optimal gate is the hypothesized depth, uniquely.
# ---------------------------------------------------------------------------

def test_criterion_02_optimal_gate_exhaustive(capsys):
    t0 = time.perf_counter()
    ok, detail = sg.proposition_check()
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _announce(capsys, ok,
              f"criterion 2: exhaustive gate-reward search: {detail} "
              f"({elapsed:.2f}s < 10s)")
    assert ok, detail
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 3. Simulated timestamp folding matches the analytic law, for a fixed gate
#    and for free running (arm-phase Markov chain solved exactly).
# ---------------------------------------------------------------------------

def _folded_gated_model(scene, config, gate):
    b = scene.num_bins
    q = float(np.exp(-scene.total_rate))
    geom = (1.0 - q ** config.max_active_periods) / (1.0 - q)
    law = sg.detection_distribution(scene, gate)
    model = np.zeros(b)
    for offset in range(b):
        model[(gate + offset) % b] += law[offset] * geom
    return model, q ** config.max_active_periods


def _folded_free_running_model(scene, config):
    b = scene.num_bins
    dead = config.dead_time_bins
    q = float(np.exp(-scene.total_rate))
    q_cap = q ** config.max_active_periods
    geom = (1.0 - q_cap) / (1.0 - q)
    laws = [sg.detection_distribution(scene, p) for p in range(b)]
    # Arm-phase transition matrix: a detection at offset m re-arms the
    # detector dead-time bins later regardless of how many whole periods
    # elapsed first; a censored cycle re-arms in place.
    trans = np.zeros((b, b))
    for p in range(b):
        for offset in range(b):
            trans[p, (p + offset + dead) % b] += laws[p][offset] * geom
        trans[p, p] += q_cap
    a = trans.T - np.eye(b)
    a[-1, :] = 1.0
    rhs = np.zeros(b)
    rhs[-1] = 1.0
    stationary = np.linalg.solve(a, rhs)
    model = np.zeros(b)
    for p in range(b):
        for offset in range(b):
            model[(p + offset) % b] += stationary[p] * laws[p][offset] * geom
    return model, q_cap


def _empirical_folded(record):
    n = len(record.gates)
    hist = np.bincount(record.timestamps[record.detected],
                       minlength=record.num_bins) / n
    censored = float((~record.detected).sum()) / n
    return hist, censored


def _tv(emp_hist, emp_cens, model_hist, model_cens):
    return 0.5 * (np.abs(emp_hist - model_hist).sum() + abs(emp_cens - model_cens))


def test_criterion_03_simulator_matches_analytic_law(capsys):
    config = sg.SpadConfig(num_bins=16, rep_rate_hz=625e6)
    scene = sg.SceneTransient(num_bins=16, ambient_flux=0.1, peaks=((5, 0.5),))
    t0 = time.perf_counter()

    rec_free = sg.run_acquisition(scene, config, sg.FreeRunningPolicy(),
                                  max_cycles=1_000_000, seed=1)
    model, cens = _folded_free_running_model(scene, config)
    tv_free = _tv(*_empirical_folded(rec_free), model, cens)

    rec_gated = sg.run_acquisition(scene, config, sg.FixedGatePolicy(3, 16),
                                   max_cycles=1_000_000, seed=2)
    model, cens = _folded_gated_model(scene, config, 3)
    tv_gated = _tv(*_empirical_folded(rec_gated), model, cens)

    elapsed = time.perf_counter() - t0
    ok = tv_free <= 0.005 and tv_gated <= 0.005 and elapsed < 30.0
    _announce(capsys, ok,
              f"criterion 3: 1e6-cycle simulations match the analytic folded "
              f"laws (TV free-running {tv_free:.5f}, gated {tv_gated:.5f}, "
              f"tolerance 0.005; {elapsed:.1f}s < 30s)")
    assert tv_free <= 0.005
    assert tv_gated <= 0.005
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 4. The occupancy-corrected transient estimate is consistent under uniform
#    gating: correct peak and unbiased peak rate.
# ---------------------------------------------------------------------------

def test_criterion_04_transient_estimator_consistency(capsys):
    config = sg.SpadConfig(num_bins=50, rep_rate_hz=200e6)
    scene = sg.SceneTransient(num_bins=50, ambient_flux=0.05, peaks=((20, 0.5),))
    peaks_right = 0
    peak_rates = []
    for seed in range(20):
        record = sg.run_acquisition(scene, config, sg.UniformGatePolicy(50),
                                    max_cycles=100_000,
                                    seed=sg.stream_rng(seed, 41))
        est = sg.coates_transient(sg.timestamps_to_histogram(record))
        if int(np.argmax(est.rates)) == 20:
            peaks_right += 1
        peak_rates.append(est.rates[20])
    mean_rate = float(np.mean(peak_rates))
    rel_err = abs(mean_rate - 0.55) / 0.55
    ok = peaks_right >= 19 and rel_err <= 0.05
    _announce(capsys, ok,
              f"criterion 4: uniform-gating transient estimate: peak correct "
              f"{peaks_right}/20 (need >=19), mean rate at the peak "
              f"{mean_rate:.4f} vs 0.55 ({100 * rel_err:.2f}% relative, "
              f"tolerance 5%)")
    assert peaks_right >= 19
    assert rel_err <= 0.05


# ---------------------------------------------------------------------------
# 5. The Bayesian depth estimate is at least as accurate as the
#    transient-argmax estimate in the strong pile-up regime.
# ---------------------------------------------------------------------------

def test_criterion_05_bayes_at_least_histogram(capsys):
    config = sg.SpadConfig(num_bins=100, rep_rate_hz=100e6)
    bkg = 0.1
    grid = sg.default_flux_grid(bkg)
    map_hits = 0
    coates_hits = 0
    total = 0
    for depth in (10, 20, 30):
        scene = sg.SceneTransient(num_bins=100, ambient_flux=bkg,
                                  peaks=((depth, 0.05),))
        for seed in range(500):
            record = sg.run_acquisition(scene, config,
                                        sg.FixedGatePolicy(0, 100),
                                        max_cycles=200,
                                        seed=sg.stream_rng(seed, 1000 + depth))
            post = sg.posterior_from_record(record, bkg, flux_grid=grid)
            map_hits += int(sg.map_depth(post) == depth)
            est = sg.coates_transient(sg.timestamps_to_histogram(record))
            coates_hits += int(sg.coates_depth(est) == depth)
            total += 1
    map_rate = map_hits / total
    coates_rate = coates_hits / total
    ok = map_rate >= coates_rate
    _announce(capsys, ok,
              f"criterion 5: correct-bin rate over {total} low-signal "
              f"pile-up runs: posterior MAP {map_rate:.4f} >= "
              f"transient argmax {coates_rate:.4f}")
    assert map_rate >= coates_rate


# ---------------------------------------------------------------------------
# 6. Adaptive gating vs free running at a fixed 100 us budget. Known red:
#    see the module docstring. The assertion states the intended direction
#    and currently fails with the measured values printed above it.
# ---------------------------------------------------------------------------

def test_criterion_06_adaptive_beats_free_running_budget(capsys):
    rows = _run_budget_benchmark(dead_time_ns=81.0, bkg_mode="estimated")
    a_loss, a_rmse = _policy_stats(rows, "adaptive")
    f_loss, f_rmse = _policy_stats(rows, "free")
    ok = a_loss < f_loss and a_rmse < f_rmse
    _announce(capsys, ok,
              f"criterion 6: 100 us budget, 200 seeds: adaptive loss "
              f"{a_loss:.4f} / rmse {a_rmse:.4f} m vs free-running loss "
              f"{f_loss:.4f} / rmse {f_rmse:.4f} m (need adaptive strictly "
              f"lower on both)")
    assert a_loss < f_loss and a_rmse < f_rmse, (
        "adaptive gating does not beat phase-aware free running at this "
        "operating point; kept red deliberately (module docstring)")


# ---------------------------------------------------------------------------
# 7. With dead time equal to one pulse period, free running re-arms at the
#    previous detection's phase, and the two modes perform comparably.
#    Known background isolates the dead-time acquisition dynamics from
#    calibration noise (same matched-model choice as criteria 5 and 9).
# ---------------------------------------------------------------------------

def test_criterion_07_dead_time_equal_to_period(capsys):
    rows = _run_budget_benchmark(dead_time_ns=50.0, bkg_mode="known")
    _a_loss, a_rmse = _policy_stats(rows, "adaptive")
    _f_loss, f_rmse = _policy_stats(rows, "free")
    rel = abs(a_rmse - f_rmse) / max(a_rmse, f_rmse)
    ok = rel <= 0.25
    _announce(capsys, ok,
              f"criterion 7: dead time = one period, known background: "
              f"adaptive rmse {a_rmse:.4f} m vs free-running rmse "
              f"{f_rmse:.4f} m, relative gap {rel:.3f} "
              f"(|a-f|/max, tolerance 0.25)")
    assert rel <= 0.25


# ---------------------------------------------------------------------------
# 8. Mean exposure needed to reach the stopping threshold is non-increasing
#    in the signal-to-background ratio.
# ---------------------------------------------------------------------------

def test_criterion_08_exposure_monotone_in_sbr(capsys):
    means = []
    for sbr in (1.0, 2.0, 5.0, 10.0):
        cfg = {
            "experiment": {"id": f"c8-{sbr}", "seeds": 200,
                           "global_seed": GLOBAL_SEED},
            "spad": {"bin_resolution_ps": 100.0, "rep_rate_mhz": 100.0,
                     "dead_time_ns": 81.0},
            "scene": {"depth_bin": 60, "ambient_flux": 0.01, "sbr": sbr},
            "policies": [{"name": "adaptive", "kind": "adaptive"}],
            "budget_us": None, "max_cycles": 4000,
            "exposure": {"enabled": True, "epsilon": 0.25},
            "background": {"mode": "estimated"},
        }
        rows, _aggs, failures = sg.run_sweep(sg.parse_config(cfg), threads=1)
        assert not failures
        means.append(float(np.mean([r.exposure_us for r in rows])))
    ok = all(means[i + 1] <= means[i] for i in range(len(means) - 1))
    pretty = ", ".join(f"{m:.2f}" for m in means)
    _announce(capsys, ok,
              f"criterion 8: mean exposure to the 0.25 stopping threshold "
              f"over SBR 1/2/5/10: [{pretty}] us (need non-increasing)")
    assert ok, means


# ---------------------------------------------------------------------------
# 9. The stopping rule is calibrated: among runs stopped at termination
#    value <= 0.25, the point-estimate error rate stays below 0.35.
# ---------------------------------------------------------------------------

def test_criterion_09_stopping_rule_calibration(capsys):
    cfg = {
        "experiment": {"id": "c9", "seeds": 500, "global_seed": GLOBAL_SEED},
        "spad": {"bin_resolution_ps": 100.0, "rep_rate_mhz": 100.0,
                 "dead_time_ns": 81.0},
        "scene": {"depth_bin": 60, "ambient_flux": 0.01, "sbr": 5.0},
        "policies": [{"name": "adaptive", "kind": "adaptive"}],
        "budget_us": None, "max_cycles": 4000,
        "exposure": {"enabled": True, "epsilon": 0.25},
        "background": {"mode": "known"},
    }
    rows, _aggs, failures = sg.run_sweep(sg.parse_config(cfg), threads=1)
    assert not failures
    done = [r for r in rows if r.termination_value <= 0.25]
    error_rate = float(np.mean([r.zero_one_loss for r in done]))
    ok = len(done) >= 400 and error_rate <= 0.35
    _announce(capsys, ok,
              f"criterion 9: {len(done)}/{len(rows)} runs stopped at the "
              f"threshold; error rate among them {error_rate:.4f} "
              f"(need <= 0.35)")
    assert len(done) >= 400
    assert error_rate <= 0.35


# ---------------------------------------------------------------------------
# 10. Byte-identical outputs for identical config and seed, at one worker
#     and at four.
# ---------------------------------------------------------------------------

def test_criterion_10_deterministic_outputs(capsys, tmp_path):
    cfg = {
        "experiment": {"id": "c10", "seeds": 3, "global_seed": 11},
        "spad": {"bin_resolution_ps": 100.0, "rep_rate_mhz": 100.0,
                 "dead_time_ns": 81.0},
        "scene": {"depth_bin": 40, "ambient_flux": 0.02, "sbr": 5.0},
        "policies": [{"name": "adaptive", "kind": "adaptive"},
                     {"name": "free", "kind": "free_running", "estimator": "map"},
                     {"name": "uniform", "kind": "uniform", "estimator": "coates"}],
        "budget_us": 5.0,
        "sweep": {"ambient_flux": [0.01, 0.02]},
        "background": {"mode": "estimated"},
    }
    blobs = []
    for attempt, threads in ((0, 1), (1, 1), (2, 4), (3, 4)):
        rows, aggs, failures = sg.run_sweep(sg.parse_config(cfg), threads=threads)
        assert not failures
        res = tmp_path / f"results-{attempt}.csv"
        agg = tmp_path / f"aggregates-{attempt}.csv"
        sg.write_results_csv(res, rows)
        sg.write_aggregates_csv(agg, aggs)
        blobs.append((res.read_bytes(), agg.read_bytes()))
    ok = all(b == blobs[0] for b in blobs[1:])
    _announce(capsys, ok,
              f"criterion 10: sweep outputs byte-identical over 4 repeats at "
              f"1 and 4 workers ({len(blobs[0][0])}-byte results, "
              f"{len(blobs[0][1])}-byte aggregates)")
    assert ok


# ---------------------------------------------------------------------------
# 11. With an equal two-peak transient, the single-peak posterior converges
#     to one of the two peaks, never elsewhere.
# ---------------------------------------------------------------------------

def test_criterion_11_two_peak_mismatch(capsys):
    cfg = {
        "experiment": {"id": "c11", "seeds": 500, "global_seed": GLOBAL_SEED},
        "spad": {"bin_resolution_ps": 100.0, "rep_rate_mhz": 100.0,
                 "dead_time_ns": 81.0},
        "scene": {"depth_bin": 30, "ambient_flux": 0.01, "sbr": 5.0,
                  "mismatch": {"kind": "two_peak", "second_depth": 70,
                               "second_flux": 0.05}},
        "policies": [{"name": "adaptive", "kind": "adaptive"}],
        "budget_us": 100.0,
        "background": {"mode": "estimated"},
    }
    rows, _aggs, failures = sg.run_sweep(sg.parse_config(cfg), threads=1)
    assert not failures
    bins = [r.est_depth_bin for r in rows]
    n = len(bins)
    first = sum(b in (29, 30, 31) for b in bins) / n
    second = sum(b in (69, 70, 71) for b in bins) / n
    strays = Counter(b for b in bins
                     if b not in (29, 30, 31, 69, 70, 71))
    worst_stray = (max(strays.values()) / n) if strays else 0.0
    ok = first >= 0.20 and second >= 0.20 and worst_stray <= 0.05
    _announce(capsys, ok,
              f"criterion 11: {n} two-peak runs: first peak {first:.3f}, "
              f"second peak {second:.3f} (each >= 0.20); worst stray bin "
              f"{worst_stray:.3f} (<= 0.05)")
    assert first >= 0.20
    assert second >= 0.20
    assert worst_stray <= 0.05
