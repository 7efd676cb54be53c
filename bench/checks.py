"""Correctness checks on benchmark output.

Each check compares the program's rows against a computation written
here, from the acquisition law, or against a property the method must
have; none compares against a stored copy of earlier output.  A check
returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import math

import numpy as np

from workloads import DARK_PIXELS, SCAN_HEIGHT, SCAN_WIDTH, SPEED_OF_LIGHT_M_S

GATED_Z_BOUND = 5.0  # |z| of the pooled true-bin detection count
STOP_ERROR_MARGIN = 0.10  # stopped rows' error rate may exceed epsilon by this
TIE_NATS = 1e-6  # MAP disagreements closer than this in log mass are ties
PAPER_REGENERATED_ROWS = 2  # free-running MAP rows re-derived per round


def _log1mexp(x: np.ndarray) -> np.ndarray:
    """log(1 - exp(-x)) for x > 0."""
    return np.log(-np.expm1(-np.asarray(x, dtype=float)))


def common(rows, num_bins: int, bin_ps: float, posterior_policies: set[str]) -> list[str]:
    """Entropy within [0, ln B]; true depth equals c * bin * dt / 2."""
    problems = []
    ln_b = math.log(num_bins)
    for r in rows:
        expected_m = r.true_depth_bin * SPEED_OF_LIGHT_M_S * bin_ps * 1e-12 / 2.0
        if not math.isclose(r.true_depth_m, expected_m, rel_tol=1e-12, abs_tol=0.0):
            problems.append(f"{r.policy} seed {r.seed}: true_depth_m {r.true_depth_m!r} != {expected_m!r}")
        if r.policy in posterior_policies:
            if not 0.0 <= r.entropy_nats <= ln_b * (1 + 1e-12):
                problems.append(f"{r.policy} seed {r.seed}: entropy {r.entropy_nats!r} outside [0, ln {num_bins}]")
        elif not math.isnan(r.entropy_nats):
            problems.append(f"{r.policy} seed {r.seed}: a histogram-estimator row reports an entropy")
    return problems


def no_failures(failures) -> list[str]:
    return [f"row {f.stream_index} ({f.policy}) failed: {f.error}" for f in failures]


# ---------------------------------------------------------------------------
# gated-sweep


def folded_true_bin_probability(num_bins: int, ambient: float, signal: float, depth: int,
                                max_periods: int) -> np.ndarray:
    """P(a cycle armed at gate g detects and folds onto bin ``depth``), per g.

    The pixel scans from g; the detection lands on ``depth`` in period k
    with probability q^k (1 - e^{-r_d}) e^{-W(g, d)}, where W sums the rates
    of the bins scanned before ``depth`` in one pass and q = e^{-sum r}.
    Cycles still undetected after ``max_periods`` periods are censored, so
    k runs over 0 .. max_periods - 1.
    """
    rates = np.full(num_bins, ambient)
    rates[depth] += signal
    total = float(rates.sum())
    prefix = np.concatenate(([0.0], np.cumsum(np.concatenate([rates, rates]))))
    gates = np.arange(num_bins)
    offsets = (depth - gates) % num_bins
    window = prefix[gates + offsets] - prefix[gates]
    periods = -np.expm1(-max_periods * total) / -np.expm1(-total)  # sum_k q^k
    return -np.expm1(-rates[depth]) * np.exp(-window) * periods


def gated_detections(rows, config, gate: int) -> tuple[list[str], list[str]]:
    """Pooled true-bin detections of fixed and uniform rows against the law.

    The gate sequence is known in advance (constant, or cycle index mod B),
    and a row's cycle count is a stopping time, so the expected count is the
    sum of the per-cycle probabilities over the cycles a row ran.
    """
    problems, notes = [], []
    b = config.resolved_num_bins
    groups: dict[tuple[str, float], list] = {}
    for r in rows:
        if r.policy in ("fixed_coates", "uniform_coates"):
            groups.setdefault((r.policy, r.ambient_flux), []).append(r)
    for (policy, ambient), grp in sorted(groups.items()):
        r0 = grp[0]
        p = folded_true_bin_probability(b, ambient, r0.signal_flux, r0.true_depth_bin, config.max_active_periods)
        var_p = p * (1.0 - p)
        observed = expected = variance = 0.0
        cycles = 0
        for r in grp:
            n = r.cycles
            cycles += n
            observed += r.detections_true_bin
            if policy == "fixed_coates":
                expected += n * p[gate]
                variance += n * var_p[gate]
            else:
                full, rem = divmod(n, b)
                expected += full * p.sum() + p[:rem].sum()
                variance += full * var_p.sum() + var_p[:rem].sum()
        z = (observed - expected) / math.sqrt(variance)
        notes.append(f"{policy} ambient {ambient:g}: detections/cycles {observed / cycles:.5f} "
                     f"vs law {expected / cycles:.5f}, z {z:+.2f}")
        if not abs(z) <= GATED_Z_BOUND:
            problems.append(f"{policy} ambient {ambient:g}: true-bin detections off the law, z = {z:+.2f}")
    return problems, notes


def gated_exposure(rows, config) -> list[str]:
    """Exposure ends within one maximal cycle of the budget."""
    spad = config.spad_config()
    max_cycle_bins = 1 + spad.dead_time_bins + spad.max_active_periods * spad.num_bins
    slack_us = max_cycle_bins * spad.bin_resolution_ps * 1e-6
    return [f"{r.policy} seed {r.seed}: exposure {r.exposure_us} us not within {slack_us} us of {r.budget_us}"
            for r in rows if not abs(r.exposure_us - r.budget_us) <= slack_us]


# ---------------------------------------------------------------------------
# paper-point


def exact_depth_log_marginal(record, bkg: float, flux_grid: np.ndarray, max_periods: int) -> np.ndarray:
    """Depth marginal of the (depth, flux) posterior under the exact law.

    Uniform priors.  For depth d and signal flux s, a detected cycle folding
    onto t after scanning the bins [g, t) of one pass has probability
    (1 - e^{-r_t}) e^{-W} (1 - q^C) / (1 - q), and a censored cycle q^C, with
    q = e^{-(B bkg + s)} and C = max_periods.  Terms equal for every (d, s)
    are dropped; what remains depends on the record through four
    statistics: detections per bin, detected cycles that scanned past each
    bin, and the numbers of detected and censored cycles.
    """
    b = record.num_bins
    det = record.detected
    gates = record.gates[det]
    stamps = record.timestamps[det]
    n_det = int(det.sum())
    n_cens = len(record) - n_det
    counts = np.bincount(stamps, minlength=b)
    diff = np.zeros(2 * b + 1)
    np.add.at(diff, gates, 1.0)
    np.add.at(diff, gates + (stamps - gates) % b, -1.0)
    covered = np.cumsum(diff)[: 2 * b]
    passed = covered[:b] + covered[b:]
    s = np.asarray(flux_grid, dtype=float)[None, :]
    total = b * bkg + s
    loglik = (counts[:, None] * (_log1mexp(bkg + s) - _log1mexp(bkg))
              - passed[:, None] * s
              + n_det * (_log1mexp(max_periods * total) - _log1mexp(total))
              - n_cens * max_periods * total)
    m = loglik.max()
    return np.log(np.exp(loglik - m).sum(axis=1)) + m


def paper_map(sg, rows, config) -> tuple[list[str], list[str]]:
    """Regenerate free-running MAP records and recompute their MAP depth."""
    problems, notes = [], []
    chosen = [r for r in rows if r.policy == "free_map"][:PAPER_REGENERATED_ROWS]
    if not chosen:
        return ["no free-running MAP row to regenerate"], notes
    spad = config.spad_config()
    for r in chosen:
        scene = sg.SceneTransient(num_bins=spad.num_bins, ambient_flux=r.ambient_flux,
                                  peaks=((r.true_depth_bin, r.signal_flux),))
        record = sg.run_acquisition(scene, spad, sg.FreeRunningPolicy(), budget_bins=config.budget_bins(),
                                    max_cycles=config.max_cycles, seed=sg.stream_rng(config.global_seed, r.seed))
        if len(record) != r.cycles:
            problems.append(f"free_map seed {r.seed}: regenerated {len(record)} cycles, row has {r.cycles}")
            continue
        bkg = sg.estimate_background(record, fallback_flux=config.background_fallback).value
        grid = np.concatenate(([0.0], np.geomspace(config.flux_grid_lo * bkg, config.flux_grid_hi * bkg,
                                                   config.flux_grid_size)))
        marginal = exact_depth_log_marginal(record, bkg, grid, spad.max_active_periods)
        mine = int(np.argmax(marginal))
        gap = float(marginal[mine] - marginal[r.est_depth_bin])
        notes.append(f"free_map seed {r.seed}: MAP bin {mine}, row {r.est_depth_bin}, gap {gap:.3g} nats")
        if mine != r.est_depth_bin and gap > TIE_NATS:
            problems.append(f"free_map seed {r.seed}: exact-law MAP bin {mine} != row's {r.est_depth_bin} "
                            f"({gap:.3g} nats apart)")
    return problems, notes


# ---------------------------------------------------------------------------
# adaptive-stop


def stopping(rows, config) -> tuple[list[str], list[str]]:
    """Early stops happen only below epsilon; their error rate stays near it."""
    eps = config.exposure_epsilon
    problems = [f"seed {r.seed}: stopped at {r.cycles} cycles with termination {r.termination_value} >= {eps}"
                for r in rows if r.cycles < config.max_cycles and not r.termination_value < eps]
    stopped = [r for r in rows if r.cycles < config.max_cycles]
    if not stopped:
        return problems + ["no row stopped before max_cycles"], []
    rate = sum(r.zero_one_loss for r in stopped) / len(stopped)
    notes = [f"{len(stopped)}/{len(rows)} rows stopped early; their error rate {rate:.3f} (epsilon {eps})"]
    if rate > eps + STOP_ERROR_MARGIN:
        problems.append(f"error rate among stopped rows {rate:.3f} > epsilon {eps} + {STOP_ERROR_MARGIN}")
    return problems, notes


# ---------------------------------------------------------------------------
# dark-scan

DARK_FAULT = "ValueError: bkg_flux must be positive to scale the grid"


def dark_scan(rows, maps, failures, policies) -> list[str]:
    """Exactly the dark pixels' adaptive and MAP rows fail; the rest are whole."""
    problems = []
    names = [p.name for p in policies]
    expected = {(p.name, x, y) for p in policies if p.kind == "adaptive" or p.estimator == "map"
                for x, y in DARK_PIXELS}
    failed = set()
    for f in failures:
        local = f.stream_index - names.index(f.policy) * SCAN_WIDTH * SCAN_HEIGHT
        y, x = divmod(local, SCAN_WIDTH)
        failed.add((f.policy, x, y))
        if f.error != DARK_FAULT:
            problems.append(f"{f.policy} ({x}, {y}) failed with {f.error!r}")
    if failed != expected:
        problems.append(f"failed rows {sorted(failed)} != dark-pixel rows {sorted(expected)}")
    if len(rows) + len(failures) != len(names) * SCAN_WIDTH * SCAN_HEIGHT:
        problems.append(f"{len(rows)} rows + {len(failures)} failures do not cover the scan")
    for p in policies:
        posterior = p.kind == "adaptive" or p.estimator == "map"
        for key, grid in maps[p.name].items():
            if key == "entropy_nats" and not posterior:
                continue
            for y in range(SCAN_HEIGHT):
                for x in range(SCAN_WIDTH):
                    if ((p.name, x, y) in expected) == bool(np.isfinite(grid[y, x])):
                        problems.append(f"{p.name} {key} ({x}, {y}) = {grid[y, x]!r}")
    return problems
