"""Depth and flux estimators for SPAD timestamp records.

Two estimation routes are provided.  The histogram route inverts pile-up
with Coates' correction and takes the argmax bin.  The Bayesian route
keeps a discrete posterior over depth bins, jointly with a grid of
candidate signal-flux values.  Its likelihood is the folded-timestamp law
of ``core``, which reads a record only through four sufficient statistics
(per-bin detection and passed-over counts, detected and censored cycle
counts).  A whole record folds in one step from its statistics.  One
cycle gives each depth row one of three values (its detection bin, a bin
of the window it passed over, any other bin; one value for a censored
cycle), each a vector over the flux grid read off the same law once per
posterior and background, so an update is three row adds and one
normalization.  Depth decisions marginalize the flux axis; the depth
marginal is computed once per posterior state.  A log-domain parabola fit
around the chosen bin recovers sub-bin depth (temporal dithering).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import AcquisitionRecord, DetectedHistogram, LawStatistics, law_statistics, log1mexp, peak_log_likelihood
from .core import timestamps_to_histogram


def logsumexp(a: np.ndarray, axis: int | None = None) -> np.ndarray | float:
    """Max-shifted log(sum(exp(a))); tolerates all -inf slices."""
    a = np.asarray(a, dtype=float)
    # With every max finite nothing can warn or need masking; the
    # reductions are the same as below, so the result is the same bits.
    if axis is None:
        m = a.max()
        if math.isfinite(m):
            return float(np.log(np.exp(a - m).sum()) + m)
    else:
        m = a.max(axis=axis, keepdims=True)
        if np.isfinite(m).all():
            return (np.log(np.exp(a - m).sum(axis=axis, keepdims=True)) + m).squeeze(axis)
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True)) + m
    if axis is None:
        return float(out.item())
    return np.squeeze(out, axis=axis)


@dataclass
class TransientEstimate:
    """Per-bin photon rate estimate with saturation flags."""

    rates: np.ndarray
    saturated: np.ndarray

    @property
    def degenerate(self) -> bool:
        """True when no bin carries a positive estimate."""
        return not bool(np.any(self.rates > 0))


def coates_transient(hist: DetectedHistogram) -> TransientEstimate:
    """Coates' pile-up-corrected rate estimate ln(D_i / (D_i - N_i)).

    Bins never armed (D_i = 0) report 0.  Saturated bins (every armed pass
    detected, N_i = D_i > 0) are clamped by treating half a pass as
    undetected and flagged, keeping the estimate finite.
    """
    d = hist.denominators.astype(float)
    n = hist.counts.astype(float)
    saturated = (hist.counts == hist.denominators) & (hist.denominators > 0)
    n_eff = np.where(saturated, d - 0.5, n)
    rates = np.zeros(hist.num_bins)
    armed = d > 0
    rates[armed] = np.log(d[armed] / (d[armed] - n_eff[armed]))
    return TransientEstimate(rates=rates, saturated=saturated)


def coates_depth(est: TransientEstimate) -> int:
    """Argmax bin of the rate estimate; ties break to the lowest index.

    A degenerate all-zero estimate returns bin 0 (check ``est.degenerate``).
    """
    return int(np.argmax(est.rates))


def default_flux_grid(bkg_flux: float, size: int = 16, lo: float = 0.1, hi: float = 100.0) -> np.ndarray:
    """Candidate signal-flux grid: 0 plus log-spaced values around the background.

    Spans [lo * bkg_flux, hi * bkg_flux]; the explicit 0 keeps a
    signal-free hypothesis in play.
    """
    if bkg_flux <= 0:
        raise ValueError("bkg_flux must be positive to scale the grid")
    if size < 1:
        raise ValueError("grid size must be at least 1")
    grid = np.geomspace(lo * bkg_flux, hi * bkg_flux, size)
    return np.concatenate(([0.0], grid))


@dataclass
class DepthPosterior:
    """Discrete posterior over depth bins, optionally joint with signal flux.

    ``log_mass`` is kept normalized (logsumexp 0) with shape (B,) for a
    known signal flux or (B, K) jointly with ``flux_grid`` of K candidate
    values.  ``degraded_cycles`` counts cycles whose outcomes had zero
    probability under every hypothesis; their update is skipped rather
    than aborting.  Updates replace ``log_mass`` with a new array and never
    write into it: the depth marginal is cached against the array object
    it came from, so code that edits the mass must assign a new array too.
    """

    log_mass: np.ndarray
    flux_grid: np.ndarray | None = None
    degraded_cycles: int = 0
    _marginal: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _rows: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def num_bins(self) -> int:
        return int(self.log_mass.shape[0])

    @property
    def joint(self) -> bool:
        return self.log_mass.ndim == 2

    def depth_log_marginal(self) -> np.ndarray:
        """Flux-marginalized depth log mass (read-only), once per ``log_mass`` array."""
        if not self.joint:
            return self.log_mass
        if self._marginal is None or self._marginal[0] is not self.log_mass:
            marginal = logsumexp(self.log_mass, axis=1)
            marginal.flags.writeable = False
            self._marginal = (self.log_mass, marginal)
        return self._marginal[1]

    def flux_log_marginal(self) -> np.ndarray:
        if not self.joint:
            raise ValueError("posterior has no flux axis")
        return logsumexp(self.log_mass, axis=0)

    def copy(self) -> "DepthPosterior":
        return DepthPosterior(
            log_mass=self.log_mass.copy(),
            flux_grid=None if self.flux_grid is None else self.flux_grid.copy(),
            degraded_cycles=self.degraded_cycles,
        )


def posterior_init(
    num_bins: int,
    prior: np.ndarray | None = None,
    flux_grid: np.ndarray | None = None,
) -> DepthPosterior:
    """Posterior from a depth prior (uniform when None), flux axis uniform.

    With a ``flux_grid`` the joint over (depth, flux) starts as
    prior(depth) / K and updates marginalize nothing away; without one the
    posterior is depth-only and updates need an explicit signal flux.
    """
    if num_bins < 1:
        raise ValueError("num_bins must be at least 1")
    if prior is None:
        log_prior = np.full(num_bins, -math.log(num_bins))
    else:
        prior = np.asarray(prior, dtype=float)
        if prior.shape != (num_bins,):
            raise ValueError("prior must have one entry per depth bin")
        if np.any(prior < 0) or prior.sum() <= 0:
            raise ValueError("prior must be nonnegative with positive mass")
        with np.errstate(divide="ignore"):
            log_prior = np.log(prior) - math.log(prior.sum())
    if flux_grid is None:
        return DepthPosterior(log_mass=log_prior)
    flux_grid = np.asarray(flux_grid, dtype=float)
    if flux_grid.ndim != 1 or flux_grid.size < 1 or np.any(flux_grid < 0):
        raise ValueError("flux_grid must be a 1-d nonnegative array")
    k = flux_grid.size
    log_mass = log_prior[:, None] - math.log(k) + np.zeros((1, k))
    return DepthPosterior(log_mass=log_mass, flux_grid=flux_grid)


def _flux_axis(post: DepthPosterior, bkg_flux: float, signal_flux: float | None) -> np.ndarray:
    """The flux values of the posterior's columns, after checking the arguments.

    Joint posteriors carry their own grid; depth-only posteriors require
    ``signal_flux``.
    """
    if bkg_flux < 0:
        raise ValueError("bkg_flux cannot be negative")
    if post.joint:
        if signal_flux is not None:
            raise ValueError("joint posterior already carries a flux grid")
        return post.flux_grid
    if signal_flux is None or signal_flux < 0:
        raise ValueError("depth-only posterior needs a nonnegative signal_flux")
    return np.array([float(signal_flux)])


def _normalize(post: DepthPosterior, updated: np.ndarray, cycles: int) -> DepthPosterior:
    """Install ``updated`` renormalized, or count ``cycles`` as degraded if it has no mass."""
    z = logsumexp(updated)
    if not math.isfinite(z):
        post.degraded_cycles += cycles
        return post
    post.log_mass = updated - z
    return post


def _fold(post: DepthPosterior, stats: LawStatistics, bkg_flux: float, signal_flux: float | None) -> DepthPosterior:
    """Bayes update by cycle outcomes summarized as ``stats``, in place.

    Every (depth, flux) cell updates from its own hypothesis.  If the
    outcomes have zero probability under every cell, the posterior is left
    unchanged and all of them count in ``degraded_cycles``.
    """
    like = peak_log_likelihood(stats, bkg_flux, _flux_axis(post, bkg_flux, signal_flux))
    if not post.joint:
        like = like[:, 0]
    return _normalize(post, post.log_mass + like, stats.detected + stats.censored)


def _cycle_rows(post: DepthPosterior, bkg_flux: float, signal_flux: float | None) -> tuple:
    """One cycle's log likelihood by depth row: (detection bin, window bin, other bin, censored).

    A row's value depends only on its own detection and passed-over counts,
    the cycle counts, B, the background and the flux grid, so each is read
    off the law on a template cycle, once per posterior and background.
    """
    key = (post.log_mass.shape, bkg_flux, signal_flux)
    if post._rows is not None and post._rows[0] == key and post._rows[1] is post.flux_grid:
        return post._rows[2]
    flux = _flux_axis(post, bkg_flux, signal_flux)
    b = post.num_bins

    def law(gate: int, timestamp: int) -> np.ndarray:
        like = peak_log_likelihood(law_statistics(b, [gate], [timestamp], [timestamp >= 0]), bkg_flux, flux)
        return like if post.joint else like[:, 0]

    # Templates: a detection at its own gate, bin 0, so the last bin is
    # neither hit nor passed over; a detection at bin 0 whose window wrapped
    # from the last bin; a censored cycle.  With one bin only the detection
    # row is ever used.
    at_gate, wrapped = law(0, 0), law(b - 1, 0)
    rows = (at_gate[0], wrapped[-1], at_gate[-1], law(0, -1)[0])
    post._rows = (key, post.flux_grid, rows)
    return rows


def posterior_update(
    post: DepthPosterior,
    timestamp: int | None,
    gate: int,
    bkg_flux: float,
    signal_flux: float | None = None,
) -> DepthPosterior:
    """Bayes update for one cycle outcome, in place; returns ``post``.

    ``timestamp`` is the folded detection bin, or None for a censored
    cycle.  The one-cycle case of ``posterior_from_record``, to the bit:
    every row takes the "other" (or censored) value, then the window bins
    and the detection bin take theirs, then one normalization.
    """
    b = post.num_bins
    if not 0 <= gate < b:
        raise ValueError(f"gate {gate} outside [0, {b})")
    if timestamp is not None and not 0 <= timestamp < b:
        raise ValueError(f"timestamp {timestamp} outside [0, {b})")
    hit, window, other, censored = _cycle_rows(post, bkg_flux, signal_flux)
    mass = post.log_mass
    if timestamp is None:
        return _normalize(post, mass + censored, 1)
    updated = mass + other
    spans = ((gate, timestamp),) if gate <= timestamp else ((gate, b), (0, timestamp))
    for lo, hi in spans:
        updated[lo:hi] = mass[lo:hi] + window
    updated[timestamp] = mass[timestamp] + hit
    return _normalize(post, updated, 1)


def posterior_from_record(
    record: AcquisitionRecord,
    bkg_flux: float,
    prior: np.ndarray | None = None,
    flux_grid: np.ndarray | None = None,
    signal_flux: float | None = None,
) -> DepthPosterior:
    """Posterior over a whole record, folded in one step from its statistics.

    Cycle order does not matter.  A record impossible under every cell
    leaves the prior and counts all its cycles as degraded.
    """
    post = posterior_init(record.num_bins, prior=prior, flux_grid=flux_grid)
    if len(record) == 0:  # renormalizing the bare prior would move its last bits
        return post
    stats = law_statistics(record.num_bins, record.gates, record.timestamps, record.detected)
    return _fold(post, stats, bkg_flux, signal_flux)


def map_depth(post: DepthPosterior) -> int:
    """Depth bin maximizing the flux-marginalized posterior; ties to lowest index."""
    return int(np.argmax(post.depth_log_marginal()))


def posterior_entropy(post: DepthPosterior) -> float:
    """Shannon entropy (nats) of the flux-marginalized depth posterior."""
    lm = post.depth_log_marginal()
    p = np.exp(lm)
    with np.errstate(invalid="ignore"):
        terms = np.where(p > 0, p * lm, 0.0)
    return max(0.0 - float(terms.sum()), 0.0)  # +0.0, not -0.0, at a point mass


class BackgroundEstimate(NamedTuple):
    value: float
    low_confidence: bool
    detections: int


def estimate_background(
    record: AcquisitionRecord,
    fallback_flux: float = 0.01,
    trim_fraction: float = 0.05,
    min_detections: int = 10,
) -> BackgroundEstimate:
    """Ambient flux from a record's calibration cycles.

    Coates-estimates the transient over the first ``calibration_cycles``
    cycles (the whole record when none are marked), drops the top
    ``trim_fraction`` of armed bins to exclude signal peaks, and averages
    the rest.  Records with fewer than ``min_detections`` detections fall
    back to ``fallback_flux`` with the low-confidence flag set; sparse
    calibration (armed passes per bin in the low single digits) biases the
    trimmed mean low because the trim removes most detection-bearing bins.
    """
    cal = record.head(record.calibration_cycles) if record.calibration_cycles > 0 else record
    detections = int(np.count_nonzero(cal.detected))
    if detections < min_detections:
        return BackgroundEstimate(fallback_flux, True, detections)
    hist = timestamps_to_histogram(cal)
    est = coates_transient(hist)
    observed = est.rates[hist.denominators > 0]
    if observed.size == 0:
        return BackgroundEstimate(fallback_flux, True, detections)
    drop = math.ceil(trim_fraction * observed.size)
    kept = np.sort(observed)[: observed.size - drop] if drop else np.sort(observed)
    if kept.size == 0 or kept.mean() <= 0:
        return BackgroundEstimate(fallback_flux, True, detections)
    return BackgroundEstimate(float(kept.mean()), False, detections)


def dither_depth(est: TransientEstimate, depth: int, window: int = 3) -> float:
    """Sub-bin depth from a log-domain parabola around ``depth``.

    Fits log rate over the ``window`` bins centered on the estimate
    (clipped at the period edges) and returns the parabola vertex, clamped
    to the window.  Degenerate fits (fewer than 3 positive-rate points,
    flat window, or upward curvature) return ``depth`` unchanged.
    """
    if window < 3 or window % 2 == 0:
        raise ValueError("window must be an odd count >= 3")
    b = est.rates.size
    if not 0 <= depth < b:
        raise ValueError(f"depth {depth} outside [0, {b})")
    half = window // 2
    lo = max(depth - half, 0)
    hi = min(depth + half, b - 1)
    bins = np.arange(lo, hi + 1)
    vals = est.rates[bins]
    keep = vals > 0
    if keep.sum() < 3:
        return float(depth)
    x = (bins[keep] - depth).astype(float)
    y = np.log(vals[keep])
    if np.ptp(y) == 0.0:
        return float(depth)
    if x.size == 3:
        # Closed-form vertex of the parabola through three points.
        denom = y[0] - 2.0 * y[1] + y[2]
        if denom >= 0.0 or x[1] - x[0] != 1.0 or x[2] - x[1] != 1.0:
            return float(depth)
        offset = x[1] + (y[0] - y[2]) / (2.0 * denom)
    else:
        a, bcoef, _ = np.polyfit(x, y, 2)
        if a >= 0.0:
            return float(depth)
        offset = -bcoef / (2.0 * a)
    offset = min(max(offset, x[0]), x[-1])
    return float(depth + offset)
