"""Depth and flux estimators for SPAD timestamp records.

Two estimation routes are provided.  The histogram route inverts pile-up
with Coates' correction and takes the argmax bin.  The Bayesian route
keeps a discrete posterior over (depth bin, signal flux) pairs, the flux
on a grid of candidate values (a known signal flux is a one-value grid).
Its likelihood is the folded-timestamp law of ``core``, which reads a
record only through four sufficient statistics (per-bin detection and
passed-over counts, detected and censored cycle counts).  A whole record
folds in one step from its statistics.  The histogram route reads the
same statistics: a bin's armed passes are its passed-over count, plus
its detections, plus the record's summed elapsed periods
(``timestamps_to_histogram``).

The posterior stores probability mass, not log mass: an unnormalized
(depth, flux) array, flux-major (Fortran order) so that sums over the flux
axis run over contiguous columns, installed with those sums (the
unnormalized depth marginal) and their total.  A Bayes update multiplies
the mass by exp(like - c), c the largest cell of the update's log
likelihood, so every factor is at most 1 and the total only falls; an
install rescales the mass by a power of two, which is exact, only when
its total leaves [2**500, 2**1000].  A cell whose mass falls below the
smallest float becomes 0 and stays 0, which with the total held that high
drops only cells about 1000 nats or more below it.  One cycle gives each
depth row one of three values (its detection bin, a bin of the window it
passed over, any other bin; one value for a censored cycle), each a
vector over the flux grid read off the same law once per posterior (a
posterior holds its one background).  A posterior keeps a buffer shaped
and laid out like its mass; each cycle refills it with the "other"
factors and then writes its window and hit rows, so an update is one
contiguous multiply of the whole joint and one flux-axis sum, with no
exp, log or normalizing pass over the joint.  The Thompson draw, the
stop rule and the readouts read the installed row sums.  A log-domain
parabola fit around the chosen bin recovers sub-bin depth (temporal
dithering).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import AcquisitionRecord, DetectedHistogram, LawStatistics, law_statistics, log1mexp
from .core import peak_columns, peak_log_likelihood, timestamps_to_histogram


@dataclass
class TransientEstimate:
    """Per-bin photon rate estimate with saturation flags."""

    rates: np.ndarray
    saturated: np.ndarray


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

    An all-zero estimate returns bin 0.
    """
    return int(np.argmax(est.rates))


def default_flux_grid(bkg_flux: float, size: int = 16, lo: float = 0.1, hi: float = 100.0) -> np.ndarray:
    """Candidate signal-flux grid: 0 plus log-spaced values around the background.

    Spans [lo * bkg_flux, hi * bkg_flux]; the explicit 0 keeps a
    signal-free hypothesis in play.  Both ends must be positive floats.
    """
    if bkg_flux <= 0:
        raise ValueError("bkg_flux must be positive to scale the grid")
    if size < 1:
        raise ValueError("grid size must be at least 1")
    low, high = lo * bkg_flux, hi * bkg_flux
    if low == 0.0:
        raise ValueError(f"bkg_flux {bkg_flux!r} is too small to scale the grid: {lo!r} * bkg_flux underflows to 0")
    if not math.isfinite(high):
        raise ValueError(f"bkg_flux {bkg_flux!r} is too large to scale the grid: {hi!r} * bkg_flux overflows")
    grid = np.geomspace(low, high, size)
    return np.concatenate(([0.0], grid))


# An install keeps the total mass within [2**_LOW, 2**_HIGH]: outside it the
# mass is multiplied by the power of two (exact) that brings its total just
# under 2**_HIGH.  Updates only lower the total, so the next rescale comes
# once it has fallen by 500 binary orders (about 347 nats).
_LOW, _HIGH = 500, 1000
_RANGE = (2.0**_LOW, 2.0**_HIGH)
# The widest log likelihood ratio one multiply applies: exp(-700) is a
# normal float.
_STEP = 700.0


class DepthPosterior:
    """Discrete posterior over depth bins jointly with signal flux.

    ``mass`` is unnormalized probability mass of shape (B, K): B depth bins
    by the K candidate values of ``flux_grid``, Fortran-ordered
    (flux-major); a known signal flux is a one-value grid.  ``rows`` is its
    flux-axis sum, the unnormalized depth marginal, and ``total`` their
    sum; both are installed with the mass, so the Thompson draw, the stop
    rule and the readouts read a B-vector.  Updates multiply ``mass`` in
    place: code that keeps it across an update must copy it.  The
    constructor copies the mass it is given, which must be (B, K).

    The total is held within [2**500, 2**1000] by exact power-of-two
    rescales, whose rule reads only the array.  A cell whose mass falls
    below the smallest float (about 2**-1074) becomes exactly 0 and stays
    0, even if later cycles favour it; with the total at 2**500 or more
    before each update, an update drops only cells more than 1091 nats,
    less its own likelihood ratio, below that total.  Cells of zero prior
    mass stay 0 as well.

    ``degraded_cycles`` counts cycles whose outcomes had zero probability
    under every cell of positive mass; their update is skipped rather than
    aborting.

    Every update reads the law under the posterior's one background
    ``bkg_flux`` (not negative), through the column terms the constructor
    reads off it (``columns``).  The first one-cycle update adds the
    one-cycle row templates and factor steps (``_cycle_rows``) and a factor
    buffer of the mass's shape, which ``posterior_update`` refills on
    every cycle; a copy starts without them.
    """

    def __init__(self, mass: np.ndarray, flux_grid: np.ndarray, bkg_flux: float, degraded_cycles: int = 0):
        if bkg_flux < 0:
            raise ValueError("bkg_flux cannot be negative")
        self.flux_grid = flux_grid
        self.bkg_flux = bkg_flux
        self.degraded_cycles = degraded_cycles
        mass = np.array(mass, dtype=float, order="F")
        if mass.ndim != 2 or mass.shape[1] != len(flux_grid):
            raise ValueError(f"mass of shape {mass.shape} is not (depth bins, {len(flux_grid)} flux values)")
        if not _install(self, mass, 0):
            raise ValueError("mass needs a finite positive cell")
        self.columns = peak_columns(bkg_flux, flux_grid, mass.shape[0])
        self._templates: tuple | None = None
        self._steps: dict = {}
        self._buffer: np.ndarray | None = None

    @property
    def num_bins(self) -> int:
        return int(self.mass.shape[0])

    def copy(self) -> "DepthPosterior":
        return DepthPosterior(self.mass, self.flux_grid.copy(), self.bkg_flux, self.degraded_cycles)


def _install(post: DepthPosterior, mass: np.ndarray, cycles: int) -> bool:
    """Install ``mass`` with its rows and total, or count ``cycles`` as degraded if it has no mass.

    ``mass`` is a Fortran-ordered array the caller gives up (it may be the
    posterior's own, updated in place).  Rescaled in place when its total
    leaves [2**_LOW, 2**_HIGH].  Returns whether it was installed.
    """
    rows = np.add.reduce(mass, 1)
    total = float(np.add.reduce(rows))
    if not 0.0 < total < math.inf:  # no positive mass, or a NaN
        post.degraded_cycles += cycles
        return False
    if not _RANGE[0] <= total <= _RANGE[1]:  # rescaled, the total is just under 2**_HIGH
        np.ldexp(mass, _HIGH - math.frexp(total)[1], out=mass)
        return _install(post, mass, cycles)
    post.mass, post.rows, post.total = mass, rows, total
    return True


def posterior_init(num_bins: int, flux_grid: np.ndarray, bkg_flux: float,
                   prior: np.ndarray | None = None) -> DepthPosterior:
    """Posterior under background ``bkg_flux`` from a depth prior (uniform when None), flux axis uniform.

    The joint over (depth, flux) starts as prior(depth) / K for the K
    values of ``flux_grid``, and updates marginalize nothing away.
    """
    if num_bins < 1:
        raise ValueError("num_bins must be at least 1")
    if prior is None:
        prior = np.ones(num_bins)
    else:
        prior = np.asarray(prior, dtype=float)
        if prior.shape != (num_bins,):
            raise ValueError("prior must have one entry per depth bin")
        if np.any(prior < 0) or prior.sum() <= 0:
            raise ValueError("prior must be nonnegative with positive mass")
    flux_grid = np.asarray(flux_grid, dtype=float)
    if flux_grid.ndim != 1 or flux_grid.size < 1 or np.any(flux_grid < 0):
        raise ValueError("flux_grid must be a 1-d nonnegative array")
    return DepthPosterior(np.repeat(prior[:, None], flux_grid.size, axis=1), flux_grid, bkg_flux)


def _factor_steps(a: np.ndarray) -> list[np.ndarray]:
    """exp(a) for log likelihood ratios a <= 0, as factors of at most _STEP nats each.

    A factor below exp(-708) would be subnormal and keep too few bits for a
    cell whose prior favours it by as much, so a wider ``a`` is split into
    steps applied one after another (their product is exp(a)).  One factor,
    exp(a), unless some finite entry lies more than _STEP nats down.
    """
    steps = max(1, math.ceil(-a[a > -np.inf].min() / _STEP))
    if steps == 1:
        return [np.exp(a)]
    out = [np.exp(np.clip(a + k * _STEP, -_STEP, 0.0)) for k in range(steps)]
    out[0][a == -np.inf] = 0.0
    return out


def _fold(post: DepthPosterior, stats: LawStatistics) -> DepthPosterior:
    """Bayes update by cycle outcomes summarized as ``stats``, in place.

    Every (depth, flux) cell is multiplied by exp(like - c), its law
    likelihood over the largest cell's: one exp, taken in place on the
    flux-major likelihood, when every cell lies within _STEP nats of c;
    otherwise in the steps of ``_factor_steps``, with an install after
    each.  If the outcomes have zero probability under every cell of
    positive mass, the posterior is left unchanged and all of them count
    in ``degraded_cycles``.
    """
    like = peak_log_likelihood(stats, post.columns)
    cycles = stats.detected + stats.censored
    c = like.max()
    if not math.isfinite(c):  # no cell can give these outcomes
        post.degraded_cycles += cycles
        return post
    like -= c
    for factor in [np.exp(like, out=like)] if like.min() > -_STEP else _factor_steps(like):
        # The product goes to the factor's own flux-major array, so the mass
        # stays as it was if nothing is left to install.
        if not _install(post, np.multiply(post.mass, factor, out=factor), cycles):
            break
    return post


def _cycle_rows(post: DepthPosterior, combo: tuple | None) -> list | None:
    """One cycle's likelihood factors by depth row type.

    A row's log likelihood takes one of four values (its detection bin, a
    bin of the window the cycle passed over, any other bin; one value for a
    censored cycle), each read off the law under the posterior's
    background on one representative row, once per posterior: O(K) work,
    whatever B.  ``combo`` is (window present, other present) for a
    detection, None for a censored cycle.  Returns, built once per
    combination, its steps: one per step of ``_factor_steps``, each the
    factors (window, hit, other) and whether all are positive.  c is the
    largest log likelihood over the row types present and a factor is
    exp(value - c), what ``_fold`` multiplies by for such a cycle, to the
    bit.  None if no cell can give the combination.
    """
    if post._templates is None:
        # One row of each type: a detected cycle's statistics at its hit, at
        # a bin of its window and at any other bin, then a censored cycle's.
        # The period's total rate still counts all B bins.
        detected = peak_log_likelihood(LawStatistics(np.array([1, 0, 0]), np.array([0, 1, 0]), 1, 0), post.columns)
        censored = peak_log_likelihood(LawStatistics(np.zeros(1, np.int64), np.zeros(1, np.int64), 0, 1), post.columns)
        post._templates = (*detected, censored[0])
    steps = post._steps
    if combo not in steps:
        hit, window, other, censored = post._templates
        if combo is None:
            kinds = (censored, censored, censored)
        else:  # an absent row type is never read
            kinds = (window if combo[0] else hit, hit, other if combo[1] else hit)
        c = max(row.max() for row in kinds)
        steps[combo] = None if not math.isfinite(c) else [
            (*np.split(step, 3), bool(step.all())) for step in _factor_steps(np.concatenate(kinds) - c)
        ]
    return steps[combo]


def _put_rows(buf: np.ndarray, start: int, count: int, value: np.ndarray) -> None:
    """Write ``value`` to rows [start, start + count) of ``buf``, wrapping past its last row."""
    end = start + count
    buf[start:end] = value
    if end > buf.shape[0]:
        buf[:end - buf.shape[0]] = value


def posterior_update(post: DepthPosterior, timestamp: int | None, gate: int) -> DepthPosterior:
    """Bayes update for one cycle outcome under the posterior's background, in place; returns ``post``.

    ``timestamp`` is the folded detection bin, or None for a censored
    cycle.  The one-cycle case of ``posterior_from_record``, to the bit:
    the mass is multiplied by the factor buffer in one multiply, then one
    flux-axis sum installs the rows.  The buffer holds a step's factors for
    every cell: depth rows [gate, gate + window) (mod B) its window
    factors, row gate + window its hit factors, every other row its other
    factors (every row, for a censored cycle).  Each cycle refills it with
    the other factors, then writes its window and hit rows.  The product
    is written in place unless a factor is 0; it then goes to a new array,
    so that an outcome impossible under every cell of positive mass leaves
    the mass as it was.  (With positive factors, all at least exp(-700),
    and a total of at least 2**500 the peak cell stays positive.)
    """
    b = post.mass.shape[0]
    if not 0 <= gate < b:
        raise ValueError(f"gate {gate} outside [0, {b})")
    if timestamp is None:
        combo, window = None, -1
    elif 0 <= timestamp < b:
        window = (timestamp - gate) % b
        combo = (window > 0, window < b - 1)
    else:
        raise ValueError(f"timestamp {timestamp} outside [0, {b})")
    steps = _cycle_rows(post, combo)
    if steps is None:
        post.degraded_cycles += 1
        return post
    buf = post._buffer
    if buf is None:
        buf = post._buffer = np.empty_like(post.mass)  # flux-major, like the mass
    for step in steps:
        buf[...] = step[2]
        if window >= 0:
            _put_rows(buf, gate, window, step[0])
            buf[(gate + window) % b] = step[1]
        mass = post.mass
        if not _install(post, np.multiply(mass, buf, mass if step[3] else np.empty_like(mass)), 1):
            break
    return post


def posterior_from_record(
    record: AcquisitionRecord,
    bkg_flux: float,
    flux_grid: np.ndarray,
    prior: np.ndarray | None = None,
) -> DepthPosterior:
    """Posterior over a whole record, folded in one step from its statistics.

    Cycle order does not matter.  A record impossible under every cell
    leaves the prior and counts all its cycles as degraded.
    """
    post = posterior_init(record.num_bins, flux_grid, bkg_flux, prior)
    if len(record) == 0:  # renormalizing the bare prior would move its last bits
        return post
    stats = law_statistics(record.num_bins, record.gates, record.timestamps, record.detected)
    return _fold(post, stats)


def map_depth(post: DepthPosterior) -> int:
    """Depth bin maximizing the flux-marginalized posterior; ties to lowest index."""
    return int(np.argmax(post.rows))


def posterior_entropy(post: DepthPosterior) -> float:
    """Shannon entropy (nats) of the flux-marginalized depth posterior."""
    p = post.rows / post.total
    log_p = np.log(p, out=np.zeros_like(p), where=p > 0)  # 0 log 0 = 0
    return max(0.0 - float((p * log_p).sum()), 0.0)  # +0.0, not -0.0, at a point mass


class BackgroundEstimate(NamedTuple):
    value: float
    low_confidence: bool
    detections: int


_TRIM_FRACTION = 0.05
_MIN_DETECTIONS = 10


def estimate_background(record: AcquisitionRecord, fallback_flux: float = 0.01) -> BackgroundEstimate:
    """Ambient flux from a record.

    Coates-estimates the transient over the whole record, drops the top
    ``_TRIM_FRACTION`` of armed bins to exclude signal peaks, and averages
    the rest.  Records with fewer than ``_MIN_DETECTIONS`` detections fall
    back to ``fallback_flux`` with the low-confidence flag set; sparse
    calibration (armed passes per bin in the low single digits) biases the
    trimmed mean low because the trim removes most detection-bearing bins.
    """
    detections = int(np.count_nonzero(record.detected))
    if detections < _MIN_DETECTIONS:
        return BackgroundEstimate(fallback_flux, True, detections)
    hist = timestamps_to_histogram(record)
    est = coates_transient(hist)
    observed = est.rates[hist.denominators > 0]
    if observed.size == 0:
        return BackgroundEstimate(fallback_flux, True, detections)
    drop = math.ceil(_TRIM_FRACTION * observed.size)
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
