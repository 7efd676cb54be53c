"""Timing model and exact detection probabilities for gated SPAD lidar.

A SPAD pixel synchronized to a pulsed laser divides each pulse period into
``num_bins`` discrete time bins.  Photon arrivals in bin ``i`` are Poisson
with per-pulse rate ``r[i]``, so the probability that an armed pixel fires
in that bin is ``1 - exp(-r[i])``.  Once armed at a gate bin the pixel
stays active, scanning bins in time order (wrapping across pulse periods),
until its first detection; the avalanche then starts the dead time.
Hardware timestamps are recorded modulo the pulse period (folded).

Everything downstream (estimators, gating policies, the simulator) is built
on the per-cycle probability kernels in this module.  The log likelihood
of folded timestamps is written once (``_law``), on four sufficient
statistics of the cycles (``law_statistics``).  Over the one-peak scenes
of the depth posterior it is ``peak_log_likelihood``, which reads the
flux-grid terms a posterior computes once (``peak_columns``) and builds
the (depth, flux) array flux-major, in a few contiguous passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

SPEED_OF_LIGHT_M_S = 299_792_458.0
_LN2 = math.log(2.0)


def derive_num_bins(bin_resolution_ps: float, rep_rate_hz: float) -> int:
    """Number of whole time bins per pulse period, floor(period / bin).

    A 1e-9 relative nudge absorbs representation error so that exact
    integer ratios (e.g. 100 ps at 20 MHz -> 500) never floor one short.
    """
    if bin_resolution_ps <= 0 or rep_rate_hz <= 0:
        raise ValueError("bin resolution and repetition rate must be positive")
    ratio = 1.0 / (bin_resolution_ps * 1e-12 * rep_rate_hz)
    return int(math.floor(ratio * (1.0 + 1e-9)))


def depth_to_bin(depth_m: float, bin_resolution_ps: float) -> int:
    """Round-trip time-of-flight bin index for a target at ``depth_m``."""
    return int(math.floor(2.0 * depth_m / (SPEED_OF_LIGHT_M_S * bin_resolution_ps * 1e-12)))


def bin_to_depth(depth_bin: float, bin_resolution_ps: float) -> float:
    """Depth in meters for a (possibly fractional) time-of-flight bin."""
    return depth_bin * SPEED_OF_LIGHT_M_S * bin_resolution_ps * 1e-12 / 2.0


@dataclass(frozen=True)
class SpadConfig:
    """Pixel timing parameters.

    Defaults: 100 ps bins at a 20 MHz repetition rate (500 bins per
    period) and an 81 ns dead time, quantized up to 810 whole bins.
    """

    bin_resolution_ps: float = 100.0
    rep_rate_hz: float = 20e6
    num_bins: int = 500
    dead_time_ns: float = 81.0
    max_active_periods: int = 16

    def __post_init__(self) -> None:
        if self.bin_resolution_ps <= 0 or self.rep_rate_hz <= 0:
            raise ValueError("bin resolution and repetition rate must be positive")
        if self.num_bins < 1:
            raise ValueError("num_bins must be at least 1")
        if self.dead_time_ns < 0:
            raise ValueError("dead time cannot be negative")
        if self.max_active_periods < 1:
            raise ValueError("max_active_periods must be at least 1")

    @property
    def dead_time_bins(self) -> int:
        """Dead time quantized up to whole bins (ceil, fuzz-tolerant), at least one.

        The pixel re-arms this many bins after its detection bin.  The
        detection bin itself is spent even at zero dead time, so a detected
        cycle lasts at least one bin and a budget bounds the cycle count.
        """
        raw = self.dead_time_ns * 1000.0 / self.bin_resolution_ps
        return max(1, int(math.ceil(raw - 1e-9)))


@dataclass
class SceneTransient:
    """Per-pulse photon rates r[i] seen by one pixel.

    ``ambient_flux`` is a constant background rate per bin; each peak adds
    ``flux`` photons/pulse at a single bin.  An optional exponential tail
    (amplitude, decay per bin), anchored just after the first peak, models
    multi-bounce returns: amp * exp(-decay * (i - d)) for i > d within the
    period.  The rates must sum to a finite total over one period.  Treat
    instances as immutable; the dense rate array is cached.
    """

    num_bins: int
    ambient_flux: float
    peaks: tuple[tuple[int, float], ...] = ()
    tail: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if self.num_bins < 1:
            raise ValueError("num_bins must be at least 1")
        if self.ambient_flux < 0:
            raise ValueError("ambient flux cannot be negative")
        self.peaks = tuple((int(d), float(f)) for d, f in self.peaks)
        for d, f in self.peaks:
            if not 0 <= d < self.num_bins:
                raise ValueError(f"peak bin {d} outside [0, {self.num_bins})")
            if f < 0:
                raise ValueError("peak flux cannot be negative")
        if self.tail is not None:
            if not self.peaks:
                raise ValueError("a tail needs a peak to anchor to")
            amp, decay = self.tail
            if amp < 0 or decay <= 0:
                raise ValueError("tail amplitude must be >= 0 and decay > 0")
            self.tail = (float(amp), float(decay))
        with np.errstate(over="ignore"):
            total = self.total_rate
        if not math.isfinite(total):
            raise ValueError(f"the rates sum to {total!r} over one period; the total must be finite")

    @cached_property
    def rates(self) -> np.ndarray:
        r = np.full(self.num_bins, float(self.ambient_flux))
        for d, f in self.peaks:
            r[d] += f
        if self.tail is not None:
            amp, decay = self.tail
            d0 = self.peaks[0][0]
            i = np.arange(d0 + 1, self.num_bins)
            r[i] += amp * np.exp(-decay * (i - d0))
        r.flags.writeable = False
        return r

    @cached_property
    def scan_prefix(self) -> np.ndarray:
        """Cumulative rates: entry j is sum(rates[:j]), length num_bins + 1."""
        p = np.concatenate(([0.0], np.cumsum(self.rates)))
        p.flags.writeable = False
        return p

    @cached_property
    def scan_prefix_list(self) -> list[float]:
        """``scan_prefix`` as Python floats, for the scalar scan's bisection."""
        return self.scan_prefix.tolist()

    @cached_property
    def total_rate(self) -> float:
        # Taken from scan_prefix so samplers that walk the prefix and code
        # that folds whole periods agree to the last ulp.
        return float(self.scan_prefix[-1])

    @classmethod
    def from_rates(cls, rates: np.ndarray) -> "SceneTransient":
        """Scene with an explicit per-bin rate array."""
        rates = np.asarray(rates, dtype=float)
        if rates.ndim != 1 or rates.size < 1:
            raise ValueError("rates must be a 1-d array")
        if np.any(rates < 0):
            raise ValueError("rates cannot be negative")
        peaks = tuple((int(i), float(v)) for i, v in enumerate(rates) if v > 0)
        return cls(num_bins=int(rates.size), ambient_flux=0.0, peaks=peaks)


@dataclass
class AcquisitionRecord:
    """Per-cycle observations from one pixel acquisition.

    ``timestamps`` hold folded detection bins in [0, num_bins); censored
    cycles (no detection within the active-period cap) store -1 with
    ``detected`` False.  ``elapsed_periods`` counts whole pulse periods
    between arming and detection (the cap count for censored cycles), never
    negative; it enters the histogram only through its sum, and the law's
    estimators never condition on it.  ``cycle_durations`` count absolute
    bins consumed per cycle including re-arm wait and dead time, so they
    sum to ``exposure_bins``.
    A record holds outcomes only: which of its cycles a policy spent on
    calibration is the policy's to say (``calibration_cycles``).
    """

    num_bins: int
    gates: np.ndarray
    timestamps: np.ndarray
    detected: np.ndarray
    elapsed_periods: np.ndarray
    cycle_durations: np.ndarray
    exposure_bins: int

    def __post_init__(self) -> None:
        self.gates = np.asarray(self.gates, dtype=np.int64)
        self.timestamps = np.asarray(self.timestamps, dtype=np.int64)
        self.detected = np.asarray(self.detected, dtype=bool)
        self.elapsed_periods = np.asarray(self.elapsed_periods, dtype=np.int64)
        self.cycle_durations = np.asarray(self.cycle_durations, dtype=np.int64)
        n = len(self.gates)
        for name in ("timestamps", "detected", "elapsed_periods", "cycle_durations"):
            if len(getattr(self, name)) != n:
                raise ValueError("per-cycle arrays must have equal length")
        if n:
            if self.gates.min() < 0 or self.gates.max() >= self.num_bins:
                raise ValueError("gate outside [0, num_bins)")
            ts = self.timestamps
            if np.any(ts[self.detected] < 0) or np.any(ts >= self.num_bins):
                raise ValueError("timestamp outside [0, num_bins)")
            if np.any(ts[~self.detected] != -1):
                raise ValueError("censored cycles must store timestamp -1")
            if self.elapsed_periods.min() < 0:
                raise ValueError("elapsed_periods cannot be negative")

    def __len__(self) -> int:
        return len(self.gates)


@dataclass
class DetectedHistogram:
    """Detection counts and armed-pass denominators per bin.

    ``counts[i]`` is the number of detections folded into bin ``i``;
    ``denominators[i]`` is the number of times bin ``i`` was armed with no
    detection yet (the detection bin itself included).  A cycle that scans
    several pulse periods contributes one pass per scan of the bin.  So
    ``denominators == passed + counts + E``, with ``passed`` the law
    statistics of the detected cycles and E the record's summed
    ``elapsed_periods`` (censored cycles included).
    """

    counts: np.ndarray
    denominators: np.ndarray

    def __post_init__(self) -> None:
        self.counts = np.asarray(self.counts, dtype=np.int64)
        self.denominators = np.asarray(self.denominators, dtype=np.int64)
        if self.counts.shape != self.denominators.shape:
            raise ValueError("counts and denominators must align")
        if np.any(self.counts > self.denominators):
            raise ValueError("counts cannot exceed denominators")
        if np.any(self.counts < 0):
            raise ValueError("counts cannot be negative")

    @property
    def num_bins(self) -> int:
        return int(self.counts.size)


def no_detection_probability(scene: SceneTransient) -> float:
    """Probability of surviving one full period armed, exp(-sum r), whatever the gate."""
    return math.exp(-scene.total_rate)


def detection_distribution(scene: SceneTransient, gate: int) -> np.ndarray:
    """Detection probabilities by scan offset: entry n is p(t = gate + n).

    The pixel arms at ``gate`` and scans bins gate, gate+1, ... (indices
    mod num_bins).  A detection in a later period k has probability
    no_detection_probability**k times its entry here.  Sums to
    1 - no_detection_probability (telescoping).
    """
    if not 0 <= gate < scene.num_bins:
        raise ValueError(f"gate {gate} outside [0, {scene.num_bins})")
    r = np.roll(scene.rates, -gate)
    survived = np.concatenate(([0.0], np.cumsum(r[:-1])))
    return -np.expm1(-r) * np.exp(-survived)


def log1mexp(x: np.ndarray | float) -> np.ndarray | float:
    """log(1 - exp(-x)) for x >= 0, stable at both ends; -inf at x <= 0."""
    arr = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(arr > _LN2, np.log1p(-np.exp(-arr)), np.log(-np.expm1(-arr)))
    out = np.where(arr > 0, out, -np.inf)
    return float(out) if out.ndim == 0 else out


class LawStatistics(NamedTuple):
    """What the folded-timestamp law reads from cycle outcomes: detections
    per bin, detected cycles whose window [gate, timestamp) covered each
    bin, and the numbers of detected and censored cycles."""

    counts: np.ndarray
    passed: np.ndarray
    detected: int
    censored: int


def law_statistics(num_bins: int, gates, timestamps, detected) -> LawStatistics:
    """Sufficient statistics of per-cycle (gate, folded timestamp, detected) outcomes.

    A detected cycle's window [gate, timestamp) is shorter than a period,
    so ``passed`` is one difference array over one period: +1 at each
    gate, -1 at each timestamp, summed up, plus 1 in every bin for each
    window that wraps past the period's end (timestamp < gate).
    """
    det = np.asarray(detected, dtype=bool)
    gates = np.asarray(gates, dtype=np.int64)
    stamps = np.asarray(timestamps, dtype=np.int64)
    if not det.all():
        gates, stamps = gates[det], stamps[det]
    counts = np.bincount(stamps, minlength=num_bins)
    passed = np.cumsum(np.bincount(gates, minlength=num_bins) - counts)
    passed += np.count_nonzero(stamps < gates)
    return LawStatistics(counts, passed, stamps.size, det.size - stamps.size)


def _count_times(counts: np.ndarray, log_p: np.ndarray) -> np.ndarray:
    """counts * log_p, with 0 * -inf taken as 0: an unseen outcome adds nothing."""
    if np.isfinite(log_p).all():
        return counts * log_p
    with np.errstate(invalid="ignore"):
        return np.where(counts > 0, counts * log_p, 0.0)


def _law(stats: LawStatistics, ll, pass_term, total, log_detect):
    """c.log1mexp(r) - P.r - N_det log1mexp(sum r) - N_cens sum r, per hypothesis.

    Takes ``ll`` = c.log1mexp(r) (an array is updated in place), P.r, sum r
    and log1mexp(sum r), the last taken as 0 where sum r is 0.  A detected
    cycle folding onto t after scanning [gate, t) has probability
    (1 - e^-r_t) e^-(rates scanned) / (1 - e^-sum r), its period index
    summed out; a censored cycle counts one period without a detection.
    With no rate at all c.log1mexp(r) is already -inf.
    """
    ll -= pass_term
    if stats.detected:
        ll -= stats.detected * log_detect
    if stats.censored:
        ll -= stats.censored * total
    return ll


def sequence_log_likelihood(scene: SceneTransient, record: AcquisitionRecord) -> float:
    """Joint log likelihood of a record's cycles under ``scene``.

    Impossible observations give -inf rather than raising.  An empty
    record gives 0.0.
    """
    if record.num_bins != scene.num_bins:
        raise ValueError("record and scene have mismatched num_bins")
    stats = law_statistics(record.num_bins, record.gates, record.timestamps, record.detected)
    rates, total = scene.rates, scene.total_rate
    detect_term = float(_count_times(stats.counts, log1mexp(rates)).sum())
    log_detect = log1mexp(total) if total > 0.0 else 0.0
    return float(_law(stats, detect_term, float(stats.passed @ rates), total, log_detect))


class PeakColumns(NamedTuple):
    """The flux-grid terms of ``peak_log_likelihood`` for one background,
    grid and period, as (K, 1) columns (``background`` is a scalar)."""

    flux: np.ndarray
    hit: np.ndarray  # log1mexp(bkg + f)
    background: np.float64  # log1mexp(bkg)
    detect: np.ndarray  # log1mexp(B bkg + f), 0 where B bkg + f is 0
    total: np.ndarray  # B bkg + f


def peak_columns(bkg_flux: float, flux: np.ndarray, num_bins: int) -> PeakColumns:
    """``peak_log_likelihood``'s terms for background ``bkg_flux``, flux grid
    ``flux`` and a period of ``num_bins`` bins."""
    k = flux.size
    total = num_bins * bkg_flux + flux
    logs = log1mexp(np.concatenate((bkg_flux + flux, total, [bkg_flux])))
    detect = np.where(total > 0.0, logs[k:-1], 0.0)
    return PeakColumns(flux[:, None], logs[:k, None], logs[-1], detect[:, None], total[:, None])


def peak_log_likelihood(stats: LawStatistics, columns: PeakColumns) -> np.ndarray:
    """Law log likelihood of each scene r = bkg + f e_d: peak bin d by row, flux f by column.

    Rank-one form: c.log1mexp(r) = (N_det - c_d) log1mexp(bkg) + c_d
    log1mexp(bkg + f), P.r = bkg sum(P) + P_d f (bkg sum(P) is dropped, as
    it is the same in every cell) and sum r = B bkg + f.  Each row reads
    only its own c_d and P_d, so ``stats`` may carry a few representative
    rows of the period ``columns`` was made for.  The array is built as
    (K, B), one contiguous pass per term, and returned transposed: a
    (B, K) flux-major view, laid out like a posterior's mass.  Each cell
    takes the terms in the order above.
    """
    # Float counts: int-by-float products are several times slower.
    counts = stats.counts.astype(float)
    ll = _count_times(counts, columns.hit)
    ll += _count_times(stats.detected - counts, columns.background)
    ll = _law(stats, ll, columns.flux * stats.passed.astype(float), columns.total, columns.detect)
    return ll.T


def timestamps_to_histogram(record: AcquisitionRecord) -> DetectedHistogram:
    """Fold a record into per-bin detection counts and armed-pass counts.

    Each cycle adds one pass to every bin scanned from its gate up to and
    including the detection bin (all scanned bins for censored cycles).
    Multi-period cycles add one pass per scan, so counts[i]/denominators[i]
    estimates the per-pass trigger probability 1 - exp(-r[i]) without
    pile-up bias.  Read off the law statistics of the detected cycles: a
    detected cycle arms its window [gate, timestamp) and its detection bin,
    and every whole period any cycle scanned arms each bin once more, so
    the denominators are passed + counts + sum(elapsed_periods).
    """
    stats = law_statistics(record.num_bins, record.gates, record.timestamps, record.detected)
    whole_periods = int(record.elapsed_periods.sum())
    return DetectedHistogram(counts=stats.counts, denominators=stats.passed + stats.counts + whole_periods)
