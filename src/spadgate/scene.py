"""Scene description: depth/flux grids, priors, and file formats.

Depths in meters convert to round-trip time-of-flight bins through
d = floor(2 z / (c * bin)).  Scene files are whitespace-separated text
with a "width height" header line:

  depth map   height rows of width depth values (meters)
  flux map    same grid of nonnegative flux values (photons/pulse/bin)
  prior file  height rows of width (mean_meters, sigma_meters) pairs,
              i.e. 2 * width numbers per row

Scan order over a grid is serpentine (row 0 left to right, row 1 right to
left, ...), so neighboring pixels stay adjacent for chained priors.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .core import SPEED_OF_LIGHT_M_S, SceneTransient


@dataclass
class SceneGrid:
    """Per-pixel ground truth for a scan: depth bins and fluxes."""

    depth_bins: np.ndarray
    ambient_flux: np.ndarray
    signal_flux: np.ndarray
    num_bins: int

    def __post_init__(self) -> None:
        self.depth_bins = np.asarray(self.depth_bins, dtype=np.int64)
        if self.depth_bins.ndim != 2:
            raise ValueError("depth_bins must be a 2-d grid")
        shape = self.depth_bins.shape
        self.ambient_flux = np.broadcast_to(np.asarray(self.ambient_flux, dtype=float), shape).copy()
        self.signal_flux = np.broadcast_to(np.asarray(self.signal_flux, dtype=float), shape).copy()
        if np.any(self.depth_bins < 0) or np.any(self.depth_bins >= self.num_bins):
            raise ValueError("depth bin outside [0, num_bins); scene deeper than the unambiguous range")
        if np.any(self.ambient_flux < 0) or np.any(self.signal_flux < 0):
            raise ValueError("fluxes cannot be negative")

    @property
    def height(self) -> int:
        return int(self.depth_bins.shape[0])

    @property
    def width(self) -> int:
        return int(self.depth_bins.shape[1])

    @classmethod
    def from_depth_map(
        cls,
        depth_m: np.ndarray,
        bin_resolution_ps: float,
        num_bins: int,
        ambient_flux: np.ndarray | float,
        signal_flux: np.ndarray | float,
    ) -> "SceneGrid":
        depth_m = np.asarray(depth_m, dtype=float)
        bins = np.floor(2.0 * depth_m / (SPEED_OF_LIGHT_M_S * bin_resolution_ps * 1e-12)).astype(np.int64)
        return cls(depth_bins=bins, ambient_flux=ambient_flux, signal_flux=signal_flux, num_bins=num_bins)


def mismatch_transient(
    kind: str,
    num_bins: int,
    ambient_flux: float,
    depth: int,
    signal_flux: float,
    second_depth: int | None = None,
    second_flux: float | None = None,
    tail_amplitude: float | None = None,
    tail_decay: float | None = None,
) -> SceneTransient:
    """Scenes that violate the estimators' single-peak model.

    "two_peak" adds a second return (flux defaults to the first's);
    "corner_tail" adds an exponential multi-bounce tail
    amp * exp(-decay * (i - depth)) for bins i > depth.
    """
    if kind == "two_peak":
        if second_depth is None:
            raise ValueError("two_peak needs second_depth")
        flux2 = signal_flux if second_flux is None else second_flux
        return SceneTransient(
            num_bins=num_bins,
            ambient_flux=ambient_flux,
            peaks=((depth, signal_flux), (int(second_depth), float(flux2))),
        )
    if kind == "corner_tail":
        if tail_amplitude is None or tail_decay is None:
            raise ValueError("corner_tail needs tail_amplitude and tail_decay")
        return SceneTransient(
            num_bins=num_bins,
            ambient_flux=ambient_flux,
            peaks=((depth, signal_flux),),
            tail=(float(tail_amplitude), float(tail_decay)),
        )
    raise ValueError(f"unknown mismatch kind {kind!r}")


def scan_order(width: int, height: int) -> Iterator[tuple[int, int]]:
    """Serpentine (x, y) visit order: even rows left to right, odd reversed."""
    for y in range(height):
        xs = range(width) if y % 2 == 0 else range(width - 1, -1, -1)
        for x in xs:
            yield x, y


def _gaussian_floor_mass(num_bins: int, center_bin: float, sigma_bins: float, floor_weight: float) -> np.ndarray:
    """Discretized Gaussian over bins mixed with a uniform floor.

    mass(d) = (1 - w) * g(d) / sum(g) + w / B with g the Gaussian density
    shape evaluated at bin centers.  The floor keeps every bin reachable.
    """
    if sigma_bins <= 0:
        raise ValueError("sigma_bins must be positive")
    if not 0 <= floor_weight <= 1:
        raise ValueError("floor_weight must lie in [0, 1]")
    d = np.arange(num_bins, dtype=float)
    g = np.exp(-0.5 * ((d - center_bin) / sigma_bins) ** 2)
    total = g.sum()
    if total <= 0:  # center so far outside the range that every density underflows
        return np.full(num_bins, 1.0 / num_bins)
    return (1.0 - floor_weight) * g / total + floor_weight / num_bins


def flatness_prior(
    num_bins: int,
    prev_depth: float | None = None,
    sigma_bins: float = 10.0,
    floor_weight: float = 0.1,
) -> np.ndarray:
    """Depth prior assuming surfaces are locally flat.

    Centers a discretized Gaussian on the previous pixel's estimated depth
    mixed with a uniform floor; with no previous estimate the prior is
    uniform.
    """
    if prev_depth is None:
        return np.full(num_bins, 1.0 / num_bins)
    return _gaussian_floor_mass(num_bins, float(prev_depth), sigma_bins, floor_weight)


def external_prior_mass(
    num_bins: int,
    mean_bin: float,
    sigma_bin: float,
    floor_weight: float = 0.1,
) -> np.ndarray:
    """Per-pixel Gaussian prior from an external source (e.g. a coarse scan)."""
    return _gaussian_floor_mass(num_bins, mean_bin, sigma_bin, floor_weight)


def _parse_grid_file(path: str | Path, values_per_pixel: int) -> np.ndarray:
    """Shared "width height" header + grid body parser.

    Returns an array of shape (height, width * values_per_pixel); raises
    ValueError naming the file and 1-based line of any malformed content,
    a non-finite value (nan, inf) included.
    """
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    body = [(i + 1, ln) for i, ln in enumerate(lines) if ln.strip() and not ln.lstrip().startswith("#")]
    if not body:
        raise ValueError(f"{path}: empty scene file")
    header_no, header = body[0]
    parts = header.split()
    if len(parts) != 2:
        raise ValueError(f"{path}:{header_no}: header must be 'width height'")
    try:
        width, height = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"{path}:{header_no}: header must be two integers") from None
    if width < 1 or height < 1:
        raise ValueError(f"{path}:{header_no}: width and height must be positive")
    rows = body[1:]
    if len(rows) != height:
        raise ValueError(f"{path}: expected {height} data rows, found {len(rows)}")
    # Rows are read before any array is made, so a header that claims more
    # values than the file holds fails on its first short row.
    expected = width * values_per_pixel
    values = []
    for line_no, line in rows:
        fields = line.split()
        if len(fields) != expected:
            raise ValueError(f"{path}:{line_no}: expected {expected} values, found {len(fields)}")
        try:
            row = [float(f) for f in fields]
        except ValueError:
            raise ValueError(f"{path}:{line_no}: non-numeric value") from None
        if not np.isfinite(row).all():
            raise ValueError(f"{path}:{line_no}: non-finite value")
        values.append(row)
    return np.array(values, dtype=float)


def load_depth_map(path: str | Path) -> np.ndarray:
    """Depth map in meters, shape (height, width)."""
    grid = _parse_grid_file(path, 1)
    if np.any(grid < 0):
        raise ValueError(f"{path}: depths must be nonnegative")
    return grid


def load_flux_map(path: str | Path) -> np.ndarray:
    """Per-pixel flux map (photons/pulse/bin), shape (height, width)."""
    grid = _parse_grid_file(path, 1)
    if np.any(grid < 0):
        raise ValueError(f"{path}: fluxes must be nonnegative")
    return grid


def load_external_prior(path: str | Path) -> np.ndarray:
    """Per-pixel Gaussian prior parameters, shape (height, width, 2).

    Each pixel stores (mean_meters, sigma_meters); sigmas must be positive.
    """
    grid = _parse_grid_file(path, 2)
    h, w2 = grid.shape
    out = grid.reshape(h, w2 // 2, 2)
    if np.any(out[:, :, 1] <= 0):
        raise ValueError(f"{path}: prior sigmas must be positive")
    return out


def prior_params_to_bins(mean_m: float, sigma_m: float, bin_resolution_ps: float) -> tuple[float, float]:
    """Convert a metric Gaussian prior to (mean, sigma) in fractional bins."""
    scale = 2.0 / (SPEED_OF_LIGHT_M_S * bin_resolution_ps * 1e-12)
    return mean_m * scale, sigma_m * scale
