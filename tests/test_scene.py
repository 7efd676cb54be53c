"""Scene grids, mismatch transients, scan order, priors, and scene files."""

import math

import numpy as np
import pytest

import spadgate as sg
from spadgate.core import SPEED_OF_LIGHT_M_S
from spadgate.scene import _gaussian_floor_mass


# ---------------------------------------------------------------------------
# SceneGrid


def test_scene_grid_broadcasts_scalar_fluxes():
    grid = sg.SceneGrid(
        depth_bins=[[1, 2], [3, 4]], ambient_flux=0.01, signal_flux=0.5, num_bins=8
    )
    assert grid.height == 2 and grid.width == 2
    assert grid.ambient_flux.shape == (2, 2)
    assert np.all(grid.signal_flux == 0.5)


def test_scene_grid_validation():
    with pytest.raises(ValueError):
        sg.SceneGrid(depth_bins=[1, 2, 3], ambient_flux=0.1, signal_flux=1.0, num_bins=8)
    with pytest.raises(ValueError):
        sg.SceneGrid(depth_bins=[[8]], ambient_flux=0.1, signal_flux=1.0, num_bins=8)
    with pytest.raises(ValueError):
        sg.SceneGrid(depth_bins=[[-1]], ambient_flux=0.1, signal_flux=1.0, num_bins=8)
    with pytest.raises(ValueError):
        sg.SceneGrid(depth_bins=[[1]], ambient_flux=-0.1, signal_flux=1.0, num_bins=8)


def test_from_depth_map_bins_depths():
    # 0.60 m at 100 ps bins: 2 * 0.60 / (c * 1e-10) = 40.03 -> bin 40
    grid = sg.SceneGrid.from_depth_map(
        np.array([[0.60, 0.0]]), bin_resolution_ps=100.0, num_bins=500,
        ambient_flux=0.01, signal_flux=1.0,
    )
    assert grid.depth_bins.tolist() == [[40, 0]]
    # inverse matches core's bin_to_depth within a bin
    assert sg.depth_to_bin(0.60, 100.0) == 40


# ---------------------------------------------------------------------------
# Model-mismatch transients


def test_two_peak_defaults_to_equal_flux():
    tr = sg.mismatch_transient("two_peak", 16, 0.01, depth=3, signal_flux=0.5, second_depth=11)
    assert tr.peaks == ((3, 0.5), (11, 0.5))
    tr2 = sg.mismatch_transient(
        "two_peak", 16, 0.01, depth=3, signal_flux=0.5, second_depth=11, second_flux=0.2
    )
    assert tr2.peaks[1] == (11, 0.2)
    with pytest.raises(ValueError):
        sg.mismatch_transient("two_peak", 16, 0.01, depth=3, signal_flux=0.5)


def test_corner_tail_decays_from_peak_without_wrapping():
    amp, decay = 0.2, 0.5
    tr = sg.mismatch_transient(
        "corner_tail", 12, 0.01, depth=8, signal_flux=1.0,
        tail_amplitude=amp, tail_decay=decay,
    )
    r = tr.rates
    assert r[8] == pytest.approx(1.01)
    for i in range(9, 12):
        assert r[i] == pytest.approx(0.01 + amp * math.exp(-decay * (i - 8)), rel=1e-12)
    # no wraparound: bins before the peak stay at ambient
    assert np.all(r[:8] == 0.01)
    with pytest.raises(ValueError):
        sg.mismatch_transient("corner_tail", 12, 0.01, depth=8, signal_flux=1.0)


def test_unknown_mismatch_kind_raises():
    with pytest.raises(ValueError, match="unknown mismatch kind"):
        sg.mismatch_transient("ghost", 12, 0.01, depth=2, signal_flux=1.0)


# ---------------------------------------------------------------------------
# Serpentine scan order


def test_scan_order_is_serpentine():
    assert list(sg.scan_order(3, 2)) == [(0, 0), (1, 0), (2, 0), (2, 1), (1, 1), (0, 1)]


def test_scan_order_visits_every_pixel_once():
    seen = list(sg.scan_order(5, 4))
    assert len(seen) == 20
    assert len(set(seen)) == 20
    # consecutive pixels are 4-adjacent so chained priors stay local
    for (x0, y0), (x1, y1) in zip(seen, seen[1:]):
        assert abs(x0 - x1) + abs(y0 - y1) == 1


# ---------------------------------------------------------------------------
# Priors


def test_flatness_prior_uniform_without_history():
    p = sg.flatness_prior(8, prev_depth=None)
    assert np.allclose(p, 0.125)


def test_flatness_prior_shape_and_floor():
    num_bins, w = 64, 0.1
    p = sg.flatness_prior(num_bins, prev_depth=20.0, sigma_bins=3.0, floor_weight=w)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    assert int(np.argmax(p)) == 20
    assert np.all(p >= w / num_bins - 1e-15)
    # a bin far from the center sits essentially on the floor
    assert p[60] == pytest.approx(w / num_bins, rel=1e-6)


def test_flatness_prior_matches_hand_formula():
    num_bins, center, sigma, w = 10, 4.0, 2.0, 0.2
    d = np.arange(num_bins, dtype=float)
    g = np.exp(-0.5 * ((d - center) / sigma) ** 2)
    expected = (1 - w) * g / g.sum() + w / num_bins
    got = sg.flatness_prior(num_bins, prev_depth=center, sigma_bins=sigma, floor_weight=w)
    assert np.allclose(got, expected, atol=1e-15)


def test_gaussian_floor_underflow_falls_back_to_uniform():
    p = _gaussian_floor_mass(16, center_bin=1e6, sigma_bins=0.5, floor_weight=0.0)
    assert np.allclose(p, 1.0 / 16)


def test_prior_validation():
    with pytest.raises(ValueError):
        sg.flatness_prior(8, prev_depth=2.0, sigma_bins=0.0)
    with pytest.raises(ValueError):
        sg.flatness_prior(8, prev_depth=2.0, floor_weight=1.5)


def test_external_prior_mass_same_family():
    a = sg.external_prior_mass(32, mean_bin=10.0, sigma_bin=2.5, floor_weight=0.05)
    b = _gaussian_floor_mass(32, 10.0, 2.5, 0.05)
    assert np.array_equal(a, b)


def test_prior_params_to_bins():
    mean_b, sigma_b = sg.prior_params_to_bins(0.60, 0.015, 100.0)
    scale = 2.0 / (SPEED_OF_LIGHT_M_S * 1e-10)
    assert mean_b == pytest.approx(0.60 * scale, rel=1e-12)
    assert sigma_b == pytest.approx(0.015 * scale, rel=1e-12)
    assert math.floor(mean_b) == 40


# ---------------------------------------------------------------------------
# Scene files


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_load_depth_map_round_trip(tmp_path):
    p = _write(tmp_path, "depth.txt", "# comment\n3 2\n0.1 0.2 0.3\n\n0.4 0.5 0.6\n")
    grid = sg.load_depth_map(p)
    assert grid.shape == (2, 3)
    assert grid[1, 2] == 0.6


def test_load_flux_map(tmp_path):
    p = _write(tmp_path, "flux.txt", "2 1\n0.5 1.5\n")
    assert sg.load_flux_map(p).tolist() == [[0.5, 1.5]]
    bad = _write(tmp_path, "fluxneg.txt", "2 1\n0.5 -1.5\n")
    with pytest.raises(ValueError, match="nonnegative"):
        sg.load_flux_map(bad)


def test_load_external_prior_shape_and_sigma(tmp_path):
    p = _write(tmp_path, "prior.txt", "2 2\n0.5 0.01 0.6 0.02\n0.7 0.03 0.8 0.04\n")
    pri = sg.load_external_prior(p)
    assert pri.shape == (2, 2, 2)
    assert pri[1, 0].tolist() == [0.7, 0.03]
    bad = _write(tmp_path, "badprior.txt", "1 1\n0.5 0.0\n")
    with pytest.raises(ValueError, match="sigmas must be positive"):
        sg.load_external_prior(bad)


def test_scene_file_errors_name_file_and_line(tmp_path):
    cases = [
        ("empty.txt", "", "empty scene file"),
        ("header.txt", "3\n", "header must be 'width height'"),
        ("headerint.txt", "a b\n", "header must be two integers"),
        ("headerpos.txt", "0 2\n", "must be positive"),
        ("rows.txt", "2 2\n0.1 0.2\n", "expected 2 data rows"),
        ("fields.txt", "2 1\n0.1 0.2 0.3\n", "expected 2 values, found 3"),
        # a width far beyond memory fails on the row, before any array is made
        ("width.txt", "1000000000000 1\n0.1 0.2\n", "expected 1000000000000 values, found 2"),
        ("numeric.txt", "2 1\n0.1 x\n", "non-numeric value"),
    ]
    for name, text, msg in cases:
        p = _write(tmp_path, name, text)
        with pytest.raises(ValueError, match=msg) as exc:
            sg.load_depth_map(p)
        assert name in str(exc.value)
    # line numbers are 1-based and count raw lines, comments included
    p = _write(tmp_path, "line.txt", "# leading comment\n2 1\n0.1 bad\n")
    with pytest.raises(ValueError, match="line.txt:3"):
        sg.load_depth_map(p)


@pytest.mark.parametrize("loader, text", [
    (sg.load_depth_map, "2 1\n0.1 nan\n"),
    (sg.load_flux_map, "2 1\ninf 0.2\n"),
    (sg.load_external_prior, "1 1\n0.5 -inf\n"),
], ids=["depth", "flux", "prior"])
def test_non_finite_map_values_name_file_and_line(tmp_path, loader, text):
    p = _write(tmp_path, "map.txt", "# comment\n" + text)
    with pytest.raises(ValueError, match="map.txt:3: non-finite value"):
        loader(p)


def test_negative_depth_rejected(tmp_path):
    p = _write(tmp_path, "neg.txt", "1 1\n-0.5\n")
    with pytest.raises(ValueError, match="nonnegative"):
        sg.load_depth_map(p)
