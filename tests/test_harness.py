"""Experiment harness: config parsing, sweeps, scans, CSV output, CLI."""

import dataclasses
import json
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import spadgate as sg
from conftest import load_results_csv
from spadgate import harness
from spadgate.cli import main
from spadgate.harness import RowSpec, _build_policy, _format_cell, run_pixel_experiment


BASE_CONFIG = {
    "experiment": {"id": "unit", "seeds": 2, "global_seed": 7},
    "spad": {"bin_resolution_ps": 100.0, "rep_rate_mhz": 20.0, "num_bins": 40,
             "dead_time_ns": 20.0},
    "scene": {"depth_bin": 11, "ambient_flux": 0.02, "sbr": 5.0},
    "policies": [
        {"name": "fixed0", "kind": "fixed", "gate": 0},
        {"name": "adaptive", "kind": "adaptive"},
    ],
    "budget_us": 20.0,
    "background": {"mode": "known"},
}


def _config(**overrides):
    raw = json.loads(json.dumps(BASE_CONFIG))
    raw.update(overrides)
    return sg.parse_config(raw)


# ---------------------------------------------------------------------------
# Config parsing


def test_parse_config_minimal():
    cfg = _config()
    assert cfg.experiment_id == "unit"
    assert cfg.resolved_num_bins == 40
    assert cfg.resolved_depth_bin() == 11
    assert cfg.signal_flux is None and cfg.sbr == 5.0
    assert [p.name for p in cfg.policies] == ["fixed0", "adaptive"]


def test_parse_config_reports_unknown_keys_together():
    raw = json.loads(json.dumps(BASE_CONFIG))
    raw["spad"]["bogus"] = 1
    raw["scene"]["extra"] = 2
    with pytest.raises(sg.ConfigError) as exc:
        sg.parse_config(raw)
    msg = str(exc.value)
    assert "spad.bogus" in msg and "scene.extra" in msg


def test_removed_keys_are_unknown_keys():
    # Keys the program no longer reads are refused by name, not ignored.
    for section, value, message in [
        ("policies", [{"kind": "adaptive", "gate_offset": 0}], "unknown key policies[0].gate_offset"),
        ("estimator", {"dither_window": 3}, "unknown key estimator.dither_window"),
    ]:
        with pytest.raises(sg.ConfigError, match=f"^{re.escape(message)}$"):
            _config(**{section: value})


def test_parse_config_requires_a_depth_and_a_signal():
    raw = json.loads(json.dumps(BASE_CONFIG))
    del raw["scene"]["depth_bin"]
    with pytest.raises(sg.ConfigError, match="depth"):
        sg.parse_config(raw)
    raw = json.loads(json.dumps(BASE_CONFIG))
    del raw["scene"]["sbr"]
    with pytest.raises(sg.ConfigError, match="signal"):
        sg.parse_config(raw)


@pytest.mark.parametrize("value", [False, 0, "", []], ids=["false", "zero", "empty-string", "empty-list"])
def test_falsy_non_object_section_is_an_error(value):
    assert not _config(exposure=None).exposure_enabled  # a null section reads as empty
    with pytest.raises(sg.ConfigError, match="^exposure: expected an object$"):
        _config(exposure=value)


def test_parse_config_type_errors_name_the_path():
    raw = json.loads(json.dumps(BASE_CONFIG))
    raw["spad"]["num_bins"] = "many"
    with pytest.raises(sg.ConfigError, match="spad.num_bins"):
        sg.parse_config(raw)
    for section, key, value, message in [
        # A number key takes a JSON number only: no numeric string, no boolean.
        ("scene", "ambient_flux", "0.02", "scene.ambient_flux: expected float, got '0.02'; scene needs ambient_flux"),
        (None, "budget_us", "1.5", "config.budget_us: expected float, got '1.5'"),
        ("spad", "dead_time_ns", "10", "spad.dead_time_ns: expected float, got '10'"),
        ("sweep", "sbr", [True, "3"], "sweep.sbr: expected a list of numbers"),
        ("sweep", "sbr", [2.0, True], "sweep.sbr: expected a list of numbers"),
        ("sweep", "budget_us", ["10"], "sweep.budget_us: expected a list of numbers"),
        # Values of the right type that would fail every row (or mean nothing).
        ("estimator", "flux_grid_size", 0, "estimator.flux_grid_size must be at least 1"),
        ("estimator", "flux_grid_lo", 0.0, "estimator.flux_grid_lo must be positive"),
        ("estimator", "flux_grid_hi", -1.0, "estimator.flux_grid_hi must be positive"),
        ("background", "fallback_flux", 0.0, "background.fallback_flux must be positive"),
        ("exposure", "min_cycles", -1, "exposure.min_cycles cannot be negative"),
        ("spad", "num_bins", 0, "spad.num_bins must be at least 1"),
        ("spad", "max_active_periods", 0, "spad.max_active_periods must be at least 1"),
        ("spad", "dead_time_ns", -1.0, "spad.dead_time_ns cannot be negative"),
        ("spad", "bin_resolution_ps", 0.0, "spad.bin_resolution_ps must be positive"),
        ("spad", "rep_rate_mhz", -20.0, "spad.rep_rate_mhz must be positive"),
        ("scene", "ambient_flux", -0.01, "scene.ambient_flux cannot be negative"),
        ("scene", "sbr", -1.0, "scene.sbr cannot be negative"),
        ("scene", "depth_bin", 40, "scene.depth_bin gives depth bin 40, outside [0, 40)"),
        ("scene", "depth_bin", -1, "scene.depth_bin gives depth bin -1, outside [0, 40)"),
        (None, "budget_us", 0.0, "budget_us must be positive"),
        (None, "budget_us", -5.0, "budget_us must be positive"),
        ("sweep", "ambient_flux", [0.01, -0.01], "sweep.ambient_flux cannot be negative"),
        ("sweep", "sbr", [-1.0], "sweep.sbr cannot be negative"),
        ("sweep", "dead_time_ns", [-1.0, 20.0], "sweep.dead_time_ns cannot be negative"),
        ("sweep", "budget_us", [10.0, 0.0], "sweep.budget_us must be positive"),
        ("spad", "num_bins", 2_000_000, "spad.num_bins 2000000 is above the spad.num_bins limit of 1048576"),
        ("scene", "mismatch", {"second_depth": 30},
         "scene.mismatch.kind required when scene.mismatch sets second_depth"),
        ("scene", "mismatch", {"second_flux": 0.05, "tail_decay": 3.0},
         "scene.mismatch.kind required when scene.mismatch sets second_flux, tail_decay"),
        ("scene", "mismatch", {"kind": "corner_tail"},
         "scene.mismatch.kind corner_tail needs scene.mismatch.tail_amplitude and scene.mismatch.tail_decay"),
        ("scene", "mismatch", {"kind": "two_peak"}, "scene.mismatch.kind two_peak needs scene.mismatch.second_depth"),
        ("scene", "mismatch", {"kind": "two_peak", "second_depth": 99},
         "scene.mismatch.second_depth 99 outside [0, 40)"),
        ("scene", "mismatch", {"kind": "two_peak", "second_depth": -2},
         "scene.mismatch.second_depth cannot be negative"),
        ("scene", "mismatch", {"kind": "two_peak", "second_depth": 3, "second_flux": -1.0},
         "scene.mismatch.second_flux cannot be negative"),
        ("scene", "mismatch", {"kind": "corner_tail", "tail_amplitude": -1.0, "tail_decay": 3.0},
         "scene.mismatch.tail_amplitude cannot be negative"),
        ("scene", "mismatch", {"kind": "corner_tail", "tail_amplitude": 0.4, "tail_decay": 0.0},
         "scene.mismatch.tail_decay must be positive"),
        # A key the kind does not read would leave the rows without what it asks for.
        ("scene", "mismatch", {"kind": "two_peak", "second_depth": 9, "tail_amplitude": 0.5, "tail_decay": 3.0},
         "scene.mismatch.kind two_peak does not read scene.mismatch.tail_amplitude or scene.mismatch.tail_decay"),
        ("scene", "mismatch", {"kind": "corner_tail", "tail_amplitude": 0.4, "tail_decay": 3.0, "second_depth": 9,
                               "second_flux": 0.05},
         "scene.mismatch.kind corner_tail does not read scene.mismatch.second_depth or scene.mismatch.second_flux"),
    ]:
        raw = json.loads(json.dumps(BASE_CONFIG))
        (raw if section is None else raw.setdefault(section, {}))[key] = value
        with pytest.raises(sg.ConfigError) as exc:
            sg.parse_config(raw)
        assert str(exc.value) == message
    for scene, spad, gate, message in [
        ({"depth_bin": 11, "ambient_flux": 0.02, "signal_flux": -0.1}, {}, 0,
         "scene.signal_flux cannot be negative"),
        ({"depth_m": 100.0, "ambient_flux": 0.02, "sbr": 5.0}, {}, 0,
         "scene.depth_m gives depth bin 6671, outside [0, 40)"),
        (BASE_CONFIG["scene"], {}, 40, "policies[0].gate 40 outside [0, 40)"),
        (BASE_CONFIG["scene"], {"num_bins": None, "rep_rate_mhz": 20000.0}, 0,
         "spad.bin_resolution_ps is longer than one pulse period"),
        # a 1000 s period: only the bin count is computed, nothing of that size is allocated
        (BASE_CONFIG["scene"], {"num_bins": None, "rep_rate_mhz": 1e-9}, 0,
         "spad.rep_rate_mhz and spad.bin_resolution_ps give 10000000010000 bins per period, "
         "above the spad.num_bins limit of 1048576"),
        (BASE_CONFIG["scene"], {"num_bins": None, "rep_rate_mhz": 1e-320}, 0,
         "spad.rep_rate_mhz and spad.bin_resolution_ps give inf bins per period, "
         "above the spad.num_bins limit of 1048576"),
    ]:
        raw = json.loads(json.dumps(BASE_CONFIG))
        raw["scene"] = scene
        raw["spad"].update(spad)
        raw["policies"][0]["gate"] = gate
        with pytest.raises(sg.ConfigError) as exc:
            sg.parse_config(raw)
        assert str(exc.value) == message
    raw = json.loads(json.dumps(BASE_CONFIG))
    raw["estimator"] = {"flux_grid_size": 1}
    raw["exposure"] = {"min_cycles": 0}
    raw["spad"].update(num_bins=1, max_active_periods=1, dead_time_ns=0.0)
    raw["scene"] = {"depth_bin": 0, "ambient_flux": 0.0, "sbr": 0.0}
    raw["sweep"] = {"ambient_flux": [0.0], "sbr": [0.0], "dead_time_ns": [0.0], "budget_us": [0.1]}
    sg.parse_config(raw)  # the edge values themselves are fine
    raw["spad"]["num_bins"] = harness.MAX_NUM_BINS
    sg.parse_config(raw)
    raw["spad"]["num_bins"] = 40
    raw["scene"] = {"depth_bin": 39, "ambient_flux": 0.02, "signal_flux": 0.0}
    raw["policies"][0]["gate"] = 39
    sg.parse_config(raw)


def test_parse_config_rejects_a_scene_whose_rates_overflow_one_period():
    # Each of these used to parse, then fail or compute with inf and NaN in every row.
    overflow = "the rates sum to inf over one period; the total must be finite"
    for scene, sweep, message in [
        ({"ambient_flux": 1e308}, None, f"scene: ambient flux 1e+308 and signal flux inf: {overflow}"),
        ({"mismatch": {"kind": "corner_tail", "tail_amplitude": 1e308, "tail_decay": 0.1}}, None,
         f"scene: ambient flux 0.02 and signal flux 0.1: {overflow}"),
        ({}, {"ambient_flux": [0.02, 1e307]}, f"sweep: ambient flux 1e+307 and signal flux 5e+307: {overflow}"),
    ]:
        raw = json.loads(json.dumps(BASE_CONFIG))
        raw["spad"]["num_bins"] = 16
        raw["background"] = {"mode": "estimated"}  # a known background this bright fails the flux grid first
        raw["scene"].update(scene)
        if sweep is not None:
            raw["sweep"] = sweep
        with pytest.raises(sg.ConfigError) as exc:
            sg.parse_config(raw)
        assert str(exc.value) == message
    raw["sweep"] = {"ambient_flux": [0.02, 1e306]}  # the total stays finite
    sg.parse_config(raw)


@pytest.mark.parametrize("scene, message", [
    ({"ambient_flux": 1e308, "signal_flux": 0.1}, "scene: ambient flux 1e+308 and signal flux 0.1"),
    ({"ambient_flux": 1e308, "sbr": 2.0}, "scene: ambient flux 1e+308 and signal flux inf"),
])
def test_parse_config_rejects_a_scan_whose_scalar_fluxes_overflow_one_period(scene, message):
    # Each used to parse, then fail its one row (and the sbr product warned of an overflow).
    raw = json.loads(json.dumps(BASE_CONFIG))
    raw["spad"]["num_bins"] = 16
    raw["background"] = {"mode": "estimated"}
    raw["scene"] = {"depth_map": "depth.txt", **scene}
    with pytest.raises(sg.ConfigError) as exc:
        sg.parse_config(raw)
    assert str(exc.value) == f"{message}: the rates sum to inf over one period; the total must be finite"


def test_a_scan_pixel_whose_mapped_flux_overflows_fails_its_rows_without_a_warning(tmp_path):
    (tmp_path / "depth.txt").write_text("2 1\n0.15 0.075\n", encoding="utf-8")
    (tmp_path / "ambient.txt").write_text("2 1\n1e308 0.02\n", encoding="utf-8")
    raw = json.loads(json.dumps(BASE_CONFIG))
    raw["spad"]["num_bins"] = 16
    raw["experiment"]["seeds"] = 1
    raw["background"] = {"mode": "estimated"}
    raw["policies"] = [{"kind": "uniform"}]
    raw["scene"] = {"depth_map": str(tmp_path / "depth.txt"), "ambient_map": str(tmp_path / "ambient.txt"), "sbr": 2.0}
    rows, _, failures = sg.run_scene_scan(sg.parse_config(raw))  # a RuntimeWarning fails the suite
    assert [(r.x, r.y) for r in rows] == [(1, 0)]
    assert [(f.stream_index, f.error) for f in failures] == [
        (0, "ValueError: the rates sum to inf over one period; the total must be finite")]


def test_parse_config_duplicate_policy_names():
    raw = json.loads(json.dumps(BASE_CONFIG))
    raw["policies"] = [{"name": "a", "kind": "fixed", "gate": 0},
                       {"name": "a", "kind": "free_running"}]
    with pytest.raises(sg.ConfigError, match="unique"):
        sg.parse_config(raw)


def test_budget_null_means_cycle_capped():
    raw = json.loads(json.dumps(BASE_CONFIG))
    raw["budget_us"] = None
    raw["max_cycles"] = 50
    cfg = sg.parse_config(raw)
    assert cfg.budget_us is None and cfg.max_cycles == 50
    # absent budget falls back to the default
    raw2 = json.loads(json.dumps(BASE_CONFIG))
    del raw2["budget_us"]
    assert sg.parse_config(raw2).budget_us == 100.0
    # neither limit is an error
    raw3 = json.loads(json.dumps(BASE_CONFIG))
    raw3["budget_us"] = None
    with pytest.raises(sg.ConfigError, match="budget_us or max_cycles"):
        sg.parse_config(raw3)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("section, key", [
    ("scene", "ambient_flux"), ("scene", "sbr"), ("scene", "signal_flux"), ("", "budget_us"),
    ("spad", "dead_time_ns"),
])
def test_non_finite_numbers_are_named_config_errors(section, key, value):
    # JSON text may spell Infinity, -Infinity and NaN; no row could use them.
    raw = json.loads(json.dumps(BASE_CONFIG))
    if key == "signal_flux":
        del raw["scene"]["sbr"]
    (raw[section] if section else raw)[key] = value
    with pytest.raises(sg.ConfigError) as exc:
        sg.parse_config(json.dumps(raw))
    assert f"{section or 'config'}.{key}: expected a finite number, got {value!r}" in str(exc.value)


def test_non_finite_sweep_values_and_integers_are_config_errors():
    raw = json.loads(json.dumps(BASE_CONFIG))
    raw["sweep"] = {"ambient_flux": [0.01, math.inf], "sbr": [10**400], "budget_us": [math.nan]}
    raw["experiment"]["seeds"] = math.inf
    with pytest.raises(sg.ConfigError) as exc:
        sg.parse_config(json.dumps(raw))
    assert str(exc.value) == (
        "experiment.seeds: expected int, got inf; sweep.ambient_flux: expected finite numbers, got [0.01, inf]; "
        "sweep.sbr: expected a list of numbers; sweep.budget_us: expected finite numbers, got [nan]")


@pytest.mark.parametrize("value", [1e308, 1e300, 9.3e17])  # 9.3e17 ns is 9.3e18 bins, past 2**63
def test_a_dead_time_of_more_bins_than_an_int64_is_a_config_error(value):
    raw = json.loads(json.dumps(BASE_CONFIG))
    raw["spad"]["dead_time_ns"] = value
    with pytest.raises(sg.ConfigError, match=rf"^spad\.dead_time_ns {re.escape(repr(value))} gives a dead time of "
                                             r"\S+ bins, more than an int64 holds$"):
        sg.parse_config(raw)
    raw["spad"]["dead_time_ns"] = 20.0
    raw["sweep"] = {"dead_time_ns": [20.0, value]}
    with pytest.raises(sg.ConfigError, match=rf"^sweep\.dead_time_ns {re.escape(repr(value))} gives"):
        sg.parse_config(raw)
    raw["sweep"] = {"dead_time_ns": [20.0, 9.2e17]}  # 9.2e18 bins fit
    assert sg.parse_config(raw).sweep_dead_time_ns == (20.0, 9.2e17)


def test_a_row_that_could_run_too_many_cycles_is_a_config_error():
    # Only parsed, never run.  At 100 ps bins and a 20 ns (200-bin) dead
    # time, a budget of B us lets (B * 10**4 - 201) // 200 + 1 cycles start.
    assert harness.MAX_ROW_CYCLES == 10**7
    raw = json.loads(json.dumps(BASE_CONFIG))
    raw["budget_us"] = 200_000.0  # 10**7 cycles: at the cap, accepted
    assert sg.parse_config(raw).budget_us == 200_000.0
    raw["budget_us"] = 1e300
    with pytest.raises(sg.ConfigError) as exc:
        sg.parse_config(raw)
    assert str(exc.value) == ("budget_us 1e+300 lets a row run up to 5e+301 cycles (dead time 200 bins), "
                              "above the limit of 10000000 cycles per row")
    raw["max_cycles"] = 1000  # the cycle cap bounds the row instead
    assert sg.parse_config(raw).max_cycles == 1000
    raw.update(budget_us=None, max_cycles=10**7 + 1)
    with pytest.raises(sg.ConfigError, match=r"^max_cycles 10000001 lets a row run up to 10000001 cycles"):
        sg.parse_config(raw)
    raw.update(budget_us=20.0, max_cycles=None, sweep={"budget_us": [20.0, 200_001.0]})
    with pytest.raises(sg.ConfigError, match=r"^sweep\.budget_us 200001\.0 lets a row run up to 10000049 cycles "):
        sg.parse_config(raw)
    # The shortest cycle is a censored scan when that is shorter than the dead time.
    raw.update(sweep={"budget_us": [20.0]}, spad={**raw["spad"], "dead_time_ns": 1000.0, "max_active_periods": 1})
    raw["budget_us"] = 20.0
    assert sg.parse_config(raw).max_active_periods == 1
    raw["sweep"] = {"budget_us": [40_002.0]}  # (4.0002e8 - 10001) // 40 + 1 cycles
    with pytest.raises(sg.ConfigError, match=r"lets a row run up to 10000250 cycles \(dead time 10000 bins\)"):
        sg.parse_config(raw)


def test_a_config_that_asks_for_too_many_rows_is_a_config_error():
    # Only parsed, never run: a sweep builds every row's spec before it runs one.
    assert harness.MAX_CONFIG_ROWS == 10**5
    raw = json.loads(json.dumps(BASE_CONFIG))  # two policies
    raw["experiment"]["seeds"] = 10**12
    with pytest.raises(sg.ConfigError) as exc:
        sg.parse_config(raw)
    assert str(exc.value) == ("experiment.seeds 1000000000000 x policies 2 give 2000000000000 rows, "
                              "above the limit of 100000 rows per config")
    raw["experiment"]["seeds"] = 10**9
    raw["sweep"] = {"ambient_flux": [0.01 + i * 1e-5 for i in range(1000)], "budget_us": [20.0, 40.0]}
    with pytest.raises(sg.ConfigError) as exc:
        sg.parse_config(raw)
    assert str(exc.value) == ("experiment.seeds 1000000000 x policies 2 x sweep.ambient_flux 1000 x "
                              "sweep.budget_us 2 give 4000000000000 rows, above the limit of 100000 rows per config")
    raw["experiment"]["seeds"] = 25  # 25 x 2 x 1000 x 2 = 100,000 rows: at the limit, accepted
    assert sg.parse_config(raw).seeds == 25
    raw["experiment"]["seeds"] = 26
    with pytest.raises(sg.ConfigError, match=r"give 104000 rows, above the limit of 100000 rows per config$"):
        sg.parse_config(raw)


@pytest.mark.parametrize("prior, message", [
    ({"sigma_bins": 0.0}, "prior.sigma_bins must be positive"),
    ({"sigma_bins": -2.0}, "prior.sigma_bins must be positive"),
    ({"floor_weight": -0.1}, "prior.floor_weight must lie in [0, 1]"),
    ({"floor_weight": 1.5}, "prior.floor_weight must lie in [0, 1]"),
])
def test_flatness_prior_parameters_are_range_checked(prior, message):
    raw = json.loads(json.dumps(BASE_CONFIG))
    raw["prior"] = {"kind": "flatness", **prior}
    with pytest.raises(sg.ConfigError) as exc:
        sg.parse_config(raw)
    assert str(exc.value) == message


def test_flatness_prior_accepts_the_floor_weight_ends():
    for weight in (0.0, 1.0):
        raw = json.loads(json.dumps(BASE_CONFIG))
        raw["prior"] = {"kind": "flatness", "sigma_bins": 0.5, "floor_weight": weight}
        assert sg.parse_config(raw).prior_floor_weight == weight


def test_serialize_parse_round_trip():
    raw = json.loads(json.dumps(BASE_CONFIG))
    raw["scene"]["mismatch"] = {"kind": "two_peak", "second_depth": 30, "second_flux": 0.05}
    raw["sweep"] = {"ambient_flux": [0.01, 0.1], "sbr": [1.0, 5.0]}
    raw["prior"] = {"kind": "flatness", "sigma_bins": 6.0, "floor_weight": 0.2}
    raw["budget_us"] = None
    raw["max_cycles"] = 10
    cfg = sg.parse_config(raw)
    text = sg.serialize_config(cfg)
    again = sg.parse_config(text)
    assert again == cfg
    assert sg.serialize_config(again) == text
    assert text.endswith("\n")
    # The canonical form: unset keys are left out, except the three written as null.
    assert json.loads(sg.serialize_config(_config())) == {
        "experiment": {"id": "unit", "out_dir": "results", "seeds": 2, "global_seed": 7},
        "spad": {"bin_resolution_ps": 100.0, "rep_rate_mhz": 20.0, "num_bins": 40, "dead_time_ns": 20.0,
                 "max_active_periods": 16},
        "scene": {"depth_bin": 11, "ambient_flux": 0.02, "sbr": 5.0},
        "policies": [{"name": "fixed0", "kind": "fixed", "estimator": "coates", "gate": 0},
                     {"name": "adaptive", "kind": "adaptive", "estimator": "map"}],
        "budget_us": 20.0,
        "max_cycles": None,
        "exposure": {"enabled": False, "epsilon": 0.25, "metric": "termination", "min_cycles": None},
        "background": {"mode": "known", "fallback_flux": 0.01},
        "estimator": {"flux_grid_size": 16, "flux_grid_lo": 0.1, "flux_grid_hi": 100.0},
        "prior": {"kind": "uniform", "sigma_bins": 10.0, "floor_weight": 0.1},
    }


def test_config_schema_lists_every_field_once():
    table = [(section, key, f.name) for section, keys in harness._SECTIONS.items() for key, f, _ in keys]
    assert sorted(name for _, _, name in table) == sorted(
        f.name for f in dataclasses.fields(sg.ExperimentConfig) if f.name != "policies")
    assert len({(section, key) for section, key, _ in table}) == len(table)


def test_round_trip_with_every_field_set():
    full = sg.ExperimentConfig(
        experiment_id="full", out_dir="out", seeds=3, global_seed=9,
        bin_resolution_ps=50.0, rep_rate_mhz=25.0, num_bins=600, dead_time_ns=40.0, max_active_periods=4,
        ambient_flux=0.03, sbr=3.0, depth_bin=120, depth_m=2.5,
        mismatch_kind="corner_tail", mismatch_tail_amplitude=0.4, mismatch_tail_decay=12.0,
        depth_map="depth.txt", ambient_map="ambient.txt", signal_map="signal.txt",
        policies=(sg.PolicySpec(name="fixed9", kind="fixed", estimator="map", gate=9),),
        budget_us=50.0, max_cycles=900,
        exposure_enabled=True, exposure_epsilon=0.1, exposure_metric="entropy", exposure_min_cycles=25,
        background_mode="known", background_fallback=0.02,
        flux_grid_size=8, flux_grid_lo=0.2, flux_grid_hi=50.0,
        prior_kind="external", prior_sigma_bins=4.0, prior_floor_weight=0.3, prior_path="prior.txt",
        sweep_ambient_flux=(0.01, 0.05), sweep_sbr=(1.0, 4.0), sweep_dead_time_ns=(20.0, 81.0),
        sweep_budget_us=(25.0, 75.0),
    )
    # sbr and signal_flux are exclusive, and each mismatch kind reads only its
    # own keys, so the second config sets the others
    with_signal = dataclasses.replace(full, sbr=None, signal_flux=0.09, mismatch_kind="two_peak",
                                      mismatch_second_depth=300, mismatch_second_flux=0.02,
                                      mismatch_tail_amplitude=None, mismatch_tail_decay=None)
    default = sg.ExperimentConfig()
    left_at_default = [f.name for f in dataclasses.fields(full)
                       if getattr(default, f.name) == getattr(full, f.name) == getattr(with_signal, f.name)]
    assert left_at_default == []
    for cfg in (full, with_signal):
        text = sg.serialize_config(cfg)
        assert sg.parse_config(text) == cfg
        assert sg.serialize_config(sg.parse_config(text)) == text


def test_config_error_text_and_order_are_pinned():
    # Errors in several sections at once; the joined text keeps its order.
    several = {
        "experiment": {"id": 5, "seeds": 0, "colour": "red"},
        "spad": {"rep_rate_mhz": "fast", "num_bins": 2.5, "bogus": 1},
        "scene": {"depth_bin": "deep", "sbr": 2.0, "signal_flux": 0.1,
                  "mismatch": {"kind": "three_peak", "second_depth": 1.5, "extra": 0}},
        "policies": [{"name": "a", "kind": "fixed"}, {"name": "a", "kind": "uniform"}, 7],
        "budget_us": "soon",
        "exposure": {"enabled": "yes", "metric": "variance", "epsilon": 0, "min_cycles": -2},
        "estimator": {"flux_grid_size": 0, "flux_grid_lo": -1, "dither_window": 4},
        "sweep": {"sbr": [], "budget_us": ["a"], "speed": [1]},
        "extra_section": {},
    }
    with pytest.raises(sg.ConfigError) as exc:
        sg.parse_config(several)
    assert str(exc.value) == (
        "experiment.id: expected str, got 5; experiment.seeds must be at least 1; unknown key experiment.colour; "
        "spad.rep_rate_mhz: expected float, got 'fast'; spad.num_bins: expected int, got 2.5; "
        "unknown key spad.bogus; scene.depth_bin: expected int, got 'deep'; "
        "scene.mismatch.kind must be two_peak or corner_tail, got 'three_peak'; "
        "scene.mismatch.second_depth: expected int, got 1.5; unknown key scene.mismatch.extra; "
        "policy 'a': fixed gating needs a gate; policies[2]: expected an object; "
        "config.budget_us: expected float, got 'soon'; exposure.enabled: expected bool, got 'yes'; "
        "exposure.epsilon must be positive; exposure.metric must be termination or entropy, got 'variance'; "
        "exposure.min_cycles cannot be negative; estimator.flux_grid_size must be at least 1; "
        "estimator.flux_grid_lo must be positive; unknown key estimator.dither_window; "
        "sweep.sbr: empty sweep axis; sweep.budget_us: expected a list of numbers; unknown key sweep.speed; "
        "unknown section extra_section; "
        "scene needs depth_bin, depth_m or depth_map; scene needs ambient_flux; "
        "scene.sbr and scene.signal_flux are mutually exclusive"
    )
    # Sections of the wrong type, falsy ones too; only an absent or null section reads as empty.
    sections = {
        "experiment": [],
        "spad": "fast",
        "scene": {"ambient_map": 3, "unknown": 1, "mismatch": 0},
        "policies": "all",
        "budget_us": None,
        "max_cycles": "ten",
        "exposure": {"epsilon": -0.5, "metric": 3},
        "background": {"mode": "guess", "fallback_flux": 0},
        "estimator": {"flux_grid_hi": 0, "flux_grid_size": 2.5},
        "prior": {"kind": "external", "sigma_bins": "wide"},
        "sweep": 5,
    }
    with pytest.raises(sg.ConfigError) as exc:
        sg.parse_config(sections)
    assert str(exc.value) == (
        "experiment: expected an object; spad: expected an object; scene.ambient_map: expected str, got 3; "
        "scene.mismatch: expected an object; unknown key scene.unknown; policies: expected a non-empty list; config.max_cycles: expected int, got 'ten'; "
        "exposure.epsilon must be positive; exposure.metric: expected str, got 3; "
        "background.mode must be estimated or known, got 'guess'; background.fallback_flux must be positive; "
        "estimator.flux_grid_size: expected int, got 2.5; estimator.flux_grid_hi must be positive; "
        "prior.sigma_bins: expected float, got 'wide'; sweep: expected an object; "
        "prior.path required when prior.kind is external; "
        "need budget_us or max_cycles; scene needs depth_bin, depth_m or depth_map; scene needs ambient_flux; "
        "scene needs sbr or signal_flux"
    )


# A point scene with every map set as well, so that a key read as its
# default (after a wrong-kind value) still leaves a complete scene.
SCHEMA_BASE = {
    "spad": {"num_bins": 40},
    "scene": {"depth_bin": 11, "depth_map": "depth.txt", "ambient_flux": 0.02, "ambient_map": "ambient.txt",
              "sbr": 2.0, "signal_map": "signal.txt"},
    "policies": [{"kind": "uniform"}],
    "budget_us": 20.0,
}


def test_every_declared_key_rejects_a_wrong_kind_and_a_broken_rule():
    # The cases come from the field declarations, so a key added later is covered too.
    wrong_kind = {str: 5, int: 2.5, float: "x", bool: "yes", tuple: "x"}
    breaking = {"must be positive": 0, "must be at least 1": 0, "cannot be negative": -1,
                "must lie in [0, 1]": 2}
    assert sorted(breaking) == sorted(harness._RULES)
    rules = {f.name: f.metadata["rule"] for f in dataclasses.fields(sg.ExperimentConfig) if f.metadata}
    sg.parse_config(SCHEMA_BASE)
    schema = [(section, key, f.name, kind) for section, keys in harness._SECTIONS.items() for key, f, kind in keys]
    for section, key, name, kind in schema:
        path = f"{section}.{key}" if section else key
        rule = rules[name]
        cases = [wrong_kind[kind]]
        if rule is not None:
            bad = "other" if isinstance(rule, tuple) else breaking[rule]
            cases.append([bad] if kind is tuple else bad)
        for value in cases:
            raw = json.loads(json.dumps(SCHEMA_BASE))
            if name == "signal_flux":
                del raw["scene"]["sbr"]  # the two are exclusive
            if section == "scene.mismatch" and key != "kind":  # a mismatch key needs a kind, and the kind its keys
                raw["scene"]["mismatch"] = {"kind": "corner_tail", "tail_amplitude": 0.4, "tail_decay": 3.0}
            node = raw
            for part in filter(None, section.split(".")):
                node = node.setdefault(part, {})
            node[key] = value
            with pytest.raises(sg.ConfigError) as exc:
                sg.parse_config(raw)
            messages = str(exc.value).split("; ")
            assert len(messages) == 1 and path in messages[0], (path, value, messages)


def test_a_negative_global_seed_is_a_config_error(tmp_path, capsys):
    raw = json.loads(json.dumps(BASE_CONFIG))
    raw["experiment"]["global_seed"] = -1
    with pytest.raises(sg.ConfigError, match=r"^experiment\.global_seed cannot be negative$"):
        sg.parse_config(raw)
    assert main(["pixel", "--config", str(_write_cfg(tmp_path, raw)), "--out", str(tmp_path / "out")]) == 1
    assert "experiment.global_seed cannot be negative" in capsys.readouterr().err


def test_the_command_line_overrides_keep_the_field_rules(tmp_path, capsys):
    p = _write_cfg(tmp_path, BASE_CONFIG)
    assert main(["pixel", "--config", str(p), "--out", str(tmp_path / "out"), "--seed", "-1"]) == 1
    assert "config error: experiment.global_seed cannot be negative" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("max_cycles", [0, -5])
def test_max_cycles_must_be_at_least_1(max_cycles):
    with pytest.raises(sg.ConfigError, match="^max_cycles must be at least 1$"):
        _config(max_cycles=max_cycles)


@pytest.mark.parametrize("kind", ["fixed", "uniform", "free_running", "adaptive"])
def test_a_policy_spec_built_in_python_equals_the_one_parsed_from_json(kind):
    entry = {"kind": kind, **({"gate": 3} if kind == "fixed" else {})}
    spec = sg.PolicySpec(**entry)
    assert spec.name == kind
    assert spec.estimator == ("map" if kind in ("adaptive", "free_running") else "coates")
    assert _config(policies=[entry]).policies == (spec,)


def test_parse_config_from_file(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(BASE_CONFIG), encoding="utf-8")
    assert sg.parse_config(p) == _config()
    assert sg.parse_config(str(p)) == _config()


def test_spad_config_and_budget_bins():
    cfg = _config()
    spad = cfg.spad_config()
    assert spad.num_bins == 40
    assert spad.dead_time_bins == 200
    # 20 us at 100 ps bins
    assert cfg.budget_bins() == 200_000
    assert cfg.budget_bins(1.0) == 10_000
    assert _config(budget_us=None, max_cycles=5).budget_bins() is None


# ---------------------------------------------------------------------------
# Sweep construction and execution


def test_build_sweep_specs_order_and_streams():
    raw = json.loads(json.dumps(BASE_CONFIG))
    raw["sweep"] = {"ambient_flux": [0.01, 0.02], "sbr": [1.0, 2.0]}
    cfg = sg.parse_config(raw)
    specs = sg.build_sweep_specs(cfg)
    # 2 policies x 2 ambients x 2 sbrs x 2 seeds
    assert len(specs) == 16
    assert [s.stream_index for s in specs] == list(range(16))
    assert specs[0].policy.name == "fixed0" and specs[-1].policy.name == "adaptive"
    # policy-major, then ambient, then sbr, then seed-minor
    assert [s.ambient_flux for s in specs[:8]] == [0.01] * 4 + [0.02] * 4
    assert [s.signal_flux for s in specs[:4]] == [0.01, 0.01, 0.02, 0.02]


def test_run_pixel_experiment_is_deterministic():
    cfg = _config()
    specs = sg.build_sweep_specs(cfg)
    adaptive = next(s for s in specs if s.policy.kind == "adaptive")
    row1 = run_pixel_experiment(cfg, adaptive)
    row2 = run_pixel_experiment(cfg, adaptive)
    assert row1 == row2
    fixed = specs[0]
    # fixed policies use the histogram estimator, so termination/entropy are
    # nan and dataclass equality cannot apply; compare the repr instead
    assert repr(run_pixel_experiment(cfg, fixed)) == repr(run_pixel_experiment(cfg, fixed))
    assert row1.policy == "adaptive"
    assert row1.true_depth_bin == 11
    assert 0 <= row1.est_depth_bin < 40
    assert row1.cycles > 0
    assert row1.exposure_us <= 20.0 + 0.1  # at most one cycle of overshoot
    assert row1.sbr == pytest.approx(5.0)
    assert row1.zero_one_loss in (0, 1)
    assert math.isfinite(row1.termination_value) and math.isfinite(row1.entropy_nats)
    assert row1.abs_error_m == pytest.approx(abs(row1.est_depth_m - row1.true_depth_m))


def test_adaptive_rows_when_calibration_outlasts_the_budget():
    # At 100 MHz a 600 ns dead time spans 60 pulse periods, so a 100 us
    # budget holds fewer cycles than the 2% of its 10000 periods that are
    # reserved for estimating the background.
    raw = json.loads(json.dumps(BASE_CONFIG))
    raw["spad"] = {"bin_resolution_ps": 100.0, "rep_rate_mhz": 100.0, "dead_time_ns": 600.0}
    raw["scene"] = {"depth_bin": 60, "ambient_flux": 0.02, "sbr": 2.0}
    raw["policies"] = [{"name": "adaptive", "kind": "adaptive"}]
    raw["budget_us"] = 100.0
    raw["background"] = {"mode": "estimated"}
    rows, _, failures = sg.run_sweep(sg.parse_config(raw))
    assert failures == []
    assert len(rows) == 2
    assert all(r.cycles < 200 for r in rows)


def test_adaptive_policy_uses_the_configured_flux_grid():
    estimator = {"flux_grid_size": 4, "flux_grid_lo": 0.5, "flux_grid_hi": 20.0}
    for mode in ("estimated", "known"):
        cfg = _config(background={"mode": mode}, estimator=estimator)
        spec = next(s for s in sg.build_sweep_specs(cfg) if s.policy.kind == "adaptive")
        policy = _build_policy(cfg, spec, cfg.resolved_num_bins, None)
        policy.ensure_posterior()
        expected = sg.default_flux_grid(policy.posterior.bkg_flux, 4, 0.5, 20.0)
        assert np.array_equal(policy.posterior.flux_grid, expected)
        assert policy.posterior.mass.shape == (40, 5)


def test_run_sweep_rows_sorted_and_aggregated():
    cfg = _config()
    rows, aggs, failures = sg.run_sweep(cfg)
    assert failures == []
    assert len(rows) == 4
    assert [r.seed for r in rows] == sorted(r.seed for r in rows)
    assert len(aggs) == 2
    names = [a.policy for a in aggs]
    assert names == sorted(names)
    for agg in aggs:
        assert agg.n_rows == 2
        assert agg.rmse_m >= 0.0


def test_cycle_capped_sweep_aggregates_one_group_per_policy():
    # Every cycle-capped row reports budget_us NaN, each its own float object.
    raw = json.loads(json.dumps(BASE_CONFIG))
    raw.update(budget_us=None, max_cycles=300, policies=[{"name": "fixed0", "kind": "fixed", "gate": 0}])
    raw["experiment"]["seeds"] = 4
    rows, aggs, failures = sg.run_sweep(sg.parse_config(raw))
    assert failures == [] and len(rows) == 4
    assert all(math.isnan(r.budget_us) for r in rows)
    assert [(a.policy, a.n_rows) for a in aggs] == [("fixed0", 4)]
    assert math.isnan(aggs[0].budget_us)


def test_dark_pixels_aggregate_in_one_group():
    # A dark pixel (no ambient light) has SBR NaN; two of them are one group,
    # sorted after the lit pixels of the same policy and ambient level.
    raw = json.loads(json.dumps(BASE_CONFIG))
    raw["scene"] = {"depth_bin": 11, "ambient_flux": 0.0, "signal_flux": 0.1}
    raw["policies"] = [{"name": "fixed0", "kind": "fixed", "gate": 0}]
    rows, aggs, failures = sg.run_sweep(sg.parse_config(raw))
    assert failures == [] and len(rows) == 2
    assert all(math.isnan(r.sbr) for r in rows) and rows[0].sbr is not rows[1].sbr
    assert [(a.policy, a.n_rows) for a in aggs] == [("fixed0", 2)]
    lit = [dataclasses.replace(r, sbr=5.0) for r in rows]
    mixed = sg.aggregate_rows([rows[0], lit[0], rows[1], lit[1]])
    assert [(a.sbr, a.n_rows) for a in mixed][0] == (5.0, 2)
    assert math.isnan(mixed[1].sbr) and mixed[1].n_rows == 2


class InlinePool:
    """Stands in for ProcessPoolExecutor: runs the rows here, logs its start and shutdown."""

    events: list = []

    def __init__(self, max_workers, initializer=None):
        self.workers = max_workers
        self.events.append(("start", max_workers))

    def map(self, fn, iterable, chunksize=1):
        return map(fn, iterable)

    def shutdown(self, wait=True, cancel_futures=False):
        self.events.append(("shutdown", self.workers))


@pytest.fixture
def inline_pool(monkeypatch):
    """Pools run inline, starting with no kept pool; returns the pools' start and shutdown events."""
    import concurrent.futures

    monkeypatch.setattr(InlinePool, "events", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(harness, "_POOL", None)  # restored afterwards, so no earlier pool is seen or lost
    return InlinePool.events


def _one_policy_config(seeds=3):
    return _config(experiment={"id": "unit", "seeds": seeds, "global_seed": 7},
                   policies=[{"name": "fixed0", "kind": "fixed", "gate": 0}])


def test_pool_starts_no_more_workers_than_rows(inline_pool):
    cfg = _one_policy_config()
    rows, _aggs, failures = sg.run_sweep(cfg, threads=64)
    assert len(rows) == 3 and failures == []
    sg.run_sweep(cfg, threads=2)
    assert [n for event, n in inline_pool if event == "start"] == [3, 2]


def test_calls_with_one_worker_count_share_one_pool(inline_pool, tmp_path):
    cfg = _one_policy_config()
    sg.run_sweep(cfg, threads=2)
    sg.run_sweep(cfg, threads=2)
    sg.run_scene_scan(_scan_config(tmp_path), threads=2)  # two policies, one pool
    assert inline_pool == [("start", 2)]
    sg.run_sweep(cfg, threads=3)
    assert inline_pool == [("start", 2), ("shutdown", 2), ("start", 3)]


def test_a_pool_that_fails_is_not_kept(inline_pool, monkeypatch):
    import concurrent.futures

    cfg = _one_policy_config()
    sg.run_sweep(cfg, threads=2)

    def no_pool(max_workers, initializer=None):
        raise OSError("cannot start workers")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    with pytest.raises(OSError, match="cannot start workers"):
        sg.run_sweep(cfg, threads=3)
    assert harness._POOL is None and inline_pool == [("start", 2), ("shutdown", 2)]

    class ForkFails(InlinePool):  # a forked pool starts its workers at the first submit
        def map(self, fn, iterable, chunksize=1):
            raise OSError("fork failed")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", ForkFails)
    with pytest.raises(OSError, match="fork failed"):
        sg.run_sweep(cfg, threads=3)
    assert harness._POOL is None and inline_pool[-2:] == [("start", 3), ("shutdown", 3)]
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    rows, _aggs, failures = sg.run_sweep(cfg, threads=3)
    assert len(rows) == 3 and failures == [] and harness._POOL[0] == 3


def _results_bytes(path, rows):
    sg.write_results_csv(path, rows)
    return path.read_bytes()


def test_a_kept_pool_with_a_dead_worker_is_replaced(tmp_path):
    cfg = _one_policy_config(seeds=6)
    serial = _results_bytes(tmp_path / "serial.csv", sg.run_sweep(cfg, threads=1)[0])
    sg.run_sweep(cfg, threads=2)
    kept = harness._POOL
    workers = multiprocessing.active_children()
    assert kept[0] == 2 and len(workers) == 2
    os.kill(workers[0].pid, signal.SIGKILL)
    rows, _aggs, failures = sg.run_sweep(cfg, threads=2)
    assert failures == [] and harness._POOL is not kept
    assert _results_bytes(tmp_path / "parallel.csv", rows) == serial


def _running(pid: int) -> bool:
    """Whether ``pid`` runs; a zombie left to an init that does not reap counts as gone."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True  # no /proc: the signal reached it
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


# Runs a 2-worker sweep, writes the kept workers' pids and kills itself.
_KILLED_PARENT = """
import json, multiprocessing, os, signal, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import spadgate as sg
sg.run_sweep(sg.parse_config(json.loads(sys.argv[2])), threads=2)
Path(sys.argv[3]).write_text(" ".join(str(child.pid) for child in multiprocessing.active_children()))
os.kill(os.getpid(), signal.SIGKILL)
"""


def test_pool_workers_exit_when_their_parent_is_killed(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    pid_file, err_file = tmp_path / "pids.txt", tmp_path / "stderr.txt"
    # Files, not pipes: a worker that outlived its parent would hold a pipe open.
    with err_file.open("w") as err:
        done = subprocess.run([sys.executable, "-c", _KILLED_PARENT, str(src), json.dumps(BASE_CONFIG), str(pid_file)],
                              stdout=subprocess.DEVNULL, stderr=err, timeout=300)
    pids = [int(pid) for pid in pid_file.read_text().split()] if pid_file.exists() else []
    try:
        assert done.returncode == -signal.SIGKILL and len(pids) == 2, err_file.read_text()
        deadline = time.monotonic() + 10.0
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, pids))
    finally:
        for pid in filter(_running, pids):
            os.kill(pid, signal.SIGKILL)


# Runs a 2-worker sweep, forks, and runs it again in the child, whose
# inherited kept pool has no threads behind it.
_FORKED_CHILD = """
import json, os, signal, sys
sys.path.insert(0, sys.argv[1])
import spadgate as sg
cfg = sg.parse_config(json.loads(sys.argv[2]))
sg.run_sweep(cfg, threads=2)
pid = os.fork()
if pid == 0:
    signal.alarm(60)
    rows, _, failures = sg.run_sweep(cfg, threads=2)
    os._exit(0 if len(rows) == 4 and not failures else 1)
print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_starts_its_own_pool():
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", _FORKED_CHILD, str(src), json.dumps(BASE_CONFIG)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0 and done.stdout.split() == ["0"], done.stderr


def test_sweep_thread_invariance(tmp_path, monkeypatch):
    # The costliest policy comes last.  Its rows at ambient 0 fail, and so
    # do free running + MAP's: a known background of 0 cannot scale the
    # flux grid.
    raw = json.loads(json.dumps(BASE_CONFIG))
    raw["policies"] = [{"name": "fixed0", "kind": "fixed", "gate": 0}, {"name": "uniform", "kind": "uniform"},
                       {"name": "free", "kind": "free_running"},
                       {"name": "adaptive", "kind": "adaptive"}]
    raw["sweep"] = {"sbr": [2.0, 5.0], "ambient_flux": [0.0, 0.02]}
    cfg = sg.parse_config(raw)
    submitted = []
    pool_map = harness._pool_map
    monkeypatch.setattr(harness, "_pool_map", lambda workers, args, chunk: (
        submitted.extend(spec.policy.name for _, spec in args) or pool_map(workers, args, chunk)))
    rows1, aggs1, failures1 = sg.run_sweep(cfg, threads=1)
    rows2, aggs2, failures2 = sg.run_sweep(cfg, threads=2)
    # Workers get the costliest kinds first; the rows come back in spec order.
    assert submitted == ["adaptive"] * 8 + ["free"] * 8 + ["fixed0"] * 8 + ["uniform"] * 8
    assert [f.policy for f in failures1] == ["free"] * 4 + ["adaptive"] * 4
    assert failures1 == failures2
    # nan fields defeat dataclass equality, so compare the serialized form
    p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    sg.write_results_csv(p1, rows1)
    sg.write_results_csv(p2, rows2)
    assert p1.read_bytes() == p2.read_bytes()
    a1, a2 = tmp_path / "a1.csv", tmp_path / "a2.csv"
    sg.write_aggregates_csv(a1, aggs1)
    sg.write_aggregates_csv(a2, aggs2)
    assert a1.read_bytes() == a2.read_bytes()


def test_block_rows_are_thread_invariant(tmp_path, monkeypatch):
    # Adaptive rows without a stop rule run in blocks of Thompson draws,
    # calibration first; at 1 and 4 workers they give the same bytes.
    raw = json.loads(json.dumps(BASE_CONFIG))
    raw.update(policies=[{"name": "adaptive", "kind": "adaptive"}], background={"mode": "estimated"},
               sweep={"ambient_flux": [0.01, 0.05]})
    cfg = sg.parse_config(raw)
    blocks = []
    observe = sg.AdaptiveGatePolicy.observe_block
    monkeypatch.setattr(sg.AdaptiveGatePolicy, "observe_block",
                        lambda self, *columns: blocks.append(len(columns[0])) or observe(self, *columns))
    rows1, _, failures1 = sg.run_sweep(cfg, threads=1)
    assert len(blocks) > 10 * len(rows1)  # the in-process run went through the blocks
    rows4, _, failures4 = sg.run_sweep(cfg, threads=4)
    assert failures1 == failures4 == []
    p1, p4 = tmp_path / "r1.csv", tmp_path / "r4.csv"
    sg.write_results_csv(p1, rows1)
    sg.write_results_csv(p4, rows4)
    assert p1.read_bytes() == p4.read_bytes()


def test_compute_metrics_hand_check():
    def row(est_bin, est_m, true_m, loss, exposure, cycles):
        return sg.ResultRow(
            experiment_id="m", policy="p", x=-1, y=-1, ambient_flux=0.1,
            signal_flux=0.5, sbr=5.0, dead_time_ns=81.0, budget_us=100.0,
            seed=0, true_depth_bin=0, true_depth_m=true_m, est_depth_bin=est_bin,
            est_depth_subbin=float(est_bin), est_depth_m=est_m, zero_one_loss=loss,
            abs_error_m=abs(est_m - true_m), termination_value=0.0,
            entropy_nats=0.0, cycles=cycles, exposure_us=exposure,
            detections_true_bin=0,
        )

    rows = [row(0, 1.0, 0.0, 1, 10.0, 100), row(0, 0.0, 0.0, 0, 30.0, 300)]
    m = sg.compute_metrics(rows)
    assert m["rmse_m"] == pytest.approx(math.sqrt(0.5))
    assert m["mean_zero_one_loss"] == 0.5
    assert m["median_abs_error_m"] == 0.5
    assert m["mean_exposure_us"] == 20.0
    assert m["mean_cycles"] == 200.0
    empty = sg.compute_metrics([])
    assert empty["n_rows"] == 0 and math.isnan(empty["rmse_m"])


# ---------------------------------------------------------------------------
# CSV files


def test_csv_write_load_write_fixed_point(tmp_path):
    cfg = _config()
    rows, _, _ = sg.run_sweep(cfg)
    p1 = tmp_path / "rows.csv"
    p2 = tmp_path / "rows2.csv"
    sg.write_results_csv(p1, rows)
    loaded = load_results_csv(p1)
    assert len(loaded) == len(rows)
    assert [r.policy for r in loaded] == [r.policy for r in rows]
    sg.write_results_csv(p2, loaded)
    assert p1.read_bytes() == p2.read_bytes()
    text = p1.read_text(encoding="utf-8")
    assert "\r" not in text
    assert text.splitlines()[0].startswith("experiment_id,policy,x,y,")


def test_format_cell_nine_significant_digits():
    assert _format_cell(0.1 + 0.2) == "0.3"
    assert _format_cell(1.0) == "1"
    assert _format_cell(123456789012.0) == "1.23456789e+11"
    assert _format_cell(-1) == "-1"
    assert _format_cell("adaptive") == "adaptive"
    assert _format_cell(float("nan")) == "nan"


def test_write_map_csv(tmp_path):
    grid = np.array([[0.5, 1.0], [float("nan"), 2.0]])
    p = tmp_path / "map.csv"
    sg.write_map_csv(p, grid)
    assert p.read_text(encoding="utf-8") == "col0,col1\n0.5,1\nnan,2\n"


# ---------------------------------------------------------------------------
# Scene scans


def _scan_config(tmp_path, prior=None, policies=None):
    depth = tmp_path / "depth.txt"
    depth.write_text("3 2\n0.15 0.30 0.45\n0.45 0.30 0.15\n", encoding="utf-8")
    raw = json.loads(json.dumps(BASE_CONFIG))
    raw["experiment"]["seeds"] = 1
    raw["scene"] = {"depth_map": str(depth), "ambient_flux": 0.02, "sbr": 5.0}
    raw["budget_us"] = 10.0
    if prior is not None:
        raw["prior"] = prior
    if policies is not None:
        raw["policies"] = policies
    return sg.parse_config(raw)


def test_run_scene_scan_maps_and_order(tmp_path):
    cfg = _scan_config(tmp_path)
    rows, maps, failures = sg.run_scene_scan(cfg)
    assert failures == []
    assert len(rows) == 12  # 6 pixels x 2 policies
    assert [(r.policy, r.y, r.x) for r in rows] == sorted(
        (r.policy, r.y, r.x) for r in rows
    )
    assert set(maps) == {"fixed0", "adaptive"}
    for name, policy_maps in maps.items():
        assert set(policy_maps) == {"depth_m", "abs_error_m", "entropy_nats", "exposure_us"}
        for key, grid in policy_maps.items():
            assert grid.shape == (2, 3)
            if name == "fixed0" and key == "entropy_nats":
                # the histogram estimator has no posterior to measure
                assert np.all(np.isnan(grid))
            else:
                assert not np.any(np.isnan(grid))
    # depth bins: 0.15 m -> 10, 0.30 m -> 20, 0.45 m -> 30
    by_pix = {(r.x, r.y): r for r in rows if r.policy == "adaptive"}
    assert by_pix[(0, 0)].true_depth_bin == 10
    assert by_pix[(2, 1)].true_depth_bin == 10
    assert by_pix[(1, 1)].true_depth_bin == 20


def test_scene_scan_thread_invariance(tmp_path):
    cfg = _scan_config(tmp_path, policies=[{"name": "adaptive", "kind": "adaptive"}])
    rows1, maps1, _ = sg.run_scene_scan(cfg, threads=1)
    rows4, maps4, _ = sg.run_scene_scan(cfg, threads=4)
    assert rows1 == rows4
    assert np.array_equal(maps1["adaptive"]["depth_m"], maps4["adaptive"]["depth_m"], equal_nan=True)


def test_scene_scan_flatness_prior_chains(tmp_path):
    cfg = _scan_config(tmp_path, prior={"kind": "flatness", "sigma_bins": 5.0})
    rows, maps, failures = sg.run_scene_scan(cfg, threads=4)
    assert failures == []
    assert len(rows) == 12


def test_scene_scan_external_prior_shape_mismatch(tmp_path):
    prior_file = tmp_path / "prior.txt"
    prior_file.write_text("1 1\n0.3 0.05\n", encoding="utf-8")
    cfg = _scan_config(tmp_path, prior={"kind": "external", "path": str(prior_file)})
    with pytest.raises(sg.ConfigError, match="does not match scene"):
        sg.run_scene_scan(cfg)


@pytest.mark.parametrize("mismatch", [None, {"kind": "corner_tail", "tail_amplitude": 0.4, "tail_decay": 3.0}])
def test_one_pixel_scan_row_is_the_one_row_sweep_row(tmp_path, mismatch):
    # A 1x1 scan and a one-seed sweep of the same scene run each policy on
    # the same stream, so their rows differ only in the pixel coordinates.
    depth = tmp_path / "depth.txt"
    depth.write_text("1 1\n0.15\n", encoding="utf-8")  # bin 10
    raw = json.loads(json.dumps(BASE_CONFIG))
    raw["experiment"]["seeds"] = 1
    raw["scene"]["depth_bin"] = 10
    if mismatch is not None:
        raw["scene"]["mismatch"] = mismatch
    swept, _, failures = sg.run_sweep(sg.parse_config(raw))
    assert failures == []
    raw["scene"] = {k: v for k, v in raw["scene"].items() if k != "depth_bin"} | {"depth_map": str(depth)}
    scanned, _, failures = sg.run_scene_scan(sg.parse_config(raw))
    assert failures == []
    # Compared as repr, so that a histogram row's NaN entropy equals itself.
    assert [repr(dataclasses.replace(r, x=-1, y=-1)) for r in sorted(scanned, key=lambda r: r.seed)] == [
        repr(r) for r in swept]


def test_scene_scan_requires_depth_map():
    with pytest.raises(sg.ConfigError, match="depth_map"):
        sg.run_scene_scan(_config())


def test_scene_scan_external_prior_runs(tmp_path):
    prior_file = tmp_path / "prior.txt"
    lines = ["3 2"]
    for row in ("0.15 0.02 0.30 0.02 0.45 0.02", "0.45 0.02 0.30 0.02 0.15 0.02"):
        lines.append(row)
    prior_file.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg = _scan_config(
        tmp_path,
        prior={"kind": "external", "path": str(prior_file)},
        policies=[{"name": "adaptive", "kind": "adaptive"}],
    )
    rows, _, failures = sg.run_scene_scan(cfg)
    assert failures == []
    assert len(rows) == 6


# ---------------------------------------------------------------------------
# Consistency checks used by the oracle command


def test_normalization_check_small():
    assert sg.normalization_check(n_configs=6, seed=3) < 1e-9


def test_proposition_check_small():
    ok, detail = sg.proposition_check((8,), ((0.1, 0.5),))
    assert ok, detail


# ---------------------------------------------------------------------------
# CLI


def _write_cfg(tmp_path, raw):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(raw), encoding="utf-8")
    return p


def test_cli_check_ok(tmp_path, capsys):
    p = _write_cfg(tmp_path, BASE_CONFIG)
    assert main(["check", "--config", str(p)]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["experiment"]["id"] == "unit"


def test_cli_check_bad_config(tmp_path, capsys):
    p = _write_cfg(tmp_path, {"spad": {"bogus": 1}})
    assert main(["check", "--config", str(p)]) == 1
    assert "spad.bogus" in capsys.readouterr().err


def test_cli_pixel_writes_results(tmp_path, capsys):
    p = _write_cfg(tmp_path, BASE_CONFIG)
    out_dir = tmp_path / "out"
    assert main(["pixel", "--config", str(p), "--out", str(out_dir), "--seed", "3"]) == 0
    results = out_dir / "results.csv"
    assert results.exists() and (out_dir / "aggregates.csv").exists()
    rows = load_results_csv(results)
    assert len(rows) == 4
    # the seed override reaches the random streams
    out2 = tmp_path / "out2"
    assert main(["pixel", "--config", str(p), "--out", str(out2), "--seed", "4"]) == 0
    assert results.read_bytes() != (out2 / "results.csv").read_bytes()


def test_cli_pixel_ignores_sweep_axes(tmp_path):
    raw = json.loads(json.dumps(BASE_CONFIG))
    raw["sweep"] = {"sbr": [1.0, 2.0, 5.0]}
    p = _write_cfg(tmp_path, raw)
    out_dir = tmp_path / "out"
    assert main(["pixel", "--config", str(p), "--out", str(out_dir)]) == 0
    assert len(load_results_csv(out_dir / "results.csv")) == 4


def test_cli_sweep(tmp_path, capsys):
    raw = json.loads(json.dumps(BASE_CONFIG))
    raw["experiment"]["seeds"] = 1
    raw["sweep"] = {"sbr": [2.0, 5.0]}
    p = _write_cfg(tmp_path, raw)
    out_dir = tmp_path / "out"
    assert main(["sweep", "--config", str(p), "--out", str(out_dir), "--threads", "2"]) == 0
    rows = load_results_csv(out_dir / "results.csv")
    assert len(rows) == 4
    assert (out_dir / "aggregates.csv").exists()


def test_cli_scan(tmp_path):
    depth = tmp_path / "depth.txt"
    depth.write_text("2 1\n0.15 0.30\n", encoding="utf-8")
    raw = json.loads(json.dumps(BASE_CONFIG))
    raw["experiment"]["seeds"] = 1
    raw["scene"] = {"depth_map": str(depth), "ambient_flux": 0.02, "sbr": 5.0}
    raw["budget_us"] = 10.0
    raw["policies"] = [{"name": "adaptive", "kind": "adaptive"}]
    p = _write_cfg(tmp_path, raw)
    out_dir = tmp_path / "out"
    assert main(["scan", "--config", str(p), "--out", str(out_dir)]) == 0
    assert (out_dir / "results.csv").exists()
    for key in ("depth_m", "abs_error_m", "entropy_nats", "exposure_us"):
        assert (out_dir / f"adaptive_{key}.csv").exists()


def test_cli_scan_without_depth_map(tmp_path, capsys):
    p = _write_cfg(tmp_path, BASE_CONFIG)
    assert main(["scan", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
    assert "depth_map" in capsys.readouterr().err


def test_cli_missing_config(tmp_path, capsys):
    assert main(["check", "--config", str(tmp_path / "missing.json")]) == 1


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_cli_rejects_fewer_than_one_thread(tmp_path, capsys, threads):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(BASE_CONFIG))
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", str(p), "--threads", threads])
    assert exc.value.code == 2
    assert f"argument --threads: must be a whole number of at least 1, got '{threads}'" in capsys.readouterr().err


def test_cli_oracle(capsys):
    assert main(["oracle"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 2


@pytest.mark.parametrize("argv", [
    ["oracle", "--threads", "2"], ["oracle", "--out", "o"], ["oracle", "--config", "c.json"],
    ["check", "--config", "c.json", "--threads", "2"],
])
def test_cli_refuses_a_flag_the_subcommand_does_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["estimated", "known"])
@pytest.mark.parametrize("spad", [
    {"num_bins": 1, "dead_time_ns": 20.0},
    {"num_bins": 40, "dead_time_ns": 0.0},
    {"num_bins": 40, "dead_time_ns": 20.0, "max_active_periods": 1},
    {"num_bins": 1, "dead_time_ns": 0.0, "max_active_periods": 1},
])
def test_edge_inputs_give_finite_rows(mode, spad):
    # One bin, no dead time, one active period and saturating ambient, run
    # to a 3000-cycle cap: adaptive and free-running MAP rows come out
    # whole, with no numpy warning on the way.
    raw = json.loads(json.dumps(BASE_CONFIG))
    raw["experiment"]["seeds"] = 1
    raw["spad"] = {"bin_resolution_ps": 100.0, "rep_rate_mhz": 20.0, **spad}
    raw["scene"] = {"depth_bin": 0, "ambient_flux": 0.5, "sbr": 1.0}
    raw["sweep"] = {"ambient_flux": [0.5, 3.0]}
    raw["policies"] = [{"name": "adaptive", "kind": "adaptive"},
                       {"name": "free_map", "kind": "free_running", "estimator": "map"}]
    raw["budget_us"] = None
    raw["max_cycles"] = 3000
    raw["background"] = {"mode": mode}
    cfg = sg.parse_config(raw)
    specs = sg.build_sweep_specs(cfg)
    assert sorted({s.ambient_flux for s in specs}) == [0.5, 3.0] and len(specs) == 4
    for spec in specs:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            row = run_pixel_experiment(cfg, spec)
        assert isinstance(row, sg.ResultRow)
        assert row.cycles == 3000
        assert math.isfinite(row.termination_value)
        assert 0.0 <= row.entropy_nats <= math.log(spad["num_bins"])



def test_known_background_out_of_the_flux_grid_range_is_a_config_error():
    # 0.1 * 5e-324 underflows to 0 and 100 * 1e307 overflows, so
    # default_flux_grid has no geometric range to span.
    with pytest.raises(sg.ConfigError, match=r"^scene\.ambient_flux 5e-324 is too small .*flux_grid_lo"):
        _config(scene={"depth_bin": 11, "ambient_flux": 5e-324, "sbr": 5.0})
    with pytest.raises(sg.ConfigError, match=r"sweep\.ambient_flux 1e\+307 is too large .*flux_grid_hi"):
        _config(sweep={"ambient_flux": [0.02, 1e307]})
    # estimated background never scales the grid by the ambient
    assert _config(scene={"depth_bin": 11, "ambient_flux": 5e-324, "sbr": 5.0},
                   background={"mode": "estimated"}).ambient_flux == 5e-324


def test_subnormal_known_background_still_gives_rows():
    cfg = _config(experiment={"id": "unit", "seeds": 1, "global_seed": 7},
                  scene={"depth_bin": 11, "ambient_flux": 1e-322, "sbr": 5.0})
    rows, _, failures = sg.run_sweep(cfg)
    assert failures == [] and len(rows) == 2

def test_stop_rule_and_readout_read_one_termination_value():
    # The adaptive-stop operating point (B = 100, SBR 1, 2 and 5, background
    # estimated): a row stops before its cap exactly when the termination
    # value it reports is below epsilon.
    raw = {
        "experiment": {"id": "stop", "seeds": 20, "global_seed": 11},
        "spad": {"bin_resolution_ps": 100.0, "rep_rate_mhz": 100.0, "dead_time_ns": 81.0},
        "scene": {"depth_bin": 60, "ambient_flux": 0.01, "sbr": 2.0},
        "policies": [{"name": "adaptive", "kind": "adaptive"}],
        "budget_us": None,
        "max_cycles": 4000,
        "exposure": {"enabled": True, "epsilon": 0.25, "metric": "termination"},
        "background": {"mode": "estimated"},
        "sweep": {"sbr": [1.0, 2.0, 5.0]},
    }
    rows, _, failures = sg.run_sweep(sg.parse_config(raw))
    assert failures == [] and len(rows) == 60
    stopped = [r for r in rows if r.cycles < 4000]
    assert len(stopped) >= 40
    assert all(r.termination_value < 0.25 for r in stopped)
    assert all(r.termination_value >= 0.25 for r in rows if r.cycles == 4000)


# The traced benchmark run (bench/tracing.py) times the package by replacing
# attributes it looks up at call time; a refactor that binds them earlier
# silently zeroes a layer's spans.
_TRACED_SWEEP = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import spadgate as sg
from tracing import Tracer
tracer = Tracer()
tracer.install(sg)
rows, _, failures = sg.run_sweep(sg.parse_config(json.loads(sys.argv[3])))
spans = {}
for i in tracer.name_id:
    spans[tracer.names[i]] = spans.get(tracer.names[i], 0) + 1
print(json.dumps({"spans": spans, "cycles": [r.cycles for r in rows], "failures": len(failures)}))
"""


# The benchmark's correctness checks (bench/checks.py) call the package's
# public functions; a rename or a dropped argument there would turn a
# benchmark run into incorrect output.  Each check runs on the first
# reference round of its workload.
_BENCH_CHECKS = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import spadgate as sg
import checks, workloads
problems = []
for name, build, check in (("paper-point", workloads.paper_point, lambda rows, c: checks.paper_map(sg, rows, c)),
                          ("adaptive-stop", workloads.adaptive_stop, checks.stopping)):
    config = sg.parse_config(build(workloads.REFERENCE_SEED, workloads.WORKLOADS[name].round_seeds))
    rows, _, failures = sg.run_sweep(config)
    problems += checks.no_failures(failures) + check(rows, config)[0]
print(json.dumps(problems))
"""


def test_benchmark_checks_pass_on_a_reference_round():
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", _BENCH_CHECKS, str(root / "src"), str(root / "bench")],
                          capture_output=True, text=True, timeout=300, check=True)
    assert json.loads(done.stdout.splitlines()[-1]) == []


def test_traced_run_hooks_see_every_adaptive_cycle():
    raw = {
        "experiment": {"id": "traced", "seeds": 2, "global_seed": 5},
        "spad": {"bin_resolution_ps": 100.0, "rep_rate_mhz": 100.0, "dead_time_ns": 81.0},
        "scene": {"depth_bin": 60, "ambient_flux": 0.01, "sbr": 2.0},
        "policies": [{"name": "adaptive", "kind": "adaptive"}],
        "budget_us": None,
        "max_cycles": 500,  # 10 calibration cycles per row
        "exposure": {"enabled": True, "epsilon": 0.25, "metric": "termination"},
        "background": {"mode": "estimated"},
    }
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", _TRACED_SWEEP, str(root / "src"), str(root / "bench"), json.dumps(raw)],
                          capture_output=True, text=True, timeout=300, check=True)
    out = json.loads(done.stdout.splitlines()[-1])
    spans, cycles = out["spans"], out["cycles"]
    assert out["failures"] == 0 and len(cycles) == 2 and 20 <= min(cycles) < 500  # one stopped by the rule
    # Every cycle after calibration is one update, through observe.
    assert spans["estimators.posterior_update"] == spans["policies.observe"] == sum(n - 10 for n in cycles)

    def blocks(n: int) -> int:
        """Thompson blocks of a row of n cycles: max(1, done // 4) draws each, capped at the 500."""
        done, count = 10, 0
        while done < n:
            done += min(max(1, done // 4), 500 - done)
            count += 1
        return count

    assert spans["policies.thompson_draw"] == sum(blocks(n) for n in cycles)
    # Once at each block's start, once more where a stop rule ended the row,
    # and once after each cycle taken.
    assert spans["policies.should_stop"] == sum(blocks(n) + (n < 500) + n - 10 for n in cycles)
    assert spans["harness.row"] == spans["spadsim.acquisition"] == 2
