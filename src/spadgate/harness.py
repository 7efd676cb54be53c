"""Experiment harness: configs, matched-budget studies, sweeps, scans, CSV.

Comparisons between gating policies are always matched on absolute
exposure time (budgets in microseconds, converted to bins), never on
cycle counts; free-running and gated modes spend wall-clock time very
differently per cycle.

Determinism: every result row draws from its own RNG stream keyed by
(global_seed, stream_index), with stream indices assigned in config
order.  Rows are therefore independent of the executor, and sweep output
files are byte-identical at any thread count.  Aggregation visits groups
in sorted key order, never completion order.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, Iterable

import numpy as np

from .core import (
    SceneTransient,
    SpadConfig,
    bin_to_depth,
    depth_to_bin,
    derive_num_bins,
    detection_distribution,
    no_detection_probability,
    timestamps_to_histogram,
)
from .estimators import (
    coates_depth,
    coates_transient,
    default_flux_grid,
    dither_depth,
    estimate_background,
    map_depth,
    posterior_entropy,
    posterior_from_record,
)
from .policies import (
    AdaptiveGatePolicy,
    ExposureControl,
    FixedGatePolicy,
    FreeRunningPolicy,
    UniformGatePolicy,
    optimal_gate,
    reward,
    termination_value,
)
from .scene import (
    SceneGrid,
    external_prior_mass,
    flatness_prior,
    load_depth_map,
    load_external_prior,
    load_flux_map,
    mismatch_transient,
    prior_params_to_bins,
    scan_order,
)
from .spadsim import run_acquisition, stream_rng


class ConfigError(ValueError):
    """Invalid or unknown configuration content; messages name the keys."""


# ---------------------------------------------------------------------------
# Configuration


@dataclass(frozen=True)
class PolicySpec:
    """One policy column of an experiment."""

    name: str
    kind: str  # fixed | uniform | free_running | adaptive
    estimator: str = "map"  # map | coates
    gate: int | None = None
    gate_offset: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("fixed", "uniform", "free_running", "adaptive"):
            raise ConfigError(f"policy {self.name!r}: unknown kind {self.kind!r}")
        if self.estimator not in ("map", "coates"):
            raise ConfigError(f"policy {self.name!r}: unknown estimator {self.estimator!r}")
        if self.kind == "fixed" and self.gate is None:
            raise ConfigError(f"policy {self.name!r}: fixed gating needs a gate")


_DEFAULT_POLICIES = (
    PolicySpec(name="adaptive", kind="adaptive", estimator="map"),
    PolicySpec(name="free_running", kind="free_running", estimator="map"),
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed, validated experiment description (see parse_config)."""

    experiment_id: str = "experiment"
    out_dir: str = "results"
    seeds: int = 1
    global_seed: int = 0
    bin_resolution_ps: float = 100.0
    rep_rate_hz: float = 20e6
    num_bins: int | None = None
    dead_time_ns: float = 81.0
    max_active_periods: int = 16
    ambient_flux: float | None = None
    sbr: float | None = None
    signal_flux: float | None = None
    depth_bin: int | None = None
    depth_m: float | None = None
    mismatch_kind: str | None = None
    mismatch_second_depth: int | None = None
    mismatch_second_flux: float | None = None
    mismatch_tail_amplitude: float | None = None
    mismatch_tail_decay: float | None = None
    depth_map: str | None = None
    ambient_map: str | None = None
    signal_map: str | None = None
    policies: tuple[PolicySpec, ...] = _DEFAULT_POLICIES
    budget_us: float | None = 100.0
    max_cycles: int | None = None
    exposure_enabled: bool = False
    exposure_epsilon: float = 0.25
    exposure_metric: str = "termination"
    exposure_min_cycles: int | None = None
    background_mode: str = "estimated"
    background_fallback: float = 0.01
    flux_grid_size: int = 16
    flux_grid_lo: float = 0.1
    flux_grid_hi: float = 100.0
    dither_window: int = 3
    prior_kind: str = "uniform"
    prior_sigma_bins: float = 10.0
    prior_floor_weight: float = 0.1
    prior_path: str | None = None
    sweep_ambient_flux: tuple[float, ...] | None = None
    sweep_sbr: tuple[float, ...] | None = None
    sweep_dead_time_ns: tuple[float, ...] | None = None
    sweep_budget_us: tuple[float, ...] | None = None

    @property
    def resolved_num_bins(self) -> int:
        if self.num_bins is not None:
            return self.num_bins
        return derive_num_bins(self.bin_resolution_ps, self.rep_rate_hz)

    def spad_config(self, dead_time_ns: float | None = None) -> SpadConfig:
        return SpadConfig(
            bin_resolution_ps=self.bin_resolution_ps,
            rep_rate_hz=self.rep_rate_hz,
            num_bins=self.resolved_num_bins,
            dead_time_ns=self.dead_time_ns if dead_time_ns is None else dead_time_ns,
            max_active_periods=self.max_active_periods,
        )

    def budget_bins(self, budget_us: float | None = None) -> int | None:
        budget_us = self.budget_us if budget_us is None else budget_us
        if budget_us is None:
            return None
        return int(round(budget_us * 1e6 / self.bin_resolution_ps))

    def resolved_depth_bin(self) -> int:
        if self.depth_bin is not None:
            return self.depth_bin
        if self.depth_m is not None:
            return depth_to_bin(self.depth_m, self.bin_resolution_ps)
        raise ConfigError("scene has no depth (need scene.depth_bin or scene.depth_m)")

    def to_dict(self) -> dict:
        """Canonical nested form, the inverse of parse_config."""
        d: dict[str, Any] = {
            "experiment": {
                "id": self.experiment_id,
                "out_dir": self.out_dir,
                "seeds": self.seeds,
                "global_seed": self.global_seed,
            },
            "spad": {
                "bin_resolution_ps": self.bin_resolution_ps,
                "rep_rate_mhz": self.rep_rate_hz / 1e6,
                "dead_time_ns": self.dead_time_ns,
                "max_active_periods": self.max_active_periods,
            },
            "scene": {},
            "policies": [
                {k: v for k, v in asdict(p).items() if v is not None} for p in self.policies
            ],
            "budget_us": self.budget_us,
            "max_cycles": self.max_cycles,
            "exposure": {
                "enabled": self.exposure_enabled,
                "epsilon": self.exposure_epsilon,
                "metric": self.exposure_metric,
                "min_cycles": self.exposure_min_cycles,
            },
            "background": {
                "mode": self.background_mode,
                "fallback_flux": self.background_fallback,
            },
            "estimator": {
                "flux_grid_size": self.flux_grid_size,
                "flux_grid_lo": self.flux_grid_lo,
                "flux_grid_hi": self.flux_grid_hi,
                "dither_window": self.dither_window,
            },
            "prior": {
                "kind": self.prior_kind,
                "sigma_bins": self.prior_sigma_bins,
                "floor_weight": self.prior_floor_weight,
            },
        }
        if self.num_bins is not None:
            d["spad"]["num_bins"] = self.num_bins
        scene = d["scene"]
        for key, val in (
            ("ambient_flux", self.ambient_flux),
            ("sbr", self.sbr),
            ("signal_flux", self.signal_flux),
            ("depth_bin", self.depth_bin),
            ("depth_m", self.depth_m),
            ("depth_map", self.depth_map),
            ("ambient_map", self.ambient_map),
            ("signal_map", self.signal_map),
        ):
            if val is not None:
                scene[key] = val
        if self.mismatch_kind is not None:
            mm: dict[str, Any] = {"kind": self.mismatch_kind}
            for key, val in (
                ("second_depth", self.mismatch_second_depth),
                ("second_flux", self.mismatch_second_flux),
                ("tail_amplitude", self.mismatch_tail_amplitude),
                ("tail_decay", self.mismatch_tail_decay),
            ):
                if val is not None:
                    mm[key] = val
            scene["mismatch"] = mm
        if self.prior_path is not None:
            d["prior"]["path"] = self.prior_path
        sweep = {}
        for key, val in (
            ("ambient_flux", self.sweep_ambient_flux),
            ("sbr", self.sweep_sbr),
            ("dead_time_ns", self.sweep_dead_time_ns),
            ("budget_us", self.sweep_budget_us),
        ):
            if val is not None:
                sweep[key] = list(val)
        if sweep:
            d["sweep"] = sweep
        return d


def serialize_config(config: ExperimentConfig) -> str:
    """Canonical JSON text; parse_config(serialize_config(c)) round-trips."""
    return json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n"


def _take(section: dict, errors: list[str], path: str, key: str, kind, default=None):
    if key not in section:
        return default
    val = section.pop(key)
    if val is None:  # JSON null reads as "use the default"
        return default
    try:
        if kind is bool:
            if not isinstance(val, bool):
                raise ValueError
            return val
        if kind is int:
            if isinstance(val, bool) or int(val) != val:
                raise ValueError
            return int(val)
        if kind is float:
            if isinstance(val, bool):
                raise ValueError
            return float(val)
        if kind is str:
            if not isinstance(val, str):
                raise ValueError
            return str(val)
        if kind is list:
            if not isinstance(val, list):
                raise ValueError
            return val
    except (TypeError, ValueError):
        errors.append(f"{path}.{key}: expected {kind.__name__}, got {val!r}")
        return default
    raise AssertionError(f"unhandled kind {kind}")


def _float_list(section: dict, errors: list[str], path: str, key: str) -> tuple[float, ...] | None:
    raw = _take(section, errors, path, key, list)
    if raw is None:
        return None
    try:
        out = tuple(float(v) for v in raw)
    except (TypeError, ValueError):
        errors.append(f"{path}.{key}: expected a list of numbers")
        return None
    if not out:
        errors.append(f"{path}.{key}: empty sweep axis")
        return None
    return out


def parse_config(source: str | Path | dict) -> ExperimentConfig:
    """Parse and validate a JSON experiment config.

    Accepts a path, raw JSON text, or an already-decoded dict.  Unknown
    keys and missing required fields are collected and reported together
    in a ConfigError.  Documented defaults: 100 ps bins, 20 MHz repetition
    rate (500 bins), 81 ns dead time, 100 us budget, epsilon 0.25 with the
    "termination" metric.
    """
    if isinstance(source, dict):
        raw = json.loads(json.dumps(source))  # deep copy, ensure JSON-compatible
    else:
        if _looks_like_path(source):
            try:
                text = Path(source).read_text(encoding="utf-8")
            except OSError as exc:
                raise ConfigError(f"cannot read config: {exc}") from None
        else:
            text = str(source)
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")

    errors: list[str] = []
    kwargs: dict[str, Any] = {}

    exp = raw.pop("experiment", {}) or {}
    if not isinstance(exp, dict):
        errors.append("experiment: expected an object")
        exp = {}
    kwargs["experiment_id"] = _take(exp, errors, "experiment", "id", str, "experiment")
    kwargs["out_dir"] = _take(exp, errors, "experiment", "out_dir", str, "results")
    kwargs["seeds"] = _take(exp, errors, "experiment", "seeds", int, 1)
    kwargs["global_seed"] = _take(exp, errors, "experiment", "global_seed", int, 0)
    errors.extend(f"unknown key experiment.{k}" for k in exp)

    spad = raw.pop("spad", {}) or {}
    if not isinstance(spad, dict):
        errors.append("spad: expected an object")
        spad = {}
    kwargs["bin_resolution_ps"] = _take(spad, errors, "spad", "bin_resolution_ps", float, 100.0)
    rep_mhz = _take(spad, errors, "spad", "rep_rate_mhz", float, 20.0)
    kwargs["rep_rate_hz"] = rep_mhz * 1e6
    kwargs["num_bins"] = _take(spad, errors, "spad", "num_bins", int)
    kwargs["dead_time_ns"] = _take(spad, errors, "spad", "dead_time_ns", float, 81.0)
    kwargs["max_active_periods"] = _take(spad, errors, "spad", "max_active_periods", int, 16)
    errors.extend(f"unknown key spad.{k}" for k in spad)

    scn = raw.pop("scene", {}) or {}
    if not isinstance(scn, dict):
        errors.append("scene: expected an object")
        scn = {}
    kwargs["ambient_flux"] = _take(scn, errors, "scene", "ambient_flux", float)
    kwargs["sbr"] = _take(scn, errors, "scene", "sbr", float)
    kwargs["signal_flux"] = _take(scn, errors, "scene", "signal_flux", float)
    kwargs["depth_bin"] = _take(scn, errors, "scene", "depth_bin", int)
    kwargs["depth_m"] = _take(scn, errors, "scene", "depth_m", float)
    kwargs["depth_map"] = _take(scn, errors, "scene", "depth_map", str)
    kwargs["ambient_map"] = _take(scn, errors, "scene", "ambient_map", str)
    kwargs["signal_map"] = _take(scn, errors, "scene", "signal_map", str)
    for key in ("mismatch_kind", "mismatch_second_depth", "mismatch_second_flux",
                "mismatch_tail_amplitude", "mismatch_tail_decay"):
        kwargs[key] = None
    mm = scn.pop("mismatch", None)
    if mm is not None:
        if not isinstance(mm, dict):
            errors.append("scene.mismatch: expected an object")
        else:
            kwargs["mismatch_kind"] = _take(mm, errors, "scene.mismatch", "kind", str)
            kwargs["mismatch_second_depth"] = _take(mm, errors, "scene.mismatch", "second_depth", int)
            kwargs["mismatch_second_flux"] = _take(mm, errors, "scene.mismatch", "second_flux", float)
            kwargs["mismatch_tail_amplitude"] = _take(mm, errors, "scene.mismatch", "tail_amplitude", float)
            kwargs["mismatch_tail_decay"] = _take(mm, errors, "scene.mismatch", "tail_decay", float)
            errors.extend(f"unknown key scene.mismatch.{k}" for k in mm)
    errors.extend(f"unknown key scene.{k}" for k in scn)

    pols = raw.pop("policies", None)
    if pols is None:
        kwargs["policies"] = _DEFAULT_POLICIES
    elif not isinstance(pols, list) or not pols:
        errors.append("policies: expected a non-empty list")
        kwargs["policies"] = _DEFAULT_POLICIES
    else:
        parsed = []
        for i, entry in enumerate(pols):
            if not isinstance(entry, dict):
                errors.append(f"policies[{i}]: expected an object")
                continue
            entry = dict(entry)
            path = f"policies[{i}]"
            kind = _take(entry, errors, path, "kind", str, "adaptive")
            name = _take(entry, errors, path, "name", str, kind)
            est = _take(entry, errors, path, "estimator", str, "map" if kind in ("adaptive", "free_running") else "coates")
            gate = _take(entry, errors, path, "gate", int)
            offset = _take(entry, errors, path, "gate_offset", int, 0)
            errors.extend(f"unknown key {path}.{k}" for k in entry)
            try:
                parsed.append(PolicySpec(name=name, kind=kind, estimator=est, gate=gate, gate_offset=offset))
            except ConfigError as exc:
                errors.append(str(exc))
        kwargs["policies"] = tuple(parsed) if parsed else _DEFAULT_POLICIES
        names = [p.name for p in kwargs["policies"]]
        if len(set(names)) != len(names):
            errors.append("policies: names must be unique")

    # An explicit null budget means "cycle-capped only"; an absent key means
    # the default 100 us.
    if "budget_us" in raw and raw["budget_us"] is None:
        raw.pop("budget_us")
        kwargs["budget_us"] = None
    else:
        kwargs["budget_us"] = _take(raw, errors, "config", "budget_us", float, 100.0)
    kwargs["max_cycles"] = _take(raw, errors, "config", "max_cycles", int)

    expo = raw.pop("exposure", {}) or {}
    if not isinstance(expo, dict):
        errors.append("exposure: expected an object")
        expo = {}
    kwargs["exposure_enabled"] = _take(expo, errors, "exposure", "enabled", bool, False)
    kwargs["exposure_epsilon"] = _take(expo, errors, "exposure", "epsilon", float, 0.25)
    kwargs["exposure_metric"] = _take(expo, errors, "exposure", "metric", str, "termination")
    kwargs["exposure_min_cycles"] = _take(expo, errors, "exposure", "min_cycles", int)
    errors.extend(f"unknown key exposure.{k}" for k in expo)

    bkg = raw.pop("background", {}) or {}
    if not isinstance(bkg, dict):
        errors.append("background: expected an object")
        bkg = {}
    kwargs["background_mode"] = _take(bkg, errors, "background", "mode", str, "estimated")
    kwargs["background_fallback"] = _take(bkg, errors, "background", "fallback_flux", float, 0.01)
    errors.extend(f"unknown key background.{k}" for k in bkg)

    est_sec = raw.pop("estimator", {}) or {}
    if not isinstance(est_sec, dict):
        errors.append("estimator: expected an object")
        est_sec = {}
    kwargs["flux_grid_size"] = _take(est_sec, errors, "estimator", "flux_grid_size", int, 16)
    kwargs["flux_grid_lo"] = _take(est_sec, errors, "estimator", "flux_grid_lo", float, 0.1)
    kwargs["flux_grid_hi"] = _take(est_sec, errors, "estimator", "flux_grid_hi", float, 100.0)
    kwargs["dither_window"] = _take(est_sec, errors, "estimator", "dither_window", int, 3)
    errors.extend(f"unknown key estimator.{k}" for k in est_sec)

    pri = raw.pop("prior", {}) or {}
    if not isinstance(pri, dict):
        errors.append("prior: expected an object")
        pri = {}
    kwargs["prior_kind"] = _take(pri, errors, "prior", "kind", str, "uniform")
    kwargs["prior_sigma_bins"] = _take(pri, errors, "prior", "sigma_bins", float, 10.0)
    kwargs["prior_floor_weight"] = _take(pri, errors, "prior", "floor_weight", float, 0.1)
    kwargs["prior_path"] = _take(pri, errors, "prior", "path", str)
    errors.extend(f"unknown key prior.{k}" for k in pri)

    swp = raw.pop("sweep", {}) or {}
    if not isinstance(swp, dict):
        errors.append("sweep: expected an object")
        swp = {}
    kwargs["sweep_ambient_flux"] = _float_list(swp, errors, "sweep", "ambient_flux")
    kwargs["sweep_sbr"] = _float_list(swp, errors, "sweep", "sbr")
    kwargs["sweep_dead_time_ns"] = _float_list(swp, errors, "sweep", "dead_time_ns")
    kwargs["sweep_budget_us"] = _float_list(swp, errors, "sweep", "budget_us")
    errors.extend(f"unknown key sweep.{k}" for k in swp)

    errors.extend(f"unknown section {k}" for k in raw)

    # Cross-field requirements.
    if kwargs["seeds"] is not None and kwargs["seeds"] < 1:
        errors.append("experiment.seeds must be at least 1")
    if kwargs["exposure_metric"] not in ("termination", "entropy"):
        errors.append(f"exposure.metric must be termination or entropy, got {kwargs['exposure_metric']!r}")
    if kwargs["exposure_epsilon"] is not None and kwargs["exposure_epsilon"] <= 0:
        errors.append("exposure.epsilon must be positive")
    if kwargs["exposure_min_cycles"] is not None and kwargs["exposure_min_cycles"] < 0:
        errors.append("exposure.min_cycles cannot be negative")
    for path, key in (("background.fallback_flux", "background_fallback"),
                      ("estimator.flux_grid_lo", "flux_grid_lo"), ("estimator.flux_grid_hi", "flux_grid_hi")):
        if not kwargs[key] > 0:
            errors.append(f"{path} must be positive")
    if kwargs["flux_grid_size"] < 1:
        errors.append("estimator.flux_grid_size must be at least 1")
    if kwargs["dither_window"] < 3 or kwargs["dither_window"] % 2 == 0:
        errors.append("estimator.dither_window must be an odd count >= 3")
    if kwargs["background_mode"] not in ("estimated", "known"):
        errors.append(f"background.mode must be estimated or known, got {kwargs['background_mode']!r}")
    if kwargs["prior_kind"] not in ("uniform", "flatness", "external"):
        errors.append(f"prior.kind must be uniform, flatness or external, got {kwargs['prior_kind']!r}")
    if kwargs["prior_kind"] == "external" and not kwargs["prior_path"]:
        errors.append("prior.path required when prior.kind is external")
    if kwargs["budget_us"] is None and kwargs["max_cycles"] is None:
        errors.append("need budget_us or max_cycles")
    scan_mode = kwargs["depth_map"] is not None
    if not scan_mode:
        if kwargs["depth_bin"] is None and kwargs["depth_m"] is None:
            errors.append("scene needs depth_bin, depth_m or depth_map")
        if kwargs["ambient_flux"] is None and kwargs["ambient_map"] is None:
            errors.append("scene needs ambient_flux")
        if kwargs["sbr"] is None and kwargs["signal_flux"] is None and kwargs["signal_map"] is None:
            errors.append("scene needs sbr or signal_flux")
    else:
        if kwargs["ambient_flux"] is None and kwargs["ambient_map"] is None:
            errors.append("scene needs ambient_flux or ambient_map")
        if kwargs["sbr"] is None and kwargs["signal_flux"] is None and kwargs["signal_map"] is None:
            errors.append("scene needs sbr, signal_flux or signal_map")
    if kwargs["sbr"] is not None and kwargs["signal_flux"] is not None:
        errors.append("scene.sbr and scene.signal_flux are mutually exclusive")
    if kwargs["mismatch_kind"] is not None and kwargs["mismatch_kind"] not in ("two_peak", "corner_tail"):
        errors.append(f"scene.mismatch.kind must be two_peak or corner_tail, got {kwargs['mismatch_kind']!r}")

    if errors:
        raise ConfigError("; ".join(errors))
    return ExperimentConfig(**kwargs)


def _looks_like_path(source: str | Path) -> bool:
    if isinstance(source, Path):
        return True
    s = str(source).lstrip()
    return not s.startswith("{")


# ---------------------------------------------------------------------------
# Result rows and metrics


@dataclass(frozen=True)
class ResultRow:
    """One pixel acquisition's outcome; every row is self-describing."""

    experiment_id: str
    policy: str
    x: int
    y: int
    ambient_flux: float
    signal_flux: float
    sbr: float
    dead_time_ns: float
    budget_us: float
    seed: int
    true_depth_bin: int
    true_depth_m: float
    est_depth_bin: int
    est_depth_subbin: float
    est_depth_m: float
    zero_one_loss: int
    abs_error_m: float
    termination_value: float
    entropy_nats: float
    cycles: int
    exposure_us: float
    detections_true_bin: int


_ROW_FIELDS = [f.name for f in fields(ResultRow)]
_ROW_TYPES = {f.name: f.type for f in fields(ResultRow)}


@dataclass(frozen=True)
class RowSpec:
    """Everything one worker needs to produce a ResultRow (picklable)."""

    policy: PolicySpec
    stream_index: int
    ambient_flux: float
    signal_flux: float
    true_depth_bin: int
    dead_time_ns: float
    budget_us: float | None
    max_cycles: int | None
    x: int = -1
    y: int = -1
    prior_center_bin: float | None = None
    prior_sigma_bins: float | None = None
    use_mismatch: bool = False


def _group_key(row: ResultRow) -> tuple:
    return (row.policy, row.ambient_flux, row.sbr, row.dead_time_ns, row.budget_us)


def compute_metrics(rows: Iterable[ResultRow]) -> dict[str, float]:
    """Headline accuracy/efficiency metrics over a set of result rows.

    RMSE is in meters from the sub-bin depth estimates; zero_one_loss uses
    whole bins.
    """
    rows = list(rows)
    if not rows:
        return {"n_rows": 0, "rmse_m": float("nan"), "mean_zero_one_loss": float("nan"),
                "median_abs_error_m": float("nan"), "mean_exposure_us": float("nan"),
                "mean_cycles": float("nan")}
    err = np.array([r.est_depth_m - r.true_depth_m for r in rows])
    return {
        "n_rows": len(rows),
        "rmse_m": float(np.sqrt(np.mean(err**2))),
        "mean_zero_one_loss": float(np.mean([r.zero_one_loss for r in rows])),
        "median_abs_error_m": float(np.median(np.abs(err))),
        "mean_exposure_us": float(np.mean([r.exposure_us for r in rows])),
        "mean_cycles": float(np.mean([r.cycles for r in rows])),
    }


@dataclass(frozen=True)
class AggregateRow:
    """Per-(sweep point, policy) summary appended to sweep outputs."""

    experiment_id: str
    policy: str
    ambient_flux: float
    sbr: float
    dead_time_ns: float
    budget_us: float
    n_rows: int
    rmse_m: float
    mean_zero_one_loss: float
    median_abs_error_m: float
    mean_exposure_us: float
    mean_cycles: float
    mean_termination_value: float
    mean_entropy_nats: float
    mean_detections_true_bin: float


_AGG_FIELDS = [f.name for f in fields(AggregateRow)]


def aggregate_rows(rows: list[ResultRow]) -> list[AggregateRow]:
    """Group means/medians in sorted group-key order (thread invariant)."""
    groups: dict[tuple, list[ResultRow]] = {}
    for row in rows:
        groups.setdefault(_group_key(row), []).append(row)
    out = []
    for key in sorted(groups):
        grp = groups[key]
        m = compute_metrics(grp)
        with np.errstate(invalid="ignore"):
            term = [r.termination_value for r in grp if not math.isnan(r.termination_value)]
            ent = [r.entropy_nats for r in grp if not math.isnan(r.entropy_nats)]
        out.append(AggregateRow(
            experiment_id=grp[0].experiment_id,
            policy=key[0],
            ambient_flux=key[1],
            sbr=key[2],
            dead_time_ns=key[3],
            budget_us=key[4],
            n_rows=m["n_rows"],
            rmse_m=m["rmse_m"],
            mean_zero_one_loss=m["mean_zero_one_loss"],
            median_abs_error_m=m["median_abs_error_m"],
            mean_exposure_us=m["mean_exposure_us"],
            mean_cycles=m["mean_cycles"],
            mean_termination_value=float(np.mean(term)) if term else float("nan"),
            mean_entropy_nats=float(np.mean(ent)) if ent else float("nan"),
            mean_detections_true_bin=float(np.mean([r.detections_true_bin for r in grp])),
        ))
    return out


# ---------------------------------------------------------------------------
# Running experiments


def _build_policy(config: ExperimentConfig, spec: RowSpec, num_bins: int, prior: np.ndarray | None):
    p = spec.policy
    if p.kind == "fixed":
        return FixedGatePolicy(gate=p.gate, num_bins=num_bins)
    if p.kind == "uniform":
        return UniformGatePolicy(num_bins=num_bins)
    if p.kind == "free_running":
        return FreeRunningPolicy()
    known = spec.ambient_flux if config.background_mode == "known" else None
    n_cal = 0 if known is not None else _calibration_cycles(config, spec)
    exposure = None
    if config.exposure_enabled:
        exposure = ExposureControl(
            epsilon=config.exposure_epsilon,
            metric=config.exposure_metric,
            min_cycles=config.exposure_min_cycles,
        )
    grid_spec = (config.flux_grid_size, config.flux_grid_lo, config.flux_grid_hi)
    grid = None
    if known is not None:
        grid = default_flux_grid(known, *grid_spec)
    return AdaptiveGatePolicy(
        num_bins=num_bins,
        prior=prior,
        bkg_flux=known,
        flux_grid=grid,
        calibration_cycles=n_cal,
        gate_offset=p.gate_offset,
        exposure=exposure,
        background_fallback=config.background_fallback,
        flux_grid_spec=grid_spec,
    )


def _calibration_cycles(config: ExperimentConfig, spec: RowSpec) -> int:
    """About 2% of the pulse-period budget (or the cycle cap) for calibration."""
    if spec.budget_us is not None:
        periods = config.budget_bins(spec.budget_us) // config.resolved_num_bins
    else:
        periods = spec.max_cycles
    return max(1, math.ceil(0.02 * periods))


def _row_prior(config: ExperimentConfig, spec: RowSpec, num_bins: int) -> np.ndarray | None:
    if spec.prior_center_bin is None:
        return None
    if spec.prior_sigma_bins is not None:
        # Externally supplied per-pixel prior (came with its own width).
        return external_prior_mass(num_bins, spec.prior_center_bin, spec.prior_sigma_bins, config.prior_floor_weight)
    return flatness_prior(num_bins, spec.prior_center_bin, config.prior_sigma_bins, config.prior_floor_weight)


def _row_scene(config: ExperimentConfig, spec: RowSpec, num_bins: int) -> SceneTransient:
    if spec.use_mismatch:
        return mismatch_transient(
            kind=config.mismatch_kind,
            num_bins=num_bins,
            ambient_flux=spec.ambient_flux,
            depth=spec.true_depth_bin,
            signal_flux=spec.signal_flux,
            second_depth=config.mismatch_second_depth,
            second_flux=config.mismatch_second_flux,
            tail_amplitude=config.mismatch_tail_amplitude,
            tail_decay=config.mismatch_tail_decay,
        )
    return SceneTransient(
        num_bins=num_bins,
        ambient_flux=spec.ambient_flux,
        peaks=((spec.true_depth_bin, spec.signal_flux),),
    )


def run_pixel_experiment(config: ExperimentConfig, spec: RowSpec) -> ResultRow:
    """Acquire one pixel under one policy and estimate its depth."""
    num_bins = config.resolved_num_bins
    spad = config.spad_config(dead_time_ns=spec.dead_time_ns)
    scene_t = _row_scene(config, spec, num_bins)
    prior = _row_prior(config, spec, num_bins)
    policy = _build_policy(config, spec, num_bins, prior)
    rng = stream_rng(config.global_seed, spec.stream_index)
    record = run_acquisition(
        scene_t,
        spad,
        policy,
        budget_bins=config.budget_bins(spec.budget_us) if spec.budget_us is not None else None,
        max_cycles=spec.max_cycles,
        seed=rng,
    )
    hist = timestamps_to_histogram(record)
    coates_est = coates_transient(hist)

    term = float("nan")
    entropy = float("nan")
    post = None
    if spec.policy.kind == "adaptive":
        policy.ensure_posterior()
        post = policy.posterior
    elif spec.policy.estimator == "map":
        if config.background_mode == "known":
            bkg = spec.ambient_flux
        else:
            bkg = estimate_background(record, fallback_flux=config.background_fallback).value
        grid = default_flux_grid(bkg, config.flux_grid_size, config.flux_grid_lo, config.flux_grid_hi)
        post = posterior_from_record(record, bkg, prior=prior, flux_grid=grid)

    if spec.policy.estimator == "map" and post is not None:
        est_bin = map_depth(post)
    else:
        est_bin = coates_depth(coates_est)
    if post is not None:
        term = termination_value(post, config.exposure_metric)
        entropy = posterior_entropy(post)

    sub_bin = dither_depth(coates_est, est_bin, config.dither_window)
    est_m = bin_to_depth(sub_bin, config.bin_resolution_ps)
    true_m = bin_to_depth(spec.true_depth_bin, config.bin_resolution_ps)
    sbr = spec.signal_flux / spec.ambient_flux if spec.ambient_flux > 0 else float("nan")
    return ResultRow(
        experiment_id=config.experiment_id,
        policy=spec.policy.name,
        x=spec.x,
        y=spec.y,
        ambient_flux=spec.ambient_flux,
        signal_flux=spec.signal_flux,
        sbr=sbr,
        dead_time_ns=spec.dead_time_ns,
        budget_us=spec.budget_us if spec.budget_us is not None else float("nan"),
        seed=spec.stream_index,
        true_depth_bin=spec.true_depth_bin,
        true_depth_m=true_m,
        est_depth_bin=est_bin,
        est_depth_subbin=sub_bin,
        est_depth_m=est_m,
        zero_one_loss=int(est_bin != spec.true_depth_bin),
        abs_error_m=abs(est_m - true_m),
        termination_value=term,
        entropy_nats=entropy,
        cycles=len(record),
        exposure_us=record.exposure_bins * config.bin_resolution_ps / 1e6,
        detections_true_bin=int(hist.counts[spec.true_depth_bin]),
    )


@dataclass
class RowFailure:
    """A row that raised; sweeps carry on and exit with code 2."""

    stream_index: int
    policy: str
    error: str


def _run_row_safe(args: tuple[ExperimentConfig, RowSpec]) -> ResultRow | RowFailure:
    config, spec = args
    try:
        return run_pixel_experiment(config, spec)
    except Exception as exc:  # noqa: BLE001 - row isolation is the point
        return RowFailure(stream_index=spec.stream_index, policy=spec.policy.name, error=f"{type(exc).__name__}: {exc}")


def build_sweep_specs(config: ExperimentConfig) -> list[RowSpec]:
    """Cartesian product of sweep axes x policies x seeds, in config order.

    Stream indices follow this deterministic enumeration, so results never
    depend on scheduling.
    """
    ambients = config.sweep_ambient_flux or (config.ambient_flux,)
    sbrs = config.sweep_sbr or ((config.sbr,) if config.sbr is not None else (None,))
    deads = config.sweep_dead_time_ns or (config.dead_time_ns,)
    budgets = config.sweep_budget_us or (config.budget_us,)
    depth = config.resolved_depth_bin()
    specs = []
    idx = 0
    for policy in config.policies:
        for amb in ambients:
            for sbr in sbrs:
                for dead in deads:
                    for budget in budgets:
                        if sbr is not None:
                            signal = amb * sbr
                        else:
                            signal = config.signal_flux
                        for _ in range(config.seeds):
                            specs.append(RowSpec(
                                policy=policy,
                                stream_index=idx,
                                ambient_flux=amb,
                                signal_flux=signal,
                                true_depth_bin=depth,
                                dead_time_ns=dead,
                                budget_us=budget,
                                max_cycles=config.max_cycles,
                                use_mismatch=config.mismatch_kind is not None,
                            ))
                            idx += 1
    return specs


def run_sweep(
    config: ExperimentConfig, threads: int = 1
) -> tuple[list[ResultRow], list[AggregateRow], list[RowFailure]]:
    """Run every sweep row, then aggregate in sorted key order."""
    specs = build_sweep_specs(config)
    results = _map_rows(config, specs, threads)
    rows = [r for r in results if isinstance(r, ResultRow)]
    failures = [r for r in results if isinstance(r, RowFailure)]
    rows.sort(key=lambda r: r.seed)
    return rows, aggregate_rows(rows), failures


def _map_rows(config: ExperimentConfig, specs: list[RowSpec], threads: int) -> list[ResultRow | RowFailure]:
    args = [(config, s) for s in specs]
    if threads <= 1 or len(specs) <= 1:
        return [_run_row_safe(a) for a in args]
    chunk = max(1, len(args) // (threads * 8))
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(_run_row_safe, args, chunksize=chunk))


def run_scene_scan(
    config: ExperimentConfig, threads: int = 1
) -> tuple[list[ResultRow], dict[str, dict[str, np.ndarray]], list[RowFailure]]:
    """Scan a scene grid in serpentine order under every policy.

    Returns per-pixel rows plus, per policy, maps of estimated depth,
    absolute error (meters), posterior entropy and exposure.  Chained
    (flatness) priors make pixels sequentially dependent, so those scans
    ignore the thread count.
    """
    if config.depth_map is None:
        raise ConfigError("scan needs scene.depth_map")
    num_bins = config.resolved_num_bins
    depth_m = load_depth_map(config.depth_map)
    ambient = load_flux_map(config.ambient_map) if config.ambient_map else config.ambient_flux
    if config.signal_map:
        signal = load_flux_map(config.signal_map)
    elif config.signal_flux is not None:
        signal = config.signal_flux
    else:
        signal = np.broadcast_to(np.asarray(ambient, dtype=float), depth_m.shape) * config.sbr
    grid = SceneGrid.from_depth_map(depth_m, config.bin_resolution_ps, num_bins, ambient, signal)
    external = None
    if config.prior_kind == "external":
        external = load_external_prior(config.prior_path)
        if external.shape[:2] != (grid.height, grid.width):
            raise ConfigError(
                f"prior grid {external.shape[1]}x{external.shape[0]} does not match scene {grid.width}x{grid.height}"
            )

    order = list(scan_order(grid.width, grid.height))
    rows: list[ResultRow] = []
    failures: list[RowFailure] = []
    maps: dict[str, dict[str, np.ndarray]] = {}
    chained = config.prior_kind == "flatness"
    for p_idx, policy in enumerate(config.policies):
        est_map = np.full((grid.height, grid.width), np.nan)
        err_map = np.full((grid.height, grid.width), np.nan)
        ent_map = np.full((grid.height, grid.width), np.nan)
        exp_map = np.full((grid.height, grid.width), np.nan)
        specs: list[RowSpec] = []
        prev_estimate: float | None = None
        for x, y in order:
            center = None
            sigma = None
            if config.prior_kind == "flatness":
                center = prev_estimate
            elif config.prior_kind == "external":
                mean_m, sigma_m = external[y, x]
                center, sigma = prior_params_to_bins(mean_m, sigma_m, config.bin_resolution_ps)
            spec = RowSpec(
                policy=policy,
                stream_index=p_idx * grid.width * grid.height + y * grid.width + x,
                ambient_flux=float(grid.ambient_flux[y, x]),
                signal_flux=float(grid.signal_flux[y, x]),
                true_depth_bin=int(grid.depth_bins[y, x]),
                dead_time_ns=config.dead_time_ns,
                budget_us=config.budget_us,
                max_cycles=config.max_cycles,
                x=x,
                y=y,
                prior_center_bin=center,
                prior_sigma_bins=sigma,
            )
            if chained:
                result = _run_row_safe((config, spec))
                if isinstance(result, ResultRow):
                    prev_estimate = result.est_depth_subbin
                    rows.append(result)
                    _fill_maps(result, est_map, err_map, ent_map, exp_map)
                else:
                    failures.append(result)
            else:
                specs.append(spec)
        if not chained:
            for result in _map_rows(config, specs, threads):
                if isinstance(result, ResultRow):
                    rows.append(result)
                    _fill_maps(result, est_map, err_map, ent_map, exp_map)
                else:
                    failures.append(result)
        maps[policy.name] = {
            "depth_m": est_map,
            "abs_error_m": err_map,
            "entropy_nats": ent_map,
            "exposure_us": exp_map,
        }
    rows.sort(key=lambda r: (r.policy, r.y, r.x))
    return rows, maps, failures


def _fill_maps(row: ResultRow, est, err, ent, exp) -> None:
    est[row.y, row.x] = row.est_depth_m
    err[row.y, row.x] = row.abs_error_m
    ent[row.y, row.x] = row.entropy_nats
    exp[row.y, row.x] = row.exposure_us


# ---------------------------------------------------------------------------
# CSV emission (RFC 4180, LF endings, UTF-8, 9 significant digits)


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".9g")
    return str(value)


def _write_csv(path: str | Path, header: list[str], rows: Iterable[Iterable]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(v) for v in row])


def write_results_csv(path: str | Path, rows: list[ResultRow]) -> None:
    _write_csv(path, _ROW_FIELDS, ([getattr(r, f) for f in _ROW_FIELDS] for r in rows))


def write_aggregates_csv(path: str | Path, aggs: list[AggregateRow]) -> None:
    _write_csv(path, _AGG_FIELDS, ([getattr(a, f) for f in _AGG_FIELDS] for a in aggs))


def write_map_csv(path: str | Path, grid: np.ndarray) -> None:
    """Plain data grid, one CSV row per scene row."""
    _write_csv(path, [f"col{i}" for i in range(grid.shape[1])], grid)


def load_results_csv(path: str | Path) -> list[ResultRow]:
    """Read back a results CSV, recovering the typed rows."""
    out = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != _ROW_FIELDS:
            raise ValueError(f"{path}: unexpected header {reader.fieldnames}")
        for rec in reader:
            kwargs = {}
            for name in _ROW_FIELDS:
                t = _ROW_TYPES[name]
                raw = rec[name]
                kwargs[name] = int(raw) if t == "int" else float(raw) if t == "float" else raw
            out.append(ResultRow(**kwargs))
    return out


# ---------------------------------------------------------------------------
# Built-in oracle checks (also exposed through the CLI)


def normalization_check(n_configs: int = 50, seed: int = 2024) -> float:
    """Max |sum_t p(t|g) + p(no detection) - 1| over random scenes and gates.

    Exercises both a small and the default period length.
    """
    rng = stream_rng(seed, 981)
    worst = 0.0
    for i in range(n_configs):
        b = 16 if i % 2 == 0 else 500
        ambient = float(rng.uniform(1e-4, 0.5))
        peaks = []
        for _ in range(int(rng.integers(0, 3))):
            peaks.append((int(rng.integers(0, b)), float(rng.uniform(0.0, 2.0))))
        scene_t = SceneTransient(num_bins=b, ambient_flux=ambient, peaks=tuple(peaks))
        gate = int(rng.integers(0, b))
        total = float(detection_distribution(scene_t, gate).sum()) + no_detection_probability(scene_t)
        worst = max(worst, abs(total - 1.0))
    return worst


def reward_consistency_check(
    num_bins_list: tuple[int, ...] = (16, 64),
    flux_pairs: tuple[tuple[float, float], ...] = ((0.05, 0.5), (0.2, 1.0), (1.0, 0.1)),
) -> float:
    """Max |closed-form reward - brute-force expectation| over all (depth, gate)."""
    worst = 0.0
    for b in num_bins_list:
        for bkg, sig in flux_pairs:
            for d in range(b):
                for g in range(b):
                    closed = reward(d, g, b, bkg, sig, method="closed")
                    brute = reward(d, g, b, bkg, sig, method="brute")
                    worst = max(worst, abs(closed - brute))
    return worst


def proposition_check(
    num_bins_list: tuple[int, ...] = (16, 64),
    flux_pairs: tuple[tuple[float, float], ...] = ((0.05, 0.5), (0.2, 1.0), (1.0, 0.1)),
) -> tuple[bool, str]:
    """Exhaustively confirm the optimal gate is the sampled depth, uniquely."""
    for b in num_bins_list:
        for bkg, sig in flux_pairs:
            for d in range(b):
                vals = np.array([reward(d, g, b, bkg, sig, method="brute") for g in range(b)])
                best = int(np.argmax(vals))
                if best != optimal_gate(d, b):
                    return False, f"B={b} fluxes=({bkg},{sig}) depth={d}: argmax gate {best}"
                order = np.sort(vals)
                if order[-1] <= order[-2]:
                    return False, f"B={b} fluxes=({bkg},{sig}) depth={d}: optimum not unique"
    return True, "optimal gate equals the sampled depth at every checked configuration"
