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

import atexit
import csv
import json
import math
import os
import threading
from dataclasses import asdict, dataclass, field, fields, replace
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
    """One policy column of an experiment.

    The name defaults to the kind, and the estimator to ``map`` for adaptive
    and free-running gating and to ``coates`` for fixed and uniform gating.
    """

    name: str | None = None
    kind: str = "adaptive"  # fixed | uniform | free_running | adaptive
    estimator: str | None = None  # map | coates
    gate: int | None = None

    def __post_init__(self) -> None:
        if self.name is None:
            object.__setattr__(self, "name", self.kind)
        if self.estimator is None:
            object.__setattr__(self, "estimator", "map" if self.kind in ("adaptive", "free_running") else "coates")
        if self.kind not in ("fixed", "uniform", "free_running", "adaptive"):
            raise ConfigError(f"policy {self.name!r}: unknown kind {self.kind!r}")
        if self.estimator not in ("map", "coates"):
            raise ConfigError(f"policy {self.name!r}: unknown estimator {self.estimator!r}")
        if self.kind == "fixed" and self.gate is None:
            raise ConfigError(f"policy {self.name!r}: fixed gating needs a gate")


_DEFAULT_POLICIES = (PolicySpec(kind="adaptive"), PolicySpec(kind="free_running"))

# The scene.mismatch keys each kind reads, each with whether the kind needs it.
_MISMATCH_KEYS = {"two_peak": {"second_depth": True, "second_flux": False},
                  "corner_tail": {"tail_amplitude": True, "tail_decay": True}}

# Range rules, named by the message they report; every value of a sweep axis
# must keep its rule.
_RULES = {
    "must be positive": lambda v: v > 0,
    "must be at least 1": lambda v: v >= 1,
    "cannot be negative": lambda v: v >= 0,
    "must lie in [0, 1]": lambda v: 0 <= v <= 1,
}


def _key(section: str, default: Any = None, rule: str | tuple[str, ...] | None = None, *,
         key: str = "", null: bool = False) -> Any:
    """Declare an ExperimentConfig field: where it sits in the JSON config and what it must hold.

    The field is read from JSON key ``key`` of ``section`` ("" is the top
    level, "scene.mismatch" a subsection); ``key`` defaults to the field's
    name less a ``<section>_`` prefix.  ``rule`` is a _RULES name, or the
    tuple of allowed values.  A ``null`` field reads and writes JSON null
    as None (a null budget means cycle-capped only); any other field reads
    null as its default, and the canonical form leaves it out when it is
    None.
    """
    return field(default=default, metadata={"section": section, "key": key, "rule": rule, "null": null})


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed, validated experiment description (see parse_config).

    Every field but ``policies`` is one config key, declared once by _key.
    """

    experiment_id: str = _key("experiment", "experiment")
    out_dir: str = _key("experiment", "results")
    seeds: int = _key("experiment", 1, "must be at least 1")
    global_seed: int = _key("experiment", 0, "cannot be negative")
    bin_resolution_ps: float = _key("spad", 100.0, "must be positive")
    rep_rate_mhz: float = _key("spad", 20.0, "must be positive")
    num_bins: int | None = _key("spad", None, "must be at least 1")
    dead_time_ns: float = _key("spad", 81.0, "cannot be negative")
    max_active_periods: int = _key("spad", 16, "must be at least 1")
    ambient_flux: float | None = _key("scene", None, "cannot be negative")
    sbr: float | None = _key("scene", None, "cannot be negative")
    signal_flux: float | None = _key("scene", None, "cannot be negative")
    depth_bin: int | None = _key("scene")
    depth_m: float | None = _key("scene")
    mismatch_kind: str | None = _key("scene.mismatch", None, ("two_peak", "corner_tail"))
    mismatch_second_depth: int | None = _key("scene.mismatch", None, "cannot be negative")
    mismatch_second_flux: float | None = _key("scene.mismatch", None, "cannot be negative")
    mismatch_tail_amplitude: float | None = _key("scene.mismatch", None, "cannot be negative")
    mismatch_tail_decay: float | None = _key("scene.mismatch", None, "must be positive")
    depth_map: str | None = _key("scene")
    ambient_map: str | None = _key("scene")
    signal_map: str | None = _key("scene")
    policies: tuple[PolicySpec, ...] = _DEFAULT_POLICIES
    budget_us: float | None = _key("", 100.0, "must be positive", null=True)
    max_cycles: int | None = _key("", None, "must be at least 1", null=True)
    exposure_enabled: bool = _key("exposure", False)
    exposure_epsilon: float = _key("exposure", 0.25, "must be positive")
    exposure_metric: str = _key("exposure", "termination", ("termination", "entropy"))
    exposure_min_cycles: int | None = _key("exposure", None, "cannot be negative", null=True)
    background_mode: str = _key("background", "estimated", ("estimated", "known"))
    background_fallback: float = _key("background", 0.01, "must be positive", key="fallback_flux")
    flux_grid_size: int = _key("estimator", 16, "must be at least 1")
    flux_grid_lo: float = _key("estimator", 0.1, "must be positive")
    flux_grid_hi: float = _key("estimator", 100.0, "must be positive")
    prior_kind: str = _key("prior", "uniform", ("uniform", "flatness", "external"))
    prior_sigma_bins: float = _key("prior", 10.0, "must be positive")
    prior_floor_weight: float = _key("prior", 0.1, "must lie in [0, 1]")
    prior_path: str | None = _key("prior")
    sweep_ambient_flux: tuple[float, ...] | None = _key("sweep", None, "cannot be negative")
    sweep_sbr: tuple[float, ...] | None = _key("sweep", None, "cannot be negative")
    sweep_dead_time_ns: tuple[float, ...] | None = _key("sweep", None, "cannot be negative")
    sweep_budget_us: tuple[float, ...] | None = _key("sweep", None, "must be positive")

    @property
    def resolved_num_bins(self) -> int:
        if self.num_bins is not None:
            return self.num_bins
        return derive_num_bins(self.bin_resolution_ps, self.rep_rate_mhz * 1e6)

    def spad_config(self, dead_time_ns: float | None = None) -> SpadConfig:
        return SpadConfig(
            bin_resolution_ps=self.bin_resolution_ps,
            rep_rate_hz=self.rep_rate_mhz * 1e6,
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
        d: dict[str, Any] = {"scene": {}}
        for section, keys in _SECTIONS.items():
            for key, f, kind in keys:
                value = getattr(self, f.name)
                if value is None and not f.metadata["null"]:
                    continue
                if kind is tuple:
                    value = list(value)
                node = d
                for name in filter(None, section.split(".")):
                    node = node.setdefault(name, {})
                node[key] = value
        d["policies"] = [{k: v for k, v in asdict(p).items() if v is not None} for p in self.policies]
        return d


# Largest bins per pulse period a config may ask for.  The biggest per-row
# allocation is the (B, K) float64 depth posterior: at the default K = 17
# flux columns, 2**20 bins make it 136 MiB, and an update holds a few.
MAX_NUM_BINS = 1 << 20
# Most cycles one row may run.  A row keeps its whole record, five columns
# (33 bytes) per cycle, and joins it from its blocks, so it peaks at about
# 73 bytes per cycle (a free running + MAP row at the paper point: 107 MB
# at 10**6 cycles, 38 MB at 10**3): about 730 MB at 10**7 cycles.
MAX_ROW_CYCLES = 10**7
# Most rows one config may ask for (seeds x policies x each sweep axis).
# A sweep builds every row's spec, about 225 bytes, before it runs one,
# and keeps every result row.
MAX_CONFIG_ROWS = 10**5
_INT64_MAX = 2**63 - 1

_KINDS = {"str": str, "int": int, "float": float, "bool": bool, "tuple[float, ...]": tuple}


def _kind(annotation: str) -> type:
    """The JSON kind of a field's annotation; kind tuple is a sweep axis, a non-empty list of numbers."""
    return _KINDS[annotation.removesuffix(" | None")]


def _sections() -> dict[str, list[tuple[str, Any, type]]]:
    """The declared fields of each section, as (JSON key, field, kind), in the order parse_config reads them."""
    sections: dict[str, list] = {}
    for f in fields(ExperimentConfig):
        if f.metadata:
            section = f.metadata["section"]
            key = f.metadata["key"] or f.name.removeprefix(section.rpartition(".")[2] + "_")
            sections.setdefault(section, []).append((key, f, _kind(f.type)))
    return sections


_SECTIONS = _sections()


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
        if kind in (bool, str, list):
            if not isinstance(val, kind):
                raise ValueError
            return val
        if isinstance(val, bool):
            raise ValueError
        if kind is int:
            if int(val) != val:
                raise ValueError
            return int(val)
        if kind is float:
            if not isinstance(val, (int, float)):  # a JSON number, not a string
                raise ValueError
            number = float(val)
            if not math.isfinite(number):
                errors.append(f"{path}.{key}: expected a finite number, got {val!r}")
                return default
            return number
    except (TypeError, ValueError, OverflowError):  # int(inf) overflows
        errors.append(f"{path}.{key}: expected {kind.__name__}, got {val!r}")
        return default
    raise AssertionError(f"unhandled kind {kind}")


def _float_list(section: dict, errors: list[str], path: str, key: str) -> tuple[float, ...] | None:
    raw = _take(section, errors, path, key, list)
    if raw is None:
        return None
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in raw):
        errors.append(f"{path}.{key}: expected a list of numbers")
        return None
    try:
        out = tuple(float(v) for v in raw)
    except OverflowError:  # float(10**400) overflows
        errors.append(f"{path}.{key}: expected a list of numbers")
        return None
    if not out:
        errors.append(f"{path}.{key}: empty sweep axis")
        return None
    if not all(map(math.isfinite, out)):
        errors.append(f"{path}.{key}: expected finite numbers, got {raw!r}")
        return None
    return out


def parse_config(source: str | Path | dict) -> ExperimentConfig:
    """Parse and validate a JSON experiment config.

    Accepts a path, raw JSON text, or an already-decoded dict.  Unknown
    keys and missing required fields are collected and reported together
    in a ConfigError.  Absent keys take the ExperimentConfig defaults.
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
    for path in (sec for sec in _SECTIONS if "." not in sec):
        if path == "":  # the policies list comes just before the top-level keys
            kwargs["policies"] = _parse_policies(raw.pop("policies", None), errors)
        _take_section(raw, path, errors, kwargs)
    errors.extend(f"unknown section {k}" for k in raw)

    # Cross-field requirements, in the order they are reported.
    lo, hi = kwargs["flux_grid_lo"], kwargs["flux_grid_hi"]
    if kwargs["background_mode"] == "known" and lo > 0 and hi > 0:
        # A known background scales default_flux_grid, whose ends must stay positive floats.
        for path, value in (("scene.ambient_flux", kwargs["ambient_flux"]),
                            ("sweep.ambient_flux", kwargs["sweep_ambient_flux"])):
            for v in value if isinstance(value, tuple) else (value,):
                if v is None or v <= 0:  # unset, or a dark background that rows report
                    continue
                if lo * v == 0.0:
                    errors.append(f"{path} {v!r} is too small for the known-background flux grid "
                                  f"(estimator.flux_grid_lo * {path} underflows to 0)")
                elif not math.isfinite(hi * v):
                    errors.append(f"{path} {v!r} is too large for the known-background flux grid "
                                  f"(estimator.flux_grid_hi * {path} overflows)")
    if kwargs["prior_kind"] == "external" and not kwargs["prior_path"]:
        errors.append("prior.path required when prior.kind is external")
    if kwargs["budget_us"] is None and kwargs["max_cycles"] is None:
        errors.append("need budget_us or max_cycles")
    scan_mode = kwargs["depth_map"] is not None
    if not scan_mode and kwargs["depth_bin"] is None and kwargs["depth_m"] is None:
        errors.append("scene needs depth_bin, depth_m or depth_map")
    if kwargs["ambient_flux"] is None and kwargs["ambient_map"] is None:
        errors.append("scene needs ambient_flux or ambient_map" if scan_mode else "scene needs ambient_flux")
    if kwargs["sbr"] is None and kwargs["signal_flux"] is None and kwargs["signal_map"] is None:
        errors.append("scene needs sbr, signal_flux or signal_map" if scan_mode else "scene needs sbr or signal_flux")
    if kwargs["sbr"] is not None and kwargs["signal_flux"] is not None:
        errors.append("scene.sbr and scene.signal_flux are mutually exclusive")
    kindless = [key for key, f, _ in _SECTIONS["scene.mismatch"] if kwargs[f.name] is not None]
    if kwargs["mismatch_kind"] is None and kindless:
        errors.append(f"scene.mismatch.kind required when scene.mismatch sets {', '.join(kindless)}")
    if errors:
        raise ConfigError("; ".join(errors))

    # Bin indices, once the period's bin count is known to be valid.
    config = ExperimentConfig(**kwargs)
    try:
        num_bins = config.resolved_num_bins
    except (ZeroDivisionError, OverflowError):  # a period of more bins than a float holds
        num_bins = math.inf
    if num_bins < 1:
        raise ConfigError("spad.bin_resolution_ps is longer than one pulse period")
    if not scan_mode:
        key = "depth_bin" if config.depth_bin is not None else "depth_m"
        value = getattr(config, key)
        depth = config.resolved_depth_bin() if math.isfinite(value) else value
        if not 0 <= depth < num_bins:
            errors.append(f"scene.{key} gives depth bin {depth}, outside [0, {num_bins})")
    if config.mismatch_second_depth is not None and not config.mismatch_second_depth < num_bins:
        errors.append(f"scene.mismatch.second_depth {config.mismatch_second_depth} outside [0, {num_bins})")
    reads = _MISMATCH_KEYS.get(config.mismatch_kind, {})
    if missing := [f"scene.mismatch.{key}" for key, needed in reads.items()
                   if needed and getattr(config, f"mismatch_{key}") is None]:
        errors.append(f"scene.mismatch.kind {config.mismatch_kind} needs {' and '.join(missing)}")
    if unread := [f"scene.mismatch.{key}" for key, f, _ in _SECTIONS["scene.mismatch"]
                  if key != "kind" and key not in reads and getattr(config, f.name) is not None]:
        errors.append(f"scene.mismatch.kind {config.mismatch_kind} does not read {' or '.join(unread)}")
    errors.extend(f"policies[{i}].gate {p.gate} outside [0, {num_bins})"
                  for i, p in enumerate(config.policies) if p.kind == "fixed" and not 0 <= p.gate < num_bins)
    if num_bins > MAX_NUM_BINS:
        source = (f"spad.num_bins {num_bins} is" if config.num_bins is not None else
                  f"spad.rep_rate_mhz and spad.bin_resolution_ps give {num_bins} bins per period,")
        errors.append(f"{source} above the spad.num_bins limit of {MAX_NUM_BINS}")
    errors.extend(_row_work_errors(config, num_bins))
    factors = [("experiment.seeds", config.seeds), ("policies", len(config.policies))]
    factors += [(f"sweep.{key}", len(getattr(config, f.name))) for key, f, _ in _SECTIONS["sweep"]
                if getattr(config, f.name)]
    rows = math.prod(n for _, n in factors)
    if rows > MAX_CONFIG_ROWS:
        errors.append(f"{' x '.join(f'{key} {n}' for key, n in factors)} give {rows} rows, "
                      f"above the limit of {MAX_CONFIG_ROWS} rows per config")
    if not errors and not scan_mode:
        errors.extend(_scene_errors(config, num_bins, config.resolved_depth_bin()))
    elif not errors and config.ambient_map is None and config.signal_map is None:
        # Every pixel of such a scan takes these fluxes; a corner_tail sums highest from depth bin 0.
        errors.extend(_scene_errors(replace(config, sweep_ambient_flux=None, sweep_sbr=None), num_bins, 0))
    if errors:
        raise ConfigError("; ".join(errors))
    return config


def _scene_errors(config: ExperimentConfig, num_bins: int, depth: int) -> list[str]:
    """Why the scene of the sweep point with the most light, peaked at ``depth``, cannot be built, if it cannot.

    Every rate grows with the ambient and signal fluxes, and so does their
    rounded running sum, so that point has the largest total rate of the
    sweep: if its total is finite, so is every point's.
    """
    ambient = max(config.sweep_ambient_flux or (config.ambient_flux,))
    sbrs = config.sweep_sbr or (config.sbr,)
    signal = config.signal_flux if sbrs == (None,) else ambient * max(sbrs)
    try:
        _row_scene(config, num_bins, ambient, signal, depth)
    except ValueError as exc:
        where = "sweep" if config.sweep_ambient_flux or config.sweep_sbr else "scene"
        return [f"{where}: ambient flux {ambient!r} and signal flux {signal!r}: {exc}"]
    return []


def _row_work_errors(config: ExperimentConfig, num_bins: int) -> list[str]:
    """Dead times with no int64 bin count, and rows that could run more than MAX_ROW_CYCLES cycles.

    A row's largest cycle count is ``max_cycles`` or the cycles its budget
    can start at the shortest cycle, as ``spadsim`` sizes its blocks:
    the dead time after a detection in the arm bin, or a censored scan.
    """
    errors = []
    dead_bins = {}
    for path, values in (("spad.dead_time_ns", (config.dead_time_ns,)),
                         ("sweep.dead_time_ns", config.sweep_dead_time_ns or ())):
        for value in values:
            try:
                bins = SpadConfig(bin_resolution_ps=config.bin_resolution_ps, dead_time_ns=value).dead_time_bins
            except OverflowError:  # infinitely many bins
                bins = math.inf
            if bins > _INT64_MAX:
                errors.append(f"{path} {value!r} gives a dead time of {float(bins):.3g} bins, more than an int64 holds")
            else:
                dead_bins[value] = bins
    budget_path = "sweep.budget_us" if config.sweep_budget_us else "budget_us"
    for dead_ns in config.sweep_dead_time_ns or (config.dead_time_ns,):
        if dead_ns not in dead_bins:
            continue
        dead = dead_bins[dead_ns]
        shortest = min(dead, config.max_active_periods * num_bins)
        for budget_us in config.sweep_budget_us or (config.budget_us,):
            path, value, count = "max_cycles", config.max_cycles, config.max_cycles
            if budget_us is not None:
                bins = budget_us * 1e6 / config.bin_resolution_ps
                startable = (round(bins) - 1 - dead) // shortest + 1 if math.isfinite(bins) else math.inf
                if count is None or startable < count:
                    path, value, count = budget_path, budget_us, startable
            if count > MAX_ROW_CYCLES:
                shown = count if count < 10**15 else f"{float(count):.3g}"
                message = (f"{path} {value!r} lets a row run up to {shown} cycles (dead time {dead} bins), "
                           f"above the limit of {MAX_ROW_CYCLES} cycles per row")
                if message not in errors:
                    errors.append(message)
    return errors


def _take_section(parent: dict, path: str, errors: list[str], kwargs: dict) -> None:
    """Move the schema fields of section ``path`` (and its subsections) into kwargs."""
    section = parent
    if path:
        section = parent.pop(path.rpartition(".")[2], None)
        if section is None:  # absent or null
            section = {}
        elif not isinstance(section, dict):
            errors.append(f"{path}: expected an object")
            section = {}
    where = path or "config"
    for key, f, kind in _SECTIONS[path]:
        if kind is tuple:
            value = _float_list(section, errors, where, key)
        elif f.metadata["null"] and section.get(key, 0) is None:
            value = section.pop(key)  # an explicit null stays None: a null budget means cycle-capped only
        else:
            value = _take(section, errors, where, key, kind, f.default)
        rule = f.metadata["rule"]
        if value is not None and rule is not None:
            at = f"{path}.{key}" if path else key
            if isinstance(rule, tuple):
                if value not in rule:
                    errors.append(f"{at} must be {', '.join(rule[:-1])} or {rule[-1]}, got {value!r}")
            elif not all(map(_RULES[rule], value if kind is tuple else (value,))):
                errors.append(f"{at} {rule}")
        kwargs[f.name] = value
    if path:
        for sub in (sec for sec in _SECTIONS if sec.rpartition(".")[0] == path):
            _take_section(section, sub, errors, kwargs)
        errors.extend(f"unknown key {path}.{k}" for k in section)


def _parse_policies(pols: Any, errors: list[str]) -> tuple[PolicySpec, ...]:
    """The policies list; the default pair when it is absent or unusable."""
    if pols is None:
        return _DEFAULT_POLICIES
    if not isinstance(pols, list) or not pols:
        errors.append("policies: expected a non-empty list")
        return _DEFAULT_POLICIES
    parsed = []
    for i, entry in enumerate(pols):
        path = f"policies[{i}]"
        if not isinstance(entry, dict):
            errors.append(f"{path}: expected an object")
            continue
        spec = {f.name: _take(entry, errors, path, f.name, _kind(f.type), f.default) for f in fields(PolicySpec)}
        errors.extend(f"unknown key {path}.{k}" for k in entry)
        try:
            parsed.append(PolicySpec(**spec))
        except ConfigError as exc:
            errors.append(str(exc))
    policies = tuple(parsed) or _DEFAULT_POLICIES
    if len({p.name for p in policies}) != len(policies):
        errors.append("policies: names must be unique")
    return policies


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


_GROUP_FIELDS = ("policy", "ambient_flux", "sbr", "dead_time_ns", "budget_us")


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


def _group_key(row: ResultRow) -> tuple:
    """The row's group as a sortable key that also holds for NaN.

    A cycle-capped row's ``budget_us`` and a dark pixel's ``sbr`` are NaN,
    which equals nothing, itself included: each field becomes (is NaN,
    value), with every NaN the same (True, 0.0), sorted after the numbers.
    """
    values = (getattr(row, f) for f in _GROUP_FIELDS)
    return tuple((True, 0.0) if v != v else (False, v) for v in values)


def aggregate_rows(rows: list[ResultRow]) -> list[AggregateRow]:
    """Group means/medians in sorted group-key order (thread invariant)."""
    groups: dict[tuple, list[ResultRow]] = {}
    for row in rows:
        groups.setdefault(_group_key(row), []).append(row)
    out = []
    for key in sorted(groups):
        grp = groups[key]
        term = [r.termination_value for r in grp if not math.isnan(r.termination_value)]
        ent = [r.entropy_nats for r in grp if not math.isnan(r.entropy_nats)]
        out.append(AggregateRow(
            experiment_id=grp[0].experiment_id,
            **{f: getattr(grp[0], f) for f in _GROUP_FIELDS},
            **compute_metrics(grp),
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
    return AdaptiveGatePolicy(
        num_bins=num_bins,
        prior=prior,
        bkg_flux=known,
        calibration_cycles=n_cal,
        exposure=exposure,
        background_fallback=config.background_fallback,
        flux_grid_spec=(config.flux_grid_size, config.flux_grid_lo, config.flux_grid_hi),
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


def _row_scene(config: ExperimentConfig, num_bins: int, ambient: float, signal: float, depth: int) -> SceneTransient:
    if config.mismatch_kind is not None:
        return mismatch_transient(
            kind=config.mismatch_kind,
            num_bins=num_bins,
            ambient_flux=ambient,
            depth=depth,
            signal_flux=signal,
            second_depth=config.mismatch_second_depth,
            second_flux=config.mismatch_second_flux,
            tail_amplitude=config.mismatch_tail_amplitude,
            tail_decay=config.mismatch_tail_decay,
        )
    return SceneTransient(num_bins=num_bins, ambient_flux=ambient, peaks=((depth, signal),))


def run_pixel_experiment(config: ExperimentConfig, spec: RowSpec) -> ResultRow:
    """Acquire one pixel under one policy and estimate its depth."""
    num_bins = config.resolved_num_bins
    spad = config.spad_config(dead_time_ns=spec.dead_time_ns)
    scene_t = _row_scene(config, num_bins, spec.ambient_flux, spec.signal_flux, spec.true_depth_bin)
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
        post = posterior_from_record(record, bkg, grid, prior)

    if spec.policy.estimator == "map" and post is not None:
        est_bin = map_depth(post)
    else:
        est_bin = coates_depth(coates_est)
    if post is not None:
        term = termination_value(post, config.exposure_metric)
        entropy = posterior_entropy(post)

    sub_bin = dither_depth(coates_est, est_bin)
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
    """Run rows in order: serially, or on ``min(threads, len(specs))`` worker processes.

    The workers start at the first parallel call and are kept for every
    later call that needs as many, so a sweep does not pay for a fork per
    call.  Kept workers run this package as it was when they started:
    monkeypatching after that point does not reach them.  They exit with
    their parent, even when it is killed.  A pool that breaks (a worker
    died, or starting one failed) is dropped, never reused; rows are pure,
    so after a worker died between calls they run once more on fresh
    workers and give the same rows.
    """
    args = [(config, s) for s in specs]
    if threads <= 1 or len(specs) <= 1:
        return [_run_row_safe(a) for a in args]
    from concurrent.futures.process import BrokenProcessPool  # serial runs never pay for its import

    workers = min(threads, len(args))  # a forked pool starts every worker at its first submit
    chunk = max(1, len(args) // (workers * 8))
    try:
        return _pool_map(workers, args, chunk)
    except BrokenProcessPool:
        return _pool_map(workers, args, chunk)


# The worker pool kept across parallel calls, as (worker count, executor).
_POOL: tuple[int, Any] | None = None


def _pool_map(workers: int, args: list, chunk: int) -> list[ResultRow | RowFailure]:
    try:
        return list(_shared_pool(workers).map(_run_row_safe, args, chunksize=chunk))
    except BaseException:
        _drop_pool()
        raise


def _shared_pool(workers: int):
    """The kept pool if it has ``workers`` workers, else a new one that replaces it."""
    global _POOL
    if _POOL is not None and _POOL[0] == workers:
        return _POOL[1]
    _drop_pool()  # its threads are gone before the new workers fork
    from concurrent.futures import ProcessPoolExecutor

    _POOL = (workers, ProcessPoolExecutor(max_workers=workers, initializer=_exit_with_parent))
    return _POOL[1]


def _drop_pool() -> None:
    global _POOL
    if _POOL is not None:
        pool, _POOL = _POOL[1], None
        pool.shutdown(cancel_futures=True)


def _forget_pool() -> None:
    global _POOL
    _POOL = None  # a forked child shares the parent's pipes, but not its threads


# Shut the pool down while the interpreter is still whole; its executor's
# weakref callback would otherwise run during module teardown.
atexit.register(_drop_pool)
os.register_at_fork(after_in_child=_forget_pool)


def _exit_with_parent() -> None:
    """Pool worker initializer: end the worker as soon as its parent is gone.

    An idle worker blocks on its call queue, which a killed parent never
    closes.  The parent's sentinel becomes ready when the parent exits.
    """
    import multiprocessing.connection

    parent = multiprocessing.parent_process()

    def watch() -> None:
        multiprocessing.connection.wait([parent.sentinel])
        os._exit(1)

    if parent is not None:
        threading.Thread(target=watch, daemon=True).start()


# Scan map name -> the ResultRow field it shows.
_MAP_FIELDS = {"depth_m": "est_depth_m", "abs_error_m": "abs_error_m", "entropy_nats": "entropy_nats",
               "exposure_us": "exposure_us"}


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
        with np.errstate(over="ignore"):  # an inf flux fails its pixel's rows
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
        policy_maps = maps[policy.name] = {key: np.full((grid.height, grid.width), np.nan) for key in _MAP_FIELDS}
        specs: list[RowSpec] = []
        results: list[ResultRow | RowFailure] = []
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
                results.append(_run_row_safe((config, spec)))
                if isinstance(results[-1], ResultRow):
                    prev_estimate = results[-1].est_depth_subbin
            else:
                specs.append(spec)
        if not chained:
            results = _map_rows(config, specs, threads)
        for result in results:
            if isinstance(result, ResultRow):
                rows.append(result)
                for key, field in _MAP_FIELDS.items():
                    policy_maps[key][result.y, result.x] = getattr(result, field)
            else:
                failures.append(result)
    rows.sort(key=lambda r: (r.policy, r.y, r.x))
    return rows, maps, failures


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


def proposition_check(
    num_bins_list: tuple[int, ...] = (16, 64),
    flux_pairs: tuple[tuple[float, float], ...] = ((0.05, 0.5), (0.2, 1.0), (1.0, 0.1)),
) -> tuple[bool, str]:
    """Exhaustively confirm the optimal gate is the sampled depth, uniquely."""
    for b in num_bins_list:
        for bkg, sig in flux_pairs:
            for d in range(b):
                vals = np.array([reward(d, g, b, bkg, sig) for g in range(b)])
                best = int(np.argmax(vals))
                if best != d:
                    return False, f"B={b} fluxes=({bkg},{sig}) depth={d}: argmax gate {best}"
                order = np.sort(vals)
                if order[-1] <= order[-2]:
                    return False, f"B={b} fluxes=({bkg},{sig}) depth={d}: optimum not unique"
    return True, "optimal gate equals the sampled depth at every checked configuration"
