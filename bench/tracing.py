"""Span recording for the traced benchmark run.

The traced run replaces module attributes that spadgate looks up at call
time with timing wrappers defined here; no file under ``src/`` changes.
Each wrapper records one span (name, start, end, parent) in flat arrays,
and the spans are written out when the run ends.  A span's self time is
its duration minus the time its direct children cover; the traced run is
single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
from array import array
from pathlib import Path

import numpy as np

# Span name -> (median unit, how the median is taken, name of its call count).
# "call": median over single calls.  "parent": the durations of all spans of
# this name under one parent are summed first (once-per-row layers made of
# several calls, such as the readout), then the median is over parents.
# A call count named None is "<span>.calls"; "" means none (self-time spans
# have the call count of the span they are taken from).
SPANS = {
    "spadsim.sample_cycle": ("us", "call", "spadsim.cycles"),
    "spadsim.acquisition_self": ("ms", "call", ""),
    "estimators.posterior_update": ("us", "call", "estimators.posterior_updates"),
    "estimators.posterior_from_record": ("ms", "call", None),
    "policies.next_gate": ("us", "call", None),
    "policies.observe": ("us", "call", None),
    "policies.should_stop": ("us", "call", None),
    "policies.thompson_draw": ("us", "call", "policies.thompson_draws"),
    "estimators.background": ("ms", "call", None),
    "estimators.coates": ("ms", "parent", None),
    "estimators.readout": ("ms", "parent", None),
    "core.histogram": ("ms", "call", None),
    "scene.load_maps": ("ms", "parent", None),
    "scene.prior": ("ms", "call", None),
    "harness.row": ("ms", "call", None),
    "harness.row_self": ("ms", "call", ""),
    "harness.parse_config": ("ms", "call", None),
    "harness.write": ("ms", "call", None),
}

# Recorded span -> the self-time span derived from it.
_SELF_SPANS = {"spadsim.acquisition": "spadsim.acquisition_self", "harness.row": "harness.row_self"}

_SCALE = {"us": 1e-3, "ms": 1e-6}  # nanoseconds -> unit


def per_layer_metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in print order."""
    out = []
    for span, (unit, _per, calls_name) in SPANS.items():
        out.append((f"{span}_{unit}", unit, "lower"))
        if calls_name != "":
            out.append((calls_name or f"{span}.calls", "count", "lower"))
        out.append((f"{span}.total_ms", "ms", "lower"))
    out.append(("spadsim.detected_ratio", "ratio", "higher"))
    return out


class NullTracer:
    """Stand-in for untraced runs: spans cost one context-manager call."""

    enabled = False

    def span(self, name: str):
        return contextlib.nullcontext()


class Tracer:
    """In-memory span recorder; single-threaded by construction."""

    enabled = True

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack: list[int] = []
        self.detected = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        nid = self._id(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return timed

    def patch(self, owner, attr: str, name: str) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr)))

    def install(self, sg) -> None:
        """Wrap the spadgate functions each layer is entered through."""
        harness, policies, estimators, spadsim, scene = (
            sg.harness, sg.policies, sg.estimators, sg.spadsim, sg.scene)
        sample = spadsim.sample_cycle
        nid = self._id("spadsim.sample_cycle")
        open_, close = self._open, self._close

        @functools.wraps(sample)
        def sample_cycle(*args, **kwargs):
            idx = open_(nid)
            try:
                outcome = sample(*args, **kwargs)
            finally:
                close(idx)
            self.detected += outcome.detected
            return outcome

        spadsim.sample_cycle = sample_cycle
        self.patch(harness, "run_acquisition", "spadsim.acquisition")
        self.patch(harness, "run_pixel_experiment", "harness.row")
        self.patch(policies, "posterior_update", "estimators.posterior_update")
        self.patch(estimators, "posterior_update", "estimators.posterior_update")
        adaptive = policies.AdaptiveGatePolicy
        self.patch(adaptive, "next_gate", "policies.next_gate")
        self.patch(adaptive, "observe", "policies.observe")
        self.patch(adaptive, "should_stop", "policies.should_stop")
        self.patch(adaptive, "sample_depth", "policies.thompson_draw")
        self.patch(harness, "posterior_from_record", "estimators.posterior_from_record")
        self.patch(harness, "estimate_background", "estimators.background")
        self.patch(policies, "estimate_background", "estimators.background")
        for attr in ("coates_transient", "coates_depth", "dither_depth"):
            self.patch(harness, attr, "estimators.coates")
        for attr in ("map_depth", "termination_value", "posterior_entropy"):
            self.patch(harness, attr, "estimators.readout")
        self.patch(harness, "timestamps_to_histogram", "core.histogram")
        for owner in (harness, scene):
            self.patch(owner, "load_depth_map", "scene.load_maps")
            self.patch(owner, "load_flux_map", "scene.load_maps")
        self.patch(harness, "flatness_prior", "scene.prior")

    def mark(self) -> int:
        """Number of spans opened so far."""
        return len(self.start)

    def per_layer(self, end: int, detected: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over the spans before index ``end``, given the
        number of detected cycles among them."""
        durations: dict[str, list[int]] = {}
        by_parent: dict[str, dict[int, int]] = {}
        child_ns = [0] * end
        for i in range(end):
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        for i in range(end):
            name = self.names[self.name_id[i]]
            dur = self.end[i] - self.start[i]
            durations.setdefault(name, []).append(dur)
            group = by_parent.setdefault(name, {})
            group[self.parent[i]] = group.get(self.parent[i], 0) + dur
            if name in _SELF_SPANS:
                durations.setdefault(_SELF_SPANS[name], []).append(dur - child_ns[i])
        out: dict[str, tuple[float, str]] = {}
        for span, (unit, per, calls_name) in SPANS.items():
            durs = durations.get(span, [])
            if per == "parent" and durs:
                samples = list(by_parent[span].values())
            else:
                samples = durs
            median = statistics.median(samples) * _SCALE[unit] if samples else 0.0
            out[f"{span}_{unit}"] = (median, unit)
            if calls_name != "":
                out[calls_name or f"{span}.calls"] = (len(durs), "count")
            out[f"{span}.total_ms"] = (sum(durs) * 1e-6, "ms")
        cycles = len(durations.get("spadsim.sample_cycle", []))
        out["spadsim.detected_ratio"] = (detected / cycles if cycles else 0.0, "ratio")
        return out

    def write(self, path: Path) -> None:
        """All spans as a compressed numpy archive: ``names`` and, per span,
        ``name_id``, ``parent`` (-1 for none), ``start_ns`` and ``end_ns``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, np.int64),
                            parent=np.frombuffer(self.parent, np.int64), start_ns=np.frombuffer(self.start, np.int64),
                            end_ns=np.frombuffer(self.end, np.int64))
