"""The four benchmark workloads and the inputs they are built from.

A run of a workload is a sequence of rounds, all of the same rows and all
timed:

* the reference rounds come first, on fixed RNG streams (global seeds
  ``REFERENCE_SEED``, ``REFERENCE_SEED + 1``, ...).  They are identical in
  every run, so the depth-quality metrics and the ``results.csv`` digest
  are taken on them and are exactly reproducible: a pure speed change
  leaves them unchanged.
* seeded rounds follow, on streams derived from ``--seed`` (and, for
  ``dark-scan``, on a scene generated from ``--seed``), until the run's
  ``--seconds`` have passed.

Every round has the same rows, so the share of failed rows is the same in
every run.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REFERENCE_SEED = 0
SPEED_OF_LIGHT_M_S = 299_792_458.0

PAPER_SPAD = {"bin_resolution_ps": 100.0, "rep_rate_mhz": 20.0, "dead_time_ns": 81.0}

# dark-scan: a 6x6 grid at 50 MHz (200 bins, 3 m unambiguous range).  The
# dark pixels (ambient 0, signal > 0) sit at fixed places in every scene,
# whatever the seed, so the same rows fail in every round.
SCAN_WIDTH = 6
SCAN_HEIGHT = 6
SCAN_SPAD = {"bin_resolution_ps": 100.0, "rep_rate_mhz": 50.0, "dead_time_ns": 81.0}
SCAN_NUM_BINS = 200
DARK_PIXELS = ((1, 1), (4, 3))  # (x, y)
DARK_SIGNAL = 0.05

THREE_POLICIES = [
    {"name": "adaptive", "kind": "adaptive"},
    {"name": "free_map", "kind": "free_running", "estimator": "map"},
    {"name": "uniform_coates", "kind": "uniform", "estimator": "coates"},
]


def paper_point(global_seed: int, seeds: int) -> dict:
    """Criterion-6 operating point; the posterior update dominates host time."""
    return {
        "experiment": {"id": "paper-point", "seeds": seeds, "global_seed": global_seed},
        "spad": PAPER_SPAD,
        "scene": {"depth_bin": 275, "ambient_flux": 0.02, "sbr": 2.0},
        "policies": THREE_POLICIES,
        "budget_us": 100.0,
        "background": {"mode": "estimated"},
    }


# Low flux: 16 periods of total rate 0.1255 leave about 13% of cycles
# censored at max_active_periods.  0.02 is the paper point; 0.5 saturates.
GATED_AMBIENTS = [0.00025, 0.02, 0.5]
GATED_GATE = 270  # five bins before the peak at 275


def gated_sweep(global_seed: int, seeds: int) -> dict:
    """Simulator-bound: coates estimators only, so no posterior is built."""
    return {
        "experiment": {"id": "gated-sweep", "seeds": seeds, "global_seed": global_seed},
        "spad": PAPER_SPAD,
        "scene": {"depth_bin": 275, "ambient_flux": 0.02, "sbr": 2.0},
        "policies": [
            {"name": "fixed_coates", "kind": "fixed", "gate": GATED_GATE, "estimator": "coates"},
            {"name": "uniform_coates", "kind": "uniform", "estimator": "coates"},
            {"name": "free_coates", "kind": "free_running", "estimator": "coates"},
        ],
        "budget_us": 1000.0,
        "background": {"mode": "estimated"},
        "sweep": {"ambient_flux": GATED_AMBIENTS},
    }


def adaptive_stop(global_seed: int, seeds: int) -> dict:
    """Adaptive exposure: the posterior is read every cycle to decide stopping."""
    return {
        "experiment": {"id": "adaptive-stop", "seeds": seeds, "global_seed": global_seed},
        "spad": {"bin_resolution_ps": 100.0, "rep_rate_mhz": 100.0, "dead_time_ns": 81.0},
        "scene": {"depth_bin": 60, "ambient_flux": 0.01, "sbr": 2.0},
        "policies": [{"name": "adaptive", "kind": "adaptive"}],
        "budget_us": None,
        "max_cycles": 4000,
        "exposure": {"enabled": True, "epsilon": 0.25, "metric": "termination"},
        "background": {"mode": "estimated"},
        "sweep": {"sbr": [1.0, 2.0, 5.0]},
    }


def dark_scan(global_seed: int, maps: dict[str, str]) -> dict:
    """Chained flatness-prior scan with known background over generated maps."""
    return {
        "experiment": {"id": "dark-scan", "seeds": 1, "global_seed": global_seed},
        "spad": SCAN_SPAD,
        "scene": maps,
        "policies": THREE_POLICIES,
        "budget_us": 30.0,
        "background": {"mode": "known"},
        "prior": {"kind": "flatness"},
    }


@dataclass(frozen=True)
class Workload:
    name: str
    reference_rounds: int
    round_seeds: int  # seeds per sweep point in one round (dark-scan: one scan)
    threads: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-point", reference_rounds=12, round_seeds=2, threads=1),
        Workload("gated-sweep", reference_rounds=6, round_seeds=4, threads=2),
        Workload("adaptive-stop", reference_rounds=20, round_seeds=2, threads=1),
        Workload("dark-scan", reference_rounds=3, round_seeds=1, threads=1),
    )
}


def round_seed(seed: int, round_index: int) -> int:
    """Global seed of one seeded round, mixed from (--seed, round)."""
    return int(np.random.SeedSequence([seed, round_index]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# dark-scan inputs


def generate_scene(seed: int) -> dict[str, np.ndarray]:
    """Depth (m), ambient and signal maps of a 6x6 scene with depth steps.

    The left half, the right half and a central 2x2 block each sit at their
    own depth bin, drawn from the seed; so the scan crosses two or three
    depth steps per row.  Ambient is uniform in [0.01, 0.03] and signal is
    ambient times an SBR uniform in [2, 5], except at DARK_PIXELS, which get
    ambient 0 and signal DARK_SIGNAL.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xDA5C]))
    levels = rng.integers(30, SCAN_NUM_BINS - 30, size=3)
    bins = np.empty((SCAN_HEIGHT, SCAN_WIDTH), dtype=np.int64)
    bins[:, : SCAN_WIDTH // 2] = levels[0]
    bins[:, SCAN_WIDTH // 2:] = levels[1]
    bins[2:4, 2:4] = levels[2]
    bin_m = SPEED_OF_LIGHT_M_S * SCAN_SPAD["bin_resolution_ps"] * 1e-12 / 2.0
    depth_m = (bins + 0.5) * bin_m  # bin centres, so flooring recovers the bin
    ambient = rng.uniform(0.01, 0.03, size=bins.shape)
    signal = ambient * rng.uniform(2.0, 5.0, size=bins.shape)
    for x, y in DARK_PIXELS:
        ambient[y, x] = 0.0
        signal[y, x] = DARK_SIGNAL
    return {"depth_map": depth_m, "ambient_map": ambient, "signal_map": signal}


def write_grid(path: Path, grid: np.ndarray) -> None:
    """Scene-file format: a 'width height' header, then one line per row."""
    lines = [f"{grid.shape[1]} {grid.shape[0]}"]
    lines += [" ".join(repr(float(v)) for v in row) for row in grid]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Set-up: everything between process start and the first row


@dataclass
class Prepared:
    workload: Workload
    reference: list  # ExperimentConfig of each reference round
    template: object  # ExperimentConfig of a seeded round, global seed to be set


def prepare(sg, tracer, name: str, seed: int, inputs_dir: Path) -> Prepared:
    """Parse the configs and, for dark-scan, generate and load the maps."""
    wl = WORKLOADS[name]

    def parse(cfg: dict):
        with tracer.span("harness.parse_config"):
            return sg.parse_config(cfg)

    if name == "dark-scan":
        inputs_dir.mkdir(parents=True, exist_ok=True)
        paths = {}
        for label, scene_seed in (("reference", REFERENCE_SEED), ("seeded", seed)):
            scene = generate_scene(scene_seed)
            paths[label] = {}
            for key in ("depth_map", "ambient_map", "signal_map"):
                path = inputs_dir / f"{label}_{key}.txt"
                write_grid(path, scene[key])
                paths[label][key] = str(path)
            with tracer.span("bench.load_inputs"):
                loaded = {
                    "depth_map": sg.scene.load_depth_map(paths[label]["depth_map"]),
                    "ambient_map": sg.scene.load_flux_map(paths[label]["ambient_map"]),
                    "signal_map": sg.scene.load_flux_map(paths[label]["signal_map"]),
                }
            for key, grid in loaded.items():
                if not np.array_equal(grid, scene[key]):
                    raise RuntimeError(f"{key} did not survive the round trip through its file")
        reference_template = parse(dark_scan(REFERENCE_SEED, paths["reference"]))
        template = parse(dark_scan(REFERENCE_SEED, paths["seeded"]))
    else:
        build = {"paper-point": paper_point, "gated-sweep": gated_sweep, "adaptive-stop": adaptive_stop}[name]
        reference_template = template = parse(build(REFERENCE_SEED, wl.round_seeds))
    reference = [dataclasses.replace(reference_template, global_seed=REFERENCE_SEED + i)
                 for i in range(wl.reference_rounds)]
    return Prepared(workload=wl, reference=reference, template=template)


def seeded_config(prepared: Prepared, seed: int, round_index: int):
    return dataclasses.replace(prepared.template, global_seed=round_seed(seed, round_index))
