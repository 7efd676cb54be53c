"""Benchmark for spadgate: one workload per run, or all of them in turn.

    python3 bench/run.py --workload paper-point --seed 1 --seconds 25 --trace 0

drives spadgate through its public functions only and prints, as the last
line of standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end metrics; with ``--trace 1`` the run is traced in one
process and the metrics are the per-layer ones.  ``--workload all`` runs
every workload in a child process and prints a summary table.  See
bench/README.md for the workloads, metrics and reference figures.
"""

import time

_T0 = time.perf_counter()  # set-up time is measured from here

import argparse
import hashlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

import checks
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
TRACES = BENCH / "traces"
SETUP_SAMPLES = 4  # set-ups in fresh processes, on top of the run's own
# The host probe's wall time at nominal host speed: its median on the
# reference machine (see README, "Host speed").
NOMINAL_PROBE_S = 0.020


class Block(NamedTuple):
    rows: list
    failures: list
    maps: dict
    config: object


def _import_spadgate():
    src = ROOT / "src"
    if not (src / "spadgate" / "__init__.py").is_file():
        sys.exit(f"spadgate sources not found under {src}")
    sys.path.insert(0, str(src))
    import spadgate

    return spadgate


def _setup(name: str, seed: int, inputs_dir: Path, tracer):
    """Import, parse and generate inputs; returns (spadgate, prepared)."""
    sg = _import_spadgate()
    if tracer.enabled:
        tracer.install(sg)
    with tracer.span("bench.setup"):
        prepared = workloads.prepare(sg, tracer, name, seed, inputs_dir)
    return sg, prepared


def _run_block(sg, prepared, config, threads: int, out_dir: Path, tracer) -> Block:
    """Run one block of rows and write its CSVs."""
    with tracer.span("bench.block"):
        if prepared.workload.name == "dark-scan":
            rows, maps, failures = sg.run_scene_scan(config, threads=threads)
            aggs = sg.aggregate_rows(rows)
        else:
            rows, aggs, failures = sg.run_sweep(config, threads=threads)
            maps = {}
        out_dir.mkdir(parents=True, exist_ok=True)
        with tracer.span("harness.write"):
            sg.write_results_csv(out_dir / "results.csv", rows)
            sg.write_aggregates_csv(out_dir / "aggregates.csv", aggs)
            for policy, grids in maps.items():
                for key, grid in grids.items():
                    sg.write_map_csv(out_dir / f"{policy}_{key}.csv", grid)
    return Block(rows, failures, maps, config)


def _probe() -> float:
    """Wall time of a fixed piece of Python and small-array numpy work.

    It uses no spadgate code, so a change to the program cannot move it;
    it moves with the speed the shared host gives this process.  The
    median of five repeats keeps a single stall from counting.
    """
    x = np.linspace(0.01, 1.0, 500)
    times = []
    for _ in range(5):
        t = time.perf_counter()
        for i in range(600):
            int(np.searchsorted(np.cumsum(x), (i % 97) * 2.5)) + math.log1p(i)
        times.append(time.perf_counter() - t)
    return 5 * statistics.median(times)


def _check(sg, name: str, n_ref: int, blocks: list[Block]) -> tuple[list[str], list[str]]:
    """Correctness checks over every block of the run: (problems, notes)."""
    config = blocks[0].config
    problems, notes = [], []
    posterior = {p.name for p in config.policies if p.kind == "adaptive" or p.estimator == "map"}
    for b in blocks:
        problems += checks.common(b.rows, config.resolved_num_bins, config.bin_resolution_ps, posterior)
        if name == "dark-scan":
            problems += checks.dark_scan(b.rows, b.maps, b.failures, config.policies)
        else:
            problems += checks.no_failures(b.failures)
    all_rows = [r for b in blocks for r in b.rows]
    found: list[tuple[list[str], list[str]]] = []
    if name == "gated-sweep":
        found.append(checks.gated_detections(all_rows, config, workloads.GATED_GATE))
        found.append((checks.gated_exposure(all_rows, config), []))
    elif name == "paper-point":
        # The first reference round and the first seeded round.
        found += [checks.paper_map(sg, b.rows, b.config) for b in (blocks[0], blocks[n_ref])]
    elif name == "adaptive-stop":
        found.append(checks.stopping(all_rows, config))
    for p, n in found:
        problems += p
        notes += n
    return problems, notes


def _setup_samples(name: str, seed: int) -> list[float]:
    """Set-up times of SETUP_SAMPLES fresh processes."""
    samples = []
    for i in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-sample", str(i), "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=60, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    tracer = tracing.Tracer() if trace else tracing.NullTracer()
    out = OUT / f"{name}-trace{int(trace)}"
    shutil.rmtree(out, ignore_errors=True)
    sg, prepared = _setup(name, seed, out / "inputs", tracer)
    setup_own = time.perf_counter() - _T0
    # The traced run stays in one process so every span is recorded.
    threads = 1 if trace else prepared.workload.threads

    n_ref = len(prepared.reference)
    blocks: list[Block] = []
    walls: list[float] = []  # per round, probes excluded
    probes = [_probe()]  # before the first round and after every round
    t_start = time.perf_counter()
    reference_spans = reference_detected = 0
    # Seeded rounds follow the reference rounds until the row phase is as
    # close to ``seconds`` as whole rounds allow: a round starts only if it
    # would end nearer the mark.
    while len(blocks) <= n_ref or time.perf_counter() - t_start + walls[-1] / 2 < seconds:
        i = len(blocks)
        if i < n_ref:
            config, out_dir = prepared.reference[i], out / f"reference{i}"
        else:
            config, out_dir = workloads.seeded_config(prepared, seed, i - n_ref), out / "seeded"
        t_round = time.perf_counter()
        blocks.append(_run_block(sg, prepared, config, threads, out_dir, tracer))
        walls.append(time.perf_counter() - t_round)
        if trace and i == n_ref - 1:
            reference_spans, reference_detected = tracer.mark(), tracer.detected
        probes.append(_probe())
    t_rows = sum(walls)
    # Each round's wall time at nominal host speed, from the probes around it.
    nominal = sum(w * 2 * NOMINAL_PROBE_S / (probes[i] + probes[i + 1]) for i, w in enumerate(walls))
    rss_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    reference_rows = [r for b in blocks[:n_ref] for r in b.rows]
    all_rows = [r for b in blocks for r in b.rows]
    problems, notes = _check(sg, name, n_ref, blocks)
    digest = hashlib.sha256()
    for i in range(n_ref):
        digest.update((out / f"reference{i}" / "results.csv").read_bytes())

    print(f"workload {name} seed {seed} trace {int(trace)} threads {threads}")
    print(f"digest reference results.csv sha256 {digest.hexdigest()}")
    print(f"reference rounds: {n_ref}, {len(reference_rows)} rows in {sum(walls[:n_ref]):.3f} s; seeded rounds: "
          f"{len(walls) - n_ref}, {len(all_rows) - len(reference_rows)} rows in {sum(walls[n_ref:]):.3f} s")
    print("round walls (s): " + " ".join(f"{w:.3f}" for w in walls))
    print("host probes (ms): " + " ".join(f"{p * 1e3:.1f}" for p in probes))
    print(f"raw wall rates: {len(all_rows) / t_rows:.6g} rows/s, {sum(r.cycles for r in all_rows) / t_rows:.6g} cycles/s; "
          f"host speed {nominal / t_rows:.4f} x nominal")
    for note in notes:
        print(f"check: {note}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)

    if trace:
        # Per-layer figures cover set-up and the reference rounds: fixed work,
        # so their counts repeat exactly from run to run.
        metrics = tracer.per_layer(reference_spans, reference_detected)
        tracer.write(TRACES / f"{name}.npz")
    else:
        setup = [setup_own] + _setup_samples(name, seed)
        print("setup samples (s): " + " ".join(f"{s:.4f}" for s in setup))
        errors = [r.est_depth_m - r.true_depth_m for r in reference_rows]
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "rows_per_s": (len(all_rows) / nominal, "rows/s"),
            "cycles_per_s": (sum(r.cycles for r in all_rows) / nominal, "cycles/s"),
            "peak_rss_mb": ((rss_self + (threads if threads > 1 else 0) * rss_worker) / 1024.0, "MB"),
            "depth_rmse_m": (math.sqrt(sum(e * e for e in errors) / len(errors)), "m"),
            "mean_exposure_us": (sum(r.exposure_us for r in reference_rows) / len(reference_rows), "sim_us"),
        }
    for key, (value, unit) in metrics.items():
        print(f"metric {key} {value:.6g} {unit}")
    return {
        "correct": not problems,
        "attempted": sum(len(b.rows) + len(b.failures) for b in blocks),
        "failed": sum(len(b.failures) for b in blocks),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload in its own process, then one table of all metrics."""
    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=300)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            if line.startswith(("digest", "reference rounds", "raw wall")):
                print(f"{name}: {line}")
        results[name] = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    print()
    for name, res in results.items():
        if res is None:
            print(f"{name:14s} FAILED TO RUN")
            continue
        print(f"{name:14s} correct {res['correct']} attempted {res['attempted']} failed {res['failed']}")
        for key, m in res["metrics"].items():
            print(f"  {key:40s} {m['value']:14.6g} {m['unit']}")
    return {
        "correct": all(r is not None and r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values() if r),
        "failed": sum(r["failed"] for r in results.values() if r),
        "workloads": results,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0, help="seed of the seeded rounds (default 0)")
    parser.add_argument("--seconds", type=float, default=25.0, help="length of the row phase (default 25)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-sample", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.setup_sample is not None:
        inputs = OUT / f"{args.workload}-setup{args.setup_sample}"
        shutil.rmtree(inputs, ignore_errors=True)
        _setup(args.workload, args.seed, inputs, tracing.NullTracer())
        print(json.dumps({"setup_s": time.perf_counter() - _T0}))
        return 0
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
        return 0 if all(result["workloads"].values()) else 1
    print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
