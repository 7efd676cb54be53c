"""Run the benchmark on two source trees in alternating pairs and compare.

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workload gated-sweep \
        --pairs 10 --first-seed 2001 --out BENCH.json

Each pair runs ``python3 bench/run.py --workload W --seed S --seconds T``
once in each tree, on the same seed; odd pairs run the parent tree first,
even pairs the change tree.  Pair i uses seed ``first_seed + i - 1``.
Every run's digest line, row-count line, final JSON and the peak RSS of
its largest process (``largest_process_rss_mb``, see ``run_once``) go into
the output file, with both trees' ``git rev-parse HEAD`` (and their
``src`` tree ids, and whether the tree has uncommitted changes), the CPU
model, the Python and numpy versions and the seeds.  For each workload
and metric it prints the median and quartiles of each side and how many
pairs each side won, the direction of "better" read from the change
tree's BENCHMARK.json, and each side's median largest process.  Each
metric also gets a verdict against its BENCHMARK.json ``bound``: worse
than the bound, within it, or unresolved when the parent's quartile
spread is wider than the bound.  One line says whether both sides gave
the same set of digests.

Standard library only.  Run nothing else heavy alongside: the runs are
timed on the host they share.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

SIDES = ("parent", "change")
PYTHON = "python3"  # the interpreter the benchmark is declared to run with


def _git(tree: Path, *args: str) -> str | None:
    proc = subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _tree_info(tree: Path) -> dict:
    status = _git(tree, "status", "--porcelain", "--untracked-files=no")
    return {
        "name": tree.name,
        "head": _git(tree, "rev-parse", "HEAD"),
        "src_tree": _git(tree, "rev-parse", "HEAD:src") if not status else None,
        "uncommitted_changes": bool(status),
    }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _versions() -> dict:
    code = "import json, platform, numpy; print(json.dumps([platform.python_version(), numpy.__version__]))"
    out = subprocess.run([PYTHON, "-c", code], capture_output=True, text=True, check=True).stdout
    py, np_version = json.loads(out)
    return {"python": py, "numpy": np_version}


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``tree``: its key output lines, final JSON and largest process.

    The run is reaped with ``os.wait4``.  On Linux its ``ru_maxrss`` (KiB) is
    the largest peak RSS among the benchmark process and every descendant
    it reaped, worker processes included; ``largest_process_rss_mb`` is
    that figure in MiB.
    """
    cmd = [PYTHON, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    # Files, not pipes: nothing has to drain them while wait4 blocks.
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        t = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=tree, stdout=out, stderr=err, text=True)
        timer = threading.Timer(4 * seconds + 300, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        timer.cancel()
        wall = time.perf_counter() - t
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, so Popen must not wait again
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    lines = stdout.strip().splitlines()
    run = {"seed": seed, "returncode": proc.returncode, "wall_s": round(wall, 3),
           "largest_process_rss_mb": round(usage.ru_maxrss / 1024.0, 2)}
    for line in lines[:-1]:
        if line.startswith("digest "):
            run["digest"] = line
        elif line.startswith("reference rounds:"):
            run["rounds"] = line
    try:
        run["result"] = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        run["result"] = None
        run["stderr_tail"] = stderr[-2000:]
    return run


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _metric(run: dict, name: str) -> float | None:
    result = run.get("result")
    if not result or name not in result["metrics"]:
        return None
    return result["metrics"][name]["value"]


def verdict(parent: tuple[float, float, float], change_median: float, better: str, bound: float) -> tuple[float, str]:
    """How much worse the change's median is than the parent's, as a fraction
    of the parent's median, and what that says against ``bound``.

    "unresolved" when the parent's quartile spread, as a fraction of its
    median, is wider than the bound (the runs cannot tell a move of the
    bound from noise); else "worse than bound" or "within bound".
    """
    q1, median, q3 = parent
    worse = (median - change_median) if better == "higher" else (change_median - median)
    if median:
        worse_by, spread = worse / abs(median), (q3 - q1) / abs(median)
    else:  # a metric at 0 on the parent: any move is unbounded
        worse_by = math.copysign(math.inf, worse) if worse else 0.0
        spread = math.inf if q3 > q1 else 0.0
    if spread > bound:
        return worse_by, "unresolved"
    return worse_by, "worse than bound" if worse_by > bound else "within bound"


def summarize(workload: str, pairs: list[dict], spec: dict[str, dict]) -> dict:
    """Per metric: each side's quartiles, the pairs each side won and the
    verdict against the metric's bound; then whether both sides gave the
    same digests.  ``spec`` maps each metric to its BENCHMARK.json entry
    (``better`` and ``bound``)."""
    names = [n for n in spec if any(_metric(p["parent"], n) is not None for p in pairs)]
    summary = {}
    print(f"\n{workload}: {len(pairs)} pairs")
    print(f"  {'metric':18s} {'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s} "
          f"{'change/parent':>13s}  wins parent/change/tie  verdict (worse by, bound)")
    for name in names:
        values = {s: [_metric(p[s], name) for p in pairs] for s in SIDES}
        if any(v is None for s in SIDES for v in values[s]):
            print(f"  {name:18s} missing in some runs")
            continue
        better, bound = spec[name]["better"], spec[name]["bound"]
        sign = 1.0 if better == "higher" else -1.0
        wins = {"parent": 0, "change": 0, "tie": 0}
        for a, b in zip(values["parent"], values["change"]):
            d = sign * (b - a)
            wins["change" if d > 0 else "parent" if d < 0 else "tie"] += 1
        stats = {s: _quartiles(values[s]) for s in SIDES}
        ratio = stats["change"][1] / stats["parent"][1] if stats["parent"][1] else float("nan")
        worse_by, call = verdict(stats["parent"], stats["change"][1], better, bound)
        shown = {s: f"{stats[s][1]:.6g} [{stats[s][0]:.6g}, {stats[s][2]:.6g}]" for s in SIDES}
        won = f"{wins['parent']}/{wins['change']}/{wins['tie']}"
        print(f"  {name:18s} {shown['parent']:>34s} {shown['change']:>34s} {ratio:13.4f}  {won:22s}  "
              f"{call} ({worse_by:+.2%}, {bound:.0%})")
        summary[name] = {
            **{s: {"q1": stats[s][0], "median": stats[s][1], "q3": stats[s][2]} for s in SIDES},
            "change_over_parent": ratio,
            "wins": wins,
            "bound": bound,
            "worse_by": worse_by,
            "verdict": call,
        }
    rss = {s: statistics.median(p[s]["largest_process_rss_mb"] for p in pairs) for s in SIDES}
    print(f"  largest process RSS, median: parent {rss['parent']:.2f} MB, change {rss['change']:.2f} MB")
    summary["largest_process_rss_mb"] = {s: {"median": rss[s]} for s in SIDES}
    digests = {s: sorted({p[s].get("digest", "none") for p in pairs}) for s in SIDES}
    for s in SIDES:
        failed = [p[s]["result"]["failed"] if p[s]["result"] else None for p in pairs]
        print(f"  {s}: {' | '.join(digests[s])}; failed rows per run {failed}")
    summary["digests_equal"] = digests["parent"] == digests["change"]
    print(f"  digests: {'the same set on both sides' if summary['digests_equal'] else 'the sides differ'}")
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, help="source tree of the parent commit")
    parser.add_argument("change", type=Path, help="source tree of the change")
    parser.add_argument("--workload", nargs="+", required=True, help="one or more bench workloads")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = parser.parse_args()

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seeds = [args.first_seed + i for i in range(args.pairs)]
    record = {
        "command": "python3 bench/run.py --workload W --seed S --seconds T",
        "seconds": args.seconds,
        "seeds": seeds,
        "order": "odd pairs run the parent tree first, even pairs the change tree",
        "trees": {s: _tree_info(trees[s]) for s in SIDES},
        "host": {"cpu_model": _cpu_model(), "cpus": len(os.sched_getaffinity(0)),
                 **_versions()},
        "workloads": {},
    }
    for workload in args.workload:
        pairs = []
        for i, seed in enumerate(seeds, start=1):
            order = SIDES if i % 2 else SIDES[::-1]
            pair = {"pair": i, "seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(trees[side], workload, seed, args.seconds)
            pairs.append(pair)
            print(f"{workload} pair {i}/{len(seeds)} seed {seed} done", file=sys.stderr, flush=True)
        record["workloads"][workload] = {"pairs": pairs}
        record["workloads"][workload]["summary"] = summarize(workload, pairs, metrics)
        args.out.write_text(json.dumps(record, indent=1) + "\n")  # kept after each workload
    return 0


if __name__ == "__main__":
    sys.exit(main())
