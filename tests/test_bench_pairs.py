"""``tools/bench_pairs.py``'s summary of alternating parent/change pairs, on synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = {
    "cycles_per_s": {"name": "cycles_per_s", "better": "higher", "bound": 0.2},
    "peak_rss_mb": {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
    "depth_rmse_m": {"name": "depth_rmse_m", "better": "lower", "bound": 0.2},
    "setup_s": {"name": "setup_s", "better": "lower", "bound": 0.25},
}


def _run(metrics: dict, digest: str = "digest a", failed: int = 0) -> dict:
    return {"digest": digest, "largest_process_rss_mb": 40.0,
            "result": {"failed": failed, "metrics": {k: {"value": v} for k, v in metrics.items()}}}


def _pairs(parent: dict, change: dict, parent_digests=None, change_digests=None) -> list[dict]:
    """One pair per index of the value lists in ``parent`` and ``change``."""
    n = len(next(iter(parent.values())))
    parent_digests = parent_digests or ["digest a"] * n
    change_digests = change_digests or ["digest a"] * n
    return [{"pair": i + 1,
             "parent": _run({k: v[i] for k, v in parent.items()}, parent_digests[i]),
             "change": _run({k: v[i] for k, v in change.items()}, change_digests[i])}
            for i in range(n)]


def test_summary_gives_each_metric_its_verdict_against_the_bound(capsys):
    parent = {"cycles_per_s": [100.0, 101.0, 99.0, 100.0, 100.0],
              "peak_rss_mb": [50.0, 50.0, 50.0, 50.0, 50.0],
              "depth_rmse_m": [0.0] * 5,
              "setup_s": [0.1, 0.3, 0.05, 0.2, 0.15]}  # quartile spread wider than 25% of the median
    change = {"cycles_per_s": [70.0, 71.0, 69.0, 70.0, 70.0],  # 30% fewer: worse than 20%
              "peak_rss_mb": [52.0, 52.0, 52.0, 52.0, 52.0],  # 4% more: within 10%
              "depth_rmse_m": [0.0] * 5,
              "setup_s": [0.5, 0.5, 0.5, 0.5, 0.5]}
    summary = bench_pairs.summarize("w", _pairs(parent, change), METRICS)
    assert summary["cycles_per_s"]["verdict"] == "worse than bound"
    assert summary["cycles_per_s"]["worse_by"] == pytest.approx(0.3)
    assert summary["cycles_per_s"]["wins"] == {"parent": 5, "change": 0, "tie": 0}
    assert summary["peak_rss_mb"]["verdict"] == "within bound"
    assert summary["peak_rss_mb"]["worse_by"] == pytest.approx(0.04)
    assert summary["depth_rmse_m"]["verdict"] == "within bound"  # 0 on both sides
    assert summary["depth_rmse_m"]["worse_by"] == 0.0
    assert summary["setup_s"]["verdict"] == "unresolved"
    assert summary["digests_equal"]
    out = capsys.readouterr().out
    assert "worse than bound (+30.00%, 20%)" in out
    assert "digests: the same set on both sides" in out


def test_a_better_change_is_within_the_bound_and_a_lower_metric_can_be_worse():
    parent = {"cycles_per_s": [100.0, 100.0, 100.0], "peak_rss_mb": [50.0, 50.0, 50.0]}
    change = {"cycles_per_s": [150.0, 150.0, 150.0], "peak_rss_mb": [60.0, 60.0, 60.0]}
    summary = bench_pairs.summarize("w", _pairs(parent, change), METRICS)
    assert summary["cycles_per_s"]["verdict"] == "within bound"
    assert summary["cycles_per_s"]["worse_by"] == pytest.approx(-0.5)
    assert summary["peak_rss_mb"]["verdict"] == "worse than bound"
    assert "setup_s" not in summary  # no run reports it


def test_summary_says_when_the_digest_sets_differ(capsys):
    values = {"cycles_per_s": [100.0, 100.0]}
    pairs = _pairs(values, values, change_digests=["digest a", "digest b"])
    assert not bench_pairs.summarize("w", pairs, METRICS)["digests_equal"]
    assert "digests: the sides differ" in capsys.readouterr().out


def test_a_metric_at_zero_on_the_parent_is_worse_on_any_rise():
    assert bench_pairs.verdict((0.0, 0.0, 0.0), 0.01, "lower", 0.2) == (float("inf"), "worse than bound")
    assert bench_pairs.verdict((0.0, 0.0, 1.0), 0.0, "lower", 0.2) == (0.0, "unresolved")
