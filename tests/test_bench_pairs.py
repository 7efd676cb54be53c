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


def _run(metrics: dict, digest: str = "digest a", failed: int = 0, attempted: int = 100) -> dict:
    return {"digest": digest, "largest_process_rss_mb": 40.0,
            "result": {"attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": v} for k, v in metrics.items()}}}


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


def test_a_gain_needs_nine_of_ten_pairs_and_a_gap_wider_than_the_parent_spread(capsys):
    parent = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 100.0]  # quartiles 98.75-101.25
    faster = [v + 5.0 for v in parent]
    summary = bench_pairs.summarize("w", _pairs({"cycles_per_s": parent}, {"cycles_per_s": faster}), METRICS)
    assert summary["cycles_per_s"]["gain"] == "gain"
    assert "gain     within bound" in capsys.readouterr().out
    # Eight wins and two ties: ties count for neither side.
    tied = faster[:8] + parent[8:]
    summary = bench_pairs.summarize("w", _pairs({"cycles_per_s": parent}, {"cycles_per_s": tied}), METRICS)
    assert summary["cycles_per_s"]["wins"] == {"parent": 0, "change": 8, "tie": 2}
    assert summary["cycles_per_s"]["gain"] == "no gain"
    # Ten wins, but a median gap of 2 inside the parent's spread of 2.5.
    close = [v + 2.0 for v in parent]
    summary = bench_pairs.summarize("w", _pairs({"cycles_per_s": parent}, {"cycles_per_s": close}), METRICS)
    assert summary["cycles_per_s"]["wins"]["change"] == 10 and summary["cycles_per_s"]["gain"] == "no gain"


def test_a_gain_on_a_lower_is_better_metric_is_a_fall():
    parent = (49.0, 50.0, 51.0)
    assert bench_pairs.gain(parent, 47.0, "lower", 10, 10) == "gain"
    assert bench_pairs.gain(parent, 53.0, "lower", 10, 10) == "no gain"  # worse, whatever the wins say
    assert bench_pairs.gain(parent, 47.0, "lower", 9, 10) == "gain"
    assert bench_pairs.gain(parent, 47.0, "lower", 8, 10) == "no gain"
    assert bench_pairs.gain(parent, 53.0, "higher", 18, 20) == "gain"


def test_failed_rows_are_compared_as_a_share_of_the_attempted_rows(capsys):
    # A faster change attempts more rows and fails more of them, at the same share.
    values = {"cycles_per_s": [100.0, 100.0, 100.0]}
    pairs = _pairs(values, values)
    for pair, (failed, attempted) in zip(pairs, [(4, 108), (8, 216), (4, 108)]):
        pair["parent"]["result"].update(failed=failed, attempted=attempted)
    for pair, (failed, attempted) in zip(pairs, [(8, 216), (12, 324), (8, 216)]):
        pair["change"]["result"].update(failed=failed, attempted=attempted)
    share = bench_pairs.summarize("w", pairs, METRICS)["failed_share"]
    assert share["parent"]["per_run"] == share["change"]["per_run"] == [4 / 108] * 3
    assert share["parent"]["median"] == share["change"]["median"] == 4 / 108
    assert not share["higher_on_change"]
    out = capsys.readouterr().out
    assert "failed share per run [0.0370, 0.0370, 0.0370]" in out
    assert "failed share, median: parent 0.0370, change 0.0370\n" in out
    # One more failed row in two of the change's runs raises its median share.
    for pair in pairs[:2]:
        pair["change"]["result"]["failed"] += 1
    share = bench_pairs.summarize("w", pairs, METRICS)["failed_share"]
    assert share["change"]["median"] == 13 / 324 and share["higher_on_change"]
    assert "HIGHER on the change side" in capsys.readouterr().out


def test_a_run_without_a_result_has_no_failed_share():
    values = {"cycles_per_s": [100.0, 100.0]}
    pairs = _pairs(values, values)
    pairs[1]["change"]["result"] = None
    pairs[1]["change"]["stderr_tail"] = "Traceback"
    assert bench_pairs.failed_share(pairs[1]["change"]) is None
    share = bench_pairs.summarize("w", pairs, METRICS)["failed_share"]
    assert share["change"] == {"per_run": [0.0, None], "median": None}
    assert not share["higher_on_change"]
