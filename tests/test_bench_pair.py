"""tools/bench_pair.py: quartiles, the paired summary it writes into
BENCH_<pr>.json and the seeds its pairs run on, on synthetic run records."""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_pair.py")
_spec = importlib.util.spec_from_file_location("bench_pair", _PATH)
bench_pair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pair)

METRICS = {"items_per_s": "higher", "op_p50_ms": "lower"}


def run(pair, side, items_per_s=None, op_p50_ms=None, failed=0, workload="w"):
    record = {"workload": workload, "pair": pair, "side": side, "failed": failed}
    if items_per_s is None:
        record["error"] = "exit 1: no result line"
    else:
        record["metrics"] = {"items_per_s": items_per_s, "op_p50_ms": op_p50_ms}
    return record


def test_quartiles():
    assert bench_pair.quartiles([7.0]) == (7.0, 7.0, 7.0)
    assert bench_pair.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pair.quartiles([4.0, 1.0, 3.0, 2.0]) == pytest.approx((1.75, 2.5, 3.25))


def test_wins_follow_each_metrics_direction():
    runs = [
        # pair 0: the change is faster and quicker per operation
        run(0, "base", 10.0, 5.0), run(0, "change", 12.0, 4.0),
        # pair 1: the change is slower on both
        run(1, "change", 9.0, 6.0), run(1, "base", 11.0, 5.0),
        # pair 2: a tie counts for neither side
        run(2, "base", 10.0, 5.0), run(2, "change", 10.0, 5.0),
    ]
    entry = bench_pair.summarise(runs, METRICS)["w"]
    assert entry["pairs"] == 3
    items, p50 = entry["metrics"]["items_per_s"], entry["metrics"]["op_p50_ms"]
    assert items["better"] == "higher" and p50["better"] == "lower"
    assert items["wins"] == 1 and p50["wins"] == 1
    assert items["base"]["median"] == 10.0 and items["change"]["median"] == 10.0
    assert items["ratio"] == 1.0
    assert not items["beyond_base_iqr"]


def test_a_pair_missing_one_side_is_dropped():
    runs = [
        run(0, "base", 10.0, 5.0), run(0, "change", 20.0, 2.0),
        run(1, "base", 10.0, 5.0), run(1, "change"),  # the change's run failed
        run(2, "change", 30.0, 1.0),  # the base never ran
    ]
    entry = bench_pair.summarise(runs, METRICS)["w"]
    assert entry["pairs"] == 1
    items = entry["metrics"]["items_per_s"]
    assert items["wins"] == 1
    assert items["change"]["median"] == 20.0 and items["ratio"] == 2.0
    assert items["beyond_base_iqr"]


def test_error_runs_count_as_failed():
    runs = [
        run(0, "base", 10.0, 5.0, failed=2), run(0, "change", 10.0, 5.0),
        run(1, "base"), run(1, "change"),
        run(2, "change", 11.0, 4.0, failed=1), run(2, "base"),
        run(0, "base", 1.0, 1.0, workload="other"), run(0, "change", workload="other"),
    ]
    summary = bench_pair.summarise(runs, METRICS)
    assert summary["w"]["failed"] == {"base": 4, "change": 2}
    assert summary["w"]["pairs"] == 1
    assert summary["other"] == {"pairs": 0, "failed": {"base": 0, "change": 1}, "metrics": {}}


def test_peak_rss_carries_each_sides_median_attempted():
    def record(pair, side, rss, attempted):
        metrics = {"peak_rss_mb": rss, "items_per_s": 1.0}
        return {"workload": "w", "pair": pair, "side": side, "failed": 0,
                "attempted": attempted, "metrics": metrics}

    runs = [
        record(0, "base", 40.0, 100), record(0, "change", 44.0, 130),
        record(1, "change", 45.0, 150), record(1, "base", 41.0, 110),
        record(2, "base", 42.0, 120), record(2, "change", 43.0, 140),
        # an unpaired run counts for no side
        record(3, "base", 90.0, 999),
    ]
    metrics = {"peak_rss_mb": "lower", "items_per_s": "higher"}
    entry = bench_pair.summarise(runs, metrics)["w"]["metrics"]
    assert entry["peak_rss_mb"]["attempted"] == {"base": 110, "change": 140}
    assert entry["peak_rss_mb"]["change"]["median"] == 44.0
    assert "attempted" not in entry["items_per_s"]


def test_first_seed_numbers_the_pairs_and_is_recorded(monkeypatch, tmp_path):
    bench = {
        "command": ["true"],
        "run_seconds": 1,
        "end_to_end": [{"name": "items_per_s", "better": "higher"}],
    }
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(bench))
    calls = []

    def run_once(command, tree, workload, seed, seconds):
        calls.append((workload, seed, tree))
        return {"correct": True, "attempted": 1, "failed": 0, "metrics": {"items_per_s": 1.0}}

    monkeypatch.setattr(bench_pair, "ROOT", str(tmp_path))
    monkeypatch.setattr(bench_pair, "revision", lambda rev: f"sha-of-{rev}")
    monkeypatch.setattr(bench_pair, "export", lambda rev, dest: (f"sha-of-{rev}", "base-tree"))
    monkeypatch.setattr(bench_pair, "run_once", run_once)

    assert bench_pair.parse_args(["--pr", "x"]).first_seed == bench_pair.FIRST_SEED == 6001
    bench_pair.main(["--pr", "t", "--pairs", "w=3", "--first-seed", "77"])
    # one run per side and pair, alternating which side goes first
    assert calls == [
        ("w", 77, "base-tree"), ("w", 77, str(tmp_path)),
        ("w", 78, str(tmp_path)), ("w", 78, "base-tree"),
        ("w", 79, "base-tree"), ("w", 79, str(tmp_path)),
    ]
    out = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert out["first_seed"] == 77
    assert [r["seed"] for r in out["runs"]] == [77, 77, 78, 78, 79, 79]
    assert out["base"] == "sha-of-HEAD" and out["change"] == "working tree on sha-of-HEAD"
