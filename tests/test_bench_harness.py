"""The benchmark harness's warn-only perf-regression gate."""

import importlib.util
import json
import os

import pytest

_HARNESS_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks", "_harness.py")
_spec = importlib.util.spec_from_file_location("bench_harness", _HARNESS_PATH)
harness = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(harness)


def _payload(name, median, samples=None):
    return {
        "bench": name,
        "wall_seconds": {"median": median,
                         "samples": samples or [median],
                         "p95": median, "min": median, "max": median,
                         "repeats": 1, "warmup": 0},
        "workload": {},
        "peak_rss_mib": 100.0,
        "python": "3.11.0",
        "platform": "test",
    }


def _write(directory, payload):
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"BENCH_{payload['bench']}.json")
    with open(path, "w") as handle:
        json.dump(payload, handle)
    return path


def test_measure_pins_median_and_p95(monkeypatch):
    """median/p95 come from repro.metrics.stats.percentile (linear
    interpolation between order statistics)."""
    ticks = iter([0.0, 1.0,  10.0, 12.0,  20.0, 24.0,  30.0, 33.0])
    monkeypatch.setattr(harness.time, "perf_counter", lambda: next(ticks))
    timing = harness.measure(lambda: "done", repeats=4)
    assert timing["samples"] == [1.0, 2.0, 4.0, 3.0]
    assert timing["median"] == 2.5
    assert timing["p95"] == pytest.approx(3.85)
    assert (timing["min"], timing["max"]) == (1.0, 4.0)
    assert timing["result"] == "done"
    ticks = iter([0.0, 0.5])
    single = harness.measure(lambda: None)
    assert single["median"] == single["p95"] == 0.5


def test_compare_bench_flags_regressions_only():
    base = _payload("x", 1.0)
    assert harness.compare_bench(base, _payload("x", 1.30))["flag"] == "WARN"
    ok = harness.compare_bench(base, _payload("x", 1.20))
    assert ok["flag"] == "ok" and ok["delta"] == pytest.approx(0.20)
    # Improvements are never flagged.
    assert harness.compare_bench(base, _payload("x", 0.5))["flag"] == "ok"
    # Nothing to compare: no baseline, or baseline == fresh.
    assert harness.compare_bench(None, _payload("x", 1.0)) is None
    assert harness.compare_bench(base, base) is None


def test_compare_bench_honors_threshold():
    base = _payload("x", 1.0)
    row = harness.compare_bench(base, _payload("x", 1.1), threshold=0.05)
    assert row["flag"] == "WARN"


def test_diff_baselines_walks_fresh_dir(tmp_path):
    baseline_dir = str(tmp_path / "baseline")
    fresh_dir = str(tmp_path / "fresh")
    _write(baseline_dir, _payload("fast", 1.0))
    _write(fresh_dir, _payload("fast", 2.0))       # 100% slower: WARN
    _write(fresh_dir, _payload("added", 0.5))      # no baseline: new
    (tmp_path / "fresh" / "notes.txt").write_text("ignored")
    rows = harness.diff_baselines(fresh_dir, baseline_dir)
    by_bench = {row["bench"]: row for row in rows}
    assert by_bench["fast"]["flag"] == "WARN"
    assert by_bench["fast"]["delta"] == pytest.approx(1.0)
    assert by_bench["added"]["flag"] == "new"
    assert by_bench["added"]["delta"] is None
    table = harness.format_delta_table(rows)
    assert "WARN" in table and "new" in table and "+100.0%" in table


def test_main_is_warn_only(tmp_path, capsys):
    baseline_dir = str(tmp_path / "baseline")
    fresh_dir = str(tmp_path / "fresh")
    _write(baseline_dir, _payload("slow", 1.0))
    _write(fresh_dir, _payload("slow", 9.0))
    assert harness.main(["--fresh", fresh_dir, "--baseline",
                         baseline_dir]) == 0
    out = capsys.readouterr().out
    assert "WARN" in out and "regressed beyond 25%" in out
    # Empty fresh dirs are fine too.
    empty = str(tmp_path / "empty")
    os.makedirs(empty)
    assert harness.main(["--fresh", empty]) == 0
    assert "no fresh BENCH_" in capsys.readouterr().out


def test_emit_bench_respects_repro_bench_dir(tmp_path, monkeypatch):
    out_dir = str(tmp_path / "redirect")
    monkeypatch.setenv("REPRO_BENCH_DIR", out_dir)
    timing = harness.measure(lambda: None, repeats=1)
    path = harness.emit_bench("redirect_probe", timing)
    assert path == os.path.join(out_dir, "BENCH_redirect_probe.json")
    assert harness.load_bench(path)["bench"] == "redirect_probe"
