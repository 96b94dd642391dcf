"""Shared measurement harness for the perf benchmarks.

pytest-benchmark gives nice terminal tables, but the numbers the repo
tracks over time live in ``benchmarks/output/BENCH_<name>.json``: a
small, stable schema (wall-clock samples + median/p95, workload
counters, peak RSS) that CI uploads as an artifact and humans diff
across commits.  docs/usage.md ("Reading BENCH_*.json") documents the
schema.

Usage::

    from benchmarks._harness import measure, emit_bench

    timing = measure(run_workload, warmup=1, repeats=3)
    emit_bench("scale", timing, workload={"vswitches": 504, ...})

``measure`` returns a dict with the raw samples and the derived stats;
``emit_bench`` merges in workload metadata and writes the JSON.

**Regression gate** (warn-only): the committed files under
``benchmarks/output/`` are the baselines.  ``emit_bench`` compares each
fresh result against the baseline it is about to replace and prints a
one-line delta; ``python benchmarks/_harness.py --fresh DIR`` diffs a
whole directory of fresh ``BENCH_*.json`` against the baselines and
prints the delta table (median wall regressions beyond the threshold,
default 25%, are flagged ``WARN``).  The exit code is always 0 —
shared CI runners are too noisy for a blocking gate; the table is the
signal.  Set ``REPRO_BENCH_DIR`` to write fresh results somewhere other
than the committed baseline directory (what the CI perf-smoke job does
before diffing).
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
from typing import Any, Callable, Dict, List, Optional

from repro.metrics.stats import percentile

OUTPUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "output")

#: Median wall-time regressions beyond this fraction get a WARN flag.
REGRESSION_THRESHOLD = 0.25


def peak_rss_mib() -> float:
    """Peak resident set size of this process, in MiB.

    ``ru_maxrss`` is KiB on Linux and bytes on macOS; normalize both.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0


def measure(
    fn: Callable[[], Any],
    warmup: int = 0,
    repeats: int = 1,
) -> Dict[str, Any]:
    """Time ``fn`` with optional warmup runs.

    Returns ``{"samples": [...], "median": s, "p95": s, "min": s,
    "max": s, "repeats": n, "warmup": n, "result": last_return}``.
    The last run's return value is kept so callers can pull workload
    counters out of it without running the workload twice.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    for _ in range(warmup):
        fn()
    samples: List[float] = []
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - start)
    return {
        "samples": [round(s, 6) for s in samples],
        "median": round(percentile(samples, 50.0), 6),
        "p95": round(percentile(samples, 95.0), 6),
        "min": round(min(samples), 6),
        "max": round(max(samples), 6),
        "repeats": repeats,
        "warmup": warmup,
        "result": result,
    }


def emit_bench(
    name: str,
    timing: Dict[str, Any],
    workload: Optional[Dict[str, Any]] = None,
    path: Optional[str] = None,
) -> str:
    """Write ``BENCH_<name>.json`` under benchmarks/output/ (or ``path``).

    The emitted schema::

        {
          "bench": "<name>",
          "wall_seconds": {samples, median, p95, min, max, repeats, warmup},
          "workload": {...counters the benchmark chose to record...},
          "peak_rss_mib": ...,
          "python": "3.11.x", "platform": "Linux-..."
        }
    """
    wall = {k: v for k, v in timing.items() if k != "result"}
    payload = {
        "bench": name,
        "wall_seconds": wall,
        "workload": workload or {},
        "peak_rss_mib": round(peak_rss_mib(), 1),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    if path is None:
        out_dir = os.environ.get("REPRO_BENCH_DIR") or OUTPUT_DIR
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"BENCH_{name}.json")
    baseline = load_bench(os.path.join(OUTPUT_DIR, f"BENCH_{name}.json"))
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    delta = compare_bench(baseline, payload)
    if delta is not None:
        print(format_delta_table([delta]))
    return path


# ----------------------------------------------------------------------
# Baseline regression diffing (warn-only)
# ----------------------------------------------------------------------
def load_bench(path: str) -> Optional[Dict[str, Any]]:
    """A BENCH_*.json payload, or None (missing/unparseable)."""
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def compare_bench(
    baseline: Optional[Dict[str, Any]],
    fresh: Dict[str, Any],
    threshold: float = REGRESSION_THRESHOLD,
) -> Optional[Dict[str, Any]]:
    """One delta row: fresh vs committed baseline medians.

    Returns None when there is nothing to compare against (no baseline,
    or the baseline file *is* the fresh result).  ``delta`` is the
    fractional median wall change (+0.30 = 30% slower); ``flag`` is
    ``"WARN"`` past the threshold, ``"ok"`` otherwise (improvements
    are never flagged).
    """
    if baseline is None or baseline == fresh:
        return None
    base_median = baseline.get("wall_seconds", {}).get("median")
    fresh_median = fresh.get("wall_seconds", {}).get("median")
    if not base_median or fresh_median is None:
        return None
    delta = (fresh_median - base_median) / base_median
    return {
        "bench": fresh.get("bench", "?"),
        "baseline_median": base_median,
        "fresh_median": fresh_median,
        "delta": round(delta, 4),
        "flag": "WARN" if delta > threshold else "ok",
    }


def diff_baselines(
    fresh_dir: str,
    baseline_dir: str = OUTPUT_DIR,
    threshold: float = REGRESSION_THRESHOLD,
) -> List[Dict[str, Any]]:
    """Delta rows for every ``BENCH_*.json`` under ``fresh_dir``.

    Fresh results without a committed baseline appear with ``flag``
    ``"new"`` so additions are visible too.
    """
    rows: List[Dict[str, Any]] = []
    for name in sorted(os.listdir(fresh_dir)):
        if not (name.startswith("BENCH_") and name.endswith(".json")):
            continue
        fresh = load_bench(os.path.join(fresh_dir, name))
        if fresh is None:
            continue
        baseline = load_bench(os.path.join(baseline_dir, name))
        row = compare_bench(baseline, fresh, threshold)
        if row is None:
            rows.append({
                "bench": fresh.get("bench", name),
                "baseline_median": None,
                "fresh_median": fresh.get("wall_seconds", {}).get("median"),
                "delta": None,
                "flag": "new" if baseline is None else "ok",
            })
        else:
            rows.append(row)
    return rows


def format_delta_table(rows: List[Dict[str, Any]]) -> str:
    """The warn-only regression table CI prints."""
    if not rows:
        return "perf delta: no fresh BENCH_*.json to compare"
    lines = [f"{'bench':<12} {'baseline':>10} {'fresh':>10} "
             f"{'delta':>8}  flag"]
    for row in rows:
        base = ("-" if row["baseline_median"] is None
                else f"{row['baseline_median']:.3f}s")
        fresh = ("-" if row["fresh_median"] is None
                 else f"{row['fresh_median']:.3f}s")
        delta = ("-" if row["delta"] is None
                 else f"{row['delta']:+.1%}")
        lines.append(f"{row['bench']:<12} {base:>10} {fresh:>10} "
                     f"{delta:>8}  {row['flag']}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """``python benchmarks/_harness.py --fresh DIR [--baseline DIR]``:
    print the regression delta table.  Always exits 0 (warn-only)."""
    import argparse

    parser = argparse.ArgumentParser(
        description="diff fresh BENCH_*.json against committed baselines")
    parser.add_argument("--fresh", default=OUTPUT_DIR,
                        help="directory of freshly generated BENCH_*.json "
                             "(default: the committed baseline dir, which "
                             "compares nothing)")
    parser.add_argument("--baseline", default=OUTPUT_DIR,
                        help="committed baseline directory")
    parser.add_argument("--threshold", type=float,
                        default=REGRESSION_THRESHOLD,
                        help="median wall regression fraction that flags "
                             "WARN (default 0.25)")
    args = parser.parse_args(argv)
    rows = diff_baselines(args.fresh, args.baseline, args.threshold)
    print(format_delta_table(rows))
    warned = [row["bench"] for row in rows if row["flag"] == "WARN"]
    if warned:
        print(f"perf delta: {len(warned)} bench(es) regressed beyond "
              f"{args.threshold:.0%}: {', '.join(warned)} (warn-only)")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    sys.exit(main())
