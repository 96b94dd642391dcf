"""The repo's benchmark: four workloads, every metric by name and unit.

    python benchmarks/e2e/run.py [--workload NAME] [--seed 1] [--out DIR]
    python benchmarks/e2e/run.py --selfcheck
    python benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

(or ``PYTHONPATH=src python -m benchmarks.e2e.run`` from the repo root).
The first form reports the end-to-end and the per-layer metrics of every
workload and, with ``--out``, writes ``trace_<workload>.json``.  The
last form is the one ``BENCHMARK.json`` names: ``--trace 0`` measures
the end-to-end metrics only, ``--trace 1`` the per-layer metrics only,
and the last line of output is one JSON object with the result.  Every
form checks the outputs and exits non-zero when a check fails.

Each workload is measured in a fresh child process with
``PYTHONHASHSEED=0``; see README.md beside this file for the metric and
workload definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List, Optional

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(os.path.dirname(_HERE))
# Runnable as a plain script from a checkout: the package under test
# lives in src/, this package under the repo root.
for _path in (os.path.join(_ROOT, "src"), _ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.e2e.metrics import END_TO_END, PER_LAYER, Metric  # noqa: E402

#: Share of the reference sizes in ``workloads.py`` that one repeat
#: simulates.  0.5 keeps a repeat near 1-1.5 s on the 2-core reference
#: box, so a run of BENCHMARK.json's ``run_seconds`` holds ~17 of them.
DEFAULT_SCALE = 0.5
#: A child gets this long before it is killed (the driver allows 180 s).
CHILD_TIMEOUT_S = 170
#: ``--selfcheck`` lets two set-up times differ by this much whatever
#: their ratio: three of the four set-ups take a few milliseconds.
SETUP_FLOOR_S = 0.02


def load_contract() -> Dict[str, object]:
    with open(os.path.join(_ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Child side
# ----------------------------------------------------------------------
def child_main(args: argparse.Namespace) -> int:
    from benchmarks.e2e.measure import measure

    result = measure(args.workload, args.seed, args.scale, args.seconds,
                     timed=args.trace != 1, traced=args.trace != 0)
    json.dump(result, sys.stdout)
    return 0


def run_child(workload: str, args: argparse.Namespace) -> Dict[str, object]:
    """Measure ``workload`` in a fresh interpreter and return its result."""
    command = [sys.executable, os.path.abspath(__file__), "--child",
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--scale", str(args.scale)]
    if args.trace is not None:
        command += ["--trace", str(args.trace)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                          timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(done.stdout)


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
def _null_reason(metric: Metric, result: Dict[str, object]) -> str:
    if metric.only_on is not None and result["workload"] not in metric.only_on:
        return f"not defined for {result['workload']}"
    samples = result["figures"]["latency_samples"]
    return f"needs >= 1000 samples, has {samples}"


def _bound_text(metric: Metric, bounds: Dict[str, float]) -> str:
    if metric.exact:
        return "exact"
    bound = bounds.get(metric.name)
    return f"{bound:.0%}" if bound is not None else "none"


def print_report(result: Dict[str, object], bounds: Dict[str, float]) -> None:
    print(f"== {result['workload']}  seed {result['seed']}  "
          f"scale {result['scale']}")
    print(f"   op: {result['op']}")
    print(f"   attempted {result['attempted']}  completed "
          f"{result['completed']}  timed repeats "
          f"{result['samples']['run_wall_s']['n']}  discarded_runs "
          f"{result['discarded_runs']}")
    for key, value in result["figures"].items():
        if key in ("flows", "short_flows", "elephant_truth",
                   "failover_windows", "latency_samples") and value is not None:
            print(f"   {key} {value}")
    for name, stats in result["samples"].items():
        print(f"   {name:<15} n={stats['n']}  min {stats['min']:.4f}  "
              f"q1 {stats['q1']:.4f}  median {stats['median']:.4f}  "
              f"q3 {stats['q3']:.4f}  max {stats['max']:.4f}")
    header = f"   {'metric':<36}{'value':>16}  {'unit':<9}{'better':<8}bound"
    for title, metrics, values in (
            ("end-to-end", END_TO_END, result.get("end_to_end")),
            ("per-layer", PER_LAYER, result.get("per_layer"))):
        if values is None:
            continue
        print(f"   -- {title}")
        print(header)
        for metric in metrics:
            value = values[metric.name]
            if value is None:
                print(f"   {metric.name:<36}{'null':>16}  "
                      f"({_null_reason(metric, result)})")
                continue
            print(f"   {metric.name:<36}{value:>16.6g}  {metric.unit:<9}"
                  f"{metric.better:<8}{_bound_text(metric, bounds)}")
    for failure in result["checks_failed"]:
        print(f"   CHECK FAILED: {failure}")


def machine_line(result: Dict[str, object], contract: Dict[str, object],
                 trace: int) -> str:
    """The result line the benchmark contract asks for.

    ``failed`` counts what the *simulator* got wrong — output checks
    that did not hold — not flows the modelled network dropped: those
    are the model's output and are reported as ``delivered_frac``."""
    section, values = (("per_layer", result["per_layer"]) if trace
                       else ("end_to_end", result["end_to_end"]))
    metrics = {
        entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
        for entry in contract[section]
    }
    failed = len(result["checks_failed"])
    return json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": metrics,
    })


def write_trace(out_dir: str, result: Dict[str, object]) -> None:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace_{result['workload']}.json")
    payload = {key: result[key] for key in ("workload", "seed", "scale", "op")}
    payload.update(result["trace"])
    payload["per_layer"] = result["per_layer"]
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"   wrote {path}")


# ----------------------------------------------------------------------
# Selfcheck
# ----------------------------------------------------------------------
def selfcheck(args: argparse.Namespace, names: List[str],
              bounds: Dict[str, float]) -> int:
    """Run everything twice; exact metrics must repeat bit for bit,
    timed ones within their bound."""
    disagreements = 0
    for name in names:
        first, second = run_child(name, args), run_child(name, args)
        disagreements += len(first["checks_failed"] + second["checks_failed"])
        print(f"== {name}  seed {args.seed}  scale {args.scale}")
        print(f"   {'metric':<28}{'first':>14}{'second':>14}{'diff':>12}"
              f"  bound")
        for metric in END_TO_END:
            a = first["end_to_end"][metric.name]
            b = second["end_to_end"][metric.name]
            if a is None and b is None:
                continue
            if metric.exact:
                agree, diff, bound = a == b, f"{b - a:.3g}", "exact"
            else:
                relative = abs(b - a) / a
                agree = relative <= bounds[metric.name] or (
                    metric.name == "setup_s" and abs(b - a) <= SETUP_FLOOR_S)
                diff, bound = f"{relative:.1%}", f"{bounds[metric.name]:.0%}"
            verdict = "" if agree else "  DISAGREE"
            disagreements += not agree
            print(f"   {metric.name:<28}{a:>14.6g}{b:>14.6g}{diff:>12}"
                  f"  {bound}{verdict}")
        moved = [m.name for m in PER_LAYER if m.exact
                 and first["per_layer"][m.name] != second["per_layer"][m.name]]
        disagreements += len(moved)
        print(f"   exact per-layer metrics that differ: "
              f"{', '.join(moved) if moved else 'none'}")
    print(f"selfcheck: {disagreements} disagreement(s)")
    return 1 if disagreements else 0


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="time budget of the timed repeats of one "
                             "workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics only, 1: per-layer "
                             "metrics only; prints the result line last")
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE,
                        help="share of the reference simulated durations")
    parser.add_argument("--out", help="directory for trace_<workload>.json")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run twice and compare against the bounds")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.scale <= 0:
        parser.error("--scale must be positive")
    if args.trace is not None and args.workload is None:
        parser.error("--trace needs --workload")

    if args.child:
        return child_main(args)

    contract = load_contract()
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])
    names = [entry["name"] for entry in contract["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; one of {names}")
        names = [args.workload]
    bounds = {entry["name"]: entry["bound"] for entry in contract["end_to_end"]}
    if args.selfcheck:
        args.trace = None
        return selfcheck(args, names, bounds)

    failed = 0
    line = None
    for name in names:
        result = run_child(name, args)
        print_report(result, bounds)
        if args.out and "trace" in result:
            write_trace(args.out, result)
        failed += len(result["checks_failed"])
        if args.trace is not None:
            line = machine_line(result, contract, args.trace)
    if line is not None:
        print(line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
