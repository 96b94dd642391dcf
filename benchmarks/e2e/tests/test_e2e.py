"""The benchmark's own checks: layer map, names, contract, smoke run.

    python -m pytest benchmarks/e2e/tests -q
"""

import json
import os
import re
import subprocess
import sys
import time

import pytest

import repro
from benchmarks.e2e import run as runner
from benchmarks.e2e.layers import LAYERS, layer_of_module
from benchmarks.e2e.metrics import END_TO_END, P99_MIN_SAMPLES, PER_LAYER
from benchmarks.e2e.workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
RUN_PY = os.path.abspath(runner.__file__)


@pytest.fixture(scope="module")
def contract():
    return runner.load_contract()


def test_every_source_file_has_exactly_one_named_layer():
    package = os.path.dirname(os.path.abspath(repro.__file__))
    seen = 0
    for directory, _, files in os.walk(package):
        for filename in files:
            if not filename.endswith(".py"):
                continue
            relative = os.path.relpath(
                os.path.join(directory, filename), package)
            # KeyError here = a new package: name its layer in layers.py.
            assert layer_of_module(relative) in LAYERS, relative
            seen += 1
    assert seen > 90


def test_names_and_units_are_well_formed(contract):
    names = [m.name for m in END_TO_END + PER_LAYER] + list(WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in END_TO_END + PER_LAYER:
        assert UNIT.fullmatch(metric.unit), metric
        assert metric.better in ("lower", "higher"), metric


def test_contract_declares_what_the_runner_measures(contract):
    assert sorted(contract) == ["command", "end_to_end", "paths",
                                "per_layer", "run_seconds", "workloads"]
    assert contract["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    for workload in contract["workloads"]:
        assert sorted(workload) == ["name", "why"]
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]

    def declared(section):
        return [(m["name"], m["unit"], m["better"])
                for m in contract[section]]

    assert declared("end_to_end") == [
        (m.name, m.unit, m.better) for m in END_TO_END if m.in_contract]
    assert declared("per_layer") == [
        (m.name, m.unit, m.better) for m in PER_LAYER]
    setup = contract["end_to_end"][0]
    assert (setup["name"], setup["unit"], setup["better"]) == (
        "setup_s", "s", "lower")
    bounds = [m["bound"] for m in contract["end_to_end"]]
    assert all(0 < bound <= 0.25 for bound in bounds)
    assert setup["bound"] == max(bounds)
    # 4 + 22 runs per workload, each --seconds plus warm-up and start-up.
    runs = 4 + 22 * len(contract["workloads"])
    assert runs * (contract["run_seconds"] + 8) < 3420


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_slicing_the_run_leaves_the_simulation_unchanged(name):
    """The timed repeats pause between slices of simulated time to
    calibrate; one uninterrupted ``sim.run`` must give the same run."""
    def figures(sliced):
        workload = WORKLOADS[name](seed=5, scale=0.1)
        if sliced:
            workload.run()
        else:
            workload.sim.run(until=workload.until)
            if workload.checker is not None:
                workload.checker.check_now()
        return workload.exact(workload.sim.events_fired)

    assert figures(sliced=True) == figures(sliced=False)


def _run(*arguments, timeout=120):
    return subprocess.run(
        [sys.executable, RUN_PY, *arguments], stdout=subprocess.PIPE,
        text=True, timeout=timeout)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """All four workloads at a tenth of the reference durations."""
    out = tmp_path_factory.mktemp("e2e")
    start = time.perf_counter()
    done = _run("--scale", "0.1", "--seconds", "0.5", "--out", str(out))
    return done, time.perf_counter() - start, out


def test_smoke_passes_the_output_checks_in_time(smoke):
    done, elapsed, _ = smoke
    assert done.returncode == 0, done.stdout
    assert "CHECK FAILED" not in done.stdout
    assert elapsed < 30


def test_smoke_prints_every_metric_for_every_workload(smoke):
    done, _, _ = smoke
    blocks = done.stdout.split("== ")[1:]
    assert [block.split()[0] for block in blocks] == list(WORKLOADS)
    for block in blocks:
        workload = block.split()[0]
        rows = {line.split()[0]: line.split()
                for line in block.splitlines()[1:] if line.strip()}
        for metric in END_TO_END + PER_LAYER:
            row = rows[metric.name]
            if row[1] != "null":
                float(row[1])
                assert row[2] == metric.unit
                continue
            # A null carries its reason, and only two reasons exist.
            assert not metric.in_contract
            if metric.only_on and workload not in metric.only_on:
                assert "not defined for" in " ".join(row)
            else:
                assert metric.name == "setup_latency_p99_ms"
                assert int(rows["latency_samples"][1]) < P99_MIN_SAMPLES


def test_smoke_traces_separate_the_layers(smoke):
    _, _, out = smoke
    for workload in WORKLOADS:
        with open(out / f"trace_{workload}.json") as handle:
            trace = json.load(handle)
        assert set(LAYERS) < set(trace["layers"])
        assert trace["edges"] and all(
            edge["calls"] > 0 and edge["from"] != edge["to"]
            for edge in trace["edges"])
        layers = trace["per_layer"]
        share = sum(layers[f"{layer}.self_frac"] for layer in LAYERS)
        assert share == pytest.approx(1.0, abs=0.01)
        calls = sum(layers[f"{layer}.py_calls_per_op"] for layer in LAYERS)
        assert calls == pytest.approx(layers["total.py_calls_per_op"])
        on_pool = workload == "pool_failover"
        assert (layers["cluster.py_calls_per_op"] > 0) == on_pool
        for layer in ("net", "switch.flow_table", "core"):
            # Building a PacketIn touches net.packet; nothing forwards.
            assert (layers[f"{layer}.py_calls_per_op"] < 3) == on_pool, layer


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_result_line_matches_the_contract(contract, trace, section):
    done = _run("--workload", "pool_failover", "--seed", "3", "--scale",
                "0.1", "--seconds", "0.5", "--trace", str(trace))
    assert done.returncode == 0, done.stdout
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and line["failed"] == 0
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    assert list(line["metrics"]) == [m["name"] for m in contract[section]]
    for declared in contract[section]:
        entry = line["metrics"][declared["name"]]
        assert sorted(entry) == ["unit", "value"]
        assert entry["unit"] == declared["unit"]
        assert isinstance(entry["value"], (int, float))
        if section == "end_to_end":
            assert entry["value"] > 0


def test_a_failed_check_fails_the_run(monkeypatch):
    result = {"checks_failed": ["repeat 1: faults.violations = 1"]}
    monkeypatch.setattr(runner, "run_child", lambda name, args: result)
    monkeypatch.setattr(runner, "print_report", lambda *a: None)
    assert runner.main(["--workload", "pool_failover"]) == 1
