"""Chaos soak: the full fault gauntlet must end in a healthy system.

Acceptance criteria from docs/robustness.md:

* every fault class injects (channel loss, flap, vSwitch crash+restart,
  OFA stall, controller outage with standby resync);
* zero invariant violations over the whole run;
* post-recovery client flow failure below 5 %;
* the fault log is byte-identical across same-seed runs; and
* with fault injection disabled, a run is bit-identical to one where
  the faults package was never imported.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.faults import run

pytestmark = [pytest.mark.slow, pytest.mark.chaos]

SOAK_SEEDS = (1, 2, 3)


@pytest.fixture(scope="module")
def reports(chaos_report):
    return {seed: chaos_report(seed) for seed in SOAK_SEEDS}


@pytest.mark.parametrize("seed", SOAK_SEEDS)
def test_every_fault_class_injected(reports, seed):
    report = reports[seed]
    assert set(report.fault_counts) == {
        "channel_loss", "channel_flap", "vswitch_crash",
        "ofa_stall", "controller_outage",
    }
    assert report.faults_injected >= 5
    # The impaired channel actually dropped traffic and the crash/outage
    # actually exercised detection + resync.
    assert report.channel_drops > 0
    assert report.failures_detected >= 1
    assert report.recoveries_detected >= 1
    assert report.resyncs == 1


@pytest.mark.parametrize("seed", SOAK_SEEDS)
def test_soak_ends_healthy(reports, seed):
    report = reports[seed]
    assert report.violations == []
    assert report.invariant_checks > 20
    # The gauntlet must actually hurt while it is running, and the
    # system must self-heal to near-zero client impact.
    assert report.failure_during_faults > report.failure_post_recovery
    assert report.failure_post_recovery < 0.05
    assert report.flows_started > 0
    assert report.healthy


@pytest.mark.parametrize("seed", SOAK_SEEDS)
def test_reliable_layer_survived_the_gauntlet(reports, seed):
    reliable = reports[seed].reliable
    assert reliable["sent"] > 0
    assert reliable["acked"] > 0
    # Nothing fell off the end of the retry budget during recovery.
    assert reliable["abandoned"] == 0


def test_same_seed_runs_are_byte_identical(reports):
    first = reports[SOAK_SEEDS[0]]
    again = run("chaos", seed=SOAK_SEEDS[0])
    assert again.fault_log_jsonl == first.fault_log_jsonl
    assert again.failure_during_faults == first.failure_during_faults
    assert again.failure_post_recovery == first.failure_post_recovery
    assert again.reliable == first.reliable


def test_different_seeds_diverge(reports):
    # The plan is scripted (same fault times), but traffic and hashing
    # differ per seed, so the measured outcomes must not be identical.
    fractions = {reports[s].failure_during_faults for s in SOAK_SEEDS}
    assert len(fractions) > 1


_PROBE = """\
{imports}
from repro.testbed.deployment import build_deployment
from repro.traffic import SpoofedFlood

dep = build_deployment(seed=7, racks=2, mesh_per_rack=1, backups=1)
flood = SpoofedFlood(dep.sim, dep.attacker, dep.servers[0].ip, rate_fps=2000.0)
flood.start(at=0.5, stop_at=8.0)
dep.sim.run(until=10.0)
print(dep.edge.ofa.packet_ins_sent,
      dep.scotch.heartbeat.failures_detected,
      dep.servers[0].recv_tap.total_packets,
      len(dep.servers[0].recv_tap.records),
      dep.edge.channel.to_switch_count,
      dep.edge.channel.to_controller_count)
"""


def _probe_output(imports: str) -> str:
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-c", _PROBE.format(imports=imports)],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(src), "PYTHONHASHSEED": "0"},
    )
    return result.stdout


def test_faults_package_import_is_bit_identical():
    """Importing (but not using) repro.faults must not perturb a run:
    the chaos layer draws randomness only once it is actually engaged."""
    baseline = _probe_output("")
    with_faults = _probe_output("import repro.faults")
    assert with_faults == baseline
