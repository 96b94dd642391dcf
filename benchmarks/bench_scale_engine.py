"""Scale engine benchmark — flash crowd over a 500+-vSwitch overlay.

This is the engine's macro benchmark (ROADMAP: open ever-larger
workloads): it builds the `repro.testbed.scale` topology — a moderate
fully-meshed overlay core fronting hundreds of host vSwitches — drives
the flash-crowd load through it, and emits ``BENCH_scale.json``
(events/sec, wall time per phase, peak RSS) via the shared harness so
the perf trajectory is tracked commit over commit.

Size is selectable for CI: ``REPRO_SCALE_SIZE=ci`` runs the reduced
topology (same shape, ~6× fewer vSwitches) that the non-blocking
perf-smoke job uses; the default is the full 504-vSwitch run.
"""

import os

from _harness import emit_bench, measure

from repro.faults import format_report, run

SIZES = {
    "full": dict(host_vswitches=480, mesh=24, tors=8, targets=16,
                 duration=5.0, base_rate_fps=20.0, crowd_multiplier=10.0),
    "ci": dict(host_vswitches=72, mesh=8, tors=4, targets=8,
               duration=3.0, base_rate_fps=20.0, crowd_multiplier=10.0),
}


def test_scale_engine(emit):
    size = os.environ.get("REPRO_SCALE_SIZE", "full")
    params = SIZES[size]
    timing = measure(lambda: run("scale", seed=1, **params), warmup=0, repeats=1)
    result = timing["result"]

    emit_bench("scale", timing, workload={
        "size": size,
        "vswitches": result.vswitches,
        "mesh": result.mesh,
        "host_vswitches": result.host_vswitches,
        "tunnels": result.tunnels,
        "targets": result.targets,
        "sim_duration": result.duration,
        "flows_started": result.flows_started,
        "build_wall_seconds": round(result.build_wall, 3),
        "run_wall_seconds": round(result.run_wall, 3),
        "run_events": result.run_events,
        "events_per_sec": round(result.events_per_sec, 1),
        "client_failure": result.client_failure,
        "edge_punts": result.edge_punts,
    })
    emit("scale_engine", format_report(result))

    if size == "full":
        # The tentpole acceptance shape: a >= 500-vSwitch overlay run.
        assert result.vswitches >= 500
    # The crowd must actually flow (engine under real load, not idle
    # daemon ticks) and the overlay must keep clients whole.
    assert result.flows_started > 1000
    assert result.client_failure < 0.05
    assert result.events_per_sec > 0
