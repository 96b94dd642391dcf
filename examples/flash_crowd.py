#!/usr/bin/env python3
"""Flash crowd: Scotch absorbing a legitimate traffic surge.

The paper stresses that control-path overload is not only an attack
phenomenon — flash crowds cause the same collapse ("this blocking of
legitimate traffic can occur whenever the control plane is overloaded,
e.g., under DDoS attacks or due to flash crowds").  This example replays
a heavy-tailed synthetic trace whose arrival rate surges 12x mid-run
(everything legitimate, flows with real sizes) and compares vanilla
reactive forwarding against Scotch on flow failure and completion time.

Run:  python examples/flash_crowd.py
"""

from repro.testbed.experiments import fig15_run
from repro.obs.report import format_table


def main() -> None:
    print("Replaying a 20 s heavy-tailed trace; arrivals surge 12x "
          "between t=5 s and t=15 s.\n")
    results = []
    for scheme in ("vanilla", "scotch"):
        print(f"running {scheme} ...")
        results.append(fig15_run(scheme))
    print()
    print(format_table(
        ["scheme", "flows", "failed", "mean FCT (s)", "p99 FCT (s)"],
        [
            [r.scheme, r.flows_measured, f"{r.failure_fraction:.1%}",
             r.mean_fct, r.p99_fct]
            for r in results
        ],
        title="Flash crowd: application-level outcome",
    ))
    vanilla, scotch = results
    saved = (vanilla.failure_fraction - scotch.failure_fraction) * vanilla.flows_measured
    print(f"\nScotch saved roughly {saved:.0f} flows that the vanilla "
          f"control plane would have blocked.")


if __name__ == "__main__":
    main()
