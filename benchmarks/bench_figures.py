"""Every reproduced figure and ablation, regenerated at full scale.

``repro.testbed.experiments.FIGURES`` describes each table once (sweep,
runner, columns, title); this bench runs each entry's full sweep, writes
``benchmarks/output/<name>.txt`` and applies that figure's shape check —
the paper's qualitative claim, quoted in the check's docstring.  Pick
one with ``-k <name>`` (``-k fig13``, ``-k ablation_lb``).

The tables are seed-deterministic: a run that changes a committed
``.txt`` is a behaviour change.  Nothing here is timed — every timing
is ``benchmarks/e2e``'s job.
"""

import pytest

from repro.obs.metrics import mean
from repro.testbed.experiments import FIG3_PROFILES, FIGURES


def check_fig3(results):
    """Fig. 3 — client flow failure fraction vs. attacking flow rate.

    Paper: all three switches suffer rising client-flow failure as the
    attack rate grows from 100 to 3800 flows/sec; the two hardware
    switches (Pica8 worst, HP Procurve better) fail far more than Open
    vSwitch, whose software agent has an order of magnitude more
    control-path capacity.
    """
    curves = dict(zip((p.name for p in FIG3_PROFILES), zip(*results.values())))
    for curve in curves.values():
        assert curve[-1] >= curve[0]
    assert curves["Pica8 Pronto 3780"][-1] > 0.9
    assert curves["HP Procurve 6600"][-1] > 0.8
    assert curves["Open vSwitch (Xeon E5-1650)"][-1] < 0.1


def check_fig4(results):
    """Fig. 4 — control-path profiling at the Pica8 switch.

    Paper: the Packet-In message rate, the flow-rule insertion rate and
    the successful flow rate are *identical* across the new-flow-rate
    sweep, identifying the OFA's Packet-In generation as the
    control-path bottleneck (all three clamp at its capacity).
    """
    for point in results.values():
        # The three observed rates are identical (within sampling noise)...
        assert abs(point.packet_in_rate - point.rule_insertion_rate) <= 0.05 * max(
            1.0, point.packet_in_rate
        )
        assert abs(point.packet_in_rate - point.successful_flow_rate) <= 0.08 * max(
            1.0, point.packet_in_rate
        )
        # ... and never exceed the OFA's Packet-In capacity.
        assert point.packet_in_rate <= 200 * 1.05


def check_fig9(results):
    """Fig. 9 — maximum flow-rule insertion rate at the Pica8 switch.

    Paper: insertions are lossless up to 200 rules/s; beyond that some
    rule requests are not installed, and the successful insertion rate
    flattens out at about 1000 rules/s.
    """
    # Lossless region.
    assert results[100] > 95 and results[200] > 190
    # Lossy beyond 200.
    assert results[800] < 800 * 0.95
    # Plateau near 1000.
    assert 850 < results[4000] < 1050
    # Monotone non-decreasing.
    assert list(results.values()) == sorted(results.values())


def check_fig10(results):
    """Fig. 10 — interaction of the data path and the control path (Pica8).

    Paper: with data flows at 500/1000/2000 packets/s, the data-path
    loss ratio exhibits a turning point at a rule-insertion rate of
    ~1300 rules/s, beyond which loss exceeds 90% at all three data rates.
    """
    # Negligible loss below the knee.
    for ir in (200, 600, 1000, 1250):
        assert all(loss < 0.05 for loss in results[ir])
    # >90% loss beyond the 1300/s turning point, at every data rate.
    for ir in (1400, 2000, 3000):
        assert all(loss > 0.9 for loss in results[ir])


def check_fig11(results):
    """Fig. 11 (reconstructed) — ingress-port differentiation.

    Section 5.2 motivates per-ingress-port queues: "if a DDoS attack
    comes from one or a few ports, we can limit its impact to those
    ports only."  Two legitimate clients — one sharing the attacker's
    switch port, one on a clean port — are measured under vanilla
    reactive forwarding and under Scotch.  Scotch keeps the clean port
    at zero failure and still carries the attacked port's legitimate
    flows over the overlay; vanilla loses both.
    """
    vanilla, scotch = results["vanilla"], results["scotch"]
    assert vanilla.clean_port_failure > 0.5
    assert vanilla.attacked_port_failure > 0.5
    assert scotch.clean_port_failure < 0.05
    assert scotch.attacked_port_failure < 0.2
    assert scotch.attacked_port_failure < vanilla.attacked_port_failure


def check_fig12(results):
    """Fig. 12 (reconstructed) — large-flow migration out of the overlay.

    Section 5.3: elephants identified from vSwitch flow stats are
    migrated to physical paths (first-hop rule installed last), after
    which they stop consuming overlay capacity; their vSwitch rules are
    removed.  Measured: time-to-migrate, delivery completeness, and rule
    cleanup — with and without a middlebox chain (§5.4: migration must
    keep the same firewall).
    """
    for result in results.values():
        assert result.migrated
        assert result.migration_time < 6.0
        assert result.delivered_packets == result.total_packets  # lossless hand-over
        assert result.overlay_rules_cleaned


def check_fig13(results):
    """Fig. 13 (reconstructed) — overlay capacity grows with mesh size.

    Section 6's preamble: "We also show the growth in the Scotch
    overlay's capacity with addition of new vswitches into the overlay."
    The pooled Packet-In capacity of the serving vSwitches (~4000 msg/s
    each in our OVS model) is the new-flow ceiling, so successful flow
    rate scales near-linearly with the number of vSwitches until it
    crosses the offered load — versus a hard ~200 f/s without Scotch.
    """
    # Strictly growing with mesh size...
    assert list(results.values()) == sorted(results.values())
    # ... near-linearly (each added vSwitch contributes most of its agent).
    assert results[4] > 2.5 * results[1]
    # Far above the no-overlay ceiling (~200 f/s = the OFA capacity).
    assert results[1] > 5 * 200


def check_fig14(results):
    """Fig. 14 (reconstructed) — extra delay of overlay relay.

    Section 6's preamble: "We further investigate the extra delay
    incurred by the Scotch overlay traffic relay."  Established flows
    are measured on the direct physical path and on the overlay path
    (three tunnels: switch -> entry mesh vSwitch -> exit mesh vSwitch ->
    delivery); the overlay adds a small-constant stretch, not an order
    of magnitude.
    """
    direct, overlay = results[False], results[True]
    assert len(direct) > 100
    assert len(overlay) > 100
    assert mean(overlay) > mean(direct)
    assert mean(overlay) / mean(direct) < 20


def check_fig15(results):
    """Fig. 15 (reconstructed) — trace-driven application performance.

    Section 6's preamble: "we conduct the trace driven experiment that
    demonstrates the benefits of Scotch to the application performance
    in a realistic network environment."  A synthetic heavy-tailed trace
    with a mid-run surge (see DESIGN.md §4 for the substitution) is
    replayed under vanilla reactive forwarding and under Scotch;
    measured: legitimate-flow failure fraction and flow completion times.
    """
    vanilla, scotch = results["vanilla"], results["scotch"]
    assert scotch.failure_fraction < 0.05
    assert vanilla.failure_fraction > scotch.failure_fraction + 0.3


def check_ablation(results):
    """Ablation — Scotch vs. the alternatives §4 considers and rejects.

    * vanilla reactive forwarding (no defence);
    * proactive pre-installation (§1: survives anything but "at the
      expense of fine-grained policy control, visibility, and
      flexibility" — the controller sees zero flows);
    * drop policing (rate-R install budget + per-port fairness, no
      overlay);
    * dedicated-port deflection (§4: "another method is to dedicate one
      port of the physical switch to the overloaded new flows ... does
      not fully solve the problem. The maximum flow rule insertion rate
      is limited.");
    * Scotch.

    Measured under the same 2000 f/s flood + 100 f/s client: client
    failure fraction, total delivered new-flow rate, and controller
    visibility (Packet-In messages seen).
    """
    assert results["scotch"].client_failure < 0.05
    assert results["vanilla"].client_failure > 0.5
    # Scotch's delivered-flow rate dominates the reactive baselines (the
    # overlay pools vSwitch control capacity; they cap at R or the OFA).
    for scheme in ("vanilla", "drop", "dedicated"):
        assert results["scotch"].total_success_rate > results[scheme].total_success_rate
    # Proactive mode also survives — but blind: zero controller
    # visibility, versus Scotch seeing every flow.  That is the §1
    # trade-off Scotch exists to avoid.
    assert results["proactive"].client_failure < 0.05
    assert results["proactive"].flows_visible == 0
    assert results["scotch"].flows_visible > 10_000


def check_tcam(results):
    """Ablation — the §3.3 TCAM bottleneck, with and without Scotch.

    "A limited amount of TCAM at a switch can also cause new flows being
    dropped ... the solution proposed in this paper is applicable to the
    TCAM bottleneck scenario as well."

    Switches get a 200-entry table; 10-packet flows arrive at 100 f/s
    with 10 s rules (~1000 resident rules of demand).  Vanilla reactive
    forwarding truncates most flows once tables fill; Scotch predicts
    the occupancy from its install history, detours flows to the overlay
    (no per-flow physical state), and activates via TABLE_FULL error
    reports as a backstop.
    """
    (_, vanilla_failure), (_, scotch_failure) = results[False], results[True]
    assert vanilla_failure > 0.5
    assert scotch_failure < 0.1


def check_install_rate(results):
    """Ablation — choosing the controller's install rate R (§5.2, §6.1).

    "The service rate for the queue is R, the maximum rate at which the
    OpenFlow controller can install rules at the physical switch without
    insertion failure ... We will investigate how to choose the proper
    value of R."

    Sweep R around the Pica8 lossless insertion rate (200/s) under a
    flood:

    * R below 200 is safe but under-uses the physical network — fewer
      flows get physical paths (more ride the overlay);
    * R above 200 drives the OFA into its Fig. 9 loss region: FlowMods
      silently fail — and client flows that were admitted to physical
      paths get blackholed by their missing rules, so overshooting R
      actively *hurts* the very traffic it was meant to serve.
    """
    # At or below the lossless rate: fully protected, (essentially) no
    # failed installs.  (A couple of jitter-edge failures can occur at
    # exactly the lossless boundary.)
    for rate in (50, 100, 200):
        assert results[rate].client_failure < 0.05
        assert results[rate].install_failures <= 5
    # Overshooting R fails installs *and* blackholes admitted client
    # flows — the paper's reason for pinning R at the lossless rate.
    assert results[800].install_failures > 100
    assert results[800].client_failure > results[200].client_failure + 0.1
    # More R -> more flows served on physical paths.
    assert results[200].physical_flows > results[50].physical_flows


def check_lb(results):
    """Ablation — flow-hash (select group) vs. per-packet random spraying.

    DESIGN.md §5(1): the select group hashes on the flow id so all
    packets of a flow reach the *same* vSwitch — the vSwitch then emits
    exactly one Packet-In per flow (later packets wait as table hits
    once the rule is in).  Per-packet spraying sends successive packets
    of one flow to different vSwitches, each of which raises its own
    Packet-In and needs its own rule: duplicated control-plane work that
    grows with mesh size.

    Measured: duplicate Packet-Ins observed at the controller per multi-
    packet flow, under both bucket-selection policies.
    """
    flow_hash, spray = results[False], results[True]
    # Spraying multiplies duplicate Packet-Ins (per-packet re-punts at
    # vSwitches that lack the flow's rule).
    assert spray["duplicate_packet_ins"] > 1.5 * flow_hash["duplicate_packet_ins"]


#: The shape check of each ``FIGURES`` key.
CHECKS = {
    "3": check_fig3,
    "4": check_fig4,
    "9": check_fig9,
    "10": check_fig10,
    "11": check_fig11,
    "12": check_fig12,
    "13": check_fig13,
    "14": check_fig14,
    "15": check_fig15,
    "ablation": check_ablation,
    "tcam": check_tcam,
    "install_rate": check_install_rate,
    "lb": check_lb,
}


def test_every_figure_has_a_check():
    assert list(CHECKS) == list(FIGURES)


@pytest.mark.parametrize("figure", FIGURES.values(), ids=lambda figure: figure.name)
def test_figure(figure, emit):
    results = figure.run()
    emit(figure.name, figure.render(results))
    CHECKS[figure.key](results)
