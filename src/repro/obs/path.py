"""Control-path trace stages.

One Packet-In's journey — miss at the data plane, OFA queueing, channel
transit, controller handling — is a single logical trace whose context
must survive hops between components that never see each other.  The
context rides in ``packet.metadata`` under the keys below; these helpers
own all of that bookkeeping so the instrumented components stay one
call each.

Stage spans (each also a row in `scotch-repro inspect`):

* ``packet_in``             — the whole journey (punt → route decision);
  args carry the originating switch id, the overlay relay vSwitch when
  the flow detoured (``relay``), the decision (``route``) and the
  controller handling duration (``handle_s``).
* ``ofa.queue``             — OFA Packet-In queue wait + service.
* ``channel.to_controller`` — management-channel transit.
* ``controller.handle``     — Packet-In arrival at the controller to the
  app's route decision (for Scotch: through the Fig. 7 rate-R queues).
* ``ofa.install``           — FlowMod-ADD admission → committed/lost
  (opened by the OFA itself, not keyed through a packet).

Callers invoke a helper only when ``obs.tracer.enabled``: with tracing
off the Packet-In path makes no call here and writes no key.
"""

from __future__ import annotations

from typing import Any, Optional

KEY_PKTIN = "obs_pktin"
KEY_STAGE = "obs_stage"
KEY_HANDLE = "obs_handle"
KEY_DEFERRED = "obs_deferred"

#: Span names (shared with inspect/report code).
SPAN_PACKET_IN = "packet_in"
SPAN_OFA_QUEUE = "ofa.queue"
SPAN_CHANNEL = "channel.to_controller"
SPAN_HANDLE = "controller.handle"
SPAN_INSTALL = "ofa.install"


def punt_begin(obs: Any, packet: Any, switch: str, in_port: int) -> None:
    """A table miss handed a packet to the OFA: open the journey span
    and the OFA-queue stage.  A miss is the only cause of a Packet-In,
    so the span's ``reason`` is always ``no_match``."""
    tracer = obs.tracer
    track = f"switch:{switch}"
    pktin = tracer.begin(
        SPAN_PACKET_IN, track=track, switch=switch, in_port=in_port, reason="no_match")
    packet.metadata[KEY_PKTIN] = pktin
    # Stage spans link back to their journey so the critical-path
    # analyzer can walk the DAG under each packet_in (obs/critpath).
    packet.metadata[KEY_STAGE] = tracer.begin(
        SPAN_OFA_QUEUE, track=track, switch=switch, journey=pktin)


def punt_dropped(obs: Any, packet: Any) -> None:
    """The OFA queue overflowed: the journey ends here."""
    tracer = obs.tracer
    tracer.end(packet.metadata.pop(KEY_STAGE, -1), dropped=True)
    # handle_s is 0: the packet never reached the controller.
    tracer.end(packet.metadata.pop(KEY_PKTIN, -1), route="lost", dropped=True,
               handle_s=0.0)


def packet_in_sent(obs: Any, packet: Any, switch: str) -> None:
    """The OFA emitted the Packet-In: OFA-queue stage ends, channel
    transit begins."""
    tracer = obs.tracer
    tracer.end(packet.metadata.pop(KEY_STAGE, -1))
    packet.metadata[KEY_STAGE] = tracer.begin(
        SPAN_CHANNEL, track=f"switch:{switch}", switch=switch,
        journey=packet.metadata.get(KEY_PKTIN, -1))


def packet_in_received(obs: Any, packet: Any, dpid: str,
                       relayed: bool) -> None:
    """The controller received the Packet-In: channel stage ends,
    handling begins.  ``relayed`` marks overlay Packet-Ins (``dpid`` is
    then the relaying vSwitch, recorded on the journey span)."""
    tracer = obs.tracer
    tracer.end(packet.metadata.pop(KEY_STAGE, -1))
    packet.metadata[KEY_HANDLE] = tracer.begin(
        SPAN_HANDLE, track="controller", switch=dpid,
        journey=packet.metadata.get(KEY_PKTIN, -1))
    if relayed:
        tracer.annotate(packet.metadata.get(KEY_PKTIN, -1), relay=dpid)


def attribute(obs: Any, packet: Any, origin: str, in_port: int) -> None:
    """The app inverted the overlay labels: stamp the true origin switch
    onto the journey span (§5.2 attribution)."""
    obs.tracer.annotate(packet.metadata.get(KEY_PKTIN, -1),
                        switch=origin, in_port=in_port)


def defer(packet: Any) -> None:
    """The app queued the flow for a later decision — tell the
    controller's dispatch epilogue not to close the spans."""
    packet.metadata[KEY_DEFERRED] = True


def decision(obs: Any, packet: Any, route: str) -> None:
    """The route decision exists: close the handling stage and the
    journey span.  Idempotent (span keys are popped), so the generic
    close in the controller and an app-side close cannot double-record."""
    tracer = obs.tracer
    packet.metadata.pop(KEY_DEFERRED, None)
    handle_s: Optional[float] = None
    handle = packet.metadata.pop(KEY_HANDLE, None)
    if handle is not None:
        handle_s = tracer.elapsed(handle)
        tracer.end(handle, route=route)
    pktin = packet.metadata.pop(KEY_PKTIN, None)
    if pktin is not None:
        total_s = tracer.elapsed(pktin)
        tracer.end(pktin, route=route,
                   handle_s=handle_s if handle_s is not None else 0.0)
        if total_s is not None and obs.metrics.enabled:
            obs.metrics.histogram("path.packet_in_latency_s").observe(total_s)


def deferred(packet: Any) -> bool:
    return bool(packet.metadata.get(KEY_DEFERRED))
