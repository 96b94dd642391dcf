"""Unit tests for the Flow Info Database (paper §5.2)."""

from repro.controller.flow_info_db import (
    ROUTE_DROPPED,
    ROUTE_OVERLAY,
    ROUTE_PHYSICAL,
    FlowInfoDatabase,
)
from repro.net.flow import FlowKey


def key(port: int) -> FlowKey:
    return FlowKey("10.0.0.1", "10.0.1.1", 6, port, 80)


def test_record_inserts_once_and_returns_existing():
    db = FlowInfoDatabase()
    info = db.record(key(1), "edge", 3, now=1.0, entry_vswitch="mv0")
    again = db.record(key(1), "other", 9, now=2.0)
    assert again is info
    assert info.first_hop_switch == "edge"
    assert info.ingress_port == 3
    assert info.first_seen == 1.0
    assert info.entry_vswitch == "mv0"
    assert len(db) == 1
    assert key(1) in db
    assert key(2) not in db


def test_get_missing_returns_none():
    db = FlowInfoDatabase()
    assert db.get(key(1)) is None


def test_set_route_overlay_to_physical_stamps_migrated_at():
    db = FlowInfoDatabase()
    db.record(key(1), "edge", 1, now=0.0)
    db.set_route(key(1), ROUTE_OVERLAY)
    assert db.get(key(1)).migrated_at is None
    db.set_route(key(1), ROUTE_PHYSICAL, now=4.5)
    info = db.get(key(1))
    assert info.route == ROUTE_PHYSICAL
    assert info.migrated_at == 4.5


def test_set_route_physical_without_overlay_does_not_stamp():
    db = FlowInfoDatabase()
    db.record(key(1), "edge", 1, now=0.0)
    db.set_route(key(1), ROUTE_PHYSICAL, now=2.0)
    assert db.get(key(1)).migrated_at is None


def test_set_route_without_now_keeps_migrated_at_unset():
    db = FlowInfoDatabase()
    db.record(key(1), "edge", 1, now=0.0)
    db.set_route(key(1), ROUTE_OVERLAY)
    db.set_route(key(1), ROUTE_PHYSICAL)
    assert db.get(key(1)).migrated_at is None


def test_overlay_flows_via():
    db = FlowInfoDatabase()
    db.record(key(1), "edge", 1, now=0.0)
    db.record(key(2), "edge", 1, now=0.0)
    db.record(key(3), "tor0", 1, now=0.0)
    db.set_route(key(1), ROUTE_OVERLAY)
    db.set_route(key(3), ROUTE_OVERLAY)
    db.set_route(key(2), ROUTE_DROPPED)
    assert [i.key for i in db.overlay_flows_via("edge")] == [key(1)]
    assert [i.key for i in db.overlay_flows_via("tor0")] == [key(3)]
    assert db.overlay_flows_via("spine") == []


def test_counts_tallies_per_route():
    db = FlowInfoDatabase()
    db.record(key(1), "edge", 1, now=0.0)
    db.record(key(2), "edge", 1, now=0.0)
    db.set_route(key(2), ROUTE_OVERLAY)
    assert db.counts() == {"pending": 1, "overlay": 1}


def test_forget_is_idempotent():
    db = FlowInfoDatabase()
    db.record(key(1), "edge", 1, now=0.0)
    db.forget(key(1))
    db.forget(key(1))
    assert len(db) == 0
    assert db.counts() == {}
