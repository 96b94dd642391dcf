"""Tests for flow identity and descriptors."""

import pytest

from repro.net.flow import FlowKey, FlowRecord, FlowSpec


def test_flow_key_reversed():
    key = FlowKey("a", "b", 6, 1, 2)
    assert key.reversed() == FlowKey("b", "a", 6, 2, 1)
    assert key.reversed().reversed() == key


def test_flow_key_is_hashable_and_ordered_fields():
    key = FlowKey("1.1.1.1", "2.2.2.2", 6, 10, 20)
    assert hash(key) == hash(FlowKey("1.1.1.1", "2.2.2.2", 6, 10, 20))
    assert key.src_ip == "1.1.1.1"
    assert key.dst_port == 20


def test_flow_spec_validation():
    key = FlowKey("a", "b", 6, 1, 2)
    with pytest.raises(ValueError):
        FlowSpec(key=key, start_time=0, size_packets=0)
    with pytest.raises(ValueError):
        FlowSpec(key=key, start_time=0, packet_size=0)
    with pytest.raises(ValueError):
        FlowSpec(key=key, start_time=0, rate_pps=0)
    with pytest.raises(ValueError):
        FlowSpec(key=key, start_time=0, batch=0)


def test_flow_record_success_and_latency():
    record = FlowRecord(FlowKey("a", "b", 6, 1, 2))
    assert record.succeeded is False
    record.first_sent_at = 1.0
    record.first_received_at = 1.25
    record.packets_received = 5
    assert record.succeeded is True
