"""Tests for the packet model and encapsulation stack."""

import pytest
from hypothesis import given, strategies as st

from repro.net.flow import FlowKey
from repro.net.packet import MPLS_OVERHEAD, MplsHeader, Packet


def make_packet(**kwargs):
    defaults = dict(src_ip="10.0.0.1", dst_ip="10.0.0.2", src_port=1000, dst_port=80)
    defaults.update(kwargs)
    return Packet(**defaults)


def test_flow_key_reflects_inner_tuple():
    packet = make_packet()
    assert packet.flow_key == FlowKey("10.0.0.1", "10.0.0.2", 6, 1000, 80)


def test_push_pop_lifo():
    packet = make_packet()
    packet.push(MplsHeader(7))
    packet.push(MplsHeader(9))
    assert packet.encap[-1].label == 9
    assert packet.pop() == MplsHeader(9)
    assert packet.encap[-1].label == 7


def test_pop_empty_raises():
    with pytest.raises(ValueError):
        make_packet().pop()


def test_wire_size_includes_encap_overhead():
    packet = make_packet(size=1000)
    assert packet.wire_bits == 1000 * 8
    packet.push(MplsHeader(1))
    assert packet.wire_bits == (1000 + MPLS_OVERHEAD) * 8
    packet.push(MplsHeader(2))
    assert packet.wire_bits == (1000 + 2 * MPLS_OVERHEAD) * 8
    packet.pop()
    assert packet.wire_bits == (1000 + MPLS_OVERHEAD) * 8


def test_wire_bits_scales_with_count():
    packet = make_packet(size=100, count=10)
    assert packet.wire_bits == 100 * 8 * 10


def test_flow_key_unchanged_by_encap():
    packet = make_packet()
    key = packet.flow_key
    packet.push(MplsHeader(5))
    assert packet.flow_key == key


def test_invalid_sizes_rejected():
    with pytest.raises(ValueError):
        make_packet(size=0)
    with pytest.raises(ValueError):
        make_packet(count=0)


def test_mpls_label_range():
    with pytest.raises(ValueError):
        MplsHeader(1 << 20)
    with pytest.raises(ValueError):
        MplsHeader(-1)


def test_packet_ids_unique():
    assert make_packet().packet_id != make_packet().packet_id


@given(st.lists(st.integers(min_value=0, max_value=(1 << 20) - 1), max_size=8))
def test_push_pop_roundtrip_property(labels):
    packet = make_packet()
    for label in labels:
        packet.push(MplsHeader(label))
    popped = []
    while packet.encap:
        popped.append(packet.pop().label)
    assert popped == list(reversed(labels))
