"""Tests for match semantics."""

import pytest
from hypothesis import given, strategies as st

from repro.net.flow import FlowKey
from repro.net.packet import MplsHeader, Packet
from repro.switch.match import Match, extract_fields


def make_packet(**kwargs):
    defaults = dict(src_ip="1.1.1.1", dst_ip="2.2.2.2", proto=6, src_port=10, dst_port=80)
    defaults.update(kwargs)
    return Packet(**defaults)


def test_empty_match_matches_everything():
    assert Match.any().matches_packet(make_packet(), in_port=3)


def test_exact_field_match():
    match = Match(src_ip="1.1.1.1", dst_port=80)
    assert match.matches_packet(make_packet(), in_port=1)
    assert not match.matches_packet(make_packet(dst_port=81), in_port=1)


def test_in_port_match():
    match = Match(in_port=2)
    packet = make_packet()
    assert match.matches_packet(packet, in_port=2)
    assert not match.matches_packet(packet, in_port=3)


def test_mpls_label_matches_outermost_only():
    packet = make_packet()
    packet.push(MplsHeader(5))
    packet.push(MplsHeader(7))
    assert Match(mpls_label=7).matches_packet(packet, 1)
    assert not Match(mpls_label=5).matches_packet(packet, 1)


def test_unlabelled_packet_fails_label_match():
    assert not Match(mpls_label=1).matches_packet(make_packet(), 1)


def test_for_flow_builds_exact_five_tuple():
    key = FlowKey("1.1.1.1", "2.2.2.2", 6, 10, 80)
    match = Match.for_flow(key)
    assert match.is_exact_five_tuple
    assert match.has_five_tuple
    assert match.five_tuple_key() == tuple(key)


def test_exact_plus_extra_is_not_exact_but_has_five_tuple():
    key = FlowKey("1.1.1.1", "2.2.2.2", 6, 10, 80)
    match = Match(mpls_label=3, **Match.for_flow(key).fields)
    assert not match.is_exact_five_tuple
    assert match.has_five_tuple


def test_unknown_field_rejected():
    with pytest.raises(ValueError):
        Match(bogus=1)


def test_none_valued_fields_ignored():
    match = Match(src_ip=None, dst_port=80)
    assert "src_ip" not in match.fields


def test_equality_and_hash():
    a = Match(src_ip="1.1.1.1", dst_port=80)
    b = Match(dst_port=80, src_ip="1.1.1.1")
    assert a == b
    assert hash(a) == hash(b)
    assert a != Match(dst_port=81, src_ip="1.1.1.1")


def test_extract_fields_complete():
    packet = make_packet()
    fields = extract_fields(packet, in_port=4)
    assert fields["in_port"] == 4
    assert fields["src_ip"] == "1.1.1.1"
    assert fields["mpls_label"] is None


five_tuples = st.tuples(
    st.sampled_from(["1.1.1.1", "2.2.2.2", "3.3.3.3"]),
    st.sampled_from(["4.4.4.4", "5.5.5.5"]),
    st.sampled_from([6, 17]),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=80, max_value=82),
)


@given(five_tuples, five_tuples)
def test_for_flow_matches_iff_same_tuple(tuple_a, tuple_b):
    key = FlowKey(*tuple_a)
    packet = Packet(tuple_b[0], tuple_b[1], proto=tuple_b[2],
                    src_port=tuple_b[3], dst_port=tuple_b[4])
    expected = tuple_a == tuple_b
    assert Match.for_flow(key).matches_packet(packet, in_port=1) == expected


@given(five_tuples)
def test_for_flow_equals_the_keyword_built_match(tuple_a):
    """The fast constructor the reactive core and the pool install with
    builds the same match as the validating keyword form, down to the
    precomputed views the flow table reads."""
    key = FlowKey(*tuple_a)
    fast = Match.for_flow(key)
    keyword = Match(src_ip=key.src_ip, dst_ip=key.dst_ip, proto=key.proto,
                    src_port=key.src_port, dst_port=key.dst_port)
    assert fast == keyword
    assert hash(fast) == hash(keyword)
    assert list(fast.fields.items()) == list(keyword.fields.items())
    for slot in Match.__slots__:
        assert getattr(fast, slot) == getattr(keyword, slot), slot
