"""Tests for group tables (select-group load balancing)."""

import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.packet import Packet
from repro.switch.actions import Output
from repro.switch.group_table import Bucket, GroupEntry, GroupTable, flow_bucket


def make_packet(sport):
    return Packet("1.1.1.1", "2.2.2.2", src_port=sport, dst_port=80)


def make_group(n_buckets=3):
    buckets = [Bucket(actions=[Output(i + 1)], label=f"b{i}") for i in range(n_buckets)]
    return GroupEntry(1, buckets)


def test_select_is_sticky_per_flow():
    group = make_group()
    packet = make_packet(1234)
    chosen = group.select_bucket(packet)
    for _ in range(10):
        assert group.select_bucket(make_packet(1234)) is chosen


def test_select_spreads_across_buckets():
    group = make_group(4)
    chosen = {group.select_bucket(make_packet(p)).label for p in range(200)}
    assert chosen == {"b0", "b1", "b2", "b3"}


def test_select_roughly_balanced():
    group = make_group(2)
    counts = {"b0": 0, "b1": 0}
    for p in range(1000):
        counts[group.select_bucket(make_packet(p)).label] += 1
    assert 350 < counts["b0"] < 650


def test_empty_group_returns_none():
    group = GroupEntry(1, [])
    assert group.select_bucket(make_packet(1)) is None


def test_select_uses_the_flow_hash():
    """The bucket is crc32("0|<flow key>") mod the bucket count: the
    hash ``ScotchApp`` also uses to predict a flow's entry vSwitch."""
    group = make_group(4)
    for sport in range(50):
        packet = make_packet(sport)
        token = zlib.crc32(f"0|{packet.flow_key}".encode("utf-8"))
        assert flow_bucket(packet.flow_key, 4) == token % 4
        assert group.select_bucket(packet) is group.buckets[token % 4]


def test_swapping_a_bucket_keeps_other_positions():
    group = make_group(3)
    before = [group.select_bucket(make_packet(p)).label for p in range(100)]
    assert group.buckets[1].label == "b1"
    group.buckets[1] = Bucket(actions=[Output(99)], label="backup")
    after = [group.select_bucket(make_packet(p)).label for p in range(100)]
    for b, a in zip(before, after):
        if b != "b1":
            assert a == b  # unrelated flows did not move
        else:
            assert a == "backup"


def test_group_table_crud():
    table = GroupTable()
    group = make_group()
    table.add(group)
    assert 1 in table
    assert table.get(1) is group
    with pytest.raises(ValueError):
        table.add(make_group())
    replacement = make_group(2)
    table.modify(replacement)
    assert table.get(1) is replacement
    table.remove(1)
    assert table.get(1) is None
    with pytest.raises(KeyError):
        table.modify(make_group())


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=65535))
@settings(max_examples=100, deadline=None)
def test_selection_always_valid_bucket(n_buckets, sport):
    group = make_group(n_buckets)
    bucket = group.select_bucket(make_packet(sport))
    assert bucket in group.buckets
