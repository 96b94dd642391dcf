"""Tests for the flow table, including an index-vs-naive-scan property test."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.flow import FlowKey
from repro.net.packet import MplsHeader, Packet
from repro.switch.actions import Drop, Output
from repro.switch.flow_table import FlowEntry, FlowTable, TableFullError
from repro.switch.match import Match, extract_fields


def packet_for(key, label=None):
    packet = Packet(key.src_ip, key.dst_ip, proto=key.proto,
                    src_port=key.src_port, dst_port=key.dst_port)
    if label is not None:
        packet.push(MplsHeader(label))
    return packet


KEY = FlowKey("1.1.1.1", "2.2.2.2", 6, 10, 80)


def entry(match, priority=100, **kwargs):
    return FlowEntry(match, priority, [Output(1)], **kwargs)


def test_exact_match_lookup():
    table = FlowTable()
    table.insert(entry(Match.for_flow(KEY)))
    assert table.lookup(packet_for(KEY), 1, now=0.0) is not None
    other = FlowKey("9.9.9.9", "2.2.2.2", 6, 10, 80)
    assert table.lookup(packet_for(other), 1, now=0.0) is None


def test_higher_priority_wins():
    table = FlowTable()
    low = entry(Match.any(), priority=1)
    high = entry(Match(dst_ip=KEY.dst_ip), priority=50)
    table.insert(low)
    table.insert(high)
    assert table.lookup(packet_for(KEY), 1, 0.0) is high


def test_priority_tie_broken_by_age():
    table = FlowTable()
    older = entry(Match(dst_ip=KEY.dst_ip), priority=10)
    newer = entry(Match(src_ip=KEY.src_ip), priority=10)
    table.insert(older)
    table.insert(newer)
    assert table.lookup(packet_for(KEY), 1, 0.0) is older


def test_indexed_beats_lower_priority_wild():
    table = FlowTable()
    wild = entry(Match.any(), priority=1)
    exact = entry(Match.for_flow(KEY), priority=100)
    table.insert(wild)
    table.insert(exact)
    assert table.lookup(packet_for(KEY), 1, 0.0) is exact


def test_wild_beats_lower_priority_indexed():
    table = FlowTable()
    exact = entry(Match.for_flow(KEY), priority=10)
    tunnel = entry(Match(mpls_label=5), priority=3000)
    table.insert(exact)
    table.insert(tunnel)
    assert table.lookup(packet_for(KEY, label=5), 1, 0.0) is tunnel
    assert table.lookup(packet_for(KEY), 1, 0.0) is exact


def test_label_qualified_indexed_entry():
    """Five-tuple + mpls_label entries live in the index but only match
    labelled packets."""
    table = FlowTable()
    qualified = entry(Match(mpls_label=7, **Match.for_flow(KEY).fields), priority=101)
    plain = entry(Match.for_flow(KEY), priority=100)
    table.insert(qualified)
    table.insert(plain)
    assert table.lookup(packet_for(KEY, label=7), 1, 0.0) is qualified
    assert table.lookup(packet_for(KEY), 1, 0.0) is plain


def test_label_bucketed_entry_checks_in_port():
    """The label bucket matched only the label: the rule's residual
    constraint (its in_port) is still checked on every lookup."""
    table = FlowTable()
    transit = entry(Match(mpls_label=7, in_port=2), priority=3000)
    table.insert(transit)
    assert transit.match.residual == (("in_port", 2),)
    assert table.lookup(packet_for(KEY, label=7), 2, 0.0) is transit
    assert table.lookup(packet_for(KEY, label=7), 1, 0.0) is None
    assert table.lookup(packet_for(KEY, label=8), 2, 0.0) is None


def test_same_match_and_priority_replaces():
    table = FlowTable()
    table.insert(entry(Match.for_flow(KEY)))
    replacement = entry(Match.for_flow(KEY))
    table.insert(replacement)
    assert len(table) == 1
    assert table.lookup(packet_for(KEY), 1, 0.0) is replacement


def test_capacity_enforced():
    table = FlowTable(capacity=2)
    table.insert(entry(Match.for_flow(KEY)))
    table.insert(entry(Match(dst_ip="3.3.3.3")))
    with pytest.raises(TableFullError):
        table.insert(entry(Match(dst_ip="4.4.4.4")))


def test_replacement_allowed_at_capacity():
    table = FlowTable(capacity=1)
    table.insert(entry(Match.for_flow(KEY)))
    table.insert(entry(Match.for_flow(KEY)))  # replace, not grow
    assert len(table) == 1


def test_idle_timeout_expiry():
    table = FlowTable()
    table.insert(entry(Match.for_flow(KEY), idle_timeout=5.0), now=0.0)
    assert table.lookup(packet_for(KEY), 1, now=4.0) is not None  # refreshes idle
    assert table.lookup(packet_for(KEY), 1, now=8.0) is not None  # 4s idle
    assert table.lookup(packet_for(KEY), 1, now=20.0) is None
    assert len(table) == 0


def test_expire_sweep():
    table = FlowTable()
    table.insert(entry(Match.for_flow(KEY), idle_timeout=1.0), now=0.0)
    table.insert(entry(Match(dst_ip="3.3.3.3"), idle_timeout=1.0), now=0.0)
    expired = table.expire(now=2.0)
    assert len(expired) == 2
    assert len(table) == 0


def test_remove_by_match_and_priority():
    table = FlowTable()
    table.insert(entry(Match.for_flow(KEY), priority=100))
    table.insert(entry(Match.for_flow(KEY), priority=101))
    assert table.remove(Match.for_flow(KEY), priority=100) == 1
    assert len(table) == 1
    assert table.remove(Match.for_flow(KEY)) == 1


def test_remove_where():
    table = FlowTable()
    table.insert(entry(Match.for_flow(KEY), cookie="a"))
    table.insert(entry(Match(dst_ip="3.3.3.3"), cookie="b"))
    assert table.remove_where(lambda e: e.cookie == "a") == 1
    assert len(table) == 1


def test_counters_updated_on_hit():
    table = FlowTable()
    rule = entry(Match.for_flow(KEY))
    table.insert(rule)
    packet = packet_for(KEY)
    packet.count = 3
    table.lookup(packet, 1, 0.0)
    assert rule.packets == 3
    assert table.hits == 1
    assert table.lookups == 1


def test_zero_size_len_tracking():
    table = FlowTable()
    e = entry(Match.for_flow(KEY))
    table.insert(e)
    table.remove(Match.for_flow(KEY))
    assert len(table) == 0
    table.insert(entry(Match.for_flow(KEY)))
    assert len(table) == 1


# ----------------------------------------------------------------------
# Property test: the indexed lookup equals a naive highest-priority scan.
# ----------------------------------------------------------------------
def naive_lookup(entries, packet, in_port):
    fields = extract_fields(packet, in_port)
    best = None
    for e in entries:
        if e.match.matches(fields):
            if best is None or (e.priority, -e.entry_id) > (best.priority, -best.entry_id):
                best = e
    return best


addresses = st.sampled_from(["1.1.1.1", "2.2.2.2", "3.3.3.3"])
ports = st.integers(min_value=1, max_value=3)
labels = st.one_of(st.none(), st.integers(min_value=1, max_value=3))


@st.composite
def match_strategy(draw):
    fields = {}
    if draw(st.booleans()):
        fields["src_ip"] = draw(addresses)
    if draw(st.booleans()):
        fields["dst_ip"] = draw(addresses)
    if draw(st.booleans()):
        fields["src_port"] = draw(ports)
        fields["dst_port"] = draw(ports)
        fields["proto"] = 6
        fields.setdefault("src_ip", draw(addresses))
        fields.setdefault("dst_ip", draw(addresses))
    if draw(st.booleans()):
        fields["mpls_label"] = draw(st.integers(min_value=1, max_value=3))
    if draw(st.booleans()):
        fields["in_port"] = draw(ports)
    return Match(**fields)


@given(
    st.lists(st.tuples(match_strategy(), st.integers(min_value=1, max_value=5)),
             max_size=15),
    addresses, addresses, ports, ports, labels, ports,
)
@settings(max_examples=200, deadline=None)
def test_indexed_lookup_equals_naive_scan(rules, src, dst, sport, dport, label, in_port):
    table = FlowTable()
    entries = []
    for match, priority in rules:
        e = FlowEntry(match, priority, [Drop()])
        existing = [x for x in entries if x.match == match and x.priority == priority]
        for x in existing:
            entries.remove(x)
        entries.append(e)
        table.insert(e)
    packet = Packet(src, dst, proto=6, src_port=sport, dst_port=dport)
    if label is not None:
        packet.push(MplsHeader(label))
    expected = naive_lookup(entries, packet, in_port)
    got = table.lookup(packet, in_port, now=0.0)
    if expected is None:
        assert got is None
    else:
        assert got is expected
