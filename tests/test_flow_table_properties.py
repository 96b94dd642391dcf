"""Property tests: the indexed FlowTable lookup equals a naive scan.

The table keeps three index structures (per-five-tuple buckets, the
label index over ``mpls_label`` rules, and the general scan
list).  These tests pin the contract that none of that indexing is
observable: for any rule set and any packet, ``lookup`` returns exactly
the entry a naive full scan would pick — the highest-priority live
matching entry, ties broken by installation order (older wins).

Field values are drawn from deliberately tiny pools so that matches,
priority ties, label collisions and shadowed rules all occur often.
"""

from hypothesis import given, strategies as st

from repro.net.packet import MplsHeader, Packet
from repro.switch.actions import Drop
from repro.switch.flow_table import FlowEntry, FlowTable
from repro.switch.match import MATCH_FIELDS, Match, extract_fields

IPS = ("10.0.0.1", "10.0.0.2", "10.0.0.3")
PORTS = (0, 1, 80)
PROTOS = (6, 17)
LABELS = (5, 9, 77)
IN_PORTS = (1, 2)

_FIELD_VALUES = {
    "in_port": st.sampled_from(IN_PORTS),
    "src_ip": st.sampled_from(IPS),
    "dst_ip": st.sampled_from(IPS),
    "proto": st.sampled_from(PROTOS),
    "src_port": st.sampled_from(PORTS),
    "dst_port": st.sampled_from(PORTS),
    "mpls_label": st.sampled_from(LABELS),
}


#: The label field decides which index holds a rule and what its
#: residual view leaves to check, so a labelled rule is drawn as often
#: as an unlabelled one.
_UNLABELLED_FIELDS = tuple(name for name in MATCH_FIELDS if name != "mpls_label")


@st.composite
def matches(draw):
    chosen = draw(st.sets(st.sampled_from(_UNLABELLED_FIELDS)))
    if draw(st.booleans()):
        chosen.add("mpls_label")
    return Match(**{name: draw(_FIELD_VALUES[name]) for name in sorted(chosen)})


@st.composite
def entry_specs(draw):
    return (
        draw(matches()),
        draw(st.integers(min_value=0, max_value=3)),  # narrow: force ties
        draw(st.sampled_from([0.0, 0.4, 2.0])),  # idle_timeout
    )


@st.composite
def packets(draw):
    packet = Packet(
        src_ip=draw(st.sampled_from(IPS)),
        dst_ip=draw(st.sampled_from(IPS)),
        proto=draw(st.sampled_from(PROTOS)),
        src_port=draw(st.sampled_from(PORTS)),
        dst_port=draw(st.sampled_from(PORTS)),
    )
    # None, one label, or the §5.2 two-label stack (only the outer
    # label is matched).
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        packet.push(MplsHeader(label=draw(st.sampled_from(LABELS))))
    return packet, draw(st.sampled_from(IN_PORTS))


def naive_winner(entries, fields, now):
    live = [
        entry
        for entry in entries
        if not entry.expired(now) and entry.match.matches(fields)
    ]
    if not live:
        return None
    return max(live, key=lambda entry: (entry.priority, -entry.entry_id))


@given(
    specs=st.lists(entry_specs(), min_size=1, max_size=25),
    probes=st.lists(
        st.tuples(packets(), st.sampled_from([0.0, 0.5, 1.0, 2.5])),
        min_size=1,
        max_size=10,
    ),
)
def test_lookup_equals_naive_scan(specs, probes):
    table = FlowTable()
    for match, priority, idle in specs:
        table.insert(FlowEntry(match, priority, [Drop()], idle_timeout=idle))
    # Probe in time order: lookup legitimately mutates the table (lazy
    # expiry, winner counters), so each reference snapshot is taken
    # immediately before the lookup it checks.
    for (packet, in_port), now in sorted(probes, key=lambda probe: probe[1]):
        fields = extract_fields(packet, in_port)
        expected = naive_winner(table.entries(), fields, now)
        got = table.lookup(packet, in_port, now)
        if expected is None:
            assert got is None
        else:
            assert got is not None and got.entry_id == expected.entry_id


@given(specs=st.lists(entry_specs(), min_size=1, max_size=25))
def test_insert_replaces_same_match_and_priority(specs):
    table = FlowTable()
    for match, priority, idle in specs:
        table.insert(FlowEntry(match, priority, [Drop()], idle_timeout=idle))
    # OpenFlow overlap-replace: one live entry per (match, priority).
    assert len(table) == len({(match.key(), priority) for match, priority, _ in specs})
    assert len(table.entries()) == len(table)


@given(specs=st.lists(entry_specs(), min_size=1, max_size=25), data=st.data())
def test_remove_clears_every_index(specs, data):
    table = FlowTable()
    for match, priority, idle in specs:
        table.insert(FlowEntry(match, priority, [Drop()], idle_timeout=idle))
    victim_match, _, _ = data.draw(st.sampled_from(specs))
    removed = table.remove(victim_match)
    assert removed >= 1
    assert all(entry.match != victim_match for entry in table.entries())
    assert len(table.entries()) == len(table)
    # A fresh lookup never returns a removed rule.
    (packet, in_port), now = data.draw(
        st.tuples(packets(), st.sampled_from([0.0, 1.0]))
    )
    got = table.lookup(packet, in_port, now)
    assert got is None or got.match != victim_match
