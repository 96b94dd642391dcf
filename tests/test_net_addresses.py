"""Tests for address helpers."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.net.addresses import (
    int_to_ip,
    ip_to_int,
    make_ip,
    random_spoofed_ip,
)


def test_ip_roundtrip_known_values():
    assert ip_to_int("0.0.0.0") == 0
    assert ip_to_int("255.255.255.255") == 0xFFFFFFFF
    assert int_to_ip(ip_to_int("10.1.2.3")) == "10.1.2.3"


@given(st.integers(min_value=0, max_value=0xFFFFFFFF))
def test_ip_roundtrip_property(value):
    assert ip_to_int(int_to_ip(value)) == value


@pytest.mark.parametrize("bad", ["1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d", ""])
def test_malformed_ip_rejected(bad):
    with pytest.raises(ValueError):
        ip_to_int(bad)


def test_int_to_ip_range_check():
    with pytest.raises(ValueError):
        int_to_ip(-1)
    with pytest.raises(ValueError):
        int_to_ip(1 << 32)


def test_make_ip_layout():
    assert make_ip(20, 0) == "10.20.0.0"
    assert make_ip(20, 257) == "10.20.1.1"


def test_make_ip_bounds():
    with pytest.raises(ValueError):
        make_ip(256, 0)
    with pytest.raises(ValueError):
        make_ip(0, 1 << 16)


def test_random_spoofed_ip_is_plausible_unicast():
    rng = random.Random(1)
    for _ in range(200):
        address = random_spoofed_ip(rng)
        first = int(address.split(".")[0])
        assert 1 <= first <= 254


def test_random_spoofed_ip_deterministic_per_seed():
    assert random_spoofed_ip(random.Random(5)) == random_spoofed_ip(random.Random(5))
