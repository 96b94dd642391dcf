"""IPv4 and MAC address helpers.

Addresses are plain dotted-quad strings throughout the simulator (they
are only ever compared and hashed); these helpers convert to/from the
32-bit integer form used by the spoofed-source generators.
"""

from __future__ import annotations

import random


def ip_to_int(address: str) -> int:
    """Dotted quad -> 32-bit integer.  Raises ValueError on bad input."""
    parts = address.split(".")
    if len(parts) != 4:
        raise ValueError(f"malformed IPv4 address {address!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"malformed IPv4 address {address!r}")
        value = (value << 8) | octet
    return value


def int_to_ip(value: int) -> str:
    """32-bit integer -> dotted quad."""
    if not 0 <= value <= 0xFFFFFFFF:
        raise ValueError(f"IPv4 integer out of range: {value!r}")
    return f"{value >> 24}.{(value >> 16) & 0xFF}.{(value >> 8) & 0xFF}.{value & 0xFF}"


def make_ip(net: int, host: int) -> str:
    """Address ``10.<net>.<host/256>.<host%256>`` — the lab addressing plan."""
    if not 0 <= net <= 255:
        raise ValueError("net must fit in one octet")
    if not 0 <= host <= 0xFFFF:
        raise ValueError("host must fit in two octets")
    return f"10.{net}.{host >> 8}.{host & 0xFF}"


def random_spoofed_ip(rng: random.Random) -> str:
    """A uniformly random unicast address, as hping3's --rand-source does.

    Avoids 0.x and 255.x first octets so every spoofed source looks like
    plausible unicast; collisions across draws are possible but as rare
    as in the real tool.
    """
    return int_to_ip(rng.randrange(0x01000000, 0xFF000000))
