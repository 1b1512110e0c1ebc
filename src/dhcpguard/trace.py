"""Trace records, the plain data the simulator emits and the detection
layers read, and the JSON typing rule of every file the package reads."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

from .dhcp import DhcpMessage

#: destination pseudo-id for link-layer broadcast
BROADCAST = -1

#: bits of a node id: :func:`netsim.node_mac` packs it below a one-byte prefix
NODE_ID_BITS = 40

#: longest simulated or replayed span in seconds; the simulator, the
#: capture series and the anomaly windows all do work per second of it
MAX_DURATION = 1e5


class Role(str, Enum):
    CLIENT = "client"
    LEGIT_DHCP = "legit_dhcp"
    ROGUE_DHCP = "rogue_dhcp"
    ATTACKER = "attacker"
    ROUTER = "router"


class Proto(str, Enum):
    TCP = "tcp"
    UDP = "udp"
    ICMP = "icmp"
    DNS = "dns"


class AttackClass(str, Enum):
    DOS = "dos"
    U2R = "u2r"
    R2L = "r2l"
    PROBE = "probe"
    ROGUE_DHCP = "rogue_dhcp"
    MASQUERADE = "masquerade"
    NONE = "none"


@dataclass(frozen=True, slots=True)
class GenericPayload:
    proto: Proto
    flags: frozenset[str]
    size_bytes: int
    payload_pattern: bytes


@dataclass(frozen=True, slots=True)
class DhcpPayload:
    """DHCP wire bytes plus the decode attempt.

    ``message`` is ``None`` when the bytes do not decode; ``error`` then
    carries the failure's :attr:`~dhcpguard.dhcp.DhcpCodecError.reason`
    (``bad_checksum`` for tampering).
    """

    raw: bytes
    message: Optional[DhcpMessage]
    error: Optional[str] = None


Payload = Union[DhcpPayload, GenericPayload]


@dataclass(frozen=True, slots=True)
class SimEvent:
    time: float
    src: int
    dst: int
    payload: Payload
    ground_truth: AttackClass = AttackClass.NONE


@dataclass(frozen=True)
class NodeSpec:
    id: int
    role: Role
    position: tuple[float, float] = (0.0, 0.0)
    radio_range: float = 100.0
    link_latency: float = 0.01

    def __post_init__(self):
        # An id outside the MAC's 40 bits would overflow it or share another
        # node's MAC, and -1 is BROADCAST.
        if not 0 <= self.id < 1 << NODE_ID_BITS:
            raise ValueError(f"id must be in [0, 2^{NODE_ID_BITS}), got {self.id}")
        # NaN would turn every distance comparison false and hide range
        # violations, and a negative latency would send replies back in time.
        if not all(map(math.isfinite, self.position)):
            raise ValueError(f"position must be finite, got {self.position}")
        for name in ("radio_range", "link_latency"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:  # NaN included
                raise ValueError(f"{name} must be finite and >= 0, got {value}")


# The JSON typing rule of every file the package reads: an integer field
# takes a JSON integer, a number field a JSON number that a float can hold,
# and a bool is neither.  JSON decoding yields exact types, so ``type(v) is``
# tells them apart; the per-line trace reader writes these checks inline.


def is_int(value) -> bool:
    """A JSON integer; a bool is not one."""
    return type(value) is int


def is_number(value) -> bool:
    """A JSON number a float can hold; a bool is not one."""
    return type(value) is float or (type(value) is int and abs(value) <= sys.float_info.max)


def refused(name: str, what: str, value) -> ValueError:
    """The error for a field ``name`` that is not ``what``; a long value is cut short."""
    shown = repr(value)
    if len(shown) > 80:
        shown = shown[:77] + "..."
    return ValueError(f"{name} must be {what}, got {shown}")
