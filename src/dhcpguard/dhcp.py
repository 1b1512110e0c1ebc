"""DHCP message model, wire codec, lease pool and DORA state machines.

Everything the simulator and the detector share lives here: the message
dataclass, a fixed 32-byte wire image, the server-side address pool and
the client/server handshake logic.

Wire layout (32 bytes, all integers big-endian):

    offset  size  field
    ------  ----  -----
    0       1     message type (1 DISCOVER, 2 OFFER, 3 REQUEST,
                  5 ACK, 6 NAK, 7 RELEASE)
    1       4     transaction id
    5       6     client MAC
    11      4     your_ip (offered / assigned address)
    15      4     server_id (identity of the answering server)
    19      4     gateway option
    23      4     dns option
    27      3     lease seconds (24-bit)
    30      2     checksum: ones-complement 16-bit sum of bytes 0..29

This layout is a deliberate fixed-size reduction of the real protocol:
wide enough to carry every field the detector inspects, small enough
that tampering stays byte-exact and cheap to test.  A frame decodes
through one precompiled unpack of all 32 bytes, the lease as a byte and
a word, and its checksum through one more of the body's 15 words.

An IPv4 address is a plain ``int`` in [0, 2**32) and a MAC address six
plain ``bytes`` everywhere in the package; their text exists only in
files, through :func:`parse_ipv4`/:func:`format_ipv4` and
:func:`parse_mac`/:func:`format_mac`.
"""

from __future__ import annotations

import heapq
import ipaddress
import math
import struct
from dataclasses import dataclass
from enum import IntEnum
from typing import Callable, Optional

# An IPv4 address: an int in [0, MAX_IPV4].
Ipv4Addr = int
# A MAC address: six bytes.
MacAddr = bytes

UNASSIGNED = 0
MAX_IPV4 = (1 << 32) - 1

WIRE_SIZE = 32
BODY_SIZE = 30
MAX_LEASE_SECS = (1 << 24) - 1

# The whole frame; the 24-bit lease has no struct code, so it is a byte and a word.
_FRAME = struct.Struct(">BI6sIIIIBHH")
# The body's words, which the checksum sums.
_WORDS = struct.Struct(f">{BODY_SIZE // 2}H")
_ADDRESS_FIELDS = ("your_ip", "server_id", "gateway", "dns")
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def parse_ipv4(text: str) -> Ipv4Addr:
    """Dotted-quad text to an address; :class:`ValueError` if it is not one."""
    return int(ipaddress.IPv4Address(text))


def format_ipv4(ip: Ipv4Addr) -> str:
    """Inverse of :func:`parse_ipv4`."""
    return str(ipaddress.IPv4Address(ip))


def parse_mac(text: str) -> MacAddr:
    """Six ':'-separated hex pairs to an address; :class:`ValueError` if it is not one."""
    parts = text.split(":")
    if len(parts) != 6 or not all(len(p) == 2 and _HEX_DIGITS.issuperset(p) for p in parts):
        raise ValueError(f"bad MAC {text!r}")
    return bytes.fromhex("".join(parts))


def format_mac(mac: MacAddr) -> str:
    """Inverse of :func:`parse_mac`, in lower case."""
    return mac.hex(":")


class MsgType(IntEnum):
    DISCOVER = 1
    OFFER = 2
    REQUEST = 3
    ACK = 5
    NAK = 6
    RELEASE = 7


# Value -> member: a lookup here is no call, unlike ``MsgType(value)``.
_MSG_TYPES = {t.value: t for t in MsgType}


class DhcpCodecError(ValueError):
    """Base class for wire-level decode failures.

    ``reason`` is the short name a trace records for the failure.
    """

    reason = "undecodable"


class BadLength(DhcpCodecError):
    reason = "bad_length"


class BadChecksum(DhcpCodecError):
    """Checksum mismatch; the message was tampered with in transit."""

    reason = "bad_checksum"


class UnknownType(DhcpCodecError):
    reason = "unknown_type"


class InvalidField(DhcpCodecError):
    """Well-formed frame whose fields violate message invariants."""

    reason = "invalid_field"


class PoolExhausted(Exception):
    """No free address left in the pool (the starvation symptom)."""


@dataclass(frozen=True, slots=True)
class DhcpMessage:
    """One protocol message, the unit the verifier inspects.

    Invariants are enforced at construction: the client MAC is six bytes,
    every address and the xid fit 32 bits, the lease fits the 24-bit wire
    field, OFFER/ACK carry a non-zero server_id and DISCOVER carries
    your_ip 0.0.0.0.
    """

    msg_type: MsgType
    xid: int
    client_mac: MacAddr
    your_ip: Ipv4Addr = UNASSIGNED
    server_id: Ipv4Addr = UNASSIGNED
    gateway: Ipv4Addr = UNASSIGNED
    dns: Ipv4Addr = UNASSIGNED
    lease_secs: int = 0

    def __post_init__(self):
        if type(self.client_mac) is not bytes or len(self.client_mac) != 6:
            raise ValueError(f"client_mac must be 6 bytes, got {self.client_mac!r}")
        if not 0 <= self.xid < (1 << 32):
            raise ValueError(f"xid out of range: {self.xid}")
        if not 0 <= self.lease_secs <= MAX_LEASE_SECS:
            raise ValueError(f"lease_secs out of range: {self.lease_secs}")
        if not (0 <= self.your_ip <= MAX_IPV4 and 0 <= self.server_id <= MAX_IPV4
                and 0 <= self.gateway <= MAX_IPV4 and 0 <= self.dns <= MAX_IPV4):
            name = next(n for n in _ADDRESS_FIELDS if not 0 <= getattr(self, n) <= MAX_IPV4)
            raise ValueError(f"{name} out of range: {getattr(self, name)}")
        if self.msg_type in (MsgType.OFFER, MsgType.ACK) and self.server_id == 0:
            raise ValueError(f"{self.msg_type.name} requires a non-zero server_id")
        if self.msg_type is MsgType.DISCOVER and self.your_ip != 0:
            raise ValueError("DISCOVER must carry your_ip 0.0.0.0")


def checksum16(data: bytes) -> int:
    """Ones-complement sum of 16-bit big-endian words (odd tail zero-padded)."""
    if len(data) % 2:
        data = data + b"\x00"
    total = sum(struct.unpack(f">{len(data) // 2}H", data))
    while total > 0xFFFF:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def _checksum(frame: bytes) -> int:
    """:func:`checksum16` of the body that starts ``frame``."""
    total = sum(_WORDS.unpack_from(frame))
    total = (total & 0xFFFF) + (total >> 16)  # 15 words fold twice at most
    return ~((total & 0xFFFF) + (total >> 16)) & 0xFFFF


def encode_message(msg: DhcpMessage) -> bytes:
    """Serialize to the fixed 32-byte wire image."""
    lease = msg.lease_secs
    frame = _FRAME.pack(msg.msg_type, msg.xid, msg.client_mac, msg.your_ip, msg.server_id,
                        msg.gateway, msg.dns, lease >> 16, lease & 0xFFFF, 0)
    return frame[:BODY_SIZE] + _checksum(frame).to_bytes(2, "big")


def decode_message(data: bytes) -> DhcpMessage:
    """Inverse of :func:`encode_message`; validates length, checksum and type."""
    if len(data) != WIRE_SIZE:
        raise BadLength(f"expected {WIRE_SIZE} bytes, got {len(data)}")
    type_byte, xid, mac, your_ip, server_id, gateway, dns, lease_hi, lease_lo, stored = (
        _FRAME.unpack(data))
    if _checksum(data) != stored:
        raise BadChecksum("checksum mismatch")
    try:
        msg_type = _MSG_TYPES[type_byte]
    except KeyError:
        raise UnknownType(f"unknown message type {type_byte}") from None
    try:
        return DhcpMessage(msg_type, xid, mac, your_ip, server_id, gateway, dns,
                           lease_hi << 16 | lease_lo)
    except ValueError as exc:
        raise InvalidField(str(exc)) from None


class AddressPool:
    """Lease bookkeeping over an inclusive IPv4 range.

    Allocation is lowest-free-address so traces stay reproducible.
    Active leases are injective MAC -> IP; a lease is active while
    ``expires > now``.

    Every call costs O(log n) amortised and construction is O(1) for any
    range size. Free addresses are the ones at or above the ``_next``
    cursor (never handed out) plus the min-heap ``_returned`` (released
    or expired, all below ``_next``). Expired leases are reclaimed
    lazily from a heap of ``(expires, seq, mac)`` entries, one per grant
    or renewal; an entry left stale by a renewal is skipped when popped.

    Time only moves forward: lazy reclaim is correct only if ``now``
    never decreases from one call to the next, as in the simulator,
    whose events come off the heap in time order. A ``now`` below the
    last one seen raises :class:`ValueError`.
    """

    def __init__(self, start: Ipv4Addr, end: Ipv4Addr, default_lease_secs: int = 3600):
        if not 0 <= start <= end <= MAX_IPV4:
            raise ValueError(f"pool range must satisfy 0 <= start <= end < 2**32, "
                             f"got {start}..{end}")
        self.start = start
        self.end = end
        self.default_lease_secs = default_lease_secs
        self._next = start
        self._returned: list[int] = []
        self._leases: dict[MacAddr, tuple[int, float]] = {}
        self._expiry: list[tuple[float, int, MacAddr]] = []
        self._seq = 0
        self._now = -math.inf

    @property
    def size(self) -> int:
        return self.end - self.start + 1

    def __contains__(self, ip: Ipv4Addr) -> bool:
        return self.start <= ip <= self.end

    def _reclaim(self, now: float) -> None:
        """Drop every lease with ``expires <= now`` and free its address."""
        if now < self._now:
            raise ValueError(f"pool time went backwards: {now} < {self._now}")
        self._now = now
        expiry, leases = self._expiry, self._leases
        while expiry and expiry[0][0] <= now:
            mac = heapq.heappop(expiry)[2]
            lease = leases.get(mac)
            if lease is not None and lease[1] <= now:
                del leases[mac]
                heapq.heappush(self._returned, lease[0])

    def active_leases(self, now: float) -> dict[MacAddr, Ipv4Addr]:
        self._reclaim(now)
        return {mac: ip for mac, (ip, _) in self._leases.items()}

    def lease_for(self, mac: MacAddr, now: float) -> Optional[Ipv4Addr]:
        self._reclaim(now)
        lease = self._leases.get(mac)
        return None if lease is None else lease[0]

    def free_count(self, now: float) -> int:
        self._reclaim(now)
        return self.end - self._next + 1 + len(self._returned)

    def allocate(self, mac: MacAddr, now: float, lease_secs: Optional[int] = None) -> Ipv4Addr:
        """Return the active lease for ``mac``, or the lowest free address.

        Raises :class:`PoolExhausted` when no address is free.
        """
        secs = self.default_lease_secs if lease_secs is None else lease_secs
        self._reclaim(now)
        lease = self._leases.get(mac)
        if lease is not None:
            ip = lease[0]
        elif self._returned:
            ip = heapq.heappop(self._returned)
        elif self._next <= self.end:
            ip = self._next
            self._next += 1
        else:
            raise PoolExhausted(f"all {self.size} addresses are leased")
        expires = now + secs
        self._leases[mac] = (ip, expires)
        self._seq += 1
        heapq.heappush(self._expiry, (expires, self._seq, mac))
        return ip

    def release(self, mac: MacAddr) -> None:
        lease = self._leases.pop(mac, None)
        if lease is not None:
            heapq.heappush(self._returned, lease[0])


class DhcpServer:
    """Server half of the DORA exchange.

    ``step`` consumes one inbound message and returns the reply to send,
    or ``None`` when the protocol calls for silence (exhausted pool on
    DISCOVER, REQUEST naming some other server).
    """

    def __init__(
        self,
        server_id: Ipv4Addr,
        pool: AddressPool,
        gateway: Ipv4Addr,
        dns: Ipv4Addr,
        lease_secs: int = 3600,
    ):
        self.server_id = server_id
        self.pool = pool
        self.gateway = gateway
        self.dns = dns
        self.lease_secs = lease_secs
        self._offered: dict[tuple[int, MacAddr], Ipv4Addr] = {}

    def _reply(self, msg_type: MsgType, msg: DhcpMessage, your_ip: Ipv4Addr) -> DhcpMessage:
        return DhcpMessage(
            msg_type=msg_type,
            xid=msg.xid,
            client_mac=msg.client_mac,
            your_ip=your_ip,
            server_id=self.server_id,
            gateway=self.gateway,
            dns=self.dns,
            lease_secs=self.lease_secs,
        )

    def step(self, msg: DhcpMessage, now: float) -> Optional[DhcpMessage]:
        if msg.msg_type is MsgType.DISCOVER:
            try:
                ip = self.pool.allocate(msg.client_mac, now, self.lease_secs)
            except PoolExhausted:
                return None
            self._offered[(msg.xid, msg.client_mac)] = ip
            return self._reply(MsgType.OFFER, msg, ip)

        if msg.msg_type is MsgType.REQUEST:
            if msg.server_id != self.server_id:
                # Client chose another server; free the tentative lease.
                self.pool.release(msg.client_mac)
                self._offered.pop((msg.xid, msg.client_mac), None)
                return None
            promised = self._offered.pop((msg.xid, msg.client_mac), None)
            if promised is None:
                promised = self.pool.lease_for(msg.client_mac, now)
            if promised is None or promised != msg.your_ip:
                return self._reply(MsgType.NAK, msg, UNASSIGNED)
            self.pool.allocate(msg.client_mac, now, self.lease_secs)
            return self._reply(MsgType.ACK, msg, promised)

        if msg.msg_type is MsgType.RELEASE:
            self.pool.release(msg.client_mac)
            return None

        return None


@dataclass(frozen=True)
class Binding:
    """Network parameters a client ends up holding after DORA."""

    ip: Ipv4Addr
    server_id: Ipv4Addr
    gateway: Ipv4Addr
    dns: Ipv4Addr
    lease_secs: int


class ClientState(IntEnum):
    INIT = 0
    SELECTING = 1
    REQUESTING = 2
    BOUND = 3


class DhcpClient:
    """Naive client half of DORA: the first matching OFFER wins the race.

    As RFC 2131 section 4.4.1 has it, the REQUEST names the server whose
    OFFER won, and only that server's ACK binds the client.
    """

    def __init__(self, mac: MacAddr, xid_source: Callable[[], int]):
        self.mac = mac
        self._next_xid = xid_source
        self.state = ClientState.INIT
        self.xid = 0
        self.server_id = UNASSIGNED
        self.binding: Optional[Binding] = None

    def discover(self) -> DhcpMessage:
        """Start (or restart) the exchange with a fresh transaction id."""
        self.xid = self._next_xid()
        self.state = ClientState.SELECTING
        return DhcpMessage(MsgType.DISCOVER, self.xid, self.mac)

    def step(self, msg: DhcpMessage) -> Optional[DhcpMessage]:
        if msg.client_mac != self.mac or msg.xid != self.xid:
            return None
        if self.state is ClientState.SELECTING and msg.msg_type is MsgType.OFFER:
            self.state = ClientState.REQUESTING
            self.server_id = msg.server_id
            return DhcpMessage(
                MsgType.REQUEST,
                self.xid,
                self.mac,
                your_ip=msg.your_ip,
                server_id=msg.server_id,
                lease_secs=msg.lease_secs,
            )
        if (self.state is ClientState.REQUESTING and msg.msg_type is MsgType.ACK
                and msg.server_id == self.server_id):
            self.state = ClientState.BOUND
            self.binding = Binding(
                ip=msg.your_ip,
                server_id=msg.server_id,
                gateway=msg.gateway,
                dns=msg.dns,
                lease_secs=msg.lease_secs,
            )
            return None
        if self.state is ClientState.REQUESTING and msg.msg_type is MsgType.NAK:
            self.state = ClientState.INIT
            self.binding = None
            return None
        return None
