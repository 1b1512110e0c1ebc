"""Deterministic discrete-event simulation of one LAN segment.

A :class:`Scenario` describes a topology plus per-class traffic rates;
``run_scenario`` turns it into an ordered, ground-truth-labeled event
trace.  The same seed always produces the same trace byte for byte.

Scenario kinds
--------------
rogue-race   a rogue server answers client DISCOVERs faster than the
             legitimate one and hands out a bad gateway/DNS.
starvation   an attacker floods spoofed-MAC DISCOVERs until the
             legitimate pool is empty; the rogue then serves real
             clients.
masquerade   clients bound to the rogue gateway have their flows relayed
             through the attacker (man-in-the-middle).
dos-syn      SYN-only flood from spoofed sources, varied payloads.
dos-smurf    ICMP echo flood to the broadcast address, spoofed victim.
dos-dns      repeated identical queries against the resolver.
mixed        all of the above plus u2r / r2l / probe traffic.

Rate semantics: ``rates`` maps a traffic class to events per simulated
second.  Rate-driven generators emit ``round(rate * active_span)``
events at sorted uniform times (a Poisson process conditioned on its
expected count, so per-class counts are exact by construction).  The
rogue generator is reactive; for it a positive rate simply means
"enabled".  In the starvation kind the DOS rate is the flood speed and
the flood size is ``spoofed_macs``.
"""

from __future__ import annotations

import heapq
import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Optional, Union

from .dhcp import (
    AddressPool,
    BadChecksum,
    Binding,
    DhcpClient,
    DhcpCodecError,
    DhcpMessage,
    DhcpServer,
    MacAddr,
    MsgType,
    BODY_SIZE,
    MAX_IPV4,
    MAX_LEASE_SECS,
    decode_message,
    encode_message,
    format_ipv4,
    format_mac,
    parse_ipv4,
)
from .trace import (
    BROADCAST,
    MAX_DURATION,
    NODE_ID_BITS,
    AttackClass,
    DhcpPayload,
    GenericPayload,
    NodeSpec,
    Payload,
    Proto,
    Role,
    SimEvent,
    is_int,
    is_number,
    refused,
)

TRACE_SCHEMA = "dhcpguard-trace/1"

_NODE_ID_LIMIT = 1 << NODE_ID_BITS

#: most events one rate (``rate * duration``), flood or client count may
#: ask of a run; above the ~8.5e6 rate-driven events of a default mixed
#: run of MAX_DURATION
MAX_EVENTS = 10**7

#: largest generic payload a trace may carry; the anomaly metrics divide
#: sums of sizes as floats, so a size needs a bound, and 2^32 is far above
#: any flow the simulator emits
MAX_SIZE_BYTES = 2**32

ROUTER_IP = parse_ipv4("10.0.0.1")
LEGIT_SERVER_IP = parse_ipv4("10.0.0.2")
ROGUE_SERVER_IP = parse_ipv4("10.0.66.1")
ATTACKER_IP = parse_ipv4("10.0.66.66")
LEGIT_POOL_START = parse_ipv4("10.0.1.1")
ROGUE_POOL = (parse_ipv4("10.0.66.100"), parse_ipv4("10.0.66.250"))

_BG_PATTERNS = (
    b"GET /index.html HTTP/1.1 200",
    b"dns:query:files.intranet.local",
    b"tcp:keepalive",
    b"udp:clock-sync",
)

# Flag sets the generators share, instead of one new frozenset per event.
_NO_FLAGS: frozenset[str] = frozenset()
_ACK = frozenset({"ack"})
_SYN = frozenset({"syn"})


class ScenarioKind(str, Enum):
    ROGUE_RACE = "rogue-race"
    STARVATION = "starvation"
    MASQUERADE = "masquerade"
    DOS_SMURF = "dos-smurf"
    DOS_SYN = "dos-syn"
    DOS_DNS = "dos-dns"
    MIXED = "mixed"


class InvalidScenario(ValueError):
    pass


@dataclass
class Scenario:
    kind: ScenarioKind
    duration: float
    seed: int
    rates: dict[AttackClass, float] = field(default_factory=dict)
    topology: list[NodeSpec] = field(default_factory=list)
    clients: int = 5
    pool_size: int = 50
    spoofed_macs: int = 60
    attack_start: float = 0.0
    lease_secs: int = 300
    rogue_answers_requests: bool = True
    tamper: bool = False
    sig_share: float = 0.5

    def validate(self) -> None:
        if not 0 < self.duration <= MAX_DURATION:  # NaN included
            raise InvalidScenario(
                f"duration must be in (0, {MAX_DURATION:g}], got {self.duration}")
        for cls, rate in self.rates.items():
            # The rogue only reacts to clients and the starvation flood's size
            # is spoofed_macs: these two rates set no event count.
            if cls is AttackClass.ROGUE_DHCP or (
                    cls is AttackClass.DOS and self.kind is ScenarioKind.STARVATION):
                if not 0 <= rate < math.inf:  # NaN included
                    raise InvalidScenario(
                        f"rate for {cls.value} must be finite and >= 0, got {rate}")
            elif not 0 <= rate * self.duration <= MAX_EVENTS:  # NaN and inf included
                raise InvalidScenario(
                    f"rate for {cls.value} must be in [0, {MAX_EVENTS / self.duration:g}] "
                    f"events/s over {self.duration:g} s, got {rate}")
        ids = [n.id for n in self.topology]
        if len(ids) != len(set(ids)):
            raise InvalidScenario("duplicate node ids in topology")
        if not 0 <= self.attack_start <= self.duration:
            raise InvalidScenario("attack_start outside [0, duration]")
        max_pool = MAX_IPV4 - LEGIT_POOL_START + 1
        if not 1 <= self.pool_size <= max_pool:
            raise InvalidScenario(f"pool_size must be in [1, {max_pool}], got {self.pool_size}")
        if not 0 <= self.spoofed_macs <= MAX_EVENTS:
            raise InvalidScenario(
                f"spoofed_macs must be in [0, {MAX_EVENTS}], got {self.spoofed_macs}")
        if not self.topology and not 1 <= self.clients <= MAX_EVENTS:
            raise InvalidScenario(f"clients must be in [1, {MAX_EVENTS}], got {self.clients}")
        if not 0 <= self.lease_secs <= MAX_LEASE_SECS:
            raise InvalidScenario(
                f"lease_secs must be in [0, {MAX_LEASE_SECS}], got {self.lease_secs}")
        if not 0.0 <= self.sig_share <= 1.0:  # NaN included
            raise InvalidScenario(f"sig_share must be in [0, 1], got {self.sig_share}")


@dataclass
class Trace:
    kind: ScenarioKind
    seed: int
    duration: float
    topology: list[NodeSpec]
    events: list[SimEvent]


def node_mac(node_id: int) -> MacAddr:
    """Locally-administered MAC derived from the node id."""
    return ((0x02 << NODE_ID_BITS) | node_id).to_bytes(6, "big")


def spoofed_mac(i: int) -> MacAddr:
    return ((0x0A << 40) | (i + 1)).to_bytes(6, "big")


def default_topology(kind: ScenarioKind, clients: int = 5) -> list[NodeSpec]:
    """Router, both DHCP servers, a remote attacker and a client ring.

    The attacker sits far beyond its own radio range so that traffic it
    relays trips the range check; everything else is within range.
    """
    nodes = [
        NodeSpec(0, Role.ROUTER, (0.0, 0.0), radio_range=500.0, link_latency=0.001),
        NodeSpec(1, Role.LEGIT_DHCP, (10.0, 0.0), radio_range=500.0, link_latency=0.02),
        # Rogue answers at half the legitimate server's latency.
        NodeSpec(2, Role.ROGUE_DHCP, (20.0, 10.0), radio_range=500.0, link_latency=0.01),
        NodeSpec(3, Role.ATTACKER, (400.0, 0.0), radio_range=100.0, link_latency=0.003),
    ]
    for i in range(clients):
        angle = 2.0 * math.pi * i / max(clients, 1)
        pos = (30.0 * math.cos(angle), 30.0 * math.sin(angle))
        nodes.append(NodeSpec(4 + i, Role.CLIENT, pos, radio_range=100.0, link_latency=0.005))
    return nodes


_DEFAULT_RATES: dict[ScenarioKind, dict[AttackClass, float]] = {
    ScenarioKind.ROGUE_RACE: {AttackClass.ROGUE_DHCP: 1.0},
    ScenarioKind.STARVATION: {AttackClass.DOS: 120.0, AttackClass.ROGUE_DHCP: 1.0},
    ScenarioKind.MASQUERADE: {AttackClass.ROGUE_DHCP: 1.0, AttackClass.MASQUERADE: 5.0},
    ScenarioKind.DOS_SYN: {AttackClass.DOS: 200.0, AttackClass.NONE: 20.0},
    ScenarioKind.DOS_SMURF: {AttackClass.DOS: 100.0, AttackClass.NONE: 10.0},
    ScenarioKind.DOS_DNS: {AttackClass.DOS: 100.0, AttackClass.NONE: 10.0},
    ScenarioKind.MIXED: {
        AttackClass.ROGUE_DHCP: 1.0,
        AttackClass.DOS: 50.0,
        AttackClass.U2R: 5.0,
        AttackClass.R2L: 5.0,
        AttackClass.PROBE: 5.0,
        AttackClass.NONE: 20.0,
    },
}


def default_scenario(kind: ScenarioKind, seed: int, duration: float = 60.0, **overrides) -> Scenario:
    """Scenario with per-kind default rates; ``overrides`` set any field."""
    rates = dict(_DEFAULT_RATES[kind])
    rates.update(overrides.pop("rates", {}))
    sc = Scenario(kind=kind, duration=duration, seed=seed, rates=rates, **overrides)
    if kind is ScenarioKind.STARVATION and "attack_start" not in overrides:
        sc.attack_start = min(5.0, duration / 2.0)
    return sc


def class_counts(events: Iterable[SimEvent]) -> Counter:
    counts: Counter = Counter()
    for ev in events:
        counts[ev.ground_truth] += 1
    return counts


class _Lan:
    """Single-run event engine; all state is private to the run."""

    def __init__(self, sc: Scenario):
        sc.validate()
        self.sc = sc
        self.rng = random.Random(sc.seed)
        self.topology = list(sc.topology) if sc.topology else default_topology(sc.kind, sc.clients)
        if not self.topology:
            raise InvalidScenario("empty topology")
        self.nodes = {n.id: n for n in self.topology}
        self.duration = sc.duration
        self.trace: list[SimEvent] = []
        self._heap: list[tuple[float, int, Callable[[float], None]]] = []
        self._seq = 0

        by_role: dict[Role, list[NodeSpec]] = {}
        for n in sorted(self.topology, key=lambda n: n.id):
            by_role.setdefault(n.role, []).append(n)
        self.router = (by_role.get(Role.ROUTER) or [None])[0]
        self.legit_node = (by_role.get(Role.LEGIT_DHCP) or [None])[0]
        self.rogue_node = (by_role.get(Role.ROGUE_DHCP) or [None])[0]
        self.attacker = (by_role.get(Role.ATTACKER) or [None])[0]
        self.client_nodes = by_role.get(Role.CLIENT, [])
        self._client_ids = [n.id for n in self.client_nodes]
        self._check_roles()

        self.legit_server = DhcpServer(
            server_id=LEGIT_SERVER_IP,
            pool=AddressPool(LEGIT_POOL_START, LEGIT_POOL_START + sc.pool_size - 1,
                             sc.lease_secs),
            gateway=ROUTER_IP,
            dns=ROUTER_IP,
            lease_secs=sc.lease_secs,
        )
        self.rogue_server: Optional[DhcpServer] = None
        if self.rogue_node is not None:
            self.rogue_server = DhcpServer(
                server_id=ROGUE_SERVER_IP,
                pool=AddressPool(*ROGUE_POOL, sc.lease_secs),
                gateway=ATTACKER_IP,
                dns=ATTACKER_IP,
                lease_secs=sc.lease_secs,
            )

        self.clients: dict[int, DhcpClient] = {
            n.id: DhcpClient(node_mac(n.id), lambda: self.rng.getrandbits(32))
            for n in self.client_nodes
        }
        self.mac_owner: dict[MacAddr, int] = {node_mac(n.id): n.id for n in self.client_nodes}
        self.bindings: dict[int, Binding] = {}
        self.exhausted_at: Optional[float] = None

    # -- setup ---------------------------------------------------------

    def _rate(self, cls: AttackClass) -> float:
        return self.sc.rates.get(cls, 0.0)

    def _check_roles(self) -> None:
        need: set[Role] = {Role.CLIENT, Role.LEGIT_DHCP}
        if self._rate(AttackClass.ROGUE_DHCP) > 0:
            need.add(Role.ROGUE_DHCP)
        if self._rate(AttackClass.MASQUERADE) > 0:
            need |= {Role.ROGUE_DHCP, Role.ATTACKER, Role.ROUTER}
        if self._rate(AttackClass.DOS) > 0:
            need |= {Role.ATTACKER, Role.ROUTER}
        if self._rate(AttackClass.NONE) > 0 or self._rate(AttackClass.U2R) > 0:
            need.add(Role.ROUTER)
        if self._rate(AttackClass.R2L) > 0 or self._rate(AttackClass.PROBE) > 0:
            need |= {Role.ATTACKER, Role.ROUTER}
        present = {n.role for n in self.topology}
        missing = need - present
        if missing:
            raise InvalidScenario(
                f"{self.sc.kind.value} scenario is missing roles: "
                + ", ".join(sorted(r.value for r in missing))
            )

    def schedule(self, t: float, fn: Callable[[float], None]) -> None:
        if t >= self.duration:
            return
        self._seq += 1
        heapq.heappush(self._heap, (t, self._seq, fn))

    def _uniform_times(self, n: int, lo: float, hi: float) -> list[float]:
        return sorted(lo + self.rng.random() * (hi - lo) for _ in range(n))

    def _schedule_rate_driven(self, cls: AttackClass, fn: Callable[[float], None],
                              lo: float, hi: float) -> None:
        rate = self._rate(cls)
        if rate <= 0 or hi <= lo:
            return
        n = round(rate * (hi - lo))
        for t in self._uniform_times(n, lo, hi):
            self.schedule(t, fn)

    def _setup(self) -> None:
        sc = self.sc
        late_start: Optional[float] = None
        flood_span = 0.0
        if sc.kind is ScenarioKind.STARVATION and self._rate(AttackClass.DOS) > 0:
            flood_span = sc.spoofed_macs / self._rate(AttackClass.DOS)
            late_start = min(sc.attack_start + flood_span + 2.0, self.duration * 0.98)

        for i, node in enumerate(self.client_nodes):
            if late_start is not None and i == len(self.client_nodes) - 1:
                start = late_start
            else:
                start = self.rng.uniform(0.1, min(2.0, self.duration * 0.4))
            self.schedule(start, self._make_client_start(node.id))

        if sc.kind is ScenarioKind.STARVATION:
            rate = self._rate(AttackClass.DOS)
            if rate > 0 and self.attacker is not None:
                times = self._uniform_times(sc.spoofed_macs, sc.attack_start,
                                            sc.attack_start + flood_span)
                for i, t in enumerate(times):
                    self.schedule(t, self._make_spoofed_discover(i))
        elif sc.kind in (ScenarioKind.DOS_SYN, ScenarioKind.DOS_SMURF, ScenarioKind.DOS_DNS):
            fn = {
                ScenarioKind.DOS_SYN: self._dos_syn,
                ScenarioKind.DOS_SMURF: self._dos_smurf,
                ScenarioKind.DOS_DNS: self._dos_dns,
            }[sc.kind]
            self._schedule_rate_driven(AttackClass.DOS, fn, sc.attack_start, self.duration)
        elif sc.kind is ScenarioKind.MIXED:
            self._schedule_rate_driven(AttackClass.DOS, self._dos_syn, sc.attack_start, self.duration)

        self._schedule_rate_driven(AttackClass.U2R, self._u2r, sc.attack_start, self.duration)
        self._schedule_rate_driven(AttackClass.R2L, self._r2l, sc.attack_start, self.duration)
        self._schedule_rate_driven(AttackClass.PROBE, self._probe, sc.attack_start, self.duration)
        self._schedule_rate_driven(AttackClass.MASQUERADE, self._victim_flow,
                                   sc.attack_start, self.duration)
        self._schedule_rate_driven(AttackClass.NONE, self._background_flow, 0.0, self.duration)

    # -- emission ------------------------------------------------------

    def _emit_generic(self, t: float, src: int, dst: int, payload: GenericPayload,
                      label: AttackClass) -> None:
        self.trace.append(SimEvent(t, src, dst, payload, label))

    def _emit_dhcp(self, t: float, src: int, dst: int, msg: DhcpMessage,
                   label: AttackClass, corrupt: bool = False) -> None:
        if corrupt:
            raw = bytearray(encode_message(msg))
            pos = self.rng.randrange(BODY_SIZE)
            raw[pos] ^= 1 << self.rng.randrange(8)
            payload = DhcpPayload(raw=bytes(raw), message=None, error=BadChecksum.reason)
        else:
            payload = DhcpPayload(raw=encode_message(msg), message=msg)
        self.trace.append(SimEvent(t, src, dst, payload, label))
        if payload.message is None:
            return

        if msg.msg_type in (MsgType.DISCOVER, MsgType.REQUEST, MsgType.RELEASE):
            self._legit_handle(t, msg)
            self._rogue_handle(t, msg)
        elif dst in self.clients:
            self._client_handle(t, dst, msg)

        # Content-modification attack: the attacker re-injects a corrupted
        # copy of every legitimate OFFER it observes.
        if (
            self.sc.tamper
            and not corrupt
            and self.attacker is not None
            and msg.msg_type is MsgType.OFFER
            and src == self.legit_node.id
        ):
            copy = msg
            self.schedule(
                t + self.attacker.link_latency,
                lambda t2: self._emit_dhcp(t2, self.attacker.id, dst, copy,
                                           AttackClass.MASQUERADE, corrupt=True),
            )

    # -- node behaviors ------------------------------------------------

    def _make_client_start(self, node_id: int) -> Callable[[float], None]:
        def start(t: float) -> None:
            msg = self.clients[node_id].discover()
            self.mac_owner[msg.client_mac] = node_id
            self._emit_dhcp(t, node_id, BROADCAST, msg, AttackClass.NONE)

        return start

    def _legit_handle(self, t: float, msg: DhcpMessage) -> None:
        resp = self.legit_server.step(msg, t)
        if (
            self.exhausted_at is None
            and msg.msg_type is MsgType.DISCOVER
            and self.legit_server.pool.free_count(t) == 0
        ):
            self.exhausted_at = t
        if resp is None:
            return
        dst = self.mac_owner.get(resp.client_mac, BROADCAST)
        self.schedule(
            t + self.legit_node.link_latency,
            lambda t2: self._emit_dhcp(t2, self.legit_node.id, dst, resp, AttackClass.NONE),
        )

    def _rogue_active(self, t: float) -> bool:
        if self.rogue_server is None or self._rate(AttackClass.ROGUE_DHCP) <= 0:
            return False
        if self.sc.kind is ScenarioKind.STARVATION:
            return self.exhausted_at is not None and t >= self.exhausted_at
        return True

    def _rogue_handle(self, t: float, msg: DhcpMessage) -> None:
        if not self._rogue_active(t):
            return
        if msg.msg_type is MsgType.REQUEST and not self.sc.rogue_answers_requests:
            return
        resp = self.rogue_server.step(msg, t)
        if resp is None:
            return
        dst = self.mac_owner.get(resp.client_mac, BROADCAST)
        self.schedule(
            t + self.rogue_node.link_latency,
            lambda t2: self._emit_dhcp(t2, self.rogue_node.id, dst, resp, AttackClass.ROGUE_DHCP),
        )

    def _client_handle(self, t: float, node_id: int, msg: DhcpMessage) -> None:
        client = self.clients[node_id]
        before = client.binding
        resp = client.step(msg)
        node = self.nodes[node_id]
        if resp is not None:
            self.schedule(
                t + node.link_latency,
                lambda t2: self._emit_dhcp(t2, node_id, BROADCAST, resp, AttackClass.NONE),
            )
        if client.binding is not None and client.binding is not before:
            self.bindings[node_id] = client.binding
            renew_at = t + client.binding.lease_secs * 0.5 + self.rng.uniform(0.0, 2.0)
            if renew_at < self.duration:
                self.schedule(renew_at, self._make_client_start(node_id))

    # -- traffic generators --------------------------------------------

    def _send_flow(self, t: float, src: int, payload: GenericPayload, label: AttackClass) -> None:
        binding = self.bindings.get(src)
        if binding is not None and self.attacker is not None and binding.gateway == ATTACKER_IP:
            # Diverted by the rogue-assigned gateway: relay via the attacker.
            self._emit_generic(t, src, self.attacker.id, payload, AttackClass.MASQUERADE)
            pattern = payload.payload_pattern
            if self.sc.tamper and pattern:
                mutated = bytearray(pattern)
                mutated[self.rng.randrange(len(mutated))] ^= 0xFF
                pattern = bytes(mutated)
            relay = GenericPayload(payload.proto, payload.flags, payload.size_bytes, pattern)
            self.schedule(
                t + self.attacker.link_latency,
                lambda t2: self._emit_generic(t2, self.attacker.id, self.router.id, relay,
                                              AttackClass.MASQUERADE),
            )
        else:
            self._emit_generic(t, src, self.router.id, payload, label)

    def _benign_payload(self) -> GenericPayload:
        proto = self.rng.choice((Proto.TCP, Proto.UDP, Proto.DNS))
        flags = _ACK if proto is Proto.TCP else _NO_FLAGS
        pattern = self.rng.choice(_BG_PATTERNS) + b" #%06x" % self.rng.getrandbits(24)
        return GenericPayload(proto, flags, self.rng.randint(120, 1380), pattern)

    def _background_flow(self, t: float) -> None:
        src = self.rng.choice(self._client_ids)
        self._send_flow(t, src, self._benign_payload(), AttackClass.NONE)

    def _victim_flow(self, t: float) -> None:
        diverted = sorted(
            nid for nid, b in self.bindings.items() if b.gateway == ATTACKER_IP
        )
        src = self.rng.choice(diverted) if diverted else self.rng.choice(self._client_ids)
        self._send_flow(t, src, self._benign_payload(), AttackClass.NONE)

    def _make_spoofed_discover(self, i: int) -> Callable[[float], None]:
        def flood(t: float) -> None:
            mac = spoofed_mac(i)
            self.mac_owner[mac] = self.attacker.id
            msg = DhcpMessage(MsgType.DISCOVER, self.rng.getrandbits(32), mac)
            self._emit_dhcp(t, self.attacker.id, BROADCAST, msg, AttackClass.DOS)

        return flood

    def _dos_syn(self, t: float) -> None:
        src = self.rng.choice(self._client_ids)  # spoofed source
        payload = GenericPayload(
            Proto.TCP,
            _SYN,
            self.rng.randint(40, 64),
            b"syn:%08x" % self.rng.getrandbits(32),
        )
        self._emit_generic(t, src, self.router.id, payload, AttackClass.DOS)

    def _dos_smurf(self, t: float) -> None:
        victim = self.rng.choice(self._client_ids)  # spoofed victim source
        payload = GenericPayload(Proto.ICMP, _NO_FLAGS, 84, b"icmp:echo-request:amplify")
        self._emit_generic(t, victim, BROADCAST, payload, AttackClass.DOS)

    def _dos_dns(self, t: float) -> None:
        payload = GenericPayload(
            Proto.DNS, _NO_FLAGS, self.rng.randint(60, 90), b"dns:query:target.zone.example"
        )
        self._emit_generic(t, self.attacker.id, self.router.id, payload, AttackClass.DOS)

    def _u2r(self, t: float) -> None:
        # Long-lived root session; sizes far above the benign band.
        if self.rng.random() < self.sc.sig_share:
            pattern = b"exec su root; status:645 audit-off"
        else:
            pattern = b"sess:%08x keepalive" % self.rng.getrandbits(32)
        src = self.rng.choice(self._client_ids)
        payload = GenericPayload(Proto.TCP, _ACK,
                                 self.rng.randint(8000, 20000), pattern)
        self._emit_generic(t, src, self.router.id, payload, AttackClass.U2R)

    def _r2l(self, t: float) -> None:
        if self.rng.random() < self.sc.sig_share:
            pattern = b"telnet root login failed try=%02d" % self.rng.randint(0, 99)
        else:
            pattern = b"auth user=%06x password=****" % self.rng.getrandbits(24)
        dst = self.rng.choice(self._client_ids)
        payload = GenericPayload(Proto.TCP, _ACK,
                                 self.rng.randint(80, 240), pattern)
        self._emit_generic(t, self.attacker.id, dst, payload, AttackClass.R2L)

    def _probe(self, t: float) -> None:
        if self.rng.random() < self.sc.sig_share:
            pattern = b"GET /admin HTTP/1.1 403 forbidden"
            src, dst = self.attacker.id, self.rng.choice(self._client_ids)
            size = self.rng.randint(80, 240)
        else:
            # Scan traffic padded on top of an ordinary-looking payload.
            pattern = self.rng.choice(_BG_PATTERNS) + b" pad:%016x" % self.rng.getrandbits(64)
            src, dst = self.rng.choice(self._client_ids), self.router.id
            size = self.rng.randint(1600, 2600)
        payload = GenericPayload(Proto.TCP, _SYN, size, pattern)
        self._emit_generic(t, src, dst, payload, AttackClass.PROBE)

    # -- run -----------------------------------------------------------

    def run(self) -> list[SimEvent]:
        self._setup()
        while self._heap:
            t, _, fn = heapq.heappop(self._heap)
            fn(t)
        return self.trace


def run_scenario(scenario: Scenario) -> Trace:
    """Simulate one run.  Identical scenarios produce identical traces."""
    lan = _Lan(scenario)
    events = lan.run()
    return Trace(
        kind=scenario.kind,
        seed=scenario.seed,
        duration=scenario.duration,
        topology=lan.topology,
        events=events,
    )


# -- trace serialization ------------------------------------------------


def _node_to_json(node: NodeSpec) -> dict:
    return {
        "id": node.id,
        "role": node.role.value,
        "position": [node.position[0], node.position[1]],
        "radio_range": node.radio_range,
        "link_latency": node.link_latency,
    }


def _one_of(enum: type[Enum]) -> str:
    return "one of " + ", ".join(member.value for member in enum)


def _node_from_json(data) -> NodeSpec:
    """One node of a topology list; a malformed field raises naming it and its value."""
    if type(data) is not dict:
        raise refused("node", "an object", data)
    node_id, role, position = data["id"], data["role"], data["position"]
    if not is_int(node_id):
        raise refused("id", "an integer", node_id)
    if role not in [r.value for r in Role]:
        raise refused("role", _one_of(Role), role)
    if not (type(position) is list and len(position) == 2 and all(map(is_number, position))):
        raise refused("position", "a list of two numbers", position)
    for key in ("radio_range", "link_latency"):
        if not is_number(data[key]):
            raise refused(key, "a number", data[key])
    return NodeSpec(node_id, Role(role), (float(position[0]), float(position[1])),
                    float(data["radio_range"]), float(data["link_latency"]))


#: most distinct flag sets :func:`event_from_json` keeps a shared copy of
FLAG_SETS_MAX = 64
# A trace holds a handful of distinct flag sets, so each event read keeps
# one of a few shared frozensets instead of its own.  A full table is
# emptied, so hostile input cannot grow it, and the sets of a later trace
# are shared again.
_flag_sets: dict[frozenset[str], frozenset[str]] = {}
# The JSON text of each flag set :func:`write_trace` meets, bounded the same
# way, since it also rewrites traces read from hostile files.
_flags_text: dict[frozenset[str], str] = {}
_PROTO_TEXT = {proto: json.dumps(proto.value) for proto in Proto}
_LABEL_TEXT = {label: json.dumps(label.value) for label in AttackClass}
# Value -> member tables: a lookup here is no call, unlike ``Proto(value)``.
_PROTOS = {proto.value: proto for proto in Proto}
_LABELS = {label.value: label for label in AttackClass}


def _flag_set(flags) -> frozenset[str]:
    """The shared frozenset of a ``flags`` field, which must be a list of strings."""
    try:
        flag_set = frozenset(flags) if type(flags) is list else None
    except TypeError:  # an unhashable element
        flag_set = None
    shared = _flag_sets.get(flag_set)
    if shared is None:
        # Only sets of strings enter the table, and no other JSON value
        # equals a string, so a set found there needs no further check.
        if flag_set is None or not all(type(f) is str for f in flag_set):
            raise refused("flags", "a list of strings", flags)
        if len(_flag_sets) >= FLAG_SETS_MAX:
            _flag_sets.clear()
        shared = _flag_sets[flag_set] = flag_set
    return shared


def event_from_json(data: dict) -> SimEvent:
    """One trace line's event; a field that breaks its type or bounds raises naming it.

    This runs once per line, so each field is checked inline rather than
    through a helper call.
    """
    if type(data) is not dict:
        raise refused("event", "an object", data)
    time = data["time"]
    if type(time) is not float and is_number(time):
        time = float(time)
    if type(time) is not float or not math.isfinite(time):
        raise refused("time", "a finite number", time)
    payload_data = data["payload"]
    if type(payload_data) is not dict:
        raise refused("payload", "an object", payload_data)
    kind = payload_data["kind"]
    if kind == "dhcp":
        hex_data = payload_data["data"]
        try:
            raw = bytes.fromhex(hex_data)
            if 2 * len(raw) != len(hex_data):  # fromhex skips spaces
                raise ValueError
        except (TypeError, ValueError):
            raise refused("data", "a hex string", hex_data) from None
        try:
            payload: Payload = DhcpPayload(raw=raw, message=decode_message(raw))
        except DhcpCodecError as exc:
            payload = DhcpPayload(raw=raw, message=None, error=exc.reason)
    elif kind == "generic":
        size = payload_data["size_bytes"]
        if type(size) is not int or not 0 < size <= MAX_SIZE_BYTES:
            raise refused("size_bytes", "an integer in [1, 2^32]", size)
        proto = payload_data["proto"]
        try:
            proto = _PROTOS[proto]
        except (KeyError, TypeError):  # TypeError: an unhashable list or object
            raise refused("proto", _one_of(Proto), proto) from None
        hex_pattern = payload_data["payload_pattern"]
        try:
            pattern = bytes.fromhex(hex_pattern)
            if 2 * len(pattern) != len(hex_pattern):
                raise ValueError
        except (TypeError, ValueError):
            raise refused("payload_pattern", "a hex string", hex_pattern) from None
        payload = GenericPayload(proto, _flag_set(payload_data["flags"]), size, pattern)
    else:
        raise refused("kind", "dhcp or generic", kind)
    src = data["src"]
    if type(src) is not int or not 0 <= src < _NODE_ID_LIMIT:
        raise refused("src", f"an integer in [0, 2^{NODE_ID_BITS})", src)
    dst = data["dst"]
    if dst == "broadcast":
        dst = BROADCAST
    elif type(dst) is not int or not 0 <= dst < _NODE_ID_LIMIT:
        raise refused("dst", f"an integer in [0, 2^{NODE_ID_BITS}) or broadcast", dst)
    label = data["ground_truth"]
    try:
        label = _LABELS[label]
    except (KeyError, TypeError):
        raise refused("ground_truth", _one_of(AttackClass), label) from None
    return SimEvent(time, src, dst, payload, label)


def write_trace(trace: Trace, path: Union[str, Path]) -> None:
    header = {
        "schema": TRACE_SCHEMA,
        "kind": trace.kind.value,
        "seed": trace.seed,
        "duration": trace.duration,
        "topology": [_node_to_json(n) for n in sorted(trace.topology, key=lambda n: n.id)],
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n")
        # Each line is the bytes json.dumps(..., sort_keys=True, separators=(",", ":"))
        # writes, from one template per payload kind with its keys in sorted order.
        for ev in trace.events:
            payload = ev.payload
            if isinstance(payload, DhcpPayload):
                payload = f'{{"data":"{payload.raw.hex()}","kind":"dhcp"}}'
            else:
                flags = _flags_text.get(payload.flags)
                if flags is None:
                    if len(_flags_text) >= FLAG_SETS_MAX:
                        _flags_text.clear()
                    flags = _flags_text[payload.flags] = json.dumps(sorted(payload.flags),
                                                                    separators=(",", ":"))
                payload = (f'{{"flags":{flags},"kind":"generic",'
                           f'"payload_pattern":"{payload.payload_pattern.hex()}",'
                           f'"proto":{_PROTO_TEXT[payload.proto]},'
                           f'"size_bytes":{payload.size_bytes}}}')
            dst = '"broadcast"' if ev.dst == BROADCAST else ev.dst
            # repr is json's text for every int and finite float; t - t is NaN
            # for NaN and the infinities, which json spells differently.
            time = repr(ev.time) if ev.time - ev.time == 0 else json.dumps(ev.time)
            fh.write(f'{{"dst":{dst},"ground_truth":{_LABEL_TEXT[ev.ground_truth]},'
                     f'"payload":{payload},"src":{ev.src},"time":{time}}}\n')


# What reading hostile JSON can raise: a missing key, a value of the wrong
# type or bounds, a document that is not an object where one is indexed,
# and nesting deeper than the recursion limit.
INPUT_ERRORS = (LookupError, TypeError, ValueError, RecursionError)


def _input_error(exc: Exception) -> str:
    """Readable reason for a parse failure of JSON-decoded input."""
    if isinstance(exc, KeyError):
        return f"missing {exc}"
    return str(exc) or type(exc).__name__


def _nodes_from_json(nodes) -> list[NodeSpec]:
    if type(nodes) is not list:
        raise refused("topology", "a list of nodes", nodes)
    topology = []
    index_of: dict[int, int] = {}
    for i, node in enumerate(nodes):
        try:
            spec = _node_from_json(node)
        except INPUT_ERRORS as exc:
            raise ValueError(f"topology node {i}: {_input_error(exc)}") from None
        if spec.id in index_of:
            raise ValueError(f"topology nodes {index_of[spec.id]} and {i} share id {spec.id}")
        index_of[spec.id] = i
        topology.append(spec)
    return topology


def _read_header(fh, path: Union[str, Path]) -> Trace:
    """The trace of the header on ``fh``'s first line, with no events yet."""
    header_line = fh.readline()
    if not header_line:
        raise ValueError(f"{path}: empty trace file")
    try:
        header = json.loads(header_line)
        if not isinstance(header, dict):
            raise ValueError("not a JSON object")
        if header.get("schema") != TRACE_SCHEMA:
            raise ValueError(f"unsupported schema {header.get('schema')!r}")
        kind, seed, duration = header["kind"], header["seed"], header["duration"]
        if kind not in [k.value for k in ScenarioKind]:
            raise refused("kind", _one_of(ScenarioKind), kind)
        if not is_int(seed):
            raise refused("seed", "an integer", seed)
        if not (is_number(duration) and 0 < duration <= MAX_DURATION):  # NaN included
            raise refused("duration", f"a number in (0, {MAX_DURATION:g}]", duration)
        topology = _nodes_from_json(header.get("topology", []))
    except INPUT_ERRORS as exc:
        raise ValueError(f"{path}: bad trace header: {_input_error(exc)}") from None
    return Trace(kind=ScenarioKind(kind), seed=seed, duration=float(duration),
                 topology=topology, events=[])


def read_trace_header(path: Union[str, Path]) -> Trace:
    """A trace file's header alone, as a trace with no events; one line is read."""
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        return _read_header(fh, path)


def read_trace(path: Union[str, Path]) -> tuple[Trace, list[tuple[int, str]]]:
    """Load a trace file.

    Returns the trace plus a list of (line number, reason) for lines that
    failed to parse; parsing continues past bad lines so the caller can
    count received-but-not-analyzed input; a byte that is not UTF-8 reads
    as U+FFFD, which leaves its line malformed.  A bad header is a
    :class:`ValueError` naming the file.
    """
    malformed: list[tuple[int, str]] = []
    # The C scanner json.loads wraps, without the three Python calls json.loads
    # makes around it on every line.
    scan = json.JSONDecoder().scan_once
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        trace = _read_header(fh, path)
        events = trace.events
        for lineno, line in enumerate(fh, start=2):
            try:
                try:
                    data, end = scan(line, 0)
                except (StopIteration, ValueError, RecursionError):
                    end = None
                if end is None or line[end:] != "\n":
                    # Not one value then the newline: json.loads takes the
                    # line, so its values and its errors stand.
                    if not line.strip():
                        continue
                    data = json.loads(line)
                event = event_from_json(data)
            except INPUT_ERRORS as exc:
                malformed.append((lineno, _input_error(exc)))
            else:
                events.append(event)
    return trace, malformed


def load_topology(path: Union[str, Path]) -> list[NodeSpec]:
    """Topology JSON: ``{"nodes": [{"id", "role", "position", ...}, ...]}``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _nodes_from_json(json.load(fh)["nodes"])
    except INPUT_ERRORS as exc:
        raise ValueError(f"{path}: {_input_error(exc)}") from None


def save_topology(topology: Iterable[NodeSpec], path: Union[str, Path]) -> None:
    payload = {"nodes": [_node_to_json(n) for n in sorted(topology, key=lambda n: n.id)]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def legit_server_records(topology: Iterable[NodeSpec]) -> list[dict]:
    """Registry records for the legitimate server(s) in a topology."""
    return [
        {
            "server_id": format_ipv4(LEGIT_SERVER_IP),
            "mac": format_mac(node_mac(node.id)),
            "gateway": format_ipv4(ROUTER_IP),
            "dns": format_ipv4(ROUTER_IP),
        }
        for node in sorted(topology, key=lambda n: n.id)
        if node.role is Role.LEGIT_DHCP
    ]


def replay_client_bindings(
    events: Iterable[SimEvent], blocked: frozenset[int] = frozenset()
) -> dict[int, Binding]:
    """Re-derive per-client DORA outcomes from a trace.

    Each MAC's DISCOVERs drive one :class:`DhcpClient`, which follows the
    simulator's client rule: the first OFFER for the pending xid wins, and
    only the ACK of the server it named binds.  A binding is credited to
    the node that sent the MAC's first DISCOVER.  Events whose indices
    appear in ``blocked`` are treated as never delivered, which is how
    ``--block`` mode prevents rogue bindings.
    """
    clients: dict[MacAddr, tuple[int, DhcpClient]] = {}
    bindings: dict[int, Binding] = {}
    for idx, ev in enumerate(events):
        if not isinstance(ev.payload, DhcpPayload) or ev.payload.message is None:
            continue
        msg = ev.payload.message
        if msg.msg_type is MsgType.DISCOVER:
            if msg.client_mac not in clients:
                # discover() draws each xid from the DISCOVER being replayed
                clients[msg.client_mac] = (ev.src, DhcpClient(msg.client_mac, lambda: msg.xid))
            clients[msg.client_mac][1].discover()
        elif idx not in blocked and msg.client_mac in clients:
            node, client = clients[msg.client_mac]
            before = client.binding
            client.step(msg)
            if client.binding is not None and client.binding is not before:
                bindings[node] = client.binding
    return bindings
