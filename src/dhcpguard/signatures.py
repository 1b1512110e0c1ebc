"""Known-threat detection: byte-pattern signatures and parameterized rules.

Signature file format, one rule per line::

    id | direction | class | severity | hex-pattern

``#`` starts a comment, blank lines are ignored, ids must be unique.
A pattern matches when it occurs as a contiguous byte subsequence of the
event payload (the generic payload pattern, or the 32-byte DHCP wire
image) and the rule direction is compatible.  Lowest id wins when
several rules match.

Alongside the exact-pattern database this layer evaluates six
parameterized checks over a sliding time window:

    a. validity              tampered (bad-checksum) DHCP frame
    b. time interval         per-source rate too high (exhaustion) or
                             per-source gap too long (negligence)
    c. flooding              too many events in the window overall
    d. retransmission        an unanswered REQUEST was never retried
                             before its timeout
    e. radio range           source reached a node beyond its radio range
    f. pattern replication   identical payload repeated too often
"""

from __future__ import annotations

import heapq
import importlib.resources
import re
from collections import Counter, deque
from dataclasses import dataclass
from enum import Enum
from math import dist
from pathlib import Path
from typing import Optional, Sequence, Union

from .alerts import AlertClass, Severity
from .dhcp import BadChecksum, MsgType
from .netsim import BROADCAST, DhcpPayload, NodeSpec, Role, SimEvent


class Direction(str, Enum):
    INBOUND = "inbound"
    OUTBOUND = "outbound"
    ANY = "any"


class SignatureError(ValueError):
    def __init__(self, message: str, lineno: int = 0):
        super().__init__(message)
        self.lineno = lineno


class SignatureParseError(SignatureError):
    pass


class DuplicateSignatureId(SignatureError):
    pass


@dataclass(frozen=True)
class Signature:
    id: int
    pattern: bytes
    attack_class: AlertClass
    direction: Direction = Direction.ANY
    severity: Severity = Severity.MEDIUM

    def __post_init__(self):
        if not self.pattern:
            raise ValueError("signature pattern must be non-empty")


class SignatureDb:
    """Immutable rule set, iterated in ascending id order.

    The patterns are compiled once into a single alternation, so the
    common case of a payload that no rule matches costs one scan instead
    of one per rule.
    """

    def __init__(self, signatures: Sequence[Signature] = ()):
        by_id: dict[int, Signature] = {}
        for sig in signatures:
            if sig.id in by_id:
                raise DuplicateSignatureId(f"duplicate signature id {sig.id}")
            by_id[sig.id] = sig
        self._ordered = sorted(by_id.values(), key=lambda s: s.id)
        # An empty alternation would match every payload, so an empty db
        # keeps no scanner at all.
        self._scan = (
            re.compile(b"|".join(re.escape(sig.pattern) for sig in self._ordered)).search
            if self._ordered else None
        )

    def __len__(self) -> int:
        return len(self._ordered)

    def __iter__(self):
        return iter(self._ordered)

    def matches_any(self, payload: bytes) -> bool:
        """Whether any rule's pattern occurs in ``payload``, whatever its direction."""
        return self._scan is not None and self._scan(payload) is not None


def load_signatures(path: Union[str, Path]) -> SignatureDb:
    """Parse a rule file; raises with the offending line number."""
    signatures: list[Signature] = []
    seen: dict[int, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split("|")]
            if len(parts) != 5:
                raise SignatureParseError(
                    f"line {lineno}: expected 5 |-separated fields, got {len(parts)}", lineno
                )
            try:
                sig_id = int(parts[0])
                direction = Direction(parts[1])
                attack_class = AlertClass(parts[2])
                severity = Severity(parts[3])
                pattern = bytes.fromhex(parts[4])
                sig = Signature(sig_id, pattern, attack_class, direction, severity)
            except ValueError as exc:
                raise SignatureParseError(f"line {lineno}: {exc}", lineno) from None
            if sig_id in seen:
                raise DuplicateSignatureId(
                    f"line {lineno}: duplicate signature id {sig_id} "
                    f"(first seen on line {seen[sig_id]})",
                    lineno,
                )
            seen[sig_id] = lineno
            signatures.append(sig)
    return SignatureDb(signatures)


def sample_signatures_path() -> Path:
    """Path of the rule file shipped with the package."""
    return Path(importlib.resources.files("dhcpguard") / "data" / "sample.rules")


# -- event view ----------------------------------------------------------


@dataclass(frozen=True)
class EventView:
    """One trace event prepared for the detection layers."""

    index: int
    event: SimEvent
    pattern: bytes
    size_bytes: int
    is_dhcp: bool
    msg_type: Optional[MsgType]
    checksum_ok: bool
    xid: Optional[int]
    direction: Optional[Direction]

    @property
    def time(self) -> float:
        return self.event.time

    @property
    def src(self) -> int:
        return self.event.src

    @property
    def dst(self) -> int:
        return self.event.dst


def make_view(event: SimEvent, index: int, nodes: Optional[dict[int, NodeSpec]] = None) -> EventView:
    if isinstance(event.payload, DhcpPayload):
        msg = event.payload.message
        msg_type = msg.msg_type if msg is not None else None
        if msg_type in (MsgType.DISCOVER, MsgType.REQUEST, MsgType.RELEASE):
            direction: Optional[Direction] = Direction.INBOUND
        elif msg_type is not None:
            direction = Direction.OUTBOUND
        else:
            direction = None
        return EventView(
            index=index,
            event=event,
            pattern=event.payload.raw,
            size_bytes=len(event.payload.raw),
            is_dhcp=True,
            msg_type=msg_type,
            checksum_ok=event.payload.error != BadChecksum.reason,
            xid=msg.xid if msg is not None else None,
            direction=direction,
        )
    if nodes is not None and event.dst in nodes:
        direction = Direction.INBOUND if nodes[event.dst].role is Role.CLIENT else Direction.OUTBOUND
    else:
        direction = None
    return EventView(
        index=index,
        event=event,
        pattern=event.payload.payload_pattern,
        size_bytes=event.payload.size_bytes,
        is_dhcp=False,
        msg_type=None,
        checksum_ok=True,
        xid=None,
        direction=direction,
    )


def _direction_compatible(sig: Direction, event_dir: Optional[Direction]) -> bool:
    return sig is Direction.ANY or event_dir is None or sig is event_dir


def match_signature(db: SignatureDb, view: EventView) -> Optional[Signature]:
    """First (lowest-id) rule whose pattern occurs in the event payload."""
    if not db.matches_any(view.pattern):
        return None
    for sig in db:
        if _direction_compatible(sig.direction, view.direction) and sig.pattern in view.pattern:
            return sig
    return None


# -- parameterized ingredients -------------------------------------------


class Ingredient(str, Enum):
    VALIDITY = "validity"
    TIME_INTERVAL = "time_interval"
    FLOODING = "flooding"
    RETRANSMISSION = "retransmission"
    RADIO_RANGE = "radio_range"
    PATTERN_REPLICATION = "pattern_replication"


@dataclass(frozen=True)
class IngredientConfig:
    max_rate: float = 50.0          # events per second, per source
    max_gap: float = 30.0           # seconds of per-source silence
    flood_threshold: int = 500      # events per window, all sources
    retransmit_timeout: float = 2.0
    replication_limit: int = 50     # identical payloads per window
    window: float = 1.0

    def __post_init__(self):
        for name in ("max_rate", "max_gap", "flood_threshold",
                     "retransmit_timeout", "replication_limit", "window"):
            if not getattr(self, name) > 0:  # NaN included
                raise ValueError(f"{name} must be > 0")


@dataclass(frozen=True)
class Violation:
    ingredient: Ingredient
    attack_class: AlertClass
    severity: Severity
    detail: str
    related: tuple[int, ...] = ()


_VIOLATION_SEVERITY = {
    AlertClass.TAMPER: Severity.HIGH,
    AlertClass.EXHAUSTION: Severity.HIGH,
    AlertClass.NEGLIGENCE: Severity.LOW,
    AlertClass.FLOODING: Severity.HIGH,
    AlertClass.RETRANSMISSION_FAILURE: Severity.LOW,
    AlertClass.RANGE_VIOLATION: Severity.MEDIUM,
    AlertClass.PATTERN_REPLICATION: Severity.MEDIUM,
}


def _violation(ingredient: Ingredient, attack_class: AlertClass, detail: str,
               related: tuple[int, ...] = ()) -> Violation:
    return Violation(ingredient, attack_class, _VIOLATION_SEVERITY[attack_class], detail, related)


class SlidingWindow:
    """Recent-traffic state feeding the parameterized checks.

    Holds only events newer than ``now - window``, with ``window`` passed
    to :meth:`prune` from the policy in force; per-source counts and
    identical-payload counts are maintained incrementally.  ``nodes``
    supplies positions for the radio-range check and may be ``None``; it
    must not change afterwards, because range verdicts are cached per
    ``(src, dst)`` pair of known nodes.

    Pending REQUESTs sit in a dict keyed by xid and in a heap of
    ``(deadline, seq, xid)``; a heap entry whose xid was answered,
    retried or re-requested since is stale and skipped when it comes due.
    """

    def __init__(self, nodes: Optional[dict[int, NodeSpec]] = None):
        self.nodes = nodes or {}
        self._events: deque[tuple[float, int, bytes]] = deque()
        self._src_counts: Counter = Counter()
        self._pattern_counts: Counter = Counter()
        self._last_seen: dict[int, float] = {}
        self._expected: dict[int, tuple[int, int]] = {}  # xid -> (seq, event index)
        self._deadlines: list[tuple[float, int, int]] = []  # heap of (deadline, seq, xid)
        self._seq = 0
        self._range_verdicts: dict[tuple[int, int], Optional[Violation]] = {}

    def prune(self, now: float, window: float) -> None:
        cutoff = now - window
        while self._events and self._events[0][0] <= cutoff:
            _, src, pattern = self._events.popleft()
            self._src_counts[src] -= 1
            if self._src_counts[src] <= 0:
                del self._src_counts[src]
            self._pattern_counts[pattern] -= 1
            if self._pattern_counts[pattern] <= 0:
                del self._pattern_counts[pattern]

    def observe(self, view: EventView) -> None:
        event = view.event
        self._events.append((event.time, event.src, view.pattern))
        self._src_counts[event.src] += 1
        self._pattern_counts[view.pattern] += 1

    def total(self) -> int:
        return len(self._events)

    def src_count(self, src: int) -> int:
        return self._src_counts.get(src, 0)

    def pattern_count(self, pattern: bytes) -> int:
        return self._pattern_counts.get(pattern, 0)

    def last_seen(self, src: int) -> Optional[float]:
        return self._last_seen.get(src)

    def mark_seen(self, src: int, now: float) -> None:
        self._last_seen[src] = now

    def pop_expired_expectations(self, now: float) -> list[tuple[int, int]]:
        """``(xid, index)`` of pending REQUESTs whose deadline is before ``now``.

        They are listed in the order the REQUESTs were noted, whatever
        their deadlines, since the timeout may change between requests.
        """
        heap = self._deadlines
        if not heap or heap[0][0] >= now:
            return []
        expected = self._expected
        due: list[tuple[int, int, int]] = []
        while heap and heap[0][0] < now:
            _, seq, xid = heapq.heappop(heap)
            pending = expected.get(xid)
            if pending is not None and pending[0] == seq:
                del expected[xid]
                due.append((seq, xid, pending[1]))
        due.sort()
        return [(xid, index) for _, xid, index in due]

    def note_request(self, xid: int, now: float, timeout: float, index: int) -> bool:
        """Track a REQUEST; returns True when it satisfied a pending retry."""
        if xid in self._expected:
            del self._expected[xid]
            return True
        self._seq += 1
        self._expected[xid] = (self._seq, index)
        heapq.heappush(self._deadlines, (now + timeout, self._seq, xid))
        return False

    def note_answer(self, xid: int) -> None:
        self._expected.pop(xid, None)

    def range_violation(self, src: int, dst: int) -> Optional[Violation]:
        """Radio-range verdict for a unicast from ``src`` to ``dst``.

        Only pairs of known nodes are checked, and only they are cached,
        so ids outside ``nodes`` cannot grow the cache.
        """
        pair = (src, dst)
        if pair in self._range_verdicts:
            return self._range_verdicts[pair]
        src_node = self.nodes.get(src)
        dst_node = self.nodes.get(dst)
        if src_node is None or dst_node is None:
            return None
        verdict = None
        distance = dist(src_node.position, dst_node.position)
        if distance > src_node.radio_range:
            verdict = _violation(
                Ingredient.RADIO_RANGE,
                AlertClass.RANGE_VIOLATION,
                f"node {src} reached {distance:.1f} units, beyond its "
                f"radio range {src_node.radio_range:.1f}",
            )
        self._range_verdicts[pair] = verdict
        return verdict


def eval_ingredients(cfg: IngredientConfig, w: SlidingWindow, view: EventView) -> list[Violation]:
    """All parameterized-rule violations triggered by this event, in a-f order."""
    event = view.event
    now = event.time
    src = event.src
    w.prune(now, cfg.window)

    expired = w.pop_expired_expectations(now)

    gap_violation = None
    last = w.last_seen(src)
    if last is not None and now - last > cfg.max_gap:
        gap_violation = _violation(
            Ingredient.TIME_INTERVAL,
            AlertClass.NEGLIGENCE,
            f"source {src} silent for {now - last:.3f}s (max_gap {cfg.max_gap}s)",
        )
    w.mark_seen(src, now)
    w.observe(view)

    violations: list[Violation] = []

    # a. validity
    if view.is_dhcp and not view.checksum_ok:
        violations.append(_violation(Ingredient.VALIDITY, AlertClass.TAMPER,
                                     "DHCP frame failed its checksum"))

    # b. time interval: exhaustion then negligence
    allowed = cfg.max_rate * cfg.window
    count = w.src_count(src)
    if count > allowed:
        violations.append(_violation(
            Ingredient.TIME_INTERVAL,
            AlertClass.EXHAUSTION,
            f"source {src} sent {count} events in {cfg.window}s (limit {allowed:.0f})",
        ))
    if gap_violation is not None:
        violations.append(gap_violation)

    # c. flooding
    total = w.total()
    if total > cfg.flood_threshold:
        violations.append(_violation(
            Ingredient.FLOODING,
            AlertClass.FLOODING,
            f"{total} events in {cfg.window}s across all sources "
            f"(limit {cfg.flood_threshold})",
        ))

    # d. retransmission: expectations that expired before this event
    for xid, idx in expired:
        violations.append(_violation(
            Ingredient.RETRANSMISSION,
            AlertClass.RETRANSMISSION_FAILURE,
            f"REQUEST xid={xid:#x} neither answered nor retried within "
            f"{cfg.retransmit_timeout}s",
            related=(idx,),
        ))

    # e. radio range
    if event.dst != BROADCAST:
        out_of_range = w.range_violation(src, event.dst)
        if out_of_range is not None:
            violations.append(out_of_range)

    # f. pattern replication
    repeats = w.pattern_count(view.pattern)
    if repeats > cfg.replication_limit:
        violations.append(_violation(
            Ingredient.PATTERN_REPLICATION,
            AlertClass.PATTERN_REPLICATION,
            f"identical payload seen {repeats} times in {cfg.window}s "
            f"(limit {cfg.replication_limit})",
        ))

    # retransmission bookkeeping for the current event
    if view.is_dhcp and view.checksum_ok and view.xid is not None:
        if view.msg_type is MsgType.REQUEST:
            w.note_request(view.xid, now, cfg.retransmit_timeout, view.index)
        elif view.msg_type in (MsgType.ACK, MsgType.NAK):
            w.note_answer(view.xid)

    return violations
