"""Known-threat detection: byte-pattern signatures and parameterized rules.

Signature file format, one rule per line::

    id | direction | class | severity | hex-pattern

``#`` starts a comment, blank lines are ignored, ids must be unique and
are at most MAX_RULE_ID_DIGITS ASCII decimal digits.
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

import importlib.resources
import re
from collections import Counter, deque
from dataclasses import dataclass
from enum import Enum
from math import dist
from pathlib import Path
from typing import Optional, Sequence, Union

from .alerts import AlertClass, Severity
from .dhcp import BadChecksum, DhcpMessage, MsgType
from .trace import BROADCAST, DhcpPayload, NodeSpec, Role, SimEvent, refused


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


#: longest rule id, in digits, well inside int()'s limit on digit strings
MAX_RULE_ID_DIGITS = 9


def load_signatures(path: Union[str, Path]) -> SignatureDb:
    """Parse a rule file; raises naming the file and the offending line.

    A byte that is not UTF-8 reads as U+FFFD, so it is an error only where
    a field holds it, not in a comment.
    """
    signatures: list[Signature] = []
    seen: dict[int, int] = {}
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split("|")]
            if len(parts) != 5:
                raise SignatureParseError(
                    f"{path}:{lineno}: expected 5 |-separated fields, got {len(parts)}", lineno
                )
            try:
                # int() would also take "1_0", "+7", "-3" and non-ASCII digits
                if not (parts[0].isascii() and parts[0].isdigit()):
                    raise refused("id", "ASCII decimal digits", parts[0])
                if len(parts[0]) > MAX_RULE_ID_DIGITS:
                    raise refused("id", f"at most {MAX_RULE_ID_DIGITS} digits", parts[0])
                sig_id = int(parts[0])
                direction = Direction(parts[1])
                attack_class = AlertClass(parts[2])
                severity = Severity(parts[3])
                pattern = bytes.fromhex(parts[4])
                sig = Signature(sig_id, pattern, attack_class, direction, severity)
            except ValueError as exc:
                raise SignatureParseError(f"{path}:{lineno}: {exc}", lineno) from None
            if sig_id in seen:
                raise DuplicateSignatureId(
                    f"{path}:{lineno}: duplicate signature id {sig_id} "
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


@dataclass(frozen=True, slots=True)
class EventView:
    """What the detection layers need of one event beyond the event itself.

    ``message`` is ``None`` for generic traffic and for undecodable frames.
    """

    index: int
    event: SimEvent
    pattern: bytes
    message: Optional[DhcpMessage]
    tampered: bool
    direction: Optional[Direction]


def make_view(event: SimEvent, index: int, nodes: Optional[dict[int, NodeSpec]] = None) -> EventView:
    payload = event.payload
    if isinstance(payload, DhcpPayload):
        msg = payload.message
        if msg is None:
            direction: Optional[Direction] = None
        elif msg.msg_type in (MsgType.DISCOVER, MsgType.REQUEST, MsgType.RELEASE):
            direction = Direction.INBOUND
        else:
            direction = Direction.OUTBOUND
        return EventView(index, event, payload.raw, msg,
                         payload.error == BadChecksum.reason, direction)
    if nodes is not None and event.dst in nodes:
        direction = Direction.INBOUND if nodes[event.dst].role is Role.CLIENT else Direction.OUTBOUND
    else:
        direction = None
    return EventView(index, event, payload.payload_pattern, None, False, direction)


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


@dataclass(frozen=True, slots=True)
class Violation:
    """One ingredient's verdict: no text, just what the alert needs.

    ``related`` holds the unanswered REQUEST's index for a retransmission
    failure and is empty for every other verdict.
    """

    ingredient: Ingredient
    attack_class: AlertClass
    severity: Severity
    related: tuple[int, ...] = ()


# Every verdict but a retransmission failure is fixed by its ingredient
# alone, so one shared instance stands for each.
TAMPER = Violation(Ingredient.VALIDITY, AlertClass.TAMPER, Severity.HIGH)
EXHAUSTION = Violation(Ingredient.TIME_INTERVAL, AlertClass.EXHAUSTION, Severity.HIGH)
NEGLIGENCE = Violation(Ingredient.TIME_INTERVAL, AlertClass.NEGLIGENCE, Severity.LOW)
FLOODING = Violation(Ingredient.FLOODING, AlertClass.FLOODING, Severity.HIGH)
RANGE_VIOLATION = Violation(Ingredient.RADIO_RANGE, AlertClass.RANGE_VIOLATION, Severity.MEDIUM)
PATTERN_REPLICATION = Violation(Ingredient.PATTERN_REPLICATION, AlertClass.PATTERN_REPLICATION,
                                Severity.MEDIUM)


class SlidingWindow:
    """Recent-traffic state feeding the parameterized checks.

    Times arrive in order (``run_detection`` skips any other), so each
    :meth:`add` drops events from the front while they lie at or before
    ``now - window``, and the pending REQUESTs due are the front of their
    queue; a queue entry whose xid was answered, retried or re-requested
    since is stale and skipped.  Per-source and identical-payload counts
    are maintained incrementally.  ``nodes`` supplies positions for the
    radio-range check and may be ``None``; it must not change afterwards,
    because range verdicts are cached per ``(src, dst)`` pair of known nodes.
    """

    def __init__(self, nodes: Optional[dict[int, NodeSpec]] = None):
        self.nodes = nodes or {}
        self._events: deque[tuple[float, int, bytes]] = deque()
        self._src_counts: Counter = Counter()
        self._pattern_counts: Counter = Counter()
        self._last_seen: dict[int, float] = {}
        self._expected: dict[int, int] = {}  # xid -> event index
        self._requests: deque[tuple[float, int, int]] = deque()  # (time, xid, event index)
        self._range_verdicts: dict[tuple[int, int], Optional[Violation]] = {}

    def add(self, time: float, src: int, pattern: bytes, window: float) -> tuple[int, int, int]:
        """Drop events while they lie at or before ``time - window``, then add this one.

        Returns the events in the window, those from ``src`` and the
        copies of ``pattern``, this event included.
        """
        events, src_counts, pattern_counts = self._events, self._src_counts, self._pattern_counts
        cutoff = time - window
        while events and events[0][0] <= cutoff:
            _, old_src, old_pattern = events.popleft()
            src_counts[old_src] -= 1
            if src_counts[old_src] <= 0:
                del src_counts[old_src]
            pattern_counts[old_pattern] -= 1
            if pattern_counts[old_pattern] <= 0:
                del pattern_counts[old_pattern]
        events.append((time, src, pattern))
        src_counts[src] += 1
        pattern_counts[pattern] += 1
        return len(events), src_counts[src], pattern_counts[pattern]

    def note_seen(self, src: int, now: float) -> Optional[float]:
        """Record that ``src`` was seen at ``now``; returns when it was seen before."""
        last = self._last_seen.get(src)
        self._last_seen[src] = now
        return last

    def pop_expired_expectations(self, now: float, timeout: float) -> list[int]:
        """Indices of the REQUESTs pending more than ``timeout`` at ``now``, in request order."""
        requests, expected = self._requests, self._expected
        due: list[int] = []
        while requests and requests[0][0] + timeout < now:
            _, xid, index = requests.popleft()
            if expected.get(xid) == index:
                del expected[xid]
                due.append(index)
        return due

    def note_request(self, xid: int, now: float, index: int) -> bool:
        """Track a REQUEST; returns True when it satisfied a pending retry."""
        if xid in self._expected:
            del self._expected[xid]
            return True
        self._expected[xid] = index
        self._requests.append((now, xid, index))
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
        if dist(src_node.position, dst_node.position) > src_node.radio_range:
            verdict = RANGE_VIOLATION
        self._range_verdicts[pair] = verdict
        return verdict


def eval_ingredients(cfg: IngredientConfig, w: SlidingWindow, view: EventView) -> list[Violation]:
    """All parameterized-rule violations triggered by this event, in a-f order."""
    event = view.event
    now = event.time
    src = event.src
    expired = w.pop_expired_expectations(now, cfg.retransmit_timeout)
    last = w.note_seen(src, now)
    total, count, repeats = w.add(now, src, view.pattern, cfg.window)

    violations: list[Violation] = []

    # a. validity
    if view.tampered:
        violations.append(TAMPER)

    # b. time interval: exhaustion then negligence
    if count > cfg.max_rate * cfg.window:
        violations.append(EXHAUSTION)
    if last is not None and now - last > cfg.max_gap:
        violations.append(NEGLIGENCE)

    # c. flooding
    if total > cfg.flood_threshold:
        violations.append(FLOODING)

    # d. retransmission: expectations that expired before this event
    for idx in expired:
        violations.append(Violation(Ingredient.RETRANSMISSION,
                                    AlertClass.RETRANSMISSION_FAILURE, Severity.LOW, (idx,)))

    # e. radio range
    if event.dst != BROADCAST:
        out_of_range = w.range_violation(src, event.dst)
        if out_of_range is not None:
            violations.append(out_of_range)

    # f. pattern replication
    if repeats > cfg.replication_limit:
        violations.append(PATTERN_REPLICATION)

    # retransmission bookkeeping for the current event; a frame that did
    # not decode, tampered or not, carries no message to book
    msg = view.message
    if msg is not None:
        if msg.msg_type is MsgType.REQUEST:
            w.note_request(msg.xid, now, view.index)
        elif msg.msg_type in (MsgType.ACK, MsgType.NAK):
            w.note_answer(msg.xid)

    return violations
