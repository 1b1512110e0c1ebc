"""Reference forms of the code the differential tests compare against.

These are the straightforward versions that the compiled rule scan, the
deadline heap, the range-verdict cache and the shared flag sets
replaced: a per-rule loop, a dict scan over every pending REQUEST, a
geometry check on every call, and a new flag set for every event read.
Outputs must stay identical to them.
"""

import math
from math import dist

from dhcpguard.alerts import AlertClass, Severity
from dhcpguard.netsim import (
    BROADCAST,
    MAX_SIZE_BYTES,
    AttackClass,
    DhcpPayload,
    GenericPayload,
    Proto,
    SimEvent,
)
from dhcpguard.signatures import Direction, Ingredient, Violation
from dhcpguard.signatures import SlidingWindow as _SlidingWindow


def match_signature(db, view):
    """First (lowest-id) direction-compatible rule, tested rule by rule."""
    for sig in db:
        compatible = (sig.direction is Direction.ANY or view.direction is None
                      or sig.direction is view.direction)
        if compatible and sig.pattern in view.pattern:
            return sig
    return None


class SlidingWindow(_SlidingWindow):
    """Pending REQUESTs in one dict scanned per event; range checked on every call."""

    def __init__(self, nodes=None):
        super().__init__(nodes)
        self.pending = {}  # xid -> (deadline, event index)

    def pop_expired_expectations(self, now):
        expired = [(xid, idx) for xid, (deadline, idx) in self.pending.items() if deadline < now]
        for xid, _ in expired:
            del self.pending[xid]
        return expired

    def note_request(self, xid, now, timeout, index):
        if xid in self.pending:
            del self.pending[xid]
            return True
        self.pending[xid] = (now + timeout, index)
        return False

    def note_answer(self, xid):
        self.pending.pop(xid, None)

    def range_violation(self, src, dst):
        src_node, dst_node = self.nodes.get(src), self.nodes.get(dst)
        if src_node is None or dst_node is None:
            return None
        if dist(src_node.position, dst_node.position) <= src_node.radio_range:
            return None
        return Violation(Ingredient.RADIO_RANGE, AlertClass.RANGE_VIOLATION, Severity.MEDIUM)


def event_from_json(data):
    """One trace line to an event, with a new flag set of its own."""
    time = float(data["time"])
    if not math.isfinite(time):
        raise ValueError(f"time must be finite, got {time}")
    payload_data = data["payload"]
    kind = payload_data["kind"]
    if kind == "dhcp":
        payload = DhcpPayload.from_raw(bytes.fromhex(payload_data["data"]))
    elif kind == "generic":
        size = int(payload_data["size_bytes"])
        if not 0 < size <= MAX_SIZE_BYTES:
            raise ValueError("size_bytes must be in [1, 2^32]")
        payload = GenericPayload(
            proto=Proto(payload_data["proto"]),
            flags=frozenset(str(f) for f in payload_data["flags"]),
            size_bytes=size,
            payload_pattern=bytes.fromhex(payload_data["payload_pattern"]),
        )
    else:
        raise ValueError(f"unknown payload kind {kind!r}")
    dst = data["dst"]
    return SimEvent(
        time=time,
        src=int(data["src"]),
        dst=BROADCAST if dst == "broadcast" else int(dst),
        payload=payload,
        ground_truth=AttackClass(data["ground_truth"]),
    )
