"""Reference forms of the detection code the differential tests compare against.

These are the straightforward versions that the compiled rule scan, the
deadline heap and the range-verdict cache replaced: a per-rule loop, a
dict scan over every pending REQUEST, and a geometry check on every
call.  Outputs must stay identical to them.
"""

from math import dist

from dhcpguard.alerts import AlertClass, Severity
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
        distance = dist(src_node.position, dst_node.position)
        if distance <= src_node.radio_range:
            return None
        return Violation(
            Ingredient.RADIO_RANGE,
            AlertClass.RANGE_VIOLATION,
            Severity.MEDIUM,
            f"node {src} reached {distance:.1f} units, beyond its "
            f"radio range {src_node.radio_range:.1f}",
        )
