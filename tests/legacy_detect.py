"""Reference form of the trace-line reader the differential tests compare against.

This is the straightforward version that the shared flag sets replaced:
a new flag set for every event read.  It converts some mistyped fields
that the trace reader now refuses as malformed (a flag that is not a
string, for one), so the two readers must agree on every line both
accept, not on every line.  The detection references live in
``reference_detect``.
"""

import math

from dhcpguard.netsim import (
    BROADCAST,
    MAX_SIZE_BYTES,
    AttackClass,
    GenericPayload,
    Proto,
    SimEvent,
)
from helpers import payload_from_raw


def event_from_json(data):
    """One trace line to an event, with a new flag set of its own."""
    time = float(data["time"])
    if not math.isfinite(time):
        raise ValueError(f"time must be finite, got {time}")
    payload_data = data["payload"]
    kind = payload_data["kind"]
    if kind == "dhcp":
        payload = payload_from_raw(bytes.fromhex(payload_data["data"]))
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
