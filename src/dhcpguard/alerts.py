"""Alert model shared by the three detection layers."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class Layer(str, Enum):
    VERIFIER = "verifier"
    SIGNATURE = "signature"
    ANOMALY = "anomaly"


class AlertClass(str, Enum):
    ROGUE_DHCP = "rogue_dhcp"
    DOS = "dos"
    U2R = "u2r"
    R2L = "r2l"
    PROBE = "probe"
    MASQUERADE = "masquerade"
    TAMPER = "tamper"
    EXHAUSTION = "exhaustion"
    NEGLIGENCE = "negligence"
    FLOODING = "flooding"
    RETRANSMISSION_FAILURE = "retransmission_failure"
    RANGE_VIOLATION = "range_violation"
    PATTERN_REPLICATION = "pattern_replication"


class Severity(str, Enum):
    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"


@dataclass(frozen=True, slots=True)
class Alert:
    """One detection verdict.

    ``evidence`` holds the indices of the trace events that triggered the
    alert (the offending event first).  ``unique_sign`` is a layer-distinct
    code; the layer that makes it fixes its prefix (``VR-``, ``SG-``, ``AN-``).
    """

    time: float
    layer: Layer
    attack_class: AlertClass
    severity: Severity
    evidence: tuple[int, ...]
    unique_sign: str
