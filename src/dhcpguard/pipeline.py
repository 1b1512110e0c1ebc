"""Central detection pipeline: verifier, signature layer, anomaly layer.

Every event is evaluated strictly in that order and the first layer
that fires wins; later layers are not consulted for that event.  Events
that reach the anomaly layer update its baselines even when no alert
fires.  One installed :class:`Policy` (registry, signature database,
thresholds) governs the whole of each event's evaluation; policy
updates take effect on the next event.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from .alerts import Alert, AlertClass, Layer, Severity
from .anomaly import (
    DISTINCT_SOURCES,
    MEAN_SIZE,
    RATE,
    AnomalyConfig,
    ColdStart,
    ConfusionCounters,
    SignOfAttack,
    TrailingWindow,
    WindowTracker,
    classify,
    sign_of_attack,
)
from .dhcp import DhcpMessage, Ipv4Addr, MacAddr, MsgType
from .netsim import AttackClass, NodeSpec, SimEvent
from .signatures import (
    EventView,
    Ingredient,
    IngredientConfig,
    SignatureDb,
    SlidingWindow,
    eval_ingredients,
    make_view,
    match_signature,
)

REGISTRY_SCHEMA = "dhcpguard-registry/1"


class PipelineError(Exception):
    pass


class PolicyMissing(PipelineError):
    pass


class StaleVersion(PipelineError):
    pass


class NotAnOffer(PipelineError):
    """verify_dhcp_offer only accepts OFFER and ACK messages."""


class VerifyResult(str, Enum):
    VALID = "valid"
    ROGUE = "rogue"


# A LAN has a handful of servers, so a few triples recur on every OFFER
# and ACK; the bound keeps a trace of forged triples from growing it.
@functools.lru_cache(maxsize=1024)
def fingerprint(server_id: Ipv4Addr, gateway: Ipv4Addr, dns: Ipv4Addr) -> str:
    """Digest of the canonical OFFER fields a rogue server falsifies."""
    return hashlib.sha256(f"{server_id}|{gateway}|{dns}".encode()).hexdigest()


@dataclass(frozen=True)
class RegistryEntry:
    server_id: Ipv4Addr
    mac: MacAddr
    fingerprint: str


class DhcpRegistry:
    """Known legitimate DHCP servers, keyed by server_id."""

    def __init__(self, entries: Sequence[RegistryEntry] = ()):
        self.entries: dict[Ipv4Addr, RegistryEntry] = {}
        for entry in entries:
            if entry.server_id in self.entries:
                raise ValueError(f"duplicate registry server_id {entry.server_id}")
            self.entries[entry.server_id] = entry

    def __len__(self) -> int:
        return len(self.entries)

    @classmethod
    def from_records(cls, records: Iterable[dict]) -> "DhcpRegistry":
        entries = []
        for rec in records:
            server_id = Ipv4Addr(rec["server_id"])
            entries.append(RegistryEntry(
                server_id=server_id,
                mac=MacAddr.parse(rec["mac"]),
                fingerprint=fingerprint(server_id, Ipv4Addr(rec["gateway"]), Ipv4Addr(rec["dns"])),
            ))
        return cls(entries)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "DhcpRegistry":
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if data.get("schema") != REGISTRY_SCHEMA:
            raise ValueError(f"{path}: unsupported registry schema {data.get('schema')!r}")
        return cls.from_records(data.get("servers", []))


def save_registry_records(records: Iterable[dict], path: Union[str, Path]) -> None:
    payload = {"schema": REGISTRY_SCHEMA, "servers": list(records)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def verify_dhcp_offer(msg: DhcpMessage, registry: DhcpRegistry) -> VerifyResult:
    """Check an OFFER/ACK against the known-server registry.

    Valid requires both a registered server_id and a matching fingerprint
    over (server_id, gateway, dns); anything else is rogue.
    """
    if msg.msg_type not in (MsgType.OFFER, MsgType.ACK):
        raise NotAnOffer(f"cannot verify a {msg.msg_type.name}")
    entry = registry.entries.get(msg.server_id)
    if entry is None:
        return VerifyResult.ROGUE
    if entry.fingerprint != fingerprint(msg.server_id, msg.gateway, msg.dns):
        return VerifyResult.ROGUE
    return VerifyResult.VALID


@dataclass(frozen=True)
class Policy:
    version: int
    registry: DhcpRegistry
    signatures: SignatureDb
    ingredients: IngredientConfig = IngredientConfig()
    anomaly: AnomalyConfig = AnomalyConfig()


_ANOMALY_METRIC_CLASS = {
    RATE: (AlertClass.DOS, "AN-RATE"),
    MEAN_SIZE: (AlertClass.U2R, "AN-SIZE"),
    DISTINCT_SOURCES: (AlertClass.PROBE, "AN-SRCS"),
}
_ANOMALY_PRIORITY = (RATE, MEAN_SIZE, DISTINCT_SOURCES)

_INGREDIENT_SIGNS = {ingredient: f"SG-ING-{ingredient.value}" for ingredient in Ingredient}

# The layers an event consults, by the layer that stopped it.
_UP_TO_VERIFIER = (Layer.VERIFIER,)
_UP_TO_SIGNATURE = (Layer.VERIFIER, Layer.SIGNATURE)
_ALL_LAYERS = (Layer.VERIFIER, Layer.SIGNATURE, Layer.ANOMALY)


class Pipeline:
    """Stateful detector for one trace; create a fresh one per run.

    ``nodes`` is fixed for the life of the pipeline: event directions and
    the cached radio-range verdicts are derived from it.
    """

    def __init__(self, policy: Optional[Policy] = None,
                 nodes: Optional[dict[int, NodeSpec]] = None):
        self.nodes: dict[int, NodeSpec] = dict(nodes) if nodes else {}
        self._policy: Optional[Policy] = None
        self._window = SlidingWindow(self.nodes)
        self._tracker: Optional[WindowTracker] = None
        self._trailing = TrailingWindow()
        self._stops: Counter = Counter()  # consulted-layer tuple -> events
        self.last_consulted: tuple[Layer, ...] = ()
        if policy is not None:
            self._install(policy)

    @property
    def policy(self) -> Optional[Policy]:
        return self._policy

    @property
    def layer_calls(self) -> Counter:
        """Events that consulted each layer so far."""
        calls: Counter = Counter()
        for consulted, n in self._stops.items():
            for layer in consulted:
                calls[layer] += n
        return calls

    def _install(self, policy: Policy) -> None:
        self._policy = policy
        if self._tracker is None:
            self._tracker = WindowTracker(policy.anomaly)

    def update_policy(self, new_policy: Policy) -> None:
        """Swap the policy; versions must strictly increase.

        Detection state (windows, baselines) carries over; only the
        thresholds and knowledge stores change.  Processing is
        single-threaded, so the event being processed when this is
        called has already finished under the old policy.
        """
        if self._policy is not None and new_policy.version <= self._policy.version:
            raise StaleVersion(
                f"policy version {new_policy.version} <= installed {self._policy.version}"
            )
        self._install(new_policy)

    # -- layers --------------------------------------------------------

    def _verifier_layer(self, view: EventView, policy: Policy) -> Optional[Alert]:
        if not view.is_dhcp or view.msg_type not in (MsgType.OFFER, MsgType.ACK):
            return None
        msg = view.event.payload.message
        if msg is None:
            return None
        if verify_dhcp_offer(msg, policy.registry) is VerifyResult.ROGUE:
            return Alert(
                time=view.time,
                layer=Layer.VERIFIER,
                attack_class=AlertClass.ROGUE_DHCP,
                severity=Severity.HIGH,
                evidence=(view.index,),
                unique_sign="VR-ROGUE",
            )
        return None

    def _signature_layer(self, view: EventView, policy: Policy,
                         violations: list) -> Optional[Alert]:
        sig = match_signature(policy.signatures, view)
        if sig is not None:
            return Alert(
                time=view.time,
                layer=Layer.SIGNATURE,
                attack_class=sig.attack_class,
                severity=sig.severity,
                evidence=(view.index,),
                unique_sign=f"SG-{sig.id:03d}",
            )
        if violations:
            first = violations[0]
            return Alert(
                time=view.time,
                layer=Layer.SIGNATURE,
                attack_class=first.attack_class,
                severity=first.severity,
                evidence=(view.index,) + first.related,
                unique_sign=_INGREDIENT_SIGNS[first.ingredient],
            )
        return None

    def _anomaly_layer(self, view: EventView, policy: Policy) -> Optional[Alert]:
        self._tracker.add_event(view.event)
        if view.is_dhcp:
            return None
        metrics = self._trailing.add(view.time, view.size_bytes, view.src, policy.anomaly.window)
        try:
            exceeded = self._tracker.baseline.exceeded(metrics)
        except ColdStart:
            return None
        for metric in _ANOMALY_PRIORITY:
            if metric in exceeded:
                attack_class, sign = _ANOMALY_METRIC_CLASS[metric]
                return Alert(
                    time=view.time,
                    layer=Layer.ANOMALY,
                    attack_class=attack_class,
                    severity=Severity.MEDIUM,
                    evidence=(view.index,),
                    unique_sign=sign,
                )
        return None

    # -- event entry point ----------------------------------------------

    def process_event(self, event: SimEvent, index: int = 0) -> Optional[Alert]:
        return self.process_view(make_view(event, index, self.nodes))

    def process_view(self, view: EventView) -> Optional[Alert]:
        policy = self._policy
        if policy is None:
            raise PolicyMissing("no policy installed")
        # Traffic bookkeeping precedes every verdict: the sliding window has
        # to reflect all observed traffic (a rogue ACK still answers its
        # REQUEST) even though an earlier layer's alert stops later layers
        # from being consulted.
        violations = eval_ingredients(policy.ingredients, self._window, view)
        consulted = _UP_TO_VERIFIER
        alert = self._verifier_layer(view, policy)
        if alert is None:
            consulted = _UP_TO_SIGNATURE
            alert = self._signature_layer(view, policy, violations)
            if alert is None:
                consulted = _ALL_LAYERS
                alert = self._anomaly_layer(view, policy)
        self.last_consulted = consulted
        self._stops[consulted] += 1
        return alert

    @property
    def window_tracker(self) -> Optional[WindowTracker]:
        return self._tracker


# -- whole-trace detection -------------------------------------------------


_ATTACK_CLASS_ORDER = (
    AttackClass.DOS,
    AttackClass.U2R,
    AttackClass.R2L,
    AttackClass.PROBE,
    AttackClass.ROGUE_DHCP,
    AttackClass.MASQUERADE,
)


@dataclass
class DetectionResult:
    alerts: list[Alert]
    counters: ConfusionCounters
    received: int
    analyzed: int
    generated: dict[str, int]
    captured: dict[str, int]
    generated_signature: dict[str, int]
    generated_anomaly: dict[str, int]
    captured_signature: dict[str, int]
    captured_anomaly: dict[str, int]
    tsa: int
    taa: int
    msa: int
    maa: int
    alerts_by_layer: dict[str, int]
    blocked: list[int]
    window_counters: ConfusionCounters
    st_series: list[tuple[float, float]]
    st_overall: SignOfAttack
    capture_series: list[tuple[float, int, int]]

    @property
    def tga(self) -> int:
        return sum(self.generated.values())

    @property
    def high_severity(self) -> bool:
        return any(a.severity is Severity.HIGH for a in self.alerts)


def run_detection(
    events: Sequence[SimEvent],
    pipeline: Pipeline,
    *,
    malformed: int = 0,
    block: bool = False,
    duration: Optional[float] = None,
) -> DetectionResult:
    """Process a trace in event order and tally alerts against ground truth.

    Per-event accounting: an alert on a labeled-attack event is a TP, an
    alert on background is an FP, silence on an attack is an FN and
    silence on background is a TN.  ``malformed`` input lines count as
    received but not analyzed.  With ``block=True`` the indices of
    verifier-flagged OFFER/ACK events are reported so replay tooling can
    treat them as never delivered.
    """
    if pipeline.policy is None:
        raise PolicyMissing("no policy installed")
    db = pipeline.policy.signatures
    nodes = pipeline.nodes
    benign = AttackClass.NONE

    alerts: list[Alert] = []
    blocked: list[int] = []
    # One count per (ground truth, alerted, route) in the loop; every other
    # tally is derived from it, and enum members become strings, at the end.
    # The route is None for background events.
    tally: Counter = Counter()
    attack_marks: list[tuple[float, bool]] = []  # (time, captured) per attack event

    for index, event in enumerate(events):
        view = make_view(event, index, nodes)
        alert = pipeline.process_view(view)
        hit = alert is not None
        if hit:
            alerts.append(alert)
            if block and alert.layer is Layer.VERIFIER:
                blocked.append(index)
        cls = event.ground_truth
        if cls is benign:
            tally[cls, hit, None] += 1
        else:
            # Route split: an attack whose payload any loaded signature can
            # match is "signature-based"; the rest are "anomaly-based".
            tally[cls, hit, db.matches_any(view.pattern)] += 1
            attack_marks.append((event.time, hit))

    counters = ConfusionCounters()
    generated: Counter = Counter()
    captured: Counter = Counter()
    route_sig: Counter = Counter()
    route_anom: Counter = Counter()
    caught_sig: Counter = Counter()
    caught_anom: Counter = Counter()
    for (cls, hit, matchable), n in tally.items():
        counters.add(classify(hit, cls is not benign), n)
        if cls is benign:
            continue
        generated[cls] += n
        (route_sig if matchable else route_anom)[cls] += n
        if hit:
            captured[cls] += n
            (caught_sig if matchable else caught_anom)[cls] += n
    by_layer = Counter(alert.layer for alert in alerts)
    alerts_by_layer = {layer.value: n for layer, n in by_layer.items()}

    tsa = sum(route_sig.values())
    taa = sum(route_anom.values())
    msa = tsa - sum(caught_sig.values())
    maa = taa - sum(caught_anom.values())

    horizon = duration
    if horizon is None:
        horizon = events[-1].time if events else 0.0
    capture_series: list[tuple[float, int, int]] = []
    cum_gen = cum_cap = 0
    mark_iter = iter(attack_marks + [(math.inf, False)])
    mark_time, mark_hit = next(mark_iter)
    for second in range(1, int(math.ceil(horizon)) + 1):
        while mark_time <= second:
            cum_gen += 1
            if mark_hit:
                cum_cap += 1
            mark_time, mark_hit = next(mark_iter)
        capture_series.append((float(second), cum_gen, cum_cap))

    tracker = pipeline.window_tracker
    window_counters = tracker.counters if tracker else ConfusionCounters()
    st_series = list(tracker.st_series) if tracker else []

    def ordered(counter: Counter) -> dict[str, int]:
        out = {c.value: counter.get(c, 0) for c in _ATTACK_CLASS_ORDER}
        return {k: v for k, v in out.items() if v or k in ("dos", "u2r", "r2l", "probe")}

    return DetectionResult(
        alerts=alerts,
        counters=counters,
        received=len(events) + malformed,
        analyzed=len(events),
        generated=ordered(generated),
        captured=ordered(captured),
        generated_signature=ordered(route_sig),
        generated_anomaly=ordered(route_anom),
        captured_signature=ordered(caught_sig),
        captured_anomaly=ordered(caught_anom),
        tsa=tsa,
        taa=taa,
        msa=msa,
        maa=maa,
        alerts_by_layer=dict(sorted(alerts_by_layer.items())),
        blocked=blocked,
        window_counters=window_counters,
        st_series=st_series,
        st_overall=sign_of_attack(window_counters.tn, window_counters.fn),
        capture_series=capture_series,
    )


def write_alerts(alerts: Iterable[Alert], path: Union[str, Path]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for alert in alerts:
            fh.write(json.dumps(alert.to_json(), sort_keys=True, separators=(",", ":")) + "\n")


def read_alerts(path: Union[str, Path]) -> list[Alert]:
    alerts = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                alerts.append(Alert.from_json(json.loads(line)))
    return alerts
