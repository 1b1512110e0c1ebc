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
from pathlib import Path
from typing import Iterable, Optional, Union

from .alerts import Alert, AlertClass, Layer, Severity
from .anomaly import (
    DISTINCT_SOURCES,
    MEAN_SIZE,
    RATE,
    AnomalyConfig,
    ConfusionCounters,
    WindowTracker,
    check_window_count,
    classify,
)
from .dhcp import DhcpMessage, Ipv4Addr, MsgType, format_ipv4, parse_ipv4, parse_mac
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
from .trace import MAX_DURATION, AttackClass, NodeSpec, SimEvent, refused

REGISTRY_SCHEMA = "dhcpguard-registry/1"


class PipelineError(Exception):
    pass


class StaleVersion(PipelineError):
    pass


# A LAN has a handful of servers, so a few triples recur on every OFFER
# and ACK; the bound keeps a trace of forged triples from growing it.
@functools.lru_cache(maxsize=1024)
def fingerprint(server_id: Ipv4Addr, gateway: Ipv4Addr, dns: Ipv4Addr) -> str:
    """Digest of the canonical OFFER fields a rogue server falsifies."""
    return hashlib.sha256(f"{server_id}|{gateway}|{dns}".encode()).hexdigest()


class DhcpRegistry:
    """Known legitimate DHCP servers: server_id -> fingerprint."""

    def __init__(self, entries: Iterable[tuple[Ipv4Addr, str]] = ()):
        self.entries: dict[Ipv4Addr, str] = {}
        for server_id, digest in entries:
            if server_id in self.entries:
                raise ValueError(f"duplicate registry server_id {format_ipv4(server_id)}")
            self.entries[server_id] = digest

    def __len__(self) -> int:
        return len(self.entries)

    @classmethod
    def from_records(cls, records: Iterable[dict]) -> "DhcpRegistry":
        """Entries from registry records of dotted-text fields.

        A malformed record is a :class:`ValueError` naming its index and field.
        """
        entries = []
        for i, rec in enumerate(records):
            try:
                if not isinstance(rec, dict):
                    raise ValueError(f"expected an object, got {rec!r}")
                server_id, gateway, dns = (_field(rec, key, parse_ipv4, "a dotted IPv4 address")
                                           for key in ("server_id", "gateway", "dns"))
                _field(rec, "mac", parse_mac, "six ':'-separated hex pairs")  # not stored
                entries.append((server_id, fingerprint(server_id, gateway, dns)))
            except ValueError as exc:
                raise ValueError(f"server record {i}: {exc}") from None
        return cls(entries)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "DhcpRegistry":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            if not isinstance(data, dict):
                raise ValueError("registry must be a JSON object")
            if data.get("schema") != REGISTRY_SCHEMA:
                raise ValueError(f"unsupported registry schema {data.get('schema')!r}")
            servers = data.get("servers", [])
            if not isinstance(servers, list):
                raise ValueError(f"'servers' must be a list, got {type(servers).__name__}")
            return cls.from_records(servers)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path}: {exc}") from None


def _field(rec: dict, key: str, parse, what: str):
    value = rec.get(key)
    if not isinstance(value, str):
        raise refused(key, "a string", value)
    try:
        return parse(value)
    except ValueError:
        raise refused(key, what, value) from None


def save_registry_records(records: Iterable[dict], path: Union[str, Path]) -> None:
    payload = {"schema": REGISTRY_SCHEMA, "servers": list(records)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def verify_dhcp_offer(msg: DhcpMessage, registry: DhcpRegistry) -> bool:
    """Whether an OFFER/ACK comes from a known server.

    True requires both a registered server_id and a matching fingerprint
    over (server_id, gateway, dns); anything else is rogue.
    """
    expected = registry.entries.get(msg.server_id)
    return expected is not None and expected == fingerprint(msg.server_id, msg.gateway, msg.dns)


@dataclass(frozen=True)
class Policy:
    version: int
    registry: DhcpRegistry
    signatures: SignatureDb
    ingredients: IngredientConfig = IngredientConfig()
    anomaly: AnomalyConfig = AnomalyConfig()


# The alert named by the first exceeded metric, in traffic_metrics' priority order.
_ANOMALY_SIGNS = {
    RATE: (AlertClass.DOS, "AN-RATE"),
    MEAN_SIZE: (AlertClass.U2R, "AN-SIZE"),
    DISTINCT_SOURCES: (AlertClass.PROBE, "AN-SRCS"),
}

_INGREDIENT_SIGNS = {ingredient: f"SG-ING-{ingredient.value}" for ingredient in Ingredient}


class Pipeline:
    """Stateful detector for one trace; create a fresh one per run.

    ``nodes`` and the policy's anomaly config are fixed for the life of
    the pipeline: event directions and the cached radio-range verdicts
    are derived from the first, the tumbling-window baselines from the
    second.
    """

    def __init__(self, policy: Policy, nodes: Optional[dict[int, NodeSpec]] = None):
        self.nodes: dict[int, NodeSpec] = dict(nodes) if nodes else {}
        self._policy = policy
        self._window = SlidingWindow(self.nodes)
        self.window_tracker = WindowTracker(policy.anomaly)
        self._seen = 0
        self._alerts: Counter = Counter()  # layer -> alerts

    @property
    def policy(self) -> Policy:
        return self._policy

    @property
    def layer_calls(self) -> Counter:
        """Events that consulted each layer so far: those no earlier layer stopped."""
        calls: Counter = Counter()
        reached = self._seen
        for layer in Layer:
            calls[layer] = reached
            reached -= self._alerts[layer]
        return calls

    def update_policy(self, new_policy: Policy) -> None:
        """Swap the policy; versions must strictly increase.

        Detection state (windows, baselines) carries over; only the
        thresholds and knowledge stores change.  The anomaly config
        cannot change: the baselines were built under it.  Processing is
        single-threaded, so the event being processed when this is
        called has already finished under the old policy.
        """
        if new_policy.version <= self._policy.version:
            raise StaleVersion(
                f"policy version {new_policy.version} <= installed {self._policy.version}"
            )
        if new_policy.anomaly != self._policy.anomaly:
            raise PipelineError("anomaly config is fixed for a pipeline's life; "
                                "start a new pipeline to change it")
        self._policy = new_policy

    def process_view(self, view: EventView) -> Optional[Alert]:
        """The event's one alert, from the first layer in README's order that fires."""
        policy = self._policy
        # Traffic bookkeeping precedes every verdict: the sliding window has
        # to reflect all observed traffic (a rogue ACK still answers its
        # REQUEST) even though an earlier layer's alert stops later layers
        # from being consulted.
        violations = eval_ingredients(policy.ingredients, self._window, view)
        self._seen += 1
        msg = view.message
        evidence = (view.index,)
        if (msg is not None and msg.msg_type in (MsgType.OFFER, MsgType.ACK)
                and not verify_dhcp_offer(msg, policy.registry)):
            layer, attack_class, severity, sign = (
                Layer.VERIFIER, AlertClass.ROGUE_DHCP, Severity.HIGH, "VR-ROGUE")
        elif (sig := match_signature(policy.signatures, view)) is not None:
            layer, attack_class, severity, sign = (
                Layer.SIGNATURE, sig.attack_class, sig.severity, f"SG-{sig.id:03d}")
        elif violations:
            first = violations[0]
            layer, attack_class, severity = Layer.SIGNATURE, first.attack_class, first.severity
            sign = _INGREDIENT_SIGNS[first.ingredient]
            evidence += first.related
        elif ((metrics := self.window_tracker.add_event(view.event)) is not None
              # None while cold, empty when nothing is above its threshold
              and (exceeded := self.window_tracker.baseline.exceeded(metrics))):
            layer, severity = Layer.ANOMALY, Severity.MEDIUM
            attack_class, sign = _ANOMALY_SIGNS[exceeded[0]]
        else:
            return None
        self._alerts[layer] += 1
        return Alert(time=view.event.time, layer=layer, attack_class=attack_class,
                     severity=severity, evidence=evidence, unique_sign=sign)


# -- whole-trace detection -------------------------------------------------


@dataclass
class DetectionResult:
    """What one detection pass observed; :func:`metrics.build_report` derives the rest.

    ``attacks`` counts labeled-attack events by ``(AttackClass, matchable,
    alerted)``: ``matchable`` is the route split, whether any loaded
    signature's pattern occurs in the payload, whatever its direction.
    """

    alerts: list[Alert]
    counters: ConfusionCounters
    received: int
    analyzed: int
    attacks: Counter
    alerts_by_layer: dict[str, int]
    blocked: list[int]
    window_counters: ConfusionCounters
    st_series: list[tuple[float, float]]
    capture_series: list[tuple[float, int, int]]

    @property
    def tga(self) -> int:
        return sum(self.attacks.values())

    @property
    def high_severity(self) -> bool:
        return any(a.severity is Severity.HIGH for a in self.alerts)


def run_detection(
    events: Iterable[SimEvent],
    pipeline: Pipeline,
    *,
    duration: float,
    malformed: int = 0,
    block: bool = False,
) -> DetectionResult:
    """Process a trace in one pass and tally alerts against ground truth.

    ``events`` may be any iterable, a generator included, and is read
    once.  ``duration`` is the trace's span: the capture series has one
    row per whole second up to ``ceil(duration)``.  Events are taken in
    time order: one before the last analyzed time (or 0), past
    ``duration`` or NaN is skipped, received but not analyzed, and keeps
    its index.  Per-event accounting: an alert on a labeled-attack event
    is a TP, an alert on background is an FP, silence on an attack is an
    FN and silence on background is a TN.  ``malformed`` input lines
    count as received but not analyzed.  With ``block=True`` the indices
    of verifier-flagged OFFER/ACK events are reported so replay tooling
    can treat them as never delivered.
    """
    if not 0 <= duration <= MAX_DURATION:  # NaN included
        raise ValueError(f"duration must be in [0, {MAX_DURATION:g}], got {duration}")
    check_window_count(duration, pipeline.policy.anomaly.window)
    db = pipeline.policy.signatures
    nodes = pipeline.nodes
    benign = AttackClass.NONE
    alerted_before = pipeline._alerts.copy()
    last_second = math.ceil(duration)

    alerts: list[Alert] = []
    blocked: list[int] = []
    background: Counter = Counter()  # alerted -> background events
    attacks: Counter = Counter()
    # Cumulative (second, generated, captured) attack counts: an attack
    # event counts toward the first row whose second is at or after its time.
    capture_series: list[tuple[float, int, int]] = []
    second = 1
    cum_gen = cum_cap = 0

    last, skipped = 0.0, 0  # the last analyzed time, the events skipped
    index = -1  # stays -1 on an empty trace
    for index, event in enumerate(events):
        if not last <= event.time <= duration:  # NaN included
            skipped += 1
            continue
        last = event.time
        view = make_view(event, index, nodes)
        alert = pipeline.process_view(view)
        hit = alert is not None
        if hit:
            alerts.append(alert)
            if block and alert.layer is Layer.VERIFIER:
                blocked.append(index)
        cls = event.ground_truth
        if cls is benign:
            background[hit] += 1
        else:
            attacks[cls, db.matches_any(view.pattern), hit] += 1
            while second < last:
                capture_series.append((float(second), cum_gen, cum_cap))
                second += 1
            cum_gen += 1
            cum_cap += hit
    analyzed = index + 1 - skipped
    capture_series.extend((float(s), cum_gen, cum_cap) for s in range(second, last_second + 1))

    counters = ConfusionCounters(fp=background[True], tn=background[False])
    for (_, _, hit), n in attacks.items():
        counters.add(classify(hit, True), n)
    by_layer = pipeline._alerts - alerted_before  # this pass's alerts, layers that alerted
    return DetectionResult(
        alerts=alerts,
        counters=counters,
        received=index + 1 + malformed,
        analyzed=analyzed,
        attacks=attacks,
        alerts_by_layer=dict(sorted((layer.value, n) for layer, n in by_layer.items())),
        blocked=blocked,
        window_counters=pipeline.window_tracker.counters,
        st_series=list(pipeline.window_tracker.st_series),
        capture_series=capture_series,
    )


def write_alerts(alerts: Iterable[Alert], path: Union[str, Path]) -> None:
    # Each line is the bytes json.dumps(..., sort_keys=True, separators=(",", ":"))
    # writes: the keys in sorted order, and enum values that are plain ASCII words.
    with open(path, "w", encoding="utf-8") as fh:
        for alert in alerts:
            time = repr(alert.time) if alert.time - alert.time == 0 else json.dumps(alert.time)
            sign = json.encoder.encode_basestring_ascii(alert.unique_sign)
            fh.write(f'{{"attack_class":"{alert.attack_class.value}",'
                     f'"evidence":[{",".join(map(str, alert.evidence))}],'
                     f'"layer":"{alert.layer.value}","severity":"{alert.severity.value}",'
                     f'"time":{time},"unique_sign":{sign}}}\n')
