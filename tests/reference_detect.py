"""A reference detector: README's detection semantics in their plainest form.

``detect`` restates what ``pipeline.run_detection`` and
``metrics.build_report`` compute, with no caches, heaps, compiled
alternation or incremental counters, so that a differential test can
hold the two equal (McKeeman, *Differential Testing for Software*,
Digital Technical Journal 10(1), 1998):

- the verifier recomputes an OFFER/ACK's fingerprint from its fields and
  compares it with the registry entry of its ``server_id``;
- rules are tried one by one in ascending id, each with its direction
  checked;
- the ingredients a-f read windows recomputed from a list of past
  events, pending REQUESTs sit in one dict scanned whole on every event,
  and every range test measures the distance again;
- the anomaly layer closes tumbling windows, folds each metric's EWMA
  baseline from the list of windows it learned from, and compares a
  trailing window recomputed from a list of past events;
- the route split is ``any(sig.pattern in payload for sig in db)``.

Events are analyzed in time order: one whose time is before the last
analyzed event's (or 0), past ``duration`` or NaN is skipped and counted
as received but not analyzed.  So the analyzed times are non-decreasing
and within the span, and a window that drops its oldest events while
they lie at or before the cutoff is a filter on time, which is how this
module states it.  A pending REQUEST expires once more than the
retransmit timeout in force has passed since it was noted.

It also derives the capture series, the counters and every ``RunReport``
figure.  Row ``s`` of the capture series counts the attacks at or before
second ``s``.  Only data types, enums, configs, ``Policy``, registry
entries, ``SignatureDb`` iteration and ``Alert`` come from the package.
"""

import hashlib
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from dhcpguard.alerts import Alert, AlertClass, Layer, Severity
from dhcpguard.anomaly import ConfusionCounters
from dhcpguard.dhcp import MsgType
from dhcpguard.metrics import RunReport
from dhcpguard.netsim import BROADCAST, AttackClass, DhcpPayload, GenericPayload, Role
from dhcpguard.pipeline import DetectionResult
from dhcpguard.signatures import Direction, Ingredient, Violation

RATE, MEAN_SIZE, SOURCES = "rate", "mean_size", "sources"
# In priority order: the first exceeded metric names the alert.
ANOMALY_ALERTS = {
    RATE: (AlertClass.DOS, "AN-RATE"),
    MEAN_SIZE: (AlertClass.U2R, "AN-SIZE"),
    SOURCES: (AlertClass.PROBE, "AN-SRCS"),
}
CLASS_ROWS = ("dos", "u2r", "r2l", "probe")
CLASS_ORDER = CLASS_ROWS + ("rogue_dhcp", "masquerade")


@dataclass
class Reference:
    """What the pass saw, the report derived from it, and the events that consulted each layer."""

    result: DetectionResult
    report: RunReport
    layer_calls: Counter


# -- signatures -----------------------------------------------------------------


def payload_bytes(event):
    payload = event.payload
    return payload.raw if isinstance(payload, DhcpPayload) else payload.payload_pattern


def direction_of(event, nodes):
    """Requests travel inbound, server answers outbound; generic traffic by its receiver."""
    payload = event.payload
    if isinstance(payload, DhcpPayload):
        if payload.message is None:
            return None
        inbound = payload.message.msg_type in (MsgType.DISCOVER, MsgType.REQUEST, MsgType.RELEASE)
    elif event.dst in nodes:
        inbound = nodes[event.dst].role is Role.CLIENT
    else:
        return None
    return Direction.INBOUND if inbound else Direction.OUTBOUND


def first_rule(db, payload, direction):
    """The lowest-id rule whose pattern occurs in ``payload`` and whose direction fits."""
    for sig in db:
        fits = sig.direction is Direction.ANY or direction is None or sig.direction is direction
        if fits and sig.pattern in payload:
            return sig
    return None


# -- ingredients ------------------------------------------------------------------


class PendingRequests:
    """Unanswered REQUESTs in one dict, in the order they were noted."""

    def __init__(self):
        self.pending = {}  # xid -> (time noted, event index)

    def pop_expired_expectations(self, now, timeout):
        expired = [xid for xid, (noted, _) in self.pending.items() if noted + timeout < now]
        return [self.pending.pop(xid)[1] for xid in expired]

    def note_request(self, xid, now, index):
        if xid in self.pending:  # a retry satisfies the expectation
            del self.pending[xid]
            return True
        self.pending[xid] = (now, index)
        return False

    def note_answer(self, xid):
        self.pending.pop(xid, None)


def range_violation(nodes, src, dst):
    src_node, dst_node = nodes.get(src), nodes.get(dst)
    if src_node is None or dst_node is None:
        return None
    if math.dist(src_node.position, dst_node.position) <= src_node.radio_range:
        return None
    return Violation(Ingredient.RADIO_RANGE, AlertClass.RANGE_VIOLATION, Severity.MEDIUM)


class Ingredients:
    """Checks a-f over a list of recent ``(time, src, payload)`` and the pending REQUESTs."""

    def __init__(self, nodes):
        self.nodes = nodes
        self.recent = []
        self.last_seen = {}
        self.requests = PendingRequests()

    def evaluate(self, cfg, event, index):
        now, src, payload = event.time, event.src, payload_bytes(event)
        expired = self.requests.pop_expired_expectations(now, cfg.retransmit_timeout)
        last = self.last_seen.get(src)
        self.last_seen[src] = now
        self.recent = [seen for seen in self.recent if seen[0] > now - cfg.window]
        self.recent.append((now, src, payload))

        found = []
        dhcp = isinstance(event.payload, DhcpPayload)
        if dhcp and event.payload.error == "bad_checksum":
            found.append(Violation(Ingredient.VALIDITY, AlertClass.TAMPER, Severity.HIGH))
        if sum(seen[1] == src for seen in self.recent) > cfg.max_rate * cfg.window:
            found.append(Violation(Ingredient.TIME_INTERVAL, AlertClass.EXHAUSTION, Severity.HIGH))
        if last is not None and now - last > cfg.max_gap:
            found.append(Violation(Ingredient.TIME_INTERVAL, AlertClass.NEGLIGENCE, Severity.LOW))
        if len(self.recent) > cfg.flood_threshold:
            found.append(Violation(Ingredient.FLOODING, AlertClass.FLOODING, Severity.HIGH))
        for request in expired:
            found.append(Violation(Ingredient.RETRANSMISSION, AlertClass.RETRANSMISSION_FAILURE,
                                   Severity.LOW, (request,)))
        if event.dst != BROADCAST:
            out_of_range = range_violation(self.nodes, src, event.dst)
            if out_of_range is not None:
                found.append(out_of_range)
        if sum(seen[2] == payload for seen in self.recent) > cfg.replication_limit:
            found.append(Violation(Ingredient.PATTERN_REPLICATION, AlertClass.PATTERN_REPLICATION,
                                   Severity.MEDIUM))

        msg = event.payload.message if dhcp else None
        if msg is not None and msg.msg_type is MsgType.REQUEST:
            self.requests.note_request(msg.xid, now, index)
        elif msg is not None and msg.msg_type in (MsgType.ACK, MsgType.NAK):
            self.requests.note_answer(msg.xid)
        return found


# -- anomaly ----------------------------------------------------------------------


def traffic_metrics(events, window):
    """Rate, mean size and distinct sources of ``(time, size, src, attack)`` events."""
    metrics = {RATE: len(events) / window, SOURCES: float(len({e[2] for e in events}))}
    if events:
        metrics[MEAN_SIZE] = sum(e[1] for e in events) / len(events)
    return metrics


def ewma(samples, alpha):
    mean = variance = 0.0
    for n, sample in enumerate(samples):
        if n == 0:
            mean = sample
        else:
            diff = sample - mean
            mean += alpha * diff
            variance = (1.0 - alpha) * variance + alpha * diff * diff
    return mean, variance


class Anomaly:
    """Tumbling windows with EWMA baselines, and a trailing window per event."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.learned = {RATE: [], MEAN_SIZE: [], SOURCES: []}  # the windows each baseline saw
        self.generic = []   # (time, size, src, attack) of every generic event that reached here
        self.trailing = []  # the same, for the trailing window
        self.open = None    # index of the tumbling window counting events
        self.outcomes = Counter()
        self.st_series = []

    def exceeded(self, metrics):
        """Warmed-up metrics strictly above mean + k * stddev; ``None`` if none is warm."""
        warm, above = False, []
        for name, value in metrics.items():
            if len(self.learned[name]) >= self.cfg.warmup:
                warm = True
                mean, variance = ewma(self.learned[name], self.cfg.alpha)
                if value > mean + self.cfg.k * math.sqrt(variance):
                    above.append(name)
        return above if warm else None

    def close(self, index):
        events = [e for e in self.generic if int(e[0] // self.cfg.window) == index]
        metrics = traffic_metrics(events, self.cfg.window)
        above = self.exceeded(metrics)
        if above is not None:
            attack = any(e[3] for e in events)
            self.outcomes[("tp" if attack else "fp") if above else ("fn" if attack else "tn")] += 1
            self.st_series.append(((index + 1) * self.cfg.window,
                                   sign_ratio(self.outcomes["tn"], self.outcomes["fn"])))
        if not above:
            for name, value in metrics.items():
                self.learned[name].append(value)

    def check(self, event):
        """Close the windows ``event`` makes due; a generic event is then judged."""
        window = self.cfg.window
        index = int(event.time // window)
        if self.open is not None:
            while self.open < index:
                self.close(self.open)
                self.open += 1
        if not isinstance(event.payload, GenericPayload):
            return None
        if self.open is None:
            self.open = index
        seen = (event.time, event.payload.size_bytes, event.src,
                event.ground_truth is not AttackClass.NONE)
        self.generic.append(seen)
        self.trailing = [e for e in self.trailing + [seen] if e[0] > event.time - window]
        above = self.exceeded(traffic_metrics(self.trailing, window))
        for name in ANOMALY_ALERTS:
            if above and name in above:
                return ANOMALY_ALERTS[name]
        return None


def sign_ratio(tn, fn):
    return math.inf if fn == 0 else float(Fraction(tn, tn + 1) / Fraction(fn, fn + 1))


# -- the pass ---------------------------------------------------------------------


def verify(msg, registry):
    """Whether an OFFER/ACK's ``(server_id, gateway, dns)`` fingerprint is the registered one."""
    digest = hashlib.sha256(f"{msg.server_id}|{msg.gateway}|{msg.dns}".encode()).hexdigest()
    return registry.entries.get(msg.server_id) == digest


def judge(policy, event, index, nodes, found, anomaly):
    """The alert on ``event`` and the layers it consulted, in pipeline order."""
    payload = event.payload
    msg = payload.message if isinstance(payload, DhcpPayload) else None
    if msg is not None and msg.msg_type in (MsgType.OFFER, MsgType.ACK):
        if not verify(msg, policy.registry):
            alert = Alert(event.time, Layer.VERIFIER, AlertClass.ROGUE_DHCP, Severity.HIGH,
                          (index,), "VR-ROGUE")
            return alert, (Layer.VERIFIER,)
    sig = first_rule(policy.signatures, payload_bytes(event), direction_of(event, nodes))
    if sig is not None:
        alert = Alert(event.time, Layer.SIGNATURE, sig.attack_class, sig.severity, (index,),
                      f"SG-{sig.id:03d}")
        return alert, (Layer.VERIFIER, Layer.SIGNATURE)
    if found:
        first = found[0]
        alert = Alert(event.time, Layer.SIGNATURE, first.attack_class, first.severity,
                      (index,) + first.related, f"SG-ING-{first.ingredient.value}")
        return alert, (Layer.VERIFIER, Layer.SIGNATURE)
    verdict = anomaly.check(event)
    alert = None
    if verdict is not None:
        alert = Alert(event.time, Layer.ANOMALY, verdict[0], Severity.MEDIUM, (index,), verdict[1])
    return alert, (Layer.VERIFIER, Layer.SIGNATURE, Layer.ANOMALY)


def detect(events, policy, nodes=None, *, duration, malformed=0, block=False, switches=None,
           label="run"):
    """The reference pass over ``events`` under ``policy``.

    ``switches`` maps an event index to the policy installed just before
    that event.  The route split uses the rules installed when the pass
    starts, as ``run_detection`` does.
    """
    events = list(events)
    nodes = nodes or {}
    switches = switches or {}
    route_rules = list(policy.signatures)
    ingredients = Ingredients(nodes)
    anomaly = Anomaly(policy.anomaly)
    alerts, blocked, layer_calls, attacks = [], [], Counter(), Counter()
    background = Counter()
    attack_times = []  # (time, alerted) of every attack event
    last, analyzed = 0.0, 0  # the last analyzed time, the events analyzed

    for index, event in enumerate(events):
        policy = switches.get(index, policy)
        if not last <= event.time <= duration:  # out of order, past the span or NaN
            continue
        last, analyzed = event.time, analyzed + 1
        found = ingredients.evaluate(policy.ingredients, event, index)
        alert, consulted = judge(policy, event, index, nodes, found, anomaly)
        layer_calls.update(consulted)
        hit = alert is not None
        if hit:
            alerts.append(alert)
            if block and alert.layer is Layer.VERIFIER:
                blocked.append(index)
        if event.ground_truth is AttackClass.NONE:
            background[hit] += 1
        else:
            matchable = any(sig.pattern in payload_bytes(event) for sig in route_rules)
            attacks[event.ground_truth, matchable, hit] += 1
            attack_times.append((event.time, hit))

    tp = sum(hit for _, hit in attack_times)
    capture_series = [
        (float(s), sum(t <= s for t, _ in attack_times), sum(h for t, h in attack_times if t <= s))
        for s in range(1, math.ceil(duration) + 1)
    ]
    windows = anomaly.outcomes
    result = DetectionResult(
        alerts=alerts,
        counters=ConfusionCounters(tp, background[True], background[False], len(attack_times) - tp),
        received=len(events) + malformed,
        analyzed=analyzed,
        attacks=attacks,
        alerts_by_layer=dict(sorted(Counter(a.layer.value for a in alerts).items())),
        blocked=blocked,
        window_counters=ConfusionCounters(*(windows[o] for o in ("tp", "fp", "tn", "fn"))),
        st_series=anomaly.st_series,
        capture_series=capture_series,
    )
    return Reference(result, report(result, attacks, label), layer_calls)


def per_class(attacks, route=None, alerted_only=False):
    counts = Counter()
    for (cls, matchable, alerted), n in attacks.items():
        if route in (None, matchable) and (alerted or not alerted_only):
            counts[cls.value] += n
    return {cls: counts[cls] for cls in CLASS_ORDER if counts[cls] or cls in CLASS_ROWS}


def report(result, attacks, label):
    c, w = result.counters, result.window_counters
    tga = sum(attacks.values())
    tsa = sum(per_class(attacks, True).values())
    taa = sum(per_class(attacks, False).values())
    msa = tsa - sum(per_class(attacks, True, True).values())
    maa = taa - sum(per_class(attacks, False, True).values())
    total = c.tp + c.fp + c.tn + c.fn
    if w.fn == 0:
        st_ratio, st_verdict = None, "no_attack"
    else:
        exact = Fraction(w.tn, w.tn + 1) / Fraction(w.fn, w.fn + 1)
        st_ratio = float(exact)
        st_verdict = "no_attack" if exact > 1 else "attack" if exact < 1 else "boundary"
    return RunReport(
        label=label,
        received=result.received,
        analyzed=result.analyzed,
        tga=tga,
        tsa=tsa,
        taa=taa,
        msa=msa,
        maa=maa,
        generated=per_class(attacks),
        captured=per_class(attacks, alerted_only=True),
        generated_signature=per_class(attacks, True),
        generated_anomaly=per_class(attacks, False),
        captured_signature=per_class(attacks, True, True),
        captured_anomaly=per_class(attacks, False, True),
        tp=c.tp,
        fp=c.fp,
        tn=c.tn,
        fn=c.fn,
        window_counters={"tp": w.tp, "fp": w.fp, "tn": w.tn, "fn": w.fn},
        st_ratio=st_ratio,
        st_verdict=st_verdict,
        alerts_total=len(result.alerts),
        alerts_by_layer=dict(result.alerts_by_layer),
        blocked=len(result.blocked),
        precision=c.tp / (c.tp + c.fp) * 100.0 if c.tp + c.fp else None,
        overall_probability=(c.tp + c.tn) / total * 100.0 if total else None,
        efficiency=((tsa + taa) - (msa + maa)) * 100.0 / tga if tga else None,
        packet_analysis_capacity=(result.analyzed * 100.0 / result.received
                                  if result.received else None),
    )
