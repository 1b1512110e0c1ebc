"""Entry points only the tests use: DHCP payloads built from a message or
from wire bytes, one event at a time, a whole-trace window classification,
an alert log read back, the layer a sign names, and the JSON objects of an
event and an alert that the package's templated writers must match byte
for byte."""

import json

from dhcpguard.alerts import Alert, AlertClass, Layer, Severity
from dhcpguard.anomaly import WindowTracker
from dhcpguard.dhcp import DhcpCodecError, decode_message, encode_message
from dhcpguard.pipeline import Pipeline
from dhcpguard.signatures import make_view
from dhcpguard.trace import BROADCAST, DhcpPayload


def payload_from_message(msg):
    """The payload the simulator emits for ``msg``."""
    return DhcpPayload(raw=encode_message(msg), message=msg)


def payload_from_raw(raw):
    """The payload the trace reader builds from wire bytes ``raw``."""
    try:
        return DhcpPayload(raw=raw, message=decode_message(raw))
    except DhcpCodecError as exc:
        return DhcpPayload(raw=raw, message=None, error=exc.reason)


class EventPipeline(Pipeline):
    """A pipeline fed one event at a time.

    ``last_consulted`` holds the layers the last event consulted, read
    from the growth of the pipeline's own ``layer_calls``.
    """

    last_consulted: tuple = ()

    def process_event(self, event, index=0):
        before = self.layer_calls
        alert = self.process_view(make_view(event, index, self.nodes))
        after = self.layer_calls
        self.last_consulted = tuple(layer for layer in Layer if after[layer] > before[layer])
        return alert


def window_classification(events, config):
    """Run the tumbling-window classification over a finished trace."""
    tracker = WindowTracker(config)
    for event in events:
        tracker.add_event(event)
    return tracker


# Layer-distinct sign prefixes; layer_of_sign() must stay the inverse of
# every sign the layers produce.
SIGN_PREFIXES = {
    "VR": Layer.VERIFIER,
    "SG": Layer.SIGNATURE,
    "AN": Layer.ANOMALY,
}


def layer_of_sign(unique_sign):
    prefix = unique_sign.split("-", 1)[0]
    try:
        return SIGN_PREFIXES[prefix]
    except KeyError:
        raise ValueError(f"unknown alert sign {unique_sign!r}") from None


def event_to_json(ev):
    """One trace line's object; ``json.dumps(..., sort_keys=True, separators=(",", ":"))``
    of it is the line :func:`dhcpguard.netsim.write_trace` writes."""
    if isinstance(ev.payload, DhcpPayload):
        payload = {"kind": "dhcp", "data": ev.payload.raw.hex()}
    else:
        payload = {
            "kind": "generic",
            "proto": ev.payload.proto.value,
            "flags": sorted(ev.payload.flags),
            "size_bytes": ev.payload.size_bytes,
            "payload_pattern": ev.payload.payload_pattern.hex(),
        }
    return {
        "time": ev.time,
        "src": ev.src,
        "dst": "broadcast" if ev.dst == BROADCAST else ev.dst,
        "payload": payload,
        "ground_truth": ev.ground_truth.value,
    }


def alert_to_json(alert):
    """One alert log line's object, as :func:`event_to_json` is for a trace line."""
    return {
        "time": alert.time,
        "layer": alert.layer.value,
        "attack_class": alert.attack_class.value,
        "severity": alert.severity.value,
        "evidence": list(alert.evidence),
        "unique_sign": alert.unique_sign,
    }


def alert_from_json(data):
    return Alert(
        time=float(data["time"]),
        layer=Layer(data["layer"]),
        attack_class=AlertClass(data["attack_class"]),
        severity=Severity(data["severity"]),
        evidence=tuple(int(i) for i in data["evidence"]),
        unique_sign=str(data["unique_sign"]),
    )


def read_alerts(path):
    alerts = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                alerts.append(alert_from_json(json.loads(line)))
    return alerts
