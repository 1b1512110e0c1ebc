"""The templated trace and alert writers against ``json.dumps``, byte for byte.

``write_trace`` and ``write_alerts`` build each line from a template with
its keys already in sorted order.  Every line must equal what
``json.dumps(..., sort_keys=True, separators=(",", ":"))`` makes of the
record's object in ``tests/helpers.py``: the same key order, flags sorted
whatever the set's hash order, floats as ``repr``, ``NaN`` and
``Infinity`` where json writes them, and non-ASCII text escaped.
"""

import json
import math

import pytest

from dhcpguard import netsim
from dhcpguard.alerts import Alert, AlertClass, Layer, Severity
from dhcpguard.dhcp import DhcpMessage, MsgType, parse_ipv4
from dhcpguard.netsim import (
    BROADCAST,
    AttackClass,
    GenericPayload,
    Proto,
    ScenarioKind,
    SimEvent,
    Trace,
    default_scenario,
    legit_server_records,
    read_trace,
    run_scenario,
    write_trace,
)
from dhcpguard.pipeline import DhcpRegistry, Pipeline, Policy, run_detection, write_alerts
from dhcpguard.signatures import load_signatures, sample_signatures_path

from helpers import alert_to_json, event_to_json, payload_from_message, payload_from_raw


def dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def written_events(tmp_path, events, topology=()):
    path = tmp_path / "t.jsonl"
    write_trace(Trace(ScenarioKind.MIXED, 1, 60.0, list(topology), list(events)), path)
    return path.read_text(encoding="utf-8").splitlines()[1:]


def written_alerts(tmp_path, alerts):
    path = tmp_path / "a.jsonl"
    write_alerts(alerts, path)
    return path.read_text(encoding="utf-8").splitlines()


@pytest.fixture(scope="module")
def simulated():
    """Every scenario kind, seed 7, 90 s, tampered frames included."""
    return {kind: run_scenario(default_scenario(kind, 7, duration=90.0, tamper=True))
            for kind in ScenarioKind}


@pytest.mark.parametrize("kind", list(ScenarioKind), ids=lambda k: k.value)
def test_every_simulated_event_line_equals_json_dumps(tmp_path, simulated, kind):
    trace = simulated[kind]
    lines = written_events(tmp_path, trace.events, trace.topology)
    assert len(lines) == len(trace.events) > 0
    for line, ev in zip(lines, trace.events):
        assert line == dumps(event_to_json(ev))


@pytest.mark.parametrize("kind", list(ScenarioKind), ids=lambda k: k.value)
def test_rewriting_a_read_trace_gives_its_bytes(tmp_path, simulated, kind):
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    write_trace(simulated[kind], first)
    loaded, malformed = read_trace(first)
    assert malformed == []
    write_trace(loaded, second)
    assert second.read_bytes() == first.read_bytes()


def _offer():
    return DhcpMessage(MsgType.OFFER, 0x1234ABCD, bytes.fromhex("02ab00000001"),
                       parse_ipv4("10.0.0.50"), parse_ipv4("10.0.0.2"),
                       parse_ipv4("10.0.0.1"), parse_ipv4("10.0.0.3"), 3600)


def _generic(flags=frozenset(), pattern=b"GET /", proto=Proto.TCP, size=100):
    return GenericPayload(proto, frozenset(flags), size, pattern)


HAND_BUILT = [
    # times: ints (one past any float), floats of every repr form, NaN and
    # both infinities
    *(SimEvent(t, 1, 2, _generic())
      for t in (0, 3, 2 ** 53 + 1, 10 ** 400, 0.0, -0.0, 0.1, 1e-7, 1e16, 123456789.123,
                5e-324, 1.7976931348623157e308, math.nan, math.inf, -math.inf)),
    SimEvent(1.5, 0, BROADCAST, payload_from_message(_offer()), AttackClass.ROGUE_DHCP),
    SimEvent(1.5, (1 << 40) - 1, 0, _generic(), AttackClass.MASQUERADE),
    # flag sets: empty, one, many (hash order is not sorted order) and
    # strings json must escape
    SimEvent(2.0, 3, 4, _generic(["syn"])),
    SimEvent(2.0, 3, 4, _generic(["urg", "syn", "rst", "psh", "fin", "ack", "ece", "cwr"])),
    SimEvent(2.0, 3, 4, _generic(["é", '"', "\\", "\n", "ack", "\x00", "☃", "\U0001f600"])),
    SimEvent(2.0, 3, 4, _generic(["b", "a"], pattern=b"")),
    SimEvent(2.0, 3, 4, _generic(pattern=bytes(range(256)), size=2 ** 32)),
    # a corrupt DHCP frame keeps its wire bytes
    SimEvent(3.0, 5, BROADCAST, payload_from_raw(b"\x02" + b"\xff" * 31), AttackClass.NONE),
    SimEvent(3.0, 5, 6, payload_from_raw(b"\x01\x02")),
    *(SimEvent(4.0, 7, 8, _generic(proto=proto), label)
      for proto in Proto for label in AttackClass),
]


def test_hand_built_event_lines_equal_json_dumps(tmp_path):
    lines = written_events(tmp_path, HAND_BUILT)
    assert lines == [dumps(event_to_json(ev)) for ev in HAND_BUILT]
    assert any('"time":NaN}' in line for line in lines)
    assert any('"time":-Infinity}' in line for line in lines)
    assert all(line.isascii() for line in lines)


def test_flag_text_table_stays_bounded_and_exact(tmp_path, monkeypatch):
    monkeypatch.setattr(netsim, "_flags_text", {})
    events = [SimEvent(float(i), 1, 2, _generic([f"f{i}", f"g{i % 7}", "ack"]))
              for i in range(3 * netsim.FLAG_SETS_MAX)]
    events += events[:5]  # sets seen before the table was emptied
    lines = written_events(tmp_path, events)
    assert lines == [dumps(event_to_json(ev)) for ev in events]
    assert 0 < len(netsim._flags_text) <= netsim.FLAG_SETS_MAX


@pytest.fixture(scope="module")
def detected(simulated):
    """The alerts of detect over every simulated kind, in trace order."""
    signatures = load_signatures(sample_signatures_path())
    alerts = []
    for trace in simulated.values():
        registry = DhcpRegistry.from_records(legit_server_records(trace.topology))
        pipe = Pipeline(Policy(1, registry, signatures), {n.id: n for n in trace.topology})
        alerts += run_detection(trace.events, pipe, duration=trace.duration).alerts
    return alerts


def test_alert_lines_of_every_layer_equal_json_dumps(tmp_path, detected):
    assert {alert.layer for alert in detected} == set(Layer)
    lines = written_alerts(tmp_path, detected)
    assert lines == [dumps(alert_to_json(alert)) for alert in detected]


def test_hand_built_alert_lines_equal_json_dumps(tmp_path):
    alerts = [Alert(t, layer, attack_class, severity, evidence, sign)
              for t, evidence, sign in ((0.25, (), "VR-ROGUE"), (7, (3,), "SG-001"),
                                        (10 ** 400, (4,), "AN-RATE"),
                                        (1e-7, (10, 2, 2 ** 40), "SG-ING-radio_range"),
                                        (math.nan, (0,), 'é"\\\n\x00'),
                                        (math.inf, (1, 2), "\U0001f600"),
                                        (-math.inf, (5,), ""))
              for layer in Layer for attack_class in AlertClass for severity in Severity]
    lines = written_alerts(tmp_path, alerts)
    assert lines == [dumps(alert_to_json(alert)) for alert in alerts]
    assert all(line.isascii() for line in lines)
