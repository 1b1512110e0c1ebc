import dataclasses
import math
import random
import time
from collections import Counter

import pytest

from dhcpguard.alerts import AlertClass, Layer, Severity
from dhcpguard.anomaly import (
    DISTINCT_SOURCES,
    MAX_WINDOWS,
    MEAN_SIZE,
    RATE,
    AnomalyConfig,
    traffic_metrics,
)
from dhcpguard.dhcp import (
    BODY_SIZE,
    DhcpMessage,
    MsgType,
    checksum16,
    encode_message,
    format_ipv4,
    parse_ipv4,
)
from dhcpguard.metrics import build_report
from dhcpguard.netsim import (
    ATTACKER_IP,
    BROADCAST,
    MAX_DURATION,
    AttackClass,
    GenericPayload,
    LEGIT_SERVER_IP,
    NodeSpec,
    Proto,
    ROUTER_IP,
    Role,
    ScenarioKind,
    SimEvent,
    default_scenario,
    default_topology,
    legit_server_records,
    replay_client_bindings,
    run_scenario,
)
from dhcpguard.pipeline import (
    _ANOMALY_SIGNS,
    _INGREDIENT_SIGNS,
    DhcpRegistry,
    Pipeline,
    PipelineError,
    Policy,
    StaleVersion,
    fingerprint,
    run_detection,
    verify_dhcp_offer,
)
from dhcpguard.signatures import (
    MAX_RULE_ID_DIGITS,
    Direction,
    Ingredient,
    IngredientConfig,
    Signature,
    SignatureDb,
    load_signatures,
    sample_signatures_path,
)

import reference_detect as reference
from helpers import (EventPipeline, alert_to_json, layer_of_sign, payload_from_message,
                     payload_from_raw)

LEGIT = parse_ipv4("10.0.0.2")
GATEWAY = parse_ipv4("10.0.0.1")
ROGUE = parse_ipv4("10.0.66.1")


def _registry():
    return DhcpRegistry.from_records([{
        "server_id": format_ipv4(LEGIT), "mac": "02:00:00:00:00:01",
        "gateway": format_ipv4(GATEWAY), "dns": format_ipv4(GATEWAY),
    }])


def _policy(version=1, registry=None, signatures=None):
    return Policy(
        version=version,
        registry=registry if registry is not None else _registry(),
        signatures=signatures if signatures is not None else load_signatures(sample_signatures_path()),
    )


def _offer(server_id=LEGIT, gateway=GATEWAY, dns=GATEWAY, xid=1):
    return DhcpMessage(MsgType.OFFER, xid, bytes.fromhex("020000000004"),
                       your_ip=parse_ipv4("10.0.1.1"), server_id=server_id,
                       gateway=gateway, dns=dns, lease_secs=300)


def _event(payload, time=0.0, src=1, dst=4, truth=AttackClass.NONE):
    return SimEvent(time, src, dst, payload, truth)


# -- verifier -------------------------------------------------------------------


def test_registered_offer_is_valid():
    assert verify_dhcp_offer(_offer(), _registry()) is True


def test_unregistered_server_is_rogue():
    assert verify_dhcp_offer(_offer(server_id=ROGUE, gateway=ATTACKER_IP, dns=ATTACKER_IP),
                             _registry()) is False


def test_spoofed_identity_fails_fingerprint():
    # correct server_id but the gateway the rogue rewrote: fingerprint mismatch
    spoofed = _offer(server_id=LEGIT, gateway=ATTACKER_IP)
    assert verify_dhcp_offer(spoofed, _registry()) is False


def test_fingerprint_cache_is_bounded():
    maxsize = fingerprint.cache_info().maxsize
    assert maxsize is not None and 0 < maxsize <= 4096
    for i in range(maxsize + 10):  # forged triples cannot grow it further
        server = 0x0A000000 + i
        assert fingerprint(server, GATEWAY, GATEWAY) == fingerprint.__wrapped__(
            server, GATEWAY, GATEWAY)
    assert fingerprint.cache_info().currsize <= maxsize


def test_fingerprint_depends_on_all_three_fields():
    base = fingerprint(LEGIT, GATEWAY, GATEWAY)
    assert fingerprint(LEGIT, ATTACKER_IP, GATEWAY) != base
    assert fingerprint(LEGIT, GATEWAY, ATTACKER_IP) != base
    assert fingerprint(ROGUE, GATEWAY, GATEWAY) != base


def test_empty_registry_flags_every_offer():
    empty = DhcpRegistry()
    assert verify_dhcp_offer(_offer(), empty) is False


def test_registry_rejects_duplicate_server_ids():
    record = {"server_id": format_ipv4(LEGIT), "mac": "02:00:00:00:00:01",
              "gateway": format_ipv4(GATEWAY), "dns": format_ipv4(GATEWAY)}
    with pytest.raises(ValueError):
        DhcpRegistry.from_records([record, record])


@pytest.mark.parametrize("field, value", [
    ("mac", "0x1:+2: 3:1_0:4:5"),
    ("mac", "100:0:0:0:0:0"),
    ("mac", "2:0:0:0:0:1"),
    ("mac", "02-00-00-00-00-01"),
    ("mac", "02:00:00:00:00:01:07"),
    ("mac", 2),
    ("server_id", "10.0.0.256"),
    ("gateway", "10.0.0"),
    ("dns", " 10.0.0.1"),
    ("dns", None),
])
def test_registry_record_errors_name_the_field(field, value):
    record = {"server_id": format_ipv4(LEGIT), "mac": "02:00:00:00:00:01",
              "gateway": format_ipv4(GATEWAY), "dns": format_ipv4(GATEWAY)}
    assert len(DhcpRegistry.from_records([dict(record, mac="0A:fF:00:00:00:01")])) == 1
    with pytest.raises(ValueError, match=f"^server record 0: {field} must be .*, got "):
        DhcpRegistry.from_records([dict(record, **{field: value})])


def test_registry_mac_error_reads_as_before():
    record = {"server_id": format_ipv4(LEGIT), "mac": "aa:bb:cc",
              "gateway": format_ipv4(GATEWAY), "dns": format_ipv4(GATEWAY)}
    with pytest.raises(ValueError) as info:
        DhcpRegistry.from_records([record])
    assert str(info.value) == ("server record 0: mac must be six ':'-separated hex pairs, "
                               "got 'aa:bb:cc'")


def test_registry_text_round_trips_through_ints():
    records = legit_server_records(default_topology(ScenarioKind.ROGUE_RACE, clients=2))
    assert [(rec["server_id"], rec["gateway"], rec["dns"]) for rec in records] == [
        ("10.0.0.2", "10.0.0.1", "10.0.0.1")]
    for rec in records:
        for key in ("server_id", "gateway", "dns"):
            assert format_ipv4(parse_ipv4(rec[key])) == rec[key]
    registry = DhcpRegistry.from_records(records)
    assert list(registry.entries) == [LEGIT_SERVER_IP]
    assert registry.entries[LEGIT_SERVER_IP] == fingerprint(
        LEGIT_SERVER_IP, ROUTER_IP, ROUTER_IP)


# -- ordering and short-circuit ----------------------------------------------------


def test_rogue_offer_short_circuits_at_verifier():
    pipe = EventPipeline(_policy())
    event = _event(payload_from_message(_offer(server_id=ROGUE)),
                   truth=AttackClass.ROGUE_DHCP)
    alert = pipe.process_event(event, index=7)
    assert alert is not None
    assert alert.layer is Layer.VERIFIER
    assert alert.attack_class is AlertClass.ROGUE_DHCP
    assert alert.severity is Severity.HIGH
    assert alert.evidence == (7,)
    assert pipe.last_consulted == (Layer.VERIFIER,)


def test_signature_match_stops_before_anomaly():
    pipe = EventPipeline(_policy())
    payload = GenericPayload(Proto.TCP, frozenset({"ack"}), 120,
                             b"mail attachment freepics.exe")
    alert = pipe.process_event(_event(payload, truth=AttackClass.R2L))
    assert alert is not None and alert.layer is Layer.SIGNATURE
    assert pipe.last_consulted == (Layer.VERIFIER, Layer.SIGNATURE)


def test_dual_matching_event_reports_signature_layer_only():
    from dhcpguard.anomaly import DISTINCT_SOURCES, MEAN_SIZE, RATE
    pipe = EventPipeline(_policy())
    for _ in range(40):  # warm the baselines on quiet traffic
        pipe.window_tracker.baseline.update(
            {RATE: 1.0, MEAN_SIZE: 100.0, DISTINCT_SOURCES: 1.0})
    alert = None
    for i in range(40):  # a burst that is clearly anomalous but matches no rule
        payload = GenericPayload(Proto.TCP, frozenset({"ack"}), 100, b"x%02d" % i)
        alert = pipe.process_event(_event(payload, time=1.0 + i * 0.01, src=2), i)
    assert alert is not None and alert.layer is Layer.ANOMALY
    # same anomalous window, but the payload now also matches a signature
    dual = GenericPayload(Proto.TCP, frozenset({"ack"}), 100, b"get freepics.exe")
    dual_alert = pipe.process_event(_event(dual, time=1.5, src=2), 99)
    assert dual_alert is not None and dual_alert.layer is Layer.SIGNATURE
    assert pipe.last_consulted == (Layer.VERIFIER, Layer.SIGNATURE)


@pytest.mark.parametrize("quiet, sign", [
    # rate and mean size exceed, sources do not
    ({RATE: 1.0, MEAN_SIZE: 100.0, DISTINCT_SOURCES: 5.0}, "AN-RATE"),
    # all three exceed
    ({RATE: 1.0, MEAN_SIZE: 100.0, DISTINCT_SOURCES: 1.0}, "AN-RATE"),
    # mean size and sources exceed, rate does not
    ({RATE: 5.0, MEAN_SIZE: 100.0, DISTINCT_SOURCES: 1.0}, "AN-SIZE"),
    # sources alone
    ({RATE: 5.0, MEAN_SIZE: 300.0, DISTINCT_SOURCES: 1.0}, "AN-SRCS"),
])
def test_first_exceeded_metric_in_priority_order_names_the_anomaly(quiet, sign):
    pipe = EventPipeline(_policy())
    for _ in range(40):  # constant quiet traffic: each threshold is its quiet value
        pipe.window_tracker.baseline.update(quiet)
    alert = None
    for src in (2, 3):  # two 200-byte events from two sources: rate 2, size 200, sources 2
        payload = GenericPayload(Proto.TCP, frozenset({"ack"}), 200, b"y%d" % src)
        alert = pipe.process_event(_event(payload, time=1.0 + src * 0.01, src=src), src)
    assert alert is not None and alert.layer is Layer.ANOMALY
    assert alert.unique_sign == sign


def test_benign_event_consults_all_three_layers():
    pipe = EventPipeline(_policy())
    payload = GenericPayload(Proto.TCP, frozenset({"ack"}), 120, b"GET /index.html")
    assert pipe.process_event(_event(payload)) is None
    assert pipe.last_consulted == (Layer.VERIFIER, Layer.SIGNATURE, Layer.ANOMALY)


def test_valid_offer_passes_through_quietly():
    pipe = EventPipeline(_policy())
    assert pipe.process_event(_event(payload_from_message(_offer()))) is None
    assert pipe.last_consulted == (Layer.VERIFIER, Layer.SIGNATURE, Layer.ANOMALY)


def test_short_circuit_instrumentation_over_mixed_trace():
    trace = run_scenario(default_scenario(ScenarioKind.MIXED, seed=31, duration=20.0))
    registry = DhcpRegistry.from_records(legit_server_records(trace.topology))
    pipe = EventPipeline(_policy(registry=registry), {n.id: n for n in trace.topology})
    for index, event in enumerate(trace.events):
        alert = pipe.process_event(event, index)
        consulted = pipe.last_consulted
        assert 1 <= len(consulted) <= 3
        assert consulted == (Layer.VERIFIER, Layer.SIGNATURE, Layer.ANOMALY)[: len(consulted)]
        if alert is not None:
            assert alert.layer is consulted[-1]
        else:
            assert len(consulted) == 3


def test_verifier_caught_ack_still_answers_its_request():
    # the rogue ACK alerts at the verifier, but it must still count as the
    # answer to the pending REQUEST: no retransmission violation later
    pipe = EventPipeline(_policy())
    mac = bytes.fromhex("020000000004")
    request = DhcpMessage(MsgType.REQUEST, 0x77, mac, your_ip=parse_ipv4("10.0.66.100"),
                          server_id=ROGUE)
    rogue_ack = DhcpMessage(MsgType.ACK, 0x77, mac, your_ip=parse_ipv4("10.0.66.100"),
                            server_id=ROGUE, gateway=ATTACKER_IP, dns=ATTACKER_IP,
                            lease_secs=300)
    assert pipe.process_event(_event(payload_from_message(request), time=0.0), 0) is None
    ack_alert = pipe.process_event(_event(payload_from_message(rogue_ack), time=0.1), 1)
    assert ack_alert is not None and ack_alert.layer is Layer.VERIFIER
    late = _event(GenericPayload(Proto.TCP, frozenset({"ack"}), 100, b"later"), time=10.0)
    assert pipe.process_event(late, 2) is None


# -- what each window sees ------------------------------------------------------------


def _two_window_policy(flood_threshold=500):
    return Policy(
        version=1,
        registry=_registry(),
        signatures=SignatureDb([Signature(1, b"EVIL", AlertClass.DOS)]),
        ingredients=IngredientConfig(window=2.5, flood_threshold=flood_threshold),
        anomaly=AnomalyConfig(window=0.5),
    )


def _generic(time, src, size, pattern):
    return _event(GenericPayload(Proto.TCP, frozenset({"ack"}), size, pattern), time, src)


# Generic traffic, one signature hit and one DHCP DISCOVER.
_TWO_WINDOW_EVENTS = [
    _generic(7.5, 1, 1000, b"old-1"),
    _generic(9.0, 2, 1000, b"old-2"),
    _generic(9.5, 3, 1000, b"edge"),  # exactly anomaly.window before the last event
    _generic(9.6, 4, 100, b"recent"),
    _generic(9.7, 5, 1000, b"EVIL payload"),
    _event(payload_from_message(DhcpMessage(MsgType.DISCOVER, 9, (6).to_bytes(6, "big"))),
           time=9.8, src=6, dst=BROADCAST),
    _generic(10.0, 7, 300, b"last"),
]


def test_anomaly_window_sees_only_generic_events_that_reached_it():
    pipe = EventPipeline(_two_window_policy())
    samples = []
    exceeded = pipe.window_tracker.baseline.exceeded

    def record(metrics):
        samples.append(metrics)
        return exceeded(metrics)

    pipe.window_tracker.baseline.exceeded = record
    consulted = []
    for index, event in enumerate(_TWO_WINDOW_EVENTS):
        pipe.process_event(event, index)
        consulted.append(pipe.last_consulted)
    assert consulted[4] == (Layer.VERIFIER, Layer.SIGNATURE)  # caught by the rule
    assert Layer.ANOMALY in consulted[5]                       # DHCP reaches the layer
    # The last call is the per-event check of the event at 10.0.  Its trailing
    # window (9.5, 10.0] holds the events at 9.6 and 10.0 only: the one at
    # 9.5 is at the cutoff, the rule hit stopped at the signature layer and
    # DHCP never enters the anomaly metrics.
    assert samples[-1] == {RATE: 2 / 0.5, DISTINCT_SOURCES: 2.0, MEAN_SIZE: 200.0}


def test_flooding_counts_every_event_in_the_ingredient_window():
    pipe = EventPipeline(_two_window_policy(flood_threshold=5))
    signs = [
        alert.unique_sign if alert else None
        for alert in (pipe.process_event(e, i) for i, e in enumerate(_TWO_WINDOW_EVENTS))
    ]
    # The DHCP event at 9.8 is the sixth in (7.3, 9.8], counting the rule
    # hit and the events outside the anomaly window; at 10.0 the window
    # (7.5, 10.0] has dropped the event at 7.5 and still holds six.
    assert signs == [None, None, None, None, "SG-001", "SG-ING-flooding", "SG-ING-flooding"]
    later = pipe.process_event(_generic(12.4, 8, 100, b"later"), 7)
    assert later is None  # (9.9, 12.4] holds only the events at 10.0 and 12.4


# -- frames that do not decode ------------------------------------------------------


def _reframed_request(reason):
    """The wire image of a REQUEST, broken so that it fails to decode for ``reason``."""
    raw = encode_message(DhcpMessage(MsgType.REQUEST, 0x55, (9).to_bytes(6, "big"),
                                     your_ip=parse_ipv4("10.0.1.1"), server_id=LEGIT))
    body = bytearray(raw[:BODY_SIZE])
    if reason == "bad_length":
        return raw + b"\x00"
    if reason == "bad_checksum":
        return raw[:BODY_SIZE] + bytes([raw[BODY_SIZE] ^ 0x01, raw[BODY_SIZE + 1]])
    body[0] = {"unknown_type": 4, "invalid_field": int(MsgType.DISCOVER)}[reason]
    return bytes(body) + checksum16(bytes(body)).to_bytes(2, "big")


@pytest.mark.parametrize("reason", ["bad_length", "unknown_type", "invalid_field"])
def test_undecodable_frames_are_neither_tampered_verified_nor_measured(monkeypatch, reason):
    # A DISCOVER carrying your_ip is an invalid field; type 4 is no message type.
    def verify(msg, registry):
        raise AssertionError("an undecodable frame reached the verifier")

    monkeypatch.setattr("dhcpguard.pipeline.verify_dhcp_offer", verify)
    pipe = EventPipeline(_policy())
    samples = []
    exceeded = pipe.window_tracker.baseline.exceeded

    def record(metrics):
        samples.append(metrics)
        return exceeded(metrics)

    pipe.window_tracker.baseline.exceeded = record
    payload = payload_from_raw(_reframed_request(reason))
    assert payload.message is None and payload.error == reason
    assert pipe.process_event(_event(payload, time=0.0, dst=BROADCAST), 0) is None
    assert pipe.last_consulted == (Layer.VERIFIER, Layer.SIGNATURE, Layer.ANOMALY)
    assert samples == []  # the anomaly metrics never saw it
    # No REQUEST was noted, so nothing is overdue long after the timeout,
    # and the trailing window holds the generic event alone.
    assert pipe.process_event(_generic(10.0, 7, 300, b"later"), 1) is None
    assert samples == [{RATE: 1.0, DISTINCT_SOURCES: 1.0, MEAN_SIZE: 300.0}]


def test_only_a_bad_checksum_is_tampering():
    pipe = EventPipeline(_policy())
    payload = payload_from_raw(_reframed_request("bad_checksum"))
    assert payload.message is None and payload.error == "bad_checksum"
    alert = pipe.process_event(_event(payload, time=0.0, dst=BROADCAST), 0)
    assert alert is not None and alert.unique_sign == "SG-ING-validity"
    assert alert.layer is Layer.SIGNATURE
    assert pipe.process_event(_generic(10.0, 7, 300, b"later"), 1) is None


# -- policy updates -----------------------------------------------------------------


def test_policy_update_allows_previously_rogue_server():
    pipe = EventPipeline(_policy(version=1))
    rogue_offer = _event(payload_from_message(
        _offer(server_id=ROGUE, gateway=ATTACKER_IP, dns=ATTACKER_IP)))
    assert pipe.process_event(rogue_offer) is not None

    extended = DhcpRegistry.from_records(
        [{"server_id": format_ipv4(LEGIT), "mac": "02:00:00:00:00:01",
          "gateway": format_ipv4(GATEWAY), "dns": format_ipv4(GATEWAY)},
         {"server_id": format_ipv4(ROGUE), "mac": "02:00:00:00:00:02",
          "gateway": format_ipv4(ATTACKER_IP), "dns": format_ipv4(ATTACKER_IP)}])
    pipe.update_policy(_policy(version=2, registry=extended))
    assert pipe.process_event(rogue_offer) is None  # replay now verifies


def test_mid_trace_policy_updates_match_the_reference():
    sc = default_scenario(
        ScenarioKind.ROGUE_RACE, seed=11, duration=60.0, clients=20, lease_secs=10,
        rates={AttackClass.NONE: 30.0, AttackClass.U2R: 3.0, AttackClass.R2L: 3.0,
               AttackClass.PROBE: 3.0})
    trace = run_scenario(sc)
    registry = DhcpRegistry.from_records(legit_server_records(trace.topology))
    sample = load_signatures(sample_signatures_path())
    other = SignatureDb([Signature(1, b"keepalive", AlertClass.PROBE, Direction.INBOUND),
                         Signature(2, b"root", AlertClass.U2R),
                         Signature(5, b"GET /", AlertClass.R2L, Direction.OUTBOUND)])
    # every switch changes both the retransmit timeout and the rule set
    policies = [
        Policy(1, registry, sample, IngredientConfig(retransmit_timeout=0.005)),
        Policy(2, registry, other, IngredientConfig(retransmit_timeout=0.5, window=2.0)),
        Policy(3, registry, sample, IngredientConfig(retransmit_timeout=0.003)),
    ]
    switch_at = {len(trace.events) * i // 3: p for i, p in enumerate(policies) if i}

    def run():
        pipe = EventPipeline(policies[0], {n.id: n for n in trace.topology})
        alerts, outcomes = [], Counter()
        for index, event in enumerate(trace.events):
            if index in switch_at:
                pipe.update_policy(switch_at[index])
            alert = pipe.process_event(event, index)
            if alert is not None:
                alerts.append(alert_to_json(alert))
            outcomes[alert is not None, event.ground_truth is not AttackClass.NONE] += 1
        return alerts, outcomes, pipe.layer_calls, pipe.window_tracker.counters

    def run_reference():
        ref = reference.detect(trace.events, policies[0], {n.id: n for n in trace.topology},
                               duration=trace.duration, switches=switch_at)
        c = ref.result.counters
        outcomes = Counter({(True, True): c.tp, (True, False): c.fp,
                            (False, False): c.tn, (False, True): c.fn})
        alerts = [alert_to_json(alert) for alert in ref.result.alerts]
        return alerts, outcomes, ref.layer_calls, ref.result.window_counters

    got = run()
    expected = run_reference()
    assert got == expected
    signs = Counter(alert["unique_sign"] for alert in expected[0])
    for sign in ("SG-ING-retransmission", "SG-ING-radio_range", "SG-003", "SG-005"):
        assert signs[sign] > 0  # SG-003 only in the sample rules, SG-005 only in `other`


def test_expired_requests_keep_request_order_across_a_timeout_change():
    """A pending REQUEST expires under the timeout in force, not the one it was noted under."""
    mac = bytes.fromhex("020000000004")

    def request(xid, time, index):
        msg = DhcpMessage(MsgType.REQUEST, xid, mac, your_ip=parse_ipv4("10.0.1.1"), server_id=LEGIT)
        return pipe.process_event(_event(payload_from_message(msg), time=time), index)

    def later(time, index):
        return pipe.process_event(
            _event(GenericPayload(Proto.TCP, frozenset({"ack"}), 100, b"later"), time=time), index)

    def timeout(version, seconds):
        pipe.update_policy(Policy(version, _registry(), empty,
                                  IngredientConfig(retransmit_timeout=seconds)))

    empty = SignatureDb([])
    pipe = EventPipeline(Policy(1, _registry(), empty, IngredientConfig(retransmit_timeout=5.0)))
    assert request(0x1, 0.0, 0) is None
    assert request(0x2, 0.2, 1) is None
    timeout(2, 0.5)
    # Both are more than 0.5 s old at 3.0, so both expire, in request order.
    alert = later(3.0, 2)
    assert alert.unique_sign == "SG-ING-retransmission"
    assert alert.evidence == (2, 0)
    # A REQUEST noted under 0.5 s waits out a timeout raised to 5.0 s.
    assert request(0x3, 3.0, 3) is None
    timeout(3, 5.0)
    assert later(8.0, 4) is None
    assert later(8.5, 5).evidence == (5, 3)


def test_stale_policy_version_rejected():
    pipe = Pipeline(_policy(version=5))
    with pytest.raises(StaleVersion):
        pipe.update_policy(_policy(version=3))
    with pytest.raises(StaleVersion):
        pipe.update_policy(_policy(version=5))


def test_policy_update_refuses_a_new_anomaly_config():
    pipe = Pipeline(_policy(version=1))
    with pytest.raises(PipelineError, match="anomaly"):
        pipe.update_policy(dataclasses.replace(_policy(version=2), anomaly=AnomalyConfig(k=1000.0)))
    assert pipe.policy.version == 1
    assert pipe.window_tracker.config == AnomalyConfig()


def test_policy_update_keeps_an_equal_anomaly_config():
    pipe = Pipeline(dataclasses.replace(_policy(version=1), anomaly=AnomalyConfig(k=5.0)))
    tracker = pipe.window_tracker
    pipe.update_policy(dataclasses.replace(_policy(version=2), anomaly=AnomalyConfig(k=5.0)))
    assert pipe.policy.version == 2
    assert pipe.window_tracker is tracker


def test_policy_bump_with_identical_content_is_idempotent():
    events = [
        _event(payload_from_message(_offer()), time=0.1),
        _event(payload_from_message(_offer(server_id=ROGUE)), time=0.2,
               truth=AttackClass.ROGUE_DHCP),
        _event(GenericPayload(Proto.TCP, frozenset({"ack"}), 100, b"hello"), time=0.3),
    ]
    first = EventPipeline(_policy(version=1))
    verdicts_1 = [first.process_event(e, i) for i, e in enumerate(events)]
    second = EventPipeline(_policy(version=1))
    second.update_policy(_policy(version=2))
    verdicts_2 = [second.process_event(e, i) for i, e in enumerate(events)]
    assert verdicts_1 == verdicts_2


# -- run_detection --------------------------------------------------------------------


def test_background_trace_with_empty_db_is_all_tn():
    sc = default_scenario(ScenarioKind.ROGUE_RACE, seed=9, clients=4)
    sc.rates[AttackClass.ROGUE_DHCP] = 0.0
    trace = run_scenario(sc)
    registry = DhcpRegistry.from_records(legit_server_records(trace.topology))
    pipe = Pipeline(_policy(registry=registry, signatures=SignatureDb([])),
                    {n.id: n for n in trace.topology})
    result = run_detection(trace.events, pipe, duration=trace.duration)
    assert result.alerts == []
    c = result.counters
    assert (c.tp, c.fp, c.fn) == (0, 0, 0)
    assert c.tn == len(trace.events)


def test_rogue_race_detection_counts():
    trace = run_scenario(default_scenario(ScenarioKind.ROGUE_RACE, seed=9, clients=6))
    registry = DhcpRegistry.from_records(legit_server_records(trace.topology))
    pipe = Pipeline(_policy(registry=registry), {n.id: n for n in trace.topology})
    result = run_detection(trace.events, pipe, duration=trace.duration)
    assert result.counters.tp >= 1
    assert result.alerts_by_layer.get("verifier", 0) >= 6
    assert result.counters.total == result.analyzed
    report = build_report(result)
    assert report.generated["rogue_dhcp"] == report.captured["rogue_dhcp"]


def test_alerts_by_layer_counts_only_the_pass_s_own_alerts():
    pipe = EventPipeline(_policy())
    rogue = _event(payload_from_message(_offer(server_id=ROGUE)), truth=AttackClass.ROGUE_DHCP)
    assert pipe.process_event(rogue).layer is Layer.VERIFIER
    events = [_event(GenericPayload(Proto.TCP, frozenset({"ack"}), 120, pattern),
                     time=0.1 * i, truth=AttackClass.R2L)
              for i, pattern in enumerate((b"mail attachment freepics.exe", b"hello"))]
    result = run_detection(events, pipe, duration=1.0)
    assert [alert.layer for alert in result.alerts] == [Layer.SIGNATURE]
    assert result.alerts_by_layer == {"signature": 1}
    assert pipe.layer_calls[Layer.VERIFIER] == 3


def test_route_split_ignores_rule_direction():
    # an inbound-only rule cannot fire on an outbound event, but its pattern
    # still makes that attack "signature-based" in the route split
    db = SignatureDb([Signature(1, b"root", AlertClass.U2R, Direction.INBOUND)])
    nodes = {n.id: n for n in (NodeSpec(2, Role.CLIENT), NodeSpec(3, Role.ROUTER))}
    payloads = [b"su root", b"nothing"]
    events = [_event(GenericPayload(Proto.TCP, frozenset(), 100, p), time=0.1 * i,
                     src=2, dst=3, truth=AttackClass.U2R) for i, p in enumerate(payloads)]
    pipe = Pipeline(_policy(signatures=db), nodes)
    result = run_detection(events, pipe, duration=1.0)
    assert result.alerts_by_layer.get("signature", 0) == 0
    assert build_report(result).generated_signature["u2r"] == 1
    assert build_report(result).generated_anomaly["u2r"] == 1


def test_malformed_lines_count_as_received_only():
    trace = run_scenario(default_scenario(ScenarioKind.ROGUE_RACE, seed=9, clients=4))
    registry = DhcpRegistry.from_records(legit_server_records(trace.topology))
    pipe = Pipeline(_policy(registry=registry))
    result = run_detection(trace.events, pipe, malformed=1, duration=trace.duration)
    assert result.received == result.analyzed + 1


def test_counter_conservation_and_determinism():
    trace = run_scenario(default_scenario(ScenarioKind.MIXED, seed=13, duration=20.0))
    registry = DhcpRegistry.from_records(legit_server_records(trace.topology))
    nodes = {n.id: n for n in trace.topology}

    first = run_detection(trace.events, Pipeline(_policy(registry=registry), nodes),
                          duration=trace.duration)
    second = run_detection(trace.events, Pipeline(_policy(registry=registry), nodes),
                           duration=trace.duration)
    assert first.counters.total == len(trace.events)
    assert first.alerts == second.alerts
    assert first.counters.as_dict() == second.counters.as_dict()
    report = build_report(first)
    assert report.tsa + report.taa == first.tga
    assert report.msa <= report.tsa and report.maa <= report.taa


def test_alert_signs_identify_their_layer():
    trace = run_scenario(default_scenario(ScenarioKind.MIXED, seed=13, duration=20.0))
    registry = DhcpRegistry.from_records(legit_server_records(trace.topology))
    result = run_detection(trace.events,
                           Pipeline(_policy(registry=registry),
                                    {n.id: n for n in trace.topology}),
                           duration=trace.duration)
    assert result.alerts
    seen_layers = set()
    for alert in result.alerts:
        assert layer_of_sign(alert.unique_sign) is alert.layer
        seen_layers.add(alert.layer)
    assert Layer.VERIFIER in seen_layers and Layer.SIGNATURE in seen_layers


def test_every_sign_the_layers_make_names_its_layer():
    # The layers build their signs from fixed prefixes and an alert does
    # not re-check its own, so each sign they can make is checked here once.
    rogue = EventPipeline(_policy()).process_event(
        _event(payload_from_message(_offer(server_id=ROGUE))))
    made = [rogue]
    bounds = SignatureDb([Signature(0, b"zero", AlertClass.DOS),
                          Signature(7, b"seven", AlertClass.DOS),
                          Signature(10**MAX_RULE_ID_DIGITS - 1, b"nines", AlertClass.DOS)])
    for sig in bounds:  # rule signs at the id bounds
        payload = GenericPayload(Proto.TCP, frozenset({"ack"}), 100, sig.pattern)
        made.append(EventPipeline(_policy(signatures=bounds)).process_event(_event(payload)))
    assert [a.unique_sign for a in made] == ["VR-ROGUE", "SG-000", "SG-007", "SG-999999999"]
    signs = {alert.unique_sign: alert.layer for alert in made}
    assert set(_INGREDIENT_SIGNS) == set(Ingredient)
    signs.update(dict.fromkeys(_INGREDIENT_SIGNS.values(), Layer.SIGNATURE))
    assert list(_ANOMALY_SIGNS) == list(traffic_metrics(1, 100, 1, 1.0))
    signs.update((sign, Layer.ANOMALY) for _, sign in _ANOMALY_SIGNS.values())
    assert len(signs) == len(made) + len(Ingredient) + len(_ANOMALY_SIGNS)
    for sign, layer in signs.items():
        assert layer_of_sign(sign) is layer, sign


def test_block_mode_prevents_rogue_bindings_in_replay():
    trace = run_scenario(default_scenario(ScenarioKind.ROGUE_RACE, seed=17, clients=5))
    registry = DhcpRegistry.from_records(legit_server_records(trace.topology))
    pipe = Pipeline(_policy(registry=registry), {n.id: n for n in trace.topology})
    result = run_detection(trace.events, pipe, block=True, duration=trace.duration)
    assert result.blocked

    unblocked = replay_client_bindings(trace.events)
    assert any(b.gateway == ATTACKER_IP for b in unblocked.values())
    blocked = replay_client_bindings(trace.events, frozenset(result.blocked))
    assert not any(b.gateway == ATTACKER_IP for b in blocked.values())


def test_capture_series_is_cumulative_and_bounded():
    trace = run_scenario(default_scenario(ScenarioKind.STARVATION, seed=5, duration=20.0))
    registry = DhcpRegistry.from_records(legit_server_records(trace.topology))
    result = run_detection(trace.events,
                           Pipeline(_policy(registry=registry),
                                    {n.id: n for n in trace.topology}),
                           duration=trace.duration)
    series = result.capture_series
    assert len(series) == 20
    for (t0, g0, c0), (t1, g1, c1) in zip(series, series[1:]):
        assert t1 > t0 and g1 >= g0 and c1 >= c0
        assert c1 <= g1
    assert series[-1][1] == result.tga


def _detect(trace, events, registry):
    pipe = Pipeline(_policy(registry=registry), {n.id: n for n in trace.topology})
    return run_detection(events, pipe, duration=trace.duration)


def test_one_pass_detection_properties_over_random_scenarios():
    rng = random.Random(6)
    kinds = list(ScenarioKind)
    for case in range(10):
        kind = kinds[case % len(kinds)]
        duration = round(rng.uniform(5.0, 25.0), 2)  # mostly not a whole second
        trace = run_scenario(default_scenario(kind, seed=rng.randrange(1000), duration=duration))
        registry = DhcpRegistry.from_records(legit_server_records(trace.topology))
        result = _detect(trace, trace.events, registry)
        assert _detect(trace, (event for event in trace.events), registry) == result, kind

        c = result.counters
        assert c.tp + c.fp + c.tn + c.fn == result.analyzed == len(trace.events)
        assert result.received == result.analyzed
        series = result.capture_series
        assert len(series) == math.ceil(duration)
        assert [row[0] for row in series] == [float(s) for s in range(1, len(series) + 1)]
        for (_, g0, c0), (_, g1, c1) in zip(series, series[1:]):
            assert g1 >= g0 and c1 >= c0
        assert all(captured <= generated for _, generated, captured in series)
        assert series[-1][1] == result.tga


def test_capture_series_with_out_of_order_attack_times():
    rogue = payload_from_message(_offer(server_id=ROGUE, gateway=ATTACKER_IP, dns=ATTACKER_IP))
    quiet = GenericPayload(Proto.TCP, frozenset({"ack"}), 100, b"nothing")
    spec = [(0.5, rogue, AttackClass.ROGUE_DHCP), (2.7, quiet, AttackClass.DOS),
            (1.2, rogue, AttackClass.ROGUE_DHCP), (1.9, quiet, AttackClass.NONE),
            (4.0, quiet, AttackClass.DOS), (3.1, rogue, AttackClass.ROGUE_DHCP),
            (0.2, quiet, AttackClass.DOS), (5.0, rogue, AttackClass.ROGUE_DHCP),
            (5.9, quiet, AttackClass.PROBE), (5.2, rogue, AttackClass.ROGUE_DHCP)]
    events = [_event(payload, time, truth=truth) for time, payload, truth in spec]
    result = run_detection(iter(events), Pipeline(_policy(signatures=SignatureDb([]))),
                           duration=6.0)
    # An event earlier than the last analyzed one is skipped, and the
    # analyzed events keep their indices.
    assert (result.received, result.analyzed, result.tga) == (10, 5, 5)
    assert [alert.evidence for alert in result.alerts] == [(0,), (7,)]
    assert result.capture_series == [
        (1.0, 1, 1), (2.0, 1, 1), (3.0, 2, 1), (4.0, 3, 1), (5.0, 4, 2), (6.0, 5, 2)]


def test_capture_series_last_row_holds_every_attack():
    rogue = payload_from_message(_offer(server_id=ROGUE, gateway=ATTACKER_IP, dns=ATTACKER_IP))
    quiet = GenericPayload(Proto.TCP, frozenset({"ack"}), 100, b"nothing")
    policy = _policy(signatures=SignatureDb([]))
    spec = [(0.5, rogue, AttackClass.ROGUE_DHCP), (5.0, quiet, AttackClass.DOS)]
    events = [_event(payload, time, truth=truth) for time, payload, truth in spec]
    result = run_detection(events, Pipeline(policy), duration=2.0)
    # 5.0 is past the duration, so it is skipped.
    assert (result.received, result.analyzed, result.tga, result.counters.tp) == (2, 1, 1, 1)
    assert result.capture_series == [(1.0, 1, 1), (2.0, 1, 1)]

    # Times out of order and past the duration, many seeded draws.
    rng = random.Random(23)
    truths = (AttackClass.NONE, AttackClass.DOS, AttackClass.ROGUE_DHCP)
    for _ in range(60):
        duration = rng.choice((0.0, 0.5, 1.0, 3.0, round(rng.uniform(0.1, 6.0), 2)))
        events = [_event(rng.choice((rogue, quiet)), round(rng.uniform(0, 2 * duration + 1), 2),
                         truth=rng.choice(truths)) for _ in range(rng.randrange(15))]
        result = run_detection(events, Pipeline(policy), duration=duration)
        series = result.capture_series
        assert [row[0] for row in series] == [float(s) for s in range(1, math.ceil(duration) + 1)]
        for (_, g0, c0), (_, g1, c1) in zip(series, series[1:]):
            assert g0 <= g1 and c0 <= c1
        if series:
            assert series[-1][1:] == (result.tga, result.counters.tp)
        assert result == reference.detect(events, policy, duration=duration).result


def test_an_event_behind_the_last_one_is_skipped_not_kept_in_the_window():
    quiet = GenericPayload(Proto.TCP, frozenset({"ack"}), 100, b"nothing")
    policy = dataclasses.replace(_policy(), ingredients=IngredientConfig(flood_threshold=2))
    events = [_event(quiet, time) for time in (10.0, 5.0, 10.5)]
    result = run_detection(events, Pipeline(policy), duration=11.0)
    # Only 10.0 and 10.5 lie in the 1 s window at 10.5, so two events flood nothing.
    assert (result.received, result.analyzed, result.alerts) == (3, 2, [])


def test_an_event_past_the_duration_closes_no_window():
    quiet = GenericPayload(Proto.TCP, frozenset({"ack"}), 100, b"nothing")
    events = [_event(quiet, time, src=src) for time, src in ((0.1, 1), (0.2, 2), (0.3, 1))]
    late = _event(quiet, 1e6, src=3)
    start = time.perf_counter()
    result = run_detection(events + [late], Pipeline(_policy()), duration=1.0)
    assert time.perf_counter() - start < 0.1
    assert (result.received, result.analyzed) == (4, 3)
    assert result.st_series == run_detection(events, Pipeline(_policy()), duration=1.0).st_series


def test_run_detection_bounds_the_windows_and_the_duration():
    pipe = Pipeline(dataclasses.replace(_policy(), anomaly=AnomalyConfig(window=1e-3)))
    assert len(run_detection([], pipe, duration=MAX_WINDOWS * 1e-3).capture_series) == 100
    with pytest.raises(ValueError, match="anomaly.window"):
        run_detection([], pipe, duration=MAX_WINDOWS * 1e-3 * 1.01)
    # Both ends of the duration's range are accepted.
    assert run_detection([], Pipeline(_policy()), duration=0.0).capture_series == []
    series = run_detection([], Pipeline(_policy()), duration=MAX_DURATION).capture_series
    assert len(series) == MAX_DURATION == 100_000 and series[-1] == (MAX_DURATION, 0, 0)
    for duration in (-1.0, MAX_DURATION * 1.01, math.nan):
        with pytest.raises(ValueError, match="duration"):
            run_detection([], Pipeline(_policy()), duration=duration)
