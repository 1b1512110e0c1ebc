from collections import Counter

import pytest

from dhcpguard.alerts import AlertClass, Layer, Severity, layer_of_sign
from dhcpguard.anomaly import DISTINCT_SOURCES, MEAN_SIZE, RATE, AnomalyConfig
from dhcpguard.dhcp import DhcpMessage, Ipv4Addr, MacAddr, MsgType
from dhcpguard.netsim import (
    ATTACKER_IP,
    BROADCAST,
    AttackClass,
    DhcpPayload,
    GenericPayload,
    NodeSpec,
    Proto,
    Role,
    ScenarioKind,
    SimEvent,
    default_scenario,
    legit_server_records,
    replay_client_bindings,
    run_scenario,
)
from dhcpguard.pipeline import (
    DhcpRegistry,
    NotAnOffer,
    Pipeline,
    Policy,
    PolicyMissing,
    StaleVersion,
    VerifyResult,
    fingerprint,
    run_detection,
    verify_dhcp_offer,
)
from dhcpguard.signatures import (
    Direction,
    IngredientConfig,
    Signature,
    SignatureDb,
    load_signatures,
    sample_signatures_path,
)

import legacy_detect as legacy

LEGIT = Ipv4Addr("10.0.0.2")
GATEWAY = Ipv4Addr("10.0.0.1")
ROGUE = Ipv4Addr("10.0.66.1")


def _registry():
    return DhcpRegistry.from_records([{
        "server_id": str(LEGIT), "mac": "02:00:00:00:00:01",
        "gateway": str(GATEWAY), "dns": str(GATEWAY),
    }])


def _policy(version=1, registry=None, signatures=None):
    return Policy(
        version=version,
        registry=registry if registry is not None else _registry(),
        signatures=signatures if signatures is not None else load_signatures(sample_signatures_path()),
    )


def _offer(server_id=LEGIT, gateway=GATEWAY, dns=GATEWAY, xid=1):
    return DhcpMessage(MsgType.OFFER, xid, MacAddr.from_int(0x020000000004),
                       your_ip=Ipv4Addr("10.0.1.1"), server_id=server_id,
                       gateway=gateway, dns=dns, lease_secs=300)


def _event(payload, time=0.0, src=1, dst=4, truth=AttackClass.NONE):
    return SimEvent(time, src, dst, payload, truth)


# -- verifier -------------------------------------------------------------------


def test_registered_offer_is_valid():
    assert verify_dhcp_offer(_offer(), _registry()) is VerifyResult.VALID


def test_unregistered_server_is_rogue():
    assert verify_dhcp_offer(_offer(server_id=ROGUE, gateway=ATTACKER_IP, dns=ATTACKER_IP),
                             _registry()) is VerifyResult.ROGUE


def test_spoofed_identity_fails_fingerprint():
    # correct server_id but the gateway the rogue rewrote: fingerprint mismatch
    spoofed = _offer(server_id=LEGIT, gateway=ATTACKER_IP)
    assert verify_dhcp_offer(spoofed, _registry()) is VerifyResult.ROGUE


def test_verify_rejects_non_offers():
    discover = DhcpMessage(MsgType.DISCOVER, 1, MacAddr.from_int(4))
    with pytest.raises(NotAnOffer):
        verify_dhcp_offer(discover, _registry())


def test_fingerprint_cache_is_bounded():
    maxsize = fingerprint.cache_info().maxsize
    assert maxsize is not None and 0 < maxsize <= 4096
    for i in range(maxsize + 10):  # forged triples cannot grow it further
        server = Ipv4Addr(0x0A000000 + i)
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
    assert verify_dhcp_offer(_offer(), empty) is VerifyResult.ROGUE


def test_registry_rejects_duplicate_server_ids():
    record = {"server_id": str(LEGIT), "mac": "02:00:00:00:00:01",
              "gateway": str(GATEWAY), "dns": str(GATEWAY)}
    with pytest.raises(ValueError):
        DhcpRegistry.from_records([record, record])


def test_alert_sign_must_match_layer():
    from dhcpguard.alerts import Alert
    with pytest.raises(ValueError):
        Alert(time=0.0, layer=Layer.ANOMALY, attack_class=AlertClass.DOS,
              severity=Severity.MEDIUM, evidence=(0,), unique_sign="VR-ROGUE")


# -- ordering and short-circuit ----------------------------------------------------


def test_rogue_offer_short_circuits_at_verifier():
    pipe = Pipeline(_policy())
    event = _event(DhcpPayload.from_message(_offer(server_id=ROGUE)),
                   truth=AttackClass.ROGUE_DHCP)
    alert = pipe.process_event(event, index=7)
    assert alert is not None
    assert alert.layer is Layer.VERIFIER
    assert alert.attack_class is AlertClass.ROGUE_DHCP
    assert alert.severity is Severity.HIGH
    assert alert.evidence == (7,)
    assert pipe.last_consulted == (Layer.VERIFIER,)


def test_signature_match_stops_before_anomaly():
    pipe = Pipeline(_policy())
    payload = GenericPayload(Proto.TCP, frozenset({"ack"}), 120,
                             b"mail attachment freepics.exe")
    alert = pipe.process_event(_event(payload, truth=AttackClass.R2L))
    assert alert is not None and alert.layer is Layer.SIGNATURE
    assert pipe.last_consulted == (Layer.VERIFIER, Layer.SIGNATURE)


def test_dual_matching_event_reports_signature_layer_only():
    from dhcpguard.anomaly import DISTINCT_SOURCES, MEAN_SIZE, RATE
    pipe = Pipeline(_policy())
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


def test_benign_event_consults_all_three_layers():
    pipe = Pipeline(_policy())
    payload = GenericPayload(Proto.TCP, frozenset({"ack"}), 120, b"GET /index.html")
    assert pipe.process_event(_event(payload)) is None
    assert pipe.last_consulted == (Layer.VERIFIER, Layer.SIGNATURE, Layer.ANOMALY)


def test_valid_offer_passes_through_quietly():
    pipe = Pipeline(_policy())
    assert pipe.process_event(_event(DhcpPayload.from_message(_offer()))) is None
    assert pipe.last_consulted == (Layer.VERIFIER, Layer.SIGNATURE, Layer.ANOMALY)


def test_short_circuit_instrumentation_over_mixed_trace():
    trace = run_scenario(default_scenario(ScenarioKind.MIXED, seed=31, duration=20.0))
    registry = DhcpRegistry.from_records(legit_server_records(trace.topology))
    pipe = Pipeline(_policy(registry=registry), {n.id: n for n in trace.topology})
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
    pipe = Pipeline(_policy())
    mac = MacAddr.from_int(0x020000000004)
    request = DhcpMessage(MsgType.REQUEST, 0x77, mac, your_ip=Ipv4Addr("10.0.66.100"),
                          server_id=ROGUE)
    rogue_ack = DhcpMessage(MsgType.ACK, 0x77, mac, your_ip=Ipv4Addr("10.0.66.100"),
                            server_id=ROGUE, gateway=ATTACKER_IP, dns=ATTACKER_IP,
                            lease_secs=300)
    assert pipe.process_event(_event(DhcpPayload.from_message(request), time=0.0), 0) is None
    ack_alert = pipe.process_event(_event(DhcpPayload.from_message(rogue_ack), time=0.1), 1)
    assert ack_alert is not None and ack_alert.layer is Layer.VERIFIER
    late = _event(GenericPayload(Proto.TCP, frozenset({"ack"}), 100, b"later"), time=10.0)
    assert pipe.process_event(late, 2) is None


def test_process_event_requires_policy():
    pipe = Pipeline()
    with pytest.raises(PolicyMissing):
        pipe.process_event(_event(DhcpPayload.from_message(_offer())))


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
    _event(DhcpPayload.from_message(DhcpMessage(MsgType.DISCOVER, 9, MacAddr.from_int(6))),
           time=9.8, src=6, dst=BROADCAST),
    _generic(10.0, 7, 300, b"last"),
]


def test_anomaly_window_sees_only_generic_events_that_reached_it():
    pipe = Pipeline(_two_window_policy())
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
    pipe = Pipeline(_two_window_policy(flood_threshold=5))
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


# -- policy updates -----------------------------------------------------------------


def test_policy_update_allows_previously_rogue_server():
    pipe = Pipeline(_policy(version=1))
    rogue_offer = _event(DhcpPayload.from_message(
        _offer(server_id=ROGUE, gateway=ATTACKER_IP, dns=ATTACKER_IP)))
    assert pipe.process_event(rogue_offer) is not None

    extended = DhcpRegistry.from_records(
        [{"server_id": str(LEGIT), "mac": "02:00:00:00:00:01",
          "gateway": str(GATEWAY), "dns": str(GATEWAY)},
         {"server_id": str(ROGUE), "mac": "02:00:00:00:00:02",
          "gateway": str(ATTACKER_IP), "dns": str(ATTACKER_IP)}])
    pipe.update_policy(_policy(version=2, registry=extended))
    assert pipe.process_event(rogue_offer) is None  # replay now verifies


def test_mid_trace_policy_updates_match_the_reference(monkeypatch):
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

    def run(reference):
        pipe = Pipeline(policies[0], {n.id: n for n in trace.topology})
        if reference:
            pipe._window = legacy.SlidingWindow(pipe.nodes)
        alerts, outcomes = [], Counter()
        for index, event in enumerate(trace.events):
            if index in switch_at:
                pipe.update_policy(switch_at[index])
            alert = pipe.process_event(event, index)
            if alert is not None:
                alerts.append(alert.to_json())
            outcomes[alert is not None, event.ground_truth is not AttackClass.NONE] += 1
        return alerts, outcomes, pipe.layer_calls, pipe.window_tracker.counters

    got = run(reference=False)
    monkeypatch.setattr("dhcpguard.pipeline.match_signature", legacy.match_signature)
    expected = run(reference=True)
    assert got == expected
    signs = Counter(alert["unique_sign"] for alert in expected[0])
    for sign in ("SG-ING-retransmission", "SG-ING-radio_range", "SG-003", "SG-005"):
        assert signs[sign] > 0  # SG-003 only in the sample rules, SG-005 only in `other`


def test_expired_requests_keep_request_order_across_a_timeout_change():
    mac = MacAddr.from_int(0x020000000004)

    def request(xid, time, index):
        msg = DhcpMessage(MsgType.REQUEST, xid, mac, your_ip=Ipv4Addr("10.0.1.1"), server_id=LEGIT)
        return pipe.process_event(_event(DhcpPayload.from_message(msg), time=time), index)

    empty = SignatureDb([])
    pipe = Pipeline(Policy(1, _registry(), empty, IngredientConfig(retransmit_timeout=5.0)))
    assert request(0x1, 0.0, 0) is None
    pipe.update_policy(Policy(2, _registry(), empty, IngredientConfig(retransmit_timeout=0.5)))
    assert request(0x2, 1.0, 1) is None
    late = _event(GenericPayload(Proto.TCP, frozenset({"ack"}), 100, b"later"), time=10.0)
    alert = pipe.process_event(late, 2)
    # both expired; the first REQUEST leads although the second one's deadline came first
    assert alert.unique_sign == "SG-ING-retransmission"
    assert alert.evidence == (2, 0)


def test_stale_policy_version_rejected():
    pipe = Pipeline(_policy(version=5))
    with pytest.raises(StaleVersion):
        pipe.update_policy(_policy(version=3))
    with pytest.raises(StaleVersion):
        pipe.update_policy(_policy(version=5))


def test_policy_bump_with_identical_content_is_idempotent():
    events = [
        _event(DhcpPayload.from_message(_offer()), time=0.1),
        _event(DhcpPayload.from_message(_offer(server_id=ROGUE)), time=0.2,
               truth=AttackClass.ROGUE_DHCP),
        _event(GenericPayload(Proto.TCP, frozenset({"ack"}), 100, b"hello"), time=0.3),
    ]
    first = Pipeline(_policy(version=1))
    verdicts_1 = [first.process_event(e, i) for i, e in enumerate(events)]
    second = Pipeline(_policy(version=1))
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
    assert result.generated["rogue_dhcp"] == result.captured["rogue_dhcp"]


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
    assert result.generated_signature["u2r"] == 1
    assert result.generated_anomaly["u2r"] == 1


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
    assert first.tsa + first.taa == first.tga
    assert first.msa <= first.tsa and first.maa <= first.taa


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
